"""Measurement helpers: percentiles, the pace probe, segments, the environment."""

from __future__ import annotations

import bisect
import gc
import math
import os
import platform
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: Tail percentiles tried, highest first. The ladder stops at p90: on a
#: shared two-core machine, runs that catch a busy neighbour stretch the
#: rarer percentiles (p95 of the sharded batch time doubled in some runs
#: while its p50 moved by a quarter).
TAIL_LADDER = (90.0, 75.0, 50.0)

#: Samples a tail percentile must have beyond it.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile): the highest ladder percentile with at least
    ``TAIL_BEYOND`` samples beyond it (the median if none has)."""
    for pct in TAIL_LADDER:
        if len(values) * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return percentile(values, pct), pct
    return percentile(values, 50.0), 50.0


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x) over positive pairs."""
    pairs = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pairs) < 2:
        return 0.0
    mean_x = sum(x for x, _ in pairs) / len(pairs)
    mean_y = sum(y for _, y in pairs) / len(pairs)
    num = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    den = sum((x - mean_x) ** 2 for x, _ in pairs)
    return num / den


#: About the seconds :meth:`Pace.probe` takes on the reference machine (a
#: shared two-vCPU x86-64 VM, CPython 3.11). Timings are reported scaled
#: to this speed; see :class:`Pace`.
REFERENCE_PROBE_S = 0.025


class Pace:
    """How fast the machine runs right now, from a fixed pure-Python probe.

    A shared machine switches between speed modes for seconds to
    minutes, and a run's timings move with the share of it spent in the
    slow mode. So the probe runs between the units of work a run times
    (each set-up and restart, and segments of serving), and each unit's
    times are multiplied by ``REFERENCE_PROBE_S`` over the mean of the
    probes on either side of it: the time the work would have taken at
    the reference speed. The probe is the interpreter work the serving
    path does (arithmetic, dictionary lookups that build and sort
    tuples, bisection over sorted runs, recursive generators, hashing
    frozen dataclasses) but calls no code of the program, so a change
    to the program cannot move it.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {i: (i, -i) for i in range(16384)}
        self._keys = [rng.randrange(16384) for _ in range(15000)]
        self._runs = [sorted(rng.sample(range(1 << 20), 2048)) for _ in range(32)]
        self._queries = [rng.randrange(1 << 20) for _ in range(5000)]
        self._tree = {node: (2 * node + 1, 2 * node + 2) for node in range(1023)}
        self._points = [_Point(i % 97, i % 89) for i in range(5000)]
        self.samples: List[float] = []

    def probe(self) -> float:
        """Seconds the probe takes now: the faster of two tries, each with
        the garbage collector paused, so that a collection of the heap the
        benchmark built, or a short interruption, does not count."""
        tries = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(2):
                started = time.perf_counter()
                self._interpret()
                tries.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        return min(tries)

    def _interpret(self) -> None:
        total = 0
        for i in range(50_000):
            total += i * i % 7
        rows = [self._table[k] for k in self._keys]
        rows.sort()
        found = []
        for j, query in enumerate(self._queries):
            run = self._runs[j & 31]
            at = bisect.bisect_left(run, query)
            if at < len(run):
                found.append((query, run[at]))
        for _ in range(3):
            for path in _paths(self._tree, 0, 10, ()):
                total += len(path)
        counts: Dict[_Point, int] = {}
        for point in self._points:
            counts[point] = counts.get(point, 0) + 1

    def mark(self) -> float:
        """Probe now; return the scale of the work done since the last mark."""
        seconds = self.probe()
        previous = self.samples[-1] if self.samples else seconds
        self.samples.append(seconds)
        return REFERENCE_PROBE_S / ((previous + seconds) / 2)

    def summary(self) -> Dict[str, float]:
        return {
            "reference_probe_s": REFERENCE_PROBE_S,
            "probes": len(self.samples),
            "probe_s_median": statistics.median(self.samples),
            "probe_s_min": min(self.samples),
            "probe_s_max": max(self.samples),
        }


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


def _paths(tree, node: int, depth: int, prefix: Tuple[int, ...]):
    """Every root-to-leaf path below ``node``, by recursive generators."""
    if depth == 0:
        yield prefix
        return
    for child in tree.get(node, ()):
        yield from _paths(tree, child, depth - 1, prefix + (child,))


def environment() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


#: Serving seconds between two probes of the pace: short enough to follow
#: speed-mode switches, which can last only seconds, and long enough that
#: probing takes a small share of a run.
SEGMENT_S = 0.4


@dataclass
class Segment:
    """Work done between two probes of the pace (seconds unless named)."""

    #: Each request's time; on the sharded workload, each batch's.
    latencies: List[float]
    #: Access requests answered.
    served: int
    answers: int
    #: Serving time; on churn, deltas included.
    seconds: float
    #: :meth:`Pace.mark` at the end of the segment.
    scale: float
    deltas: List[float] = field(default_factory=list)


@dataclass
class Measurements:
    """Samples of one end-to-end run, each with the scale of its pace."""

    #: (seconds, scale) of each set-up and each restart.
    setups: List[Tuple[float, float]] = field(default_factory=list)
    restarts: List[Tuple[float, float]] = field(default_factory=list)
    segments: List[Segment] = field(default_factory=list)
    #: Whether latencies are batch turnarounds.
    batched: bool = False
    space_cells: int = 0
    delay_steps_max: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def latencies(self, scaled: bool = True) -> List[float]:
        return [
            t * (s.scale if scaled else 1.0) for s in self.segments for t in s.latencies
        ]

    def deltas(self, scaled: bool = True) -> List[float]:
        return [
            t * (s.scale if scaled else 1.0) for s in self.segments for t in s.deltas
        ]

    def throughput(self, scaled: bool = True) -> Tuple[float, float]:
        """Requests and answers per second of serving time."""
        busy = sum(s.seconds * (s.scale if scaled else 1.0) for s in self.segments)
        return (
            sum(s.served for s in self.segments) / busy,
            sum(s.answers for s in self.segments) / busy,
        )

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` operations; all fail unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 5:
                self.failures.append(what)


class Segmenter:
    """Gathers one client's operations into segments, ending one and
    probing the pace after every ``SEGMENT_S`` of serving time."""

    def __init__(self, into: Measurements, pace: Pace) -> None:
        self.into, self.pace = into, pace
        self._open()

    def _open(self) -> None:
        self.latencies: List[float] = []
        self.deltas: List[float] = []
        self.answers = 0
        self.seconds = 0.0

    def request(self, seconds: float, answers: int) -> None:
        self.latencies.append(seconds)
        self.answers += answers
        self.seconds += seconds

    def delta(self, seconds: float) -> None:
        self.deltas.append(seconds)
        self.seconds += seconds

    def cut(self, due: bool = True) -> None:
        """End the segment if it is due (or, with ``due=False``, if it
        holds any work)."""
        if self.seconds == 0.0 or (due and self.seconds < SEGMENT_S):
            return
        self.into.segments.append(
            Segment(
                self.latencies,
                len(self.latencies),
                self.answers,
                self.seconds,
                self.pace.mark(),
                self.deltas,
            )
        )
        self._open()


def scaled(samples: Sequence[Tuple[float, float]]) -> List[float]:
    return [seconds * scale for seconds, scale in samples]


def serve_closed_loop(
    stream: Sequence[Tuple],
    serve: Callable[[Tuple], List[Tuple]],
    expected: Callable[[Tuple, List[Tuple]], bool],
    seconds: float,
    into: Measurements,
    pace: Pace,
) -> None:
    """One client replays ``stream`` whole, again and again, for ``seconds``.

    Each request is timed alone; its answers are checked after its timer
    stops. Time is checked only between passes over the stream, so every
    run serves the same request mix a whole number of times.
    """
    clock = time.perf_counter
    deadline = clock() + seconds
    segments = Segmenter(into, pace)
    passes = 0
    while not passes or clock() < deadline:
        for access in stream:
            started = clock()
            try:
                rows = serve(access)
            except Exception as error:  # noqa: BLE001 - counted as failed
                into.check(False, f"request {access!r}: {error!r}")
                continue
            segments.request(clock() - started, len(rows))
            into.check(expected(access, rows), f"request {access!r} answers differ")
            segments.cut()
        passes += 1
    segments.cut(due=False)


def seeded_sample(items: Sequence, size: int, rng) -> List:
    """A seeded sample of at most ``size`` items, in sorted order."""
    return sorted(rng.sample(list(items), min(size, len(items))))


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
