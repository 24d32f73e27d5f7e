"""The four serving workloads, each with an end-to-end and a traced run.

End-to-end runs call only the serving surface users call: ``register``
/ ``prefetch`` / ``open`` / ``serve``, ``register_dynamic`` /
``apply_deltas``, ``DecomposedRepresentation`` and ``space_report``.
Traced runs repeat the work as the separate calls each layer exposes,
each inside a span, and return the per-layer metrics; a layer whose
function is gone is reported missing instead of failing the run.

Every input (databases, request and update streams, the oracle's
answers) is generated before any timer starts. Every workload is a
closed loop: a client sends its next request only after the previous
reply, with at most two clients (one per core of the reference
machine).
"""

from __future__ import annotations

import asyncio
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import (
    Measurements,
    Pace,
    Segment,
    Segmenter,
    loglog_slope,
    median_or_zero,
    serve_closed_loop,
    seeded_sample,
)
from metrics import TRADEOFF_TAUS, WHY
from tracing import Tracer

from repro import (
    AsyncViewServer,
    CompressedRepresentation,
    DecomposedRepresentation,
    ShardedViewServer,
    ViewServer,
    infer_shard_key,
)
from repro.core.dynamic import DynamicRepresentation
from repro.core.snapshot import relation_fingerprints
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine import api, dynamic_serving
from repro.engine.telemetry import Telemetry
from repro.hypergraph import connex_fhw, hypergraph_of_view, slack
from repro.joins.generic_join import JoinCounter
from repro.joins.hash_join import evaluate_by_hash_join
from repro.measure.delay import measure_enumeration
from repro.query.adorned import AdornedView
from repro.workloads import triangle_database
from repro.workloads.queries import path_view, triangle_view
from repro.workloads.streams import request_stream, update_stream

#: Every database comes from this one seed, so space and step counts
#: compare exactly between runs; ``--seed`` draws the request and update
#: streams.
DATASET_SEED = 2018

TAU = 8
SETUP_REPEATS = 3
DELAY_SAMPLE = 200
ZIPF_SKEW = 1.1

TRIANGLE_NODES = 1000
TRIANGLE_EDGES = 12000
LOOKUP_REQUESTS = 4096

SHARDS = 4
ASYNC_WORKERS = 2
CLIENTS = 2
BATCH_SIZE = 32

PATH_LENGTH = 12
PATH_DOMAIN = 12
PATH_REQUESTS = 48
PATH_DELAY_SAMPLE = 16

CHURN_NODES = 300
CHURN_EDGES = 3000
CHURN_OPS = 50
CHURN_UPDATE_FRACTION = 0.2
CHURN_REBUILD_EVERY = 4
#: Distinct operation streams per run, each replayed from the base data
#: in its own cycle: the more distinct queries a run serves, the less
#: its figures depend on which few keys one Zipf stream repeats.
CHURN_STREAMS = 6
CHURN_RESTART_SAMPLE = 50

TRADEOFF_SAMPLE = 100

Answers = Dict[Tuple, List[Tuple]]


def oracle_answers(view: AdornedView, db: Database) -> Answers:
    """Sorted free-variable answers of ``view`` per access tuple.

    One pairwise hash-join evaluation of the whole view (no code shared
    with the structures under test), grouped by the bound values.
    """
    bound = [i for i, ch in enumerate(view.pattern) if ch == "b"]
    free = [i for i, ch in enumerate(view.pattern) if ch == "f"]
    grouped: Answers = {}
    for row in evaluate_by_hash_join(view.query, db):
        grouped.setdefault(tuple(row[i] for i in bound), []).append(
            tuple(row[i] for i in free)
        )
    for rows in grouped.values():
        rows.sort()
    return grouped


def _ordered_matches(oracle: Answers):
    """Served answers must equal the oracle's, in lexicographic order."""
    return lambda access, rows: rows == oracle.get(access, [])


def _traced_layer(tracer: Tracer, name: str, scale: float = 1e6) -> float:
    """Median duration of one span name, in µs by default (0 if none)."""
    return median_or_zero(tracer.durations(name)) * scale


def _cursor_delay(open_measured, sample, matches, m: Measurements) -> int:
    """Largest logical step gap over ``sample`` with measured cursors."""
    worst = 0
    for access in sample:
        cursor = open_measured(access)
        rows = cursor.fetchall()
        m.check(matches(access, rows), f"measured {access!r}")
        worst = max(worst, cursor.stats().step_max_gap)
    return worst


def _enumeration_delay(structure, sample, expected: Answers, m) -> int:
    """Largest logical step gap over ``sample`` enumerated directly; the
    enumerated answers are checked as sorted lists against ``expected``."""
    worst = 0
    for access in sample:
        counter = JoinCounter()
        rows: List[Tuple] = []
        stats = measure_enumeration(
            _collected(structure.enumerate(access, counter=counter), rows), counter
        )
        m.check(sorted(rows) == expected[access], f"measured {access!r}")
        worst = max(worst, stats.step_max_gap)
    return worst


def _collected(answers, into: List[Tuple]):
    """Pass ``answers`` through, keeping a copy of each in ``into``."""
    for row in answers:
        into.append(row)
        yield row


def _trace_build(tracer: Tracer, view, db) -> Dict[str, float]:
    """Build one structure, then compile its layout, each in a span."""
    with tracer.request("setup"):
        with tracer.span("core.structure.build") as build:
            structure = CompressedRepresentation(
                view, db, tau=TAU, compile_layout=False
            )
        compile_layout = tracer.resolve(
            "core.layout.compile", structure, "compile_layout"
        )
        if compile_layout is None:
            return {"core.structure.build_s": build.duration}
        with tracer.span("core.layout.compile") as compiled:
            compile_layout()
    return {
        "core.structure.build_s": build.duration,
        "core.layout.compile_s": compiled.duration,
    }


class Workload:
    name = ""

    @property
    def why(self) -> str:
        return WHY[self.name]

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch

    def run(self, seconds: float, pace: Pace) -> Measurements:
        raise NotImplementedError

    def trace(
        self, seconds: float, tracer: Tracer, into: Measurements
    ) -> Dict[str, float]:
        raise NotImplementedError


class _Triangle(Workload):
    """Shared inputs of the two workloads over the large triangle."""

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.view = triangle_view("bbf")
        self.db = triangle_database(
            TRIANGLE_NODES, TRIANGLE_EDGES, seed=DATASET_SEED
        )
        self.stream = request_stream(
            self.view,
            self.db,
            LOOKUP_REQUESTS,
            seed=seed,
            skew=ZIPF_SKEW,
            miss_rate=0.1,
        )
        self.oracle = oracle_answers(self.view, self.db)
        self.matches = _ordered_matches(self.oracle)
        self.sample = seeded_sample(
            self.oracle, DELAY_SAMPLE, random.Random(DATASET_SEED)
        )


class PointLookup(_Triangle):
    name = "point-lookup"

    def _start(self, telemetry: Optional[Telemetry] = None):
        started = time.perf_counter()
        server = ViewServer(self.db, telemetry=telemetry)
        name = server.register(self.view, tau=TAU)
        server.prefetch(name)
        first = server.open(name, self.stream[0]).fetchall()
        return server, name, time.perf_counter() - started, first

    def _serve(self, server, name, seconds: float, into: Measurements, pace) -> None:
        serve_closed_loop(
            self.stream,
            lambda access: server.open(name, access).fetchall(),
            self.matches,
            seconds,
            into,
            pace,
        )

    def run(self, seconds: float, pace: Pace) -> Measurements:
        m = Measurements()
        pace.mark()
        for _ in range(SETUP_REPEATS):
            server, name, elapsed, first = self._start()
            m.setups.append((elapsed, pace.mark()))
            m.check(self.matches(self.stream[0], first), "first request")
        self._serve(server, name, seconds, m, pace)
        m.space_cells = server.representation(name).space_report().total_cells
        m.delay_steps_max = _cursor_delay(
            lambda access: server.open(name, access, measure=True),
            self.sample,
            self.matches,
            m,
        )
        return m

    def trace(
        self, seconds: float, tracer: Tracer, into: Measurements
    ) -> Dict[str, float]:
        layers = _trace_build(tracer, self.view, self.db)
        server, name, _, _ = self._start()
        telemetry = Telemetry()
        observed, observed_name, _, _ = self._start(telemetry=telemetry)
        try:
            # Untraced serving, with and without a telemetry sink, in
            # alternating slices so that drift hits both sides alike.
            plain, instrumented, pace = Measurements(), Measurements(), Pace()
            for _ in range(2):
                self._serve(server, name, seconds / 8, plain, pace)
                self._serve(observed, observed_name, seconds / 8, instrumented, pace)
            for part in (plain, instrumented):
                into.check(part.failed == 0, "untraced serving", part.attempted)
            # Spans hold raw times, so the overheads compare raw times.
            untraced_p50 = statistics.median(plain.latencies(scaled=False))
            telemetry_p50 = statistics.median(instrumented.latencies(scaled=False))
            layers["engine.telemetry.overhead_us"] = (
                telemetry_p50 - untraced_p50
            ) * 1e6
            layers.update(
                self._trace_requests(seconds / 2, tracer, server, name, into)
            )
            layers["bench.trace_overhead_us"] = (
                _traced_layer(tracer, "engine.server.request") - untraced_p50 * 1e6
            )
        finally:
            telemetry.close()
        return layers

    def _trace_requests(self, seconds, tracer, server, name, into):
        """Each request through the facade, then again layer by layer."""
        lookup = tracer.resolve("engine.cache.lookup", server, "representation")
        as_request = tracer.resolve("engine.api.open", api, "as_request")
        open_cursor = tracer.resolve("engine.api.open", api, "open_cursor")
        decomposed = None not in (lookup, as_request, open_cursor)
        before = server.cache_stats
        facade_self: List[float] = []
        walked = answers = 0.0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for access in self.stream:
                with tracer.request():
                    with tracer.span("engine.server.request") as request:
                        rows = server.open(name, access).fetchall()
                    into.check(self.matches(access, rows), f"request {access!r}")
                    if not decomposed:
                        continue
                    with tracer.span("engine.cache.lookup") as hit:
                        representation = lookup(name)
                    with tracer.span("engine.api.open") as opened:
                        cursor = open_cursor(representation, as_request(name, access))
                    with tracer.span("core.kernel.walk") as walk:
                        rows = cursor.fetchall()
                    measured = as_request(name, access, measure=True)
                    with tracer.span("core.structure.reference_walk"):
                        open_cursor(representation, measured).fetchall()
                into.check(self.matches(access, rows), f"layered {access!r}")
                # The facade's own share: the request minus the layers it
                # calls, replayed one by one for the same access.
                layered = hit.duration + opened.duration + walk.duration
                facade_self.append(request.duration - layered)
                walked += walk.duration
                answers += len(rows)
        layers = {"engine.cache.hit_rate": server.cache_stats.delta(before).hit_rate}
        if not decomposed:
            return layers
        return {
            **layers,
            "engine.cache.lookup_us": _traced_layer(tracer, "engine.cache.lookup"),
            "engine.api.open_us": _traced_layer(tracer, "engine.api.open"),
            "engine.server.self_us": median_or_zero(facade_self) * 1e6,
            "core.kernel.walk_us": _traced_layer(tracer, "core.kernel.walk"),
            "core.kernel.us_per_answer": walked / answers * 1e6 if answers else 0.0,
            "core.structure.reference_walk_us": _traced_layer(
                tracer, "core.structure.reference_walk"
            ),
        }


class ShardedBatch(_Triangle):
    name = "sharded-batch"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.batches = [
            self.stream[i : i + BATCH_SIZE]
            for i in range(0, len(self.stream), BATCH_SIZE)
        ]

    def _batch_ok(self, batch, result) -> bool:
        return len(result.answers) == len(batch) and all(
            self.matches(access, rows)
            for access, rows in zip(batch, result.answers)
        )

    async def _setup(self, m: Measurements, pace: Pace):
        started = time.perf_counter()
        backend = ShardedViewServer(self.db, SHARDS, infer_shard_key(self.view))
        server = AsyncViewServer(backend, max_workers=ASYNC_WORKERS)
        name = server.register(self.view, tau=TAU)
        structures = backend.prefetch(name)
        first = await server.serve(name, self.batches[0])
        m.setups.append((time.perf_counter() - started, pace.mark()))
        m.check(
            self._batch_ok(self.batches[0], first.result),
            "first batch",
            len(self.batches[0]),
        )
        return server, backend, name, structures

    def run(self, seconds: float, pace: Pace) -> Measurements:
        return asyncio.run(self._run(seconds, pace))

    async def _run(self, seconds: float, pace: Pace) -> Measurements:
        # A batched request's answers arrive with its batch, so request
        # latency is batch turnaround.
        m = Measurements(batched=True)
        pace.mark()
        for repeat in range(SETUP_REPEATS):
            server, backend, name, structures = await self._setup(m, pace)
            if repeat < SETUP_REPEATS - 1:
                _close(server, backend)
        try:
            deadline = time.perf_counter() + seconds
            await self._pass(server, name, m, pace)
            while time.perf_counter() < deadline:
                await self._pass(server, name, m, pace)
            m.space_cells = sum(s.space_report().total_cells for s in structures)
            measured = await server.serve(name, self.sample, measure=True)
            m.check(
                self._batch_ok(self.sample, measured.result),
                "delay sample",
                len(self.sample),
            )
            m.delay_steps_max = measured.result.max_step_gap
        finally:
            _close(server, backend)
        return m

    async def _pass(self, server, name, m: Measurements, pace: Pace) -> None:
        """Both clients send their half of the stream, then answers are
        checked outside the timed pass; a pass is one segment."""
        served: List[Tuple[List[Tuple], object]] = []
        latencies: List[float] = []

        async def client(batches) -> None:
            for batch in batches:
                started = time.perf_counter()
                try:
                    result = await server.serve(name, batch)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    m.check(False, f"batch: {error!r}", len(batch))
                    continue
                latencies.append(time.perf_counter() - started)
                served.append((batch, result.result))

        started = time.perf_counter()
        await asyncio.gather(
            *(client(self.batches[c::CLIENTS]) for c in range(CLIENTS))
        )
        elapsed = time.perf_counter() - started
        for batch, result in served:
            m.check(self._batch_ok(batch, result), "batch answers differ", len(batch))
        m.segments.append(
            Segment(
                latencies,
                sum(len(batch) for batch, _ in served),
                sum(result.outputs for _, result in served),
                elapsed,
                pace.mark(),
            )
        )

    def trace(
        self, seconds: float, tracer: Tracer, into: Measurements
    ) -> Dict[str, float]:
        return asyncio.run(self._trace(seconds, tracer, into))

    async def _trace(self, seconds, tracer: Tracer, into: Measurements):
        server, backend, name, _ = await self._setup(Measurements(), Pace())
        try:
            layers: Dict[str, float] = {}
            for shard in backend.shards:
                registration = shard.registration(name)
                built = _trace_build(
                    tracer, registration.natural_view, registration.database
                )
                for key, value in built.items():
                    layers[key] = layers.get(key, 0.0) + value
            await self._trace_async(seconds / 2, tracer, server, name, into)
            layers["engine.async_server.queue_us"] = _traced_layer(
                tracer, "engine.async_server.queue"
            )
            layers["engine.async_server.service_us"] = _traced_layer(
                tracer, "engine.async_server.service"
            )
            layers.update(
                self._trace_pipeline(seconds / 2, tracer, backend, name, into)
            )
        finally:
            _close(server, backend)
        return layers

    async def _trace_async(self, seconds, tracer: Tracer, server, name, into):
        """Queue and service time of each batch, as the front end reports."""

        async def client(batches) -> None:
            for batch in batches:
                submitted = time.perf_counter()
                served = await server.serve(name, batch)
                root = tracer.record(
                    "engine.async_server.serve", submitted, time.perf_counter()
                )
                picked = submitted + served.queue_seconds
                tracer.record("engine.async_server.queue", submitted, picked, root)
                tracer.record(
                    "engine.async_server.service",
                    picked,
                    picked + served.service_seconds,
                    root,
                )
                into.check(
                    self._batch_ok(batch, served.result), "async batch", len(batch)
                )

        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            await asyncio.gather(
                *(client(self.batches[c::CLIENTS]) for c in range(CLIENTS))
            )

    def _trace_pipeline(self, seconds, tracer: Tracer, backend, name, into):
        """Plan, answer per shard and merge, called one by one."""
        names = (
            "route",
            "pin_version",
            "release_version",
            "plan_batch",
            "answer_shard",
            "merge_batch",
        )
        found = [tracer.resolve(f"engine.sharding.{n}", backend, n) for n in names]
        if None in found:
            return {}
        route, pin, release, plan, answer, merge = found
        skews: List[float] = []
        unique: List[float] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for batch in self.batches:
                with tracer.request("engine.sharding.batch"):
                    resolved, version = route(name), pin()
                    try:
                        with tracer.span("engine.sharding.plan_batch"):
                            sub_batches = plan(name, batch, resolved, version)
                        results = []
                        for index, sub_batch in enumerate(sub_batches):
                            if not sub_batch:
                                results.append(None)
                                continue
                            with tracer.span("engine.sharding.answer_shard"):
                                results.append(
                                    answer(index, name, sub_batch, version=version)
                                )
                        with tracer.span("engine.sharding.merge_batch"):
                            merged = merge(name, batch, results, resolved)
                    finally:
                        release(version)
                sizes = [len(sub_batch) for sub_batch in sub_batches]
                skews.append(max(sizes) / (sum(sizes) / len(sizes)))
                unique.append(merged.unique_count / len(batch))
                into.check(self._batch_ok(batch, merged), "pipeline", len(batch))
        return {
            "engine.sharding.plan_batch_us": _traced_layer(
                tracer, "engine.sharding.plan_batch"
            ),
            "engine.sharding.answer_shard_us": _traced_layer(
                tracer, "engine.sharding.answer_shard"
            ),
            "engine.sharding.merge_batch_us": _traced_layer(
                tracer, "engine.sharding.merge_batch"
            ),
            "engine.sharding.shard_skew": statistics.median(skews),
            "engine.shared_scan.unique_ratio": statistics.fmean(unique),
        }


def _close(server, backend) -> None:
    server.close()
    backend.close()


def _regular_path_database(seed: int) -> Database:
    """Each relation is the union of two disjoint random permutations of
    the domain, so every endpoint pair has about 2**length / domain
    paths: all 144 accesses are productive and cost about the same."""
    rng = random.Random(seed)
    relations = []
    for i in range(1, PATH_LENGTH + 1):
        image = list(range(PATH_DOMAIN))
        rng.shuffle(image)
        shift = 1 + rng.randrange(PATH_DOMAIN - 1)
        rows = [(v, image[v]) for v in range(PATH_DOMAIN)]
        rows += [(v, image[(v + shift) % PATH_DOMAIN]) for v in range(PATH_DOMAIN)]
        relations.append(Relation(f"R{i}", 2, rows))
    return Database(relations)


class PathFanout(Workload):
    name = "path-fanout"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.view = path_view(PATH_LENGTH)
        self.db = _regular_path_database(DATASET_SEED)
        self.stream = request_stream(
            self.view, self.db, PATH_REQUESTS, seed=seed, skew=ZIPF_SKEW
        )
        self.oracle = oracle_answers(self.view, self.db)
        self.sample = seeded_sample(
            self.oracle, PATH_DELAY_SAMPLE, random.Random(DATASET_SEED)
        )

    def matches(self, access, rows) -> bool:
        # Theorem 2 enumerates in the decomposition's order, not the
        # head's, so the answers are compared as sorted lists.
        return sorted(rows) == self.oracle.get(access, [])

    def run(self, seconds: float, pace: Pace) -> Measurements:
        m = Measurements()
        pace.mark()
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            representation = DecomposedRepresentation(self.view, self.db)
            first = list(representation.enumerate(self.stream[0]))
            m.setups.append((time.perf_counter() - started, pace.mark()))
            m.check(self.matches(self.stream[0], first), "first request")
        serve_closed_loop(
            self.stream,
            lambda access: list(representation.enumerate(access)),
            self.matches,
            seconds,
            m,
            pace,
        )
        m.space_cells = representation.space_report().total_cells
        m.delay_steps_max = _enumeration_delay(
            representation, self.sample, self.oracle, m
        )
        return m

    def trace(
        self, seconds: float, tracer: Tracer, into: Measurements
    ) -> Dict[str, float]:
        bound = frozenset(self.view.bound_variables)
        with tracer.request("setup"):
            hypergraph = hypergraph_of_view(self.view)
            with tracer.span("hypergraph.connex_fhw") as planning:
                _, planned = connex_fhw(hypergraph, bound)
            with tracer.span("core.decomposed.bag_build") as building:
                representation = DecomposedRepresentation(
                    self.view, self.db, decomposition=planned
                )
        layers = {
            "hypergraph.connex_fhw_s": planning.duration,
            "core.decomposed.bag_build_s": building.duration,
        }
        request = tracer.resolve("engine.api.open", api, "AccessRequest")
        open_cursor = tracer.resolve("engine.api.open", api, "open_cursor")
        if None in (request, open_cursor):
            return layers
        walked = answers = 0.0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for access in self.stream:
                with tracer.request():
                    with tracer.span("engine.api.open"):
                        cursor = open_cursor(
                            representation, request(view="path", access=access)
                        )
                    with tracer.span("core.kernel.walk") as walk:
                        rows = cursor.fetchall()
                    measured = request(view="path", access=access, measure=True)
                    with tracer.span("core.structure.reference_walk"):
                        open_cursor(representation, measured).fetchall()
                into.check(self.matches(access, rows), f"request {access!r}")
                walked += walk.duration
                answers += len(rows)
        layers.update(
            {
                "engine.api.open_us": _traced_layer(tracer, "engine.api.open"),
                "core.kernel.walk_us": _traced_layer(tracer, "core.kernel.walk"),
                "core.kernel.us_per_answer": (
                    walked / answers * 1e6 if answers else 0.0
                ),
                "core.structure.reference_walk_us": _traced_layer(
                    tracer, "core.structure.reference_walk"
                ),
            }
        )
        return layers


class _ChurnStream:
    """One cycle's operations on the base data, with the oracle's answers
    at every version they pass through."""

    def __init__(self, view: AdornedView, db: Database, base: Answers, seed: int):
        self.ops = _exact_mix(view, db, seed)
        self.oracles = _oracle_per_version(view, db, base, self.ops)
        self.matches_at = {v: _ordered_matches(o) for v, o in self.oracles.items()}
        self.final = max(self.oracles)
        self.restart_sample = seeded_sample(
            self.oracles[self.final], CHURN_RESTART_SAMPLE, random.Random(seed)
        )
        self.first_query = next(op[1] for op in self.ops if op[0] == "query")


def _exact_mix(view: AdornedView, db: Database, seed: int) -> List[Tuple]:
    """CHURN_OPS operations with exactly one delta in every
    1 / CHURN_UPDATE_FRACTION, taken in order from a longer update
    stream. Queries never change the data, so re-interleaving them
    keeps every delta valid, and every seed gets the same mix."""
    drawn = update_stream(
        view,
        db,
        3 * CHURN_OPS,
        update_fraction=CHURN_UPDATE_FRACTION,
        seed=seed,
        skew=ZIPF_SKEW,
    )
    updates = iter([op for op in drawn if op[0] == "update"])
    queries = iter([op for op in drawn if op[0] == "query"])
    every = round(1 / CHURN_UPDATE_FRACTION)
    return [
        next(updates) if i % every == every - 1 else next(queries)
        for i in range(CHURN_OPS)
    ]


def _oracle_per_version(
    view: AdornedView, db: Database, base: Answers, ops: List[Tuple]
) -> Dict[int, Answers]:
    """The oracle's answers at version 0 (``base``) and after every delta."""
    rows = {relation.name: set(relation.rows) for relation in db}
    arity = {relation.name: relation.arity for relation in db}
    oracles = {0: base}
    for op in ops:
        if op[0] != "update":
            continue
        _, relation, inserts, deletes = op
        rows[relation] |= set(inserts)
        rows[relation] -= set(deletes)
        current = Database([Relation(name, arity[name], rows[name]) for name in rows])
        oracles[len(oracles)] = oracle_answers(view, current)
    return oracles


class Churn(Workload):
    name = "churn"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.view = triangle_view("bbf")
        self.db = triangle_database(CHURN_NODES, CHURN_EDGES, seed=DATASET_SEED)
        # Rebuild, and so rewrite the snapshot, at every
        # CHURN_REBUILD_EVERY-th delta.
        self.rebuild_fraction = (CHURN_REBUILD_EVERY - 0.5) / self.db.total_tuples()
        self.base = oracle_answers(self.view, self.db)
        self.sample = seeded_sample(
            self.base, DELAY_SAMPLE, random.Random(DATASET_SEED)
        )
        rng = random.Random(seed)
        self.streams = [
            _ChurnStream(self.view, self.db, self.base, rng.randrange(1 << 30))
            for _ in range(CHURN_STREAMS)
        ]

    def run(self, seconds: float, pace: Pace) -> Measurements:
        m = Measurements()
        deadline = time.perf_counter() + seconds
        cycles = 0
        pace.mark()
        while cycles < CHURN_STREAMS or time.perf_counter() < deadline:
            stream = self.streams[cycles % CHURN_STREAMS]
            cycles += 1
            directory = Path(tempfile.mkdtemp(dir=self.scratch))
            try:
                self._cycle(directory, stream, m, pace, measure_structure=cycles == 1)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
        return m

    def _register(self, directory: Path):
        server = ViewServer(self.db, snapshot_dir=directory)
        name = server.register_dynamic(
            self.view, tau=TAU, rebuild_fraction=self.rebuild_fraction
        )
        return server, name

    def _cycle(
        self,
        directory: Path,
        stream: _ChurnStream,
        m: Measurements,
        pace: Pace,
        measure_structure: bool,
    ):
        """Register cold, stream the operations, then restart warm."""
        started = time.perf_counter()
        server, name = self._register(directory)
        first = server.open(name, stream.first_query).fetchall()
        m.setups.append((time.perf_counter() - started, pace.mark()))
        m.check(stream.matches_at[0](stream.first_query, first), "first query")
        if measure_structure:
            m.space_cells = server.representation(name).space_report().total_cells
            m.delay_steps_max = _cursor_delay(
                lambda access: server.open(name, access, measure=True),
                self.sample,
                stream.matches_at[0],
                m,
            )
            pace.mark()
        # Deltas count toward serving time but not toward requests.
        segments = Segmenter(m, pace)
        version = 0
        clock = time.perf_counter
        for op in stream.ops:
            if op[0] == "query":
                started = clock()
                rows = server.open(name, op[1]).fetchall()
                segments.request(clock() - started, len(rows))
                ok = stream.matches_at[version](op[1], rows)
                m.check(ok, f"query {op[1]!r} at version {version}")
            else:
                _, relation, inserts, deletes = op
                started = clock()
                applied = server.apply_deltas(relation, inserts, deletes)
                segments.delta(clock() - started)
                version += 1
                ok = applied == {name: len(inserts) + len(deletes)}
                m.check(ok, f"delta {version}")
            segments.cut()
        segments.cut(due=False)
        server.close()
        started = time.perf_counter()
        restarted, name = self._register(directory)
        m.restarts.append((time.perf_counter() - started, pace.mark()))
        final = stream.matches_at[stream.final]
        for access in stream.restart_sample:
            rows = restarted.open(name, access).fetchall()
            m.check(final(access, rows), f"restarted {access!r}")
        restarted.close()

    def trace(
        self, seconds: float, tracer: Tracer, into: Measurements
    ) -> Dict[str, float]:
        deadline = time.perf_counter() + seconds
        while True:
            directory = Path(tempfile.mkdtemp(dir=self.scratch))
            try:
                layers = self._trace_deltas(directory, tracer, into)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            if not layers or time.perf_counter() >= deadline:
                break
        layers.update(self._tradeoff_rows(into))
        return layers

    def _trace_deltas(self, directory: Path, tracer: Tracer, into: Measurements):
        """The dynamic serving path, one layer call at a time."""
        stream = self.streams[0]
        frozen_view = tracer.resolve(
            "engine.dynamic_serving.freeze", dynamic_serving, "FrozenDynamicView"
        )
        record_type = tracer.resolve(
            "core.snapshot.append_log", dynamic_serving, "DeltaRecord"
        )
        store_type = tracer.resolve(
            "core.snapshot.append_log", dynamic_serving, "DynamicSnapshotStore"
        )
        if None in (frozen_view, record_type, store_type):
            return {}
        label = "perfbench-churn"
        dynamic = DynamicRepresentation(
            self.view, self.db, tau=TAU, rebuild_fraction=self.rebuild_fraction
        )
        store = store_type(directory)
        origin = relation_fingerprints(self.db)
        store.save(label, dynamic, 0, origin)
        frozen, dirty = frozen_view(self.view, structure=dynamic.structure), False
        version = 0
        for op in stream.ops:
            with tracer.request():
                if op[0] == "query":
                    state = "dirty" if dirty else "clean"
                    with tracer.span(f"engine.dynamic_serving.{state}_query"):
                        rows = list(frozen.enumerate(op[1]))
                    ok = stream.matches_at[version](op[1], rows)
                    into.check(ok, f"query at version {version}")
                    continue
                _, relation, inserts, deletes = op
                version += 1
                rebuilds = dynamic.rebuilds
                with tracer.span("core.dynamic.apply"):
                    applied = dynamic.apply_deltas(relation, inserts, deletes)
                into.check(applied == len(inserts) + len(deletes), f"delta {version}")
                dirty = dynamic.is_dirty
                if dirty:
                    with tracer.span("core.dynamic.current_database"):
                        current = dynamic.current_database()
                    with tracer.span("engine.dynamic_serving.freeze"):
                        frozen = frozen_view(self.view, database=current)
                else:
                    with tracer.span("engine.dynamic_serving.freeze"):
                        frozen = frozen_view(self.view, structure=dynamic.structure)
                record = record_type(
                    view=label,
                    relation=relation,
                    version=version,
                    inserts=tuple(inserts),
                    deletes=tuple(deletes),
                )
                with tracer.span("core.snapshot.append_log"):
                    store.append_log(label, record)
                if dynamic.rebuilds > rebuilds:
                    with tracer.span("core.snapshot.save"):
                        store.save(label, dynamic, version, origin)
        with tracer.request("restart"):
            with tracer.span("core.snapshot.load"):
                store.load(label)
            with tracer.span("core.snapshot.replay"):
                records = store.read_log(label)
        into.check(len(records) == version, "replayed log length")
        log_bytes = store.log_path(label).stat().st_size
        return {
            "core.dynamic.apply_us": _traced_layer(tracer, "core.dynamic.apply"),
            "core.dynamic.current_database_us": _traced_layer(
                tracer, "core.dynamic.current_database"
            ),
            "engine.dynamic_serving.freeze_us": _traced_layer(
                tracer, "engine.dynamic_serving.freeze"
            ),
            "core.snapshot.append_log_us": _traced_layer(
                tracer, "core.snapshot.append_log"
            ),
            "core.snapshot.bytes_per_delta": log_bytes / max(1, version),
            "core.dynamic.rebuilds": float(dynamic.rebuilds),
            "engine.dynamic_serving.dirty_query_us": _traced_layer(
                tracer, "engine.dynamic_serving.dirty_query"
            ),
            "engine.dynamic_serving.clean_query_us": _traced_layer(
                tracer, "engine.dynamic_serving.clean_query"
            ),
            "core.snapshot.load_s": _traced_layer(tracer, "core.snapshot.load", 1),
            "core.snapshot.replay_s": _traced_layer(
                tracer, "core.snapshot.replay", 1
            ),
        }

    def _tradeoff_rows(self, into: Measurements) -> Dict[str, float]:
        """Theorem 1's space/delay tradeoff over τ, as exact counts.

        The predicted slopes are Theorem 1's exponents: delay grows as
        τ, space shrinks as τ^-α with α the slack of the default cover.
        """
        accesses = seeded_sample(
            self.base, TRADEOFF_SAMPLE, random.Random(DATASET_SEED)
        )
        rows: Dict[str, float] = {}
        cells, gaps = [], []
        for tau in TRADEOFF_TAUS:
            structure = CompressedRepresentation(
                self.view, self.db, tau=tau, compile_layout=False
            )
            cells.append(structure.space_report().structure_cells)
            gaps.append(
                _enumeration_delay(structure, accesses, self.base, into)
            )
            rows[f"core.space.structure_cells.tau{tau}"] = float(cells[-1])
            rows[f"core.delay.step_max_gap.tau{tau}"] = float(gaps[-1])
        alpha = slack(
            structure.hypergraph, structure.weights, structure.ctx.free_order
        )
        rows["core.space.slope"] = loglog_slope(TRADEOFF_TAUS, cells)
        rows["core.space.predicted_slope"] = -alpha
        rows["core.delay.slope"] = loglog_slope(TRADEOFF_TAUS, gaps)
        rows["core.delay.predicted_slope"] = 1.0
        return rows


WORKLOADS = {w.name: w for w in (PointLookup, ShardedBatch, PathFanout, Churn)}
