"""The repository benchmark: four seeded serving workloads.

Run from the repository root::

    python3 perfbench/run.py --workload point-lookup --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics through the serving
surface; ``--trace 1`` is a separate run that repeats the work layer by
layer inside spans and reports the per-layer metrics, each layer's self
time, and the cost of tracing itself. Each run prints its metrics by
name with their units, writes a record (and, traced, its spans) under
``.perfbench/``, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end times are reported at the reference pace of
``harness.Pace``: each set-up, restart and segment of serving is scaled
by how fast a fixed probe ran around it, so that the share of a run a shared machine
spends in a slow mode does not move the figures. The same figures as
measured are printed beside them and kept in the record.

The exit code is 0 when every answer matched the hash-join oracle, 1
when some operation failed or answered wrongly (the JSON line is still
printed), and 2 without a result when the program's sources are absent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import Measurements, Pace, environment, percentile, scaled, tail
from metrics import END_TO_END, LAYERS_BY_WORKLOAD, PER_LAYER, WHY
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

Row = Tuple[str, str, str]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WHY)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def latency_rows(name: str, samples: List[float], absent: str) -> List[Row]:
    if not samples:
        return [(f"{name}_p50_us", "n/a", absent), (f"{name}_tail_us", "n/a", absent)]
    value, pct = tail(samples)
    median = statistics.median(samples)
    return [
        (f"{name}_p50_us", f"{median * 1e6:.6g} us", f"n={len(samples)}"),
        (f"{name}_tail_us", f"{value * 1e6:.6g} us", f"p{pct:g} of n={len(samples)}"),
    ]


def failed_row(m: Measurements) -> Row:
    fraction = m.failed / m.attempted
    return ("failed_fraction", f"{fraction:.6g}", f"{m.failed} of {m.attempted} ops")


def end_to_end(m: Measurements) -> Tuple[Dict[str, float], Dict[str, float], List[Row]]:
    """The gated metrics at the reference pace, the same figures as
    measured, and every printed row (name, value, note).

    Batch, delta and restart times exist on one workload each, and no
    operation fails at this commit, so those rows are printed but are
    not in the gated set, whose metrics must be non-zero everywhere.
    """
    latencies, measured = m.latencies(), m.latencies(scaled=False)
    request_tail, request_pct = tail(latencies)
    requests_per_s, answers_per_s = m.throughput()
    raw_requests_per_s, raw_answers_per_s = m.throughput(scaled=False)
    values = {
        "setup_s": statistics.median(scaled(m.setups)),
        "request_p50_us": statistics.median(latencies) * 1e6,
        "request_tail_us": request_tail * 1e6,
        "requests_per_s": requests_per_s,
        "answers_per_s": answers_per_s,
        "space_cells": m.space_cells,
        "delay_steps_max": m.delay_steps_max,
    }
    raw = {
        "setup_s": statistics.median(seconds for seconds, _ in m.setups),
        "request_p50_us": statistics.median(measured) * 1e6,
        "request_tail_us": percentile(measured, request_pct) * 1e6,
        "requests_per_s": raw_requests_per_s,
        "answers_per_s": raw_answers_per_s,
    }
    served = sum(s.served for s in m.segments)
    busy = sum(s.seconds for s in m.segments)
    notes = {
        "setup_s": f"median of {len(m.setups)} set-ups",
        "request_p50_us": f"n={len(latencies)}",
        "request_tail_us": f"p{request_pct:g} of n={len(latencies)}",
        "requests_per_s": f"{served} in {busy:.3f} s, {len(m.segments)} segments",
        "answers_per_s": f"{sum(s.answers for s in m.segments)} answers",
        "space_cells": "space_report().total_cells",
        "delay_steps_max": "largest step gap of a measure=True sample",
    }
    rows = []
    for name, unit in END_TO_END:
        note = notes[name]
        if name in raw:
            note += f"; {raw[name]:.6g} {unit} as measured"
        rows.append((name, f"{values[name]:.6g} {unit}", note))
    rows += latency_rows(
        "batch", latencies if m.batched else [], "no batches on this workload"
    )
    rows += latency_rows("delta", m.deltas(), "no deltas on this workload")
    if m.restarts:
        median = statistics.median(scaled(m.restarts))
        rows.append(("restart_s", f"{median:.6g} s", f"median of {len(m.restarts)}"))
    else:
        rows.append(("restart_s", "n/a", "no restart on this workload"))
    rows.append(failed_row(m))
    return values, raw, rows


def per_layer(workload: str, layers: Dict[str, float], tracer: Tracer, m):
    """Every per-layer value; a layer the workload never calls reads 0."""
    values = {name: float(layers.get(name, 0.0)) for name, _ in PER_LAYER}
    home = LAYERS_BY_WORKLOAD[workload]
    reason = "; ".join(sorted(set(tracer.missing.values()))) or "not measured"
    missing = {name: reason for name in home if name not in layers}
    rows = []
    for name, unit in PER_LAYER:
        if name in missing:
            rows.append((name, "missing", reason))
        elif name in home:
            rows.append((name, f"{values[name]:.6g} {unit}", ""))
        else:
            rows.append((name, f"0 {unit}", f"not called on {workload}"))
    rows.append(failed_row(m))
    return values, rows, missing


def print_rows(rows: List[Row]) -> None:
    for name, value, note in rows:
        print(f"{name:<40} {value:<22} {note}")


def print_self_times(self_times: Dict[str, Dict[str, float]]) -> None:
    print("# self time per span (traced calls only):")
    for name, row in sorted(self_times.items(), key=lambda item: -item[1]["self_s"]):
        print(
            f"#   {name:<38} calls={row['calls']:<8} "
            f"self={row['self_s']:.6f} s total={row['total_s']:.6f} s"
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    env = environment()
    print(
        f"# perfbench {workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"# why: {workload.why}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
    }
    # Traced runs report raw times; their probes before and after only
    # record how fast the machine ran.
    pace = Pace()
    if args.trace:
        tracer, m = Tracer(), Measurements()
        pace.mark()
        layers = workload.trace(args.seconds, tracer, m)
        pace.mark()
        values, rows, missing = per_layer(workload.name, layers, tracer, m)
        units = dict(PER_LAYER)
        print_rows(rows)
        self_times = tracer.self_times()
        print_self_times(self_times)
        spans = OUT / "spans" / f"{stem}.jsonl"
        tracer.dump(spans)
        record.update(
            missing=missing,
            self_times=self_times,
            spans=str(spans.relative_to(ROOT)),
        )
    else:
        m = workload.run(args.seconds, pace)
        values, raw, rows = end_to_end(m)
        units = dict(END_TO_END)
        print_rows(rows)
        record["as_measured"] = raw
        record["percentiles_us"] = {
            kind: {f"p{p}": percentile(samples, p) * 1e6 for p in (50, 75, 90, 95, 99)}
            for kind, samples in (("requests", m.latencies()), ("deltas", m.deltas()))
            if samples
        }
    record["pace"] = pace.summary()
    print("# pace: " + " ".join(f"{k}={v:.6g}" for k, v in record["pace"].items()))
    for failure in m.failures:
        print(f"# failure: {failure}")
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    record.update(rows=rows, failures=m.failures, result=result)
    path = OUT / "results" / f"{stem}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2))
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 1 if m.failed else 0


if __name__ == "__main__":
    sys.exit(main())
