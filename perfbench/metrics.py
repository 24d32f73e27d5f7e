"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is the one place they are
declared, together with each workload's reason to exist; this module
only reads it.
"""

import json
from pathlib import Path
from typing import Dict, Tuple

DECLARATION = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: Gated end-to-end metrics, (name, unit): defined and non-zero on every
#: workload.
END_TO_END: Tuple[Tuple[str, str], ...] = tuple(
    (m["name"], m["unit"]) for m in DECLARATION["end_to_end"]
)

#: Per-layer metrics of the traced run, (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (m["name"], m["unit"]) for m in DECLARATION["per_layer"]
)

#: Why each workload exists, by workload name.
WHY: Dict[str, str] = {w["name"]: w["why"] for w in DECLARATION["workloads"]}

TRADEOFF_TAUS = (1, 4, 16, 64, 256)

#: Per-layer metrics each workload's traced run measures; the rest read
#: 0 there because that workload never calls the layer.
LAYERS_BY_WORKLOAD = {
    "point-lookup": (
        "engine.cache.lookup_us",
        "engine.cache.hit_rate",
        "engine.api.open_us",
        "engine.server.self_us",
        "core.kernel.walk_us",
        "core.kernel.us_per_answer",
        "core.structure.reference_walk_us",
        "core.structure.build_s",
        "core.layout.compile_s",
        "bench.trace_overhead_us",
        "engine.telemetry.overhead_us",
    ),
    "sharded-batch": (
        "core.structure.build_s",
        "core.layout.compile_s",
        "engine.async_server.queue_us",
        "engine.async_server.service_us",
        "engine.sharding.plan_batch_us",
        "engine.sharding.answer_shard_us",
        "engine.sharding.merge_batch_us",
        "engine.sharding.shard_skew",
        "engine.shared_scan.unique_ratio",
    ),
    "path-fanout": (
        "hypergraph.connex_fhw_s",
        "core.decomposed.bag_build_s",
        "engine.api.open_us",
        "core.kernel.walk_us",
        "core.kernel.us_per_answer",
        "core.structure.reference_walk_us",
    ),
    "churn": (
        "core.dynamic.apply_us",
        "core.dynamic.current_database_us",
        "engine.dynamic_serving.freeze_us",
        "core.snapshot.append_log_us",
        "core.snapshot.bytes_per_delta",
        "core.dynamic.rebuilds",
        "engine.dynamic_serving.dirty_query_us",
        "engine.dynamic_serving.clean_query_us",
        "core.snapshot.load_s",
        "core.snapshot.replay_s",
        *(name for name, _ in PER_LAYER if ".tau" in name or name.endswith("slope")),
    ),
}
