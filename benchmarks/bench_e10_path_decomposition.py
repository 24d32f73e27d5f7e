"""EXP-E10 — Example 10: Theorem 1 vs Theorem 2 on the path query.

Paper claim: for P_n^{bf..fb}, Theorem 1 alone trades space
Õ(|D|^{⌈n/2⌉}/τ) for delay Õ(τ); the connex decomposition of Theorem 2
achieves space Õ(|D|²/τ) with delay Õ(τ^{⌊n/2⌋}) — a dramatically better
space curve for long paths at a bounded delay premium.
"""

import math

import pytest

from bench_reporting import bench_emit_table, bench_probe_delays
from repro.core.decomposed import DecomposedRepresentation
from repro.core.structure import CompressedRepresentation
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.hypergraph.width import DelayAssignment, connex_fhw, delta_height
from repro.joins.hash_join import evaluate_by_hash_join
from repro.workloads.generators import path_database
from repro.workloads.queries import path_view

LENGTH = 4


@pytest.fixture(scope="module")
def workload():
    view = path_view(LENGTH)
    db = path_database(LENGTH, size=140, domain=14, seed=9)
    accesses = [(a, b) for a in range(5) for b in range(5)]
    hg = hypergraph_of_view(view)
    _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
    return view, db, accesses, decomposition


def test_theorem1_vs_theorem2(benchmark, workload):
    view, db, accesses, decomposition = workload
    size = db.total_tuples()
    log = math.log(size)

    def sweep():
        rows = []
        for exponent in (0.0, 0.15, 0.3):
            tau = float(size) ** exponent if exponent else 1.0
            flat = CompressedRepresentation(view, db, tau=max(1.0, tau))
            assignment = DelayAssignment.uniform(decomposition, exponent)
            nested = DecomposedRepresentation(
                view,
                db,
                decomposition=decomposition,
                assignment=assignment,
            )
            gap_flat, out_flat, _ = bench_probe_delays(flat, accesses)
            gap_nested, out_nested, _ = bench_probe_delays(nested, accesses)
            assert out_flat == out_nested
            rows.append(
                (
                    f"{exponent:.2f}",
                    flat.space_report().structure_cells,
                    nested.space_report().structure_cells,
                    gap_flat,
                    gap_nested,
                    f"{delta_height(decomposition, assignment):.2f}",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    bench_emit_table(
        rows,
        headers=(
            "delta",
            "Thm1 cells",
            "Thm2 cells",
            "Thm1 gap",
            "Thm2 gap",
            "height",
        ),
        title=(
            f"EXP-E10 path P_{LENGTH}^bf..fb (|D|={size}): paper Thm1 "
            "space |D|^ceil(n/2)/tau vs Thm2 space |D|^2/tau, delay "
            "tau^floor(n/2)"
        ),
    )
    # Shape: the decomposition saves space at delta=0 (constant delay).
    assert rows[0][2] <= rows[0][1]


def test_query_decomposed(benchmark, workload):
    view, db, accesses, decomposition = workload
    nested = DecomposedRepresentation(view, db, decomposition=decomposition)
    served = accesses[:10]
    answers = benchmark(lambda: [nested.answer(a) for a in served])
    # Theorem 2 answers in the decomposition's order; compare as sets of
    # rows against the hash join, grouped by the bound values.
    bound = [i for i, ch in enumerate(view.pattern) if ch == "b"]
    free = [i for i, ch in enumerate(view.pattern) if ch == "f"]
    expected = {access: [] for access in served}
    for row in evaluate_by_hash_join(view.query, db):
        key = tuple(row[i] for i in bound)
        if key in expected:
            expected[key].append(tuple(row[i] for i in free))
    assert any(expected.values()), "no served access has an answer"
    for access, rows in zip(served, answers):
        assert sorted(rows) == sorted(expected[access]), access


def test_build_decomposed(benchmark, workload):
    view, db, _, decomposition = workload
    benchmark.pedantic(
        lambda: DecomposedRepresentation(
            view, db, decomposition=decomposition
        ),
        rounds=1,
        iterations=1,
    )
