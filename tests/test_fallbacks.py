"""Heuristic fallback paths and alternative configurations.

The exact width searches are exponential; beyond the configured limit the
library must degrade to the min-fill heuristic while staying *sound*
(valid decompositions, correct answers — possibly suboptimal widths).
"""

import pytest

from oracle import oracle_accesses, oracle_answer
from repro.core.decomposed import DecomposedRepresentation
from repro.hypergraph.connex import (
    connex_decomposition_from_order,
    optimal_connex_decomposition,
    _min_fill_order,
)
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.hypergraph.width import _elimination_search, connex_fhw, fhw
from repro.hypergraph.covers import fractional_edge_cover
from repro.query.atoms import Variable
from repro.workloads.generators import path_database
from repro.workloads.queries import path_view, triangle_view


class TestMinFillFallback:
    def test_long_path_uses_heuristic_and_stays_valid(self):
        """P_10 has 11 variables, all free here: within the default
        exhaustive limit of 14, so a limit of 4 forces min-fill, which
        still finds the optimal width-1 decomposition for this easy
        shape."""
        view = path_view(10, pattern="f" * 11)
        hg = hypergraph_of_view(view)
        width = fhw(hg, exhaustive_limit=4)  # force the heuristic
        assert width == pytest.approx(1.0, abs=1e-6)

    def test_heuristic_connex_decomposition_valid(self):
        view = path_view(9)
        hg = hypergraph_of_view(view)
        connex = frozenset(view.bound_variables)
        decomposition = optimal_connex_decomposition(
            hg,
            connex,
            score=lambda d: max(
                fractional_edge_cover(hg, d.bags[n]).value
                for n in d.non_root_nodes()
            ),
            exhaustive_limit=3,  # force min-fill
        )
        decomposition.validate_connex(hg)

    def test_min_fill_order_covers_all_free(self):
        view = path_view(7)
        hg = hypergraph_of_view(view)
        connex = frozenset(view.bound_variables)
        order = _min_fill_order(hg, connex)
        assert sorted(v.name for v in order) == sorted(
            v.name for v in hg.vertices if v not in connex
        )

    def test_exhaustive_and_heuristic_agree_on_small(self):
        view = path_view(4)
        hg = hypergraph_of_view(view)
        exact, _ = _elimination_search(
            hg, frozenset(view.bound_variables), exhaustive_limit=14
        )
        heuristic, _ = _elimination_search(
            hg, frozenset(view.bound_variables), exhaustive_limit=1
        )
        assert heuristic >= exact - 1e-9  # heuristic never reports better
        assert heuristic == pytest.approx(2.0, abs=1e-6)


class TestUserSuppliedDecompositions:
    def test_suboptimal_order_still_correct(self):
        """Any valid connex decomposition gives correct answers — only
        the space/delay change with the order quality."""
        view = path_view(4)
        db = path_database(4, 45, 9, seed=91)
        hg = hypergraph_of_view(view)
        connex = frozenset(view.bound_variables)
        v = Variable
        orders = [
            [v("x2"), v("x3"), v("x4")],
            [v("x4"), v("x3"), v("x2")],
            [v("x3"), v("x2"), v("x4")],
        ]
        for order in orders:
            decomposition = connex_decomposition_from_order(hg, connex, order)
            decomposition.validate_connex(hg)
            dr = DecomposedRepresentation(view, db, decomposition=decomposition)
            for access in oracle_accesses(view, db, limit=4):
                assert sorted(dr.answer(access)) == oracle_answer(
                    view, db, access
                )

    def test_larger_exhaustive_limit_never_worse(self):
        view = triangle_view("bbf")
        hg = hypergraph_of_view(view)
        connex = frozenset(view.bound_variables)
        exact_width, _ = connex_fhw(hg, connex, exhaustive_limit=14)
        heuristic_width, _ = connex_fhw(hg, connex, exhaustive_limit=0)
        assert exact_width <= heuristic_width + 1e-9
