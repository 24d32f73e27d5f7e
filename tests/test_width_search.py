"""The exact width search solves few LPs and still matches an LP-per-bag DP.

``_elimination_search`` settles most bags' ρ* by an integral bound
sandwich and prunes candidates that cannot win the DP's strict ``<``.
These tests keep the unpruned search as a reference (one LP per distinct
bag, the same DP and tie-break) and pin that widths, elimination orders
and decompositions are unchanged on every query family in
``workloads/queries.py``, that the sandwich equals the LP whenever it
closes, and how many LPs the search still solves.
"""

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.hypergraph.width as width_module
from repro.exceptions import OptimizationError
from repro.hypergraph.connex import connex_decomposition_from_order
from repro.hypergraph.covers import fractional_edge_cover
from repro.hypergraph.hypergraph import Hypergraph, hypergraph_of_view
from repro.hypergraph.width import (
    _BagCosts,
    _closed_neighborhood,
    _elimination_search,
    connex_fhw,
    fhw,
)
from repro.query.atoms import Variable
from repro.workloads.queries import (
    figure2_view,
    figure7_view,
    loomis_whitney_view,
    mutual_friend_view,
    path_view,
    running_example_view,
    star_view,
    triangle_view,
)

FAMILIES = (
    [(f"path{n}", lambda n=n: path_view(n)) for n in range(2, 15)]
    + [(f"star{n}", lambda n=n: star_view(n)) for n in range(2, 8)]
    + [(f"lw{n}", lambda n=n: loomis_whitney_view(n)) for n in range(3, 6)]
    + [
        ("triangle", triangle_view),
        ("figure2", figure2_view),
        ("figure7", figure7_view),
        ("running_example", running_example_view),
        ("mutual_friend", mutual_friend_view),
    ]
)
EXHAUSTIVE_LIMIT = 14


def reference_search(
    hypergraph: Hypergraph,
    connex: FrozenSet[Variable],
    lp_cache: Dict[FrozenSet[Variable], float],
) -> Tuple[float, List[Variable]]:
    """The unpruned DP: every candidate's bag costed by its own LP."""
    free = tuple(v for v in hypergraph.vertices if v not in connex)
    if not free:
        return 0.0, []
    assert len(free) <= EXHAUSTIVE_LIMIT
    adjacency = hypergraph.primal_neighbors()

    def cost(bag):
        if bag not in lp_cache:
            lp_cache[bag] = fractional_edge_cover(hypergraph, bag).value
        return lp_cache[bag]

    all_free = frozenset(free)
    memo: Dict[FrozenSet[Variable], Tuple[float, Optional[Variable]]] = {}

    def best(eliminated):
        if eliminated == all_free:
            return 0.0, None
        if eliminated not in memo:
            best_value, best_vertex = math.inf, None
            for v in free:
                if v in eliminated:
                    continue
                bag = frozenset({v}) | _closed_neighborhood(
                    adjacency, v, eliminated
                )
                value = max(cost(bag), best(eliminated | {v})[0])
                if value < best_value:
                    best_value, best_vertex = value, v
            memo[eliminated] = (best_value, best_vertex)
        return memo[eliminated]

    order, state = [], frozenset()
    while state != all_free:
        choice = best(state)[1]
        order.append(choice)
        state = state | {choice}
    return best(frozenset())[0], order


def tree_shape(decomposition):
    return (
        {str(node): bag for node, bag in decomposition.bags.items()},
        {str(node): str(parent) for node, parent in decomposition.parent.items()},
    )


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the LPs the width search solves."""
    calls = []

    def counting(hypergraph, targets=None):
        calls.append(frozenset(targets))
        return fractional_edge_cover(hypergraph, targets)

    monkeypatch.setattr(width_module, "fractional_edge_cover", counting)
    return calls


@pytest.mark.parametrize(
    "make_view", [f for _, f in FAMILIES], ids=[n for n, _ in FAMILIES]
)
def test_search_matches_the_lp_per_bag_reference(make_view):
    view = make_view()
    hg = hypergraph_of_view(view)
    bound = frozenset(view.bound_variables)
    lp_cache: Dict[FrozenSet[Variable], float] = {}

    ref_width, ref_order = reference_search(hg, bound, lp_cache)
    width, decomposition = connex_fhw(hg, bound)
    assert width == pytest.approx(ref_width, abs=1e-9)
    assert _elimination_search(hg, bound)[1] == ref_order
    expected = connex_decomposition_from_order(hg, bound, ref_order)
    assert tree_shape(decomposition) == tree_shape(expected)

    # fhw(H) frees every vertex; P_14's 15 exceed the exhaustive limit,
    # where both searches are the same min-fill order.
    if len(hg.vertices) <= EXHAUSTIVE_LIMIT:
        ref_fhw, ref_fhw_order = reference_search(hg, frozenset(), lp_cache)
        assert fhw(hg) == pytest.approx(ref_fhw, abs=1e-9)
        assert _elimination_search(hg, frozenset())[1] == ref_fhw_order


def test_long_path_connex_solves_at_most_two_lps(lp_calls):
    # The LP-per-bag search solves 286 here, one per distinct bag.
    view = path_view(12)
    width, _ = connex_fhw(
        hypergraph_of_view(view), frozenset(view.bound_variables)
    )
    assert width == pytest.approx(2.0, abs=1e-9)
    assert len(lp_calls) <= 2


@pytest.mark.parametrize("arms", range(2, 8))
def test_star_solves_no_lp(lp_calls, arms):
    view = star_view(arms)
    hg = hypergraph_of_view(view)
    width, _ = connex_fhw(hg, frozenset(view.bound_variables))
    assert width == pytest.approx(float(arms), abs=1e-9)
    assert fhw(hg) == pytest.approx(1.0, abs=1e-9)
    assert lp_calls == []


def test_fractional_bag_still_goes_to_the_lp(lp_calls):
    # The triangle's bag {x, y, z} has bounds 1 and 2; ρ* = 3/2 needs the LP.
    hg = hypergraph_of_view(triangle_view("fff"))
    assert fhw(hg) == pytest.approx(1.5, abs=1e-9)
    assert lp_calls == [frozenset(hg.vertices)]


def test_uncoverable_bag_raises_like_the_lp():
    hg = Hypergraph([Variable("a"), Variable("b")], [(0, [Variable("a")])])
    costs = _BagCosts(hg)
    assert costs.bounds(frozenset(hg.vertices)) == (2, math.inf)
    with pytest.raises(OptimizationError, match="in no hyperedge"):
        costs.value(frozenset(hg.vertices))


VERTICES = [Variable(f"v{i}") for i in range(6)]


@st.composite
def hypergraph_and_bag(draw):
    n = draw(st.integers(1, len(VERTICES)))
    vertices = VERTICES[:n]
    edges = draw(
        st.lists(
            st.sets(st.sampled_from(vertices), min_size=1),
            min_size=1,
            max_size=6,
        )
    )
    covered = sorted(set().union(*edges), key=lambda v: v.name)
    bag = draw(st.sets(st.sampled_from(covered), min_size=1))
    return Hypergraph(vertices, list(enumerate(edges))), frozenset(bag)


@given(hypergraph_and_bag())
@settings(max_examples=200, deadline=None)
def test_sandwich_brackets_the_lp_and_equals_it_when_closed(case):
    hg, bag = case
    lower, upper = _BagCosts(hg).bounds(bag)
    exact = fractional_edge_cover(hg, bag).value
    assert lower - 1e-9 <= exact <= upper + 1e-9
    if lower == upper:
        assert _BagCosts(hg).value(bag) == pytest.approx(exact, abs=1e-9)
