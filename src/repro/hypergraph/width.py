"""Width computations: ρ*, fhw, connex fhw, δ-width and δ-height.

``fhw`` and ``fhw(H | V_b)`` are computed exactly for small hypergraphs by
dynamic programming over elimination orders (every tree decomposition is
bag-wise dominated by an elimination-order decomposition, and ρ* is
monotone under taking subsets, so the search is exact). Finding these widths
is NP-hard in general (Section 6), so larger instances fall back to the
min-fill heuristic.

The search stays exact while solving few LPs. Each bag's ρ* is first
sandwiched between two integers: a packing of bag vertices that pairwise
share no edge (every fractional cover pays at least 1 per packed vertex,
since their incident edges are disjoint) and a greedy integral edge cover
(a feasible cover, so at least ρ*). When the two meet, that integer is
ρ* itself, which is the common case on paths and stars; only the other bags
go to :func:`~repro.hypergraph.covers.fractional_edge_cover`. The DP then
skips any candidate vertex whose bag lower bound or remaining-order value
already reaches the best value found at that state: such a candidate cannot
win the strict ``<`` comparison, so the width and the elimination order
chosen are the same as with every bag solved by LP. The LP weights
themselves are still computed wherever they are used (structures and
:func:`bag_delta_cover`); only the width search takes the shortcut.

The δ-width of a V_b-connex decomposition (Section 3.2) relies on the
per-bag quantity ``ρ+_t = min_u (Σ_F u_F − δ(t)·α(V_f^t))`` which
:func:`bag_delta_cover` solves as a single LP (u and α jointly, following
the paper's Figure 5 convention ``0 ≤ u_F ≤ 1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import OptimizationError, ParameterError
from repro.hypergraph.connex import (
    ConnexDecomposition,
    connex_decomposition_from_order,
    _min_fill_order,
)
from repro.hypergraph.covers import fractional_edge_cover
from repro.hypergraph.decomposition import TreeDecomposition
from repro.hypergraph.hypergraph import Hypergraph
from repro.query.atoms import Variable


def rho_star(
    hypergraph: Hypergraph, subset: Optional[Iterable[Variable]] = None
) -> float:
    """The fractional edge cover number ρ*(subset) (default: all vertices)."""
    return fractional_edge_cover(hypergraph, subset).value


# ----------------------------------------------------------------------
# ρ*(bag) for the width search: a bound sandwich, LP only when it is open
# ----------------------------------------------------------------------
class _BagCosts:
    """Memoized ρ*(bag) for one hypergraph, solving an LP only when needed.

    Every bag gets two integral bounds first. The lower bound is a greedy
    set of bag vertices no two of which lie in a common edge: their sets of
    incident edges are disjoint and each must receive weight ≥ 1, so every
    fractional cover spends at least one unit per chosen vertex. The upper
    bound is a greedy integral edge cover of the bag. ρ* lies between them,
    so when they meet (in particular when one edge contains the whole bag)
    that integer *is* ρ*; only bags whose bounds differ reach
    :func:`fractional_edge_cover`.
    """

    def __init__(self, hypergraph: Hypergraph):
        self._hypergraph = hypergraph
        self._adjacency = hypergraph.primal_neighbors()
        self._edges = [members for _, members in hypergraph.edges]
        self._bounds: Dict[FrozenSet[Variable], Tuple[int, float]] = {}
        self._values: Dict[FrozenSet[Variable], float] = {}

    def bounds(self, bag: FrozenSet[Variable]) -> Tuple[int, float]:
        """``(lower, upper)`` integral bounds on ρ*(bag), found without an
        LP; ``upper`` is ``math.inf`` when some bag vertex is in no edge."""
        bounds = self._bounds.get(bag)
        if bounds is not None:
            return bounds
        adjacency = self._adjacency
        packed = 0
        blocked: Set[Variable] = set()
        # Fewest in-bag neighbours first; names break ties so the bounds,
        # and hence the LP count, repeat across processes.
        for x in sorted(bag, key=lambda x: (len(adjacency[x] & bag), x.name)):
            if x not in blocked:
                packed += 1
                blocked |= adjacency[x]
        uncovered = set(bag)
        cover: float = 0
        while uncovered:
            widest = max(
                self._edges, key=lambda e: len(e & uncovered), default=frozenset()
            )
            if not widest & uncovered:
                cover = math.inf  # uncoverable: the LP reports the error
                break
            uncovered -= widest
            cover += 1
        bounds = self._bounds[bag] = (packed, cover)
        return bounds

    def value(self, bag: FrozenSet[Variable]) -> float:
        """ρ*(bag): the sandwich's value when it closes, else the LP's."""
        value = self._values.get(bag)
        if value is None:
            lower, upper = self.bounds(bag)
            if lower == upper:
                value = float(lower)
            else:
                value = fractional_edge_cover(self._hypergraph, bag).value
            self._values[bag] = value
        return value


# ----------------------------------------------------------------------
# Exact width search via elimination-order DP
# ----------------------------------------------------------------------
def _closed_neighborhood(
    adjacency: Mapping[Variable, Set[Variable]],
    vertex: Variable,
    eliminated: FrozenSet[Variable],
) -> FrozenSet[Variable]:
    """Neighbors of ``vertex`` after ``eliminated`` have been eliminated.

    A vertex ``u`` is a neighbor iff some primal path connects it to
    ``vertex`` using only eliminated vertices internally — the standard
    characterization of fill-in neighborhoods.
    """
    seen = {vertex}
    stack = [vertex]
    result = set()
    while stack:
        current = stack.pop()
        for neighbor in adjacency[current]:
            if neighbor in seen:
                continue
            seen.add(neighbor)
            if neighbor in eliminated:
                stack.append(neighbor)
            else:
                result.add(neighbor)
    return frozenset(result)


def _elimination_search(
    hypergraph: Hypergraph,
    connex: FrozenSet[Variable],
    exhaustive_limit: int = 14,
) -> Tuple[float, List[Variable]]:
    """Min over elimination orders of the max bag ρ*; returns (value, order).

    Orders range over the non-connex vertices. Uses memoized DP over the
    subset of already-eliminated vertices; falls back to min-fill beyond
    ``exhaustive_limit`` free vertices.

    The DP keeps the first vertex (in ``hypergraph.vertices`` order) whose
    value is strictly smallest. A candidate whose bag lower bound already
    reaches the best value so far cannot be strictly smaller, so neither
    its bag nor its remaining orders are evaluated; one whose
    remaining-order value reaches it is skipped before its bag is costed.
    Every state the DP does evaluate gets its exact minimum, so the width
    and the chosen vertices are the same as with every bag costed.
    """
    free = tuple(v for v in hypergraph.vertices if v not in connex)
    adjacency = hypergraph.primal_neighbors()
    if not free:
        return 0.0, []
    costs = _BagCosts(hypergraph)
    if len(free) > exhaustive_limit:
        order = _min_fill_order(hypergraph, connex)
        eliminated: Set[Variable] = set()
        worst = 0.0
        for v in order:
            bag = frozenset({v}) | _closed_neighborhood(
                adjacency, v, frozenset(eliminated)
            )
            worst = max(worst, costs.value(bag))
            eliminated.add(v)
        return worst, order

    memo: Dict[FrozenSet[Variable], Tuple[float, Optional[Variable]]] = {}
    all_free = frozenset(free)

    def best(eliminated: FrozenSet[Variable]) -> Tuple[float, Optional[Variable]]:
        if eliminated == all_free:
            return 0.0, None
        if eliminated in memo:
            return memo[eliminated]
        best_value, best_vertex = math.inf, None
        for v in free:
            if v in eliminated:
                continue
            bag = frozenset({v}) | _closed_neighborhood(adjacency, v, eliminated)
            if costs.bounds(bag)[0] >= best_value:
                continue
            rest = best(eliminated | {v})[0]
            if rest >= best_value:
                continue
            value = max(costs.value(bag), rest)
            if value < best_value:
                best_value, best_vertex = value, v
        memo[eliminated] = (best_value, best_vertex)
        return memo[eliminated]

    value, _ = best(frozenset())
    order: List[Variable] = []
    state: FrozenSet[Variable] = frozenset()
    while state != all_free:
        _, choice = best(state)
        assert choice is not None
        order.append(choice)
        state = state | {choice}
    return value, order


def fhw(hypergraph: Hypergraph, exhaustive_limit: int = 14) -> float:
    """The fractional hypertree width of a hypergraph (exact when small)."""
    value, _ = _elimination_search(hypergraph, frozenset(), exhaustive_limit)
    return value


def connex_fhw(
    hypergraph: Hypergraph,
    connex_set: Iterable[Variable],
    exhaustive_limit: int = 14,
) -> Tuple[float, ConnexDecomposition]:
    """``fhw(H | V_b)`` together with a witnessing connex decomposition.

    This is the δ-width for the all-zero delay assignment (Section 3.2):
    the bags in ``A`` are excluded from the max, which the elimination DP
    realizes by never costing the root bag.
    """
    connex = frozenset(connex_set)
    value, order = _elimination_search(hypergraph, connex, exhaustive_limit)
    decomposition = connex_decomposition_from_order(hypergraph, connex, order)
    return value, decomposition


def decomposition_fhw(
    decomposition: TreeDecomposition,
    hypergraph: Hypergraph,
    exclude: Iterable[object] = (),
) -> float:
    """Max over (non-excluded) bags of ρ*(bag) for a given decomposition."""
    skip = set(exclude)
    worst = 0.0
    for node, bag in decomposition.bags.items():
        if node in skip:
            continue
        worst = max(worst, fractional_edge_cover(hypergraph, bag).value)
    return worst


# ----------------------------------------------------------------------
# Delay assignments: δ-width and δ-height (Section 3.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BagDeltaCover:
    """Solution of the per-bag program defining ρ+_t (Equation 3)."""

    weights: Mapping[object, float]
    alpha: float
    rho_plus: float

    @property
    def u_plus(self) -> float:
        """``u+_t = Σ_F u'_F`` for the minimizing cover (Theorem 2)."""
        return sum(self.weights.values())


def bag_delta_cover(
    hypergraph: Hypergraph,
    bag: Iterable[Variable],
    bag_free: Iterable[Variable],
    delta: float,
) -> BagDeltaCover:
    """Solve ``ρ+_t = min_u (Σ_F u_F − δ·α(V_f^t))`` over covers of the bag.

    The slack variable α is optimized jointly with u (both directions of the
    min/max interplay are linear). Weights follow the paper's Figure 5
    bounds ``0 ≤ u_F ≤ 1``; α ≥ 1.
    """
    if delta < 0:
        raise ParameterError(f"delay exponent must be >= 0, got {delta}")
    bag_list = list(bag)
    free_list = [v for v in bag_free]
    labels = [
        label
        for label in hypergraph.labels
        if hypergraph.edge(label) & set(bag_list)
    ]
    if not labels:
        raise OptimizationError("bag_delta_cover: no edge intersects the bag")
    m = len(labels)
    # Variables u_0..u_{m-1}, alpha.
    c = np.zeros(m + 1)
    c[:m] = 1.0
    c[m] = -delta
    rows, b = [], []
    for x in bag_list:
        row = np.zeros(m + 1)
        for j, label in enumerate(labels):
            if x in hypergraph.edge(label):
                row[j] = -1.0
        if not row[:m].any():
            raise OptimizationError(
                f"bag_delta_cover: bag vertex {x!r} is in no hyperedge"
            )
        rows.append(row)
        b.append(-1.0)
    for x in free_list:
        row = np.zeros(m + 1)
        for j, label in enumerate(labels):
            if x in hypergraph.edge(label):
                row[j] = -1.0
        row[m] = 1.0
        rows.append(row)
        b.append(0.0)
    bounds = [(0.0, 1.0)] * m + [(1.0, max(1.0, float(m)))]
    result = linprog(
        c, A_ub=np.array(rows), b_ub=np.array(b), bounds=bounds, method="highs"
    )
    if not result.success:
        raise OptimizationError(f"bag_delta_cover failed: {result.message}")
    weights = {
        label: float(max(0.0, w)) for label, w in zip(labels, result.x[:m])
    }
    alpha = float(result.x[m]) if free_list else math.inf
    return BagDeltaCover(weights=weights, alpha=alpha, rho_plus=float(result.fun))


@dataclass(frozen=True)
class DelayAssignment:
    """A delay assignment δ : bags → [0, ∞) with δ = 0 on the root."""

    exponents: Mapping[object, float]

    def of(self, node: object) -> float:
        return float(self.exponents.get(node, 0.0))

    @staticmethod
    def uniform(
        decomposition: TreeDecomposition, exponent: float
    ) -> "DelayAssignment":
        """The constant assignment used by Example 10 (root stays 0)."""
        return DelayAssignment(
            {
                node: exponent
                for node in decomposition.nodes
                if node != decomposition.root
            }
        )


def delta_width(
    decomposition: ConnexDecomposition,
    hypergraph: Hypergraph,
    assignment: DelayAssignment,
) -> float:
    """The V_b-connex fractional hypertree δ-width: max ρ+_t over non-A bags."""
    worst = 0.0
    for node in decomposition.non_root_nodes():
        cover = bag_delta_cover(
            hypergraph,
            decomposition.bags[node],
            decomposition.bag_free(node),
            assignment.of(node),
        )
        worst = max(worst, cover.rho_plus)
    return worst


def delta_height(
    decomposition: TreeDecomposition, assignment: DelayAssignment
) -> float:
    """The δ-height: the maximum root-to-leaf sum of delay exponents."""
    best = 0.0
    for path in decomposition.root_to_leaf_paths():
        best = max(best, sum(assignment.of(node) for node in path))
    return best
