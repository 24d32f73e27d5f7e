"""MinDelayCover (Section 6, Figure 5, Proposition 11).

Given a full adorned view, per-relation sizes and a space budget Σ, find
the fractional edge cover ``u`` (with slack ``α`` and threshold ``τ``)
minimizing the delay of Theorem 1 subject to ``Π|R_F|^{u_F}/τ^α ≤ Σ``.

With ``τ̂ = α·log τ`` the program is linear except for the fractional
objective ``τ̂/α`` (Figure 5b). The Charnes–Cooper substitution
``y = t·x, t = 1/α`` (normalizing the denominator to 1) turns it into the
LP solved here; conveniently the transformed objective value *is*
``log τ`` directly. Constraints follow the paper: coverage of all
variables, slack on the free variables, ``0 ≤ u_F ≤ 1``, ``α ≥ 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import OptimizationError, ParameterError
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.query.adorned import AdornedView


@dataclass(frozen=True)
class MinDelayResult:
    """Optimal Theorem 1 knobs for a space budget."""

    weights: Mapping[int, float]
    alpha: float
    tau: float
    log_tau: float
    space_budget: float

    def predicted_space(self, sizes: Mapping[int, int]) -> float:
        """The structure-size term ``Π|R_F|^{u_F} / τ^α`` at the optimum."""
        product = 1.0
        for label, weight in self.weights.items():
            if weight > 0:
                product *= float(sizes[label]) ** weight
        return product / (self.tau**self.alpha)


def min_delay_cover(
    view: AdornedView,
    sizes: Mapping[int, int],
    space_budget: float,
) -> MinDelayResult:
    """Solve MinDelayCover for a full adorned view.

    Parameters
    ----------
    view:
        The (natural-join) adorned view.
    sizes:
        Relation sizes keyed by atom index.
    space_budget:
        The Σ of the space constraint (same units as the sizes).
    """
    if space_budget <= 1:
        raise ParameterError(f"space budget must exceed 1, got {space_budget}")
    hypergraph = hypergraph_of_view(view)
    labels = list(hypergraph.labels)
    m = len(labels)
    free = list(view.free_variables)
    if not free:
        # All-bound views answer in O(1) regardless (Proposition 1).
        from repro.hypergraph.covers import fractional_edge_cover

        cover = fractional_edge_cover(hypergraph)
        return MinDelayResult(
            weights=dict(cover.weights),
            alpha=math.inf,
            tau=1.0,
            log_tau=0.0,
            space_budget=space_budget,
        )
    log_sizes = [math.log(max(2, int(sizes[label]))) for label in labels]
    log_budget = math.log(space_budget)

    # Charnes-Cooper variables: y_u (m), y_tauhat, t   (y_alpha ≡ 1).
    n = m + 2
    iu, itau, it = range(0, m), m, m + 1
    c = np.zeros(n)
    c[itau] = 1.0  # objective value is log tau directly
    rows, b = [], []
    # Space: Σ y_u log|R| − y_tauhat − t·logΣ ≤ 0.
    row = np.zeros(n)
    for j in range(m):
        row[j] = log_sizes[j]
    row[itau] = -1.0
    row[it] = -log_budget
    rows.append(row)
    b.append(0.0)
    # Coverage of every variable: Σ_{F∋x} y_u ≥ t.
    for var in view.head:
        row = np.zeros(n)
        for j, label in enumerate(labels):
            if var in hypergraph.edge(label):
                row[j] = -1.0
        if not row[:m].any():
            raise OptimizationError(f"variable {var!r} is in no hyperedge")
        row[it] = 1.0
        rows.append(row)
        b.append(0.0)
    # Slack on free variables: Σ_{F∋x} y_u ≥ y_alpha = 1.
    for var in free:
        row = np.zeros(n)
        for j, label in enumerate(labels):
            if var in hypergraph.edge(label):
                row[j] = -1.0
        rows.append(row)
        b.append(-1.0)
    # u_F ≤ 1 scaled: y_u ≤ t.
    for j in range(m):
        row = np.zeros(n)
        row[j] = 1.0
        row[it] = -1.0
        rows.append(row)
        b.append(0.0)
    # α ≥ 1 scaled: t ≤ y_alpha = 1.
    bounds = [(0.0, None)] * m + [(0.0, None), (1e-9, 1.0)]
    result = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(b),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise OptimizationError(f"MinDelayCover LP failed: {result.message}")
    t = result.x[it]
    if t <= 0:
        raise OptimizationError("MinDelayCover: degenerate scaling variable")
    alpha = 1.0 / t
    weights: Dict[int, float] = {
        label: float(max(0.0, result.x[j] / t)) for j, label in enumerate(labels)
    }
    log_tau = float(result.x[itau])
    tau = math.exp(log_tau)
    return MinDelayResult(
        weights=weights,
        alpha=alpha,
        tau=tau,
        log_tau=log_tau,
        space_budget=space_budget,
    )
