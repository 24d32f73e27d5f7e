"""Delay measurement for enumeration procedures.

The delay δ (Section 2.3) is the maximum time between consecutive outputs,
including the time to the first output and the time to detect exhaustion.
Wall-clock gaps are noisy in CPython, so the probe also tracks *logical
steps* through a :class:`~repro.joins.generic_join.JoinCounter` when one is
threaded through the enumeration — that is the RAM-model quantity the tests
assert on; benches report both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.joins.generic_join import JoinCounter


@dataclass
class DelayStats:
    """Statistics of one enumeration run."""

    outputs: int = 0
    wall_total: float = 0.0
    wall_max_gap: float = 0.0
    wall_first: float = 0.0
    step_total: int = 0
    step_max_gap: int = 0
    step_gaps: List[int] = field(default_factory=list)

    @property
    def step_mean_gap(self) -> float:
        if not self.step_gaps:
            return 0.0
        return sum(self.step_gaps) / len(self.step_gaps)


def measure_enumeration(
    iterator: Iterable,
    counter: Optional[JoinCounter] = None,
    keep_gaps: bool = False,
) -> DelayStats:
    """Drain an enumeration, recording per-output gaps.

    The final gap — from the last output until the iterator reports
    exhaustion — is included, matching the paper's definition of delay.
    """
    stats = DelayStats()
    start = time.perf_counter()
    last_time = start
    last_steps = counter.steps if counter is not None else 0
    for _ in iterator:
        now = time.perf_counter()
        gap = now - last_time
        if stats.outputs == 0:
            stats.wall_first = gap
        stats.wall_max_gap = max(stats.wall_max_gap, gap)
        last_time = now
        if counter is not None:
            step_gap = counter.steps - last_steps
            stats.step_max_gap = max(stats.step_max_gap, step_gap)
            if keep_gaps:
                stats.step_gaps.append(step_gap)
            last_steps = counter.steps
        stats.outputs += 1
    end = time.perf_counter()
    closing_gap = end - last_time
    stats.wall_max_gap = max(stats.wall_max_gap, closing_gap)
    if stats.outputs == 0:
        stats.wall_first = closing_gap
    if counter is not None:
        final_step_gap = counter.steps - last_steps
        stats.step_max_gap = max(stats.step_max_gap, final_step_gap)
        if keep_gaps:
            stats.step_gaps.append(final_step_gap)
        stats.step_total = counter.steps
    stats.wall_total = end - start
    return stats
