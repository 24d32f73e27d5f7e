"""Bulk enumeration kernel over compiled columnar layouts.

The reference Algorithm 2 paths in :mod:`repro.core.structure` are
recursive generators: one Python frame per tree node, one per join level,
one dict probe per ``(node, access)`` and one β decode per heavy node per
visit. This module walks the :class:`~repro.core.layout.CompiledLayout`
instead — iteratively (explicit stack, no recursion), probing the
dictionary with a bisect into a per-access sorted run, intersecting atom
runs with galloping binary searches (or numpy set-intersections for large
runs), and decoding β codes and final-coordinate runs in bulk.

Every walk mirrors its reference twin *event for event*: the visit order,
skip conditions, clipping rules and emission points are line-by-line
transcriptions of ``_eval`` / ``_eval_from`` / ``_shared_eval``, so the
produced streams are bit-identical. The kernel is only entered for
counter-less enumerations (measured runs keep the reference path and its
exact step accounting), which is what makes the equivalence a construction
property rather than a tuning promise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.core.intervals import FInterval

# Explicit-stack entry kinds. FULL subtrees (seek point entirely below the
# interval) degrade VISIT_FROM entries to VISIT, exactly like the
# reference `_eval_from` falling through to `_eval`.
_VISIT = 0
_BETA = 1
_VISIT_FROM = 2
_BETA_FROM = 3

# Minimum clipped-run length before the numpy set-intersection beats
# galloping bisect probes (empirically small; correctness is unaffected).
_NUMPY_MIN_RUN = 32


class KernelSlot:
    """One access request's lane through a shared kernel descent."""

    __slots__ = ("slot", "bucket", "states", "start")

    def __init__(self, slot, bucket, states, start):
        self.slot = slot
        self.bucket = bucket
        self.states = states
        self.start = start


def _probe(ids, bits, node_id: int) -> Optional[int]:
    """The dictionary bit for (node, access), or None (the paper's ⊥)."""
    position = bisect_left(ids, node_id)
    if position < len(ids) and ids[position] == node_id:
        return bits[position]
    return None


# ----------------------------------------------------------------------
# columnar worst-case-optimal join over one box
# ----------------------------------------------------------------------
def _intersect_runs(layout, runs) -> List[int]:
    """Sorted intersection of clipped candidate runs (ascending indexes)."""
    atoms = layout.join_atoms
    if len(runs) == 1:
        index, level, lo, hi = runs[0]
        return atoms[index].vals[level][lo:hi]
    np_module = layout.np
    if np_module is not None:
        small = min(hi - lo for _, _, lo, hi in runs)
        if small >= _NUMPY_MIN_RUN:
            views = [
                atoms[index].np_vals[level][lo:hi]
                for index, level, lo, hi in runs
            ]
            result = views[0]
            for other in views[1:]:
                result = np_module.intersect1d(
                    result, other, assume_unique=True
                )
                if not result.size:
                    break
            return result.tolist()
    if len(runs) == 2:
        # The overwhelmingly common shape: gallop the smaller run
        # through the larger without the generic sort/zip scaffolding.
        first, second = runs
        if first[3] - first[2] > second[3] - second[2]:
            first, second = second, first
        smallest = atoms[first[0]].vals[first[1]]
        other = atoms[second[0]].vals[second[1]]
        other_lo, other_hi = second[2], second[3]
        result: List[int] = []
        for position in range(first[2], first[3]):
            candidate = smallest[position]
            found = bisect_left(other, candidate, other_lo, other_hi)
            if found < other_hi and other[found] == candidate:
                result.append(candidate)
        return result
    runs = sorted(runs, key=lambda run: run[3] - run[2])
    index, level, lo, hi = runs[0]
    smallest = atoms[index].vals[level]
    others = [
        (atoms[other].vals[other_level], other_lo, other_hi)
        for other, other_level, other_lo, other_hi in runs[1:]
    ]
    result = []
    for position in range(lo, hi):
        candidate = smallest[position]
        for run, run_lo, run_hi in others:
            found = bisect_left(run, candidate, run_lo, run_hi)
            if found >= run_hi or run[found] != candidate:
                break
        else:
            result.append(candidate)
    return result


def _join_coord(layout, states, coordinate, box, prefix, out) -> None:
    """Append the box-restricted join rows for one coordinate onward.

    ``states`` holds per-atom ``(lo, hi)`` run slices aligned with
    ``layout.join_atoms``; the precomputed participation schedule says
    which atoms constrain this coordinate (and at which trie level) —
    the same participation rule as the reference generic join, with
    sorted-run intersections in place of per-candidate hash probes, and
    the final coordinate emitted as one bulk-decoded run.
    """
    width = layout.width
    if coordinate == width:
        out.append(tuple(prefix))
        return
    low_index, high_index = box[coordinate]
    if low_index > high_index:
        return
    participants = layout.participants[coordinate]
    values = layout.domain_values[coordinate]
    last = coordinate == width - 1
    if not participants:
        # No atom constrains this coordinate: the reference join falls
        # back to the (full) active domain sliced to the box range.
        if last:
            base = tuple(prefix)
            out.extend(
                base + (values[index],)
                for index in range(low_index, high_index + 1)
            )
            return
        for index in range(low_index, high_index + 1):
            prefix.append(values[index])
            _join_coord(layout, states, coordinate + 1, box, prefix, out)
            prefix.pop()
        return
    atoms = layout.join_atoms
    runs = []
    for index, level in participants:
        lo, hi = states[index]
        run = atoms[index].vals[level]
        clip_lo = bisect_left(run, low_index, lo, hi)
        clip_hi = bisect_right(run, high_index, lo, hi)
        if clip_lo >= clip_hi:
            return
        runs.append((index, level, clip_lo, clip_hi))
    if last:
        candidates = _intersect_runs(layout, runs)
        if candidates:
            base = tuple(prefix)
            out.extend(base + (values[index],) for index in candidates)
        return
    smallest = min(runs, key=lambda run: run[3] - run[2])
    small_index, small_level, small_lo, small_hi = smallest
    small_run = atoms[small_index].vals[small_level]
    for small_position in range(small_lo, small_hi):
        candidate = small_run[small_position]
        next_states = list(states)
        matched = True
        for index, level in participants:
            atom = atoms[index]
            if index == small_index:
                position = small_position
            else:
                lo, hi = states[index]
                run = atom.vals[level]
                position = bisect_left(run, candidate, lo, hi)
                if position >= hi or run[position] != candidate:
                    matched = False
                    break
            if level + 1 < atom.width:
                next_states[index] = (
                    atom.kid_lo[level][position],
                    atom.kid_hi[level][position],
                )
            # An exhausted atom never participates downstream, so its
            # stale slice is simply never read again.
        if not matched:
            continue
        prefix.append(values[candidate])
        _join_coord(layout, next_states, coordinate + 1, box, prefix, out)
        prefix.pop()


def _clipped_boxes(layout, low, high, start):
    """Box ranges of the interval clipped at the seek point."""
    clipped = FInterval(max(low, start), high)
    boxes = []
    for box in clipped.box_decomposition(layout.space):
        if box.is_empty():
            continue
        boxes.append(
            tuple(
                (interval.low, interval.high)
                for interval in box.intervals
            )
        )
    return boxes


# ----------------------------------------------------------------------
# solo walks (enumerate / enumerate_from)
# ----------------------------------------------------------------------
def _walk(layout, bucket, states, start) -> Iterator[Tuple]:
    tree = layout.tree
    root = tree.root
    if root < 0:
        return
    ids, bits = bucket
    id_count = len(ids)
    left_col = tree.left
    right_col = tree.right
    low_col = tree.low
    high_col = tree.high
    beta_col = tree.beta
    beta_values = tree.beta_values
    boxes_col = tree.boxes
    point_matches = layout.point_matches
    stack = [(_VISIT if start is None else _VISIT_FROM, root)]
    while stack:
        kind, node_id = stack.pop()
        if kind == _VISIT_FROM:
            if high_col[node_id] < start:
                continue
            if low_col[node_id] >= start:
                kind = _VISIT  # whole subtree past the seek: full walk
            else:
                position = bisect_left(ids, node_id)
                bit = (
                    bits[position]
                    if position < id_count and ids[position] == node_id
                    else None
                )
                if bit == 0:
                    continue
                if bit == 1 and beta_col[node_id] is not None:
                    right = right_col[node_id]
                    if right >= 0:
                        stack.append((_VISIT_FROM, right))
                    stack.append((_BETA_FROM, node_id))
                    left = left_col[node_id]
                    if left >= 0:
                        stack.append((_VISIT_FROM, left))
                    continue
                out: List[Tuple] = []
                for box in _clipped_boxes(
                    layout, low_col[node_id], high_col[node_id], start
                ):
                    _join_coord(layout, states, 0, box, [], out)
                yield from out
                continue
        if kind == _VISIT:
            position = bisect_left(ids, node_id)
            bit = (
                bits[position]
                if position < id_count and ids[position] == node_id
                else None
            )
            if bit == 0:
                continue
            if bit == 1 and beta_col[node_id] is not None:
                right = right_col[node_id]
                if right >= 0:
                    stack.append((_VISIT, right))
                stack.append((_BETA, node_id))
                left = left_col[node_id]
                if left >= 0:
                    stack.append((_VISIT, left))
                continue
            out = []
            for box in boxes_col[node_id]:
                _join_coord(layout, states, 0, box, [], out)
            yield from out
        elif kind == _BETA:
            if point_matches(states, beta_col[node_id]):
                yield beta_values[node_id]
        else:  # _BETA_FROM
            point = beta_col[node_id]
            if point >= start and point_matches(states, point):
                yield beta_values[node_id]


def kernel_enumerate(layout, access: Tuple) -> Iterator[Tuple]:
    """The kernel twin of ``CompressedRepresentation._eval``."""
    states = layout.root_states(access)
    if states is None:
        return iter(())
    return _walk(layout, layout.dict_bucket(access), states, None)


def kernel_enumerate_from(
    layout, access: Tuple, start: Tuple[int, ...]
) -> Iterator[Tuple]:
    """The kernel twin of ``CompressedRepresentation._eval_from``."""
    states = layout.root_states(access)
    if states is None:
        return iter(())
    return _walk(layout, layout.dict_bucket(access), states, start)


# ----------------------------------------------------------------------
# shared walk (shared_enumerate)
# ----------------------------------------------------------------------
def kernel_shared_enumerate(
    layout, slots: List[KernelSlot], alive: List[bool]
) -> Iterator[Tuple[int, Tuple]]:
    """The kernel twin of ``CompressedRepresentation._shared_eval``.

    Stack entries carry the surviving slot group, so a subtree no live
    slot descends into is never visited and β codes are decoded once per
    node for the whole group — the exact sharing contract of the
    reference merged descent, including per-slot seek clipping and
    ``alive`` pruning at node/box boundaries.
    """
    tree = layout.tree
    root = tree.root
    if root < 0 or not slots:
        return
    stack = [(_VISIT, root, slots)]
    while stack:
        kind, node_id, group = stack.pop()
        if kind == _BETA:
            point = tree.beta[node_id]
            beta_values = tree.beta_values[node_id]
            for slot in group:
                if not alive[slot.slot]:
                    continue
                if slot.start is not None and point < slot.start:
                    continue
                if layout.point_matches(slot.states, point):
                    yield (slot.slot, beta_values)
            continue
        low = tree.low[node_id]
        high = tree.high[node_id]
        has_beta = tree.beta[node_id] is not None
        heavy: List[KernelSlot] = []
        light_full: List[KernelSlot] = []
        light_clipped: List[KernelSlot] = []
        for slot in group:
            if not alive[slot.slot]:
                continue
            if slot.start is not None and high < slot.start:
                continue
            ids, bits = slot.bucket
            bit = _probe(ids, bits, node_id)
            if bit == 0:
                continue
            if bit == 1 and has_beta:
                heavy.append(slot)
            elif slot.start is not None and low < slot.start:
                light_clipped.append(slot)
            else:
                light_full.append(slot)
        if light_full:
            for box in tree.boxes[node_id]:
                for slot in light_full:
                    if not alive[slot.slot]:
                        continue
                    out: List[Tuple] = []
                    _join_coord(layout, slot.states, 0, box, [], out)
                    for row in out:
                        yield (slot.slot, row)
        for slot in light_clipped:
            for box in _clipped_boxes(layout, low, high, slot.start):
                if not alive[slot.slot]:
                    break
                out = []
                _join_coord(layout, slot.states, 0, box, [], out)
                for row in out:
                    yield (slot.slot, row)
        if not heavy:
            continue
        right = tree.right[node_id]
        if right >= 0:
            stack.append((_VISIT, right, heavy))
        stack.append((_BETA, node_id, heavy))
        left = tree.left[node_id]
        if left >= 0:
            stack.append((_VISIT, left, heavy))
