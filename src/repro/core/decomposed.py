"""The Theorem 2 structure: Theorem 1 per bag of a connex decomposition.

Construction (Section 5, Appendices B–C):

1. fix a V_b-connex tree decomposition and a delay assignment δ;
2. for every non-root bag ``t`` build a Theorem 1 structure for the bag's
   induced view — bound side ``V_b^t = B_t ∩ anc(t)``, free side
   ``V_f^t = B_t \\ anc(t)`` — with threshold ``τ_t = |D|^{δ(t)}`` and the
   cover minimizing ``ρ+_t`` (Equation 3);
3. refine the bag dictionaries bottom-up (Algorithm 4): a dictionary 1-bit
   survives only if some valuation in its interval extends into every
   child subtree, so that following a 1 during enumeration is never a dead
   end at interval granularity;
4. answer requests by nested pre-order enumeration over the bags
   (Algorithm 5): each bag enumerates its free variables given the values
   fixed by its ancestors, giving delay ``Õ(|D|^h)`` where ``h`` is the
   δ-height — multiplicative along a root-to-leaf path, additive across
   branches. A bag's answers depend only on its bag access, so answers
   share per-bag sub-results within a request: the first visit to a
   ``(bag, bag access)`` pair records the rows it streams, and later
   visits replay them. The memo lives as long as the request's iterator
   and holds one row list per distinct bag access the request touched —
   never more rows than the un-memoized walk enumerates. Counted
   requests walk without it, so their steps (and measured delays) stay
   exactly Algorithm 5's.

The enumeration order is lexicographic per bag but globally depends on the
decomposition, exactly as the paper notes after Theorem 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.structure import (
    CompressedRepresentation,
    resume_strictly_after,
)
from repro.database.catalog import Database
from repro.exceptions import (
    DecompositionError,
    ParameterError,
    QueryError,
    SnapshotError,
)
from repro.hypergraph.connex import ConnexDecomposition
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.hypergraph.width import (
    DelayAssignment,
    bag_delta_cover,
    connex_fhw,
    delta_height,
)
from repro.joins.generic_join import JoinCounter
from repro.measure.space import SpaceReport
from repro.query.adorned import AdornedView
from repro.query.atoms import Atom, Variable
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.rewriting import normalize_view


#: Per bag position, each walked bag access's complete row list.
_Memo = List[Dict[Tuple, List[Tuple]]]


@dataclass
class _BagStructure:
    """One non-root bag: its induced view and Theorem 1 structure."""

    bound_vars: Tuple[Variable, ...]
    free_vars: Tuple[Variable, ...]
    representation: CompressedRepresentation


def _picker(slots: Sequence[int]) -> Callable[[List], Tuple]:
    """``values -> tuple(values[s] for s in slots)``, without a generator."""
    if len(slots) == 1:
        only = slots[0]
        return lambda values: (values[only],)
    return itemgetter(*slots) if slots else lambda values: ()


def _recording(
    rows: Iterator[Tuple], table: Dict[Tuple, List[Tuple]], key: Tuple
) -> Iterator[Tuple]:
    """Stream ``rows`` while recording them; file the list once complete.

    An abandoned walk never reaches the end, so a partial list is never
    replayed as if it were the bag's whole answer.
    """
    recorded = []
    for row in rows:
        recorded.append(row)
        yield row
    table[key] = recorded


class BagPlan:
    """Algorithm 5's nested pre-order walk over bags, without recursion.

    A request's values live in one flat list: slots ``0..|V_b|-1`` hold
    the access, then each bag's free variables take one contiguous
    slice, bags in pre-order (a variable is free in exactly one bag, the
    topmost containing it). Both Theorem 2 structures walk with it —
    :class:`DecomposedRepresentation` over per-bag Theorem 1 structures,
    :class:`~repro.core.constant_delay.ConnexConstantDelayStructure`
    over materialized bag indexes.
    """

    def __init__(self, view: AdornedView, hypergraph, db: Database, bags):
        slot = {v: i for i, v in enumerate(view.bound_variables)}
        bound = frozenset(slot)
        # Section 5.1: an atom inside V_b filters accesses at the root.
        self.root_checks = []
        for label, members in hypergraph.edges:
            if members <= bound:
                atom = view.atoms[label]
                positions = tuple(slot[t] for t in atom.terms)
                self.root_checks.append((db[atom.relation], positions))
        self.bound_count = len(slot)
        self.accesses: List[Callable[[List], Tuple]] = []
        self.frees: List[slice] = []
        for bag in bags:
            low = len(slot)
            slot.update((v, low + i) for i, v in enumerate(bag.free_vars))
            self.accesses.append(_picker([slot[v] for v in bag.bound_vars]))
            self.frees.append(slice(low, len(slot)))
        self.width = len(slot)
        self.output_slots = [slot[v] for v in view.free_variables]
        self.output = _picker(self.output_slots)

    def values(
        self, access: Sequence, counter: Optional[JoinCounter]
    ) -> Optional[List]:
        """The request's value list; None when a root check rejects it."""
        access = tuple(access)
        if len(access) != self.bound_count:
            raise QueryError(
                f"access tuple has {len(access)} values, expected "
                f"{self.bound_count}"
            )
        for relation, positions in self.root_checks:
            if counter is not None:
                counter.steps += 1
            if tuple(access[p] for p in positions) not in relation:
                return None
        return list(access) + [None] * (self.width - len(access))

    def walk(
        self, values: List, visit: Callable[[int], Iterable[Tuple]]
    ) -> Iterator[Tuple]:
        """Every answer, in the decomposition's nesting order.

        An explicit stack holds one iterator per bag position, over
        ``visit(position)``: that bag's rows for the values its
        ancestors' current rows fixed. Each row is written into the
        bag's slots and opens the next position; the last position's
        rows are the answers.
        """
        frees, output = self.frees, self.output
        last = len(frees) - 1
        if last < 0:
            yield output(values)
            return
        innermost = frees[last]
        # Entries above 0 are replaced on each descent before use.
        iterators: List[Iterator[Tuple]] = [iter(visit(0))] * (last + 1)
        position = 0
        while position >= 0:
            if position == last:
                for row in iterators[last]:
                    values[innermost] = row
                    yield output(values)
                position -= 1
                continue
            row = next(iterators[position], None)
            if row is None:
                position -= 1
                continue
            values[frees[position]] = row
            position += 1
            iterators[position] = iter(visit(position))


class DecomposedRepresentation:
    """Theorem 2: compressed representation over a connex decomposition.

    Parameters
    ----------
    view:
        A full adorned view (normalized automatically if needed).
    db:
        The input database.
    decomposition:
        Optional V_b-connex decomposition; defaults to one witnessing
        ``fhw(H | V_b)``.
    assignment:
        Optional delay assignment δ (exponents of |D|); defaults to the
        all-zero assignment, i.e. the constant-delay point of Proposition 4
        realized through the Theorem 1 machinery.
    """

    #: Mid-traversal re-entry is supported (``enumerate_from`` /
    #: ``enumerate_after``), in the decomposition's own enumeration order.
    supports_resume = True

    #: Grouped enumeration is supported (:meth:`shared_enumerate`): a
    #: batch of access requests shares per-bag sub-enumerations through
    #: one scan-scoped memo instead of repeating them per request.
    supports_shared_scan = True

    def __init__(
        self,
        view: AdornedView,
        db: Database,
        decomposition: Optional[ConnexDecomposition] = None,
        assignment: Optional[DelayAssignment] = None,
        refine: bool = True,
    ):
        started = time.perf_counter()
        if view.is_natural_join():
            self.view, self.db = view, db
        else:
            normalized = normalize_view(view, db)
            self.view, self.db = normalized.view, normalized.database
        self.hypergraph = hypergraph_of_view(self.view)
        bound = frozenset(self.view.bound_variables)
        if decomposition is None:
            _, decomposition = connex_fhw(self.hypergraph, bound)
        else:
            decomposition.validate_connex(self.hypergraph)
        if decomposition.connex_set != bound:
            raise DecompositionError(
                "decomposition connex set does not match the bound variables"
            )
        self.decomposition = decomposition
        self.assignment = assignment or DelayAssignment({})
        if abs(self.assignment.of(decomposition.root)) > 0:
            raise ParameterError("the delay assignment must be 0 on the root")
        self.delta_height = delta_height(decomposition, self.assignment)
        self._var_rank = {v: i for i, v in enumerate(self.view.head)}
        size = max(2, self.db.total_tuples())
        self._bags: Dict[object, _BagStructure] = {}
        for node in decomposition.non_root_nodes():
            tau = float(size) ** self.assignment.of(node)
            self._bags[node] = self._build_bag(node, tau)
        if refine:
            # Algorithm 4; skipping it (refine=False) keeps answers
            # identical but loses the no-dead-end delay guarantee — the
            # ablation benchmark quantifies the difference.
            self._refine_dictionaries()
        for bag in self._bags.values():
            bag.representation.compile_layout()
        self._plan_walk()
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _ordered(self, variables) -> Tuple[Variable, ...]:
        return tuple(sorted(variables, key=self._var_rank.__getitem__))

    def _build_bag(self, node: object, tau: float) -> _BagStructure:
        decomposition = self.decomposition
        bag_vars = decomposition.bags[node]
        bound_vars = self._ordered(decomposition.bag_bound(node))
        free_vars = self._ordered(decomposition.bag_free(node))
        head = bound_vars + free_vars
        pattern = "b" * len(bound_vars) + "f" * len(free_vars)
        labels = self.hypergraph.edges_intersecting(bag_vars)
        atoms: List[Atom] = []
        bag_db = Database()
        for label in labels:
            atom = self.view.atoms[label]
            members = tuple(v for v in head if v in self.hypergraph.edge(label))
            positions = [atom.variable_positions(v)[0] for v in members]
            name = f"{atom.relation}__bag_{node}_{label}"
            bag_db.add(self.db[atom.relation].project(positions, name=name))
            atoms.append(Atom(name, members))
        bag_view = AdornedView(
            ConjunctiveQuery(f"{self.view.name}__bag_{node}", head, atoms),
            pattern,
        )
        # The ρ+-minimizing cover for this bag, remapped to bag atom indexes.
        cover = bag_delta_cover(
            self.hypergraph, bag_vars, free_vars, self.assignment.of(node)
        )
        weights = {
            index: cover.weights.get(label, 0.0)
            for index, label in enumerate(labels)
        }
        # Layout compilation is deferred: the Algorithm 4 refinement edits
        # bag dictionaries in place, which would immediately stale any
        # layout compiled here. Bags are compiled once, post-refinement.
        representation = CompressedRepresentation(
            bag_view, bag_db, tau=tau, weights=weights, compile_layout=False
        )
        return _BagStructure(
            bound_vars=bound_vars,
            free_vars=free_vars,
            representation=representation,
        )

    def _refine_dictionaries(self) -> None:
        """Algorithm 4: flip unsupported 1-bits to 0, bottom-up.

        For each non-root bag ``p`` with children, a dictionary entry
        ``(w, v_b) = 1`` survives only if some bag valuation in ``I(w)``
        extends into *every* child subtree (children are checked with their
        own already-refined structures, hence the post-order).
        """
        decomposition = self.decomposition
        for parent in decomposition.postorder():
            if parent == decomposition.root:
                continue
            children = [
                child
                for child in decomposition.children[parent]
            ]
            if not children:
                continue
            parent_bag = self._bags[parent]
            representation = parent_bag.representation
            parent_head = parent_bag.bound_vars + parent_bag.free_vars
            flips = []
            for (node_id, access), bit in representation.dictionary.items():
                if bit != 1:
                    continue
                tree_node = representation.tree.nodes[node_id]
                supported = False
                for free_values in representation.enumerate_interval(
                    access, tree_node.interval
                ):
                    valuation = dict(zip(parent_bag.bound_vars, access))
                    valuation.update(zip(parent_bag.free_vars, free_values))
                    if all(
                        self._child_extends(child, valuation)
                        for child in children
                    ):
                        supported = True
                        break
                if not supported:
                    flips.append((node_id, access))
            for node_id, access in flips:
                representation.dictionary.set(node_id, access, 0)

    def _child_extends(self, child: object, valuation: Mapping) -> bool:
        bag = self._bags[child]
        access = tuple(valuation[v] for v in bag.bound_vars)
        return bag.representation.exists(access)

    # ------------------------------------------------------------------
    # explicit state (the snapshot boundary)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict:
        """Plain-data state: decomposition shape plus per-bag structures.

        Bag representations are stored through their own
        :meth:`~repro.core.structure.CompressedRepresentation.snapshot_state`
        (each bag carries its projected bag database), *after* the
        Algorithm 4 refinement — restoring skips the refinement pass
        because the stored dictionary bits already reflect it.
        """
        from repro.core.snapshot import database_state, view_state

        decomposition = self.decomposition
        return {
            "view": view_state(self.view),
            "db": database_state(self.db),
            "decomposition": {
                "bags": sorted(
                    (node, sorted(v.name for v in bag))
                    for node, bag in decomposition.bags.items()
                ),
                "edges": sorted(
                    (node, parent)
                    for node, parent in decomposition.parent.items()
                    if parent is not None
                ),
                "root": decomposition.root,
                "connex": sorted(v.name for v in decomposition.connex_set),
            },
            "assignment": sorted(self.assignment.exponents.items()),
            "bags": [
                {
                    "node": node,
                    "bound": [v.name for v in self._bags[node].bound_vars],
                    "free": [v.name for v in self._bags[node].free_vars],
                    "representation": self._bags[
                        node
                    ].representation.snapshot_state(),
                }
                for node in self._preorder
            ],
            "build_seconds": self.build_seconds,
        }

    @classmethod
    def from_snapshot_state(cls, state: Dict) -> "DecomposedRepresentation":
        from repro.core.snapshot import database_from_state, view_from_state

        try:
            view = view_from_state(state["view"])
            db = database_from_state(state["db"])
            shape = state["decomposition"]
            decomposition = ConnexDecomposition(
                {
                    node: frozenset(Variable(name) for name in names)
                    for node, names in shape["bags"]
                },
                [tuple(edge) for edge in shape["edges"]],
                shape["root"],
                frozenset(Variable(name) for name in shape["connex"]),
            )
            self = object.__new__(cls)
            self.view, self.db = view, db
            self.hypergraph = hypergraph_of_view(view)
            self.decomposition = decomposition
            self.assignment = DelayAssignment(dict(state["assignment"]))
            self.delta_height = delta_height(decomposition, self.assignment)
            self._var_rank = {v: i for i, v in enumerate(view.head)}
            self._bags = {}
            for bag_state in state["bags"]:
                node = bag_state["node"]
                self._bags[node] = _BagStructure(
                    bound_vars=tuple(
                        Variable(name) for name in bag_state["bound"]
                    ),
                    free_vars=tuple(
                        Variable(name) for name in bag_state["free"]
                    ),
                    representation=CompressedRepresentation.from_snapshot_state(
                        bag_state["representation"]
                    ),
                )
            missing = [n for n in decomposition.non_root_nodes() if n not in self._bags]
            if missing:
                raise SnapshotError(
                    f"decomposed snapshot missing bag structures {missing!r}"
                )
            self._plan_walk()
            self.build_seconds = state["build_seconds"]
            return self
        except SnapshotError:
            raise
        except (KeyError, TypeError, ValueError, DecompositionError) as error:
            raise SnapshotError(
                f"malformed decomposed-representation state: {error}"
            ) from error

    # ------------------------------------------------------------------
    # Algorithm 5: query answering
    # ------------------------------------------------------------------
    def _plan_walk(self) -> None:
        decomposition = self.decomposition
        self._preorder = [
            node
            for node in decomposition.preorder()
            if node != decomposition.root
        ]
        bags = [self._bags[node] for node in self._preorder]
        self._plan = BagPlan(self.view, self.hypergraph, self.db, bags)
        self._representations = [bag.representation for bag in bags]

    def _walk(
        self,
        access: Sequence,
        counter: Optional[JoinCounter],
        memo: Optional[_Memo],
        start_values: Optional[Sequence] = None,
    ) -> Iterator[Tuple]:
        """The one Algorithm 5 walk behind every entry point.

        With ``memo`` (one dict per bag position), a ``(position, bag
        access)`` row list is recorded while it is first walked —
        streaming, so no answer waits on a bag's full list — and
        replayed on every later visit. With ``start_values``, positions
        on the tight prefix seek through the bag's own
        ``enumerate_from``; released positions walk in full.
        """
        plan = self._plan
        seeking = start_values is not None
        if seeking and len(start_values) != len(plan.output_slots):
            raise QueryError(
                f"start tuple has {len(start_values)} values, expected "
                f"{len(plan.output_slots)}"
            )
        values = plan.values(access, counter)
        if values is None:
            return
        accesses, frees = plan.accesses, plan.frees
        representations = self._representations
        tight = [seeking] * len(frees)  # position p opened with a seek
        if seeking:
            for slot, value in zip(plan.output_slots, start_values):
                values[slot] = value
            starts = [values[free] for free in frees]

        def visit(position: int) -> Iterator[Tuple]:
            representation = representations[position]
            bag_access = accesses[position](values)
            if seeking:
                if position:
                    above = position - 1
                    tight[position] = (
                        tight[above] and values[frees[above]] == starts[above]
                    )
                if tight[position]:
                    return representation.enumerate_from(
                        bag_access, tuple(starts[position]), counter=counter
                    )
            if memo is None:
                return representation.enumerate(bag_access, counter=counter)
            table = memo[position]
            rows = table.get(bag_access)
            if rows is not None:
                return iter(rows)
            return _recording(
                representation.enumerate(bag_access, counter=counter),
                table,
                bag_access,
            )

        yield from plan.walk(values, visit)

    def _request_memo(self, counter: Optional[JoinCounter]) -> Optional[_Memo]:
        """A fresh memo for one counter-less request; none when counted.

        A counted request walks every bag visit in full, so its step
        counts (and ``delay_steps_max``) stay exactly Algorithm 5's
        instead of depending on which bag accesses happened to repeat.
        """
        if counter is not None:
            return None
        return [{} for _ in self._representations]

    def enumerate(
        self, access: Sequence, counter: Optional[JoinCounter] = None
    ) -> Iterator[Tuple]:
        """Answer an access request; yields free-variable tuples, head order.

        The per-bag enumerations are lexicographic; the global order is the
        decomposition's pre-order nesting (Theorem 2's caveat). Without a
        counter, answers share per-bag sub-results through a memo that
        lives as long as this iterator (see :meth:`_walk`).
        """
        return self._walk(access, counter, self._request_memo(counter))

    def enumerate_from(
        self,
        access: Sequence,
        start_values: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate answers from ``start_values`` onward, enumeration order.

        ``start_values`` is a full free-variable value tuple in *head*
        order. The decomposition's global order is the pre-order bag
        nesting (not head-lexicographic), so "onward" means: every tuple
        whose bag-nesting key — the concatenation of its per-bag value
        tuples in pre-order — is >= the start tuple's key. This is
        exactly the order :meth:`enumerate` yields, so resumption after
        the n-th tuple returns precisely the remaining tuples.

        The seek is hierarchical: while a prefix of bags sits exactly on
        the start point, each bag resumes via its own Theorem 1
        ``enumerate_from``; the first bag to move strictly past its
        start value releases all deeper bags to enumerate in full (and,
        without a counter, to share sub-results through the memo).
        """
        return self._walk(
            access, counter, self._request_memo(counter), tuple(start_values)
        )

    def enumerate_after(
        self,
        access: Sequence,
        last: Sequence,
        counter: Optional[JoinCounter] = None,
    ) -> Iterator[Tuple]:
        """Enumerate strictly after ``last`` (resume token re-entry)."""
        return resume_strictly_after(
            self.enumerate_from(access, last, counter=counter), tuple(last)
        )

    # ------------------------------------------------------------------
    # shared-scan batch execution (grouped Algorithm 5)
    # ------------------------------------------------------------------
    def shared_enumerate(
        self,
        accesses: Sequence[Sequence],
        starts: Optional[Sequence[Optional[Sequence]]] = None,
        counters: Optional[Sequence[Optional[JoinCounter]]] = None,
        cache=None,
        alive: Optional[List[bool]] = None,
    ) -> Iterator[Tuple[int, Tuple]]:
        """Answer a group of access requests sharing per-bag enumerations.

        The decomposition's analogue of the Theorem 1 merged descent:
        a bag's access tuple is determined by the ancestor valuation, so
        access tuples that agree on a bound prefix keep asking the bags
        the same sub-requests. The walker's memo is made once for the
        whole scan instead of once per request: each distinct bag access
        is enumerated once per scan. Yields ``(slot, values)`` events;
        each slot's own event subsequence equals its :meth:`enumerate`
        stream (:meth:`enumerate_from` when ``starts`` names a seek
        point — the tight prefix seeks, released bags share the memo).
        Counters observe a memoized bag access only on its first
        enumeration. ``cache`` is accepted for signature compatibility
        with the Theorem 1 scan (trie descents are per bag here);
        ``alive`` flags prune a slot's remaining events mid-scan.
        """
        if alive is None:
            alive = [True] * len(accesses)
        memo: _Memo = [{} for _ in self._representations]
        for index, access in enumerate(accesses):
            if not alive[index]:
                continue
            start = starts[index] if starts is not None else None
            counter = counters[index] if counters is not None else None
            for row in self._walk(access, counter, memo, start):
                yield (index, row)
                if not alive[index]:
                    break

    def answer(self, access: Sequence) -> List[Tuple]:
        return list(self.enumerate(access))

    def exists(self, access: Sequence) -> bool:
        return next(self.enumerate(access), None) is not None

    @property
    def kernel_ready(self) -> bool:
        """Whether every bag's counter-less enumeration uses the kernel."""
        return all(
            bag.representation.kernel_ready for bag in self._bags.values()
        )

    @property
    def layout_compile_seconds(self) -> float:
        """Total layout compile time across the per-bag structures."""
        return sum(
            bag.representation.layout_compile_seconds
            for bag in self._bags.values()
        )

    # ------------------------------------------------------------------
    def space_report(self) -> SpaceReport:
        """Input cells plus the per-bag structure cells (the |D|^f term)."""
        report = SpaceReport(base_tuples=self.db.total_tuples())
        for bag in self._bags.values():
            bag_report = bag.representation.space_report()
            report = report + SpaceReport(
                index_cells=bag_report.index_cells,
                tree_nodes=bag_report.tree_nodes,
                dictionary_entries=bag_report.dictionary_entries,
            )
        return report

    @property
    def bags(self) -> Mapping[object, _BagStructure]:
        return dict(self._bags)
