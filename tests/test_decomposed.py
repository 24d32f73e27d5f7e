"""The Theorem 2 structure: per-bag compression over connex decompositions."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracle import oracle_accesses, oracle_answer
from repro.core.decomposed import DecomposedRepresentation
from repro.core.snapshot import decode_snapshot, encode_snapshot
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.exceptions import ParameterError, QueryError
from repro.hypergraph.hypergraph import hypergraph_of_view
from repro.hypergraph.width import DelayAssignment, connex_fhw
from repro.joins.generic_join import JoinCounter
from repro.query.parser import parse_view
from repro.workloads.generators import path_database, triangle_database
from repro.workloads.queries import (
    figure2_view,
    figure7_view,
    figure7_database,
    path_view,
    star_view,
    triangle_view,
)


def check_decomposed(view, db, assignments=(None,), limit=8):
    accesses = oracle_accesses(view, db, limit=limit)
    hg = hypergraph_of_view(view)
    _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
    for assignment in assignments:
        dr = DecomposedRepresentation(
            view, db, decomposition=decomposition, assignment=assignment
        )
        for access in accesses:
            got = sorted(dr.answer(access))
            assert got == oracle_answer(view, db, access), access


class TestCorrectness:
    def test_path3_zero_delay(self):
        check_decomposed(path_view(3), path_database(3, 60, 12, seed=1))

    def test_path4_with_delays(self):
        view = path_view(4)
        db = path_database(4, 55, 10, seed=2)
        hg = hypergraph_of_view(view)
        _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
        assignments = [
            None,
            DelayAssignment.uniform(decomposition, 0.2),
            DelayAssignment.uniform(decomposition, 0.5),
        ]
        check_decomposed(view, db, assignments)

    def test_triangle_bbf(self):
        check_decomposed(
            triangle_view("bbf"), triangle_database(15, 60, seed=3)
        )

    def test_figure2_query(self):
        view = figure2_view()
        db = path_database(6, 45, 8, seed=4)
        # figure2 uses relations R1..R6 like the path database provides.
        check_decomposed(view, db, limit=5)

    def test_figure7_query(self):
        check_decomposed(figure7_view(), figure7_database(14, 56, seed=5), limit=5)

    def test_example10_path_decomposition(self):
        """Example 10: P^bf..fb — Theorem 2 with paired bags."""
        view = path_view(5)
        db = path_database(5, 45, 8, seed=6)
        check_decomposed(view, db, limit=5)


class TestStructure:
    def _build(self, delay=0.0):
        view = path_view(4)
        db = path_database(4, 50, 10, seed=7)
        hg = hypergraph_of_view(view)
        _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
        assignment = (
            DelayAssignment.uniform(decomposition, delay) if delay else None
        )
        return DecomposedRepresentation(
            view, db, decomposition=decomposition, assignment=assignment
        )

    def test_bags_cover_free_variables(self):
        dr = self._build()
        free = set()
        for bag in dr.bags.values():
            free |= set(bag.free_vars)
        assert free == set(dr.view.free_variables)

    def test_delta_height_zero_for_zero_assignment(self):
        assert self._build().delta_height == 0.0

    def test_delta_height_grows_with_delay(self):
        assert self._build(0.3).delta_height > 0.0

    def test_space_shrinks_with_delay(self):
        """Larger per-bag τ ⇒ smaller bag structures (the tradeoff)."""
        small = self._build(0.0).space_report().structure_cells
        large = self._build(0.9).space_report().structure_cells
        assert large <= small

    def test_refinement_zeroes_unsupported_entries(self):
        """After Algorithm 4, every 1-entry extends into the subtree."""
        view = path_view(3)
        db = path_database(3, 40, 8, seed=8)
        dr = DecomposedRepresentation(view, db)
        decomposition = dr.decomposition
        for parent in decomposition.postorder():
            if parent == decomposition.root:
                continue
            children = decomposition.children[parent]
            if not children:
                continue
            bag = dr.bags[parent]
            rep = bag.representation
            for (node_id, access), bit in rep.dictionary.items():
                if bit != 1:
                    continue
                node = rep.tree.nodes[node_id]
                supported = False
                for values in rep.enumerate_interval(access, node.interval):
                    valuation = dict(zip(bag.bound_vars, access))
                    valuation.update(zip(bag.free_vars, values))
                    if all(
                        dr._child_extends(child, valuation)
                        for child in children
                    ):
                        supported = True
                        break
                assert supported, (parent, node_id, access)

    def test_counter_threads_through_bags(self):
        dr = self._build()
        counter = JoinCounter()
        accesses = oracle_accesses(
            dr.view, dr.db, limit=1
        )
        list(dr.enumerate(accesses[0], counter=counter))
        assert counter.steps > 0


class TestValidation:
    def test_wrong_connex_set_rejected(self):
        view = path_view(3)
        db = path_database(3, 30, 8, seed=9)
        other = path_view(3, pattern="bffb")  # different bound set? same...
        hg = hypergraph_of_view(view)
        # Build a decomposition for a DIFFERENT connex set.
        from repro.query.atoms import Variable

        wrong_connex = frozenset({Variable("x1"), Variable("x2")})
        _, decomposition = connex_fhw(hg, wrong_connex)
        from repro.exceptions import DecompositionError

        with pytest.raises(DecompositionError):
            DecomposedRepresentation(view, db, decomposition=decomposition)

    def test_nonzero_root_delay_rejected(self):
        view = path_view(3)
        db = path_database(3, 30, 8, seed=10)
        hg = hypergraph_of_view(view)
        _, decomposition = connex_fhw(hg, frozenset(view.bound_variables))
        bad = DelayAssignment({decomposition.root: 0.5})
        with pytest.raises(ParameterError):
            DecomposedRepresentation(
                view, db, decomposition=decomposition, assignment=bad
            )

    def test_wrong_access_arity(self):
        view = path_view(3)
        db = path_database(3, 30, 8, seed=11)
        dr = DecomposedRepresentation(view, db)
        with pytest.raises(QueryError):
            list(dr.enumerate((1,)))

    def test_root_membership_check(self):
        """An edge inside V_b filters accesses at the root (Section 5.1)."""
        view = parse_view(
            "Q^bbf(x, y, z) = R(x, y), S(y, z)"
        )
        db = Database(
            [
                Relation("R", 2, [(1, 2), (3, 4)]),
                Relation("S", 2, [(2, 5), (4, 6)]),
            ]
        )
        dr = DecomposedRepresentation(view, db)
        assert sorted(dr.answer((1, 2))) == [(5,)]
        assert dr.answer((1, 4)) == []  # (1,4) not in R


# ----------------------------------------------------------------------
# The Algorithm 5 walker: every entry point against the counted walk
# ----------------------------------------------------------------------
SHAPES = {
    "path": path_view(4),
    "star": star_view(3, "fffb"),
    "tree": parse_view(
        "T^bfffff(a, b, c, d, e, f) = "
        "R1(a, b), R2(b, c), R3(b, d), R4(d, e), R5(d, f)"
    ),
}
DOMAIN = range(4)
VALUE = st.sampled_from(DOMAIN)
EDGES = st.lists(st.tuples(VALUE, VALUE), max_size=12)


def reference(dr, access):
    """The counted walk: Algorithm 5 with no memo."""
    return list(dr.enumerate(access, counter=JoinCounter()))


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    delay=st.sampled_from([0.0, 0.35, 0.8]),
    refine=st.booleans(),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_every_entry_point_matches_the_counted_walk(shape, delay, refine, data):
    view = SHAPES[shape]
    db = Database(
        [
            Relation(atom.relation, 2, data.draw(EDGES, label=atom.relation))
            for atom in view.atoms
        ]
    )
    _, decomposition = connex_fhw(
        hypergraph_of_view(view), frozenset(view.bound_variables)
    )
    dr = DecomposedRepresentation(
        view,
        db,
        decomposition=decomposition,
        assignment=DelayAssignment.uniform(decomposition, delay),
        refine=refine,
    )
    restored = decode_snapshot(encode_snapshot(dr))
    width = len(view.bound_variables)
    accesses = list(itertools.product(DOMAIN, repeat=width))
    accesses.append((-1,) * width)
    expected = {access: reference(dr, access) for access in accesses}
    for access, rows in expected.items():
        assert sorted(rows) == oracle_answer(view, db, access)
        assert list(dr.enumerate(access)) == rows
        assert list(restored.enumerate(access)) == rows
        assert reference(restored, access) == rows
        for i, row in enumerate(rows):
            assert list(dr.enumerate_from(access, row)) == rows[i:]
            assert list(dr.enumerate_after(access, row)) == rows[i + 1 :]
            counted = dr.enumerate_after(access, row, counter=JoinCounter())
            assert list(counted) == rows[i + 1 :]
    # One shared scan over a mixed batch: duplicates, misses, seeks and
    # counters; each slot's events are exactly its own stream.
    batch = accesses + accesses[:3]
    starts = [
        expected[a][len(expected[a]) // 2] if k % 2 and expected[a] else None
        for k, a in enumerate(batch)
    ]
    counters = [JoinCounter() if k % 3 == 0 else None for k in range(len(batch))]
    streams = {k: [] for k in range(len(batch))}
    for slot, row in dr.shared_enumerate(batch, starts=starts, counters=counters):
        streams[slot].append(row)
    for k, access in enumerate(batch):
        rows = expected[access]
        skip = rows.index(starts[k]) if starts[k] is not None else 0
        assert streams[k] == rows[skip:], (k, access)
    # A slot pruned after its first answer abandons its walk half-way;
    # the same access later in the scan still gets its whole stream.
    alive = [True] * len(batch)
    streams = {k: [] for k in range(len(batch))}
    for slot, row in dr.shared_enumerate(batch, alive=alive):
        streams[slot].append(row)
        alive[slot] = slot >= len(accesses)
    for k, access in enumerate(batch):
        want = expected[access] if k >= len(accesses) else expected[access][:1]
        assert streams[k] == want, (k, access)


def _p12_database(seed=2018, length=12, domain=12):
    """Path-fanout's data: each relation two random permutations."""
    rng = random.Random(seed)
    relations = []
    for i in range(1, length + 1):
        image = list(range(domain))
        rng.shuffle(image)
        shift = 1 + rng.randrange(domain - 1)
        rows = [(v, image[v]) for v in range(domain)]
        rows += [(v, image[(v + shift) % domain]) for v in range(domain)]
        relations.append(Relation(f"R{i}", 2, rows))
    return Database(relations)


class TestBagWalkCounts:
    ACCESS = (0, 5)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every bag-level enumerate call, as (bag structure, access)."""
        seen = []
        original = CompressedRepresentation.enumerate

        def counted(self, access, counter=None):
            seen.append((id(self), tuple(access)))
            return original(self, access, counter=counter)

        monkeypatch.setattr(CompressedRepresentation, "enumerate", counted)
        return seen

    @pytest.fixture(scope="class")
    def p12(self):
        return DecomposedRepresentation(path_view(12), _p12_database())

    def test_request_walks_each_bag_access_once(self, p12, calls):
        rows = list(p12.enumerate(self.ACCESS))
        assert len(rows) == 356
        assert len(calls) == len(set(calls)) == 77

    def test_counted_request_keeps_algorithm_5_steps(self, p12, calls):
        counter = JoinCounter()
        rows = list(p12.enumerate(self.ACCESS, counter=counter))
        assert len(rows) == 356
        # Every visit re-walks its bag: the un-memoized walk's figures.
        assert len(calls) == 1347
        assert len(set(calls)) == 77
        assert counter.steps == 9722
