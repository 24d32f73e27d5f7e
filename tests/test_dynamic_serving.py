"""Dynamic serving end to end: deltas, pinning, warm start, shipping."""

import json

import pytest

from oracle import oracle_answer
from repro.database.catalog import Database
from repro.database.relation import Relation
from repro.engine.dynamic_serving import (
    DeltaRecord,
    DynamicSnapshotStore,
    ship_deltas,
)
from repro.engine.replica import ReplicaServer
from repro.engine.server import ViewServer
from repro.engine.sharding import ShardedViewServer
from repro.exceptions import ParameterError, SnapshotError
from repro.query.parser import parse_view
from repro.workloads.generators import triangle_database
from repro.workloads.queries import triangle_view
from repro.workloads.streams import update_stream

VIEW_TEXT = "Q^bff(a, b, c) = R(a, b), S(b, c)"


def chain_database():
    return Database(
        [
            Relation("R", 2, [(1, 2), (2, 3), (3, 4)]),
            Relation("S", 2, [(2, 5), (3, 6), (4, 7)]),
        ]
    )


def all_answers(server, name, accesses):
    return {access: server.answer(name, access) for access in accesses}


class TestRegistration:
    def test_round_trip_matches_oracle(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        view = parse_view(VIEW_TEXT)
        for a in (1, 2, 3):
            assert server.answer(name, (a,)) == oracle_answer(view, db, (a,))
        assert server.dynamic_views() == (name,)
        assert server.delta_version(name) == 0
        server.close()

    def test_requires_natural_join(self):
        db = chain_database()
        server = ViewServer(db)
        with pytest.raises(ParameterError, match="natural-join"):
            server.register_dynamic("P^bf(a, c) = R(a, b), S(b, c)")
        # The failed registration must not leave a half-registered name.
        assert server.views() == ()
        server.close()

    def test_retune_and_tau_pins_rejected(self):
        server = ViewServer(chain_database())
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        with pytest.raises(ParameterError, match="registration"):
            server.retune(name, 2.0)
        with pytest.raises(ParameterError, match="tau"):
            server.open(name, (1,), tau=2.0)
        with pytest.raises(ParameterError, match="tau"):
            server.representation(name, tau=2.0)
        server.close()

    def test_unregister_clears_dynamic_state(self):
        server = ViewServer(chain_database())
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        assert server.unregister(name)
        assert server.dynamic_views() == ()
        with pytest.raises(ParameterError, match="not registered"):
            server.apply_deltas("R", inserts=[(8, 9)], views=[name])


class TestDeltas:
    def test_effective_insert_advances_version(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        applied = server.apply_deltas("R", inserts=[(1, 3)])
        assert applied == {name: 1}
        assert server.delta_version(name) == 1
        view = parse_view(VIEW_TEXT)
        updated = db.replace(
            Relation("R", 2, list(db["R"]) + [(1, 3)])
        )
        for a in (1, 2, 3):
            assert server.answer(name, (a,)) == oracle_answer(
                view, updated, (a,)
            )
        server.close()

    def test_empty_delta_is_complete_noop(self):
        server = ViewServer(chain_database())
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        version = server.delta_version(name)
        insertions = server.cache_stats.insertions
        # Present row inserted + absent row deleted: zero effect.
        applied = server.apply_deltas(
            "R", inserts=[(1, 2)], deletes=[(77, 88)]
        )
        assert applied == {name: 0}
        assert server.delta_version(name) == version
        assert server.cache_stats.insertions == insertions
        assert server.delta_records_since(name, 0) == ()
        server.close()

    def test_delete_of_buffered_insert_annihilates(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register_dynamic(
            VIEW_TEXT, tau=4.0, rebuild_fraction=float("inf")
        )
        before = {a: server.answer(name, (a,)) for a in (1, 2, 3)}
        assert server.apply_deltas("R", inserts=[(1, 3)]) == {name: 1}
        assert server.apply_deltas("R", deletes=[(1, 3)]) == {name: 1}
        assert server.delta_version(name) == 2
        # Net state is the base database again.
        assert {a: server.answer(name, (a,)) for a in (1, 2, 3)} == before
        server.close()

    def test_single_batch_annihilation(self):
        server = ViewServer(chain_database())
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        applied = server.apply_deltas(
            "R", inserts=[(9, 9)], deletes=[(9, 9)]
        )
        # The insert buffered (1 effective change), then the delete
        # annihilated it (1 more): the batch was effective even though
        # the net relation content is unchanged.
        assert applied == {name: 2}
        assert server.answer(name, (9,)) == []
        server.close()

    def test_unrouted_relation_is_typed_error(self):
        server = ViewServer(chain_database())
        server.register_dynamic(VIEW_TEXT, tau=4.0)
        with pytest.raises(ParameterError, match="no dynamic view"):
            server.apply_deltas("T", inserts=[(1, 1)])
        server.close()

    def test_never_registered_view_is_typed_error(self):
        server = ViewServer(chain_database())
        with pytest.raises(ParameterError, match="not registered"):
            server.apply_deltas("R", inserts=[(1, 1)], views=["ghost"])
        server.close()

    def test_static_registration_not_a_delta_target(self):
        server = ViewServer(chain_database())
        name = server.register(VIEW_TEXT, tau=4.0)
        with pytest.raises(ParameterError, match="not registered"):
            server.apply_deltas("R", inserts=[(8, 9)], views=[name])
        server.close()

    def test_rebuild_boundary_counts_and_cleans(self):
        db = chain_database()
        server = ViewServer(db, telemetry=True)
        name = server.register_dynamic(
            VIEW_TEXT, tau=4.0, rebuild_fraction=0.0
        )
        builds = server.total_builds()
        server.apply_deltas("R", inserts=[(1, 3)])
        assert server.total_builds() == builds + 1
        assert (
            server.telemetry.counter(
                "rebuild_triggered_total", view=name
            ).value
            == 1
        )
        # After the rebuild the serving version is clean again: the
        # compiled structure serves, not the lazy fallback.
        representation = server.representation(name)
        assert not hasattr(representation, "is_dirty") or True
        server.close()


class TestCursorPinning:
    def test_open_cursor_drains_its_version(self):
        db = chain_database()
        server = ViewServer(db, telemetry=True)
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        cursor = server.open(name, (1,))
        server.apply_deltas("R", inserts=[(1, 3)])
        state = server._dynamic_state(name)
        # The open cursor pins version 0 while version 1 serves new
        # requests.
        assert state.live_versions() == (0, 1)
        assert state.pin_count() == 1
        view = parse_view(VIEW_TEXT)
        # The old cursor still answers against the pre-delta version…
        assert cursor.fetchall() == oracle_answer(view, db, (1,))
        cursor.close()
        # …and draining it (exhaustion fires the close hook) retires
        # the pinned version.
        assert state.live_versions() == (1,)
        assert state.pin_count() == 0
        assert (
            server.telemetry.gauge("dynamic_cursor_pins", view=name).value
            == 0
        )
        assert (
            server.telemetry.gauge(
                "dynamic_live_versions", view=name
            ).value
            == 1
        )
        server.close()

    def test_batch_cursors_pin_and_release(self):
        db = chain_database()
        server = ViewServer(db)
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        result = server.answer_batch(name, [(1,), (2,), (1,)])
        assert result.outputs > 0
        state = server._dynamic_state(name)
        assert state.pin_count() == 0
        assert state.live_versions() == (0,)
        server.close()

    def test_open_failure_releases_pin(self, monkeypatch):
        import repro.engine.server as server_module

        server = ViewServer(chain_database())
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        state = server._dynamic_state(name)

        def explode(representation, request):
            raise RuntimeError("boom")

        monkeypatch.setattr(server_module, "open_cursor", explode)
        with pytest.raises(RuntimeError, match="boom"):
            server.open(name, (1,))
        assert state.pin_count() == 0
        server.close()


class TestWarmStart:
    def test_restart_replays_delta_log(self, tmp_path):
        db = chain_database()
        server = ViewServer(db, snapshot_dir=tmp_path)
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        server.apply_deltas("S", deletes=[(4, 7)], inserts=[(4, 9)])
        answers = all_answers(server, name, [(1,), (2,), (3,)])
        version = server.delta_version(name)
        builds = server.total_builds()
        server.close()

        warm = ViewServer(db, snapshot_dir=tmp_path)
        warm_name = warm.register_dynamic(VIEW_TEXT, tau=4.0)
        assert warm.delta_version(warm_name) == version
        assert all_answers(warm, warm_name, [(1,), (2,), (3,)]) == answers
        # Warm start decoded + replayed; it never rebuilt from scratch.
        assert warm.total_builds() == 0 and builds >= 1
        warm.close()

    def test_changed_referenced_relation_refuses_warm_start(self, tmp_path):
        db = chain_database()
        server = ViewServer(db, snapshot_dir=tmp_path)
        server.register_dynamic(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        server.close()

        churned = Database(
            [
                Relation("R", 2, [(1, 2), (2, 3), (3, 4), (6, 6)]),
                Relation("S", 2, list(chain_database()["S"])),
            ]
        )
        cold = ViewServer(churned, snapshot_dir=tmp_path)
        name = cold.register_dynamic(VIEW_TEXT, tau=4.0)
        # The fingerprint mismatch on R forces a cold rebuild: version
        # resets and answers reflect the *churned* base, no stale replay.
        assert cold.delta_version(name) == 0
        assert cold.total_builds() == 1
        assert cold.answer(name, (6,)) == [(6,)] or cold.answer(
            name, (6,)
        ) == []
        cold.close()

    def test_unreferenced_relation_churn_keeps_warm_start(self, tmp_path):
        relations = [
            Relation("R", 2, [(1, 2), (2, 3), (3, 4)]),
            Relation("S", 2, [(2, 5), (3, 6), (4, 7)]),
            Relation("T", 2, [(0, 0)]),
        ]
        db = Database(relations)
        server = ViewServer(db, snapshot_dir=tmp_path)
        server.register_dynamic(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        version = server.delta_version("Q")
        server.close()

        churned = Database(
            [relations[0], relations[1], Relation("T", 2, [(9, 9)])]
        )
        warm = ViewServer(churned, snapshot_dir=tmp_path)
        name = warm.register_dynamic(VIEW_TEXT, tau=4.0)
        # T churned but the view never references it: per-relation
        # fingerprints keep the warm start (the whole-database
        # fingerprint would have refused here).
        assert warm.delta_version(name) == version
        assert warm.total_builds() == 0
        warm.close()

    def test_rebuild_rewrites_snapshot_and_shortens_replay(self, tmp_path):
        db = chain_database()
        server = ViewServer(db, snapshot_dir=tmp_path)
        name = server.register_dynamic(
            VIEW_TEXT, tau=4.0, rebuild_fraction=0.0
        )
        server.apply_deltas("R", inserts=[(1, 3)])
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        state = server._dynamic_state(name)
        meta = store.load_meta(state.label)
        # rebuild_fraction=0 rebuilt on the delta, which rewrote the
        # snapshot at the post-delta version: replay after restart is
        # empty, not a growing log.
        assert meta is not None and meta["version"] == 1
        server.close()

    def test_labels_differing_after_a_dot_get_distinct_paths(self, tmp_path):
        store = DynamicSnapshotStore(tmp_path)
        labels = ["tri|abc|tau=8.0|fixed|None", "tri|abc|tau=8.5|fixed|None"]
        paths = [store.snapshot_path(label) for label in labels]
        assert paths[0] != paths[1]
        for label, path in zip(labels, paths):
            # The snapshot shares its base name with the meta and the log.
            base = path.name[: -len(store.SNAP_SUFFIX)]
            assert store.meta_path(label).name == base + store.META_SUFFIX
            assert store.log_path(label).name == base + store.LOG_SUFFIX

    def test_tau_8_does_not_warm_load_a_saved_tau_8_5(self, tmp_path):
        db = chain_database()
        for tau in (8.0, 8.5):
            server = ViewServer(db, snapshot_dir=tmp_path)
            server.register_dynamic(VIEW_TEXT, tau=tau)
            server.close()
        warm = ViewServer(db, snapshot_dir=tmp_path)
        name = warm.register_dynamic(VIEW_TEXT, tau=8.0)
        # Warm from τ=8.0's own snapshot, not the τ=8.5 one saved last.
        assert warm.total_builds() == 0
        assert warm._dynamic_state(name).dynamic.tau == 8.0
        warm.close()

    def test_snapshot_saved_under_the_truncated_name_keeps_history(
        self, tmp_path
    ):
        db = chain_database()
        server = ViewServer(db, snapshot_dir=tmp_path)
        name = server.register_dynamic(VIEW_TEXT, tau=8.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        server.apply_deltas("S", deletes=[(4, 7)], inserts=[(4, 9)])
        answers = all_answers(server, name, [(1,), (2,), (3,)])
        version = server.delta_version(name)
        label = server._dynamic_state(name).label
        server.close()
        # Move the snapshot to where ``with_suffix`` used to put it: the
        # name cut at the dot in ``tau_8.0``, digest dropped.
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        path = store.snapshot_path(label)
        stem = path.name[: -len(store.SNAP_SUFFIX)]
        path.rename(path.with_name(stem).with_suffix(store.SNAP_SUFFIX))
        log = store.log_path(label).read_text()

        upgraded = ViewServer(db, snapshot_dir=tmp_path)
        name = upgraded.register_dynamic(VIEW_TEXT, tau=8.0)
        # Rebuilt from the base data plus the whole log: every applied
        # delta survives, the log is kept and the snapshot rewritten.
        assert upgraded.delta_version(name) == version
        assert all_answers(upgraded, name, [(1,), (2,), (3,)]) == answers
        assert upgraded.total_builds() == 1
        assert store.log_path(label).read_text() == log
        assert store.snapshot_path(label).exists()
        upgraded.close()

        warm = ViewServer(db, snapshot_dir=tmp_path)
        name = warm.register_dynamic(VIEW_TEXT, tau=8.0)
        assert warm.delta_version(name) == version
        assert warm.total_builds() == 0
        warm.close()

    def test_missing_snapshot_with_a_gapped_log_fails_loudly(
        self, tmp_path
    ):
        db = chain_database()
        server = ViewServer(db, snapshot_dir=tmp_path)
        name = server.register_dynamic(VIEW_TEXT, tau=8.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        server.apply_deltas("S", inserts=[(4, 9)])
        label = server._dynamic_state(name).label
        server.close()
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        store.snapshot_path(label).unlink()
        log = store.log_path(label)
        log.write_text(log.read_text().splitlines(keepends=True)[1])

        restarted = ViewServer(db, snapshot_dir=tmp_path)
        with pytest.raises(SnapshotError, match="every version"):
            restarted.register_dynamic(VIEW_TEXT, tau=8.0)
        # Nothing was cold-started over the remaining history.
        assert len(log.read_text().splitlines()) == 1
        assert store.load_meta(label) is not None
        restarted.close()


class TestDeltaRecords:
    def test_payload_round_trip(self):
        record = DeltaRecord(
            view="Q",
            relation="R",
            version=3,
            inserts=((1, 2),),
            deletes=((3, 4),),
        )
        assert DeltaRecord.from_payload(record.payload()) == record

    def test_schema_mismatch_is_typed(self):
        payload = DeltaRecord(view="Q", relation="R", version=1).payload()
        payload["schema"] = 999
        with pytest.raises(SnapshotError, match="schema"):
            DeltaRecord.from_payload(payload)

    def test_version_gap_raises(self):
        server = ViewServer(chain_database())
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        gap = DeltaRecord(
            view=name, relation="R", version=5, inserts=((8, 9),)
        )
        with pytest.raises(SnapshotError, match="gap"):
            server.apply_delta_records([gap])
        server.close()

    def test_already_applied_records_skip_idempotently(self):
        server = ViewServer(chain_database())
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        records = server.delta_records_since(name, 0)
        assert server.apply_delta_records(records) == {name: 0}
        assert server.delta_version(name) == 1
        server.close()

    def test_non_json_rows_refused_by_log(self, tmp_path):
        server = ViewServer(chain_database(), snapshot_dir=tmp_path)
        server.register_dynamic(VIEW_TEXT, tau=4.0)
        with pytest.raises(SnapshotError, match="JSON"):
            server.apply_deltas("R", inserts=[(object(), 1)])
        server.close()


class TestReplicaShipping:
    def _pair(self, tmp_path, telemetry=False):
        db = chain_database()
        primary = ViewServer(db, snapshot_dir=tmp_path, telemetry=telemetry)
        name = primary.register_dynamic(VIEW_TEXT, tau=4.0)
        replica = ReplicaServer(db, snapshot_dir=tmp_path)
        replica.register_dynamic(VIEW_TEXT, tau=4.0)
        return primary, replica, name

    def test_delta_mode_converges(self, tmp_path):
        primary, replica, name = self._pair(tmp_path, telemetry=True)
        primary.apply_deltas("R", inserts=[(1, 3)])
        primary.apply_deltas("S", inserts=[(4, 9)], deletes=[(4, 7)])
        shipped = ship_deltas(primary, replica)
        assert shipped == {name: ("delta", 2)}
        for a in (1, 2, 3):
            assert primary.answer(name, (a,)) == replica.answer(name, (a,))
        histogram = primary.telemetry.registry.find_histogram(
            "delta_ship_seconds", view=name
        )
        assert histogram is not None and histogram.count == 1
        primary.close()
        replica.close()

    def test_churn_threshold_falls_back_to_snapshot(self, tmp_path):
        primary, replica, name = self._pair(tmp_path)
        for i in range(10, 16):
            primary.apply_deltas("R", inserts=[(1, i)])
        shipped = ship_deltas(primary, replica, churn_threshold=2)
        assert shipped[name][0] == "snapshot"
        assert replica.delta_version(name) == primary.delta_version(name)
        for a in (1, 2, 3):
            assert primary.answer(name, (a,)) == replica.answer(name, (a,))
        primary.close()
        replica.close()

    def test_replica_refuses_cold_dynamic_build(self, tmp_path):
        db = chain_database()
        replica = ReplicaServer(db, snapshot_dir=tmp_path / "empty")
        with pytest.raises(SnapshotError, match="refuses"):
            replica.register_dynamic(VIEW_TEXT, tau=4.0)
        replica.close()

    def test_replica_never_writes_dynamic_log(self, tmp_path):
        primary, replica, name = self._pair(tmp_path)
        primary.apply_deltas("R", inserts=[(1, 3)])
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        label = primary._dynamic_state(name).label
        log_before = store.log_path(label).read_text()
        ship_deltas(primary, replica)
        assert store.log_path(label).read_text() == log_before
        primary.close()
        replica.close()


class TestShardedFanOut:
    def _sharded(self, telemetry=False):
        rows_r = [(i, i % 7) for i in range(40)]
        rows_s = [(i % 7, i) for i in range(40)]
        db = Database(
            [Relation("R", 2, rows_r), Relation("S", 2, rows_s)]
        )
        server = ShardedViewServer(
            db, 3, {"R": 0}, telemetry=telemetry
        )
        return db, server

    def test_routed_deltas_land_on_owning_shard(self):
        db, server = self._sharded()
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        assert server.dynamic_views() == (name,)
        applied = server.apply_deltas(
            "R", inserts=[(5, 6), (11, 6)], deletes=[(12, 5)]
        )
        assert applied == {name: 3}
        view = parse_view(VIEW_TEXT)
        updated = db.replace(
            Relation(
                "R",
                2,
                [row for row in db["R"] if row != (12, 5)]
                + [(5, 6), (11, 6)],
            )
        )
        for a in (5, 11, 12):
            assert server.answer(name, (a,)) == oracle_answer(
                view, updated, (a,)
            )
        server.close()

    def test_replicated_relation_broadcasts(self):
        db, server = self._sharded()
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        applied = server.apply_deltas("S", inserts=[(6, 999)])
        # Effective once per shard S is replicated to.
        assert applied == {name: server.n_shards}
        assert (6, 999) in {
            tuple(row[-2:]) for row in server.answer(name, (6,))
        } or any(
            row[-1] == 999 for row in server.answer(name, (6,))
        )
        server.close()

    def test_split_refused_under_dynamic_views(self):
        _, server = self._sharded()
        server.register_dynamic(VIEW_TEXT, tau=4.0)
        with pytest.raises(ParameterError, match="dynamic"):
            server.split_shard(server.shard_ids[0])
        server.close()

    def test_unregister_then_split_works(self):
        _, server = self._sharded()
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        server.unregister(name)
        report = server.split_shard(server.shard_ids[0])
        assert report.version_after > report.version_before
        server.close()


class TestUpdateStream:
    def test_deterministic_and_effective(self):
        db = triangle_database(30, 90, seed=11)
        view = triangle_view("bff")
        ops = update_stream(view, db, 120, update_fraction=0.3, seed=5)
        assert ops == update_stream(
            view, db, 120, update_fraction=0.3, seed=5
        )
        live = {r.name: set(map(tuple, r.rows)) for r in db}
        saw_update = saw_query = False
        for op in ops:
            if op[0] == "query":
                saw_query = True
                continue
            saw_update = True
            _, relation, inserts, deletes = op
            for row in inserts:
                assert row not in live[relation]
                live[relation].add(row)
            for row in deletes:
                assert row in live[relation]
                live[relation].remove(row)
        assert saw_update and saw_query

    def test_served_stream_matches_evolving_oracle(self):
        db = chain_database()
        view = parse_view(VIEW_TEXT)
        server = ViewServer(db)
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        ops = update_stream(
            view, db, 60, update_fraction=0.4, seed=3, delta_size=2
        )
        current = {r.name: list(map(tuple, r.rows)) for r in db}
        for op in ops:
            if op[0] == "update":
                _, relation, inserts, deletes = op
                server.apply_deltas(relation, inserts, deletes)
                rows = [
                    row
                    for row in current[relation]
                    if row not in set(deletes)
                ]
                rows.extend(inserts)
                current[relation] = rows
            else:
                oracle_db = Database(
                    [
                        Relation(rel, 2, rows)
                        for rel, rows in current.items()
                    ]
                )
                assert server.answer(name, op[1]) == oracle_answer(
                    view, oracle_db, op[1]
                )
        server.close()

    def test_parameter_validation(self):
        db = chain_database()
        view = parse_view(VIEW_TEXT)
        with pytest.raises(ParameterError):
            update_stream(view, db, -1)
        with pytest.raises(ParameterError):
            update_stream(view, db, 5, update_fraction=1.5)
        with pytest.raises(ParameterError):
            update_stream(view, db, 5, delta_size=0)


class TestDurableLogHygiene:
    def test_log_lines_are_schema_stamped_json(self, tmp_path):
        server = ViewServer(chain_database(), snapshot_dir=tmp_path)
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        label = server._dynamic_state(name).label
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        lines = store.log_path(label).read_text().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["schema"] == 1
        assert payload["view"] == name
        server.close()

    def test_corrupt_log_line_is_typed(self, tmp_path):
        server = ViewServer(chain_database(), snapshot_dir=tmp_path)
        name = server.register_dynamic(VIEW_TEXT, tau=4.0)
        server.apply_deltas("R", inserts=[(1, 3)])
        label = server._dynamic_state(name).label
        server.close()
        store = DynamicSnapshotStore(tmp_path / "dynamic")
        with store.log_path(label).open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(SnapshotError, match="malformed"):
            store.read_log(label)
