"""The access-serving engine: registered views + cached representations.

:class:`ViewServer` is the long-lived serving layer the paper implies but
the CLI never had: register adorned views once against a database, then
answer access requests from a bounded cache of compressed representations
instead of rebuilding ``(T, D)`` per invocation.

Responsibilities
----------------
* **Registration** resolves each view to its natural-join form
  (:func:`~repro.query.rewriting.normalize_view`) and picks τ: a fixed
  value, or automatically from a space budget
  (:func:`~repro.optimizer.min_delay_cover` — the smallest delay the
  budget affords, Proposition 11) or a delay budget
  (:func:`~repro.optimizer.min_space_cover` — the smallest space meeting
  it, Proposition 12). Budget-selected covers are reused as the
  structure's fractional edge cover, so the built instance realizes the
  optimized tradeoff point.
* **Caching**: structures are built lazily on first request and kept in a
  :class:`~repro.engine.cache.RepresentationCache` keyed by
  ``(view name, τ)`` with LRU eviction under entry/cell bounds.
* **Streaming**: :meth:`ViewServer.open` is the serving primitive — it
  returns a lazy :class:`~repro.engine.api.AnswerCursor` honoring the
  request's ``limit``/``start_after``/``measure`` knobs, so top-k and
  paginated workloads enumerate only what they consume. ``answer``,
  ``answer_batch`` and ``serve_stream`` are materializing wrappers.
* **Batched serving**: :meth:`ViewServer.open_batch` is the batch
  primitive — a request group over one view rides ONE shared tree
  traversal (:mod:`repro.engine.shared_scan`), with duplicates sharing
  a lane and prefix-sharing accesses sharing subtrie descents;
  ``answer_batch``/``serve_stream`` are materializing wrappers over it.
  Per-request delay statistics follow
  :meth:`AnswerCursor.stats <repro.engine.api.AnswerCursor.stats>`
  semantics: the closing gap (trailing steps after the last output) is
  included **only when the cursor observed exhaustion**. ``answer_batch``
  drains every cursor fully, so its stats always include it — matching
  :func:`~repro.measure.delay.measure_enumeration` — while a
  limit-stopped cursor opened directly never does.
* **Telemetry**: pass ``telemetry=`` (a
  :class:`~repro.engine.telemetry.Telemetry`, or ``True`` to persist
  under ``snapshot_dir/telemetry/``) and the server instruments itself:
  request counters, serve-latency and delay-gap histograms, cache and
  shared-scan counters. ``None`` (the default) costs nothing. The
  :class:`~repro.engine.telemetry.AdaptiveTuner` closes the loop through
  :meth:`ViewServer.retune` / :meth:`ViewServer.serving_tau` /
  :meth:`ViewServer.prefetch` / :meth:`ViewServer.demote`.
* **Concurrency**: the cache is internally synchronized and provides
  the single-build guarantee through
  :meth:`~repro.engine.cache.RepresentationCache.get_or_build` (at most
  one build per key ever runs; waiters block on the builder's event,
  then hit the cache). A separate registry lock guards the server's own
  bookkeeping, and enumeration runs outside all locks — built
  structures are immutable, so concurrent readers never contend.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.dynamic import DynamicRepresentation
from repro.core.snapshot import (
    SnapshotStore,
    database_fingerprint,
    relation_fingerprints,
    view_state,
)
from repro.core.structure import CompressedRepresentation
from repro.database.catalog import Database
from repro.engine.api import (
    AccessRequest,
    AnswerCursor,
    as_request,
    open_cursor,
)
from repro.engine.cache import CacheStats, RepresentationCache
from repro.engine.dynamic_serving import (
    DeltaRecord,
    DynamicSnapshotStore,
    DynamicViewState,
)
from repro.engine.locking import named_lock
from repro.engine.parallel import ParallelBuilder
from repro.engine.shared_scan import SharedScan
from repro.engine.telemetry import GAP_BUCKETS, LATENCY_BUCKETS, Telemetry
from repro.exceptions import ParameterError, SchemaError, SnapshotError
from repro.measure.delay import DelayStats
from repro.optimizer.min_delay import min_delay_cover
from repro.optimizer.min_space import min_space_cover
from repro.query.adorned import AdornedView
from repro.query.parser import parse_view
from repro.query.rewriting import normalize_view
from repro.workloads.streams import batched

DEFAULT_TAU = 8.0

CacheKey = Tuple[str, float, int]


@dataclass(frozen=True)
class Registration:
    """One registered view: its natural-join form and resolved knobs.

    ``generation`` distinguishes re-registrations under a reused name:
    cache keys embed it, so a structure built for one generation can
    never be served (or hit by a waiter) as another generation's answer.
    """

    name: str
    view: AdornedView
    natural_view: AdornedView
    database: Database
    tau: float
    policy: str  # "fixed" | "space-budget" | "delay-budget"
    budget: Optional[float] = None
    weights: Optional[Mapping[int, float]] = None
    sizes: Mapping[int, int] = field(default_factory=dict)
    generation: int = 0


@dataclass(frozen=True)
class BatchResult:
    """Answers and measurements for one served batch.

    ``answers`` aligns with the submitted batch; duplicate requests share
    one answer list (the whole point of batching). ``request_stats`` holds
    one :class:`~repro.measure.delay.DelayStats` per *distinct* access.
    Batch cursors are drained to exhaustion, so each entry **includes the
    closing gap** (the trailing steps after its last output) — identical
    to :func:`~repro.measure.delay.measure_enumeration` on the same
    access. This is the exhaustion case of the cursor rule
    (:meth:`AnswerCursor.stats <repro.engine.api.AnswerCursor.stats>`):
    only a limit-stopped cursor, which never observes exhaustion, omits
    the closing gap.
    """

    accesses: Tuple[Tuple, ...]
    answers: Tuple[List[Tuple], ...]
    request_stats: Mapping[Tuple, DelayStats]
    unique_count: int

    @property
    def shared_count(self) -> int:
        """Requests answered without a traversal of their own."""
        return len(self.accesses) - self.unique_count

    @property
    def outputs(self) -> int:
        """Total tuples delivered, duplicates included."""
        return sum(len(rows) for rows in self.answers)

    @property
    def max_step_gap(self) -> int:
        """Worst logical delay observed across the batch's traversals."""
        if not self.request_stats:
            return 0
        return max(s.step_max_gap for s in self.request_stats.values())


@dataclass(frozen=True)
class ServingReport:
    """Aggregate of one request stream served through the engine.

    ``builds`` and ``cache`` are deltas observed during this stream, not
    server-lifetime totals — serving a warm cache reports zero builds.
    """

    requests: int
    unique_requests: int
    shared_requests: int
    outputs: int
    batches: int
    builds: int
    wall_seconds: float
    max_step_gap: int
    cache: CacheStats

    @property
    def requests_per_second(self) -> float:
        """Serving throughput over the report's wall-clock window."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.requests / self.wall_seconds


def drain_stream(
    server,
    name: str,
    accesses: Iterable[Sequence],
    batch_size: int = 32,
    tau: Optional[float] = None,
    measure: bool = True,
) -> ServingReport:
    """Drain a request stream through any serving back end, batch by batch.

    ``server`` needs the common serving surface — ``answer_batch``,
    ``total_builds()`` and ``cache_stats`` — which :class:`ViewServer`
    and :class:`~repro.engine.sharding.ShardedViewServer` both expose;
    their ``serve_stream`` methods are this helper, so stream accounting
    cannot drift between the plain and the sharded path.
    """
    started = time.perf_counter()
    builds_before = server.total_builds()
    stats_before = server.cache_stats
    requests = unique = outputs = batches = 0
    max_gap = 0
    for chunk in batched(accesses, batch_size):
        result = server.answer_batch(name, chunk, tau=tau, measure=measure)
        requests += len(result.accesses)
        unique += result.unique_count
        outputs += result.outputs
        batches += 1
        max_gap = max(max_gap, result.max_step_gap)
    return ServingReport(
        requests=requests,
        unique_requests=unique,
        shared_requests=requests - unique,
        outputs=outputs,
        batches=batches,
        builds=server.total_builds() - builds_before,
        wall_seconds=time.perf_counter() - started,
        max_step_gap=max_gap,
        cache=server.cache_stats.delta(stats_before),
    )


class ViewServer:
    """Serve access requests for registered views from a bounded cache.

    Parameters
    ----------
    db:
        The database all registered views are evaluated against.
    max_entries / max_cells:
        Bounds of the representation cache (see
        :class:`~repro.engine.cache.RepresentationCache`).
    snapshot_dir:
        Optional directory enabling the persistent warm-start tier:
        builds are snapshotted there (stamped with this database's
        fingerprint), misses consult it before building, and evictions
        demote to it. A restarted server pointed at the same directory
        and the same data decodes instead of rebuilding.
    cache_policy:
        ``"lru"`` or ``"cost"`` — see
        :class:`~repro.engine.cache.RepresentationCache`.
    build_workers / builder:
        Process-parallel builds: ``build_workers=N`` gives the server
        its own :class:`~repro.engine.parallel.ParallelBuilder` pool of
        N worker processes (closed by :meth:`close`); ``builder=``
        shares an existing pool (the sharded facade does this so total
        build parallelism stays bounded). Builds fall back in-process
        whenever the pool is unavailable.
    telemetry:
        ``None`` (default) disables instrumentation entirely. A
        :class:`~repro.engine.telemetry.Telemetry` instance instruments
        this server (and its cache) into that instance's registry —
        share one across servers to see the whole stack. ``True``
        creates a server-owned instance, persisting under
        ``snapshot_dir/telemetry/`` when a snapshot directory is set
        (in-memory otherwise); :meth:`close` flushes it.

    Example
    -------
    >>> from repro import ViewServer
    >>> from repro.workloads import triangle_database
    >>> server = ViewServer(triangle_database(nodes=30, edges=120, seed=1))
    >>> name = server.register(
    ...     "Delta^bbf(x, y, z) = R(x, y), S(y, z), T(z, x)", tau=8,
    ... )
    >>> batch = server.answer_batch(name, [(3, 7), (1, 2), (3, 7)])
    >>> batch.unique_count, batch.shared_count
    (2, 1)
    """

    def __init__(
        self,
        db: Database,
        max_entries: Optional[int] = 8,
        max_cells: Optional[int] = None,
        snapshot_dir: Optional[Union[str, Path]] = None,
        cache_policy: str = "lru",
        build_workers: Optional[int] = None,
        builder: Optional[ParallelBuilder] = None,
        telemetry: Union[Telemetry, bool, None] = None,
    ):
        self.db = db
        store = None
        if snapshot_dir is not None:
            store = SnapshotStore(
                snapshot_dir, fingerprint=database_fingerprint(db)
            )
        self._owns_telemetry = telemetry is True
        if telemetry is True:
            telemetry = Telemetry(
                Path(snapshot_dir) / "telemetry"
                if snapshot_dir is not None
                else None
            )
        self._telemetry: Optional[Telemetry] = telemetry or None
        self._owns_builder = False
        if builder is None and build_workers is not None:
            builder = ParallelBuilder(build_workers)
            self._owns_builder = True
        self._builder = builder
        self._cache = RepresentationCache(
            max_entries=max_entries,
            max_cells=max_cells,
            policy=cache_policy,
            snapshot_store=store,
            metrics=(
                self._telemetry.registry
                if self._telemetry is not None
                else None
            ),
        )
        self._views: Dict[str, Registration] = {}
        self._dynamic: Dict[str, DynamicViewState] = {}
        self._dynamic_store = (
            DynamicSnapshotStore(Path(snapshot_dir) / "dynamic")
            if snapshot_dir is not None
            else None
        )
        # Replicas flip this off: they ingest shipped deltas but never
        # write snapshots or append to the delta event log.
        self._writes_dynamic_snapshots = True
        self._lock = named_lock("server")
        self._tau_overrides: Dict[str, float] = {}
        # Resolved metric handles per (view, mode): registry lookups
        # sort labels and verify buckets under a lock, which is too
        # much work to repeat on every cursor close in the hot path.
        # Races are benign — both writers cache identical handles.
        self._metric_handles: Dict[Tuple[str, str], Tuple] = {}
        self._build_counts: Dict[CacheKey, int] = {}
        # Monotonic lifetime total: per-key counters are pruned when their
        # generation dies, but stream build-deltas need a counter that
        # never runs backwards.
        self._total_builds = 0
        self._requests_served = 0
        self._generation = 0

    # ------------------------------------------------------------------
    # registration and τ selection
    # ------------------------------------------------------------------
    def register(
        self,
        view: Union[AdornedView, str],
        tau: Optional[float] = None,
        space_budget: Optional[float] = None,
        delay_budget: Optional[float] = None,
        name: Optional[str] = None,
        database: Optional[Database] = None,
    ) -> str:
        """Register an adorned view; returns the name requests refer to.

        Exactly one of ``tau``, ``space_budget`` and ``delay_budget`` may
        be given; with none, ``DEFAULT_TAU`` is used. Budgets are in the
        optimizer's units: space in cells (relative to the relation
        sizes), delay as the τ bound of Theorem 1.

        ``database`` overrides the server's database for this
        registration only — the sharded facade registers each view
        against a per-shard semijoin-reduced copy this way. The override
        must answer the view identically to the server's own database
        (the caller's contract); everything else on the server keeps
        using ``self.db``.
        """
        if isinstance(view, str):
            view = parse_view(view)
        base_db = database if database is not None else self.db
        knobs = [
            knob
            for knob in (tau, space_budget, delay_budget)
            if knob is not None
        ]
        if len(knobs) > 1:
            raise ParameterError(
                "give at most one of tau, space_budget, delay_budget"
            )
        name = name or view.name
        if view.is_natural_join():
            natural_view, eval_db = view, base_db
        else:
            normalized = normalize_view(view, base_db)
            natural_view, eval_db = normalized.view, normalized.database
        sizes = {
            label: len(eval_db[atom.relation])
            for label, atom in enumerate(natural_view.atoms)
        }
        weights: Optional[Mapping[int, float]] = None
        if space_budget is not None:
            optimum = min_delay_cover(natural_view, sizes, space_budget)
            policy, budget = "space-budget", float(space_budget)
            tau, weights = max(1.0, optimum.tau), dict(optimum.weights)
        elif delay_budget is not None:
            optimum = min_space_cover(natural_view, sizes, delay_budget)
            policy, budget = "delay-budget", float(delay_budget)
            tau, weights = max(1.0, optimum.tau), dict(optimum.weights)
        else:
            policy, budget = "fixed", None
            tau = float(tau) if tau is not None else DEFAULT_TAU
            if tau <= 0:
                raise ParameterError(f"tau must be positive, got {tau}")
        with self._lock:
            if name in self._views:
                raise SchemaError(f"view {name!r} is already registered")
            self._generation += 1
            self._views[name] = Registration(
                name=name,
                view=view,
                natural_view=natural_view,
                database=eval_db,
                tau=tau,
                policy=policy,
                budget=budget,
                weights=weights,
                sizes=sizes,
                generation=self._generation,
            )
        return name

    def unregister(self, name: str) -> bool:
        """Drop a registration and its cached structures; True if it existed."""
        with self._lock:
            registration = self._views.pop(name, None)
            dynamic_state = self._dynamic.pop(name, None)
        if dynamic_state is not None:
            # Dynamic entries live under per-version generations, not
            # the registration's: sweep every one of them by name.
            self._cache.invalidate_matching(
                lambda key: key[0] == name, drop_snapshot=False
            )
        if registration is None:
            return False
        # Scope the sweep to the popped generation: a concurrent
        # re-registration under the same name owns fresh keys that this
        # unregister must not evict. The sweep is atomic in the cache —
        # a racing build of this generation either publishes before it
        # (and is dropped here) or after (and is dropped by the orphan
        # check in :meth:`representation`).
        generation = registration.generation
        self._cache.invalidate_matching(
            lambda key: key[0] == name and key[2] == generation
        )
        with self._lock:
            # Dead generations can never be queried again; drop their
            # build counters so a churning server does not leak them.
            for key in list(self._build_counts):
                if key[0] == name and key[2] == registration.generation:
                    del self._build_counts[key]
            self._tau_overrides.pop(name, None)
        return True

    def registration(self, name: str) -> Registration:
        """The :class:`Registration` behind ``name``; SchemaError if unknown."""
        with self._lock:
            try:
                return self._views[name]
            except KeyError:
                raise SchemaError(f"unknown view {name!r}") from None

    def views(self) -> Tuple[str, ...]:
        """Names of every currently registered view."""
        with self._lock:
            return tuple(self._views.keys())

    # ------------------------------------------------------------------
    # the tuning surface (what AdaptiveTuner drives)
    # ------------------------------------------------------------------
    def serving_tau(self, name: str) -> float:
        """The τ requests with ``tau=None`` are currently served at.

        The registration's τ unless :meth:`retune` overrode it.
        """
        registration = self.registration(name)
        with self._lock:
            return self._tau_overrides.get(name, registration.tau)

    def retune(self, name: str, tau: float) -> float:
        """Override the serving τ of one view; returns the previous one.

        Subsequent requests that do not pin their own τ resolve to the
        override, lazily building the new structure on first use (or
        eagerly via :meth:`prefetch`). Structures built at the old τ
        stay cached — explicit ``tau=`` requests can still hit them —
        until eviction or :meth:`demote` moves them out. Registration
        is untouched: re-registering resets the override.
        """
        tau = float(tau)
        if tau <= 0:
            raise ParameterError(f"tau must be positive, got {tau}")
        previous = self.serving_tau(name)
        with self._lock:
            if name not in self._views:
                raise SchemaError(f"unknown view {name!r}")
            if name in self._dynamic:
                raise ParameterError(
                    f"dynamic view {name!r} serves at its registration "
                    "tau; re-register to change it"
                )
            self._tau_overrides[name] = tau
        return previous

    def prefetch(self, name: str, tau: Optional[float] = None) -> None:
        """Build (or warm-load) the serving structure ahead of demand."""
        self.representation(name, tau)

    def resident(self, name: str, tau: Optional[float] = None) -> bool:
        """Whether ``(name, serving τ)`` is in the memory cache right now."""
        registration = self.registration(name)
        return self._key(registration, tau) in self._cache

    def demote(self, name: str) -> int:
        """Drop one view's resident structures, keeping their snapshots.

        The tuner's cold path: unlike :meth:`invalidate` the disk tier
        is preserved, so a later request (or :meth:`prefetch`) warm-loads
        instead of rebuilding. Returns the entries dropped.
        """
        return self._cache.invalidate_matching(
            lambda key: key[0] == name, drop_snapshot=False
        )

    # ------------------------------------------------------------------
    # dynamic serving (deltas as a first-class primitive)
    # ------------------------------------------------------------------
    def register_dynamic(
        self,
        view: Union[AdornedView, str],
        tau: Optional[float] = None,
        name: Optional[str] = None,
        rebuild_fraction: float = 0.1,
    ) -> str:
        """Register a view for serving under updates; returns its name.

        The view is served through a
        :class:`~repro.core.dynamic.DynamicRepresentation`: deltas
        applied via :meth:`apply_deltas` buffer into it, every effective
        delta freezes a new immutable serving *version* for new
        requests, and cursors already open drain the version they
        pinned (see :mod:`repro.engine.dynamic_serving`). With a
        ``snapshot_dir``, registration warm-starts from the dynamic
        snapshot tier: the stored **per-relation** origin fingerprints
        are compared against this database, so churn in one relation
        refuses only the views that reference it, and the delta event
        log replays whatever was applied after the last snapshot.

        The view must be a natural join (deltas address base relations
        by name, which normalization would rewrite), and it serves at
        exactly the registration τ — per-request ``tau=`` pins and
        :meth:`retune` are rejected for dynamic views.
        """
        if isinstance(view, str):
            view = parse_view(view)
        if not view.is_natural_join():
            raise ParameterError(
                "dynamic serving requires a natural-join view: deltas "
                "address base relations by name, which normalization "
                "rewrites"
            )
        name = self.register(view, tau=tau, name=name)
        try:
            registration = self.registration(name)
            fingerprints = relation_fingerprints(registration.database)
            referenced = sorted(
                {atom.relation for atom in registration.natural_view.atoms}
            )
            origin = {
                relation: fingerprints[relation] for relation in referenced
            }
            dynamic, version, warm = self._dynamic_source(
                registration, rebuild_fraction, origin
            )
            with self._lock:
                self._generation += 1
                generation = self._generation
            state = DynamicViewState(
                name=name,
                view=registration.natural_view,
                tau=registration.tau,
                dynamic=dynamic,
                version=version,
                generation=generation,
                label=self._snapshot_label(registration, registration.tau),
                origin_relations=origin,
                rebuild_fraction=rebuild_fraction,
            )
            with self._lock:
                self._dynamic[name] = state
            _, current_generation, serving = state.current()
            self._cache.get_or_build(
                (name, state.tau, current_generation), lambda: serving, durable=False
            )
            store = self._dynamic_store
            if (
                not warm
                and store is not None
                and self._writes_dynamic_snapshots
            ):
                state.save_to(store)
                store.truncate_log(state.label)
            self._set_dynamic_gauges(state)
            return name
        except Exception:
            self.unregister(name)
            raise

    def _dynamic_source(
        self,
        registration: Registration,
        rebuild_fraction: float,
        origin: Mapping[str, str],
    ) -> Tuple[DynamicRepresentation, int, bool]:
        """(representation, version, warm?) for one dynamic registration.

        Warm start is per relation: the stored meta's fingerprints are
        compared against the current database relation by relation, and
        only a view whose *referenced* relations all match loads from
        disk (then replays the delta log's suffix). A matching meta
        whose snapshot is missing or unreadable keeps its delta history
        through :meth:`_replay_from_base`. Anything else — missing
        meta, changed relation — falls through to :meth:`_build_dynamic`,
        which replicas override to refuse.
        """
        store = self._dynamic_store
        if store is not None:
            label = self._snapshot_label(registration, registration.tau)
            meta = store.load_meta(label)
            if meta is not None:
                stored = meta["relations"]
                changed = sorted(
                    relation
                    for relation in origin
                    if stored.get(relation) != origin[relation]
                )
                if not changed:
                    try:
                        dynamic = store.load(label)
                    except SnapshotError as error:
                        return self._replay_from_base(
                            registration, rebuild_fraction, label, meta, error
                        )
                    version = int(meta["version"])
                    for record in store.read_log(label):
                        if record.version <= version:
                            continue
                        dynamic.apply_deltas(
                            record.relation,
                            record.inserts,
                            record.deletes,
                        )
                        version = record.version
                    return dynamic, version, True
        return self._build_dynamic(registration, rebuild_fraction), 0, False

    def _replay_from_base(
        self,
        registration: Registration,
        rebuild_fraction: float,
        label: str,
        meta: Mapping,
        error: SnapshotError,
    ) -> Tuple[DynamicRepresentation, int, bool]:
        """Recover a dynamic view whose meta is valid but snapshot is not.

        The referenced base relations match the meta's fingerprints, and
        cold registration starts the delta log at version 1, so building
        from the base data and replaying the whole log reaches the same
        serving version without losing an applied delta. The rebuilt
        snapshot is written back so the next restart is warm again. A
        log that does not hold every version since registration cannot
        be replayed; that raises instead of cold-starting, which would
        silently drop the applied deltas from durable state.
        """
        store = self._dynamic_store
        records = store.read_log(label)
        versions = [record.version for record in records]
        if versions != list(range(1, len(records) + 1)) or len(
            records
        ) < int(meta["version"]):
            raise SnapshotError(
                f"dynamic snapshot {store.snapshot_path(label)} is "
                f"unusable ({error}) and the delta log "
                f"{store.log_path(label)} does not hold every version "
                f"since registration; delete {store.meta_path(label)} "
                "to cold-start from the base data"
            ) from error
        dynamic = self._build_dynamic(registration, rebuild_fraction)
        for record in records:
            dynamic.apply_deltas(
                record.relation, record.inserts, record.deletes
            )
        if self._writes_dynamic_snapshots:
            store.save(label, dynamic, len(records), meta["relations"])
        return dynamic, len(records), True

    def _build_dynamic(
        self, registration: Registration, rebuild_fraction: float
    ) -> DynamicRepresentation:
        """Build a dynamic representation from scratch (the cold path)."""
        dynamic = DynamicRepresentation(
            registration.natural_view,
            registration.database,
            tau=registration.tau,
            rebuild_fraction=rebuild_fraction,
            weights=(
                dict(registration.weights)
                if registration.weights is not None
                else None
            ),
        )
        with self._lock:
            self._total_builds += 1
        if self._telemetry is not None:
            self._telemetry.histogram(
                "layout_compile_seconds",
                buckets=LATENCY_BUCKETS,
                view=registration.name,
            ).observe(dynamic.layout_compile_seconds)
        return dynamic

    def apply_deltas(
        self,
        relation: str,
        inserts: Iterable[Sequence] = (),
        deletes: Iterable[Sequence] = (),
        views: Optional[Sequence[str]] = None,
    ) -> Dict[str, int]:
        """Apply one base-relation delta to the dynamic views it feeds.

        Routes through every dynamic view referencing ``relation`` (or
        exactly the named ``views``); returns ``{view: effective
        changes}``. An *effective* change survives buffer annihilation —
        inserting a present row or deleting an absent one counts zero,
        and a view whose count is zero keeps its serving version, cache
        entry and event log untouched (the empty-delta no-op contract).
        Effective deltas create a fresh serving version: new requests
        see the post-delta view immediately, open cursors drain the
        version they pinned, and the amortized rebuild boundary
        (``rebuild_fraction``) rewrites the dynamic snapshot.

        Raises :class:`~repro.exceptions.ParameterError` when a named
        view is not dynamically registered, or when no dynamic view
        references ``relation`` — a silently dropped delta would read
        as applied.
        """
        inserts = [tuple(row) for row in inserts]
        deletes = [tuple(row) for row in deletes]
        if self._dynamic_store is not None and self._writes_dynamic_snapshots:
            # Fail before anything applies: a row the event log cannot
            # encode would otherwise tear serving state (applied) from
            # durable state (never logged).
            try:
                json.dumps([inserts, deletes])
            except (TypeError, ValueError) as error:
                raise SnapshotError(
                    "delta rows must be JSON-representable to be "
                    f"durable: {error}"
                ) from error
        with self._lock:
            dynamic = dict(self._dynamic)
        if views is not None:
            missing = [name for name in views if name not in dynamic]
            if missing:
                raise ParameterError(
                    f"view(s) {missing!r} are not registered for dynamic "
                    "serving — register_dynamic first"
                )
            targets = [dynamic[name] for name in views]
        else:
            targets = [
                state
                for state in dynamic.values()
                if relation in state.relations
            ]
            if not targets:
                raise ParameterError(
                    f"no dynamic view references relation {relation!r} — "
                    "register_dynamic a view over it first"
                )
        return {
            state.name: self._ingest_delta(state, relation, inserts, deletes)
            for state in targets
        }

    def _ingest_delta(
        self,
        state: DynamicViewState,
        relation: str,
        inserts: Sequence[Tuple],
        deletes: Sequence[Tuple],
        forced_version: Optional[int] = None,
    ) -> int:
        """Apply one delta to one view's state and publish the version."""

        def next_generation() -> int:
            with self._lock:
                self._generation += 1
                return self._generation

        outcome = state.apply_delta(
            relation, inserts, deletes, next_generation, forced_version
        )
        if outcome.record is None:
            return outcome.applied
        serving = outcome.serving
        self._cache.get_or_build(
            (state.name, state.tau, outcome.generation), lambda: serving, durable=False
        )
        for generation in outcome.retired_generations:
            self._cache.invalidate_matching(
                lambda key, generation=generation: (
                    key[0] == state.name and key[2] == generation
                ),
                drop_snapshot=False,
            )
        store = self._dynamic_store
        durable = (
            forced_version is None
            and store is not None
            and self._writes_dynamic_snapshots
        )
        if durable:
            store.append_log(state.label, outcome.record)
        if outcome.rebuilt:
            with self._lock:
                self._total_builds += 1
            if durable:
                state.save_to(store)
            if self._telemetry is not None:
                self._telemetry.counter(
                    "rebuild_triggered_total", view=state.name
                ).inc()
        if self._telemetry is not None and outcome.applied:
            self._telemetry.counter(
                "deltas_applied_total", view=state.name, relation=relation
            ).inc(outcome.applied)
        self._set_dynamic_gauges(state)
        return outcome.applied

    def apply_delta_records(
        self, records: Iterable[DeltaRecord]
    ) -> Dict[str, int]:
        """Ingest shipped delta records, strictly in version order.

        The replica half of :func:`~repro.engine.dynamic_serving.ship_deltas`:
        already-applied versions are skipped idempotently, a version gap
        raises :class:`~repro.exceptions.SnapshotError` (re-hydrate
        instead), and nothing here writes snapshots or log entries.
        Returns effective change counts per view.
        """
        applied: Dict[str, int] = {}
        ordered = sorted(records, key=lambda r: (r.view, r.version))
        for record in ordered:
            state = self._dynamic_state(record.view)
            count = self._ingest_delta(
                state,
                record.relation,
                record.inserts,
                record.deletes,
                forced_version=record.version,
            )
            applied[record.view] = applied.get(record.view, 0) + count
        return applied

    def _dynamic_state(self, name: str) -> DynamicViewState:
        """The dynamic serving state behind ``name`` (typed if absent)."""
        with self._lock:
            state = self._dynamic.get(name)
        if state is None:
            raise ParameterError(
                f"view {name!r} is not registered for dynamic serving — "
                "register_dynamic first"
            )
        return state

    def dynamic_views(self) -> Tuple[str, ...]:
        """Names of every view registered for dynamic serving."""
        with self._lock:
            return tuple(self._dynamic.keys())

    def delta_version(self, name: str) -> int:
        """The serving version of one dynamic view (0 = as registered)."""
        return self._dynamic_state(name).current_version()

    def delta_records_since(
        self, name: str, version: int
    ) -> Tuple[DeltaRecord, ...]:
        """This process's delta records of ``name`` newer than ``version``."""
        return self._dynamic_state(name).records_since(version)

    def save_dynamic_snapshot(self, name: str) -> int:
        """Write ``name``'s dynamic snapshot and meta now; returns version."""
        state = self._dynamic_state(name)
        if self._dynamic_store is None or not self._writes_dynamic_snapshots:
            raise ParameterError(
                "dynamic snapshots need a snapshot_dir on a primary "
                "server (replicas never write them)"
            )
        return state.save_to(self._dynamic_store)

    def rehydrate_dynamic(self, names: Optional[Iterable[str]] = None) -> int:
        """Reload dynamic views from snapshot + delta log; returns count.

        The churn-storm fallback of delta shipping: instead of replaying
        a long record stream, swap in a representation re-hydrated from
        the (freshly written) snapshot tier. Pinned versions keep
        draining; new requests serve the re-hydrated state.
        """
        targets = tuple(names) if names is not None else self.dynamic_views()
        for name in targets:
            state = self._dynamic_state(name)
            registration = self.registration(name)
            dynamic, version, warm = self._dynamic_source(
                registration, state.rebuild_fraction, state.origin_relations
            )
            with self._lock:
                self._generation += 1
                generation = self._generation
            for retired in state.replace(dynamic, version, generation):
                self._cache.invalidate_matching(
                    lambda key, retired=retired: (
                        key[0] == name and key[2] == retired
                    ),
                    drop_snapshot=False,
                )
            _, current_generation, serving = state.current()
            self._cache.get_or_build(
                (name, state.tau, current_generation), lambda: serving, durable=False
            )
            self._set_dynamic_gauges(state)
        return len(targets)

    def _open_dynamic(
        self, state: DynamicViewState, request: AccessRequest, started: float
    ) -> AnswerCursor:
        """Open a cursor pinned to the view's current serving version."""
        if request.tau is not None and float(request.tau) != state.tau:
            raise ParameterError(
                f"dynamic view {state.name!r} serves at its registration "
                f"tau={state.tau:g}; per-request tau pins are not "
                "supported under deltas"
            )
        version, generation, serving = state.pin()
        try:
            representation = self._cache.get_or_build(
                (state.name, state.tau, generation), lambda: serving, durable=False
            )
            with self._lock:
                self._requests_served += 1
            cursor = open_cursor(representation, request)
        except Exception:
            self._release_dynamic(state, version)
            raise
        cursor.add_close_hook(
            lambda: self._release_dynamic(state, version)
        )
        if self._telemetry is not None:
            path = (
                "columnar"
                if not request.measure and serving.kernel_ready
                else "fallback"
            )
            self._kernel_counter(request.view, path).inc()
            self._instrument_cursor(cursor, request, started, mode="open")
            self._set_dynamic_gauges(state)
        return cursor

    def _release_dynamic(self, state: DynamicViewState, version: int) -> None:
        """Drop one cursor pin; retire the version's entry on drain."""
        retired = state.release(version)
        if retired is not None:
            self._cache.invalidate_matching(
                lambda key: key[0] == state.name and key[2] == retired,
                drop_snapshot=False,
            )
        self._set_dynamic_gauges(state)

    def _set_dynamic_gauges(self, state: DynamicViewState) -> None:
        """Refresh the cursor-pin and live-version gauges of one view."""
        if self._telemetry is None:
            return
        key = (state.name, "dynamic")
        handles = self._metric_handles.get(key)
        if handles is None:
            handles = self._metric_handles[key] = (
                self._telemetry.gauge(
                    "dynamic_cursor_pins", view=state.name
                ),
                self._telemetry.gauge(
                    "dynamic_live_versions", view=state.name
                ),
            )
        pins, versions = handles
        pins.set(state.pin_count())
        versions.set(len(state.live_versions()))

    # ------------------------------------------------------------------
    # cached build
    # ------------------------------------------------------------------
    def _key(self, registration: Registration, tau: Optional[float]) -> CacheKey:
        # The registration's exact τ must round-trip through the key: _build
        # reuses the optimizer's cover only when the key τ matches it. The
        # generation keeps re-registrations under a reused name apart.
        # A tau-less request resolves through the retune override, so the
        # AdaptiveTuner's decisions take effect without re-registration.
        if tau is None:
            with self._lock:
                resolved = self._tau_overrides.get(
                    registration.name, registration.tau
                )
        else:
            resolved = float(tau)
        return (registration.name, resolved, registration.generation)

    def _snapshot_label(
        self, registration: Registration, tau: float
    ) -> str:
        """The disk-tier label of one ``(registration, τ)`` build.

        Deliberately excludes the generation (which restarts from 1 in a
        fresh process — the whole point is surviving restarts) and
        instead pins what actually determines the built structure: the
        view's structural digest, τ, and the τ-selection policy/budget.
        The database itself is covered by the store's fingerprint.
        """
        digest = hashlib.sha256(
            repr(view_state(registration.natural_view)).encode("utf-8")
        ).hexdigest()[:12]
        return (
            f"{registration.name}|{digest}|tau={tau!r}"
            f"|{registration.policy}|{registration.budget!r}"
        )

    def representation(
        self, name: str, tau: Optional[float] = None
    ) -> CompressedRepresentation:
        """The cached structure for ``(name, τ)``, building it on a miss.

        At most one thread ever builds a given key: late arrivals wait on
        the builder's event and then read the freshly cached entry.

        A dynamic view resolves to its *current* serving version (no
        pin — use :meth:`open` for drain-safe enumeration).
        """
        with self._lock:
            state = self._dynamic.get(name)
        if state is not None:
            if tau is not None and float(tau) != state.tau:
                raise ParameterError(
                    f"dynamic view {name!r} serves at its registration "
                    f"tau={state.tau:g}; per-request tau pins are not "
                    "supported under deltas"
                )
            _, generation, serving = state.current()
            return self._cache.get_or_build(
                (name, state.tau, generation), lambda: serving, durable=False
            )
        registration = self.registration(name)
        key = self._key(registration, tau)

        def build() -> CompressedRepresentation:
            built = self._build(registration, key[1])
            with self._lock:
                self._total_builds += 1
                # Skip the per-key counter for a generation unregistered
                # mid-build, or the sweep in unregister() races back in.
                if self._views.get(name) is registration:
                    self._build_counts[key] = (
                        self._build_counts.get(key, 0) + 1
                    )
            return built

        label = (
            self._snapshot_label(registration, key[1])
            if self._cache.snapshot_store is not None
            else None
        )
        built = self._cache.get_or_build(key, build, snapshot_label=label)
        with self._lock:
            # Identity, not name: a concurrent unregister + re-register
            # under the same name is a different generation, and this
            # structure was built from the old one.
            registered = self._views.get(name) is registration
        if not registered:
            # An unregister raced the build: its invalidate ran before the
            # publish, so drop the orphan here (whichever of the two
            # cleanups runs last sees the entry). The caller still gets
            # the structure — its request predates the unregistration.
            self._cache.invalidate(key)
        return built

    def _build(
        self, registration: Registration, tau: float
    ) -> CompressedRepresentation:
        # The optimizer's cover is tied to the τ it was solved for; a
        # caller-supplied τ falls back to the default max-slack cover.
        weights = (
            registration.weights if tau == registration.tau else None
        )
        if self._builder is not None:
            built = self._builder.build(
                registration.natural_view,
                registration.database,
                tau=tau,
                weights=weights,
            )
        else:
            built = CompressedRepresentation(
                registration.natural_view,
                registration.database,
                tau=tau,
                weights=weights,
            )
        if self._telemetry is not None:
            seconds = getattr(built, "layout_compile_seconds", None)
            if seconds is not None:
                self._telemetry.histogram(
                    "layout_compile_seconds",
                    buckets=LATENCY_BUCKETS,
                    view=registration.name,
                ).observe(seconds)
        return built

    def build_count(self, name: str, tau: Optional[float] = None) -> int:
        """How many times ``(name, τ)`` was actually built (cache misses)."""
        registration = self.registration(name)
        key = self._key(registration, tau)
        with self._lock:
            return self._build_counts.get(key, 0)

    def total_builds(self) -> int:
        """Builds over the server's lifetime (monotonic — unregistering a
        view prunes its per-key counters but never this total)."""
        with self._lock:
            return self._total_builds

    def invalidate(self, name: str) -> int:
        """Drop all cached structures of one view; returns entries dropped.

        The key match and removal are one atomic cache operation
        (:meth:`~repro.engine.cache.RepresentationCache.invalidate_matching`),
        so builds or evictions racing this call cannot make the sweep
        iterate a stale key snapshot.
        """
        return self._cache.invalidate_matching(lambda key: key[0] == name)

    # ------------------------------------------------------------------
    # serving (the cursor primitive and its materializing wrappers)
    # ------------------------------------------------------------------
    def open(
        self,
        request: Union[AccessRequest, str],
        access: Optional[Sequence] = None,
        limit: Optional[int] = None,
        start_after: Optional[Sequence] = None,
        tau: Optional[float] = None,
        measure: bool = False,
    ) -> AnswerCursor:
        """Open a streaming cursor over one access request — the primitive.

        Accepts a ready :class:`~repro.engine.api.AccessRequest` or the
        ``open(name, access, ...)`` shorthand. Tuples stream lazily in
        lexicographic head order; ``limit=k`` enumerates O(k) tuples,
        ``start_after=token`` re-enters mid-traversal via the
        structure's one-delay-unit seek (see
        :meth:`~repro.core.structure.CompressedRepresentation.enumerate_from`),
        and ``measure=True`` threads a
        :class:`~repro.joins.generic_join.JoinCounter` so
        :meth:`~repro.engine.api.AnswerCursor.stats` reports logical
        delay. ``answer``/``answer_batch``/``serve_stream`` are thin
        materializing wrappers over this.
        """
        started = time.perf_counter()
        request = as_request(
            request,
            access,
            limit=limit,
            start_after=start_after,
            tau=tau,
            measure=measure,
        )
        with self._lock:
            state = self._dynamic.get(request.view)
        if state is not None:
            return self._open_dynamic(state, request, started)
        representation = self.representation(request.view, request.tau)
        with self._lock:
            self._requests_served += 1
        cursor = open_cursor(representation, request)
        if self._telemetry is not None:
            path = (
                "columnar"
                if not request.measure
                and getattr(representation, "kernel_ready", False)
                else "fallback"
            )
            self._kernel_counter(request.view, path).inc()
            self._instrument_cursor(cursor, request, started, mode="open")
        return cursor

    def _kernel_counter(self, view: str, path: str):
        """Resolved ``kernel_enumerations_total`` handle for (view, path)."""
        key = (view, f"kernel:{path}")
        handles = self._metric_handles.get(key)
        if handles is None:
            handles = self._metric_handles[key] = (
                self._telemetry.counter(
                    "kernel_enumerations_total", view=view, path=path
                ),
            )
        return handles[0]

    def _cursor_metrics(self, view: str, mode: str) -> Tuple:
        """Resolved (requests, answers, latency, gap) metric handles."""
        key = (view, mode)
        handles = self._metric_handles.get(key)
        if handles is None:
            telemetry = self._telemetry
            handles = self._metric_handles[key] = (
                telemetry.counter("requests_total", view=view, mode=mode),
                telemetry.counter("answers_total", view=view),
                telemetry.histogram(
                    "serve_seconds", buckets=LATENCY_BUCKETS, view=view
                ),
                telemetry.histogram(
                    "delay_step_gap", buckets=GAP_BUCKETS, view=view
                ),
            )
        return handles

    def _instrument_cursor(
        self,
        cursor: AnswerCursor,
        request: AccessRequest,
        started: float,
        mode: str,
    ) -> None:
        # Counts at open; latency/gap observations ride the close hook,
        # which fires exactly once on close or exhaustion — after the
        # cursor's stats are final.
        requests, answers, latency, gap = self._cursor_metrics(
            request.view, mode
        )
        requests.inc()

        def finalize() -> None:
            stats = cursor.stats()
            answers.inc(stats.outputs)
            latency.observe(time.perf_counter() - started)
            if request.measure:
                gap.observe(stats.step_max_gap)

        cursor.add_close_hook(finalize)

    def _instrument_scan(
        self,
        view: str,
        scan: SharedScan,
        scan_cursors: Sequence[AnswerCursor],
        requests: Sequence[AccessRequest],
        started: float,
    ) -> None:
        # Lane/state counts are known at construction; subtrie sharing
        # and pruning accrue while the group drains, so they are read
        # once, when the group's last cursor closes.
        telemetry = self._telemetry
        initial = scan.stats()
        telemetry.counter("shared_scan_lanes_total", view=view).inc(
            initial.requests
        )
        telemetry.counter("shared_scan_states_total", view=view).inc(
            initial.states
        )
        remaining = [len(scan_cursors)]
        scan_lock = named_lock("server.shared_scan")

        def finalize_scan() -> None:
            with scan_lock:
                remaining[0] -= 1
                if remaining[0]:
                    return
            final = scan.stats()
            telemetry.counter(
                "shared_scan_subtrie_hits_total", view=view
            ).inc(final.subtrie_hits)
            telemetry.counter(
                "shared_scan_subtrie_misses_total", view=view
            ).inc(final.subtrie_misses)
            telemetry.counter(
                "shared_scan_pruned_total", view=view
            ).inc(final.pruned_states)

        for request, cursor in zip(requests, scan_cursors):
            self._instrument_cursor(cursor, request, started, mode="batch")
            cursor.add_close_hook(finalize_scan)

    def open_batch(
        self, requests: Iterable[Union[AccessRequest, str]]
    ) -> List[AnswerCursor]:
        """Open cursors for a whole request batch — the batch primitive.

        Requests are grouped by ``(view, τ)`` and each group rides ONE
        shared scan (:class:`~repro.engine.shared_scan.SharedScan`): the
        group's distinct ``(access, resume point)`` pairs descend the
        tree together in a single merged traversal, per-atom trie
        descents are shared across prefix-sharing accesses, and
        duplicate requests share a traversal lane outright. The returned
        cursors align with the submitted requests and behave exactly
        like :meth:`open`'s — lazy, limit/resume/measure-aware — except
        that pulling one may buffer tuples for its group peers (and a
        group shares fate: an error raised mid-scan surfaces on
        whichever cursor is being pulled). Consume a batch's cursors
        from a single thread, as with any generator.
        """
        started = time.perf_counter()
        batch = [as_request(request) for request in requests]
        cursors: List[Optional[AnswerCursor]] = [None] * len(batch)
        groups: Dict[Tuple[str, Optional[float]], List[int]] = {}
        for index, request in enumerate(batch):
            groups.setdefault((request.view, request.tau), []).append(index)
        for (view, tau), indexes in groups.items():
            with self._lock:
                state = self._dynamic.get(view)
            if state is not None:
                if tau is not None and float(tau) != state.tau:
                    raise ParameterError(
                        f"dynamic view {view!r} serves at its "
                        f"registration tau={state.tau:g}; per-request "
                        "tau pins are not supported under deltas"
                    )
                version, generation, serving = state.pin()
                for _ in range(len(indexes) - 1):
                    state.repin(version)
                representation = self._cache.get_or_build(
                    (view, state.tau, generation), lambda: serving, durable=False
                )
            else:
                representation = self.representation(view, tau)
            group = [batch[index] for index in indexes]
            try:
                scan = SharedScan(representation, group)
                scan_cursors = scan.cursors()
            except Exception:
                if state is not None:
                    for _ in indexes:
                        self._release_dynamic(state, version)
                raise
            for index, cursor in zip(indexes, scan_cursors):
                cursors[index] = cursor
            if state is not None:
                # One pin per group cursor; each close hook drops its
                # own, and the last release retires a drained version.
                for cursor in scan_cursors:
                    cursor.add_close_hook(
                        lambda state=state, version=version: (
                            self._release_dynamic(state, version)
                        )
                    )
            if self._telemetry is not None:
                self._kernel_counter(view, scan.kernel_path).inc(
                    len(group)
                )
                self._instrument_scan(
                    view, scan, scan_cursors, group, started
                )
        with self._lock:
            self._requests_served += len(batch)
        return cursors

    def answer(self, name: str, access: Sequence) -> List[Tuple]:
        """Answer one access request fully (materializing wrapper)."""
        with self.open(name, access) as cursor:
            return cursor.fetchall()

    def answer_batch(
        self,
        name: str,
        accesses: Iterable[Sequence],
        tau: Optional[float] = None,
        measure: bool = True,
    ) -> BatchResult:
        """Serve a batch of access requests with one shared traversal.

        A thin materializing wrapper over :meth:`open_batch`: the batch
        is deduplicated and its distinct accesses (sorted — the tree is
        laid out lexicographically, so nearby bound values touch nearby
        dictionary entries) ride one shared scan; every duplicate
        request shares the answer list computed by its representative.
        With ``measure=True`` per-access delay accounting matches
        :func:`~repro.measure.delay.measure_enumeration` — closing gap
        included, because the cursors are drained to exhaustion here
        (see :class:`BatchResult`). The structure is resolved once per
        batch, so cache accounting is unchanged.
        """
        batch = tuple(tuple(access) for access in accesses)
        unique = sorted(set(batch))
        cursors = self.open_batch(
            AccessRequest(view=name, access=access, tau=tau, measure=measure)
            for access in unique
        )
        answers_by_access: Dict[Tuple, List[Tuple]] = {}
        stats: Dict[Tuple, DelayStats] = {}
        for access, cursor in zip(unique, cursors):
            answers_by_access[access] = cursor.fetchall()
            if measure:
                stats[access] = cursor.stats()
        with self._lock:
            # open_batch counted the distinct requests; the duplicates
            # it deduplicated away were still served.
            self._requests_served += len(batch) - len(unique)
        return BatchResult(
            accesses=batch,
            answers=tuple(answers_by_access[access] for access in batch),
            request_stats=stats,
            unique_count=len(unique),
        )

    def serve_stream(
        self,
        name: str,
        accesses: Iterable[Sequence],
        batch_size: int = 32,
        tau: Optional[float] = None,
        measure: bool = True,
    ) -> ServingReport:
        """Drain a request stream in batches and aggregate the measurements."""
        return drain_stream(
            self, name, accesses, batch_size=batch_size, tau=tau, measure=measure
        )

    # ------------------------------------------------------------------
    # life cycle and introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release owned resources: the build pool and owned telemetry.

        Serving keeps working afterwards (builds fall back in-process);
        shared builders and shared telemetry are the owner's to close.
        An owned telemetry instance (``telemetry=True``) gets its final
        flush here, so its persisted history covers the whole session.
        """
        if self._owns_builder and self._builder is not None:
            self._builder.close()
        if self._owns_telemetry and self._telemetry is not None:
            self._telemetry.close()

    @property
    def builder(self) -> Optional[ParallelBuilder]:
        """The process-parallel build pool, if any."""
        return self._builder

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The telemetry instance instrumenting this server, if any."""
        return self._telemetry

    @property
    def snapshot_store(self) -> Optional[SnapshotStore]:
        """The warm-start snapshot tier, if a ``snapshot_dir`` was given."""
        return self._cache.snapshot_store

    @property
    def cache(self) -> RepresentationCache:
        """The representation cache behind this server."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """A point-in-time copy of the cache's lifetime counters."""
        return self._cache.stats_snapshot()

    @property
    def requests_served(self) -> int:
        """Requests served over this server's lifetime (cursor opens)."""
        with self._lock:
            return self._requests_served
