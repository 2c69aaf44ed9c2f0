"""The GMR manager (Sec. 4): keeping materialized results consistent.

All GMR extensions are maintained by this manager.  It owns the Reverse
Reference Relation, the SchemaDepFct dependency index, the CA table of
compensating actions, and implements the paper's maintenance algorithms:

* ``invalidate(o, fcts)`` — the lazy / immediate rematerialization
  algorithms of Sec. 4.1 (triggered by the rewritten update operations);
* ``new_object(o, t)`` / ``forget_object(o)`` — extension adaptation on
  argument-object creation/deletion (Sec. 4.2), with the paper's lazy
  *blind reference* cleanup;
* ``compensate(...)`` — compensating actions (Sec. 5.4), applied before
  the update executes;
* restriction-predicate maintenance (Sec. 6.1) — predicates are
  materialized like Boolean functions under a pseudo function id;
* retrieval — forward lookups (including the mapping of materialized
  function invocations onto GMR probes) and validity-completing backward
  range queries.
"""

from __future__ import annotations

import threading
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, fields as dataclass_fields
from itertools import product
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.concurrency.sharding import ShardCommitConflict, shard_of
from repro.core.batch import (
    CreateEvent,
    FlushReport,
    ForgetEvent,
    InvalidationEvent,
    InvalidationQueue,
    UpdateBatch,
)
from repro.core.breaker import CircuitBreaker
from repro.core.compensation import CompensatingAction, CompensationTable
from repro.core.delta import AggregateSpec, DeltaEngine, DeltaSpec
from repro.core.dependencies import DependencyIndex
from repro.core.function_registry import FunctionInfo, function_id
from repro.core.gmr import GMR
from repro.core.guard import ExecutionGuard, FaultPolicy
from repro.core.restricted import RestrictionSpec, validate_atomic_restrictions
from repro.core.rrr import ReverseReferenceRelation
from repro.core.scheduler import RevalidationScheduler
from repro.core.strategies import Strategy
from repro.errors import (
    CompensationError,
    FunctionExecutionError,
    FunctionQuarantinedError,
    FunctionTimeoutError,
    GMRDefinitionError,
    SchemaError,
)
from repro.gom.oid import Oid
from repro.gom.types import is_atomic_type
from repro.observe.explain import (
    FORGET_KEY,
    ExplainReport,
    WaveExplain,
    build_explain,
    new_tally,
)
from repro.observe.metrics import (
    PROBE_FANOUT_BUCKETS,
    QUEUE_DEPTH_BUCKETS,
    REMAT_LATENCY_BUCKETS,
    WAVE_WIDTH_BUCKETS,
    install_stats_views,
)
from repro.predicates.ast import all_variables
from repro.storage.gmr_store import in_range

if TYPE_CHECKING:  # pragma: no cover
    from repro.gom.database import ObjectBase


FunctionSpec = "str | tuple[str, str] | FunctionInfo"


@dataclass
class ManagerStats:
    """Operational counters of the GMR manager.

    Useful for tests, benchmarks and production observability: the
    paper's cost arguments (e.g. "12 invalidations per scale", "lazy
    defers recomputation") become directly measurable.
    """

    forward_hits: int = 0
    forward_computes: int = 0
    invalidate_calls: int = 0
    entries_invalidated: int = 0
    rematerializations: int = 0
    compensations: int = 0
    predicate_evaluations: int = 0
    rows_created: int = 0
    rows_removed: int = 0
    blind_rows_removed: int = 0
    #: Update notifications absorbed by an open batch instead of being
    #: processed eagerly (the batching pipeline's input volume).
    batched_invalidations: int = 0
    #: RRR probes avoided by batching: notifications that coalesced into
    #: an already pending event (or folded into a forget) and therefore
    #: never performed their own probe.
    rrr_probes_saved: int = 0
    #: Batch flushes performed (including query-forced mid-batch ones).
    batch_flushes: int = 0
    #: Entries rematerialized by the revalidation scheduler's drain.
    scheduler_revalidations: int = 0
    #: Rematerializations that failed under the execution guard (raised
    #: or overran the call budget) and demoted entries to ERROR.
    guard_failures: int = 0
    #: The subset of ``guard_failures`` that were budget overruns.
    guard_timeouts: int = 0
    #: Bounded retries handed to the scheduler's backoff queue.
    retries_scheduled: int = 0
    #: Entries abandoned after ``FaultPolicy.max_attempts`` failures.
    retries_exhausted: int = 0
    #: Entries healed by a scheduled retry after at least one failure.
    retry_successes: int = 0
    #: Circuit-breaker openings (threshold reached or probe failed).
    breaker_opens: int = 0
    #: Breakers closed by a successful half-open probe.
    breaker_closes: int = 0
    #: Half-open probes admitted by an open breaker past its cooldown.
    breaker_half_opens: int = 0
    #: Forward queries answered by direct evaluation because the
    #: function was quarantined (Sec. 3.2 pass-through).
    degraded_forward_calls: int = 0
    #: GMR entries patched in place by the delta maintenance engine
    #: (``maintenance="delta"``): handler results and O(delta)
    #: aggregate updates that replaced an invalidate-then-recompute.
    delta_patches: int = 0
    #: Delete/Rederive forward re-derivations: aggregate patches whose
    #: support ran out and rebuilt the result from remaining members.
    delta_rederivations: int = 0
    #: Delta patches discarded (moved write epoch, exhausted support,
    #: raising handler, ERROR entry) — the entry fell back down the
    #: maintenance lattice to the ordinary invalidation wave.
    delta_fallbacks: int = 0

    def snapshot(self) -> "ManagerStats":
        cls = type(self)
        return cls(
            **{
                spec.name: getattr(self, spec.name)
                for spec in dataclass_fields(self)
            }
        )

    def delta(self, earlier: "ManagerStats") -> "ManagerStats":
        # Field-introspective on purpose: a counter added after
        # ``earlier`` was created (schema evolution across checkpoints,
        # subclassed stats) must not silently drop out of the delta —
        # missing fields on ``earlier`` count from zero.
        cls = type(self)
        return cls(
            **{
                spec.name: getattr(self, spec.name)
                - getattr(earlier, spec.name, 0)
                for spec in dataclass_fields(self)
            }
        )


class _MultiLock:
    """Hold a fixed tuple of locks, acquired ascending, released
    descending — the all-shards context of engine-wide sweeps.  The
    ascending order is the same everywhere (here and in
    ``ObjectBase._freeze``), which keeps multi-shard acquisition
    deadlock-free."""

    __slots__ = ("_locks",)

    def __init__(self, locks: tuple) -> None:
        self._locks = locks

    def __enter__(self) -> "_MultiLock":
        for lock in self._locks:
            lock.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for lock in reversed(self._locks):
            lock.release()


class GMRManager:
    """Maintains every GMR extension of one object base."""

    def __init__(self, db: "ObjectBase") -> None:
        self._db = db
        self._gmrs: dict[str, GMR] = {}
        self._gmr_of_fid: dict[str, GMR] = {}
        self._op_dispatch: dict[tuple[str, str], str] = {}
        self._deps = DependencyIndex()
        self._rrr = ReverseReferenceRelation(db.page_store, db.buffer)
        self._ca = CompensationTable()
        #: The generalized incremental maintenance engine (delta
        #: patches + self-maintainable aggregates); its registry is
        #: populated by :meth:`register_delta` and — via the
        #: deprecation shim — :meth:`register_compensation`.  Which
        #: engine actually runs on an update is decided per call by
        #: ``config.maintenance`` (see :meth:`compensate`).
        self._delta = DeltaEngine(self)
        self.stats = ManagerStats()
        #: Injectable time source: guard budgets, backoff deadlines and
        #: breaker cooldowns all read this one clock (tests swap it).
        self.clock: Callable[[], float] = time.monotonic
        self.guard = ExecutionGuard(self.fault_policy, clock=self._now)
        self.breaker = CircuitBreaker(self.fault_policy, clock=self._now)
        self.scheduler = RevalidationScheduler(self)
        #: One scheduler per shard (sharded engines); ``schedulers[0]``
        #: is always :attr:`scheduler`, so unsharded bases see exactly
        #: one object and no new allocations.  All shards share *one*
        #: ``query_frequency`` dict — query heat is a property of the
        #: function, not of the shard that owns an argument tuple.
        self._shards = db.config.shards
        if self._shards > 1:
            extra = []
            for _ in range(self._shards - 1):
                sibling = RevalidationScheduler(self)
                sibling.query_frequency = self.scheduler.query_frequency
                extra.append(sibling)
            self.schedulers: tuple[RevalidationScheduler, ...] = (
                self.scheduler,
                *extra,
            )
        else:
            self.schedulers = (self.scheduler,)
        #: Per-shard drain gates (the *same* objects as
        #: ``db._shard_locks``); ``None`` unsharded.
        self._shard_locks = db._shard_locks
        #: Leaf latch for RRR/ObjDepFct mutations.  Sharded drains run
        #: outside the global update lock, so the dict-of-sets behind
        #: the RRR needs its own structural serialization; unsharded
        #: this is a shared no-op context (the global lock or the
        #: single thread already serializes).
        self._rrr_latch: Any = (
            threading.Lock() if self._shards > 1 else nullcontext()
        )
        #: Per-thread marker set by a scheduler drain for its duration;
        #: gates the write-epoch conflict protocol in
        #: :meth:`_rematerialize_impl` (foreground remats hold the
        #: global update lock and skip it).
        self._drain_flag = threading.local()
        self._queue = InvalidationQueue()
        self._batch_depth = 0
        self._flushing = False

        # -- concurrency wiring (see repro.concurrency) ----------------
        #: True when the object base runs a revalidation worker pool
        #: (``config.workers > 0``) or a sharded engine (``shards >
        #: 1``); gates the multi-threaded code paths so ``workers=0,
        #: shards=1`` keeps today's sequence bit-for-bit.
        self._mt = db.config.workers > 0 or db.config.shards > 1
        #: The object base's update lock — the *same* object as
        #: ``db._update_lock`` (an RLock in MT mode, a shared
        #: ``nullcontext`` otherwise), so maintenance entered from a
        #: locked update path nests reentrantly.
        self._maint_lock = db._update_lock
        #: Striped per-entry lock table shared by every GMR store
        #: (attached in :meth:`materialize`); ``None`` single-threaded.
        self._entry_locks = None
        if self._mt:
            from repro.concurrency.locks import StripedRWLock

            self._entry_locks = StripedRWLock(64)

        # -- observability wiring (see repro.observe) ------------------
        observe = db.observe
        self.tracer = observe.tracer
        self.metrics = observe.metrics
        #: Fast-path gate: False (metrics disabled) skips all tallies,
        #: wave records and row notes — the pre-observability baseline.
        self._obs_on = observe.metrics.enabled
        #: Per-fid maintenance tallies feeding :meth:`explain`.  They are
        #: incremented by the same helpers as the registry counters, so
        #: the EXPLAIN totals equal the counters by construction.
        self.fid_tallies: dict[str, dict[str, int]] = {}
        #: The last invalidation wave processed (``None`` until one ran).
        self.last_wave: WaveExplain | None = None
        #: ``(fid, args) -> why`` — the last maintenance action per GMR
        #: entry, rendered by :meth:`explain`.
        self._row_notes: dict[tuple[str, tuple], str] = {}
        registry = observe.metrics
        self._m_probes = registry.counter("rrr.probes")
        self._m_probe_entries = registry.counter("rrr.probe_entries")
        self._m_probe_fanout = registry.histogram(
            "rrr.probe_fanout", PROBE_FANOUT_BUCKETS
        )
        self._m_waves = registry.counter("wave.count")
        self._m_wave_width = registry.histogram(
            "wave.width", WAVE_WIDTH_BUCKETS
        )
        self._m_remats = registry.counter("remat.count")
        self._m_remat_latency = registry.histogram(
            "remat.latency", REMAT_LATENCY_BUCKETS
        )
        self._m_compensations = registry.counter("compensation.count")
        self._m_delta_patches = registry.counter("maintenance.delta_patches")
        self._m_delta_fallbacks = registry.counter("maintenance.fallbacks")
        self._m_guard_failures = registry.counter("guard.failures")
        self._m_breaker_transitions = registry.counter("breaker.transitions")
        self._m_queue_depth = registry.gauge("scheduler.queue_depth")
        self._m_queue_depth_hist = registry.histogram(
            "scheduler.queue_depth_hist", QUEUE_DEPTH_BUCKETS
        )
        install_stats_views(registry, self.stats)
        if self._obs_on:
            self.guard.observer = self._on_guard_timing
        self.breaker.on_transition = self._on_breaker_transition

    def _now(self) -> float:
        return self.clock()

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------

    def _scheduler_for(self, args: tuple) -> RevalidationScheduler:
        """The scheduler owning ``args``' shard (Sec. 4.1 decoupling,
        partitioned): every schedule/retry of an entry lands on the
        queue its shard's worker slice drains."""
        schedulers = self.schedulers
        if len(schedulers) == 1:
            return self.scheduler
        return schedulers[shard_of(args, self._shards)]

    def scheduler_pending_for(self, fid: str) -> int:
        """Queued entries of ``fid`` summed across every shard."""
        return sum(s.pending_for(fid) for s in self.schedulers)

    def _all_shards(self) -> Any:
        """A context holding every shard lock (ascending); a shared
        no-op unsharded.  Engine-wide sweeps take it *inside* the
        maintenance lock so no shard drain runs while they rewrite
        cross-shard state."""
        locks = self._shard_locks
        if locks is None:
            return nullcontext()
        return _MultiLock(locks)

    def dump_scheduler_state(self) -> dict:
        """One portable queue snapshot covering every shard.

        Unsharded this is exactly ``scheduler.dump_state()`` (identical
        output, so checkpoints stay byte-compatible).  Sharded, the
        per-shard snapshots are merged into a single deterministic
        stream — entries sorted by (priority, seq, shard) and
        re-sequenced — so a checkpoint written at ``shards=N`` restores
        into any shard count (routing is a pure function of the args).
        """
        if len(self.schedulers) == 1:
            return self.scheduler.dump_state()
        heap: list[list] = []
        delayed: list[list] = []
        attempts: list[list] = []
        seq_high = 0
        for shard, scheduler in enumerate(self.schedulers):
            state = scheduler.dump_state()
            heap.extend([*entry, shard] for entry in state["heap"])
            delayed.extend([*entry, shard] for entry in state["delayed"])
            attempts.extend(state["attempts"])
            seq_high = max(seq_high, state["seq"])
        heap.sort(key=lambda e: (e[0], e[1], e[4]))
        delayed.sort(key=lambda e: (e[0], e[1], e[4]))
        heap = [
            [priority, index, fid, args]
            for index, (priority, _, fid, args, _) in enumerate(heap)
        ]
        delayed = [
            [remaining, index, fid, args]
            for index, (remaining, _, fid, args, _) in enumerate(delayed)
        ]
        attempts.sort(key=lambda e: (e[0], repr(e[1])))
        return {
            "heap": heap,
            "delayed": delayed,
            "attempts": attempts,
            "seq": max(seq_high, len(heap) + len(delayed)),
            "frequency": dict(self.scheduler.query_frequency),
        }

    def restore_scheduler_state(self, state: dict) -> None:
        """Restore a :meth:`dump_scheduler_state` snapshot, splitting
        the merged stream back onto the owning shards' schedulers."""
        if len(self.schedulers) == 1:
            self.scheduler.restore_state(state)
            return
        shards = self._shards
        parts: list[dict] = [
            {
                "heap": [],
                "delayed": [],
                "attempts": [],
                "seq": state.get("seq", 0),
                "frequency": dict(state.get("frequency", {})),
            }
            for _ in range(shards)
        ]
        for entry in state.get("heap", []):
            parts[shard_of(tuple(entry[3]), shards)]["heap"].append(entry)
        for entry in state.get("delayed", []):
            parts[shard_of(tuple(entry[3]), shards)]["delayed"].append(entry)
        for entry in state.get("attempts", []):
            parts[shard_of(tuple(entry[1]), shards)]["attempts"].append(entry)
        for scheduler, part in zip(self.schedulers, parts):
            scheduler.restore_state(part)
        # ``restore_state`` replaces each query_frequency dict; re-share
        # shard 0's so ``note_query`` heat stays visible to every shard.
        shared = self.scheduler.query_frequency
        for scheduler in self.schedulers[1:]:
            scheduler.query_frequency = shared

    # ------------------------------------------------------------------
    # Observability (tracing, metrics, EXPLAIN)
    # ------------------------------------------------------------------

    @property
    def fault_policy(self) -> FaultPolicy:
        """Fault-tolerance knobs; owned by ``db.config.fault_policy``
        (mutate the policy in place, or pass one to
        :class:`~repro.observe.config.MaterializationConfig`)."""
        return self._db.config.fault_policy

    def _tally(self, fid: str) -> dict[str, int]:
        tally = self.fid_tallies.get(fid)
        if tally is None:
            tally = self.fid_tallies[fid] = new_tally()
        return tally

    def _obs_probe(self, fid: str, fanout: int) -> None:
        """Account one RRR probe for ``fid`` that popped/marked
        ``fanout`` entries.  The single funnel for probe accounting:
        registry counters and the EXPLAIN tally move together here."""
        if not self._obs_on:
            return
        self._m_probes.inc()
        self._m_probe_entries.inc(fanout)
        self._m_probe_fanout.observe(fanout)
        tally = self._tally(fid)
        tally["probes"] += 1
        tally["probe_entries"] += fanout

    def _obs_remat(self, fid: str) -> None:
        """Account one rematerialization (attempted body execution)."""
        if not self._obs_on:
            return
        self._m_remats.inc()
        self._tally(fid)["rematerializations"] += 1

    def _note(self, fid: str, args: tuple, why: str) -> None:
        if self._obs_on:
            self._row_notes[(fid, args)] = why

    def _on_guard_timing(self, fid: str, elapsed: float, failed: bool) -> None:
        self._m_remat_latency.observe(elapsed)

    def _on_breaker_transition(self, fid: str, old: Any, new: Any) -> None:
        self._m_breaker_transitions.inc()
        if self.tracer.enabled:
            self.tracer.event(
                "breaker.transition", fid=fid, old=old.value, new=new.value
            )

    def explain(self, gmr: GMR | None = None) -> ExplainReport:
        """The EXPLAIN report: per-fid row validity with reasons, the
        last invalidation wave, per-strategy cost tallies.  ``gmr``
        narrows the report to one GMR (``gmr.explain()`` sugar)."""
        return build_explain(self, gmr)

    # ------------------------------------------------------------------
    # GMR creation
    # ------------------------------------------------------------------

    def materialize(
        self,
        functions: Sequence[Any],
        *,
        complete: bool = True,
        strategy: Strategy | None = None,
        restriction: RestrictionSpec | None = None,
        storage: str = "auto",
        name: str | None = None,
        populate: bool = True,
        capacity: int | None = None,
    ) -> GMR:
        """Create the GMR ``⟨⟨f1, ..., fm⟩⟩`` and (optionally) populate it.

        ``functions`` items are ``(type_name, op_name)`` pairs, ``"Type.op"``
        ids of already registered functions, or :class:`FunctionInfo`
        objects.  ``complete=False`` creates an incrementally set up GMR
        (a result cache, Sec. 3.2); ``capacity`` bounds such a cache with
        LRU replacement.  ``strategy=None`` uses the object base's
        configured default (``db.config.strategy``).
        """
        if strategy is None:
            strategy = self._db.config.strategy
        infos = [self._resolve_function(spec) for spec in functions]
        for info in infos:
            if info.fid in self._gmr_of_fid:
                raise GMRDefinitionError(
                    f"{info.fid} is already materialized in "
                    f"{self._gmr_of_fid[info.fid].name}"
                )
        gmr = GMR(
            infos,
            page_store=self._db.page_store,
            buffer=self._db.buffer,
            complete=complete,
            strategy=strategy,
            restriction=restriction,
            storage=storage,
            name=name,
            capacity=capacity,
        )
        if gmr.name in self._gmrs:
            raise GMRDefinitionError(f"a GMR named {gmr.name} already exists")
        validate_atomic_restrictions(gmr.arg_types, restriction)
        gmr._manager = self
        if self._entry_locks is not None:
            # Arm the per-entry lock layer (Sec. 4.1: lock the GMR
            # entry, not the objects); shared table across all GMRs.
            gmr.store.locks = self._entry_locks

        self._gmrs[gmr.name] = gmr
        for info in infos:
            self._gmr_of_fid[info.fid] = gmr
            self._op_dispatch[(info.type_name, info.op_name)] = info.fid
            self._deps.add_function(info)
        if gmr.restriction is not None and gmr.restriction.predicate is not None:
            self._gmr_of_fid[gmr.predicate_fid] = gmr
            self._deps.add_pairs(gmr.predicate_fid, self._predicate_pairs(gmr))
        elif gmr.restriction is not None:
            # Atomic-only restriction: still track the pseudo function so
            # forget_object can clean rows via predicate RRR entries.
            self._gmr_of_fid[gmr.predicate_fid] = gmr

        if complete and populate:
            self._populate(gmr)
        return gmr

    def _resolve_function(self, spec: Any) -> FunctionInfo:
        if isinstance(spec, FunctionInfo):
            return spec
        if isinstance(spec, tuple):
            type_name, op_name = spec
            return self._db.functions.register(type_name, op_name)
        if isinstance(spec, str):
            if "." in spec:
                type_name, op_name = spec.split(".", 1)
                return self._db.functions.register(type_name, op_name)
            raise GMRDefinitionError(
                f"function spec {spec!r} must be 'Type.op' or a (type, op) pair"
            )
        raise GMRDefinitionError(f"cannot interpret function spec {spec!r}")

    def _predicate_pairs(
        self, gmr: GMR
    ) -> frozenset[tuple[str, str]] | None:
        """RelAttr of the restriction predicate, typed from arg types."""
        spec = gmr.restriction
        assert spec is not None and spec.predicate is not None
        schema = self._db.schema
        pairs: set[tuple[str, str]] = set()
        names = list(spec.var_names)
        for variable in all_variables(spec.predicate):
            if variable.name not in names:
                return None  # unknown binding: be conservative
            current = gmr.arg_types[names.index(variable.name)]
            for attribute in variable.path:
                if is_atomic_type(current):
                    return None
                try:
                    declaring = schema.attribute_declaring_type(current, attribute)
                except SchemaError:
                    return None
                pairs.add((declaring, attribute))
                current = schema.attribute(current, attribute).type_name
        return frozenset(pairs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rrr(self) -> ReverseReferenceRelation:
        return self._rrr

    @property
    def compensations(self) -> CompensationTable:
        return self._ca

    @property
    def deltas(self):
        """The delta maintenance registry (``DeltaRegistry``)."""
        return self._delta.registry

    @property
    def maintenance(self) -> str:
        """The active maintenance mode (``config.maintenance``)."""
        return self._db.config.maintenance

    def gmrs(self) -> list[GMR]:
        return list(self._gmrs.values())

    def gmr(self, name: str) -> GMR:
        try:
            return self._gmrs[name]
        except KeyError:
            raise GMRDefinitionError(f"no GMR named {name}") from None

    def gmr_of(self, fid: str) -> GMR | None:
        return self._gmr_of_fid.get(fid)

    def is_materialized_op(self, decl_type: str, op_name: str) -> bool:
        return (decl_type, op_name) in self._op_dispatch

    def fid_of_op(self, decl_type: str, op_name: str) -> str | None:
        return self._op_dispatch.get((decl_type, op_name))

    def schema_dep_fct(self, decl_type: str, attr: str) -> frozenset[str]:
        return self._deps.schema_dep_fct(decl_type, attr)

    def relevant_attrs(self, fid: str) -> frozenset[tuple[str, str]]:
        return self._deps.relevant_attrs(fid)

    # ------------------------------------------------------------------
    # Population and (re-)materialization
    # ------------------------------------------------------------------

    def _domains(self, gmr: GMR, fixed: dict[int, Any] | None = None) -> list[list]:
        domains: list[list] = []
        for position, type_name in enumerate(gmr.arg_types):
            if fixed is not None and position in fixed:
                domains.append([fixed[position]])
            elif is_atomic_type(type_name):
                assert gmr.restriction is not None
                domains.append(gmr.restriction.atomic_values(position))
            else:
                domains.append(list(self._db.objects.extension(type_name)))
        return domains

    def _populate(self, gmr: GMR) -> None:
        for args in product(*self._domains(gmr)):
            self._admit(gmr, args)

    def _admit(self, gmr: GMR, args: tuple) -> bool:
        """Evaluate the restriction for ``args`` and materialize the row."""
        if gmr.restriction is not None:
            try:
                if not self._evaluate_predicate(gmr, args):
                    return False
            except (FunctionExecutionError, FunctionQuarantinedError):
                # Membership undecidable right now: do not admit; the
                # retry queue re-runs the predicate and admits later.
                return False
        self.stats.rows_created += 1
        gmr.ensure_row(args)
        for fid in gmr.fids:
            self._remat_or_degrade(gmr, fid, args)
        return True

    def _evaluate_predicate(self, gmr: GMR, args: tuple) -> bool:
        """Evaluate (and trace) the restriction predicate for ``args``.

        The accessed objects get RRR entries under the GMR's predicate
        pseudo-function so later updates re-trigger the evaluation
        (Sec. 6.1).  Predicates execute under the same guard/breaker
        regime as function bodies (keyed by the predicate pseudo-fid):
        a raising or stalling predicate raises
        :class:`FunctionExecutionError` after a bounded retry has been
        scheduled, a quarantined one raises
        :class:`FunctionQuarantinedError` without running.
        """
        spec = gmr.restriction
        assert spec is not None
        db = self._db
        policy = self.fault_policy
        if not policy.enabled:
            self.stats.predicate_evaluations += 1
            with db.materialization_scope():
                with db.trace() as tracer:
                    allowed = spec.allows(db, args)
            accessed = set(tracer.objects)
            accessed.update(arg for arg in args if isinstance(arg, Oid))
            for oid in accessed:
                self._rrr_insert(oid, gmr.predicate_fid, args)
            return allowed
        pfid = gmr.predicate_fid
        decision = self.breaker.acquire(pfid)
        if not decision.allowed:
            raise FunctionQuarantinedError(pfid)
        if decision.probe:
            self.stats.breaker_half_opens += 1
        self.stats.predicate_evaluations += 1
        with db.materialization_scope():
            with db.trace() as tracer:
                allowed, failure = self.guard.timed(
                    pfid, args, lambda: spec.allows(db, args)
                )
        if failure is not None:
            self.stats.guard_failures += 1
            if self._obs_on:
                self._m_guard_failures.inc()
                self._tally(pfid)["errors"] += 1
            if isinstance(failure, FunctionTimeoutError):
                self.stats.guard_timeouts += 1
            if self.breaker.record_failure(pfid):
                self.stats.breaker_opens += 1
            if self._scheduler_for(args).schedule_retry(gmr, pfid, args):
                self.stats.retries_scheduled += 1
            raise failure
        if self.breaker.record_success(pfid):
            self.stats.breaker_closes += 1
        accessed = set(tracer.objects)
        accessed.update(arg for arg in args if isinstance(arg, Oid))
        for oid in accessed:
            self._rrr_insert(oid, gmr.predicate_fid, args)
        return allowed

    def _rematerialize(self, gmr: GMR, fid: str, args: tuple) -> Any:
        """Recompute ``f(args)`` under a ``remat`` span when tracing."""
        tracer = self.tracer
        if not tracer.enabled:
            return self._rematerialize_impl(gmr, fid, args)
        with tracer.span("remat", fid=fid):
            return self._rematerialize_impl(gmr, fid, args)

    def _rematerialize_impl(self, gmr: GMR, fid: str, args: tuple) -> Any:
        """Recompute ``f(args)``, store it and refresh the RRR (Sec. 4.1).

        With the fault policy enabled the body runs under the execution
        guard: an exception or call-budget overrun demotes the entry to
        the ERROR state, charges the circuit breaker, schedules a
        bounded backed-off retry, and then raises
        :class:`FunctionExecutionError` — callers on maintenance paths
        catch it (see :meth:`_remat_or_degrade`), forward queries let it
        surface.  While the breaker is open (and not yet probe-eligible)
        the body is not run at all: :class:`FunctionQuarantinedError`.
        """
        info = gmr.function(fid)
        db = self._db
        policy = self.fault_policy
        # Write-epoch conflict protocol (sharded drains only): snapshot
        # the epoch before computing.  An odd epoch means an elementary
        # update is mutating the object graph *now*; any movement
        # between snapshot and commit means the computation may have
        # read half-applied state.  Either way the result is discarded,
        # the entry re-deferred onto its shard's queue, and
        # :class:`ShardCommitConflict` tells the drain loop to move on.
        # Foreground remats hold the global update lock (epoch stable
        # and even), so epoch0 stays -1 and the checks vanish.
        epoch0 = -1
        if self._shards > 1 and getattr(self._drain_flag, "active", 0):
            epoch0 = db._write_epoch
            if epoch0 & 1:
                self._defer_conflicted(gmr, fid, args)
                raise ShardCommitConflict(fid)
        if not policy.enabled:
            self.stats.rematerializations += 1
            self._obs_remat(fid)
            try:
                with db.trace() as tracer:
                    value = db.call_function(info, args)
            except Exception:
                if epoch0 >= 0 and db._write_epoch != epoch0:
                    # The body raced an update; the exception is an
                    # artifact of torn reads, not a real failure.
                    self._defer_conflicted(gmr, fid, args)
                    raise ShardCommitConflict(fid) from None
                # A failing function body must never leave a stale value
                # flagged valid (Def. 3.2): invalidate the entry and let
                # the error surface to the updater/querier.
                if gmr.lookup(args) is not None:
                    gmr.mark_invalid(args, fid)
                    self._note(fid, args, "invalidated (body raised, unguarded)")
                raise
        else:
            decision = self.breaker.acquire(fid)
            if not decision.allowed:
                raise FunctionQuarantinedError(fid)
            if decision.probe:
                self.stats.breaker_half_opens += 1
            self.stats.rematerializations += 1
            self._obs_remat(fid)
            with db.trace() as tracer:
                value, failure = self.guard.timed(
                    fid, args, lambda: db.call_function(info, args)
                )
            if failure is not None:
                if epoch0 >= 0 and db._write_epoch != epoch0:
                    # Racing-update artifact: no failure accounting, no
                    # breaker charge — just try again shortly.
                    self._defer_conflicted(gmr, fid, args)
                    raise ShardCommitConflict(fid)
                self._record_failure(gmr, fid, args, failure)
                raise failure
            if self.breaker.record_success(fid):
                self.stats.breaker_closes += 1
        if epoch0 >= 0 and db._write_epoch != epoch0:
            self._defer_conflicted(gmr, fid, args)
            raise ShardCommitConflict(fid)
        gmr.set_result(args, fid, value)
        self._note(fid, args, "rematerialized")
        accessed = set(tracer.objects)
        accessed.update(arg for arg in args if isinstance(arg, Oid))
        for oid in accessed:
            self._rrr_insert(oid, fid, args)
        return value

    def _defer_conflicted(self, gmr: GMR, fid: str, args: tuple) -> None:
        """Requeue an entry whose drain lost the write-epoch race."""
        if self.tracer.enabled:
            self.tracer.event("shard.conflict", fid=fid)
        self._scheduler_for(args).defer(gmr, fid, args)

    def _record_failure(
        self,
        gmr: GMR,
        fid: str,
        args: tuple,
        failure: FunctionExecutionError,
    ) -> None:
        """Bookkeeping for one guard failure: ERROR state, breaker,
        bounded retry.  Runs before the failure propagates, so the GMR
        is consistent (Def. 3.2 — no stale-valid row) no matter how the
        caller handles the exception."""
        self.stats.guard_failures += 1
        if self._obs_on:
            self._m_guard_failures.inc()
            self._tally(fid)["errors"] += 1
        if self.tracer.enabled:
            self.tracer.event(
                "guard.failure",
                fid=fid,
                timeout=isinstance(failure, FunctionTimeoutError),
            )
        if isinstance(failure, FunctionTimeoutError):
            self.stats.guard_timeouts += 1
        if gmr.lookup(args) is None:
            # Materializing a brand-new combination failed: create the
            # row anyway so the ERROR is observable and retries have a
            # target (all entries start invalid).
            self.stats.rows_created += 1
            gmr.ensure_row(args)
        gmr.mark_error(args, fid)
        self._note(
            fid,
            args,
            "error (call budget overrun)"
            if isinstance(failure, FunctionTimeoutError)
            else "error (body raised under guard)",
        )
        if self.breaker.record_failure(fid):
            self.stats.breaker_opens += 1
        if self._scheduler_for(args).schedule_retry(gmr, fid, args):
            self.stats.retries_scheduled += 1

    def _remat_or_degrade(self, gmr: GMR, fid: str, args: tuple) -> bool:
        """Rematerialize on a *maintenance* path; never let user-code
        failures unwind the caller's loop.

        Quarantined functions degrade to mark-and-schedule (the entry
        heals once the breaker closes); guard failures have already been
        recorded by :meth:`_rematerialize`.  Returns True on success.
        """
        policy = self.fault_policy
        if (
            policy.enabled
            and self.breaker.quarantined(fid)
            and not self.breaker.probe_eligible(fid)
        ):
            gmr.mark_invalid(args, fid)
            self._note(fid, args, "invalidated (function quarantined)")
            self._scheduler_for(args).schedule(gmr, fid, args)
            return False
        try:
            self._rematerialize(gmr, fid, args)
        except (FunctionExecutionError, FunctionQuarantinedError):
            return False
        except ShardCommitConflict:
            return False  # entry re-deferred; a later drain retries
        return True

    def _predicate_update_safe(self, gmr: GMR, args: tuple) -> bool:
        """Run :meth:`_predicate_update` on a maintenance path; a
        failing or quarantined predicate must not unwind the loop.
        Returns True when the update ran to completion."""
        try:
            self._predicate_update(gmr, args)
        except (FunctionExecutionError, FunctionQuarantinedError):
            return False
        return True

    def _degraded_value(self, gmr: GMR, fid: str, args: tuple) -> Any:
        """Answer a forward query by direct evaluation (Sec. 3.2).

        The pass-through read path of a quarantined function: no trace,
        no RRR refresh, no GMR write, no breaker bookkeeping — the
        stored (ERROR) entry is left for the probe/retry machinery.
        """
        info = gmr.function(fid)
        db = self._db
        try:
            with db.materialization_scope():
                return db.call_function(info, args)
        except Exception as exc:
            raise FunctionExecutionError(fid, args, cause=exc) from exc

    # -- RRR/ObjDepFct lockstep maintenance (Sec. 5.2) ---------------------------

    # Each helper runs under ``_rrr_latch`` — the leaf latch that keeps
    # the RRR's dict-of-sets (and the ObjDepFct markings kept in
    # lockstep with it) structurally sound when a sharded drain's
    # commit races a global-locked updater's probe.  Unsharded the
    # latch is a shared no-op context.

    def _rrr_insert(self, oid: Oid, fid: str, args: tuple) -> None:
        with self._rrr_latch:
            first = self._rrr.insert(oid, fid, args)
            if first and self._db.objects.exists(oid):
                self._db.objects.get(oid).obj_dep_fct.add(fid)

    def _rrr_pop_args(self, oid: Oid, fid: str) -> set[tuple]:
        with self._rrr_latch:
            popped = self._rrr.pop_args(oid, fid)
            if popped and self._db.objects.exists(oid):
                self._db.objects.get(oid).obj_dep_fct.discard(fid)
            return popped

    def _rrr_pop_args_grouped(
        self, oid: Oid, fids: Iterable[str]
    ) -> dict[str, set[tuple]]:
        """Grouped :meth:`_rrr_pop_args`: one latch acquisition and one
        bucket walk for a whole invalidation wave."""
        with self._rrr_latch:
            popped = self._rrr.pop_args_grouped(oid, fids)
            if self._db.objects.exists(oid):
                obj_dep = self._db.objects.get(oid).obj_dep_fct
                for fid, args_set in popped.items():
                    if args_set:
                        obj_dep.discard(fid)
            return popped

    def _rrr_remove(self, oid: Oid, fid: str, args: tuple) -> None:
        with self._rrr_latch:
            last = self._rrr.remove(oid, fid, args)
            if last and self._db.objects.exists(oid):
                self._db.objects.get(oid).obj_dep_fct.discard(fid)

    def _rrr_pop_object(self, oid: Oid) -> dict[str, set[tuple]]:
        """Latched ``rrr.pop_object`` plus the ObjDepFct clear (the
        grouped probe of the forget paths)."""
        with self._rrr_latch:
            by_fct = self._rrr.pop_object(oid)
            if self._db.objects.exists(oid):
                self._db.objects.get(oid).obj_dep_fct.clear()
            return by_fct

    def _rrr_fids_of(self, oid: Oid) -> set[str]:
        with self._rrr_latch:
            return self._rrr.fids_of(oid)

    def _rrr_args_of(self, oid: Oid, fid: str) -> list[tuple]:
        with self._rrr_latch:
            return list(self._rrr.args_of(oid, fid))

    # ------------------------------------------------------------------
    # Batched maintenance (the deferred-notification pipeline)
    # ------------------------------------------------------------------

    @property
    def batching(self) -> bool:
        """Whether notifications are currently deferred into the queue.

        ``db.config.batching = False`` turns every batch scope into a
        pass-through (notifications process eagerly).
        """
        return (
            self._batch_depth > 0
            and not self._flushing
            and self._db.config.batching
        )

    @property
    def batch_conservative(self) -> bool:
        """Whether batch-mode notifications must skip the ObjDepFct
        filter: a create adaptation is pending, so markings of in-batch
        objects are not materialized yet (see
        :attr:`InvalidationQueue.has_creates`)."""
        return self.batching and self._queue.has_creates

    def batch(self) -> UpdateBatch:
        """Open a batched-maintenance scope (see :mod:`repro.core.batch`).

        Usually entered via :meth:`ObjectBase.batch`.
        """
        return UpdateBatch(self)

    def flush_batch(self) -> FlushReport:
        """Replay all deferred maintenance events in order.

        Called at batch exit and — to preserve query correctness —
        before any forward or backward query while a batch is open.
        Each invalidation event performs one grouped RRR probe for its
        object, however many elementary updates coalesced into it.
        Returns a :class:`~repro.core.batch.FlushReport` (int-compatible
        with the former bare event count).
        """
        with self._maint_lock:
            return self._flush_batch_impl()

    def _flush_batch_impl(self) -> FlushReport:
        if not len(self._queue):
            return FlushReport(0)
        if self._batch_depth > 0:
            # A query forced this flush while the batch is still open —
            # log a marker so recovery reproduces the flush timing (and
            # with it every validity flag) bit-for-bit.
            self._db._wal_log({"kind": "batch_flush"})
        events = self._queue.drain()
        tracer = self.tracer
        span = (
            tracer.begin("batch.flush", events=len(events))
            if tracer.enabled
            else None
        )
        invalidations = creates = forgets = 0
        self._flushing = True
        try:
            for event in events:
                if isinstance(event, InvalidationEvent):
                    invalidations += 1
                    relevant = set(event.fids)
                    if event.all_fids:
                        relevant |= (
                            self._rrr_fids_of(event.oid) - event.all_exclude
                        )
                    self.invalidate(event.oid, relevant, via="batch")
                elif isinstance(event, CreateEvent):
                    creates += 1
                    if self._db.objects.exists(event.oid):
                        self.new_object(event.oid, event.type_name)
                else:
                    assert isinstance(event, ForgetEvent)
                    forgets += 1
                    self._forget_grouped(event)
        finally:
            self._flushing = False
            if span is not None:
                tracer.end(span)
        self.stats.batch_flushes += 1
        return FlushReport(
            events=len(events),
            invalidations=invalidations,
            creates=creates,
            forgets=forgets,
        )

    def _forget_grouped(self, event: ForgetEvent) -> None:
        """Process a deferred deletion, serving a folded-in invalidation
        of the same object from the single ``pop_object`` probe."""
        oid = event.oid
        folded = event.folded
        inv_fids: set[str] = set()
        by_fct = self._rrr_pop_object(oid)
        self._obs_probe(
            FORGET_KEY, sum(len(args_set) for args_set in by_fct.values())
        )
        if folded is not None:
            inv_fids = set(folded.fids)
            if folded.all_fids:
                inv_fids |= set(by_fct) - folded.all_exclude
            self.stats.invalidate_calls += 1  # the merged probe
        affected = 0
        for fid, args_set in by_fct.items():
            gmr = self._gmr_of_fid.get(fid)
            if gmr is None:
                continue
            process = fid in inv_fids
            for args in args_set:
                if oid in args:
                    if (
                        process
                        and fid != gmr.predicate_fid
                        and gmr.strategy.marks_only
                    ):
                        # Sequential equivalence: the folded invalidation
                        # ran *before* the delete and consumed this RRR
                        # entry, so the unbatched run's forget_object never
                        # saw it — the row stays behind as a blind invalid
                        # row, cleaned lazily (Sec. 4.2).
                        if gmr.mark_invalid(args, fid) and (
                            gmr.strategy is Strategy.DEFERRED
                        ):
                            self._scheduler_for(args).schedule(gmr, fid, args)
                        affected += 1
                        continue
                    # The forget_object part: drop the deleted object's
                    # own rows; any folded invalidation of them is moot
                    # for eager strategies (rematerialization would have
                    # re-inserted the entry for the delete to find).
                    if gmr.remove_row(args):
                        self.stats.rows_removed += 1
                    continue
                if not process:
                    continue  # entry dropped; the row becomes blind
                if fid == gmr.predicate_fid:
                    self._predicate_update_safe(gmr, args)
                    affected += 1
                elif gmr.strategy.marks_only:
                    if gmr.mark_invalid(args, fid) and (
                        gmr.strategy is Strategy.DEFERRED
                    ):
                        self._scheduler_for(args).schedule(gmr, fid, args)
                    affected += 1
                else:
                    if gmr.lookup(args) is None:
                        continue
                    if not self._args_alive(args):
                        gmr.remove_row(args)
                        self.stats.blind_rows_removed += 1
                        continue
                    self._remat_or_degrade(gmr, fid, args)
                    affected += 1
        if event.created_elided and folded is not None and event.type_name:
            affected += self._synthesize_blind_rows(event)
        self.stats.entries_invalidated += affected

    def _synthesize_blind_rows(self, event: ForgetEvent) -> int:
        """Reproduce the blind rows of a create→invalidate→delete run.

        When all three fell inside one batch the queue elided the create,
        so no extension adaptation ever ran and ``pop_object`` has nothing
        to serve the folded invalidation from.  Sequentially, though, the
        adaptation materialized the rows eagerly, the invalidation then
        consumed their RRR entries and cleared the values (marks-only
        strategies), and the delete — finding no entries left — walked
        away, leaving blind invalid rows for lazy cleanup (Sec. 4.2).
        Only fully covered GMRs survive that way: an fid the invalidation
        skipped keeps its RRR entry, which the delete then finds and uses
        to remove the whole row.  Restricted GMRs are skipped — their
        predicate cannot be re-evaluated on the now-dead object, and the
        sequential predicate trace is not reconstructible at flush.
        """
        oid, folded = event.oid, event.folded
        assert folded is not None and event.type_name is not None
        schema = self._db.schema
        affected = 0
        for gmr in self._gmrs.values():
            if (
                not gmr.complete
                or not gmr.strategy.marks_only
                or gmr.restriction is not None
            ):
                continue
            fids = set(gmr.fids)
            if folded.all_fids:
                # Explicitly named fids stay covered even when a merged
                # compensating exclusion skipped them in the naive pass.
                covered = not (fids & (folded.all_exclude - folded.fids))
            else:
                covered = fids <= folded.fids
            if not covered:
                continue
            positions = [
                index
                for index, arg_type in enumerate(gmr.arg_types)
                if not is_atomic_type(arg_type)
                and schema.is_subtype(event.type_name, arg_type)
            ]
            combos: set[tuple] = set()
            for position in positions:
                combos.update(
                    product(*self._domains(gmr, fixed={position: oid}))
                )
            for args in combos:
                if gmr.lookup(args) is None:
                    self.stats.rows_created += 1
                    gmr.ensure_row(args)
                for fid in gmr.fids:
                    if gmr.mark_invalid(args, fid) and (
                        gmr.strategy is Strategy.DEFERRED
                    ):
                        self._scheduler_for(args).schedule(gmr, fid, args)
                    affected += 1
        return affected

    # ------------------------------------------------------------------
    # Invalidation (Sec. 4.1)
    # ------------------------------------------------------------------

    def invalidate(
        self,
        oid: Oid,
        fcts: Iterable[str] | None = None,
        *,
        exclude: frozenset[str] = frozenset(),
        via: str = "direct",
    ) -> int:
        """Handle an update of ``oid``; returns the number of affected
        entries.  ``fcts=None`` is the naive variant (Figure 4): the RRR
        is searched for every function.

        While a batch is open the notification is deferred into the
        queue (coalescing with pending notifications for ``oid``) and 0
        is returned; the work happens at the next flush.

        ``via`` labels the notification path that delivered this wave
        for the trace/EXPLAIN layer (``"naive"``, ``"schema_dep"``,
        ``"obj_dep"``, ``"invalidated_fct"``, ``"batch"``, ...); it does
        not affect maintenance semantics.
        """
        if self.batching:
            merged = self._queue.note_invalidate(oid, fcts, exclude)
            self.stats.batched_invalidations += 1
            if merged:
                self.stats.rrr_probes_saved += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "invalidate.deferred", oid=str(oid), merged=merged, via=via
                )
            return 0
        self.stats.invalidate_calls += 1
        if fcts is None:
            relevant = self._rrr_fids_of(oid)
        else:
            relevant = set(fcts)
        if exclude:
            relevant -= exclude
        tracer = self.tracer
        span = (
            tracer.begin(
                "invalidate.wave",
                oid=str(oid),
                via=via,
                fids=sorted(relevant),
                exclude=sorted(exclude),
            )
            if tracer.enabled
            else None
        )
        affected = 0
        probes = 0
        # A *pure marks-only* wave — every relevant function dispatches
        # to the LAZY/DEFERRED mark path, so nothing inside the loop can
        # insert fresh RRR entries for a later fid — takes the grouped
        # RRR probe: one latch acquisition and one bucket walk for the
        # whole wave instead of a per-fid pop.  Any predicate or eager
        # fid keeps the per-fid pops (their processing re-registers
        # dependencies mid-wave, which grouped pre-popping would miss).
        grouped: dict[str, set[tuple]] | None = None
        if len(relevant) > 1:
            pure_marks = True
            for fid in relevant:
                gmr = self._gmr_of_fid.get(fid)
                if gmr is not None and (
                    fid == gmr.predicate_fid or not gmr.strategy.marks_only
                ):
                    pure_marks = False
                    break
            if pure_marks:
                grouped = self._rrr_pop_args_grouped(oid, relevant)
        try:
            for fid in relevant:
                if grouped is not None:
                    args_set = grouped[fid]
                else:
                    args_set = self._rrr_pop_args(oid, fid)
                probes += 1
                self._obs_probe(fid, len(args_set))
                if not args_set:
                    continue
                gmr = self._gmr_of_fid.get(fid)
                if gmr is None:
                    continue
                before = affected
                if fid == gmr.predicate_fid:
                    for args in args_set:
                        self._predicate_update_safe(gmr, args)
                        affected += 1
                elif gmr.strategy.marks_only:
                    # A missing row is a blind reference (Sec. 4.2): the
                    # popped entry was the stale leftover; nothing to do.
                    # ``mark_invalid_many`` returns the entries that
                    # actually transitioned.
                    changed = gmr.mark_invalid_many(args_set, fid)
                    if gmr.strategy is Strategy.DEFERRED:
                        for args in changed:
                            self._scheduler_for(args).schedule(gmr, fid, args)
                    reason = f"invalidated via={via}"
                    for args in args_set:
                        self._note(fid, args, reason)
                    affected += len(args_set)
                else:
                    for args in args_set:
                        if gmr.lookup(args) is None:
                            continue  # blind reference, lazily cleaned
                        if not self._args_alive(args):
                            gmr.remove_row(args)  # blind row: arg deleted
                            self.stats.blind_rows_removed += 1
                            continue
                        # A failure inside one entry must not abandon the
                        # rest of the popped args_set/fid loop: the entry
                        # degrades to ERROR (retry scheduled) and the sweep
                        # continues — invalidate() never unwinds mid-loop.
                        self._remat_or_degrade(gmr, fid, args)
                        affected += 1
                if self._obs_on and affected > before:
                    self._tally(fid)["invalidations"] += affected - before
        finally:
            if span is not None:
                tracer.end(span, width=affected, probes=probes)
        if self._obs_on:
            self._m_waves.inc()
            self._m_wave_width.observe(affected)
            self.last_wave = WaveExplain(
                oid=oid,
                via=via,
                fids=tuple(sorted(relevant)),
                exclude=tuple(sorted(exclude)),
                width=affected,
                probes=probes,
            )
        self.stats.entries_invalidated += affected
        return affected

    def _args_alive(self, args: tuple) -> bool:
        return self._db.objects.exists_all(
            arg for arg in args if isinstance(arg, Oid)
        )

    def _predicate_update(self, gmr: GMR, args: tuple) -> None:
        """Sec. 6.1: re-evaluate the restriction predicate for ``args``."""
        if any(
            isinstance(arg, Oid) and not self._db.objects.exists(arg)
            for arg in args
        ):
            return  # argument object gone; row (if any) is removed elsewhere
        allowed = self._evaluate_predicate(gmr, args)
        row = gmr.lookup(args)
        if allowed:
            if row is None:
                gmr.ensure_row(args)
                for fid in gmr.fids:
                    self._remat_or_degrade(gmr, fid, args)
        else:
            if row is not None:
                gmr.remove_row(args)

    # ------------------------------------------------------------------
    # Creation / deletion of argument objects (Sec. 4.2)
    # ------------------------------------------------------------------

    def new_object(self, oid: Oid, type_name: str) -> None:
        """Insert GMR entries for every argument combination containing
        the new object (complete GMRs only)."""
        if self.batching:
            self._queue.note_create(oid, type_name)
            self.stats.batched_invalidations += 1
            return
        schema = self._db.schema
        for gmr in self._gmrs.values():
            if not gmr.complete:
                continue
            positions = [
                index
                for index, arg_type in enumerate(gmr.arg_types)
                if not is_atomic_type(arg_type)
                and schema.is_subtype(type_name, arg_type)
            ]
            if not positions:
                continue
            combos: set[tuple] = set()
            for position in positions:
                combos.update(product(*self._domains(gmr, fixed={position: oid})))
            for args in combos:
                if gmr.lookup(args) is None:
                    self._admit(gmr, args)

    def forget_object(self, oid: Oid) -> None:
        """Remove the deleted object's RRR entries and every GMR entry it
        was an argument of; other references become blind and are cleaned
        lazily (Sec. 4.2)."""
        if self.batching:
            # Captured while the object is still alive: the flush may
            # need its type to enumerate argument combinations.
            type_name = (
                self._db.objects.type_of(oid)
                if self._db.objects.exists(oid)
                else None
            )
            if self._queue.note_forget(oid, type_name):
                self.stats.rrr_probes_saved += 1
            self.stats.batched_invalidations += 1
            return
        by_fct = self._rrr_pop_object(oid)
        self._obs_probe(
            FORGET_KEY, sum(len(args_set) for args_set in by_fct.values())
        )
        if self.tracer.enabled:
            self.tracer.event("forget", oid=str(oid), fids=sorted(by_fct))
        for fid, args_set in by_fct.items():
            gmr = self._gmr_of_fid.get(fid)
            if gmr is None:
                continue
            for args in args_set:
                if oid in args and gmr.remove_row(args):
                    self.stats.rows_removed += 1

    # ------------------------------------------------------------------
    # Compensating actions (Sec. 5.4)
    # ------------------------------------------------------------------

    def register_delta(
        self,
        function: Any,
        *,
        on: dict[tuple[str, str], Callable[..., Any]] | None = None,
        aggregate: AggregateSpec | None = None,
        name: str = "",
    ) -> DeltaSpec:
        """Declare delta maintenance for a materialized ``function``.

        ``on`` maps update keys ``(type_name, update_op)`` to handlers
        ``(old_result, update) -> new_result`` — declared once per fid,
        the generalized successor of per-op compensating actions.
        ``aggregate`` declares a self-maintainable aggregate shape
        (:func:`repro.core.delta.sum_of` and friends) over the
        function's collection-typed argument; its ``insert``/``remove``
        update keys are derived automatically.

        Enforces the same side condition as Def. 5.4: every update key
        must belong to an *argument type* of the materialized function
        (attaching elsewhere — e.g. ``Cuboid.scale`` for
        ``total_volume`` — leads to inconsistent extensions).  The
        declarations only run under ``maintenance="delta"``.
        """
        info = self._resolve_function(function)
        if info.fid not in self._gmr_of_fid:
            raise CompensationError(
                f"{info.fid} is not materialized; create its GMR first"
            )
        if not on and aggregate is None:
            raise CompensationError(
                "define_delta needs on= handlers and/or an aggregate= shape"
            )
        handlers: dict[tuple[str, str], Callable[..., Any]] = {}
        for (update_type, update_op), handler in (on or {}).items():
            decl_type = self._resolve_update_type(update_type, update_op)
            self._check_update_legality(info, decl_type, update_op)
            handlers[(decl_type, update_op)] = handler
        aggregate_keys: set[tuple[str, str]] = set()
        if aggregate is not None:
            schema = self._db.schema
            collection_types = [
                arg_type
                for arg_type in info.arg_types
                if not is_atomic_type(arg_type)
                and schema.type(arg_type).is_collection()
            ]
            if not collection_types:
                raise CompensationError(
                    f"aggregate delta maintenance needs a collection-typed "
                    f"argument; {info.fid} has none"
                )
            for arg_type in collection_types:
                aggregate_keys.add((arg_type, "insert"))
                aggregate_keys.add((arg_type, "remove"))
        spec = DeltaSpec(
            info.fid,
            handlers=handlers,
            aggregate=aggregate,
            aggregate_keys=aggregate_keys,
            name=name or (aggregate.name if aggregate is not None else ""),
        )
        return self._delta.registry.register(spec)

    def register_compensation(
        self,
        update_type: str,
        update_op: str,
        function: Any,
        action: Callable[..., Any],
        *,
        name: str = "",
    ) -> CompensatingAction:
        """Register ``action`` as the compensating action for ``function``
        and the update operation ``update_type.update_op``.

        Enforces Def. 5.4's side condition: the update operation must be
        associated with an *argument type* of the materialized function.

        .. deprecated::
            Use :meth:`register_delta` / ``db.define_delta(...)``.  This
            shim still fills the legacy CA table (so
            ``maintenance="compensate"`` behaves exactly as before) and
            additionally adapts the action into the delta registry, so
            registered actions keep working under ``maintenance="delta"``.
        """
        warnings.warn(
            "register_compensation is deprecated; declare the handler via "
            "db.define_delta(fid, on={(type, op): handler}) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        info = self._resolve_function(function)
        if info.fid not in self._gmr_of_fid:
            raise CompensationError(
                f"{info.fid} is not materialized; create its GMR first"
            )
        decl_type = self._resolve_update_type(update_type, update_op)
        self._check_update_legality(info, decl_type, update_op)
        entry = CompensatingAction(
            update_type=decl_type,
            update_op=update_op,
            fid=info.fid,
            action=action,
            name=name or getattr(action, "__name__", ""),
        )
        self._ca.register(entry)
        self._delta.registry.adopt_compensation(entry)
        return entry

    def _check_update_legality(
        self, info: FunctionInfo, decl_type: str, update_op: str
    ) -> None:
        """Def. 5.4's consistency restriction, shared by both the legacy
        and the delta registration surfaces."""
        schema = self._db.schema
        compatible = any(
            schema.is_subtype(decl_type, arg_type)
            or schema.is_subtype(arg_type, decl_type)
            for arg_type in info.arg_types
            if not is_atomic_type(arg_type)
        )
        if not compatible:
            raise CompensationError(
                f"compensating actions may only be specified for update "
                f"operations of argument types of the materialized function; "
                f"{decl_type}.{update_op} is not associated with an argument "
                f"type of {info.fid}"
            )

    def _resolve_update_type(self, update_type: str, update_op: str) -> str:
        schema = self._db.schema
        definition = schema.type(update_type)
        if update_op in ("insert", "remove") and definition.is_collection():
            return update_type
        if update_op.startswith("set_"):
            attr = update_op[len("set_") :]
            return schema.attribute_declaring_type(update_type, attr)
        declaring, _ = schema.resolve_operation(update_type, update_op)
        return declaring

    def has_compensation(self, decl_type: str, update_op: str) -> bool:
        """Whether the active maintenance mode patches this update key."""
        mode = self._db.config.maintenance
        if mode == "recompute":
            return False
        if self._ca.has(decl_type, update_op):
            return True
        return mode == "delta" and self._delta.registry.has(
            (decl_type, update_op)
        )

    def compensated_fct(self, decl_type: str, update_op: str) -> frozenset[str]:
        """``CompensatedFct(t.u)`` under the active maintenance mode."""
        mode = self._db.config.maintenance
        if mode == "recompute":
            return frozenset()
        fids = self._ca.compensated_fct(decl_type, update_op)
        if mode == "delta":
            fids |= self._delta.registry.fids_for((decl_type, update_op))
        return fids

    def compensate(
        self,
        oid: Oid,
        update_args: tuple,
        decl_type: str,
        update_op: str,
        fcts: Iterable[str],
    ) -> frozenset[str]:
        """Patch GMR entries for an impending update of ``oid``.

        Called *before* the update executes so patches can read the old
        object-base state (Sec. 5.4).  Returns the fids fully handled —
        the caller excludes exactly those from the post-update
        invalidation wave.  Under ``maintenance="compensate"`` this is
        the CA table's original all-or-nothing behavior; under
        ``"delta"`` the delta engine runs first and any fid with a
        discarded patch falls through to the wave (the maintenance
        lattice's bottom rung).
        """
        fcts = frozenset(fcts)
        mode = self._db.config.maintenance
        if mode == "recompute" or not fcts:
            return frozenset()
        if mode == "delta":
            key = (decl_type, update_op)
            delta_fids = {
                fid
                for fid in fcts
                if self._delta.registry.can_handle(fid, key)
            }
            handled = self._delta.apply(
                oid, update_args, decl_type, update_op, delta_fids
            )
            rest = fcts - delta_fids
            if rest:
                # Middle rung of the lattice: fids with only a legacy
                # CA entry for this key run the classic Sec. 5.4 path.
                self._compensate_ca(oid, update_args, decl_type, update_op, rest)
                handled |= rest
            return frozenset(handled)
        self._compensate_ca(oid, update_args, decl_type, update_op, fcts)
        return fcts

    def _compensate_ca(
        self,
        oid: Oid,
        update_args: tuple,
        decl_type: str,
        update_op: str,
        fcts: Iterable[str],
    ) -> int:
        """The classic compensating-action path (Sec. 5.4)."""
        db = self._db
        compensated = 0
        for fid in fcts:
            entry = self._ca.action_for(decl_type, update_op, fid)
            if entry is None:
                continue
            gmr = self._gmr_of_fid.get(fid)
            if gmr is None:
                continue
            receiver = db.handle(oid)
            wrapped = tuple(
                db.handle(argument) if isinstance(argument, Oid) else argument
                for argument in update_args
            )
            for args in self._rrr_args_of(oid, fid):
                old, valid, _error, exists = gmr.entry_cell(args, fid)
                if not exists:
                    self._rrr_remove(oid, fid, args)  # blind reference
                    continue
                if not valid:
                    continue  # already invalid; the next access recomputes
                with db.materialization_scope():
                    with db.trace() as tracer:
                        new_value = entry.action(receiver, *wrapped, old)
                self.stats.compensations += 1
                if self._obs_on:
                    self._m_compensations.inc()
                    self._tally(fid)["compensations"] += 1
                    self._row_notes[(fid, args)] = (
                        f"compensated ({entry.name or update_op})"
                    )
                if self.tracer.enabled:
                    self.tracer.event(
                        "compensation",
                        fid=fid,
                        oid=str(oid),
                        action=entry.name or update_op,
                    )
                gmr.set_result(args, fid, new_value)
                accessed = set(tracer.objects)
                accessed.update(arg for arg in args if isinstance(arg, Oid))
                for touched in accessed:
                    self._rrr_insert(touched, fid, args)
                compensated += 1
        return compensated

    # ------------------------------------------------------------------
    # Retrieval (Sec. 3.2)
    # ------------------------------------------------------------------

    def retrieve_forward_op(
        self, decl_type: str, op_name: str, args: tuple
    ) -> Any:
        fid = self._op_dispatch[(decl_type, op_name)]
        return self.retrieve_forward(fid, args)

    def retrieve_forward(self, fid: str, args: tuple) -> Any:
        """A forward query: the result of ``f(args)``.

        Serves valid entries from the GMR; (re-)computes invalid or
        missing entries (updating the GMR, unless the arguments fall
        outside a restriction — then the "normal" function answers).
        A query inside an open batch forces a flush first: the answer
        must reflect every elementary update already applied.

        While ``fid`` is quarantined (open breaker, cooldown running)
        the query degrades to direct evaluation — correct by Sec. 3.2
        transparency and byte-identical to the unmaterialized answer;
        the GMR is left untouched for the probe/retry machinery.  Once
        the cooldown elapses the recomputation below doubles as the
        half-open probe.

        With a worker pool (``workers > 0``) the query first tries the
        consistent-read fast path: a valid entry is served under only
        its *entry read lock*, so a reader never blocks behind an
        in-flight rematerialization of a different entry.  Misses fall
        through to the ordinary path under the object base's update
        lock.  ``workers=0`` takes the original single-threaded
        sequence unchanged.
        """
        if self._mt:
            return self._retrieve_forward_mt(fid, args)
        if self.batching:
            self.flush_batch()
        self.scheduler.note_query(fid)
        return self._retrieve_forward_impl(fid, args)

    def _retrieve_forward_mt(self, fid: str, args: tuple) -> Any:
        """Multi-threaded forward query (see :meth:`retrieve_forward`).

        The fast path is skipped for capacity-bounded GMRs (an LRU
        cache mutates its recency order on lookup, which needs the
        update lock) and while a batch scope is open (the answer must
        reflect the pending flush).  Quarantined functions also take
        the slow path so their degraded direct evaluation runs under
        the update lock, never against concurrently mutating objects.
        """
        self.scheduler.note_query(fid)
        gmr = self._gmr_of_fid.get(fid)
        if gmr is not None and gmr.capacity is None and not self.batching:
            policy = self.fault_policy
            if not (
                policy.enabled
                and self.breaker.quarantined(fid)
                and not self.breaker.probe_eligible(fid)
            ):
                store = gmr.store
                column = gmr.column_of(fid)
                locks = store.locks
                if locks is not None:
                    with locks.read(args):
                        value, valid, _exists = store.probe(args, column)
                        if valid:
                            self.stats.forward_hits += 1
                            return value
                else:  # pragma: no cover - locks always armed in MT mode
                    value, valid, _exists = store.probe(args, column)
                    if valid:
                        self.stats.forward_hits += 1
                        return value
        with self._maint_lock:
            if self.batching:
                self.flush_batch()
            return self._retrieve_forward_impl(fid, args)

    def _retrieve_forward_impl(self, fid: str, args: tuple) -> Any:
        gmr = self._gmr_of_fid.get(fid)
        if gmr is None:
            raise GMRDefinitionError(f"{fid} is not materialized")
        if (
            self.fault_policy.enabled
            and self.breaker.quarantined(fid)
            and not self.breaker.probe_eligible(fid)
        ):
            self.stats.degraded_forward_calls += 1
            return self._degraded_value(gmr, fid, args)
        value, valid, exists = gmr.probe(args, fid)
        if valid:
            self.stats.forward_hits += 1
            return value
        if self._db.health.read_only:
            # Storage degraded (Sec. 3.2 transparency): a valid entry was
            # served above, but rematerializing this one would commit a
            # revalidation whose maintenance trail cannot be logged.
            # Answer by direct evaluation, leaving GMR/RRR untouched.
            self.stats.degraded_forward_calls += 1
            return self._degraded_value(gmr, fid, args)
        self.stats.forward_computes += 1
        if not exists and gmr.is_restricted:
            try:
                admitted = self._evaluate_predicate(gmr, args)
            except (FunctionExecutionError, FunctionQuarantinedError):
                # Membership undecidable (predicate failing or
                # quarantined): answer pass-through, admit later.
                self.stats.degraded_forward_calls += 1
                return self._degraded_value(gmr, fid, args)
            if not admitted:
                # Outside the restriction: compute with the normal function.
                return self._db.call_function(gmr.function(fid), args)
        return self._rematerialize(gmr, fid, args)

    def force_invalidate_all(self, gmr: GMR) -> None:
        """Invalidate every entry of ``gmr`` and drop the corresponding
        RRR entries and ObjDepFct markings.

        This is the starting state of the paper's Figure 10 ``Lazy``
        configuration: "all materialized volume results had been
        invalidated before the benchmark was started — this causes the
        RRR and the sets ObjDepFct to be empty with respect to
        ⟨⟨volume⟩⟩".

        Runs under the object base's update lock (a no-op
        single-threaded): it mutates the RRR and GMR validity bits,
        which must be serialized against a concurrent worker-pool
        drain."""
        with self._maint_lock, self._all_shards():
            fids = set(gmr.fids)
            stale = [
                (oid, fid, args)
                for oid, fid, args in self._rrr.triples()
                if fid in fids
            ]
            for oid, fid, args in stale:
                self._rrr_remove(oid, fid, args)
            deferred = gmr.strategy is Strategy.DEFERRED
            for fid in gmr.fids:
                changed = gmr.mark_invalid_many(gmr.args(), fid)
                if deferred:
                    for args in changed:
                        self._scheduler_for(args).schedule(gmr, fid, args)

    def revalidate(self, gmr: GMR, fid: str | None = None) -> int:
        """Rematerialize every invalid entry (the paper's low-load sweep).

        Returns the number of entries actually revalidated; entries
        whose function fails or is quarantined stay invalid/ERROR (a
        bounded retry is scheduled) instead of aborting the sweep.
        """
        with self._maint_lock, self._all_shards():
            count = 0
            fids = [fid] if fid is not None else gmr.fids
            for function_fid in fids:
                for args in list(gmr.invalid_args(function_fid)):
                    if gmr.lookup(args) is None:
                        continue
                    if not self._args_alive(args):
                        # A blind row: its argument object was deleted
                        # after the entry had been lazily invalidated
                        # (Sec. 4.2's lazy maintenance) — dropped here.
                        gmr.remove_row(args)
                        self.stats.blind_rows_removed += 1
                        continue
                    if self._remat_or_degrade(gmr, function_fid, args):
                        count += 1
            return count

    def vacuum(self, gmr: GMR | None = None) -> int:
        """Remove blind rows (rows over deleted argument objects).

        The paper's alternative to lazy cleanup is "a periodic
        reorganization"; this is that sweep, usable on one GMR or all.

        Runs under the object base's update lock (a no-op
        single-threaded): ``remove_row`` mutates shared index
        structures (B+-tree / grid file, page store), and per-entry
        stripe locks do not serialize cross-entry index mutation
        against a concurrent worker-pool drain.
        """
        with self._maint_lock, self._all_shards():
            removed = 0
            targets = [gmr] if gmr is not None else list(self._gmrs.values())
            for target in targets:
                for args in target.args():
                    if not self._args_alive(args):
                        target.remove_row(args)
                        removed += 1
            self.stats.blind_rows_removed += removed
            return removed

    def verify_lockstep(self) -> list[str]:
        """Check the RRR ↔ ObjDepFct lockstep invariant (Sec. 5.2).

        Every live object's ``ObjDepFct`` markings must equal the set of
        function ids the RRR holds entries for under that object —
        that equality is what lets updates of unmarked objects skip the
        RRR probe.  Returns human-readable violations (empty = healthy);
        a test/debug helper like :meth:`GMR.check_consistency`.
        """
        from_rrr: dict[Oid, set[str]] = {}
        for oid, fid, _args in self._rrr.triples():
            from_rrr.setdefault(oid, set()).add(fid)
        objects = self._db.objects
        violations: list[str] = []
        for oid in objects.oids():
            expected = from_rrr.get(oid, set())
            marked = set(objects.get(oid).obj_dep_fct)
            if marked != expected:
                violations.append(
                    f"{oid}: ObjDepFct {sorted(marked)} != "
                    f"RRR functions {sorted(expected)}"
                )
        return violations

    def backward_query(
        self,
        fid: str,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[tuple[Any, tuple]]:
        """A backward range query over ``fid``'s results.

        All results must be valid for the answer to be complete, so
        invalid entries are rematerialized first (this is why lazy and
        immediate strategies cost the same for backward-query-only mixes,
        Fig. 13).

        Entries the guarded sweep cannot heal (persistent ERROR,
        quarantined function) are completed by direct evaluation —
        completeness admits no gaps.  A function that cannot be
        evaluated at all fails the query loudly with
        :class:`FunctionExecutionError` rather than silently dropping
        rows from the answer.

        Backward queries always run under the object base's update
        lock (a no-op single-threaded): the revalidating sweep and the
        range scan must see one consistent extension.
        """
        with self._maint_lock, self._all_shards():
            return self._backward_query_impl(
                fid,
                low,
                high,
                include_low=include_low,
                include_high=include_high,
            )

    def _backward_query_impl(
        self,
        fid: str,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[tuple[Any, tuple]]:
        if self.batching:
            self.flush_batch()
        gmr = self._gmr_of_fid.get(fid)
        if gmr is None:
            raise GMRDefinitionError(f"{fid} is not materialized")
        degraded: list[tuple[Any, tuple]] = []
        self.revalidate(gmr, fid)
        for args in sorted(gmr.invalid_args(fid), key=repr):
            if gmr.lookup(args) is None or not self._args_alive(args):
                continue
            value = self._degraded_value(gmr, fid, args)
            self.stats.degraded_forward_calls += 1
            if in_range(
                value,
                low,
                high,
                include_low=include_low,
                include_high=include_high,
            ):
                degraded.append((value, args))
        results = list(
            gmr.backward(
                fid, low, high, include_low=include_low, include_high=include_high
            )
        )
        if degraded:
            results.extend(degraded)
            results.sort(key=lambda pair: pair[0])
        return results
