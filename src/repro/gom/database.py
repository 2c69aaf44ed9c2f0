"""The object base: schema + object manager + storage + GMR hooks.

:class:`ObjectBase` is the facade a user of the library works with.  It
wires together the schema, the object manager, the simulated page store
and buffer, the access tracers and — once materialization is enabled —
the GMR manager.  All elementary update operations (``set_A``,
``insert``, ``remove``, ``create``, ``delete``) run through this class,
which is where the paper's *schema rewrite* notification mechanism lives:
depending on the selected :class:`InstrumentationLevel` the update paths
notify the GMR manager exactly as the modified operations of Figures 4
and 5 (and the information-hiding variant of Sec. 5.3) would.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.errors import (
    EncapsulationError,
    InternalError,
    NotSetStructuredError,
    SchemaError,
    StorageUnavailableError,
    TypeCheckError,
    UnknownAttributeError,
    UnknownOperationError,
)
from repro.gom.handles import (
    Handle,
    bind_db,
    bind_internal,
    bind_oid,
    new_handle,
    unwrap,
)
from repro.gom.instrumentation import InstrumentationLevel
from repro.gom.members import MemberPlan, build_plan
from repro.gom.object_manager import ObjectManager
from repro.gom.objects import StoredObject
from repro.gom.oid import Oid
from repro.gom.schema import Schema
from repro.gom.tracing import AccessTracer
from repro.gom.types import (
    ELEMENTS_ATTR,
    OperationDef,
    TypeDefinition,
    TypeKind,
    is_atomic_type,
    writer_name,
)
from repro.storage.btree import BPlusTree
from repro.storage.pages import BufferManager, CostModel, PageStore
from repro.storage.wal import (
    ShardedWriteAheadLog,
    WriteAheadLog,
    encode_value as _wal_encode,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.function_registry import FunctionInfo, FunctionRegistry
    from repro.core.manager import GMRManager
    from repro.gom.transactions import TransactionManager
    from repro.observe.config import MaterializationConfig

_NO_FIDS: frozenset[str] = frozenset()

_ATOMIC_DEFAULTS: dict[str, Any] = {
    "float": 0.0,
    "int": 0,
    "string": "",
    "bool": False,
    "char": " ",
    "decimal": 0.0,
}


class _InvocationState(threading.local):
    """Per-thread function-invocation state of one object base.

    Holds the access-tracer stack and the nesting depths that the
    invocation paths maintain.  Subclassing ``threading.local`` gives
    every thread — the foreground mutator and each pool drain thread —
    its own independent copy, which is what makes concurrent
    rematerializations trace independent accessed-object sets.
    """

    def __init__(self) -> None:
        self.tracers: list[AccessTracer] = []
        self.opaque_depth = 0
        self.suppress_depth = 0
        self.materializing_depth = 0


class ObjectBase:
    """A GOM object base with optional function materialization."""

    def __init__(
        self,
        *,
        buffer_pages: int | None = None,
        page_size: int = 4096,
        enforce_encapsulation: bool = True,
        level: InstrumentationLevel | None = None,
        config: "MaterializationConfig | None" = None,
    ) -> None:
        # Imported lazily: repro.observe.config itself imports from
        # repro.core and repro.gom, so a module-level import here would
        # close a cycle when repro.core is the import entry point.
        from repro.observe.config import MaterializationConfig, Observability

        if config is None:
            config = MaterializationConfig()
            if level is not None:
                config = dataclasses.replace(config, level=level)
        elif level is not None:
            raise ValueError(
                "pass either level= or config=, not both; set "
                "MaterializationConfig(level=...)"
            )
        #: The unified configuration surface (strategy, batching, fault
        #: policy, observability) — see :mod:`repro.observe.config`.
        self.config = config
        #: The object base's update lock: every elementary update (and
        #: any maintenance entered from one) runs under it when a
        #: revalidation worker pool or a sharded engine is configured.
        #: With ``workers=0, shards=1`` it is a shared no-op context, so
        #: the single-threaded paths stay bit-for-bit unchanged.
        #: Reentrant: update paths nest (``invoke`` → ``set_attr`` →
        #: invalidation → compensation).
        if config.workers > 0 or config.shards > 1:
            self._update_lock: Any = threading.RLock()
        else:
            self._update_lock = nullcontext()
        #: Shard count and per-shard drain gates.  Each shard lock
        #: serializes that shard's background drains against freezes and
        #: engine-wide maintenance sweeps: a pool worker holds the
        #: owning shard's lock around each single-entry drain, while
        #: writers take only the global update lock (their conflicts
        #: with in-flight drains are resolved by the ``_write_epoch``
        #: seqlock below, not by blocking).  ``None`` when unsharded —
        #: no new objects on the shards=1 path.
        self._shards = config.shards
        if config.shards > 1:
            self._shard_locks: "tuple[threading.RLock, ...] | None" = tuple(
                threading.RLock() for _ in range(config.shards)
            )
        else:
            self._shard_locks = None
        #: Write-epoch seqlock (sharded engines only).  Every elementary
        #: update increments it once on entry and once on exit, so an
        #: odd value means an update is mutating the object graph right
        #: now.  Background drains — which deliberately do *not* take
        #: the global update lock when sharded — snapshot the epoch
        #: before computing a rematerialization and re-check it before
        #: committing; any movement defers the entry instead of
        #: publishing a result computed from torn state.
        self._write_epoch = 0
        #: Elementary-update nesting depth of the thread holding the
        #: update lock (invoked method bodies may issue nested
        #: elementary updates); the epoch flips only at the
        #: outermost level so it stays odd for the whole composite
        #: update.  Only ever touched under the global update lock.
        self._update_depth = 0
        #: Observability facade: ``db.observe.tracer`` and
        #: ``db.observe.metrics`` (see :mod:`repro.observe`).
        self.observe = Observability(config.observe)
        #: Storage health state machine (HEALTHY / DEGRADED_READ_ONLY /
        #: FAILED — see :mod:`repro.core.health`).  Imported lazily for
        #: the same cycle reason as MaterializationConfig above.
        from repro.core.health import HealthMonitor

        self.health = HealthMonitor()
        self._wire_health_observability()
        self.schema = Schema()
        self.page_store = PageStore(page_size=page_size)
        if buffer_pages is None:
            self.buffer = BufferManager()
        else:
            self.buffer = BufferManager(capacity=buffer_pages)
        self.cost_model = CostModel()
        self.objects = ObjectManager(self.schema, self.page_store)
        self.enforce_encapsulation = enforce_encapsulation

        self._gmr: "GMRManager | None" = None
        self._functions: "FunctionRegistry | None" = None
        #: Per-thread invocation state (access tracers and the opaque /
        #: suppress / materializing depths).  Thread-local because a
        #: background drain's rematerialization must trace only the
        #: objects *its* function body touches — a shared tracer list
        #: would let concurrent drains pollute each other's accessed
        #: sets and materialize spurious RRR rows.  Every path that
        #: needs it reads ``state = self._invocation`` once and works on
        #: the fields.
        self._invocation = _InvocationState()
        #: ``(dynamic type, member)`` → compiled plan; see
        #: :mod:`repro.gom.members`.
        self._member_plans: dict[tuple[str, str], MemberPlan] = {}
        self._strict_cache: dict[str, bool] = {}
        self._attr_indexes: dict[tuple[str, str], BPlusTree] = {}
        #: The transaction manager, created by the first
        #: ``db.transaction()``.  Once it exists every elementary update
        #: ('set' | 'insert' | 'remove' | 'create' | 'delete') is handed
        #: to its ``on_update`` for the undo log.
        self._transactions: TransactionManager | None = None
        self._wal: WriteAheadLog | ShardedWriteAheadLog | None = None
        self._wal_suppress = 0
        #: The background revalidation pool (``config.workers > 0``);
        #: ``None`` single-threaded.  See :mod:`repro.concurrency`.
        self.worker_pool = None
        if config.workers > 0:
            from repro.concurrency.pool import RevalidationWorkerPool

            self.worker_pool = RevalidationWorkerPool(
                self.gmr_manager, config.workers
            )
            self.worker_pool.start()

    @property
    def level(self) -> InstrumentationLevel:
        """The active instrumentation level (``config.level``)."""
        return self.config.level

    @level.setter
    def level(self, value: InstrumentationLevel) -> None:
        self.config.level = value

    # ------------------------------------------------------------------
    # Schema definition
    # ------------------------------------------------------------------

    def define_tuple_type(
        self,
        name: str,
        attributes: Mapping[str, str],
        *,
        supertype: str = "ANY",
        public: Iterable[str] | None = None,
    ) -> TypeDefinition:
        """Define a tuple-structured type (a ``type ... is ...`` frame)."""
        definition = TypeDefinition.tuple_type(
            name, attributes, supertype=supertype, public=public
        )
        self.schema.add_type(definition)
        self._invalidate_plan_cache()
        return definition

    def define_set_type(
        self, name: str, element_type: str, *, public: Iterable[str] | None = None
    ) -> TypeDefinition:
        definition = TypeDefinition.set_type(name, element_type, public=public)
        self.schema.add_type(definition)
        self._invalidate_plan_cache()
        return definition

    def define_list_type(
        self, name: str, element_type: str, *, public: Iterable[str] | None = None
    ) -> TypeDefinition:
        definition = TypeDefinition.list_type(name, element_type, public=public)
        self.schema.add_type(definition)
        self._invalidate_plan_cache()
        return definition

    def define_operation(
        self,
        type_name: str,
        name: str,
        param_types: Iterable[str],
        result_type: str,
        body: Callable[..., Any],
        *,
        doc: str = "",
    ) -> OperationDef:
        """Declare and define an operation on ``type_name``."""
        operation = self.schema.type(type_name).define_operation(
            name, param_types, result_type, body, doc=doc
        )
        self._invalidate_plan_cache()
        return operation

    def make_public(self, type_name: str, *members: str) -> None:
        """Add members to a type's public clause."""
        self.schema.type(type_name).make_public(*members)
        self._invalidate_plan_cache()

    def set_strict_encapsulation(self, type_name: str, strict: bool = True) -> None:
        """Mark a type strictly encapsulated (Sec. 5.3)."""
        self.schema.type(type_name).strict_encapsulation = strict
        self._strict_cache.clear()

    def declare_invalidates(
        self, type_name: str, operation: str, functions: Iterable[str]
    ) -> None:
        """Supply an ``InvalidatedFct`` specification (Def. 5.3)."""
        self.schema.type(type_name).declare_invalidates(operation, functions)

    def _invalidate_plan_cache(self) -> None:
        self._member_plans.clear()
        self._strict_cache.clear()

    # ------------------------------------------------------------------
    # Materialization wiring
    # ------------------------------------------------------------------

    @property
    def functions(self) -> "FunctionRegistry":
        if self._functions is None:
            from repro.core.function_registry import FunctionRegistry

            self._functions = FunctionRegistry(self)
        return self._functions

    @property
    def gmr_manager(self) -> "GMRManager":
        if self._gmr is None:
            from repro.core.manager import GMRManager

            self._gmr = GMRManager(self)
        return self._gmr

    @property
    def has_gmr_manager(self) -> bool:
        return self._gmr is not None

    @property
    def transactions(self):
        """The transaction manager (created on first use)."""
        if self._transactions is None:
            from repro.gom.transactions import TransactionManager

            self._transactions = TransactionManager(self)
        return self._transactions

    def transaction(self):
        """``with db.transaction() as txn:`` — atomic update scope with
        rollback that keeps every materialization consistent."""
        from repro.gom.transactions import TransactionScope

        return TransactionScope(self.transactions)

    def quiesce(self, timeout: float = 30.0) -> bool:
        """Drain every runnable deferred revalidation and settle.

        With a worker pool (``workers > 0``) this wakes the workers and
        blocks until the scheduler's ready queue is empty and no drain
        is in flight; with ``workers=0`` it drains the scheduler
        synchronously on the calling thread.  Either way, afterwards
        the GMR extensions are exactly what a single-threaded
        ``scheduler.revalidate()`` sweep would have produced — the
        state the Def. 3.2 consistency oracle and checkpointing expect.
        Returns False if the pool failed to settle within ``timeout``
        seconds.
        """
        if self.worker_pool is not None:
            return self.worker_pool.quiesce(timeout)
        if self._gmr is not None:
            manager = self._gmr
            locks = self._shard_locks
            if locks is None:
                manager.scheduler.revalidate()
            else:
                # Sharded, no pool: drain each shard's scheduler under
                # its shard lock, looping because a sweep can requeue
                # work (retry backoff, epoch deferrals) onto any shard.
                # Transient epoch-conflict defers ripen within
                # milliseconds and count as unsettled — wait them out
                # (bounded by ``timeout``) rather than declaring
                # convergence with an entry still INVALID.
                deadline = time.monotonic() + timeout
                while any(
                    s.unsettled_pending() for s in manager.schedulers
                ):
                    progressed = False
                    for shard, scheduler in enumerate(manager.schedulers):
                        if scheduler.ready_pending() == 0:
                            continue
                        with locks[shard]:
                            if scheduler.revalidate():
                                progressed = True
                    if progressed:
                        continue
                    if time.monotonic() >= deadline:
                        return False
                    time.sleep(0.001)
        return True

    @contextmanager
    def _freeze(self) -> Iterator[None]:
        """Hold every lock of the engine: no update and no drain can run.

        Takes the global update lock, then every shard lock in
        ascending order (the one place more than one shard lock is ever
        held).  Checkpointing snapshots under this so a sharded base's
        document captures a cut where no rematerialization is half
        committed.  Unsharded this is exactly the update lock.
        """
        with self._update_lock:
            locks = self._shard_locks
            if locks is None:
                yield
                return
            for lock in locks:
                lock.acquire()
            try:
                yield
            finally:
                for lock in reversed(locks):
                    lock.release()

    @contextmanager
    def _epoch_scope(self) -> Iterator[None]:
        """Mark an elementary update in the write-epoch seqlock.

        Entered (under the global update lock) by every elementary
        update wrapper of a sharded base.  The epoch increments at the
        start and end of the *outermost* update only — nested elementary
        updates issued by invoked method bodies keep it odd
        for the whole composite mutation, which is the invariant the
        drain-side conflict check relies on.
        """
        depth = self._update_depth
        self._update_depth = depth + 1
        if depth == 0:
            self._write_epoch += 1
        try:
            yield
        finally:
            self._update_depth = depth
            if depth == 0:
                self._write_epoch += 1

    def close(self) -> None:
        """Stop the worker pool (if any) and detach the WAL.

        If a worker fails to exit within the stop timeout (blocked
        behind a long-held update lock), the WAL is detached — so
        foreground appends stop — but its file is left open rather
        than closed under a straggler that could still drain and
        append, which would raise in a daemon thread.
        """
        stopped = True
        if self.worker_pool is not None:
            stopped = self.worker_pool.stop()
        wal = self.detach_wal()
        if wal is not None and stopped:
            wal.close()

    def batch(self):
        """``with db.batch():`` — a batched-maintenance scope.

        Elementary updates inside the block apply to the object base
        immediately, but GMR maintenance notifications are coalesced in
        an :class:`~repro.core.batch.InvalidationQueue` and replayed at
        block exit (or before any query issued inside the block): one
        grouped RRR probe per distinct updated object instead of one per
        elementary update.  See :mod:`repro.core.batch`.
        """
        return self.gmr_manager.batch()

    # ------------------------------------------------------------------
    # Durability (write-ahead logging)
    # ------------------------------------------------------------------

    def attach_wal(self, wal: WriteAheadLog | ShardedWriteAheadLog) -> None:
        """Attach a write-ahead log: every elementary update is appended
        to it *before* it is applied (see :mod:`repro.storage.wal`).
        A :class:`~repro.storage.wal.ShardedWriteAheadLog` attaches the
        same way — the object base is oblivious to the segmentation."""
        self._wal = wal
        observe = self.observe
        if observe.metrics.enabled or observe.tracer.enabled:
            appends = observe.metrics.counter("wal.appends")
            nbytes_total = observe.metrics.counter("wal.bytes")
            tracer = observe.tracer

            def _on_append(record: dict, nbytes: int) -> None:
                appends.inc()
                nbytes_total.inc(nbytes)
                if tracer.enabled:
                    tracer.event(
                        "wal.append", kind=record.get("kind"), bytes=nbytes
                    )

            wal.on_append = _on_append

    def _wire_health_observability(self) -> None:
        """Bind health transitions to the gauges and trace events.

        ``health.state`` carries the numeric severity (0 HEALTHY,
        1 DEGRADED_READ_ONLY, 2 FAILED), ``storage.io_errors`` the
        lifetime I/O-error count; transitions emit ``health.degrade`` /
        ``health.rearm`` / ``health.fail`` trace events.
        """
        from repro.core.health import STATE_CODES

        observe = self.observe
        if not (observe.metrics.enabled or observe.tracer.enabled):
            return
        state_gauge = observe.metrics.gauge("health.state")
        errors_gauge = observe.metrics.gauge("storage.io_errors")
        tracer = observe.tracer

        def _on_transition(event, old, new, reason) -> None:
            state_gauge.set(STATE_CODES[new])
            if tracer.enabled:
                tracer.event(
                    f"health.{event}",
                    old=old.value,
                    new=new.value,
                    reason=reason,
                )

        def _on_io_error(total: int) -> None:
            errors_gauge.set(total)

        self.health.on_transition = _on_transition
        self.health.on_io_error = _on_io_error

    def detach_wal(self) -> WriteAheadLog | ShardedWriteAheadLog | None:
        wal, self._wal = self._wal, None
        if wal is not None:
            wal.on_append = None
        return wal

    @property
    def wal(self) -> WriteAheadLog | ShardedWriteAheadLog | None:
        return self._wal

    @contextmanager
    def wal_replay_scope(self) -> Iterator[None]:
        """Suppress logging while recovery replays already-logged updates
        through the ordinary update paths."""
        self._wal_suppress += 1
        try:
            yield
        finally:
            self._wal_suppress -= 1

    def _wal_log(self, record: dict) -> None:
        """Append one record durably, mediated by the health state.

        WAL-before-apply: every elementary update calls this *before*
        mutating, so a raise here is a clean refusal — there is nothing
        to roll back, and in-memory state still matches the durable log.

        A failed append trips the health monitor to DEGRADED_READ_ONLY
        and surfaces as :class:`StorageUnavailableError`.  While
        degraded, appends are refused until the probe cooldown elapses;
        the first update after it acts as the probe — the torn WAL tail
        is repaired (truncated back to the last durable frame boundary)
        and the append retried.  Success re-arms HEALTHY; a repair that
        itself fails escalates to FAILED, because a frame appended after
        torn bytes would be silently cut by the recovery reader.
        """
        wal = self._wal
        if wal is None or self._wal_suppress:
            return
        health = self.health
        was_degraded = not health.writable
        if was_degraded:
            if not health.probe_eligible():
                health.require_writable()
            try:
                wal.repair()
            except Exception as exc:
                health.fail(f"wal.repair: {exc}")
                raise StorageUnavailableError(
                    f"write-ahead log tail could not be repaired: {exc}"
                ) from exc
        try:
            wal.append(record)
        except Exception as exc:
            health.record_io_error(exc, site="wal.append")
            raise StorageUnavailableError(
                f"write-ahead log append failed: {exc}"
            ) from exc
        if was_degraded:
            try:
                health.rearm()
            except StorageUnavailableError:
                pass  # raced to FAILED; the next update will refuse

    def replay_create(
        self,
        oid: Oid,
        type_name: str,
        *,
        data: Mapping[str, Any] | None = None,
        elements: Iterable[Any] | None = None,
    ) -> Handle:
        """Re-execute a logged ``create`` under its original OID.

        Runs the full elementary-create path (indexes, GMR extension
        adaptation) so recovery maintains derived structures
        exactly like the live run did.
        """
        obj = self.objects.restore(
            oid,
            type_name,
            data=dict(data) if data is not None else None,
            elements=list(elements) if elements is not None else None,
        )
        self.buffer.touch(obj.placement.page_id, write=True)
        self._index_new_object(obj)
        self._notify_create(obj)
        return Handle(self, obj.oid)

    @property
    def materializing(self) -> bool:
        return self._invocation.materializing_depth > 0

    @contextmanager
    def materialization_scope(self) -> Iterator[None]:
        """Evaluate code as part of a materialization: nested invocations
        of materialized functions run their real bodies instead of being
        mapped to GMR forward queries."""
        state = self._invocation
        state.materializing_depth += 1
        try:
            yield
        finally:
            state.materializing_depth -= 1

    def materialize(self, functions, **kwargs):
        """Create a GMR over ``functions`` — see
        :meth:`repro.core.manager.GMRManager.materialize`."""
        return self.gmr_manager.materialize(functions, **kwargs)

    def define_delta(self, function, *, on=None, aggregate=None, name=""):
        """Declare delta maintenance for a materialized function.

        ``on={(type_name, update_op): handler}`` attaches
        ``(old_result, update) -> new_result`` handlers;
        ``aggregate=`` declares a self-maintainable aggregate shape
        (:func:`repro.core.delta.sum_of` and friends).  Declarations
        take effect under ``MaterializationConfig(maintenance="delta")``
        — see :meth:`repro.core.manager.GMRManager.register_delta`.
        """
        return self.gmr_manager.register_delta(
            function, on=on, aggregate=aggregate, name=name
        )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    @contextmanager
    def trace(self) -> Iterator[AccessTracer]:
        """Record every object/attribute access within the block."""
        tracer = AccessTracer()
        tracers = self._invocation.tracers
        tracers.append(tracer)
        try:
            yield tracer
        finally:
            tracers.remove(tracer)

    def _record_access(
        self, obj: StoredObject, decl_type: str, attribute: str
    ) -> None:
        """Tell every active tracer of this thread about one state read
        (the compiled attribute readers of :mod:`repro.gom.members` do
        the same inline)."""
        state = self._invocation
        if state.tracers and not state.opaque_depth:
            for tracer in state.tracers:
                tracer.record_object(obj.oid)
                tracer.record_attribute(decl_type, attribute)

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------

    def new(self, type_name: str, **attributes: Any) -> Handle:
        """Create a tuple-structured object (the elementary ``create``)."""
        if self._shard_locks is None:
            with self._update_lock:
                return self._new_impl(type_name, attributes)
        with self._update_lock, self._epoch_scope():
            return self._new_impl(type_name, attributes)

    def _new_impl(self, type_name: str, attributes: dict) -> Handle:
        definition = self.schema.type(type_name)
        if definition.kind is not TypeKind.TUPLE:
            raise SchemaError(
                f"{type_name} is {definition.kind.value}-structured; "
                f"use new_collection for sets and lists"
            )
        declared = self.schema.all_attributes(type_name)
        data: dict[str, Any] = {}
        for attr, attr_def in declared.items():
            if attr in attributes:
                value = unwrap(attributes.pop(attr))
                self.schema.check_value(
                    attr_def.type_name, value, type_of_oid=self.objects.type_of
                )
                data[attr] = value
            elif is_atomic_type(attr_def.type_name):
                data[attr] = _ATOMIC_DEFAULTS.get(attr_def.type_name)
            else:
                data[attr] = None
        if attributes:
            unknown = ", ".join(sorted(attributes))
            raise UnknownAttributeError(f"{type_name} has no attribute(s) {unknown}")
        if self._wal is not None and not self._wal_suppress:
            self._wal_log(
                {
                    "kind": "create",
                    "oid": self.objects.peek_next_oid().value,
                    "type": type_name,
                    "data": {a: _wal_encode(v) for a, v in data.items()},
                }
            )
        obj = self.objects.create(type_name, data=data)
        self.buffer.touch(obj.placement.page_id, write=True)
        self._index_new_object(obj)
        self._notify_create(obj)
        return Handle(self, obj.oid)

    def new_collection(
        self, type_name: str, elements: Iterable[Any] = ()
    ) -> Handle:
        """Create a set- or list-structured object."""
        if self._shard_locks is None:
            with self._update_lock:
                return self._new_collection_impl(type_name, elements)
        with self._update_lock, self._epoch_scope():
            return self._new_collection_impl(type_name, elements)

    def _new_collection_impl(
        self, type_name: str, elements: Iterable[Any]
    ) -> Handle:
        definition = self.schema.type(type_name)
        if not definition.is_collection():
            raise SchemaError(f"{type_name} is not set/list-structured")
        element_type = definition.element_type
        if element_type is None:
            # A collection definition always carries its element type;
            # reaching this means the schema object was corrupted.
            raise SchemaError(
                f"collection type {type_name} declares no element type"
            )
        stored: list[Any] = []
        for element in elements:
            raw = unwrap(element)
            self.schema.check_value(
                element_type, raw, type_of_oid=self.objects.type_of
            )
            if definition.is_set() and raw in stored:
                continue
            stored.append(raw)
        if self._wal is not None and not self._wal_suppress:
            self._wal_log(
                {
                    "kind": "create",
                    "oid": self.objects.peek_next_oid().value,
                    "type": type_name,
                    "elements": [_wal_encode(e) for e in stored],
                }
            )
        obj = self.objects.create(type_name, elements=stored)
        self.buffer.touch(obj.placement.page_id, write=True)
        self._notify_create(obj)
        return Handle(self, obj.oid)

    def delete(self, target: Handle | Oid) -> None:
        """Delete an object (the elementary ``delete``, Figure 4/5)."""
        if self._shard_locks is None:
            with self._update_lock:
                self._delete_impl(target)
            return
        with self._update_lock, self._epoch_scope():
            self._delete_impl(target)

    def _delete_impl(self, target: Handle | Oid) -> None:
        oid = unwrap(target)
        transactions = self._transactions
        if transactions is not None:
            transactions.check_delete_allowed(oid)
        obj = self.objects.get(oid)
        self._wal_log({"kind": "delete", "oid": oid.value})
        gmr = self._gmr
        if gmr is not None and self.level.notifies:
            if (
                self.level >= InstrumentationLevel.OBJ_DEP
                and not gmr.batch_conservative
            ):
                # Figure 5: check ObjDepFct before bothering the manager.
                # (With a create pending in an open batch the marking may
                # not be materialized yet, so the check is skipped.)
                if obj.obj_dep_fct:
                    gmr.forget_object(oid)
            else:
                gmr.forget_object(oid)
        self._index_drop_object(obj)
        self.objects.delete(oid)
        if transactions is not None:
            transactions.on_update("delete", oid, None, None, None)

    def handle(self, oid: Oid | Handle) -> Handle:
        return Handle(self, unwrap(oid))

    def type_of(self, oid: Oid) -> str:
        return self.objects.type_of(oid)

    def extension(self, type_name: str) -> list[Handle]:
        """``ext(t)`` as handles (includes subtype instances)."""
        handles = []
        for oid in self.objects.extension(type_name):
            handle = new_handle(Handle)
            bind_db(handle, self)
            bind_oid(handle, oid)
            bind_internal(handle, False)
            handles.append(handle)
        return handles

    # ------------------------------------------------------------------
    # Member plans (cached resolution for the hot access path)
    # ------------------------------------------------------------------

    def _plan(self, type_name: str, member: str) -> MemberPlan:
        key = (type_name, member)
        plan = self._member_plans.get(key)
        if plan is None:
            plan = build_plan(self, type_name, member)
            self._member_plans[key] = plan
        return plan

    def _is_strict(self, type_name: str) -> bool:
        strict = self._strict_cache.get(type_name)
        if strict is None:
            strict = any(
                definition.strict_encapsulation
                for definition in self.schema.supertype_chain(type_name)
            )
            self._strict_cache[type_name] = strict
        return strict

    def handle_member(self, handle: Handle, member: str) -> Any:
        """Resolve ``handle.member`` — attribute read, setter or operation."""
        obj = self.objects.live.get(handle._oid.value)
        if obj is None or obj.deleted:
            obj = self.objects.get(handle._oid)  # raises
        plan = self._member_plans.get((obj.type_name, member))
        if plan is None:
            plan = self._plan(obj.type_name, member)
        return plan.access(handle, obj)

    # ------------------------------------------------------------------
    # Elementary reads
    # ------------------------------------------------------------------

    def read_attr(self, oid: Oid, attr: str) -> Any:
        """Raw attribute read (OIDs are not wrapped into handles)."""
        obj = self.objects.get(oid)
        plan = self._plan(obj.type_name, attr)
        if plan.kind != "attr":
            raise UnknownAttributeError(f"{obj.type_name} has no attribute {attr}")
        self.buffer.touch(obj.placement.page_id)
        self._record_access(obj, plan.decl_type, attr)
        return obj.data[attr]

    # ------------------------------------------------------------------
    # Elementary updates with schema-rewrite notification
    # ------------------------------------------------------------------

    def set_attr(self, oid: Oid, attr: str, value: Any) -> None:
        """The elementary ``t.set_A`` update operation."""
        if self._shard_locks is None:
            with self._update_lock:
                self._set_attr_impl(oid, attr, value)
            return
        with self._update_lock, self._epoch_scope():
            self._set_attr_impl(oid, attr, value)

    def _set_attr_impl(self, oid: Oid, attr: str, value: Any) -> None:
        obj = self.objects.get(oid)
        plan = self._plan(obj.type_name, attr)
        if plan.kind != "attr":
            raise UnknownAttributeError(f"{obj.type_name} has no attribute {attr}")
        decl_type = plan.decl_type
        raw = unwrap(value)
        self.schema.check_value(
            plan.attr_type, raw, type_of_oid=self.objects.type_of
        )
        if self._wal is not None and not self._wal_suppress:
            self._wal_log(
                {
                    "kind": "set",
                    "oid": oid.value,
                    "attr": attr,
                    "value": _wal_encode(raw),
                }
            )
        gmr = self._gmr
        exclude: frozenset[str] = _NO_FIDS
        if (
            gmr is not None
            and self.level.notifies
            and not self._invocation.suppress_depth
        ):
            # Compensating actions fire *before* the update (Sec. 5.4).
            exclude = self._compensate_if_registered(
                obj, decl_type, writer_name(attr), (raw,)
            )
        old = obj.data.get(attr)
        obj.data[attr] = raw
        self.buffer.touch(obj.placement.page_id, write=True)
        index = self._attr_indexes.get((decl_type, attr))
        if index is not None:
            if old is not None:
                index.remove(old, oid)
            if raw is not None:
                index.insert(raw, oid)
        if self._transactions is not None:
            self._transactions.on_update("set", oid, attr, old, raw)
        self._notify_update(obj, decl_type, attr, exclude)

    def collection_insert(
        self, target: Handle | Oid, element: Any, *, position: int | None = None
    ) -> None:
        """The elementary ``insert`` update on a set/list object.

        ``position`` inserts at a specific index (used by transaction
        rollback to restore list order); the default appends.
        """
        if self._shard_locks is None:
            with self._update_lock:
                self._collection_insert_impl(target, element, position=position)
            return
        with self._update_lock, self._epoch_scope():
            self._collection_insert_impl(target, element, position=position)

    def _collection_insert_impl(
        self, target: Handle | Oid, element: Any, *, position: int | None
    ) -> None:
        oid = unwrap(target)
        obj = self.objects.get(oid)
        definition = self.schema.type(obj.type_name)
        if not definition.is_collection():
            # A tuple type may declare an operation named "insert".
            if self.schema.has_operation(obj.type_name, "insert"):
                self.invoke(oid, "insert", (element,))
                return
            raise NotSetStructuredError(f"{obj.type_name} is not set/list-structured")
        raw = unwrap(element)
        if definition.element_type is None:
            raise SchemaError(
                f"collection type {obj.type_name} declares no element type"
            )
        self.schema.check_value(
            definition.element_type, raw, type_of_oid=self.objects.type_of
        )
        if definition.is_set() and raw in obj.elements:
            return
        if self._wal is not None and not self._wal_suppress:
            record = {"kind": "insert", "oid": oid.value, "value": _wal_encode(raw)}
            if position is not None:
                record["pos"] = position
            self._wal_log(record)
        gmr = self._gmr
        exclude: frozenset[str] = _NO_FIDS
        if (
            gmr is not None
            and self.level.notifies
            and not self._invocation.suppress_depth
        ):
            exclude = self._compensate_if_registered(
                obj, obj.type_name, "insert", (raw,)
            )
        if position is None:
            obj.elements.append(raw)
        else:
            obj.elements.insert(position, raw)
        self.buffer.touch(obj.placement.page_id, write=True)
        if self._transactions is not None:
            self._transactions.on_update("insert", oid, ELEMENTS_ATTR, None, raw)
        self._notify_update(obj, obj.type_name, ELEMENTS_ATTR, exclude)

    def collection_remove(self, target: Handle | Oid, element: Any) -> None:
        """The elementary ``remove`` update on a set/list object."""
        if self._shard_locks is None:
            with self._update_lock:
                self._collection_remove_impl(target, element)
            return
        with self._update_lock, self._epoch_scope():
            self._collection_remove_impl(target, element)

    def _collection_remove_impl(
        self, target: Handle | Oid, element: Any
    ) -> None:
        oid = unwrap(target)
        obj = self.objects.get(oid)
        definition = self.schema.type(obj.type_name)
        if not definition.is_collection():
            if self.schema.has_operation(obj.type_name, "remove"):
                self.invoke(oid, "remove", (element,))
                return
            raise NotSetStructuredError(f"{obj.type_name} is not set/list-structured")
        raw = unwrap(element)
        if raw not in obj.elements:
            return
        if self._wal is not None and not self._wal_suppress:
            self._wal_log(
                {"kind": "remove", "oid": oid.value, "value": _wal_encode(raw)}
            )
        gmr = self._gmr
        exclude: frozenset[str] = _NO_FIDS
        if (
            gmr is not None
            and self.level.notifies
            and not self._invocation.suppress_depth
        ):
            exclude = self._compensate_if_registered(
                obj, obj.type_name, "remove", (raw,)
            )
        removed_at = obj.elements.index(raw)
        obj.elements.remove(raw)
        self.buffer.touch(obj.placement.page_id, write=True)
        # ``new`` carries the removal index so transaction rollback can
        # restore list order exactly.
        if self._transactions is not None:
            self._transactions.on_update(
                "remove", oid, ELEMENTS_ATTR, raw, removed_at
            )
        self._notify_update(obj, obj.type_name, ELEMENTS_ATTR, exclude)

    def _compensate_if_registered(
        self,
        obj: StoredObject,
        decl_type: str,
        update_name: str,
        update_args: tuple,
    ) -> frozenset[str]:
        """Run compensating actions; returns the compensated function ids."""
        gmr = self._gmr
        if gmr is None:
            raise InternalError(
                "compensation requested without a GMR manager; update "
                "paths must only consult compensations once "
                "materialization is enabled"
            )
        if not gmr.has_compensation(decl_type, update_name):
            return _NO_FIDS
        relevant = gmr.compensated_fct(decl_type, update_name) & obj.obj_dep_fct
        if not relevant:
            return _NO_FIDS
        # Only fully handled fids are excluded from the post-update
        # invalidation wave; a fid whose delta patch was discarded falls
        # back to ordinary invalidation (never a stale row).
        return frozenset(
            gmr.compensate(obj.oid, update_args, decl_type, update_name, relevant)
        )

    def _notify_update(
        self,
        obj: StoredObject,
        decl_type: str,
        attr: str,
        exclude: frozenset[str],
    ) -> None:
        tracer = self.observe.tracer
        if not tracer.enabled:
            self._notify_update_impl(obj, decl_type, attr, exclude)
            return
        with tracer.span(
            "update", oid=str(obj.oid), type=decl_type, attr=attr
        ):
            self._notify_update_impl(obj, decl_type, attr, exclude)

    def _notify_update_impl(
        self,
        obj: StoredObject,
        decl_type: str,
        attr: str,
        exclude: frozenset[str],
    ) -> None:
        """The schema-rewrite notification branch (Figures 4 and 5)."""
        gmr = self._gmr
        level = self.level
        if gmr is None or not level.notifies:
            return
        if self._invocation.suppress_depth:
            # Inside a public operation of a strictly encapsulated type
            # (Sec. 5.3) or an operation whose effect was already handled
            # by a compensating action (Sec. 5.4): the enclosing operation
            # performs the single invalidation afterwards.
            return
        if level is InstrumentationLevel.NAIVE:
            # Figure 4: notify unconditionally; manager does the RRR lookup.
            gmr.invalidate(obj.oid, None, exclude=exclude, via="naive")
            return
        schema_dep = gmr.schema_dep_fct(decl_type, attr)
        if not schema_dep:
            return
        if level is InstrumentationLevel.SCHEMA_DEP:
            gmr.invalidate(
                obj.oid, schema_dep - exclude, exclude=exclude, via="schema_dep"
            )
            return
        # OBJ_DEP and INFO_HIDING (the latter for non-suppressed updates):
        conservative = gmr.batch_conservative
        if conservative:
            # A create adaptation is pending in the open batch, so
            # ObjDepFct markings are not up to date — notify at
            # SchemaDepFct granularity; the flush-time RRR probe drops
            # functions the object has no entries for.
            relevant = schema_dep - exclude
            via = "batch_fallback"
        else:
            relevant = (obj.obj_dep_fct & schema_dep) - exclude
            via = "obj_dep"
        if relevant:
            gmr.invalidate(obj.oid, relevant, exclude=exclude, via=via)

    def _notify_create(self, obj: StoredObject) -> None:
        gmr = self._gmr
        if gmr is not None and self.level.notifies:
            gmr.new_object(obj.oid, obj.type_name)
        if self._transactions is not None:
            self._transactions.on_update("create", obj.oid, None, None, None)

    # ------------------------------------------------------------------
    # Collection reads
    # ------------------------------------------------------------------

    def _collection_obj(self, target: Handle | Oid) -> StoredObject:
        obj = self.objects.get(unwrap(target))
        if not self.schema.type(obj.type_name).is_collection():
            raise NotSetStructuredError(f"{obj.type_name} is not set/list-structured")
        return obj

    def collection_iter(self, target: Handle | Oid) -> Iterator[Any]:
        obj = self._collection_obj(target)
        self.buffer.touch(obj.placement.page_id)
        self._record_access(obj, obj.type_name, ELEMENTS_ATTR)
        internal = isinstance(target, Handle) and target._internal
        for element in list(obj.elements):
            if isinstance(element, Oid):
                handle = new_handle(Handle)
                bind_db(handle, self)
                bind_oid(handle, element)
                bind_internal(handle, internal)
                yield handle
            else:
                yield element

    def collection_len(self, target: Handle | Oid) -> int:
        obj = self._collection_obj(target)
        self.buffer.touch(obj.placement.page_id)
        self._record_access(obj, obj.type_name, ELEMENTS_ATTR)
        return len(obj.elements)

    def collection_contains(self, target: Handle | Oid, element: Any) -> bool:
        obj = self._collection_obj(target)
        self.buffer.touch(obj.placement.page_id)
        self._record_access(obj, obj.type_name, ELEMENTS_ATTR)
        return unwrap(element) in obj.elements

    # ------------------------------------------------------------------
    # Operation dispatch
    # ------------------------------------------------------------------

    def invoke(
        self,
        oid: Oid,
        op_name: str,
        args: tuple,
        *,
        internal: bool = False,
    ) -> Any:
        """Invoke a declared operation on an object.

        Handles, in order: encapsulation enforcement, the materialized
        fast path (an invocation of a materialized function is mapped to
        a forward query, Sec. 3.2), compensating actions (before the
        update, Sec. 5.4), information-hiding suppression and the single
        post-operation invalidation (Sec. 5.3).
        """
        obj = self.objects.get(oid)
        plan = self._member_plans.get((obj.type_name, op_name))
        if plan is None:
            plan = self._plan(obj.type_name, op_name)
        if plan.kind != "op":
            raise UnknownOperationError(f"{obj.type_name} has no operation {op_name}")
        if not plan.public and not internal and self.enforce_encapsulation:
            raise EncapsulationError(f"{obj.type_name}.{op_name} is not public")
        decl_type = plan.decl_type
        operation = plan.operation

        param_types = operation.param_types
        if len(args) != len(param_types):
            raise TypeCheckError(
                f"{decl_type}.{op_name} expects {len(param_types)} "
                f"argument(s), got {len(args)}"
            )
        raw_args: tuple = ()
        if args:
            raw_args = tuple(
                [a._oid if isinstance(a, Handle) else a for a in args]
            )
            check_value = self.schema.check_value
            type_of = self.objects.type_of
            for expected, raw in zip(param_types, raw_args):
                check_value(expected, raw, type_of_oid=type_of)

        state = self._invocation
        materializing = state.materializing_depth
        gmr = self._gmr
        # Materialized fast path: outside a materialization, invocation of
        # a materialized function becomes a forward query on its GMR.
        # Deliberately *not* under the update lock — the MT consistent
        # read path must stay free to proceed during a pool drain.
        if (
            gmr is not None
            and not materializing
            and gmr.is_materialized_op(decl_type, op_name)
        ):
            return gmr.retrieve_forward_op(decl_type, op_name, (oid,) + raw_args)

        # The remainder may mutate the object base (compensation, the
        # body's elementary updates, the post-operation invalidation);
        # in MT mode it runs atomically under the update lock so one
        # operation's effects never interleave with another thread's.
        # Exception: a sharded drain's rematerialization (we are inside
        # a ``call_function``) must never block on — or deadlock with —
        # the global lock; the materialized bodies are side-effect-free
        # (the paper's standing assumption), and any conflict with a
        # concurrent update is caught by the write-epoch check before
        # the result is committed.
        if self._shard_locks is not None and materializing:
            return self._invoke_body(
                state, obj, oid, op_name, decl_type, operation, raw_args
            )
        with self._update_lock:
            return self._invoke_body(
                state, obj, oid, op_name, decl_type, operation, raw_args
            )

    def _invoke_body(
        self,
        state: _InvocationState,
        obj: StoredObject,
        oid: Oid,
        op_name: str,
        decl_type: str,
        operation: OperationDef,
        raw_args: tuple,
    ) -> Any:
        gmr = self._gmr
        level = self.config.level
        notifies = level.notifies
        # Compensating actions on declared operations run before the body.
        compensated: frozenset[str] = _NO_FIDS
        if (
            gmr is not None
            and notifies
            and not state.suppress_depth
            and not state.materializing_depth
        ):
            compensated = self._compensate_if_registered(
                obj, decl_type, op_name, raw_args
            )

        strict = self._strict_cache.get(obj.type_name)
        if strict is None:
            strict = self._is_strict(obj.type_name)
        # Sec. 5.3 information hiding, or an effect a compensating action
        # already handled: the body's elementary updates stay silent and
        # this operation performs the single invalidation afterwards.
        encapsulated = strict and level is InstrumentationLevel.INFO_HIDING
        hidden = gmr is not None and (bool(compensated) or encapsulated)
        post_invalidate = hidden and not state.suppress_depth and notifies
        # Record the strictly-encapsulated receiver as one opaque unit
        # while tracing ("only this object, but none of its subobjects,
        # have to be marked", Sec. 5.3) — only where the post-operation
        # invalidation above exists.  Below INFO_HIDING strictness is
        # access control only and sub-objects are traced as usual.
        opaque = encapsulated and bool(state.tracers)

        if opaque:
            if not state.opaque_depth:
                for tracer in state.tracers:
                    tracer.record_object(oid)
            state.opaque_depth += 1
        if hidden:
            state.suppress_depth += 1
        try:
            self_handle = new_handle(Handle)
            bind_db(self_handle, self)
            bind_oid(self_handle, oid)
            bind_internal(self_handle, True)
            if raw_args:
                result = operation.body(
                    self_handle,
                    *[
                        Handle(self, raw) if isinstance(raw, Oid) else raw
                        for raw in raw_args
                    ],
                )
            else:
                result = operation.body(self_handle)
        finally:
            if opaque:
                state.opaque_depth -= 1
            if hidden:
                state.suppress_depth -= 1

        if post_invalidate:
            invalidates = self._invalidated_fct(obj.type_name, op_name)
            conservative = gmr.batch_conservative
            if conservative:
                relevant = invalidates - compensated
            else:
                relevant = (obj.obj_dep_fct & invalidates) - compensated
            if relevant:
                gmr.invalidate(
                    oid, relevant, exclude=compensated, via="invalidated_fct"
                )
        return result

    def _invalidated_fct(self, type_name: str, op_name: str) -> frozenset[str]:
        """``InvalidatedFct(t.u)`` collected along the supertype chain."""
        result: set[str] = set()
        for definition in self.schema.supertype_chain(type_name):
            result.update(definition.invalidates.get(op_name, ()))
        return frozenset(result)

    def call_function(self, info: "FunctionInfo", args: tuple) -> Any:
        """Evaluate a registered function body directly (no GMR fast path).

        Used by the GMR manager during (re-)materialization: the paper's
        "modified versions" of the materialized functions are invoked,
        i.e. the real implementations run under tracing.
        """
        state = self._invocation
        state.materializing_depth += 1
        try:
            result = self.invoke(args[0], info.op_name, args[1:], internal=True)
        finally:
            state.materializing_depth -= 1
        return unwrap(result)

    # ------------------------------------------------------------------
    # Attribute indexes (used by the query planner, e.g. on CuboidID)
    # ------------------------------------------------------------------

    def create_attr_index(self, type_name: str, attr: str) -> BPlusTree:
        """Create (and backfill) an index over ``type_name.attr``."""
        decl_type = self.schema.attribute_declaring_type(type_name, attr)
        key = (decl_type, attr)
        if key in self._attr_indexes:
            return self._attr_indexes[key]
        index = BPlusTree(
            self.page_store, self.buffer, segment=f"idx:{decl_type}.{attr}"
        )
        self._attr_indexes[key] = index
        for oid in self.objects.extension(decl_type):
            value = self.objects.get(oid).data.get(attr)
            if value is not None:
                index.insert(value, oid)
        return index

    def attr_index(self, type_name: str, attr: str) -> BPlusTree | None:
        try:
            decl_type = self.schema.attribute_declaring_type(type_name, attr)
        except UnknownAttributeError:
            return None
        return self._attr_indexes.get((decl_type, attr))

    def _index_new_object(self, obj: StoredObject) -> None:
        if not self._attr_indexes or obj.data is None:
            return
        for (decl_type, attr), index in self._attr_indexes.items():
            if attr in obj.data and self.schema.is_subtype(obj.type_name, decl_type):
                value = obj.data[attr]
                if value is not None:
                    index.insert(value, obj.oid)

    def _index_drop_object(self, obj: StoredObject) -> None:
        if not self._attr_indexes or obj.data is None:
            return
        for (decl_type, attr), index in self._attr_indexes.items():
            if attr in obj.data and self.schema.is_subtype(obj.type_name, decl_type):
                value = obj.data[attr]
                if value is not None:
                    index.remove(value, obj.oid)

    # ------------------------------------------------------------------
    # Queries (GOMql)
    # ------------------------------------------------------------------

    def query(self, text: str, params: dict | None = None) -> Any:
        """Parse and execute a GOMql statement.

        ``retrieve`` queries return a list of result rows (or a scalar for
        aggregate queries); ``materialize`` statements create the GMR and
        return it.  ``params`` binds the statement's bare identifiers.
        """
        from repro.gomql import run_statement

        return run_statement(self, text, params)

    def explain(self, text: str | None = None, params: dict | None = None):
        """Explain a GOMql query, or — called without arguments — the
        materialization state.

        With ``text``, explains (without executing) how the statement
        would be evaluated (GMR backward plan, attribute index, or
        extension scan).  Without arguments, returns the
        :class:`~repro.observe.explain.ExplainReport` over every GMR:
        per-row validity with the reason recorded on the last
        invalidation wave, per-function probe/rematerialization tallies,
        and per-strategy cost totals.
        """
        if text is None:
            return self.gmr_manager.explain()
        from repro.gomql import explain_statement

        return explain_statement(self, text, params)

    # ------------------------------------------------------------------
    # Cost reporting
    # ------------------------------------------------------------------

    def simulated_cost(self) -> float:
        return self.cost_model.cost(self.buffer.stats)

    def reset_costs(self) -> None:
        self.buffer.reset_stats()
