"""The unified configuration surface: ``MaterializationConfig``.

Before this module the knobs of the maintenance machinery were scattered
— instrumentation level on ``ObjectBase(level=...)``, strategy per
``materialize(...)`` call, the fault pipeline on
``manager.fault_policy``, batching implicit in ``db.batch()`` scopes,
and no observability settings at all.  :class:`MaterializationConfig`
collects them into one keyword-only dataclass accepted by
``ObjectBase(config=...)``; :class:`ObserveConfig` is its observability
corner (tracing on/off, sinks, metrics on/off).

``ObjectBase(level=...)`` alone stays as shorthand for
``MaterializationConfig(level=...)``; the removed spellings are listed
in the migration table in ``docs/API.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.guard import FaultPolicy
from repro.core.strategies import Strategy
from repro.gom.instrumentation import InstrumentationLevel
from repro.observe.metrics import MetricsRegistry
from repro.observe.trace import (
    CallbackSink,
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    Tracer,
)


@dataclass(kw_only=True)
class ObserveConfig:
    """Observability settings of one object base."""

    #: Emit structured trace spans/events.  Off by default — tracing is
    #: zero-overhead when disabled (call sites guard on this flag).
    trace: bool = False
    #: Maintain the metrics registry.  On by default; ``False`` makes
    #: every registry factory return the shared no-op metric and skips
    #: all per-fid accounting (the pre-observability baseline path).
    metrics: bool = True
    #: Capacity of the default in-memory ring sink.  ``None`` with
    #: ``trace=True`` still creates one (of 1024) unless another sink is
    #: configured, so enabling tracing always captures something.
    ring_buffer: int | None = None
    #: Write events as JSON lines to this path.
    jsonl_path: str | None = None
    #: Rotate the JSONL file after this many bytes (``None`` = never).
    jsonl_max_bytes: int | None = None
    #: Keep this many rotated JSONL files.
    jsonl_max_files: int = 3
    #: Hand every event to this callable (a :class:`CallbackSink`).
    callback: Callable[[TraceEvent], Any] | None = None
    #: Stamp every trace event with the emitting thread's id
    #: (``fields["thread"]``) — useful with ``workers > 0`` to separate
    #: pool-drain spans from foreground ones.  Off by default so
    #: single-threaded traces stay byte-identical to earlier releases.
    thread_ids: bool = False


@dataclass(kw_only=True)
class MaterializationConfig:
    """Every knob of the materialization machinery, in one place.

    Accepted by :class:`~repro.gom.database.ObjectBase` (``config=``);
    ``materialize(...)`` calls without an explicit ``strategy`` fall
    back to :attr:`strategy`.
    """

    #: Schema-rewrite notification granularity (Figures 4/5, Sec. 5.3).
    level: InstrumentationLevel = InstrumentationLevel.OBJ_DEP
    #: Default strategy for ``materialize()`` calls that do not name one.
    strategy: Strategy = Strategy.IMMEDIATE
    #: Whether ``db.batch()`` scopes defer maintenance notifications
    #: into the coalescing queue.  ``False`` turns batch scopes into
    #: pass-throughs (every notification processes eagerly).
    batching: bool = True
    #: The fault-tolerance pipeline's knobs (guard, retry, breaker).
    fault_policy: FaultPolicy = field(default_factory=FaultPolicy)
    #: Observability settings (tracing, metrics, sinks).
    observe: ObserveConfig = field(default_factory=ObserveConfig)
    #: Background revalidation workers (Sec. 4.1's decoupled
    #: low-priority rematerialization).  ``0`` (the default) keeps the
    #: object base single-threaded with today's synchronous code paths
    #: bit-for-bit; ``N > 0`` starts a
    #: :class:`~repro.concurrency.pool.RevalidationWorkerPool` of N
    #: daemon threads that drains the DEFERRED scheduler off-thread,
    #: and arms the striped GMR-entry lock layer plus the object base's
    #: update lock so concurrent readers/writers are safe.  See
    #: ``docs/CONCURRENCY.md``.
    workers: int = 0
    #: Hash partitions of the materialization engine.  ``1`` (the
    #: default) keeps the single-shard engine bit-for-bit: one update
    #: lock, one scheduler, one WAL file — no new objects are created.
    #: ``N > 1`` partitions the GMR/RRR maintenance state by
    #: ``shard_of(args)`` (:mod:`repro.concurrency.sharding`): each
    #: shard owns an update lock, a :class:`RevalidationScheduler`
    #: instance and a WAL segment file, and worker-pool drains take only
    #: the owning shard's lock — so writers on different shards no
    #: longer serialize behind one global drain.  Cross-shard
    #: invalidation waves still fan out through the ordinary
    #: batch/coalescing pipeline.  Sharding arms the same
    #: multi-threading machinery as ``workers > 0`` (entry locks, MT
    #: read path).  See the sharding section of ``docs/CONCURRENCY.md``.
    shards: int = 1
    #: Maintenance engine for updates touching materialized results:
    #: ``"recompute"`` is pure invalidate-then-recompute (compensating
    #: actions and delta declarations stay registered but inert),
    #: ``"compensate"`` (the default) runs Sec. 5.4's hand-registered
    #: compensating actions exactly as before, and ``"delta"`` enables
    #: the generalized incremental maintenance engine
    #: (:mod:`repro.core.delta`): declarative handlers and
    #: self-maintainable aggregates patch GMR entries in O(delta),
    #: falling back to compensation and then invalidation per the
    #: lattice in ``docs/DESIGN.md``.
    maintenance: str = "compensate"

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.maintenance not in ("recompute", "compensate", "delta"):
            raise ValueError(
                "maintenance must be one of 'recompute', 'compensate', "
                f"'delta'; got {self.maintenance!r}"
            )


class Observability:
    """The per-base observability facade: ``db.observe``.

    Owns the :class:`~repro.observe.trace.Tracer` and the
    :class:`~repro.observe.metrics.MetricsRegistry`, builds the sinks
    :class:`ObserveConfig` asks for, and keeps a handle on the default
    ring buffer (``db.observe.ring``) for quick inspection.
    """

    def __init__(
        self,
        config: ObserveConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config = config or ObserveConfig()
        self.tracer = Tracer(enabled=config.trace, clock=clock)
        self.tracer.thread_ids = config.thread_ids
        self.metrics = MetricsRegistry(enabled=config.metrics)
        self.ring: RingBufferSink | None = None
        if config.ring_buffer is not None:
            self.ring = self.tracer.add_sink(RingBufferSink(config.ring_buffer))
        if config.jsonl_path is not None:
            self.tracer.add_sink(
                JsonlSink(
                    config.jsonl_path,
                    max_bytes=config.jsonl_max_bytes,
                    max_files=config.jsonl_max_files,
                )
            )
        if config.callback is not None:
            self.tracer.add_sink(CallbackSink(config.callback))
        if config.trace and not self.tracer.sinks:
            # Tracing without a sink would silently drop everything.
            self.ring = self.tracer.add_sink(RingBufferSink(1024))

    def events(self) -> list[TraceEvent]:
        """The default ring buffer's contents (empty without one)."""
        return self.ring.events() if self.ring is not None else []
