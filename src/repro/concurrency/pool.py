"""Background draining of the DEFERRED revalidation queue.

The paper runs rematerialization in separate low-priority transactions
(Sec. 4.1) so an update returns after *marking* stale entries and the
freshness work proceeds off the critical path.  The single-threaded
reproduction approximates that with the DEFERRED strategy — queue on
invalidate, drain on demand — but the drain still runs on the caller's
thread.  :class:`RevalidationWorkerPool` finishes the decoupling: N
daemon threads wait on the scheduler's ready signal and drain it in
small batches under the object base's update lock, so foreground
readers (which only take GMR-entry read locks) keep flowing while
maintenance catches up.

Shutdown/consistency protocol: :meth:`quiesce` wakes the workers and
blocks until the queue is empty and no drain is in flight — the point
at which the Def. 3.2 oracle and checkpointing are meaningful.
"""

from __future__ import annotations

import threading
import warnings
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import GMRManager


class RevalidationWorkerPool:
    """Daemon threads that drain a manager's revalidation scheduler.

    Workers sleep on a condition variable; ``notify()`` (wired to the
    scheduler's ``on_ready`` hook) wakes them when an entry is queued,
    and a short timed wait re-checks for delayed retries becoming due.
    Each drain claims the object base's update lock, so a batch of
    rematerializations is serialized against foreground updates exactly
    like a synchronous ``revalidate()`` call — only the *thread* doing
    the work changes.
    """

    def __init__(
        self,
        manager: "GMRManager",
        workers: int,
        *,
        batch: int = 8,
        poll_interval: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("RevalidationWorkerPool needs workers >= 1")
        self._manager = manager
        self._scheduler = manager.scheduler
        self._schedulers = manager.schedulers
        self._db_lock = manager._maint_lock
        self._shard_locks = manager._shard_locks
        self.workers = workers
        self._batch = batch
        self._poll_interval = poll_interval
        self._cond = threading.Condition()
        self._stopping = False
        self._active = 0
        self._threads: list[threading.Thread] = []
        registry = manager.metrics
        self._g_workers = registry.gauge("pool.workers")
        self._g_active = registry.gauge("pool.active")
        self._c_drained = registry.counter("pool.drained")

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        self._stopping = False
        for scheduler in self._schedulers:
            scheduler.on_ready = self.notify
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._run,
                name=f"repro-reval-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        self._g_workers.set(self.workers)

    def stop(self, timeout: float = 5.0) -> bool:
        """Signal the workers to exit and join them.

        Returns True once every worker has confirmed exit.  A worker
        stuck behind a long-held update lock (e.g. a large batch scope
        on another thread) can outlive the join timeout; such
        stragglers are kept in ``_threads`` so a later ``stop()`` can
        re-join them, and False is returned so callers (``db.close()``)
        know not to tear down resources — the WAL in particular — that
        a late drain could still touch.
        """
        for scheduler in self._schedulers:
            if scheduler.on_ready is self.notify:
                scheduler.on_ready = None
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        stragglers: list[threading.Thread] = []
        for thread in self._threads:
            thread.join(timeout)
            if thread.is_alive():
                stragglers.append(thread)
        self._threads = stragglers
        if stragglers:
            warnings.warn(
                f"{len(stragglers)} revalidation worker(s) did not exit "
                f"within {timeout}s (likely blocked on the update lock); "
                "call stop() again once the lock is released",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        self._g_workers.set(0)
        return True

    def notify(self) -> None:
        """Wake the workers (scheduler ``on_ready`` hook)."""
        with self._cond:
            self._cond.notify_all()

    # -- the worker loop -------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and (
                    self._paused() or self._ready_total() == 0
                ):
                    # While storage health pauses drains, queued entries
                    # stay put; the timed wait re-checks for a re-arm.
                    self._cond.wait(self._poll_interval)
                if self._stopping:
                    return
                self._active += 1
            try:
                self._g_active.set(self._active)
                drained = self._drain_once()
                if drained:
                    self._c_drained.inc(drained)
            finally:
                with self._cond:
                    self._active -= 1
                    # A quiescer may be waiting on "queue empty and no
                    # drain in flight"; let it re-check.
                    self._cond.notify_all()
                self._g_active.set(self._active)

    def _ready_total(self) -> int:
        """Runnable entries across every shard's scheduler."""
        return sum(s.ready_pending() for s in self._schedulers)

    def _paused(self) -> bool:
        """True while degraded storage health pauses background drains.

        A rematerialization that cannot log its revalidation must not
        commit (see :mod:`repro.core.health`); the scheduler enforces
        the same rule inside ``revalidate``, this check just keeps the
        workers from spinning hot against a queue they may not touch.
        """
        return self._manager._db.health.read_only

    def _unsettled_total(self) -> int:
        """Runnable entries plus transient (epoch-conflict) defers still
        ripening — what :meth:`quiesce` must wait out.  Retry backoff
        and quarantine parking are excluded, as ever."""
        return sum(s.unsettled_pending() for s in self._schedulers)

    def _drain_once(self) -> int:
        """Drain up to one batch of ready entries.

        Unsharded, a batch runs under the object base's update lock —
        identical to a synchronous ``revalidate()``.  Sharded, the
        update lock is *not* taken: each entry is drained under its own
        shard's lock (one entry per lock hold, so foreground updates
        and quiescers are never stalled behind a whole batch) and the
        manager's write-epoch protocol discards any result that raced a
        concurrent update.
        """
        if self._shard_locks is None:
            with self._db_lock:
                return self._scheduler.revalidate(max_entries=self._batch)
        drained = 0
        budget = self._batch
        for shard, scheduler in enumerate(self._schedulers):
            while budget > 0 and scheduler.ready_pending():
                with self._shard_locks[shard]:
                    done = scheduler.revalidate(max_entries=1)
                if not done:
                    break
                drained += done
                budget -= done
            if budget <= 0:
                break
        return drained

    # -- synchronization -------------------------------------------------------

    def idle(self) -> bool:
        """True when nothing is queued, due, being drained, or parked
        in a transient epoch-conflict defer (those ripen within
        milliseconds and must not be mistaken for convergence — a
        conflicted entry is still INVALID)."""
        with self._cond:
            return self._active == 0 and self._unsettled_total() == 0

    def quiesce(self, timeout: float = 30.0) -> bool:
        """Block until the queue has fully drained (or ``timeout``).

        Returns True on convergence.  Entries parked in the delayed
        retry heap (backoff not yet elapsed) do not count as pending —
        quiescence means "nothing runnable now", matching what a
        synchronous ``scheduler.revalidate()`` would have processed.

        If the calling thread already holds the update lock (e.g.
        quiescing inside a ``db.batch()`` scope or an operation body)
        the workers can never acquire it, so waiting on the pool would
        spin until timeout; that case is detected and the queue is
        drained synchronously on the calling thread instead (the lock
        is reentrant).
        """
        import time

        if self._shard_locks is None and self._holds_db_lock():
            scheduler = self._scheduler
            while scheduler.ready_pending():
                drained = scheduler.revalidate(max_entries=self._batch)
                if drained:
                    self._c_drained.inc(drained)
                else:  # pragma: no cover - defensive against a stuck queue
                    break
            # Workers that already claimed ``_active`` are blocked on
            # the lock we hold: they cannot be mid-mutation, and will
            # wake to an empty queue, so this *is* quiescence.
            return self._scheduler.ready_pending() == 0
        if self._shard_locks is not None and self._holds_db_lock():
            # Sharded drains never take the update lock, so workers
            # keep making progress even while the caller holds it; but
            # drain synchronously too (shard locks are reentrant) so a
            # quiesce inside a ``db.batch()`` scope converges without
            # waiting on worker wakeups.
            for shard, scheduler in enumerate(self._schedulers):
                while scheduler.ready_pending():
                    with self._shard_locks[shard]:
                        drained = scheduler.revalidate(max_entries=self._batch)
                    if drained:
                        self._c_drained.inc(drained)
                    else:  # pragma: no cover - stuck/deferred entries
                        break
        deadline = time.monotonic() + timeout
        with self._cond:
            self._cond.notify_all()
        while True:
            if self.idle():
                return True
            if time.monotonic() >= deadline:
                return False
            with self._cond:
                self._cond.notify_all()
                self._cond.wait(0.005)

    def _holds_db_lock(self) -> bool:
        """True when the calling thread owns the object base's update
        lock (CPython RLock ``_is_owned``; conservatively False when
        the probe is unavailable)."""
        is_owned = getattr(self._db_lock, "_is_owned", None)
        if is_owned is None:  # pragma: no cover - non-CPython fallback
            return False
        try:
            return bool(is_owned())
        except Exception:  # pragma: no cover - defensive
            return False

    def __enter__(self) -> "RevalidationWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
