"""Rematerialization strategies (Sec. 3.1 / 4.1).

``IMMEDIATE``
    An invalidated function result is recomputed as soon as the
    invalidation occurs.

``LAZY``
    The result is only marked invalid (``Vi := false``); recomputation is
    deferred until the result is next needed (or an explicit
    :meth:`~repro.core.manager.GMRManager.revalidate` sweep, the paper's
    "load falls below a threshold" case).

``DEFERRED``
    Like ``LAZY``, the invalidation only marks the result invalid — but
    it also hands the entry to the
    :class:`~repro.core.scheduler.RevalidationScheduler`, the paper's
    "system load falls below a predefined threshold" case: an idle-time
    drain rematerializes the hottest invalid entries under a time/row
    budget, so forward queries rarely pay the on-demand recomputation
    that plain ``LAZY`` defers onto them.
"""

from __future__ import annotations

from enum import Enum


class Strategy(Enum):
    """When invalidated GMR entries are recomputed."""

    IMMEDIATE = "immediate"
    LAZY = "lazy"
    DEFERRED = "deferred"

    @property
    def marks_only(self) -> bool:
        """Whether an invalidation only flips the validity flag (the
        rematerialization itself is deferred)."""
        return self in (Strategy.LAZY, Strategy.DEFERRED)
