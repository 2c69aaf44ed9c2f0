"""Fault injection for the durability and fault-tolerance tests.

Deliberately *independent* of :mod:`repro.storage.wal`: the frame
parser, the crash-point enumerator and the committed-prefix scanner here
are second implementations written straight from the log format's
specification, so the recovery tests are differential — a bug shared by
the production reader and the test oracle would have to be introduced
twice.

Beyond storage crashes, :class:`FlakyFunction` injects *user-code*
faults (raises and stalls at chosen call indices) into materialized
operation bodies, and :func:`check_consistency` is the invariant oracle
the function-fault matrix asserts after every injected fault.

The *I/O-error* half of the storage fault model (fail a ``write`` /
``flush`` / ``fsync`` / ``close`` once, persistently, or with a torn
partial write) lives in :mod:`repro.storage.faultfs` — in the library,
because the nightly fuzzer injects those faults too — and is re-exported
here so the test tree has one import surface for all three fault kinds
(crash / I/O error / function failure).
"""

from __future__ import annotations

import contextlib
import json
import struct
import time
import zlib

from repro.gom.oid import Oid
from repro.storage.faultfs import (  # noqa: F401  (re-exports)
    FaultEvent,
    FaultInjectingFileSystem,
    FaultPlan,
    FaultyFile,
    InjectedIOError,
    wal_file_factory,
)

_HEADER = struct.Struct(">II")


class SimulatedCrash(BaseException):
    """The process died (killed at a byte budget).

    Derives from :class:`BaseException` like ``KeyboardInterrupt``: a
    crash is not an application error, and nothing in the library should
    be able to swallow it with ``except Exception``.
    """


class CrashingFile:
    """A binary file wrapper that dies after ``budget`` durable bytes.

    Writes pass through until the budget is exhausted; the write that
    crosses it persists only the bytes up to the budget (a torn write)
    and raises :class:`SimulatedCrash`.  After the crash the file is
    dead — every further operation raises — so exactly ``budget`` bytes
    ever reach the disk, no matter how the stack unwinds.
    """

    def __init__(self, fileobj, budget: int) -> None:
        self._file = fileobj
        self._remaining = budget
        self.dead = False

    def _check(self) -> None:
        if self.dead:
            raise SimulatedCrash("write after crash")

    def write(self, data: bytes) -> int:
        self._check()
        if len(data) > self._remaining:
            self._file.write(data[: self._remaining])
            self._file.flush()
            self._remaining = 0
            self.dead = True
            raise SimulatedCrash("byte budget exhausted")
        self._file.write(data)
        self._remaining -= len(data)
        return len(data)

    def flush(self) -> None:
        self._check()
        self._file.flush()

    def seek(self, *args) -> int:
        self._check()
        return self._file.seek(*args)

    def truncate(self, *args) -> int:
        self._check()
        return self._file.truncate(*args)

    def fileno(self) -> int:
        return self._file.fileno()

    def close(self) -> None:
        self._file.close()


# -- independent log readers ------------------------------------------------------


def frame_starts(data: bytes) -> list[int]:
    """Byte offset of every intact frame, plus the end-of-log offset."""
    offsets = [0]
    position = 0
    while position + _HEADER.size <= len(data):
        length, _ = _HEADER.unpack_from(data, position)
        end = position + _HEADER.size + length
        if end > len(data):
            break
        position = end
        offsets.append(position)
    return offsets


def parse_records(data: bytes) -> list[dict]:
    """Decode every intact frame; stop silently at a torn/corrupt tail."""
    records = []
    position = 0
    while position + _HEADER.size <= len(data):
        length, checksum = _HEADER.unpack_from(data, position)
        end = position + _HEADER.size + length
        if end > len(data):
            break
        payload = data[position + _HEADER.size : end]
        if zlib.crc32(payload) != checksum:
            break
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except ValueError:
            break
        position = end
    return records


def crash_points(data: bytes) -> list[int]:
    """Every frame boundary plus mid-frame torn-write offsets.

    For each frame: the boundary before it (the crash hit between
    appends), a one-byte torn header, the header/payload seam, and a
    mid-payload tear.  The full length is excluded — that is the clean
    run, covered separately.
    """
    points: set[int] = set()
    starts = frame_starts(data)
    for start, end in zip(starts, starts[1:]):
        points.add(start)
        points.add(start + 1)
        points.add(start + _HEADER.size)
        points.add(start + (end - start) // 2)
    return sorted(points)


def committed_records(records: list[dict]) -> list[dict]:
    """The durable prefix: drop a trailing unterminated transaction.

    Aborted transactions stay — their logged inverse updates make the
    scope a net no-op under replay.
    """
    durable: list[dict] = []
    buffered: list[dict] = []
    depth = 0
    for record in records:
        kind = record["kind"]
        if kind == "txn_begin":
            depth += 1
        if depth:
            buffered.append(record)
        else:
            durable.append(record)
        if kind in ("txn_commit", "txn_abort") and depth:
            depth -= 1
            if depth == 0:
                durable.extend(buffered)
                buffered.clear()
    return durable


def _decode(value):
    if isinstance(value, dict) and set(value) == {"$oid"}:
        return Oid(value["$oid"])
    return value


# -- user-function fault injection -------------------------------------------------


class InjectedFault(RuntimeError):
    """The deliberate failure a :class:`FlakyFunction` raises."""


class FlakyFunction:
    """Make a materialized operation's body raise or stall on demand.

    Patches ``OperationDef.body`` of ``type_name.op_name`` (bodies are
    resolved at call time, so the patch takes effect immediately) —
    install it *after* ``materialize()`` so the RelAttr static analysis
    saw the real body.  Calls are counted from 0; a call whose index is
    in ``fail_at`` raises :class:`InjectedFault`, one in ``stall_at``
    sleeps ``stall_seconds`` and then computes normally (tripping a
    guard ``call_budget`` smaller than the stall).  All other calls run
    the original body untouched.
    """

    def __init__(
        self,
        db,
        type_name: str,
        op_name: str,
        *,
        fail_at=(),
        stall_at=(),
        stall_seconds: float = 0.05,
    ) -> None:
        self.fail_at = set(fail_at)
        self.stall_at = set(stall_at)
        self.stall_seconds = stall_seconds
        self.calls = 0
        self._paused = 0
        _, self._operation = db.schema.resolve_operation(type_name, op_name)
        self._original = self._operation.body
        self._operation.body = self._body

    def _body(self, *args, **kwargs):
        if self._paused:
            return self._original(*args, **kwargs)
        index = self.calls
        self.calls += 1
        if index in self.fail_at:
            raise InjectedFault(f"injected failure at call {index}")
        if index in self.stall_at:
            time.sleep(self.stall_seconds)
        return self._original(*args, **kwargs)

    @contextlib.contextmanager
    def pause(self):
        """Temporarily run the pristine body (no counting, no faults) —
        used by the consistency oracle so its recomputations do not
        consume injection indices."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def restore(self) -> None:
        """Put the original body back permanently."""
        self._operation.body = self._original


def check_consistency(db, *, injectors=()) -> list[str]:
    """The Def. 3.2 / Sec. 5.2 oracle: recompute-and-compare every GMR
    plus the RRR ↔ ObjDepFct lockstep; returns violations (empty =
    healthy).  Any ``injectors`` are paused while the oracle recomputes,
    so its own function calls never trigger (or consume) faults.
    Error-flagged entries must be invalid by construction — a stale
    *valid* row after a fault is exactly the bug class this hunts.
    """
    violations: list[str] = []
    with contextlib.ExitStack() as stack:
        for injector in injectors:
            stack.enter_context(injector.pause())
        manager = db.gmr_manager
        for gmr in manager.gmrs():
            violations.extend(gmr.check_consistency(db))
            for fid in gmr.fids:
                for args in gmr.error_args(fid):
                    if gmr.entry_state(args, fid) != "error":
                        violations.append(
                            f"{gmr.name}{args!r}.{fid}: error flag on a "
                            f"{gmr.entry_state(args, fid)} entry"
                        )
        violations.extend(manager.verify_lockstep())
    return violations


def apply_records(db, records: list[dict]) -> None:
    """Apply committed records to a live base through the public update
    API — the reference side of the differential harness."""
    batch_scopes = []
    for record in records:
        kind = record["kind"]
        if kind == "set":
            db.set_attr(Oid(record["oid"]), record["attr"], _decode(record["value"]))
        elif kind == "insert":
            db.collection_insert(
                Oid(record["oid"]),
                _decode(record["value"]),
                position=record.get("pos"),
            )
        elif kind == "remove":
            db.collection_remove(Oid(record["oid"]), _decode(record["value"]))
        elif kind == "create":
            data = record.get("data")
            elements = record.get("elements")
            db.replay_create(
                Oid(record["oid"]),
                record["type"],
                data=(
                    {a: _decode(v) for a, v in data.items()}
                    if data is not None
                    else None
                ),
                elements=(
                    [_decode(e) for e in elements]
                    if elements is not None
                    else None
                ),
            )
        elif kind == "delete":
            db.delete(Oid(record["oid"]))
        elif kind == "batch_begin":
            scope = db.batch()
            scope.__enter__()
            batch_scopes.append(scope)
        elif kind == "batch_flush":
            db.gmr_manager.flush_batch()
        elif kind == "batch_end":
            if batch_scopes:
                batch_scopes.pop().__exit__(None, None, None)
        elif kind not in ("txn_begin", "txn_commit", "txn_abort"):
            raise AssertionError(f"unexpected record kind {kind!r}")
    while batch_scopes:
        batch_scopes.pop().__exit__(None, None, None)
