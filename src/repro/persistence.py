"""Saving and loading an object base (objects + materializations).

An object base persists as a JSON document holding the object graph
(OIDs preserved), the attribute indexes, every GMR's definition and
extension, and the Reverse Reference Relation — everything except code.
Operation bodies and restriction predicates are Python objects, so the
loading application first rebuilds the *schema* (type definitions and
operations, e.g. by calling its usual ``build_*_schema`` function) and
then loads the state into it::

    dump_object_base(db, "base.json")
    ...
    fresh = ObjectBase()
    build_geometry_schema(fresh)
    load_object_base(fresh, "base.json")

GMR entries whose results are not JSON-representable (complex Python
values such as the company example's matrix lines) are persisted as
*invalid* entries: they rematerialize on first access after loading —
the lazy strategy's behaviour, applied to a cold start.

On top of the snapshot sits crash consistency: :func:`checkpoint`
atomically dumps the base and truncates its attached write-ahead log
(:mod:`repro.storage.wal`), and :func:`recover` loads a checkpoint and
replays the log's committed prefix through the ordinary instrumented
update paths, rebuilding GMR extensions, validity flags and the RRR as
a side effect.  :func:`base_state` and :func:`verify_recovery` support
differential durability testing.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.health import HealthState
from repro.core.restricted import RestrictionSpec
from repro.core.strategies import Strategy
from repro.errors import ReproError, StorageUnavailableError
from repro.gom.oid import Oid
from repro.storage.faultfs import REAL_FS, FileSystem
from repro.storage.wal import (
    WriteAheadLog,
    committed_prefix,
    read_records_merged,
)
from repro.storage.wal import decode_value as _decode_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.gom.database import ObjectBase

FORMAT_VERSION = 1


class PersistenceError(ReproError):
    """The document cannot be produced or applied."""


# -- value encoding --------------------------------------------------------------


def _encode_value(value: Any) -> Any:
    if isinstance(value, Oid):
        return {"$oid": value.value}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    raise PersistenceError(f"value {value!r} is not persistable")


def _try_encode(value: Any) -> tuple[bool, Any]:
    try:
        return True, _encode_value(value)
    except PersistenceError:
        return False, None


# -- dumping ---------------------------------------------------------------------


def _write_snapshot(document: dict, path: str, fs: FileSystem) -> None:
    """Write ``document`` to ``path`` with the atomic-replace protocol.

    temp file (``<path>.tmp``) + flush + fsync + atomic rename +
    directory fsync: a failure at *any* step — including a torn write
    into the temp file — leaves whatever previously lived at ``path``
    intact and readable.  The temp file is removed on failure
    (best-effort; a leftover ``.tmp`` is inert either way).
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = path + ".tmp"
    try:
        handle = fs.open(tmp_path, "w", encoding="utf-8")
        try:
            json.dump(document, handle)
            handle.flush()
            fs.fsync(handle)
        finally:
            handle.close()
        fs.replace(tmp_path, path)
        fs.fsync_dir(directory)
    except BaseException:
        try:
            fs.remove(tmp_path)
        except OSError:
            pass
        raise


def dump_object_base(
    db: "ObjectBase", path: str, *, fs: FileSystem = REAL_FS
) -> None:
    """Write the object base's state to ``path`` as JSON.

    Atomic like :func:`checkpoint` (never truncate-in-place): a dump
    that dies mid-write leaves any previous snapshot at ``path``
    untouched.
    """
    document = to_document(db)
    _write_snapshot(document, path, fs)


def to_document(db: "ObjectBase") -> dict:
    # In-flight state cannot round-trip: an open batch holds deferred
    # maintenance events (closures over live queue objects) and an open
    # transaction holds an undo log — both would be silently dropped, so
    # both are rejected up front.
    if db.has_gmr_manager and db.gmr_manager._batch_depth > 0:
        raise PersistenceError(
            "cannot dump while a batch scope is open: pending maintenance "
            "events are not persistable — exit the batch (flush) first"
        )
    if db._transactions is not None and db._transactions.in_transaction:
        raise PersistenceError(
            "cannot dump inside an open transaction: commit or abort first"
        )
    objects = []
    for obj in db.objects.iter_objects():
        record: dict[str, Any] = {
            "oid": obj.oid.value,
            "type": obj.type_name,
        }
        if obj.data is not None:
            record["data"] = {
                attr: _encode_value(value) for attr, value in obj.data.items()
            }
        if obj.elements is not None:
            record["elements"] = [
                _encode_value(element) for element in obj.elements
            ]
        objects.append(record)

    indexes = [
        {"type": type_name, "attr": attr}
        for (type_name, attr) in db._attr_indexes
    ]

    gmrs = []
    rrr_triples: list[dict] = []
    if db.has_gmr_manager:
        manager = db.gmr_manager
        for gmr in manager.gmrs():
            rows = []
            for row in gmr.rows():
                results = []
                valid = []
                for value, flag in zip(row.results, row.valid):
                    ok, encoded = _try_encode(value)
                    if ok:
                        results.append(encoded)
                        valid.append(flag)
                    else:
                        # Not JSON-representable: reload as invalid and
                        # let the first access rematerialize.
                        results.append(None)
                        valid.append(False)
                record = {
                    "args": [_encode_value(arg) for arg in row.args],
                    "results": results,
                    "valid": valid,
                }
                if any(row.error):
                    record["error"] = list(row.error)
                if row.support:
                    # Delta-engine support state only survives for
                    # columns whose result survived the encoding above.
                    support = {
                        str(index): state
                        for index, state in sorted(row.support.items())
                        if valid[index]
                    }
                    if support:
                        record["support"] = support
                rows.append(record)
            gmrs.append(
                {
                    "name": gmr.name,
                    "functions": [
                        {"type": info.type_name, "op": info.op_name}
                        for info in gmr.functions
                    ],
                    "complete": gmr.complete,
                    "strategy": gmr.strategy.value,
                    "storage": gmr.store.storage,
                    "capacity": gmr.capacity,
                    "restricted": gmr.restriction is not None,
                    "rows": rows,
                }
            )
        for oid, fid, args in manager.rrr.triples():
            rrr_triples.append(
                {
                    "oid": oid.value,
                    "fid": fid,
                    "args": [_encode_value(arg) for arg in args],
                }
            )

    document = {
        "format": FORMAT_VERSION,
        # The allocator high-water mark, not derivable from the live
        # objects: deleted objects burned OIDs that must stay burned.
        "next_oid": db.objects.peek_next_oid().value,
        "objects": objects,
        "attr_indexes": indexes,
        "gmrs": gmrs,
        "rrr": rrr_triples,
        # Storage health round-trips with the snapshot: a FAILED base
        # must not resurrect as HEALTHY by being reloaded.
        "health": db.health.dump_state(),
    }
    if db.has_gmr_manager:
        manager = db.gmr_manager
        document["stats"] = dict(vars(manager.stats))
        scheduler = manager.dump_scheduler_state()
        scheduler["heap"] = [
            [priority, seq, fid, [_encode_value(arg) for arg in args]]
            for priority, seq, fid, args in scheduler["heap"]
        ]
        scheduler["delayed"] = [
            [remaining, seq, fid, [_encode_value(arg) for arg in args]]
            for remaining, seq, fid, args in scheduler["delayed"]
        ]
        scheduler["attempts"] = [
            [fid, [_encode_value(arg) for arg in args], count]
            for fid, args, count in scheduler["attempts"]
        ]
        document["scheduler"] = scheduler
        # A crash must not resurrect a quarantined function as healthy:
        # breaker state (cooldowns as remaining durations) is part of
        # the snapshot.  The FaultPolicy itself is code-level
        # configuration and is not persisted.
        document["breaker"] = manager.breaker.dump_state()
        # Monotonic observability state (metric counters/histograms and
        # the per-function explain tallies) survives the checkpoint so a
        # recovered base keeps counting where the crashed one stopped.
        # Trace buffers and last-wave detail are ephemeral by design.
        document["observe"] = {
            "metrics": manager.metrics.dump_state(),
            "tallies": {
                fid: dict(tally)
                for fid, tally in manager.fid_tallies.items()
            },
        }
    return document


# -- loading ---------------------------------------------------------------------


def load_object_base(
    db: "ObjectBase",
    path: str,
    *,
    restrictions: dict[str, RestrictionSpec] | None = None,
) -> None:
    """Load a dumped state into ``db`` (schema must already be defined).

    ``restrictions`` re-supplies the restriction specs of restricted GMRs
    by GMR name (predicates contain code and are not persisted).
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    from_document(db, document, restrictions=restrictions)


def from_document(
    db: "ObjectBase",
    document: dict,
    *,
    restrictions: dict[str, RestrictionSpec] | None = None,
) -> None:
    if document.get("format") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported document format {document.get('format')!r}"
        )
    if len(db.objects) > 0:
        raise PersistenceError("load requires an empty object base")
    restrictions = restrictions or {}

    for record in document["objects"]:
        data = None
        if "data" in record:
            data = {
                attr: _decode_value(value)
                for attr, value in record["data"].items()
            }
        elements = None
        if "elements" in record:
            elements = [_decode_value(element) for element in record["elements"]]
        db.objects.restore(
            Oid(record["oid"]), record["type"], data=data, elements=elements
        )
    # Older documents lack the field; restore() already advanced past
    # every surviving OID, this additionally re-burns deleted ones.
    db.objects.advance_oid_floor(document.get("next_oid", 0))

    for index in document["attr_indexes"]:
        db.create_attr_index(index["type"], index["attr"])

    # Restored before the materialization early-return below: health
    # state travels with every document, GMRs or not.
    health = document.get("health")
    if health:
        db.health.restore_state(health)

    if not (
        document["gmrs"]
        or document.get("stats")
        or document.get("scheduler")
        or document.get("observe")
    ):
        return
    manager = db.gmr_manager
    for entry in document["gmrs"]:
        restriction = restrictions.get(entry["name"])
        if entry["restricted"] and restriction is None:
            raise PersistenceError(
                f"GMR {entry['name']} is restricted; pass its "
                f"RestrictionSpec via restrictions={{...}}"
            )
        # A checkpoint is outside input: a strategy or row placement
        # this version does not implement (older ones wrote
        # ``"strategy": "snapshot"`` and ``"row_placement":
        # "with_arguments"``) is refused by name, not by a raw
        # ValueError/TypeError.  ``"row_placement": "separate"`` names
        # the one placement there is and is ignored.
        try:
            strategy = Strategy(entry["strategy"])
        except ValueError:
            raise PersistenceError(
                f"GMR {entry['name']}: unknown strategy "
                f"{entry['strategy']!r} (known: "
                f"{', '.join(member.value for member in Strategy)})"
            ) from None
        if entry.get("row_placement", "separate") != "separate":
            raise PersistenceError(
                f"GMR {entry['name']}: unsupported row_placement "
                f"{entry['row_placement']!r} (rows are always stored in "
                f"the GMR's own segment)"
            )
        gmr = manager.materialize(
            [(fn["type"], fn["op"]) for fn in entry["functions"]],
            complete=entry["complete"],
            strategy=strategy,
            storage=entry["storage"],
            name=entry["name"],
            capacity=entry.get("capacity"),
            restriction=restriction,
            populate=False,
        )
        for row in entry["rows"]:
            args = tuple(_decode_value(arg) for arg in row["args"])
            gmr.ensure_row(args)
            for fid, value, flag in zip(gmr.fids, row["results"], row["valid"]):
                if flag:
                    gmr.set_result(args, fid, _decode_value(value))
            for fid, errored in zip(gmr.fids, row.get("error", [])):
                if errored:
                    gmr.mark_error(args, fid)
            for index, state in row.get("support", {}).items():
                column = int(index)
                if column < len(gmr.fids):
                    gmr.set_support_state(args, gmr.fids[column], dict(state))

    for triple in document["rrr"]:
        manager._rrr_insert(
            Oid(triple["oid"]),
            triple["fid"],
            tuple(_decode_value(arg) for arg in triple["args"]),
        )

    stats = document.get("stats")
    if stats:
        for name, value in stats.items():
            if hasattr(manager.stats, name):
                setattr(manager.stats, name, value)
    scheduler = document.get("scheduler")
    if scheduler:
        manager.restore_scheduler_state(
            {
                "heap": [
                    [
                        priority,
                        seq,
                        fid,
                        [_decode_value(arg) for arg in args],
                    ]
                    for priority, seq, fid, args in scheduler.get("heap", [])
                ],
                "delayed": [
                    [
                        remaining,
                        seq,
                        fid,
                        [_decode_value(arg) for arg in args],
                    ]
                    for remaining, seq, fid, args in scheduler.get(
                        "delayed", []
                    )
                ],
                "attempts": [
                    [fid, [_decode_value(arg) for arg in args], count]
                    for fid, args, count in scheduler.get("attempts", [])
                ],
                "seq": scheduler.get("seq", 0),
                "frequency": scheduler.get("frequency", {}),
            }
        )
    breaker = document.get("breaker")
    if breaker:
        manager.breaker.restore_state(breaker)
    observe = document.get("observe")
    if observe:
        manager.metrics.restore_state(observe.get("metrics", {}))
        for fid, tally in observe.get("tallies", {}).items():
            manager._tally(fid).update(tally)


# -- durability: checkpoint + WAL recovery ---------------------------------------


@dataclass(frozen=True)
class CheckpointReport:
    """What :func:`checkpoint` wrote."""

    path: str
    #: Objects in the snapshot.
    objects: int = 0
    #: Materialized GMR rows in the snapshot (across all GMRs).
    gmr_rows: int = 0
    #: Whether an attached WAL was truncated behind the snapshot.
    wal_truncated: bool = False


def checkpoint(
    db: "ObjectBase", path: str, *, fs: FileSystem = REAL_FS
) -> CheckpointReport:
    """Atomically snapshot the base to ``path`` and truncate its WAL.

    The snapshot is written to ``<path>.tmp`` and renamed into place
    (after an fsync of the file and then of its directory), so a crash
    or I/O error during checkpointing leaves the previous checkpoint
    intact; only once the new one is durable is the attached write-ahead
    log truncated.  Scheduler queue, ``ManagerStats`` and the storage
    health state are part of the snapshot.  Raises
    :class:`PersistenceError` while a batch scope or a transaction is
    open (those are the atomicity boundaries).  Returns a
    :class:`CheckpointReport`.

    With a worker pool attached (``workers > 0``) the base is quiesced
    first — the pool drains every runnable revalidation — and the
    document is built under the update lock, so the snapshot is a
    transaction-consistent cut: no drain or elementary update is in
    flight while the state is serialized.

    Health interplay: a FAILED base refuses to checkpoint (its on-disk
    log tail is not trustworthy).  A DEGRADED_READ_ONLY base *may*
    checkpoint — snapshotting consistent in-memory state is exactly what
    one wants from a base whose log is refusing appends — but the
    quiesce is skipped (drains are paused while degraded and would only
    time out).  A snapshot write that fails records the I/O error and
    degrades; a WAL truncation that fails *after* the rename escalates
    to FAILED, because the new checkpoint plus the stale log would
    replay already-absorbed updates on recovery.

    ``fs`` substitutes the file system (fault injection); the default
    performs real I/O.
    """
    health = db.health
    if health.state is HealthState.FAILED:
        raise StorageUnavailableError(
            f"storage is failed: {health.reason or 'unknown cause'}; "
            "refusing to checkpoint over a trustworthy snapshot"
        )
    tracer = getattr(db, "observe", None)
    tracer = tracer.tracer if tracer is not None else None
    span = None
    if tracer is not None and tracer.enabled:
        span = tracer.begin("checkpoint", path=path)
    try:
        pool = getattr(db, "worker_pool", None)
        if pool is not None and health.writable:
            pool.quiesce()
        freeze = getattr(db, "_freeze", None)
        with freeze() if freeze is not None else nullcontext():
            document = to_document(db)
        try:
            _write_snapshot(document, path, fs)
        except Exception as exc:
            health.record_io_error(exc, site="checkpoint")
            raise StorageUnavailableError(
                f"checkpoint write failed (previous snapshot at {path} "
                f"left intact): {exc}"
            ) from exc
        truncated = db.wal is not None
        if db.wal is not None:
            try:
                db.wal.truncate()
            except Exception as exc:
                health.fail(f"wal.truncate after checkpoint rename: {exc}")
                raise StorageUnavailableError(
                    "checkpoint is durable but the write-ahead log could "
                    f"not be truncated behind it: {exc}; recovery from "
                    "this pair would double-replay absorbed updates"
                ) from exc
        report = CheckpointReport(
            path=path,
            objects=len(document["objects"]),
            gmr_rows=sum(len(entry["rows"]) for entry in document["gmrs"]),
            wal_truncated=truncated,
        )
    finally:
        if span is not None:
            tracer.end(span)
    return report


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` found and did."""

    records_scanned: int = 0
    records_replayed: int = 0
    #: Trailing records inside a transaction that never terminated —
    #: the uncommitted suffix a crash left behind, discarded.
    records_discarded: int = 0
    #: Batch scopes the crash left open; recovery closes (flushes) them.
    batches_closed: int = 0


def recover(
    db: "ObjectBase",
    checkpoint_path: str,
    wal_path: str | None = None,
    *,
    restrictions: dict[str, RestrictionSpec] | None = None,
) -> RecoveryReport:
    """Load the checkpoint, then replay the WAL tail into ``db``.

    ``db`` must be empty with its schema already rebuilt (exactly like
    :func:`load_object_base`).  The committed prefix of the log — torn
    final frames and unterminated transaction suffixes dropped — is
    replayed through the ordinary instrumented update paths, so GMR
    extensions, validity flags, the RRR and ``ObjDepFct`` markings
    self-maintain during replay; batch markers reproduce the original
    flush timing.  The WAL is *not* attached to ``db``; callers that want
    to continue logging attach one afterwards.

    Recovery *consumes* the log: it closes scopes the crash left open
    and drops the uncommitted suffix, so the replayed log's tail no
    longer means what it says.  Resume service behind a fresh
    :func:`checkpoint` (which truncates the newly attached WAL) — never
    append to the log that was just replayed.
    """
    load_object_base(db, checkpoint_path, restrictions=restrictions)
    if wal_path is None:
        report = RecoveryReport()
    else:
        # Sharded bases persist per-shard WAL segments next to the base
        # path; read_records_merged stitches them back into one global
        # sequence (and degrades to a plain read for a single-file log).
        records = read_records_merged(wal_path)
        durable, discarded = committed_prefix(records)
        replayed, closed = _replay(db, durable)
        report = RecoveryReport(
            records_scanned=len(records),
            records_replayed=replayed,
            records_discarded=discarded,
            batches_closed=closed,
        )
    # Span ids and sequence numbers restart after a crash; the marker
    # event makes the discontinuity explicit in any attached sink.
    db.observe.tracer.reset(
        marker="recovery",
        checkpoint=checkpoint_path,
        records_replayed=report.records_replayed,
    )
    return report


def _replay(db: "ObjectBase", records: list) -> tuple[int, int]:
    """Re-execute committed WAL records; returns (replayed, batches closed)."""
    replayed = 0
    batch_stack: list = []
    closed = 0
    with db.wal_replay_scope():
        try:
            for record in records:
                kind = record["kind"]
                if kind == "set":
                    db.set_attr(
                        Oid(record["oid"]),
                        record["attr"],
                        _decode_value(record["value"]),
                    )
                elif kind == "insert":
                    db.collection_insert(
                        Oid(record["oid"]),
                        _decode_value(record["value"]),
                        position=record.get("pos"),
                    )
                elif kind == "remove":
                    db.collection_remove(
                        Oid(record["oid"]), _decode_value(record["value"])
                    )
                elif kind == "create":
                    data = record.get("data")
                    elements = record.get("elements")
                    db.replay_create(
                        Oid(record["oid"]),
                        record["type"],
                        data=(
                            {a: _decode_value(v) for a, v in data.items()}
                            if data is not None
                            else None
                        ),
                        elements=(
                            [_decode_value(e) for e in elements]
                            if elements is not None
                            else None
                        ),
                    )
                elif kind == "delete":
                    db.delete(Oid(record["oid"]))
                elif kind == "batch_begin":
                    scope = db.batch()
                    scope.__enter__()
                    batch_stack.append(scope)
                elif kind == "batch_flush":
                    db.gmr_manager.flush_batch()
                elif kind == "batch_end":
                    if batch_stack:
                        batch_stack.pop().__exit__(None, None, None)
                elif kind in ("txn_begin", "txn_commit", "txn_abort"):
                    # Atomicity was already resolved by committed_prefix;
                    # an aborted scope's inverse updates replay and net out.
                    pass
                else:
                    raise PersistenceError(
                        f"unknown WAL record kind {kind!r}"
                    )
                replayed += 1
        finally:
            # The crash left these batch scopes open: close them, which
            # flushes their pending maintenance (exactly what the live
            # process would have done at scope exit).
            closed = len(batch_stack)
            while batch_stack:
                batch_stack.pop().__exit__(None, None, None)
    return replayed, closed


# -- differential state digest ---------------------------------------------------


def base_state(db: "ObjectBase") -> dict:
    """A canonical digest of everything durability must preserve.

    Two object bases with equal digests agree on the object graph, every
    GMR's extension (arguments, results, validity flags), the RRR, the
    ``ObjDepFct`` markings, the scheduler's pending-revalidation queue
    and the manager counters.  Results that are not JSON-representable
    project to *invalid* — the same projection the dump applies — so a
    digest compares a base with its own persisted round-trip cleanly.
    """
    state: dict[str, Any] = {
        "objects": [
            {
                "oid": obj.oid.value,
                "type": obj.type_name,
                "data": (
                    {a: _encode_value(v) for a, v in obj.data.items()}
                    if obj.data is not None
                    else None
                ),
                "elements": (
                    [_encode_value(e) for e in obj.elements]
                    if obj.elements is not None
                    else None
                ),
            }
            for obj in sorted(
                db.objects.iter_objects(), key=lambda o: o.oid.value
            )
        ]
    }
    if not db.has_gmr_manager:
        state.update(gmrs={}, rrr=[], obj_dep={}, scheduler=None, stats=None)
        return state
    manager = db.gmr_manager
    gmrs: dict[str, list] = {}
    for gmr in manager.gmrs():
        rows = []
        for row in gmr.rows():
            valid = []
            results = []
            for value, flag in zip(row.results, row.valid):
                ok, encoded = _try_encode(value)
                usable = bool(flag and ok)
                valid.append(usable)
                results.append(encoded if usable else None)
            support = tuple(
                (index, tuple(sorted(state_dict.items())))
                for index, state_dict in sorted((row.support or {}).items())
                if valid[index]
            )
            rows.append(
                (
                    tuple(_encode_value(arg) for arg in row.args),
                    tuple(valid),
                    tuple(results),
                    tuple(row.error),
                    support,
                )
            )
        rows.sort(key=repr)
        gmrs[gmr.name] = rows
    state["gmrs"] = gmrs
    state["rrr"] = sorted(
        (
            (oid.value, fid, tuple(_encode_value(arg) for arg in args))
            for oid, fid, args in manager.rrr.triples()
        ),
        key=repr,
    )
    state["obj_dep"] = {
        obj.oid.value: tuple(sorted(obj.obj_dep_fct))
        for obj in db.objects.iter_objects()
        if obj.obj_dep_fct
    }
    scheduler = manager.dump_scheduler_state()
    state["scheduler"] = {
        "pending": sorted(
            (
                (
                    priority,
                    seq,
                    fid,
                    tuple(_encode_value(arg) for arg in args),
                )
                for priority, seq, fid, args in scheduler["heap"]
            ),
            key=repr,
        ),
        # Backoff deadlines are clock readings and differ across a
        # restart by construction; the digest compares *which* entries
        # are waiting, not when they become ripe.
        "delayed": sorted(
            (
                (seq, fid, tuple(_encode_value(arg) for arg in args))
                for _remaining, seq, fid, args in scheduler["delayed"]
            ),
            key=repr,
        ),
        "attempts": sorted(
            (
                (fid, tuple(_encode_value(arg) for arg in args), count)
                for fid, args, count in scheduler["attempts"]
            ),
            key=repr,
        ),
        "frequency": scheduler["frequency"],
    }
    # Same projection for the breaker: remaining cooldown is
    # time-dependent, everything else must survive a crash exactly.
    breaker = manager.breaker.dump_state()
    state["breaker"] = {
        fid: {
            key: value
            for key, value in record.items()
            if key != "cooldown_remaining"
        }
        for fid, record in breaker["fids"].items()
    }
    state["stats"] = dict(vars(manager.stats))
    return state


def verify_recovery(
    db: "ObjectBase",
    rebuild: "Callable[[ObjectBase], Any]",
    *,
    restrictions: dict[str, RestrictionSpec] | None = None,
    directory: str | None = None,
    mutate: "Callable[[ObjectBase], Any] | None" = None,
) -> "ObjectBase":
    """Checkpoint ``db``, crash-simulate, recover, and assert equivalence.

    The full durability cycle as a one-call check: attach a WAL (if none
    is attached), ``checkpoint()``, optionally run ``mutate(db)`` so the
    log has a tail to replay, then recover checkpoint + WAL into a fresh
    base whose schema ``rebuild`` re-creates, and compare
    :func:`base_state` digests.  Raises :class:`PersistenceError` on any
    divergence; returns the recovered base.  ``mutate`` must stick to
    replay-faithful updates (no queries, no strictly-encapsulated public
    operations — see :mod:`repro.gom.instrumentation`).
    """
    owns_directory = directory is None
    if owns_directory:
        directory = tempfile.mkdtemp(prefix="repro-durability-")
    ckpt_path = os.path.join(directory, "checkpoint.json")
    attached = None
    if db.wal is None:
        attached = WriteAheadLog(os.path.join(directory, "wal.log"))
        db.attach_wal(attached)
    wal_path = db.wal.path
    if wal_path is None:
        raise PersistenceError(
            "verify_recovery needs a path-backed WAL to re-read"
        )
    try:
        checkpoint(db, ckpt_path)
        if mutate is not None:
            mutate(db)
        fresh = type(db)(
            enforce_encapsulation=db.enforce_encapsulation, level=db.level
        )
        rebuild(fresh)
        recover(fresh, ckpt_path, wal_path, restrictions=restrictions)
        live = base_state(db)
        recovered = base_state(fresh)
        if live != recovered:
            diverging = [
                key for key in live if live[key] != recovered.get(key)
            ]
            raise PersistenceError(
                "recovered base diverges from the live one in: "
                + ", ".join(diverging)
            )
        return fresh
    finally:
        if attached is not None:
            db.detach_wal()
            attached.close()
        if owns_directory:
            import shutil

            shutil.rmtree(directory, ignore_errors=True)
