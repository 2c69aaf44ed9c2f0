"""One workload measured: timed rounds, the counted pass, the traced pass.

A *round* is the whole life of one object base:

    build + populate + materialize (``setup_s``)
    -> untimed warm-up (first 5 % of the stream)
    -> ``gc.collect()``
    -> timed section (closed loop, one client, one op after the other)
    -> untimed verification.

Every round of a run replays the same seed's stream, so its counts
repeat exactly; a run reports the median over its rounds.  End-to-end
numbers come from rounds with nothing wrapped.  Per-layer numbers come
from a *counted* round (public counters read at the section's edges, a
counting WAL file, a cProfile'd slice after the clock stopped) and a
*traced* round (spans, over the first 25 % of the timed section).
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import resource
import statistics
import time

from repro import persistence

import trace as tracing
from workloads import (
    KIND_OF,
    QUERY_KINDS,
    Spec,
    build_app,
    make_stream,
    stream_digest,
    timed_slice,
)

#: Share of the timed section the traced pass replays.
TRACED_SHARE = 0.25
#: Every run measures at least this many rounds, so a median exists.
MIN_ROUNDS = 3


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class _Failure:
    """An op that raised; kept in place of its result."""

    def __init__(self, error: BaseException) -> None:
        self.error = repr(error)


def timed_loop(app, ops: list[tuple], recorder=None):
    """Run ``ops`` one after the other; per-op latency, logical reads
    and result.  Reading the buffer's read counter sits outside each
    op's clock."""
    apply_by_code = app.apply_by_code
    stats = app.db.buffer.stats
    clock = time.perf_counter
    latencies = [0.0] * len(ops)
    reads = [0] * len(ops)
    results: list = [None] * len(ops)
    begin = clock()
    for index, op in enumerate(ops):
        if recorder is not None:
            recorder.op_id = index
        before = stats.logical_reads
        start = clock()
        try:
            results[index] = apply_by_code[op[0]](op)
        except Exception as error:  # an op that raises is a failed op
            results[index] = _Failure(error)
        latencies[index] = clock() - start
        reads[index] = stats.logical_reads - before
    return latencies, reads, results, clock() - begin


class CountingFile:
    """A WAL backing file that counts what reaches it."""

    def __init__(self, path: str) -> None:
        self._file = open(path, "ab")
        self.writes = 0
        self.bytes = 0
        self.flushes = 0

    def write(self, data) -> int:
        self.writes += 1
        self.bytes += len(data)
        return self._file.write(data)

    def flush(self) -> None:
        self.flushes += 1
        self._file.flush()

    def counts(self) -> tuple[int, int, int]:
        return self.writes, self.bytes, self.flushes

    def __getattr__(self, name):  # seek / truncate / close / fileno
        return getattr(self._file, name)


def _state_for_recovery(db) -> dict:
    """``base_state`` without the query-side tallies (``stats``, the
    scheduler's ``note_query`` frequencies): recovery replays updates
    only, so a replayed log cannot reproduce them.  Everything else must
    be equal between the live and the recovered base."""
    state = persistence.base_state(db)
    del state["stats"]
    del state["scheduler"]["frequency"]
    return state


def run_round(spec: Spec, seed: int, workdir: str, *, counted: bool = False) -> dict:
    """One full round; see the module docstring."""
    ops = make_stream(spec, seed)
    section = timed_slice(spec)
    timed_ops = ops[section]
    wal_files: list[CountingFile] = []  # the counted round's one WAL file

    def file_factory(path: str) -> CountingFile:
        wal_files.append(CountingFile(path))
        return wal_files[-1]

    gc.collect()
    begin = time.perf_counter()
    app = build_app(
        spec,
        seed,
        workdir=workdir,
        file_factory=file_factory if counted and spec.durable else None,
    )
    setup_s = time.perf_counter() - begin
    try:
        for op in ops[: section.start]:
            app.apply_by_code[op[0]](op)
        gc.collect()
        db = app.db
        buffer_before = db.buffer.stats.snapshot()
        manager_before = db.gmr_manager.stats.snapshot()
        wal_before = wal_files[0].counts() if wal_files else (0, 0, 0)
        latencies, reads, results, wall = timed_loop(app, timed_ops)
        buffer_delta = db.buffer.stats.delta(buffer_before)
        manager_delta = db.gmr_manager.stats.delta(manager_before)

        failures = [
            f"op {index} {timed_ops[index]!r}: {result.error}"
            for index, result in enumerate(results)
            if isinstance(result, _Failure)
        ]
        answers = {
            index: app.normalise(op, results[index])
            for index, op in enumerate(timed_ops)
            if KIND_OF[op[0]] in QUERY_KINDS
            and not isinstance(results[index], _Failure)
        }
        by_kind: dict[str, list[float]] = {}
        for op, latency in zip(timed_ops, latencies):
            by_kind.setdefault(KIND_OF[op[0]], []).append(latency)
        round_result = {
            "stream_digest": stream_digest(ops),
            "answers_digest": stream_digest(sorted(answers.items())),
            "op_counts": {kind: len(values) for kind, values in by_kind.items()},
            "setup_s": setup_s,
            "ops_per_s": len(timed_ops) / wall,
            "headline_p50_ms": statistics.median(by_kind[spec.headline]) * 1e3,
            "op_p95_ms": percentile(latencies, 0.95) * 1e3,
            "failures": failures,
            "answers": answers,
            "latencies": latencies,
        }
        checks = []
        for gmr in db.gmr_manager.gmrs():  # Def. 3.2, every GMR
            checks.extend(gmr.check_consistency(db))
        if spec.durable:
            begin = time.perf_counter()
            recovered = app.recover()
            round_result["recover_s"] = time.perf_counter() - begin
            live_state = _state_for_recovery(db)
            recovered_state = _state_for_recovery(recovered)
            checks.extend(
                f"recovered base differs from the live one in {key!r}"
                for key in live_state
                if live_state[key] != recovered_state.get(key)
            )
        round_result["check_failures"] = checks

        if counted:
            wal_after = wal_files[0].counts() if wal_files else (0, 0, 0)
            round_result["counted"] = counted_metrics = _counted_metrics(
                app, timed_ops, latencies, reads, results, by_kind,
                buffer_delta, manager_delta,
                [after - before for after, before in zip(wal_after, wal_before)],
            )
            counted_metrics["persistence.recover_s"] = round_result.get(
                "recover_s", 0.0
            )
            counted_metrics["py.calls_per_op"] = _profiled_calls_per_op(
                app, ops[section.stop :]
            )
        return round_result
    finally:
        app.close()


def _counted_metrics(
    app, timed_ops, latencies, reads, results, by_kind,
    buffer_delta, manager_delta, wal_delta,
) -> dict:
    """Counts taken at the timed section's edges (they repeat exactly
    under a fixed seed) and the latency figures too noisy for a bound."""
    count = len(timed_ops)
    counted = {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
        "op_max_ms": max(latencies) * 1e3,
    }
    for kind in ("qfw", "qbw", "call", "upd"):
        values = by_kind.get(kind)
        counted[f"{kind}_p50_ms"] = (
            statistics.median(values) * 1e3 if values else 0.0
        )
    counted["storage.pages.logical_reads"] = buffer_delta.logical_reads
    counted["storage.pages.misses"] = buffer_delta.misses
    counted["storage.pages.writebacks"] = buffer_delta.writebacks
    counted["storage.pages.sim_cost_per_op"] = (
        app.db.cost_model.cost(buffer_delta) / count
    )
    query_reads = rows = 0
    for op, op_reads, result in zip(timed_ops, reads, results):
        if KIND_OF[op[0]] in ("qfw", "qbw") and isinstance(result, list):
            query_reads += op_reads
            rows += len(result)
    counted["gomql.logical_reads_per_result"] = query_reads / rows if rows else 0.0
    notifications = manager_delta.invalidate_calls
    invalidations = manager_delta.entries_invalidated
    rematerializations = manager_delta.rematerializations
    counted["core.manager.notifications"] = notifications
    counted["core.manager.invalidations"] = invalidations
    # Useful over attempted: entries a notification actually reached.
    counted["core.manager.invalidations_per_notification"] = (
        invalidations / notifications if notifications else 0.0
    )
    counted["core.manager.rematerializations"] = rematerializations
    counted["core.manager.remat_per_invalidation"] = (
        rematerializations / invalidations if invalidations else 0.0
    )
    counted["core.manager.scheduler_revalidations"] = (
        manager_delta.scheduler_revalidations
    )
    counted["core.manager.delta_patches"] = manager_delta.delta_patches
    counted["core.manager.delta_fallbacks"] = manager_delta.delta_fallbacks
    wal_writes, wal_bytes, wal_flushes = wal_delta
    updates = len(by_kind.get("upd", ()))
    counted["storage.wal.appends"] = wal_writes
    counted["storage.wal.bytes_per_update"] = wal_bytes / updates if updates else 0.0
    counted["storage.wal.flushes"] = wal_flushes
    counted["persistence.checkpoint_s"] = sum(by_kind.get("ckpt", ()))
    counted["persistence.checkpoint_bytes"] = (
        os.path.getsize(app.checkpoint_path) if app.spec.durable else 0
    )
    return counted


def _profiled_calls_per_op(app, ops: list[tuple]) -> float:
    """Python function calls per op over the fixed slice after the timed
    section — a deterministic proxy for interpreter work."""
    profile = cProfile.Profile()
    profile.enable()
    for op in ops:
        app.apply_by_code[op[0]](op)
    profile.disable()
    # Not pstats: it keys functions by (file, line, name), so the
    # generated ``__init__`` of every dataclass collides and all but one
    # are dropped — which one depends on address order.
    return sum(entry.callcount for entry in profile.getstats()) / len(ops)


# ---------------------------------------------------------------------------
# The oracle: an unmaterialized twin
# ---------------------------------------------------------------------------


def oracle_failures(spec: Spec, seed: int, answers: dict[int, object]) -> list[str]:
    """Replay the stream on an unmaterialized twin
    (``InstrumentationLevel.NONE``) and re-answer every k-th query of
    each latency class — up to ``spec.oracle_samples`` of them — in plain
    Python.  Returns one line per answer that differs."""
    ops = make_stream(spec, seed)
    section = timed_slice(spec)
    sampled: set[int] = set()
    for kind, cap in spec.oracle_samples.items():
        indices = [
            index
            for index, op in enumerate(ops[section])
            if KIND_OF[op[0]] == kind
        ]
        step = max(1, math.ceil(len(indices) / cap))
        sampled.update(indices[::step][:cap])
    twin = build_app(spec, seed, oracle=True)
    differing = []
    for position, op in enumerate(ops[: section.stop]):
        index = position - section.start
        kind = KIND_OF[op[0]]
        if kind == "upd":
            twin.apply_by_code[op[0]](op)
        elif index in sampled and index in answers:
            expected = twin.oracle_answer(op)
            if answers[index] != expected:
                differing.append(
                    f"op {index} {op!r}: got {answers[index]!r}, "
                    f"oracle says {expected!r}"
                )
    return differing


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _verdict(spec, seed, rounds: list[dict]) -> dict:
    """Correctness of a run: failed ops, oracle, consistency, repeats."""
    first = rounds[0]
    failed_ops = sum(len(r["failures"]) for r in rounds)
    oracle = oracle_failures(spec, seed, first["answers"])
    problems = [line for r in rounds for line in r["failures"] + r["check_failures"]]
    problems += oracle
    for r in rounds[1:]:
        if r["answers_digest"] != first["answers_digest"]:
            problems.append("a later round answered differently from the first")
    return {
        "correct": not problems,
        "attempted": sum(sum(r["op_counts"].values()) for r in rounds),
        "failed": failed_ops + len(oracle),
        "problems": problems[:20],
        "oracle_samples": dict(spec.oracle_samples),
    }


def run_end_to_end(spec: Spec, seed: int, seconds: float, workdir: str) -> dict:
    """Rounds until ``seconds`` have passed (at least ``MIN_ROUNDS``);
    every end-to-end metric is the median over the rounds."""
    rounds = []
    begin = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - begin < seconds:
        rounds.append(run_round(spec, seed, workdir))
        if len(rounds) == 1:
            # Before later rounds and the twin grow the heap: the peak
            # of one base built, run and verified.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = _verdict(spec, seed, rounds)
    metrics = {
        name: {
            "value": statistics.median(r[name] for r in rounds),
            "rounds": [r[name] for r in rounds],
        }
        for name in ("setup_s", "ops_per_s", "headline_p50_ms", "op_p95_ms")
    }
    metrics["headline_p50_ms"]["samples_per_round"] = rounds[0]["op_counts"][
        spec.headline
    ]
    metrics["op_p95_ms"]["samples_per_round"] = sum(rounds[0]["op_counts"].values())
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "rounds": [peak_rss_mb]}
    result.update(
        stream_digest=rounds[0]["stream_digest"],
        answers_digest=rounds[0]["answers_digest"],
        op_counts=rounds[0]["op_counts"],
        rounds=len(rounds),
        headline_kind=spec.headline,
        end_to_end=metrics,
    )
    return result


def run_per_layer(
    spec: Spec, seed: int, workdir: str, *, entry_points=tracing.ENTRY_POINTS,
    spans_out: str | None = None,
) -> dict:
    """The counted round, then the traced round."""
    counted_round = run_round(spec, seed, workdir, counted=True)
    result = _verdict(spec, seed, [counted_round])
    traced = _run_traced(
        spec, seed, workdir, counted_round["latencies"], entry_points, spans_out
    )
    per_layer = dict(counted_round["counted"])
    for layer, row in traced["layers"].items():
        for column, value in row.items():
            per_layer[f"{layer}.{column}"] = value
    per_layer["trace.overhead_ratio"] = traced["overhead_ratio"]
    per_layer["trace.corrected_ratio"] = traced["corrected_ratio"]
    per_layer["trace.share_sum"] = sum(
        row["self_share"] or 0.0 for row in traced["layers"].values()
    )
    per_layer["trace.closure"] = traced["closure"]
    per_layer["trace.unresolved_entry_points"] = len(
        traced["unresolved_entry_points"]
    )
    result.update(
        stream_digest=counted_round["stream_digest"],
        op_counts=counted_round["op_counts"],
        per_layer=per_layer,
        unresolved_entry_points=traced["unresolved_entry_points"],
        traced_ops=traced["ops"],
        spans=traced["spans"],
    )
    return result


def _run_traced(spec, seed, workdir, untraced_latencies, entry_points, spans_out):
    ops = make_stream(spec, seed)
    section = timed_slice(spec)
    prefix = ops[section][: max(1, round(spec.ops * TRACED_SHARE))]
    recorder = tracing.SpanRecorder(entry_points)
    recorder.install()
    try:
        app = build_app(spec, seed, workdir=workdir)
        try:
            for op in ops[: section.start]:
                app.apply_by_code[op[0]](op)
            gc.collect()
            recorder.on = True
            latencies, _reads, _results, _wall = timed_loop(app, prefix, recorder)
            op_walls = list(latencies)
            if spec.durable:
                # The stream's own checkpoint sits past the traced
                # prefix; end the pass with one traced checkpoint and
                # one traced recovery so `persistence` has spans to show.
                for step in (app.checkpoint, app.recover):
                    recorder.op_id = len(op_walls)
                    begin = time.perf_counter()
                    step()
                    op_walls.append(time.perf_counter() - begin)
        finally:
            recorder.on = False
            app.close()
    finally:
        recorder.uninstall()
    table = recorder.attribute(op_walls)
    if spans_out:
        recorder.dump(spans_out)
    untraced = sum(untraced_latencies[: len(prefix)])
    traced = sum(latencies)
    prefix_spans = sum(1 for op_id in recorder.op if op_id < len(prefix))
    table["ops"] = len(op_walls)
    table["overhead_ratio"] = traced / untraced
    # Overhead-corrected traced time over the untraced time of the same
    # ops: 1.0 when the calibration removes exactly what tracing added.
    table["corrected_ratio"] = (
        traced - prefix_spans * sum(table["span_overhead_s"].values())
    ) / untraced
    return table
