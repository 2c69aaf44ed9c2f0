"""The differential oracle: one script, many configurations, one truth.

Each script is replayed once against an *unmaterialized* reference base
(``materialize`` steps skipped — every query evaluates from scratch)
and then against a rotating subset of the full configuration matrix:

    level × strategy × batching × workers × maintenance × shards
    {NAIVE, SCHEMA_DEP,  {IMMEDIATE, {on,off} {0, 2} {recompute, {1, 4}
     OBJ_DEP,             LAZY,                       delta}
     INFO_HIDING}         DEFERRED}

(``NONE`` never notifies, so it would trivially diverge and does not
belong in a correctness oracle; every ``Strategy`` member is covered.)

A configuration *fails* when any query result differs from the
reference, the final object extensions differ, a Def. 3.2 /
lockstep violation is found, or the replay raises.  Failures carry
enough context (seed, config, detail) to reproduce and minimize.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

from repro.core.strategies import Strategy
from repro.fuzz.generator import generate_script
from repro.fuzz.replay import Replayer, ReplayResult, results_equal
from repro.fuzz.script import Script
from repro.gom.instrumentation import InstrumentationLevel
from repro.observe.config import MaterializationConfig

_LEVELS = (
    InstrumentationLevel.NAIVE,
    InstrumentationLevel.SCHEMA_DEP,
    InstrumentationLevel.OBJ_DEP,
    InstrumentationLevel.INFO_HIDING,
)
_STRATEGIES = (Strategy.IMMEDIATE, Strategy.LAZY, Strategy.DEFERRED)


@dataclass(frozen=True)
class OracleConfig:
    """One point of the differential matrix."""

    level: InstrumentationLevel
    strategy: Strategy
    batching: bool
    workers: int
    shards: int = 1
    maintenance: str = "compensate"

    @property
    def name(self) -> str:
        return (
            f"{self.level.name.lower()}/{self.strategy.name.lower()}"
            f"/batch={'on' if self.batching else 'off'}"
            f"/workers={self.workers}"
            f"/maint={self.maintenance}"
            f"/shards={self.shards}"
        )

    def to_config(self) -> MaterializationConfig:
        return MaterializationConfig(
            level=self.level,
            strategy=self.strategy,
            batching=self.batching,
            workers=self.workers,
            shards=self.shards,
            maintenance=self.maintenance,
        )


@dataclass
class OracleFailure:
    """One confirmed divergence (or crash) on one configuration."""

    script: Script
    config: OracleConfig | None
    kind: str  # "exception" | "query" | "extensions" | "invariant"
    detail: str

    def __str__(self) -> str:
        where = self.config.name if self.config else "reference"
        return (
            f"[seed={self.script.seed} domain={self.script.domain} "
            f"config={where}] {self.kind}: {self.detail}"
        )


def all_configs() -> tuple[OracleConfig, ...]:
    """The full matrix (192 configurations), in a fixed order.

    The shards axis is the innermost factor, so every rotating window
    pairs each ``shards=1`` point with its ``shards=4`` sibling — a
    script replayed on any contiguous slice exercises both the
    unsharded and the sharded engine for the same level/strategy
    combination.  Outside that sits maintenance: ``"recompute"`` is pure
    invalidate-then-recompute, ``"delta"`` patches aggregate GMR
    entries in place via the delta engine (the replayer declares the
    domains' default deltas) — both must agree with the unmaterialized
    reference under the Def. 3.2 oracle.
    """
    return tuple(
        OracleConfig(
            level=level,
            strategy=strategy,
            batching=batching,
            workers=workers,
            maintenance=maintenance,
            shards=shards,
        )
        for level, strategy, batching, workers, maintenance, shards in product(
            _LEVELS,
            _STRATEGIES,
            (True, False),
            (0, 2),
            ("recompute", "delta"),
            (1, 4),
        )
    )


def configs_for_script(index: int, per_script: int = 4) -> tuple[OracleConfig, ...]:
    """A rotating window over the matrix.

    Consecutive script indices cover disjoint (mod 192) windows, so a
    200-script smoke run at the default width visits every
    configuration about four times.
    """
    matrix = all_configs()
    start = index * per_script
    return tuple(matrix[(start + j) % len(matrix)] for j in range(per_script))


def _replay(script: Script, config: OracleConfig | None) -> ReplayResult:
    if config is None:
        return Replayer(script, materialized=False).run()
    return Replayer(script, config=config.to_config()).run()


def check_script(
    script: Script,
    configs: Sequence[OracleConfig] | None = None,
    *,
    stop_on_first: bool = False,
) -> list[OracleFailure]:
    """Replay ``script`` differentially; return every confirmed failure.

    :class:`~repro.fuzz.replay.ScriptError` propagates — a malformed
    script is the *caller's* bug (or, during minimization, an invalid
    candidate), never a system-under-test failure.
    """
    if configs is None:
        configs = all_configs()
    reference = _replay(script, None)
    failures: list[OracleFailure] = []
    for config in configs:
        try:
            result = _replay(script, config)
        except Exception:
            failures.append(
                OracleFailure(
                    script, config, "exception", traceback.format_exc()
                )
            )
            if stop_on_first:
                return failures
            continue
        failures.extend(_compare(script, config, reference, result))
        if failures and stop_on_first:
            return failures
    return failures


def _compare(
    script: Script,
    config: OracleConfig,
    reference: ReplayResult,
    result: ReplayResult,
) -> list[OracleFailure]:
    failures: list[OracleFailure] = []
    for violation in result.violations:
        failures.append(OracleFailure(script, config, "invariant", violation))
    if len(result.queries) != len(reference.queries):
        failures.append(
            OracleFailure(
                script,
                config,
                "query",
                f"recorded {len(result.queries)} query results, "
                f"reference recorded {len(reference.queries)}",
            )
        )
        return failures
    for i, (got, expected) in enumerate(
        zip(result.queries, reference.queries)
    ):
        if not results_equal(got, expected):
            failures.append(
                OracleFailure(
                    script,
                    config,
                    "query",
                    f"query #{i} diverged:\n  got:      {got!r}\n"
                    f"  expected: {expected!r}",
                )
            )
    if not results_equal(
        {"extensions": result.extensions},
        {"extensions": reference.extensions},
    ):
        failures.append(
            OracleFailure(
                script,
                config,
                "extensions",
                "final object extensions diverged from the "
                "unmaterialized reference",
            )
        )
    return failures


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    scripts_run: int = 0
    configs_run: int = 0
    failures: list[OracleFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    count: int,
    *,
    base_seed: int = 0,
    domains: Sequence[str] = ("geometry", "company"),
    configs_per_script: int = 4,
    time_budget: float | None = None,
    stop_on_first: bool = False,
    progress: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Generate-and-check ``count`` scripts; honour an optional time box.

    Script ``i`` uses seed ``base_seed + i``, alternates domains, and
    is checked against :func:`configs_for_script`'s rotating window —
    deterministic end to end, so any reported failure reproduces from
    ``(base_seed + i, domain)`` alone.
    """
    report = FuzzReport()
    started = time.monotonic()
    for i in range(count):
        if time_budget is not None and time.monotonic() - started > time_budget:
            if progress is not None:
                progress(
                    f"time budget of {time_budget:.0f}s exhausted after "
                    f"{report.scripts_run} scripts"
                )
            break
        seed = base_seed + i
        domain = domains[i % len(domains)]
        script = generate_script(seed, domain)
        configs = configs_for_script(i, configs_per_script)
        failures = check_script(script, configs, stop_on_first=stop_on_first)
        report.scripts_run += 1
        report.configs_run += len(configs)
        if failures:
            report.failures.extend(failures)
            if progress is not None:
                for failure in failures:
                    progress(str(failure))
            if stop_on_first:
                break
        elif progress is not None and (i + 1) % 25 == 0:
            progress(f"{i + 1}/{count} scripts ok")
    report.elapsed = time.monotonic() - started
    return report
