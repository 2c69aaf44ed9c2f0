"""Tier-1 differential-fuzz coverage.

Two layers:

* **Corpus replay** — every ``corpus/*.json`` script (minimized
  regressions plus hand-picked interaction pins) is replayed against
  the whole configuration matrix on every test run.
  ``geometry-backward-neq-keyerror.json`` is the minimized script that
  crashed the backward planner (``KeyError`` on a ``!=``-only
  comparison against a materialized function) before the planner
  recorded calls for untightenable operators.
* **Fixed-seed smoke** — a small generate-and-check campaign with a
  pinned base seed, so the whole generator/replayer/oracle pipeline
  stays exercised in tier-1 without the cost of the nightly run.
"""

import dataclasses
import importlib
import inspect
import itertools
import json
import os

import pytest

from repro import GMR, GMRManager, ObjectBase, Strategy
from repro.fuzz import (
    Replayer,
    all_configs,
    check_script,
    configs_for_script,
    generate_script,
    script_from_json,
)

from repro.observe.config import MaterializationConfig

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(
    name for name in os.listdir(CORPUS_DIR) if name.endswith(".json")
)


def corpus_script(name):
    with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
        return script_from_json(fh.read())


class TestCorpus:
    def test_corpus_is_nonempty(self):
        assert CORPUS_FILES, "the regression corpus must not be empty"

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_corpus_file_is_wellformed(self, name):
        with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["domain"] in ("geometry", "company")
        assert isinstance(data["steps"], list) and data["steps"]

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_corpus_replay(self, name):
        failures = check_script(corpus_script(name), all_configs())
        assert not failures, "\n".join(str(f) for f in failures)


def test_matrix_is_the_whole_configuration_surface():
    """The matrix tier-1 replays in full has 192 points, and
    ``MaterializationConfig`` has no knob besides these eight."""
    matrix = all_configs()
    assert len(matrix) == len(set(matrix)) == 192
    assert [spec.name for spec in dataclasses.fields(MaterializationConfig)] == [
        "level", "strategy", "batching", "fault_policy", "observe",
        "workers", "shards", "maintenance",
    ]


def test_option_surface_outside_the_config_is_closed():
    """The second option surface — ``materialize()`` keywords, strategy
    members, settable manager attributes, subscription APIs, extension
    packages — holds exactly what is left after the deletions, so none
    of it can grow back without failing here."""
    keyword_only = {
        name
        for name, parameter in inspect.signature(
            GMRManager.materialize
        ).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    }
    assert keyword_only == {
        "complete", "strategy", "restriction", "storage", "name",
        "populate", "capacity",
    }
    assert set(Strategy) == {
        Strategy.IMMEDIATE, Strategy.LAZY, Strategy.DEFERRED,
    }
    db = ObjectBase()
    for removed in ("rrr_policy", "refresh_snapshot"):
        assert not hasattr(db.gmr_manager, removed)
    for removed in ("asr_manager", "register_update_listener"):
        assert not hasattr(db, removed)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.asr")


class _MixedStrategyReplayer(Replayer):
    """Materializes the script's GMRs under rotating strategies and
    keeps the base the invariant sweep ran on."""

    def __init__(self, script):
        super().__init__(script)
        self._strategies = itertools.cycle(Strategy)
        self.swept_db = None

    def _op_materialize(self, step):
        self.db.config.strategy = next(self._strategies)
        super()._op_materialize(step)

    def _settle(self):
        super()._settle()
        self.swept_db = self.db


def test_invariant_sweep_exempts_no_gmr(monkeypatch):
    """The Def. 3.2 oracle recomputes *every* GMR of a replayed base,
    whatever its strategy — a "stale by design" strategy cannot
    re-introduce a blind spot without failing here."""
    checked = []
    check_consistency = GMR.check_consistency

    def counting(gmr, db):
        checked.append(gmr.name)
        return check_consistency(gmr, db)

    monkeypatch.setattr(GMR, "check_consistency", counting)
    replayer = _MixedStrategyReplayer(
        corpus_script("geometry-restricted-batch-recover.json")
    )
    assert replayer.run().violations == []
    gmrs = replayer.swept_db.gmr_manager.gmrs()
    assert len({gmr.strategy for gmr in gmrs}) >= 2
    assert sorted(checked) == sorted(gmr.name for gmr in gmrs)


class TestFixedSeedSmoke:
    """The generator/oracle pipeline, end to end, deterministically."""

    SMOKE = [
        (seed, domain)
        for seed in range(0, 16)
        for domain in ("geometry", "company")
    ]

    @pytest.mark.parametrize("seed,domain", SMOKE)
    def test_smoke_script(self, seed, domain):
        script = generate_script(seed, domain)
        assert script.steps, "generator produced an empty script"
        failures = check_script(script, configs_for_script(seed, 2))
        assert not failures, "\n".join(str(f) for f in failures)

    def test_generation_is_deterministic(self):
        first = generate_script(42, "geometry")
        second = generate_script(42, "geometry")
        assert first.steps == second.steps

    def test_distinct_seeds_differ(self):
        assert (
            generate_script(1, "company").steps
            != generate_script(2, "company").steps
        )
