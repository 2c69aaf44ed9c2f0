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
import json
import os

import pytest

from repro.fuzz import (
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
