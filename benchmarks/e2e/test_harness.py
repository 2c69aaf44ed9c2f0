"""Tests of the benchmark harness itself, at smoke scale.

Run explicitly — tier-1's ``testpaths`` does not reach this directory:

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import trace as tracing  # noqa: E402
from workloads import SPECS, make_stream, stream_digest  # noqa: E402

SCALE = 0.05
CONTRACT = run.load_contract()


def _run(out, *extra: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--scale", str(SCALE), "--seconds", "0", "--out", str(out), *extra,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    assert done.returncode == 0, done.stdout
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """One smoke-scale pass of all six workloads, both passes."""
    return _run(tmp_path_factory.mktemp("e2e") / "smoke.json", "--seed", "1")


def test_every_workload_runs_correctly(smoke):
    assert set(smoke["workloads"]) == {w["name"] for w in CONTRACT["workloads"]}
    assert set(smoke["workloads"]) == set(SPECS)
    for name, result in smoke["workloads"].items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0 and result["attempted"] > 0


def test_result_carries_exactly_the_contract_metrics(smoke):
    for section in ("end_to_end", "per_layer"):
        named = {metric["name"] for metric in CONTRACT[section]}
        for name, result in smoke["workloads"].items():
            assert set(result[section]) == named, (name, section)
    for result in smoke["workloads"].values():
        for value in result["end_to_end"].values():
            assert value["value"] > 0


def test_layer_shares_sum_to_the_traced_wall(smoke):
    for name, result in smoke["workloads"].items():
        layers = result["per_layer"]
        assert layers["trace.share_sum"] == pytest.approx(1.0, abs=0.05), name
        assert layers["trace.closure"] == pytest.approx(1.0, abs=0.05), name
        assert layers["trace.overhead_ratio"] > 0
        assert result["unresolved_entry_points"] == []


def test_layers_predicted_idle_show_zero_calls(smoke):
    calls = {
        name: {
            layer: result["per_layer"][f"{layer}.calls"]
            for layer in tracing.LAYERS
        }
        for name, result in smoke["workloads"].items()
    }
    for name, row in calls.items():
        assert (row["storage.wal"] > 0) == (name == "durable_burst")
        assert (row["persistence"] > 0) == (name == "durable_burst")
        assert (row["core.delta"] > 0) == (name == "fig15_delta")
        assert row["gom"] > 0 and row["storage.pages"] > 0
    for layer in ("gomql.parse", "gomql.plan", "gomql.execute"):
        assert calls["fig10_updates"][layer] == 0
        assert calls["fig9_forward"][layer] > 0
    assert calls["fig9_forward"]["core.manager.invalidate"] == 0
    assert calls["fig9_forward"]["core.rrr"] == 0
    assert calls["fig13_lazy_backward"]["core.scheduler"] > 0
    assert calls["fig13_lazy_backward"]["core.manager.backward"] > 0


def test_same_seed_repeats_stream_and_counts(smoke, tmp_path):
    again = _run(tmp_path / "again.json", "--seed", "1", "--trace", "1")
    lines, regressed, changed = compare.compare(smoke, again, CONTRACT)
    assert regressed == 0
    assert changed == 0, "\n".join(lines)
    for name, result in again["workloads"].items():
        assert result["stream_digest"] == smoke["workloads"][name]["stream_digest"]


def test_a_different_seed_is_a_different_stream():
    for spec in SPECS.values():
        small = spec.scaled(SCALE)
        first = stream_digest(make_stream(small, 1))
        assert first == stream_digest(make_stream(small, 1))
        assert first != stream_digest(make_stream(small, 2))


def test_mix_shares_are_exact():
    spec = SPECS["fig10_updates"]
    for seed in (1, 2):
        timed = make_stream(spec, seed)[spec.warmup_ops : spec.warmup_ops + spec.ops]
        counts = {code: 0 for code, _share in spec.mix}
        for op in timed:
            counts[op[0]] += 1
        assert counts == {"S": 300, "R": 300, "T": 200, "I": 100, "D": 100}


def test_unresolvable_entry_point_is_null_not_a_crash(tmp_path):
    entry_points = tracing.ENTRY_POINTS + (
        ("core.rrr", "repro.core.rrr:ReverseReferenceRelation.renamed_away"),
        ("gomql.parse", "repro.gomql.no_such_module:parse"),
    )
    result = measure.run_per_layer(
        SPECS["fig7_mix"].scaled(SCALE), 1, str(tmp_path), entry_points=entry_points
    )
    assert result["correct"]
    assert len(result["unresolved_entry_points"]) == 2
    layers = result["per_layer"]
    for layer in ("core.rrr", "gomql.parse"):
        assert layers[f"{layer}.calls"] is None
        assert layers[f"{layer}.self_s"] is None
        assert layers[f"{layer}.self_share"] is None
    assert layers["gom.calls"] > 0
    assert layers["trace.unresolved_entry_points"] == 2
    # The driver's line still carries a number for every metric.
    line = json.loads(run.driver_line(result, CONTRACT, "1"))
    assert line["metrics"]["core.rrr.calls"]["value"] == 0


def test_compare_verdicts():
    metric = {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.10}

    def rounds(*values):
        ordered = sorted(values)
        return {"value": ordered[len(ordered) // 2], "rounds": list(values)}

    steady = rounds(100.0, 101.0, 99.0)
    assert compare._verdict(steady, rounds(97.0, 98.0, 96.0), metric) == "ok"
    assert compare._verdict(steady, rounds(80.0, 81.0, 79.0), metric) == "regressed"
    noisy = rounds(60.0, 100.0, 140.0)
    assert compare._verdict(steady, noisy, metric) == "unresolved"
    assert compare._verdict(noisy, rounds(150.0, 151.0, 152.0), metric) == "ok"
