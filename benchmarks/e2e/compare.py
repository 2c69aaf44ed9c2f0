"""Compare two result files of ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every (end-to-end metric, workload) pair prints base, new, the ratio
new / base and a verdict:

``ok``          not worse than the metric's bound in ``BENCHMARK.json``;
``regressed``   worse than the bound;
``unresolved``  the rounds of either side spread (quartile distance over
                median) wider than the bound, so the pair decides nothing
                — unless every round of one side beats every round of
                the other.

Counts that repeat exactly under a fixed seed are compared with ``==``
and reported as counts (``same`` / ``changed``), never as speed-ups.
Exits non-zero when any pair regressed.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_contract

#: Units of time-derived per-layer metrics; every other unit is a count
#: that must repeat exactly.
_TIMED_UNITS = {"s", "ms", "share", "x"}
#: A snapshot embeds the latency histograms' float sums, whose printed
#: length moves by a byte or two from run to run.
_INEXACT = {"persistence.checkpoint_bytes"}


def _spread(rounds: list[float]) -> float:
    if len(rounds) < 2:
        return 0.0
    quartiles = statistics.quantiles(rounds, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(rounds)


def _verdict(base: dict, new: dict, metric: dict) -> str:
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (new["value"] - base["value"]) / base["value"]
    if max(_spread(base["rounds"]), _spread(new["rounds"])) > bound:
        worst_new = max(sign * value for value in new["rounds"])
        best_base = min(sign * value for value in base["rounds"])
        if worst_new <= best_base:
            return "ok"  # every round of new beats every round of base
        best_new = min(sign * value for value in new["rounds"])
        worst_base = max(sign * value for value in base["rounds"])
        if best_new > worst_base and worse_by > bound:
            return "regressed"
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(base: dict, new: dict, contract: dict) -> tuple[list[str], int, int]:
    """Report lines, regressed pairs, changed counts."""
    lines = []
    regressed = changed = 0
    for name in base["workloads"]:
        left, right = base["workloads"][name], new["workloads"].get(name)
        if right is None:
            lines.append(f"{name}: missing from the new result")
            continue
        lines.append(f"== {name}")
        if left["stream_digest"] != right["stream_digest"]:
            lines.append("  op streams differ: counts are not comparable")
        for metric in contract["end_to_end"]:
            a = left.get("end_to_end", {}).get(metric["name"])
            b = right.get("end_to_end", {}).get(metric["name"])
            if a is None or b is None:
                continue
            verdict = _verdict(a, b, metric)
            regressed += verdict == "regressed"
            lines.append(
                f"  {metric['name']:<18} base {a['value']:>12.6g}  "
                f"new {b['value']:>12.6g} {metric['unit']:<6} "
                f"ratio {b['value'] / a['value']:.3f}  "
                f"bound {metric['bound']:.0%}  {verdict}"
            )
        for metric in contract["per_layer"]:
            if metric["unit"] in _TIMED_UNITS or metric["name"] in _INEXACT:
                continue
            a = left.get("per_layer", {}).get(metric["name"])
            b = right.get("per_layer", {}).get(metric["name"])
            if a is None or b is None or a == b:
                continue
            changed += 1
            lines.append(
                f"  {metric['name']:<44} base {a:>12.6g}  new {b:>12.6g} "
                f"{metric['unit']}  changed"
            )
    return lines, regressed, changed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, regressed, changed = compare(*documents, load_contract())
    print("\n".join(lines))
    print(f"{regressed} regressed, {changed} exact-repeat counts changed "
          "(every other count is the same)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
