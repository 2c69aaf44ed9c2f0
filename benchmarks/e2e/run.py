"""The end-to-end benchmark of the object base: one command.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--seconds S] [--trace 0|1] [--out FILE]

Runs each named workload (default: all six) in a subprocess of its own
with ``PYTHONHASHSEED=0``, prints every metric by name with its unit,
checks that the program's outputs are correct, and — with ``--out`` —
writes one JSON result.  ``--trace 0`` measures the end-to-end metrics
with nothing wrapped, ``--trace 1`` the per-layer metrics (a counted
and a traced round); without ``--trace`` both are measured.  With
exactly one ``--workload`` and a ``--trace``, the last line of standard
output is the driver's object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exits non-zero when a check fails.

The metric names, units and regression bounds live in ``BENCHMARK.json``
at the root of the repository; see ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
FLUSH_POLICY = "WAL: write + flush() per append, no fsync; checkpoint: fsync"


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=("0", "1"), default=None)
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink populations and op counts (the smoke-scale test pass)",
    )
    parser.add_argument("--spans-out", help="write the traced pass's spans here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# The child: one workload, in this process
# ---------------------------------------------------------------------------


def run_child(args: argparse.Namespace) -> dict:
    sys.path[:0] = [HERE, SOURCE]
    import measure
    from workloads import SPECS

    spec = SPECS[args.workload[0]].scaled(args.scale)
    # Scratch files (checkpoint, WAL) stay inside the checkout.
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        outcomes = []
        if args.trace in (None, "0"):
            outcomes.append(
                measure.run_end_to_end(spec, args.seed, args.seconds, workdir)
            )
        if args.trace in (None, "1"):
            outcomes.append(
                measure.run_per_layer(
                    spec, args.seed, workdir, spans_out=args.spans_out
                )
            )
        result: dict = {"name": spec.name}
        for outcome in outcomes:
            result.update(outcome)
        result["correct"] = all(outcome["correct"] for outcome in outcomes)
        for key in ("attempted", "failed"):
            result[key] = sum(outcome[key] for outcome in outcomes)
        result["problems"] = [
            line for outcome in outcomes for line in outcome["problems"]
        ]
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# The parent: one subprocess per workload, printing, the result file
# ---------------------------------------------------------------------------


def _spawn(name: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
    ]
    if args.trace is not None:
        command += ["--trace", args.trace]
    if args.spans_out:
        command += ["--spans-out", args.spans_out]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=environment, stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"workload {name} did not finish (exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def _print_workload(result: dict, contract: dict) -> None:
    print(f"== {result['name']}  ops={result['op_counts']}  "
          f"stream={result['stream_digest']}")
    for section in ("end_to_end", "per_layer"):
        values = result.get(section)
        if values is None:
            continue
        for metric in contract[section]:
            name = metric["name"]
            value = values[name]
            note = ""
            if isinstance(value, dict):
                if "samples_per_round" in value:
                    note = (f"  (n={value['samples_per_round']} x "
                            f"{len(value['rounds'])} rounds)")
                value = value["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<44}{shown:>14} {metric['unit']}{note}")
    if result.get("unresolved_entry_points"):
        print(f"  unresolved_entry_points: {result['unresolved_entry_points']}")
    share = result["failed"] / result["attempted"]
    print(f"  failed_ops_share {share:.6g}  "
          f"({result['failed']} of {result['attempted']})  "
          f"correct={result['correct']}")
    for line in result["problems"]:
        print(f"  PROBLEM {line}")


def driver_line(result: dict, contract: dict, trace: str) -> str:
    """The one object the driver reads: exactly the contract's metrics.
    A layer whose entry point no longer resolves reads 0 here (the
    result file says ``null``); ``trace.unresolved_entry_points`` counts
    them."""
    section = "end_to_end" if trace == "0" else "per_layer"
    metrics = {}
    for metric in contract[section]:
        value = result[section][metric["name"]]
        if isinstance(value, dict):
            value = value["value"]
        metrics[metric["name"]] = {
            "value": 0 if value is None else value, "unit": metric["unit"],
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str]) -> int:
    contract = load_contract()
    workloads = [workload["name"] for workload in contract["workloads"]]
    args = _parse(argv, workloads)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.child:
        print(json.dumps(run_child(args)))
        return 0
    names = args.workload or workloads
    results = {}
    for name in names:
        results[name] = _spawn(name, args)
        _print_workload(results[name], contract)
    if args.out:
        document = {
            "meta": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "nproc": os.cpu_count(),
                "seed": args.seed,
                "seconds": args.seconds,
                "scale": args.scale,
                "load": "closed loop, 1 client, workers=0, shards=1",
                "flush_policy": FLUSH_POLICY,
            },
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    correct = all(result["correct"] for result in results.values())
    if len(names) == 1 and args.trace is not None:
        print(driver_line(results[names[0]], contract, args.trace))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": names,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
