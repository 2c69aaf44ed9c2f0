"""Differential GOMql fuzzing (the hot-path overhaul's safety net).

A seeded generator (:mod:`repro.fuzz.generator`) produces JSON
workload *scripts* — populations, elementary updates, batch scopes,
checkpoint/recover cycles, quiesce points and GOMql query strings over
the geometry and company domains.  The differential oracle
(:mod:`repro.fuzz.oracle`) replays each script against an
*unmaterialized* reference base and a matrix of materialized
configurations (instrumentation level × strategy × batching × workers
× maintenance × shards) and asserts that

* every query returns the same result everywhere,
* the final object extensions are identical, and
* every GMR satisfies the Def. 3.2 consistency invariant plus the
  RRR ↔ ObjDepFct lockstep of Sec. 5.2.

Failures are shrunk by delta debugging (:mod:`repro.fuzz.minimize`)
into minimal reproduction scripts suitable for the checked-in corpus
(``tests/gomql/corpus/``).  ``python -m repro.fuzz --help`` is the
command-line entry point; see ``docs/TESTING.md``.
"""

from repro.fuzz.generator import FuzzGenerator, generate_script
from repro.fuzz.minimize import minimize_script
from repro.fuzz.oracle import (
    OracleConfig,
    OracleFailure,
    all_configs,
    check_script,
    configs_for_script,
    run_fuzz,
)
from repro.fuzz.replay import Replayer, ReplayResult, ScriptError
from repro.fuzz.script import Script, script_from_json, script_to_json

__all__ = [
    "FuzzGenerator",
    "OracleConfig",
    "OracleFailure",
    "Replayer",
    "ReplayResult",
    "Script",
    "ScriptError",
    "all_configs",
    "check_script",
    "configs_for_script",
    "generate_script",
    "minimize_script",
    "run_fuzz",
    "script_from_json",
    "script_to_json",
]
