"""repro — Function Materialization in Object Bases.

A full reproduction of Kemper, Kilger & Moerkotte's SIGMOD 1991 system:
an object base (the GOM data model) with *function materialization* —
precomputed, incrementally maintained function results stored in
Generalized Materialization Relations (GMRs).

Quickstart::

    from repro import ObjectBase, Strategy

    db = ObjectBase()
    db.define_tuple_type("Point", {"X": "float", "Y": "float"})
    db.define_operation(
        "Point", "norm", [], "float",
        lambda self: (self.X * self.X + self.Y * self.Y) ** 0.5,
    )
    p = db.new("Point", X=3.0, Y=4.0)
    db.materialize([("Point", "norm")])
    assert p.norm() == 5.0          # served from the GMR
    p.set_X(6.0)                    # invalidates + rematerializes
    assert p.norm() == (36.0 + 16.0) ** 0.5

See :mod:`repro.domains.geometry` / :mod:`repro.domains.company` for the
paper's two benchmark schemas and :mod:`repro.bench` for the harness
that regenerates every figure of the evaluation section.
"""

from repro.gom import Handle, InstrumentationLevel, ObjectBase, Oid
from repro.core import (
    GMR,
    BreakerState,
    FaultPolicy,
    FlushReport,
    GMRManager,
    RangeRestriction,
    Strategy,
    ValueRestriction,
)
from repro.observe import (
    ExplainReport,
    MaterializationConfig,
    MetricsRegistry,
    ObserveConfig,
    Trace,
    Tracer,
)
from repro.errors import (
    FunctionExecutionError,
    FunctionQuarantinedError,
    FunctionTimeoutError,
)
from repro.core.restricted import RestrictionSpec
from repro.predicates import Variable
from repro.gom.transactions import TransactionError
from repro.persistence import (
    CheckpointReport,
    RecoveryReport,
    base_state,
    checkpoint,
    dump_object_base,
    load_object_base,
    recover,
    verify_recovery,
)
from repro.storage.wal import ShardedWriteAheadLog, WriteAheadLog

__version__ = "1.0.0"

__all__ = [
    "ObjectBase",
    "Handle",
    "Oid",
    "InstrumentationLevel",
    "GMR",
    "GMRManager",
    "Strategy",
    "FaultPolicy",
    "BreakerState",
    "FunctionExecutionError",
    "FunctionTimeoutError",
    "FunctionQuarantinedError",
    "RestrictionSpec",
    "ValueRestriction",
    "RangeRestriction",
    "Variable",
    "TransactionError",
    "MaterializationConfig",
    "ObserveConfig",
    "Trace",
    "Tracer",
    "MetricsRegistry",
    "ExplainReport",
    "FlushReport",
    "CheckpointReport",
    "RecoveryReport",
    "dump_object_base",
    "load_object_base",
    "checkpoint",
    "recover",
    "base_state",
    "verify_recovery",
    "WriteAheadLog",
    "ShardedWriteAheadLog",
    "__version__",
]
