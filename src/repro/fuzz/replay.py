"""Replay a fuzz script into a live object base.

The replayer is deliberately dumb: it applies steps in order through
the public :class:`~repro.gom.database.ObjectBase` API, resolving
labels to OIDs as objects are created.  Structural problems — a label
that was never created, an unbalanced batch scope, a checkpoint inside
a batch — raise :class:`ScriptError`, which the minimizer treats as
"this candidate subset is not a valid script" (distinct from a real
library failure, which is what we are hunting).
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any

from repro.domains.company import build_company_schema, define_company_deltas
from repro.domains.geometry import build_geometry_schema, define_geometry_deltas
from repro.errors import QueryError
from repro.fuzz.script import Script
from repro.gom.database import ObjectBase
from repro.gom.handles import Handle
from repro.gom.oid import Oid
from repro.observe.config import MaterializationConfig

SCHEMA_BUILDERS = {
    "geometry": build_geometry_schema,
    "company": build_company_schema,
}

#: Default delta declarations per domain — applied after each
#: ``materialize`` step (and after a recovery) when the configuration
#: runs ``maintenance="delta"``, so the fuzz axis actually exercises
#: the delta engine against the unmaterialized reference.
DELTA_BUILDERS = {
    "geometry": define_geometry_deltas,
    "company": define_company_deltas,
}

#: Wall-clock budget for draining worker pools at settle points.
QUIESCE_TIMEOUT = 30.0


class ScriptError(Exception):
    """The script itself is malformed (not a system-under-test failure)."""


@dataclass
class ReplayResult:
    """Everything the differential oracle compares."""

    #: One canonicalized entry per ``query`` step, in script order:
    #: ``{"kind": "rows", "rows": [...]}`` (multiset-sorted),
    #: ``{"kind": "scalar", "value": ...}`` or ``{"kind": "error"}``.
    queries: list[dict] = field(default_factory=list)
    #: Canonical digest of the final object graph (labels, not OIDs).
    extensions: list[dict] = field(default_factory=list)
    #: Def. 3.2 / lockstep violations found after the final settle.
    violations: list[str] = field(default_factory=list)


def _approx_equal(a: Any, b: Any) -> bool:
    """Recursive equality with float tolerance.

    Per-row values are bitwise identical across replays (same pure
    functions over the same object states); only *accumulated* floats
    (aggregate sums over differently-ordered domains) may drift by an
    ulp, which is what the tolerance absorbs.

    NaN compares equal to NaN here.  Two replays of the same script
    produce *distinct* NaN objects; ``math.isclose(nan, nan)`` is False,
    so without the explicit check an aggregate that legitimately yields
    NaN on both sides would be reported as a divergence.
    """
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _approx_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            _approx_equal(v, b[k]) for k, v in a.items()
        )
    return a == b


def results_equal(a: dict, b: dict) -> bool:
    """Compare two canonical query-result entries."""
    if a == b:
        return True
    return _approx_equal(a, b)


class Replayer:
    """Replay one script into a fresh object base.

    ``materialized=False`` skips every ``materialize`` step — the
    unmaterialized reference side of the differential harness.
    """

    def __init__(
        self,
        script: Script,
        *,
        config: MaterializationConfig | None = None,
        materialized: bool = True,
    ) -> None:
        if script.domain not in SCHEMA_BUILDERS:
            raise ScriptError(f"unknown domain {script.domain!r}")
        self.script = script
        self.config = config or MaterializationConfig()
        self.materialized = materialized
        self.db: ObjectBase | None = None
        self._labels: dict[str, Oid] = {}
        self._label_of: dict[Oid, str] = {}
        self._batch = None
        self._result = ReplayResult()

    # -- label / value resolution --------------------------------------

    def _oid(self, label: str) -> Oid:
        try:
            return self._labels[label]
        except KeyError:
            raise ScriptError(f"unknown label {label!r}") from None

    def _handle(self, label: str) -> Handle:
        return self.db.handle(self._oid(label))

    def _value(self, raw: Any) -> Any:
        """Decode a step value: ``{"$ref": label}`` or a JSON scalar."""
        if isinstance(raw, dict):
            if set(raw) == {"$ref"}:
                return self._handle(raw["$ref"])
            raise ScriptError(f"unintelligible value {raw!r}")
        return raw

    # -- canonicalization ----------------------------------------------

    def _canonical(self, value: Any) -> Any:
        if isinstance(value, Handle):
            value = value.oid
        if isinstance(value, Oid):
            label = self._label_of.get(value)
            return f"@{label}" if label is not None else f"@oid:{value.value}"
        if isinstance(value, (list, tuple)):
            return [self._canonical(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = [self._canonical(item) for item in value]
            items.sort(key=repr)
            return {"$set": items}
        if isinstance(value, float) and math.isnan(value):
            # Canonical NaN token: distinct NaN objects are unequal (and
            # container equality's identity shortcut makes the result
            # depend on *which* NaN object ended up where), so digests
            # holding raw NaN floats would never compare stably.
            return {"$nan": True}
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if hasattr(value, "dep") and hasattr(value, "proj"):
            # MatrixLine (company domain) — flatten to a plain record.
            return {
                "$line": [
                    self._canonical(value.dep),
                    self._canonical(value.proj),
                    self._canonical(value.emps),
                ]
            }
        return repr(value)

    def _bind(self, label: str, oid: Oid) -> None:
        self._labels[label] = oid
        self._label_of[oid] = label

    # -- lifecycle ------------------------------------------------------

    def _build_db(self) -> ObjectBase:
        db = ObjectBase(config=self.config)
        SCHEMA_BUILDERS[self.script.domain](db)
        return db

    def run(self) -> ReplayResult:
        self.db = self._build_db()
        try:
            for step in self.script.steps:
                self._apply(step)
            if self._batch is not None:
                raise ScriptError("unclosed batch scope at end of script")
            self._settle()
            if self.materialized and self.db.has_gmr_manager:
                self._result.violations.extend(check_invariants(self.db))
            self._result.extensions = self._extensions_digest()
            return self._result
        finally:
            db, self.db = self.db, None
            if db is not None:
                db.close()

    def _settle(self) -> None:
        if not self.db.quiesce(QUIESCE_TIMEOUT):
            self._result.violations.append(
                f"quiesce did not settle within {QUIESCE_TIMEOUT}s"
            )

    def _extensions_digest(self) -> list[dict]:
        digest = []
        for obj in sorted(
            self.db.objects.iter_objects(), key=lambda o: o.oid.value
        ):
            digest.append(
                {
                    "object": self._canonical(obj.oid),
                    "type": obj.type_name,
                    "data": (
                        {
                            attr: self._canonical(value)
                            for attr, value in sorted(obj.data.items())
                        }
                        if obj.data is not None
                        else None
                    ),
                    "elements": (
                        sorted(
                            (self._canonical(e) for e in obj.elements),
                            key=repr,
                        )
                        if obj.elements is not None
                        else None
                    ),
                }
            )
        return digest

    # -- step dispatch --------------------------------------------------

    def _apply(self, step: dict) -> None:
        op = step.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ScriptError(f"unknown step op {op!r}")
        handler(step)

    def _op_new(self, step: dict) -> None:
        attrs = {
            name: self._value(raw) for name, raw in step.get("attrs", {}).items()
        }
        handle = self.db.new(step["type"], **attrs)
        self._bind(step["label"], handle.oid)

    def _op_new_collection(self, step: dict) -> None:
        elements = [self._handle(label) for label in step.get("elements", [])]
        handle = self.db.new_collection(step["type"], elements)
        self._bind(step["label"], handle.oid)

    def _op_set(self, step: dict) -> None:
        self.db.set_attr(
            self._oid(step["target"]), step["attr"], self._value(step["value"])
        )

    def _op_insert(self, step: dict) -> None:
        self.db.collection_insert(
            self._oid(step["target"]), self._value(step["value"])
        )

    def _op_remove(self, step: dict) -> None:
        self.db.collection_remove(
            self._oid(step["target"]), self._value(step["value"])
        )

    def _op_delete(self, step: dict) -> None:
        self.db.delete(self._oid(step["target"]))

    def _op_call(self, step: dict) -> None:
        handle = self._handle(step["target"])
        arguments = [self._value(raw) for raw in step.get("args", [])]
        getattr(handle, step["method"])(*arguments)

    def _op_materialize(self, step: dict) -> None:
        if self.materialized:
            self.db.query(step["text"])
            self._define_deltas()

    def _define_deltas(self) -> None:
        if (
            self.config.maintenance == "delta"
            and self.db.has_gmr_manager
            and self.script.domain in DELTA_BUILDERS
        ):
            DELTA_BUILDERS[self.script.domain](self.db)

    def _op_query(self, step: dict) -> None:
        try:
            result = self.db.query(step["text"])
        except QueryError:
            self._result.queries.append({"kind": "error"})
            return
        if isinstance(result, list):
            rows = [self._canonical(row) for row in result]
            rows.sort(key=repr)
            self._result.queries.append({"kind": "rows", "rows": rows})
        else:
            self._result.queries.append(
                {"kind": "scalar", "value": self._canonical(result)}
            )

    def _op_batch_begin(self, step: dict) -> None:
        if self._batch is not None:
            raise ScriptError("nested batch_begin")
        self._batch = self.db.batch()
        self._batch.__enter__()

    def _op_batch_end(self, step: dict) -> None:
        if self._batch is None:
            raise ScriptError("batch_end without batch_begin")
        scope, self._batch = self._batch, None
        scope.__exit__(None, None, None)

    def _op_quiesce(self, step: dict) -> None:
        self.db.quiesce(QUIESCE_TIMEOUT)

    def _op_checkpoint_recover(self, step: dict) -> None:
        if self._batch is not None:
            raise ScriptError("checkpoint_recover inside an open batch")
        from repro.persistence import checkpoint, recover

        restrictions = {}
        if self.db.has_gmr_manager:
            for gmr in self.db.gmr_manager.gmrs():
                if gmr.restriction is not None:
                    restrictions[gmr.name] = gmr.restriction
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as directory:
            path = os.path.join(directory, "checkpoint.json")
            checkpoint(self.db, path)
            self.db.close()
            fresh = self._build_db()
            recover(fresh, path, None, restrictions=restrictions or None)
            self.db = fresh
            # Delta declarations are runtime state; re-declare them so
            # post-recovery updates keep patching instead of silently
            # downgrading to invalidation.
            if self.materialized:
                self._define_deltas()


def check_invariants(db: ObjectBase) -> list[str]:
    """The Def. 3.2 / Sec. 5.2 oracle over every GMR — no strategy is
    exempt.

    Recompute-and-compare each GMR extension, require error flags only
    on error-state entries, and verify the RRR ↔ ObjDepFct lockstep.
    (The tests' fault-injection oracle implements the same checks; this
    copy lives in the library so ``python -m repro.fuzz`` needs nothing
    from the test tree.)
    """
    violations: list[str] = []
    manager = db.gmr_manager
    for gmr in manager.gmrs():
        violations.extend(gmr.check_consistency(db))
        for fid in gmr.fids:
            for args in gmr.error_args(fid):
                if gmr.entry_state(args, fid) != "error":
                    violations.append(
                        f"{gmr.name}{args!r}.{fid}: error flag on a "
                        f"{gmr.entry_state(args, fid)} entry"
                    )
    violations.extend(manager.verify_lockstep())
    return violations
