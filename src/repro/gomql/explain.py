"""Plan explanation: which access path answers a GOMql query?

The paper's conclusion reports extending the rule-based query optimizer
"to generate query evaluation plans that utilize materialized values
instead of recomputing them".  :func:`explain_statement` surfaces that
decision: for each range variable it reports whether the candidates come
from a GMR's result index (a backward plan), an attribute index, or a
scan of the extension — without executing the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import InternalError
from repro.gomql.ast import MaterializeStmt, Query
from repro.gomql.executor import plan_range
from repro.gomql.parser import parse_statement


@dataclass(frozen=True)
class AccessPath:
    """The chosen access path for one range variable."""

    var: str
    type_name: str
    kind: str  # 'gmr-backward' | 'attr-index' | 'scan' | 'binding'
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.var}: {self.kind}{suffix}"


@dataclass(frozen=True)
class PlanExplanation:
    statement: str  # 'retrieve' | 'materialize'
    paths: tuple[AccessPath, ...]

    def __str__(self) -> str:
        lines = [f"statement: {self.statement}"]
        lines.extend(f"  {path}" for path in self.paths)
        return "\n".join(lines)


def explain_statement(
    db, text: str, params: dict[str, Any] | None = None
) -> PlanExplanation:
    """Explain — without executing — how ``text`` would be evaluated."""
    stmt = parse_statement(text)
    environment = dict(params or {})
    if isinstance(stmt, MaterializeStmt):
        targets = ", ".join(
            f"{target.base.name}.{target.name}" for target in stmt.targets  # type: ignore[union-attr]
        )
        return PlanExplanation(
            "materialize",
            (
                AccessPath(
                    var=stmt.ranges[0].var,
                    type_name=stmt.ranges[0].type_name,
                    kind="materialize",
                    detail=targets,
                ),
            ),
        )
    if not isinstance(stmt, Query):
        raise InternalError(
            f"unexplainable statement kind {type(stmt).__name__}"
        )
    paths: list[AccessPath] = []
    for index, decl in enumerate(stmt.ranges):
        if not db.schema.has_type(decl.type_name):
            paths.append(
                AccessPath(decl.var, decl.type_name, "binding",
                           f"bound collection {decl.type_name}")
            )
            continue
        # Only the outermost range is planned; the ladder is the
        # executor's own, so EXPLAIN cannot report what it would not do.
        kind, plan = (
            plan_range(db, decl, stmt.where, environment)
            if index == 0
            else ("scan", None)
        )
        if kind == "gmr-backward":
            bounds = plan.bounds
            detail = (
                f"{db.gmr_manager.gmr_of(plan.fid).name} on {plan.fid}, range "
                f"{'[' if bounds.include_low else '('}"
                f"{bounds.low}, {bounds.high}"
                f"{']' if bounds.include_high else ')'}"
            )
        elif kind == "attr-index":
            detail = f"{len(plan)} candidate(s)"
        else:
            detail = f"extension of {decl.type_name}"
        paths.append(AccessPath(decl.var, decl.type_name, kind, detail))
    return PlanExplanation("retrieve", tuple(paths))
