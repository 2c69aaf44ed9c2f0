"""GOMql execution: scans, GMR-backed plans, aggregates, materialize.

``run_statement`` is the entry point used by
:meth:`repro.gom.database.ObjectBase.query`.  External objects (the
paper's ``id99``, ``comp``, ``MyValuableCuboids``) are supplied through
the ``params`` mapping and referenced by bare identifiers; a range clause
may range over a type extension *or* over a parameter bound to a
set/list object ("the variable could also be bound to some set- or
list-structured object").
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    ExecutionError,
    InternalError,
    NotListStructuredError,
    NotSetStructuredError,
    QueryError,
    TypeCheckError,
    UnknownAttributeError,
    UnknownOperationError,
)
from repro.gom.handles import Handle, unwrap
from repro.gom.oid import Oid
from repro.gomql.ast import (
    MaterializeStmt,
    QAgg,
    QAnd,
    QAttr,
    QBin,
    QCall,
    QCmp,
    QConst,
    QExpr,
    QIn,
    QName,
    QNeg,
    QNot,
    QOr,
    QPred,
    Query,
    RangeDecl,
)
from repro.gomql.parser import parse_statement
from repro.gomql.planner import (
    find_backward_plan,
    find_index_plan,
    stash_range_type,
)
from repro.predicates.ast import (
    And as PAnd,
    Comparison,
    Not as PNot,
    Or as POr,
    Predicate,
    Variable,
)

_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def run_statement(db, text: str, params: dict[str, Any] | None = None) -> Any:
    """Parse and execute one GOMql statement."""
    return execute(db, parse_statement(text), params)


def execute(db, stmt, params: dict[str, Any] | None = None) -> Any:
    environment = dict(params or {})
    if isinstance(stmt, Query):
        return _execute_query(db, stmt, environment)
    if isinstance(stmt, MaterializeStmt):
        return _execute_materialize(db, stmt, environment)
    raise QueryError(f"cannot execute {stmt!r}")


# ---------------------------------------------------------------------------
# Expression / predicate evaluation
# ---------------------------------------------------------------------------


def eval_expr(expr: QExpr, env: dict[str, Any]) -> Any:
    if isinstance(expr, QConst):
        return expr.value
    if isinstance(expr, QName):
        try:
            return env[expr.name]
        except KeyError:
            raise ExecutionError(f"unbound identifier {expr.name!r}") from None
    if isinstance(expr, QAttr):
        base = eval_expr(expr.base, env)
        value = _member(base, expr.name)
        if isinstance(base, Handle) and callable(value):
            # GOM invokes parameterless functions without parentheses:
            # ``c.volume`` denotes the invocation, not the callable.
            return value()
        return value
    if isinstance(expr, QCall):
        base = eval_expr(expr.base, env)
        arguments = [eval_expr(argument, env) for argument in expr.args]
        target = _member(base, expr.name)
        try:
            return target(*arguments)
        except (TypeError, TypeCheckError) as exc:
            raise ExecutionError(
                f"cannot call {expr.name!r} with {len(arguments)} "
                f"argument(s): {exc}"
            ) from exc
    if isinstance(expr, QBin):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right
        except ZeroDivisionError as exc:
            raise ExecutionError("division by zero in query expression") from exc
        except TypeError as exc:
            raise ExecutionError(
                f"operator {expr.op!r} not applicable to "
                f"{type(left).__name__} and {type(right).__name__}"
            ) from exc
        raise ExecutionError(f"unknown operator {expr.op}")
    if isinstance(expr, QNeg):
        value = eval_expr(expr.operand, env)
        try:
            return -value
        except TypeError as exc:
            raise ExecutionError(
                f"unary minus not applicable to {type(value).__name__}"
            ) from exc
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _member(base: Any, name: str) -> Any:
    """``base.name`` with query-level error categorization.

    An unknown attribute/operation is a *query* mistake, so the schema's
    complaint (or a plain ``AttributeError`` on a non-object value) is
    reported as :class:`ExecutionError`; anything else — encapsulation
    violations, materialization faults — keeps its own type.
    """
    try:
        return getattr(base, name)
    except (AttributeError, UnknownAttributeError, UnknownOperationError) as exc:
        raise ExecutionError(
            f"no attribute or operation {name!r} on {_describe(base)}"
        ) from exc


def _describe(value: Any) -> str:
    if isinstance(value, Handle):
        return f"{value.type_name} object"
    return f"value of type {type(value).__name__}"


def eval_pred(pred: QPred, env: dict[str, Any]) -> bool:
    if isinstance(pred, QCmp):
        left = eval_expr(pred.left, env)
        right = eval_expr(pred.right, env)
        try:
            return _CMP[pred.op](left, right)
        except TypeError as exc:
            raise ExecutionError(
                f"cannot compare {type(left).__name__} {pred.op} "
                f"{type(right).__name__}"
            ) from exc
    if isinstance(pred, QIn):
        item = eval_expr(pred.item, env)
        collection = eval_expr(pred.collection, env)
        try:
            if isinstance(collection, Handle):
                return collection.contains(item)
            return item in collection
        except (TypeError, NotSetStructuredError, NotListStructuredError) as exc:
            raise ExecutionError(
                f"'in' target is not a collection: {_describe(collection)}"
            ) from exc
    if isinstance(pred, QAnd):
        return all(eval_pred(part, env) for part in pred.parts)
    if isinstance(pred, QOr):
        return any(eval_pred(part, env) for part in pred.parts)
    if isinstance(pred, QNot):
        return not eval_pred(pred.part, env)
    raise ExecutionError(f"cannot evaluate predicate {pred!r}")


# ---------------------------------------------------------------------------
# retrieve
# ---------------------------------------------------------------------------


def _domain(db, decl: RangeDecl, env: dict[str, Any]) -> tuple[list[Handle], str]:
    """Resolve a range declaration to (candidates, element type)."""
    type_name = decl.type_name
    if db.schema.has_type(type_name):
        return db.extension(type_name), type_name
    bound = env.get(type_name)
    if isinstance(bound, Handle):
        definition = db.schema.type(bound.type_name)
        if definition.is_collection():
            return list(bound), definition.element_type or "ANY"
    if isinstance(bound, (list, tuple, set)):
        element_type = "ANY"
        items = list(bound)
        if items and isinstance(items[0], Handle):
            element_type = items[0].type_name
        return items, element_type
    raise QueryError(
        f"range target {type_name!r} is neither a type nor a bound collection"
    )


def plan_range(
    db, decl: RangeDecl, where: QPred | None, env: dict[str, Any]
) -> tuple[str, Any]:
    """Choose the access path of the outermost typed range.

    Sec. 3.2: the query is reformulated onto the GMR or an index *before*
    it is evaluated, so the range's extension is built only for a scan.
    Returns ``("gmr-backward", BackwardPlan)``, ``("attr-index", oids)``
    or ``("scan", None)``.  This is the one ladder — execution and
    EXPLAIN both read it.  Conjuncts referencing inner (still unbound)
    variables are ignored by the planner and re-checked by the residual
    predicate evaluation.
    """
    var, type_name = decl.var, decl.type_name
    stash_range_type(env, var, type_name)
    backward = find_backward_plan(db, var, type_name, where, env, eval_expr)
    if backward is not None:
        return "gmr-backward", backward
    indexed = find_index_plan(db, var, type_name, where, env, eval_expr)
    if indexed is not None:
        return "attr-index", indexed
    return "scan", None


def _planned_candidates(
    db, decl: RangeDecl, where: QPred | None, env: dict[str, Any]
) -> list[Handle] | None:
    """The planned range's candidates; None when only a scan answers it."""
    kind, plan = plan_range(db, decl, where, env)
    if kind == "attr-index":
        return [db.handle(oid) for oid in plan if db.objects.exists(oid)]
    if kind == "scan":
        return None
    bounds = plan.bounds
    matches = db.gmr_manager.backward_query(
        plan.fid,
        bounds.low,
        bounds.high,
        include_low=bounds.include_low,
        include_high=bounds.include_high,
    )
    return [
        db.handle(args[0])
        for _value, args in matches
        if tuple(args[1:]) == plan.fixed_args
        and isinstance(args[0], Oid)
        and db.objects.exists(args[0])
    ]


def _execute_query(db, query: Query, env: dict[str, Any]) -> Any:
    domains: list[tuple[RangeDecl, list[Handle]]] = []
    for index, decl in enumerate(query.ranges):
        candidates = None
        if index == 0 and db.schema.has_type(decl.type_name):
            candidates = _planned_candidates(db, decl, query.where, env)
        if candidates is None:
            candidates, element_type = _domain(db, decl, env)
            stash_range_type(env, decl.var, element_type)
        domains.append((decl, candidates))

    aggregates = [
        projection for projection in query.projections if isinstance(projection, QAgg)
    ]
    if aggregates and len(aggregates) != len(query.projections):
        raise QueryError("aggregate and plain projections cannot be mixed")

    rows: list[tuple] = []
    agg_values: list[list[Any]] = [[] for _ in query.projections]

    def recurse(position: int) -> None:
        if position == len(domains):
            if query.where is not None and not eval_pred(query.where, env):
                return
            if aggregates:
                for slot, projection in enumerate(query.projections):
                    if not isinstance(projection, QAgg):
                        raise InternalError(
                            "mixed aggregate and plain projections "
                            "survived validation"
                        )
                    agg_values[slot].append(eval_expr(projection.arg, env))
            else:
                rows.append(
                    tuple(
                        eval_expr(projection, env)
                        for projection in query.projections
                    )
                )
            return
        decl, candidates = domains[position]
        for candidate in candidates:
            env[decl.var] = candidate
            recurse(position + 1)
        env.pop(decl.var, None)

    recurse(0)

    if aggregates:
        results = tuple(
            _aggregate(projection.func, values)  # type: ignore[union-attr]
            for projection, values in zip(query.projections, agg_values)
        )
        return results[0] if len(results) == 1 else results
    if len(query.projections) == 1:
        return [row[0] for row in rows]
    return rows


def _aggregate(func: str, values: list[Any]) -> Any:
    try:
        if func == "count":
            return len(values)
        if func == "sum":
            return sum(values)
        if func == "avg":
            return sum(values) / len(values) if values else 0.0
        if func == "min":
            return min(values) if values else None
        if func == "max":
            return max(values) if values else None
    except TypeError as exc:
        raise ExecutionError(
            f"aggregate {func}() not applicable to these values"
        ) from exc
    raise QueryError(f"unknown aggregate {func}")


# ---------------------------------------------------------------------------
# materialize
# ---------------------------------------------------------------------------


def _execute_materialize(db, stmt: MaterializeStmt, env: dict[str, Any]):
    from repro.core.restricted import RestrictionSpec

    var_types = {decl.var: decl.type_name for decl in stmt.ranges}
    for decl in stmt.ranges:
        if not db.schema.has_type(decl.type_name):
            raise QueryError(
                f"materialize ranges must be type extensions; "
                f"{decl.type_name!r} is not a type"
            )

    receiver: str | None = None
    arg_vars: tuple[str, ...] | None = None
    functions: list[tuple[str, str]] = []
    for target in stmt.targets:
        if not isinstance(target.base, QName) or target.base.name not in var_types:
            raise QueryError("materialize targets must be calls on range variables")
        this_receiver = target.base.name
        these_args: list[str] = []
        for argument in target.args:
            if not isinstance(argument, QName) or argument.name not in var_types:
                raise QueryError(
                    "materialize target arguments must be range variables"
                )
            these_args.append(argument.name)
        if receiver is None:
            receiver, arg_vars = this_receiver, tuple(these_args)
        elif (receiver, arg_vars) != (this_receiver, tuple(these_args)):
            raise QueryError(
                "all targets of one materialize statement must share their "
                "argument variables"
            )
        functions.append((var_types[this_receiver], target.name))

    if receiver is None or arg_vars is None:
        raise QueryError("materialize statement names no target functions")
    var_names = (receiver,) + arg_vars
    restriction = None
    if stmt.where is not None:
        predicate = _to_restriction_predicate(stmt.where, set(var_names), env)
        restriction = RestrictionSpec(predicate=predicate, var_names=var_names)
    return db.gmr_manager.materialize(functions, restriction=restriction)


def _to_restriction_predicate(
    pred: QPred, var_names: set[str], env: dict[str, Any]
) -> Predicate:
    """Translate a GOMql where clause into a restriction predicate."""
    if isinstance(pred, QCmp):
        left = _to_term(pred.left, var_names, env)
        right = _to_term(pred.right, var_names, env)
        if isinstance(left, Variable) and isinstance(right, Variable):
            return Comparison(left, pred.op, right)
        if isinstance(left, Variable):
            return Comparison(left, pred.op, None, constant=right)
        if isinstance(right, Variable):
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
            return Comparison(right, flip[pred.op], None, constant=left)
        raise QueryError(
            f"restriction comparison {pred!r} references no range variable"
        )
    if isinstance(pred, QAnd):
        return PAnd(
            tuple(_to_restriction_predicate(p, var_names, env) for p in pred.parts)
        )
    if isinstance(pred, QOr):
        return POr(
            tuple(_to_restriction_predicate(p, var_names, env) for p in pred.parts)
        )
    if isinstance(pred, QNot):
        return PNot(_to_restriction_predicate(pred.part, var_names, env))
    raise QueryError(f"unsupported restriction predicate {pred!r}")


def _to_term(expr: QExpr, var_names: set[str], env: dict[str, Any]):
    path: list[str] = []
    node = expr
    while isinstance(node, QAttr):
        path.append(node.name)
        node = node.base
    if isinstance(node, QName) and node.name in var_names:
        return Variable(node.name, tuple(reversed(path)))
    value = eval_expr(expr, env)
    return unwrap(value)
