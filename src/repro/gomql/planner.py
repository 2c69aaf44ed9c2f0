"""Query planning: deciding how GMRs answer GOMql queries (Sec. 3.2/6).

For single-variable queries the planner recognises:

* **backward queries** — conjuncts comparing a materialized function
  invocation on the range variable against constants.  The candidate set
  comes from the GMR's result index via
  :meth:`~repro.core.manager.GMRManager.backward_query`.  For a
  p-restricted GMR the Sec. 6 applicability test runs first: the
  restriction (instantiated with the query's constant arguments) must
  cover the relevant part ``σ'`` of the selection predicate.
* **indexed forward selections** — ``var.Attr = const`` conjuncts over an
  attribute with an index (the paper's ``CuboidID`` lookup).

Everything else falls back to a scan of the range's extension.  Forward
invocations of materialized functions need no planning at all: operation
dispatch maps them to GMR probes (Sec. 3.2, last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import InternalError
from repro.gom.handles import Handle, unwrap
from repro.gom.oid import Oid
from repro.gomql.ast import (
    QAttr,
    QCall,
    QCmp,
    QConst,
    QExpr,
    QName,
    QPred,
    conjuncts,
    variables_of,
)
from repro.predicates.ast import (
    And,
    Comparison,
    Predicate,
    TRUE,
    Variable,
)
from repro.predicates.cover import covers

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.gmr import GMR
    from repro.gom.database import ObjectBase

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


@dataclass
class Bounds:
    """Accumulated range bounds on one function invocation."""

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def tighten(self, op: str, value: Any) -> bool:
        """Apply ``f(...) op value``; returns False for unusable ops."""
        if op in (">", ">="):
            if self.low is None or value > self.low:
                self.low = value
                self.include_low = op == ">="
            elif value == self.low and op == ">":
                self.include_low = False
            return True
        if op in ("<", "<="):
            if self.high is None or value < self.high:
                self.high = value
                self.include_high = op == "<="
            elif value == self.high and op == "<":
                self.include_high = False
            return True
        if op == "=":
            self.tighten(">=", value)
            self.tighten("<=", value)
            return True
        return False


@dataclass
class BackwardPlan:
    """Answer candidates for one range variable from a GMR index."""

    fid: str
    bounds: Bounds
    fixed_args: tuple  # raw values for argument positions 1..n-1
    var: str


def _orderable(sample: Any, *values: Any) -> bool:
    """Can the index holding ``sample`` be probed with ``values``?

    A plan must fail (or not) exactly like the scan it replaces; a
    constant the stored keys cannot be ordered against would instead
    escape as a raw ``TypeError`` from the index, so such a plan is
    declined.  ``None`` is an absent bound / an empty index.
    """
    if sample is None:
        return True
    try:
        for value in values:
            if value is not None:
                sample < value
    except TypeError:
        return False
    return True


def _try_const(
    expr: QExpr, env: dict[str, Any], evaluator: Callable[[QExpr, dict], Any]
) -> tuple[bool, Any]:
    """Evaluate an expression that must not reference range variables."""
    try:
        return True, evaluator(expr, env)
    except Exception:
        return False, None


def find_backward_plan(
    db: "ObjectBase",
    var: str,
    type_name: str,
    where: QPred | None,
    params: dict[str, Any],
    evaluator: Callable[[QExpr, dict], Any],
) -> BackwardPlan | None:
    """Detect a usable backward-query plan for ``var`` (or None)."""
    if where is None or not db.has_gmr_manager:
        return None
    manager = db.gmr_manager
    candidates: dict[tuple, Bounds] = {}
    calls: dict[tuple, tuple[str, tuple]] = {}
    for conjunct in conjuncts(where):
        if not isinstance(conjunct, QCmp):
            continue
        call, op, other = _orient(db, conjunct, var, params)
        if call is None:
            continue
        if variables_of(other) & {var}:
            continue
        ok, value = _try_const(other, params, evaluator)
        if not ok:
            continue
        signature = _call_signature(db, call, var, params, evaluator)
        if signature is None:
            continue
        key, fid, fixed = signature
        bounds = candidates.setdefault(key, Bounds())
        # Record the call even when the operator is unusable (!=): the
        # key is already in `candidates`, and an unusable-only key must
        # still resolve below (its empty bounds reject it there).
        calls[key] = (fid, fixed)
        try:
            bounds.tighten(op, value)
        except TypeError:
            # Two bounds on one invocation that cannot be ordered against
            # each other: no range to probe, the scan reports the mistake.
            return None

    for key, bounds in candidates.items():
        fid, fixed = calls[key]
        gmr = manager.gmr_of(fid)
        if gmr is None or not gmr.complete:
            continue
        if gmr.is_restricted and not _restricted_applicable(
            db, gmr, var, where, params, evaluator
        ):
            continue
        if bounds.low is None and bounds.high is None:
            continue
        if not _orderable(gmr.sample_result(fid), bounds.low, bounds.high):
            continue
        return BackwardPlan(fid=fid, bounds=bounds, fixed_args=fixed, var=var)
    return None


def _orient(
    db: "ObjectBase", conjunct: QCmp, var: str, params: dict[str, Any]
) -> tuple[QCall | None, str, QExpr]:
    """Rewrite the comparison so a call on ``var`` is on the left."""
    left = _coerce_call(db, conjunct.left, var, params)
    right = _coerce_call(db, conjunct.right, var, params)
    if left is not None:
        return left, conjunct.op, conjunct.right
    if right is not None:
        return right, _FLIP[conjunct.op], conjunct.left
    return None, conjunct.op, conjunct.right


def _coerce_call(
    db: "ObjectBase", expr: QExpr, var: str, params: dict[str, Any]
) -> QCall | None:
    """A call on ``var`` — including the paren-free ``c.volume`` form."""
    if (
        isinstance(expr, QCall)
        and isinstance(expr.base, QName)
        and expr.base.name == var
    ):
        return expr
    if (
        isinstance(expr, QAttr)
        and isinstance(expr.base, QName)
        and expr.base.name == var
        and db.schema.has_operation(_range_type(db, var, params), expr.name)
    ):
        return QCall(expr.base, expr.name, ())
    return None


def _call_signature(
    db: "ObjectBase",
    call: QCall,
    var: str,
    params: dict[str, Any],
    evaluator: Callable[[QExpr, dict], Any],
) -> tuple[tuple, str, tuple] | None:
    """Resolve a call on the range variable to a materialized fid."""
    manager = db.gmr_manager
    fixed: list[Any] = []
    for argument in call.args:
        ok, value = _try_const(argument, params, evaluator)
        if not ok:
            return None
        fixed.append(unwrap(value))
    # Resolve the declaring type of the operation from the range type.
    try:
        decl_type, _ = db.schema.resolve_operation(_range_type(db, var, params), call.name)
    except Exception:
        return None
    fid = manager.fid_of_op(decl_type, call.name)
    if fid is None:
        return None
    key = (fid, tuple(fixed))
    return key, fid, tuple(fixed)


# The planner needs the range variable's type; the executor stashes it in
# params under a reserved key so helper functions can reach it without
# widening every signature.
_RANGE_TYPE_KEY = "__range_type__:{var}"


def stash_range_type(params: dict[str, Any], var: str, type_name: str) -> None:
    params[_RANGE_TYPE_KEY.format(var=var)] = type_name


def _range_type(db: "ObjectBase", var: str, params: dict[str, Any]) -> str:
    return params[_RANGE_TYPE_KEY.format(var=var)]


# ---------------------------------------------------------------------------
# Restricted-GMR applicability (Sec. 6)
# ---------------------------------------------------------------------------


def _restricted_applicable(
    db: "ObjectBase",
    gmr: "GMR",
    var: str,
    where: QPred,
    params: dict[str, Any],
    evaluator: Callable[[QExpr, dict], Any],
) -> bool:
    """The cover test: restriction (instantiated) must cover σ'."""
    spec = gmr.restriction
    if spec is None:
        raise InternalError("cover test reached for an unrestricted GMR")
    if spec.predicate is None:
        # Atomic-only restrictions cannot be checked against the selection
        # without argument values; be conservative.
        return False
    restriction = _instantiate_restriction(db, gmr, var, params)
    if restriction is None:
        return False
    sigma = _relevant_selection(var, where, params, evaluator)
    return covers(restriction, sigma)


def _instantiate_restriction(
    db: "ObjectBase", gmr: "GMR", var: str, params: dict[str, Any]
) -> Predicate | None:
    """Rename the restriction's range variables to the query's variable.

    Only single-complex-argument restrictions can be renamed without
    knowing the query's other argument bindings; restrictions over
    several object variables are instantiated conservatively: if any
    variable beyond the receiver occurs, the test is abandoned (the
    executor falls back to a scan, which is always correct).
    """
    spec = gmr.restriction
    if spec is None or spec.predicate is None:
        raise InternalError(
            "restriction instantiation reached without a predicate"
        )
    names = spec.var_names
    if not names:
        return None
    mapping = {names[0]: var}
    extra = spec.predicate_variables() - set(names[:1])
    if extra:
        return None
    return _rename(spec.predicate, mapping)


def _rename(predicate: Predicate, mapping: dict[str, str]) -> Predicate:
    from repro.predicates.ast import And as PAnd, Not as PNot, Or as POr

    if isinstance(predicate, Comparison):
        left = Variable(mapping.get(predicate.left.name, predicate.left.name), predicate.left.path)
        right = predicate.right
        if right is not None:
            right = Variable(mapping.get(right.name, right.name), right.path)
        return Comparison(left, predicate.op, right, predicate.offset, predicate.constant)
    if isinstance(predicate, PAnd):
        return PAnd(tuple(_rename(part, mapping) for part in predicate.parts))
    if isinstance(predicate, POr):
        return POr(tuple(_rename(part, mapping) for part in predicate.parts))
    if isinstance(predicate, PNot):
        return PNot(_rename(predicate.part, mapping))
    return predicate


def _relevant_selection(
    var: str,
    where: QPred,
    params: dict[str, Any],
    evaluator: Callable[[QExpr, dict], Any],
) -> Predicate:
    """σ': the conjuncts mentioning ``var``, translated to comparisons.

    Function invocations become synthetic variables (their results are
    opaque values to the decision procedure); untranslatable conjuncts
    are dropped, which only weakens σ' — a safe direction for the test.
    """
    translated: list[Predicate] = []
    synthetic: dict[str, str] = {}
    for conjunct in conjuncts(where):
        if var not in variables_of(conjunct):
            continue
        if not isinstance(conjunct, QCmp):
            continue
        piece = _translate_cmp(conjunct, var, params, evaluator, synthetic)
        if piece is not None:
            translated.append(piece)
    if not translated:
        return TRUE
    if len(translated) == 1:
        return translated[0]
    return And(tuple(translated))


def _translate_cmp(
    conjunct: QCmp,
    var: str,
    params: dict[str, Any],
    evaluator: Callable[[QExpr, dict], Any],
    synthetic: dict[str, str],
) -> Predicate | None:
    left = _translate_term(conjunct.left, var, params, evaluator, synthetic)
    right = _translate_term(conjunct.right, var, params, evaluator, synthetic)
    if left is None or right is None:
        return None
    op = conjunct.op
    if isinstance(left, Variable):
        if isinstance(right, Variable):
            return Comparison(left, op, right)
        return Comparison(left, op, None, constant=right)
    if isinstance(right, Variable):
        return Comparison(right, _FLIP[op], None, constant=left)
    return None  # constant-vs-constant: uninformative


def _translate_term(
    expr: QExpr,
    var: str,
    params: dict[str, Any],
    evaluator: Callable[[QExpr, dict], Any],
    synthetic: dict[str, str],
) -> Variable | Any | None:
    """A term of σ': a variable (path on ``var`` / synthetic call) or a
    constant value (anything evaluable without the range variable)."""
    if isinstance(expr, QName) and expr.name == var:
        return Variable(var)
    path: list[str] = []
    node = expr
    while isinstance(node, QAttr):
        path.append(node.name)
        node = node.base
    if isinstance(node, QName) and node.name == var:
        return Variable(var, tuple(reversed(path)))
    if isinstance(node, QCall) and var in variables_of(node):
        key = repr(expr)
        name = synthetic.setdefault(key, f"@call{len(synthetic)}")
        if path:
            return None
        return Variable(name)
    if var in variables_of(expr):
        return None
    ok, value = _try_const(expr, params, evaluator)
    if not ok:
        return None
    return unwrap(value)


def find_index_plan(
    db: "ObjectBase",
    var: str,
    type_name: str,
    where: QPred | None,
    params: dict[str, Any],
    evaluator: Callable[[QExpr, dict], Any],
) -> list[Oid] | None:
    """Equality selection over an indexed attribute → candidate OIDs."""
    if where is None:
        return None
    for conjunct in conjuncts(where):
        if not isinstance(conjunct, QCmp) or conjunct.op != "=":
            continue
        for attr_side, const_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(attr_side, QAttr):
                continue
            if not (
                isinstance(attr_side.base, QName) and attr_side.base.name == var
            ):
                continue
            index = db.attr_index(type_name, attr_side.name)
            if index is None:
                continue
            if variables_of(const_side) & {var}:
                continue
            ok, value = _try_const(const_side, params, evaluator)
            if not ok:
                continue
            value = unwrap(value)
            # Unset attributes are not indexed: only a scan finds them.
            if value is None or not _orderable(index.sample_key(), value):
                continue
            return list(index.search(value))
    return None
