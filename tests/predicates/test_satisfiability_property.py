"""Property test: the decision procedure agrees with brute force.

Random conjunctions over a few variables with small integer constants
are checked against exhaustive search, in both domains:

* **dense** (the default, real-valued semantics) against a rational
  grid.  All constraint boundaries are integral here, so witnessing a
  satisfiable strict chain through up to three variables (e.g.
  ``1 < a < b < c < 2``) needs at most three distinct interior points
  per unit interval — a step of 1/4.  (The seed's half-step grid was
  too coarse: ``c < 2 ∧ a > 1 ∧ a < 2 ∧ a < c`` is real-satisfiable
  with two distinct values in ``(1, 2)``, which a half-step grid cannot
  represent.)
* **integer** (``integer_vars`` tightening) against the integer grid.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from repro.predicates.ast import Comparison, Variable
from repro.predicates.satisfiability import is_satisfiable

_VARS = [Variable("a"), Variable("b"), Variable("c")]
_OPS = ["<", "<=", ">", ">=", "="]

_OPERATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
}


@st.composite
def conjunctions(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    comparisons = []
    for _ in range(count):
        left = draw(st.sampled_from(_VARS))
        op = draw(st.sampled_from(_OPS))
        kind = draw(st.integers(min_value=1, max_value=3))
        if kind == 1:
            constant = draw(st.integers(min_value=-3, max_value=3))
            comparisons.append(Comparison(left, op, None, constant=constant))
        else:
            right = draw(st.sampled_from(_VARS))
            offset = (
                0.0 if kind == 2 else draw(st.integers(min_value=-2, max_value=2))
            )
            comparisons.append(Comparison(left, op, right, offset=float(offset)))
    return comparisons


def brute_force(conjunct, grid) -> bool:
    variables = sorted(
        {v.name for comparison in conjunct for v in comparison.variables()}
    )
    for values in product(grid, repeat=len(variables)):
        binding = dict(zip(variables, values))
        ok = True
        for comparison in conjunct:
            left = binding[comparison.left.name]
            if comparison.right is None:
                right = Fraction(comparison.constant)
            else:
                right = binding[comparison.right.name] + Fraction(
                    comparison.offset
                )
            if not _OPERATORS[comparison.op](left, right):
                ok = False
                break
        if ok:
            return True
    return False


#: Constants live in [-3, 3] and offsets in [-2, 2]; a feasible system
#: always has a solution with every variable in [-8, 8] (an anchor bound
#: of at most 3 plus at most two offset hops of 2 across the three
#: distinct variables; unanchored systems are translation-invariant).
_DENSE_GRID = [Fraction(n, 4) for n in range(-32, 33)]
_INTEGER_GRID = [Fraction(n) for n in range(-8, 9)]


@given(conjunct=conjunctions())
@settings(deadline=None)  # budget: the profile's (tests/conftest.py)
def test_agrees_with_brute_force(conjunct):
    assert is_satisfiable(conjunct) == brute_force(conjunct, _DENSE_GRID)


@given(conjunct=conjunctions())
@settings(max_examples=100, deadline=None)
def test_integer_domain_agrees_with_integer_brute_force(conjunct):
    decided = is_satisfiable(conjunct, integer_vars={"a", "b", "c"})
    assert decided == brute_force(conjunct, _INTEGER_GRID)


@given(conjunct=conjunctions())
@settings(max_examples=100, deadline=None)
def test_integer_tightening_never_widens(conjunct):
    """Integer satisfiability implies dense satisfiability (ℤ ⊂ ℝ)."""
    if is_satisfiable(conjunct, integer_vars={"a", "b", "c"}):
        assert is_satisfiable(conjunct)
