"""Differential oracle: the exact linear algebra and the Poly operations
against sympy.

Kept apart from test_polyring.py so that a missing sympy fails only this
file.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from test_polyring import VARS3, matrices, polys

from mbrwa.polyring import (
    Poly,
    VarSet,
    lie_derivative,
    matrix_rank,
    solve_nullspace,
)

# the target of cross-VarSet substitutions: c carries over by name
TARGET = VarSet("c", "u", "v")


def to_sympy(p: Poly) -> sympy.Poly:
    gens = sympy.symbols(p.vars.names)
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


def same(p: Poly, q: sympy.Poly) -> bool:
    """Whether a Poly and a sympy Poly over the same generators are equal."""
    return to_sympy(p).as_dict() == q.as_dict()


@given(polys(), polys())
def test_mul_matches_sympy(p, q):
    assert same(p * q, to_sympy(p) * to_sympy(q))


@given(polys(), st.sampled_from(VARS3.names))
def test_diff_matches_sympy(p, v):
    assert same(p.diff(v), to_sympy(p).diff(sympy.Symbol(v)))


# sympy's expansion of a substituted polynomial alone can outlast
# hypothesis' default deadline, so the substitution oracles have none
@given(polys(), polys(), st.sampled_from(VARS3.names))
@settings(max_examples=50, deadline=None)
def test_substitute_matches_sympy(p, g, v):
    expr = to_sympy(p).as_expr().subs(sympy.Symbol(v), to_sympy(g).as_expr())
    assert same(p.substitute({v: g}), sympy.Poly(expr, *sympy.symbols(VARS3.names)))


@given(polys(), polys(vars=TARGET), polys(vars=TARGET))
@settings(max_examples=50, deadline=None)
def test_substitute_across_varsets_matches_sympy(p, ga, gb):
    a, b = sympy.symbols("a b")
    bindings = {a: to_sympy(ga).as_expr(), b: to_sympy(gb).as_expr()}
    expr = to_sympy(p).as_expr().subs(bindings, simultaneous=True)
    got = p.substitute({"a": ga, "b": gb})
    assert got.vars == TARGET
    assert same(got, sympy.Poly(expr, *sympy.symbols(TARGET.names)))


@given(polys(), st.dictionaries(st.sampled_from(VARS3.names), polys(max_terms=3)))
def test_lie_derivative_matches_sympy(f, field):
    expected = sum(
        (to_sympy(c) * to_sympy(f).diff(sympy.Symbol(n)) for n, c in field.items()),
        to_sympy(Poly.zero(VARS3)),
    )
    assert same(lie_derivative(field, f), expected)


@st.composite
def sparse_matrices(draw):
    """Up to 12x12, mostly zeros, rational entries with denominators, and
    some rows and columns zeroed out entirely."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 12))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    cells = draw(st.dictionaries(cell, entry, max_size=max(1, nrows * ncols // 4)))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    return [
        [
            0 if i in zero_rows or j in zero_cols else cells.get((i, j), 0)
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


def assert_rank_matches(m):
    assert matrix_rank(m) == sympy.Matrix(m).rank()


def assert_nullspace_matches(m):
    # both return the basis read off the unique RREF, so they agree
    # entry for entry, not only as spans
    want = [[Fraction(int(x.p), int(x.q)) for x in v] for v in sympy.Matrix(m).nullspace()]
    assert solve_nullspace(m) == want


@given(matrices())
def test_rank_matches_sympy(m):
    assert_rank_matches(m)


@given(matrices())
def test_nullspace_matches_sympy(m):
    assert_nullspace_matches(m)


@given(sparse_matrices())
@settings(deadline=None)
def test_sparse_matches_sympy(m):
    assert_rank_matches(m)
    assert_nullspace_matches(m)
