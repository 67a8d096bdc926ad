"""Exact polynomial ring: examples, properties, and the linear solver."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbrwa import symmetry
from mbrwa.model import _poly_source
from mbrwa.polyring import (
    Poly,
    VarSet,
    VarSetMismatch,
    _coeff,
    _rref,
    kernel,
    lie_derivative,
    matrix_rank,
    solve_nullspace,
)
import oracles

XY = VarSet("x", "y")
X = Poly.var(XY, "x")
Y = Poly.var(XY, "y")


class TestArithmetic:
    def test_add_cancellation(self):
        assert (X + 1) + (X - 1) == 2 * X

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_neg_zero(self):
        assert -Poly.zero(XY) == Poly.zero(XY)
        assert (-Poly.zero(XY)).is_zero

    def test_no_stored_zero_coefficients(self):
        p = X - X
        assert p.terms == {}

    def test_varset_mismatch(self):
        other = Poly.var(VarSet("x", "z"), "x")
        with pytest.raises(VarSetMismatch):
            X + other

    def test_scalar_coercion(self):
        assert Fraction(1, 2) * (X + X) == X
        assert 1 - X == -(X - 1)


class TestDiff:
    def test_power_rule(self):
        assert (X**2 * Y).diff("x") == 2 * X * Y

    def test_constant(self):
        assert Poly.const(XY, 7).diff("x").is_zero

    def test_linear_factor(self):
        assert (X * Y).diff("y") == X

    def test_unknown_var(self):
        with pytest.raises(KeyError):
            X.diff("w")


class TestSubstitute:
    def test_defining_substitution(self):
        p = X - X * Y  # stand-in for eliminating x via x = x*y
        assert p.substitute({"x": X * Y}) == X * Y - X * Y**2

    def test_binomial(self):
        assert (X**2).substitute({"x": Y + 1}) == Y**2 + 2 * Y + 1

    def test_empty_is_identity(self):
        p = X**2 + 3 * Y
        assert p.substitute({}) == p

    def test_simultaneous(self):
        # x <-> y swap must not cascade
        p = X + 2 * Y
        assert p.substitute({"x": Y, "y": X}) == Y + 2 * X

    def test_unknown_var(self):
        with pytest.raises(KeyError):
            X.substitute({"w": Y})

    def test_cross_varset(self):
        # x -> a + b moves the result onto (y, a, b); y carries over by name
        yab = VarSet("y", "a", "b")
        y, a, b = Poly.variables(yab)
        assert (X**2 * Y + X).substitute({"x": a + b}) == (a + b) ** 2 * y + a + b

    def test_unbound_var_missing_from_target(self):
        with pytest.raises(KeyError):
            (X * Y).substitute({"x": Poly.var(VarSet("a"), "a")})

    def test_bound_polys_over_different_varsets(self):
        with pytest.raises(VarSetMismatch):
            X.substitute({"x": Poly.var(VarSet("a"), "a"), "y": Poly.var(VarSet("b"), "b")})


class TestLieDerivative:
    def test_matches_hand_expanded_sum(self):
        f = X**2 * Y + Y**3
        # y * (2xy) + (-x) * (x^2 + 3y^2)
        assert lie_derivative({"x": Y, "y": -X}, f) == -(X**3) - X * Y**2

    def test_unnamed_variables_have_zero_component(self):
        assert lie_derivative({"y": X}, X**2 * Y) == X**3
        assert lie_derivative({}, X).is_zero

    def test_every_nonzero_component_shares_the_varset(self):
        # checked whether or not f depends on the component's variable
        u = Poly.var(VarSet("u"), "u")
        for name in ("x", "y"):
            with pytest.raises(VarSetMismatch):
                lie_derivative({name: u}, X)
        assert lie_derivative({"y": Poly.zero(VarSet("u"))}, X).is_zero


class TestOccurring:
    def test_names_with_a_nonzero_exponent(self):
        assert (X**2 + 3).occurring() == {"x"}
        assert (X * Y - X).occurring() == {"x", "y"}

    def test_constants_have_none(self):
        assert Poly.const(XY, 5).occurring() == set()
        assert Poly.zero(XY).occurring() == set()

    def test_cancelled_variable_does_not_occur(self):
        assert ((X + Y) - Y).occurring() == {"x"}


class TestEval:
    def test_basic(self):
        assert (X**2 + Y).eval({"x": 2, "y": 1}) == 5

    def test_zero(self):
        assert Poly.zero(XY).eval({"x": 3, "y": 4}) == 0

    def test_exact_rational(self):
        v = (X * Y).eval({"x": Fraction(1, 3), "y": Fraction(3, 5)})
        assert v == Fraction(1, 5)
        assert isinstance(v, Fraction)

    def test_float_point(self):
        assert (X + Y).eval({"x": 0.5, "y": 0.25}) == 0.75

    def test_unbound(self):
        with pytest.raises(KeyError):
            X.eval({"x": 1})


class TestDisplay:
    def test_graded_lex_string(self):
        p = X**2 + X * Y + Y + 1
        assert str(p) == "x^2 + x*y + y + 1"

    def test_negative_leading(self):
        assert str(-X + 1) == "-x + 1"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

VARS3 = VarSet("a", "b", "c")


@st.composite
def polys(draw, vars=VARS3, max_terms=5, max_exp=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(len(vars)))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms[e] = terms.get(e, Fraction(0)) + Fraction(num, den)
    return Poly(vars, terms)


rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys(), polys(), st.one_of(st.integers(-9, 9), rationals))
@example(Poly.zero(VARS3), Poly.zero(VARS3), 0)
@example(Poly.zero(VARS3), Poly.zero(VARS3), Fraction(1, 2))
def test_equal_values_hash_equal(p, q, c):
    # a Poly equals the int or Fraction it is constant at, so a set or a
    # dict key takes the two as one
    const = Poly.const(VARS3, c)
    assert const == c and hash(const) == hash(c) and len({c, const}) == 1
    for a, b in ((p, c), (p, q), (p + q - q, p), (const + p - p, c)):
        if a == b:
            assert hash(a) == hash(b)


@given(polys(), polys(), st.sampled_from(VARS3.names))
def test_leibniz_rule(p, q, v):
    assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


@given(polys(), polys(), st.sampled_from(VARS3.names), rationals, rationals, rationals)
@settings(max_examples=50)
def test_eval_commutes_with_substitute(p, g, v, a, b, c):
    point = {"a": a, "b": b, "c": c}
    substituted_then_evaled = p.substitute({v: g}).eval(point)
    point_then = dict(point)
    point_then[v] = g.eval(point)
    assert substituted_then_evaled == p.eval(point_then)


@st.composite
def matrices(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    return [
        [Fraction(draw(st.integers(-4, 4))) for _ in range(ncols)]
        for _ in range(nrows)
    ]


@given(matrices())
def test_nullspace_vectors_are_in_kernel(m):
    basis = solve_nullspace(m)
    for vec in basis:
        for row in m:
            assert sum(a * x for a, x in zip(row, vec)) == 0
    assert matrix_rank(m) + len(basis) == len(m[0])


class TestLinearSolver:
    def test_nullspace_simple(self):
        basis = solve_nullspace([[1, -1]])
        assert basis == [[Fraction(1), Fraction(1)]]

    def test_nullspace_identity(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert solve_nullspace(eye) == []

    @pytest.mark.parametrize(
        "matrix", [[[1, 2], [1]], [[1], [1, 2]]], ids=["second-row-short", "first-row-short"]
    )
    @pytest.mark.parametrize(
        "solver",
        [matrix_rank, solve_nullspace],
        ids=["matrix_rank", "solve_nullspace"],
    )
    def test_ragged_rejected(self, solver, matrix):
        with pytest.raises(ValueError, match="ragged"):
            solver(matrix)


@st.composite
def shuffled_systems(draw):
    """A sparse rational system with dependent rows (sums of multiples of
    drawn rows) and a permutation of its rows: which row the elimination
    meets first, and how sparse each candidate pivot row is, both vary."""
    ncols = draw(st.integers(1, 7))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    sparse = st.one_of(st.just(Fraction(0)), entry)
    rows = [[draw(sparse) for _ in range(ncols)] for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        weights = [draw(st.integers(-2, 2)) for _ in rows]
        rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(ncols)])
    order = draw(st.permutations(range(len(rows))))
    return rows, order


@given(shuffled_systems())
def test_row_order_does_not_change_the_results(system):
    # a matrix has one RREF whatever row each column pivots on, so the
    # results read off it cannot depend on the order of the rows
    rows, order = system
    shuffled = [rows[i] for i in order]
    assert matrix_rank(shuffled) == matrix_rank(rows)
    assert solve_nullspace(shuffled) == solve_nullspace(rows)


@st.composite
def sparse_rows(draw):
    """Sparse rows of canonical ints and Fractions, each row an int multiple
    of drawn entries: pivots of either sign, integral or not, that divide
    their row or do not."""
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.sampled_from([1, -1]), st.integers(-6, 6),
                      st.fractions(-3, 3, max_denominator=4)).map(_coeff).filter(bool)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        scale = draw(st.sampled_from([1, -1, 2, -2, 3, -6]))
        row = draw(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4))
        rows.append({k: _coeff(scale * v) for k, v in row.items()})
    return rows, ncols


@given(sparse_rows())
@example(([{0: -2, 1: 4, 2: -6}, {1: 3, 2: 3}], 3))  # pivots -2 and 3 divide their rows
@example(([{0: 2, 1: 3}, {0: 4, 1: 1}], 2))  # pivot 2 does not divide 3
@example(([{0: Fraction(3, 2), 1: 3}, {0: -6, 1: Fraction(1, 2)}], 2))  # a Fraction pivot
@settings(max_examples=300)
def test_integer_pivots_give_the_fraction_only_rref(system):
    # same pivots, same rows in the same order and dict order, and each
    # entry of the same type: an int when integral
    rows, ncols = system
    new, old = [dict(r) for r in rows], [dict(r) for r in rows]
    assert _rref(new, ncols) == oracles.rref(old, ncols)
    assert [list(r.items()) for r in new] == [list(r.items()) for r in old]
    assert [[type(c) for c in r.values()] for r in new] == [[type(c) for c in r.values()]
                                                           for r in old]


def test_rref_shape_on_the_degree_3_determining_rows():
    monos = symmetry._monomials(3)
    rows = symmetry._determining_rows(monos)
    ncols = 4 * len(monos)
    assert (len(rows), ncols) == (758, 140)
    pivots = _rref(rows, ncols)
    assert len(pivots) == 136
    pivot_set = set(pivots)
    for r, p in enumerate(pivots):
        # a 1 at its own pivot column and no entry in any other
        assert rows[r][p] == 1
        assert pivot_set & rows[r].keys() == {p}
    assert all(not row for row in rows[len(pivots):])
    assert all(canonical(c) for row in rows for c in row.values())


# ---------------------------------------------------------------------------
# canonical coefficients: an int when integral, a Fraction otherwise
# ---------------------------------------------------------------------------


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


class TestCanonicalCoefficients:
    def test_bool_stored_as_int(self):
        p = Poly(XY, {(1, 0): True})
        assert p.terms == {(1, 0): 1}
        assert type(p.terms[(1, 0)]) is int

    def test_integral_fraction_stored_as_int(self):
        c = Poly(XY, {(1, 0): Fraction(6, 3), (0, 1): Fraction(1, 2)}).terms
        assert type(c[(1, 0)]) is int and c[(1, 0)] == 2
        assert c[(0, 1)] == Fraction(1, 2)

    def test_var_stores_int_one(self):
        assert type(X.terms[(1, 0)]) is int

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Poly(XY, {(1, 0): 1.0})
        with pytest.raises(TypeError):
            X * 0.5

    def test_float_rejected_by_the_solvers(self):
        with pytest.raises(TypeError):
            solve_nullspace([[1.0, 2]])

    def test_nullspace_with_non_unit_pivots(self):
        m = [[2, 3, 0], [0, 4, 2]]
        basis = solve_nullspace(m)
        assert basis == [[Fraction(3, 4), Fraction(-1, 2), 1]]
        assert all(canonical(c) for c in basis[0])
        assert [sum(a * x for a, x in zip(row, basis[0])) for row in m] == [0, 0]

    def test_integral_eliminations_stay_int(self):
        # pivots 2 and 3 divide their rows exactly: every entry is an int
        basis = solve_nullspace([[2, 4, -6], [0, 3, 3]])
        assert basis == [[5, -1, 1]]
        assert all(type(c) is int for c in basis[0])

    def test_entries_that_cancel_to_integers_are_ints(self):
        # the first row passes through (1, 1/2, 0); eliminating the second
        # pivot leaves 0 - (1/2)*2 = -1, which must be stored as an int
        basis = solve_nullspace([[2, 1, 0], [1, 1, 1]])
        assert basis == [[1, -2, 1]]
        assert all(type(c) is int for c in basis[0])


@st.composite
def mixed_polys(draw, vars=VARS3, max_terms=4, max_exp=2):
    """Polys whose coefficients are drawn as ints or as Fractions, some of
    them integral (as Fraction(4, 2))."""
    coeff = st.one_of(
        st.integers(-6, 6),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    )
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return Poly(vars, draw(st.dictionaries(exps, coeff, max_size=max_terms)))


# A reference polynomial arithmetic on plain {exponents: Fraction} dicts.


def _ref(p: Poly) -> dict:
    return {e: Fraction(c) for e, c in p.terms.items()}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = _ref_add(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2})
    return out


def _ref_pow(a: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_diff(a: dict, i: int) -> dict:
    out: dict = {}
    for e, c in a.items():
        if e[i]:
            out = _ref_add(out, {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i]})
    return out


def _ref_substitute(a: dict, i: int, g: dict) -> dict:
    out: dict = {}
    for e, c in a.items():
        rest = {e[:i] + (0,) + e[i + 1 :]: c}
        out = _ref_add(out, _ref_mul(rest, _ref_pow(g, e[i], len(e))))
    return out


@given(mixed_polys(), mixed_polys(), mixed_polys(), st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=60)
def test_results_have_canonical_coefficients(p, q, r, n, i):
    v = VARS3.names[i]
    rp, rq, rr = _ref(p), _ref(q), _ref(r)
    neg_q = {e: -c for e, c in rq.items()}
    cases = [
        (p + q, _ref_add(rp, rq)),
        (p - q, _ref_add(rp, neg_q)),
        (p * q, _ref_mul(rp, rq)),
        (p**n, _ref_pow(rp, n, len(VARS3))),
        (p.diff(v), _ref_diff(rp, i)),
        (p.substitute({v: q}), _ref_substitute(rp, i, rq)),
        (
            lie_derivative({"a": q, "b": r}, p),
            _ref_add(_ref_mul(rq, _ref_diff(rp, 0)), _ref_mul(rr, _ref_diff(rp, 1))),
        ),
    ]
    for result, reference in cases:
        assert all(canonical(c) for c in result.terms.values()), result.terms
        assert result.terms == reference


# ---------------------------------------------------------------------------
# The one product against the products it replaced (tests/oracles.py)
# ---------------------------------------------------------------------------

OTHER3 = VarSet("a", "b", "d")


def _cancelling_polys():
    """Polys of a few small terms, int and Fraction coefficients, mostly over
    VARS3: products of them often cancel, and some mix VarSets."""
    coeff = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])
    exps = st.tuples(*[st.integers(0, 1)] * len(VARS3))
    return st.builds(Poly, st.sampled_from([VARS3] * 3 + [OTHER3]),
                     st.dictionaries(exps, coeff, max_size=4))


def _outcome(fn, *args):
    """The VarSet and the terms of ``fn(*args)``, in dict order and with each
    coefficient's type, or the type and message of what it raises."""
    try:
        p = fn(*args)
    except (ValueError, KeyError) as exc:  # VarSetMismatch is a ValueError
        return type(exc), str(exc)
    return p.vars, [(e, type(c), c) for e, c in p.terms.items()]


A3, B3, C3 = Poly.variables(VARS3)
HALF_A2 = Fraction(1, 2) * A3**2 - A3 * B3


@given(_cancelling_polys(), _cancelling_polys(), _cancelling_polys(), st.integers(-1, 3),
       st.sampled_from([0, -1, 3, Fraction(2, 3)]))
@example(HALF_A2, A3 + B3, B3, 2, 0)
@example(A3 * B3 + 2 * B3**2, A3 + B3, A3 - B3, 2, 0)
@settings(max_examples=300, deadline=None)
def test_one_product_is_the_products_it_replaced(p, q, r, n, c):
    assert _outcome(operator.mul, p, q) == _outcome(oracles.mul, p, q)
    assert _outcome(operator.mul, p, c) == _outcome(oracles.mul, p, c)
    assert _outcome(operator.pow, p, n) == _outcome(oracles.power, p, n)
    for bindings in ({"a": q}, {"a": q, "b": r}, {"c": r, "a": c}, {"b": c}):
        assert _outcome(p.substitute, bindings) == _outcome(oracles.substitute, p, bindings)
    for field in ({"a": q, "b": r}, {"c": r}, {"b": r, "a": q, "c": p}):
        assert _outcome(lie_derivative, field, p) == _outcome(oracles.lie_derivative, field, p)


def test_a_monomial_a_product_cancels_keeps_its_later_place():
    # ab cancels inside (a + b)(a - b) and comes back from the next
    # product, so it follows a^2 and b^2 in the result, as it did when each
    # product was a Poly before it was added
    sub = (A3 * B3 + 2 * B3**2).substitute({"a": A3 + B3, "b": A3 - B3})
    lie = lie_derivative({"a": A3 + B3, "b": B3}, HALF_A2)
    for p in (sub, lie):
        assert list(p.terms) == [(2, 0, 0), (0, 2, 0), (1, 1, 0)]


def _rendered_polys():
    """Polys over VARS3 of up to five terms of degree <= 3 each: int and
    Fraction coefficients, +-1 before a factor and as a constant, negative
    leading terms, constants, and the zero polynomial (no terms)."""
    coeff = st.one_of(st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-7, 3)]),
                      st.integers(-10**20, 10**20),
                      st.fractions(max_denominator=10**6).filter(lambda f: f != 0))
    exps = st.tuples(*[st.integers(0, 3)] * len(VARS3))
    return st.builds(Poly, st.just(VARS3), st.dictionaries(exps, coeff, max_size=5))


@given(_rendered_polys())
@example(Poly.zero(VARS3))
@example(Poly.const(VARS3, -1))
@example(-A3 * B3 + Fraction(-1, 2) * C3**2 - 1)
@example(Fraction(1, 3) * A3**3 - B3 + C3)
@settings(max_examples=300, deadline=None)
def test_one_term_renderer_is_the_renderers_it_replaced(p):
    assert str(p) == oracles.poly_str(p)
    for names in (VARS3.names, ("x1", "qd2", "z")):
        assert _poly_source(p, names) == oracles.poly_source(p, names)


# ---------------------------------------------------------------------------
# kernel over polynomial images
# ---------------------------------------------------------------------------


class TestKernelInputRule:
    def test_positions_may_differ_in_kind(self):
        assert kernel([(1, X), (2, 2 * X)]) == [[-2, 1]]

    def test_scalar_and_poly_at_one_position(self):
        # the scalar 1 and the Poly -1 would sit on different rows and
        # come out independent
        with pytest.raises(ValueError, match="mixes"):
            kernel([(1,), (Poly.const(XY, -1),)])
        with pytest.raises(ValueError, match="mixes"):
            kernel([(X,), (2,)])

    def test_two_varsets_at_one_position(self):
        with pytest.raises(VarSetMismatch):
            kernel([(X,), (Poly.var(VarSet("x", "z"), "x"),)])

    def test_float_entry(self):
        with pytest.raises(TypeError):
            kernel([(1,), (0.5,)])
        with pytest.raises(TypeError):
            kernel([(1,), (0.0,)])

    def test_ragged_images(self):
        with pytest.raises(ValueError, match="ragged"):
            kernel([(X, Y), (X,)])


@st.composite
def poly_images(draw):
    """One to four images of one to three Polys, then up to two
    combinations of them."""
    width = draw(st.integers(1, 3))
    count = draw(st.integers(1, 4))
    images = [tuple(draw(mixed_polys()) for _ in range(width)) for _ in range(count)]
    for _ in range(draw(st.integers(0, 2))):
        images.append(_combine([draw(st.integers(-2, 2)) for _ in images], images))
    return images


def _combine(weights, images):
    return tuple(
        sum((c * x[p] for c, x in zip(weights, images)), Poly.zero(VARS3))
        for p in range(len(images[0]))
    )


@given(poly_images())
@settings(max_examples=60)
def test_kernel_on_poly_images(images):
    basis = kernel(images)
    for vec in basis:
        assert all(p.is_zero for p in _combine(vec, images))
    # the rank of the images flattened onto every (position, monomial) of them
    keys = sorted({(p, e) for x in images for p, q in enumerate(x) for e in q.terms})
    rank = matrix_rank([[x[p].coefficient(e) for x in images] for p, e in keys])
    assert len(basis) + rank == len(images)
