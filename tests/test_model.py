"""The three formulations, their invariants, and the connecting maps."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbrwa import integrators, model
from mbrwa.model import (
    VARS5,
    VARS6,
    VARST6,
    InvariantId,
    State5,
    State6,
    SystemId,
    TangentState6,
)
from mbrwa.polyring import Poly


def rand_fractions(n, rng):
    return [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)]


class TestRhs:
    def test_mb5_direct(self):
        assert model.rhs(SystemId.MB5, (1, 2, 3, 4, 5)) == (2, 5, 4, 15, -14)

    def test_mb5_equilibrium_line(self):
        for z0 in (-2, 0, Fraction(7, 3)):
            assert model.rhs(SystemId.MB5, (0, 0, 0, 0, z0)) == (0, 0, 0, 0, 0)

    def test_ham6_direct(self):
        qdot_pdot = model.rhs(SystemId.HAM6, (1, 0, 0, 0, 0, 1))
        assert qdot_pdot == (0, 0, Fraction(1, 2), Fraction(1, 2), 0, 0)

    def test_accepts_state_objects(self):
        s = State5(1, 2, 3, 4, 5)
        assert model.rhs(SystemId.MB5, s) == (2, 5, 4, 15, -14)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            model.rhs(SystemId.MB5, (1, 2, 3))


class TestRhsSymbolic:
    def test_mb5_last_component(self):
        x1, y1, x2, y2, z = Poly.variables(VARS5)
        assert model.rhs_symbolic(SystemId.MB5)[4] == -x1 * y1 - x2 * y2

    def test_ham6_momentum_p3(self):
        assert model.rhs_symbolic(SystemId.HAM6)[5].is_zero

    def test_el6_first_acceleration(self):
        q1 = Poly.var(VARST6, "q1")
        qd3 = Poly.var(VARST6, "qd3")
        assert model.rhs_symbolic(SystemId.EL6)[3] == q1 * qd3

    def test_el6_is_first_order_form(self):
        # substituting the accelerations back into the second-order residuals
        # must give zero
        rhs = model.rhs_symbolic(SystemId.EL6)
        q1, q2, q3, qd1, qd2, qd3 = Poly.variables(VARST6)
        acc1, acc2, acc3 = rhs[3], rhs[4], rhs[5]
        assert (acc1 - q1 * qd3).is_zero
        assert (acc2 - q2 * qd3).is_zero
        assert (acc3 + q1 * qd1 + q2 * qd2).is_zero


class TestInvariants:
    def test_h_single_term(self):
        assert model.invariant(InvariantId.H, (0, 1, 0, 0, 0)) == Fraction(1, 2)

    def test_c_direct(self):
        assert model.invariant(InvariantId.C, (1, 0, 1, 0, 0)) == 1

    def test_j_symmetric_point(self):
        assert model.invariant(InvariantId.J, (1, 0, 1, 0, 0)) == 0

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            model.invariant(InvariantId.H, (1, 2, 3, 4, 5, 6))
        with pytest.raises(ValueError):
            model.invariant(InvariantId.HTILDE, (1, 2, 3, 4, 5))

    @pytest.mark.parametrize(
        "system,invariants",
        [
            (SystemId.MB5, (InvariantId.H, InvariantId.C, InvariantId.J)),
            (SystemId.HAM6, (InvariantId.HTILDE, InvariantId.CTILDE, InvariantId.JTILDE)),
        ],
    )
    def test_symbolic_conservation(self, system, invariants):
        # gradient contracted with the dynamics is the zero polynomial
        field = model.rhs_symbolic(system)
        names = model.system_vars(system).names
        for inv in invariants:
            f = model.invariant_symbolic(inv)
            ddt = Poly.zero(f.vars)
            for name, comp in zip(names, field):
                ddt = ddt + f.diff(name) * comp
            assert ddt.is_zero, inv


class TestPhi:
    def test_direct(self):
        assert model.phi(State6(1, 2, 3, 4, 5, 6)) == State5(1, 4, 2, 5, Fraction(7, 2))

    def test_zero_q(self):
        assert model.phi(State6(0, 0, 0, 0, 0, 11)) == State5(0, 0, 0, 0, 11)

    def test_intertwines_invariants_at_random_points(self):
        rng = random.Random(7)
        for _ in range(100):
            s = State6(*rand_fractions(6, rng))
            down = model.phi(s)
            assert model.invariant(InvariantId.H, down) == model.invariant(
                InvariantId.HTILDE, s
            )
            assert model.invariant(InvariantId.C, down) == s.p3
            assert model.invariant(InvariantId.J, down) == model.invariant(
                InvariantId.JTILDE, s
            )


    def test_section_is_right_inverse(self):
        # phi(section(x)) = x as polynomials; q3 is left free
        section = model.phi_section_symbolic()
        assert "q3" not in section
        composed = tuple(c.substitute(section) for c in model.phi_symbolic())
        assert composed == Poly.variables(model.VARS5)


class TestLegendre:
    def test_direct(self):
        assert model.legendre(TangentState6(1, 1, 0, 0, 0, 1)) == State6(1, 1, 0, 0, 0, 2)

    def test_inverse_pair_random(self):
        rng = random.Random(3)
        for _ in range(50):
            ts = TangentState6(*rand_fractions(6, rng))
            assert model.legendre_inv(model.legendre(ts)) == ts
            s = State6(*rand_fractions(6, rng))
            assert model.legendre(model.legendre_inv(s)) == s

    def test_energy_relation_symbolic(self):
        # Htilde after the fiber map equals sum(p_i qd_i) - L
        leg = dict(zip(VARS6.names, model.legendre_symbolic()))
        h = model.invariant_symbolic(InvariantId.HTILDE)
        composed = Poly.zero(VARST6)
        for e, c in h.terms.items():
            term = Poly.const(VARST6, c)
            for name, k in zip(VARS6.names, e):
                if k:
                    term = term * leg[name] ** k
            composed = composed + term
        qd = [Poly.var(VARST6, f"qd{i}") for i in (1, 2, 3)]
        energy = sum(
            (p * v for p, v in zip(model.legendre_symbolic()[3:], qd)),
            Poly.zero(VARST6),
        )
        lag = model.invariant_symbolic(InvariantId.L)
        assert (composed - (energy - lag)).is_zero


class TestJacobianRank:
    def test_at_origin(self):
        assert model.jacobian_rank_phi(State6(0, 0, 0, 0, 0, 0)) == 5

    def test_at_nonzero_q(self):
        assert model.jacobian_rank_phi(State6(1, 2, 3, 0, 0, 0)) == 5

    def test_random_samples(self):
        rng = random.Random(11)
        for _ in range(25):
            s = State6(*[rng.uniform(-5, 5) for _ in range(6)])
            assert model.jacobian_rank_phi(s) == 5


def test_compiled_rhs_matches_symbolic():
    import numpy as np

    rng = random.Random(5)
    for system in SystemId:
        fast = model.rhs_compiled(system)
        for _ in range(10):
            point = [rng.uniform(-2, 2) for _ in range(model.system_dim(system))]
            exact = model.rhs(system, point)
            assert np.allclose(fast(np.array(point)), [float(v) for v in exact], rtol=1e-15)


# ---------------------------------------------------------------------------
# Generated scalar kernels against the numpy renditions, bit for bit
# ---------------------------------------------------------------------------

# doubles whose scalar x**2 (libm pow) differs from x*x in the last bit
POW_NOT_MUL = (-1.818447760617123, -1.8375751333484804, -0.9667936558439592)


@st.composite
def system_states(draw):
    system = draw(st.sampled_from(list(SystemId)))
    n = model.system_dim(system)
    return system, draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@given(system_states(), st.floats(0.0, 0.5, exclude_min=True))
@example((SystemId.HAM6, [POW_NOT_MUL[0], POW_NOT_MUL[1], 0.3, 0.1, -0.2, POW_NOT_MUL[2]]), 0.5)
@settings(max_examples=300)
def test_rk4_kernel_is_the_array_step(case, h):
    system, x = case
    got = model.rk4_step_compiled(system)(*x, h)
    want = integrators.rk4_step_field(model.rhs_compiled(system), np.array(x), 0.0, h)
    assert _bits(got) == want.tobytes()


@given(system_states())
@example((SystemId.MB5, [POW_NOT_MUL[0], POW_NOT_MUL[1], POW_NOT_MUL[2], 0.5, -1.5]))
@example((SystemId.HAM6, [POW_NOT_MUL[0], POW_NOT_MUL[1], 0.3, POW_NOT_MUL[2], 0.5, -1.5]))
@example((SystemId.EL6, [POW_NOT_MUL[0], POW_NOT_MUL[1], 0.3, POW_NOT_MUL[2], 0.5, -1.5]))
@settings(max_examples=300)
def test_invariants_kernel_is_each_compiled_invariant(case):
    system, x = case
    got = model.invariants_compiled(system)(*x)
    want = [model.invariant_compiled(inv)(np.array(x)) for inv in model.system_invariants(system)]
    assert _bits(got) == _bits(want)


def test_invariants_kernel_overflow_is_nan():
    # Python float ** raises OverflowError where numpy returns inf
    h, c, j = model.invariants_compiled(SystemId.MB5)(0.0, 0.0, 0.0, 0.0, 1e155)
    assert math.isnan(h)
    assert (c, j) == (1e155, 0.0)


def _newton_states(n: int) -> list:
    """200 seeded states in [-1, 1], one whose squares differ from x*x, and
    one with a last component of 1e8 (p3 on ham6)."""
    rng = np.random.default_rng(2014)
    states = rng.uniform(-1.0, 1.0, (200, n)).tolist()
    return states + [[*POW_NOT_MUL, 0.5, -0.25, 0.75][:n], [0.1, 0.2, 0.3, 0.1, 0.2, 1e8][-n:]]


@pytest.mark.parametrize("system", list(SystemId))
def test_midpoint_kernel_is_the_array_step(system):
    # the generated residual and Newton matrix, and the system stepper built
    # on them, against the numpy renditions of the rhs and its Jacobian
    n = model.system_dim(system)
    kernel = model.midpoint_newton_compiled(system)
    stepper = integrators._stepper(integrators.IntegratorId.IMPLICIT_MIDPOINT, system)
    f, jac = model.rhs_compiled(system), model.rhs_jacobian_compiled(system)
    rng = np.random.default_rng(6)
    for x in _newton_states(n):
        for h in (0.05, -0.05):
            new = np.array(x) + rng.uniform(-0.1, 0.1, n)
            mid = 0.5 * (np.array(x) + new)
            want = [*(new - x - h * f(mid)), *(np.eye(n) - 0.5 * h * jac(mid)).ravel()]
            assert _bits(kernel(*x, *new.tolist(), h)) == _bits(want)
            got = stepper(*x, h)
            assert _bits(got) == integrators.midpoint_step_field(f, jac, np.array(x), 0.0, h).tobytes()


def _newton_update(out: tuple, n: int) -> tuple:
    """0.0 minus the Newton update that ``integrators._midpoint_newton``
    solves for the kernel output ``out``: from the zero state, with a zero
    field, one iteration that always counts as converged."""
    advance = integrators._midpoint_newton(
        lambda *s: (0.0,) * n, lambda *x_new_h: out, n, tol=math.inf, max_iter=1
    )
    return advance(*(0.0,) * n, 0.05)


@pytest.mark.parametrize("system", list(SystemId))
def test_newton_solve_is_numpy_solve_bit_for_bit(system):
    # the buffered LAPACK kernel against np.linalg.solve, on the generated
    # Newton systems and on ill-conditioned matrices (0.0 - d is exact, up
    # to the sign of a zero)
    n = model.system_dim(system)
    kernel = model.midpoint_newton_compiled(system)
    rng = np.random.default_rng(9)
    outs = []
    for x in _newton_states(n):
        for h in (0.05, -0.05):
            new = np.array(x) + rng.uniform(-0.1, 0.1, n)
            outs.append(kernel(*x, *new.tolist(), h))
    hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0)
    nearly_singular = np.eye(n)
    nearly_singular[-1] = nearly_singular[0] + 1e-15 * rng.uniform(0.5, 1.0, n)
    graded = np.diag(10.0 ** np.linspace(-12, 12, n)) @ rng.uniform(-1.0, 1.0, (n, n))
    for matrix in (hilbert, nearly_singular, graded):
        for _ in range(10):
            outs.append((*rng.uniform(-1.0, 1.0, n).tolist(), *matrix.ravel().tolist()))
    for out in outs:
        want = np.linalg.solve(np.reshape(out[n:], (n, n)), out[:n]).tolist()
        assert _bits(_newton_update(out, n)) == _bits([0.0 - d for d in want])
