"""Fixed-step integrators: correctness, structure preservation, failure modes."""

import math
import warnings

import numpy as np
import pytest

from mbrwa import integrators, model
from mbrwa.integrators import (
    BlowUpError,
    IntegratorId,
    NewtonError,
    convergence_order,
    drift_report,
    integrate,
    midpoint_roundtrip_error,
    midpoint_step_field,
    rk4_step_field,
    step,
    system_invariants,
)
from mbrwa.model import InvariantId, State5, State6, SystemId

INIT5 = State5(1.0, 0.5, -0.3, 0.2, 0.1)
INIT6 = State6(1.0, 0.5, -0.3, 0.2, 0.1, 0.4)


def naive_rk4(f, s, h):
    # independent textbook transcription, kept deliberately separate from
    # the library core
    k1 = [f(s)[i] for i in range(len(s))]
    s2 = [s[i] + h / 2 * k1[i] for i in range(len(s))]
    k2 = [f(s2)[i] for i in range(len(s))]
    s3 = [s[i] + h / 2 * k2[i] for i in range(len(s))]
    k3 = [f(s3)[i] for i in range(len(s))]
    s4 = [s[i] + h * k3[i] for i in range(len(s))]
    k4 = [f(s4)[i] for i in range(len(s))]
    return [s[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(len(s))]


class TestStep:
    def test_rk4_matches_independent_transcription(self):
        f = model.rhs_compiled(SystemId.MB5)
        s = np.array(INIT5)
        expected = naive_rk4(lambda v: f(np.array(v)), list(s), 0.01)
        got = step(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 0.01)
        assert np.allclose(got, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("method", list(IntegratorId))
    def test_equilibrium_is_fixed(self, method):
        eq = State5(0.0, 0.0, 0.0, 0.0, 2.5)
        out = step(method, SystemId.MB5, eq, 0.0, 0.1)
        assert out == eq

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            step(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 0.0)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            step(IntegratorId.RK4, SystemId.HAM6, INIT5, 0.0, 0.1)

    def test_midpoint_conserves_p3_per_step(self):
        out = step(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 0.0, 0.05)
        assert out.p3 == INIT6.p3

    def test_midpoint_conserves_quadratic_invariant_per_step(self):
        # implicit midpoint preserves quadratic first integrals exactly
        out = step(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 0.0, 0.05)
        j0 = model.invariant_compiled(InvariantId.JTILDE)(np.array(INIT6))
        j1 = model.invariant_compiled(InvariantId.JTILDE)(np.array(out))
        assert abs(j1 - j0) <= 5e-16

    def test_midpoint_step_overflow_is_a_nan_state(self):
        # q1**3 overflows a float ** in the predictor: neither an
        # OverflowError nor a NewtonError leaves the step
        out = step(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6,
                   State6(1e110, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0, 1e-3)
        assert all(map(math.isnan, out))

    def test_rk4_step_overflow_is_a_nan_state(self):
        # the same state overflows a float ** in RK4's first stage: the
        # step returns all nan, as midpoint does, not an OverflowError
        out = step(IntegratorId.RK4, SystemId.HAM6,
                   State6(1e110, 0.0, 0.0, 0.0, 0.0, 0.0), 0.0, 1e-3)
        assert type(out) is State6
        assert all(map(math.isnan, out))


class TestStepCores:
    def test_rk4_on_linear_field_matches_taylor(self):
        # for xdot = x one RK4 step reproduces exp(h) through h^4/24
        f = lambda s: s
        h = 0.3
        out = rk4_step_field(f, np.array([1.0]), 0.0, h)
        taylor = 1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
        assert abs(out[0] - taylor) < 1e-15

    def test_midpoint_on_linear_field_is_cayley(self):
        # xdot = x gives x1 = (1 + h/2) / (1 - h/2) x0
        f = lambda s: s
        jac = lambda s: np.array([[1.0]])
        h = 0.1
        out = midpoint_step_field(f, jac, np.array([2.0]), 0.0, h)
        assert abs(out[0] - 2.0 * (1 + h / 2) / (1 - h / 2)) < 1e-13

    def test_midpoint_newton_failure(self):
        f = lambda s: s
        jac = lambda s: np.array([[1.0]])
        with pytest.raises(NewtonError) as exc:
            midpoint_step_field(f, jac, np.array([1.0]), 0.0, 0.1, tol=0.0, max_iter=3)
        assert exc.value.iterations == 3

    def test_midpoint_stops_at_a_non_finite_iterate(self):
        # the predictor is inf: one Newton evaluation, then a nan state
        calls = []
        f = lambda s: (calls.append("f"), np.full_like(s, math.inf))[1]
        jac = lambda s: (calls.append("jac"), np.eye(len(s)))[1]
        with np.errstate(invalid="ignore"):  # inf - inf in the array residual
            out = midpoint_step_field(f, jac, np.array([1.0, 2.0]), 0.0, 0.1)
        assert np.isnan(out).all()
        assert calls == ["f", "f", "jac"]

    def test_midpoint_singular_newton_matrix_is_a_blow_up(self):
        # eye - (h/2) * 4 eye = 0 at h = 0.5: a nan state and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = midpoint_step_field(lambda s: 4 * s, lambda s: 4 * np.eye(2),
                                      np.array([1.0, 2.0]), 0.0, 0.5)
        assert np.isnan(out).all()

    def test_newton_stops_at_a_zero_matrix(self):
        # the residual stays finite, so only the solve can end the step
        calls = []
        kernel = lambda *x_new_h: (calls.append(x_new_h), (1.0, -1.0, 0.0, 0.0, 0.0, 0.0))[1]
        advance = integrators._midpoint_newton(lambda *s: (1.0, 1.0), kernel, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = advance(1.0, 2.0, 0.1)
        assert all(map(math.isnan, out)) and len(out) == 2
        assert len(calls) == 1

    def test_midpoint_converges_at_large_state(self):
        # at |p3| = 1e6 rounding keeps the update near 1e-11, above the
        # absolute tolerance, yet the step has converged
        f = model.rhs_compiled(SystemId.HAM6)
        jac = model.rhs_jacobian_compiled(SystemId.HAM6)
        s = np.array([1.0, 0.5, -0.3, 0.2, 0.1, 1e6])
        for _ in range(3):
            out = midpoint_step_field(f, jac, s, 0.0, 1e-3)
            assert np.all(np.isfinite(out))
            assert out[5] == s[5]
            # the step solves its own implicit equation to rounding
            residual = out - s - 1e-3 * f(0.5 * (s + out))
            assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(out))
            s = out


class TestIntegrate:
    def test_times_grid(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 1.0, 0.25)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert traj.states.shape == (5, 5)

    def test_partial_final_step(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 0.9, 0.4)
        assert np.allclose(traj.times, [0.0, 0.4, 0.8, 0.9])

    def test_degenerate_interval(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 2.0, 2.0, 0.1)
        assert len(traj) == 1
        assert traj.times[0] == 2.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 1.0, 0.0, 0.1)

    def test_infinite_step_count_rejected(self):
        # 1e308 / 1e-10 overflows to inf
        with pytest.raises(ValueError, match="finite step count"):
            integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 1e308, 1e-10)

    def test_unholdable_step_count_rejected(self):
        # 1e300 steps is finite, but no list can hold that many states
        with pytest.raises(ValueError, match="step count"):
            integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 1.0, 1e-300)

    def test_deterministic_repeat(self):
        a = integrate(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 0.0, 2.0, 0.01)
        b = integrate(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 0.0, 2.0, 0.01)
        assert np.array_equal(a.states, b.states)

    def test_equilibrium_trajectory_is_constant(self):
        eq = State5(0.0, 0.0, 0.0, 0.0, -1.0)
        traj = integrate(IntegratorId.RK4, SystemId.MB5, eq, 0.0, 5.0, 0.1)
        assert np.all(traj.states == traj.states[0])

    def test_blow_up_detection(self):
        # large state and step push RK4 out of the floating range quickly
        huge = State5(1e150, 1e150, 1e150, 1e150, 1e150)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                integrate(IntegratorId.RK4, SystemId.MB5, huge, 0.0, 10.0, 1.0)


class TestDriftReport:
    def test_constant_trajectory_zero_drift(self):
        eq = State5(0.0, 0.0, 0.0, 0.0, 1.5)
        traj = integrate(IntegratorId.RK4, SystemId.MB5, eq, 0.0, 1.0, 0.1)
        rep = drift_report(traj, system_invariants(SystemId.MB5))
        for drift in rep.drifts.values():
            assert drift.max_abs_deviation == 0.0
            assert drift.final_deviation == 0.0

    def test_small_drift_on_generic_orbit(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 10.0, 1e-3)
        rep = drift_report(traj, system_invariants(SystemId.MB5))
        for drift in rep.drifts.values():
            assert drift.max_abs_deviation < 1e-10

    def test_midpoint_p3_exact(self):
        traj = integrate(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 0.0, 10.0, 0.01)
        rep = drift_report(traj, (InvariantId.CTILDE,))
        assert rep.drifts[InvariantId.CTILDE].max_abs_deviation <= 1e-13

    def test_system_mismatch_rejected(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            drift_report(traj, (InvariantId.HTILDE,))


class TestRoundTrip:
    def test_midpoint_is_time_symmetric(self):
        assert midpoint_roundtrip_error(SystemId.HAM6, INIT6, 0.05) <= 1e-12
        assert midpoint_roundtrip_error(SystemId.MB5, INIT5, 0.05) <= 1e-12


class TestConvergenceOrder:
    def test_rk4_order_four(self):
        order = convergence_order(IntegratorId.RK4, SystemId.MB5, INIT5, 5.0, 0.05)
        assert abs(order - 4.0) < 0.4

    def test_midpoint_order_two(self):
        order = convergence_order(
            IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 5.0, 0.05
        )
        assert abs(order - 2.0) < 0.3
