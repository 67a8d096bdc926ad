"""Fixed-step integrators: correctness, structure preservation, failure modes."""

import math
import random
import re
from array import array
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrwa import integrators, model
from mbrwa.integrators import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    BlowUpError,
    IntegratorId,
    NewtonError,
    drift_report,
    integrate,
    midpoint_step_field,
    rk4_step_field,
    step,
    system_invariants,
)
from mbrwa.model import InvariantId, State5, State6, SystemId
from oracles import (
    NEWTON_UNKNOWNS,
    convergence_order,
    midpoint_roundtrip_error,
    midpoint_step,
    newton_iterations,
    poly_source,
)

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

    # a nan step would otherwise come back as an all-nan state
    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf])
    def test_nonpositive_step_rejected(self, h):
        with pytest.raises(ValueError, match="step size must be positive and finite"):
            step(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, h)

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
        # f(m) = -2m with a zero Jacobian at h = 1: the Newton matrix is the
        # identity, the residual is 2*new, and the iterates cycle -1, 1, -1, ...
        evaluations = []
        f = lambda s: -2.0 * s
        jac = lambda s: (evaluations.append(s[0]), np.zeros((1, 1)))[1]
        with pytest.raises(NewtonError) as exc:
            midpoint_step_field(f, jac, np.array([1.0]), 0.0, 1.0)
        assert exc.value.iterations == len(evaluations) == NEWTON_MAX_ITER
        assert exc.value.residual == 2.0

    def test_midpoint_stops_at_a_non_finite_iterate(self):
        # the predictor's two stages are inf: one Newton evaluation, then a nan state
        calls = []
        f = lambda s: (calls.append("f"), np.full_like(s, math.inf))[1]
        jac = lambda s: (calls.append("jac"), np.eye(len(s)))[1]
        with np.errstate(invalid="ignore"):  # inf - inf in the array residual
            out = midpoint_step_field(f, jac, np.array([1.0, 2.0]), 0.0, 0.1)
        assert np.isnan(out).all()
        assert calls == ["f", "f", "f", "jac"]

    def test_midpoint_singular_newton_matrix_is_a_blow_up(self):
        # eye - (h/2) * 4 eye = 0 at h = 0.5: a nan state and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = midpoint_step_field(lambda s: 4 * s, lambda s: 4 * np.eye(2),
                                      np.array([1.0, 2.0]), 0.0, 0.5)
        assert np.isnan(out).all()

    @staticmethod
    def _newton_step(out: tuple):
        """The step of size 0.1 from the zero state at t = 0 under a zero
        field whose first Newton evaluation returns ``out`` and every later
        one a zero residual and the identity matrix, so that a finite first
        update has converged by the second evaluation: the state, or the
        BlowUpError that ends the run; and the number of evaluations made."""
        calls = []

        def kernel(*x_new_h):
            calls.append(x_new_h)
            return out if len(calls) == 1 else (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)

        midpoint = integrators._field_midpoint(2)  # its own numpy error state: no warning escapes
        try:
            return midpoint(0.0, 0.0, 0.0, 0.1, 1, 2, lambda *s: (0.0, 0.0), kernel), len(calls)
        except BlowUpError as exc:
            return exc, len(calls)

    def test_newton_stops_at_a_zero_matrix(self):
        # the residual stays finite, so only the solve can end the step
        out, calls = self._newton_step((1.0, -1.0, 0.0, 0.0, 0.0, 0.0))
        assert isinstance(out, BlowUpError) and out.time == 0.1
        assert calls == 1

    @pytest.mark.parametrize(
        "residual, matrix",
        [
            ((1.0, 1.0), (1e308, 0.0, 0.0, 1e308)),  # the kernel output's sum overflows
            ((1e308, 1e308), (1.0, 0.0, 0.0, 1.0)),  # the Newton update's sum overflows
        ],
    )
    def test_finite_entries_whose_sum_overflows_are_no_blow_up(self, residual, matrix):
        out, calls = self._newton_step((*residual, *matrix))
        want = np.linalg.solve(np.reshape(matrix, (2, 2)), residual).tolist()
        assert np.array(out).tobytes() == np.array([0.0 - d for d in want]).tobytes()
        # an update of 1e-308 has converged at once, one of 1e308 at the next evaluation
        assert calls == (1 if max(map(abs, want)) <= NEWTON_TOL else 2)

    @pytest.mark.parametrize(
        "out",
        [
            (1.0, math.nan, 1.0, 0.0, 0.0, 1.0),
            # LAPACK solves these two to a finite update: only the test of
            # the kernel output ends the step
            (1.0, 1.0, math.inf, 0.0, 0.0, 1.0),
            (1.0, 1.0, math.inf, 0.0, 0.0, -math.inf),  # the sum is nan
        ],
    )
    def test_a_non_finite_kernel_entry_is_a_blow_up(self, out):
        state, calls = self._newton_step(out)
        assert isinstance(state, BlowUpError) and state.time == 0.1
        assert calls == 1

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

    @pytest.mark.parametrize("system", list(SystemId))
    def test_each_midpoint_stepper_owns_its_buffers(self, system):
        # two threads run one compiled midpoint loop from different states
        # and each gets the bits it gets alone.  Every Newton iteration
        # writes the operands that vary, and the call's setup the rest, so
        # only another call's write between the packs and `solve1` can show
        # a shared buffer; a switch interval far below one step lets the
        # threads interleave there.  With one h both calls write the same
        # constants: the next test changes h between calls
        n = model.system_dim(system)
        run = integrators._compile_run(IntegratorId.IMPLICIT_MIDPOINT, system, "none")
        starts = [INIT6[:n], (0.3, -0.5, 0.7, 0.1, -0.9, 2.0)[-n:]]
        args = (0.0, 0.01, 1, 2001)
        alone = [run(*s, *args) for s in starts]
        both, start = [None, None], threading.Barrier(2)

        def worker(k):
            start.wait(timeout=60)
            both[k] = run(*starts[k], *args)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert np.array(both).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("system", list(SystemId))
    def test_each_midpoint_call_sets_its_own_constants(self, system):
        # the Newton matrix entries that h fixes (0.0 - c*d for a constant
        # d) are written into the buffer once per call: a full segment at
        # one h, then one-step calls as a partial step makes, at other h,
        # each match the array step (tests/oracles.py).  Newton can reach the
        # same bits with the constants of a larger h, so the later h are the
        # larger
        n = model.system_dim(system)
        run = integrators._compile_run(IntegratorId.IMPLICIT_MIDPOINT, system, "none")
        s = run(*INIT6[:n], 0.0, 0.01, 1, 21)
        want = np.array(INIT6[:n])
        for k in range(1, 21):
            want = midpoint_step(system, want, 0.01 * k, 0.01)
        assert np.array(s).tobytes() == want.tobytes()
        for h in (0.1, 0.2, 0.3):
            got = run(*s, 0.2 + h, h, 0, 1)
            assert np.array(got).tobytes() == midpoint_step(system, want, 0.2 + h, h).tobytes()


class TestIntegrate:
    def test_times_grid(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 1.0, 0.25)
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert traj.states.shape == (5, 5)

    def test_partial_final_step(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 0.9, 0.4)
        assert np.allclose(traj.times, [0.0, 0.4, 0.8, 0.9])
        # a span far below 1e-12 still gets its one partial step
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 1e-13, 1.0)
        assert traj.times.tolist() == [0.0, 1e-13]

    def test_degenerate_interval(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 2.0, 2.0, 0.1)
        assert len(traj) == 1
        assert traj.times[0] == 2.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="negative step count"):
            integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 1.0, 0.0, 0.1)

    def test_interval_reversed_within_rounding_has_no_step(self):
        # step_count's rounding rule: -1e-13 of a step is no step at all
        rep = integrators.run_drift(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, -1e-13, 1.0)
        assert rep.steps == 0
        assert {d.max_abs_deviation for d in rep.drifts.values()} == {0.0}
        assert {d.final_deviation for d in rep.drifts.values()} == {0.0}

    def test_infinite_step_count_rejected(self):
        # 1e308 / 1e-10 overflows to inf
        with pytest.raises(ValueError, match="finite step count"):
            integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 1e308, 1e-10)

    def test_unholdable_step_count_rejected(self):
        # 1e300 steps is finite, but no list can hold that many states
        with pytest.raises(ValueError, match="step count"):
            integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 1.0, 1e-300)

    def test_negative_step_count_rejected(self):
        # a reversed span is no number of full steps
        for span in ((0.0, -1.0, 0.5), (0.0, -1e308, 1e-10)):
            with pytest.raises(ValueError, match="negative step count"):
                integrators.step_count(*span)

    @pytest.mark.parametrize("h", [-0.5, 0.0, -0.0, math.inf, math.nan])
    def test_step_count_rejects_the_step_size(self, h):
        # the one step-size rule of every run: 1 / 0.0 would raise
        # ZeroDivisionError, and 1 / inf would be 0 steps
        with pytest.raises(ValueError, match="step size must be positive and finite"):
            integrators.step_count(0.0, 1.0, h)

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

    def test_invariant_blow_up_on_finite_states(self):
        # RK4 keeps the equilibrium z = 1e155 exactly, where H = z**2 / 2
        # overflows; at z = 1.2e154 each H is finite but their sum is not
        for run in (integrators.run_rows, integrate):
            with pytest.raises(BlowUpError, match="invariant H is not finite at t = 0$"):
                run(IntegratorId.RK4, SystemId.MB5, (0, 0, 0, 0, 1e155), 0.0, 0.002, 1e-3)
            run(IntegratorId.RK4, SystemId.MB5, (0, 0, 0, 0, 1.2e154), 0.0, 0.002, 1e-3)


class TestOrbit:
    def test_times_are_the_array_grid(self):
        # t = t0 + k*h, bit for bit as numpy's t0 + arange(n)*h, then a
        # partial step landing on t_end
        t0, t_end, h = 0.3, 1.4055, 1e-3
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, t0, t_end, h)
        grid = t0 + np.arange(integrators.step_count(t0, t_end, h) + 1) * h
        assert traj.times.tobytes() == np.append(grid, [t_end]).tobytes()

    @pytest.mark.parametrize("h", [0.0, -0.1, math.inf, math.nan])
    def test_step_size_rejected(self, h):
        # an infinite step would otherwise give one row at t = t0 + 0 * inf = nan
        for run in (integrators.run_drift, integrators.run_rows, integrate):
            with pytest.raises(ValueError, match="step size must be positive and finite"):
                run(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 1.0, h)

    def test_integrate_collects_the_orbit(self):
        # 50 full steps and a partial one of 5e-3: the rows loop gives, bit
        # for bit, the states of one step at a time, and the drift fold of
        # the fused loop is the numpy fold of those states
        grid = [(0.01 * k, 0.01) for k in range(1, 51)] + [(0.505, 0.505 - 50 * 0.01)]
        for method, system, init in ((IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6),
                                     (IntegratorId.RK4, SystemId.MB5, INIT5)):
            traj = integrate(method, system, init, 0.0, 0.505, 0.01)
            states = [tuple(init)]
            for t, dt in grid:
                states.append(tuple(step(method, system, states[-1], t, dt)))
            assert traj.times.tolist() == [0.0, *(t for t, _ in grid)]
            assert traj.states.tobytes() == np.array(states).tobytes()
            fused = integrators.run_drift(method, system, init, 0.0, 0.505, 0.01)
            assert fused == drift_report(traj, system_invariants(system))
            assert fused.steps == 51


# el6 is mb5 plus the quadrature q3' = qd3: pi(q, qd) = (q1, qd1, q2, qd2, qd3)
# carries el6's field onto mb5's, and RK4 and Gauss methods are affine
# equivariant (McLachlan, Modin, Munthe-Kaas & Verdier, Numer. Math. 133,
# 2016), so el6's rows through pi are mb5's rows from pi of the state, bit for
# bit: a generated-text change that breaks one system's operation order shows
# The midpoint step solves el6's Newton system over (q1, qd1, q2, qd2, qd3),
# pi's order, the order of mb5's: gesv's pivots and elimination follow the
# order of the unknowns, and el6 in its own order parted from mb5 on 7 of the
# 22 runs at h = 0.1 below
PI_COLUMNS = (0, 1, 4, 2, 5, 6)  # el6's row columns t, q1, qd1, q2, qd2, qd3
GOLDEN_STATE = (0.3, -0.5, 0.7, 0.1, -0.9, 0.4)  # the el6 and ham6 goldens' --init
RUNS = [(10.005, 0.01, 1002), (200.0, 0.1, 2001)]  # (t_end, h, rows): a partial last step
_DRAWS = random.Random(1)
DRAWN_STATES = [tuple(_DRAWS.uniform(-1.0, 1.0) for _ in range(6)) for _ in range(20)]


def _projection_cases():
    for label, init in (("golden", GOLDEN_STATE), ("init6", tuple(INIT6))):
        for method in IntegratorId:
            for t_end, h, rows in RUNS:
                yield pytest.param(init, method, t_end, h, rows, id=f"{label}-{method.value}-{h}")
    for k, init in enumerate(DRAWN_STATES):
        for method in IntegratorId:
            yield pytest.param(init, method, *RUNS[1], id=f"drawn{k}-{method.value}-0.1")


class TestEl6ReducesToMb5:
    @pytest.mark.parametrize("init, method, t_end, h, rows", _projection_cases())
    def test_rows_project_onto_mb5_rows(self, init, method, t_end, h, rows):
        el6 = integrators.run_rows(method, SystemId.EL6, init, 0.0, t_end, h)
        mb5 = integrators.run_rows(method, SystemId.MB5, [init[i] for i in (0, 3, 1, 4, 5)],
                                   0.0, t_end, h)
        w6, w5 = (1 + model.system_dim(s) + len(system_invariants(s))
                  for s in (SystemId.EL6, SystemId.MB5))
        assert len(el6) // w6 == len(mb5) // w5 == rows
        projected = array("d", (el6[r + c] for r in range(0, len(el6), w6) for c in PI_COLUMNS))
        state5 = array("d", (mb5[r + c] for r in range(0, len(mb5), w5) for c in range(6)))
        assert projected.tobytes() == state5.tobytes()


class TestMidpointReduction:
    """The midpoint step runs Newton only on the unknowns that some rate reads
    and whose own rate is not zero.  A zero-rate variable (ham6's p3) stays
    at its predictor, and a variable no rate reads (q3 on ham6 and el6) gets
    the quadrature x + h*f(m) at the accepted midpoint m."""

    @pytest.mark.parametrize("system", list(SystemId))
    def test_the_unknowns_come_in_their_order(self, system):
        # the update n<i> = n<i> - d<k> of the k-th unknown, variable i
        lines = integrators._compile_run(IntegratorId.IMPLICIT_MIDPOINT, system, "none").source
        updates = re.findall(r"\bn(\d+) = n\1 - d(\d+)$", lines, re.M)
        assert [int(k) for _, k in updates] == list(range(len(updates)))
        x = model.system_vars(system).names
        assert tuple(x[int(i)] for i, _ in updates) == NEWTON_UNKNOWNS[system]

    @pytest.mark.parametrize("system", [SystemId.HAM6, SystemId.EL6])
    @pytest.mark.parametrize("init, t_end, h", [(GOLDEN_STATE, 10.005, 0.01), (INIT6, 200.0, 0.1),
                                                *((s, 20.0, 0.01) for s in DRAWN_STATES[:4])])
    def test_q3_is_the_quadrature_at_the_accepted_midpoint(self, system, init, t_end, h):
        # q3' = q3 + h*f_q3(m) with m = (x + x')/2 of each row pair, bit for
        # bit: f_q3 is rendered by oracles.poly_source, apart from the text
        # the loop is generated from, and the last step is a partial one on
        # the golden grid
        x, n = model.system_vars(system).names, model.system_dim(system)
        mid, q3 = [f"m{i}" for i in range(n)], x.index("q3")
        f_q3 = eval(f"lambda {', '.join(mid)}: {poly_source(model.rhs_symbolic(system)[q3], mid)}")
        rows = integrators.run_rows(IntegratorId.IMPLICIT_MIDPOINT, system, init, 0.0, t_end, h)
        width = 1 + n + len(system_invariants(system))
        states = [rows[r + 1:r + 1 + n] for r in range(0, len(rows), width)]
        steps = [dt for _, dt, start, stop in integrators._segments(0.0, t_end, h)
                 for _ in range(start, stop)]
        assert len(steps) == len(states) - 1
        want = array("d", (s[q3] + dt * f_q3(*(0.5 * (a + b) for a, b in zip(s, s1)))
                           for s, s1, dt in zip(states, states[1:], steps)))
        assert array("d", (s[q3] for s in states[1:])).tobytes() == want.tobytes()


# the midpoint goldens' runs, at h = 1e-2 (tests/test_cli.py::TestGoldenOutput)
GOLDEN_RUNS = [(SystemId.MB5, GOLDEN_STATE[:5], 20.0), (SystemId.HAM6, GOLDEN_STATE, 20.0),
               (SystemId.EL6, GOLDEN_STATE, 10.005)]


class TestMidpointNewton:
    """Newton starts from the explicit midpoint predictor, e = x + (h/2)*f(x)
    then x + h*f(e), whose error is O(h**3), and again from x where that has
    not converged in half its iterations; wherever it starts, each step it
    accepts solves the midpoint equation to rounding."""

    @pytest.mark.parametrize("system, init, t_end", GOLDEN_RUNS, ids=["mb5", "ham6", "el6"])
    def test_every_golden_step_takes_two_iterations(self, system, init, t_end):
        # the second update is below NEWTON_TOL on every step, el6's partial
        # last one included; from x + h*f(x), 36-70% of these steps took a
        # third.  The counting build reaches the run's state bit for bit
        segments = integrators._segments(0.0, t_end, 1e-2)
        s, iterations = newton_iterations(system, init, t_end, 1e-2)
        assert iterations == {2: sum(stop - start for _, _, start, stop in segments)}
        s0 = integrators._state(system, init)
        assert s == integrators._drive(IntegratorId.IMPLICIT_MIDPOINT, system, "none", s0, segments)

    def test_a_stiff_step_restarts_from_the_state(self):
        # ham6 at p3 = 1e8 and h = 0.05, h*sqrt(p3) = 500: the predictor,
        # quadratic in h times the rhs Jacobian, starts Newton 1e6 away, where
        # it wanders; after half its iterations Newton starts again from the
        # state and converges in 3 more, as it did from x + h*f(x)
        x = (0.1, 0.2, 0.3, 0.1, 0.2, 1e8)
        s, iterations = newton_iterations(SystemId.HAM6, x, 0.05, 0.05)
        assert iterations == {integrators.NEWTON_MAX_ITER // 2 + 3: 1}
        residual = np.subtract(s, x) - 0.05 * model.rhs_compiled(SystemId.HAM6)(0.5 * np.add(s, x))
        assert np.abs(residual).max() <= 2.0**-52 * np.abs(s).max()

    @pytest.mark.parametrize("system", list(SystemId))
    def test_each_accepted_step_solves_the_midpoint_equation(self, system):
        # x' - x - h*f((x + x')/2) over the Newton unknowns is at most
        # 2**-52 * max(1, |x'|) on every row pair, by the array rhs, a test
        # that does not read the predictor
        n, f = model.system_dim(system), model.rhs_compiled(system)
        u = [model.system_vars(system).index(v) for v in NEWTON_UNKNOWNS[system]]
        width = 1 + n + len(system_invariants(system))
        h = np.array([dt for _, dt, start, stop in integrators._segments(0.0, 20.0, 1e-2)
                      for _ in range(start, stop)])
        for init in (GOLDEN_STATE, *DRAWN_STATES[:3]):
            rows = integrators.run_rows(IntegratorId.IMPLICIT_MIDPOINT, system, init[:n],
                                        0.0, 20.0, 1e-2)
            states = np.frombuffer(rows).reshape(-1, width)[:, 1:1 + n]
            x, x1 = states[:-1], states[1:]
            rates = np.array([f(m) for m in 0.5 * (x + x1)])
            residual = np.abs(x1 - x - h[:, None] * rates)[:, u].max(axis=1)
            assert (residual <= 2.0**-52 * np.maximum(1.0, np.abs(x1).max(axis=1))).all()


# The paper's discrete symmetries.  Each system is invariant under reflecting
# one oscillator, (x1, y1) -> (-x1, -y1) on mb5 and (q1, p1) or (q1, qd1) ->
# their negatives on ham6 and el6, and under swapping the two oscillators.
# Sign flips and swaps are exact in floats, so a run loop whose text treats
# the oscillators alike maps the transformed start onto the transformed
# states, bit for bit up to the sign of a zero (0.0 + -0.0 is 0.0, and its
# reflection -0.0 + 0.0 is 0.0 too).  The invariant columns are left out: H~'s
# sum is not written symmetrically in q1 and q2
REFLECTED = {SystemId.MB5: (0, 1), SystemId.HAM6: (0, 3), SystemId.EL6: (0, 3)}
SWAPPED = {SystemId.MB5: (2, 3, 0, 1, 4), SystemId.HAM6: (1, 0, 2, 4, 3, 5),
           SystemId.EL6: (1, 0, 2, 4, 3, 5)}


def swap_to_rounding(method, system, init):
    """Why swapping the oscillators maps the run from ``init`` only to
    rounding, not bit for bit, or None.  Listed, not skipped: these swaps
    are checked to 1e-12."""
    if method is IntegratorId.IMPLICIT_MIDPOINT:
        # the swap permutes the Newton unknowns, and gesv's partial pivoting
        # and elimination follow their order: on 200 seeded states mb5 parted
        # on 1, ham6 on 34 and el6 (mb5 through pi) on none
        return "gesv's pivot order"
    if system is SystemId.HAM6 and any(0.0 < abs(v) < 1e-150 for v in init):
        # ham6's rhs writes -0.5*q1*q2**2 and its swapped term -0.5*q1**2*q2
        # as (-0.5*q1)*q2**2 and (-0.5*q2**2)*q1, which part only where
        # -0.5*q1 or -0.5*q2**2 is subnormal, where halving is inexact
        return "the order of ham6's products"
    return None


@st.composite
def symmetric_cases(draw):
    method, system = draw(st.sampled_from(list(IntegratorId))), draw(st.sampled_from(list(SystemId)))
    n = model.system_dim(system)
    return method, system, draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))


class TestDiscreteSymmetries:
    @staticmethod
    def states(method, system, init):
        """The (t, *state) columns of the run over T = 20 at h = 1e-2, each
        zero as 0.0."""
        n = model.system_dim(system)
        rows = np.frombuffer(integrators.run_rows(method, system, init, 0.0, 20.0, 1e-2))
        return rows.reshape(-1, 1 + n + len(system_invariants(system)))[:, :1 + n] + 0.0

    @given(symmetric_cases())
    @settings(max_examples=60, deadline=None)
    def test_reflection_and_swap(self, case):
        method, system, init = case
        base = self.states(method, system, init)
        flip = [1 + i for i in REFLECTED[system]]
        reflected = self.states(method, system, [-v if 1 + i in flip else v
                                                 for i, v in enumerate(init)])
        reflected[:, flip] = 0.0 - reflected[:, flip]
        assert reflected.tobytes() == base.tobytes()
        swap = SWAPPED[system]
        swapped = self.states(method, system, [init[j] for j in swap])[:, [0, *(1 + j for j in swap)]]
        if swap_to_rounding(method, system, init):
            assert np.abs(swapped - base).max() <= 1e-12
        else:
            assert swapped.tobytes() == base.tobytes()


class TestRowsSizedUpFront:
    @pytest.mark.parametrize("every", range(1, 8))
    def test_rows_fill_the_array_exactly(self, every):
        # run_rows sizes its array before the run: the rows the loop makes,
        # row 0, every every-th, an off-grid last full step or the partial
        # step, fill it exactly, from no full step (one row) on
        h, width = 0.125, 1 + 5 + 3
        for n_full in range(16):
            for partial in (0.0, 0.0625):
                t_end = n_full * h + partial
                made = len(range(0, n_full + 1, every)) + (partial > 0 or n_full % every > 0)
                rows = integrators.run_rows(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, t_end,
                                            h, every)
                assert len(rows) == made * width
                assert bytes(rows) == _rows_by_steps(IntegratorId.RK4, SystemId.MB5, INIT5,
                                                     t_end, h, every)


def _rows_by_steps(method, system, initial, t_end, h, every):
    """What ``run_rows`` from t0 = 0 returns or raises, rebuilt from one-step
    runs of the loop without an emit and from ``model.invariants_compiled``:
    the rows ``(t, *state, *invariants)`` of row 0, every ``every``-th row
    and the last; the BlowUpError of the first state that is not finite; or
    else that of the first of those rows, then column, whose invariant is
    not finite.  Outcomes as ``(time, invariant)`` or the rows' bytes."""
    segments = integrators._segments(0.0, t_end, h)
    s, (t0, dt, _, _) = integrators._state(system, initial), segments[0]
    rows = [(t0 + dt * 0, s)]
    try:
        for t0, dt, start, stop in segments:
            for k in range(start, stop):
                s = integrators._drive(method, system, "none", s, [(t0, dt, k, k + 1)])
                rows.append((t0 + dt * k, s))
    except BlowUpError as exc:
        return exc.time, exc.invariant
    fn, table = model.invariants_compiled(system), []
    for t, s in (row for i, row in enumerate(rows) if i % every == 0 or i == len(rows) - 1):
        values = fn(*s)
        for inv, v in zip(system_invariants(system), values):
            if not math.isfinite(v):
                return t, inv
        table += [t, *s, *values]
    return np.array(table).tobytes()


def _outcome(run, *args):
    """``(time, invariant)`` of the BlowUpError ``run(*args)`` raises, or the
    bytes of what it returns."""
    try:
        out = run(*args)
    except BlowUpError as exc:
        return exc.time, exc.invariant
    return out if isinstance(out, integrators.DriftReport) else bytes(out)


# sqrt of the largest double, rounded down to six digits: H = (y1**2 + z**2) / 2 is finite
# at y1 = z = EDGE, and RK4 and midpoint both turn (y1, z) out past the
# largest y1 whose square is finite within a step of h = 1e-80
EDGE = 1.34078e154

# (system, initial state, t_end, h, time, invariant): runs whose states stay
# finite while an invariant is not, first at that row and time
INVARIANT_BLOW_UPS = [
    # row 0, with a partial step: mb5 rests at z = 1e155; on ham6 and el6 p3
    # and qd3 hold still while q3 runs
    (SystemId.MB5, (0.0, 0.0, 0.0, 0.0, 1e155), 0.0035, 1e-3, 0.0, InvariantId.H),
    (SystemId.HAM6, (0.0, 0.0, 0.0, 0.0, 0.0, 1e155), 0.0035, 1e-3, 0.0, InvariantId.HTILDE),
    (SystemId.EL6, (0.0, 0.0, 0.0, 0.0, 0.0, 1e155), 0.0035, 1e-3, 0.0, InvariantId.L),
    # the last row, after 1 step and after 5: H turns out past EDGE, and
    # q1**4 in H~ overflows as q1 runs out at speed p1
    (SystemId.MB5, (0.0, EDGE, 0.0, 0.0, EDGE), 1e-80, 1e-80, 1e-80, InvariantId.H),
    (SystemId.MB5, (0.0, EDGE, 0.0, 0.0, EDGE), 5 * 2e-81, 2e-81, 5 * 2e-81, InvariantId.H),
    (SystemId.HAM6, (0.0, 0.0, 0.0, 1.3e154, 0.0, 0.0), 5 * 2e-78, 2e-78, 5 * 2e-78,
     InvariantId.HTILDE),
]


class TestBlowUpRule:
    # run_rows and run_drift apply one non-finite-invariant rule, row 0
    # included: the first row, then column, that is not finite, raised once
    # the run ends, unless a state blows up first
    @staticmethod
    def _cases():
        rng = random.Random(29)
        cases = [case[:4] for case in INVARIANT_BLOW_UPS]
        # H overflows at row 0, then the state blows up
        cases.append((SystemId.MB5, (1e100, 1e100, 0.0, 0.0, 1e155), 0.05, 1e-3))
        for _ in range(60):
            system = rng.choice(list(SystemId))
            scale = rng.choice([1.0, 1e3, 1e77, 1e150, 1e154])
            init = tuple(rng.uniform(-1.5, 1.5) * rng.choice([1.0, scale])
                         for _ in range(model.system_dim(system)))
            h = rng.choice([1e-3, 0.1, 0.5])
            t_end = h * rng.choice([1, 2, 4, 7]) + rng.choice([0.0, 0.5 * h])  # 0.5 * h: a partial step
            cases.append((system, init, t_end, h))
        return cases

    @pytest.mark.parametrize("method", list(IntegratorId))
    def test_rows_and_fold_raise_alike(self, method):
        # run_rows gives the rebuilt outcome at each every, and run_drift
        # raises as run_rows does at every = 1
        seen = set()
        for system, init, t_end, h in self._cases():
            try:
                want = {every: _rows_by_steps(method, system, init, t_end, h, every)
                        for every in (1, 2, 3)}
            except NewtonError:
                continue
            for every, outcome in want.items():
                assert _outcome(integrators.run_rows, method, system, init, 0.0, t_end, h,
                                every) == outcome
            drift = _outcome(integrators.run_drift, method, system, init, 0.0, t_end, h)
            if isinstance(drift, integrators.DriftReport):
                assert isinstance(want[1], bytes)
                seen.add("finite")
            else:
                assert drift == want[1]
                seen.add(drift[1])
        # states blow up, each system's invariants do, and runs stay finite
        assert {None, "finite", InvariantId.H, InvariantId.HTILDE, InvariantId.L} <= seen

    @pytest.mark.parametrize("method", list(IntegratorId))
    @pytest.mark.parametrize("system, init, t_end, h, time, invariant", INVARIANT_BLOW_UPS)
    def test_invariant_blow_up_at_row_0_and_off_the_grid(self, method, system, init, t_end, h,
                                                         time, invariant):
        # an invariant not finite at row 0, or first on a last row that no
        # every-th row reaches: each every, and the fold, raise it at that row
        got = {_outcome(integrators.run_rows, method, system, init, 0.0, t_end, h, every)
               for every in (1, 2, 3, 4)}
        got.add(_outcome(integrators.run_drift, method, system, init, 0.0, t_end, h))
        assert got == {(time, invariant)}

    @pytest.mark.parametrize("method", list(IntegratorId))
    def test_state_blow_up_after_an_invariant_wins(self, method):
        init = (1e100, 1e100, 0.0, 0.0, 1e155)  # H overflows at row 0
        assert not math.isfinite(model.invariants_compiled(SystemId.MB5)(*init)[0])
        got = {_outcome(integrators.run_rows, method, SystemId.MB5, init, 0.0, 0.05, 1e-3, every)
               for every in (1, 3)}
        got.add(_outcome(integrators.run_drift, method, SystemId.MB5, init, 0.0, 0.05, 1e-3))
        assert got == {(1e-3, None)}


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
        # C~ is p3, whose rate is zero: every step keeps its predictor p3 + h*0.0
        traj = integrate(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 0.0, 10.0, 0.01)
        rep = drift_report(traj, (InvariantId.CTILDE,))
        assert rep.drifts[InvariantId.CTILDE].max_abs_deviation == 0.0
        for init in (GOLDEN_STATE, *DRAWN_STATES[:4]):
            for h in (0.01, 0.1):
                run = integrators.run_drift(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, init,
                                            0.0, 20.0, h)
                drift = run.drifts[InvariantId.CTILDE]
                assert drift.max_abs_deviation == drift.final_deviation == 0.0

    def test_system_mismatch_rejected(self):
        traj = integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            drift_report(traj, (InvariantId.HTILDE,))

    def test_no_rows_to_fold(self):
        invariants = system_invariants(SystemId.MB5)
        # a run always has its initial row: over an empty span it has no step
        # and no deviation
        rep = integrators.run_drift(IntegratorId.RK4, SystemId.MB5, INIT5, 1.0, 1.0, 0.1)
        assert rep.steps == 0
        assert rep == drift_report(integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 1.0, 1.0, 0.1),
                                   invariants)
        assert {d.max_abs_deviation for d in rep.drifts.values()} == {0.0}
        empty = integrators.Trajectory(SystemId.MB5, np.empty(0), np.empty((0, 5)))
        with pytest.raises(ValueError, match="no rows to fold"):
            drift_report(empty, invariants)


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
