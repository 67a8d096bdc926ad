"""Fixed-step time integration with invariant-drift accounting.

Classical RK4 is the baseline; the implicit midpoint rule is the
structure-preserving scheme on the canonical 6D realization (the Hamiltonian
there is non-separable, which rules out explicit splitting schemes, and
midpoint is symplectic for general smooth Hamiltonians).  The implicit solve
is a Newton iteration with the analytic Jacobian, obtained by symbolic
differentiation of the polynomial right-hand side and compiled to floats.

Fixed step only: adaptive stepping would break the drift-scaling tests and
nothing here needs it.  Both schemes run in one loop over float states; RK4,
the midpoint Newton residual and matrix, and the invariants run through
``model``'s scalar kernels, never on numpy columns.  ``integrate`` counts a
step that overflows, or whose Newton iterate or residual is not finite, as a
blow-up (see ``model``).

One Newton loop, ``_midpoint_newton``, serves both the system steps and
``midpoint_step_field`` on ad-hoc array fields, so its stopping rules exist
once.  Its linear solve stays LAPACK's ``np.linalg.solve``: a pure-Python
elimination with partial pivoting in its place moved 3 of 60 012 states by
up to 8.7e-19 on 12 seeded 5000-step ham6 orbits, and states are meant to
stay bit-identical.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import model
from .model import InvariantId, SystemId, system_invariants  # noqa: F401  (re-exported)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class IntegratorId(enum.Enum):
    RK4 = "rk4"
    IMPLICIT_MIDPOINT = "midpoint"


class NewtonError(RuntimeError):
    """The implicit midpoint Newton iteration failed to converge."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"Newton did not converge in {iterations} iterations "
            f"(last residual {residual:.3e})"
        )


class BlowUpError(RuntimeError):
    """The trajectory, or an invariant along it, left the finite domain."""

    def __init__(self, time: float, invariant: InvariantId | None = None):
        self.time, self.invariant = time, invariant
        super().__init__(f"non-finite state at t = {time!r}" if invariant is None
                         else f"invariant {invariant.value} is not finite at t = {time:.17g}")


@dataclass(frozen=True)
class Trajectory:
    system: SystemId
    times: np.ndarray  # shape (n,)
    states: np.ndarray  # shape (n, dim)
    h: float

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class InvariantDrift:
    initial: float
    max_abs_deviation: float
    final_deviation: float


@dataclass(frozen=True)
class DriftReport:
    system: SystemId
    drifts: dict[InvariantId, InvariantDrift]


# ---------------------------------------------------------------------------
# Generic single-step cores (also usable with ad-hoc test fields)
# ---------------------------------------------------------------------------


def rk4_step_field(f: Callable, s: np.ndarray, t: float, h: float) -> np.ndarray:
    k1 = f(s)
    k2 = f(s + 0.5 * h * k1)
    k3 = f(s + 0.5 * h * k2)
    k4 = f(s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def midpoint_step_field(
    f: Callable,
    jac: Callable,
    s: np.ndarray,
    t: float,
    h: float,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> np.ndarray:
    """One implicit midpoint step s' = s + h f((s + s')/2) by Newton, on a
    field ``f`` and its Jacobian ``jac`` of arrays (see ``_midpoint_newton``)."""
    n, eye = len(s), np.eye(len(s))

    def kernel(*x_new_h):
        x, new = np.array(x_new_h[:n]), np.array(x_new_h[n:-1])
        mid = 0.5 * (x + new)
        return (*(new - x - h * f(mid)), *(eye - 0.5 * h * jac(mid)).ravel())

    return np.array(_midpoint_newton(lambda *x: f(np.array(x)), kernel, s.tolist(), h, tol, max_iter))


def _midpoint_newton(
    f: Callable,
    kernel: Callable,
    s: Sequence[float],
    h: float,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> tuple:
    """The Newton iteration of one implicit midpoint step, over float tuples.

    ``f(*s)`` is the field, for the explicit Euler predictor; ``kernel(*s, *new, h)``
    returns the residual ``new - s - h f(mid)`` and then the n*n entries of the
    Newton matrix ``eye - (0.5*h) jac(mid)``, at ``mid = 0.5*(s + new)``.
    Terminates when the max-norm of the Newton update drops below ``tol``,
    or when the update has stopped shrinking within ``tol * (1 + max|s'|)``:
    at large |s'| rounding alone keeps the update above an absolute ``tol``.
    An iterate or residual that is not finite, or that overflows a float
    ``**``, ends the step with a nan state, which ``integrate`` reports as a
    blow-up.
    """
    n = len(s)
    try:
        new = tuple(x + h * v for x, v in zip(s, f(*s)))  # explicit Euler predictor
        update_norm = math.inf
        for _ in range(max_iter):
            out = kernel(*s, *new, h)
            if not all(map(math.isfinite, out)):
                return (math.nan,) * n
            flat = np.array(out)
            delta = np.linalg.solve(flat[n:].reshape(n, n), flat[:n]).tolist()
            new = tuple(map(operator.sub, new, delta))
            previous, update_norm = update_norm, max(map(abs, delta))
            if update_norm <= tol or previous <= update_norm <= tol * (1.0 + max(map(abs, new))):
                return new
    except OverflowError:
        return (math.nan,) * n
    raise NewtonError(max_iter, update_norm)


# ---------------------------------------------------------------------------
# System-facing API
# ---------------------------------------------------------------------------


def _stepper(method: IntegratorId, system: SystemId) -> Callable[..., Sequence[float]]:
    """The step of ``method`` on ``system`` as a function ``(*x, h)`` of floats."""
    if method is IntegratorId.RK4:
        return model.rk4_step_compiled(system)
    f, kernel = model.rhs_scalar_compiled(system), model.midpoint_newton_compiled(system)
    return lambda *x_h: _midpoint_newton(f, kernel, x_h[:-1], x_h[-1])


def step(method: IntegratorId, system: SystemId, state, t: float, h: float):
    """One step of the named scheme; returns a state object of the system.

    A step that blows up, by overflowing a float ``**`` or by reaching a
    state that is not finite, returns the all-nan state under either scheme.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    values = model.state_values(system, state)
    try:
        out = _stepper(method, system)(*map(float, values), h)
    except OverflowError:  # a term of the new state would be +-inf
        out = (math.inf,)
    if not all(map(math.isfinite, out)):
        out = (math.nan,) * len(values)
    return model._STATE_TYPES[system](*out)


def step_count(t0: float, t_end: float, h: float) -> int:
    """The number of full steps of size ``h`` from t0 to t_end.

    Raises ValueError unless (t_end - t0) / h is a finite step count of at
    most ``sys.maxsize``, the most entries a trajectory list can hold.
    """
    n_steps = (t_end - t0) / h
    if not n_steps <= sys.maxsize:  # also rejects inf and nan
        raise ValueError(
            f"(t_end - t0) / h = {n_steps:g} is not a finite step count <= sys.maxsize"
        )
    return int(math.floor(n_steps + 1e-12))


def integrate(
    method: IntegratorId,
    system: SystemId,
    initial,
    t0: float,
    t_end: float,
    h: float,
) -> Trajectory:
    """Fixed-step integration with a final partial step landing on t_end;
    BlowUpError at the first state that is not finite."""
    if t_end < t0:
        raise ValueError("t_end must be >= t0")
    if h <= 0:
        raise ValueError("step size must be positive")
    n_full = step_count(t0, t_end, h)
    t_last = t0 + n_full * h
    partial = t_last < t_end - 1e-12 * max(1.0, abs(t_end))
    times = np.append(t0 + np.arange(n_full + 1) * h, [t_end] * partial)
    states = np.empty((len(times), model.system_dim(system)))
    states[0] = model.state_values(system, initial)
    s = states[0].tolist()
    advance = _stepper(method, system)
    sizes = itertools.chain(itertools.repeat(h, n_full), [t_end - t_last] * partial)
    for k, dt in enumerate(sizes, 1):
        try:
            s = advance(*s, dt)
        except OverflowError:  # a term of the new state would be +-inf
            s = (math.inf,)
        if not all(map(math.isfinite, s)):
            raise BlowUpError(float(times[k]))
        states[k] = s
    return Trajectory(system=system, times=times, states=states, h=h)


def invariant_values(
    traj: Trajectory, invariants: Sequence[InvariantId], rows: Sequence[int]
) -> np.ndarray:
    """The ``invariants`` (columns) at the states ``rows`` of ``traj``;
    BlowUpError at the first row, and in it the first column, not finite."""
    for inv in invariants:
        if (home := model.invariant_system(inv)) is not traj.system:
            raise ValueError(f"invariant {inv.value} is defined on {home.value}, "
                             f"trajectory is {traj.system.value}")
    fn, order = model.invariants_compiled(traj.system), system_invariants(traj.system)
    flat = itertools.chain.from_iterable(fn(*traj.states[k].tolist()) for k in rows)
    table = np.fromiter(flat, float, len(rows) * len(order)).reshape(len(rows), len(order))
    values = table[:, [order.index(inv) for inv in invariants]]
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        raise BlowUpError(float(traj.times[rows[bad[0, 0]]]), invariants[bad[0, 1]])
    return values


def drift_report(traj: Trajectory, invariants: Sequence[InvariantId]) -> DriftReport:
    """Deviation bookkeeping for each invariant along a trajectory."""
    values = invariant_values(traj, invariants, range(len(traj)))
    dev = np.abs(values - values[0])
    drifts = {inv: InvariantDrift(float(v0), float(d.max()), float(d[-1]))
              for inv, v0, d in zip(invariants, values[0], dev.T)}
    return DriftReport(system=traj.system, drifts=drifts)


def midpoint_roundtrip_error(system: SystemId, state, h: float) -> float:
    """Max-norm error of one implicit midpoint step forward then backward."""
    advance = _stepper(IntegratorId.IMPLICIT_MIDPOINT, system)
    s0 = tuple(map(float, model.state_values(system, state)))
    return float(np.max(np.abs(np.subtract(advance(*advance(*s0, h), -h), s0))))


def convergence_order(
    method: IntegratorId,
    system: SystemId,
    initial,
    t_end: float,
    h0: float,
) -> float:
    """Richardson order estimate against an h0/64 reference solution."""
    ref = integrate(method, system, initial, 0.0, t_end, h0 / 64).states[-1]

    def err(h: float) -> float:
        final = integrate(method, system, initial, 0.0, t_end, h).states[-1]
        return float(np.max(np.abs(final - ref)))

    e1, e2 = err(h0), err(h0 / 2)
    if e2 == 0.0:
        raise ZeroDivisionError("refined error vanished; cannot estimate an order")
    return math.log2(e1 / e2)
