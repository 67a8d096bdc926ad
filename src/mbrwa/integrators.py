"""Fixed-step time integration with invariant-drift accounting.

Classical RK4 is the baseline; the implicit midpoint rule is the
structure-preserving scheme on the canonical 6D realization (the Hamiltonian
there is non-separable, which rules out explicit splitting schemes, and
midpoint is symplectic for general smooth Hamiltonians).  The implicit solve
is a Newton iteration with the analytic Jacobian, obtained by symbolic
differentiation of the polynomial right-hand side and compiled to floats.

Fixed step only: adaptive stepping would break the drift-scaling tests and
nothing here needs it.
"""

from __future__ import annotations

import enum
import math
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
    """The trajectory left the finite domain."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"non-finite state at t = {time!r}")


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
    """One implicit midpoint step s' = s + h f((s + s')/2) by Newton.

    Terminates when the max-norm of the Newton update drops below ``tol``,
    or when the update has stopped shrinking within ``tol * (1 + max|s'|)``:
    at large |s'| rounding alone keeps the update above an absolute ``tol``.
    """
    eye = np.eye(len(s))
    new = s + h * f(s)  # explicit Euler predictor
    update_norm = math.inf
    for it in range(1, max_iter + 1):
        mid = 0.5 * (s + new)
        residual = new - s - h * f(mid)
        j = eye - 0.5 * h * jac(mid)
        delta = np.linalg.solve(j, residual)
        new = new - delta
        previous, update_norm = update_norm, float(np.max(np.abs(delta)))
        if update_norm <= tol:
            return new
        if previous <= update_norm <= tol * (1.0 + float(np.max(np.abs(new)))):
            return new
    raise NewtonError(max_iter, update_norm)


# ---------------------------------------------------------------------------
# System-facing API
# ---------------------------------------------------------------------------


def _as_array(system: SystemId, state) -> np.ndarray:
    return np.array(model.state_values(system, state), dtype=float)


def _step_array(
    method: IntegratorId, system: SystemId, s: np.ndarray, t: float, h: float
) -> np.ndarray:
    f = model.rhs_compiled(system)
    if method is IntegratorId.RK4:
        return rk4_step_field(f, s, t, h)
    return midpoint_step_field(f, model.rhs_jacobian_compiled(system), s, t, h)


def step(method: IntegratorId, system: SystemId, state, t: float, h: float):
    """One step of the named scheme; returns a state object of the system."""
    if h <= 0:
        raise ValueError("step size must be positive")
    out = _step_array(method, system, _as_array(system, state), t, h)
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
    """Fixed-step integration with a final partial step landing on t_end."""
    if t_end < t0:
        raise ValueError("t_end must be >= t0")
    if h <= 0:
        raise ValueError("step size must be positive")
    n_full = step_count(t0, t_end, h)
    s = _as_array(system, initial)
    times = [t0]
    states = [s]
    t = t0
    for k in range(n_full):
        s = _step_array(method, system, s, t, h)
        t = t0 + (k + 1) * h
        if not np.all(np.isfinite(s)):
            raise BlowUpError(t)
        times.append(t)
        states.append(s)
    if t < t_end - 1e-12 * max(1.0, abs(t_end)):
        s = _step_array(method, system, s, t, t_end - t)
        if not np.all(np.isfinite(s)):
            raise BlowUpError(t_end)
        times.append(t_end)
        states.append(s)
    return Trajectory(system=system, times=np.array(times), states=np.array(states), h=h)


def drift_report(traj: Trajectory, invariants: Sequence[InvariantId]) -> DriftReport:
    """Deviation bookkeeping for each invariant along a trajectory."""
    drifts = {}
    for inv in invariants:
        if model.invariant_system(inv) is not traj.system:
            raise ValueError(
                f"invariant {inv.value} is defined on {model.invariant_system(inv).value}, "
                f"trajectory is {traj.system.value}"
            )
        fn = model.invariant_compiled(inv)
        values = np.array([fn(s) for s in traj.states])
        dev = np.abs(values - values[0])
        drifts[inv] = InvariantDrift(
            initial=float(values[0]),
            max_abs_deviation=float(np.max(dev)),
            final_deviation=float(dev[-1]),
        )
    return DriftReport(system=traj.system, drifts=drifts)


def midpoint_roundtrip_error(system: SystemId, state, h: float) -> float:
    """Max-norm error of one implicit midpoint step forward then backward."""
    f = model.rhs_compiled(system)
    jac = model.rhs_jacobian_compiled(system)
    s0 = _as_array(system, state)
    s1 = midpoint_step_field(f, jac, s0, 0.0, h)
    s2 = midpoint_step_field(f, jac, s1, h, -h)
    return float(np.max(np.abs(s2 - s0)))


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
