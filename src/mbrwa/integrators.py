"""Fixed-step time integration with invariant-drift accounting.

Classical RK4 is the baseline; the implicit midpoint rule is the
structure-preserving scheme on the canonical 6D realization (the Hamiltonian
there is non-separable, which rules out explicit splitting schemes, and
midpoint is symplectic for general smooth Hamiltonians).  The implicit solve
is a Newton iteration with the analytic Jacobian, obtained by symbolic
differentiation of the polynomial right-hand side and compiled to floats.

Fixed step only: adaptive stepping would break the drift-scaling tests and
nothing here needs it.  Both schemes run in one loop over float states, the
generator ``orbit``; ``integrate`` and ``fold_drift`` consume it.  Each
scheme is written here, in two renditions side by side: an array step on a
field of numpy arrays (``rk4_step_field``, ``midpoint_step_field``), and the
builder (``_system_rk4``, ``_system_midpoint``) of the step that runs, one
scalar function per system with its polynomial rhs inlined, on Python
floats, never numpy columns: an array's ``x**2`` is ``x*x``, a scalar's is
libm ``pow``, and they differ in the last bit on about 0.09% of doubles.
Python and numpy scalars both call ``pow``, so a generated step written in
its array step's operation order gives the same bits.

The implicit midpoint step is written once, as source (``_MIDPOINT_STEP``:
Euler predictor, Newton iterations, finiteness checks, solve, update, both
stopping rules with ``NEWTON_TOL`` and ``NEWTON_MAX_ITER`` written in as
constants, ``NewtonError``), and compiled twice.  ``_system_midpoint``
inlines a system's rhs in the predictor and its Newton evaluation (the
residual and the Newton matrix together), so an iteration leaves only the
linear solve to numpy; ``_field_midpoint`` calls a field ``f`` and a Newton
``kernel`` passed in, for ``midpoint_step_field``.  Each source is compiled
once per system or dimension.  The linear solve calls numpy's ``solve1``
gufunc directly: the LAPACK gesv kernel ``np.linalg.solve`` runs for a 1-D
right-hand side, without the argument handling, so states keep their bits.
Each stepper owns two buffers: one ``struct`` ``pack_into`` writes a kernel
output into the first (the residual and Newton matrix are views of it),
``solve1`` writes the update into the second, and one ``unpack_from`` reads
it back.  On a 6x6 system that is 0.56 us and 1.65 us an iteration, against
1.32 and 1.81 us for a numpy slice assignment and ``.tolist()`` (timeit
minima, 2-core x86-64).  (A pure-Python elimination in place of gesv moved 3
of 60 012 states by up to 8.7e-19 on 12 seeded 5000-step ham6 orbits.)

Every step keeps one float contract.  A float ``**`` raises OverflowError
where numpy returns inf; a generated step absorbs it and returns the all-nan
state, as it does when a Newton iterate, residual or update is not finite,
and ``orbit`` reports that state as a blow-up.  An exactly singular Newton
matrix makes ``solve1`` warn unless an ``np.errstate`` ignores numpy's
"invalid" flag.  Entering one costs about as much as a step's predictor, so
no compiled step enters one: ``orbit`` enters one per run, and ``step``,
``midpoint_roundtrip_error`` and ``midpoint_step_field`` one per call.  A
kernel output or Newton update is tested as ``not isfinite(sum(v)) and not
all(map(isfinite, v))``.  That is exact: a nan or infinite entry makes the
sum nan or infinite (so does Python 3.12's compensated ``sum``, which adds
its compensation term only when that is finite), and a sum of finite entries
that overflows falls through to the test of each entry.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.linalg._umath_linalg import solve1  # the gesv gufunc behind np.linalg.solve

from . import model
from .model import InvariantId, SystemId, system_invariants  # noqa: F401  (re-exported)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
ROW_BLOCK = 1024  # rows per numpy pass of fold_drift, and per write of simulate's CSV


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
    steps: int
    drifts: dict[InvariantId, InvariantDrift]


# ---------------------------------------------------------------------------
# The two schemes: each array step, beside the builder of its generated step
# ---------------------------------------------------------------------------


def rk4_step_field(f: Callable, s: np.ndarray, t: float, h: float) -> np.ndarray:
    k1 = f(s)
    k2 = f(s + 0.5 * h * k1)
    k3 = f(s + 0.5 * h * k2)
    k4 = f(s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@lru_cache(maxsize=None)
def _system_rk4(system: SystemId) -> Callable[..., tuple]:
    """One RK4 step on ``system`` as a function ``(*x, h) -> tuple``: the rhs
    inlined four times in ``rk4_step_field``'s operation order, ``x + a*k``
    with ``a = 0.5 * h``, then ``x + b*(k1 + 2.0*k2 + 2.0*k3 + k4)``."""
    x, f = model.system_vars(system).names, model.rhs_symbolic(system)
    k = [[f"k{j}_{i}" for i in range(len(x))] for j in range(4)]
    body, stage = ["a = 0.5 * h", "b = h / 6.0"], x
    for j, scale in enumerate(("a", "a", "h", None)):
        body += [f"{kj} = {model._poly_source(p, stage)}" for kj, p in zip(k[j], f)]
        if scale:
            stage = [f"s{j}_{i}" for i in range(len(x))]
            body += [f"{s} = {xi} + {scale}*{kj}" for s, xi, kj in zip(stage, x, k[j])]
    new = [f"{xi} + b*({k1} + 2.0*{k2} + 2.0*{k3} + {k4})" for xi, k1, k2, k3, k4 in zip(x, *k)]
    body = ["try:", *(f"    {line}" for line in body),
            "except OverflowError:", f"    return (float('nan'),) * {len(x)}"]
    return model._compile_scalar("_rk4", (*x, "h"), body, new)


def midpoint_step_field(f: Callable, jac: Callable, s: np.ndarray, t: float, h: float) -> np.ndarray:
    """One implicit midpoint step s' = s + h f((s + s')/2) by Newton, on a
    field ``f`` and its Jacobian ``jac`` of arrays: ``_MIDPOINT_STEP`` with
    ``f`` for the predictor and a Newton evaluation built from ``f`` and
    ``jac``.  No numpy floating-point warning escapes the step."""
    n, eye = len(s), np.eye(len(s))

    def kernel(*x_new_h):
        x, new = np.array(x_new_h[:n]), np.array(x_new_h[n:-1])
        mid = 0.5 * (x + new)
        return (*(new - x - h * f(mid)), *(eye - 0.5 * h * jac(mid)).ravel())

    midpoint = _field_midpoint(n)(lambda *x: f(np.array(x)), kernel)
    with np.errstate(all="ignore"):  # a singular Newton matrix sets "invalid"
        return np.array(midpoint(*s.tolist(), h))


# The implicit midpoint step, written once.  ``_compile_midpoint`` fills in the
# state arguments, the explicit Euler predictor (lines that set n0, n1, ...)
# and one Newton evaluation (lines that set ``out``: the residual
# ``new - x - h*f(mid)``, then the n*n entries of the Newton matrix
# ``eye - (0.5*h)*jac(mid)``, at ``mid = 0.5*(x + new)``).  ``_make`` allocates
# the solve's two buffers and binds ``f`` and ``kernel`` (either may be unused).
# Newton stops when the max-norm of its update drops below NEWTON_TOL, or when
# the update has stopped shrinking within NEWTON_TOL * (1 + max|new|): at large
# |new| rounding alone keeps the update above an absolute tolerance.  After
# NEWTON_MAX_ITER iterations it raises NewtonError.  An exactly singular
# Newton matrix solves to all nan, so it ends the step as a blow-up.
_MIDPOINT_STEP = """
def _make(f, kernel):
    buf, update = np.empty({size}), np.empty({n})  # kernel output (residual, matrix); update
    residual, matrix = buf[:{n}], buf[{n}:].reshape({n}, {n})
    pack, unpack = Struct("{size}d").pack_into, Struct("{n}d").unpack_from
    blow_up = (nan,) * {n}

    def _midpoint({x}, h):
        try:
            {predictor}
            update_norm = inf
            for _ in range({max_iter}):
                {kernel}
                if not isfinite(sum(out)) and not all(map(isfinite, out)):
                    return blow_up
                pack(buf, 0, *out)
                delta = unpack(solve1(matrix, residual, out=update))
                if not isfinite(sum(delta)) and not all(map(isfinite, delta)):
                    return blow_up
                {d}, = delta
                {update}
                previous, update_norm = update_norm, {d_norm}
                if update_norm <= {tol!r} or previous <= update_norm <= {tol!r} * (1.0 + {new_norm}):
                    return ({new},)
        except OverflowError:
            return blow_up
        raise NewtonError({max_iter}, update_norm)

    return _midpoint
"""


def _compile_midpoint(x: Sequence[str], predictor: list, kernel: list) -> Callable:
    """``_MIDPOINT_STEP``'s ``_make`` for the state arguments ``x``."""
    n, new, d = len(x), [f"n{i}" for i in range(len(x))], [f"d{i}" for i in range(len(x))]

    def max_abs(names):
        return f"max({', '.join(f'abs({v})' for v in names)})" if n > 1 else f"abs({names[0]})"

    source = _MIDPOINT_STEP.format(
        n=n, size=n + n * n, x=", ".join(x), new=", ".join(new), d=", ".join(d),
        predictor="\n            ".join(predictor),
        kernel="\n                ".join(kernel),
        update="\n                ".join(f"{ni} = {ni} - {di}" for ni, di in zip(new, d)),
        d_norm=max_abs(d), new_norm=max_abs(new), tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
    )
    from struct import Struct  # numpy has loaded it; imported here, at first compile
    return model._compile(source, "_make", np=np, solve1=solve1, Struct=Struct, nan=math.nan,
                          isfinite=math.isfinite, inf=math.inf, NewtonError=NewtonError)


@lru_cache(maxsize=None)
def _system_midpoint(system: SystemId) -> Callable:
    """The step's ``_make`` on ``system``: its rhs inlined in the predictor
    and in the Newton evaluation, in ``midpoint_step_field``'s operation order,
    with the Newton matrix row by row.  A Jacobian entry that is identically
    zero is written as its value for a finite h, ``1.0`` on the diagonal and
    ``0.0`` off it."""
    x, f, source = model.system_vars(system).names, model.rhs_symbolic(system), model._poly_source
    new, mid = [f"n{i}" for i in range(len(x))], [f"m{i}" for i in range(len(x))]
    out = [f"{ni} - {xi} - h*{source(p, mid)}" for ni, xi, p in zip(new, x, f)]
    for i, p in enumerate(f):
        for j, name in enumerate(x):
            d, eye = p.diff(name), "1.0" if i == j else "0.0"
            out.append(eye if d.is_zero else f"{eye} - c*{source(d, mid)}")
    return _compile_midpoint(
        x, [f"{ni} = {xi} + h * {source(p, x)}" for ni, xi, p in zip(new, x, f)],
        ["c = 0.5 * h", *(f"{m} = 0.5*({xi} + {ni})" for m, xi, ni in zip(mid, x, new)),
         f"out = ({', '.join(out)},)"])


@lru_cache(maxsize=None)
def _field_midpoint(n: int) -> Callable:
    """The step's ``_make`` in n dimensions, calling ``f(*x)`` for the
    predictor and ``kernel(*x, *new, h)`` for each Newton evaluation."""
    x, v = [f"x{i}" for i in range(n)], [f"v{i}" for i in range(n)]
    predictor = [f"{', '.join(v)}, = f({', '.join(x)})",
                 *(f"n{i} = {xi} + h * {vi}" for i, (xi, vi) in enumerate(zip(x, v)))]
    kernel = [f"out = kernel({', '.join(x)}, {', '.join(f'n{i}' for i in range(n))}, h)"]
    return _compile_midpoint(x, predictor, kernel)


# ---------------------------------------------------------------------------
# System-facing API
# ---------------------------------------------------------------------------


def _stepper(method: IntegratorId, system: SystemId) -> Callable[..., Sequence[float]]:
    """The step of ``method`` on ``system`` as a function ``(*x, h)`` of floats.
    It enters no ``np.errstate``: its caller does, once per run."""
    if method is IntegratorId.RK4:
        return _system_rk4(system)
    return _system_midpoint(system)(None, None)


def step(method: IntegratorId, system: SystemId, state, t: float, h: float):
    """One step of the named scheme; returns a state object of the system,
    all nan if the step blows up."""
    if not 0 < h < math.inf:  # also rejects nan
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    values = model.state_values(system, state)
    with np.errstate(all="ignore"):  # a singular Newton matrix sets "invalid"
        out = _stepper(method, system)(*map(float, values), h)
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


def orbit(method: IntegratorId, system: SystemId, initial, t0: float, t_end: float,
          h: float) -> Iterator[tuple[float, tuple]]:
    """The fixed-step run as ``(t, state)`` float tuples from the initial state:
    ``step_count`` steps at t = t0 + k*h, then a partial step landing on t_end.
    BlowUpError at the first state that is not finite.  The run's one
    ``np.errstate`` stays entered while the generator is suspended."""
    if t_end < t0:
        raise ValueError("t_end must be >= t0")
    if not 0 < h < math.inf:  # also rejects nan
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    t0, t_end, h = float(t0), float(t_end), float(h)
    n_full = step_count(t0, t_end, h)
    t_last = t0 + n_full * h
    partial = t_last < t_end - 1e-12 * abs(t_end - t0)  # rounding in n_full * h scales with the span
    s = tuple(map(float, model.state_values(system, initial)))
    yield t0 + 0 * h, s
    advance, isfinite = _stepper(method, system), math.isfinite
    steps = itertools.chain(zip(map(t0.__add__, map(h.__mul__, range(1, n_full + 1))),
                                itertools.repeat(h)), [(t_end, t_end - t_last)] * partial)
    with np.errstate(all="ignore"):  # a singular Newton matrix sets "invalid"
        for t, dt in steps:
            s = advance(*s, dt)
            if not isfinite(sum(s)) and not all(map(isfinite, s)):
                raise BlowUpError(t)
            yield t, s


def integrate(method: IntegratorId, system: SystemId, initial, t0: float, t_end: float,
              h: float) -> Trajectory:
    """The ``orbit`` from t0 to t_end, collected into arrays."""
    times, states = array("d"), array("d")
    for t, s in orbit(method, system, initial, t0, t_end, h):
        times.append(t)
        states.extend(s)
    return Trajectory(system, np.frombuffer(times), np.frombuffer(states).reshape(len(times), -1), h)


def fold_drift(system: SystemId, invariants: Sequence[InvariantId],
               rows: Iterable[tuple[float, Sequence[float]]]) -> DriftReport:
    """Deviation bookkeeping for each invariant along a run's (t, state) rows in
    O(``ROW_BLOCK``) memory; BlowUpError at the first row, then column, not
    finite, raised once the rows end, so a later non-finite state wins.
    ValueError when there are no rows."""
    for inv in invariants:
        if (home := model.invariant_system(inv)) is not system:
            raise ValueError(f"invariant {inv.value} is defined on {home.value}, "
                             f"trajectory is {system.value}")
    fn, order = model.invariants_compiled(system), system_invariants(system)
    cols, rows = [order.index(inv) for inv in invariants], iter(rows)
    initial, worst, bad, steps = None, np.zeros(len(cols)), None, -1
    while block := list(itertools.islice(rows, ROW_BLOCK)):
        flat = itertools.chain.from_iterable(fn(*s) for _, s in block)
        values = np.fromiter(flat, float, len(block) * len(order)).reshape(len(block), -1)[:, cols]
        initial = values[0] if initial is None else initial
        dev = np.abs(values - initial)
        np.maximum(worst, dev.max(axis=0), out=worst)
        if bad is None and len(where := np.argwhere(~np.isfinite(values))):
            bad = BlowUpError(block[where[0, 0]][0], invariants[where[0, 1]])
        steps += len(block)
    if initial is None:
        raise ValueError("no rows to fold")
    if bad is not None:
        raise bad
    drifts = zip(invariants, initial, worst, dev[-1])
    return DriftReport(system, steps, {inv: InvariantDrift(*map(float, v)) for inv, *v in drifts})


def drift_report(traj: Trajectory, invariants: Sequence[InvariantId]) -> DriftReport:
    """Deviation bookkeeping for each invariant along a trajectory."""
    rows = (zip(traj.times[i:i + ROW_BLOCK].tolist(), traj.states[i:i + ROW_BLOCK].tolist())
            for i in range(0, len(traj), ROW_BLOCK))  # floats one block at a time
    return fold_drift(traj.system, invariants, itertools.chain.from_iterable(rows))


def midpoint_roundtrip_error(system: SystemId, state, h: float) -> float:
    """Max-norm error of one implicit midpoint step forward then backward."""
    advance = _stepper(IntegratorId.IMPLICIT_MIDPOINT, system)
    s0 = tuple(map(float, model.state_values(system, state)))
    with np.errstate(all="ignore"):  # a singular Newton matrix sets "invalid"
        back = advance(*advance(*s0, h), -h)
    return float(np.max(np.abs(np.subtract(back, s0))))


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
