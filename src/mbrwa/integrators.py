"""Fixed-step time integration with invariant-drift accounting.

Classical RK4 is the baseline; the implicit midpoint rule is the
structure-preserving scheme on the canonical 6D realization (the Hamiltonian
there is non-separable, which rules out explicit splitting schemes, and
midpoint is symplectic for general smooth Hamiltonians).  The implicit solve
is a Newton iteration with the analytic Jacobian, obtained by symbolic
differentiation of the polynomial right-hand side and compiled to floats.

Fixed step only: adaptive stepping would break the drift-scaling tests and
nothing here needs it.  Every run is one generated function over local
floats, the text ``_RUN``, compiled on first use once per (method, system,
emit).  Step k, at ``t = t0 + h*k``, is the scheme's one step text inlined
(RK4's stage lines, or ``_MIDPOINT_STEP``), then the state's finiteness
test, then the emit slot: ``fold`` (``run_drift``: the invariant lines of
``model.invariants_compiled`` and a running maximum of ``abs(v - v0)``, in
O(1) memory), ``rows`` (``run_rows``: ``(t, *state, *invariants)`` of every
``every``-th row and the last, each written in place by one ``struct``
``pack_into`` into an ``array('d')`` sized before the run) or ``none``
(``step``).  ``fold`` and ``rows`` apply one rule to the invariants of each
row they make: the first that is not finite, by row then column, is kept as
a BlowUpError and raised once the run ends, so a later non-finite state
wins.  ``_drive`` runs the full steps, then the partial step onto t_end,
one loop call each.  The loops run on Python floats, never numpy columns:
an array's ``x**2`` is ``x*x``, a scalar's is libm ``pow``, and they differ
in the last bit on about 0.09% of doubles.
The array steps on a field of numpy arrays (``rk4_step_field``, and
``midpoint_step_field`` over a system's Newton unknowns) keep the generated
steps' operation order, and numpy scalars call ``pow`` too, so the two give
the same bits.

``_MIDPOINT_STEP`` is the one midpoint step text: the explicit midpoint
predictor (``e = x + c*f(x)``, then ``n = x + h*f(e)``), Newton iterations,
finiteness checks, solve, update, both stopping rules with ``NEWTON_TOL`` and
``NEWTON_MAX_ITER`` written in as constants, a restart from ``n = x`` half
way, and a ``for ... else`` that raises ``NewtonError``.  A system's loop
solves Newton for the variables that some component reads and whose own is not
zero, in its order, each followed by the variable that its component is, if
any: mb5's order, (q1, p1, q2, p2) on ham6 and pi's (q1, qd1, q2, qd2, qd3) on
el6, whose states are then mb5's through pi, since gesv pivots in that order.
A zero-rate variable (ham6's p3) keeps its predictor, its midpoint set once a
step, and one that no component reads (q3, the cyclic coordinate) gets the
quadrature ``x + h*f(m)`` at the accepted midpoints.  The stopping rules read
the unknowns.  The loop inlines its rhs in both predictor stages and in the
Newton evaluation (the residual and the Newton matrix together), each power
``v**k`` once as a local ``v_k``; ``midpoint_step_field``'s loop solves the
full system, calling a field and a Newton kernel.  The run's setup sets what h
fixes once per ``_run`` call: RK4's ``a`` and ``b``, and midpoint's ``c = 0.5
* h``, ``h0 = h * 0.0`` where a component of the rhs is identically zero, and
each Newton-matrix entry whose derivative is a nonzero constant, as written
(``0.0 - x`` is not ``-x`` for x = 0.0).  The linear solve calls numpy's
``solve1`` gufunc directly: the LAPACK gesv kernel ``np.linalg.solve`` runs
for a 1-D right-hand side, without the argument handling, so states keep their
bits.  Only a midpoint loop needs numpy, imported with ``solve1`` when
``_compile_loop`` first compiles one, so an RK4 run, like the exact side,
loads none.  Each run call makes two buffers and writes the Newton operands a
fixed h fixes into the first, whose views are the residual and Newton matrix;
each iteration packs only the spans holding its locals ``o<k>``, by ``struct``
``pack_into`` calls of at most 28 values (``_spans``): a call of more than 30
arguments compiles to a list and ``CALL_FUNCTION_EX``.  ``solve1`` fills the
second, unpacked as ``d0, ...``. With the finiteness tests, on ham6's 4x4
system: packs 0.28 us an iteration, solve 1.2 us (6x6: 0.6, 1.45; timeit
minima, 2-core x86-64).  A pure-Python elimination moved 3 of 60 012 6x6
states, by <= 8.7e-19.

Every loop keeps one float contract.  A float ``**`` raises OverflowError
where numpy returns inf; the loop turns it into a BlowUpError at the step's
time, as it does a Newton iterate, residual or update, or a state, that is
not finite.  An exactly singular Newton matrix makes ``solve1`` warn unless
an ``np.errstate`` ignores "invalid"; entering one costs about as much as a
predictor, so no Newton iteration enters one: ``_compile_loop`` sets it once
per call of each loop that calls ``solve1``.  Floats ``a, b, ...`` are
tested as ``not isfinite(a + b + ...) and not (isfinite(a) and ...)``,
exact: a nan or infinite entry makes the sum nan or infinite, and a finite
sum that overflows falls through to each entry.  Setup entries, finite for
a finite h, are left out.  Nothing calls ``sum()`` on floats, so no result
rests on Python 3.12's compensated ``sum``.
"""
from __future__ import annotations

import enum
import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from struct import Struct
from typing import Callable, Sequence

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

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class InvariantDrift:
    initial: float
    max_abs_deviation: float
    final_deviation: float


@dataclass(frozen=True)
class DriftReport:
    steps: int
    drifts: dict[InvariantId, InvariantDrift]


# ---------------------------------------------------------------------------
# The two schemes: each array step, beside the text of its generated step.  A
# scheme's text is two lists of lines: its setup, run once per run call, and
# its step, which updates the state locals.
# ---------------------------------------------------------------------------


def rk4_step_field(f: Callable, s: np.ndarray, t: float, h: float) -> np.ndarray:
    k1 = f(s)
    k2 = f(s + 0.5 * h * k1)
    k3 = f(s + 0.5 * h * k2)
    k4 = f(s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4(system: SystemId) -> tuple[list, list]:
    """RK4 on ``system``: the rhs inlined four times in ``rk4_step_field``'s
    operation order, ``x + a*k`` with ``a = 0.5 * h``, then
    ``x = x + b*(k1 + 2.0*k2 + 2.0*k3 + k4)`` with ``b = h / 6.0``; a and b
    are set once per run."""
    x, f = model.system_vars(system).names, model.rhs_symbolic(system)
    k = [[f"k{j}_{i}" for i in range(len(x))] for j in range(4)]
    step, stage = [], x
    for j, scale in enumerate(("a", "a", "h", None)):
        step += model._powers_once([f"{kj} = {model._poly_source(p, stage)}"
                                    for kj, p in zip(k[j], f)])
        if scale:
            stage = [f"s{j}_{i}" for i in range(len(x))]
            step += [f"{s} = {xi} + {scale}*{kj}" for s, xi, kj in zip(stage, x, k[j])]
    step += [f"{xi} = {xi} + b*({k1} + 2.0*{k2} + 2.0*{k3} + {k4})"
             for xi, k1, k2, k3, k4 in zip(x, *k)]
    return ["a = 0.5 * h", "b = h / 6.0"], step


def midpoint_step_field(f: Callable, jac: Callable, s: np.ndarray, t: float, h: float) -> np.ndarray:
    """One implicit midpoint step s' = s + h f((s + s')/2) on a field ``f``
    and its Jacobian ``jac`` of arrays: ``_MIDPOINT_STEP`` from the explicit
    midpoint predictor ``s + h*f(s + (h/2)*f(s))``, Newton built from ``f``
    and ``jac``.  All nan if the step blows up; no numpy warning escapes it."""
    import numpy as np

    n, eye = len(s), np.eye(len(s))

    def kernel(*x_new_h):
        x, new = np.array(x_new_h[:n]), np.array(x_new_h[n:-1])
        mid = 0.5 * (x + new)
        return (*(new - x - h * f(mid)), *(eye - 0.5 * h * jac(mid)).ravel())

    try:
        return np.array(_field_midpoint(n)(*s.tolist(), t, h, 1, 2,
                                           lambda *x: f(np.array(x)), kernel))
    except BlowUpError:
        return np.full(n, math.nan)


# The implicit midpoint step, written once.  ``_midpoint`` fills in the state
# locals, the explicit midpoint predictor (lines that set e0, e1, ... to
# x + c*f(x), then n0, n1, ... to x + h*f(e)), one Newton evaluation (lines
# that set ``o<k>`` for each entry k that varies with the state: the residual
# ``new - x - h*f(mid)``, then the Newton matrix ``eye - (0.5*h)*jac(mid)``,
# at ``mid = 0.5*(x + new)``) and every entry in that order, its local,
# literal or setup name, for the buffers and packs.
# Newton stops when the max-norm of its update drops below NEWTON_TOL, or when
# the update has stopped shrinking within NEWTON_TOL * (1 + max|new|): at
# large |new| rounding alone keeps the update above an absolute tolerance.
# Half way it starts again from the state: the predictor's error grows like
# (h*|df/dx|)**2, and Newton wanders from it on ham6 at p3 = 1e8, h = 0.05.
# After NEWTON_MAX_ITER it raises NewtonError.  An exactly singular Newton
# matrix solves to all nan, a blow-up.  Each run call makes its own buffers.
_MIDPOINT_BUFFERS = """\
buf, update = np.array([{constants}]), np.empty({n})  # Newton operands (residual, matrix); update
residual, matrix = buf[:{n}], buf[{n}:].reshape({n}, {n})
{packs}, unpack = {structs}, Struct("{n}d").unpack_from"""

_MIDPOINT_STEP = """\
{predictor}
update_norm = inf
for _ in range({max_iter}):
    {kernel}
    if {o_blowup}:
        raise BlowUpError(t)
    {pack}
    {d}, = unpack(solve1(matrix, residual, update))
    if {d_blowup}:
        raise BlowUpError(t)
    {update}
    previous, update_norm = update_norm, {d_norm}
    if update_norm <= {tol!r} or previous <= update_norm <= {tol!r} * (1.0 + {new_norm}):
        {accept}
        break
    if _ == {restart}:  # not converged from the predictor: start again from the state
        {new}, update_norm = {start}, inf
else:
    raise NewtonError({max_iter}, update_norm)"""


def _blowup(names: Sequence[str]) -> str:
    """The test, written out, that one of the float locals ``names`` is not finite."""
    each = " and ".join(f"isfinite({v})" for v in names)
    return f"not isfinite({' + '.join(names)}) and not ({each})"


@lru_cache(maxsize=None)
def _spans(at: tuple) -> tuple:
    """The fewest runs ``(first, last)`` of at most 28 positions that cover
    the sorted positions ``at``, of those the fewest positions."""
    return min((((at[0], at[j]), *_spans(at[j + 1:])) for j in reversed(range(len(at)))
                if at[j] - at[0] < 28), key=lambda s: (len(s), sum(b - a for a, b in s)), default=())


def _midpoint(new: Sequence[str], start: Sequence[str], setup: list, predictor: list,
              kernel: list, entries: list, accept: list) -> tuple[list, list]:
    """The run's ``setup`` then ``_MIDPOINT_STEP``'s buffers, and the step:
    Newton on the locals ``new``, restarting from ``start``, packing the spans
    of ``entries`` with their locals ``o<k>``, which it tests, then ``accept``."""
    n, d = len(new), [f"d{i}" for i in range(len(new))]
    spans = _spans(tuple(k for k, e in enumerate(entries) if e.startswith("o")))

    def max_abs(names):
        return f"max({', '.join(f'abs({v})' for v in names)})" if n > 1 else f"abs({names[0]})"

    slots = dict(
        n=n, d=", ".join(d), predictor="\n".join(predictor), kernel="\n    ".join(kernel),
        constants=", ".join("0.0" if e.startswith("o") else e for e in entries),
        packs=", ".join(f"pack{i}" for i in range(len(spans))), restart=NEWTON_MAX_ITER // 2 - 1,
        structs=", ".join(f'Struct("{b - a + 1}d").pack_into' for a, b in spans),
        pack="\n    ".join(f"pack{i}(buf, {8 * a}, {', '.join(entries[a:b + 1])})"
                             for i, (a, b) in enumerate(spans)),
        o_blowup=_blowup([e for e in entries if e.startswith("o")]), d_blowup=_blowup(d),
        update="\n    ".join(f"{ni} = {ni} - {di}" for ni, di in zip(new, d)),
        new=", ".join(new), start=", ".join(start), accept="\n        ".join(accept),
        d_norm=max_abs(d), new_norm=max_abs(new), tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
    )
    return ([*setup, *_MIDPOINT_BUFFERS.format(**slots).split("\n")],
            _MIDPOINT_STEP.format(**slots).split("\n"))


def _system_midpoint(system: SystemId) -> tuple[list, list]:
    """The midpoint scheme on ``system``, Newton on its unknowns: its rhs
    inlined in both predictor stages and in the Newton evaluation, in the
    operation order of ``midpoint_step_field`` over them, the Newton matrix
    row by row.  A Jacobian entry identically zero is written as its value
    for a finite h, ``1.0`` on the diagonal and ``0.0`` off it; a nonzero
    constant one is a setup name, as is ``h0 = h * 0.0``, h times a zero component."""
    x, f, source = model.system_vars(system).names, model.rhs_symbolic(system), model._poly_source
    new, mid, early = ([f"{c}{i}" for i in range(len(x))] for c in "nme")

    def times(scale, p, at):  # scale times component p at ``at``; h0 for a zero p
        return "h0" if p.is_zero else f"{scale}{source(p, at)}"

    def read_by(rows):  # the variables, by index, that the components ``rows`` read
        read = set().union(*(f[i].occurring() for i in rows))
        return [i for i, v in enumerate(x) if v in read]

    def midpoints(rows, fixed=False):  # those Newton moves, or if fixed the zero-rate ones
        return [f"{mid[i]} = 0.5*({x[i]} + {new[i]})" for i in read_by(rows) if f[i].is_zero == fixed]

    read = read_by(range(len(x)))
    order = dict.fromkeys(w for v, p in zip(x, f)  # v, then the variable that f_v is
                          for w in (v, *(w for w in x if p == model.Poly.var(p.vars, w))))
    solved = [i for i in map(x.index, order) if i in read and not f[i].is_zero]
    quadrature = [i for i in range(len(x)) if i not in read and not f[i].is_zero]
    entries = [f"{new[i]} - {x[i]} - {times('h*', f[i], mid)}" for i in solved]
    fixed = {"1.0": "1.0", "0.0": "0.0"}  # an entry constant for a fixed h: its literal or j<k>
    for i in solved:
        for j in solved:
            d, eye = f[i].diff(x[j]), "1.0" if i == j else "0.0"
            entries.append(eye if d.is_zero else f"{eye} - c*{source(d, mid)}")
            if d.total_degree() == 0:
                fixed.setdefault(entries[-1], f"j{len(fixed) - 2}")
    setup = ["c = 0.5 * h", *["h0 = h * 0.0"] * any(p.is_zero for p in f),
             *(f"{name} = {e}" for e, name in fixed.items() if name != e)]
    kernel = [*midpoints(solved), *model._powers_once([f"o{k} = {e}" for k, e in enumerate(entries)
                                                       if e not in fixed])]
    stage = [i for i in range(len(x)) if i not in quadrature]  # explicit midpoint: e, then n
    predictor = [*model._powers_once([f"{early[i]} = {x[i]} + {times('c * ', f[i], x)}"
                                      for i in read_by(stage)]),
                 *model._powers_once([f"{new[i]} = {x[i]} + {times('h * ', f[i], early)}"
                                      for i in stage]), *midpoints(range(len(x)), fixed=True)]
    accept = [*midpoints(quadrature), *model._powers_once(
        [f"{v} = {v} + {times('h*', f[i], mid)}" if i in quadrature else f"{v} = {new[i]}"
         for i, v in enumerate(x)])]
    return _midpoint([new[i] for i in solved], [x[i] for i in solved], setup, predictor, kernel,
                     [fixed.get(e, f"o{k}") for k, e in enumerate(entries)], accept)


# ---------------------------------------------------------------------------
# The run loop, written once
# ---------------------------------------------------------------------------

# ``_run`` runs the scheme's setup, then the emit slot's, takes steps
# start..stop-1 of size h and returns the state reached.
_RUN = """
def _run({x}, t0, h, start, stop{args}):
    {setup}
    try:
        for k in range(start, stop):
            t = t0 + h*k
            {step}
            if {x_blowup}:
                raise BlowUpError(t)
            {emit}
    except OverflowError:
        raise BlowUpError(t) from None
    {teardown}
    return {x},
"""


def _emit(emit: str, system: SystemId) -> tuple[str, list, list, list]:
    """The emit slot ``emit`` on ``system``: (arguments, lines before the
    loop, lines after each step, lines after the loop).  ``rows`` and
    ``fold`` carry their locals, the first BlowUpError of an invariant
    ``bad`` last, in the list ``acc`` from one run call to the next."""
    if emit == "none":
        return "", [], [], []
    x, m = model.system_vars(system).names, len(system_invariants(system))
    v, lines = [f"v{j}" for j in range(m)], model.invariant_lines(system)
    finite = ", ".join(f"isfinite({vj})" for vj in v)
    rule = [f"if {_blowup(v)} and bad is None:",
            f"    bad = BlowUpError(t, invariants[({finite},).index(False)])"]
    setup = []
    if emit == "rows":  # every every-th row and row ``last``, written at byte ``off`` of ``rows``
        carried, args, row = ["off", "bad"], ", rows, every, last, acc", ["t", *x, *v]
        setup = [f'put = Struct("{len(row)}d").pack_into']
        lines = ["if k % every == 0 or k == last:", *(f"    {line}" for line in
                 [*lines, f"put(rows, off, {', '.join(row)})", f"off += {8 * len(row)}", *rule])]
    else:  # fold: i0, ... row 0's invariants, w0, ... the largest deviations, v0, ... the last row's
        i, w = [f"i{j}" for j in range(m)], [f"w{j}" for j in range(m)]
        carried, args = [*i, *w, *v, "bad"], ", acc"
        for ij, wj, vj in zip(i, w, v):
            lines += [f"d = abs({vj} - {ij})", f"if d > {wj}:", f"    {wj} = d"]
        lines += rule
    return (args, [f"{', '.join(carried)}, = acc", *setup], lines,
            [f"acc[:] = {', '.join(carried)},"])


def _compile_loop(x: Sequence[str], scheme: tuple, slot: tuple, **namespace) -> Callable:
    """``_RUN`` for the state locals ``x``, a scheme's (setup, step) lines
    and an emit slot; a loop calling ``solve1`` runs each call in one ``np.errstate``."""
    (scheme_setup, step), (args, emit_setup, emit, teardown) = scheme, slot
    source = _RUN.format(
        x=", ".join(x), args=args, setup="\n    ".join([*scheme_setup, *emit_setup]),
        step="\n            ".join(step), emit="\n            ".join(emit),
        teardown="\n    ".join(teardown), x_blowup=_blowup(x),
    )
    source = "\n".join(line for line in source.split("\n") if line.strip()) + "\n"
    namespace.update(Struct=Struct, isfinite=math.isfinite, inf=math.inf,
                     NewtonError=NewtonError, BlowUpError=BlowUpError)
    if "solve1(" not in source:  # an RK4 loop: no numpy call, so no numpy error state
        return model._compile(source, "_run", **namespace)
    import numpy as np  # a midpoint loop: numpy's gesv, imported at its first compile
    from numpy.linalg._umath_linalg import solve1  # the gufunc behind np.linalg.solve
    run = model._compile(source, "_run", np=np, solve1=solve1, **namespace)
    return np.errstate(all="ignore")(run)  # a singular Newton matrix sets "invalid"


@lru_cache(maxsize=None)
def _compile_run(method: IntegratorId, system: SystemId, emit: str) -> Callable:
    """``_run`` of ``method``'s loop on ``system`` with the ``emit`` slot."""
    scheme = _rk4(system) if method is IntegratorId.RK4 else _system_midpoint(system)
    return _compile_loop(model.system_vars(system).names, scheme, _emit(emit, system),
                         invariants=system_invariants(system))


@lru_cache(maxsize=None)
def _field_midpoint(n: int) -> Callable:
    """``_run`` of the midpoint loop in n dimensions with no emit, taking
    ``f`` and ``kernel`` after its stop: ``f(*x)``, then ``f(*e)``, for the
    predictor, ``kernel(*x, *new, h)`` unpacked into ``o0, o1, ...``."""
    x, v, e, new = ([f"{c}{i}" for i in range(n)] for c in "xven")
    o = [f"o{k}" for k in range(n + n * n)]
    predictor = [f"{', '.join(v)}, = f({', '.join(x)})", *map("{} = {} + c * {}".format, e, x, v),
                 f"{', '.join(v)}, = f({', '.join(e)})", *map("{} = {} + h * {}".format, new, x, v)]
    kernel = [f"{', '.join(o)}, = kernel({', '.join(x + new)}, h)"]
    accept = [f"{xi} = {ni}" for xi, ni in zip(x, new)]
    return _compile_loop(x, _midpoint(new, x, ["c = 0.5 * h"], predictor, kernel, o, accept),
                         (", f, kernel", [], [], []))


# ---------------------------------------------------------------------------
# System-facing API
# ---------------------------------------------------------------------------


def step_count(t0: float, t_end: float, h: float) -> int:
    """The number of full steps of size ``h`` from t0 to t_end.

    Raises ValueError unless ``h`` is positive and finite and (t_end - t0) / h is a step
    count: finite, at most ``sys.maxsize`` (the largest index), not negative (within 1e-12).
    """
    n_steps = (t_end - t0) / _step_size(h)
    if not n_steps <= sys.maxsize:  # also rejects inf and nan
        raise ValueError(
            f"(t_end - t0) / h = {n_steps:g} is not a finite step count <= sys.maxsize"
        )
    if n_steps + 1e-12 < 0:  # also rejects -inf
        raise ValueError(f"(t_end - t0) / h = {n_steps:g} is a negative step count")
    return int(math.floor(n_steps + 1e-12))


def _step_size(h) -> float:
    """``h`` as a float; ValueError unless it is positive and finite."""
    if not 0 < h < math.inf:  # also rejects nan
        raise ValueError(f"step size must be positive and finite, got {h!r}")
    return float(h)


def _segments(t0: float, t_end: float, h: float) -> list[tuple[float, float, int, int]]:
    """The run from t0 to t_end as ``(t0, h, start, stop)`` loop arguments:
    ``step_count`` full steps, then a partial step landing on t_end unless the
    last full step is within rounding of it.  Row k is at t0 + h*k."""
    t0, t_end, h = float(t0), float(t_end), float(h)
    n_full = step_count(t0, t_end, h)  # ValueError for a reversed span or a bad step
    t_last = t0 + n_full * h
    partial = t_last < t_end - 1e-12 * abs(t_end - t0)  # rounding in n_full * h scales with the span
    return [(t0, h, 1, n_full + 1)] + [(t_end, t_end - t_last, 0, 1)] * partial


def _state(system: SystemId, state) -> tuple[float, ...]:
    return tuple(map(float, model.state_values(system, state)))


def _drive(method: IntegratorId, system: SystemId, emit: str, s: tuple, segments: list,
           *args) -> tuple:
    """The state the (method, system, emit) loop reaches from ``s`` over the
    segments, one loop call each (a midpoint loop sets numpy's error state per call)."""
    run = _compile_run(method, system, emit)
    for segment in segments:
        s = run(*s, *segment, *args)
    return s


def _row0(system: SystemId, segments: list, s: tuple) -> tuple:
    """Row 0 of the run from ``s``: its time, its invariants and the
    BlowUpError of the first of them that is not finite, or None."""
    t, dt, _, _ = segments[0]
    t, values = t + dt*0, model.invariants_compiled(system)(*s)
    return t, values, next((BlowUpError(t, inv) for inv, v in zip(system_invariants(system), values)
                            if not math.isfinite(v)), None)


def step(method: IntegratorId, system: SystemId, state, t: float, h: float):
    """One step of the named scheme; returns a state object of the system,
    all nan if the step blows up."""
    h, s = _step_size(h), _state(system, state)
    try:
        s = _drive(method, system, "none", s, [(float(t), h, 1, 2)])
    except BlowUpError:
        s = (math.nan,) * len(s)
    return model._STATE_TYPES[system](*s)


def run_rows(method: IntegratorId, system: SystemId, initial, t0: float, t_end: float,
             h: float, every: int = 1) -> array:
    """Rows ``(t, *state, *invariants)`` of the run, packed in one
    ``array('d')`` sized before the run: row 0, every ``every``-th row and
    the last, each written in place as the run goes.  MemoryError when the
    rows cannot be allocated.  BlowUpError at the first state that is not
    finite; else at the first row, then column, whose invariant is not
    finite, raised once the run ends, so a later non-finite state wins."""
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every!r}")
    segments, s = _segments(t0, t_end, h), _state(system, initial)
    t, values, bad = _row0(system, segments, s)
    width, n_full = 1 + len(s) + len(values), segments[0][3] - 1
    last = n_full if len(segments) == 1 else -1  # a partial step's row is its k = 0
    # row 0, every every-th full step, then an off-grid last full step or the partial step
    count = 1 + n_full // every + (n_full % every != 0 if last >= 0 else 1)
    try:
        rows = array("d", [0.0]) * (count * width)
    except OverflowError:  # more entries than an index can count
        raise MemoryError(f"{count} rows of {width} doubles") from None
    rows[:width] = array("d", (t, *s, *values))
    acc = [8 * width, bad]
    _drive(method, system, "rows", s, segments, rows, every, last, acc)
    if acc[-1] is not None:
        raise acc[-1]
    return rows


def run_drift(method: IntegratorId, system: SystemId, initial, t0: float, t_end: float,
              h: float) -> DriftReport:
    """Deviation bookkeeping for each of ``system_invariants(system)``, folded
    as the run goes, in O(1) memory.  BlowUpError as ``run_rows`` raises it."""
    segments, s = _segments(t0, t_end, h), _state(system, initial)
    _, values, bad = _row0(system, segments, s)
    acc = [*values, *(0.0 for _ in values), *values, bad]
    _drive(method, system, "fold", s, segments, acc)
    if acc[-1] is not None:
        raise acc[-1]
    m, invariants = len(values), system_invariants(system)
    drifts = {inv: InvariantDrift(i, w, abs(v - i))
              for inv, i, w, v in zip(invariants, acc[:m], acc[m:2 * m], acc[2 * m:3 * m])}
    return DriftReport(sum(stop - start for _, _, start, stop in segments), drifts)


def integrate(method: IntegratorId, system: SystemId, initial, t0: float, t_end: float,
              h: float) -> Trajectory:
    """The run from t0 to t_end, every state collected into arrays:
    ``run_rows``'s table without its invariant columns.  BlowUpError as
    ``run_rows`` raises it, for a state or an invariant that is not finite."""
    import numpy as np

    n = model.system_dim(system)
    rows = run_rows(method, system, initial, t0, t_end, h)
    table = np.frombuffer(rows).reshape(-1, 1 + n + len(system_invariants(system)))
    return Trajectory(system, table[:, 0].copy(), table[:, 1:1 + n].copy())


def drift_report(traj: Trajectory, invariants: Sequence[InvariantId]) -> DriftReport:
    """Deviation bookkeeping for each invariant along a trajectory, by numpy
    over the scalar invariant kernel at every state.  BlowUpError at the
    first row, then column, not finite; ValueError when there are no rows."""
    import numpy as np

    for inv in invariants:
        if (home := model.invariant_system(inv)) is not traj.system:
            raise ValueError(f"invariant {inv.value} is defined on {home.value}, "
                             f"trajectory is {traj.system.value}")
    if not len(traj):
        raise ValueError("no rows to fold")
    order, fn = system_invariants(traj.system), model.invariants_compiled(traj.system)
    flat = itertools.chain.from_iterable(itertools.starmap(fn, traj.states.tolist()))
    values = np.fromiter(flat, float).reshape(len(traj), -1)[:, [order.index(i) for i in invariants]]
    if len(bad := np.argwhere(~np.isfinite(values))):
        raise BlowUpError(float(traj.times[bad[0, 0]]), invariants[bad[0, 1]])
    dev = np.abs(values - values[0])
    drifts = zip(invariants, values[0], dev.max(axis=0), dev[-1])
    return DriftReport(len(traj) - 1, {inv: InvariantDrift(*map(float, v)) for inv, *v in drifts})
