"""The three equivalent formulations of the 5D Maxwell-Bloch (RWA) system.

* MB5  -- the five-dimensional first-order system on (x1, y1, x2, y2, z)
* HAM6 -- its canonical Hamiltonian realization on (q, p)
* EL6  -- the Euler-Lagrange form, written first-order on (q, qdot)

Each system exists in two renditions: exact polynomial right-hand sides for
symbolic certification, and compiled float functions (generated from the
same polynomials) for numerical integration, so the two cannot diverge.

The scalar kernels (the rhs, one RK4 step, one implicit midpoint Newton
evaluation, all invariants) take Python floats, one state at a time, never
numpy columns: an array's ``x**2`` is ``x*x``, a scalar's is libm ``pow``, and
they differ in the last bit on about 0.09% of doubles.  Python and numpy
scalars both call ``pow``, so a kernel written in the operation order of the
array step it replaces gives the same bits.  The implicit midpoint step is
generated by ``integrators`` around source from here: ``rhs_source`` for its
Euler predictor and ``midpoint_newton_source`` for each Newton evaluation
(the residual and the Newton matrix together), both inlined, so an
iteration leaves only the linear solve to numpy.  A float ``**`` raises
OverflowError where numpy returns inf, and every generated kernel absorbs it:
a step (RK4 here, implicit midpoint in ``integrators``) returns the all-nan
state, which its caller reports as a blow-up, and the invariant kernel
returns nan for the invariant that overflowed.

A state is a named tuple whose fields are the names of its system's VarSet;
any sequence of the right length is accepted wherever a state is.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .polyring import Poly, VarSet, matrix_rank

VARS5 = VarSet("x1", "y1", "x2", "y2", "z")
VARS6 = VarSet("q1", "q2", "q3", "p1", "p2", "p3")
VARST6 = VarSet("q1", "q2", "q3", "qd1", "qd2", "qd3")

HALF = Fraction(1, 2)


class SystemId(enum.Enum):
    MB5 = "mb5"
    HAM6 = "ham6"
    EL6 = "el6"


class InvariantId(enum.Enum):
    H = "H"
    C = "C"
    J = "J"
    HTILDE = "Htilde"
    CTILDE = "Ctilde"
    JTILDE = "Jtilde"
    L = "L"


State5 = namedtuple("State5", VARS5.names)
State6 = namedtuple("State6", VARS6.names)
TangentState6 = namedtuple("TangentState6", VARST6.names)

_STATE_TYPES = {SystemId.MB5: State5, SystemId.HAM6: State6, SystemId.EL6: TangentState6}
_VARSETS = {SystemId.MB5: VARS5, SystemId.HAM6: VARS6, SystemId.EL6: VARST6}


def system_vars(system: SystemId) -> VarSet:
    return _VARSETS[system]


def system_dim(system: SystemId) -> int:
    return len(_VARSETS[system])


def state_values(system: SystemId, state: Sequence) -> tuple:
    """The components of a state of ``system``, checked for arity."""
    values = tuple(state)
    if len(values) != system_dim(system):
        raise ValueError(
            f"{system.value} state needs {system_dim(system)} components, got {len(values)}"
        )
    return values


# ---------------------------------------------------------------------------
# Symbolic right-hand sides and invariants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def rhs_symbolic(system: SystemId) -> tuple[Poly, ...]:
    """Right-hand side of the chosen system as exact polynomials."""
    if system is SystemId.MB5:
        x1, y1, x2, y2, z = Poly.variables(VARS5)
        return (y1, x1 * z, y2, x2 * z, -(x1 * y1 + x2 * y2))
    if system is SystemId.HAM6:
        q1, q2, q3, p1, p2, p3 = Poly.variables(VARS6)
        zq = p3 - HALF * (q1**2 + q2**2)
        return (p1, p2, zq, q1 * zq, q2 * zq, Poly.zero(VARS6))
    q1, q2, q3, qd1, qd2, qd3 = Poly.variables(VARST6)
    return (qd1, qd2, qd3, q1 * qd3, q2 * qd3, -(q1 * qd1 + q2 * qd2))


@lru_cache(maxsize=None)
def invariant_symbolic(inv: InvariantId) -> Poly:
    """The invariant as an exact polynomial over its natural variable set."""
    if inv in (InvariantId.H, InvariantId.C, InvariantId.J):
        x1, y1, x2, y2, z = Poly.variables(VARS5)
        if inv is InvariantId.H:
            return HALF * (y1**2 + y2**2 + z**2)
        if inv is InvariantId.C:
            return HALF * (x1**2 + x2**2) + z
        return x1 * y2 - x2 * y1
    if inv in (InvariantId.HTILDE, InvariantId.CTILDE, InvariantId.JTILDE):
        q1, q2, q3, p1, p2, p3 = Poly.variables(VARS6)
        if inv is InvariantId.HTILDE:
            return HALF * (p1**2 + p2**2) + HALF * (p3 - HALF * (q1**2 + q2**2)) ** 2
        if inv is InvariantId.CTILDE:
            return p3
        return q1 * p2 - q2 * p1
    q1, q2, q3, qd1, qd2, qd3 = Poly.variables(VARST6)
    return HALF * (qd1**2 + qd2**2 + qd3**2) + HALF * qd3 * (q1**2 + q2**2)


_INVARIANT_SYSTEM = {
    InvariantId.H: SystemId.MB5,
    InvariantId.C: SystemId.MB5,
    InvariantId.J: SystemId.MB5,
    InvariantId.HTILDE: SystemId.HAM6,
    InvariantId.CTILDE: SystemId.HAM6,
    InvariantId.JTILDE: SystemId.HAM6,
    InvariantId.L: SystemId.EL6,
}


def invariant_system(inv: InvariantId) -> SystemId:
    """Which system's states an invariant is defined on."""
    return _INVARIANT_SYSTEM[inv]


def system_invariants(system: SystemId) -> tuple[InvariantId, ...]:
    """The invariants naturally attached to a system, in table order."""
    return tuple(inv for inv, s in _INVARIANT_SYSTEM.items() if s is system)


@lru_cache(maxsize=None)
def phi_symbolic() -> tuple[Poly, ...]:
    """The submersion from (q, p) onto (x1, y1, x2, y2, z), componentwise."""
    q1, q2, q3, p1, p2, p3 = Poly.variables(VARS6)
    return (q1, p1, q2, p2, p3 - HALF * (q1**2 + q2**2))


@lru_cache(maxsize=None)
def phi_section_symbolic() -> Mapping[str, Poly]:
    """A right inverse of :func:`phi_symbolic`: (q1, p1, q2, p2, p3) as
    polynomials in (x1, y1, x2, y2, z), by name.

    q3 is not bound: phi does not depend on it, so any value of q3 gives a
    right inverse, and a quantity that can be carried to the 5D space must
    be free of q3.
    """
    x1, y1, x2, y2, z = Poly.variables(VARS5)
    return MappingProxyType(
        {"q1": x1, "p1": y1, "q2": x2, "p2": y2, "p3": z + HALF * (x1**2 + x2**2)}
    )


@lru_cache(maxsize=None)
def legendre_symbolic() -> tuple[Poly, ...]:
    """Fiber map (q, qdot) -> (q, p), p_i = dL/dqdot_i, componentwise."""
    q1, q2, q3, qd1, qd2, qd3 = Poly.variables(VARST6)
    return (q1, q2, q3, qd1, qd2, qd3 + HALF * (q1**2 + q2**2))


@lru_cache(maxsize=None)
def legendre_inverse_symbolic() -> tuple[Poly, ...]:
    """Inverse fiber map (q, p) -> (q, qdot)."""
    q1, q2, q3, p1, p2, p3 = Poly.variables(VARS6)
    return (q1, q2, q3, p1, p2, p3 - HALF * (q1**2 + q2**2))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_vector(polys: Sequence[Poly], system: SystemId, state: Sequence) -> tuple:
    point = dict(zip(system_vars(system).names, state_values(system, state)))
    return tuple(p.eval(point) for p in polys)


def rhs(system: SystemId, state) -> tuple:
    """State velocity of the chosen system; exact on rational inputs."""
    return _eval_vector(rhs_symbolic(system), system, state)


def invariant(inv: InvariantId, state):
    """Value of an invariant on a state of the matching system."""
    return _eval_vector((invariant_symbolic(inv),), _INVARIANT_SYSTEM[inv], state)[0]


def phi(s: State6) -> State5:
    """Project a canonical 6D state onto the 5D phase space."""
    return State5(*_eval_vector(phi_symbolic(), SystemId.HAM6, s))


def legendre(ts: TangentState6) -> State6:
    return State6(*_eval_vector(legendre_symbolic(), SystemId.EL6, ts))


def legendre_inv(s: State6) -> TangentState6:
    return TangentState6(*_eval_vector(legendre_inverse_symbolic(), SystemId.HAM6, s))


def jacobian_rank_phi(sample: State6) -> int:
    """Exact rank of the 5x6 Jacobian of the projection at a sample point.

    Float samples are converted exactly to rationals, so the rank is
    computed by exact row reduction, with no tolerance involved.
    """
    values = [Fraction(v) for v in state_values(SystemId.HAM6, sample)]
    point = dict(zip(VARS6.names, values))
    jac = [
        [comp.diff(name).eval(point) for name in VARS6.names] for comp in phi_symbolic()
    ]
    return matrix_rank(jac)


# ---------------------------------------------------------------------------
# Compiled float renditions
# ---------------------------------------------------------------------------


def compile_poly_vector(
    polys: Sequence[Poly], vars: VarSet
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a polynomial vector into a fast float function of an array.

    The source is generated from the canonical polynomial terms, so the
    compiled function agrees with :meth:`Poly.eval` up to IEEE rounding.
    """
    inner = _compile_scalar("_f", vars.names, [], [_poly_source(p, vars.names) for p in polys])
    return lambda state: np.array(inner(*state), dtype=float)


def _compile_scalar(name: str, args: Sequence[str], body: list, returns: list) -> Callable:
    """Compile ``def name(*args)``: the ``body`` lines, then the tuple ``returns``."""
    ns: dict = {}
    lines = [f"def {name}({', '.join(args)}):", *body, f"return ({', '.join(returns)},)"]
    exec("\n    ".join(lines), ns)
    return ns[name]


def _poly_source(p: Poly, names: Sequence[str]) -> str:
    """Source of ``p`` with its variables written as ``names``."""
    if p.is_zero:
        return "0.0"
    parts = []
    for e, c in p.sorted_terms():
        factors = [repr(float(c))]
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}**{k}")
        parts.append("*".join(factors))
    return "(" + " + ".join(parts) + ")"


@lru_cache(maxsize=None)
def rhs_compiled(system: SystemId) -> Callable[[np.ndarray], np.ndarray]:
    return compile_poly_vector(rhs_symbolic(system), system_vars(system))


@lru_cache(maxsize=None)
def rhs_jacobian_compiled(system: SystemId) -> Callable[[np.ndarray], np.ndarray]:
    """Compiled exact Jacobian of the right-hand side, as a matrix function.

    All n*n entries are compiled into one function, row by row, and its flat
    result is reshaped.
    """
    vars = system_vars(system)
    n = len(vars)
    entries = [comp.diff(name) for comp in rhs_symbolic(system) for name in vars.names]
    flat = compile_poly_vector(entries, vars)
    return lambda state: flat(state).reshape(n, n)


@lru_cache(maxsize=None)
def invariant_compiled(inv: InvariantId) -> Callable[[np.ndarray], float]:
    system = _INVARIANT_SYSTEM[inv]
    fn = compile_poly_vector((invariant_symbolic(inv),), system_vars(system))
    return lambda state: float(fn(state)[0])


@lru_cache(maxsize=None)
def rk4_step_compiled(system: SystemId) -> Callable[..., tuple]:
    """One RK4 step as a scalar function ``_rk4(*x, h) -> tuple``: the rhs
    inlined four times in ``integrators.rk4_step_field``'s operation order,
    ``x + a*k`` with ``a = 0.5 * h``, then ``x + b*(k1 + 2.0*k2 + 2.0*k3 + k4)``.
    A stage whose ``**`` overflows makes the step return all nan."""
    x = system_vars(system).names
    k = [[f"k{j}_{i}" for i in range(len(x))] for j in range(4)]
    body, stage = ["a = 0.5 * h", "b = h / 6.0"], x
    for j, scale in enumerate(("a", "a", "h", None)):
        body += [f"{kj} = {_poly_source(p, stage)}" for kj, p in zip(k[j], rhs_symbolic(system))]
        if scale:
            stage = [f"s{j}_{i}" for i in range(len(x))]
            body += [f"{s} = {xi} + {scale}*{kj}" for s, xi, kj in zip(stage, x, k[j])]
    new = [f"{xi} + b*({k1} + 2.0*{k2} + 2.0*{k3} + {k4})" for xi, k1, k2, k3, k4 in zip(x, *k)]
    body = ["try:", *(f"    {line}" for line in body),
            "except OverflowError:", f"    return (float('nan'),) * {len(x)}"]
    return _compile_scalar("_rk4", (*x, "h"), body, new)


def rhs_source(system: SystemId) -> list[str]:
    """The right-hand side as source, one expression per component, in the
    system's variable names."""
    x = system_vars(system).names
    return [_poly_source(p, x) for p in rhs_symbolic(system)]


def midpoint_newton_source(system: SystemId) -> tuple[list[str], list[str]]:
    """One implicit midpoint Newton evaluation as source: body lines, then
    the returned expressions, in the system's variable names ``x``, the
    iterate ``n0, n1, ...`` and ``h``.  It returns the residual
    ``new - x - h*f(mid)``, then the Newton matrix ``eye - (0.5*h)*jac(mid)``
    row by row, at ``mid = 0.5*(x + new)``, in
    ``integrators.midpoint_step_field``'s operation order.  A Jacobian entry
    that is identically zero is written as its value for a finite h, ``1.0``
    on the diagonal and ``0.0`` off it."""
    x, f = system_vars(system).names, rhs_symbolic(system)
    new, mid = [f"n{i}" for i in range(len(x))], [f"m{i}" for i in range(len(x))]
    body = ["c = 0.5 * h", *(f"{m} = 0.5*({xi} + {ni})" for m, xi, ni in zip(mid, x, new))]
    residual = [f"{ni} - {xi} - h*{_poly_source(p, mid)}" for ni, xi, p in zip(new, x, f)]
    matrix = []
    for i, comp in enumerate(f):
        for j, name in enumerate(x):
            d, eye = comp.diff(name), "1.0" if i == j else "0.0"
            matrix.append(eye if d.is_zero else f"{eye} - c*{_poly_source(d, mid)}")
    return body, residual + matrix


@lru_cache(maxsize=None)
def invariants_compiled(system: SystemId) -> Callable[..., tuple]:
    """All of ``system_invariants(system)`` as one generated scalar function
    of the state components; an invariant whose ``**`` overflows is nan."""
    x, invs = system_vars(system).names, system_invariants(system)
    body = []
    for i, inv in enumerate(invs):
        src = _poly_source(invariant_symbolic(inv), x)
        body += ["try:", f"    v{i} = {src}", "except OverflowError:", f"    v{i} = float('nan')"]
    return _compile_scalar("_invariants", x, body, [f"v{i}" for i in range(len(invs))])
