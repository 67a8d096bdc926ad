"""The three equivalent formulations of the 5D Maxwell-Bloch (RWA) system.

* MB5  -- the five-dimensional first-order system on (x1, y1, x2, y2, z),
  stated here and certified against the Poisson tensor (``hamiltonian-field``)
* HAM6 -- its canonical Hamiltonian realization on (q, p): Hamilton's
  equations of H~, derived from ``invariant_symbolic(HTILDE)``
* EL6  -- the Euler-Lagrange form of L, written first-order on (q, qdot) and
  derived from ``invariant_symbolic(L)``; L's qdot-Hessian is the identity,
  so the equations solve for qddot with no inverse

The Legendre map (q, dL/dqdot) is derived from L too.  H~, L, phi, its
section and the inverse Legendre map stay written out, so that the
realization and Legendre checks compare separate statements.

Each system exists in two renditions: exact polynomial right-hand sides for
symbolic certification, and float functions compiled from source generated
from the same polynomials (``_poly_source``), so the two cannot diverge.
``_compile`` execs every generated text and keeps it as ``.source``.
Beside the numpy renditions, the invariants are compiled as one scalar kernel
per system, from the lines (``invariant_lines``) that the integrators' run
loops inline, on Python floats, never numpy columns: an array's ``x**2`` is
``x*x``, a scalar's is libm ``pow``, and they differ in the last bit on about
0.09% of doubles.  A float ``**`` raises OverflowError where numpy returns
inf; the kernel returns nan for the invariant that overflowed.

A state is a named tuple whose fields are the names of its system's VarSet;
any sequence of the right length is accepted wherever a state is.
"""

from __future__ import annotations

import enum
import re
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .polyring import Poly, VarSet, _terms_text, lie_derivative

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
        # Hamilton's equations: qdot = dH~/dp, pdot = -dH~/dq
        h = invariant_symbolic(InvariantId.HTILDE)
        return (*(h.diff(f"p{i}") for i in (1, 2, 3)), *(-h.diff(f"q{i}") for i in (1, 2, 3)))
    # d/dt dL/dqdot = dL/dq, with L autonomous and its qdot-Hessian the
    # identity, reads qddot = dL/dq - (d2L/dqdot dq) qdot
    lag, q, qd = invariant_symbolic(InvariantId.L), VARST6.names[:3], VARST6.names[3:]
    drift = dict(zip(q, Poly.variables(VARST6)[3:]))  # sum_j qd_j d/dq_j
    acc = (lag.diff(a) - lie_derivative(drift, lag.diff(v)) for a, v in zip(q, qd))
    return (*drift.values(), *acc)


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


@lru_cache(maxsize=None)
def invariant_system(inv: InvariantId) -> SystemId:
    """The system whose variables ``invariant_symbolic(inv)`` is written over."""
    return next(s for s in SystemId if _VARSETS[s] == invariant_symbolic(inv).vars)


def system_invariants(system: SystemId) -> tuple[InvariantId, ...]:
    """The invariants written over a system's variables, in ``InvariantId`` order."""
    return tuple(inv for inv in InvariantId if invariant_system(inv) is system)


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
    lag = invariant_symbolic(InvariantId.L)
    return (*Poly.variables(VARST6)[:3], *(lag.diff(v) for v in VARST6.names[3:]))


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
    return _eval_vector((invariant_symbolic(inv),), invariant_system(inv), state)[0]


def phi(s: State6) -> State5:
    """Project a canonical 6D state onto the 5D phase space."""
    return State5(*_eval_vector(phi_symbolic(), SystemId.HAM6, s))


def legendre(ts: TangentState6) -> State6:
    return State6(*_eval_vector(legendre_symbolic(), SystemId.EL6, ts))


def legendre_inv(s: State6) -> TangentState6:
    return TangentState6(*_eval_vector(legendre_inverse_symbolic(), SystemId.HAM6, s))


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
    import numpy as np

    *body, returns = _powers_once([", ".join(_poly_source(p, vars.names) for p in polys)])
    inner = _compile_scalar("_f", vars.names, body, [returns])
    return lambda state: np.array(inner(*state), dtype=float)


def _compile(source: str, name: str, **namespace) -> Callable:
    """The function ``name`` that generated ``source`` defines over
    ``namespace``, with the text as its ``.source``: the one ``exec``."""
    exec(source, namespace)
    fn = namespace[name]
    fn.source = source
    return fn


def _compile_scalar(name: str, args: Sequence[str], body: list, returns: list) -> Callable:
    """Compile ``def name(*args)``: the ``body`` lines, then the tuple ``returns``."""
    lines = [f"def {name}({', '.join(args)}):", *body, f"return ({', '.join(returns)},)"]
    return _compile("\n    ".join(lines), name)


def _poly_source(p: Poly, names: Sequence[str]) -> str:
    """Source of ``p`` over ``names``: ``_terms_text`` with ``**`` and float
    literals, as in ``(-x*y - 0.5*z**2)``; exact in IEEE 754, signed zeros and
    infinities included, since ``1.0*x`` is ``x``, ``-1.0*x`` is ``-x`` and
    ``a + -b`` is ``a - b`` (a nan stays a nan; the standard leaves its sign open)."""
    text = _terms_text(p, names, "**", lambda c: repr(float(c)))
    return f"({text})" if text else "0.0"


def _powers_once(lines: list) -> list:
    """``lines`` after ``v_k = v**k`` for each ``v**k`` that occurs more than
    once in them, read there as ``v_k``: ``**`` binds tighter than ``*`` and
    unary minus.  The one power rule of every generated text."""
    power, text = r"\b([A-Za-z_]\w*)\*\*(\d+)", "\n".join(lines)
    repeated = [p for p, n in Counter(re.findall(power, text)).items() if n > 1]
    hoisted = [f"{v}_{k} = {v}**{k}" for v, k in repeated]
    return hoisted + re.sub(power, lambda m: f"{m[1]}_{m[2]}" if m.groups() in repeated
                            else m[0], text).split("\n")


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
    system = invariant_system(inv)
    fn = compile_poly_vector((invariant_symbolic(inv),), system_vars(system))
    return lambda state: float(fn(state)[0])


def invariant_lines(system: SystemId) -> list[str]:
    """Source lines that set v0, v1, ... to ``system_invariants(system)`` at
    the state components, each nan if its ``**`` overflows: the powers an
    invariant repeats are hoisted inside its own ``try``."""
    x, body = system_vars(system).names, []
    for i, inv in enumerate(system_invariants(system)):
        value = _powers_once([f"v{i} = {_poly_source(invariant_symbolic(inv), x)}"])
        body += ["try:", *(f"    {line}" for line in value), "except OverflowError:",
                 f"    v{i} = float('nan')"]
    return body


@lru_cache(maxsize=None)
def invariants_compiled(system: SystemId) -> Callable[..., tuple]:
    """All of ``system_invariants(system)`` as one generated scalar function
    of the state components; an invariant whose ``**`` overflows is nan."""
    returns = [f"v{i}" for i in range(len(system_invariants(system)))]
    return _compile_scalar("_invariants", system_vars(system).names, invariant_lines(system), returns)
