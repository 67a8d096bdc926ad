"""The three equivalent formulations of the 5D Maxwell-Bloch (RWA) system.

* MB5  -- the five-dimensional first-order system on (x1, y1, x2, y2, z)
* HAM6 -- its canonical Hamiltonian realization on (q, p)
* EL6  -- the Euler-Lagrange form, written first-order on (q, qdot)

Each system exists in two renditions: exact polynomial right-hand sides for
symbolic certification, and compiled float functions (generated from the
same polynomials) for numerical integration, so the two cannot diverge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class State5:
    x1: float
    y1: float
    x2: float
    y2: float
    z: float

    def as_tuple(self):
        return (self.x1, self.y1, self.x2, self.y2, self.z)


@dataclass(frozen=True)
class State6:
    q1: float
    q2: float
    q3: float
    p1: float
    p2: float
    p3: float

    def as_tuple(self):
        return (self.q1, self.q2, self.q3, self.p1, self.p2, self.p3)


@dataclass(frozen=True)
class TangentState6:
    q1: float
    q2: float
    q3: float
    qd1: float
    qd2: float
    qd3: float

    def as_tuple(self):
        return (self.q1, self.q2, self.q3, self.qd1, self.qd2, self.qd3)


_STATE_TYPES = {SystemId.MB5: State5, SystemId.HAM6: State6, SystemId.EL6: TangentState6}
_VARSETS = {SystemId.MB5: VARS5, SystemId.HAM6: VARS6, SystemId.EL6: VARST6}


def system_vars(system: SystemId) -> VarSet:
    return _VARSETS[system]


def system_dim(system: SystemId) -> int:
    return len(_VARSETS[system])


def _as_values(state) -> tuple:
    if hasattr(state, "as_tuple"):
        return state.as_tuple()
    return tuple(state)


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


@lru_cache(maxsize=None)
def phi_symbolic() -> tuple[Poly, ...]:
    """The submersion from (q, p) onto (x1, y1, x2, y2, z), componentwise."""
    q1, q2, q3, p1, p2, p3 = Poly.variables(VARS6)
    return (q1, p1, q2, p2, p3 - HALF * (q1**2 + q2**2))


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


def _eval_vector(polys: Sequence[Poly], vars: VarSet, values: Sequence) -> tuple:
    if len(values) != len(vars):
        raise ValueError(f"expected {len(vars)} components, got {len(values)}")
    point = dict(zip(vars.names, values))
    return tuple(p.eval(point) for p in polys)


def rhs(system: SystemId, state) -> tuple:
    """State velocity of the chosen system; exact on rational inputs."""
    return _eval_vector(rhs_symbolic(system), system_vars(system), _as_values(state))


def invariant(inv: InvariantId, state):
    """Value of an invariant on a state of the matching type."""
    system = _INVARIANT_SYSTEM[inv]
    values = _as_values(state)
    if len(values) != system_dim(system):
        raise ValueError(
            f"{inv.value} is defined on {system.value} states "
            f"({system_dim(system)} components), got {len(values)}"
        )
    return invariant_symbolic(inv).eval(dict(zip(system_vars(system).names, values)))


def phi(s: State6) -> State5:
    """Project a canonical 6D state onto the 5D phase space."""
    return State5(*_eval_vector(phi_symbolic(), VARS6, _as_values(s)))


def legendre(ts: TangentState6) -> State6:
    return State6(*_eval_vector(legendre_symbolic(), VARST6, _as_values(ts)))


def legendre_inv(s: State6) -> TangentState6:
    return TangentState6(*_eval_vector(legendre_inverse_symbolic(), VARS6, _as_values(s)))


def jacobian_rank_phi(sample: State6) -> int:
    """Exact rank of the 5x6 Jacobian of the projection at a sample point.

    Float samples are converted exactly to rationals, so the rank is
    computed by exact row reduction, with no tolerance involved.
    """
    values = [Fraction(v) for v in _as_values(sample)]
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
    lines = [f"def _f({', '.join(vars.names)}):"]
    exprs = [_poly_source(p, vars) for p in polys]
    lines.append(f"    return ({', '.join(exprs)}{',' if len(exprs) == 1 else ''})")
    ns: dict = {}
    exec("\n".join(lines), ns)
    inner = ns["_f"]

    def f(state: np.ndarray) -> np.ndarray:
        return np.array(inner(*state), dtype=float)

    return f


def _poly_source(p: Poly, vars: VarSet) -> str:
    if p.is_zero:
        return "0.0"
    parts = []
    for e, c in p.sorted_terms():
        factors = [repr(float(c))]
        for name, k in zip(vars.names, e):
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
    """Compiled exact Jacobian of the right-hand side, as a matrix function."""
    vars = system_vars(system)
    rows = [[comp.diff(n) for n in vars.names] for comp in rhs_symbolic(system)]
    row_fns = [compile_poly_vector(row, vars) for row in rows]

    def jac(state: np.ndarray) -> np.ndarray:
        return np.array([fn(state) for fn in row_fns])

    return jac


@lru_cache(maxsize=None)
def invariant_compiled(inv: InvariantId) -> Callable[[np.ndarray], float]:
    system = _INVARIANT_SYSTEM[inv]
    fn = compile_poly_vector((invariant_symbolic(inv),), system_vars(system))
    return lambda state: float(fn(state)[0])
