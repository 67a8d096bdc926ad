"""Lie point symmetries of the Euler-Lagrange system and their transport.

The pipeline follows the classical symmetry machinery for second-order ODE
systems: prolong a point-field ansatz to second order, act on the equations,
substitute the accelerations from the equations themselves, and demand that
the residuals vanish identically in the jet variables.  The determining
equations are generated mechanically from the prolongation formulas, never
transcribed; the hand-written relations live in the test suite as a
regression check on the generator.  The equations themselves are
``model.rhs_symbolic(EL6)``, and the push-forwards onto (t, q, p) and the 5D
space are derived from ``model``'s Legendre map and realization map Phi with
their inverses, so every certificate here is about the maps ``model`` defines.
One transport, :func:`pushforward`, returns both fields, and on the 5D space
one record, :func:`dynamics_commutator`, answers the 5D question from one
[X, V]: X is a symmetry iff [X, V] is a multiple of the dynamics V.
There is one vector-field type, :class:`VectorField`.  A point field is one
over (t, q1, q2, q3, params): xi and eta_i, named in :data:`SYMMETRY_SLOTS`,
are its t and q_i components, and each parameter's component is zero.

``solve_determining`` assembles its matrix by linearity, since the
prolongation is linear in the field.  Each unit field puts one monomial m of
(t, q) in one slot, and its residuals are read off the one prolongation
(Olver, *Applications of Lie Groups to Differential Equations*, section
2.3): :func:`determining_residuals` of the field with a generic function m
in the slot, whose partial derivatives m, m_t, ..., m_q3_q3 are symbols that
the total derivative differentiates by the chain rule.  The second
prolongation differentiates a coefficient at most twice, so the jet stops
at order 2, and every residual is a sum of those 15 partial derivatives of
m, each times a fixed polynomial F that does not depend on m.  A derivative
of a monomial is an integer times a lower monomial, and its product with F
is F with shifted exponents: the columns are written straight into sparse
rows from one table of F's terms, with no polynomial built per monomial.

The constants of motion are derived, not restated: :func:`noether_charge`
applies Noether's formula to a t-free point field with ``model``'s L.  In the
family only the alpha = 0 members are variational, and t occurs only in the
alpha terms, so the family's charge is that of those members.

Velocity-dependent or non-polynomial symmetry coefficients are out of scope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import Literal

from . import model
from .model import InvariantId, SystemId
from .polyring import Coeff, Poly, VarSet, _coeff, _nullspace, kernel, lie_derivative

BASE_NAMES = ("t", "q1", "q2", "q3")
JET_EXTRA = ("qd1", "qd2", "qd3", "qdd1", "qdd2", "qdd3")
PARAM_NAMES = ("alpha", "beta", "gamma", "delta")
SYMMETRY_SLOTS = MappingProxyType({"xi": "t", "eta1": "q1", "eta2": "q2", "eta3": "q3"})

BASE_VARS = VarSet(*BASE_NAMES)
BASE_VARS_P = VarSet(*BASE_NAMES, *PARAM_NAMES)

X5_NAMES = ("t", *model.VARS5.names)


class NotInSymmetryFamily(ValueError):
    """The vector field is not of the four-parameter symmetry form."""


@dataclass(frozen=True)
class VectorField(Mapping):
    """A vector field as one coefficient polynomial per variable.

    It reads as a mapping from variable name to coefficient, so
    :func:`lie_derivative` takes it directly.  Parameter variables carried
    in the VarSet simply get zero coefficients.
    """

    vars: VarSet
    components: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.components) != len(self.vars):
            raise ValueError("one component per variable required")
        for c in self.components:
            if c.vars != self.vars:
                raise ValueError("components must live over the field's VarSet")

    @classmethod
    def of(cls, vars: VarSet, coeffs: Mapping[str, Poly]) -> VectorField:
        """The field with the given coefficients by name; a variable that
        ``coeffs`` does not name gets a zero coefficient, and a name that is
        not a variable raises KeyError."""
        components = [Poly.zero(vars)] * len(vars)
        for name, c in coeffs.items():
            components[vars.index(name)] = c
        return cls(vars, tuple(components))

    def __getitem__(self, name: str) -> Poly:
        return self.components[self.vars.index(name)]

    def __iter__(self):
        return iter(self.vars.names)

    def __len__(self) -> int:
        return len(self.vars)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)


def lie_bracket_fields(u: VectorField, v: VectorField) -> VectorField:
    """[u, v]_k = u(v_k) - v(u_k), exactly; VarSetMismatch unless u and v
    share a VarSet (``lie_derivative`` and the subtraction check it)."""
    return VectorField(
        vars=u.vars,
        components=tuple(lie_derivative(u, v[n]) - lie_derivative(v, u[n]) for n in u),
    )


def JetVectorField(xi: Poly, eta: Sequence[Poly]) -> VectorField:
    """The point field xi d/dt + sum eta_i d/dq_i over xi's VarSet, which
    must start with (t, q1, q2, q3); the variables after them are parameters."""
    if xi.vars.names[:4] != BASE_NAMES:
        raise ValueError(f"base variables must start with {BASE_NAMES}")
    return VectorField.of(xi.vars, dict(zip(BASE_NAMES, (xi, *eta), strict=True)))


# ---------------------------------------------------------------------------
# Jet space plumbing
# ---------------------------------------------------------------------------


def jet_vars(base: VarSet) -> VarSet:
    """Extend a (t, q, params) VarSet with velocities and accelerations."""
    params = base.names[4:]
    return VarSet(*BASE_NAMES, *JET_EXTRA, *params)


@lru_cache(maxsize=None)
def _jet_shift(jv: VarSet) -> Mapping[str, Poly]:
    """The field qd_i d/dq_i + qdd_i d/dqd_i of the total derivative, plus
    the chain rule D m_o = m_(o+t) + sum_k qd_k m_(o+q_k) for each symbol
    m_o of :data:`_JET` of order < 2 that ``jv`` carries, so that those
    symbols are the partial derivatives of a function m of (t, q).

    Symbols of order 2 get no entry: the second prolongation differentiates
    a coefficient at most twice, so it never differentiates them."""
    field = {}
    for i in (1, 2, 3):
        field[f"q{i}"] = Poly.var(jv, f"qd{i}")
        field[f"qd{i}"] = Poly.var(jv, f"qdd{i}")
    for o, name in _JET.items():
        if sum(o) < 2 and name in jv:
            # m_(o+w) for w = t, q1, q2, q3
            up = [Poly.var(jv, _JET[tuple(a + (v == w) for v, a in enumerate(o))])
                  for w in range(4)]
            field[name] = up[0] + sum(field[f"q{k}"] * up[k] for k in (1, 2, 3))
    return MappingProxyType(field)


def total_derivative(f: Poly) -> Poly:
    """Total time derivative on the second-order jet space.

    D_t f = df/dt + qd_i df/dq_i + qdd_i df/dqd_i; parameter variables are
    constants, except the jet symbols that :func:`_jet_shift` chain-rules.
    """
    # d/dt is added directly: its coefficient is 1, and multiplying by it
    # would only cost time
    return f.diff("t") + lie_derivative(_jet_shift(f.vars), f)


def prolong(u: VectorField, order: Literal[1, 2]) -> VectorField:
    """First or second prolongation of a point field, on the jet space.

    vel_i = D_t(eta_i) - D_t(xi) qd_i, and
    acc_i = D_t(vel_i) - D_t(xi) qdd_i
          = D_t^2(eta_i) - D_t^2(xi) qd_i - 2 D_t(xi) qdd_i;
    at order 1 the acceleration components are zero.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    jv = jet_vars(u.vars)
    coeffs = {name: u[name].rename(jv) for name in BASE_NAMES}
    dxi = total_derivative(coeffs["t"])
    for i in (1, 2, 3):
        coeffs[f"qd{i}"] = total_derivative(coeffs[f"q{i}"]) - dxi * Poly.var(jv, f"qd{i}")
        if order == 2:
            coeffs[f"qdd{i}"] = total_derivative(coeffs[f"qd{i}"]) - dxi * Poly.var(jv, f"qdd{i}")
    return VectorField.of(jv, coeffs)


def determining_residuals(u: VectorField) -> tuple[Poly, Poly, Poly]:
    """Act with the second prolongation on the Euler-Lagrange equations
    qdd_i = A_i(q, qd) and substitute the accelerations; the field is a
    symmetry iff all three residuals vanish identically in (t, q, qd).

    The A_i are the acceleration components of ``model.rhs_symbolic(EL6)``.
    """
    jv = jet_vars(u.vars)
    pr = prolong(u, 2)
    el6 = model.rhs_symbolic(SystemId.EL6)[3:]
    acc = {f"qdd{i}": a.rename(jv) for i, a in enumerate(el6, start=1)}
    return tuple(
        lie_derivative(pr, Poly.var(jv, name) - a).substitute(acc) for name, a in acc.items()
    )


# ---------------------------------------------------------------------------
# The symmetry family and its basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def symbolic_family_field() -> VectorField:
    """The family with the four parameters as extra symbolic variables.

    This is the one statement of the family's formula; the members are
    obtained by binding the parameters (:func:`_bind_family`).
    """
    vs = BASE_VARS_P
    t, q1, q2, q3 = (Poly.var(vs, n) for n in BASE_NAMES)
    al, be, ga, de = (Poly.var(vs, n) for n in PARAM_NAMES)
    return JetVectorField(
        xi=-al * t + be,
        eta=(al * q1 + ga * q2, -ga * q1 + al * q2, al * q3 + de),
    )


def _bind_family(params: Sequence[Poly]) -> VectorField:
    """The family member with (alpha, beta, gamma, delta) bound to the given
    polynomials, over their VarSet, which must start with (t, q1, q2, q3)."""
    bindings = dict(zip(PARAM_NAMES, params))
    xi, *eta = (symbolic_family_field()[n].substitute(bindings) for n in BASE_NAMES)
    return JetVectorField(xi, eta)


def family_field(
    alpha: Coeff = 0, beta: Coeff = 0, gamma: Coeff = 0, delta: Coeff = 0
) -> VectorField:
    """The four-parameter symmetry field with rational parameter values."""
    return _bind_family([Poly.const(BASE_VARS, c) for c in (alpha, beta, gamma, delta)])


@lru_cache(maxsize=None)
def symmetry_basis() -> tuple[VectorField, ...]:
    """The four basis symmetries: scaling, time translation, q3 translation,
    rotation in the (q1, q2) plane."""
    return (
        family_field(alpha=1),
        family_field(beta=1),
        family_field(delta=1),
        family_field(gamma=1),
    )


def flip_family_coefficient(u: VectorField, slot: str, var: str) -> VectorField:
    """Mutation helper: negate every term of one coefficient that contains
    the named base variable.

    ``slot`` is one of :data:`SYMMETRY_SLOTS`.  Used to confirm that the
    determining-equation certificates actually notice a wrong coefficient.
    """
    name = SYMMETRY_SLOTS[slot]
    comp = u[name]
    i = comp.vars.index(var)
    mutated = Poly(comp.vars, {e: (-c if e[i] else c) for e, c in comp.terms.items()})
    return VectorField.of(u.vars, {**u, name: mutated})


def _monomials(max_degree: int) -> list[tuple[int, int, int, int]]:
    monos = [
        e
        for e in itertools.product(range(max_degree + 1), repeat=4)
        if sum(e) <= max_degree
    ]
    monos.sort(key=lambda e: (sum(e), e))
    return monos


def _order(*vs: int) -> tuple[int, ...]:
    """The orders in (t, q1, q2, q3) of the partial derivative by the base
    variables with the given indices."""
    return tuple(vs.count(w) for w in range(4))


# The partial derivatives of an ansatz monomial m that its residuals read:
# m itself, its first derivatives and its second derivatives.
_ORDERS = tuple(
    _order(*vs) for n in range(3) for vs in itertools.combinations_with_replacement(range(4), n)
)
# One jet symbol per order, named by the variables it differentiates by:
# "m", "m_t", ..., "m_q3_q3".  :func:`_jet_shift` gives them the chain rule.
_JET = MappingProxyType({
    o: "_".join(["m", *(n for n, k in zip(BASE_NAMES, o) for _ in range(k))]) for o in _ORDERS
})


@lru_cache(maxsize=None)
def _unit_residual_pieces() -> tuple[tuple[Mapping[tuple[int, ...], Poly], ...], ...]:
    """The residual R_i of the unit field with monomial m in slot xi, eta1,
    eta2 or eta3, as ``pieces[slot][i] = {order: F}``: R_i is the sum of
    (d m) F over the partial derivatives d of m of the given orders (see the
    module docstring).  No F depends on m.

    Each R_i is :func:`determining_residuals` of the field with the generic
    m in the slot: over (t, q) plus the jet symbols of :data:`_JET` as
    parameters, which the total derivative differentiates by the chain
    rule.  R_i is linear in the symbols, so F is R_i's derivative by one."""
    vs = VarSet(*BASE_NAMES, *_JET.values())
    m, jv = Poly.var(vs, _JET[_order()]), jet_vars(BASE_VARS)
    return tuple(
        tuple(
            MappingProxyType({
                o: f for o, name in _JET.items() if not (f := r.diff(name).rename(jv)).is_zero
            })
            for r in determining_residuals(VectorField.of(vs, {slot: m}))
        )
        for slot in BASE_NAMES
    )


def _determining_rows(monos: Sequence[tuple[int, int, int, int]]) -> list[dict[int, Coeff]]:
    """The determining matrix of the ansatz over ``monos`` as sparse rows,
    one per (equation, jet monomial) in sorted order; column
    ``slot * len(monos) + j`` is monomial j in slot xi, eta1, eta2, eta3.

    Each column is written straight into the rows: a derivative of a
    monomial is an integer times a lower monomial, so its product with a
    piece F is F's terms with shifted exponents.  A row key (i, e) is packed
    into one int, the digits i, e_1, ..., e_n in a base above every exponent
    that can occur, so that int order is tuple order and adding packed
    exponents adds them."""
    pieces = _unit_residual_pieces()
    nvars = len(jet_vars(BASE_VARS))
    top = max((sum(m) for m in monos), default=0)
    base = top + max(p.total_degree() for s in pieces for r in s for p in r.values()) + 1
    weights = [base ** (nvars - 1 - v) for v in range(4)]

    def pack(i: int, e: tuple[int, ...]) -> int:
        key = i
        for k in e:
            key = key * base + k
        return key

    # per slot, per derivative order: the (packed key, coefficient) of F's terms
    packed = [
        [
            [(pack(i, e), c) for i, r in enumerate(slot) if o in r for e, c in r[o].terms.items()]
            for o in _ORDERS
        ]
        for slot in pieces
    ]
    # per monomial: (order index, integer factor, packed shift) of each
    # derivative that is not zero
    tables = []
    for m in monos:
        table = []
        for n, o in enumerate(_ORDERS):
            c = math.prod(map(math.perm, m, o))
            if c:
                table.append((n, c, sum((a - k) * w for a, k, w in zip(m, o, weights))))
        tables.append(table)
    rows: dict[int, dict[int, Coeff]] = {}
    for j, (slot, table) in enumerate(itertools.product(packed, tables)):
        col: dict[int, Coeff] = {}
        for n, c, shift in table:
            for key, f in slot[n]:
                key += shift
                col[key] = col.get(key, 0) + c * f
        for key, v in col.items():
            if v:
                rows.setdefault(key, {})[j] = _coeff(v)
    return [rows[key] for key in sorted(rows)]


def solve_determining(max_degree: int) -> list[VectorField]:
    """Exact nullspace of the determining equations for a polynomial ansatz
    of total degree <= max_degree in (t, q).

    Coefficients of each independent jet monomial give one homogeneous linear
    equation per monomial; the returned basis is deterministic.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    monos = _monomials(max_degree)
    n = len(monos)
    fields = []
    for vec in _nullspace(_determining_rows(monos), 4 * n):
        comps = (Poly(BASE_VARS, dict(zip(monos, vec[s * n : (s + 1) * n]))) for s in range(4))
        fields.append(VectorField(BASE_VARS, tuple(comps)))
    return fields


def spans_match(fields: Sequence[VectorField], reference: Sequence[VectorField]) -> bool:
    """Whether two families of point fields span the same linear space."""
    a, b, ab = (
        len(us) - len(kernel([u.components for u in us]))
        for us in (fields, reference, [*fields, *reference])
    )
    return a == b == ab


# ---------------------------------------------------------------------------
# Variational symmetries and Noether charges
# ---------------------------------------------------------------------------


def variational_residual(u: VectorField) -> Poly:
    """pr1(u) L + L D_t(xi); zero iff u is a variational symmetry."""
    pr = prolong(u, 1)
    lag = model.invariant_symbolic(InvariantId.L).rename(pr.vars)
    return lie_derivative(pr, lag) + lag * total_derivative(pr["t"])


@dataclass(frozen=True)
class NoetherCharge:
    """A conserved quantity on (q, p) with its symbolic conservation check."""

    poly: Poly
    conservation_residual: Poly


def noether_charge(u: VectorField) -> NoetherCharge:
    """Noether's charge Q = xi L + sum_i (eta_i - xi qd_i) dL/dqd_i of a
    t-free point field (Olver, *Applications of Lie Groups to Differential
    Equations*, ch. 4; the gauge term is zero), carried to (q, p) by the
    inverse Legendre map, over (q, p) plus the field's parameters.  Its
    conservation residual is taken along ham6."""
    if any("t" in u[n].occurring() for n in BASE_NAMES):
        raise ValueError("t occurs in the field; only t-free fields have a charge on (q, p)")
    params = u.vars.names[4:]
    tangent, vars = VarSet(*model.VARST6.names, *params), VarSet(*model.VARS6.names, *params)
    lag = model.invariant_symbolic(InvariantId.L).rename(tangent)
    xi, *eta = (u[n].rename(tangent) for n in BASE_NAMES)
    qd = {f"qd{i}": e - xi * Poly.var(tangent, f"qd{i}") for i, e in enumerate(eta, start=1)}
    charge = xi * lag + lie_derivative(qd, lag)
    inverse = zip(model.VARST6.names, model.legendre_inverse_symbolic())
    charge = charge.substitute({name: c.rename(vars) for name, c in inverse})
    ham6 = zip(model.VARS6.names, model.rhs_symbolic(SystemId.HAM6))
    field = {name: f.rename(vars) for name, f in ham6}
    return NoetherCharge(poly=charge, conservation_residual=lie_derivative(field, charge))


def noether_charge_symbolic(family: VectorField | None = None) -> NoetherCharge:
    """The charge of the alpha = 0 members of ``family`` (by default the
    symmetry family), the variational ones, with (beta, gamma, delta) symbolic."""
    family = family or symbolic_family_field()
    xi, *eta = (family[n].substitute({"alpha": 0}) for n in BASE_NAMES)
    return noether_charge(JetVectorField(xi, eta))


# ---------------------------------------------------------------------------
# Push-forwards onto the cotangent side and the 5D system
# ---------------------------------------------------------------------------


def extract_family_params(u: VectorField) -> tuple[Poly, Poly, Poly, Poly]:
    """Recover (alpha, beta, gamma, delta) from a field of the family form.

    The coefficients may be polynomials in parameter variables but must be
    free of (t, q); raises NotInSymmetryFamily otherwise.
    """
    vars = u.vars
    alpha = -u["t"].diff("t")
    beta = u["t"] + alpha * Poly.var(vars, "t")
    gamma = u["q1"].diff("q2")
    delta = u["q3"] - alpha * Poly.var(vars, "q3")
    if any(p.occurring().intersection(BASE_NAMES) for p in (alpha, beta, gamma, delta)):
        raise NotInSymmetryFamily("coefficients are not constant/parameter valued")
    if u != _bind_family((alpha, beta, gamma, delta)):
        raise NotInSymmetryFamily("field does not match the four-parameter form")
    return alpha, beta, gamma, delta


def pushforward(u: VectorField) -> tuple[VectorField, VectorField]:
    """Transport a family field along the Legendre map to (t, q, p), and that
    image further along Phi onto the extended 5D space: (cotangent, x5).

    Restricted to the four-parameter family: projectability onto the 5D
    space is not guaranteed outside it.
    """
    extract_family_params(u)  # membership check
    params = u.vars.names[4:]
    cotangent = _push(
        prolong(u, 1),
        dict(zip(model.VARS6.names, model.legendre_symbolic())),
        dict(zip(model.VARST6.names, model.legendre_inverse_symbolic())),
        VarSet("t", *model.VARS6.names, *params),
    )
    return cotangent, _push(
        cotangent,
        dict(zip(model.VARS5.names, model.phi_symbolic())),
        model.phi_section_symbolic(),
        VarSet(*X5_NAMES, *params),
    )


def _push(
    field: VectorField,
    image: Mapping[str, Poly],
    inverse: Mapping[str, Poly],
    target: VarSet,
) -> VectorField:
    """Push a field forward along a map given by its components.

    ``image`` gives target coordinates as polynomials in source coordinates
    and ``inverse`` gives source coordinates back as polynomials in target
    coordinates, both by name over their own VarSets.  Component n of the
    result is field(image[n]) rewritten in the target variables; variables
    that ``image`` does not name (t and the parameters) are held fixed, so
    their components carry over.  A component that still depends on a
    source variable that ``inverse`` does not express raises
    NotInSymmetryFamily: the field does not project onto the target.
    """
    inverse = {name: p.rename(target) for name, p in inverse.items()}
    expressed = inverse.keys() | set(target.names)
    pushed = []
    for name in target.names:
        if name in image:
            comp = lie_derivative(field, image[name].rename(field.vars))
        else:
            comp = field[name]
        stuck = comp.occurring() - expressed
        if stuck:
            raise NotInSymmetryFamily(
                f"field does not project: {', '.join(sorted(stuck))} survives transport"
            )
        pushed.append(comp.substitute(inverse))
    return VectorField(target, tuple(pushed))


# ---------------------------------------------------------------------------
# Symmetries of the first-order 5D system
# ---------------------------------------------------------------------------


def _dynamics_field(vars: VarSet) -> VectorField:
    """The extended autonomous field d/dt + sum F_i d/dx_i on (t, x)."""
    rhs = [f.rename(vars) for f in model.rhs_symbolic(SystemId.MB5)]
    return VectorField.of(vars, {"t": Poly.const(vars, 1), **dict(zip(model.VARS5.names, rhs))})


@dataclass(frozen=True)
class DynamicsCommutatorRecord:
    """[X, V] of a field X on (t, x) with the dynamics V = d/dt + F_j d/dx_j.
    X maps solutions to solutions iff [X, V] = [X, V]_t V: every residual is 0."""

    commutator: VectorField  # [X, V]
    residuals: tuple[Poly, ...]  # V_k [X, V]_t - [X, V]_k, per state coordinate
    double_commutator_zero: bool  # [[X, V], V] = 0

    @property
    def factor(self) -> Poly | None:
        """The constant c with [X, V] = c V (conformal), else None."""
        c = self.commutator["t"]
        if c.occurring().isdisjoint(X5_NAMES) and all(r.is_zero for r in self.residuals):
            return c
        return None

    @property
    def is_symmetry(self) -> bool:  # [X, V] = 0
        return self.commutator.is_zero

    @property
    def is_master(self) -> bool:  # [X, V] != 0 and [[X, V], V] = 0
        return not self.is_symmetry and self.double_commutator_zero


def dynamics_commutator(x: VectorField) -> DynamicsCommutatorRecord:
    """Compute [X, V] and classify: symmetry, conformal, master."""
    dyn = _dynamics_field(x.vars)
    comm = lie_bracket_fields(x, dyn)
    residuals = tuple(dyn[name] * comm["t"] - comm[name] for name in model.VARS5.names)
    return DynamicsCommutatorRecord(comm, residuals, lie_bracket_fields(comm, dyn).is_zero)
