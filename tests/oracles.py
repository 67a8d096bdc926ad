"""What only tests use: numeric estimates over the integrators' run loops,
and the exact core's products and Jacobi sums as they were computed before
they shared one product and one set of coordinate fields, to compare the
new ones against term for term, in dict order."""

import math

import numpy as np

from mbrwa import poisson
from mbrwa.integrators import IntegratorId, _drive, _state, integrate
from mbrwa.model import VARS5, SystemId
from mbrwa.polyring import Poly, VarSetMismatch


def midpoint_roundtrip_error(system: SystemId, state, h: float) -> float:
    """Max-norm error of one implicit midpoint step forward then backward."""
    s0 = _state(system, state)
    back = _drive(IntegratorId.IMPLICIT_MIDPOINT, system, "none", s0,
                  [(0.0, h, 1, 2), (0.0, -h, 1, 2)])
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


def mul(p: Poly, q) -> Poly:
    """``p * q`` by the product as ``Poly.__mul__`` wrote it: each exponent
    tuple from a generator, the terms in the order they first occur."""
    q = p._coerce(q)
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return Poly._made(p.vars, terms)


def power(p: Poly, n: int) -> Poly:
    """``p ** n`` as n products :func:`mul` from 1."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = Poly.const(p.vars, 1)
    for _ in range(n):
        result = mul(result, p)
    return result


def substitute(p: Poly, bindings) -> Poly:
    """``p.substitute(bindings)`` through a Poly per term: each term's
    monomial, multiplied by :func:`mul` with its factor powers in variable
    order, then added into the total."""
    if not bindings:
        return p
    target = None
    for g in bindings.values():
        if isinstance(g, Poly):
            if target is not None and g.vars != target:
                raise VarSetMismatch(f"bound polynomials mix {target} and {g.vars}")
            target = g.vars
    target = target or p.vars
    repl = {p.vars.index(name): g if isinstance(g, Poly) else Poly.const(target, g)
            for name, g in bindings.items()}
    occurring = p.occurring()
    carry = {i: target.index(name) for i, name in enumerate(p.vars.names)
             if i not in repl and name in occurring}
    total: dict = {}
    for e, c in p.terms.items():
        mono, factors = [0] * len(target), []
        for i, k in enumerate(e):
            if k and i in repl:
                factors.append(power(repl[i], k))
            elif k:
                mono[carry[i]] += k
        term = Poly._made(target, {tuple(mono): c})
        for f in factors:
            term = mul(term, f)
        for m, v in term.terms.items():
            total[m] = total.get(m, 0) + v
    return Poly._made(target, total)


def lie_derivative(field, f: Poly) -> Poly:
    """The derivative of ``f`` along ``field``: each component's product
    with its partial of f made a Poly by :func:`mul`, then added into the
    total.  Every nonzero component must share f's VarSet."""
    total: dict = {}
    for name, comp in field.items():
        if comp.is_zero:
            continue
        f._check(comp)
        for e, c in mul(comp, f.diff(name)).terms.items():
            total[e] = total.get(e, 0) + c
    return Poly._made(f.vars, total)


def jacobi_residual(i: int, j: int, k: int, pi) -> Poly:
    """The cyclic Jacobi sum of u_i, u_j, u_k (1-based) bracket by bracket:
    each ``poisson_bracket`` builds the Hamiltonian field of its second
    argument again."""
    ui, uj, uk = (Poly.variables(VARS5)[n - 1] for n in (i, j, k))
    bracket = poisson.poisson_bracket
    return (bracket(bracket(ui, uj, pi), uk, pi) + bracket(bracket(uj, uk, pi), ui, pi)
            + bracket(bracket(uk, ui, pi), uj, pi))
