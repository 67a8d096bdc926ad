"""What only tests use: numeric estimates over the integrators' run loops,
and the midpoint step those loops take, as an array step; the exact core's
products, Jacobi sums and elimination as they were computed before they
shared one product and one set of coordinate fields, and before integer
pivots, to compare the new ones against term for term, in dict order; and
the two term renderers, ``str`` and the generated source, as each wrote its
terms before they shared one loop."""

import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np

from mbrwa import integrators, model, poisson, polyring
from mbrwa.integrators import IntegratorId, _drive, _state, integrate, midpoint_step_field
from mbrwa.model import VARS5, SystemId
from mbrwa.polyring import Poly, VarSetMismatch, _coeff


# The unknowns of each system's midpoint Newton solve, in the order of the
# solve: the variables that some rate reads and whose own rate is not zero,
# each followed by the variable that its rate is, when it is one.  ham6 leaves
# out p3, whose rate is zero, and q3, which no rate reads; el6 leaves out q3,
# and its order is pi's, the order of mb5's
NEWTON_UNKNOWNS = {SystemId.MB5: ("x1", "y1", "x2", "y2", "z"),
                   SystemId.HAM6: ("q1", "p1", "q2", "p2"),
                   SystemId.EL6: ("q1", "qd1", "q2", "qd2", "qd3")}


def newton_field(system: SystemId, mid) -> tuple:
    """The compiled rhs and Jacobian of ``system`` over ``NEWTON_UNKNOWNS``:
    functions of the unknowns' values, with every other variable at its
    entry of the array ``mid``."""
    names = model.system_vars(system).names
    u = [names.index(v) for v in NEWTON_UNKNOWNS[system]]
    f, jac = model.rhs_compiled(system), model.rhs_jacobian_compiled(system)

    def at(y):
        full = np.array(mid, dtype=float)
        full[u] = y
        return full

    return lambda y: f(at(y))[u], lambda y: jac(at(y))[np.ix_(u, u)]


def midpoint_step(system: SystemId, s, t: float, h: float) -> np.ndarray:
    """One step of ``system``'s midpoint run loop as an array step:
    ``midpoint_step_field`` over ``NEWTON_UNKNOWNS``, from its explicit
    midpoint predictor, with each variable of zero rate at ``s + h*0.0``
    and each other variable given the quadrature ``s + h*f(m)`` at the
    accepted midpoint m.  Both predictor stages read a zero-rate variable at
    its midpoint, which is its value for a finite nonzero one.  All nan if
    the step blows up."""
    names, f = model.system_vars(system).names, model.rhs_compiled(system)
    u = [names.index(v) for v in NEWTON_UNKNOWNS[system]]
    zero = [i for i, p in enumerate(model.rhs_symbolic(system)) if p.is_zero]
    quadrature = [i for i in range(len(names)) if i not in u and i not in zero]
    s = np.array(s, dtype=float)
    new = s.copy()
    new[zero] = s[zero] + h * 0.0
    with np.errstate(all="ignore"):
        new[u] = midpoint_step_field(*newton_field(system, 0.5 * (s + new)), s[u], t, h)
        new[quadrature] = s[quadrature] + h * f(0.5 * (s + new))[quadrature]
    return new if np.isfinite(new).all() else np.full(len(s), math.nan)


def newton_iterations(system: SystemId, init, t_end: float, h: float) -> tuple:
    """The state that ``system``'s midpoint run loop reaches from ``init``
    over [0, t_end], and a Counter of the Newton iterations of its steps: the
    loop's text with one increment at acceptance, compiled in its namespace."""
    run = integrators._compile_run(IntegratorId.IMPLICIT_MIDPOINT, system, "none")
    text, iterations = run.source, Counter()
    accept = re.search(r"^( *)if update_norm <= .*\n", text, re.M)
    counted = f"{text[:accept.end()]}{accept[1]}    iterations[_ + 1] += 1\n{text[accept.end():]}"
    counting = model._compile(counted, "_run", **run.__wrapped__.__globals__, iterations=iterations)
    s = _state(system, init)
    with np.errstate(all="ignore"):
        for segment in integrators._segments(0.0, t_end, h):
            s = counting(*s, *segment)
    return s, iterations


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


def poisson_bracket(f: Poly, g: Poly, pi) -> Poly:
    """{f, g} = (grad f)^T pi (grad g) by its definition: f differentiated
    along the Hamiltonian field of g, built for this one bracket."""
    if f.vars != VARS5 or g.vars != VARS5:
        raise ValueError("poisson_bracket arguments must live over the 5D phase space")
    return polyring.lie_derivative(dict(zip(VARS5.names, poisson.ham_vector_field(pi, g))), f)


def jacobi_residual(i: int, j: int, k: int, pi) -> Poly:
    """The cyclic Jacobi sum of u_i, u_j, u_k (1-based) bracket by bracket:
    each ``poisson_bracket`` builds the Hamiltonian field of its second
    argument again."""
    ui, uj, uk = (Poly.variables(VARS5)[n - 1] for n in (i, j, k))
    bracket = poisson_bracket
    return (bracket(bracket(ui, uj, pi), uk, pi) + bracket(bracket(uj, uk, pi), ui, pi)
            + bracket(bracket(uk, ui, pi), uj, pi))


def rref(rows: list, ncols: int) -> list:
    """``polyring._rref`` as it scaled every pivot other than 1 by
    ``Fraction(1) / p``: Markowitz pivots, rows in place, pivot columns
    returned."""
    where = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for k in row:
            where[k].add(i)
    is_pivot = [False] * len(rows)
    pivots, order = [], []
    for c in range(ncols):
        free = [(len(rows[i]), i) for i in where[c] if not is_pivot[i]]
        if not free:
            continue
        r = min(free)[1]
        pivot = rows[r]
        p = pivot[c]
        if p != 1:
            inv = Fraction(1) / p
            pivot = rows[r] = {k: _coeff(v * inv) for k, v in pivot.items()}
        for i in where[c] - {r}:
            row = rows[i]
            f = row[c]
            for k, v in pivot.items():
                old = row.get(k, 0)
                x = old - f * v
                if x:
                    row[k] = _coeff(x)
                    if not old:
                        where[k].add(i)
                else:
                    del row[k]
                    where[k].remove(i)
        is_pivot[r] = True
        pivots.append(c)
        order.append(r)
    rows[:] = [rows[i] for i in order] + [row for i, row in enumerate(rows) if not is_pivot[i]]
    return pivots


def poly_str(p: Poly) -> str:
    """``str(p)`` as ``Poly.__str__`` wrote it before it shared one term
    loop with the generated sources."""
    if not p.terms:
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        factors = []
        for name, k in zip(p.vars.names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mono = "*".join(factors)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    s = parts[0]
    for q in parts[1:]:
        s += f" - {q[1:]}" if q.startswith("-") else f" + {q}"
    return s


def poly_source(p: Poly, names) -> str:
    """``model._poly_source(p, names)`` as it wrote the terms itself, before
    it shared one term loop with ``Poly.__str__``."""
    if p.is_zero:
        return "0.0"
    text = ""
    for e, c in p.sorted_terms():
        factors = [name if k == 1 else f"{name}**{k}" for name, k in zip(names, e) if k]
        if abs(c) != 1 or not factors:
            factors.insert(0, repr(float(abs(c))))
        text += (" - " if c < 0 else " + ") if text else ("-" if c < 0 else "")
        text += "*".join(factors)
    return f"({text})"
