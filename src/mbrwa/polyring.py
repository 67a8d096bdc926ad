"""Exact multivariate polynomial arithmetic over the rationals.

Everything symbolic in this package reduces to "this polynomial is
identically zero", so coefficients are exact rationals and polynomials are
kept in canonical form: structural equality is mathematical equality.  A
coefficient is stored as an ``int`` when it is integral and as a
:class:`fractions.Fraction` only when its denominator is not 1.  Almost every
coefficient here is an integer, and int arithmetic is several times cheaper
than Fraction arithmetic; since ``1 == Fraction(1)`` and the two hash alike,
the mixed storage leaves equality, hashing and ``str`` unchanged.

Polynomials live over a fixed, ordered :class:`VarSet`; exponent vectors are
dense tuples of the same length as the variable list.  The polynomials in
this project are tiny (at most 19 variables, a few hundred terms), so
:class:`Poly` attempts no sparse cleverness.

Arithmetic only combines polynomials over one VarSet.  One product on term
dicts, ``_mul_into``, serves ``*``, ``**``, :meth:`Poly.substitute` (the one
composition, which may move a polynomial onto another VarSet; unbound
variables carry over by name) and :func:`lie_derivative`, the derivative
along a vector field; each keeps the terms, in the dict order that
``Poly.eval`` sums floats in, of a Poly made per product.

The exact linear algebra has one way in, :func:`kernel`: the vanishing
combinations of images (tuples of Polys or exact scalars), over one sparse
row per (position, monomial) that occurs, with no degree cap.
:func:`solve_nullspace` and :func:`matrix_rank` derive from it (a row
list's images are its columns); only the symmetry solver writes its packed
rows straight into :func:`_nullspace`.  Rows are
eliminated sparse, indexed by column and pivoting on the sparsest row
(Markowitz's rule): the determining equations are about 1% nonzero.
Entries and results follow the coefficient rule above.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import add
from typing import Callable, Mapping, Sequence, Union

# An exact coefficient: an int when integral, a Fraction (denominator not 1)
# otherwise.  Inputs may be any int or Fraction; stored values are canonical.
Coeff = Union[int, Fraction]


class VarSet:
    """An ordered, immutable set of variable names.

    The order is fixed for the lifetime of every polynomial built over it;
    exponent vectors index into this order.
    """

    __slots__ = ("names", "_index")

    def __init__(self, *names: str):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        self.names: tuple[str, ...] = tuple(names)
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}; have {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet{self.names!r}"


class VarSetMismatch(ValueError):
    """Raised when combining polynomials over different variable sets."""


def _coeff(c: Coeff) -> Coeff:
    """``c`` in canonical form: an int if integral, else a Fraction whose
    denominator is not 1.  Takes an int (a bool too) or a Fraction; anything
    else, a float in particular, is a TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _mul_into(total: dict, t1: Mapping, t2: Mapping) -> dict:
    """Add the product of the term dicts ``t1`` and ``t2`` to ``total`` in
    place and return it, as if the product were a :class:`Poly` whose terms
    were added in order: a monomial the product brings in and cancels
    within itself is dropped again.  ``Poly._made`` makes values canonical."""
    start, get = len(total), total.get
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            total[e] = get(e, 0) + c1 * c2
    new = len(total) - start
    if not all(islice(reversed(total.values()), new)):  # a new monomial cancelled
        for e in [e for e in islice(reversed(total), new) if not total[e]]:
            del total[e]
    return total


def _diff_terms(terms: Mapping, i: int) -> dict:
    """The term dict of the partial derivative along variable ``i``: each
    term keeps its place, and none cancels, as no two share an image."""
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in terms.items() if e[i]}


class Poly:
    """A multivariate polynomial with exact rational coefficients.

    Immutable; all operations return new instances in canonical form: no
    stored zero coefficients, and each coefficient an ``int`` when integral,
    a ``Fraction`` otherwise.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Mapping[tuple[int, ...], Coeff]):
        n = len(vars)
        clean: dict[tuple[int, ...], Coeff] = {}
        for exps, c in terms.items():
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has wrong length for {vars}")
            c = _coeff(c)
            if c:
                clean[tuple(exps)] = c
        self.vars = vars
        self.terms = clean

    @classmethod
    def _made(cls, vars: VarSet, terms: Mapping[tuple[int, ...], Coeff]) -> "Poly":
        """A result of this module's own operations, whose exponent vectors
        are tuples of the right length already: only the zeros are dropped
        and the coefficients made canonical (a Fraction product may come out
        integral).  Outside input goes through ``__init__``."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = {e: c if type(c) is int else _coeff(c) for e, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: VarSet) -> "Poly":
        return Poly(vars, {})

    @staticmethod
    def const(vars: VarSet, c: Coeff) -> "Poly":
        return Poly(vars, {(0,) * len(vars): c})

    @staticmethod
    def var(vars: VarSet, name: str) -> "Poly":
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return Poly(vars, {tuple(exps): 1})

    @staticmethod
    def variables(vars: VarSet) -> tuple["Poly", ...]:
        """All variables of ``vars``, in order, as polynomials."""
        return tuple(Poly.var(vars, n) for n in vars.names)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def occurring(self) -> set[str]:
        """The names of the variables that occur in this polynomial, that
        is, with a nonzero exponent in some term."""
        return {self.vars.names[i] for e in self.terms for i, k in enumerate(e) if k}

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.vars is not other.vars and self.vars != other.vars:
            raise VarSetMismatch(f"cannot mix {self.vars} and {other.vars}")

    def _coerce(self, other: Union["Poly", Coeff]) -> "Poly":
        if isinstance(other, Poly):
            self._check(other)
            return other
        return Poly.const(self.vars, other)

    def __add__(self, other: Union["Poly", Coeff]) -> "Poly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly._made(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._made(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Coeff]) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Coeff) -> "Poly":
        return (-self) + other

    def __mul__(self, other: Union["Poly", Coeff]) -> "Poly":
        return Poly._made(self.vars, _mul_into({}, self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        terms = {(0,) * len(self.vars): 1}
        for _ in range(n):
            terms = _mul_into({}, terms, self.terms)
        return Poly._made(self.vars, terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as its value
        if self.total_degree() <= 0:
            return hash(self.coefficient((0,) * len(self.vars)))
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Poly":
        """Exact partial derivative with respect to ``name``."""
        return Poly._made(self.vars, _diff_terms(self.terms, self.vars.index(name)))

    def substitute(self, bindings: Mapping[str, Union["Poly", Coeff]]) -> "Poly":
        """Simultaneous substitution of polynomials for variables.

        This is the one composition in the package.  The bound polynomials
        must share one VarSet and the result lives over it; a variable that
        is not bound carries over to that VarSet by name, so it must exist
        there.  Constants may be bound as well; with no polynomial bound the
        result stays over this polynomial's VarSet.
        """
        if not bindings:
            return self
        target = None
        for p in bindings.values():
            if isinstance(p, Poly):
                if target is not None and p.vars != target:
                    raise VarSetMismatch(f"bound polynomials mix {target} and {p.vars}")
                target = p.vars
        if target is None:
            target = self.vars
        repl: dict[int, Poly] = {
            self.vars.index(name): p if isinstance(p, Poly) else Poly.const(target, p)
            for name, p in bindings.items()
        }
        # where each unbound variable that occurs lands in the target
        occurring = self.occurring()
        carry = {
            i: target.index(name)
            for i, name in enumerate(self.vars.names)
            if i not in repl and name in occurring
        }
        powers: dict[tuple[int, int], dict] = {}
        total: dict[tuple[int, ...], Coeff] = {}
        one = {(0,) * len(target): 1}
        for e, c in self.terms.items():
            mono = [0] * len(target)
            factors = []
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if i in repl:
                    if (i, k) not in powers:
                        powers[(i, k)] = (repl[i] ** k).terms
                    factors.append(powers[(i, k)])
                else:
                    mono[carry[i]] += k
            term = {tuple(mono): c}
            *factors, last = factors or [one]
            for f in factors:
                term = _mul_into({}, term, f)
            _mul_into(total, term, last)
        return Poly._made(target, total)

    def eval(self, point: Mapping[str, Union[Coeff, float]]):
        """Evaluate at a point binding every variable.

        Exact (Fraction) for rational points, IEEE double if any binding
        is a float, a zero or constant polynomial included.
        """
        values = []
        for name in self.vars.names:
            if name not in point:
                raise KeyError(f"unbound variable {name!r}")
            values.append(point[name])
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term = term * v**k
            total = total + term
        return float(total) if any(isinstance(v, float) for v in values) else total

    def rename(self, target: VarSet) -> "Poly":
        """Transport this polynomial to another VarSet by variable name.

        Every variable that occurs must exist in ``target``.
        """
        terms: dict[tuple[int, ...], Coeff] = {}
        for e, c in self.terms.items():
            e2 = [0] * len(target)
            for i, k in enumerate(e):
                if k:
                    e2[target.index(self.vars.names[i])] += k
            key = tuple(e2)
            terms[key] = terms.get(key, 0) + c
        return Poly._made(target, terms)

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """Terms in graded-lexicographic order (high degree first)."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __str__(self) -> str:
        return _terms_text(self, self.vars.names, "^", str) or "0"

    def __repr__(self) -> str:
        return f"Poly({self})"


def _terms_text(p: Poly, names: Sequence[str], power: str, coeff: Callable) -> str:
    """The one term loop of ``str`` and the generated sources: ``p``'s terms,
    sorted, with variables ``names``, powers ``name{power}k`` and
    coefficients ``coeff(abs(c))``; a coefficient of +-1 is dropped before a
    factor and a negative term is subtracted.  ``""`` for the zero Poly."""
    text = ""
    for e, c in p.sorted_terms():
        factors = [name if k == 1 else f"{name}{power}{k}" for name, k in zip(names, e) if k]
        if abs(c) != 1 or not factors:
            factors.insert(0, coeff(abs(c)))
        text += (" - " if c < 0 else " + ") if text else ("-" if c < 0 else "")
        text += "*".join(factors)
    return text


def lie_derivative(field: Mapping[str, Poly], f: Poly) -> Poly:
    """The derivative of ``f`` along the vector field sum_v field[v] d/dv.

    Every nonzero component must share ``f``'s VarSet; variables the field
    does not name have a zero component.
    """
    total: dict[tuple[int, ...], Coeff] = {}
    for name, comp in field.items():
        if comp.is_zero:
            continue
        f._check(comp)
        if df := _diff_terms(f.terms, f.vars.index(name)):
            _mul_into(total, comp.terms, df)
    return Poly._made(f.vars, total)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _rref(rows: list[dict[int, Coeff]], ncols: int) -> list[int]:
    """Bring sparse rows to reduced row echelon form in place; returns the
    pivot columns, with pivot ``r`` in ``rows[r]`` and the emptied rows after.

    One Gauss-Jordan pass over the columns in order, driven by an index
    ``where[k]`` of the rows with an entry in column ``k``, kept up to date
    as entries fill in and cancel.  Each column pivots on the sparsest row
    that has an entry there and is no pivot yet (Markowitz's rule; ties go
    to the lower row index), and eliminates only the rows its index lists.
    A matrix has exactly one RREF, so the pivot rule changes only the cost.

    Entries stay canonical: a pivot of 1 needs no scaling, one that divides
    every entry of its row (an int pivot, almost always) divides them with
    ``//``, which gives ints, any other is inverted as ``Fraction(1) / p``
    (``1 / p`` would make an int pivot a float), and an entry that comes out
    integral is stored as an int.  Either way the scaled row is the same."""
    where: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for k in row:
            where[k].add(i)
    is_pivot = [False] * len(rows)
    pivots: list[int] = []
    order: list[int] = []
    for c in range(ncols):
        free = [(len(rows[i]), i) for i in where[c] if not is_pivot[i]]
        if not free:
            continue
        r = min(free)[1]
        pivot = rows[r]
        p = pivot[c]
        if p != 1:
            if all(not v % p for v in pivot.values()):  # each quotient an int
                pivot = rows[r] = {k: v // p for k, v in pivot.items()}
            else:
                inv = Fraction(1) / p
                pivot = rows[r] = {k: _coeff(v * inv) for k, v in pivot.items()}
        for i in where[c] - {r}:
            row = rows[i]
            f = row[c]
            for k, v in pivot.items():
                old = row.get(k, 0)
                x = old - f * v
                if x:  # _coeff(x), inlined in the hot loop
                    row[k] = x.numerator if type(x) is Fraction and x.denominator == 1 else x
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


def matrix_rank(matrix: Sequence[Sequence[Coeff]]) -> int:
    """The rank of a row list: its column count less its nullity."""
    return (len(matrix[0]) if matrix else 0) - len(solve_nullspace(matrix))


def solve_nullspace(matrix: Sequence[Sequence[Coeff]]) -> list[list[Coeff]]:
    """Exact rational basis of the solution space of ``A x = 0``, the
    :func:`kernel` of A's columns; an empty list for a trivial nullspace."""
    if len(widths := {len(row) for row in matrix}) > 1:
        raise ValueError(f"ragged matrix: row lengths {sorted(widths)}")
    return kernel(list(zip(*matrix)))


def _nullspace(rows: list[dict[int, Coeff]], ncols: int) -> list[list[Coeff]]:
    """The nullspace basis of sparse rows (as :func:`_rref` takes them, which
    eliminates them in place): one vector per free column, in column order,
    with a 1 at that column."""
    pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, p in enumerate(pivots):
            vec[p] = -rows[r].get(f, 0)
        basis.append(vec)
    return basis


def kernel(images: Sequence[Sequence[Union[Poly, Coeff]]]) -> list[list[Coeff]]:
    """The ``c`` with ``sum_j c[j] * images[j] == 0``, as :func:`_nullspace`
    gives them, over one row per (position, monomial) that occurs.  Each
    position holds only exact scalars or only Polys over one VarSet, else
    ValueError: a scalar 1 and ``Poly.const(1)`` would sit on different rows."""
    if len({len(x) for x in images}) > 1:
        raise ValueError("ragged images: their lengths differ")
    rows: dict[tuple, dict[int, Coeff]] = {}
    for pos, entries in enumerate(zip(*images)):
        polys = isinstance(entries[0], Poly)
        for j, x in enumerate(entries):
            if isinstance(x, Poly) != polys:
                raise ValueError(f"position {pos} mixes Polys and scalars")
            if polys:
                entries[0]._check(x)
                for e, c in x.terms.items():
                    rows.setdefault((pos, e), {})[j] = c
            elif c := _coeff(x):
                rows.setdefault((pos,), {})[j] = c
    return _nullspace(list(rows.values()), len(images))
