"""Lie-algebraic and Poisson-geometric structure of the 5D system.

The phase space carries a modified Lie-Poisson tensor: the linear part is
read off the brackets of the five-dimensional nilpotent matrix algebra
``E_BASIS`` (its commutator table, completed antisymmetrically), the constant
part is a 2-cocycle that is not a coboundary.  Both are plain ``Matrix``
values, tuples of rows, and the coordinate map into the matrix algebra is
Phi(v) = sum_k v_k E_k.  Every structural claim (Jacobi identity, Casimir,
the Hamiltonian vector field reproducing the dynamics, the algebra
isomorphisms) is stated and computed here in exact polynomial arithmetic, as
residuals that vanish iff it holds; ``verify`` certifies it, naming and
reporting each check.

A bracket {f, g} is f differentiated along the Hamiltonian field
X_g = pi grad(g) (``ham_vector_field``), and each field is built once where
it is read more than once: the Jacobi check builds each coordinate field
X_k = pi grad(u_k) once per tensor, and verify's poisson suite X_H, X_C and
X_J once per request.  The pairwise coordinate relations are test
assertions, not definitions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Sequence

from .model import VARS5
from .polyring import Coeff, Poly, VarSet, kernel, lie_derivative

Matrix = tuple[tuple[Coeff, ...], ...]

DIM = 5


def _mat(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; entries may be exact scalars or Polys over one VarSet.

    A zero scalar factor is skipped, so 0/+-1 matrices multiply in ints.  A
    Poly is always truthy, so a product of Poly matrices sums every term and
    stays a Poly."""
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum((a[i][r] * b[r][j] for r in range(k) if a[i][r] and b[r][j]), 0)
              for j in range(m))
        for i in range(n)
    )


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


# The five-dimensional nilpotent algebra: [E2, E5] = E1, [E4, E5] = E3,
# all other basis brackets zero.  The Poisson tensor and the cocycle check
# read these brackets off the matrices; verify states them independently.
E_BASIS: tuple[Matrix, ...] = (
    _mat([[0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    _mat([[0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    _mat([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    _mat([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]),
    _mat([[0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
)

# Matrix realization of the symmetry algebra of the Euler-Lagrange system:
# [A1, A2] = A2, [A1, A3] = -A3, all other brackets zero.
A_BASIS: tuple[Matrix, ...] = (
    _mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]),
    _mat([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    _mat([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    _mat([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
)


def mb_cocycle() -> Matrix:
    """The constant brackets {u1,u2}=1, {u3,u4}=1 as a 2-cocycle matrix."""
    return _mat([[0, 1, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, -1, 0, 0], [0] * 5])


@lru_cache(maxsize=None)
def _e_bracket_constants() -> tuple[tuple[tuple[Coeff, ...], ...], ...]:
    """alpha[i][j]: the coordinates of [E_i, E_j] in ``E_BASIS`` (0-based),
    the commutator table completed antisymmetrically."""
    alpha = [[(0,) * DIM] * DIM for _ in range(DIM)]
    for (i, j), coeffs in matrix_commutator_table(E_BASIS).items():
        alpha[i - 1][j - 1] = coeffs
        alpha[j - 1][i - 1] = tuple(-c for c in coeffs)
    return tuple(map(tuple, alpha))


@lru_cache(maxsize=None)
def mb_poisson_tensor() -> Matrix:
    """Tensor with entries pi_ij = sum_k alpha[i][j][k] u_k + theta_ij, the
    linear part from the brackets of ``E_BASIS``, theta from the cocycle."""
    coords = Poly.variables(VARS5)
    alpha, theta = _e_bracket_constants(), mb_cocycle()
    return tuple(
        tuple(sum((c * u for c, u in zip(alpha[i][j], coords) if c),
                  Poly.const(VARS5, theta[i][j])) for j in range(DIM))
        for i in range(DIM)
    )


def flip_entry_sign(pi: Matrix, i: int, j: int, antisymmetric: bool = False) -> Matrix:
    """Mutation helper: flip the sign of entry (i, j), 1-based.

    With ``antisymmetric=True`` the partner entry (j, i) is flipped too, so
    the mutation survives the antisymmetry check and must be caught by the
    Jacobi / Casimir / vector-field certificates instead.  The result need
    not be antisymmetric; ``antisymmetry_residuals`` states that property.
    """
    if not (1 <= i <= DIM and 1 <= j <= DIM):  # index 0 would wrap to row DIM
        raise ValueError(f"entry ({i}, {j}): indices must be in 1..{DIM}")
    rows = [list(r) for r in pi]
    rows[i - 1][j - 1] = -pi[i - 1][j - 1]
    if antisymmetric and i != j:
        rows[j - 1][i - 1] = -pi[j - 1][i - 1]
    return _mat(rows)


# ---------------------------------------------------------------------------
# Brackets and residuals
# ---------------------------------------------------------------------------


def all_jacobi_residuals(pi: Matrix | None = None) -> dict[tuple[int, int, int], Poly]:
    """The cyclic Jacobi sum {{u_i, u_j}, u_k} + {{u_j, u_k}, u_i} +
    {{u_k, u_i}, u_j} of each coordinate triple i < j < k (1-based).  The
    bracket {f, u_k} is f differentiated along the coordinate field
    X_k = pi grad(u_k), and each of the five fields is built once."""
    pi = pi or mb_poisson_tensor()
    coords = Poly.variables(VARS5)
    fields = [dict(zip(VARS5.names, ham_vector_field(pi, u))) for u in coords]

    def bracket(f: Poly, k: int) -> Poly:  # {f, u_k}, 0-based k
        return lie_derivative(fields[k], f)

    return {
        (i + 1, j + 1, k + 1): bracket(bracket(coords[i], j), k)
        + bracket(bracket(coords[j], k), i)
        + bracket(bracket(coords[k], i), j)
        for i, j, k in itertools.combinations(range(DIM), 3)
    }


def ham_vector_field(pi: Matrix, h: Poly) -> tuple[Poly, ...]:
    """The vector field pi * grad(h), componentwise: row i of pi, read as a
    field, differentiates h."""
    return tuple(lie_derivative(dict(zip(VARS5.names, row)), h) for row in pi)


def antisymmetry_residuals(pi: Matrix) -> list[Poly]:
    """Entries of pi + pi^T; all zero iff the tensor is antisymmetric."""
    return [pi[i][j] + pi[j][i] for i in range(DIM) for j in range(i, DIM)]


# ---------------------------------------------------------------------------
# Matrix algebra checks
# ---------------------------------------------------------------------------


def coeffs_str(x) -> str:
    """A coefficient tuple, or a matrix as a tuple of them, as text like
    ``(0, -1, 1/2)``: each entry by its ``str``, so the text is the same
    whether an entry is stored as an int or a Fraction.  Anything else is
    its ``str``."""
    if isinstance(x, tuple):
        return f"({', '.join(map(coeffs_str, x))})"
    return str(x)


class CommutatorOutsideSpan(ValueError):
    """A basis commutator does not lie in the span of the basis."""

    def __init__(self, i: int, j: int, witness):
        self.indices = (i, j)
        self.witness = witness
        super().__init__(f"[B{i},B{j}] is outside the span of the basis: {coeffs_str(witness)}")


def structure_constants(
    basis: Sequence, bracket: Callable, coords: Callable[..., Sequence]
) -> dict[tuple[int, int], tuple[Coeff, ...]]:
    """Expand every bracket [B_i, B_j], i < j (1-based), in the basis.

    ``coords`` gives an element's coordinates, exact scalars or Polys.  One
    :func:`~mbrwa.polyring.kernel` of the basis and every bracket expands them
    all: a bracket's column is free, with its expansion negated in its kernel
    vector, until the first bracket outside the span, which raises
    :class:`CommutatorOutsideSpan` with the bracket as witness."""
    n, pairs = len(basis), list(itertools.combinations(range(len(basis)), 2))
    brackets = [bracket(basis[i], basis[j]) for i, j in pairs]
    vectors = kernel([*map(coords, basis), *map(coords, brackets)])
    free = {max(k for k, c in enumerate(v) if c): v for v in vectors}  # by its last nonzero
    table = {}
    for col, ((i, j), w) in enumerate(zip(pairs, brackets), n):
        if col not in free:
            raise CommutatorOutsideSpan(i + 1, j + 1, w)
        table[(i + 1, j + 1)] = tuple(-c for c in free[col][:n])
    return table


def _flatten_matrix(m: Matrix) -> list[Coeff]:
    return [c for row in m for c in row]


def matrix_commutator_table(basis: Sequence[Matrix]) -> dict[tuple[int, int], tuple[Coeff, ...]]:
    """Expand every [B_i, B_j], i < j (1-based), over the matrix entries."""
    return structure_constants(basis, commutator, _flatten_matrix)


def _phi_matrix(v: Sequence[Poly], vars: VarSet) -> Matrix:
    """Phi(v) = sum_k v_k E_k, each v_k placed at its E_k's one nonzero entry."""
    rows = [[Poly.zero(vars)] * len(E_BASIS[0]) for _ in E_BASIS[0]]
    for vk, e in zip(v, E_BASIS):
        (r, c, x), = ((r, c, x) for r, row in enumerate(e) for c, x in enumerate(row) if x)
        rows[r][c] = rows[r][c] + (vk if x == 1 else -vk if x == -1 else x * vk)
    return _mat(rows)


def vector_product(a: Sequence[Poly], b: Sequence[Poly]) -> tuple[Poly, ...]:
    """The product on R^5 carried over from the matrix bracket."""
    zero = Poly.zero(a[0].vars)
    return (a[1] * b[4] - b[1] * a[4], zero, a[3] * b[4] - b[3] * a[4], zero, zero)


def iso_check_Phi() -> list[Poly]:
    """The entries of Phi(a x b) - [Phi(a), Phi(b)] for symbolic a, b: all
    zero iff the coordinate map into the matrix algebra is a Lie algebra
    isomorphism."""
    vars = VarSet(*[f"a{i}" for i in range(1, 6)], *[f"b{i}" for i in range(1, 6)])
    a = [Poly.var(vars, f"a{i}") for i in range(1, 6)]
    b = [Poly.var(vars, f"b{i}") for i in range(1, 6)]
    lhs = _phi_matrix(vector_product(a, b), vars)
    return _flatten_matrix(mat_sub(lhs, commutator(_phi_matrix(a, vars), _phi_matrix(b, vars))))


def cocycle_check(theta: Matrix) -> tuple[list[str], dict[str, str]]:
    """The failures of the 2-cocycle identity on all basis triples and of
    the non-coboundary witness [E1,E2] = 0 with theta(E1,E2) = 1, with that
    witness's values."""
    alpha = _e_bracket_constants()

    def theta_bracket(i: int, j: int, k: int) -> Coeff:
        # theta([E_i, E_j], E_k) expanded through the brackets of E_BASIS
        return sum(alpha[i][j][m] * theta[m][k] for m in range(DIM))

    failures: list[str] = []
    for i, j, k in itertools.combinations(range(DIM), 3):
        s = theta_bracket(i, j, k) + theta_bracket(j, k, i) + theta_bracket(k, i, j)
        if s:
            failures.append(f"cocycle identity ({i+1},{j+1},{k+1}): {s}")
    if any(alpha[0][1]):
        failures.append(f"[E1,E2] != 0: coordinates {', '.join(map(str, alpha[0][1]))}")
    if theta[0][1] != 1:
        failures.append(f"theta(E1,E2) = {theta[0][1]} != 1")
    return failures, {
        "commutator_E1_E2": "nonzero" if any(alpha[0][1]) else "0",
        "theta_E1_E2": str(theta[0][1]),
    }
