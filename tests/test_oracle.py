"""Differential oracle: the exact linear algebra against sympy.

Kept apart from test_polyring.py so that a missing sympy fails only this
file.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from test_polyring import matrices

from mbrwa.polyring import InconsistentSystem, matrix_rank, solve_linear


@st.composite
def systems(draw):
    m = draw(matrices())
    b = [Fraction(draw(st.integers(-4, 4))) for _ in m]
    return m, b


@given(matrices())
def test_rank_matches_sympy(m):
    assert matrix_rank(m) == sympy.Matrix(m).rank()


@given(systems())
def test_solve_linear_matches_sympy(system):
    m, b = system
    a = sympy.Matrix(m)
    inconsistent = a.row_join(sympy.Matrix(b)).rank() > a.rank()
    if inconsistent:
        with pytest.raises(InconsistentSystem):
            solve_linear(m, b)
    else:
        x = solve_linear(m, b)
        assert [sum(aij * xj for aij, xj in zip(row, x)) for row in m] == b
