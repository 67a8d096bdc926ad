"""Geometric-mechanics toolkit for the 5D Maxwell-Bloch (RWA) system.

Simulates the system in its three equivalent formulations and symbolically
certifies its structure (Poisson tensor, Casimir, cocycle, symmetry algebra,
Noether charges, conformal/master symmetry) with exact rational polynomial
arithmetic.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    InvariantId,
    State5,
    State6,
    SystemId,
    TangentState6,
    invariant,
    legendre,
    legendre_inv,
    phi,
    rhs,
    rhs_symbolic,
)
from .polyring import Poly, VarSet  # noqa: F401
from .report import VerificationReport  # noqa: F401
