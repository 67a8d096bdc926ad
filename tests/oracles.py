"""Numeric estimates that only tests use, over the integrators' run loops."""

import math

import numpy as np

from mbrwa.integrators import IntegratorId, _drive, _state, integrate
from mbrwa.model import SystemId


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
