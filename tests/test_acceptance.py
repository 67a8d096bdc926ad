"""Acceptance criteria, one test per criterion or clause, one printed line each.

Criterion 7 has two clauses, tested separately.  The bound clause (relative
drift <= 1e-8 in under 10 s) holds with two orders of margin and is a plain
test.  The halving clause is a strict xfail: at h = 1e-3 over [0, 100] the
drifts of H and J sit at the floating-point accumulation floor (about 1e-14),
so halving h changes them by rounding noise, not by a factor of 16.  In the
truncation-dominated regime (h = 0.1 vs 0.05) the measured ratios are about
32 for H and J: the drift accumulates secularly as T * h^5 rather than h^4.
The clause is asserted exactly as stated and is expected to fail.
"""

import time
from fractions import Fraction

import pytest

from mbrwa import integrators, model, poisson, symmetry, verify
from mbrwa.integrators import IntegratorId
from mbrwa.model import InvariantId, SystemId
from mbrwa.polyring import Poly
from oracles import convergence_order, midpoint_roundtrip_error

INIT5 = (1.0, 0.5, -0.3, 0.2, 0.1)
INIT6 = (1.0, 0.5, -0.3, 0.2, 0.1, 0.4)


@pytest.fixture
def report(capfd):
    # bypass pytest's fd capture so one line per criterion always reaches
    # the terminal
    def _report(number, name, ok):
        with capfd.disabled():
            print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}", flush=True)

    return _report


def test_criterion_1_poisson_structure(report):
    start = time.perf_counter()
    jacobi_ok = all(r.is_zero for r in poisson.all_jacobi_residuals().values())
    pi, c = poisson.mb_poisson_tensor(), model.invariant_symbolic(InvariantId.C)
    x_c = poisson.ham_vector_field(pi, c)  # zero iff C is a Casimir
    casimir_ok = all(r.is_zero for r in x_c)
    field = poisson.ham_vector_field(
        poisson.mb_poisson_tensor(), model.invariant_symbolic(InvariantId.H)
    )
    dynamics_ok = field == model.rhs_symbolic(SystemId.MB5)
    elapsed = time.perf_counter() - start
    ok = jacobi_ok and casimir_ok and dynamics_ok and elapsed < 1.0
    report(1, "poisson-structure", ok)
    assert len(poisson.all_jacobi_residuals()) == 10
    assert len(x_c) == 5
    assert ok, (jacobi_ok, casimir_ok, dynamics_ok, elapsed)


def test_criterion_2_cocycle(report):
    (rep,) = verify.run_suite("cocycle")
    e1_e2 = poisson.commutator(poisson.E_BASIS[0], poisson.E_BASIS[1])
    witness_ok = not any(c for row in e1_e2 for c in row) and poisson.mb_cocycle()[0][1] == 1
    ok = rep.passed and witness_ok
    report(2, "cocycle", ok)
    assert ok, rep.residuals


def test_criterion_3_realization(report):
    reports = verify.realization_reports()
    ok = all(r.passed for r in reports)
    report(3, "realization", ok)
    assert ok, [(r.check, r.residuals) for r in reports if not r.passed]


def test_criterion_4_symmetry(report):
    family_ok = all(
        r.is_zero for r in symmetry.determining_residuals(symmetry.symbolic_family_field())
    )
    basis = symmetry.solve_determining(2)
    solver_ok = len(basis) == 4 and symmetry.spans_match(basis, symmetry.symmetry_basis())
    algebra_ok = all(r.passed for r in verify.suite_algebra())
    ok = family_ok and solver_ok and algebra_ok
    report(4, "symmetry", ok)
    assert ok, (family_ok, solver_ok, algebra_ok)


def test_criterion_5_variational_noether(report):
    u = symmetry.symbolic_family_field()
    jv = symmetry.jet_vars(u.vars)
    lag = model.invariant_symbolic(InvariantId.L).rename(jv)
    variational_ok = symmetry.variational_residual(u) == 3 * Poly.var(jv, "alpha") * lag
    noether_ok = symmetry.noether_charge_symbolic().conservation_residual.is_zero
    j = model.invariant_symbolic(InvariantId.J)
    ddt = Poly.zero(j.vars)
    for name, comp in zip(model.VARS5.names, model.rhs_symbolic(SystemId.MB5)):
        ddt = ddt + j.diff(name) * comp
    ok = variational_ok and noether_ok and ddt.is_zero
    report(5, "variational-noether", ok)
    assert ok, (variational_ok, noether_ok, str(ddt))


def test_criterion_6_conformal_master(report):
    _, x = symmetry.pushforward(symmetry.symbolic_family_field())
    rec = symmetry.dynamics_commutator(x)
    symbolic_ok = (
        rec.factor is not None
        and rec.factor == Poly.var(x.vars, "alpha")
        and rec.double_commutator_zero
    )
    _, x0 = symmetry.pushforward(
        symmetry.family_field(beta=Fraction(1), gamma=Fraction(1))
    )
    commutes_ok = symmetry.dynamics_commutator(x0).is_symmetry
    _, x1 = symmetry.pushforward(
        symmetry.family_field(alpha=Fraction(1))
    )
    rec1 = symmetry.dynamics_commutator(x1)
    master_ok = rec1.is_master and not rec1.is_symmetry
    ok = symbolic_ok and commutes_ok and master_ok
    report(6, "conformal-master", ok)
    assert ok, (symbolic_ok, commutes_ok, master_ok)


def _max_relative_drifts(h):
    traj = integrators.integrate(IntegratorId.RK4, SystemId.MB5, INIT5, 0.0, 100.0, h)
    rep = integrators.drift_report(traj, integrators.system_invariants(SystemId.MB5))
    out = {}
    for inv, d in rep.drifts.items():
        scale = max(abs(d.initial), 1.0)
        out[inv] = d.max_abs_deviation / scale
    return out


def test_criterion_7_numeric_conservation(report):
    start = time.perf_counter()
    drifts = _max_relative_drifts(1e-3)
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-8 for v in drifts.values()) and elapsed < 10.0
    report(7, "numeric-conservation", ok)
    assert ok, (drifts, elapsed)


@pytest.mark.xfail(
    strict=True,
    reason="drifts at h = 1e-3 are at the roundoff floor and in the truncation "
    "regime they scale as h^5, so the halving ratio leaves the 16 +/- 30% band",
)
def test_criterion_7_drift_halving(report):
    drifts = _max_relative_drifts(1e-3)
    halved = _max_relative_drifts(5e-4)
    ratios = {inv: drifts[inv] / halved[inv] for inv in drifts}
    ok = all(0.7 * 16 <= r <= 1.3 * 16 for r in ratios.values())
    report(7, "drift-halving", ok)
    assert ok, ratios


def test_criterion_8_structure_preservation(report):
    traj = integrators.integrate(
        IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 0.0, 100.0, 1e-2
    )
    rep = integrators.drift_report(
        traj, (InvariantId.CTILDE, InvariantId.JTILDE)
    )
    p3_ok = rep.drifts[InvariantId.CTILDE].max_abs_deviation <= 1e-11
    j_ok = rep.drifts[InvariantId.JTILDE].max_abs_deviation <= 1e-10
    rt_ok = midpoint_roundtrip_error(SystemId.HAM6, INIT6, 1e-2) <= 1e-11
    rk4_order = convergence_order(IntegratorId.RK4, SystemId.MB5, INIT5, 5.0, 0.05)
    mid_order = convergence_order(
        IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, INIT6, 5.0, 0.05
    )
    orders_ok = abs(rk4_order - 4.0) <= 0.4 and abs(mid_order - 2.0) <= 0.3
    ok = p3_ok and j_ok and rt_ok and orders_ok
    report(8, "structure-preservation", ok)
    assert ok, (p3_ok, j_ok, rt_ok, rk4_order, mid_order)


def test_criterion_9_mutation_sensitivity(report):
    ok = True
    # every nonzero entry of the tensor, flipped antisymmetrically, must trip
    # the suite with a printed nonzero residual
    for i, j in ((1, 2), (3, 4), (2, 5), (4, 5)):
        mutated = poisson.flip_entry_sign(poisson.mb_poisson_tensor(), i, j, antisymmetric=True)
        reports = verify.suite_poisson(mutated)
        failed = [r for r in reports if not r.passed]
        ok = ok and bool(failed) and any(
            any(res != "0" for res in r.residuals) for r in failed
        )
    # a lone flip (breaking antisymmetry) must also be caught
    single = poisson.flip_entry_sign(poisson.mb_poisson_tensor(), 2, 5)
    ok = ok and any(not r.passed for r in verify.suite_poisson(single))
    # every detectable coefficient of the symmetry family
    for slot, var in (
        ("xi", "t"),
        ("eta1", "q1"),
        ("eta1", "q2"),
        ("eta2", "q1"),
        ("eta2", "q2"),
        ("eta3", "q3"),
    ):
        family = symmetry.flip_family_coefficient(symmetry.symbolic_family_field(), slot, var)
        reports = verify.suite_symmetry(family)
        failed = [r for r in reports if not r.passed]
        ok = ok and bool(failed) and any(
            any(res != "0" for res in r.residuals) for r in failed
        )
    report(9, "mutation-sensitivity", ok)
    assert ok
