"""Named verification suites aggregating every symbolic certificate.

Every check is named, timed and reported here, by ``run_check``; ``model``,
``poisson`` and ``symmetry`` compute the residuals it reads.  A suite
returns a list of :class:`VerificationReport` and passes iff every report
passes.  :func:`run_suite` gives a suite the model's Poisson tensor or
symmetry family, or a tampered one, so that the sensitivity of the checks
can itself be tested: a vacuously-green certificate is worthless.  A
mutated family is a ``symmetry.flip_family_coefficient`` of the symbolic
family, so every family a suite receives is over ``symmetry.BASE_VARS_P``.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, partial
from operator import attrgetter

from . import model, poisson, symmetry
from .model import VARS5, VARS6, VARST6, InvariantId, SystemId
from .polyring import Coeff, Poly, lie_derivative
from .report import Outcome, VerificationReport, run_check
from .symmetry import VectorField, jet_vars, lie_bracket_fields


def reference_poisson_entries() -> tuple[tuple[Poly, ...], ...]:
    """The expected tensor, written out entrywise (independent of the
    ``E_BASIS`` it is derived from, so the derivation is genuinely checked)."""
    x1, y1, x2, y2, z = Poly.variables(VARS5)
    zero = Poly.zero(VARS5)
    one = Poly.const(VARS5, 1)
    return (
        (zero, one, zero, zero, zero),
        (-one, zero, zero, zero, x1),
        (zero, zero, zero, one, zero),
        (zero, zero, -one, zero, x2),
        (zero, -x1, zero, -x2, zero),
    )


# ---------------------------------------------------------------------------
# poisson suite (tensor + realization certificates)
# ---------------------------------------------------------------------------


def suite_poisson(pi: poisson.Matrix) -> list[VerificationReport]:
    def assembly():
        ref = reference_poisson_entries()
        return [pi[i][j] - ref[i][j] for i in range(5) for j in range(5)]

    def jacobi():
        jac = poisson.all_jacobi_residuals(pi)
        return Outcome(jac.values(), {"triples": len(jac)})

    @cache  # X_f = pi grad(f), built by the first check that reads it, then shared
    def field(inv: InvariantId) -> tuple[Poly, ...]:
        return poisson.ham_vector_field(pi, model.invariant_symbolic(inv))

    def hamiltonian_field():
        return [f - g for f, g in zip(field(InvariantId.H), model.rhs_symbolic(SystemId.MB5))]

    def involution():  # {f, g}: f differentiated along X_g
        def bracket(f, g):
            return lie_derivative(dict(zip(VARS5.names, field(g))), model.invariant_symbolic(f))

        return [bracket(InvariantId.H, InvariantId.C), bracket(InvariantId.H, InvariantId.J),
                bracket(InvariantId.C, InvariantId.J)]

    return [
        run_check("pi-antisymmetry", lambda: poisson.antisymmetry_residuals(pi)),
        run_check("pi-assembly", assembly),
        run_check("jacobi-identity", jacobi),
        run_check("casimir", lambda: field(InvariantId.C)),  # X_C = pi grad(C)
        run_check("hamiltonian-field", hamiltonian_field),
        run_check("involution", involution),
        *realization_reports(),
    ]


def realization_reports() -> list[VerificationReport]:
    """Certificates connecting the three formulations."""
    phi = dict(zip(VARS5.names, model.phi_symbolic()))
    leg = dict(zip(VARS6.names, model.legendre_symbolic()))

    def invariants():
        return [
            model.invariant_symbolic(inv5).substitute(phi) - model.invariant_symbolic(inv6)
            for inv5, inv6 in (
                (InvariantId.H, InvariantId.HTILDE),
                (InvariantId.C, InvariantId.CTILDE),
                (InvariantId.J, InvariantId.JTILDE),
            )
        ]

    def dynamics():
        rhs6 = dict(zip(VARS6.names, model.rhs_symbolic(SystemId.HAM6)))
        return [
            lie_derivative(rhs6, phi_a) - comp5.substitute(phi)
            for comp5, phi_a in zip(model.rhs_symbolic(SystemId.MB5), model.phi_symbolic())
        ]

    def energy():
        qd = [Poly.var(VARST6, f"qd{i}") for i in (1, 2, 3)]
        p_of_qd = model.legendre_symbolic()[3:]
        p_qd = sum((pi * qdi for pi, qdi in zip(p_of_qd, qd)), Poly.zero(VARST6))
        return [
            model.invariant_symbolic(InvariantId.HTILDE).substitute(leg)
            - (p_qd - model.invariant_symbolic(InvariantId.L))
        ]

    def inverse():
        inv = dict(zip(VARST6.names, model.legendre_inverse_symbolic()))
        roundtrip = [
            comp.substitute(leg) - Poly.var(VARST6, name)
            for comp, name in zip(model.legendre_inverse_symbolic(), VARST6.names)
        ]
        return roundtrip + [
            comp.substitute(inv) - Poly.var(VARS6, name)
            for comp, name in zip(model.legendre_symbolic(), VARS6.names)
        ]

    return [
        run_check("realization-invariants", invariants),
        run_check("realization-dynamics", dynamics),
        run_check("legendre-energy", energy),
        run_check("legendre-inverse", inverse),
    ]


# ---------------------------------------------------------------------------
# cocycle / algebra suites
# ---------------------------------------------------------------------------


def suite_cocycle() -> list[VerificationReport]:
    return [run_check("cocycle", lambda: Outcome(*poisson.cocycle_check(poisson.mb_cocycle())))]


_E_TABLE = {(2, 5): (1, 0, 0, 0, 0), (4, 5): (0, 0, 1, 0, 0)}  # (i,j) -> [B_i, B_j] in the basis
_A_TABLE = {(1, 2): (0, 1, 0, 0), (1, 3): (0, 0, -1, 0)}
Table = dict[tuple[int, int], tuple[Coeff, ...]]


def _table_report(check: str, table: Callable[[], Table],
                  expected: Callable[[], Table]) -> VerificationReport:
    """Check the commutator table that ``table()`` computes against the one
    that ``expected()`` gives.  Each maps a pair (i, j), i < j (1-based), to
    the coordinates of [B_i, B_j] in the basis; a pair absent from the
    expected table is a zero bracket.  A bracket outside the span, in either
    table, fails the check with that bracket as its one residual."""

    def body():
        try:
            computed, want = table(), expected()
        except poisson.CommutatorOutsideSpan as exc:
            return [str(exc)]
        failures = [
            f"[B{i},B{j}] expands to {poisson.coeffs_str(c)}, expected {poisson.coeffs_str(w)}"
            for (i, j), c in computed.items()
            if c != (w := want.get((i, j), (0,) * len(c)))
        ]
        return Outcome(failures, {"pairs": len(computed)})

    return run_check(check, body)


def point_field_commutator_table(basis: list[VectorField]) -> Table:
    """Expand every [u_i, u_j], i < j (1-based), in the given field basis,
    over the coefficients of its component polynomials."""
    return poisson.structure_constants(basis, lie_bracket_fields, attrgetter("components"))


def suite_algebra() -> list[VerificationReport]:
    # computed by the first check that reads it, then shared
    a_table = cache(partial(poisson.matrix_commutator_table, poisson.A_BASIS))
    return [
        _table_report("E-commutator-table",
                      partial(poisson.matrix_commutator_table, poisson.E_BASIS), lambda: _E_TABLE),
        run_check("iso-Phi", poisson.iso_check_Phi),
        _table_report("A-commutator-table", a_table, lambda: _A_TABLE),
        _table_report("symmetry-algebra-isomorphism",
                      lambda: point_field_commutator_table(list(symmetry.symmetry_basis())), a_table),
    ]


# ---------------------------------------------------------------------------
# symmetry / variational / noether / pushforward suites
# ---------------------------------------------------------------------------


def suite_symmetry(family: VectorField) -> list[VerificationReport]:
    def solver():
        basis = symmetry.solve_determining(2)
        failures = []
        if len(basis) != 4:
            failures.append(f"solver returned dimension {len(basis)}, expected 4")
        elif not symmetry.spans_match(basis, symmetry.symmetry_basis()):
            failures.append("solver basis does not span the four reference symmetries")
        return Outcome(failures, {"dimension": len(basis)})

    return [
        run_check("determining-family", lambda: symmetry.determining_residuals(family)),
        run_check("determining-solver", solver),
    ]


def suite_variational(family: VectorField) -> list[VerificationReport]:
    # computed by the first check that reads it, then shared
    residual = cache(partial(symmetry.variational_residual, family))

    def identity():
        jv = jet_vars(family.vars)
        lag = model.invariant_symbolic(InvariantId.L).rename(jv)
        return [residual() - 3 * Poly.var(jv, "alpha") * lag]

    def rotation():
        return [symmetry.variational_residual(symmetry.symmetry_basis()[3])]

    return [
        run_check("variational-identity", identity),
        run_check("variational-alpha-zero", lambda: [residual().substitute({"alpha": 0})]),
        run_check("variational-rotation", rotation),
    ]


def suite_noether(family: VectorField) -> list[VerificationReport]:
    def basis_charges():
        # Noether's formula on the time, rotation and q3 fields gives -H, -J
        # and C, on (q, p) and, through Phi's section, on the 5D system
        _, time, q3, rotation = symmetry.symmetry_basis()
        residuals = []
        for field, sign, inv6, inv5 in (
            (time, -1, InvariantId.HTILDE, InvariantId.H),
            (rotation, -1, InvariantId.JTILDE, InvariantId.J),
            (q3, 1, InvariantId.CTILDE, InvariantId.C),
        ):
            nc = symmetry.noether_charge(field)
            residuals.append(nc.poly - sign * model.invariant_symbolic(inv6))
            residuals.append(nc.conservation_residual)
            if "q3" in nc.poly.occurring():
                residuals.append(f"the charge for {inv5.value} depends on q3: no 5D image")
            else:
                charge5 = nc.poly.substitute(model.phi_section_symbolic())
                residuals.append(charge5 - sign * model.invariant_symbolic(inv5))
        return residuals

    def constants_of_motion():
        # the Lagrangian L of el6 is not a constant of motion
        residuals = []
        for system in (SystemId.MB5, SystemId.HAM6):
            field = dict(zip(model.system_vars(system).names, model.rhs_symbolic(system)))
            residuals += [
                lie_derivative(field, model.invariant_symbolic(i))
                for i in model.system_invariants(system)
            ]
        return residuals

    return [
        run_check(
            "noether-conservation",
            lambda: [symmetry.noether_charge_symbolic(family).conservation_residual],
        ),
        run_check("noether-basis-charges", basis_charges),
        run_check("constants-of-motion", constants_of_motion),
    ]


def suite_pushforward(family: VectorField) -> list[VerificationReport]:
    try:
        cotangent, x5 = symmetry.pushforward(family)
    except symmetry.NotInSymmetryFamily as exc:
        return [run_check("pushforward", lambda: [str(exc)])]
    # computed by the first check that reads it, then shared
    commutator = cache(partial(symmetry.dynamics_commutator, x5))

    def cotangent_residuals():
        # expected momentum coefficients (2a p1 + g p2, 2a p2 - g p1, 2a p3)
        al, ga, p1, p2, p3 = (Poly.var(cotangent.vars, n)
                              for n in ("alpha", "gamma", "p1", "p2", "p3"))
        return [
            cotangent["p1"] - (2 * al * p1 + ga * p2),
            cotangent["p2"] - (2 * al * p2 - ga * p1),
            cotangent["p3"] - 2 * al * p3,
        ]

    def x5_residuals():
        al, be, ga, t, x1, y1, x2, y2, z = (
            Poly.var(x5.vars, n) for n in ("alpha", "beta", "gamma", *symmetry.X5_NAMES)
        )
        expected = {
            "t": -al * t + be,
            "x1": al * x1 + ga * x2,
            "y1": 2 * al * y1 + ga * y2,
            "x2": -ga * x1 + al * x2,
            "y2": 2 * al * y2 - ga * y1,
            "z": 2 * al * z,
        }
        return [x5[n] - expected[n] for n in symmetry.X5_NAMES]

    def conformal_master():
        record = commutator()
        failures = []
        if record.factor is None:
            failures.append("[X,V] is not a constant multiple of V")
        elif record.factor != Poly.var(x5.vars, "alpha"):
            failures.append(f"[X,V] = c V with c = {record.factor}, expected alpha")
        if not record.double_commutator_zero:
            failures.append("[[X,V],V] != 0")
        frozen = [c.substitute({"alpha": 0}) for c in record.commutator.components]
        if any(not c.is_zero for c in frozen):
            failures.append("alpha = 0 does not make [X,V] vanish")
        return Outcome(
            failures,
            {
                "factor": str(record.factor) if record.factor is not None else None,
                "is_master": record.is_master,
            },
        )

    return [
        run_check("pushforward-cotangent", cotangent_residuals),
        run_check("pushforward-5d", x5_residuals),
        run_check("first-order-symmetry", lambda: commutator().residuals),
        run_check("conformal-master", conformal_master),
    ]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# The suites, in the order "all" runs them, and the suites that read each
# mutated input.  ``run_suite`` passes a suite exactly the inputs it reads,
# and the CLI refuses a mutation that no chosen suite reads, which would be a
# vacuously green run.  ``run_suite`` looks ``suite_<name>`` up at call time,
# so a wrapped suite is the one run.
SUITE_NAMES = ("poisson", "cocycle", "algebra", "symmetry", "variational", "noether", "pushforward")
SUITE_READERS = {
    "pi": ("poisson",),
    "family": ("symmetry", "variational", "noether", "pushforward"),
}


def run_suite(
    name: str,
    pi: poisson.Matrix | None = None,
    family: VectorField | None = None,
) -> list[VerificationReport]:
    """Run one named suite, or all of them in a fixed order, on the given
    inputs or, where one is not given, the model's tensor and family."""
    pi = pi or poisson.mb_poisson_tensor()
    family = family or symmetry.symbolic_family_field()
    if name == "all":
        return [r for suite in SUITE_NAMES for r in run_suite(suite, pi=pi, family=family)]
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    given = {"pi": pi, "family": family}
    return globals()[f"suite_{name}"](
        **{i: value for i, value in given.items() if name in SUITE_READERS[i]}
    )
