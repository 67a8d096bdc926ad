"""Prolongation, determining equations, Noether charges, push-forwards."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mbrwa import model, symmetry, verify
from mbrwa.model import InvariantId
from mbrwa.polyring import Poly, VarSet, VarSetMismatch, kernel, lie_derivative
from mbrwa.symmetry import (
    BASE_VARS,
    JetVectorField,
    NotInSymmetryFamily,
    VectorField,
    determining_residuals,
    dynamics_commutator,
    family_field,
    flip_family_coefficient,
    jet_vars,
    lie_bracket_fields,
    prolong,
    pushforward,
    solve_determining,
    spans_match,
    symbolic_family_field,
    symmetry_basis,
    total_derivative,
    variational_residual,
)
from patching import patched

T, Q1, Q2, Q3 = Poly.variables(BASE_VARS)
ZERO = Poly.zero(BASE_VARS)
JV = jet_vars(BASE_VARS)
DATA = Path(__file__).parent / "data"


def jet(name):
    return Poly.var(JV, name)


class TestProlong:
    def test_constant_field_has_no_prolongation(self):
        u = JetVectorField(xi=ZERO, eta=(ZERO, ZERO, Poly.const(BASE_VARS, 1)))
        pr = prolong(u, 2)
        assert all(pr[f"qd{i}"].is_zero for i in (1, 2, 3))
        assert all(pr[f"qdd{i}"].is_zero for i in (1, 2, 3))

    def test_scaling_field(self):
        # -t d/dt + q_i d/dq_i lifts to 2 qd_i on the velocities
        pr = prolong(family_field(alpha=Fraction(1)), 1)
        assert pr.vars == JV
        for i in (1, 2, 3):
            assert pr[f"qd{i}"] == 2 * jet(f"qd{i}")
            # order 1 leaves the acceleration components zero
            assert pr[f"qdd{i}"].is_zero

    def test_rotation_field(self):
        u = JetVectorField(xi=ZERO, eta=(Q2, -Q1, ZERO))
        pr = prolong(u, 1)
        assert pr["qd1"] == jet("qd2")
        assert pr["qd2"] == -jet("qd1")
        assert pr["qd3"].is_zero

    def test_order_validation(self):
        with pytest.raises(ValueError):
            prolong(symmetry_basis()[0], 3)

    def test_acceleration_coefficient_formula(self):
        # acc_i = Dt^2(eta_i) - Dt^2(xi) qd_i - 2 Dt(xi) qdd_i
        u = JetVectorField(xi=T * Q1, eta=(Q1 * Q2, T**2, Q3))
        pr = prolong(u, 2)
        xi = u["t"].rename(JV)
        for i in range(3):
            eta = u[f"q{i+1}"].rename(JV)
            expected = (
                total_derivative(total_derivative(eta))
                - total_derivative(total_derivative(xi)) * jet(f"qd{i+1}")
                - 2 * total_derivative(xi) * jet(f"qdd{i+1}")
            )
            assert pr[f"qdd{i+1}"] == expected


def jet_symbols() -> VarSet:
    """(t, q) plus the jet symbols m, m_t, ..., m_q3_q3 as parameters."""
    return VarSet(*symmetry.BASE_NAMES, *symmetry._JET.values())


class TestJetRule:
    """The total derivative treats the jet symbols as the partial derivatives
    of one function m of (t, q), so the solver's pieces can be read off the
    prolongation of a field with m in one slot."""

    @pytest.mark.parametrize("seed", range(5))
    def test_symbols_differentiate_as_partial_derivatives(self, seed):
        # D then "replace m_o by the o-th partial of m" equals "replace, then D"
        rng = random.Random(seed)
        monos = [e for e in itertools.product(range(5), repeat=4) if sum(e) <= 4]
        m = Poly(BASE_VARS, {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                             for e in rng.sample(monos, 8)})
        jv = jet_vars(jet_symbols())
        partials = {}
        for o, name in symmetry._JET.items():
            p = m
            for var, k in zip(symmetry.BASE_NAMES, o):
                for _ in range(k):
                    p = p.diff(var)
            partials[name] = p.rename(jv)
        for o, name in symmetry._JET.items():
            if sum(o) <= 1:
                got = total_derivative(Poly.var(jv, name)).substitute(partials)
                assert got == total_derivative(partials[name]), name

    def test_pieces_are_the_residuals_up_to_order_two(self):
        # each residual of the generic field is linear in the symbols, every
        # one of order <= 2, and its pieces are its coefficients
        vs = jet_symbols()
        pieces = symmetry._unit_residual_pieces()
        for slot, slot_pieces in zip(symmetry.BASE_NAMES, pieces):
            u = VectorField.of(vs, {slot: Poly.var(vs, "m")})
            for r, piece in zip(determining_residuals(u), slot_pieces):
                assert set(piece) <= set(symmetry._ORDERS)
                assert all(f.vars == JV for f in piece.values())
                terms = (Poly.var(r.vars, symmetry._JET[o]) * f.rename(r.vars)
                         for o, f in piece.items())
                assert r == sum(terms, Poly.zero(r.vars))
        assert max(sum(o) for s in pieces for piece in s for o in piece) == 2


class TestDeterminingResiduals:
    def test_scaling_member_is_a_symmetry(self):
        res = determining_residuals(family_field(alpha=Fraction(1)))
        assert all(r.is_zero for r in res)

    def test_time_translation_is_a_symmetry(self):
        res = determining_residuals(family_field(beta=Fraction(1)))
        assert all(r.is_zero for r in res)

    def test_pure_q1_scaling_is_not(self):
        u = JetVectorField(xi=ZERO, eta=(Q1, ZERO, ZERO))
        res = determining_residuals(u)
        assert res[2] == 2 * jet("q1") * jet("qd1")

    def test_symbolic_family(self):
        res = determining_residuals(symbolic_family_field())
        assert all(r.is_zero for r in res)

    def test_matches_hand_transcription(self):
        # regression of the generated residuals against the written-out
        # second-order symmetry conditions
        u = JetVectorField(xi=T + Q3, eta=(Q1 * Q2, T * Q1, Q2**2))
        pr = prolong(u, 2)
        eta = [u[f"q{i}"].rename(JV) for i in (1, 2, 3)]
        vel = [pr[f"qd{i}"] for i in (1, 2, 3)]
        acc = [pr[f"qdd{i}"] for i in (1, 2, 3)]
        q1, q2 = jet("q1"), jet("q2")
        qd1, qd2, qd3 = jet("qd1"), jet("qd2"), jet("qd3")
        transcribed = [
            acc[0] - eta[0] * qd3 - q1 * vel[2],
            acc[1] - eta[1] * qd3 - q2 * vel[2],
            acc[2] + eta[0] * qd1 + eta[1] * qd2 + q1 * vel[0] + q2 * vel[1],
        ]
        bindings = {
            "qdd1": q1 * qd3,
            "qdd2": q2 * qd3,
            "qdd3": -(q1 * qd1 + q2 * qd2),
        }
        generated = determining_residuals(u)
        for g, tr in zip(generated, transcribed):
            assert g == tr.substitute(bindings)


class TestVectorField:
    def test_point_field_is_a_mapping_by_name(self):
        u = symbolic_family_field()
        assert u.vars == symmetry.BASE_VARS_P
        assert list(u) == list(u.vars.names)
        assert len(u) == len(u.vars)
        assert (u["t"], u["q1"], u["q2"], u["q3"]) == u.components[:4]
        assert all(u[n].is_zero for n in symmetry.PARAM_NAMES)
        assert "p1" not in u

    def test_lie_derivative_takes_it_directly(self):
        rotation = symmetry_basis()[3]  # q2 d/dq1 - q1 d/dq2
        assert lie_derivative(rotation, Q1**2 + Q2**2).is_zero
        assert lie_derivative(rotation, Q1) == Q2

    def test_of_fills_unnamed_variables_with_zero(self):
        v = VectorField.of(BASE_VARS, {"q2": T})
        assert v.components == (ZERO, ZERO, T, ZERO)

    def test_of_rejects_a_name_outside_its_varset(self):
        with pytest.raises(KeyError, match="unknown variable 'p1'"):
            VectorField.of(BASE_VARS, {"p1": T})

    def test_jet_vector_field_checks_its_slots(self):
        vars = VarSet("q1", "t", "q2", "q3")
        zero = Poly.zero(vars)
        with pytest.raises(ValueError, match="base variables must start with"):
            JetVectorField(xi=zero, eta=(zero, zero, zero))
        with pytest.raises(ValueError, match="must live over the field's VarSet"):
            JetVectorField(xi=ZERO, eta=(Poly.zero(symmetry.BASE_VARS_P), ZERO, ZERO))
        with pytest.raises(ValueError, match="shorter"):
            JetVectorField(xi=T, eta=(Q1,))

    def test_every_point_field_is_a_vector_field(self):
        fields = [symbolic_family_field(), *symmetry_basis(), *solve_determining(2)]
        assert all(type(u) is VectorField for u in fields)
        assert [u.vars for u in fields] == [symmetry.BASE_VARS_P] + [BASE_VARS] * 8

    def test_slots_name_the_point_components(self):
        # solve-symmetries prints each field by these slot names
        u = JetVectorField(xi=T, eta=(Q2, -Q1, ZERO))
        assert u == VectorField(BASE_VARS, (T, Q2, -Q1, ZERO))
        slots = {slot: u[name] for slot, name in symmetry.SYMMETRY_SLOTS.items()}
        assert slots == {"xi": T, "eta1": Q2, "eta2": -Q1, "eta3": ZERO}


class TestSolver:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_dimension_is_four(self, degree):
        basis = solve_determining(degree)
        assert len(basis) == 4
        assert spans_match(basis, symmetry_basis())

    def test_basis_elements_are_symmetries(self):
        for u in solve_determining(2):
            assert all(r.is_zero for r in determining_residuals(u))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            solve_determining(0)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_assembled_rows_match_the_residuals(self, degree):
        # the shift-based assembly against the generated prolongation: the
        # residuals of every unit field of the ansatz, flattened into rows
        # keyed by (equation, jet monomial) in sorted order, row for row
        monos = symmetry._monomials(degree)
        columns = []
        for slot in range(4):
            for m in monos:
                comps = [ZERO] * 4
                comps[slot] = Poly(BASE_VARS, {m: 1})
                columns.append(determining_residuals(VectorField(BASE_VARS, tuple(comps))))
        keys = sorted({(i, e) for col in columns for i, r in enumerate(col) for e in r.terms})
        want = [
            {j: c for j, col in enumerate(columns) if (c := col[i].coefficient(e))}
            for i, e in keys
        ]
        assert symmetry._determining_rows(monos) == want

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_assembled_rows_match_their_digest(self, degree):
        # sha256 of the rows' repr, pinned before the assembly was rewritten:
        # it covers row order, column order and the int/Fraction types
        digests = json.loads((DATA / "determining_rows_sha256.json").read_text())["degrees"]
        rows = symmetry._determining_rows(symmetry._monomials(degree))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digests[str(degree)]


class TestAlgebra:
    def test_bracket_table(self):
        u1, u2, u3, u4 = symmetry_basis()
        assert lie_bracket_fields(u1, u2) == u2
        assert lie_bracket_fields(u1, u3).components == tuple(-c for c in u3.components)
        for a, b in ((u1, u4), (u2, u3), (u2, u4), (u3, u4)):
            assert lie_bracket_fields(a, b).is_zero

    def test_bracket_of_mixed_varsets_rejected(self):
        # over BASE_VARS and BASE_VARS_P, either way round, zero fields included
        with_params = symmetry.BASE_VARS_P
        u = VectorField.of(BASE_VARS, {"q1": Q2})
        v = VectorField.of(with_params, {"q1": Poly.variables(with_params)[2]})
        zero_u, zero_v = VectorField.of(BASE_VARS, {}), VectorField.of(with_params, {})
        for a, b in ((u, v), (v, u), (zero_u, zero_v), (zero_v, u), (u, zero_v)):
            with pytest.raises(VarSetMismatch):
                lie_bracket_fields(a, b)

    def test_jacobi_identity_on_basis(self):
        basis = symmetry_basis()
        for a, b, c in itertools.combinations(basis, 3):
            total = [
                lie_bracket_fields(lie_bracket_fields(a, b), c),
                lie_bracket_fields(lie_bracket_fields(b, c), a),
                lie_bracket_fields(lie_bracket_fields(c, a), b),
            ]
            for comps in zip(*(w.components for w in total)):
                assert sum(comps, ZERO).is_zero

    def test_isomorphic_to_matrix_algebra(self):
        from mbrwa import poisson
        from mbrwa.verify import point_field_commutator_table

        point = point_field_commutator_table(list(symmetry_basis()))
        matrices = poisson.matrix_commutator_table(poisson.A_BASIS)
        assert point == matrices

    def test_outside_span_raises_with_bracket_witness(self):
        from mbrwa import poisson
        from mbrwa.verify import point_field_commutator_table

        d_q1 = VectorField.of(BASE_VARS, {"q1": Poly.const(BASE_VARS, 1)})
        q1_d_q2 = VectorField.of(BASE_VARS, {"q2": Q1})
        with pytest.raises(poisson.CommutatorOutsideSpan) as exc:
            point_field_commutator_table([d_q1, q1_d_q2])
        # [d/dq1, q1 d/dq2] = d/dq2
        assert exc.value.indices == (1, 2)
        assert exc.value.witness == VectorField.of(BASE_VARS, {"q2": Poly.const(BASE_VARS, 1)})

    def test_point_table_has_no_degree_cap(self):
        # d/dq1, q1 d/dq1, q1^2 d/dq1 span sl(2); the expansion reads the
        # monomials that occur, so degree 2 needs no cap to be raised
        from mbrwa.verify import point_field_commutator_table

        one = Poly.const(BASE_VARS, 1)
        sl2 = [VectorField.of(BASE_VARS, {"q1": c}) for c in (one, Q1, Q1**2)]
        assert point_field_commutator_table(sl2) == {
            (1, 2): (1, 0, 0),
            (1, 3): (0, 2, 0),
            (2, 3): (0, 0, 1),
        }

    def test_variational_symmetries_leave_out_the_scaling(self):
        # the combinations of the solved basis with a zero variational
        # residual: time translation, rotation and q3 translation, not the
        # scaling field
        basis = solve_determining(2)
        null = kernel([(variational_residual(u),) for u in basis])
        assert null == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
        slots = list(zip(*(u.components for u in basis)))
        variational = [
            VectorField(BASE_VARS, tuple(sum((c * p for c, p in zip(vec, s)), ZERO) for s in slots))
            for vec in null
        ]
        assert spans_match(variational, symmetry_basis()[1:])
        assert not spans_match(variational, symmetry_basis())


# (alpha, beta, gamma, delta)
FAMILY_PARAMS = [
    (0, 0, 0, 0),
    (Fraction(1), 0, 0, 0),
    (Fraction(2, 3), Fraction(-1), Fraction(5, 7), Fraction(3)),
    (Fraction(-1, 2), Fraction(0), Fraction(-4), Fraction(1, 9)),
]


class TestFamily:
    @pytest.mark.parametrize("p", FAMILY_PARAMS)
    def test_family_field_matches_written_out(self, p):
        a, b, c, d = p
        u = family_field(*p)
        assert u.vars == BASE_VARS
        assert u.components == (-a * T + b, a * Q1 + c * Q2, -c * Q1 + a * Q2, a * Q3 + d)

    @pytest.mark.parametrize("p", FAMILY_PARAMS)
    def test_extract_recovers_params(self, p):
        got = symmetry.extract_family_params(family_field(*p))
        assert got == p

    def test_extract_compares_the_whole_field(self):
        # the family's point components with a nonzero parameter component
        u = symbolic_family_field()
        stray = VectorField.of(u.vars, {**u, "beta": Poly.var(u.vars, "gamma")})
        with pytest.raises(NotInSymmetryFamily, match="four-parameter form"):
            symmetry.extract_family_params(stray)


class TestVariational:
    def test_family_residual_is_three_alpha_l(self):
        u = symbolic_family_field()
        jv = jet_vars(u.vars)
        lag = model.invariant_symbolic(InvariantId.L).rename(jv)
        assert variational_residual(u) == 3 * Poly.var(jv, "alpha") * lag

    def test_alpha_zero_members_are_variational(self):
        u = family_field(beta=Fraction(2), gamma=Fraction(-1), delta=Fraction(3))
        assert variational_residual(u).is_zero

    def test_rotation_is_variational(self):
        assert variational_residual(symmetry_basis()[3]).is_zero

    def test_scaling_is_not_variational(self):
        res = variational_residual(symmetry_basis()[0])
        jv = jet_vars(BASE_VARS)
        assert res == 3 * model.invariant_symbolic(InvariantId.L).rename(jv)


class TestNoether:
    def test_energy_charge(self):
        nc = symmetry.noether_charge(family_field(beta=Fraction(1)))
        assert nc.poly == -model.invariant_symbolic(InvariantId.HTILDE)
        assert nc.conservation_residual.is_zero

    def test_momentum_charge(self):
        nc = symmetry.noether_charge(family_field(delta=Fraction(1)))
        assert nc.poly == Poly.var(model.VARS6, "p3")
        assert nc.conservation_residual.is_zero

    def test_angular_momentum_charge(self):
        nc = symmetry.noether_charge(family_field(gamma=Fraction(1)))
        q1, q2, q3, p1, p2, p3 = Poly.variables(model.VARS6)
        assert nc.poly == -(q1 * p2 - q2 * p1)
        assert nc.conservation_residual.is_zero

    def test_alpha_nonzero_rejected(self):
        with pytest.raises(ValueError):
            symmetry.noether_charge(family_field(alpha=Fraction(1)))

    def test_symbolic_conservation(self):
        assert symmetry.noether_charge_symbolic().conservation_residual.is_zero

    def test_rotation_charge_is_J_on_the_5d_system(self):
        nc = symmetry.noether_charge(symmetry_basis()[3])
        charge5 = nc.poly.substitute(model.phi_section_symbolic())
        assert charge5 == -model.invariant_symbolic(InvariantId.J)

    def test_symbolic_charge_is_the_alpha_zero_members(self):
        nc = symmetry.noether_charge_symbolic()
        assert nc.poly.vars.names == model.VARS6.names + symmetry.PARAM_NAMES
        assert "alpha" not in nc.poly.occurring()

    def test_wrong_sign_in_rotation_field_is_caught(self):
        # eta1 = -q2 instead of q2: the derived charge is no longer -Jtilde,
        # and it is not conserved
        mutated = flip_family_coefficient(symmetry_basis()[3], "eta1", "q2")
        assert mutated["q1"] == -Q2
        nc = symmetry.noether_charge(mutated)
        assert nc.poly != -model.invariant_symbolic(InvariantId.JTILDE)
        assert not nc.conservation_residual.is_zero

    def test_mutated_family_fails_conservation(self):
        mutated = flip_family_coefficient(symbolic_family_field(), "eta1", "q2")
        assert not symmetry.noether_charge_symbolic(mutated).conservation_residual.is_zero


class TestPushforward:
    def test_rotation_to_5d(self):
        _, x = pushforward(symmetry_basis()[3])
        assert x["x1"] == Poly.var(x.vars, "x2")
        assert x["y1"] == Poly.var(x.vars, "y2")
        assert x["x2"] == -Poly.var(x.vars, "x1")
        assert x["y2"] == -Poly.var(x.vars, "y1")
        assert x["z"].is_zero
        assert x["t"].is_zero

    def test_q3_translation_projects_to_zero(self):
        _, x = pushforward(symmetry_basis()[2])
        assert x.is_zero

    def test_time_translation(self):
        _, x = pushforward(symmetry_basis()[1])
        assert x["t"] == 1
        assert all(x[n].is_zero for n in ("x1", "y1", "x2", "y2", "z"))

    def test_cotangent_momentum_coefficients(self):
        v, _ = pushforward(symbolic_family_field())
        al = Poly.var(v.vars, "alpha")
        ga = Poly.var(v.vars, "gamma")
        p1, p2, p3 = (Poly.var(v.vars, n) for n in ("p1", "p2", "p3"))
        assert v["p1"] == 2 * al * p1 + ga * p2
        assert v["p2"] == 2 * al * p2 - ga * p1
        assert v["p3"] == 2 * al * p3

    def test_outside_family_rejected(self):
        u = VectorField.of(BASE_VARS, {"q1": Q1**2})
        with pytest.raises(NotInSymmetryFamily):
            pushforward(u)

    def test_q3_dependent_component_does_not_project(self):
        # Phi forgets q3, so a family field whose image reads q3 has no
        # image on the 5D space.  The family's membership check cannot see
        # that: a changed model statement (here Phi's x1 gains q3, one of the
        # 73 sweep mutants that reach this guard) brings q3 in, and _push's
        # guard reports it where the substitution would raise KeyError
        phi = model.phi_symbolic()
        q3 = Poly.var(phi[0].vars, "q3")
        with patched(model, "phi_symbolic", lambda: (phi[0] + q3, *phi[1:])):
            with pytest.raises(NotInSymmetryFamily, match="q3 survives transport"):
                pushforward(symbolic_family_field())


class TestFirstOrderSymmetry:
    def test_family_pushforward_is_a_symmetry(self):
        _, x = pushforward(symbolic_family_field())
        assert all(r.is_zero for r in dynamics_commutator(x).residuals)

    def test_x1_scaling_is_not(self):
        vars = VarSet(*symmetry.X5_NAMES)
        zero = Poly.zero(vars)
        comps = [zero] * 6
        comps[vars.index("x1")] = Poly.var(vars, "x1")
        x = VectorField(vars=vars, components=tuple(comps))
        assert any(not r.is_zero for r in dynamics_commutator(x).residuals)

    def test_dynamics_commutes_with_itself(self):
        x = symmetry._dynamics_field(VarSet(*symmetry.X5_NAMES))
        assert all(r.is_zero for r in dynamics_commutator(x).residuals)


def hand_derived_residuals(x: VectorField) -> list[Poly]:
    """The 5D symmetry criterion as first derived by hand: per state
    coordinate, D_t eta_k - F_k D_t xi - X(F_k), with D_t = d/dt + F_j d/dx_j
    and X = xi d/dt + eta_j d/dx_j, written out with partial derivatives."""
    names = model.VARS5.names
    rhs = [f.rename(x.vars) for f in model.rhs_symbolic(model.SystemId.MB5)]

    def d_t(g):
        return sum((f * g.diff(n) for f, n in zip(rhs, names)), g.diff("t"))

    def apply_x(g):
        return sum((x[n] * g.diff(n) for n in names), x["t"] * g.diff("t"))

    return [d_t(x[n]) - f * d_t(x["t"]) - apply_x(f) for f, n in zip(rhs, names)]


class TestHandDerivedCriterion:
    """dynamics_commutator's residuals V_k [X,V]_t - [X,V]_k equal the
    hand-derived criterion as polynomials."""

    def assert_agrees(self, x):
        assert list(dynamics_commutator(x).residuals) == hand_derived_residuals(x)

    def test_symbolic_family(self):
        _, x = pushforward(symbolic_family_field())
        self.assert_agrees(x)

    @pytest.mark.parametrize("index", range(4))
    def test_basis_field(self, index):
        _, x = pushforward(symmetry_basis()[index])
        self.assert_agrees(x)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_quadratic_field(self, seed):
        rng = random.Random(seed)
        vars = VarSet(*symmetry.X5_NAMES)
        monos = [e for e in itertools.product(range(3), repeat=6) if sum(e) <= 2]
        comps = tuple(
            Poly(vars, {m: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for m in rng.sample(monos, 4)})
            for _ in vars.names
        )
        x = VectorField(vars, comps)
        assert not x.is_zero
        self.assert_agrees(x)


class TestDynamicsCommutator:
    def test_pure_scaling_is_conformal_and_master(self):
        _, x = pushforward(family_field(alpha=Fraction(1)))
        record = dynamics_commutator(x)
        assert record.factor is not None
        assert record.factor == 1
        assert record.is_master
        assert not record.is_symmetry

    def test_alpha_zero_commutes(self):
        _, x = pushforward(family_field(beta=Fraction(1), gamma=Fraction(2)))
        record = dynamics_commutator(x)
        assert record.is_symmetry
        assert record.factor == 0

    def test_symbolic_factor_is_alpha(self):
        _, x = pushforward(symbolic_family_field())
        record = dynamics_commutator(x)
        assert record.factor is not None
        assert record.factor == Poly.var(x.vars, "alpha")
        assert record.double_commutator_zero
        assert record.is_master


class TestVerifyFailureStrings:
    """Each failure string of the determining-solver and conformal-master
    checks, from a wrong solver or push-forward."""

    def solver_report(self, monkeypatch, basis):
        monkeypatch.setattr(symmetry, "solve_determining", lambda degree: basis)
        return {r.check: r for r in verify.run_suite("symmetry")}["determining-solver"]

    def test_solver_dimension(self, monkeypatch):
        report = self.solver_report(monkeypatch, list(symmetry_basis()[:3]))
        assert report.residuals == ["solver returned dimension 3, expected 4"]
        assert report.witnesses == {"dimension": 3}

    def test_solver_span(self, monkeypatch):
        scaling, time, q3, _ = symmetry_basis()
        report = self.solver_report(monkeypatch, [scaling, time, q3, q3])
        assert report.residuals == ["solver basis does not span the four reference symmetries"]

    def master_report(self, monkeypatch, wrong):
        # the 5D push-forward x5 becomes wrong(x5); the cotangent one is kept
        real = symmetry.pushforward

        def pushforward(u):
            cotangent, x = real(u)
            return cotangent, wrong(x)

        monkeypatch.setattr(symmetry, "pushforward", pushforward)
        return {r.check: r for r in verify.run_suite("pushforward")}["conformal-master"]

    def test_not_a_multiple_of_v(self, monkeypatch):
        def x1_scaling(x):
            return VectorField.of(x.vars, {"x1": Poly.var(x.vars, "x1")})

        report = self.master_report(monkeypatch, x1_scaling)
        assert report.residuals == [
            "[X,V] is not a constant multiple of V",
            "[[X,V],V] != 0",
            "alpha = 0 does not make [X,V] vanish",
        ]
        assert report.witnesses == {"factor": None, "is_master": False}

    def test_wrong_factor(self, monkeypatch):
        def doubled(x):
            return VectorField(x.vars, tuple(2 * c for c in x.components))

        report = self.master_report(monkeypatch, doubled)
        assert report.residuals == ["[X,V] = c V with c = 2*alpha, expected alpha"]
        assert report.witnesses == {"factor": "2*alpha", "is_master": True}


class TestMutationSensitivity:
    # occurrences that carry structural information (the lone beta and delta
    # constants drop out of the determining equations entirely)
    OCCURRENCES = [
        ("xi", "t"),
        ("eta1", "q1"),
        ("eta1", "q2"),
        ("eta2", "q1"),
        ("eta2", "q2"),
        ("eta3", "q3"),
    ]

    @pytest.mark.parametrize("slot,var", OCCURRENCES)
    def test_flipped_coefficient_breaks_determining(self, slot, var):
        mutated = flip_family_coefficient(symbolic_family_field(), slot, var)
        res = determining_residuals(mutated)
        assert any(not r.is_zero for r in res), (slot, var)
