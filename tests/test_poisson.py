"""Poisson tensor, cocycle, and matrix algebra certificates."""

import itertools
from fractions import Fraction

import pytest

from mbrwa import model, poisson, symmetry, verify
from mbrwa.model import VARS5, InvariantId, SystemId
from mbrwa.polyring import Poly, matrix_rank
from mbrwa.symmetry import BASE_VARS, VectorField
import oracles
from patching import patched

X1, Y1, X2, Y2, Z = Poly.variables(VARS5)
PI = poisson.mb_poisson_tensor()


U = (X1, Y1, X2, Y2, Z)
# an antisymmetric quadratic perturbation of PI, whose Jacobi sums do not vanish
QUADRATIC = tuple(tuple(PI[i][j] + (i - j) * (U[i] * U[j] + U[(i + j) % 5]**2 + U[i * j % 5])
                        for j in range(5)) for i in range(5))


class TestBracket:
    def test_canonical_pairs(self):
        assert oracles.poisson_bracket(X1, Y1, PI) == 1
        assert oracles.poisson_bracket(X2, Y2, PI) == 1

    def test_linear_pairs(self):
        assert oracles.poisson_bracket(Y1, Z, PI) == X1
        assert oracles.poisson_bracket(Y2, Z, PI) == X2

    def test_vanishing_pairs(self):
        coords = Poly.variables(VARS5)
        nonzero = {(0, 1), (1, 4), (2, 3), (3, 4)}
        for i in range(5):
            for j in range(i + 1, 5):
                b = oracles.poisson_bracket(coords[i], coords[j], PI)
                if (i, j) in nonzero:
                    assert not b.is_zero
                else:
                    assert b.is_zero, (i, j)

    def test_antisymmetry_of_tensor(self):
        assert all(r.is_zero for r in poisson.antisymmetry_residuals(PI))

    def test_involution_of_constants(self):
        h = model.invariant_symbolic(InvariantId.H)
        c = model.invariant_symbolic(InvariantId.C)
        j = model.invariant_symbolic(InvariantId.J)
        assert oracles.poisson_bracket(h, c, PI).is_zero
        assert oracles.poisson_bracket(h, j, PI).is_zero
        assert oracles.poisson_bracket(c, j, PI).is_zero


class TestIndependence:
    # (H, C, J) are functionally independent; with their involution
    # (TestBracket.test_involution_of_constants) this is the Liouville-type
    # statement behind the paper's third constant of motion
    GRADIENT = [[model.invariant_symbolic(inv).diff(v) for v in VARS5.names]
                for inv in (InvariantId.H, InvariantId.C, InvariantId.J)]

    def test_gradient_rank_three_at_a_rational_point(self):
        point = dict(zip(VARS5.names, (1, 1, 0, 0, 0)))
        assert matrix_rank([[g.eval(point) for g in row] for row in self.GRADIENT]) == 3

    def test_a_three_by_three_minor_is_nonzero(self):
        # the minor over the columns (x1, y1, x2)
        (a, b, c), (d, e, f), (g, h, i) = (row[:3] for row in self.GRADIENT)
        minor = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert minor == Y1 * (X1 * Y1 + X2 * Y2)
        assert not minor.is_zero


class TestJacobi:
    @pytest.mark.parametrize("triple", [(1, 2, 5), (2, 4, 5)])
    def test_selected_triples(self, triple):
        assert poisson.all_jacobi_residuals(PI)[triple].is_zero
        assert oracles.jacobi_residual(*triple, PI).is_zero

    def test_all_ten_triples(self):
        residuals = poisson.all_jacobi_residuals()
        assert len(residuals) == 10
        assert all(r.is_zero for r in residuals.values())

    # the tensors of verify's --mutate-pi mutants that the certify benchmark
    # runs, whose Jacobi sums vanish, and an antisymmetric quadratic
    # perturbation of PI, whose sums do not
    @pytest.mark.parametrize("mutant", ["1,2,both", "3,4,both", "2,5,both", "4,5,both", "2,5",
                                        "quadratic"])
    def test_fields_built_once_give_the_per_bracket_sums(self, mutant):
        # term for term and in dict order, which Poly.eval's float sum follows
        if mutant == "quadratic":
            pi = QUADRATIC
        else:
            i, j, *both = mutant.split(",")
            pi = poisson.flip_entry_sign(PI, int(i), int(j), antisymmetric=bool(both))
        residuals = poisson.all_jacobi_residuals(pi)
        assert list(residuals) == list(itertools.combinations(range(1, 6), 3))
        for triple, r in residuals.items():
            assert list(r.terms.items()) == list(oracles.jacobi_residual(*triple, pi).terms.items())
        assert all(r.is_zero for r in residuals.values()) == (mutant != "quadratic")

    def test_verify_fails_the_quadratic_perturbation(self):
        # no --mutate-pi tensor breaks the Jacobi identity, so this is the
        # input that shows verify's jacobi-identity check can fail
        report, = (r for r in verify.run_suite("poisson", pi=QUADRATIC)
                   if r.check == "jacobi-identity")
        assert report.status == "fail"
        assert report.residuals == [str(r) for r in poisson.all_jacobi_residuals(QUADRATIC).values()
                                    if not r.is_zero] != []
        assert report.witnesses == {"triples": 10}


class TestCasimir:
    def test_all_components_zero(self):
        field = poisson.ham_vector_field(PI, model.invariant_symbolic(InvariantId.C))
        assert all(r.is_zero for r in field)

    def test_h_is_not_a_casimir(self):
        field = poisson.ham_vector_field(PI, model.invariant_symbolic(InvariantId.H))
        assert any(not f.is_zero for f in field)


class TestHamVectorField:
    def test_h_gives_the_dynamics(self):
        field = poisson.ham_vector_field(PI, model.invariant_symbolic(InvariantId.H))
        assert field == model.rhs_symbolic(SystemId.MB5)

    def test_c_gives_zero(self):
        field = poisson.ham_vector_field(PI, model.invariant_symbolic(InvariantId.C))
        assert all(f.is_zero for f in field)

    def test_j_field(self):
        # direct expansion of pi * grad(J)
        field = poisson.ham_vector_field(PI, model.invariant_symbolic(InvariantId.J))
        assert field == (-X2, -Y2, X1, Y1, Poly.zero(VARS5))


class TestAssembly:
    def test_displayed_entries(self):
        # PI is a tuple of rows, indexed from 0: PI[1][4] is pi_25
        assert PI[1][4] == X1
        assert PI[3][4] == X2
        assert PI[0][1] == 1
        assert PI[2][3] == 1
        assert PI[0][2].is_zero

    def test_linear_entries_have_degree_at_most_one(self):
        for row in PI:
            for p in row:
                assert p.total_degree() <= 1


class TestMatrixAlgebra:
    def test_e_basis_table(self):
        table = poisson.matrix_commutator_table(poisson.E_BASIS)
        zero = (Fraction(0),) * 5
        for (i, j), coeffs in table.items():
            if (i, j) == (2, 5):
                assert coeffs == (1, 0, 0, 0, 0)
            elif (i, j) == (4, 5):
                assert coeffs == (0, 0, 1, 0, 0)
            else:
                assert coeffs == zero, (i, j)

    def test_e1_e3_commute(self):
        m = poisson.commutator(poisson.E_BASIS[0], poisson.E_BASIS[2])
        assert not any(c for row in m for c in row)

    def test_a_basis_table(self):
        table = poisson.matrix_commutator_table(poisson.A_BASIS)
        assert table[(1, 2)] == (0, 1, 0, 0)
        assert table[(1, 3)] == (0, 0, -1, 0)
        for key in ((1, 4), (2, 3), (2, 4), (3, 4)):
            assert table[key] == (0, 0, 0, 0)

    def test_outside_span_is_an_error_with_witness(self):
        # two matrices whose commutator leaves their span
        a = poisson._mat([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        b = poisson._mat([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(poisson.CommutatorOutsideSpan) as exc:
            poisson.matrix_commutator_table([a, b])
        assert any(c for row in exc.value.witness for c in row)


class TestIsoPhi:
    def test_symbolic_residual_zero(self):
        residuals = poisson.iso_check_Phi()
        assert len(residuals) == 16
        assert all(r.is_zero for r in residuals), [str(r) for r in residuals]

    def test_concrete_pair(self):
        # (0,1,0,0,0) x (0,0,0,0,1) = (1,0,0,0,0), whose matrix image is E1
        vars = VARS5  # any 5-variable set works for constants
        a = [Poly.const(vars, c) for c in (0, 1, 0, 0, 0)]
        b = [Poly.const(vars, c) for c in (0, 0, 0, 0, 1)]
        prod = poisson.vector_product(a, b)
        assert list(prod) == [1, 0, 0, 0, 0]

    def test_self_product_vanishes(self):
        a = [Poly.const(VARS5, c) for c in (3, 1, 4, 1, 5)]
        assert all(p.is_zero for p in poisson.vector_product(a, a))


class TestCocycle:
    def test_report_passes(self):
        failures, witnesses = poisson.cocycle_check(poisson.mb_cocycle())
        assert failures == []
        assert witnesses["theta_E1_E2"] == "1"

    def test_non_coboundary_witness(self):
        m = poisson.commutator(poisson.E_BASIS[0], poisson.E_BASIS[1])
        assert not any(c for row in m for c in row)
        assert poisson.mb_cocycle()[0][1] == 1

    def test_tampered_cocycle_fails(self):
        rows = [list(r) for r in poisson.mb_cocycle()]
        # theta(E1,E3) != 0 breaks the identity on the triples (1,4,5) and (2,3,5)
        rows[0][2] = Fraction(1)
        rows[2][0] = Fraction(-1)
        failures, _ = poisson.cocycle_check(poisson._mat(rows))
        assert failures == ["cocycle identity (1,4,5): -1", "cocycle identity (2,3,5): -1"]


class TestOneBasedIndices:
    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (6, 1), (1, 6), (-1, 2)])
    def test_entry_outside_one_to_five_rejected(self, i, j):
        # the message names the offending entry
        with pytest.raises(ValueError, match=rf"entry \({i}, {j}\): indices must be in 1..5"):
            poisson.flip_entry_sign(PI, i, j)

    @pytest.mark.parametrize("i, j", [(0, 2), (2, 0), (6, 1)])
    def test_flip_outside_one_to_five_rejected(self, i, j):
        # index 0 would wrap through Python's negative indexing: (0, 2)
        # would negate entry (5, 2)
        message = rf"entry \({i}, {j}\): indices must be in 1..5"
        with pytest.raises(ValueError, match=message):
            poisson.flip_entry_sign(PI, i, j)
        with pytest.raises(ValueError, match=message):
            poisson.flip_entry_sign(PI, i, j, antisymmetric=True)

    def test_flip_negates_the_entry_and_its_partner(self):
        flipped = poisson.flip_entry_sign(PI, 2, 5, antisymmetric=True)
        assert (flipped[1][4], flipped[4][1]) == (-X1, X1)
        assert flipped[0] == PI[0]


class TestCocycleWitnessFailures:
    def test_theta_e1_e2_is_not_one(self):
        rows = [list(r) for r in poisson.mb_cocycle()]
        rows[0][1], rows[1][0] = 2, -2
        failures, witnesses = poisson.cocycle_check(poisson._mat(rows))
        assert failures == ["theta(E1,E2) = 2 != 1"]
        assert witnesses == {"commutator_E1_E2": "0", "theta_E1_E2": "2"}

    def test_e1_e2_do_not_commute(self, monkeypatch):
        # brackets with [E1, E2] = E3: theta is then no cocycle on (1, 2, 4)
        alpha = [list(row) for row in poisson._e_bracket_constants()]
        alpha[0][1], alpha[1][0] = (0, 0, 1, 0, 0), (0, 0, -1, 0, 0)
        monkeypatch.setattr(poisson, "_e_bracket_constants", lambda: alpha)
        failures, witnesses = poisson.cocycle_check(poisson.mb_cocycle())
        assert failures == [
            "cocycle identity (1,2,4): 1",
            "[E1,E2] != 0: coordinates 0, 0, 1, 0, 0",
        ]
        assert witnesses == {"commutator_E1_E2": "nonzero", "theta_E1_E2": "1"}


def test_poisson_suite_builds_each_hamiltonian_field_once(monkeypatch):
    # the five coordinate fields of the Jacobi sums, then X_C, X_H and X_J in
    # check order: casimir and involution share X_C, involution's brackets X_J
    built, ham = [], poisson.ham_vector_field
    monkeypatch.setattr(poisson, "ham_vector_field", lambda pi, h: built.append(h) or ham(pi, h))
    assert all(r.passed for r in verify.suite_poisson(PI))
    h, c, j = (model.invariant_symbolic(i) for i in (InvariantId.H, InvariantId.C, InvariantId.J))
    assert built == [*Poly.variables(VARS5), c, h, j]


class TestMutationSensitivity:
    def test_single_entry_flip_breaks_antisymmetry(self):
        mutated = poisson.flip_entry_sign(PI, 1, 2)
        assert any(not r.is_zero for r in poisson.antisymmetry_residuals(mutated))

    def test_antisymmetric_flip_breaks_jacobi_or_dynamics(self):
        mutated = poisson.flip_entry_sign(PI, 2, 5, antisymmetric=True)
        jac_bad = any(
            not r.is_zero for r in poisson.all_jacobi_residuals(mutated).values()
        )
        field = poisson.ham_vector_field(mutated, model.invariant_symbolic(InvariantId.H))
        dyn_bad = field != model.rhs_symbolic(SystemId.MB5)
        assert jac_bad or dyn_bad

    def test_negated_e5_reaches_the_tensor(self):
        # the tensor's linear part is read off E_BASIS's brackets, and Phi is
        # sum_k v_k E_k, so a wrong basis matrix must show in the
        # certificates built on the tensor and in the isomorphism check
        e5 = tuple(tuple(-c for c in row) for row in poisson.E_BASIS[4])
        with patched(poisson, "E_BASIS", poisson.E_BASIS[:4] + (e5,)):
            assert poisson.mb_poisson_tensor()[1][4] == -X1
            reports = {r.check: r.passed for r in verify.run_suite("poisson")}
            algebra = {r.check: r.passed for r in verify.run_suite("algebra")}
        for check in ("pi-assembly", "casimir", "hamiltonian-field", "involution"):
            assert not reports[check], check
        for check in ("E-commutator-table", "iso-Phi"):
            assert not algebra[check], check


class TestAlgebraSuiteFailures:
    """The algebra suite's failure strings show structure constants by their
    ``str``: the same text whether a constant is an int or a Fraction."""

    A1, A2, A3, A4 = poisson.A_BASIS

    def reports(self, monkeypatch, basis):
        monkeypatch.setattr(poisson, "A_BASIS", basis)
        return {r.check: r for r in verify.suite_algebra()}

    def test_swapped_basis_messages(self, monkeypatch):
        reports = self.reports(monkeypatch, (self.A1, self.A3, self.A2, self.A4))
        assert reports["A-commutator-table"].residuals == [
            "[B1,B2] expands to (0, -1, 0, 0), expected (0, 1, 0, 0)",
            "[B1,B3] expands to (0, 0, 1, 0), expected (0, 0, -1, 0)",
        ]
        assert reports["symmetry-algebra-isomorphism"].residuals == [
            "[B1,B2] expands to (0, 1, 0, 0), expected (0, -1, 0, 0)",
            "[B1,B3] expands to (0, 0, -1, 0), expected (0, 0, 1, 0)",
        ]
        for check in ("A-commutator-table", "symmetry-algebra-isomorphism"):
            assert reports[check].status == "fail"
            assert reports[check].witnesses == {"pairs": 6}

    def test_rational_constants_print_as_fractions(self, monkeypatch):
        half = tuple(tuple(Fraction(c, 2) for c in row) for row in self.A1)
        reports = self.reports(monkeypatch, (half, self.A2, self.A3, self.A4))
        assert reports["A-commutator-table"].residuals == [
            "[B1,B2] expands to (0, 1/2, 0, 0), expected (0, 1, 0, 0)",
            "[B1,B3] expands to (0, 0, -1/2, 0), expected (0, 0, -1, 0)",
        ]
        assert reports["symmetry-algebra-isomorphism"].residuals[0] == (
            "[B1,B2] expands to (0, 1, 0, 0), expected (0, 1/2, 0, 0)"
        )

    def test_a_table_computed_once_per_run(self, monkeypatch):
        computed = []
        original = poisson.matrix_commutator_table

        def counting(basis):
            computed.append(basis)
            return original(basis)

        monkeypatch.setattr(poisson, "matrix_commutator_table", counting)
        assert all(r.passed for r in verify.suite_algebra())
        assert computed.count(poisson.A_BASIS) == 1
        assert computed.count(poisson.E_BASIS) == 1

    def test_outside_span_basis(self, monkeypatch):
        # [B1, B2] = E_13 leaves the span: the matrix table has no
        # expansion, and both checks that read it fail on that bracket
        a = poisson._mat([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        b = poisson._mat([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        reports = self.reports(monkeypatch, (a, b))
        for check in ("A-commutator-table", "symmetry-algebra-isomorphism"):
            assert reports[check].status == "fail"
            assert reports[check].residuals == [
                "[B1,B2] is outside the span of the basis: "
                "((0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))"
            ]

    def test_point_basis_outside_span(self):
        # [d/dq1, q1 d/dq2] = d/dq2 leaves the span of the two fields: the
        # point table has no expansion, and the isomorphism check fails on it
        d_q1 = VectorField.of(BASE_VARS, {"q1": Poly.const(BASE_VARS, 1)})
        q1_d_q2 = VectorField.of(BASE_VARS, {"q2": Poly.var(BASE_VARS, "q1")})
        with patched(symmetry, "symmetry_basis", lambda: (d_q1, q1_d_q2)):
            reports = {r.check: r for r in verify.suite_algebra()}
        iso = reports.pop("symmetry-algebra-isomorphism")
        d_q2 = VectorField.of(BASE_VARS, {"q2": Poly.const(BASE_VARS, 1)})
        assert iso.status == "fail"
        assert iso.residuals == [f"[B1,B2] is outside the span of the basis: {d_q2}"]
        assert all(r.passed for r in reports.values())
