"""The three formulations, their invariants, and the connecting maps."""

import dis
import inspect
import itertools
import json
import math
import random
import re
import struct
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbrwa import integrators, model, poisson, verify
from mbrwa.integrators import BlowUpError, IntegratorId
from mbrwa.model import (
    VARS5,
    VARS6,
    VARST6,
    InvariantId,
    State5,
    State6,
    SystemId,
    TangentState6,
)
from mbrwa.polyring import Poly, lie_derivative
from oracles import NEWTON_UNKNOWNS, midpoint_step, newton_field
from patching import patched


def rand_fractions(n, rng):
    return [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(n)]


class TestRhs:
    def test_mb5_direct(self):
        assert model.rhs(SystemId.MB5, (1, 2, 3, 4, 5)) == (2, 5, 4, 15, -14)

    def test_mb5_equilibrium_line(self):
        for z0 in (-2, 0, Fraction(7, 3)):
            assert model.rhs(SystemId.MB5, (0, 0, 0, 0, z0)) == (0, 0, 0, 0, 0)

    def test_ham6_direct(self):
        qdot_pdot = model.rhs(SystemId.HAM6, (1, 0, 0, 0, 0, 1))
        assert qdot_pdot == (0, 0, Fraction(1, 2), Fraction(1, 2), 0, 0)

    def test_accepts_state_objects(self):
        s = State5(1, 2, 3, 4, 5)
        assert model.rhs(SystemId.MB5, s) == (2, 5, 4, 15, -14)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            model.rhs(SystemId.MB5, (1, 2, 3))

    @pytest.mark.parametrize("x", [(0.3, -0.5, 0.7, 0.1, -0.9, 0.4), (0.0,) * 6])
    def test_float_states_give_floats(self, x):
        # a zero or constant component, such as ham6's p3 rate, is a float
        # too, not an exact zero
        values = [v for system in SystemId for v in model.rhs(system, x[:model.system_dim(system)])]
        values += [*model.phi(State6(*x)), *model.legendre(TangentState6(*x)),
                   *model.legendre_inv(State6(*x))]
        assert [type(v) for v in values] == [float] * len(values)


class TestRhsSymbolic:
    def test_mb5_last_component(self):
        x1, y1, x2, y2, z = Poly.variables(VARS5)
        assert model.rhs_symbolic(SystemId.MB5)[4] == -x1 * y1 - x2 * y2


class TestInvariants:
    def test_h_single_term(self):
        assert model.invariant(InvariantId.H, (0, 1, 0, 0, 0)) == Fraction(1, 2)

    def test_c_direct(self):
        assert model.invariant(InvariantId.C, (1, 0, 1, 0, 0)) == 1

    def test_j_symmetric_point(self):
        assert model.invariant(InvariantId.J, (1, 0, 1, 0, 0)) == 0

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            model.invariant(InvariantId.H, (1, 2, 3, 4, 5, 6))
        with pytest.raises(ValueError):
            model.invariant(InvariantId.HTILDE, (1, 2, 3, 4, 5))

    @pytest.mark.parametrize(
        "system,invariants",
        [
            (SystemId.MB5, (InvariantId.H, InvariantId.C, InvariantId.J)),
            (SystemId.HAM6, (InvariantId.HTILDE, InvariantId.CTILDE, InvariantId.JTILDE)),
        ],
    )
    def test_symbolic_conservation(self, system, invariants):
        # gradient contracted with the dynamics is the zero polynomial
        field = model.rhs_symbolic(system)
        names = model.system_vars(system).names
        for inv in invariants:
            f = model.invariant_symbolic(inv)
            ddt = Poly.zero(f.vars)
            for name, comp in zip(names, field):
                ddt = ddt + f.diff(name) * comp
            assert ddt.is_zero, inv


# each invariant's home system, stated here independently of the VarSet
# that ``invariant_symbolic`` writes it over, from which the model derives it
INVARIANT_HOMES = {
    InvariantId.H: SystemId.MB5,
    InvariantId.C: SystemId.MB5,
    InvariantId.J: SystemId.MB5,
    InvariantId.HTILDE: SystemId.HAM6,
    InvariantId.CTILDE: SystemId.HAM6,
    InvariantId.JTILDE: SystemId.HAM6,
    InvariantId.L: SystemId.EL6,
}


def test_invariant_homes_and_their_order():
    assert {inv: model.invariant_system(inv) for inv in InvariantId} == INVARIANT_HOMES
    assert model.system_invariants(SystemId.MB5) == (InvariantId.H, InvariantId.C, InvariantId.J)
    assert model.system_invariants(SystemId.HAM6) == (
        InvariantId.HTILDE, InvariantId.CTILDE, InvariantId.JTILDE
    )
    assert model.system_invariants(SystemId.EL6) == (InvariantId.L,)


class TestPhi:
    def test_direct(self):
        assert model.phi(State6(1, 2, 3, 4, 5, 6)) == State5(1, 4, 2, 5, Fraction(7, 2))

    def test_zero_q(self):
        assert model.phi(State6(0, 0, 0, 0, 0, 11)) == State5(0, 0, 0, 0, 11)

    def test_intertwines_invariants_at_random_points(self):
        rng = random.Random(7)
        for _ in range(100):
            s = State6(*rand_fractions(6, rng))
            down = model.phi(s)
            assert model.invariant(InvariantId.H, down) == model.invariant(
                InvariantId.HTILDE, s
            )
            assert model.invariant(InvariantId.C, down) == s.p3
            assert model.invariant(InvariantId.J, down) == model.invariant(
                InvariantId.JTILDE, s
            )


    def test_section_is_right_inverse(self):
        # phi(section(x)) = x as polynomials; q3 is left free
        section = model.phi_section_symbolic()
        assert "q3" not in section
        composed = tuple(c.substitute(section) for c in model.phi_symbolic())
        assert composed == Poly.variables(model.VARS5)


class TestLegendre:
    def test_direct(self):
        assert model.legendre(TangentState6(1, 1, 0, 0, 0, 1)) == State6(1, 1, 0, 0, 0, 2)

    def test_inverse_pair_random(self):
        rng = random.Random(3)
        for _ in range(50):
            ts = TangentState6(*rand_fractions(6, rng))
            assert model.legendre_inv(model.legendre(ts)) == ts
            s = State6(*rand_fractions(6, rng))
            assert model.legendre(model.legendre_inv(s)) == s

    def test_energy_relation_symbolic(self):
        # Htilde after the fiber map equals sum(p_i qd_i) - L
        leg = dict(zip(VARS6.names, model.legendre_symbolic()))
        composed = model.invariant_symbolic(InvariantId.HTILDE).substitute(leg)
        qd = [Poly.var(VARST6, f"qd{i}") for i in (1, 2, 3)]
        energy = sum(
            (p * v for p, v in zip(model.legendre_symbolic()[3:], qd)),
            Poly.zero(VARST6),
        )
        lag = model.invariant_symbolic(InvariantId.L)
        assert (composed - (energy - lag)).is_zero


# ---------------------------------------------------------------------------
# ham6, el6 and the Legendre map, derived from H~ and L
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)


def _terms(polys) -> list:
    """Each Poly's terms in stored order, with each coefficient's type."""
    return [[(e, c, type(c)) for e, c in p.terms.items()] for p in polys]


class TestDerivedFormulations:
    """The model derives ham6 from H~, and el6 and the Legendre map from L.
    The fields as they were written by hand are stated here, and the derived
    ones equal them term for term, coefficient types and term order included
    (``Poly.eval`` sums the terms in stored order)."""

    def test_ham6_is_hamiltons_equations_of_htilde(self):
        # p3's rate is the zero Poly: p3 is conserved
        q1, q2, q3, p1, p2, p3 = Poly.variables(VARS6)
        zq = p3 - HALF * (q1**2 + q2**2)
        hand = (p1, p2, zq, q1 * zq, q2 * zq, Poly.zero(VARS6))
        assert _terms(model.rhs_symbolic(SystemId.HAM6)) == _terms(hand)

    def test_el6_is_the_euler_lagrange_system_of_l(self):
        # a first-order form: q' = qd, then the three accelerations
        q1, q2, q3, qd1, qd2, qd3 = Poly.variables(VARST6)
        hand = (qd1, qd2, qd3, q1 * qd3, q2 * qd3, -(q1 * qd1 + q2 * qd2))
        assert _terms(model.rhs_symbolic(SystemId.EL6)) == _terms(hand)

    def test_legendre_is_the_fiber_derivative_of_l(self):
        q1, q2, q3, qd1, qd2, qd3 = Poly.variables(VARST6)
        hand = (q1, q2, q3, qd1, qd2, qd3 + HALF * (q1**2 + q2**2))
        assert _terms(model.legendre_symbolic()) == _terms(hand)

    def test_the_qdot_hessian_of_l_is_the_identity(self):
        # the premise of solving the Euler-Lagrange equations for qddot
        lag, qd = model.invariant_symbolic(InvariantId.L), VARST6.names[3:]
        assert [[lag.diff(a).diff(b) for b in qd] for a in qd] == [
            [int(a == b) for b in qd] for a in qd
        ]


class TestGeneratingFunctionMutants:
    """A change of H~ or L reaches the fields derived from it, so verify sees
    it: each mutant below passed every check while ham6 and el6 were
    written out apart from H~ and L."""

    def run(self, inv, delta, system):
        """The mutant's derived field of ``system`` and verify's pass/fail
        by check name."""
        original = model.invariant_symbolic
        with patched(model, "invariant_symbolic",
                     lambda i: original(i) + delta if i is inv else original(i)):
            return (model.rhs_symbolic(system),
                    {r.check: r.passed for r in verify.run_suite("all")})

    def test_htilde_plus_q1_p3(self):
        # ham6's q3 equation gains q1, which Phi cannot see
        q1, p3 = Poly.var(VARS6, "q1"), Poly.var(VARS6, "p3")
        dq3 = model.rhs_symbolic(SystemId.HAM6)[2]
        ham6, passed = self.run(InvariantId.HTILDE, q1 * p3, SystemId.HAM6)
        assert ham6[2] == dq3 + q1
        assert not passed["realization-invariants"]

    def test_l_plus_a_gyroscopic_term(self):
        # el6's third acceleration gains (q1*qd2 - q2*qd1)/2, and the first
        # two gyroscopic terms
        q1, q2, q3, qd1, qd2, qd3 = Poly.variables(VARST6)
        gyro, acc3 = q1 * qd2 - q2 * qd1, model.rhs_symbolic(SystemId.EL6)[5]
        el6, passed = self.run(InvariantId.L, HALF * q3 * gyro, SystemId.EL6)
        assert el6[5] == acc3 + HALF * gyro
        assert not passed["legendre-energy"]
        assert not passed["determining-family"]


def _det(m) -> Poly:
    """The determinant of a square matrix of Polys, by the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


class TestRealizationCertificates:
    """Phi is a Poisson map onto (R^5, Pi) and a submersion, so it is a
    symplectic realization, the Legendre map FL carries el6's field to
    ham6's, and pi = Phi o FL carries it to mb5's: exact identities of
    polynomials, at every point."""

    PHI = model.phi_symbolic()
    DPHI = [[c.diff(v) for v in VARS6.names] for c in PHI]

    def poisson_map_residuals(self, pi) -> list:
        """The 25 entries of DPhi J DPhi^T - Pi o Phi, J canonical on (q, p)."""
        d, at_phi = self.DPHI, dict(zip(VARS5.names, self.PHI))
        return [
            sum(d[a][i] * d[b][i + 3] - d[a][i + 3] * d[b][i] for i in range(3))
            - pi[a][b].substitute(at_phi)
            for a in range(5) for b in range(5)
        ]

    def test_phi_is_a_poisson_map(self):
        residuals = self.poisson_map_residuals(poisson.mb_poisson_tensor())
        assert len(residuals) == 25
        assert all(r.is_zero for r in residuals), [str(r) for r in residuals]

    @pytest.mark.parametrize("i, j, antisymmetric", [
        (1, 2, True), (3, 4, True), (2, 5, True), (4, 5, True), (2, 5, False),
    ])
    def test_each_mutated_tensor_breaks_it(self, i, j, antisymmetric):
        # the tensors of verify --mutate-pi I,J,both and I,J
        pi = poisson.flip_entry_sign(poisson.mb_poisson_tensor(), i, j, antisymmetric)
        assert not all(r.is_zero for r in self.poisson_map_residuals(pi))

    def test_phi_is_a_submersion(self):
        # the minor of DPhi over (q1, p1, q2, p2, p3) is 1 everywhere
        cols = [VARS6.index(v) for v in ("q1", "p1", "q2", "p2", "p3")]
        assert _det([[row[k] for k in cols] for row in self.DPHI]) == 1

    def test_legendre_carries_el6_to_ham6(self):
        # DFL . f_el6 = f_ham6 o FL, one identity per component
        leg = model.legendre_symbolic()
        el6 = dict(zip(VARST6.names, model.rhs_symbolic(SystemId.EL6)))
        at_leg = dict(zip(VARS6.names, leg))
        pushed = [lie_derivative(el6, c) for c in leg]
        assert pushed == [f.substitute(at_leg) for f in model.rhs_symbolic(SystemId.HAM6)]

    PI = [c.substitute(dict(zip(VARS6.names, model.legendre_symbolic()))) for c in PHI]

    def reduction_residuals(self, mb5) -> list:
        """The 5 entries of pi_* X_el6 - X_mb5 o pi, pi = Phi o FL, for the mb5 field ``mb5``."""
        el6 = dict(zip(VARST6.names, model.rhs_symbolic(SystemId.EL6)))
        at_pi = dict(zip(VARS5.names, self.PI))
        return [lie_derivative(el6, c) - f.substitute(at_pi) for c, f in zip(self.PI, mb5)]

    def test_pi_is_the_coordinate_projection(self):
        q1, q2, q3, qd1, qd2, qd3 = Poly.variables(VARST6)
        assert self.PI == [q1, qd1, q2, qd2, qd3]

    def test_el6_reduces_to_mb5(self):
        residuals = self.reduction_residuals(model.rhs_symbolic(SystemId.MB5))
        assert len(residuals) == 5
        assert all(r.is_zero for r in residuals), [str(r) for r in residuals]

    def test_a_mutated_mb5_field_breaks_the_reduction(self):
        # x2 added to mb5's y1 rate leaves only that entry, -q2
        mb5 = list(model.rhs_symbolic(SystemId.MB5))
        mb5[1] = mb5[1] + Poly.variables(VARS5)[2]
        residuals = self.reduction_residuals(mb5)
        assert [r.is_zero for r in residuals] == [True, False, True, True, True]
        assert residuals[1] == -Poly.variables(VARST6)[1]


EMITS = ("none", "fold", "rows")


def test_generated_kernel_source_is_pinned():
    # The float kernels are generated from the exact polynomials; the golden
    # file pins every text they are compiled from, each run loop (one per
    # method and emit) and the invariants kernel, so a change in how
    # coefficients are stored, or in where a step is built, cannot move a
    # compiled constant or the order of its operations.
    golden = json.loads((Path(__file__).parent / "data" / "kernel_sources.json").read_text())
    compiled = {
        system.value: {
            **{f"{method.value}_{emit}": integrators._compile_run(method, system, emit).source
               .split("\n") for method in IntegratorId for emit in EMITS},
            "invariants": model.invariants_compiled(system).source.split("\n"),
        }
        for system in SystemId
    }
    assert compiled == golden["compiled_sources"]


@pytest.mark.parametrize("emit", EMITS)
@pytest.mark.parametrize("system", list(SystemId))
def test_midpoint_iteration_repeats_no_work(system, emit):
    # what a fixed h fixes is set once per run: a Newton iteration, up to its
    # packs, sets no c and no Newton-matrix entry whose derivative is a
    # constant, and it evaluates each power once, as does the predictor.  Its
    # packs write only spans that hold an entry it sets
    lines = [line.strip() for line in
             integrators._compile_run(IntegratorId.IMPLICIT_MIDPOINT, system, emit).source.split("\n")]
    start = lines.index("for _ in range(50):") + 1
    stop = next(i for i in range(start, len(lines)) if lines[i].startswith("pack0("))
    iteration = "\n".join(lines[start:stop])
    packs = [re.fullmatch(r"pack\d+\(buf, \d+, (.*)\)", line) for line in lines[stop:]]
    for args in (pack[1].split(", ") for pack in packs if pack):
        assert args[0].startswith("o") and args[-1].startswith("o")
    x, mid = model.system_vars(system).names, [f"m{i}" for i in range(model.system_dim(system))]
    constant = [f"{'1.0' if i == j else '0.0'} - c*{model._poly_source(d, mid)}"
                for i, p in enumerate(model.rhs_symbolic(system))
                for j, d in enumerate(p.diff(v) for v in x) if d.total_degree() == 0]
    assert constant and "c = " not in iteration
    assert not [entry for entry in constant if entry in iteration]
    predictor = "\n".join(lines[lines.index("t = t0 + h*k") + 1:lines.index("update_norm = inf")])
    for text in (predictor, iteration):
        powers = re.findall(r"\b\w+\*\*\d+", text)
        assert len(powers) == len(set(powers))


@pytest.mark.parametrize("args", [*itertools.product(IntegratorId, SystemId, EMITS), (5,), (6,)],
                         ids=lambda args: "-".join(getattr(a, "value", str(a)) for a in args))
def test_every_run_loop_makes_only_plain_calls(args):
    # a call with more than 30 arguments, such as a pack_into of 29 doubles,
    # compiles to a list built one append at a time and CALL_FUNCTION_EX, a
    # few times the cost of a plain call; args (5,) and (6,) are field loops
    # (a midpoint loop's numpy error state wraps it, one ``func(*args)`` a call)
    run = (integrators._compile_run if len(args) == 3 else integrators._field_midpoint)(*args)
    assert "CALL_FUNCTION_EX" not in {op.opname for op in dis.get_instructions(inspect.unwrap(run))}


@pytest.mark.parametrize("system", list(SystemId))
def test_rk4_stages_and_invariants_evaluate_each_power_once(system):
    # each stage hoists the powers its rhs repeats, each invariant those it
    # repeats; the stages' powers are of different locals
    lines = [line.strip() for line in
             integrators._compile_run(IntegratorId.RK4, system, "none").source.split("\n")]
    step = "\n".join(lines[lines.index("t = t0 + h*k") + 1:])
    powers = re.findall(r"\b\w+\*\*\d+", step)
    assert len(powers) == len(set(powers))
    for block in "\n".join(model.invariant_lines(system)).split("try:"):
        powers = re.findall(r"\b\w+\*\*\d+", block)
        assert len(powers) == len(set(powers))
    # the stage weights, fixed by h, are set once per run, before its loop, in every emit
    for emit in EMITS:
        run = integrators._compile_run(IntegratorId.RK4, system, emit).source.split("\n")
        assert _setup([line.strip() for line in run])[:2] == ["a = 0.5 * h", "b = h / 6.0"]


def test_compiled_rhs_matches_symbolic():
    import numpy as np

    rng = random.Random(5)
    for system in SystemId:
        fast = model.rhs_compiled(system)
        for _ in range(10):
            point = [rng.uniform(-2, 2) for _ in range(model.system_dim(system))]
            exact = model.rhs(system, point)
            assert np.allclose(fast(np.array(point)), [float(v) for v in exact], rtol=1e-15)


# ---------------------------------------------------------------------------
# Generated scalar kernels against the numpy renditions, bit for bit
# ---------------------------------------------------------------------------

# doubles whose scalar x**2 (libm pow) differs from x*x in the last bit
POW_NOT_MUL = (-1.818447760617123, -1.8375751333484804, -0.9667936558439592)


@st.composite
def system_states(draw):
    system = draw(st.sampled_from(list(SystemId)))
    n = model.system_dim(system)
    return system, draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@given(system_states(), st.floats(0.0, 0.5, exclude_min=True))
@example((SystemId.HAM6, [POW_NOT_MUL[0], POW_NOT_MUL[1], 0.3, 0.1, -0.2, POW_NOT_MUL[2]]), 0.5)
@settings(max_examples=300)
def test_rk4_kernel_is_the_array_step(case, h):
    system, x = case
    got = integrators._compile_run(IntegratorId.RK4, system, "none")(*x, 0.0, h, 1, 2)
    want = integrators.rk4_step_field(model.rhs_compiled(system), np.array(x), 0.0, h)
    assert _bits(got) == want.tobytes()


@given(system_states())
@example((SystemId.MB5, [POW_NOT_MUL[0], POW_NOT_MUL[1], POW_NOT_MUL[2], 0.5, -1.5]))
@example((SystemId.HAM6, [POW_NOT_MUL[0], POW_NOT_MUL[1], 0.3, POW_NOT_MUL[2], 0.5, -1.5]))
@example((SystemId.EL6, [POW_NOT_MUL[0], POW_NOT_MUL[1], 0.3, POW_NOT_MUL[2], 0.5, -1.5]))
@settings(max_examples=300)
def test_invariants_kernel_is_each_compiled_invariant(case):
    system, x = case
    got = model.invariants_compiled(system)(*x)
    want = [model.invariant_compiled(inv)(np.array(x)) for inv in model.system_invariants(system)]
    assert _bits(got) == _bits(want)


def test_invariants_kernel_overflow_is_nan():
    # Python float ** raises OverflowError where numpy returns inf
    h, c, j = model.invariants_compiled(SystemId.MB5)(0.0, 0.0, 0.0, 0.0, 1e155)
    assert math.isnan(h)
    assert (c, j) == (1e155, 0.0)
    # H~ evaluates q1**2 once, inside its own try: its overflow leaves C~ and J~
    h, c, j = model.invariants_compiled(SystemId.HAM6)(1e155, 0.0, 0.0, 0.0, 0.0, 0.5)
    assert math.isnan(h)
    assert (c, j) == (0.5, 0.0)


def test_rk4_kernel_overflow_is_nan():
    # q1**3 overflows a float ** in the first stage: the run stops with a
    # blow-up at the step's time, and the step is all nan
    run = integrators._compile_run(IntegratorId.RK4, SystemId.HAM6, "none")
    with pytest.raises(BlowUpError) as exc:
        run(1e110, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-3, 1, 2)
    assert exc.value.time == 1e-3 and exc.value.invariant is None
    out = integrators.step(IntegratorId.RK4, SystemId.HAM6, (1e110, 0, 0, 0, 0, 0), 0.0, 1e-3)
    assert len(out) == 6 and all(map(math.isnan, out))


def _run_lines(method: IntegratorId, system: SystemId) -> list:
    """The stripped lines of the system's run loop text without an emit."""
    return [line.strip() for line in integrators._compile_run(method, system, "none").source.split("\n")]


def _rk4_kernel(system: SystemId):
    """The RK4 step of the system's run text, the setup that h fixes then
    the lines of one step, as a function ``(*x, h) -> tuple``."""
    lines, x = _run_lines(IntegratorId.RK4, system), model.system_vars(system).names
    start = lines.index("t = t0 + h*k") + 1
    stop = next(i for i, line in enumerate(lines) if line.startswith("if not isfinite("))
    return model._compile_scalar("_rk4", (*x, "h"), _setup(lines) + lines[start:stop], x)


def _setup(lines: list) -> list:
    """The setup that h fixes in the stripped lines of a run text: the
    lines that ``_run`` runs before its loop, up to the midpoint buffers or
    the emit slot's ``= acc``."""
    start = next(i for i, line in enumerate(lines) if line.startswith("def _run(")) + 1
    return lines[start:next(i for i in range(start, len(lines)) if lines[i] == "try:"
                            or lines[i].startswith("buf, update = ") or lines[i].endswith("= acc"))]


def _pack_args(lines: list) -> list:
    """The Newton operands in ``buf`` after a Newton evaluation, in the
    stripped lines of a midpoint run text: the setup's ``np.array`` list
    with each ``pack<i>(buf, offset, ...)`` of the iteration written over it."""
    setup = next(line for line in lines if line.startswith("buf, update = np.array(["))
    entries = setup[len("buf, update = np.array(["):setup.index("])")].split(", ")
    for line in lines:
        if pack := re.fullmatch(r"pack\d+\(buf, (\d+), (.*)\)", line):
            first, args = int(pack[1]) // 8, pack[2].split(", ")
            entries[first:first + len(args)] = args
    return entries


def _newton_kernel(system: SystemId):
    """The Newton evaluation of the system's midpoint step text, the setup
    that h fixes (not the buffers), the zero-rate midpoints that the step
    sets after its predictor, then the lines of an iteration before its
    test of the entries, as a function ``(*x, *new, h) -> tuple`` of the
    operands ``_pack_args`` reads: the residual over the Newton unknowns,
    then the Newton matrix row by row, in their order.  ``new`` has an entry
    for every variable; the unknowns' and the zero-rate variables' are read."""
    lines = _run_lines(IntegratorId.IMPLICIT_MIDPOINT, system)
    start = lines.index("for _ in range(50):") + 1
    fixed = [line for line in lines[lines.index("t = t0 + h*k"):start] if re.match(r"m\d+ = ", line)]
    body = fixed + lines[start:next(i for i in range(start, len(lines))
                                    if lines[i].startswith("if not isfinite("))]
    new = [f"n{i}" for i in range(model.system_dim(system))]
    return model._compile_scalar("_newton", (*model.system_vars(system).names, *new, "h"),
                                 _setup(lines) + body, _pack_args(lines))


def _newton_states(n: int) -> list:
    """200 seeded states in [-1, 1], one whose squares differ from x*x, and
    one with a last component of 1e8 (p3 on ham6)."""
    rng = np.random.default_rng(2014)
    states = rng.uniform(-1.0, 1.0, (200, n)).tolist()
    return states + [[*POW_NOT_MUL, 0.5, -0.25, 0.75][:n], [0.1, 0.2, 0.3, 0.1, 0.2, 1e8][-n:]]


@pytest.mark.parametrize("system", list(SystemId))
def test_midpoint_kernel_is_the_array_step(system):
    # the generated residual and Newton matrix over the Newton unknowns, and
    # the system stepper built on them, against the numpy renditions of the
    # rhs and its Jacobian over the same unknowns (tests/oracles.py)
    n, u = model.system_dim(system), [model.system_vars(system).index(v)
                                      for v in NEWTON_UNKNOWNS[system]]
    kernel = _newton_kernel(system)
    run = integrators._compile_run(IntegratorId.IMPLICIT_MIDPOINT, system, "none")
    rng = np.random.default_rng(6)
    for x in _newton_states(n):
        for h in (0.05, -0.05):
            new = np.array(x) + rng.uniform(-0.1, 0.1, n)
            mid = 0.5 * (np.array(x) + new)
            f, jac = newton_field(system, mid)
            want = [*(new[u] - np.array(x)[u] - h * f(mid[u])),
                    *(np.eye(len(u)) - 0.5 * h * jac(mid[u])).ravel()]
            assert _bits(kernel(*x, *new.tolist(), h)) == _bits(want)
            got = run(*x, 0.0, h, 1, 2)
            assert _bits(got) == midpoint_step(system, x, 0.0, h).tobytes()


def _unfolded_source(p: Poly, names) -> str:
    """``p`` as the kernels were written before +-1 coefficients were folded:
    every term ``repr(float(c))*x**k*...``, the terms joined by ``" + "``.
    Written here, apart from ``model._poly_source``, so that a wrong fold
    there cannot hide in both texts."""
    if p.is_zero:
        return "0.0"
    terms = []
    for e, c in p.sorted_terms():
        factors = (v if k == 1 else f"{v}**{k}" for v, k in zip(names, e) if k)
        terms.append("*".join([repr(float(c)), *factors]))
    return "(" + " + ".join(terms) + ")"


def _outcome(fn, *args):
    """The bits of ``fn(*args)``, every nan as one pattern (IEEE 754 leaves
    the sign of a nan result open, and ``-x`` flips it where ``-1.0*x`` need
    not), or the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            values = fn(*args)
    except OverflowError as exc:
        return repr(exc)
    return [b"nan" if math.isnan(v) else struct.pack("d", v) for v in values]


# components that fold, overflow a float ** (1e155**2), or carry a sign
FOLD_VALUES = [*POW_NOT_MUL, 0.0, -0.0, 1.0, -1.0, 1e155, -1e155, math.nan]
FOLD_STATES = st.lists(st.sampled_from(FOLD_VALUES) | st.floats(-2.0, 2.0), min_size=6, max_size=6)


@lru_cache(maxsize=None)
def _unfolded_kernels(system: SystemId) -> tuple:
    """The Newton evaluation over ``NEWTON_UNKNOWNS``, the invariants and
    the rhs of ``system``, compiled by ``model._compile_scalar`` from
    ``_unfolded_source`` texts."""
    names, f = model.system_vars(system).names, model.rhs_symbolic(system)
    mid, u = [f"m{i}" for i in range(len(names))], [names.index(v) for v in NEWTON_UNKNOWNS[system]]
    out = [f"n{i} - {names[i]} - h*{_unfolded_source(f[i], mid)}" for i in u]
    for i in u:
        for j in u:
            d, eye = f[i].diff(names[j]), "1.0" if i == j else "0.0"
            out.append(eye if d.is_zero else f"{eye} - c*{_unfolded_source(d, mid)}")
    new = [f"n{i}" for i in range(len(names))]
    body = ["c = 0.5 * h", *(f"{m} = 0.5*({xi} + {ni})" for m, xi, ni in zip(mid, names, new))]
    newton = model._compile_scalar("_newton", (*names, *new, "h"), body, out)
    invs = [_unfolded_source(model.invariant_symbolic(inv), names)
            for inv in model.system_invariants(system)]
    body = [line for i, src in enumerate(invs) for line in
            ("try:", f"    v{i} = {src}", "except OverflowError:", f"    v{i} = float('nan')")]
    invariants = model._compile_scalar("_invariants", names, body,
                                       [f"v{i}" for i in range(len(invs))])
    rhs = model._compile_scalar("_rhs", names, [], [_unfolded_source(p, names) for p in f])
    return newton, invariants, rhs


@given(st.sampled_from(list(SystemId)), FOLD_STATES, FOLD_STATES, st.floats(-0.5, 0.5))
@example(SystemId.MB5, [-0.0, *POW_NOT_MUL, 1e155, math.nan], [0.0, *POW_NOT_MUL, -1.0, 1.0], 0.05)
@example(SystemId.HAM6, [1e155, -0.0, *POW_NOT_MUL, 1.0], [-1.0, 0.0, 0.5, *POW_NOT_MUL], -0.05)
@settings(max_examples=200)
def test_folded_kernels_are_the_unfolded_texts(system, x, new, h):
    # the rhs (in the RK4 step and the Newton residual), the Newton matrix
    # entries and the invariants, each against its unfolded text, bit for bit
    n = model.system_dim(system)
    x, new = x[:n], new[:n]
    newton, invariants, rhs = _unfolded_kernels(system)
    assert _outcome(_newton_kernel(system), *x, *new, h) == _outcome(newton, *x, *new, h)
    assert _outcome(model.invariants_compiled(system), *x) == _outcome(invariants, *x)
    field = lambda s: np.array(rhs(*s.tolist()))  # Python floats: scalar pow, as the step
    want = _outcome(integrators.rk4_step_field, field, np.array(x), 0.0, h)
    assert _outcome(_rk4_kernel(system), *x, h) == want


def _newton_update(out: tuple, n: int) -> tuple:
    """0.0 minus the Newton update that ``integrators._MIDPOINT_STEP`` solves
    for the kernel output ``out``: from the zero state, with a zero field.
    The next evaluation returns a zero residual and the identity matrix, so
    a finite update has converged by then and is not moved."""
    outs = iter([out, (*(0.0,) * n, *np.eye(n).ravel().tolist())])
    return integrators._field_midpoint(n)(*(0.0,) * n, 0.0, 0.05, 1, 2,
                                          lambda *s: (0.0,) * n, lambda *x_new_h: next(outs))


@pytest.mark.parametrize("system", list(SystemId))
def test_newton_solve_is_numpy_solve_bit_for_bit(system):
    # the buffered LAPACK kernel against np.linalg.solve, on the generated
    # Newton systems over the unknowns and on ill-conditioned matrices of
    # their size (0.0 - d is exact, up to the sign of a zero)
    dim, n = model.system_dim(system), len(NEWTON_UNKNOWNS[system])
    kernel = _newton_kernel(system)
    rng = np.random.default_rng(9)
    outs = []
    for x in _newton_states(dim):
        for h in (0.05, -0.05):
            new = np.array(x) + rng.uniform(-0.1, 0.1, dim)
            outs.append(kernel(*x, *new.tolist(), h))
    assert {len(out) for out in outs} == {n + n * n}
    hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0)
    nearly_singular = np.eye(n)
    nearly_singular[-1] = nearly_singular[0] + 1e-15 * rng.uniform(0.5, 1.0, n)
    graded = np.diag(10.0 ** np.linspace(-12, 12, n)) @ rng.uniform(-1.0, 1.0, (n, n))
    for matrix in (hilbert, nearly_singular, graded):
        for _ in range(10):
            outs.append((*rng.uniform(-1.0, 1.0, n).tolist(), *matrix.ravel().tolist()))
    for out in outs:
        want = np.linalg.solve(np.reshape(out[n:], (n, n)), out[:n]).tolist()
        assert _bits(_newton_update(out, n)) == _bits([0.0 - d for d in want])
