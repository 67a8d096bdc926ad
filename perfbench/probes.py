"""Per-layer probes: the public functions of each layer, on fixed operands.

Every probe runs inside a tracer span (request id "probe"), and each metric
is derived from those spans: a timing is the median over repetitions of the
span duration divided by the operations it covers.  Operands do not depend
on the workload seed, so the counts repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

from mbrwa import cli, integrators, model, poisson, polyring, symmetry, verify
from mbrwa.integrators import IntegratorId
from mbrwa.model import InvariantId, SystemId
from mbrwa.polyring import Poly

import speed
import tracing
from tracing import Tracer

PROBE_INIT5 = (0.3, -0.5, 0.7, 0.1, -0.9)
PROBE_INIT6 = (0.3, -0.5, 0.7, 0.1, -0.9, 0.4)
RK4_H, RK4_T = 1e-3, 2.0  # 2000 steps
MID_H, MID_T = 1e-2, 5.0  # 500 steps
INVARIANTS = (
    InvariantId.H, InvariantId.C, InvariantId.J,
    InvariantId.HTILDE, InvariantId.CTILDE, InvariantId.JTILDE,
)


class Probes:
    def __init__(self, tracer: Tracer, sampler: speed.Sampler):
        self.tracer = tracer
        self.sampler = sampler
        self.metrics: dict[str, float] = {}

    def time(self, metric: str, fn, n: int = 1, reps: int = 5, scale: float = 1e6):
        """Median over ``reps`` spans of the time per call of ``fn`` (n calls
        per span), in reference-CPU units of 1/scale seconds; returns the
        last result."""
        per_op = []
        for _ in range(reps):
            with self.tracer.span(metric, rid="probe", n=n), self.sampler.timed() as timing:
                for _ in range(n):
                    out = fn()
            per_op.append(timing.reference_s / n * scale)
        self.metrics[metric] = statistics.median(per_op)
        return out

    def count(self, metric: str, value: float) -> None:
        self.tracer.counts[metric] = value
        self.metrics[metric] = value


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"probe request {argv} exited {rc}")
    return out.getvalue()


def probe_model(p: Probes) -> None:
    def compile_all():
        for system in (SystemId.MB5, SystemId.HAM6, SystemId.EL6):
            model.compile_poly_vector(model.rhs_symbolic(system), model.system_vars(system))
        model.rhs_jacobian_compiled.__wrapped__(SystemId.HAM6)
        for inv in INVARIANTS:
            model.invariant_compiled.__wrapped__(inv)

    p.time("model.compile_ms", compile_all, scale=1e3)
    s5, s6 = np.array(PROBE_INIT5), np.array(PROBE_INIT6)
    f5, f6 = model.rhs_compiled(SystemId.MB5), model.rhs_compiled(SystemId.HAM6)
    jac6 = model.rhs_jacobian_compiled(SystemId.HAM6)
    p.time("model.rhs_us.mb5", lambda: f5(s5), n=2000)
    p.time("model.rhs_us.ham6", lambda: f6(s6), n=2000)
    p.time("model.jac_us.ham6", lambda: jac6(s6), n=500)
    for inv in INVARIANTS:
        fn = model.invariant_compiled(inv)
        s = s5 if model.invariant_system(inv) is SystemId.MB5 else s6
        p.time(f"model.invariant_us.{inv.value}", lambda: fn(s), n=2000)


class _Counting:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return self.fn(s)


def _replay_counts(method: str, f, jac, s: np.ndarray, h: float, steps: int) -> list[tuple[int, int]]:
    """(rhs calls, Jacobian calls) per step along an orbit, via the step cores."""
    cf, cj = _Counting(f), _Counting(jac)
    per_step = []
    for k in range(steps):
        before = (cf.calls, cj.calls)
        if method == "rk4":
            s = integrators.rk4_step_field(cf, s, k * h, h)
        else:
            s = integrators.midpoint_step_field(cf, cj, s, k * h, h)
        per_step.append((cf.calls - before[0], cj.calls - before[1]))
    return per_step


def probe_integrators(p: Probes) -> None:
    state5 = model.State5(*PROBE_INIT5)
    state6 = model.State6(*PROBE_INIT6)
    p.time("integrators.rk4_step_us",
           lambda: integrators.step(IntegratorId.RK4, SystemId.MB5, state5, 0.0, RK4_H), n=500)
    p.time("integrators.midpoint_step_us",
           lambda: integrators.step(IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, state6, 0.0, MID_H),
           n=100)

    rk4_steps, mid_steps = round(RK4_T / RK4_H), round(MID_T / MID_H)
    traj = p.time(
        "integrators.integrate_us_per_step.rk4",
        lambda: integrators.integrate(IntegratorId.RK4, SystemId.MB5, PROBE_INIT5, 0.0, RK4_T, RK4_H),
        reps=3, scale=1e6 / rk4_steps,
    )
    p.time(
        "integrators.integrate_us_per_step.midpoint",
        lambda: integrators.integrate(
            IntegratorId.IMPLICIT_MIDPOINT, SystemId.HAM6, PROBE_INIT6, 0.0, MID_T, MID_H
        ),
        reps=3, scale=1e6 / mid_steps,
    )

    f5, f6 = model.rhs_compiled(SystemId.MB5), model.rhs_compiled(SystemId.HAM6)
    jac6 = model.rhs_jacobian_compiled(SystemId.HAM6)
    with p.tracer.span("integrators.replay_counts", rid="probe", n=rk4_steps + mid_steps):
        rk4 = _replay_counts("rk4", f5, None, np.array(PROBE_INIT5), RK4_H, rk4_steps)
        mid = _replay_counts("midpoint", f6, jac6, np.array(PROBE_INIT6), MID_H, mid_steps)
    p.count("integrators.rhs_evals_per_step.rk4", sum(r for r, _ in rk4) / rk4_steps)
    p.count("integrators.rhs_evals_per_step.midpoint", sum(r for r, _ in mid) / mid_steps)
    p.count("integrators.newton_iters_mean", sum(j for _, j in mid) / mid_steps)
    p.count("integrators.newton_iters_max", max(j for _, j in mid))

    invariants = integrators.system_invariants(SystemId.MB5)
    p.time("integrators.drift_report_ms", lambda: integrators.drift_report(traj, invariants),
           scale=1e3)
    p.metrics["integrators.drift_us_per_state"] = (
        p.metrics["integrators.drift_report_ms"] * 1e3 / len(traj)
    )
    p.count("integrators.trajectory_bytes", traj.states.nbytes)


def probe_cli(p: Probes) -> None:
    """Self time of the request handlers: a traced request minus its
    integrate, drift-report and invariant-evaluation spans."""
    init = ",".join(repr(v) for v in PROBE_INIT5)
    run = ["--system", "mb5", "--method", "rk4", f"--init={init}",
           "--t-end", repr(RK4_T), "--h", repr(RK4_H)]
    tracer = p.tracer
    for command in ("invariants", "simulate"):
        per_rep = []
        with tracing.instrumented(tracer, *tracing.mbrwa_boundaries()):
            for _ in range(5):
                with p.sampler.timed() as timing:
                    out = _run_cli([command, *run])
                handler = max(i for i, s in enumerate(tracer.spans) if s.name == f"cli.{command}")
                self_s = tracing.self_time(tracer.spans, handler)
                per_rep.append(speed.reference(self_s, timing.samples) * 1e3)
        p.metrics[f"cli.self_ms.{command}"] = statistics.median(per_rep)
    p.count("cli.csv_bytes", len(out.encode()))


def determining_matrix(max_degree: int) -> list[list[Fraction]]:
    """The determining-equation matrix of the degree-``max_degree`` ansatz,
    assembled column by column from single-monomial unit fields."""
    monos = sorted(
        (e for e in itertools.product(range(max_degree + 1), repeat=4) if sum(e) <= max_degree),
        key=lambda e: (sum(e), e),
    )
    zero = Poly.zero(symmetry.BASE_VARS)
    columns = []
    for slot in range(4):
        for m in monos:
            comps = [zero] * 4
            comps[slot] = Poly(symmetry.BASE_VARS, {m: Fraction(1)})
            u = symmetry.JetVectorField(xi=comps[0], eta=tuple(comps[1:]))
            columns.append(symmetry.determining_residuals(u))
    row_keys = sorted({(i, e) for col in columns for i, r in enumerate(col) for e in r.terms})
    return [[col[i].coefficient(e) for col in columns] for i, e in row_keys]


def probe_symbolic(p: Probes) -> None:
    charge = symmetry.noether_charge_symbolic().poly
    cv = charge.vars
    z = Poly.var(cv, "p3") - Fraction(1, 2) * (Poly.var(cv, "q1") ** 2 + Poly.var(cv, "q2") ** 2)
    p.time("polyring.mul_us", lambda: charge * charge, n=50)
    p.time("polyring.diff_us", lambda: charge.diff("q1"), n=500)
    p.time("polyring.substitute_us", lambda: charge.substitute({"p3": z}), n=20)

    matrix = p.time("symmetry.assemble_ms", lambda: determining_matrix(3), reps=1, scale=1e3)
    rank = p.time("polyring.rref_ms", lambda: polyring.matrix_rank(matrix), reps=1, scale=1e3)
    p.count("polyring.rref_rows", len(matrix))
    p.count("polyring.rref_cols", len(matrix[0]))
    p.count("polyring.rref_nnz", sum(1 for row in matrix for c in row if c))
    p.count("polyring.rref_rank", rank)
    for d, reps in ((1, 3), (2, 3), (3, 1)):
        p.time(f"symmetry.solve_determining_ms.d{d}", lambda: symmetry.solve_determining(d),
               reps=reps, scale=1e3)

    p.time("poisson.jacobi_ms", poisson.all_jacobi_residuals, reps=5, scale=1e3)
    reports = []
    for suite in verify.SUITE_NAMES:
        reports += p.time(f"verify.suite_ms.{suite}", lambda: verify.run_suite(suite),
                          reps=3, scale=1e3)
    p.count("verify.checks_total", len(reports))
    p.count("verify.checks_passed", sum(r.passed for r in reports))


def run_probes(tracer: Tracer, sampler: speed.Sampler) -> dict[str, float]:
    p = Probes(tracer, sampler)
    started = perf_counter()
    probe_model(p)
    probe_integrators(p)
    probe_cli(p)
    probe_symbolic(p)
    tracer.counts["probe_seconds"] = perf_counter() - started
    return p.metrics
