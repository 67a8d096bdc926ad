"""Output checkers: every response is checked, and a problem counts as failed.

Each checker takes the request, the exit code and the captured stdout, and
returns a description of the first problem found, or None when the response
is correct.
"""

from __future__ import annotations

import json
import math

from workloads import Orbit, Request, argv_value

# Drift bounds per invariant: ("rel", b) bounds |I - I0| / max(|I0|, 1),
# ("abs", b) bounds |I - I0|.  RK4 on mb5 is criterion 7, Ctilde and Jtilde
# under midpoint are criterion 8.  Htilde is not conserved exactly by
# midpoint; its measured relative drift stays near 4e-5 on seeded orbits.
DRIFT_BOUNDS = {
    "mb5": {"H": ("rel", 1e-8), "C": ("rel", 1e-8), "J": ("rel", 1e-8)},
    "ham6": {"Htilde": ("rel", 1e-3), "Ctilde": ("abs", 1e-11), "Jtilde": ("abs", 1e-10)},
}
STATE_COLUMNS = {
    "mb5": ("x1", "y1", "x2", "y2", "z"),
    "ham6": ("q1", "q2", "q3", "p1", "p2", "p3"),
}

VERIFY_CHECKS = (
    "pi-antisymmetry", "pi-assembly", "jacobi-identity", "casimir",
    "hamiltonian-field", "involution", "realization-invariants",
    "realization-dynamics", "legendre-energy", "legendre-inverse", "cocycle",
    "E-commutator-table", "iso-Phi", "A-commutator-table",
    "symmetry-algebra-isomorphism", "determining-family", "determining-solver",
    "variational-identity", "variational-alpha-zero", "variational-rotation",
    "noether-conservation", "noether-basis-charges", "constants-of-motion",
    "pushforward-cotangent", "pushforward-5d", "first-order-symmetry",
    "conformal-master",
)

EXIT_OK = 0
EXIT_VERIFY = 4


def _drift_problem(system: str, name: str, initial: float, deviation: float) -> str | None:
    kind, bound = DRIFT_BOUNDS[system][name]
    value = deviation / max(abs(initial), 1.0) if kind == "rel" else deviation
    if not value <= bound:
        return f"{name} {kind} drift {value:.3e} exceeds {bound:.0e}"
    return None


def _exit_problem(rc: int, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_invariants(req: Request, rc: int, out: str) -> str | None:
    if problem := _exit_problem(rc, EXIT_OK):
        return problem
    orbit: Orbit = req.orbit
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    if payload.get("system") != orbit.system:
        return f"system {payload.get('system')!r}, expected {orbit.system}"
    if payload.get("steps") != orbit.steps:
        return f"steps {payload.get('steps')!r}, expected {orbit.steps}"
    if payload.get("h") != float(orbit.h):
        return f"h {payload.get('h')!r}, expected {orbit.h}"
    drifts = payload.get("invariants", {})
    if set(drifts) != set(DRIFT_BOUNDS[orbit.system]):
        return f"invariants {sorted(drifts)}, expected {sorted(DRIFT_BOUNDS[orbit.system])}"
    for name, d in drifts.items():
        values = (d["initial"], d["max_abs_deviation"], d["final_deviation"])
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            return f"{name} has a non-finite or non-numeric field"
        if d["final_deviation"] > d["max_abs_deviation"]:
            return f"{name} final deviation exceeds its maximum"
        if problem := _drift_problem(orbit.system, name, d["initial"], d["max_abs_deviation"]):
            return problem
    return None


def check_simulate(req: Request, rc: int, out: str) -> str | None:
    if problem := _exit_problem(rc, EXIT_OK):
        return problem
    orbit: Orbit = req.orbit
    lines = out.split("\n")
    if lines[-1] != "":
        return "CSV does not end with a newline"
    lines.pop()
    invariants = tuple(DRIFT_BOUNDS[orbit.system])
    header = ("t",) + STATE_COLUMNS[orbit.system] + invariants
    if lines[0] != ",".join(header):
        return f"CSV header {lines[0]!r}"
    rows = lines[1:]
    if len(rows) != orbit.steps + 1:
        return f"CSV has {len(rows)} rows, expected {orbit.steps + 1}"
    try:
        first = [float(v) for v in rows[0].split(",")]
    except ValueError:
        return "CSV row 0 is not numeric"
    init = [float(v) for v in argv_value(req.argv, "--init").split(",")]
    if first[0] != 0.0 or first[1 : 1 + orbit.dim] != init:
        return "CSV row 0 is not the initial state"
    inv0 = first[1 + orbit.dim :]
    worst = [0.0] * len(invariants)
    for k, row in enumerate(rows):
        try:
            values = [float(v) for v in row.split(",")]
        except ValueError:
            return f"CSV row {k} is not numeric"
        if len(values) != len(header) or not all(math.isfinite(v) for v in values):
            return f"CSV row {k} has a wrong width or a non-finite value"
        for i, v in enumerate(values[1 + orbit.dim :]):
            worst[i] = max(worst[i], abs(v - inv0[i]))
    if not math.isclose(values[0], float(orbit.t_end), rel_tol=1e-12):
        return f"CSV ends at t = {values[0]!r}, expected {orbit.t_end}"
    for name, initial, deviation in zip(invariants, inv0, worst):
        if problem := _drift_problem(orbit.system, name, initial, deviation):
            return problem
    return None


def _reports(out: str) -> list[dict] | str:
    try:
        reports = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    if not isinstance(reports, list) or not reports:
        return "verify output is not a non-empty list of reports"
    return reports


def check_verify(req: Request, rc: int, out: str) -> str | None:
    if problem := _exit_problem(rc, EXIT_OK):
        return problem
    reports = _reports(out)
    if isinstance(reports, str):
        return reports
    names = tuple(r.get("check") for r in reports)
    if names != VERIFY_CHECKS:
        return f"check names {names}"
    failed = [r["check"] for r in reports if r.get("status") != "pass" or r.get("residuals")]
    if failed:
        return f"checks failed: {failed}"
    return None


def check_mutant(req: Request, rc: int, out: str) -> str | None:
    if problem := _exit_problem(rc, EXIT_VERIFY):
        return problem
    reports = _reports(out)
    if isinstance(reports, str):
        return reports
    caught = [
        r for r in reports
        if r.get("status") == "fail" and any(res != "0" for res in r.get("residuals", []))
    ]
    if not caught:
        return "no failing check prints a nonzero residual"
    return None


def check_solve(req: Request, rc: int, out: str) -> str | None:
    if problem := _exit_problem(rc, EXIT_OK):
        return problem
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    degree = int(argv_value(req.argv, "--max-degree"))
    if payload.get("max_degree") != degree:
        return f"max_degree {payload.get('max_degree')!r}, expected {degree}"
    if payload.get("dimension") != 4 or len(payload.get("basis", ())) != 4:
        return f"dimension {payload.get('dimension')!r}, expected 4"
    if payload.get("matches_reference_family") is not True:
        return "basis does not match the reference family"
    return None


CHECKERS = {
    "invariants": check_invariants,
    "simulate": check_simulate,
    "verify": check_verify,
    "solve": check_solve,
    "mutant-pi": check_mutant,
    "mutant-family": check_mutant,
}


def check(req: Request, rc: int, out: str) -> str | None:
    return CHECKERS[req.kind](req, rc, out)
