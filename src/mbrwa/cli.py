"""Command-line front end.

Exit codes are a contract: 0 success, 2 usage error, 3 numerical failure
(a state or an invariant that is not finite, or Newton non-convergence),
4 verification failure.  CSV output is
locale-independent ('.' decimal separator, LF line endings, 17 significant
digits); verification output is a JSON array of report objects.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys

import numpy as np

from . import __version__, integrators, model, poisson, symmetry, verify
from .integrators import BlowUpError, IntegratorId, NewtonError
from .model import SystemId

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_CSV_COLUMNS = {
    system: (("t",) + model.system_vars(system).names, model.system_invariants(system))
    for system in SystemId
}
_CSV_BLOCK = 1024  # rows per write of simulate's CSV, whose whole text is never held


def _print_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbrwa",
        description="Simulate and symbolically certify the 5D Maxwell-Bloch (RWA) system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--system", required=True, choices=[s.value for s in SystemId])
        p.add_argument("--method", required=True, choices=[m.value for m in IntegratorId])
        p.add_argument("--init", required=True, help="comma-separated initial state")
        p.add_argument("--t-end", required=True, type=float)
        p.add_argument("--h", required=True, type=float)

    sim = sub.add_parser("simulate", help="integrate and emit a CSV trajectory")
    add_run_flags(sim)
    sim.add_argument("--out", help="write CSV here instead of stdout")
    sim.add_argument("--every", type=int, default=1, help="output decimation (default 1)")

    inv = sub.add_parser("invariants", help="integrate and report invariant drift as JSON")
    add_run_flags(inv)

    ver = sub.add_parser("verify", help="run symbolic verification suites")
    ver.add_argument(
        "--suite",
        default="all",
        choices=list(verify.SUITE_NAMES) + ["all"],
    )
    ver.add_argument(
        "--mutate-pi",
        metavar="I,J[,both]",
        help="testing aid: flip the sign of one Poisson tensor entry (1-based); "
        "append ',both' to flip the antisymmetric partner too",
    )
    ver.add_argument(
        "--mutate-family",
        metavar="SLOT:VAR",
        help="testing aid: flip one coefficient of the symmetry family, "
        "e.g. eta1:q2",
    )

    sub.add_parser("bracket-table", help="print the commutator tables as JSON")

    sol = sub.add_parser("solve-symmetries", help="solve the determining equations")
    sol.add_argument("--max-degree", type=int, default=2)

    sub.add_parser("version", help="print the version")
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _parse_init(parser: argparse.ArgumentParser, system: SystemId, text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        parser.error(f"--init must be a comma-separated list of numbers, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        parser.error(f"--init components must be finite, got {text!r}")
    want = model.system_dim(system)
    if len(values) != want:
        parser.error(f"--init for {system.value} needs {want} components, got {len(values)}")
    return values


def _run_trajectory(args, parser) -> integrators.Trajectory:
    """Validate every run option, then integrate; usage errors exit 2
    before any step is taken."""
    system = SystemId(args.system)
    method = IntegratorId(args.method)
    init = _parse_init(parser, system, args.init)
    if not (math.isfinite(args.h) and args.h > 0):
        parser.error("--h must be positive and finite")
    if not (math.isfinite(args.t_end) and args.t_end > 0):
        parser.error("--t-end must be positive and finite")
    try:
        integrators.step_count(0.0, args.t_end, args.h)
    except ValueError as exc:
        parser.error(f"--t-end / --h: {exc}")
    # --every exists on simulate only
    if getattr(args, "every", 1) < 1:
        parser.error("--every must be >= 1")
    try:
        return integrators.integrate(method, system, init, 0.0, args.t_end, args.h)
    except MemoryError:  # the time and state arrays are allocated before the first step
        parser.error("--t-end / --h: the trajectory does not fit in memory")


def cmd_simulate(args, parser) -> int:
    traj = _run_trajectory(args, parser)
    state_cols, invariants = _CSV_COLUMNS[traj.system]
    header = state_cols + tuple(i.value for i in invariants)
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    rows = range(0, len(traj), args.every)
    if rows[-1] != len(traj) - 1:
        rows = [*rows, len(traj) - 1]
    values = integrators.invariant_values(traj, invariants, rows)

    def block(i: int) -> str:  # CSV lines of rows[i:i + _CSV_BLOCK], formatted by one %
        k = rows[i:i + _CSV_BLOCK]
        table = np.column_stack((traj.times[k], traj.states[k], values[i:i + _CSV_BLOCK]))
        return (row_format * len(table)) % tuple(table.ravel().tolist())

    blocks = map(block, range(0, len(rows), _CSV_BLOCK))
    text = itertools.chain([",".join(header) + "\n"], blocks)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.writelines(text)
        except OSError as exc:
            parser.error(f"--out cannot be written: {exc}")
    else:
        sys.stdout.writelines(text)
    return EXIT_OK


def cmd_invariants(args, parser) -> int:
    traj = _run_trajectory(args, parser)
    report = integrators.drift_report(traj, model.system_invariants(traj.system))
    payload = {
        "system": traj.system.value,
        "steps": len(traj) - 1,
        "h": traj.h,
        "invariants": {inv.value: dataclasses.asdict(d) for inv, d in report.drifts.items()},
    }
    _print_json(payload)
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    pi = None
    family = None
    if args.mutate_pi:
        parts = args.mutate_pi.split(",")
        if len(parts) not in (2, 3) or (len(parts) == 3 and parts[2] != "both"):
            parser.error("--mutate-pi expects I,J or I,J,both")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            parser.error("--mutate-pi indices must be integers")
        if not (1 <= i <= 5 and 1 <= j <= 5):
            parser.error("--mutate-pi indices must be in 1..5")
        pi = poisson.mb_poisson_tensor()
        if pi.entry(i, j).is_zero:
            parser.error(f"--mutate-pi entry {i},{j} of the Poisson tensor is zero; "
                         "negating it changes nothing")
        pi = poisson.flip_entry_sign(pi, i, j, antisymmetric=len(parts) == 3)
    if args.mutate_family:
        try:
            slot, var = args.mutate_family.split(":")
            family = symmetry.flip_family_coefficient(
                symmetry.symbolic_family_field(), slot, var
            )
        except (ValueError, KeyError):
            parser.error("--mutate-family expects SLOT:VAR, e.g. eta1:q2")
        if family == symmetry.symbolic_family_field():
            parser.error(f"--mutate-family {slot}:{var} negates nothing: no {slot} term has {var}")
    reports = verify.run_suite(args.suite, pi=pi, family=family)
    _print_json([r.to_dict() for r in reports])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def cmd_bracket_table(args, parser) -> int:
    def table_json(table):
        return {f"{i},{j}": [str(c) for c in coeffs] for (i, j), coeffs in table.items()}

    payload = {
        "phase-space-algebra": table_json(poisson.matrix_commutator_table(poisson.E_BASIS)),
        "symmetry-matrix-algebra": table_json(poisson.matrix_commutator_table(poisson.A_BASIS)),
        "symmetry-point-fields": table_json(
            verify.point_field_commutator_table(list(symmetry.symmetry_basis()))
        ),
    }
    _print_json(payload)
    return EXIT_OK


def cmd_solve_symmetries(args, parser) -> int:
    if args.max_degree < 1:
        parser.error("--max-degree must be >= 1")
    basis = symmetry.solve_determining(args.max_degree)
    reference = symmetry.symmetry_basis()
    matches = len(basis) == 4 and symmetry.spans_match(
        basis, reference, args.max_degree
    )
    payload = {
        "max_degree": args.max_degree,
        "dimension": len(basis),
        "basis": [
            {
                "xi": str(u.xi),
                "eta1": str(u.eta[0]),
                "eta2": str(u.eta[1]),
                "eta3": str(u.eta[2]),
            }
            for u in basis
        ],
        "matches_reference_family": matches,
    }
    _print_json(payload)
    return EXIT_OK if matches else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "invariants": cmd_invariants,
        "verify": cmd_verify,
        "bracket-table": cmd_bracket_table,
        "solve-symmetries": cmd_solve_symmetries,
    }
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    try:
        return handlers[args.command](args, parser)
    except (BlowUpError, NewtonError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
