"""Command-line front end.

Exit codes are a contract: 0 success, 2 usage error, 3 numerical failure
(a state or an invariant that is not finite, or Newton non-convergence),
4 verification failure, and 141 (128 + SIGPIPE) when the reader closes
stdout before the output is written, with nothing on stderr.  CSV output is
locale-independent ('.' decimal separator, LF line endings, 17 significant
digits); verification output is a JSON array of report objects.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import itertools
import json
import math
import os
import sys
from functools import cache

from . import __version__, integrators, model, poisson, symmetry, verify
from .integrators import BlowUpError, IntegratorId, NewtonError
from .model import SystemId

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command a closed pipe stopped

CSV_BLOCK = 1024  # rows per write of simulate's CSV

# Highest solve-symmetries degree: degree 12 solves in about 1 s at 60 MB
# peak on a 2-core host, degree 20 in 4 s at 220 MB, and the ansatz walks
# (d+1)^4 exponent tuples before any jet is built
MAX_SOLVE_DEGREE = 12


def _print_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


@cache  # built once per process: a parse reads the parser and never changes it
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
    sol.add_argument(
        "--max-degree", type=int, default=2, help=f"ansatz degree, 1 to {MAX_SOLVE_DEGREE}"
    )

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


def _run_args(args, parser) -> tuple[IntegratorId, SystemId, list[float]]:
    """The method, system and initial state, once every run option is valid
    (usage errors exit 2)."""
    system, method = SystemId(args.system), IntegratorId(args.method)
    init = _parse_init(parser, system, args.init)
    try:
        integrators.step_count(0.0, args.t_end, args.h)
    except ValueError as exc:
        parser.error(f"--t-end / --h: {exc}")
    # --every exists on simulate only
    if getattr(args, "every", 1) < 1:
        parser.error("--every must be >= 1")
    return method, system, init


def cmd_simulate(args, parser) -> int:
    method, system, init = _run_args(args, parser)
    names = model.system_vars(system).names
    header = ("t", *names, *(inv.value for inv in model.system_invariants(system)))
    try:  # every --every-th row and the last, 8 bytes a value, held until the run ends
        packed = integrators.run_rows(method, system, init, 0.0, args.t_end, args.h, args.every)
    except MemoryError:
        parser.error("--t-end / --h: the trajectory does not fit in memory")
    # an invariant column arrives as text, each distinct value formatted once;
    # "%.24s" never cuts a "%.17g" text (24 characters at most) and is as long
    # as "%.17g", so the text of a block grows as it did (see README)
    width, first = len(header), 1 + len(names)
    row_format = ",".join(["%.17g"] * first + ["%.24s"] * (width - first)) + "\n"
    size, block_format = CSV_BLOCK * width, row_format * CSV_BLOCK

    def block(i: int) -> str:  # CSV lines of packed[i:i + size], formatted by one %
        chunk = packed[i:i + size].tolist()
        for j in range(first, width):
            column = chunk[j::width]
            if 0.0 in (distinct := set(column)):  # 0.0 and -0.0 are one element: value by value
                chunk[j::width] = ["%.17g" % v for v in column]
            else:
                text = {v: "%.17g" % v for v in distinct}
                chunk[j::width] = map(text.__getitem__, column)
        rows = len(chunk) // width
        return (block_format if rows == CSV_BLOCK else row_format * rows) % tuple(chunk)

    text = itertools.chain([",".join(header) + "\n"], map(block, range(0, len(packed), size)))
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
    method, system, init = _run_args(args, parser)
    report = integrators.run_drift(method, system, init, 0.0, args.t_end, args.h)
    payload = {
        "system": system.value,
        "steps": report.steps,
        "h": args.h,
        "invariants": {inv.value: dataclasses.asdict(d) for inv, d in report.drifts.items()},
    }
    _print_json(payload)
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    pi = None
    family = None
    for flag, given, name in (("--mutate-pi", args.mutate_pi, "pi"),
                              ("--mutate-family", args.mutate_family, "family")):
        if given and args.suite not in ("all", *verify.SUITE_READERS[name]):
            parser.error(f"{flag}: suite {args.suite} does not read it; "
                         "the mutation changes nothing")
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
        if pi[i - 1][j - 1].is_zero:
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
    if not 1 <= args.max_degree <= MAX_SOLVE_DEGREE:
        parser.error(f"--max-degree must be between 1 and {MAX_SOLVE_DEGREE}")
    basis = symmetry.solve_determining(args.max_degree)
    matches = len(basis) == 4 and symmetry.spans_match(basis, symmetry.symmetry_basis())
    payload = {
        "max_degree": args.max_degree,
        "dimension": len(basis),
        "basis": [
            {slot: str(u[name]) for slot, name in symmetry.SYMMETRY_SLOTS.items()} for u in basis
        ],
        "matches_reference_family": matches,
    }
    _print_json(payload)
    return EXIT_OK if matches else EXIT_VERIFY


def cmd_version(args, parser) -> int:
    print(__version__)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if os.name == "posix" and hasattr(libc := ctypes.CDLL(None), "mallopt"):  # see README
        libc.mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD: map, and unmap, each block over 1 MiB
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "invariants": cmd_invariants,
        "verify": cmd_verify,
        "bracket-table": cmd_bracket_table,
        "solve-symmetries": cmd_solve_symmetries,
        "version": cmd_version,
    }
    try:
        code = handlers[args.command](args, parser)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's last flush
        return code
    except (BlowUpError, NewtonError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:
        # the reader closed stdout: what is left to flush goes to devnull
        os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
