"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the request generator is a pure function of the seed, and that
every output checker passes a real response and counts a corrupted copy of it
as a failed request.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys

import run
import speed
from workloads import WORKLOADS, Orbit, Request, orbit_pair, requests


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        raise SystemExit(1)


def argv_list(workload: str, seed: int, n: int = 12) -> list[tuple[str, ...]]:
    return [r.argv for r in itertools.islice(requests(WORKLOADS[workload], seed), n)]


def test_generator_is_seeded() -> None:
    for name in WORKLOADS:
        expect(argv_list(name, 7) == argv_list(name, 7), f"{name}: same seed, same argv list")
        expect(argv_list(name, 7) != argv_list(name, 8), f"{name}: seeds 7 and 8 differ")


class CannedCli:
    """Stands in for mbrwa.cli: answers every request with one response."""

    def __init__(self, rc: int, out: str):
        self.rc, self.out = rc, out

    def main(self, argv):
        sys.stdout.write(self.out)
        return self.rc


def real_response(cli, req: Request) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(req.argv))
    return rc, buf.getvalue()


def corrupt_json(out: str, edit) -> str:
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload)


def edit_last_row(out: str, column: int, edit) -> str:
    lines = out.split("\n")
    cells = lines[-2].split(",")
    cells[column] = edit(cells[column])
    lines[-2] = ",".join(cells)
    return "\n".join(lines)


def drop_last_row(out: str) -> str:
    return out[: out.rstrip("\n").rfind("\n") + 1]


def test_checkers_count_corruption(cli, sampler: speed.Sampler) -> None:
    short = Orbit("mb5", "rk4", 5, "1e-3", "0.05")
    mid = Orbit("ham6", "midpoint", 6, "1e-2", "0.2")
    inv, sim = orbit_pair(short, "0.3,-0.5,0.7,0.1,-0.9", 0)
    _, mid_sim = orbit_pair(mid, "0.3,-0.5,0.7,0.1,-0.9,0.4", 0)
    verify = Request("verify", ("verify", "--suite", "all"), 0)
    solve = Request("solve", ("solve-symmetries", "--max-degree", "1"), 0)
    mutant = Request("mutant-pi", ("verify", "--suite", "all", "--mutate-pi", "2,5"), 0)

    def drift_jump(p):
        p["invariants"]["H"]["max_abs_deviation"] = 1e-3

    def fail_one(p):
        p[3]["status"] = "fail"

    def pass_all(p):
        for r in p:
            r["status"], r["residuals"] = "pass", []

    cases = [
        (inv, lambda rc, out: (rc, corrupt_json(out, lambda p: p.update(steps=p["steps"] - 1)))),
        (inv, lambda rc, out: (rc, corrupt_json(out, drift_jump))),
        (sim, lambda rc, out: (rc, drop_last_row(out))),
        (sim, lambda rc, out: (rc, edit_last_row(out, 1, lambda v: "nan"))),
        # Ctilde (column 8) moved by 1e-9 breaks criterion 8's 1e-11 bound
        (mid_sim, lambda rc, out: (rc, edit_last_row(out, 8, lambda v: repr(float(v) + 1e-9)))),
        (verify, lambda rc, out: (rc, corrupt_json(out, fail_one))),
        (verify, lambda rc, out: (3, out)),
        (solve, lambda rc, out: (rc, corrupt_json(out, lambda p: p.update(dimension=3)))),
        (solve, lambda rc, out: (rc, corrupt_json(out, lambda p: p.update(matches_reference_family=False)))),
        (mutant, lambda rc, out: (0, out)),
        (mutant, lambda rc, out: (rc, corrupt_json(out, pass_all))),
    ]
    for req, corrupt in cases:
        rc, out = real_response(cli, req)
        good = run.call(CannedCli(rc, out), req, sampler)
        expect(good.problem is None, f"{req.kind}: real response passes ({good.problem})")
        bad = run.call(CannedCli(*corrupt(rc, out)), req, sampler)
        expect(bad.problem is not None, f"{req.kind}: corrupted response is counted as failed")
        print(f"ok {req.kind}: {bad.problem[:70]}")


def test_tail() -> None:
    expect(run.tail(list(range(19))) is None, "no tail below 20 samples")
    expect(run.tail([float(i) for i in range(20)]) == ("p50", 9.0), "p50 with 10 beyond")
    expect(run.tail([float(i) for i in range(100)])[0] == "p90", "p90 at 100 samples")


def main() -> int:
    mbrwa = run.import_checkout_mbrwa()
    from mbrwa import cli

    print(f"mbrwa from {mbrwa.__file__}")
    test_generator_is_seeded()
    test_tail()
    test_checkers_count_corruption(cli, speed.Sampler())
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
