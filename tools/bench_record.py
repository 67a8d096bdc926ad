"""Record one perfbench measurement of a commit as BENCH_<n>.json.

Run from the repository root:

    python3 tools/bench_record.py --number 31 --seed 9101 --seconds 10
    python3 tools/bench_record.py --number 30 --seed 9101 --seconds 10 \\
        --checkout ../parent-clone

It runs perfbench's three workloads untraced, one after another, at one seed
and length, in a git checkout: this repository, or ``--checkout DIR``, a
clone at another commit, which is measured by its own ``perfbench/``.  It
then merges the ``perfbench/out/result-*.json`` files that those runs wrote
into ``BENCH_<n>.json`` at the root of this repository, adding the measured
commit, the host and whether the commit was measured after the fact, that
is, whether it is not this repository's HEAD.  Each workload keeps its
result file as written, except the per-request timings: the medians and the
set-up runs stay.

Only perfbench's output files are read, so the measuring code is the
checkout's own.  Numbers from different sessions or hosts compare only
through perfbench's reference-CPU seconds, and a host's CPU speed can
swing within one session too: compare two commits from files recorded in
one session.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def host() -> dict:
    """The measuring machine: its CPU model, where Linux names it, cores and OS."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), platform.processor())
    return {"node": platform.node(), "cpu": cpu, "nproc": os.cpu_count(),
            "platform": platform.platform()}


def record(checkout: Path, seed: int, seconds: float) -> dict:
    """Each workload's result, measured in ``checkout``, by name."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    results = {}
    for name in (w["name"] for w in spec["workloads"]):
        subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=checkout, check=True)
        out = checkout / "perfbench" / "out" / f"result-{name}-seed{seed}-trace0.json"
        result = json.loads(out.read_text())
        result["info"].pop("per_request")
        # where the checkout lies says nothing about what was measured
        result["env"]["mbrwa_file"] = str(Path(result["env"]["mbrwa_file"]).relative_to(checkout))
        results[name] = result
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", required=True, type=int, help="n of BENCH_<n>.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="per workload")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    # the commit names what ran only if the measured files are the committed ones
    if git(checkout, "status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench"):
        print(f"bench_record: {checkout} has uncommitted changes under src/ or perfbench/",
              file=sys.stderr)
        return 2
    commit = git(checkout, "rev-parse", "HEAD")
    bench = {
        "number": args.number,
        "commit": commit,
        "measured_after_the_fact": commit != git(ROOT, "rev-parse", "HEAD"),
        "host": host(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": record(checkout, args.seed, args.seconds),
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
