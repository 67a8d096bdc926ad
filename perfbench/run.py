"""End-to-end and per-layer benchmark of the mbrwa command line.

Run from the repository root:

    python3 perfbench/run.py --workload rk4-orbits --seed 1 --seconds 30 --trace 0

One client sends requests to ``mbrwa.cli.main(argv)`` in this process, in a
closed loop (the next request goes out when the previous one returns), and
every response is checked.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` a traced replay and fixed-operand
layer probes give the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
from checks import check  # noqa: E402
from workloads import WORKLOADS, Request, Workload, requests, setup_requests  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 11
SETUP_TIMEOUT_S = 60


@dataclass
class Result:
    req: Request
    wall_s: float
    seconds: float  # reference-CPU seconds, see speed.py
    problem: str | None
    slice_s: float = 0.0  # mean calibration slice time while the request ran


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_checkout_mbrwa():
    """Import mbrwa from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import mbrwa

    found = Path(mbrwa.__file__).resolve().parent
    if found != (SRC / "mbrwa").resolve():
        raise SystemExit(f"perfbench: imported mbrwa from {found}, not from {SRC / 'mbrwa'}")
    return mbrwa


def environment(mbrwa) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "mbrwa_file": mbrwa.__file__,
        "threads": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def call(cli, req: Request, sampler: speed.Sampler) -> Result:
    """One checked request; a crash or a wrong response is a failure."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    problem = None
    with sampler.timed() as timing:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(req.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash in the program is a failed request, not a crash here
            problem = traceback.format_exc(limit=3)
    problem = problem or check(req, rc, out.getvalue())
    return Result(req, timing.wall_s, timing.reference_s, problem, timing.mean_slice_s)


def serve(cli, stream, seconds: float, sampler: speed.Sampler) -> list[Result]:
    """Closed loop for ``seconds``, always finishing the current cycle."""
    results: list[Result] = []
    deadline = perf_counter() + seconds
    req = next(stream)
    while True:
        result = call(cli, req, sampler)
        results.append(result)
        req = next(stream)
        if req.cycle != result.req.cycle and perf_counter() >= deadline:
            return results


SETUP_CHILD = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import speed
sampler = speed.Sampler()
outs = []
with sampler.timed() as timing:
    import mbrwa.cli
    for argv in json.loads(sys.argv[3]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mbrwa.cli.main(argv)
        outs.append([rc, buf.getvalue()])
json.dump({"outs": outs, "slices_s": timing.slices_s, "samples": timing.samples}, sys.stdout)
"""


def measure_setup(workload: Workload) -> tuple[list[float], list[Result]]:
    """Reference-CPU time of fresh interpreters that import mbrwa.cli and
    finish one minimal request of each kind; the responses are checked too.
    The child samples its own speed; the parent times it from spawn to exit."""
    reqs = setup_requests(workload)
    argvs = json.dumps([list(r.argv) for r in reqs])
    times, results = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), argvs],
                cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
            problem = None if proc.returncode == 0 else (
                f"set-up child exited {proc.returncode}: {proc.stderr[-300:]}"
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            problem = f"set-up child ran over {SETUP_TIMEOUT_S} s"
        wall = perf_counter() - t0
        if problem:
            times.append(wall)
            results += [Result(r, wall, wall, problem) for r in reqs]
            continue
        child = json.loads(proc.stdout)
        ref = speed.reference(wall - child["slices_s"], child["samples"])
        times.append(ref)
        for r, (rc, out) in zip(reqs, child["outs"]):
            results.append(Result(r, wall, ref, check(r, rc, out)))
    return times, results


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p90/p50 (nearest rank) with at least 10
    samples beyond it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        rank = max(0, math.ceil(n * p / 100) - 1)
        if n - rank - 1 >= 10:
            return f"p{p:g}", ordered[rank]
    return None


def kind_stats(results: list[Result]) -> dict[str, dict]:
    by_kind: dict[str, list[Result]] = {}
    for r in results:
        by_kind.setdefault(r.req.kind, []).append(r)
    out = {}
    for kind, rs in by_kind.items():
        t = tail([r.seconds for r in rs])
        out[kind] = {
            "median_s": statistics.median(r.seconds for r in rs),
            "tail": None if t is None else {"percentile": t[0], "s": t[1]},
            "n": len(rs),
            "wall_median_s": statistics.median(r.wall_s for r in rs),
        }
    return out


def cycle_seconds(results: list[Result], workload: Workload) -> list[float]:
    cycles: dict[int, list[Result]] = {}
    for r in results:
        cycles.setdefault(r.req.cycle, []).append(r)
    return [
        sum(r.seconds for r in rs) for rs in cycles.values() if len(rs) == len(workload.kinds)
    ]


def describe(results: list[Result], workload: Workload) -> dict:
    """The per-kind view of a run under the names used in the README."""
    stats = kind_stats(results)
    named = {f"{kind.replace('-', '_')}_s": s for kind, s in stats.items()}
    if "mutant-pi" in stats:
        named["mutant_s"] = {
            "median_s": statistics.median(
                r.seconds for r in results if r.req.kind.startswith("mutant")
            ),
            "n": sum(r.req.kind.startswith("mutant") for r in results),
        }
    if workload.orbit is not None:
        busy = sum(r.seconds for r in results)
        named["steps_per_s"] = len(results) * workload.orbit.steps / busy
        named["wall_steps_per_s"] = len(results) * workload.orbit.steps / sum(
            r.wall_s for r in results
        )
    failed = sum(r.problem is not None for r in results)
    named["error_rate"] = failed / len(results)
    return named


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_untraced(cli, workload: Workload, seed: int, seconds: float, sampler: speed.Sampler):
    setup_times, setup_results = measure_setup(workload)
    # warm caches and lazy set-up in this process before timing
    warm = [call(cli, r, sampler) for r in setup_requests(workload)]
    results = serve(cli, requests(workload, seed), seconds, sampler)
    summary = [r.seconds for r in results if r.req.kind == workload.summary_kind]
    bulk = [r.seconds for r in results if r.req.kind == workload.bulk_kind]
    values = {
        "setup_s": statistics.median(setup_times),
        "cycle_s": statistics.median(cycle_seconds(results, workload)),
        "summary_s": statistics.median(summary),
        "bulk_s": statistics.median(bulk),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "setup_runs_s": setup_times,
        "requests": describe(results, workload),
        "per_request": [[r.req.kind, r.wall_s, r.seconds, r.slice_s] for r in results],
    }
    return values, setup_results + warm + results, info


def run_traced(cli, workload: Workload, seed: int, seconds: float, sampler: speed.Sampler,
               trace_path: Path):
    import mbrwa

    import probes
    import tracing

    warm = [call(cli, r, sampler) for r in setup_requests(workload)]
    untraced = serve(cli, requests(workload, seed), seconds / 2, sampler)

    tracer = tracing.Tracer()
    traced = []
    with tracing.instrumented(tracer, *tracing.mbrwa_boundaries()):
        for i, r in enumerate(untraced):
            tracer.rid = i
            traced.append(call(cli, r.req, sampler))
    tracer.rid = None
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
    table = tracing.layer_table(tracer.spans)

    layer_metrics = probes.run_probes(tracer, sampler)
    layer_metrics["trace.overhead_ratio"] = overhead
    tracer.write(
        trace_path,
        workload=workload.name,
        seed=seed,
        mbrwa_file=mbrwa.__file__,
        replay_table=table,
        metrics=layer_metrics,
    )
    info = {"replay_table": table, "replay_by_layer": tracing.by_layer(table)}
    return layer_metrics, warm + untraced + traced, info


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mbrwa" / "__init__.py").is_file():
        print(f"perfbench: no mbrwa sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    mbrwa = import_checkout_mbrwa()
    from mbrwa import cli

    sampler = speed.Sampler()
    env = environment(mbrwa)
    print("perfbench env " + json.dumps(env), file=sys.stderr)
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, results, info = run_traced(
            cli, workload, args.seed, args.seconds, sampler, OUT_DIR / f"trace-{stem}.json"
        )
        for name, row in sorted(info["replay_table"].items()):
            print(f"span {name:40s} calls={row['calls']:<8d} total_ms={row['total_ms']:.3f} "
                  f"self_ms={row['self_ms']:.3f}")
        for layer, ms in sorted(info["replay_by_layer"].items()):
            print(f"layer {layer:12s} self_ms={ms:.3f}")
    else:
        values, results, info = run_untraced(cli, workload, args.seed, args.seconds, sampler)
        for name, stat in info["requests"].items():
            print(f"request {name} {json.dumps(stat)}")
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failures = [r for r in results if r.problem is not None]
    for r in failures[:10]:
        print(f"FAILED {r.req.kind} {' '.join(r.req.argv)}: {r.problem}", file=sys.stderr)
    outcome = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "env": env,
                   "info": info, **outcome}, fh, indent=1)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
