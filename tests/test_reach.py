"""Reach gate: every function in ``src/mbrwa`` is run by the CLI or allowlisted.

A child process runs a fixed sweep of argv lists through ``cli.main`` under
``sys.setprofile`` and reports the code object of every Python function that
was called.  Every module-level function and every method of a module-level
class defined in ``src/mbrwa`` must be among them, or be on ``ALLOWED`` with
the reason it may stay unreached.  ``ALLOWED`` only shrinks: a name on it
that the sweep reaches, or that is no longer defined, fails the gate too.

The sweep covers every command, every system x method pair, every suite, the
11 mutants of the certify benchmark, and one argv per exit code and per error
class, so error paths count as reached.  A pi mutant runs the poisson suite,
the one suite that reads the tensor.  Under ``--suite all`` the six others
would run unmutated, reaching nothing the plain ``verify --suite all`` does
not, and would add about 0.4 s under the profile hook.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "mbrwa"

RUN5 = ("--init=0.3,-0.5,0.7,0.1,-0.9", "--t-end", "0.01", "--h", "1e-3")
RUN6 = ("--init=0.3,-0.5,0.7,0.1,-0.9,0.4", "--t-end", "0.01", "--h", "1e-3")
MB5 = ("--system", "mb5", "--method", "rk4")

# (exit code, argv)
SWEEP = [
    (0, ["version"]),
    (0, ["bracket-table"]),
    (0, ["solve-symmetries", "--max-degree", "2"]),
    *((0, ["verify", "--suite", suite]) for suite in (
        "all", "cocycle", "algebra", "symmetry", "variational", "noether", "pushforward",
    )),
    *((4, ["verify", "--suite", "poisson", "--mutate-pi", m])
      for m in ("1,2,both", "3,4,both", "2,5,both", "4,5,both", "2,5")),
    *((4, ["verify", "--suite", "all", "--mutate-family", m])
      for m in ("xi:t", "eta1:q1", "eta1:q2", "eta2:q1", "eta2:q2", "eta3:q3")),
    *((0, [command, "--system", system, "--method", method, *(RUN5 if system == "mb5" else RUN6)])
      for command in ("simulate", "invariants")
      for system in ("mb5", "ham6", "el6")
      for method in ("rk4", "midpoint")),
    # exit 2: argparse's own check, then each kind of check the commands make
    (2, ["simulate"]),
    (2, ["invariants", *MB5, "--init=1,2", "--t-end", "1", "--h", "0.1"]),
    (2, ["invariants", *MB5, "--init=0,0,0,0,0", "--t-end", "1", "--h", "0"]),
    (2, ["invariants", *MB5, "--init=0,0,0,0,0", "--t-end", "1e300", "--h", "1e-300"]),
    (2, ["simulate", *MB5, *RUN5, "--every", "0"]),
    (2, ["simulate", *MB5, *RUN5, "--out", "/"]),
    (2, ["solve-symmetries", "--max-degree", "0"]),
    (2, ["verify", "--suite", "cocycle", "--mutate-pi", "1,2"]),
    (2, ["verify", "--mutate-pi", "1,1"]),
    (2, ["verify", "--mutate-family", "eta1"]),
    (2, ["verify", "--mutate-family", "eta1:q3"]),
    # exit 3: a state blows up (BlowUpError), and Newton does not converge
    # (NewtonError; it stays so under 1e-9 relative changes of the state)
    (3, ["invariants", *MB5, "--init=0,0,0,0,1e155", "--t-end", "0.002", "--h", "1e-3"]),
    (3, ["invariants", "--system", "mb5", "--method", "midpoint",
         "--init=2.87,-1.69,-1.31,0.55,-2.77", "--t-end", "2.49", "--h", "2.49"]),
]
# exit 141: each runs with a stdout whose reader has gone
CLOSED_PIPE = [["version"]]

CHILD = """
import contextlib, io, json, os, sys

reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

sys.setprofile(profile)
from mbrwa import cli

class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError

    def fileno(self):  # main points this descriptor at devnull
        return os.open(os.devnull, os.O_WRONLY)

sweep = json.loads(sys.argv[1])
codes = []
runs = [(a, io.StringIO) for a in sweep["open"]] + [(a, ClosedPipe) for a in sweep["closed"]]
for argv, stdout in runs:
    with contextlib.redirect_stdout(stdout()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(
    [c.co_filename, c.co_firstlineno] for c in reached if c.co_filename.startswith(sys.argv[2])
)}))
"""

PUBLIC = "public API: mbrwa/__init__ exports it"
BENCH = "only tests and perfbench call it: ROADMAP item 22 cuts perfbench's use, then moves it"

# name -> why the sweep leaves it unreached
ALLOWED = {
    **dict.fromkeys(["model.rhs", "model.invariant", "model.phi", "model.legendre",
                     "model.legendre_inv", "model._eval_vector"], PUBLIC),
    **dict.fromkeys(["polyring.Poly.__hash__", "polyring.Poly.__repr__",
                     "polyring.Poly.__rsub__", "polyring.Poly.coefficient",
                     "polyring.Poly.eval", "polyring.VarSet.__repr__"], PUBLIC),
    # _field_midpoint is reached only through midpoint_step_field
    **dict.fromkeys(["integrators.Trajectory.__len__", "integrators._field_midpoint",
                     "integrators.drift_report", "integrators.integrate",
                     "integrators.midpoint_step_field", "integrators.rk4_step_field",
                     "integrators.step",
                     "model.compile_poly_vector", "model.invariant_compiled",
                     "model.rhs_compiled", "model.rhs_jacobian_compiled",
                     "polyring.matrix_rank", "polyring.solve_nullspace"], BENCH),
    # the CLI's algebra bases are fixed and closed under the bracket, so no
    # table it builds fails; tests reach these with bases that do
    "poisson.CommutatorOutsideSpan.__init__": "failure path of structure_constants",
    "poisson.coeffs_str": "failure text of the algebra checks",
}


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every module-level function and
    every method of a module-level class in the package.  A code object's
    first line is that of its first decorator, if it has one."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        scopes = [(path.stem, ast.parse(path.read_text()).body)]
        scopes += [(f"{path.stem}.{node.name}", node.body)
                   for node in scopes[0][1] if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, ast.FunctionDef):
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    found[(str(path), first)] = f"{prefix}.{node.name}"
    return found


def test_every_function_is_reached_or_allowed():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sweep = json.dumps({"open": [argv for _, argv in SWEEP], "closed": CLOSED_PIPE})
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, sweep, str(PACKAGE)], capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for code, _ in SWEEP] + [141] * len(CLOSED_PIPE)
    defined = definitions()
    reached = {defined[key] for key in map(tuple, result["reached"]) if key in defined}
    names = set(defined.values())
    assert sorted(names - reached - ALLOWED.keys()) == [], "neither reached nor allowed"
    assert sorted(ALLOWED.keys() - names) == [], "allowed, but no longer defined"
    assert sorted(ALLOWED.keys() & reached) == [], "allowed, but reached"
