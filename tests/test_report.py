"""The timed check runner that builds every verification report."""

import ast
from pathlib import Path

from mbrwa.polyring import Poly, VarSet
from mbrwa.report import Outcome, run_check

X = Poly.var(VarSet("x"), "x")


def test_residual_pair_is_not_an_outcome():
    # a residual function may return exactly two polynomials
    rep = run_check("pair", lambda: (X - X, X + 1))
    assert rep.status == "fail"
    assert rep.residuals == ["x + 1"]
    assert rep.witnesses == {}
    assert rep.elapsed_ms >= 0


def test_outcome_keeps_witnesses_and_failure_strings():
    rep = run_check("outcome", lambda: Outcome(["broken", X - X], {"pairs": 3}))
    assert rep.to_dict()["residuals"] == ["broken"]
    assert rep.witnesses == {"pairs": 3}
    assert not rep.passed
    assert run_check("clean", lambda: Outcome([], {"pairs": 3})).passed


def test_only_verify_names_checks():
    # the exact layers return residuals; verify alone names and reports them
    package = Path(__file__).resolve().parent.parent / "src" / "mbrwa"
    naming = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # a Name, an Attribute, an import alias or the definition itself
            name = next(filter(None, (getattr(node, a, None) for a in ("id", "attr", "name"))), None)
            if name == "run_check":
                naming.add(path.name)
    assert naming == {"report.py", "verify.py"}
