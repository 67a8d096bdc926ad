"""The timed check runner that builds every verification report."""

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
