"""Command-line interface: output formats and the exit-code contract."""

import json
import math
import warnings
from pathlib import Path

import pytest

from mbrwa import integrators
from mbrwa.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    ARGS = (
        "simulate",
        "--system", "mb5",
        "--method", "rk4",
        "--init", "0,0,0,0,1.5",
        "--t-end", "1",
        "--h", "0.25",
    )

    def test_equilibrium_rows_constant(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t,x1,y1,x2,y2,z,H,C,J"
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1:6] == ["0", "0", "0", "0", "1.5"]
            assert fields[6] == "1.125"  # H = z^2 / 2
            assert fields[7] == "1.5"
            assert fields[8] == "0"

    def test_csv_values_round_trip_at_full_precision(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("--init") + 1] = "1,0.5,-0.3,0.2,0.1"
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        from mbrwa import integrators, model

        traj = integrators.integrate(
            integrators.IntegratorId.RK4,
            model.SystemId.MB5,
            (1, 0.5, -0.3, 0.2, 0.1),
            0.0,
            1.0,
            0.25,
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row, state in zip(rows, traj.states):
            # 17 significant digits reproduce the binary doubles exactly
            assert [float(v) for v in row[1:6]] == list(state)

    def test_every_decimation_keeps_last_row(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--every", "3")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.75", "1"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run(capsys, *self.ARGS, "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("t,x1,y1,x2,y2,z,H,C,J\n")

    def test_ham6_header(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--system", "ham6",
            "--method", "midpoint",
            "--init", "1,0.5,-0.3,0.2,0.1,0.4",
            "--t-end", "0.5",
            "--h", "0.1",
        )
        assert code == EXIT_OK
        assert out.split("\n")[0] == "t,q1,q2,q3,p1,p2,p3,Htilde,Ctilde,Jtilde"


class TestUsageErrors:
    def test_missing_h(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--system", "mb5",
                    "--method", "rk4",
                    "--init", "0,0,0,0,1",
                    "--t-end", "1",
                ]
            )
        assert exc.value.code == EXIT_USAGE

    def test_wrong_init_arity(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--system", "mb5",
                    "--method", "rk4",
                    "--init", "1,2,3",
                    "--t-end", "1",
                    "--h", "0.1",
                ]
            )
        assert exc.value.code == EXIT_USAGE
        assert "needs 5 components, got 3" in capsys.readouterr().err

    def test_non_numeric_init(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--system", "mb5",
                    "--method", "rk4",
                    "--init", "1,2,3,4,oops",
                    "--t-end", "1",
                    "--h", "0.1",
                ]
            )
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--h", "nan"),
            ("simulate", "--h", "inf"),
            ("invariants", "--h", "inf"),
            ("simulate", "--t-end", "nan"),
            ("simulate", "--t-end", "inf"),
            ("invariants", "--t-end", "inf"),
            ("simulate", "--init", "1,2,3,4,nan"),
            ("invariants", "--init", "1,2,inf,4,5"),
            ("simulate", "--every", "0"),
            # (t_end - t0) / h overflows to inf: no finite step count
            ("invariants", "--t-end", "1e308"),
            ("simulate", "--h", "1e-310"),
            # 1e300 steps is finite, but more than any list can hold
            ("invariants", "--h", "1e-300"),
        ],
    )
    def test_rejected_before_integrating(self, capsys, monkeypatch, command, flag, value):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated despite a usage error")

        monkeypatch.setattr(integrators, "integrate", integrate)
        options = {"--system": "mb5", "--method": "rk4", "--init": "1,0.5,-0.3,0.2,0.1",
                   "--t-end": "1", "--h": "0.1", flag: value}
        argv = [command] + [text for item in options.items() for text in item]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["1,1", "2,3", "1,3", "1,3,both"])
    def test_mutate_pi_zero_entry(self, capsys, entry):
        # negating a zero entry of pi leaves pi as it is, so the run
        # could never exit 4
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "poisson", "--mutate-pi", entry])
        assert exc.value.code == EXIT_USAGE
        i_j = ",".join(entry.split(",")[:2])
        assert f"--mutate-pi entry {i_j} of the Poisson tensor is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, mutation", [("symmetry", "xi:q1"), ("all", "eta1:q3")])
    def test_mutate_family_absent_term(self, capsys, suite, mutation):
        # no term of the slot contains the variable, so the mutation leaves
        # the family as it is and the run could never exit 4
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", suite, "--mutate-family", mutation])
        assert exc.value.code == EXIT_USAGE
        slot, var = mutation.split(":")
        assert f"--mutate-family {mutation} negates nothing: no {slot} term has {var}" in (
            capsys.readouterr().err
        )

    def test_trajectory_beyond_memory(self, capsys, monkeypatch):
        # integrate allocates every time and state before the first step;
        # a refused allocation is a usage error, not a traceback
        def integrate(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(integrators, "integrate", integrate)
        with pytest.raises(SystemExit) as exc:
            main(list(TestSimulate.ARGS))
        assert exc.value.code == EXIT_USAGE
        assert "--t-end / --h: the trajectory does not fit in memory" in capsys.readouterr().err

    def test_out_unwritable(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([*TestSimulate.ARGS, "--out", str(target)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--out" in err
        assert "Traceback" not in err
        assert not target.exists()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE


class TestInvariants:
    def test_midpoint_ctilde_drift(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants",
            "--system", "ham6",
            "--method", "midpoint",
            "--init", "1,0.5,-0.3,0.2,0.1,0.4",
            "--t-end", "10",
            "--h", "0.01",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["system"] == "ham6"
        assert payload["steps"] == 1000
        assert payload["invariants"]["Ctilde"]["max_abs_deviation"] <= 1e-11
        assert payload["invariants"]["Jtilde"]["max_abs_deviation"] <= 1e-10

    @pytest.mark.parametrize("p3", ["1e6", "1e8"])
    def test_midpoint_large_state(self, capsys, p3):
        # rounding keeps the Newton update near 1e-11 at this scale, above
        # the absolute tolerance; the step is still converged
        code, out, err = run(
            capsys,
            "invariants",
            "--system", "ham6",
            "--method", "midpoint",
            f"--init=0.1,0.2,0.3,0.1,0.2,{p3}",
            "--t-end", "0.01",
            "--h", "1e-3",
        )
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert payload["steps"] == 10
        for drift in payload["invariants"].values():
            assert math.isfinite(drift["max_abs_deviation"])
        assert payload["invariants"]["Ctilde"]["max_abs_deviation"] == 0.0


class TestNumericFailure:
    @pytest.mark.parametrize("command", ["invariants", "simulate"])
    def test_invariant_overflow_on_finite_state(self, capsys, command):
        # H = z**2 / 2 overflows at z = 1e155; z itself is finite and RK4
        # keeps the equilibrium
        code, out, err = run(
            capsys, command, "--system", "mb5", "--method", "rk4",
            "--init=0,0,0,0,1e155", "--t-end", "0.002", "--h", "1e-3",
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == "numerical failure: invariant H is not finite at t = 0\n"

    @pytest.mark.parametrize("command", ["invariants", "simulate"])
    def test_overflow_inside_an_rk4_step(self, capsys, command):
        # q1**3 overflows in the first stage: a blow-up, not a traceback
        code, out, err = run(
            capsys, command, "--system", "ham6", "--method", "rk4",
            "--init=1e110,0,0,0,0,0", "--t-end", "0.01", "--h", "1e-3",
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.endswith("numerical failure: non-finite state at t = 0.001\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "system, init",
        [
            ("ham6", "1e110,0,0,0,0,0"),  # q1**3 overflows in the predictor
            ("ham6", "1e200,1e200,0,0,0,1e200"),
            ("mb5", "1e160,0,0,0,1e160"),  # x1*z is inf: the first residual is not finite
        ],
    )
    def test_blow_up_inside_a_newton_iteration(self, capsys, system, init):
        # a blow-up at the first step, not 50 iterations on nan, and no
        # numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "invariants", "--system", system, "--method", "midpoint",
                f"--init={init}", "--t-end", "0.01", "--h", "1e-3",
            )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == "numerical failure: non-finite state at t = 0.001\n"
        assert [str(w.message) for w in caught] == []

    def test_singular_newton_matrix(self, capsys, monkeypatch):
        # a Newton matrix that is exactly zero: a blow-up, not a LinAlgError
        def newton_compiled(system):
            return lambda *x_new_h: (1.0,) * 6 + (0.0,) * 36

        monkeypatch.setattr(integrators.model, "midpoint_newton_compiled", newton_compiled)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "invariants", "--system", "ham6", "--method", "midpoint",
                "--init=1,0.5,-0.3,0.2,0.1,0.4", "--t-end", "0.01", "--h", "1e-3",
            )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == "numerical failure: non-finite state at t = 0.001\n"
        assert [str(w.message) for w in caught] == []


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        reports = json.loads(out)
        assert len(reports) >= 20
        assert all(r["status"] == "pass" for r in reports)

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cocycle")
        assert code == EXIT_OK
        reports = json.loads(out)
        assert any(r["check"] == "cocycle" for r in reports)

    def test_mutated_tensor_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "poisson", "--mutate-pi", "2,5,both")
        assert code == EXIT_VERIFY
        reports = json.loads(out)
        failed = [r for r in reports if r["status"] == "fail"]
        assert failed
        assert any(any(res != "0" for res in r["residuals"]) for r in failed)

    def test_mutated_family_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "symmetry", "--mutate-family", "eta1:q2"
        )
        assert code == EXIT_VERIFY

    def test_bad_mutate_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mutate-pi", "2"])
        assert exc.value.code == EXIT_USAGE


class TestGoldenOutput:
    """Report JSON, solver output and the numeric CLI output are pinned:
    check names, order, statuses, residual strings and witnesses, and every
    CSV and drift byte.  Only ``elapsed_ms`` may differ; update the files
    only for an intended change of output."""

    DATA = Path(__file__).parent / "data"

    @pytest.mark.parametrize(
        "name, argv, want_code",
        [
            ("verify_all", ("verify", "--suite", "all"), EXIT_OK),
            (
                "verify_mutate_pi_2_5_both",
                ("verify", "--suite", "all", "--mutate-pi", "2,5,both"),
                EXIT_VERIFY,
            ),
            (
                "verify_mutate_family_eta1_q2",
                ("verify", "--suite", "all", "--mutate-family", "eta1:q2"),
                EXIT_VERIFY,
            ),
        ],
    )
    def test_verify_reports(self, capsys, name, argv, want_code):
        code, out, _ = run(capsys, *argv)
        assert code == want_code
        got = json.loads(out)
        want = json.loads((self.DATA / f"{name}.json").read_text())
        for report in got + want:
            assert report.pop("elapsed_ms") >= 0
        assert got == want

    def test_solve_symmetries_bytes(self, capsys):
        code, out, _ = run(capsys, "solve-symmetries", "--max-degree", "2")
        assert code == EXIT_OK
        assert out == (self.DATA / "solve_symmetries_max_degree_2.json").read_text()

    def test_solve_symmetries_degree_3_bytes(self, capsys):
        code, out, _ = run(capsys, "solve-symmetries", "--max-degree", "3")
        assert code == EXIT_OK
        assert out == (self.DATA / "solve_symmetries_max_degree_3.json").read_text()

    def test_solve_symmetries_degree_4_bytes(self, capsys):
        code, out, _ = run(capsys, "solve-symmetries", "--max-degree", "4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dimension"] == 4
        assert payload["matches_reference_family"] is True
        assert out == (self.DATA / "solve_symmetries_max_degree_4.json").read_text()

    def test_solve_symmetries_degree_5_bytes(self, capsys):
        code, out, _ = run(capsys, "solve-symmetries", "--max-degree", "5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dimension"] == 4
        assert payload["matches_reference_family"] is True
        assert out == (self.DATA / "solve_symmetries_max_degree_5.json").read_text()

    MB5_RK4 = ("--system", "mb5", "--method", "rk4", "--init=0.3,-0.5,0.7,0.1,-0.9",
               "--t-end", "20", "--h", "1e-3")
    HAM6_MIDPOINT = ("--system", "ham6", "--method", "midpoint",
                     "--init=0.3,-0.5,0.7,0.1,-0.9,0.4", "--t-end", "20", "--h", "1e-2")
    MB5_MIDPOINT = ("--system", "mb5", "--method", "midpoint", "--init=0.3,-0.5,0.7,0.1,-0.9",
                    "--t-end", "20", "--h", "1e-2")
    # 1000 full steps and a partial one of 5e-3
    EL6_MIDPOINT = ("--system", "el6", "--method", "midpoint",
                    "--init=0.3,-0.5,0.7,0.1,-0.9,0.4", "--t-end", "10.005", "--h", "1e-2")
    # 10000 full steps and a partial one of 5e-4
    EL6_RK4 = ("--system", "el6", "--method", "rk4", "--init=0.3,-0.5,0.7,0.1,-0.9,0.4",
               "--t-end", "10.0005", "--h", "1e-3")

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("simulate_mb5_rk4.csv", ("simulate", *MB5_RK4, "--every", "100")),
            ("invariants_mb5_rk4.json", ("invariants", *MB5_RK4)),
            ("simulate_ham6_midpoint.csv", ("simulate", *HAM6_MIDPOINT, "--every", "10")),
            ("invariants_ham6_midpoint.json", ("invariants", *HAM6_MIDPOINT)),
            ("simulate_el6_rk4.csv", ("simulate", *EL6_RK4, "--every", "100")),
            ("invariants_el6_rk4.json", ("invariants", *EL6_RK4)),
            ("simulate_mb5_midpoint.csv", ("simulate", *MB5_MIDPOINT, "--every", "10")),
            ("invariants_mb5_midpoint.json", ("invariants", *MB5_MIDPOINT)),
            ("simulate_el6_midpoint.csv", ("simulate", *EL6_MIDPOINT, "--every", "10")),
            ("invariants_el6_midpoint.json", ("invariants", *EL6_MIDPOINT)),
        ],
    )
    def test_numeric_bytes(self, capsys, name, argv):
        # every state and invariant digit is pinned, so a change of float
        # operation order in a step or an invariant shows here
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == (self.DATA / name).read_text()

    def test_bracket_table_bytes(self, capsys):
        code, out, _ = run(capsys, "bracket-table")
        assert code == EXIT_OK
        assert out == (self.DATA / "bracket_table.json").read_text()


class TestBracketTable:
    def test_json_tables(self, capsys):
        code, out, _ = run(capsys, "bracket-table")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["phase-space-algebra"]["2,5"] == ["1", "0", "0", "0", "0"]
        assert payload["symmetry-matrix-algebra"]["1,3"] == ["0", "0", "-1", "0"]
        assert (
            payload["symmetry-point-fields"] == payload["symmetry-matrix-algebra"]
        )


class TestSolveSymmetries:
    def test_dimension_four(self, capsys):
        code, out, _ = run(capsys, "solve-symmetries", "--max-degree", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["dimension"] == 4
        assert payload["matches_reference_family"] is True
        assert len(payload["basis"]) == 4

    def test_degree_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-symmetries", "--max-degree", "0"])
        assert exc.value.code == EXIT_USAGE


def test_version(capsys):
    from mbrwa import __version__

    code, out, _ = run(capsys, "version")
    assert code == EXIT_OK
    assert out.strip() == __version__
