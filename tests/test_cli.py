"""Command-line interface: output formats and the exit-code contract."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from array import array
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrwa import cli, integrators, model, symmetry, verify
from mbrwa.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    MAX_SOLVE_DEGREE,
    main,
)
from mbrwa.integrators import IntegratorId
from mbrwa.model import SystemId
from oracles import midpoint_step


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv(header: str, table: list) -> str:
    """The CSV of a packed table, each value formatted by itself with %.17g."""
    width = header.count(",") + 1
    return "".join(f"{line}\n" for line in [header, *(
        ",".join("%.17g" % v for v in table[i:i + width]) for i in range(0, len(table), width))])


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

    def test_zero_span_prints_row_zero(self, capsys):
        # --t-end 0 is a run of no steps: the header and the initial row
        _, full, _ = run(capsys, *self.ARGS)
        code, out, _ = run(capsys, *self.ARGS[:7], "--t-end", "0", *self.ARGS[9:])
        assert code == EXIT_OK
        assert out == "".join(full.splitlines(keepends=True)[:2])

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

    def test_signed_zero_invariants_print_their_sign(self, capsys):
        # with x2 = y2 = 0, J = x1*y2 - y1*x2 is -0.0 where x1 < 0 <= y1 and
        # 0.0 elsewhere: equal as keys, but each prints as %.17g prints it
        argv = list(self.ARGS)
        argv[argv.index("--init") + 1] = "0.3,-0.2,0,0,-0.4"
        argv[argv.index("--t-end") + 1] = "20"
        argv[argv.index("--h") + 1] = "0.01"
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        rows = integrators.run_rows(IntegratorId.RK4, SystemId.MB5, (0.3, -0.2, 0, 0, -0.4),
                                    0.0, 20.0, 0.01)
        assert out == _csv("t,x1,y1,x2,y2,z,H,C,J", rows.tolist())
        assert {line.rsplit(",", 1)[1] for line in out.split("\n")[1:-1]} == {"0", "-0"}

    @settings(max_examples=30, deadline=None)
    @given(pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                         max_size=6),
           rows=st.integers(1, 2 * cli.CSV_BLOCK + 5), seed=st.integers(0, 2**32))
    def test_block_formats_as_each_value_alone(self, pool, rows, seed):
        # simulate's CSV for any packed table, repeated values, signed zeros,
        # subnormals and 24-character values included, is each value's %.17g
        rng = random.Random(seed)
        pool += [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.0000000000000002]
        table = [rng.choice(pool) if rng.random() < 0.9 else rng.uniform(-1, 1)
                 for _ in range(rows * 9)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrators, "run_rows", lambda *args: array("d", table))
            assert main(list(self.ARGS)) == EXIT_OK
        assert out.getvalue() == _csv("t,x1,y1,x2,y2,z,H,C,J", table)

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
            ("simulate", "--h", "0"),
            ("invariants", "--h", "-1"),
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
        def run(*args, **kwargs):
            raise AssertionError("integrated despite a usage error")

        monkeypatch.setattr(integrators, "run_rows", run)
        monkeypatch.setattr(integrators, "run_drift", run)
        options = {"--system": "mb5", "--method": "rk4", "--init": "1,0.5,-0.3,0.2,0.1",
                   "--t-end": "1", "--h": "0.1", flag: value}
        argv = [command] + [text for item in options.items() for text in item]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("t_end", ["-1", "inf", "nan"])
    def test_t_end_is_checked_by_step_count(self, capsys, t_end):
        # the one span rule: step_count's own message, after the CLI's prefix
        with pytest.raises(ValueError) as rule:
            integrators.step_count(0.0, float(t_end), 0.1)
        with pytest.raises(SystemExit) as exc:
            main([*TestSimulate.ARGS[:7], "--t-end", t_end, "--h", "0.1"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: --t-end / --h: {rule.value}\n")

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
        # simulate packs its output rows into one array sized before the
        # run; a refused allocation is a usage error, not a traceback, and
        # writes no row
        class Full(array):
            def __mul__(self, count):
                raise MemoryError

        monkeypatch.setattr(integrators, "array", Full)
        with pytest.raises(SystemExit) as exc:
            main(list(TestSimulate.ARGS))
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--t-end / --h: the trajectory does not fit in memory" in captured.err

    def test_rows_beyond_an_index(self, capsys, monkeypatch):
        # 9e18 steps is a step count, but 9e18 rows of 9 doubles are more
        # entries than an array index can count: exit 2 before any step
        def drive(*args):
            raise AssertionError("integrated rows that cannot be stored")

        monkeypatch.setattr(integrators, "_drive", drive)
        with pytest.raises(SystemExit) as exc:
            main([*TestSimulate.ARGS[:7], "--t-end", "9e18", "--h", "1"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--t-end / --h: the trajectory does not fit in memory" in captured.err
        assert "Traceback" not in captured.err

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

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_zero_span_is_a_run_of_no_steps(self, capsys, method):
        code, out, _ = run(capsys, "invariants", "--system", "ham6", "--method", method,
                           "--init=1,0.5,-0.3,0.2,0.1,0.4", "--t-end", "0", "--h", "0.01")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["steps"] == 0
        for drift in payload["invariants"].values():
            assert drift["max_abs_deviation"] == drift["final_deviation"] == 0.0


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

    def test_singular_newton_matrix(self, capsys):
        # mb5 at (0, 0, 0, 0, 16) with h = 0.5: an equilibrium, the predictor stays put
        # and the Newton matrix eye - 0.25*J(mid) holds the block
        # [[1, -0.25], [-4, 1]], exactly singular: a blow-up, not a LinAlgError
        for command in ("invariants", "simulate"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(
                    capsys, command, "--system", "mb5", "--method", "midpoint",
                    "--init=0,0,0,0,16", "--t-end", "1", "--h", "0.5",
                )
            assert code == EXIT_NUMERIC
            assert out == ""
            assert err == "numerical failure: non-finite state at t = 0.5\n"
            assert [str(w.message) for w in caught] == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = integrators.step(
                integrators.IntegratorId.IMPLICIT_MIDPOINT, integrators.SystemId.MB5,
                (0.0, 0.0, 0.0, 0.0, 16.0), 0.0, 0.5,
            )
        assert all(map(math.isnan, state))


    @pytest.mark.parametrize("command", ["invariants", "simulate"])
    def test_a_later_state_blow_up_wins(self, capsys, command):
        # H = z**2 / 2 overflows at t = 0 and the state blows up two steps
        # later: the run reports the state, not the earlier invariant
        code, out, err = run(
            capsys, command, "--system", "mb5", "--method", "rk4",
            "--init=1e-300,0,0,0,1e155", "--t-end", "1", "--h", "1e-3",
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == "numerical failure: non-finite state at t = 0.002\n"

    # mb5 with x2 = y2 = 0 at the scale where y1**2 overflows: (y1, z) turns
    # on a circle of radius sqrt(2H) about 1e-9 above sqrt(DBL_MAX), so H
    # overflows at t = 1e-81 alone, where z crosses 0 and y1 peaks, and is
    # finite at t = 0, 2e-81 and 3e-81, by margins of about 2e-9 relative
    PEAK = ("--system", "mb5", "--method", "rk4", "--init=7.5e76,1.34078079056e154,0,0,1.0056e150",
            "--t-end", "3e-81", "--h", "1e-81")

    def test_simulate_checks_invariants_on_emitted_rows_only(self, capsys):
        code, out, err = run(capsys, "simulate", *self.PEAK, "--every", "3")
        assert code == EXIT_OK, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "2.9999999999999999e-81"]
        assert all(math.isfinite(float(row[6])) for row in rows)
        # every row is emitted, or folded into the drift: H at t = 1e-81 fails
        for argv in (("simulate", *self.PEAK), ("invariants", *self.PEAK)):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_NUMERIC
            assert out == ""
            assert err == "numerical failure: invariant H is not finite at t = 9.9999999999999996e-82\n"

    def test_simulate_checks_its_last_row_off_the_grid(self, capsys):
        # one RK4 step of 1e-80 turns (y1, z) from y1 = z = 1.34078e154, where
        # H is finite, out past sqrt(DBL_MAX): H overflows on the last row
        # alone, which --every 2 emits though it is off the grid
        argv = ("--system", "mb5", "--method", "rk4", "--init=0,1.34078e154,0,0,1.34078e154",
                "--t-end", "1e-80", "--h", "1e-80")
        simulate = run(capsys, "simulate", *argv, "--every", "2")
        message = "numerical failure: invariant H is not finite at t = 9.9999999999999996e-81\n"
        assert simulate == run(capsys, "invariants", *argv) == (EXIT_NUMERIC, "", message)


# Tokens of the run flags, the valid ones drawn more often, so that about
# half the runs integrate.  Every finite step count that a (--t-end, --h)
# pair from these pools gives is at most 2.5 / 0.01 = 250 steps, so each run
# is short and the property test adds about 2 s to the suite.
NUMBERS = ["0", "-0", "5e-324", "1e-310", "-0.7", "0.3", "1"] * 8 + [
    "1e155", "1e308", "-1e308", "nan", "inf", "-inf", "", "x"]
T_ENDS = ["0.05", "1", "2.5", "1e308", "5e-324"] * 6 + ["0", "-1", "nan", "inf", "-inf", ""]
STEPS = ["0.01", "0.5", "1", "1e308", "5e-324"] * 6 + ["0", "-0.01", "nan", "inf", ""]


@st.composite
def run_argv(draw) -> tuple[str, dict, list]:
    """A ``simulate`` or ``invariants`` argv: each flag drawn from its
    pool or left out, an --init of one component too few to one too many,
    and at times ``--every`` on ``invariants`` or an unknown flag."""
    command = draw(st.sampled_from(["simulate", "invariants"]))
    system = draw(st.sampled_from(["mb5", "ham6", "el6"]))
    size = (5 if system == "mb5" else 6) + draw(st.sampled_from([0] * 8 + [-1, 1]))
    options = {
        "--system": system,
        "--method": draw(st.sampled_from(["rk4", "midpoint"])),
        "--init": ",".join(draw(st.lists(st.sampled_from(NUMBERS), min_size=size, max_size=size))),
        "--t-end": draw(st.sampled_from(T_ENDS)),
        "--h": draw(st.sampled_from(STEPS)),
        "--every": draw(st.sampled_from(["1", "3"] * 4 + ["0", "-2", "x"])),
    }
    if command == "invariants" and draw(st.integers(0, 9)):
        del options["--every"]
    for flag in list(options):
        if not draw(st.integers(0, 29)):
            del options[flag]
    argv = [command, *(f"{flag}={value}" for flag, value in options.items())]
    if not draw(st.integers(0, 29)):
        argv.append("--bogus=1")
    return command, options, argv


@given(run_argv())
@settings(max_examples=300, deadline=None)
def test_cli_contract_on_drawn_runs(case):
    command, options, argv = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_VERIFY), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (EXIT_USAGE, EXIT_NUMERIC):
        assert out.getvalue() == "", argv
    if code == EXIT_OK and command == "invariants":
        # step_count full steps, then the partial step landing on t_end
        t_end, h = float(options["--t-end"]), float(options["--h"])
        full = integrators.step_count(0.0, t_end, h)
        assert json.loads(out.getvalue())["steps"] == full + (full * h < t_end - 1e-12 * t_end)


class TestClosedPipe:
    def test_closed_stdout_exits_141_without_a_traceback(self):
        # the reader takes one line and closes the pipe, as `| head -1` does
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        # about 1.8 MB of CSV, far more than a pipe buffers: the writer is
        # still writing when the pipe closes
        argv = ("simulate", "--system", "mb5", "--method", "rk4", "--init=1,0.5,-0.3,0.2,0.1",
                "--t-end", "100", "--h", "0.01")
        proc = subprocess.Popen(
            [sys.executable, "-m", "mbrwa.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert err == b""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_closed_stdout_in_process_leaks_no_descriptor(self, monkeypatch, tmp_path):
        # a stdout whose writes fail as a closed pipe's do, on a scratch
        # descriptor, so the handler's devnull lands there and not on fd 1
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return scratch

        scratch = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            before = len(os.listdir("/proc/self/fd"))
            assert [main(["version"]) for _ in range(5)] == [EXIT_BROKEN_PIPE] * 5
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            os.close(scratch)


class TestStreamingMemory:
    # The child caps its own address space 4 MiB above what it has mapped
    # after its imports.  250 000 RK4 steps would need 12 MB as time and
    # state arrays; invariants folds each state into its drift as it goes.
    CHILD = """
import resource, sys
from mbrwa import cli
with open("/proc/self/status") as fh:
    mapped = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (mapped + 4 * 2**20, resource.RLIM_INFINITY))
sys.exit(cli.main(sys.argv[1:]))
"""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmSize")
    def test_invariants_beyond_an_array_sized_cap(self):
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        single = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")}  # no thread pools
        argv = ("invariants", "--system", "mb5", "--method", "rk4",
                "--init=0.3,-0.5,0.7,0.1,-0.9", "--t-end", "250", "--h", "1e-3")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv], capture_output=True, timeout=120,
            env={**os.environ, **single, "PYTHONPATH": path},
        )
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        assert json.loads(proc.stdout)["steps"] == 250_000

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmSize")
    def test_simulate_rows_beyond_memory_exit_before_the_run(self):
        # 1e12 rows of 9 doubles (72 TB) are refused when they are
        # allocated, before the first step, under the same cap
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        argv = ("simulate", "--system", "mb5", "--method", "rk4",
                "--init=0.3,-0.5,0.7,0.1,-0.9", "--t-end", "1e12", "--h", "1")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv], capture_output=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path},
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == b""
        err = proc.stderr.decode()
        assert "--t-end / --h: the trajectory does not fit in memory" in err
        assert "Traceback" not in err


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["poisson", "cocycle", "algebra", "symmetry", "variational", "noether",
                  "pushforward", "all"],
    )
    @pytest.mark.parametrize(
        "flag, value, readers",
        [
            ("--mutate-pi", "2,5,both", {"poisson", "all"}),
            ("--mutate-family", "eta1:q2",
             {"symmetry", "variational", "noether", "pushforward", "all"}),
        ],
    )
    def test_mutation_on_a_suite_that_ignores_it(self, capsys, suite, flag, value, readers):
        # a mutation the suite does not read would leave every check green
        # for nothing: that is a usage error, not a pass
        try:
            code = main(["verify", "--suite", suite, flag, value])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        if suite in readers:
            assert code == EXIT_VERIFY
        else:
            assert code == EXIT_USAGE
            assert f"{flag}: suite {suite} does not read it" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mutate-pi", "2", "--mutate-pi expects I,J or I,J,both"),
            ("--mutate-pi", "a,2", "--mutate-pi indices must be integers"),
            ("--mutate-pi", "2,5.0,both", "--mutate-pi indices must be integers"),
            ("--mutate-pi", "0,2", "--mutate-pi indices must be in 1..5"),
            ("--mutate-pi", "2,6,both", "--mutate-pi indices must be in 1..5"),
            ("--mutate-family", "eta1q2", "--mutate-family expects SLOT:VAR, e.g. eta1:q2"),
            ("--mutate-family", "eta1:q2:q3", "--mutate-family expects SLOT:VAR, e.g. eta1:q2"),
            ("--mutate-family", "eta4:q2", "--mutate-family expects SLOT:VAR, e.g. eta1:q2"),
            ("--mutate-family", "eta1:p2", "--mutate-family expects SLOT:VAR, e.g. eta1:q2"),
        ],
    )
    def test_bad_mutate_argument(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, value])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err


class TestGoldenOutput:
    """The one place CLI output bytes are pinned: report JSON, solver
    output and the numeric CLI output, with check names, order, statuses,
    residual strings and witnesses, and every CSV and drift byte.  Only
    ``elapsed_ms`` may differ; update the files only for an intended change
    of output."""

    DATA = Path(__file__).parent / "data"

    # every mutant that the certify benchmark sends, each pinned in
    # verify_mutate_<flag>_<value>.json
    MUTANTS = [
        ("pi", "2,5,both"),
        ("family", "eta1:q2"),
        *(("pi", v) for v in ("1,2,both", "3,4,both", "4,5,both", "2,5")),
        *(("family", v) for v in ("xi:t", "eta1:q1", "eta2:q1", "eta2:q2", "eta3:q3")),
    ]
    VERIFY = [
        ("verify_all", ("verify",), EXIT_OK),  # bare verify runs every suite
        *(
            (
                f"verify_mutate_{flag}_{value.replace(',', '_').replace(':', '_')}",
                ("verify", "--suite", "all", f"--mutate-{flag}", value),
                EXIT_VERIFY,
            )
            for flag, value in MUTANTS
        ),
    ]
    SOLVE_DEGREES = range(2, MAX_SOLVE_DEGREE + 1)

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
    # the same grid on ham6, whose q1**2 terms are the ones that can overflow
    HAM6_RK4 = ("--system", "ham6", "--method", "rk4", "--init=0.3,-0.5,0.7,0.1,-0.9,0.4",
                "--t-end", "10.0005", "--h", "1e-3")
    NUMERIC = [
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
        ("simulate_ham6_rk4.csv", ("simulate", *HAM6_RK4, "--every", "100")),
        ("invariants_ham6_rk4.json", ("invariants", *HAM6_RK4)),
    ]

    def masked(self, text):
        reports = json.loads(text)
        for report in reports:
            assert report.pop("elapsed_ms") >= 0
        return reports

    def golden(self, name):
        return (self.DATA / name).read_bytes()

    def solve_golden(self, degree):
        # every degree solves to the same algebra, so one file pins them all:
        # only the echoed cap differs
        text = self.golden("solve_symmetries_max_degree_2.json")
        return text.replace(b'"max_degree": 2,', b'"max_degree": %d,' % degree, 1)

    def test_every_golden_is_read(self):
        # a golden no test compares pins nothing
        read = {
            *(f"{name}.json" for name, _, _ in self.VERIFY),
            "solve_symmetries_max_degree_2.json",
            *(name for name, _ in self.NUMERIC),
            "bracket_table.json",
            "kernel_sources.json",  # tests/test_model.py
            "determining_rows_sha256.json",  # tests/test_symmetry.py
        }
        assert {p.name for p in self.DATA.iterdir()} == read

    @pytest.mark.parametrize("name, argv, want_code", VERIFY)
    def test_verify_reports(self, capsys, name, argv, want_code):
        code, out, _ = run(capsys, *argv)
        assert code == want_code
        assert self.masked(out) == self.masked(self.golden(f"{name}.json"))

    @pytest.mark.parametrize("suite", verify.SUITE_NAMES)
    def test_single_suite_is_its_slice_of_all(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == EXIT_OK
        got = self.masked(out)
        checks = {r["check"] for r in got}
        every = self.masked(self.golden("verify_all.json"))
        assert got and got == [r for r in every if r["check"] in checks]

    def test_single_suites_concatenate_to_all(self, capsys):
        # each suite run alone passes and prints its whole slice of the
        # unmutated run, so no check goes missing when its suite runs alone
        reports = []
        for suite in verify.SUITE_NAMES:
            code, out, _ = run(capsys, "verify", "--suite", suite)
            assert code == EXIT_OK, suite
            reports += self.masked(out)
        assert reports == self.masked(self.golden("verify_all.json"))

    @pytest.mark.parametrize("degree", SOLVE_DEGREES)
    def test_solve_symmetries_bytes(self, capsys, degree):
        # exit 0: the solved algebra is 4-dimensional and spans the family
        code, out, _ = run(capsys, "solve-symmetries", "--max-degree", str(degree))
        assert code == EXIT_OK
        assert out.encode() == self.solve_golden(degree)

    @pytest.mark.parametrize("name, argv", NUMERIC)
    def test_numeric_bytes(self, capsys, tmp_path, name, argv):
        # every state and invariant digit is pinned, so a change of float
        # operation order in a step or an invariant shows here
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out.encode() == self.golden(name)
        if argv[0] == "simulate":
            path = tmp_path / name
            code, out, _ = run(capsys, *argv, "--out", str(path))
            assert code == EXIT_OK
            assert out == ""
            assert path.read_bytes() == self.golden(name)

    def test_bracket_table_bytes(self, capsys):
        code, out, _ = run(capsys, "bracket-table")
        assert code == EXIT_OK
        assert out.encode() == self.golden("bracket_table.json")

    def test_one_parser_serves_every_request(self, capsys):
        # the parser is built once per process, and a usage error, a passing
        # verify and a solve that follow it give the exit codes and bytes of
        # fresh calls: no parse leaves anything behind in it
        cli.build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mutate-pi", "9,9"])
        assert exc.value.code == EXIT_USAGE
        assert "indices must be in 1..5" in capsys.readouterr().err
        parser = cli.build_parser()
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == EXIT_OK
        assert self.masked(out) == self.masked(self.golden("verify_all.json"))
        code, out, _ = run(capsys, "solve-symmetries", "--max-degree", "3")
        assert code == EXIT_OK
        assert out.encode() == self.solve_golden(3)
        assert cli.build_parser() is parser

    # a child that imports the CLI, then runs each request with numpy made
    # unimportable, printing [exit code, stdout] or the exception's name
    NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
import mbrwa.cli
loaded = "numpy" in sys.modules
sys.modules["numpy"] = None
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            results.append([mbrwa.cli.main(argv), out.getvalue()])
    except ImportError as exc:
        results.append(type(exc).__name__)
print(json.dumps({"loaded": loaded, "results": results}))
"""

    def test_rk4_and_exact_requests_run_without_numpy(self):
        # only the midpoint Newton solve needs numpy (LAPACK's gesv): the
        # CLI starts without it, and every exact and RK4 golden holds with
        # numpy unimportable, while a midpoint request cannot run
        rk4 = [(name, argv) for name, argv in self.NUMERIC if "rk4" in argv]
        exact = [("verify_all.json", ("verify", "--suite", "all")),
                 ("solve_symmetries_max_degree_2.json", ("solve-symmetries", "--max-degree", "2")),
                 ("bracket_table.json", ("bracket-table",))]
        midpoint = ("invariants", *self.HAM6_MIDPOINT)
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        argvs = json.dumps([list(argv) for _, argv in [*exact, *rk4]] + [list(midpoint)])
        proc = subprocess.run([sys.executable, "-c", self.NUMPY_FREE_CHILD, argvs],
                              capture_output=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr.decode()
        child = json.loads(proc.stdout)
        assert child["loaded"] is False
        *results, last = child["results"]
        assert len(rk4) == 6 and last == "ModuleNotFoundError"
        for (name, _), (code, out) in zip([*exact, *rk4], results, strict=True):
            assert code == EXIT_OK, name
            if name == "verify_all.json":
                assert self.masked(out) == self.masked(self.golden(name))
            else:
                assert out.encode() == self.golden(name), name


@lru_cache(maxsize=None)
def array_built_trajectory(system, method, init, t_end, h) -> tuple:
    """(times, states) of the run built apart from the generated run loop:
    one numpy array step (``rk4_step_field``, or the midpoint step of
    tests/oracles.py) per row on the compiled rhs and Jacobian,
    ``step_count`` full steps at t = k*h, then a partial step landing on
    t_end."""
    f = model.rhs_compiled(SystemId(system))
    n_full = integrators.step_count(0.0, t_end, h)
    grid = [(h * k, h) for k in range(1, n_full + 1)]
    if n_full * h < t_end - 1e-12 * t_end:
        grid.append((t_end, t_end - n_full * h))
    s, times, states = np.array(init, dtype=float), [0.0], [np.array(init, dtype=float)]
    for t, dt in grid:
        if method == "rk4":
            s = integrators.rk4_step_field(f, s, t, dt)
        else:
            s = midpoint_step(SystemId(system), s, t, dt)
        times.append(t)
        states.append(s)
    return np.array(times), np.array(states)


def array_built_output(command, system, method, init, t_end, h, every=1) -> str:
    """The CLI output built from whole arrays: ``array_built_trajectory``,
    each compiled invariant at every output row, then
    ``np.abs(values - values[0])`` or ``column_stack`` rows."""
    times, states = array_built_trajectory(system, method, init, t_end, h)
    invariants = model.system_invariants(SystemId(system))
    rows = list(range(0, len(times), every))
    if rows[-1] != len(times) - 1:
        rows.append(len(times) - 1)
    values = np.array([[model.invariant_compiled(inv)(states[k]) for inv in invariants]
                       for k in rows])
    if command == "invariants":
        dev = np.abs(values - values[0])
        drifts = {inv.value: {"initial": float(values[0, i]),
                              "max_abs_deviation": float(dev[:, i].max()),
                              "final_deviation": float(dev[-1, i])}
                  for i, inv in enumerate(invariants)}
        payload = {"system": system, "steps": len(times) - 1, "h": h, "invariants": drifts}
        return json.dumps(payload, indent=2) + "\n"
    header = ("t", *model.system_vars(SystemId(system)).names, *(inv.value for inv in invariants))
    table = np.column_stack((times[rows], states[rows], values))
    return "".join([",".join(header) + "\n",
                    *(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())])


class TestStreamingOracle:
    """The output of the generated run loop equals, byte for byte, the
    output built from the whole trajectory of the numpy array steps.  1105
    full steps and a partial one of 5e-4: 1107 rows; the last row falls on
    the --every 7 grid and off the --every 3 grid."""

    INIT = {"mb5": (0.3, -0.5, 0.7, 0.1, -0.9), "ham6": (0.3, -0.5, 0.7, 0.1, -0.9, 0.4),
            "el6": (0.3, -0.5, 0.7, 0.1, -0.9, 0.4)}
    T_END, H = 1.1055, 1e-3

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    @pytest.mark.parametrize("system", ["mb5", "ham6", "el6"])
    @pytest.mark.parametrize("command, every", [("simulate", 1), ("simulate", 3),
                                                ("simulate", 7), ("invariants", None)])
    def test_equals_the_array_built_output(self, capsys, system, method, command, every):
        init = self.INIT[system]
        argv = [command, "--system", system, "--method", method,
                f"--init={','.join(map(repr, init))}", "--t-end", repr(self.T_END),
                "--h", repr(self.H), *(["--every", str(every)] if every else [])]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == array_built_output(command, system, method, init, self.T_END, self.H,
                                         every or 1)


class TestSolveSymmetries:
    def test_degree_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-symmetries", "--max-degree", "0"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("degree", [MAX_SOLVE_DEGREE + 1, 40, 10**9])
    def test_degree_above_the_cap(self, capsys, monkeypatch, degree):
        # rejected before the ansatz is built: a solve here fails the test
        monkeypatch.setattr(symmetry, "solve_determining", None)
        with pytest.raises(SystemExit) as exc:
            main(["solve-symmetries", "--max-degree", str(degree)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--max-degree must be between 1 and {MAX_SOLVE_DEGREE}" in err


def test_version(capsys):
    from mbrwa import __version__

    code, out, _ = run(capsys, "version")
    assert code == EXIT_OK
    assert out.strip() == __version__


class _Libc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.mark.skipif(os.name != "posix", reason="the CLI calls mallopt on POSIX only")
def test_main_pins_the_mmap_threshold(capsys, monkeypatch):
    libc = _Libc()
    monkeypatch.setattr("mbrwa.cli.ctypes.CDLL", lambda name: libc)
    assert run(capsys, "version")[0] == EXIT_OK
    assert libc.calls == [(-3, 1 << 20)]  # M_MMAP_THRESHOLD, 1 MiB


def test_main_runs_without_mallopt(capsys, monkeypatch):
    monkeypatch.setattr("mbrwa.cli.ctypes.CDLL", lambda name: object())
    assert run(capsys, "version")[0] == EXIT_OK
