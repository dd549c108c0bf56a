"""File formats, command dispatch, exit codes, and output determinism."""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geodiscord import (
    XStateParams,
    cli,
    maximally_mixed,
    measures,
    random_density,
    random_x_params,
    x_state,
)
from geodiscord.cli import (
    EXIT_OK,
    EXIT_UNWRITABLE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAILED,
    RunConfig,
    StateFileError,
    format_dm4,
    format_x,
    main,
    parse_state_text,
)

BELL_X = "X\n0.5 0 0 0.5\n0.5 0 0 0\n"


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_x_format(self):
        p = parse_state_text("X\n0.4 0.3 0.2 0.1\n0.1 0.05 0.0 -0.2\n")
        assert isinstance(p, XStateParams)
        assert p.d0 == 0.4
        assert p.a03 == 0.1 + 0.05j
        assert p.a12 == -0.2j

    def test_dm4_format(self):
        m = parse_state_text(format_dm4(maximally_mixed()))
        assert isinstance(m, np.ndarray)
        np.testing.assert_allclose(m, np.eye(4) / 4)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(81)
        state = random_density(rng)
        again = parse_state_text(format_dm4(state))
        assert np.array_equal(again, state.matrix)

        p = XStateParams(0.31, 0.23, 0.27, 0.19, 0.1 + 0.07j, 0.02 - 0.19j)
        q = parse_state_text(format_x(p))
        assert q == p

    def test_bad_header(self):
        with pytest.raises(StateFileError, match="line 1"):
            parse_state_text("DM5\n")

    def test_wrong_entry_count(self):
        with pytest.raises(StateFileError, match="16 entry lines"):
            parse_state_text("DM4\n0.5 0\n")

    def test_bad_token_reports_position(self):
        with pytest.raises(StateFileError, match="line 2, column 5"):
            parse_state_text("X\n0.4 oops 0.3 0.3\n0 0 0 0\n")

    def test_wrong_token_count(self):
        with pytest.raises(StateFileError, match="expected 4 numbers"):
            parse_state_text("X\n0.4 0.3\n0 0 0 0\n")

    def test_blank_line_inside_record(self):
        with pytest.raises(StateFileError, match="blank line"):
            parse_state_text("X\n\n0.25 0.25 0.25 0.25\n0 0 0 0\n")

    def test_trailing_blank_lines_ok(self):
        parse_state_text(BELL_X + "\n\n")


class TestCompute:
    def test_analytic_bell(self, tmp_path, capsys):
        path = write(tmp_path, "bell.x", BELL_X)
        assert main(["compute", path, "--measure", "both"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "case = CASE1" in out
        assert "gd = 0.5" in out
        assert "ggqd = 0.5" in out
        assert "analytic_x" in out

    def test_dm4_numeric_mixed(self, tmp_path, capsys):
        path = write(tmp_path, "mixed.dm4", format_dm4(maximally_mixed()))
        assert main(["compute", path, "--method", "numeric"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "gd = 0.0" in out

    def test_brute_matches_analytic(self, tmp_path, capsys):
        content = "X\n0.35 0.3 0.2 0.15\n0.1 0 0.05 0\n"
        path = write(tmp_path, "st.x", content)
        assert main(["compute", path, "--measure", "ggqd"]) == EXIT_OK
        analytic = float(capsys.readouterr().out.split("ggqd = ")[1].splitlines()[0])
        assert main(["compute", path, "--measure", "ggqd", "--method", "brute"]) == EXIT_OK
        brute = float(capsys.readouterr().out.split("ggqd = ")[1].splitlines()[0])
        assert brute == pytest.approx(analytic, abs=1e-4)

    def test_phases_are_normalized_for_analytic(self, tmp_path, capsys):
        path = write(tmp_path, "ph.x", "X\n0.3 0.2 0.2 0.3\n0 0.3 0 0\n")
        assert main(["compute", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "phases removed" in out

    def test_ggqd_analytic_needs_x_shape(self, tmp_path, capsys):
        rng = np.random.default_rng(82)
        path = write(tmp_path, "g.dm4", format_dm4(random_density(rng)))
        code = main(["compute", path, "--measure", "ggqd", "--method", "analytic"])
        assert code == EXIT_USAGE
        assert "numeric" in capsys.readouterr().err

    def test_gd_analytic_works_off_x(self, tmp_path, capsys):
        rng = np.random.default_rng(83)
        path = write(tmp_path, "g.dm4", format_dm4(random_density(rng)))
        assert main(["compute", path, "--measure", "gd"]) == EXIT_OK
        assert "dakic" in capsys.readouterr().out

    def test_parse_error_exit(self, tmp_path, capsys):
        path = write(tmp_path, "bad.x", "X\n0.4 nope 0.3 0.3\n0 0 0 0\n")
        assert main(["compute", path]) == EXIT_USAGE
        assert "column" in capsys.readouterr().err

    def test_validation_error_exit(self, tmp_path, capsys):
        path = write(tmp_path, "bad.x", "X\n0.5 0.5 0.5 0.5\n0 0 0 0\n")
        assert main(["compute", path]) == EXIT_VALIDATION
        assert "sum to 1" in capsys.readouterr().err

    def test_unhermitian_dm4_exit(self, tmp_path, capsys):
        # entries (0,1) and (1,0) share the same imaginary sign
        rows = ["DM4"] + [
            "0.25 0" if k in (0, 5, 10, 15)
            else "0 0.2" if k in (1, 4)
            else "0 0"
            for k in range(16)
        ]
        path = write(tmp_path, "h.dm4", "\n".join(rows) + "\n")
        assert main(["compute", path]) == EXIT_VALIDATION

    def test_unconverged_optimizer_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(measures, "_MAX_SWEEPS", 1)
        rng = np.random.default_rng(30)
        path = write(tmp_path, "g.dm4", format_dm4(random_density(rng)))
        code = main(["compute", path, "--method", "numeric"])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFY_FAILED
        assert "gd = " in captured.out
        assert captured.err.startswith("error: best starts disagree")

    def test_missing_file(self, capsys):
        assert main(["compute", "/no/such/file.x"]) == EXIT_USAGE

    @pytest.mark.parametrize("method", ["analytic", "numeric", "brute"])
    def test_non_utf8_file(self, tmp_path, capsys, method):
        path = tmp_path / "bytes.x"
        path.write_bytes(b"\xff\xfe\n")
        assert main(["compute", str(path), "--method", method]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err

    def test_module_entry_point(self, tmp_path):
        path = write(tmp_path, "bell.x", BELL_X)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "geodiscord", "compute", path],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert "ggqd = 0.5" in done.stdout


_BAD_TOKENS = ("nan", "-NaN", "inf", "-inf", "Infinity", "1e999", "0x10", "1,5", "--1", "j")


@st.composite
def _state_file_bytes(draw):
    """DM4 or X text from a valid state, its trace moved near the tolerance,
    then damaged: bad tokens, lines or tokens dropped and repeated, blank
    lines, and bytes that are not UTF-8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 1.0 + draw(st.sampled_from((0.0, 4e-13, 1e-12, 1.5e-12, -3e-12, 1e-9)))
    if draw(st.booleans()):
        entries = random_density(rng).matrix.ravel() * scale
        lines = [["DM4"]] + [[repr(float(v.real)), repr(float(v.imag))] for v in entries]
    else:
        p = random_x_params(rng)
        lines = [
            ["X"],
            [repr(d * scale) for d in (p.d0, p.d1, p.d2, p.d3)],
            [repr(v) for v in (p.a03.real, p.a03.imag, p.a12.real, p.a12.imag)],
        ]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("token", "drop_line", "dup_line", "drop_token",
                                     "add_token", "blank")))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "token" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        elif kind == "drop_line" and len(lines) > 1:
            del lines[i]
        elif kind == "dup_line":
            lines.insert(i, list(lines[i]))
        elif kind == "drop_token" and lines[i]:
            del lines[i][draw(st.integers(0, len(lines[i]) - 1))]
        elif kind == "add_token":
            lines[i].append(draw(st.sampled_from(_BAD_TOKENS + ("0.0", "0.25"))))
        elif kind == "blank":
            lines.insert(i, [])
    data = ("\n".join(" ".join(tokens) for tokens in lines) + "\n").encode("utf-8")
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from((b"\xff", b"\xc3\x28", b"\xed\xa0\x80")))
        data = data[:at] + bad + data[at:]
    return data


def _check_compute_exit_code(tmp_path, method, data):
    path = tmp_path / "state.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compute", str(path), "--method", method])
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_VALIDATION,
                    EXIT_UNWRITABLE)
    assert (code == EXIT_OK) == (err.getvalue() == "")
    assert "Traceback" not in err.getvalue()


class TestComputeFuzz:
    # any file ends in an exit code of the 0-4 contract, never a traceback
    @pytest.mark.parametrize("method", ["analytic", "numeric"])
    @settings(max_examples=80, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_state_file_bytes())
    def test_exit_code_contract(self, tmp_path, method, data):
        _check_compute_exit_code(tmp_path, method, data)

    # a brute-force call scans the whole reference grid (tens of ms), so
    # it gets fewer examples
    @settings(max_examples=25, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_state_file_bytes())
    def test_brute_exit_code_contract(self, tmp_path, data):
        _check_compute_exit_code(tmp_path, "brute", data)


class TestSweep:
    def test_csv_shape_and_minimum(self, tmp_path):
        out = tmp_path / "ex3.csv"
        code = main(["sweep", "--example", "ex3", "--range", "0:1:101",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "param,gd,ggqd"
        assert len(lines) == 102
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        gd_min = min(rows, key=lambda r: r[1])
        assert gd_min[0] == 0.5
        assert gd_min[1] == pytest.approx(5.0 / 36.0, abs=1e-12)
        assert gd_min[2] == pytest.approx(5.0 / 36.0, abs=1e-12)

    def test_example1_columns_coincide(self, tmp_path):
        out = tmp_path / "ex1.csv"
        assert main(["sweep", "--example", "ex1", "--range", "0.01:1:100",
                     "--out", str(out)]) == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            a, gd, ggqd = map(float, line.split(","))
            assert gd == pytest.approx(a * a / 2, abs=1e-12)
            assert ggqd == pytest.approx(a * a / 2, abs=1e-12)

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--example", "ex4", "--range", "0:2:101"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_example5_first_row(self, tmp_path):
        out = tmp_path / "ex5.csv"
        assert main(["sweep", "--example", "ex5", "--range", "0:5:501",
                     "--out", str(out)]) == EXIT_OK
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(0.0198, abs=1e-12)
        assert float(first[2]) == pytest.approx(0.0198, abs=1e-12)

    def test_row_ordering_invariant(self, tmp_path):
        out = tmp_path / "ex2.csv"
        assert main(["sweep", "--example", "ex2", "--range", "0:1:51",
                     "--out", str(out)]) == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            _, gd, ggqd = map(float, line.split(","))
            assert ggqd >= gd - 1e-10

    @pytest.mark.parametrize("bad", ["0:1", "0:1:one", "1:2:1", "::"])
    def test_malformed_range(self, bad, tmp_path, capsys):
        code = main(["sweep", "--example", "ex1", "--range", bad,
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_step_count_is_bounded(self, tmp_path, capsys):
        # rejected before anything is allocated, so the call returns at once
        out = tmp_path / "x.csv"
        code = main(["sweep", "--example", "ex1", "--range", "0.01:1:100000001",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: range allows at most 100000 steps")
        assert not out.exists()

    def test_out_of_domain_range(self, tmp_path, capsys):
        code = main(["sweep", "--example", "ex1", "--range=-1:1:3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_unwritable_path(self, capsys):
        code = main(["sweep", "--example", "ex1", "--range", "0.1:1:3",
                     "--out", "/no-such-dir/x.csv"])
        assert code == EXIT_UNWRITABLE

    def test_alpha_flag(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["sweep", "--example", "ex5", "--range", "0:1:3",
                     "--alpha", "0.3", "--out", str(out)]) == EXIT_OK
        first = out.read_text().splitlines()[1].split(",")
        expect = 2.0 * 0.09 * 0.91
        assert float(first[2]) == pytest.approx(expect, abs=1e-12)

    def test_range_up_to_float_max(self, tmp_path):
        # 2 gt overflows to inf at the far end; c2 must not become inf * 0 = nan
        out = tmp_path / "ex5.csv"
        assert main(["sweep", "--example", "ex5", "--range", "0:1e308:3",
                     "--out", str(out)]) == EXIT_OK
        rows = [list(map(float, ln.split(","))) for ln in out.read_text().splitlines()[1:]]
        assert len(rows) == 3 and np.isfinite(rows).all()

    @pytest.mark.parametrize("bad", ["nan:1:3", "0:inf:3", "-1e308:1e308:3"])
    def test_non_finite_range(self, bad, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--example", "ex5", f"--range={bad}",
                         "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err

    def test_invalid_family_point_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "example1", lambda a: XStateParams(0.5, 0.5, 0.5, 0.5))
        code = main(["sweep", "--example", "ex1", "--range", "0.1:1:3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: populations must sum to 1")


_ODD_FLOATS = (float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 0.0, 1.0)


@st.composite
def _sweep_args(draw):
    """sweep arguments: every example, range ends finite or not and in
    either order, up to 50 steps, and --alpha in or out of [0, 1]."""
    end = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_ODD_FLOATS),
                    st.floats(-1.0, 10.0), st.floats())
    lo, hi = draw(end), draw(end)
    if draw(st.booleans()):
        lo, hi = hi, lo
    args = ["sweep", "--example", draw(st.sampled_from(cli._EXAMPLE_IDS)),
            f"--range={lo!r}:{hi!r}:{draw(st.integers(-1, 50))}"]
    alpha = draw(st.one_of(st.none(), st.floats(0.0, 1.0),
                           st.sampled_from((float("nan"), float("inf"), -0.5, 1.5))))
    if alpha is not None:
        args.append(f"--alpha={alpha!r}")
    return args


class TestSweepFuzz:
    # any sweep arguments end in an exit code of the 0-4 contract, never a
    # traceback, and a warning (which would print to stderr) counts as a fault
    @settings(max_examples=80, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(args=_sweep_args())
    def test_exit_code_contract(self, tmp_path, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(args + ["--out", str(tmp_path / "sweep.csv")])
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_VALIDATION,
                        EXIT_UNWRITABLE)
        assert (code == EXIT_OK) == (err.getvalue() == "")
        assert "Traceback" not in err.getvalue()
        assert not caught, [str(w.message) for w in caught]


class TestVerify:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(trials=0)
        with pytest.raises(ValueError):
            RunConfig(seed=-1)
        with pytest.raises(ValueError):
            RunConfig(tolerance=0.0)

    def test_campaign_reports_and_exit(self, tmp_path, capsys):
        # the closed-form checks pass; the greedy-vs-joint identity check
        # genuinely fails on generic states, and the campaign must say so
        report_path = tmp_path / "report.txt"
        code = main(["verify", "--trials", "2", "--seed", "42",
                     "--out", str(report_path)])
        out = capsys.readouterr().out
        assert "check a" in out and "check b" in out
        assert "check c" in out and "check d" in out
        assert "check e (two-sided >= one-sided, 2 general states): held on 2/2" in out
        assert "check e, trial" not in out
        assert report_path.read_text() == out
        assert code == EXIT_VERIFY_FAILED
        assert "check c, trial" in out

    def test_unconverged_optimizer_is_a_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(measures, "_MAX_SWEEPS", 1)
        code = main(["verify", "--trials", "1", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED
        assert "two-sided optimizer, trial 0: best starts disagree" in out
        assert "check e (two-sided >= one-sided, 1 general states): held on 0/1" in out
        assert out.endswith("FAILED\n")

    def test_bad_trials_flag(self, capsys):
        assert main(["verify", "--trials", "0"]) == EXIT_USAGE

    def test_negative_seed(self, capsys):
        # numpy's generator rejects negative seeds; the CLI must say so as a
        # usage error, not end in its traceback
        assert main(["verify", "--seed", "-1", "--trials", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be nonnegative")
        assert "Traceback" not in err

    def test_unwritable_report(self, capsys):
        code = main(["verify", "--trials", "1", "--out", "/no-such-dir/r.txt"])
        assert code == EXIT_UNWRITABLE
        assert "cannot write" in capsys.readouterr().err
