"""File formats, command dispatch, exit codes, and output determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geodiscord import XStateParams, maximally_mixed, measures, random_density, x_state
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


class TestVerify:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(trials=0)
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

    def test_unwritable_report(self, capsys):
        code = main(["verify", "--trials", "1", "--out", "/no-such-dir/r.txt"])
        assert code == EXIT_UNWRITABLE
        assert "cannot write" in capsys.readouterr().err
