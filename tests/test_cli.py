"""File formats, command dispatch, exit codes, and output determinism."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geodiscord import (
    XStateParams,
    cli,
    example1,
    gd_x,
    ggqd_x,
    maximally_mixed,
    measures,
    normalize_x_phases,
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


def _residue_dm4(corner):
    """DM4 text of I/4 with 0.05 at corner and its mirror, and 0.49e-12 i
    added on the antidiagonal: Hermitian within TOL_HERM (deviation
    9.8e-13), but the Pauli expectation of sigma_x sigma_x keeps an
    imaginary part of 1.96e-12.  With corner (0, 3) the state is X-shaped."""
    m = np.eye(4, dtype=complex) / 4
    m[corner] = m[corner[::-1]] = 0.05
    for index in ((0, 3), (3, 0), (1, 2), (2, 1)):
        m[index] += 0.49e-12j
    rows = ["DM4"] + [f"{float(v.real)!r} {float(v.imag)!r}" for v in m.ravel()]
    return "\n".join(rows) + "\n"


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

    @pytest.mark.parametrize(
        "row, column, token",
        [
            ("0.4 0.4 0.4x 0.3", 9, "0.4x"),  # earlier tokens are prefixes of it
            ("1e5 e5 0.3 0.2", 5, "e5"),  # it also occurs inside an earlier token
            ("   0.4 oops 0.3 0.3", 8, "oops"),  # leading spaces count
        ],
    )
    def test_bad_token_column(self, tmp_path, capsys, row, column, token):
        text = f"X\n{row}\n0 0 0 0\n"
        message = f"line 2, column {column}: cannot parse {token!r} as a number"
        with pytest.raises(StateFileError) as err:
            parse_state_text(text)
        assert str(err.value) == message
        assert main(["compute", write(tmp_path, "bad.x", text)]) == EXIT_USAGE
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("route", [["--method", "numeric"],
                                       ["--method", "analytic", "--measure", "gd"],
                                       ["--method", "brute", "--measure", "gd"],
                                       ["--method", "brute", "--measure", "ggqd"],
                                       ["--method", "analytic", "--measure", "both"],
                                       ["--method", "numeric", "--measure", "both"],
                                       ["--method", "brute", "--measure", "both"]])
    def test_imaginary_residue_exit(self, tmp_path, capsys, route):
        # the X-shaped file must fail too, though the X route reads only
        # the corners
        for corner in ((0, 1), (0, 3)):
            path = write(tmp_path, "residue.dm4", _residue_dm4(corner))
            assert main(["compute", path, *route]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path}: Pauli expectation has imaginary residue 1.960e-12 > 1e-12\n"
            )

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


_BAD_TOKENS = ("nan", "-NaN", "inf", "-inf", "Infinity", "1e999", "1e308", "-1.7e308",
               "0x10", "1,5", "--1", "j")


@st.composite
def _state_file_bytes(draw):
    """DM4 or X text from a valid state, its trace moved near the tolerance,
    then damaged: bad tokens, lines or tokens dropped and repeated, blank
    lines, and bytes that are not UTF-8.  A DM4 state, full-rank or
    X-shaped, may also gain an antihermitian part inside TOL_HERM whose
    Pauli residue can pass TOL_IMAG."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 1.0 + draw(st.sampled_from((0.0, 4e-13, 1e-12, 1.5e-12, -3e-12, 1e-9)))
    layout = draw(st.sampled_from(("DM4", "X-shaped DM4", "X")))
    if layout != "X":
        state = random_density(rng) if layout == "DM4" else x_state(random_x_params(rng))
        # i eps on the antidiagonal: Hermiticity deviation 2 eps, and the
        # sigma_x sigma_x expectation gains an imaginary part 4 eps
        eps = draw(st.sampled_from((0.0, 0.2e-12, 0.49e-12)))
        entries = (state.matrix + 1j * eps * np.fliplr(np.eye(4))).ravel() * scale
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


def _check_compute_exit_code(tmp_path, method, data) -> int:
    path = tmp_path / "state.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compute", str(path), "--method", method])
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_VALIDATION,
                    EXIT_UNWRITABLE)
    assert (code == EXIT_OK) == (err.getvalue() == "")
    assert "Traceback" not in err.getvalue()
    return code


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

    # one validation rule for every method: a file that one method rejects
    # as an invalid state (exit 3), the others reject too
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_state_file_bytes())
    @example(data=_residue_dm4((0, 3)).encode())
    def test_methods_agree_on_validation(self, tmp_path, data):
        codes = {method: _check_compute_exit_code(tmp_path, method, data)
                 for method in ("analytic", "numeric", "brute")}
        assert len({code == EXIT_VALIDATION for code in codes.values()}) == 1, codes


def _scalar_sweep_csv(argv) -> bytes:
    """The CSV that ``sweep`` with these arguments writes, built row by row
    from the public scalar route."""
    args = cli.build_parser().parse_args(["sweep", *argv, "--out", "-"])
    rows = ["param,gd,ggqd"]
    for value in cli._parse_range(args.range).tolist():
        p = cli._family_point(args.example, value, args.alpha)
        p = normalize_x_phases(p).normalized
        rows.append(f"{value!r},{gd_x(p).value!r},{ggqd_x(p).value!r}")
    return ("\n".join(rows) + "\n").encode()


class TestSweep:
    @pytest.mark.parametrize("argv", [
        ["--example", "ex1", "--range", "0.01:1:100"],
        ["--example", "ex2", "--range", "0:1:101"],
        ["--example", "ex3", "--range", "1:0:51"],
        ["--example", "ex4", "--range", "0:2:101"],
        ["--example", "ex4", "--range", "0:1:33", "--alpha", "0.3"],
        ["--example", "ex5", "--range", "0:5:501", "--alpha", "0.6"],
        ["--example", "ex5", "--range", "0:1e308:3"],
        ["--example", "ex4", "--range", "0:2:101", "--alpha", "0.3"],
        ["--example", "ex4", "--range", "0.1:3:501", "--alpha", "0.9"],
        ["--example", "ex5", "--range", "0:5:101", "--alpha", "0.2"],
        ["--example", "ex5", "--range", "0.5:40:501", "--alpha", "0.95"],
    ])
    def test_rows_match_scalar_route(self, argv, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == _scalar_sweep_csv(argv)

    @pytest.mark.parametrize("argv, digest", [
        (["--example", "ex1", "--range", "0.01:1:100"],
         "26d8230ca8e2e9145755dbe012daa835dcaece4d16b659b6d39567657f577872"),
        (["--example", "ex1", "--range", "0.001:1:501"],
         "5cab7b21d6856e508b2c02811d83cde74da297bf0f01e083214a676c05242619"),
        (["--example", "ex2", "--range", "0:1:101"],
         "530b6c852bf6c8d63815185a117338749228fc07797806cd8fa43d4e8b49d0be"),
        (["--example", "ex2", "--range", "0.2:0.9:1001"],
         "c9c5573545404a6b67ecd0311ebad24a1880adb0b30867973eee9df7f0080763"),
        (["--example", "ex3", "--range", "1:0:51"],
         "eb3402310fc709fe1ee75a63f99373d0d7443285b4a1c1aaa33d3401ef986827"),
        (["--example", "ex3", "--range", "0:1:777"],
         "fbd2e66d3dc71c611dd18de0e621c41802f36326cc5b0d30413b463021007f8e"),
    ])
    def test_static_family_bytes_are_stable(self, argv, digest, tmp_path):
        # ex1-ex3 rows use only +, -, * and / (linspace, the family, the
        # closed forms), so their CSV bytes are the same on every platform
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv, code, err", [
        (["--example", "ex1", "--range", "1:-1:5"], EXIT_USAGE,
         "error: example1 needs a in (0, 1], got 0.0\n"),
        (["--example", "ex2", "--range", "0.5:1.5:3"], EXIT_USAGE,
         "error: example2 needs a in [0, 1], got 1.5\n"),
        (["--example", "ex3", "--range", "0:2:5"], EXIT_USAGE,
         "error: example3 needs a in [0, 1], got 1.5\n"),
        (["--example", "ex4", "--range", "1:-1:5"], EXIT_USAGE,
         "error: gt must be nonnegative, got -1.282549830161864\n"),
        (["--example", "ex4", "--range", "0:1e308:3"], EXIT_USAGE,
         "error: alpha, beta, gt must be finite\n"),
        (["--example", "ex5", "--range", "1:-1:3"], EXIT_USAGE,
         "error: gt must be finite and nonnegative, got -1.0\n"),
    ])
    def test_first_bad_row_mid_range(self, argv, code, err, tmp_path, capsys):
        # the rows before the first out-of-domain one are fine; it alone
        # decides the exit code and the message, and nothing is written
        out = tmp_path / "x.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_first_invalid_row_mid_range(self, tmp_path, capsys, monkeypatch):
        _reject_ex1_rows(monkeypatch, above=0.5)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--example", "ex1", "--range", "0.1:1:4",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: populations must sum to 1, got 2.0\n"
        assert not out.exists()

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
        _reject_ex1_rows(monkeypatch, above=0.0)
        code = main(["sweep", "--example", "ex1", "--range", "0.1:1:3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: populations must sum to 1")

    def test_guard_checks_rows_in_parameter_order(self, tmp_path, monkeypatch):
        # a two-sided value below the one-sided one on a row before the first
        # rejected point raises, as a row-by-row loop would, and writes nothing
        _reject_ex1_rows(monkeypatch, above=0.5)

        def inverted(*columns):
            n = len(columns[0])
            return np.ones(n), np.zeros(n)

        monkeypatch.setattr(cli, "x_measures_columns", inverted)
        out = tmp_path / "x.csv"
        with pytest.raises(RuntimeError, match="two-sided value fell below one-sided at param 0.1$"):
            main(["sweep", "--example", "ex1", "--range", "0.1:1:3", "--out", str(out)])
        assert not out.exists()


def _reject_ex1_rows(monkeypatch, above):
    """Make ex1's rows at a > above the invalid X state d = (1/2, 1/2, 1/2,
    1/2), both in the sweep's array pass and in the scalar constructor that
    reports the first rejected row."""
    family_rows = cli.example_rows

    def example_rows(example, a):
        columns, accepted = family_rows(example, a)
        bad = a > above
        columns = [np.where(bad, 0.5 if i < 4 else 0.0, c) for i, c in enumerate(columns)]
        return columns, accepted & measures.x_params_accepted(*columns)

    monkeypatch.setattr(cli, "example_rows", example_rows)
    monkeypatch.setattr(
        cli, "example1",
        lambda a: XStateParams(0.5, 0.5, 0.5, 0.5) if a > above else example1(a))


def _rule_edge_rows() -> list[list[float]]:
    """Rows (d0, d1, d2, d3, |a03|, |a12|) on and around every bound of the
    X-state validity rule: corners at sqrt(d0 d3) and sqrt(d1 d2) plus and
    minus the 1e-12 slack, population sums at 1 +/- 1e-12, populations at
    -1e-12 and -0.0, give or take an ulp each, and NaN or inf in each
    column."""
    def around(x):
        return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]

    d = [0.3, 0.2, 0.1, 0.4]
    b03, b12 = np.sqrt(0.3 * 0.4), np.sqrt(0.2 * 0.1)
    rows = []
    for slack in (1e-12, -1e-12):
        rows += [[*d, m, 0.1] for m in around(b03 + slack)]
        rows += [[*d, 0.1, m] for m in around(b12 + slack)]
        for d3 in around(0.4 + slack) + around(around(0.4 + slack)[0])[:1]:
            rows += [[0.3, 0.2, 0.1, d3, 0.0, 0.0], [0.3, 0.2, 0.1, d3, 0.2, 0.1]]
    for p in around(-1e-12) + [-0.0]:
        for corner in (0.0, 1e-12, 0.1):
            rows += [[p, 0.5, 0.1, 0.4 - p, corner, 0.0], [0.3, p, 0.3 - p, 0.4, 0.0, corner]]
    for column in range(6):
        for bad in (np.nan, np.inf, -np.inf):
            row = [*d, 0.1, 0.1]
            row[column] = bad
            rows.append(row)
    return rows


class TestSweepValidation:
    # the sweep's array check and XStateParams share one rule: they accept
    # and reject the same rows, and the first rejected row reports the
    # constructor's own message

    def test_array_rule_is_the_constructors(self):
        rows = _rule_edge_rows()
        accepted = measures.x_params_accepted(*np.array(rows).T)
        for row, ok in zip(rows, accepted.tolist()):
            try:
                XStateParams(*row)
            except ValueError:
                assert not ok, row
            else:
                assert ok, row
        assert 0 < accepted.sum() < len(rows)

    def test_first_rejected_row_message(self, tmp_path, capsys, monkeypatch):
        rows = np.array(_rule_edge_rows())
        rng = np.random.default_rng(3)
        for _ in range(20):
            order = rows[rng.permutation(len(rows))]
            monkeypatch.setattr(
                cli, "example_rows",
                lambda example, a: (list(order.T), measures.x_params_accepted(*order.T)))
            monkeypatch.setattr(cli, "example1", lambda a: XStateParams(*order[int(a)]))
            for row in order:  # the row-by-row loop's first rejection
                try:
                    XStateParams(*row)
                except ValueError as exc:
                    want = f"error: {exc}\n"
                    break
            code = main(["sweep", "--example", "ex1", "--range", f"0:{len(rows) - 1}:{len(rows)}",
                         "--out", str(tmp_path / "x.csv")])
            assert code == EXIT_VALIDATION
            assert capsys.readouterr().err == want


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
        if code == EXIT_OK:
            assert (tmp_path / "sweep.csv").read_bytes() == _scalar_sweep_csv(args[1:])


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
        assert "check f (two-sided optimizer vs brute force, 2 general states): " in out
        assert "check f, trial" not in out
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
        assert "check f (two-sided optimizer vs brute force, 1 general states): " in out
        assert "check f, trial" not in out
        assert out.endswith("FAILED\n")

    def test_optimizer_off_the_oracle_is_a_failure(self, capsys, monkeypatch):
        # check f compares ggqd_general with ggqd_bruteforce on general
        # states; a value off by more than 1e-9 is reported per trial
        def shifted(state):
            res = measures.ggqd_general(state)
            return dataclasses.replace(res, value=res.value + 1e-6)

        monkeypatch.setattr(cli, "ggqd_general", shifted)
        code = main(["verify", "--trials", "2", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY_FAILED
        assert "check f, trial 0: |brute force - optimizer| = " in out
        assert "check f, trial 1: |brute force - optimizer| = " in out

    # each check made to fail on every trial by moving one evaluator: the
    # failure-line prefix, the line's tail and the summary line before it,
    # whose aggregate is the largest or smallest failed value
    @pytest.mark.parametrize("name, by, failure, tail, summary, aggregate", [
        ("gd_bruteforce", 0.5, "check a, trial {i}: deviation ", " on d=(",
         "check a (closed form vs brute force, 2 X states): worst deviation ", max),
        ("ggqd_x", -0.5, "check b, trial {i}: ggqd - gd = ", " on d=(",
         "check b (two-sided >= one-sided, 2 X states): smallest margin ", min),
        ("gap_x", 1e-6, "check d, trial {i}: gap formula off by ", " on d=(",
         "check d (case gap formula vs subtraction): worst deviation ", max),
        ("gd_dakic", 0.5, "check e, trial {i}: ggqd - gd = ", " (general state)",
         "check e (two-sided >= one-sided, 2 general states): held on 0/2, "
         "smallest margin ", min),
    ], ids=["a", "b", "d", "e"])
    def test_each_check_reports_its_failures(self, capsys, monkeypatch, name, by,
                                             failure, tail, summary, aggregate):
        original = getattr(cli, name)

        def shifted(*args):
            res = original(*args)
            if isinstance(res, float):
                return res + by
            return dataclasses.replace(res, value=res.value + by)

        monkeypatch.setattr(cli, name, shifted)
        code = main(["verify", "--trials", "2", "--seed", "42"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_VERIFY_FAILED
        assert lines[-1] == "FAILED"
        values = []
        for i in range(2):
            prefix = failure.format(i=i)
            [line] = [line for line in lines if line.startswith(prefix)]
            value, rest = line[len(prefix):].split(" ", 1)
            assert (" " + rest).startswith(tail)
            values.append(float(value))
        [line] = [line for line in lines if line.startswith(summary)]
        assert line == summary + repr(aggregate(values))

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


# calls in an order that would expose state a shared parser kept between
# them: a default after an explicit value, a usage error between two valid
# calls, an optional --out left out, then another command
_REUSE_SEQUENCE = [
    ["sweep", "--example", "ex5", "--range", "0:2:21", "--alpha", "0.3", "--out", "a.csv"],
    ["sweep", "--example", "ex5", "--range", "0:2:21", "--out", "b.csv"],
    ["sweep", "--example", "ex6", "--range", "0:1:3", "--out", "c.csv"],
    ["sweep", "--example", "ex4", "--range", "0:1:11", "--out", "d.csv"],
    ["verify", "--seed", "7", "--trials", "1", "--out", "report.txt"],
    ["verify", "--seed", "8", "--trials", "1"],
    ["compute", "bell.x", "--method", "numeric"],
]


def _run_sequence(directory, monkeypatch):
    """Each call's exit code, stdout, stderr and the files in directory after it."""
    directory.mkdir()
    (directory / "bell.x").write_text(BELL_X, encoding="utf-8")
    monkeypatch.chdir(directory)
    results = []
    for argv in _REUSE_SEQUENCE:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        results.append((code, out.getvalue(), err.getvalue(), files))
    return results


class TestParserReuse:
    def test_calls_match_fresh_parsers(self, tmp_path, monkeypatch):
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_parser", cli.build_parser)
            reference = _run_sequence(tmp_path / "fresh", fresh)
        shared = _run_sequence(tmp_path / "shared", monkeypatch)
        assert [r[0] for r in reference] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK,
                                             EXIT_VERIFY_FAILED, EXIT_VERIFY_FAILED, EXIT_OK]
        assert "invalid choice: 'ex6'" in reference[2][2]
        assert "report.txt" not in reference[3][3] and "report.txt" in reference[4][3]
        for argv, ref, got in zip(_REUSE_SEQUENCE, reference, shared):
            assert got == ref, argv

    def test_build_parser_returns_a_new_parser(self, capsys):
        first = cli.build_parser()
        assert cli.build_parser() is not first
        assert first is not cli._parser()
        first.add_argument("--extra", required=True)
        assert main(["verify", "--seed", "3", "--trials", "1"]) == EXIT_VERIFY_FAILED
        assert capsys.readouterr().err == ""

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        path = write(tmp_path, "bell.x", BELL_X)
        assert main(["compute", path]) == EXIT_OK
        assert main(["sweep", "--example", "ex1", "--range", "0.1:1:4",
                     "--out", str(tmp_path / "ex1.csv")]) == EXIT_OK
        assert main(["compute", path, "--measure", "gd"]) == EXIT_OK
        # one top-level parser and its three subparsers
        assert built == ["geodiscord", "geodiscord compute", "geodiscord sweep",
                         "geodiscord verify"]
