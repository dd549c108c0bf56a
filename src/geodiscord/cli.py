"""Command-line front end.

Subcommands:
  compute  read a state from a file and print the requested measures
  sweep    tabulate an example family over a parameter grid as CSV
  verify   seeded randomized cross-check campaign over the evaluators

State file formats (text, UTF-8, one record per file):
  DM4  first line "DM4", then 16 lines "re im" giving the density matrix
       entries row-major.
  X    first line "X", then "d0 d1 d2 d3", then "re03 im03 re12 im12".

Exit codes: 0 success, 1 verification failure (including a two-sided
optimizer whose starts do not converge), 2 parse or usage error,
3 state validation failure, 4 unwritable output path.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix4,
    DensityValidationError,
    MeasurementAxis,
    validate_density,
)
from .measures import (
    MeasureResult,
    OptimizerDidNotConverge,
    XStateParams,
    classify_x_case,
    gap_x,
    gd_dakic,
    gd_x,
    ggqd_general,
    ggqd_x,
    x_measures_columns,
)
from .oracle import (
    REFERENCE_GRID,
    gd_bruteforce,
    ggqd_bruteforce,
    tqc_sequential,
)
from .states import (
    DomainError,
    as_x_params,
    example1,
    example2,
    example3,
    example4,
    example5,
    example_rows,
    normalize_x_phases,
    random_density,
    random_x_params,
    x_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_UNWRITABLE = 4

_EXAMPLE_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5")


class StateFileError(ValueError):
    """A state file does not match the DM4 or X layout."""


def _split_numbers(line: str, line_no: int, expect: int) -> list[float]:
    """Parse a whitespace-separated number row, reporting position on failure."""
    tokens = line.split()
    if len(tokens) != expect:
        raise StateFileError(
            f"line {line_no}: expected {expect} numbers, found {len(tokens)}"
        )
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        pass
    # some token is bad: find the first one and its column
    cursor = 0
    for tok in tokens:
        col = line.index(tok, cursor) + 1
        cursor = col - 1 + len(tok)
        try:
            float(tok)
        except ValueError:
            raise StateFileError(
                f"line {line_no}, column {col}: cannot parse {tok!r} as a number"
            ) from None


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Numbered nonblank lines; blank lines are allowed only at the end."""
    numbered = [(i + 1, line) for i, line in enumerate(text.splitlines())]
    while numbered and not numbered[-1][1].strip():
        numbered.pop()
    for no, line in numbered:
        if not line.strip():
            raise StateFileError(f"line {no}: blank line inside record")
    return numbered


def parse_state_text(text: str):
    """Parse DM4 or X file content.

    Returns a raw 4x4 complex ndarray for DM4 input (validation is the
    caller's job) or an XStateParams for X input.
    """
    lines = _content_lines(text)
    if not lines:
        raise StateFileError("line 1: expected header 'DM4' or 'X', got empty file")
    head_no, head = lines[0]
    header = head.strip()
    if header == "DM4":
        if len(lines) != 17:
            raise StateFileError(
                f"DM4 record needs 16 entry lines after the header, found {len(lines) - 1}"
            )
        entries = []
        for no, line in lines[1:]:
            re_part, im_part = _split_numbers(line, no, 2)
            entries.append(complex(re_part, im_part))
        return np.array(entries, dtype=complex).reshape(4, 4)
    if header == "X":
        if len(lines) != 3:
            raise StateFileError(
                f"X record needs 2 lines after the header, found {len(lines) - 1}"
            )
        d_no, d_line = lines[1]
        a_no, a_line = lines[2]
        d0, d1, d2, d3 = _split_numbers(d_line, d_no, 4)
        re03, im03, re12, im12 = _split_numbers(a_line, a_no, 4)
        return XStateParams(d0, d1, d2, d3, complex(re03, im03), complex(re12, im12))
    raise StateFileError(f"line {head_no}: expected header 'DM4' or 'X', got {header!r}")


def format_dm4(state: DensityMatrix4) -> str:
    """Serialize to DM4 text; floats print shortest-round-trip."""
    rows = ["DM4"]
    for v in state.matrix.ravel():
        rows.append(f"{float(v.real)!r} {float(v.imag)!r}")
    return "\n".join(rows) + "\n"


def format_x(p: XStateParams) -> str:
    """Serialize to X text; floats print shortest-round-trip."""
    d_line = f"{p.d0!r} {p.d1!r} {p.d2!r} {p.d3!r}"
    a_line = f"{p.a03.real!r} {p.a03.imag!r} {p.a12.real!r} {p.a12.imag!r}"
    return "\n".join(["X", d_line, a_line]) + "\n"


def _fmt_axis(axis: MeasurementAxis) -> str:
    return "({}, {}, {})".format(*(repr(float(c)) for c in axis.n))


def _print_result(name: str, res: MeasureResult) -> None:
    print(f"{name} = {res.value!r}")
    print(f"  method: {res.method.value}")
    if res.maximizer is not None:
        a_axis, b_axis = res.maximizer
        if a_axis is not None:
            print(f"  a axis: {_fmt_axis(a_axis)}")
        if b_axis is not None:
            print(f"  b axis: {_fmt_axis(b_axis)}")


def _compute_one(measure: str, method: str, state: DensityMatrix4,
                 normalized: XStateParams | None) -> MeasureResult:
    """One measure of state; normalized is its phase-normalized X form, if any."""
    if method == "analytic":
        if normalized is not None:
            return gd_x(normalized) if measure == "gd" else ggqd_x(normalized)
        if measure == "gd":
            return gd_dakic(state)
        raise StateFileError(
            "no closed form covers the two-sided measure of a non-X state; "
            "use --method numeric or --method brute"
        )
    if method == "numeric":
        return gd_dakic(state) if measure == "gd" else ggqd_general(state)
    return (gd_bruteforce if measure == "gd" else ggqd_bruteforce)(state, REFERENCE_GRID)


def cmd_compute(args) -> int:
    try:
        with open(args.state_file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.state_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"error: {args.state_file}: not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        parsed = parse_state_text(text)
    except StateFileError as exc:
        print(f"error: {args.state_file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {args.state_file}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if isinstance(parsed, XStateParams):
            params: XStateParams | None = parsed
            state = x_state(parsed)
        else:
            state = validate_density(parsed)
            try:
                params = as_x_params(state)
            except ValueError:
                params = None
    except (DensityValidationError, ValueError) as exc:
        print(f"error: {args.state_file}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    normalized = None
    if params is not None:
        norm = normalize_x_phases(params)
        normalized = norm.normalized
        print(f"case = {classify_x_case(normalized).tag.name}")
        if args.method == "analytic" and (norm.theta1 != 0.0 or norm.theta2 != 0.0):
            print(
                "note: antidiagonal phases removed before analytic evaluation "
                f"(theta1 = {norm.theta1!r}, theta2 = {norm.theta2!r})"
            )

    measures = ("gd", "ggqd") if args.measure == "both" else (args.measure,)
    for measure in measures:
        try:
            result = _compute_one(measure, args.method, state, normalized)
        except StateFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except OptimizerDidNotConverge as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        _print_result(measure, result)
    return EXIT_OK


# a sweep holds every row's columns and output until it writes the file,
# about 390 bytes each (100 000 steps: 0.4 s and 67-69 MB peak, 30 MB of
# it the import), so a mistyped 10^8 steps would need about 39 GB; the
# count is checked before np.linspace allocates
_MAX_RANGE_STEPS = 100_000


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise StateFileError(f"range must look like start:end:steps, got {text!r}")
    try:
        start, end = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise StateFileError(f"range must look like start:end:steps, got {text!r}") from None
    if steps < 2:
        raise StateFileError(f"range needs at least 2 steps, got {steps}")
    if steps > _MAX_RANGE_STEPS:
        raise StateFileError(
            f"range allows at most {_MAX_RANGE_STEPS} steps, got {steps}"
        )
    if not math.isfinite(end - start):
        raise StateFileError(f"range ends and their difference must be finite, got {text!r}")
    return np.linspace(start, end, steps)


def _family_args(example: str, value, alpha: float | None) -> tuple:
    """The family constructor's arguments at a sweep parameter value, a
    float or an array of them.

    ex1-ex3 sweep the mixing parameter directly.  ex4 sweeps the scaled
    time tau with g*t = 2 pi tau / sqrt(6), so one period is tau = 1;
    default weights are alpha = beta = 1/sqrt(2).  ex5 sweeps gamma*t with
    default alpha = 0.1.  An ex4 alpha outside [0, 1] raises DomainError.
    """
    if example in ("ex1", "ex2", "ex3"):
        return (value,)
    if example == "ex4":
        a = (1.0 / math.sqrt(2.0)) if alpha is None else alpha
        if not 0.0 <= a <= 1.0:
            raise DomainError(f"alpha must lie in [0, 1], got {a!r}")
        b = math.sqrt(max(0.0, 1.0 - a * a))
        return a, b, 2.0 * math.pi * value / math.sqrt(6.0)
    return (0.1 if alpha is None else alpha), value


def _family_point(example: str, value: float, alpha: float | None) -> XStateParams:
    """The sweep's row at one parameter value, by the scalar constructors."""
    args = _family_args(example, value, alpha)
    if example == "ex1":
        return example1(*args)
    if example == "ex2":
        return example2(*args)
    if example == "ex3":
        return example3(*args)
    if example == "ex4":
        return example4(*args)
    return example5(*args)


def cmd_sweep(args) -> int:
    try:
        grid = _parse_range(args.range)
    except StateFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    params = grid.tolist()
    try:
        with np.errstate(all="ignore"):  # out-of-range rows are rejected below
            family_args = _family_args(args.example, grid, args.alpha)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # every row is built and validated in one array pass; the rows before
    # the first rejected one are checked first, so the first bad row in
    # parameter order decides the outcome, as in a row-by-row loop
    columns, accepted = example_rows(args.example, *family_args)
    rejected = np.flatnonzero(~accepted)
    n = int(rejected[0]) if rejected.size else len(params)
    gd_values, ggqd_values = x_measures_columns(*(c[:n] for c in columns))
    below = np.flatnonzero(ggqd_values < gd_values - 1e-10)
    if below.size:
        raise RuntimeError(
            f"two-sided value fell below one-sided at param {params[below[0]]!r}"
        )
    if n < len(params):
        # the scalar constructor reports the rule that row breaks
        try:
            _family_point(args.example, params[n], args.alpha)
        except ValueError as exc:  # DomainError, or a point XStateParams rejects
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE if isinstance(exc, DomainError) else EXIT_VALIDATION
        raise AssertionError(
            f"the array pass rejected param {params[n]!r}, the scalar route did not"
        )

    rows = ["param,gd,ggqd"]
    rows.extend(
        f"{a!r},{g!r},{q!r}"
        for a, g, q in zip(params, gd_values.tolist(), ggqd_values.tolist())
    )
    content = "\n".join(rows) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    print(f"wrote {len(params)} rows to {args.out}")
    return EXIT_OK


@dataclass(frozen=True)
class RunConfig:
    """Settings for the verification campaign."""

    seed: int = 42
    trials: int = 200
    tolerance: float = 1e-4
    output_path: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


def _describe_params(p: XStateParams) -> str:
    return (
        f"d=({p.d0!r}, {p.d1!r}, {p.d2!r}, {p.d3!r}), "
        f"a03={p.a03!r}, a12={p.a12!r}"
    )


def cmd_verify(config: RunConfig) -> int:
    """Randomized cross-checks; prints one line per check, exit 1 on failure.

    X-state trials compare the closed forms against the brute-force search
    and the case-gap algebra; general-state trials compare the greedy
    two-step search against the joint one (check c), assert GGQD >= GD
    off the X family (check e) and compare the two-sided optimizer with the
    brute-force search (check f, a failure beyond 1e-9).  A general-state
    trial whose two-sided optimizer raises OptimizerDidNotConverge is
    recorded as a failure and skipped.

    Check e holds for every two-qubit state.  With Bloch data x, y, T,
    product dephasing along unit axes (a, b) keeps purity
    (1 + f(a, b))/4 with f = (a.x)^2 + (b.y)^2 + (a^T T b)^2, and side-A
    dephasing keeps (1 + (a.x)^2 + |y|^2 + |T^T a|^2)/4.  Since
    (b.y)^2 <= |y|^2 and (a^T T b)^2 <= |T^T a|^2,

        max_ab f <= |y|^2 + max_a [(a.x)^2 + |T^T a|^2],

    so the two-sided search keeps no more purity than the one-sided one and
    GGQD - GD >= 0.  A margin below -1e-10 is a failure.
    """
    rng = np.random.default_rng(config.seed)
    failures: list[str] = []
    lines: list[str] = [
        f"verify: seed={config.seed} trials={config.trials} "
        f"tolerance={config.tolerance!r}"
    ]

    worst_gap_x = 0.0
    worst_margin = math.inf
    worst_case_dev = 0.0
    for i in range(config.trials):
        raw = random_x_params(rng)
        norm = normalize_x_phases(raw).normalized
        state = x_state(norm)
        gd_an = gd_x(norm).value
        ggqd_an = ggqd_x(norm).value
        gd_br = gd_bruteforce(state, REFERENCE_GRID).value
        ggqd_br = ggqd_bruteforce(state, REFERENCE_GRID).value
        dev = max(abs(gd_br - gd_an), abs(ggqd_br - ggqd_an))
        worst_gap_x = max(worst_gap_x, dev)
        if dev > config.tolerance:
            failures.append(
                f"check a, trial {i}: deviation {dev!r} on {_describe_params(raw)}"
            )
        margin = ggqd_an - gd_an
        worst_margin = min(worst_margin, margin)
        if margin < -1e-12:
            failures.append(
                f"check b, trial {i}: ggqd - gd = {margin!r} on {_describe_params(raw)}"
            )
        case_dev = abs(gap_x(norm) - (ggqd_an - gd_an))
        worst_case_dev = max(worst_case_dev, case_dev)
        if case_dev > 1e-12:
            failures.append(
                f"check d, trial {i}: gap formula off by {case_dev!r} "
                f"on {_describe_params(raw)}"
            )

    lines.append(
        f"check a (closed form vs brute force, {config.trials} X states): "
        f"worst deviation {worst_gap_x!r}"
    )
    lines.append(
        f"check b (two-sided >= one-sided, {config.trials} X states): "
        f"smallest margin {worst_margin!r}"
    )
    lines.append(
        f"check d (case gap formula vs subtraction): worst deviation {worst_case_dev!r}"
    )

    worst_tqc = 0.0
    worst_general = 0.0
    ordered = 0
    min_general_margin = math.inf
    for i in range(config.trials):
        state = random_density(rng)
        tqc = tqc_sequential(state, REFERENCE_GRID).value
        joint = ggqd_bruteforce(state, REFERENCE_GRID).value
        dev = abs(tqc - joint)
        worst_tqc = max(worst_tqc, dev)
        if dev > 2e-6:
            failures.append(
                f"check c, trial {i}: |sequential - joint| = {dev!r} "
                f"(general state, reproducible from seed)"
            )
        try:
            general = ggqd_general(state).value
            margin = general - gd_dakic(state).value
        except OptimizerDidNotConverge as exc:
            failures.append(f"two-sided optimizer, trial {i}: {exc} (general state)")
            continue
        min_general_margin = min(min_general_margin, margin)
        if margin < -1e-10:
            failures.append(f"check e, trial {i}: ggqd - gd = {margin!r} (general state)")
        else:
            ordered += 1
        general_dev = abs(joint - general)
        worst_general = max(worst_general, general_dev)
        if general_dev > 1e-9:
            failures.append(
                f"check f, trial {i}: |brute force - optimizer| = {general_dev!r} "
                f"(general state)"
            )

    lines.append(
        f"check c (greedy two-step vs joint search, {config.trials} general "
        f"states): worst deviation {worst_tqc!r}"
    )
    lines.append(
        f"check e (two-sided >= one-sided, {config.trials} general states): "
        f"held on {ordered}/{config.trials}, smallest margin {min_general_margin!r}"
    )
    lines.append(
        f"check f (two-sided optimizer vs brute force, {config.trials} general "
        f"states): worst deviation {worst_general!r}"
    )

    lines.extend(failures)
    lines.append("FAILED" if failures else "all checks passed")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if config.output_path is not None:
        try:
            with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodiscord",
        description="Geometric discord and its two-sided global extension "
        "for two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate measures for a state file")
    c.add_argument("state_file", help="path to a DM4 or X format file")
    c.add_argument("--measure", choices=("gd", "ggqd", "both"), default="both")
    c.add_argument("--method", choices=("analytic", "numeric", "brute"),
                   default="analytic")

    s = sub.add_parser("sweep", help="tabulate an example family as CSV")
    s.add_argument("--example", choices=_EXAMPLE_IDS, required=True)
    s.add_argument("--range", required=True, metavar="START:END:STEPS")
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--alpha", type=float, default=None,
                   help="initial weight for ex4/ex5 (defaults 1/sqrt(2), 0.1)")

    v = sub.add_parser("verify", help="run the randomized cross-check campaign")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--tol", type=float, default=1e-4)
    v.add_argument("--out", default=None, help="also write the report here")
    return parser


# main's parser, built on the first call and reused for the rest of the
# process: it holds nothing that depends on the input, and every call parses
# its own argv.  build_parser() returns a new parser on each call, so a caller
# that changes its own cannot change this one.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compute":
        return cmd_compute(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    try:
        config = RunConfig(seed=args.seed, trials=args.trials, tolerance=args.tol,
                           output_path=args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return cmd_verify(config)


def entry() -> None:
    sys.exit(main())
