"""State constructors and example families.

Builds X-state density matrices from parameters, removes antidiagonal phases
by a local unitary, and provides five worked families: three static
one-parameter mixtures with known closed-form correlation curves, a pair of
atoms exchanging one excitation with a vacuum cavity mode (Tavis-Cummings
dynamics), and a pair of atoms decaying into a shared vacuum reservoir.  The
seeded random generators used by the verification command and the test suite
live here too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix4, validate_density
from .measures import XStateParams, _finite, x_params_accepted


# the diagonal and the antidiagonal of a 4x4 matrix
_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


class DomainError(ValueError):
    """A family parameter lies outside its documented domain."""


def x_state(p: XStateParams) -> DensityMatrix4:
    """Density matrix with diagonal (d0..d3) and corners a03, a12."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = p.d0, p.d1, p.d2, p.d3
    m[0, 3] = p.a03
    m[3, 0] = np.conj(p.a03)
    m[1, 2] = p.a12
    m[2, 1] = np.conj(p.a12)
    return validate_density(m)


def as_x_params(state: DensityMatrix4, atol: float = 1e-12) -> XStateParams:
    """Extract X-state parameters, rejecting matrices with off-pattern mass.

    The eight entries outside the diagonal and antidiagonal must all be
    smaller than atol in absolute value.
    """
    m = state.matrix
    worst = float(np.abs(m[~_X_PATTERN]).max())
    if worst > atol:
        raise ValueError(
            f"matrix is not X-shaped: off-pattern entry of magnitude {worst!r}"
        )
    return XStateParams(
        m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real, m[0, 3], m[1, 2]
    )


@dataclass(frozen=True)
class PhaseNormalization:
    """Result of rotating away the antidiagonal phases of an X state.

    theta1 and theta2 are the z-rotation angles of the local unitary
    U = exp(-i theta1 sigma_z) (x) exp(-i theta2 sigma_z); conjugating as
    U+ rho U maps the original state to x_state(normalized), whose corners
    are the nonnegative reals |a03| and |a12|.  Diagonals are untouched.
    """

    theta1: float
    theta2: float
    normalized: XStateParams

    def unitary(self) -> np.ndarray:
        """The 4x4 local unitary U realizing the normalization."""
        za = np.diag([np.exp(-1j * self.theta1), np.exp(1j * self.theta1)])
        zb = np.diag([np.exp(-1j * self.theta2), np.exp(1j * self.theta2)])
        return np.kron(za, zb)


def normalize_x_phases(p: XStateParams) -> PhaseNormalization:
    """Choose local z-rotations that make both corners real nonnegative.

    With g03 = arg(a03) and g12 = arg(a12), the angles are
    theta1 = -(g03 + g12)/4 and theta2 = -(g03 - g12)/4; a zero corner
    contributes a zero argument, so already-real input normalizes with
    theta1 = theta2 = 0.
    """
    g03 = cmath.phase(p.a03) if p.a03 != 0 else 0.0
    g12 = cmath.phase(p.a12) if p.a12 != 0 else 0.0
    theta1 = -(g03 + g12) / 4.0
    theta2 = -(g03 - g12) / 4.0
    normalized = XStateParams(p.d0, p.d1, p.d2, p.d3, abs(p.a03), abs(p.a12))
    return PhaseNormalization(theta1, theta2, normalized)


def _raise_unless(holds, error, message) -> None:
    """Scalar check of one family rule: raise error(message()) unless it holds."""
    if not holds:
        raise error(message())


class _RowChecks:
    """Array check of the family rules: the rows on which every rule held."""

    def __init__(self):
        self.holds = True

    def __call__(self, holds, error, message) -> None:
        self.holds = self.holds & holds


# Every family is written once, as a function of its arguments and a check
# that each rule goes through, array-generic: the scalar constructors pass
# _raise_unless, which stops at the first rule broken, and example_rows
# passes _RowChecks, which evaluates every row at once.


def _normalized(weights, check) -> None:
    """The normalization rule of the amplitude families: the squared
    moduli, in the order given, sum to 1 within 1e-12."""
    total = weights[0] + weights[1] + weights[2] + weights[3]
    check(abs(total - 1.0) <= 1e-12, ValueError,
          lambda: f"amplitudes not normalized: sum of squares {float(total)!r}")


def _example1(a, check):
    check((0.0 < a) & (a <= 1.0), DomainError,
          lambda: f"example1 needs a in (0, 1], got {a!r}")
    return a / 2.0, 0.0, 0.0, 1.0 - a / 2.0, a / 2.0, 0.0


def _example2(a, check):
    check((0.0 <= a) & (a <= 1.0), DomainError,
          lambda: f"example2 needs a in [0, 1], got {a!r}")
    return 0.0, a / 2.0, a / 2.0, 1.0 - a, 0.0, a / 2.0


def _example3(a, check):
    check((0.0 <= a) & (a <= 1.0), DomainError,
          lambda: f"example3 needs a in [0, 1], got {a!r}")
    return (1.0 - a) / 3.0, 1.0 / 3.0, 1.0 / 3.0, a / 3.0, 0.0, 1.0 / 3.0


def example1(a: float) -> XStateParams:
    """Bell state mixed with |11><11|: d=(a/2, 0, 0, 1-a/2), corner a03=a/2.

    Both correlation measures equal a^2/2 on this family.
    """
    return XStateParams(*_example1(a, _raise_unless))


def example2(a: float) -> XStateParams:
    """Central Bell mixture: d=(0, a/2, a/2, 1-a), corner a12=a/2."""
    return XStateParams(*_example2(a, _raise_unless))


def example3(a: float) -> XStateParams:
    """Rank-deficient family d=((1-a)/3, 1/3, 1/3, a/3) with fixed a12=1/3.

    Both measures are symmetric about a = 1/2, where they share the
    minimum 5/36.
    """
    return XStateParams(*_example3(a, _raise_unless))


@dataclass(frozen=True)
class TCAmplitudes:
    """Two-atom amplitudes under resonant exchange with a vacuum cavity mode.

    Branch weights of the two-excitation sector: c1 has both excitations in
    the field (atoms ground), c2 one shared atomic excitation plus one
    photon, c3 both excitations in the atoms; c4 is the excitation-free
    ground branch, which does not evolve.  Moduli squared sum to 1.
    """

    c1: complex
    c2: complex
    c3: complex
    c4: complex

    def __post_init__(self):
        weights = [c.real * c.real + c.imag * c.imag for c in (self.c1, self.c2, self.c3, self.c4)]
        _normalized(weights, _raise_unless)


def _tc_branches(alpha, beta, gt, check):
    """c1, Im c2 and c3 of tc_amplitudes (c1 and c3 are real, c2 imaginary)."""
    check(_finite(alpha) & _finite(beta) & _finite(gt), DomainError,
          lambda: "alpha, beta, gt must be finite")
    check(abs(alpha * alpha + beta * beta - 1.0) <= 1e-12, DomainError,
          lambda: f"alpha^2 + beta^2 must equal 1, got {alpha * alpha + beta * beta!r}")
    check(gt >= 0.0, DomainError, lambda: f"gt must be nonnegative, got {gt!r}")
    w = math.sqrt(6.0) * gt
    cos_w = np.cos(w)
    c1 = -(math.sqrt(2.0) / 3.0) * beta * (1.0 - cos_w)
    c2 = -(beta / math.sqrt(3.0)) * np.sin(w)
    c3 = beta * (2.0 + cos_w) / 3.0
    return c1, c2, c3


def tc_amplitudes(alpha: float, beta: float, gt: float) -> TCAmplitudes:
    """Closed-form Tavis-Cummings amplitudes at dimensionless time g*t.

    The initial state carries the whole excitation pair in the atoms with
    weight beta and none with weight alpha, so alpha^2 + beta^2 must be 1.
    The dynamics are periodic with period sqrt(6) g t = 2 pi.
    """
    c1, c2, c3 = _tc_branches(alpha, beta, gt, _raise_unless)
    return TCAmplitudes(complex(c1), complex(0.0, c2), complex(c3), complex(alpha))


def _example4(alpha, beta, gt, check):
    c1, c2, c3 = _tc_branches(alpha, beta, gt, check)
    m1, m2, m3, m4 = c1 * c1, c2 * c2, c3 * c3, alpha * alpha
    _normalized((m1, m2, m3, m4), check)
    return m1 + m4, m2 / 2.0, m2 / 2.0, m3, abs(c3 * alpha), m2 / 2.0


def example4(alpha: float, beta: float, gt: float) -> XStateParams:
    """Reduced two-atom state of the cavity model at dimensionless time g*t.

    d = (|c1|^2 + |c4|^2, |c2|^2/2, |c2|^2/2, |c3|^2) with corners
    a12 = |c2|^2/2 and a03 = |c3 c4|; the amplitudes are those of
    tc_amplitudes, c4 = alpha.
    """
    return XStateParams(*_example4(alpha, beta, gt, _raise_unless))


@dataclass(frozen=True)
class ReservoirAmplitudes:
    """Two-atom amplitudes for collective decay into a vacuum reservoir.

    All three dynamical amplitudes are real here; alpha is the constant
    ground-branch weight.  alpha^2 plus the squared amplitudes sum to 1.
    """

    c1: float
    c2: float
    c3: float
    alpha: float

    def __post_init__(self):
        weights = [v * v for v in (self.alpha, self.c1, self.c2, self.c3)]
        _normalized(weights, _raise_unless)


def _reservoir_branches(alpha, gt, check):
    """c1, c2, c3 of reservoir_amplitudes."""
    check((0.0 <= alpha) & (alpha <= 1.0), DomainError,
          lambda: f"alpha must lie in [0, 1], got {alpha!r}")
    check(_finite(gt) & (gt >= 0.0), DomainError,
          lambda: f"gt must be finite and nonnegative, got {gt!r}")
    beta = np.sqrt(1.0 - alpha * alpha)
    decay = np.exp(-gt)
    c1 = beta * decay
    # exp(-gt) underflows to 0 long before 2 gt overflows to inf, whose
    # product with it would be nan; such rows take gt = 0, so c2 = 0
    c2 = beta * np.sqrt(2.0 * np.where(decay > 0.0, gt, 0.0)) * decay
    radicand = 1.0 - alpha * alpha - c1 * c1 - c2 * c2
    radicand = np.where((-1e-14 <= radicand) & (radicand < 0.0), 0.0, radicand)
    check(radicand >= 0.0, ValueError,
          lambda: f"leaked population {float(radicand)!r} is negative")
    return c1, c2, np.sqrt(radicand)


def reservoir_amplitudes(alpha: float, gt: float) -> ReservoirAmplitudes:
    """Closed-form collective-decay amplitudes at dimensionless time gamma*t.

    beta = sqrt(1 - alpha^2); c1 = beta exp(-gt), c2 = beta sqrt(2 gt)
    exp(-gt), and c3 absorbs the leaked population so normalization is exact.
    Round-off can push the c3 radicand a hair below zero near gt = 0; values
    in [-1e-14, 0) are clamped to 0.
    """
    c1, c2, c3 = _reservoir_branches(alpha, gt, _raise_unless)
    return ReservoirAmplitudes(float(c1), float(c2), float(c3), alpha)


def _example5(alpha, gt, check):
    c1, c2, c3 = _reservoir_branches(alpha, gt, check)
    m0, m1, m2, m3 = alpha * alpha, c1 * c1, c2 * c2, c3 * c3
    _normalized((m0, m1, m2, m3), check)
    return m0 + m3, m2 / 2.0, m2 / 2.0, m1, alpha * c1, m2 / 2.0


def example5(alpha: float, gt: float) -> XStateParams:
    """Reduced two-atom state of the collective-decay model at gamma*t.

    d = (alpha^2 + c3^2, c2^2/2, c2^2/2, c1^2) with corners a12 = c2^2/2
    and a03 = alpha*c1; the amplitudes are those of reservoir_amplitudes.
    """
    return XStateParams(*_example5(alpha, gt, _raise_unless))


_FAMILIES = {"ex1": _example1, "ex2": _example2, "ex3": _example3,
             "ex4": _example4, "ex5": _example5}


def example_rows(example_id: str, *args) -> tuple[list[np.ndarray], np.ndarray]:
    """A family over arrays of its arguments, in one array pass.

    example_id is one of 'ex1'..'ex5' and args are the arguments of
    example1..example5, arrays or floats, which broadcast.  Returns the six
    columns (d0, d1, d2, d3, |a03|, |a12|) as equal-length arrays, ready for
    ``x_measures_columns``, and a boolean array of the rows the scalar
    constructor accepts: its domain rules, the amplitude normalization of
    ex4 and ex5 and XStateParams' validity rule, each evaluated by the same
    code as in the scalar constructor.  An accepted row holds that
    constructor's XStateParams fields bit for bit, corners by modulus.
    Rejected rows hold whatever the arithmetic gave, without a
    floating-point warning; the scalar constructor on such a row raises
    the rule's error.
    """
    checks = _RowChecks()
    with np.errstate(all="ignore"):
        *d, a03, a12 = np.broadcast_arrays(*_FAMILIES[example_id](*args, checks))
        columns = [*d, np.abs(a03), np.abs(a12)]
        accepted = checks.holds & x_params_accepted(*columns)
    return columns, accepted


def example_reference(example_id: str, measure: str, a: float) -> float:
    """Published closed-form curve value for the three static families.

    example_id is one of 'ex1', 'ex2', 'ex3' and measure is 'gd' or 'ggqd'.
    Used as an independent fixture against the evaluators; accepts the
    closed [0, 1] domain for all three families (the a=0 endpoint of ex1 is
    the curve's limit even though the constructor excludes it).
    """
    if measure not in ("gd", "ggqd"):
        raise DomainError(f"measure must be 'gd' or 'ggqd', got {measure!r}")
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"curves are defined on [0, 1], got {a!r}")
    if example_id == "ex1":
        return a * a / 2.0
    if example_id == "ex2":
        if measure == "ggqd":
            return a * a / 2.0 if a <= 0.6 else (3.0 - 8.0 * a + 7.0 * a * a) / 4.0
        return a * a / 2.0 if a <= 0.5 else (1.0 - 3.0 * a + 3.0 * a * a) / 2.0
    if example_id == "ex3":
        if measure == "ggqd":
            return (7.0 - 8.0 * a + 8.0 * a * a) / 36.0
        return (3.0 - 2.0 * a + 2.0 * a * a) / 18.0
    raise DomainError(f"unknown example id {example_id!r}")


def random_x_params(rng: np.random.Generator, complex_phases: bool = True) -> XStateParams:
    """Random X state covering the whole positivity region.

    Populations come from sorted-uniform spacings (flat on the simplex),
    corner moduli are uniform on their allowed intervals [0, sqrt(d0 d3)]
    and [0, sqrt(d1 d2)], and phases are uniform when complex_phases is set.
    """
    cuts = np.sort(rng.uniform(0.0, 1.0, size=3))
    d = np.diff(np.concatenate(([0.0], cuts, [1.0])))
    m03 = rng.uniform(0.0, math.sqrt(d[0] * d[3]))
    m12 = rng.uniform(0.0, math.sqrt(d[1] * d[2]))
    if complex_phases:
        a03 = m03 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        a12 = m12 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    else:
        a03, a12 = complex(m03), complex(m12)
    return XStateParams(d[0], d[1], d[2], d[3], a03, a12)


def random_density(rng: np.random.Generator) -> DensityMatrix4:
    """Random full-rank two-qubit state from a complex Ginibre draw."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real)
