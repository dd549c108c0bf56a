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
from .measures import XStateParams


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


def example1(a: float) -> XStateParams:
    """Bell state mixed with |11><11|: d=(a/2, 0, 0, 1-a/2), corner a03=a/2.

    Both correlation measures equal a^2/2 on this family.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError(f"example1 needs a in (0, 1], got {a!r}")
    return XStateParams(a / 2.0, 0.0, 0.0, 1.0 - a / 2.0, a / 2.0, 0.0)


def example2(a: float) -> XStateParams:
    """Central Bell mixture: d=(0, a/2, a/2, 1-a), corner a12=a/2."""
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"example2 needs a in [0, 1], got {a!r}")
    return XStateParams(0.0, a / 2.0, a / 2.0, 1.0 - a, 0.0, a / 2.0)


def example3(a: float) -> XStateParams:
    """Rank-deficient family d=((1-a)/3, 1/3, 1/3, a/3) with fixed a12=1/3.

    Both measures are symmetric about a = 1/2, where they share the
    minimum 5/36.
    """
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"example3 needs a in [0, 1], got {a!r}")
    return XStateParams((1.0 - a) / 3.0, 1.0 / 3.0, 1.0 / 3.0, a / 3.0, 0.0, 1.0 / 3.0)


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
        total = abs(self.c1) ** 2 + abs(self.c2) ** 2 + abs(self.c3) ** 2 + abs(self.c4) ** 2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"amplitudes not normalized: sum of squares {total!r}")


def tc_amplitudes(alpha: float, beta: float, gt: float) -> TCAmplitudes:
    """Closed-form Tavis-Cummings amplitudes at dimensionless time g*t.

    The initial state carries the whole excitation pair in the atoms with
    weight beta and none with weight alpha, so alpha^2 + beta^2 must be 1.
    The dynamics are periodic with period sqrt(6) g t = 2 pi.
    """
    if not math.isfinite(alpha) or not math.isfinite(beta) or not math.isfinite(gt):
        raise DomainError("alpha, beta, gt must be finite")
    if abs(alpha * alpha + beta * beta - 1.0) > 1e-12:
        raise DomainError(
            f"alpha^2 + beta^2 must equal 1, got {alpha * alpha + beta * beta!r}"
        )
    if gt < 0.0:
        raise DomainError(f"gt must be nonnegative, got {gt!r}")
    w = math.sqrt(6.0) * gt
    c1 = -(math.sqrt(2.0) / 3.0) * beta * (1.0 - math.cos(w))
    c2 = -1j * (beta / math.sqrt(3.0)) * math.sin(w)
    c3 = beta * (2.0 + math.cos(w)) / 3.0
    c4 = complex(alpha)
    return TCAmplitudes(complex(c1), c2, complex(c3), c4)


def example4(alpha: float, beta: float, gt: float) -> XStateParams:
    """Reduced two-atom state of the cavity model at dimensionless time g*t.

    d = (|c1|^2 + |c4|^2, |c2|^2/2, |c2|^2/2, |c3|^2) with corners
    a12 = |c2|^2/2 and a03 = |c3 c4|.
    """
    c = tc_amplitudes(alpha, beta, gt)
    m1 = abs(c.c1) ** 2
    m2 = abs(c.c2) ** 2
    m3 = abs(c.c3) ** 2
    m4 = abs(c.c4) ** 2
    return XStateParams(m1 + m4, m2 / 2.0, m2 / 2.0, m3, abs(c.c3 * c.c4), m2 / 2.0)


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
        total = self.alpha**2 + self.c1**2 + self.c2**2 + self.c3**2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"amplitudes not normalized: sum of squares {total!r}")


def reservoir_amplitudes(alpha: float, gt: float) -> ReservoirAmplitudes:
    """Closed-form collective-decay amplitudes at dimensionless time gamma*t.

    beta = sqrt(1 - alpha^2); c1 = beta exp(-gt), c2 = beta sqrt(2 gt)
    exp(-gt), and c3 absorbs the leaked population so normalization is exact.
    Round-off can push the c3 radicand a hair below zero near gt = 0; values
    in [-1e-14, 0) are clamped to 0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    if not math.isfinite(gt) or gt < 0.0:
        raise DomainError(f"gt must be finite and nonnegative, got {gt!r}")
    beta_sq = 1.0 - alpha * alpha
    beta = math.sqrt(beta_sq)
    decay = math.exp(-gt)
    c1 = beta * decay
    # exp(-gt) underflows to 0 long before 2 gt overflows to inf, whose
    # product with it would be nan
    c2 = beta * math.sqrt(2.0 * gt) * decay if decay > 0.0 else 0.0
    radicand = 1.0 - alpha * alpha - c1 * c1 - c2 * c2
    if -1e-14 <= radicand < 0.0:
        radicand = 0.0
    c3 = math.sqrt(radicand)
    return ReservoirAmplitudes(c1, c2, c3, alpha)


def example5(alpha: float, gt: float) -> XStateParams:
    """Reduced two-atom state of the collective-decay model at gamma*t.

    d = (alpha^2 + c3^2, c2^2/2, c2^2/2, c1^2) with corners a12 = c2^2/2
    and a03 = alpha*c1.
    """
    r = reservoir_amplitudes(alpha, gt)
    return XStateParams(
        alpha * alpha + r.c3**2,
        r.c2**2 / 2.0,
        r.c2**2 / 2.0,
        r.c1**2,
        alpha * r.c1,
        r.c2**2 / 2.0,
    )


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
