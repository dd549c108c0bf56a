"""Geometric quantum-correlation measures for two-qubit states.

Two quantities are computed, both squared Hilbert-Schmidt distances from the
state to the set it would belong to if the relevant correlations vanished:

* ``gd``   one-sided geometric discord (projective measurement on side A),
* ``ggqd`` its symmetric two-sided extension (product measurement on A and B),
  equal to tr(rho^2) minus the largest purity reachable by local dephasing.

For X states (nonzero entries only on the diagonal and antidiagonal) both
have closed forms in the diagonal d0..d3 and the antidiagonal magnitudes
a03 = rho_03, a12 = rho_12 once those are made real and nonnegative:

    gd   = H + 2(a12^2 + a03^2) - max(H, (a12 + a03)^2)
    ggqd = Q + 2(a12^2 + a03^2) - max(Q, (a12 + a03)^2)

with H = (1/2) sum d_i^2 - d0 d2 - d1 d3 and Q = sum d_i^2 - 1/4.  Since
Q - H = (2(d0 + d2) - 1)^2 / 4 >= 0, the ordering of (a12 + a03)^2 against Q
and H splits the family into three cases with per-case gap formulas; see
:func:`classify_x_case` and :func:`gap_x`.  This arithmetic, with the clamp
of round-off below zero, is written once, in the array-generic core
``_x_invariants`` / ``_x_measure`` / ``_clamp``: :func:`gd_x` and
:func:`ggqd_x` evaluate it on one state, :func:`x_measures` on many states
and :func:`x_measures_columns` on many states given as columns, in one
array pass, with bit-identical values.  The validity rule of
:class:`XStateParams` is written once too (``_x_rule``), for one state and,
in :func:`x_params_accepted`, for columns of them.

General states get ``gd`` from the closed Bloch-space form (largest
eigenvalue of x x^t + T T^t) and ``ggqd`` from an alternating ascent over the
two measurement axes: the dephased purity is quadratic in the side-A axis for
a fixed side-B axis and the reverse, so each half-sweep replaces one axis by a
top eigenvector (of a rank-2 matrix, taken in closed form) and never lowers
it.  Each step of the ascent makes three sweeps and keeps the best of eight
points on the line from the last sweep's side-B axis through the
minimal-polynomial limit of the three sweeps, the plain sweep among them.
The starts are the best points of a 512-point Fibonacci lattice on each side,
chosen inside the shared ascent; each steps until a step no longer raises
it, and all stop at once when a step's first sweep raises none of them.
OptimizerDidNotConverge is raised when the best three then differ by more
than 1e-9.
An independent evaluator, :func:`ggqd_matrix_form`, runs the same ascent on
the trace of literal block-matrix products, one 4x4 matrix per axis, and
serves as a cross-check of :func:`ggqd_general`.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import (
    AXIS_X,
    AXIS_Z,
    TOL_IMAG,
    DensityMatrix4,
    MeasurementAxis,
    bloch_decompose,
)

# Negative round-off in a measure value is clamped to zero down to this bound.
CLAMP_FLOOR = -1e-10
# Slack of every XStateParams bound: populations, their sum, corner moduli.
_X_TOL = 1e-12
_FLOAT_MAX = sys.float_info.max


class OptimizerDidNotConverge(RuntimeError):
    """The best multi-start results disagree beyond the accepted spread."""


class ComplexInput(ValueError):
    """Antidiagonal parameters must be real and nonnegative here.

    Closed forms below assume phase-normalized X states.  Run
    ``states.normalize_x_phases`` first for general antidiagonals.
    """


class Method(enum.Enum):
    """How a MeasureResult was obtained."""

    ANALYTIC_X = "analytic_x"
    DAKIC = "dakic"
    GENERAL_OPT = "general_opt"
    BRUTE_FORCE = "brute_force"
    TQC_SEQUENTIAL = "tqc_sequential"


@dataclass(frozen=True)
class MeasureResult:
    """Value of a correlation measure plus how it was computed.

    maximizer  optimal measurement axes (a, b) when the method produces
               them; either entry may be None.
    clamped    True when a tiny negative value (>= CLAMP_FLOOR) was clamped
               to exactly zero.
    history    for grid searches, the running maximum of the searched
               purity per refinement round (base grid first); for
               tqc_sequential that of its step 1, the side-A search,
               since its step 2 is exact and searches no grid.
    """

    value: float
    method: Method
    maximizer: tuple[MeasurementAxis | None, MeasurementAxis | None] | None = None
    clamped: bool = False
    history: tuple[float, ...] | None = None


def _clamp(value):
    """Set negative round-off down to CLAMP_FLOOR to zero; array-generic.

    Returns the clamped value and whether each entry was clamped.
    """
    clamped = (value >= CLAMP_FLOOR) & (value < 0.0)
    return np.where(clamped, 0.0, value), clamped


def _finalize(value: float) -> tuple[float, bool]:
    value, clamped = _clamp(value)
    return float(value), bool(clamped)


@dataclass(frozen=True)
class XStateParams:
    """Parameters of a two-qubit X state.

    d0..d3 are the diagonal entries (populations), a03 and a12 the two
    independent antidiagonal entries rho_03 and rho_12.  Positivity of the
    corresponding matrix is equivalent to |a03| <= sqrt(d0 d3) and
    |a12| <= sqrt(d1 d2), which is enforced here with a 1e-12 slack.
    """

    d0: float
    d1: float
    d2: float
    d3: float
    a03: complex = 0.0
    a12: complex = 0.0

    def __post_init__(self):
        d = [float(self.d0), float(self.d1), float(self.d2), float(self.d3)]
        a03 = complex(self.a03)
        a12 = complex(self.a12)
        m03, m12 = _modulus(a03), _modulus(a12)
        (finite, nonneg, summed, in03, in12), total, b03, b12 = _x_rule(*d, m03, m12)
        if not finite:
            raise ValueError("X-state parameters must be finite")
        if not nonneg:
            raise ValueError(f"populations must be nonnegative, got {d}")
        if not summed:
            raise ValueError(f"populations must sum to 1, got {total!r}")
        if not in03:
            raise ValueError(f"|a03| = {m03!r} exceeds sqrt(d0 d3) = {b03!r}")
        if not in12:
            raise ValueError(f"|a12| = {m12!r} exceeds sqrt(d1 d2) = {b12!r}")
        vars(self).update(d0=d[0], d1=d[1], d2=d[2], d3=d[3], a03=a03, a12=a12)


def _modulus(z: complex) -> float:
    """abs(z), or inf where the parts are finite but the modulus is not."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _finite(v):
    """|v| <= the largest float, which NaN fails too; array-generic."""
    return abs(v) <= _FLOAT_MAX


def _x_rule(d0, d1, d2, d3, m03, m12, maximum=max, sqrt=math.sqrt):
    """The X-state validity rule on populations and corner moduli.

    Array-generic: Python floats with the default maximum and sqrt, arrays
    with NumPy's.  Returns the five checks in the order XStateParams
    reports them, each True where it holds (finite, populations >= -1e-12,
    their sum within 1e-12 of 1, then each corner within 1e-12 of its
    bound), and the sum and the two bounds sqrt(d0 d3), sqrt(d1 d2) that
    the messages quote.  Finiteness is ``_finite``, written out: this is
    the constructor's per-call cost.
    """
    total = d0 + d1 + d2 + d3
    b03 = sqrt(maximum(d0, 0.0) * maximum(d3, 0.0))
    b12 = sqrt(maximum(d1, 0.0) * maximum(d2, 0.0))
    finite = ((abs(d0) <= _FLOAT_MAX) & (abs(d1) <= _FLOAT_MAX) & (abs(d2) <= _FLOAT_MAX)
              & (abs(d3) <= _FLOAT_MAX) & (abs(m03) <= _FLOAT_MAX) & (abs(m12) <= _FLOAT_MAX))
    nonneg = (d0 >= -_X_TOL) & (d1 >= -_X_TOL) & (d2 >= -_X_TOL) & (d3 >= -_X_TOL)
    holds = (finite, nonneg, abs(total - 1.0) <= _X_TOL, m03 <= b03 + _X_TOL,
             m12 <= b12 + _X_TOL)
    return holds, total, b03, b12


def x_params_accepted(d0, d1, d2, d3, m03, m12) -> np.ndarray:
    """Which rows of X-state columns XStateParams accepts, in one array pass.

    The columns are equal-length arrays of populations and corner moduli;
    the rule is XStateParams' own (``_x_rule``), so row i is True exactly
    when XStateParams(d0[i], ..., m03[i], m12[i]) returns.
    Rows holding NaN, inf or overflowing values are rejected without a
    floating-point warning.
    """
    with np.errstate(all="ignore"):
        holds = _x_rule(d0, d1, d2, d3, m03, m12, np.maximum, np.sqrt)[0]
    return holds[0] & holds[1] & holds[2] & holds[3] & holds[4]


class Case(enum.Enum):
    """Which ordering of (a12+a03)^2 against Q and H an X state falls in."""

    CASE1 = 1
    CASE2 = 2
    CASE3 = 3


@dataclass(frozen=True)
class XCase:
    """Case tag with the three compared quantities.

    lhs = (a12 + a03)^2, mid = sum d_i^2 - 1/4, rhs = the one-sided
    half-form (1/2) sum d_i^2 - d0 d2 - d1 d3.  mid >= rhs always.
    """

    tag: Case
    lhs: float
    mid: float
    rhs: float


def _real_nonneg(value, name: str) -> float:
    z = complex(value)
    if abs(z.imag) > TOL_IMAG:
        raise ComplexInput(
            f"{name} has imaginary part {z.imag!r}; normalize phases first"
        )
    if z.real < -TOL_IMAG:
        raise ComplexInput(f"{name} is negative ({z.real!r}); normalize phases first")
    return max(z.real, 0.0)


def _corners(p: XStateParams) -> tuple[float, float]:
    return _real_nonneg(p.a03, "a03"), _real_nonneg(p.a12, "a12")


def _x_invariants(d0, d1, d2, d3, a03, a12):
    """(Q, H, (a12 + a03)^2) of phase-normalized X states; array-generic.

    The d1/d2 terms are grouped so that the expressions are bitwise
    symmetric under the d1 <-> d2 exchange where the math is.
    """
    sum_sq = d0 * d0 + (d1 * d1 + d2 * d2) + d3 * d3
    s = a12 + a03
    return sum_sq - 0.25, 0.5 * sum_sq - d0 * d2 - d1 * d3, s * s


def _x_measure(form, a03, a12, s2):
    """form + 2(a12^2 + a03^2) - max(form, s2), clamped; array-generic.

    GD with form = H, GGQD with form = Q.  Returns (value, clamped).
    """
    return _clamp(form + 2.0 * (a12 * a12 + a03 * a03) - np.maximum(form, s2))


def gd_x(p: XStateParams) -> MeasureResult:
    """Closed-form geometric discord of a phase-normalized X state.

    Raises ComplexInput unless a03 and a12 are real and nonnegative.
    """
    a03, a12 = _corners(p)
    _, h, s2 = _x_invariants(p.d0, p.d1, p.d2, p.d3, a03, a12)
    value, clamped = _x_measure(h, a03, a12, s2)
    axis = AXIS_Z if h >= s2 else AXIS_X
    return MeasureResult(float(value), Method.ANALYTIC_X, (axis, None), bool(clamped))


def ggqd_x(p: XStateParams) -> MeasureResult:
    """Closed-form two-sided measure of a phase-normalized X state.

    The optimal local dephasing is along z when sum d_i^2 - 1/4 dominates
    (a12 + a03)^2 and along x otherwise.
    """
    a03, a12 = _corners(p)
    q, _, s2 = _x_invariants(p.d0, p.d1, p.d2, p.d3, a03, a12)
    value, clamped = _x_measure(q, a03, a12, s2)
    axes = (AXIS_Z, AXIS_Z) if q >= s2 else (AXIS_X, AXIS_X)
    return MeasureResult(float(value), Method.ANALYTIC_X, axes, bool(clamped))


def x_measures(points: Iterable[XStateParams]) -> tuple[np.ndarray, np.ndarray]:
    """GD and GGQD values of X states, in one array pass.

    Corners enter by modulus, which is what ``states.normalize_x_phases``
    leaves in them; the populations are unchanged by it.  So entry i of
    each array equals ``gd_x`` / ``ggqd_x`` of
    ``normalize_x_phases(points[i]).normalized``, bit for bit.  The moduli
    are Python's ``abs``: ``np.abs`` on complex input may differ from it in
    the last bit.  ``points`` is read once, in order, so the states of a
    generator need not all be held at the same time.  The arithmetic is
    that of :func:`x_measures_columns`, which takes the same six columns
    directly, as ``sweep`` does.
    """
    rows = np.fromiter(
        ((p.d0, p.d1, p.d2, p.d3, abs(p.a03), abs(p.a12)) for p in points),
        dtype=np.dtype((float, 6)),
    )
    return x_measures_columns(*rows.T)


def x_measures_columns(d0, d1, d2, d3, m03, m12) -> tuple[np.ndarray, np.ndarray]:
    """GD and GGQD values of X states given as columns, in one array pass.

    The columns are equal-length arrays of populations and corner moduli,
    as ``x_params_accepted`` checks them, so no XStateParams is built.
    Entry i equals ``gd_x`` / ``ggqd_x`` of the phase-normalized
    XStateParams(d0[i], ..., m03[i], m12[i]), bit for bit: both run the
    same ``_x_invariants`` / ``_x_measure`` core on the same floats.
    """
    q, h, s2 = _x_invariants(d0, d1, d2, d3, m03, m12)
    return _x_measure(h, m03, m12, s2)[0], _x_measure(q, m03, m12, s2)[0]


def classify_x_case(p: XStateParams) -> XCase:
    """Place an X state in one of the three orderings of lhs = (a12+a03)^2
    against mid = sum d_i^2 - 1/4 and rhs = the half-form.

    Ties go to the lower-numbered case.
    """
    q, h, s2 = _x_invariants(p.d0, p.d1, p.d2, p.d3, *_corners(p))
    if s2 >= q:
        tag = Case.CASE1
    elif s2 >= h:
        tag = Case.CASE2
    else:
        tag = Case.CASE3
    return XCase(tag, s2, q, h)


def gap_x(p: XStateParams) -> float:
    """Closed-form ggqd - gd gap of an X state, by case.

    Case 1: (2(d0 + d2) - 1)^2 / 4
    Case 2: (a12 + a03)^2 - ((d0 - d2)^2 + (d1 - d3)^2) / 2
    Case 3: 0

    Always nonnegative up to round-off.
    """
    case = classify_x_case(p)
    if case.tag is Case.CASE1:
        t = 2.0 * (p.d0 + p.d2) - 1.0
        return t * t / 4.0
    if case.tag is Case.CASE2:
        u = p.d0 - p.d2
        v = p.d1 - p.d3
        return case.lhs - 0.5 * (u * u + v * v)
    return 0.0


def _canonical_axis(v: np.ndarray) -> MeasurementAxis:
    """Unit axis with a deterministic overall sign: its largest-magnitude
    component, the first on a tie, is positive, so round-off in components
    far below the largest cannot flip it."""
    v = np.asarray(v, dtype=float)
    # math.sqrt(v @ v) is np.linalg.norm's own arithmetic on a 1-D vector
    n = math.sqrt(v @ v)
    if n == 0.0:
        return AXIS_Z
    v = v / n
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return MeasurementAxis(v / math.sqrt(v @ v))


def gd_dakic(state: DensityMatrix4) -> MeasureResult:
    """Geometric discord of an arbitrary two-qubit state.

    Closed Bloch-space form: (|x|^2 + |T|^2 - k_max)/4 where k_max is the
    largest eigenvalue of x x^t + T T^t.  The optimal side-A measurement axis
    is the corresponding eigenvector.
    """
    bloch = bloch_decompose(state)
    x, t = bloch.x, bloch.T
    vals, vecs = np.linalg.eigh(np.outer(x, x) + t @ t.T)
    value = (x @ x + (t * t).sum() - vals[-1]) / 4.0
    value, clamped = _finalize(value)
    return MeasureResult(value, Method.DAKIC, (_canonical_axis(vecs[:, -1]), None), clamped)


def _fibonacci_lattice(n: int) -> np.ndarray:
    """(n, 3) unit vectors of the n-point Fibonacci sphere lattice."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(1.0 - z * z)
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


# Two-sided ascent settings.  Tolerances are in units of 2 f(b), the closed-in-a
# objective of ggqd_general; ggqd_matrix_form scales its own to match.
_LATTICE = _fibonacci_lattice(512)
_LATTICE_SEEDS = 12  # best lattice points kept as starts
_STEP_SWEEPS = 3  # plain sweeps per ascent step, the extrapolation's window
_RISE_TOL = 1e-13  # a start stops once one step raises it by no more, all once a sweep does
_SPREAD_TOL = 1e-9  # guard: accepted spread of the best three starts
_MAX_SWEEPS = 20_000  # sweeps in all
# Multiples of the way from a step's last sweep to its limit; 0 keeps the plain sweep.
_EXTRAPOLATION = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])


def _orient(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rows of v, each negated where its dot product with ref's row is
    negative: b and -b are one measurement, and this is the sign rule that
    makes v - ref a move."""
    return v * np.where((v * ref).sum(axis=-1) < 0.0, -1.0, 1.0)[:, None]


def _polynomial_limit(path: np.ndarray) -> np.ndarray:
    """Minimal-polynomial extrapolation (Cabay & Jackson, SIAM J. Numer.
    Anal. 13(5), 1976) of an (n, 4, 3) stack of sweep iterates b0..b3.

    Near a maximum one sweep acts on the tangent plane as a linear map M
    with two modes, so the moves u_j = b_{j+1} - b_j obey
    u2 + c1 u1 + c0 u0 = 0 with c0 + c1 lam + lam^2 the minimal polynomial
    of M, and the fixed point is (c0 b1 + c1 b2 + b3) / (c0 + c1 + 1).  c is
    the least-squares fit, by Cramer's rule on the 2x2 Gram matrix of u0
    and u1; scaling by its determinant leaves no division, and the point is
    returned up to sign, as a unit vector, or b3 when it vanishes (u0 and u1
    parallel, or no move).
    """
    moves = path[:, 1:] - path[:, :-1]
    g = moves @ np.swapaxes(moves, 1, 2)  # g[:, i, j] = u_i . u_j
    (g00, g01, g02), (g11, g12) = g[:, 0].T, g[:, 1, 1:].T
    limit = (
        (g01 * g12 - g11 * g02)[:, None] * path[:, 1]
        + (g01 * g02 - g00 * g12)[:, None] * path[:, 2]
        + (g00 * g11 - g01 * g01)[:, None] * path[:, 3]
    )
    norm = np.sqrt((limit * limit).sum(axis=-1, keepdims=True))
    return np.where(norm > 0.0, limit, path[:, -1]) / np.where(norm > 0.0, norm, 1.0)


def _eigen_ascent(a_step, b_step, objective, objective_a):
    """Maximize a form that is quadratic in a for fixed b and in b for fixed a.

    a_step(b) and b_step(a) map (n, 3) stacks of unit vectors to (n, 3)
    stacks of the best a for each b and the best b for each a: unit top
    eigenvectors of the form's matrix in the free axis, of either sign.
    objective(b) is the form maximized over a in closed form and
    objective_a(a) the form maximized over b.  This is the one start rule of
    both two-sided evaluators: the _LATTICE_SEEDS points of _LATTICE where
    objective is largest start on side B, and the _LATTICE_SEEDS where
    objective_a is largest start on side A, entering through one b-step; the
    side-A starts reach a narrow maximum that the side-B lattice misses.
    One sweep replaces a, then b, by their steps, so the form never
    decreases; each new b takes the sign nearer the old one (_orient).

    One ascent step makes _STEP_SWEEPS sweeps, b0 -> b1 -> b2 -> b3, takes
    their minimal-polynomial limit L (:func:`_polynomial_limit`), with the
    sign that makes L . b3 >= 0, and keeps whichever of the points
    b3 + m (L - b3), normalized, for the multiples m in _EXTRAPOLATION
    objective rates highest.  m = 0 is the plain sweep, so the choice never
    lowers the form either.  m = 1 is the limit itself, which removes the
    slow convergence on a nearly flat ring of maxima (T with two equal
    singular values, x and y small) and is the point most often kept; the
    other multiples stop short of the limit or go past it along the same
    line, for steps that the two-mode model of :func:`_polynomial_limit`
    fits less well.  Without the orientation, L = -b3 would make the
    m = 1/2 point the zero vector.

    Each step begins with one plain sweep of the active starts, scored by
    objective; when it raises none of them by more than _RISE_TOL, the
    ascent ends there, each start keeping the better of its point and the
    swept one.  Otherwise the step goes on from that sweep, and a start
    retires once a step raises it by at most _RISE_TOL.  The ascent makes
    _MAX_SWEEPS sweeps at most.

    Returns (a, b, objective(b)) of the best start, with a = a_step(b) from
    one closing a-step.  Raises OptimizerDidNotConverge when the best three
    starts spread more than _SPREAD_TOL.
    """
    b_seeds, a_seeds = (
        _LATTICE[np.argsort(score(_LATTICE))[-_LATTICE_SEEDS:]]
        for score in (objective, objective_a)
    )

    def sweep(last):
        return _orient(b_step(a_step(last)), last)

    b = np.concatenate([b_seeds, b_step(a_seeds)])
    value = objective(b)
    active = np.arange(len(b))
    for _ in range(_MAX_SWEEPS // _STEP_SWEEPS):
        if active.size == 0:
            break
        path = np.empty((active.size, _STEP_SWEEPS + 1, 3))
        path[:, 0] = last = b[active]
        path[:, 1] = last = sweep(last)
        swept = objective(last)
        if (swept - value[active]).max() <= _RISE_TOL:
            # a quiet first sweep ends the ascent; each start keeps its better point
            rose = swept > value[active]
            b[active[rose]] = last[rose]
            value[active[rose]] = swept[rose]
            break
        for j in range(2, _STEP_SWEEPS + 1):
            path[:, j] = last = sweep(last)
        limit = _orient(_polynomial_limit(path), last)
        trial = last[:, None] + _EXTRAPOLATION[:, None] * (limit - last)[:, None]
        trial /= np.sqrt((trial * trial).sum(axis=-1, keepdims=True))
        trial_value = objective(trial.reshape(-1, 3)).reshape(trial.shape[:2])
        rows, pick = np.arange(len(active)), trial_value.argmax(axis=1)
        top = trial_value[rows, pick]
        b[active] = trial[rows, pick]
        rise = top - value[active]
        value[active] = top
        active = active[rise > _RISE_TOL]
    order = np.argsort(value)
    spread = float(value[order[-1]] - value[order[-3]])
    if spread > _SPREAD_TOL:
        raise OptimizerDidNotConverge(
            f"best starts disagree by {spread:.3e} > {_SPREAD_TOL:.1e}"
        )
    best = b[order[-1]]
    return a_step(best[None, :])[0], best, float(value[order[-1]])


def _twice_lam(p, q, r):
    """2 lam_max of the Gram matrix [[p, r], [r, q]] of two vectors u, v
    (p = u.u, q = v.v, r = u.v), which is also 2 lam_max of u u^t + v v^t."""
    return p + q + np.sqrt((p - q) ** 2 + 4.0 * r * r)


def _twice_f(b: np.ndarray, x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 max_a f(a, b) over unit a, for an (n, 3) stack of unit b."""
    tb = b @ t.T
    yd = b @ y
    return _twice_lam(x @ x, (tb * tb).sum(axis=-1), tb @ x) + 2.0 * yd * yd


def _rank2_top(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit top eigenvectors of u u^t + v v^t for a fixed 3-vector u and an
    (n, 3) stack v, in closed form.

    The top eigenvector is c0 u + c1 v, where (c0, c1) is the top
    eigenvector of the Gram matrix [[u.u, u.v], [u.v, v.v]] for the lam of
    _twice_lam: (lam - v.v, u.v) when u.u >= v.v, else (u.v, lam - u.u).
    Either way the vector's component along the longer of u and v is a sum
    of nonnegative terms, so nothing cancels.  The vector vanishes only on
    an exact tie (|u| = |v| and u orthogonal to v, or u = v = 0), where
    every unit vector of span{u, v} is a top eigenvector; u/|u| is taken
    then, or the z axis when u = 0.
    """
    p = u @ u
    q = (v * v).sum(axis=-1)
    r = v @ u
    lam = 0.5 * _twice_lam(p, q, r)
    u_first = p >= q
    c0 = np.where(u_first, lam - q, r)
    c1 = np.where(u_first, r, lam - p)
    w = c0[:, None] * u + c1[:, None] * v
    norm = np.sqrt((w * w).sum(axis=-1))
    tie = norm == 0.0
    if tie.any():
        w[tie] = u / math.sqrt(p) if p > 0.0 else AXIS_Z.n
        norm[tie] = 1.0
    return w / norm[:, None]


def ggqd_general(state: DensityMatrix4) -> MeasureResult:
    """Two-sided measure of an arbitrary two-qubit state.

    The dephased purity of product measurements along unit axes a and b is
    (1 + f(a, b))/4 with

        f(a, b) = (a.x)^2 + (b.y)^2 + (a^t T b)^2.

    For fixed b the best a is the top eigenvector of x x^t + (Tb)(Tb)^t, and
    for fixed a the best b is the top eigenvector of y y^t + (T^t a)(T^t a)^t.
    Alternating the two steps is the higher-order power method (De Lathauwer,
    De Moor & Vandewalle, SIAM J. Matrix Anal. Appl. 21(4), 2000): each step
    maximizes f over one axis with the other held, so f never decreases.
    Both matrices have rank 2, so each step is taken in closed form from the
    2x2 Gram matrix of its two vectors (:func:`_rank2_top`), with no
    eigensolver call.  Maximized over a in closed form (lam_max of the same
    Gram matrix),

        f(b) = (b.y)^2 + [|x|^2 + |Tb|^2
                          + sqrt((|x|^2 - |Tb|^2)^2 + 4 (x.Tb)^2)] / 2.

    The starts are chosen inside the shared :func:`_eigen_ascent`, by the
    same rule as for :func:`ggqd_matrix_form`.  The side-B starts are the
    12 points of a 512-point Fibonacci lattice where f(b) is largest.  The
    side-A starts mirror them (the 12 best lattice points under f maximized
    over b) and enter through one b-step; without them a narrow maximum can
    hold only two starts and trip the guard.  Each ascent step makes three
    sweeps, b0 -> b3, takes the minimal-polynomial limit L of the three and
    keeps the point with the largest f(b) among b3 + m (L - b3), normalized,
    for m = 0 (the plain sweep), 1/2, 1 (the limit), 2, 4, ..., 32: f still
    never decreases, and when T has two close or equal singular values the
    slow linear convergence of the plain ascent, which can take the whole
    sweep budget, is cut to a few dozen sweeps at most on the degenerate-T
    states tried (mean 11, worst 31 over 2 100 of them).  Each start steps
    until a step raises its 2 f(b) by at most 1e-13; all stop at once when
    the first sweep of a step raises none of them by more than 1e-13, and
    there are 20 000 sweeps in all at most.  The best start is picked by the
    closed form f(b), not by the last eigenvalue, and the returned value is
    (|x|^2 + |y|^2 + |T|^2 - f(b*)) / 4.

    Raises OptimizerDidNotConverge when the best three starts differ in
    2 f(b) by more than 1e-9.
    """
    bloch = bloch_decompose(state)
    x, y, t = bloch.x, bloch.y, bloch.T
    s_total = float(x @ x) + float(y @ y) + float((t * t).sum())

    def a_step(b):
        return _rank2_top(x, b @ t.T)

    def b_step(a):
        return _rank2_top(y, a @ t)

    def objective(b):
        return _twice_f(b, x, y, t)

    def objective_a(a):
        return _twice_f(a, y, x, t.T)

    a, b, fmax = _eigen_ascent(a_step, b_step, objective, objective_a)
    value, clamped = _finalize((s_total - 0.5 * fmax) / 4.0)
    return MeasureResult(
        value, Method.GENERAL_OPT, (_canonical_axis(a), _canonical_axis(b)), clamped
    )


def _block_row(v: np.ndarray) -> np.ndarray:
    """(..., 3) -> (..., 2, 4): the blocks (1/sqrt2) [[1, v], [1, -v]]."""
    out = np.empty(v.shape[:-1] + (2, 4))
    out[..., 0] = 1.0
    out[..., 0, 1:] = v
    out[..., 1, 1:] = -v
    return out / np.sqrt(2.0)


def ggqd_matrix_form(state: DensityMatrix4) -> MeasureResult:
    """Two-sided measure through literal block-matrix products.

    Evaluates tr(C C^t) - max_{a,b} tr(A C B^t B C^t A^t) with
    C = (1/2) [[1, y^t], [x, T]] and A, B the 2x4 blocks
    (1/sqrt2) [[1, a], [1, -a]] built from unit vectors a and b
    (:func:`_block_row`).  For unit a, A^t A = diag(1, a a^t), so for fixed
    b the trace is

        tr(A^t A C B^t B C^t) = M_00 + a^t M[1:, 1:] a,   M = C B^t B C^t,

    with M formed as that literal product for each b of a stack.  The best
    a is the top eigenvector of M[1:, 1:], and the trace maximized over a
    is M_00 + lam_max(M[1:, 1:]).  The trace is also tr(B^t B C^t A^t A C),
    so for fixed a the same holds with C^t in place of C.  Each step
    maximizes over one axis with the other held, so alternating the two
    never decreases the trace.  The starts, the three-sweep steps with their
    trial points toward the minimal-polynomial limit, the stopping rule (a
    start stops when a step no longer raises it, and all stop when a step's
    first sweep raises none of them) and the guard are the shared ones of
    :func:`_eigen_ascent`, as for :func:`ggqd_general`.  M is scaled by 8,
    so that the ascent sees 8 x the dephased purity (1 + f)/4 = 2 + 2 f,
    which rises as ggqd_general's 2 f does and so meets the same
    tolerances: OptimizerDidNotConverge when the best three starts differ in
    it by more than 1e-9.  Stacked matrix products and LAPACK's eigensolver
    treat each row on its own, so a start's steps and values are the same
    bits however many other starts share its call.  This shares no algebra
    with :func:`ggqd_general` beyond the coefficient matrix C, so it serves
    as an independent check of that route.
    """
    c = bloch_decompose(state).coefficient_matrix()
    trcc = float((c * c).sum())

    def forms(v, left):
        """M_00 and M[1:, 1:] of M = 8 L V^t V L^t for each row v of an
        (n, 3) stack, V = _block_row(v): L = C for side-B axes, C^t for
        side-A axes.  The 8 gives the shared ascent's units (see docstring)."""
        blocks = _block_row(v)
        m = 8.0 * (left @ (np.swapaxes(blocks, -1, -2) @ blocks) @ left.T)
        return m[:, 0, 0], m[:, 1:, 1:]

    def objective(b):
        m00, mats = forms(b, c)
        return m00 + np.linalg.eigvalsh(mats)[..., -1]

    def objective_a(a):
        m00, mats = forms(a, c.T)
        return m00 + np.linalg.eigvalsh(mats)[..., -1]

    def a_step(b):
        return np.linalg.eigh(forms(b, c)[1])[1][..., -1]

    def b_step(a):
        return np.linalg.eigh(forms(a, c.T)[1])[1][..., -1]

    a, b, inner = _eigen_ascent(a_step, b_step, objective, objective_a)
    value, clamped = _finalize(trcc - inner / 8.0)
    return MeasureResult(
        value, Method.GENERAL_OPT, (_canonical_axis(a), _canonical_axis(b)), clamped
    )
