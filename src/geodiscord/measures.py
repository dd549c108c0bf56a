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
:func:`classify_x_case` and :func:`gap_x`.

General states get ``gd`` from the closed Bloch-space form (largest
eigenvalue of x x^t + T T^t) and ``ggqd`` from an alternating ascent over the
two measurement axes: the dephased purity is quadratic in the side-A axis for
a fixed side-B axis and the reverse, so each half-sweep replaces one axis by a
top eigenvector and never lowers it, and each sweep also tries the side-B
axis moved on along its own step, keeping the best point.  The starts are the best points of a
512-point Fibonacci lattice on each side plus a few axes read off the state;
each sweeps until it stalls, the best three sweep on until they agree, and
OptimizerDidNotConverge is raised when they still differ by more than 1e-9.
An independent evaluator, :func:`ggqd_matrix_form`, runs the same ascent on
a biquadratic form recovered from literal block-matrix products and serves as
a cross-check of :func:`ggqd_general`.
"""

from __future__ import annotations

import enum
import math
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
               purity per refinement round (base grid first).
    """

    value: float
    method: Method
    maximizer: tuple[MeasurementAxis | None, MeasurementAxis | None] | None = None
    clamped: bool = False
    history: tuple[float, ...] | None = None


def _finalize(value: float) -> tuple[float, bool]:
    if CLAMP_FLOOR <= value < 0.0:
        return 0.0, True
    return float(value), False


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
        values = d + [a03.real, a03.imag, a12.real, a12.imag]
        if not all(np.isfinite(v) for v in values):
            raise ValueError("X-state parameters must be finite")
        if min(d) < -1e-12:
            raise ValueError(f"populations must be nonnegative, got {d}")
        total = d[0] + d[1] + d[2] + d[3]
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"populations must sum to 1, got {total!r}")
        b03 = math.sqrt(max(d[0], 0.0) * max(d[3], 0.0))
        b12 = math.sqrt(max(d[1], 0.0) * max(d[2], 0.0))
        if abs(a03) > b03 + 1e-12:
            raise ValueError(f"|a03| = {abs(a03)!r} exceeds sqrt(d0 d3) = {b03!r}")
        if abs(a12) > b12 + 1e-12:
            raise ValueError(f"|a12| = {abs(a12)!r} exceeds sqrt(d1 d2) = {b12!r}")
        object.__setattr__(self, "d0", d[0])
        object.__setattr__(self, "d1", d[1])
        object.__setattr__(self, "d2", d[2])
        object.__setattr__(self, "d3", d[3])
        object.__setattr__(self, "a03", a03)
        object.__setattr__(self, "a12", a12)

    @property
    def diagonal(self) -> np.ndarray:
        return np.array([self.d0, self.d1, self.d2, self.d3])


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


def _x_invariants(p: XStateParams):
    """(a03, a12, Q, H, smax) with the d1/d2 terms grouped so that the
    expressions are bitwise symmetric under the d1 <-> d2 exchange where the
    math is."""
    a03 = _real_nonneg(p.a03, "a03")
    a12 = _real_nonneg(p.a12, "a12")
    sum_sq = p.d0 * p.d0 + (p.d1 * p.d1 + p.d2 * p.d2) + p.d3 * p.d3
    q = sum_sq - 0.25
    h = 0.5 * sum_sq - p.d0 * p.d2 - p.d1 * p.d3
    s = a12 + a03
    return a03, a12, q, h, s * s


def gd_x(p: XStateParams) -> MeasureResult:
    """Closed-form geometric discord of a phase-normalized X state.

    Raises ComplexInput unless a03 and a12 are real and nonnegative.
    """
    a03, a12, _, h, s2 = _x_invariants(p)
    value = h + 2.0 * (a12 * a12 + a03 * a03) - max(h, s2)
    value, clamped = _finalize(value)
    axis = AXIS_Z if h >= s2 else AXIS_X
    return MeasureResult(value, Method.ANALYTIC_X, (axis, None), clamped)


def ggqd_x(p: XStateParams) -> MeasureResult:
    """Closed-form two-sided measure of a phase-normalized X state.

    The optimal local dephasing is along z when sum d_i^2 - 1/4 dominates
    (a12 + a03)^2 and along x otherwise.
    """
    a03, a12, q, _, s2 = _x_invariants(p)
    value = q + 2.0 * (a12 * a12 + a03 * a03) - max(q, s2)
    value, clamped = _finalize(value)
    axes = (AXIS_Z, AXIS_Z) if q >= s2 else (AXIS_X, AXIS_X)
    return MeasureResult(value, Method.ANALYTIC_X, axes, clamped)


def classify_x_case(p: XStateParams) -> XCase:
    """Place an X state in one of the three orderings of lhs = (a12+a03)^2
    against mid = sum d_i^2 - 1/4 and rhs = the half-form.

    Ties go to the lower-numbered case.
    """
    _, _, q, h, s2 = _x_invariants(p)
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
    """Unit axis with a deterministic overall sign."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        return AXIS_Z
    v = v / n
    lead = np.flatnonzero(np.abs(v) > 1e-14)
    if lead.size and v[lead[0]] < 0.0:
        v = -v
    return MeasurementAxis(v / np.linalg.norm(v))


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


# Two-sided ascent settings.  Tolerances are in units of each evaluator's own
# closed-in-a objective.
_LATTICE = _fibonacci_lattice(512)
_LATTICE_SEEDS = 12  # best lattice points kept as starts
_RISE_TOL = 1e-13  # a start stops once one sweep raises it by no more
_AGREE_TOL = 1e-12  # the best three stop once they agree this closely
_SPREAD_TOL = 1e-9  # guard: accepted spread of the best three starts
_MAX_SWEEPS = 20_000  # sweeps in all, both stages
# Multiples of a sweep's move tried beyond its end; 0 keeps the plain sweep.
_EXTRAPOLATION = np.concatenate([[0.0], 4.0 ** np.arange(6)])


def _top_eigvecs(mats: np.ndarray) -> np.ndarray:
    """Top eigenvectors of an (n, 3, 3) stack of symmetric matrices."""
    return np.linalg.eigh(mats)[1][..., -1]


def _eigen_ascent(b_seeds, a_seeds, a_matrix, b_matrix, objective):
    """Maximize a form that is quadratic in a for fixed b and in b for fixed a.

    a_matrix(b) and b_matrix(a) map (n, 3) stacks of unit vectors to the
    (n, 3, 3) matrices whose top eigenvectors are the best a for each b and
    the best b for each a; objective(b) is the form maximized over a in
    closed form.  Side-A seeds enter through one b-step.  One sweep replaces
    a, then b, by those eigenvectors, so the form never decreases; it then
    moves b on along the sweep's step by the multiples in _EXTRAPOLATION
    and keeps whichever point objective rates highest.  That choice
    includes the plain sweep, so it never lowers the form either, and it
    shortens the slow linear convergence seen when two singular values of
    the cross term nearly coincide.  Every start sweeps until one sweep
    raises it by at most _RISE_TOL; the best three then sweep on until they
    agree within _AGREE_TOL or none of them rises, with _MAX_SWEEPS sweeps
    in all.

    Returns (b, objective(b)) of the best start.  Raises
    OptimizerDidNotConverge when the best three starts spread more than
    _SPREAD_TOL.
    """
    b = np.concatenate([b_seeds, _top_eigvecs(b_matrix(a_seeds))])
    value = objective(b)
    active = np.arange(len(b))
    endgame = False
    for _ in range(_MAX_SWEEPS):
        if not endgame and active.size == 0:
            endgame = True
            active = np.argsort(value)[-3:]
        if endgame and np.ptp(value[active]) <= _AGREE_TOL:
            break
        old = b[active]
        new = _top_eigvecs(b_matrix(_top_eigvecs(a_matrix(old))))
        # b and -b are one measurement: orient new so new - old is the move
        new *= np.where((new * old).sum(axis=-1) < 0.0, -1.0, 1.0)[:, None]
        trial = new[:, None, :] + _EXTRAPOLATION[:, None] * (new - old)[:, None, :]
        trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
        trial_value = objective(trial.reshape(-1, 3)).reshape(trial.shape[:2])
        rows, pick = np.arange(len(active)), trial_value.argmax(axis=1)
        top = trial_value[rows, pick]
        b[active] = trial[rows, pick]
        rise = top - value[active]
        value[active] = top
        if not endgame:
            active = active[rise > _RISE_TOL]
        elif rise.max() <= 0.0:
            break
    order = np.argsort(value)
    spread = float(value[order[-1]] - value[order[-3]])
    if spread > _SPREAD_TOL:
        raise OptimizerDidNotConverge(
            f"best starts disagree by {spread:.3e} > {_SPREAD_TOL:.1e}"
        )
    best = order[-1]
    return b[best], float(value[best])


def _lattice_seeds(objective) -> np.ndarray:
    """The _LATTICE_SEEDS lattice points where objective is largest."""
    return _LATTICE[np.argsort(objective(_LATTICE))[-_LATTICE_SEEDS:]]


def _twice_f(b: np.ndarray, x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 max_a f(a, b) over unit a, for an (n, 3) stack of unit b."""
    nx2 = x @ x
    tb = b @ t.T
    ntb2 = (tb * tb).sum(axis=-1)
    xd = tb @ x
    yd = b @ y
    root = np.sqrt((nx2 - ntb2) ** 2 + 4.0 * xd * xd)
    return nx2 + ntb2 + root + 2.0 * yd * yd


def _axis_seeds(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows of v, plus u/|u| unless u = 0."""
    nu = float(np.linalg.norm(u))
    return np.concatenate([v, u[None, :] / nu]) if nu > 0.0 else v


def _rank1_sum(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u u^t + v v^t for a fixed 3-vector u and an (n, 3) stack v."""
    return np.outer(u, u) + v[:, :, None] * v[:, None, :]


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
    Maximized over a in closed form (lam_max of two rank-1 Gram terms),

        f(b) = (b.y)^2 + [|x|^2 + |Tb|^2
                          + sqrt((|x|^2 - |Tb|^2)^2 + 4 (x.Tb)^2)] / 2.

    The side-B starts are the 12 points of a 512-point Fibonacci lattice
    where f(b) is largest, the right singular vectors of T and y/|y|.  The
    side-A starts mirror them (the 12 best lattice points under f maximized
    over b, the left singular vectors of T and x/|x|) and enter through one
    b-step; without them a narrow maximum can hold only two starts and trip
    the guard.  After each sweep b is also moved on along the sweep's step
    by 1, 4, 16, ..., 1024 times its length, and the point with the largest
    f(b), the plain sweep included, is kept: f still never decreases, and
    when T has two close singular values the slow linear convergence of
    the plain ascent, which can take the whole sweep budget, is cut by an
    order of magnitude.  Each start sweeps until its 2 f(b) rises by at most 1e-13
    per sweep; the best three then sweep on until they agree within 1e-12 or
    stop rising, with 20 000 sweeps in all at most.  The best start is
    picked by the closed form f(b), not by the last eigenvalue, and the
    returned value is (|x|^2 + |y|^2 + |T|^2 - f(b*)) / 4.

    Raises OptimizerDidNotConverge when the best three starts differ in
    2 f(b) by more than 1e-9.
    """
    bloch = bloch_decompose(state)
    x, y, t = bloch.x, bloch.y, bloch.T
    s_total = float(x @ x) + float(y @ y) + float((t * t).sum())
    u, _, vt = np.linalg.svd(t)

    def a_matrix(b):
        return _rank1_sum(x, b @ t.T)

    def b_matrix(a):
        return _rank1_sum(y, a @ t)

    def objective(b):
        return _twice_f(b, x, y, t)

    def objective_a(a):
        return _twice_f(a, y, x, t.T)

    b, fmax = _eigen_ascent(
        np.concatenate([_lattice_seeds(objective), _axis_seeds(y, vt)]),
        np.concatenate([_lattice_seeds(objective_a), _axis_seeds(x, u.T)]),
        a_matrix,
        b_matrix,
        objective,
    )
    value, clamped = _finalize((s_total - 0.5 * fmax) / 4.0)
    a = _top_eigvecs(a_matrix(b[None, :]))[0]
    return MeasureResult(
        value, Method.GENERAL_OPT, (_canonical_axis(a), _canonical_axis(b)), clamped
    )


# The origin and six points whose values fix an even quadratic in v.
_EXTRACT_POINTS = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
    ]
)


def _monomials(v: np.ndarray) -> np.ndarray:
    """(..., 3) -> (..., 6): v1^2, v2^2, v3^2, v1 v2, v1 v3, v2 v3."""
    return np.stack(
        [
            v[..., 0] * v[..., 0],
            v[..., 1] * v[..., 1],
            v[..., 2] * v[..., 2],
            v[..., 0] * v[..., 1],
            v[..., 0] * v[..., 2],
            v[..., 1] * v[..., 2],
        ],
        axis=-1,
    )


def _quadratic_matrices(g: np.ndarray) -> np.ndarray:
    """(..., 6) monomial coefficients -> (..., 3, 3) symmetric matrices M
    with v^t M v = _monomials(v) . g."""
    mats = np.empty(g.shape[:-1] + (3, 3))
    mats[..., 0, 0] = g[..., 0]
    mats[..., 1, 1] = g[..., 1]
    mats[..., 2, 2] = g[..., 2]
    mats[..., 0, 1] = mats[..., 1, 0] = 0.5 * g[..., 3]
    mats[..., 0, 2] = mats[..., 2, 0] = 0.5 * g[..., 4]
    mats[..., 1, 2] = mats[..., 2, 1] = 0.5 * g[..., 5]
    return mats


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
    (1/sqrt2) [[1, a], [1, -a]] built from unit vectors a and b.  The trace
    objective is even in a and in b and quadratic in each, so with
    m(v) = [1, v1^2, v2^2, v3^2, v1 v2, v1 v3, v2 v3] it is exactly
    m(a)^t W m(b) for a 7x7 coefficient matrix W, that is

        c0 + a^t qa a + b^t qb b + a^t G(b) a,   a^t G(b) a = b^t G'(a) b,

    with c0 = W[0, 0], qa read off W[1:, 0], qb off W[0, 1:] and G off
    W[1:, 1:].  W is solved from one 7x7 table of literal evaluations at
    every pair of the origin, the three unit axes and their three pairwise
    sums, on both sides against the basis m at those points.  For fixed b
    the best a is the top eigenvector of qa + G(b), and for fixed a the best
    b is the top eigenvector of qb + G'(a); each step maximizes over one axis
    with the other held, so alternating the two never decreases the
    objective.  The starts are the 12 points of a 512-point Fibonacci
    lattice where the objective maximized over a
    (c0 + b^t qb b + lam_max(qa + G(b))) is largest, and the 12 where it is
    largest maximized over b, carried to b by one b-step.  The extrapolation
    along each sweep's step, the stopping rule and the guard are those of
    :func:`ggqd_general`, on this objective's scale:
    OptimizerDidNotConverge when the best three starts differ by more than
    1e-9.  This shares no algebra with :func:`ggqd_general` beyond the
    coefficient matrix C, so it serves as an independent check of that route.
    """
    c = bloch_decompose(state).coefficient_matrix()
    trcc = float((c * c).sum())

    pts = _EXTRACT_POINTS
    blocks = _block_row(pts)
    # the literal products A C B^t for every pair (a, b) of points
    prods = blocks[:, None] @ c @ np.swapaxes(blocks, -1, -2)
    table = (prods * prods).sum(axis=(-2, -1))
    basis = np.column_stack([np.ones(len(pts)), _monomials(pts)])
    coef = np.linalg.solve(basis, np.linalg.solve(basis, table).T).T
    c0, ghat = coef[0, 0], coef[1:, 1:]
    qa, qb = _quadratic_matrices(coef[1:, 0]), _quadratic_matrices(coef[0, 1:])

    def a_matrix(b):
        return qa + _quadratic_matrices(_monomials(b) @ ghat.T)

    def b_matrix(a):
        return qb + _quadratic_matrices(_monomials(a) @ ghat)

    def objective(b):
        quad_b = np.einsum("...i,ij,...j->...", b, qb, b)
        return c0 + quad_b + np.linalg.eigvalsh(a_matrix(b))[..., -1]

    def objective_a(a):
        quad_a = np.einsum("...i,ij,...j->...", a, qa, a)
        return c0 + quad_a + np.linalg.eigvalsh(b_matrix(a))[..., -1]

    b, inner = _eigen_ascent(
        _lattice_seeds(objective), _lattice_seeds(objective_a), a_matrix, b_matrix, objective
    )
    value, clamped = _finalize(trcc - inner)
    a = _top_eigvecs(a_matrix(b[None, :]))[0]
    return MeasureResult(
        value, Method.GENERAL_OPT, (_canonical_axis(a), _canonical_axis(b)), clamped
    )
