"""Brute-force measurement searches.

Reference implementations that locate the optimal local projective
measurements by scanning an axis grid on the Bloch sphere, refining around
the best cell, and reporting purity(rho) minus the best dephased purity.
They share no algebra with the closed forms or the two-sided ascent in
``measures``; everything is built from the projectors of each axis and
rho's entries, so these searches serve as an independent check of
everything else.

Axes are unit Bloch vectors throughout.  A side-A axis n measures with the
projectors |u_k><u_k| = (I +/- n.sigma)/2, which are affine in (1, +/-n),
so the conditional blocks sigma_k = <u_k| rho |u_k> are too.  One real
4x4 map B per state (``_row_map``) takes (1, +/-n) to a block's trace t_k
and the Bloch vector r_k of its traceless part: sigma_k - (t_k/2) I =
[[al_k, be_k], [be_k*, -al_k]] has r_k = (Re be_k, -Im be_k, al_k).  In
blocks, B = [[b0, beta^T], [rho0, R]], so t_+/- = b0 +/- beta.n and r_+/- =
rho0 +/- R n.  With c = sum_k t_k^2 / 2 and G = V^T V the 2x2 Gram matrix
of V = [r_+ r_-], both scores are short closed functions of the axis through
P = B[:, 1:] n = (beta.n, R n), one (4, 3) x (3, N) product per scan.
With s = |R n|^2, l = rho0 . R n and k = |rho0|^2 (``_terms``), c = b0^2 +
(beta.n)^2, G_00 + G_11 = 2 (k + s), G_00 - G_11 = 4 l and G_01 = k - s:

- one-sided (``_one_sided``), the dephased purity tr(Pi_a(rho)^2) =
  sum_k tr(sigma_k^2) = c + 2 tr G = c + 4 (k + s);
- two-sided (``_two_sided``), the best purity over the whole b-sphere.
  A side-B ket of Bloch vector n has p_k+ - t_k/2 = r_k . n, so the pair's
  purity, 2 sum_k (p_k+ - t_k/2)^2 + c, is 2 n^T M n + c with M = V V^T.
  Its maximum over unit n is c + 2 lmax(M) = c + 2 lmax(G) =
  c + 2 (k + s) + 2 sqrt(4 l^2 + (k - s)^2), reached at n along V g, g the
  top eigenvector of G (``_best_b``).

The two differ by 2 lmin(G) >= 0, the paper's GD <= GGQD axis by axis.
So only side A is enumerated: the b side rests on the identity, which the
test suite checks against a literal b-grid scan of the same conditional
blocks.  The suite also checks both scores against a literal
apply_measurement at the reported axes.  The same identity
at one fixed side-A axis is the second step of the greedy
``tqc_sequential``, so that step is exact too; it takes r_+/- at that one
axis as two 3-vectors and its value in scalar arithmetic (``_pair_at``).

Every search is one refinement driver (``_refine``) over side-A axes: a
base-grid scan, then rounds of shrinking windows around the best axis.
A refinement window is a square of _LOCAL_POINTS x _LOCAL_POINTS points
in the tangent plane at the center, normalised back onto the sphere, so it
covers the same patch of sphere at a pole as at the equator; a (theta,
phi) box would shrink there to a thin bowtie and could miss an optimum a
few hundredths of a radian off the pole.  The base grid's unit vectors and
every round's window coordinates, in the frame (center, e_theta, e_phi),
depend on the grid alone, so they are built once per ``GridSpec``
(``_grid_tables``).  A round composes B[:, 1:] with its center's rotation
(``_frame``), so it scores its window with one product as well; b0, rho0
and k are fixed per state.  The one-sided score b0^2 + 4 k + n^T Q n, with
Q = beta beta^T + 4 R^T R, is a quadratic form in n, so the one-sided
searches score Q's top eigenvector last (``_one_sided_search``); the grid
stays, and the suite checks that no grid score beats that maximum.

Grid semantics: ``n_theta`` is the number of polar intervals over [0, pi]
(levels at i * pi / n_theta) and ``n_phi`` the number of azimuth points at
spacing 2 pi / n_phi.  Poles enter once (a single axis each).  An axis and
its negation define the same measurement, so for even ``n_phi`` the scan
enumerates only polar levels up to the equator; every dropped axis has its
antipode on the grid.  Ties always resolve to the first axis in
enumeration order, and b* follows a fixed rule on an exact tie
(``_best_b``), which keeps results deterministic.  Every axis of I/4 scores
exactly 1/4, so all three searches report a* = z there, and b* = z.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix4, MeasurementAxis, purity
from .measures import MeasureResult, Method, _finalize

_LOCAL_POINTS = 11  # points per side of a refinement window
_STEPS = np.linspace(-1.0, 1.0, _LOCAL_POINTS)
# (e_theta, e_phi) coordinates of a window's points in half-widths, row-major
_OFFSETS = np.stack(np.meshgrid(_STEPS, _STEPS, indexing="ij"), axis=-1).reshape(-1, 2)


@dataclass(frozen=True)
class GridSpec:
    """Axis-grid settings for the brute-force searches.

    refine_iters rounds shrink a local window around the best cell by
    refine_shrink per round, re-scanning it at fixed resolution.
    """

    n_theta: int = 64
    n_phi: int = 128
    refine_iters: int = 6
    refine_shrink: float = 0.25

    def __post_init__(self):
        for name in ("n_theta", "n_phi", "refine_iters"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n_theta < 8:
            raise ValueError("n_theta must be at least 8")
        if self.n_phi < 16:
            raise ValueError("n_phi must be at least 16")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be nonnegative")
        shrink = self.refine_shrink
        if not isinstance(shrink, numbers.Real) or not 0.1 <= shrink <= 0.9:
            raise ValueError("refine_shrink must be a number in [0.1, 0.9]")


REFERENCE_GRID = GridSpec()


def _scan_angles(grid: GridSpec):
    """Base-scan angles covering every distinct measurement axis pair once
    (up to the antipodal identification; the equator row carries a few
    harmless duplicates): the north pole, then n_phi azimuths at each polar
    level in turn, then, for odd n_phi only, the south pole."""
    odd = grid.n_phi % 2  # odd azimuth count: antipodes are off-grid
    levels = np.arange(1, grid.n_theta if odd else grid.n_theta // 2 + 1)
    ph_row = 2.0 * np.pi * np.arange(grid.n_phi) / grid.n_phi
    thetas = np.repeat(levels * np.pi / grid.n_theta, grid.n_phi)
    phis = np.tile(ph_row, levels.size)
    return (np.concatenate([[0.0], thetas, [np.pi] * odd]),
            np.concatenate([[0.0], phis, [0.0] * odd]))


def _frame(center):
    """(3, 3) rotation taking a window point's coordinates u to its unit
    vector: the columns center, e_theta and e_phi, the unit vector and its
    tangent directions.  At a pole, where phi is undefined, phi is taken as
    0."""
    x, y, z = center.tolist()
    st = math.hypot(x, y)
    cp, sp = (x / st, y / st) if st > 0.0 else (1.0, 0.0)
    return np.array([[x, z * cp, -sp], [y, z * sp, cp], [z, -st, 0.0]])


# I, sigma_x, sigma_y, sigma_z; _PAULI_WEIGHTS[2q + part, a] is the real
# (part 0) or imaginary (part 1) part of (sigma_a)_ji / 2, q = (i, j).
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_WEIGHTS = 0.5 * _PAULI.transpose(0, 2, 1).reshape(4, 4).view(float).T


def _row_map(rho4):
    """(4, 4) real affine map B taking (1, n) of a side-A axis n to the
    rows (t_+, r_+) of its outcome +, and (1, -n) to those of outcome -.

    <u_k| X |u_k> = sum_ij P_k,ji X_ij, so the weight of entry q = (i, j)
    of X is P_k,ji, whose real and imaginary parts are _PAULI_WEIGHTS times
    (1, +/-n).  sigma_k(a)_mn = sum_q w_q c_q,mn with c = rho's (i j, m n)
    rearrangement, and each of t_k and the entries of r_k is Re sum_q w_q
    z_q for a combination z of c's columns: t from c_00 + c_11, the
    Hermitian part's off-diagonal from (c_01 + c_10)/2 and i (c_01 -
    c_10)/2, al from (c_00 - c_11)/2.  So B is the real form of the z
    times _PAULI_WEIGHTS.  B keeps only each block's Hermitian part, and a
    combination that vanishes, as every one but t does for I/4, gives an
    exact zero row; I/4's t row is exactly (1/2, 0, 0, 0).
    """
    c = rho4.transpose(0, 2, 1, 3).reshape(4, 4)
    z = np.array([c[:, 0] + c[:, 3], c[:, 1] + c[:, 2], 1j * (c[:, 1] - c[:, 2]), c[:, 0] - c[:, 3]])
    z[1:] *= 0.5
    return z.conj().view(float) @ _PAULI_WEIGHTS  # Re(w z) = Re w Re z - Im w Im z


def _terms(b, p):
    """c = b0^2 + (beta.n)^2, (Na,), and k = |rho0|^2, l = rho0 . R n and
    s = |R n|^2 of the side-A axes n whose P = B[:, 1:] n are the columns
    of p, (4, Na); b = B = [[b0, beta^T], [rho0, R]].  G_00 and G_11 are
    k +/- 2 l + s and G_01 is k - s.  Every block of I/4 is a multiple of
    I, so its B is diag(1/2, 0, 0, 0), and k, l and s are exactly 0."""
    rho0, rn = b[1:, 0], p[1:]
    return b[0, 0] ** 2 + p[0] * p[0], rho0 @ rho0, rho0 @ rn, np.einsum("ia,ia->a", rn, rn)


def _one_sided(b, p):
    """Each side-A axis's dephased purity c + 2 tr G = c + 4 (k + s), (Na,)
    real, from its column of p = B[:, 1:] n (``_terms``)."""
    c, k, _, s = _terms(b, p)
    return c + 4.0 * (k + s)


def _two_sided(b, p):
    """Each side-A axis's best purity over the whole b-sphere, c + 2
    lmax(G) = c + 2 (k + s) + 2 sqrt(4 l^2 + (k - s)^2), (Na,) real, from
    its column of p = B[:, 1:] n.  The root, half of G's eigenvalue gap,
    is a sum of squares, so nothing cancels in it.  k, l and s are at most
    1/4 in size, as G's entries are, so the squares cannot overflow; one
    underflows only below 1e-154, and every score adds the root to c >=
    1/4."""
    c, k, l, s = _terms(b, p)
    d = k - s
    return c + 2.0 * (k + s) + 2.0 * np.sqrt(4.0 * l * l + d * d)


def _best_b(rp, rm):
    """Unit Bloch vector of the best side-B axis for one side-A axis, rp
    and rm its r_+ and r_-, two 3-vectors, the columns of V: V g / |V g|.

    g, the top eigenvector of G = V^T V, is (lam - g11, g01) when g00 >=
    g11, else (g01, lam - g00); its component along the larger diagonal
    entry is a sum of nonnegative terms, so nothing cancels.  V g vanishes
    only on an exact tie, G a multiple of I: |r_+| = |r_-| with r_+
    orthogonal to r_-, where every unit vector of their span is best, or V
    = 0 (every axis of I/4), where every b is.  The rule then takes r_+ /
    |r_+|, or the z axis when r_+ = 0.
    """
    g00, g11, g01 = float(rp @ rp), float(rm @ rm), float(rp @ rm)
    d = 0.5 * (g00 - g11)
    lam = 0.5 * (g00 + g11) + math.sqrt(d * d + g01 * g01)
    u, v = (lam - g11, g01) if g00 >= g11 else (g01, lam - g00)
    w = u * rp + v * rm
    if not w.any():
        w = rp if g00 > 0.0 else np.array([0.0, 0.0, 1.0])
    return w / np.linalg.norm(w)


@functools.lru_cache(maxsize=8)
def _grid_tables(grid: GridSpec):
    """The base grid's axes as unit vectors along the columns of a (3, N)
    array, and every refinement round's window coordinates, (refine_iters,
    3, _LOCAL_POINTS^2), the points along the columns.

    Round j's window has half-width h = h_0 refine_shrink^j, with h_0 the
    larger of the base grid's polar and azimuth steps, so the first window
    covers the neighboring base cells.  Its point at offset o (_OFFSETS) is
    the tangent-plane point center + h o, normalised back onto the sphere,
    so its coordinates in the frame (center, e_theta, e_phi) are (1, h o) /
    sqrt(1 + h^2 |o|^2), the center's exactly (1, 0, 0).  All of this
    depends on the grid alone, so each GridSpec builds it once: 98 KB of
    axes (4 097) and 2.9 KB per round at the reference grid.  The arrays
    are read-only.
    """
    th, ph = _scan_angles(grid)
    st = np.sin(th)
    axes = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)])
    windows = np.empty((grid.refine_iters, 3, _LOCAL_POINTS**2))
    half = max(np.pi / grid.n_theta, 2.0 * np.pi / grid.n_phi)
    for u in windows:
        u[0] = 1.0
        u[1:] = half * _OFFSETS.T
        u /= np.linalg.norm(u, axis=0)
        half *= grid.refine_shrink
    for t in (axes, windows):
        t.flags.writeable = False
    return axes, windows


def _refine(grid: GridSpec, b, score):
    """Grid-plus-refinement maximization over side-A axes.

    score(b, p) gives the value of every axis whose P = B[:, 1:] n is a
    column of p, b = B.  The base scan takes P of the base grid's unit
    vectors.  Each round then re-scans a window around the current center,
    a unit vector: its coordinates u come from _grid_tables, and P = B[:,
    1:] F u, F the center's _frame.  The center moves only on a strict
    gain, and the windows shrink by refine_shrink per round.  Returns (best
    value, unit-vector center, history), history the running best, base
    grid first.
    """
    axes, windows = _grid_tables(grid)
    m = b[:, 1:]
    vals = score(b, m @ axes)
    i = int(np.argmax(vals))
    val, center = float(vals[i]), axes[:, i]
    history = [val]
    for u in windows:
        f = _frame(center)
        vals = score(b, m @ f @ u)
        i = int(np.argmax(vals))
        if vals[i] > val:
            val, center = float(vals[i]), f @ u[:, i]
        history.append(val)
    return val, center, history


def _one_sided_search(grid: GridSpec, b):
    """_refine with _one_sided, then one more candidate axis: the top
    eigenvector of Q = beta beta^T + 4 R^T R.  The score c + 4 (k + s) =
    b0^2 + 4 |rho0|^2 + n^T Q n is a quadratic form in n, so its maximum
    over the sphere, b0^2 + 4 |rho0|^2 + lmax(Q), is reached there.  The
    candidate replaces the center only on a strict gain, and its score is
    folded into the last history entry."""
    val, center, history = _refine(grid, b, _one_sided)
    beta, r = b[0, 1:], b[1:, 1:]
    n = np.linalg.eigh(np.outer(beta, beta) + 4.0 * r.T @ r)[1][:, -1]
    top = float(_one_sided(b, (b[:, 1:] @ n)[:, None])[0])
    if top > val:
        val, center = top, n
        history[-1] = val
    return val, center, history


def _pair_at(b, a):
    """Best purity over the b-sphere at the side-A unit vector a, and (a,
    b*) as MeasurementAxis; b = _row_map(rho4).  r_+/- = rho0 +/- R a are
    two 3-vectors, and the value is _two_sided's in scalar arithmetic."""
    p = b[:, 1:] @ a
    rho0, ra = b[1:, 0], p[1:]
    t, k, l, s = float(p[0]), float(rho0 @ rho0), float(rho0 @ ra), float(ra @ ra)
    val = b[0, 0] ** 2 + t * t + 2.0 * (k + s) + 2.0 * math.sqrt(4.0 * l * l + (k - s) ** 2)
    return float(val), (MeasurementAxis(a), MeasurementAxis(_best_b(rho0 + ra, rho0 - ra)))


def _result(state: DensityMatrix4, method: Method, best: float, axes, history):
    """MeasureResult of purity(state) - best, with axes (None for an
    unmeasured side) as its maximizer."""
    value, clamped = _finalize(purity(state) - best)
    return MeasureResult(value, method, axes, clamped, tuple(history))


def ggqd_bruteforce(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """Two-sided measure by exhaustive product-measurement search.

    Scans a grid of side-A axes, scoring each by its best purity over every
    side-B axis (exact, from the conditional blocks' 2x2 Gram matrix; see
    the module docstring), refines around the winner a*, takes b* in closed
    form at a*, and returns purity(rho) - max tr(Pi_ab(rho)^2).  Only the
    a side is a grid, so the maximum never exceeds the true one and the
    result upper-bounds the exact value, approaching it as the grid refines.

    history holds the running best dephased purity, base grid first, one
    entry per refinement round after that.
    """
    b = _row_map(state.matrix.reshape(2, 2, 2, 2))
    val, a, history = _refine(grid, b, _two_sided)
    return _result(state, Method.BRUTE_FORCE, val, _pair_at(b, a)[1], history)


def gd_bruteforce(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """One-sided geometric discord by exhaustive side-A measurement search.

    Same grid and refinement as :func:`ggqd_bruteforce`, scoring each axis
    by its own dephased purity, then the top axis of the score's quadratic
    form (``_one_sided_search``), whose score the last history entry
    includes.
    """
    b = _row_map(state.matrix.reshape(2, 2, 2, 2))
    val, a, history = _one_sided_search(grid, b)
    return _result(state, Method.BRUTE_FORCE, val, (MeasurementAxis(a), None), history)


def tqc_sequential(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """Greedy two-step upper bound on the total quantum correlations.

    Step 1 finds the side-A axis a* that best preserves purity.  Step 2
    finds the side-B axis b* that best preserves the purity of rho dephased
    along a*; since Pi_b Pi_a* = Pi_a*b, that is the exact maximum over the
    whole b-sphere at a* (the identity of the module docstring), with b* in
    closed form.  The two purity losses telescope, so the value returned is

        purity(rho) - max_b tr(Pi_b(Pi_a*(rho))^2).

    The total quantum correlations (TQC), which the paper identifies with
    the two-sided measure of :func:`ggqd_bruteforce`, minimize that total
    over the first-stage axis as well.  Fixing a* greedily therefore gives
    an upper bound on TQC, reached only when a* is the side-A axis of a
    jointly optimal pair.  On random X states the two agree to 1.7e-16 in
    cases 1 and 3 and differ by up to 4.2e-2 in case 2; on random full-rank
    states the greedy total is above, by a median of 2e-4 and up to 1.3e-2.

    history holds step 1's running best one-sided dephased purity, the
    history of :func:`gd_bruteforce`; step 2 is not a grid search.
    """
    b = _row_map(state.matrix.reshape(2, 2, 2, 2))
    _, a, history = _one_sided_search(grid, b)
    val, axes = _pair_at(b, a)
    return _result(state, Method.TQC_SEQUENTIAL, val, axes, history)
