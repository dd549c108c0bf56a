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
[[al_k, be_k], [be_k*, -al_k]] has r_k = (Re be_k, -Im be_k, al_k).  Every
scan takes B's last three columns times the axes, one (4, 3) x (3, N)
product, and adds it to or subtracts it from B's first column for the two
outcomes.  With c = sum_k t_k^2 / 2 and G = R^T R the 2x2 Gram matrix of
R = [r_+ r_-], both scores come from the same rows (``_side_a_rows``):

- one-sided (``_one_sided``), the dephased purity tr(Pi_a(rho)^2) =
  sum_k tr(sigma_k^2) = c + 2 tr G, which needs only G's diagonal;
- two-sided (``_two_sided``), the best purity over the whole b-sphere.
  A side-B ket of Bloch vector n has p_k+ - t_k/2 = r_k . n, so the pair's
  purity, 2 sum_k (p_k+ - t_k/2)^2 + c, is 2 n^T M n + c with M = R R^T.
  Its maximum over unit n is c + 2 lmax(M) = c + 2 lmax(G), reached at n
  along R g, g the top eigenvector of G (``_best_b``).

The two differ by 2 lmin(G) >= 0, the paper's GD <= GGQD axis by axis.
So only side A is enumerated: the b side rests on the identity, which the
test suite checks against a literal b-grid scan of the same conditional
blocks.  The suite also checks both scores against a literal
apply_measurement at the reported axes.  The same identity
at one fixed side-A axis is the second step of the greedy
``tqc_sequential``, so that step is exact too.

Every search is one refinement driver (``_refine``) over side-A axes: a
base-grid scan, then rounds of shrinking windows around the best axis.
A refinement window is a square of _LOCAL_POINTS x _LOCAL_POINTS points
in the tangent plane at the center, normalised back onto the sphere, so it
covers the same patch of sphere at a pole as at the equator; a (theta,
phi) box would shrink there to a thin bowtie and could miss an optimum a
few hundredths of a radian off the pole.  The base grid's unit vectors and
every round's window coordinates, in the frame (center, e_theta, e_phi),
depend on the grid alone, so they are built once per ``GridSpec``
(``_grid_tables``).  A round composes B with its center's frame
(``_frame``), so it scores its window with one product as well.

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
    harmless duplicates)."""
    if grid.n_phi % 2 == 0:
        k_max = grid.n_theta // 2
    else:
        k_max = grid.n_theta  # odd azimuth count: antipodes are off-grid
    thetas = [0.0]
    phis = [0.0]
    if k_max == grid.n_theta:
        pole_levels = (0, grid.n_theta)
    else:
        pole_levels = (0,)
    ph_row = 2.0 * np.pi * np.arange(grid.n_phi) / grid.n_phi
    for i in range(1, k_max + 1):
        if i in pole_levels:
            continue
        t = i * np.pi / grid.n_theta
        thetas.extend([t] * grid.n_phi)
        phis.extend(ph_row)
    if k_max == grid.n_theta:
        thetas.append(np.pi)
        phis.append(0.0)
    return np.asarray(thetas), np.asarray(phis)


def _frame(center):
    """(4, 4) map from a window point's coordinates (1, u) to (1, n): 1 on
    the first entry, then the columns center, e_theta and e_phi, the unit
    vector and its tangent directions.  At a pole, where phi is undefined,
    phi is taken as 0."""
    x, y, z = center.tolist()
    st = math.hypot(x, y)
    cp, sp = (x / st, y / st) if st > 0.0 else (1.0, 0.0)
    return np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, x, z * cp, -sp], [0.0, y, z * sp, cp], [0.0, z, -st, 0.0]]
    )


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


def _lmax(g00, g11, g01):
    """Top eigenvalue of the symmetric 2x2 [[g00, g01], [g01, g11]] from its
    own entries, (g00 + g11)/2 + sqrt(d^2 + g01^2) with d = (g00 - g11)/2,
    which does not cancel for a Gram matrix.  Gram entries are at most
    1/4, so the squares cannot overflow; one underflows only below 1e-154,
    and every score adds lmax to c >= 1/4."""
    d = 0.5 * (g00 - g11)
    return 0.5 * (g00 + g11) + np.sqrt(d * d + g01 * g01)


def _side_a_rows(b, x):
    """The vectors r_k of the side-A axes along the columns of x, (3, 2,
    Na) real, with c = sum_k t_k^2 / 2 and the Gram diagonal (G_00, G_11),
    (Na,) and (2, Na); b = B, or B composed with a window's _frame when x
    holds window coordinates; G_kl = r_k . r_l.  B's first column plus and
    minus one (4, 3) x (3, Na) product give each outcome's (t_k, r_k)."""
    p = b[:, 1:] @ x
    tr = np.empty((4, 2, p.shape[1]))  # (t, r_0, r_1, r_2), k, a
    np.add(b[:, :1], p, out=tr[:, 0])
    np.subtract(b[:, :1], p, out=tr[:, 1])
    t, r = tr[0], tr[1:]
    g = np.einsum("ika,ika->ka", r, r)  # g00 and g11
    return r, 0.5 * (t[0] * t[0] + t[1] * t[1]), g


def _one_sided(b, x):
    """Each side-A axis's dephased purity c + 2 tr G, (Na,) real."""
    _, c, g = _side_a_rows(b, x)
    return c + 2.0 * (g[0] + g[1])


def _two_sided(b, x):
    """The r_k of each side-A axis and its best purity over the whole
    b-sphere, c + 2 lmax(G), (Na,) real."""
    r, c, g = _side_a_rows(b, x)
    g01 = np.einsum("ia,ia->a", r[:, 0], r[:, 1])
    return r, c + 2.0 * _lmax(g[0], g[1], g01)


def _best_b(r):
    """Unit Bloch vector of the best side-B axis for one side-A axis, r =
    (3, 2) its r_+ and r_- as the columns of R: R g / |R g|.

    g, the top eigenvector of G = R^T R, is (lam - g11, g01) when g00 >=
    g11, else (g01, lam - g00); its component along the larger diagonal
    entry is a sum of nonnegative terms, so nothing cancels.  R g vanishes
    only on an exact tie, G a multiple of I: |r_+| = |r_-| with r_+
    orthogonal to r_-, where every unit vector of their span is best, or R
    = 0 (every axis of I/4), where every b is.  The rule then takes r_+ /
    |r_+|, or the z axis when r_+ = 0.
    """
    g00, g11 = (r * r).sum(axis=0)
    g01 = float(r[:, 0] @ r[:, 1])
    lam = _lmax(g00, g11, g01)
    w = r @ ((lam - g11, g01) if g00 >= g11 else (g01, lam - g00))
    if not w.any():
        w = r[:, 0] if g00 > 0.0 else np.array([0.0, 0.0, 1.0])
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

    score(b, x) gives the value of every axis along the columns of x, b =
    B for the base grid's unit vectors.  Each round then re-scans a window
    around the current center, a unit vector: its coordinates come from
    _grid_tables, and b is B composed with the center's _frame.  The
    center moves only on a strict gain, and the windows shrink by
    refine_shrink per round.  Returns (best value, unit-vector center,
    history), history the running best, base grid first.
    """
    axes, windows = _grid_tables(grid)
    vals = score(b, axes)
    i = int(np.argmax(vals))
    val, center = float(vals[i]), axes[:, i]
    history = [val]
    for u in windows:
        f = _frame(center)
        vals = score(b @ f, u)
        i = int(np.argmax(vals))
        if vals[i] > val:
            val, center = float(vals[i]), f[1:, 1:] @ u[:, i]
        history.append(val)
    return val, center, history


def _pair_at(b, a):
    """Best purity over the b-sphere at the side-A unit vector a, and (a,
    b*) as MeasurementAxis; b = _row_map(rho4)."""
    r, val = _two_sided(b, a[:, None])
    return float(val[0]), (MeasurementAxis(a), MeasurementAxis(_best_b(r[:, :, 0])))


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
    val, a, history = _refine(grid, b, lambda m, x: _two_sided(m, x)[1])
    return _result(state, Method.BRUTE_FORCE, val, _pair_at(b, a)[1], history)


def gd_bruteforce(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """One-sided geometric discord by exhaustive side-A measurement search.

    Same grid and refinement as :func:`ggqd_bruteforce`, scoring each axis
    by its own dephased purity.
    """
    b = _row_map(state.matrix.reshape(2, 2, 2, 2))
    val, a, history = _refine(grid, b, _one_sided)
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
    _, a, history = _refine(grid, b, _one_sided)
    val, axes = _pair_at(b, a)
    return _result(state, Method.TQC_SEQUENTIAL, val, axes, history)
