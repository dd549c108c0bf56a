"""Brute-force measurement searches.

Reference implementations that locate the optimal local projective
measurements by scanning an axis grid on the Bloch sphere, refining around
the best cell, and reporting purity(rho) minus the best dephased purity.
They share no algebra with the closed forms or the two-sided ascent in
``measures``; everything is built from the projectors of each axis and
rho's entries, so these searches serve as an independent check of
everything else.

Axes are unit Bloch vectors throughout.  A side-A axis n enters as one
real table of its projectors |u_k><u_k| = (I +/- n.sigma)/2 (``_weights``),
and one matrix product of that table with a fixed rearrangement of rho's
entries (``_row_map``) gives the conditional blocks sigma_k = <u_k| rho
|u_k> as their traces t_k and the Bloch vectors r_k of their traceless
parts: sigma_k - (t_k/2) I = [[al_k, be_k], [be_k*, -al_k]] has r_k =
(Re be_k, -Im be_k, al_k).  With c = sum_k t_k^2 / 2 and G = R^T R the 2x2
Gram matrix of R = [r_+ r_-], both scores come from the same rows
(``_side_a_rows``):

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
The base grid's unit vectors and weight table depend on the grid alone, so
they are built once per ``GridSpec`` (``_grid_tables``).  A refinement
window is a square of _LOCAL_POINTS x _LOCAL_POINTS points in the tangent
plane at the center, normalised back onto the sphere (``_window``), so it
covers the same patch of sphere at a pole as at the equator; a (theta,
phi) box would shrink there to a thin bowtie and could miss an optimum a
few hundredths of a radian off the pole.

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


def _window(center, half):
    """Unit vectors of a window around a unit-vector center, center point
    included, (_LOCAL_POINTS^2, 3): a square of half-width half in the
    tangent plane at center, along e_theta and e_phi, normalised back onto
    the sphere.  At a pole, where phi is undefined, phi is taken as 0."""
    x, y, z = center.tolist()
    st = math.hypot(x, y)
    cp, sp = (x / st, y / st) if st > 0.0 else (1.0, 0.0)
    v = center + (half * _OFFSETS) @ np.array([[z * cp, z * sp, -st], [-sp, cp, 0.0]])
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# I, sigma_x, sigma_y, sigma_z; _PAULI_WEIGHTS[2q + part, a] is the real
# (part 0) or imaginary (part 1) part of (sigma_a)_ji / 2, q = (i, j).
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_WEIGHTS = 0.5 * _PAULI.transpose(0, 2, 1).reshape(4, 4).view(float).T


def _weights(n):
    """Real weight table of the projectors (I +/- n.sigma)/2 of the axes
    along the rows of n, (8, 2 N) laid out (component, outcome, axis).

    <u_k| X |u_k> = sum_ij P_k,ji X_ij, so the weight of entry q = (i, j) of
    X is P_k,ji; rows 2q and 2q + 1 are its real and imaginary parts, so one
    real matrix product gives a real-linear function of every conditional
    block.  The table is affine in n, _PAULI_WEIGHTS times (1, +/-n): the
    diagonal weights are 0.5 +/- 0.5 n_z, each rounded once, and such a
    pair always sums to exactly 1, so every axis of I/4 has t_k = 1/2 and
    scores exactly 1/4.
    """
    x = np.empty((4, 2, len(n)))
    x[0] = 1.0
    x[1:, 0] = n.T
    x[1:, 1] = -n.T
    return _PAULI_WEIGHTS @ x.reshape(4, -1)


def _row_map(rho4):
    """(4, 8) real map taking _weights of side-A axes to t_k and r_k.

    sigma_k(a)_mn = sum_q w_q c_q,mn with c = rho's (i j, m n)
    rearrangement, and each of t_k and the entries of r_k is Re sum_q w_q
    z_q for a combination z of c's columns: t from c_00 + c_11, the
    Hermitian part's off-diagonal from (c_01 + c_10)/2 and i (c_01 -
    c_10)/2, al from (c_00 - c_11)/2.  A combination that vanishes, as
    every one but t does for I/4, gives exact zeros.
    """
    c = rho4.transpose(0, 2, 1, 3).reshape(4, 4)
    z = np.array([c[:, 0] + c[:, 3], c[:, 1] + c[:, 2], 1j * (c[:, 1] - c[:, 2]), c[:, 0] - c[:, 3]])
    z[1:] *= 0.5
    return z.conj().view(float)  # Re(w z) = Re w Re z - Im w Im z


def _lmax(g00, g11, g01):
    """Top eigenvalue of the symmetric 2x2 [[g00, g01], [g01, g11]] from its
    own entries, (g00 + g11)/2 + hypot((g00 - g11)/2, g01), which does not
    cancel for a Gram matrix."""
    return 0.5 * (g00 + g11) + np.hypot(0.5 * (g00 - g11), g01)


def _side_a_rows(m, w):
    """The vectors r_k of each side-A axis, (3, 2, Na) real, with c = sum_k
    t_k^2 / 2 and the Gram diagonal (G_00, G_11), (Na,) and (2, Na), from m
    = _row_map(rho4) and w = _weights of the a-axes; G_kl = r_k . r_l.

    The contraction leaves sigma_k Hermitian only up to rounding; m keeps
    only the Hermitian part, so blocks that are multiples of I (every axis
    of I/4) give r_k = 0 exactly.
    """
    tr = (m @ w).reshape(4, 2, -1)  # (t, r_0, r_1, r_2), k, a
    t, r = tr[0], tr[1:]
    g = np.einsum("ika,ika->ka", r, r)  # g00 and g11
    return r, 0.5 * (t[0] * t[0] + t[1] * t[1]), g


def _one_sided(m, w):
    """Each side-A axis's dephased purity c + 2 tr G, (Na,) real."""
    _, c, g = _side_a_rows(m, w)
    return c + 2.0 * (g[0] + g[1])


def _two_sided(m, w):
    """The r_k of each side-A axis and its best purity over the whole
    b-sphere, c + 2 lmax(G), (Na,) real."""
    r, c, g = _side_a_rows(m, w)
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
    """The base grid's axes as unit vectors, (N, 3), and their _weights
    table.  They depend on the grid alone, so each GridSpec builds them once
    (4 097 axes, 0.6 MB, at the reference grid); the arrays are read-only."""
    th, ph = _scan_angles(grid)
    st = np.sin(th)
    n = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=1)
    tables = (n, _weights(n))
    for t in tables:
        t.flags.writeable = False
    return tables


def _refine(grid: GridSpec, score):
    """Grid-plus-refinement maximization over side-A axes.

    score(_weights(n)) gives the value of every axis n.  The base grid is
    scanned first; each round then re-scans a _window around the current
    center, a unit vector, moves the center only on a strict gain, and
    shrinks the window by refine_shrink.  The first window's half-width,
    the larger of the base grid's polar and azimuth steps, covers the
    neighboring base cells.  Returns (best value, unit-vector center,
    history), history the running best, base grid first.
    """
    n, base = _grid_tables(grid)
    vals = score(base)
    i = int(np.argmax(vals))
    val, center = float(vals[i]), n[i]
    history = [val]
    half = max(np.pi / grid.n_theta, 2.0 * np.pi / grid.n_phi)
    for _ in range(grid.refine_iters):
        pts = _window(center, half)
        vals = score(_weights(pts))
        i = int(np.argmax(vals))
        if vals[i] > val:
            val, center = float(vals[i]), pts[i]
        history.append(val)
        half *= grid.refine_shrink
    return val, center, history


def _pair_at(m, a):
    """Best purity over the b-sphere at the side-A unit vector a, and (a,
    b*) as MeasurementAxis; m = _row_map(rho4)."""
    r, val = _two_sided(m, _weights(a[None]))
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
    m = _row_map(state.matrix.reshape(2, 2, 2, 2))
    val, a, history = _refine(grid, lambda w: _two_sided(m, w)[1])
    return _result(state, Method.BRUTE_FORCE, val, _pair_at(m, a)[1], history)


def gd_bruteforce(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """One-sided geometric discord by exhaustive side-A measurement search.

    Same grid and refinement as :func:`ggqd_bruteforce`, scoring each axis
    by its own dephased purity.
    """
    m = _row_map(state.matrix.reshape(2, 2, 2, 2))
    val, a, history = _refine(grid, lambda w: _one_sided(m, w))
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
    m = _row_map(state.matrix.reshape(2, 2, 2, 2))
    _, a, history = _refine(grid, lambda w: _one_sided(m, w))
    val, axes = _pair_at(m, a)
    return _result(state, Method.TQC_SEQUENTIAL, val, axes, history)
