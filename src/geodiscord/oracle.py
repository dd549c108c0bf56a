"""Brute-force measurement searches.

Reference implementations that locate the optimal local projective
measurements by scanning axis grids on the Bloch sphere, refining around the
best cell, and reporting purity(rho) minus the best dephased purity.  They
share no algebra with the closed forms or the two-sided ascent in
``measures``; the only quantities evaluated are projector probabilities, so
these searches serve as an independent check of everything else.

The searched objective is tr(Pi(rho)^2) where Pi dephases along the product
of the chosen axes.  Expanding Pi(rho) in the measurement eigenbasis turns
that purity into the sum of squared outcome probabilities, which is what the
scan evaluates (the equality against a literal apply_measurement round trip
is asserted in the test suite).

The two-sided scan covers every pair of the base grid, 4 097 x 4 097 axes
at the reference settings.  One real matrix product per block of 16 side-A
axes gives all outcome probabilities against every side-B axis; a ninth
column subtracts half the side-A outcome trace inside that product, so the
purity is a square, a sum and a per-row constant away.  At 16 rows a
block's products take about 1 MB and stay in cache; 512-row blocks (34 MB)
run from memory at under half the speed.

Grid semantics: ``n_theta`` is the number of polar intervals over [0, pi]
(levels at i * pi / n_theta) and ``n_phi`` the number of azimuth points at
spacing 2 pi / n_phi.  Poles enter once (a single axis each).  An axis and
its negation define the same measurement, so for even ``n_phi`` the scan
enumerates only polar levels up to the equator; every dropped axis has its
antipode on the grid.  Ties always resolve to the first grid point in
enumeration order, which keeps results deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix4, MeasurementAxis, apply_measurement, purity
from .measures import MeasureResult, Method, _finalize

# a-axis rows per block in the two-sided scan: a block's products,
# 2 x 16 x 4 097 doubles at the reference grid, are about 1 MB and stay in
# cache; 512-row blocks (34 MB) run from memory at under half the speed
_CHUNK = 16
_LOCAL_POINTS = 11  # per-angle resolution of refinement windows


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
        if self.n_theta < 8:
            raise ValueError("n_theta must be at least 8")
        if self.n_phi < 16:
            raise ValueError("n_phi must be at least 16")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be nonnegative")
        if not 0.1 <= self.refine_shrink <= 0.9:
            raise ValueError("refine_shrink must lie in [0.1, 0.9]")


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


def _local_angles(theta_c, phi_c, half_theta, half_phi):
    """Flattened window grid around a center, center point included."""
    t = np.linspace(theta_c - half_theta, theta_c + half_theta, _LOCAL_POINTS)
    p = np.linspace(phi_c - half_phi, phi_c + half_phi, _LOCAL_POINTS)
    tt, pp = np.meshgrid(t, p, indexing="ij")
    return tt.ravel(), pp.ravel()


def _kets(theta, phi):
    """Orthonormal eigenket pair of n.sigma per axis: (N, outcome, component)."""
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    u = np.empty(theta.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c
    u[..., 0, 1] = s * e
    u[..., 1, 0] = s
    u[..., 1, 1] = -c * e
    return u


def _conditional_a(rho4, theta, phi):
    """sigma_k(a) = <u_k| rho |u_k> over side A: (Na, 2, 2, 2) complex."""
    u = _kets(theta, phi)
    return np.einsum("aki,imjn,akj->akmn", u.conj(), rho4, u, optimize=True)


def _conditional_b(rho4, theta, phi):
    """tau_l(b) = <v_l| rho |v_l> over side B: (Nb, 2, 2, 2) complex."""
    v = _kets(theta, phi)
    return np.einsum("bkm,imjn,bkn->bkij", v.conj(), rho4, v, optimize=True)


def _one_sided_values(rho4, theta, phi, side: str):
    """tr(Pi(rho)^2) for measurements on one side, every grid axis at once."""
    sig = _conditional_a(rho4, theta, phi) if side == "a" else _conditional_b(rho4, theta, phi)
    return (sig.real**2 + sig.imag**2).sum(axis=(1, 2, 3))


def _two_sided_max(rho4, th_a, ph_a, th_b, ph_b):
    """Max of tr(Pi(rho)^2) over the (a, b) product grid.

    Returns (value, index_a, index_b).  Probabilities for all pairs are one
    real matrix product: p_kl = tr(Q_l sigma_k) with sigma_k the side-A
    conditional blocks and Q_l the side-B projectors.  With t_k = tr sigma_k
    the two side-B outcomes give p_k+ and t_k - p_k+, so the pair's purity
    is sum_k 2 (p_k+ - t_k/2)^2 + t_k^2/2.  A ninth column carries the shift:
    each sigma row ends in -t_k/2 and each projector row in 1, so the
    product yields p_k+ - t_k/2 directly.

    The a-rows go through in blocks of _CHUNK = 16, so a block's products
    (about 1 MB at the reference grid) stay in cache while they are squared
    in place, summed over the outcome rows and searched.  A flat argmax per
    block and a strict comparison across blocks keep ties on the first grid
    pair in enumeration order, whatever the block size.
    """
    sig = _conditional_a(rho4, th_a, ph_a)
    n_a = th_a.size
    traces = np.einsum("akmm->ak", sig).real
    flat = sig.reshape(2 * n_a, 4)
    s9 = np.concatenate(
        [flat.real, flat.imag, -0.5 * traces.reshape(2 * n_a, 1)], axis=1
    )
    row_const = 0.5 * (traces * traces).sum(axis=1)

    v = _kets(th_b, ph_b)[:, 0, :]  # outcome + ket per b axis
    q_plus = np.einsum("bm,bn->bnm", v, v.conj())  # transposed projector
    n_b = th_b.size
    q = q_plus.reshape(n_b, 4)
    w9t = np.vstack([q.real.T, -q.imag.T, np.ones(n_b)])  # (9, n_b), contiguous

    best_val = -np.inf
    best_ia = best_ib = 0
    for start in range(0, n_a, _CHUNK):
        end = min(start + _CHUNK, n_a)
        p = s9[2 * start : 2 * end] @ w9t
        p *= p
        p = p.reshape(end - start, 2, n_b)
        obj = p[:, 0] + p[:, 1]
        obj *= 2.0
        obj += row_const[start:end, None]
        k = int(np.argmax(obj))
        ia, ib = divmod(k, n_b)
        val = float(obj[ia, ib])
        if val > best_val:
            best_val, best_ia, best_ib = val, start + ia, ib
    return best_val, best_ia, best_ib


def _search_one_sided(rho4, grid: GridSpec, side: str):
    """Grid-plus-refinement maximization of the one-sided dephased purity."""
    th, ph = _scan_angles(grid)
    vals = _one_sided_values(rho4, th, ph, side)
    idx = int(np.argmax(vals))
    best_t, best_p, best_v = float(th[idx]), float(ph[idx]), float(vals[idx])
    history = [best_v]
    half_t = np.pi / grid.n_theta
    half_p = 2.0 * np.pi / grid.n_phi
    for _ in range(grid.refine_iters):
        lt, lp = _local_angles(best_t, best_p, half_t, half_p)
        vals = _one_sided_values(rho4, lt, lp, side)
        idx = int(np.argmax(vals))
        if float(vals[idx]) > best_v:
            best_t, best_p, best_v = float(lt[idx]), float(lp[idx]), float(vals[idx])
        history.append(best_v)
        half_t *= grid.refine_shrink
        half_p *= grid.refine_shrink
    return best_t, best_p, best_v, history


def _search_two_sided(rho4, grid: GridSpec):
    th, ph = _scan_angles(grid)
    val, ia, ib = _two_sided_max(rho4, th, ph, th, ph)
    at, ap = float(th[ia]), float(ph[ia])
    bt, bp = float(th[ib]), float(ph[ib])
    history = [val]
    half_t = np.pi / grid.n_theta
    half_p = 2.0 * np.pi / grid.n_phi
    for _ in range(grid.refine_iters):
        lta, lpa = _local_angles(at, ap, half_t, half_p)
        ltb, lpb = _local_angles(bt, bp, half_t, half_p)
        v, ia, ib = _two_sided_max(rho4, lta, lpa, ltb, lpb)
        if v > val:
            val = v
            at, ap = float(lta[ia]), float(lpa[ia])
            bt, bp = float(ltb[ib]), float(lpb[ib])
        history.append(val)
        half_t *= grid.refine_shrink
        half_p *= grid.refine_shrink
    return val, (at, ap), (bt, bp), history


def ggqd_bruteforce(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """Two-sided measure by exhaustive product-measurement search.

    Scans the (a, b) axis product grid for the dephasing that best preserves
    purity, refines around the winner, and returns
    purity(rho) - max tr(Pi_ab(rho)^2).  The grid maximum never exceeds the
    true one, so the result upper-bounds the exact value, approaching it as
    the grid refines.

    history holds the running best dephased purity, base grid first, one
    entry per refinement round after that.
    """
    rho4 = state.matrix.reshape(2, 2, 2, 2)
    val, (at, ap), (bt, bp), history = _search_two_sided(rho4, grid)
    value, clamped = _finalize(purity(state) - val)
    return MeasureResult(
        value,
        Method.BRUTE_FORCE,
        (MeasurementAxis.from_angles(at, ap), MeasurementAxis.from_angles(bt, bp)),
        clamped,
        tuple(history),
    )


def gd_bruteforce(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """One-sided geometric discord by exhaustive side-A measurement search.

    Same scheme as :func:`ggqd_bruteforce` with a single sphere.
    """
    rho4 = state.matrix.reshape(2, 2, 2, 2)
    at, ap, val, history = _search_one_sided(rho4, grid, "a")
    value, clamped = _finalize(purity(state) - val)
    return MeasureResult(
        value,
        Method.BRUTE_FORCE,
        (MeasurementAxis.from_angles(at, ap), None),
        clamped,
        tuple(history),
    )


def tqc_sequential(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """Greedy two-step upper bound on the total quantum correlations.

    Step 1 finds the side-A axis a* that best preserves purity, step 2
    dephases along a* (a literal apply_measurement) and finds the side-B
    axis b* that best preserves the purity of that intermediate state.  The
    two purity losses telescope, so the value returned is

        purity(rho) - max_b tr(Pi_b(Pi_a*(rho))^2).

    The total quantum correlations (TQC), which the paper identifies with
    the two-sided measure of :func:`ggqd_bruteforce`, minimize that total
    over the first-stage axis as well.  Fixing a* greedily therefore gives
    an upper bound on TQC, reached only when a* is the side-A axis of a
    jointly optimal pair.  On random X states the two agree to 1.7e-16 in
    cases 1 and 3 and differ by up to 4.2e-2 in case 2; on random full-rank
    states the greedy total is above, by a median of 2e-4 and up to 1.3e-2.

    history holds the step-2 running best dephased purity.
    """
    rho4 = state.matrix.reshape(2, 2, 2, 2)
    at, ap, _, _ = _search_one_sided(rho4, grid, "a")
    a_axis = MeasurementAxis.from_angles(at, ap)
    intermediate = apply_measurement(state, a=a_axis)
    rho4_mid = intermediate.matrix.reshape(2, 2, 2, 2)
    bt, bp, val, history = _search_one_sided(rho4_mid, grid, "b")
    value, clamped = _finalize(purity(state) - val)
    return MeasureResult(
        value,
        Method.TQC_SEQUENTIAL,
        (a_axis, MeasurementAxis.from_angles(bt, bp)),
        clamped,
        tuple(history),
    )
