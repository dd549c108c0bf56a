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
at the reference settings, at one output of one real matrix product per
pair.  With sigma_k the side-A conditional blocks, t_k = tr sigma_k and
sigma~_k = sigma_k - (t_k/2) I their traceless parts, a side-B ket v gives

    sum_k (p_k+ - t_k/2)^2 = <v v| sum_k sigma~_k (x) sigma~_k |v v>,

and v (x) v lies in the three-dimensional symmetric subspace.  So the
pair's purity, 2 sum_k (p_k+ - t_k/2)^2 + sum_k t_k^2 / 2, is a ten-term
real dot product: nine numbers from side A (twice the Hermitian 3x3
compression of sum_k sigma~_k (x) sigma~_k to that subspace), nine from
side B (|w><w| with w = v (x) v in that basis), and a constant column that
carries sum_k t_k^2 / 2.  The side-A compression has a closed form in six
sums over the two outcomes (``_two_copy_rows``), and the side-B table of
the base grid depends on the grid alone, so it is built once per
``GridSpec`` (``_grid_tables``); every state still scans every pair.

The scan runs in two passes.  A screening pass scores every pair in single
precision, which only bounds where the best pair can lie; a second pass
re-scores in double precision, in one fixed order, the pairs that the
screen's rounding bound cannot rule out (``_two_sided_max``).  So the
answer is the one a double-precision scan gives, to the bit.

Grid semantics: ``n_theta`` is the number of polar intervals over [0, pi]
(levels at i * pi / n_theta) and ``n_phi`` the number of azimuth points at
spacing 2 pi / n_phi.  Poles enter once (a single axis each).  An axis and
its negation define the same measurement, so for even ``n_phi`` the scan
enumerates only polar levels up to the equator; every dropped axis has its
antipode on the grid.  Ties always resolve to the first grid point in
enumeration order, which keeps results deterministic.  The two-sided
scan compares pairs by their dot products summed in one fixed order, so
the rounding of the matrix-product kernel cannot move a tie
(``_two_sided_max``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix4, MeasurementAxis, apply_measurement, purity
from .measures import MeasureResult, Method, _finalize

# a-axis rows per block in the two-sided scan: a block's scores, one row
# per a-axis, 16 x 4 097 floats at the reference grid, are 256 KB in the
# screening pass and 512 KB in the re-score pass, and stay in cache.  Base
# scan of Ginibre states without building the rows, one thread: 6.0 ms at
# 16 rows, 9.3 ms at 8, 7.1 ms at 24, 12.5 ms at 32, 13.6 ms at 64
_CHUNK = 16
_LOCAL_POINTS = 11  # per-angle resolution of refinement windows
# contraction order of the conditional blocks: each ket's outer product
# first, then rho; the path optimize=True picks for two or more axes,
# without searching for it on every call
_COND_PATH = ["einsum_path", (0, 2), (0, 1)]
# the symmetric subspace of two qubits as columns over |00>, |01>, |10>,
# |11>: |00>, (|01> + |10>)/sqrt(2), |11>
_SYM = np.array(
    [[1.0, 0.0, 0.0], [0.0, np.sqrt(0.5), 0.0], [0.0, np.sqrt(0.5), 0.0], [0.0, 0.0, 1.0]]
)
_UPPER = np.triu_indices(3, 1)
# a product entry and its re-score each lie within gamma_10 < 10.1 u
# (u = 2^-53) times the row's absolute sum of the exact ten-term dot
# product, since no column entry exceeds 1; so the two differ by at most
# 22 u times that sum
_ROUNDING = 22 * 2.0**-53
# the screening pass rounds the nine b-dependent coefficients of a row and
# a column to float32 (2 u32 + u32^2 on a product, u32 = 2^-24), sums their
# products in float32 (gamma_9 = 9 u32 / (1 - 9 u32)) and adds the constant
# in float64 (one u): a screen entry lies within 12 u32 + u times the row's
# absolute sum of the exact dot product, so it and the pair's re-score
# differ by at most _ROUNDING + _SCREEN times that sum
_SCREEN = 12 * 2.0**-24 + 2.0**-53
# the second pass re-scores a block whole, not pair by pair, once more
# than 1/_DENSE of its pairs are candidates: at the reference grid a whole
# 16-row block takes 0.77 ms, the same as gathering and re-scoring 7% of
# its pairs (one thread)
_DENSE = 16


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
    return np.einsum("aki,imjn,akj->akmn", u.conj(), rho4, u, optimize=_COND_PATH)


def _conditional_b(rho4, theta, phi):
    """tau_l(b) = <v_l| rho |v_l> over side B: (Nb, 2, 2, 2) complex."""
    v = _kets(theta, phi)
    return np.einsum("bkm,imjn,bkn->bkij", v.conj(), rho4, v, optimize=_COND_PATH)


def _one_sided_values(rho4, theta, phi, side: str):
    """tr(Pi(rho)^2) for measurements on one side, every grid axis at once."""
    sig = _conditional_a(rho4, theta, phi) if side == "a" else _conditional_b(rho4, theta, phi)
    return (sig.real**2 + sig.imag**2).sum(axis=(1, 2, 3))


def _trace_form(h, const):
    """(N, 10) real: the diagonal, the real and the imaginary upper triangle
    of a Hermitian 3x3 stack, then a constant.  For Hermitian H and W,
    tr(H W) = sum_i H_ii W_ii + 2 sum_{i<j} (Re H_ij Re W_ij + Im H_ij Im W_ij)."""
    upper = h[:, _UPPER[0], _UPPER[1]]
    diag = np.einsum("nii->ni", h).real
    return np.concatenate([diag, upper.real, upper.imag, const[:, None]], axis=1)


def _two_copy_rows(rho4, theta, phi):
    """Side-A coefficients of the two-sided purity: (Na, 10) real.

    Row a holds H = S^T (sum_k sigma~_k (x) sigma~_k) S in trace form, its
    off-diagonal entries doubled because tr(H W) counts them twice, then
    sum_k t_k^2 / 4, all times 2: a row times a column of _two_copy_cols is
    2 <w|H|w> + sum_k t_k^2 / 2, the pair's purity.  sigma~_k, the
    Hermitian part of sigma_k less (t_k/2) I, is [[al_k, be_k], [be_k*,
    -al_k]], and H follows in closed form from the six real numbers in
    sum_k al_k^2, sum_k |be_k|^2, sum_k al_k be_k and sum_k be_k^2:

        H = [[A,          r2 AB,      BB        ],
             [r2 AB*,     B - A,      -r2 AB    ],
             [BB*,        -r2 AB*,    A         ]]

    with A = sum al^2, B = sum |be|^2, AB = sum al be, BB = sum be^2 and
    r2 = sqrt(2).  The contraction leaves sigma_k Hermitian only up to
    rounding; with that residue dropped, a row whose blocks are multiples
    of I (every row of I/4) has nine exact zeros.
    """
    sig = _conditional_a(rho4, theta, phi)
    d0, d1 = sig[..., 0, 0].real, sig[..., 1, 1].real
    t = d0 + d1
    al = 0.5 * (d0 - d1)
    be = 0.5 * (sig[..., 0, 1] + sig[..., 1, 0].conj())
    a2 = (al * al).sum(axis=1)
    ab = (al * be).sum(axis=1)
    bb = (be * be).sum(axis=1)
    rows = np.empty((theta.size, 10))
    rows[:, 0] = rows[:, 2] = 2.0 * a2
    rows[:, 1] = 2.0 * ((be.real**2 + be.imag**2).sum(axis=1) - a2)
    rows[:, 3], rows[:, 6] = 4.0 * np.sqrt(2.0) * ab.real, 4.0 * np.sqrt(2.0) * ab.imag
    rows[:, 4], rows[:, 7] = 4.0 * bb.real, 4.0 * bb.imag
    rows[:, 5], rows[:, 8] = -rows[:, 3], -rows[:, 6]
    rows[:, 9] = 0.5 * (t * t).sum(axis=1)
    return rows


def _two_copy_cols(theta, phi):
    """Side-B coefficients of the two-sided purity: (10, Nb) real, the
    entries of |w><w| with w = S^T (v (x) v) for the outcome-+ ket v, then 1;
    and its first nine rows in float32, (9, Nb), for the screening pass."""
    v = _kets(theta, phi)[:, 0, :]
    w = np.einsum("bm,bn->bmn", v, v).reshape(theta.size, 4) @ _SYM
    ww = np.einsum("bi,bj->bij", w, w.conj())
    cols = np.ascontiguousarray(_trace_form(ww, np.ones(theta.size)).T)
    return cols, cols[:-1].astype(np.float32)


@functools.lru_cache(maxsize=8)
def _grid_tables(grid: GridSpec):
    """The base grid's angles and side-B coefficients, (theta, phi, cols,
    cols32) of _scan_angles and _two_copy_cols.  They depend on the grid
    alone, so each GridSpec builds them once; the arrays are read-only."""
    th, ph = _scan_angles(grid)
    tables = (th, ph, *_two_copy_cols(th, ph))
    for table in tables:
        table.flags.writeable = False
    return tables


def _rescore(x, y):
    """sum_i x[i] * y[i] with x and y broadcast against each other, summed
    in one fixed order, element by element: the same bits for a pair
    whatever else is scored with it."""
    out = x[0] * y[0]
    for i in range(1, len(x)):
        out += x[i] * y[i]
    return out


def _two_sided_max(rows, cols, cols32):
    """Max of tr(Pi(rho)^2) over the (a, b) product grid.

    rows are _two_copy_rows of the a-axes, cols and cols32 _two_copy_cols of
    the b-axes.  Returns (value, index_a, index_b).  The purity of every pair
    is one entry of rows @ cols, the two-copy form of the module docstring.

    The first pass only screens: it takes each a-row's largest score, to
    find bar and the rows that can reach it.  It scores the nine
    b-dependent coefficients in float32 and adds the row's constant in
    float64 afterwards.  The a-rows go through in blocks of _CHUNK = 16, so
    a block's scores (256 KB at the reference grid) stay in cache while
    their row maxima are taken.

    BLAS rounds a one-row block differently from a many-row one, so the
    products alone could settle an exact tie (I/4, Bell, Werner) on
    different pairs at different block sizes.  Instead, every pair is
    settled by its re-score (_rescore, one fixed summation order).  A
    pair's float64 product and its re-score differ by at most its row's
    slack, _ROUNDING times the row's absolute sum; a screen score and the
    re-score by at most its screen slack, (_ROUNDING + _SCREEN) times that
    sum (the float32 dot product, the rounding of its inputs and the float64
    addition of the constant, on top of the slack).  So the best re-score is
    at least bar = max(top - screen slack), and only the rows whose screen
    maximum lies within screen slack of bar can reach it.  The second pass
    recomputes the float64 products of those rows block by block and
    re-scores each block's candidate pairs, the products within slack of
    bar (the whole block when they are many: a pair outside stays below
    bar).  A running best is replaced only by a larger value, or an equal
    one earlier in enumeration order, so the first maximal pair wins, the
    same at any block size and whatever bar the screen found; memory stays
    at one block even when every pair ties to within rounding (near I/4).
    The running best is a re-score, so bar rises to it as the pass goes:
    a later pair that can beat or tie it is still a candidate.  This
    matters where the screen's slack exceeds the whole spread of values
    (the last refinement windows): every row is live there, and only the
    first block is re-scored whole.
    A row whose nine non-constant coefficients are zero equals its constant
    at every b, exactly, in either pass, so it needs no re-score and its
    first pair stands for it.

    The error bounds of the float32 pass are relative and do not hold for
    subnormal float32 values (coefficients below about 1e-38, as off I/4 by
    1e-20).  They need not: the constant is sum_k t_k^2 / 2 >= 1/4, since
    t_+ + t_- = 1, so the float64 slack of a row is at least 22 u / 4, about
    6e-16, far above any error gradual underflow can add to nine products.
    """
    n_a, n_b = rows.shape[0], cols.shape[1]
    exact = ~rows[:, :-1].any(axis=1)
    size = np.where(exact, 0.0, np.abs(rows).sum(axis=1))
    slack = _ROUNDING * size
    screen = (_ROUNDING + _SCREEN) * size
    rows32 = rows[:, :-1].astype(np.float32)
    buf32 = np.empty((min(_CHUNK, n_a), n_b), dtype=np.float32)
    top32 = np.empty(n_a, dtype=np.float32)
    for start in range(0, n_a, _CHUNK):
        end = min(start + _CHUNK, n_a)
        p = np.matmul(rows32[start:end], cols32, out=buf32[: end - start])
        p.max(axis=1, out=top32[start:end])
    top = top32 + rows[:, -1]
    del rows32, buf32  # the second pass holds one float64 block instead

    bar = float((top - screen).max())
    live = top >= bar - screen
    best = (-np.inf, 0, 0)  # (value, -index_a, -index_b), compared as a tuple
    fixed = np.flatnonzero(live & exact)
    if fixed.size:
        a = int(fixed[np.argmax(top[fixed])])
        best = (float(top[a]), -a, 0)
    loose = np.flatnonzero(live & ~exact)
    buf = np.empty((min(_CHUNK, loose.size), n_b))
    for start in range(0, loose.size, _CHUNK):
        sel = loose[start : start + _CHUNK]
        p = np.matmul(rows[sel], cols, out=buf[: sel.size])
        cand = np.flatnonzero(p >= (bar - slack[sel])[:, None])
        if cand.size > p.size // _DENSE:  # cheaper to re-score the whole block
            cand = np.arange(p.size)
            vals = _rescore(rows[sel].T[:, :, None], cols).ravel()
        elif cand.size:
            vals = _rescore(rows[sel[cand // n_b]].T, cols[:, cand % n_b])
        else:
            continue
        j = int(np.argmax(vals))
        r, b = divmod(int(cand[j]), n_b)
        best = max(best, (float(vals[j]), -int(sel[r]), -b))
        bar = max(bar, best[0])
    return best[0], -best[1], -best[2]


def _search_one_sided(rho4, grid: GridSpec, side: str):
    """Grid-plus-refinement maximization of the one-sided dephased purity."""
    th, ph = _grid_tables(grid)[:2]
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
    th, ph, cols, cols32 = _grid_tables(grid)
    val, ia, ib = _two_sided_max(_two_copy_rows(rho4, th, ph), cols, cols32)
    at, ap = float(th[ia]), float(ph[ia])
    bt, bp = float(th[ib]), float(ph[ib])
    history = [val]
    half_t = np.pi / grid.n_theta
    half_p = 2.0 * np.pi / grid.n_phi
    for _ in range(grid.refine_iters):
        lta, lpa = _local_angles(at, ap, half_t, half_p)
        ltb, lpb = _local_angles(bt, bp, half_t, half_p)
        v, ia, ib = _two_sided_max(
            _two_copy_rows(rho4, lta, lpa), *_two_copy_cols(ltb, lpb)
        )
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
