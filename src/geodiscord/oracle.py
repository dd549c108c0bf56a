"""Brute-force measurement searches.

Reference implementations that locate the optimal local projective
measurements by scanning axis grids on the Bloch sphere, refining around the
best cell, and reporting purity(rho) minus the best dephased purity.  They
share no algebra with the closed forms or the two-sided ascent in
``measures``; the only quantities evaluated are projector probabilities, so
these searches serve as an independent check of everything else.

Every search is one refinement driver (``_refine``): a base-grid scan, then
rounds of shrinking windows around the best (theta, phi) center of each
measured side.  One-sided searches measure side A; side B is reached by
swapping the qubits, rho4.transpose(1, 0, 3, 2), which hands the side-A
contraction the very operand a side-B one would use.

The searched objective is tr(Pi(rho)^2) where Pi dephases along the product
of the chosen axes.  Expanding Pi(rho) in the measurement eigenbasis turns
that purity into the sum of squared outcome probabilities, which is what the
scan evaluates (the equality against a literal apply_measurement round trip
is asserted in the test suite).

The two-sided scan covers every pair of the base grid, 4 097 x 4 097 axes
at the reference settings, and scores a pair as one output of one real
matrix product.  With sigma_k the side-A conditional blocks, t_k =
tr sigma_k and sigma~_k = sigma_k - (t_k/2) I = [[al_k, be_k], [be_k*,
-al_k]] their traceless parts, a side-B ket of Bloch vector n has

    p_k+ - t_k/2 = r_k . n,    r_k = (Re be_k, -Im be_k, al_k),

so the pair's purity, 2 sum_k (p_k+ - t_k/2)^2 + sum_k t_k^2 / 2, is the
quadratic form 2 n^T M n + c with M = sum_k r_k r_k^T and c = sum_k t_k^2
/ 2.  That is a seven-term real dot product: the six distinct entries of
M (off-diagonal ones doubled) and c from side A (``_side_a_rows``), the
six monomials n_i n_j and a 1 from side B (``_side_b_cols``).  The base
grid's projectors |u_k><u_k| and its side-B table depend on the grid
alone, so they are built once per ``GridSpec`` (``_grid_tables``), and
the conditional blocks of a base search are one matrix product of the
projectors with rho.

The same M gives each a-axis's best purity over the whole b-sphere
exactly, c + 2 lmax(M), and lmax(M) is that of the 2x2 Gram matrix of
r_+, r_-.  No grid scores above it, so a row whose bound stays below a
pair already found cannot hold the answer and is skipped.

The scan is one double-precision pass over blocks of rows, the blocks
with the highest bound first; it stops at the first block whose bound
stays below the best pair found, and re-scores in one fixed order the
pairs that the product's rounding bound cannot rule out
(``_two_sided_max``).  So the answer is the one a double-precision scan
of every pair gives, to the bit.

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
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix4, MeasurementAxis, apply_measurement, purity
from .measures import MeasureResult, Method, _finalize

# a-axis rows per block in the two-sided scan: a block's scores, one row
# per a-axis, 16 x 4 097 floats (512 KB) at the reference grid, stay in
# cache.  A base scan that visits every block of Bell rows (as Bell and
# Werner states need), one thread: 22.4 ms at 16 rows, 29.1 ms at 8,
# 20.5 ms at 24, 24.0 ms at 32, 27.6 ms at 64; a base scan of a Ginibre
# state visits one block: 0.42 ms at 16 rows, 0.41 at 8, 0.49 at 24
_CHUNK = 16
_LOCAL_POINTS = 11  # per-angle resolution of refinement windows
# the Bloch-vector component pairs (i, j) of the six distinct entries of
# a symmetric 3x3 matrix, in the column order of the two-sided scan
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# a product entry and its re-score each lie within gamma_7 < 7.1 u
# (u = 2^-53) times the row's absolute sum of the exact seven-term dot
# product, since no column entry exceeds 1; so the two differ by at most
# 14.2 u times that sum, under the 22 u allowed
_ROUNDING = 22 * 2.0**-53
# the scan re-scores a block whole, not pair by pair, once more than
# 1/_DENSE of its pairs are candidates: at the reference grid a whole
# 16-row block takes 0.77 ms, the same as gathering and re-scoring 7% of
# its pairs (one thread)
_DENSE = 16
# a row's ceiling, bound + slack + _MARGIN (size + c), is above every
# re-score of the row; the margin covers the rounding of the bound, the
# rows and the columns, O(u) (size + c) (``_two_sided_max``)
_MARGIN = 2.0**-40


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


def _projectors(theta, phi):
    """|u_k><u_k| per axis and outcome, laid out as the weights of
    <u_k| X |u_k> = sum_ij conj(u_k[i]) u_k[j] X_ij: (N, outcome, i, j)."""
    u = _kets(theta, phi)
    return u.conj()[..., :, None] * u[..., None, :]


def _conditional_a(rho4, proj):
    """sigma_k(a) = <u_k| rho |u_k> over side A, proj = _projectors of the
    a-axes: (Na, 2, 2, 2) complex, one matrix product."""
    rho = rho4.transpose(0, 2, 1, 3).reshape(4, 4)  # (i j, m n)
    return (proj.reshape(-1, 4) @ rho).reshape(proj.shape)


def _one_sided_values(rho4, proj):
    """tr(Pi(rho)^2) for side-A measurements, every axis of proj at once."""
    sig = _conditional_a(rho4, proj)
    return (sig.real**2 + sig.imag**2).sum(axis=(1, 2, 3))


def _side_a_rows(rho4, proj):
    """Side-A coefficients of the two-sided purity: (Na, 7) real, from
    _projectors of the a-axes.

    sigma~_k, the Hermitian part of sigma_k less (t_k/2) I, is [[al_k,
    be_k], [be_k*, -al_k]], so a side-B ket v of Bloch vector n has p_k+
    - t_k/2 = <v|sigma~_k|v> = r_k . n with r_k = (Re be_k, -Im be_k, al_k),
    and the pair's purity is 2 n^T M n + c with M = sum_k r_k r_k^T and c =
    sum_k t_k^2 / 2.  Row a holds 2 M_xx, 2 M_yy, 2 M_zz, 4 M_xy, 4 M_xz,
    4 M_yz and c: a row times a column of _side_b_cols is the pair's
    purity.  The contraction leaves sigma_k Hermitian only up to rounding;
    with that residue dropped, a row whose blocks are multiples of I
    (every row of I/4) has six exact zeros.

    Also returns each row's best purity over the whole b-sphere, (Na,)
    real: c + 2 lmax(M), and lmax(M) = lmax(G), G the 2x2 Gram matrix G_kl
    = r_k . r_l (M = R R^T and G = R^T R with R = [r_+ r_-]).  lmax comes
    from G's own entries, (g00 + g11)/2 + hypot((g00 - g11)/2, g01), which
    does not cancel; no b-grid scores higher (``_two_sided_max``).
    """
    sig = _conditional_a(rho4, proj).transpose(2, 3, 1, 0)  # (m, n, k, a)
    d0, d1 = sig[0, 0].real, sig[1, 1].real
    t = d0 + d1
    be = 0.5 * (sig[0, 1] + sig[1, 0].conj())
    r = np.stack([be.real, -be.imag, 0.5 * (d0 - d1)])  # (i, k, a)
    rows = np.empty((proj.shape[0], 7))
    for col, (i, j) in enumerate(_PAIRS):
        rows[:, col] = (2.0 if i == j else 4.0) * (r[i, 0] * r[j, 0] + r[i, 1] * r[j, 1])
    rows[:, 6] = 0.5 * (t[0] * t[0] + t[1] * t[1])
    g = (r * r).sum(axis=0)  # g00 and g11
    g01 = (r[:, 0] * r[:, 1]).sum(axis=0)
    lmax = 0.5 * (g[0] + g[1]) + np.hypot(0.5 * (g[0] - g[1]), g01)
    return rows, rows[:, 6] + 2.0 * lmax


def _side_b_cols(theta, phi):
    """Side-B coefficients of the two-sided purity: (7, Nb) real, the
    monomials n_x^2, n_y^2, n_z^2, n_x n_y, n_x n_z, n_y n_z of the axis's
    Bloch vector n, then 1."""
    s = np.sin(theta)
    n = (s * np.cos(phi), s * np.sin(phi), np.cos(theta))
    cols = np.empty((7, theta.size))
    for col, (i, j) in enumerate(_PAIRS):
        cols[col] = n[i] * n[j]
    cols[6] = 1.0
    return cols


@functools.lru_cache(maxsize=8)
def _grid_tables(grid: GridSpec):
    """The base grid's angles, projectors and side-B coefficients, (theta,
    phi, proj, cols) of _scan_angles, _projectors and _side_b_cols.
    They depend on the grid alone, so each GridSpec builds them once (proj
    is 4 097 x 8 complex numbers, 0.5 MB, and cols 4 097 x 7 reals,
    0.2 MB, at the reference grid); the arrays are read-only."""
    th, ph = _scan_angles(grid)
    tables = (th, ph, _projectors(th, ph), _side_b_cols(th, ph))
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


def _two_sided_max(rows, bound, cols):
    """Max of tr(Pi(rho)^2) over the (a, b) product grid.

    rows and bound are _side_a_rows of the a-axes, cols _side_b_cols
    of the b-axes.  Returns (value, index_a, index_b).  The purity of
    every pair is one entry of rows @ cols, the Bloch-vector form of the
    module docstring.

    BLAS rounds a one-row block differently from a many-row one, so the
    products alone could settle an exact tie (I/4, Bell, Werner) on
    different pairs at different block sizes.  Instead, every pair is
    settled by its re-score (_rescore, one fixed summation order): the
    answer is the largest re-score B, at its first pair (a*, b*) in
    enumeration order.  A pair's product p and its re-score differ by at
    most its row's slack, _ROUNDING times the row's absolute sum, size.  A
    row whose six b-dependent coefficients are zero (as on I/4) equals
    its constant c at every b, exactly, so it needs no product, and its
    pair at b = 0 stands for it; the best of these rows seeds the running
    best and bar.

    bound is each row's best purity over the whole b-sphere, so every
    re-score of a row is at most its ceiling bound + slack + _MARGIN (size
    + c).  The margin covers the rounding between the computed bound and
    the re-scores of the computed rows and columns: given the computed r_k
    and t, the rows' entries are off by a few u times tr M = sum_k |r_k|^2
    <= size / 2, the columns' by a few u (their entries are at most 1), c
    and lmax by a few u times c and tr M, and the computed Bloch vector n
    by a few u in length.  Together that is under 100 u (size + c), and
    _MARGIN is 2^-40, about 8 000 u; rows near the best differ by about
    1e-5, so the loose margin costs no pruning.

    The other rows go through in blocks of _CHUNK, largest ceiling first,
    until a block's ceiling is below bar.  Per block, one matrix product
    into a reused buffer; bar rises to max(p - slack); the pairs with p >=
    bar - slack are re-scored (the whole block when they are many); the
    running best (value, -a, -b) takes the largest, and bar rises to it.
    (i) Each p - slack and each re-score is at most B, so bar <= B.
    (ii) The block of a* has ceiling >= B >= bar, and bar only rises, so
        the scan reaches it; there p(a*, b*) >= B - slack >= bar - slack,
        so (a*, b*) is re-scored (an exact row a* is the seed).
    (iii) So the running best ends at (B, -a*, -b*), whatever the block
        order, _CHUNK or the rounding of the products: the answer of a
        re-score of every pair.
    Memory stays at one block of products even when every pair ties to
    within rounding (near I/4).
    """
    n_b = cols.shape[1]
    exact = ~rows[:, :-1].any(axis=1)
    size = np.where(exact, 0.0, np.abs(rows).sum(axis=1))
    slack = _ROUNDING * size
    best = (-np.inf, 0, 0)  # (value, -index_a, -index_b), compared as a tuple
    fixed = np.flatnonzero(exact)
    if fixed.size:
        a = int(fixed[np.argmax(rows[fixed, -1])])
        best = (float(rows[a, -1]), -a, 0)
    bar = best[0]
    loose = np.flatnonzero(~exact)
    starts = np.arange(0, loose.size, _CHUNK)
    ceiling = bound + slack + _MARGIN * (size + rows[:, -1])
    block_ceiling = np.maximum.reduceat(ceiling[loose], starts)
    buf = np.empty((min(_CHUNK, loose.size), n_b))
    for i in np.argsort(-block_ceiling, kind="stable"):
        if block_ceiling[i] < bar:
            break
        sel = loose[starts[i] : starts[i] + _CHUNK]
        p = np.matmul(rows[sel], cols, out=buf[: sel.size])
        bar = max(bar, float((p.max(axis=1) - slack[sel]).max()))
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


def _refine(grid: GridSpec, base, window):
    """Grid-plus-refinement maximization, one (theta, phi) center per
    measured side.

    base(tables) scores the base grid, tables = _grid_tables(grid), and
    window(*windows) scores one _local_angles window per side; each returns
    (best value, one index per side).  Each round re-scans windows around
    the current centers, moves the centers only on a strict gain, and
    shrinks the windows by refine_shrink.  Returns (best value, centers,
    history), history the running best, base grid first.
    """
    tables = _grid_tables(grid)
    th, ph = tables[:2]
    val, idx = base(tables)
    centers = [(float(th[i]), float(ph[i])) for i in idx]
    history = [val]
    half_t = np.pi / grid.n_theta
    half_p = 2.0 * np.pi / grid.n_phi
    for _ in range(grid.refine_iters):
        windows = [_local_angles(t, p, half_t, half_p) for t, p in centers]
        v, idx = window(*windows)
        if v > val:
            val = v
            centers = [(float(lt[i]), float(lp[i])) for (lt, lp), i in zip(windows, idx)]
        history.append(val)
        half_t *= grid.refine_shrink
        half_p *= grid.refine_shrink
    return val, centers, history


def _search_one_sided(rho4, grid: GridSpec):
    """_refine of the side-A dephased purity; side B is the side-A search of
    rho4.transpose(1, 0, 3, 2), the state with its qubits swapped."""

    def best(proj):
        vals = _one_sided_values(rho4, proj)
        i = int(np.argmax(vals))
        return float(vals[i]), (i,)

    return _refine(grid, lambda tables: best(tables[2]), lambda w: best(_projectors(*w)))


def _search_two_sided(rho4, grid: GridSpec):
    """_refine of the two-sided dephased purity over (a, b) pairs."""

    def best(proj, cols):
        val, ia, ib = _two_sided_max(*_side_a_rows(rho4, proj), cols)
        return val, (ia, ib)

    return _refine(
        grid,
        lambda tables: best(*tables[2:]),
        lambda wa, wb: best(_projectors(*wa), _side_b_cols(*wb)),
    )


def _result(state: DensityMatrix4, method: Method, best: float, centers, history):
    """MeasureResult of purity(state) - best, one (theta, phi) center per
    side (None for an unmeasured side) as its maximizer."""
    value, clamped = _finalize(purity(state) - best)
    axes = tuple(None if c is None else MeasurementAxis.from_angles(*c) for c in centers)
    return MeasureResult(value, method, axes, clamped, tuple(history))


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
    val, centers, history = _search_two_sided(state.matrix.reshape(2, 2, 2, 2), grid)
    return _result(state, Method.BRUTE_FORCE, val, centers, history)


def gd_bruteforce(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """One-sided geometric discord by exhaustive side-A measurement search.

    Same scheme as :func:`ggqd_bruteforce` with a single sphere.
    """
    val, (a,), history = _search_one_sided(state.matrix.reshape(2, 2, 2, 2), grid)
    return _result(state, Method.BRUTE_FORCE, val, (a, None), history)


def tqc_sequential(state: DensityMatrix4, grid: GridSpec = REFERENCE_GRID) -> MeasureResult:
    """Greedy two-step upper bound on the total quantum correlations.

    Step 1 finds the side-A axis a* that best preserves purity, step 2
    dephases along a* (a literal apply_measurement) and finds the side-B
    axis b* that best preserves the purity of that intermediate state, as
    the side-A search of the intermediate state with its qubits swapped.
    The two purity losses telescope, so the value returned is

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
    _, (a,), _ = _search_one_sided(state.matrix.reshape(2, 2, 2, 2), grid)
    intermediate = apply_measurement(state, a=MeasurementAxis.from_angles(*a))
    swapped = intermediate.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2)
    val, (b,), history = _search_one_sided(swapped, grid)
    return _result(state, Method.TQC_SEQUENTIAL, val, (a, b), history)
