"""Brute-force search behavior: exactness of the scanned objective,
refinement monotonicity, determinism, and the sequential construction."""

import ast
from pathlib import Path

import numpy as np
import pytest

from geodiscord import (
    GridSpec,
    MeasurementAxis,
    Method,
    XStateParams,
    apply_measurement,
    example2,
    gd_bruteforce,
    gd_dakic,
    gd_x,
    ggqd_bruteforce,
    ggqd_general,
    ggqd_x,
    maximally_mixed,
    normalize_x_phases,
    purity,
    random_density,
    random_x_params,
    tqc_sequential,
    validate_density,
    x_state,
)
import geodiscord
from geodiscord import core, measures, oracle
from geodiscord.oracle import (
    REFERENCE_GRID,
    _best_b,
    _frame,
    _grid_tables,
    _one_sided,
    _pair_at,
    _row_map,
    _scan_angles,
    _terms,
    _two_sided,
)


def _products(b, x, center=None):
    """P = B[:, 1:] n of side-A axes as _refine forms them, (4, N); b =
    _row_map(rho4), and x holds unit axes n along its columns or, with
    center, window coordinates u in that center's frame, n = F u."""
    return (b[:, 1:] if center is None else b[:, 1:] @ _frame(center)) @ x


def _scores(b, x, center=None):
    """Each side-A axis's one-sided and two-sided score from the oracle's
    scorers, the axes given as to _products."""
    p = _products(b, x, center)
    return _one_sided(b, p), _two_sided(b, p)


BELL = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
COARSE = GridSpec(n_theta=16, n_phi=32, refine_iters=2)
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _unit(theta, phi):
    """Unit Bloch vectors of axes given by their angles, (..., 3)."""
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _kets(theta, phi):
    """Orthonormal eigenket pair of n.sigma per axis, from half angles:
    (N, outcome, component)."""
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    u = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    u[..., 0, 0] = c
    u[..., 0, 1] = s * e
    u[..., 1, 0] = s
    u[..., 1, 1] = -c * e
    return u


def _projectors(theta, phi):
    """|u_k><u_k| per axis and outcome from _kets, laid out as the weights of
    <u_k| X |u_k> = sum_ij conj(u_k[i]) u_k[j] X_ij: (N, outcome, i, j)."""
    u = _kets(theta, phi)
    return u.conj()[..., :, None] * u[..., None, :]


def _conditional_a(rho4, proj):
    """sigma_k(a) = <u_k| rho |u_k> over side A, proj = _projectors of the
    a-axes: (Na, 2, 2, 2) complex, one matrix product."""
    rho = rho4.transpose(0, 2, 1, 3).reshape(4, 4)  # (i j, m n)
    return (proj.reshape(-1, 4) @ rho).reshape(proj.shape)


def _block_rows(sig):
    """(t_k, r_k) of conditional blocks sig, (N, k, m, n), as (4, 2, N):
    t_k their traces, r_k the Bloch vectors of their Hermitian parts'
    traceless parts, be_k from the blocks' transposed entries."""
    sig = sig.transpose(2, 3, 1, 0)  # (m, n, k, a)
    d0, d1 = sig[0, 0].real, sig[1, 1].real
    be = 0.5 * (sig[0, 1] + sig[1, 0].conj())
    return np.stack([d0 + d1, be.real, -be.imag, 0.5 * (d0 - d1)])


def _affine_rows(b, x):
    """The rows b (1, +/-x) of both outcomes, (4, 2, N), by their definition
    as one 4x4 product each; x (3, N)."""
    return np.stack([b @ np.vstack([np.ones(x.shape[1]), s * x]) for s in (1.0, -1.0)], axis=1)


def _composed(b, center):
    """B composed with a window's frame, (4, 4): (1, u) -> B (1, F u), F
    the center's rotation, so its rows at window coordinates u are those of
    B at the window's points."""
    f = np.eye(4)
    f[1:, 1:] = _frame(center)
    return b @ f


def _window_points(center, u):
    """Unit vectors of a window around center, (N, 3), from its
    coordinates u, (3, N), in the frame (center, e_theta, e_phi)."""
    return (_frame(center) @ u).T


COARSE_TH, COARSE_PH = _scan_angles(COARSE)  # 257 axes
COARSE_PROJ = _projectors(COARSE_TH, COARSE_PH)
COARSE_AXES = _unit(COARSE_TH, COARSE_PH).T


def _werner(weight):
    bell = x_state(BELL).matrix
    return validate_density(weight * bell + (1.0 - weight) * np.eye(4) / 4)


def _pure(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _qubit(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _angles(n):
    """(theta, phi) of the axes along the rows of n, (N, 3), any length."""
    return np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2]), np.arctan2(n[:, 1], n[:, 0])


def _outcome_purity(sig, v):
    """tr(Pi_ab(rho)^2) by its definition, without Bloch vectors: the sum
    over outcomes (k, l) of p_kl^2, p_kl = <v_l| sigma_k |v_l>, for side-A
    conditional blocks sig (N, k, m, n) and side-B kets v (N, l, m), one
    pair per row."""
    p = np.einsum("alm,akmn,aln->akl", v.conj(), sig, v).real
    return (p * p).sum(axis=(1, 2))


def _literal_pairs(rho4, th_a, ph_a, th_b, ph_b):
    """The sum of squared outcome probabilities of every (a, b) pair of two
    axis sets, (Na, Nb): p_kl = <v_l| sigma_k |v_l> = Re sum_mn sigma_k,mn
    conj(v_l,m) v_l,n, as one real eight-column matrix product."""
    sig = _conditional_a(rho4, _projectors(np.asarray(th_a), np.asarray(ph_a))).reshape(-1, 4)
    v = _kets(np.asarray(th_b), np.asarray(ph_b))
    w = (v.conj()[..., :, None] * v[..., None, :]).reshape(-1, 4)
    p = np.concatenate([sig.real, -sig.imag], axis=1) @ np.concatenate([w.real, w.imag], axis=1).T
    p = p.reshape(-1, 2, v.shape[0], 2)
    return (p * p).sum(axis=(1, 3))


def _pauli_rows(rho4, th, ph):
    """r_k and two-sided scores by the literal construction: r_k,i = tr(sigma_k
    sigma_i) / 2 from Pauli traces of the conditional blocks, then c =
    sum_k t_k^2 / 2 plus twice the top eigenvalue of M = sum_k r_k r_k^T."""
    sig = _conditional_a(rho4, _projectors(th, ph))
    t = np.einsum("akmm->ak", sig).real
    r = 0.5 * np.einsum("akmn,inm->aki", sig, PAULI).real
    m = np.einsum("aki,akj->aij", r, r)
    return r.transpose(2, 1, 0), 0.5 * (t * t).sum(axis=1) + 2.0 * np.linalg.eigvalsh(m)[:, -1]


def _elementwise_scores(rho4, proj):
    """The scorers as elementwise expressions of the conditional blocks:
    one-sided dephased purities as squared real and imaginary parts, and
    each axis's r_k, (3, 2, N), and b-sphere maximum from the blocks'
    transposed entries, be_k taken from the Hermitian part."""
    sig = _conditional_a(rho4, proj)
    one = (sig.real**2 + sig.imag**2).sum(axis=(1, 2, 3))
    rows = _block_rows(sig)
    t, r = rows[0], rows[1:]  # r: (i, k, a)
    g = (r * r).sum(axis=0)
    g01 = (r[:, 0] * r[:, 1]).sum(axis=0)
    lmax = 0.5 * (g[0] + g[1]) + np.hypot(0.5 * (g[0] - g[1]), g01)
    return one, r, 0.5 * (t[0] * t[0] + t[1] * t[1]) + 2.0 * lmax


def _fused_family():
    """Bell, Werner and Ginibre states, then degenerate landscapes: |00>,
    Werner states at 0.2 and 1.0 (ties along a curve), pure, rank-2 and
    product states, and X states that keep their complex phases."""
    rng = np.random.default_rng(49)
    states = [x_state(BELL), _werner(0.6)]
    states += [random_density(rng) for _ in range(10)]
    states += [
        validate_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)),
        _werner(0.2),
        _werner(1.0),
    ]
    states += [validate_density(_pure(rng)) for _ in range(3)]
    states += [validate_density(0.3 * _pure(rng) + 0.7 * _pure(rng)) for _ in range(3)]
    states += [validate_density(np.kron(_qubit(rng), _qubit(rng))) for _ in range(3)]
    states += [x_state(random_x_params(rng)) for _ in range(3)]
    return states


def _near_mixed_family():
    """States off I/4 by 1e-9 (Werner and X) and I/4 in a rotated basis."""
    rng = np.random.default_rng(50)
    near_x = np.eye(4) / 4 + 1e-9 * np.diag([1.0, -1.0, 0.0, 0.0])
    near_x[0, 3] = near_x[3, 0] = 1e-9
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return [
        _werner(1e-9),
        validate_density(near_x.astype(complex)),
        validate_density(u @ (np.eye(4) / 4) @ u.conj().T),
    ]


def _product_like(eps):
    """(I + x.sigma (x) I + eps H) / 4 with |x| = 0.5 and H a traceless
    Hermitian of entries about 1: correlations and a side-B Bloch vector
    of about eps."""
    rng = np.random.default_rng(51)
    x = rng.normal(size=3)
    x *= 0.5 / np.linalg.norm(x)
    local = np.array([[x[2], x[0] - 1j * x[1]], [x[0] + 1j * x[1], -x[2]]])
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h += h.conj().T
    h -= np.trace(h) / 4 * np.eye(4)
    return (np.eye(4) + np.kron(local, np.eye(2)) + eps * h) / 4


def _rotated_werner(weight, rng):
    """A Werner state under a random local unitary: its maximum ties along
    a curve that lies off the grid, so every row's ceiling reaches bar."""
    u = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in "ab"]
    uu = np.kron(*u)
    return validate_density(uu @ _werner(weight).matrix @ uu.conj().T)


def _bound_family():
    """The fused-scan, near-I/4 and product-like states, a rotated 0.6
    Werner state, then 50 random ones: pure, rank-2, product, Werner and X
    states with their phases."""
    rng = np.random.default_rng(53)
    states = _fused_family() + _near_mixed_family()
    states.append(validate_density(_product_like(1e-20)))
    states.append(_rotated_werner(0.6, np.random.default_rng(56)))
    states += [validate_density(_pure(rng)) for _ in range(10)]
    states += [validate_density(0.3 * _pure(rng) + 0.7 * _pure(rng)) for _ in range(10)]
    states += [validate_density(np.kron(_qubit(rng), _qubit(rng))) for _ in range(10)]
    states += [_werner(w) for w in rng.uniform(0.0, 1.0, size=10)]
    states += [x_state(random_x_params(rng)) for _ in range(10)]
    return states


def _sampled_row_max(rho4, th_a, ph_a, rng):
    """Largest purity of one side-A axis over unit b, without the bound's
    algebra: the best of 20 000 random axes by _literal_pairs, then rounds
    of shrinking random steps around the best so far."""
    b = rng.normal(size=(20_000, 3))
    vals = _literal_pairs(rho4, [th_a], [ph_a], *_angles(b))[0]
    j = int(np.argmax(vals))
    best_val, best_b, step = float(vals[j]), b[j] / np.linalg.norm(b[j]), 0.1
    for _ in range(25):
        b = best_b + step * rng.normal(size=(200, 3))
        vals = _literal_pairs(rho4, [th_a], [ph_a], *_angles(b))[0]
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_b = float(vals[j]), b[j] / np.linalg.norm(b[j])
        step *= 0.5
    return best_val


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert (g.n_theta, g.n_phi, g.refine_iters, g.refine_shrink) == (64, 128, 6, 0.25)
        assert GridSpec(n_theta=np.int64(16), n_phi=np.int32(32)).n_phi == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_theta": 7},
            {"n_phi": 15},
            {"refine_iters": -1},
            {"refine_shrink": 0.05},
            {"refine_shrink": 0.95},
            {"n_theta": 16.0},
            {"n_phi": 33.5},
            {"refine_iters": 1.5},
            {"refine_shrink": "0.5"},
            {"refine_shrink": None},
            {"refine_shrink": [0.5]},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            GridSpec(**kwargs)

    def test_half_sphere_for_even_azimuth(self):
        th, _ = _scan_angles(GridSpec(n_theta=16, n_phi=32))
        assert th.max() == pytest.approx(np.pi / 2)

    def test_full_sphere_for_odd_azimuth(self):
        # antipodes are off-grid for odd n_phi, so both hemispheres are kept
        th, _ = _scan_angles(GridSpec(n_theta=16, n_phi=17))
        assert th.max() == pytest.approx(np.pi)

    @pytest.mark.parametrize("n_phi", [32, 17])
    def test_scan_order_matches_level_loop(self, n_phi):
        # ties resolve to the first axis scanned, so the order is part of
        # the result: the north pole, each polar level's azimuths in turn,
        # and the south pole for odd n_phi, as a loop over levels lists them
        grid = GridSpec(n_theta=16, n_phi=n_phi)
        top = grid.n_theta - 1 if n_phi % 2 else grid.n_theta // 2
        thetas, phis = [0.0], [0.0]
        for i in range(1, top + 1):
            thetas.extend([i * np.pi / grid.n_theta] * grid.n_phi)
            phis.extend(2.0 * np.pi * np.arange(grid.n_phi) / grid.n_phi)
        if n_phi % 2:
            thetas.append(np.pi)
            phis.append(0.0)
        th, ph = _scan_angles(grid)
        assert th.size == ph.size == len(thetas)
        assert np.array_equal(th, thetas) and np.array_equal(ph, phis)

    @pytest.mark.parametrize("theta", [0.0, 1e-3, 0.3, np.pi / 2, np.pi - 1e-3, np.pi])
    def test_windows_are_tangent_squares(self, theta):
        # a window covers the same patch of sphere wherever its center lies:
        # at a pole too, where a (theta, phi) box would be a thin bowtie
        phi, half = 4.33, np.pi / 64  # the reference grid's first half-width
        n = MeasurementAxis.from_angles(theta, phi).n
        pts = _window_points(n, _grid_tables(REFERENCE_GRID)[1][0])
        dist = np.arccos(np.clip(pts @ n, -1.0, 1.0))
        assert pts.shape == (oracle._LOCAL_POINTS**2, 3)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 4e-16
        assert dist.min() <= 1e-7
        assert dist.max() == pytest.approx(np.arctan(half * np.sqrt(2.0)), rel=1e-9)
        # the edge midpoints sit at distance arctan(half) in four tangent
        # directions 90 degrees apart: -e_theta, +e_theta, -e_phi, +e_phi,
        # with phi taken as 0 where it is undefined (sin(theta) = 0)
        side, mid = oracle._LOCAL_POINTS, oracle._LOCAL_POINTS // 2
        edges = pts.reshape(side, side, 3)[[0, -1, mid, mid], [mid, mid, 0, -1]]
        tangent = edges - (edges @ n)[:, None] * n
        assert np.allclose(np.linalg.norm(tangent, axis=1), np.sin(np.arctan(half)), rtol=1e-9)
        assert np.allclose(tangent[0] + tangent[1], 0.0, atol=1e-12)
        assert abs(tangent[0] @ tangent[2]) <= 1e-12
        if np.hypot(n[0], n[1]) == 0.0:
            phi = 0.0
        e_theta = [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)]
        e_phi = [-np.sin(phi), np.cos(phi), 0.0]
        unit = tangent / np.linalg.norm(tangent, axis=1, keepdims=True)
        assert np.allclose(unit[[1, 3]], [e_theta, e_phi], atol=1e-12)
        assert np.array_equal(pts[side * side // 2], n)

    @pytest.mark.parametrize(
        "grid",
        [REFERENCE_GRID, COARSE, GridSpec(n_theta=8, n_phi=128, refine_iters=4, refine_shrink=0.5)],
    )
    def test_window_table_follows_the_schedule(self, grid):
        # every round's coordinates are unit vectors with the center,
        # exactly (1, 0, 0), in the middle; the edge midpoint along +e_theta
        # is (1, h, 0) / sqrt(1 + h^2), and h starts at the larger of the
        # base grid's polar and azimuth steps and shrinks by refine_shrink
        windows = _grid_tables(grid)[1]
        side, mid = oracle._LOCAL_POINTS, oracle._LOCAL_POINTS // 2
        assert windows.shape == (grid.refine_iters, 3, side * side)
        half = max(np.pi / grid.n_theta, 2.0 * np.pi / grid.n_phi)
        for u in windows:
            assert np.abs(np.linalg.norm(u, axis=0) - 1.0).max() <= 4e-16
            assert np.array_equal(u[:, side * side // 2], [1.0, 0.0, 0.0])
            edge = u[:, (side - 1) * side + mid]
            assert edge[2] == 0.0
            assert edge[1] / edge[0] == pytest.approx(half, rel=1e-14)
            half *= grid.refine_shrink


class TestObjectiveIdentity:
    def test_two_sided_matches_literal_measurement(self):
        # an a-axis's score is exactly tr(Pi_ab(rho)^2) at the b* it implies
        rng = np.random.default_rng(41)
        for _ in range(20):
            state = random_density(rng)
            ta, pa = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            th, ph = np.array([ta]), np.array([pa])
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            bound = _scores(_row_map(rho4), _unit(th, ph).T)[1]
            r = _elementwise_scores(rho4, _projectors(th, ph))[1]
            literal = purity(
                apply_measurement(
                    state,
                    a=MeasurementAxis.from_angles(ta, pa),
                    b=MeasurementAxis(_best_b(*r[:, :, 0].T)),
                )
            )
            assert bound[0] == pytest.approx(literal, abs=1e-12)

    def test_one_sided_matches_literal_measurement(self):
        # swapping the qubits turns the side-A scorer into a side-B one
        rng = np.random.default_rng(42)
        for side in ("a", "b"):
            for _ in range(10):
                state = random_density(rng)
                ta, pa = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
                rho4 = state.matrix.reshape(2, 2, 2, 2)
                if side == "b":
                    rho4 = rho4.transpose(1, 0, 3, 2)
                vals = _scores(_row_map(rho4), _unit(np.array([ta]), np.array([pa])).T)[0]
                axis = MeasurementAxis.from_angles(ta, pa)
                kwargs = {"a": axis} if side == "a" else {"b": axis}
                literal = purity(apply_measurement(state, **kwargs))
                assert vals[0] == pytest.approx(literal, abs=1e-12)


class TestTwoSidedScan:
    def test_fused_scan_matches_unfused_objective(self):
        # the scan fuses the b side into each a-axis's score: the purity of
        # the pair (a, b*), built from outcome probabilities alone, is that
        # score, on degenerate landscapes and near I/4 too; the one-sided
        # score exceeds it by 2 lmin(G) >= 0, GD <= GGQD axis by axis
        for state in _fused_family() + _near_mixed_family():
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            one, bound = _scores(_row_map(rho4), COARSE_AXES)
            r = _elementwise_scores(rho4, COARSE_PROJ)[1]
            b = np.array([_best_b(*r[:, :, i].T) for i in range(COARSE_TH.size)])
            at_best = _outcome_purity(_conditional_a(rho4, COARSE_PROJ), _kets(*_angles(b)))
            assert np.abs(at_best - bound).max() <= 1e-15
            lmin = np.linalg.eigvalsh(np.einsum("ika,ila->akl", r, r))[:, 0]
            assert np.abs(one - bound - 2.0 * lmin).max() <= 1e-15
            assert np.all(one - bound >= -1e-15)

    def test_row_bound_holds(self):
        # no b of a literal b-grid scan of the same conditional blocks scores
        # above an a-axis's b-sphere maximum; on X states some axes reach it
        # on the grid, so only rounding separates the two
        for state in _bound_family():
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            bound = _scores(_row_map(rho4), COARSE_AXES)[1]
            grid = _literal_pairs(rho4, COARSE_TH, COARSE_PH, COARSE_TH, COARSE_PH)
            assert np.all(grid.max(axis=1) <= bound + 1e-15)

    def test_row_bound_is_tight(self):
        # the bound is the best purity over the whole b-sphere, not a
        # relaxation: random search over b comes within 1e-6 of it
        rng = np.random.default_rng(54)
        states = _bound_family()
        for k in rng.choice(len(states), size=20, replace=False):
            th = rng.uniform(0.0, np.pi, size=2)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=2)
            rho4 = states[k].matrix.reshape(2, 2, 2, 2)
            bound = _scores(_row_map(rho4), _unit(th, ph).T)[1]
            for ta, pa, top in zip(th, ph, bound):
                assert top - _sampled_row_max(rho4, ta, pa, rng) <= 1e-6

    def test_row_map_matches_einsum(self):
        # the rows B (1, +/-n) are the traces and traceless Bloch vectors of
        # the conditional blocks of the three-operand contraction over
        # either side, on random axes, both poles and the equator, and one
        # matrix product of the ket-built projectors gives those blocks too
        rng = np.random.default_rng(55)
        path = ["einsum_path", (0, 2), (0, 1)]
        for k in range(50):
            rho4 = random_density(rng).matrix.reshape(2, 2, 2, 2)
            th = rng.uniform(0.0, np.pi, size=64)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=64)
            th[:3], ph[:3] = (0.0, np.pi, np.pi / 2), (0.0, 0.0, 2.0 * np.pi * k / 50)
            n = _unit(th, ph)
            u = _kets(th, ph)
            ref_a = np.einsum("aki,imjn,akj->akmn", u.conj(), rho4, u, optimize=path)
            ref_b = np.einsum("bkm,imjn,bkn->bkij", u.conj(), rho4, u, optimize=path)
            proj = _projectors(th, ph)
            assert np.abs(_conditional_a(rho4, proj) - ref_a).max() <= 4e-16
            swapped = rho4.transpose(1, 0, 3, 2)
            assert np.abs(_conditional_a(swapped, proj) - ref_b).max() <= 4e-16
            for side, ref in ((rho4, ref_a), (swapped, ref_b)):
                rows = _affine_rows(_row_map(side), n.T)
                assert np.abs(rows - _block_rows(ref)).max() <= 1e-15

    @pytest.mark.parametrize("kind", ["ginibre", "x", "bell", "werner", "mixed"])
    def test_row_map_rows_match_literal_blocks(self, kind):
        # the rows B (1, +/-n) equal the ket-built conditional blocks' on the
        # coarse grid, on a first-round and a last-round refinement window (B
        # composed with its frame) and at both poles; so do the closed forms
        # taken from P = B[:, 1:] n alone: b0^2 + (beta.n)^2 is c = sum_k
        # t_k^2 / 2, and k +/- 2 l + s and k - s are the Gram entries G_00,
        # G_11 and G_01 of the blocks' r_k.  For I/4, B is exactly [[1/2, 0,
        # 0, 0], 0, 0, 0]: t = 1/2, r = 0 and k = l = s = 0 exactly, and
        # every axis scores exactly 1/4
        rng = np.random.default_rng(62)
        state = {
            "ginibre": random_density(rng),
            "x": x_state(random_x_params(rng)),  # complex phases
            "bell": x_state(BELL),
            "werner": _werner(1e-9),
            "mixed": maximally_mixed(),
        }[kind]
        rho4 = state.matrix.reshape(2, 2, 2, 2)
        b = _row_map(rho4)
        center = MeasurementAxis.from_angles(0.7, 2.1).n
        first, last = _grid_tables(COARSE)[1][[0, -1]]
        poles = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
        for x, n, at in (
            (COARSE_AXES, COARSE_AXES.T, None),
            (first, _window_points(center, first), center),
            (last, _window_points(center, last), center),
            (poles, poles.T, None),
        ):
            rows = _affine_rows(b if at is None else _composed(b, at), x)
            expected = _block_rows(_conditional_a(rho4, _projectors(*_angles(n))))
            assert np.abs(rows - expected).max() <= 2e-15
            c, k, l, s = _terms(b, _products(b, x, at))
            t, r = expected[0], expected[1:]
            g00, g11 = (r * r).sum(axis=0)
            g01 = (r[:, 0] * r[:, 1]).sum(axis=0)
            assert np.abs(c - 0.5 * (t * t).sum(axis=0)).max() <= 2e-15
            assert np.abs(k + 2.0 * l + s - g00).max() <= 2e-15
            assert np.abs(k - 2.0 * l + s - g11).max() <= 2e-15
            assert np.abs(k - s - g01).max() <= 2e-15
            if kind == "mixed":
                assert np.array_equal(b, np.diag([0.5, 0.0, 0.0, 0.0]))
                assert np.all(rows[0] == 0.5) and np.all(rows[1:] == 0.0)
                assert k == 0.0 and np.all(l == 0.0) and np.all(s == 0.0)
                one, bound = _scores(b, x, at)
                assert np.all(one == 0.25) and np.all(bound == 0.25)

    def test_closed_form_rows_match_pauli_traces(self):
        rng = np.random.default_rng(52)
        states = [random_density(rng) for _ in range(10)]
        states += [validate_density(_pure(rng)) for _ in range(10)]
        states += [validate_density(0.3 * _pure(rng) + 0.7 * _pure(rng)) for _ in range(10)]
        states += [validate_density(np.kron(_qubit(rng), _qubit(rng))) for _ in range(10)]
        states += [_werner(w) for w in rng.uniform(0.0, 1.0, size=5)]
        states += [x_state(random_x_params(rng)) for _ in range(5)]  # complex phases
        for state in states:
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            th = rng.uniform(0.0, np.pi, size=64)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=64)
            bound = _scores(_row_map(rho4), _unit(th, ph).T)[1]
            r = _elementwise_scores(rho4, _projectors(th, ph))[1]
            ref_r, ref_bound = _pauli_rows(rho4, th, ph)
            assert np.abs(r - ref_r).max() <= 4e-16
            assert np.abs(bound - ref_bound).max() <= 1e-15

    def test_scorers_match_elementwise_references(self):
        # the scores from one real matrix product (P = B[:, 1:] n, then c + 4
        # (k + s) one-sided and c + 2 lmax(G) two-sided in closed form), and
        # the rows r_k of B, agree with the elementwise expressions of the
        # ket-built blocks on the reference base grid and on one refinement
        # window; I/4 keeps r exactly 0
        rng = np.random.default_rng(61)
        mixed = maximally_mixed()
        states = [random_density(rng), x_state(random_x_params(rng)), x_state(BELL), mixed]
        axes, windows = _grid_tables(REFERENCE_GRID)
        center = MeasurementAxis.from_angles(0.7, 2.1).n
        for st in states:
            rho4 = st.matrix.reshape(2, 2, 2, 2)
            m = _row_map(rho4)
            for n, x, at in (
                (axes.T, axes, None),
                (_window_points(center, windows[0]), windows[0], center),
            ):
                one, ref_r, ref_bound = _elementwise_scores(rho4, _projectors(*_angles(n)))
                r = _affine_rows(m if at is None else _composed(m, at), x)[1:]
                one_sided, bound = _scores(m, x, at)
                assert np.abs(one_sided - one).max() <= 2e-15
                assert np.abs(r - ref_r).max() <= 2e-15
                assert np.abs(bound - ref_bound).max() <= 2e-15
                if st is mixed:
                    assert np.all(r == 0.0)

    def test_best_b_is_top_eigenvector(self):
        # R g / |R g| is the top eigenvector of M = R R^T, up to sign, R = [r_+
        # r_-] the two 3-vectors _best_b takes; on an
        # exact tie (G a multiple of I) it is r_+ / |r_+|, and for R = 0 the
        # z axis
        rng = np.random.default_rng(59)
        for scale in (1.0, 1e-9, 1e-20):
            for _ in range(50):
                r = scale * rng.normal(size=(3, 2))
                w, v = np.linalg.eigh(r @ r.T)
                b = _best_b(*r.T)
                assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-15)
                if w[2] - w[1] > 1e-6 * w[2]:
                    assert abs(b @ v[:, 2]) == pytest.approx(1.0, abs=1e-12)
                assert b @ r @ r.T @ b == pytest.approx(w[2], rel=1e-12)
        # orthogonal r_+ and r_- of unequal length: b* is the longer one,
        # whichever side it is on
        for r in (np.diag([2.0, 1.0, 0.0])[:, :2], np.diag([1.0, 2.0, 0.0])[:, :2]):
            assert np.array_equal(np.abs(_best_b(*r.T)), r[:, np.argmax(r.max(axis=0))] / 2.0)
        tie = np.array([[1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(_best_b(*tie.T), tie[:, 0] / np.sqrt(2.0))
        assert np.array_equal(_best_b(np.zeros(3), np.zeros(3)), [0.0, 0.0, 1.0])

    def test_pair_at_matches_the_scan(self):
        # the one-axis score in scalar arithmetic is the scan's two-sided
        # score of that axis, and b* is _best_b of B's rows r_+/- at it, on
        # random axes, both poles and I/4's z axis
        rng = np.random.default_rng(64)
        states = [random_density(rng) for _ in range(5)]
        states += [x_state(random_x_params(rng)) for _ in range(5)]  # complex phases
        states += [x_state(BELL), _werner(1e-9), maximally_mixed()]
        for st in states:
            rho4 = st.matrix.reshape(2, 2, 2, 2)
            b = _row_map(rho4)
            th = np.concatenate([[0.0, np.pi], rng.uniform(0.0, np.pi, size=4)])
            ph = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 2.0 * np.pi, size=4)])
            n = _unit(th, ph)
            bound = _scores(b, n.T)[1]
            r = _affine_rows(b, n.T)[1:]
            for i, a in enumerate(n):
                val, (axis_a, axis_b) = _pair_at(b, a)
                assert abs(val - bound[i]) <= 2.3e-16
                assert np.array_equal(axis_a.n, a)
                assert np.abs(axis_b.n - _best_b(*r[:, :, i].T)).max() <= 1e-15
        assert val == 0.25 and np.array_equal(axis_b.n, [0.0, 0.0, 1.0])

    def test_maximally_mixed_rows_are_exact(self):
        # the blocks of I/4 are multiples of I, so every r_k is exactly zero,
        # every axis scores c = 1/4, and b* is the z axis by the tie rule
        rho4 = maximally_mixed().matrix.reshape(2, 2, 2, 2)
        m = _row_map(rho4)
        axes, windows = _grid_tables(REFERENCE_GRID)
        center = MeasurementAxis.from_angles(0.7, 2.1).n
        for x, n, at in (
            (COARSE_AXES, COARSE_AXES.T, None),
            (axes, axes.T, None),
            (windows[-1], _window_points(center, windows[-1]), center),
        ):
            r = _elementwise_scores(rho4, _projectors(*_angles(n)))[1]
            one, bound = _scores(m, x, at)
            assert np.all(r == 0.0)
            assert np.all(one == 0.25) and np.all(bound == 0.25)
            assert np.array_equal(_best_b(*r[:, :, 0].T), [0.0, 0.0, 1.0])

    def test_grid_tables_are_read_only(self):
        # the cached unit vectors are the ones a fresh build gives, the
        # window table holds one round per refinement iteration, and
        # neither can be written to
        tables = _grid_tables(COARSE)
        assert _grid_tables(COARSE) is tables
        axes, windows = tables
        assert np.array_equal(axes, COARSE_AXES)
        assert windows.shape == (COARSE.refine_iters, 3, oracle._LOCAL_POINTS**2)
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestBruteForce:
    def test_bell_values(self):
        st = x_state(BELL)
        assert ggqd_bruteforce(st).value == pytest.approx(0.5, abs=1e-6)
        assert gd_bruteforce(st).value == pytest.approx(0.5, abs=1e-6)

    def test_maximally_mixed_is_zero(self):
        # every axis of I/4 scores exactly 1/4, so the tie rule gives the
        # first axis in enumeration order, the z axis, on both sides, and
        # every value is exactly 0 with a flat history
        st = maximally_mixed()
        for grid in (COARSE, REFERENCE_GRID):
            for oracle_fn in (gd_bruteforce, ggqd_bruteforce, tqc_sequential):
                res = oracle_fn(st, grid)
                assert res.value == 0.0
                assert res.history == (0.25,) * (grid.refine_iters + 1)
                assert np.array_equal(res.maximizer[0].n, [0.0, 0.0, 1.0])
                if oracle_fn is not gd_bruteforce:
                    assert np.array_equal(res.maximizer[1].n, [0.0, 0.0, 1.0])

    def test_classical_diagonal_is_zero(self):
        st = validate_density(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert gd_bruteforce(st, COARSE).value == pytest.approx(0.0, abs=1e-12)
        assert ggqd_bruteforce(st, COARSE).value == pytest.approx(0.0, abs=1e-12)

    def test_history_is_monotone_and_starts_at_base(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            p = normalize_x_phases(random_x_params(rng)).normalized
            res = ggqd_bruteforce(x_state(p), COARSE)
            assert len(res.history) == COARSE.refine_iters + 1
            assert all(
                later >= earlier
                for earlier, later in zip(res.history, res.history[1:])
            )
            assert res.value == pytest.approx(
                purity(x_state(p)) - res.history[-1], abs=1e-15
            )

    def test_never_underestimates_discord(self):
        # the grid search under-approximates the inner max at any resolution,
        # so its discord can only exceed the closed form (up to round-off)
        rng = np.random.default_rng(44)
        tiny = GridSpec(n_theta=8, n_phi=16, refine_iters=0)
        for _ in range(25):
            p = normalize_x_phases(random_x_params(rng)).normalized
            st = x_state(p)
            assert ggqd_bruteforce(st, tiny).value >= ggqd_x(p).value - 1e-12
            assert gd_bruteforce(st, tiny).value >= gd_x(p).value - 1e-12

    def test_refined_agreement_on_x_states(self):
        rng = np.random.default_rng(45)
        for _ in range(3):
            p = normalize_x_phases(random_x_params(rng)).normalized
            st = x_state(p)
            assert ggqd_bruteforce(st).value == pytest.approx(
                ggqd_x(p).value, abs=1e-7
            )

    def test_deterministic(self):
        rng = np.random.default_rng(46)
        st = random_density(rng)
        r1 = ggqd_bruteforce(st, COARSE)
        r2 = ggqd_bruteforce(st, COARSE)
        assert r1.value == r2.value
        assert r1.history == r2.history
        assert np.array_equal(r1.maximizer[0].n, r2.maximizer[0].n)
        assert np.array_equal(r1.maximizer[1].n, r2.maximizer[1].n)

    def test_reported_axes_reproduce_value(self):
        # the reported (a*, b*), b* in closed form, give the value through a
        # literal apply_measurement, ties included: Bell and Werner states
        # tie over a, and I/4 ties everywhere (R = 0, b* the z axis)
        rng = np.random.default_rng(60)
        states = [random_density(rng) for _ in range(5)]
        states += [x_state(BELL), _werner(0.6), _rotated_werner(0.6, rng), maximally_mixed()]
        for st in states:
            res = ggqd_bruteforce(st)
            literal = purity(st) - purity(apply_measurement(st, *res.maximizer))
            assert abs(res.value - literal) <= 1e-12
        assert np.array_equal(res.maximizer[1].n, [0.0, 0.0, 1.0])

    def test_one_sided_scores_stay_below_closed_maximum(self):
        # the one-sided score is b0^2 + 4 |rho0|^2 + n^T Q n with Q = beta
        # beta^T + 4 R^T R, so no base-grid or window axis may beat b0^2 +
        # 4 |rho0|^2 + lmax(Q); the search's last candidate, Q's top
        # eigenvector, reaches it at an axis a literal apply_measurement
        # confirms
        rng = np.random.default_rng(67)
        states = [random_density(rng) for _ in range(8)]
        states += [x_state(random_x_params(rng)) for _ in range(8)]
        states += [validate_density(_pure(rng)), x_state(BELL), _werner(0.6),
                   _rotated_werner(0.6, rng), maximally_mixed()]
        for st in states:
            b = _row_map(st.matrix.reshape(2, 2, 2, 2))
            beta, rho0, r = b[0, 1:], b[1:, 0], b[1:, 1:]
            q = np.outer(beta, beta) + 4.0 * r.T @ r
            top = b[0, 0] ** 2 + 4.0 * rho0 @ rho0 + np.linalg.eigvalsh(q)[-1]
            scores = []
            oracle._refine(REFERENCE_GRID, b,
                           lambda b, p: scores.append(_one_sided(b, p)) or scores[-1])
            assert len(scores) == REFERENCE_GRID.refine_iters + 1
            assert max(s.max() for s in scores) <= top + 1e-15
            res = gd_bruteforce(st)
            assert len(res.history) == REFERENCE_GRID.refine_iters + 1
            assert abs(res.history[-1] - top) <= 1e-15
            literal = purity(st) - purity(apply_measurement(st, res.maximizer[0]))
            assert abs(res.value - literal) <= 1e-12

    def test_optimum_near_a_pole_is_found(self):
        # the base winner of state #255 of this seed is the north pole, with
        # a* 0.023 rad off it; a (theta, phi) refinement box there missed it,
        # leaving both oracles 4e-5 to 5e-5 above the optimizers
        rng = np.random.default_rng(1)
        st = [random_density(rng) for _ in range(256)][255]
        assert abs(ggqd_bruteforce(st).value - ggqd_general(st).value) <= 1e-11
        assert abs(gd_bruteforce(st).value - gd_dakic(st).value) <= 1e-11

    def test_method_tags(self):
        st = maximally_mixed()
        assert gd_bruteforce(st, COARSE).method is Method.BRUTE_FORCE
        assert tqc_sequential(st, COARSE).method is Method.TQC_SEQUENTIAL


class TestSequential:
    def test_bell_and_mixed(self):
        assert tqc_sequential(x_state(BELL)).value == pytest.approx(0.5, abs=1e-6)
        assert tqc_sequential(maximally_mixed(), COARSE).value == pytest.approx(
            0.0, abs=1e-14
        )

    def test_matches_joint_search_outside_middle_case(self):
        # when the one-sided and two-sided optima share an axis (orderings
        # where (a12+a03)^2 is extreme), the greedy chain telescopes to the
        # joint maximum
        for p in (example2(0.8), XStateParams(0.4, 0.1, 0.1, 0.4, 0.1, 0.0)):
            st = x_state(p)
            assert tqc_sequential(st).value == pytest.approx(
                ggqd_x(p).value, abs=1e-7
            )

    def test_exceeds_joint_search_in_middle_case(self):
        # the first-stage axis is not jointly optimal here: the greedy chain
        # keeps strictly less purity, by a hand-computable margin
        p = example2(0.55)
        st = x_state(p)
        res = tqc_sequential(st)
        assert res.value == pytest.approx(0.179375, abs=1e-7)
        assert ggqd_bruteforce(st).value == pytest.approx(0.15125, abs=1e-7)
        assert res.value > ggqd_x(p).value + 0.02

    def test_step_two_is_exact_at_step_one_axis(self):
        # step 2 is the exact b-sphere maximum at a*: it keeps at least the
        # purity of a b-grid search of the intermediate state (the side-A
        # search of it with its qubits swapped), at either grid, and the
        # reference grid's search comes within 1e-10 of it; the reported
        # axes reproduce the value, and history is step 1's
        rng = np.random.default_rng(48)
        states = [random_density(rng) for _ in range(4)]
        states += [x_state(random_x_params(rng)) for _ in range(4)]  # complex phases
        states.append(x_state(BELL))
        for grid in (COARSE, GridSpec(n_theta=16, n_phi=17, refine_iters=2)):
            for st in states:
                res = tqc_sequential(st, grid)
                kept = purity(st) - res.value
                mid = apply_measurement(st, a=res.maximizer[0]).matrix
                swapped = validate_density(
                    mid.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
                )
                assert kept >= gd_bruteforce(swapped, grid).history[-1] - 1e-15
                fine = gd_bruteforce(swapped).history[-1]
                assert fine - 1e-15 <= kept <= fine + 1e-10
                literal = purity(st) - purity(apply_measurement(st, *res.maximizer))
                assert abs(res.value - literal) <= 1e-12
                assert res.history == gd_bruteforce(st, grid).history

    def test_never_below_joint_search(self):
        # fixing the first axis can only shrink the preserved purity
        rng = np.random.default_rng(47)
        for _ in range(5):
            st = random_density(rng)
            assert (
                tqc_sequential(st, COARSE).value
                >= ggqd_bruteforce(st, COARSE).value - 1e-12
            )


class TestIndependence:
    def test_imports_share_no_algebra_with_measures(self):
        # the oracles check the closed forms and the ascent, so they may take
        # from the package only the result type, the state and measurement
        # primitives, never bloch_decompose or an evaluator
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("geodiscord")
            ):
                module = (node.module or "").removeprefix("geodiscord").lstrip(".")
                imported.setdefault(module, set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("geodiscord") for a in node.names)
        assert imported == {
            "measures": {"MeasureResult", "Method", "_finalize"},
            "core": {"DensityMatrix4", "MeasurementAxis", "purity"},
        }

    def test_oracles_run_without_bloch_form_or_evaluators(self, monkeypatch):
        # the same at run time: with bloch_decompose, gd_dakic and
        # ggqd_general made to raise, all three oracles still run and give
        # what they gave before
        rng = np.random.default_rng(65)
        states = [random_density(rng), x_state(random_x_params(rng))]
        fns = (gd_bruteforce, ggqd_bruteforce, tqc_sequential)
        before = [[fn(st, COARSE) for fn in fns] for st in states]

        def forbidden(*args, **kwargs):
            raise AssertionError("an oracle called the algebra it checks")

        for name in ("bloch_decompose", "gd_dakic", "ggqd_general"):
            for module in (core, measures, geodiscord):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        with pytest.raises(AssertionError):
            measures.gd_dakic(states[0])
        for st, results in zip(states, before):
            for fn, expected in zip(fns, results):
                res = fn(st, COARSE)
                assert res.value == expected.value and res.history == expected.history
