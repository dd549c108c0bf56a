"""Brute-force search behavior: exactness of the scanned objective,
refinement monotonicity, determinism, and the sequential construction."""

import ast
import tracemalloc
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
    gd_x,
    ggqd_bruteforce,
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
from geodiscord import oracle
from geodiscord.oracle import (
    REFERENCE_GRID,
    _conditional_a,
    _grid_tables,
    _kets,
    _local_angles,
    _one_sided_values,
    _projectors,
    _rescore,
    _scan_angles,
    _side_a_rows,
    _side_b_cols,
    _two_sided_max,
)

BELL = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
COARSE = GridSpec(n_theta=16, n_phi=32, refine_iters=2)
COARSE_TH, COARSE_PH = _scan_angles(COARSE)  # 257 axes
COARSE_PROJ = _projectors(COARSE_TH, COARSE_PH)
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


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


def _scan(rho4, th_a, ph_a, th_b, ph_b):
    """_two_sided_max over the (a, b) product of two axis sets."""
    return _two_sided_max(
        *_side_a_rows(rho4, _projectors(th_a, ph_a)), _side_b_cols(th_b, ph_b)
    )


def _every_row_max(rows, cols):
    """_two_sided_max by a scan of every row in index order, without the
    row bound, in two passes: each row's largest product sets bar, then
    the rows that can reach it are re-scored block by block with the same
    slack, dense rule and tie rule.  The one-pass scan must give the same
    (value, a, b)."""
    n_a, n_b = rows.shape[0], cols.shape[1]
    exact = ~rows[:, :-1].any(axis=1)
    slack = np.where(exact, 0.0, oracle._ROUNDING * np.abs(rows).sum(axis=1))
    top = np.concatenate(
        [(rows[s : s + oracle._CHUNK] @ cols).max(axis=1) for s in range(0, n_a, oracle._CHUNK)]
    )
    bar = float((top - slack).max())
    live = top >= bar - slack
    best = (-np.inf, 0, 0)
    fixed = np.flatnonzero(live & exact)
    if fixed.size:
        a = int(fixed[np.argmax(top[fixed])])
        best = (float(top[a]), -a, 0)
    loose = np.flatnonzero(live & ~exact)
    for start in range(0, loose.size, oracle._CHUNK):
        sel = loose[start : start + oracle._CHUNK]
        p = rows[sel] @ cols
        cand = np.flatnonzero(p >= (bar - slack[sel])[:, None])
        if cand.size > p.size // oracle._DENSE:
            cand = np.arange(p.size)
            vals = _rescore(rows[sel].T[:, :, None], cols).ravel()
        elif cand.size:
            vals = _rescore(rows[sel[cand // n_b]].T, cols[:, cand % n_b])
        else:
            continue
        j = int(np.argmax(vals))
        r, b = divmod(int(cand[j]), n_b)
        best = max(best, (float(vals[j]), -int(sel[r]), -b))
    return best[0], -best[1], -best[2]


def _bloch_rows(rho4, th, ph):
    """_side_a_rows by the literal construction: r_k,i = tr(sigma_k
    sigma_i) / 2 from Pauli traces of the conditional blocks, M = sum_k
    r_k r_k^T, then 2 M_xx, 2 M_yy, 2 M_zz, 4 M_xy, 4 M_xz, 4 M_yz and
    sum_k t_k^2 / 2."""
    sig = _conditional_a(rho4, _projectors(th, ph))
    t = np.einsum("akmm->ak", sig).real
    r = 0.5 * np.einsum("akmn,inm->aki", sig, PAULI).real
    m = np.einsum("aki,akj->aij", r, r)
    i, j = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]
    weights = np.array([2.0, 2.0, 2.0, 4.0, 4.0, 4.0])
    return np.concatenate([weights * m[:, i, j], 0.5 * (t * t).sum(axis=1)[:, None]], axis=1)


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


def _ceilings(rows, bound):
    """The ceiling _two_sided_max puts on each row's re-scores."""
    exact = ~rows[:, :-1].any(axis=1)
    size = np.where(exact, 0.0, np.abs(rows).sum(axis=1))
    return bound + oracle._ROUNDING * size + oracle._MARGIN * (size + rows[:, -1])


def _cols_at(b):
    """_side_b_cols of the axes along the rows of b, (N, 3), and the unit axes."""
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    th = np.arccos(np.clip(b[:, 2], -1.0, 1.0))
    return _side_b_cols(th, np.arctan2(b[:, 1], b[:, 0])), b


def _sampled_row_max(row, cols, axes, rng):
    """Largest purity of one side-A row over unit b, without the bound's
    algebra: the best of the random unit axes (with their columns cols),
    then rounds of shrinking random steps around the best so far."""
    vals = row @ cols
    j = int(np.argmax(vals))
    best_val, best_b, step = float(vals[j]), axes[j], 0.1
    for _ in range(25):
        cols_b, b = _cols_at(best_b + step * rng.normal(size=(200, 3)))
        vals = row @ cols_b
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_b = float(vals[j]), b[j]
        step *= 0.5
    return best_val


def _unfused_objective(rho4, th, ph):
    """The full (n_a, n_b) dephased purity, built without the fused column:
    eight-column product, then the -t/2 shift, then 2 sum p^2 + sum t^2 / 2."""
    sig = _conditional_a(rho4, _projectors(th, ph))
    t = np.einsum("akmm->ak", sig).real
    flat = sig.reshape(2 * th.size, 4)
    s8 = np.concatenate([flat.real, flat.imag], axis=1)
    v = _kets(th, ph)[:, 0, :]
    q = np.einsum("bm,bn->bnm", v, v.conj()).reshape(ph.size, 4)
    w8 = np.concatenate([q.real, -q.imag], axis=1)
    p = (s8 @ w8.T).reshape(th.size, 2, ph.size)
    p -= 0.5 * t[:, :, None]
    obj = 2.0 * np.einsum("akb,akb->ab", p, p)
    obj += 0.5 * (t * t).sum(axis=1)[:, None]
    return obj


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


class TestObjectiveIdentity:
    def test_two_sided_matches_literal_measurement(self):
        # the scanned quantity is exactly tr(Pi_ab(rho)^2)
        rng = np.random.default_rng(41)
        for _ in range(20):
            state = random_density(rng)
            ta, pa = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            tb, pb = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            val, _, _ = _scan(
                state.matrix.reshape(2, 2, 2, 2),
                np.array([ta]), np.array([pa]), np.array([tb]), np.array([pb]),
            )
            literal = purity(
                apply_measurement(
                    state,
                    a=MeasurementAxis.from_angles(ta, pa),
                    b=MeasurementAxis.from_angles(tb, pb),
                )
            )
            assert val == pytest.approx(literal, abs=1e-12)

    def test_one_sided_matches_literal_measurement(self):
        # side B is the side-A scan of the state with its qubits swapped
        rng = np.random.default_rng(42)
        for side in ("a", "b"):
            for _ in range(10):
                state = random_density(rng)
                ta, pa = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
                rho4 = state.matrix.reshape(2, 2, 2, 2)
                if side == "b":
                    rho4 = rho4.transpose(1, 0, 3, 2)
                vals = _one_sided_values(rho4, _projectors(np.array([ta]), np.array([pa])))
                axis = MeasurementAxis.from_angles(ta, pa)
                kwargs = {"a": axis} if side == "a" else {"b": axis}
                literal = purity(apply_measurement(state, **kwargs))
                assert vals[0] == pytest.approx(literal, abs=1e-12)


class TestTwoSidedScan:
    def test_block_size_does_not_change_the_answer(self, monkeypatch):
        # a one-row block and a block of all 257 rows go through different
        # BLAS kernels, which round differently; I/4, Bell and Werner have exact
        # ties (won by (6, 0), (6, 28) and (144, 146), |00> peaks at (0, 0)),
        # which must resolve the same way whatever the block boundaries
        rng = np.random.default_rng(48)
        states = [
            maximally_mixed(),
            validate_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)),
            x_state(BELL),
            _werner(0.6),
        ]
        states += [
            x_state(normalize_x_phases(random_x_params(rng)).normalized)
            for _ in range(2)
        ]
        states += [random_density(rng) for _ in range(2)]
        for state in states:
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            answers = set()
            for chunk in (1, 7, 16, COARSE_TH.size):
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                answers.add(_scan(rho4, COARSE_TH, COARSE_PH, COARSE_TH, COARSE_PH))
            assert len(answers) == 1, answers

    def test_fused_scan_matches_unfused_objective(self):
        for state in _fused_family():
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            val, ia, ib = _scan(rho4, COARSE_TH, COARSE_PH, COARSE_TH, COARSE_PH)
            ref = _unfused_objective(rho4, COARSE_TH, COARSE_PH)
            top = ref.max()
            assert abs(val - top) <= 1e-15
            assert abs(ref[ia, ib] - top) <= 1e-15

    def test_near_maximally_mixed_ties_stay_in_one_block(self, monkeypatch):
        # off I/4 by 1e-9, a row's coefficients are about 1e-18, far below
        # its rounding slack, so every pair must be re-scored; the answer
        # may depend neither on the block size nor on whether a block is
        # re-scored whole or pair by pair, and memory stays at one block
        states = _near_mixed_family()
        for state in states:
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            answers = set()
            for chunk, dense in [(1, 4), (7, 4), (16, 1), (16, 10**9), (COARSE_TH.size, 4)]:
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                monkeypatch.setattr(oracle, "_DENSE", dense)
                answers.add(_scan(rho4, COARSE_TH, COARSE_PH, COARSE_TH, COARSE_PH))
            assert len(answers) == 1, answers
            val, ia, ib = answers.pop()
            ref = _unfused_objective(rho4, COARSE_TH, COARSE_PH)
            assert abs(val - ref.max()) <= 1e-15
            assert abs(ref[ia, ib] - ref.max()) <= 1e-15

        # the reference base scan: 4 097^2 pairs, one block of products is
        # 512 KB; collecting every pair as a candidate would take gigabytes
        monkeypatch.undo()
        th, ph = _scan_angles(GridSpec())
        rho4 = states[0].matrix.reshape(2, 2, 2, 2)
        tracemalloc.start()
        try:
            _scan(rho4, th, ph, th, ph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak

    def test_matches_every_row_scan(self, monkeypatch):
        # visiting blocks by their ceiling and stopping early only bounds
        # where the best pair lies, so the answer is that of a scan of every
        # row in index order, to the bit; the product-like state (local
        # Bloch vector 0.5 on A, correlations 1e-20) has b-dependent
        # coefficients near 1e-41
        states = _fused_family() + _near_mixed_family()
        states.append(validate_density(_product_like(1e-20)))
        cols = _side_b_cols(COARSE_TH, COARSE_PH)
        for state in states:
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            rows, bound = _side_a_rows(rho4, COARSE_PROJ)
            for chunk in (1, 7, 16, COARSE_TH.size):
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                assert _two_sided_max(rows, bound, cols) == _every_row_max(rows, cols)

    def test_row_bound_holds(self):
        # no pair of a row, by its product or its re-score, scores above the
        # row's ceiling; on X states some rows reach their bound on the grid,
        # and their re-scores exceed it by rounding
        cols = _side_b_cols(COARSE_TH, COARSE_PH)
        for state in _bound_family():
            rows, bound = _side_a_rows(state.matrix.reshape(2, 2, 2, 2), COARSE_PROJ)
            ub = _ceilings(rows, bound)
            assert np.all((rows @ cols).max(axis=1) <= ub)
            assert np.all(_rescore(rows.T[:, :, None], cols).max(axis=1) <= ub)

    def test_row_bound_is_tight(self):
        # the bound is the best purity over the whole b-sphere, not a
        # relaxation: random search over b comes within 1e-6 of it
        rng = np.random.default_rng(54)
        cols, axes = _cols_at(rng.normal(size=(20_000, 3)))
        states = _bound_family()
        for k in rng.choice(len(states), size=20, replace=False):
            th = rng.uniform(0.0, np.pi, size=2)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=2)
            rho4 = states[k].matrix.reshape(2, 2, 2, 2)
            rows, bound = _side_a_rows(rho4, _projectors(th, ph))
            for row, top in zip(rows, bound):
                assert top - _sampled_row_max(row, cols, axes, rng) <= 1e-6

    def test_skipping_rows_changes_nothing(self, monkeypatch):
        # blocks whose bound cannot reach bar are never scanned; the answer
        # is the one a scan of every row gives, at any block size
        cols = _side_b_cols(COARSE_TH, COARSE_PH)
        for state in _bound_family():
            rows, bound = _side_a_rows(state.matrix.reshape(2, 2, 2, 2), COARSE_PROJ)
            unbounded = np.full_like(bound, np.inf)
            for chunk in (1, 7, 16, COARSE_TH.size):
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                assert _two_sided_max(rows, bound, cols) == _two_sided_max(rows, unbounded, cols)

    def test_rescores_few_pairs_per_call(self, monkeypatch):
        # off ties, the first block's products put bar within rounding of
        # the best pair, so only a few hundred pairs are re-scored per call,
        # base grid and refinement windows together
        rng = np.random.default_rng(57)
        states = [random_density(rng) for _ in range(5)]
        states += [
            x_state(normalize_x_phases(random_x_params(rng)).normalized)
            for _ in range(5)
        ]
        counts = []

        def counting_rescore(x, y):
            vals = _rescore(x, y)
            counts[-1] += vals.size
            return vals

        monkeypatch.setattr(oracle, "_rescore", counting_rescore)
        for state in states:
            counts.append(0)
            ggqd_bruteforce(state)
        assert max(counts) <= 1_000, counts

    def test_projector_table_matches_einsum(self):
        # one matrix product with the projector table gives the conditional
        # blocks of the three-operand contraction it replaced
        rng = np.random.default_rng(55)
        path = ["einsum_path", (0, 2), (0, 1)]
        for _ in range(50):
            rho4 = random_density(rng).matrix.reshape(2, 2, 2, 2)
            th = rng.uniform(0.0, np.pi, size=64)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=64)
            u = _kets(th, ph)
            proj = _projectors(th, ph)
            ref_a = np.einsum("aki,imjn,akj->akmn", u.conj(), rho4, u, optimize=path)
            ref_b = np.einsum("bkm,imjn,bkn->bkij", u.conj(), rho4, u, optimize=path)
            assert np.abs(_conditional_a(rho4, proj) - ref_a).max() <= 4e-16
            swapped = rho4.transpose(1, 0, 3, 2)
            assert np.abs(_conditional_a(swapped, proj) - ref_b).max() <= 4e-16

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
            rows = _side_a_rows(rho4, _projectors(th, ph))[0]
            ref = _bloch_rows(rho4, th, ph)
            bound = 4e-16 * np.abs(ref).sum(axis=1, keepdims=True)
            assert np.all(np.abs(rows - ref) <= bound)

    def test_side_b_columns_are_bounded(self):
        # _ROUNDING's bound takes every column entry to lie in [-1, 1] and
        # the constant column to be exactly 1: on the base grids and on
        # refinement windows, centers and widths at random
        rng = np.random.default_rng(58)
        tables = [_grid_tables(REFERENCE_GRID)[3], _grid_tables(COARSE)[3]]
        for _ in range(20):
            center = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            halves = rng.uniform(0.0, np.pi / 8), rng.uniform(0.0, np.pi / 8)
            tables.append(_side_b_cols(*_local_angles(*center, *halves)))
        for cols in tables:
            assert cols.shape[0] == 7
            assert np.all(np.abs(cols) <= 1.0)
            assert np.all(cols[-1] == 1.0)

    def test_maximally_mixed_rows_are_exact(self, monkeypatch):
        # the blocks of I/4 are multiples of I, so every row has six exact
        # zeros and the scan settles it without a product or a re-score
        def no_rescore(x, y):
            raise AssertionError("an exact row was re-scored")

        monkeypatch.setattr(oracle, "_rescore", no_rescore)
        rho4 = maximally_mixed().matrix.reshape(2, 2, 2, 2)
        cols = _side_b_cols(COARSE_TH, COARSE_PH)
        for proj in (COARSE_PROJ, _grid_tables(REFERENCE_GRID)[2]):
            rows, bound = _side_a_rows(rho4, proj)
            assert np.all(rows[:, :6] == 0.0)
            assert np.array_equal(bound, rows[:, 6])
            a = int(np.argmax(rows[:, 6]))
            assert _two_sided_max(rows, bound, cols) == (rows[a, 6], a, 0)

    def test_grid_tables_are_read_only(self):
        tables = _grid_tables(COARSE)
        assert _grid_tables(COARSE) is tables
        th, ph = _scan_angles(COARSE)
        built_tables = (th, ph, _projectors(th, ph), _side_b_cols(th, ph))
        assert len(tables) == len(built_tables) == 4
        for table, built in zip(tables, built_tables):
            assert np.array_equal(table, built)
            with pytest.raises(ValueError):
                table[0] = 0.0


class TestBruteForce:
    def test_bell_values(self):
        st = x_state(BELL)
        assert ggqd_bruteforce(st).value == pytest.approx(0.5, abs=1e-6)
        assert gd_bruteforce(st).value == pytest.approx(0.5, abs=1e-6)

    def test_maximally_mixed_is_zero(self):
        st = maximally_mixed()
        assert ggqd_bruteforce(st, COARSE).value == pytest.approx(0.0, abs=1e-14)
        assert gd_bruteforce(st, COARSE).value == pytest.approx(0.0, abs=1e-14)

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

    def test_step_two_is_side_a_search_of_swapped_state(self):
        # step 2 searches side B as the side-A search of the qubit-swapped
        # intermediate state, so gd_bruteforce of that state repeats it bit
        # for bit
        rng = np.random.default_rng(48)
        states = [random_density(rng) for _ in range(4)]
        states += [x_state(random_x_params(rng)) for _ in range(4)]  # complex phases
        states.append(x_state(BELL))
        for grid in (COARSE, GridSpec(n_theta=16, n_phi=17, refine_iters=2)):
            for st in states:
                res = tqc_sequential(st, grid)
                mid = apply_measurement(st, a=res.maximizer[0]).matrix
                swapped = validate_density(
                    mid.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
                )
                ref = gd_bruteforce(swapped, grid)
                assert res.history == ref.history
                assert np.array_equal(res.maximizer[1].n, ref.maximizer[0].n)

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
            "core": {"DensityMatrix4", "MeasurementAxis", "apply_measurement", "purity"},
        }
