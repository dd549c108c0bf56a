"""Brute-force search behavior: exactness of the scanned objective,
refinement monotonicity, determinism, and the sequential construction."""

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
    _conditional_a,
    _kets,
    _one_sided_values,
    _scan_angles,
    _two_sided_max,
)

BELL = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
COARSE = GridSpec(n_theta=16, n_phi=32, refine_iters=2)
COARSE_TH, COARSE_PH = _scan_angles(COARSE)  # 257 axes


def _werner(weight):
    bell = x_state(BELL).matrix
    return validate_density(weight * bell + (1.0 - weight) * np.eye(4) / 4)


def _unfused_objective(rho4, th, ph):
    """The full (n_a, n_b) dephased purity, built without the fused column:
    eight-column product, then the -t/2 shift, then 2 sum p^2 + sum t^2 / 2."""
    sig = _conditional_a(rho4, th, ph)
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_theta": 7},
            {"n_phi": 15},
            {"refine_iters": -1},
            {"refine_shrink": 0.05},
            {"refine_shrink": 0.95},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
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
            val, _, _ = _two_sided_max(
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
        rng = np.random.default_rng(42)
        for side in ("a", "b"):
            for _ in range(10):
                state = random_density(rng)
                ta, pa = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
                vals = _one_sided_values(
                    state.matrix.reshape(2, 2, 2, 2),
                    np.array([ta]), np.array([pa]), side,
                )
                axis = MeasurementAxis.from_angles(ta, pa)
                kwargs = {"a": axis} if side == "a" else {"b": axis}
                literal = purity(apply_measurement(state, **kwargs))
                assert vals[0] == pytest.approx(literal, abs=1e-12)


class TestTwoSidedScan:
    def test_block_size_does_not_change_the_answer(self, monkeypatch):
        # one block of all 257 rows is a single flat argmax, i.e. the first
        # maximal pair in enumeration order; I/4, Bell and Werner have exact
        # ties (won by (6, 0), (15, 19) and (1, 1), |00> peaks at (0, 0)),
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
                answers.add(
                    _two_sided_max(rho4, COARSE_TH, COARSE_PH, COARSE_TH, COARSE_PH)
                )
            assert len(answers) == 1, answers

    def test_fused_scan_matches_unfused_objective(self):
        rng = np.random.default_rng(49)
        states = [x_state(BELL), _werner(0.6)]
        states += [random_density(rng) for _ in range(10)]
        for state in states:
            rho4 = state.matrix.reshape(2, 2, 2, 2)
            val, ia, ib = _two_sided_max(
                rho4, COARSE_TH, COARSE_PH, COARSE_TH, COARSE_PH
            )
            ref = _unfused_objective(rho4, COARSE_TH, COARSE_PH)
            top = ref.max()
            assert abs(val - top) <= 1e-15
            assert abs(ref[ia, ib] - top) <= 1e-15


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

    def test_never_below_joint_search(self):
        # fixing the first axis can only shrink the preserved purity
        rng = np.random.default_rng(47)
        for _ in range(5):
            st = random_density(rng)
            assert (
                tqc_sequential(st, COARSE).value
                >= ggqd_bruteforce(st, COARSE).value - 1e-12
            )
