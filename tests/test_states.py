"""Constructors, phase normalization, example families, random generators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    DomainError,
    XStateParams,
    as_x_params,
    example1,
    example2,
    example3,
    example4,
    example5,
    example_reference,
    gd_x,
    ggqd_x,
    normalize_x_phases,
    random_density,
    random_x_params,
    reservoir_amplitudes,
    tc_amplitudes,
    validate_density,
    x_state,
)

ROOT_HALF = 1.0 / np.sqrt(2.0)


class TestXState:
    def test_layout(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1, 0.15 + 0.05j, 0.1j)
        m = x_state(p).matrix
        assert_allclose(np.diag(m), [0.4, 0.3, 0.2, 0.1])
        assert m[0, 3] == 0.15 + 0.05j
        assert m[3, 0] == 0.15 - 0.05j
        assert m[1, 2] == 0.1j
        assert m[2, 1] == -0.1j
        zero_mask = ~(np.eye(4, dtype=bool) | np.fliplr(np.eye(4, dtype=bool)))
        assert np.all(m[zero_mask] == 0.0)

    def test_bell_matrix(self):
        m = x_state(XStateParams(0.5, 0, 0, 0.5, 0.5, 0)).matrix
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = expect[0, 3] = expect[3, 0] = 0.5
        assert_allclose(m, expect, atol=1e-15)

    def test_round_trip_through_params(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            p = random_x_params(rng)
            q = as_x_params(x_state(p))
            assert (q.d0, q.d1, q.d2, q.d3) == (p.d0, p.d1, p.d2, p.d3)
            assert q.a03 == p.a03 and q.a12 == p.a12

    def test_as_x_params_rejects_general_state(self):
        rng = np.random.default_rng(62)
        with pytest.raises(ValueError, match="not X-shaped.* magnitude [0-9.e-]+$"):
            as_x_params(random_density(rng))


class TestPhaseNormalization:
    def test_pure_imaginary_corner(self):
        p = XStateParams(0.3, 0.2, 0.2, 0.3, 0.3j, 0.0)
        n = normalize_x_phases(p)
        assert n.normalized.a03 == pytest.approx(0.3)
        assert n.normalized.a12 == 0.0
        assert (n.normalized.d0, n.normalized.d3) == (0.3, 0.3)

    def test_real_input_is_identity(self):
        p = XStateParams(0.3, 0.2, 0.2, 0.3, 0.1, 0.05)
        n = normalize_x_phases(p)
        assert n.theta1 == 0.0 and n.theta2 == 0.0
        assert n.normalized == p

    def test_unitary_realizes_the_map(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            p = random_x_params(rng)
            n = normalize_x_phases(p)
            u = n.unitary()
            assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-14)
            conjugated = u.conj().T @ x_state(p).matrix @ u
            assert_allclose(conjugated, x_state(n.normalized).matrix, atol=1e-12)

    def test_values_survive_normalization(self):
        p = XStateParams(0.3, 0.2, 0.2, 0.3, 0.2 * np.exp(1j * np.pi / 3),
                         0.1 * np.exp(-1j * np.pi / 5))
        n = normalize_x_phases(p).normalized
        assert n.a03 == pytest.approx(0.2) and n.a12 == pytest.approx(0.1)


class TestStaticFamilies:
    def test_domains(self):
        with pytest.raises(DomainError):
            example1(0.0)
        with pytest.raises(DomainError):
            example1(1.1)
        with pytest.raises(DomainError):
            example2(-0.1)
        with pytest.raises(DomainError):
            example3(2.0)

    def test_example1_is_bell_at_one(self):
        p = example1(1.0)
        assert (p.d0, p.d3, p.a03) == (0.5, 0.5, 0.5)

    def test_example_outputs_are_valid_states(self):
        for a in np.linspace(0.01, 1.0, 23):
            for fam in (example1, example2, example3):
                x_state(fam(float(a)))  # validate_density runs inside

    def test_reference_values(self):
        assert example_reference("ex2", "ggqd", 0.5) == pytest.approx(0.125)
        assert example_reference("ex3", "gd", 0.5) == pytest.approx(5.0 / 36.0)
        assert example_reference("ex1", "gd", 0.0) == 0.0
        with pytest.raises(DomainError):
            example_reference("ex1", "gd", 1.5)
        with pytest.raises(DomainError):
            example_reference("ex9", "gd", 0.5)
        with pytest.raises(DomainError):
            example_reference("ex1", "entropy", 0.5)


class TestCavityFamily:
    def test_initial_condition(self):
        c = tc_amplitudes(ROOT_HALF, ROOT_HALF, 0.0)
        assert (c.c1, c.c2) == (0.0, 0.0)
        assert c.c3 == pytest.approx(ROOT_HALF)
        assert c.c4 == pytest.approx(ROOT_HALF)

    def test_period(self):
        gt = 2.0 * np.pi / np.sqrt(6.0)
        c = tc_amplitudes(0.6, 0.8, gt)
        assert abs(c.c1) < 1e-12 and abs(c.c2) < 1e-12
        assert c.c3 == pytest.approx(0.8, abs=1e-12)

    def test_normalization_everywhere(self):
        rng = np.random.default_rng(64)
        for _ in range(1000):
            alpha = rng.uniform(0.0, 1.0)
            beta = np.sqrt(1.0 - alpha * alpha)
            c = tc_amplitudes(alpha, beta, rng.uniform(0.0, 20.0))
            total = abs(c.c1) ** 2 + abs(c.c2) ** 2 + abs(c.c3) ** 2 + abs(c.c4) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tc_amplitudes(0.9, 0.9, 1.0)
        with pytest.raises(DomainError):
            tc_amplitudes(ROOT_HALF, ROOT_HALF, -0.5)

    def test_example4_states_valid_over_time(self):
        for gt in np.linspace(0.0, 10.0, 60):
            x_state(example4(ROOT_HALF, ROOT_HALF, float(gt)))

    def test_example4_initial_is_bell_corner(self):
        p = example4(ROOT_HALF, ROOT_HALF, 0.0)
        assert p.d0 == pytest.approx(0.5)
        assert p.d3 == pytest.approx(0.5)
        assert p.a03 == pytest.approx(0.5)
        assert ggqd_x(p).value == pytest.approx(0.5, abs=1e-12)

    def test_example4_periodicity(self):
        rng = np.random.default_rng(65)
        to_gt = 2.0 * np.pi / np.sqrt(6.0)
        for _ in range(50):
            tau = rng.uniform(0.0, 3.0)
            p0 = example4(ROOT_HALF, ROOT_HALF, tau * to_gt)
            p1 = example4(ROOT_HALF, ROOT_HALF, (tau + 1.0) * to_gt)
            assert ggqd_x(p0).value == pytest.approx(ggqd_x(p1).value, abs=1e-10)
            assert gd_x(p0).value == pytest.approx(gd_x(p1).value, abs=1e-10)


class TestReservoirFamily:
    def test_initial_condition(self):
        r = reservoir_amplitudes(0.1, 0.0)
        beta = np.sqrt(1.0 - 0.01)
        assert r.c1 == pytest.approx(beta)
        assert (r.c2, r.c3) == (0.0, 0.0)

    def test_long_time_limit(self):
        r = reservoir_amplitudes(0.1, 50.0)
        assert abs(r.c1) < 1e-20 and abs(r.c2) < 1e-19
        assert r.c3 == pytest.approx(np.sqrt(0.99), abs=1e-12)

    def test_normalization_everywhere(self):
        rng = np.random.default_rng(66)
        for _ in range(1000):
            r = reservoir_amplitudes(rng.uniform(0.0, 1.0), rng.uniform(0.0, 20.0))
            total = r.alpha**2 + r.c1**2 + r.c2**2 + r.c3**2
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_times_up_to_float_max(self):
        # 2 gt overflows to inf there; c2 must stay 0, not inf * 0 = nan
        for gt in (750.0, 1e200, 8.9e307, 1e308, np.finfo(float).max):
            r = reservoir_amplitudes(0.1, gt)
            assert (r.c1, r.c2) == (0.0, 0.0)
            assert r.c3 == pytest.approx(np.sqrt(0.99), abs=1e-12)

    def test_tiny_times_never_raise(self):
        # the c3 radicand can round slightly negative near t = 0
        for gt in (0.0, 1e-18, 1e-16, 1e-12, 1e-8):
            r = reservoir_amplitudes(0.3, gt)
            assert r.c3 >= 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reservoir_amplitudes(1.2, 1.0)
        with pytest.raises(DomainError):
            reservoir_amplitudes(0.5, -1.0)

    def test_example5_initial_values(self):
        p = example5(0.1, 0.0)
        assert gd_x(p).value == pytest.approx(0.0198, abs=1e-12)
        assert ggqd_x(p).value == pytest.approx(0.0198, abs=1e-12)

    def test_example5_decays_to_zero(self):
        p = example5(0.1, 20.0)
        assert gd_x(p).value < 1e-6
        assert ggqd_x(p).value < 1e-6

    def test_example5_states_valid_over_time(self):
        for gt in np.linspace(0.0, 8.0, 60):
            x_state(example5(0.1, float(gt)))


class TestRandomGenerators:
    def test_x_params_cover_the_region(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            p = random_x_params(rng)
            assert abs(p.a03) <= np.sqrt(p.d0 * p.d3) + 1e-12
            assert abs(p.a12) <= np.sqrt(p.d1 * p.d2) + 1e-12

    def test_real_mode(self):
        rng = np.random.default_rng(68)
        p = random_x_params(rng, complex_phases=False)
        assert p.a03.imag == 0.0 and p.a12.imag == 0.0

    def test_density_draws_are_full_rank(self):
        rng = np.random.default_rng(69)
        for _ in range(50):
            state = random_density(rng)
            assert np.linalg.eigvalsh(state.matrix)[0] > 0.0

    def test_reproducible(self):
        a = random_x_params(np.random.default_rng(70))
        b = random_x_params(np.random.default_rng(70))
        assert a == b
