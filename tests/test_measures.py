"""Closed forms, case classification, and the numeric evaluators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    Case,
    ComplexInput,
    Method,
    OptimizerDidNotConverge,
    XStateParams,
    classify_x_case,
    example2,
    example3,
    example_reference,
    gap_x,
    gd_dakic,
    gd_x,
    ggqd_bruteforce,
    ggqd_general,
    ggqd_matrix_form,
    ggqd_x,
    maximally_mixed,
    normalize_x_phases,
    purity,
    random_density,
    random_x_params,
    validate_density,
    x_state,
)
from geodiscord import measures

BELL = XStateParams(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)


def normalized_x(rng):
    return normalize_x_phases(random_x_params(rng)).normalized


class TestXStateParams:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            XStateParams(0.5, 0.5, 0.1, 0.0)

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError):
            XStateParams(0.6, 0.5, -0.1, 0.0)

    def test_rejects_oversized_corner(self):
        with pytest.raises(ValueError):
            XStateParams(0.25, 0.25, 0.25, 0.25, 0.3, 0.0)

    def test_corner_bound_prints_as_plain_float(self):
        with pytest.raises(ValueError) as a03:
            XStateParams(0.25, 0.25, 0.25, 0.25, 0.3, 0.0)
        assert str(a03.value) == "|a03| = 0.3 exceeds sqrt(d0 d3) = 0.25"
        with pytest.raises(ValueError) as a12:
            XStateParams(0.25, 0.25, 0.25, 0.25, 0.0, 0.3)
        assert str(a12.value) == "|a12| = 0.3 exceeds sqrt(d1 d2) = 0.25"

    def test_boundary_corner_allowed(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.25, 0.25)
        assert p.a03 == 0.25


class TestClosedForms:
    def test_reference_curves(self):
        from geodiscord import example1

        for a in np.linspace(0.01, 1.0, 101):
            p = example1(float(a))
            assert gd_x(p).value == pytest.approx(
                example_reference("ex1", "gd", float(a)), abs=1e-12
            )
        for a in np.linspace(0.0, 1.0, 101):
            p2, p3 = example2(float(a)), example3(float(a))
            assert ggqd_x(p2).value == pytest.approx(
                example_reference("ex2", "ggqd", float(a)), abs=1e-12
            )
            assert gd_x(p3).value == pytest.approx(
                example_reference("ex3", "gd", float(a)), abs=1e-12
            )

    def test_bell_values(self):
        assert gd_x(BELL).value == pytest.approx(0.5, abs=1e-15)
        assert ggqd_x(BELL).value == pytest.approx(0.5, abs=1e-15)

    def test_maximally_mixed_is_zero(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25)
        assert gd_x(p).value == 0.0
        assert ggqd_x(p).value == 0.0

    def test_rejects_complex_corners(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.1j, 0.0)
        with pytest.raises(ComplexInput):
            gd_x(p)
        with pytest.raises(ComplexInput):
            ggqd_x(p)

    def test_values_nonnegative_and_clamped_flag(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            p = normalized_x(rng)
            r = ggqd_x(p)
            assert r.value >= 0.0
            assert r.method is Method.ANALYTIC_X
            assert gd_x(p).value >= 0.0

    def test_branch_axis_reported(self):
        # Bell optimum sits on z; a corner-dominated state flips to x
        assert_allclose(ggqd_x(BELL).maximizer[0].n, [0, 0, 1])
        corner = XStateParams(0.25, 0.25, 0.25, 0.25, 0.25, 0.25)
        assert_allclose(ggqd_x(corner).maximizer[0].n, [1, 0, 0])


class TestCases:
    def test_example2_above_ggqd_break_is_case1(self):
        c = classify_x_case(example2(0.8))
        assert c.tag is Case.CASE1
        assert gap_x(example2(0.8)) == pytest.approx(0.01, abs=1e-12)

    def test_example2_between_breaks_is_case2(self):
        assert classify_x_case(example2(0.55)).tag is Case.CASE2

    def test_small_corners_fall_in_case3(self):
        p = XStateParams(0.4, 0.1, 0.1, 0.4, 0.1, 0.0)
        assert classify_x_case(p).tag is Case.CASE3
        assert gap_x(p) == 0.0

    def test_ties_go_to_lower_case(self):
        # maximally mixed has lhs = mid = rhs = 0
        c = classify_x_case(XStateParams(0.25, 0.25, 0.25, 0.25))
        assert c.tag is Case.CASE1

    def test_gap_matches_subtraction(self):
        rng = np.random.default_rng(22)
        seen = set()
        for _ in range(2000):
            p = normalized_x(rng)
            case = classify_x_case(p)
            seen.add(case.tag)
            direct = ggqd_x(p).value - gd_x(p).value
            assert gap_x(p) == pytest.approx(direct, abs=1e-12)
            assert direct >= -1e-12
        assert seen == {Case.CASE1, Case.CASE2, Case.CASE3}

    def test_ordering_fields(self):
        c = classify_x_case(example2(0.55))
        assert c.mid >= c.rhs  # always: mid - rhs is a square


class TestDakic:
    def test_equals_closed_form_on_x_states(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            p = normalized_x(rng)
            assert gd_dakic(x_state(p)).value == pytest.approx(
                gd_x(p).value, abs=1e-10
            )

    def test_product_state_is_zero(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        from geodiscord import validate_density

        assert gd_dakic(validate_density(m)).value == 0.0

    def test_nonzero_on_general_state(self):
        rng = np.random.default_rng(26)
        state = random_density(rng)
        r = gd_dakic(state)
        assert 0.0 < r.value < purity(state)
        assert r.method is Method.DAKIC
        assert r.maximizer[1] is None


class TestGeneralEvaluators:
    def test_match_closed_form_on_x_states(self):
        rng = np.random.default_rng(28)
        for _ in range(40):
            p = normalized_x(rng)
            st = x_state(p)
            expect = ggqd_x(p).value
            assert ggqd_general(st).value == pytest.approx(expect, abs=1e-8)
            assert ggqd_matrix_form(st).value == pytest.approx(expect, abs=1e-8)

    def test_two_routes_agree_off_x(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            st = random_density(rng)
            assert ggqd_matrix_form(st).value == pytest.approx(
                ggqd_general(st).value, abs=1e-8
            )

    def test_bell_and_mixed(self):
        assert ggqd_general(x_state(BELL)).value == pytest.approx(0.5, abs=1e-9)
        assert ggqd_general(maximally_mixed()).value == pytest.approx(0.0, abs=1e-12)

    def test_reports_both_axes(self):
        rng = np.random.default_rng(30)
        r = ggqd_general(random_density(rng))
        a_axis, b_axis = r.maximizer
        assert np.linalg.norm(a_axis.n) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(b_axis.n) == pytest.approx(1.0, abs=1e-12)
        assert r.method is Method.GENERAL_OPT

    def test_phase_conjugation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_x_params(rng)
            st = x_state(p)
            norm_st = x_state(normalize_x_phases(p).normalized)
            assert gd_dakic(st).value == pytest.approx(
                gd_dakic(norm_st).value, abs=1e-10
            )
            assert ggqd_general(st).value == pytest.approx(
                ggqd_general(norm_st).value, abs=1e-8
            )


SWAP = np.eye(4)[[0, 2, 1, 3]]


def pure_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def rank2_state(rng):
    w = rng.uniform(0.2, 0.8)
    return w * pure_state(rng) + (1.0 - w) * pure_state(rng)


def qubit_state(rng):
    r = rng.normal(size=3)
    r *= rng.uniform(0.0, 1.0) ** (1.0 / 3.0) / np.linalg.norm(r)
    pauli = (
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    )
    return 0.5 * (np.eye(2) + sum(c * s for c, s in zip(r, pauli)))


def product_state(rng):
    return np.kron(qubit_state(rng), qubit_state(rng))


def werner_state(p):
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return p * np.outer(psi, psi) + (1.0 - p) * np.eye(4) / 4.0


def classical_state(rng):
    return np.diag(rng.dirichlet(np.ones(4)))


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def adversarial_states(kind):
    """Families where two-sided searches have degenerate or flat landscapes."""
    rng = np.random.default_rng(40)
    if kind == "mixed":
        return [maximally_mixed()]
    if kind == "bell":
        return [x_state(BELL)]
    if kind == "werner":
        return [validate_density(werner_state(p)) for p in (0.1, 1 / 3, 0.6, 1.0)]
    make, count = {
        "pure": (pure_state, 6),
        "rank2": (rank2_state, 6),
        "product": (product_state, 6),
        "classical": (classical_state, 4),
        "ginibre": (lambda r: random_density(r).matrix, 6),
    }[kind]
    return [validate_density(make(rng)) for _ in range(count)]


class TestTwoSidedAscent:
    @pytest.mark.parametrize(
        "kind",
        ["mixed", "bell", "pure", "rank2", "product", "werner", "classical", "ginibre"],
    )
    def test_within_oracle_bracket(self, kind):
        # the grid oracle sits just below the true maximum of the dephased
        # purity, so both evaluators must not exceed it by more than
        # round-off (a missed basin shows here) nor fall far below it
        for st in adversarial_states(kind):
            brute = ggqd_bruteforce(st).value
            for evaluator in (ggqd_general, ggqd_matrix_form):
                value = evaluator(st).value
                assert brute - 2e-6 <= value <= brute + 1e-12, (kind, evaluator.__name__)

    def test_narrow_basin_is_found(self):
        # a broad second maximum of f(b) near +-z holds all but one of the
        # best lattice points for b; the side-A seeds reach the narrow one
        p = XStateParams(
            0.10595655478882682,
            0.10701295937078936,
            0.3229283519096393,
            0.4641021339307445,
            -0.15057914283570792 - 0.10288839510301379j,
            -0.004112992258668724 + 0.12171391819638062j,
        )
        expect = ggqd_x(normalize_x_phases(p).normalized).value
        for evaluator in (ggqd_general, ggqd_matrix_form):
            assert evaluator(x_state(p)).value == pytest.approx(expect, abs=1e-12)

    def test_swap_and_local_unitary_invariance(self):
        rng = np.random.default_rng(41)
        states = [random_density(rng).matrix for _ in range(50)]
        states += [pure_state(rng) for _ in range(50)]
        for m in states:
            value = ggqd_general(validate_density(m)).value
            swapped = ggqd_general(validate_density(SWAP @ m @ SWAP)).value
            assert swapped == pytest.approx(value, abs=1e-12)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = validate_density(u @ m @ u.conj().T)
            assert ggqd_general(rotated).value == pytest.approx(value, abs=1e-10)

    def test_close_singular_values_converge_quickly(self, monkeypatch):
        # T has singular values 0.53971 and 0.53959: the plain alternating
        # sweep converges with a ratio near 1 and used the whole 20 000-sweep
        # budget here; extrapolating along each sweep's step needs about 450
        p = XStateParams(
            0.2281344028399197,
            0.1328427994509377,
            0.17639795968446825,
            0.46262483802467436,
            0.0018533264491703435 - 0.26981860858180895j,
            2.4961365755356412e-05 - 1.5048980987870726e-05j,
        )
        calls = []
        top_eigvecs = measures._top_eigvecs
        monkeypatch.setattr(
            measures, "_top_eigvecs", lambda m: calls.append(1) or top_eigvecs(m)
        )
        value = ggqd_general(x_state(p)).value
        assert value == pytest.approx(ggqd_x(normalize_x_phases(p).normalized).value, abs=1e-12)
        assert (len(calls) - 2) // 2 < 1000  # two eigensolves per sweep

    def test_guard_fires_when_sweeps_run_out(self, monkeypatch):
        monkeypatch.setattr(measures, "_MAX_SWEEPS", 1)
        rng = np.random.default_rng(30)
        for _ in range(20):
            with pytest.raises(OptimizerDidNotConverge):
                ggqd_general(random_density(rng))
