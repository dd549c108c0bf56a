"""Closed forms, case classification, and the numeric evaluators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from geodiscord import (
    BlochForm,
    Case,
    ComplexInput,
    Method,
    OptimizerDidNotConverge,
    XStateParams,
    bloch_decompose,
    classify_x_case,
    example1,
    example2,
    example3,
    example4,
    example5,
    example_reference,
    gap_x,
    gd_bruteforce,
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
    reconstruct,
    validate_density,
    x_measures,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("component", range(8))
    def test_rejects_non_finite(self, component, bad):
        # d0..d3, then Re/Im of a03 and Re/Im of a12
        real = [0.25, 0.25, 0.25, 0.25, 0.1, 0.0, 0.0, 0.1]
        real[component] = bad
        args = real[:4] + [complex(real[4], real[5]), complex(real[6], real[7])]
        with pytest.raises(ValueError) as exc:
            XStateParams(*args)
        assert str(exc.value) == "X-state parameters must be finite"

    def test_accepts_numpy_scalars(self):
        p = XStateParams(*np.full(4, 0.25), np.complex128(0.1 + 0.1j), np.complex128(0.2))
        assert (p.d0, p.a03, p.a12) == (0.25, 0.1 + 0.1j, 0.2 + 0j)
        assert type(p.d0) is float and type(p.a03) is complex


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


def _raw_x(p: XStateParams) -> tuple[float, float]:
    """GD and GGQD of a phase-normalized X state before the clamp, in plain
    Python floats: the closed forms' operation order and Python's max."""
    a03, a12 = max(p.a03.real, 0.0), max(p.a12.real, 0.0)
    sum_sq = p.d0 * p.d0 + (p.d1 * p.d1 + p.d2 * p.d2) + p.d3 * p.d3
    s2 = (a12 + a03) * (a12 + a03)
    forms = (0.5 * sum_sq - p.d0 * p.d2 - p.d1 * p.d3, sum_sq - 0.25)
    return tuple(f + 2.0 * (a12 * a12 + a03 * a03) - max(f, s2) for f in forms)


def _reference_x(p: XStateParams) -> tuple[float, float]:
    """_raw_x with the chained clamp of round-off below zero."""
    return tuple(0.0 if measures.CLAMP_FLOOR <= v < 0.0 else v for v in _raw_x(p))


# raw GD (first two) and GGQD (last two) are negative round-off in
# [-1e-10, 0); the last state's populations sum to 1 - 8e-13, inside
# XStateParams' slack
_CLAMP_WINDOW = [
    XStateParams(0.18963704006966597, 0.310362959930334, 0.18963704006966597,
                 0.310362959930334, 0.13232217998252171, 0.13232217998252171),
    XStateParams(0.25, 0.25, 0.25, 0.25, 0.19515067246143744, 0.1951506724614375),
    XStateParams(0.25 - 2e-13, 0.25 - 2e-13, 0.25 - 2e-13, 0.25 - 2e-13),
]


def _edge_points() -> list[XStateParams]:
    b = 1.0 / np.sqrt(2.0)
    period = 2.0 * np.pi / np.sqrt(6.0)
    return [
        XStateParams(0.25, 0.25, 0.25, 0.25), BELL,
        example1(5e-324), example1(1.0), example2(0.0), example2(1.0),
        example3(0.0), example3(1.0),
        example4(b, b, 0.0), example4(b, b, period), example4(0.0, 1.0, period / 2.0),
        example4(1.0, 0.0, 1.0), example5(0.1, 0.0), example5(0.1, 1e308),
        example5(0.0, 0.0), example5(1.0, 3.0),
    ] + _CLAMP_WINDOW


class TestBatchClosedForms:
    """x_measures and the scalar closed forms share one core, bit for bit."""

    def test_clamp_window_states(self):
        raw = np.array([_raw_x(p) for p in _CLAMP_WINDOW])
        assert ((raw[:2, 0] >= -1e-10) & (raw[:2, 0] < 0.0)).all()
        assert ((raw[1:, 1] >= -1e-10) & (raw[1:, 1] < 0.0)).all()
        assert all(gd_x(p).clamped for p in _CLAMP_WINDOW[:2])
        assert all(ggqd_x(p).clamped for p in _CLAMP_WINDOW[1:])

    def test_criterion_7_pool_and_edges(self):
        rng = np.random.default_rng(7)
        pool = [normalize_x_phases(random_x_params(rng)).normalized for _ in range(10_000)]
        pool += _edge_points()
        ref = np.array([_reference_x(p) for p in pool])
        scalar = np.array([(gd_x(p).value, ggqd_x(p).value) for p in pool])
        gd_batch, ggqd_batch = x_measures(pool)
        assert (scalar == ref).all()
        assert (gd_batch == ref[:, 0]).all() and (ggqd_batch == ref[:, 1]).all()
        # signed zeros too, which == does not tell apart
        assert (np.signbit(gd_batch) == np.signbit(ref[:, 0])).all()
        assert (np.signbit(ggqd_batch) == np.signbit(ref[:, 1])).all()

    def test_phases_enter_by_modulus(self):
        # unnormalized input gives the values of its phase-normalized form
        rng = np.random.default_rng(71)
        raw = [random_x_params(rng) for _ in range(500)]
        norm = [normalize_x_phases(p).normalized for p in raw]
        for got, want in zip(x_measures(raw), x_measures(norm)):
            assert (got == want).all()

    def test_empty(self):
        gd_batch, ggqd_batch = x_measures([])
        assert gd_batch.shape == ggqd_batch.shape == (0,)


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

    def test_axis_signs_survive_round_off(self):
        # at a +-z optimum the ascent's eigenvectors carry x, y residues of
        # 1e-14 and more; the reported sign must follow the axis, not them
        rng = np.random.default_rng(12)
        noise = np.random.default_rng(13)
        for _ in range(150):
            st = x_state(random_x_params(rng))
            h = noise.normal(size=(4, 4)) + 1j * noise.normal(size=(4, 4))
            h += h.conj().T
            nudged = validate_density(st.matrix + 1e-15 * h / np.abs(h).max())
            for evaluator in (gd_dakic, ggqd_general, ggqd_matrix_form):
                for a, b in zip(evaluator(st).maximizer, evaluator(nudged).maximizer):
                    assert a is None or a.n @ b.n > 0.0, evaluator.__name__

    def test_two_routes_agree_off_x(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            st = random_density(rng)
            assert ggqd_matrix_form(st).value == pytest.approx(
                ggqd_general(st).value, abs=1e-8
            )

    def test_matrix_form_rows_do_not_depend_on_batch_size(self, monkeypatch):
        # a start's steps and objective values are the same bits whether it
        # is stepped alone or in a stack of 24, so its path cannot depend on
        # how many other starts are still active
        class Captured(Exception):
            pass

        def capture(*steps):
            raise Captured(steps)

        monkeypatch.setattr(measures, "_eigen_ascent", capture)
        rng = np.random.default_rng(32)
        states = [random_density(rng) for _ in range(5)] + [x_state(normalized_x(rng))]
        for st in states:
            with pytest.raises(Captured) as caught:
                ggqd_matrix_form(st)
            v = rng.normal(size=(24, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            for fn in caught.value.args[0]:  # a_step, b_step, objective, objective_a
                assert np.array_equal(fn(v)[0], fn(v[:1])[0])

    def test_matrix_form_closures_are_the_literal_trace(self, monkeypatch):
        # objective(b) / 8 is tr(A C B^t B C^t A^t) at a = a_step(b), with the
        # blocks A and B written out, and no other unit a scores above it;
        # objective_a and b_step the same with the sides exchanged
        class Captured(Exception):
            pass

        def capture(*steps):
            raise Captured(steps)

        def unit_rows(rng, n):
            v = rng.normal(size=(n, 3))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        def block(n):
            return np.array([[1.0, *n], [1.0, *-n]]) / np.sqrt(2.0)

        monkeypatch.setattr(measures, "_eigen_ascent", capture)
        rng = np.random.default_rng(33)
        states = [random_density(rng), x_state(random_x_params(rng)), x_state(BELL),
                  maximally_mixed()]
        for st in states:
            with pytest.raises(Captured) as caught:
                ggqd_matrix_form(st)
            a_step, b_step, objective, objective_a = caught.value.args[0]
            c = bloch_decompose(st).coefficient_matrix()

            def trace(a, b):
                ma, mb = block(a), block(b)
                return np.trace(ma @ c @ mb.T @ mb @ c.T @ ma.T)

            v, others = unit_rows(rng, 24), unit_rows(rng, 200)
            for step, score, pair in (
                (a_step, objective, trace),
                (b_step, objective_a, lambda b, a: trace(a, b)),
            ):
                for held, best, top in zip(v, step(v), score(v) / 8.0):
                    assert pair(best, held) == pytest.approx(top, abs=1e-15)
                    assert max(pair(w, held) for w in others) <= top + 1e-15

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


def small_vector(rng, scale):
    v = rng.normal(size=3)
    return v * rng.uniform(0.0, scale) / np.linalg.norm(v)


def degenerate_t_state(rng):
    # T = diag(s, s, +-r s) has two equal singular values, so its singular
    # basis in that plane is arbitrary; with |x|, |y| <= 0.03 and the three
    # |T_ii| summing to at most 0.9 every eigenvalue stays above 0.01
    s = rng.uniform(0.1, 0.3)
    t = np.diag([s, s, rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1.0) * s])
    m = reconstruct(BlochForm(small_vector(rng, 0.03), small_vector(rng, 0.03), t)).matrix
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return u @ m @ u.conj().T


def channel_state(rng):
    # (I x Phi)(|Omega><Omega|) for the qubit channel whose Kraus operators
    # are the 2x2 blocks of a random isometry, so rho_A = I/2 and x = 0
    v = random_unitary(rng, 8)[:, :2]
    omega = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]) / 2.0
    kraus = [np.kron(np.eye(2), v[2 * k:2 * k + 2]) for k in range(4)]
    return sum(k @ omega @ k.conj().T for k in kraus)


def side_b_dakic(m):
    return gd_dakic(validate_density(SWAP @ m @ SWAP)).value


def count_steps(monkeypatch):
    """Record each call of ggqd_general's closed-form step, two per sweep."""
    calls = []
    rank2_top = measures._rank2_top
    monkeypatch.setattr(measures, "_rank2_top", lambda u, v: calls.append(1) or rank2_top(u, v))
    return calls


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
        "degenerate_t": (degenerate_t_state, 6),
    }[kind]
    return [validate_density(make(rng)) for _ in range(count)]


class TestTwoSidedAscent:
    @pytest.mark.parametrize(
        "kind",
        ["mixed", "bell", "pure", "rank2", "product", "werner", "classical", "ginibre",
         "degenerate_t"],
    )
    def test_within_oracle_bracket(self, kind):
        # the grid oracle sits just below the true maximum of the dephased
        # purity (it is exact on side B), so both evaluators must not exceed
        # it by more than round-off (a missed basin shows here) nor fall
        # more than 1e-10 below it.  On degenerate_t the lower edge holds
        # for these six seeded states only: the oracle's side-A search stops
        # short on about a quarter of that family (pinned below)
        for st in adversarial_states(kind):
            brute = ggqd_bruteforce(st).value
            for evaluator in (ggqd_general, ggqd_matrix_form):
                value = evaluator(st).value
                assert brute - 1e-10 <= value <= brute + 1e-12, (kind, evaluator.__name__)

    @pytest.mark.xfail(
        strict=True, reason="ggqd_bruteforce stops short on a flat ring of maxima (ROADMAP item 2)"
    )
    def test_oracle_reaches_degenerate_t_maximum(self):
        # T = diag(s, s, +-r s) with tiny local vectors: the maxima form a
        # nearly flat ring, and the oracle's refinement, which starts from
        # the base grid's best point on it, stops 1.5e-7 above the ascent
        st = validate_density(degenerate_t_state(np.random.default_rng(48)))
        assert ggqd_bruteforce(st).value - 1e-10 <= ggqd_general(st).value

    def test_one_sided_oracle_reaches_degenerate_t_maximum(self):
        # the one-sided grid misses on the same kind of ring: on this state
        # it stops 2.6e-6 above the closed form, the worst of its 42 misses
        # beyond 1e-10 on the states of seeds 0-119; the closed-form top
        # axis the search scores last reaches it
        st = validate_density(degenerate_t_state(np.random.default_rng(66)))
        assert gd_bruteforce(st).value <= gd_dakic(st).value + 1e-10

    def test_flat_ring_converges(self, monkeypatch):
        # on this nearly flat ring the ascent used all 20 000 sweeps with the
        # extrapolation along each sweep's move alone, and the two evaluators
        # stopped 2.7e-10 apart; with the minimal-polynomial limit of each
        # step's three sweeps it needed 258, later 199; with the trial points
        # on the line from the last sweep to that limit it needs 13
        st = validate_density(degenerate_t_state(np.random.default_rng(1110)))
        calls = count_steps(monkeypatch)
        value = ggqd_general(st).value
        assert (len(calls) - 2) // 2 < 1000  # two steps per sweep
        assert value == pytest.approx(ggqd_matrix_form(st).value, abs=1e-13)
        assert value <= ggqd_bruteforce(st).value + 1e-12

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
        # budget here; extrapolating along each sweep's move alone needed 453,
        # with the minimal-polynomial limit of each step's three sweeps 33,
        # later 28; with the trial points on the line from the last sweep to
        # that limit it needs 13
        p = XStateParams(
            0.2281344028399197,
            0.1328427994509377,
            0.17639795968446825,
            0.46262483802467436,
            0.0018533264491703435 - 0.26981860858180895j,
            2.4961365755356412e-05 - 1.5048980987870726e-05j,
        )
        calls = count_steps(monkeypatch)
        value = ggqd_general(x_state(p)).value
        assert value == pytest.approx(ggqd_x(normalize_x_phases(p).normalized).value, abs=1e-12)
        assert (len(calls) - 2) // 2 < 100  # two steps per sweep

    @pytest.mark.parametrize("p", [None, 0.1, 1 / 3, 0.6, 1.0])
    def test_quiet_first_sweep_ends_stage_one(self, monkeypatch, p):
        # every start of I/4 and of these Werner states begins at a maximum,
        # so the ascent ends on its first sweep: one b-step for the side-A
        # starts, one sweep (two steps) and the closing a-step; a full
        # three-sweep step would make eight
        st = maximally_mixed() if p is None else validate_density(werner_state(p))
        calls = count_steps(monkeypatch)
        ggqd_general(st)
        assert len(calls) == 4

    def test_far_below_starts_retire(self, monkeypatch):
        # state #362 of this pool: a start crawling along the flat ring far
        # below the best used 19 998 of the 20 000 sweeps before such starts
        # were retired, 34 after; the value did not move.  With the trial
        # points on the line to each step's limit it needs 10
        rng = np.random.default_rng(2026)
        for _ in range(363):
            m = degenerate_t_state(rng)
        st = validate_density(m)
        calls = count_steps(monkeypatch)
        value = ggqd_general(st).value
        assert (len(calls) - 2) // 2 < 100  # two steps per sweep
        assert value == pytest.approx(ggqd_matrix_form(st).value, abs=1e-13)
        assert value <= ggqd_bruteforce(st).value + 1e-12

    def test_second_maximum_start_retires(self, monkeypatch):
        # X state #745 of this pool: a start crawling toward a second maximum
        # 4e-4 below the top took 294 sweeps before it was retired, 67 after,
        # and 22 with the trial points on the line to each step's limit
        rng = np.random.default_rng(11)
        for _ in range(746):
            p = random_x_params(rng)
        calls = count_steps(monkeypatch)
        value = ggqd_general(x_state(p)).value
        assert (len(calls) - 2) // 2 < 100  # two steps per sweep
        assert value == pytest.approx(ggqd_x(normalize_x_phases(p).normalized).value, abs=1e-12)

    def test_near_equal_third_singular_value_converges(self, monkeypatch):
        # state #1004 of this pool: T's singular values 0.1741, 0.1741 and
        # 0.1615 with |x| 1.6e-4 and |y| 1.3e-3; near-top starts crawled for
        # 4 432 sweeps when each step tried multiples of its last move and
        # the limit of its three sweeps apart, 13 with the trial points on
        # the line to that limit, to the same value
        rng = np.random.default_rng(2026)
        for _ in range(1005):
            m = degenerate_t_state(rng)
        st = validate_density(m)
        calls = count_steps(monkeypatch)
        value = ggqd_general(st).value
        assert (len(calls) - 2) // 2 < 100  # two steps per sweep
        assert value == pytest.approx(ggqd_matrix_form(st).value, abs=1e-13)
        assert value <= ggqd_bruteforce(st).value + 1e-12

    def test_degenerate_t_pools_converge_quickly(self, monkeypatch):
        # with separate move multiples and limit, 12 of these 300 states took
        # more than 100 sweeps, the worst 1 885 (seed 5, #39); with the trial
        # points on the line to each step's limit none takes more than 19
        calls = count_steps(monkeypatch)
        for seed in (2026, 11, 5):
            rng = np.random.default_rng(seed)
            for i in range(100):
                st = validate_density(degenerate_t_state(rng))
                calls.clear()
                ggqd_general(st)
                assert (len(calls) - 2) // 2 < 50, (seed, i)  # two steps per sweep

    def test_guard_fires_when_sweeps_run_out(self, monkeypatch):
        monkeypatch.setattr(measures, "_MAX_SWEEPS", 1)
        rng = np.random.default_rng(30)
        for _ in range(20):
            with pytest.raises(OptimizerDidNotConverge):
                ggqd_general(random_density(rng))


class TestClosedReferences:
    def test_channel_states_attain_side_b_dakic(self):
        # with x = 0 the best side-A axis scores (b.y)^2 + |T b|^2 for each
        # b, so GGQD is Dakic's form on side B, GD_B; the grid oracle may sit
        # just above it, never below
        rng = np.random.default_rng(60)
        for _ in range(40):
            m = channel_state(rng)
            st = validate_density(m)
            assert np.abs(bloch_decompose(st).x).max() < 1e-14
            gd_b = side_b_dakic(m)
            for evaluator in (ggqd_general, ggqd_matrix_form):
                assert abs(evaluator(st).value - gd_b) <= 1e-12, evaluator.__name__
            assert gd_b - 1e-12 <= ggqd_bruteforce(st).value <= gd_b + 1e-10

    @pytest.mark.parametrize("make", [
        lambda rng: random_density(rng).matrix, pure_state, rank2_state, product_state,
        degenerate_t_state, channel_state,
    ], ids=["ginibre", "pure", "rank2", "product", "degenerate_t", "channel"])
    def test_general_within_dakic_bracket(self, make):
        # max(GD_A, GD_B) <= GGQD <= min(GD_A + |y|^2/4, GD_B + |x|^2/4): the
        # upper edges measure side A along T b* / |T b*| at the side-B Dakic
        # axis b*, and the mirror of that
        rng = np.random.default_rng(61)
        for _ in range(30):
            m = make(rng)
            st = validate_density(m)
            b = bloch_decompose(st)
            gd_a, gd_b = gd_dakic(st).value, side_b_dakic(m)
            value = ggqd_general(st).value
            assert max(gd_a, gd_b) - 1e-12 <= value
            assert value <= min(gd_a + b.y @ b.y / 4.0, gd_b + b.x @ b.x / 4.0) + 1e-12


def _step_rows(scale):
    """(u, v stack) pairs for the closed-form step at one scale: u = 0, v = 0,
    both, u parallel and antiparallel to v, an exact tie (|u| = |v|, u
    orthogonal to v), near ties, and lengths far apart either way."""
    rng = np.random.default_rng(50)
    u = rng.normal(size=3)
    u *= scale / np.linalg.norm(u)
    ortho = np.cross(u, rng.normal(size=3))
    ortho *= scale / np.linalg.norm(ortho)
    zero = np.zeros(3)
    vs = np.array([
        zero, u, -u, 0.3 * u, -3.0 * u, ortho, -ortho, ortho * (1 + 1e-15),
        ortho + 1e-16 * scale * u, 1e-9 * ortho, 1e9 * ortho, 1e-9 * u + ortho,
        *(scale * rng.normal(size=(4, 3))),
    ])
    yield u, vs
    yield zero, vs
    yield np.array([scale, 0.0, 0.0]), scale * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    yield 1e-9 * u, vs
    yield 1e9 * u, vs


class TestPolynomialLimit:
    def test_limit_of_two_mode_paths(self):
        # b_{j+1} - b* = M (b_j - b*) for a map M with two modes and a first
        # deviation in their span: three moves fix its minimal polynomial,
        # so the limit is b*, returned as a unit vector up to sign
        rng = np.random.default_rng(70)
        paths, targets = [], []
        for _ in range(5):
            modes = rng.normal(size=(3, 3))
            m = modes @ np.diag([*rng.uniform(-0.9, 0.95, size=2), 0.0]) @ np.linalg.inv(modes)
            target = rng.normal(size=3)
            dev = 0.1 * modes[:, :2] @ rng.normal(size=2)
            path = [target + dev]
            for _ in range(3):
                dev = m @ dev
                path.append(target + dev)
            paths.append(path)
            targets.append(target / np.linalg.norm(target))
        limit = measures._polynomial_limit(np.array(paths))
        for got, want in zip(limit, targets):
            assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= 1e-12

    def test_parallel_or_no_moves_keep_last_point(self):
        # exactly parallel moves (eighths, exact in binary) leave the 2x2
        # fit singular and every coefficient exactly zero, as does a path
        # that does not move: the last point comes back unchanged
        start = np.array([0.25, -0.5, 0.875])
        move = np.array([0.125, 0.375, -0.25])
        paths = np.array([
            [start + k * move for k in (0.0, 1.0, 1.5, 1.75)],
            [start - k * move for k in (0.0, 2.0, 1.0, 3.0)],
            [start] * 4,
        ])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            limit = measures._polynomial_limit(paths)
        assert np.array_equal(limit, paths[:, -1])


class TestRank2Step:
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-3, 1.0, 10.0])
    def test_top_eigenvector_of_adversarial_rows(self, scale):
        for u, vs in _step_rows(scale):
            w = measures._rank2_top(u, vs)
            assert np.abs(np.linalg.norm(w, axis=-1) - 1.0).max() <= 1e-15
            for wi, v in zip(w, vs):
                mat = np.outer(u, u) + np.outer(v, v)
                top = np.linalg.eigvalsh(mat)[-1]
                quad = (wi @ u) ** 2 + (wi @ v) ** 2
                assert abs(quad - top) <= 1e-15 * (u @ u + v @ v), (u, v)

    def test_fixed_rule_on_exact_ties(self):
        u = np.array([0.0, 0.6, 0.0])
        w = measures._rank2_top(u, np.array([[0.0, 0.0, 0.6], [0.0, 0.0, 0.0]]))
        assert np.array_equal(w, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(measures._rank2_top(np.zeros(3), np.zeros((1, 3))),
                              [[0.0, 0.0, 1.0]])


class TestSharedBlochForm:
    def test_values_do_not_depend_on_call_order(self):
        rng = np.random.default_rng(51)
        for m in [random_density(rng).matrix, pure_state(rng), werner_state(0.6)]:
            one, two = validate_density(m), validate_density(m)
            gd_first, gg_second = gd_dakic(one), ggqd_general(one)
            gg_first, gd_second = ggqd_general(two), gd_dakic(two)
            for x, y in ((gd_first, gd_second), (gg_first, gg_second)):
                assert x.value == y.value
                for a, b in zip(x.maximizer, y.maximizer):
                    assert a is b is None or np.array_equal(a.n, b.n)


def _local_unitary(angles):
    """exp(-i a Z/2) exp(-i b Y/2) exp(-i c Z/2): every qubit unitary up to a
    global phase."""
    a, b, c = angles
    rz_a = np.diag(np.exp([-0.5j * a, 0.5j * a]))
    rz_c = np.diag(np.exp([-0.5j * c, 0.5j * c]))
    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    return rz_a @ ry @ rz_c


_ANGLES = st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 3)
_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _density(draw):
    """G G^+ / tr from an entrywise-drawn 4x4 G: zeros in G give pure, rank-2
    and other rank-deficient states."""
    g = np.array(draw(st.lists(_UNIT, min_size=32, max_size=32))).reshape(2, 4, 4)
    g = g[0] + 1j * g[1]
    m = g @ g.conj().T
    if np.trace(m).real < 1e-3:
        m = m + np.eye(4)
    return m / np.trace(m).real


@st.composite
def _qubit(draw):
    r = np.array(draw(st.tuples(_UNIT, _UNIT, _UNIT)))
    r /= max(1.0, float(np.linalg.norm(r)))
    return 0.5 * (np.eye(2) + r[0] * np.array([[0, 1], [1, 0]])
                  + r[1] * np.array([[0, -1j], [1j, 0]]) + r[2] * np.diag([1, -1]))


@st.composite
def _classical(draw):
    """sum_ij p_ij |i><i| (x) |j><j| in local bases drawn at random."""
    p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    p = p / p.sum() if p.sum() > 1e-3 else np.full(4, 0.25)
    u = np.kron(_local_unitary(draw(_ANGLES)), _local_unitary(draw(_ANGLES)))
    return u @ np.diag(p) @ u.conj().T


@st.composite
def _x_params(draw):
    """A phased X state: populations from four draws in [0, 1] (zeros give
    rank-deficient states), corner moduli anywhere up to their positivity
    bounds, and phases anywhere on the circle."""
    d = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    d = d / d.sum() if d.sum() > 1e-3 else np.full(4, 0.25)
    f03, f12 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    ph03, ph12 = draw(st.floats(0.0, 2.0 * np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    a03 = f03 * np.sqrt(d[0] * d[3]) * np.exp(1j * ph03)
    a12 = f12 * np.sqrt(d[1] * d[2]) * np.exp(1j * ph12)
    return XStateParams(*d, a03, a12)


_PROPERTY_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None)


class TestMeasureProperties:
    # GD <= 1/2: Dakic, Vedral & Brukner, PRL 105, 190502 (2010);
    # GGQD >= GD holds for every two-qubit state (proof in cli.cmd_verify)
    @_PROPERTY_SETTINGS
    @given(m=_density(), angles_a=_ANGLES, angles_b=_ANGLES)
    def test_bounds_and_invariances(self, m, angles_a, angles_b):
        state = validate_density(m)
        gd_v, gg_v = gd_dakic(state).value, ggqd_general(state).value
        assert 0.0 <= gd_v <= 0.5
        assert gg_v >= gd_v - 1e-10
        u = np.kron(_local_unitary(angles_a), _local_unitary(angles_b))
        rotated = validate_density(u @ m @ u.conj().T)
        assert gd_dakic(rotated).value == pytest.approx(gd_v, abs=1e-10)
        assert ggqd_general(rotated).value == pytest.approx(gg_v, abs=1e-10)
        swapped = validate_density(SWAP @ m @ SWAP)
        assert ggqd_general(swapped).value == pytest.approx(gg_v, abs=1e-12)

    @_PROPERTY_SETTINGS
    @given(m=_density(), angles_a=_ANGLES, angles_b=_ANGLES)
    def test_matrix_form_invariances(self, m, angles_a, angles_b):
        # ggqd_matrix_form is a separate route through the correlation matrix
        state = validate_density(m)
        mf_v = ggqd_matrix_form(state).value
        assert mf_v == pytest.approx(ggqd_general(state).value, abs=1e-9)
        u = np.kron(_local_unitary(angles_a), _local_unitary(angles_b))
        rotated = validate_density(u @ m @ u.conj().T)
        assert ggqd_matrix_form(rotated).value == pytest.approx(mf_v, abs=1e-10)
        swapped = validate_density(SWAP @ m @ SWAP)
        assert ggqd_matrix_form(swapped).value == pytest.approx(mf_v, abs=1e-10)

    @_PROPERTY_SETTINGS
    @given(p=_x_params())
    def test_x_closed_forms_match_numeric(self, p):
        # the closed forms take the phase-normalized parameters; the general
        # evaluators see the phased state, a local unitary away from it
        normalized = normalize_x_phases(p).normalized
        state = x_state(p)
        gd_v, gg_v = gd_x(normalized).value, ggqd_x(normalized).value
        assert gd_v == pytest.approx(gd_dakic(state).value, abs=1e-10)
        assert gg_v == pytest.approx(ggqd_general(state).value, abs=1e-8)
        assert gap_x(normalized) == pytest.approx(gg_v - gd_v, abs=1e-12)

    @_PROPERTY_SETTINGS
    @given(m=st.one_of(st.builds(np.kron, _qubit(), _qubit()), _classical()))
    def test_zero_without_correlations(self, m):
        state = validate_density(m)
        assert 0.0 <= gd_dakic(state).value <= 1e-12
        assert 0.0 <= ggqd_general(state).value <= 1e-12
