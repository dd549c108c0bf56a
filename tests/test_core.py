"""Validation, Bloch decomposition, and measurement primitives."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    AXIS_X,
    AXIS_Z,
    DensityValidationError,
    ImaginaryResidue,
    MeasurementAxis,
    NonFinite,
    NotHermitian,
    NotPSD,
    ReconstructionNotPSD,
    TraceNotOne,
    apply_measurement,
    bloch_decompose,
    gd_dakic,
    maximally_mixed,
    purity,
    random_density,
    random_x_params,
    reconstruct,
    validate_density,
    x_state,
)
from geodiscord import core
from geodiscord.core import BlochForm


def kron_loop_bloch(m):
    """Reference Bloch form: one Kronecker product and one trace per Pauli
    expectation, entry by entry."""
    x, y, t = np.empty(3), np.empty(3), np.empty((3, 3))
    for i, si in enumerate(core.PAULI):
        x[i] = np.trace(m @ np.kron(si, core.IDENTITY_2)).real
        y[i] = np.trace(m @ np.kron(core.IDENTITY_2, si)).real
        for j, sj in enumerate(core.PAULI):
            t[i, j] = np.trace(m @ np.kron(si, sj)).real
    return x, y, t


def kron_loop_reconstruct(bloch):
    """Reference reconstruction: the identity plus each Pauli product in
    turn, (i, 0), (0, i), (i, 1), (i, 2), (i, 3) for i = 1..3, then / 4."""
    p = core._PAULI_PRODUCTS.reshape(4, 4, 4, 4)
    m = np.eye(4, dtype=complex)
    for i in range(1, 4):
        m += bloch.x[i - 1] * p[i, 0]
        m += bloch.y[i - 1] * p[0, i]
        for j in range(1, 4):
            m += bloch.T[i - 1, j - 1] * p[i, j]
    m /= 4.0
    return m


def same_bits(got, want):
    """Equal real and imaginary parts, signs of zeros included."""
    return all(
        np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        for a, b in ((got.real, want.real), (got.imag, want.imag))
    )


def bell_phi_plus():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = 0.5
    return m


class TestValidateDensity:
    def test_accepts_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            state = random_density(rng)
            assert abs(np.trace(state.matrix) - 1.0) < 1e-12

    def test_matrix_is_read_only(self):
        state = validate_density(bell_phi_plus())
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 9.0

    def test_rejects_nonfinite(self):
        m = np.eye(4, dtype=complex) / 4
        m[2, 2] = np.nan
        with pytest.raises(NonFinite):
            validate_density(m)

    def test_rejects_nonhermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.2
        with pytest.raises(NotHermitian):
            validate_density(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        # trace is exactly 1, so only positivity fails here
        m = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(NotPSD):
            validate_density(m)

    @pytest.mark.parametrize("entries, first", [
        ({(0, 0): 1e308}, "trace_not_one"),
        ({(0, 0): -1.7e308}, "trace_not_one"),
        ({(0, 0): 1e308, (1, 1): 1e308}, "trace_not_one"),
        ({(0, 1): 1e308, (1, 0): 1e308}, "not_psd"),
        ({(0, 0): 1e308j}, "not_hermitian"),
    ])
    def test_entries_near_float_limit(self, entries, first):
        # sums and differences of such entries overflow; the verdict must
        # still name a violated invariant, with no warning on the way
        m = np.eye(4, dtype=complex) / 4
        for index, value in entries.items():
            m[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DensityValidationError) as exc_info:
                validate_density(m)
        assert exc_info.value.violations[0][0] == first

    def test_multiple_violations_all_reported(self):
        m = np.diag([0.7, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(TraceNotOne) as exc_info:
            validate_density(m)
        names = [name for name, _ in exc_info.value.violations]
        assert "trace_not_one" in names
        assert "not_psd" in names
        assert "not_psd" in str(exc_info.value)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            validate_density(np.eye(3) / 3)


class TestBloch:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            state = random_density(rng)
            back = reconstruct(bloch_decompose(state))
            assert_allclose(back.matrix, state.matrix, atol=1e-14)

    def test_matches_kron_loop_bitwise(self):
        # the product table keeps the loop's arithmetic per entry
        rng = np.random.default_rng(15)
        states = [random_density(rng).matrix for _ in range(20)]
        for rank in (1, 2):
            for _ in range(10):
                g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
                m = g @ g.conj().T
                states.append(m / np.trace(m).real)
        states += [x_state(random_x_params(rng)).matrix for _ in range(10)]
        states += [bell_phi_plus(), maximally_mixed().matrix]
        for m in states:
            b = bloch_decompose(validate_density(m))
            for got, want in zip((b.x, b.y, b.T), kron_loop_bloch(m)):
                assert np.array_equal(got, want)

    def test_reconstruct_matches_kron_loop_bitwise(self):
        # each entry sums its four products in the loop's order, so forms
        # with exact zeros (X states, degenerate_t_state's diagonal T) and
        # general ones rebuild the same bits
        rng = np.random.default_rng(16)
        forms = [bloch_decompose(random_density(rng)) for _ in range(30)]
        forms += [bloch_decompose(x_state(random_x_params(rng))) for _ in range(30)]
        for _ in range(30):
            s = rng.uniform(0.1, 0.3)
            t = np.diag([s, s, rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1.0) * s])
            x, y = (rng.normal(size=3) * 0.01 * (rng.random(3) < 0.5) for _ in range(2))
            forms.append(BlochForm(x, y, t))
            # negated, the zeros are -0, where a sum from 0 ends at +0
            forms.append(BlochForm(-x, -y, -t))
        forms += [bloch_decompose(validate_density(m)) for m in (np.eye(4) / 4, bell_phi_plus())]
        for b in forms:
            assert same_bits(reconstruct(b).matrix, kron_loop_reconstruct(b))

    def test_purity_identity(self):
        # (1 + |x|^2 + |y|^2 + |T|^2) / 4 reproduces tr(rho^2)
        rng = np.random.default_rng(13)
        for _ in range(100):
            state = random_density(rng)
            b = bloch_decompose(state)
            s = b.x @ b.x + b.y @ b.y + np.sum(b.T * b.T)
            assert abs((1.0 + s) / 4.0 - purity(state)) < 1e-12

    def test_coefficient_matrix_trace_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            state = random_density(rng)
            c = bloch_decompose(state).coefficient_matrix()
            assert abs(np.sum(c * c) - purity(state)) < 1e-12

    def test_maximally_mixed_is_origin(self):
        b = bloch_decompose(maximally_mixed())
        assert_allclose(b.x, 0.0, atol=1e-15)
        assert_allclose(b.y, 0.0, atol=1e-15)
        assert_allclose(b.T, 0.0, atol=1e-15)
        assert purity(maximally_mixed()) == pytest.approx(0.25)

    def test_x_state_structure(self):
        # diagonal-plus-antidiagonal states have z-only local vectors and
        # diagonal correlation matrix
        m = np.zeros((4, 4), dtype=complex)
        d = [0.4, 0.3, 0.2, 0.1]
        np.fill_diagonal(m, d)
        m[0, 3] = m[3, 0] = 0.15
        m[1, 2] = m[2, 1] = 0.2
        b = bloch_decompose(validate_density(m))
        assert_allclose(b.x[:2], 0.0, atol=1e-15)
        assert b.x[2] == pytest.approx(d[0] + d[1] - d[2] - d[3])
        assert b.y[2] == pytest.approx(d[0] - d[1] + d[2] - d[3])
        assert b.T[0, 0] == pytest.approx(2 * (0.2 + 0.15))
        assert b.T[1, 1] == pytest.approx(2 * (0.2 - 0.15))
        assert b.T[2, 2] == pytest.approx(d[0] - d[1] - d[2] + d[3])
        off = b.T - np.diag(np.diag(b.T))
        assert_allclose(off, 0.0, atol=1e-15)

    def test_imaginary_residue_rejected(self):
        # Hermitian to 0.9e-12, so validation passes, but the imaginary
        # parts add up in tr(rho (sigma_x x I)) to 1.8e-12 > TOL_IMAG
        m = np.eye(4, dtype=complex) / 4
        for i, j in ((0, 2), (2, 0), (1, 3), (3, 1)):
            m[i, j] = 0.45e-12j
        state = validate_density(m)
        # no form is kept, so every call raises, not only the first
        for call in (bloch_decompose, bloch_decompose, gd_dakic):
            with pytest.raises(ImaginaryResidue):
                call(state)

    def test_form_is_computed_once_per_state(self, monkeypatch):
        calls = []
        expectations = core._pauli_expectations
        monkeypatch.setattr(
            core, "_pauli_expectations", lambda m: calls.append(1) or expectations(m)
        )
        state = random_density(np.random.default_rng(19))
        first = bloch_decompose(state)
        assert bloch_decompose(state) is first
        assert len(calls) == 1
        # a new state built from the same matrix computes its own
        again = bloch_decompose(validate_density(state.matrix))
        assert len(calls) == 2
        for a, b in ((first.x, again.x), (first.y, again.y), (first.T, again.T)):
            assert np.array_equal(a, b) and not a.flags.writeable

    def test_reconstruct_rejects_unphysical(self):
        t = np.diag([1.0, 1.0, 1.0])  # not a valid correlation matrix alone
        bad = BlochForm(np.array([0.9, 0.0, 0.0]), np.zeros(3), t)
        with pytest.raises(ReconstructionNotPSD):
            reconstruct(bad)


class TestProductTables:
    def test_one_nonzero_per_row_and_column(self):
        nonzero = core._PAULI_PRODUCTS != 0
        assert (nonzero.sum(axis=1) == 1).all() and (nonzero.sum(axis=2) == 1).all()

    def test_phases_are_units(self):
        for phases in (core._TRACE_PHASE, core._TERM_PHASE):
            assert phases.shape == (16, 4)
            assert np.isin(phases, [1, -1, 1j, -1j]).all()

    def test_tables_are_read_only(self):
        for table in (core._PAULI_PRODUCTS, core._TRACE_INDEX, core._TRACE_PHASE,
                      core._TERM_INDEX, core._TERM_PHASE):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 0

    def test_gather_matches_trace_bitwise(self):
        # non-Hermitian input keeps imaginary parts, which the residue rule
        # reads, so those must be the trace's bits too
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            gathered = (m.reshape(16)[core._TRACE_INDEX] * core._TRACE_PHASE).sum(axis=-1)
            traces = np.array([np.trace(m @ p) for p in core._PAULI_PRODUCTS])
            assert same_bits(gathered, traces)


class TestMeasurementAxis:
    def test_from_angles_unit(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            axis = MeasurementAxis.from_angles(
                rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            )
            assert np.linalg.norm(axis.n) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            MeasurementAxis(np.array([1.0, 1.0, 0.0]))

    def test_projectors(self):
        p_plus, p_minus = MeasurementAxis.from_angles(1.1, 2.3).projectors()
        assert_allclose(p_plus + p_minus, np.eye(2), atol=1e-15)
        assert_allclose(p_plus @ p_plus, p_plus, atol=1e-15)
        assert_allclose(p_plus @ p_minus, 0.0, atol=1e-15)


class TestApplyMeasurement:
    def test_requires_an_axis(self):
        state = maximally_mixed()
        with pytest.raises(ValueError):
            apply_measurement(state)

    def test_idempotent(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            state = random_density(rng)
            a = MeasurementAxis.from_angles(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            b = MeasurementAxis.from_angles(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            once = apply_measurement(state, a=a, b=b)
            twice = apply_measurement(once, a=a, b=b)
            assert_allclose(twice.matrix, once.matrix, atol=1e-14)

    def test_fixes_maximally_mixed(self):
        out = apply_measurement(maximally_mixed(), a=AXIS_X, b=AXIS_Z)
        assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-15)

    def test_one_sided_keeps_other_marginal(self):
        rng = np.random.default_rng(17)
        state = random_density(rng)
        out = apply_measurement(state, a=AXIS_Z)
        before = state.matrix.reshape(2, 2, 2, 2)
        after = out.matrix.reshape(2, 2, 2, 2)
        # partial trace over A is untouched by an A-side measurement
        assert_allclose(
            np.einsum("imin->mn", after), np.einsum("imin->mn", before), atol=1e-14
        )

    def test_dephases_bell_to_half_purity(self):
        state = validate_density(bell_phi_plus())
        out = apply_measurement(state, a=AXIS_Z, b=AXIS_Z)
        assert purity(out) == pytest.approx(0.5, abs=1e-14)
