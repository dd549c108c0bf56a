"""Two-qubit density-matrix primitives.

Validation, Bloch (Pauli) decomposition, reconstruction, projective
measurements, and purity for 4x4 density matrices.  Everything downstream
(closed-form correlation measures, the brute-force measurement search, the
worked example families) is built on the operations defined here.

Conventions: qubit A is the first tensor factor, so basis order is
|00>, |01>, |10>, |11> with the A index varying slowest.  Bloch data is
    x_i = tr(rho (sigma_i x I)),  y_j = tr(rho (I x sigma_j)),
    T_ij = tr(rho (sigma_i x sigma_j)),
and the purity identity (1 + |x|^2 + |y|^2 + |T|^2)/4 = tr(rho^2) holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Validation tolerances: entrywise Hermiticity, unit trace and PSD eigenvalue
# cutoff.
TOL_HERM = 1e-12
TOL_TRACE = 1e-12
TOL_PSD = 1e-10
# Imaginary residue allowed in Pauli expectation values before it is an error.
TOL_IMAG = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# sigma_a (x) sigma_b at index 4 a + b, for a and b in (I, x, y, z)
_PAULI_PRODUCTS = np.array([np.kron(a, b) for a in (IDENTITY_2, *PAULI)
                            for b in (IDENTITY_2, *PAULI)])
# tr(rho P) sums rho[i, k] P[k, i] over the one nonzero P[k, i] of each
# column i: per product, the flat indices 4 i + k of rho and the phases
_p, _i, _k = np.nonzero(_PAULI_PRODUCTS.transpose(0, 2, 1))
_TRACE_INDEX = (4 * _i + _k).reshape(16, 4)
_TRACE_PHASE = _PAULI_PRODUCTS[_p, _k, _i].reshape(16, 4)
# reconstruct's terms: per entry 4 r + c of rho, the four products nonzero
# there, in the order they are added (I, then (i, 0), (0, i), (i, 1..3) for
# i = 1..3), and their entries at (r, c)
_order = np.array([0] + [q for i in (1, 2, 3) for q in (4 * i, i, *range(4 * i + 1, 4 * i + 4))])
_e, _n = np.nonzero(_PAULI_PRODUCTS[_order].reshape(16, 16).T)
_TERM_INDEX = _order[_n].reshape(16, 4)
_TERM_PHASE = _PAULI_PRODUCTS.reshape(16, 16)[_TERM_INDEX, _e.reshape(16, 4)]
for _table in (_PAULI_PRODUCTS, _TRACE_INDEX, _TRACE_PHASE, _TERM_INDEX, _TERM_PHASE):
    _table.flags.writeable = False
del _p, _i, _k, _order, _e, _n, _table


class DensityValidationError(ValueError):
    """A candidate density matrix violates one or more invariants.

    ``violations`` lists ``(name, magnitude)`` pairs for every failed
    invariant, not just the one the raised subclass is named after.
    """

    def __init__(self, message: str, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class NonFinite(DensityValidationError):
    """Input contains NaN or infinite entries."""


class NotHermitian(DensityValidationError):
    """Entrywise deviation from the conjugate transpose exceeds TOL_HERM."""


class TraceNotOne(DensityValidationError):
    """|tr(rho) - 1| exceeds TOL_TRACE."""


class NotPSD(DensityValidationError):
    """Smallest eigenvalue lies below -TOL_PSD."""


class ReconstructionNotPSD(NotPSD):
    """Bloch data describes a Hermitian unit-trace matrix that is not PSD."""


class ImaginaryResidue(ValueError):
    """A Pauli expectation value has imaginary part above TOL_IMAG."""


@dataclass(frozen=True)
class DensityMatrix4:
    """A validated 4x4 density matrix.

    Construct through :func:`validate_density`; direct construction runs the
    same checks.  The wrapped array is a read-only copy, so the state keeps
    its Bloch form once :func:`bloch_decompose` has computed it.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DensityValidationError(f"expected a 4x4 matrix, got shape {m.shape}")
        _check_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @functools.cached_property
    def _bloch(self) -> BlochForm:
        # kept only when it returns: an ImaginaryResidue raises on every access
        return _pauli_expectations(self.matrix)


def _check_density(m: np.ndarray) -> None:
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFinite("matrix entries must be finite", [("non_finite", np.inf)])

    violations = []
    # entries near the float limit can make a deviation overflow to inf,
    # which still names the violated invariant
    with np.errstate(over="ignore"):
        herm_dev = float(np.abs(m - m.conj().T).max())
        trace_dev = float(abs(np.trace(m) - 1.0))
    if herm_dev > TOL_HERM:
        violations.append(("not_hermitian", herm_dev))
    if trace_dev > TOL_TRACE:
        violations.append(("trace_not_one", trace_dev))
    # Eigenvalues of the Hermitian part; for near-Hermitian input this is the
    # PSD check, for badly non-Hermitian input the verdict is moot anyway.
    # Halving before the sum keeps every entry finite for LAPACK.
    eigs = np.linalg.eigvalsh(0.5 * m + 0.5 * m.conj().T)
    if eigs[0] < -TOL_PSD:
        violations.append(("not_psd", float(-eigs[0])))

    if violations:
        detail = ", ".join(f"{name} (magnitude {mag:.3e})" for name, mag in violations)
        message = f"invalid density matrix: {detail}"
        first = violations[0][0]
        if first == "not_hermitian":
            raise NotHermitian(message, violations)
        if first == "trace_not_one":
            raise TraceNotOne(message, violations)
        raise NotPSD(message, violations)


def validate_density(matrix) -> DensityMatrix4:
    """Validate a candidate 4x4 density matrix.

    Parameters
    ----------
    matrix : array_like
        Complex 4x4 matrix.

    Returns
    -------
    DensityMatrix4
        The validated, read-only state.

    Raises
    ------
    NonFinite, NotHermitian, TraceNotOne, NotPSD
        The raised subclass names the first violated invariant; the message
        and ``violations`` attribute list every violation with its magnitude.
    """
    return DensityMatrix4(np.asarray(matrix, dtype=complex))


def maximally_mixed() -> DensityMatrix4:
    """Return I/4."""
    return DensityMatrix4(np.eye(4, dtype=complex) / 4.0)


@dataclass(frozen=True)
class MeasurementAxis:
    """A unit vector on the Bloch sphere defining the projector pair
    P(+/-) = (I +/- n.sigma)/2."""

    n: np.ndarray

    def __post_init__(self):
        v = np.array(self.n, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"axis must be a 3-vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("axis components must be finite")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"axis must be unit length, |n| = {norm!r}")
        v.setflags(write=False)
        object.__setattr__(self, "n", v)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "MeasurementAxis":
        """Axis (sin(theta)cos(phi), sin(theta)sin(phi), cos(theta))."""
        st = np.sin(theta)
        return cls(np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)]))

    def projectors(self):
        """Return the rank-1 projector pair (P_plus, P_minus)."""
        nx, ny, nz = self.n
        ns = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z
        return (IDENTITY_2 + ns) / 2.0, (IDENTITY_2 - ns) / 2.0


AXIS_X = MeasurementAxis(np.array([1.0, 0.0, 0.0]))
AXIS_Y = MeasurementAxis(np.array([0.0, 1.0, 0.0]))
AXIS_Z = MeasurementAxis(np.array([0.0, 0.0, 1.0]))


def purity(state: DensityMatrix4) -> float:
    """tr(rho^2)."""
    m = state.matrix
    return float(np.trace(m @ m).real)


@dataclass(frozen=True)
class BlochForm:
    """Bloch decomposition of a two-qubit state: local vectors x (side A),
    y (side B) and the 3x3 correlation matrix T."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        t = np.array(self.T, dtype=float)
        if x.shape != (3,) or y.shape != (3,) or t.shape != (3, 3):
            raise ValueError("BlochForm needs x (3,), y (3,), T (3, 3)")
        for arr in (x, y, t):
            if not np.all(np.isfinite(arr)):
                raise ValueError("Bloch components must be finite")
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "T", t)

    def coefficient_matrix(self) -> np.ndarray:
        """The 4x4 block matrix C = (1/2) [[1, y^t], [x, T]].

        Row/column index 0 carries the identity component and indices 1..3
        the Pauli components, so tr(C C^t) = tr(rho^2).
        """
        c = np.empty((4, 4))
        c[0, 0] = 1.0
        c[0, 1:] = self.y
        c[1:, 0] = self.x
        c[1:, 1:] = self.T
        return c / 2.0


def _pauli_expectations(m: np.ndarray) -> BlochForm:
    e = (m.reshape(16)[_TRACE_INDEX] * _TRACE_PHASE).sum(axis=-1).reshape(4, 4)
    # e[0, 0] is tr(rho), whose imaginary part validation already bounds
    worst = float(np.abs(e.imag).flat[1:].max())
    if worst > TOL_IMAG:
        raise ImaginaryResidue(
            f"Pauli expectation has imaginary residue {worst:.3e} > {TOL_IMAG}"
        )
    return BlochForm(e.real[1:, 0], e.real[0, 1:], e.real[1:, 1:])


def bloch_decompose(state: DensityMatrix4) -> BlochForm:
    """Compute the Bloch form of a validated state.

    The form is computed on the state's first call and kept on the state,
    whose matrix is read-only, so later calls on the same state return the
    same (read-only) BlochForm.  Nothing is shared between states.

    Raises
    ------
    ImaginaryResidue
        If any Pauli expectation value has |Im| > TOL_IMAG, which signals a
        corrupted (non-Hermitian) input rather than round-off.  Such a state
        keeps no form and raises on every call.
    """
    return state._bloch


def reconstruct(bloch: BlochForm) -> DensityMatrix4:
    """Rebuild the density matrix from Bloch data.

    rho = (1/4) [I + sum_i x_i sigma_i x I + sum_j y_j I x sigma_j
                 + sum_ij T_ij sigma_i x sigma_j]

    Raises
    ------
    ReconstructionNotPSD
        If the Bloch data describes a matrix with an eigenvalue below
        -TOL_PSD.  Hermiticity and unit trace hold by construction.
    """
    c = np.concatenate(([1.0], bloch.y, np.column_stack((bloch.x, bloch.T)).ravel()))
    g = c[_TERM_INDEX] * _TERM_PHASE
    # left to right, not pairwise as .sum would; + 0.0 makes an exact zero +0
    m = ((((g[:, 0] + g[:, 1]) + g[:, 2]) + g[:, 3] + 0.0) / 4.0).reshape(4, 4)
    try:
        return DensityMatrix4(m)
    except NotPSD as exc:
        raise ReconstructionNotPSD(str(exc), exc.violations) from None


def apply_measurement(
    state: DensityMatrix4,
    a: MeasurementAxis | None = None,
    b: MeasurementAxis | None = None,
) -> DensityMatrix4:
    """Apply a local projective measurement and discard the outcome.

    rho -> sum_k (Pi_k rho Pi_k) with Pi_k running over the products of the
    supplied projector pairs: P_k(a) x I, I x P_l(b), or P_k(a) x P_l(b) when
    both axes are given.  At least one axis is required.  The map is
    idempotent and preserves trace and Hermiticity.

    Parameters
    ----------
    state : DensityMatrix4
    a, b : MeasurementAxis or None
        Measurement axis on side A and/or side B.

    Returns
    -------
    DensityMatrix4
        The dephased post-measurement state.
    """
    if a is None and b is None:
        raise ValueError("apply_measurement needs at least one axis")
    pa = a.projectors() if a is not None else (IDENTITY_2,)
    pb = b.projectors() if b is not None else (IDENTITY_2,)
    m = state.matrix
    out = np.zeros((4, 4), dtype=complex)
    for p in pa:
        for q in pb:
            pi = np.kron(p, q)
            out += pi @ m @ pi
    return DensityMatrix4(out)
