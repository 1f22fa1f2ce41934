"""Tolerance-aware dense linear algebra primitives.

All rank, null-space and subspace decisions in this package flow through the
one SVD helper here, parameterized by a single :class:`ToleranceConfig`, so
that the iterative subspace pruning never mixes inconsistent thresholds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantViolation, InvalidInput

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "EigenpairSet",
    "SnapshotFactor",
    "snapshot_factor",
    "numerical_rank",
    "null_space_basis",
    "pseudo_inverse",
    "eig",
    "orthonormal_range",
    "principal_angles",
    "subspace_equal",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared numerical thresholds.

    Attributes
    ----------
    rank_rtol : float
        Relative singular-value threshold.  A singular value of a matrix
        counts toward its rank when it exceeds ``rank_rtol * sigma_max *
        cols``, both read off that matrix alone, so decisions do not change
        with the sample count; each SSD loop keeps the threshold of its
        first round.
    eig_match_atol : float
        Absolute tolerance for matching eigenvalues and eigenvector residuals
        in the forward-backward comparison.
    subspace_atol : float
        Largest principal angle (radians) below which two subspaces are
        considered equal.
    """

    rank_rtol: float = 1e-10
    eig_match_atol: float = 1e-8
    subspace_atol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "eig_match_atol", "subspace_atol"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidInput(f"{name} must be finite and strictly positive, "
                                   f"got {value}")


DEFAULT_TOL = ToleranceConfig()


def _as_matrix(M, name="matrix", allow_complex=False):
    arr = np.asarray(M)
    if arr.ndim != 2:
        raise InvalidInput(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        if not allow_complex:
            raise InvalidInput(f"{name} must be real-valued")
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


def _threshold(s, tol):
    """``rank_rtol * sigma_max * cols`` of the zero-padded singular values s."""
    return tol.rank_rtol * (s[0] if s.size else 0.0) * s.size


def _svd(M, tol, threshold=None):
    """``(U, s, V, rank)`` of M under the one rank rule of the package.

    s is descending and zero-padded to cols, V holds all cols right singular
    vectors, and ``rank`` counts the s above ``threshold``, by default
    :func:`_threshold` of M's own s.  Row counts do not enter, so M and its
    R factor (or any row-duplicated copy of M) get the same decisions.
    """
    M = _as_matrix(M, "M", allow_complex=True)
    n, cols = M.shape
    U, s, Vh = np.linalg.svd(M, full_matrices=n < cols)
    s = np.pad(s, (0, cols - s.size))
    if threshold is None:
        threshold = _threshold(s, tol)
    return U, s, Vh.conj().T, int(np.sum(s > threshold))


def _pair(A, B, names=("DX", "DY")):
    A = _as_matrix(A, names[0])
    B = _as_matrix(B, names[1])
    if A.shape != B.shape:
        raise InvalidInput(f"{names[0]} and {names[1]} differ in shape: "
                           f"{A.shape} vs {B.shape}")
    return A, B


@dataclass(frozen=True)
class SnapshotFactor:
    """Blocks of ``min(N, 2N_d)`` rows with ``[DX, DY] = Q [RX, RY]``.

    They have the singular values and right singular vectors of ``[DX, DY]``
    (and of any column subset), so every rank decision on them equals the
    decision on the N-row data."""

    RX: np.ndarray
    RY: np.ndarray


# Rows per block of the streamed QR: one 16,384 x 2N_d block of the degree-7
# dictionary (N_d = 36) takes 9.4 MB.
_BLOCK_ROWS = 16_384


def _factor_blocks(rows, n_d, fill):
    """The :class:`SnapshotFactor` of the N x 2N_d matrix ``[DX, DY]``, built
    one row block at a time (TSQR).

    ``fill(M, start)`` writes rows ``start : start + len(M)`` of ``[DX, DY]``
    into the Fortran-ordered block M.  Each block is reduced to its R factor;
    the stacked block factors are merged by one more QR.
    """
    if rows == 0 or n_d == 0:
        return SnapshotFactor(np.zeros((0, n_d)), np.zeros((0, n_d)))
    M = np.empty((min(rows, _BLOCK_ROWS), 2 * n_d), order="F")
    factors = []
    for start in range(0, rows, _BLOCK_ROWS):
        block = M[:min(_BLOCK_ROWS, rows - start)]
        fill(block, start)
        factors.append(np.linalg.qr(block, mode="r"))
    R = np.linalg.qr(np.vstack(factors), mode="r")
    return SnapshotFactor(R[:, :n_d], R[:, n_d:])


def snapshot_factor(DX, DY):
    """The :class:`SnapshotFactor` of N-row snapshot matrices DX, DY.

    DX and DY are validated, then read one row block at a time and never
    overwritten.  A factor passed as DX, with DY None, is returned as it is.
    """
    if isinstance(DX, SnapshotFactor) and DY is None:
        return DX
    DX, DY = _pair(DX, DY)
    rows, n_d = DX.shape

    def fill(M, start):
        M[:, :n_d] = DX[start:start + len(M)]
        M[:, n_d:] = DY[start:start + len(M)]

    return _factor_blocks(rows, n_d, fill)


def numerical_rank(M, tol=DEFAULT_TOL):
    """Number of singular values of M above the relative rank threshold."""
    return _svd(M, tol)[3]


def null_space_basis(M, tol=DEFAULT_TOL):
    """Orthonormal basis of the numerical null space of M.

    Returns an array of shape ``(cols, cols - rank)`` whose columns are the
    trailing right singular vectors of M; the array has zero columns when
    the null space is trivial.  ``M @ Z`` is tolerance-small by construction
    and ``numerical_rank(M, tol) + Z.shape[1] == cols`` always holds.
    """
    _, _, V, rank = _svd(M, tol)
    return V[:, rank:]


def pseudo_inverse(M, tol=DEFAULT_TOL):
    """Moore-Penrose pseudo-inverse with singular values truncated at the
    same relative threshold used for rank decisions."""
    return _pinv(*_svd(M, tol))


def _pinv(U, s, V, r):
    """The pseudo-inverse from the ``(U, s, V, rank)`` of :func:`_svd`."""
    # U^H scaled by the reciprocals, as numpy.linalg.pinv does, to round the same
    return V[:, :r] @ ((1.0 / s[:r, None]) * U[:, :r].conj().T)


@dataclass(frozen=True)
class EigenpairSet:
    """Right eigenpairs of a real square matrix.

    Eigenvectors are unit 2-norm columns with the largest-magnitude entry
    (the first within a relative 1e-8 of it) rotated onto the positive real
    axis.  Non-real eigenvalues appear in exactly conjugate adjacent pairs
    (the second member's eigenvector is the exact conjugate of the first's);
    ``conj_partner[i]`` gives the index of the pair member, or -1 for real
    eigenvalues.
    """

    values: np.ndarray
    vectors: np.ndarray
    is_real: np.ndarray
    conj_partner: np.ndarray

    def __len__(self):
        return self.values.size

    def pairs(self):
        """Iterate over (eigenvalue, eigenvector-column) tuples."""
        for j in range(len(self)):
            yield self.values[j], self.vectors[:, j]


def _normalize_eigenvector(v):
    v = v / np.linalg.norm(v)
    mag = np.abs(v)
    # the first entry within a relative 1e-8 of the largest magnitude, so
    # equal-magnitude entries (x1 and i x2 of x1 - i x2) do not trade places
    # under rounding
    j = int(np.argmax(mag >= (1.0 - 1e-8) * mag.max()))
    phase = v[j] / abs(v[j])
    return v * np.conj(phase)


def eig(M):
    """All eigenvalue / right-eigenvector pairs of a real square matrix.

    Raises
    ------
    InvalidInput
        If M is not square, real and finite.
    """
    M = _as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise InvalidInput(f"eig requires a square matrix, got shape {M.shape}")
    lam, V = np.linalg.eig(M)
    k = lam.size
    values = np.asarray(lam, dtype=np.complex128).copy()
    vectors = np.asarray(V, dtype=np.complex128).copy()
    is_real = np.zeros(k, dtype=bool)
    partner = np.full(k, -1, dtype=np.intp)
    j = 0
    while j < k:
        if values[j].imag == 0.0:
            is_real[j] = True
            vectors[:, j] = _normalize_eigenvector(vectors[:, j])
            j += 1
            continue
        # LAPACK dgeev emits complex conjugate pairs adjacently with exactly
        # conjugate eigenvalues and eigenvectors.
        if j + 1 >= k or values[j + 1] != np.conj(values[j]):
            raise InternalInvariantViolation(
                "eigendecomposition did not produce adjacent conjugate pairs"
            )
        v = _normalize_eigenvector(vectors[:, j])
        vectors[:, j] = v
        vectors[:, j + 1] = np.conj(v)
        values[j + 1] = np.conj(values[j])
        partner[j] = j + 1
        partner[j + 1] = j
        j += 2
    return EigenpairSet(values=values, vectors=vectors, is_real=is_real,
                        conj_partner=partner)


def orthonormal_range(M, tol=DEFAULT_TOL):
    """Orthonormal basis (columns) of the numerical column span of M."""
    U, _, _, rank = _svd(M, tol)
    return U[:, :rank]


def _range_angles(P, Q, tol):
    """Dimensions of the numerical spans of P and Q, and their principal
    angles (ascending; empty when either span is trivial)."""
    P = _as_matrix(P, "P", allow_complex=True)
    Q = _as_matrix(Q, "Q", allow_complex=True)
    if P.shape[0] != Q.shape[0]:
        raise InvalidInput("P and Q must have the same number of rows")
    QP = orthonormal_range(P, tol)
    QQ = orthonormal_range(Q, tol)
    if QP.shape[1] == 0 or QQ.shape[1] == 0:
        return QP.shape[1], QQ.shape[1], np.zeros(0)
    # cosine/sine composite (Knyazev & Argentati 2002): cosines resolve the
    # large angles, sines of the residual of one basis against the other the
    # angles below pi/4, which cosines lose to rounding
    cross = QP.conj().T @ QQ
    cos = np.linalg.svd(cross, compute_uv=False)
    if QP.shape[1] >= QQ.shape[1]:
        residual = QQ - QP @ cross
    else:
        residual = QP - QQ @ cross.conj().T
    sin = np.linalg.svd(residual, compute_uv=False)[::-1]
    angles = np.where(cos ** 2 >= 0.5, np.arcsin(np.clip(sin, -1.0, 1.0)),
                      np.arccos(np.clip(cos, -1.0, 1.0)))
    return QP.shape[1], QQ.shape[1], np.sort(angles)


def principal_angles(P, Q, tol=DEFAULT_TOL):
    """Principal angles (radians, ascending) between the column spans of P and Q.

    The spans are orthonormalized at the shared rank threshold first; the
    angles themselves come from the cosine/sine-composite algorithm, which
    stays accurate for angles far below sqrt(machine eps).
    """
    return _range_angles(P, Q, tol)[2]


def subspace_equal(P, Q, tol=DEFAULT_TOL):
    """True iff the column spans of P and Q coincide.

    Spans of different dimension are unequal; otherwise equality means every
    principal angle is at most ``tol.subspace_atol``.
    """
    dim_p, dim_q, angles = _range_angles(P, Q, tol)
    return bool(dim_p == dim_q and (angles.size == 0 or angles.max() <= tol.subspace_atol))
