"""Tolerance-aware dense linear algebra primitives.

All rank, null-space and subspace decisions in this package flow through the
one SVD helper here, parameterized by a single :class:`ToleranceConfig`, so
that the iterative subspace pruning never mixes inconsistent thresholds.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

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


# Bytes and most rows per block of the streamed QR: a block has
# min(_BLOCK_ROWS, _BLOCK_BYTES // (16 N_d)) rows of the 2N_d columns, so a
# wide dictionary gets fewer rows.  The dictionary is evaluated into the
# block and LAPACK factors it in place, so a block takes its own bytes:
# 6.0 MB at 10,416 x 72 for the degree-7 dictionary (N_d = 36).  With it,
# Van der Pol at degree 7 (ssd-approx) peaks at 37.2 MB in identify and
# 37.3 MB in verify at N = 1e5, and at 39.7 and 39.8 MB at N = 1e6 (2
# OpenBLAS threads), about 29 MB of it the interpreter and numpy.  Below
# about 10,000 rows the factor of that dictionary slows down.  The block
# size and the merge rule fix the tree of QRs, and with it every bit of the
# factor, so they stay as they are.
_BLOCK_BYTES = 6_000_000
_BLOCK_ROWS = 16_384


def _qr_r(M, rows, work):
    """The R factor of the first ``rows`` rows of the Fortran-ordered M.

    LAPACK ``dgeqrf`` overwrites those rows of M with its Householder
    reflectors, as ``numpy.linalg.qr(mode="r")`` does to its own copy, so R
    is the same bit for bit.  ``work`` is the workspace of
    :func:`_qr_workspace` for M's column count.
    """
    n = M.shape[1]
    tau = np.empty(min(rows, n))
    info = lapack_lite.dgeqrf(rows, n, M.T, M.shape[0], tau, work, work.size,
                              0)["info"]
    if info:
        raise InternalInvariantViolation(
            f"LAPACK dgeqrf returned info {info} on a {rows} x {n} block")
    return np.triu(M[:min(rows, n)])


def _qr_workspace(M):
    """The ``work`` of :func:`_qr_r` for M's column count, sized as numpy
    sizes it: LAPACK's optimal size, and at least the column count."""
    n = M.shape[1]
    size = np.empty(1)
    lapack_lite.dgeqrf(M.shape[0], n, M.T, M.shape[0], np.empty(n), size, -1, 0)
    return np.empty(max(1, n, int(size[0])))


def _factor_blocks(n_d, parts, total=None):
    """The :class:`SnapshotFactor` of the N x 2N_d matrix ``[DX, DY]``, built
    one row block at a time (TSQR).

    ``parts`` yields ``(rows, fill)`` for consecutive row ranges of
    ``[DX, DY]``: ``fill(M, start)`` writes rows ``start : start + len(M)``
    of the range into the Fortran-ordered block M.  Every block is filled to
    its row count across ranges, so any split of the same rows gives the
    same blocks and a bitwise-identical factor.  Each block is reduced in
    place to its R factor; the stacked block factors are merged by one more
    QR whenever they reach a quarter of a block's rows, and at the end.
    A known ``total`` of rows N below a block's rows sizes the block to N.
    """
    if n_d == 0:
        return SnapshotFactor(np.zeros((0, 0)), np.zeros((0, 0)))
    block_rows = min(_BLOCK_ROWS, max(1, _BLOCK_BYTES // (16 * n_d)))
    # numpy asks for huge pages for 4 MiB and more, so a full block would be
    # resident for the few rows of a small input
    M = np.empty((min(block_rows, total or block_rows), 2 * n_d), order="F")
    work = _qr_workspace(M)

    def merge(factors):
        stack = np.empty((sum(map(len, factors)), 2 * n_d), order="F")
        return _qr_r(np.concatenate(factors, out=stack), len(stack), work)

    factors, filled = [], 0
    for rows, fill in parts:
        start = 0
        while start < rows:
            take = min(rows - start, block_rows - filled)
            fill(M[filled:filled + take], start)
            start += take
            filled += take
            if filled == block_rows:
                factors.append(_qr_r(M, block_rows, work))
                filled = 0
                if len(factors) > 1 and 4 * sum(map(len, factors)) >= block_rows:
                    factors = [merge(factors)]
    if filled:
        factors.append(_qr_r(M, filled, work))
    del M  # before the last merge, so that its stack does not add to the peak
    if not factors:
        return SnapshotFactor(np.zeros((0, n_d)), np.zeros((0, n_d)))
    R = merge(factors)
    return SnapshotFactor(R[:, :n_d], R[:, n_d:])


def snapshot_factor(DX, DY):
    """The :class:`SnapshotFactor` of N-row snapshot matrices DX, DY.

    DX and DY are validated, then read one row block at a time and never
    overwritten.  A factor's own blocks ``RX, RY`` give it back bit for bit:
    the Householder QR of a triangular matrix leaves it as it is.
    """
    DX, DY = _pair(DX, DY)
    rows, n_d = DX.shape

    def fill(M, start):
        M[:, :n_d] = DX[start:start + len(M)]
        M[:, n_d:] = DY[start:start + len(M)]

    return _factor_blocks(n_d, [(rows, fill)], rows)


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
    (the second member's eigenvector is the exact conjugate of the first's).
    """

    values: np.ndarray
    vectors: np.ndarray
    is_real: np.ndarray

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
        j += 2
    return EigenpairSet(values=values, vectors=vectors, is_real=is_real)


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
