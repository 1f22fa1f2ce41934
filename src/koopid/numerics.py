"""Tolerance-aware dense linear algebra primitives.

All rank, null-space and subspace decisions in this package flow through the
one SVD helper here, parameterized by a single :class:`ToleranceConfig`, so
that the iterative subspace pruning never mixes inconsistent thresholds.
"""

import contextlib
import ctypes
import functools
import math
import threading
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
    "one_blas_thread",
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


# Bytes and most rows per leaf of the streamed QR: a leaf has
# max(4 N_d, min(_BLOCK_ROWS, _BLOCK_BYTES // (16 N_d))) rows of the 2N_d
# columns, the last 2N_d of them the R factor of the rows before it, and
# LAPACK factors it in place at one BLAS thread.  At degree 7 (N_d = 36) the
# 2,048 rows, 1.2 MB, stay in a 2 MiB L2 cache, and dgeqrt's panels of
# _QR_PANEL columns take 0.4 us a row (dgeqrf 1.0 us, 1.5 us for 10,416-row
# blocks at 2 OpenBLAS threads); Van der Pol then peaks at 34 MB (was
# 37-40).  The leaf size and the panel width fix every bit of the factor:
# keep them.
_BLOCK_BYTES = 1_179_648
_BLOCK_ROWS = 16_384
_QR_PANEL = 16
_BLAS_PIN = threading.RLock()


@functools.cache
def _lapack():
    """The library numpy's LAPACK is, with the libraries it links."""
    return ctypes.CDLL(lapack_lite.__file__)


@functools.cache
def _thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` in the BLAS that numpy's
    LAPACK links, or None where that BLAS has no such setter."""
    setter = getattr(_lapack(), "openblas_set_num_threads_local", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@functools.cache
def _dgeqrt():
    """LAPACK's ``dgeqrt`` in numpy's scipy-openblas (64-bit integers, every
    argument by address), or None where numpy's LAPACK does not export it."""
    kernel = getattr(_lapack(), "scipy_dgeqrt_64_", None)
    if kernel is not None:
        kernel.argtypes, kernel.restype = [ctypes.c_void_p] * 9, None
    return kernel


@functools.cache
def _blas_identity():
    """The BLAS's description of itself: OpenBLAS's configuration (version,
    build options and the CPU core it dispatches to) from numpy's
    scipy-openblas, or else numpy's record of the BLAS it was built with."""
    config = getattr(_lapack(), "scipy_openblas_get_config64_", None)
    if config is None:
        return repr(getattr(np.__config__, "CONFIG", {}).get("Build Dependencies"))
    config.restype = ctypes.c_char_p
    return config().decode()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block at one BLAS thread, and restore the count after it, where
    numpy's BLAS is an OpenBLAS with ``openblas_set_num_threads_local``.  In
    an OpenBLAS on pthreads the count is the whole process's, so concurrent
    blocks take turns; a block may nest in another on the same thread."""
    with _BLAS_PIN:
        setter = _thread_setter() or (lambda count: count)
        previous = setter(1)
        try:
            yield
        finally:
            setter(previous)


def _qr_r(M, rows, work):
    """Reduce the first ``rows`` rows of the Fortran-ordered M in place to
    their R factor, in its first ``min(rows, cols)`` rows; returns that count.

    LAPACK ``dgeqrt`` overwrites the rows with R and its Householder
    reflectors, in panels of ``_QR_PANEL`` columns, and puts their block
    reflectors' T factors in ``work``, ``2 * _QR_PANEL * cols`` numbers.
    Where numpy's LAPACK lacks ``dgeqrt``, ``dgeqrf`` does the same with
    ``work`` as its workspace, which holds its blocks of 32 columns, as
    ``numpy.linalg.qr(mode="r")`` does to its own copy, so R is that R bit
    for bit.  Either way the reflectors are zeroed.
    """
    n = M.shape[1]
    k = min(rows, n)
    kernel = _dgeqrt()
    if kernel is None:
        name = "dgeqrf"
        info = lapack_lite.dgeqrf(rows, n, M.T, len(M), np.empty(k), work, work.size, 0)["info"]
    else:
        name, nb = "dgeqrt", min(_QR_PANEL, k)
        # m, n, nb, lda, ldt, info
        ints = np.array([rows, n, nb, len(M), nb, 0], dtype=np.int64)
        at = ints.ctypes.data
        kernel(at, at + 8, at + 16, M.ctypes.data, at + 24, work.ctypes.data, at + 32,
               work[nb * n:].ctypes.data, at + 40)
        info = int(ints[5])
    if info:
        raise InternalInvariantViolation(
            f"LAPACK {name} returned info {info} on a {rows} x {n} block")
    M[:k][np.tri(k, n, -1, dtype=bool)] = 0.0
    return k


def _factor_blocks(n_d, parts, total=None):
    """The :class:`SnapshotFactor` of the N x 2N_d matrix ``[DX, DY]``, built
    one leaf of rows at a time (flat TSQR) at one BLAS thread.

    ``parts`` yields ``(rows, fill)`` for consecutive row ranges of
    ``[DX, DY]``: ``fill(M, start)`` writes rows ``start : start + len(M)``
    of the range into the Fortran-ordered leaf M.  A leaf, the next rows
    over the R factor of the rows before them, is filled across ranges and
    reduced in place to its R factor, so any split of the same rows gives
    the same leaves and a bitwise-identical factor.  A known ``total`` of
    rows N below a leaf's rows sizes the leaf to N.
    """
    if n_d == 0:
        return SnapshotFactor(np.zeros((0, 0)), np.zeros((0, 0)))
    leaf_rows = max(4 * n_d, min(_BLOCK_ROWS, _BLOCK_BYTES // (16 * n_d)))
    M = np.empty((min(leaf_rows, total or leaf_rows), 2 * n_d), order="F")
    work = np.empty(2 * _QR_PANEL * 2 * n_d)
    r = filled = 0  # rows of the R carried at the leaf's end; rows of data before it
    with one_blas_thread():
        for rows, fill in parts:
            start = 0
            while start < rows:
                take = min(rows - start, len(M) - r - filled)
                fill(M[filled:filled + take], start)
                start += take
                filled += take
                if filled + r == len(M):
                    r, filled = _qr_r(M, len(M), work), 0
                    M[len(M) - r:] = M[:r]
        if filled:
            M[filled:filled + r] = M[len(M) - r:]
            r = _qr_r(M, filled + r, work)
            M[len(M) - r:] = M[:r]
    R = M[len(M) - r:].copy()
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
