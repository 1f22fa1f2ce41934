"""EDMD matrices and forward-backward certification of linear evolutions.

The forward matrix ``K_f`` is the least-squares map from dictionary snapshots
at X to those at Y, and ``K_b`` the reverse.  Being an eigenvector of ``K_f``
is necessary but not sufficient for the corresponding dictionary function to
evolve linearly on the data; a vector is certified only when it is also an
eigenvector of ``K_b`` with the reciprocal eigenvalue, which happens exactly
when ``D(Y) v = lambda D(X) v``.
"""

import logging
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import AssumptionViolation, InternalInvariantViolation, InvalidInput, RankWarning
from .numerics import DEFAULT_TOL

__all__ = [
    "KoopmanMatrix",
    "MatchedEvolution",
    "edmd_matrix",
    "forward_backward_eigenpairs",
    "relative_residual",
    "check_linear_evolution",
    "sort_evolutions",
]

logger = logging.getLogger(__name__)

#: Eigenvalues below this magnitude are excluded from matching (their
#: reciprocal is numerically meaningless) and reported via the logger.
SMALL_EIGENVALUE = 1e-12


@dataclass(frozen=True)
class KoopmanMatrix:
    """Finite-dimensional EDMD approximation on a dictionary's span."""

    matrix: np.ndarray
    direction: str


@dataclass(frozen=True)
class MatchedEvolution:
    """A dictionary-space vector certified to evolve linearly on the data.

    ``coefficients`` is the unit-norm vector v such that D(x) v is the
    identified function; the defects record how well v satisfies the forward
    eigenproblem, the backward (reciprocal) eigenproblem, and the data-level
    relation D(Y) v = lambda D(X) v.
    """

    eigenvalue: complex
    coefficients: np.ndarray
    forward_defect: float
    backward_defect: float
    data_defect: float


def edmd_matrix(DX, DY, tol=DEFAULT_TOL, direction="forward"):
    """Least-squares EDMD matrix K minimizing ||DY - DX @ K||_F.

    Rank deficiency of DX (including N < N_d) triggers a RankWarning; the
    computation still goes through the pseudo-inverse.  Here and below, DX
    and DY are factored first (:func:`numerics.snapshot_factor`); to share
    one factorization, pass its blocks ``RX, RY``.
    """
    with numerics.one_blas_thread():
        F = numerics.snapshot_factor(DX, DY)
        U, s, V, rank = numerics._svd(F.RX, tol)
        if rank < F.RX.shape[1]:
            warnings.warn("source dictionary matrix is rank deficient (needs N >= N_d and "
                          "independent samples); proceeding via pseudo-inverse",
                          RankWarning, stacklevel=2)
        return KoopmanMatrix(matrix=numerics._pinv(U, s, V, rank) @ F.RY, direction=direction)


def relative_residual(DX, DY, K):
    """||DY - DX @ K||_F / min(||DX||_F, ||DY||_F); zero iff the fit is exact."""
    DX = numerics._as_matrix(DX, "DX")
    DY = numerics._as_matrix(DY, "DY")
    K = numerics._as_matrix(K, "K")
    if DX.shape[1] != K.shape[0] or DY.shape[1] != K.shape[1] or DX.shape[0] != DY.shape[0]:
        raise InvalidInput("DX, DY and K have non-conforming shapes")
    denom = min(np.linalg.norm(DX), np.linalg.norm(DY))
    if denom == 0.0:
        raise InvalidInput("both snapshot matrices are zero; residual undefined")
    return float(np.linalg.norm(DY - DX @ K) / denom)


def check_linear_evolution(DX, DY, v, lam, tol=DEFAULT_TOL):
    """Test whether D(x) v evolves linearly with factor lam on the data.

    Returns ``(ok, defect)`` with ``defect = ||DY v - lam DX v|| / ||DX v||``
    and ``ok`` true iff the defect is at most ``tol.eig_match_atol``.  This is
    the data-level oracle all matching logic is measured against.
    """
    DX = numerics._as_matrix(DX, "DX")
    DY = numerics._as_matrix(DY, "DY")
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != DX.shape[1]:
        raise InvalidInput("v length must equal the dictionary size")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("v contains non-finite entries")
    if np.linalg.norm(v) == 0.0:
        raise InvalidInput("v must be nonzero")
    fx = DX @ v
    norm_fx = np.linalg.norm(fx)
    if norm_fx == 0.0:
        raise InvalidInput("D(X) v vanishes on the data; defect undefined")
    defect = float(np.linalg.norm(DY @ v - lam * fx) / norm_fx)
    return defect <= tol.eig_match_atol, defect


def _evolution(k_f, k_b, lam, v, data_defect):
    """The record of unit vector v evolving with factor lam, with its
    forward and backward EDMD defects."""
    return MatchedEvolution(
        eigenvalue=lam, coefficients=v,
        forward_defect=float(np.linalg.norm(k_f.matrix @ v - lam * v)),
        backward_defect=float(np.linalg.norm(k_b.matrix @ v - v / lam)),
        data_defect=data_defect,
    )


def sort_evolutions(evolutions):
    """The evolutions by descending real part of the eigenvalue, then
    descending magnitude of its imaginary part, then positive imaginary part
    first, so each conjugate pair is adjacent.

    Both methods give their evolutions in this order, so it does not follow
    the order of an eigensolver, which rounding can change.  The evolutions
    of one eigenvalue keep their order (the sort is stable), so those of a
    repeated non-real eigenvalue all come before those of its conjugate.
    """
    return sorted(evolutions, key=lambda ev: (-ev.eigenvalue.real,
                                              -abs(ev.eigenvalue.imag),
                                              -ev.eigenvalue.imag))


def _require_samples(count, n_d):
    if count < n_d:
        raise AssumptionViolation(f"need at least N_d = {n_d} snapshots, got {count}")


def _require_full_rank(F, tol):
    """The :func:`numerics._svd` of F.RX and of F.RY, each required to have
    full column rank; the violation names the numbers that failed."""
    # R has min(N, 2N_d) rows, so it has fewer than N_d exactly when N does
    n_d = F.RX.shape[1]
    _require_samples(F.RX.shape[0], n_d)
    svds = []
    for name, R in (("D(X)", F.RX), ("D(Y)", F.RY)):
        svd = numerics._svd(R, tol)
        _, s, _, rank = svd
        if rank < n_d:
            ratio = s[-1] / s[0] if s[0] > 0 else 0.0
            raise AssumptionViolation(
                f"{name} is not of full column rank: numerical rank {rank} < "
                f"N_d = {n_d}; sigma_min/sigma_max = {ratio:.3g} is not above "
                f"the relative threshold rank_rtol*N_d = {tol.rank_rtol * n_d:.3g}")
        svds.append(svd)
    return svds


def _full_rank_pair(F, tol):
    """Forward and backward EDMD matrices of F, bit for bit those of
    :func:`edmd_matrix`, built from the SVDs of the full-rank check."""
    svd_x, svd_y = _require_full_rank(F, tol)
    return (KoopmanMatrix(numerics._pinv(*svd_x) @ F.RY, "forward"),
            KoopmanMatrix(numerics._pinv(*svd_y) @ F.RX, "backward"))


def _negligible(lam, count=1):
    """True, and logged, when |lam| is too small for 1/lam to mean anything."""
    if abs(lam) >= SMALL_EIGENVALUE:
        return False
    logger.info("skipping %d eigenpair(s) with |lambda| = %.3e < %.0e",
                count, abs(lam), SMALL_EIGENVALUE)
    return True


def _cluster_indices(values, indices, atol):
    """Group indices whose eigenvalues coincide within atol*(1+|lambda|)."""
    order = sorted(indices, key=lambda i: (values[i].real, values[i].imag))
    clusters = []
    for i in order:
        if clusters:
            rep = values[clusters[-1][0]]
            if abs(values[i] - rep) <= atol * (1.0 + abs(rep)):
                clusters[-1].append(i)
                continue
        clusters.append([i])
    return clusters


def _candidate_vectors(cluster, f_pairs, b_pairs, lam, tol):
    """Candidate eigenvectors for one forward cluster.

    Simple eigenvalues contribute their eigenvector directly.  For repeated
    eigenvalues the whole forward eigenspace is intersected with the backward
    eigenspace of 1/lambda, picking the directions whose principal angles are
    tolerance-zero; individual eigenvectors of either decomposition are never
    compared coordinate-wise.
    """
    if len(cluster) == 1:
        return [f_pairs.vectors[:, cluster[0]]]
    atol = tol.eig_match_atol
    target = 1.0 / lam
    back = [j for j in range(len(b_pairs))
            if abs(b_pairs.values[j] - target) <= atol * (1.0 + abs(target))]
    if not back:
        return []
    E_f = numerics.orthonormal_range(f_pairs.vectors[:, cluster], tol)
    E_b = numerics.orthonormal_range(b_pairs.vectors[:, back], tol)
    U, sigma, _ = np.linalg.svd(E_f.conj().T @ E_b)
    keep = sigma >= 1.0 - atol
    return [E_f @ U[:, i] for i in range(E_f.shape[1]) if i < keep.size and keep[i]]


def forward_backward_eigenpairs(DX, DY, tol=DEFAULT_TOL):
    """All dictionary-space vectors that evolve linearly on the data.

    Computes the forward and backward EDMD matrices, then keeps every
    eigenpair (lambda, v) of the forward matrix for which v is also
    (numerically) an eigenvector of the backward matrix with eigenvalue
    1/lambda.  Each returned pair is asserted to satisfy the data-level
    relation as well; the matched set is closed under conjugation.

    Requires both dictionary matrices to have full column rank.
    """
    with numerics.one_blas_thread():
        F = numerics.snapshot_factor(DX, DY)
        k_f, k_b = _full_rank_pair(F, tol)
        f_pairs = numerics.eig(k_f.matrix)
        b_pairs = numerics.eig(k_b.matrix)
        norm_kb = np.linalg.norm(k_b.matrix)
        atol = tol.eig_match_atol

        real_idx = [i for i in range(len(f_pairs)) if f_pairs.is_real[i]]
        upper_idx = [i for i in range(len(f_pairs)) if f_pairs.values[i].imag > 0.0]

        matched = []
        for cluster in (_cluster_indices(f_pairs.values, real_idx, atol)
                        + _cluster_indices(f_pairs.values, upper_idx, atol)):
            lam = complex(np.mean(f_pairs.values[cluster]))
            if _negligible(lam, len(cluster)):
                continue
            for v in _candidate_vectors(cluster, f_pairs, b_pairs, lam, tol):
                v = numerics._normalize_eigenvector(v)
                backward_defect = float(np.linalg.norm(k_b.matrix @ v - v / lam))
                lam_b = complex(np.vdot(v, k_b.matrix @ v))
                if backward_defect > atol * norm_kb:
                    continue
                if abs(lam_b - 1.0 / lam) > atol * (1.0 + 1.0 / abs(lam)):
                    continue
                ok, data_defect = check_linear_evolution(F.RX, F.RY, v, lam, tol)
                if not ok:
                    raise InternalInvariantViolation(
                        "vector passed the forward-backward test but violates the "
                        f"data relation (defect {data_defect:.3e}); inconsistent "
                        "tolerances or rank decisions"
                    )
                ev = _evolution(k_f, k_b, lam, v, data_defect)
                matched.append(ev)
                if lam.imag != 0.0:
                    # conjugate partner: exact by symmetry of the real-data problem
                    matched.append(replace(
                        ev, eigenvalue=lam.conjugate(), coefficients=np.conj(v)))
        return sort_evolutions(matched)
