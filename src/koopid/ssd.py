"""Symmetric subspace decomposition of dictionary snapshot matrices.

The decomposition prunes a dictionary down to the maximal subspace on which
the snapshots evolve linearly.  Each round takes the SVD of the stacked pair
``[A_i, B_i]`` at round 1's rank threshold, cuts it at an index k, records
one :class:`SsdIteration` and stops when the null space (the directions past
k) is empty or at least as large as the current dimension; otherwise its
upper block recombines the current dictionary into candidates shared by the
ranges of both snapshot matrices.  Two steps depend on the mode.  The cut is
the numerical rank in exact mode; the epsilon-truncated variant zeroes the
smallest trailing singular-value mass and carries the projection of the
pair onto the kept directions into the next round, which identifies
subspaces that evolve only approximately linearly.  And only exact mode
orthonormalizes the upper block before the reduction.
"""

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dictionary as dict_mod
from . import numerics
from .edmd import (
    _evolution,
    _full_rank_pair,
    _negligible,
    _require_full_rank,
    check_linear_evolution,
    relative_residual,
    sort_evolutions,
)
from .errors import InternalInvariantViolation, InvalidInput
from .numerics import DEFAULT_TOL

__all__ = [
    "SsdIteration",
    "SsdResult",
    "ReducedKoopman",
    "EigenfunctionGrid",
    "ssd",
    "approximate_ssd",
    "reduced_koopman",
    "lift_eigenvectors",
    "eigenfunction_grid",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SsdIteration:
    """One round of the pruning loop.

    ``subspace_dim`` is the dimension entering the round (rows of the upper
    null-space block) and ``null_dim`` the number of null directions found
    (its columns); the round completes when null_dim >= subspace_dim.
    """

    subspace_dim: int
    null_dim: int
    action: str  # 'reduce' | 'complete' | 'empty'
    kept_rank: int = None
    truncation_ratio: float = None
    exact_fallback: bool = False


@dataclass(frozen=True)
class SsdResult:
    """Outcome of the decomposition.

    ``C`` is either None (no nonzero function in the span evolves linearly)
    or a full-column-rank matrix whose columns recombine the original
    dictionary into the identified subspace.  ``max_range_angle`` is the
    largest principal angle between ``DX @ C`` and ``DY @ C``, recorded as a
    quality diagnostic (tolerance-zero in exact mode).
    """

    C: np.ndarray
    iterations: int
    log: tuple
    mode: str  # 'exact' | 'approximate'
    epsilon: float = None
    max_range_angle: float = None

    @property
    def is_zero(self):
        return self.C is None

    @property
    def subspace_dim(self):
        return 0 if self.C is None else self.C.shape[1]


@dataclass(frozen=True)
class ReducedKoopman:
    """Koopman matrix restricted to an identified subspace, with its
    relative fitting residual e_r."""

    matrix: np.ndarray
    e_r: float


def _truncation_split(s, epsilon, rank):
    """Index k of the first singular value to zero out under the trailing
    sum-ratio rule, plus the achieved ratio and whether the rule had no
    admissible k and the exact rank decision was used instead.

    Zeroing is never more conservative than the exact rank decision:
    singular values under the rank threshold are numerically zero and in
    exact arithmetic would always belong to an admissible tail, so they are
    truncated regardless of how measurement noise inflated them.
    """
    total = float(np.sum(s))
    if total == 0.0:
        return 0, 0.0, False
    tail_ratios = np.cumsum(s[::-1])[::-1] / total
    admissible = np.nonzero(tail_ratios <= epsilon)[0]
    if admissible.size == 0:
        ratio = float(tail_ratios[rank]) if rank < s.size else 0.0
        return rank, ratio, True
    k = min(int(admissible[0]), rank)
    return k, float(tail_ratios[k]), False


def _ssd_loop(DX, DY, tol, epsilon):
    """The decomposition of either mode: exact when epsilon is None."""
    F = numerics.snapshot_factor(DX, DY)
    _require_full_rank(F, tol)
    if F.RX.shape[0] < 2 * F.RX.shape[1]:
        warnings.warn("fewer than 2 * N_d snapshots; rank decisions may be fragile",
                      UserWarning, stacklevel=3)
    # iterates are [RX, RY] @ G: the same singular pairs as [D(X), D(Y)] @ G
    n_d = F.RX.shape[1]
    A, B = F.RX, F.RY
    C = np.eye(n_d)
    log = []
    # every round counts against round 1's threshold, rank_rtol * sigma_max
    # * 2N_d of [RX, RY]: re-taken of each smaller iterate it would tighten
    # round by round and prune exact Van der Pol to the zero subspace
    threshold = None
    for iteration in range(1, n_d + 2):
        m = A.shape[1]
        M = np.hstack([A, B])
        _, s, V, rank = numerics._svd(M, tol, threshold)
        if threshold is None:
            threshold = numerics._threshold(s, tol)
        if epsilon is None:
            k, kept_rank, ratio, fallback = rank, None, None, False
            if rank < m:
                raise InternalInvariantViolation(
                    f"null space dimension {2 * m - rank} exceeds subspace dimension {m} "
                    "in exact mode; the full-rank precondition has degraded")
        else:
            k, ratio, fallback = _truncation_split(s, epsilon, rank)
            kept_rank = k
            if fallback:
                logger.info("iteration %d: no truncation index satisfies the ratio condition "
                            "for epsilon=%g; using the exact rank decision", iteration, epsilon)
            # continue with the rank-deficient replacement of [A, B]: project
            # out the truncated trailing directions
            kept = V[:, :k]
            M = M @ (kept @ kept.T)
        c = 2 * m - k
        action = "empty" if c == 0 else "complete" if c >= m else "reduce"
        log.append(SsdIteration(m, c, action, kept_rank, ratio, fallback))
        if action != "reduce":
            break
        Z_A = V[:m, k:]
        if epsilon is None:
            # Z_A is full column rank but generally not orthonormal; the QR (a
            # span-preserving right rotation) keeps the products below from
            # losing singular-value resolution over many rounds.  The truncated
            # mode must not rescale: its ratios are taken of the blocks as built.
            Z_A, _ = np.linalg.qr(Z_A)
        C = C @ Z_A
        A, B = M[:, :m] @ Z_A, M[:, m:] @ Z_A
    else:
        raise InternalInvariantViolation("subspace dimension failed to decrease; "
                                         "inconsistent rank decisions")
    if action == "empty":
        C = max_angle = None
    else:
        angles = numerics.principal_angles(F.RX @ C, F.RY @ C, tol)
        max_angle = float(angles.max()) if angles.size else 0.0
    return SsdResult(C=C, iterations=iteration, log=tuple(log),
                     mode="exact" if epsilon is None else "approximate",
                     epsilon=epsilon, max_range_angle=max_angle)


def ssd(DX, DY, tol=DEFAULT_TOL):
    """Maximal subspace of the dictionary span evolving linearly on the data.

    Requires both dictionary matrices to have full column rank.  Returns an
    :class:`SsdResult` whose ``C`` satisfies range(DX @ C) == range(DY @ C)
    (tolerance-exactly) and is maximal among all such recombinations; ``C``
    is None when no nonzero linear evolution exists in the span.  Here and
    below, DX and DY are factored first (:func:`numerics.snapshot_factor`);
    to share one factorization, pass its blocks ``RX, RY``.
    """
    return _ssd_loop(DX, DY, tol, epsilon=None)


def approximate_ssd(DX, DY, epsilon, tol=DEFAULT_TOL):
    """Epsilon-truncated decomposition for approximately invariant subspaces.

    At every round the stacked matrix is replaced by the rank-deficient
    matrix obtained by zeroing the smallest trailing group of singular
    values whose sum is at most ``epsilon`` times the total singular-value
    sum; the replacement (not the original blocks) is carried into the next
    round.  Larger epsilon keeps larger, less exactly invariant subspaces;
    the result records the achieved range angles and per-round truncation
    ratios so the pruning can be audited.
    """
    if epsilon is None or not (0.0 < epsilon < 1.0):
        raise InvalidInput("epsilon must lie strictly between 0 and 1")
    return _ssd_loop(DX, DY, tol, epsilon=float(epsilon))


def reduced_koopman(DX, DY, result, tol=DEFAULT_TOL):
    """Least-squares Koopman matrix on the identified subspace.

    ``K = pinv(DX @ C) @ (DY @ C)`` together with the relative residual of
    the fit.  In exact mode the residual is tolerance-zero and K invertible;
    in approximate mode the residual measures the quality of the identified
    subspace.  The reduced dictionary ``D(x) @ C`` is
    :func:`dictionary.restrict` of the dictionary and ``result.C``.
    """
    if result.is_zero:
        raise InvalidInput("the decomposition returned the zero subspace")
    F = numerics.snapshot_factor(DX, DY)
    DXC, DYC = F.RX @ result.C, F.RY @ result.C
    K = numerics.pseudo_inverse(DXC, tol) @ DYC
    e_r = relative_residual(DXC, DYC, K)
    if result.mode == "exact":
        if e_r > 10.0 * tol.subspace_atol:
            warnings.warn(
                f"exact-mode reduced Koopman residual e_r = {e_r:.3e} exceeds "
                "the expected tolerance",
                UserWarning,
                stacklevel=2,
            )
        if numerics.numerical_rank(K, tol) < K.shape[1]:
            warnings.warn("exact-mode reduced Koopman matrix is singular",
                          UserWarning, stacklevel=2)
    return ReducedKoopman(matrix=K, e_r=e_r)


def lift_eigenvectors(DX, DY, result, reduced, tol=DEFAULT_TOL):
    """Eigenvectors of the reduced Koopman matrix mapped back to the
    original dictionary's coordinates.

    Every eigenpair (lambda, w) of the reduced matrix lifts to v = C @ w;
    in exact mode each lifted vector passes the data-level linear-evolution
    check with the same eigenvalue, and the lifted set spans, per eigenvalue,
    the same subspaces as the forward-backward matching on identical data.
    The defects use the forward and backward EDMD matrices, so both
    dictionary matrices must have full column rank (else
    :class:`AssumptionViolation`, as in the decompositions).  The lifted
    evolutions come in the order of :func:`edmd.sort_evolutions`.
    """
    if result.is_zero:
        raise InvalidInput("the decomposition returned the zero subspace")
    F = numerics.snapshot_factor(DX, DY)
    k_f, k_b = _full_rank_pair(F, tol)
    lifted = []
    for lam, w in numerics.eig(reduced.matrix).pairs():
        lam = complex(lam)
        if _negligible(lam):
            continue
        v = numerics._normalize_eigenvector(result.C @ w)
        _, data_defect = check_linear_evolution(F.RX, F.RY, v, lam, tol)
        lifted.append(_evolution(k_f, k_b, lam, v, data_defect))
    return sort_evolutions(lifted)


@dataclass(frozen=True)
class EigenfunctionGrid:
    """Sampled magnitude and principal-branch phase of f(x) = D(x) @ v over
    a regular grid; ``points`` has one grid node per row."""

    points: np.ndarray
    abs_values: np.ndarray
    angles: np.ndarray
    shape: tuple = field(default=())


def eigenfunction_grid(dictionary, v, box, resolution):
    """Evaluate an identified function on a regular grid over a box.

    ``resolution`` is the number of nodes per axis (scalar or one value per
    dimension), at least 2 each.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    n = len(box)
    if n != dictionary.state_dim:
        raise InvalidInput("box dimension must match the dictionary state dim")
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != dictionary.size:
        raise InvalidInput("v length must equal the dictionary size")
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (n,))
    if np.any(res < 2):
        raise InvalidInput("resolution must be at least 2 per axis")
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, res)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.reshape(-1) for m in mesh])
    values = dict_mod.evaluate(dictionary, points) @ v
    return EigenfunctionGrid(points=points, abs_values=np.abs(values),
                             angles=np.angle(values), shape=tuple(int(r) for r in res))
