"""Monomial observable dictionaries and their linear recombinations.

A dictionary maps a state ``x`` in R^n to the row vector of its observable
values.  Concretely everything here is a list of monomial exponent tuples,
optionally post-multiplied by a full-column-rank coefficient matrix; this is
enough to express every derived dictionary the subspace algorithms produce
while keeping evaluation exact and reproducible.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import EvaluationOverflow, InvalidInput, RankError

__all__ = [
    "MonomialDictionary",
    "DerivedDictionary",
    "monomials_up_to_degree",
    "evaluate",
    "evaluate_factor",
    "restrict",
]


@dataclass(frozen=True)
class MonomialDictionary:
    """Ordered list of monomials x -> prod_i x_i**e_i over an n-dimensional state.

    The exponent tuples must be pairwise distinct (so the functions are
    linearly independent) and their order is part of the dictionary's
    identity: coefficient vectors are always interpreted in this order.
    """

    state_dim: int
    exponents: tuple = field()

    def __post_init__(self):
        if self.state_dim < 1:
            raise InvalidInput("state_dim must be at least 1")
        exps = tuple(tuple(int(v) for v in e) for e in self.exponents)
        if not exps:
            raise InvalidInput("a dictionary needs at least one function")
        for e in exps:
            if len(e) != self.state_dim:
                raise InvalidInput(
                    f"exponent tuple {e} does not match state_dim={self.state_dim}"
                )
            if any(v < 0 for v in e):
                raise InvalidInput(f"exponents must be nonnegative, got {e}")
        if len(set(exps)) != len(exps):
            raise InvalidInput("exponent tuples must be pairwise distinct")
        object.__setattr__(self, "exponents", exps)

    @property
    def size(self):
        return len(self.exponents)

    def descriptor(self):
        """JSON-ready description: exponent list, no coefficient matrix."""
        return {
            "state_dim": self.state_dim,
            "exponents": [list(e) for e in self.exponents],
            "coeffs": None,
        }


@dataclass(frozen=True)
class DerivedDictionary:
    """A dictionary D~(x) = D(x) @ coeffs built on a monomial base.

    ``coeffs`` has one row per base function and must have full column rank,
    so the derived functions stay linearly independent.
    """

    base: MonomialDictionary
    coeffs: np.ndarray

    def __post_init__(self):
        C = numerics._as_matrix(self.coeffs, "coeffs")
        if C.shape[0] != self.base.size:
            raise InvalidInput(
                f"coeffs has {C.shape[0]} rows but the base dictionary has "
                f"{self.base.size} functions"
            )
        if C.shape[1] == 0:
            raise InvalidInput("coeffs must have at least one column")
        if numerics.numerical_rank(C) != C.shape[1]:
            raise RankError("coeffs is not of full column rank")
        object.__setattr__(self, "coeffs", C)

    @property
    def state_dim(self):
        return self.base.state_dim

    @property
    def size(self):
        return self.coeffs.shape[1]

    def descriptor(self):
        d = self.base.descriptor()
        d["coeffs"] = self.coeffs.tolist()
        return d


def dictionary_from_descriptor(descriptor):
    """Rebuild a (possibly derived) dictionary from its descriptor dict.

    This is the one validation point for descriptors read from files: a
    missing key or a value of the wrong kind raises InvalidInput.
    """
    try:
        base = MonomialDictionary(
            state_dim=int(descriptor["state_dim"]),
            exponents=tuple(tuple(e) for e in descriptor["exponents"]),
        )
        coeffs = descriptor.get("coeffs")
        if coeffs is None:
            return base
        return DerivedDictionary(base=base, coeffs=np.asarray(coeffs, dtype=float))
    except KeyError as exc:
        raise InvalidInput(f"dictionary descriptor is missing the key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"malformed dictionary descriptor: {exc}") from exc


def monomials_up_to_degree(n, degree):
    """All monomials in n variables of total degree <= degree.

    Ordered graded-lexicographically: by total degree, then lexicographically
    descending exponent tuples within a degree (so for n=2: 1, x1, x2, x1^2,
    x1*x2, x2^2, ...).  The constant function is always first.
    """
    if n < 1:
        raise InvalidInput("n must be at least 1")
    if degree < 0:
        raise InvalidInput("degree must be nonnegative")
    exps = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            e = [0] * n
            for i in combo:
                e[i] += 1
            exps.append(tuple(e))
    return MonomialDictionary(state_dim=n, exponents=tuple(exps))


def _evaluate_monomials(dictionary, X, out):
    """Write the monomials of the rows of X into the columns of out; return
    the first row with a non-finite value, or None.

    x_i^k is the column of x_i^(k-1) times x_i, and a mixed monomial the
    product of its variables' powers from left to right, so every value is
    the product from 1.0 in variable order, bit for bit.  Only a power of
    two or more that the dictionary lacks takes a scratch column.  Each
    column is checked on its own; the first non-finite row is looked for
    only when a check fails.
    """
    n = dictionary.state_dim
    columns = {e: out[:, j] for j, e in enumerate(dictionary.exponents)}
    top = [max(e[i] for e in columns) for i in range(n)]

    def power(i, k):
        return (0,) * i + (k,) + (0,) * (n - i - 1)

    lacking = sum(power(i, k) not in columns
                  for i in range(n) for k in range(2, top[i] + 1))
    scratch = iter(np.empty((len(X), lacking), order="F").T)
    powers, finite = {}, True
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            x = powers[i, 1] = X[:, i]
            for k in range(2, top[i] + 1):
                col = columns.get(power(i, k))
                powers[i, k] = np.multiply(powers[i, k - 1], x,
                                           out=next(scratch) if col is None else col)
        for e, col in columns.items():
            factors = [powers[i, k] for i, k in enumerate(e) if k]
            if not factors:
                col[:] = 1.0
                continue
            if len(factors) > 1:
                np.multiply(factors[0], factors[1], out=col)
                for factor in factors[2:]:
                    col *= factor
            elif sum(e) == 1:  # x_i itself; its higher powers are in place
                col[:] = factors[0]
            finite = finite and np.isfinite(col).all()
    if finite:
        return None
    return int(np.argmin(np.isfinite(out).all(axis=1)))


def _evaluate_into(dictionary, X, out):
    """Write D(X) into out; return the first row of X with a non-finite
    value, or None.  X is not checked."""
    if isinstance(dictionary, MonomialDictionary):
        return _evaluate_monomials(dictionary, X, out)
    base = np.empty((len(X), dictionary.base.size))
    row = _evaluate_monomials(dictionary.base, X, base)
    if row is None:
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(base, dictionary.coeffs, out=out)
        bad = ~np.all(np.isfinite(out), axis=1)
        if bad.any():
            row = int(np.argmax(bad))
    return row


def _check_state_dim(dictionary, X):
    if X.shape[1] != dictionary.state_dim:
        raise InvalidInput(
            f"X has {X.shape[1]} columns but the dictionary expects "
            f"{dictionary.state_dim}"
        )


def evaluate(dictionary, X):
    """Evaluate a dictionary on a sample matrix.

    Parameters
    ----------
    dictionary : MonomialDictionary or DerivedDictionary
    X : ndarray, shape (N, n)
        One state per row; ``n`` must equal the dictionary's state dimension.

    Returns
    -------
    ndarray, shape (N, size)
        Row i holds the dictionary evaluated at ``X[i]``.

    Raises
    ------
    EvaluationOverflow
        If a value is not finite; ``row`` is the first such row of X.

    Notes
    -----
    The values are reproducible bit for bit: x_i^k is x_i^(k-1) times x_i,
    from x_i^1 = x_i, and a monomial is the product of its variables'
    powers taken in variable order, ``((1 * x_0^a_0) * x_1^a_1) * ...``.
    A derived dictionary multiplies the monomial values by its ``coeffs``.
    """
    X = numerics._as_matrix(X, "X")
    _check_state_dim(dictionary, X)
    out = np.empty((X.shape[0], dictionary.size))
    row = _evaluate_into(dictionary, X, out)
    if row is not None:
        raise EvaluationOverflow(
            "dictionary evaluation produced a non-finite value", row=row)
    return out


def evaluate_factor(dictionary, X, Y=None):
    """The :class:`~koopid.numerics.SnapshotFactor` of ``[D(X), D(Y)]``.

    X and Y are N-row sample matrices; or X yields ``(X, Y)`` row blocks of
    them in order, with Y None, as :meth:`koopid.systems.SnapshotStream.scan`
    passes them.  The dictionary is evaluated on a few rows at a time,
    straight into the block the QR factors, so ``D(X)`` and ``D(Y)`` are
    never held in full, and the factor does not depend on how the samples
    are split into blocks.  An EvaluationOverflow names the row of X or Y.
    """
    blocks = X if Y is None and not isinstance(X, np.ndarray) else [(X, Y)]

    def parts():
        offset = 0
        for X_block, Y_block in blocks:
            X_block, Y_block = numerics._pair(X_block, Y_block, ("X", "Y"))
            _check_state_dim(dictionary, X_block)
            yield len(X_block), _filler(dictionary, X_block, Y_block, offset)
            offset += len(X_block)

    return numerics._factor_blocks(dictionary.size, parts())


def _filler(dictionary, X, Y, offset):
    """The ``fill`` of :func:`numerics._factor_blocks` for the samples X, Y,
    which start at row ``offset`` of the data."""
    n_d = dictionary.size

    def fill(M, start):
        for name, S, out in (("X", X, M[:, :n_d]), ("Y", Y, M[:, n_d:])):
            row = _evaluate_into(dictionary, S[start:start + len(M)], out)
            if row is not None:
                raise EvaluationOverflow(
                    f"dictionary evaluation on {name} produced a non-finite value",
                    row=offset + start + row)

    return fill


def restrict(dictionary, C):
    """Derived dictionary D~(x) = D(x) @ C; compositions collapse into one
    coefficient matrix, whose full column rank :class:`DerivedDictionary`
    checks."""
    C = numerics._as_matrix(C, "C")
    if C.shape[0] != dictionary.size:
        raise InvalidInput(
            f"C has {C.shape[0]} rows but the dictionary has {dictionary.size} "
            "functions"
        )
    if isinstance(dictionary, DerivedDictionary):
        return DerivedDictionary(base=dictionary.base,
                                 coeffs=dictionary.coeffs @ C)
    return DerivedDictionary(base=dictionary, coeffs=C)
