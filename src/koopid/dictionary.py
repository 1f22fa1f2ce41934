"""Monomial observable dictionaries and their linear recombinations.

A dictionary maps a state ``x`` in R^n to the row vector of its observable
values.  Concretely everything here is a list of monomial exponent tuples,
optionally post-multiplied by a full-column-rank coefficient matrix; this is
enough to express every derived dictionary the subspace algorithms produce
while keeping evaluation exact and reproducible.
"""

import functools
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


@functools.cache
def _monomial_plan(exponents):
    """How :func:`_evaluate_monomials` builds the columns of ``exponents``:
    ``(powers, products, lacking)``.

    ``powers`` lists ``(i, k, j)`` in order for each power x_i^k, k >= 2,
    that a column needs, with j the column it is, or None for a scratch
    column, of which there are ``lacking``.  ``products`` lists ``(j,
    factors)`` for every other column j: the ``(i, k)`` of its variables'
    powers in variable order, none for the constant.
    """
    columns = {e: j for j, e in enumerate(exponents)}
    n = len(exponents[0])
    powers, lacking = [], 0
    for i in range(n):
        for k in range(2, max(e[i] for e in exponents) + 1):
            j = columns.get((0,) * i + (k,) + (0,) * (n - i - 1))
            powers.append((i, k, j))
            lacking += j is None
    in_place = {j for _, _, j in powers}
    products = [(j, tuple((i, k) for i, k in enumerate(e) if k))
                for e, j in columns.items() if j not in in_place]
    return powers, products, lacking


def _evaluate_monomials(dictionary, X, out):
    """Write the monomials of the rows of X into the columns of out; return
    the first row with a non-finite value, or None.

    x_i^k is the column of x_i^(k-1) times x_i, and a mixed monomial the
    product of its variables' powers from left to right, so every value is
    the product from 1.0 in variable order, bit for bit.  Only a power of
    two or more that the dictionary lacks takes a scratch column.
    """
    powers, products, lacking = _monomial_plan(dictionary.exponents)
    scratch = iter(np.empty((len(X), lacking), order="F").T)
    columns = {(i, 1): X[:, i] for i in range(dictionary.state_dim)}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, k, j in powers:
            columns[i, k] = np.multiply(columns[i, k - 1], columns[i, 1],
                                        out=next(scratch) if j is None else out[:, j])
        for j, factors in products:
            col = out[:, j]
            if not factors:
                col[:] = 1.0
            elif len(factors) == 1:  # x_i itself
                col[:] = columns[factors[0]]
            else:
                np.multiply(columns[factors[0]], columns[factors[1]], out=col)
                for factor in factors[2:]:
                    col *= columns[factor]
    return _first_nonfinite_row(out)


def _first_nonfinite_row(out):
    """The first row of out with a non-finite value, or None.  One sum tests
    the whole block (it is finite only when every value is), and the rows
    are searched only when it is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(out.sum()):
            return None
    bad = ~np.isfinite(out).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


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
        row = _first_nonfinite_row(out)
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
    passes them.  Each block is checked, and the dictionary is evaluated on a
    few rows at a time, straight into the leaf the QR factors, so ``D(X)``
    and ``D(Y)`` are never held in full, and the factor does not depend on
    how the samples are split into blocks.  An EvaluationOverflow names the
    row of X or Y.
    """
    blocks = X if Y is None and not isinstance(X, np.ndarray) else [(X, Y)]
    return numerics._factor_blocks(dictionary.size, _checked_blocks(dictionary, blocks),
                                   functools.partial(_fill, dictionary))


def _checked_blocks(dictionary, blocks):
    """The ``(X, Y)`` blocks, each checked as samples for ``dictionary``."""
    for X, Y in blocks:
        X, Y = numerics._pair(X, Y, ("X", "Y"))
        _check_state_dim(dictionary, X)
        yield X, Y


def _fill(dictionary, M, X, Y, first_row):
    """Write ``[D(X), D(Y)]`` into M, where X, Y start at data row
    ``first_row``: the ``fill`` of :func:`numerics._factor_blocks`."""
    for name, S, out in zip("XY", (X, Y), np.hsplit(M, 2)):
        row = _evaluate_into(dictionary, S, out)
        if row is not None:
            raise EvaluationOverflow(
                f"dictionary evaluation on {name} produced a non-finite value",
                row=first_row + row)


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
