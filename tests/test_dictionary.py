import math
import tracemalloc

import numpy as np
import pytest

import koopid
from koopid import numerics
from koopid.dictionary import _evaluate_monomials, dictionary_from_descriptor
from koopid.errors import EvaluationOverflow, InvalidInput, RankError


class TestMonomialsUpToDegree:
    def test_two_vars_degree_seven_has_36_functions(self):
        assert koopid.monomials_up_to_degree(2, 7).size == 36

    def test_degree_zero_is_the_constant(self):
        d = koopid.monomials_up_to_degree(2, 0)
        assert d.exponents == ((0, 0),)

    def test_count_matches_binomial_oracle(self):
        assert koopid.monomials_up_to_degree(3, 2).size == math.comb(3 + 2, 2)

    def test_graded_lex_order(self):
        d = koopid.monomials_up_to_degree(2, 2)
        assert d.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInput):
            koopid.monomials_up_to_degree(0, 2)
        with pytest.raises(InvalidInput):
            koopid.monomials_up_to_degree(2, -1)


class TestMonomialDictionary:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInput):
            koopid.MonomialDictionary(2, [(1, 0), (1, 0)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidInput):
            koopid.MonomialDictionary(2, [(1, 0, 0)])

    def test_rejects_negative_exponents(self):
        with pytest.raises(InvalidInput):
            koopid.MonomialDictionary(1, [(-1,)])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            koopid.MonomialDictionary(2, [])

    def test_descriptor_round_trip(self, ex2_dictionary):
        rebuilt = dictionary_from_descriptor(ex2_dictionary.descriptor())
        assert rebuilt == ex2_dictionary


class TestEvaluate:
    def test_affine_row(self):
        d = koopid.MonomialDictionary(2, [(0, 0), (1, 0), (0, 1)])
        np.testing.assert_array_equal(koopid.evaluate(d, [[2.0, 3.0]]),
                                      [[1.0, 2.0, 3.0]])

    def test_counterexample_dictionary(self):
        # [x, x^2 + x^3] as a recombination of {x, x^2, x^3}: at x=2 the
        # second function is 4 + 8 = 12
        base = koopid.MonomialDictionary(1, [(1,), (2,), (3,)])
        C = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        derived = koopid.restrict(base, C)
        np.testing.assert_allclose(koopid.evaluate(derived, [[2.0]]),
                                   [[2.0, 12.0]])

    def test_all_ones_at_ones(self, ex2_dictionary):
        row = koopid.evaluate(ex2_dictionary, [[1.0, 1.0]])
        np.testing.assert_array_equal(row, np.ones((1, 9)))

    def test_state_dim_mismatch(self, ex2_dictionary):
        with pytest.raises(InvalidInput):
            koopid.evaluate(ex2_dictionary, np.ones((3, 3)))

    def test_overflow_reports_row(self):
        d = koopid.MonomialDictionary(1, [(2,)])
        X = np.array([[1.0], [1e200], [2.0]])
        with pytest.raises(EvaluationOverflow) as excinfo:
            koopid.evaluate(d, X)
        assert excinfo.value.row == 1

    @pytest.mark.parametrize("coeffs", [None, [[1.0, 0.0], [0.0, 1.0]]],
                             ids=["monomials", "derived"])
    def test_finite_values_whose_sum_overflows_are_no_overflow(self, coeffs):
        # the block's sum is infinite, but every value is finite
        d = koopid.MonomialDictionary(1, [(0,), (1,)])
        if coeffs is not None:
            d = koopid.restrict(d, np.array(coeffs))
        X = np.array([[1e308], [1.5e308], [-1e308]])
        np.testing.assert_array_equal(koopid.evaluate(d, X),
                                      np.hstack([np.ones((3, 1)), X]))

    def test_overflow_in_a_derived_recombination_reports_row(self):
        base = koopid.MonomialDictionary(1, [(1,), (2,)])
        derived = koopid.restrict(base, np.array([[1.0], [1e300]]))
        with pytest.raises(EvaluationOverflow) as excinfo:
            koopid.evaluate(derived, np.array([[1.0], [1e10]]))
        assert excinfo.value.row == 1

    def test_full_column_rank_on_generic_samples(self):
        d = koopid.monomials_up_to_degree(2, 3)
        rng = np.random.Generator(np.random.PCG64(4))
        X = rng.uniform(-1.5, 1.5, size=(200, 2))
        DX = koopid.evaluate(d, X)
        assert koopid.numerical_rank(DX) == d.size


def _repeated_products(exponents, X):
    """Each monomial as repeated multiplication from 1.0, variable by
    variable in order: the evaluation order that evaluate promises."""
    out = np.empty((len(X), len(exponents)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, e in enumerate(exponents):
            value = np.ones(len(X))
            for i, k in enumerate(e):
                if k:
                    power = np.ones(len(X))
                    for _ in range(k):
                        power = power * X[:, i]
                    value = value * power
            out[:, j] = value
    return out


_KERNEL_DICTIONARIES = {
    "2-vars-degree-7": koopid.monomials_up_to_degree(2, 7),
    "3-vars-degree-4": koopid.monomials_up_to_degree(3, 4),
    # without their pure powers, so these take scratch columns
    "file-2-vars": koopid.MonomialDictionary(2, ((0, 0), (2, 1), (1, 3), (0, 4))),
    "file-3-vars": koopid.MonomialDictionary(3, ((1, 2, 3), (0, 0, 5), (4, 0, 1))),
}


def _kernel_samples(n, overflow):
    X = np.random.Generator(np.random.PCG64(n)).uniform(-4, 4, size=(120, n))
    X[30] = 1e-170  # underflows to zero in the higher powers
    if overflow:
        # row 20 overflows only where x_0 is squared, to inf or (inf * 0) NaN
        X[20, 0], X[20, 1:] = 1e160, 0.0
        X[57] = 1e200
    return X


class TestEvaluationKernel:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("overflow", [False, True])
    @pytest.mark.parametrize("name", sorted(_KERNEL_DICTIONARIES))
    def test_bit_for_bit_the_repeated_products(self, name, overflow, order):
        d = _KERNEL_DICTIONARIES[name]
        X = _kernel_samples(d.state_dim, overflow)
        expected = _repeated_products(d.exponents, X)
        # a column slice of a wider array, as the QR block hands it over
        out = np.full((len(X), d.size + 3), 7.0, order=order)[:, 1:1 + d.size]
        row = _evaluate_monomials(d, X, out)
        assert np.array_equal(out, expected, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(expected))
        bad = ~np.all(np.isfinite(expected), axis=1)
        assert bad.any() == overflow
        assert row == (int(np.argmax(bad)) if overflow else None)

    def test_derived_dictionary_is_the_product_with_its_coefficients(self):
        base = _KERNEL_DICTIONARIES["3-vars-degree-4"]
        C = np.random.Generator(np.random.PCG64(9)).standard_normal((base.size, 6))
        X = _kernel_samples(3, overflow=False)
        np.testing.assert_array_equal(
            koopid.evaluate(koopid.restrict(base, C), X),
            _repeated_products(base.exponents, X) @ C)


class TestRestrict:
    def test_identity_keeps_evaluations(self, ex2_dictionary):
        rng = np.random.Generator(np.random.PCG64(1))
        X = rng.uniform(-2, 2, size=(50, 2))
        derived = koopid.restrict(ex2_dictionary, np.eye(9))
        np.testing.assert_array_equal(koopid.evaluate(derived, X),
                                      koopid.evaluate(ex2_dictionary, X))

    def test_first_basis_column_selects_first_function(self, ex2_dictionary):
        e1 = np.eye(9)[:, :1]
        derived = koopid.restrict(ex2_dictionary, e1)
        assert derived.size == 1
        X = np.array([[0.5, -1.0]])
        np.testing.assert_array_equal(koopid.evaluate(derived, X), [[1.0]])

    def test_restriction_matches_matrix_product(self, ex2_dictionary):
        rng = np.random.Generator(np.random.PCG64(2))
        C = rng.standard_normal((9, 4))
        X = rng.uniform(-2, 2, size=(60, 2))
        derived = koopid.restrict(ex2_dictionary, C)
        np.testing.assert_allclose(koopid.evaluate(derived, X),
                                   koopid.evaluate(ex2_dictionary, X) @ C,
                                   rtol=1e-13, atol=1e-13)

    def test_composition(self, ex2_dictionary):
        rng = np.random.Generator(np.random.PCG64(3))
        C1 = rng.standard_normal((9, 5))
        C2 = rng.standard_normal((5, 2))
        X = rng.uniform(-2, 2, size=(40, 2))
        twice = koopid.restrict(koopid.restrict(ex2_dictionary, C1), C2)
        once = koopid.restrict(ex2_dictionary, C1 @ C2)
        np.testing.assert_allclose(koopid.evaluate(twice, X),
                                   koopid.evaluate(once, X),
                                   rtol=1e-12, atol=1e-12)

    def test_rank_deficient_raises(self, ex2_dictionary):
        C = np.zeros((9, 2))
        C[0, 0] = C[0, 1] = 1.0
        with pytest.raises(RankError):
            koopid.restrict(ex2_dictionary, C)

    def test_one_rank_check_of_the_stored_coefficients(self):
        # singular values 1 and 1e-12: below DEFAULT_TOL's threshold, so the
        # one check, of the coefficients the dictionary stores, raises
        C = np.array([[1.0, 0.0], [0.0, 1e-12], [0.0, 0.0]])
        with pytest.raises(RankError):
            koopid.restrict(koopid.monomials_up_to_degree(2, 1), C)

    def test_wrong_row_count_raises(self, ex2_dictionary):
        with pytest.raises(InvalidInput):
            koopid.restrict(ex2_dictionary, np.eye(5))

    def test_derived_descriptor_round_trip(self, ex2_dictionary):
        rng = np.random.Generator(np.random.PCG64(8))
        C = rng.standard_normal((9, 3))
        derived = koopid.restrict(ex2_dictionary, C)
        rebuilt = dictionary_from_descriptor(derived.descriptor())
        np.testing.assert_array_equal(rebuilt.coeffs, derived.coeffs)
        assert rebuilt.base == ex2_dictionary


class TestEvaluateFactor:
    @pytest.mark.parametrize("rows", [63, 64, 65, 131])
    @pytest.mark.parametrize("derived", [False, True])
    def test_matches_the_factor_of_the_evaluations(self, rows, derived,
                                                   ex2_dictionary, small_blocks):
        rng = np.random.Generator(np.random.PCG64(rows))
        X = rng.uniform(-2, 2, size=(rows, 2))
        Y = rng.uniform(-2, 2, size=(rows, 2))
        X_before, Y_before = X.copy(), Y.copy()
        d = ex2_dictionary
        if derived:
            d = koopid.restrict(d, rng.standard_normal((d.size, 4)))
        streamed = koopid.evaluate_factor(d, X, Y)
        DX, DY = koopid.evaluate(d, X), koopid.evaluate(d, Y)
        full = koopid.snapshot_factor(DX, DY)
        R_s = np.hstack([streamed.RX, streamed.RY])
        R_f = np.hstack([full.RX, full.RY])
        assert R_s.shape == R_f.shape
        scale = np.linalg.norm(np.hstack([DX, DY])) ** 2
        np.testing.assert_allclose(R_s.T @ R_s, R_f.T @ R_f, rtol=0,
                                   atol=1e-13 * scale)
        assert np.array_equal(X, X_before) and np.array_equal(Y, Y_before)

    def test_peak_memory_is_one_block(self, vdp_dictionary):
        # the dictionary is evaluated straight into the one leaf, which
        # LAPACK factors in place and which carries the R factor on: four
        # full leaves and a short one never take a second leaf's bytes
        n_d = vdp_dictionary.size
        leaf_rows = max(4 * n_d, min(numerics._BLOCK_ROWS,
                                     numerics._BLOCK_BYTES // (16 * n_d)))
        rng = np.random.Generator(np.random.PCG64(11))
        X = rng.uniform(-4, 4, size=(4 * leaf_rows + 1000, 2))
        Y = rng.uniform(-4, 4, size=X.shape)
        tracemalloc.start()
        try:
            koopid.evaluate_factor(vdp_dictionary, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * leaf_rows * 2 * n_d * 8

    @pytest.mark.parametrize("side", ["X", "Y"])
    def test_overflow_reports_the_global_row(self, side, small_blocks):
        d = koopid.monomials_up_to_degree(1, 2)
        data = {"X": np.ones((150, 1)), "Y": np.ones((150, 1))}
        data[side][100, 0] = 1e200  # second leaf, its 37th new row
        with pytest.raises(EvaluationOverflow, match=f"on {side}") as excinfo:
            koopid.evaluate_factor(d, data["X"], data["Y"])
        assert excinfo.value.row == 100

    def test_rejects_unequal_shapes(self, ex2_dictionary):
        with pytest.raises(InvalidInput):
            koopid.evaluate_factor(ex2_dictionary, np.ones((5, 2)), np.ones((4, 2)))

    def test_rejects_a_state_dim_mismatch_in_a_later_block(self, ex2_dictionary):
        blocks = [(np.ones((5, 2)), np.ones((5, 2))), (np.ones((5, 3)), np.ones((5, 3)))]
        with pytest.raises(InvalidInput, match="3 columns"):
            koopid.evaluate_factor(ex2_dictionary, iter(blocks))
