import numpy as np
import pytest

import koopid
from koopid import edmd
from koopid.errors import AssumptionViolation, InvalidInput, RankWarning
from conftest import EX2_A, EX2_SPECTRUM

# coefficient vectors in the 9-function dictionary
V_QUADRATIC_RADIUS = np.array([0, 0, 0, 1.0, 0, 1.0, 0, 0, 0])  # x1^2 + x2^2
V_X1_SQUARED = np.array([0, 0, 0, 1.0, 0, 0, 0, 0, 0])


def normal_equation_oracle(DX, DY):
    return np.linalg.solve(DX.T @ DX, DX.T @ DY)


class TestEdmdMatrix:
    def test_identity_fit(self):
        rng = np.random.Generator(np.random.PCG64(0))
        DX = rng.standard_normal((40, 5))
        k = koopid.edmd_matrix(DX, DX)
        np.testing.assert_allclose(k.matrix, np.eye(5), atol=1e-12)
        assert np.linalg.norm(DX - DX @ k.matrix) <= 1e-10
        assert k.direction == "forward"

    def test_scalar_scaling(self):
        rng = np.random.Generator(np.random.PCG64(1))
        DX = rng.standard_normal((40, 5))
        k = koopid.edmd_matrix(DX, 2.0 * DX)
        np.testing.assert_allclose(k.matrix, 2.0 * np.eye(5), atol=1e-12)

    def test_linear_dictionary_recovers_transposed_map(self, ex2_snapshots):
        linear = koopid.MonomialDictionary(2, [(1, 0), (0, 1)])
        DX = koopid.evaluate(linear, ex2_snapshots.X)
        DY = koopid.evaluate(linear, ex2_snapshots.Y)
        k = koopid.edmd_matrix(DX, DY)
        np.testing.assert_allclose(k.matrix, EX2_A.T, atol=1e-12)
        np.testing.assert_allclose(k.matrix, normal_equation_oracle(DX, DY),
                                   atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            koopid.edmd_matrix(np.ones((4, 2)), np.ones((4, 3)))

    def test_rank_deficiency_warns_but_proceeds(self):
        DX = np.ones((10, 2))  # two identical columns
        with pytest.warns(RankWarning):
            k = koopid.edmd_matrix(DX, DX)
        assert np.all(np.isfinite(k.matrix))

    @pytest.mark.parametrize("seed", range(3))
    def test_residual_is_minimal(self, seed):
        rng = np.random.Generator(np.random.PCG64(500 + seed))
        DX = rng.standard_normal((50, 4))
        DY = rng.standard_normal((50, 4))
        k = koopid.edmd_matrix(DX, DY)
        residual = np.linalg.norm(DY - DX @ k.matrix)
        for _ in range(20):
            delta = rng.standard_normal((4, 4))
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = np.linalg.norm(DY - DX @ (k.matrix + delta))
            assert perturbed >= residual - 1e-12


class TestRelativeResidual:
    def test_exact_fit_is_zero(self):
        rng = np.random.Generator(np.random.PCG64(2))
        DX = rng.standard_normal((30, 3))
        K = rng.standard_normal((3, 3))
        assert koopid.relative_residual(DX, DX @ K, K) <= 1e-14

    def test_hand_computed_value(self):
        DX = np.eye(2)
        DY = np.array([[1.0, 0.0], [0.0, 1.1]])
        # ||diag(0, 0.1)||_F / min(sqrt(2), sqrt(2.21)) = 0.1 / sqrt(2)
        np.testing.assert_allclose(koopid.relative_residual(DX, DY, np.eye(2)),
                                   0.1 / np.sqrt(2.0), rtol=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(InvalidInput):
            koopid.relative_residual(np.zeros((3, 2)), np.zeros((3, 2)), np.eye(2))

    def test_nonconforming_shapes(self):
        with pytest.raises(InvalidInput):
            koopid.relative_residual(np.ones((3, 2)), np.ones((3, 2)), np.eye(3))


class TestCheckLinearEvolution:
    def test_exact_linear_observable(self, counterexample_matrices):
        DX, DY = counterexample_matrices
        ok, defect = koopid.check_linear_evolution(DX, DY, [1.0, 0.0], 2.0)
        assert ok and defect == 0.0

    def test_radius_function_is_linear_evolution(self, ex2_matrices):
        DX, DY = ex2_matrices
        ok, defect = koopid.check_linear_evolution(DX, DY, V_QUADRATIC_RADIUS, 0.89)
        assert ok and defect <= 1e-12

    def test_x1_squared_is_not(self, ex2_matrices):
        DX, DY = ex2_matrices
        ok, defect = koopid.check_linear_evolution(DX, DY, V_X1_SQUARED, 0.89)
        assert not ok and defect > 1e-3

    def test_zero_vector_rejected(self, ex2_matrices):
        DX, DY = ex2_matrices
        with pytest.raises(InvalidInput):
            koopid.check_linear_evolution(DX, DY, np.zeros(9), 1.0)

    @pytest.mark.parametrize("v, message", [
        (np.ones(8), "v length must equal the dictionary size"),
        (np.r_[np.ones(8), np.nan], "v contains non-finite entries"),
        (np.r_[np.ones(8), np.inf], "v contains non-finite entries"),
    ], ids=["short", "nan", "inf"])
    def test_invalid_vector_rejected(self, ex2_matrices, v, message):
        DX, DY = ex2_matrices
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            koopid.check_linear_evolution(DX, DY, v, 1.0)

    def test_a_function_that_vanishes_on_the_data_is_rejected(self):
        # x1 - x2 is zero on data with x1 = x2
        DX = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(InvalidInput, match="^D\\(X\\) v vanishes on the data; "
                                               "defect undefined$"):
            koopid.check_linear_evolution(DX, 2.0 * DX, [1.0, -1.0], 2.0)


class TestForwardBackward:
    def test_identity_data_matches_every_direction(self):
        rng = np.random.Generator(np.random.PCG64(3))
        DX = rng.standard_normal((30, 5))
        matched = koopid.forward_backward_eigenpairs(DX, DX)
        assert len(matched) == 5
        for ev in matched:
            assert abs(ev.eigenvalue - 1.0) <= 1e-10
            assert ev.data_defect <= 1e-10
        V = np.column_stack([ev.coefficients for ev in matched])
        assert koopid.numerical_rank(V) == 5

    def test_counterexample_keeps_only_the_true_eigenfunction(
            self, counterexample_matrices):
        DX, DY = counterexample_matrices
        k_f = koopid.edmd_matrix(DX, DY)
        assert len(koopid.eig(k_f.matrix)) == 2
        matched = koopid.forward_backward_eigenpairs(DX, DY)
        assert len(matched) == 1
        ev = matched[0]
        assert abs(ev.eigenvalue - 2.0) <= 1e-8
        assert abs(ev.coefficients[1]) <= 1e-10  # direction e1
        # the rejected eigenvector of K_f fails the data-level check
        pairs = koopid.eig(k_f.matrix)
        spurious = [(lam, v) for lam, v in pairs.pairs() if abs(lam - 2.0) > 1e-6]
        assert len(spurious) == 1
        lam2, v2 = spurious[0]
        _, defect = koopid.check_linear_evolution(DX, DY, v2, lam2)
        assert defect > 1e-3

    def test_linear_system_matches_six_evolutions(self, ex2_matrices):
        DX, DY = ex2_matrices
        matched = koopid.forward_backward_eigenpairs(DX, DY)
        assert len(matched) == 6
        found = np.sort_complex(np.array([ev.eigenvalue for ev in matched]))
        np.testing.assert_allclose(found, EX2_SPECTRUM, atol=1e-9)
        for ev in matched:
            assert ev.data_defect <= 1e-8
            assert ev.backward_defect <= 1e-8 * 10

    def test_matched_set_closed_under_conjugation(self, ex2_matrices):
        DX, DY = ex2_matrices
        matched = koopid.forward_backward_eigenpairs(DX, DY)
        for ev in matched:
            if ev.eigenvalue.imag == 0.0:
                continue
            partners = [
                other for other in matched
                if other.eigenvalue == ev.eigenvalue.conjugate()
                and np.array_equal(other.coefficients, np.conj(ev.coefficients))
            ]
            assert len(partners) == 1

    def test_forward_backward_eigenvalues_are_reciprocal(self, ex2_matrices):
        DX, DY = ex2_matrices
        k_b = koopid.edmd_matrix(DY, DX, direction="backward")
        for ev in koopid.forward_backward_eigenpairs(DX, DY):
            v = ev.coefficients
            lam_b = complex(np.vdot(v, k_b.matrix @ v))
            assert abs(ev.eigenvalue * lam_b - 1.0) <= 2e-8

    def test_invariant_under_dictionary_recombination(self, ex2_matrices, tol):
        DX, DY = ex2_matrices
        rng = np.random.Generator(np.random.PCG64(77))
        P = rng.standard_normal((9, 9)) + 3.0 * np.eye(9)
        matched = koopid.forward_backward_eigenpairs(DX, DY)
        matched_p = koopid.forward_backward_eigenpairs(DX @ P, DY @ P)
        lam = np.sort_complex(np.array([ev.eigenvalue for ev in matched]))
        lam_p = np.sort_complex(np.array([ev.eigenvalue for ev in matched_p]))
        np.testing.assert_allclose(lam, lam_p, atol=1e-8)
        # per eigenvalue, the identified functions evaluated on the data span
        # the same spaces
        for target in lam:
            F = np.column_stack([DX @ ev.coefficients for ev in matched
                                 if abs(ev.eigenvalue - target) <= 1e-8])
            F_p = np.column_stack([(DX @ P) @ ev.coefficients for ev in matched_p
                                   if abs(ev.eigenvalue - target) <= 1e-8])
            assert koopid.subspace_equal(F, F_p, tol)

    def test_rank_deficient_data_is_a_hard_error(self):
        DX = np.ones((10, 2))
        with pytest.raises(AssumptionViolation):
            koopid.forward_backward_eigenpairs(DX, DX)

    @pytest.mark.parametrize("side", ["X", "Y"])
    def test_rank_violation_names_its_numbers(self, side):
        # sigma_min/sigma_max = 1e-12 against the threshold 1e-10 * N_d
        rng = np.random.Generator(np.random.PCG64(6))
        Q, _ = np.linalg.qr(rng.standard_normal((100, 2)))
        full, deficient = Q @ np.diag([1.0, 0.5]), Q @ np.diag([1.0, 1e-12])
        DX, DY = (deficient, full) if side == "X" else (full, deficient)
        with pytest.raises(AssumptionViolation) as excinfo:
            koopid.forward_backward_eigenpairs(DX, DY)
        assert str(excinfo.value) == (
            f"D({side}) is not of full column rank: numerical rank 1 < N_d = 2; "
            "sigma_min/sigma_max = 1e-12 is not above the relative threshold "
            "rank_rtol*N_d = 2e-10")

    def test_too_few_samples_is_a_hard_error(self):
        rng = np.random.Generator(np.random.PCG64(4))
        DX = rng.standard_normal((3, 5))
        with pytest.raises(AssumptionViolation):
            koopid.forward_backward_eigenpairs(DX, DX)

    def test_collapsed_direction_violates_the_rank_assumption(self):
        # a direction whose image shrinks to the order of the rank threshold
        # makes D(Y) rank deficient, which the forward-backward theorem
        # excludes up front
        rng = np.random.Generator(np.random.PCG64(5))
        DX = rng.standard_normal((60, 3))
        DY = DX @ np.diag([1e-13, 0.5, 2.0])
        with pytest.raises(AssumptionViolation):
            koopid.forward_backward_eigenpairs(DX, DY)


    def test_an_eigenvalue_below_the_cutoff_is_skipped_and_logged(self, caplog):
        # full rank, but D(Y) v is orthogonal to the range of D(X), so K_f = 0
        DX, DY = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
        with caplog.at_level("INFO", logger="koopid.edmd"):
            assert koopid.forward_backward_eigenpairs(DX, DY) == []
        assert [rec.getMessage() for rec in caplog.records] == [
            "skipping 1 eigenpair(s) with |lambda| = 0.000e+00 < 1e-12"]

    def test_a_repeated_eigenvalue_without_a_backward_match_is_dropped(self):
        # D(Y) = D(X) / 2 + W, W orthogonal to the range of D(X) with
        # W^T W = D(X)^T D(X): K_f = I / 2, twice, but K_b = 0.4 I, not 2 I
        DX = np.vstack([np.eye(2), np.zeros((2, 2))])
        DY = np.vstack([0.5 * np.eye(2), np.eye(2)])
        k_f, k_b = (koopid.edmd_matrix(*pair).matrix for pair in ((DX, DY), (DY, DX)))
        assert np.allclose(k_f, 0.5 * np.eye(2)) and np.allclose(k_b, 0.4 * np.eye(2))
        assert koopid.forward_backward_eigenpairs(DX, DY) == []

    def test_a_candidate_off_by_its_backward_rayleigh_quotient_is_dropped(self):
        # K_f = diag(1, 1e-3) and K_b = diag(1 / (1 + 1e-6), 1e3): e_1 misses
        # 1 / lambda = 1 by 1e-6, within eig_match_atol * ||K_b|| = 1e-5 as a
        # backward defect but not within eig_match_atol * (1 + 1 / |lambda|)
        # as a Rayleigh quotient; e_2 matches exactly
        DX = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        DY = np.array([[1.0, 0.0], [0.0, 1e-3], [1e-3, 0.0]])
        (ev,) = koopid.forward_backward_eigenpairs(DX, DY)
        assert ev.eigenvalue == pytest.approx(1e-3, rel=1e-12)
        assert np.allclose(np.abs(ev.coefficients), [0.0, 1.0])


class TestLemmaOneProperty:
    def test_data_linear_vectors_are_forward_eigenvectors(
            self, ex2_matrices, counterexample_matrices):
        # any v with a tolerance-zero data defect must be an eigenvector of
        # the forward matrix with the same eigenvalue
        cases = []
        DX, DY = counterexample_matrices
        cases.append((DX, DY, np.array([1.0, 0.0]), 2.0))
        DX9, DY9 = ex2_matrices
        cases.append((DX9, DY9, np.array([1.0] + [0.0] * 8), 1.0))
        cases.append((DX9, DY9, V_QUADRATIC_RADIUS, 0.89))
        # linear modes x1 +/- i x2 with eigenvalues 0.8 -/+ 0.5i
        v_linear = np.zeros(9, dtype=complex)
        v_linear[1], v_linear[2] = 1.0, 1.0j
        cases.append((DX9, DY9, v_linear, 0.8 - 0.5j))
        for DX_c, DY_c, v, lam in cases:
            v = np.asarray(v, dtype=complex)
            v = v / np.linalg.norm(v)
            _, defect = koopid.check_linear_evolution(DX_c, DY_c, v, lam)
            assert defect <= 1e-12
            k_f = koopid.edmd_matrix(DX_c, DY_c)
            assert np.linalg.norm(k_f.matrix @ v - lam * v) <= 1e-8


class TestFactorRoute:
    @pytest.mark.parametrize("case", ["counterexample", "ex2"])
    def test_blocks_match_full_data(self, case, counterexample_matrices,
                                    ex2_matrices, tol):
        DX, DY = (counterexample_matrices if case == "counterexample"
                  else ex2_matrices)
        factor = koopid.snapshot_factor(DX, DY)
        def by_eigenvalue(matched):
            return sorted(matched, key=lambda e: (e.eigenvalue.real, e.eigenvalue.imag))

        on_blocks = by_eigenvalue(
            koopid.forward_backward_eigenpairs(factor.RX, factor.RY, tol))
        on_data = by_eigenvalue(koopid.forward_backward_eigenpairs(DX, DY, tol))
        assert len(on_data) == len(on_blocks)
        for a, b in zip(on_data, on_blocks):
            assert abs(a.eigenvalue - b.eigenvalue) <= 1e-6
            assert abs(abs(np.vdot(a.coefficients, b.coefficients)) - 1.0) <= 1e-6
            assert abs(a.data_defect - b.data_defect) <= tol.eig_match_atol
        k_blocks = koopid.edmd_matrix(factor.RX, factor.RY, tol)
        k_full = koopid.edmd_matrix(DX, DY, tol)
        np.testing.assert_allclose(k_blocks.matrix, k_full.matrix, atol=1e-8)
        assert koopid.relative_residual(factor.RX, factor.RY,
                                        k_blocks.matrix) == pytest.approx(
            koopid.relative_residual(DX, DY, k_full.matrix), rel=1e-6, abs=1e-14)

    def test_rank_check_pair_is_the_edmd_pair(self, ex2_matrices, tol):
        # the pair built from the SVDs of the full-rank check, which
        # forward_backward_eigenpairs and lift_eigenvectors use, is bit for
        # bit what edmd_matrix builds: fb-edmd identify stores e_r of the latter
        factor = koopid.snapshot_factor(*ex2_matrices)
        pair = edmd._full_rank_pair(factor, tol)
        forward = koopid.edmd_matrix(factor.RX, factor.RY, tol).matrix
        assert np.array_equal(pair[0].matrix, forward)
        assert np.array_equal(pair[1].matrix,
                              koopid.pseudo_inverse(factor.RY, tol) @ factor.RX)

    def test_defect_is_the_same_on_blocks(self, ex2_matrices):
        DX, DY = ex2_matrices
        factor = koopid.snapshot_factor(DX, DY)
        for v, lam in [(V_QUADRATIC_RADIUS, 0.89), (V_X1_SQUARED, 0.89)]:
            _, full = koopid.check_linear_evolution(DX, DY, v, lam)
            _, block = koopid.check_linear_evolution(factor.RX, factor.RY, v, lam)
            assert block == pytest.approx(full, rel=1e-6, abs=1e-13)
