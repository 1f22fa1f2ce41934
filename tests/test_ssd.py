import csv
import dataclasses
import importlib
import inspect
import io
import warnings

import numpy as np
import pytest

import koopid
from koopid import numerics
from koopid.errors import InvalidInput
from koopid.systems import write_grid_csv
from conftest import EX2_A, EX2_SPECTRUM, equivalence_instance

# columns of the identity selecting {1, x1, x2, x1^2, x1*x2, x2^2} inside the
# 9-function dictionary
QUADRATIC_SPAN = np.eye(9)[:, :6]


@pytest.fixture(scope="module")
def ex2_ssd(ex2_matrices):
    DX, DY = ex2_matrices
    return koopid.ssd(DX, DY)


@pytest.fixture(scope="module")
def vdp_ssd(vdp_matrices):
    DX, DY = vdp_matrices
    return koopid.ssd(DX, DY)


class TestExactSsd:
    def test_linear_dictionary_is_already_invariant(self, ex2_snapshots):
        linear = koopid.MonomialDictionary(2, [(1, 0), (0, 1)])
        DX = koopid.evaluate(linear, ex2_snapshots.X)
        DY = koopid.evaluate(linear, ex2_snapshots.Y)
        result = koopid.ssd(DX, DY)
        np.testing.assert_array_equal(result.C, np.eye(2))
        assert result.iterations == 1
        assert result.log[0].action == "complete"
        assert result.log[0].null_dim == 2

    def test_linear_system_identifies_quadratic_span(self, ex2_matrices, ex2_ssd,
                                                     tol):
        DX, _ = ex2_matrices
        assert ex2_ssd.subspace_dim == 6
        assert koopid.subspace_equal(DX @ ex2_ssd.C, DX @ QUADRATIC_SPAN, tol)
        assert ex2_ssd.max_range_angle <= 1e-8

    def test_dimension_strictly_decreases(self, ex2_ssd):
        dims = [entry.subspace_dim for entry in ex2_ssd.log]
        assert dims == sorted(dims, reverse=True)
        assert all(a > b for a, b in zip(dims, dims[1:]))
        assert ex2_ssd.iterations <= 9
        assert ex2_ssd.log[-1].action == "complete"

    def test_vanderpol_keeps_only_constants(self, vdp_ssd):
        assert vdp_ssd.subspace_dim == 1
        direction = vdp_ssd.C[:, 0] / np.linalg.norm(vdp_ssd.C[:, 0])
        assert abs(direction[0]) > 1.0 - 1e-8
        assert np.max(np.abs(direction[1:])) < 1e-3

    def test_zero_result_when_nothing_evolves_linearly(self):
        # x+ = 1/x on [1, 2] with the single observable x: the x and 1/x
        # data columns are linearly independent, so no nonzero combination
        # evolves linearly
        rng = np.random.Generator(np.random.PCG64(12))
        x = rng.uniform(1.0, 2.0, size=100)
        result = koopid.ssd(x[:, None], (1.0 / x)[:, None])
        assert result.is_zero
        assert result.subspace_dim == 0
        assert result.log[-1].action == "empty"

    def test_range_equality(self, ex2_matrices, ex2_ssd, tol):
        DX, DY = ex2_matrices
        assert koopid.subspace_equal(DX @ ex2_ssd.C, DY @ ex2_ssd.C, tol)

    def test_maximality_against_known_invariant_witnesses(self, ex2_matrices,
                                                          ex2_ssd, tol):
        DX, DY = ex2_matrices
        witnesses = [np.eye(9)[:, :1], np.eye(9)[:, :3], QUADRATIC_SPAN]
        Q = numerics.orthonormal_range(ex2_ssd.C, tol)
        for E in witnesses:
            assert koopid.subspace_equal(DX @ E, DY @ E, tol)
            residual = E - Q @ (Q.conj().T @ E)
            assert np.linalg.norm(residual, axis=0).max() <= 1e-8

    def test_basis_invariance(self, ex2_matrices, ex2_ssd, tol):
        DX, DY = ex2_matrices
        rng = np.random.Generator(np.random.PCG64(21))
        P = rng.standard_normal((9, 9)) + 3.0 * np.eye(9)
        transformed = koopid.ssd(DX @ P, DY @ P, tol)
        assert transformed.subspace_dim == ex2_ssd.subspace_dim
        assert koopid.subspace_equal((DX @ P) @ transformed.C, DX @ ex2_ssd.C, tol)
        # coefficient-space ranges transform consistently: range(P C') = range(C)
        assert koopid.subspace_equal(P @ transformed.C, ex2_ssd.C, tol)

    def test_assumption_violation(self):
        DX = np.ones((30, 2))
        with pytest.raises(koopid.AssumptionViolation):
            koopid.ssd(DX, DX)

    def test_few_samples_warns(self):
        rng = np.random.Generator(np.random.PCG64(13))
        DX = rng.standard_normal((5, 3))
        DY = rng.standard_normal((5, 3))
        with pytest.warns(UserWarning, match="snapshots"):
            koopid.ssd(DX, DY)


class TestLoopEdges:
    @pytest.mark.parametrize("epsilon", [None, 1e-4], ids=["exact", "approximate"])
    def test_few_samples_warn_once_at_the_caller(self, epsilon):
        rng = np.random.Generator(np.random.PCG64(21))
        DX, DY = rng.standard_normal((12, 9)), rng.standard_normal((12, 9))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            koopid.ssd(DX, DY) if epsilon is None else koopid.approximate_ssd(DX, DY, epsilon)
        fragile = [w for w in caught if "fewer than 2 * N_d" in str(w.message)]
        assert [(w.filename, w.lineno) for w in fragile] == [(__file__, line)]

    # x -> s x scales each monomial by s^|alpha|, a rescaling of the columns
    # of [D(X), D(Y)] that keeps their span, so the exact decision (the
    # constant alone) should not move
    @pytest.mark.parametrize("scale", [2.0, pytest.param(0.5, marks=pytest.mark.xfail(
        strict=True, reason="at s = 1/2 round 2 keeps a singular value only 1.69x the "
                            "threshold; the constant's residual grows past it round by "
                            "round and round 4 finds no null direction (null dims "
                            "[14, 5, 1, 0])"))])
    def test_a_change_of_units_keeps_the_exact_decision(self, vdp_dictionary,
                                                        vdp_snapshots, scale):
        factor = koopid.evaluate_factor(vdp_dictionary, scale * vdp_snapshots.X,
                                        scale * vdp_snapshots.Y)
        assert koopid.ssd(factor.RX, factor.RY).subspace_dim == 1


class TestApproximateSsd:
    def test_tiny_epsilon_matches_exact_on_exact_data(self, ex2_matrices,
                                                      ex2_ssd, tol):
        DX, DY = ex2_matrices
        result = koopid.approximate_ssd(DX, DY, 1e-15)
        assert result.mode == "approximate"
        assert result.subspace_dim == ex2_ssd.subspace_dim
        assert koopid.subspace_equal(DX @ result.C, DX @ ex2_ssd.C, tol)

    def test_recovers_subspace_from_perturbed_data(self, ex2_matrices, ex2_ssd):
        DX, DY = ex2_matrices
        rng = np.random.Generator(np.random.PCG64(5))
        DY_noisy = DY + 1e-6 * rng.standard_normal(DY.shape)
        result = koopid.approximate_ssd(DX, DY_noisy, 1e-4)
        assert result.subspace_dim == 6
        angles = koopid.principal_angles(DX @ result.C, DX @ ex2_ssd.C)
        assert angles.max() <= 1e-3

    def test_iteration_log_records_truncation(self, ex2_matrices):
        DX, DY = ex2_matrices
        rng = np.random.Generator(np.random.PCG64(6))
        DY_noisy = DY + 1e-6 * rng.standard_normal(DY.shape)
        result = koopid.approximate_ssd(DX, DY_noisy, 1e-4)
        for entry in result.log:
            assert entry.kept_rank is not None
            assert entry.truncation_ratio is not None
            if not entry.exact_fallback:
                assert entry.truncation_ratio <= 1e-4

    def test_no_admissible_truncation_falls_back_to_the_exact_rank(self, caplog):
        # independent X and Y under {x1, x2}: every trailing singular-value
        # sum of [D(X), D(Y)] exceeds eps, so the round keeps the exact rank
        # 4, which leaves no null direction
        rng = np.random.Generator(np.random.PCG64(21))
        X, Y = rng.uniform(-1.0, 1.0, size=(2, 500, 2))
        with caplog.at_level("INFO", logger="koopid.ssd"):
            result = koopid.approximate_ssd(X, Y, 1e-4)
        assert result.is_zero
        (entry,) = result.log
        assert (entry.action, entry.kept_rank, entry.exact_fallback) == ("empty", 4, True)
        assert entry.truncation_ratio == 0.0
        assert any("using the exact rank decision" in rec.getMessage()
                   for rec in caplog.records)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -1e-3, None])
    def test_epsilon_out_of_range(self, ex2_matrices, eps):
        DX, DY = ex2_matrices
        with pytest.raises(InvalidInput):
            koopid.approximate_ssd(DX, DY, eps)


class TestReducedKoopman:
    def test_linear_dictionary_gives_transposed_map(self, ex2_snapshots):
        linear = koopid.MonomialDictionary(2, [(1, 0), (0, 1)])
        DX = koopid.evaluate(linear, ex2_snapshots.X)
        DY = koopid.evaluate(linear, ex2_snapshots.Y)
        result = koopid.ssd(DX, DY)
        reduced = koopid.reduced_koopman(DX, DY, result)
        np.testing.assert_allclose(reduced.matrix, EX2_A.T, atol=1e-12)
        oracle = np.linalg.solve(DX.T @ DX, DX.T @ DY)
        np.testing.assert_allclose(reduced.matrix, oracle, atol=1e-10)

    def test_linear_system_spectrum(self, ex2_matrices, ex2_ssd, ex2_dictionary):
        DX, DY = ex2_matrices
        reduced = koopid.reduced_koopman(DX, DY, ex2_ssd)
        assert reduced.matrix.shape == (6, 6)
        assert reduced.e_r <= 1e-10
        spectrum = np.sort_complex(np.linalg.eigvals(reduced.matrix))
        np.testing.assert_allclose(spectrum, EX2_SPECTRUM, atol=1e-9)
        assert koopid.numerical_rank(reduced.matrix) == 6
        assert koopid.restrict(ex2_dictionary, ex2_ssd.C).size == 6

    def test_constant_subspace_gives_unit_koopman(self, vdp_matrices, vdp_ssd):
        DX, DY = vdp_matrices
        reduced = koopid.reduced_koopman(DX, DY, vdp_ssd)
        np.testing.assert_allclose(reduced.matrix, [[1.0]], atol=1e-8)

    def test_exact_mode_warns_when_c_is_not_invariant(self, ex2_matrices):
        # the whole 9-function span does not evolve linearly (x1^3 is
        # missing), so its exact-mode fit leaves a residual
        DX, DY = ex2_matrices
        result = koopid.SsdResult(C=np.eye(9), iterations=1, log=(), mode="exact")
        with pytest.warns(UserWarning, match="exact-mode reduced Koopman residual"):
            reduced = koopid.reduced_koopman(DX, DY, result)
        assert reduced.e_r > 10.0 * koopid.DEFAULT_TOL.subspace_atol

    def test_zero_result_rejected(self):
        rng = np.random.Generator(np.random.PCG64(14))
        x = rng.uniform(1.0, 2.0, size=50)
        DX, DY = x[:, None], (1.0 / x)[:, None]
        result = koopid.ssd(DX, DY)
        with pytest.raises(InvalidInput):
            koopid.reduced_koopman(DX, DY, result)


class TestLiftEigenvectors:
    def test_constant_lift(self, vdp_matrices, vdp_ssd):
        DX, DY = vdp_matrices
        reduced = koopid.reduced_koopman(DX, DY, vdp_ssd)
        lifted = koopid.lift_eigenvectors(DX, DY, vdp_ssd, reduced)
        assert len(lifted) == 1
        ev = lifted[0]
        assert abs(ev.eigenvalue - 1.0) <= 1e-8
        direction = vdp_ssd.C[:, 0] / np.linalg.norm(vdp_ssd.C[:, 0])
        assert abs(np.vdot(ev.coefficients, direction)) > 1.0 - 1e-10

    def test_zero_reduced_eigenvalues_are_skipped(self, ex2_snapshots):
        linear = koopid.MonomialDictionary(2, [(1, 0), (0, 1)])
        DX = koopid.evaluate(linear, ex2_snapshots.X)
        DY = koopid.evaluate(linear, ex2_snapshots.Y)
        result = koopid.ssd(DX, DY)
        doctored = koopid.ReducedKoopman(matrix=np.diag([0.0, 0.5]), e_r=0.0)
        lifted = koopid.lift_eigenvectors(DX, DY, result, doctored)
        assert [ev.eigenvalue for ev in lifted] == [0.5]

    def test_radius_mode(self, ex2_matrices, ex2_ssd):
        DX, DY = ex2_matrices
        reduced = koopid.reduced_koopman(DX, DY, ex2_ssd)
        lifted = koopid.lift_eigenvectors(DX, DY, ex2_ssd, reduced)
        radius = [ev for ev in lifted if abs(ev.eigenvalue - 0.89) <= 1e-8]
        assert len(radius) == 1
        v = radius[0].coefficients
        target = np.zeros(9)
        target[3] = target[5] = 1.0 / np.sqrt(2.0)
        assert abs(np.vdot(v, target)) > 1.0 - 1e-9

    def test_every_lifted_pair_evolves_linearly(self, ex2_matrices, ex2_ssd):
        DX, DY = ex2_matrices
        reduced = koopid.reduced_koopman(DX, DY, ex2_ssd)
        for ev in koopid.lift_eigenvectors(DX, DY, ex2_ssd, reduced):
            ok, _ = koopid.check_linear_evolution(DX, DY, ev.coefficients,
                                                  ev.eigenvalue)
            assert ok

    def test_lifted_spans_match_forward_backward(self, ex2_matrices, ex2_ssd, tol):
        DX, DY = ex2_matrices
        reduced = koopid.reduced_koopman(DX, DY, ex2_ssd)
        lifted = koopid.lift_eigenvectors(DX, DY, ex2_ssd, reduced)
        fb = koopid.forward_backward_eigenpairs(DX, DY, tol)
        assert len(lifted) == len(fb) == 6
        for target in {round(e.eigenvalue.real, 6) + 1j * round(e.eigenvalue.imag, 6)
                       for e in lifted}:
            V_l = np.column_stack([e.coefficients for e in lifted
                                   if abs(e.eigenvalue - target) <= 1e-6])
            V_f = np.column_stack([e.coefficients for e in fb
                                   if abs(e.eigenvalue - target) <= 1e-6])
            assert V_l.shape == V_f.shape
            assert koopid.subspace_equal(V_l, V_f, tol)
        # every forward-backward vector lies in range(C)
        Q = numerics.orthonormal_range(ex2_ssd.C, tol)
        for e in fb:
            residual = e.coefficients - Q @ (Q.conj().T @ e.coefficients)
            assert np.linalg.norm(residual) <= 1e-8
        # and on the data, the identified subspace equals the span of the
        # matched functions
        F = np.column_stack([DX @ e.coefficients for e in fb])
        assert koopid.subspace_equal(DX @ ex2_ssd.C, F, tol)

    def test_equivalence_on_a_pruned_random_instance(self, tol):
        dictionary, snapshots = equivalence_instance(3)
        DX = koopid.evaluate(dictionary, snapshots.X)
        DY = koopid.evaluate(dictionary, snapshots.Y)
        result = koopid.ssd(DX, DY, tol)
        assert 0 < result.subspace_dim < dictionary.size
        reduced = koopid.reduced_koopman(DX, DY, result, tol)
        lifted = koopid.lift_eigenvectors(DX, DY, result, reduced, tol)
        fb = koopid.forward_backward_eigenpairs(DX, DY, tol)
        lam_l = np.sort_complex(np.array([e.eigenvalue for e in lifted]))
        lam_f = np.sort_complex(np.array([e.eigenvalue for e in fb]))
        np.testing.assert_allclose(lam_l, lam_f, atol=1e-6)


class TestEigenfunctionGrid:
    def test_constant_function(self, ex2_dictionary):
        v = np.zeros(9)
        v[0] = 1.0
        grid = koopid.eigenfunction_grid(ex2_dictionary, v,
                                         [(-2, 2), (-2, 2)], 11)
        np.testing.assert_allclose(grid.abs_values, np.ones(121))
        np.testing.assert_allclose(grid.angles, np.zeros(121))
        assert grid.shape == (11, 11)

    def test_radius_function_corner_value(self, ex2_dictionary):
        v = np.zeros(9)
        v[3] = v[5] = 1.0
        grid = koopid.eigenfunction_grid(ex2_dictionary, v, [(-2, 2), (-2, 2)], 5)
        corner = np.flatnonzero((grid.points == [2.0, 2.0]).all(axis=1))
        assert corner.size == 1
        assert grid.abs_values[corner[0]] == pytest.approx(8.0)
        assert grid.angles[corner[0]] == 0.0

    def test_conjugate_symmetry_of_angles(self, ex2_dictionary):
        v = np.zeros(9, dtype=complex)
        v[1], v[2] = 1.0, 1.0j
        g = koopid.eigenfunction_grid(ex2_dictionary, v, [(-2, 2), (-2, 2)], 7)
        g_conj = koopid.eigenfunction_grid(ex2_dictionary, np.conj(v),
                                           [(-2, 2), (-2, 2)], 7)
        np.testing.assert_allclose(g_conj.abs_values, g.abs_values, atol=1e-14)
        # angles negate modulo the branch cut
        wrap = np.abs(np.exp(1j * (g.angles + g_conj.angles)) - 1.0)
        assert wrap.max() <= 1e-12

    def test_resolution_must_be_at_least_two(self, ex2_dictionary):
        with pytest.raises(InvalidInput):
            koopid.eigenfunction_grid(ex2_dictionary, np.ones(9),
                                      [(-1, 1), (-1, 1)], 1)

    def test_coefficient_length_checked(self, ex2_dictionary):
        with pytest.raises(InvalidInput):
            koopid.eigenfunction_grid(ex2_dictionary, np.ones(4),
                                      [(-1, 1), (-1, 1)], 5)

    def test_grid_csv(self, ex2_dictionary, tmp_path):
        v = np.zeros(9)
        v[0] = 1.0
        grid = koopid.eigenfunction_grid(ex2_dictionary, v, [(-1, 1), (-1, 1)], 4)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_1,x_2,abs,angle"
        assert len(lines) == 1 + 16

    def test_grid_csv_bytes_equal_csv_writer(self, ex2_dictionary, tmp_path):
        v = np.arange(9.0) - 4.0 + 1j * np.arange(9.0)
        grid = koopid.eigenfunction_grid(ex2_dictionary, v, [(-1, 1), (0, 1e-300)], 5)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["x_1", "x_2", "abs", "angle"])
        for point, a, theta in zip(grid.points, grid.abs_values, grid.angles):
            writer.writerow([f"{p:.17g}" for p in point] + [f"{a:.17g}", f"{theta:.17g}"])
        assert path.read_bytes() == reference.getvalue().encode()


def _run_route(DX, DY, epsilon, tol):
    """Decomposition, reduced matrix and lifted modes through one route."""
    if epsilon is None:
        result = koopid.ssd(DX, DY, tol)
    else:
        result = koopid.approximate_ssd(DX, DY, epsilon, tol)
    if result.is_zero:
        return result, None, []
    reduced = koopid.reduced_koopman(DX, DY, result, tol)
    return result, reduced, koopid.lift_eigenvectors(DX, DY, result, reduced, tol)


def _log_key(result):
    return [(it.subspace_dim, it.null_dim, it.action, it.kept_rank)
            for it in result.log]


def _assert_same_outcome(a, b, tol):
    (res_a, red_a, lift_a), (res_b, red_b, lift_b) = a, b
    assert _log_key(res_a) == _log_key(res_b)
    assert res_a.subspace_dim == res_b.subspace_dim
    if res_a.is_zero:
        return
    assert koopid.principal_angles(res_a.C, res_b.C).max() <= 1e-6
    # e_r to 4 digits; exact fits leave only rounding-level residuals
    assert red_a.e_r == pytest.approx(red_b.e_r, rel=1e-4, abs=1e-12)
    assert len(lift_a) == len(lift_b)
    lam_a = np.sort_complex(np.array([ev.eigenvalue for ev in lift_a]))
    lam_b = np.sort_complex(np.array([ev.eigenvalue for ev in lift_b]))
    np.testing.assert_allclose(lam_a, lam_b, atol=1e-6)
    defects_a = sorted(ev.data_defect for ev in lift_a)
    defects_b = sorted(ev.data_defect for ev in lift_b)
    np.testing.assert_allclose(defects_a, defects_b, atol=tol.eig_match_atol)


class TestFactorRoute:
    """The CLI route (one QR, then the blocks RX, RY passed as data) against
    the public calls on the N-row data."""

    @pytest.mark.parametrize("case,epsilon", [
        ("ex2", None), ("vdp", None), ("vdp", 1e-4),
    ])
    def test_same_decisions_spans_and_modes(self, case, epsilon, ex2_matrices,
                                            vdp_matrices, tol):
        DX, DY = ex2_matrices if case == "ex2" else vdp_matrices
        factor = numerics.snapshot_factor(DX, DY)
        blocks = _run_route(factor.RX, factor.RY, epsilon, tol)
        _assert_same_outcome(_run_route(DX, DY, epsilon, tol), blocks, tol)
        expected = {"ex2": 6, "vdp": 1 if epsilon is None else None}[case]
        if expected is not None:
            assert blocks[0].subspace_dim == expected
        else:
            assert 20 <= blocks[0].subspace_dim <= 28

    def test_lifting_checks_each_mode_on_the_blocks(self, ex2_matrices,
                                                    monkeypatch):
        # lifting calls the data-defect check once per mode, on 2 * N_d rows
        DX, DY = ex2_matrices
        factor = numerics.snapshot_factor(DX, DY)
        result = koopid.ssd(factor.RX, factor.RY)
        reduced = koopid.reduced_koopman(factor.RX, factor.RY, result)
        ssd_mod = importlib.import_module("koopid.ssd")  # koopid.ssd is the function
        seen = []
        original = ssd_mod.check_linear_evolution

        def spy(A, B, *args, **kwargs):
            seen.append(A.shape)
            return original(A, B, *args, **kwargs)

        monkeypatch.setattr(ssd_mod, "check_linear_evolution", spy)
        lifted = koopid.lift_eigenvectors(factor.RX, factor.RY, result, reduced)
        assert len(seen) == len(lifted) == 6
        assert all(shape == (18, 9) for shape in seen)

    def test_few_samples_warn_on_blocks(self):
        rng = np.random.Generator(np.random.PCG64(13))
        DX = rng.standard_normal((5, 3))
        DY = rng.standard_normal((5, 3))
        factor = numerics.snapshot_factor(DX, DY)
        assert factor.RX.shape == (5, 3)
        with pytest.warns(UserWarning, match="snapshots"):
            koopid.ssd(factor.RX, factor.RY)

    def test_fewer_samples_than_functions_violate_the_assumption(self):
        rng = np.random.Generator(np.random.PCG64(15))
        DX = rng.standard_normal((2, 3))
        DY = rng.standard_normal((2, 3))
        factor = numerics.snapshot_factor(DX, DY)
        with pytest.raises(koopid.AssumptionViolation, match="N_d = 3"):
            koopid.ssd(factor.RX, factor.RY)
        with pytest.raises(koopid.AssumptionViolation, match="N_d = 3"):
            koopid.approximate_ssd(DX, DY, 1e-4)

    def test_blocks_passed_as_data_give_the_same_decisions(self, vdp_matrices, tol):
        # factored again as 2 * N_d samples, RX and RY have the singular
        # values of the N-row data, so no decision reads the sample count
        factor = numerics.snapshot_factor(*vdp_matrices)
        on_data = koopid.ssd(*vdp_matrices, tol)
        as_data = koopid.ssd(factor.RX, factor.RY, tol)
        assert as_data.subspace_dim == on_data.subspace_dim == 1
        assert _log_key(as_data) == _log_key(on_data)
        # the blocks go through the one input check, so a factor object
        # itself, or blocks of unequal shape, are invalid input
        with pytest.raises(InvalidInput, match="DX must be 2-dimensional"):
            koopid.ssd(factor, None, tol)
        with pytest.raises(InvalidInput, match="DX"):
            koopid.ssd(factor, factor.RY, tol)
        with pytest.raises(InvalidInput, match="differ in shape"):
            koopid.ssd(factor.RX[:8], factor.RY[:6], tol)


class TestRowOrder:
    @pytest.mark.parametrize("seed", range(3))
    def test_permuting_rows_keeps_decisions_and_modes(self, seed, vdp_dictionary,
                                                      vdp_snapshots, monkeypatch,
                                                      tol):
        # leaves of 1,000 rows, 928 of them new after the first, so the
        # permutation reorders the rows of every leaf
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", 1_000)
        X, Y = vdp_snapshots.X, vdp_snapshots.Y
        order = np.random.Generator(np.random.PCG64(900 + seed)).permutation(len(X))
        factors = [koopid.evaluate_factor(vdp_dictionary, X[p], Y[p])
                   for p in (slice(None), order)]
        runs = [_run_route(F.RX, F.RY, 1e-4, tol) for F in factors]
        (res_a, red_a, lift_a), (res_b, red_b, lift_b) = runs
        assert _log_key(res_a) == _log_key(res_b)
        assert [it.kept_rank for it in res_a.log] == [43, 33, 25]
        assert res_a.subspace_dim == res_b.subspace_dim == 25
        assert len(lift_a) == len(lift_b) == 25
        lam_a = np.array([ev.eigenvalue for ev in lift_a])
        lam_b = np.array([ev.eigenvalue for ev in lift_b])
        for ev in lift_a:
            j = int(np.argmin(np.abs(lam_b - ev.eigenvalue)))
            assert abs(lam_b[j] - ev.eigenvalue) <= 1e-10
            # rounding moves an eigenvector by about 1e-12 over the distance
            # to the nearest other eigenvalue (2.4e-4 for the closest pair)
            gap = np.sort(np.abs(lam_a - ev.eigenvalue))[1]
            assert np.abs(lift_b[j].coefficients - ev.coefficients).max() \
                <= 1e-9 + 1e-11 / gap


class TestEvolutionOrder:
    @pytest.fixture(scope="class")
    def vdp_run(self, vdp_dictionary, vdp_snapshots, tol):
        factor = koopid.evaluate_factor(vdp_dictionary, vdp_snapshots.X, vdp_snapshots.Y)
        result = koopid.approximate_ssd(factor.RX, factor.RY, 1e-4, tol)
        return factor, result, koopid.reduced_koopman(factor.RX, factor.RY, result, tol)

    @pytest.mark.parametrize("change", ["last-bits", "rotated-basis"])
    def test_order_does_not_follow_the_eigensolver(self, vdp_run, change, tol):
        factor, result, reduced = vdp_run
        rng = np.random.Generator(np.random.PCG64(11))
        K, C = reduced.matrix, result.C
        if change == "last-bits":
            K = K * (1.0 + np.spacing(1.0) * rng.integers(-2, 3, K.shape))
        else:
            # the same subspace in another orthonormal basis, as a different
            # BLAS thread count can give; eig orders it differently
            Q, _ = np.linalg.qr(rng.standard_normal(K.shape))
            K, C = Q.T @ K @ Q, C @ Q
        runs = [koopid.lift_eigenvectors(factor.RX, factor.RY, res, red, tol)
                for res, red in ((result, reduced),
                                 (dataclasses.replace(result, C=C),
                                  dataclasses.replace(reduced, matrix=K)))]
        lam, moved = (np.array([ev.eigenvalue for ev in run]) for run in runs)
        assert lam.size == 25
        assert np.abs(lam - moved).max() <= 1e-10
        # descending real parts, each conjugate pair adjacent with +Im first
        assert np.all(np.diff(lam.real) <= 0)
        for a, b in zip(lam[:-1], lam[1:]):
            assert a.imag <= 0 or b == a.conjugate()

    def test_both_methods_give_the_same_order(self, ex2_matrices, ex2_ssd, tol):
        DX, DY = ex2_matrices
        reduced = koopid.reduced_koopman(DX, DY, ex2_ssd, tol)
        for run in (koopid.lift_eigenvectors(DX, DY, ex2_ssd, reduced, tol),
                    koopid.forward_backward_eigenpairs(DX, DY, tol)):
            np.testing.assert_allclose(
                [ev.eigenvalue for ev in run],
                [1.0, 0.89, 0.8 + 0.5j, 0.8 - 0.5j, 0.39 + 0.8j, 0.39 - 0.8j],
                atol=1e-10)


class TestRowDuplication:
    def test_tiling_the_data_keeps_every_decision(self, vdp_dictionary,
                                                  vdp_snapshots, tol):
        # 50 copies of the 1e4 snapshots scale R by sqrt(50) and leave every
        # singular-value ratio as it was, so no decision may move
        X, Y = vdp_snapshots.X, vdp_snapshots.Y
        once = koopid.evaluate_factor(vdp_dictionary, X, Y)
        tiled = koopid.evaluate_factor(vdp_dictionary, np.tile(X, (50, 1)),
                                       np.tile(Y, (50, 1)))
        for run in (lambda F: koopid.ssd(F.RX, F.RY, tol),
                    lambda F: koopid.approximate_ssd(F.RX, F.RY, 1e-4, tol)):
            res_once, res_tiled = run(once), run(tiled)
            assert _log_key(res_tiled) == _log_key(res_once)
            assert res_tiled.subspace_dim == res_once.subspace_dim


class TestColumnOrder:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("epsilon, kept_ranks, dim",
                             [(1e-4, [43, 33, 25], 25), (None, [None] * 6, 1)],
                             ids=["approx", "exact"])
    def test_permuting_dictionary_columns_keeps_decisions_and_modes(
            self, seed, epsilon, kept_ranks, dim, vdp_dictionary, vdp_snapshots, tol):
        X, Y = vdp_snapshots.X, vdp_snapshots.Y
        order = np.random.Generator(np.random.PCG64(700 + seed)).permutation(
            vdp_dictionary.size)
        permuted = koopid.MonomialDictionary(
            2, tuple(vdp_dictionary.exponents[k] for k in order))
        factors = [koopid.evaluate_factor(d, X, Y) for d in (vdp_dictionary, permuted)]
        runs = [_run_route(F.RX, F.RY, epsilon, tol) for F in factors]
        (res_a, red_a, lift_a), (res_b, red_b, lift_b) = runs
        assert _log_key(res_a) == _log_key(res_b)
        assert [it.kept_rank for it in res_a.log] == kept_ranks
        assert res_a.subspace_dim == res_b.subspace_dim == dim
        assert len(lift_a) == len(lift_b) == dim
        lam_a = np.array([ev.eigenvalue for ev in lift_a])
        lam_b = np.array([ev.eigenvalue for ev in lift_b])
        for ev in lift_a:
            j = int(np.argmin(np.abs(lam_b - ev.eigenvalue)))
            assert abs(lam_b[j] - ev.eigenvalue) <= 1e-10
            # coefficient k of the permuted run belongs to monomial order[k]
            coefficients = np.empty_like(ev.coefficients)
            coefficients[order] = lift_b[j].coefficients
            # the gap rule of TestRowOrder; a lone mode has no neighbour
            gap = np.sort(np.abs(lam_a - ev.eigenvalue))[1] if dim > 1 else np.inf
            assert np.abs(coefficients - ev.coefficients).max() <= 1e-9 + 1e-11 / gap
