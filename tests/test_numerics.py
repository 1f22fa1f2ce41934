import contextlib
import ctypes
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import koopid
from koopid import numerics
from koopid.errors import InternalInvariantViolation, InvalidInput
from koopid.numerics import _normalize_eigenvector


@pytest.fixture()
def without_dgeqrt(monkeypatch):
    """Factors through dgeqrf, as where numpy's LAPACK lacks dgeqrt."""
    monkeypatch.setattr(numerics, "_dgeqrt", lambda: None)


def _dgeqrt_r(A):
    """R of a copy of A by numpy's LAPACK dgeqrt in panels of
    ``numerics._QR_PANEL`` columns."""
    A = np.array(A, order="F")
    m, n = A.shape
    k = min(m, n)
    nb = min(numerics._QR_PANEL, k)
    T, work = np.empty((nb, n), order="F"), np.empty((nb, n), order="F")
    m_, n_, nb_, lda, ldt, info = (ctypes.c_int64(v) for v in (m, n, nb, m, nb, 0))
    numerics._dgeqrt()(*map(ctypes.addressof, (m_, n_, nb_)), A.ctypes.data,
                       ctypes.addressof(lda), T.ctypes.data, ctypes.addressof(ldt),
                       work.ctypes.data, ctypes.addressof(info))
    assert info.value == 0
    return np.triu(A[:k])


def rank_deficient_matrix(rng, rows, cols, rank):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def _reads(M, sizes):
    """The ``(X, Y)`` blocks of ``numerics._factor_blocks`` for the rows of
    M = [X, Y], read in blocks of the given sizes."""
    bounds = np.cumsum((0,) + sizes)
    return [np.hsplit(M[a:b], 2) for a, b in zip(bounds[:-1], bounds[1:])]


class TestToleranceConfig:
    def test_defaults(self):
        tol = koopid.ToleranceConfig()
        assert tol.rank_rtol == 1e-10
        assert tol.eig_match_atol == 1e-8
        assert tol.subspace_atol == 1e-8

    @pytest.mark.parametrize("field", ["rank_rtol", "eig_match_atol", "subspace_atol"])
    @pytest.mark.parametrize("bad", [0.0, -1e-8])
    def test_rejects_nonpositive(self, field, bad):
        with pytest.raises(InvalidInput):
            koopid.ToleranceConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["rank_rtol", "eig_match_atol", "subspace_atol"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nonfinite(self, field, bad):
        with pytest.raises(InvalidInput, match="finite"):
            koopid.ToleranceConfig(**{field: bad})


class TestNumericalRank:
    def test_identity(self):
        assert koopid.numerical_rank(np.eye(3)) == 3

    def test_rank_one_by_construction(self):
        assert koopid.numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_monomial_matrix_full_rank(self, ex2_matrices):
        # Gram-determinant oracle: the column-normalized Gram matrix of the
        # nine analytically independent monomials must be nonsingular.
        DX, _ = ex2_matrices
        G = DX / np.linalg.norm(DX, axis=0)
        sign, logdet = np.linalg.slogdet(G.T @ G)
        assert sign > 0 and logdet > -60.0
        assert koopid.numerical_rank(DX) == 9

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            koopid.numerical_rank(np.array([[1.0, np.nan]]))

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidInput):
            koopid.numerical_rank(np.ones(3))


class TestNullSpaceBasis:
    def test_identity_has_trivial_null_space(self):
        Z = koopid.null_space_basis(np.eye(4))
        assert Z.shape == (4, 0)

    def test_one_by_two(self):
        Z = koopid.null_space_basis(np.array([[1.0, 1.0]]))
        assert Z.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        sign = np.sign(Z[0, 0])
        np.testing.assert_allclose(sign * Z[:, 0], expected, atol=1e-14)

    def test_stacked_snapshot_pair_dimension(self, ex2_matrices):
        # Rank oracle on [D(X), D(Y)]: the nine kept monomials plus their
        # images span all ten monomials of degree <= 3 on generic data, so
        # the stacked matrix has rank 10 and null-space dimension 8.
        DX, DY = ex2_matrices
        M = np.hstack([DX, DY])
        oracle_rank = np.linalg.matrix_rank(M)
        assert oracle_rank == 10
        Z = koopid.null_space_basis(M)
        assert Z.shape[1] == M.shape[1] - oracle_rank == 8

    @pytest.mark.parametrize("seed,rows,cols,rank", [
        (0, 30, 12, 12), (1, 40, 15, 7), (2, 25, 25, 10), (3, 8, 20, 5),
        (4, 200, 30, 18), (5, 5000, 40, 25),
    ])
    def test_rank_nullity_and_residual(self, seed, rows, cols, rank, tol):
        rng = np.random.Generator(np.random.PCG64(seed))
        M = rank_deficient_matrix(rng, rows, cols, min(rank, rows, cols))
        Z = koopid.null_space_basis(M)
        assert koopid.numerical_rank(M) + Z.shape[1] == cols
        assert koopid.orthonormal_range(M).shape[1] == koopid.numerical_rank(M)
        if Z.shape[1]:
            np.testing.assert_allclose(Z.conj().T @ Z, np.eye(Z.shape[1]),
                                       atol=1e-12)
            sigma_max = np.linalg.norm(M, 2)
            bound = 10.0 * tol.rank_rtol * sigma_max * np.sqrt(Z.shape[1])
            assert np.linalg.norm(M @ Z) <= bound


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrices_through_every_rank_primitive(shape):
    rows, cols = shape
    M = np.zeros(shape)
    assert koopid.numerical_rank(M) == 0
    assert koopid.null_space_basis(M).shape == (cols, cols)
    assert koopid.orthonormal_range(M).shape == (rows, 0)
    P = koopid.pseudo_inverse(M)
    assert P.shape == (cols, rows) and not P.any()


class TestPseudoInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(koopid.pseudo_inverse(np.diag([2.0, 4.0])),
                                   np.diag([0.5, 0.25]), atol=1e-15)

    def test_zero_matrix(self):
        P = koopid.pseudo_inverse(np.zeros((3, 2)))
        assert P.shape == (2, 3)
        assert np.all(P == 0.0)

    def test_left_inverse_of_tall_full_rank(self):
        rng = np.random.Generator(np.random.PCG64(11))
        M = rng.standard_normal((100, 5))
        np.testing.assert_allclose(koopid.pseudo_inverse(M) @ M, np.eye(5),
                                   atol=1e-10)

    @pytest.mark.parametrize("rows,cols", [(80, 12), (12, 80)])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_equals_numpy_pinv_at_the_rank_threshold(self, rows, cols, is_complex, tol):
        rng = np.random.Generator(np.random.PCG64(150 + rows))
        M = rank_deficient_matrix(rng, rows, cols, 7)
        if is_complex:
            M = M @ (np.eye(cols) + 1j * rng.standard_normal((cols, cols)))
        assert koopid.numerical_rank(M, tol) == 7
        reference = np.linalg.pinv(M, rcond=tol.rank_rtol * max(M.shape))
        P = koopid.pseudo_inverse(M, tol)
        assert np.linalg.norm(P - reference) <= 1e-13 * np.linalg.norm(reference)

    @pytest.mark.parametrize("seed,rows,cols,rank", [
        (0, 50, 20, 20), (1, 200, 50, 50), (2, 60, 60, 25), (3, 20, 45, 12),
    ])
    def test_penrose_identities(self, seed, rows, cols, rank):
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        M = rank_deficient_matrix(rng, rows, cols, min(rank, rows, cols))
        P = koopid.pseudo_inverse(M)
        scale = np.linalg.norm(M)
        assert np.linalg.norm(M @ P @ M - M) <= 1e-8 * scale
        assert np.linalg.norm(P @ M @ P - P) <= 1e-8 * np.linalg.norm(P)
        assert np.linalg.norm((M @ P).T - M @ P) <= 1e-8 * np.linalg.norm(M @ P)
        assert np.linalg.norm((P @ M).T - P @ M) <= 1e-8 * np.linalg.norm(P @ M)


class TestEig:
    def test_identity(self):
        pairs = koopid.eig(np.eye(3))
        np.testing.assert_allclose(pairs.values, np.ones(3))
        assert pairs.is_real.all()

    def test_rotation_scaling_characteristic_polynomial(self):
        # oracle: roots of lambda^2 - 1.6 lambda + 0.89
        M = np.array([[0.8, -0.5], [0.5, 0.8]])
        expected = np.sort_complex(np.roots([1.0, -1.6, 0.89]))
        pairs = koopid.eig(M)
        np.testing.assert_allclose(np.sort_complex(pairs.values), expected,
                                   atol=1e-14)

    def test_diagonal_standard_basis(self):
        pairs = koopid.eig(np.diag([2.0, 3.0]))
        order = np.argsort(pairs.values.real)
        np.testing.assert_allclose(pairs.values[order], [2.0, 3.0])
        np.testing.assert_allclose(np.abs(pairs.vectors[:, order]), np.eye(2),
                                   atol=1e-15)
        # phase convention puts the dominant entry on the positive real axis
        np.testing.assert_allclose(pairs.vectors[:, order].real, np.eye(2),
                                   atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_eigenpair_defect(self, seed):
        rng = np.random.Generator(np.random.PCG64(200 + seed))
        M = rng.standard_normal((9, 9))
        pairs = koopid.eig(M)
        scale = np.linalg.norm(M)
        for lam, v in pairs.pairs():
            np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-13)
            assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * scale

    def test_conjugate_pairs_are_exact(self):
        rng = np.random.Generator(np.random.PCG64(7))
        M = rng.standard_normal((8, 8))
        pairs = koopid.eig(M)
        assert not pairs.is_real.all()
        j = 0
        while j < len(pairs):
            if pairs.is_real[j]:
                assert pairs.values[j].imag == 0.0
                j += 1
                continue
            # the second member of each pair follows the first
            assert not pairs.is_real[j + 1]
            assert pairs.values[j + 1] == np.conj(pairs.values[j])
            assert np.array_equal(pairs.vectors[:, j + 1], np.conj(pairs.vectors[:, j]))
            j += 2

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(9))
        M = rng.standard_normal((6, 6))
        a, b = koopid.eig(M), koopid.eig(M)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            koopid.eig(np.ones((2, 3)))

    def test_rejects_a_complex_matrix(self):
        with pytest.raises(InvalidInput, match="^M must be real-valued$"):
            koopid.eig(np.eye(2) * 1j)

    @pytest.mark.parametrize("tied", [1, 2])
    def test_phase_ignores_one_ulp_between_tied_entries(self, tied):
        # x1 - i x2 has entries 1/sqrt(2) and -i/sqrt(2): a last-bit change
        # in either must not move the phase onto the other entry
        h = np.sqrt(0.5)
        v = np.array([0.1, h, -1j * h, 0.05j])
        nudged = v.copy()
        nudged[tied] = nudged[tied] * np.nextafter(1.0, 2.0)
        reference = _normalize_eigenvector(v)
        assert reference[1].imag == 0.0 and reference[1].real > 0.0
        np.testing.assert_allclose(_normalize_eigenvector(nudged), reference,
                                   rtol=0, atol=1e-15)


class TestSubspaceEqual:
    def test_same_span_different_basis(self):
        P = np.eye(3)[:, :2]
        Q = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
        assert koopid.subspace_equal(P, Q)

    def test_distinct_axes(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert not koopid.subspace_equal(e1, e2)

    def test_dimension_mismatch_is_false(self):
        assert not koopid.subspace_equal(np.eye(3), np.eye(3)[:, :2])

    @pytest.mark.parametrize("seed", range(4))
    def test_reflexive_symmetric_and_basis_invariant(self, seed):
        rng = np.random.Generator(np.random.PCG64(300 + seed))
        P = rng.standard_normal((12, 4))
        T = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)  # invertible
        assert koopid.subspace_equal(P, P)
        assert koopid.subspace_equal(P, P @ T)
        assert koopid.subspace_equal(P @ T, P)

    def test_complex_spans(self):
        rng = np.random.Generator(np.random.PCG64(17))
        P = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        T += 3.0 * np.eye(3)
        assert koopid.subspace_equal(P, P @ T)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(InvalidInput):
            koopid.subspace_equal(np.eye(3), np.eye(4))

    def test_small_angle_resolution(self):
        # a rotation by theta between two planes gives principal angles
        # {0, theta}; the composite cosine/sine algorithm must resolve
        # angles far below sqrt(machine eps) to make the default threshold
        # meaningful
        def plane(theta):
            return np.array([[1.0, 0.0], [0.0, np.cos(theta)],
                             [0.0, np.sin(theta)]])

        base = plane(0.0)
        assert koopid.subspace_equal(base, plane(1e-9))
        assert not koopid.subspace_equal(base, plane(1e-7))
        angles = koopid.principal_angles(base, plane(1e-7))
        np.testing.assert_allclose(angles[-1], 1e-7, rtol=1e-3)

    def test_small_angle_beside_a_large_one(self):
        # each angle takes the sine or the cosine by its own size: a 1e-10
        # angle keeps its sine when the other angle is 1 rad
        P = np.eye(4)[:, :2]
        Q = np.array([[np.cos(1e-10), 0.0], [0.0, np.cos(1.0)],
                      [np.sin(1e-10), 0.0], [0.0, np.sin(1.0)]])
        np.testing.assert_allclose(koopid.principal_angles(P, Q), [1e-10, 1.0],
                                   rtol=1e-6)

    def test_narrower_span_takes_its_own_sine_residual(self):
        # a one-column P against a plane Q: the sine comes from the residual
        # of P against Q, and a 1e-10 angle survives it
        P = np.array([[np.cos(1e-10)], [0.0], [np.sin(1e-10)]])
        np.testing.assert_allclose(koopid.principal_angles(P, np.eye(3)[:, :2]), [1e-10],
                                   rtol=1e-6)

    def test_zero_rank_span_has_no_angles(self):
        P = np.zeros((3, 2))
        assert koopid.principal_angles(P, np.eye(3)[:, :2]).size == 0
        assert not koopid.subspace_equal(P, np.eye(3)[:, :2])
        assert koopid.subspace_equal(P, np.zeros((3, 0)))

    @pytest.mark.parametrize("seed", range(3))
    def test_principal_angles_against_scipy(self, seed):
        rng = np.random.Generator(np.random.PCG64(400 + seed))
        P = rng.standard_normal((20, 5))
        Q = rng.standard_normal((20, 4))
        ours = koopid.principal_angles(P, Q)
        oracle = np.sort(scipy.linalg.subspace_angles(
            np.linalg.qr(P)[0], np.linalg.qr(Q)[0]))
        np.testing.assert_allclose(ours, oracle, atol=1e-10)


def _blas_threads(setter):
    """The BLAS thread count, read through its setter."""
    count = setter(1)
    setter(count)
    return count


@pytest.fixture()
def setter():
    """OpenBLAS's thread-count setter, at 2 threads for the test."""
    setter = numerics._thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
    before = setter(2)
    yield setter
    setter(before)


class TestOneBlasThread:
    def test_blas_identity_without_openblas_config_is_numpys_build_record(
            self, monkeypatch):
        class Lapack:  # a LAPACK that exports no scipy_openblas_get_config64_
            pass

        numerics._blas_identity.cache_clear()
        monkeypatch.setattr(numerics, "_lapack", Lapack)
        try:
            assert numerics._blas_identity() == repr(
                np.__config__.CONFIG["Build Dependencies"])
        finally:
            numerics._blas_identity.cache_clear()

    def test_finds_the_setter_of_numpys_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if blas != "scipy-openblas":
            pytest.skip(f"numpy's BLAS is {blas}")
        assert numerics._thread_setter() is not None

    def test_finds_dgeqrt_in_numpys_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if blas != "scipy-openblas":
            pytest.skip(f"numpy's BLAS is {blas}")
        assert numerics._dgeqrt() is not None

    @pytest.mark.parametrize("raises", [False, True])
    def test_restores_the_count_on_any_exit(self, setter, raises):
        with pytest.raises(KeyError) if raises else contextlib.nullcontext():
            with numerics.one_blas_thread():
                assert _blas_threads(setter) == 1
                if raises:
                    raise KeyError
        assert _blas_threads(setter) == 2

    def test_a_second_thread_waits_and_the_count_comes_back(self, setter):
        # OpenBLAS on pthreads sets the count of the whole process, so a
        # block that another thread enters meanwhile runs after this one,
        # and the count both restore is the one this block found
        seen = []

        def second():
            with numerics.one_blas_thread():
                seen.append(_blas_threads(setter))

        thread = threading.Thread(target=second)
        with numerics.one_blas_thread():
            thread.start()
            thread.join(0.2)
            assert thread.is_alive() and not seen
        thread.join(30)
        assert seen == [1] and _blas_threads(setter) == 2

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("entry", ["ssd", "approximate_ssd", "reduced_koopman",
                                       "lift_eigenvectors", "forward_backward_eigenpairs",
                                       "edmd_matrix"])
    def test_library_entry_points_run_at_one_thread(self, setter, monkeypatch,
                                                    ex2_matrices, tol, entry, raises):
        # each reaches the rank rule after its own factor, whose pin has
        # ended by then; the count the caller had comes back however it ends
        F = koopid.snapshot_factor(*ex2_matrices)
        result = koopid.ssd(F.RX, F.RY, tol)
        reduced = koopid.reduced_koopman(F.RX, F.RY, result, tol)
        args = {"ssd": (), "approximate_ssd": (1e-4,), "reduced_koopman": (result,),
                "lift_eigenvectors": (result, reduced),
                "forward_backward_eigenpairs": (), "edmd_matrix": ()}[entry]
        svd, seen = numerics._svd, []

        def recording(*svd_args):
            seen.append(_blas_threads(setter))
            if raises:
                raise KeyError("stopped inside the entry point")
            return svd(*svd_args)

        monkeypatch.setattr(numerics, "_svd", recording)
        with pytest.raises(KeyError) if raises else contextlib.nullcontext():
            getattr(koopid, entry)(F.RX, F.RY, *args, tol)
        assert seen and set(seen) == {1}
        assert _blas_threads(setter) == 2

    def test_concurrent_factors_restore_the_count(self, setter, small_blocks):
        # more threads than cores, switching often: a block that began inside
        # another one and restored the one thread it found would leave the
        # count at 1, and a leaf factored at 2 threads could change the bits
        rng = np.random.Generator(np.random.PCG64(5))
        M = rng.standard_normal((2000, 12))
        expected = koopid.snapshot_factor(M[:, :6], M[:, 6:])
        results = []

        def factor():
            for _ in range(5):
                results.append(koopid.snapshot_factor(M[:, :6], M[:, 6:]))

        threads = [threading.Thread(target=factor) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 30 and _blas_threads(setter) == 2
        for F in results:
            assert np.array_equal(F.RX, expected.RX) and np.array_equal(F.RY, expected.RY)


class TestSnapshotFactor:
    # with 64-row leaves: one leaf short of, at, one past and two leaves
    # past a boundary, 500 rows in 10 leaves, and a 20-row leaf shorter
    # than twice its 12-row R
    @pytest.mark.parametrize("rows,n_d", [(500, 6), (12, 6), (8, 6), (3, 6), (20, 6),
                                          (63, 6), (64, 6), (65, 6), (131, 6)])
    def test_r_reproduces_the_gram_matrix(self, rows, n_d, small_blocks):
        rng = np.random.Generator(np.random.PCG64(600 + rows))
        DX = rng.standard_normal((rows, n_d))
        DY = rng.standard_normal((rows, n_d))
        DX_before, DY_before = DX.copy(), DY.copy()
        factor = koopid.snapshot_factor(DX, DY)
        R = np.hstack([factor.RX, factor.RY])
        M = np.hstack([DX, DY])
        assert R.shape == (min(rows, 2 * n_d), 2 * n_d)
        assert np.array_equal(R, np.triu(R))
        np.testing.assert_allclose(R.T @ R, M.T @ M,
                                   atol=1e-13 * np.linalg.norm(M) ** 2)
        # the inputs are copied, never overwritten
        assert np.array_equal(DX, DX_before) and np.array_equal(DY, DY_before)

    @pytest.mark.parametrize("cap", ["64-row", "default"])
    @pytest.mark.parametrize("rows", [20, 50, 10_000], ids=["N<Nd", "N<2Nd", "N>=2Nd"])
    def test_blocks_passed_as_data_give_the_factor_back(self, rows, cap, vdp_dictionary,
                                                        vdp_snapshots, request):
        # the library takes a factor as its blocks RX, RY, which it factors
        # again: the QR of a triangular matrix is that matrix, bit for bit.
        # With the 64-row cap, leaves of N_d = 36 have their floor of 4 N_d
        # rows.
        if cap == "64-row":
            request.getfixturevalue("small_blocks")
        factor = koopid.evaluate_factor(vdp_dictionary, vdp_snapshots.X[:rows],
                                        vdp_snapshots.Y[:rows])
        again = koopid.snapshot_factor(factor.RX, factor.RY)
        assert factor.RX.shape == (min(rows, 72), 36)
        for block, twin in ((again.RX, factor.RX), (again.RY, factor.RY)):
            assert block.shape == twin.shape and block.tobytes() == twin.tobytes()

    # (cap, rows, N_d, reader blocks): a 64-row leaf of 4 columns takes 64
    # rows, and each later one 60 rows over the 4-row R; of 12 columns, 64
    # and then 52.  Default leaves have 2,048 rows at N_d = 36, 16,384 at
    # N_d = 2, and 4 N_d = 800 at N_d = 200.
    leaf_cases = pytest.mark.parametrize("cap,rows,n_d,split", [
        ("64-row", 64 + 7 * 60, 2, None), ("64-row", 200, 6, None),
        ("64-row", 64 + 52 + 5, 6, None), ("64-row", 5, 6, None),
        ("64-row", 200, 6, (7, 50, 1, 90, 52)), ("default", 2048 + 1976 + 700, 36, None),
        ("default", 30_000, 2, None), ("default", 800 + 9 * 400 + 50, 200, None),
        ("default", 20, 36, None), ("default", 100, 36, None),
    ], ids=["full", "short-last", "last-below-2Nd", "N<2Nd", "split-across-reads",
            "default-short-last", "default-narrow", "default-wide", "default-N<2Nd",
            "default-N<4Nd"])

    @staticmethod
    def _assert_factor_is_leaf_qr(leaf_qr, cap, rows, n_d, split, request):
        """The factor is ``leaf_qr`` of each leaf, the next rows over the R
        of the rows before them, bit for bit and at one BLAS thread."""
        if cap == "64-row":
            request.getfixturevalue("small_blocks")
        leaf_rows = max(4 * n_d, min(numerics._BLOCK_ROWS,
                                     numerics._BLOCK_BYTES // (16 * n_d)))
        rng = np.random.Generator(np.random.PCG64(800 + rows))
        M = rng.standard_normal((rows, 2 * n_d)) * np.exp(rng.uniform(-9, 9, 2 * n_d))
        R, start = M[:0], 0
        with numerics.one_blas_thread():
            while start < rows:
                take = leaf_rows - len(R)
                R = leaf_qr(np.vstack([M[start:start + take], R]))
                start += take
        if split is None:
            factor = koopid.snapshot_factor(M[:, :n_d], M[:, n_d:])
        else:
            factor = numerics._factor_blocks(n_d, _reads(M, split), numerics._copy_rows)
        assert np.array_equal(np.hstack([factor.RX, factor.RY]), R)

    def test_factor_of_no_columns_is_empty(self):
        factor = koopid.snapshot_factor(np.zeros((5, 0)), np.zeros((5, 0)))
        assert factor.RX.shape == factor.RY.shape == (0, 0)

    @leaf_cases
    def test_factor_is_numpy_qr_of_each_leaf(self, cap, rows, n_d, split, request,
                                             without_dgeqrt):
        # where numpy's LAPACK has no dgeqrt, the factor is
        # numpy.linalg.qr(mode="r") of each leaf: this pins the in-place
        # dgeqrf route to numpy's own wrapper
        self._assert_factor_is_leaf_qr(lambda A: np.linalg.qr(A, mode="r"),
                                       cap, rows, n_d, split, request)

    @leaf_cases
    def test_factor_is_dgeqrt_of_each_leaf(self, cap, rows, n_d, split, request):
        # the in-place route through dgeqrt against a call of the kernel on
        # a copy of each leaf
        if numerics._dgeqrt() is None:
            pytest.skip("numpy's LAPACK does not export dgeqrt")
        self._assert_factor_is_leaf_qr(_dgeqrt_r, cap, rows, n_d, split, request)

    def test_dgeqrt_factor_is_numpy_qr_to_rounding(self):
        # 5,000 rows in three leaves, against one numpy.linalg.qr of all
        # rows; each R is unique up to the signs of its rows
        rng = np.random.Generator(np.random.PCG64(17))
        M = rng.standard_normal((5000, 72))
        factor = koopid.snapshot_factor(M[:, :36], M[:, 36:])
        R = np.hstack([factor.RX, factor.RY])
        R_numpy = np.linalg.qr(M, mode="r")
        signs = np.sign(np.diag(R)) * np.sign(np.diag(R_numpy))
        np.testing.assert_allclose(signs[:, None] * R, R_numpy,
                                   rtol=0, atol=1e-13 * np.abs(R_numpy).max())

    def test_a_factor_given_as_data_takes_its_own_rows_of_block(self, vdp_dictionary,
                                                                vdp_snapshots):
        # the 72 rows of R get a 72-row leaf, not a 2,048-row one
        factor = koopid.evaluate_factor(vdp_dictionary, vdp_snapshots.X,
                                        vdp_snapshots.Y)
        tracemalloc.start()
        try:
            koopid.snapshot_factor(factor.RX, factor.RY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < numerics._BLOCK_BYTES / 10

    def test_lapack_failure_names_info_and_shape(self, monkeypatch):
        # each kernel's info, that of dgeqrf with the dgeqrt lookup disabled
        dgeqrf, dgeqrt = numerics.lapack_lite.dgeqrf, numerics._dgeqrt()

        def failing_dgeqrf(m, n, a, lda, tau, work, lwork, info):
            return {**dgeqrf(m, n, a, lda, tau, work, lwork, info), "info": -4}

        def failing_dgeqrt(*addresses):
            dgeqrt(*addresses)
            ctypes.c_int64.from_address(addresses[-1]).value = -4

        kernels = [("dgeqrf", None)] + ([("dgeqrt", failing_dgeqrt)] if dgeqrt else [])
        for name, kernel in kernels:
            with monkeypatch.context() as patch:
                patch.setattr(numerics.lapack_lite, "dgeqrf", failing_dgeqrf)
                patch.setattr(numerics, "_dgeqrt", lambda: kernel)
                with pytest.raises(InternalInvariantViolation,
                                   match=rf"LAPACK {name} returned info -4 on a 10 x 6 block"):
                    koopid.snapshot_factor(np.ones((10, 3)), np.ones((10, 3)))

    def test_rejects_unequal_shapes(self):
        with pytest.raises(InvalidInput):
            koopid.snapshot_factor(np.ones((5, 2)), np.ones((5, 3)))

    def test_rejects_nonfinite(self):
        DX = np.ones((5, 2))
        DX[3, 1] = np.inf
        with pytest.raises(InvalidInput):
            koopid.snapshot_factor(DX, np.ones((5, 2)))

    @pytest.mark.parametrize("seed,rows,cols,rank", [
        (0, 3000, 12, 7), (1, 5000, 20, 13), (2, 800, 16, 16), (3, 400, 10, 3),
        (4, 63, 12, 7), (5, 64, 12, 7), (6, 65, 12, 7), (7, 131, 12, 7),
    ])
    def test_block_rank_decisions_equal_full_data(self, seed, rows, cols, rank,
                                                  tol, small_blocks):
        rng = np.random.Generator(np.random.PCG64(700 + seed))
        M = rank_deficient_matrix(rng, rows, cols, rank)
        half = cols // 2
        factor = koopid.snapshot_factor(M[:, :half], M[:, half:])
        R = np.hstack([factor.RX, factor.RY])
        assert koopid.numerical_rank(R, tol) == \
            koopid.numerical_rank(M, tol) == rank
        assert koopid.numerical_rank(factor.RX, tol) == \
            koopid.numerical_rank(M[:, :half], tol)
        Z_r = koopid.null_space_basis(R, tol)
        Z_m = koopid.null_space_basis(M, tol)
        assert Z_r.shape == Z_m.shape == (cols, cols - rank)
        if Z_r.shape[1]:
            assert koopid.subspace_equal(Z_r, Z_m, tol)
