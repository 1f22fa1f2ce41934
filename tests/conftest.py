import json
import os

import numpy as np
import pytest

import koopid

# Rotation-scaling map whose maximal invariant subspace inside the 9-function
# dictionary below is spanned by {1, x1, x2, x1^2, x1*x2, x2^2}.
EX2_A = np.array([[0.8, 0.5], [-0.5, 0.8]])

# All monomials up to degree 3 except x1^3.
EX2_EXPONENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                 (1, 2), (2, 1), (0, 3))

# Spectrum of the map restricted to that subspace: 1 (constants), the two
# linear modes 0.8 +/- 0.5i, their squares 0.39 +/- 0.8i, and their product
# |0.8 + 0.5i|^2 = 0.89.
EX2_SPECTRUM = np.sort_complex(np.array(
    [1.0, 0.89, 0.8 + 0.5j, 0.8 - 0.5j, 0.39 + 0.8j, 0.39 - 0.8j]))


def bound_parts(path):
    """The payload and the binding of a binary twin or factor file, read by
    two ``np.load`` calls in turn, and the byte at which the payload ends."""
    with open(path, "rb") as fh:
        payload = np.load(fh)
        end = fh.tell()
        binding = json.loads(np.load(fh).item())
    return payload, binding, end


def rewrite_payload(path, payload):
    """Put the bytes of ``payload`` in place of those of a twin or factor
    file's payload, leaving its headers and its binding as they were."""
    end = bound_parts(path)[2]
    data = bytearray(path.read_bytes())
    data[end - payload.nbytes:end] = payload.tobytes()
    path.write_bytes(bytes(data))


@pytest.fixture()
def umask_022():
    """The process's umask set to 022, so a new file is 0644, for the test."""
    previous = os.umask(0o022)
    yield
    os.umask(previous)


@pytest.fixture()
def small_blocks(monkeypatch):
    """Streamed factors take leaves of 64 rows (4 N_d for N_d > 16), so
    small data spans several."""
    monkeypatch.setattr(koopid.numerics, "_BLOCK_ROWS", 64)
    return 64


@pytest.fixture(scope="session")
def tol():
    return koopid.ToleranceConfig()


@pytest.fixture(scope="session")
def ex2_dictionary():
    return koopid.MonomialDictionary(2, EX2_EXPONENTS)


@pytest.fixture(scope="session")
def ex2_snapshots():
    spec = koopid.SystemSpec.discrete_linear(EX2_A, [(-2.0, 2.0), (-2.0, 2.0)],
                                             seed=42)
    return koopid.generate(spec, 10_000)


@pytest.fixture(scope="session")
def ex2_matrices(ex2_dictionary, ex2_snapshots):
    DX = koopid.evaluate(ex2_dictionary, ex2_snapshots.X)
    DY = koopid.evaluate(ex2_dictionary, ex2_snapshots.Y)
    return DX, DY


@pytest.fixture(scope="session")
def vdp_dictionary():
    return koopid.monomials_up_to_degree(2, 7)


@pytest.fixture(scope="session")
def vdp_snapshots():
    spec = koopid.SystemSpec.continuous("vanderpol", 5e-3,
                                        [(-4.0, 4.0), (-4.0, 4.0)], seed=0)
    return koopid.generate(spec, 10_000)


@pytest.fixture(scope="session")
def vdp_matrices(vdp_dictionary, vdp_snapshots):
    DX = koopid.evaluate(vdp_dictionary, vdp_snapshots.X)
    DY = koopid.evaluate(vdp_dictionary, vdp_snapshots.Y)
    return DX, DY


@pytest.fixture(scope="session")
def counterexample_matrices():
    # x+ = 2x on [1, 3] with dictionary [x, x^2 + x^3]: only the first
    # function evolves linearly everywhere.
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.uniform(1.0, 3.0, size=100)
    y = 2.0 * x
    DX = np.column_stack([x, x**2 + x**3])
    DY = np.column_stack([y, y**2 + y**3])
    return DX, DY


def rotation_scale_map(rng, n):
    """Stable map with well-separated eigenvalues and strong coordinate
    mixing, so invariant-subspace identification is well conditioned."""
    theta = rng.uniform(0.3, 2.8)
    scale = rng.uniform(0.5, 0.9)
    block2 = scale * np.array([[np.cos(theta), np.sin(theta)],
                               [-np.sin(theta), np.cos(theta)]])
    if n == 2:
        return block2
    mu = rng.uniform(0.4, 0.9) * rng.choice([-1.0, 1.0])
    block = np.zeros((3, 3))
    block[:2, :2] = block2
    block[2, 2] = mu
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return Q @ block @ Q.T


def equivalence_instance(seed, n_samples=2000):
    """Seeded random instance: a stable 2- or 3-dimensional linear map and a
    monomial dictionary of degree <= 4 with a few higher-degree monomials
    dropped (so the span is usually not fully invariant)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = 2 if seed % 2 == 0 else 3
    degree = int(rng.integers(2, 5)) if n == 2 else int(rng.integers(2, 4))
    A = rotation_scale_map(rng, n)
    full = koopid.monomials_up_to_degree(n, degree)
    exps = list(full.exponents)
    higher = [i for i, e in enumerate(exps) if sum(e) >= 2]
    k_drop = int(rng.integers(0, 4))
    drop = set(rng.choice(higher, size=min(k_drop, len(higher)),
                          replace=False).tolist())
    kept = tuple(e for i, e in enumerate(exps) if i not in drop)
    dictionary = koopid.MonomialDictionary(n, kept)
    spec = koopid.SystemSpec.discrete_linear(A, [(-1.0, 1.0)] * n, seed=seed)
    snapshots = koopid.generate(spec, n_samples)
    return dictionary, snapshots
