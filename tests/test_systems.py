import csv
import io
import itertools
import json
import os
import signal
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import koopid
from koopid import systems
from koopid.errors import ArtifactIOError, EvaluationOverflow, InvalidInput
from conftest import EX2_A, bound_parts, rewrite_payload


def vdp_field(x):
    return np.array([x[1], -x[0] + (1.0 - x[0] ** 2) * x[1]])


def rk4_oracle(x0, dt, steps):
    """Independent scalar RK4 used as the reference integrator."""
    h = dt / steps
    x = np.array(x0, dtype=float)
    for _ in range(steps):
        k1 = vdp_field(x)
        k2 = vdp_field(x + 0.5 * h * k1)
        k3 = vdp_field(x + 0.5 * h * k2)
        k4 = vdp_field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


@pytest.fixture()
def parses(monkeypatch):
    """The number of snapshot CSV bodies parsed so far in the test."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


#: Read a snapshot CSV with its binary twin kept and with it deleted.
twin_case = pytest.mark.parametrize("twin", ["kept", "deleted"],
                                    ids=["twin-kept", "twin-deleted"])


def read_with_twin(path, twin, parses):
    if twin == "deleted":
        path.with_suffix(".snapshots.npy").unlink()
    back = koopid.read_snapshot_csv(path)
    assert len(parses) == (twin == "deleted")
    return back


def richardson_oracle(x0, dt):
    # RK4 has order 4, so (16 y_{h/2} - y_h) / 15 cancels the leading error
    coarse = rk4_oracle(x0, dt, 100)
    fine = rk4_oracle(x0, dt, 200)
    return (16.0 * fine - coarse) / 15.0


class TestSampleUniform:
    def test_point_box_gives_zeros(self):
        X = koopid.sample_uniform([(0.0, 0.0), (0.0, 0.0)], 5, seed=1)
        np.testing.assert_array_equal(X, np.zeros((5, 2)))

    def test_uniform_law_statistics(self):
        X = koopid.sample_uniform([(-2.0, 2.0), (-2.0, 2.0)], 10_000, seed=7)
        assert np.all(np.abs(X.mean(axis=0)) < 0.05)
        assert X.min() >= -2.0 and X.max() <= 2.0

    def test_same_seed_is_bitwise_identical(self):
        a = koopid.sample_uniform([(-1.0, 3.0)], 100, seed=5)
        b = koopid.sample_uniform([(-1.0, 3.0)], 100, seed=5)
        assert np.array_equal(a, b)

    def test_empty_interval_rejected(self):
        with pytest.raises(InvalidInput):
            koopid.sample_uniform([(2.0, 1.0)], 10, seed=0)

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidInput):
            koopid.sample_uniform([(0.0, 1.0)], 0, seed=0)


class TestStep:
    def test_discrete_linear(self):
        spec = koopid.SystemSpec.discrete_linear(EX2_A, [(-2, 2), (-2, 2)])
        out = koopid.step(spec, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.8, -0.5]], atol=1e-16)

    def test_vanderpol_equilibrium(self):
        spec = koopid.SystemSpec.continuous("vanderpol", 0.25, [(-4, 4), (-4, 4)])
        out = koopid.step(spec, np.zeros((3, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_vanderpol_against_reference_integrators(self):
        dt = 5e-3
        spec = koopid.SystemSpec.continuous("vanderpol", dt, [(-4, 4), (-4, 4)])
        x0 = np.array([1.0, 1.0])
        stepped = koopid.step(spec, x0[None, :])[0]
        oracle = richardson_oracle(x0, dt)
        assert np.linalg.norm(stepped - oracle) <= 1e-9
        ivp = solve_ivp(lambda t, y: vdp_field(y), (0.0, dt), x0,
                        rtol=1e-12, atol=1e-14)
        assert np.linalg.norm(stepped - ivp.y[:, -1]) <= 1e-9

    def test_rk4_order(self):
        # halving the step must shrink the one-step error by about 2^4
        points = np.array([[1.0, 1.0], [2.0, -1.0], [-3.0, 0.5], [0.3, 3.0]])
        for x0 in points:
            ref = richardson_oracle(x0, 1e-2)
            spec_h = koopid.SystemSpec.continuous("vanderpol", 1e-2, [(-4, 4)] * 2)
            spec_h2 = koopid.SystemSpec.continuous("vanderpol", 1e-2, [(-4, 4)] * 2,
                                                   substeps=2)
            err_h = np.linalg.norm(koopid.step(spec_h, x0[None])[0] - ref)
            err_h2 = np.linalg.norm(koopid.step(spec_h2, x0[None])[0] - ref)
            assert err_h / err_h2 >= 2**4 * 0.9

    def test_linear_step_is_the_matrix_product_bit_for_bit(self):
        rng = np.random.Generator(np.random.PCG64(4))
        A = rng.standard_normal((3, 3))
        spec = koopid.SystemSpec.discrete_linear(A, [(-2, 2)] * 3)
        X = rng.uniform(-2, 2, size=(300_000, 3))
        assert np.array_equal(koopid.step(spec, X), X @ A.T)

    def test_state_dim_mismatch(self):
        spec = koopid.SystemSpec.continuous("vanderpol", 1e-2, [(-4, 4)] * 2)
        with pytest.raises(InvalidInput):
            koopid.step(spec, np.ones((4, 3)))

    def test_overflowing_state_reports_row(self):
        spec = koopid.SystemSpec.continuous("vanderpol", 1e-2, [(-4, 4)] * 2)
        X = np.array([[1.0, 1.0], [1e200, 1e200]])
        with pytest.raises(EvaluationOverflow) as excinfo:
            koopid.step(spec, X)
        assert excinfo.value.row == 1


class TestSystemSpec:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(InvalidInput):
            koopid.SystemSpec.continuous("vanderpol", 0.0, [(-1, 1), (-1, 1)])

    def test_rejects_unknown_field(self):
        with pytest.raises(InvalidInput):
            koopid.SystemSpec.continuous("lorenz", 1e-2, [(-1, 1)] * 3)

    def test_rejects_nonsquare_map(self):
        with pytest.raises(InvalidInput):
            koopid.SystemSpec.discrete_linear(np.ones((2, 3)), [(-1, 1)] * 2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            koopid.SystemSpec.discrete_linear(np.eye(2), [(-1, 1)] * 3)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(InvalidInput, match="seed must be a non-negative integer"):
            koopid.SystemSpec.continuous("vanderpol", 1e-2, [(-1, 1)] * 2, seed=seed)

    @pytest.mark.parametrize("arguments, message", [
        ({"box": [(-1, np.inf)] * 2}, "box bounds must be finite"),
        ({"box": [(-1, np.nan)] * 2}, "box bounds must be finite"),
        ({"box": []}, "box must have at least one interval"),
        ({"box": [(-1, 1)] * 3}, "box dimension must match the field's state dim"),
        ({"substeps": 0}, "substeps must be at least 1"),
        ({"kind": "stochastic"}, "unknown system kind 'stochastic'"),
    ], ids=["infinite-bound", "nan-bound", "empty-box", "box-of-another-dim",
            "zero-substeps", "unknown-kind"])
    def test_rejects_an_invalid_continuous_spec(self, arguments, message):
        spec = {"kind": "continuous-vector-field", "box": [(-1, 1)] * 2,
                "field_id": "vanderpol", "dt": 1e-2, **arguments}
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            koopid.SystemSpec(**spec)


def test_snapshot_set_rejects_x_and_y_of_different_shapes():
    with pytest.raises(InvalidInput, match="^X and Y must have the same shape$"):
        koopid.SnapshotSet(np.zeros((3, 2)), np.zeros((4, 2)))


def test_usable_cpus_is_the_cpu_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(systems.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(systems.os, "cpu_count", lambda: 3)
    assert systems._usable_cpus() == 3
    monkeypatch.setattr(systems.os, "cpu_count", lambda: None)
    assert systems._usable_cpus() == 1


class TestGenerate:
    def test_linear_snapshots_satisfy_the_map(self):
        spec = koopid.SystemSpec.discrete_linear(EX2_A, [(-2, 2), (-2, 2)], seed=42)
        snap = koopid.generate(spec, 500)
        # same product the library computes, evaluated independently
        np.testing.assert_array_equal(snap.Y, snap.X @ EX2_A.T)

    def test_single_snapshot(self):
        spec = koopid.SystemSpec.discrete_linear(EX2_A, [(-2, 2), (-2, 2)])
        snap = koopid.generate(spec, 1)
        assert snap.count == 1 and snap.state_dim == 2

    def test_deterministic(self):
        spec = koopid.SystemSpec.continuous("vanderpol", 5e-3, [(-4, 4)] * 2, seed=9)
        a, b = koopid.generate(spec, 64), koopid.generate(spec, 64)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_provenance(self):
        spec = koopid.SystemSpec.continuous("vanderpol", 5e-3, [(-4, 4)] * 2, seed=7)
        snap = koopid.generate(spec, 16)
        prov = snap.provenance
        assert prov["system"] == "vanderpol"
        assert prov["seed"] == 7
        assert prov["dt"] == 5e-3
        assert prov["integrator"] == "rk4"
        assert prov["prng"] == "PCG64"
        assert prov["count"] == 16


class TestSnapshotCsv:
    @twin_case
    def test_round_trip_is_exact(self, tmp_path, twin, parses):
        spec = koopid.SystemSpec.continuous("vanderpol", 5e-3, [(-4, 4)] * 2, seed=3)
        snap = koopid.generate(spec, 200)
        path = tmp_path / "snap.csv"
        koopid.write_snapshot_csv(snap, path)
        back = read_with_twin(path, twin, parses)
        assert np.array_equal(back.X, snap.X)
        assert np.array_equal(back.Y, snap.Y)
        assert back.provenance["system"] == "vanderpol"

    def test_header(self, tmp_path):
        spec = koopid.SystemSpec.discrete_linear(EX2_A, [(-2, 2), (-2, 2)])
        path = tmp_path / "snap.csv"
        koopid.write_snapshot_csv(koopid.generate(spec, 3), path)
        assert path.read_text().splitlines()[0] == "x_1,x_2,y_1,y_2"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInput):
            koopid.read_snapshot_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactIOError):
            koopid.read_snapshot_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("side", [0, 1])
    def test_overflowing_snapshot_reports_its_csv_row(self, side, tmp_path,
                                                      small_blocks):
        # one stored sample overflows the degree-7 dictionary, whose leaves
        # have their 144-row floor here; the error names that sample's index
        # in the file
        spec = koopid.SystemSpec.continuous("vanderpol", 5e-3, [(-4, 4)] * 2, seed=5)
        snap = koopid.generate(spec, 150)
        X, Y = snap.X.copy(), snap.Y.copy()
        (X, Y)[side][100] = 1e50
        path = tmp_path / "snap.csv"
        koopid.write_snapshot_csv(koopid.SnapshotSet(X, Y), path)
        back = koopid.read_snapshot_csv(path)
        with pytest.raises(EvaluationOverflow, match="on " + "XY"[side]) as excinfo:
            koopid.evaluate_factor(koopid.monomials_up_to_degree(2, 7), back.X, back.Y)
        assert excinfo.value.row == 100

    @pytest.mark.parametrize("twin", [True, False], ids=["twin", "parsed"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_overflow_in_a_later_leaf_reports_its_csv_row(self, side, twin, tmp_path,
                                                          small_blocks, monkeypatch):
        # 400 samples of the degree-7 dictionary, whose leaves take 144 rows
        # and then 72 over the carried R here: sample 333 is in the fourth
        # leaf (rows 288-359) and in the seventh 50-row block of the reader.
        # The error names that sample's index in the file and its side.
        spec = koopid.SystemSpec.continuous("vanderpol", 5e-3, [(-4, 4)] * 2, seed=5)
        snap = koopid.generate(spec, 400)
        X, Y = snap.X.copy(), snap.Y.copy()
        (X, Y)[side][333] = 1e50
        path = tmp_path / "snap.csv"
        koopid.write_snapshot_csv(koopid.SnapshotSet(X, Y), path)
        if not twin:
            (tmp_path / ("snap" + systems.TWIN_SUFFIX)).unlink()
        monkeypatch.setattr(systems, "_READ_BYTES", 50 * 32)
        dictionary = koopid.monomials_up_to_degree(2, 7)
        with pytest.raises(EvaluationOverflow, match="on " + "XY"[side]) as excinfo:
            koopid.SnapshotStream(path).scan(
                lambda blocks: koopid.evaluate_factor(dictionary, blocks))
        assert excinfo.value.row == 333


def _csv_writer_reference(snapshots):
    """The bytes the stdlib csv module writes for a snapshot set."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    n = snapshots.state_dim
    writer.writerow([f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)])
    for xi, yi in zip(snapshots.X, snapshots.Y):
        writer.writerow([f"{v:.17g}" for v in xi] + [f"{v:.17g}" for v in yi])
    return buf.getvalue().encode()


@pytest.fixture()
def time_limit():
    """Fail a test still running after 60 s instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


_format_rows = systems._format_rows


def _thread_start_refused_at(call):
    """A ``threading.Thread.start`` whose ``call``-th call (from 0) fails as
    it does when the process is out of threads."""
    calls = itertools.count()
    real_start = threading.Thread.start

    def start(thread):
        if next(calls) == call:
            raise RuntimeError("can't start new thread")
        return real_start(thread)
    return start


def _format_rows_failing_in_a_thread(chunk):
    if threading.current_thread() is not threading.main_thread():
        raise RuntimeError(f"chunk of {len(chunk)} rows")
    return _format_rows(chunk)


def _percent_reference(chunk):
    """The rows of a float matrix printed value by value with '%.17g'."""
    return "".join(",".join("%.17g" % x for x in row) + "\r\n"
                   for row in chunk.tolist()).encode()


_EDGE_FORMAT_VALUES = [
    0.0, 5e-324, 2.2250738585072014e-308,
    1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 9.9999999999999995e-05,
    2.0**-25, 3 * 2.0**-25, 1001 / 2.0**21,  # exact ties at the 18th digit
    1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, 1e17),
    1e17, np.nextafter(1e17, 0.0), np.nextafter(1e17, 1e18), 99999999999999999.0,
    0.30000000000000004, 123456789.0, 1e300, np.finfo(float).max]


def _format_case(name):
    rng = np.random.Generator(np.random.PCG64(23))
    if name == "random-bits":
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        return np.where(np.isfinite(bits), bits, 1.0).reshape(-1, 4)
    if name == "log-uniform":
        return (10.0 ** rng.uniform(-8, 20, 200_000)
                * rng.choice([-1.0, 1.0], 200_000)).reshape(-1, 4)
    if name == "edge":
        return np.array(_EDGE_FORMAT_VALUES + [-x for x in _EDGE_FORMAT_VALUES]).reshape(-1, 1)
    # odd multiples of powers of two: every decimal exponent of the fixed
    # notation, and 2,468 exact ties at the 18th digit
    return (np.arange(1, 4096, 2) / 2.0 ** np.arange(-44, 60)[:, None]).reshape(-1, 2)


# the digit arithmetic of the CSV writer against Python's own '%.17g'
@pytest.mark.parametrize("case", ["random-bits", "log-uniform", "edge", "dyadic"])
def test_format_rows_prints_what_percent_prints(case):
    chunk = _format_case(case)
    assert systems._format_rows(chunk) == _percent_reference(chunk)


def test_a_chunk_of_only_small_values_skips_the_digit_arithmetic(monkeypatch):
    # zeros and |x| < 1e-4 all print in exponent notation or as 0, so the
    # chunk goes to % without the arithmetic
    rng = np.random.Generator(np.random.PCG64(29))
    chunk = rng.uniform(-1e-4, 1e-4, (300, 3)) * 10.0 ** -rng.integers(0, 300, (300, 3))
    chunk[::7] = 0.0
    chunk[1, 1], chunk[2, 2], chunk[3, 0] = -0.0, 5e-324, np.nextafter(1e-4, 0.0)
    monkeypatch.setattr(systems, "_digits", None)
    assert systems._format_rows(chunk) == _percent_reference(chunk)


class TestSnapshotCsvFormat:
    EDGE = np.array([
        [-0.0, 5e-324, 1e300, -1.7976931348623157e308],
        [2.2250738585072014e-308, -1e-310, 0.1, 1.0 / 3.0],
        [123456789.0, -2.5e-300, 1e-5, 0.0],
    ])

    def test_bytes_equal_csv_writer_output(self, tmp_path):
        snap = koopid.SnapshotSet(X=self.EDGE[:, :2], Y=self.EDGE[:, 2:])
        path = tmp_path / "edge.csv"
        koopid.write_snapshot_csv(snap, path)
        assert path.read_bytes() == _csv_writer_reference(snap)
        assert b"\r\n" in path.read_bytes()

    # the writer formats 16,384-row chunks: a partial last chunk, exactly one
    # full chunk, a 1-row last chunk of six values, six chunks, more than
    # there are workers on a small machine, and six chunks in which values
    # the digit arithmetic leaves to '%' are spread; each is written by one
    # process and by two workers
    @pytest.mark.parametrize("rows, state_dim, fallbacks",
                             [(70000, 1, False), (16384, 1, False), (16385, 3, False),
                              (5 * 16384 + 1, 1, False), (5 * 16384 + 1, 2, True)],
                             ids=["70000x1", "16384x1", "16385x3", "81921x1",
                                  "81921x2-fallbacks"])
    def test_bytes_equal_csv_writer_output_across_write_chunks(self, tmp_path, monkeypatch,
                                                               time_limit, rows, state_dim,
                                                               fallbacks):
        rng = np.random.Generator(np.random.PCG64(21))
        X, Y = rng.standard_normal((2, rows, state_dim))
        if fallbacks:
            for values in (X.reshape(-1), Y.reshape(-1)):
                values[::4099] = np.resize([0.0, -0.0, 1e-5, -2.5e-300, 1e17],
                                           values[::4099].size)
        snap = koopid.SnapshotSet(X=X, Y=Y)
        expected = _csv_writer_reference(snap)
        for cpus in (1, 2):
            monkeypatch.setattr(systems, "_usable_cpus", lambda: cpus)
            path = tmp_path / f"long-{cpus}.csv"
            koopid.write_snapshot_csv(snap, path)
            assert path.read_bytes() == expected

    # a pool whose first or second thread cannot start formats every chunk
    # in-process, and leaves no thread behind
    @pytest.mark.parametrize("fault", [None, "start", "partial-start"])
    def test_pool_failure_writes_the_in_process_bytes(self, tmp_path, monkeypatch,
                                                      time_limit, fault):
        data = np.random.Generator(np.random.PCG64(22)).standard_normal(
            (3 * systems._CSV_CHUNK_ROWS + 5, 2))

        def write(cpus):
            monkeypatch.setattr(systems, "_usable_cpus", lambda: cpus)
            path = tmp_path / f"{fault}-{cpus}.csv"
            threads = threading.enumerate()
            size_crc = systems._write_csv(path, ["x_1", "y_1"], data)
            assert threading.enumerate() == threads
            return path.read_bytes(), size_crc

        expected = _csv_writer_reference(koopid.SnapshotSet(X=data[:, :1], Y=data[:, 1:]))
        in_process = write(1)
        assert in_process == (expected, (len(expected), zlib.crc32(expected)))
        if fault is not None:
            refused = {"start": 0, "partial-start": 1}[fault]
            monkeypatch.setattr(threading.Thread, "start", _thread_start_refused_at(refused))
        assert write(2) == in_process
        assert write(1) == in_process

    # an error in a formatting thread reaches the caller as it was raised,
    # not taken for a thread that could not start
    def test_format_error_in_a_thread_propagates(self, tmp_path, monkeypatch, time_limit):
        monkeypatch.setattr(systems, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(systems, "_format_rows", _format_rows_failing_in_a_thread)
        data = np.ones((2 * systems._CSV_CHUNK_ROWS + 5, 2))
        threads = threading.enumerate()
        with pytest.raises(RuntimeError, match="^chunk of 16384 rows$"):
            systems._write_csv(tmp_path / "failing.csv", ["x_1", "y_1"], data)
        assert threading.enumerate() == threads

    # a failed write is an I/O error, and stops the formatting threads
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_write_is_an_io_error(self, monkeypatch, time_limit, cpus):
        monkeypatch.setattr(systems, "_usable_cpus", lambda: cpus)
        data = np.ones((3 * systems._CSV_CHUNK_ROWS, 2))
        threads = threading.enumerate()
        with pytest.raises(ArtifactIOError, match="cannot write CSV file"):
            systems._write_csv("/dev/full", ["x_1", "y_1"], data)
        assert threading.enumerate() == threads

    def test_quoted_fields_parse(self, tmp_path):
        snap = koopid.SnapshotSet(X=self.EDGE[:, :2], Y=self.EDGE[:, 2:])
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_ALL)
        writer.writerow(["x_1", "x_2", "y_1", "y_2"])
        writer.writerows([f"{v:.17g}" for v in row] for row in self.EDGE)
        path = tmp_path / "quoted.csv"
        path.write_text(buf.getvalue())
        back = koopid.read_snapshot_csv(path)
        assert back.X.tobytes() == snap.X.tobytes()
        assert back.Y.tobytes() == snap.Y.tobytes()

    @twin_case
    def test_edge_values_round_trip_bitwise(self, tmp_path, twin, parses):
        snap = koopid.SnapshotSet(X=self.EDGE[:, :2], Y=self.EDGE[:, 2:])
        path = tmp_path / "edge.csv"
        koopid.write_snapshot_csv(snap, path)
        back = read_with_twin(path, twin, parses)
        assert back.X.tobytes() == snap.X.tobytes()
        assert back.Y.tobytes() == snap.Y.tobytes()

    @pytest.mark.parametrize("body", [
        "1,2,3,4\n5,6,7\n",          # ragged row
        "1,2,3,4\n5,6,7,8,9\n",      # ragged row
        "1,2,3,4\n5,abc,7,8\n",      # non-numeric entry
        "1,2\n3,4\n",                # rows too short for the header
        "",                          # header only
        "\n\n",                      # blank lines only
    ])
    def test_malformed_bodies_rejected(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,x_2,y_1,y_2\n" + body)
        with pytest.raises(InvalidInput):
            koopid.read_snapshot_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["x_2", "y_1"])
    def test_non_finite_value_names_its_row_and_column(self, tmp_path, value, column):
        rows = [["1", "2", "3", "4"], ["5", "6", "7", "8"], ["9", "10", "11", "12"]]
        rows[1][["x_1", "x_2", "y_1", "y_2"].index(column)] = value
        path = tmp_path / "nonfinite.csv"
        path.write_text("x_1,x_2,y_1,y_2\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(InvalidInput, match=f"data row 2, column {column} is {value}"):
            koopid.read_snapshot_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidInput, match="empty"):
            koopid.read_snapshot_csv(path)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"], ids=["not-json", "not-object"])
    def test_broken_sidecar_is_logged_not_fatal(self, tmp_path, caplog, text):
        spec = koopid.SystemSpec.discrete_linear(EX2_A, [(-2, 2), (-2, 2)])
        path = tmp_path / "snap.csv"
        koopid.write_snapshot_csv(koopid.generate(spec, 4), path)
        path.with_suffix(".provenance.json").write_text(text)
        with caplog.at_level("WARNING", logger="koopid.systems"):
            back = koopid.read_snapshot_csv(path)
        assert back.count == 4
        assert back.provenance["system"] == "ingested"
        assert any("provenance" in rec.getMessage() for rec in caplog.records)


TRIPPED = []


def _trip():
    TRIPPED.append(1)
    return 0.0


class _Tripwire:
    """Unpickling one calls _trip."""

    def __reduce__(self):
        return _trip, ()


def _rebind(path, payload=None, **changes):
    """The twin or factor file written again by the package's writer, with
    ``payload`` (by default its own) and its binding but for ``changes``."""
    own, binding, _ = bound_parts(path)
    binding.update(changes)
    checksum = binding.pop("csv_bytes"), binding.pop("csv_crc32")
    del binding["payload_crc32"]
    systems._save_bound(path, own if payload is None else payload, checksum, "write",
                        **binding)


def _pickle_payload(path, shape):
    """The twin or factor file with a pickled object array of ``shape`` in
    place of its payload, followed by its own binding."""
    binding = path.read_bytes()[bound_parts(path)[2]:]
    pickled = np.empty(shape, dtype=object)
    pickled[...] = _Tripwire()
    with open(path, "wb") as fh:
        np.save(fh, pickled, allow_pickle=True)
        fh.write(binding)


def _edit_one_digit(path, twin, sidecar):
    data = bytearray(path.read_bytes())
    at = data.index(b".", data.index(b"\r\n")) + 2  # a digit of the first value
    data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def _delete_twin(path, twin, sidecar):
    twin.unlink()


def _twin_is_a_directory(path, twin, sidecar):
    twin.unlink()
    twin.mkdir()


def _truncate_twin(path, twin, sidecar):
    twin.write_bytes(twin.read_bytes()[:200])


def _change_payload(path, twin, sidecar):
    data = np.load(twin)
    data[3, 1] = np.nextafter(data[3, 1], np.inf)
    rewrite_payload(twin, data)


# the same buffer, bound to the same CSV, so only the shape or the dtype
# check can reject these
def _save_wrong_shape(path, twin, sidecar):
    _rebind(twin, np.load(twin).reshape(-1, 2))


def _save_other_dtype(path, twin, sidecar):
    _rebind(twin, np.load(twin).view(np.int64))


def _save_object_dtype(path, twin, sidecar):
    _pickle_payload(twin, np.load(twin).shape)


def _append_a_byte(path, twin, sidecar):
    twin.write_bytes(twin.read_bytes() + b"\n")


def _write_binding(twin, binding):
    """The twin with its payload kept and ``binding`` in place of its own."""
    payload = twin.read_bytes()[:bound_parts(twin)[2]]
    with open(twin, "wb") as fh:
        fh.write(payload)
        np.save(fh, np.array(json.dumps(binding).encode()))


def _garble_binding(path, twin, sidecar):
    # the binding replaced by the twin's file name, a JSON string
    _write_binding(twin, "snap.snapshots.npy")


def _drop_payload_crc(path, twin, sidecar):
    binding = bound_parts(twin)[1]
    del binding["payload_crc32"]
    _write_binding(twin, binding)


def _previous_format(path, twin, sidecar):
    # the twin alone, bound by the sidecar, as the previous format had it
    data = np.load(twin)
    np.save(twin, data)
    prov = json.loads(sidecar.read_text())
    prov["binary_twin"] = {"file": twin.name, "csv_bytes": len(path.read_bytes()),
                           "csv_crc32": zlib.crc32(path.read_bytes()),
                           "payload_crc32": zlib.crc32(data)}
    sidecar.write_text(json.dumps(prov))


class TestBinaryTwin:
    @staticmethod
    def written(tmp_path):
        spec = koopid.SystemSpec.continuous("vanderpol", 5e-3, [(-4, 4)] * 2, seed=3)
        snap = koopid.generate(spec, 200)
        path = tmp_path / "snap.csv"
        koopid.write_snapshot_csv(snap, path)
        return snap, path, path.with_suffix(".snapshots.npy"), \
            path.with_suffix(".provenance.json")

    def test_the_twin_binds_itself_to_the_csv(self, tmp_path):
        snap, path, twin, sidecar = self.written(tmp_path)
        data, binding, _ = bound_parts(twin)
        assert np.load(twin, allow_pickle=False).tobytes() == \
            np.hstack([snap.X, snap.Y]).tobytes() == data.tobytes()
        assert binding == {
            "csv_bytes": len(path.read_bytes()),
            "csv_crc32": zlib.crc32(path.read_bytes()),
            "payload_crc32": zlib.crc32(data),
        }
        # the sidecar holds provenance only
        assert json.loads(sidecar.read_text()) == snap.provenance
        assert not list(tmp_path.glob(".*.tmp"))

    @pytest.mark.parametrize("edit", ["rewrite", "delete"])
    def test_the_sidecar_does_not_bind_the_twin(self, tmp_path, parses, caplog, edit):
        snap, path, twin, sidecar = self.written(tmp_path)
        if edit == "delete":
            sidecar.unlink()
        else:
            sidecar.write_text(json.dumps({"system": "edited"}))
        with caplog.at_level("INFO", logger="koopid.systems"):
            back = koopid.read_snapshot_csv(path)
        assert not parses and not caplog.records
        assert np.hstack([back.X, back.Y]).tobytes() == np.hstack([snap.X, snap.Y]).tobytes()
        assert back.provenance["system"] == ("edited" if edit == "rewrite" else "ingested")

    # each change leaves the CSV readable; the reader parses it and logs why
    # (a changed CSV or a missing twin at INFO, any other unusable twin at
    # WARNING)
    @pytest.mark.parametrize("change, level", [
        (_edit_one_digit, "INFO"),
        (_delete_twin, "INFO"),
        (_twin_is_a_directory, "WARNING"),
        (_truncate_twin, "WARNING"),
        (_change_payload, "WARNING"),
        (_save_wrong_shape, "WARNING"),
        (_save_other_dtype, "WARNING"),
        (_save_object_dtype, "WARNING"),
        (_append_a_byte, "WARNING"),
        (_garble_binding, "WARNING"),
        (_drop_payload_crc, "WARNING"),
        (_previous_format, "WARNING"),
    ], ids=lambda case: getattr(case, "__name__", str(case)).lstrip("_"))
    def test_unusable_twin_falls_back_to_parsing(self, tmp_path, parses, caplog,
                                                 change, level):
        TRIPPED.clear()
        snap, path, twin, sidecar = self.written(tmp_path)
        change(path, twin, sidecar)
        with caplog.at_level("INFO", logger="koopid.systems"):
            back = koopid.read_snapshot_csv(path)
        assert len(parses) == 1 and not TRIPPED
        parsed = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.hstack([back.X, back.Y]).tobytes() == parsed.tobytes()
        assert [rec.levelname for rec in caplog.records] == [level]
        assert str(twin) in caplog.records[0].getMessage()
        if change is _edit_one_digit:
            assert back.X[0, 0] != snap.X[0, 0]


_DEGREE_3 = koopid.monomials_up_to_degree(2, 3)


def _flip_a_bit_of_r(path, factor_file, monkeypatch):
    R = np.load(factor_file)
    R.view(np.uint8)[-1] ^= 1  # a bit of R's last entry, an upper-triangle value
    rewrite_payload(factor_file, R)
    return _DEGREE_3


def _foreign_dictionary(path, factor_file, monkeypatch):
    # the same size, so only the descriptor tells the two apart
    return koopid.MonomialDictionary(2, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                         (3, 0), (2, 1), (1, 2), (0, 4)))


def _other_blas(path, factor_file, monkeypatch):
    monkeypatch.setattr(koopid.numerics, "_blas_identity", lambda: "OpenBLAS 9.9 Other")
    return _DEGREE_3


def _other_kernel(path, factor_file, monkeypatch):
    monkeypatch.setattr(koopid.numerics, "_dgeqrt", lambda: None)
    return _DEGREE_3


def _other_code(path, factor_file, monkeypatch):
    monkeypatch.setattr(systems, "_code_crc32", lambda: 12345)
    return _DEGREE_3


def _edit_the_csv(path, factor_file, monkeypatch):
    _edit_one_digit(path, None, None)
    return _DEGREE_3


def _delete_factor_file(path, factor_file, monkeypatch):
    factor_file.unlink()
    return _DEGREE_3


def _truncate_factor_file(path, factor_file, monkeypatch):
    factor_file.write_bytes(factor_file.read_bytes()[:300])
    return _DEGREE_3


def _pickled_factor_file(path, factor_file, monkeypatch):
    _pickle_payload(factor_file, ())
    return _DEGREE_3


def _other_count(path, factor_file, monkeypatch):
    # a binding that names another N, with R and everything else kept
    _rebind(factor_file, count=bound_parts(factor_file)[1]["count"] + 1)
    return _DEGREE_3


def _zero_count(path, factor_file, monkeypatch):
    _rebind(factor_file, count=0)
    return _DEGREE_3


def _float_count(path, factor_file, monkeypatch):
    # with no twin whose rows the count must equal, only its type tells
    path.with_suffix(".snapshots.npy").unlink()
    _rebind(factor_file, count=300.0)
    return _DEGREE_3


def _fewer_rows_of_r(path, factor_file, monkeypatch):
    # R without its last row, under a binding that names it
    _rebind(factor_file, np.load(factor_file)[:-1])
    return _DEGREE_3


def _previous_factor_format(path, factor_file, monkeypatch):
    # one .npy record of the binding and R, as the previous format had it
    R, binding, _ = bound_parts(factor_file)
    binding.update(shape=list(R.shape), r_crc32=binding.pop("payload_crc32"))
    text = json.dumps(binding, sort_keys=True).encode()
    record = np.empty((), [("binding", f"S{len(text)}"), ("R", "<f8", R.shape)])
    record["binding"], record["R"] = text, R
    np.save(factor_file, record)
    return _DEGREE_3


class TestFactorFile:
    @staticmethod
    def saved(tmp_path, twin="kept", rows=300):
        path = tmp_path / "snap.csv"
        koopid.write_snapshot_csv(koopid.generate(koopid.SystemSpec.continuous(
            "vanderpol", 5e-3, [(-4, 4)] * 2, seed=3), rows), path)
        if twin == "deleted":
            path.with_suffix(".snapshots.npy").unlink()
        stream = systems.SnapshotStream(path)
        factor = stream.scan(lambda b: koopid.evaluate_factor(_DEGREE_3, b))
        factor_file = tmp_path / "result.factor.npy"
        stream.save_factor(factor_file, factor, _DEGREE_3)
        return path, factor_file, factor

    @twin_case
    @pytest.mark.parametrize("rows", [12, 300])
    def test_a_saved_factor_loads_bit_for_bit(self, tmp_path, parses, twin, rows):
        # from fewer rows than 2 N_d too, where R has N rows
        path, factor_file, factor = self.saved(tmp_path, twin, rows)
        parsed = len(parses)
        stream = systems.SnapshotStream(path)
        loaded = stream.load_factor(factor_file, _DEGREE_3)
        assert loaded.RX.tobytes() == factor.RX.tobytes()
        assert loaded.RY.tobytes() == factor.RY.tobytes()
        assert loaded.RX.shape == (min(rows, 20), 10)
        # the count is the one bound to the CSV: the CSV is neither parsed
        # nor counted
        assert stream.count == rows and len(parses) == parsed

    def test_the_file_binds_r_to_the_csv_dictionary_and_build(self, tmp_path):
        path, factor_file, factor = self.saved(tmp_path)
        R = np.hstack([factor.RX, factor.RY])
        assert np.load(factor_file, allow_pickle=False).tobytes() == R.tobytes()
        payload, binding, _ = bound_parts(factor_file)
        assert payload.shape == (20, 20)
        build = binding.pop("build")
        assert binding == {
            "csv_bytes": len(path.read_bytes()), "csv_crc32": zlib.crc32(path.read_bytes()),
            "count": 300, "dictionary": _DEGREE_3.descriptor(),
            "payload_crc32": zlib.crc32(R)}
        assert set(build) == {"kernel", "numpy", "blas", "code_crc32"}
        assert build["numpy"] == np.__version__ and build["kernel"] in ("dgeqrt", "dgeqrf")
        assert not list(tmp_path.glob(".*.tmp"))

    # each change leaves the factor computable from the data: the file is
    # ignored, and why is logged (a missing file or a changed CSV at INFO,
    # all else at WARNING)
    @pytest.mark.parametrize("change, level", [
        (_delete_factor_file, "INFO"),
        (_edit_the_csv, "INFO"),
        (_flip_a_bit_of_r, "WARNING"),
        (_foreign_dictionary, "WARNING"),
        (_other_blas, "WARNING"),
        (_other_kernel, "WARNING"),
        (_other_code, "WARNING"),
        (_other_count, "WARNING"),
        (_zero_count, "WARNING"),
        (_float_count, "WARNING"),
        (_fewer_rows_of_r, "WARNING"),
        (_truncate_factor_file, "WARNING"),
        (_pickled_factor_file, "WARNING"),
        (_previous_factor_format, "WARNING"),
    ], ids=lambda case: getattr(case, "__name__", str(case)).lstrip("_"))
    def test_an_unusable_factor_file_is_ignored(self, tmp_path, monkeypatch, caplog,
                                                change, level):
        TRIPPED.clear()
        path, factor_file, _ = self.saved(tmp_path)
        dictionary = change(path, factor_file, monkeypatch)
        with caplog.at_level("INFO", logger="koopid.systems"):
            stream = systems.SnapshotStream(path)
            assert stream.load_factor(factor_file, dictionary) is None
        assert not TRIPPED
        records = [rec for rec in caplog.records if "factor file" in rec.getMessage()]
        assert [rec.levelname for rec in records] == [level]
        assert str(factor_file) in records[0].getMessage()

    def test_a_csv_that_cannot_be_read_is_an_io_error(self, tmp_path, monkeypatch):
        # the checksum the derived files bind is read as the stream opens
        path, _, _ = self.saved(tmp_path, twin="deleted")

        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(systems, "_file_checksum", unreadable)
        with pytest.raises(ArtifactIOError, match="^cannot read snapshot file: "):
            systems.SnapshotStream(path)

    @twin_case
    def test_a_csv_deleted_after_opening_keeps_its_factor_file(self, tmp_path, twin):
        # the file is bound to the CSV as the stream opened it
        path, factor_file, factor = self.saved(tmp_path, twin)
        stream = systems.SnapshotStream(path)
        path.unlink()
        loaded = stream.load_factor(factor_file, _DEGREE_3)
        assert loaded.RX.tobytes() == factor.RX.tobytes()
        assert loaded.RY.tobytes() == factor.RY.tobytes()
        assert stream.count == 300

    def test_without_a_pinned_thread_count_no_file_is_written_or_read(self, tmp_path,
                                                                       monkeypatch):
        path, factor_file, factor = self.saved(tmp_path)
        monkeypatch.setattr(koopid.numerics, "_thread_setter", lambda: None)
        stream = systems.SnapshotStream(path)
        assert stream.load_factor(factor_file, _DEGREE_3) is None
        factor_file.unlink()
        stream.save_factor(factor_file, factor, _DEGREE_3)
        assert not factor_file.exists()

    def test_a_failed_write_leaves_neither_file(self, tmp_path, monkeypatch):
        path, factor_file, factor = self.saved(tmp_path)
        factor_file.unlink()

        def refused(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(systems.os, "replace", refused)
        with pytest.raises(ArtifactIOError, match="^cannot write factor file: "):
            systems.SnapshotStream(path).save_factor(factor_file, factor, _DEGREE_3)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snap.csv", "snap.provenance.json", "snap.snapshots.npy"]


def _bound_csv(path, data):
    """A snapshot CSV of ``data`` (N x 4, non-finite values allowed) with its
    twin, as write_snapshot_csv writes them."""
    checksum = systems._write_csv(path, ["x_1", "x_2", "y_1", "y_2"], data)
    twin = path.with_suffix(".snapshots.npy")
    systems._save_bound(twin, data, checksum, "write binary snapshot file")
    return twin


@pytest.fixture()
def read_blocks(monkeypatch):
    """The snapshot reader yields blocks of 50 rows of 2 x 2 values."""
    monkeypatch.setattr(systems, "_READ_BYTES", 50 * 32)
    return 50


def _vdp_data(rows, seed=5):
    spec = koopid.SystemSpec.continuous("vanderpol", 5e-3, [(-4, 4)] * 2, seed=seed)
    snap = koopid.generate(spec, rows)
    return np.hstack([snap.X, snap.Y])


class TestStreamedRead:
    @twin_case
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_in_a_later_block_names_its_row_and_column(
            self, tmp_path, parses, read_blocks, twin, value):
        data = _vdp_data(200)
        data[2 * read_blocks + 7, 2] = float(value)  # third block, column y_1
        path = tmp_path / "snap.csv"
        twin_path = _bound_csv(path, data)
        if twin == "deleted":
            twin_path.unlink()
        with pytest.raises(InvalidInput, match=f"data row {2 * read_blocks + 8}, "
                                               f"column y_1 is {value}"):
            koopid.read_snapshot_csv(path)
        # the twin, bound and intact, names the value without a parse
        assert (len(parses) > 0) == (twin == "deleted")

    # a line of spaces is quoted as it is, only its line ending stripped
    @pytest.mark.parametrize("bad", ["1,2,3", "1,2,x,4", "1,2,3,4,5", "   "])
    def test_bad_row_in_a_later_block_names_its_line(self, tmp_path, read_blocks, bad):
        lines = [",".join("%.17g" % v for v in row) for row in _vdp_data(200)]
        lines[130] = bad
        lines.insert(10, "")  # a blank line counts as a line, not a row
        path = tmp_path / "snap.csv"
        path.write_text("x_1,x_2,y_1,y_2\n" + "\n".join(lines) + "\n")
        with pytest.raises(InvalidInput, match=f"line 133 is not 4 comma-separated "
                                               f"numbers: '{bad}'"):
            koopid.read_snapshot_csv(path)

    def test_a_block_bad_only_as_a_whole_names_its_first_row(self, tmp_path, read_blocks):
        # a quote left open joins the next line to its last field, though each
        # line on its own is 4 numbers
        lines = [",".join("%.17g" % v for v in row) for row in _vdp_data(200)]
        lines[130] = '1,2,3,"4'
        path = tmp_path / "snap.csv"
        path.write_text("x_1,x_2,y_1,y_2\n" + "\n".join(lines) + "\n")
        with pytest.raises(InvalidInput, match="snap.csv: the rows from data row 101 on are "
                                               "not 4 comma-separated numbers$"):
            koopid.read_snapshot_csv(path)

    @pytest.mark.parametrize("value", [0.5, 1e200])
    def test_tampered_payload_of_a_later_block_falls_back_to_parsing(
            self, tmp_path, parses, read_blocks, caplog, value):
        data = _vdp_data(200)
        path = tmp_path / "snap.csv"
        twin = _bound_csv(path, data)
        changed = data.copy()
        changed[170, 1] = value  # 1e200 overflows the degree-7 dictionary
        rewrite_payload(twin, changed)
        dictionary = koopid.monomials_up_to_degree(2, 7)
        with caplog.at_level("WARNING", logger="koopid.systems"):
            stream = systems.SnapshotStream(path)
            factor = stream.scan(lambda b: koopid.evaluate_factor(dictionary, b))
        assert parses and stream.count == 200
        assert [rec.getMessage() for rec in caplog.records] == [
            f"ignoring binary twin {twin}: not the array bound to {path}"]
        expected = koopid.evaluate_factor(dictionary, data[:, :2], data[:, 2:])
        assert np.array_equal(factor.RX, expected.RX)
        assert np.array_equal(factor.RY, expected.RY)

    def test_twin_shortened_after_opening_falls_back_to_parsing(
            self, tmp_path, parses, read_blocks, caplog):
        data = _vdp_data(200)
        path = tmp_path / "snap.csv"
        twin = _bound_csv(path, data)
        dictionary = koopid.monomials_up_to_degree(2, 7)
        with caplog.at_level("WARNING", logger="koopid.systems"):
            stream = systems.SnapshotStream(path)
            # bound when opened, then cut 60 rows short: the third block ends early
            os.truncate(twin, bound_parts(twin)[2] - 60 * 4 * 8)
            factor = stream.scan(lambda b: koopid.evaluate_factor(dictionary, b))
        assert parses and stream.count == 200
        assert [rec.getMessage() for rec in caplog.records] == [
            f"ignoring binary twin {twin}: not the array bound to {path}"]
        expected = koopid.evaluate_factor(dictionary, data[:, :2], data[:, 2:])
        assert np.array_equal(factor.RX, expected.RX)
        assert np.array_equal(factor.RY, expected.RY)

    @twin_case
    def test_no_rows_is_invalid_input(self, tmp_path, twin):
        path = tmp_path / "snap.csv"
        koopid.write_snapshot_csv(koopid.SnapshotSet(np.zeros((0, 2)), np.zeros((0, 2))),
                                  path)
        if twin == "deleted":
            path.with_suffix(".snapshots.npy").unlink()
        with pytest.raises(InvalidInput, match="expected nonempty rows of 4 values"):
            koopid.read_snapshot_csv(path)

    @pytest.mark.parametrize("where", ["header", "later-block"])
    def test_bytes_that_are_not_text_are_invalid_input(self, tmp_path, read_blocks, where):
        lines = [",".join("%.17g" % v for v in row).encode() for row in _vdp_data(200)]
        lines[150] = b"\xff\xfe,1,2,3"
        header = b"x_1,x_2,y_1,y_2" if where == "later-block" else b"\xff"
        path = tmp_path / "snap.csv"
        path.write_bytes(b"\n".join([header] + lines) + b"\n")
        with pytest.raises(InvalidInput):
            stream = systems.SnapshotStream(path)
            stream.scan(lambda b: sum(len(x) for x, y in b))
        with pytest.raises(InvalidInput):
            systems.SnapshotStream(path).count

    def test_a_csv_deleted_after_opening_is_an_io_error(self, tmp_path):
        path = tmp_path / "snap.csv"
        _bound_csv(path, _vdp_data(20)).unlink()
        stream = systems.SnapshotStream(path)
        path.unlink()  # with no twin, the count has to read the CSV
        with pytest.raises(ArtifactIOError, match="^cannot read snapshot file: "):
            stream.count

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 19])
    @pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
    @pytest.mark.parametrize("ends", [["\n"], ["\r\n"], ["\r"], ["\r\n", "\r", "\n"]],
                             ids=["lf", "crlf", "cr", "mixed"])
    def test_count_is_the_non_blank_lines_after_the_header(self, tmp_path, monkeypatch,
                                                            chunk, final, ends):
        # the count read in chunks of `chunk` characters equals Python's text
        # mode count of the lines after the header that are not blank; a
        # space-only line counts, and a chunk can end inside "\r\n"
        monkeypatch.setattr(systems, "_READ_BYTES", chunk)
        lines = ["x_1,x_2,y_1,y_2", "", "1,2,3,4", "", "", " ", "5,6,7,8", "\t",
                 "9,10,11,12", "", "13,14,15,16"]
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        text = text if final else text.rstrip("\r\n")
        path = tmp_path / "snap.csv"
        path.write_bytes(text.encode())
        with open(path, newline="") as fh:
            next(fh)
            expected = sum(1 for line in fh if line.strip("\r\n"))
        assert expected == 6
        assert systems.SnapshotStream(path).count == expected

    @twin_case
    def test_count_is_known_before_the_scan(self, tmp_path, parses, twin):
        data = _vdp_data(130)
        path = tmp_path / "snap.csv"
        twin_path = _bound_csv(path, data)
        if twin == "deleted":
            twin_path.unlink()
        assert systems.SnapshotStream(path).count == 130
        assert not parses

    @twin_case
    def test_read_and_factor_memory_does_not_grow_with_n(
            self, tmp_path, read_blocks, small_blocks, ex2_dictionary, twin):
        # numpy's data buffers are traced: the peak of 16 blocks of rows may
        # exceed that of 4 blocks by less than one block of [D(X), D(Y)]
        block_bytes = small_blocks * 2 * ex2_dictionary.size * 8
        peaks = []
        for rows in (4 * small_blocks, 16 * small_blocks):
            path = tmp_path / f"snap{rows}.csv"
            twin_path = _bound_csv(path, _vdp_data(rows))
            if twin == "deleted":
                twin_path.unlink()
            tracemalloc.start()
            try:
                stream = systems.SnapshotStream(path)
                stream.scan(lambda b: koopid.evaluate_factor(ex2_dictionary, b))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < block_bytes, peaks
