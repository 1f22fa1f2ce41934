"""Snapshot-pair generation for built-in dynamical systems.

Snapshots are pairs (x_i, y_i) with y_i the image of x_i under one step of
the map: directly for discrete linear systems, via classical fixed-step RK4
over one sampling interval for continuous vector fields.  Initial conditions
are drawn uniformly from a box with the PCG64 generator, so a (spec, N) pair
reproduces bit-identical data on any platform.
A snapshot CSV written here gets a binary twin that :class:`SnapshotStream`
reads in place of parsing the text, and a stream can save the R factor it
gave to a factor file that it reads back in place of the snapshots.  Each
file holds its own binding to the CSV's bytes (see :func:`_save_bound`), and
both are used or ignored under one rule (see :meth:`SnapshotStream._bound`),
against the CSV's checksum as the stream opened it.  The twin's binding also
holds the generator's provenance, which :func:`read_snapshot_csv` reports
only from a twin so used.  A failed or interrupted write of any file leaves
the previous file whole (see :func:`koopid.errors.replaced`).
"""

import contextlib
import csv
import functools
import json
import logging
import os
import pathlib
import sys
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np
from numpy.lib import format as npy_format

from . import dictionary as dict_mod
from . import numerics
from .errors import EvaluationOverflow, InvalidInput, KoopidError, artifact_io, is_stream, replaced

__all__ = [
    "SystemSpec",
    "SnapshotSet",
    "VECTOR_FIELDS",
    "sample_uniform",
    "step",
    "generate",
    "write_snapshot_csv",
    "write_grid_csv",
    "read_snapshot_csv",
    "SnapshotStream",
]

logger = logging.getLogger(__name__)

PRNG_NAME = "PCG64"

#: Suffix of the binary twin written next to each snapshot CSV.
TWIN_SUFFIX = ".snapshots.npy"

#: Suffix of the factor file written next to a result.
FACTOR_SUFFIX = ".factor.npy"


def _vanderpol(X):
    x1, x2 = X[:, 0], X[:, 1]
    return np.column_stack([x2, -x1 + (1.0 - x1**2) * x2])


#: Built-in continuous vector fields, keyed by the id used in SystemSpec.
VECTOR_FIELDS = {"vanderpol": _vanderpol}

FIELD_DIMS = {"vanderpol": 2}


def _validate_box(box):
    out = []
    for interval in box:
        lo, hi = float(interval[0]), float(interval[1])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidInput("box bounds must be finite")
        if lo > hi:
            raise InvalidInput(f"box interval [{lo}, {hi}] is empty")
        out.append((lo, hi))
    if not out:
        raise InvalidInput("box must have at least one interval")
    return tuple(out)


@dataclass(frozen=True)
class SystemSpec:
    """A built-in system plus its sampling configuration.

    Use :meth:`discrete_linear` or :meth:`continuous` instead of the raw
    constructor.
    """

    kind: str
    box: tuple
    seed: int = 0
    map_matrix: np.ndarray = None
    field_id: str = None
    dt: float = None
    substeps: int = 1

    def __post_init__(self):
        object.__setattr__(self, "box", _validate_box(self.box))
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise InvalidInput(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind == "discrete-linear":
            A = numerics._as_matrix(self.map_matrix, "map_matrix")
            if A.shape[0] != A.shape[1]:
                raise InvalidInput("map matrix must be square")
            if A.shape[0] != len(self.box):
                raise InvalidInput("map matrix size must match box dimension")
            object.__setattr__(self, "map_matrix", A)
        elif self.kind == "continuous-vector-field":
            if self.field_id not in VECTOR_FIELDS:
                raise InvalidInput(
                    f"unknown vector field {self.field_id!r}; "
                    f"available: {sorted(VECTOR_FIELDS)}"
                )
            if FIELD_DIMS[self.field_id] != len(self.box):
                raise InvalidInput("box dimension must match the field's state dim")
            if self.dt is None or not (self.dt > 0):
                raise InvalidInput("dt must be strictly positive")
            if self.substeps < 1:
                raise InvalidInput("substeps must be at least 1")
        else:
            raise InvalidInput(f"unknown system kind {self.kind!r}")

    @classmethod
    def discrete_linear(cls, A, box, seed=0):
        return cls(kind="discrete-linear", box=tuple(box), seed=seed,
                   map_matrix=np.asarray(A, dtype=float))

    @classmethod
    def continuous(cls, field_id, dt, box, seed=0, substeps=1):
        return cls(kind="continuous-vector-field", box=tuple(box), seed=seed,
                   field_id=field_id, dt=dt, substeps=substeps)

    @property
    def state_dim(self):
        return len(self.box)

    def provenance(self):
        out = {"system": self.field_id or "linear", "kind": self.kind,
               "seed": self.seed, "box": [list(b) for b in self.box],
               "prng": PRNG_NAME}
        if self.kind == "discrete-linear":
            out["map_matrix"] = self.map_matrix.tolist()
        else:
            out.update({"dt": self.dt, "substeps": self.substeps,
                        "integrator": "rk4"})
        return out


@dataclass(frozen=True)
class SnapshotSet:
    """Paired state matrices with y_i = T(x_i), one sample per row."""

    X: np.ndarray
    Y: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        X = numerics._as_matrix(self.X, "X")
        Y = numerics._as_matrix(self.Y, "Y")
        if X.shape != Y.shape:
            raise InvalidInput("X and Y must have the same shape")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def count(self):
        return self.X.shape[0]

    @property
    def state_dim(self):
        return self.X.shape[1]


def sample_uniform(box, n_samples, seed):
    """N i.i.d. uniform draws from a box, deterministic for a given seed.

    The generator is numpy's PCG64, seeded directly, so the same
    (box, n_samples, seed) triple yields bitwise-identical output everywhere.
    Point intervals (lo == hi) are allowed; empty ones are rejected.
    """
    box = _validate_box(box)
    if n_samples < 1:
        raise InvalidInput("n_samples must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return rng.uniform(lo, hi, size=(n_samples, len(box)))


def rk4_step(field, X, dt, substeps=1):
    """Classical Runge-Kutta 4 over one interval dt, split into substeps."""
    h = dt / substeps
    for _ in range(substeps):
        k1 = field(X)
        k2 = field(X + 0.5 * h * k1)
        k3 = field(X + 0.5 * h * k2)
        k4 = field(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X


def step(spec, X):
    """Apply the system map row-wise: the matrix product for discrete linear
    systems, an RK4 step of length dt for continuous fields."""
    X = numerics._as_matrix(X, "X")
    if X.shape[1] != spec.state_dim:
        raise InvalidInput(
            f"X has {X.shape[1]} columns, expected {spec.state_dim}"
        )
    # overflow surfaces as EvaluationOverflow via the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "discrete-linear":
            # a C-ordered copy: the transposed view sometimes takes a slow
            # multithreaded BLAS path; the product is the same bit for bit
            Y = X @ np.ascontiguousarray(spec.map_matrix.T)
        else:
            Y = rk4_step(VECTOR_FIELDS[spec.field_id], X, spec.dt, spec.substeps)
    bad = ~np.all(np.isfinite(Y), axis=1)
    if bad.any():
        raise EvaluationOverflow("system step produced a non-finite state",
                                 row=int(np.nonzero(bad)[0][0]))
    return Y


def generate(spec, n_samples):
    """Sample initial conditions and advance them once; see :func:`step`."""
    X = sample_uniform(spec.box, n_samples, spec.seed)
    Y = step(spec, X)
    prov = spec.provenance()
    prov["count"] = int(n_samples)
    return SnapshotSet(X=X, Y=Y, provenance=prov)


# Rows per formatted CSV chunk: enough chunks on the benchmark sizes (19 at
# 300,000 rows) to keep every worker busy to the end.
_CSV_CHUNK_ROWS = 16_384


@functools.cache
def _digit_tables():
    """The ASCII of "0000".."9999" as uint32 words, and 10**0..10**20 (each
    an exact double) with their Veltkamp halves; built on first use."""
    i = np.arange(10_000)
    ascii4 = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    words = ascii4.astype(np.uint8).view(np.uint32).ravel()
    powers = np.cumprod(np.full(21, 10.0)) / 10.0  # every product is exact
    return words, powers, *_split(powers)


def _split(a):
    """Veltkamp's split of a into halves of 26 bits, a = hi + lo exactly."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _digits(a, k):
    """round(a * 10**(16 - k)), ties to even, for doubles a and integers k in
    -4..16: the product is a Dekker pair hi + lo, and hi >= 2**53 is even
    wherever the result has 17 digits."""
    _, powers, p_hi, p_lo = _digit_tables()
    e = 16 - k
    hi = a * powers[e]
    a_hi, a_lo = _split(a)
    lo = ((a_hi * p_hi[e] - hi) + a_hi * p_lo[e] + a_lo * p_hi[e]) + a_lo * p_lo[e]
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _format_rows(chunk):
    """The encoded text of ``chunk``: each value as ``'%.17g'`` prints it,
    values joined by "," and each row ended by CRLF.

    A nonzero |x| in [1e-4, 1e17) has a decimal exponent k in -4..16, the
    range where ``%.17g`` prints no exponent, and its 17 digits are the
    integer D = round(|x| * 10**(16 - k)).  Each value is laid out in a
    26-byte slot (24 bytes of sign and number, 2 of separator) with a mask
    of the bytes to keep.  Every other value, and any whose D the arithmetic
    does not place in [1e16, 1e17), is printed by ``%`` into its slot; a
    chunk with no value in that range is printed by one ``%``."""
    rows, cols = chunk.shape
    v = chunk.ravel()
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)  # false for NaN
    if not fast.any():  # nothing for the arithmetic: one % prints the chunk
        return ((("%.17g," * cols)[:-1] + "\r\n") * rows % tuple(v.tolist())).encode()
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)).astype(np.int8), -4, 16)
    D = _digits(a, k)
    # log10 only estimates k: where it is one off, next to a power of ten,
    # D has 16 or 18 digits and the value is left to %
    fast &= (D >= 10**16) & (D < 10**17)
    k[~fast] = 17  # the key of the values printed by %

    # each row of E is "0000", "000" and the 17 digits: bytes 3..6 are the
    # zeros after "0." that |x| < 1 needs
    words = _digit_tables()[0]
    high, low = np.divmod(np.where(fast, D, 10**16), 10**8)
    lead, high = np.divmod(high, 10**8)
    E = np.empty((n, 6), np.uint32)
    E[:, 0] = words[0]
    E[:, 1] = words[lead]
    for word, part in ((2, high), (4, low)):
        E[:, word], E[:, word + 1] = (words[half] for half in np.divmod(part, 10_000))
    significant = 17 - np.argmax(E.view(np.uint8)[:, 23:6:-1] != ord("0"), axis=1)

    # the values of one k share a layout, "-" and E[start:] with "." after
    # `point` characters, so each k gathers and scatters whole rows; the
    # last group, k = 17, is printed by % below
    slots = np.empty((rows, cols, 26), np.uint8)
    text = np.ndarray((n,), "V24", slots, 0, (26,))
    order = np.argsort(k, kind="stable")  # lanes ascend within each group
    ends = np.cumsum(np.bincount(k + 4, minlength=22))
    for exponent, lanes in zip(range(-4, 17), np.split(order, ends[:-1])):
        start, point = 7 + min(exponent, 0), max(exponent, 0) + 1
        src = E.view("V24").ravel()[lanes].view(np.uint8).reshape(-1, 24)
        out = np.empty((lanes.size, 24), np.uint8)
        out[:, 0] = ord("-")
        out[:, 1:1 + point] = src[:, start:start + point]
        out[:, 1 + point] = ord(".")
        out[:, 2 + point:26 - start] = src[:, start + point:24]
        text[lanes] = out.view("V24").ravel()

    # a slot keeps the sign of a negative, `length` characters of number,
    # and the separator: row 2 * length + negative of `table`
    shown = significant - np.minimum(k, 0)  # characters to the last nonzero digit
    point = np.maximum(k, 0) + 1
    length = np.where(shown > point, shown + 1, point)
    code = 2 * length + np.signbit(v)
    # the rest are printed by one %, each left-aligned in 24 columns, the
    # most it takes ("-2.2250738585072014e-308"), and padded with spaces
    lanes = np.flatnonzero(~fast)
    printed = np.frombuffer((b"%-24.17g" * lanes.size) % tuple(v[lanes].tolist()),
                            np.uint8).reshape(-1, 24)
    text[lanes] = printed.view("V24").ravel()
    code[lanes] = 2 * np.count_nonzero(printed != ord(" "), axis=1) - 1
    col, c = np.arange(26), np.arange(48)[:, None]
    table = (1 <= col) & (col <= c // 2) | (col == 0) & (c % 2 == 1) | (col == 24)
    keep = table.view("V26").ravel()[code].view(bool).reshape(rows, cols, 26)
    slots[:, :, 24] = ord(",")
    slots[:, -1, 24:] = np.frombuffer(b"\r\n", np.uint8)
    keep[:, -1, 25] = True
    return slots[keep].tobytes()


def _usable_cpus():
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _format_chunks(header, data):
    """The encoded text of the CSV: the header line, then each chunk of
    ``_CSV_CHUNK_ROWS`` rows of ``data``, in order.

    With more than one usable CPU and chunk, the chunks are formatted by a
    pool of threads, one per CPU: numpy releases the GIL for the elementwise
    arithmetic, sorts and copies of :func:`_format_rows`, so they run in
    parallel, while the ``%`` of the few values they leave holds it.  With
    one worker, or when a thread cannot start, every chunk is formatted
    in-process."""
    yield (",".join(header) + "\r\n").encode()
    chunks = [data[start:start + _CSV_CHUNK_ROWS]
              for start in range(0, len(data), _CSV_CHUNK_ROWS)]
    workers = min(_usable_cpus(), len(chunks))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            try:
                # map submits every chunk, starting the threads, before it
                # yields the first, so no chunk has been yielded when this fails
                formatted = pool.map(_format_rows, chunks)
            except RuntimeError as exc:  # out of threads or process ids
                logger.info("formatting the CSV chunks in-process: %r", exc)
            else:
                yield from formatted
                return
    yield from map(_format_rows, chunks)


def _write_csv(path, header, data):
    """Write a header and the rows of a float matrix as csv.writer would
    (plain fields, CRLF line endings), each value in 17 significant digits,
    and return the byte count and the CRC-32 of what was written.

    The rows are formatted in chunks, on threads when there are several
    CPUs (see :func:`_format_chunks`), and written in order; the bytes do
    not depend on how many threads format them."""
    size = crc = 0
    with replaced(path, "write CSV file") as fh, \
            contextlib.closing(_format_chunks(header, data)) as encoded_chunks:
        for encoded in encoded_chunks:
            fh.write(encoded)
            size += len(encoded)
            crc = zlib.crc32(encoded, crc)
    return size, crc


def write_snapshot_csv(snapshots, path):
    """Write snapshots as CSV with header x_1..x_n,y_1..y_n.

    Values are printed with 17 significant digits so parsing them back
    reproduces the exact IEEE-754 doubles.  The same array is saved as the
    binary twin ``<stem>.snapshots.npy``, with the provenance in its binding
    (see :func:`_save_bound`).
    """
    path = pathlib.Path(path)
    n = snapshots.state_dim
    header = [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
    data = np.hstack([snapshots.X, snapshots.Y])
    checksum = _write_csv(path, header, data)
    if not is_stream(path):  # --out /dev/stdout gets no twin beside it
        _save_bound(path.with_suffix(TWIN_SUFFIX), data, checksum, "write binary snapshot file",
                    provenance=snapshots.provenance)
    return path


def _save_bound(path, payload, checksum, action, **binding):
    """``np.save`` the float64 matrix ``payload`` to ``path``, then its
    binding as a 0-d bytes array of JSON: the CSV's ``checksum`` (byte count
    and CRC-32), the payload's CRC-32 and ``binding``.  A device or pipe at
    ``path`` is left alone, logged at WARNING: a write into a FIFO blocks
    until it has a reader."""
    if is_stream(path) and not os.path.isdir(path):  # a directory fails the write
        logger.warning("cannot %s %s: not a regular file", action, path)
        return
    size, crc = checksum
    text = json.dumps({**binding, "csv_bytes": size, "csv_crc32": crc,
                       "payload_crc32": zlib.crc32(payload)}, sort_keys=True)
    with replaced(path, action) as fh:
        np.save(fh, payload, allow_pickle=False)
        np.save(fh, np.array(text.encode()), allow_pickle=False)


def write_grid_csv(grid, path):
    """Write an :class:`koopid.ssd.EigenfunctionGrid` as CSV with columns
    x_1..x_n,abs,angle."""
    n = grid.points.shape[1]
    _write_csv(path, [f"x_{i+1}" for i in range(n)] + ["abs", "angle"],
               np.column_stack([grid.points, grid.abs_values, grid.angles]))
    return pathlib.Path(path)


def _file_checksum(path):
    """The file's byte count and CRC-32, read through one 1 MiB buffer."""
    total = crc = 0
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            crc = zlib.crc32(view[:size], crc)
            total += size
    return total, crc


# Bytes per block the snapshot reader yields: 16,384 rows of 2 x 2 values.
_READ_BYTES = 1 << 19


def _npy_header(fh):
    """The shape, Fortran order and dtype of the ``.npy`` header at ``fh``."""
    read = {(1, 0): npy_format.read_array_header_1_0, (2, 0): npy_format.read_array_header_2_0}
    return read[npy_format.read_magic(fh)](fh)


class _BoundFile:
    """A file of :func:`_save_bound`, opened by reading its ``.npy`` headers
    and ``binding``: a ``rows`` x ``cols`` C-ordered float64 payload from byte
    ``offset``, then a 0-d bytes array of JSON that ends the file.  Nothing
    is unpickled; a file that is not so raises ValueError."""

    def __init__(self, path, cols):
        with open(path, "rb") as fh:
            shape, fortran_order, dtype = _npy_header(fh)
            if not (dtype == np.float64 and not fortran_order and shape[1:] == (cols,)):
                raise ValueError(f"its payload is not a float64 matrix of {cols} columns")
            self.offset, self.rows = fh.tell(), shape[0]
            fh.seek(self.offset + 8 * self.rows * cols)
            shape, _, dtype = _npy_header(fh)
            if not (shape == () and dtype.kind == "S"
                    and fh.tell() + dtype.itemsize == os.fstat(fh.fileno()).st_size):
                raise ValueError("no binding ends the file")
            binding = json.loads(fh.read())
        keys = ("csv_bytes", "csv_crc32", "payload_crc32")
        if not isinstance(binding, dict) or any(type(binding.get(k)) is not int for k in keys):
            raise ValueError(f"its binding is not a JSON object with integer {keys}")
        self.path, self.cols, self.binding = path, cols, binding

    def blocks(self, rows_per_block):
        """The payload in blocks of ``rows_per_block`` rows, read into one
        reused buffer, and its CRC-32 in ``read_crc`` once all is read."""
        self.read_crc, crc = None, 0
        buffer = np.empty((rows_per_block, self.cols))
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            for start in range(0, self.rows, rows_per_block):
                block = buffer[:min(rows_per_block, self.rows - start)]
                if fh.readinto(block) != block.nbytes:
                    return  # shortened since it was opened: not intact
                crc = zlib.crc32(block, crc)
                yield block
        self.read_crc = crc

    def intact(self, blocks):
        """Whether the payload that ``blocks`` of :meth:`blocks` reads, to its
        end, has the bound CRC-32."""
        for _ in blocks:
            pass
        return self.read_crc == self.binding["payload_crc32"]


@functools.cache
def _code_crc32():
    """The CRC-32 of the modules that read the snapshots, evaluate the
    dictionary and factor it: koopid's own part of what fixes R's bits."""
    crc = 0
    for module in (numerics, dict_mod, sys.modules[__name__]):
        with open(module.__file__, "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return crc


def _factor_build():
    """What fixes the bits of a factor besides the CSV and the dictionary: the
    leaf kernel, numpy's version, the BLAS's description of itself and
    :func:`_code_crc32`; None where the factor runs at the BLAS's own thread
    count, on which its last bits depend."""
    if numerics._thread_setter() is None:
        return None
    return {"kernel": "dgeqrf" if numerics._dgeqrt() is None else "dgeqrt",
            "numpy": np.__version__, "blas": numerics._blas_identity(),
            "code_crc32": _code_crc32()}


class SnapshotStream:
    """A snapshot CSV written by :func:`write_snapshot_csv` (or any file with
    the same header layout), read as a stream of row blocks.

    Opening it checks the header, reads the CSV's byte count and CRC-32
    (``checksum``), which both derived files bind, and decides whether the
    binary twin ``<stem>.snapshots.npy`` is bound to the CSV as opened (see
    :meth:`_bound`).  :meth:`scan` then reads the twin, or parses the CSV, one
    block of rows at a time, so no more than one block of the snapshots is held.
    """

    def __init__(self, path):
        self.path = pathlib.Path(path)
        with self._reading(), open(self.path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header is None:
            raise InvalidInput(f"{self.path}: empty snapshot file")
        self._names = [h.strip() for h in header]
        n = sum(1 for h in self._names if h.startswith("x_"))
        if n == 0 or self._names != [f"{c}_{i+1}" for c in "xy" for i in range(n)]:
            raise InvalidInput(f"{self.path}: header must be x_1..x_n,y_1..y_n")
        self.state_dim = n
        with self._reading():
            self.checksum = _file_checksum(self.path)
        self._twin = self._bound(self.path.with_suffix(TWIN_SUFFIX), "binary twin", 2 * n)
        self._rows = None if self._twin is None else self._twin.rows

    @property
    def count(self):
        """The number of snapshot pairs: the rows of the bound twin, or the
        non-blank lines after the CSV's header, counted on first use; after a
        :meth:`scan`, the rows it read, and after a :meth:`load_factor` that
        finds the factor, the rows the factor file binds to the CSV."""
        if self._rows is None:
            rows, fresh = 0, True  # whether the text read so far ends a line
            with self._reading(), self._open() as fh:
                while chunk := fh.read(_READ_BYTES):  # lines end at \r or \n
                    ends = np.frombuffer(chunk.replace("\r", "\n").encode(), "u1") == 10
                    rows += np.count_nonzero(ends[:-1] > ends[1:]) + (fresh > ends[0])
                    fresh = ends[-1]
            self._rows = int(rows)
        return self._rows

    def scan(self, consume):
        """``consume(blocks)``, where ``blocks`` yields the snapshots in order
        as ``(X, Y)`` row blocks, each valid until the next is drawn.

        Each block is checked once: a non-finite value, or a CSV line that is
        not 2n numbers, is invalid input naming its data row and column, or
        its line.  From a bound twin, the payload's CRC-32 is accumulated
        across the blocks and checked before ``consume``'s result or error
        is let through; when it does not match, that is logged at WARNING
        and ``consume`` runs again on the parsed CSV.
        """
        rows_per_block = max(1, _READ_BYTES // (16 * self.state_dim))
        with self._reading():
            twin = self._twin
            if twin is not None:
                blocks = twin.blocks(rows_per_block)
                try:
                    result = consume(self._pairs(blocks))
                except KoopidError:
                    if twin.intact(blocks):
                        raise
                else:
                    if twin.intact(blocks):
                        return result
                logger.warning("ignoring binary twin %s: not the array bound to %s",
                               twin.path, self.path)
                self._twin = None
            return consume(self._pairs(self._parsed(rows_per_block)))

    def save_factor(self, path, factor, dictionary):
        """Save the factor a :meth:`scan` gave for ``dictionary`` as ``[RX, RY]``
        bound (see :func:`_save_bound`) to the CSV, the ``count``, the
        ``dictionary`` and the ``build`` of :func:`_factor_build`, if any."""
        build = _factor_build()
        if build is not None:
            _save_bound(path, np.hstack([factor.RX, factor.RY]), self.checksum,
                        "write factor file", count=self.count,
                        dictionary=dictionary.descriptor(), build=build)

    def load_factor(self, path, dictionary):
        """The factor :meth:`save_factor` wrote to ``path`` if it is bound to
        this CSV as opened, to ``dictionary`` and to this build, else None
        (see :meth:`_bound`).  The count must be a positive integer, equal to
        a bound twin's rows, and R must have min(count, 2 N_d) rows."""
        build = _factor_build()
        if build is None:
            return None
        n_d = dictionary.size

        def check(bound):
            count = bound.binding.get("count")
            if type(count) is not int or count < 1:
                raise ValueError(f"its count {count!r} is not a positive integer")
            # a bound twin has counted the rows already
            for key, value in (("build", build), ("dictionary", dictionary.descriptor()),
                               ("count", self._rows or count)):
                if bound.binding.get(key) != value:
                    raise ValueError(f"its {key} differs")
            blocks = bound.blocks(bound.rows)  # R is one block, as a scan leaves it
            R = next(blocks, None) if bound.rows == min(count, 2 * n_d) else None
            if R is None or not bound.intact(blocks):
                raise ValueError(f"not the array bound to {self.path}")
            return count, R

        loaded = self._bound(path, "factor file", 2 * n_d, check)
        if loaded is None:
            return None
        self._rows, R = loaded
        return numerics.SnapshotFactor(R[:, :n_d], R[:, n_d:])

    def _bound(self, path, what, cols, check=lambda bound: bound):
        """``check(bound)`` of the :class:`_BoundFile` of ``cols`` columns at
        ``path``, logged as a ``what``, if it is bound to this CSV as opened,
        else None.  The CSV's checksum is compared last, after ``check``,
        which raises ValueError naming what differs.  A path that is not a
        regular file is not opened.  A missing file or a changed CSV is logged
        at INFO, all else at WARNING, and the caller reads the data instead."""
        try:
            if is_stream(path):  # opening a FIFO blocks until it has a writer
                raise ValueError("not a regular file")
            bound = _BoundFile(path, cols)
            value = check(bound)
            if (bound.binding["csv_bytes"], bound.binding["csv_crc32"]) == self.checksum:
                return value
            logger.info("%s changed after its %s %s was written; reading its data",
                        self.path, what, path)
        except FileNotFoundError:
            logger.info("%s %s is missing; reading the data of %s", what, path, self.path)
        except Exception as exc:  # the file is a cache: no failure to read it is fatal
            logger.warning("ignoring %s %s: %s", what, path, exc)
        return None

    def _reading(self):
        """The rule for a failed read of the snapshot file or its twin."""
        return artifact_io("read snapshot file", self.path)

    def _open(self):
        """The CSV opened as text after its header line."""
        fh = open(self.path, newline="")
        next(csv.reader(fh), None)
        return fh

    def _pairs(self, blocks):
        """The ``(X, Y)`` halves of each row block, once it is checked to be
        finite; the rows read become the count."""
        n, rows = self.state_dim, 0
        for block in blocks:
            if not np.isfinite(block).all():
                row, col = np.argwhere(~np.isfinite(block))[0]
                raise InvalidInput(f"{self.path}: data row {rows + row + 1}, column "
                                   f"{self._names[col]} is {float(block[row, col])}, "
                                   "not a finite number")
            yield block[:, :n], block[:, n:]
            rows += len(block)
        if rows == 0:
            raise InvalidInput(f"{self.path}: expected nonempty rows of {2*n} values")
        self._rows = rows

    def _parsed(self, rows_per_block):
        """The CSV body, parsed by repeated ``np.loadtxt`` calls on one
        handle, ``rows_per_block`` rows each (blank lines are skipped)."""
        start = 0
        with self._open() as fh:
            while True:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # no rows left is not an error
                    try:
                        block = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                           quotechar='"', max_rows=rows_per_block)
                    except ValueError:  # a non-numeric entry or a ragged row
                        block = None
                if block is not None and len(block) == 0:
                    return
                if block is None or block.shape[1] != 2 * self.state_dim:
                    raise self._bad_line(start)
                yield block
                start += len(block)
                if len(block) < rows_per_block:
                    return

    def _bad_line(self, start):
        """InvalidInput naming the first line, from data row ``start`` on,
        that is not 2n comma-separated numbers."""
        cols, rows = 2 * self.state_dim, 0
        with self._open() as fh:
            for number, line in enumerate(fh, start=2):
                line = line.rstrip("\r\n")
                if not line:
                    continue
                rows += 1
                try:
                    ok = rows <= start or np.loadtxt(
                        [line], delimiter=",", comments=None, ndmin=2,
                        quotechar='"').shape == (1, cols)
                except ValueError:
                    ok = False
                if not ok:
                    return InvalidInput(f"{self.path}: line {number} is not {cols} "
                                        f"comma-separated numbers: {line!r}")
        return InvalidInput(f"{self.path}: the rows from data row {start + 1} on "
                            f"are not {cols} comma-separated numbers")


def read_snapshot_csv(path):
    """Read a snapshot CSV into memory: the blocks of :meth:`SnapshotStream.scan`
    with the provenance bound in its twin, if the scan read them from it."""
    stream = SnapshotStream(path)
    X, Y = np.hsplit(stream.scan(lambda blocks: np.concatenate([np.hstack(b) for b in blocks])), 2)
    bound = {} if stream._twin is None else stream._twin.binding.get("provenance")
    provenance = {"system": "ingested", "path": str(stream.path),
                  **(bound if isinstance(bound, dict) else {})}
    return SnapshotSet(X=X, Y=Y, provenance=provenance)
