"""Snapshot-pair generation for built-in dynamical systems.

Snapshots are pairs (x_i, y_i) with y_i the image of x_i under one step of
the map: directly for discrete linear systems, via classical fixed-step RK4
over one sampling interval for continuous vector fields.  Initial conditions
are drawn uniformly from a box with the PCG64 generator, so a (spec, N) pair
reproduces bit-identical data on any platform.
A snapshot CSV written here gets a checksum-bound binary twin that
:func:`read_snapshot_csv` loads in place of parsing the text.
"""

import csv
import json
import logging
import pathlib
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ArtifactIOError, EvaluationOverflow, InvalidInput

__all__ = [
    "SystemSpec",
    "SnapshotSet",
    "VECTOR_FIELDS",
    "sample_uniform",
    "step",
    "generate",
    "write_snapshot_csv",
    "read_snapshot_csv",
]

logger = logging.getLogger(__name__)

PRNG_NAME = "PCG64"

#: Suffix of the binary twin written next to each snapshot CSV, and the
#: provenance key that binds the twin to the CSV.
TWIN_SUFFIX = ".snapshots.npy"
TWIN_KEY = "binary_twin"


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
            Y = X @ spec.map_matrix.T
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


def _write_csv(path, header, data):
    """Write a header and the rows of a float matrix as csv.writer would
    (plain fields, CRLF line endings), each value in 17 significant digits,
    and return the byte count and the CRC-32 of what was written.

    Each chunk of rows is formatted by one ``%`` over a template repeated
    once per row, so the Python objects made are the chunk's floats only."""
    row = ",".join(["%.17g"] * data.shape[1]) + "\r\n"

    def texts():
        yield ",".join(header) + "\r\n"
        for start in range(0, len(data), 65536):
            chunk = data[start:start + 65536]
            yield (row * len(chunk)) % tuple(chunk.ravel().tolist())

    size = crc = 0
    try:
        with open(path, "wb") as fh:
            for text in texts():
                encoded = text.encode()
                fh.write(encoded)
                size += len(encoded)
                crc = zlib.crc32(encoded, crc)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write CSV file: {exc}") from exc
    return size, crc


def write_snapshot_csv(snapshots, path):
    """Write snapshots as CSV with header x_1..x_n,y_1..y_n.

    Values are printed with 17 significant digits so parsing them back
    reproduces the exact IEEE-754 doubles.  The same array is saved with
    ``np.save`` as the binary twin ``<stem>.snapshots.npy``, and a provenance
    JSON sidecar ``<stem>.provenance.json``, written last, records under
    ``binary_twin`` the twin's file name, the CSV's byte count and CRC-32,
    and the CRC-32 of the array buffer.
    """
    path = pathlib.Path(path)
    n = snapshots.state_dim
    header = [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
    data = np.hstack([snapshots.X, snapshots.Y])
    size, crc = _write_csv(path, header, data)
    twin = path.with_suffix(TWIN_SUFFIX)
    try:
        with open(twin, "wb") as fh:
            np.save(fh, data, allow_pickle=False)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write binary snapshot file: {exc}") from exc
    binding = {"file": twin.name, "csv_bytes": size, "csv_crc32": crc,
               "payload_crc32": zlib.crc32(data)}
    try:
        with open(path.with_suffix(".provenance.json"), "w") as fh:
            json.dump({**snapshots.provenance, TWIN_KEY: binding}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ArtifactIOError(f"cannot write provenance file: {exc}") from exc
    return path


def _read_sidecar(path):
    """The provenance sidecar of the CSV at ``path`` as a dict; empty, and
    logged, when it is missing or unreadable."""
    sidecar = path.with_suffix(".provenance.json")
    if not sidecar.exists():
        return {}
    try:
        with open(sidecar) as fh:
            prov = json.load(fh)
        if isinstance(prov, dict):
            return prov
        problem = "not a JSON object"
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        problem = exc
    # provenance is advisory; a broken sidecar never blocks ingestion
    logger.warning("ignoring unreadable provenance sidecar %s: %s", sidecar, problem)
    return {}


def _file_crc32(path):
    crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            crc = zlib.crc32(chunk, crc)
    return crc


def _bound_twin(path, binding, cols):
    """The array of the binary twin that ``binding`` ties to the CSV at
    ``path``, or None when the CSV has to be parsed.

    The twin is used only when the CSV's byte count and CRC-32 equal the
    binding's and the twin loads without unpickling as a finite float64
    array of ``cols`` columns whose buffer has the bound CRC-32.  A changed
    CSV or a deleted twin is logged at INFO, anything else at WARNING.
    """
    try:
        twin = path.with_name(binding["file"])
        size, csv_crc, payload_crc = (int(binding[key]) for key in
                                      ("csv_bytes", "csv_crc32", "payload_crc32"))
    except (TypeError, KeyError, ValueError) as exc:
        logger.warning("ignoring malformed %s binding of %s: %r", TWIN_KEY, path, exc)
        return None
    if path.stat().st_size != size or _file_crc32(path) != csv_crc:
        logger.info("%s changed after its binary twin was written; parsing it", path)
        return None
    try:
        data = np.load(twin, allow_pickle=False)
    except FileNotFoundError:
        logger.info("binary twin %s is missing; parsing %s", twin, path)
        return None
    except Exception as exc:  # the twin is a cache: no failure to load it is fatal
        logger.warning("ignoring unreadable binary twin %s: %r", twin, exc)
        return None
    if not (isinstance(data, np.ndarray) and data.dtype == np.float64
            and data.ndim == 2 and data.shape[1] == cols and data.flags.c_contiguous
            and zlib.crc32(data) == payload_crc and np.isfinite(data).all()):
        logger.warning("ignoring binary twin %s: not the array bound to %s", twin, path)
        return None
    return data


def read_snapshot_csv(path):
    """Read a snapshot CSV produced by :func:`write_snapshot_csv` (or any file
    with the same header layout).

    After the header check, the body is parsed unless the sidecar binds a
    binary twin that still matches the CSV (see :func:`_bound_twin`)."""
    path = pathlib.Path(path)
    prov = {"system": "ingested", "path": str(path)}
    prov.update(_read_sidecar(path))
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise InvalidInput(f"{path}: empty snapshot file")
            names = [h.strip() for h in header]
            n = sum(1 for h in names if h.startswith("x_"))
            if n == 0 or names != [f"{c}_{i+1}" for c in "xy" for i in range(n)]:
                raise InvalidInput(f"{path}: header must be x_1..x_n,y_1..y_n")
            binding = prov.get(TWIN_KEY)
            data = None if binding is None else _bound_twin(path, binding, 2 * n)
            if data is None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # no data rows is checked below
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                      quotechar='"')
    except OSError as exc:
        raise ArtifactIOError(f"cannot read snapshot file: {exc}") from exc
    except ValueError as exc:  # a non-numeric entry or a ragged row
        raise InvalidInput(f"{path}: {exc}") from exc
    if data.shape[1] != 2 * n or data.shape[0] == 0:
        raise InvalidInput(f"{path}: expected nonempty rows of {2*n} values")
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise InvalidInput(f"{path}: data row {row + 1}, column {names[col]} "
                           f"is {float(data[row, col])}, not a finite number")
    return SnapshotSet(X=data[:, :n], Y=data[:, n:], provenance=prov)
