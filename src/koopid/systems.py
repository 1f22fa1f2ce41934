"""Snapshot-pair generation for built-in dynamical systems.

Snapshots are pairs (x_i, y_i) with y_i the image of x_i under one step of
the map: directly for discrete linear systems, via classical fixed-step RK4
over one sampling interval for continuous vector fields.  Initial conditions
are drawn uniformly from a box with the PCG64 generator, so a (spec, N) pair
reproduces bit-identical data on any platform.
"""

import csv
import json
import logging
import pathlib
import warnings
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
    (plain fields, CRLF line endings), each value in 17 significant digits.

    Each chunk of rows is formatted by one ``%`` over a template repeated
    once per row, so the Python objects made are the chunk's floats only."""
    path = pathlib.Path(path)
    row = ",".join(["%.17g"] * data.shape[1]) + "\r\n"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, len(data), 65536):
                chunk = data[start:start + 65536]
                fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
    except OSError as exc:
        raise ArtifactIOError(f"cannot write CSV file: {exc}") from exc
    return path


def write_snapshot_csv(snapshots, path, provenance_path=None):
    """Write snapshots as CSV with header x_1..x_n,y_1..y_n.

    Values are printed with 17 significant digits so parsing them back
    reproduces the exact IEEE-754 doubles.  A provenance JSON sidecar is
    written next to the CSV (or at ``provenance_path``).
    """
    n = snapshots.state_dim
    header = [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(n)]
    path = _write_csv(path, header, np.hstack([snapshots.X, snapshots.Y]))
    if provenance_path is None:
        provenance_path = path.with_suffix(".provenance.json")
    try:
        with open(provenance_path, "w") as fh:
            json.dump(snapshots.provenance, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ArtifactIOError(f"cannot write provenance file: {exc}") from exc
    return path


def read_snapshot_csv(path):
    """Read a snapshot CSV produced by :func:`write_snapshot_csv` (or any file
    with the same header layout)."""
    path = pathlib.Path(path)
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise InvalidInput(f"{path}: empty snapshot file")
            names = [h.strip() for h in header]
            n = sum(1 for h in names if h.startswith("x_"))
            if n == 0 or names != [f"{c}_{i+1}" for c in "xy" for i in range(n)]:
                raise InvalidInput(f"{path}: header must be x_1..x_n,y_1..y_n")
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
    prov = {"system": "ingested", "path": str(path)}
    sidecar = path.with_suffix(".provenance.json")
    if sidecar.exists():
        try:
            with open(sidecar) as fh:
                prov.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            # provenance is advisory; a broken sidecar never blocks ingestion
            logger.warning("ignoring unreadable provenance sidecar %s: %s", sidecar, exc)
    return SnapshotSet(X=data[:, :n], Y=data[:, n:], provenance=prov)
