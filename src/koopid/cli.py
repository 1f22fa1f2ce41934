"""Batch command-line front end.

Three non-interactive subcommands cover the whole pipeline: ``generate``
writes snapshot CSVs from the built-in systems, ``identify`` runs the
forward-backward matching or the subspace decomposition on a snapshot file
and writes a JSON result artifact (plus optional eigenfunction grid CSVs),
and ``verify`` re-checks a stored result against its snapshot data.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 rank-assumption violation, 4 I/O error.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import pathlib
import sys
import warnings

import numpy as np

from . import dictionary as dict_mod
from . import edmd, numerics, systems
from .ssd import (
    ReducedKoopman,
    SsdIteration,
    SsdResult,
    approximate_ssd,
    eigenfunction_grid,
    lift_eigenvectors,
    reduced_koopman,
    ssd,
)
from .errors import (
    ArtifactIOError,
    AssumptionViolation,
    EvaluationOverflow,
    InvalidInput,
    KoopidError,
    RankError,
    artifact_io,
)
from .numerics import DEFAULT_TOL, ToleranceConfig

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_ASSUMPTION_VIOLATION = 3
EXIT_IO_ERROR = 4

_ERROR_CODES = (
    (AssumptionViolation, "assumption-violation", EXIT_ASSUMPTION_VIOLATION),
    (ArtifactIOError, "io-error", EXIT_IO_ERROR),
    (EvaluationOverflow, "overflow", EXIT_INVALID_INPUT),
    (RankError, "rank-error", EXIT_INVALID_INPUT),
    (InvalidInput, "invalid-input", EXIT_INVALID_INPUT),
    (KoopidError, "error", EXIT_INVALID_INPUT),
)


def _fail(exc):
    for cls, label, code in _ERROR_CODES:
        if isinstance(exc, cls):
            print(f"error[{label}]: {exc}", file=sys.stderr)
            return code
    raise exc


@contextlib.contextmanager
def _printed_warnings(prefix):
    """Record the warnings the block raises and print each, when the block
    ends, as a line ``<prefix><message>`` of the command's output."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for warning in caught:
                print(f"{prefix}{warning.message}")


def _parse_floats(text, name):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse {name} {text!r}: {exc}") from exc


def _parse_box(text, name, expected_dim=None):
    values = _parse_floats(text, name)
    if len(values) % 2 != 0 or not values:
        raise InvalidInput(f"{name} needs an even number of values: lo1,hi1,lo2,hi2,...")
    box = [(values[i], values[i + 1]) for i in range(0, len(values), 2)]
    if expected_dim is not None and len(box) != expected_dim:
        raise InvalidInput(f"{name} must describe {expected_dim} dimensions")
    return box


def _json_matrix(M):
    return None if M is None else [[float(v) for v in row] for row in np.asarray(M)]


# flags whose values may start with a minus sign (e.g. --box -2,2,-2,2);
# joined into --flag=value form so argparse does not mistake them for options
_NUMERIC_LIST_FLAGS = ("--box", "--A", "--grid-box", "--grid-eigenvalues")


def _join_numeric_list_flags(argv):
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _NUMERIC_LIST_FLAGS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _read_json(path, what):
    try:
        with artifact_io(f"read {what}", path), open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{what} is not valid JSON: {exc}") from exc


def _config_value(key, value, action):
    """A config value converted as argparse converts the flag's text."""
    try:
        if action.type is not None:
            value = action.type(value)
        elif not isinstance(value, str):
            raise TypeError(f"expected a string, got {type(value).__name__}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"config key {key!r}: invalid value {value!r} ({exc})") from exc
    if action.choices is not None and value not in action.choices:
        raise InvalidInput(f"config key {key!r}: {value!r} is not one of "
                           f"{sorted(action.choices)}")
    return value


def _config_defaults(path, command_parser):
    """The option defaults a --config JSON file gives one subcommand, each
    converted as argparse converts its flag's text."""
    config = _read_json(path, "config file")
    if not isinstance(config, dict):
        raise InvalidInput("config file must hold a JSON object")
    actions = {action.dest: action for action in command_parser._actions
               if action.option_strings and action.dest not in ("help", "config")}
    defaults = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise InvalidInput(f"config key {key!r} is not a known option")
        if value is not None:
            defaults[dest] = _config_value(key, value, actions[dest])
    return defaults


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="koopid",
        description="Identify dictionary functions that evolve linearly in "
                    "time from snapshot data.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of option values; flags win over it")
    sub = parser.add_subparsers(dest="command", required=True)

    # required-ness of the main options is validated in the command handlers
    # so that a --config file can supply any of them
    gen = sub.add_parser("generate", parents=[common],
                         help="generate snapshot data from a built-in system")
    gen.add_argument("--system", choices=["linear", "vanderpol"])
    gen.add_argument("--A", help="row-major entries of the linear map, e.g. 0.8,0.5,-0.5,0.8")
    gen.add_argument("--n", type=int, help="number of snapshot pairs")
    gen.add_argument("--box", help="sampling box lo1,hi1,lo2,hi2,...")
    gen.add_argument("--dt", type=float, help="sampling interval for continuous systems")
    gen.add_argument("--substeps", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="snapshots.csv")

    ident = sub.add_parser("identify", parents=[common],
                           help="run fb-edmd or subspace decomposition on snapshots")
    ident.add_argument("--snapshots")
    ident.add_argument("--degree", type=int, help="monomial dictionary of all monomials up to this degree")
    ident.add_argument("--dict-file", help="JSON dictionary descriptor file")
    ident.add_argument("--method", choices=["fb-edmd", "ssd", "ssd-approx"])
    ident.add_argument("--eps", type=float, help="truncation parameter for ssd-approx")
    ident.add_argument("--rank-rtol", type=float, default=DEFAULT_TOL.rank_rtol)
    ident.add_argument("--eig-atol", type=float, default=DEFAULT_TOL.eig_match_atol)
    ident.add_argument("--subspace-atol", type=float, default=DEFAULT_TOL.subspace_atol)
    ident.add_argument("--out", default="result.json")
    ident.add_argument("--grid-box", help="export eigenfunction grids over this box")
    ident.add_argument("--grid-resolution", type=int, default=101)
    ident.add_argument("--grid-eigenvalues", default="all",
                       help="'all' or comma-separated complex values, e.g. 0.8+0.5j")
    ident.add_argument("--out-dir", help="directory for grid CSVs (default: beside --out)")

    ver = sub.add_parser("verify",
                         help="re-check a stored result against snapshot data")
    ver.add_argument("result", help="result JSON written by identify")
    ver.add_argument("snapshots", help="snapshot CSV the result was computed from")
    return parser, sub.choices


def cmd_generate(args):
    if args.system is None or args.n is None or args.box is None:
        raise InvalidInput("generate requires --system, --n and --box")
    box = _parse_box(args.box, "--box")
    if args.n < 1:
        raise InvalidInput("--n must be at least 1")
    if args.system == "linear":
        if args.A is None:
            raise InvalidInput("--system linear requires --A")
        entries = _parse_floats(args.A, "--A")
        n = len(box)
        if len(entries) != n * n:
            raise InvalidInput(f"--A needs {n * n} entries for a {n}-dimensional box")
        A = np.array(entries).reshape(n, n)
        spec = systems.SystemSpec.discrete_linear(A, box, seed=args.seed)
    else:
        if args.dt is None:
            raise InvalidInput(f"--system {args.system} requires --dt")
        spec = systems.SystemSpec.continuous(args.system, args.dt, box,
                                             seed=args.seed, substeps=args.substeps)
    snapshots = systems.generate(spec, args.n)
    path = systems.write_snapshot_csv(snapshots, args.out)
    print(f"wrote {snapshots.count} snapshot pairs to {path}")
    return EXIT_OK


def _load_dictionary(args, snapshots):
    state_dim = snapshots.state_dim
    if (args.degree is None) == (args.dict_file is None):
        raise InvalidInput("exactly one of --degree and --dict-file is required")
    if args.degree is not None:
        if args.degree < 0:
            raise InvalidInput("--degree must be nonnegative")
        # the size is known before the monomials are built, which a huge
        # degree would take without end
        edmd._require_samples(snapshots.count, math.comb(state_dim + args.degree, args.degree))
        return dict_mod.monomials_up_to_degree(state_dim, args.degree)
    dictionary = dict_mod.dictionary_from_descriptor(_read_json(args.dict_file, "dictionary file"))
    if dictionary.state_dim != state_dim:
        raise InvalidInput(
            f"dictionary state dim {dictionary.state_dim} does not match "
            f"snapshot state dim {state_dim}"
        )
    return dictionary


def _evolution_dict(ev):
    return {
        "lambda_re": float(ev.eigenvalue.real),
        "lambda_im": float(ev.eigenvalue.imag),
        "coefficients_re": [float(v) for v in ev.coefficients.real],
        "coefficients_im": [float(v) for v in ev.coefficients.imag],
        "forward_defect": float(ev.forward_defect),
        "backward_defect": float(ev.backward_defect),
        "data_defect": float(ev.data_defect),
    }


def _ssd_dict(result):
    return {**dataclasses.asdict(result), "C": _json_matrix(result.C),
            "subspace_dim": result.subspace_dim}


def _parse_grid_options(args, state_dim):
    """The box and the eigenvalues (None for 'all') of the --grid-* options."""
    box = _parse_box(args.grid_box, "--grid-box", expected_dim=state_dim)
    if args.grid_resolution < 2:
        raise InvalidInput("--grid-resolution must be at least 2")
    if args.grid_eigenvalues.strip().lower() == "all":
        return box, None
    try:
        return box, [complex(t) for t in args.grid_eigenvalues.split(",") if t.strip()]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse --grid-eigenvalues "
                           f"{args.grid_eigenvalues!r}: {exc}") from exc


def _select_grid_evolutions(evolutions, targets):
    if targets is None:
        return list(range(len(evolutions)))
    chosen = []
    for target in targets:
        hits = [i for i, ev in enumerate(evolutions)
                if abs(ev.eigenvalue - target) <= 1e-6 * (1.0 + abs(target))]
        if not hits:
            raise InvalidInput(f"no identified evolution has eigenvalue near {target}")
        chosen.extend(h for h in hits if h not in chosen)
    return chosen


def _edmd_residual(RX, RY, tol):
    """e_r of the forward EDMD matrix, the fit an fb-edmd result stores."""
    return edmd.relative_residual(RX, RY, edmd.edmd_matrix(RX, RY, tol).matrix)


@_printed_warnings("identify: warning: ")
def cmd_identify(args):
    if args.snapshots is None or args.method is None:
        raise InvalidInput("identify requires --snapshots and --method")
    snapshots = systems.SnapshotStream(args.snapshots)
    if args.grid_box is not None:
        grid_box, grid_targets = _parse_grid_options(args, snapshots.state_dim)
    dictionary = _load_dictionary(args, snapshots)
    tol = ToleranceConfig(rank_rtol=args.rank_rtol, eig_match_atol=args.eig_atol,
                          subspace_atol=args.subspace_atol)
    if args.method == "ssd-approx" and args.eps is None:
        raise InvalidInput("--method ssd-approx requires --eps")
    if args.method != "ssd-approx" and args.eps is not None:
        raise InvalidInput("--eps is only valid with --method ssd-approx")

    # every step below works on the R-factor blocks of [D(X), D(Y)]
    factor = snapshots.scan(lambda blocks: dict_mod.evaluate_factor(dictionary, blocks))
    RX, RY = factor.RX, factor.RY

    result = {
        "method": args.method,
        "tolerances": dataclasses.asdict(tol),
        "snapshots": {
            "path": str(args.snapshots),
            "count": snapshots.count,
            "state_dim": snapshots.state_dim,
        },
        "dictionary": dictionary.descriptor(),
        "ssd": None,
        "reduced_koopman": None,
        "e_r": None,
        "evolutions": [],
        "grids": [],
    }

    if args.method == "fb-edmd":
        evolutions = edmd.forward_backward_eigenpairs(RX, RY, tol)
        result["e_r"] = _edmd_residual(RX, RY, tol)
    else:
        if args.method == "ssd":
            decomposition = ssd(RX, RY, tol)
        else:
            decomposition = approximate_ssd(RX, RY, args.eps, tol)
        result["ssd"] = _ssd_dict(decomposition)
        evolutions = []
        if not decomposition.is_zero:
            reduced = reduced_koopman(RX, RY, decomposition, tol)
            result["reduced_koopman"] = _json_matrix(reduced.matrix)
            result["e_r"] = reduced.e_r
            evolutions = lift_eigenvectors(RX, RY, decomposition, reduced, tol)
    result["evolutions"] = [_evolution_dict(ev) for ev in evolutions]

    out_path = pathlib.Path(args.out)
    if args.grid_box is not None and evolutions:
        grid_dir = pathlib.Path(args.out_dir) if args.out_dir else out_path.parent
        with artifact_io("create grid directory"):
            grid_dir.mkdir(parents=True, exist_ok=True)
        for idx in _select_grid_evolutions(evolutions, grid_targets):
            ev = evolutions[idx]
            grid = eigenfunction_grid(dictionary, ev.coefficients, grid_box,
                                          args.grid_resolution)
            grid_path = grid_dir / f"eigenfunction_{idx:03d}.csv"
            systems.write_grid_csv(grid, grid_path)
            result["grids"].append({
                "file": grid_path.name,
                "lambda_re": float(ev.eigenvalue.real),
                "lambda_im": float(ev.eigenvalue.imag),
                "resolution": int(args.grid_resolution),
            })

    with artifact_io("write result file"):
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"identified {len(evolutions)} linear evolution(s); wrote {out_path}")
    return EXIT_OK


def _finite(value, field):
    """A stored number as a float, None for null.  identify writes only
    finite numbers, so a non-finite one is invalid input, not a mismatch."""
    if value is None:
        return None
    number = float(value)
    if not math.isfinite(number):
        raise InvalidInput(f"result field {field!r} is {number}, not a finite number")
    return number


def _parse_result(stored):
    """The stored run as the library's own records: ``(method, shape,
    dictionary, tol, decomposition, reduced, e_r, evolutions)``, where shape
    is the stored snapshot ``(count, state_dim)``, with None for the stages
    the run did not have.

    Every stored field ``verify`` reads is parsed here, under one check: a
    missing or malformed field raises InvalidInput (exit 2), so only a
    failed comparison can end in exit 1.
    """
    try:
        method = stored["method"]
        if method not in ("fb-edmd", "ssd", "ssd-approx"):
            raise InvalidInput(f"unknown stored method {method!r}")
        if not isinstance(stored["snapshots"], dict):
            raise InvalidInput("result field 'snapshots' must be an object")
        shape = (stored["snapshots"]["count"], stored["snapshots"]["state_dim"])
        if any(type(v) is not int for v in shape):
            raise InvalidInput("stored snapshot count and state_dim must be integers")
        dictionary = dict_mod.dictionary_from_descriptor(stored["dictionary"])
        tol = ToleranceConfig(**{f.name: float(stored["tolerances"][f.name])
                                 for f in dataclasses.fields(ToleranceConfig)})
        entries = stored["evolutions"]
        if not isinstance(entries, list):
            raise InvalidInput("result field 'evolutions' must be a list")
        evolutions = [edmd.MatchedEvolution(
            eigenvalue=complex(float(e["lambda_re"]), float(e["lambda_im"])),
            coefficients=(np.array(e["coefficients_re"], dtype=float)
                          + 1j * np.array(e["coefficients_im"], dtype=float)),
            forward_defect=_finite(e["forward_defect"], "forward_defect"),
            backward_defect=_finite(e["backward_defect"], "backward_defect"),
            data_defect=_finite(e["data_defect"], "data_defect")) for e in entries]
        if any(ev.coefficients.shape != (dictionary.size,) for ev in evolutions):
            raise InvalidInput("stored coefficients do not match the dictionary size")
        e_r = _finite(stored["e_r"], "e_r")
        decomposition = reduced = None
        if method == "fb-edmd":
            if stored["ssd"] is not None or stored["reduced_koopman"] is not None:
                raise InvalidInput("an fb-edmd result stores no 'ssd' or 'reduced_koopman'")
        else:
            block = stored["ssd"]
            if not isinstance(block, dict):
                raise InvalidInput("result field 'ssd' must be an object")
            C = None if block["C"] is None else np.array(block["C"], dtype=float)
            if C is not None and (C.ndim != 2 or C.shape[0] != dictionary.size):
                raise InvalidInput("stored C does not match the dictionary size")
            decomposition = SsdResult(
                C=C, iterations=block["iterations"], mode=block["mode"],
                log=tuple(SsdIteration(**it) for it in block["log"]),
                epsilon=_finite(block["epsilon"], "ssd.epsilon"),
                max_range_angle=_finite(block["max_range_angle"], "ssd.max_range_angle"))
            # the reduced stage replays on C and lifting needs the stored
            # matrix, so either one stored without the other is unreplayable
            if (stored["reduced_koopman"] is None, e_r is None) != (C is None,) * 2:
                raise InvalidInput("result fields 'reduced_koopman' and 'e_r' must be "
                                   "stored exactly when 'ssd.C' is")
            if block["subspace_dim"] != decomposition.subspace_dim:
                raise InvalidInput("stored subspace_dim does not match C")
            if C is not None:
                K = np.array(stored["reduced_koopman"], dtype=float)
                if K.shape != (C.shape[1],) * 2:
                    raise InvalidInput("stored reduced_koopman does not match C")
                reduced = ReducedKoopman(matrix=K, e_r=e_r)
    except KeyError as exc:
        raise InvalidInput(f"result file is missing the field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"result file has a malformed field: {exc}") from exc
    return method, shape, dictionary, tol, decomposition, reduced, e_r, evolutions


def _diff(stored, replayed):
    """The largest ``|stored - replayed| / (1 + |replayed|)`` over the fields
    of two records, or of two sequences of them.  A type, length or shape
    mismatch counts as infinite, and so does any difference in a field that
    is not a float (a count, a decision, a label); a NaN stays NaN."""
    if type(stored) is not type(replayed):
        return math.inf
    if dataclasses.is_dataclass(stored):
        stored, replayed = dataclasses.astuple(stored), dataclasses.astuple(replayed)
    if isinstance(stored, (list, tuple)):
        if len(stored) != len(replayed):
            return math.inf
        return float(np.max([_diff(a, b) for a, b in zip(stored, replayed)], initial=0.0))
    if not isinstance(stored, (float, complex, np.ndarray)):
        return 0.0 if stored == replayed else math.inf
    if np.shape(stored) != np.shape(replayed):
        return math.inf
    return float(np.max(np.abs(stored - replayed) / (1.0 + np.abs(replayed)), initial=0.0))


def _span_gap(P, Q, tol):
    """The largest principal angle between the spans of P and Q, infinite
    when it is within ``tol.subspace_atol`` but P and Q are not both of full
    numerical column rank in as many columns, so a stored basis with a
    surplus or dependent column fails against a full-rank replay."""
    angles = numerics.principal_angles(P, Q, tol)
    angle = float(angles.max(initial=0.0))
    # there are min(dim P, dim Q) angles
    full = P.shape[1] == Q.shape[1] == angles.size
    return angle if full or angle > tol.subspace_atol else math.inf


def _evolution_gap(stored, replayed, tol):
    """``_diff`` of the stored and replayed evolutions, in count and in the
    order of ``edmd.sort_evolutions``, into which the stored ones are put
    (an artifact written in another order compares the same), except for
    the coefficients of a repeated eigenvalue: any basis of its eigenspace
    is valid, so they are compared as one span by ``_span_gap``."""
    if len(stored) != len(replayed):
        return math.inf
    stored = edmd.sort_evolutions(stored)
    gaps = []
    for ev, twin in zip(replayed, stored):
        atol = tol.eig_match_atol * (1.0 + abs(ev.eigenvalue))
        cluster = [i for i, other in enumerate(replayed)
                   if abs(other.eigenvalue - ev.eigenvalue) <= atol]
        if len(cluster) > 1:
            gaps.append(_span_gap(*(np.stack([evs[i].coefficients for i in cluster], axis=1)
                                    for evs in (stored, replayed)), tol))
            twin, ev = (dataclasses.replace(e, coefficients=None) for e in (twin, ev))
        gaps.append(_diff(twin, ev))
    return float(np.max(gaps, initial=0.0))


def cmd_verify(args):
    stored = _read_json(args.result, "result file")
    (method, shape, dictionary, tol, decomposition, reduced, e_r,
     evolutions) = _parse_result(stored)

    snapshots = systems.SnapshotStream(args.snapshots)
    if dictionary.state_dim != snapshots.state_dim:
        raise InvalidInput("result dictionary does not match the snapshot state dim")

    factor = snapshots.scan(lambda blocks: dict_mod.evaluate_factor(dictionary, blocks))
    RX, RY = factor.RX, factor.RY

    # each stage of the stored run is replayed on its stored input, and the
    # replay's output must match the stored output; a warning the replay
    # raises becomes a line of the report
    checks = []

    def compare(stage, diff, bound):
        checks.append((f"{stage}: difference {diff:.3e}, bound {bound:.1e}", diff <= bound))

    with _printed_warnings("verify: warning in the replay: "):
        compare(f"stored snapshot count {shape[0]} and state dim {shape[1]} match the data",
                _diff(shape, (snapshots.count, snapshots.state_dim)), 0.0)
        if method == "fb-edmd":
            compare("EDMD residual e_r reproducible",
                    _diff(e_r, _edmd_residual(RX, RY, tol)), 1e-9)
            replayed = edmd.forward_backward_eigenpairs(RX, RY, tol)
        else:
            rerun = (ssd(RX, RY, tol) if method == "ssd"
                     else approximate_ssd(RX, RY, decomposition.epsilon, tol))
            compare("ssd decisions and range angle reproducible",
                    _diff(dataclasses.replace(decomposition, C=None),
                          dataclasses.replace(rerun, C=None)), 1e-9)
            # C spanning the re-run's C, in as many independent columns, makes
            # it complete and maximal
            C, C_rerun = (np.zeros((dictionary.size, 0)) if r.is_zero else r.C
                          for r in (decomposition, rerun))
            compare("C spans the re-run's subspace",
                    _span_gap(RX @ C, RX @ C_rerun, tol), tol.subspace_atol)
            if method == "ssd":
                compare("range equality of DX@C and DY@C",
                        _span_gap(RX @ C, RY @ C, tol), tol.subspace_atol)
            replayed = []
            if reduced is not None:
                compare("reduced Koopman matrix and e_r reproducible",
                        _diff(reduced, reduced_koopman(RX, RY, decomposition, tol)), 1e-9)
                replayed = lift_eigenvectors(RX, RY, decomposition, reduced, tol)
        compare(f"evolutions ({len(evolutions)} stored, {len(replayed)} replayed) with "
                "their forward, backward and data defects",
                _evolution_gap(evolutions, replayed, tol), tol.eig_match_atol)

    for name, ok in checks:
        print(f"verify: {name}: {'pass' if ok else 'FAIL'}")
    failed = sum(not ok for _, ok in checks)
    if failed:
        print(f"verification failed: {failed} of {len(checks)} checks", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"verification passed: {len(checks)} checks")
    return EXIT_OK


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _join_numeric_list_flags(argv)
        parser, commands = _build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # config values become the subcommand's defaults, so the flags
            # of a second parse win over them
            command_parser = commands[args.command]
            command_parser.set_defaults(**_config_defaults(args.config, command_parser))
            args = parser.parse_args(argv)
        # the commands' matrix products are narrow (at most 2N_d columns,
        # the factor's leaves included), where a second BLAS thread does
        # not pay and was seen to stall
        with numerics.one_blas_thread():
            if args.command == "generate":
                return cmd_generate(args)
            if args.command == "identify":
                return cmd_identify(args)
            return cmd_verify(args)
    except KoopidError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
