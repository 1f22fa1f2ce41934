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
import dataclasses
import json
import math
import pathlib
import sys

import numpy as np

from . import dictionary as dict_mod
from . import edmd, numerics, systems
from .ssd import (
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


def _parse_floats(text, name):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse {name} {text!r}: {exc}") from exc


def _parse_box(text, expected_dim=None):
    values = _parse_floats(text, "--box")
    if len(values) % 2 != 0 or not values:
        raise InvalidInput("--box needs an even number of values: lo1,hi1,lo2,hi2,...")
    box = [(values[i], values[i + 1]) for i in range(0, len(values), 2)]
    if expected_dim is not None and len(box) != expected_dim:
        raise InvalidInput(f"--box must describe {expected_dim} dimensions")
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
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ArtifactIOError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"config file is not valid JSON: {exc}") from exc
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

    ver = sub.add_parser("verify", parents=[common],
                         help="re-check a stored result against snapshot data")
    ver.add_argument("result", help="result JSON written by identify")
    ver.add_argument("snapshots", help="snapshot CSV the result was computed from")
    return parser, sub.choices


def cmd_generate(args):
    if args.system is None or args.n is None or args.box is None:
        raise InvalidInput("generate requires --system, --n and --box")
    box = _parse_box(args.box)
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
    try:
        with open(args.dict_file) as fh:
            descriptor = json.load(fh)
    except OSError as exc:
        raise ArtifactIOError(f"cannot read dictionary file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"dictionary file is not valid JSON: {exc}") from exc
    dictionary = dict_mod.dictionary_from_descriptor(descriptor)
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
    return {
        "mode": result.mode,
        "epsilon": result.epsilon,
        "iterations": result.iterations,
        "subspace_dim": result.subspace_dim,
        "C": _json_matrix(result.C),
        "max_range_angle": result.max_range_angle,
        "log": [dataclasses.asdict(it) for it in result.log],
    }


def _select_grid_evolutions(evolutions, selector):
    if selector.strip().lower() == "all":
        return list(range(len(evolutions)))
    chosen = []
    for token in selector.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            target = complex(token)
        except ValueError as exc:
            raise InvalidInput(f"cannot parse eigenvalue {token!r}") from exc
        hits = [i for i, ev in enumerate(evolutions)
                if abs(ev.eigenvalue - target) <= 1e-6 * (1.0 + abs(target))]
        if not hits:
            raise InvalidInput(f"no identified evolution has eigenvalue near {token}")
        chosen.extend(h for h in hits if h not in chosen)
    return chosen


def _edmd_residual(factor, tol):
    """e_r of the forward EDMD matrix, the fit an fb-edmd result stores."""
    return edmd.relative_residual(factor.RX, factor.RY,
                                  edmd.edmd_matrix(factor, None, tol).matrix)


def cmd_identify(args):
    if args.snapshots is None or args.method is None:
        raise InvalidInput("identify requires --snapshots and --method")
    snapshots = systems.read_snapshot_csv(args.snapshots)
    dictionary = _load_dictionary(args, snapshots)
    tol = ToleranceConfig(rank_rtol=args.rank_rtol, eig_match_atol=args.eig_atol,
                          subspace_atol=args.subspace_atol)
    if args.method == "ssd-approx" and args.eps is None:
        raise InvalidInput("--method ssd-approx requires --eps")
    if args.method != "ssd-approx" and args.eps is not None:
        raise InvalidInput("--eps is only valid with --method ssd-approx")

    # every step below works on the R-factor blocks of [D(X), D(Y)]
    factor = dict_mod.evaluate_factor(dictionary, snapshots.X, snapshots.Y)

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
        evolutions = edmd.forward_backward_eigenpairs(factor, None, tol)
        result["e_r"] = _edmd_residual(factor, tol)
    else:
        if args.method == "ssd":
            decomposition = ssd(factor, None, tol)
        else:
            decomposition = approximate_ssd(factor, None, args.eps, tol)
        result["ssd"] = _ssd_dict(decomposition)
        evolutions = []
        if not decomposition.is_zero:
            reduced = reduced_koopman(factor, None, decomposition, tol,
                                      dictionary=dictionary)
            result["reduced_koopman"] = _json_matrix(reduced.matrix)
            result["e_r"] = reduced.e_r
            evolutions = lift_eigenvectors(factor, None, decomposition, reduced, tol)
    result["evolutions"] = [_evolution_dict(ev) for ev in evolutions]

    out_path = pathlib.Path(args.out)
    if args.grid_box is not None and evolutions:
        grid_box = _parse_box(args.grid_box, expected_dim=snapshots.state_dim)
        grid_dir = pathlib.Path(args.out_dir) if args.out_dir else out_path.parent
        try:
            grid_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ArtifactIOError(f"cannot create grid directory: {exc}") from exc
        for idx in _select_grid_evolutions(evolutions, args.grid_eigenvalues):
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

    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ArtifactIOError(f"cannot write result file: {exc}") from exc
    print(f"identified {len(evolutions)} linear evolution(s); wrote {out_path}")
    return EXIT_OK


def _finite(value, field):
    """A stored number that bounds a check, as a float; an infinite one
    would pass the check whatever the data, so a non-finite one is
    rejected."""
    bound = float(value)
    if not math.isfinite(bound):
        raise InvalidInput(f"result field {field!r} is {bound}, not a finite number")
    return bound


def _parse_result(stored):
    """The claims of a result artifact that ``verify`` re-checks.

    Every stored field ``verify`` reads is parsed here, under one check: a
    missing or malformed field raises InvalidInput (exit 2), so only a
    failed check can end in exit 1.  Returns ``(dictionary, tol,
    evolutions, ssd_claim, e_r_claim)``: the evolutions as ``(eigenvalue,
    coefficients, data_defect)`` triples, ``ssd_claim`` as ``(C, exact,
    max_range_angle)`` or None when the artifact stores no C, and
    ``e_r_claim`` as ``(e_r, K)`` or None, where K is the stored reduced
    Koopman matrix, or None for the forward EDMD matrix of an fb-edmd result.
    """
    try:
        dictionary = dict_mod.dictionary_from_descriptor(stored["dictionary"])
        tolerances = stored["tolerances"]
        tol = ToleranceConfig(rank_rtol=float(tolerances["rank_rtol"]),
                              eig_match_atol=float(tolerances["eig_match_atol"]),
                              subspace_atol=float(tolerances["subspace_atol"]))
        entries = stored.get("evolutions", [])
        if not isinstance(entries, list):
            raise InvalidInput("result field 'evolutions' must be a list")
        evolutions = []
        for entry in entries:
            v = (np.array(entry["coefficients_re"], dtype=float)
                 + 1j * np.array(entry["coefficients_im"], dtype=float))
            if v.shape != (dictionary.size,):
                raise InvalidInput("stored coefficients do not match the dictionary size")
            evolutions.append((complex(float(entry["lambda_re"]), float(entry["lambda_im"])),
                               v, _finite(entry["data_defect"], "data_defect")))
        ssd_block = stored.get("ssd") or {}
        if not isinstance(ssd_block, dict):
            raise InvalidInput("result field 'ssd' must be an object or null")
        e_r = None if stored.get("e_r") is None else _finite(stored["e_r"], "e_r")
        ssd_claim = e_r_claim = None
        if e_r is not None and stored.get("method") == "fb-edmd":
            e_r_claim = (e_r, None)
        if ssd_block.get("C") is not None:
            C = np.array(ssd_block["C"], dtype=float)
            if C.ndim != 2 or C.shape[0] != dictionary.size:
                raise InvalidInput("stored C does not match the dictionary size")
            if ssd_block["mode"] not in ("exact", "approximate"):
                raise InvalidInput(f"unknown stored ssd mode {ssd_block['mode']!r}")
            if e_r is not None and stored.get("reduced_koopman") is not None:
                e_r_claim = (e_r, np.array(stored["reduced_koopman"], dtype=float))
            ssd_claim = (C, ssd_block["mode"] == "exact",
                         _finite(ssd_block.get("max_range_angle") or 0.0,
                                 "ssd.max_range_angle"))
    except KeyError as exc:
        raise InvalidInput(f"result file is missing the field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"result file has a malformed field: {exc}") from exc
    return dictionary, tol, evolutions, ssd_claim, e_r_claim


def cmd_verify(args):
    try:
        with open(args.result) as fh:
            stored = json.load(fh)
    except OSError as exc:
        raise ArtifactIOError(f"cannot read result file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"result file is not valid JSON: {exc}") from exc
    dictionary, tol, evolutions, ssd_claim, e_r_claim = _parse_result(stored)

    snapshots = systems.read_snapshot_csv(args.snapshots)
    if dictionary.state_dim != snapshots.state_dim:
        raise InvalidInput("result dictionary does not match the snapshot state dim")

    factor = dict_mod.evaluate_factor(dictionary, snapshots.X, snapshots.Y)

    checks = []

    worst = 0.0
    all_ok = True
    for lam, v, stored_defect in evolutions:
        _, defect = edmd.check_linear_evolution(factor.RX, factor.RY, v, lam, tol)
        bound = max(tol.eig_match_atol, 2.0 * stored_defect + 1e-15)
        worst = max(worst, defect)
        all_ok = all_ok and defect <= bound
    if evolutions:
        checks.append((f"data defects ({len(evolutions)} evolutions, worst {worst:.3e})",
                       all_ok))

    if ssd_claim is not None:
        C, exact, stored_angle = ssd_claim
        full_rank = numerics.numerical_rank(C, tol) == C.shape[1]
        checks.append(("C has full column rank", full_rank))
        XC, YC = factor.RX @ C, factor.RY @ C
        angles = numerics.principal_angles(XC, YC, tol)
        max_angle = float(angles.max()) if angles.size else 0.0
        if exact:
            checks.append((
                f"range equality of DX@C and DY@C (max angle {max_angle:.3e})",
                numerics.subspace_equal(XC, YC, tol),
            ))
        else:
            checks.append((
                f"range angles consistent with artifact (max angle {max_angle:.3e})",
                max_angle <= 2.0 * stored_angle + 1e-9,
            ))
    if e_r_claim is not None:
        stored_er, K = e_r_claim
        if K is None:
            label, e_r = "EDMD residual", _edmd_residual(factor, tol)
        else:
            label, e_r = "reduced residual", edmd.relative_residual(XC, YC, K)
        checks.append((
            f"{label} e_r reproducible ({e_r:.3e} vs stored {stored_er:.3e})",
            abs(e_r - stored_er) <= 1e-9 * (1.0 + stored_er),
        ))

    if not checks:
        checks.append(("artifact contains no checkable claims", False))

    failed = 0
    for name, ok in checks:
        print(f"verify: {name}: {'pass' if ok else 'FAIL'}")
        failed += 0 if ok else 1
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
        if args.config is not None:
            # config values become the subcommand's defaults, so the flags
            # of a second parse win over them
            command_parser = commands[args.command]
            command_parser.set_defaults(**_config_defaults(args.config, command_parser))
            args = parser.parse_args(argv)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "identify":
            return cmd_identify(args)
        return cmd_verify(args)
    except KoopidError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
