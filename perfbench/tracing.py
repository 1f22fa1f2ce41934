"""Traced in-process replay of the koopid CLI commands.

Every public function listed in ``TRACED`` is wrapped with a span recorder.
The wrapper is installed on the defining module and on every other binding
of the same function inside the package, so calls through ``from``-imports
(``cli`` imports ``approximate_ssd``, ``ssd`` imports ``edmd_matrix``, ...)
are recorded as well.  Spans stay in memory and are summarised per command
once it returns:

``<command>.<module>.<function>.s``       time inside the function
``<command>.<module>.<function>.self_s``  that time minus its child spans
``<command>.<module>.<function>.calls``   number of calls

plus exact counts of the work done (see ``summarize``).  Import this module
only after the BLAS thread count is set in the environment and ``src`` is on
``sys.path``.
"""

import contextlib
import importlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import koopid.cli

TRACED = {
    "systems": ("generate", "write_snapshot_csv", "read_snapshot_csv"),
    "dictionary": ("evaluate", "restrict"),
    "numerics": ("numerical_rank", "null_space_basis", "pseudo_inverse", "eig",
                 "principal_angles", "subspace_equal"),
    "edmd": ("edmd_matrix", "relative_residual", "check_linear_evolution",
             "forward_backward_eigenpairs"),
    "ssd": ("ssd", "approximate_ssd", "reduced_koopman", "lift_eigenvectors"),
    # main is the root span of every command; its self time is argv handling
    "cli": ("main", "cmd_generate", "cmd_identify", "cmd_verify"),
}

# Calls into these modules whose first (matrix) argument has one row per
# snapshot are passes over the full data.
FULL_ROW_MODULES = ("numerics", "edmd")

# Counts that must repeat exactly between two traced passes on one seed.
EXACT_SUFFIXES = (".calls", ".csv_bytes", ".out_bytes", ".full_rows_calls",
                  ".iterations", ".subspace_dim", ".evolutions")


class Span:
    __slots__ = ("name", "parent", "start", "end", "full_rows", "out_shape")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.full_rows = False
        self.out_shape = None


class Recorder:
    """Collects spans of the wrapped functions; one recorder per command."""

    def __init__(self, rows):
        self.rows = rows
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        counts_rows = name.split(".")[0] in FULL_ROW_MODULES

        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            if counts_rows and args:
                shape = getattr(args[0], "shape", ())
                span.full_rows = len(shape) == 2 and shape[0] == self.rows
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.out_shape = getattr(result, "shape", None)
            return result

        return traced


@contextlib.contextmanager
def installed(recorder):
    """Replace every binding of a traced function inside koopid, then restore."""
    wrappers = {}
    for module, names in TRACED.items():
        mod = importlib.import_module(f"koopid.{module}")
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, recorder.wrap(f"{module}.{name}", fn))
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "koopid" and not mod_name.startswith("koopid."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def summarize(command, spans):
    """Per-function time, self time and calls, plus the command's counts.

    ``dictionary.out_bytes`` is computed as rows x functions x 8 over the
    ``evaluate`` results.  Returns (values, wall time of the root spans,
    sum of all self times).
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.end - span.start
    values = defaultdict(int)
    self_total = 0.0
    for span in spans:
        key = f"{command}.{span.name}"
        duration = span.end - span.start
        self_time = duration - child_time[id(span)]
        self_total += self_time
        values[key + ".s"] += duration
        values[key + ".self_s"] += self_time
        values[key + ".calls"] += 1
        if span.name == "dictionary.evaluate" and span.out_shape is not None:
            values[f"{command}.dictionary.out_bytes"] += int(np.prod(span.out_shape)) * 8
        values[f"{command}.numerics.full_rows_calls"] += span.full_rows
    roots = [span for span in spans if span.parent is None]
    wall = sum(span.end - span.start for span in roots)
    return dict(values), wall, self_total


def span_records(spans):
    """Spans as JSON-ready records; parents are indices into the list."""
    index = {id(span): i for i, span in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    return [{"name": s.name,
             "parent": None if s.parent is None else index[id(s.parent)],
             "start": s.start - t0, "end": s.end - t0} for s in spans]


def warm_up_blas():
    """Pay OpenBLAS's first-call (thread start-up) cost before timing."""
    rng = np.random.default_rng(0)
    tall = rng.standard_normal((20_000, 36))
    np.linalg.svd(tall, full_matrices=False)
    np.linalg.pinv(tall)
    square = tall.T @ tall
    np.linalg.eig(square)
    big = rng.standard_normal((512, 512))
    big @ big


def call_cli(argv):
    """Run one CLI command in this process; returns (exit code, wall s, detail)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = koopid.cli.main(list(argv))
    except Exception as exc:  # a crash is a failed operation, not an abort
        code, detail = -1, f"{type(exc).__name__}: {exc}"
    else:
        detail = err.getvalue().strip()
    return code, time.perf_counter() - start, detail


def traced_command(ops, command, argv, rows, values, spans_out):
    """Run one traced command and merge its summary into ``values``."""
    recorder = Recorder(rows)
    with installed(recorder):
        code, _, detail = call_cli(argv)
    ops.record(f"koopid {command} (traced)", code == 0, f"exit={code} {detail}")
    summary, wall, self_total = summarize(command, recorder.spans)
    ops.record(f"{command}: self times add up to traced wall time",
               abs(self_total - wall) <= 1e-9 * max(wall, 1.0),
               f"self sum={self_total!r} wall={wall!r}")
    values.update(summary)
    spans_out[command] = span_records(recorder.spans)
    return code


def traced_passes(gen, ident, ver, rows, paths, ops, seconds, min_passes,
                  deadline, check_pass):
    """Repeat traced passes until ``seconds`` are used (at least min_passes).

    A pass is: traced generate; untraced identify (the reference for the
    tracing overhead and for byte identity); traced identify; traced verify;
    then ``check_pass(verify exit code)`` runs the output checks.  Returns
    (metric values, report).  Times are medians over the passes; exact
    counts must agree between all passes.
    """
    warm_up_blas()
    passes, spans, untraced = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        values, pass_spans = {}, {}
        traced_command(ops, "generate", gen, rows, values, pass_spans)
        values["generate.systems.csv_bytes"] = paths["csv"].stat().st_size
        code, wall, detail = call_cli(ident + ["--out", str(paths["reference_result"])])
        if ops.record("koopid identify (untraced)", code == 0, f"exit={code} {detail}"):
            untraced.append(wall)
        traced_command(ops, "identify", ident + ["--out", str(paths["result"])],
                       rows, values, pass_spans)
        verify_code = traced_command(ops, "verify", ver, rows, values, pass_spans)
        _record_result_counts(ops, paths["result"], values)
        check_pass(verify_code)
        passes.append(values)
        spans.append(pass_spans)
        last = time.perf_counter() - began
        used = time.perf_counter() - start
        if len(passes) >= min_passes and used + last > seconds:
            break
        if deadline.remaining() < 2 * last:
            ops.record(f"{min_passes} passes before the deadline",
                       len(passes) >= min_passes, f"passes={len(passes)}")
            break
    merged = _merge(ops, passes)
    if untraced and "identify.cli.main.s" in merged:
        merged["identify.untraced_s"] = statistics.median(untraced)
        merged["identify.trace_overhead_s"] = (merged["identify.cli.main.s"]
                                               - merged["identify.untraced_s"])
    return merged, {"passes": passes, "untraced_identify_s": untraced,
                    "spans": spans}


def _record_result_counts(ops, result_path, values):
    """Counts read from the identify result.  With lifting, one data-defect
    check per lifted mode shows that the ``from``-import bindings in ``ssd``
    were wrapped."""
    def counts():
        result = json.loads(result_path.read_text())
        block = result["ssd"] or {}
        values["identify.ssd.iterations"] = block.get("iterations", 0)
        values["identify.ssd.subspace_dim"] = block.get("subspace_dim", 0)
        values["identify.evolutions"] = len(result["evolutions"])
        return True, ""

    if ops.check("identify result is readable", counts) \
            and values["identify.ssd.subspace_dim"]:
        calls = values.get("identify.edmd.check_linear_evolution.calls", 0)
        modes = values["identify.evolutions"]
        ops.record("one data-defect check per lifted mode", calls == modes,
                   f"check_linear_evolution calls={calls} lifted modes={modes}")


def _merge(ops, passes):
    """Median of every time over the passes; exact counts must repeat."""
    keys = sorted(set().union(*passes))
    merged = {}
    for key in keys:
        samples = [p.get(key, 0) for p in passes]
        if key.endswith(EXACT_SUFFIXES):
            ops.record(f"{key} repeats exactly", len(set(samples)) == 1,
                       f"values={samples}")
            merged[key] = samples[0]
        else:
            merged[key] = statistics.median(samples)
    return merged
