"""koopid benchmark: the generate -> identify -> verify CLI pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload vdp-approx --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the real CLI as fresh one-shot processes, the way users
run it, and reports the end-to-end metrics.  ``--trace 1`` replays the same
commands in-process with every public function of the pipeline's modules
wrapped by a span recorder (see ``tracing.py``) and reports the per-layer
metrics.  ``--smoke`` shrinks every workload to a tiny snapshot count so the
benchmark's own tests finish in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each CLI call and
each output check is one attempted operation; a non-zero exit, a crash or a
failed check is a failed one.  A longer report with the raw samples, the
environment and every check goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

# One BLAS thread per core, at most two, so the numbers measure koopid and
# not the scheduler; every child process and the traced run use the same.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(NPROC, 2)
CHILD_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
    OMP_NUM_THREADS=str(BLAS_THREADS),
    MKL_NUM_THREADS=str(BLAS_THREADS),
    PYTHONHASHSEED="0",
    PYTHONPATH=str(SRC),
)

# Every run must exit within 180 s; children are killed at this deadline.
RUN_DEADLINE_S = 170.0
# Rounds (traced passes) per run: outputs and exact counts are compared
# between them.
MIN_ROUNDS = 2

# Snapshot count of --smoke runs; at this size (the acceptance suite's) the
# output checks still hold.
SMOKE_N = 10_000

# eigenvalue pair mu, conj(mu) of linear-io's map
MU = complex(0.8, 0.5)

WORKLOADS = {
    # Truncated SSD loop, principal angles and ~25-mode lifting dominate
    # identify; the per-mode data defects dominate verify.
    "vdp-approx": {
        "generate": ["--system", "vanderpol", "--dt", "5e-3", "--box", "-4,4,-4,4"],
        "n": 100_000,
        "identify": ["--degree", "7", "--method", "ssd-approx", "--eps", "1e-4"],
    },
    # Same data through the edmd module (two full-data pseudo-inverses and
    # eigen-matching); no SSD loop, no lifting.
    "vdp-fbedmd": {
        "generate": ["--system", "vanderpol", "--dt", "5e-3", "--box", "-4,4,-4,4"],
        "n": 100_000,
        "identify": ["--degree", "7", "--method", "fb-edmd"],
    },
    # Small dictionary, large N: CSV write and read carry about half of each
    # command, and the exact SSD path runs.
    "linear-io": {
        "generate": ["--system", "linear", "--A", "0.8,0.5,-0.5,0.8",
                     "--box", "-2,2,-2,2"],
        "n": 300_000,
        "identify": ["--degree", "3", "--method", "ssd"],
    },
}


class Ops:
    """Attempted and failed operations, with one entry per operation."""

    def __init__(self):
        self.entries = []

    def record(self, name, ok, detail=""):
        self.entries.append({"op": name, "ok": bool(ok), "detail": str(detail)})
        return ok

    def check(self, name, fn):
        """Run one output check; a check that raises is a failed entry."""
        try:
            ok, detail = fn()
        except Exception as exc:  # recorded, never skipped
            ok, detail = False, f"error: {type(exc).__name__}: {exc}"
        return self.record(name, ok, detail)

    @property
    def attempted(self):
        return len(self.entries)

    @property
    def failed(self):
        return sum(1 for e in self.entries if not e["ok"])


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def remaining(self):
        return self.end - time.perf_counter()


def run_child(argv, deadline, stderr_path):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    The child is killed when the run's deadline passes; it is always reaped.
    """
    timeout = max(deadline.remaining(), 1.0)
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def stderr_tail(path):
    text = pathlib.Path(path).read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def cli_args(workload, seed, n, paths):
    """argv of the three commands for one workload."""
    wl = WORKLOADS[workload]
    gen = ["generate", *wl["generate"], "--n", str(n), "--seed", str(seed),
           "--out", str(paths["csv"])]
    ident = ["identify", "--snapshots", str(paths["csv"]), *wl["identify"]]
    return gen, ident, ["verify", str(paths["result"]), str(paths["csv"])]


def work_paths(workload, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{workload}-{seed}"
    return {
        "csv": stem.with_suffix(".csv"),
        "provenance": stem.with_suffix(".provenance.json"),
        "result": pathlib.Path(f"{stem}.result.json"),
        "reference_csv": pathlib.Path(f"{stem}.reference.csv"),
        "reference_result": pathlib.Path(f"{stem}.reference.result.json"),
        "stderr": pathlib.Path(f"{stem}.stderr.txt"),
    }


def remove_work_files(paths):
    for path in paths.values():
        path.unlink(missing_ok=True)


# ---------------------------------------------------------------- checks

def _eigenvalues(result):
    return [complex(e["lambda_re"], e["lambda_im"]) for e in result["evolutions"]]


def check_vdp_approx(result):
    dim = result["ssd"]["subspace_dim"]
    e_r = result["e_r"]
    return [
        ("subspace_dim in 20..28", 20 <= dim <= 28, f"subspace_dim={dim}"),
        ("e_r < 1e-3", e_r is not None and e_r < 1e-3, f"e_r={e_r}"),
    ]


def check_vdp_fbedmd(result):
    atol = result["tolerances"]["eig_match_atol"]
    lams = _eigenvalues(result)
    defects = [e["data_defect"] for e in result["evolutions"]]
    has_one = any(abs(lam - 1.0) <= atol for lam in lams)
    worst = max(defects, default=float("nan"))
    return [
        ("an evolution with lambda = 1", has_one, f"eigenvalues={lams}"),
        ("every data_defect <= eig_match_atol",
         bool(defects) and worst <= atol, f"worst={worst} atol={atol}"),
    ]


def check_linear_io(result):
    dim = result["ssd"]["subspace_dim"]
    expected = [MU ** a * MU.conjugate() ** b
                for a in range(4) for b in range(4 - a)]
    unmatched = _eigenvalues(result)
    missing = []
    for target in expected:
        hit = next((lam for lam in unmatched if abs(lam - target) <= 1e-8), None)
        if hit is None:
            missing.append(target)
        else:
            unmatched.remove(hit)
    return [
        ("subspace_dim == 10", dim == 10, f"subspace_dim={dim}"),
        ("eigenvalues are mu^a conj(mu)^b, a+b <= 3",
         not missing and not unmatched,
         f"missing={missing} unexpected={unmatched}"),
    ]


WORKLOAD_CHECKS = {
    "vdp-approx": check_vdp_approx,
    "vdp-fbedmd": check_vdp_fbedmd,
    "linear-io": check_linear_io,
}


def check_outputs(ops, workload, result_path, verify_code):
    """verify's exit code and the workload's checks; each is one operation."""
    ops.record("verify exits 0", verify_code == 0, f"exit={verify_code}")
    try:
        checks = WORKLOAD_CHECKS[workload](json.loads(result_path.read_text()))
    except Exception as exc:  # recorded, never skipped
        ops.record(f"{workload} output checks", False,
                   f"error: {type(exc).__name__}: {exc}")
        return
    for name, ok, detail in checks:
        ops.record(name, ok, detail)


def check_identical(ops, name, path, reference):
    ops.check(name, lambda: (path.read_bytes() == reference.read_bytes(), ""))


# ------------------------------------------------------------ environment

PROBE = (
    "import json, platform, numpy, scipy, koopid\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
    " 'blas': blas.get('name'), 'blas_version': blas.get('version'),"
    " 'koopid_file': koopid.__file__}))\n"
)


def environment(workload, seed, n):
    """Versions seen by a fresh child; also its first, untimed import."""
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=CHILD_ENV,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise SystemExit(f"error: cannot import koopid from {SRC}:\n{out.stderr}")
    env = json.loads(out.stdout.strip().splitlines()[-1])
    if not pathlib.Path(env["koopid_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: koopid was imported from {env['koopid_file']}, "
                         f"not from {SRC}")
    env.update(blas_threads=BLAS_THREADS, nproc=NPROC, seed=seed, n=n,
               workload=workload, machine=platform.machine())
    return env


# ----------------------------------------------------------- untraced run

def run_untraced(workload, seed, seconds, n, deadline, ops):
    """Loop the pipeline as fresh processes until ``seconds`` are used up.

    A round times two bare imports (setup_s) interleaved with generate,
    identify and verify.  A new round starts only when the last one fits in
    the time left; there are at least two, because every round after the
    first checks that generate and identify reproduce the first round's
    files byte for byte.
    """
    paths = work_paths(workload, seed)
    gen, ident, ver = cli_args(workload, seed, n, paths)
    setup = ["-c", "import koopid"]
    steps = [("setup", setup),
             ("generate", ["-m", "koopid", *gen]),
             ("identify", ["-m", "koopid", *ident, "--out", str(paths["result"])]),
             ("setup", setup),
             ("verify", ["-m", "koopid", *ver])]
    samples = {k: [] for k in ("setup_s", "generate_s", "identify_s", "verify_s",
                               "identify_peak_rss_mb", "verify_peak_rss_mb")}
    start = time.perf_counter()
    rounds = 0
    try:
        while True:
            began = time.perf_counter()
            verify_code = None
            for name, argv in steps:
                code, wall, rss = run_child(argv, deadline, paths["stderr"])
                label = "import koopid" if name == "setup" else f"koopid {name}"
                ok = ops.record(label, code == 0,
                                f"exit={code} {stderr_tail(paths['stderr'])}")
                if name == "verify":
                    verify_code = code
                if ok:
                    samples[f"{name}_s"].append(wall)
                    if f"{name}_peak_rss_mb" in samples:
                        samples[f"{name}_peak_rss_mb"].append(rss)
            check_outputs(ops, workload, paths["result"], verify_code)
            rounds += 1
            if rounds == 1:
                for key in ("csv", "result"):
                    if paths[key].exists():
                        shutil.copyfile(paths[key], paths[f"reference_{key}"])
            else:
                check_identical(ops, "generate output is byte-identical across runs",
                                paths["csv"], paths["reference_csv"])
                check_identical(ops, "identify output is byte-identical across runs",
                                paths["result"], paths["reference_result"])
            last = time.perf_counter() - began
            used = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and used + last > seconds:
                break
            if deadline.remaining() < 2 * last:
                ops.record(f"{MIN_ROUNDS} rounds before the deadline",
                           rounds >= MIN_ROUNDS, f"rounds={rounds}")
                break
    finally:
        remove_work_files(paths)
    return samples


# ------------------------------------------------------------ traced run

def run_traced(workload, seed, seconds, n, deadline, ops):
    """Replay the commands in-process with span recording; see tracing.py."""
    sys.path.insert(0, str(SRC))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = CHILD_ENV[key]
    import tracing  # noqa: E402  (imports numpy after the thread count is set)

    paths = work_paths(workload, seed)
    gen, ident, ver = cli_args(workload, seed, n, paths)

    def check_pass(verify_code):
        check_outputs(ops, workload, paths["result"], verify_code)
        check_identical(ops, "traced identify output is byte-identical to untraced",
                        paths["result"], paths["reference_result"])

    try:
        return tracing.traced_passes(gen, ident, ver, n, paths, ops, seconds,
                                     MIN_ROUNDS, deadline, check_pass)
    finally:
        remove_work_files(paths)


# ------------------------------------------------------------------ main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny snapshot count, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if SPEC is None or not (SRC / "koopid" / "__init__.py").is_file():
        print(f"error: run from a koopid checkout; {SRC / 'koopid'} or "
              f"{ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_DEADLINE_S)
    n = SMOKE_N if args.smoke else WORKLOADS[args.workload]["n"]
    env = environment(args.workload, args.seed, n)
    ops = Ops()
    if args.trace:
        values, report = run_traced(args.workload, args.seed, args.seconds, n,
                                    deadline, ops)
    else:
        report = run_untraced(args.workload, args.seed, args.seconds, n,
                              deadline, ops)
        values = {k: statistics.median(v) for k, v in report.items() if v}
    metrics = {}
    for spec in SPEC["per_layer" if args.trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        elif args.trace:
            # a function this workload never calls
            metrics[name] = {"value": 0, "unit": unit}
        else:
            ops.record(f"metric {name} measured", False, "no sample")
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({
        "environment": env, "samples": report, "metrics": metrics,
        "operations": ops.entries}, indent=1, default=str) + "\n")
    print(json.dumps({"environment": env}))
    for entry in ops.entries:
        if not entry["ok"]:
            print(f"FAILED {entry['op']}: {entry['detail']}", file=sys.stderr)
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
