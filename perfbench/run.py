"""moelab benchmark: closed-loop workloads, oracles and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload expand-balance --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

One client runs one op at a time (a closed loop) on one thread: BLAS is
pinned to one thread through environment variables set before numpy is
imported. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

DEFAULT_SEED = 0
HELD_OUT_SEED = 7
# A run is split over WORKERS fresh processes, run one after another: each
# gives one set-up sample (setup_s is their median), and all of them must
# agree on the determinism digest. Op timings pool over the workers.
WORKERS = 5
RUN_LIMIT_S = 170.0
# The op_p90_ms percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="expand-balance, precision-divergence, replay-rl-step or all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=10.0, help="measured run length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics of a traced run")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_library():
    """Import numpy and moelab; moelab must come from this checkout's src/."""
    import numpy  # noqa: F401
    import moelab

    origin = Path(moelab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"moelab imported from {origin}, not from {SRC}")


# --------------------------------------------------------------------------
# environment block and BLAS pin


def _first_line(path, prefix):
    try:
        with open(path) as fp:
            for line in fp:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_runtime_threads():
    """Thread count OpenBLAS reports from inside this process, if it is loaded."""
    try:
        with open("/proc/self/maps") as fp:
            libs = {line.split()[-1] for line in fp if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        blas_name = blas_version = "unknown"
    threads = _first_line("/proc/self/status", "Threads:")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_runtime_threads": blas_runtime_threads(),
        "process_threads": int(threads) if threads else None,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "seed": seed,
        "git_commit": git_commit(),
    }


def pin_reached(env):
    """True when every thread variable reads 1 and no BLAS worker thread exists."""
    return (
        all(v == "1" for v in env["blas_thread_vars"].values())
        and env["blas_runtime_threads"] in (None, 1)
        and env["process_threads"] in (None, 1)
    )


# --------------------------------------------------------------------------
# one workload process


class Harness:
    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.prints: dict[int, bytes] = {}

    def note(self, problem):
        if len(self.problems) < 20:
            self.problems.append(problem)

    def attempt(self, i, run):
        """Run op ``i`` as ``run(op, i)``, then its oracles and determinism
        check. Returns (seconds, outputs); outputs is None if the op raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run(self.w.op, i)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            dt = time.perf_counter() - t0
            self.failed += 1
            self.note(f"op {i} raised {exc!r}")
            return dt, None
        dt = time.perf_counter() - t0
        try:
            bad = self.w.check(i, out)
            fp = self.w.fingerprint(out)
        except Exception as exc:  # malformed outputs can trip an oracle's own code
            self.failed += 1
            self.note(f"op {i} outputs broke an oracle: {exc!r}")
            return dt, None
        if self.prints.setdefault(i % self.w.pool, fp) != fp:
            bad.append("determinism")
        if bad:
            self.failed += 1
            self.note(f"op {i}: failed {','.join(bad)}")
        return dt, out

    def digest(self):
        h = hashlib.sha256()
        for j in range(self.w.pool):
            h.update(self.prints.get(j, b"no output"))
        return h.hexdigest()

    def self_test(self, i, out):
        """Every oracle must reject one deliberately corrupted output."""
        for name, corrupt in self.w.corruptions.items():
            if name not in self.w.check(i, corrupt(out)):
                self.note(f"oracle {name} accepted a corrupted output")
                return False
        return True


def call(fn, i):
    return fn(i)


def warm_up(h):
    """One untimed pass over the input pool: fills the digest, then shows
    every oracle can fail."""
    first = None
    for i in range(h.w.pool):
        out = h.attempt(i, call)[1]
        if out is not None and first is None:
            first = (i, out)
    if first is None or not h.self_test(*first):
        h.note("oracle self-test did not run or did not pass")
        return False
    return True


def percentile(values, q):
    """Linear-interpolation percentile ``q`` (0..100) of a nonempty list."""
    v = sorted(values)
    pos = q / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest percentile, at most the 90th, with TAIL_SAMPLES samples beyond it."""
    return max(50.0, min(90.0, 100.0 * (1.0 - TAIL_SAMPLES / n)))


def timed_loop(seconds, h):
    """Closed loop of ops for ``seconds``; returns every op's seconds,
    failed ops included."""
    times = []
    i = h.w.pool
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(h.attempt(i, call)[0])
        i += 1
    return {"times": times}


def traced_loop(seconds, h, spans):
    """Alternate untraced and traced passes over the input pool."""
    tracer = spans.Tracer()
    spent = {"traced": [0.0, 0], "untraced": [0.0, 0]}
    first_counts = None
    i = h.w.pool
    deadline = time.perf_counter() + seconds
    while first_counts is None or time.perf_counter() < deadline:
        for kind, run in (("untraced", call), ("traced", tracer.run)):
            for _ in range(h.w.pool):
                spent[kind][0] += h.attempt(i, run)[0]
                spent[kind][1] += 1
                i += 1
        if first_counts is None:
            first_counts = dict(tracer.counts)
    accounted = sum(tracer.self_s.values())
    if abs(accounted - tracer.total_s) > 1e-9 * max(tracer.total_s, 1.0):
        h.failed += 1
        h.note(f"layer self times cover {accounted} s of {tracer.total_s} s traced op time")
    return {"self_s": dict(tracer.self_s), "first_counts": first_counts, "spent": spent,
            "untraced_functions": spans.Tracer.untraced()}


def run_worker(args):
    """One workload process: set up, warm up, then run ops for ``--seconds``."""
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    # perf_counter is CLOCK_MONOTONIC, shared with the parent on Linux.
    ready = time.perf_counter()
    env = environment(args.seed)
    h = Harness(w)
    healthy = warm_up(h)
    if not pin_reached(env):
        healthy = False
        h.note("BLAS thread pin did not reach the workload process")
    data = timed_loop(args.seconds, h) if args.trace == 0 else traced_loop(args.seconds, h, spans)
    data.update(
        ready=ready, env=env, healthy=healthy, attempted=h.attempted, failed=h.failed,
        problems=h.problems, digest=h.digest(),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(data))
    return 0


def end_to_end(reports):
    times_ms = [t * 1e3 for r in reports for t in r["times"]]
    q = tail_percentile(len(times_ms))
    metrics = {
        "ops_per_s": (len(times_ms) / sum(sum(r["times"]) for r in reports), "1/s"),
        "op_p90_ms": (percentile(times_ms, q), "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reports), "MB"),
    }
    # Printed, not in the result: the median op time flips between the fast
    # and slow phases of a shared machine, beyond any bound the benchmark
    # could hold (see README.md, "Bounds and noise").
    printed = {"op_p50_ms": (statistics.median(times_ms), "ms")}
    info = {"timed_ops": len(times_ms), "tail_percentile": q,
            "setup_samples_s": [r["setup_s"] for r in reports]}
    return metrics, printed, info


def per_layer(reports, spans, pool):
    traced_s = sum(r["spent"]["traced"][0] for r in reports)
    traced_n = sum(r["spent"]["traced"][1] for r in reports)
    untraced_s = sum(r["spent"]["untraced"][0] for r in reports)
    untraced_n = sum(r["spent"]["untraced"][1] for r in reports)
    counts = reports[0]["first_counts"]
    metrics = {}
    for layer in spans.SELF_TIMES + ["bench"]:
        total = sum(r["self_s"].get(layer, 0.0) for r in reports)
        metrics[f"{layer}.self_s"] = (total / traced_n, "s")
    for counter in spans.COUNTERS:
        unit = "B" if counter.endswith(".bytes") else "count"
        metrics[counter] = (counts.get(counter, 0) / pool, unit)
    metrics["trace.overhead_frac"] = ((traced_s / traced_n) / (untraced_s / untraced_n) - 1.0, "frac")
    info = {"traced_ops": traced_n, "untraced_ops": untraced_n,
            "traced_op_s": traced_s / traced_n, "untraced_op_s": untraced_s / untraced_n,
            "untraced_functions": reports[0]["untraced_functions"]}
    return metrics, info


def run_one(args):
    """Run WORKERS workload processes one after another and merge them."""
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
           "--trace", str(args.trace), "--worker"]
    start = time.perf_counter()
    reports = []
    for _ in range(WORKERS):
        t0 = time.perf_counter()
        left = RUN_LIMIT_S - (t0 - start)
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=max(left, 1.0), cwd=ROOT)
        except subprocess.TimeoutExpired:
            print(f"perfbench: a worker did not finish within {RUN_LIMIT_S} s", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: worker failed:\n{done.stderr.strip()[-2000:]}", file=sys.stderr)
            return 1
        report = json.loads(done.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - t0
        reports.append(report)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [p for r in reports for p in r["problems"]]
    if len({r["digest"] for r in reports}) != 1:
        failed += 1
        problems.append("determinism digest differs between worker processes")
    printed = {}
    if args.trace == 0:
        metrics, printed, info = end_to_end(reports)
        metrics["ops_ok_frac"] = ((attempted - failed) / attempted, "frac")
    else:
        if len({json.dumps(r["first_counts"], sort_keys=True) for r in reports}) != 1:
            failed += 1
            problems.append("layer counts differ between worker processes")
        metrics, info = per_layer(reports, spans, workloads.WORKLOADS[args.workload].pool)
    printed["ops_failed_frac"] = (failed / attempted, "frac")

    print("env " + json.dumps(reports[0]["env"], sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} sha256={reports[0]['digest']}")
    print("info " + json.dumps(dict(info, workers=WORKERS), sort_keys=True))
    for problem in problems[:20]:
        print(f"problem {problem}")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": all(r["healthy"] for r in reports) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, one summary table at the end."""
    import workloads

    rows, correct, attempted, failed = [], True, 0, 0
    merged = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        res = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, v in res["metrics"].items():
            merged[f"{name}.{metric}"] = v
        for line in done.stdout.splitlines():
            if line.startswith("metric "):
                metric, _, value, unit = line.split()[1:]
                rows.append((name, metric, float(value), unit))
    for name, metric, value, unit in rows:
        print(f"{name:22s} {metric:28s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main():
    args = parse_args(sys.argv[1:])
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.worker:
        return run_worker(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
