"""Benchmark of the risbeam package: one seeded workload, checked and timed.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload steer|sweep|cli --seed N \\
        --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout; the program exits 2
without a result when that tree is missing.  Load is one process and one
client in a closed loop: the next op starts when the previous one (and its
output check) has finished.  BLAS/OpenMP pools are pinned to one thread.

``--trace 0`` times ops for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` takes a fixed, seeded batch of ops and runs it alternately
untraced and traced (spans around every public risbeam function) for
``--seconds``; it prints the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, prefixed
``perfbench-meta``, holds the run metadata; both are also written to
``.bench_build/perfbench/`` in the checkout, next to the span dump.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
# Before numpy can be imported: the pools read these at load time.
os.environ.update(THREAD_ENV)

import spans  # noqa: E402  (after the thread pins)
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 7
SETUP_SAMPLES_SMOKE = 2
TAIL_BEYOND = 10
FLOOR_SAMPLES = 7
TRACE_BLOCKS = {"steer": 1, "sweep": 2, "cli": 1}

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {"cli.interp_floor_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms"}
    for mod in spans.MODULES:
        units[f"{mod}.calls"] = "count"
        units[f"{mod}.self_ms"] = "ms"
    units.update(dict.fromkeys(spans.SELF_MS, "ms"))
    units.update(dict.fromkeys(spans.CALLS, "count"))
    units.update(
        {
            "farfield.element_angles": "count",
            "farfield.kernel_bytes_computed": "B",
            "steering.search.passes": "count",
            "steering.search.objective_evals": "count",
            "steering.search.converged_frac": "ratio",
            "steering.search.gain_over_closed_form": "ratio",
            "schedule.channels": "count",
            "compare.parse.bytes": "B",
            "compare.matches_frac": "ratio",
            "trace.ops": "count",
            "trace.spans": "count",
            "trace.passes": "count",
            "trace.untraced_ms": "ms",
            "trace.overhead_ms": "ms",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


# Counts that must repeat exactly between traced passes and runs of one seed.
EXACT = tuple(
    name
    for name, unit in per_layer_units().items()
    if unit in ("count", "B") and name != "trace.passes"
)


class Workload:
    """The four pieces of one workload (see workloads.py)."""

    def __init__(self, name: str, smoke: bool, work_dir: Path, env: dict):
        self.name, self.smoke, self.work_dir, self.env = name, smoke, work_dir, env
        self.run_op = getattr(wl, f"{name}_run")
        self.check = getattr(wl, f"{name}_check")
        self.ops = getattr(wl, f"{name}_ops")
        # the traced cli batch calls cli.main in process: spans cannot be
        # recorded inside a child process
        self.traced_op = self._cli_in_process if name == "cli" else self.run_op

    def setup(self, seed: int):
        if self.name == "cli":
            return wl.cli_setup(seed, self.work_dir, self.smoke, ROOT, self.env)
        return getattr(wl, f"{self.name}_setup")(seed, self.work_dir, self.smoke)

    @staticmethod
    def _cli_in_process(state, argv):
        code, out = wl.cli_main_capture(argv)
        return code, out.encode("utf-8"), b""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_setup(work: Workload, seed: int):
    t0 = time.perf_counter()
    state = work.setup(seed)
    elapsed = time.perf_counter() - t0
    import risbeam

    if SRC not in Path(risbeam.__file__).resolve().parents:
        raise RuntimeError(f"risbeam was imported from {risbeam.__file__}, not {SRC}")
    return state, elapsed


def setup_samples(args, first: float) -> list:
    """Set-up time of this process plus fresh child processes of this script."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range((SETUP_SAMPLES_SMOKE if args.smoke else SETUP_SAMPLES) - 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}: {proc.stderr[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples the
    maximum stands in, and the reported count says how many lie beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 1 - TAIL_BEYOND, 0) if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str):
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def run_one(work: Workload, state, op, tally: Tally, run_op, tracer=None):
    """Run and check one op; return its latency in seconds, or None on failure."""
    tally.attempted += 1
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = run_op(state, op)
            t1 = time.perf_counter()
        else:
            with tracer.op_span():
                t0 = time.perf_counter()
                out = run_op(state, op)
                t1 = time.perf_counter()
    except Exception as exc:  # a failed op is counted, the run goes on
        tally.fail(f"{type(exc).__name__}: {exc}")
        return None
    if tracer is None:
        reason = work.check(state, op, out)
    else:
        with tracer.paused():
            reason = work.check(state, op, out)
    if reason is not None:
        tally.fail(reason)
        return None
    return t1 - t0


def timed_phase(work: Workload, state, seconds: float, tally: Tally) -> dict:
    latencies = []
    blocks = work.ops(state)
    t_start = time.perf_counter()
    # whole blocks only, so that every run sees the same mix of op classes
    while True:
        for op in next(blocks):
            lat = run_one(work, state, op, tally, work.run_op)
            if lat is not None:
                latencies.append(lat)
        if time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    if work.name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not latencies:
        raise RuntimeError("no op completed: " + "; ".join(tally.reasons[:3]))
    value, pct, beyond = tail(latencies)
    return {
        "metrics": {
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * value,
            "ops_per_s": len(latencies) / wall,
            "ok_frac": len(latencies) / tally.attempted,
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "meta": {
            "ops": len(latencies),
            "timed_wall_s": wall,
            "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "tail_sample_count": len(latencies),
        },
    }


def _wall_ms(cmd, n: int) -> float:
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
                       check=True)
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def traced_phase(work: Workload, state, seconds: float, tally: Tally, dump_path: Path) -> dict:
    batch = []
    blocks = work.ops(state)
    for _ in range(TRACE_BLOCKS[work.name]):
        batch.extend(next(blocks))
    tracer = spans.Tracer()
    untraced, traced, aggregates, main_ms = [], [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for op in batch:
            lat = run_one(work, state, op, tally, work.traced_op)
            if lat is not None and work.name == "cli":
                main_ms.append(1e3 * lat)
        untraced.append(time.perf_counter() - t0)

        tracer.reset()
        tracer.install()
        tracer.active = True
        try:
            t0 = time.perf_counter()
            for op in batch:
                run_one(work, state, op, tally, work.traced_op, tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        aggregates.append(tracer.aggregate())
        if len(aggregates) == 1:
            tracer.dump(dump_path)
        if time.perf_counter() - t_start >= seconds:
            break

    first = aggregates[0]
    for agg in aggregates[1:]:
        moved = [k for k in EXACT if k in agg and agg[k] != first[k]]
        if moved:
            tally.fail(f"counts differ between traced passes: {moved}")
            break
    metrics = {}
    for key, value in first.items():
        if key in EXACT:
            metrics[key] = value
        else:
            metrics[key] = statistics.median(a[key] for a in aggregates)
    floor = _wall_ms([sys.executable, "-c", "pass"], FLOOR_SAMPLES)
    imported = _wall_ms([sys.executable, "-c", "import risbeam.cli"], FLOOR_SAMPLES)
    base = statistics.median(untraced)
    metrics.update(
        {
            "cli.interp_floor_ms": floor,
            "cli.import_ms": imported - floor,
            # in-process cli.main per call; only the cli workload calls it
            "cli.main_ms": statistics.median(main_ms) if main_ms else 0.0,
            "trace.ops": len(batch),
            "trace.passes": len(aggregates),
            "trace.untraced_ms": 1e3 * base,
            "trace.overhead_ms": 1e3 * (statistics.median(traced) - base),
            "trace.overhead_frac": statistics.median(traced) / base - 1.0,
        }
    )
    return {
        "metrics": metrics,
        "meta": {"batch_ops": len(batch), "span_dump": str(dump_path.relative_to(ROOT))},
    }


def machine_meta(args) -> dict:
    import numpy

    def sysconf(code: int):
        # _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE of glibc
        try:
            return os.sysconf(code) or None
        except (ValueError, OSError):
            return None

    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "l2_bytes": sysconf(191),
        "l3_bytes": sysconf(194),
        "git_sha": sha,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "load": "one process, one client, closed loop",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("steer", "sweep", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="only time set-up and print it (used for the set-up samples)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "risbeam" / "__init__.py").is_file():
        print(f"error: no risbeam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        work = Workload(args.workload, args.smoke, work_dir, child_env())
        state, setup_s = timed_setup(work, args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = Tally()
        stem = f"{args.workload}-seed{args.seed}"
        if args.trace:
            phase = traced_phase(work, state, args.seconds, tally,
                                 OUT_DIR / f"spans-{args.workload}.npz")
            units = per_layer_units()
        else:
            phase = timed_phase(work, state, args.seconds, tally)
            samples = setup_samples(args, setup_s)
            phase["metrics"]["setup_s"] = statistics.median(samples)
            phase["meta"]["setup_samples_s"] = samples
            units = END_TO_END
        missing = set(units) ^ set(phase["metrics"])
        if missing:
            raise RuntimeError(f"metric set mismatch: {sorted(missing)}")
        meta = {**machine_meta(args), **phase["meta"], "failures": tally.reasons}
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": phase["metrics"][k], "unit": u} for k, u in units.items()},
        }
        (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(
            json.dumps({"meta": meta, "result": result}, indent=2) + "\n"
        )
        print("perfbench-meta " + json.dumps(meta))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
