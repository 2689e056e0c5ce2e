"""gasketlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload is a fresh
``worker.py`` process, like one ``gasketlab`` command: it pays for interpreter
start, the numpy/scipy/gasketlab imports and every lazy first-call cost
(ARPACK, LAPACK routines) on each pass, so ``setup_s`` and ``peak_rss_mb``
belong to that workload alone.  The BLAS pools are pinned to one thread
through the environment before any child imports numpy.

With ``--trace 0`` the runner times untraced passes until S seconds have
elapsed (at least three passes) and reports the end-to-end metrics of
BENCHMARK.json as medians over passes.  With ``--trace 1`` it runs one
untraced pass, one pass with layer spans and one hot-loop counting pass, and
reports the per-layer metrics; the spans and counts are also written to
``perfbench/out/``.  Human-readable lines go first; the last stdout line is the
JSON result.  Any failure to run exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THREAD_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_ONLY_SPAWNS = 3
MIN_PASSES = 3
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t_start = time.perf_counter()
        self.env = dict(os.environ, **THREAD_PIN, PYTHONPATH=str(ROOT / "src"))
        self.setup_s: list[float] = []

    def spawn(self, mode: str) -> dict | None:
        """One worker process; returns its pass report (None for ``setup``)."""
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.t_start)
        if remaining <= 0:
            raise BenchError("run deadline passed")
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), mode]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                              cwd=ROOT) as proc:
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                t_ready = time.perf_counter()
                rest = proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
        if ready != "ready\n" or proc.returncode != 0:
            raise BenchError(f"worker {mode} pass exited with code {proc.returncode}")
        self.setup_s.append(t_ready - t0)
        return json.loads(rest.splitlines()[-1]) if mode != "setup" else None

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start


def print_machine(info: dict) -> None:
    info = dict(info, nproc=os.cpu_count(), cpu=cpu_model())
    print("machine: " + json.dumps(info, sort_keys=True))


def timed_run(r: Runner, seconds: float):
    passes = []
    while len(passes) < MIN_PASSES or r.elapsed() < seconds:
        passes.append(r.spawn("time"))
    times = [p["time_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {
        "time_to_solution_s": statistics.median(times),
        "setup_s": statistics.median(r.setup_s),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"{r.workload}: pass times {', '.join(f'{t:.3f}' for t in times)} s; "
          f"setup samples {', '.join(f'{t:.3f}' for t in r.setup_s)} s")
    print(f"{r.workload}: time_to_solution_s median over {len(times)} passes")
    return passes, metrics


def traced_run(r: Runner):
    plain, traced, counted = r.spawn("time"), r.spawn("trace"), r.spawn("count")
    metrics = tracing.layer_metrics(traced["spans"], traced["counts"],
                                    counted["counts"], counted["seconds"])
    metrics["trace_overhead_s"] = traced["time_s"] - plain["time_s"]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{r.workload}-seed{r.seed}.json"
    path.write_text(json.dumps({
        "workload": r.workload, "seed": r.seed, "machine": traced["machine"],
        "untraced_time_s": plain["time_s"], "traced_time_s": traced["time_s"],
        "spans": traced["spans"], "counts": traced["counts"],
        "hot_loop_counts": counted["counts"], "hot_loop_seconds": counted["seconds"],
        "metrics": metrics,
    }, indent=1))
    print(f"{r.workload}: spans and counts written to {path.relative_to(ROOT)}")
    return [plain, traced, counted], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gasketlab").is_dir():
        print("error: src/gasketlab not found; run from the repository root", file=sys.stderr)
        return 2

    r = Runner(args.workload, args.seed)
    try:
        r.spawn("setup")  # warm the file cache and write bytecode; not a sample
        r.setup_s.clear()
        for _ in range(SETUP_ONLY_SPAWNS):
            r.spawn("setup")
        if args.trace:
            passes, metrics = traced_run(r)
            listed = SPEC["per_layer"]
        else:
            passes, metrics = timed_run(r, args.seconds)
            listed = SPEC["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    mismatch = {m["name"] for m in listed} ^ set(metrics)
    if mismatch:
        print(f"error: metrics not matching BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print_machine(passes[0]["machine"])
    print(f"{r.workload}: failed_ops_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for m in listed:
        value = metrics[m["name"]]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{r.workload}: {m['name']} = {shown} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
