"""Offline benchmark of rootgain: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: rank-gain-search, group-certificates, low-degree-session (see
README.md). Each runs in its own worker process, one client in a closed loop,
one thread, importing the program from this checkout's src/.

--trace 0: one worker runs whole rounds of the workload's fixed batch until S
seconds have passed, and two more workers only set up. Reports
  setup_s      median over the three workers of process start to first request
  wall_s       median time to solution of one round (the whole batch)
  peak_rss_mb  peak resident memory of the worker that ran the rounds
--trace 1: one untraced and one traced worker run one round each; reports
every per-layer metric of tracer.PER_LAYER, with trace.overhead_s the traced
minus the untraced round. Spans are written to perfbench/out/.

Every report is checked apart from the program (checks.py). Progress goes to
stderr; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exits 1, printing no result, when a worker
cannot run (for instance when src/rootgain is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("rank-gain-search", "group-certificates", "low-degree-session")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
ENV = dict(
    os.environ,
    PYTHONHASHSEED="0",
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


class BenchError(RuntimeError):
    pass


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_worker(args, mode: str, deadline: float, rounds: int = 0):
    """(seconds from process start to READY, worker result or None)."""
    result = OUT_DIR / f"result-{args.workload}-{args.seed}-{mode}-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--result", str(result), "--rounds", str(rounds),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"READY" or code != 0:
        raise BenchError(f"{mode} worker failed (exit {code}) before finishing")
    if mode == "setup":
        return ready - start, None
    try:
        return ready - start, json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink(missing_ok=True)


def problems_of(result: dict) -> list[str]:
    import checks  # sympy is imported only here, never in a worker

    return checks.check_result(result)


def timed_run(args, deadline: float):
    setups = []
    setup_s, result = run_worker(args, "timed", deadline)
    setups.append(setup_s)
    for _ in range(SETUP_REPEATS - 1):
        setups.append(run_worker(args, "setup", deadline)[0])
    log(f"setup {['%.3f' % s for s in setups]} rounds {['%.3f' % w for w in result['round_walls']]}")
    problems = problems_of(result)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(result["round_walls"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    return result["attempted"], result["failed"], result["failures"], problems, metrics


def traced_run(args, deadline: float):
    from tracer import PER_LAYER, layer_metrics

    _, plain = run_worker(args, "timed", deadline, rounds=1)
    _, traced = run_worker(args, "traced", deadline)
    problems = problems_of(plain)
    if traced["reports"] != plain["reports"]:
        problems.append("reports differ between the untraced and the traced run")
    overhead = traced["round_walls"][0] - plain["round_walls"][0]
    values = layer_metrics(traced["spans"], traced["counts"], overhead)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "failed"],
                    "spans": traced["spans"], "counts": traced["counts"]}),
        encoding="utf-8",
    )
    log(f"untraced {plain['round_walls'][0]:.3f}s traced {traced['round_walls'][0]:.3f}s; spans in {trace_file}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return attempted, failed, plain["failures"] + traced["failures"], problems, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        attempted, failed, failures, problems, metrics = run(args, deadline)
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    for line in failures:
        log(f"FAILED: {line}")
    for line in problems:
        log(f"CHECK: {line}")
    for name, m in metrics.items():
        log(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
