"""One workload process: set up, print READY, run whole rounds, write results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode {setup,timed,traced} --result FILE [--rounds K]

`setup` stops after READY; run.py times process start to READY as set-up
time. `timed` runs rounds until S seconds have passed (at least one, or
exactly K). `traced` installs the tracer before set-up and runs one round. The
program is imported from the checkout's `src/`, never from elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
MODULES = ("algebra", "permgroup", "ellcurve", "extension", "mestre", "jacobian", "inputfmt", "cli")


def import_program() -> SimpleNamespace:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rootgain

    if src.resolve() not in Path(rootgain.__file__).resolve().parents:
        raise SystemExit(f"rootgain imported from {rootgain.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"rootgain.{m}") for m in MODULES})


def run_round(rg, requests) -> tuple[float, list]:
    """One timed pass over the batch: (wall seconds, [(code or error, raw)])."""
    outcomes = []
    stderr = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(stderr):
        for req in requests:
            try:
                if req.argv is not None:
                    outcomes.append((rg.cli.main(req.argv), None))
                else:
                    outcomes.append((0, req.fn()))
            except Exception as exc:  # a crash is a failed request, not a dead run
                outcomes.append((f"{type(exc).__name__}: {exc}", None))
    return time.perf_counter() - start, outcomes


def collect(requests, outcomes) -> tuple[dict, list]:
    """Reports by request id, and the failures, after a round."""
    reports = {}
    failures = []
    for req, (code, raw) in zip(requests, outcomes):
        if req.argv is not None:
            text = req.out.read_text(encoding="utf-8") if req.out.exists() else ""
            req.out.unlink(missing_ok=True)
        else:
            text = "" if raw is None else req.render(raw)
            if not isinstance(text, str):
                text = json.dumps(text, sort_keys=True)
        reports[req.rid] = {"code": code, "text": text}
        if code not in req.ok_codes:
            failures.append(f"{req.rid}: {code}")
    return reports, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    ap.add_argument("--result", default=None)
    ap.add_argument("--rounds", type=int, default=0)
    args = ap.parse_args(argv)

    import workloads

    rg = import_program()
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("rootgain")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        requests = workloads.build(args.workload, args.seed, rg, Path(tmp))
        workloads.warm_up(args.workload, rg)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        rounds = 1 if args.mode == "traced" else args.rounds
        walls = []
        digests = set()
        failures: list = []
        started = time.perf_counter()
        while True:
            wall, outcomes = run_round(rg, requests)
            walls.append(wall)
            reports, failed = collect(requests, outcomes)
            del outcomes
            failures += failed
            text = json.dumps(reports)
            digests.add(hashlib.sha256(text.encode()).hexdigest())
            if len(walls) == 1:
                # the first round's reports wait on disk, so that later rounds
                # run in the same memory as the first
                Path(args.result + ".reports").write_text(text, encoding="utf-8")
            del reports, text
            if rounds:
                if len(walls) >= rounds:
                    break
            elif time.perf_counter() - started >= args.seconds:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "round_walls": walls,
        "attempted": len(walls) * len(requests),
        "failed": len(failures),
        "failures": failures[:20],
        "rounds_identical": len(digests) == 1,
        "peak_rss_mb": peak_kb / 1024.0,
        "requests": [
            {"rid": r.rid, "check": r.check, "meta": r.meta, "ok_codes": list(r.ok_codes)}
            for r in requests
        ],
    }
    reports_file = Path(args.result + ".reports")
    result["reports"] = json.loads(reports_file.read_text(encoding="utf-8"))
    reports_file.unlink()
    if args.mode == "timed":
        result["program_discriminants"] = workloads.program_discriminants(rg, result["reports"])
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
