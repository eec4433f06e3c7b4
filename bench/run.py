"""The htwist benchmark: time to a verdict on four checker workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; htwist is imported from its src/.  One
client runs jobs in a closed loop: each job starts in a fresh interpreter
(job.py) once the previous verdict is in, and jobs start until S seconds
have passed.  Every output is checked against expectations that do not
come from htwist (checks.py), and every check must also reject its
negative control.  See README.md for the workloads and how to read the
output.

With --trace 0 the last line reports the end-to-end metrics: median job
wall time, median set-up time and median peak resident set.  With
--trace 1 the loop cycles through a plain job, a traced job (tracing.py)
and a profiled job, and the last line reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("normality", "constructions", "zhomology", "simplicial")
DEADLINE_S = 170  # every run must have ended within 180 s
SETUP_PROBES = 6  # set-up-only processes per run, besides each job's own set-up
TAIL_BEYOND = 10


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def run_job(workload, seed, workdir, mode, job_id, timeout, spans_out=None):
    """One job in a fresh interpreter; returns its report or an error string."""
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--mode", mode,
           "--job-id", str(job_id)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.monotonic is one system-wide clock, so this spans interpreter
    # start, imports and input building in the child
    report["setup_s"] = report["ready"] - spawned
    return report


def tail(values):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples above it, or None when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND  # samples at or below the percentile
    return 100.0 * k / n, sorted(values)[k - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "htwist" / "__init__.py").is_file():
        print(f"no htwist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    out_dir = ROOT / ".bench_out"
    modes = ("plain", "spans", "profile") if args.trace else ("plain",)
    # one CPU for the whole run: the two CPUs of a small VM can run at
    # different speeds, and a job should not land on either by chance
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    jobs, failures, setups = [], [], []
    began = time.monotonic()
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            rep = run_job(args.workload, args.seed, workdir, "setup", -1, DEADLINE_S)
            if isinstance(rep, str):
                failures.append(rep)
                print(f"set-up probe: FAILED {rep}")
                break
            setups.append(rep["setup_s"])
        if setups:
            print("set-up probes: setup_s=" + " ".join(f"{v:.4f}" for v in setups))
        start = time.monotonic()
        while not failures:
            cycle_start = time.monotonic()
            for mode in modes:
                job_id = len(jobs) + len(failures)
                spans_out = None
                if mode == "spans" and not any(j["mode"] == "spans" for j in jobs):
                    out_dir.mkdir(exist_ok=True)
                    spans_out = out_dir / f"spans_{args.workload}_seed{args.seed}.json"
                timeout = DEADLINE_S - (time.monotonic() - began)
                rep = run_job(args.workload, args.seed, workdir, mode, job_id, timeout, spans_out)
                if isinstance(rep, str):
                    failures.append(rep)
                    print(f"job {job_id} ({mode}): FAILED {rep}")
                    break
                rep["mode"] = mode
                rep["problems"] = checks.check(args.workload, rep["output"])
                if rep["problems"]:
                    failures.append("; ".join(rep["problems"]))
                    print(f"job {job_id} ({mode}): WRONG OUTPUT {rep['problems']}")
                    break
                jobs.append(rep)
                print(f"job {job_id} ({mode}): setup_s={rep['setup_s']:.4f} wall_s={rep['wall_s']:.4f} "
                      f"peak_rss_mb={rep['peak_rss_mb']:.1f} output=ok")
            now = time.monotonic()
            # stop at --seconds, or when another cycle like this one would
            # overrun the deadline
            if now - start >= args.seconds or (now - began) + (now - cycle_start) > DEADLINE_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(jobs) + len(failures)
    control_ok = bool(jobs) and checks.control_rejected(args.workload, jobs[0]["output"])
    print(f"negative control rejected: {control_ok}")
    print(f"failed_ratio: {len(failures)}/{attempted}")
    plain = [j for j in jobs if j["mode"] == "plain"]
    if not plain:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": len(failures), "metrics": {}}))
        return 0

    walls = [j["wall_s"] for j in plain]
    t = tail(walls)
    print("wall_s.tail: " + (f"p{t[0]:.1f} = {t[1]:.4f} s over {len(walls)} jobs" if t else
                             f"undefined: {len(walls)} jobs, a percentile with {TAIL_BEYOND} "
                             f"jobs beyond it needs at least {TAIL_BEYOND + 1}"))
    if args.trace:
        metrics = trace_metrics(args, jobs, out_dir)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups + [j["setup_s"] for j in plain]),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
        }
    print(json.dumps({
        "correct": not failures and control_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def trace_metrics(args, jobs, out_dir) -> dict:
    by_mode = {m: [j for j in jobs if j["mode"] == m] for m in ("plain", "spans", "profile")}
    metrics = {}
    for source in ("spans", "profile"):
        for key in (by_mode[source][0]["layers"] if by_mode[source] else ()):
            metrics[key] = statistics.median(r["layers"][key] for r in by_mode[source])
    if not by_mode["spans"]:
        return metrics
    metrics["trace.overhead_ratio"] = (statistics.median(j["wall_s"] for j in by_mode["spans"])
                                       / statistics.median(j["wall_s"] for j in by_mode["plain"]))
    first = by_mode["spans"][0]
    self_sum = sum(first["self_s_all_layers"].values())
    gap = abs(self_sum - first["wall_s"]) / first["wall_s"]
    print(f"self times of all layers sum to {self_sum:.4f} s; traced job wall {first['wall_s']:.4f} s; "
          f"difference {100 * gap:.3f}% (tolerance 1%: {'ok' if gap <= 0.01 else 'EXCEEDED'})")
    print("self_s by layer: " + ", ".join(
        f"{k}={v:.4f}" for k, v in sorted(first["self_s_all_layers"].items(), key=lambda kv: -kv[1])))
    print(f"largest complex: {json.dumps(first['largest_complex'])}")
    summary = {
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "per_layer": metrics,
        "self_s_all_layers": first["self_s_all_layers"],
        "self_sum_s": self_sum, "traced_wall_s": first["wall_s"],
        "span_count": first["span_count"],
        "largest_complex": first["largest_complex"],
    }
    path = out_dir / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"trace written to {path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
