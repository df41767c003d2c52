"""Benchmark of the bandedgf CLI: closed-loop workloads, reference checks, layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

One process, one thread: ``bandedgf.cli.main(argv)`` is called in-process,
one job at a time (a closed loop with a single client).  Jobs run in whole
rounds until ``--seconds`` of wall time have passed.  Times are reported in
reference seconds: wall time scaled by the host's speed measured by fixed
kernels just before and after each job (``calibrate.py``).  Every output is
checked by ``reference.py`` after the timed loop.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
rounds once untraced and once under the outside-in tracer, reports
per-layer calls and self time, the tracing overhead, and the growth sweep.
The last line of standard output is one JSON object; a fuller result file
with run metadata and sample counts is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
TRACE_ROUNDS = 1
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

# Fixed-point calls a job of each command genuinely needs: one series per
# job, and check-identity also solves the reflected walk problem.
FIXED_POINT_NEEDED = {
    "annihilate": 1, "series": 1, "verify-example": 1, "oracle": 1,
    "check-identity": 2, "weighted": 0, "affine": 0,
}


def setup(plan):
    """Import bandedgf from scratch and load every generated input; return (seconds, package)."""
    for name in [n for n in sys.modules if n == "bandedgf" or n.startswith("bandedgf.")]:
        del sys.modules[name]
    t0 = perf_counter()
    bg = importlib.import_module("bandedgf")
    importlib.import_module("bandedgf.cli")
    importlib.import_module("bandedgf.fixtures")
    for rnd in plan:
        for job in rnd:
            for arg in job.argv:
                if arg.endswith(".json"):
                    with open(arg, "r", encoding="utf-8") as fh:
                        json.load(fh)
    return perf_counter() - t0, bg


def run_job(bg, argv):
    """Call the CLI in-process; return (exit code, stdout, wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = process_time(), perf_counter()
        code = bg.cli.main(argv)
        dt, cpu = perf_counter() - t0, process_time() - c0
    return code, out.getvalue(), dt, cpu


class Checker:
    """Reference checks, memoised on (argv, output digest) and kept off the clock."""

    def __init__(self):
        self.memo = {}
        self.failures = []
        self.samples = {}  # command -> (argv, stdout) of one passing job, for the canary

    def __call__(self, job, code, stdout):
        key = (tuple(job.argv), code, hashlib.sha256(stdout.encode()).digest())
        if key not in self.memo:
            self.memo[key] = reference.check(job.argv, code, stdout)
        reason = self.memo[key]
        if reason is not None:
            self.failures.append({"job": job.jid, "argv": job.argv, "reason": reason})
        elif job.command not in self.samples:
            self.samples[job.command] = (job.argv, stdout)

    def canary(self):
        """Each command's checker must reject its output with one value flipped."""
        return {
            cmd: reference.check(argv, 0, reference.corrupt(stdout)) is not None
            for cmd, (argv, stdout) in self.samples.items()
        }


def tail(times):
    """The job time with TAIL_BEYOND jobs above it: (time, percentile, jobs beyond).

    With TAIL_BEYOND jobs or fewer there is no such time; the maximum stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def measure(bg, plan, seconds, check):
    """Closed loop over whole rounds until ``seconds`` of wall time have passed.

    Each job sits between two reference-speed samples and its time is
    reported in reference seconds (see ``calibrate.py``); its wall time is
    kept in the result file.  Outputs are checked after the loop, so neither
    the checker's time nor its memory lands in the timed loop or in
    ``peak_rss_mb``.
    """
    log, outputs = [], []
    rounds = 0
    start = perf_counter()
    before = calibrate.speed()
    while perf_counter() - start < seconds:
        for job in plan[rounds % len(plan)]:
            code, stdout, dt, cpu = run_job(bg, job.argv)
            after = calibrate.speed()
            log.append((job.jid, code, dt, calibrate.to_ref(dt, before, after), cpu))
            outputs.append((job, code, stdout))
            before = after
        rounds += 1
    wall = perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for job, code, stdout in outputs:
        check(job, code, stdout)
    times = [ref for _, _, _, ref, _ in log]
    walls = [dt for _, _, dt, _, _ in log]
    p_tail, pct, beyond = tail(times)
    n = len(times)
    failed = len(check.failures)
    metrics = {
        "jobs_per_s": (n / sum(times), n),
        "job_s_p50": (statistics.median(times), n),
        "job_s_tail": (p_tail, n),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
        "pass_ratio": ((n - failed) / n, n),
    }
    extra = {"rounds": rounds, "loop_wall_seconds": wall, "tail_percentile": pct,
             "tail_jobs_beyond": beyond,
             "wall_clock": {"jobs_per_s": n / sum(walls), "job_s_p50": statistics.median(walls),
                            "job_s_tail": tail(walls)[0]},
             "jobs": [{"id": j, "exit": c, "wall_s": dt, "ref_s": ref, "cpu_s": cpu}
                      for j, c, dt, ref, cpu in log]}
    return n, metrics, extra


def _coeff_bits(stdout):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return 0
    values = doc.get("coefficients") or [
        c for row in (doc.get("polynomial") or {}).get("coeffs", []) for c in row
    ]
    best = 0
    for v in values:
        for part in str(v).lstrip("-").split("/"):
            best = max(best, int(part).bit_length())
    return best


def measure_traced(bg, plan, check, out_dir):
    """Run the first rounds untraced, then traced; return per-layer metrics."""
    jobs = [job for rnd in plan[:TRACE_ROUNDS] for job in rnd]
    plain = 0.0
    for job in jobs:
        code, stdout, dt, _ = run_job(bg, job.argv)
        plain += dt
        check(job, code, stdout)
    tr = tracer.Tracer()
    traced = 0.0
    bits = 0
    with tr:
        for job in jobs:
            tr.job = job.jid
            code, stdout, dt, _ = run_job(bg, job.argv)
            traced += dt
            check(job, code, stdout)
            bits = max(bits, _coeff_bits(stdout))
    tr.write(out_dir / "spans.json")

    metrics = {}
    for name, tot in tr.layer_totals().items():
        metrics[f"{name}.calls"] = (tot["calls"], "count", len(jobs))
        metrics[f"{name}.total_s"] = (tot["total_s"], "s", len(jobs))
        metrics[f"{name}.self_s"] = (tot["self_s"], "s", len(jobs))
    for name, count in tr.counts.items():
        metrics[f"{name}.calls"] = (count, "count", len(jobs))
    fp_calls = metrics["engine.fixed_point_route.calls"][0]
    needed = sum(FIXED_POINT_NEEDED[job.command] for job in jobs)
    metrics["engine.fixed_point_route.useful_ratio"] = (
        needed / fp_calls if fp_calls else 0.0, "ratio", len(jobs))
    metrics["output.coeff_bits_max"] = (bits, "bits", len(jobs))
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio", len(jobs))

    points = {}
    for name, (value, pts) in sweep.run(bg).items():
        unit = "ratio" if name.endswith("growth_L") else "slope"
        metrics[name] = (value, unit, len(pts))
        points[name] = pts
    extra = {"trace_jobs": len(jobs), "untraced_seconds": plain, "traced_seconds": traced,
             "sweep_points": points, "sweep_repeats_per_point": sweep.REPEATS}
    return 2 * len(jobs), metrics, extra


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args):
    if not (ROOT / "src" / "bandedgf" / "__init__.py").is_file():
        print(f"perfbench: no bandedgf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    plan = workloads.generate(args.workload, args.seed, out_dir / "inputs")
    setups, setup_walls = [], []
    before = calibrate.speed()
    for _ in range(SETUP_REPEATS):
        dt, bg = setup(plan)
        after = calibrate.speed()
        setups.append(calibrate.to_ref(dt, before, after))
        setup_walls.append(dt)
        before = after

    check = Checker()
    if args.trace:
        attempted, layered, extra = measure_traced(bg, plan, check, out_dir)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in layered.items()}
        samples = {name: n for name, (_, _, n) in layered.items()}
    else:
        attempted, timed, extra = measure(bg, plan, args.seconds, check)
        timed["setup_s"] = (statistics.median(setups), len(setups))
        units = dict(END_TO_END)
        metrics = {name: {"value": timed[name][0], "unit": units[name]} for name, _ in END_TO_END}
        samples = {name: timed[name][1] for name, _ in END_TO_END}
    canary = check.canary()
    failed = len(check.failures)
    correct = failed == 0 and all(canary.values())

    result = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": check.failures,
        "checker_rejects_corrupted_output": canary,
        "metrics": metrics,
        "samples": samples,
        "setup_samples_s": setups,
        "setup_wall_samples_s": setup_walls,
        **extra,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<42} {m['value']:>14.6g} {m['unit']:<7} n={samples[name]}")
    if not args.trace:
        print(f"{args.workload:<11} job_s_tail is p{extra['tail_percentile']:.1f} "
              f"({extra['tail_jobs_beyond']} jobs beyond) of {attempted} jobs; "
              f"fail_ratio {failed}/{attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    merged = {}
    correct, attempted, failed = True, 0, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        merged.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
