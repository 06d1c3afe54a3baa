"""Study-level benchmark of mildspde.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout; the package is imported from its src/.
Every measurement runs in a fresh `bench/study.py` process with BLAS pinned
to one thread, so all load comes from one process tree.

--trace 0  Times whole `run_study` calls, untraced, at the workload's worker
           count, for about S seconds (at least one study), after nine
           setup-only processes. Prints study_s, setup_s, peak_rss_mb and
           fail_frac.
--trace 1  Runs the study untraced at the workload's worker count (and at
           one worker if that differs), then once traced in a single process
           (bench/tracer.py). Prints the per-layer metrics; writes the spans
           to .bench_out/trace-WORKLOAD-seedN.json.

Every report is checked (bench/checks.py). Before the result, one `env` line
records the machine, versions and seeds. The last stdout line is the JSON
result {correct, attempted, failed, metrics}; metric names and units come
from BENCHMARK.json. Exit code 0 when every check passes, 1 when one fails,
2 when the checkout holds no mildspde sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
RESID_LIMIT = 1e-12
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class StudyFailed(Exception):
    pass


class Outcome(NamedTuple):
    metrics: dict
    attempted: int
    failures: list                 # one entry per failed study
    lines: list                    # report lines to print
    probe: dict                    # output of the study process whose blas_threads
                                   # and draw_ns go into the env record


def spawn(args, deadline: float) -> dict:
    """Run bench/study.py with `args`; return its JSON line."""
    env = dict(os.environ, **BLAS_PIN, BENCH_T0=repr(time.time()))
    proc = subprocess.Popen([sys.executable, str(BENCH / "study.py"), *args],
                            cwd=ROOT, env=env, text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise StudyFailed(f"study.py {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)     # leftover pool workers, if any
        except ProcessLookupError:
            pass
        tail = err.strip().splitlines()[-1:] or ["(no stderr)"]
        raise StudyFailed(f"study.py {' '.join(args)} exited {proc.returncode}: {tail[0]}")
    return json.loads(out.strip().splitlines()[-1])


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def environment(wl, seed: int, workers: int, probe: dict) -> dict:
    import numpy as np
    from mildspde.noise import substream

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "bit_generator": type(substream(seed, 0).bit_generator).__name__,
        "draw_ns": probe.get("draw_ns"),
        "workers": workers,
        "blas_threads": probe.get("blas_threads"),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": wl.name,
        "seed": seed,
        "default_seed": wl.default_seed,
    }


def make_check(wl, tiny: bool):
    """check(name, csv_text, seen) -> problems of one report, including CSV
    bytes that differ from an earlier report of this run (`seen`)."""
    import checks
    problem = wl.problem()
    suffix = ".tiny.csv" if tiny else ".csv"
    reference = (BENCH / "reference" / (wl.name + suffix)).read_text()

    def check(name, csv_text, seen):
        return (checks.check_report(csv_text, problem, reference)
                + checks.check_same_csv(name, csv_text, seen))
    return check


def timed_run(wl, args, deadline, check):
    """Setup samples, then untraced studies for about args.seconds."""
    base = [wl.name, str(args.seed)]
    tiny = ["--tiny"] if args.tiny else []
    warm = spawn(base + ["setup"] + tiny, deadline)   # fills __pycache__, not counted
    setups = [spawn(base + ["setup"] + tiny, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    studies, failures, csvs = [], [], {}
    start = time.monotonic()
    while True:
        t = time.monotonic()
        name = f"study {len(studies) + len(failures) + 1}"
        try:
            res = spawn(base + ["timed"] + tiny, deadline)
        except StudyFailed as exc:
            failures.append(f"{name}: {exc}")
        else:
            problems = check(name, res["csv"], csvs)
            if problems:
                failures.append(f"{name}: " + "; ".join(problems))
            else:
                studies.append(res)
        now, took = time.monotonic(), time.monotonic() - t
        if now + took > start + args.seconds or now + took > deadline:
            break
    attempted = len(studies) + len(failures)
    if not studies:
        return Outcome({}, attempted, failures, [], warm)
    setups += [r["setup_s"] for r in studies]
    metrics = {
        "study_s": statistics.median(r["study_s"] for r in studies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in studies),
    }
    lines = [
        f"  study_s      {metrics['study_s']:.4f} s   median of {len(studies)} studies"
        f" x {wl.paths_for(args.tiny)} paths",
        f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setups)}",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  median of {len(studies)}",
    ]
    return Outcome(metrics, attempted, failures, lines, warm)


def traced_run(wl, args, deadline, check):
    """Untraced study at the workload's workers (and at 1), then a traced one."""
    base = [wl.name, str(args.seed)]
    tiny = ["--tiny"] if args.tiny else []
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}{'-tiny' if args.tiny else ''}-seed{args.seed}.json"
    runs = [("untraced", ["timed"])]
    if wl.workers > 1:
        runs.append(("untraced-1-worker", ["timed", "--workers", "1"]))
    runs.append(("traced", ["traced", "--trace-out", str(trace_file)]))
    results, failures, csvs = {}, [], {}
    for name, mode in runs:
        try:
            res = spawn(base + mode + tiny, deadline)
        except StudyFailed as exc:
            failures.append(f"{name}: {exc}")
            continue
        problems = check(name, res["csv"], csvs)
        resid = res.get("layers", {}).get("noise.identity_resid_max", 0.0)
        if not resid <= RESID_LIMIT:
            problems.append(f"packet identity residual {resid:.3e} > {RESID_LIMIT:g}")
        if problems:
            failures.append(f"{name}: " + "; ".join(problems))
        results[name] = res
    metrics, lines = {}, []
    traced = results.get("traced")
    untraced = results.get("untraced-1-worker", results.get("untraced"))
    if traced and untraced:
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = traced["study_s"] / untraced["study_s"]
        label, secs = traced["largest_span"]
        lines.append(f"  largest span: {label} {secs:.4f} s of {traced['study_s']:.4f} s traced")
        lines.append("  self seconds per module: " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(traced["self_s"].items())))
        lines.append("  step_us per kind run: " + ", ".join(
            f"{k} {v:.3f}" for k, v in traced["step_us"].items()))
        lines.append(f"  spans written to {trace_file.relative_to(ROOT)}")
    return Outcome(metrics, len(runs), failures, lines, traced or {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Study-level benchmark of mildspde.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken workloads for bench/selftest.py")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mildspde" / "__init__.py").is_file():
        print(f"bench: no mildspde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    check = make_check(wl, args.tiny)

    deadline = time.monotonic() + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    print(f"bench {wl.name} seed={args.seed} trace={args.trace} "
          f"{'tiny ' if args.tiny else ''}workers={wl.workers}")
    blas = int(BLAS_PIN["OPENBLAS_NUM_THREADS"])
    if wl.workers * blas > nproc:
        out = Outcome({}, 1, [f"{wl.workers} workers x {blas} BLAS thread(s) exceed "
                              f"the {nproc} usable CPUs"], [], {})
    else:
        try:
            out = (traced_run if args.trace else timed_run)(wl, args, deadline, check)
        except StudyFailed as exc:           # a setup-only process failed
            out = Outcome({}, 1, [str(exc)], [], {})
    kind = "per_layer" if args.trace else "end_to_end"
    lines = out.lines
    if args.trace:
        lines = [f"  {m['name']:<28} {out.metrics[m['name']]!r} {m['unit']}"
                 for m in declared[kind] if m["name"] in out.metrics] + lines
    n_failed = len(out.failures)
    lines.append(f"  fail_frac    {n_failed / out.attempted:.4f} 1   "
                 f"{n_failed} of {out.attempted} studies failed")
    missing = [m["name"] for m in declared[kind] if m["name"] not in out.metrics]
    if missing and not n_failed:
        lines.append(f"  FAILED no value for {', '.join(missing)}")
    lines += [f"  FAILED {failure}" for failure in out.failures]
    for line in lines:
        print(line)
    print("env " + json.dumps(environment(wl, args.seed, wl.workers, out.probe)))
    result = {
        "correct": not n_failed and not missing,
        "attempted": out.attempted,
        "failed": n_failed,
        "metrics": {m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
                    for m in declared[kind] if m["name"] in out.metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
