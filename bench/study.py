"""One benchmark study in a fresh interpreter; prints one JSON line.

    python3 bench/study.py WORKLOAD SEED {setup,timed,traced}
        [--workers W] [--tiny] [--trace-out FILE]

bench/run.py starts this script once per measurement and sets BENCH_T0 to
the wall-clock time at which it started the process, so that setup_s counts
interpreter start-up and imports. Modes:

    setup   import mildspde, build the problem, plan the ladder, construct
            the StudyConfig; report setup_s
    timed   setup, then one untraced run_study (study_s, peak_rss_mb, CSV)
    traced  setup, then one single-process run_study under bench/tracer.py;
            reports the per-layer metrics and writes the spans to FILE

Every mode ends, after peak RSS is read, by calibrating draw_ns (ns per
normal from a `substream` generator) in the same process.
"""

import os
import sys
import time

T0 = float(os.environ.get("BENCH_T0", time.time()))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=("setup", "timed", "traced"))
    ap.add_argument("--workers", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    import tracer
    import workloads
    from mildspde.harness import run_study

    wl = workloads.WORKLOADS[args.workload]
    problem = wl.problem()
    t_plan = time.perf_counter()
    ladder = wl.ladder(problem, args.tiny)
    plan_s = time.perf_counter() - t_plan
    config = wl.config(problem, ladder, args.seed, args.tiny, args.workers)
    out = {"setup_s": time.time() - T0}
    if args.mode == "timed":
        t = time.perf_counter()
        report = run_study(config)
        out["study_s"] = time.perf_counter() - t
    elif args.mode == "traced":
        tr = tracer.Tracer()
        report, out["study_s"] = tr.run_study(config)
    out["peak_rss_mb"] = peak_rss_mb()
    out["blas_threads"] = blas_threads()
    out["draw_ns"] = tracer.draw_ns(args.seed)
    if args.mode == "traced":
        out["layers"] = tr.layer_metrics(config, out["draw_ns"], plan_s)
        out["step_us"] = tr.step_us()
        out["self_s"] = tr.self_seconds()
        out["largest_span"] = tr.largest_span()
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": wl.name, "seed": args.seed, "tiny": args.tiny,
                           "layers": out["layers"], "self_s": out["self_s"],
                           "largest_span": out["largest_span"],
                           "spans": tr.span_records()}, fh)
    if args.mode != "setup":
        out["csv"] = report.csv_text()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
