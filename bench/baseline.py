"""Run the benchmark on several seeds per workload and summarize the spread.

    python3 bench/baseline.py [--seeds 10] [--trace 0|1] [--out FILE]

Each run is `bench/run.py --workload W --seed S --seconds RUN_SECONDS
--trace T` for every workload of BENCHMARK.json, with RUN_SECONDS from
there and seeds 1, 2, ..., --seeds. Per workload and metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, next to the metric's bound. With --out the summary, the
raw values and the env record of the first run are written as JSON;
bench/baseline.json (--trace 0, ten seeds) and bench/baseline_layers.json
(--trace 1, two seeds) were made this way. Any run that fails or reports correct=false is listed and
makes the exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, env, result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in declared[kind]}
    summary, failures, env = {}, [], None
    seeds = list(range(1, args.seeds + 1))
    for workload in [w["name"] for w in declared["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in seeds:
            code, run_env, result = run_once(workload, seed, declared["run_seconds"], args.trace)
            env = env or run_env
            if code != 0 or not result or not result["correct"]:
                failures.append(f"{workload} seed {seed}: exit {code}")
                continue
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()), flush=True)
        summary[workload] = {name: dict(summarize(v), bound=bounds[name])
                             for name, v in values.items() if v}
        for name, s in summary[workload].items():
            print(f"  {workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" (bound {s['bound']})" if s["bound"] is not None else ""), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"trace": args.trace, "run_seconds": declared["run_seconds"],
             "seeds": seeds,
             "env": env, "failures": failures, "workloads": summary}, indent=2) + "\n")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
