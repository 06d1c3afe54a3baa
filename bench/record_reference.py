"""Record the reference tables the band check compares against.

    python3 bench/record_reference.py [--tiny]

Runs every workload's study once, untraced, at its default seed (the
acceptance suite's seed) and writes the report CSV to
bench/reference/WORKLOAD.csv (WORKLOAD.tiny.csv with --tiny). The stored
tables were recorded at the commit that introduced the benchmark.
"""

import argparse
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    for name, wl in workloads.WORKLOADS.items():
        res = run.spawn([name, str(wl.default_seed), "timed"] + (["--tiny"] if args.tiny else []),
                        time.monotonic() + 600)
        out = BENCH / "reference" / f"{name}{'.tiny' if args.tiny else ''}.csv"
        out.write_text(res["csv"])
        print(f"{out.relative_to(BENCH.parent)}: {res['study_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
