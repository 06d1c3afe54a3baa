"""Fast tests of the benchmark itself (under a minute on two cores).

    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it and the benchmark stays outside that run's time.
"""

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny(name):
    wl = workloads.WORKLOADS[name]
    return wl, wl.problem(), (BENCH / "reference" / f"{name}.tiny.csv").read_text()


def _edit(text, row, column, fn):
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[col] = fn(fields[col])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _args(name, trace):
    return argparse.Namespace(workload=name, seed=7, seconds=0, trace=trace, tiny=True)


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_end_to_end(name, trace):
    proc = _bench(name, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in DECLARED[kind]}
    for metric in [m["name"] for m in DECLARED[kind]] + ([] if trace else ["fail_frac"]):
        assert f" {metric} " in proc.stdout
    assert "env {" in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("c7-dfm-ref", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""


def test_reference_tables_pass_their_own_checks():
    for name in workloads.WORKLOADS:
        for suffix in (".csv", ".tiny.csv"):
            text = (BENCH / "reference" / f"{name}{suffix}").read_text()
            assert checks.check_report(text, workloads.WORKLOADS[name].problem(), text) == []


def test_nan_error_fails():
    _, problem, text = _tiny("c7-dfm-ref")
    bad = _edit(text, 0, "error", lambda v: "nan")
    assert any("error = nan" in p for p in checks.check_report(bad, problem, text))


def test_wrong_cost_ledger_fails():
    _, problem, text = _tiny("mil-allgrid-ex3")
    bad = _edit(text, 3, "cost_ledger", lambda v: str(int(v) + 1))
    assert any("cost_ledger" in p for p in checks.check_report(bad, problem, text))


def test_malformed_report_fails():
    _, problem, text = _tiny("c7-dfm-ref")
    bad = _edit(text, 2, "std", lambda v: "")
    assert any("malformed" in p for p in checks.check_report(bad, problem, text))


def _scale(text, rows, factor):
    """Scale error and std of the given rows together, as a defect that
    scales the per-path errors would."""
    for row in rows:
        for column in ("error", "std"):
            text = _edit(text, row, column, lambda v: repr(float(v) * factor))
    return text


def test_band_tolerates_one_row():
    name = "c7-dfm-ref"
    text = (BENCH / "reference" / f"{name}.csv").read_text()
    one = _edit(text, 0, "error", lambda v: repr(float(v) * 10))
    assert checks.band_outliers(checks.parse_csv(one), checks.parse_csv(text))
    assert checks.check_report(one, workloads.WORKLOADS[name].problem(), text) == []


@pytest.mark.parametrize("name,scheme,factor", [
    ("c7-dfm-ref", "DFM", 2.3), ("c7-dfm-ref", "DFM", 0.22), ("c7-dfm-ref", "EES", 3.8),
    ("fulltier-ex2", "MIL", 2.3), ("fulltier-ex2", "EES", 0.32),
    ("mil-allgrid-ex3", "MIL", 4.3), ("mil-allgrid-ex3", "DFM", 0.16),
])
def test_scheme_shift_fails(name, scheme, factor):
    """A scheme's error and std scaled together by the smallest factor
    bench/README.md says the check detects at these path counts."""
    text = (BENCH / "reference" / f"{name}.csv").read_text()
    rows = [i for i, r in enumerate(checks.parse_csv(text)) if r["scheme"] == scheme]
    bad = _scale(text, rows, factor)
    problems = checks.check_report(bad, workloads.WORKLOADS[name].problem(), text)
    assert any(p.startswith(f"{scheme} errors x") for p in problems), problems


def test_corrupted_report_counts_toward_fail_frac():
    wl, _, _ = _tiny("c7-dfm-ref")
    check = run.make_check(wl, tiny=True)

    def corrupting(name, csv_text, seen):
        return check(name, _edit(csv_text, 1, "error", lambda v: "nan"), seen)

    out = run.timed_run(wl, _args(wl.name, 0), time.monotonic() + 120, corrupting)
    assert out.attempted == 1 and len(out.failures) == 1 and out.metrics == {}


def test_csv_differing_between_worker_counts_fails():
    wl, _, _ = _tiny("fulltier-ex2")
    check = run.make_check(wl, tiny=True)

    def perturb_one_worker(name, csv_text, seen):
        if name == "untraced-1-worker":
            csv_text = _edit(csv_text, 0, "error", lambda v: repr(float(v) * (1 + 1e-12)))
        return check(name, csv_text, seen)

    out = run.traced_run(wl, _args(wl.name, 1), time.monotonic() + 120, perturb_one_worker)
    assert out.attempted == 3 and len(out.failures) == 1
    assert out.failures[0].startswith("untraced-1-worker") and "differs" in out.failures[0]
