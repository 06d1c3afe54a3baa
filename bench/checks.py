"""Output checks on a study report. Each check returns a list of problems;
an empty list means the report passed. A study with any problem counts as
failed in fail_frac.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from collections import defaultdict
from typing import Dict, List, Optional

from mildspde.cost import cost_formula, ledger_expected
from mildspde.problems import ProblemSpec
from mildspde.schemes import MILSTEIN_KINDS

KEY = ("scheme", "N", "M", "K", "D", "paths")
BAND_SIGMAS = 3.0


def parse_csv(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _label(row) -> str:
    return "/".join(row[k] for k in KEY[:5])


def check_rows(rows, problem: ProblemSpec) -> List[str]:
    """Finite positive error and std; both cost columns match the cost model."""
    problems = []
    for row in rows:
        label = _label(row)
        for col in ("error", "std"):
            value = float(row[col])
            if not (math.isfinite(value) and value > 0):
                problems.append(f"{label}: {col} = {row[col]} is not finite and positive")
        kind, n, m, k = row["scheme"], int(row["N"]), int(row["M"]), int(row["K"])
        d: Optional[int] = int(row["D"]) if row["D"] else None
        ledger = m * ledger_expected(kind, n, k, d).total()
        if int(row["cost_ledger"]) != ledger:
            problems.append(f"{label}: cost_ledger {row['cost_ledger']} != M x ledger_expected = {ledger}")
        q = problem.params.q_dfm if kind in MILSTEIN_KINDS else None
        formula = cost_formula(kind, n, k, m, q)
        if int(row["cost_formula"]) != formula:
            problems.append(f"{label}: cost_formula {row['cost_formula']} != cost_formula() = {formula}")
    return problems


def band_outliers(rows, reference) -> List[str]:
    """Rows whose error lies outside 3 (std + std_ref) of the reference table,
    the band rule of acceptance criterion 8."""
    ref = {tuple(r[k] for k in KEY): r for r in reference}
    out = []
    for row in rows:
        base = ref[tuple(row[k] for k in KEY)]
        band = BAND_SIGMAS * (float(row["std"]) + float(base["std"]))
        gap = abs(float(row["error"]) - float(base["error"]))
        if not gap <= band:
            out.append(f"{_label(row)}: |{row['error']} - {base['error']}| > {band:.3e}")
    return out


def scheme_shifts(rows, reference) -> List[str]:
    """Schemes whose errors, pooled over their rows, lie more than 3 sigma
    from the reference table's in log ratio.

    A defect that scales a scheme's per-path errors by c scales its error
    and std alike, so a band in units of the run's own std barely notices
    it; log(error / error_ref) moves by log c while the relative stds stay.
    sigma^2 is the mean over the scheme's rows of (std / error)^2 +
    (std_ref / error_ref)^2: a scheme's rows share their paths, so their
    ratios are taken as fully correlated and pooling does not shrink sigma.
    """
    ref = {tuple(r[k] for k in KEY): r for r in reference}
    by_scheme = defaultdict(list)
    for row in rows:
        base = ref[tuple(row[k] for k in KEY)]
        e, s = float(row["error"]), float(row["std"])
        e0, s0 = float(base["error"]), float(base["std"])
        by_scheme[row["scheme"]].append((math.log(e / e0), (s / e) ** 2 + (s0 / e0) ** 2))
    out = []
    for scheme, pairs in by_scheme.items():
        shift = statistics.fmean(lr for lr, _ in pairs)
        limit = BAND_SIGMAS * math.sqrt(statistics.fmean(v for _, v in pairs))
        if not abs(shift) <= limit:
            out.append(f"{scheme} errors x{math.exp(shift):.3g} of the reference table's, "
                       f"outside x{math.exp(-limit):.3g}..x{math.exp(limit):.3g}")
    return out


def check_band(rows, reference) -> List[str]:
    """Fails when the ladder differs from the reference table's, when more
    than a third of the rows lie outside the band, or when a scheme's pooled
    error ratio leaves its 3-sigma range (`scheme_shifts`).

    A single row outside the band is not a failure: with a handful of paths
    the per-path squared errors are heavy-tailed and the delta-method std
    is itself noisy, so one of ~12 rows leaves a 3-sigma band for several
    percent of seeds (bench/README.md gives the measured rates and the
    smallest shift each workload detects).
    """
    if sorted(tuple(r[k] for k in KEY) for r in rows) != \
            sorted(tuple(r[k] for k in KEY) for r in reference):
        return ["report rows differ from the reference table's (scheme,N,M,K,D,paths)"]
    out = band_outliers(rows, reference)
    problems = scheme_shifts(rows, reference)
    if 3 * len(out) > len(rows):
        problems.append(f"{len(out)} of {len(rows)} rows outside the band: " + "; ".join(out))
    return problems


def check_report(csv_text: str, problem: ProblemSpec, reference_text: str) -> List[str]:
    rows = parse_csv(csv_text)
    if not rows:
        return ["report has no rows"]
    try:
        return check_rows(rows, problem) + check_band(rows, parse_csv(reference_text))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"]


def check_same_csv(name: str, text: str, seen: Dict[str, str]) -> List[str]:
    """CSV bytes must agree across repetitions of one seed and across worker
    counts: compares `text` with the run's first report, then records it."""
    problems = []
    if seen:
        first, first_text = next(iter(seen.items()))
        if text != first_text:
            problems.append(f"CSV of {name} differs from CSV of {first}")
    seen[name] = text
    return problems
