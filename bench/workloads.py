"""The benchmark's study workloads.

Each workload is one `run_study` configuration. Its seed is an argument; the
default is the seed the acceptance suite uses for the same configuration.
`tiny=True` shrinks every resolution so the whole pipeline runs in seconds
(used by bench/selftest.py); the timed benchmark always uses the full size.
bench/README.md says why each workload exists and which modules it loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from mildspde.harness import (LadderRow, ReferenceSpec, StudyConfig,
                              paper_reference, plan_rows)
from mildspde.noise import choose_D1
from mildspde.problems import ProblemSpec, make_example

Ladder = Tuple[List[LadderRow], ReferenceSpec]


def _powers(lo: int, hi: int) -> List[int]:
    return [2**j for j in range(lo, hi + 1)]


def _c7_dfm_ref(problem: ProblemSpec, tiny: bool) -> Ladder:
    # criterion 7: DFM and EES against a DFM reference at the D1 depth
    n = 4 if tiny else 16
    q = problem.params.q_dfm
    ms = _powers(2, 4) if tiny else _powers(4, 9)
    rows = ([LadderRow("DFM", n=n, m=m, k=n, d=choose_D1(m, q)) for m in ms]
            + [LadderRow("EES", n=n, m=m, k=n) for m in ms])
    return rows, ReferenceSpec("DFM", n=n, k=n, m=2**7 if tiny else 2**13)


def _fulltier_ex2(problem: ProblemSpec, tiny: bool) -> Ladder:
    # criterion 8's published ladder and reference for example 2
    if tiny:
        return (plan_rows(problem, ("DFM", "MIL", "EES"), (2, 4)),
                ReferenceSpec("LIE", n=8, k=2, m=512))
    return (plan_rows(problem, ("DFM", "MIL", "EES"), (2, 4, 8, 16)),
            paper_reference(2))


def _mil_allgrid_ex3(problem: ProblemSpec, tiny: bool) -> Ladder:
    # q = 1/4, so every series depth (reference included) is D = 1
    n = 4 if tiny else 16
    q = problem.params.q_dfm
    ms = _powers(2, 4) if tiny else _powers(3, 7)
    rows = [LadderRow(s, n=n, m=m, k=n, d=choose_D1(m, q))
            for s in ("DFM", "MIL") for m in ms]
    return rows, ReferenceSpec("MIL", n=n, k=n, m=2**6 if tiny else 2**10)


@dataclass(frozen=True)
class Workload:
    name: str
    example: int
    default_seed: int
    paths: int
    workers: int
    error_at: str
    ladder: Callable[[ProblemSpec, bool], Ladder]

    def problem(self) -> ProblemSpec:
        return make_example(self.example)

    def paths_for(self, tiny: bool) -> int:
        return 3 if tiny else self.paths

    def config(self, problem: ProblemSpec, ladder: Ladder, seed: int,
               tiny: bool = False, workers: int = 0) -> StudyConfig:
        rows, reference = ladder
        return StudyConfig(problem=problem, rows=tuple(rows), reference=reference,
                           paths=self.paths_for(tiny), seed=seed,
                           error_at=self.error_at,
                           workers=workers or self.workers)


WORKLOADS = {w.name: w for w in (
    Workload("c7-dfm-ref", example=1, default_seed=2027, paths=4, workers=1,
             error_at="final", ladder=_c7_dfm_ref),
    Workload("fulltier-ex2", example=2, default_seed=8002, paths=6, workers=2,
             error_at="final", ladder=_fulltier_ex2),
    Workload("mil-allgrid-ex3", example=3, default_seed=8003, paths=5, workers=1,
             error_at="all-grid", ladder=_mil_allgrid_ex3),
)}
