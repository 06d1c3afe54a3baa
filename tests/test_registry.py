"""The scheme registry is the one source of the scheme set: every consumer
accepts exactly its kinds, and no alias."""

from fractions import Fraction

import pytest

from mildspde.cli import main
from mildspde.cost import cost_formula, ledger_expected
from mildspde.eoc import PlanInput
from mildspde.harness import LadderRow
from mildspde.schemes import KINDS, MILSTEIN_KINDS, REGISTRY, SchemeConfig

BAD_KINDS = ("DFMA", "MILA", "XYZ")
PLAN = dict(gamma=Fraction(7, 8), beta=0, alpha=Fraction(9, 4), rho_a=2, rho_q=3)


def _consumers(kind):
    d = 2 if kind in MILSTEIN_KINDS else None
    return {
        "SchemeConfig": lambda: SchemeConfig(kind, n=4, k=2, m=8),
        "LadderRow": lambda: LadderRow(kind, n=4, m=8, k=2, d=d),
        "cost_formula": lambda: cost_formula(kind, 4, 2, 8, Fraction(7, 8)),
        "ledger_expected": lambda: ledger_expected(kind, 4, 2, d),
        "PlanInput": lambda: PlanInput(scheme=kind, **PLAN),
    }


def _study(kind):
    return main(["study", "--example", "1", "--ladder", "2", "--schemes", kind,
                 "--paths", "2", "--seed", "0", "--ref-n", "4", "--ref-k", "2",
                 "--ref-m", "64"])


def test_registry_order_and_flags():
    assert KINDS == ("DFM", "MIL", "EES", "LIE")
    assert MILSTEIN_KINDS == ("DFM", "MIL")
    assert all(REGISTRY[k].milstein == (k in MILSTEIN_KINDS) for k in KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_accepted(kind, capsys):
    for build in _consumers(kind).values():
        build()
    assert _study(kind) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"{kind},2,")


@pytest.mark.parametrize("kind", BAD_KINDS)
def test_unknown_kinds_rejected(kind, capsys):
    for build in _consumers(kind).values():
        with pytest.raises(ValueError):
            build()
    assert _study(kind) == 2
    assert "error:" in capsys.readouterr().err
