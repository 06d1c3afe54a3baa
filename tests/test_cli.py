import json

import pytest

from mildspde.cli import main


def test_cost_subcommand(capsys):
    assert main(["cost", "--example", "1", "--ladder", "2,4"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "scheme,N,M,K,D,cost"
    assert "DFM,2,4,2,3,94" in out
    assert "EES,2,12,2,,96" in out


def test_eoc_subcommand(capsys):
    assert main(["eoc", "--example", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schemes"]["DFM"]["eoc"] == "14/65"
    assert data["case"]["row"] == 1
    assert data["ranking"][0] in ("DFM", "EES")


def test_eoc_explicit_parameters(capsys):
    assert main(["eoc", "--gamma", "7/8", "--alpha", "9/4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schemes"]["MIL"]["eoc"] == "189/460"


def test_noise_test_subcommand(capsys):
    assert main(["noise-test", "--samples", "2000", "--seed", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["draws_per_sample"] == 42.0
    assert data["max_identity_residual"] < 1e-12


def test_study_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    mirror = tmp_path / "report.json"
    rc = main(["study", "--example", "1", "--ladder", "2", "--schemes", "DFM,EES",
               "--paths", "4", "--seed", "9", "--ref-n", "4", "--ref-k", "2",
               "--ref-m", "256", "--out", str(out), "--json", str(mirror)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scheme,N,M,K,D,cost_formula,cost_ledger,error,std,paths"
    assert len(lines) == 3
    echo = json.loads(mirror.read_text())["config"]
    assert echo["seed"] == 9 and echo["paths"] == 4


def test_study_with_config_file(tmp_path):
    cfg = {"p": "4/3", "rho_q": 3, "gamma": "7/8", "delta": "3/8",
           "alpha": "9/4", "drift": "affine", "initial": "zero"}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.csv"
    rc = main(["study", "--config", str(path), "--ladder", "2", "--schemes", "EES",
               "--paths", "3", "--seed", "0", "--ref-n", "4", "--ref-k", "2",
               "--ref-m", "128", "--out", str(out)])
    assert rc == 0
    assert out.exists()


def test_invalid_configuration_exits_nonzero(capsys):
    rc = main(["study", "--example", "1", "--ladder", "32", "--schemes", "DFM",
               "--paths", "4", "--seed", "0", "--ref-n", "4", "--ref-k", "2",
               "--ref-m", "64"])   # ladder N exceeds reference N
    assert rc != 0
    assert "error:" in capsys.readouterr().err


_EXAMPLE1_CONFIG = {"p": "4/3", "rho_q": 3, "gamma": "7/8", "delta": "3/8",
                    "alpha": "9/4", "drift": "affine", "initial": "zero"}


def _write_config(tmp_path, cfg):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_eoc_loads_config(tmp_path, capsys):
    path = _write_config(tmp_path, _EXAMPLE1_CONFIG)
    assert main(["eoc", "--config", path, "--ladder", "2,4"]) == 0
    from_config = capsys.readouterr().out
    assert main(["eoc", "--example", "1", "--ladder", "2,4"]) == 0
    assert from_config == capsys.readouterr().out


def test_eoc_without_parameters_exits_2(capsys):
    assert main(["eoc"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eoc_gamma_without_alpha_exits_2(capsys):
    assert main(["eoc", "--gamma", "7/8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_full_reference_with_config_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, _EXAMPLE1_CONFIG)
    rc = main(["study", "--config", path, "--full-reference", "--ladder", "2",
               "--schemes", "EES", "--paths", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--full-reference" in err


def test_reference_presets_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--example", "1", "--scaled-reference", "--full-reference",
              "--ladder", "2", "--schemes", "EES", "--paths", "2"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cost_config_missing_key_exits_2(tmp_path, capsys):
    cfg = {k: v for k, v in _EXAMPLE1_CONFIG.items() if k != "gamma"}
    assert main(["cost", "--config", _write_config(tmp_path, cfg), "--ladder", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "gamma" in err
