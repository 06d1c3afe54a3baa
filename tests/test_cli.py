import json

import pytest

from mildspde.cli import main


def test_cost_subcommand(capsys):
    assert main(["cost", "--example", "1", "--ladder", "2,4"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "scheme,N,M,K,D,cost"
    assert "DFM,2,4,2,3,94" in out
    assert "EES,2,12,2,,96" in out


def test_cost_rounds_exactly(capsys):
    # 2 M K M^(-1/2) = 16384 exactly; a float ceiling with a relative fudge
    # read 2583707646
    assert main(["cost", "--example", "3", "--ladder", "8", "--schemes", "MIL"]) == 0
    assert "MIL,8,16777216,2,1,2583707648" in capsys.readouterr().out.split("\n")


def test_eoc_plans_beyond_float_range(capsys):
    # M = N^8 = 2^1024 is past the largest float
    assert main(["eoc", "--example", "3", "--ladder", str(2**128)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schemes"]["DFM"]["ladder"][0]["M"] == 2**1024


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


@pytest.mark.parametrize("key,value,message", [
    ("beta", "1", "beta must lie in [0,1)"),
    ("beta", "7/8", "gamma must exceed beta and be positive"),
    ("alpha", "0", "alpha must be positive"),
    ("rho_a", "-1", "rho_a must be positive"),
    ("rho_q", "1", "rho_q must exceed 1 for a trace-class covariance")])
def test_eoc_flags_and_config_reject_exponents_alike(key, value, message, tmp_path, capsys):
    path = _write_config(tmp_path, dict(_EXAMPLE1_CONFIG, **{key: value}))
    assert main(["eoc", "--config", path]) == 2
    from_config = capsys.readouterr().err
    flags = {"gamma": "7/8", "alpha": "9/4", key: value}
    argv = [f"--{name.replace('_', '-')}={v}" for name, v in flags.items()]
    assert main(["eoc", *argv]) == 2
    assert capsys.readouterr().err == from_config == f"error: {message}\n"


def test_eoc_without_parameters_exits_2(capsys):
    assert main(["eoc"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eoc_gamma_without_alpha_exits_2(capsys):
    assert main(["eoc", "--gamma", "7/8"]) == 2
    assert "error:" in capsys.readouterr().err


def test_euler_type_reference_depth_exits_2(capsys):
    rc = main(["study", "--example", "1", "--ladder", "2", "--schemes", "EES",
               "--paths", "2", "--ref-scheme", "LIE", "--ref-n", "8", "--ref-k", "2",
               "--ref-m", "64", "--ref-d", "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "series depth" in captured.err


def test_full_reference_with_config_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, _EXAMPLE1_CONFIG)
    rc = main(["study", "--config", path, "--full-reference", "--ladder", "2",
               "--schemes", "EES", "--paths", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--full-reference" in err


def test_cost_config_missing_key_exits_2(tmp_path, capsys):
    cfg = {k: v for k, v in _EXAMPLE1_CONFIG.items() if k != "gamma"}
    assert main(["cost", "--config", _write_config(tmp_path, cfg), "--ladder", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "gamma" in err


def test_cost_config_gamma_equal_beta_exits_2(tmp_path, capsys):
    cfg = {"p": 4, "rho_q": 3, "gamma": "1/2", "beta": "1/2", "delta": "1/2",
           "alpha": "7/3"}
    assert main(["cost", "--config", _write_config(tmp_path, cfg), "--ladder", "2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "gamma must exceed beta" in err


@pytest.mark.parametrize("cfg,key", [
    (dict(_EXAMPLE1_CONFIG, p=None), "config key p"),
    (dict(_EXAMPLE1_CONFIG, gamma=[1]), "config key gamma"),
    (dict(_EXAMPLE1_CONFIG, initial={"power": None}), "config key initial.power"),
    (dict(_EXAMPLE1_CONFIG, drift=["x"]), "unknown drift variant"),
    ([_EXAMPLE1_CONFIG], "JSON object")])
def test_cost_config_wrong_type_exits_2(cfg, key, tmp_path, capsys):
    assert main(["cost", "--config", _write_config(tmp_path, cfg), "--ladder", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and key in captured.err


@pytest.mark.parametrize("argv", [
    ["study", "--ladder", ",", "--paths", "2", "--ref-n", "4", "--ref-k", "2",
     "--ref-m", "64"],
    ["cost", "--ladder", ","],
    ["eoc", "--example", "1", "--ladder", ","],
    ["study", "--ladder", "2", "--schemes", ",", "--paths", "2", "--ref-n", "4",
     "--ref-k", "2", "--ref-m", "64"],
    ["cost", "--ladder", "2", "--schemes", ","]])
def test_empty_ladder_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if "--schemes" in argv:
        assert "error: --schemes needs at least one scheme" in captured.err
    else:
        assert "error: --ladder needs at least one N" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["eoc", "--gamma", "1/0", "--alpha", "9/4"], "gamma has an invalid value '1/0'"),
    (["eoc", "--gamma", "7/8", "--alpha", "x"], "alpha has an invalid value 'x'"),
    (["eoc", "--gamma", "7/8", "--alpha", "9/4", "--rho-q", "inf"],
     "rho_q has an invalid value 'inf'"),
    (["study", "--ladder", "2,x", "--paths", "2"],
     "--ladder takes comma-separated integers, got '2,x'"),
    (["cost", "--ladder", "2.5"], "--ladder takes comma-separated integers, got '2.5'")])
def test_malformed_numbers_are_named(argv, message, capsys):
    # the flag or field at fault is named; no traceback escapes main
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args,flag", [
    (["--samples", "0"], "--samples"),
    (["--samples", "1"], "--samples"),
    (["--k", "0"], "--k"),
    # oversized: each would ask numpy for gigabytes, so it is refused first
    (["--samples", "10", "--k", "100000000000"], "--k"),
    (["--samples", "100000000"], "--samples"),
    (["--samples", "10", "--d", "100000000000"], "--d"),
    # within the element cap, but its report would list 2048^2 entries (~1 GB)
    (["--samples", "2", "--k", "2048"], "--k"),
    (["--samples", "2", "--k", "65"], "--k")])
def test_noise_test_rejects_degenerate_sizes(args, flag, capsys):
    assert main(["noise-test", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and flag in captured.err


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_noise_test_rejects_non_finite_step_length(h, capsys):
    assert main(["noise-test", "--samples", "10", "--h", h]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "step length" in captured.err


@pytest.mark.parametrize("rho_q", ["nan", "inf"])
def test_noise_test_rejects_non_finite_rho_q(rho_q, capsys):
    assert main(["noise-test", "--samples", "10", "--rho-q", rho_q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--rho-q" in captured.err


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_study_rejects_non_finite_horizon(horizon, tmp_path, capsys):
    path = _write_config(tmp_path, dict(_EXAMPLE1_CONFIG, horizon=horizon))
    rc = main(["study", "--config", path, "--ladder", "2", "--schemes", "EES",
               "--paths", "2", "--ref-n", "4", "--ref-k", "2", "--ref-m", "64"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "horizon" in captured.err


@pytest.mark.parametrize("argv, seed", [
    (["study", "--ladder", "2", "--paths", "3", "--seed", "-1"], "-1"),
    (["noise-test", "--samples", "100", "--seed", "-3"], "-3"),
])
def test_negative_seed_is_named(argv, seed, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"seed must be a non-negative integer, got {seed}" in err
