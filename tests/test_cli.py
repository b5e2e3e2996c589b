import json
import math
from pathlib import Path

import numpy as np
import pytest

from ruinlab import ConfigError, cli, lundberg, parse_experiment, validate
from ruinlab.cli import main
from ruinlab.engine import REL_TOL, StepKernel

GOLDEN_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "golden.json"

BETA2 = {
    "version": 1,
    "seed": 42,
    "model": {
        "claim": {"kind": "exponential", "rate": 1.0},
        "interarrival": {"kind": "exponential", "rate": 1.0},
        "premium": {"mode": "constant", "c": 0.1},
        "regime": {"mode": "constant",
                   "theta": {"kind": "point", "mu": 0.06, "half_sigma2": 0.02}},
    },
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_lundberg_golden_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "version": 1,
        "model": {
            "claim": {"kind": "exponential", "rate": 1.0},
            "interarrival": {"kind": "exponential", "rate": 1.0},
            "premium": {"mode": "zero"},
            "regime": {"mode": "constant", "theta": {"kind": "zeta", "p": 4}},
        },
    })
    assert main(["lundberg", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q_plus"] == pytest.approx(0.6180339887, abs=1e-9)
    assert doc["status"] == "no_root"
    assert doc["endpoint_verdict"] == "endpoint_finite"


def test_lundberg_reuses_report_geometry(tmp_path, capsys, monkeypatch):
    calls = []
    real = lundberg.q_plus_compute

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    sums = []
    real_sum = lundberg.countable_sum

    def counted_sum(*args, **kwargs):
        sums.append(args)
        return real_sum(*args, **kwargs)

    monkeypatch.setattr(lundberg, "q_plus_compute", counted)
    monkeypatch.setattr(lundberg, "countable_sum", counted_sum)
    assert main(["lundberg", "--config", str(GOLDEN_CONFIG)]) == 0
    assert len(calls) == 1
    assert len(sums) == 1      # one pass over the countable series
    assert json.loads(capsys.readouterr().out) == {
        "beta": None, "endpoint_verdict": "endpoint_finite",
        "hypothesis_flags": {"claim_moment_ok": None, "cond_tau_ok": None},
        "phi_at_endpoint": 0.6864049476390953,
        "q_nu": 0.6180339887498949, "q_plus": 0.6180339887498949,
        "status": "no_root", "touching_points": [[0.0, 1.0]]}
    assert main(["lundberg", "--config", write_cfg(tmp_path, BETA2)]) == 0
    assert len(calls) == 2
    assert json.loads(capsys.readouterr().out)["endpoint_verdict"] == \
        "endpoint_infinite"


def test_lundberg_beta2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BETA2)
    assert main(["lundberg", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta"] == pytest.approx(2.0, abs=1e-9)
    assert doc["hypothesis_flags"]["cond_tau_ok"] is True


def test_missing_field_names_path(tmp_path, capsys):
    bad = {"version": 1, "model": {k: v for k, v in BETA2["model"].items()
                                   if k != "claim"}}
    assert main(["lundberg", "--config", write_cfg(tmp_path, bad)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "config"
    assert "claim" in doc["field"]


def test_missing_config_exits_2(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    assert main(["lundberg", "--config", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "config" and doc["field"] == path


@pytest.mark.parametrize("argv", [
    ["lundberg", "--tol", "1e-10"],
    ["simulate", "--u", "5", "--workers", "2"],
    ["simulate", "--u", "5", "--out", "run"]], ids=["tol", "workers", "out"])
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv[:1] + ["--config", "unread.json"] + argv[1:])
    assert err.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_shipped_configs(capsys):
    for path in sorted(GOLDEN_CONFIG.parent.glob("*.json")):
        with open(path) as fh:
            parse_experiment(json.load(fh))
    beta2 = str(GOLDEN_CONFIG.parent / "beta2.json")
    assert main(["lundberg", "--config", beta2]) == 0
    assert abs(json.loads(capsys.readouterr().out)["beta"] - 2.0) <= 1e-14


def test_unknown_key_rejected(tmp_path, capsys):
    bad = dict(BETA2)
    bad["model"] = dict(BETA2["model"], typo_key=1)
    assert main(["lundberg", "--config", write_cfg(tmp_path, bad)]) == 2
    assert "typo_key" in capsys.readouterr().out


@pytest.mark.parametrize("block, value, path, key", [
    ("validate", {"suite": "quick"}, "$", "validate"),
    ("output", {"path": "out/run", "format": "csv"}, "$.output", "format"),
    ("model", dict(BETA2["model"], grid_step=1e-3), "$.model", "grid_step"),
    ("ruin", {"premium_nodes": 8}, "$.ruin", "premium_nodes"),
    ("lundberg", {"method": "monte_carlo"}, "$", "lundberg"),
    ("lundberg", {"mc_samples": 1000}, "$", "lundberg"),
    ("lundberg", {"tol": 1e-10}, "$", "lundberg"),
    ("model", dict(BETA2["model"], mu_lower=0.06), "$.model", "mu_lower"),
    ("model", dict(BETA2["model"], sigma_upper=0.2), "$.model", "sigma_upper"),
    ("model", dict(BETA2["model"], c_bar=0.1), "$.model", "c_bar"),
    ("perpetuity", {"rel_tol": 1e-12}, "$.perpetuity", "rel_tol"),
], ids=["validate", "output", "grid_step", "premium_nodes", "method",
        "mc_samples", "tol", "mu_lower", "sigma_upper", "c_bar", "rel_tol"])
def test_unread_schema_fields_rejected(block, value, path, key):
    # validate.suite, output.format, model.grid_step and ruin.premium_nodes
    # were accepted and never read by the library (or only ever set to the
    # default); lundberg.method and lundberg.mc_samples selected a Monte
    # Carlo root route that no longer exists, and lundberg.tol, the block's
    # last key, a bisection tolerance that the root finder no longer has;
    # model.mu_lower, model.sigma_upper and model.c_bar restated bounds that
    # the model reads off its laws; perpetuity.rel_tol pinned the samplers
    # below the audited engine tolerance
    with pytest.raises(ConfigError) as err:
        parse_experiment(dict(BETA2, **{block: value}))
    assert err.value.field == path
    assert f"{path}: unknown keys ['{key}']" == str(err.value)


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    bad = dict(BETA2)
    bad["model"] = dict(BETA2["model"],
                        regime={"mode": "constant",
                                "theta": {"kind": "point", "mu": 0.01,
                                          "half_sigma2": 0.02}})
    assert main(["lundberg", "--config", write_cfg(tmp_path, bad)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "hypothesis_violation"
    assert doc["condition"] == "mean_drift_positive"


def test_perpetuity_without_exponent_names_it(capsys):
    # zeta p = 4 drifts up (E K = 0.916), but phi_nu stays below 1 up to its
    # endpoint: the drift holds and the exponent is what is missing
    assert main(["perpetuity", "--config", str(GOLDEN_CONFIG)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "hypothesis_violation"
    assert doc["condition"] == "decay_exponent"


def test_ruin_rejects_negative_loading(tmp_path, capsys):
    bad = dict(BETA2)
    bad["model"] = dict(BETA2["model"])
    del bad["model"]["regime"]
    bad["model"]["premium"] = {"mode": "constant", "c": 0.5}
    cfg = write_cfg(tmp_path, bad)
    assert main(["ruin", "--config", cfg, "--u", "5", "--paths", "1000"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["condition"] == "safety_loading"


@pytest.mark.parametrize("command", ["lundberg", "perpetuity"])
def test_exponent_commands_need_investment(tmp_path, capsys, command):
    # without investment every step multiplier is 1: no exponent, no R
    bad = dict(BETA2, model=dict(BETA2["model"]))
    del bad["model"]["regime"]
    assert main([command, "--config", write_cfg(tmp_path, bad)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["condition"] == "mean_drift_positive"


@pytest.mark.parametrize("claim,premium,interarrival", [
    ({"kind": "deterministic", "value": 0.0}, {"mode": "zero"},
     {"kind": "exponential", "rate": 1.0}),
    ({"kind": "deterministic", "value": 0.0},
     {"mode": "exponential_decay", "c1": 5.0, "gamma_rate": -0.01},
     {"kind": "exponential", "rate": 1.0}),
    ({"kind": "deterministic", "value": 0.5}, {"mode": "constant", "c": 0.25},
     {"kind": "deterministic", "value": 2.0}),
], ids=["no_claims", "no_claims_decaying_premium", "zero_increment"])
def test_ruin_without_a_falling_reserve_runs(tmp_path, capsys, claim,
                                             premium, interarrival):
    # the increment c tau - xi is never negative, so psi = 0, not certain
    # ruin, even where E xi >= c E tau or the premium decays
    cfg = dict(BETA2, model={"claim": claim, "interarrival": interarrival,
                             "premium": premium})
    args = ["ruin", "--config", write_cfg(tmp_path, cfg), "--u", "1",
            "--paths", "1000"]
    assert main(args) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[:2] == ["1", "0"]


@pytest.mark.parametrize("premium", [
    {"mode": "zero"},
    {"mode": "exponential_decay", "c1": 5.0, "gamma_rate": -0.01},
], ids=["zero", "exponential_decay"])
def test_ruin_without_investment_needs_a_lasting_premium(tmp_path, capsys,
                                                         premium):
    # no premium, or one that pays c1 / |gamma_rate| in all, cannot outlast
    # the claims, so ruin is certain; c1 = 5 beats the mean claim at first
    bad = dict(BETA2, model=dict(BETA2["model"], premium=premium))
    del bad["model"]["regime"]
    cfg = write_cfg(tmp_path, bad)
    assert main(["ruin", "--config", cfg, "--u", "5", "--paths", "1000"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["condition"] == "safety_loading"


@pytest.mark.parametrize("extra, argv, field", [
    ({}, ["ruin", "--paths", "50"], "--paths"),
    ({}, ["ruin", "--u=5,-1"], "--u"),
    ({"ruin": {"n_paths": 50}}, ["ruin"], "$.ruin.n_paths"),
    ({"ruin": {"u_grid": [10, -1]}}, ["ruin"], "$.ruin.u_grid"),
    ({}, ["perpetuity", "--samples", "5000"], "--samples"),
    ({"perpetuity": {"samples": 5000}}, ["perpetuity"],
     "$.perpetuity.samples"),
    ({"ruin": {"max_steps": 0}}, ["ruin"], "$.ruin.max_steps"),
    ({"ruin": {"barrier_multiple": -1.0}}, ["ruin"],
     "$.ruin.barrier_multiple"),
    ({"perpetuity": {"n_max": 0}}, ["perpetuity"], "$.perpetuity.n_max"),
    # json.dumps writes these as NaN, which Python's json reads back
    ({"model": dict(BETA2["model"], claim={"kind": "exponential",
                                          "rate": math.nan})},
     ["ruin"], "$.model.claim.rate"),
    ({"model": dict(BETA2["model"], premium={"mode": "constant",
                                            "c": math.nan})},
     ["ruin"], "$.model.premium.c"),
    # an explicit zero is the flag's value, not a fall-back to the config's
    ({"ruin": {"n_paths": 50}}, ["ruin", "--paths", "0"], "--paths"),
    ({"perpetuity": {"samples": 5000}}, ["perpetuity", "--samples", "0"],
     "--samples"),
    # JSON's true and false are no numbers, though Python's bool is an int
    ({"model": dict(BETA2["model"], claim={"kind": "exponential",
                                          "rate": True})},
     ["ruin"], "$.model.claim.rate"),
    ({"seed": False}, ["ruin"], "$.seed"),
    # every --u entry is a finite number, as every u_grid element is
    ({}, ["ruin", "--u", "5,abc"], "--u"),
    ({}, ["ruin", "--u", "nan,30"], "--u"),
    ({}, ["ruin", "--u", "inf"], "--u"),
    # a seed is an integer >= 0 wherever it comes from; a leading NAME=value
    # sets the environment, as in a shell
    ({"seed": -1}, ["ruin"], "$.seed"),
    ({}, ["ruin", "--seed", "-1"], "--seed"),
    ({}, ["RUINLAB_SEED=abc", "ruin"], "RUINLAB_SEED"),
], ids=["paths", "u", "n_paths", "u_grid", "samples", "perpetuity_samples",
        "max_steps", "barrier_multiple", "n_max", "nan_rate", "nan_premium",
        "paths_0", "samples_0", "bool_rate", "bool_seed", "u_text", "u_nan",
        "u_inf", "seed_negative", "seed_flag_negative", "seed_env_text"])
def test_out_of_range_values_exit_2(tmp_path, capsys, monkeypatch, extra,
                                    argv, field):
    monkeypatch.delenv("RUINLAB_SEED", raising=False)
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    cfg = write_cfg(tmp_path, dict(BETA2, **extra))
    assert main(argv + ["--config", cfg, "--workers", "1"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "config"
    assert doc["field"] == field


def test_error_json_keeps_strings_that_name_infinity(tmp_path, capsys):
    bad = dict(BETA2, model=dict(BETA2["model"], claim={"kind": "Infinity"}))
    assert main(["lundberg", "--config", write_cfg(tmp_path, bad)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["field"] == "$.model.claim.kind"
    assert "unknown distribution kind 'Infinity'" in doc["message"]


def test_non_finite_floats_dump_as_strings(capsys):
    cli._dump_json({"a": [-math.inf, math.nan], "b": np.float64(math.inf)},
                   None)
    assert json.loads(capsys.readouterr().out) == {"a": ["-inf", "nan"],
                                                   "b": "inf"}


def test_ruin_tail_fit_bounds_and_plot_data(tmp_path, capsys):
    # four reserves are the least that the tail fit takes
    cfg = write_cfg(tmp_path, BETA2)
    base, plot = tmp_path / "run", tmp_path / "plot.csv"
    assert main(["ruin", "--config", cfg, "--u", "5,10,20,40", "--paths",
                 "3000", "--seed", "9", "--workers", "1", "--beta", "2",
                 "--out", str(base), "--emit-plot-data", str(plot)]) == 0
    capsys.readouterr()
    psi = [float(line.split(",")[1]) for line in
           (tmp_path / "run.csv").read_text().splitlines()[1:]]
    assert len(psi) == 4 and all(p > 0 for p in psi)
    doc = json.loads((tmp_path / "run_tailfit.json").read_text())
    assert doc["tail_fit"]["u_grid"] == [5.0, 10.0, 20.0, 40.0]
    assert doc["summary"] == f"slope={doc['tail_fit']['slope']:.4f}"
    ratios = [u ** 2 * p for u, p in zip((5, 10, 20, 40), psi)]
    assert doc["bounds_check"]["ratio_min"] == pytest.approx(min(ratios))
    assert doc["bounds_check"]["ratio_max"] == pytest.approx(max(ratios))
    lines = plot.read_text().splitlines()
    assert lines[0] == "log_u,log_psi_hat" and len(lines) == 5
    assert float(lines[1].split(",")[0]) == pytest.approx(math.log(5.0))


@pytest.mark.parametrize("results, code", [
    ((True, True), 0), ((True, False), 1)], ids=["pass", "fail"])
def test_validate_reports_each_criterion(monkeypatch, capsys, results, code):
    def stub(passed, workers=None):
        return validate.CriterionResult(f"stub_{passed}", passed, 0.0,
                                        {"x": 0.5})

    monkeypatch.setitem(validate.CRITERIA, "stub", stub)
    monkeypatch.setitem(validate.SUITES, "quick",
                        [{"name": "stub", "passed": p} for p in results])
    assert main(["validate", "--workers", "1"]) == code
    out, err = capsys.readouterr()
    want = [f"[{'PASS' if p else 'FAIL'}] stub_{p} (0.0s) x=0.5"
            for p in results]
    assert out.splitlines() == want
    assert err == f"validate: {sum(results)}/2 criteria passed\n"


def test_ruin_outputs_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BETA2)
    args = ["ruin", "--config", cfg, "--u", "5,10", "--paths", "3000",
            "--seed", "9", "--workers", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == ("u,psi_hat,ci_halfwidth,censored_fraction,"
                      "non_finite_fraction")


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, BETA2)
    args = ["ruin", "--config", cfg, "--u", "5,30", "--paths", "2000",
            "--workers", "1"]
    monkeypatch.setenv("RUINLAB_SEED", "123")
    main(args + ["--out", str(tmp_path / "env1")])
    monkeypatch.setenv("RUINLAB_SEED", "124")
    main(args + ["--out", str(tmp_path / "env2")])
    monkeypatch.setenv("RUINLAB_SEED", "123")
    main(args + ["--out", str(tmp_path / "env3")])
    capsys.readouterr()
    one = (tmp_path / "env1.csv").read_bytes()
    assert one != (tmp_path / "env2.csv").read_bytes()
    assert one == (tmp_path / "env3.csv").read_bytes()


PIECEWISE = dict(BETA2, model=dict(
    BETA2["model"],
    regime={"mode": "piecewise", "h": 0.25,
            "mu": {"kind": "uniform", "lo": 0.05, "hi": 0.07},
            "sigma": {"kind": "uniform", "lo": 0.15, "hi": 0.25}}))


@pytest.mark.parametrize("doc", [BETA2, PIECEWISE], ids=["beta2", "piecewise"])
def test_simulate_dump_columns(tmp_path, capsys, doc):
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", cfg, "--u", "5", "--steps", "10",
                 "--seed", "3", "--dump", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "n,s_n,lambda_n,zeta_n,nu_n"
    assert lines[1].startswith("0,5")
    row = lines[2].split(",")
    lam, nu = float(row[2]), float(row[4])
    assert lam == pytest.approx(math.exp(-nu), rel=1e-9)  # 12-digit CSV cells


def test_simulate_rejects_negative_reserve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BETA2)
    assert main(["simulate", "--config", cfg, "--u", "-1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "config"


def test_perpetuity_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BETA2)
    assert main(["perpetuity", "--config", cfg, "--samples", "20000",
                 "--seed", "4", "--workers", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta_used"] == pytest.approx(2.0, abs=1e-9)
    assert doc["c_hat"] > 0
    assert doc["ks"] <= 0.05
    assert -2.6 <= doc["tail_slope"] <= -1.0
    assert doc["non_finite"] == 0
    # every run states its truncation
    assert doc["rel_tol"] == REL_TOL
    assert 100 < doc["mean_terms"] < 1000


def test_validate_rejects_seed(capsys):
    # every acceptance criterion runs at its own fixed seed, and the
    # exponent report draws nothing
    for argv in (["validate"], ["lundberg", "--config", "unread.json"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--seed", "1"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_lundberg_piecewise(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact route drew Monte Carlo samples")

    monkeypatch.setattr(StepKernel, "sample", refuse)
    assert main(["lundberg", "--config", write_cfg(tmp_path, PIECEWISE)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "root"
    assert abs(doc["beta"] - 1.93512132) <= 1e-8
    assert doc["q_nu"] == pytest.approx(7.95932326155, rel=1e-9)
    assert doc["phi_at_endpoint"] == "inf"
    assert "q_plus" not in doc
