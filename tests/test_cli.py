import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import cmlab.cli as cli
import cmlab.metrics as metrics
from cmlab import (
    DiscreteTarget,
    GaussianMixtureTarget,
    NumericError,
    SamplingTimeSchedule,
    make_ve,
    pf_ode_consistency,
    w2_stderr_proxy,
    w2_vs_target_1d,
)
from cmlab._config import load_experiment_config
from cmlab.cli import ResultRow, _fmt, main, write_rows_csv

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_HEADER = "schedule_label,stage,tau,w2,bound_general,bound_modified,kl_bound"


def run_sim(tmp_path, name, n=2000, seed=3):
    out = tmp_path / name
    rc = main(["reproduce-sim", "--n", str(n), "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def test_reproduce_sim_csv_shape_and_determinism(tmp_path):
    data = run_sim(tmp_path, "a.csv")
    lines = data.decode().strip().split("\n")
    assert lines[0] == GOLDEN_HEADER
    # two_step(2) + uniform(5) + halving(4) stages
    assert len(lines) == 1 + 11
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert set(labels) == {"two_step", "uniform", "halving"}
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == 7
        int(cells[1])
        for cell in cells[2:]:
            assert math.isfinite(float(cell))
    # byte-identical on rerun
    assert run_sim(tmp_path, "b.csv") == data


def test_reproduce_sim_summary_line(tmp_path, capsys):
    run_sim(tmp_path, "c.csv")
    stdout = capsys.readouterr().out
    assert "two_step final W2" in stdout
    assert "best baseline stage" in stdout


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "target": {"type": "banana"},
        "schedule": "ou",
        "sampling": {"schedule_design": "explicit", "taus": [1.0]},
    }))
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    assert "target.type" in capsys.readouterr().err


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "extra.json"
    cfg.write_text(json.dumps({
        "target": {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "schedule": "ou",
        "sampling": {"schedule_design": "explicit", "taus": [1.0]},
        "typo_field": 1,
    }))
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    assert "typo_field" in capsys.readouterr().err


def test_negative_diffusion_schedule_exits_2(tmp_path, capsys):
    table = tmp_path / "sched.csv"
    table.write_text("t,alpha,sigma2\n0,1,0\n1,1.5,0.5\n2,2,0.5\n")
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "target": {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "schedule": {"csv": str(table)},
        "sampling": {"schedule_design": "explicit", "taus": [1.0]},
    }))
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2
    assert "g2" in capsys.readouterr().err


def test_non_finite_schedule_cell_exits_2(tmp_path, capsys):
    table = tmp_path / "sched.csv"
    table.write_text("t,alpha,sigma2\n0,1,0\n1,0.8,inf\n2,0.6,inf\n")
    cfg = tmp_path / "custom.json"
    cfg.write_text(json.dumps({
        "target": {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
        "schedule": {"csv": str(table)},
        "sampling": {"schedule_design": "explicit", "taus": [1.0]},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["experiment", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: schedule.csv: sigma2 must be finite, got inf\n"
    )


def _two_atom_config(tmp_path, name, field, raw_value):
    """A small two-atom OU config whose ``field`` holds the JSON text
    ``raw_value`` verbatim."""
    config = {
        "target": {"type": "discrete", "atoms": [[0.0, 0.5], [100.0, 0.5]]},
        "schedule": "ou",
        "eps_over_delta": 1.0,
        "sampling": {"schedule_design": "explicit", "taus": [2.0], "n": 100},
        "out": str(tmp_path / "out.csv"),
        field: None,
    }
    path = tmp_path / name
    path.write_text(
        json.dumps(config).replace(f'"{field}": null', f'"{field}": {raw_value}')
    )
    return path


@pytest.mark.parametrize(
    "command, field, raw_value",
    [
        ("experiment", "estimator", '{"estimator": "pfode", "ode_step": Infinity}'),
        ("experiment", "sampling", '{"schedule_design": "halving_ve", "T": Infinity}'),
        ("experiment", "sampling",
         '{"schedule_design": "two_step_ou", "R": Infinity, "eps": 1.0}'),
        ("bounds", "eps_over_delta", "NaN"),
        ("bounds", "delta", "1e400"),
        ("bounds", "delta", "1" + "0" * 400),
    ],
    ids=["ode_step", "T", "R", "eps_over_delta", "overflow", "overflow_int"],
)
def test_non_finite_number_exits_2(tmp_path, capsys, command, field, raw_value):
    path = _two_atom_config(tmp_path, "nonfinite.json", field, raw_value)
    assert main([command, "--config", str(path)]) == 2
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "estimator, key",
    [
        ({"estimator": "pfode", "ode_floor": 1e-6}, "ode_floor"),
        ({"estimator": "pfode", "snap_to_atom": True}, "snap_to_atom"),
        ({"estimator": "quantile_perturbed", "ode_step": 0.01}, "ode_step"),
        ({"estimator": "exact", "kappa": 1e-4}, "kappa"),
    ],
    ids=["ode_floor", "snap_to_atom", "ode_step", "kappa"],
)
def test_unknown_estimator_field_exits_2(tmp_path, capsys, estimator, key):
    path = _two_atom_config(tmp_path, "stale.json", "estimator", json.dumps(estimator))
    assert main(["experiment", "--config", str(path)]) == 2
    assert f"config error: estimator.{key}:" in capsys.readouterr().err


def _base_config(tmp_path):
    return {
        "target": {"type": "gmm", "components": [[0.0, 1.0, 1.0]], "L": 1.0},
        "schedule": "ou",
        "eps_over_delta": 0.01,
        "sampling": {"schedule_design": "explicit", "taus": [2.0, 1.0], "n": 100,
                     "seed": 1, "smoothing_sigma": "optimal"},
        "metrics": {"tv": True},
        "bounds": {"tail_c": 10.0, "tail_C": 10.0, "tail_coeff": 1.0},
        "out": str(tmp_path / "out.csv"),
    }


_ATOMS = {"type": "discrete", "atoms": [[0.0, 0.5], [1.0, 0.5]]}
_DESIGNS = {
    "two_step_ou": {"schedule_design": "two_step_ou", "R": 100.0, "eps": 1.0},
    "halving_ve": {"schedule_design": "halving_ve", "T": 8.0},
    "uniform": {"schedule_design": "uniform", "T": 4.0, "N": 2},
    "explicit": {"schedule_design": "explicit", "taus": [2.0, 1.0]},
}


def _all_four_typos(config):
    config["target"]["Lipschitz"] = 1.0
    config["sampling"]["smoothing"] = "optimal"
    config["metrics"] = {"TV": True}
    config["bounds"] = {"tail_k": 3}


# (the error path, an edit that puts an unknown key there)
_TYPOS = [
    ("config.metric", lambda c: c.update(metric={"tv": True})),
    ("target.L", lambda c: c.update(target=dict(_ATOMS, L=1.0))),
    ("target.Lipschitz", lambda c: c["target"].update(Lipschitz=1.0)),
    ("sampling.T", lambda c: c["sampling"].update(T=2.0)),
    ("sampling.smoothing", lambda c: c["sampling"].update(smoothing="optimal")),
    ("sampling.taus", lambda c: c.update(sampling=dict(_DESIGNS["two_step_ou"],
                                                       taus=[1.0]))),
    ("sampling.N", lambda c: c.update(sampling=dict(_DESIGNS["halving_ve"], N=3))),
    ("sampling.R", lambda c: c.update(sampling=dict(_DESIGNS["uniform"], R=1.0))),
    ("metrics.TV", lambda c: c.update(metrics={"TV": True})),
    ("bounds.tail_k", lambda c: c["bounds"].update(tail_k=3)),
    ("target.Lipschitz", _all_four_typos),
]


@pytest.mark.parametrize("path, edit", _TYPOS,
                         ids=[path for path, _ in _TYPOS[:-1]] + ["all_four"])
@pytest.mark.parametrize("command", ["experiment", "bounds"])
def test_unknown_key_in_any_object_exits_2(tmp_path, capsys, command, path, edit):
    config = _base_config(tmp_path)
    edit(config)
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: unknown field\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["sampling"].pop("smoothing_sigma"),
     "metrics.tv: the TV check needs sampling.smoothing_sigma"),
    (lambda c: c.update(target={"type": "gmm",
                                "components": [[0.0, 1.0, 0.5], [3.0, 1.0, 0.5]]}),
     "L: the TV bound requires the target smoothness L (set target.L for mixtures)"),
    (lambda c: c.update(target=_ATOMS),
     "L: the TV bound requires the target smoothness L (set target.L for mixtures)"),
], ids=["no_smoothing", "mixture_without_L", "atoms"])
def test_tv_preconditions_are_shared_by_both_commands(tmp_path, capsys, edit, message):
    config = _base_config(tmp_path)
    edit(config)
    cfg = tmp_path / "tv.json"
    cfg.write_text(json.dumps(config))
    for command in ("experiment", "bounds"):
        assert main([command, "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"numeric error: {message}\n"


_PERTURBED = {"estimator": "quantile_perturbed"}
_GMM3 = {"type": "gmm", "L": 1.0,
         "components": [[-4.0, 0.5, 0.3], [0.0, 1.0, 0.5], [3.0, 0.25, 0.2]]}

# (an edit of the base config, the error it must give).  A string edit is the
# whole file's text and None writes no file; ``{path}`` is the config's path.
_CONFIG_ERRORS = {
    "config_not_object": ("[]", "config: expected an object, got list"),
    "invalid_json": (
        "{",
        "config: invalid JSON in {path}: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)"),
    "unreadable": (
        None,
        "config: cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "target_not_object": (
        lambda c: c.update(target=[]),
        "target: expected an object, got list"),
    "sampling_not_object": (
        lambda c: c.update(sampling=3),
        "sampling: expected an object, got int"),
    "estimator_not_object": (
        lambda c: c.update(estimator="exact"),
        "estimator: expected an object, got str"),
    "metrics_not_object": (
        lambda c: c.update(metrics=True),
        "metrics: expected an object, got bool"),
    "bounds_not_object": (
        lambda c: c.update(bounds=[]),
        "bounds: expected an object, got list"),
    "missing_target": (lambda c: c.pop("target"), "target: required field is missing"),
    "missing_sampling": (
        lambda c: c.pop("sampling"),
        "sampling: required field is missing"),
    "missing_R": (
        lambda c: c.update(sampling={"schedule_design": "two_step_ou", "eps": 1.0}),
        "sampling.R: required field is missing"),
    "missing_T": (
        lambda c: c.update(sampling={"schedule_design": "halving_ve"}),
        "sampling.T: required field is missing"),
    "missing_N": (
        lambda c: c.update(sampling={"schedule_design": "uniform", "T": 4.0}),
        "sampling.N: required field is missing"),
    "no_atoms": (
        lambda c: c.update(target={"type": "discrete", "atoms": []}),
        "target.atoms: expected a nonempty list of [x, w] pairs"),
    "malformed_atom": (
        lambda c: c.update(target=dict(_ATOMS, atoms=[[0.0, 0.5], [1.0]])),
        "target.atoms[1]: expected [location, weight]"),
    "coincident_atoms": (
        lambda c: c.update(target=dict(_ATOMS, atoms=[[1.0, 0.5], [1.0, 0.5]])),
        "target: atoms 0 and 1 coincide"),
    "atom_weights": (
        lambda c: c.update(target=dict(_ATOMS, atoms=[[0.0, 0.5], [1.0, 0.6]])),
        "target: weights must sum to 1, got 1.1"),
    "no_components": (
        lambda c: c["target"].update(components=[]),
        "target.components: expected a nonempty list of [mean, variance, weight] "
        "triples"),
    "malformed_component": (
        lambda c: c["target"].update(components=[[0.0, 1.0]]),
        "target.components[0]: expected [mean, variance, weight]"),
    "zero_variance": (
        lambda c: c["target"].update(components=[[0.0, 0.0, 1.0]]),
        "target: variances must be positive"),
    "bad_L": (
        lambda c: c["target"].update(L="1"),
        "target.L: expected a number, got '1'"),
    "unknown_target": (
        lambda c: c["target"].update(type="banana"),
        "target.type: expected 'discrete' or 'gmm', got 'banana'"),
    "unknown_schedule": (
        lambda c: c.update(schedule="vp"),
        "schedule: expected 'ou', 've', or {'csv': path}, got 'vp'"),
    "missing_schedule_csv": (
        lambda c: c.update(schedule={"csv": "no_such.csv"}),
        "schedule.csv: [Errno 2] No such file or directory: 'no_such.csv'"),
    "unknown_estimator": (
        lambda c: c.update(estimator={"estimator": "magic"}),
        "estimator.estimator: expected 'exact', 'pfode', or 'quantile_perturbed', "
        "got 'magic'"),
    "perturbed_on_gaussian": (
        lambda c: c.update(estimator=_PERTURBED),
        "estimator: this oracle requires an atomic target"),
    "kappa_not_number": (
        lambda c: c.update(target=_ATOMS, estimator=dict(_PERTURBED, kappa="big")),
        "estimator.kappa: expected a number, got 'big'"),
    "kappa_zero": (
        lambda c: c.update(target=_ATOMS, estimator=dict(_PERTURBED, kappa=0.0)),
        "estimator: kappa must be > 0, got 0.0"),
    "ode_step_zero": (
        lambda c: c.update(estimator={"estimator": "pfode", "ode_step": 0}),
        "estimator: step must be finite and > 0, got 0.0"),
    "unknown_design": (
        lambda c: c["sampling"].update(schedule_design="magic"),
        "sampling.schedule_design: expected 'two_step_ou', 'halving_ve', 'uniform', "
        "or 'explicit', got 'magic'"),
    "empty_taus": (
        lambda c: c["sampling"].update(taus=[]),
        "sampling.taus: expected a nonempty list of times"),
    "increasing_taus": (
        lambda c: c["sampling"].update(taus=[1.0, 2.0]),
        "sampling: sampling times must be strictly decreasing, got (1.0, 2.0)"),
    "negative_tau": (
        lambda c: c["sampling"].update(taus=[1.0, -1.0]),
        "sampling: sampling times must be positive, got (1.0, -1.0)"),
    "two_step_regime": (
        lambda c: c.update(sampling=dict(_DESIGNS["two_step_ou"], R=1.0, eps=2.0)),
        "sampling: invalid regime: eps/delta = 2.0 must be < radius = 1.0"),
    "N_not_integer": (
        lambda c: c.update(sampling=dict(_DESIGNS["uniform"], N=2.5)),
        "sampling.N: expected an integer, got 2.5"),
    "delta_not_number": (
        lambda c: c.update(delta="1"),
        "config.delta: expected a number, got '1'"),
    "delta_zero": (lambda c: c.update(delta=0), "delta: must be positive, got 0.0"),
    "n_not_integer": (
        lambda c: c["sampling"].update(n=1.5),
        "sampling.n: expected an integer, got 1.5"),
    "n_zero": (lambda c: c["sampling"].update(n=0), "sampling.n: must be >= 1, got 0"),
    "seed_not_integer": (
        lambda c: c["sampling"].update(seed="1"),
        "sampling.seed: expected an integer, got '1'"),
    "smoothing_not_number": (
        lambda c: c["sampling"].update(smoothing_sigma=True),
        "sampling.smoothing_sigma: expected null, 'optimal', or a number"),
    "smoothing_zero": (
        lambda c: c["sampling"].update(smoothing_sigma=0.0),
        "sampling.smoothing_sigma: must be positive"),
    "eps_over_delta_not_number": (
        lambda c: c.update(eps_over_delta="0.01"),
        "eps_over_delta: expected a number or 'measured'"),
    "eps_over_delta_negative": (
        lambda c: c.update(eps_over_delta=-0.01),
        "eps_over_delta: must be nonnegative"),
    "tv_not_bool": (
        lambda c: c.update(metrics={"tv": 1}),
        "metrics.tv: expected true/false"),
    "tail_c_not_number": (
        lambda c: c["bounds"].update(tail_c="10"),
        "bounds.tail_c: expected a number, got '10'"),
    "empty_label": (lambda c: c.update(label=""), "label: expected a nonempty string"),
    "empty_out": (lambda c: c.update(out=""), "out: expected a file path"),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_ERRORS))
def test_every_config_error_exits_2(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # a relative schedule CSV is looked up here
    edit, message = _CONFIG_ERRORS[case]
    cfg = tmp_path / "bad.json"
    if isinstance(edit, str):
        cfg.write_text(edit)
    elif edit is not None:
        config = _base_config(tmp_path)
        edit(config)
        cfg.write_text(json.dumps(config))
    want = message.replace("{path}", str(cfg))
    for command in ("experiment", "bounds"):
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {want}\n"
    assert list(tmp_path.glob("*.csv")) == []


def test_mixture_config_without_estimator_runs(tmp_path, capsys):
    # The benchmark's GMM run with no estimator key: the default is the
    # exact quantile map, which builds for a mixture.  `bounds` never calls
    # it, and `experiment` samples with it.
    config = {k: v for k, v in _PFODE_GMM.items() if k != "estimator"}
    config["out"] = str(tmp_path / "out.csv")
    cfg = tmp_path / "gmm.json"
    cfg.write_text(json.dumps(config))
    for command in ("bounds", "experiment"):
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
    assert (tmp_path / "out.csv").exists()


def test_measured_rate_of_rk4_on_a_mixture_is_near_zero():
    # The exact quantile map is the reference, so the RK4 oracle's rate is
    # its integration error: about 1e-7 absolute at t = 4, over t.
    target = GaussianMixtureTarget(*zip(*_GMM3["components"]))
    rate = cli.measure_eps_over_delta(
        pf_ode_consistency(target, make_ve(), 0.01), target, make_ve(),
        SamplingTimeSchedule([4.0, 1.0]), 5, n=4096,
    )
    assert math.isfinite(rate) and 0.0 < rate < 1e-6


def test_reproduce_sim_rejects_zero_samples(tmp_path, capsys):
    assert main(["reproduce-sim", "--n", "0", "--out", str(tmp_path / "z.csv")]) == 2
    assert capsys.readouterr().err == "config error: n: must be >= 1, got 0\n"
    assert not (tmp_path / "z.csv").exists()


def test_every_documented_key_loads(tmp_path):
    for design in _DESIGNS.values():
        config = _base_config(tmp_path)
        config["sampling"] = dict(design, n=100, seed=1, smoothing_sigma=0.1)
        config.update(delta=1.0, label="all", estimator={"estimator": "exact"})
        cfg = tmp_path / "all.json"
        cfg.write_text(json.dumps(config))
        assert load_experiment_config(str(cfg)).smoothing == 0.1
    for name in sorted(p.name for p in CONFIG_DIR.glob("*.json")):
        load_experiment_config(str(CONFIG_DIR / name))


def test_bench_trace_hooks_exist():
    """Every name the benchmark's tracer patches is still there, so a
    rename breaks this test rather than a traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = [(module, attr) for module, attr, _, _ in spans._PATCHES]
    hooks += [("consistency_oracle", "_pf_ode_field"),
              ("consistency_oracle", "marginal_score_path")]
    for module, attr in hooks:
        assert hasattr(importlib.import_module(f"cmlab.{module}"), attr), (module, attr)
    oracle = importlib.import_module("cmlab.consistency_oracle")
    assert "__call__" in vars(oracle.ConsistencyFn)


# (an edit that puts a non-number in a list cell, the error it must give)
_LIST_CELLS = {
    "taus": [
        (lambda c: c["sampling"].update(taus=[4.0, True]),
         "sampling.taus[1]: expected a number, got True"),
        (lambda c: c["sampling"].update(taus=["4", 1.0]),
         "sampling.taus[0]: expected a number, got '4'"),
    ],
    "atoms": [
        (lambda c: c.update(target={"type": "discrete",
                                    "atoms": [[0.0, 0.5], [1.0, "0.5"]]}),
         "target.atoms[1][1]: expected a number, got '0.5'"),
        (lambda c: c.update(target={"type": "discrete",
                                    "atoms": [[True, 0.5], [1.0, 0.5]]}),
         "target.atoms[0][0]: expected a number, got True"),
        (lambda c: c.update(target={"type": "discrete",
                                    "atoms": [[[0.0, "1"], 0.5], [[1.0, 1.0], 0.5]]}),
         "target.atoms[0][0][1]: expected a number, got '1'"),
    ],
    "components": [
        (lambda c: c["target"].update(components=[["0", "1", True]]),
         "target.components[0][0]: expected a number, got '0'"),
        (lambda c: c["target"].update(components=[[0.0, 1.0, True]]),
         "target.components[0][2]: expected a number, got True"),
        (lambda c: c["target"].update(components=[[0.0, "1", 1.0]]),
         "target.components[0][1]: expected a number, got '1'"),
        (lambda c: c["target"].update(components=[[[0.0, False], 1.0, 1.0]]),
         "target.components[0][0][1]: expected a number, got False"),
    ],
}


@pytest.mark.parametrize("field", sorted(_LIST_CELLS))
def test_list_cell_must_be_a_number(tmp_path, capsys, field):
    for edit, message in _LIST_CELLS[field]:
        config = _base_config(tmp_path)
        edit(config)
        cfg = tmp_path / "cells.json"
        cfg.write_text(json.dumps(config))
        for command in ("experiment", "bounds"):
            assert main([command, "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out.csv").exists()


def test_bounds_rejects_measured_rate(tmp_path, capsys):
    cfg = tmp_path / "measured.json"
    cfg.write_text(json.dumps({
        "target": {"type": "discrete", "atoms": [[0.0, 0.5], [100.0, 0.5]]},
        "schedule": "ou",
        "eps_over_delta": "measured",
        "sampling": {"schedule_design": "explicit", "taus": [2.0]},
    }))
    rc = main(["bounds", "--config", str(cfg)])
    assert rc == 2
    assert "eps_over_delta" in capsys.readouterr().err


def test_tv_for_discrete_target_exits_3(tmp_path, capsys):
    # no score smoothness L exists for an atomic target
    cfg = tmp_path / "tvdisc.json"
    cfg.write_text(json.dumps({
        "target": {"type": "discrete", "atoms": [[0.0, 0.5], [100.0, 0.5]]},
        "schedule": "ou",
        "eps_over_delta": 1.0,
        "sampling": {"schedule_design": "explicit", "taus": [2.0],
                     "smoothing_sigma": 0.1},
        "metrics": {"tv": True},
    }))
    rc = main(["bounds", "--config", str(cfg)])
    assert rc == 3
    assert "L" in capsys.readouterr().err


def test_experiment_with_repo_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative "out" lands here
    rc = main(["experiment", "--config", str(CONFIG_DIR / "bernoulli_ve_halving.json")])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "measured eps/delta" in stdout
    lines = (tmp_path / "bernoulli_ve_halving.csv").read_text().strip().split("\n")
    assert lines[0] == GOLDEN_HEADER
    assert len(lines) == 1 + 4  # halving from T=8: 8, 4, 2, 1
    assert all(ln.startswith("bernoulli_ve_halving,") for ln in lines[1:])


def test_experiment_with_tv_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["experiment", "--config", str(CONFIG_DIR / "gaussian_tv.json")])
    assert rc == 0
    lines = (tmp_path / "gaussian_tv.csv").read_text().strip().split("\n")
    assert lines[0] == GOLDEN_HEADER + ",tv,tv_bound"
    assert len(lines) == 1 + 2
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == 9
        tv, tv_bound = float(cells[7]), float(cells[8])
        assert 0.0 <= tv <= tv_bound


def test_overflowing_smoothing_exits_3_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*_args, **_kwargs):
        raise AssertionError("sampled with a non-finite smoothed variance")

    monkeypatch.setattr(cli, "multistep_sample", no_sampling)
    monkeypatch.chdir(tmp_path)
    cfg = json.loads((CONFIG_DIR / "gaussian_tv.json").read_text())
    cfg["sampling"]["smoothing_sigma"] = 1e200  # squared, it overflows to inf
    (tmp_path / "big.json").write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["experiment", "--config", "big.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: sampling.smoothing_sigma: 1e+200 squared overflows\n"
    assert list(tmp_path.glob("*.csv")) == []


def test_tv_without_an_exact_law_exits_3_before_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*_args, **_kwargs):
        raise AssertionError("sampled with no TV to report")

    monkeypatch.setattr(cli, "multistep_sample", no_sampling)
    monkeypatch.chdir(tmp_path)
    cfg = json.loads((CONFIG_DIR / "gaussian_tv.json").read_text())
    cfg["estimator"] = {"estimator": "pfode", "ode_step": 0.05}
    (tmp_path / "pfode.json").write_text(json.dumps(cfg))
    assert main(["experiment", "--config", "pfode.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric error: metrics.tv: analytic TV is only available for a single-Gaussian "
        "1-D target with the exact estimator (no density estimation is done)\n"
    )
    assert list(tmp_path.glob("*.csv")) == []


def test_tv_of_the_exact_map_on_a_mixture_exits_3(tmp_path, capsys):
    # The mixture's exact map has no closed-form law, so no analytic TV.
    config = dict(_base_config(tmp_path), target=_GMM3)
    cfg = tmp_path / "gmm_tv.json"
    cfg.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric error: metrics.tv: analytic TV is only available for a single-Gaussian "
        "1-D target with the exact estimator (no density estimation is done)\n"
    )
    assert list(tmp_path.glob("*.csv")) == []


def test_tv_run_does_not_load_scipy_integrate(tmp_path):
    # A fresh process, as a user runs it: the closed-form TV needs no
    # quadrature module, whose import also loads scipy.optimize and linalg.
    pkg_root = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pkg_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    script = (
        "import sys\n"
        "from cmlab.cli import main\n"
        f"rc = main(['experiment', '--config', {str(CONFIG_DIR / 'gaussian_tv.json')!r}])\n"
        "print('scipy.integrate' in sys.modules)\n"
        "sys.exit(rc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          cwd=tmp_path, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "gaussian_tv.csv").exists()


def test_bounds_table(capsys):
    rc = main(["bounds", "--config", str(CONFIG_DIR / "two_step_bounds.json")])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "w2_general" in stdout and "w2_modified" in stdout
    assert "kl_bound" in stdout and "tail_term" in stdout
    assert "R = 100" in stdout and "diameter = 100" in stdout
    # one line per stage of the designed (14, 9) schedule
    body = [ln for ln in stdout.splitlines() if ln.strip().startswith(("1 ", "2 "))]
    assert len(body) == 2


def test_fmt_round_trip():
    for x in (0.1, 1.0 / 3.0, 12345.678901234567, 1e-300):
        assert float(_fmt(x)) == x
    with pytest.raises(NumericError):
        _fmt(float("nan"))
    with pytest.raises(NumericError):
        _fmt(float("inf"))


def test_write_rows_rejects_partial_tv(tmp_path):
    row = dict(schedule_label="x", stage=1, tau=1.0, w2=0.1,
               w2_stderr_proxy=0.01, bound_general=1.0, bound_modified=1.0,
               kl_bound_stage=0.5)
    rows = [ResultRow(**row, tv=0.1, tv_bound=0.2), ResultRow(**row)]
    with pytest.raises(NumericError):
        write_rows_csv(str(tmp_path / "x.csv"), rows)


def _small_gaussian_tv_config(tmp_path, n=3000):
    cfg = json.loads((CONFIG_DIR / "gaussian_tv.json").read_text())
    cfg["sampling"]["n"] = n
    cfg["out"] = str(tmp_path / "g.csv")
    path = tmp_path / "g.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("command", ["reproduce-sim", "experiment"])
def test_one_coupling_solve_per_run(tmp_path, monkeypatch, command):
    levels = []
    solve = metrics.target_quantiles_1d

    def counted(target, u):
        levels.append(len(u))
        return solve(target, u)

    monkeypatch.setattr(metrics, "target_quantiles_1d", counted)
    if command == "reproduce-sim":
        run_sim(tmp_path, "q.csv", n=2000)
        assert levels == [2000]  # 11 stages over three schedules
    else:
        assert main(["experiment", "--config", str(_small_gaussian_tv_config(tmp_path))]) == 0
        assert levels == [3000]


@pytest.mark.parametrize("command", ["reproduce-sim", "experiment"])
def test_stage_rows_match_public_w2(tmp_path, monkeypatch, command):
    # The CLI takes each stage's W2 as the sampler makes it; every call is
    # run again without the per-stage function to get the stages themselves.
    runs, rows = [], []
    sample, write = cli.multistep_sample, cli.write_rows_csv

    def keep_run(fhat, schedule, taus, n, seed, per_stage, **kwargs):
        result = sample(fhat, schedule, taus, n, seed, per_stage=per_stage, **kwargs)
        runs.append(sample(fhat, schedule, taus, n, seed, **kwargs))
        return result

    def keep_rows(path, result_rows):
        rows.extend(result_rows)
        return write(path, result_rows)

    monkeypatch.setattr(cli, "multistep_sample", keep_run)
    monkeypatch.setattr(cli, "write_rows_csv", keep_rows)
    if command == "reproduce-sim":
        run_sim(tmp_path, "w.csv", n=1500)
        target = DiscreteTarget([[0.0], [100.0]], [0.5, 0.5])
    else:
        path = _small_gaussian_tv_config(tmp_path)
        assert main(["experiment", "--config", str(path)]) == 0
        target = load_experiment_config(str(path)).target
    stages = [stage for run in runs for stage in run]
    assert len(stages) == len(rows) == (11 if command == "reproduce-sim" else 2)
    for stage, row in zip(stages, rows):
        assert row.w2 == w2_vs_target_1d(stage, target)
        assert row.w2_stderr_proxy == w2_stderr_proxy(stage, target)


def test_reproduce_sim_peak_memory(tmp_path, capsys):
    # Each schedule's stages go to W2 one at a time: the run holds the
    # coupling quantiles, the W2 buffer, the noisy slab and one stage, plus
    # the threshold's block index, about 4.4 arrays of n floats at this n.
    # Keeping every stage took 13.
    n = 200_000
    tracemalloc.start()
    try:
        assert cli.cmd_reproduce_sim(n=n, out=str(tmp_path / "m.csv")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 8 * n, f"{peak / (8 * n):.1f} arrays of n floats"


# One config of each 2-D kind that `bounds` accepts, and its table as
# printed before points became scalars: the bounds read d, nothing else does.
_CONFIGS_2D = {
    "gauss2d": (
        {"target": {"type": "gmm", "components": [[[1.0, -0.5], 0.5, 1.0]]},
         "schedule": "ou", "eps_over_delta": 0.01,
         "sampling": {"schedule_design": "explicit", "taus": [2.0, 1.0], "n": 1000,
                      "seed": 1, "smoothing_sigma": "optimal"},
         "metrics": {"tv": True},
         "bounds": {"tail_c": 2.0, "tail_C": 1.0, "tail_coeff": 1.0}},
        "gauss2d: taus = [2.0, 1.0], eps/delta = 0.01, R = 3.23935, diameter = 4.24264, "
        "E|x|^2 = 2.25 (effective support)\n"
        "stage        tau   w2_general  w2_modified    kl_bound    tv_bound   tail_term     w2_tail\n"
        "    1          2       3.0673      1.63487   0.0209895    0.702444    0.641271     3.70857\n"
        "    2          1      3.05754      1.62517   0.0210208     0.50252    0.641271     3.69881\n"
        "sigma_eps = 0.025\n",
    ),
    "gmm2d": (
        {"target": {"type": "gmm",
                    "components": [[[-2.0, 0.0], 0.5, 0.4], [[1.0, 1.0], 1.0, 0.6]]},
         "schedule": "ve", "estimator": {"estimator": "pfode", "ode_step": 0.01},
         "eps_over_delta": 0.05,
         "sampling": {"schedule_design": "explicit", "taus": [4.0, 1.0], "n": 1000,
                      "seed": 2}},
        "gmm2d: taus = [4.0, 1.0], eps/delta = 0.05, R = 4.41421, diameter = 8.2836, "
        "E|x|^2 = 4.4 (effective support)\n"
        "stage        tau   w2_general  w2_modified    kl_bound\n"
        "    1          4       6.7579      5.24423      0.1375\n"
        "    2          1       6.6611      5.18354      0.1575\n",
    ),
    "atoms2d": (
        {"target": {"type": "discrete", "atoms": [[[0.0, 0.0], 0.5], [[3.0, 4.0], 0.5]]},
         "schedule": "ou", "estimator": {"estimator": "pfode"}, "eps_over_delta": 1.0,
         "sampling": {"schedule_design": "explicit", "taus": [3.0, 1.0], "n": 1000,
                      "seed": 3}},
        "atoms2d: taus = [3.0, 1.0], eps/delta = 1.0, R = 5, diameter = 5, E|x|^2 = 12.5\n"
        "stage        tau   w2_general  w2_modified    kl_bound\n"
        "    1          3      6.53019      4.76509   0.0155307\n"
        "    2          1      8.78703      4.89352     0.71986\n",
    ),
}


def _write_2d_config(tmp_path, name, **changes):
    config = dict(_CONFIGS_2D[name][0], label=name, out=str(tmp_path / f"{name}.csv"))
    config.update(changes)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("name", sorted(_CONFIGS_2D))
def test_bounds_table_of_2d_target(tmp_path, capsys, name):
    assert main(["bounds", "--config", str(_write_2d_config(tmp_path, name))]) == 0
    assert capsys.readouterr().out == _CONFIGS_2D[name][1]


@pytest.mark.parametrize("eps_over_delta", [None, "measured"], ids=["numeric", "measured"])
@pytest.mark.parametrize("name", sorted(_CONFIGS_2D))
def test_experiment_on_2d_target_exits_3_before_sampling(
        tmp_path, capsys, monkeypatch, name, eps_over_delta):
    def no_sampling(*_args, **_kwargs):
        raise AssertionError("sampled a 2-D target")

    monkeypatch.setattr(cli, "multistep_sample", no_sampling)
    monkeypatch.setattr(cli, "evaluation_error", no_sampling)
    changes = {"eps_over_delta": eps_over_delta} if eps_over_delta else {}
    path = _write_2d_config(tmp_path, name, **changes)
    assert main(["experiment", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: a 1-D target is required, got d = 2\n"
    assert list(tmp_path.glob("*.csv")) == []


# SHA-256 of the CSVs of fixed runs: reproduce-sim at n = 20000, `experiment`
# on every shipped config, and a PF-ODE run on the benchmark's GMM under VE.
# A change that moves an output byte updates these and says why.
_CSV_DIGESTS = {
    "bernoulli_ve_halving.csv": "0daed1a06e34be998f36d77d9282ca00d58bb3309c8bdeff02fff5003779777d",
    "gaussian_tv.csv": "1a5b0069438ed8bf4b56f44f880d94f45c9c80a6fe4f9675a689307c307ac939",
    "pfode_gmm.csv": "aba3adbdf37db5ceef48416f9ad667448fa2670e12f11e545eb74b74c486144d",
    "reproduce_sim.csv": "85035550a6b72bf4476eb61173369b81ba15095703de3949d40acc1ccb7c4943",
    "unused.csv": "11de20e5394f51cf4d74ab6e8b6a37150efdb4303ad2bdcc25ef0972806b05bb",
}
_PFODE_GMM = {
    "label": "pfode_gmm",
    "target": {"type": "gmm",
               "components": [[-4.0, 0.5, 0.3], [0.0, 1.0, 0.5], [3.0, 0.25, 0.2]]},
    "schedule": "ve",
    "estimator": {"estimator": "pfode", "ode_step": 0.01},
    "eps_over_delta": 0.05,
    "sampling": {"schedule_design": "explicit", "taus": [4.0, 1.0], "n": 4096, "seed": 5},
    "out": "pfode_gmm.csv",
}


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # every relative "out" lands here
    assert main(["reproduce-sim", "--n", "20000", "--out", "reproduce_sim.csv"]) == 0
    for path in sorted(CONFIG_DIR.glob("*.json")):
        assert main(["experiment", "--config", str(path)]) == 0
    (tmp_path / "pfode_gmm.json").write_text(json.dumps(_PFODE_GMM))
    assert main(["experiment", "--config", "pfode_gmm.json"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*.csv"))}
    assert got == _CSV_DIGESTS


# SHA-256 of the stdout of the same runs, and of `bounds` on the two shipped
# configs it takes: the printed tables, the `(+-proxy)` column and the
# measured rate.  Every output is written under a relative name, so the
# `wrote` lines do not depend on where the test runs.
_STDOUT_DIGESTS = {
    "reproduce-sim reproduce_sim":
        "45d42f22cd8bcd81a1216340ebafbe791e86c6e68d61bfede17d7a7b7c96bd9d",
    "experiment bernoulli_ve_halving":
        "2aa4339f5cd9c43a41b4edfa7263322fb2cf1b9eb9e8fa113993da8187dd4c73",
    "experiment gaussian_tv":
        "a6b75bfc29ccef258aed543245263c7d3d55affa6c76812753267a0206f73dad",
    "experiment two_step_bounds":
        "7baa82144aef41bf8bd12fa0de3debc84d3a1559f7dee5dd400a1b3e8d0de21f",
    "experiment pfode_gmm":
        "626e37e6b8016585dedc80560c7dbc581fafa85b9adfc24cf71888344b7c67e6",
    "bounds gaussian_tv":
        "9a71306649ba259d6c4e787e46e97afd4a661d57392aa58f0c75894eb18c550b",
    "bounds two_step_bounds":
        "06bc02f0f33e1d59fc8e6dfc4203bd554bf3b6f14c7bb69b046cb90aa62cc5c0",
}


def test_stdout_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pfode_gmm.json").write_text(json.dumps(_PFODE_GMM))
    runs = [["reproduce-sim", "--n", "20000", "--out", "reproduce_sim.csv"]]
    runs += [["experiment", "--config", str(path)]
             for path in sorted(CONFIG_DIR.glob("*.json"))]
    runs.append(["experiment", "--config", "pfode_gmm.json"])
    runs += [["bounds", "--config", str(CONFIG_DIR / name)]
             for name in ("gaussian_tv.json", "two_step_bounds.json")]
    got = {}
    for argv in runs:
        assert main(argv) == 0
        got[f"{argv[0]} {Path(argv[-1]).stem}"] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert got == _STDOUT_DIGESTS
