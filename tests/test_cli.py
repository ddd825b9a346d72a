import importlib.util
import json
import math
import runpy
import warnings
from pathlib import Path

import pytest

import cmlab.cli as cli
import cmlab.metrics as metrics
from cmlab import DiscreteTarget, NumericError, w2_stderr_proxy, w2_vs_target_1d
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
                                "components": [[0.0, 1.0, 0.5], [3.0, 1.0, 0.5]]},
                        estimator={"estimator": "pfode"}),
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


def test_lemma_checks_script_imports():
    """Loads the script's imports and definitions, not its 10-s checks."""
    names = runpy.run_path(str(ROOT / "scripts" / "lemma_checks.py"),
                           run_name="lemma_checks")
    assert callable(names["main"])
    assert sum(name.startswith("check_") for name in names) == 5


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
    records, rows = [], []
    sample, write = cli.multistep_sample, cli.write_rows_csv

    def keep_record(*args, **kwargs):
        records.append(sample(*args, **kwargs))
        return records[-1]

    def keep_rows(path, result_rows):
        rows.extend(result_rows)
        return write(path, result_rows)

    monkeypatch.setattr(cli, "multistep_sample", keep_record)
    monkeypatch.setattr(cli, "write_rows_csv", keep_rows)
    if command == "reproduce-sim":
        run_sim(tmp_path, "w.csv", n=1500)
        target = DiscreteTarget([[0.0], [100.0]], [0.5, 0.5])
    else:
        path = _small_gaussian_tv_config(tmp_path)
        assert main(["experiment", "--config", str(path)]) == 0
        target = load_experiment_config(str(path)).target
    stages = [stage for rec in records for stage in rec.denoised]
    assert len(stages) == len(rows) == (11 if command == "reproduce-sim" else 2)
    for stage, row in zip(stages, rows):
        assert row.w2 == w2_vs_target_1d(stage, target)
        assert row.w2_stderr_proxy == w2_stderr_proxy(stage, target)
