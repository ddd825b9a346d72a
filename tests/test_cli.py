import json
import math
from pathlib import Path

import pytest

import cmlab.cli as cli
import cmlab.metrics as metrics
from cmlab import DiscreteTarget, NumericError, w2_stderr_proxy, w2_vs_target_1d
from cmlab._config import load_experiment_config
from cmlab.cli import ResultRow, _fmt, main, write_rows_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
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


def test_thread_count_does_not_change_results(tmp_path, monkeypatch):
    monkeypatch.setenv("CMLAB_THREADS", "1")
    one = run_sim(tmp_path, "threads1.csv")
    monkeypatch.setenv("CMLAB_THREADS", "4")
    four = run_sim(tmp_path, "threads4.csv")
    assert one == four


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
