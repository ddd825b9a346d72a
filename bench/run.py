#!/usr/bin/env python3
"""End-to-end benchmark of the cmlab CLI.

    python3 -B bench/run.py --workload {sim_atoms,gauss_tv,pfode_gmm} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One long-lived process imports ``cmlab.cli``
from ``src/`` and calls ``cmlab.cli.main`` once per job, on inputs written
from ``--seed``; each job's CSV is checked (``checks.py``).  After one
untimed warm-up job the run measures jobs for ``--seconds``, with fresh
processes that import ``cmlab.cli`` (the set-up samples) spread evenly
through the same window.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` jobs, and ``metrics``.  With ``--trace 0`` the
metrics are ``job_s``, ``points_per_s``, ``setup_s`` and ``peak_rss_mb``;
with ``--trace 1`` untraced and traced jobs alternate, the spans are written
to ``bench/out/<workload>-spans.csv``, and the metrics are the per-layer
figures of ``spans.py`` plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 5  # fresh-process imports per untraced run
IMPORTTIME_SAMPLES = 3  # ``-X importtime`` imports per traced run
PFODE_CHECK_POINTS = 256  # rearrangement points per stage time

# The fixed GMM of pfode_gmm: three separated components of unequal width.
PFODE_TARGET = {"type": "gmm",
                "components": [[-4.0, 0.5, 0.3], [0.0, 1.0, 0.5], [3.0, 0.25, 0.2]]}


def load_cmlab():
    """Import ``cmlab.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "cmlab" / "cli.py").is_file():
        sys.exit(f"bench: no cmlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmlab.cli as cli
    import cmlab.consistency_oracle as oracle
    import cmlab.metrics as metrics
    from cmlab._config import load_experiment_config
    if Path(cli.__file__).resolve().parent != SRC / "cmlab":
        sys.exit(f"bench: imported cmlab from {cli.__file__}, not {SRC}")
    modules = {"cli": cli, "consistency_oracle": oracle, "metrics": metrics}
    return modules, load_experiment_config


# --- workloads ---------------------------------------------------------------

def workload_sim_atoms(seed: int, workdir: Path, _load_config):
    """The paper's two-atom {0, 100} OU simulation at n = 10^6."""
    n = 1_000_000
    spec = {"n": n, "radius": 100.0, "eps": 1.0, "horizon": 14.0, "n_uniform": 5,
            "gap": 100.0, "kappa": 1e-4, "rate": 1.0}
    argv = ["reproduce-sim", "--n", str(n), "--seed", str(seed),
            "--out", str(workdir / "job.csv")]
    return argv, n * 11, lambda rows: checks.check_sim(rows, spec), []


def workload_gauss_tv(seed: int, workdir: Path, _load_config):
    """One Gaussian with a seeded mean and variance, exact affine oracle,
    optimal smoothing and the TV column: the smooth-target half."""
    rng = np.random.default_rng([seed, 1])
    taus, n = [4.0, 2.0, 1.0, 0.5], 100_000
    spec = {"label": "gauss_tv", "taus": tuple(taus), "rate": 0.01,
            "m0": float(rng.uniform(1.0, 3.0)), "v0": float(rng.uniform(0.3, 0.8))}
    config = {
        "label": spec["label"],
        "target": {"type": "gmm", "components": [[spec["m0"], spec["v0"], 1.0]]},
        "schedule": "ou",
        "delta": 1.0,
        "estimator": {"estimator": "exact"},
        "eps_over_delta": spec["rate"],
        "sampling": {"schedule_design": "explicit", "taus": taus, "n": n,
                     "seed": seed, "smoothing_sigma": "optimal"},
        "metrics": {"tv": True},
        "out": str(workdir / "job.csv"),
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=1))
    spec["w2_noise"] = checks.w2_noise_scale(n, seed)
    return (["experiment", "--config", str(path)], n * len(taus),
            lambda rows: checks.check_gauss(rows, spec), [])


def workload_pfode_gmm(seed: int, workdir: Path, load_config):
    """A three-component GMM under VE with the RK4 PF-ODE oracle."""
    taus, n = [4.0, 1.0], 4096
    spec = {"label": "pfode_gmm", "taus": tuple(taus), "rate": 0.05,
            "target": PFODE_TARGET}
    config = {
        "label": spec["label"],
        "target": PFODE_TARGET,
        "schedule": "ve",
        "delta": 1.0,
        "estimator": {"estimator": "pfode", "ode_step": 0.01},
        "eps_over_delta": spec["rate"],
        "sampling": {"schedule_design": "explicit", "taus": taus, "n": n, "seed": seed},
        "out": str(workdir / "job.csv"),
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=1))
    # The oracle the job uses, against Q_0(F_t(x)); outside every timed job.
    oracle = load_config(str(path)).estimator
    errors = []
    for t in taus:
        x, want = checks.rearrangement_points(PFODE_TARGET, t, PFODE_CHECK_POINTS, seed)
        errors += checks.check_rearrangement(oracle(x[:, None], t), want, t)
    return (["experiment", "--config", str(path)], n * len(taus),
            lambda rows: checks.check_pfode(rows, spec), errors)


WORKLOADS = {
    "sim_atoms": workload_sim_atoms,
    "gauss_tv": workload_gauss_tv,
    "pfode_gmm": workload_pfode_gmm,
}


# --- measurement -------------------------------------------------------------

def run_job(cli, argv) -> tuple[int, float]:
    """One CLI invocation in this process; its stdout and stderr are kept
    in memory and dropped.  Returns the exit code and the wall time."""
    sink = io.StringIO()
    crash = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed job, not a failed run
            crash, code = exc, 1
    elapsed = time.perf_counter() - start
    if crash is not None:
        print(f"bench: job raised {crash!r}", file=sys.stderr)
    return code, elapsed


def child_env() -> dict:
    """Environment of the set-up processes: the checkout's sources, one
    worker, and compiled bytecode cached under ``bench/out``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CMLAB_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def fresh_import(extra=()) -> tuple[float, str]:
    """Wall time of a new interpreter that imports ``cmlab.cli``."""
    cmd = [sys.executable, *extra, "-c", "import cmlab.cli"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


class Verdicts:
    """Checks each distinct CSV once; every later job must write the same
    bytes as the first one."""

    def __init__(self, check_rows):
        self.check_rows = check_rows
        self.seen: dict[bytes, list[str]] = {}

    def __call__(self, data: bytes) -> list[str]:
        if data not in self.seen:
            try:
                rows = checks.parse_csv(data.decode())
            except ValueError as exc:
                rows, errors = None, [f"unreadable CSV: {exc}"]
            if rows is not None:
                errors = self.check_rows(rows)
            if self.seen:
                errors.append("CSV differs from an earlier job with the same seed")
            self.seen[data] = errors
        return self.seen[data]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("CMLAB_THREADS", None)  # the program's default: one worker
    modules, load_config = load_cmlab()
    cli = modules["cli"]
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    # SeedSequence and the CLI take non-negative seeds only
    job_argv, points, check_rows, errors = WORKLOADS[args.workload](
        args.seed % 2**32, workdir, load_config)
    csv_path = workdir / "job.csv"
    verdicts = Verdicts(check_rows)
    tracer = spans.Tracer(modules) if args.trace else None

    attempted = failed = 0
    times, traced_times, setup, imports = [], [], [], []

    def job(index: int, traced: bool):
        nonlocal attempted, failed
        csv_path.unlink(missing_ok=True)
        span = tracer.job_span(index) if traced else contextlib.nullcontext()
        with span:
            code, elapsed = run_job(cli, job_argv)
        attempted += 1
        problems = verdicts(csv_path.read_bytes()) if csv_path.is_file() else []
        errors.extend(p for p in problems if p not in errors)
        if code != 0 or problems or not csv_path.is_file():
            failed += 1
        return elapsed

    cold = job(0, False)  # warm-up: caches, lazy imports, first-touch allocations
    fresh_import()  # compiles the bytecode cache of the set-up processes
    samples = IMPORTTIME_SAMPLES if args.trace else SETUP_SAMPLES
    start = time.perf_counter()
    due = [start + args.seconds * (i + 0.5) / samples for i in range(samples)]

    def setup_sample():
        if args.trace:
            imports.append(spans.parse_importtime(fresh_import(["-X", "importtime"])[1]))
        else:
            setup.append(fresh_import()[0])

    index = 1
    while time.perf_counter() < start + args.seconds:
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            setup_sample()
            continue
        traced = bool(args.trace) and index % 2 == 0
        (traced_times if traced else times).append(job(index, traced))
        index += 1
    for _ in due:  # samples a long last job pushed past the window
        setup_sample()

    for message in errors:
        print(f"bench: {message}", file=sys.stderr)
    if args.trace:
        tracer.write(OUT / f"{args.workload}-spans.csv")
        layer = tracer.layer_metrics()
        layer["setup.scipy_import_s"] = spans.median([s for s, _ in imports])
        layer["setup.cmlab_import_s"] = spans.median([c for _, c in imports])
        layer["trace.job_s"] = spans.median(traced_times)
        layer["trace.overhead_s"] = spans.median(traced_times) - spans.median(times)
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in spans.LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"{name:<24} {m['value']:>14.6g} {m['unit']}")
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "job_s": {"value": spans.median(times), "unit": "s"},
            "points_per_s": {"value": points * len(times) / math.fsum(times),
                             "unit": "points/s"},
            "setup_s": {"value": spans.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        print(f"{args.workload}: first job {cold:.3f} s, then {len(times)} timed jobs "
              f"and {len(setup)} set-up samples")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
