"""Command-line experiment runner.

Three subcommands:

* ``cmlab reproduce-sim`` — the built-in benchmark: a two-atom target
  {0, 100} with equal weights under an Ornstein-Uhlenbeck forward process,
  a quantile-perturbed estimator with unit evaluation-error rate, and three
  sampling schedules (the designed two-step schedule plus uniform and
  halving baselines).  Emits one CSV row per (schedule, stage) with the
  empirical W2 and the matching bound values.
* ``cmlab experiment --config FILE`` — the general runner for any
  target/schedule/estimator/design combination described in a JSON config.
* ``cmlab bounds --config FILE`` — bound tables only; no sampling, no RNG.

Exit codes: 0 success, 2 config error, 3 numeric/precondition error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._config import ExperimentConfig, load_experiment_config
from .bounds import (
    BoundInputs,
    kl_bound,
    tv_bound,
    w2_bound_general,
    w2_bound_modified,
    w2_bound_tail,
)
from .consistency_oracle import evaluation_error, quantile_map, quantile_perturbed
from .errors import CmlabError, ConfigError, NumericError
from .metrics import (  # noqa: F401  (bench/spans.py wraps the W2 and TV names)
    _coupling_w2,
    _gaussian_tv,
    coupling_quantiles,
    tv_grid,
    w2_stderr_proxy,
    w2_vs_target_1d,
)
from .noise_schedule import make_ou
from .sampler import (
    SamplingTimeSchedule,
    design_halving_ve,
    design_two_step_ou,
    design_uniform,
    multistep_sample,
    sigma_eps_optimal,
    stage_laws,
)
from .target_dist import DiscreteTarget, MarginalView, geometry

__all__ = ["main", "cmd_reproduce_sim", "cmd_experiment", "cmd_bounds"]

# Default seed of the built-in benchmark. Chosen once so the shipped
# defaults land in the typical regime of the run-to-run W2 fluctuations
# (every seed is honest: nothing downstream is conditioned on it).
DEFAULT_SIM_SEED = 20
DEFAULT_SIM_N = 100_000


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One (schedule, stage) line of an experiment."""

    schedule_label: str
    stage: int
    tau: float
    w2: float
    w2_stderr_proxy: float
    bound_general: float
    bound_modified: float
    kl_bound_stage: float
    tv: float | None = None
    tv_bound: float | None = None


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise NumericError(f"refusing to emit a non-finite CSV cell: {x!r}")
    return repr(x)


def write_rows_csv(path: str, rows: list[ResultRow]) -> None:
    include_tv = any(r.tv is not None for r in rows)
    header = "schedule_label,stage,tau,w2,bound_general,bound_modified,kl_bound"
    if include_tv:
        header += ",tv,tv_bound"
    lines = [header]
    for r in rows:
        cells = [
            r.schedule_label,
            str(r.stage),
            _fmt(r.tau),
            _fmt(r.w2),
            _fmt(r.bound_general),
            _fmt(r.bound_modified),
            _fmt(r.kl_bound_stage),
        ]
        if include_tv:
            if r.tv is None or r.tv_bound is None:
                raise NumericError(
                    "tv columns requested but missing for some rows"
                )
            cells += [_fmt(r.tv), _fmt(r.tv_bound)]
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def measure_eps_over_delta(
    estimator,
    target,
    schedule,
    taus: SamplingTimeSchedule,
    seed,
    n: int = 400_000,
) -> float:
    """Evaluation-error rate ``sqrt(E|fhat - f|^2) / t`` at the largest tau,
    against the exact oracle :func:`~cmlab.consistency_oracle.quantile_map`."""
    ref = quantile_map(target, schedule)
    t = taus.taus[0]
    est = evaluation_error(estimator, ref, MarginalView(target, schedule, t), n, seed)
    return math.sqrt(max(est.value, 0.0)) / t


def _stage_bound_inputs(
    target,
    schedule,
    taus: SamplingTimeSchedule,
    eps_over_delta: float,
    sigma_eps: float | None = None,
    **tail,
) -> list[BoundInputs]:
    """The bound inputs of each stage ``i``: the schedule truncated to its
    first ``i`` times and the target's geometry.  ``tail`` takes the
    ``tail_*`` fields of :class:`~cmlab.bounds.BoundInputs`."""
    geo = geometry(target)
    return [
        BoundInputs(
            schedule=schedule,
            taus=taus.truncated(i),
            eps_over_delta=eps_over_delta,
            radius=geo.radius,
            diameter=geo.diameter,
            second_moment=geo.second_moment,
            d=target.dim,
            smoothness=geo.log_smoothness,
            sigma_eps=sigma_eps,
            **tail,
        )
        for i in range(1, taus.n_steps + 1)
    ]


def _stage_rows(
    label: str,
    taus: SamplingTimeSchedule,
    w2s: list,
    target,
    schedule,
    eps_over_delta: float,
    tv_info=None,
) -> list[ResultRow]:
    """Empirical W2 per stage plus bound values for the truncated schedules.

    ``w2s`` holds each stage's ``(w2, proxy)`` pair: what
    :func:`multistep_sample` returns with :func:`~cmlab.metrics._coupling_w2`
    as its per-stage function.  ``tv_info`` is the ``(sigma_eps, tvs)`` of
    :func:`_analytic_tv_info`.
    """
    sigma_eps, tvs = tv_info or (None, None)
    rows = []
    stage_inputs = _stage_bound_inputs(target, schedule, taus, eps_over_delta, sigma_eps)
    for i, (inputs, (w2, proxy)) in enumerate(zip(stage_inputs, w2s), start=1):
        rows.append(
            ResultRow(
                schedule_label=label,
                stage=i,
                tau=taus.taus[i - 1],
                w2=w2,
                w2_stderr_proxy=proxy,
                bound_general=w2_bound_general(inputs).total,
                bound_modified=w2_bound_modified(inputs).total,
                kl_bound_stage=kl_bound(inputs, i),
                tv=None if tvs is None else tvs[i - 1],
                tv_bound=None if tvs is None else tv_bound(inputs).total,
            )
        )
    return rows


def _print_rows(rows: list[ResultRow]) -> None:
    print(
        f"{'schedule':<10} {'stage':>5} {'tau':>8} {'w2':>12} {'(+-proxy)':>10} "
        f"{'w2_bound_gen':>13} {'w2_bound_mod':>13} {'kl_bound':>11}"
    )
    for r in rows:
        extra = ""
        if r.tv is not None:
            extra = f"  tv={r.tv:.6g} tv_bound={r.tv_bound:.6g}"
        print(
            f"{r.schedule_label:<10} {r.stage:>5} {r.tau:>8.4g} {r.w2:>12.6g} "
            f"{r.w2_stderr_proxy:>10.2g} {r.bound_general:>13.6g} "
            f"{r.bound_modified:>13.6g} {r.kl_bound_stage:>11.6g}{extra}"
        )


def cmd_reproduce_sim(n: int = DEFAULT_SIM_N, seed: int = DEFAULT_SIM_SEED,
                      out: str = "reproduce_sim.csv") -> int:
    """Run the built-in two-atom benchmark and write its CSV."""
    if n < 1:
        raise ConfigError(f"n: must be >= 1, got {n}")
    target = DiscreteTarget([[0.0], [100.0]], [0.5, 0.5])
    schedule = make_ou()
    delta = 1.0
    radius = 100.0
    estimator = quantile_perturbed(target, schedule, kappa=1e-4)
    # The estimator's evaluation error is gap^2 * kappa * t^2 = t^2 by
    # construction, i.e. a unit error rate per unit time.
    eps_over_delta = 1.0
    designs = [
        ("two_step", design_two_step_ou(radius, 1.0, delta)),
        ("uniform", design_uniform(14.0, 5, delta)),
        ("halving", design_halving_ve(14.0, delta)),
    ]
    children = np.random.SeedSequence(seed).spawn(len(designs))
    quantiles, buffer = coupling_quantiles(target, n), np.empty(n)
    all_rows: list[ResultRow] = []
    for (label, taus), child in zip(designs, children):
        w2s = multistep_sample(estimator, schedule, taus, n, child,
                               per_stage=lambda x0: _coupling_w2(x0, quantiles, buffer))
        all_rows.extend(
            _stage_rows(label, taus, w2s, target, schedule, eps_over_delta)
        )
    write_rows_csv(out, all_rows)

    print("reproduce-sim: two equal-weight atoms {0, 100}, OU forward process,")
    print("quantile-perturbed estimator (kappa = 1e-4, eps/delta = 1), delta = 1.")
    print(f"n = {n} samples per schedule, seed = {seed}.")
    print()
    _print_rows(all_rows)
    print()
    two_step_rows = [r for r in all_rows if r.schedule_label == "two_step"]
    baseline_rows = [r for r in all_rows if r.schedule_label != "two_step"]
    best_baseline = min(baseline_rows, key=lambda r: r.w2)
    final = two_step_rows[-1]
    print(
        f"two_step final W2 = {final.w2:.4f} (stage 1 was "
        f"{two_step_rows[0].w2:.4f}); best baseline stage: "
        f"{best_baseline.schedule_label} stage {best_baseline.stage} "
        f"W2 = {best_baseline.w2:.4f}"
    )
    print(f"wrote {out}")
    print(
        "plotting note: stage curves are (tau_i, W2) pairs; reverse the x-axis "
        "(largest tau on the left) so stages read left to right in sampling order."
    )
    return 0


def _tv_sigma_eps(cfg: ExperimentConfig, eps_over_delta: float) -> float:
    """The smoothing level of the TV check: the configured value, or the
    TV-optimal one.  Raises :class:`NumericError` unless smoothing is set
    and the target has a score smoothness ``L``, which the TV bound needs."""
    if cfg.smoothing is None:
        raise NumericError("metrics.tv: the TV check needs sampling.smoothing_sigma")
    smoothness = geometry(cfg.target).log_smoothness
    if smoothness is None:
        raise NumericError(
            "L: the TV bound requires the target smoothness L "
            "(set target.L for mixtures)"
        )
    if cfg.smoothing == "optimal":
        return sigma_eps_optimal(
            cfg.taus.taus[-1], eps_over_delta * cfg.delta, cfg.delta,
            cfg.target.dim, smoothness,
        )
    return float(cfg.smoothing)


def _analytic_tv_info(cfg: ExperimentConfig, eps_over_delta: float):
    """Closed-form TV of each stage's smoothed output law against the target.

    Returns ``(sigma_eps, tvs)``: the smoothing level and, per stage, the TV
    between the output law of :func:`~cmlab.sampler.stage_laws`, smoothed
    by ``sigma_eps**2``, and the target, in closed form
    (:func:`~cmlab.metrics._gaussian_tv`, good to about 1e-16 absolute).
    Returns None when TV is not requested; raises when it is requested but
    the estimator has no exact law.  A target with a smoothness ``L`` is a
    Gaussian mixture, and the only estimator with a law there is the affine
    oracle of one Gaussian, so each output law is one Gaussian.
    """
    if not cfg.want_tv:
        return None
    sigma_eps = _tv_sigma_eps(cfg, eps_over_delta)
    var_eps = sigma_eps * sigma_eps
    if not math.isfinite(var_eps):
        raise NumericError(f"sampling.smoothing_sigma: {sigma_eps:g} squared overflows")
    if cfg.estimator.law is None:
        raise NumericError(
            "metrics.tv: analytic TV is only available for a single-Gaussian "
            "1-D target with the exact estimator (no density estimation is done)"
        )
    target_law = (float(cfg.target.means[0, 0]), float(cfg.target.variances[0]))
    _, outputs = stage_laws(cfg.schedule, cfg.taus, cfg.estimator)
    return sigma_eps, [
        _gaussian_tv(float(m), float(v) + var_eps, *target_law)
        for (m,), (v,), _ in outputs
    ]


def cmd_experiment(config_path: str) -> int:
    cfg = load_experiment_config(config_path)
    # Solved first, so that a target that is not 1-D stops before any sampling.
    quantiles, buffer = coupling_quantiles(cfg.target, cfg.n), np.empty(cfg.n)
    if cfg.eps_over_delta == "measured":
        seed_measure = np.random.SeedSequence([int(cfg.seed), 0xE5])
        eps_over_delta = measure_eps_over_delta(
            cfg.estimator, cfg.target, cfg.schedule, cfg.taus, seed_measure
        )
        print(f"measured eps/delta = {eps_over_delta:.6g}")
    else:
        eps_over_delta = float(cfg.eps_over_delta)
    tv_info = _analytic_tv_info(cfg, eps_over_delta)
    w2s = multistep_sample(
        cfg.estimator, cfg.schedule, cfg.taus, cfg.n, cfg.seed,
        per_stage=lambda x0: _coupling_w2(x0, quantiles, buffer),
    )
    rows = _stage_rows(
        cfg.label, cfg.taus, w2s, cfg.target, cfg.schedule, eps_over_delta, tv_info,
    )
    write_rows_csv(cfg.out, rows)
    print(f"{cfg.label}: taus = {list(cfg.taus.taus)}, n = {cfg.n}, seed = {cfg.seed}")
    if tv_info is not None:
        print(f"smoothing sigma_eps = {tv_info[0]:.6g}")
    _print_rows(rows)
    print(f"wrote {cfg.out}")
    return 0


def cmd_bounds(config_path: str) -> int:
    cfg = load_experiment_config(config_path)
    if cfg.eps_over_delta == "measured":
        raise ConfigError(
            "eps_over_delta: the bounds command is pure computation; "
            "set a numeric value (no sampling is done here)"
        )
    eps_over_delta = float(cfg.eps_over_delta)
    geo = geometry(cfg.target)
    want_tail = cfg.tail_big_c is not None
    want_tv = cfg.want_tv
    sigma_eps = _tv_sigma_eps(cfg, eps_over_delta) if want_tv else None
    header = (
        f"{'stage':>5} {'tau':>10} {'w2_general':>12} {'w2_modified':>12} "
        f"{'kl_bound':>11}"
    )
    if want_tv:
        header += f" {'tv_bound':>11}"
    if want_tail:
        header += f" {'tail_term':>11} {'w2_tail':>11}"
    print(
        f"{cfg.label}: taus = {list(cfg.taus.taus)}, eps/delta = {eps_over_delta}, "
        f"R = {geo.radius:.6g}, diameter = {geo.diameter:.6g}, "
        f"E|x|^2 = {geo.second_moment:.6g}"
        + (" (effective support)" if geo.effective else "")
    )
    print(header)
    stage_inputs = _stage_bound_inputs(
        cfg.target, cfg.schedule, cfg.taus, eps_over_delta, sigma_eps,
        tail_c=cfg.tail_c, tail_big_c=cfg.tail_big_c, tail_coeff=cfg.tail_coeff,
    )
    for i, inputs in enumerate(stage_inputs, start=1):
        line = (
            f"{i:>5} {cfg.taus.taus[i - 1]:>10.5g} "
            f"{w2_bound_general(inputs).total:>12.6g} "
            f"{w2_bound_modified(inputs).total:>12.6g} "
            f"{kl_bound(inputs, i):>11.6g}"
        )
        if want_tv:
            line += f" {tv_bound(inputs).total:>11.6g}"
        if want_tail:
            tail = w2_bound_tail(inputs)
            line += f" {tail.tail_term:>11.6g} {tail.total:>11.6g}"
        print(line)
    if want_tv:
        print(f"sigma_eps = {sigma_eps:.6g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmlab",
        description=(
            "Numerical laboratory for multistep consistency sampling: "
            "exact oracles, perturbed estimators, schedules, metrics, bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser(
        "reproduce-sim", help="run the built-in two-atom benchmark"
    )
    p_sim.add_argument("--n", type=int, default=DEFAULT_SIM_N,
                       help="Monte Carlo samples per schedule")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SIM_SEED)
    p_sim.add_argument("--out", default="reproduce_sim.csv",
                       help="output CSV path")
    p_exp = sub.add_parser("experiment", help="run a JSON-configured experiment")
    p_exp.add_argument("--config", required=True)
    p_bounds = sub.add_parser("bounds", help="print bound tables (no sampling)")
    p_bounds.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-sim":
            return cmd_reproduce_sim(n=args.n, seed=args.seed, out=args.out)
        if args.command == "experiment":
            return cmd_experiment(args.config)
        if args.command == "bounds":
            return cmd_bounds(args.config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CmlabError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
