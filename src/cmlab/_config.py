"""JSON experiment-config parsing.

Errors raised here are :class:`ConfigError` and start with the dotted path
of the offending field, which the CLI relays verbatim on exit code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .consistency_oracle import (
    ConsistencyFn,
    exact_single_gaussian,
    exact_two_point,
    pf_ode_consistency,
    quantile_perturbed,
)
from .errors import ConfigError
from .noise_schedule import NoiseSchedule, custom_from_csv, make_ou, make_ve
from .sampler import (
    SamplingTimeSchedule,
    design_halving_ve,
    design_two_step_ou,
    design_uniform,
)
from .target_dist import DiscreteTarget, GaussianMixtureTarget, Target


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _check_keys(node: dict, path: str, allowed) -> None:
    """Reject any key of the object at ``path`` that is not in ``allowed``."""
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _number(value, path: str, integer=False):
    """``value`` as a float, or as an int when ``integer``; a bool, a string
    or any other non-number is an error at ``path``."""
    types, what = (int, "an integer") if integer else ((int, float), "a number")
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    return value if integer else float(value)


def _get_number(node: dict, key: str, path: str, default=None, required=False,
                integer=False):
    """``node[key]`` as by :func:`_number`; ``default`` when the key is
    absent and not ``required``."""
    if key not in node:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    return _number(node[key], f"{path}.{key}", integer)


def _point(value, path: str) -> list:
    """A location or mean: one number, or a list of numbers."""
    if isinstance(value, list):
        return [_number(x, f"{path}[{j}]") for j, x in enumerate(value)]
    return [_number(value, path)]


_TARGET_FIELDS = {"discrete": ("atoms",), "gmm": ("components", "L")}  # besides "type"


def build_target(node, path: str = "target") -> Target:
    node = _expect_mapping(node, path)
    kind = node.get("type")
    if kind in _TARGET_FIELDS:
        _check_keys(node, path, ("type", *_TARGET_FIELDS[kind]))
    if kind == "discrete":
        atoms = node.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ConfigError(f"{path}.atoms: expected a nonempty list of [x, w] pairs")
        locations, weights = [], []
        for i, pair in enumerate(atoms):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{path}.atoms[{i}]: expected [location, weight]")
            locations.append(_point(pair[0], f"{path}.atoms[{i}][0]"))
            weights.append(_number(pair[1], f"{path}.atoms[{i}][1]"))
        try:
            return DiscreteTarget(locations, weights)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if kind == "gmm":
        comps = node.get("components")
        if not isinstance(comps, list) or not comps:
            raise ConfigError(
                f"{path}.components: expected a nonempty list of "
                "[mean, variance, weight] triples"
            )
        means, variances, weights = [], [], []
        for i, triple in enumerate(comps):
            if not isinstance(triple, list) or len(triple) != 3:
                raise ConfigError(
                    f"{path}.components[{i}]: expected [mean, variance, weight]"
                )
            where = f"{path}.components[{i}]"
            means.append(_point(triple[0], f"{where}[0]"))
            variances.append(_number(triple[1], f"{where}[1]"))
            weights.append(_number(triple[2], f"{where}[2]"))
        smoothness = _get_number(node, "L", path)
        try:
            return GaussianMixtureTarget(means, variances, weights, smoothness)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.type: expected 'discrete' or 'gmm', got {kind!r}")


def build_schedule(node, path: str = "schedule") -> NoiseSchedule:
    if node == "ou":
        return make_ou()
    if node == "ve":
        return make_ve()
    if isinstance(node, dict) and set(node) == {"csv"}:
        try:
            return custom_from_csv(node["csv"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}.csv: {exc}") from exc
    raise ConfigError(
        f"{path}: expected 'ou', 've', or {{'csv': path}}, got {node!r}"
    )


# The settings each estimator kind takes, besides ``estimator`` itself.
_ESTIMATOR_FIELDS = {
    "exact": (),
    "pfode": ("ode_step",),
    "quantile_perturbed": ("kappa",),
}


def build_estimator(
    node, target: Target, schedule: NoiseSchedule, path: str = "estimator"
) -> ConsistencyFn:
    node = _expect_mapping(node, path)
    kind = node.get("estimator")
    if kind in _ESTIMATOR_FIELDS:
        _check_keys(node, path, ("estimator", *_ESTIMATOR_FIELDS[kind]))
    try:
        if kind == "exact":
            return exact_reference(target, schedule)
        if kind == "pfode":
            step = _get_number(node, "ode_step", path, default=1e-3)
            return pf_ode_consistency(target, schedule, step)
        if kind == "quantile_perturbed":
            kappa = _get_number(node, "kappa", path, default=1e-4)
            return quantile_perturbed(target, schedule, kappa=kappa)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(
        f"{path}.estimator: expected 'exact', 'pfode', or 'quantile_perturbed', "
        f"got {kind!r}"
    )


def exact_reference(target: Target, schedule: NoiseSchedule) -> ConsistencyFn:
    """The exact oracle for targets that admit a closed form."""
    if isinstance(target, DiscreteTarget):
        return exact_two_point(target, schedule)
    return exact_single_gaussian(target, schedule)


# The fields each schedule design takes, besides the sampling settings that
# every design shares.
_DESIGN_FIELDS = {"two_step_ou": ("R", "eps"), "halving_ve": ("T",),
                  "uniform": ("T", "N"), "explicit": ("taus",)}
_SAMPLING_FIELDS = ("schedule_design", "n", "seed", "smoothing_sigma")


def build_design(node, delta: float, path: str = "sampling") -> SamplingTimeSchedule:
    node = _expect_mapping(node, path)
    kind = node.get("schedule_design")
    if kind in _DESIGN_FIELDS:
        _check_keys(node, path, _SAMPLING_FIELDS + _DESIGN_FIELDS[kind])
    try:
        if kind == "two_step_ou":
            radius = _get_number(node, "R", path, required=True)
            eps = _get_number(node, "eps", path, required=True)
            return design_two_step_ou(radius, eps, delta)
        if kind == "halving_ve":
            horizon = _get_number(node, "T", path, required=True)
            return design_halving_ve(horizon, delta)
        if kind == "uniform":
            horizon = _get_number(node, "T", path, required=True)
            n_steps = _get_number(node, "N", path, required=True, integer=True)
            return design_uniform(horizon, n_steps, delta)
        if kind == "explicit":
            taus = node.get("taus")
            if not isinstance(taus, list) or not taus:
                raise ConfigError(f"{path}.taus: expected a nonempty list of times")
            return SamplingTimeSchedule(
                [_number(t, f"{path}.taus[{i}]") for i, t in enumerate(taus)]
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(
        f"{path}.schedule_design: expected 'two_step_ou', 'halving_ve', "
        f"'uniform', or 'explicit', got {kind!r}"
    )


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    target: Target
    schedule: NoiseSchedule
    delta: float
    estimator: ConsistencyFn
    estimator_kind: str
    taus: SamplingTimeSchedule
    n: int
    seed: int
    smoothing: object  # None | "optimal" | float
    eps_over_delta: object  # float | "measured"
    want_tv: bool
    tail_c: float | None
    tail_big_c: float | None
    tail_coeff: float
    label: str
    out: str


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    raw = _expect_mapping(raw, "config")
    _check_keys(raw, "config", (
        "target", "schedule", "delta", "estimator", "sampling",
        "eps_over_delta", "metrics", "bounds", "label", "out",
    ))
    for key in ("target", "schedule", "sampling"):
        if key not in raw:
            raise ConfigError(f"{key}: required field is missing")
    target = build_target(raw["target"])
    schedule = build_schedule(raw["schedule"])
    delta = _get_number(raw, "delta", "config", default=1.0)
    if delta <= 0:
        raise ConfigError(f"delta: must be positive, got {delta}")
    estimator_node = raw.get("estimator", {"estimator": "exact"})
    estimator = build_estimator(estimator_node, target, schedule)
    sampling = _expect_mapping(raw["sampling"], "sampling")
    taus = build_design(sampling, delta)
    n = _get_number(sampling, "n", "sampling", default=100_000, integer=True)
    if n < 1:
        raise ConfigError(f"sampling.n: must be >= 1, got {n}")
    seed = _get_number(sampling, "seed", "sampling", default=0, integer=True)
    smoothing = sampling.get("smoothing_sigma")
    if smoothing is not None and smoothing != "optimal":
        if isinstance(smoothing, bool) or not isinstance(smoothing, (int, float)):
            raise ConfigError(
                "sampling.smoothing_sigma: expected null, 'optimal', or a number"
            )
        smoothing = float(smoothing)
        if smoothing <= 0:
            raise ConfigError("sampling.smoothing_sigma: must be positive")
    eps_over_delta = raw.get("eps_over_delta", "measured")
    if eps_over_delta != "measured":
        if isinstance(eps_over_delta, bool) or not isinstance(eps_over_delta, (int, float)):
            raise ConfigError("eps_over_delta: expected a number or 'measured'")
        eps_over_delta = float(eps_over_delta)
        if eps_over_delta < 0:
            raise ConfigError("eps_over_delta: must be nonnegative")
    metrics_node = _expect_mapping(raw.get("metrics", {}), "metrics")
    _check_keys(metrics_node, "metrics", ("tv",))
    want_tv = metrics_node.get("tv", False)
    if not isinstance(want_tv, bool):
        raise ConfigError("metrics.tv: expected true/false")
    bounds_node = _expect_mapping(raw.get("bounds", {}), "bounds")
    _check_keys(bounds_node, "bounds", ("tail_c", "tail_C", "tail_coeff"))
    tail_c = _get_number(bounds_node, "tail_c", "bounds")
    tail_big_c = _get_number(bounds_node, "tail_C", "bounds")
    tail_coeff = _get_number(bounds_node, "tail_coeff", "bounds", default=1.0)
    label = raw.get("label", "experiment")
    if not isinstance(label, str) or not label:
        raise ConfigError("label: expected a nonempty string")
    out = raw.get("out", "experiment.csv")
    if not isinstance(out, str) or not out:
        raise ConfigError("out: expected a file path")
    estimator_kind = estimator_node.get("estimator", "exact")
    return ExperimentConfig(
        target=target,
        schedule=schedule,
        delta=delta,
        estimator=estimator,
        estimator_kind=estimator_kind,
        taus=taus,
        n=n,
        seed=seed,
        smoothing=smoothing,
        eps_over_delta=eps_over_delta,
        want_tv=want_tv,
        tail_c=tail_c,
        tail_big_c=tail_big_c,
        tail_coeff=tail_coeff,
        label=label,
        out=out,
    )


def load_experiment_config(path) -> ExperimentConfig:
    def finite(parse):
        # Rejects JSON's NaN and Infinity, and literals beyond the float
        # range such as 1e400, before any of them reaches the arithmetic.
        def parse_finite(token: str):
            if not math.isfinite(float(token)):
                raise ConfigError(
                    f"config: number {token} in {path} is NaN or outside "
                    "the float range"
                )
            return parse(token)

        return parse_finite

    try:
        with open(path) as fh:
            raw = json.load(
                fh,
                parse_constant=finite(float),
                parse_float=finite(float),
                parse_int=finite(int),
            )
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_experiment_config(raw)
