"""Consistency functions: exact oracles and controlled-error estimators.

A consistency function maps a point ``x`` on a reverse-time ODE trajectory
at time ``t`` back to the trajectory's origin at time 0.  This module
provides:

* ``exact_two_point`` — the closed-form oracle for an equal-weight two-atom
  target: the threshold rule ``f(x, t) = mu0 if x < midpoint * alpha_t else mu1``;
* ``exact_single_gaussian`` — the closed-form affine oracle for a single
  Gaussian target (the reverse ODE is linear there);
* ``pf_ode_consistency`` — a numerically integrated oracle running the
  probability-flow ODE in denoiser form, ``dy/dlam = (y - D(y, lam)) / lam``
  in ``y = x / alpha`` against ``lam = sigma / alpha`` (the same equation
  for every schedule), backward with fixed-step RK4 to the noise floor
  ``lam = 1e-6``, where it returns the posterior mean ``D``;
* ``quantile_perturbed`` — a deliberately miscalibrated threshold estimator
  whose decision boundary sits at the ``0.5 + kappa * t**2`` quantile of the
  true marginal, giving a mean squared evaluation error of exactly
  ``gap**2 * kappa * t**2`` against the exact oracle;
* Monte Carlo evaluators for the per-step self-consistency loss and the
  evaluation error against a reference oracle.

All consistency functions return their input unchanged at ``t = 0``
(bit-exactly) and clamp output norms to ``output_radius``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rng import MonteCarloEstimate, chunk_moments, map_chunks, merge_moments
from .errors import NumericError
from .noise_schedule import NoiseSchedule, TrainingPartition, make_ve
from .target_dist import (
    DiscreteTarget,
    GaussianMixtureTarget,
    MarginalView,
    _mixture_score,
    _noised_params,
    _sample_mixture,
    geometry,
    marginal_quantile_1d,
    marginal_score_path,
)

__all__ = [
    "ConsistencyFn",
    "exact_two_point",
    "exact_single_gaussian",
    "pf_ode_consistency",
    "pf_ode_transport",
    "quantile_perturbed",
    "consistency_loss",
    "evaluation_error",
]

_MAX_ODE_STEPS = 10**8

# The PF-ODE runs in lam = sigma / alpha floored here, so t = 0 maps to this
# noise level, where the denoiser of an atomic target is still defined.
_LAMBDA_FLOOR = 1e-6
# In y = x / alpha the PF-ODE field at lam is the VE field at t = lam.
_VE = make_ve()


def _check_step(step) -> float:
    """The RK4 step bound as a float; it must be finite and > 0."""
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    return step


@dataclass(frozen=True, slots=True, eq=False)
class ConsistencyFn:
    """An evaluable map ``(x, t) -> x0`` with output norms clamped to
    ``output_radius``.

    ``fn`` receives an ``(n, d)`` array and a strictly positive time;
    the identity at ``t = 0`` and the clamp (none by default) are applied
    here, so any ``(x, t) -> x0`` map can be wrapped directly.

    ``boundary`` is set for threshold-form maps (two-atom oracles and their
    perturbations): it maps ``t`` to the decision boundary ``a_t``, which is
    what makes the sampler's stage laws analytically computable.
    """

    fn: Callable
    output_radius: float = math.inf
    boundary: Callable | None = None

    def __post_init__(self):
        if self.output_radius < 0:
            raise ValueError("output_radius must be nonnegative")

    def __call__(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = x[:, None] if squeeze else x
        if t == 0.0:
            out = pts.copy()
        else:
            out = np.asarray(self.fn(pts, float(t)), dtype=float)
            out = _clamp_norms(out, self.output_radius)
        return out[:, 0] if squeeze else out


def _clamp_norms(y: np.ndarray, radius: float) -> np.ndarray:
    """Scale the rows of ``y`` whose norm exceeds ``radius`` back onto the
    sphere of that radius, by ``radius / norm``; ``y`` itself is returned
    when no row is over.  In 1-D the norm is ``|y|``, which is what
    ``sqrt(y**2)`` rounds to wherever ``y**2`` neither overflows nor
    underflows."""
    if not np.isfinite(radius):
        return y
    if y.shape[1] == 1 and y.size and y.max() <= radius and y.min() >= -radius:
        return y  # every row within the radius; NaN fails both tests
    norms = np.abs(y[:, 0]) if y.shape[1] == 1 else np.linalg.norm(y, axis=1)
    over = np.flatnonzero(norms > radius)
    if over.size == 0:
        return y
    y = y.copy()
    y[over] *= (radius / norms[over])[:, None]
    return y


def _two_point_atoms(target: DiscreteTarget) -> tuple[float, float]:
    if not isinstance(target, DiscreteTarget):
        raise NumericError("this oracle requires an atomic target")
    if target.dim != 1 or target.n_components != 2:
        raise NumericError("this oracle requires exactly two atoms in 1-D")
    w = target.weights
    if abs(float(w[0]) - 0.5) > 1e-12:
        raise NumericError("this oracle requires equal atom weights")
    lo, hi = sorted(float(v) for v in target.locations[:, 0])
    return lo, hi


def _threshold_oracle(lo: float, hi: float, boundary: Callable):
    """The rule ``lo`` where ``x < boundary(t)``, else ``hi`` (NaN included),
    for two atoms ``lo < hi``: ``np.where``, but as a gather from ``[hi,
    lo]`` indexed by the comparison, which on unordered points, such as a
    sampler stage's, runs in about half ``where``'s time."""

    def fn(x, t):
        index = np.empty(x.shape, np.intp)
        np.less(x, boundary(t), out=index, casting="unsafe")
        return np.take([hi, lo], index)

    return ConsistencyFn(fn, max(abs(lo), abs(hi)), boundary)


def exact_two_point(target: DiscreteTarget, schedule: NoiseSchedule) -> ConsistencyFn:
    """Exact consistency function for an equal-weight two-atom 1-D target.

    By symmetry the reverse-ODE separatrix is the noised midpoint
    ``0.5 * (mu0 + mu1) * alpha_t``: everything below it originates from the
    lower atom, everything above from the upper one.
    """
    lo, hi = _two_point_atoms(target)
    mid = 0.5 * (lo + hi)

    def boundary(t: float) -> float:
        return mid * float(schedule.alpha(t))

    return _threshold_oracle(lo, hi, boundary)


def _gaussian_slope(v: float, schedule: NoiseSchedule, t: float):
    """``alpha_t`` and the slope ``sqrt(v / V_t)``, ``V_t = alpha_t**2 v +
    sigma2_t``, of the exact oracle for a Gaussian of variance ``v``."""
    a = float(schedule.alpha(t))
    return a, math.sqrt(v / (a * a * v + float(schedule.sigma2(t))))


def exact_single_gaussian(
    target: GaussianMixtureTarget, schedule: NoiseSchedule
) -> ConsistencyFn:
    """Exact affine consistency function for a one-component Gaussian target.

    When the data law is ``N(m, v I)`` the time-``s`` marginal is
    ``N(alpha_s m, V_s I)`` with ``V_s = alpha_s**2 v + sigma2_s``, the
    reverse ODE is linear, and trajectories scale deviations from the mean
    by the total standard deviation:

        f(x, t) = m + sqrt(v / V_t) * (x - alpha_t m).
    """
    if not isinstance(target, GaussianMixtureTarget) or target.n_components != 1:
        raise NumericError("closed-form affine oracle requires a single Gaussian")
    m = target.means[0]
    v = float(target.variances[0])

    def fn(x, t):
        a, slope = _gaussian_slope(v, schedule, t)
        return m[None, :] + slope * (x - a * m[None, :])

    return ConsistencyFn(fn)


def gaussian_affine_map(
    target: GaussianMixtureTarget, schedule: NoiseSchedule, t: float
) -> tuple[float, float]:
    """Slope and intercept of the exact single-Gaussian oracle at time ``t``."""
    if target.n_components != 1 or target.dim != 1:
        raise NumericError("affine map requires a single 1-D Gaussian")
    m = float(target.means[0, 0])
    a, slope = _gaussian_slope(float(target.variances[0]), schedule, t)
    return slope, m * (1.0 - a * slope)


def _pf_ode_field(target, lams: np.ndarray) -> Callable:
    """The probability-flow ODE field at the noise levels ``lams``.

    In ``y = x / alpha`` and ``lam = sigma / alpha`` every forward process
    has the same probability-flow ODE (Karras et al., EDM,
    arXiv:2206.00364),

        dy/dlam = (y - D(y, lam)) / lam = -lam * score_lam(y),

    where ``D`` is the posterior-mean denoiser and ``score_lam`` the score
    of the target noised to variances ``v_k + lam**2``: the VE marginal at
    ``t = lam``.  Returns ``field(j, y)`` for ``(n, d)`` points ``y`` and
    ``lam = lams[j]``, by one kernel pass of
    :func:`~cmlab.target_dist.marginal_score_path`.  The responsibilities
    are a softmax, so the field is defined at every finite point.
    """
    score_at = marginal_score_path(target, _VE, lams)

    def field(j: int, y: np.ndarray) -> np.ndarray:
        out = score_at(j, y)
        out *= -lams[j]
        return out

    return field


def pf_ode_transport(
    target,
    schedule: NoiseSchedule,
    x,
    t_from: float,
    t_to: float,
    step: float = 1e-3,
) -> np.ndarray:
    """Advance points along the probability-flow ODE from ``t_from`` to ``t_to``.

    The points are mapped to ``y = x / alpha(t_from)`` and integrated in
    ``lam = sigma / alpha`` (see :func:`_pf_ode_field`) by classical RK4
    with ``ceil(|t_to - t_from| / step)`` steps.  The step nodes are ``lam``
    at equally spaced times from ``t_from`` to ``t_to``, so the endpoint is
    hit exactly, and the middle stages sit at the midpoints in ``lam`` of
    each step.  Works in either time direction.  ``lam`` is floored at
    ``1e-6`` at both ends for every target, so ``t = 0`` is reached as that
    noise level; a point on an atom stays on it.  Returns
    ``alpha(t_to) * y``.
    """
    step = _check_step(step)
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = x[:, None] if squeeze else x
    t_from = float(t_from)
    t_to = float(t_to)
    if t_from == t_to:
        pts = pts.copy()
        return pts[:, 0] if squeeze else pts
    n_steps = int(math.ceil(abs(t_to - t_from) / step))
    if n_steps > _MAX_ODE_STEPS:
        raise NumericError(
            f"RK4 step count {n_steps} exceeds the {_MAX_ODE_STEPS} limit"
        )
    times = schedule.check_time(np.linspace(t_from, t_to, n_steps + 1))
    lams = np.maximum(schedule.sigma(times) / schedule.alpha(times), _LAMBDA_FLOOR)
    # Nodes and midpoints interleaved: the stages of step k sit at 2k, 2k+1
    # and 2k+2.  Midpoints of lam, not lam at the middle time, keep the
    # scheme fourth order where lam(t) is far from linear (OU near t = 0).
    nodes = np.empty(2 * n_steps + 1)
    nodes[0::2] = lams
    nodes[1::2] = 0.5 * (lams[:-1] + lams[1:])
    field = _pf_ode_field(target, nodes)
    a_from, a_to = np.asarray(schedule.alpha(times[[0, -1]]), dtype=float).tolist()
    y = pts / a_from

    # Stage points and the step combination are built in place, in the
    # operation order of ``y + (h / 6) * (k1 + 2 k2 + 2 k3 + k4)`` (IEEE
    # sums and products commute), so no step allocates more than the four
    # field values.
    stage = np.empty_like(y)
    for k, h in enumerate(np.diff(lams).tolist()):
        half_h = 0.5 * h
        k1 = field(2 * k, y)
        np.multiply(k1, half_h, out=stage)
        k2 = field(2 * k + 1, np.add(stage, y, out=stage))
        np.multiply(k2, half_h, out=stage)
        k3 = field(2 * k + 1, np.add(stage, y, out=stage))
        np.multiply(k3, h, out=stage)
        k4 = field(2 * k + 2, np.add(stage, y, out=stage))
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        y += k2
    y *= a_to
    return y[:, 0] if squeeze else y


def pf_ode_consistency(
    target, schedule: NoiseSchedule, step: float = 1e-3
) -> ConsistencyFn:
    """Consistency function computed by integrating the reverse ODE.

    :func:`pf_ode_transport` with steps of at most ``step`` runs from ``t``
    down to ``t = 0``, that is to the noise floor ``lam = 1e-6``, and the
    output is the posterior mean there,

        y + sum_k r_k (m_k - y) lam**2 / (v_k + lam**2),

    within ``O(lam**2)`` of the ODE's own endpoint.  For atoms the factor
    ``lam**2 / (v_k + lam**2)`` is exactly 1 and the responsibility of
    every far atom exactly 0, so a point that has reached an atom's
    neighbourhood returns that atom bit for bit.  A point exactly on a
    separatrix stays on the saddle and returns the posterior mean there:
    between atoms ``{0, 100}`` under OU the input ``50 alpha_t`` returns 50,
    where :func:`exact_two_point` returns 100.
    """
    step = _check_step(step)
    discrete = isinstance(target, DiscreteTarget)
    radius = geometry(target).radius if discrete else math.inf
    floor2 = _LAMBDA_FLOOR * _LAMBDA_FLOOR
    at_floor = _noised_params(target, 1.0, floor2)

    def fn(x, t):
        y = pf_ode_transport(target, schedule, x, t, 0.0, step)
        return y + _mixture_score(y, at_floor, floor2)[0]

    return ConsistencyFn(fn, radius)


def quantile_perturbed(
    target: DiscreteTarget,
    schedule: NoiseSchedule,
    kappa: float = 1e-4,
) -> ConsistencyFn:
    """Threshold estimator with a quantile-shifted decision boundary.

    Instead of the exact separatrix (the median of the marginal), the
    boundary at time ``t`` is the ``0.5 + kappa * t**2`` quantile ``a_t`` of
    the true marginal, so the estimator misassigns exactly ``kappa * t**2``
    of the marginal mass and

        E_{x ~ p_t} (fhat(x, t) - f(x, t))**2 = gap**2 * kappa * t**2.

    With the default ``kappa = 1e-4`` and atoms ``{0, 100}`` this mean
    squared evaluation error is ``t**2`` exactly.
    """
    if not kappa > 0:
        raise NumericError(f"kappa must be > 0, got {kappa!r}")
    lo, hi = _two_point_atoms(target)

    @functools.cache
    def boundary(t: float) -> float:
        u = 0.5 + kappa * t * t
        if u >= 1.0:
            raise NumericError(
                f"quantile level 0.5 + kappa*t^2 = {u} is out of range; "
                "reduce kappa or the time horizon"
            )
        return marginal_quantile_1d(MarginalView(target, schedule, t), u)

    return _threshold_oracle(lo, hi, boundary)


def _mean_squared_gap(view: MarginalView, pair: Callable, n: int, seed):
    """Monte Carlo ``E_{x ~ p_t} |a - b|^2`` with ``(a, b) = pair(x)``,
    called once per RNG chunk of :func:`~cmlab._rng.map_chunks`."""
    means, variances, weights = view.mixture_params()

    def chunk(rng, m, _ci):
        if m == 0:
            return 0.0, 0.0, 0
        a, b = pair(_sample_mixture(rng, means, variances, weights, m))
        return chunk_moments(np.sum((a - b) ** 2, axis=1))

    return merge_moments(map_chunks(chunk, n, seed))


def consistency_loss(
    fhat: ConsistencyFn,
    target,
    schedule: NoiseSchedule,
    partition: TrainingPartition,
    i: int,
    n: int,
    seed,
    step: float = 1e-3,
) -> MonteCarloEstimate:
    """Monte Carlo per-step self-consistency loss at partition step ``i``.

    Estimates ``E_{x ~ p_{t_i}} | fhat(x, t_i) - fhat(phi(t_{i+1}; x, t_i),
    t_{i+1}) |^2`` where ``phi`` advances the probability-flow ODE one
    partition step forward in time, by RK4 with steps of at most ``step``.
    """
    step = _check_step(step)
    if not 0 <= i <= partition.m - 1:
        raise NumericError(f"step index {i} outside 0..{partition.m - 1}")
    t_i = partition.time_of(i)
    t_next = partition.time_of(i + 1)

    def pair(x):
        here = fhat(x, t_i)
        moved = pf_ode_transport(target, schedule, x, t_i, t_next, step)
        return here, fhat(moved, t_next)

    return _mean_squared_gap(MarginalView(target, schedule, t_i), pair, n, seed)


def evaluation_error(
    fhat: ConsistencyFn,
    f_ref: ConsistencyFn,
    view: MarginalView,
    n: int,
    seed,
) -> MonteCarloEstimate:
    """Monte Carlo ``E_{x ~ p_t} | fhat(x, t) - f_ref(x, t) |^2``."""
    t = view.t
    return _mean_squared_gap(view, lambda x: (fhat(x, t), f_ref(x, t)), n, seed)
