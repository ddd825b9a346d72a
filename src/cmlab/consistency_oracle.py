"""Consistency functions: exact oracles and controlled-error estimators.

A consistency function maps a point ``x`` on a reverse-time ODE trajectory
at time ``t`` back to the trajectory's origin at time 0.  This module
provides:

* ``exact_two_point`` — the closed-form oracle for an equal-weight two-atom
  target: the threshold rule ``f(x, t) = mu0 if x < midpoint * alpha_t else mu1``;
* ``exact_single_gaussian`` — the closed-form affine oracle for a single
  Gaussian target (the reverse ODE is linear there);
* ``pf_ode_consistency`` — a numerically integrated oracle running the
  probability-flow ODE ``dx/ds = h(s) x - 0.5 g2(s) * score_s(x)`` backward
  with fixed-step RK4 to the small positive time floor ``1e-6``;
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
from .noise_schedule import NoiseSchedule, TrainingPartition, drift_diffusion
from .target_dist import (
    DiscreteTarget,
    GaussianMixtureTarget,
    MarginalView,
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
    "wrap_fn",
    "consistency_loss",
    "evaluation_error",
]

_MAX_ODE_STEPS = 10**8

# The PF-ODE consistency function integrates down to this time rather than
# 0, clear of the singular score of atomic targets at vanishing noise.
_TIME_FLOOR = 1e-6


def _check_step(step) -> float:
    """The RK4 step bound as a float; it must be finite and > 0."""
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    return step


@dataclass(frozen=True, slots=True, eq=False)
class ConsistencyFn:
    """An evaluable map ``(x, t) -> x0`` with bounded output.

    ``fn`` receives an ``(n, d)`` array and a strictly positive time;
    the identity at ``t = 0`` and the output-norm clamp are applied here so
    every kind behaves identically at the contract level.

    ``boundary`` is set for threshold-form kinds (two-atom oracles and their
    perturbations): it maps ``t`` to the decision boundary ``a_t``, which is
    what makes the sampler's stage laws analytically computable.
    """

    fn: Callable
    output_radius: float
    kind: str
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


def _threshold(x: np.ndarray, a: float, lo: float, hi: float) -> np.ndarray:
    """``lo`` where ``x < a``, else ``hi`` (NaN included): ``np.where(x < a,
    lo, hi)``, but as a gather from ``[hi, lo]`` indexed by the comparison,
    written straight out as index integers.  On unordered points, such as a
    sampler stage's, this runs in about half ``where``'s time."""
    index = np.less(x, a, out=np.empty(x.shape, np.intp), casting="unsafe")
    return np.take([hi, lo], index)


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

    def fn(x, t):
        return _threshold(x, boundary(t), lo, hi)

    return ConsistencyFn(
        fn=fn,
        output_radius=max(abs(lo), abs(hi)),
        kind="ExactTwoPoint",
        boundary=boundary,
    )


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
        a = float(schedule.alpha(t))
        big_v = a * a * v + float(schedule.sigma2(t))
        slope = math.sqrt(v / big_v)
        return m[None, :] + slope * (x - a * m[None, :])

    return ConsistencyFn(fn=fn, output_radius=math.inf, kind="Wrapped")


def gaussian_affine_map(
    target: GaussianMixtureTarget, schedule: NoiseSchedule, t: float
) -> tuple[float, float]:
    """Slope and intercept of the exact single-Gaussian oracle at time ``t``."""
    if target.n_components != 1 or target.dim != 1:
        raise NumericError("affine map requires a single 1-D Gaussian")
    m = float(target.means[0, 0])
    v = float(target.variances[0])
    a = float(schedule.alpha(t))
    big_v = a * a * v + float(schedule.sigma2(t))
    slope = math.sqrt(v / big_v)
    return slope, m * (1.0 - a * slope)


# Component z-score beyond which the ODE field's score queries are projected.
_SCORE_QUERY_CAP = 30.0


def _pf_ode_field(target, schedule: NoiseSchedule, grid: np.ndarray) -> Callable:
    """The probability-flow ODE field at the times ``grid``.

    Returns ``field(j, y) = h(s_j) y - 0.5 g2(s_j) score_{s_j}(P_j(y))`` for
    ``(n, d)`` points ``y`` and ``s_j = grid[j]``.  ``P_j`` projects each
    score query into the region where the mixture density stays above the
    underflow floor: a point farther than 30 standard deviations from every
    component is pulled radially to 30 standard deviations of the nearest
    one.  RK4 stage points land there in the stiff low-noise stretch (tiny
    ``sigma2``, atomic target), where the exact score is far larger than any
    stable step could use; the projected score keeps the correct direction
    and only caps that magnitude.  The projection and the score share one
    kernel pass (:func:`~cmlab.target_dist.marginal_score_path`).

    The drift coefficients, ``alpha`` and ``sigma2`` are tabulated on the
    whole grid up front, so an evaluation is one kernel call.
    """
    h_all, g2_all = drift_diffusion(schedule, grid)
    h_all = np.asarray(h_all, dtype=float)
    half_g2_all = 0.5 * np.asarray(g2_all, dtype=float)
    score_at = marginal_score_path(target, schedule, grid, cap=_SCORE_QUERY_CAP)

    def field(j: int, y: np.ndarray) -> np.ndarray:
        out = score_at(j, y)
        out *= half_g2_all[j]
        return np.subtract(h_all[j] * y, out, out=out)

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

    Fixed-step classical RK4 with substep size at most ``step`` (the
    interval is divided into equal substeps, so the endpoint is hit
    exactly).  Works in either time direction.  The projection of score
    queries happens inside each field evaluation (see
    :func:`_pf_ode_field`); the integrated points themselves are never
    moved.

    Starting *forward* from exactly ``t = 0`` with an atomic target is
    singular (the zero-noise marginal has no density); in that case each
    point is first moved to ``(1e-6, alpha(1e-6) * x)``, the mean
    continuation of its own conditional trajectory, which is exact for
    points sitting on atoms.
    """
    step = _check_step(step)
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = (x[:, None] if squeeze else x).copy()
    t_from = float(t_from)
    t_to = float(t_to)
    discrete = isinstance(target, DiscreteTarget)
    if discrete:
        if t_to == 0.0:
            raise NumericError(
                "cannot integrate to t = 0 for an atomic target; stop at the "
                "solver floor instead"
            )
        if t_from == 0.0:
            t_from = _TIME_FLOOR
            pts = pts * float(schedule.alpha(t_from))
    if t_from == t_to:
        return pts[:, 0] if squeeze else pts
    span = t_to - t_from
    n_steps = int(math.ceil(abs(span) / step))
    if n_steps > _MAX_ODE_STEPS:
        raise NumericError(
            f"RK4 step count {n_steps} exceeds the {_MAX_ODE_STEPS} limit"
        )
    h_step = span / n_steps
    # Half-step grid s_j = t_from + j*h/2 covering every RK4 stage time.
    field = _pf_ode_field(
        target, schedule, np.linspace(t_from, t_to, 2 * n_steps + 1)
    )

    # Stage points and the step combination are built in place, in the
    # operation order of ``pts + (h / 6) * (k1 + 2 k2 + 2 k3 + k4)`` (IEEE
    # sums and products commute), so no step allocates more than the four
    # field values.
    half_h = 0.5 * h_step
    stage = np.empty_like(pts)
    for k in range(n_steps):
        k1 = field(2 * k, pts)
        np.multiply(k1, half_h, out=stage)
        k2 = field(2 * k + 1, np.add(stage, pts, out=stage))
        np.multiply(k2, half_h, out=stage)
        k3 = field(2 * k + 1, np.add(stage, pts, out=stage))
        np.multiply(k3, h_step, out=stage)
        k4 = field(2 * k + 2, np.add(stage, pts, out=stage))
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h_step / 6.0
        pts += k2
    return pts[:, 0] if squeeze else pts


def pf_ode_consistency(
    target, schedule: NoiseSchedule, step: float = 1e-3
) -> ConsistencyFn:
    """Consistency function computed by integrating the reverse ODE.

    RK4 with steps of at most ``step`` runs from ``t`` down to the time
    floor ``1e-6``.  For atomic targets the endpoint is snapped to the
    nearest atom, which absorbs the accumulated error of the (deliberately
    simple) fixed-step scheme in the stiff final stretch near zero noise.
    """
    step = _check_step(step)
    discrete = isinstance(target, DiscreteTarget)
    geo = geometry(target)
    radius = geo.radius if discrete else math.inf
    locations = target.locations if discrete else None

    def fn(x, t):
        out = pf_ode_transport(target, schedule, x, t, _TIME_FLOOR, step)
        if discrete:
            dists = np.linalg.norm(
                out[:, None, :] - locations[None, :, :], axis=2
            )
            out = locations[np.argmin(dists, axis=1)]
        return out

    return ConsistencyFn(fn=fn, output_radius=radius, kind="PfOde")


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

    def fn(x, t):
        return _threshold(x, boundary(t), lo, hi)

    return ConsistencyFn(
        fn=fn,
        output_radius=max(abs(lo), abs(hi)),
        kind="QuantilePerturbed",
        boundary=boundary,
    )


def wrap_fn(
    fn: Callable, output_radius: float = math.inf, kind: str = "Wrapped"
) -> ConsistencyFn:
    """Wrap an arbitrary ``(x, t) -> x0`` map as a ConsistencyFn.

    The wrapper supplies the identity at ``t = 0`` and the output clamp; the
    wrapped function is only consulted at strictly positive times.
    """
    return ConsistencyFn(fn=fn, output_radius=output_radius, kind=kind)


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
    view = MarginalView(target, schedule, t_i)
    means, variances, weights = view.mixture_params()

    def chunk(rng, m, _ci):
        if m == 0:
            return 0.0, 0.0, 0
        x = _sample_mixture(rng, means, variances, weights, m)
        here = fhat(x, t_i)
        moved = pf_ode_transport(target, schedule, x, t_i, t_next, step)
        there = fhat(moved, t_next)
        return chunk_moments(np.sum((here - there) ** 2, axis=1))

    return merge_moments(map_chunks(chunk, n, seed))


def evaluation_error(
    fhat: ConsistencyFn,
    f_ref: ConsistencyFn,
    view: MarginalView,
    n: int,
    seed,
) -> MonteCarloEstimate:
    """Monte Carlo ``E_{x ~ p_t} | fhat(x, t) - f_ref(x, t) |^2``."""
    means, variances, weights = view.mixture_params()
    t = view.t

    def chunk(rng, m, _ci):
        if m == 0:
            return 0.0, 0.0, 0
        x = _sample_mixture(rng, means, variances, weights, m)
        return chunk_moments(np.sum((fhat(x, t) - f_ref(x, t)) ** 2, axis=1))

    return merge_moments(map_chunks(chunk, n, seed))
