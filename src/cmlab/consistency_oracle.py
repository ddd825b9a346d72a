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
  for every schedule), backward with RK4 on nodes uniform in
  ``asinh(lam**(1/3))`` to the noise floor ``lam = 1e-6``, where it
  returns the posterior mean ``D``;
* ``quantile_perturbed`` — a deliberately miscalibrated threshold estimator
  whose decision boundary sits at the ``0.5 + kappa * t**2`` quantile of the
  true marginal, giving a mean squared evaluation error of exactly
  ``gap**2 * kappa * t**2`` against the exact oracle;
* Monte Carlo evaluators for the per-step self-consistency loss and the
  evaluation error against a reference oracle.

Points are scalars.  All consistency functions map each entry of an array
on its own, return it unchanged at ``t = 0`` (bit-exactly) and clamp it to
``[-output_radius, output_radius]``.  The two closed-form oracles, and the
threshold-form ``quantile_perturbed``, also carry ``law``: the exact law of
their output when the input is drawn from a 1-D Gaussian mixture, from
which :func:`~cmlab.sampler.stage_laws` builds every stage law of the
sampler.
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
    _mixture_cdf_1d,
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
    """An evaluable map ``(x, t) -> x0`` on each entry of ``x``, with
    outputs clamped to ``[-output_radius, output_radius]``.

    ``fn`` receives the ``n`` entries of ``x`` as an ``(n,)`` array and a
    strictly positive time, and returns ``(n,)`` outputs, which take the
    shape of ``x`` (any other output raises :class:`NumericError`).  The
    identity at ``t = 0`` and the clamp (none by default) are applied
    here, so any ``(x, t) -> x0`` map can be wrapped directly.

    ``law``, when set, maps a 1-D mixture ``(means, variances, weights)``,
    as :meth:`~cmlab.target_dist.MarginalView.mixture_params` returns it,
    and a time ``t > 0`` to the same triple for the exact law of
    ``fn(X, t)`` with ``X`` drawn from that mixture.  Only the closed-form
    constructors set it; it is what makes the sampler's stage laws exact.
    """

    fn: Callable
    output_radius: float = math.inf
    law: Callable | None = None

    def __post_init__(self):
        if self.output_radius < 0:
            raise ValueError("output_radius must be nonnegative")

    def __call__(self, x, t: float) -> np.ndarray:
        x, t = np.asarray(x, dtype=float), float(t)
        if t == 0.0:
            return x.copy()
        out = np.asarray(self.fn(x.ravel(), t), dtype=float)
        if out.shape != (x.size,):
            raise NumericError(
                f"consistency function returned shape {out.shape} for {x.size} "
                f"points at t = {t}"
            )
        return _clamp_norms(out, self.output_radius).reshape(x.shape)


def _clamp_norms(y: np.ndarray, radius: float) -> np.ndarray:
    """Scale the entries of ``y`` whose magnitude exceeds ``radius`` back to
    it, by ``radius / |y|``; ``y`` itself is returned when none is over."""
    if not np.isfinite(radius):
        return y
    if y.size and y.max() <= radius and y.min() >= -radius:
        return y  # every entry within the radius; NaN fails both tests
    over = np.flatnonzero(np.abs(y) > radius)
    if over.size == 0:
        return y
    y = y.copy()
    y[over] *= radius / np.abs(y[over])
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
    sampler stage's, runs in about half ``where``'s time.  Its law puts the
    mixture's mass below ``boundary(t)`` on ``lo`` and the rest on ``hi``,
    as computed: a mixture far from the boundary gives a weight of 0."""

    def fn(x, t):
        index = np.empty(x.shape, np.intp)
        np.less(x, boundary(t), out=index, casting="unsafe")
        return np.take([hi, lo], index)

    def law(mixture, t):
        means, variances, weights = mixture
        r = float(_mixture_cdf_1d(boundary(t), means, np.sqrt(variances), weights))
        return np.array([lo, hi]), np.zeros(2), np.array([r, 1.0 - r])

    return ConsistencyFn(fn, law=law)


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


def exact_single_gaussian(
    target: GaussianMixtureTarget, schedule: NoiseSchedule
) -> ConsistencyFn:
    """Exact affine consistency function for a one-component Gaussian target.

    When the data law is ``N(m, v)`` the time-``s`` marginal is
    ``N(alpha_s m, V_s)`` with ``V_s = alpha_s**2 v + sigma2_s``, the
    reverse ODE is linear, and trajectories scale deviations from the mean
    by the total standard deviation:

        f(x, t) = slope * x + m (1 - alpha_t slope),  slope = sqrt(v / V_t).

    Its law maps each mixture component through the same map.  A target
    that is not 1-D raises when the function or its law is called.
    """
    if not isinstance(target, GaussianMixtureTarget) or target.n_components != 1:
        raise NumericError("closed-form affine oracle requires a single Gaussian")
    v = float(target.variances[0])

    def affine(t):
        m = float(_noised_params(target, 1.0, 0.0)[0][0])
        a = float(schedule.alpha(t))
        slope = math.sqrt(v / (a * a * v + float(schedule.sigma2(t))))
        return slope, m * (1.0 - a * slope)

    def fn(x, t):
        slope, intercept = affine(t)
        return slope * x + intercept

    def law(mixture, t):
        means, variances, weights = mixture
        slope, intercept = affine(t)
        return slope * means + intercept, slope * slope * variances, weights

    return ConsistencyFn(fn, law=law)


def _pf_ode_field(target, lams: np.ndarray) -> Callable:
    """The probability-flow ODE field at the noise levels ``lams``.

    In ``y = x / alpha`` and ``lam = sigma / alpha`` every forward process
    has the same probability-flow ODE (Karras et al., EDM,
    arXiv:2206.00364),

        dy/dlam = (y - D(y, lam)) / lam = -lam * score_lam(y),

    where ``D`` is the posterior-mean denoiser and ``score_lam`` the score
    of the target noised to variances ``v_k + lam**2``: the VE marginal at
    ``t = lam``.  Returns ``field(j, y)``, a fresh ``(n,)`` array, for
    ``(n,)`` points ``y`` and ``lam = lams[j]``: one call of the tabulated
    score kernel of :func:`~cmlab.target_dist.marginal_score_path`, whose
    constants for every node are computed once, here.  The responsibilities
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
    ``lam = sigma / alpha`` (see :func:`_pf_ode_field`) by classical RK4.
    The ODE is autonomous in ``lam``, so only the two end levels matter:
    each is floored at ``1e-6``, so ``t = 0`` is reached as that noise
    level and a point on an atom stays on it.  The step nodes are uniform
    in ``v = asinh(lam**(1/3))``, with ``ceil(|v_to - v_from| / step)``
    steps, and the end nodes are the two end levels exactly.  ``v`` is
    EDM's ``lam**(1/3)`` spacing near ``lam = 0`` (Karras et al.,
    arXiv:2206.00364) and log spacing at large ``lam``.  The middle stages
    sit at the midpoints in ``lam`` of each step.  Works in either time
    direction.  Returns ``alpha(t_to) * y``, in the shape of ``x``: every
    entry is a point.
    """
    step = _check_step(step)
    x = np.asarray(x, dtype=float)
    t_from = float(t_from)
    t_to = float(t_to)
    if t_from == t_to:
        return x.copy()
    ends = schedule.check_time([t_from, t_to])
    alphas = np.asarray(schedule.alpha(ends), dtype=float)
    ends_lam = np.maximum(schedule.sigma(ends) / alphas, _LAMBDA_FLOOR)
    v_from, v_to = np.arcsinh(np.cbrt(ends_lam)).tolist()
    span = abs(v_to - v_from) / step
    if not span <= _MAX_ODE_STEPS:  # NaN and inf included
        raise NumericError(
            f"RK4 from lam = {ends_lam[0]} to {ends_lam[1]} at step {step} needs "
            f"{span:.3g} steps, over the {_MAX_ODE_STEPS} limit"
        )
    n_steps = math.ceil(span)
    lams = np.sinh(np.linspace(v_from, v_to, n_steps + 1)) ** 3
    lams[[0, -1]] = ends_lam  # the round trip through v is not exact
    # Nodes and midpoints interleaved: the stages of step k sit at 2k, 2k+1
    # and 2k+2.
    nodes = np.empty(2 * n_steps + 1)
    nodes[0::2] = lams
    nodes[1::2] = 0.5 * (lams[:-1] + lams[1:])
    field = _pf_ode_field(target, nodes)
    a_from, a_to = alphas.tolist()
    y = x.ravel() / a_from

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
    return y.reshape(x.shape)


def pf_ode_consistency(
    target, schedule: NoiseSchedule, step: float = 1e-3
) -> ConsistencyFn:
    """Consistency function computed by integrating the reverse ODE.

    :func:`pf_ode_transport`, with steps of at most ``step`` in ``v =
    asinh(lam**(1/3))``, runs from ``t`` down to ``t = 0``, that is to the
    noise floor ``lam = 1e-6``, and the output is the posterior mean there,

        y + sum_k r_k (m_k - y) lam**2 / (v_k + lam**2),

    within ``O(lam**2)`` of the ODE's own endpoint.  The posterior mean is
    computed by :func:`~cmlab.target_dist._mixture_score`, with the exact
    pull ``m_k - y``, not by the field's tabulated kernel.  For atoms the
    factor ``lam**2 / (v_k + lam**2)`` is exactly 1 and the responsibility
    of every far atom exactly 0, so a point that has reached an atom's
    neighbourhood returns that atom bit for bit.  A point exactly on a
    separatrix stays on the saddle and returns the posterior mean there:
    between atoms ``{0, 100}`` under OU the input ``50 alpha_t`` returns 50,
    where :func:`exact_two_point` returns 100.
    """
    step = _check_step(step)
    discrete = isinstance(target, DiscreteTarget)
    radius = geometry(target).radius if discrete else math.inf
    floor2 = _LAMBDA_FLOOR * _LAMBDA_FLOOR

    def fn(x, t):
        y = pf_ode_transport(target, schedule, x, t, 0.0, step)
        return y + _mixture_score(y, _noised_params(target, 1.0, floor2), floor2)[0]

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
        return chunk_moments((a - b) ** 2)

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
    partition step forward in time, by :func:`pf_ode_transport` with steps
    of at most ``step`` in ``v = asinh(lam**(1/3))``.
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
