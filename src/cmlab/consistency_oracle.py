"""Consistency functions: the exact oracle and controlled-error estimators.

A consistency function maps a point ``x`` on a reverse-time ODE trajectory
at time ``t`` back to the trajectory's origin at time 0.  This module
provides:

* ``quantile_map`` — the exact consistency function of any 1-D target,
  the monotone rearrangement ``f(x, t) = Q_0(F_t(x))``: a threshold for
  two atoms, an affine map for one Gaussian, and otherwise solved point
  by point;
* ``pf_ode_consistency`` — a numerically integrated oracle running the
  probability-flow ODE in denoiser form, ``dy/dlam = (y - D(y, lam)) / lam``
  in ``y = x / alpha`` against ``lam = sigma / alpha`` (the same equation
  for every schedule), backward with RK4 on nodes uniform in
  ``asinh(lam_eff**(1/3))``, ``lam_eff = sqrt(lam**2 + v_min / 100)``, to
  the noise floor ``lam = 1e-6``, where it returns the posterior mean
  ``D``;
* ``quantile_perturbed`` — a deliberately miscalibrated threshold estimator
  whose decision boundary sits at the ``w_lo + kappa * t**2`` quantile of
  the true marginal, giving a mean squared evaluation error of exactly
  ``gap**2 * kappa * t**2`` against the exact oracle;
* Monte Carlo evaluators for the evaluation error against a reference
  oracle and for the per-step self-consistency loss along the exact flow.

Points are scalars.  All consistency functions map each entry of an array
on its own and return it unchanged at ``t = 0`` (bit-exactly).  The
threshold and affine cases of ``quantile_map``, and the threshold-form
``quantile_perturbed``, also carry ``law``: the exact law of their output
when the input is drawn from a 1-D Gaussian mixture, from which
:func:`~cmlab.sampler.stage_laws` builds every stage law of the sampler.
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
    _rearrange_1d,
    _sample_mixture,
    marginal_quantile_1d,
    marginal_score_path,
)

__all__ = [
    "ConsistencyFn",
    "quantile_map",
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
# Points per block of the threshold oracle's gather.
_GATHER_BLOCK = 1 << 16


def _check_step(step) -> float:
    """The RK4 step bound as a float; it must be finite and > 0."""
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    return step


@dataclass(frozen=True, slots=True, eq=False)
class ConsistencyFn:
    """An evaluable map ``(x, t) -> x0`` on each entry of ``x``.

    ``fn`` receives the ``n`` entries of ``x`` as an ``(n,)`` array and a
    strictly positive time, and returns ``(n,)`` outputs, which take the
    shape of ``x`` (any other output raises :class:`NumericError`).  The
    identity at ``t = 0`` is applied here, so any ``(x, t) -> x0`` map can
    be wrapped directly.

    ``law``, when set, maps a 1-D mixture ``(means, variances, weights)``,
    as :meth:`~cmlab.target_dist.MarginalView.mixture_params` returns it,
    and a time ``t > 0`` to the same triple for the exact law of
    ``fn(X, t)`` with ``X`` drawn from that mixture.  Only the closed-form
    constructors set it; it is what makes the sampler's stage laws exact.
    """

    fn: Callable
    law: Callable | None = None

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
        return out.reshape(x.shape)


def _flow(target, schedule: NoiseSchedule, x: np.ndarray, t_from: float, t_to: float):
    """``Q_{t_to}(F_{t_from}(x))``, the exact probability-flow map of ``(n,)``
    points, for ``p_{t_from}`` with a density.  Time 0 is the target itself:
    a custom schedule's ``alpha(0)`` is only within 1e-9 of 1."""

    def law(t):
        if t == 0.0:
            return _noised_params(target, 1.0, 0.0)
        return MarginalView(target, schedule, t).mixture_params()

    return _rearrange_1d(x, law(t_from), law(t_to))


def _quantile_threshold(target, schedule: NoiseSchedule, kappa: float = 0.0):
    """The threshold oracle of a target of two atoms ``lo < hi``, with its
    boundary at the ``w_lo + kappa * t**2`` quantile of the time-``t``
    marginal (``w_lo`` bit for bit at ``kappa = 0``), solved once per ``t``.
    The solver is looked up in this module at call time, so a wrapper of
    :func:`marginal_quantile_1d` here sees every solve."""
    order = np.argsort(target.locations[:, 0])
    lo, hi = target.locations[order, 0].tolist()
    w_lo = float(target.weights[order[0]])

    @functools.cache
    def boundary(t: float) -> float:
        u = w_lo + kappa * t * t
        if u >= 1.0:
            raise NumericError(
                f"quantile level w_lo + kappa*t^2 = {u} is out of range; "
                "reduce kappa or the time horizon"
            )
        return marginal_quantile_1d(MarginalView(target, schedule, t), u)

    return _threshold_oracle(lo, hi, boundary)


def _threshold_oracle(lo: float, hi: float, boundary: Callable):
    """The rule ``lo`` where ``x < boundary(t)``, else ``hi`` (NaN included),
    for two atoms ``lo < hi``: ``np.where``, but as a gather from ``[hi,
    lo]`` indexed by the comparison, which on unordered points, such as a
    sampler stage's, runs in about half ``where``'s time.  The gather runs
    block by block, ``_GATHER_BLOCK`` points at a time, through one
    block-sized index array, so a call allocates its ``(n,)`` output and
    nothing else of size n.  Its law puts the mixture's mass below
    ``boundary(t)`` on ``lo`` and the rest on ``hi``, as computed: a mixture
    far from the boundary gives a weight of 0."""
    atoms = np.array([hi, lo])

    def fn(x, t):
        b = boundary(t)
        out = np.empty(x.shape)
        index = np.empty(min(x.size, _GATHER_BLOCK), np.intp)
        for start in range(0, x.size, _GATHER_BLOCK):
            stop = min(start + _GATHER_BLOCK, x.size)
            block = index[: stop - start]
            np.less(x[start:stop], b, out=block, casting="unsafe")
            # "clip" (the indices are 0 or 1): "raise" would buffer ``out``
            np.take(atoms, block, out=out[start:stop], mode="clip")
        return out

    def law(mixture, t):
        means, variances, weights = mixture
        r = float(_mixture_cdf_1d(boundary(t), means, np.sqrt(variances), weights))
        return np.array([lo, hi]), np.zeros(2), np.array([r, 1.0 - r])

    return ConsistencyFn(fn, law=law)


def quantile_map(target, schedule: NoiseSchedule) -> ConsistencyFn:
    """The exact consistency function ``f(x, t) = Q_0(F_t(x))`` of a 1-D
    target: the probability-flow ODE keeps points in order and pushes
    ``p_t`` onto ``p_0``, so ``f`` is the monotone rearrangement
    (Santambrogio, *Optimal Transport for Applied Mathematicians*, 2015,
    ch. 2).  Three cases:

    * two atoms ``lo < hi``, any weights: ``lo`` below ``a_t = Q_t(w_lo)``,
      solved once per ``t``, else ``hi`` (NaN included).  For equal weights
      ``a_t`` is the noised midpoint ``0.5 (lo + hi) alpha_t``.
    * one Gaussian ``N(m, v)``: ``slope x + m (1 - alpha_t slope)``, with
      ``slope = sqrt(v / V_t)`` and ``V_t = alpha_t**2 v + sigma2_t`` (NaN
      to NaN).
    * any other target: :func:`_flow` from ``t`` to 0, no ``law``; a
      non-finite point raises :class:`NumericError`.

    Any target builds; one that is not 1-D raises :class:`NumericError`
    when the function or its law is called.
    """
    if isinstance(target, DiscreteTarget) and target.n_components == 2:
        return _quantile_threshold(target, schedule)
    if isinstance(target, GaussianMixtureTarget) and target.n_components == 1:
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

    return ConsistencyFn(lambda x, t: _flow(target, schedule, x, t, 0.0))


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
    in ``v = asinh(lam_eff**(1/3))``, with ``ceil(|v_to - v_from| / step)``
    steps, and the end nodes are the two end levels exactly.  Here
    ``lam_eff = sqrt(lam**2 + c)`` and ``c = v_min / 100`` for the smallest
    component variance ``v_min`` of the target.  For atoms (``c = 0``)
    ``v`` is EDM's ``lam**(1/3)`` spacing near ``lam = 0`` (Karras et al.,
    arXiv:2206.00364), which follows the collapse onto the atoms.  A
    mixture has no such collapse: below ``lam ~ sqrt(v_min) / 10`` its
    noised law is the target's to 1% in variance, and there ``v`` is
    nearly flat, so few steps go there.  At large ``lam`` ``v`` becomes log
    spacing.  The middle stages sit at the midpoints in ``lam`` of each
    step.  Works in either time direction.  Returns ``alpha(t_to) * y``, in
    the shape of ``x``: every entry is a point.
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
    # v = asinh(lam_eff**(1/3)) with lam_eff = sqrt(lam**2 + c), which is
    # lam bit for bit for atoms (c = 0)
    c = 0.01 * float(np.min(_noised_params(target, 1.0, 0.0)[1]))
    v_from, v_to = np.arcsinh(np.cbrt(np.sqrt(ends_lam**2 + c))).tolist()
    span = abs(v_to - v_from) / step
    if not span <= _MAX_ODE_STEPS:  # NaN and inf included
        raise NumericError(
            f"RK4 from lam = {ends_lam[0]} to {ends_lam[1]} at step {step} needs "
            f"{span:.3g} steps, over the {_MAX_ODE_STEPS} limit"
        )
    n_steps = math.ceil(span)
    lams = np.sinh(np.linspace(v_from, v_to, n_steps + 1)) ** 3
    # Back to lam: the interior nodes lie strictly between the end levels,
    # so lam_eff**2 > c there, and the end nodes are the end levels exactly,
    # since the round trip through v is not exact.
    lams[1:-1] = np.sqrt(lams[1:-1] ** 2 - c)
    lams[[0, -1]] = ends_lam
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
    asinh(lam_eff**(1/3))``, ``lam_eff = sqrt(lam**2 + v_min / 100)``, runs
    from ``t`` down to ``t = 0``, that is to the noise floor ``lam =
    1e-6``, and the output is the posterior mean there,

        y + sum_k r_k (m_k - y) lam**2 / (v_k + lam**2),

    within ``O(lam**2)`` of the ODE's own endpoint.  The posterior mean is
    computed by :func:`~cmlab.target_dist._mixture_score`, with the exact
    pull ``m_k - y``, not by the field's tabulated kernel.  For atoms the
    factor ``lam**2 / (v_k + lam**2)`` is exactly 1 and the responsibility
    of every far atom exactly 0, so a point that has reached an atom's
    neighbourhood returns that atom bit for bit.  A point exactly on a
    separatrix stays on the saddle and returns the posterior mean there:
    between atoms ``{0, 100}`` under OU the input ``50 alpha_t`` returns 50,
    where the threshold of :func:`quantile_map` returns 100.
    """
    step = _check_step(step)
    floor2 = _LAMBDA_FLOOR * _LAMBDA_FLOOR

    def fn(x, t):
        y = pf_ode_transport(target, schedule, x, t, 0.0, step)
        return y + _mixture_score(y, _noised_params(target, 1.0, floor2), floor2)[0]

    return ConsistencyFn(fn)


def quantile_perturbed(
    target: DiscreteTarget,
    schedule: NoiseSchedule,
    kappa: float = 1e-4,
) -> ConsistencyFn:
    """Threshold estimator with a quantile-shifted decision boundary.

    For atoms ``lo < hi`` of any weights, instead of the exact boundary
    ``Q_t(w_lo)`` the boundary at time ``t`` is the ``w_lo + kappa * t**2``
    quantile ``a_t`` of the true marginal, so the estimator sends exactly
    ``kappa * t**2`` of the marginal mass to ``lo`` that the exact oracle
    sends to ``hi``, and

        E_{x ~ p_t} (fhat(x, t) - f(x, t))**2 = gap**2 * kappa * t**2.

    With the default ``kappa = 1e-4`` and atoms ``{0, 100}`` this mean
    squared evaluation error is ``t**2`` exactly.
    """
    if not kappa > 0:
        raise NumericError(f"kappa must be > 0, got {kappa!r}")
    if not isinstance(target, DiscreteTarget):
        raise NumericError("this oracle requires an atomic target")
    if target.dim != 1 or target.n_components != 2:
        raise NumericError("this oracle requires exactly two atoms in 1-D")
    return _quantile_threshold(target, schedule, kappa)


def consistency_loss(
    fhat: ConsistencyFn,
    target,
    schedule: NoiseSchedule,
    partition: TrainingPartition,
    i: int,
    n: int,
    seed,
) -> MonteCarloEstimate:
    """Monte Carlo per-step self-consistency loss at partition step ``i``,
    ``E_{x ~ p_{t_i}} | fhat(x, t_i) - fhat(phi(x), t_{i+1}) |^2`` for the
    probability-flow map ``phi``, taken as ``E_{y ~ p_{t_{i+1}}}`` with ``x =
    phi^{-1}(y) = Q_{t_i}(F_{t_{i+1}}(y))`` (:func:`_flow`), which is drawn
    from ``p_{t_i}``, on the atoms themselves at ``t_0 = 0``.  So the step-0
    loss is the evaluation error at ``t_1`` against :func:`quantile_map`.
    """
    if not 0 <= i <= partition.m - 1:
        raise NumericError(f"step index {i} outside 0..{partition.m - 1}")
    t_i = partition.time_of(i)
    t_next = partition.time_of(i + 1)

    def pulled_back(y, t):
        return fhat(_flow(target, schedule, y, t, t_i), t_i)

    return evaluation_error(
        fhat, pulled_back, MarginalView(target, schedule, t_next), n, seed
    )


def evaluation_error(
    fhat: ConsistencyFn,
    f_ref: ConsistencyFn,
    view: MarginalView,
    n: int,
    seed,
) -> MonteCarloEstimate:
    """Monte Carlo ``E_{x ~ p_t} | fhat(x, t) - f_ref(x, t) |^2``."""
    t = view.t
    means, variances, weights = view.mixture_params()

    def chunk(rng, m, _ci):
        if m == 0:
            return 0.0, 0.0, 0
        x = _sample_mixture(rng, means, variances, weights, m)
        return chunk_moments((fhat(x, t) - f_ref(x, t)) ** 2)

    return merge_moments(map_chunks(chunk, n, seed))
