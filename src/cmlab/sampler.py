"""Multistep consistency sampling and sampling-time-schedule designers.

The sampler alternates denoising and re-noising along a strictly decreasing
time schedule ``tau_1 > ... > tau_N > 0``:

    x_{tau_1} ~ N(0, sigma2(tau_1) I)
    for i = 1 .. N-1:
        x0_i      = fhat(x_{tau_i}, tau_i)
        x_{tau_i+1} ~ N(alpha(tau_{i+1}) x0_i, sigma2(tau_{i+1}) I)
    output: x0_N = fhat(x_{tau_N}, tau_N)

Three designers produce the schedules used by the experiments:

* ``design_two_step_ou`` — the two-step schedule tuned for the
  Ornstein-Uhlenbeck process, ``tau_1 = log(R^3 delta^2 / eps^2)``,
  ``tau_2 = log(R^2 delta / eps)``;
* ``design_halving_ve`` — halve the time each step until it reaches the
  partition step;
* ``design_uniform`` — evenly spaced times.

Designed times are rounded to the nearest training-partition point with
ties rounding up.  ``threshold_stage_laws`` and ``affine_stage_laws``
compute the sampler's per-stage distributions in closed form for
threshold-form and affine estimators, which is what lets the experiments
compare empirical distances against analytic ones.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._rng import N_CHUNKS, chunk_rngs, chunk_sizes
from .consistency_oracle import ConsistencyFn
from .errors import NumericError
from .noise_schedule import NoiseSchedule
from .target_dist import DiscreteTarget, MarginalView, marginal_cdf_1d

__all__ = [
    "SamplingTimeSchedule",
    "TrajectoryRecord",
    "multistep_sample",
    "design_two_step_ou",
    "design_halving_ve",
    "design_uniform",
    "smooth_output",
    "sigma_eps_optimal",
    "threshold_stage_laws",
    "affine_stage_laws",
]


@dataclass(frozen=True, slots=True)
class SamplingTimeSchedule:
    """Strictly decreasing finite positive times ``tau_1 > ... > tau_N``."""

    taus: tuple

    def __init__(self, taus):
        taus = tuple(float(t) for t in taus)
        if len(taus) < 1:
            raise ValueError("need at least one sampling time")
        if any(t <= 0 for t in taus):
            raise ValueError(f"sampling times must be positive, got {taus}")
        if not all(math.isfinite(t) for t in taus):
            raise ValueError(f"sampling times must be finite, got {taus}")
        if any(a <= b for a, b in zip(taus, taus[1:])):
            raise ValueError(f"sampling times must be strictly decreasing, got {taus}")
        object.__setattr__(self, "taus", taus)

    @property
    def n_steps(self) -> int:
        return len(self.taus)

    def truncated(self, i: int) -> "SamplingTimeSchedule":
        """The schedule of the first ``i`` stages (1-indexed)."""
        if not 1 <= i <= self.n_steps:
            raise NumericError(f"stage {i} outside 1..{self.n_steps}")
        return SamplingTimeSchedule(self.taus[:i])


@dataclass(frozen=True, slots=True, eq=False)
class TrajectoryRecord:
    """The per-stage outputs of one multistep-sampling run.

    ``denoised[i]`` holds the stage-(i+1) ``x0`` predictions, ``(n, d)``.
    The noisy points ``x_{tau_{i+1}}`` are not kept; they are the inputs of
    the stage's consistency-function call, so a caller that needs them can
    record them there.
    """

    taus: SamplingTimeSchedule
    denoised: np.ndarray  # (N, n, d)

    def __post_init__(self):
        if self.denoised.shape[0] != self.taus.n_steps:
            raise ValueError("stage count mismatch between taus and arrays")

    @property
    def output(self) -> np.ndarray:
        """Final denoised samples ``x0_N``."""
        return self.denoised[-1]


def multistep_sample(
    fhat: ConsistencyFn,
    schedule: NoiseSchedule,
    taus: SamplingTimeSchedule,
    n: int,
    seed,
    dim: int = 1,
) -> TrajectoryRecord:
    """Run multistep consistency sampling, keeping every stage's ``x0``.

    The ``n`` rows are split into the fixed chunks of ``_rng`` and each
    chunk draws its noise from its own child generator, stage after stage,
    into its slice of one ``(n, d)`` noisy slab, reused by every stage.
    The chunks are dealt into lanes, one per usable CPU, and the lanes
    draw, scale and re-centre their chunks' rows in parallel threads
    (numpy releases the interpreter lock in all three); the previous
    stage's ``alpha x0`` is written into this stage's own ``denoised`` slot
    first, so no temporary is allocated.  The arithmetic is elementwise on
    disjoint rows, so the result is bitwise the same for every lane count.
    Every stage then makes one consistency-function call on all ``n``
    rows.  The result is deterministic for a given seed.
    """
    # Imported here: ``concurrent.futures.thread`` (with ``queue``) is the
    # one part of the package that loading the CLI does not already pull in.
    from concurrent.futures import ThreadPoolExecutor

    if n < 1:
        raise NumericError(f"n must be >= 1, got {n}")
    ts = taus.taus
    edges = np.cumsum([0] + chunk_sizes(n))
    chunks = [
        (rng, slice(lo, hi))
        for rng, lo, hi in zip(chunk_rngs(seed), edges[:-1], edges[1:])
    ]
    workers = _lane_count()
    lanes = [chunks[k::workers] for k in range(workers)]
    x = np.empty((n, dim))
    denoised = np.empty((len(ts), n, dim))

    def renoise(lane, i, scale, alpha):
        for rng, rows in lane:
            noisy = rng.standard_normal(out=x[rows])
            noisy *= scale
            if i > 0:
                shift = denoised[i, rows]
                noisy += np.multiply(denoised[i - 1, rows], alpha, out=shift)

    # The calling thread takes the first lane itself, so one usable CPU
    # starts no thread and each stage waits on one handoff fewer.
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        for i, t in enumerate(ts):
            scale = math.sqrt(float(schedule.sigma2(t)))
            alpha = float(schedule.alpha(t))
            futures = [
                pool.submit(renoise, lane, i, scale, alpha) for lane in lanes[1:]
            ]
            renoise(lanes[0], i, scale, alpha)
            for future in futures:
                future.result()
            denoised[i] = fhat(x, t)
    return TrajectoryRecord(taus=taus, denoised=denoised)


def _lane_count() -> int:
    """Noise-drawing lanes of :func:`multistep_sample`: one per CPU this
    process may run on, at most one per chunk."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(N_CHUNKS, cpus))


def _round_to_grid(t: float, delta: float) -> int:
    """Index of the nearest partition point to ``t`` (ties round up)."""
    return int(math.floor(t / delta + 0.5))


def _two_step_ou_times(radius: float, eps: float, delta: float) -> tuple[float, float]:
    """The designed OU times ``log(R^3 delta^2 / eps^2)`` and
    ``log(R^2 delta / eps)`` before rounding, in the regime where both
    are positive."""
    if radius <= 0 or eps <= 0 or delta <= 0:
        raise NumericError("radius, eps, delta must all be positive")
    ratio = eps / delta
    if ratio >= radius:
        raise NumericError(
            f"invalid regime: eps/delta = {ratio} must be < radius = {radius}"
        )
    tau1 = 3.0 * math.log(radius) + 2.0 * math.log(delta) - 2.0 * math.log(eps)
    tau2 = 2.0 * math.log(radius) + math.log(delta) - math.log(eps)
    if tau2 <= 0:
        raise NumericError(f"invalid regime: tau_2 = {tau2} is not positive")
    return tau1, tau2


def design_two_step_ou(radius: float, eps: float, delta: float) -> SamplingTimeSchedule:
    """Two-step schedule tuned for the Ornstein-Uhlenbeck process.

    ``tau_1 = log(R^3 delta^2 / eps^2)`` and ``tau_2 = log(R^2 delta / eps)``,
    rounded onto the training partition.  Requires ``eps/delta < R`` (the
    regime where the estimator's evaluation error is meaningful relative to
    the support radius).
    """
    tau1, tau2 = _two_step_ou_times(radius, eps, delta)
    i1 = _round_to_grid(tau1, delta)
    i2 = _round_to_grid(tau2, delta)
    if i2 < 1:
        raise NumericError(
            f"invalid regime: tau_2 = {tau2} rounds below the first partition point"
        )
    if i1 <= i2:
        raise NumericError(
            f"invalid regime: designed times collide after rounding "
            f"({tau1} -> {i1 * delta}, {tau2} -> {i2 * delta})"
        )
    return SamplingTimeSchedule((i1 * delta, i2 * delta))


def design_halving_ve(horizon: float, delta: float) -> SamplingTimeSchedule:
    """Halving schedule ``tau_i = T * 2**(1-i)`` down to the partition step.

    The sequence stops once it reaches ``delta`` (the last time is set to
    ``delta``), then rounds onto the partition; duplicates produced by
    rounding are dropped (keeping the earlier stage).
    """
    if horizon < delta:
        raise NumericError(f"horizon {horizon} must be >= delta {delta}")
    count = max(1, int(math.floor(math.log2(2.0 * horizon / delta) + 1e-12)))
    raw = [horizon * 2.0 ** (1 - i) for i in range(1, count + 1)]
    raw[-1] = delta
    indices = []
    for t in raw:
        i = max(1, _round_to_grid(t, delta))
        if indices and i >= indices[-1]:
            continue  # rounding collision: keep the earlier stage
        indices.append(i)
    return SamplingTimeSchedule(tuple(i * delta for i in indices))


def design_uniform(horizon: float, n_steps: int, delta: float) -> SamplingTimeSchedule:
    """Evenly spaced schedule ``tau_i = T (N + 1 - i) / N`` on the partition."""
    if n_steps < 1:
        raise NumericError(f"n_steps must be >= 1, got {n_steps}")
    if horizon < n_steps * delta:
        raise NumericError(
            f"horizon {horizon} too short for {n_steps} steps of size {delta}"
        )
    indices = []
    for i in range(1, n_steps + 1):
        t = horizon * (n_steps + 1 - i) / n_steps
        idx = _round_to_grid(t, delta)
        if idx < 1:
            raise NumericError(f"tau_{i} = {t} rounds below the first partition point")
        if indices and idx >= indices[-1]:
            raise NumericError(
                f"uniform schedule collides after rounding at stage {i} "
                f"(tau = {t} -> index {idx})"
            )
        indices.append(idx)
    return SamplingTimeSchedule(tuple(i * delta for i in indices))


def smooth_output(samples, sigma_eps: float, seed) -> np.ndarray:
    """Add isotropic ``N(0, sigma_eps^2)`` noise to every sample."""
    if not sigma_eps > 0:
        raise NumericError(f"sigma_eps must be > 0, got {sigma_eps!r}")
    samples = np.asarray(samples, dtype=float)
    rng = np.random.default_rng(seed)
    return samples + sigma_eps * rng.standard_normal(samples.shape)


def sigma_eps_optimal(tau_n: float, eps: float, delta: float, d: int, smoothness: float) -> float:
    """Smoothing level ``sqrt(tau_N * eps / (4 d L delta))`` minimizing the
    sum of the final-evaluation and smoothing terms of the TV bound."""
    if tau_n <= 0 or eps <= 0 or delta <= 0 or d <= 0 or smoothness <= 0:
        raise NumericError("all inputs to sigma_eps_optimal must be positive")
    return math.sqrt(tau_n * eps / (4.0 * d * smoothness * delta))


def threshold_stage_laws(
    target: DiscreteTarget,
    schedule: NoiseSchedule,
    taus: SamplingTimeSchedule,
    boundary,
) -> list[MarginalView]:
    """Exact per-stage noisy laws of the sampler for a threshold estimator.

    For a two-atom target and an estimator of the form
    ``x < a_t -> mu0 else mu1`` every stage law is a two-component Gaussian
    mixture whose weights follow the recursion

        r_i = P_{stage i}(x < a_{tau_i}),   stage i+1 ~ (r_i, 1 - r_i) noised,

    starting from the pure-noise stage law N(0, sigma2(tau_1)).  Returned as
    one MarginalView per stage (the stage-1 view is a noised atom at the
    origin, which is exactly N(0, sigma2(tau_1))).
    """
    if target.dim != 1 or target.n_components != 2:
        raise NumericError("stage laws require a two-atom 1-D target")
    lo, hi = sorted(float(v) for v in target.locations[:, 0])
    views = [
        MarginalView(DiscreteTarget([[0.0]], [1.0]), schedule, taus.taus[0])
    ]
    for t, t_next in zip(taus.taus, taus.taus[1:]):
        r = float(marginal_cdf_1d(views[-1], boundary(t)))
        r = min(max(r, 1e-15), 1 - 1e-15)
        law = DiscreteTarget([[lo], [hi]], [r, 1.0 - r])
        views.append(MarginalView(law, schedule, t_next))
    return views


def affine_stage_laws(
    schedule: NoiseSchedule,
    taus: SamplingTimeSchedule,
    affine_of_t,
) -> tuple[list[tuple[float, float]], tuple[float, float]]:
    """Exact Gaussian stage laws of the sampler for an affine estimator.

    ``affine_of_t(t) -> (slope, intercept)`` describes the estimator
    ``fhat(x, t) = slope * x + intercept`` (1-D).  Returns the list of
    ``(mean, variance)`` of the noisy law at each stage and the
    ``(mean, variance)`` of the final denoised output.
    """
    ts = taus.taus
    mean, var = 0.0, float(schedule.sigma2(ts[0]))
    stages = [(mean, var)]
    for t, t_next in zip(ts, ts[1:]):
        slope, intercept = affine_of_t(t)
        mean, var = slope * mean + intercept, slope * slope * var
        a = float(schedule.alpha(t_next))
        s2 = float(schedule.sigma2(t_next))
        mean, var = a * mean, a * a * var + s2
        stages.append((mean, var))
    slope, intercept = affine_of_t(ts[-1])
    out = (slope * mean + intercept, slope * slope * var)
    return stages, out
