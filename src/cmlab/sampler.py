"""Multistep consistency sampling and sampling-time-schedule designers.

The sampler alternates denoising and re-noising along a strictly decreasing
time schedule ``tau_1 > ... > tau_N > 0``:

    x_{tau_1} ~ N(0, sigma2(tau_1))
    for i = 1 .. N-1:
        x0_i      = fhat(x_{tau_i}, tau_i)
        x_{tau_i+1} ~ N(alpha(tau_{i+1}) x0_i, sigma2(tau_{i+1}))
    output: x0_N = fhat(x_{tau_N}, tau_N)

Points are scalars.  ``multistep_sample`` returns every stage's ``x0_i``,
or hands each one to a per-stage function as it is made and keeps only the
one the next renoise needs, so a caller that reduces each stage to a few
numbers (the CLI's W2) holds two stages' worth of samples instead of N.

Three designers produce the schedules used by the experiments:

* ``design_two_step_ou`` — the two-step schedule tuned for the
  Ornstein-Uhlenbeck process, ``tau_1 = log(R^3 delta^2 / eps^2)``,
  ``tau_2 = log(R^2 delta / eps)``;
* ``design_halving_ve`` — halve the time each step until it reaches the
  partition step;
* ``design_uniform`` — evenly spaced times.

Designed times are rounded to the nearest training-partition point with
ties rounding up.  ``stage_laws`` computes the sampler's per-stage laws in
closed form for an estimator that carries its ``law`` (the threshold and
affine oracles), which is what lets the experiments compare empirical
distances against analytic ones.
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

__all__ = [
    "SamplingTimeSchedule",
    "multistep_sample",
    "design_two_step_ou",
    "design_halving_ve",
    "design_uniform",
    "sigma_eps_optimal",
    "stage_laws",
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


def multistep_sample(
    fhat: ConsistencyFn,
    schedule: NoiseSchedule,
    taus: SamplingTimeSchedule,
    n: int,
    seed,
    per_stage=None,
):
    """Run multistep consistency sampling and return every stage's ``x0``
    as one ``(N, n)`` array, whose last entry is the sampler's output.
    With ``per_stage``, each stage's ``(n,)`` output goes to
    ``per_stage(x0)`` as soon as ``fhat`` returns it, and the result is the
    list of its N return values instead: only the previous stage's output
    is kept, for the next renoise, so a caller that needs one number per
    stage never holds all N stages.  ``per_stage`` must not modify its
    argument.  The noisy points are not kept; ``fhat`` sees them and may
    record them.

    The ``n`` points are split into the fixed chunks of ``_rng`` and each
    chunk draws its noise from its own child generator, stage after stage,
    into its slice of one ``(n,)`` noisy slab, reused by every stage.  Each
    stage puts all the chunks in one queue, and lanes, one per usable CPU,
    take chunks from it in parallel threads until it is empty, drawing,
    scaling and re-centring each chunk's points (numpy releases the
    interpreter lock in all three); re-centring adds ``alpha x0`` of the
    previous stage through one chunk-sized temporary.  The arithmetic is
    elementwise on disjoint slices, so the result is bitwise the same for
    every lane count and whichever lane takes a chunk, with or without
    ``per_stage``.  Every stage then makes one consistency-function call on
    all ``n`` points, on the calling thread.  As soon as it returns, the
    worker lanes start on the next stage's queue while the calling thread
    runs ``per_stage(x0)``, then joins the draw.  The renoise only reads
    ``x0``, which is why ``per_stage`` must leave it as it is.  An output
    that shares memory with the noisy slab is copied before the slab is
    redrawn.  The result is deterministic for a given seed, a reused
    ``SeedSequence`` included.
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
    x = np.empty(n)
    result = np.empty((len(ts), n)) if per_stage is None else []

    def renoise(queue, scale, alpha, prev):
        # Every lane of a stage iterates the same list iterator, whose
        # ``next`` is atomic under the interpreter lock: each chunk is drawn
        # exactly once, by whichever lane takes it.
        for rng, part in queue:
            noisy = rng.standard_normal(out=x[part])
            noisy *= scale
            if prev is not None:
                noisy += np.multiply(prev[part], alpha)

    # The calling thread drains the queue too, so one usable CPU starts no
    # thread and each stage waits on one handoff fewer.
    out = None
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        for i, t in enumerate(ts):
            draw = (iter(chunks), math.sqrt(float(schedule.sigma2(t))),
                    float(schedule.alpha(t)), out)
            futures = [pool.submit(renoise, *draw) for _ in range(workers - 1)]
            if per_stage is not None and i:
                result.append(per_stage(out))  # while the lanes draw
            renoise(*draw)
            for future in futures:
                future.result()
            # the renoise has read the last output: drop it before fhat
            # allocates the next one
            out = draw = None
            out = fhat(x, t)
            if per_stage is None:
                result[i] = out
                out = result[i]
            elif np.shares_memory(out, x):
                out = out.copy()
    if per_stage is not None:
        result.append(per_stage(out))
    return result


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


def sigma_eps_optimal(tau_n: float, eps: float, delta: float, d: int, smoothness: float) -> float:
    """Smoothing level ``sqrt(tau_N * eps / (4 d L delta))`` minimizing the
    sum of the final-evaluation and smoothing terms of the TV bound."""
    if tau_n <= 0 or eps <= 0 or delta <= 0 or d <= 0 or smoothness <= 0:
        raise NumericError("all inputs to sigma_eps_optimal must be positive")
    return math.sqrt(tau_n * eps / (4.0 * d * smoothness * delta))


def stage_laws(schedule: NoiseSchedule, taus: SamplingTimeSchedule, fhat: ConsistencyFn):
    """Exact per-stage laws of the sampler for an estimator with a ``law``.

    Starting from a point mass at 0, each stage noises the current law to
    ``tau_i`` (means ``alpha x``, variances ``alpha**2 v + sigma2``), which
    is the law of the stage's noisy points, and maps it by ``fhat.law``,
    which is the law of the stage's output.  Returns the two lists of
    ``(means, variances, weights)`` triples, one entry per stage:
    ``outputs[-1]`` is the sampler's output law, and ``outputs[i - 1]`` is
    bitwise that of ``taus.truncated(i)``.
    """
    if fhat.law is None:
        raise NumericError("stage laws need an estimator with a closed-form law")
    law = np.zeros(1), np.zeros(1), np.ones(1)
    noisy, outputs = [], []
    for t in taus.taus:
        a = float(schedule.alpha(t))
        means, variances, weights = law
        noisy.append((a * means, a * a * variances + float(schedule.sigma2(t)), weights))
        law = fhat.law(noisy[-1], t)
        outputs.append(law)
    return noisy, outputs
