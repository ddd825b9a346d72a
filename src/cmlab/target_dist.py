"""Analytically tractable target distributions and their noised marginals.

Targets are either a finite set of weighted atoms or an isotropic Gaussian
mixture.  Under a noise schedule, the time-``t`` marginal of either family
is an exact Gaussian mixture

    p_t = sum_k w_k * N(alpha_t * x_k, (alpha_t**2 * v_k + sigma2_t) * I)

(with ``v_k = 0`` for atoms), which gives closed-form densities, scores
and CDFs — everything the samplers, oracles, and bound evaluators
downstream need, with no estimation anywhere.  1-D quantiles are closed
form for atoms at t = 0 and for one Gaussian; for mixtures they come from
a safeguarded Newton solve inside an exact bracket, to a few ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import ndtr, ndtri

from ._rng import map_chunks
from .errors import NumericError
from .noise_schedule import NoiseSchedule

__all__ = [
    "DiscreteTarget",
    "GaussianMixtureTarget",
    "MarginalView",
    "TargetGeometry",
    "marginal_pdf",
    "marginal_logpdf",
    "score",
    "marginal_score_path",
    "marginal_cdf_1d",
    "marginal_quantile_1d",
    "sample_marginal",
    "geometry",
    "target_quantiles_1d",
]

_LOG_PDF_FLOOR = math.log(1e-300)


def _as_weights(w, k: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (k,):
        raise ValueError(f"expected {k} weights, got shape {w.shape}")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")
    return w


def _as_locations(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("locations must be a (k, d) array")
    return x


@dataclass(frozen=True, slots=True, eq=False)
class DiscreteTarget:
    """Finite atomic distribution ``sum_k w_k * delta(x_k)``."""

    locations: np.ndarray  # (k, d)
    weights: np.ndarray  # (k,)

    def __init__(self, locations, weights):
        locations = _as_locations(locations)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(
            self, "weights", _as_weights(weights, locations.shape[0])
        )
        if locations.shape[0] < 1:
            raise ValueError("need at least one atom")
        k = locations.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                if np.array_equal(locations[i], locations[j]):
                    raise ValueError(f"atoms {i} and {j} coincide")

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    @property
    def n_components(self) -> int:
        return self.locations.shape[0]


@dataclass(frozen=True, slots=True, eq=False)
class GaussianMixtureTarget:
    """Isotropic Gaussian mixture ``sum_k w_k * N(m_k, v_k I)``.

    ``log_smoothness`` is the Lipschitz constant of the score of the data
    density.  It is exact (``1/v``) for a single component and must be
    supplied by the caller for true mixtures, where no tight closed form is
    attempted.
    """

    means: np.ndarray  # (k, d)
    variances: np.ndarray  # (k,)
    weights: np.ndarray  # (k,)
    log_smoothness: float | None = None

    def __init__(self, means, variances, weights, log_smoothness=None):
        means = _as_locations(means)
        k = means.shape[0]
        variances = np.asarray(variances, dtype=float)
        if variances.shape != (k,):
            raise ValueError(f"expected {k} variances, got {variances.shape}")
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "weights", _as_weights(weights, k))
        if log_smoothness is not None and log_smoothness <= 0:
            raise ValueError("log_smoothness must be positive when given")
        object.__setattr__(self, "log_smoothness", log_smoothness)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


Target = Union[DiscreteTarget, GaussianMixtureTarget]


def _component_params(target: Target):
    """Locations, per-component variances (0 for atoms), and weights."""
    if isinstance(target, DiscreteTarget):
        k = target.n_components
        return target.locations, np.zeros(k), target.weights
    if isinstance(target, GaussianMixtureTarget):
        return target.means, target.variances, target.weights
    raise TypeError(f"unsupported target type {type(target).__name__}")


@dataclass(frozen=True, slots=True, eq=False)
class MarginalView:
    """The exact time-``t`` marginal of a target under a noise schedule."""

    target: Target
    schedule: NoiseSchedule
    t: float

    def __post_init__(self):
        self.schedule.check_time(self.t)

    @property
    def dim(self) -> int:
        return self.target.dim

    def mixture_params(self):
        """Means ``alpha_t x_k``, variances ``alpha_t^2 v_k + sigma2_t``, weights."""
        return _noised_params(
            self.target,
            float(self.schedule.alpha(self.t)),
            float(self.schedule.sigma2(self.t)),
        )


def _noised_params(target: Target, a: float, s2: float):
    """Means ``a x_k``, variances ``a^2 v_k + s2`` and weights of the
    marginal at noise level ``alpha = a``, ``sigma2 = s2``."""
    locs, vs, ws = _component_params(target)
    return a * locs, a * a * vs + s2, ws


def _require_density(variances: np.ndarray):
    if np.any(variances <= 0):
        raise NumericError(
            "marginal density does not exist: a mixture component has zero "
            "variance (discrete target at t = 0)"
        )


def _log_terms(pts: np.ndarray, mixture):
    """Pulls ``m_k - x_i`` as a component-major ``(k, n, d)`` array, and the
    ``(k, n)`` log terms ``log w_k - (d/2) log(2 pi v_k) - |m_k - x_i|^2 /
    (2 v_k)`` of a ``(means, variances, weights)`` mixture at ``(n, d)``
    points, built in place as ``(-0.5 (sq / v)) + c``, which is exactly
    ``c - 0.5 (sq / v)``."""
    means, variances, weights = mixture
    pull = means[:, None, :] - pts[None, :, :]
    log_terms = np.einsum("knd,knd->kn", pull, pull)
    log_terms /= variances[:, None]
    log_terms *= -0.5
    log_terms += (
        np.log(weights) - 0.5 * means.shape[1] * np.log(2.0 * np.pi * variances)
    )[:, None]
    return pull, log_terms


def _log_normalize(logc: np.ndarray):
    """Log-sum-exp over the component axis of a ``(k, n)`` array of log
    terms, split as the column maximum ``m``, the shifted exponentials
    ``e = exp(logc - m)`` and their sum ``s``: the total is
    :func:`_log_total` of ``(m, s)`` and ``e / s`` are the
    responsibilities.  ``e`` is written over ``logc``, so a kernel pass
    allocates no new ``(k, n)`` array here.  Reducing over the leading axis
    of a component-major array runs as ``k`` row-wise vector operations."""
    m = logc.max(axis=0)
    with np.errstate(invalid="ignore"):
        logc -= m
        e = np.exp(logc, out=logc)
    return m, e, e.sum(axis=0)


def _log_total(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``log sum exp`` from the split of :func:`_log_normalize`; a column
    whose maximum is infinite or NaN keeps it."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(m), m + np.log(s), m)


def _mixture_score(pts: np.ndarray, mixture, scale: float = 1.0):
    """Responsibility-weighted pull ``sum_k r_k (scale / V_k) (m_k - x)`` at
    ``(n, d)`` points of the mixture ``(means, variances, weights)`` given by
    :meth:`MarginalView.mixture_params`, where ``r_k`` are the softmax
    responsibilities of the components at ``x``.  At ``scale = 1`` this is
    the score; with the variances ``v_k + s2`` of a target noised by
    ``s2`` and ``scale = s2``, ``x`` plus it is the posterior mean
    ``E[x_0 | x]``.  The one kernel behind :func:`score`,
    :func:`marginal_score_path` and the PF-ODE denoiser.

    The softmax never underflows: at any finite point the component with
    the largest log term keeps responsibility at least ``1/k``.  Also
    returns the log-sum-exp split ``(m, s)`` of :func:`_log_normalize`, from
    which :func:`score` checks the density itself.  Raises
    :class:`NumericError` only if the density does not exist.
    """
    variances = mixture[1]
    _require_density(variances)
    pull, log_terms = _log_terms(pts, mixture)
    # Every (k, n) and (k, n, d) step is done in place, in the operation
    # order of ``((e / s) / (v / scale)) * pull``, ``e = exp(log_term -
    # max)``; for an atom noised by ``s2 = scale``, ``v / scale`` is exactly
    # 1.  A field evaluation of the ODE solver then allocates two arrays of
    # ``k n`` or ``k n d`` elements, not ten, which the allocator would
    # otherwise hand back to the OS and fault in again on every call.
    m, resp, s = _log_normalize(log_terms)
    resp /= s
    resp /= (variances / scale)[:, None]
    pull *= resp[:, :, None]
    # Sum the components in a fixed order with elementwise adds, so a row's
    # result does not depend on how many rows share the call (einsum takes
    # a differently ordered kernel when n == 1).
    out = np.zeros(pull.shape[1:])
    for term in pull:
        out += term
    return out, m, s


def _as_points(x, d: int) -> tuple[np.ndarray, bool]:
    """Coerce input to an (n, d) array; the flag marks single-point input."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if d != 1:
            raise ValueError("scalar input for a multi-dimensional target")
        return x.reshape(1, 1), True
    if x.ndim == 1:
        if d == 1:
            return x.reshape(-1, 1), False
        if x.shape == (d,):
            return x.reshape(1, d), True
        raise ValueError(f"cannot interpret shape {x.shape} as points in R^{d}")
    if x.ndim == 2 and x.shape[1] == d:
        return x, False
    raise ValueError(f"cannot interpret shape {x.shape} as points in R^{d}")


def marginal_logpdf(view: MarginalView, x):
    mixture = view.mixture_params()
    _require_density(mixture[1])
    pts, scalar = _as_points(x, view.dim)
    m, _, s = _log_normalize(_log_terms(pts, mixture)[1])
    logs = _log_total(m, s)
    return float(logs[0]) if scalar else logs


def marginal_pdf(view: MarginalView, x):
    """Exact mixture-of-Gaussians density of the time-``t`` marginal."""
    return np.exp(marginal_logpdf(view, x))


def score(view: MarginalView, x):
    """Gradient of the log marginal density at ``x``.

    Evaluated by the component-major mixture kernel (:func:`_mixture_score`).
    Raises :class:`NumericError` if the density underflows (below 1e-300);
    callers should clamp ``x`` or raise ``t`` instead of trusting a score
    computed from a vanishing density.
    """
    pts, scalar = _as_points(x, view.dim)
    out, m, s = _mixture_score(pts, view.mixture_params())
    # ``s >= 1`` (its largest term is exp(0)), so the total is at least
    # ``m`` and only columns with ``m`` under the floor can fall below it.
    low = np.flatnonzero(m < _LOG_PDF_FLOOR)
    if low.size and np.any(_log_total(m[low], s[low]) < _LOG_PDF_FLOOR):
        raise NumericError(
            "marginal density underflow while evaluating the score; "
            "clamp x or increase t"
        )
    return out[0] if scalar else out


def marginal_score_path(
    target: Target, schedule: NoiseSchedule, times
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The marginal scores at a fixed grid of times, for repeated use.

    Returns ``score_at(j, x)``, the score of the time-``times[j]`` marginal
    at ``(n, d)`` points ``x``.  Unlike :func:`score` it is defined at every
    finite point, however small the density there: the responsibilities
    are a softmax, so far out the score is that of the component that
    dominates there.  The time domain is checked and ``alpha`` and
    ``sigma2`` are tabulated once for the whole grid, so each call is one
    kernel pass.
    """
    times = schedule.check_time(times)
    a_all = np.asarray(schedule.alpha(times), dtype=float)
    s2_all = np.asarray(schedule.sigma2(times), dtype=float)

    def score_at(j: int, x: np.ndarray) -> np.ndarray:
        return _mixture_score(x, _noised_params(target, a_all[j], s2_all[j]))[0]

    return score_at


# Newton passes per level before the solver gives up; a level that is not
# done by then can only come from non-finite arithmetic.
_NEWTON_MAX_ITER = 200
# A level is done once its step is below this fraction of ``|x| + scale``:
# a few dozen ulps, above the rounding noise of the residual.
_NEWTON_RTOL = 2.0**-46


def _mixture_cdf_1d(x, means, sds, weights):
    """CDF at ``x`` of the 1-D mixture ``sum_k w_k N(m_k, sd_k^2)``; a
    component with zero ``sd`` (an atom at t = 0) is a step.

    The components are summed in a fixed order with elementwise adds, so a
    point's CDF does not depend on how many points share the call (numpy's
    matrix product rounds a one-row call differently).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for m, sd, w in zip(means, sds, weights):
        out += w * ((x >= m) if sd <= 0 else ndtr((x - m) / sd))
    return out


def _lower_quantiles_1d(means, sds, weights, u) -> np.ndarray:
    """Quantiles at levels ``0 < u <= 1/2`` of a 1-D Gaussian mixture with
    at least two components (``u`` a flat array).

    Every level is bracketed exactly by its component quantiles
    ``q_k = m_k + sd_k ndtri(u)``: the mixture CDF is at most ``u`` at
    ``min_k q_k`` and at least ``u`` at ``max_k q_k``.  From the middle of
    the bracket, Newton steps solve ``ndtri(F(x)) = ndtri(u)``, which is
    linear in ``x`` for one component and close to linear in the tails,
    where ``F`` itself is too flat for Newton.  Its derivative is the
    mixture density over the standard normal density at ``ndtri(F(x))``.
    Every residual narrows the bracket.  A step that leaves the bracket, or
    is not half the size of the step two passes before, is replaced by a
    bisection (the safeguard of Numerical Recipes' ``rtsafe``).  Each level
    stops on its own once its step is a few dozen ulps of ``|x| + scale``,
    so its result does not depend on which other levels share the call.
    """
    z_u = ndtri(u)
    q = means[:, None] + sds[:, None] * z_u
    lo, hi = q.min(axis=0), q.max(axis=0)
    scale = float(np.max(np.abs(means)) + np.max(sds))
    x = 0.5 * (lo + hi)
    last = older = hi - lo  # step sizes of the previous two passes
    out = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(_NEWTON_MAX_ITER):
        if todo.size == 0:
            return out
        w_x = ndtri(_mixture_cdf_1d(x, means, sds, weights))
        g = w_x - z_u[todo]
        # H'(x) = sum_k (w_k / sd_k) phi(z_k) / phi(w_x), with the ratio of
        # normal densities formed in the exponent so that neither underflows.
        # Where F is 0 or 1 the slope is inf or nan, and the step fails the
        # bracket test below.
        w2 = w_x * w_x
        slope = np.zeros(x.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for m, sd, w in zip(means, sds, weights):
                z = (x - m) / sd
                slope += (w / sd) * np.exp(0.5 * (w2 - z * z))
            step = np.where(g == 0, 0.0, g / slope)
        lo = np.where(g < 0, x, lo)
        hi = np.where(g > 0, x, hi)
        newton = x - step
        ok = (lo <= newton) & (newton <= hi) & (np.abs(step) <= 0.5 * np.abs(older))
        nxt = np.where(ok, newton, 0.5 * (lo + hi))
        last, older = np.where(ok, step, 0.5 * (hi - lo)), last
        done = np.abs(last) <= _NEWTON_RTOL * (np.abs(nxt) + scale)
        out[todo[done]] = nxt[done]
        keep = ~done
        todo, x, lo, hi = todo[keep], nxt[keep], lo[keep], hi[keep]
        last, older = last[keep], older[keep]
    raise NumericError("mixture quantile solver did not converge")


def _mixture_quantiles_1d(means, variances, weights, u) -> np.ndarray:
    """Quantiles at levels ``u`` of the 1-D mixture ``sum_k w_k N(m_k, v_k)``.

    A mixture with a zero variance (atoms at t = 0) takes the exact step
    quantile, and one Gaussian the closed form ``m + sd ndtri(u)``.  Other
    mixtures are solved by bracketed Newton steps
    (:func:`_lower_quantiles_1d`).  Levels above 1/2 are solved as the
    level ``1 - u`` (exact in floating point) of the mirrored mixture, that
    is against the survival function ``sum_k w_k ndtr(-z_k) = 1 - u``,
    because ``ndtr`` rounds to 1 in the upper tail.  Raises
    :class:`NumericError` for levels outside (0, 1) and for non-finite
    mixture parameters.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0) & (u < 1)):
        raise NumericError(f"quantile levels must lie strictly inside (0, 1), got {u!r}")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
        raise NumericError("mixture quantiles need finite means and variances")
    if np.any(variances <= 0):
        order = np.argsort(means)
        idx = np.searchsorted(np.cumsum(weights[order]), u, side="left")
        return means[order][np.minimum(idx, means.size - 1)]
    sds = np.sqrt(variances)
    if means.size == 1:
        return means[0] + sds[0] * ndtri(u)
    flat = u.ravel()
    out = np.empty(flat.shape)
    upper = flat > 0.5
    out[~upper] = _lower_quantiles_1d(means, sds, weights, flat[~upper])
    out[upper] = -_lower_quantiles_1d(-means, sds, weights, 1.0 - flat[upper])
    return out.reshape(u.shape)


def _mixture_1d(mixture):
    """A ``(means, variances, weights)`` mixture with ``(k,)`` means, from
    one whose means are ``(k, 1)``."""
    means, variances, weights = mixture
    if means.shape[1] != 1:
        raise NumericError("mixture CDFs and quantiles require a 1-D target")
    return means[:, 0], variances, weights


def marginal_cdf_1d(view: MarginalView, x):
    """CDF of a one-dimensional marginal (weighted sum of Gaussian CDFs)."""
    means, variances, weights = _mixture_1d(view.mixture_params())
    return _mixture_cdf_1d(x, means, np.sqrt(variances), weights)


def marginal_quantile_1d(view: MarginalView, u: float) -> float:
    """Quantile at level ``u`` of a 1-D marginal, by the mixture quantile
    solver :func:`_mixture_quantiles_1d` (the step quantile at t = 0 for
    atoms)."""
    return float(_mixture_quantiles_1d(*_mixture_1d(view.mixture_params()), u))


def _sample_mixture(rng, means, variances, weights, m: int) -> np.ndarray:
    k, d = means.shape
    idx = rng.choice(k, size=m, p=weights)
    noise = rng.standard_normal((m, d))
    return means[idx] + np.sqrt(variances[idx])[:, None] * noise


def sample_marginal(view: MarginalView, n: int, seed) -> np.ndarray:
    """Draw ``n`` exact samples from the time-``t`` marginal.

    Deterministic for a given seed: the budget is split into fixed chunks
    with derived sub-seeds, drawn in chunk order.
    """
    if n < 1:
        raise NumericError(f"n must be >= 1, got {n}")
    means, variances, weights = view.mixture_params()

    def chunk(rng, m, _i):
        return _sample_mixture(rng, means, variances, weights, m)

    return np.concatenate(map_chunks(chunk, n, seed), axis=0)


@dataclass(frozen=True, slots=True)
class TargetGeometry:
    """Support radius, diameter, second moment, and score smoothness."""

    radius: float
    diameter: float
    second_moment: float
    log_smoothness: float | None = None
    effective: bool = False  # True when the support is only effectively bounded


def geometry(target: Target) -> TargetGeometry:
    """Geometric summaries consumed by the bound evaluators.

    Atoms are components of variance 0, so one formula covers both: the
    radius and diameter take a mean plus three-standard-deviation spread
    per component, which is exact for atoms and an *effective* support,
    flagged as such, for Gaussian mixtures.  The score smoothness is exact
    (``1/v``) only for a single Gaussian component.
    """
    locs, variances, weights = _component_params(target)
    norms = np.linalg.norm(locs, axis=1)
    sds = np.sqrt(variances)
    k = weights.size
    diam = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            gap = float(np.linalg.norm(locs[i] - locs[j]))
            diam = max(diam, gap + 3.0 * float(sds[i] + sds[j]))
    smooth = getattr(target, "log_smoothness", None)
    if smooth is None and k == 1 and variances[0] > 0:
        smooth = 1.0 / float(variances[0])
    return TargetGeometry(
        radius=float(np.max(norms + 3.0 * sds)),
        diameter=max(diam, float(6.0 * sds.max())),
        second_moment=float(weights @ (norms**2 + locs.shape[1] * variances)),
        log_smoothness=smooth,
        effective=bool(np.any(variances > 0)),
    )


def target_quantiles_1d(target: Target, u) -> np.ndarray:
    """Quantiles of the raw (t = 0) target at levels ``u`` — vectorized, by
    the same mixture quantile solver as :func:`marginal_quantile_1d`."""
    return _mixture_quantiles_1d(*_mixture_1d(_component_params(target)), u)
