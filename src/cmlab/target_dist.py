"""Analytically tractable target distributions and their noised marginals.

Targets are either a finite set of weighted atoms or an isotropic Gaussian
mixture.  Under a noise schedule, the time-``t`` marginal of either family
is an exact Gaussian mixture

    p_t = sum_k w_k * N(alpha_t * x_k, (alpha_t**2 * v_k + sigma2_t) * I)

(with ``v_k = 0`` for atoms), which gives closed-form densities, scores,
CDFs and quantiles — everything the samplers, oracles, and bound evaluators
downstream need, with no estimation anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import ndtr

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


def _log_coefs(weights: np.ndarray, variances: np.ndarray, d: int) -> np.ndarray:
    """Point-independent part of each component's log density,
    ``log w_k - (d/2) log(2 pi v_k)``, shape ``(k,)``."""
    return np.log(weights) - 0.5 * d * np.log(2.0 * np.pi * variances)


def _pulls(pts: np.ndarray, means: np.ndarray):
    """Pulls ``m_k - x_i`` as a component-major ``(k, n, d)`` array, and
    their squared lengths ``(k, n)``."""
    pull = means[:, None, :] - pts[None, :, :]
    return pull, np.einsum("knd,knd->kn", pull, pull)


def _log_normalize(logc: np.ndarray):
    """Log-sum-exp over the component axis of a ``(k, n)`` array of log
    terms, together with the shifted exponentials ``e = exp(logc - max)``
    and their sum ``s``, so that ``e / s`` are the responsibilities.
    Reducing over the leading axis of a component-major array runs as
    ``k`` row-wise vector operations."""
    m = logc.max(axis=0)
    with np.errstate(invalid="ignore"):
        e = np.exp(logc - m)
        s = e.sum(axis=0)
        total = np.where(np.isfinite(m), m + np.log(s), m)
    return total, e, s


def _mixture_score(pts: np.ndarray, mixture, cap: float | None = None):
    """Score at ``(n, d)`` points of the mixture ``(means, variances,
    weights)`` given by :meth:`MarginalView.mixture_params`; the one
    implementation behind :func:`score` and :func:`marginal_score_path`.

    The pulls ``m_k - x`` and squared z-scores are computed once in
    component-major ``(k, n, d)`` layout and serve both the optional
    projection and the score itself.  With ``cap`` set, a point farther than
    ``cap`` standard deviations from every component is first moved radially
    to ``cap`` standard deviations of the nearest one (nearest in z-score),
    and its pulls are recomputed from the moved point.

    Raises :class:`NumericError` if the density does not exist or
    underflows (below 1e-300).
    """
    means, variances, weights = mixture
    _require_density(variances)
    pull, sq = _pulls(pts, means)
    z2 = sq / variances[:, None]
    if cap is not None:
        off = np.flatnonzero(z2.min(axis=0) > cap * cap)
        if off.size:
            near = np.argmin(z2[:, off], axis=0)
            scale = cap * np.sqrt(variances[near] / sq[near, off])
            moved = means[near] - pull[near, off] * scale[:, None]
            pull[:, off], sq_off = _pulls(moved, means)
            z2[:, off] = sq_off / variances[:, None]
    log_coef = _log_coefs(weights, variances, means.shape[1])
    total, e, s = _log_normalize(log_coef[:, None] - 0.5 * z2)
    if np.any(total < _LOG_PDF_FLOOR):
        raise NumericError(
            "marginal density underflow while evaluating the score; "
            "clamp x or increase t"
        )
    # Sum the components in a fixed order with elementwise adds, so a row's
    # score does not depend on how many rows share the call (einsum takes a
    # differently ordered kernel when n == 1).
    terms = ((e / s) / variances[:, None])[:, :, None] * pull
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out


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
    means, variances, weights = view.mixture_params()
    _require_density(variances)
    pts, scalar = _as_points(x, view.dim)
    _, sq = _pulls(pts, means)
    logc = _log_coefs(weights, variances, view.dim)[:, None] - 0.5 * (
        sq / variances[:, None]
    )
    logs, _, _ = _log_normalize(logc)
    return float(logs[0]) if scalar else logs


def marginal_pdf(view: MarginalView, x):
    """Exact mixture-of-Gaussians density of the time-``t`` marginal."""
    return np.exp(marginal_logpdf(view, x))


def score(view: MarginalView, x):
    """Gradient of the log marginal density at ``x``.

    Evaluated by the component-major mixture kernel (:func:`_mixture_score`)
    without projection.  Raises :class:`NumericError` if the density
    underflows (below 1e-300); callers should clamp ``x`` or raise ``t``
    instead of trusting a score computed from a vanishing density.
    """
    pts, scalar = _as_points(x, view.dim)
    out = _mixture_score(pts, view.mixture_params())
    return out[0] if scalar else out


def marginal_score_path(
    target: Target, schedule: NoiseSchedule, times, cap: float | None = None
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The marginal scores at a fixed grid of times, for repeated use.

    Returns ``score_at(j, x)``, the score of the time-``times[j]`` marginal
    at ``(n, d)`` points ``x``, with the queries first projected to ``cap``
    component standard deviations as in :func:`_mixture_score` when ``cap``
    is given.  The time domain is checked and ``alpha`` and ``sigma2`` are
    tabulated once for the whole grid, so each call is one kernel pass.
    """
    times = schedule.check_time(times)
    a_all = np.asarray(schedule.alpha(times), dtype=float)
    s2_all = np.asarray(schedule.sigma2(times), dtype=float)

    def score_at(j: int, x: np.ndarray) -> np.ndarray:
        return _mixture_score(x, _noised_params(target, a_all[j], s2_all[j]), cap)

    return score_at


def marginal_cdf_1d(view: MarginalView, x):
    """CDF of a one-dimensional marginal (weighted sum of Gaussian CDFs)."""
    if view.dim != 1:
        raise NumericError("marginal_cdf_1d requires a 1-D target")
    means, variances, weights = view.mixture_params()
    if np.any(variances <= 0):
        # Degenerate (t = 0, atoms): step function.
        x = np.asarray(x, dtype=float)
        steps = (x[..., None] >= means[:, 0]).astype(float)
        return steps @ weights
    x = np.asarray(x, dtype=float)
    z = (x[..., None] - means[:, 0]) / np.sqrt(variances)
    return ndtr(z) @ weights


_BISECT_MAX_ITER = 200
_BISECT_TOL = 1e-10


def marginal_quantile_1d(view: MarginalView, u: float) -> float:
    """Quantile of a 1-D marginal by bisection on the exact mixture CDF.

    The initial bracket is the mixture mean plus/minus ten total standard
    deviations, widened geometrically if needed; bisection then runs to an
    absolute tolerance of 1e-10 in x.
    """
    if view.dim != 1:
        raise NumericError("marginal_quantile_1d requires a 1-D target")
    if not 0.0 < u < 1.0:
        raise NumericError(f"quantile level must be in (0, 1), got {u!r}")
    means, variances, weights = view.mixture_params()
    if np.any(variances <= 0):
        raise NumericError("quantile of a degenerate (t = 0 atomic) marginal")
    m = float(weights @ means[:, 0])
    total_var = float(weights @ (variances + means[:, 0] ** 2) - m * m)
    spread = max(math.sqrt(max(total_var, 0.0)), 1e-12)
    lo, hi = m - 10.0 * spread, m + 10.0 * spread
    it = 0
    while marginal_cdf_1d(view, lo) > u:
        lo = m + 2.0 * (lo - m)
        it += 1
        if it > _BISECT_MAX_ITER:
            raise NumericError("quantile bracket search failed on the left")
    while marginal_cdf_1d(view, hi) < u:
        hi = m + 2.0 * (hi - m)
        it += 1
        if it > _BISECT_MAX_ITER:
            raise NumericError("quantile bracket search failed on the right")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if marginal_cdf_1d(view, mid) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL:
            return 0.5 * (lo + hi)
    raise NumericError(
        f"quantile bisection did not reach tolerance {_BISECT_TOL} in "
        f"{_BISECT_MAX_ITER} iterations (malformed mixture?)"
    )


def _sample_mixture(rng, means, variances, weights, m: int) -> np.ndarray:
    k, d = means.shape
    idx = rng.choice(k, size=m, p=weights)
    noise = rng.standard_normal((m, d))
    return means[idx] + np.sqrt(variances[idx])[:, None] * noise


def sample_marginal(view: MarginalView, n: int, seed) -> np.ndarray:
    """Draw ``n`` exact samples from the time-``t`` marginal.

    Deterministic for a given seed, and independent of the worker count:
    the budget is split into fixed chunks with derived sub-seeds.
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

    For atomic targets everything is exact.  For Gaussian mixtures the
    radius/diameter use a mean plus three-standard-deviation spread per
    component — an *effective* support, flagged as such — and the score
    smoothness is exact (``1/v``) only for a single component.
    """
    if isinstance(target, DiscreteTarget):
        norms = np.linalg.norm(target.locations, axis=1)
        k = target.n_components
        diam = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                diam = max(
                    diam,
                    float(np.linalg.norm(target.locations[i] - target.locations[j])),
                )
        second = float(target.weights @ (norms**2))
        return TargetGeometry(
            radius=float(norms.max()),
            diameter=diam,
            second_moment=second,
            log_smoothness=None,
            effective=False,
        )
    if isinstance(target, GaussianMixtureTarget):
        norms = np.linalg.norm(target.means, axis=1)
        sds = np.sqrt(target.variances)
        radius = float(np.max(norms + 3.0 * sds))
        k = target.n_components
        if k == 1:
            diam = float(6.0 * sds[0])
            smooth = (
                target.log_smoothness
                if target.log_smoothness is not None
                else 1.0 / float(target.variances[0])
            )
        else:
            diam = 0.0
            for i in range(k):
                for j in range(i + 1, k):
                    gap = float(np.linalg.norm(target.means[i] - target.means[j]))
                    diam = max(diam, gap + 3.0 * float(sds[i] + sds[j]))
            diam = max(diam, float(6.0 * sds.max()))
            smooth = target.log_smoothness
        d = target.dim
        second = float(
            target.weights @ (norms**2 + d * target.variances)
        )
        return TargetGeometry(
            radius=radius,
            diameter=diam,
            second_moment=second,
            log_smoothness=smooth,
            effective=True,
        )
    raise TypeError(f"unsupported target type {type(target).__name__}")


def target_quantiles_1d(target: Target, u) -> np.ndarray:
    """Quantiles of the raw (t = 0) target at levels ``u`` — vectorized.

    Atomic targets use the exact step quantile; Gaussian mixtures use a
    vectorized bisection on the mixture CDF.
    """
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0) | (u >= 1)):
        raise NumericError("quantile levels must lie strictly inside (0, 1)")
    if isinstance(target, DiscreteTarget):
        if target.dim != 1:
            raise NumericError("target quantiles require a 1-D target")
        order = np.argsort(target.locations[:, 0])
        locs = target.locations[order, 0]
        cum = np.cumsum(target.weights[order])
        idx = np.searchsorted(cum, u, side="left")
        idx = np.minimum(idx, locs.size - 1)
        return locs[idx]
    if isinstance(target, GaussianMixtureTarget):
        if target.dim != 1:
            raise NumericError("target quantiles require a 1-D target")
        means = target.means[:, 0]
        sds = np.sqrt(target.variances)
        w = target.weights

        def cdf(x):
            return ndtr((x[..., None] - means) / sds) @ w

        m = float(w @ means)
        var = float(w @ (target.variances + means**2) - m * m)
        spread = max(math.sqrt(max(var, 0.0)), 1e-12)
        lo = np.full(u.shape, m - 10.0 * spread)
        hi = np.full(u.shape, m + 10.0 * spread)
        for _ in range(_BISECT_MAX_ITER):
            if np.all(cdf(lo) <= u):
                break
            lo = m + 2.0 * (lo - m)
        for _ in range(_BISECT_MAX_ITER):
            if np.all(cdf(hi) >= u):
                break
            hi = m + 2.0 * (hi - m)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)
    raise TypeError(f"unsupported target type {type(target).__name__}")
