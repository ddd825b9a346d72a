"""Analytically tractable target distributions and their noised marginals.

Targets are either a finite set of weighted atoms or an isotropic Gaussian
mixture.  Under a noise schedule, the time-``t`` marginal of either family
is an exact Gaussian mixture

    p_t = sum_k w_k * N(alpha_t * x_k, (alpha_t**2 * v_k + sigma2_t) * I)

(with ``v_k = 0`` for atoms), which gives closed-form densities, scores
and CDFs — everything the samplers, oracles, and bound evaluators
downstream need, with no estimation anywhere.  Points are scalars: only
:func:`geometry` reads ``(k, d)`` locations with ``d > 1``, for the bounds,
and all else raises :class:`NumericError` on such a target.  Quantiles are
closed form for atoms at t = 0 and for one Gaussian; for mixtures they come
from a safeguarded Newton solve inside an exact bracket, to a few ulps.
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
    # both tests are written so that a NaN weight fails them
    if not np.all(w > 0):
        raise ValueError("weights must be strictly positive")
    if not abs(float(w.sum()) - 1.0) <= 1e-12:
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

    def mixture_params(self):
        """Means ``alpha_t x_k``, variances ``alpha_t^2 v_k + sigma2_t``, weights."""
        return _noised_params(
            self.target,
            float(self.schedule.alpha(self.t)),
            float(self.schedule.sigma2(self.t)),
        )


def _noised_params(target: Target, a: float, s2: float):
    """Means ``a x_k``, variances ``a^2 v_k + s2`` and weights of the
    marginal at ``alpha = a``, ``sigma2 = s2``: ``(nodes, k)`` means and
    variances for ``(nodes, 1)`` levels.  The one check that a target is
    1-D, which every kernel, sampler and quantile path passes."""
    locs, vs, ws = _component_params(target)
    if locs.shape[1] != 1:
        raise NumericError(f"a 1-D target is required, got d = {locs.shape[1]}")
    return a * locs[:, 0], a * a * vs + s2, ws


def _require_density(variances: np.ndarray):
    if np.any(variances <= 0):
        raise NumericError(
            "marginal density does not exist: a mixture component has zero "
            "variance (discrete target at t = 0)"
        )


def _log_terms(pts: np.ndarray, mixture):
    """Pulls ``p = m_k - x_i`` and log terms ``log w_k - log(2 pi v_k) / 2
    - p^2 / (2 v_k)``, both ``(k, n)``, of a ``(means, variances, weights)``
    mixture at ``(n,)`` points; the log terms are built in place as
    ``(-0.5 (sq / v)) + c``, which is exactly ``c - 0.5 (sq / v)``."""
    means, variances, weights = mixture
    pull = means[:, None] - pts
    log_terms = np.square(pull)
    log_terms /= variances[:, None]
    log_terms *= -0.5
    log_terms += (np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances))[:, None]
    return pull, log_terms


def _sum_leading(a: np.ndarray) -> np.ndarray:
    """A fresh sum over the leading axis of ``a``, by elementwise adds in
    index order, so that an entry's sum does not depend on the shape of
    the rest (a numpy reduction may pair the terms differently)."""
    if len(a) == 1:
        return a[0].copy()
    out = np.add(a[0], a[1])
    for term in a[2:]:
        out += term
    return out


def _log_normalize(logc: np.ndarray):
    """Log-sum-exp over the component axis of a ``(k, n)`` array of log
    terms, split as the column maximum ``m``, the shifted exponentials
    ``e = exp(logc - m)`` and their sum ``s``: the total is
    :func:`_log_total` of ``(m, s)`` and ``e / s`` are the
    responsibilities.  ``e`` is written over ``logc``, so a kernel pass
    allocates no new ``(k, n)`` array here, and ``s`` is a fixed-order sum
    (:func:`_sum_leading`)."""
    m = logc.max(axis=0)
    with np.errstate(invalid="ignore"):
        logc -= m
        e = np.exp(logc, out=logc)
    return m, e, _sum_leading(e)


def _log_total(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``log sum exp`` from the split of :func:`_log_normalize`; a column
    whose maximum is infinite or NaN keeps it."""
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(m), m + np.log(s), m)


def _mixture_score(pts: np.ndarray, mixture, scale: float = 1.0):
    """Responsibility-weighted pull ``sum_k r_k (scale / V_k) (m_k - x)`` at
    ``(n,)`` points of the mixture ``(means, variances, weights)`` given by
    :meth:`MarginalView.mixture_params`, where ``r_k`` are the softmax
    responsibilities of the components at ``x``.  At ``scale = 1`` this is
    the score; with the variances ``v_k + s2`` of a target noised by
    ``s2`` and ``scale = s2``, ``x`` plus it is the posterior mean
    ``E[x_0 | x]``.  The kernel behind :func:`score` and the posterior mean
    that ends the PF-ODE oracle; it forms the pull ``m_k - x`` exactly, so
    a point whose one non-zero responsibility is an atom's, noised by
    ``s2 = scale``, returns that atom bit for bit.  The PF-ODE field uses
    the tabulated kernel of :func:`marginal_score_path` instead.

    The softmax never underflows: at any finite point the component with
    the largest log term keeps responsibility at least ``1/k``.  Also
    returns the log-sum-exp split ``(m, s)`` of :func:`_log_normalize`, from
    which :func:`score` checks the density itself.  Raises
    :class:`NumericError` only if the density does not exist.
    """
    variances = mixture[1]
    _require_density(variances)
    pull, log_terms = _log_terms(pts, mixture)
    # Every (k, n) step is done in place, in the operation order of ``((e /
    # s) / (v / scale)) * pull``, ``e = exp(log_term - max)``; for an atom
    # noised by ``s2 = scale``, ``v / scale`` is exactly 1.  A call then
    # allocates two arrays of ``k n`` elements, not ten.
    m, resp, s = _log_normalize(log_terms)
    resp /= s
    resp /= (variances / scale)[:, None]
    pull *= resp
    return _sum_leading(pull), m, s


def marginal_logpdf(view: MarginalView, x):
    """Log density of the time-``t`` marginal at each entry of ``x``."""
    mixture = view.mixture_params()
    _require_density(mixture[1])
    x = np.asarray(x, dtype=float)
    m, _, s = _log_normalize(_log_terms(x.ravel(), mixture)[1])
    return _log_total(m, s).reshape(x.shape)


def marginal_pdf(view: MarginalView, x):
    """Exact mixture-of-Gaussians density of the time-``t`` marginal."""
    return np.exp(marginal_logpdf(view, x))


def score(view: MarginalView, x):
    """Derivative of the log marginal density at each entry of ``x``.

    Evaluated by the component-major mixture kernel (:func:`_mixture_score`).
    Raises :class:`NumericError` if the density underflows (below 1e-300);
    callers should clamp ``x`` or raise ``t`` instead of trusting a score
    computed from a vanishing density.
    """
    x = np.asarray(x, dtype=float)
    out, m, s = _mixture_score(x.ravel(), view.mixture_params())
    # ``s >= 1`` (its largest term is exp(0)), so the total is at least
    # ``m`` and only columns with ``m`` under the floor can fall below it.
    low = np.flatnonzero(m < _LOG_PDF_FLOOR)
    if low.size and np.any(_log_total(m[low], s[low]) < _LOG_PDF_FLOOR):
        raise NumericError(
            "marginal density underflow while evaluating the score; "
            "clamp x or increase t"
        )
    return out.reshape(x.shape)


def marginal_score_path(
    target: Target, schedule: NoiseSchedule, times
) -> Callable[[int, np.ndarray], np.ndarray]:
    """The marginal scores at a fixed grid of times, for repeated use.

    Returns ``score_at(j, x)``, the score of the time-``times[j]`` marginal
    at ``(n,)`` points ``x`` (:class:`NumericError` for any other shape), as
    a fresh ``(n,)`` array.  Unlike :func:`score` it is defined at every
    finite point, however small the density there: the responsibilities are
    a softmax, so far out the score is that of the component that dominates.

    The time domain is checked once, and every constant of a node ``j`` and
    a component ``k`` is tabulated here: with ``V = alpha_j^2 v_k +
    sigma2_j``, the scale ``s = 1 / sqrt(2 V)``, the scaled mean
    ``alpha_j m_k s``, the log constant ``c = log w_k - (1/2) log(2 pi V)``
    and the gain ``g = -sqrt(2 / V)``.  A call forms ``Q = x s - alpha_j
    m_k s``, so that ``Q^2 = (x - alpha_j m_k)^2 / (2 V)``, the log terms
    ``c - Q^2``, their shifted exponentials ``e_k``, and the score ``sum_k
    e_k g Q / sum_k e_k``: multiplies and adds, and one division per point,
    none per component.  Each point's result does not depend on the other
    points.

    This rounds differently from the exact pull ``m_k - x`` of
    :func:`_mixture_score`, which :func:`score` and the PF-ODE's posterior
    mean keep because it returns an atom bit for bit.  A node where a
    component has zero variance (atoms at ``t = 0``) has no density:
    building the path succeeds, and calling ``score_at`` there raises
    :class:`NumericError`.
    """
    times = schedule.check_time(times)
    a = np.asarray(schedule.alpha(times), dtype=float)[:, None]
    s2 = np.asarray(schedule.sigma2(times), dtype=float)[:, None]
    means, var, ws = _noised_params(target, a, s2)
    # (nodes, k, 1) tables, to broadcast against (n,) points; a zero
    # variance gives infinite constants, which are only reached by a call
    # that raises first.
    means, var = means[..., None], var[..., None]
    no_density = np.any(var <= 0, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / np.sqrt(2.0 * var)
        shift = means * scale
        const = np.log(ws)[:, None] - 0.5 * np.log(2.0 * np.pi * var)
        gain = -np.sqrt(2.0 / var)

    def score_at(j: int, x: np.ndarray) -> np.ndarray:
        if x.ndim != 1:
            raise NumericError(f"score path points must be (n,), got shape {x.shape}")
        if no_density[j]:
            _require_density(var[j])
        # Component-major (k, n) offsets and log terms, each updated in
        # place after it is made.
        q = np.multiply(x, scale[j])
        q -= shift[j]
        logc = np.square(q)
        np.subtract(const[j], logc, out=logc)
        _, e, total = _log_normalize(logc)
        e *= gain[j]
        q *= e
        out = _sum_leading(q)
        out /= total
        return out

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
    matrix product rounds a one-point call differently).
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
        return np.take(means[order], idx, mode="clip")
    sds = np.sqrt(variances)
    if means.size == 1:
        return means[0] + sds[0] * ndtri(u)
    flat = u.ravel()
    out = np.empty(flat.shape)
    upper = flat > 0.5
    out[~upper] = _lower_quantiles_1d(means, sds, weights, flat[~upper])
    out[upper] = -_lower_quantiles_1d(-means, sds, weights, 1.0 - flat[upper])
    return out.reshape(u.shape)


def _rearrange_1d(x: np.ndarray, source, target) -> np.ndarray:
    """``Q_target(F_source(x))`` at ``(n,)`` points, for 1-D mixtures
    ``(means, variances, weights)``, ``source`` with a density.  Each
    level is the smaller of the CDF and the survival function (the CDF of
    the mirrored mixture), solved against the same tail of ``target``, so
    no tail rounds to 1.  A non-finite point, and a level that underflows
    to 0, raise :class:`NumericError`."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise NumericError(f"point {bad[0]} is {x[bad[0]]}: the rearrangement "
                           "needs finite points")
    means, variances, weights = source
    sds = np.sqrt(variances)
    below = _mixture_cdf_1d(x, means, sds, weights)
    above = _mixture_cdf_1d(-x, -means, sds, weights)
    lower = below <= above
    out = np.empty(x.shape)
    for tail, mask, level, sign in (("lower", lower, below, 1.0),
                                    ("upper", ~lower, above, -1.0)):
        level = level[mask]
        if np.any(level == 0.0):
            raise NumericError(f"a point lies so far in the {tail} tail of the "
                               "noised marginal that its level underflows to 0")
        out[mask] = sign * _mixture_quantiles_1d(sign * target[0], *target[1:], level)
    return out


def marginal_cdf_1d(view: MarginalView, x):
    """CDF of a one-dimensional marginal (weighted sum of Gaussian CDFs)."""
    means, variances, weights = view.mixture_params()
    return _mixture_cdf_1d(x, means, np.sqrt(variances), weights)


def marginal_quantile_1d(view: MarginalView, u: float) -> float:
    """Quantile at level ``u`` of a 1-D marginal, by the mixture quantile
    solver :func:`_mixture_quantiles_1d` (the step quantile at t = 0 for
    atoms)."""
    return float(_mixture_quantiles_1d(*view.mixture_params(), u))


def _sample_mixture(rng, means, variances, weights, m: int) -> np.ndarray:
    """``m`` draws of the 1-D mixture ``sum_k w_k N(m_k, v_k)``."""
    idx = rng.choice(means.size, size=m, p=weights)
    return means[idx] + np.sqrt(variances[idx]) * rng.standard_normal(m)


def sample_marginal(view: MarginalView, n: int, seed) -> np.ndarray:
    """Draw ``n`` exact samples from the time-``t`` marginal, an ``(n,)`` array.

    Deterministic for a given seed: the budget is split into fixed chunks
    with derived sub-seeds, drawn in chunk order.
    """
    if n < 1:
        raise NumericError(f"n must be >= 1, got {n}")
    means, variances, weights = view.mixture_params()

    def chunk(rng, m, _i):
        return _sample_mixture(rng, means, variances, weights, m)

    return np.concatenate(map_chunks(chunk, n, seed))


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
    return _mixture_quantiles_1d(*_noised_params(target, 1.0, 0.0), u)
