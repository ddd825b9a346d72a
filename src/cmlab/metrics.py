"""Distances between distributions: 1-D Wasserstein-2, grid TV and KL, Gaussian TV.

Everything here is exact up to quadrature/order-statistic discretization —
no kernel density estimation, no entropic regularization.  Experiments are
one-dimensional precisely so the 2-Wasserstein distance reduces to a sorted
coupling and stays oracle-checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import NumericError
from .target_dist import Target, target_quantiles_1d

__all__ = [
    "GridIntegral",
    "w2_empirical_1d",
    "coupling_quantiles",
    "w2_vs_target_1d",
    "w2_stderr_proxy",
    "tv_grid",
    "kl_grid",
]

_TRUNCATION_LIMIT = 1e-3
_PDF_FLOOR = 1e-300


def _flat_1d(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise NumericError(f"{name} must be an (n,) array, got shape {x.shape}")
    return x


def w2_empirical_1d(a, b) -> float:
    """Exact W2 between two equal-size empirical measures on the line.

    In 1-D the optimal coupling matches sorted order statistics, so
    ``W2^2 = mean((sort(a) - sort(b))^2)``.
    """
    a = _flat_1d(a, "a")
    b = _flat_1d(b, "b")
    if a.size != b.size:
        raise NumericError(f"size mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise NumericError("need at least one sample")
    diff = np.sort(a) - np.sort(b)
    return float(np.sqrt(np.mean(diff * diff)))


def coupling_quantiles(target: Target, n: int) -> np.ndarray:
    """Target quantiles at the coupling levels ``(k - 1/2) / n``, k = 1..n.

    They depend only on the target and ``n``, so a run that measures many
    stages of the same size solves them once and passes them to every
    stage.
    """
    if n < 1:
        raise NumericError("need at least one sample")
    u = np.arange(0.5, n)
    u /= n
    return target_quantiles_1d(target, u)


def _two_point_split(s: np.ndarray, quantiles: np.ndarray):
    """``(p_hat, gap^2)`` of sorted samples ``s`` with at most two distinct
    values, or None.  ``p_hat`` is the share of the upper value; one-valued
    samples take the spread of the outermost coupling quantiles.

    Sorting puts NaN last and NaN equals nothing, so a sample holding a NaN
    (with n > 1) gets None, and its proxy is NaN on the general branch.
    """
    n = s.size
    lo, hi = s[0], s[-1]
    if lo == hi or n == 1:
        return 0.0, float((quantiles[-1] - quantiles[0]) ** 2)
    n_lo = int(np.searchsorted(s, lo, side="right"))
    if n_lo < n and s[n_lo] == hi:
        return (n - n_lo) / n, float((hi - lo) ** 2)
    return None


def _coupling_w2(samples, quantiles: np.ndarray, out: np.ndarray) -> tuple[float, float]:
    """W2 against the target and its stderr proxy, from one sort.

    ``quantiles`` come from :func:`coupling_quantiles` for ``samples.size``.
    The first and last of them are the target quantiles at ``1/(2n)`` and
    ``1 - 1/(2n)``, the spread the proxy needs for one-valued samples.

    ``out`` is the caller's work buffer: a writeable C-contiguous float64
    ``(n,)`` array that shares no memory with ``samples`` or ``quantiles``
    (any other raises :class:`NumericError`).  The samples are copied into
    it and sorted there, and its contents afterwards are scratch.  So a run
    that measures many stages of one size allocates one buffer for all of
    them, and a stage's W2 allocates nothing of size n.
    """
    samples = _flat_1d(samples, "samples")
    n = samples.size
    if n == 0:
        raise NumericError("need at least one sample")
    if quantiles.shape != (n,):
        raise NumericError(
            f"{quantiles.shape} coupling quantiles for {n} samples"
        )
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == (n,) and out.flags.c_contiguous and out.flags.writeable):
        raise NumericError(
            f"W2 buffer must be a writeable C-contiguous float64 ({n},) array"
        )
    if np.shares_memory(out, samples) or np.shares_memory(out, quantiles):
        raise NumericError("W2 buffer shares memory with the samples or quantiles")
    np.copyto(out, samples)
    out.sort()
    split = _two_point_split(out, quantiles)
    sq = np.subtract(out, quantiles, out=out)
    sq *= sq
    w2_sq = float(np.mean(sq))
    w2 = math.sqrt(w2_sq)
    if split is not None:
        p_hat, gap_sq = split
        # 1/n floor keeps the proxy nonzero when p_hat lands on 0 or 1
        spread = max(p_hat * (1.0 - p_hat), (1.0 / n) * (1.0 - 1.0 / n))
        se_sq = gap_sq * float(np.sqrt(spread / n))
    else:
        # np.std(sq) in its own operation order, in place
        sq -= w2_sq
        sq *= sq
        se_sq = math.sqrt(float(np.add.reduce(sq)) / n) / math.sqrt(n)
    if se_sq <= 0:
        return w2, 0.0
    # below the resolution scale sqrt(se_sq) the delta method blows up;
    # there W2 itself fluctuates at that scale, so clamp the denominator
    return w2, 0.5 * se_sq / max(np.sqrt(w2_sq), np.sqrt(se_sq))


def w2_vs_target_1d(samples, target: Target) -> float:
    """W2 between an empirical measure and an analytic 1-D target.

    Uses the quantile coupling: the k-th order statistic is matched to the
    target quantile at level ``(k - 1/2) / n``, exact up to the O(1/n)
    quantile discretization.
    """
    n = np.size(samples)
    return _coupling_w2(samples, coupling_quantiles(target, n), np.empty(n))[0]


def w2_stderr_proxy(samples, target: Target) -> float:
    """Rough standard error for ``w2_vs_target_1d`` under resampling.

    Two-valued samples (the typical case here: denoised outputs sitting
    exactly on two atoms) are handled honestly — the only randomness is the
    binomial split, so ``se(W2^2) = gap^2 * se(p_hat)``; the i.i.d.-cost
    delta method would understate it badly because every coupling cost is
    driven by the same count.  Otherwise the squared quantile-coupling
    displacements are treated as i.i.d. terms.  A proxy, not a guarantee.
    """
    n = np.size(samples)
    return _coupling_w2(samples, coupling_quantiles(target, n), np.empty(n))[1]


@dataclass(frozen=True, slots=True)
class GridIntegral:
    """A quadrature value plus the mass each density leaves off-grid."""

    value: float
    truncation_a: float
    truncation_b: float


def _on_grid(pdf_a, pdf_b, lo: float, hi: float, n_grid: int):
    """Both densities on an odd Simpson grid over a finite ``[lo, hi]``,
    the grid's integral, and the mass each density leaves off the grid,
    which must not exceed 1e-3 on either side (a NaN mass fails too)."""
    from scipy.integrate import simpson  # on use: it loads scipy.optimize and linalg

    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericError(f"integration range [{lo}, {hi}] must be finite")
    if not hi > lo:
        raise NumericError(f"empty integration range [{lo}, {hi}]")
    if n_grid < 1000:
        raise NumericError(f"n_grid must be >= 1000, got {n_grid}")
    if n_grid % 2 == 0:
        n_grid += 1  # Simpson's rule wants an even number of panels
    x = np.linspace(lo, hi, n_grid)

    def integrate(y) -> float:
        return float(simpson(y, x=x))

    pa = np.asarray(pdf_a(x), dtype=float)
    pb = np.asarray(pdf_b(x), dtype=float)
    truncation = []
    for name, p in (("a", pa), ("b", pb)):
        mass = 1.0 - integrate(p)
        if not abs(mass) <= _TRUNCATION_LIMIT:  # NaN included
            raise NumericError(
                f"density {name} leaves {mass:.3e} mass outside the grid "
                f"(limit {_TRUNCATION_LIMIT}); widen [lo, hi]"
            )
        truncation.append(mass)
    return pa, pb, integrate, truncation


def tv_grid(pdf_a, pdf_b, lo: float, hi: float, n_grid: int = 10001) -> GridIntegral:
    """Total variation ``0.5 * integral |p_a - p_b|`` by Simpson quadrature.

    Both densities must effectively live inside ``[lo, hi]``: a truncation
    mass above 1e-3 on either side raises :class:`NumericError`.
    """
    pa, pb, integrate, truncation = _on_grid(pdf_a, pdf_b, lo, hi, n_grid)
    return GridIntegral(0.5 * integrate(np.abs(pa - pb)), *truncation)


def _gaussian_tv(m1: float, v1: float, m2: float, v2: float) -> float:
    """Closed-form TV between ``N(m1, v1)`` and ``N(m2, v2)``, good to about 1e-16.

    The densities cross where ``a y^2 + 2 b y + c = 0`` (``y = x - m1``): one
    erf when ``a`` is 0, else ``|P_1(I) - P_2(I)|`` on the interval ``I``
    between the crossings, each ``P`` from the tail that does not round to 1.
    """
    if not all(map(math.isfinite, (m1, v1, m2, v2))) or min(v1, v2) <= 0:
        raise NumericError(f"Gaussian TV needs finite laws, got {(m1, v1, m2, v2)}")
    d = m2 - m1
    a, b, lr = 1.0 / v1 - 1.0 / v2, d / v2, math.log(v1) - math.log(v2)
    q = -(b + math.copysign(math.sqrt(d / v1 * b - a * lr), b))  # roots q/a, c/q; c = lr - d b
    if a == 0.0 or q == 0.0:  # linear, or flat to rounding: one crossing, at the midpoint
        return math.erf(abs(d) / (2.0 * math.sqrt(2.0 * v1)))
    z = (np.array(sorted((q / a, (lr - d * b) / q))) - [[0.0], [d]]) / np.sqrt([[v1], [v2]])
    mass = np.where(z[:, 0] > 0, ndtr(-z[:, 0]) - ndtr(-z[:, 1]), ndtr(z[:, 1]) - ndtr(z[:, 0]))
    tv = abs(float(mass[0] - mass[1]))
    if math.isnan(tv):
        raise NumericError(f"Gaussian TV overflows for {(m1, v1, m2, v2)}")
    return tv


def kl_grid(pdf_a, pdf_b, lo: float, hi: float, n_grid: int = 10001) -> GridIntegral:
    """KL divergence ``integral p_a log(p_a / p_b)`` by Simpson quadrature.

    The grid and its truncation checks are those of :func:`tv_grid`.
    ``p_b`` must stay above the 1e-300 floor wherever ``p_a`` does
    (otherwise the divergence is effectively infinite on the grid and a
    :class:`NumericError` is raised).  ``0 log 0`` is treated as 0.
    """
    pa, pb, integrate, truncation = _on_grid(pdf_a, pdf_b, lo, hi, n_grid)
    live = pa > _PDF_FLOOR
    if np.any(live & (pb < _PDF_FLOOR)):
        raise NumericError(
            "support violation: p_b underflows where p_a does not; "
            "KL is not finite on this grid"
        )
    integrand = np.zeros_like(pa)
    integrand[live] = pa[live] * (np.log(pa[live]) - np.log(pb[live]))
    return GridIntegral(integrate(integrand), *truncation)
