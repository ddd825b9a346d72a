"""Forward-process noise schedules and the uniform training partition.

A noise schedule is a pair of functions ``(alpha(t), sigma2(t))`` defining
the Gaussian conditional law of the forward process,

    x_t | x_0  ~  N(alpha(t) * x_0, sigma2(t) * I),

with initial conditions ``alpha(0) = 1`` and ``sigma2(0) = 0``.  Nothing
else about the process is used: the sampler, the oracles and the bounds
all read the schedule through this kernel.

Two closed-form schedules are built in:

* ``make_ou``: alpha = exp(-t), sigma2 = 1 - exp(-2t)
  (an Ornstein-Uhlenbeck / variance-preserving process);
* ``make_ve``: alpha = 1, sigma2 = t**2 (a variance-exploding process).

Custom schedules are supplied as tabulated ``(t, alpha, sigma2)`` columns and
interpolated with a monotone cubic.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError

__all__ = [
    "NoiseSchedule",
    "TrainingPartition",
    "make_ou",
    "make_ve",
    "make_custom",
    "custom_from_csv",
    "contraction",
]


@dataclass(frozen=True, slots=True, eq=False)
class NoiseSchedule:
    """Signal scale ``alpha(t)`` and noise variance ``sigma2(t)``.

    Parameters
    ----------
    alpha, sigma2 : callable
        Vectorized functions of time. ``alpha`` must stay positive and
        ``sigma2`` nondecreasing with ``alpha(0) = 1``, ``sigma2(0) = 0``.
    t_max : float or None
        Upper end of the valid time domain; ``None`` means unbounded
        (closed-form schedules are valid wherever their formulas are).
    """

    alpha: Callable
    sigma2: Callable
    t_max: float | None = None

    def __post_init__(self):
        a0 = float(np.asarray(self.alpha(0.0)))
        s0 = float(np.asarray(self.sigma2(0.0)))
        if not math.isclose(a0, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"alpha(0) must be 1, got {a0!r}")
        if abs(s0) > 1e-12:
            raise ValueError(f"sigma2(0) must be 0, got {s0!r}")

    def check_time(self, t) -> np.ndarray:
        """Check that ``t`` is finite and inside the schedule domain, and
        return it as an array."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise NumericError(f"time must be >= 0, got {t!r}")
        if not np.all(np.isfinite(t)):
            raise NumericError(f"time must be finite, got {t!r}")
        if self.t_max is not None and np.any(t > self.t_max * (1 + 1e-12)):
            raise NumericError(
                f"time {t!r} outside the schedule domain [0, {self.t_max}]"
            )
        return t

    def sigma(self, t):
        """Standard deviation ``sqrt(sigma2(t))``."""
        return np.sqrt(self.sigma2(t))


def make_ou() -> NoiseSchedule:
    """Ornstein-Uhlenbeck schedule: ``alpha = exp(-t)``, ``sigma2 = 1 - exp(-2t)``."""

    def alpha(t):
        return np.exp(-np.asarray(t, dtype=float))

    def sigma2(t):
        # -expm1 keeps full precision for small t where 1 - exp(-2t) cancels.
        return -np.expm1(-2.0 * np.asarray(t, dtype=float))

    return NoiseSchedule(alpha, sigma2)


def make_ve() -> NoiseSchedule:
    """Variance-exploding schedule: ``alpha = 1``, ``sigma2 = t**2``."""

    def alpha(t):
        return np.ones_like(np.asarray(t, dtype=float))

    def sigma2(t):
        t = np.asarray(t, dtype=float)
        return t * t

    return NoiseSchedule(alpha, sigma2)


# A custom table is rejected when its interpolated g2 falls below
# -_G2_RTOL times its largest |g2| at the tabulated times and midpoints.
# The interpolants' own error is far smaller: a 2001-point table of the OU
# schedule reads g2 - 2 = -1.7e-5 at t = 0.
_G2_RTOL = 1e-3


def make_custom(t, alpha_values, sigma2_values) -> NoiseSchedule:
    """Schedule from tabulated values, interpolated with a monotone cubic.

    Every value must be finite.  The table must start at ``t = 0`` with
    ``alpha = 1`` and ``sigma2 = 0``, keep ``alpha`` positive, and keep
    ``sigma2`` nondecreasing.  The SDE diffusion ``g2 = sigma2' - 2 h
    sigma2``, ``h = alpha'/alpha``, taken from the exact derivatives of the
    two interpolants, must not go negative at the tabulated times or their
    midpoints (up to a relative ``1e-3`` allowance for interpolation
    error): ``g2 = alpha**2 d(sigma2/alpha**2)/dt``, so otherwise the
    kernel from ``s`` to ``t > s`` would need a negative variance.
    """
    t = np.asarray(t, dtype=float)
    a = np.asarray(alpha_values, dtype=float)
    s2 = np.asarray(sigma2_values, dtype=float)
    if t.ndim != 1 or t.shape != a.shape or t.shape != s2.shape:
        raise ValueError("t, alpha, sigma2 must be equal-length 1-D arrays")
    if t.size < 2:
        raise ValueError("need at least two tabulated points")
    for name, column in (("t", t), ("alpha", a), ("sigma2", s2)):
        bad = column[~np.isfinite(column)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")
    if np.any(np.diff(t) <= 0):
        raise ValueError("tabulated times must be strictly increasing")
    if abs(t[0]) > 1e-12:
        raise ValueError("tabulated times must start at 0")
    if np.any(a <= 0):
        raise ValueError("alpha must be positive everywhere")
    if np.any(np.diff(s2) < 0):
        raise ValueError("sigma2 must be nondecreasing")
    from scipy.interpolate import PchipInterpolator

    alpha_i = PchipInterpolator(t, a, extrapolate=True)
    sigma2_i = PchipInterpolator(t, s2, extrapolate=True)
    checks = np.concatenate([t, 0.5 * (t[:-1] + t[1:])])
    h = alpha_i.derivative()(checks) / alpha_i(checks)
    g2 = sigma2_i.derivative()(checks) - 2.0 * h * sigma2_i(checks)
    if np.min(g2) < -_G2_RTOL * np.max(np.abs(g2)):
        k = int(np.argmin(g2))
        raise ValueError(
            f"interpolated diffusion g2 = {float(g2[k])!r} < 0 at "
            f"t = {float(checks[k])!r}: "
            "sigma2 must grow at least as fast as 2 h sigma2"
        )
    return NoiseSchedule(alpha_i, sigma2_i, t_max=float(t[-1]))


def custom_from_csv(path) -> NoiseSchedule:
    """Load a custom schedule from a CSV file with header ``t,alpha,sigma2``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty schedule file") from None
        expected = ["t", "alpha", "sigma2"]
        if [h.strip() for h in header] != expected:
            raise ValueError(
                f"{path}: header must be exactly {','.join(expected)!r}, "
                f"got {','.join(header)!r}"
            )
        rows = [[float(cell) for cell in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return make_custom(arr[:, 0], arr[:, 1], arr[:, 2])


def contraction(schedule: NoiseSchedule, t):
    """Contraction factor ``alpha(t)**2 / sigma2(t)``; undefined at t = 0."""
    t = schedule.check_time(t)
    if np.any(t <= 0):
        raise NumericError("contraction factor diverges at t = 0")
    a = np.asarray(schedule.alpha(t), dtype=float)
    s2 = np.asarray(schedule.sigma2(t), dtype=float)
    return a * a / s2


@dataclass(frozen=True, slots=True)
class TrainingPartition:
    """Uniform grid ``t_i = i * delta`` for ``i = 0..m``."""

    delta: float
    m: int

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and > 0, got {self.delta!r}")
        m = self.m
        if not isinstance(m, numbers.Integral) or isinstance(m, bool) or m < 1:
            raise ValueError(f"m must be a finite integer >= 1, got {m!r}")

    @property
    def horizon(self) -> float:
        return self.delta * self.m

    def points(self) -> np.ndarray:
        return np.arange(self.m + 1) * self.delta

    def time_of(self, i: int) -> float:
        if not 0 <= i <= self.m:
            raise NumericError(f"partition index {i} outside 0..{self.m}")
        return i * self.delta
