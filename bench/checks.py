"""Independent checks of cmlab's CSV outputs.

Every expected value here is computed from the paper's formulas with
numpy/scipy alone: nothing is imported from cmlab and nothing is compared
against a stored copy of an earlier output.  Each ``check_*`` function
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

# Allowed relative difference between a CSV bound column and the formula.
BOUND_RTOL = 1e-12
# Binomial standard errors allowed between a two-atom W2 and its stage law.
SIM_W2_SES = 5.0
# Allowed absolute difference between the CSV TV and the benchmark's quad.
TV_ATOL = 1e-6
# Allowed absolute difference between the PF-ODE oracle and Q_0(F_t(x)).
PFODE_ATOL = 1e-6


# --- forward processes -------------------------------------------------------

def alpha2_sigma2(kind: str, t: float) -> tuple[float, float]:
    """``(alpha(t)^2, sigma2(t))`` of the OU or VE forward process."""
    if kind == "ou":
        return math.exp(-2.0 * t), -math.expm1(-2.0 * t)
    if kind == "ve":
        return 1.0, t * t
    raise ValueError(f"unknown forward process {kind!r}")


# --- 1-D Gaussian mixtures ---------------------------------------------------

def mixture_cdf(x, means, sds, weights):
    x = np.asarray(x, dtype=float)
    return ndtr((x[..., None] - means) / sds) @ weights


def mixture_quantile(u: float, means, sds, weights) -> float:
    """Root of ``F(x) = u`` by Brent's method on a bracket that holds it."""
    lo = float(np.min(means - 40.0 * sds))
    hi = float(np.max(means + 40.0 * sds))
    return brentq(lambda x: float(mixture_cdf(x, means, sds, weights)) - u,
                  lo, hi, xtol=1e-14, maxiter=500)


def geometry(target: dict) -> dict:
    """Radius, diameter and second moment of a 1-D target, by the
    definitions the bounds are evaluated with: exact for atoms, and for
    Gaussian mixtures an effective support of three standard deviations
    around each mean; ``L = 1/v`` for a single Gaussian."""
    if target["type"] == "discrete":
        x = np.array([a[0] for a in target["atoms"]], dtype=float)
        w = np.array([a[1] for a in target["atoms"]], dtype=float)
        return {
            "radius": float(np.max(np.abs(x))),
            "diameter": float(x.max() - x.min()),
            "second_moment": float(w @ x**2),
            "L": None,
        }
    m = np.array([c[0] for c in target["components"]], dtype=float)
    v = np.array([c[1] for c in target["components"]], dtype=float)
    w = np.array([c[2] for c in target["components"]], dtype=float)
    sd = np.sqrt(v)
    if m.size == 1:
        diameter = 6.0 * float(sd[0])
    else:
        diameter = max(
            max(abs(m[i] - m[j]) + 3.0 * (sd[i] + sd[j])
                for i in range(m.size) for j in range(i + 1, m.size)),
            6.0 * float(sd.max()),
        )
    return {
        "radius": float(np.max(np.abs(m) + 3.0 * sd)),
        "diameter": float(diameter),
        "second_moment": float(w @ (m**2 + v)),
        "L": 1.0 / float(v[0]) if m.size == 1 else None,
    }


# --- the paper's bounds ------------------------------------------------------

def stage_bounds(kind: str, taus, rate: float, geo: dict, sigma_eps=None) -> list[dict]:
    """Bound values for each truncated schedule ``taus[:i]``, from the
    paper's formulas with ``r = eps/delta``:

    * general  ``2R (a_1^2 R^2 / (4 s_1) + S_i)^(1/4) + tau_i r``
    * modified ``D (a_1^2 M2 / (2 s_1) + S_i)^(1/4) + tau_i r``
    * KL       ``a_1^2 M2 / (2 s_1) + 2 S_i``
    * TV       ``sqrt(a_1^2 M2 / (4 s_1) + S_i) + tau_i r / (2 sigma_eps)
      + 2 L sigma_eps``

    where ``S_i = sum_{j=2}^i a_j^2 tau_{j-1}^2 r^2 / (4 s_j)``.
    """
    a2_1, s_1 = alpha2_sigma2(kind, taus[0])
    R, D, M2 = geo["radius"], geo["diameter"], geo["second_moment"]
    rows = []
    acc = 0.0
    for i, tau in enumerate(taus):
        if i > 0:
            a2, s = alpha2_sigma2(kind, tau)
            acc += a2 * taus[i - 1] ** 2 * rate**2 / (4.0 * s)
        row = {
            "bound_general": 2.0 * R * (a2_1 * R * R / (4.0 * s_1) + acc) ** 0.25 + tau * rate,
            "bound_modified": D * (a2_1 * M2 / (2.0 * s_1) + acc) ** 0.25 + tau * rate,
            "kl_bound": a2_1 * M2 / (2.0 * s_1) + 2.0 * acc,
        }
        if sigma_eps is not None:
            row["tv_bound"] = (
                math.sqrt(a2_1 * M2 / (4.0 * s_1) + acc)
                + tau * rate / (2.0 * sigma_eps)
                + 2.0 * geo["L"] * sigma_eps
            )
        rows.append(row)
    return rows


# --- CSV handling ------------------------------------------------------------

def parse_csv(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        row = {"schedule_label": cells[0], "stage": int(cells[1])}
        row.update({k: float(c) for k, c in zip(header[2:], cells[2:])})
        rows.append(row)
    return rows


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_common(rows: list[dict], schedules: dict, kind: str, rate: float,
                 geo: dict, sigma_eps=None) -> list[str]:
    """Labels, stages and taus as designed; bound columns equal to the
    formulas to ``BOUND_RTOL``; ``w2 <= bound_modified`` everywhere."""
    errors = []
    expected = [(label, i + 1, tau) for label, taus in schedules.items()
                for i, tau in enumerate(taus)]
    got = [(r["schedule_label"], r["stage"], r["tau"]) for r in rows]
    if got != expected:
        return [f"schedule rows {got} differ from the designed {expected}"]
    for label, taus in schedules.items():
        mine = stage_bounds(kind, taus, rate, geo, sigma_eps)
        theirs = [r for r in rows if r["schedule_label"] == label]
        for row, want in zip(theirs, mine):
            where = f"{label} stage {row['stage']}"
            for col, value in want.items():
                if _rel_diff(row[col], value) > BOUND_RTOL:
                    errors.append(f"{where}: {col} {row[col]!r} != formula {value!r}")
            if not row["w2"] <= row["bound_modified"]:
                errors.append(f"{where}: w2 {row['w2']} exceeds bound_modified "
                              f"{row['bound_modified']}")
    return errors


# --- sim_atoms: two atoms {0, 100}, quantile-perturbed threshold -------------

def round_to_grid(t: float, delta: float) -> float:
    return math.floor(t / delta + 0.5) * delta


def sim_schedules(radius: float, eps: float, delta: float, horizon: float,
                  n_uniform: int) -> dict:
    """The three designed schedules of the two-atom simulation: two-step
    ``log(R^3 delta^2/eps^2)``, ``log(R^2 delta/eps)``; uniform
    ``T (N+1-i)/N``; halving ``T 2^(1-i)`` for ``floor(log2(2T/delta))``
    stages, the last one replaced by ``delta``; every time rounded to the
    partition, ties up."""
    two = (round_to_grid(math.log(radius**3 * delta**2 / eps**2), delta),
           round_to_grid(math.log(radius**2 * delta / eps), delta))
    uni = tuple(round_to_grid(horizon * (n_uniform + 1 - i) / n_uniform, delta)
                for i in range(1, n_uniform + 1))
    count = math.floor(math.log2(2.0 * horizon / delta))
    halving = tuple(round_to_grid(horizon * 2.0 ** (1 - i), delta)
                    for i in range(1, count)) + (delta,)
    return {"two_step": two, "uniform": uni, "halving": halving}


def two_atom_weights(taus, gap: float, kappa: float) -> list[float]:
    """Probability ``r_i`` that stage ``i`` of the sampler outputs the lower
    atom (at 0; the upper one is at ``gap``), under OU.

    The estimator's boundary at time ``t`` is the ``0.5 + kappa t^2``
    quantile of the true marginal ``(N(0, s) + N(gap a, s)) / 2``.  Stage 1
    starts from ``N(0, s_1)``; stage ``i+1`` from the two atoms with weights
    ``(r_i, 1 - r_i)`` noised to ``tau_{i+1}``.
    """
    weights = []
    r = None
    half = np.array([0.5, 0.5])
    for t in taus:
        a2, s = alpha2_sigma2("ou", t)
        sd = math.sqrt(s)
        far = gap * math.sqrt(a2)
        boundary = mixture_quantile(0.5 + kappa * t * t, np.array([0.0, far]),
                                    np.array([sd, sd]), half)
        below_lo = float(ndtr(boundary / sd))
        below_hi = float(ndtr((boundary - far) / sd))
        r = below_lo if r is None else r * below_lo + (1.0 - r) * below_hi
        weights.append(r)
    return weights


def check_sim(rows: list[dict], spec: dict) -> list[str]:
    """The two-atom simulation: each stage outputs only the atoms, so its
    W2 to the equal-weight target is ``gap sqrt(|p - 1/2|)`` with ``p`` the
    lower atom's sample share, a binomial estimate of ``r_i``."""
    schedules = sim_schedules(spec["radius"], spec["eps"], 1.0,
                              spec["horizon"], spec["n_uniform"])
    target = {"type": "discrete", "atoms": [[0.0, 0.5], [spec["gap"], 0.5]]}
    errors = check_common(rows, schedules, "ou", spec["rate"], geometry(target))
    if errors:
        return errors
    n = spec["n"]
    for label, taus in schedules.items():
        r_all = two_atom_weights(taus, spec["gap"], spec["kappa"])
        theirs = [row for row in rows if row["schedule_label"] == label]
        for row, r in zip(theirs, r_all):
            p_dev = (row["w2"] / spec["gap"]) ** 2
            se = math.sqrt(r * (1.0 - r) / n)
            if abs(p_dev - abs(r - 0.5)) > SIM_W2_SES * se:
                errors.append(
                    f"{label} stage {row['stage']}: w2 {row['w2']} implies "
                    f"|p - 1/2| = {p_dev:.6g}, stage law gives {abs(r - 0.5):.6g} "
                    f"(> {SIM_W2_SES:g} standard errors of {se:.3g})")
    return errors


# --- gauss_tv: one Gaussian, exact affine oracle, smoothed TV ----------------

def gaussian_stage_outputs(taus, m0: float, v0: float) -> list[tuple[float, float]]:
    """Mean and variance of each stage's output under OU for the exact
    oracle ``f(x, t) = m0 + k_t (x - a_t m0)``, ``k_t = sqrt(v0 / (a_t^2 v0
    + s_t))``, starting from ``N(0, s_1)``."""
    outputs = []
    mean, var = 0.0, alpha2_sigma2("ou", taus[0])[1]
    for i, t in enumerate(taus):
        a2, s = alpha2_sigma2("ou", t)
        k = math.sqrt(v0 / (a2 * v0 + s))
        mean, var = m0 + k * (mean - math.sqrt(a2) * m0), k * k * var
        outputs.append((mean, var))
        if i + 1 < len(taus):
            a2n, sn = alpha2_sigma2("ou", taus[i + 1])
            mean, var = math.sqrt(a2n) * mean, a2n * var + sn
    return outputs


def gaussian_tv(m1: float, v1: float, m2: float, v2: float) -> float:
    """``0.5 * integral |N(m1, v1) - N(m2, v2)|`` by adaptive quadrature,
    split where the two densities cross."""
    def diff(x):
        return abs(math.exp(-0.5 * (x - m1) ** 2 / v1) / math.sqrt(2 * math.pi * v1)
                   - math.exp(-0.5 * (x - m2) ** 2 / v2) / math.sqrt(2 * math.pi * v2))

    # log-density equality: a x^2 + b x + c = 0
    a = 0.5 / v2 - 0.5 / v1
    b = m1 / v1 - m2 / v2
    c = 0.5 * m2 * m2 / v2 - 0.5 * m1 * m1 / v1 + 0.5 * math.log(v2 / v1)
    crossings = np.roots([a, b, c]) if a != 0.0 else np.roots([b, c])
    crossings = sorted(float(x.real) for x in np.atleast_1d(crossings)
                       if abs(x.imag) < 1e-12)
    sd = math.sqrt(max(v1, v2))
    lo = min(m1, m2) - 14.0 * sd
    hi = max(m1, m2) + 14.0 * sd
    edges = [lo] + [x for x in crossings if lo < x < hi] + [hi]
    total = 0.0
    for x0, x1 in zip(edges, edges[1:]):
        total += quad(diff, x0, x1, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return 0.5 * total


def w2_noise_scale(n: int, seed: int, reps: int = 8) -> float:
    """Largest W2, over ``reps`` draws, between ``n`` standard-normal
    samples and the quantile grid ``ndtri((k - 1/2)/n)``: the sampling part
    of an empirical W2 against a Gaussian of unit standard deviation."""
    rng = np.random.default_rng([seed, 0x5CA1E])
    grid = ndtri((np.arange(1, n + 1) - 0.5) / n)
    worst = 0.0
    for _ in range(reps):
        d = np.sort(rng.standard_normal(n)) - grid
        worst = max(worst, float(np.sqrt(np.mean(d * d))))
    return worst


def check_gauss(rows: list[dict], spec: dict) -> list[str]:
    """Single-Gaussian target with optimal smoothing: each stage's output is
    ``N(mean_i, var_i)``.  Its W2 to ``N(m0, v0)`` must lie within three
    times the sampling scale of the closed form, its smoothed TV must equal
    the quadrature to ``TV_ATOL``, and ``tv <= tv_bound``."""
    m0, v0, taus = spec["m0"], spec["v0"], spec["taus"]
    target = {"type": "gmm", "components": [[m0, v0, 1.0]]}
    geo = geometry(target)
    sigma_eps = math.sqrt(taus[-1] * spec["rate"] / (4.0 * geo["L"]))
    errors = check_common(rows, {spec["label"]: taus}, "ou", spec["rate"], geo,
                          sigma_eps)
    if errors:
        return errors
    for row, (mean, var) in zip(rows, gaussian_stage_outputs(taus, m0, v0)):
        where = f"stage {row['stage']}"
        w2 = math.hypot(mean - m0, math.sqrt(var) - math.sqrt(v0))
        tol = 3.0 * math.sqrt(var) * spec["w2_noise"]
        if abs(row["w2"] - w2) > tol:
            errors.append(f"{where}: w2 {row['w2']} vs closed form {w2} "
                          f"(tolerance {tol:.3g})")
        tv = gaussian_tv(mean, var + sigma_eps**2, m0, v0)
        if abs(row["tv"] - tv) > TV_ATOL:
            errors.append(f"{where}: tv {row['tv']} vs quadrature {tv}")
        if not row["tv"] <= row["tv_bound"]:
            errors.append(f"{where}: tv {row['tv']} exceeds tv_bound {row['tv_bound']}")
    return errors


# --- pfode_gmm: Gaussian mixture under VE, RK4 PF-ODE oracle ------------------

def rearrangement_points(target: dict, t: float, count: int, seed: int):
    """Points ``x = Q_t(u)`` at ``count`` seeded levels ``u`` in
    ``[0.001, 0.999]`` of the VE marginal at ``t``, and their images
    ``Q_0(u) = Q_0(F_t(x))`` under the monotone rearrangement."""
    m = np.array([c[0] for c in target["components"]], dtype=float)
    v = np.array([c[1] for c in target["components"]], dtype=float)
    w = np.array([c[2] for c in target["components"]], dtype=float)
    u = np.random.default_rng([seed, int(round(t * 1e6))]).uniform(0.001, 0.999, count)
    sd_t = np.sqrt(v + alpha2_sigma2("ve", t)[1])
    x = np.array([mixture_quantile(q, m, sd_t, w) for q in u])
    y = np.array([mixture_quantile(q, m, np.sqrt(v), w) for q in u])
    return x, y


def check_rearrangement(got: np.ndarray, want: np.ndarray, t: float) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got).ravel() - want)))
    if not err <= PFODE_ATOL:
        return [f"PF-ODE oracle at t = {t} differs from Q_0(F_t(x)) by {err:.3g}"]
    return []


def check_pfode(rows: list[dict], spec: dict) -> list[str]:
    """Designed taus, bound columns by formula, ``w2 <= bound_modified``."""
    return check_common(rows, {spec["label"]: spec["taus"]}, "ve", spec["rate"],
                        geometry(spec["target"]))
