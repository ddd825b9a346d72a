import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from cmlab import (
    DiscreteTarget,
    GaussianMixtureTarget,
    MarginalView,
    NumericError,
    geometry,
    make_ou,
    make_ve,
    marginal_cdf_1d,
    marginal_logpdf,
    marginal_pdf,
    marginal_quantile_1d,
    sample_marginal,
    score,
    target_quantiles_1d,
)
from cmlab._config import build_target
from cmlab.target_dist import _mixture_cdf_1d, _mixture_quantiles_1d

OU = make_ou()
TWO_ATOM = DiscreteTarget([0.0, 100.0], [0.5, 0.5])
SKEWED = DiscreteTarget([0.0, 100.0], [0.3, 0.7])
STD_GAUSS = GaussianMixtureTarget([[0.0]], [1.0], [1.0])
GMM3 = GaussianMixtureTarget([[-4.0], [0.0], [3.0]], [0.5, 1.0, 0.25], [0.3, 0.5, 0.2])
# The sampling times of the three reproduce-sim designs.
SIM_TAUS = (14.0, 11.0, 9.0, 8.0, 7.0, 6.0, 4.0, 3.0, 1.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# The targets of the shipped configs, one Gaussian of the kind the benchmark's
# gauss_tv workload draws (mean in [1, 3], variance in [0.3, 0.8]), and the
# GMM of its pfode_gmm workload.
QUANTILE_TARGETS = {
    path.stem: build_target(json.loads(path.read_text())["target"])
    for path in sorted(CONFIG_DIR.glob("*.json"))
}
QUANTILE_TARGETS["bench_gauss_tv"] = GaussianMixtureTarget([[1.7]], [0.55], [1.0])
QUANTILE_TARGETS["bench_pfode_gmm"] = GaussianMixtureTarget(
    [[-4.0], [0.0], [3.0]], [0.5, 1.0, 0.25], [0.3, 0.5, 0.2]
)


# ---------------------------------------------------------------------------
# construction


def test_discrete_validation():
    with pytest.raises(ValueError):
        DiscreteTarget([0.0, 1.0], [0.5, 0.6])  # weights do not sum to 1
    with pytest.raises(ValueError):
        DiscreteTarget([0.0, 1.0], [1.0, 0.0])  # zero weight
    with pytest.raises(ValueError):
        DiscreteTarget([3.0, 3.0], [0.5, 0.5])  # coincident atoms
    with pytest.raises(ValueError):
        DiscreteTarget([0.0, 1.0], [0.5, 0.25, 0.25])  # shape mismatch


def test_gmm_validation():
    with pytest.raises(ValueError):
        GaussianMixtureTarget([[0.0]], [0.0], [1.0])
    with pytest.raises(ValueError):
        GaussianMixtureTarget([[0.0], [1.0]], [1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        GaussianMixtureTarget([[0.0]], [1.0], [1.0], log_smoothness=-2.0)


@pytest.mark.parametrize(
    "weights",
    [[math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan], [math.inf, 0.5], [-math.inf, 0.5]],
)
def test_non_finite_weights_are_refused(weights):
    # NaN compares False both ways, so "no weight <= 0" and "the sum is not
    # off by more than 1e-12" would both let it through
    with pytest.raises(ValueError, match="weights must"):
        DiscreteTarget([[0.0], [100.0]], weights)
    with pytest.raises(ValueError, match="weights must"):
        GaussianMixtureTarget([[0.0], [1.0]], [1.0, 1.0], weights)


def test_view_checks_time():
    with pytest.raises(NumericError):
        MarginalView(TWO_ATOM, OU, -1.0)


def test_mixture_params_kernel_identity():
    t = 1.7
    view = MarginalView(SKEWED, OU, t)
    means, variances, weights = view.mixture_params()
    a = math.exp(-t)
    s2 = -math.expm1(-2 * t)
    np.testing.assert_array_equal(means, a * SKEWED.locations[:, 0])
    np.testing.assert_array_equal(variances, np.full(2, s2))
    np.testing.assert_array_equal(weights, SKEWED.weights)


# ---------------------------------------------------------------------------
# density / score


def test_standard_gaussian_is_ou_invariant():
    # N(0, 1) is the OU stationary law: the marginal at every t is N(0, 1).
    for t in (0.5, 2.0, 9.0):
        view = MarginalView(STD_GAUSS, OU, t)
        assert float(marginal_pdf(view, 0.0)) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12
        )
        assert float(marginal_pdf(view, 1.0)) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-12
        )


def test_two_atom_pdf_at_atom_center():
    t = 1.0
    view = MarginalView(TWO_ATOM, OU, t)
    a, s2 = math.exp(-t), -math.expm1(-2 * t)
    # At the noised atom the other component is ~ exp(-780) and invisible.
    want = 0.5 / math.sqrt(2.0 * math.pi * s2)
    assert float(marginal_pdf(view, 100.0 * a)) == pytest.approx(want, rel=1e-12)
    assert float(marginal_logpdf(view, 100.0 * a)) == pytest.approx(
        math.log(want), rel=1e-12
    )


def test_pdf_integrates_to_one():
    for target, t in ((TWO_ATOM, 0.8), (SKEWED, 2.0), (STD_GAUSS, 1.0)):
        view = MarginalView(target, OU, t)
        means, variances, _ = view.mixture_params()
        sd = math.sqrt(float(variances.max()))
        lo = float(means.min()) - 12.0 * sd
        hi = float(means.max()) + 12.0 * sd
        total, _ = scipy.integrate.quad(
            lambda x: float(marginal_pdf(view, x)), lo, hi, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_density_needs_positive_variance():
    view = MarginalView(TWO_ATOM, OU, 0.0)
    with pytest.raises(NumericError):
        marginal_pdf(view, 1.0)
    with pytest.raises(NumericError):
        score(view, 1.0)


def test_score_underflow_raises():
    view = MarginalView(STD_GAUSS, OU, 1.0)
    with pytest.raises(NumericError):
        score(view, 1e6)


def _fd_score(view, x, h=1e-6):
    return (
        float(marginal_logpdf(view, x + h)) - float(marginal_logpdf(view, x - h))
    ) / (2.0 * h)


def test_score_matches_log_density_gradient():
    view = MarginalView(SKEWED, OU, 2.0)
    for x in (-2.0, 0.0, 5.0, 13.0, 30.0):
        assert float(score(view, x)) == pytest.approx(_fd_score(view, x), rel=1e-5)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-8.0, max_value=8.0),
    t=st.floats(min_value=0.3, max_value=4.0),
)
def test_score_fd_fuzz(x, t):
    view = MarginalView(
        GaussianMixtureTarget([[-1.0], [2.0]], [0.5, 2.0], [0.4, 0.6]), OU, t
    )
    got = float(score(view, x))
    assert got == pytest.approx(_fd_score(view, x), rel=1e-4, abs=1e-7)


def test_score_vector_shape():
    view = MarginalView(DiscreteTarget([[0.0], [1.0]], [0.5, 0.5]), OU, 1.0)
    pts = np.array([0.1, 0.5, 2.0])
    assert score(view, pts).shape == (3,)
    assert score(view, 0.5).shape == ()
    # single gaussian sanity: score(x) = (mean - x) / var
    g = MarginalView(GaussianMixtureTarget([[1.0]], [2.0], [1.0]), OU, 0.7)
    means, variances, _ = g.mixture_params()
    np.testing.assert_allclose(
        score(g, pts), (means[0] - pts) / variances[0], rtol=1e-12
    )
    # Every entry is a point: with one component, a column must not
    # broadcast against the component axis; it comes back in its own shape.
    for fn in (score, marginal_logpdf):
        flat = fn(g, pts)
        np.testing.assert_array_equal(fn(g, pts[:, None]), flat[:, None])


def test_score_and_logpdf_rows_do_not_depend_on_the_batch():
    # With ten components a one-point call must sum the shifted exponentials
    # in the same order as a call on many points.
    rng = np.random.default_rng(9)
    target = GaussianMixtureTarget(
        rng.uniform(-5.0, 5.0, (10, 1)), rng.uniform(0.2, 2.0, 10), np.full(10, 0.1)
    )
    view = MarginalView(target, OU, 0.5)
    x = rng.uniform(-6.0, 6.0, 64)
    one_by_one = np.array([[score(view, v), marginal_logpdf(view, v)] for v in x])
    together = np.column_stack([score(view, x), marginal_logpdf(view, x)])
    np.testing.assert_array_equal(one_by_one.view(np.int64), together.view(np.int64))


# ---------------------------------------------------------------------------
# cdf / quantile


def test_cdf_quantile_inverse():
    # t = 1.3 on the skewed atoms, and the reproduce-sim boundary levels
    # 0.5 + 1e-4 t^2 at the simulation's sampling times on the two atoms.
    cases = [(SKEWED, 1.3, u) for u in (0.01, 0.5, 0.99)]
    cases += [(TWO_ATOM, t, 0.5 + 1e-4 * t * t) for t in SIM_TAUS]
    for target, t, u in cases:
        view = MarginalView(target, OU, t)
        x = marginal_quantile_1d(view, u)
        assert float(marginal_cdf_1d(view, x)) == pytest.approx(u, abs=1e-9)


@pytest.mark.parametrize("target", [SKEWED, GMM3], ids=["atoms", "gmm"])
def test_target_quantiles_match_marginal_route(target):
    # The t = 0 marginal is the target itself, and both routes run the one
    # mixture quantile solver, so every level agrees to the bit.
    u = np.concatenate([[1e-6, 0.3, 0.30000001, 0.7], (np.arange(1, 513) - 0.5) / 512])
    view = MarginalView(target, OU, 0.0)
    want = np.array([marginal_quantile_1d(view, ui) for ui in u])
    np.testing.assert_array_equal(target_quantiles_1d(target, u), want)


def test_quantile_bracket_failure_raises():
    # A NaN mean leaves every CDF value and component quantile NaN, so no
    # bracket holds the levels; the solver must say so instead of returning
    # NaN quantiles, for one component (the closed form) and for several.
    broken = GaussianMixtureTarget([[float("nan")]], [1.0], [1.0])
    with pytest.raises(NumericError):
        target_quantiles_1d(broken, [0.25, 0.75])
    with pytest.raises(NumericError):
        target_quantiles_1d(broken, 0.5)
    mixed = GaussianMixtureTarget([[0.0], [float("nan")]], [1.0, 1.0], [0.5, 0.5])
    with pytest.raises(NumericError):
        target_quantiles_1d(mixed, [0.25, 0.75])
    with pytest.raises(NumericError):
        _mixture_quantiles_1d(np.zeros(2), np.array([1.0, np.inf]), np.full(2, 0.5), 0.3)


@pytest.mark.parametrize("mixture", [
    (np.array([0.0, 100.0]), np.zeros(2), np.full(2, 0.5)),
    (np.array([1.0]), np.array([2.0]), np.array([1.0])),
    (np.array([-4.0, 0.0, 3.0]), np.array([0.5, 1.0, 0.25]), np.array([0.3, 0.5, 0.2])),
], ids=["atoms", "gaussian", "gmm"])
def test_mixture_quantile_levels_must_lie_inside_the_unit_interval(mixture):
    # NaN, 0 and 1 anywhere among the levels raise; no level is an empty
    # array back, in every branch of the solver.
    for bad in (np.nan, 0.0, 1.0):
        for u in (bad, [0.5, bad], [bad, 0.25, 0.75]):
            with pytest.raises(NumericError, match=r"strictly inside \(0, 1\)"):
                _mixture_quantiles_1d(*mixture, u)
    out = _mixture_quantiles_1d(*mixture, np.empty(0))
    assert out.shape == (0,)


def _bisection_quantiles(means, variances, weights, u):
    """The solver this package used before bracketed Newton: a mean plus or
    minus ten total standard deviations bracket, doubled until it holds
    every level, then 80 bisection passes of the mixture CDF."""
    u = np.asarray(u, dtype=float)
    sds = np.sqrt(variances)

    def cdf(x):
        x = x[:, None]
        if np.any(sds <= 0):
            return (x >= means).astype(float) @ weights
        return ndtr((x - means) / sds) @ weights

    m = float(weights @ means)
    var = float(weights @ (variances + means**2) - m * m)
    spread = max(math.sqrt(max(var, 0.0)), 1e-12)
    lo = np.full(u.shape, m - 10.0 * spread)
    hi = np.full(u.shape, m + 10.0 * spread)
    for _ in range(200):
        short_lo = not np.all(cdf(lo) <= u)
        short_hi = not np.all(cdf(hi) >= u)
        if not (short_lo or short_hi):
            break
        lo = m + 2.0 * (lo - m) if short_lo else lo
        hi = m + 2.0 * (hi - m) if short_hi else hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _params_1d(target):
    if isinstance(target, DiscreteTarget):
        return target.locations[:, 0], np.zeros(target.n_components), target.weights
    return target.means[:, 0], target.variances, target.weights


@pytest.mark.parametrize("name", sorted(QUANTILE_TARGETS))
def test_quantiles_match_bisection(name):
    target = QUANTILE_TARGETS[name]
    for n in (1, 7, 4096, 100_000):
        u = (np.arange(1, n + 1) - 0.5) / n
        want = _bisection_quantiles(*_params_1d(target), u)
        np.testing.assert_allclose(target_quantiles_1d(target, u), want, rtol=0, atol=1e-10)


def _mp_quantile(target, u):
    """Mixture quantile to 40 digits: for ``u > 1/2`` the root of the
    survival function at ``1 - u`` (exact in binary), else of the CDF."""
    means, variances, weights = (
        [mpmath.mpf(float(v)) for v in arr] for arr in _params_1d(target)
    )
    sds = [mpmath.sqrt(v) for v in variances]
    upper = u > 0.5
    level = mpmath.mpf(1.0 - u if upper else u)
    sign = -1 if upper else 1

    def excess(x):
        return sum(
            w * mpmath.ncdf(sign * (x - m) / sd) for m, sd, w in zip(means, sds, weights)
        ) - level

    z = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1)
    qs = [m + sd * z for m, sd in zip(means, sds)]
    with mpmath.workdps(40):
        return mpmath.findroot(excess, (min(qs) - 1e-9, max(qs) + 1e-9), solver="anderson")


@pytest.mark.parametrize("target", [GMM3, QUANTILE_TARGETS["bench_pfode_gmm"],
                                    GaussianMixtureTarget([[1.7]], [0.55], [1.0])],
                         ids=["gmm3", "bench_gmm", "gauss"])
def test_tail_quantiles_match_mpmath(target):
    levels = [1e-15, 1e-10, 1.0 - 1e-10, 1.0 - 2.0**-50]
    got = target_quantiles_1d(target, levels)
    for u, q in zip(levels, got):
        want = _mp_quantile(target, u)
        assert abs(q - float(want)) <= 1e-12 * abs(float(want)), (u, q, want)


_EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(
    comps=st.lists(
        st.tuples(
            st.floats(-20.0, 20.0),
            st.floats(-3.0, 2.0),  # log10 variance
            st.floats(0.05, 1.0),  # unnormalised weight
        ),
        min_size=1,
        max_size=4,
    ),
    tail=st.floats(1e-300, 0.5),
    upper=st.booleans(),
)
def test_quantile_inverts_cdf(comps, tail, upper):
    # F(Q(u)) = u up to a few ulps of the level (the rounding of F, taken
    # as the survival function above 1/2) plus a few ulps of |x| + scale
    # times the density at x (the rounding of the quantile itself).
    means = np.array([c[0] for c in comps])
    variances = 10.0 ** np.array([c[1] for c in comps])
    weights = np.array([c[2] for c in comps])
    weights /= weights.sum()
    sds = np.sqrt(variances)
    u = 1.0 - tail if upper else tail
    if not 0.0 < u < 1.0:
        return
    x = float(_mixture_quantiles_1d(means, variances, weights, u))
    if upper:
        got = float(_mixture_cdf_1d(-x, -means, sds, weights))
        level = 1.0 - u
    else:
        got = float(_mixture_cdf_1d(x, means, sds, weights))
        level = u
    density = float(np.sum(weights * scipy.stats.norm.pdf(x, means, sds)))
    scale = abs(x) + np.max(np.abs(means)) + np.max(sds)
    assert abs(got - level) <= 4 * _EPS * (level + scale * density)


def test_cdf_is_batch_invariant():
    # A point's CDF does not depend on how many points share the call.
    view = MarginalView(GMM3, OU, 0.7)
    x = np.linspace(-10.0, 10.0, 1001)
    batched = marginal_cdf_1d(view, x)
    one_by_one = np.array([float(marginal_cdf_1d(view, xi)) for xi in x])
    np.testing.assert_array_equal(batched, one_by_one)


def test_symmetric_median():
    # Times late enough that the components overlap: on the flat CDF
    # plateau between two far-separated spikes the 0.5-quantile is not
    # numerically unique, so the midpoint claim only holds once the noised
    # atoms sit within a few standard deviations of each other.
    for t in (3.0, 4.0, 6.0):
        view = MarginalView(TWO_ATOM, OU, t)
        assert marginal_quantile_1d(view, 0.5) == pytest.approx(
            50.0 * math.exp(-t), abs=1e-9
        )


def test_quantile_frozen_value():
    # Pinned against a 1e7-sample Monte Carlo draw (deviation +1.4 stderr).
    view = MarginalView(TWO_ATOM, OU, 10.0)
    assert marginal_quantile_1d(view, 0.51) == pytest.approx(0.02733897, abs=5e-7)


def test_quantile_rejects_bad_levels():
    view = MarginalView(TWO_ATOM, OU, 1.0)
    for u in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(NumericError):
            marginal_quantile_1d(view, u)
        for target in (TWO_ATOM, STD_GAUSS, GMM3):  # step, closed form, Newton
            with pytest.raises(NumericError):
                target_quantiles_1d(target, [0.5, u])


def test_cdf_needs_1d():
    view = MarginalView(DiscreteTarget([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5]), OU, 1.0)
    with pytest.raises(NumericError):
        marginal_cdf_1d(view, 0.0)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic():
    view = MarginalView(SKEWED, OU, 1.0)
    a = sample_marginal(view, 5000, seed=7)
    b = sample_marginal(view, 5000, seed=7)
    np.testing.assert_array_equal(a, b)
    c = sample_marginal(view, 5000, seed=8)
    assert not np.array_equal(a, c)


def test_sampling_mean():
    view = MarginalView(SKEWED, OU, 1.0)
    n = 20000
    x = sample_marginal(view, n, seed=3)
    assert x.shape == (n,)
    means, variances, weights = view.mixture_params()
    mean = float(weights @ means)
    var = float(weights @ (variances + means**2) - mean**2)
    se = math.sqrt(var / n)
    assert abs(float(x.mean()) - mean) < 4.0 * se


def test_sampling_at_time_zero_is_exact():
    view = MarginalView(SKEWED, OU, 0.0)
    x = sample_marginal(view, 100_000, seed=0)
    assert set(np.unique(x)) == {0.0, 100.0}
    counts = np.array([(x == 0.0).sum(), (x == 100.0).sum()])
    _, p = scipy.stats.chisquare(counts, f_exp=np.array([0.3, 0.7]) * x.size)
    assert p > 0.01


def test_sample_rejects_empty():
    view = MarginalView(SKEWED, OU, 1.0)
    with pytest.raises(NumericError):
        sample_marginal(view, 0, seed=0)


# ---------------------------------------------------------------------------
# geometry / raw quantiles


def test_geometry_two_atoms():
    g = geometry(TWO_ATOM)
    assert (g.radius, g.diameter, g.second_moment) == (100.0, 100.0, 5000.0)
    assert g.log_smoothness is None
    assert not g.effective


def test_geometry_single_gaussian():
    g = geometry(STD_GAUSS)
    assert g.radius == 3.0
    assert g.diameter == 6.0
    assert g.second_moment == 1.0
    assert g.log_smoothness == 1.0
    assert g.effective


def test_geometry_respects_supplied_smoothness():
    t = GaussianMixtureTarget([[0.0]], [4.0], [1.0], log_smoothness=9.0)
    assert geometry(t).log_smoothness == 9.0
    mix = GaussianMixtureTarget([[0.0], [5.0]], [1.0, 1.0], [0.5, 0.5])
    assert geometry(mix).log_smoothness is None


def test_target_quantiles_discrete_steps():
    u = np.array([0.1, 0.5, 0.500001, 0.9])
    np.testing.assert_array_equal(
        target_quantiles_1d(TWO_ATOM, u), [0.0, 0.0, 100.0, 100.0]
    )
    with pytest.raises(NumericError):
        target_quantiles_1d(TWO_ATOM, [0.0, 0.5])


def test_target_quantiles_gaussian_matches_scipy():
    t = GaussianMixtureTarget([[2.0]], [4.0], [1.0])
    u = np.array([0.025, 0.4, 0.975])
    np.testing.assert_allclose(
        target_quantiles_1d(t, u), scipy.stats.norm.ppf(u, loc=2.0, scale=2.0),
        atol=1e-9,
    )


def test_ve_marginal_agrees_with_convolution():
    # VE keeps the signal fixed and adds N(0, t^2) — spot-check the pdf.
    ve = make_ve()
    view = MarginalView(TWO_ATOM, ve, 3.0)
    want = 0.5 * (
        scipy.stats.norm.pdf(1.0, loc=0.0, scale=3.0)
        + scipy.stats.norm.pdf(1.0, loc=100.0, scale=3.0)
    )
    assert float(marginal_pdf(view, 1.0)) == pytest.approx(want, rel=1e-12)


def _two_branch_geometry(target):
    """The atom-branch / mixture-branch body that :func:`geometry` replaced,
    kept to pin the one-formula version bit for bit."""
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
        return float(norms.max()), diam, second, None, False
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
    second = float(target.weights @ (norms**2 + target.dim * target.variances))
    return radius, diam, second, smooth, True


@st.composite
def _geometry_targets(draw):
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    locs = np.array(draw(st.lists(
        st.lists(coord, min_size=d, max_size=d), min_size=k, max_size=k,
        unique_by=tuple,
    )))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    weights = raw / raw.sum()
    if draw(st.booleans()):
        return DiscreteTarget(locs, weights)
    variances = draw(st.lists(st.floats(1e-4, 1e3), min_size=k, max_size=k))
    smoothness = draw(st.none() | st.floats(1e-3, 1e3))
    return GaussianMixtureTarget(locs, variances, weights, smoothness)


@settings(max_examples=300, deadline=None)
@given(_geometry_targets())
def test_geometry_matches_two_branch_formula(target):
    g = geometry(target)
    got = (g.radius, g.diameter, g.second_moment, g.log_smoothness, g.effective)
    want = _two_branch_geometry(target)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [float(v).hex() if isinstance(v, float) else v for v in got] == [
        float(v).hex() if isinstance(v, float) else v for v in want
    ]


@pytest.mark.parametrize("target, t", [
    (TWO_ATOM, 0.7), (GMM3, 0.0), (GMM3, 2.5),
    (GaussianMixtureTarget([[0.0, 1.0], [2.0, -1.0]], [0.5, 2.0], [0.4, 0.6]), 0.3),
], ids=["atoms", "gmm3_t0", "gmm3", "gmm_2d"])
def test_marginal_logpdf_matches_allocating_formula(target, t):
    view = MarginalView(target, OU, t)
    pts = np.random.default_rng(5).normal(0.0, 6.0, 257)
    if target.dim != 1:  # points are scalars: a 2-D target is refused
        with pytest.raises(NumericError, match="1-D target"):
            marginal_logpdf(view, pts)
        return
    means, variances, weights = view.mixture_params()
    # The formula as written before the log terms were built in place.
    pull = means[:, None] - pts[None, :]
    sq = pull * pull
    coefs = np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances)
    logc = coefs[:, None] - 0.5 * (sq / variances[:, None])
    m = logc.max(axis=0)
    want = np.where(np.isfinite(m), m + np.log(np.exp(logc - m).sum(axis=0)), m)
    got = marginal_logpdf(view, pts)
    assert got.tobytes() == want.tobytes()
