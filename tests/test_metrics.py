import itertools
import json
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import (
    DiscreteTarget,
    GaussianMixtureTarget,
    NumericError,
    kl_grid,
    tv_grid,
    w2_empirical_1d,
    w2_stderr_proxy,
    w2_vs_target_1d,
)
import cmlab.cli as cli
from cmlab._config import load_experiment_config
from cmlab.metrics import _coupling_w2, _gaussian_tv, coupling_quantiles
from cmlab.sampler import stage_laws
from cmlab.target_dist import target_quantiles_1d

TWO_ATOM = DiscreteTarget([0.0, 100.0], [0.5, 0.5])
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def gauss_pdf(mean, sd):
    return lambda x: scipy.stats.norm.pdf(x, loc=mean, scale=sd)


# ---------------------------------------------------------------------------
# Wasserstein-2


def test_w2_empirical_examples():
    assert w2_empirical_1d([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert w2_empirical_1d([1.0, 0.0], [0.0, 1.0]) == 0.0  # order irrelevant
    assert w2_empirical_1d([0.0], [3.0]) == 3.0
    assert w2_empirical_1d([0, 0, 0, 0], [1, 1, 1, 1]) == 1.0
    assert w2_empirical_1d(np.zeros(3), np.ones(3)) == 1.0


def test_w2_empirical_errors():
    with pytest.raises(NumericError):
        w2_empirical_1d([1.0, 2.0], [1.0])
    with pytest.raises(NumericError):
        w2_empirical_1d([], [])
    with pytest.raises(NumericError):
        w2_empirical_1d(np.zeros((2, 2)), np.zeros((2, 2)))
    # points are the entries of an (n,) array: a column is refused
    with pytest.raises(NumericError):
        w2_empirical_1d(np.zeros((3, 1)), np.ones((3, 1)))
    for w2 in (w2_vs_target_1d, w2_stderr_proxy):
        with pytest.raises(NumericError):
            w2(np.zeros((3, 1)), TWO_ATOM)


def _w2_bruteforce(a, b):
    # minimize the assignment cost over all permutations
    best = math.inf
    for perm in itertools.permutations(range(len(b))):
        cost = sum((x - b[j]) ** 2 for x, j in zip(a, perm))
        best = min(best, cost)
    return math.sqrt(best / len(a))


def test_w2_sorted_coupling_is_optimal():
    """The sorted coupling must beat every permutation, instance by instance."""
    rng = np.random.default_rng(2718)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = rng.normal(0, 3, n)
        b = rng.normal(1, 2, n)
        assert w2_empirical_1d(a, b) == pytest.approx(
            _w2_bruteforce(list(a), list(b)), rel=1e-12, abs=1e-12
        )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12),
    st.data(),
)
def test_w2_triangle_inequality(a, data):
    n = len(a)
    elt = st.floats(min_value=-50, max_value=50)
    b = data.draw(st.lists(elt, min_size=n, max_size=n))
    c = data.draw(st.lists(elt, min_size=n, max_size=n))
    ab = w2_empirical_1d(a, b)
    bc = w2_empirical_1d(b, c)
    ac = w2_empirical_1d(a, c)
    assert ac <= ab + bc + 1e-9


def test_w2_vs_target_point_mass_at_zero():
    # All mass at 0 against the equal two-atom law: W2^2 = 0.5 * 100^2.
    samples = np.zeros(10_000)
    assert w2_vs_target_1d(samples, TWO_ATOM) == pytest.approx(
        70.71067811865476, rel=1e-12
    )


def test_w2_vs_target_on_exact_quantiles():
    # Samples placed exactly at the coupling quantiles give W2 = 0.
    from cmlab import target_quantiles_1d

    n = 4001
    u = (np.arange(1, n + 1) - 0.5) / n
    samples = target_quantiles_1d(TWO_ATOM, u)
    assert w2_vs_target_1d(samples, TWO_ATOM) == 0.0


def test_w2_stderr_proxy_behaviour():
    rng = np.random.default_rng(7)
    small = rng.choice([0.0, 100.0], size=1000)
    big = rng.choice([0.0, 100.0], size=100_000)
    se_small = w2_stderr_proxy(small, TWO_ATOM)
    se_big = w2_stderr_proxy(big, TWO_ATOM)
    assert se_small > 0 and se_big > 0
    assert se_big < se_small  # shrinks with sample size
    # an exactly balanced two-valued sample still reports a positive proxy
    exact = np.repeat([0.0, 100.0], 500)
    assert w2_stderr_proxy(exact, TWO_ATOM) > 0


def _separate_solves(samples, target):
    """W2 and its stderr proxy as two independent computations, each with its
    own sort, its own quantile solve and ``np.unique``."""
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    u = (np.arange(1, n + 1) - 0.5) / n
    diff = np.sort(samples) - target_quantiles_1d(target, u)
    w2 = float(np.sqrt(np.mean(diff * diff)))
    sq = (np.sort(samples) - target_quantiles_1d(target, u)) ** 2
    w2_sq = float(np.mean(sq))
    values = np.unique(samples)
    if values.size <= 2:
        if values.size == 2:
            p_hat = float(np.mean(samples == values[-1]))
            gap_sq = float((values[-1] - values[0]) ** 2)
        else:
            p_hat, gap_sq = 0.0, float(np.ptp(target_quantiles_1d(
                target, np.array([0.5 / n, 1 - 0.5 / n]))) ** 2)
        spread = max(p_hat * (1.0 - p_hat), (1.0 / n) * (1.0 - 1.0 / n))
        se_sq = gap_sq * float(np.sqrt(spread / n))
    else:
        se_sq = float(np.std(sq) / np.sqrt(n))
    if se_sq <= 0:
        return w2, 0.0
    return w2, 0.5 * se_sq / max(np.sqrt(w2_sq), np.sqrt(se_sq))


_GAUSS = GaussianMixtureTarget([[2.0]], [0.5], [1.0])
_GMM3 = GaussianMixtureTarget([[-4.0], [0.0], [3.0]], [0.5, 1.0, 0.25], [0.3, 0.5, 0.2])
_draw = np.random.default_rng(12)
_COUPLING_CASES = {
    "two_valued": (_draw.choice([0.0, 100.0], size=5001), TWO_ATOM),
    "one_valued_atom": (np.full(777, 100.0), TWO_ATOM),
    "one_valued_gmm": (np.full(1001, 0.25), _GMM3),
    "many_valued_atom": (_draw.normal(50.0, 30.0, size=2048), TWO_ATOM),
    "gauss": (_draw.normal(2.1, 0.7, size=3000), _GAUSS),
    "gmm": (_draw.normal(0.0, 3.0, size=4097), _GMM3),
    "single": (np.array([1.5]), _GMM3),
}


@pytest.mark.parametrize("case", sorted(_COUPLING_CASES))
def test_shared_coupling_matches_separate_solves(case):
    samples, target = _COUPLING_CASES[case]
    want = _separate_solves(samples, target)
    q = coupling_quantiles(target, np.size(samples))
    assert _coupling_w2(samples, q, np.empty(q.size)) == want
    assert w2_vs_target_1d(samples, target) == want[0]
    assert w2_stderr_proxy(samples, target) == want[1]


def _coupling_w2_two_pass(samples, quantiles):
    """``_coupling_w2`` as it was before the single-buffer rewrite: separate
    difference and square arrays, and the distinct count and ``p_hat`` from
    full comparison passes over the sorted samples."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    n = s.size
    diff = s - quantiles
    sq = diff * diff
    w2_sq = float(np.mean(sq))
    w2 = math.sqrt(w2_sq)
    n_distinct = 1 + int(np.count_nonzero(s[1:] != s[:-1]))
    if n_distinct <= 2:
        if n_distinct == 2:
            p_hat = np.count_nonzero(s == s[-1]) / n
            gap_sq = float((s[-1] - s[0]) ** 2)
        else:
            p_hat, gap_sq = 0.0, float((quantiles[-1] - quantiles[0]) ** 2)
        spread = max(p_hat * (1.0 - p_hat), (1.0 / n) * (1.0 - 1.0 / n))
        se_sq = gap_sq * float(np.sqrt(spread / n))
    else:
        se_sq = float(np.std(sq) / np.sqrt(n))
    if se_sq <= 0:
        return w2, 0.0
    return w2, 0.5 * se_sq / max(np.sqrt(w2_sq), np.sqrt(se_sq))


def _assert_same_bits(got, want):
    # NaN-safe and sign-of-zero-safe: compare the IEEE bit patterns.
    assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


_NAN = math.nan
_TWO_PASS_CASES = {
    "one_valued": np.full(1000, 3.0),
    "one_valued_signed_zeros": np.array([0.0, -0.0, 0.0, -0.0]),
    "two_valued_p_1_over_n": np.r_[np.zeros(999), 100.0],
    "two_valued_p_1_minus_1_over_n": np.r_[0.0, np.full(999, 100.0)],
    "two_valued_signed_zero": np.array([-0.0, 0.0, 0.0, 5.0, 5.0]),
    "two_valued_n2": np.array([100.0, 0.0]),
    "three_valued": np.r_[np.zeros(10), 50.0, np.full(10, 100.0)],
    "many_valued": np.random.default_rng(3).normal(50.0, 30.0, size=2001),
    "single": np.array([1.5]),
    "single_nan": np.array([_NAN]),
    "all_nan": np.full(3, _NAN),
    "two_nan": np.full(2, _NAN),
    "one_value_and_nan": np.array([0.0, 0.0, _NAN]),
    "value_then_nan": np.array([_NAN, 4.0]),
    "two_values_and_nan": np.array([0.0, 100.0, 100.0, _NAN]),
    "many_valued_with_nan": np.r_[np.random.default_rng(4).normal(size=50), _NAN],
}


@pytest.mark.parametrize("case", sorted(_TWO_PASS_CASES))
def test_coupling_w2_matches_two_pass_body(case):
    samples = _TWO_PASS_CASES[case]
    q = coupling_quantiles(_GMM3, samples.size)
    got = _coupling_w2(samples, q, np.empty(q.size))
    _assert_same_bits(got, _coupling_w2_two_pass(samples, q))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 100.0, math.nan])
        | st.floats(min_value=-1e6, max_value=1e6),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([TWO_ATOM, _GAUSS, _GMM3]),
)
def test_coupling_w2_matches_two_pass_body_on_draws(values, target):
    samples = np.array(values)
    q = coupling_quantiles(target, samples.size)
    got = _coupling_w2(samples, q, np.empty(q.size))
    _assert_same_bits(got, _coupling_w2_two_pass(samples, q))


_ALLOC_N = 100_000
_ALLOC_CASES = {
    "continuous": np.random.default_rng(5).normal(50.0, 30.0, _ALLOC_N),
    "two_valued": np.random.default_rng(6).choice([0.0, 100.0], _ALLOC_N),
    "one_valued": np.full(_ALLOC_N, 100.0),
    "nan": np.r_[np.random.default_rng(7).normal(size=_ALLOC_N - 1), _NAN],
}


@pytest.mark.parametrize("case", sorted(_ALLOC_CASES))
def test_coupling_w2_in_a_caller_buffer_allocates_nothing_n_sized(case):
    samples = _ALLOC_CASES[case]
    q = coupling_quantiles(TWO_ATOM, _ALLOC_N)
    buffer = np.empty(_ALLOC_N)
    want = _coupling_w2_two_pass(samples, q)
    kept = samples.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = _coupling_w2(samples, q, buffer)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    _assert_same_bits(got, want)
    assert np.array_equal(samples, kept, equal_nan=True)
    assert peak < 0.05 * 8 * _ALLOC_N, f"{peak / (8 * _ALLOC_N):.2f} arrays of n floats"


def test_coupling_w2_refuses_a_bad_buffer():
    samples = np.random.default_rng(8).normal(size=8)
    q = coupling_quantiles(_GAUSS, 8)
    slab = np.empty(16)
    read_only = np.empty(8)
    read_only.flags.writeable = False
    bad = {
        "short": np.empty(7),
        "two_dim": np.empty((8, 1)),
        "float32": np.empty(8, np.float32),
        "strided": slab[::2],
        "read_only": read_only,
        "list": [0.0] * 8,
        "is_samples": samples,
        "is_quantiles": q,
    }
    for out in bad.values():
        with pytest.raises(NumericError):
            _coupling_w2(samples, q, out)
    # a buffer that overlaps a view of the samples is refused too
    joint = np.random.default_rng(9).normal(size=16)
    with pytest.raises(NumericError, match="shares memory"):
        _coupling_w2(joint[:8], coupling_quantiles(_GAUSS, 8), joint[4:12])
    _assert_same_bits(_coupling_w2(samples, q, np.empty(8)), _coupling_w2_two_pass(samples, q))


def test_coupling_quantiles_checks_sizes():
    with pytest.raises(NumericError):
        coupling_quantiles(TWO_ATOM, 0)
    with pytest.raises(NumericError):
        _coupling_w2(np.zeros(10), coupling_quantiles(TWO_ATOM, 11), np.empty(10))
    with pytest.raises(NumericError):
        _coupling_w2(np.zeros(0), coupling_quantiles(TWO_ATOM, 1), np.empty(0))


# ---------------------------------------------------------------------------
# grid TV / KL


def test_tv_gaussian_shift():
    # TV(N(0,1), N(1,1)) = 2 Phi(1/2) - 1
    got = tv_grid(gauss_pdf(0, 1), gauss_pdf(1, 1), -12, 13)
    assert got.value == pytest.approx(0.38292492254802624, abs=1e-5)
    assert abs(got.truncation_a) < 1e-6 and abs(got.truncation_b) < 1e-6


def test_tv_identical_and_disjoint():
    same = tv_grid(gauss_pdf(0, 1), gauss_pdf(0, 1), -10, 10)
    assert same.value == pytest.approx(0.0, abs=1e-12)
    far = tv_grid(gauss_pdf(0, 0.5), gauss_pdf(60, 0.5), -10, 70, n_grid=40001)
    assert far.value == pytest.approx(1.0, abs=1e-6)


def test_tv_grid_refinement_is_converged():
    coarse = tv_grid(gauss_pdf(0, 1), gauss_pdf(0.7, 1.3), -14, 14).value
    fine = tv_grid(gauss_pdf(0, 1), gauss_pdf(0.7, 1.3), -14, 14, n_grid=40001).value
    assert abs(coarse - fine) < 1e-6


def test_kl_gaussian_closed_forms():
    # KL(N(mu,1) || N(0,1)) = mu^2 / 2
    for mu in (0.3, 1.0, 2.0):
        got = kl_grid(gauss_pdf(mu, 1), gauss_pdf(0, 1), -14, 16).value
        assert got == pytest.approx(mu * mu / 2.0, abs=1e-6)
    # KL(N(0,1) || N(0,4)) = ln 2 - 3/8
    got = kl_grid(gauss_pdf(0, 1), gauss_pdf(0, 2), -13, 13).value
    assert got == pytest.approx(0.3181471805599453, abs=1e-9)


def test_pinsker():
    rng = np.random.default_rng(41)
    for _ in range(100):
        m1, m2 = rng.normal(0, 1, 2)
        s1, s2 = np.exp(rng.normal(0, 0.3, 2))
        lo = min(m1 - 12 * s1, m2 - 12 * s2)
        hi = max(m1 + 12 * s1, m2 + 12 * s2)
        tv = tv_grid(gauss_pdf(m1, s1), gauss_pdf(m2, s2), lo, hi).value
        kl = kl_grid(gauss_pdf(m1, s1), gauss_pdf(m2, s2), lo, hi).value
        assert tv <= math.sqrt(0.5 * kl) + 1e-9


def test_grid_validation_errors():
    with pytest.raises(NumericError):
        tv_grid(gauss_pdf(0, 1), gauss_pdf(0, 1), 5, -5)  # empty range
    with pytest.raises(NumericError):
        tv_grid(gauss_pdf(0, 1), gauss_pdf(0, 1), -10, 10, n_grid=100)
    with pytest.raises(NumericError, match="density a"):
        tv_grid(gauss_pdf(0, 1), gauss_pdf(0, 0.1), -1, 1)  # a truncated
    with pytest.raises(NumericError, match="density b"):
        tv_grid(gauss_pdf(0, 0.05), gauss_pdf(0, 1), -1, 1)  # b truncated


@pytest.mark.parametrize("grid", [tv_grid, kl_grid], ids=["tv", "kl"])
def test_grid_prologue_errors_on_each_side(grid):
    with pytest.raises(NumericError, match="empty integration range"):
        grid(gauss_pdf(0, 1), gauss_pdf(0, 1), 5, -5)
    with pytest.raises(NumericError, match="n_grid must be >= 1000"):
        grid(gauss_pdf(0, 1), gauss_pdf(0, 1), -10, 10, n_grid=999)
    with pytest.raises(NumericError, match=r"density a leaves 3\.173e-01 mass"):
        grid(gauss_pdf(0, 1), gauss_pdf(0, 0.1), -1, 1)
    with pytest.raises(NumericError, match=r"density b leaves 3\.173e-01 mass"):
        grid(gauss_pdf(0, 0.05), gauss_pdf(0, 1), -1, 1)
    with pytest.raises(NumericError, match="density a"):  # a is checked first
        grid(gauss_pdf(0, 1), gauss_pdf(0, 1), -1, 1)
    got = grid(gauss_pdf(0, 1), gauss_pdf(0.5, 1), -12, 12.5)
    assert abs(got.truncation_a) < 1e-8 and abs(got.truncation_b) < 1e-8


@pytest.mark.parametrize("grid", [tv_grid, kl_grid], ids=["tv", "kl"])
def test_grid_refuses_infinite_ranges_and_nan_masses(grid):
    pdf = gauss_pdf(0, 1)
    with pytest.raises(NumericError, match=r"integration range \[-inf, inf\] must be finite"):
        grid(pdf, pdf, -math.inf, math.inf)

    def nan_above_zero(x):
        return np.where(x > 0, math.nan, pdf(x))

    with pytest.raises(NumericError, match="density b leaves nan mass"):
        grid(pdf, nan_above_zero, -10, 10)


def test_kl_support_violation():
    with pytest.raises(NumericError, match="support"):
        kl_grid(gauss_pdf(0, 1), gauss_pdf(300, 0.01), -12, 312, n_grid=200001)


# ---------------------------------------------------------------------------
# closed-form Gaussian TV


def mp_gaussian_tv(m1, v1, m2, v2):
    """TV of two 1-D Gaussians at 50 digits: half the sum over the pieces
    between the density crossings of |P_1(piece) - P_2(piece)|, which is the
    integral of |p_1 - p_2| on each piece, since the sign is fixed there."""
    with mpmath.workdps(50):
        m1, v1, m2, v2 = (mpmath.mpf(float(x)) for x in (m1, v1, m2, v2))
        d, a = m2 - m1, 1 / v1 - 1 / v2
        if a == 0:
            cuts = [m1 + d / 2]
        else:  # a y^2 + 2 b y + c = 0 with y = x - m1, as in log p_1 = log p_2
            b, c = d / v2, mpmath.log(v1 / v2) - d * d / v2
            root = mpmath.sqrt(b * b - a * c)
            cuts = sorted(m1 + (-b + sign * root) / a for sign in (-1, 1))
        edges = [-mpmath.inf, *cuts, mpmath.inf]
        total = mpmath.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            p1, p2 = (mpmath.ncdf(hi, m, mpmath.sqrt(v)) - mpmath.ncdf(lo, m, mpmath.sqrt(v))
                      for m, v in ((m1, v1), (m2, v2)))
            total += abs(p1 - p2)
        return total / 2


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-10, 10), st.floats(1e-2, 1e2),
    st.floats(-10, 10), st.floats(1e-2, 1e2),
)
def test_gaussian_tv_matches_mpmath(m1, v1, m2, v2):
    assert abs(_gaussian_tv(m1, v1, m2, v2) - float(mp_gaussian_tv(m1, v1, m2, v2))) <= 1e-15


@pytest.mark.parametrize("law_a, law_b", [
    ((0.0, 1.0), (1.0, 1.0)),                    # equal variances
    ((-3.0, 2.5), (4.0, 2.5)),
    ((0.0, 1.0), (0.0, 1.0 + 1e-12)),            # the quadratic is nearly linear
    ((0.0, 1.0), (0.0, 1.0 - 1e-12)),
    ((0.3, 7.0), (-0.2, 7.0 * (1.0 + 1e-12))),
    ((50.0, 50.0), (50.0, 50.0 + 7.105427357601002e-15)),  # adjacent floats
    ((0.0, 1.99999999), (1.0, 1.9999999900000003)),  # adjacent, same reciprocal
    ((0.0, 1e300), (0.0, 1.0000000000000002e300)),  # q underflows to 0
    ((2.0, 3.0), (-1.0, 0.5)),
], ids=["equal-var", "equal-var-wide", "ratio-1+1e-12", "ratio-1-1e-12",
        "ratio-shifted", "adjacent", "same-reciprocal", "underflow", "general"])
def test_gaussian_tv_named_cases(law_a, law_b):
    got = _gaussian_tv(*law_a, *law_b)
    assert abs(got - float(mp_gaussian_tv(*law_a, *law_b))) <= 1e-15
    assert abs(_gaussian_tv(*law_b, *law_a) - got) <= 1e-16  # swapped arguments


def test_gaussian_tv_limits():
    assert _gaussian_tv(0.7, 2.0, 0.7, 2.0) == 0.0  # identical laws, exactly
    assert _gaussian_tv(-1.0, 1e-20, -1.0, 1e-20) == 0.0
    # means 40 sd apart
    for law in ((40.0, 1.0), (40.0, 1.3), (-40.0, 0.8)):
        assert abs(_gaussian_tv(0.0, 1.0, *law) - 1.0) <= 1e-15


@pytest.mark.parametrize("law", [
    (math.nan, 1.0, 0.0, 1.0), (0.0, math.inf, 0.0, 1.0), (0.0, 1.0, -math.inf, 1.0),
    (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, -1.0),
])
def test_gaussian_tv_rejects_bad_laws(law):
    with pytest.raises(NumericError, match="Gaussian TV needs finite laws"):
        _gaussian_tv(*law)


def test_gaussian_tv_rejects_overflowing_laws():
    # finite laws whose crossing points overflow
    with pytest.raises(NumericError, match="Gaussian TV overflows"):
        _gaussian_tv(0.0, 1.0, 1e155, 1.5)


def gauss_tv_bench_config(tmp_path, seed=5):
    """The benchmark's ``gauss_tv`` job config: the shipped TV config with the
    target drawn from ``default_rng([seed, 1])`` and four stages."""
    rng = np.random.default_rng([seed, 1])
    cfg = json.loads((CONFIG_DIR / "gaussian_tv.json").read_text())
    cfg["target"]["components"] = [[rng.uniform(1.0, 3.0), rng.uniform(0.3, 0.8), 1.0]]
    cfg["sampling"]["taus"] = [4.0, 2.0, 1.0, 0.5]
    path = tmp_path / "gauss_tv.json"
    path.write_text(json.dumps(cfg))
    return path


def smoothed_stage_laws(path):
    """The CLI's TV cells of a config, and each stage's smoothed output law
    beside the target law."""
    cfg = load_experiment_config(str(path))
    sigma_eps, tvs = cli._analytic_tv_info(cfg, float(cfg.eps_over_delta))
    _, outputs = stage_laws(cfg.schedule, cfg.taus, cfg.estimator)
    target = (float(cfg.target.means[0, 0]), float(cfg.target.variances[0]))
    return tvs, [((float(m), float(v) + sigma_eps * sigma_eps), target)
                 for (m,), (v,), _ in outputs]


@pytest.mark.parametrize("config, stages", [("gaussian_tv.json", 2), (None, 4)],
                         ids=["gaussian_tv.json", "gauss_tv-bench-seed5"])
def test_cli_tv_cells_match_mpmath(tmp_path, config, stages):
    path = CONFIG_DIR / config if config else gauss_tv_bench_config(tmp_path)
    tvs, laws = smoothed_stage_laws(path)
    assert len(tvs) == stages
    for tv, (law, target) in zip(tvs, laws):
        assert abs(tv - float(mp_gaussian_tv(*law, *target))) <= 1e-15


def test_tv_grid_accuracy_on_bench_stages(tmp_path):
    # How accurate the library's grid route is at 20001 points over +-12 sd:
    # off by up to 2.2e-9 here, because |p_1 - p_2| has kinks at the crossings.
    _, laws = smoothed_stage_laws(gauss_tv_bench_config(tmp_path))
    for law, target in laws:
        lo = min(m - 12 * math.sqrt(v) for m, v in (law, target))
        hi = max(m + 12 * math.sqrt(v) for m, v in (law, target))
        pdfs = (gauss_pdf(m, math.sqrt(v)) for m, v in (law, target))
        assert abs(tv_grid(*pdfs, lo, hi, 20001).value - _gaussian_tv(*law, *target)) <= 5e-9
