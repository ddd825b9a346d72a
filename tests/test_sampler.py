import math
import os

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import (
    ConsistencyFn,
    DiscreteTarget,
    GaussianMixtureTarget,
    NumericError,
    SamplingTimeSchedule,
    affine_stage_laws,
    design_halving_ve,
    design_two_step_ou,
    design_uniform,
    exact_single_gaussian,
    exact_two_point,
    gaussian_affine_map,
    make_ou,
    make_ve,
    marginal_cdf_1d,
    multistep_sample,
    pf_ode_consistency,
    quantile_perturbed,
    sigma_eps_optimal,
    smooth_output,
    threshold_stage_laws,
)
from cmlab import sampler
from cmlab._rng import N_CHUNKS, chunk_rngs, chunk_sizes

OU = make_ou()
TWO_ATOM = DiscreteTarget([0.0, 100.0], [0.5, 0.5])


def test_schedule_validation():
    with pytest.raises(ValueError):
        SamplingTimeSchedule(())
    with pytest.raises(ValueError):
        SamplingTimeSchedule((3.0, 0.0))
    with pytest.raises(ValueError):
        SamplingTimeSchedule((2.0, 2.0))
    with pytest.raises(ValueError):
        SamplingTimeSchedule((1.0, 2.0))


@pytest.mark.parametrize("taus", [(math.nan,), (math.inf, 1.0), (2.0, math.nan)])
def test_schedule_rejects_non_finite_times(taus):
    with pytest.raises(ValueError, match="finite"):
        SamplingTimeSchedule(taus)


def test_truncated():
    taus = SamplingTimeSchedule((10.0, 4.0, 1.0))
    assert taus.truncated(2).taus == (10.0, 4.0)
    assert taus.truncated(3).taus == taus.taus
    with pytest.raises(NumericError):
        taus.truncated(0)
    with pytest.raises(NumericError):
        taus.truncated(4)


def _recording(fhat):
    """``fhat`` wrapped so that each call keeps a copy of its input: the
    noisy points of every stage, stacked as ``(N, n, d)`` by ``noisy()``."""
    seen = []

    def fn(pts, t):
        seen.append(pts.copy())
        return fhat(pts, t)

    return ConsistencyFn(fn), lambda: np.stack(seen)


def test_single_step_proportions():
    f = exact_two_point(TWO_ATOM, OU)
    rec = multistep_sample(f, OU, SamplingTimeSchedule((10.0,)), 100_000, seed=0)
    out = rec.output[:, 0]
    p = float((out == 0.0).mean())
    # initial noise is symmetric about the boundary, so p = 1/2
    assert abs(p - 0.5) < 4.0 * math.sqrt(0.25 / 100_000)
    assert set(np.unique(out)) == {0.0, 100.0}


def test_trajectory_record_shapes_and_determinism():
    f = exact_two_point(TWO_ATOM, OU)
    taus = SamplingTimeSchedule((14.0, 9.0))
    (fa, noisy_a), (fb, noisy_b), (fc, noisy_c) = (_recording(f) for _ in range(3))
    a = multistep_sample(fa, OU, taus, 3000, seed=42)
    b = multistep_sample(fb, OU, taus, 3000, seed=42)
    assert noisy_a().shape == a.denoised.shape == (2, 3000, 1)
    np.testing.assert_array_equal(noisy_a(), noisy_b())
    np.testing.assert_array_equal(a.denoised, b.denoised)
    np.testing.assert_array_equal(a.output, a.denoised[-1])
    multistep_sample(fc, OU, taus, 3000, seed=43)
    assert not np.array_equal(noisy_a(), noisy_c())
    with pytest.raises(NumericError):
        multistep_sample(f, OU, taus, 0, seed=0)


def test_multidimensional_sampling():
    f, noisy = _recording(ConsistencyFn(lambda pts, t: 0.0 * pts))
    rec = multistep_sample(f, OU, SamplingTimeSchedule((5.0, 1.0)), 500, 0, dim=3)
    assert noisy().shape == (2, 500, 3)
    np.testing.assert_array_equal(rec.output, np.zeros((500, 3)))
    # stage-2 noisy law is then N(0, sigma2(1) I)
    s2 = float(noisy()[1].var())
    assert s2 == pytest.approx(-math.expm1(-2.0), rel=0.15)


def test_renoising_is_gaussian():
    # Stage-2 residuals (x_2 - alpha_2 x0_1) / sigma_2 are exactly iid
    # standard normal; Anderson-Darling at the 1% level.
    f, noisy = _recording(exact_two_point(TWO_ATOM, OU))
    taus = SamplingTimeSchedule((14.0, 9.0))
    rec = multistep_sample(f, OU, taus, 2000, seed=0)
    a2 = math.exp(-9.0)
    s2 = math.sqrt(-math.expm1(-18.0))
    z = (noisy()[1] - a2 * rec.denoised[0])[:, 0] / s2
    res = scipy.stats.anderson(z, dist="norm", method="interpolate")
    assert res.pvalue > 0.01


def _chunk_major_reference(fhat, schedule, taus, n, seed, dim=1):
    """The sampler run chunk by chunk: each chunk takes all its stages with
    its own generator and its own oracle calls, then the chunks are joined."""
    ts = taus.taus
    noisy, denoised = [], []
    for rng, m in zip(chunk_rngs(seed), chunk_sizes(n)):
        nz = np.empty((len(ts), m, dim))
        dn = np.empty((len(ts), m, dim))
        x = math.sqrt(float(schedule.sigma2(ts[0]))) * rng.standard_normal((m, dim))
        for i, t in enumerate(ts):
            if i > 0:
                x = (float(schedule.alpha(t)) * x0
                     + math.sqrt(float(schedule.sigma2(t))) * rng.standard_normal((m, dim)))
            nz[i] = x
            x0 = fhat(x, t)
            dn[i] = x0
        noisy.append(nz)
        denoised.append(dn)
    return np.concatenate(noisy, axis=1), np.concatenate(denoised, axis=1)


_GMM3 = GaussianMixtureTarget([[-4.0], [0.0], [3.0]], [0.5, 1.0, 0.25], [0.3, 0.5, 0.2])
_GAUSS = GaussianMixtureTarget([[2.0]], [0.5], [1.0])
_ORACLES = {
    "threshold": (lambda: exact_two_point(TWO_ATOM, OU), OU, (14.0, 9.0, 3.0)),
    "quantile_perturbed": (lambda: quantile_perturbed(TWO_ATOM, OU), OU, (14.0, 7.0, 4.0, 1.0)),
    "affine": (lambda: exact_single_gaussian(_GAUSS, OU), OU, (4.0, 2.0, 1.0, 0.5)),
    "pf_ode": (lambda: pf_ode_consistency(_GMM3, make_ve(), step=0.05),
               make_ve(), (2.0, 0.5)),
}


@pytest.mark.parametrize("n", [5, 1000, 4097])
@pytest.mark.parametrize("oracle", sorted(_ORACLES))
def test_batched_stages_match_chunk_major_reference(oracle, n):
    # n = 5 leaves 11 of the 16 chunks empty; 4097 leaves one chunk larger.
    make, schedule, times = _ORACLES[oracle]
    taus = SamplingTimeSchedule(times)
    f, rec_noisy = _recording(make())
    rec = multistep_sample(f, schedule, taus, n, seed=11)
    noisy, denoised = _chunk_major_reference(make(), schedule, taus, n, seed=11)
    np.testing.assert_array_equal(rec_noisy(), noisy)
    np.testing.assert_array_equal(rec.denoised, denoised)


def _pretend_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
@pytest.mark.parametrize("n", [5, 1000])
@pytest.mark.parametrize("oracle", ["threshold", "affine", "pf_ode"])
def test_worker_count_does_not_change_record(monkeypatch, oracle, n, cpus):
    # n = 5 is below the chunk count, so some lanes draw only empty chunks.
    _pretend_cpus(monkeypatch, cpus)
    assert sampler._lane_count() == cpus
    make, schedule, times = _ORACLES[oracle]
    taus = SamplingTimeSchedule(times)
    rec = multistep_sample(make(), schedule, taus, n, seed=7)
    _, denoised = _chunk_major_reference(make(), schedule, taus, n, seed=7)
    np.testing.assert_array_equal(rec.denoised, denoised)


def test_lane_count_is_capped_at_chunk_count(monkeypatch):
    _pretend_cpus(monkeypatch, 4 * N_CHUNKS)
    assert sampler._lane_count() == N_CHUNKS


def test_one_oracle_call_per_stage():
    calls = []

    def fn(pts, t):
        calls.append((t, pts.shape))
        return 0.5 * pts

    taus = SamplingTimeSchedule((6.0, 3.0, 1.0))
    f, rec_noisy = _recording(ConsistencyFn(fn))
    rec = multistep_sample(f, OU, taus, 1001, seed=4, dim=2)
    assert calls == [(t, (1001, 2)) for t in taus.taus]
    noisy, denoised = _chunk_major_reference(ConsistencyFn(fn), OU, taus, 1001, seed=4, dim=2)
    np.testing.assert_array_equal(rec_noisy(), noisy)
    np.testing.assert_array_equal(rec.denoised, denoised)


# ---------------------------------------------------------------------------
# schedule designers


def test_two_step_designs():
    assert design_two_step_ou(100.0, 1.0, 1.0).taus == (14.0, 9.0)
    assert design_two_step_ou(100.0, 0.1, 1.0).taus == (18.0, 12.0)


def test_two_step_invalid_regimes():
    with pytest.raises(NumericError):
        design_two_step_ou(-1.0, 1.0, 1.0)
    with pytest.raises(NumericError):
        design_two_step_ou(100.0, 200.0, 1.0)  # eps/delta >= radius
    with pytest.raises(NumericError):
        design_two_step_ou(0.5, 0.3, 1.0)  # tau_2 <= 0
    with pytest.raises(NumericError):
        design_two_step_ou(1.5, 1.0, 1.0)  # rounding collision
    with pytest.raises(NumericError):
        design_two_step_ou(0.5, 0.1678, 1.0)  # tau_2 rounds to zero


def test_halving_designs():
    assert design_halving_ve(8.0, 1.0).taus == (8.0, 4.0, 2.0, 1.0)
    assert design_halving_ve(5.0, 1.0).taus == (5.0, 3.0, 1.0)
    assert design_halving_ve(1.0, 1.0).taus == (1.0,)
    with pytest.raises(NumericError):
        design_halving_ve(0.5, 1.0)


def test_uniform_designs():
    assert design_uniform(10.0, 5, 1.0).taus == (10.0, 8.0, 6.0, 4.0, 2.0)
    assert design_uniform(3.0, 1, 1.0).taus == (3.0,)
    with pytest.raises(NumericError):
        design_uniform(2.0, 5, 1.0)  # horizon too short
    with pytest.raises(NumericError):
        design_uniform(10.0, 0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    horizon=st.floats(min_value=1.0, max_value=500.0),
    n_steps=st.integers(min_value=1, max_value=12),
    delta=st.floats(min_value=0.05, max_value=2.0),
)
def test_designers_stay_on_grid(horizon, n_steps, delta):
    try:
        taus = design_uniform(horizon, n_steps, delta).taus
    except NumericError:
        return
    assert all(a > b for a, b in zip(taus, taus[1:]))
    for t in taus:
        k = t / delta
        assert abs(k - round(k)) < 1e-9 and round(k) >= 1


@settings(max_examples=150, deadline=None)
@given(
    horizon=st.floats(min_value=0.5, max_value=100.0),
    delta=st.floats(min_value=0.05, max_value=2.0),
)
def test_halving_stays_on_grid(horizon, delta):
    try:
        taus = design_halving_ve(horizon, delta).taus
    except NumericError:
        return
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert taus[-1] == pytest.approx(delta, rel=1e-12)
    for t in taus:
        k = t / delta
        assert abs(k - round(k)) < 1e-9 and round(k) >= 1


# ---------------------------------------------------------------------------
# smoothing


def test_smooth_output():
    x = np.zeros((20_000, 1))
    y = smooth_output(x, 0.5, seed=1)
    assert y.shape == x.shape
    np.testing.assert_array_equal(y, smooth_output(x, 0.5, seed=1))
    assert float(y.var()) == pytest.approx(0.25, rel=0.1)
    with pytest.raises(NumericError):
        smooth_output(x, 0.0, seed=1)


def test_sigma_eps_optimal():
    assert sigma_eps_optimal(2.0, 0.01, 1.0, 1, 1.0) == pytest.approx(
        0.07071067811865475, rel=1e-15
    )
    # doubling d or L halves the variance
    assert sigma_eps_optimal(2.0, 0.01, 1.0, 4, 1.0) == pytest.approx(
        0.07071067811865475 / 2.0, rel=1e-12
    )
    with pytest.raises(NumericError):
        sigma_eps_optimal(0.0, 0.01, 1.0, 1, 1.0)
    with pytest.raises(NumericError):
        sigma_eps_optimal(2.0, 0.01, 1.0, 1, -1.0)


# ---------------------------------------------------------------------------
# analytic stage laws


def test_threshold_stage_laws_match_sampler():
    f = exact_two_point(TWO_ATOM, OU)
    taus = SamplingTimeSchedule((14.0, 9.0))
    views = threshold_stage_laws(TWO_ATOM, OU, taus, f.boundary)
    weights = [
        float(marginal_cdf_1d(view, f.boundary(t))) for view, t in zip(views, taus.taus)
    ]
    assert len(views) == 2 and len(weights) == 2

    # stage 1 is pure noise
    means, variances, w = views[0].mixture_params()
    assert means.shape == (1, 1) and float(means[0, 0]) == 0.0
    assert float(variances[0]) == pytest.approx(-math.expm1(-28.0), rel=1e-12)

    n = 100_000
    rec = multistep_sample(f, OU, taus, n, seed=6)
    se = math.sqrt(0.25 / n)
    for stage in range(2):
        p_emp = float((rec.denoised[stage][:, 0] == 0.0).mean())
        assert abs(p_emp - weights[stage]) < 4.0 * se


def test_threshold_stage_laws_need_two_atoms():
    taus = SamplingTimeSchedule((5.0,))
    with pytest.raises(NumericError):
        threshold_stage_laws(
            DiscreteTarget([0.0, 1.0, 2.0], [1 / 3] * 3), OU, taus, lambda t: 0.0
        )


def test_affine_stage_laws_exact_recursion():
    # For the OU-stationary target N(0, 1) the oracle is the identity, so
    # the stage variances follow sigma2 composition exactly.
    target = GaussianMixtureTarget([[0.0]], [1.0], [1.0])
    taus = SamplingTimeSchedule((10.0, 2.0))
    stages, out = affine_stage_laws(
        OU, taus, lambda t: gaussian_affine_map(target, OU, t)
    )
    assert stages[0][0] == 0.0
    assert stages[0][1] == pytest.approx(-math.expm1(-20.0), rel=1e-12)
    assert stages[1][1] == pytest.approx(-math.expm1(-24.0), rel=1e-12)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-math.expm1(-24.0), rel=1e-12)

    rec = multistep_sample(exact_single_gaussian(target, OU), OU, taus, 50_000, 2)
    v_emp = float(rec.output.var())
    assert abs(v_emp - out[1]) < 4.0 * out[1] * math.sqrt(2.0 / 50_000)
