import math
import os
import threading

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
    design_halving_ve,
    design_two_step_ou,
    design_uniform,
    make_ou,
    make_ve,
    multistep_sample,
    pf_ode_consistency,
    quantile_map,
    quantile_perturbed,
    sigma_eps_optimal,
    stage_laws,
)
from cmlab import sampler
from cmlab._rng import N_CHUNKS, chunk_rngs, chunk_sizes
from cmlab.consistency_oracle import _threshold_oracle

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
    noisy points of every stage, stacked as ``(N, n)`` by ``noisy()``."""
    seen = []

    def fn(pts, t):
        seen.append(pts.copy())
        return fhat(pts, t)

    return ConsistencyFn(fn), lambda: np.stack(seen)


def test_single_step_proportions():
    f = quantile_map(TWO_ATOM, OU)
    x0 = multistep_sample(f, OU, SamplingTimeSchedule((10.0,)), 100_000, seed=0)
    out = x0[-1]
    p = float((out == 0.0).mean())
    # initial noise is symmetric about the boundary, so p = 1/2
    assert abs(p - 0.5) < 4.0 * math.sqrt(0.25 / 100_000)
    assert set(np.unique(out)) == {0.0, 100.0}


def test_trajectory_record_shapes_and_determinism():
    f = quantile_map(TWO_ATOM, OU)
    taus = SamplingTimeSchedule((14.0, 9.0))
    (fa, noisy_a), (fb, noisy_b), (fc, noisy_c) = (_recording(f) for _ in range(3))
    a = multistep_sample(fa, OU, taus, 3000, seed=42)
    b = multistep_sample(fb, OU, taus, 3000, seed=42)
    assert noisy_a().shape == a.shape == (2, 3000)
    np.testing.assert_array_equal(noisy_a(), noisy_b())
    np.testing.assert_array_equal(a, b)
    multistep_sample(fc, OU, taus, 3000, seed=43)
    assert not np.array_equal(noisy_a(), noisy_c())
    with pytest.raises(NumericError):
        multistep_sample(f, OU, taus, 0, seed=0)


def test_renoising_is_gaussian():
    # Stage-2 residuals (x_2 - alpha_2 x0_1) / sigma_2 are exactly iid
    # standard normal; Anderson-Darling at the 1% level.
    f, noisy = _recording(quantile_map(TWO_ATOM, OU))
    taus = SamplingTimeSchedule((14.0, 9.0))
    x0 = multistep_sample(f, OU, taus, 2000, seed=0)
    a2 = math.exp(-9.0)
    s2 = math.sqrt(-math.expm1(-18.0))
    z = (noisy()[1] - a2 * x0[0]) / s2
    res = scipy.stats.anderson(z, dist="norm", method="interpolate")
    assert res.pvalue > 0.01


def _chunk_major_reference(fhat, schedule, taus, n, seed):
    """The sampler run chunk by chunk: each chunk takes all its stages with
    its own generator and its own oracle calls, then the chunks are joined."""
    ts = taus.taus
    noisy, denoised = [], []
    for rng, m in zip(chunk_rngs(seed), chunk_sizes(n)):
        nz = np.empty((len(ts), m))
        dn = np.empty((len(ts), m))
        x = math.sqrt(float(schedule.sigma2(ts[0]))) * rng.standard_normal(m)
        for i, t in enumerate(ts):
            if i > 0:
                x = (float(schedule.alpha(t)) * x0
                     + math.sqrt(float(schedule.sigma2(t))) * rng.standard_normal(m))
            nz[i] = x
            x0 = fhat(x, t)
            dn[i] = x0
        noisy.append(nz)
        denoised.append(dn)
    return np.concatenate(noisy, axis=1), np.concatenate(denoised, axis=1)


_GMM3 = GaussianMixtureTarget([[-4.0], [0.0], [3.0]], [0.5, 1.0, 0.25], [0.3, 0.5, 0.2])
_GAUSS = GaussianMixtureTarget([[2.0]], [0.5], [1.0])
_ORACLES = {
    "threshold": (lambda: quantile_map(TWO_ATOM, OU), OU, (14.0, 9.0, 3.0)),
    "quantile_perturbed": (lambda: quantile_perturbed(TWO_ATOM, OU), OU, (14.0, 7.0, 4.0, 1.0)),
    "affine": (lambda: quantile_map(_GAUSS, OU), OU, (4.0, 2.0, 1.0, 0.5)),
    "pf_ode": (lambda: pf_ode_consistency(_GMM3, make_ve(), step=0.05),
               make_ve(), (2.0, 0.5)),
    # returns the sampler's own noisy slab, which the next stage redraws
    "identity": (lambda: ConsistencyFn(lambda x, t: x), OU, (6.0, 3.0, 1.0)),
}


@pytest.mark.parametrize("n", [5, 1000, 4097])
@pytest.mark.parametrize("oracle", sorted(_ORACLES))
def test_batched_stages_match_chunk_major_reference(oracle, n):
    # n = 5 leaves 11 of the 16 chunks empty; 4097 leaves one chunk larger.
    # The per-stage path must give the array path's bits, stage by stage.
    make, schedule, times = _ORACLES[oracle]
    taus = SamplingTimeSchedule(times)
    f, rec_noisy = _recording(make())
    x0 = multistep_sample(f, schedule, taus, n, seed=11)
    g, rec_noisy_streamed = _recording(make())
    streamed = multistep_sample(g, schedule, taus, n, seed=11, per_stage=lambda x: x)
    noisy, denoised = _chunk_major_reference(make(), schedule, taus, n, seed=11)
    np.testing.assert_array_equal(rec_noisy(), noisy)
    np.testing.assert_array_equal(rec_noisy_streamed(), noisy)
    np.testing.assert_array_equal(x0, denoised)
    np.testing.assert_array_equal(np.stack(streamed), denoised)


@pytest.mark.parametrize("per_stage", [None, lambda x: x])
def test_wrong_shaped_oracle_output_raises(per_stage):
    # a (1, 1) output would broadcast to every point of the stage array;
    # stage 1 runs at t = 2
    f = ConsistencyFn(lambda x, t: np.zeros((1, 1)) + t)
    taus = SamplingTimeSchedule((2.0, 1.0))
    with pytest.raises(NumericError, match=r"\(1, 1\) for 5 points at t = 2\.0"):
        multistep_sample(f, OU, taus, 5, seed=0, per_stage=per_stage)


def _pretend_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
@pytest.mark.parametrize("n", [5, 1000])
@pytest.mark.parametrize("oracle", ["threshold", "affine", "pf_ode", "identity"])
def test_worker_count_does_not_change_record(monkeypatch, oracle, n, cpus):
    # n = 5 is below the chunk count, so some lanes find the queue empty.
    # With per_stage, which runs while the next stage's noise is drawn, both
    # the copy it takes at call time and the array it was handed, read after
    # the run, must be the stage's output.
    _pretend_cpus(monkeypatch, cpus)
    assert sampler._lane_count() == cpus
    make, schedule, times = _ORACLES[oracle]
    taus = SamplingTimeSchedule(times)
    x0 = multistep_sample(make(), schedule, taus, n, seed=7)
    handed = multistep_sample(make(), schedule, taus, n, seed=7,
                              per_stage=lambda x: (x, x.copy()))
    _, denoised = _chunk_major_reference(make(), schedule, taus, n, seed=7)
    np.testing.assert_array_equal(x0, denoised)
    assert len(handed) == len(times)
    np.testing.assert_array_equal(np.stack([seen for _, seen in handed]), denoised)
    np.testing.assert_array_equal(np.stack([x for x, _ in handed]), denoised)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("failing", ["per_stage", "fhat"])
def test_stage_error_propagates_and_joins_the_lanes(monkeypatch, failing, cpus):
    # A failure at stage 2 of 3 ends the run with that error, after the
    # lanes already drawing stage 3 (when per_stage fails) have finished.
    _pretend_cpus(monkeypatch, cpus)
    taus = SamplingTimeSchedule((6.0, 3.0, 1.0))
    fhat_calls, stage_calls = [], []

    def fn(x, t):
        fhat_calls.append(t)
        if failing == "fhat" and len(fhat_calls) == 2:
            raise RuntimeError("fhat failed")
        return 0.5 * x

    def per_stage(x0):
        stage_calls.append(x0.size)
        if failing == "per_stage" and len(stage_calls) == 2:
            raise RuntimeError("per_stage failed")
        return float(x0.mean())

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        multistep_sample(ConsistencyFn(fn), OU, taus, 5000, seed=1, per_stage=per_stage)
    assert threading.active_count() == before
    assert fhat_calls == [6.0, 3.0]
    assert stage_calls == ([5000, 5000] if failing == "per_stage" else [5000])


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
    x0 = multistep_sample(f, OU, taus, 1001, seed=4)
    assert calls == [(t, (1001,)) for t in taus.taus]
    noisy, denoised = _chunk_major_reference(ConsistencyFn(fn), OU, taus, 1001, seed=4)
    np.testing.assert_array_equal(rec_noisy(), noisy)
    np.testing.assert_array_equal(x0, denoised)


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
    f = quantile_map(TWO_ATOM, OU)
    taus = SamplingTimeSchedule((14.0, 9.0))
    views, outputs = stage_laws(OU, taus, f)
    weights = [float(w[0]) for _, _, w in outputs]
    assert len(views) == 2 and len(weights) == 2

    # stage 1 is pure noise
    means, variances, w = views[0]
    assert means.shape == (1,) and float(means[0]) == 0.0
    assert float(variances[0]) == pytest.approx(-math.expm1(-28.0), rel=1e-12)

    n = 100_000
    x0 = multistep_sample(f, OU, taus, n, seed=6)
    se = math.sqrt(0.25 / n)
    for stage in range(2):
        p_emp = float((x0[stage] == 0.0).mean())
        assert abs(p_emp - weights[stage]) < 4.0 * se


def test_threshold_stage_laws_need_two_atoms():
    taus = SamplingTimeSchedule((5.0,))
    with pytest.raises(NumericError):
        stage_laws(
            OU, taus, pf_ode_consistency(DiscreteTarget([0.0, 1.0, 2.0], [1 / 3] * 3), OU)
        )


def test_threshold_law_keeps_a_zero_weight():
    # A boundary far below every noisy law puts all the mass on the upper
    # atom, exactly, and the next stage noises that law as it is.
    f = _threshold_oracle(0.0, 100.0, lambda t: -1e3)
    noisy, outputs = stage_laws(OU, SamplingTimeSchedule((2.0, 1.0)), f)
    for _, _, weights in outputs:
        assert weights.tolist() == [0.0, 1.0]
    assert noisy[1][2].tolist() == [0.0, 1.0]
    assert noisy[1][0].tolist() == [0.0, 100.0 * float(OU.alpha(1.0))]


def test_affine_stage_laws_exact_recursion():
    # For the OU-stationary target N(0, 1) the oracle is the identity, so
    # the stage variances follow sigma2 composition exactly.
    target = GaussianMixtureTarget([[0.0]], [1.0], [1.0])
    taus = SamplingTimeSchedule((10.0, 2.0))
    stages, outputs = _mean_var(*stage_laws(OU, taus, quantile_map(target, OU)))
    out = outputs[-1]
    assert stages[0][0] == 0.0
    assert stages[0][1] == pytest.approx(-math.expm1(-20.0), rel=1e-12)
    assert stages[1][1] == pytest.approx(-math.expm1(-24.0), rel=1e-12)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-math.expm1(-24.0), rel=1e-12)

    x0 = multistep_sample(quantile_map(target, OU), OU, taus, 50_000, 2)
    v_emp = float(x0[-1].var())
    assert abs(v_emp - out[1]) < 4.0 * out[1] * math.sqrt(2.0 / 50_000)


def _mean_var(*lists):
    """Each list of one-component laws as ``(mean, variance)`` floats."""
    return [[(float(m), float(v)) for (m,), (v,), _ in laws] for laws in lists]


def _affine_stage_laws_reference(schedule, taus, affine_of_t):
    """The stage-law recursion stepped denoise-then-renoise: the noisy law
    of every stage and the denoised law of the last stage only."""
    ts = taus.taus
    mean, var = 0.0, float(schedule.sigma2(ts[0]))
    stages = [(mean, var)]
    for t, t_next in zip(ts, ts[1:]):
        slope, intercept = affine_of_t(t)
        mean, var = slope * mean + intercept, slope * slope * var
        a = float(schedule.alpha(t_next))
        s2 = float(schedule.sigma2(t_next))
        mean, var = a * mean, a * a * var + s2
        stages.append((mean, var))
    slope, intercept = affine_of_t(ts[-1])
    return stages, (slope * mean + intercept, slope * slope * var)


def test_affine_stage_outputs_match_truncated_runs():
    # The TV column reads stage i's output law from one pass; it must be
    # bitwise the output law of the schedule cut after stage i.
    target = GaussianMixtureTarget([[2.0]], [0.5], [1.0])
    taus = SamplingTimeSchedule((4.0, 2.0, 1.0, 0.5))
    f = quantile_map(target, OU)

    def affine(t):
        # the closed form of the oracle: slope sqrt(v / V_t), intercept
        # m (1 - alpha_t slope)
        a = float(OU.alpha(t))
        slope = math.sqrt(0.5 / (a * a * 0.5 + float(OU.sigma2(t))))
        return slope, 2.0 * (1.0 - a * slope)

    stages, outputs = _mean_var(*stage_laws(OU, taus, f))
    assert len(stages) == len(outputs) == taus.n_steps
    for i in range(1, taus.n_steps + 1):
        assert outputs[i - 1] == _mean_var(stage_laws(OU, taus.truncated(i), f)[1])[0][-1]
        old_stages, old_out = _affine_stage_laws_reference(OU, taus.truncated(i), affine)
        assert outputs[i - 1] == old_out
        assert stages[:i] == old_stages
