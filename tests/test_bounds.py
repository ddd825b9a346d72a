"""Bound evaluators against independently computed high-precision values.

Every frozen literal below was produced by a 50-digit-arithmetic evaluation
of the bound formulas (documented in the module docstrings), not by running
this code — the tests pin the implementation to those values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import (
    BoundInputs,
    DiscreteTarget,
    MarginalView,
    NumericError,
    SamplingTimeSchedule,
    TrainingPartition,
    consistency_loss,
    evaluation_error,
    kl_bound,
    make_ou,
    make_ve,
    quantile_map,
    quantile_perturbed,
    sde_contraction_bound,
    sigma_eps_optimal,
    tv_bound,
    two_step_ou_leading_terms,
    w2_bound_general,
    w2_bound_modified,
    w2_bound_tail,
)

OU = make_ou()
TAU1 = 3.0 * math.log(100.0)
TAU2 = 2.0 * math.log(100.0)


def two_step_inputs(**kw):
    return BoundInputs(OU, SamplingTimeSchedule((TAU1, TAU2)), 1.0, **kw)


# ---------------------------------------------------------------------------
# W2 bounds


def test_general_bound_two_step_value():
    got = w2_bound_general(two_step_inputs(radius=100.0))
    assert got.total == pytest.approx(14.47373367935733, rel=1e-13)
    assert got.term_i == pytest.approx(2.5e-09, rel=1e-10)
    assert got.term_ii == pytest.approx(4.771708347147634e-07, rel=1e-13)
    assert got.term_iii == pytest.approx(9.2103403719761827, rel=1e-15)


def test_modified_bound_two_step_value():
    got = w2_bound_modified(
        two_step_inputs(diameter=100.0, second_moment=5000.0)
    )
    assert got.total == pytest.approx(11.842037025666756, rel=1e-13)


def test_one_step_bound_value():
    inputs = BoundInputs(
        OU, SamplingTimeSchedule((math.log(1e6),)), 1.0, radius=100.0
    )
    got = w2_bound_general(inputs)
    assert got.total == pytest.approx(15.229724120337723, rel=1e-13)
    assert got.term_i == pytest.approx(2.5e-09, rel=1e-10)
    assert got.term_ii == 0.0
    assert got.term_iii == pytest.approx(13.815510557964274, rel=1e-15)


def test_initialization_chunk_matches_leading_order():
    # With tau_2 = 2 log R the quartic-root chunk of the two-step bound is
    # sqrt(2 tau_1) * r to leading order; at R = 100 the ratio is ~1.0013.
    got = w2_bound_general(two_step_inputs(radius=100.0))
    ratio = (got.total - got.term_iii) / math.sqrt(2.0 * TAU1)
    assert ratio == pytest.approx(1.0013072404006296, rel=1e-12)
    assert 1.0 < ratio < 1.01


def test_initialization_chunk_vanishes_with_tau1():
    # r = 0 isolates the initialization chunk, which decays like
    # R exp(-tau_1/2) under OU.
    chunks = []
    for tau1 in np.linspace(5.0, 40.0, 36):
        inputs = BoundInputs(
            OU, SamplingTimeSchedule((tau1,)), 0.0, radius=100.0
        )
        got = w2_bound_general(inputs)
        chunks.append(got.total - got.term_iii)
    assert all(a > b for a, b in zip(chunks, chunks[1:]))
    assert chunks[-1] == pytest.approx(2.9149114069870423e-06, rel=1e-12)
    assert chunks[-1] < 3e-6


def test_ve_forgets_initialization_at_large_horizon():
    ve = make_ve()
    inputs = BoundInputs(ve, SamplingTimeSchedule((1e6,)), 1.0, radius=100.0)
    got = w2_bound_general(inputs)
    assert (got.total - got.term_iii) / got.total == pytest.approx(
        1.4142115623870762e-06, rel=1e-10
    )
    assert (got.total - got.term_iii) / got.total < 2e-6


@settings(max_examples=200, deadline=None)
@given(
    radius=st.floats(min_value=0.5, max_value=200.0),
    tau1=st.floats(min_value=2.0, max_value=30.0),
    frac=st.floats(min_value=0.1, max_value=0.9),
    r=st.floats(min_value=0.0, max_value=3.0),
)
def test_modified_reduces_to_general(radius, tau1, frac, r):
    # diameter = 2R and M2 = R^2/2 turn the modified bound into the general
    # one exactly: D (a^2 (R^2/2)/(2 s2) + S)^(1/4) = 2R (a^2 R^2/(4 s2) + S)^(1/4).
    taus = SamplingTimeSchedule((tau1, tau1 * frac))
    gen = w2_bound_general(BoundInputs(OU, taus, r, radius=radius))
    mod = w2_bound_modified(
        BoundInputs(
            OU, taus, r, diameter=2.0 * radius, second_moment=radius**2 / 2.0
        )
    )
    assert mod.total == pytest.approx(gen.total, rel=1e-12)


def test_missing_inputs_are_named():
    with pytest.raises(NumericError, match="radius"):
        w2_bound_general(two_step_inputs())
    with pytest.raises(NumericError, match="second_moment"):
        w2_bound_modified(two_step_inputs(diameter=100.0))
    with pytest.raises(NumericError, match="sigma_eps"):
        tv_bound(two_step_inputs(second_moment=1.0, smoothness=1.0))
    with pytest.raises(NumericError, match="tail_c"):
        w2_bound_tail(two_step_inputs(radius=100.0, tail_big_c=1.0))
    with pytest.raises(NumericError, match="second_moment"):
        kl_bound(two_step_inputs(), 1)


def test_input_validation():
    taus = SamplingTimeSchedule((2.0,))
    with pytest.raises(ValueError):
        BoundInputs(OU, taus, -1.0)
    with pytest.raises(ValueError):
        BoundInputs(OU, taus, 1.0, radius=-5.0)
    with pytest.raises(ValueError):
        BoundInputs(OU, taus, 1.0, d=0)


# ---------------------------------------------------------------------------
# TV bound


def test_tv_bound_value():
    inputs = BoundInputs(
        OU,
        SamplingTimeSchedule((10.0,)),
        0.01,
        second_moment=1.0,
        d=1,
        smoothness=1.0,
        sigma_eps=0.05,
    )
    got = tv_bound(inputs)
    assert got.kl_term == pytest.approx(2.2699964904636483e-05, rel=1e-13)
    assert got.cm_term == 1.0
    assert got.smoothing_term == pytest.approx(0.1, rel=1e-15)
    assert got.total == pytest.approx(1.1000226999649046, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    tau=st.floats(min_value=0.5, max_value=20.0),
    r=st.floats(min_value=1e-4, max_value=2.0),
    d=st.integers(min_value=1, max_value=4),
    smooth=st.floats(min_value=0.1, max_value=10.0),
)
def test_optimal_smoothing_balances_terms(tau, r, d, smooth):
    def bound(sigma_eps):
        return tv_bound(
            BoundInputs(
                OU,
                SamplingTimeSchedule((tau,)),
                r,
                second_moment=1.0,
                d=d,
                smoothness=smooth,
                sigma_eps=sigma_eps,
            )
        )

    sig = sigma_eps_optimal(tau, r, 1.0, d, smooth)
    got = bound(sig)
    want = 2.0 * math.sqrt(tau * d * smooth * r)
    assert got.cm_term + got.smoothing_term == pytest.approx(want, rel=1e-9)
    assert got.cm_term == pytest.approx(got.smoothing_term, rel=1e-9)
    # and the optimum minimises the whole bound
    for scale in (0.25, 0.5, 2.0, 4.0):
        assert bound(scale * sig).total >= got.total


# ---------------------------------------------------------------------------
# tail variant


def test_tail_bound():
    inputs = BoundInputs(
        OU,
        SamplingTimeSchedule((math.log(1e6),)),
        1.0,
        radius=20.0,
        tail_c=1.0,
        tail_big_c=1.0,
    )
    got = w2_bound_tail(inputs)
    assert got.tail_term == pytest.approx(0.00090799859524969703, rel=1e-13)
    base = w2_bound_general(inputs)
    assert got.total == pytest.approx(base.total + got.tail_term, rel=1e-15)
    # coefficient 0 recovers the general bound exactly
    zero = w2_bound_tail(
        BoundInputs(
            OU,
            SamplingTimeSchedule((math.log(1e6),)),
            1.0,
            radius=20.0,
            tail_c=1.0,
            tail_big_c=1.0,
            tail_coeff=0.0,
        )
    )
    assert zero.total == base.total


def test_tail_bound_needs_radius_at_least_c():
    inputs = BoundInputs(
        OU,
        SamplingTimeSchedule((2.0,)),
        1.0,
        radius=1.0,
        tail_c=1.0,
        tail_big_c=5.0,
    )
    with pytest.raises(NumericError, match="radius"):
        w2_bound_tail(inputs)


# ---------------------------------------------------------------------------
# KL bound / contraction


def test_kl_bound_values():
    inputs = BoundInputs(
        OU, SamplingTimeSchedule((14.0, 9.0)), 1.0, second_moment=5000.0
    )
    assert kl_bound(inputs, 1) == pytest.approx(1.72860002674e-09, rel=1e-11)
    assert kl_bound(inputs, 2) == pytest.approx(1.49426663774e-06, rel=1e-11)
    one = BoundInputs(OU, SamplingTimeSchedule((2.0,)), 1.0, second_moment=5000.0)
    assert kl_bound(one, 1) == pytest.approx(46.64340090943512, rel=1e-13)


def test_kl_bound_monotone_in_stage():
    inputs = BoundInputs(
        OU,
        SamplingTimeSchedule((10.0, 8.0, 6.0, 4.0, 2.0)),
        1.0,
        second_moment=5000.0,
    )
    values = [kl_bound(inputs, i) for i in range(1, 6)]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(NumericError):
        kl_bound(inputs, 0)
    with pytest.raises(NumericError):
        kl_bound(inputs, 6)


def test_sde_contraction_bound():
    assert sde_contraction_bound(OU, 1.0, 1.0) == pytest.approx(
        0.078258821374832826, rel=1e-13
    )
    # linear in the squared distance
    assert sde_contraction_bound(OU, 1.0, 4.0) == pytest.approx(
        0.3130352854993313, rel=1e-13
    )
    with pytest.raises(NumericError):
        sde_contraction_bound(OU, 1.0, -1.0)
    with pytest.raises(NumericError):
        sde_contraction_bound(OU, 0.0, 1.0)


# ---------------------------------------------------------------------------
# two-step leading terms


def test_leading_terms_values():
    got = two_step_ou_leading_terms(100.0, 1.0, 1.0)
    assert got.one_step == pytest.approx(13.815510557964274, rel=1e-14)
    assert got.two_step == pytest.approx(9.2103403719761827, rel=1e-14)
    assert abs(got.ratio - 2.0 / 3.0) < 1e-12


def test_leading_terms_ratio_decreases_toward_half():
    ratios = [
        two_step_ou_leading_terms(100.0, 10.0**-k, 1.0).ratio for k in range(9)
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(0.5 < r <= 2.0 / 3.0 + 1e-12 for r in ratios)


def test_leading_terms_invalid_regimes():
    with pytest.raises(NumericError):
        two_step_ou_leading_terms(-1.0, 1.0, 1.0)
    with pytest.raises(NumericError):
        two_step_ou_leading_terms(100.0, 200.0, 1.0)
    with pytest.raises(NumericError):
        two_step_ou_leading_terms(0.5, 0.3, 1.0)  # tau_2 <= 0 with R < 1


# ---------------------------------------------------------------------------
# loss accumulation across a partition (the inequality the per-step loss
# definition exists to support)


def test_sqrt_loss_accumulation():
    """sqrt(MSE(t_m)) <= sum_{i=0}^{m-1} sqrt(loss_i), and the same chain
    anchored at t_1, sqrt(MSE(t_m)) <= sqrt(MSE(t_1)) + sum_{i>=1}
    sqrt(loss_i).

    Evaluation error at a late partition point is controlled by the
    accumulated per-step self-consistency losses (triangle inequality in L2
    along the exact flow).  The step-0 loss is not zero: ``fhat(., 0)`` is
    the identity, so it is the evaluation error at t_1, and both chains
    have the same expectation.  Checked for the two-step chain (m = 2) and
    the three-step chain (m = 3).

    (kappa is scaled up to 1e-2 so the Monte Carlo margin is decisive at
    n = 10^4.)
    """
    target = DiscreteTarget([0.0, 100.0], [0.5, 0.5])
    fhat = quantile_perturbed(target, OU, kappa=1e-2)
    f = quantile_map(target, OU)
    part = TrainingPartition(1.0, 3)
    seeds = np.random.SeedSequence(0xACC).spawn(6)
    n = 10_000

    def mse(t, seed):
        return evaluation_error(fhat, f, MarginalView(target, OU, t), n, seed)

    loss1 = consistency_loss(fhat, target, OU, part, i=1, n=n, seed=seeds[0])
    mse1 = mse(1.0, seeds[1])
    mse2 = mse(2.0, seeds[2])
    loss2 = consistency_loss(fhat, target, OU, part, i=2, n=n, seed=seeds[3])
    mse3 = mse(3.0, seeds[4])
    loss0 = consistency_loss(fhat, target, OU, part, i=0, n=n, seed=seeds[5])

    def half_se(est):
        # first-order error propagation through the square root
        return est.stderr / (2.0 * math.sqrt(est.value))

    for lhs_est, rhs_ests in ((mse2, (mse1, loss1)), (mse3, (mse1, loss1, loss2)),
                              (mse2, (loss0, loss1)), (mse3, (loss0, loss1, loss2))):
        lhs = math.sqrt(lhs_est.value)
        rhs = sum(math.sqrt(est.value) for est in rhs_ests)
        # conservative: the standard errors add rather than in quadrature
        se = half_se(lhs_est) + sum(half_se(est) for est in rhs_ests)
        assert lhs <= rhs + 3.0 * se
        assert rhs - lhs > 5.0  # decisively slack at this kappa, not a squeaker
