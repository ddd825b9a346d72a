import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import (
    ConsistencyFn,
    DiscreteTarget,
    GaussianMixtureTarget,
    MarginalView,
    NumericError,
    TrainingPartition,
    consistency_loss,
    evaluation_error,
    exact_single_gaussian,
    exact_two_point,
    gaussian_affine_map,
    make_ou,
    make_ve,
    marginal_quantile_1d,
    pf_ode_consistency,
    pf_ode_transport,
    quantile_perturbed,
    target_quantiles_1d,
)
from cmlab._rng import chunk_moments, map_chunks, merge_moments
from cmlab.consistency_oracle import _clamp_norms, _pf_ode_field
from cmlab.target_dist import _sample_mixture

OU = make_ou()
TWO_ATOM = DiscreteTarget([0.0, 100.0], [0.5, 0.5])
GAP2 = 100.0**2


def test_solver_config_validation():
    for step in (0.0, math.inf):
        with pytest.raises(ValueError):
            pf_ode_consistency(TWO_ATOM, OU, step=step)
        with pytest.raises(ValueError):
            pf_ode_transport(TWO_ATOM, OU, np.array([1.0]), 2.0, 1.0, step=step)
    with pytest.raises(ValueError):
        ConsistencyFn(lambda x, t: x, output_radius=-1.0)


# ---------------------------------------------------------------------------
# threshold oracle


def test_exact_two_point_values():
    f = exact_two_point(TWO_ATOM, OU)
    # boundary at t=1 is 50/e ~ 18.39
    assert float(f(np.array([30.0]), 1.0)[0]) == 100.0
    assert float(f(np.array([10.0]), 1.0)[0]) == 0.0
    assert float(f(np.array([77.0]), 0.0)[0]) == 77.0
    assert f.boundary(1.0) == pytest.approx(50.0 * math.exp(-1.0), rel=1e-15)


@pytest.mark.parametrize(
    "make", [exact_two_point, quantile_perturbed], ids=["exact", "perturbed"]
)
@pytest.mark.parametrize("t", [0.5, 9.0])
def test_threshold_gather_matches_where(make, t):
    f = make(TWO_ATOM, OU)
    a = f.boundary(t)
    x = np.array(
        [-math.inf, math.inf, math.nan, a, np.nextafter(a, -math.inf),
         np.nextafter(a, math.inf), -a, 0.0, -0.0, 100.0]
    )[:, None]
    want = np.where(x < a, 0.0, 100.0)
    for got in (f.fn(x, t), f(x, t)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_exact_two_point_requires_two_equal_atoms():
    with pytest.raises(NumericError):
        exact_two_point(DiscreteTarget([0.0, 100.0], [0.3, 0.7]), OU)
    with pytest.raises(NumericError):
        exact_two_point(DiscreteTarget([0.0, 1.0, 2.0], [1 / 3] * 3), OU)
    with pytest.raises(NumericError):
        exact_two_point(GaussianMixtureTarget([[0.0]], [1.0], [1.0]), OU)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_identity_at_time_zero_is_bit_exact(x):
    for f in (
        exact_two_point(TWO_ATOM, OU),
        quantile_perturbed(TWO_ATOM, OU),
        pf_ode_consistency(TWO_ATOM, OU),
        ConsistencyFn(lambda pts, t: pts * 0.0),
    ):
        assert float(f(np.array([x]), 0.0)[0]) == x


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-1e6, max_value=1e6),
    t=st.floats(min_value=0.1, max_value=10.0),
)
def test_output_stays_in_support_radius(x, t):
    f = exact_two_point(TWO_ATOM, OU)
    assert abs(float(f(np.array([x]), t)[0])) <= 100.0


def test_consistency_fn_clamps_output_norm():
    f = ConsistencyFn(lambda pts, t: pts * 100.0, output_radius=5.0)
    out = f(np.array([[3.0, 4.0]]), 1.0)
    assert np.linalg.norm(out[0]) == pytest.approx(5.0, rel=1e-12)
    # identity at t = 0 is applied before the wrapped map and is not clamped
    np.testing.assert_array_equal(f(np.array([[30.0, 40.0]]), 0.0), [[30.0, 40.0]])


def test_one_dim_input_squeezes():
    f = exact_two_point(TWO_ATOM, OU)
    out = f(np.array([10.0, 30.0]), 1.0)
    assert out.shape == (2,)
    np.testing.assert_array_equal(out, [0.0, 100.0])


# ---------------------------------------------------------------------------
# single-Gaussian affine oracle


def test_exact_single_gaussian_is_identity_for_stationary_law():
    f = exact_single_gaussian(GaussianMixtureTarget([[0.0]], [1.0], [1.0]), OU)
    x = np.array([[-1.3], [0.0], [2.2]])
    np.testing.assert_allclose(f(x, 2.0), x, rtol=1e-12)


def test_gaussian_affine_map_values():
    target = GaussianMixtureTarget([[2.0]], [0.25], [1.0])
    slope, intercept = gaussian_affine_map(target, OU, 1.0)
    a = math.exp(-1.0)
    big_v = a * a * 0.25 + (1.0 - math.exp(-2.0))
    assert slope == pytest.approx(math.sqrt(0.25 / big_v), rel=1e-14)
    assert intercept == pytest.approx(2.0 * (1.0 - a * slope), rel=1e-14)
    f = exact_single_gaussian(target, OU)
    x = np.array([[0.7]])
    assert float(f(x, 1.0)[0, 0]) == pytest.approx(slope * 0.7 + intercept, rel=1e-12)


def test_single_gaussian_oracle_rejects_mixtures():
    mix = GaussianMixtureTarget([[0.0], [5.0]], [1.0, 1.0], [0.5, 0.5])
    with pytest.raises(NumericError):
        exact_single_gaussian(mix, OU)
    with pytest.raises(NumericError):
        gaussian_affine_map(mix, OU, 1.0)


# ---------------------------------------------------------------------------
# probability-flow ODE


def test_pf_ode_matches_affine_oracle():
    """RK4 denoising of a Gaussian marginal reproduces the closed-form map.

    For N(0, 0.25) under OU the consistency function is linear with slope
    sqrt(v / V_t); the solver stops at the noise floor lam = 1e-6 and
    returns the posterior mean there (about 2e-8 off at the default step).
    """
    target = GaussianMixtureTarget([[0.0]], [0.25], [1.0])
    f = pf_ode_consistency(target, OU)
    x = np.array([[-2.0], [-0.5], [0.4], [1.0], [3.0]])
    got = f(x, 1.0)
    slope, _ = gaussian_affine_map(target, OU, 1.0)
    assert slope == pytest.approx(0.5274864609725978, rel=1e-12)
    np.testing.assert_allclose(got, slope * x, rtol=1e-3)
    assert float(np.max(np.abs(got - slope * x))) < 1e-3


def test_pf_ode_discrete_agrees_with_threshold():
    f_ode = pf_ode_consistency(TWO_ATOM, OU)
    f_ref = exact_two_point(TWO_ATOM, OU)
    rng = np.random.default_rng(5)
    t = 2.0
    x = rng.normal(
        50.0 * math.exp(-t), 1.0, size=(200, 1)
    ) + rng.choice([-50.0 * math.exp(-t), 50.0 * math.exp(-t)], size=(200, 1))
    np.testing.assert_array_equal(f_ode(x, t), f_ref(x, t))


def test_pf_ode_transport_is_monotone():
    # 1-D probability-flow trajectories cannot cross.
    grid = np.linspace(-10.0, 50.0, 121)
    out = pf_ode_transport(TWO_ATOM, OU, grid, 2.0, 0.5)
    assert np.all(np.diff(out) >= -1e-9)
    gauss = GaussianMixtureTarget([[0.0]], [1.0], [1.0])
    out = pf_ode_transport(gauss, OU, np.linspace(-4, 4, 81), 1.0, 1e-6)
    assert np.all(np.diff(out) >= -1e-9)


def test_pf_ode_forward_from_zero_follows_mean_path():
    out = pf_ode_transport(TWO_ATOM, OU, np.array([0.0, 100.0]), 0.0, 1.0)
    np.testing.assert_allclose(out, [0.0, 100.0 * math.exp(-1.0)], atol=1e-2)


def test_pf_ode_transport_to_zero_keeps_points_on_atoms():
    # t = 0 is reached as the noise floor; the atoms' own noised means come
    # back as the atoms exactly, and so do the atoms sent out and back.
    atoms = np.array([0.0, 100.0])
    for schedule in (OU, make_ve()):
        for t in (0.5, 1.0):
            x = atoms * float(schedule.alpha(t))
            back = pf_ode_transport(TWO_ATOM, schedule, x, t, 0.0)
            np.testing.assert_array_equal(back, atoms)
            there = pf_ode_transport(TWO_ATOM, schedule, atoms, 0.0, t)
            back = pf_ode_transport(TWO_ATOM, schedule, there, t, 0.0)
            np.testing.assert_array_equal(back, atoms)


def test_pf_ode_transport_noop():
    x = np.array([[1.5], [-2.0]])
    np.testing.assert_array_equal(pf_ode_transport(TWO_ATOM, OU, x, 1.0, 1.0), x)


def test_pf_ode_step_cap():
    with pytest.raises(NumericError):
        pf_ode_transport(TWO_ATOM, OU, np.array([1.0]), 2.0, 1.0, step=1e-12)


def _lambdas(schedule, times):
    times = np.asarray(times, dtype=float)
    lam = np.sqrt(schedule.sigma2(times)) / schedule.alpha(times)
    return np.maximum(lam, 1e-6)


def _components(target):
    if isinstance(target, DiscreteTarget):
        return target.locations, np.zeros(target.n_components), target.weights
    return target.means, target.variances, target.weights


def _reference_field(target, lam, y):
    """``-lam * score`` of the target noised to variances ``v_k + lam**2``,
    that is ``(y - D(y, lam)) / lam``, written out in point-major
    ``(n, k, d)`` layout with scipy's softmax for the responsibilities."""
    locs, vs, weights = _components(target)
    variances = vs + lam * lam
    d = locs.shape[1]
    pull = locs[None, :, :] - y[:, None, :]
    logc = (
        np.log(weights)
        - 0.5 * d * np.log(2.0 * np.pi * variances)
        - 0.5 * np.sum(pull * pull, axis=2) / variances
    )
    resp = scipy.special.softmax(logc, axis=1)
    return -lam * np.sum((resp / variances)[:, :, None] * pull, axis=1)


@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
@pytest.mark.parametrize(
    "target, pts",
    [
        (TWO_ATOM, [-3.0, 0.01, 2.0, 18.0, 40.0, 60.0, 99.9, 150.0]),
        (
            GaussianMixtureTarget(
                [[-3.0], [0.5], [4.0]], [0.3, 1.0, 0.5], [0.2, 0.5, 0.3]
            ),
            [-300.0, -40.0, -2.5, 0.0, 1.7, 3.9, 55.0, 300.0],
        ),
    ],
    ids=["atoms", "gmm"],
)
def test_pf_ode_field_matches_reference_formula(target, pts, schedule):
    lams = _lambdas(schedule, [1e-3, 0.05, 0.4, 1.0, 2.5])
    field = _pf_ode_field(target, lams)
    y = np.array(pts)[:, None]
    locs, vs, _ = _components(target)
    far = np.zeros(len(y), dtype=bool)
    for j, lam in enumerate(lams):
        got = field(j, y)
        np.testing.assert_allclose(got, _reference_field(target, lam, y), rtol=1e-12, atol=0)
        z2 = (y - locs[:, 0]) ** 2 / (vs + lam * lam)
        far |= z2.min(axis=1) > 30.0**2
    assert far.any()  # some queries lie beyond 30 sd of every component


def _allocating_field(target, lams):
    """The PF-ODE field as the component-major kernel computed it with a
    fresh array for every operation; the in-place kernel must reproduce it
    bit for bit."""
    locs, vs, weights = _components(target)

    def field(j, y):
        lam = lams[j]
        variances = vs + lam * lam
        pull = locs[:, None, :] - y[None, :, :]
        sq = np.einsum("knd,knd->kn", pull, pull)
        z2 = sq / variances[:, None]
        log_coef = np.log(weights) - 0.5 * locs.shape[1] * np.log(2.0 * np.pi * variances)
        logc = log_coef[:, None] - 0.5 * z2
        m = logc.max(axis=0)
        e = np.exp(logc - m)
        s = e.sum(axis=0)
        terms = ((e / s) / variances[:, None])[:, :, None] * pull
        sc = np.zeros(terms.shape[1:])
        for term in terms:
            sc += term
        return -lam * sc

    return field


def _allocating_transport(target, schedule, x, t_from, t_to, step):
    n_steps = int(math.ceil(abs(t_to - t_from) / step))
    times = np.linspace(t_from, t_to, n_steps + 1)
    lam = _lambdas(schedule, times)
    nodes = np.empty(2 * n_steps + 1)
    nodes[0::2] = lam
    nodes[1::2] = 0.5 * (lam[:-1] + lam[1:])
    field = _allocating_field(target, nodes)
    y = x / float(schedule.alpha(t_from))
    for k in range(n_steps):
        h = lam[k + 1] - lam[k]
        k1 = field(2 * k, y)
        k2 = field(2 * k + 1, y + 0.5 * h * k1)
        k3 = field(2 * k + 1, y + 0.5 * h * k2)
        k4 = field(2 * k + 2, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(schedule.alpha(t_to)) * y


_GMM3 = GaussianMixtureTarget([[-3.0], [0.5], [4.0]], [0.3, 1.0, 0.5], [0.2, 0.5, 0.3])
_GMM_2D = GaussianMixtureTarget([[-3.0, 1.0], [2.0, 0.5]], [0.4, 1.5], [0.35, 0.65])


@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
@pytest.mark.parametrize(
    "target, pts",
    [
        (TWO_ATOM, [[-3.0], [0.01], [2.0], [18.0], [40.0], [60.0], [99.9], [150.0]]),
        (_GMM3, [[-300.0], [-40.0], [-2.5], [0.0], [1.7], [3.9], [55.0], [300.0]]),
        (_GMM_2D, [[-300.0, 2.0], [-3.0, 1.0], [0.0, 0.0], [1.0, -2.0], [80.0, 90.0]]),
    ],
    ids=["atoms", "gmm", "gmm2d"],
)
def test_pf_ode_field_and_rk4_match_allocating_kernel(target, pts, schedule):
    # Bit for bit, at points inside and beyond 30 component sd, on the field
    # and on whole RK4 transports in both time directions.
    lams = _lambdas(schedule, [1e-3, 0.05, 0.4, 1.0, 2.5])
    y = np.array(pts)
    field = _pf_ode_field(target, lams)
    want_field = _allocating_field(target, lams)
    for j in range(lams.size):
        np.testing.assert_array_equal(field(j, y), want_field(j, y))
    for t_from, t_to in ((2.0, 0.05), (0.3, 1.2)):
        got = pf_ode_transport(target, schedule, y, t_from, t_to, step=0.05)
        want = _allocating_transport(target, schedule, y, t_from, t_to, 0.05)
        np.testing.assert_array_equal(got, want)


# The GMM of the PF-ODE benchmark workload: three separated components of
# unequal width.
_BENCH_GMM = GaussianMixtureTarget(
    [[-4.0], [0.0], [3.0]], [0.5, 1.0, 0.25], [0.3, 0.5, 0.2]
)


@pytest.mark.parametrize("t", [1.0, 4.0])
@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
def test_pf_ode_matches_monotone_rearrangement(schedule, t):
    # In 1-D the consistency function is the monotone rearrangement
    # Q_0(F_t(x)): at x = Q_t(u) the RK4 oracle must give Q_0(u).
    u = np.random.default_rng([7, int(t)]).uniform(0.001, 0.999, 256)
    view = MarginalView(_BENCH_GMM, schedule, t)
    x = np.array([marginal_quantile_1d(view, q) for q in u])
    got = pf_ode_consistency(_BENCH_GMM, schedule)(x, t)
    assert np.max(np.abs(got - target_quantiles_1d(_BENCH_GMM, u))) <= 1e-6


def _scaled_rows(y, radius):
    """The output clamp as one ``radius / norm`` scale for every row."""
    if not np.isfinite(radius):
        return y
    norms = np.linalg.norm(y, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > radius, radius / norms, 1.0)
    return y * scale[:, None]


@pytest.mark.parametrize("radius", [2.5, math.inf])
@pytest.mark.parametrize("d", [1, 3])
def test_clamp_norms_matches_row_scaling(d, radius):
    rng = np.random.default_rng(d)
    y = rng.normal(scale=2.0, size=(400, d))
    y[:6] = 0.0
    y[1] = -0.0
    y[2, 0], y[3, -1] = 2.5, -2.5  # exactly at the radius
    y[4] = 1e6  # far over
    y[5, 0] = -2.5000000000000004  # one ulp over
    before = y.copy()
    got = _clamp_norms(y, radius)
    want = _scaled_rows(before, radius)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(y, before)  # the input is left alone
    inside = y[np.linalg.norm(y, axis=1) <= 2.5]
    assert _clamp_norms(inside, radius) is inside


def _clamp_without_precheck(y, radius):
    """The output clamp without its 1-D range pre-check."""
    if not np.isfinite(radius):
        return y
    norms = np.abs(y[:, 0]) if y.shape[1] == 1 else np.linalg.norm(y, axis=1)
    over = np.flatnonzero(norms > radius)
    if over.size == 0:
        return y
    y = y.copy()
    y[over] *= (radius / norms[over])[:, None]
    return y


_R = 2.5
_ULP_OVER = np.nextafter(_R, math.inf)


@pytest.mark.parametrize(
    "rows",
    [
        [_R], [-_R], [_R, -_R, 0.0, -0.0],
        [_ULP_OVER], [-_ULP_OVER], [_R, -_ULP_OVER],
        [math.nan], [math.nan, _R], [math.nan, _ULP_OVER], [math.nan, -math.inf],
        [math.inf], [],
    ],
    ids=lambda rows: repr(rows),
)
def test_clamp_precheck_matches_full_path(rows):
    y = np.array(rows, dtype=float).reshape(-1, 1)
    before = y.copy()
    with np.errstate(invalid="ignore"):  # an infinite row scales to NaN
        got = _clamp_norms(y, _R)
        want = _clamp_without_precheck(y, _R)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    # the input itself comes back exactly when the full path returns it
    assert (got is y) == (want is y)
    np.testing.assert_array_equal(y.view(np.int64), before.view(np.int64))


def test_pf_ode_follows_the_only_component_with_weight_far_out():
    # At -1e6 the density is ~1e-308, but component 0 takes every bit of
    # the responsibility, so the transport is its affine flow in lambda.
    faint = GaussianMixtureTarget(
        [[0.0], [1e6]], [1e4, 1.0], [1e-110, 1.0 - 1e-110]
    )
    got = pf_ode_transport(faint, make_ve(), np.array([-1e6]), 0.5, 0.4)
    want = -1e6 * math.sqrt((1e4 + 0.4**2) / (1e4 + 0.5**2))
    assert abs(float(got[0]) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
def test_pf_ode_maps_far_and_separatrix_points_to_threshold_atoms(t):
    f_ode = pf_ode_consistency(TWO_ATOM, OU)
    f_ref = exact_two_point(TWO_ATOM, OU)
    b = 50.0 * float(OU.alpha(t))
    x = np.array([-1e4, 1e4, np.nextafter(b, -math.inf), np.nextafter(b, math.inf)])
    np.testing.assert_array_equal(f_ode(x, t), f_ref(x, t))
    # Exactly on the separatrix the point stays on the saddle, where the
    # posterior mean is the midpoint.
    assert f_ode(np.array([b]), t)[0] == 50.0


# ---------------------------------------------------------------------------
# perturbed estimator


def test_quantile_perturbed_boundary():
    fhat = quantile_perturbed(TWO_ATOM, OU, kappa=1e-4)
    exact_boundary = 50.0 * math.exp(-2.0)
    a_t = fhat.boundary(2.0)
    assert a_t > exact_boundary  # shifted toward the upper atom
    assert fhat.boundary(2.0) == a_t  # cache returns the identical value
    # boundary is the stated quantile of the true marginal
    from cmlab import marginal_cdf_1d

    view = MarginalView(TWO_ATOM, OU, 2.0)
    assert float(marginal_cdf_1d(view, a_t)) == pytest.approx(
        0.5 + 1e-4 * 4.0, abs=1e-9
    )


def test_quantile_perturbed_time_zero_and_range():
    fhat = quantile_perturbed(TWO_ATOM, OU)
    assert float(fhat(np.array([33.0]), 0.0)[0]) == 33.0
    with pytest.raises(NumericError):
        fhat(np.array([0.0]), 200.0)  # 0.5 + 1e-4 * 200^2 = 4.5, out of range
    with pytest.raises(NumericError):
        quantile_perturbed(TWO_ATOM, OU, kappa=0.0)


def test_mean_squared_evaluation_error_is_kappa_scaled():
    """The perturbed boundary misassigns kappa*t^2 mass, each error costing
    gap^2 — so the mean squared evaluation error is exactly gap^2*kappa*t^2
    (= t^2 at the defaults)."""
    fhat = quantile_perturbed(TWO_ATOM, OU)
    f = exact_two_point(TWO_ATOM, OU)
    for t, seed in ((2.0, 11), (5.0, 12), (10.0, 13)):
        view = MarginalView(TWO_ATOM, OU, t)
        est = evaluation_error(fhat, f, view, 200_000, seed)
        assert abs(est.value - t * t) <= 4.0 * est.stderr


def test_evaluation_error_of_identical_fns_is_zero():
    f = exact_two_point(TWO_ATOM, OU)
    est = evaluation_error(f, f, MarginalView(TWO_ATOM, OU, 1.0), 2000, 0)
    assert est.value == 0.0
    assert est.n == 2000


# ---------------------------------------------------------------------------
# self-consistency loss


def test_exact_oracle_has_zero_self_consistency_loss():
    part = TrainingPartition(1.0, 5)
    f = exact_two_point(TWO_ATOM, OU)
    loss = consistency_loss(f, TWO_ATOM, OU, part, i=2, n=2000, seed=0)
    assert loss.value <= 1e-3 * GAP2
    assert loss.value == 0.0


def test_consistency_loss_determinism_and_range():
    part = TrainingPartition(0.5, 4)
    fhat = quantile_perturbed(TWO_ATOM, OU, kappa=1e-2)
    a = consistency_loss(fhat, TWO_ATOM, OU, part, i=1, n=500, seed=9)
    b = consistency_loss(fhat, TWO_ATOM, OU, part, i=1, n=500, seed=9)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value >= 0.0
    with pytest.raises(NumericError):
        consistency_loss(fhat, TWO_ATOM, OU, part, i=4, n=10, seed=0)


# ---------------------------------------------------------------------------
# both Monte Carlo evaluators share one chunked mean-squared-error loop


def _chunked_mse(view, fa, fb, n, seed):
    """The chunk loop each evaluator carried before they shared one,
    kept to pin the shared one bit for bit."""
    means, variances, weights = view.mixture_params()

    def chunk(rng, m, _ci):
        if m == 0:
            return 0.0, 0.0, 0
        x = _sample_mixture(rng, means, variances, weights, m)
        return chunk_moments(np.sum((fa(x) - fb(x)) ** 2, axis=1))

    return merge_moments(map_chunks(chunk, n, seed))


def _bits(est):
    return est.value.hex(), est.stderr.hex(), est.n


@pytest.mark.parametrize("n, seed", [(40_000, 21), (10, 3)],
                         ids=["chunks", "empty_chunks"])
def test_evaluation_error_bits_match_chunk_loop(n, seed):
    fhat = quantile_perturbed(TWO_ATOM, OU, kappa=1e-3)
    f = exact_two_point(TWO_ATOM, OU)
    view = MarginalView(TWO_ATOM, OU, 3.0)
    got = evaluation_error(fhat, f, view, n, seed)
    want = _chunked_mse(view, lambda x: fhat(x, 3.0), lambda x: f(x, 3.0), n, seed)
    assert _bits(got) == _bits(want)
    assert got.value > 0.0 or n == 10


@pytest.mark.parametrize("target, make_fhat", [
    (TWO_ATOM, lambda target: quantile_perturbed(target, OU, kappa=1e-2)),
    (_BENCH_GMM, lambda target: pf_ode_consistency(target, OU, step=0.05)),
], ids=["threshold", "pfode_gmm"])
def test_consistency_loss_bits_match_chunk_loop(target, make_fhat):
    fhat = make_fhat(target)
    part = TrainingPartition(0.5, 4)
    t_i, t_next = 0.5, 1.0

    def there(x):
        return fhat(pf_ode_transport(target, OU, x, t_i, t_next, 0.05), t_next)

    got = consistency_loss(fhat, target, OU, part, i=1, n=1000, seed=9, step=0.05)
    view = MarginalView(target, OU, t_i)
    want = _chunked_mse(view, lambda x: fhat(x, t_i), there, 1000, 9)
    assert _bits(got) == _bits(want)
    assert got.value > 0.0
