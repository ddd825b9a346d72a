import math
import tracemalloc

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
    SamplingTimeSchedule,
    TrainingPartition,
    consistency_loss,
    evaluation_error,
    make_ou,
    make_ve,
    marginal_quantile_1d,
    marginal_score_path,
    pf_ode_consistency,
    pf_ode_transport,
    quantile_map,
    quantile_perturbed,
    sample_marginal,
    stage_laws,
    target_quantiles_1d,
)
from cmlab import consistency_oracle
from cmlab._rng import chunk_moments, map_chunks, merge_moments
from cmlab.consistency_oracle import _pf_ode_field
from cmlab.target_dist import (
    _mixture_quantiles_1d,
    _noised_params,
    _rearrange_1d,
    _sample_mixture,
)

OU = make_ou()
TWO_ATOM = DiscreteTarget([0.0, 100.0], [0.5, 0.5])
GAP2 = 100.0**2


def test_solver_config_validation():
    for step in (0.0, math.inf):
        with pytest.raises(ValueError):
            pf_ode_consistency(TWO_ATOM, OU, step=step)
        with pytest.raises(ValueError):
            pf_ode_transport(TWO_ATOM, OU, np.array([1.0]), 2.0, 1.0, step=step)


# ---------------------------------------------------------------------------
# threshold oracle


def test_exact_two_point_values():
    f = quantile_map(TWO_ATOM, OU)
    # boundary at t=1 is 50/e ~ 18.39
    assert float(f(np.array([30.0]), 1.0)[0]) == 100.0
    assert float(f(np.array([10.0]), 1.0)[0]) == 0.0
    assert float(f(np.array([77.0]), 0.0)[0]) == 77.0
    a = 50.0 * float(OU.alpha(1.0))  # the boundary
    assert a == pytest.approx(50.0 * math.exp(-1.0), rel=1e-15)
    np.testing.assert_array_equal(f(np.array([np.nextafter(a, 0.0), a]), 1.0), [0.0, 100.0])


@pytest.mark.parametrize(
    "make", [quantile_map, quantile_perturbed], ids=["exact", "perturbed"]
)
@pytest.mark.parametrize("t", [0.5, 9.0])
def test_threshold_gather_matches_where(make, t):
    f = make(TWO_ATOM, OU)
    if make is quantile_map:
        a = 50.0 * float(OU.alpha(t))
    else:
        a = marginal_quantile_1d(MarginalView(TWO_ATOM, OU, t), 0.5 + 1e-4 * t * t)
    x = np.array(
        [-math.inf, math.inf, math.nan, a, np.nextafter(a, -math.inf),
         np.nextafter(a, math.inf), -a, 0.0, -0.0, 100.0]
    )
    want = np.where(x < a, 0.0, 100.0)
    for got in (f.fn(x, t), f(x, t)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


_B = consistency_oracle._GATHER_BLOCK


@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3])
def test_threshold_block_gather_matches_where(n):
    # Points straddle the boundary in every block, a NaN sits at each block
    # edge and at the last point, and the law does not see the blocks.
    boundary = 0.25
    f = consistency_oracle._threshold_oracle(-1.0, 3.0, lambda t: boundary)
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    x[::_B] = math.nan
    x[_B - 1::_B] = math.nan
    x[-1:] = math.nan
    want = np.where(x < boundary, -1.0, 3.0)
    got = f(x, 2.0)
    assert got.shape == (n,) and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    means, variances, weights = np.array([0.0, 1.0]), np.array([1.0, 0.5]), np.array([0.4, 0.6])
    r = float(consistency_oracle._mixture_cdf_1d(boundary, means, np.sqrt(variances), weights))
    atoms, zeros, masses = f.law((means, variances, weights), 2.0)
    assert atoms.tolist() == [-1.0, 3.0] and zeros.tolist() == [0.0, 0.0]
    assert masses.tolist() == [r, 1.0 - r]


def test_threshold_oracle_allocates_only_its_output():
    # The gather goes through one block-sized index, not an (n,) one.
    n = 10**6
    f = quantile_map(TWO_ATOM, OU)
    x = np.random.default_rng(0).normal(20.0, 40.0, n)
    f.fn(x, 1.0)  # solves and caches the boundary
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f.fn(x, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (n,)
    assert peak <= 1.2 * 8 * n, f"{peak / (8 * n):.2f} arrays of n floats"


@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
@pytest.mark.parametrize("target, times", [
    (DiscreteTarget([0.0, 100.0], [0.3, 0.7]), (0.5, 2.0, 6.0)),
    (DiscreteTarget([-3.0, 0.5, 2.0], [0.2, 0.5, 0.3]), (0.3, 1.0, 4.0)),
], ids=["unequal_pair", "three_atoms"])
def test_quantile_map_matches_rk4_on_atom_targets(target, times, schedule):
    # Off the separatrices, the threshold at Q_t(w_lo) (two atoms) and the
    # general rearrangement (three atoms) give RK4's atom bit for bit, and
    # the general rearrangement gives the threshold's.
    f = quantile_map(target, schedule)
    for t in times:
        view = MarginalView(target, schedule, t)
        x = sample_marginal(view, 4000, 4)
        got = f(x, t)
        np.testing.assert_array_equal(got, pf_ode_consistency(target, schedule, 0.01)(x, t))
        general = _rearrange_1d(x, view.mixture_params(), _noised_params(target, 1.0, 0.0))
        np.testing.assert_array_equal(got, general)
    assert (f.law is None) == (target.n_components == 3)


@pytest.mark.parametrize("atoms, schedule, horizon", [
    ([0.0, 100.0], OU, 14.0), ([0.0, 1.0], make_ve(), 8.0),
], ids=["ou", "ve"])
def test_equal_atom_threshold_is_the_noised_midpoint(atoms, schedule, horizon):
    # For equal weights the marginal median Q_t(1/2) that the threshold
    # solves is the noised midpoint bit for bit, so the old closed form and
    # the solved boundary give the same outputs.
    target = DiscreteTarget(atoms, [0.5, 0.5])
    mid = 0.5 * (atoms[0] + atoms[1])
    for t in np.linspace(0.01, horizon, 400).tolist():
        a_t = marginal_quantile_1d(MarginalView(target, schedule, t), 0.5)
        assert a_t == mid * float(schedule.alpha(t)), t


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_identity_at_time_zero_is_bit_exact(x):
    for f in (
        quantile_map(TWO_ATOM, OU),
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
    f = quantile_map(TWO_ATOM, OU)
    assert abs(float(f(np.array([x]), t)[0])) <= 100.0


def test_one_dim_input_squeezes():
    f = quantile_map(TWO_ATOM, OU)
    out = f(np.array([10.0, 30.0]), 1.0)
    assert out.shape == (2,)
    np.testing.assert_array_equal(out, [0.0, 100.0])
    # Every entry is a point: a column, such as the benchmark's
    # ``oracle(x[:, None], t)``, and a scalar come back in their own shape,
    # for every oracle and at t = 0.
    gauss = GaussianMixtureTarget([[0.5]], [0.25], [1.0])
    x = np.array([-1.3, 0.2, 40.0])
    for g in (f, quantile_perturbed(TWO_ATOM, OU), quantile_map(gauss, OU),
              pf_ode_consistency(gauss, OU, step=0.05)):
        for t in (0.0, 1.0):
            flat = g(x, t)
            assert flat.shape == (3,)
            column = g(x[:, None], t)
            assert column.shape == (3, 1)
            np.testing.assert_array_equal(column[:, 0], flat)
            scalar = g(x[1], t)
            assert scalar.shape == ()
            assert scalar == flat[1]


# ---------------------------------------------------------------------------
# single-Gaussian affine oracle


def test_exact_single_gaussian_is_identity_for_stationary_law():
    f = quantile_map(GaussianMixtureTarget([[0.0]], [1.0], [1.0]), OU)
    x = np.array([[-1.3], [0.0], [2.2]])
    np.testing.assert_allclose(f(x, 2.0), x, rtol=1e-12)


def test_gaussian_affine_map_values():
    target = GaussianMixtureTarget([[2.0]], [0.25], [1.0])
    f = quantile_map(target, OU)
    # the law of a point mass at 0 is one at the intercept, and a unit
    # variance comes out as slope**2
    means, variances, _ = f.law((np.zeros(2), np.array([0.0, 1.0]), np.full(2, 0.5)), 1.0)
    intercept, slope = float(means[0]), math.sqrt(float(variances[1]))
    a = math.exp(-1.0)
    big_v = a * a * 0.25 + (1.0 - math.exp(-2.0))
    assert slope == pytest.approx(math.sqrt(0.25 / big_v), rel=1e-14)
    assert intercept == pytest.approx(2.0 * (1.0 - a * slope), rel=1e-14)
    x = np.array([[0.7]])
    assert float(f(x, 1.0)[0, 0]) == pytest.approx(slope * 0.7 + intercept, rel=1e-12)


def test_quantile_map_on_non_finite_points():
    # The threshold sends NaN to the upper atom and the affine map gives
    # NaN, with no check on their hot path; the general rearrangement raises
    # naming the first non-finite point.
    x = np.array([1.0, math.nan, 30.0])
    np.testing.assert_array_equal(quantile_map(TWO_ATOM, OU)(x, 1.0), [0.0, 100.0, 100.0])
    gauss = quantile_map(GaussianMixtureTarget([[2.0]], [0.25], [1.0]), OU)(x, 1.0)
    assert math.isnan(gauss[1]) and np.all(np.isfinite(gauss[[0, 2]]))
    f = quantile_map(_BENCH_GMM, OU)
    with pytest.raises(NumericError, match="point 1 is nan"):
        f(x, 1.0)
    with pytest.raises(NumericError, match="point 2 is -inf"):
        f(np.array([0.5, 1.0, -math.inf, math.nan]), 1.0)


def test_quantile_map_has_no_law_on_a_mixture():
    # A mixture gets the general rearrangement, which has no closed-form
    # law, so the exact stage laws refuse it.
    mix = GaussianMixtureTarget([[0.0], [5.0]], [1.0, 1.0], [0.5, 0.5])
    f = quantile_map(mix, OU)
    assert f.law is None
    with pytest.raises(NumericError, match="closed-form law"):
        stage_laws(OU, SamplingTimeSchedule([2.0, 1.0]), f)
    # a target that is not 1-D builds (the bounds read it), but each map
    # and law raises when called
    for target in (GaussianMixtureTarget([[0.0, 1.0]], [1.0], [1.0]),
                   DiscreteTarget([[0.0, 0.0], [3.0, 4.0]], [0.5, 0.5]),
                   GaussianMixtureTarget([[0.0, 1.0], [2.0, 0.0]], [1.0, 1.0], [0.5, 0.5])):
        f = quantile_map(target, OU)
        with pytest.raises(NumericError, match="1-D target"):
            f(np.zeros(3), 1.0)
        if f.law is not None:
            with pytest.raises(NumericError, match="1-D target"):
                f.law((np.zeros(1), np.ones(1), np.ones(1)), 1.0)


@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
def test_rearrangement_of_one_gaussian_is_the_affine_map(schedule):
    target = GaussianMixtureTarget([[2.0]], [0.25], [1.0])
    for t in (0.5, 2.0):
        view = MarginalView(target, schedule, t)
        x = sample_marginal(view, 4000, 1)
        general = _rearrange_1d(x, view.mixture_params(), _noised_params(target, 1.0, 0.0))
        np.testing.assert_allclose(general, quantile_map(target, schedule)(x, t),
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# probability-flow ODE


def test_pf_ode_matches_affine_oracle():
    """RK4 denoising of a Gaussian marginal reproduces the closed-form map.

    For N(0, 0.25) under OU the consistency function is linear with slope
    sqrt(v / V_t); the solver stops at the noise floor lam = 1e-6 and
    returns the posterior mean there (about 4e-13 off at the default step).
    """
    target = GaussianMixtureTarget([[0.0]], [0.25], [1.0])
    f = pf_ode_consistency(target, OU)
    x = np.array([[-2.0], [-0.5], [0.4], [1.0], [3.0]])
    got = f(x, 1.0)
    slope = float(quantile_map(target, OU)(1.0, 1.0))  # the intercept is 0
    assert slope == pytest.approx(0.5274864609725978, rel=1e-12)
    np.testing.assert_allclose(got, slope * x, rtol=1e-3)
    assert float(np.max(np.abs(got - slope * x))) < 1e-3


def test_pf_ode_discrete_agrees_with_threshold():
    f_ode = pf_ode_consistency(TWO_ATOM, OU)
    f_ref = quantile_map(TWO_ATOM, OU)
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


def _count_field_calls(monkeypatch):
    """Patch the PF-ODE field so each transport records its node count and
    the number of field evaluations it made."""
    runs = []
    make_field = consistency_oracle._pf_ode_field

    def counting(target, lams):
        field = make_field(target, lams)
        run = {"nodes": len(lams), "calls": 0}
        runs.append(run)

        def counted(j, y):
            run["calls"] += 1
            return field(j, y)

        return counted

    monkeypatch.setattr(consistency_oracle, "_pf_ode_field", counting)
    return runs


def _v(target, lam):
    """The step variable ``asinh(lam_eff**(1/3))``, ``lam_eff = sqrt(lam**2
    + v_min / 100)``, for the smallest component variance ``v_min``."""
    v_min = float(np.min(_components(target)[1]))
    return math.asinh(math.sqrt(lam * lam + 0.01 * v_min) ** (1 / 3))


@pytest.mark.parametrize("target, t, step, schedule, n_steps", [
    # the two stages of the PF-ODE benchmark job: 89 + 53 = 142 steps, 568
    # field evaluations
    ("bench", 4.0, 0.01, make_ve(), 89),
    ("bench", 1.0, 0.01, make_ve(), 53),
    ("gmm3", 4.0, 0.01, make_ve(), 88),
    ("gmm3", 1.0, 0.01, make_ve(), 52),
    ("gmm3", 14.0, 1e-3, OU, 4989),
    ("atoms", 4.0, 0.01, make_ve(), 124),
    ("atoms", 1.0, 0.01, make_ve(), 88),
    ("atoms", 14.0, 1e-3, OU, 5350),
], ids=["bench-ve4", "bench-ve1", "ve4", "ve1", "ou14", "atoms-ve4", "atoms-ve1",
        "atoms-ou14"])
def test_pf_ode_takes_ceil_dv_over_step_rk4_steps(
    monkeypatch, target, t, step, schedule, n_steps
):
    # Steps uniform in v: ceil(|dv| / step) of them, four field evaluations
    # each, backward from t to the noise floor and forward from 0 to t.  On
    # the mixture v is nearly flat below lam ~ sqrt(v_min) / 10, so the
    # steps no longer cluster at the noise floor as they do for atoms.
    target = {"bench": _BENCH_GMM, "gmm3": _GMM3, "atoms": TWO_ATOM}[target]
    lam = float(_lambdas(schedule, [t])[0])
    dv = _v(target, lam) - _v(target, 1e-6)
    assert math.ceil(dv / step) == n_steps
    runs = _count_field_calls(monkeypatch)
    x = np.array([-1.0, 0.5, 2.0])
    pf_ode_consistency(target, schedule, step)(x, t)
    pf_ode_transport(target, schedule, x, 0.0, t, step)
    assert len(runs) == 2
    for run in runs:
        assert run == {"nodes": 2 * n_steps + 1, "calls": 4 * n_steps}


@pytest.mark.parametrize("t_from, t_to", [(4.0, 0.0), (0.0, 1.0), (14.0, 0.5)])
@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
def test_pf_ode_atom_nodes_are_uniform_in_cbrt_lam(monkeypatch, schedule, t_from, t_to):
    # For atoms (v_min = 0) the nodes are sinh(v)**3 on a grid uniform in
    # v = asinh(lam**(1/3)), with the two end levels pinned, bit for bit.
    grids = []
    make_field = consistency_oracle._pf_ode_field

    def recording(target, lams):
        grids.append(lams.copy())
        return make_field(target, lams)

    monkeypatch.setattr(consistency_oracle, "_pf_ode_field", recording)
    pf_ode_transport(TWO_ATOM, schedule, np.array([0.0, 30.0]), t_from, t_to, 0.01)
    ends = _lambdas(schedule, [t_from, t_to])
    v_from, v_to = np.arcsinh(np.cbrt(ends))
    n_steps = math.ceil(abs(v_to - v_from) / 0.01)
    want = np.sinh(np.linspace(v_from, v_to, n_steps + 1)) ** 3
    want[[0, -1]] = ends
    (nodes,) = grids
    assert n_steps > 10
    np.testing.assert_array_equal(nodes[0::2], want)
    np.testing.assert_array_equal(nodes[1::2], 0.5 * (want[:-1] + want[1:]))


@pytest.mark.parametrize("step", [0.01, 1e-3])
@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
def test_pf_ode_mixture_grid_takes_no_root_of_a_negative(schedule, step):
    # To and from the noise floor, where lam_eff**2 - c is smallest: no
    # invalid operation anywhere in building the grid or stepping on it.
    x = np.array([-2.0, 0.1, 3.0])
    with np.errstate(invalid="raise"):
        for target in (_BENCH_GMM, _GMM3):
            pf_ode_transport(target, schedule, x, 4.0, 0.0, step)
            pf_ode_transport(target, schedule, x, 0.0, 4.0, step)


def test_pf_ode_between_floored_levels_takes_no_step(monkeypatch):
    # Both ends below lam = 1e-6 floor to the same level: no RK4 step, only
    # the change of variables y = x / alpha.
    runs = _count_field_calls(monkeypatch)
    x = np.array([-2.0, 0.3, 5.0])
    np.testing.assert_array_equal(pf_ode_transport(_GMM3, make_ve(), x, 5e-7, 0.0), x)
    got = pf_ode_transport(_GMM3, OU, x, 1e-13, 0.0)
    np.testing.assert_array_equal(got, x / math.exp(-1e-13))
    assert [run["calls"] for run in runs] == [0, 0]


def test_pf_ode_step_cap_raises_before_building_the_grid(monkeypatch):
    # VE t = 4 at step 1e-12 needs 1.2e12 steps; the cap raises before the
    # step grid is started.
    monkeypatch.setattr(np, "linspace", None)
    with pytest.raises(NumericError, match="limit"):
        pf_ode_transport(_GMM3, make_ve(), np.array([1.0]), 4.0, 0.0, step=1e-12)


def _lambdas(schedule, times):
    times = np.asarray(times, dtype=float)
    lam = np.sqrt(schedule.sigma2(times)) / schedule.alpha(times)
    return np.maximum(lam, 1e-6)


def _components(target):
    if isinstance(target, DiscreteTarget):
        return target.locations[:, 0], np.zeros(target.n_components), target.weights
    return target.means[:, 0], target.variances, target.weights


def _reference_field(target, lam, y):
    """``-lam * score`` of the target noised to variances ``v_k + lam**2``,
    that is ``(y - D(y, lam)) / lam``, written out in point-major
    ``(n, k)`` layout with scipy's softmax for the responsibilities."""
    locs, vs, weights = _components(target)
    variances = vs + lam * lam
    pull = locs[None, :] - y[:, None]
    logc = (
        np.log(weights)
        - 0.5 * np.log(2.0 * np.pi * variances)
        - 0.5 * (pull * pull) / variances
    )
    resp = scipy.special.softmax(logc, axis=1)
    return -lam * np.sum((resp / variances) * pull, axis=1)


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
    y = np.array(pts)
    locs, vs, _ = _components(target)
    far = np.zeros(len(y), dtype=bool)
    for j, lam in enumerate(lams):
        got = field(j, y)
        np.testing.assert_allclose(got, _reference_field(target, lam, y), rtol=1e-12, atol=0)
        z2 = (y[:, None] - locs) ** 2 / (vs + lam * lam)
        far |= z2.min(axis=1) > 30.0**2
    assert far.any()  # some queries lie beyond 30 sd of every component


def _allocating_field(target, lams):
    """The PF-ODE field by the tabulated kernel's formula, with a fresh
    array for every operation and component-major ``(k, n)`` offsets: the
    scaled offsets ``q = y s - m s``, ``s = 1 / sqrt(2 V)``, the log terms
    ``c - q^2``, and ``sum_k e_k g q / sum_k e_k`` with ``g = -sqrt(2 /
    V)``, each sum over ``k`` in index order.  The in-place kernel must
    reproduce it bit for bit."""
    locs, vs, weights = _components(target)

    def field(j, y):
        lam = lams[j]
        variances = vs + lam * lam
        scale = 1.0 / np.sqrt(2.0 * variances)
        q = y[None, :] * scale[:, None] - (locs * scale)[:, None]
        sq = q**2
        log_coef = np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances)
        logc = log_coef[:, None] - sq
        e = np.exp(logc - logc.max(axis=0))
        terms = q * (e * -np.sqrt(2.0 / variances)[:, None])
        total, sc = e[0], terms[0]
        for i in range(1, len(e)):
            total, sc = total + e[i], sc + terms[i]
        return -lam * (sc / total)

    return field


def _allocating_transport(target, schedule, x, t_from, t_to, step):
    # Nodes uniform in v = asinh(lam_eff**(1/3)), lam_eff = sqrt(lam**2 + c)
    # with c = v_min / 100, mapped back by lam = sqrt(lam_eff**2 - c),
    # between the two end levels, which are pinned exactly.
    c = 0.01 * np.min(_components(target)[1])
    lam_from, lam_to = _lambdas(schedule, [t_from, t_to])
    v_from, v_to = np.arcsinh(np.cbrt(np.sqrt(np.array([lam_from, lam_to]) ** 2 + c)))
    n_steps = int(math.ceil(abs(v_to - v_from) / step))
    lam = np.sqrt((np.sinh(np.linspace(v_from, v_to, n_steps + 1)) ** 3) ** 2 - c)
    lam[0], lam[-1] = lam_from, lam_to
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


@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
@pytest.mark.parametrize(
    "target, pts",
    [
        (TWO_ATOM, [-3.0, 0.01, 2.0, 18.0, 40.0, 60.0, 99.9, 150.0]),
        (_GMM3, [-300.0, -40.0, -2.5, 0.0, 1.7, 3.9, 55.0, 300.0]),
    ],
    ids=["atoms", "gmm"],
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


@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
@pytest.mark.parametrize("target", [TWO_ATOM, _GMM3], ids=["atoms", "gmm"])
def test_pf_ode_field_rows_do_not_depend_on_the_batch(target, schedule):
    # A point's field value is the same bits whether it is evaluated with
    # all points or in slices of 1, 2, 5 and n - 8 points.
    rng = np.random.default_rng(3)
    y = rng.normal(0.0, 1.0, 40) * rng.choice([0.5, 5.0, 200.0], 40)
    y[0] = _components(target)[0][0]
    field = _pf_ode_field(target, _lambdas(schedule, [1e-3, 0.05, 0.4, 1.0, 2.5]))
    for j in range(5):
        whole = field(j, y)
        parts = [field(j, y[a:b]) for a, b in ((0, 1), (1, 3), (3, 8), (8, len(y)))]
        np.testing.assert_array_equal(
            np.concatenate(parts).view(np.int64), whole.view(np.int64)
        )


def test_score_path_at_zero_variance_raises_only_when_called():
    # Atoms at t = 0 have no density: the path still builds, every other
    # node evaluates, and the t = 0 node raises when it is called.
    score_at = marginal_score_path(TWO_ATOM, OU, [0.5, 0.0, 1.0])
    y = np.array([-3.0, 20.0, 90.0])
    with pytest.raises(NumericError):
        score_at(1, y)
    for j in (0, 2):
        first, second = score_at(j, y), score_at(j, y)
        assert first.shape == y.shape
        np.testing.assert_array_equal(first, second)
        # a fresh array every call: RK4 holds four field values at once
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, y)
        assert np.all(np.isfinite(first))


def test_transport_and_score_path_take_no_columns_as_components():
    # With one component, a column of points would broadcast against the
    # component axis of the (k, n) kernels and mix the points together.
    # The transport treats every entry as a point; the score path refuses.
    gauss = GaussianMixtureTarget([[0.5]], [0.25], [1.0])
    x = np.array([-1.0, 0.4, 1.5])
    flat = pf_ode_transport(gauss, OU, x, 1.0, 0.2, step=0.05)
    column = pf_ode_transport(gauss, OU, x[:, None], 1.0, 0.2, step=0.05)
    np.testing.assert_array_equal(column, flat[:, None])
    score_at = marginal_score_path(gauss, OU, [1.0])
    assert score_at(0, x).shape == (3,)
    with pytest.raises(NumericError, match=r"\(3, 1\)"):
        score_at(0, x[:, None])


# The GMM of the PF-ODE benchmark workload: three separated components of
# unequal width.
_BENCH_GMM = GaussianMixtureTarget(
    [[-4.0], [0.0], [3.0]], [0.5, 1.0, 0.25], [0.3, 0.5, 0.2]
)


@pytest.mark.parametrize("t", [1.0, 4.0])
@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
def test_quantile_map_matches_rk4_on_a_mixture(schedule, t):
    # The general case against RK4 at step 1e-3, on points drawn from p_t.
    x = sample_marginal(MarginalView(_BENCH_GMM, schedule, t), 512, 3)
    got = quantile_map(_BENCH_GMM, schedule)(x, t)
    want = pf_ode_consistency(_BENCH_GMM, schedule, 1e-3)(x, t)
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("t", [1.0, 4.0])
@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
def test_quantile_map_is_monotone_and_finite_into_both_tails(schedule, t):
    # From 30 sd below every component of p_t to 30 sd above every one.
    means, variances, _ = MarginalView(_BENCH_GMM, schedule, t).mixture_params()
    sds = np.sqrt(variances)
    x = np.linspace(np.min(means - 30 * sds), np.max(means + 30 * sds), 20001)
    f = quantile_map(_BENCH_GMM, schedule)
    out = f(x, t)
    assert np.all(np.isfinite(out))
    assert np.all(np.diff(out) > 0)
    # Far enough out, the level underflows: an error naming the tail, not
    # a clamped or infinite output.
    for x_far, tail in ((-1e3, "lower"), (1e3, "upper")):
        with pytest.raises(NumericError, match=f"{tail} tail"):
            f(np.array([0.0, x_far]), t)


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


@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
def test_pf_ode_is_the_rearrangement_at_both_steps(schedule):
    # At x = Q_t(u) the oracle must give Q_0(u) at every step size: the
    # v-grid resolves lam near 0, where OU's lam = sqrt(2t) is steep in t.
    u = (np.arange(256) + 0.5) / 256
    want = target_quantiles_1d(_BENCH_GMM, u)
    errors = {0.01: 0.0, 1e-3: 0.0}
    for t in (0.5, 1.0, 4.0, 10.0, 14.0):
        view = MarginalView(_BENCH_GMM, schedule, t)
        x = np.array([marginal_quantile_1d(view, q) for q in u])
        for step in errors:
            got = pf_ode_consistency(_BENCH_GMM, schedule, step)(x, t)
            errors[step] = max(errors[step], float(np.max(np.abs(got - want))))
    assert errors[0.01] <= 5e-7
    assert errors[1e-3] <= 1e-10


@pytest.mark.parametrize("schedule", [OU, make_ve()], ids=["ou", "ve"])
def test_pf_ode_forward_step_is_the_exact_flow(schedule):
    # RK4 forward over one partition step, from x = Q_{t_i}(u), against the
    # exact flow Q_{t_next}(F_{t_i}(x)) of the self-consistency loss, with
    # the gates of the backward test above.
    u = (np.arange(256) + 0.5) / 256
    errors = {0.01: 0.0, 1e-3: 0.0}
    for t_i, t_next in ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 4.0)):
        view = MarginalView(_BENCH_GMM, schedule, t_i)
        x = _mixture_quantiles_1d(*view.mixture_params(), u)
        want = consistency_oracle._flow(_BENCH_GMM, schedule, x, t_i, t_next)
        for step in errors:
            got = pf_ode_transport(_BENCH_GMM, schedule, x, t_i, t_next, step)
            errors[step] = max(errors[step], float(np.max(np.abs(got - want))))
    assert errors[0.01] <= 5e-7
    assert errors[1e-3] <= 1e-10


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
    f_ref = quantile_map(TWO_ATOM, OU)
    b = 50.0 * float(OU.alpha(t))
    x = np.array([-1e4, 1e4, np.nextafter(b, -math.inf), np.nextafter(b, math.inf)])
    np.testing.assert_array_equal(f_ode(x, t), f_ref(x, t))
    # Exactly on the separatrix the point stays on the saddle, where the
    # posterior mean is the midpoint.
    assert f_ode(np.array([b]), t)[0] == 50.0


# ---------------------------------------------------------------------------
# perturbed estimator


def test_quantile_perturbed_boundary(monkeypatch):
    solves = []
    solve = consistency_oracle.marginal_quantile_1d

    def counted(view, u):
        solves.append(u)
        return solve(view, u)

    monkeypatch.setattr(consistency_oracle, "marginal_quantile_1d", counted)
    fhat = quantile_perturbed(TWO_ATOM, OU, kappa=1e-4)
    exact_boundary = 50.0 * math.exp(-2.0)
    view = MarginalView(TWO_ATOM, OU, 2.0)
    a_t = solve(view, 0.5 + 1e-4 * 2.0 * 2.0)
    assert a_t > exact_boundary  # shifted toward the upper atom
    x = np.array([np.nextafter(a_t, 0.0), a_t])
    for _ in range(2):
        np.testing.assert_array_equal(fhat(x, 2.0), [0.0, 100.0])
    fhat.law(view.mixture_params(), 2.0)
    assert len(solves) == 1  # one solve per time, however often it is read
    # boundary is the stated quantile of the true marginal
    from cmlab import marginal_cdf_1d

    assert float(marginal_cdf_1d(view, a_t)) == pytest.approx(
        0.5 + 1e-4 * 4.0, abs=1e-9
    )


def test_quantile_perturbed_shifts_unequal_weights_by_kappa_t2():
    # Atoms 0 and 100 of weights 0.3 and 0.7, listed high atom first: the
    # boundary sits at the 0.3 + kappa t^2 quantile, so the law puts that
    # mass on the low atom, and the exact map puts 0.3 there.
    target = DiscreteTarget([100.0, 0.0], [0.7, 0.3])
    fhat = quantile_perturbed(target, OU, kappa=1e-3)
    for t in (0.5, 2.0, 10.0):
        mixture = MarginalView(target, OU, t).mixture_params()
        atoms, _, weights = fhat.law(mixture, t)
        assert atoms.tolist() == [0.0, 100.0]
        assert abs(weights[0] - (0.3 + 1e-3 * t * t)) <= 1e-12
        exact = quantile_map(target, OU).law(mixture, t)[2]
        assert abs(exact[0] - 0.3) <= 1e-12


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
    f = quantile_map(TWO_ATOM, OU)
    for t, seed in ((2.0, 11), (5.0, 12), (10.0, 13)):
        view = MarginalView(TWO_ATOM, OU, t)
        est = evaluation_error(fhat, f, view, 200_000, seed)
        assert abs(est.value - t * t) <= 4.0 * est.stderr


def test_evaluation_error_of_identical_fns_is_zero():
    f = quantile_map(TWO_ATOM, OU)
    est = evaluation_error(f, f, MarginalView(TWO_ATOM, OU, 1.0), 2000, 0)
    assert est.value == 0.0
    assert est.n == 2000


# ---------------------------------------------------------------------------
# self-consistency loss


def test_exact_oracle_has_zero_self_consistency_loss():
    part = TrainingPartition(1.0, 5)
    f = quantile_map(TWO_ATOM, OU)
    loss = consistency_loss(f, TWO_ATOM, OU, part, i=2, n=2000, seed=0)
    assert loss.value <= 1e-3 * GAP2
    assert loss.value == 0.0


@pytest.mark.parametrize("target, make_fhat", [
    (TWO_ATOM, lambda target: quantile_perturbed(target, OU, kappa=1e-2)),
    (DiscreteTarget([0.0, 100.0], [0.3, 0.7]),
     lambda target: quantile_perturbed(target, OU, kappa=1e-2)),
    (_BENCH_GMM, lambda target: pf_ode_consistency(target, OU, step=0.05)),
], ids=["equal_atoms", "unequal_atoms", "pfode_gmm"])
def test_step_zero_loss_is_the_evaluation_error_at_t1(target, make_fhat):
    # fhat(., 0) is the identity and the exact flow from t_1 back to 0 is
    # quantile_map, so the step-0 loss is the evaluation error at t_1.
    fhat = make_fhat(target)
    loss = consistency_loss(fhat, target, OU, TrainingPartition(0.5, 4), 0, 1000, 9)
    view = MarginalView(target, OU, 0.5)
    want = evaluation_error(fhat, quantile_map(target, OU), view, 1000, 9)
    assert _bits(loss) == _bits(want)
    assert loss.value > 0.0


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
        return chunk_moments((fa(x) - fb(x)) ** 2)

    return merge_moments(map_chunks(chunk, n, seed))


def _bits(est):
    return est.value.hex(), est.stderr.hex(), est.n


@pytest.mark.parametrize("n, seed", [(40_000, 21), (10, 3)],
                         ids=["chunks", "empty_chunks"])
def test_evaluation_error_bits_match_chunk_loop(n, seed):
    fhat = quantile_perturbed(TWO_ATOM, OU, kappa=1e-3)
    f = quantile_map(TWO_ATOM, OU)
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
    view = MarginalView(target, OU, t_next)
    before = MarginalView(target, OU, t_i).mixture_params()

    def back(y):
        return fhat(_rearrange_1d(y, view.mixture_params(), before), t_i)

    got = consistency_loss(fhat, target, OU, part, i=1, n=1000, seed=9)
    want = _chunked_mse(view, lambda y: fhat(y, t_next), back, 1000, 9)
    assert _bits(got) == _bits(want)
    assert got.value > 0.0
