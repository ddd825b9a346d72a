import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import (
    NumericError,
    TrainingPartition,
    contraction,
    custom_from_csv,
    drift_diffusion,
    make_custom,
    make_ou,
    make_ve,
)

OU = make_ou()
VE = make_ve()


def mirror_ou(n_points=2001, horizon=5.0):
    """Tabulated copy of the OU schedule, exercising the interpolation path."""
    t = np.linspace(0.0, horizon, n_points)
    return make_custom(t, np.exp(-t), -np.expm1(-2.0 * t))


def test_ou_values():
    assert float(OU.alpha(0.0)) == 1.0
    assert float(OU.sigma2(0.0)) == 0.0
    assert float(OU.alpha(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert float(OU.sigma2(2.0)) == pytest.approx(1.0 - math.exp(-4.0), rel=1e-15)
    assert float(OU.sigma(2.0)) == pytest.approx(math.sqrt(1.0 - math.exp(-4.0)), rel=1e-15)


def test_ve_values():
    assert float(VE.alpha(0.0)) == 1.0
    assert float(VE.alpha(7.3)) == 1.0
    assert float(VE.sigma2(3.0)) == 9.0
    assert float(VE.sigma2(0.0)) == 0.0


def test_closed_form_drift():
    for t in (0.5, 1.0, 3.0):
        h, g2 = drift_diffusion(OU, t)
        assert float(h) == -1.0
        assert float(g2) == 2.0
        h, g2 = drift_diffusion(VE, t)
        assert float(h) == 0.0
        assert float(g2) == pytest.approx(2.0 * t, rel=1e-15)


def test_drift_is_vectorized():
    t = np.array([0.5, 1.0, 2.0])
    h, g2 = drift_diffusion(VE, t)
    np.testing.assert_allclose(np.asarray(g2), 2.0 * t, rtol=1e-15)


def test_custom_mirror_matches_ou():
    cust = mirror_ou()
    t = np.array([0.25, 0.77, 1.5, 3.33, 4.9])
    np.testing.assert_allclose(cust.alpha(t), np.exp(-t), rtol=1e-8)
    np.testing.assert_allclose(cust.sigma2(t), -np.expm1(-2 * t), rtol=1e-8)


def test_custom_mirror_interpolant_derivative_drift():
    # The custom path differentiates its monotone cubics exactly; against
    # the tabulated OU, (h, g2) must recover (-1, 2) up to interpolation
    # error.
    cust = mirror_ou()
    for t in (0.5, 1.0, 2.5, 4.0):
        h, g2 = drift_diffusion(cust, t)
        assert abs(float(h) + 1.0) < 1e-5
        assert abs(float(g2) - 2.0) < 1e-4


def test_custom_drift_at_time_zero():
    # The interpolant derivatives exist at the table's first row, so the
    # drift is finite at t = 0, within the mirror-OU tolerances.
    h, g2 = (float(v) for v in drift_diffusion(mirror_ou(), 0.0))
    assert math.isfinite(h) and math.isfinite(g2)
    assert abs(h + 1.0) < 1e-5
    assert abs(g2 - 2.0) < 1e-4


def test_custom_domain_is_enforced():
    cust = mirror_ou(horizon=2.0)
    with pytest.raises(NumericError):
        cust.check_time(2.5)
    # within the tabulated range everything works
    cust.check_time(1.999)


def test_make_custom_validation():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        make_custom(t, [1.0, 0.5], [0.0, 1.0])  # length mismatch
    with pytest.raises(ValueError):
        make_custom([0.5, 1.0], [1.0, 0.5], [0.0, 1.0])  # does not start at 0
    with pytest.raises(ValueError):
        make_custom(t, [1.0, -0.5, 0.2], [0.0, 1.0, 2.0])  # alpha <= 0
    with pytest.raises(ValueError):
        make_custom(t, [1.0, 0.5, 0.2], [0.0, 2.0, 1.0])  # sigma2 decreasing
    with pytest.raises(ValueError):
        make_custom([0.0, 2.0, 1.0], [1.0, 0.5, 0.7], [0.0, 1.0, 2.0])  # t unsorted


def test_make_custom_rejects_negative_diffusion():
    # sigma2 stops growing while alpha keeps growing, so on (1, 2)
    # g2 = sigma2' - 2 h sigma2 = -2 h sigma2 < 0.
    with pytest.raises(ValueError, match="g2"):
        make_custom([0.0, 1.0, 2.0], [1.0, 1.5, 2.0], [0.0, 0.5, 0.5])
    # the tabulated OU loads although its interpolated g2 dips below 2
    mirror_ou()


def test_custom_from_csv_roundtrip(tmp_path):
    t = np.linspace(0.0, 3.0, 301)
    lines = ["t,alpha,sigma2"]
    lines += [f"{ti},{math.exp(-ti)},{-math.expm1(-2 * ti)}" for ti in t]
    path = tmp_path / "sched.csv"
    path.write_text("\n".join(lines) + "\n")
    sched = custom_from_csv(path)
    assert sched.kind == "custom"
    assert float(sched.alpha(1.5)) == pytest.approx(math.exp(-1.5), rel=1e-8)


def test_custom_from_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,a,s2\n0,1,0\n1,0.5,0.75\n")
    with pytest.raises(ValueError):
        custom_from_csv(path)


def test_contraction_values():
    # OU: alpha^2/sigma^2 = 1/(e^{2t} - 1); value at t=2 checked against
    # 50-digit decimal arithmetic.
    assert float(contraction(OU, 2.0)) == pytest.approx(0.018657360363774047, rel=1e-12)
    assert float(contraction(VE, 2.0)) == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(NumericError):
        contraction(OU, 0.0)


def test_contraction_strictly_decreasing():
    t = np.linspace(1e-3, 12.0, 1000)
    for sched in (OU, VE):
        c = np.asarray(contraction(sched, t))
        assert np.all(np.diff(c) < 0)


def test_negative_time_rejected():
    with pytest.raises(NumericError):
        OU.check_time(-0.1)
    with pytest.raises(NumericError):
        contraction(VE, np.array([1.0, -2.0]))


@pytest.mark.parametrize("sched_name", ["ou", "ve", "custom"])
def test_euler_maruyama_kernel_consistency(sched_name):
    """(h, g2) must be the SDE coefficients of the (alpha, sigma2) kernel.

    One explicit Euler-Maruyama step of dx = h x dt + g dW from t = 1 has
    conditional mean factor 1 + h*dt and variance g2*dt; the exact kernel
    over the same step has factor alpha(t+dt)/alpha(t) and variance
    sigma2(t+dt) - (alpha(t+dt)/alpha(t))^2 sigma2(t).  They agree to O(dt).
    """
    sched = {"ou": OU, "ve": VE, "custom": mirror_ou}[sched_name]
    if sched_name == "custom":
        sched = sched()
    t, dt = 1.0, 1e-3
    h, g2 = (float(v) for v in drift_diffusion(sched, t))
    ratio = float(sched.alpha(t + dt)) / float(sched.alpha(t))
    kernel_var = float(sched.sigma2(t + dt)) - ratio**2 * float(sched.sigma2(t))
    assert ratio == pytest.approx(1.0 + h * dt, rel=1e-2)
    assert kernel_var == pytest.approx(g2 * dt, rel=1e-2)


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(min_value=0.01, max_value=8.0),
    t=st.floats(min_value=0.01, max_value=8.0),
)
def test_ou_kernel_semigroup(s, t):
    # Noising for time s and then for time t equals noising for s + t.
    a_comp = float(OU.alpha(s)) * float(OU.alpha(t))
    v_comp = float(OU.alpha(t)) ** 2 * float(OU.sigma2(s)) + float(OU.sigma2(t))
    assert a_comp == pytest.approx(float(OU.alpha(s + t)), rel=1e-12)
    assert v_comp == pytest.approx(float(OU.sigma2(s + t)), rel=1e-9)


def test_training_partition():
    part = TrainingPartition(0.5, 4)
    assert part.horizon == 2.0
    np.testing.assert_allclose(part.points(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert part.time_of(3) == 1.5
    with pytest.raises(NumericError):
        part.time_of(5)
    with pytest.raises(ValueError):
        TrainingPartition(0.0, 4)
    with pytest.raises(ValueError):
        TrainingPartition(1.0, 0)
