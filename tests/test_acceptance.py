"""End-to-end acceptance checks.

Each test evaluates one advertised guarantee of the package at its stated
tolerance and budget, and prints exactly one ``[C<k>] name: PASS/FAIL``
line (visible under ``pytest -s``) before asserting.  Numbers in the line
are the measured quantities the verdict was based on.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import scipy.stats

import cmlab
from cmlab import (
    BoundInputs,
    ConsistencyFn,
    DiscreteTarget,
    GaussianMixtureTarget,
    MarginalView,
    SamplingTimeSchedule,
    design_halving_ve,
    design_two_step_ou,
    design_uniform,
    evaluation_error,
    geometry,
    kl_bound,
    kl_grid,
    make_ou,
    make_ve,
    marginal_pdf,
    marginal_quantile_1d,
    multistep_sample,
    pf_ode_consistency,
    quantile_map,
    quantile_perturbed,
    sample_marginal,
    sde_contraction_bound,
    sigma_eps_optimal,
    stage_laws,
    tv_bound,
    tv_grid,
    two_step_ou_leading_terms,
    w2_bound_modified,
    w2_empirical_1d,
    w2_stderr_proxy,
    w2_vs_target_1d,
)
from cmlab.cli import cmd_reproduce_sim, measure_eps_over_delta
from cmlab.metrics import _gaussian_tv

OU = make_ou()
TWO_ATOM = DiscreteTarget([[0.0], [100.0]], [0.5, 0.5])


def report(k, name, ok, detail, t0):
    elapsed = time.perf_counter() - t0
    print(f"[C{k}] {name}: {'PASS' if ok else 'FAIL'} ({detail}, {elapsed:.1f}s)")
    return elapsed


def test_c1_perturbed_estimator_mse_scaling():
    t0 = time.perf_counter()
    fhat = quantile_perturbed(TWO_ATOM, OU, kappa=1e-4)
    f = quantile_map(TWO_ATOM, OU)
    cases = [
        (2.0, 4_000_000, np.random.SeedSequence([1, 2]), 0.15),
        (10.0, 1_000_000, np.random.SeedSequence([1, 10]), 0.05),
    ]
    rels = []
    for t, n, seed, _tol in cases:
        est = evaluation_error(fhat, f, MarginalView(TWO_ATOM, OU, t), n, seed)
        rels.append(abs(est.value - t * t) / (t * t))
    ok = all(rel < tol for rel, (_, _, _, tol) in zip(rels, cases))
    elapsed = report(
        1,
        "perturbed-estimator MSE = t^2",
        ok,
        f"rel err t=2: {rels[0]:.3f} (<0.15), t=10: {rels[1]:.3f} (<0.05)",
        t0,
    )
    assert ok
    assert elapsed < 30.0


def test_c2_exact_oracle_sampler_recovers_target():
    t0 = time.perf_counter()
    f = quantile_map(TWO_ATOM, OU)
    taus = design_two_step_ou(100.0, 1.0, 1.0)
    n = 100_000
    x0 = multistep_sample(f, OU, taus, n, seed=14)
    out = x0[-1]
    p = float((out == 0.0).mean())
    se = math.sqrt(0.25 / n)
    w2 = w2_vs_target_1d(out, TWO_ATOM)
    ok = abs(p - 0.5) < 5.0 * se and w2 < 1.0
    elapsed = report(
        2,
        "exact-oracle sampling hits the target",
        ok,
        f"p(atom 0) = {p:.5f} (5se = {5 * se:.5f}), W2 = {w2:.4f} (<1.0)",
        t0,
    )
    assert ok
    assert elapsed < 10.0


def test_c3_pf_ode_agrees_with_threshold_oracle():
    t0 = time.perf_counter()
    f_ode = pf_ode_consistency(TWO_ATOM, OU)
    f_ref = quantile_map(TWO_ATOM, OU)
    seeds = np.random.SeedSequence(77).spawn(3)
    n = 10_000
    worst_agree = 1.0
    all_in_band = True
    for t, seed in zip((1.0, 2.0, 5.0), seeds):
        view = MarginalView(TWO_ATOM, OU, t)
        x = sample_marginal(view, n, seed)
        same = f_ode(x, t) == f_ref(x, t)
        agree = float(same.mean())
        worst_agree = min(worst_agree, agree)
        if not np.all(same):
            band_lo = marginal_quantile_1d(view, 0.5 - 1e-3)
            band_hi = marginal_quantile_1d(view, 0.5 + 1e-3)
            bad = x[~same]
            all_in_band &= bool(np.all((bad >= band_lo) & (bad <= band_hi)))
    ok = worst_agree >= 0.999 and all_in_band
    elapsed = report(
        3,
        "PF-ODE oracle matches the threshold oracle",
        ok,
        f"worst agreement = {worst_agree:.4%} (>=99.9%), "
        f"disagreements in 1e-3-quantile band: {all_in_band}",
        t0,
    )
    assert ok
    assert elapsed < 60.0


def test_c4_w2_within_modified_bound_across_schedules():
    t0 = time.perf_counter()
    fhat = quantile_perturbed(TWO_ATOM, OU, kappa=1e-4)
    seeds = np.random.SeedSequence(2024).spawn(5)
    rate = measure_eps_over_delta(fhat, TWO_ATOM, OU,
                                  SamplingTimeSchedule((14.0,)), seeds[0])
    geo = geometry(TWO_ATOM)
    schedules = [
        ("one_step", SamplingTimeSchedule((14.0,))),
        ("two_step", design_two_step_ou(100.0, 1.0, 1.0)),
        ("uniform", design_uniform(14.0, 5, 1.0)),
        ("halving", design_halving_ve(14.0, 1.0)),
    ]
    n = 100_000
    min_slack = math.inf
    ok = True
    for (label, taus), seed in zip(schedules, seeds[1:]):
        x0 = multistep_sample(fhat, OU, taus, n, seed)
        for i in range(1, taus.n_steps + 1):
            stage = x0[i - 1]
            w2 = w2_vs_target_1d(stage, TWO_ATOM)
            proxy = w2_stderr_proxy(stage, TWO_ATOM)
            bound = w2_bound_modified(
                BoundInputs(
                    OU,
                    taus.truncated(i),
                    rate,
                    diameter=geo.diameter,
                    second_moment=geo.second_moment,
                )
            ).total
            min_slack = min(min_slack, bound + 3.0 * proxy - w2)
            ok &= w2 <= bound + 3.0 * proxy
    elapsed = report(
        4,
        "empirical W2 within the refined bound at every stage",
        ok,
        f"measured eps/delta = {rate:.6f}, 12 stages, "
        f"min slack (bound + 3se - w2) = {min_slack:.4f}",
        t0,
    )
    assert ok
    assert elapsed < 120.0


def test_c5_two_step_beats_its_own_start_and_tracks_baselines(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "sim.csv"
    rc = cmd_reproduce_sim(out=str(out))
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    ts = [(int(c[1]), float(c[3])) for c in rows if c[0] == "two_step"]
    base = [float(c[3]) for c in rows if c[0] != "two_step"]
    ts_first = [w for s, w in ts if s == 1][0]
    ts_final = [w for s, w in ts if s == max(s for s, _ in ts)][0]
    best_base = min(base)
    ok = ts_final < ts_first and ts_final <= 1.5 * best_base
    report(
        5,
        "two-step run improves on its first stage and tracks baselines",
        ok,
        f"final = {ts_final:.3f} < stage-1 = {ts_first:.3f}; "
        f"best baseline stage = {best_base:.3f}, ratio = {ts_final / best_base:.3f} (<=1.5)",
        t0,
    )
    assert ok


def test_c6_two_step_leading_term_ratio():
    t0 = time.perf_counter()
    ratio = two_step_ou_leading_terms(100.0, 1.0, 1.0).ratio
    ok = 0.60 <= ratio <= 0.72
    elapsed = report(
        6,
        "two-step vs one-step leading-term ratio",
        ok,
        f"ratio = {ratio:.6f} in [0.60, 0.72]",
        t0,
    )
    assert ok
    assert elapsed < 1.0


def test_c7_stage_laws_respect_kl_bound():
    t0 = time.perf_counter()
    fhat = quantile_perturbed(TWO_ATOM, OU, kappa=1e-4)
    geo = geometry(TWO_ATOM)
    schedules = [
        design_two_step_ou(100.0, 1.0, 1.0),
        design_uniform(14.0, 5, 1.0),
        design_halving_ve(14.0, 1.0),
    ]
    worst_ratio = 0.0
    for taus in schedules:
        laws, _ = stage_laws(OU, taus, fhat)
        inputs = BoundInputs(
            OU, taus, 1.0, second_moment=geo.second_moment
        )
        for i, q_law in enumerate(laws, start=1):
            # the noisy law of stage i, as the view of a mixture at t = 0
            q_view = MarginalView(GaussianMixtureTarget(q_law[0][:, None], *q_law[1:]), OU, 0.0)
            p_view = MarginalView(TWO_ATOM, OU, taus.taus[i - 1])
            means_q, var_q, _ = q_view.mixture_params()
            means_p, var_p, _ = p_view.mixture_params()
            sd = math.sqrt(max(float(var_q.max()), float(var_p.max())))
            lo = min(float(means_q.min()), float(means_p.min())) - 12.0 * sd
            hi = max(float(means_q.max()), float(means_p.max())) + 12.0 * sd
            kl = kl_grid(
                lambda x: marginal_pdf(q_view, x),
                lambda x: marginal_pdf(p_view, x),
                lo,
                hi,
                20001,
            ).value
            bound = kl_bound(inputs, i)
            worst_ratio = max(worst_ratio, kl / bound)
    ok = worst_ratio <= 1.0
    elapsed = report(
        7,
        "sampler stage laws within the accumulated-KL bound",
        ok,
        f"worst KL/bound over all stages of 3 schedules = {worst_ratio:.4f} (<=1.0)",
        t0,
    )
    assert ok
    assert elapsed < 30.0


def test_c8_noising_contracts_kl_against_w2():
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(88))
    ve = make_ve()
    worst_margin = -math.inf
    for _ in range(100):
        while True:
            a, b, c, d = rng.uniform(-3.0, 3.0, size=4)
            if abs(a - b) >= 1e-3 and abs(c - d) >= 1e-3:
                break
        t = float(rng.uniform(0.5, 3.0))
        sched = OU if rng.random() < 0.5 else ve
        p = DiscreteTarget([[a], [b]], [0.5, 0.5])
        q = DiscreteTarget([[c], [d]], [0.5, 0.5])
        # exhaustive coupling of two equal-weight atom pairs
        w2_sq = min(
            0.5 * ((a - c) ** 2 + (b - d) ** 2),
            0.5 * ((a - d) ** 2 + (b - c) ** 2),
        )
        vp = MarginalView(p, sched, t)
        vq = MarginalView(q, sched, t)
        sd = math.sqrt(float(vp.mixture_params()[1].max()))
        centers = [a, b, c, d]
        alpha = float(sched.alpha(t))
        lo = alpha * min(centers) - 12.0 * sd
        hi = alpha * max(centers) + 12.0 * sd
        kl = kl_grid(
            lambda x: marginal_pdf(vp, x),
            lambda x: marginal_pdf(vq, x),
            lo,
            hi,
            20001,
        ).value
        bound = sde_contraction_bound(sched, t, w2_sq)
        worst_margin = max(worst_margin, kl - bound)
    # single-atom pair: the bound is an equality (both laws are Gaussian)
    sp = MarginalView(DiscreteTarget([[1.3]], [1.0]), OU, 1.7)
    sq = MarginalView(DiscreteTarget([[-0.7]], [1.0]), OU, 1.7)
    kl_single = kl_grid(
        lambda x: marginal_pdf(sp, x),
        lambda x: marginal_pdf(sq, x),
        -13.0,
        14.0,
        20001,
    ).value
    eq = sde_contraction_bound(OU, 1.7, (1.3 + 0.7) ** 2)
    rel = abs(kl_single - eq) / eq
    ok = worst_margin <= 1e-9 and rel <= 1e-6
    elapsed = report(
        8,
        "noising KL contraction against exhaustive-coupling W2",
        ok,
        f"worst (KL - bound) over 100 pairs = {worst_margin:.2e} (<=1e-9), "
        f"single-pair equality rel err = {rel:.2e} (<=1e-6)",
        t0,
    )
    assert ok
    assert elapsed < 60.0


def test_c9_tv_bound_for_smoothed_gaussian_run():
    t0 = time.perf_counter()
    target = GaussianMixtureTarget([[0.0]], [1.0], [1.0])
    f = quantile_map(target, OU)

    def fhat_fn(x, t):
        return (1.0 + 0.01 * t) * f(x, t)

    def fhat_law(mixture, t):
        means, variances, weights = f.law(mixture, t)
        return (1.0 + 0.01 * t) * means, (1.0 + 0.01 * t) ** 2 * variances, weights

    fhat = ConsistencyFn(fhat_fn, law=fhat_law)
    taus = SamplingTimeSchedule((10.0, 2.0))
    rate = measure_eps_over_delta(
        fhat, target, OU, taus, np.random.SeedSequence([9, 0xC9])
    )
    geo = geometry(target)
    sigma_eps = sigma_eps_optimal(taus.taus[-1], rate, 1.0, 1, geo.log_smoothness)

    (mean,), (var,), _ = stage_laws(OU, taus, fhat)[1][-1]
    var_s = var + sigma_eps**2

    tv = tv_grid(
        lambda x: scipy.stats.norm.pdf(x, loc=mean, scale=math.sqrt(var_s)),
        lambda x: scipy.stats.norm.pdf(x, loc=0.0, scale=1.0),
        min(mean - 13.0, -13.0),
        max(mean + 13.0, 13.0),
        20001,
    ).value
    bound = tv_bound(
        BoundInputs(
            OU,
            taus,
            rate,
            second_moment=geo.second_moment,
            d=1,
            smoothness=geo.log_smoothness,
            sigma_eps=sigma_eps,
        )
    ).total
    ok = tv <= bound
    elapsed = report(
        9,
        "smoothed output within the TV bound",
        ok,
        f"measured eps/delta = {rate:.6f}, sigma_eps = {sigma_eps:.6f}, "
        f"TV = {tv:.6f} <= bound = {bound:.6f}",
        t0,
    )
    assert ok
    assert elapsed < 60.0


def test_c10_metric_implementations_vs_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_w2 = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        a = rng.normal(0.0, 2.0, n)
        b = rng.normal(0.5, 3.0, n)
        best = min(
            sum((x - y) ** 2 for x, y in zip(a, perm))
            for perm in itertools.permutations(b)
        )
        oracle = math.sqrt(best / n)
        worst_w2 = max(worst_w2, abs(w2_empirical_1d(a, b) - oracle))
    worst_tv = worst_kl = 0.0
    for _ in range(5):
        m1, m2 = rng.normal(0.0, 1.0, 2)
        s = float(np.exp(rng.normal(0.0, 0.2)))
        tv = tv_grid(
            lambda x: scipy.stats.norm.pdf(x, m1, s),
            lambda x: scipy.stats.norm.pdf(x, m2, s),
            min(m1, m2) - 13 * s,
            max(m1, m2) + 13 * s,
            20001,
        ).value
        closed = 2.0 * scipy.stats.norm.cdf(abs(m1 - m2) / (2.0 * s)) - 1.0
        worst_tv = max(worst_tv, abs(tv - closed))
        s2 = float(np.exp(rng.normal(0.0, 0.2)))
        lo = min(m1 - 13 * s, m2 - 13 * s2)
        hi = max(m1 + 13 * s, m2 + 13 * s2)
        kl = kl_grid(
            lambda x: scipy.stats.norm.pdf(x, m1, s),
            lambda x: scipy.stats.norm.pdf(x, m2, s2),
            lo,
            hi,
            20001,
        ).value
        closed_kl = (
            math.log(s2 / s) + (s * s + (m1 - m2) ** 2) / (2.0 * s2 * s2) - 0.5
        )
        worst_kl = max(worst_kl, abs(kl - closed_kl))
        # unequal variances: the closed form through the density crossings
        tv = tv_grid(
            lambda x: scipy.stats.norm.pdf(x, m1, s),
            lambda x: scipy.stats.norm.pdf(x, m2, s2),
            lo,
            hi,
            20001,
        ).value
        worst_tv = max(worst_tv, abs(tv - _gaussian_tv(m1, s * s, m2, s2 * s2)))
    ok = worst_w2 <= 1e-9 and worst_tv <= 1e-5 and worst_kl <= 1e-5
    elapsed = report(
        10,
        "metrics against assignment/closed-form oracles",
        ok,
        f"max |W2 - assignment oracle| = {worst_w2:.2e}, "
        f"max TV err = {worst_tv:.2e}, max KL err = {worst_kl:.2e} (<=1e-5)",
        t0,
    )
    assert ok
    assert elapsed < 10.0


def test_c11_cli_reproducibility(tmp_path):
    t0 = time.perf_counter()
    # The CLI runs from tmp_path, so a relative PYTHONPATH entry (such as
    # ``src`` for an uninstalled checkout) would not resolve there; put the
    # absolute location of the package this test imported in front.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cmlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The sampler draws noise in one lane per CPU the process may use: the
    # two reruns inherit this process's CPUs, and a third run, where the
    # platform can pin, is held to one CPU and so to one lane.
    runs = {"a": None, "b": None}
    if hasattr(os, "sched_setaffinity"):
        one_cpu = {min(os.sched_getaffinity(0))}
        runs["one_cpu"] = lambda: os.sched_setaffinity(0, one_cpu)
    outputs = {}
    for name, preexec in runs.items():
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "cmlab.cli", "reproduce-sim",
                "--n", "2000", "--seed", "3", "--out", str(out),
            ],
            capture_output=True,
            env=env,
            cwd=tmp_path,
            preexec_fn=preexec,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[name] = out.read_bytes()
    rerun_same = outputs["a"] == outputs["b"]
    if "one_cpu" in outputs:
        pinned_same = outputs["one_cpu"] == outputs["a"]
        pinned_note = f"1 CPU vs inherited CPUs identical: {pinned_same}"
    else:
        pinned_same, pinned_note = True, "1-CPU run skipped (no sched_setaffinity)"
    ok = rerun_same and pinned_same
    elapsed = report(
        11,
        "CLI output byte-identical across reruns and worker counts",
        ok,
        f"rerun identical: {rerun_same}, {pinned_note}",
        t0,
    )
    assert ok
    assert elapsed < 60.0
