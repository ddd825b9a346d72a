#!/usr/bin/env python3
"""Self-test of the benchmark's output checks; runs in a few seconds.

    python3 bench/selftest.py

For each workload it builds the rows a correct program would write, from
the formulas in ``checks.py``, and confirms that they pass.  It then feeds
each check a wrong answer just beyond the check's tolerance and confirms
that the check fails.  Exits 1 if any check misses a wrong answer or
rejects a right one.  cmlab itself is not run.
"""

from __future__ import annotations

import math

import checks
from run import PFODE_TARGET, Verdicts

SIM = {"n": 1_000_000, "radius": 100.0, "eps": 1.0, "horizon": 14.0, "n_uniform": 5,
       "gap": 100.0, "kappa": 1e-4, "rate": 1.0}
GAUSS = {"label": "gauss_tv", "taus": (4.0, 2.0, 1.0, 0.5), "rate": 0.01,
         "m0": 2.2, "v0": 0.45, "w2_noise": 0.006}
PFODE = {"label": "pfode_gmm", "taus": (4.0, 1.0), "rate": 0.05, "target": PFODE_TARGET}


def sim_rows() -> list[dict]:
    rows = []
    geo = checks.geometry({"type": "discrete", "atoms": [[0.0, 0.5], [100.0, 0.5]]})
    for label, taus in checks.sim_schedules(100.0, 1.0, 1.0, 14.0, 5).items():
        bounds = checks.stage_bounds("ou", taus, 1.0, geo)
        for i, (tau, r) in enumerate(zip(taus, checks.two_atom_weights(taus, 100.0, 1e-4))):
            rows.append({"schedule_label": label, "stage": i + 1, "tau": tau,
                         "w2": 100.0 * math.sqrt(abs(r - 0.5)), **bounds[i]})
    return rows


def gauss_rows() -> list[dict]:
    m0, v0, taus = GAUSS["m0"], GAUSS["v0"], GAUSS["taus"]
    geo = checks.geometry({"type": "gmm", "components": [[m0, v0, 1.0]]})
    sigma_eps = math.sqrt(taus[-1] * GAUSS["rate"] / (4.0 * geo["L"]))
    bounds = checks.stage_bounds("ou", taus, GAUSS["rate"], geo, sigma_eps)
    rows = []
    for i, (mean, var) in enumerate(checks.gaussian_stage_outputs(taus, m0, v0)):
        rows.append({"schedule_label": "gauss_tv", "stage": i + 1, "tau": taus[i],
                     "w2": math.hypot(mean - m0, math.sqrt(var) - math.sqrt(v0)),
                     "tv": checks.gaussian_tv(mean, var + sigma_eps**2, m0, v0),
                     **bounds[i]})
    return rows


def pfode_rows() -> list[dict]:
    geo = checks.geometry(PFODE_TARGET)
    bounds = checks.stage_bounds("ve", PFODE["taus"], PFODE["rate"], geo)
    return [{"schedule_label": "pfode_gmm", "stage": i + 1, "tau": tau, "w2": 0.05,
             **bounds[i]} for i, tau in enumerate(PFODE["taus"])]


def edited(rows: list[dict], index: int, **changes) -> list[dict]:
    out = [dict(r) for r in rows]
    for key, fn in changes.items():
        out[index][key] = fn(out[index][key])
    return out


def sim_se(index: int) -> float:
    rows = sim_rows()
    label = rows[index]["schedule_label"]
    taus = tuple(r["tau"] for r in rows if r["schedule_label"] == label)
    r = checks.two_atom_weights(taus, 100.0, 1e-4)[rows[index]["stage"] - 1]
    return math.sqrt(r * (1.0 - r) / SIM["n"])


def cases():
    """(description, check, rows or data, whether the check must pass)."""
    sim, gauss, pf = sim_rows(), gauss_rows(), pfode_rows()
    last = len(sim) - 1
    se = sim_se(last)
    yield "sim: correct rows", lambda r: checks.check_sim(r, SIM), sim, True
    yield "sim: |p - 1/2| off by 4 SE", lambda r: checks.check_sim(r, SIM), \
        edited(sim, last, w2=lambda w: 100.0 * math.sqrt((w / 100.0) ** 2 + 4 * se)), True
    yield "sim: |p - 1/2| off by 6 SE", lambda r: checks.check_sim(r, SIM), \
        edited(sim, last, w2=lambda w: 100.0 * math.sqrt((w / 100.0) ** 2 + 6 * se)), False
    yield "sim: w2 20% high", lambda r: checks.check_sim(r, SIM), \
        edited(sim, 0, w2=lambda w: 1.2 * w), False
    yield "sim: w2 above bound_modified", lambda r: checks.check_sim(r, SIM), \
        edited(sim, 3, w2=lambda w: 1e3), False
    for col in ("bound_general", "bound_modified", "kl_bound"):
        yield f"sim: {col} off by 1e-10 relative", lambda r: checks.check_sim(r, SIM), \
            edited(sim, 4, **{col: lambda v: v * (1 + 1e-10)}), False
    yield "sim: a tau one step off", lambda r: checks.check_sim(r, SIM), \
        edited(sim, 2, tau=lambda t: t + 1.0), False
    tol = 3.0 * GAUSS["w2_noise"]  # output sd < 1 at every stage
    yield "gauss: correct rows", lambda r: checks.check_gauss(r, GAUSS), gauss, True
    yield "gauss: w2 off by 4x tolerance", lambda r: checks.check_gauss(r, GAUSS), \
        edited(gauss, 0, w2=lambda w: w + 4 * tol), False
    yield "gauss: tv off by 2e-6", lambda r: checks.check_gauss(r, GAUSS), \
        edited(gauss, 2, tv=lambda v: v + 2e-6), False
    yield "gauss: tv off by 5e-7", lambda r: checks.check_gauss(r, GAUSS), \
        edited(gauss, 2, tv=lambda v: v + 5e-7), True
    yield "gauss: tv 1% high", lambda r: checks.check_gauss(r, GAUSS), \
        edited(gauss, 1, tv=lambda v: 1.01 * v), False
    yield "gauss: tv_bound off by 1e-10 relative", lambda r: checks.check_gauss(r, GAUSS), \
        edited(gauss, 3, tv_bound=lambda v: v * (1 + 1e-10)), False
    yield "pfode: correct rows", lambda r: checks.check_pfode(r, PFODE), pf, True
    yield "pfode: w2 above bound_modified", lambda r: checks.check_pfode(r, PFODE), \
        edited(pf, 1, w2=lambda w: 100.0), False
    yield "pfode: bound_modified off by 1e-10 relative", \
        lambda r: checks.check_pfode(r, PFODE), \
        edited(pf, 0, bound_modified=lambda v: v * (1 + 1e-10)), False
    _, want = checks.rearrangement_points(PFODE_TARGET, 1.0, 64, 0)
    for shift, ok in ((0.0, True), (5e-7, True), (1e-4, False), (2e-6, False)):
        yield f"pfode: oracle outputs shifted by {shift:g}", \
            lambda y: checks.check_rearrangement(y, want, 1.0), want + shift, ok
    shifted_one = want.copy()
    shifted_one[17] += 1e-4
    yield "pfode: one oracle output shifted by 1e-4", \
        lambda y: checks.check_rearrangement(y, want, 1.0), shifted_one, False
    verdicts = Verdicts(lambda rows: [])
    verdicts(b"schedule_label,stage,tau,w2\nx,1,1.0,0.5\n")
    yield "any: a second job writes other bytes", verdicts, \
        b"schedule_label,stage,tau,w2\nx,1,1.0,0.50000001\n", False
    yield "any: a second job writes the same bytes", verdicts, \
        b"schedule_label,stage,tau,w2\nx,1,1.0,0.5\n", True


def main() -> int:
    missed = 0
    for description, check, data, should_pass in cases():
        errors = check(data)
        ok = (not errors) == should_pass
        missed += not ok
        verdict = "ok  " if ok else "MISS"
        expect = "passes" if should_pass else "fails"
        print(f"{verdict} {description}: check {expect}"
              + ("" if should_pass or not errors else f" ({errors[0][:70]})"))
    print(f"{missed} of the checks misjudged an answer" if missed else "all checks judged right")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
