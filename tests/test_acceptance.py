"""Acceptance gate: the eight shipping criteria, one test and one verdict line each.

Each test prints "[PASS] criterion-k: ..." (or "[FAIL] ...") before asserting,
so a verbose run shows one line per criterion either way.  Tolerances and
seeds are fixed; nothing here is stochastic at test time.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from cdmafusion import (
    DetectorSpec,
    McConfig,
    SystemParams,
    beta0,
    cross_term_experiment,
    estimate,
    exact_performance,
    large_alpha_pe,
    mil_residual_experiment,
    quadratic_form_convergence,
    sensors_for_load,
    single_sensor_pe,
)
from cdmafusion.spreading import generate, load
from conftest import q, zero_threshold_pe

MASTER = 20240816

DEFAULTS = dict(P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0, p0=0.5)


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _derived(stream: int, i: int) -> int:
    return int(np.random.SeedSequence(entropy=MASTER, spawn_key=(stream, i)).generate_state(1, np.uint64)[0])


def test_criterion_1_closed_form_vs_monte_carlo():
    # 10 instances spanning N in {4, 16, 64}, load in {0.5, 1, 2},
    # threshold in {0, ln 3}; closed form within 3 binomial standard
    # errors of a 1e6-trial simulation, total runtime under 5 minutes
    instances = [
        (4, 0.5, 0.0), (4, 1.0, math.log(3.0)), (4, 2.0, 0.0),
        (16, 0.5, math.log(3.0)), (16, 1.0, 0.0), (16, 2.0, math.log(3.0)),
        (64, 0.5, 0.0), (64, 1.0, math.log(3.0)), (64, 2.0, 0.0), (64, 2.0, math.log(3.0)),
    ]
    start = time.monotonic()
    worst = 0.0
    for i, (N, alpha, tau) in enumerate(instances):
        params = SystemParams(N=N, Ns=sensors_for_load(alpha, N), **DEFAULTS)
        spec = DetectorSpec(criterion="fixed", tau_prime=tau)
        S = generate(params.N, params.Ns, _derived(1, i))
        mc = estimate(params, S, spec, McConfig(
            trials_per_hypothesis=1_000_000, seed=_derived(2, i), worker_hint=4,
        ))
        ex = exact_performance(params, S, spec)
        for est_v, true_v, se in ((mc.pf, ex.pf, mc.mc.stderr_pf), (mc.pm, ex.pm, mc.mc.stderr_pm)):
            worst = max(worst, abs(est_v - true_v) / max(se, 1e-12))
    elapsed = time.monotonic() - start
    ok = worst <= 3.0 and elapsed < 300.0
    verdict(ok, "criterion-1",
            f"10 instances x 1e6 trials, worst |exact - mc| = {worst:.2f} sigma (limit 3), "
            f"runtime {elapsed:.0f}s (limit 300s)")


def test_criterion_2_scalar_oracle_chain():
    # exact analysis of the one-sensor one-chip system, the single-sensor
    # closed form, and simulation must agree on pe near 0.23975
    frozen = 0.2397500610934768  # q(1/sqrt(2)), frozen from quadrature
    params = SystemParams(N=1, Ns=1, P=2.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0, p0=0.5)
    spec = DetectorSpec(criterion="fixed", tau_prime=0.0)
    S = load(np.array([[1.0]]))
    ex = exact_performance(params, S, spec)
    closed = single_sensor_pe(params)
    direct = q(1.0 / math.sqrt(2.0))
    mc = estimate(params, S, spec, McConfig(trials_per_hypothesis=1_000_000, seed=_derived(3, 0), worker_hint=4))
    spread = max(abs(ex.pe - closed), abs(closed - direct), abs(ex.pe - frozen))
    z = abs(mc.pe - ex.pe) / max(mc.mc.stderr_pe, 1e-12)
    ok = spread <= 1e-9 and z <= 3.0 and abs(ex.pe - 0.23975) < 1e-5
    verdict(ok, "criterion-2",
            f"pe = {ex.pe:.10f}, closed-form spread {spread:.2e} (limit 1e-9), mc at {z:.2f} sigma")


def test_criterion_3_fixed_point_root():
    # quadratic residual at most 1e-9 across a 10x10x10 grid, exact value
    # at zero load, golden-ratio conjugate root at the unit point
    alphas = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 256.0, 1e4]
    gammas = [1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 8.0, 32.0, 128.0]
    sigmas = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
    worst = 0.0
    for a in alphas:
        for gv in gammas:
            for sw in sigmas:
                b = beta0(a, gv, sw)
                res = gv * sw * b * b + (a * (gv + sw) - gv) * b - a
                worst = max(worst, abs(res))
    exact_zero = all(beta0(0.0, gv, sw) == 1.0 / sw for gv in gammas for sw in sigmas)
    golden = abs(beta0(1.0, 1.0, 1.0) - (math.sqrt(5.0) - 1.0) / 2.0)
    ok = worst <= 1e-9 and exact_zero and golden <= 1e-12
    verdict(ok, "criterion-3",
            f"1000-point residual max {worst:.2e} (limit 1e-9), zero-load exact: {exact_zero}, "
            f"unit-point gap {golden:.2e} (limit 1e-12)")


def test_criterion_4_snr_concentration():
    # at load 1 the relative spread of g^2 qf around 1/mu must shrink
    # strictly along N in {8, 32, 128, 512} (median over 20 fixed seeds),
    # and at N=128 the 20-seed median must sit within 5 percent of 1/mu;
    # runtime under 2 minutes
    template = SystemParams(N=8, Ns=8, **DEFAULTS)
    start = time.monotonic()
    recs = quadratic_form_convergence(template, [8, 32, 128, 512], list(range(20)))
    elapsed = time.monotonic() - start
    snr = [r for r in recs if r.statistic == "snr"]
    med_disp = {
        N: statistics.median(r.rel_error for r in snr if r.N == N) for N in (8, 32, 128, 512)
    }
    decreasing = med_disp[8] > med_disp[32] > med_disp[128] > med_disp[512]
    at_128 = [r for r in snr if r.N == 128]
    predicted = at_128[0].predicted
    centring = abs(statistics.median(r.observed for r in at_128) - predicted) / predicted
    ok = decreasing and centring < 0.05 and elapsed < 120.0
    verdict(ok, "criterion-4",
            f"median dispersion {med_disp[8]:.4f} > {med_disp[32]:.4f} > {med_disp[128]:.4f} > "
            f"{med_disp[512]:.4f}: {decreasing}; N=128 median within {centring:.4f} of 1/mu "
            f"(limit 0.05); runtime {elapsed:.0f}s (limit 120s)")


def test_criterion_5_inversion_identities():
    # leave-one-out inversion residual at most 1e-9 and quadratic-form
    # decomposition residual at most 1e-8, N up to 128, 10 seeds
    template = SystemParams(N=8, Ns=8, **DEFAULTS)
    seeds = list(range(10))
    mil = mil_residual_experiment(template, [8, 32, 128], seeds)
    worst_mil = max(r.observed for r in mil)
    recs = quadratic_form_convergence(template, [8, 32, 128], seeds)
    worst_dec = max(r.observed for r in recs if r.statistic == "decomposition_residual")
    ok = worst_mil <= 1e-9 and worst_dec <= 1e-8
    verdict(ok, "criterion-5",
            f"worst inversion residual {worst_mil:.2e} (limit 1e-9), "
            f"worst decomposition residual {worst_dec:.2e} (limit 1e-8), 30 instances each")


def test_criterion_6_cross_term_vanishing():
    # the median cross term at N=512 must be below half its N=32 level
    template = SystemParams(N=8, Ns=8, **DEFAULTS)
    recs = cross_term_experiment(template, [32, 512], list(range(20)))
    med = {
        N: statistics.median(r.observed for r in recs if r.N == N) for N in (32, 512)
    }
    ratio = med[512] / med[32]
    ok = ratio < 0.5
    verdict(ok, "criterion-6",
            f"median cross term {med[32]:.4f} at N=32 vs {med[512]:.4f} at N=512, "
            f"ratio {ratio:.3f} (limit 0.5)")


def test_criterion_7_load_monotonicity_and_limits():
    # three clauses: the limiting error probability never rises with load;
    # the infinite-load floor beats the single-sensor scheme whenever
    # observations are noisy; the chain meets its floor at extreme scale
    loads = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    base = SystemParams(N=128, Ns=128, **DEFAULTS)
    pes = [
        zero_threshold_pe(replace(base, Ns=sensors_for_load(a, base.N)))
        for a in loads
    ]
    monotone = all(b <= a for a, b in zip(pes, pes[1:]))

    batteries = [
        dict(), dict(P=2.0), dict(P=40.0), dict(sigma_v2=3.0), dict(sigma_v2=0.2),
        dict(m=0.5), dict(m=2.0, sigma_w2=4.0), dict(P=5.0, sigma_v2=0.5, sigma_w2=0.25),
    ]
    floor_beats_single = True
    for kw in batteries:
        p = SystemParams(N=128, Ns=128, **{**DEFAULTS, **kw})
        if not large_alpha_pe(p) < single_sensor_pe(p):
            floor_beats_single = False

    huge = SystemParams(N=10**6, Ns=10**10, **DEFAULTS)
    gap = abs(zero_threshold_pe(huge) - large_alpha_pe(huge))
    ok = monotone and floor_beats_single and gap < 1e-3
    verdict(ok, "criterion-7",
            f"pe non-increasing over loads {loads}: {monotone}; "
            f"infinite-load floor < single-sensor on {len(batteries)} parameter sets: "
            f"{floor_beats_single}; chain-vs-floor gap at load 1e4, N=1e6: {gap:.2e} (limit 1e-3)")


def test_criterion_8_byte_identical_artifacts(tmp_path):
    # identical config and seed reproduce the output byte for byte, and
    # worker parallelism is invisible in the artifact
    doc = {
        "mode": "sweep-grid",
        "seed": 7,
        "grid": {"N": [8, 16], "alpha": [0.5, 1.0, 2.0], "seeds": 5},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    # the child imports the package from this checkout, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(out, extra=()):
        cmd = [sys.executable, "-m", "cdmafusion", "--config", str(cfg),
               "--out", str(out), "--quiet", *extra]
        res = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        return out.read_bytes()

    first = run(tmp_path / "a.csv")
    second = run(tmp_path / "b.csv")
    third = run(tmp_path / "c.csv", extra=("--workers", "4"))
    ok = first == second == third
    verdict(ok, "criterion-8",
            f"three runs (rerun, rerun, rerun with 4 workers) produced "
            f"{'identical' if ok else 'DIFFERING'} {len(first)}-byte artifacts")
