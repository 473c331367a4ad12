"""Simulation chain: generative law, chunked determinism, statistical calibration.

Statistical assertions use wide bands sized in advance (3 binomial sigma per
replicate, 45-of-50 coverage, 5 percent Frobenius error at 200k trials, 5
standard errors on 2e6 sampler draws) so a correct implementation fails only
with negligible probability.
"""

import importlib.util
import json
import math
import os
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from cdmafusion import (
    ChannelModel,
    DetectorSpec,
    DimensionMismatch,
    DomainError,
    InvalidParam,
    McConfig,
    SystemParams,
    detector_bounds,
    estimate,
    exact_performance,
    quadratic_form,
    simulate_trials,
)
from cdmafusion import amplifier_gain, cli, exact, montecarlo
from cdmafusion.core import root_snr, snr_groups
from cdmafusion.exact import exact_report
from cdmafusion.montecarlo import (
    CHUNK_TRIALS,
    NORMAL_SAMPLER_ID,
    RNG_ID,
    _BoxMuller,
    _chunk_plan,
    _chunk_rng,
    _collapsed_weight,
    _count_errors,
)
from cdmafusion.spreading import generate, load


def make_params(**kw) -> SystemParams:
    base = dict(N=8, Ns=8, P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0, p0=0.5)
    base.update(kw)
    return SystemParams(**base)


class TestSimulateTrials:
    def test_shape(self):
        p = make_params()
        S = generate(8, 8, seed=0)
        r = simulate_trials(p, S, 0, 17, np.random.default_rng(0))
        assert r.shape == (8, 17)

    def test_deterministic_under_fixed_stream(self):
        p = make_params()
        S = generate(8, 8, seed=0)
        a = simulate_trials(p, S, 1, 9, np.random.Generator(np.random.Philox(3)))
        b = simulate_trials(p, S, 1, 9, np.random.Generator(np.random.Philox(3)))
        np.testing.assert_array_equal(a, b)

    def test_hypothesis_flip_shifts_mean_exactly(self):
        # same noise stream, opposite hypothesis: difference is the
        # deterministic separation 2 g m S 1 in every trial
        p = make_params(N=12, Ns=10, m=1.3)
        S = generate(12, 10, seed=4)
        r0 = simulate_trials(p, S, 0, 6, np.random.Generator(np.random.Philox(9)))
        r1 = simulate_trials(p, S, 1, 6, np.random.Generator(np.random.Philox(9)))
        sep = 2.0 * amplifier_gain(p) * p.m * S.entries.sum(axis=1)
        np.testing.assert_allclose(r1 - r0, sep[:, None] * np.ones((1, 6)), rtol=1e-12, atol=1e-12)

    def test_sample_moments_match_law(self):
        # 200k trials: mean within 0.015 per chip, covariance within 5
        # percent in Frobenius norm (measured ~0.5 percent)
        p = make_params(N=6, Ns=6)
        S = generate(6, 6, seed=3)
        r = simulate_trials(p, S, 0, 200_000, np.random.Generator(np.random.Philox(5)))
        from cdmafusion import channel_covariance

        g = amplifier_gain(p)
        mean_expected = -g * p.m * S.entries.sum(axis=1)
        assert np.max(np.abs(r.mean(axis=1) - mean_expected)) <= 0.015
        cov_expected = channel_covariance(ChannelModel.from_params(p, S)) * snr_groups(p)[0]
        cov_sample = np.cov(r)
        rel = np.linalg.norm(cov_sample - cov_expected) / np.linalg.norm(cov_expected)
        assert rel <= 0.05

    def test_input_validation(self):
        p = make_params()
        S = generate(8, 8, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            simulate_trials(p, S, 2, 5, rng)
        for bad in (0, -3, 2.5, True):
            with pytest.raises(InvalidParam):
                simulate_trials(p, S, 0, bad, rng)
        with pytest.raises(DimensionMismatch):
            simulate_trials(p, generate(8, 4, seed=0), 0, 5, rng)


class TestChunkPlan:
    def test_exact_multiple(self):
        assert _chunk_plan(2 * CHUNK_TRIALS) == [(0, CHUNK_TRIALS), (1, CHUNK_TRIALS)]

    def test_remainder(self):
        assert _chunk_plan(CHUNK_TRIALS + 3) == [(0, CHUNK_TRIALS), (1, 3)]

    def test_small(self):
        assert _chunk_plan(5) == [(0, 5)]


class TestMcConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(trials_per_hypothesis=0, seed=0),
            dict(trials_per_hypothesis=-5, seed=0),
            dict(trials_per_hypothesis=True, seed=0),
            dict(trials_per_hypothesis=10, seed=-1),
            dict(trials_per_hypothesis=10, seed=2**64),
            dict(trials_per_hypothesis=10, seed=0, worker_hint=0),
            dict(trials_per_hypothesis=10, seed=0, worker_hint=True),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(InvalidParam):
            McConfig(**kw)

    def test_accepts_numpy_integers(self):
        # the same integer check as SystemParams and generate
        p = make_params()
        S = generate(8, 8, seed=0)
        mc = McConfig(trials_per_hypothesis=np.int64(20_000), seed=np.uint64(7), worker_hint=np.int32(2))
        ref = McConfig(trials_per_hypothesis=20_000, seed=7, worker_hint=2)
        assert estimate(p, S, DetectorSpec(), mc) == estimate(p, S, DetectorSpec(), ref)

    def test_identifiers_are_stable(self):
        assert RNG_ID == "sfc64-seedseq-chunk16384-shared-v3"
        assert NORMAL_SAMPLER_ID == "box-muller-f64log-f32trig-v1"
        assert CHUNK_TRIALS == 16384


class TestEstimate:
    def test_one_factorization_and_one_solve(self, linalg_calls):
        p = make_params()
        estimate(p, generate(8, 8, seed=0), DetectorSpec(criterion="np", alpha_fa=0.1),
                 McConfig(trials_per_hypothesis=100, seed=1))
        assert linalg_calls == {"cholesky": 1, "solve_lower": 1}

    def test_deterministic_given_seed(self):
        p = make_params()
        S = generate(8, 8, seed=0)
        a = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=5000, seed=42))
        b = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=5000, seed=42))
        assert (a.pf, a.pm, a.pe) == (b.pf, b.pm, b.pe)
        assert (a.mc.false_alarms, a.mc.misses) == (b.mc.false_alarms, b.mc.misses)

    def test_seed_changes_output(self):
        p = make_params()
        S = generate(8, 8, seed=0)
        a = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=5000, seed=42))
        b = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=5000, seed=43))
        assert (a.mc.false_alarms, a.mc.misses) != (b.mc.false_alarms, b.mc.misses)

    def test_worker_count_does_not_change_result(self):
        p = make_params()
        S = generate(8, 8, seed=0)
        n = 3 * CHUNK_TRIALS + 101
        seq = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=n, seed=7))
        par = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=n, seed=7, worker_hint=4))
        assert (seq.mc.false_alarms, seq.mc.misses) == (par.mc.false_alarms, par.mc.misses)
        assert (seq.pf, seq.pm, seq.pe) == (par.pf, par.pm, par.pe)

    def test_default_worker_hint_runs_in_line(self, monkeypatch):
        def no_fork():
            raise AssertionError("estimate forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        rep = estimate(make_params(), generate(8, 8, seed=0), DetectorSpec(),
                       McConfig(trials_per_hypothesis=3 * CHUNK_TRIALS, seed=7, worker_hint=None))
        assert rep.mc.trials_per_hypothesis == 3 * CHUNK_TRIALS

    def test_chunk_boundary_totals(self):
        p = make_params()
        S = generate(8, 8, seed=0)
        rep = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=CHUNK_TRIALS + 3, seed=1))
        assert rep.mc.trials_per_hypothesis == CHUNK_TRIALS + 3
        assert 0 <= rep.mc.false_alarms <= CHUNK_TRIALS + 3

    def test_report_structure(self):
        p = make_params(p0=0.4)
        S = generate(8, 8, seed=0)
        rep = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=4000, seed=3))
        assert rep.pe == pytest.approx(0.4 * rep.pf + 0.6 * rep.pm, abs=1e-15)
        assert rep.mc.seed == 3
        assert rep.mc.stderr_pf == pytest.approx(np.sqrt(rep.pf * (1 - rep.pf) / 4000), rel=1e-12)

    def test_three_sigma_agreement_with_exact(self):
        p = make_params()
        S = generate(8, 8, seed=11)
        truth = exact_performance(p, S, DetectorSpec())
        rep = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=100_000, seed=2))
        for est_v, true_v, se in (
            (rep.pf, truth.pf, rep.mc.stderr_pf),
            (rep.pm, truth.pm, rep.mc.stderr_pm),
        ):
            assert abs(est_v - true_v) <= 3.0 * max(se, 1e-12)

    def test_coverage_over_replicates(self):
        # 50 independent 20k-trial replicates: each pf and pm should land
        # within 3 binomial sigma of the closed form about 49.9 times in 50
        p = make_params()
        S = generate(8, 8, seed=11)
        truth = exact_performance(p, S, DetectorSpec())
        n = 20_000
        hits_pf = hits_pm = 0
        for k in range(50):
            rep = estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=n, seed=1000 + k))
            se_pf = max(np.sqrt(truth.pf * (1 - truth.pf) / n), 1e-12)
            se_pm = max(np.sqrt(truth.pm * (1 - truth.pm) / n), 1e-12)
            hits_pf += abs(rep.pf - truth.pf) <= 3.0 * se_pf
            hits_pm += abs(rep.pm - truth.pm) <= 3.0 * se_pm
        assert hits_pf >= 45
        assert hits_pm >= 45

    def test_a_wrong_covariance_misses_its_own_closed_form(self, monkeypatch):
        # the weight is divided by the model's own form q, so u . n has variance
        # d^T (Sigma / U) d / q; factoring 2 c S S^T + w I in place of Sigma / U
        # leaves d and q consistent with each other but not with the noise drawn,
        # which a weight of unit norm would hide
        p = make_params(N=16, Ns=16)
        S = generate(16, 16, seed=3)
        spec = DetectorSpec()
        mc = McConfig(trials_per_hypothesis=100_000, seed=7)

        def doubled(model, out=None):
            A = model.S.entries
            cov = np.matmul(A, A.mT, out=out)
            cov *= 2.0 * model.c
            cov[..., range(A.shape[-2]), range(A.shape[-2])] += model.w
            return cov

        right = estimate(p, S, spec, mc)
        assert abs(right.pe - exact_report(p, right.q, spec).pe) < 3.0 * right.mc.stderr_pe
        monkeypatch.setattr(exact, "channel_covariance", doubled)
        wrong = estimate(p, S, spec, mc)
        assert wrong.q != right.q
        assert abs(wrong.pe - exact_report(p, wrong.q, spec).pe) > 10.0 * wrong.mc.stderr_pe

    def test_degenerate_channel_matches_closed_form(self):
        p = make_params(N=1, Ns=2, P=1.0)
        S = load(np.array([[1.0, -1.0]]))
        spec = DetectorSpec(criterion="fixed", tau_prime=0.0)
        rep = estimate(p, S, spec, McConfig(trials_per_hypothesis=2000, seed=5))
        truth = exact_performance(p, S, spec)
        assert (rep.pf, rep.pm) == (truth.pf, truth.pm) == (1.0, 0.0)

    def test_np_detector_runs(self):
        p = make_params()
        S = generate(8, 8, seed=11)
        rep = estimate(
            p, S, DetectorSpec(criterion="np", alpha_fa=0.1),
            McConfig(trials_per_hypothesis=50_000, seed=9),
        )
        assert rep.pf == pytest.approx(0.1, abs=3 * np.sqrt(0.1 * 0.9 / 50_000))

    @pytest.mark.parametrize("m", [1e-60, 1e-7], ids=["snr-overflows", "snr-finite"])
    def test_np_keeps_its_false_alarm_rate_where_the_mean_swamps_the_noise(self, m):
        # T's mean 2 r^2 is about 1e100 times its spread 2 r, so T itself rounds
        # to its mean; x = g^2 qf overflows at m = 1e-60 and is 1e214 at 1e-7,
        # while r = m sqrt(x) is about 1e100 at either m
        p = make_params(P=1.0, m=m, sigma_v2=0.0, sigma_w2=1e-200)
        spec = DetectorSpec(criterion="np", alpha_fa=0.05)
        rep = estimate(p, generate(8, 8, seed=0), spec, McConfig(trials_per_hypothesis=20_000, seed=3))
        assert rep.pf == pytest.approx(0.05, abs=3 * np.sqrt(0.05 * 0.95 / 20_000))
        assert rep.pm == 0.0
        r = root_snr(p, rep.q)
        assert 1e99 < r < 1e101
        assert rep.tau_prime == detector_bounds(spec, p, r)[0] == pytest.approx(-2 * r * r, rel=1e-12)


class TestCollapsedKernel:
    """The per-chunk weighted sum against the full chain r = g S z + w."""

    SEED = 12

    @pytest.mark.parametrize(
        "N, Ns", [(1, 1), (12, 5), (5, 12), (3, 5), (8, 8)], ids=["1x1", "N>Ns", "N<Ns", "one-block", "two-blocks"]
    )
    @pytest.mark.parametrize("idx, size", [(0, CHUNK_TRIALS), (3, 37)], ids=["full", "remainder"])
    def test_statistic_and_counts_match_received_vectors(self, N, Ns, idx, size):
        p = make_params(N=N, Ns=Ns, m=0.7, sigma_v2=0.4, sigma_w2=1.9, P=6.0)
        S = generate(N, Ns, seed=5)
        model = ChannelModel.from_params(p, S)
        weight = self.weight(p, model)
        noise_weight = _collapsed_weight(model, quadratic_form(model))
        r = root_snr(p, quadratic_form(model))
        tau = 0.3
        half = tau / (2.0 * r)
        counts = _count_errors(noise_weight, (half + r, half - r), self.SEED, idx, size)
        for hyp, offset in ((0, -r), (1, r)):
            ref = weight @ simulate_trials(p, S, hyp, size, _chunk_rng(self.SEED, idx))
            noise = _chunk_rng(self.SEED, idx).standard_normal((Ns + N, size))
            np.testing.assert_allclose(2.0 * r * (offset + noise_weight @ noise), ref,
                                       rtol=1e-12, atol=1e-12 * np.abs(ref).max())
            want = np.count_nonzero(ref >= tau) if hyp == 0 else np.count_nonzero(ref < tau)
            assert counts[hyp] == want

    def test_shift_is_the_statistic_at_the_h1_mean(self):
        # T evaluated at the H1 mean g m S 1 equals 2 g^2 m^2 qf = 2 r^2, so the
        # standardized statistic T / 2r, with its unit weight, is shifted by r
        p = make_params(N=16, Ns=12, m=1.7)
        S = generate(16, 12, seed=6)
        model = ChannelModel.from_params(p, S)
        r = root_snr(p, quadratic_form(model))
        at_mean = self.weight(p, model) @ (amplifier_gain(p) * p.m * S.entries.sum(axis=1))
        assert at_mean == pytest.approx(2.0 * r * r, rel=1e-10)
        assert np.linalg.norm(_collapsed_weight(model, quadratic_form(model))) == pytest.approx(1.0, rel=1e-14)

    @staticmethod
    def weight(p, model):
        """The weight 2 g m Sigma^{-1} S 1 of T on the received vector, in physical units."""
        return 2.0 * amplifier_gain(p) * p.m * model.detector / snr_groups(p)[0]

    @pytest.mark.parametrize("rows", [24, 1024])
    def test_chunk_memory_does_not_grow_with_system_size(self, rows):
        # one full chunk holds a fixed block of normals, not all Ns + N rows of them
        noise_weight = np.random.default_rng(rows).standard_normal(rows)
        tracemalloc.start()
        try:
            _count_errors(noise_weight, (0.1, -0.1), self.SEED, 0, CHUNK_TRIALS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_estimate_counts_match_reference_path(self):
        self.check_counts_against_reference_path(DetectorSpec())

    def test_np_counts_match_reference_path(self):
        # np's bounds on the noise term are its threshold on T (core.detector_bounds)
        self.check_counts_against_reference_path(DetectorSpec(criterion="np", alpha_fa=0.2))

    def check_counts_against_reference_path(self, spec):
        # every chunk of both hypotheses, remainder included, through simulate_trials;
        # both hypotheses read the chunk's one stream
        p = make_params(N=6, Ns=9)
        S = generate(6, 9, seed=2)
        model = ChannelModel.from_params(p, S)
        weight = self.weight(p, model)
        tau = detector_bounds(spec, p, root_snr(p, quadratic_form(model)))[0]
        n = 2 * CHUNK_TRIALS + 101
        counts = [0, 0]
        for hyp in (0, 1):
            for idx, size in _chunk_plan(n):
                t = weight @ simulate_trials(p, S, hyp, size, _chunk_rng(self.SEED, idx))
                counts[hyp] += int(np.count_nonzero(t >= tau) if hyp == 0 else np.count_nonzero(t < tau))
        rep = estimate(p, S, spec, McConfig(trials_per_hypothesis=n, seed=self.SEED, worker_hint=2))
        assert (rep.mc.false_alarms, rep.mc.misses) == tuple(counts)
        assert rep.tau_prime == tau

    @pytest.mark.parametrize("seed, idx", [(0, 0), (12, 5), (2**64 - 1, 61)],
                             ids=["seed-0-chunk-0", "seed-12-chunk-5", "max-seed-chunk-61"])
    def test_chunk_stream_is_seeded_sfc64(self, seed, idx):
        # spawn key (0, idx), the key of the H0 chunks of artifacts up to 0.4.0
        want = keyed_stream(seed, idx)
        uniforms = _chunk_rng(seed, idx).uniforms
        assert isinstance(uniforms.bit_generator, np.random.SFC64)
        np.testing.assert_array_equal(uniforms.random(231), want.random(231))

    def test_draws_only_through_standard_normal_of_a_shape(self, monkeypatch):
        # a benchmark harness stands in for the chunk generator with exactly this method
        class OnlyStandardNormal:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                assert isinstance(size, tuple)
                return self.rng.standard_normal(size)

        p = make_params()
        S = generate(8, 8, seed=0)
        mc = McConfig(trials_per_hypothesis=CHUNK_TRIALS + 9, seed=4)
        want = estimate(p, S, DetectorSpec(), mc)
        chunk_rng = montecarlo._chunk_rng
        monkeypatch.setattr(montecarlo, "_chunk_rng", lambda *a: OnlyStandardNormal(chunk_rng(*a)))
        assert estimate(p, S, DetectorSpec(), mc) == want


class TestCoupledEstimator:
    """One noise draw per trial serves a false alarm and a miss."""

    @staticmethod
    def coupled_stderr_pe(p, rep):
        # no draw is in error under both hypotheses: the bounds on the noise term are
        # ordered, so the covariance is -pf pm
        n = rep.mc.trials_per_hypothesis
        var = p.p0**2 * rep.pf * (1 - rep.pf) + p.p1**2 * rep.pm * (1 - rep.pm) - 2 * p.p0 * p.p1 * rep.pf * rep.pm
        return math.sqrt(var / n)

    @pytest.mark.parametrize("p0, spec", [(0.5, DetectorSpec()), (0.3, DetectorSpec(criterion="np", alpha_fa=0.1))],
                             ids=["bayes", "np"])
    def test_stderr_pe_is_calibrated(self, p0, spec):
        # 2000 replicates of 2000 trials: the variance ratio has a relative sd of
        # about sqrt(2/1999) = 0.032, so [0.88, 1.12] is about 3.7 sigma wide.  The
        # independent formula sqrt((p0 se_pf)^2 + (p1 se_pm)^2) reads 0.63 (bayes)
        # and 0.85 (np) on these replicates.
        p = make_params(P=1.0, p0=p0)
        S = generate(8, 8, seed=11)
        reps = [estimate(p, S, spec, McConfig(trials_per_hypothesis=2000, seed=10_000 + k)) for k in range(2000)]
        empirical = np.var([r.pe for r in reps], ddof=1)
        reported = np.mean([r.mc.stderr_pe**2 for r in reps])
        assert 0.88 <= empirical / reported <= 1.12

    @pytest.mark.parametrize("spec", [DetectorSpec(), DetectorSpec(criterion="np", alpha_fa=0.2),
                                      DetectorSpec(criterion="fixed", tau_prime=-0.5)], ids=["bayes", "np", "fixed"])
    def test_stderr_pe_is_that_of_the_coupled_pair(self, spec):
        p = make_params(N=12, Ns=20, P=4.0, sigma_v2=0.5, p0=0.4)
        rep = estimate(p, generate(12, 20, seed=3), spec, McConfig(trials_per_hypothesis=CHUNK_TRIALS + 77, seed=5))
        assert 0 < rep.pf < 1 and 0 < rep.pm < 1
        assert rep.mc.stderr_pe == pytest.approx(self.coupled_stderr_pe(p, rep), rel=1e-12)

    @pytest.mark.parametrize("bounds", [(0.4, -0.4), (0.0, 0.0), (-0.3, -0.3 - 1e-300)])
    def test_ordered_bounds_count_no_trial_twice(self, bounds):
        # bounds[0] >= bounds[1]: the false alarms and the misses are disjoint
        # sets of draws, which is why estimate's stderr_pe has no overlap term
        noise_weight = np.random.default_rng(1).standard_normal(16)
        d = noise_weight @ _chunk_rng(3, 0).standard_normal((16, 5000))
        false_alarms, misses = _count_errors(noise_weight, bounds, 3, 0, 5000)
        assert (false_alarms, misses) == (np.count_nonzero(d >= bounds[0]), np.count_nonzero(d < bounds[1]))
        assert false_alarms + misses == np.count_nonzero((d >= bounds[0]) | (d < bounds[1]))

    @pytest.mark.parametrize("spec", [DetectorSpec(), DetectorSpec(criterion="np", alpha_fa=0.2)], ids=["bayes", "np"])
    def test_false_alarms_are_those_of_the_keyed_stream(self, spec):
        # the H0 reference path on an explicitly keyed stream of every chunk, two
        # full chunks and a remainder, against the two-worker pool
        p = make_params(N=12, Ns=20, P=4.0, sigma_v2=0.5)
        S = generate(12, 20, seed=3)
        n = 2 * CHUNK_TRIALS + 5
        rep = estimate(p, S, spec, McConfig(trials_per_hypothesis=n, seed=3, worker_hint=2))
        weight = TestCollapsedKernel.weight(p, ChannelModel.from_params(p, S))
        want = 0
        for idx, size in _chunk_plan(n):
            rng = _BoxMuller(keyed_stream(3, idx))
            want += int(np.count_nonzero(weight @ simulate_trials(p, S, 0, size, rng) >= rep.tau_prime))
        assert rep.mc.false_alarms == want
        assert rep.pf == want / n
        assert rep.mc.stderr_pf == math.sqrt(rep.pf * (1.0 - rep.pf) / n)

    @pytest.mark.parametrize("params, spec, pf, pm", [
        (make_params(N=1, Ns=2, P=1.0), DetectorSpec(criterion="fixed", tau_prime=0.0), 1.0, 0.0),
        (make_params(), DetectorSpec(criterion="fixed", tau_prime=1e6), 0.0, 1.0),
        (make_params(), DetectorSpec(criterion="fixed", tau_prime=-1e6), 1.0, 0.0),
        (make_params(P=1.0, m=1e-60, sigma_v2=0.0, sigma_w2=1e-200), DetectorSpec(criterion="np", alpha_fa=0.05),
         None, 0.0),
    ], ids=["qf-zero-channel", "pf-0-pm-1", "pf-1-pm-0", "np-pm-0"])
    def test_stderr_pe_at_the_edges(self, params, spec, pf, pm):
        S = load(np.array([[1.0, -1.0]])) if params.N == 1 else generate(params.N, params.Ns, seed=0)
        rep = estimate(params, S, spec, McConfig(trials_per_hypothesis=3000, seed=2))
        assert (pf is None or rep.pf == pf) and rep.pm == pm
        assert math.isfinite(rep.mc.stderr_pe) and rep.mc.stderr_pe >= 0.0
        assert rep.mc.stderr_pe == pytest.approx(self.coupled_stderr_pe(params, rep), abs=1e-15)


def keyed_stream(seed, idx):
    """The SFC64 generator of chunk idx, keyed directly by its seed sequence."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(0, idx))))


def box_muller(u):
    """The sampler's definition evaluated directly on the uniforms u, of even length."""
    radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    theta = (2.0 * math.pi * u[1::2]).astype(np.float32)
    z = np.empty(u.size)
    z[0::2] = radius * np.cos(theta).astype(np.float64)
    z[1::2] = radius * np.sin(theta).astype(np.float64)
    return z


class TestBoxMuller:
    """The chunk sampler: its definition, its order and its law."""

    N = 2_000_000

    @pytest.fixture(scope="class")
    def normals(self):
        return _chunk_rng(20, 4).standard_normal((self.N,))

    @pytest.mark.parametrize("seed, idx", [(0, 0), (7, 3), (2**64 - 1, 61)])
    def test_normals_are_the_transform_of_the_keyed_uniforms(self, seed, idx):
        # two full pieces of the transform and a partial one
        n = 2 * (2 * montecarlo._PIECE_PAIRS + 77)
        np.testing.assert_array_equal(_chunk_rng(seed, idx).standard_normal((n,)),
                                      box_muller(keyed_stream(seed, idx).random(n)))

    @pytest.mark.parametrize("lengths", [(1, 230), (1, 1, 229), (2, 3, 4, 5, 6, 7, 8, 196), (33,) * 7, (231,)])
    def test_any_split_gives_the_same_normals(self, lengths):
        # an odd length keeps its pair's second normal for the next call
        whole = _chunk_rng(5, 2).standard_normal((7, 33))
        rng = _chunk_rng(5, 2)
        pieces = np.concatenate([rng.standard_normal((k,)) for k in lengths])
        np.testing.assert_array_equal(pieces, whole.ravel())
        np.testing.assert_array_equal(rng.standard_normal((3,)), _chunk_rng(5, 2).standard_normal((234,))[231:])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tail_fractions(self, normals, k):
        p = 2.0 * NormalDist().cdf(-k)
        frac = np.count_nonzero(np.abs(normals) > k) / self.N
        assert abs(frac - p) <= 5.0 * math.sqrt(p * (1.0 - p) / self.N)

    def test_moments(self, normals):
        # standard errors of the sample mean, variance and kurtosis of N(0, 1)
        mean = normals.mean()
        centred = normals - mean
        var = np.mean(centred**2)
        kurtosis = np.mean(centred**4) / var**2
        assert abs(mean) <= 5.0 / math.sqrt(self.N)
        assert abs(var - 1.0) <= 5.0 * math.sqrt(2.0 / self.N)
        assert abs(kurtosis - 3.0) <= 5.0 * math.sqrt(24.0 / self.N)

    def test_pair_is_uncorrelated(self, normals):
        pairs = self.N // 2
        assert abs(np.corrcoef(normals[0::2], normals[1::2])[0, 1]) <= 5.0 / math.sqrt(pairs)


class TestDrawCount:
    """Each chunk opens one stream and draws Ns + N normals per trial, once."""

    class Counting:
        """Stands in for one chunk's generator; counts its normals and returns zeros."""

        def __init__(self):
            self.normals = 0

        def standard_normal(self, size):
            self.normals += math.prod(size)
            return np.zeros(size)

    def count_draws(self, monkeypatch, params, mc):
        """Normals drawn from each stream that estimate opens, with its chunks
        run in line: a forked worker's streams end with the worker."""
        streams = []

        def chunk_rng(*key):
            stream = self.Counting()
            streams.append(stream)  # each stream counts alone
            return stream

        monkeypatch.setattr(montecarlo, "_chunk_rng", chunk_rng)
        estimate(params, generate(params.N, params.Ns, seed=0), DetectorSpec(), mc)
        return [s.normals for s in streams]

    @pytest.mark.parametrize("n", [1, CHUNK_TRIALS, 3 * CHUNK_TRIALS + 101])
    def test_one_stream_per_chunk(self, monkeypatch, n):
        p = make_params(N=8, Ns=12)
        log = self.count_draws(monkeypatch, p, McConfig(trials_per_hypothesis=n, seed=1))
        assert len(log) == math.ceil(n / CHUNK_TRIALS)
        assert sum(log) == n * (p.Ns + p.N)

    def test_benchmark_config_draws_each_normal_once(self, monkeypatch):
        # on the config's 2 workers the streams would count in the forked workers, out of
        # sight; test_worker_count_does_not_change_result pins that workers change no draw
        cfg = cli.parse_config(json.dumps(montecarlo_workload(monkeypatch).config))
        assert cfg.mc.worker_hint == 2
        log = self.count_draws(monkeypatch, cfg.params, replace(cfg.mc, worker_hint=None))
        n = cfg.mc.trials_per_hypothesis
        assert len(log) == math.ceil(n / CHUNK_TRIALS) == 25
        assert sum(log) == n * (cfg.params.Ns + cfg.params.N) == 76_800_000


def montecarlo_workload(monkeypatch):
    """The full-size config of the benchmark's `montecarlo` workload, seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module.build("montecarlo", 1)
