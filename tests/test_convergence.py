"""Concentration diagnostics: inversion identity, diagonal and cross terms, SNR.

Median trajectories below were calibrated once against the population
behaviour (hundreds of seeds) and the assertions use the exact seed lists
baked in here, so every check is deterministic at test time.
"""

import math
import os
import statistics
from dataclasses import replace

import numpy as np
import pytest

from cdmafusion import (
    ChannelModel,
    DomainError,
    InvalidParam,
    SystemParams,
    cross_term_experiment,
    diagonal_term_experiment,
    mil_residual_experiment,
    quadratic_form_convergence,
)
from cdmafusion import convergence
from cdmafusion.convergence import _experiments
from cdmafusion.core import amplifier_gain, seed_sequence
from cdmafusion.spreading import generate

TEMPLATE = SystemParams(N=10, Ns=10, P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0)
SEEDS = tuple(range(20))


def med_rel_by_N(records, statistic):
    """Median |relative error| per spreading length, keyed by N."""
    out = {}
    for N in sorted({r.N for r in records}):
        vals = [abs(r.rel_error) for r in records if r.N == N and r.statistic == statistic]
        assert vals, f"no {statistic} records at N={N}"
        out[N] = statistics.median(vals)
    return out


def med_obs_by_N(records, statistic):
    out = {}
    for N in sorted({r.N for r in records}):
        vals = [r.observed for r in records if r.N == N and r.statistic == statistic]
        out[N] = statistics.median(vals)
    return out


class TestMilIdentity:
    def test_residual_at_rounding_level(self):
        recs = mil_residual_experiment(TEMPLATE, [8, 32, 64, 128], (0, 1, 2, 5, 7))
        assert len(recs) == 4 * 5
        assert max(r.observed for r in recs) <= 1e-12

    def test_experiment_records(self):
        recs = mil_residual_experiment(TEMPLATE, [8, 32], SEEDS[:5])
        assert len(recs) == 2 * 5
        assert all(r.statistic == "mil_residual" for r in recs)
        assert all(r.predicted == 0.0 for r in recs)
        assert all(math.isnan(r.rel_error) for r in recs)
        assert all(r.observed <= 1e-12 for r in recs)
        assert {r.N for r in recs} == {8, 32}
        assert all(r.Ns == r.N for r in recs)


class TestDiagonalTerms:
    def test_medians_shrink_with_N(self):
        recs = diagonal_term_experiment(TEMPLATE, [8, 32, 128], SEEDS)
        for stat in ("diag_leave_out", "diag_full"):
            med = med_rel_by_N(recs, stat)
            assert med[8] > med[32] > med[128]
        # calibrated levels: about 0.021 and 0.0027 at N=32 and N=128
        med_leave = med_rel_by_N(recs, "diag_leave_out")
        assert med_leave[128] < 0.01

    def test_far_apart_sizes(self):
        recs = diagonal_term_experiment(TEMPLATE, [32, 512], SEEDS)
        for stat in ("diag_leave_out", "diag_full"):
            med = med_rel_by_N(recs, stat)
            assert med[512] < med[32]

    def test_predictions_ordered(self):
        # the full-form limit is a strict shrinkage of the leave-out limit
        recs = diagonal_term_experiment(TEMPLATE, [64], SEEDS[:3])
        pred_leave = {r.predicted for r in recs if r.statistic == "diag_leave_out"}
        pred_full = {r.predicted for r in recs if r.statistic == "diag_full"}
        assert len(pred_leave) == len(pred_full) == 1
        assert 0.0 < pred_full.pop() < pred_leave.pop()


class TestCrossTerms:
    def test_decay_trajectory(self):
        recs = cross_term_experiment(TEMPLATE, [32, 64, 128, 256, 512], SEEDS)
        med = med_obs_by_N(recs, "cross_mean")
        sizes = [32, 64, 128, 256, 512]
        # strictly decaying at every doubling
        for a, b in zip(sizes, sizes[1:]):
            assert med[b] < med[a]
        # 1/sqrt(N) scaling: each doubling shrinks the mean by a factor
        # near sqrt(2); the finite-size drift of the fixed point inflates
        # the first doubling, so the band is asserted from N=64 up
        for a, b in zip(sizes[1:], sizes[2:]):
            factor = med[a] / med[b]
            assert 1.2 <= factor <= 1.7, f"{a}->{b} factor {factor}"
        # four doublings overall must at least halve the level
        assert med[512] / med[32] < 0.5

    def test_pair_subsampling_is_deterministic(self):
        # 2016 sensor pairs at N = 64, so the 200-pair subset is drawn
        a = cross_term_experiment(TEMPLATE, [64], [3])
        b = cross_term_experiment(TEMPLATE, [64], [3])
        assert a[0].observed == b[0].observed

    def test_needs_two_sensors(self):
        tiny = SystemParams(N=10, Ns=1, P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0)
        with pytest.raises(InvalidParam):
            cross_term_experiment(tiny, [10], [0])


class TestSnrConvergence:
    def test_dispersion_shrinks_with_N(self):
        recs = quadratic_form_convergence(TEMPLATE, [8, 32, 128, 512], SEEDS)
        med = med_rel_by_N(recs, "snr")
        assert med[8] > med[32] > med[128] > med[512]

    def test_median_centres_on_limit(self):
        recs = quadratic_form_convergence(TEMPLATE, [128], SEEDS)
        snr = [r for r in recs if r.statistic == "snr"]
        predicted = snr[0].predicted
        med_obs = statistics.median(r.observed for r in snr)
        assert abs(med_obs - predicted) / predicted < 0.05

    def test_decomposition_residuals_tiny(self):
        recs = quadratic_form_convergence(TEMPLATE, [8, 64], SEEDS[:10])
        resid = [r.observed for r in recs if r.statistic == "decomposition_residual"]
        assert len(resid) == 2 * 10
        assert max(resid) <= 1e-8

    def test_prediction_is_inverse_mu(self):
        recs = quadratic_form_convergence(TEMPLATE, [16], [0])
        snr = [r for r in recs if r.statistic == "snr"][0]
        from cdmafusion import asymptotic_params
        from dataclasses import replace

        params16 = replace(TEMPLATE, N=16, Ns=16)
        assert snr.predicted == pytest.approx(1.0 / asymptotic_params(params16).mu, rel=1e-14)


class TestScheduleValidation:
    def test_rejects_non_increasing_sizes(self):
        with pytest.raises(InvalidParam):
            quadratic_form_convergence(TEMPLATE, [32, 32], [0])
        with pytest.raises(InvalidParam):
            diagonal_term_experiment(TEMPLATE, [64, 8], [0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParam):
            quadratic_form_convergence(TEMPLATE, [], [0])
        with pytest.raises(InvalidParam):
            mil_residual_experiment(TEMPLATE, [8], [])

    def test_rejects_noiseless_sensors(self):
        quiet = SystemParams(N=10, Ns=10, P=10.0, m=1.0, sigma_v2=0.0, sigma_w2=1.0)
        with pytest.raises(DomainError):
            quadratic_form_convergence(quiet, [8], [0])

    def test_record_fields(self):
        recs = quadratic_form_convergence(TEMPLATE, [8], [4])
        snr = [r for r in recs if r.statistic == "snr"][0]
        assert (snr.N, snr.Ns, snr.alpha, snr.seed) == (8, 8, 1.0, 4)
        assert snr.abs_error == abs(snr.observed - snr.predicted)
        assert snr.rel_error == snr.abs_error / snr.predicted


class TestSinglePass:
    def test_matches_the_four_experiments_in_order(self):
        # N=24 has 276 sensor pairs, so the cross term's pair subsampling runs too
        N_values, seeds = [8, 24], SEEDS[:3]
        expected = (
            quadratic_form_convergence(TEMPLATE, N_values, seeds)
            + diagonal_term_experiment(TEMPLATE, N_values, seeds)
            + cross_term_experiment(TEMPLATE, N_values, seeds)
            + mil_residual_experiment(TEMPLATE, N_values, seeds)
        )
        assert _experiments(TEMPLATE, N_values, seeds) == expected

    def test_schedule_is_checked_before_the_first_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a matrix was drawn before the schedule check failed")

        monkeypatch.setattr(convergence, "generate", no_draw)
        tiny_first = SystemParams(N=8, Ns=1, P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0)
        with pytest.raises(InvalidParam, match="cross terms need at least 2 sensors, got Ns=1 at N=8"):
            cross_term_experiment(tiny_first, [8, 16], [0])


class TestWorkers:
    def test_public_experiments_run_in_line(self, monkeypatch):
        def no_fork():
            raise AssertionError("a convergence experiment forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        for experiment in (quadratic_form_convergence, diagonal_term_experiment, cross_term_experiment,
                           mil_residual_experiment):
            assert len(experiment(TEMPLATE, [8, 16], SEEDS[:3])) >= 2 * 3

    def test_worker_count_does_not_change_the_records(self):
        N_values, seeds = [8, 24], SEEDS[:3]
        assert _experiments(TEMPLATE, N_values, seeds, workers=2) == _experiments(TEMPLATE, N_values, seeds)


class TestPairIndex:
    # 1, 3, 210 and 130816 sensor pairs: every pair at Ns = 2 and 3, a
    # 200-pair subset at Ns = 21 and 512
    @pytest.mark.parametrize("Ns", [2, 3, 21, 512])
    def test_pairs_are_those_of_triu_indices(self, Ns):
        Y = np.random.default_rng(Ns).normal(size=(6, Ns))
        rows, cols = np.triu_indices(Ns, k=1)
        for seed in SEEDS[:3]:
            pi, pj = rows, cols
            if rows.size > convergence._MAX_PAIRS:
                pick = np.random.Generator(np.random.Philox(seed_sequence(seed, convergence._PAIR_STREAM)))
                idx = pick.choice(rows.size, size=convergence._MAX_PAIRS, replace=False)
                pi, pj = rows[idx], cols[idx]
            expected = float(np.mean(np.abs(np.einsum("ki,ki->i", Y[:, pi], Y[:, pj]))))
            assert convergence._cross_mean(Y, seed) == expected


class TestWhitenedStatistics:
    @staticmethod
    def dense_gram(params, seed):
        """S^T Sigma^{-1} S from a dense solve against an independently built covariance."""
        S = generate(params.N, params.Ns, seed).entries
        g = amplifier_gain(params)
        cov = g * g * params.sigma_v2 * (S @ S.T) + params.sigma_w2 * np.eye(params.N)
        return g, S.T @ np.linalg.solve(cov, S)

    @pytest.mark.parametrize("N, Ns", [(12, 20), (70, 9)])
    def test_diagonal_forms_against_dense_solves(self, N, Ns):
        # Q_0 is Sigma's rank-one downdate in the package; the oracle rebuilds it
        # from S without sensor 0 and solves both covariances densely
        params = replace(TEMPLATE, N=N, Ns=Ns, sigma_v2=0.7)
        model = ChannelModel.from_params(params, generate(N, Ns, 3))
        y = model.whiten(model.S.entries)[:, 0]
        full, leave = y @ y, model.leave_one_out_form(0)
        g, S = amplifier_gain(params), model.S.entries
        s, rest = S[:, 0], S[:, 1:]
        cov = g * g * params.sigma_v2 * (S @ S.T) + params.sigma_w2 * np.eye(N)
        leave_out = g * g * params.sigma_v2 * (rest @ rest.T) + params.sigma_w2 * np.eye(N)
        assert full == pytest.approx(s @ np.linalg.solve(cov, s), rel=1e-12)
        assert leave == pytest.approx(s @ np.linalg.solve(leave_out, s), rel=1e-12)

    # 21, 190 and 210 sensor pairs: every pair below the 200-pair cut, a subset above it
    @pytest.mark.parametrize("N", [7, 20, 21])
    def test_against_dense_gram_matrix(self, N):
        seeds = SEEDS[:3]
        params = replace(TEMPLATE, N=N, Ns=N)
        records = _experiments(TEMPLATE, [N], seeds, ("snr", "cross"))
        by_stat = {(r.statistic, r.seed): r for r in records}
        rows, cols = np.triu_indices(N, k=1)
        for seed in seeds:
            g, G = self.dense_gram(params, seed)
            pi, pj = rows, cols
            if rows.size > 200:
                pick = np.random.Generator(np.random.Philox(seed_sequence(seed, convergence._PAIR_STREAM)))
                idx = pick.choice(rows.size, size=200, replace=False)
                pi, pj = rows[idx], cols[idx]
            expected = float(np.mean(np.abs(G[pi, pj])))
            assert by_stat["cross_mean", seed].observed == pytest.approx(expected, rel=1e-12, abs=0)
            assert by_stat["snr", seed].observed == pytest.approx(g * g * G.sum(), rel=1e-12, abs=0)
            assert 0.0 <= by_stat["decomposition_residual", seed].observed <= 1e-12
