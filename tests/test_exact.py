"""Finite-size closed forms: covariance, quadratic form, detector direction, tails.

The quadratic form is cross-checked against a dense np.linalg.solve oracle,
which shares no code path with the bordered Cholesky route used by the
library.
"""

import math

import hypothesis
import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest

from cdmafusion import (
    ChannelModel,
    DetectorSpec,
    DimensionMismatch,
    McConfig,
    NumericalFailure,
    SystemParams,
    channel_covariance,
    amplifier_gain,
    asymptotic_params,
    asymptotic_performance,
    estimate,
    exact_performance,
    quadratic_form,
    simulate_trials,
)
from cdmafusion import exact
from cdmafusion.core import snr_groups
from cdmafusion.exact import exact_report
from cdmafusion.spreading import SpreadingMatrix, generate, load


def make_params(**kw) -> SystemParams:
    base = dict(N=16, Ns=16, P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0, p0=0.5)
    base.update(kw)
    return SystemParams(**base)


def model_for(params: SystemParams, seed: int = 0) -> ChannelModel:
    return ChannelModel.from_params(params, generate(params.N, params.Ns, seed=seed))


def stack_forms(params: SystemParams, block) -> list[float]:
    """quadratic_form of one model over a (k, N, Ns) stack, as sweep-grid's blocks take it."""
    return quadratic_form(ChannelModel.from_params(params, SpreadingMatrix(entries=block)))


def qf_oracle(model: ChannelModel) -> float:
    """Dense-solve route for the quadratic form."""
    cov = channel_covariance(model)
    s1 = model.S.entries.sum(axis=1)
    return float(s1 @ np.linalg.solve(cov, s1))


class TestChannelModel:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ChannelModel.from_params(make_params(N=16, Ns=8), generate(16, 4, seed=0))
        with pytest.raises(DimensionMismatch):
            ChannelModel.from_params(make_params(N=16, Ns=8), generate(8, 8, seed=0))

    def test_checks_the_entries_not_the_declared_size(self):
        # a 4 x 4 matrix against N = 8 params would give a 4-chip channel's q
        p = make_params(N=8, Ns=8)
        S = generate(4, 4, seed=0)
        with pytest.raises(DimensionMismatch, match="signature matrix is 4x4 but params declare N=8, Ns=8"):
            ChannelModel.from_params(p, S)
        with pytest.raises(DimensionMismatch):
            exact_performance(p, S, DetectorSpec())
        with pytest.raises(DimensionMismatch):
            estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=100, seed=0))
        # a stack's matrices are the last two axes, as sweep-grid's blocks build them
        stack = SpreadingMatrix(entries=np.stack([generate(8, 8, seed=k).entries for k in range(3)]))
        assert ChannelModel.from_params(p, stack).S is stack

    @pytest.mark.parametrize("call", [
        lambda p, S, model: model.whiten(np.ones(8)),
        lambda p, S, model: model.detector,
        lambda p, S, model: model.leave_one_out_form(0),
        lambda p, S, model: exact_performance(p, S, DetectorSpec()),
        lambda p, S, model: estimate(p, S, DetectorSpec(), McConfig(trials_per_hypothesis=100, seed=0)),
        lambda p, S, model: simulate_trials(p, S, 0, 10, np.random.default_rng(0)),
    ], ids=["whiten", "detector", "leave_one_out_form", "exact_performance", "estimate", "simulate_trials"])
    def test_single_matrix_calls_refuse_a_stack(self, call):
        # a stacked model serves quadratic_form alone; each call that serves one
        # channel raises the package's error, not numpy's
        p = make_params(N=8, Ns=8)
        stack = SpreadingMatrix(entries=np.stack([generate(8, 8, seed=k).entries for k in range(3)]))
        model = ChannelModel.from_params(p, stack)
        with pytest.raises(DimensionMismatch, match=r"stack of shape \(3, 8, 8\)"):
            call(p, stack, model)
        assert len(quadratic_form(model)) == 3

    def test_equality_is_identity(self):
        p = make_params(N=8, Ns=8)
        one, two = model_for(p), model_for(p)
        assert one == one
        assert (one == two) is False and (one != two) is True

    def test_carries_gain(self):
        # Ns g^2 (m^2 + sigma_v2) = P  =>  g = sqrt(8 / (2 * 2)) = sqrt(2); g^2 sigma_v2 = 2
        # outweighs sigma_w2 = 1, so it is the unit U and the receiver noise is w = 1/2
        p = make_params(N=4, Ns=2, P=8.0, m=1.0, sigma_v2=1.0)
        assert amplifier_gain(p) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert snr_groups(p)[0] == pytest.approx(2.0, rel=1e-15)
        assert (model_for(p).c, model_for(p).w) == (1.0, pytest.approx(0.5, rel=1e-15))
        # at P = 2, g^2 sigma_v2 = 1/2 falls below sigma_w2 = 1, which becomes the unit
        p = make_params(N=4, Ns=2, P=2.0, m=1.0, sigma_v2=1.0)
        assert (model_for(p).c, model_for(p).w) == (pytest.approx(0.5, rel=1e-15), 1.0)


class TestChannelCovariance:
    def test_exactly_symmetric(self):
        cov = channel_covariance(model_for(make_params(N=24, Ns=31), seed=3))
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("k,N,Ns", [(None, 24, 31), (None, 128, 512), (1, 1, 3), (3, 33, 2),
                                        (16, 32, 64), (4, 128, 64), (1, 128, 512)])
    def test_exactly_symmetric_alone_stacked_and_in_place(self, k, N, Ns):
        # there is no symmetrizing pass: numpy's A A^T must be symmetric as built,
        # for one matrix, for a stack, and into the leading block of a bordered buffer
        p = make_params(N=N, Ns=Ns, sigma_v2=1.3, sigma_w2=0.7)
        if k is None:
            S = generate(N, Ns, seed=3)
        else:
            S = SpreadingMatrix(entries=np.stack([generate(N, Ns, seed).entries for seed in range(k)]))
        model = ChannelModel(S, *snr_groups(p)[1:3])
        cov = channel_covariance(model)
        assert np.array_equal(cov, cov.mT)
        bordered = np.full(cov.shape[:-2] + (N + 1, N + 1), np.nan)
        block = bordered[..., :N, :N]
        assert channel_covariance(model, out=block) is block
        assert np.array_equal(block, cov)
        assert np.isnan(bordered[..., N, :]).all() and np.isnan(bordered[..., :, N]).all()

    def test_positive_definite_floor(self):
        for seed in (0, 1, 2):
            p = make_params(N=12, Ns=40, sigma_v2=2.5, sigma_w2=0.3)
            mdl = model_for(p, seed=seed)
            assert np.linalg.eigvalsh(channel_covariance(mdl)).min() >= mdl.w - 1e-12

    def test_noiseless_sensors_give_diagonal(self):
        p = make_params(N=8, Ns=8, sigma_v2=0.0, sigma_w2=0.7)
        cov = channel_covariance(model_for(p))
        # with no interference the receiver noise is the unit
        assert np.array_equal(cov, np.eye(8))

    def test_scalar_case_closed_form(self):
        # N=1, Ns=1, S=[[1]]: Sigma = [[g^2 sigma_v2 + sigma_w2]], in units of U
        p = make_params(N=1, Ns=1, P=4.0, sigma_v2=1.0, sigma_w2=0.5)
        mdl = ChannelModel.from_params(p, load(np.array([[1.0]])))
        cov = channel_covariance(mdl)
        assert cov.shape == (1, 1)
        assert cov[0, 0] * snr_groups(p)[0] == pytest.approx(amplifier_gain(p) ** 2 + 0.5, rel=1e-14)


class TestQuadraticForm:
    @pytest.mark.parametrize("N,Ns,seed", [(4, 2, 0), (16, 16, 1), (32, 9, 2), (8, 40, 3), (64, 64, 4)])
    def test_against_dense_solve(self, N, Ns, seed):
        mdl = model_for(make_params(N=N, Ns=Ns, sigma_v2=1.3, sigma_w2=0.8), seed=seed)
        assert quadratic_form(mdl) == pytest.approx(qf_oracle(mdl), rel=1e-10)

    def test_nonnegative(self):
        for seed in range(8):
            assert quadratic_form(model_for(make_params(N=8, Ns=8), seed=seed)) >= 0.0

    def test_zero_when_columns_cancel(self):
        p = make_params(N=1, Ns=2, P=1.0)
        mdl = ChannelModel.from_params(p, load(np.array([[1.0, -1.0]])))
        assert quadratic_form(mdl) == 0.0

    def test_vanishing_gain_keeps_the_coin_flip_limit(self):
        # Ns (m^2 + sigma_v2) overflows, so g underflows; in the groups r is ~1e-154
        # and the balanced error probability is 1/2 less the rounding of Q(r)
        p = make_params(N=8, Ns=8, sigma_v2=1.7e308)
        S = generate(8, 8, seed=0)
        rep = exact_performance(p, S, DetectorSpec())
        with mpmath.workdps(50):
            A = mpmath.matrix(S.entries.tolist())
            cov = (mpmath.mpf(10) / 8) * A * A.T + mpmath.eye(8)  # g^2 sigma_v2 = P / Ns in the limit
            s1 = A * mpmath.matrix([1] * 8)
            r = mpmath.sqrt(mpmath.mpf(10) / 8 / (1 + mpmath.mpf(1.7e308)) * (s1.T * mpmath.lu_solve(cov, s1))[0])
            want = mpmath.log(mpmath.erfc(r / mpmath.sqrt(2)) / 2)
        assert rep.log_pe == pytest.approx(float(want), rel=1e-12)
        assert (rep.pf, rep.pm, rep.pe) == (0.5, 0.5, 0.5)

    def test_rejects_indefinite_covariance(self):
        mdl = ChannelModel(S=generate(4, 4, seed=0), c=-10.0, w=1.0)
        with pytest.raises(NumericalFailure):
            quadratic_form(mdl)


class TestFactoredChannel:
    def test_factors_once_across_repeated_calls(self, linalg_calls):
        mdl = model_for(make_params(N=12, Ns=10), seed=5)
        qf, detector = quadratic_form(mdl), mdl.detector
        for _ in range(3):
            assert quadratic_form(mdl) == qf
            np.testing.assert_array_equal(mdl.detector, detector)
        assert linalg_calls == {"cholesky": 1, "solve_lower": 1}

    def test_solve_against_dense_solve(self):
        mdl = model_for(make_params(N=16, Ns=24, sigma_v2=1.3, sigma_w2=0.8), seed=2)
        cov = channel_covariance(mdl)
        # converge's diagonal forms of sensor 0: the bordered factor of its
        # leave-one-out covariance, and the whitened signatures
        s = mdl.S.entries[:, 0]
        y = mdl.whiten(mdl.S.entries)[:, 0]
        full, leave = y @ y, mdl.leave_one_out_form(0)
        assert leave == pytest.approx(s @ np.linalg.solve(cov - mdl.c * np.outer(s, s), s), rel=1e-10)
        assert full == pytest.approx(s @ np.linalg.solve(cov, s), rel=1e-10)
        np.testing.assert_array_equal(mdl.s1, mdl.S.entries.sum(axis=1))
        np.testing.assert_allclose(
            mdl.detector, np.linalg.solve(channel_covariance(mdl), mdl.s1), rtol=1e-10
        )

    # 150 rows are three diagonal blocks of the substitution, the last one short
    @pytest.mark.parametrize("N, Ns", [(1, 3), (17, 26), (33, 66), (150, 20)])
    def test_whiten_against_dense_cholesky(self, N, Ns, linalg_calls):
        mdl = model_for(make_params(N=N, Ns=Ns, sigma_v2=1.3, sigma_w2=0.8), seed=N)
        A = mdl.S.entries
        cov = mdl.c * (A @ A.T) + mdl.w * np.eye(N)
        L = np.linalg.cholesky(cov)
        B = np.column_stack([A, np.random.default_rng(N).normal(size=(N, 2))])
        np.testing.assert_allclose(mdl.whiten(B), np.linalg.solve(L, B), rtol=0, atol=1e-12)
        np.testing.assert_allclose(mdl.whiten(B[:, 0]), np.linalg.solve(L, B[:, 0]), rtol=0, atol=1e-12)
        assert linalg_calls == {"cholesky": 1, "solve_lower": 2}


class TestExactPerformance:
    def test_report_fields(self):
        p = make_params()
        rep = exact_performance(p, generate(16, 16, seed=0), DetectorSpec())
        assert rep.mc is None
        assert rep.tau_prime == 0.0
        assert rep.q == quadratic_form(model_for(p))
        assert 0.0 < rep.pf < 0.5 and 0.0 < rep.pm < 0.5

    def test_pe_is_prior_mix(self):
        p = make_params(p0=0.3)
        for spec in (DetectorSpec(), DetectorSpec(criterion="fixed", tau_prime=1.5)):
            rep = exact_performance(p, generate(16, 16, seed=1), spec)
            assert rep.pe == p.p0 * rep.pf + p.p1 * rep.pm
            assert rep.log_pe == pytest.approx(math.log(rep.pe), rel=1e-14)

    def test_symmetric_at_zero_threshold(self):
        rep = exact_performance(
            make_params(), generate(16, 16, seed=2), DetectorSpec(criterion="fixed", tau_prime=0.0)
        )
        assert rep.pf == rep.pm

    def test_monotone_in_threshold(self):
        p = make_params()
        S = generate(16, 16, seed=3)
        taus = np.linspace(-3.0, 3.0, 13)
        reps = [exact_performance(p, S, DetectorSpec(criterion="fixed", tau_prime=float(t))) for t in taus]
        pfs = [r.pf for r in reps]
        pms = [r.pm for r in reps]
        assert all(b <= a for a, b in zip(pfs, pfs[1:]))
        assert all(a <= b for a, b in zip(pms, pms[1:]))

    def test_np_pins_false_alarm(self):
        p = make_params(N=32, Ns=24)
        for alpha_fa in (0.01, 0.05, 0.2):
            rep = exact_performance(p, generate(32, 24, seed=4), DetectorSpec(criterion="np", alpha_fa=alpha_fa))
            assert rep.pf == pytest.approx(alpha_fa, abs=1e-9)

    def test_degenerate_cancelling_signatures(self):
        p = make_params(N=1, Ns=2, P=1.0)
        S = load(np.array([[1.0, -1.0]]))
        at_zero = exact_performance(p, S, DetectorSpec(criterion="fixed", tau_prime=0.0))
        assert (at_zero.pf, at_zero.pm) == (1.0, 0.0)
        assert at_zero.log_pe == math.log(0.5)
        above = exact_performance(p, S, DetectorSpec(criterion="fixed", tau_prime=0.5))
        assert (above.pf, above.pm) == (0.0, 1.0)

    def test_np_at_zero_snr_follows_the_tie_rule(self):
        # the threshold's limit at x = 0 is 0, where the statistic always ties
        p = make_params(N=1, Ns=2, P=1.0)
        rep = exact_performance(p, load(np.array([[1.0, -1.0]])), DetectorSpec(criterion="np", alpha_fa=0.1))
        assert (rep.tau_prime, rep.pf, rep.pm) == (0.0, 1.0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exact_performance(make_params(N=16, Ns=16), generate(16, 8, seed=0), DetectorSpec())

    def test_better_channel_helps(self):
        # more transmit power strictly reduces the balanced error probability
        S = generate(16, 16, seed=7)
        pes = [
            exact_performance(make_params(P=P), S, DetectorSpec()).pe
            for P in (1.0, 4.0, 16.0, 64.0)
        ]
        assert all(b < a for a, b in zip(pes, pes[1:]))


detectors = st.one_of(
    st.just(DetectorSpec()),
    st.builds(lambda a: DetectorSpec(criterion="np", alpha_fa=a), st.floats(1e-6, 0.999)),
    st.builds(lambda t: DetectorSpec(criterion="fixed", tau_prime=t), st.floats(-50.0, 50.0)),
)
system_params = st.builds(
    lambda N, Ns, P, m, sigma_v2, sigma_w2, p0: SystemParams(
        N=N, Ns=Ns, P=P, m=m, sigma_v2=sigma_v2, sigma_w2=sigma_w2, p0=p0
    ),
    N=st.integers(1, 512),
    Ns=st.integers(1, 2048),
    P=st.floats(1e-3, 1e4),
    m=st.floats(0.05, 20.0),
    sigma_v2=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
    sigma_w2=st.floats(1e-3, 1e3),
    p0=st.floats(0.01, 0.99),
)


class TestTailReport:
    """The one tail function, seen through the reports every analytic route returns."""

    def test_log_pe_outlives_pe(self):
        # at this SNR both tails underflow to 0, their logs stay finite
        p = make_params(N=8, Ns=32, P=1e6, sigma_v2=1e-6)
        rep = exact_performance(p, generate(8, 32, seed=0), DetectorSpec())
        assert (rep.pf, rep.pm, rep.pe) == (0.0, 0.0, 0.0)
        assert -1e7 < rep.log_pe < -1e3

    def test_least_positive_form_has_a_root_snr(self):
        # 2 g m sqrt(qf) = 2.2e-162 is a normal float, though g^2 qf underflows
        p = SystemParams(N=1, Ns=1, P=0.25, m=1.0, sigma_v2=0.0, sigma_w2=1.0)
        rep = exact_report(p, 5e-324, DetectorSpec())
        with mpmath.workdps(50):
            r = mpmath.sqrt(mpmath.mpf(0.25) * mpmath.mpf(5e-324))
            want = mpmath.log(mpmath.erfc(r / mpmath.sqrt(2)) / 2)
        assert rep.log_pe == pytest.approx(float(want), rel=1e-12)
        assert (rep.pf, rep.pm, rep.pe) == (0.5, 0.5, 0.5)

    @hypothesis.seed(20261018)
    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(params=system_params, q=st.floats(0.0, 1e6))
    def test_bayes_beats_deciding_blind(self, params, q):
        # always declaring the likelier hypothesis errs with min(p0, p1); the
        # slack is the rounding of p0 pf + p1 pm
        rep = exact_report(params, q, DetectorSpec())
        assert rep.pe <= min(params.p0, params.p1) * (1.0 + 4e-16)
        assert rep.log_pe <= math.log(min(params.p0, params.p1)) + 4e-16

    @hypothesis.seed(20261018)
    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(params=system_params, spec=detectors)
    def test_exact_at_the_limiting_form_is_the_asymptotic_report(self, params, spec):
        # the limit is g^2 qf = 1/mu, so the exact route at that qf is the asymptotic one
        g = amplifier_gain(params)
        q = snr_groups(params)[0] / (asymptotic_params(params).mu * g * g)
        ex, asym = exact_report(params, q, spec), asymptotic_performance(params, spec)
        assert ex.tau_prime == pytest.approx(asym.tau_prime, rel=1e-12, abs=1e-12)
        assert ex.log_pe == pytest.approx(asym.log_pe, rel=1e-12)
        for a, b in ((ex.pf, asym.pf), (ex.pm, asym.pm), (ex.pe, asym.pe)):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


class TestQuadraticForms:
    """The stacked route against the one-matrix route and a dense-solve oracle."""

    @staticmethod
    def dense_qf(params, A):
        """U qf by a dense solve of the physical covariance."""
        g = amplifier_gain(params)
        cov = g * g * params.sigma_v2 * (A @ A.T) + params.sigma_w2 * np.eye(params.N)
        s1 = A.sum(axis=1)
        return float(s1 @ np.linalg.solve(cov, s1)) * snr_groups(params)[0]

    @pytest.mark.parametrize("N,Ns", [(1, 1), (1, 3), (7, 5), (16, 40), (33, 2), (128, 512), (128, 64)])
    def test_matches_one_matrix_route_and_dense_oracle(self, N, Ns):
        p = make_params(N=N, Ns=Ns, sigma_v2=1.3, sigma_w2=0.7)
        matrices = [generate(N, Ns, seed) for seed in range(6)]
        qfs = stack_forms(p, np.stack([S.entries for S in matrices]))
        assert len(qfs) == len(matrices)
        for qf, S in zip(qfs, matrices):
            # bit for bit, which is what keeps the sweep-grid CSV unchanged
            assert qf == quadratic_form(ChannelModel.from_params(p, S))
            assert qf == pytest.approx(self.dense_qf(p, S.entries), rel=1e-12)

    def test_cancelling_signatures_give_zero_and_the_tie_rule(self):
        p = make_params(N=1, Ns=2, P=1.0)
        block = np.array([[[1.0, -1.0]], [[1.0, 1.0]], [[-1.0, 1.0]]])
        qfs = stack_forms(p, block)
        assert qfs[0] == 0.0 and qfs[2] == 0.0
        assert qfs[1] == pytest.approx(self.dense_qf(p, block[1]), rel=1e-12)
        rep = exact_report(p, qfs[0], DetectorSpec())
        assert (rep.pf, rep.pm, rep.q) == (1.0, 0.0, 0.0)

    def test_report_equals_exact_performance(self):
        p = make_params(N=8, Ns=12)
        S = generate(8, 12, seed=3)
        for spec in (DetectorSpec(), DetectorSpec(criterion="np", alpha_fa=0.1)):
            (qf,) = stack_forms(p, S.entries[None])
            assert exact_report(p, qf, spec) == exact_performance(p, S, spec)

    def test_one_factorization_and_no_solve_per_matrix(self, linalg_calls):
        p = make_params(N=8, Ns=4)
        stack_forms(p, np.stack([generate(8, 4, seed).entries for seed in range(5)]))
        assert linalg_calls == {"cholesky": 5}

    @pytest.mark.parametrize("sigma_w2", [1e-300, 1e-20, 1e20, 1e300])
    def test_border_is_scaled_at_the_ends_of_the_float_range(self, sigma_w2):
        # with noiseless sensors Sigma = sigma_w2 I, the unit, so q sits exactly on the
        # bound ||S 1||^2 / w, w = 1, that sets the border's corner; with noisy sensors
        # the interference is the unit at sigma_w2 = 1e-300 and 1e-20, and the corner
        # 1 + ||S 1||^2 / w grows to 1e301 and 1e21
        p = make_params(N=16, Ns=24, sigma_v2=0.0, sigma_w2=sigma_w2)
        block = np.stack([generate(16, 24, seed).entries for seed in range(3)])
        for q, A in zip(stack_forms(p, block), block):
            s1 = A.sum(axis=1)
            assert q == pytest.approx(s1 @ s1, rel=1e-14)
        p = make_params(N=16, Ns=24, sigma_v2=1.3, sigma_w2=sigma_w2)
        for q, A in zip(stack_forms(p, block), block):
            assert q == pytest.approx(self.dense_qf(p, A), rel=1e-10)

    def test_not_positive_definite_is_numerical_failure(self, monkeypatch):
        original = exact.channel_covariance
        # the stand-in builds in the caller's buffer, as channel_covariance does
        monkeypatch.setattr(exact, "channel_covariance",
                            lambda model, out=None: np.negative(original(model, out=out), out=out))
        block = np.stack([generate(4, 4, seed).entries for seed in range(3)])
        with pytest.raises(NumericalFailure, match="factorization failed"):
            stack_forms(make_params(N=4, Ns=4), block)

    def test_non_finite_covariance_is_numerical_failure(self):
        # in the units of snr_groups c and w are at most 1, so only a stack with
        # entries outside the signature alphabet makes the covariance non-finite
        block = np.stack([generate(4, 4, seed).entries for seed in range(2)])
        block[1, 2, 3] = np.nan
        with pytest.raises(NumericalFailure, match="non-finite"):
            stack_forms(make_params(N=4, Ns=4), block)

    def test_shape_check(self):
        p = make_params(N=8, Ns=4)
        # one matrix is one model, whose form is one float
        S = generate(8, 4, seed=0)
        q = stack_forms(p, S.entries)
        assert type(q) is float and q == quadratic_form(ChannelModel.from_params(p, S))
        with pytest.raises(DimensionMismatch):
            stack_forms(p, np.stack([generate(8, 5, seed=0).entries]))
