"""Large-system limits: interference density, fixed-point root, limiting SNR.

beta0 is validated as a root of its defining quadratic (residual check,
which is an oracle independent of the solver's algebra) plus two closed-form
roots checked symbolically: alpha=1, gamma=1, sigma_w2=1 gives the golden
ratio conjugate (sqrt(5)-1)/2, and alpha=1, gamma=0.5, sigma_w2=1 gives
sqrt(3)-1.
"""

import math

import mpmath
import numpy as np
import pytest

from cdmafusion import (
    AsymptoticParams,
    DetectorSpec,
    DomainError,
    SystemParams,
    amplifier_gain,
    asymptotic_params,
    asymptotic_performance,
    beta0,
    exact_performance,
    gamma,
    large_alpha_pe,
    mu,
    single_sensor_pe,
)
from cdmafusion.core import snr_groups
from cdmafusion.spreading import load
from conftest import q, zero_threshold_pe


def make_params(**kw) -> SystemParams:
    base = dict(N=10, Ns=10, P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0, p0=0.5, p1=0.5)
    base.update(kw)
    return SystemParams(**base)


def quadratic_residual(alpha: float, gamma_val: float, sigma_w2: float, b: float) -> float:
    return gamma_val * sigma_w2 * b * b + (alpha * (gamma_val + sigma_w2) - gamma_val) * b - alpha


class TestGamma:
    def test_matches_gain_identity(self):
        # gamma must equal g^2 sigma_v2 alpha for every parameter point
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = make_params(
                N=int(rng.integers(1, 100)),
                Ns=int(rng.integers(1, 100)),
                P=float(rng.uniform(0.1, 40.0)),
                m=float(rng.uniform(0.2, 3.0)),
                sigma_v2=float(rng.uniform(0.01, 5.0)),
            )
            g = amplifier_gain(p)
            assert gamma(p) == pytest.approx(g * g * p.sigma_v2 * p.alpha, rel=1e-12)

    def test_reference_point(self):
        assert gamma(make_params()) == pytest.approx(0.5, rel=1e-15)

    def test_zero_noise_gives_no_interference(self):
        assert gamma(make_params(sigma_v2=0.0)) == 0.0

    def test_huge_noise_stays_finite(self):
        # (P/N) sigma_v2 would overflow; the noise fraction tends to 1, so gamma -> P/N
        assert gamma(make_params(N=8, Ns=8, sigma_v2=1.7e308)) == 10.0 / 8


class TestBeta0:
    def test_root_residual_grid(self):
        for alpha in (0.0, 0.1, 0.5, 1.0, 2.0, 8.0, 64.0, 1e3, 1e4):
            for gv in (1e-6, 1e-3, 0.1, 0.5, 1.0, 5.0, 50.0):
                for sw in (0.05, 0.5, 1.0, 4.0):
                    b = beta0(alpha, gv, sw)
                    assert b > 0.0
                    res = quadratic_residual(alpha, gv, sw, b)
                    assert abs(res) <= 1e-9 * max(1.0, alpha)

    def test_golden_ratio_conjugate_root(self):
        assert beta0(1.0, 1.0, 1.0) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)

    def test_sqrt3_root(self):
        assert beta0(1.0, 0.5, 1.0) == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-12)

    def test_zero_load_exact(self):
        assert beta0(0.0, 0.7, 0.25) == 1.0 / 0.25

    def test_zero_gamma_is_interference_free_root(self):
        # gamma == 0 leaves the linear equation sigma_w2 b = 1
        assert beta0(1.0, 0.0, 2.0) == 0.5
        assert beta0(3.0, 0.0, 0.25) == pytest.approx(4.0, rel=1e-15)

    def test_extreme_loads_stay_finite(self):
        b = beta0(1e4, 5e-6, 1.0)
        assert 0.0 < b < 1.0
        assert abs(quadratic_residual(1e4, 5e-6, 1.0, b)) <= 1e-9 * 1e4

    def test_monotone_decreasing_in_load(self):
        alphas = (0.1, 0.5, 1.0, 2.0, 8.0, 64.0)
        roots = [beta0(a, 0.8, 1.2) for a in alphas]
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_large_load_limit(self):
        # at fixed gamma, beta0 -> 1/(gamma + sigma_w2) as alpha -> infinity
        lim = 1.0 / (1.0 + 1.0)
        assert abs(beta0(1e6, 1.0, 1.0) - lim) < 1e-5

    @pytest.mark.parametrize("alpha, gv, sw", [
        (1.0, 3.7375e-187, 3.0e-277),  # b == 0 and gamma sigma_w2 underflows
        (1.0, 1e-150, 1e-200),  # b^2 and gamma sigma_w2 underflow, b > 0
        (1.0, 1e-10, 1e200),  # b^2 overflows
    ])
    def test_conjugate_root_where_the_coefficients_leave_the_float_range(self, alpha, gv, sw):
        # the textbook root cancels to 4 a alpha / b^2 ~ 1e-210 relative here,
        # so 450 digits keep 240
        with mpmath.workdps(450):
            a, b = mpmath.mpf(gv) * sw, alpha * (mpmath.mpf(gv) + sw) - gv
            root = (mpmath.sqrt(b * b + 4 * a * alpha) - b) / (2 * a)
        assert beta0(alpha, gv, sw) == pytest.approx(float(root), rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha, gv, sw", [
        (0.5, 5e-201, 1e-201),  # b < 0 and gamma sigma_w2 underflows to 0
        (0.5, 1.44e196, 7.92e-138),  # b < 0 and b^2 overflows
        (0.5, 1e-300, 1e-308),  # b < 0, b^2 and gamma sigma_w2 underflow
        (0.25, 1e300, 1e299),  # b < 0, b^2 overflows and 4 gamma sigma_w2 alpha too
    ])
    def test_direct_root_where_the_coefficients_leave_the_float_range(self, alpha, gv, sw):
        # the textbook root adds two positive terms here, so 60 digits are plenty
        with mpmath.workdps(60):
            a, b = mpmath.mpf(gv) * sw, alpha * (mpmath.mpf(gv) + sw) - gv
            assert b < 0
            root = (mpmath.sqrt(b * b + 4 * a * alpha) - b) / (2 * a)
        assert beta0(alpha, gv, sw) == pytest.approx(float(root), rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "alpha,gv,sw",
        [(-0.1, 1.0, 1.0), (math.inf, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, math.nan, 1.0),
         (1.0, 1.0, 0.0), (1.0, 1.0, -2.0)],
    )
    def test_domain(self, alpha, gv, sw):
        with pytest.raises(DomainError):
            beta0(alpha, gv, sw)


class TestMu:
    def test_reference_point(self):
        p = make_params()
        b = beta0(p.alpha, gamma(p), p.sigma_w2)
        assert b == pytest.approx(0.7320508075688773, abs=1e-15)
        assert mu(p, b) == pytest.approx(0.37320508075688774, abs=1e-15)

    def test_two_term_structure(self):
        p = make_params(Ns=25, N=50, P=7.0, m=1.4, sigma_v2=0.6)
        val = mu(p, 0.9)
        assert val == pytest.approx(0.6 / 25 + (1.4**2 + 0.6) / (7.0 * 0.9), rel=1e-14)

    def test_rejects_bad_root(self):
        p = make_params()
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                mu(p, bad)

    def test_chain_helper_consistent(self):
        p = make_params(N=64, Ns=32, P=5.0, sigma_v2=2.0, sigma_w2=0.5)
        ap = asymptotic_params(p)
        assert isinstance(ap, AsymptoticParams)
        assert ap.alpha == 0.5
        assert ap.gamma == pytest.approx(gamma(p), rel=1e-15)
        assert ap.beta0 == pytest.approx(beta0(0.5, ap.gamma, 0.5), rel=1e-15)
        assert ap.mu == pytest.approx(mu(p, ap.beta0), rel=1e-15)


class TestAsymptoticPerformance:
    def test_reference_pe(self):
        rep = asymptotic_performance(make_params(), DetectorSpec())
        assert rep.tau_prime == 0.0
        assert rep.pe == pytest.approx(0.0508240771123903, abs=1e-15)
        assert rep.pf == rep.pm

    def test_matches_minimum_error_probability(self):
        # the zero-threshold report is q(m / sqrt(mu)), the Bayes pe under equal priors
        for kw in ({}, {"N": 64, "Ns": 16}, {"P": 3.0, "sigma_v2": 2.0}):
            p = make_params(**kw)
            pe = zero_threshold_pe(p)
            assert q(p.m / math.sqrt(asymptotic_params(p).mu)) == pytest.approx(pe, rel=1e-14)
            assert asymptotic_performance(p, DetectorSpec()).pe == pe

    def test_np_pins_false_alarm(self):
        p = make_params(N=40, Ns=20)
        for a in (0.02, 0.1, 0.3):
            rep = asymptotic_performance(p, DetectorSpec(criterion="np", alpha_fa=a))
            assert rep.pf == pytest.approx(a, abs=1e-9)

    def test_pe_is_prior_mix(self):
        p = make_params(p0=0.25, p1=0.75)
        rep = asymptotic_performance(p, DetectorSpec())
        assert rep.pe == p.p0 * rep.pf + p.p1 * rep.pm
        assert rep.tau_prime == pytest.approx(math.log(1.0 / 3.0), rel=1e-14)

    def test_zero_noise_limit(self):
        p = make_params(sigma_v2=0.0)
        ap = asymptotic_params(p)
        # no observation noise, no interference: mu = m^2 sigma_w2 / P
        assert (ap.gamma, ap.beta0) == (0.0, 1.0 / p.sigma_w2)
        assert ap.mu == pytest.approx(p.m**2 * p.sigma_w2 / p.P, rel=1e-15)
        rep = asymptotic_performance(p, DetectorSpec())
        want = q(math.sqrt(p.P / p.sigma_w2))
        assert rep.pe == pytest.approx(want, rel=1e-12)
        assert zero_threshold_pe(p) == pytest.approx(want, rel=1e-12)
        assert large_alpha_pe(p) == pytest.approx(want, rel=1e-12)
        assert single_sensor_pe(p) == pytest.approx(want, rel=1e-12)

    def test_underflowing_mu_is_an_infinite_snr(self):
        # mu = m^2 sigma_w2 / P underflows to 0 where the true SNR is ~1e341: every
        # tail vanishes, and log_pe is that of r^2 = m^2 / mu = P / sigma_w2 = 1e301
        p = make_params(N=8, Ns=8, sigma_v2=0.0, sigma_w2=1e-300, m=1e-20)
        assert asymptotic_params(p).mu == 0.0
        rep = asymptotic_performance(p, DetectorSpec())
        assert (rep.pf, rep.pm, rep.pe) == (0.0, 0.0, 0.0)
        with mpmath.workdps(50):
            r = mpmath.sqrt(mpmath.mpf(10) / mpmath.mpf(1e-300))
            want = -r * r / 2 - mpmath.log(r * mpmath.sqrt(2 * mpmath.pi)) + mpmath.log1p(-1 / r**2)
        assert rep.log_pe == pytest.approx(float(want), rel=1e-12)
        assert zero_threshold_pe(p) == large_alpha_pe(p) == single_sensor_pe(p) == 0.0


    def test_beta0_past_the_float_range_in_units_of_the_interference(self):
        # P = 1.7e308 and sigma_w2 = 1e-300: the unit U is the interference, w = sigma_w2 / U
        # is the least double, and U beta0 ~ 1 / (w (1 - alpha)) is past every float.  The
        # physical beta0 is ~5e299 and is solved directly; the limiting form is Ns / c
        p = make_params(N=8, Ns=4, P=1.7e308, sigma_w2=1e-300)
        unit, c, w, _ = snr_groups(p)
        assert beta0(p.alpha, gamma(p) / unit, w) == math.inf
        ap = asymptotic_params(p)
        with mpmath.workdps(800):
            P, sw, alpha = mpmath.mpf(p.P), mpmath.mpf(p.sigma_w2), mpmath.mpf(p.Ns) / p.N
            gv = P / p.N / 2  # (P / N) sigma_v2 / (m^2 + sigma_v2) at m = sigma_v2 = 1
            a, b = gv * sw, alpha * (gv + sw) - gv
            want_beta0 = (mpmath.sqrt(b * b + 4 * a * alpha) - b) / (2 * a)
            r = 1 / mpmath.sqrt(mpmath.mpf(1) / p.Ns + 2 / (P * want_beta0))
            want_log_pe = mpmath.log(mpmath.erfc(r / mpmath.sqrt(2)) / 2)
        assert ap.beta0 == pytest.approx(float(want_beta0), rel=1e-12)
        assert asymptotic_performance(p, DetectorSpec()).log_pe == pytest.approx(float(want_log_pe), rel=1e-12)


class TestLimits:
    def test_large_alpha_below_single_sensor(self):
        # spreading the budget over many sensors beats one sensor whenever
        # the observations are noisy
        for kw in ({}, {"P": 2.0}, {"sigma_v2": 3.0}, {"m": 0.5, "P": 4.0}):
            p = make_params(**kw)
            assert large_alpha_pe(p) < single_sensor_pe(p)

    def test_limits_coincide_without_observation_noise(self):
        p = make_params(sigma_v2=0.0)
        assert large_alpha_pe(p) == pytest.approx(single_sensor_pe(p), rel=1e-14)

    def test_single_sensor_matches_exact_scalar_system(self):
        p = make_params(N=1, Ns=1, P=2.0)
        rep = exact_performance(p, load(np.array([[1.0]])), DetectorSpec())
        assert single_sensor_pe(p) == pytest.approx(rep.pe, rel=1e-12)

    def test_large_alpha_is_joint_limit_of_chain(self):
        # the zero-threshold pe at huge alpha and N approaches the floor
        p = make_params(N=10**6, Ns=10**10)
        assert abs(zero_threshold_pe(p) - large_alpha_pe(p)) < 1e-3

    def test_min_pe_decreasing_in_load(self):
        for N in (8, 32, 128):
            pes = [
                zero_threshold_pe(make_params(N=N, Ns=max(1, int(a * N))))
                for a in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
            ]
            assert all(b < a for a, b in zip(pes, pes[1:]))
