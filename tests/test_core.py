"""Scalar layer: parameter validation, Gaussian tails, gains, thresholds.

Expected values are frozen from the independent oracles defined at the top
of this file (adaptive quadrature of the normal density, bisection on that
quadrature, grid search on the error objective), not from the functions
under test.
"""

import math
import sys
from dataclasses import FrozenInstanceError, replace

import hypothesis
import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from cdmafusion import (
    DetectorSpec,
    DomainError,
    InvalidParam,
    SystemParams,
    amplifier_gain,
    bayes_threshold,
    np_threshold,
    sensors_for_load,
    threshold_for,
    validate,
)
from cdmafusion.core import SEED_MAX, check_count, check_seed, is_int, log_ndtr, log_tails, seed_sequence
from conftest import q


def q_oracle(x: float) -> float:
    """Tail probability by adaptive quadrature of the normal density."""
    val, _ = quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        x,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def inv_q_oracle(p: float) -> float:
    """Invert q_oracle by bisection on [-12, 12]."""
    lo, hi = -12.0, 12.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if q_oracle(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def error_objective(tau: float, p0: float, g: float, m: float, qf: float) -> float:
    """Prior-weighted error probability of threshold tau, via the oracle tails."""
    scale = 2.0 * g * m * math.sqrt(qf)
    shift = 2.0 * g * g * m * m * qf
    return p0 * q_oracle((tau + shift) / scale) + (1.0 - p0) * q_oracle((shift - tau) / scale)


# frozen oracle outputs
Q_AT_1_2816 = 0.09999150009767514
INVQ_AT_005 = 1.6448536269514724
NP_THR_EXAMPLE = 1.2897072539029448  # 2*inv_q_oracle(0.05) - 2


def make_params(**kw) -> SystemParams:
    base = dict(N=16, Ns=16, P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0, p0=0.5, p1=0.5)
    base.update(kw)
    return SystemParams(**base)


class TestSystemParams:
    """Constraints are enforced at construction and by validate()."""

    def test_valid_construction(self):
        p = make_params()
        assert validate(p) is p
        assert p.alpha == 1.0

    def test_alpha_ratio(self):
        assert make_params(N=32, Ns=8).alpha == 0.25

    @pytest.mark.parametrize(
        "field,value",
        [
            ("N", 0), ("N", -3), ("N", 2.5),
            ("Ns", 0), ("Ns", -1),
            ("P", 0.0), ("P", -1.0), ("P", math.inf), ("P", math.nan),
            ("m", 0.0), ("m", -2.0),
            ("sigma_v2", -0.1),
            ("sigma_w2", 0.0), ("sigma_w2", -1.0),
            ("p0", 0.0), ("p0", 1.0), ("p0", -0.2), ("p0", 1.3),
            ("p1", 0.0), ("p1", 1.0),
            # every route forms floats from the counts
            pytest.param("N", 10**400, id="N-past-float-range"), pytest.param("Ns", 10**400, id="Ns-past-float-range"),
        ],
    )
    def test_field_violations(self, field, value):
        with pytest.raises(InvalidParam) as err:
            make_params(**{field: value})
        assert err.value.name == field

    @pytest.mark.parametrize("m, sigma_v2", [(1e200, 1.0), (1e154, 1.7e308), (1.4e154, 0.0)])
    def test_overflowing_signal_power_rejected(self, m, sigma_v2):
        # the gain and gamma both need m^2 + sigma_v2 as a finite float
        with pytest.raises(InvalidParam, match=r"m\^2 \+ sigma_v2 must be finite") as err:
            make_params(m=m, sigma_v2=sigma_v2)
        assert err.value.name == "m"

    @pytest.mark.parametrize("m", [1e-200, 1e-162])
    def test_underflowing_signal_power_rejected(self, m):
        # with sigma_v2 == 0, m^2 rounds to 0 and the gain would divide by it
        with pytest.raises(InvalidParam, match=r"m\^2 \+ sigma_v2 must be finite and > 0") as err:
            make_params(m=m, sigma_v2=0.0)
        assert err.value.name == "m"
        assert make_params(m=m, sigma_v2=1e-300).m == m

    def test_largest_finite_signal_power_allowed(self):
        assert make_params(m=1e154, sigma_v2=0.0).m == 1e154

    def test_priors_must_sum_to_one(self):
        with pytest.raises(InvalidParam):
            make_params(p0=0.6, p1=0.6)

    def test_zero_observation_noise_allowed(self):
        assert make_params(sigma_v2=0.0).sigma_v2 == 0.0

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            make_params().N = 3

    def test_replace_revalidates(self):
        with pytest.raises(InvalidParam):
            replace(make_params(), P=-1.0)


class TestSensorsForLoad:
    """Sensor count is alpha * N rounded half away from zero, at least 1."""

    @pytest.mark.parametrize(
        "alpha,N,expected",
        [(0.5, 8, 4), (1.0, 128, 128), (2.0, 4, 8), (1 / 3, 8, 3), (0.25, 2, 1), (0.3, 5, 2)],
    )
    def test_rounding(self, alpha, N, expected):
        assert sensors_for_load(alpha, N) == expected

    def test_zero_sensors_rejected(self):
        with pytest.raises(InvalidParam):
            sensors_for_load(0.1, 2)

    def test_bad_inputs(self):
        with pytest.raises(InvalidParam):
            sensors_for_load(-1.0, 8)
        with pytest.raises(InvalidParam):
            sensors_for_load(1.0, 0)

    def test_non_finite_sensor_count_rejected(self):
        # alpha is finite but alpha * N overflows to inf
        with pytest.raises(InvalidParam) as info:
            sensors_for_load(1e308, 128)
        assert info.value.name == "alpha"


class TestIntegerAndSeedChecks:
    @pytest.mark.parametrize("x", [0, 7, np.int64(7), np.uint64(2**63), 2**70])
    def test_integers(self, x):
        assert is_int(x)

    @pytest.mark.parametrize("x", [True, np.bool_(True), 1.0, "1", None])
    def test_non_integers(self, x):
        assert not is_int(x)

    @pytest.mark.parametrize("seed", [0, np.int64(5), np.uint64(2**64 - 1), 2**64 - 1])
    def test_seed_accepted_as_python_int(self, seed):
        out = check_seed(seed)
        assert out == seed and type(out) is int

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**80, True, 1.0])
    def test_seed_rejected(self, seed):
        with pytest.raises(InvalidParam) as info:
            check_seed(seed)
        assert info.value.name == "seed"

    def test_count(self):
        out = check_count("Ns", np.int64(3), "sensor count")
        assert out == 3 and type(out) is int
        for bad in (0, -1, 2.0, True):
            with pytest.raises(InvalidParam, match="sensor count must be an integer >= 1") as info:
                check_count("Ns", bad, "sensor count")
            assert info.value.name == "Ns"

    def test_bound_is_two_to_the_64(self):
        assert SEED_MAX == 2**64

    def test_seed_sequence_is_the_spawned_child(self):
        ss = seed_sequence(9, 1, 2)
        ref = np.random.SeedSequence(entropy=9, spawn_key=(1, 2))
        np.testing.assert_array_equal(ss.generate_state(4), ref.generate_state(4))


class TestQFunction:
    """The reference tail q matches the quadrature oracle and is a proper tail."""

    def test_against_oracle_grid(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert abs(q(float(x)) - q_oracle(float(x))) <= 1e-10

    def test_against_oracle_random(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(-6.0, 6.0, size=50):
            assert abs(q(float(x)) - q_oracle(float(x))) <= 1e-10

    def test_frozen_value(self):
        assert q(1.2816) == pytest.approx(Q_AT_1_2816, abs=1e-12)

    def test_half_at_zero(self):
        assert q(0.0) == 0.5

    def test_monotone_non_increasing(self):
        xs = np.sort(np.random.default_rng(7).uniform(-9.0, 9.0, size=200))
        vals = [q(float(x)) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_complement_symmetry(self):
        for x in np.linspace(-5.0, 5.0, 21):
            assert q(float(x)) + q(-float(x)) == pytest.approx(1.0, abs=1e-14)


def log_tails_oracle(r: float, tau: float) -> tuple[float, float]:
    """(log pf, log pm) from mpmath's erfc at 50 digits, rounded once to doubles."""
    with mpmath.workdps(50):
        root = mpmath.mpf(r)
        half = mpmath.mpf(tau) / (2 * root)
        return tuple(float(mpmath.log(mpmath.erfc(z / mpmath.sqrt(2)) / 2)) for z in (half + root, root - half))


def log_ndtr_oracle(z: float) -> float:
    """log Phi(z) from mpmath's erfc at 50 digits, rounded once to a double."""
    with mpmath.workdps(50):
        t = mpmath.erfc(abs(mpmath.mpf(z)) / mpmath.sqrt(2)) / 2
        return float(mpmath.log1p(-t) if z > 0 else mpmath.log(t))


class TestLogNdtr:
    """log Phi against mpmath across its three branches and at their joins."""

    def test_against_mpmath(self):
        # erfc's branch joins the asymptotic series at -37 and the log1p branch at 0
        joins = [-37.0, math.nextafter(-37.0, 0.0), math.nextafter(-37.0, -40.0), 0.0, 5e-324, -5e-324]
        zs = np.concatenate((-np.logspace(8.0, -3.0, 45), np.linspace(-45.0, 40.0, 341),
                             np.linspace(-37.25, -36.75, 21), np.linspace(-1e-3, 1e-3, 21), joins))
        for z in map(float, zs):
            got, want = log_ndtr(z), log_ndtr_oracle(z)
            # above 0, log Phi(z) ~ -erfc(z / sqrt 2) / 2, and rounding z / sqrt 2
            # moves erfc by a relative z^2 eps (scipy's log_ndtr does the same);
            # past z ~ 37.5 Phi(z) - 1 is subnormal and has no relative precision left
            rel = 2e-14 + (z * z * sys.float_info.epsilon if z > 0.0 else 0.0)
            assert abs(got - want) <= rel * abs(want) + sys.float_info.min, (z, got, want)

    def test_limits(self):
        assert log_ndtr(math.inf) == 0.0
        assert log_ndtr(-math.inf) == -math.inf
        # -z^2 / 2 overflows
        assert log_ndtr(-1e200) == -math.inf
        assert log_ndtr(0.0) == -math.log(2.0)


class TestLogTails:
    """log_tails against 50-digit tails, over SNRs where the tails underflow.

    The root SNR of each case is m sqrt(x), for a detection SNR x.
    """

    @pytest.mark.parametrize("tau", [-5.0, 0.0, math.log(3.0), 40.0])
    @pytest.mark.parametrize("m", [0.3, 1.0, 2.5])
    def test_against_mpmath(self, m, tau):
        # coarse down to 1e-300, dense where log_ndtr changes branch (|z| from 6 to 40)
        for x in np.concatenate((np.logspace(-300.0, -6.0, 22), np.logspace(-6.0, 6.0, 61))):
            r = m * math.sqrt(x)
            got, want = log_tails(r, tau), log_tails_oracle(r, tau)
            for g, w in zip(got, want):
                # an error d in log p is a relative error of about d in p
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (x, m, tau, got, want)

    def test_finite_where_q_function_underflows(self):
        log_pf, log_pm = log_tails(1e3, 0.0)
        assert q(1e3) == 0.0
        assert log_pf == log_pm == pytest.approx(log_tails_oracle(1e3, 0.0)[0], rel=1e-14)
        assert -5.0e5 - 10.0 < log_pf < -5.0e5

    def test_tie_rule_at_zero_snr(self):
        assert log_tails(0.0, 0.0) == (0.0, -math.inf)
        assert log_tails(0.0, -2.0) == (0.0, -math.inf)
        assert log_tails(0.0, 0.5) == (-math.inf, 0.0)

    def test_limits_of_resolution(self):
        # at the least positive r the statistic's spread is lost against tau: the
        # tails are their r -> 0 limits, which root_snr relies on for a root below it
        assert log_tails(5e-324, 0.0) == (math.log(0.5), math.log(0.5))
        assert log_tails(5e-324, 1.0) == (-math.inf, 0.0)
        # an infinite SNR separates the hypotheses completely
        assert log_tails(math.inf, 0.3) == (-math.inf, -math.inf)

    def test_symmetric_at_zero_threshold(self):
        for x in (1e-12, 0.3, 7.0, 4e4):
            log_pf, log_pm = log_tails(1.3 * math.sqrt(x), 0.0)
            assert log_pf == log_pm

    @hypothesis.seed(20261018)
    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(
        x=st.floats(1e-300, 1e8),
        m=st.floats(1e-3, 1e3),
        taus=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
    )
    def test_monotone_in_threshold(self, x, m, taus):
        lo, hi = sorted(taus)
        r = m * math.sqrt(x)
        (pf_lo, pm_lo), (pf_hi, pm_hi) = log_tails(r, lo), log_tails(r, hi)
        assert pf_hi <= pf_lo
        assert pm_lo <= pm_hi


def inv_q(p: float) -> float:
    """The normal quantile inside np_threshold: at r = 1/2 the threshold is Q^{-1}(p) - 1/2."""
    return np_threshold(0.5, p) + 0.5


class TestInvQ:
    """The quantile of np_threshold inverts q and matches the bisection oracle."""

    def test_roundtrip_band(self):
        for x in np.linspace(-6.0, 6.0, 49):
            assert abs(inv_q(q(float(x))) - float(x)) <= 1e-8

    def test_against_bisection_oracle(self):
        for p in (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999):
            assert inv_q(p) == pytest.approx(inv_q_oracle(p), abs=1e-9)

    def test_frozen_value(self):
        assert inv_q(0.05) == pytest.approx(INVQ_AT_005, abs=1e-9)

    def test_median_is_zero(self):
        assert abs(inv_q(0.5)) <= 1e-14

    def test_against_mpmath(self):
        # from past where the tail q leaves the normal float range, to the last float below 1
        ps = np.concatenate((np.logspace(-300.0, -1.0, 46), 1.0 - np.logspace(-1.0, -16.0, 16)))
        for p in map(float, ps):
            got = inv_q(p)
            # the root of Phi(-t) = p at 40 digits; the secant starts from the value under test
            with mpmath.workdps(40):
                want = float(mpmath.findroot(lambda t: mpmath.ncdf(-t) - p, got))
            assert got == pytest.approx(want, rel=2e-15, abs=0), p

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            inv_q(p)


class TestAmplifierGain:
    """The gain spends the total power budget exactly."""

    def test_power_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = make_params(
                Ns=int(rng.integers(1, 200)),
                P=float(rng.uniform(0.1, 50.0)),
                m=float(rng.uniform(0.1, 5.0)),
                sigma_v2=float(rng.uniform(0.0, 4.0)),
            )
            g = amplifier_gain(p)
            total = p.Ns * g * g * (p.m**2 + p.sigma_v2)
            assert total == pytest.approx(p.P, rel=1e-12)

    def test_example(self):
        # P=2, Ns=1, m=1, sigma_v2=1: g = sqrt(2/2) = 1
        assert amplifier_gain(make_params(N=1, Ns=1, P=2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_decreasing_in_sensor_count(self):
        gains = [amplifier_gain(make_params(Ns=k)) for k in (1, 2, 4, 8, 16)]
        assert all(b < a for a, b in zip(gains, gains[1:]))


class TestBayesThreshold:
    """log(p0/p1) minimizes the prior-weighted error objective."""

    def test_equals_log_prior_ratio(self):
        assert bayes_threshold(0.75, 0.25) == pytest.approx(math.log(3.0), rel=1e-15)
        assert bayes_threshold(0.5, 0.5) == 0.0

    def test_grid_search_oracle(self):
        taus = np.linspace(math.log(3.0) - 1.7, math.log(3.0) + 2.3, 2001)
        vals = [error_objective(float(t), 0.75, 1.0, 1.0, 1.0) for t in taus]
        t_star = float(taus[int(np.argmin(vals))])
        spacing = float(taus[1] - taus[0])
        assert abs(bayes_threshold(0.75, 0.25) - t_star) <= spacing

    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 1e-1])
    def test_local_optimality(self, delta):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p0 = float(rng.uniform(0.05, 0.95))
            g = float(rng.uniform(0.2, 3.0))
            m = float(rng.uniform(0.2, 3.0))
            qf = float(rng.uniform(0.1, 20.0))
            tau = bayes_threshold(p0, 1.0 - p0)
            best = error_objective(tau, p0, g, m, qf)
            assert best <= error_objective(tau + delta, p0, g, m, qf) + 1e-13
            assert best <= error_objective(tau - delta, p0, g, m, qf) + 1e-13

    @pytest.mark.parametrize("p0,p1", [(0.0, 1.0), (1.0, 0.0), (-0.1, 1.1), (0.6, 0.6)])
    def test_domain(self, p0, p1):
        with pytest.raises(DomainError):
            bayes_threshold(p0, p1)


class TestNpThreshold:
    """The threshold pins the false-alarm rate at the requested level."""

    def test_frozen_example(self):
        assert np_threshold(1.0, 0.05) == pytest.approx(NP_THR_EXAMPLE, abs=1e-9)

    def test_achieves_false_alarm_rate(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            qf = float(rng.uniform(0.05, 30.0))
            g = float(rng.uniform(0.1, 3.0))
            m = float(rng.uniform(0.1, 3.0))
            a = float(rng.uniform(0.001, 0.5))
            tau = np_threshold(g * m * math.sqrt(qf), a)
            scale = 2.0 * g * m * math.sqrt(qf)
            shift = 2.0 * g * g * m * m * qf
            assert q((tau + shift) / scale) == pytest.approx(a, abs=1e-9)

    @pytest.mark.parametrize(
        "qf,g,m,a",
        [(0.0, 1, 1, 0.1), (-1.0, 1, 1, 0.1), (1.0, 0.0, 1, 0.1), (1.0, 1, -1.0, 0.1),
         (1.0, 1, 1, 0.0), (1.0, 1, 1, 1.0)],
    )
    def test_domain(self, qf, g, m, a):
        # the threshold sees the channel only through the root SNR r = g m sqrt(qf)
        with pytest.raises(DomainError):
            np_threshold(g * m * math.copysign(math.sqrt(abs(qf)), qf), a)


class TestDetectorSpec:
    """Criterion-specific required fields are enforced at construction."""

    def test_bayes_default(self):
        assert DetectorSpec().criterion == "bayes"

    def test_unknown_criterion(self):
        with pytest.raises(InvalidParam):
            DetectorSpec(criterion="minimax")

    def test_np_requires_alpha_fa(self):
        with pytest.raises(InvalidParam):
            DetectorSpec(criterion="np")
        with pytest.raises(InvalidParam):
            DetectorSpec(criterion="np", alpha_fa=1.5)

    def test_fixed_requires_tau(self):
        with pytest.raises(InvalidParam):
            DetectorSpec(criterion="fixed")
        with pytest.raises(InvalidParam):
            DetectorSpec(criterion="fixed", tau_prime=math.inf)


class TestThresholdFor:
    """Threshold resolution matches each criterion's defining formula."""

    def test_bayes_ignores_channel(self):
        p = make_params(p0=0.75, p1=0.25)
        assert threshold_for(DetectorSpec(), p, 3.0) == threshold_for(DetectorSpec(), p, 30.0)
        assert threshold_for(DetectorSpec(), p, 3.0) == pytest.approx(math.log(3.0))

    def test_np_uses_channel(self):
        p = make_params()
        spec = DetectorSpec(criterion="np", alpha_fa=0.05)
        expected = np_threshold(2.0, 0.05)
        assert threshold_for(spec, p, 2.0) == expected

    def test_fixed_verbatim(self):
        p = make_params()
        assert threshold_for(DetectorSpec(criterion="fixed", tau_prime=-1.25), p, 9.0) == -1.25
