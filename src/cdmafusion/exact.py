"""Exact finite-size detection analysis for a fixed signature matrix.

Conditioned on either hypothesis the received chip vector is Gaussian,
r ~ N(-+ g m S 1, Sigma) with Sigma = g^2 sigma_v2 S S^T + sigma_w2 I.
Because the covariance is hypothesis-independent, the log-likelihood ratio
is the linear statistic T(r) = 2 g m (S 1)^T Sigma^{-1} r.  Both error
probabilities depend on the channel only through the detection SNR
x = g^2 qf, with qf = (S 1)^T Sigma^{-1} (S 1) the quadratic form; tail_report
turns x and a detector into the report every analytic route returns, with
its tails carried in the log domain by core.log_tails.

The linear algebra is numpy's alone.  Each covariance is factored once, as
the Cholesky factor of the bordered matrix [[Sigma, b], [b^T, d]] (see
_bordered_cholesky): its last row holds L^{-1} b, so a form b^T Sigma^{-1} b
costs no solve.  numpy has no triangular solve, so the few that remain
substitute over diagonal blocks (see _solve_lower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DetectorSpec, SystemParams, amplifier_gain, log_tails, threshold_for
from .errors import DimensionMismatch, NumericalFailure
from .spreading import SpreadingMatrix

_BLOCK = 32
"""Width of the diagonal blocks _solve_lower substitutes over."""


def _once(method):
    """A read-only attribute computed on first use and kept on the instance, with
    no class-wide lock (functools.cached_property holds one before Python 3.12)."""
    name = method.__name__

    def get(self):
        value = self.__dict__.get(name)
        if value is None:
            value = self.__dict__[name] = method(self)
        return value

    return property(get, doc=method.__doc__)


@dataclass(frozen=True)
class ChannelModel:
    """A signature matrix plus the scalars entering the received-signal law.

    Every route shares it as the factored channel: its covariance and the
    Cholesky factor of that covariance, bordered by S 1, are built once, on
    first use, and serve the quadratic form, the detector and every
    whitening.
    """

    S: SpreadingMatrix
    g: float
    sigma_v2: float
    sigma_w2: float
    m: float

    @classmethod
    def from_params(cls, params: SystemParams, S: SpreadingMatrix) -> "ChannelModel":
        if (S.N, S.Ns) != (params.N, params.Ns):
            raise DimensionMismatch(
                f"signature matrix is {S.N}x{S.Ns} but params declare N={params.N}, Ns={params.Ns}"
            )
        return cls(
            S=S,
            g=amplifier_gain(params),
            sigma_v2=params.sigma_v2,
            sigma_w2=params.sigma_w2,
            m=params.m,
        )

    @_once
    def covariance(self) -> np.ndarray:
        """Sigma = channel_covariance(self), checked finite."""
        return _finite(channel_covariance(self))

    @_once
    def _factor(self):
        # a stack of one, so that quadratic_forms gives every matrix of a
        # stack the same arithmetic, and the same quadratic form, as this
        return _bordered_cholesky(self.covariance[None], self.s1[None], self.sigma_w2)

    def whiten(self, B) -> np.ndarray:
        """L^{-1} B for a finite vector or matrix B, with L the lower Cholesky
        factor of Sigma, so that (L^{-1} a)^T (L^{-1} b) = a^T Sigma^{-1} b."""
        return _solve_lower(self._factor[0][0, :-1, :-1], B)

    @_once
    def s1(self) -> np.ndarray:
        """The summed signature S 1."""
        return self.S.entries.sum(axis=1)

    @_once
    def detector(self) -> np.ndarray:
        """The detector direction Sigma^{-1} S 1 = L^{-T} (L^{-1} S 1).

        L^{-1} S 1 is read off the factor; L^T is upper triangular, so it is
        solved as its row- and column-reversed copy, which is lower.
        """
        factor, k = self._factor
        y = np.ldexp(factor[0, -1, :-1], -k[0])
        return _solve_lower(factor[0, :-1, :-1].T[::-1, ::-1], y[::-1])[::-1]


@dataclass(frozen=True)
class McDiagnostics:
    """Trial counts and standard errors attached to simulation output.

    Both counts come from the same trials_per_hypothesis noise draws.
    stderr_pf and stderr_pm are binomial; stderr_pe is that of the coupled
    pair p0 pf + p1 pm, covariance included (see montecarlo.estimate).
    """

    trials_per_hypothesis: int
    seed: int
    false_alarms: int
    misses: int
    stderr_pf: float
    stderr_pm: float
    stderr_pe: float


@dataclass(frozen=True)
class PerformanceReport:
    """Error probabilities of one detector on one channel.

    pe = p0 pf + p1 pm, and log_pe is its natural log, finite on the
    analytic routes long after pe itself underflows to 0.  tau_prime is
    the resolved threshold actually applied; mc carries simulation
    diagnostics and is None for analytic routes; qf is the channel's
    quadratic form, whose detection SNR g^2 qf the threshold was resolved
    against, and is None for the asymptotic route.
    """

    pf: float
    pm: float
    pe: float
    log_pe: float
    tau_prime: float
    mc: McDiagnostics | None = None
    qf: float | None = None


def channel_covariance(model: ChannelModel) -> np.ndarray:
    """Chip covariance Sigma = g^2 sigma_v2 S S^T + sigma_w2 I.

    Returned exactly symmetric; with sigma_v2 == 0 it is exactly diagonal.
    When model.S.entries is a (k, N, Ns) stack of signature matrices, as
    in quadratic_forms, the result is the (k, N, N) stack of covariances.
    Entries that overflow come back as inf or nan without a warning; the
    factoring routes reject them with NumericalFailure.
    """
    A = model.S.entries
    with np.errstate(over="ignore", invalid="ignore"):
        cov = (model.g * model.g * model.sigma_v2) * (A @ A.mT)
        cov = 0.5 * (cov + cov.mT)
        diag = np.arange(A.shape[-2])
        cov[..., diag, diag] += model.sigma_w2
    return cov


def _finite(cov: np.ndarray) -> np.ndarray:
    if not np.isfinite(cov).all():
        raise NumericalFailure("covariance has non-finite entries")
    return cov


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a finite matrix, or of each matrix of a stack."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"covariance factorization failed: {exc}") from exc


def _bordered_cholesky(cov: np.ndarray, b: np.ndarray, sigma_w2: float):
    """(F, k): the factors F of [[cov, 2^k b], [2^k b^T, 4]] over a (K, N, N)
    stack of covariances and (K, N) of vectors, and each one's integer k.

    Every covariance here is at least sigma_w2 I, so b^T cov^{-1} b is at most
    b^T b / sigma_w2.  k is half the exponent gap between sigma_w2 and b^T b,
    which keeps 4^k b^T b / sigma_w2 below 2: the border stays below the
    corner 4, and no entry overflows where cov is finite.  The last row of F
    is [2^k (L^{-1} b)^T, sqrt(4 - 4^k b^T cov^{-1} b)] with L = F[:, :-1, :-1]
    the factor of cov; 2^k is a power of two, so scaling by it rounds nothing.
    """
    bb = np.einsum("ki,ki->k", b, b)
    k = (np.frexp(sigma_w2)[1] - np.frexp(bb)[1]) // 2
    n = cov.shape[-1]
    bordered = np.empty((cov.shape[0], n + 1, n + 1))
    bordered[:, :n, :n] = cov
    bordered[:, n, :n] = bordered[:, :n, n] = np.ldexp(b, k[:, None])
    bordered[:, n, n] = 4.0
    return _cholesky(bordered), k


def _inverse_forms(factor: np.ndarray, k: np.ndarray) -> np.ndarray:
    """b^T cov^{-1} b for each matrix of a _bordered_cholesky stack: 4^-k times
    the squared norm of its factor's last row, corner left out."""
    last = factor[:, -1, :-1]
    return np.ldexp(np.einsum("ki,ki->k", last, last), -2 * k)


def inverse_form(cov: np.ndarray, b: np.ndarray, sigma_w2: float) -> float:
    """b^T cov^{-1} b for a finite covariance cov >= sigma_w2 I, from one
    bordered factorization and no solve."""
    return float(_inverse_forms(*_bordered_cholesky(cov[None], b[None], sigma_w2))[0])


def _solve_lower(L: np.ndarray, B) -> np.ndarray:
    """L^{-1} B for a lower-triangular L and a finite vector or matrix B.

    numpy has no triangular solve, so the substitution runs over _BLOCK-wide
    diagonal blocks: each block row is multiplied by the inverse of its
    diagonal block and then taken off the rows below it in one product.
    Nearly all the work is matrix products, which run about twice as fast
    here as np.linalg.solve on each block, with its two triangular solves.
    """
    X = np.array(B, dtype=np.float64)
    n = L.shape[0]
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        X[i:j] = np.linalg.inv(L[i:j, i:j]) @ X[i:j]
        X[j:] -= L[j:, i:j] @ X[i:j]
    return X


def quadratic_form(model: ChannelModel) -> float:
    """Detector quadratic form qf = (S 1)^T Sigma^{-1} (S 1).

    Read off the model's bordered Cholesky factor, with no solve; the
    covariance is positive definite whenever sigma_w2 > 0, so qf >= 0, with
    equality exactly when the signature columns sum to zero.
    """
    return float(_inverse_forms(*model._factor)[0])


def quadratic_forms(params: SystemParams, block) -> list[float]:
    """quadratic_form of every signature matrix in a (k, N, Ns) stack.

    The k covariances come from one batched build and one finiteness check,
    and are factored in one batched call; every value equals
    quadratic_form(ChannelModel.from_params(params, S)) for its matrix S.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 3 or block.shape[1:] != (params.N, params.Ns):
        raise DimensionMismatch(
            f"signature stack has shape {block.shape}, expected (k, {params.N}, {params.Ns})"
        )
    stack = SpreadingMatrix(entries=block, N=params.N, Ns=params.Ns)
    cov = _finite(channel_covariance(ChannelModel.from_params(params, stack)))
    return _inverse_forms(*_bordered_cholesky(cov, block.sum(axis=2), params.sigma_w2)).tolist()


def tail_report(params: SystemParams, x: float, spec: DetectorSpec, qf: float | None = None) -> PerformanceReport:
    """Error probabilities of the detector spec on a statistic of detection SNR x.

    The threshold is resolved against x; pf and pm are the exponentials of
    core.log_tails, pe = p0 pf + p1 pm, and log_pe is the log of the same
    mix, summed in the log domain.  Only np's threshold reaches -inf, where
    x or m^2 x overflows: it falls with x so that pf stays at alpha_fa, while
    pm vanishes.
    """
    tau = threshold_for(spec, params, x)
    if tau == -math.inf:
        log_pf, log_pm = math.log(spec.alpha_fa), -math.inf
    else:
        log_pf, log_pm = log_tails(x, params.m, tau)
    pf, pm = math.exp(log_pf), math.exp(log_pm)
    log_pe = float(np.logaddexp(math.log(params.p0) + log_pf, math.log(params.p1) + log_pm))
    return PerformanceReport(pf=pf, pm=pm, pe=params.p0 * pf + params.p1 * pm, log_pe=log_pe, tau_prime=tau, qf=qf)


def detection_snr(params: SystemParams, qf: float) -> float:
    """x = g^2 qf; NumericalFailure when the gain leaves no SNR from qf > 0."""
    g = amplifier_gain(params)
    x = g * g * qf
    if x == 0.0 and qf > 0.0:
        raise NumericalFailure(f"statistic scale 2 g m sqrt(qf) underflows to 0 (g={g!r}, qf={qf!r})")
    return x


def exact_report(params: SystemParams, qf: float, spec: DetectorSpec) -> PerformanceReport:
    """Closed-form error probabilities for a channel with quadratic form qf.

    The tails of tail_report at x = g^2 qf; with tau == 0 the two coincide
    exactly.  A vanishing gain raises NumericalFailure before the threshold
    is resolved, whatever the detector.
    """
    return tail_report(params, detection_snr(params, qf), spec, qf=qf)


def exact_performance(params: SystemParams, S: SpreadingMatrix, spec: DetectorSpec) -> PerformanceReport:
    """Closed-form error probabilities for one signature matrix (see exact_report)."""
    return exact_report(params, quadratic_form(ChannelModel.from_params(params, S)), spec)
