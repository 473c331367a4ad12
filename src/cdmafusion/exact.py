"""Exact finite-size detection analysis for a fixed signature matrix.

Conditioned on either hypothesis the received chip vector is Gaussian,
r ~ N(-+ g m S 1, Sigma) with Sigma = g^2 sigma_v2 S S^T + sigma_w2 I.
Because the covariance is hypothesis-independent, the log-likelihood ratio
is the linear statistic T(r) = 2 g m (S 1)^T Sigma^{-1} r.  Both error
probabilities depend on the channel only through its root detection SNR
r = m sqrt(x), x = g^2 qf with qf = (S 1)^T Sigma^{-1} (S 1).  Everything is
computed in the units U of core.snr_groups, where Sigma / U gives the form
q = U qf; exact_report turns q and a detector into the report every analytic
route returns, with its tails carried in the log domain by core.log_tails.

The linear algebra is numpy's alone.  Each covariance is factored once, as
the Cholesky factor of the bordered matrix [[Sigma / U, b], [b^T, d]] (see
_bordered_cholesky): its last row holds L^{-1} b, so a form b^T (Sigma / U)^{-1} b
costs no solve.  The covariance is built straight into the leading block of
that bordered buffer (channel_covariance's `out`), so it is never copied.
numpy has no triangular solve, so the few that remain substitute over
diagonal blocks (see _solve_lower).

Small factorizations do not gain from threads: on a 2-core machine, two
threads calling np.linalg.cholesky on one 33 x 33 matrix, or on a stack of
9 x 9 ones, ran at 0.45-0.86 times the rate of one thread (129 x 129
matrices gained 1.4-1.6 times).  So sweep-grid, whose points are such
factorizations and the Python around them, runs its points on forked
processes, while montecarlo, whose kernel is large numpy calls, runs
threads (core.map_workers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NEYMAN_PEARSON, DetectorSpec, SystemParams, log_ndtr, log_tails, np_quantile, root_snr, snr_groups
from .core import threshold_for
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
    """A signature matrix plus the two scalars of its covariance Sigma / U = c S S^T + w I.

    Every route shares it as the factored channel: that covariance and its
    Cholesky factor, bordered by S 1, are built once, on first use, and serve
    the quadratic form, the detector and every whitening.
    """

    S: SpreadingMatrix
    c: float
    w: float

    @classmethod
    def from_params(cls, params: SystemParams, S: SpreadingMatrix) -> "ChannelModel":
        if (S.N, S.Ns) != (params.N, params.Ns):
            raise DimensionMismatch(
                f"signature matrix is {S.N}x{S.Ns} but params declare N={params.N}, Ns={params.Ns}"
            )
        return cls(S, *snr_groups(params)[1:3])  # (c, w) of (U, c, w, s)

    @_once
    def _bordered(self) -> np.ndarray:
        return _bordered_covariance(self)

    @property
    def covariance(self) -> np.ndarray:
        """Sigma / U = channel_covariance(self), checked finite: a read-only view
        of the leading block of the buffer that _factor factors."""
        cov = self._bordered[:-1, :-1]
        cov.flags.writeable = False
        return cov

    @_once
    def _factor(self) -> np.ndarray:
        # the same arithmetic, and so the same quadratic form, as quadratic_forms
        # gives each matrix of a stack
        return _bordered_cholesky(self._bordered, self.s1, self.w)

    def whiten(self, B) -> np.ndarray:
        """L^{-1} B for a finite vector or matrix B, with L the lower Cholesky
        factor of Sigma / U, so that (L^{-1} a)^T (L^{-1} b) = U a^T Sigma^{-1} b."""
        return _solve_lower(self._factor[:-1, :-1], B)

    @_once
    def s1(self) -> np.ndarray:
        """The summed signature S 1."""
        return self.S.entries.sum(axis=1)

    @_once
    def detector(self) -> np.ndarray:
        """The detector direction U Sigma^{-1} S 1 = L^{-T} (L^{-1} S 1).

        L^{-1} S 1 is read off the factor; L^T is upper triangular, so it is
        solved as its row- and column-reversed copy, which is lower.
        """
        factor = self._factor
        return _solve_lower(factor[:-1, :-1].T[::-1, ::-1], factor[-1, :-1][::-1])[::-1]


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
    diagnostics and is None for analytic routes; q = U qf is the quadratic
    form in the units of core.snr_groups, the channel's or the limit's.
    """

    pf: float
    pm: float
    pe: float
    log_pe: float
    tau_prime: float
    mc: McDiagnostics | None = None
    q: float | None = None


def channel_covariance(model: ChannelModel, out: np.ndarray | None = None) -> np.ndarray:
    """Chip covariance in the units of core.snr_groups, Sigma / U = c S S^T + w I.

    Exactly symmetric, with no symmetrizing pass: numpy forms A A^T with BLAS
    syrk and copies one triangle into the other (its own loop, where BLAS
    does not apply, sums the same products in the same order for (i, j) and
    (j, i)).  With c == 0 it is exactly diagonal.
    When model.S.entries is a (k, N, Ns) stack of signature matrices, as
    in quadratic_forms, the result is the (k, N, N) stack of covariances.
    With `out`, an array of the result's shape (the leading block of a
    _bordered_covariance buffer), it is built there and `out` is returned.
    c and w are at most 1, so no entry overflows; a non-finite one, from a
    stack outside the signature alphabet, is rejected by the factoring routes.
    """
    A = model.S.entries
    cov = np.matmul(A, A.mT, out=out)
    cov *= model.c
    diag = np.arange(A.shape[-2])
    cov[..., diag, diag] += model.w
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


def _bordered_covariance(model: ChannelModel) -> np.ndarray:
    """A (..., N + 1, N + 1) buffer, one per matrix of model.S.entries, with
    Sigma / U built in its leading N x N block and checked finite; the border
    is left for _bordered_cholesky."""
    n = model.S.entries.shape[-2]
    bordered = np.empty(model.S.entries.shape[:-2] + (n + 1, n + 1))
    _finite(channel_covariance(model, out=bordered[..., :n, :n]))
    return bordered


def _bordered_cholesky(bordered: np.ndarray, b: np.ndarray, w: float) -> np.ndarray:
    """The factor F of [[cov, b], [b^T, 1 + b^T b / w]], for a buffer `bordered`
    of shape (..., n + 1, n + 1) whose leading n x n blocks hold covariances
    cov >= w I, and vectors b of shape (..., n); the border is written in place.

    b^T cov^{-1} b <= b^T b / w, so the corner keeps each bordered matrix
    positive definite (an inf corner factors too: only its own pivot reads
    it).  The last row of F is [(L^{-1} b)^T, sqrt(corner - b^T cov^{-1} b)]
    with L = F[..., :-1, :-1] the factor of cov.
    """
    n = bordered.shape[-1] - 1
    bordered[..., n, :n] = bordered[..., :n, n] = b
    with np.errstate(over="ignore"):
        bordered[..., n, n] = 1.0 + np.einsum("...i,...i->...", b, b) / w
    return _cholesky(bordered)


def _inverse_forms(factor: np.ndarray) -> np.ndarray:
    """b^T cov^{-1} b for each matrix of a _bordered_cholesky stack: the squared
    norm of its factor's last row, corner left out."""
    last = factor[..., -1, :-1]
    return np.einsum("...i,...i->...", last, last)


def inverse_form(cov: np.ndarray, b: np.ndarray, w: float) -> float:
    """b^T cov^{-1} b for a finite covariance cov >= w I, from one bordered
    factorization and no solve."""
    n = cov.shape[-1]
    bordered = np.empty((n + 1, n + 1))
    bordered[:n, :n] = cov
    return float(_inverse_forms(_bordered_cholesky(bordered, b, w)))


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
    """The quadratic form q = U qf = (S 1)^T (Sigma / U)^{-1} (S 1).

    Read off the model's bordered Cholesky factor, with no solve; the
    covariance is positive definite, so q >= 0, with equality exactly when
    the signature columns sum to zero.
    """
    return float(_inverse_forms(model._factor))


def quadratic_forms(params: SystemParams, block) -> list[float]:
    """quadratic_form of every signature matrix in a (k, N, Ns) stack.

    The k covariances come from one batched build, straight into the
    leading blocks of the bordered buffer, and one finiteness check, and are
    factored in one batched call; every value equals
    quadratic_form(ChannelModel.from_params(params, S)) for its matrix S.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 3 or block.shape[1:] != (params.N, params.Ns):
        raise DimensionMismatch(
            f"signature stack has shape {block.shape}, expected (k, {params.N}, {params.Ns})"
        )
    model = ChannelModel.from_params(params, SpreadingMatrix(entries=block, N=params.N, Ns=params.Ns))
    return _inverse_forms(_bordered_cholesky(_bordered_covariance(model), block.sum(axis=2), model.w)).tolist()


def exact_report(params: SystemParams, q: float, spec: DetectorSpec) -> PerformanceReport:
    """Error probabilities of the detector spec on a channel of form q = U qf.

    The threshold is resolved against r = core.root_snr(params, q); pf and
    pm are the exponentials of core.log_tails, pe = p0 pf + p1 pm, and log_pe
    is the log of the same mix, summed in the log domain.  np's pf is
    alpha_fa by construction and its pm = Q(2 r - Q^{-1}(alpha_fa)) is taken
    directly, as the two terms of its threshold cancel once r is large.
    """
    r = root_snr(params, q)
    tau = threshold_for(spec, params, r)
    if spec.criterion == NEYMAN_PEARSON and r > 0.0:
        log_pf, log_pm = math.log(spec.alpha_fa), log_ndtr(np_quantile(spec.alpha_fa) - 2.0 * r)
    else:
        log_pf, log_pm = log_tails(r, tau)
    pf, pm = math.exp(log_pf), math.exp(log_pm)
    log_pe = float(np.logaddexp(math.log(params.p0) + log_pf, math.log(params.p1) + log_pm))
    return PerformanceReport(pf=pf, pm=pm, pe=params.p0 * pf + params.p1 * pm, log_pe=log_pe, tau_prime=tau, q=q)


def exact_performance(params: SystemParams, S: SpreadingMatrix, spec: DetectorSpec) -> PerformanceReport:
    """Closed-form error probabilities for one signature matrix (see exact_report)."""
    return exact_report(params, quadratic_form(ChannelModel.from_params(params, S)), spec)
