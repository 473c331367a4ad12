"""Exact finite-size detection analysis for a fixed signature matrix.

Conditioned on either hypothesis the received chip vector is Gaussian,
r ~ N(-+ g m S 1, Sigma) with Sigma = g^2 sigma_v2 S S^T + sigma_w2 I.
Because the covariance is hypothesis-independent, the log-likelihood ratio
is the linear statistic T(r) = 2 g m (S 1)^T Sigma^{-1} r.  Both error
probabilities depend on the channel only through its root detection SNR
r = m sqrt(x), x = g^2 qf with qf = (S 1)^T Sigma^{-1} (S 1).  Everything is
computed in the units U of core.snr_groups, where Sigma / U gives the form
q = U qf; exact_report turns q and a detector into the report every analytic
route returns: the threshold and the bounds on the statistic's noise come
from core.detector_bounds, and the tails are carried in the log domain by
core.log_ndtr.

The linear algebra is numpy's alone.  Each covariance is factored once, by
ChannelModel alone, as the Cholesky factor of the bordered matrix
[[Sigma / U, b], [b^T, d]] (see _bordered_cholesky): its last row holds
L^{-1} b, so a form b^T (Sigma / U)^{-1} b costs no solve.  The covariance
is built straight into the leading block of that bordered buffer
(channel_covariance's `out`), so it is never copied.  The same layout
serves the SNR form (bordered by S 1), a batched stack of them (a stacked
model's quadratic_form), and one sensor's leave-one-out form
(ChannelModel.leave_one_out_form).  numpy has no triangular solve, so the
few that remain substitute over diagonal blocks (see _solve_lower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import NEYMAN_PEARSON, DetectorSpec, SystemParams, detector_bounds, log_ndtr, root_snr, snr_groups
from .errors import DimensionMismatch, NumericalFailure
from .spreading import SpreadingMatrix

_BLOCK = 32
"""Width of the diagonal blocks _solve_lower substitutes over."""


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """A signature matrix plus the two scalars of its covariance Sigma / U = c S S^T + w I.

    Every route shares it as the factored channel: that covariance and its
    Cholesky factor, bordered by S 1, are built once, on first use, and serve
    the quadratic form, the detector, every whitening and the leave-one-out
    forms.  S may be a (k, N, Ns) stack, whose k covariances are built and
    factored in one batched call for quadratic_form; the calls that serve
    one channel (see _one_matrix) raise DimensionMismatch on a stack.
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

    @cached_property
    def _bordered(self) -> np.ndarray:
        """A (..., N + 1, N + 1) buffer, one per matrix of S, with Sigma / U built
        in its leading N x N block and checked finite; the border is left for
        _bordered_cholesky."""
        n = self.S.N
        bordered = np.empty(self.S.entries.shape[:-2] + (n + 1, n + 1))
        if not np.isfinite(channel_covariance(self, out=bordered[..., :n, :n])).all():
            raise NumericalFailure("covariance has non-finite entries")
        return bordered

    @cached_property
    def _factor(self) -> np.ndarray:
        return _bordered_cholesky(self._bordered, self.s1, self.w)

    def _one_matrix(self) -> None:
        """Raise DimensionMismatch when S is a stack, for the calls that serve one matrix."""
        if self.S.entries.ndim != 2:
            raise DimensionMismatch(f"expected one signature matrix, got a stack of shape {self.S.entries.shape}")

    def leave_one_out_form(self, k: int) -> float:
        """q_k = s_k^T (Q_k / U)^{-1} s_k for sensor k's signature s_k, of one matrix S.

        Q_k / U = Sigma / U - c s_k s_k^T is the covariance of the channel
        without sensor k: Sigma's rank-one downdate, built straight into the
        leading block of its own bordered buffer, whose factor gives q_k with
        no solve.
        """
        self._one_matrix()
        s = self.S.entries[:, k]
        n = s.size
        bordered = np.empty((n + 1, n + 1))
        leave_out = np.outer(s, s, out=bordered[:n, :n])
        leave_out *= self.c
        np.subtract(self._bordered[:n, :n], leave_out, out=leave_out)
        return float(_inverse_forms(_bordered_cholesky(bordered, s, self.w)))

    def whiten(self, B) -> np.ndarray:
        """L^{-1} B for a finite vector or matrix B, with L the lower Cholesky
        factor of Sigma / U, so that (L^{-1} a)^T (L^{-1} b) = U a^T Sigma^{-1} b."""
        self._one_matrix()
        return _solve_lower(self._factor[:-1, :-1], B)

    @cached_property
    def s1(self) -> np.ndarray:
        """The summed signature S 1, one per matrix of a stack."""
        return self.S.entries.sum(axis=-1)

    @cached_property
    def detector(self) -> np.ndarray:
        """The detector direction U Sigma^{-1} S 1 = L^{-T} (L^{-1} S 1).

        L^{-1} S 1 is read off the factor; L^T is upper triangular, so it is
        solved as its row- and column-reversed copy, which is lower.
        """
        self._one_matrix()
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
    in sweep-grid's blocks, the result is the (k, N, N) stack of covariances.
    With `out`, an array of the result's shape (the leading block of a
    ChannelModel's bordered buffer), it is built there and `out` is returned.
    c and w are at most 1, so no entry overflows; a non-finite one, from a
    stack outside the signature alphabet, is rejected by the factoring routes.
    """
    A = model.S.entries
    cov = np.matmul(A, A.mT, out=out)
    cov *= model.c
    diag = np.arange(A.shape[-2])
    cov[..., diag, diag] += model.w
    return cov


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a finite matrix, or of each matrix of a stack."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"covariance factorization failed: {exc}") from exc


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


def quadratic_form(model: ChannelModel) -> float | list[float]:
    """The quadratic form q = U qf = (S 1)^T (Sigma / U)^{-1} (S 1).

    Read off the model's bordered Cholesky factor, with no solve; the
    covariance is positive definite, so q >= 0, with equality exactly when
    the signature columns sum to zero.  A model over a (k, N, Ns) stack gives
    its k forms as a list, each bit for bit the form of its matrix alone.
    """
    return _inverse_forms(model._factor).tolist()


def exact_report(params: SystemParams, q: float, spec: DetectorSpec) -> PerformanceReport:
    """Error probabilities of the detector spec on a channel of form q = U qf.

    The threshold tau and the bounds (a, b) on the statistic's noise are
    core.detector_bounds at r = core.root_snr(params, q); pf = Q(a) and
    pm = Phi(b) are carried in the log domain by core.log_ndtr, where they
    stay finite far past the point where the tails themselves underflow.
    np's pf is alpha_fa by construction, and its log is taken as such.
    pe = p0 pf + p1 pm, and log_pe is the log of the same mix, summed in the
    log domain.
    """
    r = root_snr(params, q)
    tau, a, b = detector_bounds(spec, params, r)
    log_pf = math.log(spec.alpha_fa) if spec.criterion == NEYMAN_PEARSON and r > 0.0 else log_ndtr(-a)
    log_pm = log_ndtr(b)
    pf, pm = math.exp(log_pf), math.exp(log_pm)
    log_pe = float(np.logaddexp(math.log(params.p0) + log_pf, math.log(params.p1) + log_pm))
    return PerformanceReport(pf=pf, pm=pm, pe=params.p0 * pf + params.p1 * pm, log_pe=log_pe, tau_prime=tau, q=q)


def exact_performance(params: SystemParams, S: SpreadingMatrix, spec: DetectorSpec) -> PerformanceReport:
    """Closed-form error probabilities for one signature matrix (see exact_report)."""
    model = ChannelModel.from_params(params, S)
    model._one_matrix()
    return exact_report(params, quadratic_form(model), spec)
