"""Distributional checks of the large-system concentration claims.

Each experiment draws fresh signature matrices at increasing N with the
load ratio of the template held fixed (Ns = round(alpha N)), measures a
code-dependent quantity, and pairs it with its deterministic limit.
Convergence is judged across seeds (medians), never from a single draw.

Every statistic comes from one shared pass over the (N, seed) schedule, in
which each cell draws its matrix once, builds Sigma once and factorizes two
covariances: Sigma and sensor 0's leave-one-out Q_0 = Sigma - c s_0 s_0^T,
its rank-one downdate.  One triangular solve per cell whitens the
signatures, Y = L^{-1} S with Sigma = L L^T, so that every form
s_i^T Sigma^{-1} s_j is the dot product of columns i and j of Y; the
decomposition check, the cross terms and sensor 0's full form all read Y,
and no Ns x Ns matrix is formed.  The CLI's converge mode computes all four
statistics from that one draw, those two factorizations and that one
whitening per cell; each public experiment runs the same pass for its own
statistic alone.  Forms are computed in the units U of core.snr_groups and
divided by U at the end, so the records keep their physical units.

All experiments require sigma_v2 > 0 in the template: without relayed
observation noise there is no multi-access interference and the limits
collapse to the trivial ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import asymptotic_params
from .core import SystemParams, root_snr, seed_sequence, sensors_for_load, snr_groups
from .errors import DomainError, InvalidParam, NumericalFailure
from .exact import ChannelModel, inverse_form, quadratic_form
from .spreading import generate

_PAIR_STREAM = 0x9A1C
_DECOMPOSITION_RTOL = 1e-8
_PROBE_SENSOR = 0
"""The sensor whose diagonal forms the "diag" and "mil" statistics measure."""
_MAX_PAIRS = 200
"""Most distinct sensor pairs the "cross" statistic averages over per cell."""


@dataclass(frozen=True)
class ConvergenceRecord:
    """One measurement of a code-dependent statistic against its limit."""

    statistic: str
    N: int
    alpha: float
    Ns: int
    seed: int
    observed: float
    predicted: float
    abs_error: float
    rel_error: float


def _record(statistic: str, params: SystemParams, seed: int, observed: float, predicted: float) -> ConvergenceRecord:
    abs_error = abs(observed - predicted)
    rel_error = abs_error / abs(predicted) if predicted != 0.0 else math.nan
    return ConvergenceRecord(
        statistic=statistic,
        N=params.N,
        alpha=params.Ns / params.N,
        Ns=params.Ns,
        seed=seed,
        observed=observed,
        predicted=predicted,
        abs_error=abs_error,
        rel_error=rel_error,
    )


def _scaled(template: SystemParams, N: int) -> SystemParams:
    alpha = template.Ns / template.N
    return replace(template, N=N, Ns=sensors_for_load(alpha, N))


def _check_schedule(template: SystemParams, N_values, seeds) -> None:
    if template.sigma_v2 <= 0.0:
        raise DomainError("convergence experiments require sigma_v2 > 0")
    if len(N_values) == 0:
        raise InvalidParam("N_values", N_values, "at least one spreading length required")
    if any(n2 <= n1 for n1, n2 in zip(N_values, N_values[1:])):
        raise InvalidParam("N_values", list(N_values), "must be strictly increasing")
    if len(seeds) == 0:
        raise InvalidParam("seeds", seeds, "at least one seed required")


def _diag_forms(model: ChannelModel, Y: np.ndarray) -> tuple[float, float]:
    """(s^T Sigma^{-1} s, q = s^T Q^{-1} s), times U, for the probe sensor's signature s.

    The first is the squared norm of s's whitened column in Y.  Q, the
    covariance of the channel without s, is Sigma less s's rank-one term,
    c s s^T in units of U, and gets a factorization of its own.
    """
    s, y = model.S.entries[:, _PROBE_SENSOR], Y[:, _PROBE_SENSOR]
    leave_out = model.covariance - model.c * np.outer(s, s)
    return float(y @ y), inverse_form(leave_out, s, model.w)


def _mil_residual(full: float, leave: float, c: float) -> float:
    return abs(full - leave / (1.0 + c * leave))


def _snr_records(params: SystemParams, seed: int, model: ChannelModel, Y: np.ndarray, predicted: float):
    # q from the summed signature against q = sum_ij y_i^T y_j from the
    # whitened columns Y = L^{-1} S, which is ||Y 1||^2
    q = quadratic_form(model)
    y1 = Y.sum(axis=1)
    decomposed = float(y1 @ y1)
    residual = abs(q - decomposed) / q if q > 0 else decomposed
    if not residual <= _DECOMPOSITION_RTOL:
        raise NumericalFailure(
            f"quadratic-form decomposition residual {residual!r} exceeds "
            f"{_DECOMPOSITION_RTOL} at N={params.N}, seed={seed}"
        )
    x = root_snr(params, q) / params.m  # squared as x * x, which overflows to inf where ** raises
    return [
        _record("snr", params, seed, x * x, predicted),
        _record("decomposition_residual", params, seed, residual, 0.0),
    ]


def _cross_mean(Y: np.ndarray, seed: int, pairs) -> float:
    # s_i^T Sigma^{-1} s_j is the dot product of whitened columns i and j
    rows, cols = pairs
    n_all = rows.size
    if n_all > _MAX_PAIRS:
        pick_rng = np.random.Generator(np.random.Philox(seed_sequence(seed, _PAIR_STREAM)))
        idx = pick_rng.choice(n_all, size=_MAX_PAIRS, replace=False)
        pi, pj = rows[idx], cols[idx]
    else:
        pi, pj = rows, cols
    return float(np.mean(np.abs(np.einsum("ki,ki->i", Y[:, pi], Y[:, pj]))))


def _experiments(
    template: SystemParams,
    N_values,
    seeds,
    wanted=("snr", "diag", "cross", "mil"),
) -> list[ConvergenceRecord]:
    """Records of the wanted statistics from one pass over the (N, seed) schedule.

    The whole schedule is checked before the first draw.  Each cell draws S
    once, factorizes Sigma once and whitens all of S once, and factorizes the
    leave-one-out covariance of sensor 0 when "diag" or "mil" is wanted.
    "diag" and "mil" alone read only sensor 0's whitened column, but whitening
    that column alone would round it differently from the whole: O(N^2 Ns)
    work instead of O(N^2) buys each statistic the same value alone as with
    the others.
    Records come back grouped by statistic in the order of wanted, each
    group in schedule order.
    """
    _check_schedule(template, N_values, seeds)
    scaled = [_scaled(template, N) for N in N_values]
    for params in scaled:
        if "cross" in wanted and params.Ns < 2:
            raise InvalidParam(
                "Ns", params.Ns, f"cross terms need at least 2 sensors, got Ns={params.Ns} at N={params.N}"
            )
    out = {name: [] for name in wanted}
    for params in scaled:
        unit = snr_groups(params)[0]
        ap = asymptotic_params(params) if "snr" in wanted or "diag" in wanted else None
        if "snr" in wanted and not (ap.mu > 0.0 and 1.0 / ap.mu < math.inf):  # no error against inf is a number
            raise NumericalFailure(f"limiting snr 1 / mu overflows to inf at N={params.N}, mu={ap.mu!r}")
        pairs = np.triu_indices(params.Ns, k=1) if "cross" in wanted else None
        for seed in seeds:
            model = ChannelModel.from_params(params, generate(params.N, params.Ns, seed))
            Y = model.whiten(model.S.entries)
            if "snr" in wanted:
                out["snr"] += _snr_records(params, seed, model, Y, 1.0 / ap.mu)
            if "diag" in wanted or "mil" in wanted:
                full, leave = _diag_forms(model, Y)
            if "diag" in wanted:
                predicted = ap.beta0 / (1.0 + model.c * unit * ap.beta0)
                out["diag"].append(_record("diag_leave_out", params, seed, leave / unit, ap.beta0))
                out["diag"].append(_record("diag_full", params, seed, full / unit, predicted))
            if "cross" in wanted:
                observed = _cross_mean(Y, seed, pairs) / unit
                out["cross"].append(_record("cross_mean", params, seed, observed, 0.0))
            if "mil" in wanted:
                out["mil"].append(_record("mil_residual", params, seed, _mil_residual(full, leave, model.c) / unit, 0.0))
    return [r for name in wanted for r in out[name]]


def mil_residual_experiment(template: SystemParams, N_values, seeds) -> list[ConvergenceRecord]:
    """Residual of the leave-one-out inversion identity across the (N, seed) schedule.

    With c = g^2 sigma_v2 and Q = Sigma - c s s^T the covariance without
    sensor 0's signature s, s^T Sigma^{-1} s must equal q / (1 + c q) where
    q = s^T Q^{-1} s.  Both sides come from their own factorizations; the
    absolute difference is the observed value, predicted 0, and sits at
    rounding level (~1e-12) for healthy linear algebra.  s^T Sigma^{-1} s is
    read from the whitening of all of S, as in converge mode (see _experiments).
    """
    return _experiments(template, N_values, seeds, ("mil",))


def diagonal_term_experiment(template: SystemParams, N_values, seeds) -> list[ConvergenceRecord]:
    """Concentration of one sensor's diagonal quadratic forms.

    For sensor 0 of each fresh matrix: the leave-one-out form
    s_0^T Q_0^{-1} s_0 tends to beta0, and the full form s_0^T Sigma^{-1} s_0
    tends to beta0 / (1 + c beta0) with c = g^2 sigma_v2.  Emits statistics
    "diag_leave_out" and "diag_full" for every (N, seed) cell.  The full form
    is read from the whitening of all of S, as in converge mode (see
    _experiments).
    """
    return _experiments(template, N_values, seeds, ("diag",))


def cross_term_experiment(template: SystemParams, N_values, seeds) -> list[ConvergenceRecord]:
    """Decay of cross quadratic forms between distinct sensors.

    Measures the mean of |s_i^T Sigma^{-1} s_j| over a deterministic random
    subset of at most 200 distinct pairs (i < j); the limit is 0 and
    the magnitude shrinks like 1/sqrt(N).  Each form is the dot product of
    two columns of the whitened signatures L^{-1} S, from one triangular
    solve per matrix.  Emits statistic "cross_mean".
    Needs at least two sensors at every N in the schedule.
    """
    return _experiments(template, N_values, seeds, ("cross",))


def quadratic_form_convergence(template: SystemParams, N_values, seeds) -> list[ConvergenceRecord]:
    """Concentration of the detector SNR g^2 qf on its limit 1/mu.

    Emits statistic "snr" for every (N, seed) cell, plus
    "decomposition_residual": the relative gap between qf computed from the
    summed signature and from the per-sensor decomposition
    sum_ij y_i^T y_j = ||Y 1||^2, where Y = L^{-1} S are the signatures
    whitened by the lower Cholesky factor of Sigma.  The two are the same
    number in exact arithmetic; a gap above 1e-8 raises
    NumericalFailure because it means the linear algebra is corrupted.
    """
    return _experiments(template, N_values, seeds, ("snr",))
