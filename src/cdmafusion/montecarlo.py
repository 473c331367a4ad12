"""Brute-force simulation of the full generative chain.

Each trial draws sensor observations z = -+m + v, amplifies them, spreads
them through the signature matrix and adds receiver noise, then thresholds
the fusion statistic.  The statistic is linear in the two noise vectors, so
a trial is one weighted sum of its Ns + N standard normals, with a weight of
unit norm (see estimate); the received chip vector itself is never formed.
That noise term has the same law under both hypotheses, so one draw of it
serves a false-alarm trial and a miss trial (common random numbers; RNG_ID
names this scheme, from artifact 0.5.0 on).  Trials are produced in
fixed-size chunks, each from its own SFC64 stream spawned from (seed, 0,
chunk index).  A chunk draws its normals _DRAW_ROWS rows at a time and
folds each block into the noise term before drawing the next, so a worker
holds about 1.25 MiB (one 1 MiB block and two CHUNK_TRIALS vectors)
whatever Ns + N is.
Chunk counts are integers merged by addition, so the estimate is a pure
function of (inputs, seed) regardless of how many workers execute chunks
or in what order they finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NEYMAN_PEARSON, DetectorSpec, SystemParams, amplifier_gain, check_count, check_seed, map_workers
from .core import np_quantile, root_snr, seed_sequence, threshold_for
from .errors import DomainError
from .exact import ChannelModel, McDiagnostics, PerformanceReport, quadratic_form
from .spreading import SpreadingMatrix

CHUNK_TRIALS = 1 << 14
RNG_ID = "sfc64-seedseq-chunk16384-shared-v3"
NORMAL_SAMPLER_ID = "numpy-ziggurat-v1"
_DRAW_ROWS = 8
"""Rows of a chunk's normals drawn and folded into its statistic at a time.

The generator fills rows in stream order, so the draws do not depend on it;
it fixes the order in which the statistic t is summed, so it is a constant
like the identifiers above, not a run option.
"""


@dataclass(frozen=True)
class McConfig:
    """Simulation budget: trials per hypothesis, master seed, worker hint.

    worker_hint caps the thread pool size; None or 1 runs sequentially.
    It never affects the numerical result, only wall time.
    """

    trials_per_hypothesis: int
    seed: int
    worker_hint: int | None = None

    def __post_init__(self):
        check_count("trials_per_hypothesis", self.trials_per_hypothesis, "trials per hypothesis")
        check_seed(self.seed)
        if self.worker_hint is not None:
            check_count("worker_hint", self.worker_hint, "worker hint")


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    # spawn key (0, chunk_idx): the stream H0 alone drew from up to artifact
    # 0.4.0, so false-alarm counts stay those of that artifact
    return np.random.Generator(np.random.SFC64(seed_sequence(seed, 0, chunk_idx)))


def simulate_trials(
    params: SystemParams,
    S: SpreadingMatrix,
    hypothesis: int,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n_trials received vectors under the given hypothesis.

    Returns an (N, n_trials) array: columns are independent trials of
    r = g S z + w with z = -+m + v.  Consumes 2 blocks of normals from rng
    (sensor noise first, then receiver noise), the same normals in the same
    order as one (Ns + N, n_trials) draw.

    estimate does not call this: it draws those normals and applies the
    collapsed weight directly.  This is the reference path that the
    collapsed statistic is tested against, weight @ r for a chunk's stream
    under either hypothesis.
    """
    if hypothesis not in (0, 1):
        raise DomainError(f"hypothesis must be 0 or 1, got {hypothesis!r}")
    n_trials = check_count("n_trials", n_trials, "trial count")
    ChannelModel.from_params(params, S)  # checks S against params
    g = amplifier_gain(params)
    mean = params.m if hypothesis == 1 else -params.m
    z = mean + math.sqrt(params.sigma_v2) * rng.standard_normal((params.Ns, n_trials))
    w = math.sqrt(params.sigma_w2) * rng.standard_normal((params.N, n_trials))
    return g * (S.entries @ z) + w


def _chunk_plan(total: int) -> list[tuple[int, int]]:
    """(chunk index, chunk size) pairs covering `total` trials."""
    sizes = []
    full, rem = divmod(total, CHUNK_TRIALS)
    for idx in range(full):
        sizes.append((idx, CHUNK_TRIALS))
    if rem:
        sizes.append((full, rem))
    return sizes


def _collapsed_weight(model: ChannelModel) -> np.ndarray:
    """The unit vector u with T(r_chips) / 2r == -+r + u . [n_v, n_w] for
    r_chips = g S (-+m 1 + sqrt(sigma_v2) n_v) + sqrt(sigma_w2) n_w (see estimate);
    0 on the channel whose statistic is identically 0."""
    d = model.detector
    v = np.concatenate((math.sqrt(model.c) * (model.S.entries.T @ d), math.sqrt(model.w) * d))
    norm = math.sqrt(v @ v)
    return v / norm if norm > 0.0 else v


def _count_errors(
    noise_weight: np.ndarray,
    bounds: tuple[float, float],
    seed: int,
    chunk_idx: int,
    size: int,
) -> tuple[int, int, int]:
    """(false alarms, misses, both) among a chunk's trials of the noise term
    d = noise_weight . n.  One draw of d serves both hypotheses: a trial is a
    false alarm when d >= bounds[0] and a miss when d < bounds[1]; `both`
    counts the trials that are an error under each."""
    rng = _chunk_rng(seed, chunk_idx)
    d = np.zeros(size)
    for r0 in range(0, noise_weight.size, _DRAW_ROWS):
        w = noise_weight[r0:r0 + _DRAW_ROWS]
        d += w @ rng.standard_normal((w.size, size))
    false_alarm = d >= bounds[0]
    miss = d < bounds[1]
    return (int(np.count_nonzero(false_alarm)), int(np.count_nonzero(miss)),
            int(np.count_nonzero(false_alarm & miss)))


def estimate(
    params: SystemParams, S: SpreadingMatrix, spec: DetectorSpec, mc: McConfig
) -> PerformanceReport:
    """Monte Carlo error probabilities with their standard errors.

    The detector is the same one exact_performance analyses: the threshold
    is resolved against this channel's root SNR r, and the statistic is
    T = 2 g m (S 1)^T Sigma^{-1} r_chips.  With r_chips = g S (-+m 1 +
    sqrt(sigma_v2) n_v) + sqrt(sigma_w2) n_w and d = U Sigma^{-1} S 1 the
    model's detector (exact.ChannelModel),

        T / 2r = -+r + u . [n_v, n_w],  u = [sqrt(c) S^T d, sqrt(w) d] / sqrt(q),

    a unit vector, so no scale of the model can overflow it.  Each chunk
    takes one weighted sum per trial of its Ns + N standard normals, drawn
    and summed _DRAW_ROWS rows at a time (about 1.25 MiB per worker at any
    system size).  The weight and q take one factorization and one solve;
    q rides on the report, so exact_report(params, report.q, spec) gives the
    closed form without factorizing again.

    T >= tau is the noise term u . n against tau / 2r + r under H0 and
    tau / 2r - r under H1, so the noise is not lost in the rounding of a mean
    far larger than it; np's bound under the null is Q^{-1}(alpha_fa).  Ties
    (T == tau) decide the alternative, which is what makes the degenerate
    q == 0 channel, r == 0, agree with the closed form.

    That noise term has the same law under both hypotheses, so each chunk
    draws it once and counts a false alarm and a miss on every draw: one
    pool job per chunk, n (Ns + N) normals in all.  Each count is still
    Binomial(n, p) with a binomial stderr_pf or stderr_pm.  stderr_pe is
    the standard error of the coupled pair,

        sqrt(p0^2 pf (1 - pf) + p1^2 pm (1 - pm) + 2 p0 p1 (both/n - pf pm)) / sqrt(n),

    where `both` counts the draws in error under each hypothesis; the
    bounds are ordered (r >= 0), so both is 0.
    """
    model = ChannelModel.from_params(params, S)
    noise_weight = _collapsed_weight(model)
    q = quadratic_form(model)
    r = root_snr(params, q)
    tau = threshold_for(spec, params, r)
    if r == 0.0:
        bounds = (tau, tau)
    elif spec.criterion == NEYMAN_PEARSON:
        bounds = (np_quantile(spec.alpha_fa), np_quantile(spec.alpha_fa) - 2.0 * r)
    else:
        bounds = (tau / (2.0 * r) + r, tau / (2.0 * r) - r)

    n = mc.trials_per_hypothesis

    def run(job: tuple[int, int]) -> tuple[int, int, int]:
        return _count_errors(noise_weight, bounds, mc.seed, *job)

    counts = map_workers(run, _chunk_plan(n), mc.worker_hint)
    false_alarms, misses, both = (sum(c) for c in zip(*counts))
    pf = false_alarms / n
    pm = misses / n
    pe = params.p0 * pf + params.p1 * pm
    se_pf = math.sqrt(pf * (1.0 - pf) / n)
    se_pm = math.sqrt(pm * (1.0 - pm) / n)
    var_pe = (params.p0**2 * pf * (1.0 - pf) + params.p1**2 * pm * (1.0 - pm)
              + 2.0 * params.p0 * params.p1 * (both / n - pf * pm))
    se_pe = math.sqrt(max(var_pe, 0.0) / n)
    diag = McDiagnostics(
        trials_per_hypothesis=n,
        seed=mc.seed,
        false_alarms=false_alarms,
        misses=misses,
        stderr_pf=se_pf,
        stderr_pm=se_pm,
        stderr_pe=se_pe,
    )
    log_pe = math.log(pe) if pe > 0.0 else -math.inf
    return PerformanceReport(pf=pf, pm=pm, pe=pe, log_pe=log_pe, tau_prime=tau, mc=diag, q=q)
