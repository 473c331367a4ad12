"""Brute-force simulation of the full generative chain.

Each trial draws sensor observations z = -+m + v, amplifies them, spreads
them through the signature matrix and adds receiver noise, then thresholds
the fusion statistic.  Trials are produced in fixed-size chunks, each chunk
from its own Philox stream spawned from (seed, hypothesis, chunk index).
Chunk counts are integers merged by addition, so the estimate is a pure
function of (inputs, seed) regardless of how many workers execute chunks
or in what order they finish.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .core import DetectorSpec, SystemParams, amplifier_gain, threshold_for
from .errors import DimensionMismatch, DomainError, InvalidParam
from .exact import MONTECARLO, ChannelModel, McDiagnostics, PerformanceReport, _cho, channel_covariance
from .spreading import SpreadingMatrix

CHUNK_TRIALS = 1 << 14
RNG_ID = "philox4x64-seedseq-chunk16384-v1"
NORMAL_SAMPLER_ID = "numpy-ziggurat-v1"

_SEED_MAX = 2**64


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
        if not isinstance(self.trials_per_hypothesis, int) or isinstance(self.trials_per_hypothesis, bool) \
                or self.trials_per_hypothesis < 1:
            raise InvalidParam(
                "trials_per_hypothesis", self.trials_per_hypothesis, "must be an integer >= 1"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < _SEED_MAX:
            raise InvalidParam("seed", self.seed, "seed must be an integer in [0, 2**64)")
        if self.worker_hint is not None and (
            not isinstance(self.worker_hint, int)
            or isinstance(self.worker_hint, bool)
            or self.worker_hint < 1
        ):
            raise InvalidParam("worker_hint", self.worker_hint, "must be None or an integer >= 1")


def _chunk_rng(seed: int, hypothesis: int, chunk_idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(hypothesis, chunk_idx))
    return np.random.Generator(np.random.Philox(ss))


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
    (sensor noise first, then receiver noise).
    """
    if hypothesis not in (0, 1):
        raise DomainError(f"hypothesis must be 0 or 1, got {hypothesis!r}")
    if not isinstance(n_trials, int) or isinstance(n_trials, bool) or n_trials < 1:
        raise DomainError(f"n_trials must be an integer >= 1, got {n_trials!r}")
    if (S.N, S.Ns) != (params.N, params.Ns):
        raise DimensionMismatch(
            f"signature matrix is {S.N}x{S.Ns} but params declare N={params.N}, Ns={params.Ns}"
        )
    g = amplifier_gain(params)
    mean = params.m if hypothesis == 1 else -params.m
    z = mean + math.sqrt(params.sigma_v2) * rng.standard_normal((params.Ns, n_trials))
    w = math.sqrt(params.sigma_w2) * rng.standard_normal((params.N, n_trials))
    return g * (S.entries @ z) + w


def simulate_trial(
    params: SystemParams, S: SpreadingMatrix, hypothesis: int, rng: np.random.Generator
) -> np.ndarray:
    """One received vector r of length N under the given hypothesis."""
    return simulate_trials(params, S, hypothesis, 1, rng)[:, 0]


def _chunk_plan(total: int) -> list[tuple[int, int]]:
    """(chunk index, chunk size) pairs covering `total` trials."""
    sizes = []
    full, rem = divmod(total, CHUNK_TRIALS)
    for idx in range(full):
        sizes.append((idx, CHUNK_TRIALS))
    if rem:
        sizes.append((full, rem))
    return sizes


def _count_errors(
    params: SystemParams,
    S: SpreadingMatrix,
    weight: np.ndarray,
    tau: float,
    hypothesis: int,
    seed: int,
    chunk_idx: int,
    size: int,
) -> int:
    rng = _chunk_rng(seed, hypothesis, chunk_idx)
    r = simulate_trials(params, S, hypothesis, size, rng)
    t = weight @ r
    if hypothesis == 0:
        return int(np.count_nonzero(t >= tau))
    return int(np.count_nonzero(t < tau))


def estimate(
    params: SystemParams, S: SpreadingMatrix, spec: DetectorSpec, mc: McConfig
) -> PerformanceReport:
    """Monte Carlo error probabilities with binomial standard errors.

    The detector is the same one exact_performance analyses: the threshold
    is resolved against this channel's quadratic form, and the statistic is
    computed as a dot product with the precomputed weight vector
    2 g m Sigma^{-1} S 1.  Ties (T == tau) decide the alternative, which is
    what makes the degenerate qf == 0 channel agree with the closed form.
    """
    model = ChannelModel.from_params(params, S)
    factor = _cho(channel_covariance(model))
    s1 = S.entries.sum(axis=1)
    weight = 2.0 * model.g * params.m * cho_solve(factor, s1)
    qf = float(s1 @ cho_solve(factor, s1))
    tau = threshold_for(spec, params, qf)

    n = mc.trials_per_hypothesis
    jobs = [
        (hyp, idx, size)
        for hyp in (0, 1)
        for idx, size in _chunk_plan(n)
    ]

    def run(job: tuple[int, int, int]) -> tuple[int, int]:
        hyp, idx, size = job
        return hyp, _count_errors(params, S, weight, tau, hyp, mc.seed, idx, size)

    counts = [0, 0]
    if mc.worker_hint is not None and mc.worker_hint > 1:
        with ThreadPoolExecutor(max_workers=mc.worker_hint) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    for hyp, c in results:
        counts[hyp] += c

    false_alarms, misses = counts
    pf = false_alarms / n
    pm = misses / n
    pe = params.p0 * pf + params.p1 * pm
    se_pf = math.sqrt(pf * (1.0 - pf) / n)
    se_pm = math.sqrt(pm * (1.0 - pm) / n)
    se_pe = math.sqrt((params.p0 * se_pf) ** 2 + (params.p1 * se_pm) ** 2)
    diag = McDiagnostics(
        trials_per_hypothesis=n,
        seed=mc.seed,
        false_alarms=false_alarms,
        misses=misses,
        stderr_pf=se_pf,
        stderr_pm=se_pm,
        stderr_pe=se_pe,
    )
    return PerformanceReport(pf=pf, pm=pm, pe=pe, method=MONTECARLO, tau_prime=tau, mc=diag)
