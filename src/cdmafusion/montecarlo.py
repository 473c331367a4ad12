"""Brute-force simulation of the full generative chain.

Each trial draws sensor observations z = -+m + v, amplifies them, spreads
them through the signature matrix and adds receiver noise, then thresholds
the fusion statistic.  The statistic is linear in the two noise vectors, so
a trial is one weighted sum u . n of its Ns + N standard normals n, of
variance d^T (Sigma / U) d / q = 1 (see estimate); the chip vector is never
formed, and the sum is compared with the noise bounds of
core.detector_bounds, the same decision whose tails the exact route takes.
That noise term has the same law under both hypotheses, so one draw of it
serves a false-alarm trial and a miss trial (common random numbers; RNG_ID
names this scheme, from artifact 0.5.0 on).  Trials are produced in
fixed-size chunks, each from its own SFC64 stream spawned from (seed, 0,
chunk index), whose float64 uniforms become standard normals by the
Box-Muller transform (NORMAL_SAMPLER_ID, from artifact 0.7.0 on; see
_BoxMuller).  A chunk draws its normals _DRAW_ROWS rows at a time and
folds each block into the noise term before drawing the next, so a worker
holds about 1.45 MiB (one 1 MiB block, the sampler's 192 KiB of scratch
and two CHUNK_TRIALS vectors) whatever Ns + N is.
Chunks run on the forked worker processes of core.map_workers, and their
counts are integers merged by addition, so the estimate is a pure function
of (inputs, seed) regardless of how many workers execute chunks or in what
order they finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DetectorSpec, SystemParams, amplifier_gain, check_count, check_seed, detector_bounds, map_workers
from .core import root_snr, seed_sequence
from .errors import DomainError
from .exact import ChannelModel, McDiagnostics, PerformanceReport, quadratic_form
from .spreading import SpreadingMatrix

CHUNK_TRIALS = 1 << 14
RNG_ID = "sfc64-seedseq-chunk16384-shared-v3"
NORMAL_SAMPLER_ID = "box-muller-f64log-f32trig-v1"
_DRAW_ROWS = 8
"""Rows of a chunk's normals drawn and folded into its statistic at a time.

The generator fills rows in stream order, so the draws do not depend on it;
it fixes the order in which the statistic t is summed, so it is a constant
like the identifiers above, not a run option.
"""


@dataclass(frozen=True)
class McConfig:
    """Simulation budget: trials per hypothesis, master seed, worker hint.

    worker_hint caps the forked worker pool (core.map_workers); None or 1
    runs sequentially.  It never affects the numerical result, only wall time.
    """

    trials_per_hypothesis: int
    seed: int
    worker_hint: int | None = None

    def __post_init__(self):
        check_count("trials_per_hypothesis", self.trials_per_hypothesis, "trials per hypothesis")
        check_seed(self.seed)
        if self.worker_hint is not None:
            check_count("worker_hint", self.worker_hint, "worker hint")


_PIECE_PAIRS = 1 << 14
"""Pairs of uniforms the Box-Muller sampler transforms at a time.

Every step of the transform is elementwise, so this bounds the sampler's
scratch (192 KiB) and keeps a piece in cache without changing any value.
"""


class _BoxMuller:
    """Standard normals from a stream's float64 uniforms by the Box-Muller transform.

    Normals 2k and 2k+1 are R cos(Theta) and R sin(Theta), where u_k are the
    stream's float64 uniforms (Generator.random) in stream order,

        R = sqrt(-2 ln(1 - u_2k))  in float64,
        Theta = 2 pi u_{2k+1}      rounded to float32, cos and sin in float32,

    and each product is taken in float64.  The transform is exact; the only
    cap comes from u_2k <= 1 - 2^-53, so |normal| <= R <= sqrt(-2 ln 2^-53)
    = 8.57, beyond which a standard normal has a tail mass of about 1e-17.
    The log and the trigonometric kernels are numpy's, so the last bits
    follow numpy's CPU dispatch, as BLAS results do.

    standard_normal is the only drawing method.  Normals come in stream
    order whatever the shapes asked for: a call of odd length keeps the
    pair's second normal for the next call, so any split of a draw gives
    the same normals as one draw.
    """

    def __init__(self, uniforms: np.random.Generator):
        self.uniforms = uniforms
        self._held = np.empty(0)
        self._r = np.empty(_PIECE_PAIRS)
        self._theta = np.empty(_PIECE_PAIRS, np.float32)

    def standard_normal(self, size: tuple[int, ...]) -> np.ndarray:
        """The stream's next math.prod(size) normals, in C order."""
        n = math.prod(size)
        held = self._held
        pairs = (n - held.size + 1) // 2
        buf = np.empty(held.size + 2 * pairs)
        buf[:held.size] = held
        fresh = buf[held.size:].reshape(pairs, 2)
        self.uniforms.random(out=fresh)
        for a in range(0, pairs, _PIECE_PAIRS):
            u0, u1 = fresh[a:a + _PIECE_PAIRS].T  # become R cos(Theta) and R sin(Theta) in place
            r, theta = self._r[:u0.size], self._theta[:u0.size]
            np.multiply(u1, 2.0 * math.pi, out=theta, casting="same_kind")
            np.subtract(1.0, u0, out=r)
            np.log(r, out=r)
            np.multiply(r, -2.0, out=r)
            np.sqrt(r, out=r)
            np.cos(theta, out=u0)
            u0 *= r
            np.sin(theta, out=theta)
            np.multiply(r, theta, out=u1)
        self._held = buf[n:].copy()
        return buf[:n].reshape(size)


def _chunk_rng(seed: int, chunk_idx: int) -> _BoxMuller:
    # spawn key (0, chunk_idx): the stream H0 alone drew from up to artifact
    # 0.4.0, now read as uniforms
    return _BoxMuller(np.random.Generator(np.random.SFC64(seed_sequence(seed, 0, chunk_idx))))


def simulate_trials(
    params: SystemParams,
    S: SpreadingMatrix,
    hypothesis: int,
    n_trials: int,
    rng: np.random.Generator | _BoxMuller,
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
    ChannelModel.from_params(params, S)._one_matrix()  # checks S: one matrix, of the params' size
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


def _collapsed_weight(model: ChannelModel, q: float) -> np.ndarray:
    """The weight u with T(r_chips) / 2r == -+r + u . [n_v, n_w] for
    r_chips = g S (-+m 1 + sqrt(sigma_v2) n_v) + sqrt(sigma_w2) n_w and the
    model's form q (see estimate); 0 on the channel whose statistic is 0."""
    d = model.detector
    v = np.concatenate((math.sqrt(model.c) * (model.S.entries.T @ d), math.sqrt(model.w) * d))
    return v / math.sqrt(q) if q > 0.0 else v


def _count_errors(
    noise_weight: np.ndarray,
    bounds: tuple[float, float],
    seed: int,
    chunk_idx: int,
    size: int,
) -> tuple[int, int]:
    """(false alarms, misses) among a chunk's trials of the noise term
    d = noise_weight . n.  One draw of d serves both hypotheses: a trial is a
    false alarm when d >= bounds[0] and a miss when d < bounds[1]."""
    rng = _chunk_rng(seed, chunk_idx)
    d = np.zeros(size)
    for r0 in range(0, noise_weight.size, _DRAW_ROWS):
        w = noise_weight[r0:r0 + _DRAW_ROWS]
        d += w @ rng.standard_normal((w.size, size))
    return int(np.count_nonzero(d >= bounds[0])), int(np.count_nonzero(d < bounds[1]))


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

    and u . n has variance d^T (Sigma / U) d / q: 1 when the factor is right,
    off 1 when it is not.  No scale of the model overflows u.  Each chunk
    takes one weighted sum per trial of its Ns + N standard normals, drawn
    by the Box-Muller transform of its stream's uniforms (_BoxMuller; no
    normal exceeds 8.57 in size) and summed _DRAW_ROWS rows at a time
    (about 1.45 MiB per worker at any system size).  The weight and q take
    one factorization and one solve; q rides on the report, so
    exact_report(params, report.q, spec) gives the closed form without
    factorizing again.

    T >= tau is the noise term u . n against the bounds (a, b) of
    core.detector_bounds, a under H0 and b under H1, so the noise is not lost
    in the rounding of a mean far larger than it, and the degenerate q == 0
    channel, whose u is 0, meets the tie rule there as the closed form does.

    That noise term has the same law under both hypotheses, so each chunk
    draws it once and counts a false alarm and a miss on every draw: one
    pool job per chunk, n (Ns + N) normals in all.  Each count is still
    Binomial(n, p) with a binomial stderr_pf or stderr_pm.  stderr_pe is
    the standard error of the coupled pair,

        sqrt(p0^2 pf (1 - pf) + p1^2 pm (1 - pm) - 2 p0 p1 pf pm) / sqrt(n):

    the bounds are ordered, a >= b, so no draw is an error under both
    hypotheses, and the two counts' covariance is -pf pm / n.
    """
    model = ChannelModel.from_params(params, S)
    q = quadratic_form(model)
    noise_weight = _collapsed_weight(model, q)
    r = root_snr(params, q)
    tau, *bounds = detector_bounds(spec, params, r)

    n = mc.trials_per_hypothesis

    def run(job: tuple[int, int]) -> tuple[int, int]:
        return _count_errors(noise_weight, bounds, mc.seed, *job)

    counts = map_workers(run, _chunk_plan(n), mc.worker_hint)
    false_alarms, misses = (sum(c) for c in zip(*counts))
    pf = false_alarms / n
    pm = misses / n
    pe = params.p0 * pf + params.p1 * pm
    se_pf = math.sqrt(pf * (1.0 - pf) / n)
    se_pm = math.sqrt(pm * (1.0 - pm) / n)
    var_pe = (params.p0**2 * pf * (1.0 - pf) + params.p1**2 * pm * (1.0 - pm)
              - 2.0 * params.p0 * params.p1 * (pf * pm))
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
