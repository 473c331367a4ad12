"""Scalar foundations: model parameters, integer and seed checks, the worker
map, the dimensionless groups, Gaussian tails, and the detector's decision
(detector_bounds), which every route reads.

The model: Ns sensors each observe z_n = +-m + v_n with v_n ~ N(0, sigma_v2),
scale their observation by a common gain g, and transmit simultaneously over
N chips.  The fusion center receives the superposition in noise of per-chip
variance sigma_w2.  The total radiated power is capped at P, shared equally,
which pins the gain at g = sqrt(P / (Ns (m^2 + sigma_v2))).

Every error probability depends on the scalars only through the root SNR
r = m sqrt(x), and r only through rho = P / sigma_w2 and kappa = sigma_v2 /
(m^2 + sigma_v2), the groups every route computes in (snr_groups).

Everything here but the worker map and its fork pool is a pure function of its arguments.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import pickle
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidParam

BAYES = "bayes"
NEYMAN_PEARSON = "np"
FIXED = "fixed"

CRITERIA = (BAYES, NEYMAN_PEARSON, FIXED)

SEED_MAX = 2**64

_STANDARD_NORMAL = NormalDist()
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LEAST = math.ulp(0.0)  # the least positive double, which stands in for a positive value below it
_SERIES_BELOW = -37.0
"""Where log_ndtr leaves erfc for the asymptotic series: erfc(37 / sqrt 2) is
still a normal float, and a few lower it goes subnormal and then to 0."""


def is_int(x: object) -> bool:
    """True for Python and numpy integers, False for bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_count(name: str, value: object, what: str) -> int:
    """value as a Python int; InvalidParam unless it is an integer >= 1."""
    if not is_int(value) or value < 1:
        raise InvalidParam(name, value, f"{what} must be an integer >= 1")
    return int(value)


def check_seed(seed: object) -> int:
    """seed as a Python int; InvalidParam unless it is an integer in [0, 2**64)."""
    if not is_int(seed) or not 0 <= seed < SEED_MAX:
        raise InvalidParam("seed", seed, "seed must be an integer in [0, 2**64)")
    return int(seed)


def seed_sequence(master: int, *key: int) -> np.random.SeedSequence:
    """The child stream `key` of a master seed; every derived seed comes from here."""
    return np.random.SeedSequence(entropy=master, spawn_key=key)


def map_workers(fn, items, workers: int | None) -> list:
    """[fn(x) for x in items], on a pool of forked worker processes.

    The pool has min(workers, len(items), CPUs this process may run on)
    processes; below 2, or where os.fork is missing, the items run in line.
    Processes, not threads: a sweep-grid point is small numpy calls and
    Python glue under the interpreter lock (on 2 cores, two threads
    factoring 33 x 33 matrices ran at 0.45-0.86 times one thread's rate),
    and a Monte Carlo chunk, large numpy calls, ran as fast or faster on
    processes.  The results, and the first exception raised, follow the
    items' order.
    """
    n = min(workers or 1, len(items), _cpus())
    if n < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    return _fork_map(fn, items, n)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn, items, workers: int) -> list:
    """map_workers on `workers` forked child processes, workers <= len(items).

    The parent runs no item.  It hands each child one item index at a time
    over the child's own pipe, the last item first, so the load balances
    whatever the items cost, and a caller that lists its work cheapest
    first keeps the costliest item off the end of the schedule.  It reads
    back the pickled result, or the exception raised, over a second pipe.
    A child leaves only through os._exit, so it never flushes the parent's
    stdio or runs its exit handlers; on Linux it is also killed when the
    thread that forked it ends (_die_with_parent).  A child that ends
    without sending its result raises RuntimeError here, and every child is
    reaped before this returns or raises.

    From Python 3.12, os.fork warns (DeprecationWarning) when the process
    has more than one OS thread, and OpenBLAS's idle server thread counts:
    after `import numpy` a process has 2.  This module leaves that warning
    as the caller's filters set it.
    """
    import select
    import signal

    todo = list(range(len(items)))  # popped from the end
    results, errors = [None] * len(items), {}
    children = {}  # result fd -> [pid, task fd, item index]
    poller = select.poll()
    parent, ok = os.getpid(), False
    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            # the parent's ends of the pipes of the children forked so far
            inherited = [fd for result, child in children.items() for fd in (result, child[1])]
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_r, task_w, result_r, result_w):
                    os.close(fd)
                raise
            if pid == 0:
                code = 1
                try:
                    for fd in (task_w, result_r, *inherited):
                        os.close(fd)
                    _die_with_parent(parent)
                    _serve(fn, items, task_r, result_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(task_r)
            os.close(result_w)
            children[result_r] = [pid, task_w, None]
            poller.register(result_r, select.POLLIN)
            _hand_out(children[result_r], todo)
        busy = len(children)
        while busy:
            for fd, _ in poller.poll():
                child = children[fd]
                head = _read_exact(fd, 8)
                size = int.from_bytes(head, "little") if len(head) == 8 else -1
                if size < 0 or len(payload := _read_exact(fd, size)) < size:
                    _, status = os.waitpid(child[0], 0)
                    pid, child[0] = child[0], None
                    raise RuntimeError(f"worker process {pid} ended without a result "
                                       f"(exit code {os.waitstatus_to_exitcode(status)})")
                done, value = pickle.loads(payload)
                if done:
                    results[child[2]] = value
                else:
                    errors[child[2]] = value
                if not _hand_out(child, todo):
                    poller.unregister(fd)
                    busy -= 1
        ok = True
    finally:
        for fd, (pid, task_w, _) in children.items():
            if task_w is not None:
                os.close(task_w)
            os.close(fd)
            if pid is not None:
                if not ok:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if errors:
        raise errors[min(errors)]
    return results


def _hand_out(child: list, todo: list) -> bool:
    """Send the child [pid, task fd, index] the next index of todo, or close its
    task pipe when todo is empty, which ends the child; True if sent."""
    if not todo:
        os.close(child[1])
        child[1] = None
        return False
    child[2] = todo.pop()
    os.write(child[1], child[2].to_bytes(8, "little"))
    return True


def _serve(fn, items, task_fd: int, result_fd: int) -> None:
    """A _fork_map child's loop: run fn on each item index read from task_fd,
    until the pipe closes, and write each (True, result) or (False, exception),
    pickled and prefixed by its length, to result_fd."""
    while len(head := _read_exact(task_fd, 8)) == 8:
        try:
            message = (True, fn(items[int.from_bytes(head, "little")]))
        except Exception as exc:
            message = (False, _portable(exc))
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        data = memoryview(len(payload).to_bytes(8, "little") + payload)
        while data:
            data = data[os.write(result_fd, data):]


def _portable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a RuntimeError naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _read_exact(fd: int, n: int) -> bytes:
    """n bytes from fd, or fewer if it reaches end of file first."""
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            break
        buf += chunk
    return bytes(buf)


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when the thread that forked it ends
    (prctl PR_SET_PDEATHSIG, Linux only), and end now if `parent` is gone already."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):
        prctl = None
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
    if os.getppid() != parent:
        os._exit(1)


def _is_real(x: object) -> bool:
    """True for a real number, bool aside, that is a finite float: an integer
    past the float range is not one."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


@dataclass(frozen=True)
class SystemParams:
    """Scalar parameters of the sensor network and its channel.

    N is the spreading length (chips per symbol), Ns the number of sensors,
    P the total power budget, m the signal amplitude under either hypothesis,
    sigma_v2 the per-sensor observation noise variance, sigma_w2 the per-chip
    receiver noise variance, and p0 the prior of H0.  A caller sets p0
    alone: the prior of H1 is the property p1 = 1 - p0.
    """

    N: int
    Ns: int
    P: float
    m: float
    sigma_v2: float
    sigma_w2: float
    p0: float = 0.5

    def __post_init__(self):
        validate(self)

    @property
    def alpha(self) -> float:
        """Load ratio: sensors per chip."""
        return self.Ns / self.N

    @property
    def p1(self) -> float:
        """Prior of H1: 1 - p0."""
        return 1.0 - self.p0


def validate(params: SystemParams) -> SystemParams:
    """Check every SystemParams constraint and return params unchanged.

    Raises InvalidParam naming the first violated constraint, checked in
    declaration order.
    """
    p = params
    for name, count, what in (("N", p.N, "spreading length"), ("Ns", p.Ns, "sensor count")):
        # every route forms floats from the counts, which an integer past the float range fails
        if check_count(name, count, what) > sys.float_info.max:
            raise InvalidParam(name, count, f"{what} must not exceed the float range")
    if not _is_real(p.P) or p.P <= 0:
        raise InvalidParam("P", p.P, "total power must be finite and > 0")
    if not _is_real(p.m) or p.m <= 0:
        raise InvalidParam("m", p.m, "signal amplitude must be finite and > 0")
    if not _is_real(p.sigma_v2) or p.sigma_v2 < 0:
        raise InvalidParam("sigma_v2", p.sigma_v2, "observation noise variance must be finite and >= 0")
    if not 0.0 < p.m * p.m + p.sigma_v2 < math.inf:
        raise InvalidParam("m", p.m, "sensor observation power m^2 + sigma_v2 must be finite and > 0")
    if not _is_real(p.sigma_w2) or p.sigma_w2 <= 0:
        raise InvalidParam("sigma_w2", p.sigma_w2, "receiver noise variance must be finite and > 0")
    if not _is_real(p.p0) or not 0.0 < p.p0 < 1.0:
        raise InvalidParam("p0", p.p0, "prior must lie strictly inside (0, 1)")
    if p.p1 == 1.0:
        raise InvalidParam("p0", p.p0, "p1 = 1 - p0 rounds to 1.0; it must lie strictly inside (0, 1)")
    return params


def sensors_for_load(alpha: float, N: int) -> int:
    """Sensor count at load alpha and spreading length N.

    Rounds alpha * N half away from zero; the result must be >= 1.
    """
    check_count("N", N, "spreading length")
    if not _is_real(alpha) or alpha <= 0:
        raise InvalidParam("alpha", alpha, "load ratio must be finite and > 0")
    # an N past the float range makes the product raise rather than overflow to inf
    load = alpha * N if N <= sys.float_info.max else math.inf
    if not math.isfinite(load):
        raise InvalidParam("alpha", alpha, f"load {alpha} at N={N} gives a non-finite sensor count")
    Ns = int(math.floor(load + 0.5))
    if Ns < 1:
        raise InvalidParam("alpha", alpha, f"load {alpha} at N={N} rounds to zero sensors")
    return Ns


def amplifier_gain(params: SystemParams) -> float:
    """Per-sensor relay gain that spends the power budget exactly.

    Each sensor transmits g * z_n with E z_n^2 = m^2 + sigma_v2, so the
    network radiates Ns g^2 (m^2 + sigma_v2) = P in total.
    """
    return math.sqrt(params.P / (params.Ns * (params.m**2 + params.sigma_v2)))


def snr_groups(params: SystemParams) -> tuple[float, float, float, float]:
    """(U, c, w, s): the model's scalars in units of power U.

    U is the larger of one sensor's relayed observation noise on a chip,
    g^2 sigma_v2 = rho kappa sigma_w2 / Ns, and sigma_w2, so the covariance
    Sigma / U = c S S^T + w I has max(c, w) = 1, and s = g m / sqrt(U), so
    that r = s sqrt(q) for the form q = U qf.  None is formed from rho, which
    leaves the float range long before the answers do: kappa divides by
    m^2 + sigma_v2, which validate keeps finite and > 0, sqrt(1 - kappa) is
    1 / hypot(1, sigma_v / m), and a w below every float is the least one.
    c is squared from its root g sigma_v / sigma_w, as g^2 was from the gain:
    at the canonical point rho kappa / Ns is one rounding below that square,
    whose bits the benchmark covariances keep.
    """
    p = params
    noise = p.P * (p.sigma_v2 / (p.m**2 + p.sigma_v2)) / p.Ns
    root = math.sqrt(noise) / math.sqrt(p.sigma_w2)
    unit, c, w = (p.sigma_w2, root * root, 1.0) if root <= 1.0 else (noise, 1.0, max(p.sigma_w2 / noise, _LEAST))
    signal = math.sqrt(p.P) / math.hypot(1.0, math.sqrt(p.sigma_v2) / p.m)
    return unit, c, w, signal / math.sqrt(unit) / math.sqrt(p.Ns)


def root_snr(params: SystemParams, q: float) -> float:
    """r = m sqrt(x) = s sqrt(q) for a form q = U qf in the units of snr_groups.

    A positive root below every float is the least positive double, at which
    the tails of detector_bounds are their r -> 0 limits: r is 0 only when q is,
    which is decided before s, inf where sigma_w2 is subnormal, multiplies it.
    """
    return 0.0 if q == 0.0 else max(snr_groups(params)[3] * math.sqrt(q), _LEAST)


def log_ndtr(z: float) -> float:
    """log Phi(z), the log of the standard normal distribution function.

    Above 0 it is log1p of minus the upper tail erfc(z / sqrt 2) / 2, and from
    _SERIES_BELOW to 0 the log of Phi(z) = erfc(-z / sqrt 2) / 2.  Below that
    it is the log of the asymptotic series
    Phi(z) = phi(z) / (-z) (1 - 1/z^2 + 3/z^4 - ...), phi the normal density,
    cut after eight terms, which leaves an error under 1e-20 there; the result
    stays finite until -z^2 / 2 itself overflows.
    """
    if z > 0.0:
        return math.log1p(-0.5 * math.erfc(z / _SQRT2))
    if z > _SERIES_BELOW:
        return math.log(0.5 * math.erfc(-z / _SQRT2))
    w = 1.0 / (z * z)
    term, series = 1.0, 0.0
    for k in range(1, 9):
        term *= -(2 * k - 1) * w
        series += term
    return -0.5 * z * z - math.log(-z) - _LOG_SQRT_2PI + math.log1p(series)


@dataclass(frozen=True)
class DetectorSpec:
    """How the fusion threshold is chosen.

    criterion "bayes" minimizes the prior-weighted error probability,
    "np" pins the false-alarm probability at alpha_fa, and "fixed" uses
    the supplied tau_prime verbatim.
    """

    criterion: str = BAYES
    alpha_fa: float | None = None
    tau_prime: float | None = None

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise InvalidParam("criterion", self.criterion, f"one of {CRITERIA}")
        if self.criterion == NEYMAN_PEARSON:
            if self.alpha_fa is None or not (_is_real(self.alpha_fa) and 0.0 < self.alpha_fa < 1.0):
                raise InvalidParam("alpha_fa", self.alpha_fa, "criterion 'np' needs alpha_fa in (0, 1)")
        if self.criterion == FIXED:
            if self.tau_prime is None or not _is_real(self.tau_prime):
                raise InvalidParam("tau_prime", self.tau_prime, "criterion 'fixed' needs a finite tau_prime")


def detector_bounds(spec: DetectorSpec, params: SystemParams, r: float) -> tuple[float, float, float]:
    """(tau, a, b): the threshold of spec on a channel of root SNR r, and the
    bounds it puts on the noise of the fusion statistic.

    The statistic is the log-likelihood ratio T = 2 r (-+r + d), d ~ N(0, 1)
    under H0 and H1, and declares H1 when T >= tau.  A false alarm is d >= a
    and a miss is d < b, so pf = Q(a) and pm = Phi(b), and a >= b always.
    Bayes takes tau = log(p0 / p1), which minimizes p0 pf + p1 pm on every
    channel; fixed takes tau_prime; np pins pf at alpha_fa with
    a = Q^{-1}(alpha_fa), so its tau is 2 r (a - r), -inf at r == inf.
    At r == 0, T is identically 0 and np's tau is its limit 0; the tie rule,
    H1 when T == tau, is then a = b = -inf when tau <= 0 and +inf otherwise,
    so no route needs a branch of its own for it.
    """
    if spec.criterion == NEYMAN_PEARSON:
        if r == 0.0:
            return 0.0, -math.inf, -math.inf
        z = -_STANDARD_NORMAL.inv_cdf(spec.alpha_fa)
        return 2.0 * r * (z - r), z, z - 2.0 * r
    tau = math.log(params.p0 / params.p1) if spec.criterion == BAYES else float(spec.tau_prime)
    if r == 0.0:
        bound = -math.inf if tau <= 0.0 else math.inf
        return tau, bound, bound
    half = tau / (2.0 * r)
    return tau, half + r, half - r
