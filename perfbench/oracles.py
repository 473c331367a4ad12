"""Independent checks of the CLI's CSV output.

Nothing here calls the cdmafusion package.  Signature matrices are redrawn
from the documented stream (one Philox double per entry, sensor-major, sign
by `< 0.5`), the exact route is recomputed with a dense `np.linalg.solve` and
`scipy.special.ndtr`, and the large-system route with `numpy.roots` on the
beta0 quadratic.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import math
import random

import numpy as np
from scipy.special import ndtr

GRID_SAMPLES_PER_CELL = 3
REL_TOL = 1e-7  # the CSV prints 9 significant digits
ROUNDING_LEVEL = 1e-10
MC_SIGMAS = 5.0


def read_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return columns, [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


def _close(got: float, want: float, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * abs(want)


def _signatures(N: int, Ns: int, seed: int) -> np.ndarray:
    draws = np.random.Generator(np.random.Philox(key=seed)).random(size=(Ns, N))
    return np.where(draws < 0.5, -1.0, 1.0).T / math.sqrt(N)


def _gain(p: dict, Ns: int) -> float:
    return math.sqrt(p["P"] / (Ns * (p["m"] ** 2 + p["sigma_v2"])))


def _tails(p: dict, snr_shift: float, scale: float) -> float:
    tau = math.log(p["p0"] / (1.0 - p["p0"]))  # Bayes threshold
    if scale == 0.0:
        # the signature columns sum to zero, so the statistic is identically 0
        # and a tie (T == tau) decides the alternative
        pf, pm = (1.0, 0.0) if tau <= 0.0 else (0.0, 1.0)
    else:
        pf = float(ndtr(-(tau + snr_shift) / scale))
        pm = float(ndtr(-(snr_shift - tau) / scale))
    return p["p0"] * pf + (1.0 - p["p0"]) * pm


def exact_pe(p: dict, N: int, Ns: int, seed: int) -> float:
    """Bayes error probability for one drawn signature matrix, by dense solve."""
    S = _signatures(N, Ns, seed)
    g = _gain(p, Ns)
    cov = g * g * p["sigma_v2"] * (S @ S.T) + p["sigma_w2"] * np.eye(N)
    s1 = S.sum(axis=1)
    qf = float(s1 @ np.linalg.solve(cov, s1))
    m = p["m"]
    return _tails(p, 2.0 * g * g * m * m * qf, 2.0 * g * m * math.sqrt(qf))


def beta0_mu(p: dict, N: int, Ns: int) -> tuple[float, float]:
    """Positive root of the beta0 fixed-point quadratic, and the limit mu."""
    alpha = Ns / N
    gamma = (p["P"] / N) * p["sigma_v2"] / (p["m"] ** 2 + p["sigma_v2"])
    roots = np.roots([gamma * p["sigma_w2"], alpha * (gamma + p["sigma_w2"]) - gamma, -alpha])
    beta0 = float(max(r.real for r in roots if abs(r.imag) == 0.0))
    mu = p["sigma_v2"] / Ns + (p["m"] ** 2 + p["sigma_v2"]) / (p["P"] * beta0)
    return beta0, mu


def asymptotic_pe(p: dict, N: int, Ns: int) -> float:
    _, mu = beta0_mu(p, N, Ns)
    m = p["m"]
    return _tails(p, 2.0 * m * m / mu, 2.0 * m / math.sqrt(mu))


def sensors_for_load(alpha: float, N: int) -> int:
    return int(math.floor(alpha * N + 0.5))


def check_grid(text: str, config: dict) -> list[str]:
    p, grid, seed = config["params"], config["grid"], config["seed"]
    _, rows = read_csv(text)
    keys = [
        (i_n, N, i_a, a, j)
        for i_n, N in enumerate(grid["N"])
        for i_a, a in enumerate(grid["alpha"])
        for j in range(grid["seeds"])
    ]
    if len(rows) != len(keys):
        return [f"grid: {len(rows)} rows, expected {len(keys)}"]
    problems = []
    pick = random.Random(seed)
    sampled = set()
    for start in range(0, len(keys), grid["seeds"]):
        sampled.update(pick.sample(range(start, start + grid["seeds"]),
                                   min(GRID_SAMPLES_PER_CELL, grid["seeds"])))
    asym = {}
    for idx, ((i_n, N, i_a, a, j), row) in enumerate(zip(keys, rows)):
        Ns = sensors_for_load(a, N)
        cell_seed = int(np.random.SeedSequence(entropy=seed, spawn_key=(i_n, i_a, j))
                        .generate_state(1, np.uint64)[0])
        if (int(row["N"]), float(row["alpha"]), int(row["Ns"]), int(row["seed"])) != (N, a, Ns, cell_seed):
            problems.append(f"grid row {idx}: key {row} is not (N={N}, alpha={a}, Ns={Ns}, seed={cell_seed})")
            continue
        if (N, Ns) not in asym:
            asym[(N, Ns)] = asymptotic_pe(p, N, Ns)
        pe_asym = float(row["pe_asymptotic"])
        if not _close(pe_asym, asym[(N, Ns)]):
            problems.append(f"grid row {idx}: pe_asymptotic {pe_asym!r}, oracle {asym[(N, Ns)]!r}")
        if idx in sampled:
            want = exact_pe(p, N, Ns, cell_seed)
            pe_exact = float(row["pe_exact"])
            if not _close(pe_exact, want):
                problems.append(f"grid row {idx}: pe_exact {pe_exact!r}, oracle {want!r}")
            gap = abs(want - asym[(N, Ns)]) / asym[(N, Ns)]
            if not abs(float(row["rel_gap"]) - gap) <= 1e-9 + REL_TOL * gap:
                problems.append(f"grid row {idx}: rel_gap {row['rel_gap']}, oracle {gap!r}")
    return problems


def check_montecarlo(text: str, config: dict) -> list[str]:
    p, seed = config["params"], config["seed"]
    _, rows = read_csv(text)
    if len(rows) != 1:
        return [f"montecarlo: {len(rows)} rows, expected 1"]
    row = {k: float(v) for k, v in rows[0].items()}
    problems = []
    want = exact_pe(p, p["N"], p["Ns"], seed)
    if not _close(row["pe_exact"], want):
        problems.append(f"montecarlo: pe_exact {row['pe_exact']!r}, oracle {want!r}")
    if not row["stderr_pe"] > 0.0:
        problems.append(f"montecarlo: stderr_pe {row['stderr_pe']!r} is not positive")
    if not abs(row["pe_mc"] - row["pe_exact"]) <= MC_SIGMAS * row["stderr_pe"]:
        problems.append(
            f"montecarlo: |pe_mc - pe_exact| = {abs(row['pe_mc'] - row['pe_exact'])!r} "
            f"exceeds {MC_SIGMAS} * stderr_pe = {MC_SIGMAS * row['stderr_pe']!r}"
        )
    if int(row["trials"]) != config["mc"]["trials"]:
        problems.append(f"montecarlo: trials {row['trials']!r}, expected {config['mc']['trials']}")
    return problems


_CONVERGE_STATISTICS = ("snr", "decomposition_residual", "diag_leave_out", "diag_full",
                        "cross_mean", "mil_residual")


def check_converge(text: str, config: dict) -> list[str]:
    p, grid = config["params"], config["grid"]
    alpha = p["alpha"]
    _, rows = read_csv(text)
    expected = len(_CONVERGE_STATISTICS) * len(grid["N"]) * grid["seeds"]
    if len(rows) != expected:
        return [f"converge: {len(rows)} rows, expected {expected}"]
    problems = []
    limits = {N: beta0_mu(p, N, sensors_for_load(alpha, N)) for N in grid["N"]}
    seen = {}
    for idx, row in enumerate(rows):
        stat, N = row["statistic"], int(row["N"])
        if stat not in _CONVERGE_STATISTICS or N not in limits:
            problems.append(f"converge row {idx}: unexpected statistic {stat!r} at N={N}")
            continue
        seen[(stat, N)] = seen.get((stat, N), 0) + 1
        observed, predicted = float(row["observed"]), float(row["predicted"])
        beta0, mu = limits[N]
        Ns = sensors_for_load(alpha, N)
        g = _gain(p, Ns)
        if stat in ("decomposition_residual", "mil_residual") and not 0.0 <= observed <= ROUNDING_LEVEL:
            problems.append(f"converge row {idx}: {stat} {observed!r} above rounding level {ROUNDING_LEVEL}")
        want = {
            "snr": 1.0 / mu,
            "diag_leave_out": beta0,
            "diag_full": beta0 / (1.0 + g * g * p["sigma_v2"] * beta0),
        }.get(stat, 0.0)
        if not _close(predicted, want):
            problems.append(f"converge row {idx}: {stat} predicted {predicted!r}, oracle {want!r}")
    if any(count != grid["seeds"] for count in seen.values()) or len(seen) != len(limits) * len(_CONVERGE_STATISTICS):
        problems.append(f"converge: rows per (statistic, N) are {seen}, expected {grid['seeds']} each")
    return problems


CHECKS = {"grid": check_grid, "montecarlo": check_montecarlo, "converge": check_converge}
