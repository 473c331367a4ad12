"""The benchmark's workloads: one CLI config each, made from the workload seed.

Every workload runs at the README's canonical parameter point.  The full
sizes make one CLI invocation take a few seconds on a 2-core machine; the
smoke sizes only check that the benchmark runs and emits every metric.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

CANONICAL = {"P": 10.0, "m": 1.0, "sigma_v2": 1.0, "sigma_w2": 1.0, "p0": 0.5}
WORKERS = min(2, len(os.sched_getaffinity(0)))  # never more pool threads than cores

GRID_N = (8, 16, 32, 64, 128)
GRID_ALPHA = (0.5, 1.0, 2.0, 4.0)
CONVERGE_N = (16, 32, 64, 128, 256)


@dataclass(frozen=True)
class Workload:
    """One CLI config plus what the benchmark needs to judge its output.

    items is the unit of work of items_per_s: grid cells, Monte Carlo
    trials summed over both hypotheses, or converge (N, seed) cells.
    workers is the CLI worker count, None where the mode runs no pool.
    """

    name: str
    config: dict
    items: int
    workers: int | None


def _grid(seed: int, smoke: bool) -> Workload:
    grid_N, grid_alpha, seeds = ((8, 128), (0.5, 1.0), 2) if smoke else (GRID_N, GRID_ALPHA, 60)
    config = {
        "schema": 1,
        "mode": "sweep-grid",
        "seed": seed,
        "params": {"N": 128, "alpha": 1.0, **CANONICAL},
        "detector": {"criterion": "bayes"},
        "mc": {"workers": WORKERS},
        "grid": {"N": list(grid_N), "alpha": list(grid_alpha), "seeds": seeds},
    }
    return Workload("grid", config, len(grid_N) * len(grid_alpha) * seeds, WORKERS)


def _montecarlo(seed: int, smoke: bool) -> Workload:
    N, Ns, trials = (16, 32, 20_000) if smoke else (64, 128, 400_000)
    config = {
        "schema": 1,
        "mode": "montecarlo",
        "seed": seed,
        "params": {"N": N, "Ns": Ns, **CANONICAL},
        "detector": {"criterion": "bayes"},
        "mc": {"trials": trials, "workers": WORKERS},
    }
    return Workload("montecarlo", config, 2 * trials, WORKERS)


def _converge(seed: int, smoke: bool) -> Workload:
    grid_N, seeds = ((16, 32), 2) if smoke else (CONVERGE_N, 16)
    config = {
        "schema": 1,
        "mode": "converge",
        "seed": seed,
        "params": {"N": 128, "alpha": 2.0, **CANONICAL},
        "grid": {"N": list(grid_N), "seeds": seeds},
    }
    return Workload("converge", config, len(grid_N) * seeds, None)


BUILDERS = {"grid": _grid, "montecarlo": _montecarlo, "converge": _converge}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, smoke)
