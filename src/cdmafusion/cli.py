"""Batch experiment runner emitting reproducible CSV artifacts.

Configuration is a strict JSON object; unknown keys, duplicate keys and
wrongly typed values are all rejected.  Every key is optional except that a
mode must arrive either in the config or as the command-line positional.
The keys, each at its default where it has one (the table _SCHEMA):

    {
      "schema": 1,
      "mode": "analyze" | "asymptotic" | "montecarlo" | "converge"
              | "sweep-grid" | "sweep-limits",
      "seed": 0,
      "output": "out.csv",
      "matrix_path": "signatures.csv",
      "params": {"N": 128, "alpha": 1.0, "Ns": 128, "P": 10.0, "m": 1.0,
                 "sigma_v2": 1.0, "sigma_w2": 1.0, "p0": 0.5},
      "detector": {"criterion": "bayes" | "np" | "fixed",
                   "alpha_fa": 0.05, "tau_prime": 0.0},
      "mc": {"trials": 100000, "seed": 0, "workers": 1},
      "grid": {"N": [8, 16, 32, 64, 128], "alpha": [0.5, 1.0, 2.0, 4.0],
               "seeds": 20}
    }

"params" takes either "alpha" (sensor count rounds to alpha * N) or an
explicit "Ns", not both.  "mc.seed" defaults to the top-level seed.
"grid.seeds" is the number of seeds per (N, alpha) point in sweep-grid and
per N in converge.
"matrix_path" (analyze and montecarlo only) loads the signature matrix
from CSV instead of drawing it from the seed.  "--seed" (written over
"seed" and "mc.seed"), "--trials", "--workers" and "--out" are written
over their keys before any check, so each passes its keys' checks.

Exit codes: 0 success, 1 configuration or validation error (a bad
command-line argument included), 2 runtime failure (I/O, numerical
breakdown, or any other unexpected error); each failure is reported as one
line without a traceback.  Identical config and seed give a byte-identical
output file.

"--workers" ("mc.workers") sets the size of the one worker pool a run has
(core.map_workers).  montecarlo runs its trial chunks on that many threads:
its kernel is large numpy calls, which release the interpreter lock.
sweep-grid runs its (N, alpha) grid points on that many forked processes,
handed out costliest first while the parent only coordinates: a point is
small numpy calls and Python glue, which spend most of their time under the
lock, so threads would take turns.  The other modes, sweep-limits with its closed-form cells
included, run no pool.
A sweep-grid point runs its seeds in blocks of at most 2**16 stacked
signature or covariance entries, with one batched covariance build, straight
into the buffer that is factored, and one batched Cholesky factorization
per block; each seed's signatures are drawn straight into its slice of the
block's stack.
Worker counts change wall time only.

The package computes with numpy and the standard library alone, so a run
imports no scipy.  Before any work runs, `main` sets two things in the
process, neither of which changes a number:
- numpy's bundled OpenBLAS library to one thread, so the pool is the CLI's
  only parallelism; nested BLAS threads would contend with the workers for
  the same cores, and forked workers inherit the setting;
- glibc's mmap and trim thresholds to 32 and 64 MiB (_keep_freed_heap), so
  the per-seed temporaries of a sweep stay in the heap; with the defaults
  they are returned to the kernel when freed and page-faulted in again for
  the next seed.
Importing this module, or the package, leaves BLAS threading and the
allocator as the caller set them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    asymptotic_params,
    asymptotic_performance,
    large_alpha_pe,
    single_sensor_pe,
)
from .convergence import _experiments
from .core import BAYES, CRITERIA, FIXED, NEYMAN_PEARSON, SEED_MAX, DetectorSpec, SystemParams
from .core import is_int, map_workers, seed_sequence, sensors_for_load, snr_groups
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidParam,
    InvalidSpreadingMatrix,
    NumericalFailure,
    ParseError,
)
from .exact import exact_performance, exact_report, quadratic_forms
from .montecarlo import CHUNK_TRIALS, NORMAL_SAMPLER_ID, RNG_ID, McConfig, estimate
from .spreading import GENERATOR_ID, generate, load_csv

MODES = ("analyze", "asymptotic", "montecarlo", "converge", "sweep-grid", "sweep-limits")

_CONVERGE_SEED_STREAM = 101
# sweep-grid stacks at most this many signature or covariance entries per
# block of seeds, which bounds the memory a block adds at any (N, alpha)
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description: mode, model, detector, budgets, output."""

    mode: str
    params: SystemParams
    detector: DetectorSpec
    mc: McConfig
    seed: int
    grid_N: tuple[int, ...]
    grid_alpha: tuple[float, ...]
    cell_seeds: int
    output: str | None = None
    matrix_path: str | None = None


# ---------------------------------------------------------------- parsing

# Every configuration key, by section: key -> (kind, default).  "" is the top
# level.  _value checks and converts a kind: "int", "num" (a finite number),
# "str", "object", "seed" (an integer in [0, 2**64)), "count" (an integer
# >= 1), "positive" (a finite number > 0), a tuple of the allowed values, or
# a kind suffixed "[]": a non-empty, strictly ascending list of that kind.
# An absent key takes its default.
_SCHEMA = {
    "": {
        "schema": ("int", 1), "mode": (MODES, None), "seed": ("seed", 0), "output": ("str", None),
        "matrix_path": ("str", None),
        "params": ("object", {}), "detector": ("object", {}), "mc": ("object", {}), "grid": ("object", {}),
    },
    # Ns defaults to the sensor count at load alpha
    "params": {
        "N": ("int", 128), "Ns": ("int", None), "alpha": ("num", 1.0), "P": ("num", 10.0),
        "m": ("num", 1.0), "sigma_v2": ("num", 1.0), "sigma_w2": ("num", 1.0), "p0": ("num", 0.5),
    },
    "detector": {"criterion": (CRITERIA, BAYES), "alpha_fa": ("num", None), "tau_prime": ("num", None)},
    # mc.seed defaults to the top-level seed
    "mc": {"trials": ("int", 100_000), "seed": ("seed", None), "workers": ("int", None)},
    "grid": {"N": ("count[]", (8, 16, 32, 64, 128)), "alpha": ("positive[]", (0.5, 1.0, 2.0, 4.0)),
             "seeds": ("count", 20)},
}

# command-line flag -> the (section, key) pairs it writes over
_FLAGS = {"seed": (("", "seed"), ("mc", "seed")), "trials": (("mc", "trials"),),
          "workers": (("mc", "workers"),), "out": (("", "output"),)}


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r} in configuration")
        out[key] = value
    return out


def _value(where: str, kind, val):
    """val checked against a _SCHEMA kind and converted; ParseError naming `where` otherwise."""
    if isinstance(kind, tuple):
        if val not in kind:
            raise ParseError(f"unknown {where} {val!r}, expected one of {kind}")
        return val
    if kind.endswith("[]"):
        if not isinstance(val, list) or not val:
            raise ParseError(f"{where} must be a non-empty list, got {val!r}")
        vals = tuple(_value(f"{where} entries", kind[:-2], v) for v in val)
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ParseError(f"{where} must be strictly ascending, got {list(vals)}")
        return vals
    if kind == "str" and not isinstance(val, str):
        raise ParseError(f"{where} must be a string, got {val!r}")
    if kind == "object" and not isinstance(val, dict):
        raise ParseError(f"{where} must be a JSON object, got {val!r}")
    if kind in ("str", "object"):
        return val
    if kind in ("num", "positive"):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ParseError(f"{where} must be a number, got {val!r}")
        # an integer past the float range compares as such, where float() would raise
        if not abs(val) <= sys.float_info.max:
            raise ParseError(f"{where} must be finite, got {val!r}")
        if kind == "positive" and val <= 0:
            raise ParseError(f"{where} must be > 0, got {val!r}")
        return float(val)
    if not is_int(val):
        raise ParseError(f"{where} must be an integer, got {val!r}")
    if kind == "count" and val < 1:
        raise ParseError(f"{where} must be >= 1, got {val}")
    if kind == "seed" and not 0 <= val < SEED_MAX:
        raise ParseError(f"{where} must lie in [0, 2**64), got {val}")
    return val


def _section(name: str, sec: dict) -> dict:
    """Every key of one _SCHEMA section: its checked value, or its default when absent."""
    schema = _SCHEMA[name]
    unknown = sorted(set(sec) - set(schema))
    if unknown:
        raise ParseError(f"unknown key(s) in {name or 'top level'}: {', '.join(unknown)}")
    prefix = f"{name}." if name else ""
    return {key: _value(prefix + key, kind, sec[key]) if key in sec else default
            for key, (kind, default) in schema.items()}


def parse_config(text: bytes | str, *, mode: str | None = None, flags: dict | None = None) -> ExperimentConfig:
    """Parse and validate a JSON configuration document.

    `mode`, when given, is the command-line positional; it must agree with
    the config's own "mode" key if both are present.  `flags` maps the
    command-line flags seed, trials, workers and out to their values (None,
    or an absent name, for a flag not given); each is written over its
    config keys (_FLAGS) before any check, so a flag passes its key's check.
    Raises ParseError for structural problems and InvalidParam for values
    the model rejects.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"configuration is not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    doc = _value("top level", "object", doc)
    flags = flags or {}
    for flag, targets in _FLAGS.items():
        if flags.get(flag) is not None:
            for section, key in targets:
                target = doc.setdefault(section, {}) if section else doc
                if isinstance(target, dict):  # a section that is no object fails its own check
                    target[key] = flags[flag]
    top = _section("", doc)
    if top["schema"] != 1:
        raise ParseError(f"unsupported schema {top['schema']}, expected 1")
    if mode is not None and top["mode"] is not None and mode != top["mode"]:
        raise ParseError(f"mode mismatch: command line says {mode!r}, config says {top['mode']!r}")
    mode = top["mode"] if mode is None else _value("mode", MODES, mode)
    if mode is None:
        raise ParseError("no mode: give one on the command line or as \"mode\" in the config")
    if top["matrix_path"] is not None and mode not in ("analyze", "montecarlo"):
        raise ParseError(f"matrix_path only applies to analyze and montecarlo, not {mode!r}")
    p, det, mc, grid = (_section(name, top[name]) for name in ("params", "detector", "mc", "grid"))
    alpha, Ns = p.pop("alpha"), p.pop("Ns")
    if Ns is not None and "alpha" in top["params"]:
        raise ParseError("params takes either Ns or alpha, not both")
    if det["criterion"] != NEYMAN_PEARSON and det["alpha_fa"] is not None:
        raise ParseError("detector.alpha_fa only applies to criterion 'np'")
    if det["criterion"] != FIXED and det["tau_prime"] is not None:
        raise ParseError("detector.tau_prime only applies to criterion 'fixed'")
    return ExperimentConfig(
        mode=mode,
        params=SystemParams(**p, Ns=sensors_for_load(alpha, p["N"]) if Ns is None else Ns, p1=1.0 - p["p0"]),
        detector=DetectorSpec(**det),
        mc=McConfig(mc["trials"], top["seed"] if mc["seed"] is None else mc["seed"], mc["workers"]),
        seed=top["seed"], grid_N=grid["N"], grid_alpha=grid["alpha"], cell_seeds=grid["seeds"],
        output=top["output"], matrix_path=top["matrix_path"],
    )


# ---------------------------------------------------------------- running

def _fmt(v) -> str:
    # exact-type fast paths for the common cells skip the numbers.Integral check
    if type(v) is float:
        return format(v, ".9g")
    if type(v) is int:
        return str(v)
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if is_int(v):
        return str(int(v))
    return format(float(v), ".9g")


def _derive_seed(master: int, *key: int) -> int:
    return int(seed_sequence(master, *key).generate_state(1, np.uint64)[0])


def _detector_line(det: DetectorSpec) -> str:
    if det.criterion == NEYMAN_PEARSON:
        return f"detector=np alpha_fa={_fmt(det.alpha_fa)}"
    if det.criterion == FIXED:
        return f"detector=fixed tau_prime={_fmt(det.tau_prime)}"
    return "detector=bayes"


def _base_meta(config: ExperimentConfig) -> list[str]:
    p = config.params
    return [
        f"artifact=cdmafusion-{__version__}",
        "schema=1",
        f"mode={config.mode}",
        f"P={_fmt(p.P)} m={_fmt(p.m)} sigma_v2={_fmt(p.sigma_v2)} sigma_w2={_fmt(p.sigma_w2)} "
        f"p0={_fmt(p.p0)} p1={_fmt(p.p1)}",
        _detector_line(config.detector),
        f"seed={config.seed}",
        f"spreading_generator={GENERATOR_ID}",
    ]


def _instance_meta(config: ExperimentConfig) -> list[str]:
    p = config.params
    return [f"N={p.N} Ns={p.Ns} alpha={_fmt(p.Ns / p.N)}"]


def _grid_meta(config: ExperimentConfig, alphas: bool) -> list[str]:
    lines = [f"grid_N={','.join(str(n) for n in config.grid_N)}"]
    if alphas:
        lines.append(f"grid_alpha={','.join(_fmt(a) for a in config.grid_alpha)}")
    return lines


def _signatures(config: ExperimentConfig):
    if config.matrix_path is None:
        return generate(config.params.N, config.params.Ns, config.seed)
    try:
        return load_csv(config.matrix_path)
    except OSError as exc:
        raise ParseError(f"cannot read matrix file {config.matrix_path!r}: {exc}") from None


def _run_analyze(config: ExperimentConfig):
    p = config.params
    S = _signatures(config)
    rep = exact_performance(p, S, config.detector)
    meta = _base_meta(config) + _instance_meta(config)
    if config.matrix_path is not None:
        meta.append(f"matrix_source={config.matrix_path}")
    columns = ["N", "alpha", "Ns", "seed", "tau_prime", "qf", "pf", "pm", "pe"]
    rows = [[p.N, p.Ns / p.N, p.Ns, S.seed, rep.tau_prime, rep.q / snr_groups(p)[0], rep.pf, rep.pm, rep.pe]]
    return meta, columns, rows


def _run_asymptotic(config: ExperimentConfig):
    p = config.params
    ap = asymptotic_params(p)
    rep = asymptotic_performance(p, config.detector)
    meta = _base_meta(config) + _instance_meta(config)
    columns = ["N", "alpha", "Ns", "gamma", "beta0", "mu", "tau_prime", "pf", "pm", "pe"]
    rows = [[p.N, ap.alpha, p.Ns, ap.gamma, ap.beta0, ap.mu, rep.tau_prime, rep.pf, rep.pm, rep.pe]]
    return meta, columns, rows


def _run_montecarlo(config: ExperimentConfig):
    p = config.params
    S = _signatures(config)
    est = estimate(p, S, config.detector, config.mc)
    ref = exact_report(p, est.q, config.detector)
    meta = _base_meta(config) + _instance_meta(config)
    if config.matrix_path is not None:
        meta.append(f"matrix_source={config.matrix_path}")
    meta.append(
        f"mc_trials={config.mc.trials_per_hypothesis} mc_seed={config.mc.seed} "
        f"mc_chunk={CHUNK_TRIALS} mc_rng={RNG_ID} normal_sampler={NORMAL_SAMPLER_ID}"
    )
    columns = [
        "N", "alpha", "Ns", "seed", "trials", "tau_prime",
        "pf_mc", "pm_mc", "pe_mc", "stderr_pf", "stderr_pm", "stderr_pe",
        "pf_exact", "pm_exact", "pe_exact",
    ]
    rows = [[
        p.N, p.Ns / p.N, p.Ns, S.seed, config.mc.trials_per_hypothesis, est.tau_prime,
        est.pf, est.pm, est.pe, est.mc.stderr_pf, est.mc.stderr_pm, est.mc.stderr_pe,
        ref.pf, ref.pm, ref.pe,
    ]]
    return meta, columns, rows


def _run_converge(config: ExperimentConfig):
    template = config.params
    state = seed_sequence(config.seed, _CONVERGE_SEED_STREAM).generate_state(config.cell_seeds, np.uint64)
    seeds = [int(s) for s in state]
    # one draw, two factorizations and one whitening solve per (N, seed) cell
    # feed all four statistics
    records = _experiments(template, list(config.grid_N), seeds)
    meta = _base_meta(config) + _instance_meta(config) + _grid_meta(config, alphas=False)
    meta.append(f"seeds_per_cell={config.cell_seeds}")
    columns = ["statistic", "N", "alpha", "Ns", "seed", "observed", "predicted", "abs_error", "rel_error"]
    rows = [
        [r.statistic, r.N, r.alpha, r.Ns, r.seed, r.observed, r.predicted, r.abs_error, r.rel_error]
        for r in records
    ]
    return meta, columns, rows


def _run_sweep_grid(config: ExperimentConfig):
    p = config.params
    # the parameters and the asymptotic pe depend on (N, alpha) alone, so
    # they are computed once per grid point rather than once per seed
    points = []
    for i_n, N in enumerate(config.grid_N):
        for i_a, a in enumerate(config.grid_alpha):
            pc = replace(p, N=N, Ns=sensors_for_load(a, N))
            points.append((i_n, i_a, a, pc, asymptotic_performance(pc, config.detector)))

    def point(args):
        # one grid point's seeds, in blocks that share one batched covariance build
        i_n, i_a, a, pc, asym = args
        seeds = [_derive_seed(config.seed, i_n, i_a, j) for j in range(config.cell_seeds)]
        size = max(1, _BLOCK_ENTRIES // (pc.N * max(pc.N, pc.Ns)))
        rows = []
        for start in range(0, len(seeds), size):
            block = seeds[start:start + size]
            stack = np.empty((len(block), pc.N, pc.Ns))
            for seed, out in zip(block, stack):
                generate(pc.N, pc.Ns, seed, out=out)
            qs = quadratic_forms(pc, stack)
            for seed, q in zip(block, qs):
                rep = exact_report(pc, q, config.detector)
                # |pe_exact / pe_asymptotic - 1| from the logs, which stay finite
                # after both tails underflow; a ratio past e^709 is inf, and equal
                # logs, -inf included, give 0
                gap = 0.0 if rep.log_pe == asym.log_pe else rep.log_pe - asym.log_pe
                with np.errstate(over="ignore"):
                    rel_gap = float(abs(np.expm1(gap)))
                rows.append([pc.N, a, pc.Ns, seed, rep.pe, asym.pe, rel_gap])
        return rows

    rows = [row for block in map_workers(point, points, config.mc.worker_hint, processes=True) for row in block]
    meta = _base_meta(config) + _grid_meta(config, alphas=True)
    meta.append(f"seeds_per_cell={config.cell_seeds}")
    columns = ["N", "alpha", "Ns", "seed", "pe_exact", "pe_asymptotic", "rel_gap"]
    return meta, columns, rows


def _run_sweep_limits(config: ExperimentConfig):
    p = config.params

    def cell(N, a):
        pc = replace(p, N=N, Ns=sensors_for_load(a, N))
        rep = asymptotic_performance(pc, config.detector)
        return [N, a, rep.pe, large_alpha_pe(pc), single_sensor_pe(pc)]

    rows = [cell(N, a) for N in config.grid_N for a in config.grid_alpha]
    meta = _base_meta(config) + _grid_meta(config, alphas=True)
    columns = ["N", "alpha", "pe_asymptotic", "pe_large_alpha_limit", "pe_single_sensor"]
    return meta, columns, rows


_RUNNERS = {
    "analyze": _run_analyze,
    "asymptotic": _run_asymptotic,
    "montecarlo": _run_montecarlo,
    "converge": _run_converge,
    "sweep-grid": _run_sweep_grid,
    "sweep-limits": _run_sweep_limits,
}


def _write_csv_atomic(path: str | None, meta_lines: list[str], columns: list[str], rows) -> None:
    if path is None:
        raise ParseError('no output path: set "output" in the config or pass --out')
    target = Path(path)
    buf = ["# " + line for line in meta_lines]
    buf.append(",".join(columns))
    for row in rows:
        buf.append(",".join(_fmt(v) for v in row))
    data = ("\n".join(buf) + "\n").encode("ascii")
    # O_EXCL as in tempfile.mkstemp, but mode 0o666, so the umask sets the
    # file's mode as it does for open(); mkstemp's files are always 0o600
    tmp = target.parent / f"{target.name}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(config: ExperimentConfig, *, quiet: bool = False) -> int:
    """Execute one experiment and write its CSV; returns the process exit code.

    The output file appears atomically: either the previous content stays
    intact or the complete new file replaces it.
    """
    try:
        meta, columns, rows = _RUNNERS[config.mode](config)
        _write_csv_atomic(config.output, meta, columns, rows)
    except (ParseError, InvalidParam, DomainError, InvalidSpreadingMatrix, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure is a runtime error, never a traceback
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2
    if not quiet:
        print(f"wrote {len(rows)} rows to {config.output}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a bad argument exits as a config error: code 1, one line
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cdmafusion",
        description="Detection performance of power-constrained sensor networks "
        "relaying over a shared-bandwidth channel.",
    )
    parser.add_argument("mode", nargs="?", choices=MODES, help="experiment mode (may also come from the config)")
    parser.add_argument("--config", "-c", metavar="PATH", help="JSON configuration file")
    parser.add_argument("--out", "-o", metavar="PATH", help="output CSV path (overrides config)")
    parser.add_argument("--seed", type=int, metavar="INT", help="master seed (overrides config)")
    parser.add_argument("--trials", type=int, metavar="INT", help="Monte Carlo trials per hypothesis")
    parser.add_argument("--workers", type=int, metavar="INT", help="pool workers (wall time only)")
    parser.add_argument("--quiet", "-q", action="store_true", help="suppress the success line")
    return parser


def _pin_blas_threads() -> None:
    """Set the scipy-openblas library bundled with numpy to one thread.

    numpy's copy exports the ILP64 setter (suffix "64_"); the LP64 one is
    tried as well.  Without a bundled copy, or for a library without either
    setter (a system BLAS, another build), threading is left alone.
    """
    libdir = Path(np.__file__).parent.parent / f"{np.__name__}.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process rather than returning it to the kernel.

    By default glibc serves each block above its dynamic mmap threshold
    (128 KiB at first) with a fresh mapping and trims the heap top past
    128 KiB, so the per-seed temporaries of a sweep are unmapped when freed
    and page-faulted in again for the next seed.  Both thresholds are set:
    setting either one alone switches off the dynamic threshold and leaves
    the other at its small default.  Where the C library has no mallopt,
    the allocator is left alone.
    """
    try:
        libc = ctypes.CDLL(None)  # the process's own symbols, which Windows cannot open
    except (OSError, TypeError):
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at the ceiling of glibc's dynamic threshold on 64-bit
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _pin_blas_threads()
    _keep_freed_heap()
    try:
        args = _build_parser().parse_args(argv)
        text = Path(args.config).read_bytes() if args.config is not None else b"{}"
        config = parse_config(text, mode=args.mode, flags=vars(args))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except (ParseError, InvalidParam, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config, quiet=args.quiet)
