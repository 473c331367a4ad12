"""Config parsing, CSV artifacts, exit codes, reproducibility of the runner."""

import ctypes
import hashlib
import inspect
import json
import math
import os
import statistics
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import mpmath
import numpy as np
import numpy._core._multiarray_umath as np_cpu
import pytest

import cdmafusion
from cdmafusion import DomainError, InvalidParam, ParseError, cli, convergence, exact
from cdmafusion.cli import main, parse_config
from cdmafusion.core import CRITERIA
from cdmafusion.spreading import generate, save_csv
from conftest import assert_no_child

SRC = Path(__file__).resolve().parents[1] / "src"
# a JSON integer of 401 digits: past the float range, within the interpreter's digit limit
HUGE = "1" + "0" * 400


def read_csv(path):
    """Split an artifact into (meta lines, header columns, data rows)."""
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def mp_rel_gap(p, N, Ns, seed):
    """|pe_exact / pe_asymptotic - 1| of the zero-threshold detector at 50 digits.

    Both pe come from mp_root_snr2 and mp_tails, so no double-precision
    tail, solve or formula of the package is used.
    """
    zero = {"criterion": "fixed", "tau_prime": 0.0}
    exact, limit = (mp_tails(p, mp_root_snr2(p, N, Ns, s), zero)[3] for s in (seed, None))
    with mpmath.workdps(50):
        return float(abs(exact / limit - 1))


# the model's parameters where a config leaves them out
DEFAULTS = {"P": 10.0, "m": 1.0, "sigma_v2": 1.0, "sigma_w2": 1.0, "p0": 0.5}


def mp_root_snr2(p, N, Ns, seed=None):
    """r^2 = m^2 x at 800 digits: exact for generate(N, Ns, seed), or the large-system
    limit for seed None, from the physical covariance and the textbook beta0 root.

    The digits cover covariances whose condition number is past 1e300.
    """
    p = dict(DEFAULTS, **p)
    with mpmath.workdps(800):
        P, m, sv, sw = (mpmath.mpf(p[k]) for k in ("P", "m", "sigma_v2", "sigma_w2"))
        g2 = P / (Ns * (m**2 + sv))
        if seed is not None:
            S = mpmath.matrix(generate(N, Ns, seed).entries.tolist())
            s1 = S * mpmath.matrix([1] * Ns)
            return +(m**2 * g2 * (s1.T * mpmath.lu_solve(g2 * sv * S * S.T + sw * mpmath.eye(N), s1))[0])
        gamma, alpha = (P / N) * sv / (m**2 + sv), mpmath.mpf(Ns) / N
        a, b = gamma * sw, alpha * (gamma + sw) - gamma
        root = mpmath.sqrt(b**2 + 4 * a * alpha)
        beta0 = 2 * alpha / (b + root) if b >= 0 else (root - b) / (2 * a)
        return +(m**2 / (sv / Ns + (m**2 + sv) / (P * beta0)))


def mp_tails(p, r2, detector=None):
    """(tau, pf, pm, pe) of the detector at root SNR sqrt(r2), at 50 digits; pf and
    pm come from their logs, which stay exact where the tails leave the float range."""
    p0 = mpmath.mpf(dict(DEFAULTS, **p)["p0"])
    detector = detector or {"criterion": "bayes"}
    with mpmath.workdps(50):
        r = mpmath.sqrt(r2)

        def log_q(x):
            if x > 1e8:  # the asymptotic series of the tail
                return -x * x / 2 - mpmath.log(x * mpmath.sqrt(2 * mpmath.pi)) + mpmath.log1p(-1 / x**2 + 3 / x**4)
            return mpmath.log(mpmath.erfc(x / mpmath.sqrt(2)) / 2)

        if detector["criterion"] == "np":
            z = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(detector["alpha_fa"]))
            tau = 2 * r * z - 2 * r * r
            log_pf, log_pm = mpmath.log(detector["alpha_fa"]), log_q(2 * r - z)
        else:
            tau = mpmath.log(p0 / (1 - p0)) if detector["criterion"] == "bayes" else mpmath.mpf(detector["tau_prime"])
            log_pf, log_pm = log_q(r + tau / (2 * r)), log_q(r - tau / (2 * r))
        pf, pm = mpmath.exp(log_pf), mpmath.exp(log_pm)
        return tau, pf, pm, p0 * pf + (1 - p0) * pm


def close9(cell, want):
    """A CSV cell, printed to 9 significant digits, against its 50-digit value."""
    return float(cell) == pytest.approx(float(want), rel=1e-8, abs=1e-300)


def config_file(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config("{}", mode="analyze")
        assert cfg.mode == "analyze"
        assert (cfg.params.N, cfg.params.Ns) == (128, 128)
        assert cfg.seed == 0
        assert cfg.mc.trials_per_hypothesis == 100_000
        assert cfg.mc.seed == 0
        assert cfg.grid_N == (8, 16, 32, 64, 128)
        assert cfg.grid_alpha == (0.5, 1.0, 2.0, 4.0)
        assert cfg.cell_seeds == 20

    def test_mode_from_config(self):
        assert parse_config('{"mode": "asymptotic"}').mode == "asymptotic"

    def test_mode_agreement(self):
        assert parse_config('{"mode": "analyze"}', mode="analyze").mode == "analyze"
        with pytest.raises(ParseError, match="mode mismatch"):
            parse_config('{"mode": "analyze"}', mode="converge")

    def test_mode_required(self):
        with pytest.raises(ParseError, match="no mode"):
            parse_config("{}")

    def test_unknown_mode(self):
        with pytest.raises(ParseError, match="unknown mode"):
            parse_config('{"mode": "frobnicate"}')
        # the argument passes the same check as the key: argparse guards only the CLI
        with pytest.raises(ParseError, match="unknown mode 'bogus'"):
            parse_config("{}", mode="bogus")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config('{"seed": 1, "seed": 2}', mode="analyze")

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ('{"bogus": 1}', "unknown key"),
            ('{"params": {"bogus": 1}}', "unknown key"),
            ('{"detector": {"bogus": 1}}', "unknown key"),
            ('{"mc": {"bogus": 1}}', "unknown key"),
            ('{"grid": {"bogus": 1}}', "unknown key"),
            ('{"schema": 2}', "unsupported schema"),
            ('{"seed": -1}', "seed"),
            ('{"seed": 1.5}', "integer"),
            ('{"seed": true}', "integer"),
            ('{"params": {"N": 1.5}}', "integer"),
            ('{"params": {"P": "ten"}}', "number"),
            ('{"params": {"P": true}}', "number"),
            ('{"params": {"Ns": 4, "alpha": 1.0}}', "not both"),
            ('{"detector": {"criterion": "minimax"}}', "criterion"),
            ('{"detector": {"alpha_fa": 0.1}}', "alpha_fa"),
            ('{"detector": {"criterion": "fixed", "tau_prime": 0.0, "alpha_fa": 0.1}}', "alpha_fa"),
            ('{"detector": {"criterion": "np", "alpha_fa": 0.1, "tau_prime": 0.0}}', "tau_prime"),
            ('{"grid": {"N": []}}', "non-empty"),
            ('{"grid": {"N": [8, 8]}}', "ascending"),
            ('{"grid": {"N": [16, 8]}}', "ascending"),
            ('{"grid": {"N": [8.5]}}', "integer"),
            ('{"grid": {"alpha": [1.0, 0.5]}}', "ascending"),
            ('{"grid": {"alpha": [-1.0]}}', "> 0"),
            ('{"grid": {"seeds": 0}}', "seeds"),
            ('{"params": 3}', "object"),
            ("[1, 2]", "object"),
            ('{"params": {"P": %s}}' % HUGE, "params.P must be finite"),
            ('{"grid": {"alpha": [1.0, %s]}}' % HUGE, "grid.alpha entries must be finite"),
            ('{"mc": {"seed": 18446744073709551616}}', "mc.seed must lie in"),
            ('{"seed": 1%s}' % ("0" * 5000), "invalid JSON"),
        ],
    )
    def test_rejections(self, doc, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_config(doc, mode="analyze")

    def test_matrix_path_mode_restriction(self):
        parse_config('{"matrix_path": "m.csv"}', mode="analyze")
        parse_config('{"matrix_path": "m.csv"}', mode="montecarlo")
        with pytest.raises(ParseError, match="matrix_path"):
            parse_config('{"matrix_path": "m.csv"}', mode="converge")

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_config('{\n  "seed": }', mode="analyze")

    def test_invalid_utf8(self):
        with pytest.raises(ParseError, match="UTF-8"):
            parse_config(b'\xff\xfe{"mode": "analyze"}')

    def test_alpha_rounds_sensor_count(self):
        cfg = parse_config('{"params": {"N": 10, "alpha": 0.25}}', mode="analyze")
        assert cfg.params.Ns == 3  # 2.5 rounds half away from zero

    def test_priors_derived(self):
        cfg = parse_config('{"params": {"p0": 0.7}}', mode="analyze")
        assert cfg.params.p1 == pytest.approx(0.3, abs=1e-15)

    def test_mc_seed_defaults_to_master(self):
        cfg = parse_config('{"seed": 77}', mode="montecarlo")
        assert cfg.mc.seed == 77
        cfg2 = parse_config('{"seed": 77, "mc": {"seed": 5}}', mode="montecarlo")
        assert cfg2.mc.seed == 5

    def test_invalid_model_value_raises_invalid_param(self):
        with pytest.raises(InvalidParam):
            parse_config('{"params": {"P": -3.0}}', mode="analyze")

    def test_spreading_length_past_the_float_range_is_invalid_param(self):
        # the sensor count alpha * N is not a float there
        with pytest.raises(InvalidParam, match="non-finite sensor count"):
            parse_config('{"params": {"N": %s}}' % HUGE, mode="analyze")

    def test_flags_write_over_their_keys(self):
        doc = '{"seed": 3, "output": "a.csv", "mc": {"seed": 4, "trials": 10, "workers": 1}}'
        cfg = parse_config(doc, mode="montecarlo", flags={"seed": 7, "trials": 20, "workers": 2, "out": "b.csv"})
        assert (cfg.seed, cfg.mc.seed, cfg.mc.trials_per_hypothesis, cfg.mc.worker_hint, cfg.output) == (
            7, 7, 20, 2, "b.csv")
        # a flag that is None, or absent, leaves its key alone
        cfg = parse_config(doc, mode="montecarlo", flags={"seed": None, "quiet": True})
        assert (cfg.seed, cfg.mc.seed, cfg.output) == (3, 4, "a.csv")

    def test_flags_pass_their_keys_checks(self):
        for seed in (-3, 2**64):
            with pytest.raises(ParseError, match=r"^seed must lie in \[0, 2\*\*64\)"):
                parse_config("{}", mode="analyze", flags={"seed": seed})
        with pytest.raises(ParseError, match="mc.trials must be an integer"):
            parse_config("{}", mode="montecarlo", flags={"trials": 1.5})
        with pytest.raises(InvalidParam, match="trials per hypothesis"):
            parse_config("{}", mode="montecarlo", flags={"trials": 0})
        with pytest.raises(InvalidParam, match="worker hint"):
            parse_config("{}", mode="montecarlo", flags={"workers": -1})
        # the flag is written before the check, so it replaces a bad config seed
        assert parse_config('{"seed": -1}', mode="analyze", flags={"seed": 5}).seed == 5


# JSON values of every type: bools, nulls, strings and the mode and criterion
# names, integers past the seed and float ranges, +-1e308, non-finite floats,
# and nested lists and objects
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**66), 2**66),
        st.sampled_from([10**400, -(10**400), 2**1024, 2**64, 1e308, -1e308, 1e-310, 0, 0.0]),
        st.floats(),
        st.text(max_size=4),
        st.sampled_from(cli.MODES + CRITERIA),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
# values of the JSON type each _SCHEMA kind takes, mostly inside its range,
# with the edges of the range and integers past the float range
_EDGES = st.sampled_from([0, -1, 2**64, 10**400, -(10**400), 0.0, -1.0, 1e308, -1e308, 1e-310])
_TYPED = {
    "int": st.integers(-1, 300) | _EDGES,
    "num": st.floats(1e-3, 1e3) | _EDGES,
    "str": st.text(max_size=4),
    "seed": st.integers(0, 2**64 - 1) | _EDGES,
    "count": st.integers(1, 64) | _EDGES,
    "positive": st.floats(1e-3, 8.0) | _EDGES,
}


def _values(kind, default):
    """Values for a key of this kind: mostly of its type, or its default."""
    if isinstance(kind, tuple):
        typed = st.sampled_from(kind)
    elif kind.endswith("[]"):
        typed = st.lists(_TYPED[kind[:-2]], min_size=1, max_size=3, unique=True).map(sorted)
    else:
        typed = _TYPED[kind]
    return _mostly(typed if default is None else typed | st.just(default))


def _mostly(typed):
    """Three draws in four from typed, the rest any JSON value."""
    return _pick([typed] * 3 + [_JSON_VALUES])


def _pick(strategies):
    """A draw from one of the strategies, each entry equally likely."""
    return st.sampled_from(strategies).flatmap(lambda chosen: chosen)


def _objects(name):
    """Objects over one _SCHEMA section's keys, nested sections drawn alike; one in
    five also carries an unknown key."""
    keys = {key: _mostly(_objects(key)) if kind == "object" else _values(kind, default)
            for key, (kind, default) in cli._SCHEMA[name].items()}
    known = st.fixed_dictionaries({}, optional=keys)
    return _pick([known] * 4 + [st.fixed_dictionaries({"bogus": _JSON_VALUES}, optional=keys)])


_FLAGS = st.fixed_dictionaries({}, optional={
    "seed": st.integers(-1, 2**65), "trials": st.integers(-1, 10**6),
    "workers": st.integers(-1, 8), "out": st.text(max_size=4),
})


class TestParseConfigProperty:
    @hypothesis.seed(20261019)
    @hypothesis.settings(max_examples=1000, deadline=None, database=None)
    @hypothesis.given(doc=_objects(""), mode=st.sampled_from(cli.MODES) | st.none(), flags=_FLAGS)
    def test_every_document_parses_or_fails_as_a_config_error(self, doc, mode, flags):
        try:
            cfg = parse_config(json.dumps(doc), mode=mode, flags=flags)
        except (ParseError, InvalidParam, DomainError):
            return
        assert isinstance(cfg, cli.ExperimentConfig)


class TestRunnerModes:
    def run_main(self, argv):
        return main(argv)

    def test_analyze_artifact(self, tmp_path):
        cfg = config_file(
            tmp_path,
            {"mode": "analyze", "seed": 3, "params": {"N": 16, "Ns": 16},
             "output": str(tmp_path / "a.csv")},
        )
        assert self.run_main(["--config", cfg, "--quiet"]) == 0
        meta, header, rows = read_csv(tmp_path / "a.csv")
        assert header == ["N", "alpha", "Ns", "seed", "tau_prime", "qf", "pf", "pm", "pe"]
        assert len(rows) == 1
        assert rows[0][0] == "16" and rows[0][3] == "3"
        assert any(line.startswith("artifact=cdmafusion-") for line in meta)
        assert any("spreading_generator=philox4x64-colmajor-v1" in line for line in meta)
        pf, pm, pe = map(float, rows[0][6:9])
        assert pe == pytest.approx(0.5 * pf + 0.5 * pm, abs=1e-9)

    def test_analyze_matches_library(self, tmp_path):
        from cdmafusion import DetectorSpec, SystemParams, exact_performance

        out = tmp_path / "a.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "analyze", "seed": 9, "params": {"N": 12, "Ns": 7}, "output": str(out)},
        )
        assert self.run_main(["--config", cfg, "--quiet"]) == 0
        _, _, rows = read_csv(out)
        p = SystemParams(N=12, Ns=7, P=10.0, m=1.0, sigma_v2=1.0, sigma_w2=1.0)
        rep = exact_performance(p, generate(12, 7, 9), DetectorSpec())
        assert float(rows[0][8]) == pytest.approx(rep.pe, rel=1e-8)

    def test_asymptotic_reference_row(self, tmp_path):
        out = tmp_path / "asy.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "asymptotic", "params": {"N": 10, "Ns": 10}, "output": str(out)},
        )
        assert self.run_main(["--config", cfg, "--quiet"]) == 0
        _, header, rows = read_csv(out)
        assert header == ["N", "alpha", "Ns", "gamma", "beta0", "mu", "tau_prime", "pf", "pm", "pe"]
        assert rows[0][:4] == ["10", "1", "10", "0.5"]
        assert rows[0][4] == "0.732050808"
        assert rows[0][5] == "0.373205081"
        assert rows[0][9] == "0.0508240771"

    def test_montecarlo_artifact(self, tmp_path):
        out = tmp_path / "mc.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "montecarlo", "seed": 5, "params": {"N": 8, "Ns": 8},
             "mc": {"trials": 4000}, "output": str(out)},
        )
        assert self.run_main(["--config", cfg, "--quiet"]) == 0
        meta, header, rows = read_csv(out)
        assert header[:6] == ["N", "alpha", "Ns", "seed", "trials", "tau_prime"]
        assert header[6:] == [
            "pf_mc", "pm_mc", "pe_mc", "stderr_pf", "stderr_pm", "stderr_pe",
            "pf_exact", "pm_exact", "pe_exact",
        ]
        assert rows[0][4] == "4000"
        assert any("mc_rng=sfc64-seedseq-chunk16384-shared-v3" in line for line in meta)
        assert any("normal_sampler=box-muller-f64log-f32trig-v1" in line for line in meta)
        # worker hints must never appear in the artifact
        assert not any("worker" in line for line in meta)
        pf_mc, pf_exact = float(rows[0][6]), float(rows[0][12])
        assert abs(pf_mc - pf_exact) <= 5 * max(float(rows[0][9]), 1e-12)

    def test_converge_row_count(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "converge", "seed": 1, "params": {"N": 8, "alpha": 1.0},
             "grid": {"N": [8, 16], "seeds": 3}, "output": str(out)},
        )
        assert self.run_main(["--config", cfg, "--quiet"]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["statistic", "N", "alpha", "Ns", "seed", "observed",
                          "predicted", "abs_error", "rel_error"]
        # six records per (N, seed) cell: snr, decomposition_residual,
        # diag_leave_out, diag_full, cross_mean, mil_residual
        assert len(rows) == 2 * 3 * 6
        assert any("seeds_per_cell=3" in line for line in meta)
        stats = {r[0] for r in rows}
        assert stats == {"snr", "decomposition_residual", "diag_leave_out",
                         "diag_full", "cross_mean", "mil_residual"}
        # mil rows have no defined relative error
        mil = [r for r in rows if r[0] == "mil_residual"]
        assert all(r[8] == "nan" for r in mil)

    def test_sweep_limits_artifact(self, tmp_path):
        out = tmp_path / "lim.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "sweep-limits", "grid": {"N": [8, 16], "alpha": [0.5, 1.0]},
             "output": str(out)},
        )
        assert self.run_main(["--config", cfg, "--quiet"]) == 0
        _, header, rows = read_csv(out)
        assert header == ["N", "alpha", "pe_asymptotic", "pe_large_alpha_limit", "pe_single_sensor"]
        assert len(rows) == 4
        for r in rows:
            assert float(r[3]) < float(r[4])  # floor beats one sensor here

    def test_sweep_grid_artifact(self, tmp_path):
        out = tmp_path / "grid.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "sweep-grid", "seed": 2,
             "grid": {"N": [8, 16], "alpha": [1.0, 2.0], "seeds": 3},
             "output": str(out)},
        )
        assert self.run_main(["--config", cfg, "--quiet"]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["N", "alpha", "Ns", "seed", "pe_exact", "pe_asymptotic", "rel_gap"]
        assert len(rows) == 2 * 2 * 3
        assert any("seeds_per_cell=3" in line for line in meta)
        # per-cell seeds differ and are derived deterministically
        seeds = {r[3] for r in rows}
        assert len(seeds) == len(rows)
        for r in rows:
            gap = abs(float(r[4]) - float(r[5])) / float(r[5])
            assert float(r[6]) == pytest.approx(gap, rel=1e-6)


class TestArtifactFormat:
    # expected strings frozen from the formatter before its exact-type fast paths
    @pytest.mark.parametrize("value, text", [
        (0.1, "0.1"), (1.0, "1"), (-0.0, "-0"), (1e-300, "1e-300"), (1.7e308, "1.7e+308"),
        (2.0 / 3.0, "0.666666667"), (123456789.5, "123456790"),
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
        (np.float64(0.1), "0.1"), (np.float64(-2.5e-12), "-2.5e-12"), (np.float32(0.1), "0.100000001"),
        (0, "0"), (3, "3"), (-7, "-7"), (2**70, "1180591620717411303424"),
        (np.int64(5), "5"), (np.uint64(2**64 - 1), "18446744073709551615"), (np.int32(-4), "-4"),
        (True, "1"), (False, "0"), (np.True_, "1"),
        (None, ""), ("", ""), ("snr", "snr"),
    ])
    def test_fmt(self, value, text):
        assert cli._fmt(value) == text

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=["022", "002", "077"])
    def test_file_mode_is_that_of_open(self, tmp_path, umask):
        # 0o666 less the umask, and no temporary file left beside it
        out = tmp_path / "a.csv"
        old = os.umask(umask)
        try:
            assert main(["analyze", "--out", str(out), "--quiet"]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            assert cdmafusion.__version__ == tomllib.load(fh)["project"]["version"]


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        doc = {"mode": "sweep-grid", "seed": 11,
               "grid": {"N": [8, 16], "alpha": [0.5, 1.0], "seeds": 4}}
        cfg = config_file(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["--config", cfg, "--out", str(b), "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_invisible(self, tmp_path):
        doc = {"mode": "sweep-grid", "seed": 11,
               "grid": {"N": [8, 16], "alpha": [0.5, 1.0], "seeds": 4}}
        cfg = config_file(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["--config", cfg, "--out", str(b), "--workers", "4", "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_montecarlo_worker_invariance(self, tmp_path):
        doc = {"mode": "montecarlo", "seed": 4, "params": {"N": 8, "Ns": 8},
               "mc": {"trials": 40000}}
        cfg = config_file(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["--config", cfg, "--out", str(b), "--workers", "4", "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_everything(self, tmp_path):
        doc = {"mode": "montecarlo", "params": {"N": 8, "Ns": 8}, "mc": {"trials": 2000}}
        cfg = config_file(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", cfg, "--out", str(a), "--seed", "1", "--quiet"]) == 0
        assert main(["--config", cfg, "--out", str(b), "--seed", "2", "--quiet"]) == 0
        ra = read_csv(a)[2][0]
        rb = read_csv(b)[2][0]
        assert ra[3] != rb[3]  # spreading seed
        assert ra[6] != rb[6]  # simulated pf

    def test_no_mode_without_config(self):
        assert main(["--quiet"]) == 1


class TestMatrixPath:
    def test_roundtrip(self, tmp_path):
        S = generate(8, 8, seed=123)
        mat = tmp_path / "sigs.csv"
        save_csv(S, mat)
        out = tmp_path / "a.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "analyze", "params": {"N": 8, "Ns": 8},
             "matrix_path": str(mat), "output": str(out)},
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        meta, _, rows = read_csv(out)
        assert any(f"matrix_source={mat}" in line for line in meta)
        assert rows[0][3] == "123"  # seed restored from the matrix header

    def test_headerless_matrix_empty_seed(self, tmp_path):
        mat = tmp_path / "sigs.csv"
        scale = 1.0 / math.sqrt(2.0)
        mat.write_text(f"{scale:.17g},{scale:.17g}\n{scale:.17g},-{scale:.17g}\n")
        out = tmp_path / "a.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "analyze", "params": {"N": 2, "Ns": 2},
             "matrix_path": str(mat), "output": str(out)},
        )
        assert main(["--config", cfg, "--quiet"]) == 0
        _, _, rows = read_csv(out)
        assert rows[0][3] == ""

    def test_dimension_mismatch_exits_1(self, tmp_path):
        S = generate(8, 4, seed=0)
        mat = tmp_path / "sigs.csv"
        save_csv(S, mat)
        cfg = config_file(
            tmp_path,
            {"mode": "analyze", "params": {"N": 8, "Ns": 8},
             "matrix_path": str(mat), "output": str(tmp_path / "a.csv")},
        )
        assert main(["--config", cfg, "--quiet"]) == 1

    def test_out_of_range_header_seed_exits_1(self, tmp_path, capsys):
        S = generate(8, 8, seed=123)
        mat = tmp_path / "sigs.csv"
        save_csv(S, mat)
        mat.write_text(mat.read_text().replace("seed=123", "seed=-7"))
        out = tmp_path / "a.csv"
        cfg = config_file(
            tmp_path,
            {"mode": "analyze", "params": {"N": 8, "Ns": 8},
             "matrix_path": str(mat), "output": str(out)},
        )
        assert main(["--config", cfg, "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: seed=-7")
        assert not out.exists()

    def test_missing_matrix_exits_1(self, tmp_path):
        cfg = config_file(
            tmp_path,
            {"mode": "analyze", "matrix_path": str(tmp_path / "nope.csv"),
             "output": str(tmp_path / "a.csv")},
        )
        assert main(["--config", cfg, "--quiet"]) == 1


class TestExitCodes:
    @pytest.mark.parametrize("argv, message", [
        (["bogus"], "error: argument mode: invalid choice: 'bogus'"),
        (["analyze", "--seed", "abc"], "error: argument --seed: invalid int value: 'abc'"),
        (["analyze", "--frob", "1"], "error: unrecognized arguments: --frob 1"),
    ], ids=["mode", "seed", "flag"])
    def test_bad_command_line_is_one_line_config_error(self, tmp_path, argv, message):
        out = tmp_path / "a.csv"
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", *argv, "--out", str(out)],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_help_exits_0(self):
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--help"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: cdmafusion")

    def test_tiny_power_under_huge_observation_noise_is_a_coin_flip(self, tmp_path):
        # g = 3.5e-171 and m sqrt(x) ~ 7e-171 are normal floats, though the ratio
        # inside the gain's square root underflows
        params = {"N": 8, "Ns": 8, "P": 1e-300, "m": 1.0, "sigma_v2": 1e40, "sigma_w2": 1.0}
        out = tmp_path / "a.csv"
        cfg = config_file(tmp_path, {"mode": "analyze", "seed": 1, "params": params, "output": str(out)})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert close9(row["pe"], mp_tails(params, mp_root_snr2(params, 8, 8, 1))[3])
        assert float(row["pe"]) == 0.5

    def test_missing_config_file(self):
        assert main(["analyze", "--config", "/no/such/file.json", "--quiet"]) == 1

    def test_bad_param_value(self, tmp_path):
        cfg = config_file(tmp_path, {"mode": "analyze", "params": {"P": -1.0},
                                     "output": str(tmp_path / "a.csv")})
        assert main(["--config", cfg, "--quiet"]) == 1

    def test_overflowing_load_is_config_error(self, tmp_path, capsys):
        # alpha * N overflows to inf before the sensor count is rounded
        cfg = config_file(tmp_path, {"mode": "analyze", "params": {"alpha": 1e308},
                                     "output": str(tmp_path / "a.csv")})
        assert main(["--config", cfg, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alpha=1e+308")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_output(self, tmp_path):
        cfg = config_file(tmp_path, {"mode": "analyze"})
        assert main(["--config", cfg, "--quiet"]) == 1

    def test_unwritable_output_is_runtime_failure(self, tmp_path):
        target = tmp_path / "missing-dir" / "a.csv"
        cfg = config_file(tmp_path, {"mode": "analyze", "output": str(target),
                                     "params": {"N": 8, "Ns": 8}})
        assert main(["--config", cfg, "--quiet"]) == 2
        assert not target.exists()

    def test_bad_seed_override(self, tmp_path):
        cfg = config_file(tmp_path, {"mode": "analyze", "output": str(tmp_path / "a.csv")})
        assert main(["--config", cfg, "--seed", "-3", "--quiet"]) == 1

    def test_underflowing_tails_keep_a_log_domain_gap(self, tmp_path):
        # both pe columns underflow to 0 here, while their logs differ by ~1e5:
        # the gap is |pe_exact / pe_asymptotic - 1| rounded from e^(+-1e5)
        out = tmp_path / "grid.csv"
        params = {"P": 1e6, "sigma_v2": 1e-6}
        cfg = config_file(tmp_path, {"mode": "sweep-grid", "output": str(out), "params": params,
                                     "grid": {"N": [8], "alpha": [4.0], "seeds": 2}})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        assert len(rows) == 2
        row = [dict(zip(header, r)) for r in rows]
        gaps = [float(r["rel_gap"]) for r in row]
        assert gaps == [mp_rel_gap(dict(params, m=1.0, sigma_w2=1.0), 8, 32, int(r["seed"])) for r in row]
        assert sorted(gaps) == [1.0, math.inf]

    @pytest.mark.parametrize("mode, message", [
        ("analyze", "numerical failure: covariance factorization failed"),
        ("sweep-grid", "numerical failure: covariance factorization failed"),
    ])
    def test_extreme_power_and_noise_are_one_line_runtime_failures(self, tmp_path, mode, message):
        # at P = 1.7e308 and sigma_w2 = 1e-300 the interference outweighs the receiver
        # noise by 1e607: in its units the covariance is S S^T + w I with w the least
        # double, and S S^T has rank 4 of 8.  Run as a child so any numpy warning
        # printed to stderr is seen
        out = tmp_path / "out.csv"
        cfg = config_file(tmp_path, {"mode": mode, "output": str(out),
                                     "params": {"N": 8, "alpha": 0.5, "P": 1.7e308, "sigma_w2": 1e-300},
                                     "grid": {"N": [8], "alpha": [0.5], "seeds": 2}})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith(message)
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["analyze", "sweep-grid"])
    def test_extreme_power_and_noise_have_finite_answers(self, tmp_path, mode):
        # P and sigma_w2 near the float range: the physical covariance overflows and
        # beta0 underflows, while rho = 1 and every group is a normal float.  Run as a
        # child so any numpy warning printed to stderr is seen
        params = {"N": 8, "P": 1.7e308, "sigma_w2": 1.7e308}
        rows = self.run_ok(tmp_path, mode, params)
        for row in rows:
            assert close9(row["pe"] if mode == "analyze" else row["pe_exact"],
                          mp_tails(params, mp_root_snr2(params, 8, 8, int(row["seed"])))[3])
            if mode == "sweep-grid":
                assert close9(row["pe_asymptotic"], mp_tails(params, mp_root_snr2(params, 8, 8))[3])

    @staticmethod
    def run_ok(tmp_path, mode, params, detector=None):
        """The rows of a child run that must succeed with nothing on stderr."""
        out = tmp_path / "out.csv"
        doc = {"mode": mode, "output": str(out), "params": params,
               "grid": {"N": [8], "alpha": [1.0], "seeds": 2}}
        if detector is not None:
            doc["detector"] = detector
        cfg = config_file(tmp_path, doc)
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        return [dict(zip(header, r)) for r in rows]

    @staticmethod
    def run_child(tmp_path, mode, params, detector=None):
        out = tmp_path / "out.csv"
        doc = {"mode": mode, "output": str(out), "params": params,
               "grid": {"N": [8], "alpha": [1.0], "seeds": 2}}
        if detector is not None:
            doc["detector"] = detector
        cfg = config_file(tmp_path, doc)
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.stderr.count("\n") == 1
        assert not out.exists()
        return proc

    @pytest.mark.parametrize("mode", ["analyze", "asymptotic", "montecarlo", "converge",
                                      "sweep-grid", "sweep-limits"])
    def test_overflowing_signal_power_is_config_error(self, tmp_path, mode):
        # m**2 overflows in the gain and in gamma
        proc = self.run_child(tmp_path, mode, {"N": 8, "Ns": 8, "m": 1e200})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: m=1e+200 violates:")

    @pytest.mark.parametrize("mode", ["analyze", "asymptotic"])
    @pytest.mark.parametrize("key", ["N", "Ns"])
    def test_count_past_the_float_range_is_config_error(self, tmp_path, mode, key):
        # every route forms floats from N and Ns; a 401-digit count cannot be one
        params = dict({"N": 8, "Ns": 4}, **{key: int(HUGE)})
        proc = self.run_child(tmp_path, mode, params)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {key}={HUGE} violates:")

    @pytest.mark.parametrize("mode", ["analyze", "asymptotic", "montecarlo", "converge",
                                      "sweep-grid", "sweep-limits"])
    def test_underflowing_signal_power_is_config_error(self, tmp_path, mode):
        # m**2 underflows to 0 with noiseless sensors, and the gain divides by it
        proc = self.run_child(tmp_path, mode, {"N": 8, "Ns": 8, "m": 1e-200, "sigma_v2": 0.0})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: m=1e-200 violates:")

    @pytest.mark.parametrize("mode", ["asymptotic", "sweep-limits"])
    def test_overflowing_limit_snr_vanishes_the_tails(self, tmp_path, capsys, mode):
        # mu = m^2 sigma_w2 / P underflows to 0, so the limiting SNR (~1e341) is +inf
        out = tmp_path / "out.csv"
        cfg = config_file(tmp_path, {"mode": mode, "output": str(out),
                                     "params": {"N": 8, "Ns": 8, "sigma_v2": 0.0, "sigma_w2": 1e-300, "m": 1e-20},
                                     "grid": {"N": [8], "alpha": [1.0], "seeds": 2}})
        assert main(["--config", cfg, "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        columns = ["pe"] if mode == "asymptotic" else ["pe_asymptotic", "pe_large_alpha_limit", "pe_single_sensor"]
        assert [float(row[c]) for c in columns] == [0.0] * len(columns)

    @pytest.mark.parametrize("mode, detector", [
        ("analyze", None), ("montecarlo", None), ("analyze", "np"), ("montecarlo", "np"), ("sweep-grid", "np"),
    ], ids=["analyze", "montecarlo", "analyze-np", "montecarlo-np", "sweep-grid-np"])
    def test_vanishing_gain_gives_the_coin_flip_limit(self, tmp_path, mode, detector):
        # Ns (m^2 + sigma_v2) overflows, so g underflows, but r ~ 1e-154 is a normal
        # float: every detector is a coin flip, np's with pf = alpha_fa
        params = {"N": 8, "Ns": 8, "sigma_v2": 1.7e308}
        spec = None if detector is None else {"criterion": "np", "alpha_fa": 0.05}
        for row in self.run_ok(tmp_path, mode, params, spec):
            pe = row["pe"] if mode == "analyze" else row["pe_exact"]
            assert close9(pe, mp_tails(params, mp_root_snr2(params, 8, 8, int(row["seed"])), spec)[3])
            assert float(pe) == 0.5

    @pytest.mark.parametrize("mode", ["analyze", "montecarlo"])
    def test_zero_signature_sum_under_subnormal_receiver_noise_is_the_tie_rule(self, tmp_path, mode):
        # S 1 = 0, so q = 0 and r = 0, while s = sqrt(P / sigma_w2) is past every float
        # at sigma_w2 = 1e-320: r is read from q before s multiplies it, and the
        # statistic, identically 0, meets the Bayes threshold 0 and decides H1
        mat = tmp_path / "sigs.csv"
        mat.write_text("1,-1\n")
        out = tmp_path / "out.csv"
        cfg = config_file(tmp_path, {"mode": mode, "output": str(out), "matrix_path": str(mat),
                                     "params": {"N": 1, "Ns": 2, "P": 1e300, "sigma_v2": 0, "sigma_w2": 1e-320},
                                     "mc": {"trials": 1000}})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        routes = ("",) if mode == "analyze" else ("_exact", "_mc")
        assert [row[c + route] for route in routes for c in ("pf", "pm", "pe")] == ["1", "0", "0.5"] * len(routes)

    @pytest.mark.parametrize("mode, params, detector, message", [
        # the interference outweighs the receiver noise by 1e607, and S S^T has
        # rank 4 of 8 (see test_extreme_power_and_noise_are_one_line_runtime_failures)
        ("montecarlo", {"N": 8, "Ns": 4, "P": 1.7e308, "sigma_w2": 1e-300}, None,
         "covariance factorization failed"),
        # beta0 ~ 1 / (2 sigma_w2) ~ 5e309 is past every float here, and mu would
        # divide by it
        ("asymptotic", {"N": 8, "Ns": 4, "sigma_w2": 1e-310}, None, "beta0 overflows to inf at N=8"),
        # sigma_v2 / Ns is below 1 / 1.8e308, so the predicted snr 1 / mu is past
        # every float, and so is the observed one: inf - inf is no error to report
        ("converge", {"N": 8, "Ns": 8, "P": 1e300, "sigma_v2": 2.3e-308, "sigma_w2": 1e-300}, None,
         "limiting snr 1 / mu overflows to inf at N=8, mu=2.875e-309"),
        # sigma_v2 / Ns underflows to 0, and so does the rest of mu
        ("converge", {"N": 8, "Ns": 8, "P": 1e300, "sigma_v2": 5e-324, "sigma_w2": 1e-300}, None,
         "limiting snr 1 / mu overflows to inf at N=8, mu=0.0"),
    ], ids=["montecarlo-singular-covariance", "asymptotic-beta0-overflows", "converge-limit-snr-overflows",
            "converge-limit-snr-divides-by-0"])
    def test_out_of_range_intermediate_is_one_line_runtime_failure(self, tmp_path, mode, params, detector, message):
        # no RuntimeWarning, no error probability counted against inf or nan, no file
        proc = self.run_child(tmp_path, mode, params, detector)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"numerical failure: {message}")

    @pytest.mark.parametrize("mode, params, detector", [
        # Sigma^{-1} S 1 is ~1e300 at sigma_w2 = 1e-300, and g S^T of it overflowed;
        # the weight is a unit vector now, and r ~ 1e150 separates the hypotheses
        ("montecarlo", {"N": 8, "Ns": 8, "sigma_v2": 0, "sigma_w2": 1e-300, "m": 1e-20}, None),
        # P beta0 underflows to 0, and r ~ 4e-170 is a coin flip
        ("asymptotic", {"N": 2, "Ns": 1, "P": 6.29e-271, "m": 1.67e148, "sigma_v2": 0, "sigma_w2": 4.45e68},
         {"criterion": "fixed", "tau_prime": 0.0}),
    ], ids=["montecarlo-weight", "asymptotic-P-beta0"])
    def test_intermediates_past_the_float_range_leave_the_answer_finite(self, tmp_path, mode, params, detector):
        (row,) = self.run_ok(tmp_path, mode, params, detector)
        if mode == "montecarlo":
            want = mp_tails(params, mp_root_snr2(params, 8, 8, int(row["seed"])))
            assert [close9(row[c], w) for c, w in zip(("pf_exact", "pm_exact", "pe_exact"), want[1:])] == [True] * 3
            assert (row["pf_mc"], row["pm_mc"]) == ("0", "0")
        else:
            assert [close9(row[c], w) for c, w in zip(("pf", "pm", "pe"), mp_tails(params, mp_root_snr2(params, 2, 1), detector)[1:])] == [True] * 3

    def test_beta0_past_the_float_range_leaves_the_limit_finite(self, tmp_path):
        # the asymptotic mode fails on this point above, as its beta0 ~ 5e309
        # column cannot hold the value; the limiting form Ns / c = 4 can, so
        # r = 2 and pe_asymptotic = Q(2)
        out = tmp_path / "out.csv"
        params = {"N": 8, "Ns": 4, "sigma_w2": 1e-310}
        cfg = config_file(tmp_path, {"mode": "sweep-limits", "output": str(out), "params": params,
                                     "grid": {"N": [8], "alpha": [0.5]}})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert close9(row["pe_asymptotic"], mp_tails(params, mp_root_snr2(params, 8, 4))[3])

    @pytest.mark.parametrize("params", [
        {"N": 8, "Ns": 4, "P": 8e-200, "sigma_w2": 1e-201},  # gamma sigma_w2 underflows to 0
        {"N": 2, "Ns": 1, "P": 2.88e196, "m": 4.27e-125, "sigma_v2": 3.58e-18, "sigma_w2": 7.92e-138,
         "p0": 0.01},  # b^2 overflows
    ], ids=["product-underflows", "square-overflows"])
    def test_direct_fixed_point_root_outside_the_coefficient_range(self, tmp_path, params):
        # b < 0: the root is finite although a coefficient of the quadratic is not a float
        out = tmp_path / "a.csv"
        cfg = config_file(tmp_path, {"mode": "asymptotic", "output": str(out), "params": params})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        p = {"P": 10.0, "m": 1.0, "sigma_v2": 1.0, **params}
        with mpmath.workdps(60):
            P, m, sv, sw = (mpmath.mpf(p[k]) for k in ("P", "m", "sigma_v2", "sigma_w2"))
            gamma, alpha = (P / p["N"]) * sv / (m**2 + sv), mpmath.mpf(p["Ns"]) / p["N"]
            a, b = gamma * sw, alpha * (gamma + sw) - gamma
            want = (mpmath.sqrt(b**2 + 4 * a * alpha) - b) / (2 * a)
        assert float(row["beta0"]) == pytest.approx(float(want), rel=1e-8)

    def test_number_past_the_float_range_is_one_line_config_error(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "asymptotic", "output": "%s", "params": {"P": %s}}' % (out, HUGE))
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", str(cfg), "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: params.P must be finite, got 1000")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_vanishing_fixed_point_denominator_is_not_a_division_by_zero(self, tmp_path):
        # b == 0 and 4 gamma sigma_w2 alpha underflows: the scaled root gives
        # beta0 ~ 3e231, and the run stops on the first seed's singular S
        proc = self.run_child(tmp_path, "sweep-grid", {"N": 8, "Ns": 8, "P": 2.99e-186, "m": 5.24e-184,
                                                       "sigma_v2": 9.6e110, "sigma_w2": 3.0e-277})
        assert proc.returncode == 2
        assert proc.stderr.startswith("numerical failure: covariance factorization failed")

    @pytest.mark.parametrize("mode", ["analyze", "asymptotic", "montecarlo", "sweep-grid", "sweep-limits"])
    def test_np_at_infinite_snr_keeps_its_false_alarm_rate(self, tmp_path, mode):
        # g^2 qf and 1/mu overflow to inf, while r = m sqrt(x) ~ 1e150 (1e100 for
        # montecarlo, at m = 1e-60) is a normal float: np's threshold 2 r Q^{-1}(alpha_fa)
        # - 2 r^2 is finite, pf stays at alpha_fa while pm vanishes, and pe = p0 alpha_fa
        params = {"N": 8, "Ns": 8, "sigma_v2": 0, "sigma_w2": 1e-300, "m": 1e-20}
        if mode == "montecarlo":
            params.update(P=1, sigma_w2=1e-200, m=1e-60)
        out = tmp_path / "out.csv"
        cfg = config_file(tmp_path, {"mode": mode, "output": str(out), "params": params,
                                     "detector": {"criterion": "np", "alpha_fa": 0.05},
                                     "grid": {"N": [8], "alpha": [1.0], "seeds": 2}})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        rows = [dict(zip(header, r)) for r in rows]
        spec = {"criterion": "np", "alpha_fa": 0.05}
        if mode in ("analyze", "asymptotic"):
            assert [(r["pf"], r["pm"], r["pe"]) for r in rows] == [("0.05", "0", "0.025")]
            r2 = mp_root_snr2(params, 8, 8, 0 if mode == "analyze" else None)
            assert close9(rows[0]["tau_prime"], mp_tails(params, r2, spec)[0])
        elif mode == "montecarlo":
            assert [(r["pm_mc"], r["pf_exact"], r["pm_exact"], r["pe_exact"]) for r in rows] == [
                ("0", "0.05", "0", "0.025")]
            assert close9(rows[0]["tau_prime"], mp_tails(params, mp_root_snr2(params, 8, 8, 0), spec)[0])
            assert float(rows[0]["pf_mc"]) == pytest.approx(0.05, abs=3 * float(rows[0]["stderr_pf"]))
        elif mode == "sweep-grid":
            assert [(r["pe_exact"], r["pe_asymptotic"], r["rel_gap"]) for r in rows] == [("0.025", "0.025", "0")] * 2
        else:
            assert [r["pe_asymptotic"] for r in rows] == ["0.025"]

    def test_equal_vanishing_tails_have_no_gap(self, tmp_path):
        # both r^2 ~ 1e600 overflow, so both log_pe are -inf: equal logs give rel_gap 0, not nan
        out = tmp_path / "grid.csv"
        cfg = config_file(tmp_path, {"mode": "sweep-grid", "output": str(out),
                                     "params": {"sigma_v2": 0, "sigma_w2": 1e-300, "P": 1e300},
                                     "grid": {"N": [8], "alpha": [1.0], "seeds": 2}})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        assert [[float(dict(zip(header, r))[c]) for c in ("pe_exact", "pe_asymptotic", "rel_gap")]
                for r in rows] == [[0.0, 0.0, 0.0]] * 2

    def test_huge_observation_noise_has_a_finite_limit(self, tmp_path):
        # gamma stays near P/N although (P/N) sigma_v2 overflows; the limit is a coin flip
        out = tmp_path / "a.csv"
        cfg = config_file(tmp_path, {"mode": "asymptotic", "output": str(out),
                                     "params": {"N": 8, "Ns": 8, "sigma_v2": 1.7e308}})
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["gamma"]) == 1.25
        assert float(row["pe"]) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("mode", ["asymptotic", "sweep-limits", "sweep-grid"])
    def test_noiseless_sensors_give_the_interference_free_limit(self, tmp_path, capsys, mode):
        out = tmp_path / "out.csv"
        cfg = config_file(tmp_path, {"mode": mode, "output": str(out), "params": {"sigma_v2": 0.0},
                                     "grid": {"N": [8, 16], "alpha": [1.0, 4.0], "seeds": 2}})
        assert main(["--config", cfg, "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        _, header, rows = read_csv(out)
        column = "pe" if mode == "asymptotic" else "pe_asymptotic"
        # no interference at any load: pe = Q(sqrt(P / sigma_w2)) with P = 10, sigma_w2 = 1
        want = 0.5 * math.erfc(math.sqrt(10.0 / 2.0))
        for r in rows:
            assert float(dict(zip(header, r))[column]) == pytest.approx(want, rel=1e-8)

    def test_success_prints_row_count(self, tmp_path, capsys):
        cfg = config_file(tmp_path, {"mode": "asymptotic", "params": {"N": 8, "Ns": 8},
                                     "output": str(tmp_path / "a.csv")})
        assert main(["--config", cfg]) == 0
        assert "wrote 1 rows" in capsys.readouterr().out


class TestGridInvariant:
    def test_median_error_monotone_in_load(self, tmp_path):
        # with enough per-cell seeds the median exact error probability is
        # non-increasing in the load at every spreading length; 2000 seeds
        # per cell puts the median standard error well below the cell gaps
        out = tmp_path / "grid.csv"
        doc = {"mode": "sweep-grid", "seed": 0,
               "grid": {"seeds": 2000}, "mc": {"workers": 4}}
        cfg = config_file(tmp_path, doc)
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        _, header, rows = read_csv(out)
        i_n, i_a, i_pe = header.index("N"), header.index("alpha"), header.index("pe_exact")
        cells = {}
        for r in rows:
            cells.setdefault((int(r[i_n]), float(r[i_a])), []).append(float(r[i_pe]))
        Ns = sorted({k[0] for k in cells})
        alphas = sorted({k[1] for k in cells})
        assert len(rows) == len(Ns) * len(alphas) * 2000
        for N in Ns:
            medians = [statistics.median(cells[(N, a)]) for a in alphas]
            for a, b in zip(medians, medians[1:]):
                assert b <= a, f"median pe rose with load at N={N}: {medians}"


def bundled_openblas():
    """(library, symbol suffix) of each scipy-openblas copy bundled with numpy."""
    found = []
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
                found.append((lib, suffix))
                break
    return found


def blas_threads(lib, suffix):
    getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def child_env(**threads):
    """This process's environment with PYTHONPATH on src/ and only the given thread variables."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(threads)
    return env


class TestBlasThreads:
    def test_main_runs_bundled_openblas_single_threaded(self, tmp_path):
        libs = bundled_openblas()
        if not libs:
            pytest.skip("numpy bundles no scipy-openblas library here")
        for lib, suffix in libs:
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(2)  # OpenBLAS caps this at the core count
        cfg = config_file(tmp_path, {"mode": "asymptotic", "params": {"N": 8, "Ns": 8},
                                     "output": str(tmp_path / "a.csv")})
        assert main(["--config", cfg, "--quiet"]) == 0
        assert [blas_threads(lib, suffix) for lib, suffix in libs] == [1] * len(libs)

    def test_pin_skips_missing_and_foreign_libraries(self, tmp_path, monkeypatch):
        # a numpy with no .libs directory, and one whose only matching file
        # is not a loadable library
        libs = tmp_path / "fake.libs"
        libs.mkdir()
        (libs / "libscipy_openblas-broken.so").write_bytes(b"not a shared object")
        for name in ("absent", "fake"):
            monkeypatch.setattr(cli, "np", types.SimpleNamespace(
                __name__=name, __file__=str(tmp_path / name / "__init__.py")))
            cli._pin_blas_threads()
        # a library that loads but exports no setter
        (libs / "libscipy_openblas-broken.so").unlink()
        others = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libquadmath*.so*"))
        if others:
            (libs / "libscipy_openblas-foreign.so").symlink_to(others[0])
            cli._pin_blas_threads()

    def test_import_leaves_blas_threading_alone(self):
        # the child reads the thread counts before and after importing the
        # package, with the helpers above and nothing of cdmafusion loaded
        probe = "\n".join([
            "import ctypes, json",
            "from pathlib import Path",
            "import numpy as np",
            inspect.getsource(bundled_openblas),
            inspect.getsource(blas_threads),
            "libs = bundled_openblas()",
            "before = [blas_threads(*lib) for lib in libs]",
            "import cdmafusion, cdmafusion.cli",
            "print(json.dumps([before, [blas_threads(*lib) for lib in libs]]))",
        ])
        proc = subprocess.run([sys.executable, "-c", probe], env=child_env(OPENBLAS_NUM_THREADS="2"),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        assert before == after

    def test_converge_bytes_independent_of_inherited_blas_threads(self, tmp_path):
        # multithreaded BLAS sums in another order at N=128 and moves the last
        # digit of decomposition_residual, so the inherited count must not matter
        cfg = config_file(tmp_path, {"mode": "converge", "seed": 0,
                                     "params": {"N": 128, "alpha": 2.0},
                                     "grid": {"N": [128], "seeds": 2}})
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "cdmafusion", "--config", cfg, "--out", str(out), "--quiet"],
                env=child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):  # as in cli._keep_freed_heap
        return False


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
class TestAllocator:
    def test_main_keeps_freed_heap_in_the_process(self, tmp_path):
        # minor page faults of a sweep-grid child past those of importing and
        # parsing, through main and through run without the setting.  Each
        # N = 128 seed frees temporaries of 128 KiB to 1 MiB, which glibc's
        # default thresholds return to the kernel and fault in again.  The run
        # child holds those defaults fixed: left dynamic, the mmap threshold
        # rises to the largest mapped block freed so far, so the count would
        # depend on what the process freed before the run (one 1.1 MB array
        # freed first took the ratio from 2.9 to 1.1)
        cfg = config_file(tmp_path, {"mode": "sweep-grid", "output": str(tmp_path / "out.csv"),
                                     "grid": {"N": [64, 128], "alpha": [2.0, 4.0], "seeds": 10}})
        parse = f"from cdmafusion import cli; config = cli.parse_config(open({cfg!r}, 'rb').read())"
        defaults = "import ctypes; ctypes.CDLL(None).mallopt(-3, 128 << 10); ctypes.CDLL(None).mallopt(-1, 128 << 10)"

        def faults(code):
            proc = subprocess.Popen([sys.executable, "-c", code], env=child_env())
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
            assert proc.returncode == 0
            return usage.ru_minflt

        setup = faults(parse)
        through_main = faults(f"{parse}; raise SystemExit(cli.main(['--config', {cfg!r}, '-q']))")
        through_run = faults(f"{defaults}; {parse}; cli._pin_blas_threads(); raise SystemExit(cli.run(config, quiet=True))")
        assert through_run - setup >= 4 * (through_main - setup)

    def test_import_does_not_call_mallopt(self):
        # the child watches every mallopt looked up on a ctypes library while
        # the package imports, and then while main's setting runs
        probe = "\n".join([
            "import ctypes, json",
            "seen = []",
            "class Watched(ctypes.CDLL):",
            "    def __getattr__(self, name):",
            "        if name == 'mallopt':",
            "            seen.append(name)",
            "        return super().__getattr__(name)",
            "ctypes.CDLL = Watched",
            "import cdmafusion, cdmafusion.cli",
            "on_import = list(seen)",
            "cdmafusion.cli._keep_freed_heap()",
            "print(json.dumps([on_import, seen]))",
        ])
        proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], ["mallopt"]]

    def test_libc_without_mallopt_is_left_alone(self, tmp_path, monkeypatch):
        real = ctypes.CDLL

        def stand_in(name, *args, **kwargs):
            # the process's own symbols (name None) come from a libc with no mallopt
            return types.SimpleNamespace() if name is None else real(name, *args, **kwargs)

        monkeypatch.setattr(cli.ctypes, "CDLL", stand_in)
        out = tmp_path / "a.csv"
        cfg = config_file(tmp_path, {"mode": "sweep-grid", "output": str(out),
                                     "grid": {"N": [8], "alpha": [1.0], "seeds": 2}})
        assert main(["--config", cfg, "--quiet"]) == 0
        assert out.exists()


class TestNoScipy:
    @pytest.mark.parametrize("mode", cli.MODES)
    def test_run_imports_no_scipy(self, tmp_path, mode):
        # -X importtime lists on stderr every module the child imports, from
        # start-up to exit, whichever module imports it
        out = tmp_path / "out.csv"
        cfg = config_file(tmp_path, {"mode": mode, "output": str(out), "params": {"N": 8, "Ns": 8},
                                     "mc": {"trials": 1000, "workers": 2},
                                     "grid": {"N": [8, 16], "alpha": [1.0], "seeds": 2}})
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cdmafusion", "--config", cfg, "--quiet"],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "cdmafusion.cli" in imported
        assert [name for name in imported if name.split(".")[0] == "scipy"] == []


class TestConvergeSinglePass:
    # sha256 of whole artifacts, frozen from the runner's output: the converge
    # schedule has an odd N and both sides of the cross term's 200-pair cut
    GOLDEN = {
        "converge": ({"mode": "converge", "seed": 4, "params": {"N": 8, "alpha": 2.0},
                      "grid": {"N": [7, 8, 16], "seeds": 3}},
                     "80d03be5f2045b3f45155c7ba18e33cd401e6bcc901efb56e358c0d8f8268e9f"),
        "sweep-grid": ({"mode": "sweep-grid", "seed": 2,
                        "grid": {"N": [8, 16], "alpha": [0.5, 2.0], "seeds": 3}},
                       "89418ddc109d711d4440463134a28ead9797159050cb2b902d1546681ba4ff73"),
    }

    @pytest.mark.parametrize("mode", sorted(GOLDEN))
    def test_golden_artifact(self, tmp_path, mode):
        doc, digest = self.GOLDEN[mode]
        out = tmp_path / "out.csv"
        assert main(["--config", config_file(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @staticmethod
    def count_calls(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_one_draw_and_two_factorizations_per_cell(self, tmp_path, monkeypatch):
        # Q_0 is Sigma's rank-one downdate, so only Sigma is built from S S^T
        calls = {"generate": 0, "_cholesky": 0, "channel_covariance": 0}
        self.count_calls(monkeypatch, convergence, "generate", calls)
        self.count_calls(monkeypatch, exact, "_cholesky", calls)
        self.count_calls(monkeypatch, exact, "channel_covariance", calls)
        cfg = config_file(tmp_path, {"mode": "converge", "seed": 1, "params": {"N": 8, "alpha": 2.0},
                                     "grid": {"N": [8, 16, 32], "seeds": 4}})
        assert main(["--config", cfg, "--out", str(tmp_path / "c.csv"), "--quiet"]) == 0
        cells = 3 * 4
        assert calls == {"generate": cells, "_cholesky": 2 * cells, "channel_covariance": cells}

    def test_one_whitening_solve_per_cell(self, tmp_path, linalg_calls):
        # per cell: Sigma bordered by S 1 and Q_0 bordered by s_0 factored, so
        # qf and s_0^T Q_0^{-1} s_0 need no solve; one whitening L^{-1} S for
        # the residual, the cross terms and s_0^T Sigma^{-1} s_0
        cfg = config_file(tmp_path, {"mode": "converge", "seed": 1, "params": {"N": 8, "alpha": 2.0},
                                     "grid": {"N": [8, 16, 32], "seeds": 4}})
        assert main(["--config", cfg, "--out", str(tmp_path / "c.csv"), "--quiet"]) == 0
        cells = 3 * 4
        assert linalg_calls == {"cholesky": 2 * cells, "solve_lower": cells}

    def test_single_sensor_at_smallest_N_fails_before_any_draw(self, tmp_path, monkeypatch, capsys):
        calls = {"generate": 0}
        self.count_calls(monkeypatch, convergence, "generate", calls)
        out = tmp_path / "c.csv"
        # load 1/8 gives one sensor at N=8 and two at N=16
        cfg = config_file(tmp_path, {"mode": "converge", "params": {"N": 8, "Ns": 1},
                                     "grid": {"N": [8, 16], "seeds": 2}})
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        assert "cross terms need at least 2 sensors" in capsys.readouterr().err
        assert not out.exists()
        assert calls["generate"] == 0


class TestSweepGridBlocks:
    # sha256 of the whole artifact, frozen from the per-seed runner before
    # seeds were blocked: at N=128 both points split into several blocks
    GOLDEN = ({"mode": "sweep-grid", "seed": 0,
               "grid": {"N": [8, 128], "alpha": [0.5, 4.0], "seeds": 5}},
              "5ec34626d2add30c01c2cbdbc2be46ae0da8034c8cbb3871d3c9d00d8cfd1385")

    def run_grid(self, tmp_path, *extra, name="grid.csv"):
        doc, _ = self.GOLDEN
        out = tmp_path / name
        assert main(["--config", config_file(tmp_path, doc), "--out", str(out), "--quiet", *extra]) == 0
        return out.read_bytes()

    def test_golden_artifact(self, tmp_path):
        assert hashlib.sha256(self.run_grid(tmp_path)).hexdigest() == self.GOLDEN[1]

    def test_worker_count_invisible(self, tmp_path):
        one = self.run_grid(tmp_path, "--workers", "1", name="one.csv")
        two = self.run_grid(tmp_path, "--workers", "2", name="two.csv")
        assert one == two

    def test_blocks_are_bounded_and_cover_each_point_in_order(self, tmp_path, monkeypatch):
        shapes = []
        original = cli.quadratic_forms

        def recorded(params, block):
            shapes.append(block.shape)
            return original(params, block)

        monkeypatch.setattr(cli, "quadratic_forms", recorded)
        self.run_grid(tmp_path)
        per_point = {}
        for k, N, Ns in shapes:
            assert k == 1 or k * N * max(N, Ns) <= 2**16
            per_point.setdefault((N, Ns), []).append(k)
        assert per_point == {(8, 4): [5], (8, 32): [5], (128, 64): [4, 1], (128, 512): [1] * 5}

    def test_one_draw_and_one_factorization_per_cell(self, tmp_path, monkeypatch, linalg_calls):
        calls = {"generate": 0}
        TestConvergeSinglePass.count_calls(monkeypatch, cli, "generate", calls)
        self.run_grid(tmp_path)
        cells = 2 * 2 * 5
        assert calls["generate"] == cells
        assert linalg_calls == {"cholesky": cells}


def child_pids(pid):
    """The pids of a process's children, from /proc: its tasks' children lists
    where the kernel keeps them, else every process whose parent it is."""
    lists = list(Path(f"/proc/{pid}/task").glob("*/children"))
    if lists:
        return {int(c) for path in lists for c in path.read_text().split()}
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            pids.add(int(stat.parent.name))
    return pids


def alive(pid):
    """True while pid is a process that has not exited (a zombie has)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X", "x")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="sweep-grid runs its points in line without os.fork")
class TestSweepGridProcesses:
    # sigma_w2 = 1e-310 makes every point's covariance singular in floating point
    SINGULAR = {"mode": "sweep-grid", "params": {"N": 8, "Ns": 4, "sigma_w2": 1e-310},
                "grid": {"N": [8, 16], "alpha": [0.5, 1.0], "seeds": 3}}

    def test_worker_counts_write_the_same_bytes(self, tmp_path):
        doc = {"mode": "sweep-grid", "seed": 5, "grid": {"N": [8, 32, 128], "alpha": [0.5, 4.0], "seeds": 4}}
        cfg = config_file(tmp_path, doc)
        outs = []
        for workers in ("1", "2", "4"):
            outs.append(tmp_path / f"w{workers}.csv")
            assert main(["--config", cfg, "--out", str(outs[-1]), "--workers", workers, "--quiet"]) == 0
            assert_no_child()
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_a_failing_point_is_the_same_one_line_at_any_worker_count(self, tmp_path, capsys):
        cfg = config_file(tmp_path, self.SINGULAR)
        lines = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            assert main(["--config", cfg, "--out", str(out), "--workers", workers, "--quiet"]) == 2
            assert_no_child()
            assert not out.exists()
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1]
        assert lines[0].startswith("numerical failure: covariance factorization failed: ")
        assert lines[0].count("\n") == 1

    def test_a_worker_killed_mid_point_is_one_line_runtime_failure(self, tmp_path, monkeypatch, capsys):
        session, generate = os.getpid(), cli.generate

        def killed_in_a_worker(*args, **kwargs):
            if os.getpid() != session:
                os.kill(os.getpid(), signal.SIGKILL)
            return generate(*args, **kwargs)

        monkeypatch.setattr(cli, "generate", killed_in_a_worker)
        doc = {"mode": "sweep-grid", "grid": {"N": [8, 16], "alpha": [0.5, 1.0], "seeds": 2}}
        out = tmp_path / "grid.csv"
        assert main(["--config", config_file(tmp_path, doc), "--out", str(out), "--workers", "2", "--quiet"]) == 2
        assert_no_child()
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: RuntimeError: worker process ")
        assert err.endswith(" ended without a result (exit code -9)\n")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_killing_the_cli_kills_its_workers(self, tmp_path):
        # each of the two points runs for several seconds, so a worker that outlived
        # the CLI would still be at its first point 2 s after the kill
        cfg = config_file(tmp_path, {"mode": "sweep-grid", "grid": {"N": [128], "alpha": [2.0, 4.0], "seeds": 8000},
                                     "mc": {"workers": 2}})
        proc = subprocess.Popen([sys.executable, "-m", "cdmafusion", "--config", cfg,
                                 "--out", str(tmp_path / "grid.csv"), "--quiet"], env=child_env())
        try:
            deadline = time.monotonic() + 60
            while len(workers := child_pids(proc.pid)) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(workers) == 2
        finally:
            proc.kill()
            proc.wait()
        time.sleep(2)
        assert [pid for pid in workers if alive(pid)] == []


class TestMontecarloGolden:
    # sha256 of the whole artifact: two full chunks and a remainder, each one
    # draw for both hypotheses on the sfc64 chunk stream's Box-Muller normals,
    # run on the two-worker pool
    GOLDEN = ({"mode": "montecarlo", "seed": 3, "params": {"N": 12, "Ns": 20, "P": 4.0, "sigma_v2": 0.5},
               "mc": {"trials": 2 * 16384 + 5, "workers": 2}},
              "270bf3c74cadcb25c615d6142f19681f2cab65f342e3032855f2f605d30f701c")

    def test_golden_artifact(self, tmp_path):
        doc, digest = self.GOLDEN
        out = tmp_path / "mc.csv"
        assert main(["--config", config_file(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_estimates_do_not_follow_cpu_dispatch(self, tmp_path):
        # without AVX-512, numpy's float64 log rounds some last bits differently;
        # no count and no standard error may move with them
        features = ["X86_V4", "AVX512_ICL", "AVX512_SPR"]
        if not set(features) <= set(np_cpu.__cpu_dispatch__) or not np_cpu.__cpu_features__["X86_V4"]:
            pytest.skip("numpy dispatches no AVX-512 kernels on this machine")
        doc, _ = self.GOLDEN
        cfg = config_file(tmp_path, doc)
        out, narrow = tmp_path / "mc.csv", tmp_path / "narrow.csv"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 0
        env = child_env()
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(features)
        proc = subprocess.run([sys.executable, "-m", "cdmafusion", "--config", cfg, "--out", str(narrow), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        columns = ["pf_mc", "pm_mc", "pe_mc", "stderr_pf", "stderr_pm", "stderr_pe"]
        (_, header, rows), (_, narrow_header, narrow_rows) = read_csv(out), read_csv(narrow)
        assert header == narrow_header
        assert [[row[header.index(c)] for c in columns] for row in narrow_rows] == \
               [[row[header.index(c)] for c in columns] for row in rows]


class TestOneFactorizationPerRun:
    @pytest.mark.parametrize("doc", [
        {"mode": "analyze", "seed": 3, "params": {"N": 16, "Ns": 24}},
        {"mode": "montecarlo", "seed": 3, "params": {"N": 16, "Ns": 24}, "mc": {"trials": 2000}},
    ], ids=["analyze", "montecarlo"])
    def test_sigma_factored_once(self, tmp_path, doc, linalg_calls):
        out = tmp_path / "out.csv"
        assert main(["--config", config_file(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
        assert linalg_calls["cholesky"] == 1
