"""Tests of the benchmark itself, at smoke sizes.

    python -m pytest -p no:cacheprovider perfbench

They run the benchmark the way its driver does, from the repository root,
and check the result line against BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "count/item", "bytes", "GFLOP_computed"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / f"tests-{id(object())}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def bench(workload: str, trace: int, *, cwd: Path = ROOT, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(res: dict, declared: list[dict]) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert [*res["metrics"]] == [d["name"] for d in declared]
    for d in declared:
        metric = res["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_keeps_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert WORKLOADS == list(workloads.BUILDERS)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in SPEC["workloads"])
    names = [d["name"] for section in ("workloads", "end_to_end", "per_layer") for d in SPEC[section]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    e2e = {d["name"]: d for d in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(d["bound"] for d in SPEC["end_to_end"]) <= 0.25
    assert list(LAYER_MAP) == [d["name"] for d in SPEC["per_layer"]]
    for entry in LAYER_MAP.values():
        assert set(entry["moves"]) <= set(e2e)
        assert set(entry["on"]) | set(entry["unchanged_on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_emits_every_metric(workload):
    check_emitted(result(bench(workload, 0)), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    for res in (first, second):
        check_emitted(res, SPEC["per_layer"])
    counts = [d["name"] for d in SPEC["per_layer"]
              if d["unit"] in COUNT_UNITS or d["name"] == "asymptotics.distinct_inputs_ratio"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("grid", 0, cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _cli_csv(workload: str, workdir: Path) -> tuple[str, dict]:
    config = dict(workloads.build(workload, seed=9, smoke=True).config, output="out.csv")
    (workdir / "config.json").write_text(json.dumps(config))
    subprocess.run([sys.executable, "-m", "cdmafusion", "--config", "config.json", "-q"],
                   cwd=workdir, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True, timeout=120)
    return (workdir / "out.csv").read_text(), config


def _replace_field(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    columns = lines[data[0]].split(",")
    fields = lines[data[1 + row]].split(",")
    fields[columns.index(column)] = value
    lines[data[1 + row]] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload, column, value", [
    ("grid", "pe_asymptotic", "0.5"),
    ("grid", "seed", "1"),
    ("montecarlo", "pe_exact", "0.4"),
    ("montecarlo", "pe_mc", "0.9"),
    ("converge", "observed", "1e-6"),
])
def test_oracles_accept_the_program_and_reject_tampering(workload, column, value, workdir):
    text, config = _cli_csv(workload, workdir)
    assert oracles.CHECKS[workload](text, config) == []
    row = 1 if workload == "converge" else 0  # converge row 1 is a decomposition_residual
    assert oracles.CHECKS[workload](_replace_field(text, row, column, value), config)
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert oracles.CHECKS[workload](short, config)


def test_grid_oracle_recomputes_exact_error_probability(workdir):
    text, config = _cli_csv("grid", workdir)
    _, rows = oracles.read_csv(text)
    # smoke grid samples every row, so a wrong pe_exact anywhere is caught
    for i, row in enumerate(rows):
        bumped = format(float(row["pe_exact"]) * (1 + 1e-5), ".9g")
        assert oracles.check_grid(_replace_field(text, i, "pe_exact", bumped), config)


@pytest.mark.parametrize("p0, pe", [(0.3, 0.3), (0.5, 0.5), (0.7, 0.3)])
def test_exact_oracle_follows_the_tie_rule_when_signatures_cancel(p0, pe, monkeypatch):
    # two sensors with opposite signatures: S 1 = 0, so qf = 0 and the
    # statistic is identically 0; H1 is declared on a tie, as the program does
    cancelling = np.array([[1.0, -1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    monkeypatch.setattr(oracles, "_signatures", lambda N, Ns, seed: cancelling)
    assert oracles.exact_pe(dict(workloads.CANONICAL, p0=p0), 2, 2, seed=0) == pytest.approx(pe)
