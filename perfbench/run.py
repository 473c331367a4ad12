"""Benchmark of the cdmafusion CLI: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    for w in grid montecarlo converge; do python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
`grid` runs sweep-grid, `montecarlo` the montecarlo mode and `converge` the
converge mode, each on a config made from --seed.  The program is the
package under src/, run as `python -m cdmafusion --config CONFIG` in a child
process, one invocation at a time (a closed loop with one client).  The
child gets this process's environment with every `*_NUM_THREADS` variable
removed; the benchmark sets no thread variable, so the BLAS threading the
program chooses is what gets measured.

--trace 0 repeats [setup probes, CLI invocation] until --seconds have passed
(at least 3 times) and reports the end-to-end metrics:
  items_per_s   work items per second of run time after setup, median
  wall_s        wall time of one CLI invocation, median
  setup_s       a fresh interpreter importing cdmafusion.cli and parsing the
                config: the fastest of the run's probes, 3 next to each
                invocation
  peak_rss_mb   peak resident set of one CLI invocation, median

--trace 1 repeats rounds of [setup probes, untraced invocation, --workers 1
invocation where the workload has a pool, invocation under traced.py] until
--seconds have passed (at least once), and reports the median over rounds
of each per-layer metric listed in BENCHMARK.json.  layer_map.json says
which end-to-end metric each should move on which workload.  A layer that
does not run on a workload reports 0.

Every output is checked against the oracles in oracles.py, and every
invocation of one config must write a CSV with the same sha256.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The line before it records the environment.  --smoke shrinks every workload
so the benchmark's own tests run quickly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

import workloads
from tracing import SpanSet, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_INVOCATIONS = 3
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    csv: bytes | None = None


class Bench:
    """Runs children for one workload inside a private work directory."""

    def __init__(self, wl: workloads.Workload, work: Path):
        self.wl = wl
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.config_path = work / "config.json"
        self.output = work / "out.csv"
        config = dict(wl.config, output=self.output.name)
        self.config_path.write_text(json.dumps(config, indent=1))
        self.runs: list[ChildRun] = []
        self.probes = 0
        self.probe_failures = 0

    def _child(self, args: list[str]) -> tuple[ChildRun, str]:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        return run, err_path.read_text(errors="replace")

    def probe_setup(self) -> list[float]:
        """Wall times of SETUP_PROBES setup probes, run back to back."""
        times = []
        for _ in range(SETUP_PROBES):
            run, err = self._child([str(HERE / "probe.py"), "setup", self.config_path.name])
            self.probes += 1
            if run.code != 0:
                self.probe_failures += 1
                print(f"setup probe exited {run.code}: {err.strip()}", file=sys.stderr)
            times.append(run.wall_s)
        return times

    def environment(self) -> dict:
        run, err = self._child([str(HERE / "probe.py"), "env"])
        if run.code != 0:
            return {"error": err.strip()}
        return json.loads((self.work / "child.out").read_text())

    def invoke(self, *extra: str, traced_to: Path | None = None) -> ChildRun:
        """One CLI invocation; with traced_to, under traced.py writing spans there."""
        self.output.unlink(missing_ok=True)
        cli = ["--config", self.config_path.name, "-q", *extra]
        if traced_to is None:
            args = ["-m", "cdmafusion", *cli]
        else:
            args = [str(HERE / "traced.py"), str(traced_to), uuid.uuid4().hex, "--", *cli]
        run, err = self._child(args)
        if run.code != 0:
            print(f"invocation exited {run.code}: {err.strip()[-2000:]}", file=sys.stderr)
        run = replace(run, csv=self.output.read_bytes() if self.output.exists() else None)
        self.runs.append(run)
        return run

    def verdict(self) -> tuple[int, int, str]:
        """(attempted, failed, sha256 of the reference CSV) over every child that ran program code.

        A setup probe fails when it exits non-zero.  An invocation fails when
        it exits non-zero, when its CSV differs from the first invocation's,
        or when that CSV fails the oracles.
        """
        from oracles import CHECKS  # numpy loads here, after every timed child

        reference = next((r.csv for r in self.runs if r.code == 0 and r.csv is not None), None)
        passed = False
        if reference is not None:
            problems = CHECKS[self.wl.name](reference.decode("ascii"), self.wl.config)
            for problem in problems[:20]:
                print(f"check failed: {problem}", file=sys.stderr)
            passed = not problems
        digest = hashlib.sha256(reference or b"").hexdigest()
        failed = sum(
            1 for r in self.runs
            if not (passed and r.code == 0 and r.csv is not None and hashlib.sha256(r.csv).hexdigest() == digest)
        )
        return len(self.runs) + self.probes, failed + self.probe_failures, digest


def rate_after_setup(wl: workloads.Workload, run: ChildRun, setup_s: float) -> float:
    """Items per second of the invocation's wall time minus the measured setup time."""
    # Tiny smoke configs can finish inside the setup noise; the floor keeps
    # the rate finite there and is far below any full-size run time.
    return wl.items / max(run.wall_s - setup_s, 1e-3)


def fastest_setup(setups: list[float]) -> float:
    """The setup time of a run: its fastest probe.

    Setup is a fixed amount of work, but on a host whose cores are shared
    with other tenants the wall time of one probe swings by a third from
    second to second, and a median follows the host's load.  The fastest
    probe is the steadiest estimate of the work itself.
    """
    return min(setups)


def end_to_end(bench: Bench, seconds: float) -> dict:
    setups, invocations = [], []
    start = time.perf_counter()
    while len(invocations) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        setups.extend(bench.probe_setup())
        invocations.append(bench.invoke())
    setup_s = fastest_setup(setups)
    return {
        "items_per_s": statistics.median(rate_after_setup(bench.wl, r, setup_s) for r in invocations),
        "wall_s": statistics.median(r.wall_s for r in invocations),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in invocations),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    """Median over rounds of [setup probes, untraced, --workers 1, traced] run until `seconds` pass."""
    setups, rounds = [], []
    spans_path = bench.work / "spans.json"
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        setups.extend(bench.probe_setup())
        base = bench.invoke()
        single = bench.invoke("--workers", "1") if bench.wl.workers else None
        spans_path.unlink(missing_ok=True)
        traced = bench.invoke(traced_to=spans_path)
        # a traced run that crashed leaves no spans; its failure is counted by verdict()
        spans = SpanSet.load(str(spans_path)) if spans_path.exists() else SpanSet.empty()
        rounds.append((base, single, traced, spans))
    setup_s = fastest_setup(setups)
    per_round = [layer_metrics(bench.wl, setup_s, *r) for r in rounds]
    return {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}


def layer_metrics(wl: workloads.Workload, setup_s: float, base: ChildRun, single: ChildRun | None,
                  traced: ChildRun, spans: SpanSet) -> dict:
    """Every per-layer metric of one round, from its spans and its three invocations."""

    def rate(run: ChildRun) -> float:
        return rate_after_setup(wl, run, setup_s)

    items = wl.items
    m = {}
    for name in ("spreading.generate", "exact.exact_performance"):
        d = spans.durations(name)
        m[f"{name}.calls"] = len(d)
        m[f"{name}.busy_s"] = sum(d)
        m[f"{name}.p50_us"] = quantile(d, 0.5) * 1e6
        m[f"{name}.p99_us"] = quantile(d, 0.99) * 1e6
    for n in (8, 128):
        d = spans.durations("exact.exact_performance", lambda s, n=n: s["attrs"]["N"] == n)
        m[f"exact.exact_performance.N{n}.p50_us"] = quantile(d, 0.5) * 1e6
    for name in ("exact.channel_covariance", "exact.quadratic_form"):
        m[f"{name}.busy_s"] = spans.busy(name)
    for name in ("linalg.cho_factor", "linalg.cho_solve", "asymptotics.asymptotic_performance",
                 "montecarlo.simulate_trials"):
        m[f"{name}.calls"] = spans.calls(name)
        m[f"{name}.busy_s"] = spans.busy(name)
    m["linalg.factorizations_per_item"] = spans.calls("linalg.cho_factor") / items
    asym_calls = spans.counts.get("asymptotics.asymptotic_performance", 0)
    m["asymptotics.distinct_inputs_ratio"] = (
        spans.distinct.get("asymptotics.asymptotic_performance", 0) / asym_calls if asym_calls else 0.0
    )

    normals = sum(s["attrs"]["n"] for s in spans.by_name["montecarlo.standard_normal"])
    rng_busy = spans.busy("montecarlo.standard_normal")
    m["montecarlo.normals"] = normals
    m["montecarlo.normals_per_s"] = normals / rng_busy if rng_busy else 0.0
    m["montecarlo.statistic_self_s"] = spans.self_busy("montecarlo.count_errors")
    chunks = spans.by_name["montecarlo.count_errors"]
    if chunks:
        window = max(s["end"] for s in chunks) - min(s["start"] for s in chunks)
        pool = wl.workers or 1
        m["montecarlo.worker_idle_frac"] = 1.0 - spans.busy("montecarlo.count_errors") / (pool * window)
    else:
        m["montecarlo.worker_idle_frac"] = 0.0
    # S @ z and the weight dot product, 2 flops per multiply-add, from array sizes
    m["montecarlo.matmul_gflop"] = sum(
        2.0 * s["attrs"]["n"] * s["attrs"]["N"] * (s["attrs"]["Ns"] + 1)
        for s in spans.by_name["montecarlo.simulate_trials"]
    ) / 1e9

    for name in ("quadratic_form_convergence", "diagonal_term_experiment", "cross_term_experiment",
                 "mil_residual_experiment"):
        m[f"convergence.{name}.busy_s"] = spans.busy(f"convergence.{name}")
    m["core.validate.calls_per_item"] = spans.counts.get("core.validate", 0) / items

    m["cli.parse_config.s"] = spans.busy("cli.parse_config")
    m["cli.run.self_s"] = spans.self_busy("cli.run")
    m["cli.csv_bytes"] = len(base.csv or b"")
    m["cli.parallel_speedup"] = rate(base) / rate(single) if single else 0.0
    m["process.cpu_s"] = base.cpu_s
    m["process.cpu_per_wall"] = base.cpu_s / base.wall_s
    m["trace.overhead_frac"] = rate(base) / rate(traced) - 1.0
    return m


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2**64)")
    if not (SRC / "cdmafusion" / "__init__.py").is_file():
        print(f"error: no cdmafusion package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    # A terminated benchmark still kills and reaps the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(wl, work)
        env = bench.environment()
        values = (per_layer if args.trace else end_to_end)(bench, args.seconds)
        attempted, failed, digest = bench.verdict()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    missing = sorted({d["name"] for d in declared} - set(values))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    for name, metric in metrics.items():
        print(f"{wl.name:>10}  {name:<44} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(f"{wl.name:>10}  {'failed_frac':<44} {failed / attempted:>14.6g} ratio", file=sys.stderr)
    env.update(workload=wl.name, seed=args.seed, git_commit=_git_commit(), items=wl.items,
               workers=wl.workers, smoke=args.smoke, output_sha256=digest)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
