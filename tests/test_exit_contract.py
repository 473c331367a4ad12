"""The CLI's exit-code contract, over configs spread across the float range.

draw_config builds a config document of any mode from a random.Random, with
P, m, sigma_w2 and sigma_v2 log-uniform over every positive double, from
5e-324 to 1.6e308 (sigma_v2 = 0 half the time), N and Ns from {1, 2, 8} and every detector.  check_run
parses and runs it in process through cli.run, with warnings raised as
errors, and returns the exit code and stderr after checking the contract:

- exit 0: nothing on stderr, and no nan in the CSV except converge's
  rel_error where predicted is 0;
- exit 1: a configuration error, a parameter check, or converge's rule
  that sigma_v2 > 0;
- exit 2: one "numerical failure:" line, and no file written.

The same generator drives ad-hoc searches: seed a random.Random and call
draw_config in a loop.
"""

import contextlib
import io
import json
import random
import warnings

import hypothesis
import hypothesis.strategies as st

from cdmafusion import DomainError, InvalidParam, ParseError, cli

_SIZES = (1, 2, 8)
_LOADS = (0.5, 1.0, 2.0)
# the documented rules a run can break after its config parsed: a parameter
# check (InvalidParam names the parameter, its value and the rule it violates),
# such as a load that rounds to zero sensors at some grid N, and converge's own
_RULES = (" violates: ", "convergence experiments require sigma_v2 > 0")


def _decades(rng: random.Random) -> float:
    # log-uniform over every positive double, subnormals included: 10^-323.5
    # rounds to the least one, 5e-324, and 10^308.2 is below the largest
    return 10.0 ** rng.uniform(-323.5, 308.2)


def _ascending(rng: random.Random, pool) -> list:
    return sorted(rng.sample(pool, rng.randint(1, len(pool))))


def draw_config(rng: random.Random) -> dict:
    """A config document of a random mode; every key the mode reads is drawn."""
    mode = rng.choice(cli.MODES)
    params = {"N": rng.choice(_SIZES), "Ns": rng.choice(_SIZES), "P": _decades(rng), "m": _decades(rng),
              "sigma_v2": rng.choice([0.0, _decades(rng)]), "sigma_w2": _decades(rng),
              "p0": rng.choice([0.5, rng.uniform(0.01, 0.99)])}
    criterion = rng.choice(("bayes", "np", "fixed"))
    detector = {"criterion": criterion}
    if criterion == "np":
        detector["alpha_fa"] = rng.uniform(1e-3, 0.5)
    elif criterion == "fixed":
        detector["tau_prime"] = rng.choice([0.0, rng.uniform(-5.0, 5.0), rng.choice([-1, 1]) * _decades(rng)])
    doc = {"mode": mode, "seed": rng.randrange(2**32), "params": params, "detector": detector}
    if mode == "montecarlo":
        doc["mc"] = {"trials": rng.randint(1, 2000), "workers": rng.choice([1, 2])}
    if mode in ("converge", "sweep-grid", "sweep-limits"):
        doc["grid"] = {"N": _ascending(rng, _SIZES)}
    if mode == "converge":
        doc["grid"]["seeds"] = rng.randint(1, 2)
    if mode in ("sweep-grid", "sweep-limits"):
        doc["grid"]["alpha"] = _ascending(rng, _LOADS)
    if mode == "sweep-grid":
        doc["grid"]["seeds"] = rng.randint(1, 2)
    return doc


def _nan_cells(text: str) -> list:
    """(column, row) of every nan cell, converge's rel_error at predicted 0 aside."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    bad = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for column, cell in row.items():
            if cell == "nan" and not (column == "rel_error" and float(row["predicted"]) == 0.0):
                bad.append((column, line))
    return bad


def check_run(doc: dict, out) -> tuple[int, str]:
    """(exit code, stderr) of one config run in process, the contract checked."""
    out.unlink(missing_ok=True)
    doc = dict(doc, output=str(out))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            config = cli.parse_config(json.dumps(doc))
        except (ParseError, InvalidParam, DomainError) as exc:
            return 1, f"error: {exc}\n"
        code = cli.run(config, quiet=True)
    err = err.getvalue()
    if code == 0:
        assert err == ""
        assert _nan_cells(out.read_text()) == []
    elif code == 1:
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert any(rule in err for rule in _RULES), err
        assert not out.exists()
    else:
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("numerical failure: "), err
        assert not out.exists()
    return code, err


@hypothesis.seed(20261019)
@hypothesis.settings(max_examples=2000, deadline=None, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(rng=st.randoms(use_true_random=False))
def test_every_run_keeps_the_exit_code_contract(rng, tmp_path):
    check_run(draw_config(rng), tmp_path / "out.csv")


def test_generator_reaches_every_mode_and_exit_code(tmp_path):
    # the property above is only as strong as its configs: on a fixed seed they
    # cover every mode, and runs end in each of the three exit codes
    rng = random.Random(7)
    docs = [draw_config(rng) for _ in range(200)]
    assert {doc["mode"] for doc in docs} == set(cli.MODES)
    codes = {check_run(doc, tmp_path / "out.csv")[0] for doc in docs}
    assert codes == {0, 1, 2}
