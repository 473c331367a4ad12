"""Run the cdmafusion CLI in-process with a timing wrapper at every layer boundary.

    python perfbench/traced.py SPANS_JSON RUN_ID -- CLI_ARGS...

Rebinds the public functions of each package module, a few kernel helpers
of the Monte Carlo layer, and the scipy Cholesky calls the package imports,
then calls cdmafusion.cli.main(CLI_ARGS).  Every module attribute that is the
original object is replaced, so names imported with `from x import y` are
traced too.  Spans and counters go to SPANS_JSON when main returns; the
process exits with main's exit code.
"""

from __future__ import annotations

import math
import sys

import scipy.linalg

from tracing import Tracer

import cdmafusion
from cdmafusion import asymptotics, cli, convergence, core, exact, montecarlo, spreading

_MODULES = (cdmafusion, asymptotics, cli, convergence, core, exact, montecarlo, spreading)


def _rebind(original, replacement) -> None:
    for mod in _MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(shape) -> int:
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


class _TimedGenerator:
    """Stands in for a chunk's numpy Generator so its normal draws are timed."""

    def __init__(self, tracer: Tracer, rng):
        self.standard_normal = tracer.wrap(
            "montecarlo.standard_normal", rng.standard_normal,
            lambda a, k: {"n": _size(_arg(a, k, 0, "size"))},
        )


def install(tracer: Tracer) -> None:
    def params_n(a, k):
        return {"N": _arg(a, k, 0, "params").N}

    def trials(a, k):
        params = _arg(a, k, 0, "params")
        return {"N": params.N, "Ns": params.Ns, "n": _arg(a, k, 3, "n_trials")}

    spans = [
        ("spreading.generate", spreading.generate, None),
        ("exact.exact_performance", exact.exact_performance, params_n),
        ("exact.channel_covariance", exact.channel_covariance, None),
        ("exact.quadratic_form", exact.quadratic_form, None),
        ("linalg.cho_factor", scipy.linalg.cho_factor, None),
        ("linalg.cho_solve", scipy.linalg.cho_solve, None),
        ("asymptotics.asymptotic_performance", asymptotics.asymptotic_performance, None),
        ("montecarlo.count_errors", montecarlo._count_errors, None),
        ("montecarlo.simulate_trials", montecarlo.simulate_trials, trials),
        ("convergence.quadratic_form_convergence", convergence.quadratic_form_convergence, None),
        ("convergence.diagonal_term_experiment", convergence.diagonal_term_experiment, None),
        ("convergence.cross_term_experiment", convergence.cross_term_experiment, None),
        ("convergence.mil_residual_experiment", convergence.mil_residual_experiment, None),
        ("cli.parse_config", cli.parse_config, None),
        ("cli.run", cli.run, None),
    ]
    # asymptotic_performance is counted as well as timed, so the distinct
    # (params, detector) pairs it sees can be compared with its calls
    counted = asymptotics.asymptotic_performance
    for name, fn, attrs in spans:
        replacement = tracer.wrap(name, fn, attrs)
        if fn is counted:
            replacement = tracer.count(name, replacement, key=lambda a, k: (a, tuple(sorted(k.items()))))
        _rebind(fn, replacement)
    _rebind(core.validate, tracer.count("core.validate", core.validate))
    chunk_rng = montecarlo._chunk_rng
    _rebind(chunk_rng, lambda *a: _TimedGenerator(tracer, chunk_rng(*a)))


def main(argv) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    tracer = Tracer(run_id)
    install(tracer)
    code = cli.main(cli_args)
    tracer.dump(spans_path, exit_code=code)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
