"""Child processes the benchmark runs next to the CLI.

    python perfbench/probe.py setup CONFIG   import the CLI and parse CONFIG
    python perfbench/probe.py env            print the environment as JSON

`setup` is what every CLI invocation pays before its first computation: a
fresh interpreter, importing cdmafusion.cli and running parse_config on the
workload config.  The benchmark times the whole process from outside.

`env` reports what the program runs on.  It is run with the same environment
as the CLI, so the BLAS thread counts are the ones the CLI gets.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys


def setup(config_path: str) -> None:
    from cdmafusion.cli import parse_config

    with open(config_path, "rb") as fh:
        parse_config(fh.read())


def _openblas(pkg) -> list[dict]:
    """Every scipy-openblas library bundled with `pkg`, queried through ctypes."""
    libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
    found = []
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        info = {"package": pkg.__name__, "library": os.path.basename(path)}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode("ascii", "replace").strip()
                break
        found.append(info)
    return found


def env() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # loads scipy's own BLAS, so ctypes gets the loaded copy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas(numpy) + _openblas(scipy),
        "thread_env": sorted(k for k in os.environ if k.endswith("_NUM_THREADS")),
    }


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif sys.argv[1:] == ["env"]:
        print(json.dumps(env()))
    else:
        raise SystemExit(__doc__)
