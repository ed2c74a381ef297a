"""Set-up probe: a fresh process that does what every CLI run does before its
first step, and nothing more.

    python3 perfbench/probe.py [--env] CONFIG...

It imports the CLI (which imports every geoschro module), then for each
config runs parse_config, build_hamiltonian and build_initial_state.  The
caller times the whole process.  With ``--env`` it prints the runtime
environment as one JSON line afterwards; that run is the untimed warm-up.
"""

import ctypes
import glob
import json
import os
import platform
import sys

import geoschro.cli  # noqa: F401  (the entry point; it imports every module)
from geoschro.config import build_hamiltonian, build_initial_state, parse_config


def _blas_threads():
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GEOSCHRO_THREADS": os.environ.get("GEOSCHRO_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv: list[str]) -> int:
    want_env = argv[:1] == ["--env"]
    for path in argv[1:] if want_env else argv:
        config = parse_config(path)
        build_hamiltonian(config)
        build_initial_state(config)
    if want_env:
        print(json.dumps({"env": _environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
