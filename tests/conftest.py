"""Session header: the numerical environment the timings and tolerances ran in.

The timing checks (C13) depend on the BLAS library and its thread count, so
the log of every run names them, and the linalg path the package took:
numpy's LAPACK gufuncs or the public numpy.linalg fallback.
"""

import os

import numpy as np

from riscoupling.channel import LINALG_PATH


def _environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):        # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"numpy {np.__version__}, BLAS {blas}, OPENBLAS_NUM_THREADS={threads}, "
            f"linalg {LINALG_PATH}")


def pytest_report_header(config):
    return _environment()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:      # -q drops the header
        terminalreporter.write_line(_environment())
