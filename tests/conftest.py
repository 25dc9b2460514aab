"""Shared test inputs, and a session header naming the numerical environment
the timings and tolerances ran in.

The timing checks (C13) depend on the BLAS library, so the log of every run
names it and the caller's thread count; sweeps set their own (one_blas_thread).
"""

import os

import numpy as np
import pytest

from riscoupling import ArrayFactors, ImpedanceChannel, Scenario, build_coupling_matrix
from riscoupling.channel import blas_threads

# Draw 40 of the acceptance fixture: coordinate ascent alone needs about 3800
# sweeps and stands at 0.615 of Decoupled after 500, so the end-of-sweep
# acceleration step engages and keeps steps.
SLOW_RIDGE = Scenario(n=5, spacing=0.16340238753657976, alpha_tx=0.3288973559887411,
                      alpha_rx=0.6262066822143726, gamma_dr=0.6984385854177759,
                      gamma_rs=0.8436008778516497)


@pytest.fixture(autouse=True)
def empty_factors_slot():
    """Each test starts with no array's factors kept, so counts of factorisations
    and traced calls do not depend on the test run before it."""
    ArrayFactors._last = None


def end_fire(n, spacing, gamma_loss=0.0):
    """A line scenario with both links along the array axis, from opposite ends."""
    return Scenario(n=n, spacing=spacing, alpha_tx=0.0, alpha_rx=np.pi, gamma_loss=gamma_loss)


def front_fire(n, spacing, gamma_loss=0.0):
    """A line scenario with both links broadside to the array."""
    return Scenario(n=n, spacing=spacing, alpha_tx=np.pi / 2, alpha_rx=np.pi / 2,
                    gamma_loss=gamma_loss)


def random_channel(rng, n, k=1, m=1, spacing=0.3):
    """A K x M link with Gaussian blocks over an N-element ULA's coupling matrix."""
    z_r = build_coupling_matrix(n, spacing, 50.0)
    z = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ImpedanceChannel(z(k, m), 50.0 * z(k, n), 50.0 * z(n, m), z_r, 50.0)


def _environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):        # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"numpy {np.__version__}, BLAS {blas}, OPENBLAS_NUM_THREADS={threads}, "
            f"BLAS threads {blas_threads()} outside sweeps")


def pytest_report_header(config):
    return _environment()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:      # -q drops the header
        terminalreporter.write_line(_environment())
