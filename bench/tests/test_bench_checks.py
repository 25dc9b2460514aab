"""Each benchmark check rejects one deliberately wrong output and accepts the right one.

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from riscoupling import RisState, Scenario, build_los_scenario, optimize  # noqa: E402


@pytest.fixture(scope="module")
def converged_run():
    """A small SISO run that converges well inside the sweep cap."""
    s = Scenario(n=5, spacing=0.3, alpha_tx=0.4, alpha_rx=2.1)
    res = optimize(build_los_scenario(s), RisState.zeros(s.n))
    assert res.converged
    return checks.siso_blocks(s), res


def test_decoupled_row_off_by_1e3_is_rejected():
    s = Scenario(n=8, spacing=0.1, alpha_tx=0.0, alpha_rx=np.pi)
    ref = verify.load_reference()
    exact = ref[(s.n, s.spacing, s.alpha_tx, s.alpha_rx, s.gamma_loss)]
    assert verify._check_closed_form("Decoupled", s, [(-1, exact, ())], ref) is None
    off = exact * (1 + 1e-3)
    assert verify._check_closed_form("Decoupled", s, [(-1, off, ())], ref) is not None


def test_reference_holds_the_extended_precision_end_fire_value():
    ref = verify.load_reference()
    gain = ref[(8, 0.05, 0.0, np.pi, 0.0)]
    assert abs(gain - 4029.58318343) < 1e-6


def test_decoupled_row_without_reference_is_rejected():
    s = Scenario(n=64, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi)
    assert verify._check_closed_form("Decoupled", s, [(-1, 1e4, ())], verify.load_reference()) is not None


def test_trace_dip_beyond_c07_slack_is_rejected():
    trace = np.linspace(1.0, 2.0, 50) * 1e3
    assert checks.monotone(trace) is None
    flat = trace.copy()
    flat[20] = flat[19] * (1 - 5e-13)          # within the slack
    flat[21:] = flat[20]
    assert checks.monotone(flat) is None
    dipped = trace.copy()
    dipped[30] = dipped[29] * (1 - 1e-11)
    assert checks.monotone(dipped) is not None


def test_rank_one_and_dense_traces_1e8_apart_are_rejected():
    dense = np.linspace(1.0, 3.0, 40)
    assert checks.traces_agree(dense * (1 + 1e-11), dense) is None
    fast = dense.copy()
    fast[17] *= 1 + 1e-8
    assert checks.traces_agree(fast, dense) is not None


def test_traces_of_different_lengths_are_rejected():
    dense = np.linspace(1.0, 3.0, 40)
    longer = np.append(dense, dense[-1])
    assert checks.traces_agree(longer, dense) is not None
    assert checks.traces_agree(dense[:-1], dense) is not None


def test_final_gain_not_matching_its_reactances_is_rejected(converged_run):
    b, res = converged_run
    final = float(res.trace[-1])
    assert checks.final_matches_state(final, b, res.state.x, se=False) is None
    assert checks.final_matches_state(final * (1 + 1e-6), b, res.state.x, se=False) is not None
    moved = res.state.x.copy()
    moved[2] += 1.0
    assert checks.final_matches_state(final, b, moved, se=False) is not None


def test_converged_state_beaten_by_a_grid_point_is_rejected(converged_run):
    b, res = converged_run
    assert checks.coordinate_optimal(b, res.state.x, se=False) is None
    moved = res.state.x.copy()
    moved[1] += 0.5 * b["z_r"][0, 0].real
    assert checks.coordinate_optimal(b, moved, se=False) is not None


def test_grid_check_covers_the_spectral_efficiency_objective():
    rng = np.random.default_rng(3)
    k, m, n = 2, 3, 5
    b = {"z_ds": rng.standard_normal((k, m)) + 0j,
         "z_dr": 4 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))),
         "z_rs": 4 * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))),
         "z_r": checks.coupling_matrix(n, 0.3, 50.0)}
    # the all-zero state is not a coordinate-wise maximum of a random channel
    assert checks.coordinate_optimal(b, np.zeros(n), se=True) is not None


def test_no_coupling_and_ignore_mc_closed_forms():
    s = Scenario(n=6, spacing=0.35, alpha_tx=0.7, alpha_rx=2.0)
    ref = verify.load_reference()
    nc = checks.no_coupling_gain(s.n, s.spacing, s.alpha_tx, s.alpha_rx)
    assert verify._check_closed_form("NoCoupling", s, [(-1, nc, ())], ref) is None
    assert verify._check_closed_form("NoCoupling", s, [(-1, nc * (1 + 1e-6), ())], ref) is not None
    im, _ = checks.ignore_mc_gain(s)
    assert verify._check_closed_form("IgnoreMC", s, [(-1, im, ())], ref) is None
    assert verify._check_closed_form("IgnoreMC", s, [(-1, im * (1 + 1e-6), ())], ref) is not None


def test_honest_convergence():
    assert checks.honest_convergence(True, 40, 500) is None
    assert checks.honest_convergence(False, 500, 500) is None
    assert checks.honest_convergence(True, 500, 500) is not None
    assert checks.honest_convergence(False, 40, 500) is not None


def test_an_operation_that_raises_is_a_failure():
    op = workloads.Op("draw0", "ElementWise", Scenario(n=3, spacing=0.3, alpha_tx=0.5, alpha_rx=1.0))
    inputs = workloads.Inputs("ew_random", [], [op])
    raised = workloads.Raised("NumericallySingularError: planted")
    verdicts, objectives, _ = verify.verify_ops(inputs, {("draw0", "ElementWise"): raised})
    assert verdicts[("draw0", "ElementWise")].startswith("raised NumericallySingularError")
    assert objectives == []
