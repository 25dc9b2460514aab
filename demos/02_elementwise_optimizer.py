"""Element-wise reactance optimization with rank-one channel updates.

Reproduces the Fig. 3-style convergence experiment: an end-fire N = 4 RIS at
quarter-wavelength spacing, optimized one element at a time.  Each single-
element update is globally optimal in closed form, so the objective trace is
non-decreasing; the rank-one bookkeeping makes a full sweep O(N^3) instead of
the O(N^4) of dense re-inversion.  The naive dense optimizer is run alongside
as an oracle: both produce the same trajectory to floating-point accuracy.
"""

import time

import numpy as np

from riscoupling import (
    OptimizerConfig,
    RisState,
    Scenario,
    build_los_scenario,
    closed_form_siso,
    ignore_mc_gain,
    naive_elementwise,
    optimize,
    single_element_gain,
)

scenario = Scenario(n=4, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi)
ch = build_los_scenario(scenario)
norm = single_element_gain(scenario)

result = optimize(ch, RisState.zeros(scenario.n))
naive = naive_elementwise(ch, RisState.zeros(scenario.n))

print("=== convergence trace (normalized array gain per sweep) ===")
per_sweep = result.trace[np.concatenate(([0], result.sweep_ends))]  # start, then each sweep
for i, g in enumerate(per_sweep):
    if i <= 10 or i % 10 == 0 or i == len(per_sweep) - 1:
        print(f"sweep {i:3d}: {g / norm:10.4f}")
print(f"converged: {result.converged} after {result.sweeps} sweeps")

print()
print("=== rank-one vs dense-reinversion oracle ===")
print(f"trace entries: rank-one {result.trace.size}, dense {naive.trace.size}")
m = min(result.trace.size, naive.trace.size)
rel = np.abs(result.trace[:m] - naive.trace[:m]) / np.abs(naive.trace[:m])
print(f"largest per-entry relative difference over the first {m}: {rel.max():.2e}")

print()
print("=== where the local optimum sits ===")
decoupled = closed_form_siso(ch).gain / norm
print(f"ElementWise (local optimum):        {result.trace[-1] / norm:8.3f}")
print(f"Decoupled closed form (global):     {decoupled:8.3f}")
print(f"IgnoreMC (x = 0, no optimization):  {ignore_mc_gain(scenario):8.3f}")

print()
print("=== per-sweep cost scaling ===")
for n in (16, 32, 64):
    big = build_los_scenario(Scenario(n=n, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi))
    cfg = OptimizerConfig(max_sweeps=5, tol=0.0)
    t0 = time.perf_counter()
    res = optimize(big, RisState.zeros(n), cfg)
    per = (time.perf_counter() - t0) / res.sweeps
    print(f"N = {n:3d}: {per * 1e3:7.3f} ms per sweep")
