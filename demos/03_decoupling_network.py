"""The power-matching decoupling network and the closed-form SISO optimum.

A lossless reciprocal 2N-port inserted between the coupled array and its
reactive loads turns the loading matrix into R I + j diag(x'): the array
behaves as if its elements were uncoupled.  That decoupled model is an
ordinary impedance channel with Z_R = R I, evaluated by the same
evaluate_channel, and in it the SISO-optimal loads follow from phase
alignment in closed form.  This script
verifies the two evaluation paths agree, then compares the closed form
against the element-wise local optimum.
"""

import numpy as np

from riscoupling import (
    RisState,
    Scenario,
    build_los_scenario,
    channel_gain,
    closed_form_siso,
    effective_channel,
    evaluate_channel,
    power_matching_network,
    reactance_transform,
    single_element_gain,
    theta_to_reactance,
    transformed_load,
)

scenario = Scenario(n=4, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi)
ch = build_los_scenario(scenario)
norm = single_element_gain(scenario)

print("=== dual-path evaluation of the decoupled model ===")
rng = np.random.default_rng(3)
x = rng.uniform(20.0, 300.0, scenario.n) * rng.choice([-1.0, 1.0], scenario.n)

# Path 1: terminate the explicit network in j diag(x) and evaluate the full
# coupled channel with the transformed load.
net = power_matching_network(ch.z_r, ch.R)
z_load = transformed_load(net, RisState(x))
z_full = ch.z_ds - ch.z_dr @ np.linalg.solve(ch.z_r + z_load, ch.z_rs)

# Path 2: evaluate the decoupled model (Z_R = R I, whitened blocks) at x' = -R^2 / x.
eff = effective_channel(ch)
z_eff = evaluate_channel(eff, RisState(reactance_transform(x, ch.R)))

print("explicit network:  z =", complex(z_full[0, 0]))
print("decoupled model:   z =", complex(z_eff[0, 0]))
print("relative deviation:", f"{abs(z_full[0,0] - z_eff[0,0]) / abs(z_eff[0,0]):.2e}")

print()
print("=== closed-form SISO optimum ===")
sol = closed_form_siso(ch)
print("optimal reflection phases (deg):", np.degrees(np.angle(sol.theta)).round(2))
print("equivalent load reactances x': ", sol.x.round(2))
print(f"normalized array gain:          {sol.gain / norm:.4f}")

# Plugging the closed-form loads back into the decoupled model reproduces the
# predicted gain, confirming the phase map theta = (j x - R)/(j x + R).
z_check = evaluate_channel(eff, RisState(theta_to_reactance(sol.theta, eff.R)))
print("re-evaluated at the solution:  ",
      f"{channel_gain(z_check) / norm:.4f}")

print()
print("=== why decoupling matters at tight spacing ===")
print(f"{'spacing':>8} {'decoupled gain':>15} {'N^2 reference':>14}")
for d in (0.5, 0.25, 0.1, 0.05):
    s = Scenario(n=4, spacing=d, alpha_tx=0.0, alpha_rx=np.pi)
    g = closed_form_siso(build_los_scenario(s)).gain / norm
    print(f"{d:8.2f} {g:15.2f} {16.0:14.1f}")
