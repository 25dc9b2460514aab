"""RIS-aided MIMO links with mutual coupling: impedance channel model,
element-wise reactance optimization, and decoupling-network closed forms."""

from .channel import (
    ArrayFactors,
    ImpedanceChannel,
    RisState,
    Scenario,
    build_coupling_matrix,
    build_los_scenario,
    channel_gain,
    evaluate_channel,
    single_element_gain,
    spectral_efficiency,
    steering_vector,
)
from .decoupling import (
    DecouplingNetwork,
    array_gain,
    closed_form_siso,
    effective_channel,
    power_matching_network,
    reactance_to_theta,
    reactance_transform,
    theta_to_reactance,
    transformed_load,
)
from .elementwise import OptimizeResult, OptimizerConfig, optimize
from .baselines import (
    MethodId,
    grid_search_phase,
    ignore_mc_gain,
    naive_elementwise,
    no_coupling_gain,
)
from .experiments import SweepRecord, SweepSpec, parse_config, run_sweep, write_csv
from . import errors

__version__ = "0.1.0"
