"""Movable-RIS mmWave link simulator.

Geometric two-hop channels, angular two-stage beamforming, swarm-optimized
RIS placement and phase shifts, and Monte Carlo baseline comparisons.
"""

from .scenario import (
    ConfigError,
    DeploymentGeometry,
    PsoParams,
    SystemConfig,
    default_config,
    noise_power,
    validate,
)
from .channel import (
    ChannelRealization,
    PathSet,
    composite_channel,
    link_channel,
    mean_angles_from_geometry,
    path_loss_linear,
)
from .beamforming import (
    AngleSupport,
    BeamformerSet,
    EffectiveChannel,
    achievable_rate,
    bb_stages,
    build_grid,
    effective_channel,
    rf_stages,
    select_beams,
)
from .optimizer import RisState, brute_force_joint, decode, pso_step, run, run_pso
from .baselines import BaselineKind, run_baseline
from .harness import RateResult, SweepSpec, monte_carlo_point, sweep, write_results

__version__ = "0.1.0"
