"""802.11 EDCA channel-access simulator with adaptive contention-window control."""

from .controllers import (ControllerState, OptimalPoint, PiGains, cac_error,
                          cac_step, compute_gains, compute_p_opt, dac_error,
                          dac_step, effective_cw_max, pi_update, quantize_cw)
from .engine import FrameRecord, RunResult
from .estimators import BeaconCounters, estimate_p_obs, estimate_p_own
from .harness import (ExperimentResult, emit_outputs, jain_index, pearson_r,
                      run_experiment, run_once, sweep)
from .mac import CaptureModel, Station, TrafficSource, run_slot, resolve_capture
from .oracle import FixedPointSolution, cw_targeted_by_p, optimal_cw_bruteforce, solve_fixed_point
from .phy import (BUILTIN_PROFILES, FrameSpec, PhyProfile, collision_duration,
                  get_profile, success_duration)
from .scenario import (PRESETS, ConfigError, Scenario, emit_scenario, get_preset,
                       hidden_node_visibility, load_scenario, parse_scenario)

__version__ = "0.1.0"
