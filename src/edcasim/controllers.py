"""Contention-window adaptation: target operating point, PI gains, and the
centralized (AP-driven) and distributed (per-station) controller steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .phy import PhyProfile, collision_duration


# Every controller a scenario may name; `engine.ControlPlane` says what each does.
CONTROLLERS = ("cac", "dac", "edca-static")


@dataclass(frozen=True)
class PiGains:
    k_p: float
    k_i: float


class ControllerState(NamedTuple):
    """PI controller state tracked across beacon intervals: an immutable
    value, built by keyword or position and compared by value.

    The recurrence runs on the unquantized cw_real; quantization to a power
    of 2 happens only at commit time.
    """

    gains: PiGains
    cw_floor: int
    cw_ceiling: int
    cw_real: float
    cw_quantized: int
    prev_error: float = 0.0


def compute_p_opt(profile: PhyProfile, collision_payload: int) -> float:
    """Target collision probability 1 - exp(-sqrt(2*Te/Tc)), with Te the idle
    slot and Tc the collision duration for the configured payload.

    Independent of the number of stations.
    """
    t_c = collision_duration(profile, collision_payload)
    return 1.0 - math.exp(-math.sqrt(2.0 * profile.slot_time / t_c))


def compute_gains(p_opt: float, m: int) -> PiGains:
    """PI gains from the target collision probability and backoff-stage count.

    Valid for p_opt < 0.5 where the geometric term stays benign.
    """
    if not 0.0 < p_opt < 0.5:
        raise ValueError(f"p_opt={p_opt} outside the (0, 0.5) design envelope")
    if m < 1:
        raise ValueError("m must be >= 1")
    geo = sum((2.0 * p_opt) ** k for k in range(m))
    den = p_opt * p_opt * (1.0 + p_opt * geo)
    return PiGains(k_p=0.8 / den, k_i=0.4 / (0.85 * den))


def pi_update(state: ControllerState, error: float | None) -> ControllerState:
    """One velocity-form PI step on the unquantized window, committing its
    nearest power of 2 in log space (half-way exponents round half to even,
    as rint() does), clamped to the bounds. A deferred estimate (error is
    None) leaves the state untouched, including the stored previous error.
    """
    if error is None:
        return state
    g, floor, ceiling, cw, _, prev = state
    cw = cw + g.k_p * error + (g.k_i - g.k_p) * prev
    # Each clamp is a conditional, not `min(max(...))`, and `tuple.__new__`
    # builds the state without the generated `__new__`'s Python call: this
    # runs once per station per beacon under DAC.
    cw = float(floor) if cw < floor else float(ceiling) if cw > ceiling else cw
    q = 1 << round(math.log2(cw))
    q = floor if q < floor else ceiling if q > ceiling else q
    return tuple.__new__(ControllerState, (g, floor, ceiling, cw, q, error))


def initial_state(gains: PiGains, cw_floor: int, cw_ceiling: int) -> ControllerState:
    """Cold start: window at the floor, no accumulated error."""
    return ControllerState(gains=gains, cw_floor=cw_floor, cw_ceiling=cw_ceiling,
                           cw_real=float(cw_floor), cw_quantized=cw_floor)


def cac_step(p_obs: float | None, state: ControllerState,
             p_opt: float) -> ControllerState:
    """Centralized update at the AP on the error p_obs - p_opt; the new state's
    `cw_quantized` is the window to broadcast. A deferred estimate (None)
    returns the state unchanged, and its window is rebroadcast."""
    return pi_update(state, None if p_obs is None else p_obs - p_opt)


def dac_step(p_obs: float | None, p_own: float | None, state: ControllerState,
             p_opt: float) -> ControllerState:
    """Distributed update at one station on the error (p_obs - p_opt) +
    (p_obs - p_own): a collision term, and a fairness term that pushes a
    station colliding less than it observes toward a larger window. Defers
    (returns the state) whenever either estimate is None for the interval."""
    if p_obs is None or p_own is None:
        return state   # as `pi_update` returns it for a deferred error
    return pi_update(state, 2.0 * p_obs - p_own - p_opt)
