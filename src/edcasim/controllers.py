"""Contention-window adaptation: target operating point, PI gains, and the
centralized (AP-driven) and distributed (per-station) controller steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .phy import PhyProfile, collision_duration


@dataclass(frozen=True)
class OptimalPoint:
    """Throughput-maximizing collision probability and the timings behind it."""

    p_opt: float
    t_e: float            # idle slot [us]
    t_c: float            # collision duration [us]


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


def compute_p_opt(profile: PhyProfile, collision_payload: int) -> OptimalPoint:
    """Target collision probability 1 - exp(-sqrt(2*Te/Tc)).

    Independent of the number of stations; depends only on the idle slot and
    the collision cost for the configured payload.
    """
    t_c = collision_duration(profile, collision_payload)
    t_e = float(profile.slot_time)
    p = 1.0 - math.exp(-math.sqrt(2.0 * t_e / t_c))
    return OptimalPoint(p_opt=p, t_e=t_e, t_c=t_c)


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


def cac_error(p_obs: float, p_opt: float) -> float:
    """Centralized error signal: positive when the network collides too much."""
    return p_obs - p_opt


def dac_error(p_obs_i: float, p_own_i: float, p_opt: float) -> float:
    """Distributed error signal: collision term plus fairness term.

    (p_obs - p_opt) drives the network to the target point; (p_obs - p_own)
    pushes stations that collide less than they observe toward larger windows.
    """
    return 2.0 * p_obs_i - p_own_i - p_opt


def quantize_cw(cw_real: float, cw_floor: int, cw_ceiling: int) -> int:
    """Nearest power of 2 in log space, clamped to the configured bounds.

    Half-way exponents resolve by round-half-to-even, matching rint().
    """
    exponent = round(math.log2(cw_real))  # banker's rounding on the exponent
    cw = 2 ** exponent
    return min(max(cw, cw_floor), cw_ceiling)


def pi_update(state: ControllerState, error: float | None) -> ControllerState:
    """One velocity-form PI step on the unquantized window.

    A deferred estimate (error is None) leaves the state untouched, including
    the stored previous error.
    """
    if error is None:
        return state
    g, floor, ceiling, cw, _, prev = state
    cw = cw + g.k_p * error + (g.k_i - g.k_p) * prev
    cw = min(max(cw, float(floor)), float(ceiling))
    return ControllerState(g, floor, ceiling, cw, quantize_cw(cw, floor, ceiling), error)


def initial_state(gains: PiGains, cw_floor: int, cw_ceiling: int) -> ControllerState:
    """Cold start: window at the floor, no accumulated error."""
    return ControllerState(gains=gains, cw_floor=cw_floor, cw_ceiling=cw_ceiling,
                           cw_real=float(cw_floor), cw_quantized=cw_floor)


def cac_step(p_obs: float | None, state: ControllerState,
             p_opt: float) -> ControllerState:
    """Centralized update at the AP from its `p_obs` estimate; the new
    state's `cw_quantized` is the window to broadcast.

    When the estimate defers (None), the state comes back unchanged and its
    window is rebroadcast.
    """
    return pi_update(state, None if p_obs is None else cac_error(p_obs, p_opt))


def dac_step(p_obs: float | None, p_own: float | None, state: ControllerState,
             p_opt: float) -> ControllerState:
    """Distributed update at one station from its own two estimates,
    committed locally only.

    Defers whenever either estimate is unavailable (None) for the interval.
    """
    if p_obs is None or p_own is None:
        return pi_update(state, None)
    return pi_update(state, dac_error(p_obs, p_own, p_opt))
