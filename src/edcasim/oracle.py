"""Independent saturation-throughput model used to validate the controllers.

Solves the classic decoupled fixed point for n saturated stations: each
attempt collides with a constant probability p, and the per-slot transmission
probability tau follows from the binary-exponential-backoff chain. The model
ignores retry-limit drops (infinite-retry variant).
"""

from __future__ import annotations

from dataclasses import dataclass

from .phy import PhyProfile, collision_duration, success_duration

_RESIDUAL = 1e-12
_MAX_BISECT = 200


@dataclass(frozen=True)
class FixedPointSolution:
    tau: float          # per-station transmission probability per slot
    p: float            # conditional collision probability
    throughput: float   # total saturation throughput [Mbps]


def backoff_tau(p: float, cw_min: int, m: int) -> float:
    """Per-slot transmission probability of a saturated station.

    With m = 0 the window never doubles and tau reduces to 2/(W+1).
    """
    w = float(cw_min)
    if m == 0:
        return 2.0 / (w + 1.0)
    num = 2.0 * (1.0 - 2.0 * p)
    den = (1.0 - 2.0 * p) * (w + 1.0) + p * w * (1.0 - (2.0 * p) ** m)
    return num / den


def solve_fixed_point(n: int, cw_min: int, m: int, profile: PhyProfile,
                      payload: int) -> FixedPointSolution:
    """Solve tau/p jointly and evaluate total throughput.

    Bisection on p: g(p) = p - (1 - (1 - tau(p))^(n-1)) is increasing because
    tau decreases with p, so the root is unique.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cw_min < 1:
        raise ValueError("cw_min must be >= 1")

    if n == 1:
        tau, p = backoff_tau(0.0, cw_min, m), 0.0
    else:
        lo, hi = 0.0, 1.0 - 1e-15
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            tau = backoff_tau(mid, cw_min, m)
            implied = 1.0 - (1.0 - tau) ** (n - 1)
            if implied > mid:
                lo = mid
            else:
                hi = mid
            if hi - lo < _RESIDUAL:
                break
        p = 0.5 * (lo + hi)
        tau = backoff_tau(p, cw_min, m)
        if abs(p - (1.0 - (1.0 - tau) ** (n - 1))) > 1e-9:
            raise RuntimeError(f"fixed point did not converge for n={n}, cw={cw_min}")

    t_e = float(profile.slot_time)
    t_s = success_duration(profile, payload)
    t_c = collision_duration(profile, payload)
    p_tr = 1.0 - (1.0 - tau) ** n
    p_s = n * tau * (1.0 - tau) ** (n - 1) / p_tr if p_tr > 0 else 0.0
    cycle = (1.0 - p_tr) * t_e + p_tr * p_s * t_s + p_tr * (1.0 - p_s) * t_c
    throughput = p_tr * p_s * (8.0 * payload) / cycle  # bits/us == Mbps
    return FixedPointSolution(tau=tau, p=p, throughput=throughput)


def cw_grid(profile: PhyProfile) -> list[int]:
    grid, cw = [], profile.cw_floor
    while cw <= profile.cw_ceiling:
        grid.append(cw)
        cw *= 2
    return grid


def optimal_cw_bruteforce(n: int, profile: PhyProfile, payload: int) -> int:
    """Power-of-2 window that maximizes model throughput for n stations."""
    if n < 2:
        raise ValueError("n must be >= 2")
    best_cw, best_s = None, -1.0
    for cw in cw_grid(profile):
        s = solve_fixed_point(n, cw, profile.m_backoff_stages, profile,
                              payload).throughput
        if s > best_s:
            best_cw, best_s = cw, s
    return best_cw


def cw_targeted_by_p(p_target: float, n: int, profile: PhyProfile, payload: int) -> int:
    """Grid window whose fixed-point collision probability is nearest p_target."""
    m = profile.m_backoff_stages
    return min(cw_grid(profile),
               key=lambda cw: abs(solve_fixed_point(n, cw, m, profile, payload).p
                                  - p_target))
