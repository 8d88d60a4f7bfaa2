"""Beacon-interval orchestration shared by both channel engines, the run
records they produce, and the slotted simulation loop for fully connected
topologies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

from .controllers import (ControllerState, PiGains, cac_step, compute_gains, compute_p_opt,
                          dac_step, initial_state)
from .estimators import BeaconCounters, estimate_p_obs, estimate_p_own
from .mac import CaptureModel, Station, run_slot
from .phy import PhyProfile

if TYPE_CHECKING:   # `scenario` imports CONTROLLERS from this module
    from .scenario import Scenario


@dataclass(slots=True)
class IntervalRecord:
    """Per-node controller/estimator snapshot emitted each beacon interval,
    one per station per beacon, so it keeps no per-instance dict."""

    t_ms: int
    node: str
    p_obs: float | None
    p_own: float | None
    error: float | None
    cw_real: float | None
    cw_quantized: int | None


@dataclass
class RunResult:
    duration_us: int
    delivered_bytes: dict[int, int]
    throughput_mbps: dict[int, float]
    total_mbps: float
    records: list[IntervalRecord]
    transfer_delays_us: dict[int, list[int]]
    drops: dict[int, int]
    attempts: dict[int, int]
    successes: dict[int, int]
    retries: dict[int, int]
    sniffed_flags: dict[int, tuple[int, int]]   # whole-run (r0, r1) per vantage
    snr_db: dict[int, float]                    # link SNR each station ran with

    @classmethod
    def from_stations(cls, stations: list[Station], records: list[IntervalRecord],
                      duration_us: int) -> RunResult:
        """Whole-run totals read off the stations' counters."""
        delivered = {s.id: s.successes * s.payload_bytes for s in stations}
        thr = {i: 8.0 * b / duration_us for i, b in delivered.items()}
        return cls(
            duration_us=duration_us,
            delivered_bytes=delivered,
            throughput_mbps=thr,
            total_mbps=sum(thr.values()),
            records=records,
            transfer_delays_us={s.id: list(s.traffic.transfer_delays_us)
                                for s in stations},
            drops={s.id: s.drops for s in stations},
            attempts={s.id: s.attempts for s in stations},
            successes={s.id: s.successes for s in stations},
            retries={s.id: s.retries for s in stations},
            sniffed_flags={s.id: tuple(s.sniffed) for s in stations},
            snr_db={s.id: s.snr_db for s in stations},
        )

    @property
    def station_ids(self) -> list[int]:
        return sorted(self.throughput_mbps)


CONTROLLERS = ("cac", "dac", "edca-static")


class ControlPlane:
    """Closes the control loop once per beacon and keeps what it reads and
    writes: the AP's interval tally (`ap`), each station's counters as read
    at the last beacon (`marks`), and the run's trace records (`records`).

    mode "cac": one controller at the AP, window broadcast to every station.
    mode "dac": one controller per station, committed locally.
    mode "edca-static": no adaptation; estimates are still traced.
    """

    def __init__(self, scenario: Scenario, station_ids: list[int]):
        self.mode = mode = scenario.controller
        self.profile = profile = scenario.phy()
        self.p_opt = compute_p_opt(profile, scenario.payload_bytes).p_opt
        self.min_samples = scenario.defer_min_samples
        floor, ceiling = scenario.cw_bounds()
        if mode == "edca-static":
            self.gains = None
        elif scenario.kp_override is not None:
            self.gains = PiGains(scenario.kp_override, scenario.ki_override)
        else:
            self.gains = compute_gains(self.p_opt, profile.m_backoff_stages)
        self.cac_state: ControllerState | None = (
            initial_state(self.gains, floor, ceiling) if mode == "cac" else None)
        self.dac_states: dict[int, ControllerState] = (
            {i: initial_state(self.gains, floor, ceiling) for i in station_ids}
            if mode == "dac" else {})
        self.cw_cap_hits = 0   # announced/committed window pinned at a bound
        self.ap = BeaconCounters()   # the AP's decoded frames, fed by the engine
        # station id -> its (successes, retries, drops) at the last beacon
        self.marks = dict.fromkeys(station_ids, (0, 0, 0))
        self.records: list[IntervalRecord] = []
        self._names = {i: f"sta{i}" for i in station_ids}   # trace node names

    def _record_step(self, t_ms: int, node: str, p_obs: float | None,
                     p_own: float | None, old: ControllerState,
                     new: ControllerState) -> int:
        """Record one controller step from `old` to `new` and return the
        window it commits. A window at a bound counts a cap hit; a deferred
        step, which returns the same state, records no error."""
        cw = new.cw_quantized
        if cw in (new.cw_floor, new.cw_ceiling):
            self.cw_cap_hits += 1
        self.records.append(IntervalRecord(
            t_ms, node, p_obs, p_own, new.prev_error if new is not old else None,
            new.cw_real, cw))
        return cw

    def beacon_update(self, t_ms: int, stations: list[Station], heard) -> None:
        """Close the interval: take each station's gains since the last
        beacon, step the controllers on the interval's estimates, commit
        their windows, and append the interval's records to `records`: the
        AP's, then one per station in `stations` order.

        `heard` yields each station's vantage tally, `(r0, r1)` in `stations`
        order; a station's sniffer heard it less its `missed`, which is then
        zeroed, and `sniffed` gains what it heard. Its counter gains are
        taken against `marks`, which then hold the new reading. Each station
        takes one pass: its gains, its estimates, its step, its commit and
        its record."""
        min_samples, max_retry, p_opt = self.min_samples, self.profile.max_retry, self.p_opt
        names, states, marks, records = self._names, self.dac_states, self.marks, self.records
        dac = self.mode == "dac"
        ap = self.ap
        ap_p_obs = estimate_p_obs(ap.r0, ap.r1, min_samples)
        ap.roll_interval()
        announced = None
        if self.mode == "cac":
            old = self.cac_state
            self.cac_state = new = cac_step(ap_p_obs, old, p_opt)
            announced = self._record_step(t_ms, "ap", ap_p_obs, None, old, new)
        else:
            records.append(IntervalRecord(t_ms, "ap", ap_p_obs, None, None, None, None))

        for s, (r0, r1) in zip(stations, heard):
            missed, sniffed = s.missed, s.sniffed
            r0 -= missed[0]
            r1 -= missed[1]
            missed[0] = missed[1] = 0
            sniffed[0] += r0
            sniffed[1] += r1
            p_obs = estimate_p_obs(r0, r1, min_samples)
            ok0, retried0, dropped0 = marks[s.id]
            ok, retried, dropped = marks[s.id] = s.successes, s.retries, s.drops
            p_own = estimate_p_own(ok - ok0, retried - retried0, dropped - dropped0,
                                   max_retry)
            if dac:
                old = states[s.id]
                states[s.id] = new = dac_step(p_obs, p_own, old, p_opt)
                s.commit_cw_min(self._record_step(t_ms, names[s.id], p_obs, p_own,
                                                  old, new))
            else:
                if announced is not None:
                    s.commit_cw_min(announced)
                records.append(IntervalRecord(t_ms, names[s.id], p_obs, p_own,
                                              None, None, s.cw_min_current))


def run_slotted(stations: list[Station], profile: PhyProfile,
                capture: CaptureModel, control: ControlPlane,
                duration_us: int, slot_log=None) -> RunResult:
    """Simulate a fully connected WLAN for `duration_us`, a whole number of
    beacon intervals.

    Every backlogged counter drops by one in each idle slot and freezes
    while the channel is busy, so the loop keeps one count of elapsed idle
    slots and a heap of each backlogged station's fire slot: the count at
    its draw plus the drawn counter. A station transmits when the count
    reaches its fire slot. A station with nothing to send waits in a heap
    of arrival times; an idle jump stops at the first slot boundary at or
    past the earliest arrival or the next beacon, and a countdown that runs
    out before then leads into its transmission in the same loop pass.
    Every station that does not transmit sniffs exactly the frames the AP
    decodes, so `run_slot` notes only the AP's gains during a station's own
    transmit events (`Station.missed`), and at each beacon the control
    plane takes every station's sniffed tally as the AP's less those. So a
    channel event costs O(transmitters) for both traffic kinds; only the
    set-up, the beacons and the end visit every station.

    `slot_log`, when given, receives a FrameRecord for every data frame.
    """
    ap = control.ap
    slot = profile.slot_time
    t = 0
    next_beacon = profile.beacon_interval

    idle = 0   # idle slots elapsed since the start of the run
    # (fire slot, station id, station): ties go in id order, the order of
    # `stations`, so each event resolves and logs its transmitters in order.
    fires = [(s.backoff_counter, s.id, s) for s in stations if s.backlogged]
    heapq.heapify(fires)
    # (arrival time, station id, station) of each station with nothing to send.
    arrivals = [(s.traffic.arrival_us, s.id, s) for s in stations if not s.backlogged]
    heapq.heapify(arrivals)

    while next_beacon <= duration_us:
        if t >= next_beacon:
            control.beacon_update(next_beacon // 1000, stations, repeat((ap.r0, ap.r1)))
            t += profile.beacon_airtime + profile.aifs
            next_beacon += profile.beacon_interval
            continue

        while arrivals and arrivals[0][0] <= t:
            s = heapq.heappop(arrivals)[2]
            s.activate()
            heapq.heappush(fires, (idle + s.backoff_counter, s.id, s))
        # Both lie ahead of `t`, so every idle jump is at least one slot.
        horizon = min(next_beacon, arrivals[0][0]) if arrivals else next_beacon

        if not fires:
            t = horizon
            continue

        wait = fires[0][0] - idle
        if wait > 0:
            if t + wait * slot >= horizon:
                # The jump reaches the horizon: stop at the first slot
                # boundary at or past it, and let the next pass handle it.
                jump = math.ceil((horizon - t) / slot)
                idle += jump
                t += jump * slot
                continue
            # The countdown ends before the horizon: transmit in this pass.
            idle += wait
            t += wait * slot

        transmitters = []
        while fires and fires[0][0] == idle:
            s = heapq.heappop(fires)[2]
            s.backoff_counter = 0
            transmitters.append(s)
        t += run_slot(transmitters, capture, ap, t, slot_log)
        for s in transmitters:
            if s.backlogged:
                heapq.heappush(fires, (idle + s.backoff_counter, s.id, s))
            else:
                heapq.heappush(arrivals, (s.traffic.arrival_us, s.id, s))

    for fire, _, s in fires:
        s.backoff_counter = fire - idle
    return RunResult.from_stations(stations, control.records, duration_us)
