"""Beacon-interval orchestration shared by both channel engines, the run
records they produce, and the slotted simulation loop for fully connected
topologies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat

from .controllers import (ControllerState, PiGains, cac_step, compute_gains, compute_p_opt,
                          dac_step, initial_state)
from .estimators import BeaconCounters, estimate_p_obs, estimate_p_own
from .mac import CaptureModel, Station, run_lone, run_slot
from .phy import PhyProfile
from .scenario import Scenario


@dataclass(slots=True)
class IntervalRecord:
    """A node's row of `trace.csv` at one beacon; a row tuple holds the fields after `t_ms`."""

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
    transfer_delays_us: dict[int, list[int]]
    drops: dict[int, int]
    attempts: dict[int, int]
    successes: dict[int, int]
    retries: dict[int, int]
    sniffed_flags: dict[int, tuple[int, int]]   # whole-run (r0, r1) per vantage
    snr_db: dict[int, float]                    # link SNR each station ran with

    @classmethod
    def from_stations(cls, stations: list[Station], duration_us: int) -> RunResult:
        """Whole-run totals read off the stations' counters."""
        delivered = {s.id: s.successes * s.payload_bytes for s in stations}
        thr = {i: 8.0 * b / duration_us for i, b in delivered.items()}
        return cls(
            duration_us=duration_us,
            delivered_bytes=delivered,
            throughput_mbps=thr,
            total_mbps=sum(thr.values()),
            transfer_delays_us={s.id: [] if s.saturated else
                                list(s.traffic.transfer_delays_us) for s in stations},
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


class ControlPlane:
    """Decides the window of stations 1..n: its start (`start_cw`, doubling
    if `beb`) and each beacon's commit. Keeps what it reads and writes: the
    AP's interval tally (`ap`) and each station's counters as read at the
    last beacon (`marks`). It hands each beacon's trace rows to `trace` in
    one call; without a `trace` it makes none.

    mode "cac": one controller at the AP, window broadcast to every station.
    mode "dac": one controller per station, committed locally.
    mode "edca-static": no adaptation; estimates are still traced.
    """

    def __init__(self, scenario: Scenario, trace=None):
        self.mode = mode = scenario.controller
        self.profile = profile = scenario.phy()
        self.p_opt = compute_p_opt(profile, scenario.payload_bytes)
        self.min_samples = scenario.defer_min_samples
        floor, ceiling = scenario.cw_bounds()
        ids = range(1, scenario.n_stations + 1)
        # A controller starts every window at its floor, with doubling; the
        # EDCA baseline keeps its fixed window, doubling only if asked.
        self.start_cw, self.beb = floor, True
        if mode == "edca-static":
            self.gains = None
            self.start_cw, self.beb = scenario.static_cw, scenario.static_beb
        elif scenario.kp_override is not None:
            self.gains = PiGains(scenario.kp_override, scenario.ki_override)
        else:
            self.gains = compute_gains(self.p_opt, profile.m_backoff_stages)
        self.cac_state: ControllerState | None = (
            initial_state(self.gains, floor, ceiling) if mode == "cac" else None)
        self.dac_states: dict[int, ControllerState] = (
            {i: initial_state(self.gains, floor, ceiling) for i in ids}
            if mode == "dac" else {})
        self.cw_cap_hits = 0   # announced/committed window pinned at a bound
        self.ap = BeaconCounters()   # the AP's decoded frames, fed by the engine
        # station id -> its (successes, retries, drops) at the last beacon
        self.marks = dict.fromkeys(ids, (0, 0, 0))
        self.trace = trace
        self._names = {i: f"sta{i}" for i in ids}   # trace node names

    def beacon_update(self, t_ms: int, stations: list[Station], heard) -> None:
        """Close the interval: step the controllers on the interval's
        estimates, commit their windows, and hand `trace`, if any, the rows
        in one call, `trace(t_ms, rows)`: the AP's, then each station's.

        `heard` yields each station's vantage tally, `(r0, r1)` in `stations`
        order; a station's sniffer heard it less its `missed`, which is then
        zeroed, and `sniffed` gains what it heard. Its counter gains are
        taken against `marks`, which then hold the new reading. Each station
        takes one pass: its gains, estimates, step, commit (a write of
        `cw_min_current`) and row. A window at a bound counts a cap hit; a
        deferred step returns the same state, and its row has no error."""
        min_samples, max_retry, p_opt = self.min_samples, self.profile.max_retry, self.p_opt
        names, states, marks, trace = self._names, self.dac_states, self.marks, self.trace
        dac = self.mode == "dac"
        rows = None if trace is None else []
        hits = 0
        ap = self.ap
        ap_p_obs = estimate_p_obs(ap.r0, ap.r1, min_samples)
        ap.roll_interval()
        announced = None
        if self.mode == "cac":
            old = self.cac_state
            self.cac_state = new = cac_step(ap_p_obs, old, p_opt)
            _, floor, ceiling, cw_real, announced, error = new
            hits += announced == floor or announced == ceiling
            if rows is not None:
                rows.append(("ap", ap_p_obs, None, error if new is not old else None,
                             cw_real, announced))
        elif rows is not None:
            rows.append(("ap", ap_p_obs, None, None, None, None))

        for s, (r0, r1) in zip(stations, heard):
            missed, sniffed = s.missed, s.sniffed
            r0 -= missed[0]
            r1 -= missed[1]
            missed[0] = missed[1] = 0
            sniffed[0] += r0
            sniffed[1] += r1
            p_obs = estimate_p_obs(r0, r1, min_samples)
            sid = s.id
            ok0, retried0, dropped0 = marks[sid]
            ok, retried, dropped = marks[sid] = s.successes, s.retries, s.drops
            p_own = estimate_p_own(ok - ok0, retried - retried0, dropped - dropped0,
                                   max_retry)
            if dac:
                old = states[sid]
                states[sid] = new = dac_step(p_obs, p_own, old, p_opt)
                _, floor, ceiling, cw_real, cw, error = new
                hits += cw == floor or cw == ceiling
                s.cw_min_current = cw
                if rows is not None:
                    rows.append((names[sid], p_obs, p_own, error if new is not old else None,
                                 cw_real, cw))
            else:
                if announced is not None:
                    s.cw_min_current = announced
                if rows is not None:
                    rows.append((names[sid], p_obs, p_own, None, None, s.cw_min_current))
        self.cw_cap_hits += hits
        if rows is not None:
            trace(t_ms, rows)


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
    decodes, so `run_lone` and `run_slot` note only the AP's gains during a
    station's own transmit events (`Station.missed`), and at each beacon the
    control plane takes every station's sniffed tally as the AP's less
    those. So a channel event costs O(transmitters) for both traffic kinds;
    only the set-up, the beacons and the end visit every station.

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

        # Every lone transmitter before the horizon, in one call. It stops
        # at a station whose burst ran dry, which then waits for its next
        # arrival, and before a slot where two or more fire.
        t, idle, dry = run_lone(fires, t, idle, horizon, slot, ap, slot_log)
        if dry is not None:
            heapq.heappush(arrivals, (dry.traffic.arrival_us, dry.id, dry))
            continue
        if t >= horizon:   # a lone frame ran onto the horizon
            continue
        if not fires:
            t = horizon
            continue

        wait = fires[0][0] - idle
        if t + wait * slot >= horizon:
            # The jump reaches the horizon: stop at the first slot boundary
            # at or past it, and let the next pass handle it.
            jump = math.ceil((horizon - t) / slot)
            idle += jump
            t += jump * slot
            continue

        # Two or more fire before the horizon. `run_slot` redraws every
        # transmitter's counter, or leaves it idle until its next arrival.
        idle += wait
        t += wait * slot
        transmitters = []
        while fires and fires[0][0] == idle:
            transmitters.append(heapq.heappop(fires)[2])
        t += run_slot(transmitters, capture, ap, t, slot_log)
        for s in transmitters:
            if s.backlogged:
                heapq.heappush(fires, (idle + s.backoff_counter, s.id, s))
            else:
                heapq.heappush(arrivals, (s.traffic.arrival_us, s.id, s))

    for fire, _, s in fires:
        s.backoff_counter = fire - idle
    return RunResult.from_stations(stations, duration_us)
