"""Beacon-interval orchestration shared by both channel engines, the records
they produce, and the slotted simulation loop for fully connected topologies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .controllers import (ControllerState, PiGains, cac_step, compute_gains, dac_step,
                          initial_state)
from .estimators import MIN_POBS_SAMPLES, BeaconCounters, estimate_p_obs, estimate_p_own
from .mac import CaptureModel, Station, run_slot
from .phy import PhyProfile


@dataclass(frozen=True)
class FrameRecord:
    """One transmitted data frame, as either engine hands it to `slot_log`."""

    start_us: int
    station: int
    decoded: bool          # the AP decoded it
    overlaps: int          # other data frames overlapping it at the AP
    retry: bool            # its retry flag


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
        """Whole-run totals read off the stations' accounting."""
        thr = {s.id: 8.0 * s.delivered_bytes / duration_us for s in stations}
        return cls(
            duration_us=duration_us,
            delivered_bytes={s.id: s.delivered_bytes for s in stations},
            throughput_mbps=thr,
            total_mbps=sum(thr.values()),
            records=records,
            transfer_delays_us={s.id: list(s.traffic.transfer_delays_us)
                                for s in stations},
            drops={s.id: s.frames_dropped_retry for s in stations},
            attempts={s.id: s.attempts_resolved for s in stations},
            successes={s.id: s.counters.successes_cumulative for s in stations},
            retries={s.id: s.counters.failures_cumulative for s in stations},
            sniffed_flags={s.id: (s.counters.r0_total, s.counters.r1_total)
                           for s in stations},
            snr_db={s.id: s.snr_db for s in stations},
        )

    @property
    def station_ids(self) -> list[int]:
        return sorted(self.throughput_mbps)


CONTROLLERS = ("cac", "dac", "edca-static")


class ControlPlane:
    """Runs the per-beacon controller updates and builds the trace records.

    mode "cac": one controller at the AP, window broadcast to every station.
    mode "dac": one controller per station, committed locally.
    mode "edca-static": no adaptation; estimates are still traced.
    """

    def __init__(self, mode: str, station_ids: list[int], profile: PhyProfile,
                 p_opt: float, min_samples: int = MIN_POBS_SAMPLES,
                 gains_override: tuple[float, float] | None = None,
                 cw_bounds: tuple[int, int] | None = None):
        self.mode = mode
        self.profile = profile
        self.p_opt = p_opt
        self.min_samples = min_samples
        floor, ceiling = cw_bounds or (profile.cw_floor, profile.cw_ceiling)
        if mode == "edca-static":
            self.gains = None
        elif gains_override is not None:
            self.gains = PiGains(*gains_override)
        else:
            self.gains = compute_gains(p_opt, profile.m_backoff_stages)
        self.cac_state: ControllerState | None = (
            initial_state(self.gains, floor, ceiling) if mode == "cac" else None)
        self.dac_states: dict[int, ControllerState] = (
            {i: initial_state(self.gains, floor, ceiling) for i in station_ids}
            if mode == "dac" else {})
        self.cw_cap_hits = 0   # announced/committed window pinned at a bound
        self._names = {i: f"sta{i}" for i in station_ids}   # trace node names

    @staticmethod
    def _step_error(old: ControllerState, new: ControllerState) -> float | None:
        return new.prev_error if new is not old else None

    def beacon_update(self, t_ms: int, stations: list[Station],
                      ap_counters: BeaconCounters) -> list[IntervalRecord]:
        """Step the controllers on this interval's estimates, commit their
        windows, roll the counters, and return the interval's records: the
        AP's, then one per station in `stations` order.

        Each station takes one pass: its estimates, its roll, its step, its
        commit and its record. A station's estimates read only its own
        counters, so rolling it inside the pass is exact."""
        min_samples, max_retry, p_opt = self.min_samples, self.profile.max_retry, self.p_opt
        names, states = self._names, self.dac_states
        dac = self.mode == "dac"
        ap_p_obs = estimate_p_obs(ap_counters, min_samples)
        ap_counters.roll_interval()
        announced = None
        if self.mode == "cac":
            old = self.cac_state
            new, announced = cac_step(ap_p_obs, old, p_opt)
            self.cac_state = new
            if announced in (new.cw_floor, new.cw_ceiling):
                self.cw_cap_hits += 1
            records = [IntervalRecord(t_ms, "ap", ap_p_obs, None,
                                      self._step_error(old, new), new.cw_real, announced)]
        else:
            records = [IntervalRecord(t_ms, "ap", ap_p_obs, None, None, None, None)]

        for s in stations:
            counters = s.counters
            p_obs = estimate_p_obs(counters, min_samples)
            p_own = estimate_p_own(counters, max_retry, s.dropped_this_interval)
            s.roll_interval()
            if dac:
                old = states[s.id]
                states[s.id] = new = dac_step(p_obs, p_own, old, p_opt)
                cw = new.cw_quantized
                if cw in (new.cw_floor, new.cw_ceiling):
                    self.cw_cap_hits += 1
                s.commit_cw_min(cw)
                records.append(IntervalRecord(t_ms, names[s.id], p_obs, p_own,
                                              self._step_error(old, new),
                                              new.cw_real, cw))
            else:
                if announced is not None:
                    s.commit_cw_min(announced)
                records.append(IntervalRecord(t_ms, names[s.id], p_obs, p_own,
                                              None, None, s.cw_min_current))
        return records


def run_slotted(stations: list[Station], profile: PhyProfile,
                capture: CaptureModel, control: ControlPlane,
                duration_us: int, slot_log=None) -> RunResult:
    """Simulate a fully connected WLAN for a whole number of beacon intervals.

    Every backlogged counter drops by one in each idle slot and freezes
    while the channel is busy, so the loop keeps one count of elapsed idle
    slots and a heap of each backlogged station's fire slot: the count at
    its draw plus the drawn counter. A station transmits when the count
    reaches its fire slot. A station with nothing to send waits in a heap
    of arrival times; an idle jump stops at the first slot boundary at or
    past the earliest arrival or the next beacon, and a countdown that runs
    out before then leads into its transmission in the same loop pass.
    Every station that does not transmit sniffs exactly the frames the AP
    decodes, so it keeps only the AP's gains during its own transmit events
    (`missed`), and its tallies are read off the AP's at each beacon. So a
    channel event costs O(transmitters) for both traffic kinds; only the
    set-up, the beacons and the end visit every station.

    `slot_log`, when given, receives a FrameRecord for every data frame.
    """
    ap_counters = BeaconCounters()
    log_frame = None if slot_log is None else (
        lambda *frame: slot_log(FrameRecord(*frame)))
    n_intervals = duration_us // profile.beacon_interval

    slot = profile.slot_time
    records: list[IntervalRecord] = []
    t = 0
    next_beacon = profile.beacon_interval
    interval_idx = 0

    idle = 0   # idle slots elapsed since the start of the run
    # (fire slot, station id, station): ties go in id order, the order of
    # `stations`, so each event resolves and logs its transmitters in order.
    fires = [(s.backoff_counter, s.id, s) for s in stations if s.backlogged]
    heapq.heapify(fires)
    # (arrival time, station id, station) of each station with nothing to send.
    arrivals = [(s.traffic.arrival_us, s.id, s) for s in stations if not s.backlogged]
    heapq.heapify(arrivals)
    # Per station id: the AP's (r0, r1) gains this interval during the
    # station's own transmissions, which its sniffer missed.
    missed = {s.id: [0, 0] for s in stations}

    while interval_idx < n_intervals:
        if t >= next_beacon:
            for s in stations:
                m = missed[s.id]
                s.counters.credit(ap_counters.r0 - m[0], ap_counters.r1 - m[1])
                m[0] = m[1] = 0
            records.extend(control.beacon_update(next_beacon // 1000,
                                                 stations, ap_counters))
            t += profile.beacon_airtime + profile.aifs
            next_beacon += profile.beacon_interval
            interval_idx += 1
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
        r0, r1 = ap_counters.r0, ap_counters.r1
        t += run_slot(transmitters, capture, ap_counters, t, log_frame)
        d0, d1 = ap_counters.r0 - r0, ap_counters.r1 - r1
        for s in transmitters:
            if d0 or d1:
                m = missed[s.id]
                m[0] += d0
                m[1] += d1
            if s.backlogged:
                heapq.heappush(fires, (idle + s.backoff_counter, s.id, s))
            else:
                heapq.heappush(arrivals, (s.traffic.arrival_us, s.id, s))

    for fire, _, s in fires:
        s.backoff_counter = fire - idle
    return RunResult.from_stations(stations, records,
                                   n_intervals * profile.beacon_interval)
