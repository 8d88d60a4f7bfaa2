"""Station MAC state and the per-frame and per-interval protocol both
engines drive it through, capture, traffic, the frame record both engines
log, and the slotted channel steps for a single collision domain.

In the slotted engine all stations share one slot clock, which is exact
when every station hears every other (the hearing matrix is complete).
Scenarios with hidden stations run on the continuous-time engine in
`eventmac` instead.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .estimators import BeaconCounters
from .phy import PhyProfile, collision_duration, success_duration


CAPTURE_MODES = ("none", "threshold")


@dataclass(frozen=True)
class FrameRecord:
    """One transmitted data frame, as either engine hands it to `slot_log`."""

    t_us: int              # when it started
    station: int
    decoded: bool          # the AP decoded it
    overlaps: int          # other data frames overlapping it at the AP
    retry: bool            # its retry flag


@dataclass(frozen=True)
class CaptureModel:
    """Receiver behavior when transmissions overlap at the AP.

    In threshold mode the strongest frame is decoded iff its SNR exceeds the
    second strongest by at least `threshold_db`; ties yield no winner.
    """

    mode: str = "none"                    # one of CAPTURE_MODES
    threshold_db: float = 10.0

    def captures(self, snr_db: float, rival_snr_db: float) -> bool:
        """The capture rule of both engines: is `snr_db` decoded over its rival?"""
        return self.mode == "threshold" and snr_db - rival_snr_db >= self.threshold_db


def resolve_capture(transmitters: list[Station],
                    capture: CaptureModel) -> Station | None:
    """Pick the station whose frame survives an overlap of two or more, if
    any: the strongest (ties to the lower id), if it captures over the next."""
    best = transmitters[0]
    top, second = best.snr_db, -math.inf
    for s in transmitters[1:]:
        snr = s.snr_db
        if snr > top or snr == top and s.id < best.id:
            best, top, second = s, snr, top
        elif snr > second:
            second = snr
    return best if capture.captures(top, second) else None


TRAFFIC_KINDS = ("saturated", "onoff")


class TrafficSource:
    """On/off frame supply for one station; a saturated station has none."""

    def __init__(self, payload_bytes: int, rng, burst_bytes: int,
                 silent_mean_s: float):
        self.rng = rng
        self.burst_frames = math.ceil(burst_bytes / payload_bytes)
        self.silent_mean_us = silent_mean_s * 1e6
        self.frames_left = self.burst_frames
        self.arrival_us: int | None = 0
        self.transfer_start: int | None = None
        self.transfer_delays_us: list[int] = []

    def consume_frame(self, now_us: int) -> bool:
        """Advance an on/off source past one resolved frame; False when it ran dry."""
        self.frames_left -= 1
        if self.frames_left > 0:
            return True
        self.transfer_delays_us.append(now_us - self.transfer_start)
        self.transfer_start = None
        gap = self.rng.expovariate(1.0 / self.silent_mean_us)
        self.arrival_us = now_us + max(1, int(round(gap)))
        self.frames_left = self.burst_frames
        return False

    def activate(self) -> None:
        self.transfer_start = self.arrival_us
        self.arrival_us = None


def effective_cw_max(cw_min: int, m: int, cw_ceiling: int) -> int:
    """Backoff window at stage `m`, capped; at the last stage, a station's ceiling."""
    return min(cw_min * (2 ** m), cw_ceiling)


class Station:
    """Mutable per-station MAC state."""

    def __init__(self, station_id: int, snr_db: float, profile: PhyProfile,
                 rng, payload_bytes: int, cw_min: int, beb: bool = True,
                 traffic: TrafficSource | None = None):
        self.id = station_id
        self.snr_db = snr_db
        self.profile = profile
        self.getrandbits = rng.getrandbits   # the backoff draws' bits
        # None for a saturated station, which never runs dry.
        self.traffic = traffic
        self.saturated = traffic is None
        self.payload_bytes = payload_bytes
        # Whole-microsecond airtimes of this station's frame, fixed per run.
        self.success_us = int(round(success_duration(profile, self.payload_bytes)))
        self.collision_us = int(round(collision_duration(profile, self.payload_bytes)))
        self.beb = beb
        # The committed window: the control plane writes it, and it takes
        # effect at the next backoff draw, so the running counter survives.
        self.cw_min_current = cw_min
        # A retry's window doubles up to `max_stage` times under `cw_cap`:
        # m stages under the PHY's ceiling with BEB; without, none, uncapped.
        self.max_stage, self.cw_cap = ((profile.m_backoff_stages, profile.cw_ceiling)
                                       if beb else (0, math.inf))
        self.retry_count = 0
        self.backlogged = self.saturated
        self.backoff_counter = 0
        # Whole-run counters that only grow, as a driver's do: acked frames,
        # retransmission attempts, retry-limit drops, and the attempts of
        # resolved frames.
        self.successes = 0
        self.retries = 0
        self.drops = 0
        self.attempts = 0
        # (r0, r1) of the frames this station's sniffer heard over the run,
        # and of the frames in this vantage's tally that it did not hear this
        # interval; the beacon update subtracts the latter.
        self.sniffed = [0, 0]
        self.missed = [0, 0]
        if self.backlogged:
            self.draw_backoff()

    @property
    def retry_flag(self) -> bool:
        return self.retry_count > 0

    @property
    def cw_max(self) -> int:
        """The window of the last backoff stage: without BEB, CW_min itself."""
        return effective_cw_max(self.cw_min_current, self.max_stage, self.cw_cap)

    def draw_backoff(self) -> None:
        # rng.randrange(w), drawn as CPython 3.10 to 3.13 draw it: k-bit
        # draws until one falls below w. Stage 0 spans CW_min itself, which
        # a validated window never puts above cw_max; a retry's window is
        # `effective_cw_max` at its stage, inlined: a draw ends most attempts.
        w, r = self.cw_min_current, self.retry_count
        if r:
            w = min(w << (r if r < self.max_stage else self.max_stage), self.cw_cap)
        k = w.bit_length()
        while (r := self.getrandbits(k)) >= w:
            pass
        self.backoff_counter = r

    def note_attempt(self) -> None:
        if self.retry_count:
            self.retries += 1

    def resolve_success(self, now_us: int, *, dropped: bool = False) -> None:
        """End the current frame: acked, or dropped (`resolve_failure` counts drops)."""
        if not dropped:
            self.successes += 1
        self.attempts += self.retry_count + 1   # one per failure, and the last
        self.retry_count = 0
        if self.saturated or self.traffic.consume_frame(now_us):
            self.draw_backoff()
        else:
            self.backlogged = False

    def resolve_failure(self, now_us: int) -> None:
        """Register a failed attempt; past the retry limit, drop the frame."""
        if self.retry_count < self.profile.max_retry:
            self.retry_count += 1
            self.draw_backoff()
        else:
            self.drops += 1
            self.resolve_success(now_us, dropped=True)

    def activate(self) -> None:
        # Called once `traffic.arrival_us` has come: the burst starts then.
        self.traffic.activate()
        self.backlogged = True
        self.draw_backoff()


def run_slot(transmitters: list[Station], capture: CaptureModel,
             ap_counters: BeaconCounters, now_us: int = 0, slot_log=None) -> int:
    """Resolve one busy channel event among `transmitters` and return its
    duration in whole microseconds: the winner's `success_us`, or the
    largest `collision_us` among them when no frame is decoded.

    The caller passes the stations whose backoff counter reached zero, two
    or more (`run_lone` resolves a lone one). They collide, unless the
    capture model decodes a winner; losers follow the plain collision path
    either way (window doubling, retry flag, retry-limit drop with window
    reset). The decoded frame feeds the AP's counters, and every
    transmitter's `missed`: its sniffer was busy sending. When given,
    `slot_log` receives a FrameRecord for each transmitted frame.
    """
    busy_us = 0   # the largest `collision_us`, unless a frame is decoded
    for s in transmitters:
        s.note_attempt()
        if s.collision_us > busy_us:
            busy_us = s.collision_us
    winner = resolve_capture(transmitters, capture)

    if winner is not None:
        busy_us = winner.success_us
        flag = winner.retry_flag
        ap_counters.observe_frame(flag)
        for s in transmitters:
            s.missed[flag] += 1

    if slot_log is not None:
        overlaps = len(transmitters) - 1
        for s in transmitters:
            slot_log(FrameRecord(now_us, s.id, s is winner, overlaps, s.retry_flag))

    end = now_us + busy_us
    for s in transmitters:
        if s is winner:
            s.resolve_success(end)
        else:
            s.resolve_failure(end)
    return busy_us


def run_lone(fires: list, t: int, idle: int, horizon: int, slot: int,
             ap_counters: BeaconCounters, slot_log=None
             ) -> tuple[int, int, Station | None]:
    """Resolve the run of lone transmitters at the root of the slotted
    loop's fire heap, `(fire slot, station id, station)`, and return the new
    `(t, idle)` and the station whose burst ran dry, if any.

    While the root fires before `horizon` and neither of its children fires
    in the same slot, its frame is decoded: the clock advances to its start,
    the station and the AP count it as `run_slot` would, and the station
    draws its next counter as `draw_backoff` does (a success leaves it at
    stage 0) and moves to its next fire with one `heapreplace`. A station
    whose on/off burst runs dry leaves the heap and ends the run.
    """
    n = len(fires)   # each frame's `heapreplace` keeps it
    while fires:
        fire, sid, s = fires[0]
        start = t + (fire - idle) * slot
        # Any other station that fires in the same slot lies under one of
        # the root's two children.
        if start >= horizon or n > 1 and fires[1][0] == fire or (
                n > 2 and fires[2][0] == fire):
            break
        idle = fire
        retry = s.retry_count
        if retry:
            s.retries += 1
            ap_counters.r1 += 1
            s.missed[1] += 1
        else:
            ap_counters.r0 += 1
            s.missed[0] += 1
        if slot_log is not None:
            slot_log(FrameRecord(start, sid, True, 0, retry > 0))
        t = start + s.success_us
        s.successes += 1
        s.attempts += retry + 1
        s.retry_count = 0
        if not (s.saturated or s.traffic.consume_frame(t)):
            s.backlogged = False
            heapq.heappop(fires)
            return t, idle, s
        w = s.cw_min_current
        k = w.bit_length()
        while (r := s.getrandbits(k)) >= w:
            pass
        heapq.heapreplace(fires, (idle + r, sid, s))
    return t, idle, None
