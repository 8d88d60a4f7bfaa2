"""Station MAC state and the per-frame and per-interval protocol both
engines drive it through, capture, traffic, the frame record both engines
log, and the slotted channel step for a single collision domain.

In the slotted engine all stations share one slot clock, which is exact
when every station hears every other (the hearing matrix is complete).
Scenarios with hidden stations run on the continuous-time engine in
`eventmac` instead.
"""

from __future__ import annotations

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
    """Pick the station whose frame survives an overlap of two or more, if any.

    The threshold rule is deterministic; ties need no randomness (no winner).
    """
    best, second = sorted(transmitters, key=lambda s: (-s.snr_db, s.id))[:2]
    return best if capture.captures(best.snr_db, second.snr_db) else None


TRAFFIC_KINDS = ("saturated", "onoff")


class TrafficSource:
    """Frame supply for one station: saturated, or on/off bursts."""

    def __init__(self, kind: str, payload_bytes: int, rng=None,
                 burst_bytes: int = 0, silent_mean_s: float = 0.0):
        self.kind = kind
        self.payload_bytes = payload_bytes
        self.rng = rng
        self.burst_frames = max(1, math.ceil(burst_bytes / payload_bytes)) \
            if kind == "onoff" else 0
        self.silent_mean_us = silent_mean_s * 1e6
        self.frames_left = self.burst_frames
        self.arrival_us: int | None = 0 if kind == "onoff" else None
        self.transfer_start: int | None = None
        self.transfer_delays_us: list[int] = []

    def consume_frame(self, now_us: int) -> bool:
        """Advance past one resolved frame; False when the queue went empty."""
        if self.kind == "saturated":
            return True
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
    """Backoff ceiling a station derives from its committed CW_min."""
    return min(cw_min * (2 ** m), cw_ceiling)


class Station:
    """Mutable per-station MAC state."""

    def __init__(self, station_id: int, snr_db: float, profile: PhyProfile,
                 rng, traffic: TrafficSource, cw_min: int, beb: bool = True):
        self.id = station_id
        self.snr_db = snr_db
        self.profile = profile
        self.rng = rng
        self.traffic = traffic
        self.payload_bytes = traffic.payload_bytes
        # Whole-microsecond airtimes of this station's frame, fixed per run.
        self.success_us = int(round(success_duration(profile, self.payload_bytes)))
        self.collision_us = int(round(collision_duration(profile, self.payload_bytes)))
        self.beb = beb
        self.cw_min_current = None   # no window committed yet
        self.commit_cw_min(cw_min)
        self.retry_count = 0
        self.backlogged = traffic.kind == "saturated"
        self.backoff_counter = 0
        # Whole-run counters that only grow, as a driver's do: acked frames,
        # retransmission attempts, retry-limit drops, and the attempts of
        # resolved frames.
        self.successes = 0
        self.retries = 0
        self.drops = 0
        self.attempts = 0
        self._frame_attempts = 0
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

    def draw_backoff(self) -> None:
        self.backoff_counter = self.rng.randrange(
            min(self.cw_min_current << self.retry_count, self.cw_max))

    def commit_cw_min(self, cw_min: int) -> None:
        # Takes effect at the next backoff draw; the running counter survives.
        # Without BEB the ceiling is CW_min itself, so retries never widen it.
        # The ceiling depends on CW_min alone, so an unchanged window is a no-op.
        if cw_min == self.cw_min_current:
            return
        self.cw_min_current = cw_min
        self.cw_max = effective_cw_max(cw_min, self.profile.m_backoff_stages,
                                       self.profile.cw_ceiling) if self.beb else cw_min

    def note_attempt(self) -> None:
        self._frame_attempts += 1
        if self.retry_count:
            self.retries += 1

    def resolve_success(self, now_us: int) -> None:
        self.successes += 1
        self._finish_frame(now_us)

    def resolve_failure(self, now_us: int) -> None:
        """Register a failed attempt; past the retry limit, drop the frame."""
        self.retry_count += 1
        if self.retry_count <= self.profile.max_retry:
            self.draw_backoff()
            return
        self.drops += 1
        self._finish_frame(now_us)

    def _finish_frame(self, now_us: int) -> None:
        self.attempts += self._frame_attempts
        self.retry_count = 0
        self._frame_attempts = 0
        if self.traffic.consume_frame(now_us):
            self.draw_backoff()
        else:
            self.backlogged = False

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

    The caller passes the stations whose backoff counter reached zero, at
    least one. One transmitter: success. Several: a collision, unless the
    capture model decodes a winner; losers follow the plain collision path
    either way (window doubling, retry flag, retry-limit drop with window
    reset). The decoded frame feeds the AP's counters, and every
    transmitter's `missed`: its sniffer was busy sending. When given,
    `slot_log` receives a FrameRecord for each transmitted frame.
    """
    for s in transmitters:
        s.note_attempt()

    if len(transmitters) == 1:
        winner = transmitters[0]
    else:
        winner = resolve_capture(transmitters, capture)

    if winner is None:
        busy_us = max(s.collision_us for s in transmitters)
    else:
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
