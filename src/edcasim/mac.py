"""Slotted channel-access engine for a single collision domain.

All stations share one slot clock, which is exact when every station hears
every other (the hearing matrix is complete). Scenarios with hidden stations
run on the continuous-time engine in `eventmac` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .controllers import effective_cw_max
from .estimators import BeaconCounters
from .phy import FrameSpec, PhyProfile, collision_duration, success_duration


CAPTURE_MODES = ("none", "threshold")


@dataclass(frozen=True)
class CaptureModel:
    """Receiver behavior when transmissions overlap at the AP.

    In threshold mode the strongest frame is decoded iff its SNR exceeds the
    second strongest by at least `threshold_db`; ties yield no winner.
    """

    mode: str = "none"                    # one of CAPTURE_MODES
    threshold_db: float = 10.0

    def __post_init__(self):
        if self.mode not in CAPTURE_MODES:
            raise ValueError(f"unknown capture mode {self.mode!r}")
        if self.mode == "threshold" and self.threshold_db <= 0:
            raise ValueError("capture threshold must be positive")


@dataclass(frozen=True)
class SlotOutcome:
    kind: str                         # "idle" | "success" | "collision" | "capture-success"
    transmitters: frozenset[int]
    decoded: int | None
    duration: float                   # [us]
    decoded_retry_flag: bool | None = None   # flag of the decoded frame at tx time


def resolve_capture(snr_by_station: dict[int, float],
                    capture: CaptureModel) -> int | None:
    """Pick the station whose frame survives an overlap, if any.

    The threshold rule is deterministic; ties need no randomness (no winner).
    """
    if len(snr_by_station) < 2:
        raise ValueError("capture resolution needs at least 2 transmitters")
    if capture.mode == "none":
        return None
    ranked = sorted(snr_by_station.items(), key=lambda kv: (-kv[1], kv[0]))
    (best_id, best_snr), (_, second_snr) = ranked[0], ranked[1]
    if best_snr - second_snr >= capture.threshold_db:
        return best_id
    return None


TRAFFIC_KINDS = ("saturated", "onoff")


class TrafficSource:
    """Frame supply for one station: saturated, or on/off bursts."""

    def __init__(self, kind: str, payload_bytes: int, rng=None,
                 burst_bytes: int = 0, silent_mean_s: float = 0.0):
        if kind not in TRAFFIC_KINDS:
            raise ValueError(f"unknown traffic kind {kind!r}")
        self.kind = kind
        self.frame = FrameSpec(payload_bytes=payload_bytes)
        self.rng = rng
        self.burst_frames = max(1, math.ceil(burst_bytes / payload_bytes)) \
            if kind == "onoff" else 0
        self.silent_mean_us = silent_mean_s * 1e6
        self.frames_left = self.burst_frames
        self.arrival_us: int | None = 0 if kind == "onoff" else None
        self.transfer_start: int | None = None
        self.transfer_delays_us: list[int] = []

    def backlogged_at_start(self) -> bool:
        return self.kind == "saturated"

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

    def activate(self, now_us: int) -> None:
        self.transfer_start = now_us
        self.arrival_us = None


class Station:
    """Mutable per-station MAC state."""

    def __init__(self, station_id: int, snr_db: float, profile: PhyProfile,
                 rng, traffic: TrafficSource, cw_min: int, beb: bool = True):
        self.id = station_id
        self.snr_db = snr_db
        self.profile = profile
        self.rng = rng
        self.traffic = traffic
        self.cw_min_current = cw_min
        self.beb = beb
        self.retry_count = 0
        self.backlogged = traffic.backlogged_at_start()
        self.backoff_counter = 0
        # Sniffer + driver-style counters (one vantage point per station).
        self.counters = BeaconCounters()
        self.dropped_this_interval = 0
        # Whole-run accounting over *resolved* frames.
        self.unique_frames_sent = 0
        self.frames_dropped_retry = 0
        self.attempts_resolved = 0
        self.delivered_bytes = 0
        self._frame_attempts = 0
        if self.backlogged:
            self.draw_backoff()
        if traffic.kind == "onoff":
            traffic.transfer_start = 0

    @property
    def retry_flag(self) -> bool:
        return self.retry_count > 0

    @property
    def payload_bytes(self) -> int:
        return self.traffic.frame.payload_bytes

    def current_cw(self) -> int:
        if not self.beb:
            return self.cw_min_current
        ceiling = effective_cw_max(self.cw_min_current,
                                   self.profile.m_backoff_stages,
                                   self.profile.cw_ceiling)
        return min(self.cw_min_current << self.retry_count, ceiling)

    def draw_backoff(self) -> None:
        self.backoff_counter = self.rng.randrange(self.current_cw())

    def commit_cw_min(self, cw_min: int) -> None:
        # Takes effect at the next backoff draw; the running counter survives.
        self.cw_min_current = cw_min

    def note_attempt(self) -> None:
        self._frame_attempts += 1
        if self.retry_flag:
            self.counters.failures_cumulative += 1   # driver retry counter

    def resolve_success(self, now_us: int) -> None:
        self.counters.successes_cumulative += 1
        self.unique_frames_sent += 1
        self.attempts_resolved += self._frame_attempts
        self.delivered_bytes += self.payload_bytes
        self._finish_frame(now_us)

    def resolve_failure(self) -> bool:
        """Register a failed attempt. Returns True when the frame was dropped."""
        self.retry_count += 1
        if self.retry_count > self.profile.max_retry:
            return True
        self.draw_backoff()
        return False

    def resolve_drop(self, now_us: int) -> None:
        self.dropped_this_interval += 1
        self.frames_dropped_retry += 1
        self.unique_frames_sent += 1
        self.attempts_resolved += self._frame_attempts
        self._finish_frame(now_us)

    def _finish_frame(self, now_us: int) -> None:
        self.retry_count = 0
        self._frame_attempts = 0
        if self.traffic.consume_frame(now_us):
            self.draw_backoff()
        else:
            self.backlogged = False

    def maybe_activate(self, now_us: int) -> None:
        arrival = self.traffic.arrival_us
        if not self.backlogged and arrival is not None and arrival <= now_us:
            self.traffic.activate(arrival)
            self.backlogged = True
            self.draw_backoff()

    def roll_interval(self) -> None:
        self.counters.roll_interval()
        self.dropped_this_interval = 0


def run_slot(stations: list[Station], capture: CaptureModel,
             profile: PhyProfile, now_us: int = 0) -> SlotOutcome:
    """Advance the shared channel by one slot event.

    Stations whose backoff counter is zero transmit. No transmitter: an idle
    slot elapses and every backlogged counter decrements. One transmitter:
    success. Several: a collision, unless the capture model decodes a winner;
    losers follow the plain collision path either way (window doubling, retry
    flag, retry-limit drop with window reset).
    """
    transmitters = [s for s in stations if s.backlogged and s.backoff_counter == 0]

    if not transmitters:
        for s in stations:
            if s.backlogged and s.backoff_counter > 0:
                s.backoff_counter -= 1
        return SlotOutcome(kind="idle", transmitters=frozenset(),
                           decoded=None, duration=float(profile.slot_time))

    for s in transmitters:
        s.note_attempt()

    if len(transmitters) == 1:
        winner, losers = transmitters[0], []
        kind = "success"
        duration = success_duration(profile, winner.payload_bytes)
    else:
        winner_id = resolve_capture({s.id: s.snr_db for s in transmitters}, capture)
        if winner_id is None:
            longest = max(s.payload_bytes for s in transmitters)
            duration = collision_duration(profile, longest)
            end = now_us + int(round(duration))
            for s in transmitters:
                if s.resolve_failure():
                    s.resolve_drop(end)
            return SlotOutcome(kind="collision",
                               transmitters=frozenset(s.id for s in transmitters),
                               decoded=None, duration=duration)
        winner = next(s for s in transmitters if s.id == winner_id)
        losers = [s for s in transmitters if s.id != winner_id]
        kind = "capture-success"
        duration = success_duration(profile, winner.payload_bytes)

    flag = winner.retry_flag
    end = now_us + int(round(duration))
    winner.resolve_success(end)
    for s in losers:
        if s.resolve_failure():
            s.resolve_drop(end)
    return SlotOutcome(kind=kind,
                       transmitters=frozenset(s.id for s in transmitters),
                       decoded=winner.id, duration=duration,
                       decoded_retry_flag=flag)


@dataclass
class IntervalRecord:
    """Per-node controller/estimator snapshot emitted each beacon interval."""

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
