"""Continuous-time channel engine for topologies with hidden stations.

Stations that cannot hear each other run independent slot clocks, so their
transmissions overlap at the AP in continuous time rather than colliding on
a shared slot boundary. The engine is event-driven over integer microseconds:
transmission starts/ends, ACKs, timeouts, and beacon ticks.

Carrier sense, freezing, EIFS deference and sniffer visibility are all
evaluated per vantage point against each station's heard set. A transmitting
station is deaf for the duration of its own frame.
"""

from __future__ import annotations

import heapq
import itertools

from .engine import ControlPlane
from .estimators import BeaconCounters
from .mac import CaptureModel, RunResult, Station
from .phy import PhyProfile, data_airtime

AP = 0

# Event priorities at equal timestamps: endings free the channel before new
# activity; SIFS responses and beacons preempt contention starts.
_P_END = 0
_P_FAIL = 1
_P_ACK = 2
_P_BEACON = 3
_P_START = 4


class _Tx:
    """One transmission on the air (data frame, ACK, or beacon)."""

    __slots__ = ("src", "start", "end", "kind", "snr", "retry_flag",
                 "payload", "overlap_snrs", "ap_busy", "garbled_at", "owner")

    def __init__(self, src, start, end, kind, snr=0.0, retry_flag=False,
                 payload=0, owner=None):
        self.src = src
        self.start = start
        self.end = end
        self.kind = kind                  # "data" | "ack" | "beacon"
        self.snr = snr
        self.retry_flag = retry_flag
        self.payload = payload
        self.overlap_snrs: list[float] = []   # SNRs of data frames overlapping at AP
        self.ap_busy = False                  # AP was transmitting during the frame
        self.garbled_at: set[int] = set()     # station vantages that lost this frame
        self.owner = owner                    # data frame an ACK responds to


class EventEngine:
    def __init__(self, stations: list[Station], profile: PhyProfile,
                 capture: CaptureModel, control: ControlPlane,
                 heard: dict[int, set[int]], ap_hears: set[int],
                 duration_us: int, slot_log=None):
        if any(s.traffic.kind != "saturated" for s in stations):
            raise ValueError("the hidden-topology engine supports saturated traffic only")
        self.slot_log = slot_log
        self.stations = {s.id: s for s in stations}
        self.profile = profile
        self.capture = capture
        self.control = control
        self.heard = heard          # station id -> audible node ids (incl. AP, itself)
        self.ap_hears = ap_hears
        self.duration_us = duration_us
        self.ap_counters = BeaconCounters()

        self._heap: list = []
        self._seq = itertools.count()
        self._ongoing: set[_Tx] = set()
        self._ongoing_heard: dict[int, set[_Tx]] = {s: set() for s in self.stations}
        self._resume_at: dict[int, int] = {}
        self._garbled_since: dict[int, bool] = {s: False for s in self.stations}
        self._in_flight: dict[int, bool] = {s: False for s in self.stations}
        self._version: dict[int, int] = {s: 0 for s in self.stations}
        self._ap_tx_until = 0
        self.records = []

    # -- event plumbing -----------------------------------------------------

    def _push(self, time, prio, kind, payload):
        heapq.heappush(self._heap, (time, prio, next(self._seq), kind, payload))

    def _station_hearers(self, src) -> list[int]:
        return [i for i in self.stations if i != src and src in self.heard[i]]

    # -- countdown management -----------------------------------------------

    def _schedule_tx(self, i: int, now: int) -> None:
        st = self.stations[i]
        if self._in_flight[i] or not st.backlogged or self._ongoing_heard[i]:
            return
        anchor = max(now, self._resume_at[i])
        fire = anchor + st.backoff_counter * self.profile.slot_time
        self._resume_at[i] = anchor
        self._version[i] += 1
        self._push(fire, _P_START, "tx_start", (i, self._version[i]))

    def _interrupt(self, i: int, t: int) -> None:
        """A station hears new activity at t: freeze, keeping whole slots."""
        st = self.stations[i]
        anchor = self._resume_at[i]
        fire = anchor + st.backoff_counter * self.profile.slot_time
        if fire == t:
            return   # its own start fires this tick: simultaneous transmissions
        if t > anchor:
            completed = (t - anchor) // self.profile.slot_time
            st.backoff_counter = max(0, st.backoff_counter - completed)
        self._version[i] += 1   # cancel the pending start

    # -- channel bookkeeping ------------------------------------------------

    def _begin_tx(self, tx: _Tx) -> None:
        for f in self._ongoing:
            if tx.kind == "data" and f.kind == "data":
                if tx.src in self.ap_hears and f.src in self.ap_hears:
                    f.overlap_snrs.append(tx.snr)
                    tx.overlap_snrs.append(f.snr)
            for i in self.stations:
                f_audible = f.src == i or f.src in self.heard[i]
                tx_audible = tx.src == i or tx.src in self.heard[i]
                if f_audible and tx_audible:
                    f.garbled_at.add(i)
                    tx.garbled_at.add(i)
                    self._garbled_since[i] = True
        if tx.kind == "data" and self._ap_tx_until > tx.start:
            tx.ap_busy = True
        if tx.kind in ("ack", "beacon"):
            self._ap_tx_until = tx.end
            for f in self._ongoing:
                if f.kind == "data":
                    f.ap_busy = True

        self._ongoing.add(tx)
        if tx.src != AP:
            self._ongoing_heard[tx.src].add(tx)
        for i in self._station_hearers(tx.src):
            if not self._in_flight[i]:
                if not self._ongoing_heard[i]:
                    self._interrupt(i, tx.start)
                self._ongoing_heard[i].add(tx)
            else:
                # Deaf while transmitting/awaiting: handled via garbled_at above.
                self._ongoing_heard[i].add(tx)

    def _end_tx(self, tx: _Tx, t: int) -> None:
        self._ongoing.discard(tx)
        for i in self.stations:
            heardset = self._ongoing_heard[i]
            if tx in heardset:
                heardset.discard(tx)
                if not heardset and not self._in_flight[i] and i != tx.src:
                    gap = self.profile.eifs if self._garbled_since[i] else self.profile.aifs
                    self._garbled_since[i] = False
                    self._resume_at[i] = max(self._resume_at[i], t + gap)
                    self._schedule_tx(i, t)

    # -- event handlers -----------------------------------------------------

    def _on_tx_start(self, t, i, version):
        if version != self._version[i]:
            return
        st = self.stations[i]
        if self._in_flight[i] or not st.backlogged:
            return
        st.note_attempt()
        self._in_flight[i] = True
        self._version[i] += 1
        tx = _Tx(src=i, start=t, end=t + data_airtime(self.profile, st.payload_bytes),
                 kind="data", snr=st.snr_db, retry_flag=st.retry_flag,
                 payload=st.payload_bytes)
        self._begin_tx(tx)
        self._push(tx.end, _P_END, "data_end", tx)

    def _decoded_at_ap(self, tx: _Tx) -> bool:
        if tx.ap_busy or tx.src not in self.ap_hears:
            return False
        if not tx.overlap_snrs:
            return True
        if self.capture.mode != "threshold":
            return False
        return tx.snr >= max(tx.overlap_snrs) + self.capture.threshold_db

    def _on_data_end(self, t, tx: _Tx):
        self._end_tx(tx, t)
        # Sniffers: every station that heard the whole frame cleanly.
        for i in self._station_hearers(tx.src):
            if i not in tx.garbled_at:
                self.stations[i].counters.observe_frame(tx.retry_flag)
        decoded = self._decoded_at_ap(tx)
        if self.slot_log is not None:
            kind = "decoded" if decoded else "lost"
            self.slot_log(tx.start, f"{kind} sta{tx.src} "
                          f"overlaps={len(tx.overlap_snrs)}")
        if decoded:
            self.ap_counters.observe_frame(tx.retry_flag)
            self._push(t + self.profile.sifs, _P_ACK, "ack_start", tx)
        else:
            self._push(t + self.profile.ack_timeout, _P_FAIL, "tx_fail", tx)

    def _on_ack_start(self, t, frame: _Tx):
        if self._ap_tx_until > t:
            # Half-duplex AP busy with a beacon: the ACK is never sent.
            self._push(frame.end + self.profile.ack_timeout, _P_FAIL, "tx_fail", frame)
            return
        ack = _Tx(src=AP, start=t, end=t + self.profile.ack_duration,
                  kind="ack", owner=frame)
        self._begin_tx(ack)
        self._push(ack.end, _P_END, "ack_end", ack)

    def _on_ack_end(self, t, ack: _Tx):
        self._end_tx(ack, t)
        src = ack.owner.src
        if src in ack.garbled_at:
            self._push(ack.owner.end + self.profile.ack_timeout, _P_FAIL,
                       "tx_fail", ack.owner)
            return
        st = self.stations[src]
        st.resolve_success(t)
        self._finish_exchange(src, t)

    def _on_tx_fail(self, t, frame: _Tx):
        st = self.stations[frame.src]
        if st.resolve_failure():
            st.resolve_drop(t)
        self._finish_exchange(frame.src, t)

    def _finish_exchange(self, src: int, t: int) -> None:
        """Return a station to contention after its own exchange resolves."""
        self._in_flight[src] = False
        if not self._ongoing_heard[src]:
            # fresh listening period: stale overlap marks from the station's
            # own transmission must not turn the next deference into EIFS
            self._garbled_since[src] = False
        self._resume_at[src] = max(self._resume_at[src], t + self.profile.aifs)
        self._schedule_tx(src, t)

    def _on_beacon(self, t):
        self.records.extend(self.control.beacon_update(
            t // 1000, list(self.stations.values()), self.ap_counters))
        start = max(t, self._ap_tx_until)
        beacon = _Tx(src=AP, start=start, end=start + self.profile.beacon_airtime,
                     kind="beacon")
        self._begin_tx(beacon)
        self._push(beacon.end, _P_END, "beacon_end", beacon)

    # -- main loop ------------------------------------------------------------

    def run(self) -> RunResult:
        n_intervals = self.duration_us // self.profile.beacon_interval
        if n_intervals < 1:
            raise ValueError("duration shorter than one beacon interval")
        for i in self.stations:
            self._resume_at[i] = self.profile.aifs
            self._schedule_tx(i, 0)
        for k in range(1, n_intervals + 1):
            self._push(k * self.profile.beacon_interval, _P_BEACON, "beacon", k)

        beacons_done = 0
        while self._heap and beacons_done < n_intervals:
            t, _prio, _seq, kind, payload = heapq.heappop(self._heap)
            if kind == "tx_start":
                self._on_tx_start(t, payload[0], payload[1])
            elif kind == "data_end":
                self._on_data_end(t, payload)
            elif kind == "ack_start":
                self._on_ack_start(t, payload)
            elif kind == "ack_end":
                self._on_ack_end(t, payload)
            elif kind == "tx_fail":
                self._on_tx_fail(t, payload)
            elif kind == "beacon_end":
                self._end_tx(payload, t)
            elif kind == "beacon":
                self._on_beacon(t)
                beacons_done += 1

        return RunResult.from_stations(list(self.stations.values()), self.records,
                                       n_intervals * self.profile.beacon_interval)
