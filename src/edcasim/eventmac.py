"""Continuous-time channel engine for topologies with hidden stations.

Stations that cannot hear each other run independent slot clocks, so their
transmissions overlap at the AP in continuous time rather than colliding on
a shared slot boundary. The engine is event-driven over integer microseconds:
transmission starts/ends, ACKs, timeouts, and beacon ticks.

Carrier sense, freezing, EIFS deference and sniffer visibility are all
evaluated per vantage point. A transmitting station is deaf for the duration
of its own frame.

Each event touches only the stations that can hear it. The hearing matrix
is turned, once, into a tuple of hearers for every source (AP = 0) and an
int bitmask "audience" of the stations that receive its frames; a station
keeps a count of the frames it hears on the air, and loses (garbles) every
frame that overlaps another one it receives. A station's pending start is
not a heap entry: it sits in a table until it is the earliest event, and a
freeze simply deletes it.
"""

from __future__ import annotations

import heapq
import itertools

from .engine import ControlPlane, FrameRecord, RunResult
from .estimators import BeaconCounters
from .mac import CaptureModel, Station
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
                 "overlap_snrs", "ap_busy", "garbled_at", "owner")

    def __init__(self, src, start, end, kind, snr=0.0, retry_flag=False,
                 owner=None):
        self.src = src
        self.start = start
        self.end = end
        self.kind = kind                  # "data" | "ack" | "beacon"
        self.snr = snr
        self.retry_flag = retry_flag
        self.overlap_snrs: list[float] = []   # SNRs of data frames overlapping at AP
        self.ap_busy = False                  # AP was transmitting during the frame
        self.garbled_at = 0                   # bitmask of station vantages that lost it
        self.owner = owner                    # data frame an ACK responds to


class EventEngine:
    def __init__(self, stations: list[Station], profile: PhyProfile,
                 capture: CaptureModel, control: ControlPlane,
                 heard: dict[int, set[int]], ap_hears: set[int],
                 duration_us: int, slot_log=None):
        """`heard` maps each station id to the node ids it hears (AP = 0);
        `ap_hears` holds the stations whose frames reach the AP. `slot_log`,
        when given, receives a FrameRecord for every data frame."""
        if any(s.traffic.kind != "saturated" for s in stations):
            raise ValueError("the hidden-topology engine supports saturated traffic only")
        self.slot_log = slot_log
        self.stations = {s.id: s for s in stations}
        self.profile = profile
        self.capture = capture
        self.control = control
        self.ap_hears = ap_hears
        self.duration_us = duration_us
        self.ap_counters = BeaconCounters()

        # Per source: the stations that hear it, in station order, and its
        # audience bitmask (those stations plus the source itself).
        self._hearers: dict[int, tuple[int, ...]] = {}
        self._audience: dict[int, int] = {}
        for src in (AP, *self.stations):
            hearers = tuple(i for i in self.stations
                            if i != src and src in heard[i])
            self._hearers[src] = hearers
            self._audience[src] = sum(1 << i for i in {src, *hearers} - {AP})

        self._heap: list = []
        self._seq = itertools.count()
        # station -> its pending start (fire time, _P_START, seq, station),
        # ordered against heap entries by the same (time, prio, seq) key
        self._starts: dict[int, tuple] = {}
        self._ongoing: list[_Tx] = []
        self._heard_count = dict.fromkeys(self.stations, 0)   # audible frames on air
        self._resume_at = dict.fromkeys(self.stations, 0)
        self._garbled_since = 0     # bitmask: lost a frame since it last deferred
        self._in_flight = dict.fromkeys(self.stations, False)
        self._ap_tx_until = 0
        self.records = []

    # -- event plumbing -----------------------------------------------------

    def _push(self, time, prio, kind, payload):
        heapq.heappush(self._heap, (time, prio, next(self._seq), kind, payload))

    # -- countdown management -----------------------------------------------

    def _freeze(self, ids, t: int) -> None:
        """Stations that start hearing activity at t freeze their countdown,
        keeping whole slots, and their pending start is cancelled."""
        stations, resume_at, starts = self.stations, self._resume_at, self._starts
        slot = self.profile.slot_time
        for i in ids:
            st = stations[i]
            backoff = st.backoff_counter
            elapsed = t - resume_at[i]
            if elapsed == backoff * slot:
                continue   # its own start fires this tick: simultaneous transmissions
            if elapsed > 0:
                backoff -= elapsed // slot
                st.backoff_counter = backoff if backoff > 0 else 0
            del starts[i]

    def _resume(self, ids, t: int) -> None:
        """Stations that hear an idle channel from t on defer AIFS, or EIFS
        after a lost frame, then count down to a pending start."""
        stations, resume_at, starts, seq = (self.stations, self._resume_at,
                                            self._starts, self._seq)
        profile = self.profile
        slot, aifs, eifs = profile.slot_time, profile.aifs, profile.eifs
        garbled = self._garbled_since
        for i in ids:
            if garbled and garbled >> i & 1:
                garbled ^= 1 << i
                anchor = t + eifs
            else:
                anchor = t + aifs
            if anchor < resume_at[i]:
                anchor = resume_at[i]
            resume_at[i] = anchor
            starts[i] = (anchor + stations[i].backoff_counter * slot, _P_START,
                         next(seq), i)
        self._garbled_since = garbled

    # -- channel bookkeeping ------------------------------------------------

    def _begin_tx(self, tx: _Tx) -> None:
        audience = self._audience
        tx_audience = audience[tx.src]
        tx_data = tx.kind == "data"
        tx_to_ap = tx_data and tx.src in self.ap_hears
        from_ap = not tx_data
        for f in self._ongoing:
            if f.kind == "data":
                if tx_to_ap and f.src in self.ap_hears:
                    f.overlap_snrs.append(tx.snr)
                    tx.overlap_snrs.append(f.snr)
                if from_ap:
                    f.ap_busy = True
            lost = audience[f.src] & tx_audience
            if lost:
                f.garbled_at |= lost
                tx.garbled_at |= lost
                self._garbled_since |= lost
        if tx_data:
            if self._ap_tx_until > tx.start:
                tx.ap_busy = True
        else:
            self._ap_tx_until = tx.end
        self._ongoing.append(tx)

        # Deaf while transmitting or awaiting a response: such a station
        # still counts the frame, and loses it through garbled_at above.
        count, in_flight = self._heard_count, self._in_flight
        idle = []
        for i in self._hearers[tx.src]:
            if not count[i] and not in_flight[i]:
                idle.append(i)
            count[i] += 1
        self._freeze(idle, tx.start)

    def _end_tx(self, tx: _Tx, t: int) -> None:
        self._ongoing.remove(tx)
        count, in_flight = self._heard_count, self._in_flight
        idle = []
        for i in self._hearers[tx.src]:
            count[i] -= 1
            if not count[i] and not in_flight[i]:
                idle.append(i)
        self._resume(idle, t)

    # -- event handlers -----------------------------------------------------

    def _on_tx_start(self, t, i):
        st = self.stations[i]
        st.note_attempt()
        self._in_flight[i] = True
        tx = _Tx(src=i, start=t, end=t + data_airtime(self.profile, st.payload_bytes),
                 kind="data", snr=st.snr_db, retry_flag=st.retry_flag)
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
        stations, garbled = self.stations, tx.garbled_at
        for i in self._hearers[tx.src]:
            if not garbled >> i & 1:
                stations[i].counters.observe_frame(tx.retry_flag)
        decoded = self._decoded_at_ap(tx)
        if self.slot_log is not None:
            self.slot_log(FrameRecord(tx.start, tx.src, decoded,
                                      len(tx.overlap_snrs), tx.retry_flag))
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
        if ack.garbled_at >> src & 1:
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
        if not self._heard_count[src]:
            # fresh listening period: stale overlap marks from the station's
            # own transmission must not turn the next deference into EIFS
            self._garbled_since &= ~(1 << src)
            self._resume((src,), t)

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
        self._resume(self.stations, 0)
        for k in range(1, n_intervals + 1):
            self._push(k * self.profile.beacon_interval, _P_BEACON, "beacon", k)

        # Events run in (time, priority, sequence) order. A pending start
        # carries its sequence number from when it was scheduled, so it
        # takes its turn against the heap exactly as a heap entry would.
        heap, starts = self._heap, self._starts
        beacons_done = 0
        while beacons_done < n_intervals:
            if starts:
                start = min(starts.values())
                if start < heap[0]:
                    del starts[start[3]]
                    self._on_tx_start(start[0], start[3])
                    continue
            t, _prio, _seq, kind, payload = heapq.heappop(heap)
            if kind == "data_end":
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
