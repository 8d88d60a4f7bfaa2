"""Continuous-time channel engine for topologies with hidden stations.

Stations that cannot hear each other run independent slot clocks, so their
transmissions overlap at the AP in continuous time rather than colliding on
a shared slot boundary. The engine is event-driven over integer microseconds:
transmission starts/ends, ACKs, timeouts, and beacon ticks.

Carrier sense, freezing, EIFS deference and sniffer visibility are all
evaluated per vantage point. A transmitting station is deaf for the duration
of its own frame.

Stations with equal heard sets form a hearing class. They see the same busy
and idle edges, and every frame's audience (its source and the stations that
hear it) is a union of whole classes, so a frame lost at one member is lost
at all of them. Each event therefore touches only the classes that hear it:

- A class counts the frames its members hear on the air and keeps one
  idle-slot clock: when its deference ends (`anchor`), the idle slots
  counted since (`idle`) and a heap of (fire slot, station). A freeze or a
  resume moves the clock, not its members.
- A station leaves the clock while its own exchange is in flight, and then
  counts down alone, as does a member that defers EIFS while the clock
  defers AIFS. It rejoins at the next resume of its class whose deference
  ends with the clock's.
- A class keeps one tally of the data frames it heard cleanly. A source
  notes its own frames in that tally as `Station.missed`, and at the beacon
  the control plane takes each station's sniffed tally as its class's, less
  those.

A pending start is not a heap entry: each class tables its clock's earliest
start, and each lone station its own, and the main loop orders them against
the heap by the same (time, priority, sequence) key.

Each step of an exchange (data start, data end, ACK start, ACK end) ends by
scheduling the next one through `_then`. A step that sorts before the heap's
first entry and every tabled start is the event the main loop would run
next, so it runs at once instead of through the heap, and the order of
events, hence every output, is the same.
"""

from __future__ import annotations

import heapq
import itertools

from .engine import ControlPlane, RunResult
from .mac import CaptureModel, FrameRecord, Station
from .phy import PhyProfile, data_airtime

AP = 0

# Event priorities at equal timestamps: endings free the channel before new
# activity; SIFS responses and beacons preempt contention starts.
_P_END = 0
_P_FAIL = 1
_P_ACK = 2
_P_BEACON = 3
_P_START = 4


def hearing_classes(heard: dict[int, set[int]]) -> list[tuple[int, ...]]:
    """Group the stations of `heard` (station id -> audible node ids, AP = 0)
    by equal heard sets, each taken with the station itself, in station
    order."""
    classes: dict[frozenset, list[int]] = {}
    for i in sorted(heard):
        classes.setdefault(frozenset(heard[i]) | {i}, []).append(i)
    return [tuple(members) for members in classes.values()]


class _Tx:
    """One transmission on the air: a data frame from a station, or an ACK
    (with its `owner`) or a beacon from the AP."""

    __slots__ = ("src", "start", "end", "snr", "retry_flag",
                 "overlap_snrs", "ap_busy", "garbled_at", "owner")

    def __init__(self, src, start, end, snr=0.0, retry_flag=False, owner=None):
        self.src = src
        self.start = start
        self.end = end
        self.snr = snr
        self.retry_flag = retry_flag
        self.overlap_snrs: list[float] = []   # SNRs of data frames overlapping at AP
        self.ap_busy = False                  # AP was transmitting during the frame
        self.garbled_at = 0                   # bitmask of station vantages that lost it
        self.owner = owner                    # data frame an ACK responds to


class _HearingClass:
    """One hearing class: its frames on the air, its clock and its tally."""

    __slots__ = ("members", "count", "anchor", "idle", "clock", "clock_mask",
                 "seq", "loners", "sniffed")

    def __init__(self, members: tuple[int, ...]):
        self.members = members
        self.count = 0          # frames on the air that its members hear
        self.anchor = 0         # when the clock's members end their deference
        self.idle = 0           # idle slots counted on the clock
        self.clock: list[tuple[int, int]] = []   # heap of (fire slot, station id)
        self.clock_mask = 0     # bitmask of the clock's members
        self.seq = 0            # sequence number of the clock's starts
        self.loners: set[int] = set()   # members off the clock, not in flight
        self.sniffed = [0, 0]   # (r0, r1) of frames heard cleanly this interval


class EventEngine:
    def __init__(self, stations: list[Station], profile: PhyProfile,
                 capture: CaptureModel, control: ControlPlane,
                 heard: dict[int, set[int]], duration_us: int, slot_log=None):
        """`heard` maps each station id to the node ids it hears (AP = 0);
        the AP hears the stations that hear it. `slot_log`, when given,
        receives a FrameRecord for every data frame."""
        self.slot_log = slot_log
        self.stations = {s.id: s for s in stations}
        self._station_list = list(self.stations.values())
        self.profile = profile
        self._airtime = {s.id: data_airtime(profile, s.payload_bytes) for s in stations}
        self._ack_timeout = profile.ack_timeout
        self.capture = capture
        self.control = control
        self._ap_hears = {i for i in heard if AP in heard[i]}
        self.duration_us = duration_us

        self._classes = [_HearingClass(m) for m in hearing_classes(heard)]
        self._class_of = {i: c for c in self._classes for i in c.members}
        # each station's vantage tally, in `_station_list` order
        self._sniffed = [self._class_of[i].sniffed for i in self.stations]
        # Per source: the classes with a member that hears it (its own class
        # if it has other members), and its audience bitmask of stations
        # (the source and those that hear it).
        self._hearing: dict[int, tuple[_HearingClass, ...]] = {}
        self._audience: dict[int, int] = {}
        masks = {c: sum(1 << i for i in c.members) for c in self._classes}
        for src in (AP, *self.stations):
            own = self._class_of.get(src)
            hearing = tuple(c for c in self._classes
                            if (len(c.members) > 1 if c is own
                                else src in heard[c.members[0]]))
            self._hearing[src] = hearing
            self._audience[src] = sum(masks[c] for c in hearing) | (
                1 << src if src != AP else 0)

        self._heap: list = []
        self._seq = itertools.count()
        # class -> its clock's earliest start, or lone station -> its start:
        # (fire time, _P_START, seq, station, class or None), ordered against
        # heap entries by the same (time, prio, seq) key
        self._starts: dict = {}
        self._ongoing: list[_Tx] = []
        # when each station off its class's clock ends its deference
        self._resume_at = dict.fromkeys(self.stations, 0)
        self._garbled_since = 0     # bitmask: lost a frame since it last deferred
        self._ap_tx_until = 0

    # -- event plumbing -----------------------------------------------------

    def _push(self, time, prio, handler, payload):
        """Schedule `handler(self, time, payload)`. Handlers are class-level
        functions, shared by every entry, not a bound method made per push."""
        heapq.heappush(self._heap, (time, prio, next(self._seq), handler, payload))

    def _then(self, time, prio, handler, payload):
        """Schedule the next step of the caller's own exchange, as its last
        act. When that entry sorts before the heap's first entry and every
        tabled start, it is the event the main loop would run next, so run
        it now. The heap is never empty here: it holds the next beacon, and
        the last beacon's handler schedules with `_push`."""
        entry = (time, prio, next(self._seq), handler, payload)
        heap, starts = self._heap, self._starts
        if entry < heap[0] and not (starts and min(starts.values()) < entry):
            handler(self, time, payload)
        else:
            heapq.heappush(heap, entry)

    # -- countdown management -----------------------------------------------

    def _post(self, c: _HearingClass) -> None:
        """Table the earliest start on the non-empty clock of an idle class."""
        fire, i = c.clock[0]
        self._starts[c] = (c.anchor + (fire - c.idle) * self.profile.slot_time,
                           _P_START, c.seq, i, c)

    def _freeze(self, classes, t: int) -> None:
        """Classes that start hearing activity at t freeze their countdown,
        keeping whole slots, and their pending starts are cancelled. A start
        that fires at t stands: simultaneous transmissions. A clock freezes
        as one, counting the idle slots since its anchor; lone members
        freeze one by one."""
        stations, resume_at, starts = self.stations, self._resume_at, self._starts
        slot = self.profile.slot_time
        for c in classes:
            clock = c.clock
            if clock:
                del starts[c]
                anchor, idle = c.anchor, c.idle
                while clock and anchor + (clock[0][0] - idle) * slot == t:
                    fire, i = heapq.heappop(clock)    # fires at t, off the clock
                    c.clock_mask ^= 1 << i
                    c.loners.add(i)
                    stations[i].backoff_counter = fire - idle
                    resume_at[i] = anchor
                    starts[i] = (t, _P_START, c.seq, i, None)
                if t > anchor:
                    c.idle = idle + (t - anchor) // slot
            for i in c.loners:
                st = stations[i]
                elapsed = t - resume_at[i]
                if elapsed == st.backoff_counter * slot:
                    continue
                if elapsed > 0:
                    st.backoff_counter -= elapsed // slot
                del starts[i]

    def _resume(self, classes, t: int) -> None:
        """Classes that hear an idle channel from t on defer AIFS, or EIFS
        after a lost frame, then count down. The whole batch takes one
        sequence number: ties within it go in station order."""
        seq = next(self._seq)
        profile = self.profile
        for c in classes:
            c.seq = seq
            if c.clock:
                # garbling marks whole classes, so the clock's members agree
                if self._garbled_since & c.clock_mask:
                    self._garbled_since &= ~c.clock_mask
                    anchor = t + profile.eifs
                else:
                    anchor = t + profile.aifs
                if anchor > c.anchor:
                    c.anchor = anchor
            if c.loners:
                loners, c.loners = c.loners, set()
                for i in loners:
                    self._count_down(c, i, t, seq)
            if c.clock:
                self._post(c)

    def _count_down(self, c: _HearingClass, i: int, t: int, seq: int) -> None:
        """Station i of class c hears an idle channel from t on. It joins the
        clock if its deference ends with the clock's in the same batch, or the
        clock is empty; otherwise it counts down alone."""
        profile = self.profile
        anchor = t + profile.aifs
        if self._garbled_since >> i & 1:
            self._garbled_since ^= 1 << i
            anchor = t + profile.eifs
        if anchor < self._resume_at[i]:
            anchor = self._resume_at[i]
        backoff = self.stations[i].backoff_counter
        if not c.clock:
            c.anchor, c.seq = anchor, seq
        if anchor == c.anchor and seq == c.seq:
            heapq.heappush(c.clock, (c.idle + backoff, i))
            c.clock_mask |= 1 << i
        else:
            c.loners.add(i)
            self._resume_at[i] = anchor
            self._starts[i] = (anchor + backoff * profile.slot_time, _P_START, seq, i,
                               None)

    # -- channel bookkeeping ------------------------------------------------

    def _begin_tx(self, tx: _Tx) -> None:
        audience, ap_hears = self._audience, self._ap_hears
        tx_audience = audience[tx.src]
        from_ap = tx.src == AP
        tx_to_ap = tx.src in ap_hears
        for f in self._ongoing:
            if f.src != AP:
                if tx_to_ap and f.src in ap_hears:
                    f.overlap_snrs.append(tx.snr)
                    tx.overlap_snrs.append(f.snr)
                if from_ap:
                    f.ap_busy = True
            lost = audience[f.src] & tx_audience
            if lost:
                f.garbled_at |= lost
                tx.garbled_at |= lost
                self._garbled_since |= lost
        if from_ap:
            self._ap_tx_until = tx.end
        elif self._ap_tx_until > tx.start:
            tx.ap_busy = True
        self._ongoing.append(tx)

        # A member in flight is deaf to the busy channel, not to the frame:
        # it loses the frame through garbled_at above.
        idle = []
        for c in self._hearing[tx.src]:
            if not c.count:
                idle.append(c)
            c.count += 1
        if idle:
            self._freeze(idle, tx.start)

    def _end_tx(self, t: int, tx: _Tx) -> None:
        self._ongoing.remove(tx)
        idle = []
        for c in self._hearing[tx.src]:
            c.count -= 1
            if not c.count:
                idle.append(c)
        if idle:
            self._resume(idle, t)

    # -- event handlers -----------------------------------------------------

    def _on_start(self, start: tuple) -> None:
        """Take a tabled start off its clock, or off its lone station, and
        transmit."""
        t, _prio, _seq, i, c = start
        if c is None:
            del self._starts[i]
            self._class_of[i].loners.discard(i)
        else:
            heapq.heappop(c.clock)
            c.clock_mask ^= 1 << i
            self._resume_at[i] = c.anchor
            # A clock with members left hears this start, so `_begin_tx`
            # freezes it at once and drops its tabled start there.
            if not c.clock:
                del self._starts[c]
        st = self.stations[i]
        st.note_attempt()
        tx = _Tx(i, t, t + self._airtime[i], st.snr_db, st.retry_flag)
        self._begin_tx(tx)
        self._then(tx.end, _P_END, EventEngine._on_data_end, tx)

    def _on_data_end(self, t, tx: _Tx):
        self._end_tx(t, tx)
        # Sniffers: every class that heard the whole frame cleanly. The
        # source's own class counts it for the other members, so the source
        # notes it as missed.
        src, garbled, flag = tx.src, tx.garbled_at, tx.retry_flag
        mine = self._class_of[src]
        for c in self._hearing[src]:
            if not garbled >> c.members[0] & 1:
                c.sniffed[flag] += 1
                if c is mine:
                    self.stations[src].missed[flag] += 1
        overlaps = tx.overlap_snrs
        decoded = not tx.ap_busy and src in self._ap_hears and (
            not overlaps or self.capture.captures(tx.snr, max(overlaps)))
        if self.slot_log is not None:
            self.slot_log(FrameRecord(tx.start, src, decoded, len(overlaps), flag))
        if decoded:
            self.control.ap.observe_frame(flag)
            self._then(t + self.profile.sifs, _P_ACK, EventEngine._on_ack_start, tx)
        else:
            self._then(t + self._ack_timeout, _P_FAIL, EventEngine._on_tx_fail, tx)

    def _on_ack_start(self, t, frame: _Tx):
        if self._ap_tx_until > t:
            # Half-duplex AP busy with a beacon: the ACK is never sent.
            self._then(frame.end + self._ack_timeout, _P_FAIL,
                       EventEngine._on_tx_fail, frame)
            return
        ack = _Tx(src=AP, start=t, end=t + self.profile.ack_duration, owner=frame)
        self._begin_tx(ack)
        self._then(ack.end, _P_END, EventEngine._on_ack_end, ack)

    def _on_ack_end(self, t, ack: _Tx):
        self._end_tx(t, ack)
        src = ack.owner.src
        if ack.garbled_at >> src & 1:
            self._then(ack.owner.end + self._ack_timeout, _P_FAIL,
                       EventEngine._on_tx_fail, ack.owner)
            return
        st = self.stations[src]
        st.resolve_success(t)
        self._finish_exchange(src, t)

    def _on_tx_fail(self, t, frame: _Tx):
        self.stations[frame.src].resolve_failure(t)
        self._finish_exchange(frame.src, t)

    def _finish_exchange(self, src: int, t: int) -> None:
        """Return a station to contention after its own exchange resolves:
        off the clock, it counts down from t if its class hears an idle
        channel, or waits for the class to resume."""
        c = self._class_of[src]
        if c.count:
            c.loners.add(src)
            return
        # fresh listening period: stale overlap marks from the station's
        # own transmission must not turn the next deference into EIFS
        self._garbled_since &= ~(1 << src)
        fresh = not c.clock
        self._count_down(c, src, t, next(self._seq))
        if fresh:
            self._post(c)   # it started the clock

    def _on_beacon(self, t, _payload):
        self._beacons_left -= 1
        self.control.beacon_update(t // 1000, self._station_list, self._sniffed)
        for c in self._classes:
            c.sniffed[0] = c.sniffed[1] = 0
        start = max(t, self._ap_tx_until)
        beacon = _Tx(src=AP, start=start, end=start + self.profile.beacon_airtime)
        self._begin_tx(beacon)
        self._push(beacon.end, _P_END, EventEngine._end_tx, beacon)

    # -- main loop ------------------------------------------------------------

    def run(self) -> RunResult:
        n_intervals = self.duration_us // self.profile.beacon_interval
        # every station starts off the clock; the first resume puts each
        # class's members on it together
        for c in self._classes:
            c.loners.update(c.members)
        self._resume(self._classes, 0)
        for k in range(1, n_intervals + 1):
            self._push(k * self.profile.beacon_interval, _P_BEACON,
                       EventEngine._on_beacon, None)

        # Events run in (time, priority, sequence) order. A pending start
        # carries the sequence number of the batch that scheduled it, and
        # ties within a batch go in station order, so it takes its turn
        # against the heap exactly as a heap entry would.
        heap, starts = self._heap, self._starts
        self._beacons_left = n_intervals
        while self._beacons_left:
            if starts:
                start = min(starts.values())
                if start < heap[0]:
                    self._on_start(start)
                    continue
            t, _prio, _seq, handler, payload = heapq.heappop(heap)
            handler(self, t, payload)

        return RunResult.from_stations(self._station_list, self.control.records,
                                       self.duration_us)
