import hashlib
import random
from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from edcasim.controllers import compute_p_opt
from edcasim.engine import CONTROLLERS, ControlPlane, run_slotted
from edcasim.estimators import BeaconCounters
from edcasim.harness import run_once
from edcasim.mac import (CAPTURE_MODES, TRAFFIC_KINDS, CaptureModel, FrameRecord,
                         Station, TrafficSource, effective_cw_max, resolve_capture,
                         run_slot)
from edcasim.oracle import solve_fixed_point
from edcasim.phy import PROFILE_80211A_24, collision_duration, success_duration
from edcasim.scenario import Scenario

PROFILE = PROFILE_80211A_24
NO_CAPTURE = CaptureModel(mode="none")


def make_station(sid, snr=30.0, cw=16, beb=True, seed=99):
    return Station(station_id=sid, snr_db=snr, profile=PROFILE,
                   rng=random.Random(f"t/{seed}/{sid}"),
                   traffic=TrafficSource("saturated", 1500),
                   cw_min=cw, beb=beb)


def backoff_window(s):
    """The window a station's next backoff draw spans."""
    return min(s.cw_min_current << s.retry_count, s.cw_max)


def control_plane(controller, stations):
    """A control plane for `stations` with a default scenario's settings."""
    sc = Scenario(snr_db=(30.0,) * len(stations), controller=controller)
    return ControlPlane(sc, [s.id for s in stations])


def capture_winner(snr_by_station, capture):
    """The id of the station `resolve_capture` picks among stations with
    these SNRs, or None."""
    winner = resolve_capture([make_station(i, snr=snr)
                              for i, snr in snr_by_station.items()], capture)
    return None if winner is None else winner.id


class TestResolveCapture:
    def test_clear_margin_wins(self):
        assert capture_winner({1: 30.0, 2: 19.0},
                              CaptureModel("threshold", 10.0)) == 1

    def test_insufficient_margin(self):
        assert capture_winner({1: 30.0, 2: 25.0},
                              CaptureModel("threshold", 10.0)) is None

    def test_tie_is_no_capture(self):
        assert capture_winner({1: 30.0, 2: 30.0},
                              CaptureModel("threshold", 10.0)) is None

    def test_mode_none(self):
        assert capture_winner({1: 90.0, 2: 10.0}, NO_CAPTURE) is None

    def test_three_way_needs_margin_over_second(self):
        snrs = {1: 40.0, 2: 33.0, 3: 20.0}
        assert capture_winner(snrs, CaptureModel("threshold", 10.0)) is None
        snrs = {1: 44.0, 2: 33.0, 3: 20.0}
        assert capture_winner(snrs, CaptureModel("threshold", 10.0)) == 1


class TestCaptureRule:
    def test_both_engines_decide_by_the_difference(self):
        # 9.2 - 6.2 is 2.9999999999999996 but 6.2 + 3.0 is 9.2: a 3 dB
        # threshold captures only if the rule is read as a sum.
        capture = CaptureModel("threshold", 3.0)
        assert not capture.captures(9.2, 6.2)
        assert capture_winner({1: 9.2, 2: 6.2}, capture) is None
        # fully connected runs the slotted engine, a hidden pair the event
        # engine; both see overlapping frames and decode none of them
        for hidden_pairs in ((), ((1, 2),)):
            sc = Scenario(snr_db=(9.2, 6.2), controller="edca-static",
                          capture_mode="threshold", capture_threshold_db=3.0,
                          hidden_pairs=hidden_pairs, duration_s=1.0,
                          replications=1, seed=3, name="edge")
            frames = []
            run_once(sc, 0, slot_log=frames.append)
            overlapped = [f for f in frames if f.overlaps]
            assert overlapped, hidden_pairs
            assert not any(f.decoded for f in overlapped), hidden_pairs


class TestRunSlot:
    def test_simultaneous_zero_counters_collide(self):
        a, b = make_station(1), make_station(2)
        a.backoff_counter = b.backoff_counter = 0
        ap = BeaconCounters()
        duration = run_slot([a, b], NO_CAPTURE, ap)
        assert a.retry_flag and b.retry_flag
        assert a.retry_count == 1 and b.retry_count == 1
        assert backoff_window(a) == 32 and backoff_window(b) == 32
        assert duration == pytest.approx(623.0)
        assert (ap.r0, ap.r1) == (0, 0)    # nothing decoded
        assert a.missed == b.missed == [0, 0]

    def test_single_transmitter_succeeds_other_frozen(self):
        # run_slot is handed the transmitters only: a listener keeps its
        # counter, and the slotted loop credits its sniffer (TestSniffedTallies)
        a, b = make_station(1), make_station(2)
        a.backoff_counter, b.backoff_counter = 0, 3
        ap = BeaconCounters()
        run_slot([a], NO_CAPTURE, ap)
        assert b.backoff_counter == 3          # frozen during the busy event
        assert a.retry_count == 0
        assert a.successes == 1
        # the AP decodes the frame; its sender does not sniff it
        assert (ap.r0, ap.r1) == (1, 0)
        assert a.missed == [1, 0] and b.missed == [0, 0]
        assert a.sniffed == b.sniffed == [0, 0]

    def test_capture_winner_decoded_loser_penalized_like_collision(self):
        a, b = make_station(1, snr=40.0), make_station(2, snr=20.0)
        a.backoff_counter = b.backoff_counter = 0
        frames = []
        run_slot([a, b], CaptureModel("threshold", 10.0), BeaconCounters(), 500,
                 frames.append)
        assert frames == [FrameRecord(500, 1, True, 1, False),
                          FrameRecord(500, 2, False, 1, False)]
        # both sniffers were busy sending the frame the AP decoded
        assert a.missed == b.missed == [1, 0]
        assert a.successes == 1 and a.retry_count == 0
        # the loser's bookkeeping matches the pure-collision path
        assert b.retry_flag and b.retry_count == 1 and backoff_window(b) == 32

    def test_retry_limit_drop_resets_window(self):
        a, b = make_station(1), make_station(2)
        a.retry_count = PROFILE.max_retry
        a._frame_attempts = PROFILE.max_retry
        a.backoff_counter = b.backoff_counter = 0
        run_slot([a, b], NO_CAPTURE, BeaconCounters())
        assert a.drops == 1
        assert a.retry_count == 0 and backoff_window(a) == 16

    def test_credit_sniffed_subtracts_missed_and_zeroes_it(self):
        # the beacon update credits the vantage's tally less `missed`
        a = make_station(1)
        control = control_plane("edca-static", [a])
        a.missed = [2, 1]
        control.beacon_update(100, [a], [(30, 14)])
        assert control.records[-1].p_obs == 13 / 41
        assert a.sniffed == [28, 13]
        assert a.missed == [0, 0]
        control.beacon_update(200, [a], [(25, 5)])
        assert control.records[-1].p_obs == 5 / 30
        assert a.sniffed == [53, 18]

    def test_failure_at_the_retry_limit_drops_once(self):
        a = make_station(1)
        a.retry_count = PROFILE.max_retry - 1
        a.resolve_failure(100)
        assert a.retry_count == PROFILE.max_retry and a.drops == 0
        a._frame_attempts = PROFILE.max_retry + 1
        a.resolve_failure(200)
        assert a.drops == 1
        assert a.attempts == PROFILE.max_retry + 1
        assert a.retry_count == 0 and backoff_window(a) == 16

    def test_retry_flag_tracks_retry_count(self):
        a = make_station(1)
        assert not a.retry_flag
        a.retry_count = 3
        assert a.retry_flag


class TestCachedAirtimes:
    """A station fixes its frame's airtimes when it is built, and `run_slot`
    reads them instead of the duration helpers."""

    @staticmethod
    def station(sid, payload, snr=30.0):
        return Station(station_id=sid, snr_db=snr, profile=PROFILE,
                       rng=random.Random(sid),
                       traffic=TrafficSource("saturated", payload), cw_min=16)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2304))
    def test_station_airtimes_are_the_rounded_durations(self, payload):
        s = self.station(1, payload)
        assert s.success_us == int(round(success_duration(PROFILE, payload)))
        assert s.collision_us == int(round(collision_duration(PROFILE, payload)))

    def test_collision_of_mixed_payloads_lasts_the_longest_frame(self):
        stations = [self.station(i, p) for i, p in enumerate((200, 1500, 700), 1)]
        busy = run_slot(stations, NO_CAPTURE, BeaconCounters())
        assert busy == int(round(collision_duration(PROFILE, 1500)))
        assert busy > int(round(collision_duration(PROFILE, 700)))

    def test_captured_frame_lasts_its_own_success_airtime(self):
        short, long_ = self.station(1, 200, snr=40.0), self.station(2, 1500, snr=20.0)
        busy = run_slot([short, long_], CaptureModel("threshold", 10.0),
                        BeaconCounters())
        assert busy == int(round(success_duration(PROFILE, 200)))


class TestEffectiveCwMax:
    def test_doubling_capped_at_ceiling(self):
        assert effective_cw_max(16, 6, 1024) == 1024
        assert effective_cw_max(64, 6, 1024) == 1024
        assert effective_cw_max(16, 2, 1024) == 64


# Power-of-two windows from the profile's floor to its ceiling.
_POW2_CW = st.integers(PROFILE.cw_floor.bit_length() - 1,
                       PROFILE.cw_ceiling.bit_length() - 1).map(lambda k: 1 << k)


class TestCachedCeiling:
    """`commit_cw_min` caches the backoff ceiling that every draw reads."""

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), _POW2_CW,
           st.lists(st.tuples(_POW2_CW, st.integers(0, PROFILE.max_retry)),
                    min_size=1, max_size=8))
    def test_window_after_every_commit(self, beb, first_cw, commits):
        s = make_station(1, cw=first_cw, beb=beb)
        for cw_min, retry_count in commits:
            running = s.backoff_counter
            s.commit_cw_min(cw_min)
            assert s.backoff_counter == running
            s.retry_count = retry_count
            ceiling = effective_cw_max(cw_min, PROFILE.m_backoff_stages,
                                       PROFILE.cw_ceiling)
            window = min(cw_min << retry_count, ceiling) if beb else cw_min
            assert backoff_window(s) == window
            s.draw_backoff()
            assert 0 <= s.backoff_counter < window


def run_scenario(controller="edca-static", n=5, duration_s=2.0, seed=42,
                 static_cw=16, static_beb=True, capture="none", snr=None):
    sc = Scenario(snr_db=snr or (30.0,) * n, controller=controller,
                  duration_s=duration_s, replications=1, seed=seed,
                  static_cw=static_cw, static_beb=static_beb,
                  capture_mode=capture, name="unit")
    return run_once(sc, 0)


class TestInvariants:
    def test_conservation_and_attempt_accounting(self):
        sc = Scenario(snr_db=(30.0,) * 8, controller="edca-static",
                      duration_s=3.0, replications=1, seed=7,
                      static_cw=16, static_beb=True, name="unit")
        res = run_once(sc, 0)
        profile = PROFILE
        for sid in res.station_ids:
            t = res.successes[sid]
            drops = res.drops[sid]
            # unique frames resolve as either acked or dropped
            assert t + drops > 0
            # every attempt is a success, a counted failure, or part of a drop
            f_raw = res.attempts[sid] - t - drops * (profile.max_retry + 1)
            assert f_raw >= 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 99])
    def test_accounting_identity_via_stations(self, seed):
        # `attempts` counts resolved frames only, while `retries` also counts
        # the retransmissions of the frame still backing off at the end: all
        # but its next one, as the slotted engine resolves each attempt in
        # the event that makes it.
        stations = [make_station(i, seed=seed) for i in range(1, 7)]
        control = control_plane("edca-static", stations)
        run_slotted(stations, PROFILE, NO_CAPTURE, control, 2_000_000)
        for s in stations:
            in_flight_retries = max(0, s.retry_count - 1)
            assert s.attempts == s.successes + s.drops + s.retries - in_flight_retries

    def test_retry_flag_soundness(self):
        # every decoded first-attempt frame carries flag 0, retransmissions 1
        stations = [make_station(i, seed=5) for i in range(1, 5)]
        control = control_plane("edca-static", stations)
        failed = {s.id: 0 for s in stations}   # failed attempts of the current frame
        flags = []

        def log(frame):
            # a retransmission iff the station's last attempt failed short of a drop
            assert frame.retry == (failed[frame.station] > 0)
            if frame.decoded:
                flags.append(frame.retry)
                failed[frame.station] = 0
            else:
                failed[frame.station] = (failed[frame.station] + 1) \
                    % (PROFILE.max_retry + 1)

        run_slotted(stations, PROFILE, NO_CAPTURE, control, 1_000_000,
                    slot_log=log)
        assert flags and any(flags) and not all(flags)

    def test_determinism_identical_runs(self):
        a = run_scenario(controller="cac", n=6, duration_s=2.0, seed=3)
        b = run_scenario(controller="cac", n=6, duration_s=2.0, seed=3)
        assert a.throughput_mbps == b.throughput_mbps
        assert a.records == b.records

    def test_seed_changes_results(self):
        a = run_scenario(n=6, duration_s=2.0, seed=3)
        b = run_scenario(n=6, duration_s=2.0, seed=4)
        assert a.throughput_mbps != b.throughput_mbps

    def test_homogeneous_symmetry(self):
        # capture off + same links: every station within 2% of the mean
        res = run_scenario(controller="cac", n=4, duration_s=100.0, seed=21)
        values = [res.throughput_mbps[i] for i in res.station_ids]
        mean = sum(values) / len(values)
        assert all(abs(v - mean) / mean <= 0.02 for v in values)

    def test_single_station_matches_oracle_throughput(self):
        res = run_scenario(controller="cac", n=1, duration_s=5.0, seed=31)
        predicted = solve_fixed_point(1, 16, PROFILE.m_backoff_stages,
                                      PROFILE, 1500).throughput
        assert res.total_mbps == pytest.approx(predicted, rel=0.02)

    def test_throughput_near_optimum_matches_infinite_retry_model(self):
        # finite retries vs the infinite-retry model: < 2% apart at the
        # low collision rates the controllers target
        sc = Scenario(snr_db=(30.0,) * 10, controller="edca-static",
                      duration_s=10.0, replications=1, seed=18,
                      static_cw=128, static_beb=True, name="unit")
        res = run_once(sc, 0)
        predicted = solve_fixed_point(10, 128, PROFILE.m_backoff_stages,
                                      PROFILE, 1500).throughput
        assert res.total_mbps == pytest.approx(predicted, rel=0.02)

    @pytest.mark.parametrize("n,cw", [(10, 64), (5, 32)])
    def test_collision_probability_matches_fixed_point(self, n, cw):
        # fixed window with standard doubling vs the analytical fixed point
        sc = Scenario(snr_db=(30.0,) * n, controller="edca-static",
                      duration_s=10.0, replications=1, seed=17,
                      static_cw=cw, static_beb=True, name="unit")
        res = run_once(sc, 0)
        predicted = solve_fixed_point(n, cw, PROFILE.m_backoff_stages,
                                      PROFILE, 1500).p
        total_attempts = sum(res.attempts.values())
        total_succ = sum(res.successes.values())
        drops = sum(res.drops.values())
        failures = total_attempts - total_succ - drops * (PROFILE.max_retry + 1)
        measured = (failures + drops * (PROFILE.max_retry + 1)) / total_attempts
        assert measured == pytest.approx(predicted, abs=0.01)

    def test_trace_row_count(self):
        res = run_scenario(controller="cac", n=4, duration_s=1.5, seed=9)
        intervals = int(1.5e6) // PROFILE.beacon_interval
        assert len(res.records) == intervals * (4 + 1)   # stations + AP


@st.composite
def small_scenarios(draw):
    """Short saturated runs on both engines: a fully connected topology
    (slotted engine), a hidden pair or a station hidden from the AP (event
    engine)."""
    n = draw(st.integers(min_value=2, max_value=5))
    topology = draw(st.sampled_from(("full", "hidden_pair", "hidden_from_ap")))
    return Scenario(
        snr_db=tuple(draw(st.lists(st.sampled_from((40.0, 35.0, 30.0, 25.0, 20.0)),
                                   min_size=n, max_size=n))),
        controller=draw(st.sampled_from(CONTROLLERS)),
        capture_mode=draw(st.sampled_from(CAPTURE_MODES)),
        static_beb=draw(st.booleans()),
        hidden_pairs=((1, 2),) if topology == "hidden_pair" else (),
        hidden_from_ap=(n,) if topology == "hidden_from_ap" else (),
        duration_s=1.0, replications=1, seed=draw(st.integers(0, 10_000)),
        name="prop")


class TestAccountingProperties:
    # `attempts` counts the attempts of resolved frames only, while `retries`
    # also counts the retries of the frame still in flight at the end.
    @settings(max_examples=12, deadline=None)
    @given(small_scenarios())
    def test_resolved_attempts_and_delivered_bytes(self, sc):
        res = run_once(sc, 0)
        for sid in res.station_ids:
            in_flight_retries = (res.successes[sid] + res.drops[sid]
                                 + res.retries[sid] - res.attempts[sid])
            assert 0 <= in_flight_retries <= PROFILE.max_retry
            assert res.delivered_bytes[sid] == res.successes[sid] * sc.payload_bytes


@st.composite
def connected_scenarios(draw):
    """Short fully connected runs (slotted engine), saturated or on/off."""
    n = draw(st.integers(min_value=1, max_value=6))
    return Scenario(
        snr_db=tuple(draw(st.lists(st.sampled_from((40.0, 35.0, 30.0, 25.0, 20.0)),
                                   min_size=n, max_size=n))),
        controller=draw(st.sampled_from(CONTROLLERS)),
        capture_mode=draw(st.sampled_from(CAPTURE_MODES)),
        static_beb=draw(st.booleans()),
        traffic=draw(st.sampled_from(TRAFFIC_KINDS)),
        burst_bytes=150_000, silent_mean_s=0.2,
        duration_s=1.0, replications=1, seed=draw(st.integers(0, 10_000)),
        name="prop")


class TestSniffedTallies:
    # In a fully connected cell a station's sniffer hears every frame the AP
    # decodes, except during the channel events in which it transmits.
    @settings(max_examples=12, deadline=None)
    @given(connected_scenarios())
    def test_sniffers_tally_the_decoded_frames_they_did_not_send(self, sc):
        frames = []
        res = run_once(sc, 0, slot_log=frames.append)
        events = defaultdict(list)
        for frame in frames:
            events[frame.t_us].append(frame)
        expected = {sid: [0, 0] for sid in res.station_ids}
        for event in events.values():
            sent = {frame.station for frame in event}
            for frame in event:
                if frame.decoded:
                    for sid, tally in expected.items():
                        if sid not in sent:
                            tally[frame.retry] += 1
        assert res.sniffed_flags == {sid: tuple(tally)
                                     for sid, tally in expected.items()}


class TestClosedLoop:
    @pytest.mark.parametrize("controller", ["cac", "dac"])
    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_converges_to_target_collision_probability(self, controller, n):
        # saturated homogeneous network, 120 s: the time-averaged observed
        # collision probability over the last half tracks the target
        sc = Scenario(snr_db=(30.0,) * n, controller=controller,
                      duration_s=120.0, replications=1, seed=60 + n,
                      name="closedloop")
        res = run_once(sc, 0)
        p_opt = compute_p_opt(PROFILE, 1500).p_opt
        tail = [rec.p_obs for rec in res.records
                if rec.node == "ap" and rec.t_ms > 60_000
                and rec.p_obs is not None]
        mean_pobs = sum(tail) / len(tail)
        assert abs(mean_pobs - p_opt) <= 0.05, (controller, n, mean_pobs)


class TestBeaconInterval:
    def test_no_backlog_means_zero_counters_and_frozen_window(self):
        stations = [make_station(i) for i in range(1, 4)]
        for s in stations:
            s.backlogged = False
            s.traffic.kind = "onoff"
            s.traffic.arrival_us = 10**9   # far beyond the run
        control = control_plane("cac", stations)
        res = run_slotted(stations, PROFILE, NO_CAPTURE, control, 300_000)
        assert all(s.sniffed == [0, 0] for s in stations)
        assert all(s.attempts == 0 for s in stations)
        # deferred every interval: the broadcast window never moves
        for rec in res.records:
            if rec.node == "ap":
                assert rec.cw_quantized == PROFILE.cw_floor
                assert rec.error is None

    def test_single_station_never_sets_retry_flags(self):
        stations = [make_station(1)]
        control = control_plane("cac", stations)
        res = run_slotted(stations, PROFILE, NO_CAPTURE, control, 1_000_000)
        # no contention: flag-1 observations are impossible at any vantage
        assert stations[0].sniffed[1] == 0
        for rec in res.records:
            if rec.node == "ap" and rec.p_obs is not None:
                assert rec.p_obs == 0.0
        assert res.drops[1] == 0

    def test_idle_jump_onto_the_beacon_sends_after_it(self):
        # With a 10 us slot the beacon falls on a slot boundary: a counter of
        # exactly one interval's slots runs out on the beacon itself, and
        # the beacon and its AIFS go first.
        profile = replace(PROFILE_80211A_24, slot_time=10)
        station = Station(station_id=1, snr_db=30.0, profile=profile,
                          rng=random.Random("t/beacon"),
                          traffic=TrafficSource("saturated", 1500), cw_min=16)
        station.backoff_counter = profile.beacon_interval // profile.slot_time
        control = control_plane("edca-static", [station])
        frames = []
        run_slotted([station], profile, NO_CAPTURE, control,
                    2 * profile.beacon_interval, slot_log=frames.append)
        start = profile.beacon_interval + profile.beacon_airtime + profile.aifs
        assert start == 100_203
        assert frames[0].t_us == start


class TestOnOffTraffic:
    def test_transfers_complete_and_delays_recorded(self):
        sc = Scenario(snr_db=(30.0,) * 2, controller="edca-static",
                      duration_s=20.0, replications=1, seed=13,
                      traffic="onoff", burst_bytes=300_000, silent_mean_s=1.0,
                      static_beb=True, name="unit")
        res = run_once(sc, 0)
        delays = [d for sid in res.station_ids for d in res.transfer_delays_us[sid]]
        assert len(delays) >= 4
        # a 300 kB burst at ~17 Mbps takes ~0.14 s
        assert all(50_000 < d < 5_000_000 for d in delays)

    def test_station_goes_idle_between_bursts(self):
        sc = Scenario(snr_db=(30.0,), controller="edca-static",
                      duration_s=10.0, replications=1, seed=13,
                      traffic="onoff", burst_bytes=150_000, silent_mean_s=2.0,
                      static_beb=True, name="unit")
        res = run_once(sc, 0)
        # throughput well below saturation because of silent periods
        assert 0.0 < res.total_mbps < 10.0


# Exact whole-run output of short fully connected runs on the slotted engine:
# per station in id order (attempts, successes, retries, drops,
# delivered_bytes, sniffed_flags), then the number of trace records and the
# SHA-256 of the repr of (records, transfer_delays_us).
_SNR5 = (40.0, 35.0, 30.0, 25.0, 20.0)
_SLOTTED_GOLDEN_SCENARIOS = {
    "cac_beb_on": dict(snr_db=(30.0,) * 5, controller="cac", static_beb=True,
                       seed=21),
    "cac_beb_off": dict(snr_db=(30.0,) * 5, controller="cac", static_beb=False,
                        seed=22),
    "dac_beb_on": dict(snr_db=_SNR5, controller="dac", static_beb=True, seed=23),
    "dac_beb_off": dict(snr_db=_SNR5, controller="dac", static_beb=False, seed=24),
    "static_beb_on": dict(snr_db=(30.0,) * 6, controller="edca-static",
                          static_beb=True, seed=25),
    "static_beb_off": dict(snr_db=(30.0,) * 6, controller="edca-static",
                           static_beb=False, seed=26),
    "capture_threshold": dict(snr_db=_SNR5, controller="edca-static", static_cw=8,
                              static_beb=True, capture_mode="threshold", seed=27),
    "onoff_cac": dict(snr_db=(35.0, 30.0, 25.0), controller="cac",
                      capture_mode="threshold", traffic="onoff",
                      burst_bytes=150_000, silent_mean_s=0.2, seed=28),
    "dac_n40": dict(snr_db=(30.0,) * 40, controller="dac", seed=29),
    # Short bursts and silences at n = 10: arrivals fall due together, during
    # busy events and while nobody is backlogged.
    "onoff_dac_n10": dict(snr_db=tuple(40.0 - 3.0 * i for i in range(10)),
                          controller="dac", capture_mode="threshold",
                          traffic="onoff", burst_bytes=15_000,
                          silent_mean_s=0.05, seed=30),
}

_SLOTTED_GOLDEN = {
    "cac_beb_on": (
        [648, 718, 727, 661, 693],
        [507, 582, 598, 529, 549],
        [141, 136, 129, 132, 144],
        [0, 0, 0, 0, 0],
        [760500, 873000, 897000, 793500, 823500],
        [(1831, 427), (1764, 419), (1741, 426), (1807, 429), (1789, 427)],
        120,
        "0f667a7a815828f6d1281e9865df7d86839c594d299e700a0a9a8547ecf6ecde"),
    "cac_beb_off": (
        [648, 720, 717, 647, 716],
        [515, 581, 591, 510, 585],
        [133, 140, 126, 137, 133],
        [0, 0, 0, 0, 0],
        [772500, 871500, 886500, 765000, 877500],
        [(1851, 416), (1795, 406), (1769, 422), (1856, 416), (1785, 412)],
        120,
        "49d70a38b3ce48d55f3e03a30419430ceb2de7e353dc706a92cb91b6decb1c17"),
    "dac_beb_on": (
        [751, 629, 697, 717, 668],
        [611, 509, 545, 564, 537],
        [140, 120, 152, 153, 133],
        [0, 0, 0, 0, 0],
        [916500, 763500, 817500, 846000, 805500],
        [(1714, 441), (1800, 457), (1783, 438), (1767, 435), (1776, 453)],
        120,
        "d55eb67f1845ad914622b5e0826541c5284604411416c6f904326108de6a9ce5"),
    "dac_beb_off": (
        [697, 776, 608, 668, 714],
        [553, 615, 487, 529, 571],
        [144, 161, 121, 139, 143],
        [0, 0, 0, 0, 0],
        [829500, 922500, 730500, 793500, 856500],
        [(1750, 452), (1703, 437), (1790, 478), (1765, 461), (1724, 460)],
        120,
        "960160925c105209ceaf80113b6e95330c1d970c06490c8f29628952348751f8"),
    "static_beb_on": (
        [573, 462, 701, 650, 681, 629],
        [419, 317, 501, 460, 493, 464],
        [157, 145, 200, 190, 190, 165],
        [0, 0, 0, 0, 0, 0],
        [628500, 475500, 751500, 690000, 739500, 696000],
        [(1602, 633), (1690, 647), (1565, 588), (1581, 613), (1558, 603), (1564, 626)],
        140,
        "482918fefb638660a7b039bb9d8da4981443393fc5ec9041631e010802da9e9f"),
    "static_beb_off": (
        [676, 700, 700, 710, 709, 709],
        [391, 395, 385, 384, 381, 401],
        [283, 305, 314, 326, 328, 306],
        [2, 1, 1, 0, 1, 2],
        [586500, 592500, 577500, 576000, 571500, 601500],
        [(1070, 876), (1069, 873), (1082, 870), (1086, 867), (1091, 865), (1082, 854)],
        140,
        "49939f80b7d17e236c1d651e6794ad5f678e326044f4c8326c9bd0490b0f94da"),
    "capture_threshold": (
        [1316, 918, 697, 452, 612],
        [1133, 671, 460, 250, 368],
        [183, 246, 237, 206, 245],
        [0, 1, 0, 0, 1],
        [1699500, 1006500, 690000, 375000, 552000],
        [(1162, 587), (1647, 564), (1726, 574), (1898, 614), (1764, 561)],
        120,
        "fbb917111e4701b754751705b2ebec0a0114d45518bf23b670d133b7a16ac483"),
    "onoff_cac": (
        [727, 555, 855],
        [692, 500, 800],
        [35, 55, 55],
        [0, 0, 0],
        [1038000, 750000, 1200000],
        [(1205, 95), (1413, 79), (1083, 77)],
        80,
        "61574feac380398a91835eb4b1c5c3b37536584991f450f7fd60154c3a89b110"),
    "dac_n40": (
        [112, 111, 107, 115, 114, 96, 106, 106, 78, 101, 118, 109, 110, 88, 73, 106,
         113, 114, 103, 100, 78, 134, 121, 95, 111, 114, 89, 137, 100, 122, 107, 117,
         102, 116, 101, 124, 111, 118, 81, 116],
        [61, 61, 55, 59, 64, 48, 55, 60, 43, 58, 56, 60, 47, 44, 36, 58, 58, 70, 51,
         49, 37, 68, 69, 49, 58, 68, 49, 69, 49, 57, 54, 59, 58, 59, 47, 73, 67, 64,
         44, 62],
        [51, 51, 52, 57, 52, 48, 51, 48, 39, 42, 62, 53, 63, 45, 41, 48, 55, 44, 52,
         51, 41, 67, 54, 46, 55, 48, 42, 68, 51, 68, 53, 58, 46, 58, 53, 50, 44, 56,
         40, 54],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
         0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
        [91500, 91500, 82500, 88500, 96000, 72000, 82500, 90000, 64500, 87000, 84000,
         90000, 70500, 66000, 54000, 87000, 87000, 105000, 76500, 73500, 55500, 102000,
         103500, 73500, 87000, 102000, 73500, 103500, 73500, 85500, 81000, 88500,
         87000, 88500, 70500, 109500, 100500, 96000, 66000, 93000],
        [(1168, 1024), (1171, 1021), (1173, 1025), (1178, 1016), (1171, 1018),
         (1180, 1025), (1174, 1024), (1171, 1022), (1178, 1032), (1167, 1028),
         (1181, 1016), (1174, 1019), (1184, 1022), (1180, 1029), (1188, 1029),
         (1170, 1025), (1178, 1017), (1158, 1025), (1178, 1024), (1181, 1023),
         (1186, 1030), (1175, 1010), (1164, 1020), (1181, 1023), (1176, 1019),
         (1162, 1023), (1179, 1025), (1169, 1015), (1176, 1028), (1177, 1019),
         (1178, 1021), (1173, 1021), (1167, 1028), (1172, 1022), (1181, 1025),
         (1158, 1022), (1162, 1024), (1170, 1019), (1181, 1028), (1166, 1025)],
        820,
        "ad8137c730458d12aaaa637daeac4e2b95c5016b88b11e87fe05e608656b1c5d"),
    "onoff_dac_n10": (
        [285, 354, 266, 351, 326, 288, 408, 365, 269, 342],
        [260, 319, 240, 300, 270, 235, 327, 300, 211, 280],
        [25, 35, 26, 51, 56, 53, 81, 65, 58, 62],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [390000, 478500, 360000, 450000, 405000, 352500, 490500, 450000, 316500,
         420000],
        [(2091, 391), (2043, 380), (2111, 391), (2071, 371), (2096, 369),
         (2126, 368), (2039, 348), (2057, 355), (2140, 359), (2066, 358)],
        220,
        "e78d9c7cca26911a188d74663bdca5229fdb440d2d3a28896848b8bf3904d814"),
}


class TestSlottedGolden:
    """The slotted engine's exact output: any change to backoff, capture,
    sniffing, on/off activation or event order moves these numbers."""

    @pytest.mark.parametrize("name", sorted(_SLOTTED_GOLDEN))
    def test_exact_output(self, name):
        sc = Scenario(duration_s=2.0, replications=1, name=name,
                      **_SLOTTED_GOLDEN_SCENARIOS[name])
        assert sc.is_fully_connected()
        res = run_once(sc, 0)
        ids = res.station_ids
        digest = hashlib.sha256(
            repr((res.records, res.transfer_delays_us)).encode()).hexdigest()
        got = tuple([tally[i] for i in ids]
                    for tally in (res.attempts, res.successes, res.retries,
                                  res.drops, res.delivered_bytes,
                                  res.sniffed_flags))
        assert got + (len(res.records), digest) == _SLOTTED_GOLDEN[name]
