import random

import pytest
from hypothesis import given, settings, strategies as st

from edcasim.controllers import compute_p_opt
from edcasim.engine import CONTROLLERS, ControlPlane, run_slotted
from edcasim.estimators import BeaconCounters
from edcasim.harness import run_once
from edcasim.mac import (CAPTURE_MODES, CaptureModel, Station, TrafficSource,
                         resolve_capture, run_slot)
from edcasim.oracle import solve_fixed_point
from edcasim.phy import PROFILE_80211A_24
from edcasim.scenario import Scenario

PROFILE = PROFILE_80211A_24
NO_CAPTURE = CaptureModel(mode="none")


def make_station(sid, snr=30.0, cw=16, beb=True, seed=99):
    return Station(station_id=sid, snr_db=snr, profile=PROFILE,
                   rng=random.Random(f"t/{seed}/{sid}"),
                   traffic=TrafficSource("saturated", 1500),
                   cw_min=cw, beb=beb)


class TestResolveCapture:
    def test_clear_margin_wins(self):
        assert resolve_capture({1: 30.0, 2: 19.0},
                               CaptureModel("threshold", 10.0)) == 1

    def test_insufficient_margin(self):
        assert resolve_capture({1: 30.0, 2: 25.0},
                               CaptureModel("threshold", 10.0)) is None

    def test_tie_is_no_capture(self):
        assert resolve_capture({1: 30.0, 2: 30.0},
                               CaptureModel("threshold", 10.0)) is None

    def test_mode_none(self):
        assert resolve_capture({1: 90.0, 2: 10.0}, NO_CAPTURE) is None

    def test_three_way_needs_margin_over_second(self):
        snrs = {1: 40.0, 2: 33.0, 3: 20.0}
        assert resolve_capture(snrs, CaptureModel("threshold", 10.0)) is None
        snrs = {1: 44.0, 2: 33.0, 3: 20.0}
        assert resolve_capture(snrs, CaptureModel("threshold", 10.0)) == 1


class TestRunSlot:
    def test_simultaneous_zero_counters_collide(self):
        a, b = make_station(1), make_station(2)
        a.backoff_counter = b.backoff_counter = 0
        ap = BeaconCounters()
        duration = run_slot([a, b], NO_CAPTURE, PROFILE, ap)
        assert a.retry_flag and b.retry_flag
        assert a.retry_count == 1 and b.retry_count == 1
        assert a.current_cw() == 32 and b.current_cw() == 32
        assert duration == pytest.approx(623.0)
        assert ap.r0_total + ap.r1_total == 0    # nothing decoded

    def test_single_transmitter_succeeds_other_frozen(self):
        a, b = make_station(1), make_station(2)
        a.backoff_counter, b.backoff_counter = 0, 3
        ap = BeaconCounters()
        run_slot([a, b], NO_CAPTURE, PROFILE, ap)
        assert b.backoff_counter == 3          # frozen during the busy event
        assert a.retry_count == 0
        assert a.counters.successes_cumulative == 1
        # the AP and the listening station sniff the frame; its sender does not
        assert ap.r0_total == b.counters.r0_total == 1
        assert a.counters.r0_total == 0

    def test_capture_winner_decoded_loser_penalized_like_collision(self):
        a, b = make_station(1, snr=40.0), make_station(2, snr=20.0)
        a.backoff_counter = b.backoff_counter = 0
        frames = []
        run_slot([a, b], CaptureModel("threshold", 10.0), PROFILE,
                 BeaconCounters(), 500, lambda *f: frames.append(f))
        assert frames == [(500, 1, True, 1, False), (500, 2, False, 1, False)]
        assert a.counters.successes_cumulative == 1 and a.retry_count == 0
        # the loser's bookkeeping matches the pure-collision path
        assert b.retry_flag and b.retry_count == 1 and b.current_cw() == 32

    def test_retry_limit_drop_resets_window(self):
        a, b = make_station(1), make_station(2)
        a.retry_count = PROFILE.max_retry
        a._frame_attempts = PROFILE.max_retry
        a.backoff_counter = b.backoff_counter = 0
        run_slot([a, b], NO_CAPTURE, PROFILE, BeaconCounters())
        assert a.frames_dropped_retry == 1
        assert a.retry_count == 0 and a.current_cw() == 16
        assert a.dropped_this_interval == 1

    def test_retry_flag_tracks_retry_count(self):
        a = make_station(1)
        assert not a.retry_flag
        a.retry_count = 3
        assert a.retry_flag


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

    def test_accounting_identity_via_stations(self):
        stations = [make_station(i) for i in range(1, 7)]
        point = compute_p_opt(PROFILE, 1500)
        control = ControlPlane("edca-static", [s.id for s in stations],
                               PROFILE, point.p_opt)
        run_slotted(stations, PROFILE, NO_CAPTURE, control, 2_000_000)
        for s in stations:
            retries = s.counters.failures_cumulative
            assert s.attempts_resolved == s.counters.successes_cumulative \
                + retries + s.frames_dropped_retry

    def test_retry_flag_soundness(self):
        # every decoded first-attempt frame carries flag 0, retransmissions 1
        stations = [make_station(i, seed=5) for i in range(1, 5)]
        point = compute_p_opt(PROFILE, 1500)
        control = ControlPlane("edca-static", [s.id for s in stations],
                               PROFILE, point.p_opt)
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
        point = compute_p_opt(PROFILE, 1500)
        control = ControlPlane("cac", [s.id for s in stations], PROFILE,
                               point.p_opt)
        res = run_slotted(stations, PROFILE, NO_CAPTURE, control, 300_000)
        assert all(s.counters.r0_total == s.counters.r1_total == 0
                   for s in stations)
        assert all(s.attempts_resolved == 0 for s in stations)
        # deferred every interval: the broadcast window never moves
        for rec in res.records:
            if rec.node == "ap":
                assert rec.cw_quantized == PROFILE.cw_floor
                assert rec.error is None

    def test_single_station_never_sets_retry_flags(self):
        stations = [make_station(1)]
        point = compute_p_opt(PROFILE, 1500)
        control = ControlPlane("cac", [1], PROFILE, point.p_opt)
        res = run_slotted(stations, PROFILE, NO_CAPTURE, control, 1_000_000)
        # no contention: flag-1 observations are impossible at any vantage
        assert stations[0].counters.r1_total == 0
        for rec in res.records:
            if rec.node == "ap" and rec.p_obs is not None:
                assert rec.p_obs == 0.0
        assert res.drops[1] == 0


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
