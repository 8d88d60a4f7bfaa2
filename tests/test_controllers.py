import dataclasses
import io
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from edcasim.controllers import (CONTROLLERS, ControllerState, PiGains, cac_step,
                                 compute_gains, compute_p_opt, dac_step, initial_state,
                                 pi_update)
from edcasim.engine import ControlPlane, IntervalRecord, run_slotted
from edcasim.estimators import estimate_p_obs, estimate_p_own
from edcasim.harness import _build_stations, trace_writer
from edcasim.mac import CaptureModel, Station, effective_cw_max
from edcasim.phy import PROFILE_80211A_24, PhyProfile, collision_duration
from edcasim.scenario import Scenario
from recording import record_sink

# Frozen from a 40-digit evaluation of the closed forms (see test docstrings).
P_OPT_80211A_1500 = 0.15631646219011982
KP_016_M6 = 25.302794032041192
KI_016_M6 = 14.883996489435996


def p_col_exact(profile: PhyProfile, payload: int, n: int) -> float:
    """Collision probability at the exact optimum for n stations, whose
    per-station transmission probability the approximation replaces."""
    t_e, t_c = profile.slot_time, collision_duration(profile, payload)
    tau_opt_exact = min(1.0, math.sqrt(2.0 * t_e / t_c) / n)
    return 1.0 - (1.0 - tau_opt_exact) ** (n - 1)


class TestOptimalPoint:
    def test_80211a_band(self):
        assert 0.14 <= compute_p_opt(PROFILE_80211A_24, 1500) <= 0.18

    def test_80211a_golden(self):
        p_opt = compute_p_opt(PROFILE_80211A_24, 1500)
        assert p_opt == pytest.approx(P_OPT_80211A_1500, rel=1e-12)
        assert collision_duration(PROFILE_80211A_24, 1500) == pytest.approx(623.0)

    def test_unit_exponent(self):
        # Te = Tc/2 forces the exponent to 1: p_opt = 1 - 1/e
        profile = PhyProfile(name="half", slot_time=50, sifs=1, aifs=1,
                             t_plcp=40, eifs=40, ack_duration=1, bit_rate=4.0,
                             beacon_interval=100_000)
        # Tc = 40 + 20 + 40 = 100 = 2*Te
        assert collision_duration(profile, 10) == pytest.approx(2 * profile.slot_time)
        assert compute_p_opt(profile, 10) == pytest.approx(1.0 - math.exp(-1.0))

    def test_independent_of_station_count(self):
        p_opt = compute_p_opt(PROFILE_80211A_24, 1500)
        # the exact per-n optimum converges to the approximation from below
        exact = [p_col_exact(PROFILE_80211A_24, 1500, n) for n in (5, 20, 100, 1000)]
        assert exact == sorted(exact)
        assert exact[-1] == pytest.approx(p_opt, abs=0.01)


class TestGains:
    def test_golden_at_016(self):
        g = compute_gains(0.16, 6)
        assert g.k_p == pytest.approx(KP_016_M6, rel=1e-12)
        assert g.k_i == pytest.approx(KI_016_M6, rel=1e-12)

    def test_goldens_against_high_precision_evaluation(self):
        # independent 40-digit recomputation of the frozen constants
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        p = 1 - mp.e ** (-mp.sqrt(mp.mpf(2) * 9 / 623))
        assert float(p) == pytest.approx(P_OPT_80211A_1500, rel=1e-15)
        p16 = mp.mpf("0.16")
        den = p16 ** 2 * (1 + p16 * sum((2 * p16) ** k for k in range(6)))
        assert float(mp.mpf("0.8") / den) == pytest.approx(KP_016_M6, rel=1e-15)
        assert float(mp.mpf("0.4") / (mp.mpf("0.85") * den)) \
            == pytest.approx(KI_016_M6, rel=1e-15)

    def test_ratio_exact(self):
        for p_opt in (0.05, 0.16, 0.3, 0.45):
            g = compute_gains(p_opt, 6)
            assert g.k_i / g.k_p == pytest.approx(0.4 / (0.85 * 0.8), rel=1e-12)

    def test_single_term_sum(self):
        g = compute_gains(0.1, 1)
        assert g.k_p == pytest.approx(0.8 / (0.01 * 1.1), rel=1e-12)

    def test_design_envelope(self):
        with pytest.raises(ValueError):
            compute_gains(0.5, 6)
        with pytest.raises(ValueError):
            compute_gains(0.0, 6)
        with pytest.raises(ValueError):
            compute_gains(0.16, 0)


def dac_error(p_obs: float, p_own: float, p_opt: float) -> float:
    """The error a DAC step feeds its PI update, as the new state stores it."""
    return dac_step(p_obs, p_own, make_state(), p_opt).prev_error


class TestErrors:
    """Each step's error signal, read off the state it returns."""

    @pytest.mark.parametrize("p_obs,p_opt,expected", [
        (0.16, 0.16, 0.0), (0.30, 0.16, 0.14), (0.05, 0.16, -0.11)])
    def test_cac_error(self, p_obs, p_opt, expected):
        assert cac_step(p_obs, make_state(), p_opt).prev_error == pytest.approx(expected)

    @pytest.mark.parametrize("p_obs,p_own,p_opt,expected", [
        (0.2, 0.1, 0.16, 0.14),
        (0.16, 0.16, 0.16, 0.0),
        (0.16, 0.30, 0.16, -0.14)])
    def test_dac_error(self, p_obs, p_own, p_opt, expected):
        assert dac_error(p_obs, p_own, p_opt) == pytest.approx(expected)

    def test_dac_fixed_point_characterization(self):
        # In a network where every station observes the common collision level
        # and that level is the average of experienced ones, zero error at all
        # stations holds exactly when everything sits at the target.
        p_opt = 0.16
        rng = random.Random(11)
        for _ in range(200):
            p_own = [rng.uniform(0, 0.5) for _ in range(5)]
            p_obs = sum(p_own) / len(p_own)
            errors = [dac_error(p_obs, po, p_opt) for po in p_own]
            if all(abs(e) < 1e-12 for e in errors):
                assert all(abs(po - p_opt) < 1e-9 for po in p_own)
                assert abs(p_obs - p_opt) < 1e-9
        # the converse direction
        assert dac_error(p_opt, p_opt, p_opt) == pytest.approx(0.0)


def committed_cw(cw_real: float, floor: int, ceiling: int) -> int:
    """The window `pi_update` commits for `cw_real`: a zero error on a zero
    previous error leaves the real window where it is."""
    return pi_update(ControllerState(PiGains(25.3, 14.9), floor, ceiling, cw_real, floor),
                     0.0).cw_quantized


# The exponent's rounding ties, 2 ** (k + 0.5), over the windows 1..2**20.
_TIES = st.integers(0, 19).map(lambda k: 2.0 ** (k + 0.5))


class TestQuantize:
    """`pi_update` commits the nearest power of 2 in log space, clamped to
    the bounds; half-way exponents round half to even."""

    @pytest.mark.parametrize("cw_real,expected", [
        (115.0, 128), (90.0, 64), (16.0, 16), (1024.0, 1024)])
    def test_examples(self, cw_real, expected):
        assert committed_cw(cw_real, 16, 1024) == expected

    def test_half_even_ties(self):
        # 2^6.5: exponent rounds half-to-even down to 6
        assert committed_cw(2 ** 6.5, 16, 1024) == 64
        # 2^7.5 rounds up to 8
        assert committed_cw(2 ** 7.5, 16, 1024) == 256

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(
               _TIES,
               _TIES.flatmap(lambda t: st.sampled_from(
                   [math.nextafter(t, 0.0), math.nextafter(t, math.inf)])),
               st.floats(1.0, 2.0 ** 20)),
           bounds=st.lists(st.integers(0, 20), min_size=2, max_size=2).map(sorted))
    @example(x=2 ** 6.5, bounds=[4, 10])
    @example(x=2 ** 12.5, bounds=[0, 20])
    def test_commit_rounds_the_exponent_half_to_even(self, x, bounds):
        floor, ceiling = (1 << b for b in bounds)
        assert committed_cw(x, floor, ceiling) == min(max(2 ** round(math.log2(x)), floor),
                                                     ceiling)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            x = rng.uniform(16, 1024)
            q = committed_cw(x, 16, 1024)
            assert committed_cw(float(q), 16, 1024) == q

    def test_clamped_to_bounds(self):
        assert committed_cw(4.0, 16, 1024) == 16
        assert committed_cw(9000.0, 16, 1024) == 1024


def make_state(cw_real=64.0, k_p=25.3, k_i=14.9, prev_error=0.0,
               floor=16, ceiling=1024):
    g = PiGains(k_p=k_p, k_i=k_i)
    return ControllerState(gains=g, cw_floor=floor, cw_ceiling=ceiling,
                           cw_real=cw_real,
                           cw_quantized=committed_cw(cw_real, floor, ceiling),
                           prev_error=prev_error)


class TestControllerState:
    """The contract of the controller state: an immutable value, built by
    keyword, and returned as the same object when a step defers."""

    def test_attributes_cannot_be_assigned(self):
        s = make_state()
        for name, value in (("cw_real", 99.0), ("prev_error", 0.5), ("new", 1)):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        assert s == make_state()

    def test_keyword_construction_defaults_the_previous_error(self):
        g = PiGains(k_p=25.3, k_i=14.9)
        s = ControllerState(gains=g, cw_floor=16, cw_ceiling=1024,
                            cw_real=1015.0, cw_quantized=1024)
        assert (s.gains, s.cw_floor, s.cw_ceiling) == (g, 16, 1024)
        assert (s.cw_real, s.cw_quantized, s.prev_error) == (1015.0, 1024, 0.0)
        assert s == ControllerState(g, 16, 1024, 1015.0, 1024, 0.0)
        assert s != ControllerState(g, 16, 1024, 1015.0, 1024, 0.1)

    def test_deferral_returns_the_same_object(self):
        s = make_state(cw_real=77.0, prev_error=0.25)
        assert pi_update(s, None) is s
        assert dac_step(None, 0.2, s, 0.16) is s
        assert dac_step(0.2, None, s, 0.16) is s
        assert cac_step(None, s, 0.16) is s
        # a step, even one that lands on the same value, is a new object
        stepped = pi_update(s, 0.0)
        assert stepped is not s and stepped.prev_error == 0.0


class TestPiUpdate:
    def test_arithmetic_example(self):
        s = pi_update(make_state(cw_real=64.0), 0.1)
        assert s.cw_real == pytest.approx(64 + 25.3 * 0.1)
        assert s.cw_quantized == 64
        assert s.prev_error == pytest.approx(0.1)

    def test_clamp_at_ceiling(self):
        s = pi_update(make_state(cw_real=1020.0), 5.0)
        assert s.cw_real == 1024.0
        assert s.cw_quantized == 1024

    def test_equilibrium(self):
        s0 = make_state(cw_real=100.0, prev_error=0.0)
        s1 = pi_update(s0, 0.0)
        assert s1.cw_real == s0.cw_real
        assert s1.cw_quantized == s0.cw_quantized

    def test_deferred_freezes_everything(self):
        s0 = make_state(cw_real=77.0, prev_error=0.25)
        s1 = pi_update(s0, None)
        assert s1 is s0

    def test_velocity_form_identity(self):
        # away from the clamps, cw[T] - cw[0] telescopes to
        # K_P*(e[T] - e[0-]) + K_I * sum of all but the last error
        rng = random.Random(5)
        for _ in range(50):
            k_p, k_i = rng.uniform(1, 40), rng.uniform(1, 40)
            errors = [rng.uniform(-0.01, 0.01) for _ in range(rng.randrange(1, 30))]
            s = make_state(cw_real=500.0, k_p=k_p, k_i=k_i,
                           floor=1, ceiling=10**9)
            for e in errors:
                s = pi_update(s, e)
            expected = 500.0 + k_p * (errors[-1] - 0.0) \
                + k_i * sum(errors[:-1])
            assert s.cw_real == pytest.approx(expected, rel=1e-9)

    def test_clamp_absorbing_under_zero_errors(self):
        # errors are probability differences, so |e| < 1; after the stored
        # error drains (one step), zeros keep the state put, and the committed
        # window never leaves the bound
        s = pi_update(make_state(cw_real=1010.0), 0.8)
        assert s.cw_real == 1024.0 and s.cw_quantized == 1024
        s = pi_update(s, 0.0)
        assert s.cw_quantized == 1024
        settled = s.cw_real
        for _ in range(5):
            s = pi_update(s, 0.0)
            assert s.cw_real == settled and s.cw_quantized == 1024
        # same at the floor; p_obs >= 0 bounds the centralized error below
        # by -p_opt, so the one-step transient stays inside the bottom bin
        s = pi_update(make_state(cw_real=18.0), -0.16)
        assert s.cw_real == 16.0 and s.cw_quantized == 16
        s = pi_update(s, 0.0)
        assert s.cw_quantized == 16
        settled = s.cw_real
        for _ in range(5):
            s = pi_update(s, 0.0)
            assert s.cw_real == settled and s.cw_quantized == 16


class TestSteps:
    P_OPT = 0.16

    def test_cac_defer_rebroadcasts(self):
        state = make_state(cw_real=128.0)
        p_obs = estimate_p_obs(5, 1)
        assert p_obs is None
        new = cac_step(p_obs, state, self.P_OPT)
        assert new is state and new.cw_quantized == 128

    def test_cac_cold_start_rises_under_collisions(self):
        state = initial_state(PiGains(25.3, 14.9), 16, 1024)
        # p_obs = 0.5 >> p_opt
        new = cac_step(estimate_p_obs(50, 50), state, self.P_OPT)
        assert new.cw_real > state.cw_real
        assert new.cw_quantized >= state.cw_quantized

    def test_dac_defer_on_missing_own_samples(self):
        state = make_state(cw_real=64.0)
        # plenty of sniffed frames but no own attempts
        p_own = estimate_p_own(0, 0, 0, max_retry=7)
        assert p_own is None
        new = dac_step(estimate_p_obs(80, 20), p_own, state, self.P_OPT)
        assert new is state

    def test_dac_station_alone_decays_to_floor(self):
        # A lone always-backlogged station: p_obs = 0 over its own successes
        # is not even needed; with no sniffed frames the update defers forever
        # at the floor, and with sniffable peers at zero collisions it decays.
        state = initial_state(PiGains(25.3, 14.9), 16, 1024)
        for _ in range(10):
            state = dac_step(estimate_p_obs(100, 0),
                             estimate_p_own(100, 0, 0, max_retry=7),
                             state, self.P_OPT)
            assert state.cw_real == 16.0 and state.cw_quantized == 16


class TestControlPlaneSettings:
    def test_defaults_come_from_the_phy_and_payload(self):
        sc = Scenario(snr_db=(30.0,) * 3, controller="dac")
        plane = ControlPlane(sc)
        assert plane.p_opt == pytest.approx(P_OPT_80211A_1500, rel=1e-12)
        assert plane.min_samples == sc.defer_min_samples
        assert plane.gains == compute_gains(plane.p_opt, sc.phy().m_backoff_stages)
        assert set(plane.dac_states) == {1, 2, 3}
        assert all((st.cw_floor, st.cw_ceiling) == sc.cw_bounds()
                   for st in plane.dac_states.values())
        assert plane.cac_state is None and plane.trace is None

    def test_overrides_are_read_off_the_scenario(self):
        sc = Scenario(snr_db=(30.0,), controller="cac", payload_bytes=200,
                      defer_min_samples=7, kp_override=3.0, ki_override=2.0,
                      cw_floor_override=8, cw_ceiling_override=256)
        plane = ControlPlane(sc)
        assert plane.p_opt == compute_p_opt(sc.phy(), 200)
        assert plane.min_samples == 7
        assert plane.gains == PiGains(3.0, 2.0)
        state = plane.cac_state
        assert (state.cw_floor, state.cw_ceiling, state.cw_quantized) == (8, 256, 8)
        assert plane.dac_states == {}

    @pytest.mark.parametrize("controller,start", [
        ("cac", (64, True)), ("dac", (64, True)), ("edca-static", (128, False))])
    def test_plane_sets_each_stations_starting_window(self, controller, start):
        # a controller starts every station at its floor, with doubling; the
        # EDCA baseline at its fixed window, doubling only if asked
        sc = Scenario(snr_db=(30.0,) * 3, controller=controller,
                      cw_floor_override=64, static_cw=128)
        plane = ControlPlane(sc)
        assert (plane.start_cw, plane.beb) == start
        stations = _build_stations(sc, sc.seed, plane)
        assert [s.id for s in stations] == list(plane.marks) == [1, 2, 3]
        assert all((s.cw_min_current, s.beb) == start for s in stations)


class TestIntervalGains:
    """The control plane takes each station's counter gains since the last
    beacon against the reading it marked then; the station only counts."""

    @staticmethod
    def plane_and_station():
        """A traced plane, its one station, and the list its records go to."""
        sc = Scenario(snr_db=(30.0,), controller="edca-static")
        station = Station(1, 30.0, sc.phy(), random.Random(1),
                          1500, 16)
        records = []
        return ControlPlane(sc, record_sink(records)), station, records

    def test_interval_deltas(self):
        plane, station, records = self.plane_and_station()
        for t_ms, (ok, retries) in ((100, (60, 15)), (200, (40, 5))):
            station.successes += ok
            station.retries += retries
            plane.beacon_update(t_ms, [station], [(0, 0)])
        first, second = records[1], records[3]
        assert first.p_own == pytest.approx(15 / 75)
        # T = 40, F = 5
        assert second.p_own == pytest.approx(5 / 45)

    def test_marks_hold_the_last_reading(self):
        plane, station, records = self.plane_and_station()
        assert plane.marks == {1: (0, 0, 0)}
        station.successes, station.retries, station.drops = 10, 11, 1
        plane.beacon_update(100, [station], [(0, 0)])
        assert plane.marks == {1: (10, 11, 1)}
        # F = 11 - 7 for the drop, T = 10
        assert records[-1].p_own == pytest.approx(4 / 14)
        # no gains: nothing to estimate from, and the whole-run counters stand
        plane.beacon_update(200, [station], [(0, 0)])
        assert records[-1].p_own is None
        assert (station.successes, station.retries, station.drops) == (10, 11, 1)


class TestWindowBoundHits:
    @pytest.mark.parametrize("controller,hits", [("cac", 20), ("dac", 80)])
    def test_every_step_at_a_bound_counts(self, controller, hits):
        # Estimates never trusted: every window stays at the floor of 16 for
        # all 20 intervals, so each step counts: CAC's one window per
        # interval, DAC's four.
        sc = Scenario(snr_db=(30.0,) * 4, controller=controller, duration_s=2.0,
                      replications=1, seed=3, defer_min_samples=10 ** 9)
        control = ControlPlane(sc)
        stations = _build_stations(sc, sc.seed, control)
        run_slotted(stations, sc.phy(), CaptureModel(), control, sc.duration_us)
        assert all(s.cw_min_current == 16 for s in stations)
        assert control.cw_cap_hits == hits


class TestUntracedPlane:
    """Without a trace sink the plane builds no trace row, yet steps, counts
    cap hits and commits every window as a traced plane does."""

    @staticmethod
    def run(sc, trace):
        control = ControlPlane(sc, trace)
        stations = _build_stations(sc, sc.seed, control)
        result = run_slotted(stations, sc.phy(), CaptureModel(), control, sc.duration_us)
        return (result, control.cw_cap_hits, control.cac_state, control.dac_states,
                [s.cw_min_current for s in stations])

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_builds_no_record_and_commits_alike(self, controller):
        sc = Scenario(snr_db=(35.0, 30.0, 25.0, 20.0), controller=controller,
                      duration_s=2.0, replications=1, seed=3)
        records, appends = [], []
        traced = self.run(sc, record_sink(records))

        def watch(frame, event, arg):
            # A row is a tuple appended to the beacon's list of rows.
            if (event == "c_call" and frame.f_code.co_name == "beacon_update"
                    and arg.__name__ == "append"):
                appends.append(frame.f_lineno)

        sys.setprofile(watch)
        try:
            untraced = self.run(sc, None)
        finally:
            sys.setprofile(None)
        assert len(records) == 20 * (sc.n_stations + 1) and appends == []
        assert untraced == traced


class TestCallsPerStep:
    """The beacon pass's cost, counted rather than timed: the Python calls
    made under `beacon_update` per DAC station step, on 40 stations for 2 s.
    A step calls `estimate_p_obs`, `estimate_p_own`, `dac_step` and
    `pi_update`, and commits its window only when it moves; a trace sink
    takes one call per beacon, not one per row."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_dac_station_step_makes_at_most_4_calls(self, traced):
        sc = Scenario(snr_db=tuple(40.0 - 0.5 * i for i in range(40)), controller="dac",
                      duration_s=2.0, replications=1, seed=3)
        control = ControlPlane(sc, trace_writer(io.StringIO()) if traced else None)
        stations = _build_stations(sc, sc.seed, control)
        update = ControlPlane.beacon_update.__code__
        open_updates = calls = 0

        def count(frame, event, arg):
            nonlocal open_updates, calls
            if frame.f_code is update:
                open_updates += (event == "call") - (event == "return")
            elif open_updates and event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            run_slotted(stations, control.profile, CaptureModel(), control, sc.duration_us)
        finally:
            sys.setprofile(None)
        steps = sc.duration_us // control.profile.beacon_interval * sc.n_stations
        assert steps == 800
        assert calls / steps <= 4.0, (calls, steps)


def _two_pass_beacon_update(plane: ControlPlane, t_ms: int, stations: list[Station],
                            heard, gains, records: list[IntervalRecord]) -> None:
    """Reference for `ControlPlane.beacon_update`: every station's sniffed
    tally credited in a walk of its own, then stepped through the public
    estimators and controller steps, every window committed, and the
    interval's records appended to `records`. `p_own` reads `gains`, each
    station's drawn (successes, retries, drops) for the interval, not the
    plane's marks, so the plane's delta-taking is checked on its own."""
    tallies = []
    for s, (r0, r1) in zip(stations, heard):
        r0, r1 = r0 - s.missed[0], r1 - s.missed[1]
        s.missed[0] = s.missed[1] = 0
        s.sniffed[0] += r0
        s.sniffed[1] += r1
        tallies.append((r0, r1))
    ap_p_obs = estimate_p_obs(plane.ap.r0, plane.ap.r1, plane.min_samples)
    if plane.mode == "cac":
        old = plane.cac_state
        plane.cac_state = cac_step(ap_p_obs, old, plane.p_opt)
        announced = plane.cac_state.cw_quantized
        err = plane.cac_state.prev_error if plane.cac_state is not old else None
        if announced in (plane.cac_state.cw_floor, plane.cac_state.cw_ceiling):
            plane.cw_cap_hits += 1
        for s in stations:
            s.cw_min_current = announced
        records.append(IntervalRecord(t_ms, "ap", ap_p_obs, None, err,
                                      plane.cac_state.cw_real, announced))
    else:
        records.append(IntervalRecord(t_ms, "ap", ap_p_obs, None, None, None, None))
    for s, (r0, r1), (ok, retries, drops) in zip(stations, tallies, gains):
        p_obs = estimate_p_obs(r0, r1, plane.min_samples)
        p_own = estimate_p_own(ok, retries, drops, plane.profile.max_retry)
        if plane.mode == "dac":
            old = plane.dac_states[s.id]
            new = dac_step(p_obs, p_own, old, plane.p_opt)
            plane.dac_states[s.id] = new
            err = new.prev_error if new is not old else None
            if new.cw_quantized in (new.cw_floor, new.cw_ceiling):
                plane.cw_cap_hits += 1
            s.cw_min_current = new.cw_quantized
            records.append(IntervalRecord(t_ms, f"sta{s.id}", p_obs, p_own, err,
                                          new.cw_real, new.cw_quantized))
        else:
            records.append(IntervalRecord(t_ms, f"sta{s.id}", p_obs, p_own, None,
                                          None, s.cw_min_current))
    plane.ap.roll_interval()


_POW2 = [1 << k for k in range(11)]   # 1..1024, up to the PHY's window ceiling

# One interval at one station: its vantage tally (r0, r1), the frames of it
# the station missed (m0, m1), and its counter gains (successes, retries,
# drops). Small values make the estimators defer often.
_STATION_INTERVAL = st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.integers(0, 40), st.integers(0, 40),
                              st.integers(0, 12), st.integers(0, 12),
                              st.integers(0, 3)).map(
    lambda g: (g[0] + g[2], g[1] + g[3], g[0], g[1], *g[4:]))


@st.composite
def beacon_runs(draw):
    """A control plane's scenario, its stations' windows, and 1-5 intervals
    of the AP's (r0, r1) and each station's `_STATION_INTERVAL`."""
    floor = draw(st.none() | st.sampled_from(_POW2[:10]))
    lo = floor or PROFILE_80211A_24.cw_floor
    ceiling = draw(st.none() | st.sampled_from([w for w in _POW2 if w > lo]))
    hi = ceiling or PROFILE_80211A_24.cw_ceiling
    gains = draw(st.none() | st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)))
    n = draw(st.integers(1, 6))
    scenario = Scenario(
        snr_db=(30.0,) * n, controller=draw(st.sampled_from(CONTROLLERS)),
        payload_bytes=draw(st.integers(1, 2304)),
        defer_min_samples=draw(st.integers(1, 30)),
        cw_floor_override=floor, cw_ceiling_override=ceiling,
        kp_override=gains and gains[0], ki_override=gains and gains[1])
    windows = [w for w in _POW2 if lo <= w <= hi]
    return dict(
        scenario=scenario,
        windows=draw(st.lists(st.sampled_from(windows), min_size=n, max_size=n)),
        bebs=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        intervals=draw(st.lists(
            st.tuples(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                      st.lists(_STATION_INTERVAL, min_size=n, max_size=n)),
            min_size=1, max_size=5)),
    )


def _counter_state(s: Station):
    return (s.successes, s.retries, s.drops, s.attempts, s.sniffed, s.missed,
            s.cw_min_current, s.cw_max)


class TestFusedBeaconPass:
    """`beacon_update` takes each station's gains, steps, commits and
    records it in one pass; it must equal the plain update after a walk of
    its own to credit the sniffed tallies, fed the drawn counter gains."""

    @settings(max_examples=80, deadline=None)
    @given(beacon_runs())
    def test_matches_the_two_pass_reference(self, run):
        sc = run["scenario"]
        profile = sc.phy()
        sides, fused_records, reference_records = [], [], []
        for records in (fused_records, reference_records):
            stations = [Station(i, 30.0, profile, random.Random(i),
                                1500, cw, beb)
                        for i, (cw, beb) in enumerate(zip(run["windows"], run["bebs"]), 1)]
            sides.append((ControlPlane(sc, record_sink(records)), stations))
        (fused, fused_stations), (reference, reference_stations) = sides
        for k, ((ap_r0, ap_r1), gains) in enumerate(run["intervals"], 1):
            heard = [g[:2] for g in gains]
            for plane, stations in sides:
                plane.ap.r0, plane.ap.r1 = ap_r0, ap_r1
                for s, (_, _, m0, m1, ok, retries, drops) in zip(stations, gains):
                    s.missed[0] += m0
                    s.missed[1] += m1
                    s.successes += ok
                    s.retries += retries
                    s.drops += drops
            fused.beacon_update(100 * k, fused_stations, heard)
            _two_pass_beacon_update(reference, 100 * k, reference_stations, heard,
                                    [g[4:] for g in gains], reference_records)
            assert fused_records == reference_records
            assert len(fused_records) == k * (len(fused_stations) + 1)
            assert fused.cw_cap_hits == reference.cw_cap_hits
            assert fused.cac_state == reference.cac_state
            assert fused.dac_states == reference.dac_states
            assert dataclasses.astuple(fused.ap) == dataclasses.astuple(reference.ap)
            assert fused.marks == {s.id: (s.successes, s.retries, s.drops)
                                   for s in fused_stations}
            for s, ref in zip(fused_stations, reference_stations):
                assert _counter_state(s) == _counter_state(ref)
                assert s.missed == [0, 0]
                assert s.cw_max == (effective_cw_max(s.cw_min_current,
                                                     profile.m_backoff_stages,
                                                     profile.cw_ceiling)
                                    if s.beb else s.cw_min_current)
