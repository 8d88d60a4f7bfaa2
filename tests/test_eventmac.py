import pytest

from edcasim.controllers import compute_p_opt
from edcasim.engine import CONTROLLERS, ControlPlane, run_slotted
from edcasim.eventmac import EventEngine
from edcasim.harness import _build_stations, run_once
from edcasim.mac import CAPTURE_MODES, CaptureModel
from edcasim.scenario import ConfigError, Scenario


def hidden_pair_scenario(controller="edca-static", **kw):
    base = dict(snr_db=(31.0, 30.0), controller=controller, duration_s=10.0,
                replications=1, seed=77, capture_mode="none",
                hidden_pairs=((1, 2),), name="hidden-unit")
    base.update(kw)
    return Scenario(**base)


class TestHiddenPair:
    def test_static_pair_starves_while_isolated_station_thrives(self):
        joint = run_once(hidden_pair_scenario(), 0)
        alone = run_once(Scenario(snr_db=(31.0,), controller="edca-static",
                                  duration_s=10.0, replications=1, seed=77,
                                  name="solo"), 0)
        # desynchronized 520us frames every ~700us overlap essentially always
        assert joint.total_mbps < 0.05 * alone.total_mbps
        assert alone.total_mbps > 15.0

    def test_collisions_happen_despite_desynchronized_clocks(self):
        res = run_once(hidden_pair_scenario(duration_s=5.0), 0)
        # both stations keep attempting and dropping at the retry limit
        assert all(res.drops[i] > 100 for i in res.station_ids)

    def test_cac_recovers_throughput(self):
        static = run_once(hidden_pair_scenario(duration_s=20.0), 0)
        cac = run_once(hidden_pair_scenario(controller="cac",
                                            duration_s=20.0), 0)
        assert cac.total_mbps > 2.0
        assert cac.total_mbps > 2 * max(static.total_mbps, 0.1)

    def test_dac_defers_forever_without_observable_traffic(self):
        res = run_once(hidden_pair_scenario(controller="dac",
                                            duration_s=10.0), 0)
        # no sniffable data frames at either station: window pinned at start
        for rec in res.records:
            if rec.node.startswith("sta"):
                assert rec.cw_quantized == 16
                assert rec.error is None

    def test_chain_topology_vantage_sniffing(self):
        # stations 1 and 3 mutually hidden, station 2 hears both (standard
        # doubling so the ends back off instead of jamming the middle). The
        # middle witness decodes heavily retried traffic from both ends; the
        # ends only ever observe the middle station's mostly clean frames.
        sc = Scenario(snr_db=(30.0, 30.0, 30.0), controller="edca-static",
                      duration_s=10.0, replications=1, seed=41,
                      static_beb=True, hidden_pairs=((1, 3),), name="chain")
        res = run_once(sc, 0)
        r0_mid, r1_mid = res.sniffed_flags[2]
        assert r0_mid + r1_mid > 1000
        # the middle vantage sees the hidden collisions through retry flags
        assert r1_mid / (r0_mid + r1_mid) > 0.2
        for end in (1, 3):
            r0, r1 = res.sniffed_flags[end]
            assert r0 + r1 > 1000
            # the middle station itself rarely collides
            assert r1 / (r0 + r1) < 0.1
        # the middle station dominates the air time it can defend
        assert res.throughput_mbps[2] > 4 * res.throughput_mbps[1]

    def test_station_hidden_from_everyone_gets_nothing(self):
        sc = Scenario(snr_db=(30.0, 30.0, 30.0), controller="edca-static",
                      duration_s=5.0, replications=1, seed=3,
                      hidden_from_ap=(3,), name="dead-node")
        res = run_once(sc, 0)
        assert res.throughput_mbps[3] == 0.0
        assert res.throughput_mbps[1] > 1.0 and res.throughput_mbps[2] > 1.0


def _run_both_engines(sc):
    """One replication of a fully connected scenario on each engine."""
    profile = sc.phy()
    point = compute_p_opt(profile, sc.payload_bytes)
    capture = CaptureModel(mode=sc.capture_mode,
                           threshold_db=sc.capture_threshold_db)
    ids = range(1, sc.n_stations + 1)
    results = {}
    for engine in ("slotted", "event"):
        stations = _build_stations(sc, sc.seed)
        control = ControlPlane(sc.controller, [s.id for s in stations],
                               profile, point.p_opt)
        if engine == "slotted":
            results[engine] = run_slotted(stations, profile, capture,
                                          control, sc.duration_us)
        else:
            heard = {i: {0, *ids} for i in ids}
            results[engine] = EventEngine(stations, profile, capture, control,
                                          heard, set(ids), sc.duration_us).run()
    return results["slotted"], results["event"]


class TestEngineConsistency:
    # The two engines are two models of one channel: on a fully connected
    # topology they must agree on total throughput, for every controller
    # and capture mode.
    def test_full_visibility_matches_slotted_engine(self):
        sc = Scenario(snr_db=(30.0,) * 5, controller="cac", duration_s=15.0,
                      replications=1, seed=6, name="xengine")
        slotted, event = _run_both_engines(sc)
        assert event.total_mbps == pytest.approx(slotted.total_mbps, rel=0.02)

    @pytest.mark.parametrize("capture", CAPTURE_MODES)
    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_distinct_snrs_match_slotted_engine(self, controller, capture):
        sc = Scenario(snr_db=(40.0, 35.0, 30.0, 25.0, 20.0), controller=controller,
                      capture_mode=capture, duration_s=15.0, replications=1,
                      seed=6, name="xengine")
        slotted, event = _run_both_engines(sc)
        assert event.total_mbps == pytest.approx(slotted.total_mbps, rel=0.02)

    def test_event_engine_deterministic(self):
        r1 = run_once(hidden_pair_scenario(controller="cac", duration_s=5.0), 0)
        r2 = run_once(hidden_pair_scenario(controller="cac", duration_s=5.0), 0)
        assert r1.throughput_mbps == r2.throughput_mbps
        assert r1.records == r2.records

    def test_trace_rows_per_interval_per_node(self):
        res = run_once(hidden_pair_scenario(duration_s=5.0), 0)
        intervals = int(5e6) // hidden_pair_scenario().phy().beacon_interval
        assert len(res.records) == intervals * 3   # 2 stations + AP


class TestValidation:
    def test_hidden_topology_requires_saturated_traffic(self):
        with pytest.raises(ConfigError):
            hidden_pair_scenario(traffic="onoff").validate()

    def test_onoff_traffic_rejected_by_engine_directly(self):
        sc = hidden_pair_scenario()
        stations = _build_stations(sc, 1)
        stations[0].traffic.kind = "onoff"
        profile = sc.phy()
        point = compute_p_opt(profile, 1500)
        control = ControlPlane("edca-static", [1, 2], profile, point.p_opt)
        with pytest.raises(ValueError):
            EventEngine(stations, profile, CaptureModel(), control,
                        {1: {0, 1}, 2: {0, 2}}, {1, 2}, 1_000_000)


# Exact whole-run accounting of short event-engine runs, one per topology,
# controller and capture mode: (attempts, successes, retries, drops,
# delivered_bytes, sniffed_flags, number of trace records).
_GOLDEN_SCENARIOS = {
    "pair_cac_none": dict(snr_db=(31.0, 30.0), controller="cac",
                          capture_mode="none", hidden_pairs=((1, 2),), seed=11),
    "pair_dac_threshold": dict(snr_db=(40.0, 35.0, 30.0, 25.0), controller="dac",
                               capture_mode="threshold", hidden_pairs=((1, 2),),
                               seed=12),
    "pair_static_beb_on": dict(snr_db=(40.0, 35.0, 30.0),
                               controller="edca-static", static_beb=True,
                               capture_mode="threshold", hidden_pairs=((1, 2),),
                               seed=13),
    "pair_static_beb_off": dict(snr_db=(31.0, 30.0), controller="edca-static",
                                static_beb=False, capture_mode="none",
                                hidden_pairs=((1, 2),), seed=14),
    "hidden_from_ap_cac": dict(snr_db=(40.0, 30.0, 20.0), controller="cac",
                               capture_mode="threshold", hidden_from_ap=(3,),
                               seed=15),
    "chain_links_static": dict(snr_db=(35.0, 30.0, 25.0, 20.0),
                               controller="edca-static", static_beb=True,
                               capture_mode="none",
                               hidden_links=((1, 3), (3, 1), (4, 2)),
                               allow_asymmetric=True, seed=16),
    "chain_links_dac": dict(snr_db=(35.0, 30.0, 25.0), controller="dac",
                            capture_mode="threshold", hidden_links=((1, 3),),
                            allow_asymmetric=True, seed=17),
}

_GOLDEN = {
    "pair_cac_none": (
        {1: 1563, 2: 1577},
        {1: 894, 2: 895},
        {1: 623, 2: 646},
        {1: 46, 2: 42},
        {1: 1341000, 2: 1342500},
        {1: (0, 0), 2: (0, 0)},
        60),
    "pair_dac_threshold": (
        {1: 765, 2: 753, 3: 1022, 4: 950},
        {1: 446, 2: 404, 3: 883, 4: 822},
        {1: 304, 2: 328, 3: 139, 4: 128},
        {1: 20, 2: 21, 3: 0, 4: 0},
        {1: 669000, 2: 606000, 3: 1324500, 4: 1233000},
        {1: (1523, 242), 2: (1521, 242), 3: (1306, 273), 4: (1357, 283)},
        100),
    "pair_static_beb_on": (
        {1: 926, 2: 698, 3: 1811},
        {1: 563, 2: 302, 3: 1667},
        {1: 350, 2: 370, 3: 144},
        {1: 17, 2: 27, 3: 0},
        {1: 844500, 2: 453000, 3: 2500500},
        {1: (1588, 135), 2: (1605, 142), 3: (598, 189)},
        80),
    "pair_static_beb_off": (
        {1: 2920, 2: 2912},
        {1: 0, 2: 0},
        {1: 2555, 2: 2555},
        {1: 365, 2: 364},
        {1: 0, 2: 0},
        {1: (0, 0), 2: (0, 0)},
        60),
    "hidden_from_ap_cac": (
        {1: 1791, 2: 1487, 3: 120},
        {1: 1777, 2: 1299, 3: 0},
        {1: 14, 2: 188, 3: 110},
        {1: 0, 2: 0, 3: 15},
        {1: 2665500, 2: 1948500, 3: 0},
        {1: (1136, 164), 2: (1581, 14), 3: (2623, 171)},
        80),
    "chain_links_static": (
        {1: 697, 2: 141, 3: 835, 4: 1779},
        {1: 308, 2: 48, 3: 446, 4: 1580},
        {1: 364, 2: 88, 3: 377, 4: 197},
        {1: 25, 2: 9, 3: 18, 4: 2},
        {1: 462000, 2: 72000, 3: 669000, 4: 2370000},
        {1: (1521, 167), 2: (1962, 373), 3: (1516, 165), 4: (530, 233)},
        100),
    "chain_links_dac": (
        {1: 1662, 2: 1582, 3: 64},
        {1: 1496, 2: 1409, 3: 0},
        {1: 166, 2: 173, 3: 61},
        {1: 0, 2: 0, 3: 8},
        {1: 2244000, 2: 2113500, 3: 0},
        {1: (1261, 155), 2: (1287, 145), 3: (2542, 300)},
        80),
}


class TestGolden:
    """The event engine's exact output: any change to carrier sense,
    garbling, sniffing or event order moves these numbers."""

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_exact_accounting(self, name):
        sc = Scenario(duration_s=2.0, replications=1, name=name,
                      **_GOLDEN_SCENARIOS[name])
        assert not sc.is_fully_connected()
        res = run_once(sc, 0)
        got = (res.attempts, res.successes, res.retries, res.drops,
               res.delivered_bytes, res.sniffed_flags, len(res.records))
        assert got == _GOLDEN[name]
