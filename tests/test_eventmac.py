import hashlib
import io
from collections import defaultdict

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from edcasim.controllers import CONTROLLERS
from edcasim.engine import ControlPlane, run_slotted
from edcasim.eventmac import AP, EventEngine, hearing_classes
from edcasim.harness import _build_stations, run_once, slot_trace_writer, trace_writer
from edcasim.mac import CAPTURE_MODES, CaptureModel
from edcasim.oracle import solve_fixed_point
from edcasim.scenario import ConfigError, Scenario, hidden_node_visibility
from recording import record_sink


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
        records = []
        run_once(hidden_pair_scenario(controller="dac", duration_s=10.0), 0,
                 trace=record_sink(records))
        # no sniffable data frames at either station: window pinned at start
        for rec in records:
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
    capture = CaptureModel(mode=sc.capture_mode,
                           threshold_db=sc.capture_threshold_db)
    ids = range(1, sc.n_stations + 1)
    heard = {i: {0, *ids} for i in ids}
    results = {}
    for engine in ("slotted", "event"):
        control = ControlPlane(sc)
        stations = _build_stations(sc, sc.seed, control)
        if engine == "slotted":
            results[engine] = run_slotted(stations, profile, capture,
                                          control, sc.duration_us)
        else:
            results[engine] = EventEngine(stations, profile, capture, control,
                                          heard, sc.duration_us).run()
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
        records1, records2 = [], []
        r1 = run_once(hidden_pair_scenario(controller="cac", duration_s=5.0), 0,
                      trace=record_sink(records1))
        r2 = run_once(hidden_pair_scenario(controller="cac", duration_s=5.0), 0,
                      trace=record_sink(records2))
        assert r1.throughput_mbps == r2.throughput_mbps
        assert records1 == records2

    def test_trace_rows_per_interval_per_node(self):
        records = []
        run_once(hidden_pair_scenario(duration_s=5.0), 0, trace=record_sink(records))
        intervals = int(5e6) // hidden_pair_scenario().phy().beacon_interval
        assert len(records) == intervals * 3   # 2 stations + AP


class TestModelOracle:
    """Both engines against Bianchi's fixed point (`oracle.solve_fixed_point`),
    a model that shares no code with the MAC, on every cell of a grid of
    saturated, fully connected WLANs with a fixed window and doubling.

    Tolerances, set from what the model leaves out before the grid ran:
    - throughput within 4 %: the model omits the beacons' airtime (about
      0.2 %); a 5 s run counts some 10^4 successes, so its noise is about
      1 % and 3 sigma about 3 %; and the MAC drops a frame after 7 retries
      where the model retries it forever.
    - the collision probability p within 0.03: its noise over some 10^4
      attempts is about 0.005 at p = 0.3, 3 sigma 0.015, and the retry
      limit moves it most where p is highest, at n = 20-30 with window 16.
    The run's p counts each retry of a frame that got through as a
    failure; a dropped frame's retries do not count.
    """

    @pytest.mark.parametrize("cw", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("n", [2, 5, 10, 20, 30])
    def test_both_engines_match_the_fixed_point(self, n, cw):
        sc = Scenario(snr_db=(30.0,) * n, controller="edca-static", static_cw=cw,
                      static_beb=True, capture_mode="none", traffic="saturated",
                      duration_s=5.0, replications=1, seed=3, name="oracle")
        profile = sc.phy()
        model = solve_fixed_point(n, cw, profile.m_backoff_stages, profile,
                                  sc.payload_bytes)
        for engine, res in zip(("slotted", "event"), _run_both_engines(sc)):
            failures = (sum(res.retries.values())
                        - profile.max_retry * sum(res.drops.values()))
            p = failures / (failures + sum(res.successes.values()))
            assert res.total_mbps == pytest.approx(model.throughput, rel=0.04), engine
            assert p == pytest.approx(model.p, abs=0.03), engine


class TestValidation:
    def test_hidden_topology_requires_saturated_traffic(self):
        with pytest.raises(ConfigError):
            hidden_pair_scenario(traffic="onoff").validate()


# Exact whole-run accounting of short event-engine runs, one per topology,
# controller and capture mode: (attempts, successes, retries, drops,
# delivered_bytes, sniffed_flags, number of trace rows), then the sha256 of
# the slot-trace rows and of trace.csv, which pin the frame order.
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
    # classes {1,5,6,8,10,12}, {2}, {3}, {4}, {7}, {9}, {11}: two hidden pairs,
    # a station hidden from the AP and a one-way link
    "mix12_dac_threshold": dict(snr_db=tuple(round(40 - 20 * k / 11, 2)
                                             for k in range(12)),
                                controller="dac", capture_mode="threshold",
                                hidden_pairs=((2, 9), (4, 11)), hidden_from_ap=(7,),
                                hidden_links=((3, 5),), allow_asymmetric=True,
                                seed=18),
    # shaped like the benchmark's hidden_n40: classes {1}, {2}, {3..40}
    "pair_cac_n40": dict(snr_db=tuple(round(40 - 20 * k / 39, 2) for k in range(40)),
                         controller="cac", capture_mode="threshold",
                         capture_threshold_db=10.0, hidden_pairs=((1, 2),), seed=19),
}

_GOLDEN = {
    "pair_cac_none": (
        {1: 1563, 2: 1577},
        {1: 894, 2: 895},
        {1: 623, 2: 646},
        {1: 46, 2: 42},
        {1: 1341000, 2: 1342500},
        {1: (0, 0), 2: (0, 0)},
        60,
        "1deb288a6de25555f8155d9df43a756659a119e29ef46e7bc9e0e66458e3053e",
        "22a4b6731f45ca57b3cf3028cf9bc9fa5a70ec4dfbb94036197543de75dcdf57"),
    "pair_dac_threshold": (
        {1: 765, 2: 753, 3: 1022, 4: 950},
        {1: 446, 2: 404, 3: 883, 4: 822},
        {1: 304, 2: 328, 3: 139, 4: 128},
        {1: 20, 2: 21, 3: 0, 4: 0},
        {1: 669000, 2: 606000, 3: 1324500, 4: 1233000},
        {1: (1523, 242), 2: (1521, 242), 3: (1306, 273), 4: (1357, 283)},
        100,
        "3cf0a53c224ff4e0a74b727e2aea343d6d027df18832354516315d72fd221d35",
        "96c598e250631ba7c30abb77bc5886b13e126068b196ad8d8741a6cc8cdb3de7"),
    "pair_static_beb_on": (
        {1: 926, 2: 698, 3: 1811},
        {1: 563, 2: 302, 3: 1667},
        {1: 350, 2: 370, 3: 144},
        {1: 17, 2: 27, 3: 0},
        {1: 844500, 2: 453000, 3: 2500500},
        {1: (1588, 135), 2: (1605, 142), 3: (598, 189)},
        80,
        "3ed888bd91333194cba700152baacfa3d58063ef8baac26d6392e23539297e45",
        "c625df7ca93fc8a16eb0873abb0518412d40518d3164e7e88a7af05b740b8428"),
    "pair_static_beb_off": (
        {1: 2920, 2: 2912},
        {1: 0, 2: 0},
        {1: 2555, 2: 2555},
        {1: 365, 2: 364},
        {1: 0, 2: 0},
        {1: (0, 0), 2: (0, 0)},
        60,
        "650ef7f6e42e8a43a7bccb7888be17cbc2e3dba9fd23adcc4d3c64cc9fcbfd22",
        "da9f7075dd63abc48f1bc8bbe6423e6e519e71ab45671205ab105b50eb15fea3"),
    "hidden_from_ap_cac": (
        {1: 1791, 2: 1487, 3: 120},
        {1: 1777, 2: 1299, 3: 0},
        {1: 14, 2: 188, 3: 110},
        {1: 0, 2: 0, 3: 15},
        {1: 2665500, 2: 1948500, 3: 0},
        {1: (1136, 164), 2: (1581, 14), 3: (2623, 171)},
        80,
        "0727b23748fc7cfbddd0dac6299048bc8772f25c3568fd69e26488a1c97818c1",
        "9ed764d361ab6fa9983f81406363510484a0c3ba2dd3a38b003e0151e60e2e63"),
    "chain_links_static": (
        {1: 697, 2: 141, 3: 835, 4: 1779},
        {1: 308, 2: 48, 3: 446, 4: 1580},
        {1: 364, 2: 88, 3: 377, 4: 197},
        {1: 25, 2: 9, 3: 18, 4: 2},
        {1: 462000, 2: 72000, 3: 669000, 4: 2370000},
        {1: (1521, 167), 2: (1962, 373), 3: (1516, 165), 4: (530, 233)},
        100,
        "3638ddf0700ad251556887d802a89c222e42fcb59cb8e44d2f1339a350e08855",
        "8c339854755f1cca6bd2629c86ff4c50c5172bf8ec88a86d44b6d628dd0de39a"),
    "chain_links_dac": (
        {1: 1662, 2: 1582, 3: 64},
        {1: 1496, 2: 1409, 3: 0},
        {1: 166, 2: 173, 3: 61},
        {1: 0, 2: 0, 3: 8},
        {1: 2244000, 2: 2113500, 3: 0},
        {1: (1261, 155), 2: (1287, 145), 3: (2542, 300)},
        80,
        "7718c9fc16338726267704f576d44ad42ff8a93b1fd0af4987714142a33c867f",
        "95bcad846aa7adab670dab5555e37c4b2f91e94f04a087772bd5aeb09c312130"),
    "mix12_dac_threshold": (
        {1: 349, 2: 412, 3: 492, 4: 376, 5: 149, 6: 483, 7: 88, 8: 370, 9: 116, 10: 512,
         11: 110, 12: 488},
        {1: 285, 2: 361, 3: 357, 4: 302, 5: 70, 6: 363, 7: 0, 8: 260, 9: 2, 10: 383,
         11: 3, 12: 336},
        {1: 64, 2: 52, 3: 135, 4: 74, 5: 79, 6: 120, 7: 79, 8: 109, 9: 107, 10: 130,
         11: 99, 12: 153},
        {1: 0, 2: 0, 3: 0, 4: 0, 5: 4, 6: 0, 7: 11, 8: 1, 9: 13, 10: 0, 11: 12, 12: 0},
        {1: 427500, 2: 541500, 3: 535500, 4: 453000, 5: 105000, 6: 544500, 7: 0,
         8: 390000, 9: 3000, 10: 574500, 11: 4500, 12: 504000},
        {1: (1547, 525), 2: (1589, 538), 3: (1489, 473), 4: (1626, 530), 5: (1708, 543),
         6: (1486, 482), 7: (1701, 548), 8: (1564, 489), 9: (1630, 563),
         10: (1464, 466), 11: (1667, 550), 12: (1517, 460)},
        260,
        "91057903b58e7e51b7ed5ae54d01523729c1824c8bd090f146127eeee8bfe9e8",
        "7204e91ca332cf267b14d495ee4bec6c9c37fdb8a94898e3225af1157cf55021"),
    "pair_cac_n40": (
        {1: 82, 2: 70, 3: 163, 4: 163, 5: 149, 6: 124, 7: 182, 8: 109, 9: 101, 10: 131,
         11: 145, 12: 114, 13: 130, 14: 88, 15: 92, 16: 163, 17: 126, 18: 94, 19: 99,
         20: 59, 21: 78, 22: 85, 23: 104, 24: 98, 25: 75, 26: 84, 27: 68, 28: 144,
         29: 97, 30: 122, 31: 98, 32: 52, 33: 99, 34: 91, 35: 86, 36: 109, 37: 84,
         38: 79, 39: 81, 40: 89},
        {1: 39, 2: 32, 3: 117, 4: 119, 5: 105, 6: 80, 7: 127, 8: 73, 9: 56, 10: 86,
         11: 93, 12: 67, 13: 73, 14: 57, 15: 47, 16: 98, 17: 71, 18: 56, 19: 49, 20: 27,
         21: 47, 22: 47, 23: 63, 24: 57, 25: 39, 26: 38, 27: 26, 28: 86, 29: 56, 30: 77,
         31: 55, 32: 24, 33: 58, 34: 49, 35: 48, 36: 57, 37: 42, 38: 38, 39: 44,
         40: 46},
        {1: 45, 2: 44, 3: 46, 4: 44, 5: 44, 6: 44, 7: 55, 8: 36, 9: 45, 10: 45, 11: 52,
         12: 48, 13: 57, 14: 30, 15: 45, 16: 66, 17: 55, 18: 40, 19: 49, 20: 32, 21: 34,
         22: 40, 23: 41, 24: 41, 25: 36, 26: 46, 27: 43, 28: 58, 29: 45, 30: 48, 31: 43,
         32: 30, 33: 41, 34: 42, 35: 38, 36: 52, 37: 44, 38: 41, 39: 41, 40: 43},
        {1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0, 11: 0, 12: 0,
         13: 0, 14: 1, 15: 0, 16: 0, 17: 0, 18: 0, 19: 1, 20: 0, 21: 0, 22: 0, 23: 0,
         24: 0, 25: 0, 26: 0, 27: 0, 28: 0, 29: 0, 30: 0, 31: 0, 32: 0, 33: 0, 34: 0,
         35: 0, 36: 0, 37: 0, 38: 0, 39: 0, 40: 0},
        {1: 58500, 2: 48000, 3: 175500, 4: 178500, 5: 157500, 6: 120000, 7: 190500,
         8: 109500, 9: 84000, 10: 129000, 11: 139500, 12: 100500, 13: 109500, 14: 85500,
         15: 70500, 16: 147000, 17: 106500, 18: 84000, 19: 73500, 20: 40500, 21: 70500,
         22: 70500, 23: 94500, 24: 85500, 25: 58500, 26: 57000, 27: 39000, 28: 129000,
         29: 84000, 30: 115500, 31: 82500, 32: 36000, 33: 87000, 34: 73500, 35: 72000,
         36: 85500, 37: 63000, 38: 57000, 39: 66000, 40: 69000},
        {1: (1361, 885), 2: (1366, 885), 3: (1305, 875), 4: (1306, 873), 5: (1314, 876),
         6: (1332, 877), 7: (1302, 865), 8: (1334, 881), 9: (1346, 879),
         10: (1327, 877), 11: (1323, 870), 12: (1339, 876), 13: (1340, 867),
         14: (1342, 884), 15: (1352, 880), 16: (1325, 858), 17: (1342, 872),
         18: (1342, 880), 19: (1354, 875), 20: (1364, 885), 21: (1345, 884),
         22: (1350, 879), 23: (1336, 877), 24: (1343, 876), 25: (1354, 883),
         26: (1362, 876), 27: (1370, 880), 28: (1332, 858), 29: (1347, 873),
         30: (1328, 871), 31: (1345, 876), 32: (1363, 889), 33: (1344, 874),
         34: (1350, 877), 35: (1347, 881), 36: (1347, 872), 37: (1358, 876),
         38: (1357, 881), 39: (1353, 879), 40: (1355, 875)},
        820,
        "5c70bf3ee0cf16db6389def1d80d8fad428b724c3545c0fb9857c238d5b11dd5",
        "3aa172deb30d1e59795d312966c11952055e76dcaa6ac82b00ef887346961ff7"),
}


class TestGolden:
    """The event engine's exact output: any change to carrier sense,
    garbling, sniffing or event order moves these numbers."""

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_exact_accounting(self, name):
        sc = Scenario(duration_s=2.0, replications=1, name=name,
                      **_GOLDEN_SCENARIOS[name])
        assert not sc.is_fully_connected()
        frames, trace = io.StringIO(), io.StringIO()
        # The trace streams as the run goes, as `edcasim run` writes it.
        res = run_once(sc, 0, slot_log=slot_trace_writer(frames), trace=trace_writer(trace))
        got = (res.attempts, res.successes, res.retries, res.drops,
               res.delivered_bytes, res.sniffed_flags, trace.getvalue().count("\n") - 1,
               hashlib.sha256(frames.getvalue().encode()).hexdigest(),
               hashlib.sha256(trace.getvalue().encode()).hexdigest())
        assert got == _GOLDEN[name]


def _classes_of(**kw):
    base = dict(controller="edca-static", duration_s=1.0, replications=1,
                name="classes")
    base.update(kw)
    return hearing_classes(hidden_node_visibility(Scenario(**base)))


class TestHearingClasses:
    def test_hidden_pair_among_many(self):
        # the shape of the benchmark's hidden_n160
        assert _classes_of(snr_db=(30.0,) * 160, hidden_pairs=((1, 2),)) == [
            (1,), (2,), tuple(range(3, 161))]

    @pytest.mark.parametrize("kw", [
        dict(snr_db=(30.0,) * 3, hidden_pairs=((1, 3),)),
        _GOLDEN_SCENARIOS["chain_links_static"]])
    def test_chains_are_singletons(self, kw):
        n = len(kw["snr_db"])
        assert _classes_of(**kw) == [(i,) for i in range(1, n + 1)]

    def test_mixed_topology(self):
        assert _classes_of(**_GOLDEN_SCENARIOS["mix12_dac_threshold"]) == [
            (1, 5, 6, 8, 10, 12), (2,), (3,), (4,), (7,), (9,), (11,)]


def _engine_for(cls, sc, slot_log=None, trace=None):
    """An event engine of class `cls` for replication 0 of `sc`, with the
    topology `sc` gives."""
    profile = sc.phy()
    control = ControlPlane(sc, trace)
    stations = _build_stations(sc, sc.seed, control)
    capture = CaptureModel(mode=sc.capture_mode,
                           threshold_db=sc.capture_threshold_db)
    return cls(stations, profile, capture, control, hidden_node_visibility(sc),
               sc.duration_us, slot_log=slot_log)


class _RecordingEngine(EventEngine):
    """Records every frame put on the air with the frames already on it."""

    def _begin_tx(self, tx):
        self.on_air.append((tx, list(self._ongoing)))
        super()._begin_tx(tx)


@st.composite
def hidden_scenarios(draw):
    """Short saturated runs on random small topologies with hidden pairs,
    stations hidden from the AP and one-way links."""
    n = draw(st.integers(min_value=2, max_value=6))
    station = st.integers(min_value=1, max_value=n)
    pair = st.tuples(station, station).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=3))
    links = draw(st.lists(pair, max_size=2))
    from_ap = draw(st.lists(station, max_size=1))
    assume(pairs or links or from_ap)
    return Scenario(
        snr_db=tuple(draw(st.lists(st.sampled_from((40.0, 35.0, 30.0, 25.0, 20.0)),
                                   min_size=n, max_size=n))),
        controller=draw(st.sampled_from(CONTROLLERS)),
        capture_mode=draw(st.sampled_from(CAPTURE_MODES)),
        static_beb=draw(st.booleans()),
        hidden_pairs=tuple(pairs), hidden_from_ap=tuple(from_ap),
        hidden_links=tuple(links), allow_asymmetric=bool(links),
        duration_s=1.0, replications=1, seed=draw(st.integers(0, 10_000)),
        name="prop")


class TestClassSniffing:
    # A station loses a frame when another frame overlaps it that the station
    # also hears or sends. Since stations with equal heard sets hear the same
    # sources, each data frame is lost at all other members of a hearing
    # class or at none, and one tally per class gives every sniffer's counts.
    @settings(max_examples=15, deadline=None)
    @given(hidden_scenarios())
    def test_losses_are_whole_classes_and_tallies_match(self, sc):
        heard = hidden_node_visibility(sc)
        engine = _engine_for(_RecordingEngine, sc)
        engine.on_air = []
        res = engine.run()

        def hears_or_sends(v, src):
            return v == src or src in heard[v]

        lost = defaultdict(set)
        for tx, ongoing in engine.on_air:
            for f in ongoing:
                for v in heard:
                    if hears_or_sends(v, tx.src) and hears_or_sends(v, f.src):
                        lost[tx].add(v)
                        lost[f].add(v)
        classes = hearing_classes(heard)
        expected = {v: [0, 0] for v in heard}
        end = res.duration_us
        for tx, _ in engine.on_air:
            if tx.src == AP:
                continue
            for members in classes:
                others = {v for v in members if v != tx.src}
                assert others <= lost[tx] or not others & lost[tx]
            if tx.end <= end:
                for v in heard:
                    if v != tx.src and tx.src in heard[v] and v not in lost[tx]:
                        expected[v][tx.retry_flag] += 1
        assert res.sniffed_flags == {v: tuple(t) for v, t in expected.items()}


class _UnchainedEngine(EventEngine):
    """Pushes every step of an exchange onto the heap, for the main loop to
    pop: the schedule that chaining must reproduce."""

    def _then(self, time, prio, handler, payload):
        self._push(time, prio, handler, payload)


def _frames_and_result(cls, sc):
    """The FrameRecords of a run, its trace records and its RunResult."""
    frames, records = [], []
    res = _engine_for(cls, sc, slot_log=frames.append, trace=record_sink(records)).run()
    return frames, records, res


class TestChainedExchanges:
    # A chained step sorts before every heap entry and tabled start, so it is
    # the event the main loop would have popped next: running it at once
    # leaves the frames, the trace records and the totals unchanged.
    @settings(max_examples=20, deadline=None)
    @given(hidden_scenarios())
    @example(Scenario(snr_db=(40.0, 35.0, 30.0, 25.0, 20.0), controller="cac",
                      capture_mode="threshold", duration_s=1.0, replications=1,
                      seed=21, name="prop"))
    def test_chaining_matches_the_unchained_schedule(self, sc):
        assert _frames_and_result(EventEngine, sc) == _frames_and_result(
            _UnchainedEngine, sc)
