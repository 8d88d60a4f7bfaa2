from dataclasses import fields

import pytest
from hypothesis import given, reject, strategies as st

from edcasim.engine import CONTROLLERS
from edcasim.harness import run_once
from edcasim.mac import CAPTURE_MODES
from edcasim.phy import BUILTIN_PROFILES
from edcasim.scenario import (_FORMAT, PRESETS, ConfigError, Scenario, emit_scenario,
                              get_preset, hidden_node_visibility, parse_scenario)


def sample_scenario(**kw):
    base = dict(snr_db=(38.0, 35.0, 31.0), controller="dac", duration_s=12.0,
                replications=2, seed=9, capture_mode="threshold",
                capture_threshold_db=8.0, name="sample")
    base.update(kw)
    return Scenario(**base)


class TestParsing:
    def test_round_trip_is_identity(self):
        sc = sample_scenario(hidden_pairs=((1, 2),), snr_jitter_db=1.5,
                             traffic="saturated")
        assert parse_scenario(emit_scenario(sc)) == sc

    def test_round_trip_all_presets(self):
        for name, preset in PRESETS.items():
            assert parse_scenario(emit_scenario(preset)) == preset, name

    def test_minimal_file(self):
        sc = parse_scenario("""
            # two identical stations
            snr_db = 30, 30
            controller = cac
            duration_s = 15
        """)
        assert sc.n_stations == 2 and sc.controller == "cac"
        assert sc.duration_s == 15.0

    def test_stations_shorthand_replicates_snr(self):
        sc = parse_scenario("stations = 5\nsnr_db = 30\nduration_s = 20\n")
        assert sc.snr_db == (30.0,) * 5

    def test_stations_count_mismatch(self):
        with pytest.raises(ConfigError, match="stations"):
            parse_scenario("stations = 3\nsnr_db = 30, 31\n")

    @pytest.mark.parametrize("text,key", [
        ("controller = cac\ncontroller = dac\nsnr_db = 30\n", "controller"),
        ("snr_db = 30\nsnr_db = 31, 32\n", "snr_db"),
        ("stations = 2\nsnr_db = 30\nstations = 3\n", "stations"),
    ], ids=["controller", "snr_db", "stations"])
    def test_repeated_key_rejected(self, text, key):
        # the last value must not silently win
        with pytest.raises(ConfigError) as err:
            parse_scenario(text)
        assert err.value.field == key and "twice" in str(err.value)

    @pytest.mark.parametrize("count", [0, -2])
    def test_stations_below_one_names_stations(self, count):
        with pytest.raises(ConfigError) as err:
            parse_scenario(f"stations = {count}\nsnr_db = 30\n")
        assert err.value.field == "stations"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="snr_dbm"):
            parse_scenario("snr_dbm = 30, 30\n")

    def test_bad_syntax_carries_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_scenario("snr_db = 30, 30\nnot a key value pair\n")

    def test_missing_snr(self):
        with pytest.raises(ConfigError, match="snr_db"):
            parse_scenario("controller = cac\n")

    def test_pair_syntax(self):
        sc = parse_scenario("snr_db = 30, 30, 30\nhidden_pairs = 1-2; 2-3\n")
        assert sc.hidden_pairs == ((1, 2), (2, 3))


# Bad fields, each under its test id. The ids are spelled out, so a case
# added anywhere renames no other.
_FIELD_ERRORS = {
    "kw0-controller": (dict(controller="auto"), "controller"),
    "kw1-traffic": (dict(traffic="tcp"), "traffic"),
    "kw2-capture_mode": (dict(capture_mode="ber"), "capture_mode"),
    "kw3-replications": (dict(replications=0), "replications"),
    "kw4-duration_s": (dict(duration_s=0.5), "duration_s"),
    "kw5-snr_db": (dict(snr_db=(float("inf"), 30.0)), "snr_db"),
    "kw6-hidden_pairs": (dict(hidden_pairs=((1, 4),)), "hidden_pairs"),
    "kw7-hidden_pairs": (dict(hidden_pairs=((2, 2),)), "hidden_pairs"),
    "kw8-hidden_from_ap": (dict(hidden_from_ap=(9,)), "hidden_from_ap"),
    "kw9-station_add_order": (dict(station_add_order="random"),
                              "station_add_order"),
    "kw10-snr_jitter_db": (dict(snr_jitter_db=-1.0), "snr_jitter_db"),
    "kw11-burst_bytes": (dict(traffic="onoff", burst_bytes=100), "burst_bytes"),
    "kw12-duration_s": (dict(duration_s=float("nan")), "duration_s"),
    "kw13-duration_s": (dict(duration_s=float("inf")), "duration_s"),
    "kw14-capture_threshold_db": (dict(capture_threshold_db=float("nan")),
                                  "capture_threshold_db"),
    "kw15-capture_threshold_db": (dict(capture_threshold_db=0.0), "capture_threshold_db"),
    "kw16-cw_floor_override": (dict(cw_floor_override=-8), "cw_floor_override"),
    "kw17-cw_floor_override": (dict(cw_floor_override=0), "cw_floor_override"),
    "kw18-cw_floor_override": (dict(cw_floor_override=24), "cw_floor_override"),
    "kw19-cw_floor_override": (dict(cw_floor_override=2048), "cw_floor_override"),
    "kw20-cw_ceiling_override": (dict(cw_ceiling_override=8), "cw_ceiling_override"),
    "kw21-cw_floor_override": (dict(cw_floor_override=64, cw_ceiling_override=64),
                               "cw_floor_override"),
    "kw22-ki_override": (dict(kp_override=5.0), "ki_override"),
    "kw23-kp_override": (dict(ki_override=5.0), "kp_override"),
    "kw24-kp_override": (dict(kp_override=-5.0, ki_override=5.0), "kp_override"),
    "kw25-name": (dict(name="a#b"), "name"),
    "kw26-name": (dict(name="two\nlines"), "name"),
    "kw27-name": (dict(name=" padded"), "name"),
    "kw28-duration_s": (dict(duration_s=4.05), "duration_s"),
    "kw29-duration_s": (dict(duration_s=12.00001), "duration_s"),
    "kw30-payload_bytes": (dict(payload_bytes=2305), "payload_bytes"),
    "kw31-payload_bytes": (dict(payload_bytes=9000), "payload_bytes"),
    "kw32-payload_bytes": (dict(payload_bytes=0), "payload_bytes"),
    "kw33-defer_min_samples": (dict(defer_min_samples=0), "defer_min_samples"),
    "kw34-defer_min_samples": (dict(defer_min_samples=-1), "defer_min_samples"),
    "kw35-name": (dict(name="a,b"), "name"),
    "kw36-cw_ceiling_override": (dict(cw_ceiling_override=4096), "cw_ceiling_override"),
    "kw37-cw_ceiling_override": (dict(cw_floor_override=2048, cw_ceiling_override=4096),
                                 "cw_ceiling_override"),
    "kw38-static_cw": (dict(static_cw=2048, static_beb=True), "static_cw"),
    "kw39-kp_override": (dict(kp_override=float("inf"), ki_override=5.0), "kp_override"),
    "kw40-name": (dict(name='"q'), "name"),
}


class TestValidation:
    @pytest.mark.parametrize("kw,field", _FIELD_ERRORS.values(),
                             ids=list(_FIELD_ERRORS))
    def test_field_errors(self, kw, field):
        # a Scenario is checked when it is built
        with pytest.raises(ConfigError) as err:
            sample_scenario(**kw)
        assert err.value.field == field

    def test_asymmetric_needs_flag(self):
        with pytest.raises(ConfigError, match="asymmetric"):
            sample_scenario(hidden_links=((1, 2),))
        sample_scenario(hidden_links=((1, 2),), allow_asymmetric=True)

    def test_duration_rounds_once_to_whole_intervals(self):
        # 4.1 * 1e6 is 4099999.9999999995: truncating it ran 40 intervals
        sc = Scenario(snr_db=(30.0, 30.0), controller="edca-static",
                      duration_s=4.1, replications=1, name="d41")
        assert sc.duration_us == 4_100_000
        assert run_once(sc, 0).duration_us == 4_100_000

    def test_cw_bounds_resolve_overrides(self):
        assert sample_scenario().cw_bounds() == (16, 1024)
        sc = parse_scenario("snr_db = 30, 30\ncw_floor_override = 32\n")
        assert sc.cw_bounds() == (32, 1024)
        with pytest.raises(ConfigError, match="cw_floor_override"):
            parse_scenario("snr_db = 30, 30\ncw_floor_override = 24\n")


_POW2 = [2 ** k for k in range(11)]   # 1..1024, up to the PHY's window ceiling
_FLOAT = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e6)


@st.composite
def scenarios(draw):
    """Valid scenarios that set every field; names are arbitrary text."""
    snr = tuple(draw(st.lists(_FLOAT, min_size=1, max_size=6)))
    n = len(snr)
    station = st.integers(1, n)
    pair = st.lists(station, min_size=2, max_size=2, unique=True).map(tuple)
    pairs = st.lists(pair, max_size=3).map(tuple) if n > 1 else st.just(())
    hidden_pairs, hidden_links = draw(pairs), draw(pairs)
    hidden_from_ap = tuple(draw(st.lists(station, max_size=2)))
    hidden = hidden_pairs or hidden_links or hidden_from_ap
    payload = draw(st.integers(1, 2304))
    gains = draw(st.none() | st.tuples(_POSITIVE, _POSITIVE))
    static_beb = draw(st.booleans())
    kw = dict(
        snr_db=snr,
        name=draw(st.text(max_size=20)),
        profile=draw(st.sampled_from(sorted(BUILTIN_PROFILES))),
        controller=draw(st.sampled_from(CONTROLLERS)),
        payload_bytes=payload,
        duration_s=draw(st.integers(10, 10 ** 6)) / 10,   # whole intervals
        replications=draw(st.integers(1, 10)),
        seed=draw(st.integers()),
        capture_mode=draw(st.sampled_from(CAPTURE_MODES)),
        capture_threshold_db=draw(_POSITIVE),
        traffic="saturated" if hidden else draw(st.sampled_from(("saturated", "onoff"))),
        burst_bytes=draw(st.integers(payload, 10 ** 9)),
        silent_mean_s=draw(_POSITIVE),
        static_cw=draw(st.integers(1, 1024 if static_beb else 4096)),
        static_beb=static_beb,
        hidden_pairs=hidden_pairs,
        hidden_from_ap=hidden_from_ap,
        hidden_links=hidden_links,
        allow_asymmetric=bool(hidden_links) or draw(st.booleans()),
        defer_min_samples=draw(st.integers(min_value=1)),
        kp_override=None if gains is None else gains[0],
        ki_override=None if gains is None else gains[1],
        cw_floor_override=draw(st.none() | st.sampled_from(_POW2[:10])),
        cw_ceiling_override=draw(st.none() | st.sampled_from(_POW2[5:])),
        snr_jitter_db=draw(st.floats(min_value=0.0, max_value=100.0)),
        station_add_order=draw(st.sampled_from(("ascending", "descending"))),
    )
    try:
        return Scenario(**kw)
    except ConfigError:
        reject()


class TestCodecProperties:
    def test_every_field_type_has_a_format(self):
        assert {f.type for f in fields(Scenario)} <= set(_FORMAT)

    @given(scenarios())
    def test_accepted_scenarios_round_trip(self, sc):
        assert parse_scenario(emit_scenario(sc)) == sc


class TestVisibility:
    def test_full_matrix_default(self):
        heard = hidden_node_visibility(sample_scenario())
        for i in (1, 2, 3):
            assert heard[i] == {0, 1, 2, 3}

    def test_hidden_pair_symmetric(self):
        heard = hidden_node_visibility(
            sample_scenario(hidden_pairs=((1, 3),)))
        assert 3 not in heard[1] and 1 not in heard[3]
        assert 2 in heard[1]
        assert all(0 in heard[i] for i in (1, 2, 3))

    def test_hidden_from_ap_both_directions(self):
        heard = hidden_node_visibility(
            sample_scenario(hidden_from_ap=(2,)))
        assert 0 in heard[1] and 0 in heard[3]
        assert 0 not in heard[2]
        assert 2 not in heard[1] and 2 not in heard[3]

    def test_directed_link(self):
        heard = hidden_node_visibility(
            sample_scenario(hidden_links=((1, 2),), allow_asymmetric=True))
        assert 2 not in heard[1] and 1 in heard[2]

    @given(scenarios())
    def test_ap_hears_the_stations_that_hear_it(self, sc):
        # The event engine derives the AP's hearing from the heard map, which
        # holds because only `hidden_from_ap` names the AP, in both directions.
        heard = hidden_node_visibility(sc)
        assert {i for i in heard if 0 in heard[i]} == \
            set(range(1, sc.n_stations + 1)) - set(sc.hidden_from_ap)


class TestPresets:
    def test_expected_names(self):
        assert set(PRESETS) == {
            "fig5_cac_point_of_operation", "fig7_udp_total",
            "fig9_snr_correlation", "fig10_hidden", "fig11_sweep_n",
            "fig12_delay"}

    def test_all_presets_valid(self):
        for preset in PRESETS.values():
            preset.validate()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_preset("fig99")

    def test_hidden_preset_topology(self):
        sc = get_preset("fig10_hidden")
        assert sc.hidden_pairs and not sc.is_fully_connected()
        heard = hidden_node_visibility(sc)
        assert 2 not in heard[1]
