import math

import pytest

from edcasim.phy import (FrameSpec, PhyProfile, PROFILE_80211A_24,
                         collision_duration, get_profile, success_duration)


def zero_overhead_profile(**kw):
    base = dict(name="bare", slot_time=1, sifs=1, aifs=1, t_plcp=1, eifs=1,
                ack_duration=1, bit_rate=1.0, beacon_interval=10_000)
    base.update(kw)
    return PhyProfile(**base)


class TestProfile:
    def test_builtin_lookup(self):
        assert get_profile("80211a-24mbps") is PROFILE_80211A_24
        with pytest.raises(KeyError):
            get_profile("80211g")

    def test_default_cw_relation(self):
        p = PROFILE_80211A_24
        assert p.cw_ceiling == (2 ** p.m_backoff_stages) * p.cw_floor

    @pytest.mark.parametrize("bad", [
        dict(slot_time=0), dict(sifs=-1), dict(bit_rate=0.0),
        dict(cw_floor=12), dict(cw_ceiling=1000),
        dict(cw_floor=2048, cw_ceiling=1024),
        dict(beacon_interval=5000, slot_time=9),
    ])
    def test_invalid_profiles_rejected(self, bad):
        base = dict(name="x", slot_time=9, sifs=16, aifs=43, t_plcp=20,
                    eifs=103, ack_duration=28, bit_rate=24.0)
        base.update(bad)
        with pytest.raises(ValueError):
            PhyProfile(**base)

    def test_frame_spec_positive_payload(self):
        with pytest.raises(ValueError):
            FrameSpec(payload_bytes=0)


class TestDurations:
    def test_collision_801211a_1500(self):
        # T_PLCP + 8*1500/24 + EIFS = 20 + 500 + 103
        assert collision_duration(PROFILE_80211A_24, 1500) == pytest.approx(623.0)

    def test_collision_unit_constants(self):
        p = zero_overhead_profile(t_plcp=1, eifs=1, bit_rate=1.0)
        # only the 8*payload/C term varies: 1 + 8 + 1
        assert collision_duration(p, 1) == pytest.approx(10.0)

    def test_success_80211a_1500_golden(self):
        # 20 + 500 + 16 + 28 + 43, frozen from the OFDM PHY constants
        assert success_duration(PROFILE_80211A_24, 1500) == pytest.approx(607.0)

    def test_success_exceeds_data_only(self):
        p = PROFILE_80211A_24
        assert success_duration(p, 1500) >= collision_duration(p, 1500) - p.eifs

    def test_monotonicity_in_payload(self):
        prev = 0.0
        for payload in (100, 500, 1000, 1500, 2304):
            d = collision_duration(PROFILE_80211A_24, payload)
            assert d > prev
            prev = d

    def test_linear_slope_is_8_over_c(self):
        p = PROFILE_80211A_24
        for fn in (collision_duration, success_duration):
            d1, d2 = fn(p, 300), fn(p, 800)
            assert (d2 - d1) / (800 - 300) == pytest.approx(8.0 / p.bit_rate)

    def test_positive_finite(self):
        for payload in (1, 1500):
            for fn in (collision_duration, success_duration):
                d = fn(PROFILE_80211A_24, payload)
                assert d > 0 and math.isfinite(d)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            collision_duration(PROFILE_80211A_24, 0)
        with pytest.raises(ValueError):
            success_duration(PROFILE_80211A_24, -5)
