"""PHY-layer timing constants and slot-duration arithmetic.

All times are integer microseconds unless noted; rates are in bits/us
(numerically equal to Mbps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class PhyProfile:
    """Timing constants of one PHY configuration.

    Immutable after construction; safe to share across concurrent runs.
    """

    name: str
    slot_time: int          # idle slot duration [us]
    sifs: int               # [us]
    aifs: int               # [us], pre-backoff deference
    t_plcp: int             # PLCP preamble + header [us]
    eifs: int               # [us], deference after an undecodable reception
    ack_duration: int       # [us], ACK frame airtime
    bit_rate: float         # [bits/us] == Mbps
    beacon_interval: int = 100_000   # [us]
    beacon_airtime: int = 160        # [us], beacon frame on air
    max_retry: int = 7               # retransmissions before a frame is dropped
    m_backoff_stages: int = 6        # CW doublings: CW_max = 2^m * CW_min
    cw_floor: int = 16
    cw_ceiling: int = 1024

    def __post_init__(self):
        for attr in ("slot_time", "sifs", "aifs", "t_plcp", "eifs",
                     "ack_duration", "beacon_interval", "beacon_airtime"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive, got {getattr(self, attr)}")
        if self.bit_rate <= 0:
            raise ValueError("bit_rate must be positive")
        if not is_pow2(self.cw_floor) or not is_pow2(self.cw_ceiling):
            raise ValueError("cw_floor and cw_ceiling must be powers of 2")
        if self.cw_floor >= self.cw_ceiling:
            raise ValueError("cw_floor must be < cw_ceiling")
        if self.beacon_interval < 1000 * self.slot_time:
            raise ValueError("beacon_interval must span at least 1000 slots")
        if self.max_retry < 1 or self.m_backoff_stages < 0:
            raise ValueError("bad retry/backoff-stage configuration")

    @property
    def ack_timeout(self) -> int:
        # Transmitter gives up on the ACK one slot after it should have ended.
        return self.sifs + self.ack_duration + self.slot_time


MAX_MSDU_BYTES = 2304   # 802.11 MSDU payload maximum


def collision_duration(profile: PhyProfile, longest_payload: int) -> float:
    """Airtime cost of a collision whose longest member carries `longest_payload` bytes.

    Includes the post-collision EIFS deference of every listener.
    """
    return profile.t_plcp + 8.0 * longest_payload / profile.bit_rate + profile.eifs


def success_duration(profile: PhyProfile, payload: int) -> float:
    """Airtime cost of one successful exchange: data + SIFS + ACK + AIFS."""
    return (profile.t_plcp + 8.0 * payload / profile.bit_rate
            + profile.sifs + profile.ack_duration + profile.aifs)


def data_airtime(profile: PhyProfile, payload: int) -> int:
    """On-air duration of the data frame alone, rounded up to whole us."""
    return int(math.ceil(profile.t_plcp + 8.0 * payload / profile.bit_rate))


# Built-in profiles. Values for "80211a-24mbps" follow the OFDM PHY with
# 16-QAM 1/2 (24 Mbps) data and the best-effort access category (AIFSN = 3):
#   AIFS = SIFS + 3*slot = 43 us
#   ACK  = 28 us at 24 Mbps; EIFS uses the 6 Mbps ACK (44 us):
#   EIFS = SIFS + ACK@6Mbps + AIFS = 103 us
PROFILE_80211A_24 = PhyProfile(
    name="80211a-24mbps",
    slot_time=9,
    sifs=16,
    aifs=43,
    t_plcp=20,
    eifs=103,
    ack_duration=28,
    bit_rate=24.0,
)

BUILTIN_PROFILES = {PROFILE_80211A_24.name: PROFILE_80211A_24}


def get_profile(name: str) -> PhyProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown PHY profile {name!r}; "
                       f"known: {sorted(BUILTIN_PROFILES)}") from None
