"""Collision-probability estimators fed by per-beacon-interval counts.

Two independent estimates are maintained:
  * p_obs  -- from the retry flags of data frames overheard by a sniffer,
  * p_own  -- from a transmitter's own success/failure accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Minimum number of sniffed frames before a p_obs estimate is trusted.
MIN_POBS_SAMPLES = 20


@dataclass
class BeaconCounters:
    """The AP's tally of the frames it decoded in one beacon interval."""

    r0: int = 0                      # decoded frames, retry flag unset
    r1: int = 0                      # decoded frames, retry flag set

    def observe_frame(self, retry_flag: bool) -> None:
        if retry_flag:
            self.r1 += 1
        else:
            self.r0 += 1

    def roll_interval(self) -> None:
        """Close the interval: reset the flag tallies."""
        self.r0 = 0
        self.r1 = 0


def estimate_p_obs(r0: int, r1: int, min_samples: int = MIN_POBS_SAMPLES) -> float | None:
    """Observed collision probability R1/(R0+R1), or None when too few samples.

    The deferred case is a value, not an error: the caller skips the update.
    """
    total = r0 + r1
    if total < min_samples:
        return None
    return r1 / total


def estimate_p_own(successes: int, retries: int, drops: int,
                   max_retry: int) -> float | None:
    """Experienced collision probability F/(F+T) from one interval's gains.

    Mirrors driver accounting: the raw retransmission count is corrected by
    subtracting max_retry retries for each frame dropped at the retry limit,
    so dropped frames contribute to neither F nor T. Returns None when the
    station made no accountable attempts this interval.
    """
    if successes < 0 or retries < 0 or drops < 0:
        raise ValueError("counters decreased: accounting corruption")
    # A dropped frame's retries may have been recorded in earlier intervals,
    # so the corrected gain can dip below zero; floor it there.
    f = retries - drops * max_retry if retries > drops * max_retry else 0
    if f + successes == 0:
        return None
    return f / (f + successes)
