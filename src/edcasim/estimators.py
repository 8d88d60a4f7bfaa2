"""Collision-probability estimators fed by per-beacon-interval counters.

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
    """Counters accumulated over one beacon interval at one vantage point.

    r0/r1 reset every interval; the success/failure counters are cumulative
    since the start of the run (they model driver counters that cannot be
    reset), so interval deltas are taken against prev_*.
    """

    r0: int = 0                      # overheard frames, retry flag unset
    r1: int = 0                      # overheard frames, retry flag set
    successes_cumulative: int = 0    # acked frames since run start
    failures_cumulative: int = 0     # retransmission attempts since run start
    prev_successes: int = 0
    prev_failures: int = 0
    r0_total: int = 0                # whole-run flag tallies, never reset
    r1_total: int = 0

    def observe_frame(self, retry_flag: bool) -> None:
        if retry_flag:
            self.r1 += 1
            self.r1_total += 1
        else:
            self.r0 += 1
            self.r0_total += 1

    def credit(self, r0: int, r1: int) -> None:
        """Set this interval's flag tallies, counted elsewhere, and add them
        to the whole-run tallies."""
        self.r0 = r0
        self.r1 = r1
        self.r0_total += r0
        self.r1_total += r1

    def roll_interval(self) -> None:
        """Close the interval: reset flag tallies, remember cumulative marks."""
        self.r0 = 0
        self.r1 = 0
        self.prev_successes = self.successes_cumulative
        self.prev_failures = self.failures_cumulative


def estimate_p_obs(counters: BeaconCounters,
                   min_samples: int = MIN_POBS_SAMPLES) -> float | None:
    """Observed collision probability R1/(R0+R1), or None when too few samples.

    The deferred case is a value, not an error: the caller skips the update.
    """
    total = counters.r0 + counters.r1
    if total < min_samples:
        return None
    return counters.r1 / total


def estimate_p_own(counters: BeaconCounters, max_retry: int,
                   dropped_this_interval: int = 0) -> float | None:
    """Experienced collision probability F/(F+T) from interval deltas.

    Mirrors driver accounting: the raw retransmission counter is corrected by
    subtracting max_retry retries for each frame dropped at the retry limit,
    so dropped frames contribute to neither F nor T. Returns None when the
    station made no accountable attempts this interval.
    """
    t = counters.successes_cumulative - counters.prev_successes
    retries = counters.failures_cumulative - counters.prev_failures
    if t < 0 or retries < 0:
        raise ValueError("cumulative counters decreased: accounting corruption")
    # A dropped frame's retries may have been recorded in earlier intervals,
    # so the corrected delta can dip below zero; floor it there.
    f = max(0, retries - dropped_this_interval * max_retry)
    if f + t == 0:
        return None
    return f / (f + t)
