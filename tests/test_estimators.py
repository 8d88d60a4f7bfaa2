import random

import pytest

from edcasim.estimators import BeaconCounters, estimate_p_obs, estimate_p_own


class TestPObs:
    def test_direct_ratio(self):
        assert estimate_p_obs(84, 16) == pytest.approx(0.16)

    def test_defers_below_sample_floor(self):
        assert estimate_p_obs(10, 2) is None

    def test_defers_with_no_samples(self):
        assert estimate_p_obs(0, 0) is None

    def test_threshold_boundary(self):
        assert estimate_p_obs(19, 0) is None
        assert estimate_p_obs(20, 0) == 0.0

    def test_scale_free(self):
        a = estimate_p_obs(30, 10)
        b = estimate_p_obs(300, 100)
        assert a == pytest.approx(b)


class TestPOwn:
    def test_direct_ratio(self):
        assert estimate_p_own(45, 5, 0, max_retry=7) == pytest.approx(0.10)

    def test_defers_on_zero_attempts(self):
        assert estimate_p_own(0, 0, 0, max_retry=7) is None

    def test_dropped_frames_removed_from_failures(self):
        # one dropped frame contributed max_retry retries this interval
        assert estimate_p_own(40, 12, 1, max_retry=7) == pytest.approx(5 / 45)

    def test_corrupt_counters_rejected(self):
        # a negative gain means a counter went backwards
        for gains in ((-10, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(ValueError):
                estimate_p_own(*gains, max_retry=7)

    def test_scale_free(self):
        a = estimate_p_own(90, 10, 0, 7)
        b = estimate_p_own(900, 100, 0, 7)
        assert a == pytest.approx(b)

    def test_converges_on_geometric_retry_process(self):
        # Attempts fail independently with p = 0.2; frames retry up to 7 times.
        rng = random.Random(2024)
        p, max_retry = 0.2, 7
        successes = retries = drops = 0
        for _ in range(100_000):
            for attempt in range(max_retry + 1):
                failed = rng.random() < p
                if attempt > 0:
                    retries += 1
                if not failed:
                    successes += 1
                    break
            else:
                drops += 1
        est = estimate_p_own(successes, retries, drops, max_retry)
        assert est == pytest.approx(p, abs=0.01)


class TestRollInterval:
    def test_flag_counts_reset(self):
        c = BeaconCounters(r0=5, r1=3)
        c.roll_interval()
        assert (c.r0, c.r1) == (0, 0)

    def test_observe_frame(self):
        c = BeaconCounters()
        c.observe_frame(False)
        c.observe_frame(True)
        c.observe_frame(True)
        assert (c.r0, c.r1) == (1, 2)
