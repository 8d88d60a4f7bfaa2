import pytest

from edcasim.controllers import compute_p_opt
from edcasim.oracle import (backoff_tau, cw_grid, cw_targeted_by_p,
                            optimal_cw_bruteforce, solve_fixed_point)
from edcasim.phy import PROFILE_80211A_24, success_duration

PROFILE = PROFILE_80211A_24
PAYLOAD = 1500
M = PROFILE.m_backoff_stages


class TestFixedPoint:
    def test_single_station_no_contention(self):
        sol = solve_fixed_point(1, 32, M, PROFILE, PAYLOAD)
        assert sol.p == 0.0
        # cycle = Ts + mean-backoff idle slots
        cycle = success_duration(PROFILE, PAYLOAD) + 15.5 * PROFILE.slot_time
        assert sol.throughput == pytest.approx(8 * PAYLOAD / cycle, rel=1e-9)

    @pytest.mark.parametrize("n,cw", [(2, 16), (5, 32), (10, 128), (30, 1024)])
    def test_residual(self, n, cw):
        sol = solve_fixed_point(n, cw, M, PROFILE, PAYLOAD)
        implied = 1.0 - (1.0 - sol.tau) ** (n - 1)
        assert abs(sol.p - implied) < 1e-10

    def test_tau_matches_backoff_chain(self):
        sol = solve_fixed_point(10, 64, M, PROFILE, PAYLOAD)
        assert sol.tau == pytest.approx(backoff_tau(sol.p, 64, M), rel=1e-9)

    def test_no_beb_variant(self):
        # m = 0: the window never doubles, tau = 2/(W+1) independent of p
        sol = solve_fixed_point(10, 16, 0, PROFILE, PAYLOAD)
        assert sol.tau == pytest.approx(2.0 / 17.0, rel=1e-12)

    def test_throughput_decreases_with_n_at_small_cw(self):
        values = [solve_fixed_point(n, 16, M, PROFILE, PAYLOAD).throughput
                  for n in (2, 5, 10, 20, 40)]
        assert values == sorted(values, reverse=True)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_fixed_point(0, 16, M, PROFILE, PAYLOAD)
        with pytest.raises(ValueError):
            solve_fixed_point(5, 0, M, PROFILE, PAYLOAD)


class TestBruteForce:
    def test_grid(self):
        assert cw_grid(PROFILE) == [16, 32, 64, 128, 256, 512, 1024]

    def test_n10_optimum_in_reported_band(self):
        assert optimal_cw_bruteforce(10, PROFILE, PAYLOAD) in (64, 128)

    def test_n2_small_window(self):
        assert optimal_cw_bruteforce(2, PROFILE, PAYLOAD) <= 64

    def test_n20_one_step_above_n10(self):
        cw10 = optimal_cw_bruteforce(10, PROFILE, PAYLOAD)
        cw20 = optimal_cw_bruteforce(20, PROFILE, PAYLOAD)
        assert cw20 == 2 * cw10

    def test_needs_contention(self):
        with pytest.raises(ValueError):
            optimal_cw_bruteforce(1, PROFILE, PAYLOAD)


class TestTargetConsistency:
    def test_p_opt_target_within_one_step_of_bruteforce(self):
        p_opt = compute_p_opt(PROFILE, PAYLOAD)
        for n in range(2, 31):
            target = cw_targeted_by_p(p_opt, n, PROFILE, PAYLOAD)
            best = optimal_cw_bruteforce(n, PROFILE, PAYLOAD)
            ratio = max(target, best) / min(target, best)
            assert ratio <= 2, f"n={n}: target {target} vs optimum {best}"
