"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Shared experiment fixtures are module-scoped because several criteria read
the same preset runs. Every tolerance is pinned here, none deferred.
"""

import dataclasses
import math
import random
import time

import pytest

from edcasim.controllers import ControllerState, PiGains, compute_p_opt, dac_step, pi_update
from edcasim.cli import main as cli_main
from edcasim.harness import (ExperimentResult, jain_index, run_experiment, run_once,
                             sweep_points)
from edcasim.oracle import cw_targeted_by_p, optimal_cw_bruteforce, solve_fixed_point
from edcasim.phy import PROFILE_80211A_24
from edcasim.scenario import Scenario, get_preset
from recording import record_sink

PROFILE = PROFILE_80211A_24
P_OPT = compute_p_opt(PROFILE, 1500)
CAC_DECORRELATION_REPS = 8


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def controller_set(preset_name: str):
    out = {}
    for ctl in ("edca-static", "cac", "dac"):
        sc = dataclasses.replace(get_preset(preset_name), controller=ctl)
        out[ctl] = run_experiment(sc)
    return out


@pytest.fixture(scope="module")
def fig7(request):
    return controller_set("fig7_udp_total")


@pytest.fixture(scope="module")
def fig9(request):
    return controller_set("fig9_snr_correlation")


def traced_experiment(scenario):
    """Run `scenario`'s replications as `run_experiment` does, and return
    its result with each replication's own list of trace records."""
    records = [[] for _ in range(scenario.replications)]
    runs = [run_once(scenario, rep, trace=record_sink(records[rep]))
            for rep in range(scenario.replications)]
    return ExperimentResult(scenario=scenario, runs=runs), records


@pytest.fixture(scope="module")
def fig10(request):
    """fig10_hidden under each controller: its result and its trace records."""
    hidden = get_preset("fig10_hidden")
    return {ctl: traced_experiment(dataclasses.replace(hidden, controller=ctl))
            for ctl in ("edca-static", "cac", "dac")}


@pytest.fixture(scope="module")
def fig10_doubling(request):
    """fig10_hidden on the standard doubling MAC: edca-static at CW_min =
    cw_floor with binary exponential backoff."""
    hidden = get_preset("fig10_hidden")
    return run_experiment(dataclasses.replace(
        hidden, controller="edca-static", static_beb=True,
        static_cw=hidden.phy().cw_floor))


@pytest.fixture(scope="module")
def fig5_records(request):
    """The trace records of fig5's first replication."""
    records = []
    run_experiment(get_preset("fig5_cac_point_of_operation"), trace=record_sink(records))
    return records


def test_c01_optimal_point():
    ok = 0.14 <= P_OPT <= 0.18
    assert report("1 (optimal point)", ok,
                  f"p_opt = {P_OPT:.4f} for 802.11a/1500B, band [0.14, 0.18]"), P_OPT


def test_c02_oracle_consistency():
    t0 = time.time()
    offsets = {}
    for n in range(2, 31):
        target = cw_targeted_by_p(P_OPT, n, PROFILE, 1500)
        best = optimal_cw_bruteforce(n, PROFILE, 1500)
        offsets[n] = max(target, best) // min(target, best)
    best10 = optimal_cw_bruteforce(10, PROFILE, 1500)
    elapsed = time.time() - t0
    ok = all(off <= 2 for off in offsets.values()) and best10 in (64, 128) \
        and elapsed < 1.0
    assert report("2 (oracle consistency)", ok,
                  f"max step offset x{max(offsets.values())}, n=10 optimum "
                  f"{best10}{'' if elapsed < 1.0 else ', runtime over 1 s'}")


def test_c03_cac_point_of_operation(fig5_records):
    cws = {rec.cw_quantized for rec in fig5_records
           if rec.node == "ap" and rec.t_ms > 20_000}
    pobs = [rec.p_obs for rec in fig5_records
            if rec.node == "ap" and rec.t_ms > 60_000 and rec.p_obs is not None]
    mean_pobs = sum(pobs) / len(pobs)
    ok = cws <= {64, 128} and abs(mean_pobs - P_OPT) <= 0.05
    assert report("3 (CAC point of operation)", ok,
                  f"announced CW after 20s: {sorted(cws)}, mean p_obs "
                  f"{mean_pobs:.4f} vs p_opt {P_OPT:.4f} (tol 0.05)")


def test_c04_udp_throughput_gain(fig7):
    base = fig7["edca-static"].total_mean()
    gains = {ctl: fig7[ctl].total_mean() / base - 1.0 for ctl in ("cac", "dac")}
    ok = all(0.30 <= g <= 0.60 for g in gains.values())
    assert report("4 (UDP throughput gain)", ok,
                  f"edca-static {base:.2f} Mbps; gain cac "
                  f"{gains['cac']*100:.1f}%, dac {gains['dac']*100:.1f}% "
                  f"(band 30..60%)")


def _mean_throughputs(exp):
    return [sum(r.throughput_mbps[i] for r in exp.runs) / len(exp.runs)
            for i in exp.station_ids]


def pearson_r(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    if n != len(ys) or n < 2:
        raise ValueError("need two same-length vectors of length >= 2")
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


class TestPearson:
    def test_perfect_lines(self):
        assert pearson_r([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert pearson_r([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_degenerate_vector(self):
        assert pearson_r([1, 2, 3], [5, 5, 5]) == 0.0


def test_c05_fairness_ordering(fig9):
    jfi = {ctl: jain_index(_mean_throughputs(fig9[ctl])) for ctl in fig9}
    ok = jfi["cac"] > 0.98 and jfi["cac"] > jfi["edca-static"] > jfi["dac"]
    assert report("5 (fairness ordering)", ok,
                  f"JFI cac {jfi['cac']:.4f} > edca {jfi['edca-static']:.4f} "
                  f"> dac {jfi['dac']:.4f}, cac bound 0.98")


def _correlations(results):
    snr = list(results["cac"].scenario.snr_db)
    return {ctl: pearson_r(snr, _mean_throughputs(results[ctl]))
            for ctl in results}


def test_c06_snr_correlation_signs(fig9):
    r = _correlations(fig9)
    ok = r["edca-static"] > 0 and r["dac"] < 0
    assert report("6a (SNR correlation signs)", ok,
                  f"r(edca) = {r['edca-static']:+.3f} (>0), "
                  f"r(dac) = {r['dac']:+.3f} (<0)")


def test_c06_cac_decorrelation(fig9):
    # One 10-point Pearson r is too noisy to judge: with capture off, about a
    # third of single replications land outside |r| < 0.3. The verdict is the
    # mean per-replication r over CAC_DECORRELATION_REPS replications: the
    # fixture's runs plus further seeds of the same scenario. Deterministic
    # threshold capture leaves a small but perfectly monotone win bias under
    # CAC, which keeps that mean near 0.7; see the README's analysis.
    cac = fig9["cac"]
    runs = cac.runs + [run_once(cac.scenario, rep) for rep in
                       range(len(cac.runs), CAC_DECORRELATION_REPS)]
    snr = list(cac.scenario.snr_db)
    rs = [pearson_r(snr, [run.throughput_mbps[i] for i in run.station_ids])
          for run in runs]
    r = sum(rs) / len(rs)
    ok = abs(r) < 0.3
    assert report("6b (CAC decorrelation)", ok,
                  f"|mean r(cac)| = {abs(r):.3f} over {len(rs)} replications "
                  f"(per-replication {min(rs):+.3f}..{max(rs):+.3f}), "
                  f"bound 0.3")


def test_c07_hidden_cac_rescue(fig10, fig10_doubling):
    result, records = fig10["cac"]
    static = fig10["edca-static"][0].total_mean()
    cac = result.total_mean()
    ok = cac >= 2.0 * static
    # The fixed-window baseline starves, so the check alone says little; the
    # report also sets CAC against the doubling MAC and shows how often its
    # announced window sat at the ceiling.
    doubling = fig10_doubling.total_mean()
    ceiling = result.scenario.cw_bounds()[1]
    ap = [rec for run in records for rec in run if rec.node == "ap"]
    at_ceiling = sum(rec.cw_quantized == ceiling for rec in ap) / len(ap)
    assert report("7a (hidden nodes: CAC rescue)", ok,
                  f"cac {cac:.2f} Mbps vs edca-static {static:.2f} Mbps "
                  f"(needs >= 2x); doubling edca-static {doubling:.2f} Mbps, "
                  f"cac/doubling {cac / doubling:.2f}; CAC window at the "
                  f"ceiling {ceiling} in {at_ceiling:.0%} of AP intervals")


def test_c07_hidden_dac_no_improvement(fig10, fig10_doubling):
    # With nothing to sniff, DAC's p_obs estimator defers every interval, so
    # its window never leaves the floor and standard doubling stays on. "No
    # improvement" is therefore judged against that same un-adapted MAC, the
    # 802.11 standard configuration: edca-static at CW_min = cw_floor with
    # doubling. The fixed-window baseline of 7a starves here and is reported
    # only for reference; see the README.
    doubling = fig10_doubling.total_mean()
    result, records = fig10["dac"]
    fixed = fig10["edca-static"][0].total_mean()
    dac = result.total_mean()
    sta = [rec for run in records for rec in run if rec.node != "ap"]
    deferred = sum(rec.p_obs is None for rec in sta) / len(sta)
    ok = abs(dac - doubling) <= 0.15 * doubling
    assert report("7b (hidden nodes: DAC no improvement)", ok,
                  f"dac {dac:.2f} Mbps vs doubling edca-static "
                  f"{doubling:.2f} Mbps (band +-15%); fixed-window "
                  f"edca-static {fixed:.2f} Mbps; DAC p_obs deferred in "
                  f"{deferred:.0%} of station intervals")


def test_c08_network_size_sweep():
    base = get_preset("fig11_sweep_n")
    values = list(range(2, 19))
    totals = {}
    for ctl in ("cac", "dac", "edca-static"):
        points = sweep_points(dataclasses.replace(base, controller=ctl),
                              "n_stations", values)
        totals[ctl] = {v: run_experiment(sc).total_mean() for v, sc in points}
    flat = {ctl: max(totals[ctl].values()) / min(totals[ctl].values())
            for ctl in ("cac", "dac")}
    decline = totals["edca-static"][18] / totals["edca-static"][2]
    ok = all(f < 1.15 for f in flat.values()) and decline < 0.8
    assert report("8 (network-size sweep)", ok,
                  f"max/min cac {flat['cac']:.3f}, dac {flat['dac']:.3f} "
                  f"(<1.15); edca n18/n2 {decline:.3f} (<0.8)")


def test_c09_estimator_convergence():
    from edcasim.estimators import estimate_p_obs, estimate_p_own

    n, cw = 10, 64
    predicted = solve_fixed_point(n, cw, PROFILE.m_backoff_stages,
                                  PROFILE, 1500).p
    sc = Scenario(snr_db=(30.0,) * n, controller="edca-static",
                  duration_s=40.0, replications=1, seed=909,
                  static_cw=cw, static_beb=True, name="estimators")
    run = run_experiment(sc).runs[0]
    # Feed the estimators the whole-run tallies (>= 1e5 samples each).
    r0 = sum(run.sniffed_flags[i][0] for i in run.station_ids)
    r1 = sum(run.sniffed_flags[i][1] for i in run.station_ids)
    p_obs = estimate_p_obs(r0, r1)
    p_own = estimate_p_own(sum(run.successes.values()), sum(run.retries.values()),
                           sum(run.drops.values()), PROFILE.max_retry)
    samples = r0 + r1
    ok = samples >= 100_000 \
        and abs(p_obs - predicted) <= 0.01 \
        and abs(p_own - predicted) <= 0.01
    assert report("9 (estimator convergence)", ok,
                  f"fixed point p {predicted:.4f}: p_obs {p_obs:.4f}, "
                  f"p_own {p_own:.4f} (tol 0.01, {samples} sniffed frames)")


def test_c10_controller_algebra(fig5_records):
    rng = random.Random(1010)
    checks = {}

    # velocity-form identity away from the clamps
    ok_vel = True
    for _ in range(30):
        k_p, k_i = rng.uniform(1, 40), rng.uniform(1, 40)
        errors = [rng.uniform(-0.2, 0.2) for _ in range(20)]
        s = _fresh_state(k_p, k_i)
        for e in errors:
            s = pi_update(s, e)
        expected = 5000.0 + k_p * errors[-1] + k_i * sum(errors[:-1])
        ok_vel &= abs(s.cw_real - expected) < 1e-6
    checks["velocity identity"] = ok_vel

    # clamp absorption with physical error magnitudes
    s = ControllerState(gains=PiGains(k_p=25.3, k_i=14.9), cw_floor=16,
                        cw_ceiling=1024, cw_real=1015.0, cw_quantized=1024)
    s = pi_update(s, 0.8)
    s = pi_update(s, 0.0)
    settled = s.cw_real
    ok_clamp = True
    for _ in range(5):
        s = pi_update(s, 0.0)
        ok_clamp &= s.cw_real == settled and s.cw_quantized == 1024
    checks["clamp absorption"] = ok_clamp

    # quantization idempotence over the whole range
    ok_q = all(quantize_cw(float(quantize_cw(x / 7.0, 16, 1024)), 16, 1024)
               == quantize_cw(x / 7.0, 16, 1024) for x in range(16 * 7, 1024 * 7))
    checks["quantization idempotence"] = ok_q

    # CAC uniformity: all stations commit the broadcast window each interval
    by_interval = {}
    for rec in fig5_records:
        by_interval.setdefault(rec.t_ms, {})[rec.node] = rec.cw_quantized
    ok_uniform = all(len({cw for cw in nodes.values()}) == 1
                     for nodes in by_interval.values())
    checks["CAC uniformity"] = ok_uniform

    # DAC fixed point: zero error everywhere iff everything at the target
    def dac_error(p_obs, p_own, p_opt):
        return dac_step(p_obs, p_own, _fresh_state(25.3, 14.9), p_opt).prev_error

    ok_fp = dac_error(P_OPT, P_OPT, P_OPT) == pytest.approx(0.0)
    for _ in range(500):
        p_own = [rng.uniform(0, 0.5) for _ in range(6)]
        p_obs = sum(p_own) / len(p_own)
        if all(abs(dac_error(p_obs, po, P_OPT)) < 1e-12 for po in p_own):
            ok_fp &= all(abs(po - P_OPT) < 1e-9 for po in p_own)
    checks["DAC fixed point"] = ok_fp

    ok = all(checks.values())
    assert report("10 (controller algebra)", ok,
                  "; ".join(f"{k}: {'ok' if v else 'BROKEN'}"
                            for k, v in checks.items()))


def quantize_cw(cw_real, floor, ceiling):
    """The window `pi_update` commits for `cw_real`: zero errors leave the
    real window in place."""
    return pi_update(ControllerState(PiGains(1.0, 1.0), floor, ceiling, cw_real, floor),
                     0.0).cw_quantized


def _fresh_state(k_p, k_i, cw=5000.0):
    return ControllerState(gains=PiGains(k_p=k_p, k_i=k_i),
                           cw_floor=1, cw_ceiling=10 ** 9, cw_real=cw,
                           cw_quantized=quantize_cw(cw, 1, 10 ** 9))


def test_c11_determinism(tmp_path):
    for out in ("a", "b"):
        assert cli_main(["run", "fig10_hidden", "--out", str(tmp_path / out)]) == 0
    same = {}
    for name in ("summary.csv", "trace.csv"):
        same[name] = (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ok = all(same.values())
    assert report("11 (determinism)", ok,
                  f"byte-identical re-runs: {same}")
