"""Experiment orchestration: seeded replications, metric aggregation,
parameter sweeps, and CSV/lock-file emission.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, fields, replace
from itertools import repeat

from .engine import ControlPlane, IntervalRecord, RunResult, run_slotted
from .eventmac import EventEngine
from .mac import CaptureModel, FrameRecord, Station, TrafficSource
from .scenario import ConfigError, Scenario, emit_scenario, hidden_node_visibility


def jain_index(throughputs: list[float]) -> float | None:
    """Fairness index (sum x)^2 / (n * sum x^2); 1 when all equal, 1/n worst,
    None when every throughput is 0 (or there are none)."""
    sq = sum(x * x for x in throughputs)
    if sq == 0:
        return None
    total = sum(throughputs)
    return (total * total) / (len(throughputs) * sq)


def _station_rng(run_seed: int, sid: int, purpose: str) -> random.Random:
    # Strings seed the Mersenne twister via a stable hash, so every station
    # gets an independent, platform-stable stream.
    return random.Random(f"{run_seed}/{purpose}/{sid}")


def _build_stations(scenario: Scenario, run_seed: int) -> list[Station]:
    profile = scenario.phy()
    jitter_rng = _station_rng(run_seed, 0, "snr")
    cw_floor = scenario.cw_bounds()[0]
    stations = []
    for idx, snr in enumerate(scenario.snr_db, start=1):
        if scenario.snr_jitter_db > 0:
            snr = snr + jitter_rng.gauss(0.0, scenario.snr_jitter_db)
        traffic = TrafficSource(
            scenario.traffic, scenario.payload_bytes,
            rng=_station_rng(run_seed, idx, "traffic"),
            burst_bytes=scenario.burst_bytes,
            silent_mean_s=scenario.silent_mean_s)
        if scenario.controller == "edca-static":
            cw, beb = scenario.static_cw, scenario.static_beb
        else:
            cw, beb = cw_floor, True
        stations.append(Station(
            station_id=idx, snr_db=snr, profile=profile,
            rng=_station_rng(run_seed, idx, "mac"),
            traffic=traffic, cw_min=cw, beb=beb))
    return stations


def run_once(scenario: Scenario, rep: int, slot_log=None) -> RunResult:
    """One seeded replication; deterministic given (scenario, rep)."""
    profile = scenario.phy()
    stations = _build_stations(scenario, scenario.seed + rep)
    capture = CaptureModel(mode=scenario.capture_mode,
                           threshold_db=scenario.capture_threshold_db)
    control = ControlPlane(scenario, [s.id for s in stations])
    if scenario.is_fully_connected():
        return run_slotted(stations, profile, capture, control,
                           scenario.duration_us, slot_log=slot_log)
    return EventEngine(stations, profile, capture, control,
                       hidden_node_visibility(scenario), scenario.duration_us,
                       slot_log=slot_log).run()


@dataclass(frozen=True)
class ExperimentResult:
    scenario: Scenario
    runs: list[RunResult]

    @property
    def station_ids(self) -> list[int]:
        return self.runs[0].station_ids

    def total_mean(self) -> float:
        return sum(r.total_mbps for r in self.runs) / len(self.runs)

    def total_std(self) -> float:
        m = self.total_mean()
        return math.sqrt(sum((r.total_mbps - m) ** 2 for r in self.runs)
                         / len(self.runs))

    def jain_per_run(self) -> list[float | None]:
        return [jain_index([r.throughput_mbps[i] for i in self.station_ids])
                for r in self.runs]

    def jain_mean(self) -> float | None:
        js = [j for j in self.jain_per_run() if j is not None]
        if not js:
            return None
        return sum(js) / len(js)


def run_experiment(scenario: Scenario, jobs: int = 1,
                   slot_log=None) -> ExperimentResult:
    """Run `replications` independent seeded replications and aggregate.

    Results are reduced in replication order regardless of completion order,
    so the output is identical for any job count. A slot_log callback, when
    given, traces the first replication only; with several jobs, that
    replication runs in this process while the pool runs the others.
    """
    reps = list(range(scenario.replications))
    if jobs > 1 and len(reps) > 1:
        # Imported here: it is a third of the package's import time, and
        # serial runs never need it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(reps) - 1)) as pool:
            rest = pool.map(run_once, repeat(scenario), reps[1:])
            runs = [run_once(scenario, 0, slot_log=slot_log), *rest]
    else:
        runs = [run_once(scenario, r, slot_log=slot_log if r == 0 else None)
                for r in reps]
    return ExperimentResult(scenario=scenario, runs=runs)


def _station_point(base: Scenario, value: int) -> Scenario:
    # Hidden fields name stations by number, and re-sorting the links would
    # give those numbers to other stations.
    for field in ("hidden_pairs", "hidden_from_ap", "hidden_links"):
        if getattr(base, field):
            raise ConfigError(field, "an n_stations sweep needs a fully "
                              "connected base scenario")
    if not 1 <= value <= base.n_stations:
        raise ConfigError("values", f"n_stations {value} outside 1..{base.n_stations}")
    ordered = sorted(base.snr_db)  # ascending link quality
    if base.station_add_order == "descending":
        ordered = ordered[::-1]
    return replace(base, snr_db=tuple(ordered[:value]), name=f"{base.name}/n{value}")


# Sweep axis -> (parser of its values, builder of the point for one value).
SWEEP_AXES = {
    "n_stations": (int, _station_point),
    "capture_threshold": (float, lambda base, v: replace(
        base, capture_mode="threshold", capture_threshold_db=v,
        name=f"{base.name}/thr{v}")),
    # The value is the mean silent time (1/lambda) in seconds.
    "lambda": (float, lambda base, v: replace(
        base, traffic="onoff", silent_mean_s=v, name=f"{base.name}/silent{v}")),
    "controller": (str, lambda base, v: replace(
        base, controller=v, name=f"{base.name}/{v}")),
}


def sweep(base: Scenario, axis: str, values: list, jobs: int = 1
          ) -> list[tuple[object, ExperimentResult]]:
    """One experiment per axis value, derived from the base scenario.

    For the station-count axis, stations join in the configured order of link
    quality (ascending: worst link first).
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"unknown sweep axis {axis!r}; "
                          f"known: {tuple(SWEEP_AXES)}")
    if not values:
        raise ConfigError("values", "empty sweep values")
    parse, point = SWEEP_AXES[axis]
    parsed = []
    for v in values:
        try:
            parsed.append(parse(v))
        except (TypeError, ValueError):
            raise ConfigError("values", f"bad {axis} value {v!r}") from None
    # Building a point validates it, so every point is checked before any runs.
    scenarios = [point(base, v) for v in parsed]
    return [(v, run_experiment(sc, jobs=jobs)) for v, sc in zip(parsed, scenarios)]


# -- output emission ----------------------------------------------------------

SUMMARY_HEADER = "scenario,seed,station,snr_db,throughput_mbps,jfi"
TRACE_HEADER = ",".join(f.name for f in fields(IntervalRecord))
SLOT_TRACE_HEADER = ",".join(f.name for f in fields(FrameRecord))


def slot_trace_writer(fh):
    """Write the slot-trace header to `fh` and return a `slot_log` that
    writes one row per FrameRecord."""
    fh.write(SLOT_TRACE_HEADER + "\n")

    def write(frame: FrameRecord) -> None:
        fh.write(f"{frame.t_us},sta{frame.station},{int(frame.decoded)},"
                 f"{frame.overlaps},{int(frame.retry)}\n")

    return write


def emit_outputs(result: ExperimentResult, outdir: str) -> dict[str, str]:
    """Write summary.csv, trace.csv (first replication) and scenario.lock."""
    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, name)
             for name in ("summary.csv", "trace.csv", "scenario.lock")}
    # Floats print with six decimals, integers as they are, None as nothing.
    try:
        scenario = result.scenario
        with open(paths["summary.csv"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for rep, (run, jfi) in enumerate(zip(result.runs, result.jain_per_run())):
                jfi = "" if jfi is None else f"{jfi:.6f}"
                for sid in run.station_ids:
                    fh.write(f"{scenario.name},{scenario.seed + rep},{sid},"
                             f"{run.snr_db[sid]:.6f},{run.throughput_mbps[sid]:.6f},{jfi}\n")
        with open(paths["trace.csv"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRACE_HEADER + "\n")
            fh.writelines(
                f"{r.t_ms},{r.node},{'' if r.p_obs is None else f'{r.p_obs:.6f}'},"
                f"{'' if r.p_own is None else f'{r.p_own:.6f}'},"
                f"{'' if r.error is None else f'{r.error:.6f}'},"
                f"{'' if r.cw_real is None else f'{r.cw_real:.6f}'},"
                f"{'' if r.cw_quantized is None else r.cw_quantized}\n"
                for r in result.runs[0].records)
        with open(paths["scenario.lock"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(emit_scenario(scenario))
    except OSError as exc:
        raise OSError(f"writing outputs under {outdir!r}: {exc}") from exc
    return paths
