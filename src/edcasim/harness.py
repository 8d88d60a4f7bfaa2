"""Experiment orchestration: seeded replications, metric aggregation,
sweep points, and CSV/lock-file emission.
"""

from __future__ import annotations

import math
import os
import random
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from itertools import repeat

from .engine import ControlPlane, IntervalRecord, RunResult, run_slotted
from .eventmac import EventEngine
from .mac import CaptureModel, FrameRecord, Station, TrafficSource
from .scenario import (HIDDEN_FIELDS, ConfigError, Scenario, emit_scenario,
                       hidden_node_visibility, parse_value)


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


def _build_stations(scenario: Scenario, run_seed: int,
                    control: ControlPlane) -> list[Station]:
    jitter_rng = _station_rng(run_seed, 0, "snr")
    stations = []
    for idx, snr in enumerate(scenario.snr_db, start=1):
        if scenario.snr_jitter_db > 0:
            snr = snr + jitter_rng.gauss(0.0, scenario.snr_jitter_db)
        traffic = (TrafficSource(scenario.payload_bytes,
                                 _station_rng(run_seed, idx, "traffic"),
                                 scenario.burst_bytes, scenario.silent_mean_s)
                   if scenario.traffic == "onoff" else None)
        stations.append(Station(
            station_id=idx, snr_db=snr, profile=control.profile,
            rng=_station_rng(run_seed, idx, "mac"),
            payload_bytes=scenario.payload_bytes, cw_min=control.start_cw,
            beb=control.beb, traffic=traffic))
    return stations


def run_once(scenario: Scenario, rep: int, slot_log=None, trace=None) -> RunResult:
    """One seeded replication; deterministic given (scenario, rep). Its
    frames go to `slot_log` and its trace records to `trace`, each only
    when given."""
    control = ControlPlane(scenario, trace)
    stations = _build_stations(scenario, scenario.seed + rep, control)
    capture = CaptureModel(mode=scenario.capture_mode,
                           threshold_db=scenario.capture_threshold_db)
    if scenario.is_fully_connected():
        return run_slotted(stations, control.profile, capture, control,
                           scenario.duration_us, slot_log=slot_log)
    return EventEngine(stations, control.profile, capture, control,
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


def run_experiment(scenario: Scenario, jobs: int = 1, slot_log=None,
                   trace=None) -> ExperimentResult:
    """Run `replications` independent seeded replications and aggregate.

    Results are reduced in replication order regardless of completion order,
    so the output is identical for any job count. A slot_log callback and a
    trace sink, when given, take the first replication's frames and records
    as it runs; the others record nothing. With several jobs, the first
    replication runs in this process while the pool runs the others.
    """
    others = range(1, scenario.replications)
    with ExitStack() as stack:
        replicate = map
        if jobs > 1 and others:
            # Imported here: it is a third of the package's import time, and
            # serial runs never need it.
            from concurrent.futures import ProcessPoolExecutor
            replicate = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(jobs, len(others)))).map
        rest = replicate(run_once, repeat(scenario), others)
        runs = [run_once(scenario, 0, slot_log, trace), *rest]
    return ExperimentResult(scenario=scenario, runs=runs)


def _station_point(base: Scenario, value: int) -> Scenario:
    # Hidden fields name stations by number, and re-sorting the links would
    # give those numbers to other stations.
    for field in HIDDEN_FIELDS:
        if getattr(base, field):
            raise ConfigError(field, "an n_stations sweep needs a fully "
                              "connected base scenario")
    if not 1 <= value <= base.n_stations:
        raise ConfigError("values", f"n_stations {value} outside 1..{base.n_stations}")
    ordered = sorted(base.snr_db)  # ascending link quality
    if base.station_add_order == "descending":
        ordered = ordered[::-1]
    return replace(base, snr_db=tuple(ordered[:value]), name=f"{base.name}/n{value}")


# Sweep axis -> (the config key whose codec reads its values, builder of the
# point for one value).
SWEEP_AXES = {
    "n_stations": ("stations", _station_point),
    "capture_threshold": ("capture_threshold_db", lambda base, v: replace(
        base, capture_mode="threshold", capture_threshold_db=v,
        name=f"{base.name}/thr{v}")),
    # The value is the mean silent time (1/lambda) in seconds.
    "lambda": ("silent_mean_s", lambda base, v: replace(
        base, traffic="onoff", silent_mean_s=v, name=f"{base.name}/silent{v}")),
    "controller": ("controller", lambda base, v: replace(
        base, controller=v, name=f"{base.name}/{v}")),
}


def sweep_points(base: Scenario, axis: str, values: list) -> list[tuple[object, Scenario]]:
    """The `(value, scenario)` point of each axis value, read as its config
    key's type, derived from the base scenario and validated, none of them run.

    For the station-count axis, stations join in the configured order of link
    quality (ascending: worst link first).
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"unknown sweep axis {axis!r}; "
                          f"known: {tuple(SWEEP_AXES)}")
    if not values:
        raise ConfigError("values", "empty sweep values")
    key, point = SWEEP_AXES[axis]
    parsed = [parse_value(key, str(v), "values") for v in values]
    # Each point writes under its value's name, so a repeated value would
    # overwrite the outputs of the point before it.
    if len(set(parsed)) < len(parsed):
        raise ConfigError("values", f"repeated {axis} value in {values}")
    # Building a point validates it.
    return [(v, point(base, v)) for v in parsed]


# -- output emission ----------------------------------------------------------

TRACE_NAME = "trace.csv"   # what trace_writer writes, as the run goes
OUTPUT_NAMES = ("summary.csv", TRACE_NAME, "scenario.lock")   # what a run writes
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


def trace_writer(fh):
    """Write the trace header to `fh` and return a trace sink that writes a
    beacon's rows, the control plane's `(node, p_obs, p_own, error, cw_real,
    cw_quantized)` tuples, with one `fh.write`."""
    fh.write(TRACE_HEADER + "\n")
    write = fh.write

    # Floats print with six decimals, integers as they are, None as nothing.
    def write_rows(t_ms: int, rows: list[tuple]) -> None:
        prefix = f"{t_ms},"
        full = prefix + "%s,%.6f,%.6f,%.6f,%.6f,%s\n"   # a row with every field
        lines = []
        for row in rows:
            if None not in row:
                lines.append(full % row)
                continue
            node, p_obs, p_own, error, cw_real, cw = row
            lines.append(f"{prefix}{node},{'' if p_obs is None else f'{p_obs:.6f}'},"
                         f"{'' if p_own is None else f'{p_own:.6f}'},"
                         f"{'' if error is None else f'{error:.6f}'},"
                         f"{'' if cw_real is None else f'{cw_real:.6f}'},"
                         f"{'' if cw is None else cw}\n")
        write("".join(lines))

    return write_rows


def emit_outputs(result: ExperimentResult, outdir: str) -> dict[str, str]:
    """Write the outputs that need every replication, summary.csv and
    scenario.lock, and return their paths; `trace_writer` writes trace.csv
    during the run."""
    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, name) for name in OUTPUT_NAMES if name != TRACE_NAME}
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
        with open(paths["scenario.lock"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(emit_scenario(scenario))
    except OSError as exc:
        raise OSError(f"writing outputs under {outdir!r}: {exc}") from exc
    return paths
