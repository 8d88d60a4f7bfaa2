"""The benchmark's workloads: which `edcasim` commands each one runs.

Every experiment is one call of the public entry point `edcasim.cli.main`.
The workload seed picks, for each repetition of a workload's body, an offset
from a pool of SEED_POOL scenario seeds; the reference digests cover every
offset, so every output of every run can be checked byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = BENCH_DIR / "scenarios"
REFERENCE = BENCH_DIR / "reference" / "digests.json"

#: Scenario seed offsets with committed reference digests.
SEED_POOL = 8


def seed_offset(workload_seed: int, body_index: int) -> int:
    return (workload_seed + body_index) % SEED_POOL


def worker_count() -> int:
    """Pool size for the parallel workload: min(2, usable cores)."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Experiment:
    key: str                       # names the experiment's digests
    scenario: str                  # preset name, or a file under scenarios/
    sweep_values: tuple[str, ...] = ()   # n_stations sweep when non-empty
    reseeded: bool = True          # False: always the scenario's own seed

    @property
    def ref(self) -> str:
        """The scenario argument as `edcasim` takes it."""
        path = SCENARIOS / self.scenario
        return str(path) if self.scenario.endswith(".cfg") else self.scenario

    def resolve(self, offset: int):
        """The base scenario with its seed moved by `offset` (when
        reseeded), validated."""
        from edcasim.scenario import PRESETS, get_preset, load_scenario
        ref = self.ref
        base = get_preset(ref) if ref in PRESETS else load_scenario(ref)
        scenario = replace(base, seed=base.seed + offset * self.reseeded)
        scenario.validate()
        return scenario

    def sim_seconds(self, scenario) -> float:
        """Simulated channel time of the experiment, all replications and
        sweep points: whole beacon intervals, as the engines run them."""
        interval = scenario.phy().beacon_interval
        per_run = int(scenario.duration_s * 1e6) // interval * interval / 1e6
        return per_run * scenario.replications * max(1, len(self.sweep_values))

    def argv(self, seed: int, jobs: int, out: Path) -> list[str]:
        common = ["--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]
        if self.sweep_values:
            return ["sweep", "--base", self.ref, "--axis", "n_stations",
                    "--values", *self.sweep_values, *common]
        return ["run", self.ref, *common]


@dataclass(frozen=True)
class Workload:
    name: str
    parallel: bool                 # runs with worker_count() jobs, else 1
    experiments: tuple[Experiment, ...]

    def jobs(self) -> int:
        return worker_count() if self.parallel else 1


WORKLOADS = {w.name: w for w in (
    # Fully connected paper presets: slotted engine, capture, sniffing, CAC,
    # the on/off idle jump and CSV emission. The event engine is idle.
    Workload(
        "figures",
        parallel=False,
        experiments=(Experiment("fig5", "fig5_cac_point_of_operation"),
                     Experiment("fig7", "fig7_udp_total"),
                     # fig12's 300 simulated seconds take 6.7-9.5 s of host
                     # time across eight seeds, depending on how busy its
                     # on/off sources happen to be. It keeps its own seed,
                     # so that the workload seed does not move sim_speed.
                     Experiment("fig12", "fig12_delay", reseeded=False))),
    # Hidden-node scenarios at n = 2, 10, 40, 160: the only workload on the
    # event engine, whose cost per attempt grows with n.
    Workload(
        "hidden",
        parallel=False,
        experiments=(Experiment("fig10", "fig10_hidden"),
                     Experiment("hidden_n10", "hidden_n10.cfg"),
                     Experiment("hidden_n40", "hidden_n40.cfg"),
                     Experiment("hidden_n160", "hidden_n160.cfg"))),
    # DAC n_stations sweep 10/40/160: per-station controllers and beacon
    # updates, O(n) slotted scans, and the only run with several jobs.
    Workload(
        "dac_sweep",
        parallel=True,
        experiments=(Experiment("dac_n160_sweep", "dac_n160.cfg",
                                sweep_values=("10", "40", "160")),)),
)}
