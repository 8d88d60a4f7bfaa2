"""Per-layer tracing for the benchmark, from outside the program.

`Tracer.installed()` replaces public callables of each `edcasim` module at
the names their callers bind (for example `edcasim.engine.run_slot`, which
the slotted loop calls, or `edcasim.eventmac.heapq`) with wrappers that
count calls and time them. Nothing under `src/` changes; the originals are
restored on exit.

A light tracer wraps only the two engines' run calls, once per replication,
so that their cost per attempt is measured without the wrappers' own cost.

Coarse boundaries (an experiment, a replication, an engine run, a beacon
update, CSV emission) are kept as spans: name, start, end, the span that
caused it and the experiment it belongs to. Hot boundaries, called once per
channel event or per station, keep only call counts, total time and the
time of their timed children, so a layer's self time is its total minus the
part its timed children cover.
"""

from __future__ import annotations

import heapq
import json
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import edcasim.cli
import edcasim.engine
import edcasim.estimators
import edcasim.eventmac
import edcasim.harness
import edcasim.mac

STATION_COUNTS = (10, 40, 160)

# name -> unit, in the order they are printed.
LAYER_METRICS = {
    "engine.run_slotted.self_s": "s",
    **{f"engine.run_slotted.us_per_attempt.n{n}": "us" for n in STATION_COUNTS},
    "engine.beacon_update.s": "s",
    "engine.beacon_update.calls": "count",
    "mac.run_slot.self_s": "s",
    "mac.run_slot.calls": "count",
    "mac.draw_backoff.calls": "count",
    "mac.resolve_capture.calls": "count",
    "mac.success_ratio": "ratio",
    "phy.calls_per_attempt": "1/attempt",
    "estimators.observe_frame.calls": "count",
    "estimators.observe_frame.s": "s",
    "estimators.p_obs_deferred_frac": "ratio",
    "estimators.p_own_deferred_frac": "ratio",
    "controllers.dac_step.s": "s",
    "controllers.dac_step.calls": "count",
    "controllers.cac_step.calls": "count",
    "controllers.cw_at_bound_frac": "ratio",
    "eventmac.run.self_s": "s",
    **{f"eventmac.us_per_attempt.n{n}": "us" for n in STATION_COUNTS},
    "eventmac.heap_pushes_per_attempt": "1/attempt",
    "harness.run_once.s": "s",
    "harness.emit_outputs.s": "s",
    "harness.core_util": "ratio",
    "scenario.parse_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self, light: bool = False):
        self.light = light
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, child_s]
        self.counts: Counter = Counter()
        self.spans: list[list] = []            # [name, start, end, parent, root]
        self.per_n: dict = defaultdict(lambda: [0.0, 0])   # (engine, n) -> [s, attempts]
        self.runs = Counter()                  # run_once totals
        self._stack: list[list] = []           # open frames: [child_s, span index]

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, keep=False, on_return=None):
        """Time every call of `fn`; keep a span per call when `keep`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if keep:
                frame[1] = len(spans)
                root = frame[1] if parent is None else spans[parent][4]
                spans.append([name, 0.0, 0.0, parent, root])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep:
                    spans[frame[1]][1:3] = t0, t0 + dt
            if on_return is not None:
                on_return(args, result, dt)
            return result

        return wrapper

    def timed_leaf(self, name, fn):
        """Cheaper `timed` for hot callables with no timed callees."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            stats[0] += 1
            stats[1] += dt
            if stack:
                stack[-1][0] += dt
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def deferrals(self, name, fn):
        """Count calls of an estimator and the ones that deferred (None)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if result is None:
                counts[name + ".deferred"] += 1
            return result

        return wrapper

    def _cap_hits(self, fn):
        counts = self.counts

        def beacon_update(plane, *args, **kwargs):
            before = plane.cw_cap_hits
            result = fn(plane, *args, **kwargs)
            counts["controllers.cw_cap_hits"] += plane.cw_cap_hits - before
            return result

        return beacon_update

    def _engine_run(self, engine):
        def on_return(args, result, dt):
            n = len(args[0]) if engine == "engine" else len(args[0].stations)
            acc = self.per_n[(engine, n)]
            acc[0] += dt
            acc[1] += sum(result.attempts.values())
        return on_return

    def _run_once(self, args, result, dt):
        self.runs["runs"] += 1
        self.runs["attempts"] += sum(result.attempts.values())
        self.runs["successes"] += sum(result.successes.values())
        self.runs["drops"] += sum(result.drops.values())

    # -- installation -------------------------------------------------------

    def _patches(self):
        cli, engine, harness, mac = (edcasim.cli, edcasim.engine,
                                     edcasim.harness, edcasim.mac)
        plane = engine.ControlPlane
        station = mac.Station
        counters = edcasim.estimators.BeaconCounters
        event_engine = edcasim.eventmac.EventEngine
        engine_runs = [
            (harness, "run_slotted", self.timed(
                "engine.run_slotted", harness.run_slotted, keep=True,
                on_return=self._engine_run("engine"))),
            (event_engine, "run", self.timed(
                "eventmac.run", event_engine.run, keep=True,
                on_return=self._engine_run("eventmac"))),
        ]
        if self.light:
            return engine_runs
        heap = types.SimpleNamespace(
            heappush=self.counted("eventmac.heappush", heapq.heappush),
            heappop=heapq.heappop)
        return engine_runs + [
            (cli, "main", self.timed("cli.main", cli.main, keep=True)),
            (cli, "load_scenario",
             self.timed("scenario.resolve", cli.load_scenario, keep=True)),
            (cli, "get_preset",
             self.timed("scenario.resolve", cli.get_preset, keep=True)),
            (cli, "run_experiment", self.timed(
                "harness.run_experiment", cli.run_experiment, keep=True)),
            (cli, "sweep", self.timed("harness.sweep", cli.sweep, keep=True)),
            (cli, "emit_outputs", self.timed(
                "harness.emit_outputs", cli.emit_outputs, keep=True)),
            (harness, "run_experiment", self.timed(
                "harness.run_experiment", harness.run_experiment, keep=True)),
            (harness, "run_once", self.timed(
                "harness.run_once", harness.run_once, keep=True,
                on_return=self._run_once)),
            (plane, "beacon_update", self.timed(
                "engine.beacon_update", self._cap_hits(plane.beacon_update),
                keep=True)),
            (engine, "run_slot", self.timed_leaf("mac.run_slot", engine.run_slot)),
            (engine, "cac_step",
             self.counted("controllers.cac_step", engine.cac_step)),
            (engine, "dac_step",
             self.timed_leaf("controllers.dac_step", engine.dac_step)),
            (engine, "estimate_p_obs",
             self.deferrals("estimators.p_obs", engine.estimate_p_obs)),
            (engine, "estimate_p_own",
             self.deferrals("estimators.p_own", engine.estimate_p_own)),
            (counters, "observe_frame", self.timed_leaf(
                "estimators.observe_frame", counters.observe_frame)),
            (station, "draw_backoff",
             self.counted("mac.draw_backoff", station.draw_backoff)),
            (mac, "resolve_capture",
             self.counted("mac.resolve_capture", mac.resolve_capture)),
            (mac, "success_duration",
             self.counted("phy.duration", mac.success_duration)),
            (mac, "collision_duration",
             self.counted("phy.duration", mac.collision_duration)),
            (edcasim.eventmac, "data_airtime",
             self.counted("phy.duration", edcasim.eventmac.data_airtime)),
            (edcasim.eventmac, "heapq", heap),
        ]

    @contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        _, total, child = self.stats.get(name, [0, 0.0, 0.0])
        return total - child

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def us_per_attempt(self, engine: str, n: int) -> float:
        seconds, attempts = self.per_n.get((engine, n), (0.0, 0))
        return _ratio(seconds * 1e6, attempts)

    def engine_attempts(self, engine: str) -> int:
        return sum(a for (e, _), (_, a) in self.per_n.items() if e == engine)

    def scaling_metrics(self) -> dict[str, tuple[float, str]]:
        """Host time per resolved attempt of each engine, by station count,
        with its base; meant for a light tracer."""
        return {f"{name}.us_per_attempt.n{n}": (
            self.us_per_attempt(engine, n),
            f"attempts {self.per_n.get((engine, n), (0, 0))[1]}")
            for engine, name in (("engine", "engine.run_slotted"),
                                 ("eventmac", "eventmac"))
            for n in STATION_COUNTS}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer values and the bases of the ratios, keyed by metric
        name. The scaling metrics come from a light tracer, and the two
        that need an untraced run (core_util, overhead_frac) from the
        caller."""
        c = self.counts
        attempts = self.runs["attempts"]
        updates = c["controllers.cac_step"] + self.calls("controllers.dac_step")
        ev_attempts = self.engine_attempts("eventmac")
        return {
            "engine.run_slotted.self_s": (self.self_s("engine.run_slotted"), ""),
            "engine.beacon_update.s": (self.total_s("engine.beacon_update"), ""),
            "engine.beacon_update.calls": (self.calls("engine.beacon_update"), ""),
            "mac.run_slot.self_s": (self.self_s("mac.run_slot"), ""),
            "mac.run_slot.calls": (self.calls("mac.run_slot"), ""),
            "mac.draw_backoff.calls": (c["mac.draw_backoff"], ""),
            "mac.resolve_capture.calls": (c["mac.resolve_capture"], ""),
            "mac.success_ratio": (
                _ratio(self.runs["successes"], attempts),
                f"successes {self.runs['successes']} / attempts {attempts}"),
            "phy.calls_per_attempt": (
                _ratio(c["phy.duration"], attempts),
                f"duration helper calls {c['phy.duration']} / attempts {attempts}"),
            "estimators.observe_frame.calls": (
                self.calls("estimators.observe_frame"), ""),
            "estimators.observe_frame.s": (
                self.total_s("estimators.observe_frame"), ""),
            "estimators.p_obs_deferred_frac": (
                _ratio(c["estimators.p_obs.deferred"], c["estimators.p_obs.calls"]),
                f"deferred {c['estimators.p_obs.deferred']} / "
                f"estimates {c['estimators.p_obs.calls']}"),
            "estimators.p_own_deferred_frac": (
                _ratio(c["estimators.p_own.deferred"], c["estimators.p_own.calls"]),
                f"deferred {c['estimators.p_own.deferred']} / "
                f"estimates {c['estimators.p_own.calls']}"),
            "controllers.dac_step.s": (self.total_s("controllers.dac_step"), ""),
            "controllers.dac_step.calls": (self.calls("controllers.dac_step"), ""),
            "controllers.cac_step.calls": (c["controllers.cac_step"], ""),
            "controllers.cw_at_bound_frac": (
                _ratio(c["controllers.cw_cap_hits"], updates),
                f"cw_cap_hits {c['controllers.cw_cap_hits']} / "
                f"controller steps {updates}"),
            "eventmac.run.self_s": (self.self_s("eventmac.run"), ""),
            "eventmac.heap_pushes_per_attempt": (
                _ratio(c["eventmac.heappush"], ev_attempts),
                f"pushes {c['eventmac.heappush']} / "
                f"event-engine attempts {ev_attempts}"),
            "harness.run_once.s": (self.total_s("harness.run_once"), ""),
            "harness.emit_outputs.s": (self.total_s("harness.emit_outputs"), ""),
            "scenario.parse_s": (self.total_s("scenario.resolve"), ""),
        }

    def write_spans(self, path) -> None:
        """Write the kept spans, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "experiment": root}) + "\n")
