"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

from .controllers import CONTROLLERS
from .harness import (OUTPUT_NAMES, SWEEP_AXES, TRACE_NAME, emit_outputs, run_experiment,
                      slot_trace_writer, sweep_points, trace_writer)
from .oracle import cw_grid, solve_fixed_point
from .phy import BUILTIN_PROFILES, MAX_MSDU_BYTES, get_profile
from .scenario import PRESETS, ConfigError, Scenario, emit_scenario, get_preset, load_scenario


def _resolve_scenario(flag: str, ref: str) -> Scenario:
    if ref in PRESETS:
        return get_preset(ref)
    if not os.path.isfile(ref):
        raise ConfigError(flag, f"{ref!r} is neither a preset nor a file")
    try:
        return load_scenario(ref)
    except UnicodeDecodeError as exc:
        raise ConfigError(flag, f"{ref!r} is not UTF-8 text: {exc.reason}") from None


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.replications is not None:
        changes["replications"] = args.replications
    if getattr(args, "controller", None):
        changes["controller"] = args.controller
    return replace(scenario, **changes)


def _refuse_unwritable(writes) -> None:
    """Before anything is run or written, refuse each `(flag, path,
    is_directory)` of `writes`, all that a command writes, whose path is
    empty, exists as the other kind (or, for a file, ends in a separator,
    `.` or `..`), lies under a file, or is a file an earlier entry writes
    too. What earlier entries write, and the directories they make, count
    as existing."""
    made = {}   # realpath -> is_directory
    for flag, path, directory in writes:
        if not path:
            raise ConfigError(flag, "the path is empty")
        # Walk up the path as given, which the system resolves one component
        # at a time (`f/..` fails when `f` is a file), to the nearest path
        # that exists or that an earlier entry writes.
        walk = [os.path.join(os.getcwd(), path)]
        while os.path.realpath(walk[-1]) not in made and not os.path.exists(walk[-1]):
            walk.append(os.path.dirname(walk[-1]))
        real, nearest = os.path.realpath(walk[0]), os.path.realpath(walk[-1])
        is_dir = made[nearest] if nearest in made else os.path.isdir(nearest)
        if real in made and not (directory and is_dir):
            raise ConfigError(flag, f"{path!r} is also written by this command")
        if real == nearest and is_dir != directory or (
                not directory and os.path.basename(path) in ("", ".", "..")):
            raise ConfigError(flag, f"{path!r} is {'not ' if directory else ''}a directory")
        if not is_dir and real != nearest:
            raise ConfigError(flag, f"{path!r} lies under the file {nearest!r}")
        made.update(dict.fromkeys(map(os.path.realpath, walk[1:-1]), True))   # dirs it makes
        made[real] = directory


def _output_writes(outdir: str) -> list:
    """The writes of a run's outputs into `outdir`, as `_refuse_unwritable`
    takes them."""
    return [("out", outdir, True)] + [("out", os.path.join(outdir, n), False)
                                      for n in OUTPUT_NAMES]


def _open_for_writing(path: str):
    """Open a CSV file for writing, creating its directory if need be."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _run_into(scenario: Scenario, outdir: str, jobs: int, slot_log=None):
    """Run `scenario` and write its `OUTPUT_NAMES` into `outdir`: trace.csv
    as replication 0 runs, the others once every replication has ended.
    Return the result."""
    with _open_for_writing(os.path.join(outdir, TRACE_NAME)) as fh:
        result = run_experiment(scenario, jobs=jobs, slot_log=slot_log,
                                trace=trace_writer(fh))
    emit_outputs(result, outdir)
    return result


def cmd_run(args) -> int:
    scenario = _apply_overrides(_resolve_scenario("scenario", args.scenario), args)
    traced = args.slot_trace is not None
    _refuse_unwritable(_output_writes(args.out)
                       + [("slot-trace", args.slot_trace, False)] * traced)
    with _open_for_writing(args.slot_trace) if traced else nullcontext() as fh:
        result = _run_into(scenario, args.out, args.jobs,
                           slot_log=slot_trace_writer(fh) if fh else None)
    jfi = result.jain_mean()
    drops = sum(sum(r.drops.values()) for r in result.runs)
    print(f"scenario {scenario.name}: {scenario.replications} replication(s), "
          f"{scenario.n_stations} station(s)")
    print(f"total throughput {result.total_mean():.3f} Mbps "
          f"(std {result.total_std():.3f}), "
          f"jfi {'n/a' if jfi is None else f'{jfi:.4f}'}, "
          f"retry-limit drops {drops}")
    for name in sorted(OUTPUT_NAMES):
        print(f"wrote {os.path.join(args.out, name)}")
    if traced:
        print(f"wrote {args.slot_trace}")
    return 0


def sweep(axis: str, points: list, table: str, jobs: int) -> None:
    """Run each `(value, scenario, outdir)` of `points` in order, writing its
    outputs into `outdir` as `run` does and its row to the file `table` as
    the point ends; no result is kept."""
    with _open_for_writing(table) as fh:
        fh.write("axis,value,total_mbps_mean,total_mbps_std,jfi_mean\n")
        for value, scenario, outdir in points:
            res = _run_into(scenario, outdir, jobs)
            jfi = res.jain_mean()
            fh.write(f"{axis},{value},{res.total_mean():.6f},{res.total_std():.6f},"
                     f"{'' if jfi is None else f'{jfi:.6f}'}\n")


def cmd_sweep(args) -> int:
    base = _apply_overrides(_resolve_scenario("base", args.base), args)
    table = os.path.join(args.out, "sweep.csv")
    # Each point's outputs go under `<axis>_<value>/`.
    points = [(value, scenario, os.path.join(args.out, f"{args.axis}_{value}"))
              for value, scenario in sweep_points(base, args.axis, args.values)]
    _refuse_unwritable([("out", args.out, True), ("out", table, False)]
                       + [w for *_, outdir in points for w in _output_writes(outdir)])
    sweep(args.axis, points, table, args.jobs)
    print(f"wrote {table}")
    return 0


def cmd_oracle(args) -> int:
    profile = get_profile(args.profile)
    to_file = args.out is not None
    _refuse_unwritable([("out", args.out, False)] * to_file)
    with _open_for_writing(args.out) if to_file else nullcontext(sys.stdout) as out:
        out.write("n,cw_min,tau,p,throughput_mbps\n")
        for n in args.n:
            for cw in cw_grid(profile):
                sol = solve_fixed_point(n, cw, profile.m_backoff_stages,
                                        profile, args.payload)
                out.write(f"{n},{cw},{sol.tau:.8f},{sol.p:.8f},"
                          f"{sol.throughput:.6f}\n")
    if to_file:
        print(f"wrote {args.out}")
    return 0


def cmd_presets(args) -> int:
    if args.show:
        print(emit_scenario(get_preset(args.show)), end="")
    else:
        for name in sorted(PRESETS):
            s = PRESETS[name]
            print(f"{name}: controller={s.controller} stations={s.n_stations} "
                  f"duration={s.duration_s:g}s reps={s.replications}")
    return 0


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer from `low` up to `high` (unbounded if None)."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"{low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edcasim",
        description="802.11 EDCA simulator with adaptive contention-window control")
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags `run` and `sweep` share.
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--out", default="out")
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--replications", type=int, default=None)
    experiment.add_argument("--jobs", type=_int_in(1), default=1)

    p_run = sub.add_parser("run", parents=[experiment],
                           help="run a scenario file or preset")
    p_run.add_argument("scenario")
    p_run.add_argument("--controller", choices=CONTROLLERS, default=None)
    p_run.add_argument("--slot-trace", default=None, metavar="FILE",
                       help="write one CSV row per transmitted data frame of "
                            "the first replication")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[experiment],
                             help="run one experiment per axis value")
    p_sweep.add_argument("--base", required=True, help="scenario file or preset")
    p_sweep.add_argument("--axis", required=True, choices=tuple(SWEEP_AXES))
    p_sweep.add_argument("--values", nargs="+", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="emit the CW-vs-throughput model grid")
    p_oracle.add_argument("--n", type=_int_in(1), nargs="+", required=True)
    p_oracle.add_argument("--profile", default="80211a-24mbps",
                          choices=sorted(BUILTIN_PROFILES))
    p_oracle.add_argument("--payload", type=_int_in(1, MAX_MSDU_BYTES), default=1500)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_presets = sub.add_parser("presets", help="list or show built-in scenarios")
    shown = p_presets.add_mutually_exclusive_group()
    shown.add_argument("--list", action="store_true",
                       help="print every built-in scenario (the default)")
    shown.add_argument("--show", default=None, metavar="NAME",
                       help="print one built-in scenario as a config file")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
