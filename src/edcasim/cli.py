"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .engine import CONTROLLERS
from .harness import SWEEP_AXES, emit_outputs, run_experiment, slot_trace_writer, sweep
from .oracle import cw_grid, solve_fixed_point
from .phy import BUILTIN_PROFILES, MAX_MSDU_BYTES, get_profile
from .scenario import PRESETS, ConfigError, Scenario, emit_scenario, get_preset, load_scenario


def _resolve_scenario(ref: str) -> Scenario:
    if ref in PRESETS:
        return get_preset(ref)
    if os.path.exists(ref):
        return load_scenario(ref)
    raise ConfigError("scenario", f"{ref!r} is neither a preset nor a file")


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.replications is not None:
        changes["replications"] = args.replications
    if getattr(args, "controller", None):
        changes["controller"] = args.controller
    return replace(scenario, **changes)


def cmd_run(args) -> int:
    scenario = _apply_overrides(_resolve_scenario(args.scenario), args)
    trace_fh = None
    slot_log = None
    if args.slot_trace:
        parent = os.path.dirname(args.slot_trace)
        if parent:
            os.makedirs(parent, exist_ok=True)
        trace_fh = open(args.slot_trace, "w", encoding="utf-8", newline="\n")
        slot_log = slot_trace_writer(trace_fh)

    try:
        result = run_experiment(scenario, jobs=args.jobs, slot_log=slot_log)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    paths = emit_outputs(result, args.out)
    jfi = result.jain_mean()
    drops = sum(sum(r.drops.values()) for r in result.runs)
    print(f"scenario {scenario.name}: {scenario.replications} replication(s), "
          f"{scenario.n_stations} station(s)")
    print(f"total throughput {result.total_mean():.3f} Mbps "
          f"(std {result.total_std():.3f}), "
          f"jfi {'n/a' if jfi is None else f'{jfi:.4f}'}, "
          f"retry-limit drops {drops}")
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    if args.slot_trace:
        print(f"wrote {args.slot_trace}")
    return 0


def cmd_sweep(args) -> int:
    base = _apply_overrides(_resolve_scenario(args.base), args)
    rows = sweep(base, args.axis, args.values, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    table = os.path.join(args.out, "sweep.csv")
    with open(table, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("axis,value,total_mbps_mean,total_mbps_std,jfi_mean\n")
        for value, res in rows:
            jfi = res.jain_mean()
            fh.write(f"{args.axis},{value},{res.total_mean():.6f},"
                     f"{res.total_std():.6f},"
                     f"{'' if jfi is None else f'{jfi:.6f}'}\n")
            emit_outputs(res, os.path.join(args.out, f"{args.axis}_{value}"))
    print(f"wrote {table}")
    return 0


def cmd_oracle(args) -> int:
    profile = get_profile(args.profile)
    out = open(args.out, "w", encoding="utf-8", newline="\n") if args.out else sys.stdout
    try:
        out.write("n,cw_min,tau,p,throughput_mbps\n")
        for n in args.n:
            for cw in cw_grid(profile):
                sol = solve_fixed_point(n, cw, profile.m_backoff_stages,
                                        profile, args.payload)
                out.write(f"{n},{cw},{sol.tau:.8f},{sol.p:.8f},"
                          f"{sol.throughput:.6f}\n")
    finally:
        if out is not sys.stdout:
            out.close()
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

    p_run = sub.add_parser("run", help="run a scenario file or preset")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--replications", type=int, default=None)
    p_run.add_argument("--controller", choices=CONTROLLERS, default=None)
    p_run.add_argument("--jobs", type=_int_in(1), default=1)
    p_run.add_argument("--slot-trace", default=None, metavar="FILE",
                       help="write one CSV row per transmitted data frame of "
                            "the first replication")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value")
    p_sweep.add_argument("--base", required=True, help="scenario file or preset")
    p_sweep.add_argument("--axis", required=True, choices=tuple(SWEEP_AXES))
    p_sweep.add_argument("--values", nargs="+", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--replications", type=int, default=None)
    p_sweep.add_argument("--jobs", type=_int_in(1), default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="emit the CW-vs-throughput model grid")
    p_oracle.add_argument("--n", type=_int_in(1), nargs="+", required=True)
    p_oracle.add_argument("--profile", default="80211a-24mbps",
                          choices=sorted(BUILTIN_PROFILES))
    p_oracle.add_argument("--payload", type=_int_in(1, MAX_MSDU_BYTES), default=1500)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_presets = sub.add_parser("presets", help="list or show built-in scenarios")
    p_presets.add_argument("--list", action="store_true")
    p_presets.add_argument("--show", default=None)
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
