"""edcasim benchmark: host speed of the simulator on three workloads.

    python3 benchmarks/run.py --workload figures --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every metric, every workload
    python3 benchmarks/run.py --write-reference       # regenerate the digests

Run from the root of the repository. `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import BENCH_DIR, REFERENCE, ROOT, SEED_POOL, SRC, WORKLOADS

WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 170

END_TO_END = {"sim_speed": "sim-s/host-s", "setup_s": "s", "peak_rss_mb": "MB"}

# Runs in a fresh interpreter: import the package and its entry point, then
# resolve and validate every scenario of the workload as its runs will.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import edcasim.cli
from workloads import WORKLOADS
for exp in WORKLOADS[{workload!r}].experiments:
    exp.resolve({offset})
print(time.perf_counter() - t0)
"""


def provenance(workload: str, seed: int) -> dict:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        head = (lines[1] if top.returncode == 0 and len(lines) == 2
                and Path(lines[0]).resolve() == ROOT else "unknown")
    except (OSError, subprocess.SubprocessError):
        head = "unknown"
    return {"git_head": head, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "workload": workload,
            "seed": seed, "seed_pool": SEED_POOL}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time in fresh processes: one warm-up (it may compile the
    bytecode), then SETUP_REPEATS timed starts."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR),
                             workload=workload, offset=seed % SEED_POOL)
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        if i:
            times.append(float(done.stdout.split()[-1]))
    return times


def run_child(workload: str, seed: int, seconds: float, trace: int,
              record: bool = False) -> dict:
    workdir = WORK / workload
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "body.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result)]
    if record:
        cmd.append("--record")
    subprocess.run(cmd, cwd=ROOT, check=True,
                   timeout=None if record else CHILD_TIMEOUT_S)
    return json.loads(result.read_text())


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the contract's result object plus a report."""
    prov = provenance(workload, seed)
    print("provenance " + json.dumps(prov), flush=True)
    setup = [] if trace else measure_setup(workload, seed)
    res = run_child(workload, seed, seconds, trace)
    res["provenance"] = prov
    (WORK / workload / "result.json").write_text(json.dumps(res, indent=1))

    for e in res["experiments"]:
        status = "ok" if e["error"] is None else f"FAILED: {e['error']}"
        print(f"experiment {e['key']} seed {e['seed']}: host {e['host_s']:.3f} s, "
              f"{status}; " + " | ".join(e["summary"]))
    plain = res["untraced"]
    attempted, failed = plain["attempted"], plain["failed"]
    metrics = {}
    if trace:
        traced = res["traced"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        for err in traced["errors"]:
            print(f"traced experiment {err}")
        print(f"traced: light and full pass of {traced['bodies'] // 2} bodies each; "
              "full-pass simulated statistics " + json.dumps(res["sim_stats"])
              + f"; spans in {res['spans']}")
        for name, m in res["layers"].items():
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
            print(f"metric {name} = {m['value']:.6g} {m['unit']}"
                  + (f"  ({m['base']})" if m["base"] else ""))
    else:
        values = {
            "sim_speed": plain["sim_s"] / plain["host_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(f"bodies {plain['bodies']}: simulated {plain['sim_s']:.1f} s "
              f"in host {plain['host_s']:.3f} s (jobs {res['jobs']}); set-up "
              f"over {len(setup)} fresh processes: min {min(setup):.4f} s, "
              f"max {max(setup):.4f} s")
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"metric {name} = {values[name]:.6g} {unit}")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio  "
          f"(failed {failed} / attempted {attempted} experiment runs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_reference() -> None:
    digests = {}
    for name in WORKLOADS:
        print(f"recording {name} for seed offsets 0..{SEED_POOL - 1}", flush=True)
        res = run_child(name, 0, 0, 0, record=True)
        if res["failed"]:
            raise SystemExit(f"{name}: runs failed: {res['errors']}")
        digests[name] = res["reference"]
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "edcasim" / "__init__.py").is_file():
        print(f"error: no edcasim sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    try:
        if args.workload != "all":
            result = bench(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                for trace in (0, 1):
                    print(f"== {name} trace {trace}", flush=True)
                    one = bench(name, args.seed, args.seconds, trace)
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                    result["metrics"].update(
                        {f"{name}/{k}": v for k, v in one["metrics"].items()})
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
