"""Runs one workload's body in this process and writes a JSON result.

Started by `run.py` in a fresh process, so that its peak resident memory and
CPU time belong to the workload alone:

    python3 benchmarks/body.py --workload figures --seed 0 --seconds 30 \
        --trace 0 --result benchmarks/.work/figures/result.json

With `--trace 0` it repeats the workload body until `--seconds` have passed.
With `--trace 1` it does that untraced for half the time, with the
workload's own job count, then runs the same bodies twice more with one
job: under a light tracer for the engines' cost per attempt, and under the
full tracer for the other per-layer numbers. With `--record` it runs the body once for every seed offset and
writes the output digests, for the reference file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from workloads import REFERENCE, SEED_POOL, SRC, WORKLOADS, Workload, seed_offset

sys.path.insert(0, str(SRC))

import edcasim.cli  # noqa: E402  (after the path set-up above)

def digest_tree(top: Path) -> dict[str, str]:
    """sha256 of every file under `top`, keyed by its relative path."""
    out = {}
    for path in sorted(top.rglob("*")):
        if path.is_file():
            out[path.relative_to(top).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def run_body(workload: Workload, offset: int, jobs: int, workdir: Path,
             expected: dict | None) -> dict:
    """Run each experiment of the workload once, through `edcasim.cli.main`.

    Returns host time, simulated time, per-experiment outcome and digests.
    An experiment fails if it raises, returns a nonzero code, or writes
    files whose digests differ from `expected` (when given).
    """
    body = {"offset": offset, "host_s": 0.0, "sim_s": 0.0, "experiments": []}
    for exp in workload.experiments:
        scenario = exp.resolve(offset)
        out = workdir / exp.key
        shutil.rmtree(out, ignore_errors=True)
        argv = exp.argv(scenario.seed, jobs, out)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = edcasim.cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception:  # noqa: BLE001 - a failing run is counted, not fatal
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        digests = digest_tree(out) if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        if error is None and expected is not None:
            want = expected.get(exp.key, {})
            bad = sorted(k for k in digests.keys() | want.keys()
                         if digests.get(k) != want.get(k))
            if bad:
                error = f"outputs differ from the reference: {bad}"
        body["host_s"] += dt
        body["sim_s"] += exp.sim_seconds(scenario)
        body["experiments"].append({
            "key": exp.key, "seed": scenario.seed, "host_s": dt,
            "error": error, "digests": digests,
            "summary": sink.getvalue().strip().splitlines()[:2]})
    return body


def run_timed(workload: Workload, seed: int, seconds: float, jobs: int,
              workdir: Path, expected: dict, count: int | None = None) -> list:
    """Repeat the body, one seed offset after another, until `seconds` have
    passed (stopping at the body count closest to it), or `count` times."""
    bodies = []
    start = time.perf_counter()
    while True:
        offset = seed_offset(seed, len(bodies))
        bodies.append(run_body(workload, offset, jobs, workdir,
                               expected.get(str(offset), {})))
        if count is not None:
            if len(bodies) >= count:
                return bodies
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(bodies) / 2 >= seconds:
            return bodies


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def summarize(bodies: list) -> dict:
    experiments = [e for b in bodies for e in b["experiments"]]
    return {
        "bodies": len(bodies),
        "host_s": sum(b["host_s"] for b in bodies),
        "sim_s": sum(b["sim_s"] for b in bodies),
        "attempted": len(experiments),
        "failed": sum(e["error"] is not None for e in experiments),
        "errors": [f"{e['key']} seed {e['seed']}: {e['error']}"
                   for e in experiments if e["error"] is not None],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = args.result.parent
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workload.jobs()

    if args.record:
        bodies = [run_body(workload, offset, jobs, workdir, None)
                  for offset in range(SEED_POOL)]
        result = {"reference": {
            str(b["offset"]): {e["key"]: e["digests"] for e in b["experiments"]}
            for b in bodies}, **summarize(bodies)}
        args.result.write_text(json.dumps(result, indent=1))
        return 0

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    expected = reference.get(args.workload, {})

    seconds = args.seconds / 2 if args.trace else args.seconds
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    bodies = run_timed(workload, args.seed, seconds, jobs, workdir, expected)
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    result = {"workload": args.workload, "seed": args.seed, "jobs": jobs,
              "untraced": summarize(bodies),
              "experiments": [{k: e[k] for k in ("key", "seed", "host_s",
                                                  "error", "summary")}
                              for b in bodies for e in b["experiments"]]}

    if args.trace:
        from tracing import LAYER_METRICS, Tracer
        light, full = Tracer(light=True), Tracer()
        passes = []
        for tracer in (light, full):
            with tracer.installed():
                passes.append(run_timed(workload, args.seed, seconds, 1, workdir,
                                        expected, count=len(bodies)))
        # Traced runs (one job) must write what the untraced run wrote.
        for traced in passes:
            for plain, tr in zip(bodies, traced):
                for ep, et in zip(plain["experiments"], tr["experiments"]):
                    if ep["digests"] != et["digests"] and et["error"] is None:
                        et["error"] = "traced outputs differ from untraced outputs"
        untraced_speed = result["untraced"]["sim_s"] / result["untraced"]["host_s"]
        full_pass = summarize(passes[1])
        traced_speed = full_pass["sim_s"] / full_pass["host_s"]
        layers = {**full.layer_metrics(), **light.scaling_metrics()}
        layers["harness.core_util"] = (
            cpu / (wall * jobs), f"cpu {cpu:.3f} s / (wall {wall:.3f} s x {jobs} jobs)")
        layers["trace.overhead_frac"] = (
            (untraced_speed - traced_speed) / untraced_speed,
            f"sim_speed untraced {untraced_speed:.4f} vs traced {traced_speed:.4f}")
        result["traced"] = summarize(passes[0] + passes[1])
        result["layers"] = {name: {"value": layers[name][0], "unit": unit,
                                   "base": layers[name][1]}
                            for name, unit in LAYER_METRICS.items()}
        result["sim_stats"] = dict(full.runs)
        spans = workdir / "spans.jsonl"
        full.write_spans(spans)
        result["spans"] = str(spans)

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Linux reports kilobytes; the largest worker counts on top of this process.
    result["peak_rss_mb"] = (usage_self + usage_kids) / 1024.0
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
