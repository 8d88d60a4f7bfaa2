"""Self-test of the benchmark; not part of the Tier-1 suite.

    python3 -m pytest -q benchmarks/test_bench.py

Takes about half a minute: short runs of the cheapest workload, and single
experiments in-process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import body  # noqa: E402
import edcasim.cli  # noqa: E402  (body.py puts src/ on the path)
from workloads import ROOT, WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = BENCH_DIR / ".work" / "selftest"


def _bench(trace: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "dac_sweep",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


def test_every_metric_is_printed_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        stdout, result = _bench(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, stdout
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        printed = {line.split()[1]: line.split()[4] for line in stdout.splitlines()
                   if line.startswith("metric ")}
        assert printed == {**want, "failed_frac": "ratio"}
        for name in want:
            assert isinstance(result["metrics"][name]["value"], (int, float))
        assert "metric failed_frac = 0 ratio" in stdout
        assert stdout.startswith("provenance {")


def _one_experiment(key: str) -> Workload:
    hidden = WORKLOADS["hidden"]
    return replace(hidden, experiments=tuple(
        e for e in hidden.experiments if e.key == key))


def test_altered_output_is_counted_as_failed(monkeypatch):
    workload = _one_experiment("hidden_n10")
    expected = json.loads(body.REFERENCE.read_text())["hidden"]["0"]

    clean = body.summarize([body.run_body(workload, 0, 1, WORK, expected)])
    assert (clean["attempted"], clean["failed"]) == (1, 0), clean["errors"]

    emit = edcasim.cli.emit_outputs

    def emit_and_alter(result, outdir):
        paths = emit(result, outdir)
        with open(paths["summary.csv"], "a", encoding="utf-8") as fh:
            fh.write("\n")
        return paths

    monkeypatch.setattr(edcasim.cli, "emit_outputs", emit_and_alter)
    altered = body.summarize([body.run_body(workload, 0, 1, WORK, expected)])
    assert (altered["attempted"], altered["failed"]) == (1, 1)
    assert "summary.csv" in altered["errors"][0]


def test_tracing_restores_the_program_and_keeps_outputs():
    from tracing import Tracer
    workload = _one_experiment("hidden_n10")
    before = edcasim.cli.main, edcasim.eventmac.heapq
    tracer = Tracer()
    with tracer.installed():
        traced = body.run_body(workload, 1, 1, WORK, None)
    assert (edcasim.cli.main, edcasim.eventmac.heapq) == before
    plain = body.run_body(workload, 1, 1, WORK, None)
    assert traced["experiments"][0]["digests"] == plain["experiments"][0]["digests"]
    assert tracer.scaling_metrics()["eventmac.us_per_attempt.n10"][0] > 0
    assert tracer.layer_metrics()["engine.run_slotted.self_s"][0] == 0
    assert [s[0] for s in tracer.spans[:2]] == ["cli.main", "scenario.resolve"]
