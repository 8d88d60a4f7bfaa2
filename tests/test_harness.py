import concurrent.futures
import contextlib
import dataclasses
import functools
import io
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import edcasim.cli
import edcasim.harness
from edcasim.cli import main as cli_main
from edcasim.controllers import CONTROLLERS
from edcasim.engine import ControlPlane
from edcasim.harness import (OUTPUT_NAMES, SUMMARY_HEADER, SWEEP_AXES, _build_stations,
                             emit_outputs, jain_index, run_experiment, run_once,
                             sweep_points, trace_writer)
from edcasim.mac import FrameRecord
from edcasim.scenario import (ConfigError, Scenario, emit_scenario, get_preset,
                              load_scenario)
from recording import record_sink


def tiny_scenario(**kw):
    base = dict(snr_db=(32.0, 30.0, 28.0), controller="cac", duration_s=2.0,
                replications=2, seed=5, name="tiny")
    base.update(kw)
    return Scenario(**base)


def both_engines(**kw):
    """`tiny_scenario(**kw)` as it is, on the slotted engine, and with a
    hidden pair, on the event engine."""
    return [tiny_scenario(**kw), tiny_scenario(hidden_pairs=((1, 2),), **kw)]


def throughputs(result):
    """Per replication, each station's throughput [Mbps]."""
    return [run.throughput_mbps for run in result.runs]


def run_to(scenario, outdir) -> dict[str, str]:
    """Run `scenario` with `edcasim run --out outdir` and return the path of
    each file it wrote under `outdir`."""
    cfg = Path(outdir).with_suffix(".cfg")
    cfg.write_text(emit_scenario(scenario))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["run", str(cfg), "--out", str(outdir)]) == 0
    return {name: os.path.join(outdir, name) for name in OUTPUT_NAMES}


def records_trace(records) -> str:
    """`records` as trace.csv holds them."""
    out = io.StringIO()
    write = trace_writer(out)
    for record in records:
        write(record.t_ms, [dataclasses.astuple(record)[1:]])
    return out.getvalue()


class TestJain:
    def test_equal_allocation(self):
        assert jain_index([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_winner(self):
        assert jain_index([0.0, 0.0, 5.0, 0.0]) == pytest.approx(1 / 4)

    def test_arithmetic(self):
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6 / 7)

    def test_all_zero_rejected(self):
        # no allocation to judge: no index
        assert jain_index([0.0, 0.0]) is None
        assert jain_index([]) is None

    def test_bounds(self):
        import random
        rng = random.Random(1)
        for _ in range(50):
            xs = [rng.uniform(0, 10) for _ in range(rng.randrange(1, 9))]
            if sum(xs) == 0:
                continue
            j = jain_index(xs)
            assert 1 / len(xs) - 1e-12 <= j <= 1 + 1e-12


class TestExperiment:
    def test_replications_aggregate_consistently(self):
        res = run_experiment(tiny_scenario())
        assert len(res.runs) == 2
        # mean/std recomputation from the per-replication rows
        totals = [r.total_mbps for r in res.runs]
        mean = sum(totals) / len(totals)
        std = math.sqrt(sum((t - mean) ** 2 for t in totals) / len(totals))
        assert res.total_mean() == pytest.approx(mean)
        assert res.total_std() == pytest.approx(std)

    def test_deterministic_given_seed(self):
        a = run_experiment(tiny_scenario())
        b = run_experiment(tiny_scenario())
        assert throughputs(a) == throughputs(b)

    def test_replications_differ_from_each_other(self):
        res = run_experiment(tiny_scenario())
        assert res.runs[0].throughput_mbps != res.runs[1].throughput_mbps

    def test_parallel_jobs_identical_to_sequential(self):
        sc = tiny_scenario(replications=3)
        seq_records, par_records = [], []
        seq = run_experiment(sc, jobs=1, trace=record_sink(seq_records))
        par = run_experiment(sc, jobs=3, trace=record_sink(par_records))
        assert throughputs(seq) == throughputs(par)
        assert seq_records == par_records

    def test_gain_overrides_change_dynamics(self):
        # near-zero gains freeze the window at its floor
        frozen = both_engines(snr_db=(30.0,) * 8, duration_s=3.0, replications=1,
                              kp_override=1e-9, ki_override=1e-9)
        adaptive = both_engines(snr_db=(30.0,) * 8, duration_s=3.0, replications=1)
        for sc in frozen:
            records = []
            run_experiment(sc, trace=record_sink(records))
            assert all(rec.cw_quantized == 16 for rec in records
                       if rec.node == "ap")
        for sc in adaptive:
            records = []
            run_experiment(sc, trace=record_sink(records))
            assert any(rec.cw_quantized > 16 for rec in records
                       if rec.node == "ap")

    def test_defer_threshold_is_configurable(self):
        # an absurdly high sample floor defers every update
        for sc in both_engines(snr_db=(30.0,) * 4, duration_s=3.0, replications=1,
                               defer_min_samples=10**9):
            records = []
            run_experiment(sc, trace=record_sink(records))
            for rec in records:
                if rec.node == "ap":
                    assert rec.error is None and rec.cw_quantized == 16

    @pytest.mark.parametrize("controller", ["cac", "dac"])
    def test_first_window_starts_at_cw_floor_override(self, controller):
        # before the first beacon no controller has run: the stations' own
        # starting window must already respect the configured floor
        sc = tiny_scenario(controller=controller, cw_floor_override=256)
        assert all(s.cw_min_current == 256
                   for s in _build_stations(sc, sc.seed, ControlPlane(sc)))
        sc = tiny_scenario(controller=controller)
        assert all(s.cw_min_current == 16
                   for s in _build_stations(sc, sc.seed, ControlPlane(sc)))

    def test_slot_log_reaches_both_engines(self):
        frames = []
        run = run_experiment(tiny_scenario(replications=1, duration_s=1.0),
                             slot_log=frames.append).runs[0]
        assert frames and all(type(f) is FrameRecord for f in frames)
        # one record per transmitted frame: the slotted engine decodes
        # exactly the successes, and retransmissions are the retries
        assert sum(f.decoded for f in frames) == sum(run.successes.values())
        assert sum(f.retry for f in frames) == sum(run.retries.values())
        hidden = Scenario(snr_db=(31.0, 30.0), controller="edca-static",
                          duration_s=1.0, replications=1, seed=2,
                          hidden_pairs=((1, 2),), name="hlog")
        frames_h = []
        run_experiment(hidden, slot_log=frames_h.append)
        assert frames_h and all(type(f) is FrameRecord for f in frames_h)

    def test_slot_log_keeps_the_pool(self, monkeypatch):
        # the traced first replication runs here, the others in the pool
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        sc = tiny_scenario(replications=3, duration_s=1.0)
        traced, plain = [], []
        par = run_experiment(sc, jobs=2, slot_log=traced.append)
        seq = run_experiment(sc, jobs=1, slot_log=plain.append)
        assert pools == [{"max_workers": 2}]
        assert traced == plain and traced
        assert throughputs(par) == throughputs(seq)


class TestSweep:
    def test_station_axis_ascending_adds_worst_links_first(self):
        base = tiny_scenario(snr_db=(40.0, 30.0, 20.0), replications=1,
                             controller="edca-static")
        points = sweep_points(base, "n_stations", [1, 2])
        assert points[0][1].snr_db == (20.0,)
        assert points[1][1].snr_db == (20.0, 30.0)

    def test_station_axis_descending(self):
        base = tiny_scenario(snr_db=(40.0, 30.0, 20.0), replications=1,
                             station_add_order="descending")
        points = sweep_points(base, "n_stations", [2])
        assert points[0][1].snr_db == (40.0, 30.0)

    def test_controller_axis(self):
        points = sweep_points(tiny_scenario(replications=1), "controller",
                              ["edca-static", "cac"])
        assert [sc.controller for _, sc in points] == ["edca-static", "cac"]

    def test_lambda_axis_sets_onoff(self):
        sc = sweep_points(tiny_scenario(replications=1, duration_s=2.0),
                          "lambda", [1.0])[0][1]
        assert sc.traffic == "onoff" and sc.silent_mean_s == 1.0

    def test_bad_axis_and_empty_values(self):
        with pytest.raises(ConfigError):
            sweep_points(tiny_scenario(), "payload", [1])
        with pytest.raises(ConfigError):
            sweep_points(tiny_scenario(), "controller", [])

    def test_values_are_parsed_by_their_axis(self):
        points = sweep_points(tiny_scenario(replications=1), "capture_threshold", [10])
        assert points[0][0] == 10.0 and isinstance(points[0][0], float)
        assert points[0][1].name == "tiny/thr10.0"
        with pytest.raises(ConfigError, match="'abc'") as err:
            sweep_points(tiny_scenario(), "n_stations", ["abc"])
        assert err.value.field == "values"

    @staticmethod
    def refused(tmp_path, monkeypatch, capsys, base, axis, values) -> str:
        """Run `edcasim sweep` of `base` with every replication stubbed to
        fail, check that it exits 2 with nothing written, and return its
        error message."""
        def no_run(*args, **kwargs):
            raise AssertionError("a point ran")
        monkeypatch.setattr(edcasim.cli, "run_experiment", no_run)
        monkeypatch.setattr(edcasim.harness, "run_experiment", no_run)
        cfg = tmp_path / "base.cfg"
        cfg.write_text(emit_scenario(base))
        out = tmp_path / "out"
        assert cli_main(["sweep", "--base", str(cfg), "--axis", axis,
                         "--values", *map(str, values), "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("axis,value", [
        *((axis, value) for axis in ("capture_threshold", "lambda")
          for value in ("nan", "inf", "1e400")),
        ("n_stations", "1.5")])
    def test_values_are_read_as_their_keys_type(self, tmp_path, monkeypatch, capsys,
                                                axis, value):
        # 1e400 reads as inf, which is no finite number: the message names
        # the flag and quotes the text given, not a value the user never typed
        err = self.refused(tmp_path, monkeypatch, capsys, tiny_scenario(), axis, [value])
        assert err.startswith("configuration error: values:") and repr(value) in err

    # Per axis, a value and the one its point must carry.
    POINT_VALUES = {"n_stations": ("2", 2), "capture_threshold": ("7.5", 7.5),
                    "lambda": ("1.5", 1.5), "controller": ("dac", "dac")}

    @pytest.mark.parametrize("axis", sorted(POINT_VALUES))
    def test_point_carries_the_value_under_its_key(self, axis):
        # the key that reads an axis's values is the field its point sets
        assert sorted(SWEEP_AXES) == sorted(self.POINT_VALUES)
        raw, value = self.POINT_VALUES[axis]
        [(parsed, point)] = sweep_points(tiny_scenario(replications=1), axis, [raw])
        key = SWEEP_AXES[axis][0]
        assert parsed == value
        assert getattr(point, "n_stations" if key == "stations" else key) == value

    def test_each_point_is_a_run_of_its_lock(self, tmp_path):
        # `run` of a point's scenario.lock rewrites that point's three files
        cfg = tmp_path / "base.cfg"
        cfg.write_text(emit_scenario(tiny_scenario(duration_s=1.0)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["sweep", "--base", str(cfg), "--axis", "controller",
                             "--values", "cac", "dac", "--replications", "2",
                             "--jobs", "2", "--out", str(tmp_path / "o")]) == 0
            for value in ("cac", "dac"):
                point = tmp_path / "o" / f"controller_{value}"
                rerun = tmp_path / f"rerun_{value}"
                assert cli_main(["run", str(point / "scenario.lock"),
                                 "--out", str(rerun)]) == 0
                for name in OUTPUT_NAMES:
                    assert (rerun / name).read_bytes() == (point / name).read_bytes()

    def test_bad_point_fails_before_any_runs(self, tmp_path, monkeypatch, capsys):
        err = self.refused(tmp_path, monkeypatch, capsys, tiny_scenario(),
                           "capture_threshold", [10, -1])
        assert err.startswith("configuration error: capture_threshold_db:")

    @pytest.mark.parametrize("axis,values", [("n_stations", ["2", "02"]),
                                             ("capture_threshold", [10, 10.0]),
                                             ("controller", ["cac", "dac", "cac"])])
    def test_repeated_values_rejected_before_any_runs(self, tmp_path, monkeypatch,
                                                      capsys, axis, values):
        # each point writes under its value's name: a repeat would overwrite
        err = self.refused(tmp_path, monkeypatch, capsys, tiny_scenario(), axis, values)
        assert err.startswith("configuration error: values:") and "repeated" in err

    @pytest.mark.parametrize("hidden", [dict(hidden_pairs=((2, 3),)),
                                        dict(hidden_from_ap=(1,)),
                                        dict(hidden_links=((1, 3),))],
                             ids=lambda kw: next(iter(kw)))
    def test_station_axis_refuses_hidden_stations(self, tmp_path, monkeypatch,
                                                  capsys, hidden):
        # re-sorting the links would hand the hidden station numbers to
        # other stations, so no point runs
        base = tiny_scenario(allow_asymmetric=True, **hidden)
        err = self.refused(tmp_path, monkeypatch, capsys, base, "n_stations", [3])
        assert err.startswith(f"configuration error: {next(iter(hidden))}:")


class TestOutputs:
    def test_files_schema_and_row_counts(self, tmp_path):
        sc = tiny_scenario()
        paths = run_to(sc, tmp_path / "out")
        summary = Path(paths["summary.csv"]).read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 1 + sc.replications * sc.n_stations
        trace = Path(paths["trace.csv"]).read_text().splitlines()
        assert trace[0] == "t_ms,node,p_obs,p_own,error,cw_real,cw_quantized"
        intervals = sc.duration_us // sc.phy().beacon_interval
        assert len(trace) == 1 + intervals * (sc.n_stations + 1)

    def test_lock_round_trip_reproduces_summary(self, tmp_path):
        sc = tiny_scenario()
        first = emit_outputs(run_experiment(sc), str(tmp_path / "a"))
        locked = load_scenario(first["scenario.lock"])
        assert locked == sc
        second = emit_outputs(run_experiment(locked), str(tmp_path / "b"))
        assert Path(first["summary.csv"]).read_text() \
            == Path(second["summary.csv"]).read_text()

    def test_summary_writes_the_simulated_snr(self, tmp_path):
        sc = tiny_scenario(snr_jitter_db=3.0)
        res = run_experiment(sc)
        rows = [line.split(",") for line in
                Path(emit_outputs(res, str(tmp_path))["summary.csv"]).read_text()
                .splitlines()[1:]]
        assert len(rows) == sc.replications * sc.n_stations
        for _name, seed, sid, snr, *_ in rows:
            ran_with = {s.id: s.snr_db
                        for s in _build_stations(sc, int(seed), ControlPlane(sc))}
            assert float(snr) == pytest.approx(ran_with[int(sid)], abs=1e-6)
            assert float(snr) != sc.snr_db[int(sid) - 1]

    def test_summary_snr_is_nominal_without_jitter(self, tmp_path):
        sc = tiny_scenario()
        res = run_experiment(sc)
        rows = Path(emit_outputs(res, str(tmp_path))["summary.csv"]).read_text()
        snrs = [line.split(",")[3] for line in rows.splitlines()[1:]]
        assert snrs == [f"{x:.6f}" for x in sc.snr_db] * sc.replications

    def test_byte_identical_reruns(self, tmp_path):
        sc = tiny_scenario(controller="dac")
        a, b = run_to(sc, tmp_path / "x"), run_to(sc, tmp_path / "y")
        for name in ("summary.csv", "trace.csv", "scenario.lock"):
            assert Path(a[name]).read_bytes() == Path(b[name]).read_bytes()


class TestStreamedTrace:
    """A trace sink takes the first replication's records as the run makes
    them; the other replications, and any run without a sink, record
    nothing."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("replications", [1, 3])
    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_stream_is_the_kept_records_trace(self, controller, replications, jobs):
        for sc in both_engines(controller=controller, replications=replications,
                               duration_s=1.0):
            kept = []
            run_once(sc, 0, trace=record_sink(kept))
            streamed = io.StringIO()
            result = run_experiment(sc, jobs=jobs, trace=trace_writer(streamed))
            assert kept
            assert streamed.getvalue() == records_trace(kept)
            assert throughputs(result) == throughputs(run_experiment(sc, jobs=jobs))

    def test_sweep_streams_each_points_trace(self, tmp_path):
        base = tiny_scenario(duration_s=1.0)
        cfg = tmp_path / "base.cfg"
        cfg.write_text(emit_scenario(base))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["sweep", "--base", str(cfg), "--axis", "controller",
                             "--values", "cac", "dac", "--jobs", "2",
                             "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "sweep.csv").read_text().count("\n") == 3
        for value, point in sweep_points(base, "controller", ["cac", "dac"]):
            written = tmp_path / "o" / f"controller_{value}"
            assert sorted(p.name for p in written.iterdir()) == sorted(OUTPUT_NAMES)
            records = []
            run_experiment(point, trace=record_sink(records))
            assert (written / "trace.csv").read_text() == records_trace(records)

    @staticmethod
    def peaks(run) -> tuple[int, int]:
        """The peak traced memory of `run(scenario)` on a 40-station DAC
        scenario of 2 s and of 20 s, after a warm-up run for imports and
        first-use caches."""
        import tracemalloc

        def peak(duration_s: float) -> int:
            sc = Scenario(snr_db=(30.0,) * 40, controller="dac", duration_s=duration_s,
                          replications=1, seed=3, name="flat")
            tracemalloc.start()
            try:
                run(sc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2.0)
        return peak(2.0), peak(20.0)

    def test_memory_does_not_grow_with_run_length(self, tmp_path):
        # A 40-station DAC run writes 41 trace rows a beacon; none of them
        # stays in memory once written.
        short, long = self.peaks(lambda sc: run_to(sc, tmp_path / f"{sc.duration_s:g}s"))
        assert long <= short + 0.25 * 2 ** 20, (short, long)

    def test_library_run_keeps_nothing_that_grows(self):
        # Without a sink, a run makes no trace record at all.
        short, long = self.peaks(run_experiment)
        assert long <= short + 0.25 * 2 ** 20, (short, long)


class TestDelayExperiment:
    def test_cac_gives_tightest_delay_distribution(self):
        # open-loop bursty transfers: the centralized controller equalizes
        # per-station transfer delays; the distributed one spreads them
        import statistics
        base = Scenario(
            snr_db=(40.0, 38.5, 37.0, 35.5, 34.0, 32.5, 31.0, 29.5, 28.0, 26.0),
            controller="cac", duration_s=120.0, replications=1, seed=12,
            capture_mode="threshold", traffic="onoff",
            burst_bytes=3_000_000, silent_mean_s=10.0, name="delayq")
        spread = {}
        for ctl in ("cac", "dac", "edca-static"):
            res = run_experiment(dataclasses.replace(base, controller=ctl))
            delays_s = {i: [d / 1e6 for r in res.runs for d in r.transfer_delays_us[i]]
                        for i in res.station_ids}
            per_station = [statistics.mean(v) for v in delays_s.values() if v]
            assert len(per_station) == base.n_stations
            spread[ctl] = max(per_station) - min(per_station)
        assert spread["cac"] < spread["dac"]
        assert spread["cac"] < spread["edca-static"]


class TestCli:
    def test_run_preset_writes_outputs(self, tmp_path, capsys):
        code = cli_main(["run", "fig10_hidden", "--out", str(tmp_path),
                         "--replications", "1"])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "scenario.lock").exists()

    def test_run_scenario_file(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("snr_db = 30, 30\nduration_s = 1\ncontroller = cac\n"
                     "replications = 1\nname = filetest\n")
        assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("preset,capture", [("fig7_udp_total", True),
                                                ("fig10_hidden", False)])
    def test_slot_trace_is_one_format_on_both_engines(self, tmp_path, preset,
                                                      capture):
        # fig7 runs the slotted engine, fig10 the event engine
        sc = dataclasses.replace(get_preset(preset), duration_s=1.0,
                                 replications=1)
        cfg, trace = tmp_path / "s.cfg", tmp_path / "frames.csv"
        cfg.write_text(emit_scenario(sc))
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o"),
                         "--slot-trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "t_us,station,decoded,overlaps,retry"
        rows = [line.split(",") for line in lines[1:]]
        assert rows and all(len(r) == 5 and r[1].startswith("sta") for r in rows)
        overlapped = [r for r in rows if int(r[3]) > 0]
        assert overlapped
        # a captured frame is a decoded row that other frames overlapped
        assert any(r[2] == "1" for r in overlapped) == capture

    @pytest.mark.parametrize("slot_trace", [False, True])
    def test_run_outputs_identical_for_any_job_count(self, tmp_path, slot_trace):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(emit_scenario(tiny_scenario(replications=3, duration_s=1.0)))
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["run", str(cfg), "--out", str(out), "--jobs", jobs]
            if slot_trace:
                argv += ["--slot-trace", str(out / "frames.csv")]
            assert cli_main(argv) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == sorted(
            ["summary.csv", "trace.csv", "scenario.lock"]
            + ["frames.csv"] * slot_trace)

    @pytest.mark.parametrize("config,argv,field", [
        ("controller = magic", ["run", "{cfg}"], "controller"),
        ("defer_min_samples = 0", ["run", "{cfg}"], "defer_min_samples"),
        ("defer_min_samples = -1", ["run", "{cfg}"], "defer_min_samples"),
        ("name = a,b", ["run", "{cfg}"], "name"),
        ("cw_ceiling_override = 4096", ["run", "{cfg}"], "cw_ceiling_override"),
        ("cw_floor_override = 2048\ncw_ceiling_override = 4096", ["run", "{cfg}"],
         "cw_ceiling_override"),
        ("static_cw = 2048\nstatic_beb = true", ["run", "{cfg}"], "static_cw"),
        ("kp_override = inf\nki_override = 5.0", ["run", "{cfg}"], "kp_override"),
        ("", ["sweep", "--base", "{cfg}", "--axis", "controller", "--values", "bogus"],
         "controller"),
        ("hidden_pairs = 1-2", ["sweep", "--base", "{cfg}", "--axis", "n_stations",
                                "--values", "1", "2"], "hidden_pairs"),
        ("controller = cac\ncontroller = dac", ["run", "{cfg}"], "controller"),
        ("snr_db = 30", ["run", "{cfg}"], "snr_db"),
        ("stations = 2\nstations = 2", ["run", "{cfg}"], "stations"),
        ("", ["sweep", "--base", "{cfg}", "--axis", "n_stations", "--values", "2",
              "02"], "values"),
        ("", ["run", "{cfg}", "--out", "{cfg}"], "out"),
        ("", ["sweep", "--base", "{cfg}", "--axis", "n_stations", "--values", "1",
              "--out", "{cfg}"], "out"),
        # Too long to count in microseconds.
        ("duration_s = 1e303", ["run", "{cfg}"], "duration_s"),
        ("traffic = onoff\nburst_bytes = 1500\nsilent_mean_s = 1e303", ["run", "{cfg}"],
         "silent_mean_s"),
    ], ids=["controller", "defer_min_samples_0", "defer_min_samples_negative",
            "name_comma", "cw_ceiling_override", "cw_floor_and_ceiling_above_phy",
            "static_cw_with_beb", "kp_override_inf", "sweep_controller",
            "sweep_n_stations_hidden", "controller_twice", "snr_db_twice",
            "stations_twice", "sweep_repeated_values", "run_out_is_a_file",
            "sweep_out_is_a_file", "duration_s_huge", "silent_mean_s_huge"])
    def test_config_error_exit_code(self, tmp_path, capsys, monkeypatch, config,
                                    argv, field):
        # a configuration error is reported before any replication runs
        import edcasim.cli
        import edcasim.harness
        for module in (edcasim.cli, edcasim.harness):
            monkeypatch.setattr(module, "run_experiment",
                                lambda *a, **k: pytest.fail("a replication ran"))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"snr_db = 30, 30\n{config}\n")
        argv = [a.format(cfg=cfg) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "o")]
        assert cli_main(argv) == 2
        assert f"configuration error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["summary.csv", "trace.csv", "scenario.lock"])
    def test_slot_trace_onto_an_output_is_refused(self, tmp_path, capsys,
                                                  monkeypatch, name):
        # the run would overwrite the frame trace with one of its outputs
        monkeypatch.chdir(tmp_path)
        Path("cfg").write_text(emit_scenario(tiny_scenario(replications=1)))
        assert cli_main(["run", "cfg", "--out", "o",
                         "--slot-trace", f"o/../o/./{name}"]) == 2
        assert "configuration error: slot-trace:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg"]

    @pytest.mark.parametrize("slot_trace", ["o2/", "o2", "new/", "f/frames.csv"],
                             ids=["directory_slash", "directory", "new_directory",
                                  "under_a_file"])
    def test_slot_trace_that_cannot_be_a_file_is_refused(self, tmp_path, capsys,
                                                         monkeypatch, slot_trace):
        monkeypatch.chdir(tmp_path)
        Path("cfg").write_text(emit_scenario(tiny_scenario(replications=1)))
        Path("f").write_text("")
        Path("o2").mkdir()
        assert cli_main(["run", "cfg", "--out", "o", "--slot-trace", slot_trace]) == 2
        assert "configuration error: slot-trace:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg", "f", "o2"]
        assert not any(Path("o2").iterdir()) and Path("f").read_text() == ""

    def test_missing_scenario_is_config_error(self, tmp_path):
        assert cli_main(["run", "nonexistent", "--out", str(tmp_path)]) == 2

    def test_oracle_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert cli_main(["oracle", "--n", "2", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,cw_min,tau,p,throughput_mbps"
        assert len(lines) == 1 + 2 * 7   # two n values, 7 grid windows

    def test_oracle_creates_the_out_directory(self, tmp_path):
        out = tmp_path / "new" / "grid.csv"
        assert cli_main(["oracle", "--n", "2", "--out", str(out)]) == 0
        assert out.read_text().startswith("n,cw_min,tau,p,throughput_mbps\n")

    def test_presets_listing(self, capsys):
        assert cli_main(["presets", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5_cac_point_of_operation" in out
        assert cli_main(["presets"]) == 0
        assert capsys.readouterr().out == out

    def test_presets_list_and_show_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["presets", "--list", "--show", "fig7_udp_total"])
        assert exc.value.code == 2
        assert "argument --show: not allowed with argument --list" in \
            capsys.readouterr().err

    def test_presets_show_round_trips(self, capsys):
        assert cli_main(["presets", "--show", "fig7_udp_total"]) == 0
        from edcasim.scenario import parse_scenario
        text = capsys.readouterr().out
        assert parse_scenario(text) == get_preset("fig7_udp_total")

    @pytest.mark.parametrize("axis,value", [("n_stations", "abc"),
                                            ("capture_threshold", "x")])
    def test_sweep_bad_value_is_config_error(self, tmp_path, capsys, axis, value):
        code = cli_main(["sweep", "--base", "fig10_hidden", "--axis", axis,
                         "--values", value, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: values" in err and repr(value) in err

    def test_unknown_oracle_profile_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["oracle", "--n", "2", "--profile", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,flag", [
        (["oracle", "--n", "0"], "--n"),
        (["oracle", "--n", "2", "--payload", "0"], "--payload"),
        (["oracle", "--n", "2", "--payload", "99999"], "--payload"),
        (["run", "{cfg}", "--jobs", "-4"], "--jobs"),
        (["sweep", "--base", "{cfg}", "--axis", "controller", "--values", "cac",
          "--jobs", "0"], "--jobs"),
    ])
    def test_bad_argument_exits_2_naming_the_flag(self, tmp_path, capsys,
                                                  argv, flag):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(emit_scenario(tiny_scenario(replications=1, duration_s=1.0)))
        argv = [a.format(cfg=cfg) for a in argv] + ["--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_internal_key_error_is_runtime_error(self, monkeypatch, capsys):
        import edcasim.cli

        def broken(args):
            raise KeyError("internal")
        monkeypatch.setattr(edcasim.cli, "cmd_presets", broken)
        assert cli_main(["presets", "--list"]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_scenario_that_is_not_a_file_is_refused(self, tmp_path, capsys):
        binary = tmp_path / "bin.cfg"
        binary.write_bytes(b"\xff\xfe\x00snr_db = 30")
        for argv, flag in [(["run", str(tmp_path)], "scenario"),
                           (["run", str(binary)], "scenario"),
                           (["sweep", "--base", str(tmp_path)], "base"),
                           (["sweep", "--base", "nope"], "base")]:
            if argv[0] == "sweep":
                argv += ["--axis", "controller", "--values", "cac"]
            assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 2
            assert f"configuration error: {flag}:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bin.cfg"]

    def test_sweep_cli(self, tmp_path):
        code = cli_main(["sweep", "--base", "fig10_hidden", "--axis",
                         "controller", "--values", "edca-static",
                         "--replications", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()


# Each writing flag, with the argv that gives it a path (`{root}` is the
# directory the property runs in). The command's other writing flag, if it
# has one, writes to a fresh path.
WRITING_FLAGS = {
    "run --out": ["run", "fig7_udp_total", "--slot-trace", "{root}/frames.csv", "--out"],
    "run --slot-trace": ["run", "fig7_udp_total", "--out", "{root}/o/run", "--slot-trace"],
    "sweep --out": ["sweep", "--base", "fig7_udp_total", "--axis", "controller",
                    "--values", "cac", "--out"],
    "oracle --out": ["oracle", "--n", "2", "--out"],
}
# Paths that the command's other writes take, or lie under or above; `run`
# lists `--slot-trace` last, so the clash is refused under that flag.
CLASHES = {
    "run --out": ["frames.csv", "frames.csv/x"],
    "run --slot-trace": ["o", "o/run", "o/run/summary.csv/x",
                         *(f"o/run/{n}" for n in OUTPUT_NAMES)],
}


@functools.cache
def _stub_result():
    return run_experiment(tiny_scenario(replications=1, duration_s=1.0))


@st.composite
def writing_flags_and_paths(draw):
    """A writing flag, a shape and a path of that shape, relative to a
    directory that holds the file `f`, the directory `d` and an earlier
    run's outputs under `prev`."""
    flag = draw(st.sampled_from(sorted(WRITING_FLAGS)))
    shape = draw(st.sampled_from(["file", "directory", "separator", "under a file",
                                  "fresh", "earlier output"]
                                 + ["clash"] * (flag in CLASHES)))
    parts = st.lists(st.sampled_from(["a", "b.csv"]), min_size=1, max_size=3)
    path = {
        "file": lambda: "f",
        "directory": lambda: "d",
        "separator": lambda: os.path.join(draw(st.sampled_from(["f", "d", "new", "d/new"])),
                                          draw(st.sampled_from(["", ".", ".."]))),
        "under a file": lambda: os.path.join("f", *draw(parts)),
        "fresh": lambda: os.path.join(draw(st.sampled_from(["new", "d"])), *draw(parts)),
        "earlier output": lambda: draw(st.sampled_from(
            ["prev", "prev/summary.csv", "prev/trace.csv/x"])),
        "clash": lambda: draw(st.sampled_from(CLASHES[flag])),
    }[shape]()
    return flag, shape, path


class TestWritePaths:
    """Every path a command writes is checked before anything runs."""

    @settings(max_examples=100, deadline=None)
    @given(writing_flags_and_paths())
    @example(("run --out", "under a file", "f/a/b"))
    @example(("oracle --out", "directory", "d"))
    @example(("run --out", "separator", "f/.."))
    @example(("run --out", "clash", "frames.csv/x"))
    @example(("run --slot-trace", "clash", "o/run/summary.csv"))
    def test_exit_0_or_2_naming_the_flag_with_nothing_written(self, drawn):
        # Exit 0, or exit 2 naming the flag with no new entry on disk; never
        # exit 3. A fresh path is written, and a clash is refused.
        flag, shape, path = drawn
        result = _stub_result()
        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(edcasim.cli, "run_experiment", lambda *a, **k: result), \
                mock.patch.object(edcasim.harness, "run_experiment",
                                  lambda *a, **k: result):
            def entries():
                return sorted(os.path.relpath(os.path.join(d, n), root)
                              for d, dirs, files in os.walk(root) for n in dirs + files)
            Path(root, "f").write_text("")
            Path(root, "d").mkdir()
            emit_outputs(result, os.path.join(root, "prev"))
            Path(root, "prev", "trace.csv").write_text("")   # `run` writes it too
            before = entries()
            argv = [a.format(root=root) for a in WRITING_FLAGS[flag]]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv + [os.path.join(root, path)])
            assert code == {"fresh": 0, "clash": 2}.get(shape, code), err.getvalue()
            assert code in (0, 2), err.getvalue()
            if code == 2:
                named = "slot-trace" if shape == "clash" else flag.split("--")[1]
                assert err.getvalue().startswith(f"configuration error: {named}:")
                assert entries() == before

    @pytest.mark.parametrize("argv,flag", [
        (["run", "fig7_udp_total", "--out", ""], "out"),
        (["run", "fig7_udp_total", "--slot-trace", ""], "slot-trace"),
        (["oracle", "--n", "2", "--out", ""], "out"),
        (["sweep", "--base", "fig7_udp_total", "--axis", "controller",
          "--values", "cac", "--out", ""], "out"),
        # The second point's directory is a file.
        (["sweep", "--base", "fig7_udp_total", "--axis", "controller",
          "--values", "dac", "cac", "--out", "taken"], "out"),
    ])
    def test_refused_before_anything_runs(self, tmp_path, monkeypatch, capsys,
                                          argv, flag):
        # An empty path, and a path a sweep point writes, exit 2 naming the
        # flag before any replication runs, with nothing written.
        def no_run(*args, **kwargs):
            raise AssertionError("ran before the paths were checked")
        monkeypatch.setattr(edcasim.cli, "run_experiment", no_run)
        monkeypatch.setattr(edcasim.harness, "run_experiment", no_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken" / "controller_cac").write_text("")
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {flag}:")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) \
            == ["taken", "taken/controller_cac"]
