import concurrent.futures
import dataclasses
import math
from pathlib import Path

import pytest

from edcasim.cli import main as cli_main
from edcasim.harness import (SUMMARY_HEADER, _build_stations, emit_outputs, jain_index,
                             run_experiment, sweep)
from edcasim.mac import FrameRecord
from edcasim.scenario import (ConfigError, Scenario, emit_scenario, get_preset,
                              load_scenario)


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
        seq = run_experiment(sc, jobs=1)
        par = run_experiment(sc, jobs=3)
        assert throughputs(seq) == throughputs(par)
        assert seq.runs[0].records == par.runs[0].records

    def test_gain_overrides_change_dynamics(self):
        # near-zero gains freeze the window at its floor
        frozen = both_engines(snr_db=(30.0,) * 8, duration_s=3.0, replications=1,
                              kp_override=1e-9, ki_override=1e-9)
        adaptive = both_engines(snr_db=(30.0,) * 8, duration_s=3.0, replications=1)
        for sc in frozen:
            res = run_experiment(sc).runs[0]
            assert all(rec.cw_quantized == 16 for rec in res.records
                       if rec.node == "ap")
        for sc in adaptive:
            res = run_experiment(sc).runs[0]
            assert any(rec.cw_quantized > 16 for rec in res.records
                       if rec.node == "ap")

    def test_defer_threshold_is_configurable(self):
        # an absurdly high sample floor defers every update
        for sc in both_engines(snr_db=(30.0,) * 4, duration_s=3.0, replications=1,
                               defer_min_samples=10**9):
            res = run_experiment(sc).runs[0]
            for rec in res.records:
                if rec.node == "ap":
                    assert rec.error is None and rec.cw_quantized == 16

    @pytest.mark.parametrize("controller", ["cac", "dac"])
    def test_first_window_starts_at_cw_floor_override(self, controller):
        # before the first beacon no controller has run: the stations' own
        # starting window must already respect the configured floor
        sc = tiny_scenario(controller=controller, cw_floor_override=256)
        assert all(s.cw_min_current == 256 for s in _build_stations(sc, sc.seed))
        assert all(s.cw_min_current == 16
                   for s in _build_stations(tiny_scenario(controller=controller),
                                            sc.seed))

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
        rows = sweep(base, "n_stations", [1, 2])
        assert rows[0][1].scenario.snr_db == (20.0,)
        assert rows[1][1].scenario.snr_db == (20.0, 30.0)

    def test_station_axis_descending(self):
        base = tiny_scenario(snr_db=(40.0, 30.0, 20.0), replications=1,
                             station_add_order="descending")
        rows = sweep(base, "n_stations", [2])
        assert rows[0][1].scenario.snr_db == (40.0, 30.0)

    def test_controller_axis(self):
        rows = sweep(tiny_scenario(replications=1), "controller",
                     ["edca-static", "cac"])
        assert [r[1].scenario.controller for r in rows] == ["edca-static", "cac"]

    def test_lambda_axis_sets_onoff(self):
        rows = sweep(tiny_scenario(replications=1, duration_s=2.0), "lambda", [1.0])
        sc = rows[0][1].scenario
        assert sc.traffic == "onoff" and sc.silent_mean_s == 1.0

    def test_bad_axis_and_empty_values(self):
        with pytest.raises(ConfigError):
            sweep(tiny_scenario(), "payload", [1])
        with pytest.raises(ConfigError):
            sweep(tiny_scenario(), "controller", [])

    def test_values_are_parsed_by_their_axis(self):
        rows = sweep(tiny_scenario(replications=1), "capture_threshold", [10])
        assert rows[0][0] == 10.0 and isinstance(rows[0][0], float)
        assert rows[0][1].scenario.name == "tiny/thr10.0"
        with pytest.raises(ConfigError, match="'abc'") as err:
            sweep(tiny_scenario(), "n_stations", ["abc"])
        assert err.value.field == "values"

    def test_bad_point_fails_before_any_runs(self, monkeypatch):
        import edcasim.harness
        monkeypatch.setattr(edcasim.harness, "run_experiment",
                            lambda *a, **k: pytest.fail("a point ran"))
        with pytest.raises(ConfigError, match="capture_threshold_db"):
            sweep(tiny_scenario(), "capture_threshold", [10, -1])

    @pytest.mark.parametrize("hidden", [dict(hidden_pairs=((2, 3),)),
                                        dict(hidden_from_ap=(1,)),
                                        dict(hidden_links=((1, 3),))],
                             ids=lambda kw: next(iter(kw)))
    def test_station_axis_refuses_hidden_stations(self, monkeypatch, hidden):
        # re-sorting the links would hand the hidden station numbers to
        # other stations, so no point runs
        import edcasim.harness
        monkeypatch.setattr(edcasim.harness, "run_experiment",
                            lambda *a, **k: pytest.fail("a point ran"))
        base = tiny_scenario(allow_asymmetric=True, **hidden)
        with pytest.raises(ConfigError) as err:
            sweep(base, "n_stations", [3])
        assert err.value.field == next(iter(hidden))


class TestOutputs:
    def test_files_schema_and_row_counts(self, tmp_path):
        sc = tiny_scenario()
        res = run_experiment(sc)
        paths = emit_outputs(res, str(tmp_path))
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
            ran_with = {s.id: s.snr_db for s in _build_stations(sc, int(seed))}
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
        a = emit_outputs(run_experiment(sc), str(tmp_path / "x"))
        b = emit_outputs(run_experiment(sc), str(tmp_path / "y"))
        for name in ("summary.csv", "trace.csv", "scenario.lock"):
            assert Path(a[name]).read_bytes() == Path(b[name]).read_bytes()


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
    ], ids=["controller", "defer_min_samples_0", "defer_min_samples_negative",
            "name_comma", "cw_ceiling_override", "cw_floor_and_ceiling_above_phy",
            "static_cw_with_beb", "kp_override_inf", "sweep_controller",
            "sweep_n_stations_hidden", "controller_twice", "snr_db_twice",
            "stations_twice"])
    def test_config_error_exit_code(self, tmp_path, capsys, config, argv, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"snr_db = 30, 30\n{config}\n")
        argv = [a.format(cfg=cfg) for a in argv] + ["--out", str(tmp_path / "o")]
        assert cli_main(argv) == 2
        assert f"configuration error: {field}:" in capsys.readouterr().err

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

    def test_sweep_cli(self, tmp_path):
        code = cli_main(["sweep", "--base", "fig10_hidden", "--axis",
                         "controller", "--values", "edca-static",
                         "--replications", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()
