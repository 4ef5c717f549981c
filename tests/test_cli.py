import gc
import hashlib
import json
import os
import warnings

import numpy as np
import pytest
from conftest import break_sparse_update

from stsad.cli import _load_graphs, main
from stsad.config import ConfigError, config_for_stage, parse_config
from stsad.ingest import events_from_csv, ingest_trips, read_zone_list


def write_config(path, **kv):
    lines = ["# test configuration"]
    lines += [f"{key} = {value}" for key, value in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def base_config(tmp_path, **extra):
    out = tmp_path / "out"
    kv = dict(
        output_dir=out,
        dims="8 4 6 3",
        seed=7,
        synth_c=2.5,
        synth_l=3,
        synth_m=8.0,
        synth_p=0.0,
        solver="logss",
        knn_k=5,
        max_iter=60,
        tol="1e-4",
        beta1=0.2,
        beta2=0.2,
        beta3=0.2,
        beta4=0.2,
    )
    kv.update(extra)
    return write_config(tmp_path / "pipeline.cfg", **kv), out


def test_config_rejects_unknown_and_duplicate_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("output_dir = /tmp/x\nwibble = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg)
    cfg.write_text("output_dir = a\noutput_dir = b\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(cfg)
    cfg.write_text("output_dir\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(cfg)
    cfg.write_text("max_iter = soon\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(cfg)


def test_config_requires_stage_keys(tmp_path):
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text("output_dir = /tmp/x\n")
    with pytest.raises(ConfigError, match="requires keys"):
        config_for_stage(cfg, "synth")
    cfg.write_text("dims = 2 2 4 2\nsynth_c = 1\nsynth_l = 2\nsynth_m = 1\n")
    with pytest.raises(ConfigError, match="output_dir"):
        config_for_stage(cfg, "synth")


def test_config_validates_values(tmp_path):
    cfg = tmp_path / "vals.cfg"
    cfg.write_text("output_dir = x\nsolver = magic\n")
    with pytest.raises(ConfigError, match="solver"):
        config_for_stage(cfg, "decompose")
    cfg.write_text("output_dir = x\nbeta2 = 0\n")
    with pytest.raises(ConfigError, match="beta2"):
        config_for_stage(cfg, "decompose")
    cfg.write_text("output_dir = x\ndims = 3 3\n")
    with pytest.raises(ConfigError, match="dims"):
        config_for_stage(cfg, "synth") if False else config_for_stage(cfg, "graphs")


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["synth", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def trips_csv(tmp_path, rows, name="trips.csv"):
    path = tmp_path / name
    lines = ["timestamp,zone"] + [f"{ts},{zone}" for ts, zone in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def zone_file(tmp_path, zones=("4", "7", "12")):
    path = tmp_path / "zones.txt"
    path.write_text("\n".join(zones) + "\n")
    return str(path)


def test_ingest_single_and_duplicate_records(tmp_path):
    zones = read_zone_list(zone_file(tmp_path))
    # 2018-03-06 is a Tuesday in ISO week 10
    path = trips_csv(tmp_path, [("2018-03-06 14:05:00", "12")])
    Y, observed, summary = ingest_trips([path], zones, 2018)
    assert Y.shape == (24, 7, 52, 3)
    assert Y.sum() == 1
    assert Y[14, 1, 9, 2] == 1
    assert observed.all()
    assert summary["counted"] == 1

    path = trips_csv(
        tmp_path,
        [("2018-03-06 14:05:00", "12"), ("2018-03-06 14:59:59", "12")],
    )
    Y, _, _ = ingest_trips([path], zones, 2018)
    assert Y[14, 1, 9, 2] == 2


def test_ingest_matches_groupby_oracle(tmp_path):
    rng = np.random.default_rng(0)
    zones = ["4", "7", "12"]
    rows, oracle = [], {}
    for _ in range(1000):
        day = int(rng.integers(8, 22))  # stay inside January ISO weeks 2-4
        hour = int(rng.integers(0, 24))
        minute = int(rng.integers(0, 60))
        zone = str(rng.choice(["4", "7", "12", "99"]))
        ts = f"2018-01-{day:02d} {hour:02d}:{minute:02d}:00"
        rows.append((ts, zone))
        if zone in zones:
            from datetime import datetime

            dt = datetime.fromisoformat(ts)
            key = (dt.hour, dt.weekday(), dt.isocalendar().week - 1, zones.index(zone))
            oracle[key] = oracle.get(key, 0) + 1
    path = trips_csv(tmp_path, rows)
    Y, _, summary = ingest_trips([path], zones, 2018)
    assert summary["counted"] == sum(oracle.values())
    assert summary["dropped_zone"] == 1000 - sum(oracle.values())
    for key, count in oracle.items():
        assert Y[key] == count
    assert Y.sum() == sum(oracle.values())


def test_ingest_errors_name_file_and_line(tmp_path):
    zones = read_zone_list(zone_file(tmp_path))
    path = trips_csv(tmp_path, [("2018-03-06 14:05:00", "12"), ("yesterday", "12")])
    with pytest.raises(ValueError, match=r"trips\.csv:3"):
        ingest_trips([path], zones, 2018)
    bad_header = tmp_path / "nohdr.csv"
    bad_header.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="missing column"):
        ingest_trips([str(bad_header)], zones, 2018)
    outside = trips_csv(tmp_path, [("2019-03-06 14:05:00", "12")], name="y.csv")
    with pytest.raises(ValueError, match="no records"):
        ingest_trips([outside], zones, 2018)


def test_ingest_drops_week_53(tmp_path):
    zones = ["4"]
    # 2020-12-31 falls in ISO week 53 of 2020
    path = trips_csv(
        tmp_path, [("2020-12-31 10:00:00", "4"), ("2020-06-01 10:00:00", "4")]
    )
    Y, _, summary = ingest_trips([path], zones, 2020)
    assert summary["counted"] == 1
    assert summary["dropped_week"] == 1


def test_events_from_csv(tmp_path):
    zones = ["4", "7"]
    path = tmp_path / "events.csv"
    path.write_text(
        "zone,start_datetime,end_datetime\n"
        "7,2018-03-06 14:00:00,2018-03-06 16:00:00\n"
    )
    events = events_from_csv(str(path), zones, 2018)
    assert len(events.events) == 1
    _, indices = events.events[0]
    assert indices == {(14, 1, 9, 1), (15, 1, 9, 1), (16, 1, 9, 1)}
    path.write_text(
        "zone,start_datetime,end_datetime\n"
        "7,2018-03-06 16:00:00,2018-03-06 14:00:00\n"
    )
    with pytest.raises(ValueError, match="ends before"):
        events_from_csv(str(path), zones, 2018)


def test_evaluate_rejects_event_mixing_offsets(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text(
        "zone,start_datetime,end_datetime\n"
        "A,2020-03-02T10:00+00:00,2020-03-02T12:00\n"
    )
    zones = zone_file(tmp_path, zones=("A", "B", "C"))
    cfg_path, _ = base_config(tmp_path, solver="raw-ee", events_csv=events,
                              zone_file=zones, year=2020)
    for stage in ("synth", "decompose", "score"):
        assert run_stage(stage, cfg_path) == 0, stage
    assert run_stage("evaluate", cfg_path) == 1
    assert f"{events}:2: start and end must both have a UTC offset" in capsys.readouterr().err


def run_stage(stage, cfg_path, **kw):
    args = [stage, "--config", cfg_path]
    for key, value in kw.items():
        args += [f"--{key}", str(value)]
    return main(args)


def test_pipeline_end_to_end(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path)
    for stage in ("synth", "graphs", "decompose", "score", "evaluate"):
        assert run_stage(stage, cfg_path) == 0, stage
    auc = json.load(open(out / "auc.json"))
    assert auc["method"] == "logss"
    assert 0.0 <= auc["auc"] <= 1.0
    assert (out / "roc.csv").exists()
    assert (out / "stationarity.json").exists()
    diag = [json.loads(line) for line in open(out / "diagnostics.jsonl")]
    assert diag and diag[0]["iter"] == 1


def test_evaluate_without_scores_names_missing_file(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path)
    assert run_stage("synth", cfg_path) == 0
    assert run_stage("evaluate", cfg_path) == 1
    err = capsys.readouterr().err
    assert "scores.csv" in err


def test_decompose_rerun_is_byte_identical(tmp_path):
    cfg_path, out = base_config(tmp_path)
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0
    assert run_stage("decompose", cfg_path) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("L.txt", "S.txt", "diagnostics.jsonl")
    }
    assert run_stage("decompose", cfg_path) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_decompose_all_solvers_produce_artifacts(tmp_path):
    cfg_path, out = base_config(tmp_path, max_iter=10)
    assert run_stage("synth", cfg_path) == 0
    assert run_stage("graphs", cfg_path) == 0
    for solver in ("logss", "loss", "horpca", "raw-ee"):
        cfg_path2, _ = base_config(tmp_path, max_iter=10, solver=solver)
        assert run_stage("decompose", cfg_path2) == 0, solver
        assert (out / "S.txt").exists()
        meta = json.load(open(out / "decompose.json"))
        assert meta["solver"] == solver
    # raw-ee passthrough: S equals Y
    from stsad.tensor import load_tensor

    assert np.array_equal(load_tensor(out / "S.txt"), load_tensor(out / "Y.txt"))


def test_score_writes_fit_stats_when_asked(tmp_path):
    cfg_path, out = base_config(tmp_path, max_iter=5, write_fit_stats="true")
    for stage in ("synth", "graphs", "decompose", "score"):
        assert run_stage(stage, cfg_path) == 0
    lines = (out / "fit_stats.csv").read_text().splitlines()
    assert lines[0] == "i1,i2,i4,loc,scale"
    assert len(lines) == 1 + 8 * 4 * 3  # one row per mode-3 fiber


def test_runtime_errors_exit_2(tmp_path, capsys, monkeypatch):
    cfg_path, _ = base_config(tmp_path)
    assert run_stage("synth", cfg_path) == 0

    import stsad.cli as cli_module

    def boom(cfg, **kw):
        raise RuntimeError("numerical blowup")

    monkeypatch.setitem(cli_module._RUNNERS, "decompose", boom)
    assert run_stage("decompose", cfg_path) == 2
    assert "numerical blowup" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_numerical_failure_inside_solver_exits_2(tmp_path, capsys, monkeypatch):
    cfg_path, _ = base_config(tmp_path, max_iter=10, tol=0)
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0
    break_sparse_update(monkeypatch, 3)
    assert run_stage("decompose", cfg_path) == 2
    assert "at iteration 3" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path, capsys):
    cfg_path, _ = base_config(tmp_path)
    assert main(["synth"]) == 1
    assert main(["synth", "--config", cfg_path, "--threads", "2"]) == 1
    assert main(["synth", "--config", cfg_path, "--seed", "x"]) == 1
    assert main(["resolve", "--config", cfg_path]) == 1
    capsys.readouterr()
    assert main(["decompose", "-h"]) == 0
    assert "--threads" not in capsys.readouterr().out


def test_decompose_json_reports_solver_convergence(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path, solver="raw-ee")
    assert run_stage("synth", cfg_path) == 0
    assert run_stage("decompose", cfg_path) == 0
    assert json.loads((out / "decompose.json").read_text())["converged"] is True
    assert "warning" not in capsys.readouterr().err
    cfg_path, _ = base_config(tmp_path, max_iter=3, tol=0)
    assert run_stage("graphs", cfg_path) == 0
    assert run_stage("decompose", cfg_path) == 0
    meta = json.loads((out / "decompose.json").read_text())
    assert meta == {"solver": "logss", "iterations": 3, "converged": False}
    err = capsys.readouterr().err
    assert "warning: decompose[logss] stopped at max_iter after 3 iterations" in err


def test_config_and_graph_loading_close_their_files(tmp_path):
    cfg_path, _ = base_config(tmp_path)
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0
    cfg = config_for_stage(cfg_path, "decompose")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        parse_config(cfg_path)
        _load_graphs(cfg)
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_seed_flag_overrides_config(tmp_path):
    cfg_path, out = base_config(tmp_path)
    assert run_stage("synth", cfg_path, seed=1) == 0
    first = (out / "Y.txt").read_bytes()
    assert run_stage("synth", cfg_path, seed=2) == 0
    assert (out / "Y.txt").read_bytes() != first
    assert run_stage("synth", cfg_path, seed=1) == 0
    assert (out / "Y.txt").read_bytes() == first


def test_scores_csv_rejects_bad_rows(tmp_path):
    from stsad.cli import _read_scores_csv

    path = tmp_path / "scores.csv"
    path.write_text("i1,i2,i3,i4,score\n-1,0,0,0,3.5\n")
    with pytest.raises(ValueError, match="bad row"):
        _read_scores_csv(str(path), (2, 2, 2, 2))
    path.write_text("i1,i2,i3,i4,score\n0,0,0,0,3.5\n")
    with pytest.raises(ValueError, match="cover"):
        _read_scores_csv(str(path), (2, 2, 2, 2))


def test_synth_from_user_template(tmp_path):
    from stsad.synth import builtin_template
    from stsad.tensor import save_tensor

    template = builtin_template((8, 4, 6, 3)) * 2.0
    path = tmp_path / "template.txt"
    save_tensor(path, template)
    cfg_path, out = base_config(tmp_path, base_tensor=path)
    assert run_stage("synth", cfg_path) == 0
    manifest = json.load(open(out / "synth_manifest.json"))
    assert manifest["dims"] == [8, 4, 6, 3]

    wrong = builtin_template((8, 4, 6, 2))
    save_tensor(path, wrong)
    assert run_stage("synth", cfg_path) == 1  # shape mismatch vs dims


def test_bench_stage(tmp_path):
    cfg_path, out = base_config(
        tmp_path, max_iter=5, bench_solvers="raw-ee horpca", bench_repeats=2
    )
    assert run_stage("synth", cfg_path) == 0
    assert run_stage("bench", cfg_path) == 0
    rows = json.load(open(out / "bench.json"))
    assert [r["method"] for r in rows] == ["raw-ee", "horpca"]
    for row in rows:
        assert row["failures"] == 0
        assert row["errors"] == []
        assert row["time_mean_s"] >= 0.0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_bench_reports_why_a_repeat_failed(tmp_path, capsys, monkeypatch):
    cfg_path, out = base_config(
        tmp_path, max_iter=5, tol=0, bench_solvers="horpca", bench_repeats=2
    )
    assert run_stage("synth", cfg_path) == 0
    break_sparse_update(monkeypatch, 3)
    assert run_stage("bench", cfg_path) == 0
    [row] = json.load(open(out / "bench.json"))
    assert row["failures"] == 1
    assert len(row["errors"]) == 1
    assert row["errors"][0].startswith("NumericalError: non-finite")
    assert row["errors"][0].endswith("at iteration 3")
    err = capsys.readouterr().err
    assert "warning: horpca failed 1 repeat(s): NumericalError" in err
