import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import break_sparse_update, reference_bad_line

from stsad import cli, tensor
from stsad.cli import _load_graphs, _read_scores_csv, _write_scores_csv, main
from stsad.config import (
    _SCHEMA, ARGUMENTS, STAGES, ConfigError, config_for_stage, library_args, parse_config,
)
from stsad.ingest import events_from_csv, ingest_trips, read_zone_list
from stsad.logss import LogssParams
from stsad.tensor import save_mask, save_tensor


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
    cfg.write_text("output_dir = x\nbench_solvers =\n")
    with pytest.raises(ConfigError, match="bench_solvers names no solver"):
        config_for_stage(cfg, "bench")


@pytest.mark.parametrize(
    "key, value",
    [
        ("theta", -1), ("theta", "inf"), ("lambda", -0.5), ("lambda", "nan"),
        ("gamma", -1), ("gamma", "inf"), ("beta1", "inf"), ("beta2", 0),
        ("beta3", -1), ("beta4", "nan"), ("max_iter", 0), ("tol", -1e-3),
        ("tol", "nan"),
    ],
)
def test_bad_solver_setting_exits_1_before_reading_artifacts(tmp_path, capsys, key, value):
    cfg_path, out = base_config(tmp_path, **{key: value})
    assert not out.exists()  # no Y.txt: a later check would name it
    assert run_stage("decompose", cfg_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_path}: bad value for {key!r}:"), err


@pytest.mark.parametrize(
    "k_list, message",
    [("0 150", "K percent must be in (0, 100], got 0.0"),
     ("5 150", "K percent must be in (0, 100], got 150.0"),
     ("1 nan", "K percent must be in (0, 100], got nan"),
     ("", "K list is empty"),
     ("1 1 5", "K 1.0 is listed twice")],
)
def test_bad_k_list_exits_1_before_reading_artifacts(tmp_path, capsys, k_list, message):
    cfg_path, out = base_config(tmp_path, k_list=k_list, events_csv=tmp_path / "events.csv",
                                zone_file=tmp_path / "zones.txt", year=2020)
    assert not out.exists()  # no scores.csv: a later check would name it
    assert run_stage("evaluate", cfg_path) == 1
    assert capsys.readouterr().err == (
        f"config error: {cfg_path}: bad value for 'k_list': {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    ({"k_list": "0 150"}, "bad value for 'k_list': K percent must be in (0, 100], got 0.0"),
    ({"events_csv": "events.csv", "year": 2020}, "events_csv requires keys: zone_file"),
], ids=["k_list", "events_csv"])
def test_config_rules_of_evaluate_fail_synth_too(tmp_path, capsys, extra, message):
    cfg_path, out = base_config(tmp_path, **extra)
    for stage in ("synth", "evaluate"):
        assert run_stage(stage, cfg_path) == 1, stage
        assert capsys.readouterr().err == f"config error: {cfg_path}: {message}\n", stage
    assert not out.exists()


def test_solver_settings_override_data_driven_defaults(tmp_path):
    cfg_path, _ = base_config(tmp_path, **{"lambda": 0, "tol": 0})
    overrides = library_args(config_for_stage(cfg_path, "decompose"), "solver")
    assert overrides == {
        "lam": 0.0, "beta1": 0.2, "beta2": 0.2, "beta3": 0.2, "beta4": 0.2,
        "max_iter": 60, "tol": 0.0,
    }
    Y = np.arange(24.0).reshape(2, 3, 4, 1)
    data_driven = LogssParams.defaults(Y)
    params = LogssParams.defaults(Y, **overrides)
    assert (params.lam, params.tol, params.beta3) == (0.0, 0.0, 0.2)
    assert (params.theta, params.gamma) == (data_driven.theta, data_driven.gamma)


@pytest.mark.parametrize(
    "key, value", [("noise_var", "nan"), ("noise_mean", "inf"), ("synth_c", "inf")]
)
def test_non_finite_synth_setting_exits_1(tmp_path, capsys, key, value):
    cfg_path, out = base_config(tmp_path, **{key: value})
    assert run_stage("synth", cfg_path) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (out / "Y.txt").exists()


SYNTH_OVERFLOW = "error: synth tensor not finite: c, noise_mean or noise_var too large\n"


@pytest.mark.parametrize("key", ["noise_mean", "synth_c"])
def test_non_finite_synth_result_exits_1(tmp_path, capsys, key):
    cfg_path, out = base_config(tmp_path, **{key: "1e308"})
    assert run_stage("synth", cfg_path) == 1
    assert capsys.readouterr().err == SYNTH_OVERFLOW
    assert not any(out.iterdir())


def test_synth_overflow_writes_one_stderr_line(tmp_path):
    # a process of its own: in-process, pytest would collect numpy's warnings
    import stsad

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(stsad.__file__)))
    cfg_path, _ = base_config(tmp_path, noise_mean="1e308")
    proc = subprocess.run(
        [sys.executable, "-m", "stsad.cli", "synth", "--config", cfg_path],
        env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (1, SYNTH_OVERFLOW)


@pytest.mark.parametrize("value", ["inf", "nan", "1.5", "0", "-0.25"])
def test_bad_h_fraction_exits_1(tmp_path, capsys, value):
    cfg_path, out = base_config(tmp_path, h_fraction=value)
    assert run_stage("synth", cfg_path) == 0
    (out / "S.txt").write_bytes((out / "Y.txt").read_bytes())
    assert run_stage("score", cfg_path) == 1
    assert "error: h_fraction must be in (0, 1]" in capsys.readouterr().err
    assert not (out / "scores.csv").exists()


@pytest.mark.parametrize("value", ["nan", "1.5"])
def test_bad_rank_ratio_exits_1(tmp_path, capsys, value):
    cfg_path, out = base_config(tmp_path, rank_ratio=value)
    assert run_stage("synth", cfg_path) == 0
    assert run_stage("graphs", cfg_path) == 1
    assert "rank ratio must be in [0, 1)" in capsys.readouterr().err
    assert not (out / "graphs.json").exists()


@pytest.mark.parametrize("setting, message", [
    ({"knn_k": 0}, "k must be an integer of at least 1, got 0"),
    ({"dims": "8 4 1 3"}, "mode 3 has length 1; a k-NN graph needs at least 2 rows"),
], ids=["knn_k", "mode_of_length_1"])
def test_bad_knn_k_or_a_mode_of_length_1_exits_1(tmp_path, capsys, setting, message):
    cfg_path, out = base_config(tmp_path, **setting)
    assert run_stage("synth", cfg_path) == 0
    capsys.readouterr()
    assert run_stage("graphs", cfg_path) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "graphs.json").exists()


def test_directory_as_input_file_exits_1(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path, base_tensor=tmp_path)
    assert run_stage("synth", cfg_path) == 1
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err

    cfg_path, out = base_config(tmp_path)
    assert run_stage("synth", cfg_path) == 0
    (out / "S.txt").mkdir()
    assert run_stage("score", cfg_path) == 1
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err


def test_uncreatable_output_dir_exits_1(tmp_path, capsys):
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    cfg_path, _ = base_config(tmp_path, output_dir=blocker / "out")
    assert run_stage("synth", cfg_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output_dir:"), err
    assert "Not a directory" in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["synth", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_circular_diff_is_an_unknown_key(tmp_path, capsys):
    # the TV term has one operator, the circular one, and no key to pick another
    cfg_path, out = base_config(tmp_path, circular_diff="false")
    lineno = len((tmp_path / "pipeline.cfg").read_text().splitlines())  # the last line
    assert run_stage("decompose", cfg_path) == 1
    assert capsys.readouterr().err == (
        f"config error: {cfg_path}:{lineno}: unknown key 'circular_diff'\n")
    assert not out.exists()


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


@pytest.mark.parametrize("stage", ["ingest", "evaluate"])
def test_a_record_the_csv_module_rejects_exits_1_naming_its_line(tmp_path, capsys, stage):
    # a zone field over the csv module's 131,072-character limit, in the trips
    # that ingest counts or in the events that evaluate detects
    zones = zone_file(tmp_path)
    huge = "1" * 140_000
    if stage == "ingest":
        path = trips_csv(tmp_path, [("2018-03-06 14:05:00", "12"), ("2018-03-06 15:05:00", huge)])
        cfg_path = write_config(tmp_path / "ingest.cfg", output_dir=tmp_path / "out",
                                trips_csv=path, zone_file=zones, year=2018)
    else:
        path = tmp_path / "events.csv"
        path.write_text("zone,start_datetime,end_datetime\n"
                        "4,2018-03-06 14:00:00,2018-03-06 16:00:00\n"
                        f"{huge},2018-03-06 14:00:00,2018-03-06 16:00:00\n")
        cfg_path, _ = base_config(tmp_path, solver="raw-ee", events_csv=path, zone_file=zones,
                                  year=2018, dims="24 7 4 3")
        for upstream in ("synth", "decompose", "score"):
            assert run_stage(upstream, cfg_path) == 0, upstream
        capsys.readouterr()
    assert run_stage(stage, cfg_path) == 1
    assert capsys.readouterr().err == f"error: {path}:3: field larger than field limit (131072)\n"


@pytest.mark.parametrize("stage", ["ingest", "evaluate"])
def test_blank_lines_before_a_rejected_record_count_toward_its_line(tmp_path, capsys, stage):
    # header, one good record, two blank lines, then an over-long zone field
    # on line 5
    zones, huge = zone_file(tmp_path), "1" * 140_000
    path = tmp_path / "blank.csv"
    if stage == "ingest":
        path.write_text(f"timestamp,zone\n2018-03-06 14:05:00,12\n\n\n2018-03-06 15:05:00,{huge}\n")
        cfg_path = write_config(tmp_path / "ingest.cfg", output_dir=tmp_path / "out",
                                trips_csv=path, zone_file=zones, year=2018)
    else:
        times = "2018-03-06 14:00:00,2018-03-06 16:00:00"
        path.write_text(f"zone,start_datetime,end_datetime\n4,{times}\n\n\n{huge},{times}\n")
        cfg_path, _ = base_config(tmp_path, solver="raw-ee", events_csv=path, zone_file=zones,
                                  year=2018, dims="24 7 4 3")
        for upstream in ("synth", "decompose", "score"):
            assert run_stage(upstream, cfg_path) == 0, upstream
        capsys.readouterr()
    assert run_stage(stage, cfg_path) == 1
    assert capsys.readouterr().err == f"error: {path}:5: field larger than field limit (131072)\n"


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
    assert len(events) == 1
    _, indices = events[0]
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


@pytest.mark.parametrize(
    "k_list, zone, message",
    [("0 150", "A", "K percent must be in (0, 100], got 0.0"),
     ("1 5", "Z", "events.csv:2: unknown zone 'Z'"),
     ("", "A", "K list is empty")],
)
def test_evaluate_that_exits_1_writes_no_artifact(tmp_path, capsys, k_list, zone, message):
    events = tmp_path / "events.csv"
    events.write_text(
        f"zone,start_datetime,end_datetime\n{zone},2020-01-06 10:00,2020-01-06 12:00\n"
    )
    zones = zone_file(tmp_path, zones=("A", "B", "C"))
    config = dict(dims="24 7 4 3", solver="raw-ee", events_csv=events, zone_file=zones,
                  year=2020)
    # a bad K list fails every stage: the upstream ones run from a good one
    cfg_path, out = base_config(tmp_path, k_list="1 5", **config)
    for stage in ("synth", "decompose", "score"):
        assert run_stage(stage, cfg_path) == 0, stage
    cfg_path, _ = base_config(tmp_path, k_list=k_list, **config)
    assert run_stage("evaluate", cfg_path) == 1
    err = capsys.readouterr().err
    # a K list out of range is a config error, found before any artifact is read
    prefix = "error: " if zone == "Z" else f"config error: {cfg_path}: bad value for 'k_list': "
    assert err.startswith(prefix) and message in err, err
    assert not {"auc.json", "roc.csv", "detection.json"} & set(os.listdir(out))


def test_graphs_that_exits_1_writes_no_artifact(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path)
    out.mkdir()
    save_tensor(str(out / "Y.txt"), np.ones((6, 4, 5, 3)))
    assert run_stage("graphs", cfg_path) == 1
    assert "zero covariance" in capsys.readouterr().err
    assert os.listdir(out) == ["Y.txt"]


@pytest.mark.parametrize("dims", [(8, 4, 6), (6, 3, 6, 2, 2)], ids=["order3", "order5"])
def test_tensors_of_other_orders_run_every_stage_from_graphs_on(tmp_path, dims):
    from stsad.evaluation import labeled_scores, roc_auc
    from stsad.scoring import score_sparse_tensor

    cfg_path, out = base_config(tmp_path, max_iter=5, write_fit_stats="true",
                                bench_solvers="logss loss raw-ee", bench_repeats=2)
    out.mkdir()
    rng = np.random.default_rng(len(dims))
    labels = rng.random(dims) < 0.1
    observed = rng.random(dims) < 0.9
    save_tensor(out / "Y.txt", rng.normal(size=dims) + 6.0 * labels)
    save_mask(out / "omega.txt", observed)
    save_mask(out / "labels.txt", labels)
    for stage in ("graphs", "decompose", "score", "evaluate", "bench"):
        assert run_stage(stage, cfg_path) == 0, stage

    order = len(dims)
    with open(out / "scores.csv", newline="") as fh:
        assert fh.readline() == ",".join(f"i{n}" for n in range(1, order + 1)) + ",score\r\n"
    with open(out / "fit_stats.csv", newline="") as fh:
        modes = [n for n in range(1, order + 1) if n != 3]
        assert fh.readline() == ",".join(f"i{n}" for n in modes) + ",loc,scale\r\n"
    scores = score_sparse_tensor(tensor.load_tensor(out / "S.txt")).scores
    auc = json.loads((out / "auc.json").read_text())["auc"]
    assert auc == roc_auc(labeled_scores(scores, labels, observed))
    rows = json.loads((out / "bench.json").read_text())
    assert [(row["method"], row["failures"]) for row in rows] == [
        ("logss", 0), ("loss", 0), ("raw-ee", 0)]


def run_stage(stage, cfg_path, **kw):
    args = [stage, "--config", cfg_path]
    for key, value in kw.items():
        args += [f"--{key}", str(value)]
    return main(args)


def test_pipeline_end_to_end(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path)
    for stage in ("synth", "graphs", "decompose", "score", "evaluate"):
        assert run_stage(stage, cfg_path) == 0, stage
    auc = json.loads((out / "auc.json").read_text())
    assert auc["method"] == "logss"
    assert 0.0 <= auc["auc"] <= 1.0
    assert (out / "roc.csv").exists()
    assert (out / "stationarity.json").exists()
    diag = [json.loads(line) for line in (out / "diagnostics.jsonl").read_text().splitlines()]
    assert diag and diag[0]["iter"] == 1


def test_evaluate_without_scores_names_missing_file(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path)
    assert run_stage("synth", cfg_path) == 0
    assert run_stage("evaluate", cfg_path) == 1
    err = capsys.readouterr().err
    assert "scores.csv" in err


@pytest.mark.parametrize("stage, name", [
    ("graphs", "Y.txt"), ("decompose", "omega.txt"), ("decompose", "graphs.json"),
    ("decompose", "mode3_eigvecs.txt"), ("score", "S.txt"), ("evaluate", "labels.txt"),
    ("bench", "labels.txt"),
])
def test_every_stage_names_a_missing_input(tmp_path, capsys, stage, name):
    cfg_path, out = base_config(tmp_path, max_iter=3, bench_repeats=2)
    for upstream in ("synth", "graphs", "decompose", "score"):
        assert run_stage(upstream, cfg_path) == 0, upstream
    (out / name).unlink()
    before = set(os.listdir(out))
    capsys.readouterr()
    assert run_stage(stage, cfg_path) == 1
    assert capsys.readouterr().err == f"error: missing upstream artifact: {out / name}\n"
    assert set(os.listdir(out)) == before


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
        meta = json.loads((out / "decompose.json").read_text())
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


def test_non_utf8_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"output_dir = caf\xe9\n")
    assert run_stage("graphs", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {cfg}:"), err


def test_output_dir_with_nul_byte_exits_1(tmp_path, capsys):
    cfg_path, _ = base_config(tmp_path, output_dir=f"{tmp_path}/o\x00ut")
    assert run_stage("synth", cfg_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output_dir:"), err


def test_keys_naming_a_library_argument_have_no_config_default():
    keys = [key for table in ARGUMENTS.values() for key in table]
    assert len(keys) == len(set(keys))  # each key feeds one call
    assert all(_SCHEMA[key][1] is None for key in keys)


def test_only_set_keys_reach_library_calls_under_their_argument_names(
    tmp_path, monkeypatch, capsys
):
    calls = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = kwargs
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_mode_graphs", spy("graphs", cli.build_mode_graphs))
    monkeypatch.setattr(cli, "score_sparse_tensor", spy("score", cli.score_sparse_tensor))
    monkeypatch.setattr(
        LogssParams, "defaults", staticmethod(spy("solver", LogssParams.defaults))
    )
    synth = dict(output_dir=tmp_path / "out", dims="8 4 6 3", synth_c=2.5, synth_l=3, synth_m=8)
    unset = write_config(tmp_path / "unset.cfg", **synth)
    for stage in ("synth", "graphs", "decompose", "score"):
        assert run_stage(stage, unset) == 0
    assert calls["graphs"] == {} and calls["score"] == {}
    assert not {"max_iter", "tol"} & set(calls["solver"])

    given = write_config(tmp_path / "set.cfg", **synth, knn_k=3, rank_ratio=0.8,
                         h_fraction=0.6, max_iter=5, tol=1e-3)
    for stage in ("graphs", "decompose", "score"):
        assert run_stage(stage, given) == 0
    assert calls["graphs"] == {"k": 3, "ratio": 0.8}
    assert calls["score"] == {"h_fraction": 0.6}
    assert (calls["solver"]["max_iter"], calls["solver"]["tol"]) == (5, 1e-3)

    # with tol unset, the max_iter warning names the library's tol
    capsys.readouterr()
    unset_tol = write_config(tmp_path / "tol.cfg", **synth, max_iter=2)
    assert run_stage("decompose", unset_tol) == 0
    assert f"without reaching tol = {LogssParams.tol:g}" in capsys.readouterr().err


@pytest.mark.parametrize("chunk", [5, 4096])
def test_scores_csv_bad_line_is_the_one_prefix_bisection_named(tmp_path, monkeypatch, chunk):
    # a repeated index (a check failure) and an unparsable line, in either
    # order and on either side of a chunk edge: the earlier one is named
    monkeypatch.setattr(tensor, "_CHUNK", chunk)
    dims = (3, 2, 4, 1)

    def index_ok(table):  # as _read_scores_csv checks its table
        index = table[:, :4]
        if not ((index == np.floor(index)) & (index >= 0) & (index < dims)).all():
            return False
        flat = np.ravel_multi_index(tuple(index.astype(np.intp).T), dims)
        return np.bincount(flat).max() == 1

    rows = [f"{i},{j},{k},0,{0.5 * n}\r\n" for n, (i, j, k) in enumerate(np.ndindex(dims[:3]))]
    path = tmp_path / "scores.csv"
    for repeat_at, bad_at in [(9, 20), (4, 5), (20, 9), (5, 4), (23, 0), (1, 23)]:
        lines = list(rows)
        lines[repeat_at] = rows[repeat_at - 1]
        lines[bad_at] = "0,0,x,0,1\r\n"
        path.write_text("i1,i2,i3,i4,score\r\n" + "".join(lines), newline="")
        line = reference_bad_line(path, 5, ",", index_ok, newline="")
        assert line == min(repeat_at, bad_at) + 2
        with pytest.raises(ValueError, match=f"scores.csv:{line}: bad row$"):
            _read_scores_csv(str(path), dims)


@pytest.mark.parametrize("stage", [s for s in STAGES if s != "synth"])
def test_only_synth_takes_a_seed_flag(tmp_path, capsys, stage):
    cfg_path, out = base_config(tmp_path)
    assert run_stage(stage, cfg_path, seed=1) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spelling", ["file", "flag"])
def test_negative_seed_exits_1_and_writes_nothing(tmp_path, capsys, spelling):
    if spelling == "file":
        cfg_path, out = base_config(tmp_path, seed=-3)
        assert run_stage("synth", cfg_path) == 1
    else:
        cfg_path, out = base_config(tmp_path)
        assert run_stage("synth", cfg_path, seed=-3) == 1
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -3\n"
    assert not any(out.iterdir())


def test_seed_flag_overrides_config(tmp_path):
    cfg_path, out = base_config(tmp_path)
    assert run_stage("synth", cfg_path, seed=1) == 0
    first = (out / "Y.txt").read_bytes()
    assert run_stage("synth", cfg_path, seed=2) == 0
    assert (out / "Y.txt").read_bytes() != first
    assert run_stage("synth", cfg_path, seed=1) == 0
    assert (out / "Y.txt").read_bytes() == first


def test_scores_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("i1,i2,i3,i4,score\n-1,0,0,0,3.5\n")
    with pytest.raises(ValueError, match="bad row"):
        _read_scores_csv(str(path), (2, 2, 2, 2))
    path.write_text("i1,i2,i3,i4,score\n0,0,0,0,3.5\n")
    with pytest.raises(ValueError, match="cover"):
        _read_scores_csv(str(path), (2, 2, 2, 2))

    good = "0,0,0,0,0.5\n1,0,0,0,1.5\n2,0,0,0,2.5\n"
    for bad in [
        "0,0,0,x,1.0",    # non-numeric field
        "0.5,0,0,0,1.0",  # non-integer index
        "0,0,0,0,1.0,7",  # six fields
        "0,0,0,0",        # four fields
        "0,0,3,0,1.0",    # index out of range
        "0,0,0,0,",       # empty score
        "0,0,1,0,nan",    # non-finite score
        "0,0,1,0,inf",
        "0,0,1,0,-inf",
        "0,0,0,0,1.0",    # repeats the element of line 2
    ]:
        first, rest = good.split("\n", 1)
        path.write_text(f"i1,i2,i3,i4,score\n{first}\n{bad}\n{rest}")
        with pytest.raises(ValueError, match="scores.csv:3: bad row$"):
            _read_scores_csv(str(path), (3, 1, 3, 1))
    # csv numbering: blank lines count, \r\n is one line end, a bad first row
    # is line 2
    path.write_bytes(b"i1,i2,i3,i4,score\r\n0,0,0,0,1\r\n\r\n0,0,0,0,1,2\r\n")
    with pytest.raises(ValueError, match="scores.csv:4: bad row$"):
        _read_scores_csv(str(path), (3, 1, 3, 1))
    # a repeat is reported where it repeats, not where the element first is
    path.write_text("i1,i2,i3,i4,score\n0,0,0,0,1.5\n0,0,1,0,2.5\n0,0,0,0,9.5\n")
    with pytest.raises(ValueError, match="scores.csv:4: bad row$"):
        _read_scores_csv(str(path), (1, 1, 2, 1))
    path.write_text("i1,i2,i3,i4,score\n9,0,0,0,1\n" + good)
    with pytest.raises(ValueError, match="scores.csv:2: bad row$"):
        _read_scores_csv(str(path), (3, 1, 3, 1))
    path.write_text("i1,i2,i4,i3,score\n" + good)
    with pytest.raises(ValueError, match="scores.csv:1: header"):
        _read_scores_csv(str(path), (3, 1, 3, 1))
    path.write_text("i1,i2,i3,i4,score\n")
    with pytest.raises(ValueError, match="cover"):
        _read_scores_csv(str(path), (3, 1, 3, 1))


def csv_writer_bytes(header, rows):
    """What csv.writer writes for ``header`` and ``rows``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def test_scores_csv_matches_csv_writer_and_round_trips(tmp_path):
    golden = np.array([-0.0, 5e-324, 1e300, 0.1, 3.0, -42.0, 1.0 / 3.0, 7.0]).reshape(2, 1, 2, 2)
    # two modes of 10 or more entries: indices of two digits
    wide = np.random.default_rng(5).normal(size=(12, 1, 2, 11))
    path = tmp_path / "scores.csv"
    for scores in (golden, wide):
        _write_scores_csv(str(path), scores)
        expected = csv_writer_bytes(
            ["i1", "i2", "i3", "i4", "score"],
            ([*idx, f"{scores[idx]:.17g}"] for idx in np.ndindex(scores.shape)),
        )
        assert path.read_bytes() == expected
        assert _read_scores_csv(str(path), scores.shape).tobytes() == scores.tobytes()


def test_score_and_evaluate_csv_files_match_csv_writer(tmp_path):
    from stsad.evaluation import labeled_scores, roc_points
    from stsad.scoring import score_sparse_tensor
    from stsad.tensor import save_mask, save_tensor

    cfg_path, out = base_config(tmp_path, write_fit_stats="true")
    out.mkdir()
    rng = np.random.default_rng(4)
    S = np.round(rng.normal(size=(3, 2, 6, 2)), 1)  # rounding gives ties
    labels, observed = rng.random(S.shape) < 0.2, rng.random(S.shape) < 0.9
    save_tensor(out / "S.txt", S)
    save_mask(out / "labels.txt", labels)
    save_mask(out / "omega.txt", observed)
    assert run_stage("score", cfg_path) == 0
    assert run_stage("evaluate", cfg_path) == 0

    field = score_sparse_tensor(S)
    assert (out / "scores.csv").read_bytes() == csv_writer_bytes(
        ["i1", "i2", "i3", "i4", "score"],
        ([*idx, f"{field.scores[idx]:.17g}"] for idx in np.ndindex(S.shape)),
    )
    assert (out / "fit_stats.csv").read_bytes() == csv_writer_bytes(
        ["i1", "i2", "i4", "loc", "scale"],
        ([*idx, f"{field.loc[idx]:.17g}", f"{field.scale[idx]:.17g}"]
         for idx in np.ndindex(field.loc.shape)),
    )
    fpr, tpr = roc_points(labeled_scores(field.scores, labels, observed))
    assert (out / "roc.csv").read_bytes() == csv_writer_bytes(
        ["fpr", "tpr"], ([f"{f:.17g}", f"{t:.17g}"] for f, t in zip(fpr, tpr))
    )


def test_importing_the_cli_loads_no_scipy():
    import stsad

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(stsad.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    code = ("import sys, stsad.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_input_files_whose_dims_disagree_exit_1(tmp_path, capsys, monkeypatch):
    from stsad.tensor import save_mask

    cfg_path, out = base_config(tmp_path, max_iter=3, bench_solvers="logss raw-ee",
                                bench_repeats=2)
    for stage in ("synth", "graphs", "decompose", "score"):
        assert run_stage(stage, cfg_path) == 0, stage
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("scores.csv read after the dims differed")

    monkeypatch.setattr(cli, "_read_scores_csv", refuse)
    omega = (out / "omega.txt").read_bytes()
    save_mask(out / "omega.txt", np.ones((8, 4, 6, 2), dtype=bool))
    expected = {
        "decompose": "error: dims differ: Y.txt (8, 4, 6, 3), omega.txt (8, 4, 6, 2)\n",
        "evaluate": "error: dims differ: omega.txt (8, 4, 6, 2), labels.txt (8, 4, 6, 3)\n",
        "bench": "error: dims differ: Y.txt (8, 4, 6, 3), omega.txt (8, 4, 6, 2), "
                 "labels.txt (8, 4, 6, 3)\n",
    }
    for stage, err in expected.items():
        assert run_stage(stage, cfg_path) == 1, stage
        assert capsys.readouterr().err == err
    raw_ee = tmp_path / "raw-ee.cfg"
    raw_ee.write_text(
        (tmp_path / "pipeline.cfg").read_text().replace("solver = logss", "solver = raw-ee")
    )
    S = (out / "S.txt").read_bytes()
    assert run_stage("decompose", str(raw_ee)) == 1
    assert capsys.readouterr().err == expected["decompose"]
    save_mask(out / "omega.txt", np.zeros((8, 4, 6, 3), dtype=bool))
    assert run_stage("decompose", str(raw_ee)) == 1
    assert capsys.readouterr().err == f"error: {out / 'omega.txt'}: no observed entries\n"
    assert (out / "S.txt").read_bytes() == S
    (out / "omega.txt").write_bytes(omega)
    save_mask(out / "labels.txt", np.ones((8, 4, 6, 2), dtype=bool))
    assert run_stage("evaluate", cfg_path) == 1
    assert capsys.readouterr().err == (
        "error: dims differ: omega.txt (8, 4, 6, 3), labels.txt (8, 4, 6, 2)\n")
    assert run_stage("bench", cfg_path) == 1
    assert "labels.txt (8, 4, 6, 2)" in capsys.readouterr().err
    assert not (out / "bench.json").exists()


@pytest.mark.parametrize("stage", ["evaluate", "bench"])
@pytest.mark.parametrize("labels, expected", [
    ("none", "0 of the 576"), ("all", "576 of the 576"), ("unobserved", "0 of the 575"),
], ids=["none", "all", "unobserved"])
def test_labels_of_one_class_exit_1_before_any_work(tmp_path, capsys, monkeypatch, stage,
                                                    labels, expected):
    # bench must not build graphs or run a solver, evaluate must not read
    # scores.csv: the AUC they end in cannot be taken
    cfg_path, out = base_config(tmp_path, max_iter=3, bench_repeats=2)
    for upstream in ("synth", "graphs", "decompose", "score"):
        assert run_stage(upstream, cfg_path) == 0, upstream
    dims = (8, 4, 6, 3)
    if labels == "unobserved":  # the one positive label is off the support
        observed = np.ones(dims, dtype=bool)
        observed[1, 2, 3, 0] = False
        save_mask(out / "omega.txt", observed)
        save_mask(out / "labels.txt", ~observed)
    else:
        save_mask(out / "labels.txt", np.full(dims, labels == "all"))

    def refuse(*args, **kwargs):
        raise AssertionError("called after the labels were read")

    for name in ("build_mode_graphs", "_decompose", "_read_scores_csv"):
        monkeypatch.setattr(cli, name, refuse)
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    capsys.readouterr()
    assert run_stage(stage, cfg_path) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'labels.txt'}: {expected} observed labels are positive; "
        "the AUC needs both classes\n"
    )
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


@pytest.mark.parametrize("stage, solver", [
    ("decompose", "logss"), ("decompose", "raw-ee"), ("evaluate", "raw-ee"),
    ("bench", "logss"),
], ids=["decompose-logss", "decompose-raw-ee", "evaluate", "bench"])
def test_an_empty_support_exits_1_before_any_work(tmp_path, capsys, monkeypatch, stage,
                                                  solver):
    # no solver runs and scores.csv is not read: the AUC over no observed
    # entries cannot be taken
    cfg_path, out = base_config(tmp_path, solver=solver, max_iter=3, bench_repeats=2)
    for upstream in ("synth", "graphs", "decompose", "score"):
        assert run_stage(upstream, cfg_path) == 0, upstream
    save_mask(out / "omega.txt", np.zeros((8, 4, 6, 3), dtype=bool))

    def refuse(*args, **kwargs):
        raise AssertionError("called after the support was read")

    for name in ("_load_graphs", "build_mode_graphs", "_decompose", "_read_scores_csv"):
        monkeypatch.setattr(cli, name, refuse)
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    capsys.readouterr()
    assert run_stage(stage, cfg_path) == 1
    assert capsys.readouterr().err == f"error: {out / 'omega.txt'}: no observed entries\n"
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


@pytest.mark.parametrize("text", [
    '[{"mode": 1}]', '{"mode": 1}', '[{"mode": true, "rank": 1}]',
    '[{"mode": 1, "rank": 2.0}]', '["mode"]', "null",
])
def test_malformed_graphs_json_exits_1(tmp_path, capsys, text):
    cfg_path, out = base_config(tmp_path)
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0, stage
    (out / "graphs.json").write_text(text)
    capsys.readouterr()
    assert run_stage("decompose", cfg_path) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'graphs.json'}: not a list of objects with integer mode and rank\n"
    )
    assert not (out / "S.txt").exists()


def test_graphs_json_rank_that_does_not_fit_exits_1(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path)
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0, stage
    meta = json.loads((out / "graphs.json").read_text())
    for rank, message in [
        # G of this rank would not fit any address space
        (10**15, f"eigenbasis (4, 4) is not (mode size, rank) (4, {10**15})"),
        (0, "rank 0 is not in [1, 4]"),  # an empty eigenbasis fits its shape check
    ]:
        meta[1]["rank"] = rank
        (out / "graphs.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert run_stage("decompose", cfg_path) == 1, rank
        assert capsys.readouterr().err == f"error: mode 2 graph: {message}\n"
        assert not (out / "S.txt").exists()


def test_graph_files_of_the_wrong_shape_exit_1(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path, dims="24 7 4 3")
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0, stage
    meta = json.loads((out / "graphs.json").read_text())
    meta[1]["rank"] = 5
    (out / "graphs.json").write_text(json.dumps(meta))
    eigvecs, eigvals = (tensor.load_tensor(str(out / f"mode2_{name}.txt"))
                        for name in ("eigvecs", "eigvals"))
    for name, bad, message in [
        ("eigvecs", eigvecs.reshape(-1), "eigenvectors (49,) are not a matrix"),
        ("eigvals", eigvals[:3], "eigenvalues (3,) are not a vector of at least rank 5"),
        ("eigvals", np.tile(eigvals, (2, 1)),
         "eigenvalues (2, 7) are not a vector of at least rank 5"),
    ]:
        path = out / f"mode2_{name}.txt"
        good = path.read_bytes()
        save_tensor(str(path), bad)
        capsys.readouterr()
        assert run_stage("decompose", cfg_path) == 1, message
        assert capsys.readouterr().err == f"error: mode 2 graph: {message}\n"
        assert not (out / "S.txt").exists()
        path.write_bytes(good)
    assert run_stage("decompose", cfg_path) == 0


def test_graph_listed_for_the_wrong_mode_exits_1(tmp_path, capsys):
    cfg_path, out = base_config(tmp_path, dims="6 6 6 6")
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0, stage
    meta = json.loads((out / "graphs.json").read_text())
    meta[0] = meta[1]  # mode 2 twice, with one rank; mode 1 not at all
    (out / "graphs.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert run_stage("decompose", cfg_path) == 1
    assert capsys.readouterr().err == "error: mode 1 graph: built for mode 2\n"
    assert not (out / "S.txt").exists()


def test_empty_support_exits_1_with_one_stderr_line(tmp_path):
    # a process of its own: in-process, pytest would collect numpy's warnings
    import stsad
    from stsad.tensor import save_mask

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(stsad.__file__)))
    cfg_path, out = base_config(tmp_path, bench_solvers="logss", bench_repeats=2)
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0, stage
    save_mask(out / "omega.txt", np.zeros((8, 4, 6, 3), dtype=bool))

    def run(stage):
        return subprocess.run(
            [sys.executable, "-m", "stsad.cli", stage, "--config", cfg_path],
            env=dict(os.environ, PYTHONPATH=src_dir), capture_output=True, text=True,
        )

    for stage, artifact in (("decompose", "S.txt"), ("bench", "bench.json")):
        proc = run(stage)
        assert (proc.returncode, proc.stderr) == (
            1, f"error: {out / 'omega.txt'}: no observed entries\n"), stage
        assert not (out / artifact).exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_decompose_artifacts_of_two_parts_do_not_depend_on_the_cpu_count(tmp_path):
    # 24x7x52x16 is at least 2**17 elements, so its blocks run as two parts:
    # on two threads with two CPUs, one after the other with one
    import stsad

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(stsad.__file__)))
    cfg_path, out = base_config(tmp_path, dims="24 7 52 16", max_iter=4, tol=0)
    for stage in ("synth", "graphs"):
        assert run_stage(stage, cfg_path) == 0, stage
    # BLAS on one thread: its thread count may change the last digits itself
    env = dict(os.environ, PYTHONPATH=src_dir, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("import os, sys; os.sched_setaffinity(0, {cpus}); from stsad.cli import main; "
            "sys.exit(main(['decompose', '--config', sys.argv[1]]))")
    usable = sorted(os.sched_getaffinity(0))
    artifacts = []
    for cpus in (usable[:1], usable[:2]):
        proc = subprocess.run([sys.executable, "-c", code.format(cpus=set(cpus)), cfg_path],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        artifacts.append({name: (out / name).read_bytes()
                          for name in ("L.txt", "S.txt", "diagnostics.jsonl")})
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("bad", ["x", "nan", "inf", "1 2"])
def test_a_bad_line_of_any_numeric_file_is_named(tmp_path, capsys, bad):
    from stsad.synth import builtin_template
    from stsad.tensor import save_tensor

    base = tmp_path / "base.txt"
    save_tensor(base, builtin_template((8, 4, 6, 3)))
    cfg_path, out = base_config(tmp_path, base_tensor=base, max_iter=3)
    for stage in ("synth", "graphs", "decompose", "score"):
        assert run_stage(stage, cfg_path) == 0, stage
    capsys.readouterr()
    for stage, path in [("graphs", out / "Y.txt"), ("decompose", out / "omega.txt"),
                        ("evaluate", out / "labels.txt"), ("score", out / "S.txt"),
                        ("decompose", out / "mode1_eigvecs.txt"), ("synth", base)]:
        text = path.read_bytes()
        lines = text.split(b"\n")
        lines[4] = bad.encode()
        path.write_bytes(b"\n".join(lines))
        assert run_stage(stage, cfg_path) == 1, (stage, path)
        assert capsys.readouterr().err == f"error: {path}:5: bad row\n"
        path.write_bytes(text)


def test_synth_from_user_template(tmp_path):
    from stsad.synth import builtin_template
    from stsad.tensor import save_tensor

    template = builtin_template((8, 4, 6, 3)) * 2.0
    path = tmp_path / "template.txt"
    save_tensor(path, template)
    cfg_path, out = base_config(tmp_path, base_tensor=path)
    assert run_stage("synth", cfg_path) == 0
    manifest = json.loads((out / "synth_manifest.json").read_text())
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
    rows = json.loads((out / "bench.json").read_text())
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
    [row] = json.loads((out / "bench.json").read_text())
    assert row["failures"] == 1
    assert len(row["errors"]) == 1
    assert row["errors"][0].startswith("NumericalError: non-finite")
    assert row["errors"][0].endswith("at iteration 3")
    err = capsys.readouterr().err
    assert "warning: horpca failed 1 repeat(s): NumericalError" in err
