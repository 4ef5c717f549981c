"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``.

They check that tracing changes no result (every artifact of a traced CLI
chain has the same sha256 as the untraced one), that spans nest, that self
time plus child time adds up to each stage span, and that BENCHMARK.json
names exactly the metrics run.py reports.
"""

import json
import os

import pytest

import run
from checks import dir_hashes
from tracer import self_times

DIMS = (24, 7, 8, 6)


def _chain(tmp_path, traced):
    rep = run.Rep(run.CHAIN)
    out, logs = tmp_path / "out", tmp_path / "logs"
    logs.mkdir()
    cfg = str(logs / "stsad.cfg")
    run._write_config(cfg, str(out), DIMS, seed=3)
    for stage in run.CHAIN:
        assert run._stage(rep, stage, cfg, str(logs), traced, f"test/{stage}"), rep.failures
    return rep, dir_hashes(str(out))


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    plain = _chain(tmp_path_factory.mktemp("plain"), traced=False)
    traced = _chain(tmp_path_factory.mktemp("traced"), traced=True)
    return plain, traced


def test_tracing_changes_no_artifact(chains):
    (_, plain), (_, traced) = chains
    expected = {name for names in run.CITY_ARTIFACTS.values() for name in names}
    assert set(plain) == expected
    assert traced == plain


def test_spans_nest(chains):
    _, (rep, _) = chains
    assert len(rep.spans) == len(run.CHAIN)
    for stage, spans in zip(run.CHAIN, rep.spans):
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == [f"cli.run_{stage}"]
        for s in spans:
            assert s["run"] == f"test/{stage}"
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_self_time_plus_children_is_stage_span(chains):
    _, (rep, _) = chains
    for spans in rep.spans:
        selfs = self_times(spans)
        for s in spans:
            children = [c for c in spans if c["parent"] == s["id"]]
            child_time = sum(c["end"] - c["start"] for c in children)
            assert selfs[s["id"]] + child_time == pytest.approx(s["end"] - s["start"], abs=1e-9)


def test_traced_counts_match_the_code(chains):
    _, (rep, _) = chains
    m = run.layer_metrics(rep)
    assert m["instrumentation.svd"][0] == 0
    assert m["instrumentation.eig_per_graph_build"][0] == 4
    assert m["logss.iterations"][0] == run.MAX_ITER


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(run.REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    rep = run.Rep(run.CHAIN)
    units = {k: unit for k, (_, unit) in run.layer_metrics(rep).items()}
    units.update({"trace.run_s": "s", "trace.overhead_pct": "%"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
