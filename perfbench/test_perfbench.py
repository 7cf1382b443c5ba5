"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Each workload shrunk to a fraction of a second; same code paths.
SMALL = {
    "fig8-sweep": dataclasses.replace(
        workloads.WORKLOADS["fig8-sweep"], bootstraps=(1, 6),
        tasks_per_bootstrap=40),
    "serve-saturated": dataclasses.replace(
        workloads.WORKLOADS["serve-saturated"], horizon_s=1800.0),
    "serve-distinct": dataclasses.replace(
        workloads.WORKLOADS["serve-distinct"], horizon_s=1200.0),
    "dag-bootstop": dataclasses.replace(
        workloads.WORKLOADS["dag-bootstop"], replicates=40),
}


def declared():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    for name, wl in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, wl)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def test_metric_names_use_the_allowed_alphabet():
    doc = declared()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [name for name, _u, _k in run.END_TO_END + run.PER_LAYER]
    assert names and all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names) // 2


def test_declared_metrics_and_workloads_match_the_code():
    doc = declared()
    for key, spec in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in doc[key]] == [
            (name, unit) for name, unit, _kind in spec]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why
               for w in doc["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMALL))
def test_each_workload_emits_every_declared_metric(small, name, trace):
    report = run.run(name, 3, 0.0, bool(trace), references={})
    result = report["result"]
    assert result["correct"], report["lines"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = declared()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        spans = json.loads(
            (small / f"spans-{name}-seed3.json").read_text())["spans"]
        assert {s["name"] for s in spans} >= {"setup", "pass",
                                              "run_experiment"}
        assert len({s["trace"] for s in spans}) == 1


def test_a_corrupted_reference_digest_fails_the_run(small):
    wl = workloads.WORKLOADS["dag-bootstop"]
    good = wl.reference(wl.run(wl.setup(0)))
    ok = run.run("dag-bootstop", 0, 0.0, False,
                 references={"dag-bootstop": {"0": good}})
    assert ok["result"]["correct"] and ok["result"]["failed"] == 0
    bad = dict(good, final_digest="0" * 64)
    for trace in (False, True):
        report = run.run("dag-bootstop", 0, 0.0, trace,
                         references={"dag-bootstop": {"0": bad}})
        result = report["result"]
        assert not result["correct"]
        assert 0 < result["failed"] <= result["attempted"]
        assert any(line.startswith("failed_frac = ") and
                   not line.startswith("failed_frac = 0.000000")
                   for line in report["lines"])


def test_self_time_on_a_synthetic_span_tree():
    def span(i, parent, start, end):
        return {"id": i, "parent": parent, "name": f"s{i}", "trace": "t",
                "start": start, "end": end, "attrs": {}}

    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 9.5),
        span(4, 3, 6.0, 7.0),
        span(5, 3, 7.0, 8.5),
    ]
    assert layers.self_times(spans) == {0: 2.5, 1: 2.0, 2: 1.0, 3: 2.0,
                                        4: 1.0, 5: 1.5}


def test_span_recorder_nests_wrapped_calls():
    ticks = iter(range(100))
    rec = layers.SpanRecorder("t", clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1,
                     note=lambda attrs, r: attrs.update(result=r))
    outer = rec.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    (o,), inners = rec.named("outer"), rec.named("inner")
    assert [s["parent"] for s in inners] == [o["id"], o["id"]]
    assert [s["attrs"]["result"] for s in inners] == [2, 3]
    summary = layers.span_summary(rec.spans)
    assert summary["outer"] == {"count": 1, "total_s": 5.0, "self_s": 3.0}
    assert summary["inner"] == {"count": 2, "total_s": 2.0, "self_s": 2.0}


def test_every_package_module_maps_to_a_layer():
    assert layers.check_coverage(run.PACKAGE) == []
    assert set(layers.LAYER_MAP.values()) < set(layers.LAYERS)
    expect = {
        "sim/engine.py": "sim",
        "cell/smt.py": "cell.smt",
        "cell/spe.py": "cell",
        "core/runtime/engine.py": "runtime",
        "core/history.py": "runtime",
        "core/llp.py": "llp",
        "core/runner.py": "runner",
        "__init__.py": "runner",
        "serve/__init__.py": "service",
        "serve/fleet.py": "fleet",
        "serve/bootstop.py": "bootstop",
        "phylo/consensus.py": "dag",
        "obs/metrics.py": "obs",
        "nowhere/new.py": None,
    }
    assert {rel: layers.layer_of(rel) for rel in expect} == expect


def test_an_unmapped_module_fails_the_traced_run_with_a_result(
        small, monkeypatch):
    unmapped = {k: v for k, v in layers.LAYER_MAP.items() if k != "sim/"}
    monkeypatch.setattr(layers, "LAYER_MAP", unmapped)
    report = run.run("fig8-sweep", 3, 0.0, True, references={})
    result = report["result"]
    assert not result["correct"] and result["failed"] >= 1
    assert list(result["metrics"]) == [m["name"]
                                       for m in declared()["per_layer"]]
    assert any(line.startswith("unmapped module: sim/")
               for line in report["lines"])


def test_only_code_outside_the_package_lands_in_other():
    classify = layers.LayerClassifier(run.PACKAGE)
    assert classify("~") == "other"
    assert classify(json.__file__) == "other"
    assert classify(layers.__file__) == "harness"
    assert classify(str(run.PACKAGE / "sim" / "engine.py")) == "sim"
    # An unmapped module is counted in ``other``; the coverage check
    # is what fails the run.
    assert classify(str(run.PACKAGE / "nowhere" / "new.py")) == "other"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(range(1, 21)) == (10, 50.0)
    assert run.tail(range(10)) is None
    value, pct = run.tail(range(1, 402))
    assert (value, round(pct, 2)) == (391, 97.51)


def test_the_reference_loop_does_fixed_work():
    assert calibrate.reference_loop() == calibrate.DIGEST
    assert calibrate.reference_loop(100) != calibrate.DIGEST
