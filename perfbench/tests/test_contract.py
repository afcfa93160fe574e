"""BENCHMARK.json, the metric specs and the workload constants agree."""

import json
import re

from conftest import ROOT

from benchlib import inputs, specs

DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60


def test_workloads_match_inputs_and_state_their_rate():
    names = [w["name"] for w in DOC["workloads"]]
    assert names == list(inputs.WORKLOADS) == list(inputs.OPEN_RPS)
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        rate = inputs.OPEN_RPS[w["name"]]
        assert f"{rate:g} req/s" in w["why"], w["name"]


def _check(entries, spec_list, with_bound):
    assert [e["name"] for e in entries] == [s.name for s in spec_list]
    for entry, spec in zip(entries, spec_list):
        keys = {"name", "unit", "better"} | ({"bound"} if with_bound else set())
        assert set(entry) == keys
        assert (entry["unit"], entry["better"]) == (spec.unit, spec.better)
        assert NAME.match(spec.name) and UNIT.match(spec.unit)
        assert spec.better in ("lower", "higher")
        assert specs.name_matches_unit(spec), spec.name


def test_end_to_end_metrics():
    _check(DOC["end_to_end"], specs.END_TO_END, with_bound=True)
    bounds = {e["name"]: e["bound"] for e in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_name_what_they_should_move():
    _check(DOC["per_layer"], specs.PER_LAYER, with_bound=False)
    e2e = {s.name for s in specs.END_TO_END}
    for spec in specs.PER_LAYER:
        assert spec.on, spec.name
        if spec.name != "trace.overhead_pct":
            moved = {m.strip() for m in spec.moves.split(",")}
            assert moved <= e2e, spec.name


def test_unit_suffix_rule_rejects_mismatches():
    bad = [
        specs.Metric("latency_p50", "ms", "lower", ""),
        specs.Metric("load_ms", "s", "lower", ""),
        specs.Metric("settled_ms", "count", "lower", ""),
        specs.Metric("rss", "MB", "lower", ""),
    ]
    assert not any(specs.name_matches_unit(m) for m in bad)
    names = [s.name for s in specs.END_TO_END + specs.PER_LAYER]
    assert len(names) == len(set(names))
