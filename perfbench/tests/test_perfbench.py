"""Tests for the benchmark's own logic, plus a tiny run of each workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, stats
from perfbench.spans import Tracer, self_time, with_self_times
from perfbench.workloads import SMALL

REPO = Path(__file__).resolve().parents[2]
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())


def test_p90_is_refused_below_100_samples():
    with pytest.raises(stats.NotEnoughSamples):
        stats.percentile(range(1, 100), 0.9)
    assert stats.percentile(range(1, 101), 0.9) == 90


def test_percentile_needs_ten_samples_beyond_its_rank():
    with pytest.raises(stats.NotEnoughSamples):
        stats.percentile(range(19), 0.5)
    assert stats.percentile(range(20), 0.5) == 9


def test_fail_ratio_counts_each_operation_once():
    assert stats.fail_ratio(64, 57) == 57 / 64
    assert stats.fail_ratio(3, 0) == 0.0
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            stats.fail_ratio(attempted, failed)


def _span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end, "attrs": {}}


def test_self_time_subtracts_the_time_children_cover_once():
    parent = _span(0, None, 0.0, 10.0)
    spans = [
        parent,
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps the first child
        _span(3, 0, 9.0, 12.0),  # ends after its parent
        _span(4, 1, 1.5, 2.5),  # grandchild: covered by its own parent
    ]
    assert self_time(parent, spans[1:4]) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(spans[1], [spans[4]]) == pytest.approx(1.0)
    assert [s["self"] for s in with_self_times(spans)] == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_tracer_links_children_and_marks_errors():
    t = Tracer()
    with t.span("op", n=1) as attrs:
        with t.span("inner"):
            pass
        attrs["k"] = 2
    with pytest.raises(ValueError):
        with t.span("bad"):
            raise ValueError("boom")
    op, inner, bad = t.spans
    assert inner["parent"] == op["id"] and inner["root"] == op["id"]
    assert op["attrs"] == {"n": 1, "k": 2}
    assert bad["attrs"]["error"] == "ValueError" and bad["end"] >= bad["start"]


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("name", ["pipeline", "search", "assess"])
def test_tiny_untraced_run(name, tmp_path):
    result, detail = harness.run(name, 3, 0, False, 0.1, REPO, tmp_path, sizes=SMALL)
    assert result["correct"], detail["checks_failed"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1
    if name == "assess":
        assert result["failed"] == 1
        assert detail["counters"] == {
            "max_kernel_taps": 1615,
            "windows_completed": 3,
            "windows_failed": 1,
            "patterns_per_20s_window": 386,
        }
    if name == "pipeline":
        assert result["failed"] == 0
        assert detail["counters"]["patterns_kept_per_signal"] == 786
    if name == "search":
        assert result["failed"] == 0
        assert detail["counters"]["space_layouts_drawn"] == 64
        assert 0 < detail["counters"]["space_layouts_infeasible"] < 64


def test_tiny_traced_run_reports_every_layer(tmp_path):
    result, detail = harness.run("pipeline", 3, 0, True, 0.1, REPO, tmp_path, sizes=SMALL)
    assert result["correct"], detail["checks_failed"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    assert (tmp_path.parent / detail["trace_file"]).is_file()
    # The search probe calls reward on the space's infeasible draws.
    assert result["metrics"]["band_search.layouts_infeasible"]["value"] > 0


def test_counters_must_repeat_between_runs(tmp_path):
    first, _ = harness.run("search", 5, 0, False, 0.1, REPO, tmp_path, sizes=SMALL)
    again, detail = harness.run("search", 5, 0, False, 0.1, REPO, tmp_path, sizes=SMALL)
    assert first["correct"] and again["correct"], detail["checks_failed"]
    stored = tmp_path / "counters" / "search-seed5.json"
    stored.write_text(json.dumps({"layouts_attempted": -1}))
    changed, detail = harness.run("search", 5, 0, False, 0.1, REPO, tmp_path, sizes=SMALL)
    assert not changed["correct"]
    assert "counters changed" in detail["checks_failed"][0]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
