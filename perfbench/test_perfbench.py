"""Smoke tests for the benchmark itself, at a tiny cohort size."""
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from genalign import aggregator, align, harness, pretrain  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.3


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


def _run(name, trace, seed=3):
    line, record = run.run(name, seed, SECONDS, trace, "TINY")
    assert line["correct"], record["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    return line, record


def test_spec_lists_the_workloads_and_metrics_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_exactly_the_listed_metrics(name, trace):
    line, _ = _run(name, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    if trace:
        assert 0.9 <= line["metrics"]["trace.coverage"]["value"] <= 1.0 + 1e-9
        assert "trace.overhead_frac" in line["metrics"]
        assert tracing.installed_wrappers() == []


@pytest.mark.parametrize("name", ["pretrain", "align_eval"])
def test_seeded_runs_repeat_quality_and_final_loss(name):
    first = _run(name, False)[1]["quality"]
    second = _run(name, False)[1]["quality"]
    assert "final_loss" in first
    assert first == second


def test_pass_times_sum_slice_means_in_reference_units():
    reps = [workloads.Rep(k, main_s=m, bags=10, cells=100, digest="")
            for k, m in ((0, 1.0), (1, 2.0), (0, 3.0))]
    t = run.timings(reps, walls=[1.5, 2.5, 3.5], refs=[0.4, 0.5, 0.6])
    assert t == {"run_s": 2.5 + 2.5, "main_s": 2.0 + 2.0, "ref_s": 0.5, "bags": 20.0, "cells": 200.0}
    metrics = run.end_to_end([1.0, 3.0, 2.0], t)
    assert metrics["setup_s"] == 2.0
    assert metrics["run_ref"] == 10.0
    assert metrics["bags_per_ref"] == 20 * 0.5 / 4.0
    assert metrics["cells_per_ref"] == 200 * 0.5 / 4.0


def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("tracer installed during an untraced run")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    _run("embed_large", False)


def test_tracer_patches_the_names_callers_look_up_and_restores_them():
    originals = {
        (pretrain, "forward"): aggregator.forward,
        (align, "forward"): aggregator.forward,
        (harness, "embed_cohort"): align.embed_cohort,
        (harness, "project"): align.project,
        (harness, "train_align"): align.train_align,
    }
    with tracing.Tracer():
        for (module, attr), original in originals.items():
            bound = getattr(module, attr)
            assert bound is not original and bound.__wrapped__ is original
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    assert tracing.installed_wrappers() == []


def test_tracer_self_time_excludes_children():
    config = aggregator.AggregatorConfig()
    params = aggregator.init_params(config, np.random.default_rng(0))
    cells = np.random.default_rng(1).standard_normal((7, config.input_dim))
    tracer = tracing.Tracer()
    with tracer:
        aggregator.forward(cells, np.empty(0, np.int64), params, config)
    names = [tracer.names[sid] for sid in tracer.span_name]
    root = names.index("aggregator.forward")
    children = sum(tracer.span_end[i] - tracer.span_start[i]
                   for i in range(len(names)) if tracer.span_parent[i] == root)
    row = tracer.table()["aggregator.forward"]
    assert row["calls"] == 1 and row["rows"] == 7
    assert row["total_s"] == tracer.span_end[root] - tracer.span_start[root]
    assert row["self_s"] == pytest.approx(row["total_s"] - children, abs=1e-9)
    assert tracer.top_level_s() == row["total_s"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
