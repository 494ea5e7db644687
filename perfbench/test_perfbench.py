"""Tests of the benchmark itself: tracing, gate and contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from layertrace import TRACED, Tracer, per_layer_names
from worker import import_entfate
from workloads import FatesDamping, FatesQuench, PptVolume

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ef = import_entfate()


class SmallQuench(FatesQuench):
    n_chunks = 1
    samples_per_chunk = 2


class SmallDamping(FatesDamping):
    n_chunks = 1
    samples_per_chunk = 3


def traced_pass(wl):
    tracer = Tracer()
    tracer.install()
    try:
        wl.run_chunk(0)
    finally:
        tracer.uninstall()
    return tracer


def counts(tracer):
    return {name: rec["calls"] for name, rec in tracer.table().items()}, tracer.counters


@pytest.mark.parametrize("cls", [SmallQuench, SmallDamping])
def test_traced_counts_repeat_exactly(tmp_path, cls):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = traced_pass(cls(ef, tmp_path / "a", seed=5))
    second = traced_pass(cls(ef, tmp_path / "b", seed=5))
    assert counts(first) == counts(second)
    calls, counters = counts(first)
    assert calls["cli.main"] == 1
    assert calls["fate.detect_fate"] == cls.samples_per_chunk
    if cls is SmallDamping:
        assert calls["dynamics.solve_ivp"] == 0
        assert calls["dynamics.expm"] > 0
    else:
        assert calls["dynamics.solve_ivp"] > 0
        assert counters["dynamics.solve_ivp.nfev"] > 0


def test_uninstall_restores_every_binding():
    import entfate.dynamics
    import entfate.geometry

    tracer = Tracer()
    tracer.install()
    try:
        assert entfate.dynamics.solve_ivp is not scipy.integrate.solve_ivp
        assert entfate.geometry.np is not np
    finally:
        tracer.uninstall()
    assert entfate.dynamics.solve_ivp is scipy.integrate.solve_ivp
    assert entfate.geometry.np is np
    assert ef.min_pt_eigenvalue is entfate.geometry.min_pt_eigenvalue
    assert ef.min_pt_eigenvalue.__module__ == "entfate.geometry"
    assert not hasattr(ef.min_pt_eigenvalue, "__wrapped__")


def test_self_times_partition_the_root_span():
    bell = ef.max_entangled()
    tracer = Tracer()
    tracer.install()
    try:
        ef.min_pt_eigenvalue(bell)
    finally:
        tracer.uninstall()
    table = tracer.table()
    assert table["geometry.min_pt_eigenvalue"]["calls"] == 1
    assert table["states.partial_transpose"]["calls"] == 1
    assert table["linalg.eigvalsh"]["calls"] == 1
    root_total = next(e["total_s"] for e in tracer.edge_list() if e["parent"] is None)
    self_sum = sum(rec["self_s"] for rec in table.values())
    assert self_sum == pytest.approx(root_total, rel=1e-9)
    assert all(rec["self_s"] >= 0.0 for rec in table.values())


def test_gate_counts_differences_from_reference(tmp_path):
    wl = PptVolume(ef, tmp_path, seed=0)
    typical = [round(wl.samples_per_chunk * 8 / 33)] * wl.n_chunks
    off_by_one = [typical[0] + 1] + typical[1:]
    assert wl.mismatches(typical, typical) == []
    assert len(wl.mismatches(typical, off_by_one)) == 1
    assert len(wl.mismatches([wl.samples_per_chunk] * wl.n_chunks, None)) == 1  # far from 8/33

    fates = SmallDamping(ef, tmp_path, seed=0)
    assert fates.mismatches(["sas"], ["sas"]) == []
    assert len(fates.mismatches(["sas"], ["saa"])) == 1
    assert len(fates.mismatches(["sen"], None)) == 2  # tags a damped pure state cannot reach
    assert fates.mismatches(["sxa"], None) == []  # a failed sample is counted, not gated


def test_benchmark_json_names_match_what_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names() + ["trace.overhead_frac"]
    assert set(TRACED) <= {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "samples_per_s", "peak_rss_mb"}


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ppt_volume", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
