"""Self-tests of the benchmark harness; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_harness_modules_do_not_import_smtorus():
    code = (
        "import sys; sys.path.insert(0, 'perfbench');"
        "import run, child, tracer, workloads;"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'smtorus'];"
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], cwd=HERE.parent, check=True, timeout=60)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_child_starts_cold(workload):
    out = run.Children(workload, 3).run("setup")
    assert out["isolation"] == {"preloaded": [], "warm": []}


def test_warm_caches_are_detected():
    mod = types.ModuleType("straighten")
    mod._PAIR_MEMO, mod._INTERP_CACHE, mod._CONSTANTS = {1: 2}, {}, {1: 2}
    mod.cached = functools.lru_cache(lambda x: x)
    assert child.warm_caches({"straighten": mod}) == ["straighten._PAIR_MEMO"]
    mod.cached(1)
    assert child.warm_caches({"straighten": mod}) == ["straighten._PAIR_MEMO", "straighten.cached"]


@pytest.mark.parametrize(
    "isolation",
    [{"preloaded": ["smtorus"], "warm": []}, {"preloaded": [], "warm": ["straighten._PAIR_MEMO"]}],
)
def test_parent_refuses_a_child_that_did_not_start_cold(monkeypatch, isolation):
    line = json.dumps({"mode": "run", "isolation": isolation})
    monkeypatch.setattr(
        run.subprocess,
        "run",
        lambda *a, **k: subprocess.CompletedProcess(a, 0, stdout=line + "\n", stderr=""),
    )
    with pytest.raises(run.BenchError, match="did not start cold"):
        run.Children("hilbert", 1).run("run")


def _fake_modules():
    a = types.ModuleType("a")
    b = types.ModuleType("b")

    def leaf(x):
        return x + 1

    def outer(x):
        return {i: a.leaf(i) for i in range(x)}

    a.leaf, a.outer = leaf, outer
    b.leaf = leaf  # imported by name elsewhere
    return {"a": a, "b": b}


def test_tracer_rebinds_by_identity_and_splits_self_time():
    modules = _fake_modules()
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    original = modules["a"].leaf
    t.install(modules, traced=(("a", "outer"), ("a", "leaf"), ("a", "gone")))
    assert modules["b"].leaf is modules["a"].leaf is not original
    modules["a"].outer(2)
    # outer spans ticks 0..5 and holds two leaf calls of one tick each
    assert t.calls == {"a.outer": 1, "a.leaf": 2, "a.gone": 0}
    assert t.self_s == {"a.outer": 3.0, "a.leaf": 2.0, "a.gone": 0.0}
    assert t.attributed_s == 5.0
    assert t.absent == ["a.gone"]
    assert [s[0] for s in t.spans] == ["a.outer", "a.leaf", "a.leaf"]
    assert all(s[3] == 0 for s in t.spans[1:])
    t.uninstall()
    assert modules["b"].leaf is original


def test_leaf_counters_record_no_span():
    modules = {"pfaffian": types.ModuleType("pfaffian")}
    modules["pfaffian"].q_eval = lambda x: x
    t = tracer.Tracer()
    t.install(modules, traced=(("pfaffian", "q_eval"),))
    modules["pfaffian"].q_eval(1)
    assert t.calls == {"pfaffian.q_eval": 1} and t.spans == []


def test_checker_counts_exceptions_and_mismatches():
    check = workloads.Checker({"a": 1, "b": 2, "c": 3})
    check.op("a", lambda: 1)
    check.op("b", lambda: 5)
    check.op("c", lambda: 1 / 0)
    assert check.attempted == 3 and len(check.failures) == 2


def test_report_seed_is_normalized_exactly_once():
    text = '{\n  "config": {\n    "n": 3,\n    "seed": 17\n  }\n}\n'
    assert workloads.normalized_report(text, 17) == text.replace("17", "0")
    with pytest.raises(workloads.Mismatch):
        workloads.normalized_report(text, 1)


def test_references_cover_every_seed():
    ref = workloads.load_reference()
    data = ref["data"]
    for seed in Random(0).sample(range(10**6), 5):
        inputs = workloads.setup_interpolate(seed, data)
        for rows in inputs["sample"]:
            assert f"pair8:{workloads.row_key(rows)}" in ref["interpolate"]
        for key, _, _, _, top in workloads.hilbert_cases(workloads.setup_hilbert(seed, data)):
            assert all(f"{key}[{k}]" in ref["hilbert"] for k in range(top + 1))
    assert ref["reproduce-rank12"]["report"][0] == 0


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hilbert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
