"""Tests of the benchmark itself: tracer hygiene, digest stability, smoke runs
and the result-line contract."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads
from kgt import cocycle, fock, kgraph, verify, xmod

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def _namespaces():
    """Every attribute of every kgt module and class, and every registry entry."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "kgt" or name.startswith("kgt."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("kgt"):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    for cid, cd in verify.REGISTRY.items():
        out[("REGISTRY", cid)] = cd
    return out


def test_tracer_patches_every_binding_and_restores_it():
    before = _namespaces()
    t = tracer.Tracer().install()
    try:
        assert t.missing == []
        for mod in (xmod, fock, verify):
            assert mod.x_tmul is not before[(mod.__name__, "x_tmul")]
        assert vars(kgraph.KGraph)["split"] is not before[("kgt.kgraph", "KGraph", "split")]
        assert verify.REGISTRY["def-4.4"] is not before[("REGISTRY", "def-4.4")]
    finally:
        t.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_tracer_counts_and_self_time():
    g = kgraph.single_vertex(2, (2, 2))
    with tracer.Tracer() as t:
        c = cocycle.c_theta(g, "1/8")
        rep = cocycle.check_cocycle(c, (2, 2), tol=0.0)
    m = t.metrics()
    assert rep.ok
    assert m["cocycle.check_cocycle.triples"] == rep.triples_checked
    assert m["cocycle.eval.calls"] <= m["cocycle.call.calls"]
    assert 0.0 < m["cocycle.memo_hit_ratio"] < 1.0
    assert m["kgraph.split.calls"] > 0 and m["phases.mul.calls"] > 0
    # self time excludes enclosed spans: kgraph.paths runs inside check_cocycle
    assert m["cocycle.check_cocycle.self_ms"] > 0.0 and m["kgraph.paths.self_ms"] > 0.0


def test_nested_span_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.span("inner", lambda: time.sleep(0.02))
    outer = t.span("outer", lambda: inner())
    outer()
    assert t.self_s["inner"] >= 0.02
    assert t.self_s["outer"] < 0.01
    assert t.calls["outer"] == t.calls["inner"] == 1


def _suite_digest(results) -> str:
    import hashlib

    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.case.check_id}|{r.case.subject}|{r.case.seed}|{r.status}\n".encode())
    return h.hexdigest()


def test_suite_ops_match_one_run_suite_call(tmp_path):
    the_pass = workloads.build("suite_battery", 3, "smoke", str(tmp_path))
    for op in the_pass.ops:
        assert op.verdict(op.call()) is None
    cfg = verify.SuiteConfig(seed=3, degree_entry_cap=workloads.SUITE_DEGREE_ENTRY_CAP)
    rep = verify.run_suite(list(workloads.SMOKE_CHECKS), cfg, instances=workloads.suite_instances(3, cfg, "smoke"))
    assert the_pass.digest == _suite_digest(rep.results)


def test_two_runs_of_one_seed_give_one_suite_digest():
    first = run.run_child("suite_battery", 5, "smoke")
    second = run.run_child("suite_battery", 5, "smoke")
    assert first["digest"] and first["digest"] == second["digest"]


def test_crash_witness_is_told_apart_from_a_refutation():
    assert workloads._crash_type("TypeError: unsupported operand") == "TypeError"
    assert workloads._crash_type("DegreeMismatch: fibers differ") == "DegreeMismatch"
    assert workloads._crash_type(("C1", "witness")) is None
    assert workloads._crash_type("lhs: 1 != rhs: 2") is None


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc = _bench("--workload", "fock_cli", "--seed", "0", "--seconds", "1", "--trace", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    assert result["correct"]
    assert list(result["metrics"]) == list(tracer.LAYER_METRICS)
    assert detail["unresolved_trace_targets"] == []
    assert result["metrics"]["fock.matmul.calls"]["value"] > 0


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "suite_battery", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
