"""The benchmark's own quick tests: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
STAGES = ("primitives.compute_dists", "classifier.estimate_mu",
          "classifier.estimate_mu2_digits", "classifier.square_mu_digits",
          "classifier.estimate_sigma", "classifier.count_classes",
          "interp.is_smaller")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def short_run(workload, trace, seed=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "2",
                 "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def reported(lines, name):
    for line in lines:
        if line.split()[0] == name:
            return line.split()[1]
    raise KeyError(name)


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    result, lines = short_run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(l.split()[0] == name and l.split()[-1] == unit
                   for l in lines), name
    assert result["metrics"]["depth"]["value"] == 68


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_stage_gates_sum_to_the_total(workload):
    result, _ = short_run(workload, trace=1)
    assert result["correct"], "a stage-gate or output check failed"
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    assert sum(m[f"{s}.mult_gates"] for s in STAGES) == \
        m["classifier.server_classify.mult_gates"]


def test_same_seed_gives_same_counts_and_bits():
    (a, la), (b, lb) = short_run("loo_g250", 0), short_run("loo_g250", 0)
    for name in ("mult_gates_per_query", "depth"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    for name in ("f1", "bits_digest"):
        assert reported(la, name) == reported(lb, name)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "loo_g250", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans_and_ops():
    tracer = spans.Tracer()

    def inner():
        tracer._op_wrapper("he_sim.add", lambda: sum(range(20000)), "add")()

    tracer.call("outer", lambda: [tracer.call("inner", inner)
                                  for _ in range(2)])
    recs = tracer.records()
    outer = next(r for r in recs if r["name"] == "outer")
    inners = [r for r in recs if r["name"] == "inner"]
    covered = sum(r["end"] - r["start"] for r in inners)
    assert outer["self_s"] == pytest.approx(
        outer["end"] - outer["start"] - covered, abs=1e-9)
    for r in inners:
        assert r["parent"] == outer["i"]
        assert r["ops"]["he_sim.add"][0] == 1
        assert r["self_s"] < r["end"] - r["start"]


def test_stage_gate_check_flags_unaccounted_gates():
    recs = [
        {"i": 0, "name": "trace", "parent": None, "mult_gates": 0},
        {"i": 1, "name": "classifier.server_classify", "parent": 0,
         "mult_gates": 10},
        {"i": 2, "name": "primitives.compute_dists", "parent": 1,
         "mult_gates": 7},
    ]
    assert spans.stage_gate_errors(recs) == [(1, 7, 10)]
    recs[2]["mult_gates"] = 10
    assert spans.stage_gate_errors(recs) == []
