"""Tests of the benchmark itself: python -m pytest benchmarks"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, metric_specs  # noqa: E402


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_smoke_answers_hold_and_outputs_are_byte_identical():
    out = run(["--smoke"])
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"]
    golden = json.loads((HERE / "golden_digests.json").read_text())
    assert result["digests"] == golden


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run(["--workload", "segal", "--seed", "0", "--seconds", "1",
               "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_lists_what_the_tracer_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = dict(metric_specs())
    reported["trace.overhead"] = "ratio"
    assert listed == reported
    assert len(listed) <= 128


def test_self_time_excludes_children_and_recursion_counts_once():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def inner():
        busy(0.02)

    def outer(depth):
        busy(0.01)
        if depth:
            outer_traced(depth - 1)
        else:
            inner_traced()

    inner_traced = tracer.wrap("a.inner", inner)
    outer_traced = tracer.wrap("a.outer", outer)
    outer_traced(1)

    assert tracer.calls["a.outer"] == 2 and tracer.calls["a.inner"] == 1
    assert 0.015 < tracer.self_s["a.inner"] < 0.05
    assert 0.015 < tracer.self_s["a.outer"] < 0.05
    total = tracer.total_s["a.outer"]
    assert abs(total - tracer.self_s["a.outer"]
               - tracer.self_s["a.inner"]) < 0.005
