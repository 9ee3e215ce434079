"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

EXPECTED = {
    # workload: (round trips per cycle, reads per planned transfer)
    "single_read": (1, [1]),
    "mixed_scan": (2, [4, 13]),
    "write_cycle": (3, [2]),
}


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    layer = SimpleNamespace()

    def inner(fail=False):
        clock.now += 3
        if fail:
            raise ValueError("inner failed")

    def outer():
        clock.now += 2
        layer.inner()
        clock.now += 1
        with pytest.raises(ValueError):
            layer.inner(fail=True)
        clock.now += 4

    layer.inner, layer.outer = inner, outer
    tracer = Tracer(clock=clock)
    tracer.wrap(layer, "inner", "x.inner")
    tracer.wrap(layer, "outer", "y.outer", keep_durations=True)
    layer.outer()

    outer_stat, inner_stat = tracer.stats["y.outer"], tracer.stats["x.inner"]
    assert (outer_stat.calls, outer_stat.total_ns, outer_stat.self_ns) == (1, 13, 7)
    assert (inner_stat.calls, inner_stat.total_ns, inner_stat.self_ns) == (2, 6, 6)
    assert inner_stat.errors == 1 and outer_stat.errors == 0
    assert list(outer_stat.durations_ns) == [13]
    assert tracer.layer("x").self_ns + tracer.layer("y").self_ns == outer_stat.total_ns

    tracer.restore()
    assert layer.inner is inner and layer.outer is outer


def test_wall_samples_keep_an_even_subsample_in_fixed_memory():
    samples = run.WallSamples(capacity=8)
    size = samples.buf.buffer_info()
    for ns in range(100):
        samples.add(ns)
    assert samples.count == 100 and samples.stride == 16
    assert list(samples.values()) == list(range(0, 100, 16))
    assert samples.buf.buffer_info() == size


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(EXPECTED)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


@pytest.mark.parametrize("workload", list(EXPECTED))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_is_correct(workload, trace):
    rc, lines, stderr = _run(
        "--workload", workload, "--seed", "5", "--seconds", "0.4", "--trace", str(trace)
    )
    assert rc == 0, stderr
    result = json.loads(lines[-1])
    context = json.loads(lines[-2].removeprefix("context "))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    round_trips, plan = EXPECTED[workload]
    assert context["plans"][workload] == plan
    if trace:
        assert metrics.keys() == run.PER_LAYER.keys()
        assert metrics["client.errors"] == 0 and metrics["client.reconnects"] == 0
    else:
        assert metrics.keys() == run.END_TO_END.keys()
        assert metrics["ok_share"] == 1.0
        assert metrics["round_trips_per_cycle"] == round_trips


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".run", "__pycache__"))
    rc, lines, _stderr = _run("--workload", "single_read", "--seconds", "0.2", "--trace", "0",
                              cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
