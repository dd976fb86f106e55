"""The benchmark's own tests: python3 -m pytest perfbench

Tiny-size smoke runs of every workload, failure counting, the span
self-time rule, the tail-percentile rule, and the exit without the
program's source.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

import measure
import run
import workloads
from measure import Span

TINY = {
    "long_words": dict(
        letters=2000, n_max=16, cassaigne_n=12, sturmian_n=10, rebuilt=60, pool_rounds=1
    ),
    "orbit_coding": dict(letters=200, returns=10, steps=700, n_max=12, pool_rounds=1),
    "union_growth": dict(circles=6, prefix=300, n_max=6, pool_rounds=1),
    "cli_mix": dict(pool_rounds=1),
}


def tiny_run(name: str, traced: bool) -> dict:
    """One run at tiny sizes; set-up is timed in-process to keep it short."""
    workload = workloads.WORKLOADS[name](**TINY[name])
    cw, pool = run.set_up(workload, 3)

    def time_set_up():
        clock = measure.CLOCK()
        run.set_up(workload, 3)
        return measure.CLOCK() - clock

    log = run.measure(workload, cw, pool, 0, traced, time_set_up)
    assert len(log["setup_times"]) == run.SETUP_REPEATS
    return log


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_passes_its_gates(name):
    log = tiny_run(name, traced=True)
    assert log["failures"] == []
    assert log["attempted"] >= run.MIN_OPS
    spec = run.spec()
    values, note = run.end_to_end(log)
    assert {m["name"] for m in spec["end_to_end"]} <= set(values)
    assert values.pop("fail_ratio") == 0
    assert all(value > 0 for value in values.values())
    assert "op_tail_ms is p" in note
    layers = run.per_layer(log, [m["name"] for m in spec["per_layer"]])
    assert any(value > 0 for name, value in layers.items() if name != "trace_overhead_s")


def test_wrong_expectation_is_counted_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.CLASS_K, "golden", 4)
    log = tiny_run("orbit_coding", traced=False)
    rounds = log["attempted"] // len(workloads.CLASSES)
    assert len(log["failures"]) == rounds
    assert all("golden circle has k=5, expected 4" in f for f in log["failures"])


class Flaky(workloads.Workload):
    """Ops on odd inputs raise; the gate rejects inputs divisible by 4."""

    name = "flaky"

    def make_inputs(self, cw, rng):
        return [[1, 2], [3, 4]]

    def op(self, cw, inp, t):
        if inp % 2:
            raise ValueError("odd input")
        return t.call("fake.double", lambda x: 2 * x, inp)

    def check(self, cw, inp, out):
        return "divisible by 4" if inp % 4 == 0 else None


def test_raised_and_rejected_ops_both_count():
    log = run.measure(Flaky(), None, Flaky().make_inputs(None, None), seconds=0, traced=True)
    rounds = log["attempted"] // 2
    assert rounds * 2 >= run.MIN_OPS
    # every op fails except input 2 (even, not divisible by 4)
    assert len(log["failures"]) == log["attempted"] - (rounds + 1) // 2
    assert "ValueError: odd input" in log["failures"]
    assert "divisible by 4" in log["failures"]


def test_self_time_is_duration_minus_child_cover():
    spans = [
        Span(0, None, "op", 0.0, 10.0, 1, 0),
        Span(1, 0, "a", 1.0, 3.0, 1, 0),
        Span(2, 0, "b", 2.0, 5.0, 1, 0),  # overlaps a: [1, 5] is covered once
        Span(3, 0, "c", 9.0, 12.0, 1, 0),  # clipped to the parent's end
        Span(4, 2, "d", 2.5, 3.5, 1, 0),  # grandchild: counts against b only
    ]
    own = measure.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    totals = measure.layer_totals(spans)
    assert totals["b"] == measure.LayerTotals(1, pytest.approx(2.0), 1)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert measure.tail(list(range(10))) is None
    value, percentile = measure.tail([float(v) for v in range(11)])
    assert (value, percentile) == (0.0, pytest.approx(100 / 11))
    samples = [float(v) for v in range(1, 101)]
    value, percentile = measure.tail(samples[::-1])
    assert value == 90.0 and percentile == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_layer_kind_is_read_from_the_metric_name():
    kinds = {
        "billiard.trace_letters.letters_per_s": "rate",
        "returns.cell_of.per_s": "rate",
        "words.complexity.busy_s": "busy",
        "billiard.validate.calls": "calls",
        "cli.trace.p50_ms": "p50",
        "words.automaton_states": "count",
        "directional.self_s": "union_self",
        "trace_overhead_s": "overhead",
    }
    assert {name: run.layer_kind(name) for name in kinds} == kinds


def test_cold_set_up_times_a_fresh_process():
    seconds = run.cold_set_up(workloads.WORKLOADS["union_growth"](), 3)
    assert 0 < seconds < 60


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_words",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
