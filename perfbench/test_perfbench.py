"""Self-tests of the benchmark's own arithmetic and a tiny smoke of each workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import stats  # noqa: E402
from perfbench.layers import TARGETS, span_metrics  # noqa: E402
from perfbench.spans import Span, Target, Tracer, covered, patched, roots, self_times  # noqa: E402
from perfbench.workloads import SPECS, run_workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------- spans
def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([(2, 3), (2, 3)], 0, 10) == 1
    assert covered([(-5, -1), (11, 20)], 0, 10) == 0
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a
        Span("c", 8.0, 12.0, 0),  # runs past the parent's end
        Span("grandchild", 1.5, 2.0, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 3.0, 4.0, 0.5])
    assert roots(spans) == [0, 0, 0, 0, 0]


def test_tracer_nests_spans_and_counts_rows():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(xs):
        return sum(xs)

    traced_inner = tracer.wrap(inner, "inner", rows=lambda args, result: len(args[0]))
    with tracer.span("outer"):
        assert traced_inner([1, 2, 3]) == 6
    outer, inner_span = tracer.spans
    assert (outer.name, outer.parent, outer.start, outer.end) == ("outer", -1, 0.0, 3.0)
    assert (inner_span.parent, inner_span.start, inner_span.end) == (0, 1.0, 2.0)
    assert inner_span.rows == 3


def test_patched_restores_every_target_even_when_one_is_missing():
    import repro.core.pipeline as pipeline

    original = pipeline.divide
    targets = [
        Target("repro.core.pipeline", "divide", "division.divide"),
        Target("repro.core.pipeline", "no_such_function", "missing"),
    ]
    with pytest.raises(KeyError):
        with patched(Tracer(), targets):
            pass
    assert pipeline.divide is original


def test_every_target_is_defined_where_it_is_patched():
    tracer = Tracer()
    with patched(tracer, TARGETS):
        pass
    assert tracer.spans == []


def test_span_metrics_average_self_time_per_operation_and_skip_check_work():
    spans = [
        Span("fit", 0.0, 10.0, -1),
        Span("division.gn", 1.0, 5.0, 0),
        Span("gbdt.fit", 5.0, 9.0, 0, rows=40),
        Span("fit", 20.0, 26.0, -1),
        Span("division.gn", 20.0, 22.0, 3),
        Span("commcnn.fit", 22.0, 26.0, 3, rows=20),
        Span("query", 30.0, 30.004, -1),
        Span("pipeline.predict", 30.001, 30.003, 6, rows=16),
        Span("pipeline.predict", 40.0, 41.0, -1, rows=64),  # a check, not an operation
    ]
    metrics = span_metrics(spans, batch_size=64)
    assert metrics["fit.division.gn_s"] == (pytest.approx(3.0), "s")
    assert metrics["fit.model.fit_s"] == (pytest.approx(4.0), "s")
    assert metrics["fit.pipeline_s"] == (pytest.approx(1.0), "s")
    assert metrics["fit.model.fit_rows"] == (30.0, "count")
    assert metrics["trace.fit_coverage"][0] == pytest.approx(14.0 / 16.0)
    assert metrics["query.pipeline.predict_ms"][0] == pytest.approx(2.0)
    assert metrics["query.serve_ms"][0] == pytest.approx(2.0)
    assert metrics["query.miss_edges"] == (16.0, "count")
    assert metrics["serve.cache_hit_share"] == (0.75, "share")
    assert metrics["update.model.fit_s"] == (0.0, "s")


# ------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (50000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert stats.tail_percentile(count, 99.0) == expected


def test_tail_percentile_is_the_highest_rung_with_ten_samples_beyond():
    for count in range(20, 3000):
        values = range(count)  # sample i is the i-th smallest, so count - 1 - v lie beyond v
        chosen = stats.tail_percentile(count, 99.9)
        assert count - 1 - stats.percentile(values, chosen) >= 10
        higher = [q for q in stats.TAIL_LADDER if q > chosen]
        if higher:
            assert count - 1 - stats.percentile(values, min(higher)) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 99.0) == 990
    assert stats.percentile(values, 50.0) == 500
    assert stats.percentile([7.0], 99.0) == 7.0
    assert stats.median([1.0, 2.0, 3.0, 10.0]) == 2.5


def test_windowed_tail_takes_the_median_window_and_ignores_one_noisy_burst():
    quiet = [1.0] * 980 + [2.0] * 20
    noisy = [1.0] * 900 + [9.0] * 100
    value, windows = stats.windowed_tail(quiet + noisy + quiet + [1.0] * 500, 99.0, 1000)
    assert (value, windows) == (2.0, 3)
    # Below two windows it is the plain tail percentile of every sample.
    assert stats.windowed_tail(noisy, 99.0, 1000) == (9.0, 1)
    assert stats.windowed_tail(list(range(200)), 99.0, 1000) == (189, 1)
    with pytest.raises(ValueError):
        stats.windowed_tail([1.0] * 19, 99.0, 1000)


def test_macro_f1_is_the_unweighted_class_mean():
    truth = np.array([0, 0, 0, 0, 1, 2])
    pred = np.array([0, 0, 0, 0, 2, 2])
    # F1: class 0 = 1, class 1 = 0, class 2 = 2/3.
    assert stats.macro_f1(truth, pred, [0, 1, 2]) == pytest.approx((1 + 0 + 2 / 3) / 3)


# ---------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_names_match_what_the_runs_print():
    assert set(BENCHMARK["workloads"][i]["name"] for i in range(3)) == set(SPECS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


# --------------------------------------------------------- workload smokes
def _tiny(name: str):
    return dataclasses.replace(SPECS[name], scale="tiny", batches_per_update=20)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_workload_smoke_untraced(name):
    bench = run_workload(_tiny(name), seed=3, seconds=0.0, trace=False)
    metrics, counts = bench.end_to_end()
    assert bench.samples.failed == 0
    assert bench.samples.attempted == counts["fits"] * SPECS[name].fit_in_round + (
        counts["queries"] + counts["updates"]
    )
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert all(value > 0 for value, _ in metrics.values())
    # 20-batch rounds give fewer than 1,000 samples: the tail drops below p99.
    assert counts["query_tail_percentile"] < 99.0


@pytest.mark.parametrize("name", sorted(SPECS))
def test_workload_smoke_traced(name):
    bench = run_workload(_tiny(name), seed=4, seconds=0.0, trace=True)
    metrics = bench.per_layer()
    assert bench.samples.failed == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    for name_, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            assert value > 0, name_
    assert metrics["trace.fit_coverage"][0] > 0.9
    assert metrics["trace.update_coverage"][0] > 0.9


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-cnn-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
