"""Tests of the benchmark itself (run: python -m pytest perfbench/tests -q)."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from perfbench import oracle
from perfbench.workloads import (
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    Config,
    ZipfStream,
    lru_hits,
    run,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def tiny(workload: str, checkout: str, **overrides) -> Config:
    """A sub-second run of ``workload`` on a few hundred records."""
    settings = dict(
        workload=workload, seed=3, seconds=0.4, n=300, initial_rows=260, trials=2,
        warmup_reads=8, warmup_zipf_reads=64, warmup_batches=2,
        warmup_writes=4, oracle_queries=8, oracle_every=7, oracle_batch_every=2,
        stream_prefill=0, checkout=checkout,
    )
    settings.update(overrides)
    return Config(**settings)


def test_benchmark_json_names_the_metrics_the_code_reports():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _moves in PER_LAYER
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert max(BENCHMARK["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_end_to_end_metric_present(workload, tmp_path):
    result = run(tiny(workload, str(tmp_path)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert result["metadata"]["config"]["seed"] == 3
    assert not os.listdir(tmp_path / ".perfbench_work")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_every_per_layer_metric_present(workload, tmp_path):
    result = run(tiny(workload, str(tmp_path), trace=True))
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    layers = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert all(result["report"]["bypass_checks"].values()), result["report"]["bypass_checks"]
    assert layers["builder.layers_s"] > 0 and layers["recovery.load_s"] > 0
    assert os.path.exists(result["report"]["spans_file"])
    if workload == "write-mix":
        assert layers["overlay.calls"] > 0 and layers["maintenance.apply_ms_p50"] > 0
    if workload == "batch-64":
        assert layers["compiled.batch_ms_p50"] > 0


def test_tracing_leaves_the_library_unpatched(tmp_path):
    import repro.serve.index as index
    from repro.core.compiled import CompiledDG

    before = (index.batch_top_k, CompiledDG.top_k, index.ServingIndex.query)
    run(tiny("read-distinct", str(tmp_path), trace=True))
    assert (index.batch_top_k, CompiledDG.top_k, index.ServingIndex.query) == before


def _scan_result(values, live, weights, k):
    from repro.core.result import TopKResult
    from repro.metrics.counters import AccessCounter

    ids, scores = oracle.scan_top_k(values, live, weights, k)
    return TopKResult(tuple(ids.tolist()), tuple(scores.tolist()), AccessCounter())


def test_oracle_rejects_an_altered_answer():
    values = np.random.default_rng(0).uniform(0, 1000, size=(200, 4))
    live = np.arange(200)
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    good = _scan_result(values, live, weights, 10)
    assert oracle.mismatch(good, values, live, weights, 10) is None

    nudged = replace(good, scores=(float(np.nextafter(good.scores[0], 0.0)),) + good.scores[1:])
    swapped = replace(good, ids=(good.ids[1], good.ids[0]) + good.ids[2:])
    short = replace(good, ids=good.ids[:-1], scores=good.scores[:-1])
    for altered in (nudged, swapped, short):
        assert oracle.mismatch(altered, values, live, weights, 10) is not None


def test_a_wrong_answer_fails_the_run(tmp_path, monkeypatch):
    from repro.serve.index import ServingIndex

    honest = ServingIndex.query

    def off_by_one(self, function, k, **kwargs):
        result = honest(self, function, k, **kwargs)
        return replace(result, ids=result.ids[1:] + result.ids[:1])

    monkeypatch.setattr(ServingIndex, "query", off_by_one)
    result = run(tiny("read-distinct", str(tmp_path)))
    assert not result["correct"]
    assert result["failed"] >= 1 and result["mismatches"]


def test_zipf_hit_count_repeats_for_a_fixed_seed(tmp_path):
    from repro.data.generators import uniform
    from repro.serve.index import ServingIndex

    def hits(directory):
        stream = ZipfStream(4, seed=7, pool_size=1024, s=1.0, stream=1)
        keys = []
        with ServingIndex.create(directory, uniform(200, 4, 7), fsync="never") as index:
            for _ in range(3000):
                function = stream.next()
                keys.append(function.weights.tobytes())
                index.query(function, 10)
            return index.health()["cache"]["hits"], keys

    first, keys = hits(str(tmp_path / "a"))
    second, _ = hits(str(tmp_path / "b"))
    assert first == second == lru_hits(keys, 256)


def test_zipf_working_set_is_mostly_hits_at_full_size():
    stream = ZipfStream(4, seed=1, pool_size=1024, s=1.0, stream=1)
    keys = [id(stream.next()) for _ in range(30_000)]
    assert 0.70 < lru_hits(keys, 256) / len(keys) < 0.78


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-distinct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_ops_per_s_divides_by_service_time_not_by_the_window():
    from perfbench.workloads import Window

    window = Window(queries=6, busy=0.5, elapsed=10.0, write_latencies=[0.2, 0.1])
    assert window.ops_per_s == 16.0


def test_ops_per_ref_cancels_the_host_speed():
    from perfbench.workloads import Segment

    segment = Segment(ops=300, busy=0.25, reference=10_000.0)
    assert segment.ops_per_ref == 0.12
    # The same work on a host running at half speed takes twice the time,
    # and the reference runs at half the rate: the figure does not move.
    assert Segment(ops=300, busy=0.5, reference=5_000.0).ops_per_ref == segment.ops_per_ref


def test_reference_rate_is_units_per_cpu_second():
    from perfbench.workloads import reference_rate

    rate = reference_rate(0.02)
    assert 0 < rate < 1e6


def test_every_segment_of_a_run_is_reported(tmp_path):
    config = tiny("read-zipf", str(tmp_path), seconds=1.2, segment_seconds=0.1,
                  reference_seconds=0.01)
    result = run(config)
    segments = result["report"]["ops_per_ref"]["count"]
    assert segments == 2 * 5  # two trials of 0.6 s, each five 0.11 s segments
    assert result["report"]["ops_per_s"]["value"] > 0
    assert result["report"]["reference_rate"]["value"] > 0
