import json
from pathlib import Path

import pytest

import brauertilt as bt
import brauertilt.verify  # noqa: F401
import run
from child import check_cold
from inputs import RANDOM_TREE_SIZES, TREES_PER_SIZE, oracle_decisions, pass_rng, random_tree_specs
from workloads import SUITE_DIGESTS, Recorder, verify_cold

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _verify(digests):
    rec = Recorder()
    verify_cold(bt, {"suites": ["line-example"], "digests": digests}, rec)
    return rec


def test_reference_digest_passes():
    rec = _verify(SUITE_DIGESTS)
    assert rec.attempted == 2 and rec.failures == []


def test_wrong_reference_digest_makes_failed_share_nonzero():
    rec = _verify({"line-example": "0" * 16})
    assert len(rec.failures) / rec.attempted == 0.5
    assert "line-example: fingerprint digest" in rec.failures[0]


def test_missing_reference_digest_fails():
    rec = _verify({})
    assert len(rec.failures) / rec.attempted == 0.5


def test_cold_guard_names_a_warm_cache():
    key = ("cold-guard-probe", 0)
    bt.verify._MEMO[key] = None
    try:
        with pytest.raises(RuntimeError, match=r"verify\._MEMO"):
            check_cold(bt)
    finally:
        del bt.verify._MEMO[key]


def test_random_trees_follow_the_seed():
    specs = random_tree_specs(pass_rng(7, 0))
    assert specs == random_tree_specs(pass_rng(7, 0))
    assert specs != random_tree_specs(pass_rng(7, 1))
    assert specs != random_tree_specs(pass_rng(8, 0))
    sizes = [size for size in RANDOM_TREE_SIZES for _ in range(TREES_PER_SIZE)]
    for spec, (n, k) in zip(specs, sizes, strict=True):
        tree = bt.BrauerTree(**spec)
        assert (tree.n, tree.multiplicity) == (n, k)


def test_oracle_decisions_cover_every_covering_once():
    decisions = oracle_decisions(pass_rng(3, 0))
    assert decisions == oracle_decisions(pass_rng(3, 0))
    assert sorted(i for i, _ in decisions) == list(range(922))
    assert all(sorted(perm) == list(range(6)) for _, perm in decisions)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_repeated_items_count_each_time_at_their_median():
    passes = [
        {"items": {"a": 0.001, "random/0/0": 0.005, "b": 0.010}},
        {"items": {"a": 0.003, "random/1/0": 0.006, "b": 0.030}},
        {"items": {"a": 0.002, "b": 0.020}},
    ]
    latencies = sorted(round(ms, 9) for ms in run.item_latencies(passes))
    assert latencies == [2.0, 2.0, 2.0, 5.0, 6.0, 20.0, 20.0, 20.0]


def test_recorder_refuses_a_key_twice_in_one_pass():
    rec = Recorder()
    with rec.timed("a"):
        pass
    with pytest.raises(ValueError, match="twice"):
        with rec.timed("a"):
            pass
