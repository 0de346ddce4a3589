"""The benchmark's own tests: oracles on hand-computed cases, and a
minimal-size run of each workload with zero failed operations.

    python3 -m pytest -q sfabench
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import opbench  # noqa: E402
import oracles  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402
from sfanas import graphs  # noqa: E402


def test_auc_hand_cases():
    assert oracles.auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75
    assert oracles.auc([0.5, 0.5], [1, 0]) == 0.5
    assert oracles.auc([0.1, 0.9], [1, 0]) == 0.0


def test_ap_hand_cases():
    assert oracles.ap_single([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx((1 + 2 / 3) / 2)
    # equal scores rank by index: positives at ranks 2 and 3
    assert oracles.ap_single([0.0, 0.0, 0.0], [0, 1, 1]) == pytest.approx((1 / 2 + 2 / 3) / 2)
    nan = float("nan")
    scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.3]])
    labels = np.array([[1, nan], [0, 1], [1, 0]])
    # task 0: order 0, 2, 1 -> AP 1; task 1 (row 0 masked): order 1, 2 -> AP 1
    assert oracles.ap(scores, labels) == 1.0
    labels[:, 1] = [nan, 1, 1]  # task 1 keeps one class and drops out
    assert oracles.ap(scores, labels) == 1.0


def test_segment_loop_with_empty_segment():
    values = np.array([[1.0, -2.0], [3.0, 4.0], [5.0, 6.0]])
    ids = np.array([0, 0, 2])
    assert oracles.segment(values, ids, 3, "sum").tolist() == [[4, 2], [0, 0], [5, 6]]
    assert oracles.segment(values, ids, 3, "mean").tolist() == [[2, 1], [0, 0], [5, 6]]
    assert oracles.segment(values, ids, 3, "max").tolist() == [[3, 4], [0, 0], [5, 6]]


def test_dense_references_on_a_path():
    edges = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
    H = np.array([[1.0], [2.0], [4.0]])
    one = np.ones((1, 1))
    # GCN: dhat = (2, 3, 2); node 0 gets 2/sqrt(6) + 1/2
    out = oracles.gcn(edges, 3, H, {"W": one})
    assert out[0, 0] == pytest.approx(2 / np.sqrt(6) + 0.5)
    assert out[1, 0] == pytest.approx(1 / np.sqrt(6) + 4 / np.sqrt(6) + 2 / 3)
    # GIN with eps 0 and identity MLP: self + neighbour sum
    p = {"eps": np.zeros(1), "W1": one, "b1": np.zeros((1, 1)),
         "W2": one, "b2": np.zeros((1, 1))}
    assert oracles.gin(edges, 3, H, p)[:, 0].tolist() == [3.0, 7.0, 6.0]
    assert oracles.undirected_degree(edges, 3).tolist() == [1, 2, 1]


def test_equal_attention_logits_give_uniform_weights():
    edges = np.array([[0, 1], [2, 1]])
    p = {"W": np.ones((1, 1)), "a_src": np.zeros((1, 1)), "a_dst": np.zeros((1, 1))}
    attn, src, dst, _ = oracles.gat_attention(edges, 3, np.ones((3, 1)), p, "plain")
    assert np.bincount(dst, weights=attn).tolist() == [1.0, 1.0, 1.0]
    assert attn[dst == 1].tolist() == pytest.approx([1 / 3] * 3)


def test_central_difference():
    x = np.array([3.0])
    assert oracles.central_difference(lambda v: float(v[0] ** 2), x, (0,)) == \
        pytest.approx(6.0)
    assert x[0] == 3.0


def test_program_ops_match_references():
    ds = graphs.generate_synthetic(graphs.SyntheticSpec("triangle-threshold", num_graphs=12), 3)
    batch = graphs.batch_graphs(ds.graphs)
    checks = pipeline.Checks()
    opbench.check_ops(batch, seed=3, hidden=4, check=checks)
    assert checks.attempted > 0 and checks.failed == 0


def test_large_records_keep_both_classes_per_split():
    records, splits = workloads.large_records(workloads.WORKLOADS["large-edgefeat"], seed=7)
    assert [len(splits[s]) for s in ("train", "valid", "test")] == [64, 32, 32]
    assert all(a < b for r in records for a, b in r["edges"])
    assert any(r["label"][1] is None for r in records)


MINIMAL = {
    "triangle-small": dict(num_graphs=120, setup_repeats=1, evals_per_round=1),
    "large-edgefeat": dict(num_graphs=48, min_nodes=10, max_nodes=20, edge_prob=0.3,
                           setup_repeats=1, evals_per_round=1),
}


@pytest.mark.parametrize("name", sorted(MINIMAL))
@pytest.mark.parametrize("trace", [False, True])
def test_minimal_run_has_no_failures(name, trace, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], **MINIMAL[name])
    result = pipeline.Run(w, seed=0, seconds=0, trace=trace, out_dir=tmp_path).execute()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
