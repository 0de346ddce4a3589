"""The benchmark's workloads and the inputs it generates for them.

Each workload is built from ``--seed`` alone: the seed draws the graphs,
their features and labels. The program's own seeds (search, retrain) stay
fixed, so the program receives only the generated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sfanas import graphs
from sfanas.supernet import ArchEncoding

# The architecture every round retrains from scratch. It reaches the ops
# that dominate both workloads: GAT and GEN aggregation, LSTM fusion over
# up to four inputs and the GLOBAL_MAX readout.
FIXED_ARCH = ArchEncoding(
    num_blocks=4,
    selection=((1,), (1, 1), (0, 1, 1), (1, 0, 1, 1)),
    fusion=("LSTM", "LSTM", "SUM", "LSTM"),
    aggregation=("GAT", "GEN", "GAT", "GEN"),
    readout="GLOBAL_MAX")


@dataclass(frozen=True)
class Workload:
    """What one run does, apart from how many rounds fit in its time."""
    name: str
    num_graphs: int
    min_nodes: int
    max_nodes: int
    num_blocks: int = 4
    hidden: int = 32
    batch_size: int = 32
    search_epochs: int = 2
    retrain_epochs: int = 8
    evals_per_round: int = 3
    setup_repeats: int = 9
    edge_prob: float = 0.25


WORKLOADS = {
    # ROADMAP acceptance workload: 500 in-memory graphs of 8-16 nodes,
    # about 370 nodes and 1,000 directed edges per 32-graph batch.
    "triangle-small": Workload("triangle-small", num_graphs=500,
                               min_nodes=8, max_nodes=16),
    # 128 graphs of 40-70 nodes read back from JSONL: about 1,760 nodes
    # and 10,000 directed edges per batch, 3-wide edge features and a
    # two-task label with missing entries.
    "large-edgefeat": Workload("large-edgefeat", num_graphs=128,
                               min_nodes=40, max_nodes=70, edge_prob=0.105),
}

# large-edgefeat split: positions 0-3 of every run of 8 go to train, 4-5
# to valid and 6-7 to test, over indices grouped by label pattern, so a
# pattern held by 8 or more graphs reaches every split.
_SPLIT_CYCLE = ("train",) * 4 + ("valid",) * 2 + ("test",) * 2
MISSING_RATE = 0.2  # share of task-1 labels written as null


def make_triangle_small(w: Workload, seed: int) -> graphs.Dataset:
    spec = graphs.SyntheticSpec(task="triangle-threshold", num_graphs=w.num_graphs,
                                min_nodes=w.min_nodes, max_nodes=w.max_nodes,
                                edge_prob=w.edge_prob)
    return graphs.generate_synthetic(spec, seed=seed)


def _triangles(n: int, pairs: np.ndarray) -> int:
    adj = np.zeros((n, n))
    adj[pairs[:, 0], pairs[:, 1]] = 1.0
    adj[pairs[:, 1], pairs[:, 0]] = 1.0
    return int(round(np.trace(adj @ adj @ adj) / 6.0))


def large_records(w: Workload, seed: int):
    """JSONL records plus splits for large-edgefeat.

    Node counts are spread evenly over [min_nodes, max_nodes]; half the
    graphs are sparse and half dense (0.8x or 1.2x ``edge_prob``), and
    half have an edge-type mix in which type 0 has probability 0.7
    instead of 0.3. The seed decides which graph gets which, and draws
    the edges, so the total work varies little from seed to seed. Each
    undirected edge is stored once, as (i, j) with i < j; the loader adds
    the reverse pair. Node features are [1, degree]; edge features are
    the one-hot type. Task 0 is "triangle count at or above the dataset
    median"; task 1 is "type-0 edges are at least half", and is null for
    a fixed share of graphs.
    """
    rng = np.random.default_rng([int(seed), 0xB16])
    count = w.num_graphs
    sizes = rng.permutation(np.linspace(w.min_nodes, w.max_nodes, count).round().astype(int))
    dense = rng.permutation(np.arange(count) % 2 == 0)
    type0_rich = rng.permutation(np.arange(count) % 2 == 0)
    missing = rng.permutation(np.arange(count) < round(MISSING_RATE * count))
    raw = []
    for n, is_dense, rich in zip(sizes.tolist(), dense, type0_rich):
        p = w.edge_prob * (1.2 if is_dense else 0.8)
        src, dst = np.nonzero(np.triu(rng.random((n, n)) < p, k=1))
        pairs = np.stack([src, dst], axis=1)
        p0 = 0.7 if rich else 0.3
        types = rng.choice(3, size=len(pairs), p=(p0, (1 - p0) / 2, (1 - p0) / 2))
        deg = np.bincount(pairs.ravel(), minlength=n)
        raw.append((n, pairs, types, deg, _triangles(n, pairs),
                    int(2 * (types == 0).sum() >= len(types))))
    tri_median = np.median([r[4] for r in raw])

    records, patterns = [], []
    for i, (n, pairs, types, deg, tri, mostly_type0) in enumerate(raw):
        t0 = int(tri >= tri_median)
        t1 = None if missing[i] else mostly_type0
        records.append({
            "num_nodes": n,
            "node_feat": np.stack([np.ones(n), deg.astype(np.float64)], axis=1).tolist(),
            "edges": pairs.tolist(),
            "edge_feat": np.eye(3)[types].tolist(),
            "label": [t0, t1],
        })
        patterns.append((t0, -1 if t1 is None else t1))

    order = sorted(range(w.num_graphs), key=lambda i: (patterns[i], rng.random()))
    splits = {"train": [], "valid": [], "test": []}
    for pos, i in enumerate(order):
        splits[_SPLIT_CYCLE[pos % len(_SPLIT_CYCLE)]].append(i)
    splits = {k: sorted(v) for k, v in splits.items()}
    for name, idx in splits.items():
        for task in range(2):
            present = {patterns[i][task] for i in idx} - {-1}
            if present != {0, 1}:
                raise ValueError(f"large-edgefeat seed {seed}: {name} split lacks a class "
                                 f"in task {task}")
    return records, splits


def write_large(w: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    records, splits = large_records(w, seed)
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / "dataset.jsonl"
    splits_path = directory / "splits.json"
    with open(data_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    with open(splits_path, "w", encoding="utf-8") as fh:
        json.dump(splits, fh)
    return data_path, splits_path


LARGE_SCHEMA = graphs.TaskSchema("multi-binary", num_tasks=2)
