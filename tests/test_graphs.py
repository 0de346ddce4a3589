import itertools
import json

import numpy as np
import pytest

from sfanas.graphs import (Dataset, Graph, ParseError, SyntheticSpec, TaskSchema,
                           ValidationError, add_virtual_node, batch_graphs,
                           compute_degrees, count_triangles, generate_synthetic,
                           load_dataset, unbatch, write_dataset)


def _graph(n, edges, d=2, label=None):
    rng = np.random.default_rng(n * 31 + len(edges))
    return Graph(node_features=rng.standard_normal((n, d)),
                 edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                 label=label)


# ---------------------------------------------------------------------------
# Graph / GraphBatch


def test_edge_bounds_validated():
    with pytest.raises(ValidationError):
        _graph(3, [[0, 5]])


def test_edge_feature_rows_must_match():
    with pytest.raises(ValidationError):
        Graph(node_features=np.ones((2, 1)), edges=np.array([[0, 1]]),
              edge_features=np.ones((3, 2)))


def test_edge_features_must_be_2d():
    with pytest.raises(ValidationError, match="2-d"):
        Graph(node_features=np.ones((1, 1)), edges=np.zeros((0, 2)),
              edge_features=np.zeros(0))


def test_batch_two_graphs():
    b = batch_graphs([_graph(2, [[0, 1]]), _graph(3, [[0, 1], [1, 2]])])
    np.testing.assert_array_equal(b.graph_ids, [0, 0, 1, 1, 1])
    assert b.num_graphs == 2
    # second graph's (0,1) is offset by the 2 nodes before it
    np.testing.assert_array_equal(b.edges[1], [2, 3])


def test_batch_single_graph_is_identity():
    g = _graph(4, [[0, 1], [2, 3]])
    b = batch_graphs([g])
    np.testing.assert_array_equal(b.node_features, g.node_features)
    np.testing.assert_array_equal(b.edges, g.edges)
    np.testing.assert_array_equal(b.graph_ids, np.zeros(4, dtype=np.int64))


def test_batch_rejects_mixed_widths():
    with pytest.raises(ValidationError):
        batch_graphs([_graph(2, [], d=2), _graph(2, [], d=3)])


def test_batch_unbatch_round_trip():
    rng = np.random.default_rng(0)
    graphs = []
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 2 * n))
        edges = rng.integers(0, n, size=(m, 2))
        ef = rng.standard_normal((m, 3))
        graphs.append(Graph(node_features=rng.standard_normal((n, 2)),
                            edges=edges, edge_features=ef,
                            label=np.array([float(rng.integers(0, 2))])))
    back = unbatch(batch_graphs(graphs))
    assert len(back) == len(graphs)
    for g, h in zip(graphs, back):
        np.testing.assert_array_equal(g.node_features, h.node_features)
        np.testing.assert_array_equal(g.edges, h.edges)
        np.testing.assert_array_equal(g.edge_features, h.edge_features)
        np.testing.assert_array_equal(g.label, h.label)


# ---------------------------------------------------------------------------
# virtual node


def test_virtual_node_counts():
    g = _graph(3, [[0, 1], [1, 0]])
    v = add_virtual_node(g)
    assert v.num_nodes == 4
    assert v.edges.shape[0] == 2 + 6


def test_virtual_node_single_node():
    v = add_virtual_node(_graph(1, []))
    assert v.num_nodes == 2
    assert v.edges.shape[0] == 2


def test_virtual_node_not_idempotent():
    g = _graph(3, [])
    assert add_virtual_node(add_virtual_node(g)).num_nodes == 5


def test_virtual_node_zero_features():
    g = Graph(node_features=np.ones((2, 3)), edges=np.array([[0, 1]]),
              edge_features=np.ones((1, 2)))
    v = add_virtual_node(g)
    np.testing.assert_array_equal(v.node_features[-1], np.zeros(3))
    np.testing.assert_array_equal(v.edge_features[1:], np.zeros((4, 2)))
    assert v.edge_features.shape[0] == v.edges.shape[0]


# ---------------------------------------------------------------------------
# degrees


def test_degrees_three_cycle():
    g = _graph(3, [[0, 1], [1, 0], [1, 2], [2, 1], [2, 0], [0, 2]])
    np.testing.assert_array_equal(compute_degrees(g), [2, 2, 2])


def test_degrees_isolated_node():
    np.testing.assert_array_equal(compute_degrees(_graph(2, [])), [0, 0])


def test_degrees_star():
    edges = [[0, 1], [1, 0], [0, 2], [2, 0], [0, 3], [3, 0]]
    np.testing.assert_array_equal(compute_degrees(_graph(4, edges)), [3, 1, 1, 1])


def test_degrees_count_directed_pair_once():
    # one direction only still counts as the same undirected edge
    np.testing.assert_array_equal(compute_degrees(_graph(2, [[0, 1]])), [1, 1])
    np.testing.assert_array_equal(compute_degrees(_graph(2, [[0, 1], [1, 0]])), [1, 1])


# ---------------------------------------------------------------------------
# synthetic data


def test_synthetic_deterministic():
    spec = SyntheticSpec(task="triangle-threshold", num_graphs=30)
    a = generate_synthetic(spec, seed=5)
    b = generate_synthetic(spec, seed=5)
    for g, h in zip(a.graphs, b.graphs):
        assert g.node_features.tobytes() == h.node_features.tobytes()
        assert g.edges.tobytes() == h.edges.tobytes()
        assert g.label.tobytes() == h.label.tobytes()
    for split in ("train", "valid", "test"):
        np.testing.assert_array_equal(a.splits[split], b.splits[split])


def test_triangle_count_examples():
    cycle = np.array([[0, 1], [1, 0], [1, 2], [2, 1], [2, 0], [0, 2]])
    assert count_triangles(cycle, 3) == 1
    path = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
    assert count_triangles(path, 3) == 0


def _brute_triangles(edges, n):
    adj = set()
    for u, v in edges:
        if u != v:
            adj.add((min(u, v), max(u, v)))
    count = 0
    for a, b, c in itertools.combinations(range(n), 3):
        if {(a, b), (a, c), (b, c)} <= adj:
            count += 1
    return count


def test_synthetic_labels_match_brute_force():
    for task in ("triangle-threshold", "degree-parity"):
        spec = SyntheticSpec(task=task, num_graphs=50, min_nodes=4, max_nodes=9)
        ds = generate_synthetic(spec, seed=2)
        for g in ds.graphs:
            if task == "triangle-threshold":
                want = 1.0 if _brute_triangles(g.edges, g.num_nodes) >= 3 else 0.0
            else:
                deg = np.zeros(g.num_nodes)
                seen = set()
                for u, v in g.edges:
                    key = (min(u, v), max(u, v))
                    if key not in seen:
                        seen.add(key)
                        deg[u] += 1
                        deg[v] += 1
                want = float(int(deg.sum()) % 2)
            assert g.label[0] == want


def test_synthetic_split_sizes_and_partition():
    ds = generate_synthetic(SyntheticSpec(task="triangle-threshold"), seed=0)
    tr, va, te = (ds.splits[s] for s in ("train", "valid", "test"))
    assert len(tr) == 400 and len(va) == 50 and len(te) == 50
    merged = np.concatenate([tr, va, te])
    assert len(set(merged.tolist())) == 500


def test_synthetic_bad_spec():
    with pytest.raises(ValidationError):
        SyntheticSpec(task="unknown-task")
    with pytest.raises(ValidationError):
        SyntheticSpec(task="triangle-threshold", min_nodes=10, max_nodes=5)
    with pytest.raises(ValidationError):
        SyntheticSpec(task="triangle-threshold", edge_prob=1.5)


# ---------------------------------------------------------------------------
# JSON-lines IO


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_load_dataset_preserves_order(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [
        json.dumps({"num_nodes": 1, "node_feat": [[1.0]], "edges": [],
                    "edge_feat": None, "label": 0}),
        json.dumps({"num_nodes": 2, "node_feat": [[2.0], [3.0]],
                    "edges": [[0, 1]], "edge_feat": None, "label": 1}),
    ])
    ds = load_dataset(p, TaskSchema("binary"))
    assert len(ds.graphs) == 2
    assert ds.graphs[0].num_nodes == 1 and ds.graphs[1].num_nodes == 2


def test_load_dataset_bad_edge_names_line(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [
        json.dumps({"num_nodes": 1, "node_feat": [[1.0]], "edges": [],
                    "edge_feat": None, "label": 0}),
        json.dumps({"num_nodes": 3, "node_feat": [[1.0], [1.0], [1.0]],
                    "edges": [[0, 5]], "edge_feat": None, "label": 0}),
    ])
    with pytest.raises(ValidationError, match="line 2"):
        load_dataset(p, TaskSchema("binary"))


def test_load_dataset_bad_binary_label(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [json.dumps({"num_nodes": 1, "node_feat": [[1.0]],
                                 "edges": [], "edge_feat": None, "label": 0.5})])
    with pytest.raises(ValidationError, match="line 1"):
        load_dataset(p, TaskSchema("binary"))


def test_load_dataset_malformed_json_names_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_dataset(p, TaskSchema("binary"))


def test_load_dataset_symmetrizes(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [json.dumps({"num_nodes": 2, "node_feat": [[1.0], [2.0]],
                                 "edges": [[0, 1]], "edge_feat": [[7.0]],
                                 "label": 0})])
    g = load_dataset(p, TaskSchema("binary")).graphs[0]
    assert g.edges.shape[0] == 2
    assert sorted(map(tuple, g.edges.tolist())) == [(0, 1), (1, 0)]
    np.testing.assert_array_equal(g.edge_features, [[7.0], [7.0]])
    raw = load_dataset(p, TaskSchema("binary"), symmetrize=False).graphs[0]
    assert raw.edges.shape[0] == 1


@pytest.mark.parametrize("edgeless_first", [False, True])
def test_load_dataset_edgeless_record_takes_file_edge_width(tmp_path, edgeless_first):
    records = [
        json.dumps({"num_nodes": 2, "node_feat": [[1.0], [2.0]],
                    "edges": [[0, 1]], "edge_feat": [[0.5]], "label": 0}),
        json.dumps({"num_nodes": 1, "node_feat": [[3.0]],
                    "edges": [], "edge_feat": [], "label": 1}),
    ]
    p = tmp_path / "d.jsonl"
    _write_lines(p, records[::-1] if edgeless_first else records)
    ds = load_dataset(p, TaskSchema("binary"))
    assert ds.num_edge_features == 1
    assert ds.graphs[0 if edgeless_first else 1].edge_features.shape == (0, 1)
    batch = batch_graphs(ds.graphs)
    np.testing.assert_array_equal(batch.edge_features, [[0.5], [0.5]])


def _record(width=2, edge_width=1, **overrides):
    rec = {"num_nodes": 2, "node_feat": [[1.0] * width, [2.0] * width],
           "edges": [[0, 1]], "edge_feat": [[0.5] * edge_width], "label": 0}
    rec.update(overrides)
    return json.dumps(rec)


@pytest.mark.parametrize("odd,message", [
    (_record(width=3), "node_feat width 3 differs from 2 on line 1"),
    (_record(edge_width=2), "edge_feat width 2 differs from 1 on line 1"),
    (_record(edge_feat=None), "edge_feat presence False differs from True on line 1"),
], ids=["node-width", "edge-width", "edge-presence"])
def test_load_dataset_rejects_mixed_feature_layout(tmp_path, odd, message):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [_record(), _record(), odd])
    with pytest.raises(ValidationError, match=f"line 3: {message}"):
        load_dataset(p, TaskSchema("binary"))


@pytest.mark.parametrize("bad", [
    {"node_feat": [[float("nan"), 1.0], [2.0, 2.0]]},
    {"node_feat": [["1.5", 1.0], [2.0, 2.0]]},
    {"edge_feat": [[float("inf")]]},
    {"edges": [[0, 1.5]]},
    {"edges": [[False, True]]},
    {"label": True},
    {"label": "1"},
], ids=["nan-node-feat", "string-node-feat", "inf-edge-feat", "fractional-edge",
        "bool-edge", "bool-label", "string-label"])
def test_load_dataset_rejects_bad_values(tmp_path, bad):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [_record(), _record(**bad)])
    with pytest.raises((ParseError, ValidationError), match="line 2"):
        load_dataset(p, TaskSchema("binary"))


def test_load_dataset_takes_whole_float_endpoints(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [_record(edges=[[0.0, 1.0]])])
    np.testing.assert_array_equal(load_dataset(p, TaskSchema("binary")).graphs[0].edges,
                                  [[0, 1], [1, 0]])


def test_multi_binary_labels_with_missing(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [json.dumps({"num_nodes": 1, "node_feat": [[0.0]],
                                 "edges": [], "edge_feat": None,
                                 "label": [1, None, 0]})])
    schema = TaskSchema("multi-binary", num_tasks=3)
    g = load_dataset(p, schema).graphs[0]
    assert g.label[0] == 1.0 and np.isnan(g.label[1]) and g.label[2] == 0.0


def test_write_then_load_round_trip(tmp_path):
    ds = generate_synthetic(SyntheticSpec(task="triangle-threshold",
                                          num_graphs=20), seed=3)
    write_dataset(ds, tmp_path / "d.jsonl", tmp_path / "s.json")
    back = load_dataset(tmp_path / "d.jsonl", TaskSchema("binary"),
                        splits_path=tmp_path / "s.json")
    assert len(back.graphs) == 20
    for g, h in zip(ds.graphs, back.graphs):
        np.testing.assert_array_equal(g.node_features, h.node_features)
        np.testing.assert_array_equal(np.sort(g.edges, axis=0),
                                      np.sort(h.edges, axis=0))
        np.testing.assert_array_equal(g.label, h.label)
    for split in ("train", "valid", "test"):
        np.testing.assert_array_equal(ds.splits[split], back.splits[split])


def test_splits_must_partition():
    graphs = [_graph(2, [], label=np.array([0.0])) for _ in range(4)]
    schema = TaskSchema("binary")
    with pytest.raises(ValidationError):
        Dataset(graphs=graphs, schema=schema,
                splits={"train": np.array([0, 1]), "valid": np.array([1]),
                        "test": np.array([2, 3])})
    with pytest.raises(ValidationError):
        Dataset(graphs=graphs, schema=schema,
                splits={"train": np.array([0]), "valid": np.array([1]),
                        "test": np.array([2])})
