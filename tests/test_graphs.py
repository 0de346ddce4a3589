import collections
import copy
import gc
import itertools
import json
import re
import weakref

import numpy as np
import pytest

from sfanas import autodiff as ad
from sfanas.autodiff import Tensor
from sfanas.ops import AGGREGATION_OPS
from sfanas.supernet import SupernetDims, init_relaxed, supernet_forward
from sfanas.training import task_loss
from sfanas.graphs import (Dataset, Graph, ParseError, SyntheticSpec, TaskSchema,
                           ValidationError, add_virtual_node, batch_graphs,
                           count_triangles, generate_synthetic, load_dataset,
                           located, read_json_lines, write_bytes, write_dataset)
from sfanas.graphs import _symmetrize


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


def test_batch_holds_each_graph_at_its_offsets():
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
    batch = batch_graphs(graphs)
    assert batch.num_graphs == len(graphs)
    n_off = e_off = 0
    for i, g in enumerate(graphs):
        nodes = slice(n_off, n_off + g.num_nodes)
        edges = slice(e_off, e_off + g.edges.shape[0])
        np.testing.assert_array_equal(batch.node_features[nodes], g.node_features)
        np.testing.assert_array_equal(batch.graph_ids[nodes], i)
        np.testing.assert_array_equal(batch.edges[edges] - n_off, g.edges)
        np.testing.assert_array_equal(batch.edge_features[edges], g.edge_features)
        np.testing.assert_array_equal(batch.labels[i], g.label)
        n_off += g.num_nodes
        e_off += g.edges.shape[0]
    assert (n_off, e_off) == (batch.num_nodes, len(batch.edges))


# ---------------------------------------------------------------------------
# index plan


def _plan_batches():
    """Random batches, one without edges, one holding a zero-node graph,
    all with self-loops where they have edges."""
    rng = np.random.default_rng(11)

    def graph(n, m):
        edges = rng.integers(0, max(n, 1), size=(m, 2)) if n else np.zeros((0, 2))
        if m and n:
            edges[::3, 1] = edges[::3, 0]  # self-loops
        return Graph(node_features=rng.standard_normal((n, 2)), edges=edges,
                     edge_features=rng.standard_normal((len(edges), 2)),
                     label=np.array([1.0]))

    yield batch_graphs([graph(int(rng.integers(1, 8)), int(rng.integers(1, 15)))
                        for _ in range(6)])
    yield batch_graphs([graph(3, 0), graph(1, 0)])
    yield batch_graphs([graph(4, 7), graph(0, 0), graph(5, 9), graph(0, 0)])


_PLAN = (("src", "num_nodes"), ("dst", "num_nodes"), ("loop_src", "num_nodes"),
         ("loop_dst", "num_nodes"), ("graph_index", "num_graphs"))


@pytest.mark.parametrize("batch", list(_plan_batches()), ids=["random", "edgeless", "zero-node"])
def test_plan_index_gives_the_bits_of_a_plain_copy(batch):
    """Each kernel gives byte-identical outputs and gradients with the
    batch's index as with a plain int64 copy of its ids."""
    rng = np.random.default_rng(5)
    for name, count in _PLAN:
        index, segments = getattr(batch, name), getattr(batch, count)
        plain = np.array(index.ids, dtype=np.int64)
        assert plain.flags.writeable and not index.ids.flags.writeable
        rows = len(plain)
        runs = [(lambda v, ids, mode=mode: ad.segment_reduce(v, ids, segments, mode),
                 (rows, 3)) for mode in ("sum", "mean", "max")]
        runs.append((lambda v, ids: ad.segment_softmax(v, ids, segments), (rows, 3)))
        runs.append((lambda v, ids: ad.gather_rows(v, ids), (segments, 3)))
        for run, shape in runs:
            values = rng.integers(-2, 3, size=shape) * rng.choice([1.0, -1.0, 0.5], size=shape)
            results = []
            for ids in (index, plain):
                x = Tensor(values.copy(), requires_grad=True)
                out = run(x, ids)
                up = np.arange(out.data.size, dtype=np.float64).reshape(out.data.shape) - 3.0
                ad.backward(ad.tsum(ad.mul(out, Tensor(up))))
                grad = np.zeros(shape) if x.grad is None else x.grad
                results.append((out.data.tobytes(), grad.tobytes()))
            assert results[0] == results[1], name


def test_no_memo_outlives_its_batch(monkeypatch):
    """Batch B, built after batch A is gone with the same node and edge
    counts but other edges, gives the logits and gradients of B's
    plain-array path, in which every kernel builds its own index."""
    sizes = [5, 7, 4, 6]

    def batch(seed):
        rng = np.random.default_rng(seed)
        return batch_graphs([Graph(node_features=rng.standard_normal((n, 2)),
                                   edges=rng.integers(0, n, size=(2 * n, 2)),
                                   edge_features=rng.standard_normal((2 * n, 2)),
                                   label=np.array([1.0])) for n in sizes])

    dims = SupernetDims(d_in=2, out_dim=1, num_blocks=2, hidden=6, d_edge=2)

    def step(b):
        params = init_relaxed(dims, AGGREGATION_OPS, seed=3)
        logits = supernet_forward(b, params, mode="relaxed")
        ad.backward(task_loss(TaskSchema(), logits, b.labels))
        return [logits.data.tobytes()] + [None if t.grad is None else t.grad.tobytes() for t
                                          in [*params.weights.values(), *params.alphas.values()]]

    a = batch(0)
    step(a)
    del a
    gc.collect()
    b = batch(1)
    assert b.num_nodes == sum(sizes) and len(b.edges) == 2 * sum(sizes)
    got = step(b)
    # the plain-array path: each kernel gets a copy of the ids and derives
    # the flat index afresh
    monkeypatch.setattr(ad, "_segment_index",
                        lambda ids, n: ad.SegmentIndex(np.array(getattr(ids, "ids", ids)), n))
    monkeypatch.setattr(ad.SegmentIndex, "flat",
                        lambda self, w: (self.ids[:, None] * w + np.arange(w)).ravel())
    assert got == step(b)


def test_an_index_lives_while_a_tape_reads_it():
    b = batch_graphs([_graph(4, [[0, 1], [1, 2], [2, 3], [3, 0]]), _graph(3, [[0, 2]])])
    x = Tensor(np.ones((b.num_nodes, 2)), requires_grad=True)
    loss = ad.tsum(ad.gather_rows(x, b.src))
    held = weakref.ref(b.src)  # the index the tape holds
    assert held() is not None and b.src is held()
    ad.backward(loss)
    del loss
    assert held() is None
    # a call that no tape records holds its index only while it runs
    ad.gather_rows(Tensor(np.ones((b.num_nodes, 2))), b.src)
    held = weakref.ref(b.src)
    assert held() is None


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
# degrees (GraphBatch.degrees, which the aggregation operators read)


def _degrees(g):
    return batch_graphs([g]).degrees


def test_degrees_three_cycle():
    g = _graph(3, [[0, 1], [1, 0], [1, 2], [2, 1], [2, 0], [0, 2]])
    np.testing.assert_array_equal(_degrees(g), [2, 2, 2])


def test_degrees_isolated_node():
    np.testing.assert_array_equal(_degrees(_graph(2, [])), [0, 0])


def test_degrees_star():
    edges = [[0, 1], [1, 0], [0, 2], [2, 0], [0, 3], [3, 0]]
    np.testing.assert_array_equal(_degrees(_graph(4, edges)), [3, 1, 1, 1])


def test_degrees_count_directed_pair_once():
    # one direction only still counts as the same undirected edge
    np.testing.assert_array_equal(_degrees(_graph(2, [[0, 1]])), [1, 1])
    np.testing.assert_array_equal(_degrees(_graph(2, [[0, 1], [1, 0]])), [1, 1])


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


def test_symmetrize_matches_isin_reference():
    """The sorted lookup adds the same reversed edges, in the same order,
    as the np.isin test it replaced; edgeless graphs and self-loops too."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m = int(rng.integers(1, 8)), int(rng.integers(0, 15))
        edges = rng.integers(0, n, size=(m, 2)).astype(np.int64).reshape(-1, 2)
        feats = rng.normal(size=(m, 2))
        src, dst = edges[:, 0], edges[:, 1]
        missing = np.flatnonzero((src != dst) & ~np.isin(dst * n + src, src * n + dst))
        g = _symmetrize(Graph(node_features=np.zeros((n, 1)), edges=edges,
                              edge_features=feats, label=np.array([0.0])))
        np.testing.assert_array_equal(g.edges, np.concatenate([edges, edges[missing][:, ::-1]]))
        np.testing.assert_array_equal(g.edge_features, np.concatenate([feats, feats[missing]]))


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
    {"num_nodes": 2.5},
    {"num_nodes": "2"},
    {"num_nodes": True, "node_feat": [[1.0, 1.0]], "edges": [], "edge_feat": []},
    {"edges": [0, 1], "edge_feat": [[0.5]]},
    {"edges": [[0, 1, 1]]},
    {"node_feat": [], "num_nodes": 2},
    # numpy would read a bool among numbers as 1 or 0
    {"node_feat": [[1.5, True], [2.0, 2.0]]},
    {"edges": [[0, True]]},
    {"edges": [[0, 1], [1, 0]], "edge_feat": [[0.5], [False]]},
], ids=["nan-node-feat", "string-node-feat", "inf-edge-feat", "fractional-edge",
        "bool-edge", "bool-label", "string-label", "fractional-num-nodes",
        "string-num-nodes", "bool-num-nodes", "flat-edges", "three-column-edges",
        "empty-node-feat", "bool-among-node-feat", "bool-among-edges",
        "bool-among-edge-feat"])
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


@pytest.mark.parametrize("schema, labels, written", [
    (TaskSchema("multi-class", num_classes=3), [[0.0], [2.0], [1.0]], [0, 2, 1]),
    (TaskSchema("multi-binary", num_tasks=3),
     [[1.0, np.nan, 0.0], [np.nan, np.nan, 1.0], [0.0, 1.0, np.nan]],
     [[1.0, None, 0.0], [None, None, 1.0], [0.0, 1.0, None]]),
], ids=["multi-class", "multi-binary"])
def test_non_binary_labels_survive_write_and_load(tmp_path, schema, labels, written):
    ds = Dataset(graphs=[_graph(2, [[0, 1], [1, 0]], label=np.array(lab)) for lab in labels],
                 schema=schema, splits={"train": np.array([0]), "valid": np.array([1]),
                                        "test": np.array([2])})
    write_dataset(ds, tmp_path / "d.jsonl", tmp_path / "s.json")
    lines = (tmp_path / "d.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["label"] for line in lines] == written
    back = load_dataset(tmp_path / "d.jsonl", schema, tmp_path / "s.json")
    for g, h in zip(ds.graphs, back.graphs):
        np.testing.assert_array_equal(g.label, h.label)  # NaN where NaN was
        np.testing.assert_array_equal(g.node_features, h.node_features)


def test_class_index_out_of_range_names_its_line(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [json.dumps({"num_nodes": 1, "node_feat": [[0.0]], "edges": [],
                                 "label": label}) for label in (1, 2)])
    with pytest.raises(ValidationError, match=r"line 2: class index must be an integer "
                                              r"in \[0, 2\)"):
        load_dataset(p, TaskSchema("multi-class", num_classes=2))


def test_load_dataset_ends_lines_as_a_text_file_does(tmp_path):
    """\\r\\n and a lone \\r end a line; U+2028 and U+0085 inside a
    record's string do not."""
    records = [json.dumps({"num_nodes": 1, "node_feat": [[float(i)]], "edges": [],
                           "label": 0, "note": "a\u2028b\x85c"}, ensure_ascii=False)
               for i in range(3)]
    p = tmp_path / "d.jsonl"
    p.write_bytes(f"{records[0]}\r\n{records[1]}\r{records[2]}\n".encode("utf-8"))
    ds = load_dataset(p, TaskSchema("binary"))
    assert [g.node_features[0, 0] for g in ds.graphs] == [0.0, 1.0, 2.0]


def test_read_json_lines_yields_each_nonblank_line_and_its_value(tmp_path):
    p = tmp_path / "h.jsonl"
    p.write_bytes('{"a":"x\u2028y"}\r\n\n  [1]  \r2\n{x\n'.encode("utf-8"))
    lines = read_json_lines(p, "history")
    assert next(lines) == (1, '{"a":"x\u2028y"}', {"a": "x\u2028y"})
    assert next(lines) == (3, "[1]", [1])
    assert next(lines) == (4, "2", 2)
    with pytest.raises(ParseError, match=r"^history line 5: Expecting property name"):
        next(lines)


def test_write_bytes_makes_the_directory_or_names_the_file(tmp_path):
    write_bytes(tmp_path / "a" / "b" / "f.bin", b"\x00\n")
    assert (tmp_path / "a" / "b" / "f.bin").read_bytes() == b"\x00\n"
    for bad, reason in [(tmp_path / "a" / "b" / "f.bin" / "c" / "g.bin", "Not a directory"),
                        (tmp_path / "a" / "b" / "f.bin" / "g.bin", "Not a directory"),
                        (tmp_path / "a", "Is a directory")]:
        message = re.escape(f"cannot write file {bad}: {reason}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_bytes(bad, b"")


class TestLocated:
    def test_keeps_the_class_and_prefixes_the_message(self):
        with pytest.raises(ParseError, match=r"^dataset line 2: bad$"):
            with located("dataset line 2"):
                raise ParseError("bad")

    def test_nested_blocks_prefix_outermost_first(self):
        with pytest.raises(ValueError, match=r"^a: b: msg$") as info:
            with located("a"), located("b"):
                raise ValueError("msg")
        assert type(info.value) is ValueError

    def test_other_errors_pass_unchanged(self):
        err = KeyError("k")
        with pytest.raises(KeyError) as info:
            with located("a"):
                raise err
        assert info.value is err


def test_flat_edges_are_rejected_not_paired(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [json.dumps({"num_nodes": 4, "node_feat": [[0.0]] * 4,
                                 "edges": [0, 1, 2, 3], "label": 0})])
    with pytest.raises(ValidationError, match=r"line 1: edges must have shape \(E, 2\)"):
        load_dataset(p, TaskSchema("binary"), symmetrize=False)
    with pytest.raises(ValidationError, match="edges must have shape"):
        Graph(node_features=np.zeros((4, 1)), edges=np.array([0, 1, 2, 3]))
    assert Graph(node_features=np.zeros((1, 1)), edges=[]).edges.shape == (0, 2)


@pytest.mark.parametrize("edge_feat", [False, True], ids=["plain", "edge-feat"])
def test_zero_node_graph_survives_write_and_load(tmp_path, edge_feat):
    def graph(n, label):
        return Graph(node_features=np.arange(3.0 * n).reshape(n, 3),
                     edges=np.array([[0, 1], [1, 0]]) if n else np.zeros((0, 2)),
                     edge_features=(np.ones((2 if n else 0, 2)) if edge_feat else None),
                     label=np.array([label]))
    ds = Dataset(graphs=[graph(2, 0.0), graph(3, 1.0), graph(0, 1.0)],
                 schema=TaskSchema("binary"),
                 splits={"train": np.array([0]), "valid": np.array([1]),
                         "test": np.array([2])})
    write_dataset(ds, tmp_path / "d.jsonl", tmp_path / "s.json")
    back = load_dataset(tmp_path / "d.jsonl", ds.schema, tmp_path / "s.json")
    for g, h in zip(ds.graphs, back.graphs):
        assert g.node_features.shape == h.node_features.shape
        np.testing.assert_array_equal(g.node_features, h.node_features)
        np.testing.assert_array_equal(g.edges, h.edges)
        if edge_feat:
            assert g.edge_features.shape == h.edge_features.shape
    assert batch_graphs(back.graphs).num_graphs == 3


# ---------------------------------------------------------------------------
# record fuzzing


_FUZZ_RECORDS = [
    {"num_nodes": 3, "node_feat": [[1.0, 0.5], [2.0, -1.0], [0.0, 3.0]],
     "edges": [[0, 1], [1, 2]], "edge_feat": [[0.5], [1.5]], "label": 1},
    {"num_nodes": 2, "node_feat": [[1.0, 1.0], [2.0, 2.0]],
     "edges": [[1, 0]], "edge_feat": [[2.0]], "label": 0},
    {"num_nodes": 1, "node_feat": [[3.0, 4.0]], "edges": [], "edge_feat": [], "label": 1},
    {"num_nodes": 4, "node_feat": [[0.0, 1.0]] * 4,
     "edges": [[0, 3], [3, 2], [2, 2]], "edge_feat": [[1.0], [-1.0], [0.0]], "label": 0},
]
_FUZZ_KINDS = ("drop", "type", "nan", "fraction", "bool", "range", "width", "benign")


def _leaves(rec, fields):
    """(field, row, column) of each number in ``fields``; row and column
    are None for a scalar field."""
    out = []
    for field in fields:
        value = rec[field]
        if isinstance(value, list):
            out += [(field, i, j) for i, row in enumerate(value) for j in range(len(row))]
        else:
            out.append((field, None, None))
    return out


def _mutate(rec, kind, rng):
    """A copy of the valid record ``rec`` with one ``kind`` of change."""
    rec = copy.deepcopy(rec)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def get(leaf):
        field, i, j = leaf
        return rec[field] if i is None else rec[field][i][j]

    def put(leaf, value):
        field, i, j = leaf
        if i is None:
            rec[field] = value
        else:
            rec[field][i][j] = value

    arrays = ("node_feat", "edges", "edge_feat")
    whole = ("num_nodes", "edges", "label")
    if kind == "drop":
        del rec[pick(sorted(rec))]
    elif kind == "type":
        leaf = pick(_leaves(rec, sorted(rec)) + [(field, None, None) for field in arrays])
        put(leaf, pick(["1", "", None, {}, [1.0]]))
    elif kind == "nan":
        put(pick(_leaves(rec, sorted(rec))), pick([float("nan"), float("inf"), -float("inf")]))
    elif kind == "fraction":
        leaf = pick(_leaves(rec, whole))
        put(leaf, get(leaf) + 0.5)
    elif kind == "bool":
        leaf = pick(_leaves(rec, arrays))
        put(leaf, get(leaf) != 1)  # a bool unlike the number it replaces
    elif kind == "range":
        leaf = pick(_leaves(rec, whole))
        put(leaf, {"num_nodes": rec["num_nodes"] + pick([1, -1]),
                   "edges": pick([rec["num_nodes"], -1]),
                   "label": pick([2, -1])}[leaf[0]])
    elif kind == "width":
        rows = rec[pick([field for field in arrays if rec[field]])]
        for i in pick([[int(rng.integers(len(rows)))], range(len(rows))]):
            rows[i] = rows[i] + [0.0]
    elif rng.random() < 0.5:  # benign: a key the loader ignores
        rec["comment"] = "true or false"
    else:  # benign: a whole number written as a float
        leaf = pick(_leaves(rec, whole))
        put(leaf, float(get(leaf)))
    return rec


def test_mutated_records_load_the_same_graphs_or_fail_naming_their_line(tmp_path):
    schema = TaskSchema("binary")
    p = tmp_path / "d.jsonl"
    _write_lines(p, [json.dumps(rec) for rec in _FUZZ_RECORDS])
    base = load_dataset(p, schema, symmetrize=False).graphs
    rng = np.random.default_rng(11)
    outcomes = collections.Counter()
    for trial in range(400):
        kind = _FUZZ_KINDS[trial % len(_FUZZ_KINDS)]
        r = int(rng.integers(len(_FUZZ_RECORDS)))
        lines = [json.dumps(rec) for rec in _FUZZ_RECORDS]
        lines[r] = json.dumps(_mutate(_FUZZ_RECORDS[r], kind, rng))
        _write_lines(p, lines)
        try:
            graphs = load_dataset(p, schema, symmetrize=False).graphs
        except (ParseError, ValidationError) as exc:
            assert str(exc).startswith("dataset line "), (kind, lines[r], str(exc))
            assert re.search(rf"\bline {r + 1}\b", str(exc)), (kind, lines[r], str(exc))
            outcomes[kind, "rejected"] += 1
            continue
        assert len(graphs) == len(base), (kind, lines[r])
        for g, h in zip(base, graphs):
            for a, b in ((g.node_features, h.node_features), (g.edges, h.edges),
                         (g.edge_features, h.edge_features), (g.label, h.label)):
                assert a.shape == b.shape and np.array_equal(a, b), (kind, lines[r])
        outcomes[kind, "loaded"] += 1
    assert outcomes["benign", "loaded"] == 400 // len(_FUZZ_KINDS)
    assert all(outcomes[kind, "rejected"] for kind in _FUZZ_KINDS if kind != "benign")


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


@pytest.mark.parametrize("splits, message", [
    pytest.param([[0, 1], [2], [3]],
                 r"s\.json: not a JSON object, got \[\[0, 1\], \[2\], \[3\]\]",
                 id="splits0-JSON object of index lists"),
    pytest.param({"train": [0, 1], "valid": [2], "test": 3}, r"s\.json: test must be list, got 3",
                 id="splits1-split 'test' must be a list"),
    ({"train": [0.5, 1], "valid": [2], "test": [3]}, "split 'train' must be a list"),
    ({"train": [0, True], "valid": [2], "test": [3]}, "split 'train' must be a list"),
    ({"train": [0, 1], "valid": ["2"], "test": [3]}, "split 'valid' must be a list"),
    ({"train": [0, 1], "valid": [2], "test": [4]}, r"split 'test' .* in \[0, 4\)"),
    ({"train": [0, 1], "valid": [2], "test": [-1]}, "split 'test' must be a list"),
    ({"train": [0, 1], "valid": [2], "test": [2 ** 70]}, "split 'test' must be a list"),
])
def test_splits_file_must_list_whole_indices(tmp_path, splits, message):
    ds = Dataset(graphs=[_graph(2, [], label=np.array([float(i % 2)])) for i in range(4)],
                 schema=TaskSchema("binary"), splits={"all": np.arange(4)})
    write_dataset(ds, tmp_path / "d.jsonl", tmp_path / "s.json")
    (tmp_path / "s.json").write_text(json.dumps(splits), encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_dataset(tmp_path / "d.jsonl", ds.schema, tmp_path / "s.json")
    (tmp_path / "s.json").write_text(json.dumps({"train": [0, 1.0], "valid": [2], "test": [3]}))
    back = load_dataset(tmp_path / "d.jsonl", ds.schema, tmp_path / "s.json")
    assert back.splits["train"].tolist() == [0, 1]
