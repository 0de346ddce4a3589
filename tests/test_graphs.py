import collections
import copy
import itertools
import json
import re

import numpy as np
import pytest

from sfanas.graphs import (Dataset, Graph, ParseError, SyntheticSpec, TaskSchema,
                           ValidationError, add_virtual_node, batch_graphs,
                           count_triangles, generate_synthetic, load_dataset,
                           write_dataset)
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
        edges = slice(e_off, e_off + g.num_edges)
        np.testing.assert_array_equal(batch.node_features[nodes], g.node_features)
        np.testing.assert_array_equal(batch.graph_ids[nodes], i)
        np.testing.assert_array_equal(batch.edges[edges] - n_off, g.edges)
        np.testing.assert_array_equal(batch.edge_features[edges], g.edge_features)
        np.testing.assert_array_equal(batch.labels[i], g.label)
        n_off += g.num_nodes
        e_off += g.num_edges
    assert (n_off, e_off) == (batch.num_nodes, len(batch.edges))


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
    ([[0, 1], [2], [3]], "JSON object of index lists"),
    ({"train": [0, 1], "valid": [2], "test": 3}, "split 'test' must be a list"),
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
