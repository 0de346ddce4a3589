"""References computed apart from the program.

Operators are recomputed from dense adjacency matrices or per-graph and
per-destination loops, metrics from exhaustive pair and precision counts.
Nothing here calls into ``sfanas`` except to read plain arrays.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def relu(x):
    return np.maximum(x, 0.0)


def in_adjacency(edges: np.ndarray, n: int) -> np.ndarray:
    """A[i, j] = number of directed edges j -> i."""
    adj = np.zeros((n, n))
    np.add.at(adj, (edges[:, 1], edges[:, 0]), 1.0)
    return adj


def undirected_degree(edges: np.ndarray, n: int) -> np.ndarray:
    """Distinct neighbours per node, a self-loop counting once."""
    linked = np.zeros((n, n), dtype=bool)
    linked[edges[:, 0], edges[:, 1]] = True
    linked[edges[:, 1], edges[:, 0]] = True
    return linked.sum(axis=1)


# ---------------------------------------------------------------------------
# aggregation references (p maps parameter names to plain arrays)


def gcn(edges, n, H, p):
    adj = in_adjacency(edges, n)
    dhat = adj.sum(axis=1) + 1.0
    inv_sqrt = 1.0 / np.sqrt(dhat)
    HW = H @ p["W"]
    return inv_sqrt[:, None] * (adj @ (inv_sqrt[:, None] * HW)) + HW / dhat[:, None]


def gin(edges, n, H, p):
    s = (1.0 + p["eps"][0]) * H + in_adjacency(edges, n) @ H
    return relu(s @ p["W1"] + p["b1"]) @ p["W2"] + p["b2"]


def expc(edges, n, H, p):
    z = relu(H @ p["We"])
    return (z + in_adjacency(edges, n) @ z) @ p["Wc"]


def mf(edges, n, H, p):
    max_degree = len(p) - 1
    s = H + in_adjacency(edges, n) @ H
    bucket = np.minimum(undirected_degree(edges, n), max_degree)
    out = np.empty((n, p["W0"].shape[1]))
    for i in range(n):
        out[i] = s[i] @ p[f"W{bucket[i]}"]
    return sigmoid(out)


def _leaky(x, slope=0.2):
    return np.where(x > 0.0, x, slope * x)


def gat_attention(edges, n, H, p, variant):
    """Attention per edge (self-loops appended) by a per-destination loop."""
    loop = np.arange(n)
    src = np.concatenate([edges[:, 0], loop])
    dst = np.concatenate([edges[:, 1], loop])
    HW = H @ p["W"]
    hs, hd = HW[src], HW[dst]
    if variant == "cos":
        logits = (hs * hd).sum(1) / (np.sqrt((hs * hs).sum(1) + 1e-24)
                                     * np.sqrt((hd * hd).sum(1) + 1e-24))
    else:
        logits = _leaky(hs @ p["a_src"][:, 0] + hd @ p["a_dst"][:, 0])
        if variant == "sym":
            logits = logits + _leaky(hd @ p["a_src"][:, 0] + hs @ p["a_dst"][:, 0])
    attn = np.zeros(len(src))
    for i in range(n):
        rows = np.flatnonzero(dst == i)
        e = np.exp(logits[rows] - logits[rows].max())
        attn[rows] = e / e.sum()
    return attn, src, dst, HW


def gat(edges, n, H, p, variant):
    attn, src, dst, HW = gat_attention(edges, n, H, p, variant)
    out = np.zeros((n, HW.shape[1]))
    np.add.at(out, dst, attn[:, None] * HW[src])
    return out


def gen_weights(edges, n, H, p, edge_feats=None):
    """GEN's per-channel softmax weights and messages, per destination."""
    src, dst = edges[:, 0], edges[:, 1]
    msg = H[src] if edge_feats is None else H[src] + edge_feats
    m = relu(msg) + 1e-7
    z = p["beta"][0] * m
    weights = np.zeros_like(m)
    for i in range(n):
        rows = np.flatnonzero(dst == i)
        if rows.size:
            e = np.exp(z[rows] - z[rows].max(axis=0))
            weights[rows] = e / e.sum(axis=0)
    return weights, m, dst


def gen(edges, n, H, p, edge_feats=None):
    weights, m, dst = gen_weights(edges, n, H, p, edge_feats)
    agg = np.zeros_like(H)
    np.add.at(agg, dst, weights * m)
    s = H + agg
    return relu(s @ p["W1"] + p["b1"]) @ p["W2"] + p["b2"]


def aggregate(name, edges, n, H, p, edge_feats=None):
    if name == "GCN":
        return gcn(edges, n, H, p)
    if name.startswith("GAT"):
        return gat(edges, n, H, p, {"GAT": "plain", "GAT_SYM": "sym", "GAT_COS": "cos"}[name])
    if name == "GIN":
        return gin(edges, n, H, p)
    if name == "GEN":
        return gen(edges, n, H, p, edge_feats)
    if name == "MF":
        return mf(edges, n, H, p)
    if name == "EXPC":
        return expc(edges, n, H, p)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# fusion and readout references


def fuse(name, inputs, p):
    if name == "SUM":
        return np.sum(inputs, axis=0)
    if name == "MEAN":
        return np.sum(inputs, axis=0) / len(inputs)
    if name == "MAX":
        return np.max(inputs, axis=0)
    if name == "CONCAT":
        return np.concatenate(inputs, axis=1) @ p["P"]
    if name == "LSTM":
        n, d = inputs[0].shape
        h = np.zeros((n, d))
        c = np.zeros((n, d))
        for x in inputs:
            z = x @ p["W_ih"] + h @ p["W_hh"] + p["b"]
            i, f = sigmoid(z[:, :d]), sigmoid(z[:, d:2 * d])
            g, o = np.tanh(z[:, 2 * d:3 * d]), sigmoid(z[:, 3 * d:])
            c = f * c + i * g
            h = o * np.tanh(c)
        return h
    raise ValueError(name)


def segment(values, ids, num_segments, mode):
    """Per-segment sum, mean or max by a loop; empty segments give zeros."""
    out = np.zeros((num_segments, values.shape[1]))
    for s in range(num_segments):
        rows = values[ids == s]
        if len(rows):
            out[s] = {"sum": rows.sum(0), "mean": rows.mean(0), "max": rows.max(0)}[mode]
    return out


READOUT_MODES = {"GLOBAL_MEAN": "mean", "GLOBAL_MAX": "max", "GLOBAL_SUM": "sum"}


def readout(name, H, graph_ids, num_graphs):
    return segment(H, graph_ids, num_graphs, READOUT_MODES[name])


# ---------------------------------------------------------------------------
# metrics


def auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked right, ties worth half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def ap_single(scores, labels) -> float:
    """Mean of precision@k at each positive, descending score, ties by index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, precisions = 0, []
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            precisions.append(hits / rank)
    return float(np.mean(precisions))


def ap(scores, labels) -> float:
    """Mean AP over the tasks that keep both classes once nulls are masked."""
    scores = np.asarray(scores, dtype=np.float64).reshape(len(scores), -1)
    labels = np.asarray(labels, dtype=np.float64).reshape(len(labels), -1)
    per_task = []
    for k in range(labels.shape[1]):
        keep = ~np.isnan(labels[:, k])
        y = labels[keep, k]
        if keep.any() and y.min() != y.max():
            per_task.append(ap_single(scores[keep, k].tolist(), y.tolist()))
    return float(np.mean(per_task))


def metric(name, scores, labels) -> float:
    if name == "auc":
        return auc(scores[:, 0], labels[:, 0])
    if name == "ap":
        return ap(scores, labels)
    raise ValueError(f"no oracle for metric {name!r}")


def central_difference(f, x: np.ndarray, index: tuple, eps: float = 1e-6) -> float:
    """d f / d x[index] by a central difference; ``x`` is restored."""
    orig = x[index]
    x[index] = orig + eps
    plus = f(x)
    x[index] = orig - eps
    minus = f(x)
    x[index] = orig
    return (plus - minus) / (2.0 * eps)
