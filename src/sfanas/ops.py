"""Candidate operations: aggregation, fusion, selection, readout.

Every aggregation operator maps (batch, H) -> H' without touching the graph
structure. Operators are pure functions of their inputs and parameter dicts,
so they can run in parallel over a read-only parameter snapshot.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import GraphBatch

SELECTION_OPS = ("ZERO", "IDENTITY")
FUSION_OPS = ("SUM", "MEAN", "MAX", "CONCAT", "LSTM")
AGGREGATION_OPS = ("GCN", "GAT", "GAT_SYM", "GAT_COS", "GIN", "GEN", "MF", "EXPC")
READOUT_OPS = ("GLOBAL_MEAN", "GLOBAL_MAX", "GLOBAL_SUM")

MAX_DEGREE = 5  # MF's last weight serves every degree from here up
EXPANSION = 2   # EXPC's hidden width, as a multiple of the block width


# ---------------------------------------------------------------------------
# parameter initialization


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
           shape=None) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape or (fan_in, fan_out))


def _param(arr) -> Tensor:
    return Tensor(arr, requires_grad=True)


def init_aggregation_params(name: str, d: int, rng: np.random.Generator) -> dict:
    if name == "GCN":
        return {"W": _param(glorot(rng, d, d))}
    if name in ("GAT", "GAT_SYM", "GAT_COS"):
        p = {"W": _param(glorot(rng, d, d))}
        if name != "GAT_COS":
            p["a_src"] = _param(glorot(rng, d, 1))
            p["a_dst"] = _param(glorot(rng, d, 1))
        return p
    if name == "GIN":
        return {"eps": _param(np.zeros(1)),
                "W1": _param(glorot(rng, d, d)), "b1": _param(np.zeros((1, d))),
                "W2": _param(glorot(rng, d, d)), "b2": _param(np.zeros((1, d)))}
    if name == "GEN":
        return {"beta": _param(np.ones(1)),
                "W1": _param(glorot(rng, d, d)), "b1": _param(np.zeros((1, d))),
                "W2": _param(glorot(rng, d, d)), "b2": _param(np.zeros((1, d)))}
    if name == "MF":
        return {f"W{k}": _param(glorot(rng, d, d)) for k in range(MAX_DEGREE + 1)}
    if name == "EXPC":
        return {"We": _param(glorot(rng, d, EXPANSION * d)),
                "Wc": _param(glorot(rng, EXPANSION * d, d))}
    raise ValueError(f"unknown aggregation op {name!r}")


def init_fusion_params(name: str, d: int, num_inputs: int,
                       rng: np.random.Generator) -> dict:
    if name in ("SUM", "MEAN", "MAX"):
        return {}
    if name == "CONCAT":
        return {"P": _param(glorot(rng, num_inputs * d, d))}
    if name == "LSTM":
        bound = 1.0 / np.sqrt(d)
        return {"W_ih": _param(rng.uniform(-bound, bound, (d, 4 * d))),
                "W_hh": _param(rng.uniform(-bound, bound, (d, 4 * d))),
                "b": _param(np.zeros((1, 4 * d)))}
    raise ValueError(f"unknown fusion op {name!r}")


# ---------------------------------------------------------------------------
# aggregation operators


def _neighbor_sum(batch: GraphBatch, H: Tensor) -> Tensor:
    src, dst = batch.edges[:, 0], batch.edges[:, 1]
    return ad.segment_reduce(ad.gather_rows(H, src), dst, batch.num_nodes, "sum")


def _mlp(x: Tensor, params: dict) -> Tensor:
    h = ad.relu(ad.add(ad.matmul(x, params["W1"]), params["b1"]))
    return ad.add(ad.matmul(h, params["W2"]), params["b2"])


def gcn(batch: GraphBatch, H: Tensor, params: dict) -> Tensor:
    """Symmetric-normalized convolution with self-loops, computed edge-wise."""
    n = batch.num_nodes
    dhat = batch.in_degrees + 1.0
    HW = ad.matmul(H, params["W"])
    self_term = ad.mul(HW, Tensor((1.0 / dhat)[:, None]))
    src, dst = batch.edges[:, 0], batch.edges[:, 1]
    coef = 1.0 / np.sqrt(dhat[src] * dhat[dst])
    msg = ad.mul(ad.gather_rows(HW, src), Tensor(coef[:, None]))
    return ad.add(ad.segment_reduce(msg, dst, n, "sum"), self_term)


def _with_self_loops(batch: GraphBatch):
    n = batch.num_nodes
    loop = np.arange(n, dtype=np.int64)
    return (np.concatenate([batch.edges[:, 0], loop]),
            np.concatenate([batch.edges[:, 1], loop]))


def gat_attention(batch: GraphBatch, H: Tensor, params: dict,
                  variant: str = "plain"):
    """Per-edge attention over each destination's in-edges plus a self-loop.

    Returns (attention E'x1, transformed sources E'xd, dst index vector).
    """
    n = batch.num_nodes
    src, dst = _with_self_loops(batch)
    HW = ad.matmul(H, params["W"])
    hs = ad.gather_rows(HW, src)
    hd = ad.gather_rows(HW, dst)

    def score(u, v):
        return ad.leaky_relu(ad.add(ad.matmul(u, params["a_src"]), ad.matmul(v, params["a_dst"])))

    if variant == "plain":
        logits = score(hs, hd)
    elif variant == "sym":
        logits = ad.add(score(hs, hd), score(hd, hs))
    elif variant == "cos":
        dot = ad.tsum(ad.mul(hs, hd), axis=1, keepdims=True)
        ns = ad.sqrt(ad.add(ad.tsum(ad.mul(hs, hs), axis=1, keepdims=True), Tensor(1e-24)))
        nd = ad.sqrt(ad.add(ad.tsum(ad.mul(hd, hd), axis=1, keepdims=True), Tensor(1e-24)))
        logits = ad.div(dot, ad.mul(ns, nd))
    else:
        raise ValueError(f"unknown attention variant {variant!r}")
    attn = ad.segment_softmax(logits, dst, n)
    return attn, hs, dst


def gat(batch: GraphBatch, H: Tensor, params: dict,
        variant: str = "plain") -> Tensor:
    attn, hs, dst = gat_attention(batch, H, params, variant)
    return ad.segment_reduce(ad.mul(hs, attn), dst, batch.num_nodes, "sum")


def gin(batch: GraphBatch, H: Tensor, params: dict) -> Tensor:
    s = ad.add(ad.add(H, ad.mul(params["eps"], H)), _neighbor_sum(batch, H))
    return _mlp(s, params)


def gen(batch: GraphBatch, H: Tensor, params: dict,
        edge_feats: Tensor | None = None) -> Tensor:
    """Softmax-weighted (per channel) message aggregation with learnable sharpness."""
    n = batch.num_nodes
    src, dst = batch.edges[:, 0], batch.edges[:, 1]
    msg_in = ad.gather_rows(H, src)
    if edge_feats is not None:
        msg_in = ad.add(msg_in, edge_feats)
    m = ad.add(ad.relu(msg_in), Tensor(1e-7))
    weights = ad.segment_softmax(ad.mul(params["beta"], m), dst, n)
    agg = ad.segment_reduce(ad.mul(weights, m), dst, n, "sum")
    return _mlp(ad.add(H, agg), params)


def mf(batch: GraphBatch, H: Tensor, params: dict) -> Tensor:
    """Degree-indexed linear transform of self+neighbor sums."""
    max_degree = len(params) - 1
    s = ad.add(H, _neighbor_sum(batch, H))
    bucket = np.minimum(batch.degrees.astype(np.int64), max_degree)
    out = None
    for k in range(max_degree + 1):
        mask = (bucket == k).astype(np.float64)[:, None]
        if not mask.any():
            continue
        term = ad.mul(ad.matmul(s, params[f"W{k}"]), Tensor(mask))
        out = term if out is None else ad.add(out, term)
    return ad.sigmoid(out)


def expc(batch: GraphBatch, H: Tensor, params: dict) -> Tensor:
    """Expand, activate, and compress self+neighbor contributions."""
    z = ad.relu(ad.matmul(H, params["We"]))
    s = ad.add(z, _neighbor_sum(batch, z))
    return ad.matmul(s, params["Wc"])


def aggregate(name: str, batch: GraphBatch, H: Tensor, params: dict,
              edge_feats: Tensor | None = None) -> Tensor:
    if name == "GCN":
        return gcn(batch, H, params)
    if name == "GAT":
        return gat(batch, H, params, "plain")
    if name == "GAT_SYM":
        return gat(batch, H, params, "sym")
    if name == "GAT_COS":
        return gat(batch, H, params, "cos")
    if name == "GIN":
        return gin(batch, H, params)
    if name == "GEN":
        return gen(batch, H, params, edge_feats)
    if name == "MF":
        return mf(batch, H, params)
    if name == "EXPC":
        return expc(batch, H, params)
    raise ValueError(f"unknown aggregation op {name!r}")


# ---------------------------------------------------------------------------
# fusion operators


def fuse(name: str, inputs: list, params: dict) -> Tensor:
    """Combine a list of same-shape feature matrices into one.

    MEAN divides by the number of input slots; LSTM consumes the list as a
    sequence in ascending block order and returns the final hidden state.
    """
    if not inputs:
        raise ValueError(f"fuse {name}: empty input list")
    if name == "SUM" or name == "MEAN":
        out = inputs[0]
        for x in inputs[1:]:
            out = ad.add(out, x)
        return ad.scalar_mul(out, 1.0 / len(inputs)) if name == "MEAN" else out
    if name == "MAX":
        out = inputs[0]
        for x in inputs[1:]:
            out = ad.maximum(out, x)
        return out
    if name == "CONCAT":
        return ad.matmul(ad.concat(inputs, axis=1), params["P"])
    if name == "LSTM":
        return ad.lstm(inputs, params["W_ih"], params["W_hh"], params["b"])
    raise ValueError(f"unknown fusion op {name!r}")


# ---------------------------------------------------------------------------
# selection and readout


def select(name: str, x: Tensor) -> Tensor:
    """ZERO scales ``x`` by 0.0 and IDENTITY by 1.0. IDENTITY still makes a
    node: H_j feeds several blocks, and returning ``x`` itself would reorder
    the gradient sums into it and move the last bits upstream of it."""
    if name == "ZERO":
        return ad.scalar_mul(x, 0.0)
    if name == "IDENTITY":
        return ad.scalar_mul(x, 1.0)
    raise ValueError(f"unknown selection op {name!r}")


_READOUT_MODES = {"GLOBAL_MEAN": "mean", "GLOBAL_MAX": "max", "GLOBAL_SUM": "sum"}


def readout(name: str, H: Tensor, graph_ids: np.ndarray, num_graphs: int) -> Tensor:
    mode = _READOUT_MODES.get(name)
    if mode is None:
        raise ValueError(f"unknown readout op {name!r}")
    return ad.segment_reduce(H, graph_ids, num_graphs, mode)


# ---------------------------------------------------------------------------
# shared post-block transform


def dropout(H: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate is 0."""
    if rate <= 0.0:
        return H
    keep = (rng.random(H.data.shape) >= rate) / (1.0 - rate)
    return ad.mul(H, Tensor(keep))
