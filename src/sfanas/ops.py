"""Candidate operations: aggregation, fusion, readout.

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


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


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


class Neighbours:
    """The edge work GIN, GEN, MF and EXPC do on features ``H``: its rows
    gathered by edge source (:meth:`messages`) and their sum per
    destination (:meth:`sums`). Each is built on first use, so the
    candidates of a relaxed block, handed one ``Neighbours`` of the fused
    features, build each at most once between them."""

    __slots__ = ("batch", "H", "_messages", "_sums")

    def __init__(self, batch: GraphBatch, H: Tensor):
        self.batch, self.H = batch, H
        self._messages = self._sums = None

    def messages(self) -> Tensor:
        if self._messages is None:
            self._messages = ad.gather_rows(self.H, self.batch.src)
        return self._messages

    def sums(self) -> Tensor:
        if self._sums is None:
            self._sums = ad.segment_reduce(self.messages(), self.batch.dst,
                                           self.batch.num_nodes, "sum")
        return self._sums


def _mlp(x: Tensor, params: dict) -> Tensor:
    h = ad.relu(ad.add(ad.matmul(x, params["W1"]), params["b1"]))
    return ad.add(ad.matmul(h, params["W2"]), params["b2"])


def gcn(batch: GraphBatch, H: Tensor, params: dict) -> Tensor:
    """Symmetric-normalized convolution with self-loops, computed edge-wise."""
    n = batch.num_nodes
    dhat = batch.in_degrees + 1.0
    HW = ad.matmul(H, params["W"])
    self_term = ad.mul(HW, Tensor((1.0 / dhat)[:, None]))
    coef = 1.0 / np.sqrt(dhat[batch.src.ids] * dhat[batch.dst.ids])
    msg = ad.mul(ad.gather_rows(HW, batch.src), Tensor(coef[:, None]))
    return ad.add(ad.segment_reduce(msg, batch.dst, n, "sum"), self_term)


def gat_attention(batch: GraphBatch, H: Tensor, params: dict,
                  variant: str = "plain"):
    """Per-edge attention over each destination's in-edges plus a self-loop.

    Returns (attention E'x1, transformed sources E'xd, dst index vector).
    The plain logit of edge j -> i is ``a_src . Wh_j + a_dst . Wh_i``
    (Velickovic et al., 2018), whose halves are computed once per node and
    looked up per edge; sym adds the logit of i -> j.
    """
    n = batch.num_nodes
    HW = ad.matmul(H, params["W"])
    hs = ad.gather_rows(HW, batch.loop_src)
    if variant in ("plain", "sym"):
        s_src, s_dst = ad.matmul(HW, params["a_src"]), ad.matmul(HW, params["a_dst"])

        def score(src, dst):
            return ad.leaky_relu(ad.add(ad.gather_rows(s_src, src), ad.gather_rows(s_dst, dst)))

        logits = score(batch.loop_src, batch.loop_dst)
        if variant == "sym":
            logits = ad.add(logits, score(batch.loop_dst, batch.loop_src))
    elif variant == "cos":
        hd = ad.gather_rows(HW, batch.loop_dst)
        dot = ad.tsum(ad.mul(hs, hd), axis=1, keepdims=True)
        ns = ad.sqrt(ad.add(ad.tsum(ad.mul(hs, hs), axis=1, keepdims=True), Tensor(1e-24)))
        nd = ad.sqrt(ad.add(ad.tsum(ad.mul(hd, hd), axis=1, keepdims=True), Tensor(1e-24)))
        logits = ad.div(dot, ad.mul(ns, nd))
    else:
        raise ValueError(f"unknown attention variant {variant!r}")
    attn = ad.segment_softmax(logits, batch.loop_dst, n)
    return attn, hs, batch.loop_dst.ids


def gat(batch: GraphBatch, H: Tensor, params: dict,
        variant: str = "plain") -> Tensor:
    attn, hs, _ = gat_attention(batch, H, params, variant)
    return ad.segment_reduce(ad.mul(hs, attn), batch.loop_dst, batch.num_nodes, "sum")


def gin(batch: GraphBatch, H: Tensor, params: dict,
        neighbours: Neighbours | None = None) -> Tensor:
    s = ad.add(ad.add(H, ad.mul(params["eps"], H)), (neighbours or Neighbours(batch, H)).sums())
    return _mlp(s, params)


def gen(batch: GraphBatch, H: Tensor, params: dict,
        edge_feats: Tensor | None = None, neighbours: Neighbours | None = None) -> Tensor:
    """Softmax-weighted (per channel) message aggregation with learnable sharpness."""
    msg = (neighbours or Neighbours(batch, H)).messages()
    if edge_feats is not None:
        msg = ad.add(msg, edge_feats)
    agg = ad.softmax_aggregate(msg, params["beta"], batch.dst, batch.num_nodes)
    return _mlp(ad.add(H, agg), params)


def mf(batch: GraphBatch, H: Tensor, params: dict,
       neighbours: Neighbours | None = None) -> Tensor:
    """Degree-indexed linear transform of self+neighbor sums: node ``i``
    uses ``W{k}`` for its degree ``k`` capped at the last weight. One
    product against the weights of the buckets that hold a node, side by
    side, then each node picks its bucket's block; a weight whose bucket is
    empty gets no gradient."""
    s = ad.add(H, (neighbours or Neighbours(batch, H)).sums())
    bucket = np.minimum(batch.degrees.astype(np.int64), len(params) - 1)
    present, block = np.unique(bucket, return_inverse=True)
    # a batch of zero-node graphs fills no bucket: run W0 over its zero rows
    W = ad.concat([params[f"W{k}"] for k in present] or [params["W0"]])
    return ad.sigmoid(ad.pick_blocks(ad.matmul(s, W), block, params["W0"].data.shape[1]))


def expc(batch: GraphBatch, H: Tensor, params: dict) -> Tensor:
    """Expand, activate, and compress self+neighbor contributions."""
    z = ad.relu(ad.matmul(H, params["We"]))
    s = ad.add(z, Neighbours(batch, z).sums())
    return ad.matmul(s, params["Wc"])


def aggregate(name: str, batch: GraphBatch, H: Tensor, params: dict,
              edge_feats: Tensor | None = None, neighbours: Neighbours | None = None) -> Tensor:
    """Aggregation ``name`` of ``H``. ``neighbours``, built over ``H``,
    lends GIN, GEN and MF its gather and sum; without it they build their own."""
    if name == "GCN":
        return gcn(batch, H, params)
    if name == "GAT":
        return gat(batch, H, params, "plain")
    if name == "GAT_SYM":
        return gat(batch, H, params, "sym")
    if name == "GAT_COS":
        return gat(batch, H, params, "cos")
    if name == "GIN":
        return gin(batch, H, params, neighbours)
    if name == "GEN":
        return gen(batch, H, params, edge_feats, neighbours)
    if name == "MF":
        return mf(batch, H, params, neighbours)
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
        return ad.matmul(ad.concat(inputs), params["P"])
    if name == "LSTM":
        return ad.lstm(inputs, params["W_ih"], params["W_hh"], params["b"])
    raise ValueError(f"unknown fusion op {name!r}")


# ---------------------------------------------------------------------------
# readout


_READOUT_MODES = {"GLOBAL_MEAN": "mean", "GLOBAL_MAX": "max", "GLOBAL_SUM": "sum"}


def readout(name: str, H: Tensor, graph_ids, num_graphs: int) -> Tensor:
    """Pool each graph's rows; ``graph_ids`` is an id array or a batch's
    ``graph_index``."""
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
