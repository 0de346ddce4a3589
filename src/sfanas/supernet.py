"""Relaxed selection-fusion-aggregation network.

The supernet runs every candidate operation at every decision site and
combines the results by a weighted sum whose weights come from a
temperature-scaled softmax over per-site logits. Driving the temperature
down pushes the weights toward one-hot, and per-site argmax then yields a
discrete architecture. Discrete mode runs the same forward with 0/1
weights, so a hard one-hot relaxation and the discrete network agree
exactly. ``SupernetParams.sites`` lists the decision sites once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import ShapeError, Tensor
from .graphs import GraphBatch

DEFAULT_AGG_CANDIDATES = ("GCN", "GAT", "GIN", "GEN", "MF", "EXPC")


# ---------------------------------------------------------------------------
# discrete architecture encoding


@dataclass(frozen=True)
class ArchEncoding:
    """One discrete architecture: input masks, op choices, readout.

    Block b (0-based) consumes the feature history H0..Hb, so its
    selection mask has b+1 entries and at least one must be set.
    """
    num_blocks: int
    selection: tuple     # per block: tuple of 0/1 ints, length b+1
    fusion: tuple        # per block: fusion op name
    aggregation: tuple   # per block: aggregation op name
    readout: str

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("architecture needs at least one block")
        if len(self.selection) != self.num_blocks or \
                len(self.fusion) != self.num_blocks or \
                len(self.aggregation) != self.num_blocks:
            raise ValueError("per-block field lengths must equal num_blocks")
        object.__setattr__(self, "selection",
                           tuple(tuple(int(b) for b in bits) for bits in self.selection))
        object.__setattr__(self, "fusion", tuple(self.fusion))
        object.__setattr__(self, "aggregation", tuple(self.aggregation))
        for b, bits in enumerate(self.selection):
            if len(bits) != b + 1:
                raise ValueError(f"block {b}: selection mask must have {b + 1} entries")
            if not any(bits):
                raise ValueError(f"block {b}: at least one input must be selected")
            if any(v not in (0, 1) for v in bits):
                raise ValueError(f"block {b}: selection entries must be 0 or 1")
        for name in self.fusion:
            if name not in ops.FUSION_OPS:
                raise ValueError(f"unknown fusion op {name!r}")
        for name in self.aggregation:
            if name not in ops.AGGREGATION_OPS:
                raise ValueError(f"unknown aggregation op {name!r}")
        if self.readout not in ops.READOUT_OPS:
            raise ValueError(f"unknown readout op {self.readout!r}")

    def to_dict(self) -> dict:
        return {
            "num_blocks": self.num_blocks,
            "blocks": [{"select": list(bits), "fusion": f, "agg": a}
                       for bits, f, a in zip(self.selection, self.fusion, self.aggregation)],
            "readout": self.readout,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ArchEncoding":
        blocks = obj["blocks"]
        return cls(num_blocks=int(obj["num_blocks"]),
                   selection=tuple(tuple(b["select"]) for b in blocks),
                   fusion=tuple(b["fusion"] for b in blocks),
                   aggregation=tuple(b["agg"] for b in blocks),
                   readout=obj["readout"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ArchEncoding":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class SupernetDims:
    d_in: int
    out_dim: int
    num_blocks: int
    hidden: int
    d_edge: int = 0


class SupernetParams:
    """All learnable state: operation weights, per-site logits, temperature.

    Candidate lists are per block so the same container serves the full
    relaxed supernet and an architecture-restricted discrete model.
    ``sites`` lists every decision site once, in logit order; the logits,
    site weights, derivation and one-hot pinning all read it.
    """

    def __init__(self, dims: SupernetDims, agg_candidates, fusion_candidates,
                 readout_candidates, seed: int, max_degree: int = ops.DEFAULT_MAX_DEGREE,
                 expansion: int = ops.DEFAULT_EXPANSION, with_alphas: bool = True):
        self.dims = dims
        self.agg_candidates = [tuple(c) for c in agg_candidates]
        self.fusion_candidates = [tuple(c) for c in fusion_candidates]
        self.readout_candidates = tuple(readout_candidates)
        self.max_degree = max_degree
        self.expansion = expansion
        self.lam = 1.0

        rng = np.random.default_rng([int(seed), 0xA7C4])
        d = dims.hidden
        w: dict[str, Tensor] = {}
        # (kind, block, op) -> {param name: key in w}; the tensors stay in w
        self._op_keys: dict[tuple, dict] = {}

        def add_op(kind: str, b: int, name: str, op_params: dict) -> None:
            keys = self._op_keys[(kind, b, name)] = {}
            for pname, t in op_params.items():
                keys[pname] = f"b{b}/{kind}/{name}/{pname}"
                w[keys[pname]] = t

        w["encoder/W"] = Tensor(ops.glorot(rng, dims.d_in, d), requires_grad=True)
        w["encoder/b"] = Tensor(np.zeros((1, d)), requires_grad=True)
        for b in range(dims.num_blocks):
            if dims.d_edge > 0 and "GEN" in self.agg_candidates[b]:
                w[f"b{b}/edge_proj"] = Tensor(ops.glorot(rng, dims.d_edge, d),
                                              requires_grad=True)
            for name in self.fusion_candidates[b]:
                add_op("fus", b, name, ops.init_fusion_params(name, d, b + 1, rng))
            for name in self.agg_candidates[b]:
                add_op("agg", b, name, ops.init_aggregation_params(
                    name, d, rng, max_degree=max_degree, expansion=expansion))
        w["head/W"] = Tensor(ops.glorot(rng, d, dims.out_dim), requires_grad=True)
        w["head/b"] = Tensor(np.zeros((1, dims.out_dim)), requires_grad=True)
        self.weights = w

        # logit key -> (candidate names, the choice an ArchEncoding makes there)
        self.sites: dict[str, tuple] = {}
        for b in range(dims.num_blocks):
            for j in range(b + 1):
                self.sites[f"sel/b{b}/i{j}"] = (
                    ops.SELECTION_OPS, lambda a, b=b, j=j: ops.SELECTION_OPS[a.selection[b][j]])
            self.sites[f"fus/b{b}"] = (self.fusion_candidates[b], lambda a, b=b: a.fusion[b])
            self.sites[f"agg/b{b}"] = (self.agg_candidates[b], lambda a, b=b: a.aggregation[b])
        self.sites["readout"] = (self.readout_candidates, lambda a: a.readout)
        self.alphas: dict[str, Tensor] = {
            key: Tensor(np.zeros(len(names)), requires_grad=True)
            for key, (names, _) in self.sites.items()} if with_alphas else {}

    def fusion_params(self, b: int, name: str) -> dict:
        return {p: self.weights[k] for p, k in self._op_keys[("fus", b, name)].items()}

    def agg_params(self, b: int, name: str) -> dict:
        return {p: self.weights[k] for p, k in self._op_keys[("agg", b, name)].items()}

    def zero_grads(self) -> None:
        for t in self.weights.values():
            t.zero_grad()
        for t in self.alphas.values():
            t.zero_grad()


def init_relaxed(dims: SupernetDims, agg_candidates=DEFAULT_AGG_CANDIDATES,
                 seed: int = 0, max_degree: int = ops.DEFAULT_MAX_DEGREE,
                 expansion: int = ops.DEFAULT_EXPANSION) -> SupernetParams:
    """Full supernet: every candidate at every site, logits at zero."""
    L = dims.num_blocks
    return SupernetParams(dims,
                          agg_candidates=[tuple(agg_candidates)] * L,
                          fusion_candidates=[ops.FUSION_OPS] * L,
                          readout_candidates=ops.READOUT_OPS,
                          seed=seed, max_degree=max_degree, expansion=expansion)


def init_discrete(dims: SupernetDims, arch: ArchEncoding, seed: int = 0,
                  max_degree: int = ops.DEFAULT_MAX_DEGREE,
                  expansion: int = ops.DEFAULT_EXPANSION) -> SupernetParams:
    """Fresh parameters for one discrete architecture (no logits)."""
    if arch.num_blocks != dims.num_blocks:
        raise ValueError(f"architecture has {arch.num_blocks} blocks, dims say {dims.num_blocks}")
    return SupernetParams(dims,
                          agg_candidates=[(a,) for a in arch.aggregation],
                          fusion_candidates=[(f,) for f in arch.fusion],
                          readout_candidates=(arch.readout,),
                          seed=seed, max_degree=max_degree, expansion=expansion,
                          with_alphas=False)


# ---------------------------------------------------------------------------
# relaxation


def arch_weights(alpha: Tensor, lam: float) -> Tensor:
    """Temperature-scaled softmax of per-site logits; sums to 1."""
    if lam <= 0.0:
        raise ValueError(f"temperature must be positive, got {lam}")
    shifted = ad.scalar_mul(ad.sub(alpha, Tensor(alpha.data.max())), 1.0 / lam)
    e = ad.exp(shifted)
    return ad.div(e, ad.tsum(e))


def site_weights(params: SupernetParams, key: str, mode: str, arch: ArchEncoding | None):
    """Weights over the candidates of the decision site ``key``.

    Relaxed mode needs no architecture: it returns the temperature
    softmax of the site's logits. Discrete mode returns 0/1 floats with
    the 1 on the op ``arch`` chose at this site; mixed_op skips the
    zeros, so a one-hot relaxation and the discrete network agree exactly.
    """
    if mode == "discrete":
        if arch is None:
            raise ValueError("discrete mode needs an ArchEncoding")
        names, pick = params.sites[key]
        chosen = pick(arch)
        if chosen not in names:
            raise ValueError(f"op {chosen!r} not among candidates {tuple(names)}")
        return [1.0 if n == chosen else 0.0 for n in names]
    return arch_weights(params.alphas[key], params.lam)


def _per_candidate(weights, n: int) -> list:
    """One weight per candidate: length-1 slices of a Tensor, or floats."""
    if isinstance(weights, Tensor):
        if weights.data.shape != (n,):
            raise ShapeError(f"mixed_op: {n} candidates but weight shape {weights.data.shape}")
        return [weights[i: i + 1] for i in range(n)]
    if len(weights) != n:
        raise ShapeError(f"mixed_op: {n} candidates but {len(weights)} weights")
    return [float(w) for w in weights]


def mixed_op(candidates, weights, x):
    """Weighted sum of candidate outputs; zero float weights are skipped."""
    out = None
    out_shape = None
    for w, op in zip(_per_candidate(weights, len(candidates)), candidates):
        if isinstance(w, float) and w == 0.0:
            continue
        y = op(x)
        if out_shape is None:
            out_shape = y.data.shape
        elif y.data.shape != out_shape:
            raise ShapeError(f"mixed_op: candidate output shape {y.data.shape} "
                             f"differs from {out_shape}")
        term = ops.select(w, y)
        out = term if out is None else ad.add(out, term)
    if out is None:
        raise ValueError("mixed_op: all weights are zero")
    return out


def _edge_features(batch: GraphBatch, params: SupernetParams, b: int) -> Tensor | None:
    """Block ``b``'s projection of the edge features for GEN, if it has one."""
    proj = params.weights.get(f"b{b}/edge_proj")
    if proj is None or batch.edge_features is None:
        return None
    return ad.matmul(Tensor(batch.edge_features), proj)


def sfa_block_forward(batch: GraphBatch, block_index: int, history: list,
                      params: SupernetParams, mode: str = "relaxed",
                      arch: ArchEncoding | None = None) -> Tensor:
    """One selection-fusion-aggregation block over the feature history.

    ``block_index`` is 1-based: block i consumes history H0..H(i-1).
    Every site is a weighted mixture whose weights come from
    :func:`site_weights`, soft when relaxed and 0/1 when discrete.
    """
    if block_index < 1 or len(history) != block_index:
        raise ValueError(f"block {block_index} expects a history of length {block_index}")
    b = block_index - 1

    scaled = []
    for j, Hj in enumerate(history):
        w = site_weights(params, f"sel/b{b}/i{j}", mode, arch)
        scaled.append(ops.select(_per_candidate(w, 2)[1], Hj))  # the IDENTITY weight

    fus_cands = [lambda xs, n=name: ops.fuse(n, xs, params.fusion_params(b, n))
                 for name in params.fusion_candidates[b]]
    fused = mixed_op(fus_cands, site_weights(params, f"fus/b{b}", mode, arch), scaled)

    agg_cands = [lambda x, n=name: ops.aggregate(
                     n, batch, x, params.agg_params(b, n),
                     _edge_features(batch, params, b) if n == "GEN" else None)
                 for name in params.agg_candidates[b]]
    return mixed_op(agg_cands, site_weights(params, f"agg/b{b}", mode, arch), fused)


def supernet_forward(batch: GraphBatch, params: SupernetParams,
                     mode: str = "relaxed", arch: ArchEncoding | None = None,
                     training: bool = False, dropout_rate: float = 0.0,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Encode, run all blocks, read out, classify; returns logits B x C.

    After each block the features pass through relu, a per-node
    normalization, and (in training mode) dropout; deep stacks do not
    train without the normalization.
    """
    H0 = ad.add(ad.matmul(Tensor(batch.node_features), params.weights["encoder/W"]),
                params.weights["encoder/b"])
    history = [H0]
    for i in range(1, params.dims.num_blocks + 1):
        H = sfa_block_forward(batch, i, history, params, mode=mode, arch=arch)
        H = ops.layer_norm(ad.relu(H))
        if training and dropout_rate > 0.0:
            H = ops.dropout(H, dropout_rate, rng)
        history.append(H)

    ro_cands = [lambda x, n=name: ops.readout(n, x, batch.graph_ids, batch.num_graphs)
                for name in params.readout_candidates]
    pooled = mixed_op(ro_cands, site_weights(params, "readout", mode, arch), history[-1])
    return ad.add(ad.matmul(pooled, params.weights["head/W"]), params.weights["head/b"])


# ---------------------------------------------------------------------------
# derivation


def derive_architecture(params: SupernetParams) -> ArchEncoding:
    """Per-site argmax (first index on ties); all-ZERO blocks get the
    input with the largest IDENTITY logit forced on."""
    choice = {key: names[int(np.argmax(params.alphas[key].data))]
              for key, (names, _) in params.sites.items()}
    L = params.dims.num_blocks
    selection = []
    for b in range(L):
        keys = [f"sel/b{b}/i{j}" for j in range(b + 1)]
        bits = [int(choice[k] == "IDENTITY") for k in keys]
        if not any(bits):
            bits[int(np.argmax([params.alphas[k].data[1] for k in keys]))] = 1
        selection.append(tuple(bits))
    return ArchEncoding(num_blocks=L, selection=tuple(selection),
                        fusion=tuple(choice[f"fus/b{b}"] for b in range(L)),
                        aggregation=tuple(choice[f"agg/b{b}"] for b in range(L)),
                        readout=choice["readout"])


def force_one_hot_alphas(params: SupernetParams, arch: ArchEncoding,
                         magnitude: float = 1e6) -> None:
    """Pin the logits so the relaxed weights reproduce ``arch`` exactly."""
    for key, (names, pick) in params.sites.items():
        alpha = params.alphas[key].data
        alpha[:] = -magnitude
        alpha[names.index(pick(arch))] = magnitude
