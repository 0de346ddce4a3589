"""Relaxed selection-fusion-aggregation network.

The supernet runs every candidate operation at every decision site and
combines the results by a weighted sum whose weights come from a
temperature-scaled softmax over per-site logits. Driving the temperature
down pushes the weights toward one-hot, and per-site argmax then yields a
discrete architecture. Discrete mode runs only the op chosen at each
fusion, aggregation and readout site, unweighted; a hard one-hot
relaxation adds exact zeros to it, so the two agree to the last bit.
:func:`site_forward` evaluates the sites ``SupernetParams.sites`` lists,
and each candidate reads its tensors from ``SupernetParams.ops`` by site
and name; tensor names exist only for the model file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import Tensor
from .graphs import KINDS, GraphBatch, ValidationError, fields, located

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
    def from_dict(cls, obj, where: str = "architecture") -> "ArchEncoding":
        """Inverse of :meth:`to_dict`; an error names ``where`` and the key.
        ``num_blocks`` and the selection bits must be JSON integers: 1.9,
        "1" and true are refused, not truncated."""
        blocks = fields(obj, ARCH, where)["blocks"]
        for i, b in enumerate(blocks):
            bits = fields(b, ARCH_BLOCK, f"{where}: block {i}")["select"]
            if not all(KINDS["int"](v) for v in bits):
                raise ValidationError(f"{where}: block {i}: select must hold ints, got {bits}")
        with located(where):
            return cls(num_blocks=obj["num_blocks"],
                       selection=tuple(tuple(b["select"]) for b in blocks),
                       fusion=tuple(b["fusion"] for b in blocks),
                       aggregation=tuple(b["agg"] for b in blocks), readout=obj["readout"])


ARCH = {"num_blocks": "int", "blocks": "list", "readout": "str"}
ARCH_BLOCK = {"select": "list", "fusion": "str", "agg": "str"}


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class SupernetDims:
    d_in: int
    out_dim: int
    num_blocks: int
    hidden: int
    d_edge: int = 0

    def __post_init__(self):
        for key, least in (("d_in", 0), ("out_dim", 1), ("num_blocks", 1), ("hidden", 1),
                           ("d_edge", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")


class SupernetParams:
    """All learnable state: operation weights, per-site logits, temperature.

    Candidate lists are per block so the same container serves the full
    relaxed supernet and an architecture-restricted discrete model.
    ``sites`` lists every decision site once, in logit order; the logits,
    site_forward, derivation and one-hot pinning all read it. ``ops``
    maps (site key, candidate) to that op's parameter dict, e.g.
    ``ops["agg/b1", "GEN"]``, and ``edge_proj`` holds each block's edge
    feature projection for GEN, or None. ``weights`` is the flat, ordered
    name -> tensor view of the same tensors, encoder and head included;
    the names serve only the model file and the optimizer.
    """

    def __init__(self, dims: SupernetDims, agg_candidates, fusion_candidates,
                 readout_candidates, seed: int, with_alphas: bool = True):
        self.dims = dims
        self.lam = 1.0

        rng = np.random.default_rng([int(seed), 0xA7C4])
        d = dims.hidden
        w: dict[str, Tensor] = {
            "encoder/W": Tensor(ops.glorot(rng, dims.d_in, d), requires_grad=True),
            "encoder/b": Tensor(np.zeros((1, d)), requires_grad=True)}
        # logit key -> (candidate names, the choice an ArchEncoding makes there)
        self.sites: dict[str, tuple] = {}
        self.ops: dict[tuple, dict] = {}
        self.edge_proj: list[Tensor | None] = []
        for b in range(dims.num_blocks):
            for j in range(b + 1):
                self.sites[f"sel/b{b}/i{j}"] = (
                    ops.SELECTION_OPS, lambda a, b=b, j=j: ops.SELECTION_OPS[a.selection[b][j]])
            self.sites[f"fus/b{b}"] = (tuple(fusion_candidates[b]), lambda a, b=b: a.fusion[b])
            self.sites[f"agg/b{b}"] = (tuple(agg_candidates[b]), lambda a, b=b: a.aggregation[b])
            proj = None
            if dims.d_edge > 0 and "GEN" in self.sites[f"agg/b{b}"][0]:
                proj = w[f"b{b}/edge_proj"] = Tensor(ops.glorot(rng, dims.d_edge, d),
                                                     requires_grad=True)
            self.edge_proj.append(proj)
            for kind, init in (("fus", lambda n: ops.init_fusion_params(n, d, b + 1, rng)),
                               ("agg", lambda n: ops.init_aggregation_params(n, d, rng))):
                for name in self.sites[f"{kind}/b{b}"][0]:
                    op_params = self.ops[f"{kind}/b{b}", name] = init(name)
                    w.update((f"b{b}/{kind}/{name}/{p}", t) for p, t in op_params.items())
        w["head/W"] = Tensor(ops.glorot(rng, d, dims.out_dim), requires_grad=True)
        w["head/b"] = Tensor(np.zeros((1, dims.out_dim)), requires_grad=True)
        self.weights = w
        self.sites["readout"] = (tuple(readout_candidates), lambda a: a.readout)
        self.alphas: dict[str, Tensor] = {
            key: Tensor(np.zeros(len(names)), requires_grad=True)
            for key, (names, _) in self.sites.items()} if with_alphas else {}

    def zero_grads(self) -> None:
        for t in self.weights.values():
            t.zero_grad()
        for t in self.alphas.values():
            t.zero_grad()


def init_relaxed(dims: SupernetDims, agg_candidates=DEFAULT_AGG_CANDIDATES,
                 seed: int = 0) -> SupernetParams:
    """Full supernet: every candidate at every site, logits at zero."""
    L = dims.num_blocks
    return SupernetParams(dims,
                          agg_candidates=[tuple(agg_candidates)] * L,
                          fusion_candidates=[ops.FUSION_OPS] * L,
                          readout_candidates=ops.READOUT_OPS, seed=seed)


def init_discrete(dims: SupernetDims, arch: ArchEncoding, seed: int = 0) -> SupernetParams:
    """Fresh parameters for one discrete architecture (no logits)."""
    if arch.num_blocks != dims.num_blocks:
        raise ValueError(f"architecture has {arch.num_blocks} blocks, dims say {dims.num_blocks}")
    return SupernetParams(dims,
                          agg_candidates=[(a,) for a in arch.aggregation],
                          fusion_candidates=[(f,) for f in arch.fusion],
                          readout_candidates=(arch.readout,),
                          seed=seed, with_alphas=False)


# ---------------------------------------------------------------------------
# relaxation


def arch_weights(alpha: Tensor, lam: float) -> Tensor:
    """Temperature-scaled softmax of per-site logits; sums to 1."""
    if lam <= 0.0:
        raise ValueError(f"temperature must be positive, got {lam}")
    return ad.softmax(alpha, lam)


def site_forward(params: SupernetParams, key: str, arch: ArchEncoding | None, run):
    """Output of the decision site ``key``; ``run(name)`` computes a candidate.

    Discrete (``arch`` given): the op ``arch`` chose, run alone. Relaxed:
    every candidate in site order, mixed by :func:`autodiff.weighted_sum`
    with its softmax weight.
    """
    names, pick = params.sites[key]
    if arch is not None:
        chosen = pick(arch)
        if chosen not in names:
            raise ValueError(f"op {chosen!r} not among candidates {tuple(names)}")
        return run(chosen)
    w = arch_weights(params.alphas[key], params.lam)  # taped before the candidates
    return ad.weighted_sum(w, [run(name) for name in names])


def sfa_block_forward(batch: GraphBatch, block_index: int, history: list,
                      params: SupernetParams, arch: ArchEncoding | None = None) -> Tensor:
    """One selection-fusion-aggregation block over the feature history.

    ``block_index`` is 1-based: block i consumes history H0..H(i-1).
    Fusion and aggregation are :func:`site_forward` sites; the aggregation
    candidates share one :class:`ops.Neighbours` of the fused features, so
    the edge gather and neighbour sum they read are built once. A selection
    site scales H_j by one weight: its IDENTITY softmax weight when relaxed
    (ZERO contributes nothing), ``arch``'s 0/1 bit when discrete. The
    product is a node even for a 1 bit: H_j feeds several blocks, and
    passing it on itself would reorder the gradient sums into it.
    """
    if block_index < 1 or len(history) != block_index:
        raise ValueError(f"block {block_index} expects a history of length {block_index}")
    b = block_index - 1

    scaled = []
    for j, Hj in enumerate(history):
        if arch is None:  # the IDENTITY weight
            w = arch_weights(params.alphas[f"sel/b{b}/i{j}"], params.lam)[1:2]
        else:
            w = Tensor([float(arch.selection[b][j])])
        scaled.append(ad.mul(w, Hj))

    fus, agg, proj = f"fus/b{b}", f"agg/b{b}", params.edge_proj[b]
    fused = site_forward(params, fus, arch,
                         lambda name: ops.fuse(name, scaled, params.ops[fus, name]))
    shared = ops.Neighbours(batch, fused)
    return site_forward(params, agg, arch, lambda name: ops.aggregate(
        name, batch, fused, params.ops[agg, name],
        ad.matmul(Tensor(batch.edge_features), proj)
        if name == "GEN" and proj is not None and batch.edge_features is not None else None,
        shared))


def supernet_forward(batch: GraphBatch, params: SupernetParams,
                     mode: str = "relaxed", arch: ArchEncoding | None = None,
                     training: bool = False, dropout_rate: float = 0.0,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Encode, run all blocks, read out, classify; returns logits B x C.

    ``mode`` is "relaxed" (every candidate, softmax weights) or
    "discrete" (the ops ``arch`` chose). After each block the features
    pass through relu, a per-node normalization, and (in training mode)
    dropout; deep stacks do not train without the normalization.

    The forward holds the batch's index plan (its five
    :class:`autodiff.SegmentIndex` handles) while it runs, so every kernel
    reads one handle per index array and builds each flat index once, as
    in a taped step, also when nothing is taped.
    """
    if mode not in ("relaxed", "discrete"):
        raise ValueError(f"unknown mode {mode!r}; expected 'relaxed' or 'discrete'")
    if mode == "discrete" and arch is None:
        raise ValueError("discrete mode needs an ArchEncoding")
    arch = arch if mode == "discrete" else None
    plan = (batch.src, batch.dst, batch.loop_src, batch.loop_dst, batch.graph_index)
    H0 = ad.add(ad.matmul(Tensor(batch.node_features), params.weights["encoder/W"]),
                params.weights["encoder/b"])
    history = [H0]
    for i in range(1, params.dims.num_blocks + 1):
        H = sfa_block_forward(batch, i, history, params, arch)
        H = ad.layer_norm(ad.relu(H))
        if training and dropout_rate > 0.0:
            H = ops.dropout(H, dropout_rate, rng)
        history.append(H)

    pooled = site_forward(params, "readout", arch, lambda name: ops.readout(
        name, history[-1], batch.graph_index, batch.num_graphs))
    logits = ad.add(ad.matmul(pooled, params.weights["head/W"]), params.weights["head/b"])
    del plan  # from here on only the tape nodes that read an index hold it
    return logits


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


def force_one_hot_alphas(params: SupernetParams, arch: ArchEncoding) -> None:
    """Pin the logits to -1e6 but 1e6 for ``arch``'s pick, so the relaxed
    weights reproduce ``arch`` exactly."""
    for key, (names, pick) in params.sites.items():
        alpha = params.alphas[key].data
        alpha[:] = -1e6
        alpha[names.index(pick(arch))] = 1e6
