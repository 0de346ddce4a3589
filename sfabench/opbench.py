"""Per-op checks and timings on one fixed 32-graph batch of a workload.

Every candidate op is checked against a reference from :mod:`oracles`
and its gradient by a central difference at a few coordinates. The traced
run also times each op's forward and forward+backward pass.
"""

from __future__ import annotations

import time

import numpy as np

import oracles
from sfanas import autodiff as ad
from sfanas import ops
from sfanas.autodiff import Tensor

FUSION_INPUTS = 4
GRAD_COORDS = 3
REL_TOL = 1e-9       # program vs reference: only summation order differs
GRAD_TOL = 1e-5      # central difference at eps 1e-6 in float64
MIN_REPS, MAX_REPS, MIN_TIME_S = 5, 50, 0.25

_GAT_VARIANTS = {"GAT": "plain", "GAT_SYM": "sym", "GAT_COS": "cos"}


class OpCase:
    """One op bound to the fixed batch: program call and reference."""

    def __init__(self, kind, name, batch, rng, hidden, edge_proj):
        self.kind, self.name, self.batch = kind, name, batch
        n = batch.num_nodes
        count = FUSION_INPUTS if kind == "fusion" else 1
        self.inputs = [rng.normal(size=(n, hidden)) for _ in range(count)]
        if kind == "aggregation":
            self.params = ops.init_aggregation_params(name, hidden, rng)
        elif kind == "fusion":
            self.params = ops.init_fusion_params(name, hidden, FUSION_INPUTS, rng)
        else:
            self.params = {}
        self.edge_feats = None
        if kind == "aggregation" and name == "GEN" and batch.edge_features is not None:
            self.edge_feats = batch.edge_features @ edge_proj
        self.weights = rng.normal(size=(n if kind != "readout" else batch.num_graphs, hidden))

    def program(self, tensors):
        b = self.batch
        if self.kind == "aggregation":
            ef = None if self.edge_feats is None else Tensor(self.edge_feats)
            return ops.aggregate(self.name, b, tensors[0], self.params, ef)
        if self.kind == "fusion":
            return ops.fuse(self.name, tensors, self.params)
        return ops.readout(self.name, tensors[0], b.graph_ids, b.num_graphs)

    def reference(self):
        b = self.batch
        p = {k: t.data for k, t in self.params.items()}
        if self.kind == "aggregation":
            return oracles.aggregate(self.name, b.edges, b.num_nodes, self.inputs[0], p,
                                     self.edge_feats)
        if self.kind == "fusion":
            return oracles.fuse(self.name, self.inputs, p)
        return oracles.readout(self.name, self.inputs[0], b.graph_ids, len(b.node_counts))

    def loss(self, tensors):
        """Scalar sum(op(inputs) * fixed weights), so every output entry counts."""
        return ad.tsum(ad.mul(self.program(tensors), Tensor(self.weights)))

    def forward(self):
        return self.program([Tensor(x, requires_grad=True) for x in self.inputs])

    def forward_backward(self):
        tensors = [Tensor(x, requires_grad=True) for x in self.inputs]
        ad.backward(self.loss(tensors))
        return tensors


def all_cases(batch, seed, hidden):
    rng = np.random.default_rng([int(seed), 0x0B5])
    edge_proj = ops.glorot(rng, batch.edge_features.shape[1], hidden) \
        if batch.edge_features is not None else None
    cases = [OpCase("aggregation", name, batch, rng, hidden, edge_proj)
             for name in ops.AGGREGATION_OPS]
    cases += [OpCase("fusion", name, batch, rng, hidden, edge_proj) for name in ops.FUSION_OPS]
    cases += [OpCase("readout", name, batch, rng, hidden, edge_proj) for name in ops.READOUT_OPS]
    return cases


def _close(a, b, tol=REL_TOL) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def _attention_ok(case) -> tuple[bool, str]:
    """Attention of GAT variants and GEN sums to 1 over each destination's
    in-edges and matches the per-destination reference."""
    b, H = case.batch, case.inputs[0]
    p = {k: t.data for k, t in case.params.items()}
    n = b.num_nodes
    if case.name in _GAT_VARIANTS:
        variant = _GAT_VARIANTS[case.name]
        attn, _, dst = ops.gat_attention(b, Tensor(H), case.params, variant)
        attn = attn.data[:, 0]
        ref, _, _, _ = oracles.gat_attention(b.edges, n, H, p, variant)
        sums = np.bincount(dst, weights=attn, minlength=n)
        has_in = np.ones(n, dtype=bool)  # every node has its self-loop
    else:
        ref, m, dst = oracles.gen_weights(b.edges, n, H, p, case.edge_feats)
        attn = ad.segment_softmax(Tensor(p["beta"][0] * m), dst, n).data
        sums = np.zeros((n, attn.shape[1]))
        np.add.at(sums, dst, attn)  # per destination and channel
        has_in = np.bincount(dst, minlength=n) > 0
    sums_ok = bool(np.all(np.abs(sums[has_in] - 1.0) <= 1e-12))
    return sums_ok and _close(attn, ref), \
        f"attention sums off by {np.abs(sums[has_in] - 1.0).max():.1e}"


def _gradient_ok(case, rng) -> tuple[bool, str]:
    tensors = case.forward_backward()
    worst = 0.0
    for _ in range(GRAD_COORDS):
        k = int(rng.integers(len(case.inputs)))
        rows, cols = case.inputs[k].shape
        idx = (int(rng.integers(rows)), int(rng.integers(cols)))
        xs = [x.copy() for x in case.inputs]

        def f(x, k=k):
            return float(case.loss([Tensor(v) for v in xs[:k] + [x] + xs[k + 1:]]).data)

        numeric = oracles.central_difference(f, xs[k], idx)
        analytic = tensors[k].grad[idx]
        worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
    return worst <= GRAD_TOL, f"worst gradient error {worst:.1e}"


def check_ops(batch, seed, hidden, check) -> None:
    """Run every op check through ``check(name, ok, detail)``."""
    rng = np.random.default_rng([int(seed), 0x6AD])
    for mode in ("sum", "mean", "max"):
        ids = batch.edges[:, 1]
        values = rng.normal(size=(len(ids), hidden))
        got = ad.segment_reduce(Tensor(values), ids, batch.num_nodes, mode).data
        want = oracles.segment(values, ids, batch.num_nodes, mode)
        check(f"segment_{mode} matches per-segment loop", _close(got, want), "")
    for case in all_cases(batch, seed, hidden):
        got = case.forward().data
        want = case.reference()
        err = float(np.abs(got - want).max()) if got.shape == want.shape else float("inf")
        check(f"{case.name} matches reference", _close(got, want), f"max abs error {err:.1e}")
        if case.name in _GAT_VARIANTS or case.name == "GEN":
            check(f"{case.name} attention is a distribution", *_attention_ok(case))
        check(f"{case.name} gradient", *_gradient_ok(case, rng))


def _median_ms(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MAX_REPS and (len(times) < MIN_REPS
                                     or time.perf_counter() - start < MIN_TIME_S):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def time_ops(batch, seed, hidden) -> dict:
    """ops.<OP>.fwd_ms and ops.<OP>.fwdbwd_ms, medians over repeats."""
    out = {}
    for case in all_cases(batch, seed, hidden):
        out[f"ops.{case.name}.fwd_ms"] = _median_ms(case.forward)
        out[f"ops.{case.name}.fwdbwd_ms"] = _median_ms(case.forward_backward)
    return out


def tape_size(loss) -> tuple[int, int]:
    """Tensors reachable from ``loss`` on the tape, and their data bytes."""
    seen = {id(loss)}
    stack = [loss]
    nbytes = 0
    while stack:
        t = stack.pop()
        nbytes += t.data.nbytes
        for p in t._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes
