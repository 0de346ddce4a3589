"""Finite-difference verification of every backward rule.

The registry covers three layers: each autodiff primitive, each graph
operator (every fusion, aggregation and readout candidate exactly once),
and two whole networks: the relaxed supernet, checked against both its
operation weights and its architecture logits, and a discrete network
whose selection bits are both 0 and 1. Each check returns the max
relative error between analytic and central-difference gradients. A
network check backpropagates once, then moves each entry of every weight
and logit in place (:func:`autodiff.difference_error`), so the forward
reads the very tensors it trains with.

Check functions must be pure: every random constant is drawn before the
function is handed to grad_check, which re-evaluates it many times.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import Tensor
from .graphs import Graph, batch_graphs
from .supernet import ArchEncoding, SupernetDims, init_discrete, init_relaxed, supernet_forward
from .training import bce_masked, cross_entropy

THRESHOLD = 1e-4


def _away_from(x: np.ndarray) -> np.ndarray:
    # nudge values off the (leaky) relu kink at 0 so central differences hold
    near = np.abs(x) < 0.05
    return x + np.where(near, np.sign(x + 1e-12) * 0.05, 0.0)


def _spread(x: np.ndarray) -> np.ndarray:
    # strictly distinct entries, so max-style ops have stable argmaxes
    return np.round(x, 1) + np.linspace(0.02, 0.03, x.size).reshape(x.shape)


def _checked(raw, x: np.ndarray, rng: np.random.Generator) -> float:
    """grad_check of sum(raw(t) * W) for a fixed random W."""
    y0 = raw(Tensor(x))
    w = Tensor(rng.standard_normal(y0.data.shape))
    return ad.grad_check(lambda t: ad.tsum(ad.mul(raw(t), w)), Tensor(x))


def _primitive_checks():
    checks = []

    def simple(name, make_raw, data_fn=None):
        def run():
            rng = np.random.default_rng([9, zlib.crc32(name.encode())])
            x = rng.standard_normal((3, 4))
            if data_fn is not None:
                x = data_fn(x)
            return _checked(make_raw(rng), x, rng)
        checks.append((f"primitive/{name}", run))

    def const(rng, shape=(3, 4)):
        return Tensor(rng.standard_normal(shape))

    simple("add", lambda rng: (lambda t, c=const(rng): ad.add(t, c)))
    simple("sub", lambda rng: (lambda t, c=const(rng): ad.sub(t, c)))
    simple("mul", lambda rng: (lambda t, c=const(rng): ad.mul(t, c)))
    simple("div", lambda rng: (lambda t, c=const(rng): ad.div(c, t)),
           data_fn=lambda x: np.abs(x) + 0.5)
    simple("scalar_mul", lambda rng: (lambda t: ad.scalar_mul(t, 1.7)))
    simple("maximum", lambda rng: (lambda t, c=const(rng): ad.maximum(t, c)),
           data_fn=lambda x: x + np.sign(x + 1e-12) * 0.3)
    simple("matmul", lambda rng: (lambda t, c=const(rng, (4, 2)): ad.matmul(t, c)))
    simple("relu", lambda rng: ad.relu, data_fn=_away_from)
    simple("leaky_relu", lambda rng: ad.leaky_relu, data_fn=_away_from)
    simple("sigmoid", lambda rng: ad.sigmoid)
    simple("exp", lambda rng: ad.exp)
    simple("log", lambda rng: ad.log, data_fn=lambda x: np.abs(x) + 0.5)
    simple("sqrt", lambda rng: ad.sqrt, data_fn=lambda x: np.abs(x) + 0.5)
    simple("concat", lambda rng: (lambda t, c=const(rng): ad.concat([t, c])))
    simple("tslice", lambda rng: (lambda t: t[1:3, 0:2]))
    simple("tsum", lambda rng: (lambda t: ad.tsum(t, axis=0, keepdims=True)))
    simple("tmean", lambda rng: (lambda t: ad.tmean(t, axis=1, keepdims=True)))
    simple("softmax", lambda rng: (lambda t: ad.softmax(t[1], 0.7)))
    simple("weighted_sum", lambda rng: (
        lambda t, c=const(rng, (2, 4)): ad.weighted_sum(t[0, 0:3], [t[1:3], c, t[1:3]])))
    simple("layer_norm", lambda rng: ad.layer_norm)

    def masked_bce_run():
        rng = np.random.default_rng([9, 132])
        z = rng.standard_normal((4, 3))
        y = rng.integers(0, 2, size=(4, 3)).astype(float)
        mask = np.ones((4, 3), dtype=bool)
        mask[0, 1] = False
        return ad.grad_check(lambda t: ad.masked_bce(t, y, mask), Tensor(z))
    checks.append(("primitive/masked_bce", masked_bce_run))

    def lstm_run():
        rng = np.random.default_rng([9, 140])
        args = [rng.standard_normal(shape) for shape in [(3, 2)] * 3 + [(2, 8), (2, 8), (1, 8)]]

        def of_arg(k):  # the LSTM as a function of argument k, the rest fixed
            def f(t):
                ts = [t if j == k else Tensor(a) for j, a in enumerate(args)]
                return ad.lstm(ts[:3], *ts[3:])
            return f
        return max(_checked(of_arg(k), args[k], rng) for k in range(len(args)))
    checks.append(("primitive/lstm", lstm_run))

    def gather_run():
        rng = np.random.default_rng([9, 101])
        x = rng.standard_normal((5, 3))
        idx = np.array([0, 2, 2, 4, 1, 0])
        return _checked(lambda t: ad.gather_rows(t, idx), x, rng)
    checks.append(("primitive/gather_rows", gather_run))

    ids = np.array([0, 0, 1, 2, 2, 2])
    for mode in ("sum", "mean", "max"):
        def seg_run(mode=mode):
            rng = np.random.default_rng([9, 110, len(mode)])
            x = rng.standard_normal((6, 3))
            if mode == "max":
                x = _spread(x)
            return _checked(lambda t: ad.segment_reduce(t, ids, 4, mode), x, rng)
        checks.append((f"primitive/segment_{mode}", seg_run))

    def segsoft_run():
        rng = np.random.default_rng([9, 120])
        x = rng.standard_normal((6, 2))
        return _checked(lambda t: ad.segment_softmax(t, ids, 3), x, rng)
    checks.append(("primitive/segment_softmax", segsoft_run))

    def softagg_run():
        rng = np.random.default_rng([9, 121])
        x = _away_from(rng.standard_normal((6, 2)))  # both signs, off relu's kink
        beta = Tensor(np.array([1.6]))
        return max(_checked(lambda t: ad.softmax_aggregate(t, beta, ids, 4), x, rng),
                   _checked(lambda t: ad.softmax_aggregate(Tensor(x), t, ids, 4),
                            beta.data, rng))
    checks.append(("primitive/softmax_aggregate", softagg_run))

    def pick_run():
        rng = np.random.default_rng([9, 102])
        x = rng.standard_normal((4, 6))
        return _checked(lambda t: ad.pick_blocks(t, np.array([2, 0, 0, 1]), 2), x, rng)
    checks.append(("primitive/pick_blocks", pick_run))

    def bce_run():
        rng = np.random.default_rng([9, 130])
        z = rng.standard_normal((4, 3))
        y = rng.integers(0, 2, size=(4, 3)).astype(float)
        y[0, 1] = np.nan
        return ad.grad_check(lambda t: bce_masked(t, y), Tensor(z))
    checks.append(("loss/bce_masked", bce_run))

    def ce_run():
        rng = np.random.default_rng([9, 131])
        z = rng.standard_normal((4, 3))
        y = rng.integers(0, 3, size=4)
        return ad.grad_check(lambda t: cross_entropy(t, y), Tensor(z))
    checks.append(("loss/cross_entropy", ce_run))
    return checks


def _toy_batch(d: int, d_edge: int = 0):
    rng = np.random.default_rng([9, 200])
    feats = [rng.standard_normal((3, d)), rng.standard_normal((3, d))]
    edge_lists = [np.array([[0, 1], [1, 0], [1, 2], [2, 1], [0, 0]]),
                  np.array([[0, 2], [2, 0], [1, 2], [2, 1]])]
    graphs = []
    for X, E in zip(feats, edge_lists):
        ef = rng.standard_normal((E.shape[0], d_edge)) if d_edge else None
        graphs.append(Graph(node_features=X, edges=E, edge_features=ef,
                            label=np.array([1.0])))
    return batch_graphs(graphs)


def _operator_checks():
    checks = []
    d = 4
    batch = _toy_batch(d, d_edge=3)
    prng = np.random.default_rng([9, 201])
    fus_params = {name: ops.init_fusion_params(name, d, 3, prng)
                  for name in ops.FUSION_OPS}
    agg_params = {name: ops.init_aggregation_params(name, d, prng)
                  for name in ops.AGGREGATION_OPS}

    for name in ops.FUSION_OPS:
        def fus_run(name=name):
            rng = np.random.default_rng([9, 220])
            x = rng.standard_normal(batch.node_features.shape)
            if name == "MAX":
                x = _spread(x)
            others = [Tensor(rng.standard_normal(x.shape) * 0.7) for _ in range(2)]
            return _checked(
                lambda t: ops.fuse(name, [t] + others, fus_params[name]), x, rng)
        checks.append((f"op/fusion/{name}", fus_run))

    for name in ops.AGGREGATION_OPS:
        def agg_run(name=name):
            rng = np.random.default_rng([9, 230])
            x = _away_from(rng.standard_normal(batch.node_features.shape))
            ef_data = rng.standard_normal((batch.edges.shape[0], d))
            if name == "GEN":
                # keep relu(h_src + e) in its linear region
                x = np.abs(x) + 0.1
                ef_data = np.abs(ef_data) + 0.1
            ef = Tensor(ef_data)
            return _checked(
                lambda t: ops.aggregate(name, batch, t, agg_params[name],
                                        edge_feats=ef), x, rng)
        checks.append((f"op/aggregation/{name}", agg_run))

    for name in ops.READOUT_OPS:
        def ro_run(name=name):
            rng = np.random.default_rng([9, 240])
            x = rng.standard_normal(batch.node_features.shape)
            if name == "GLOBAL_MAX":
                x = _spread(x)
            return _checked(
                lambda t: ops.readout(name, t, batch.graph_ids, batch.num_graphs),
                x, rng)
        checks.append((f"op/readout/{name}", ro_run))
    return checks


# block 1 reads H0 and drops H1: a 1 and a 0 selection bit
_DISCRETE = ArchEncoding(num_blocks=2, selection=((1,), (1, 0)), fusion=("CONCAT", "SUM"),
                         aggregation=("GEN", "GIN"), readout="GLOBAL_SUM")


def _supernet_checks():
    def run(arch):
        batch = _toy_batch(2, d_edge=2)
        dims = SupernetDims(d_in=2, out_dim=2, num_blocks=2, hidden=4, d_edge=2)
        params = init_relaxed(dims, seed=7) if arch is None else init_discrete(dims, arch, seed=7)
        rng = np.random.default_rng([9, 300])
        w_out = Tensor(rng.standard_normal((batch.num_graphs, 2)))
        mode = "relaxed" if arch is None else "discrete"

        def objective():
            return ad.tsum(ad.mul(supernet_forward(batch, params, mode, arch), w_out))

        ad.backward(objective())
        leaves = [*params.weights.values(), *params.alphas.values()]
        with ad.frozen(leaves):
            return max(ad.difference_error(t.grad, lambda: float(objective().data), t.data)
                       for t in leaves)
    return [("supernet/relaxed", lambda: run(None)), ("supernet/discrete", lambda: run(_DISCRETE))]


def all_checks():
    return _primitive_checks() + _operator_checks() + _supernet_checks()


def run_all():
    """Execute every registered check; returns [(name, max_error), ...]."""
    return [(name, float(run())) for name, run in all_checks()]
