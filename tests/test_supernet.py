"""Tests for the relaxed supernet: encodings, mixing, block forward, derivation."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from sfanas import autodiff as ad
from sfanas import graphs, ops, supernet
from sfanas.autodiff import ShapeError, Tensor
from sfanas.search import SearchConfig, random_architecture
from sfanas.supernet import (ArchEncoding, SupernetDims, arch_weights,
                             derive_architecture, force_one_hot_alphas,
                             init_discrete, init_relaxed, sfa_block_forward,
                             site_forward, supernet_forward)
from sfanas.training import SGD, descend, task_loss


def T(x):
    return Tensor(np.asarray(x, dtype=np.float64))


def make_batch(node_features, edges, labels=None, d_edge=0, rng=None):
    gs = []
    for feats, e in zip(node_features, edges):
        e = np.asarray(e, dtype=np.int64).reshape(-1, 2)
        ef = rng.normal(size=(len(e), d_edge)) if d_edge else None
        gs.append(graphs.Graph(node_features=feats, edges=e,
                               edge_features=ef, label=np.array([0.0])))
    return graphs.batch_graphs(gs)


def simple_arch(num_blocks=1, fusion="SUM", agg="GIN", readout="GLOBAL_MEAN"):
    return ArchEncoding(
        num_blocks=num_blocks,
        selection=tuple(tuple(1 for _ in range(b + 1)) for b in range(num_blocks)),
        fusion=(fusion,) * num_blocks,
        aggregation=(agg,) * num_blocks,
        readout=readout)


# ---------------------------------------------------------------------------
# encoding


class TestArchEncoding:
    def test_round_trip_json(self):
        arch = ArchEncoding(num_blocks=2, selection=((1,), (1, 0)),
                            fusion=("MAX", "CONCAT"),
                            aggregation=("GIN", "EXPC"), readout="GLOBAL_MAX")
        again = ArchEncoding.from_dict(json.loads(json.dumps(arch.to_dict())))
        assert again == arch

    def test_dict_shape(self):
        arch = simple_arch(num_blocks=2)
        d = arch.to_dict()
        assert set(d) == {"num_blocks", "blocks", "readout"}
        assert d["num_blocks"] == 2
        assert d["blocks"][1] == {"select": [1, 1], "fusion": "SUM", "agg": "GIN"}

    def test_fourteen_blocks_expressible(self):
        arch = simple_arch(num_blocks=14)
        assert len(arch.selection[13]) == 14
        assert ArchEncoding.from_dict(json.loads(json.dumps(arch.to_dict()))) == arch

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            ArchEncoding(num_blocks=0, selection=(), fusion=(),
                         aggregation=(), readout="GLOBAL_MEAN")

    def test_field_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths must equal num_blocks"):
            ArchEncoding(num_blocks=2, selection=((1,),), fusion=("SUM",),
                         aggregation=("GIN",), readout="GLOBAL_MEAN")

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError, match="selection mask must have 2 entries"):
            ArchEncoding(num_blocks=2, selection=((1,), (1,)),
                         fusion=("SUM", "SUM"), aggregation=("GIN", "GIN"),
                         readout="GLOBAL_MEAN")

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError, match="at least one input"):
            ArchEncoding(num_blocks=1, selection=((0,),), fusion=("SUM",),
                         aggregation=("GIN",), readout="GLOBAL_MEAN")

    def test_non_binary_mask_rejected(self):
        for bit in (2, 1.7, "1"):  # refused, not truncated to 1
            with pytest.raises(ValueError, match="must be 0 or 1"):
                ArchEncoding(num_blocks=1, selection=((bit,),), fusion=("SUM",),
                             aggregation=("GIN",), readout="GLOBAL_MEAN")

    @pytest.mark.parametrize("field, value", [
        ("num_blocks", 1.9), ("num_blocks", "1"), ("num_blocks", True),
        ("select", 1.7), ("select", "1"), ("select", True),
    ], ids=["blocks-float", "blocks-string", "blocks-bool",
            "bit-float", "bit-string", "bit-bool"])
    def test_from_dict_wants_json_integers(self, field, value):
        obj = simple_arch().to_dict()
        if field == "num_blocks":
            obj["num_blocks"] = value
        else:
            obj["blocks"][0]["select"] = [value]
        message = f"num_blocks must be int, got {value!r}" if field == "num_blocks" else \
            f"block 0: select must hold ints, got {[value]!r}"
        with pytest.raises(ValueError, match=re.escape(f"architecture: {message}")):
            ArchEncoding.from_dict(obj)

    def test_bad_op_names_rejected(self):
        with pytest.raises(ValueError, match="unknown fusion op"):
            simple_arch(fusion="PROD")
        with pytest.raises(ValueError, match="unknown aggregation op"):
            simple_arch(agg="SAGE")
        with pytest.raises(ValueError, match="unknown readout op"):
            simple_arch(readout="GLOBAL_MIN")


@pytest.mark.parametrize("key, value, least", [
    ("d_in", -1, 0), ("out_dim", 0, 1), ("num_blocks", 0, 1), ("hidden", 0, 1), ("d_edge", -1, 0)])
def test_dims_must_be_sizes(key, value, least):
    sizes = {"d_in": 1, "out_dim": 1, "num_blocks": 1, "hidden": 1, "d_edge": 0, key: value}
    with pytest.raises(ValueError, match=f"{key} must be >= {least}, got {value}"):
        SupernetDims(**sizes)


# ---------------------------------------------------------------------------
# relaxation weights


class TestArchWeights:
    def test_uniform_logits(self):
        w = arch_weights(Tensor(np.zeros(2)), 1.0)
        np.testing.assert_allclose(w.data, [0.5, 0.5], atol=1e-12)

    def test_log_two_gap(self):
        w = arch_weights(T([np.log(2.0), 0.0]), 1.0)
        np.testing.assert_allclose(w.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_low_temperature_sharpens(self):
        w = arch_weights(T([1.0, 0.0]), 0.05)
        assert w.data[0] > 0.99

    def test_sums_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = T(rng.normal(size=rng.integers(2, 9)) * 5.0)
            lam = float(rng.uniform(0.05, 3.0))
            assert abs(arch_weights(a, lam).data.sum() - 1.0) < 1e-9

    def test_shift_invariant(self):
        rng = np.random.default_rng(32)
        a = rng.normal(size=5)
        w1 = arch_weights(T(a), 0.7).data
        w2 = arch_weights(T(a + 123.456), 0.7).data
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    def test_monotone_sharpening(self):
        a = T([1.3, 0.2, -0.5])
        peaks = [arch_weights(a, lam).data.max() for lam in (2.0, 1.0, 0.5, 0.1)]
        assert all(p2 > p1 for p1, p2 in zip(peaks, peaks[1:]))

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_temperature_rejected(self, lam):
        with pytest.raises(ValueError, match="temperature must be positive"):
            arch_weights(Tensor(np.zeros(2)), lam)


# ---------------------------------------------------------------------------
# decision sites


class TestSiteForward:
    def setup_method(self):
        self.params = init_relaxed(SupernetDims(d_in=1, out_dim=1, num_blocks=1, hidden=1))
        self.calls = []

    def run(self, name):
        """Candidate k of the fusion site returns [[k + 1]]."""
        self.calls.append(name)
        return T([[ops.FUSION_OPS.index(name) + 1.0]])

    def test_discrete_runs_the_chosen_op_alone(self):
        out = site_forward(self.params, "fus/b0", simple_arch(fusion="MAX"), self.run)
        assert self.calls == ["MAX"]
        assert out.data[0, 0] == 3.0

    def set_weights(self):
        """Site weights 1/20, 2/20, 3/20, 4/20, 10/20."""
        self.params.alphas["fus/b0"].data[:] = np.log([1.0, 2.0, 3.0, 4.0, 10.0])
        return np.array([1.0, 2.0, 3.0, 4.0, 10.0]) / 20.0

    def test_weighted_sum(self):
        w = self.set_weights()
        out = site_forward(self.params, "fus/b0", None, self.run)
        assert self.calls == list(ops.FUSION_OPS)  # each candidate once, in site order
        assert out.data[0, 0] == pytest.approx(w @ np.arange(1.0, 6.0), abs=1e-12)

    def test_tensor_weights_receive_gradient(self):
        w = self.set_weights()
        out = site_forward(self.params, "fus/b0", None, self.run)
        ad.backward(ad.tsum(out))
        # d out / d alpha_k = w_k * (y_k - out)
        np.testing.assert_allclose(self.params.alphas["fus/b0"].grad,
                                   w * (np.arange(1.0, 6.0) - out.data[0, 0]), atol=1e-12)

    def test_choice_outside_the_candidates_rejected(self):
        params = init_discrete(self.params.dims, simple_arch(fusion="SUM"))
        with pytest.raises(ValueError, match="not among candidates"):
            site_forward(params, "fus/b0", simple_arch(fusion="MAX"), self.run)

    def test_weight_count_mismatch(self):
        self.params.alphas["fus/b0"] = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError, match=r"weighted_sum: weight shape \(3,\)"):
            site_forward(self.params, "fus/b0", None, self.run)

    def test_candidate_shape_mismatch(self):
        def run(name):
            return T(np.ones((1, 2 if name == "MAX" else 1)))
        with pytest.raises(ShapeError,
                           match=r"weighted_sum: weight shape \(5,\) for tensors .*\(1, 2\)"):
            site_forward(self.params, "fus/b0", None, run)


# ---------------------------------------------------------------------------
# block forward


class TestSfaBlock:
    def setup_method(self):
        self.rng = np.random.default_rng(41)
        self.batch = make_batch([[[1.0], [2.0]]], [[[0, 1], [1, 0]]])

    def test_discrete_gin_composition(self):
        dims = SupernetDims(d_in=1, out_dim=1, num_blocks=1, hidden=1)
        arch = simple_arch(agg="GIN")
        params = init_discrete(dims, arch)
        gin = params.ops["agg/b0", "GIN"]
        gin["eps"].data[:] = 0.0
        gin["W1"].data[:] = np.eye(1)
        gin["b1"].data[:] = 0.0
        gin["W2"].data[:] = np.eye(1)
        gin["b2"].data[:] = 0.0
        out = sfa_block_forward(self.batch, 1, [T([[1.0], [2.0]])], params, arch)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-12)

    def test_relaxed_all_zero_selection_feeds_zero_matrix(self):
        dims = SupernetDims(d_in=1, out_dim=1, num_blocks=1, hidden=1)
        params = init_relaxed(dims, seed=3)
        force_one_hot_alphas(params, simple_arch(agg="GIN"))
        params.alphas["sel/b0/i0"].data[:] = (1e6, -1e6)
        out = sfa_block_forward(self.batch, 1, [T([[1.0], [2.0]])], params)
        zero_in = ops.gin(self.batch, T(np.zeros((2, 1))), params.ops["agg/b0", "GIN"])
        np.testing.assert_array_equal(out.data, zero_in.data)

    def test_discrete_selection_bits_scale_by_zero_or_one(self, monkeypatch):
        dims = SupernetDims(d_in=1, out_dim=1, num_blocks=2, hidden=1)
        arch = ArchEncoding(num_blocks=2, selection=((1,), (0, 1)), fusion=("SUM", "CONCAT"),
                            aggregation=("GIN", "GIN"), readout="GLOBAL_MEAN")
        params = init_discrete(dims, arch, seed=3)
        fuse, seen = ops.fuse, []
        monkeypatch.setattr(ops, "fuse", lambda name, inputs, p: seen.extend(inputs) or fuse(name, inputs, p))
        H0 = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
        H1 = Tensor(np.array([[-3.0], [4.0]]), requires_grad=True)
        ad.backward(ad.tsum(sfa_block_forward(self.batch, 2, [H0, H1], params, arch)))
        zero, one = seen
        np.testing.assert_array_equal(zero.data, np.zeros((2, 1)))  # the 0 bit
        np.testing.assert_array_equal(one.data, H1.data)  # the 1 bit
        assert one is H1  # passed on itself, with no product node
        np.testing.assert_array_equal(H0.grad, np.zeros((2, 1)))

    def test_gin_and_mf_read_one_neighbour_sum(self, monkeypatch):
        """A relaxed block sums the fused features over in-edges once, in
        one ``gather_sum`` node that GIN and MF both read."""
        rng = np.random.default_rng(44)
        batch = make_batch([rng.normal(size=(5, 3))], [rng.integers(0, 5, size=(9, 2))],
                           d_edge=2, rng=rng)
        params = init_relaxed(SupernetDims(d_in=3, out_dim=1, num_blocks=1, hidden=3, d_edge=2))
        assert {"GIN", "MF"} <= set(params.sites["agg/b0"][0])
        fused, sums, readers = [], [], {}
        site, gather_sum, aggregate = supernet.site_forward, ad.gather_sum, ops.aggregate

        def record_site(params, key, arch, run):
            out = site(params, key, arch, run)
            if key == "fus/b0":
                fused.append(out)
            return out

        def record_sum(x, src, dst, num_segments, weight=None):
            sums.append((x, src, dst, weight, gather_sum(x, src, dst, num_segments, weight)))
            return sums[-1][-1]

        def record_aggregate(name, batch, H, params, edge_feats=None, neighbours=None):
            out = aggregate(name, batch, H, params, edge_feats, neighbours)
            readers[name] = neighbours._sums
            return out
        monkeypatch.setattr(supernet, "site_forward", record_site)
        monkeypatch.setattr(ad, "gather_sum", record_sum)
        monkeypatch.setattr(ops, "aggregate", record_aggregate)
        sfa_block_forward(batch, 1, [Tensor(batch.node_features, requires_grad=True)], params)
        of_fused = [(src, dst, weight, out) for x, src, dst, weight, out in sums
                    if x is fused[0]]
        assert len(of_fused) == 1
        src, dst, weight, out = of_fused[0]
        np.testing.assert_array_equal(src.ids, batch.edges[:, 0])
        np.testing.assert_array_equal(dst.ids, batch.edges[:, 1])
        assert weight is None and readers["GIN"] is out and readers["MF"] is out

    def test_history_length_checked(self):
        dims = SupernetDims(d_in=1, out_dim=1, num_blocks=2, hidden=1)
        params = init_relaxed(dims)
        with pytest.raises(ValueError, match="history of length 2"):
            sfa_block_forward(self.batch, 2, [T([[1.0], [2.0]])], params)

    def test_discrete_needs_arch(self):
        dims = SupernetDims(d_in=1, out_dim=1, num_blocks=1, hidden=1)
        params = init_discrete(dims, simple_arch())
        with pytest.raises(ValueError, match="needs an ArchEncoding"):
            supernet_forward(self.batch, params, mode="discrete", arch=None)

    @pytest.mark.parametrize("mode", ["Discrete", "RELAXED", "", None])
    def test_unknown_mode_rejected(self, mode):
        # a relaxed supernet with an architecture could run either way
        params = init_relaxed(SupernetDims(d_in=1, out_dim=1, num_blocks=1, hidden=1))
        with pytest.raises(ValueError, match="unknown mode"):
            supernet_forward(self.batch, params, mode=mode, arch=simple_arch())


# ---------------------------------------------------------------------------
# full forward


class TestSupernetForward:
    def setup_method(self):
        self.rng = np.random.default_rng(43)
        feats = [self.rng.normal(size=(5, 3)), self.rng.normal(size=(4, 3))]
        edges = [self.rng.integers(0, 5, size=(8, 2)),
                 self.rng.integers(0, 4, size=(6, 2))]
        self.batch = make_batch(feats, edges, d_edge=2, rng=self.rng)
        self.dims = SupernetDims(d_in=3, out_dim=2, num_blocks=2, hidden=4, d_edge=2)

    def test_relaxed_shape(self):
        params = init_relaxed(self.dims, seed=1)
        out = supernet_forward(self.batch, params)
        assert out.data.shape == (2, 2)

    def test_trailing_zero_node_graph_gets_a_logit_row(self):
        batch = make_batch([self.rng.normal(size=(2, 3)), np.zeros((0, 3))],
                           [[[0, 1], [1, 0]], []])
        assert batch.num_graphs == 2
        out = supernet_forward(batch, init_relaxed(self.dims, seed=1))
        assert out.data.shape == (2, 2)

    def test_one_hot_relaxed_matches_discrete(self):
        params = init_relaxed(self.dims, ops.AGGREGATION_OPS, seed=5)
        # between them these use every fusion, aggregation and readout op
        for selection, fusion, aggregation, readout in [
                (((1,), (0, 1)), ("MAX", "CONCAT"), ("GEN", "EXPC"), "GLOBAL_MAX"),
                (((1,), (1, 1)), ("SUM", "LSTM"), ("GCN", "GAT"), "GLOBAL_MEAN"),
                (((1,), (1, 0)), ("MEAN", "LSTM"), ("GAT_SYM", "GAT_COS"), "GLOBAL_SUM"),
                (((1,), (1, 1)), ("CONCAT", "MEAN"), ("GIN", "MF"), "GLOBAL_MEAN")]:
            arch = ArchEncoding(num_blocks=2, selection=selection, fusion=fusion,
                                aggregation=aggregation, readout=readout)
            force_one_hot_alphas(params, arch)
            relaxed = supernet_forward(self.batch, params, mode="relaxed")
            discrete = supernet_forward(self.batch, params, mode="discrete", arch=arch)
            np.testing.assert_array_equal(relaxed.data, discrete.data, err_msg=str(arch))

    def test_single_block_composition(self):
        dims = SupernetDims(d_in=3, out_dim=2, num_blocks=1, hidden=4)
        arch = simple_arch(agg="GCN", readout="GLOBAL_MEAN")
        params = init_discrete(dims, arch, seed=9)
        out = supernet_forward(self.batch, params, mode="discrete", arch=arch)

        H0 = ad.add(ad.matmul(T(self.batch.node_features), params.weights["encoder/W"]),
                    params.weights["encoder/b"])
        H1 = ad.layer_norm(ad.relu(ops.gcn(self.batch, H0, params.ops["agg/b0", "GCN"])))
        pooled = ops.readout("GLOBAL_MEAN", H1, self.batch.graph_ids, 2)
        expected = ad.add(ad.matmul(pooled, params.weights["head/W"]),
                          params.weights["head/b"])
        np.testing.assert_array_equal(out.data, expected.data)

    def test_node_permutation_leaves_logits(self):
        params = init_relaxed(self.dims, seed=7)
        base = supernet_forward(self.batch, params).data

        feats0 = self.batch.node_features[:5]
        edges0 = self.batch.edges[:8]
        ef0 = self.batch.edge_features[:8]
        perm = self.rng.permutation(5)
        inv = np.empty(5, dtype=np.int64)
        inv[perm] = np.arange(5)
        g0 = graphs.Graph(node_features=feats0[perm], edges=inv[edges0],
                          edge_features=ef0, label=np.array([0.0]))
        g1 = graphs.Graph(node_features=self.batch.node_features[5:],
                          edges=self.batch.edges[8:] - 5,
                          edge_features=self.batch.edge_features[8:],
                          label=np.array([0.0]))
        permuted = supernet_forward(graphs.batch_graphs([g0, g1]), params).data
        np.testing.assert_allclose(permuted, base, atol=1e-9)

    def test_duplicate_graph_duplicate_rows(self):
        feats = self.rng.normal(size=(4, 3))
        edges = self.rng.integers(0, 4, size=(5, 2))
        batch = make_batch([feats, feats], [edges, edges], d_edge=0)
        dims = SupernetDims(d_in=3, out_dim=2, num_blocks=2, hidden=4)
        params = init_relaxed(dims, seed=2)
        out = supernet_forward(batch, params).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_dropout_only_in_training(self):
        params = init_relaxed(self.dims, seed=4)
        a = supernet_forward(self.batch, params, training=False, dropout_rate=0.5).data
        b = supernet_forward(self.batch, params, training=False, dropout_rate=0.5).data
        np.testing.assert_array_equal(a, b)
        c = supernet_forward(self.batch, params, training=True, dropout_rate=0.5,
                             rng=np.random.default_rng(0)).data
        assert np.abs(a - c).max() > 1e-9


# ---------------------------------------------------------------------------
# parameters


class TestParams:
    def test_same_seed_same_weights(self):
        dims = SupernetDims(d_in=3, out_dim=2, num_blocks=2, hidden=4)
        p1 = init_relaxed(dims, seed=11)
        p2 = init_relaxed(dims, seed=11)
        assert p1.weights.keys() == p2.weights.keys()
        for k in p1.weights:
            np.testing.assert_array_equal(p1.weights[k].data, p2.weights[k].data)
        p3 = init_relaxed(dims, seed=12)
        assert any(not np.array_equal(p1.weights[k].data, p3.weights[k].data)
                   for k in p1.weights)

    def test_alphas_start_uniform(self):
        dims = SupernetDims(d_in=3, out_dim=2, num_blocks=2, hidden=4)
        params = init_relaxed(dims)
        assert set(params.alphas) == {"sel/b0/i0", "sel/b1/i0", "sel/b1/i1",
                                      "fus/b0", "fus/b1", "agg/b0", "agg/b1",
                                      "readout"}
        for t in params.alphas.values():
            np.testing.assert_array_equal(t.data, np.zeros_like(t.data))

    def test_discrete_has_no_alphas_and_singleton_candidates(self):
        dims = SupernetDims(d_in=3, out_dim=2, num_blocks=1, hidden=4)
        arch = simple_arch(agg="MF", fusion="MAX", readout="GLOBAL_SUM")
        params = init_discrete(dims, arch)
        assert params.alphas == {}
        assert params.sites["agg/b0"][0] == ("MF",)
        assert params.sites["fus/b0"][0] == ("MAX",)
        assert params.sites["readout"][0] == ("GLOBAL_SUM",)

    @pytest.mark.parametrize("kind", ["relaxed-default", "relaxed-all-aggs-edges", "discrete"])
    def test_structure_is_the_flat_view(self, kind):
        d_edge = 0 if kind == "relaxed-default" else 2
        dims = SupernetDims(d_in=2, out_dim=1, num_blocks=2, hidden=3, d_edge=d_edge)
        if kind == "discrete":
            params = init_discrete(dims, ArchEncoding(2, ((1,), (0, 1)), ("LSTM", "CONCAT"),
                                                      ("GEN", "GAT"), "GLOBAL_MAX"), seed=4)
        else:
            params = init_relaxed(dims, supernet.DEFAULT_AGG_CANDIDATES if d_edge == 0
                                  else ops.AGGREGATION_OPS, seed=4)
        w = params.weights
        expected = [w["encoder/W"], w["encoder/b"]]
        for b in range(dims.num_blocks):
            if params.edge_proj[b] is not None:
                expected.append(params.edge_proj[b])
            for key in (f"fus/b{b}", f"agg/b{b}"):
                for name in params.sites[key][0]:
                    expected.extend(params.ops[key, name].values())
        expected += [w["head/W"], w["head/b"]]
        assert [id(t) for t in expected] == [id(t) for t in w.values()]
        assert {key for key, _ in params.ops} == {k for k in params.sites
                                                  if k.startswith(("fus/", "agg/"))}
        assert (params.edge_proj[0] is not None) == (d_edge > 0)
        if kind == "discrete":
            return
        # complete graphs on 1..6 nodes: every degree MF has a weight for
        rng = np.random.default_rng(2)
        sizes = range(1, ops.MAX_DEGREE + 2)
        batch = make_batch([rng.normal(size=(n, 2)) for n in sizes],
                           [[(i, j) for i in range(n) for j in range(n) if i != j]
                            for n in sizes], d_edge=d_edge, rng=rng)
        ad.backward(ad.tsum(supernet_forward(batch, params)))
        assert [k for k, t in w.items() if t.grad is None] == []

    def test_discrete_block_count_mismatch(self):
        dims = SupernetDims(d_in=3, out_dim=2, num_blocks=1, hidden=4)
        with pytest.raises(ValueError, match="blocks"):
            init_discrete(dims, simple_arch(num_blocks=2))

    def test_zero_grads_clears_everything(self):
        dims = SupernetDims(d_in=2, out_dim=1, num_blocks=1, hidden=2)
        params = init_relaxed(dims, seed=6)
        batch = make_batch([[[1.0, 0.0], [0.0, 1.0]]], [[[0, 1], [1, 0]]])
        ad.backward(ad.tsum(supernet_forward(batch, params)))
        assert any(t.grad is not None and np.abs(t.grad).max() > 0
                   for t in params.weights.values())
        params.zero_grads()
        for t in list(params.weights.values()) + list(params.alphas.values()):
            assert t.grad is None or not np.abs(t.grad).any()


# ---------------------------------------------------------------------------
# derivation


class TestDerive:
    def test_argmax_per_site(self):
        dims = SupernetDims(d_in=2, out_dim=1, num_blocks=2, hidden=2)
        params = init_relaxed(dims, seed=8)
        params.alphas["sel/b0/i0"].data[:] = (0.1, 0.9)
        params.alphas["sel/b1/i0"].data[:] = (0.1, 0.9)
        params.alphas["sel/b1/i1"].data[:] = (0.9, 0.1)
        fus = params.alphas["fus/b0"]
        fus.data[params.sites["fus/b0"][0].index("MAX")] = 1.0
        agg = params.alphas["agg/b1"]
        agg.data[params.sites["agg/b1"][0].index("EXPC")] = 1.0
        ro = params.alphas["readout"]
        ro.data[params.sites["readout"][0].index("GLOBAL_SUM")] = 1.0

        arch = derive_architecture(params)
        assert arch.selection == ((1,), (1, 0))
        assert arch.fusion[0] == "MAX"
        assert arch.aggregation[1] == "EXPC"
        assert arch.readout == "GLOBAL_SUM"

    def test_uniform_logits_pick_first(self):
        dims = SupernetDims(d_in=2, out_dim=1, num_blocks=1, hidden=2)
        arch = derive_architecture(init_relaxed(dims))
        # zero logits: ZERO wins each selection site, so the fallback fires
        assert arch.selection == ((1,),)
        assert arch.fusion == ("SUM",)
        assert arch.aggregation == (supernet.DEFAULT_AGG_CANDIDATES[0],)
        assert arch.readout == "GLOBAL_MEAN"

    def test_all_zero_fallback_picks_best_identity(self):
        dims = SupernetDims(d_in=2, out_dim=1, num_blocks=3, hidden=2)
        params = init_relaxed(dims)
        params.alphas["sel/b2/i0"].data[:] = (5.0, -1.0)
        params.alphas["sel/b2/i1"].data[:] = (5.0, 2.0)
        params.alphas["sel/b2/i2"].data[:] = (5.0, 0.0)
        arch = derive_architecture(params)
        assert arch.selection[2] == (0, 1, 0)
        assert sum(arch.selection[2]) == 1

    def test_shift_invariant(self):
        dims = SupernetDims(d_in=2, out_dim=1, num_blocks=2, hidden=2)
        params = init_relaxed(dims, seed=10)
        for t in params.alphas.values():
            t.data[:] = np.random.default_rng(50).normal(size=t.data.shape)
        before = derive_architecture(params)
        for t in params.alphas.values():
            t.data += 3.7
        assert derive_architecture(params) == before

    def test_derived_arch_runs_discrete(self):
        dims = SupernetDims(d_in=3, out_dim=2, num_blocks=2, hidden=4)
        params = init_relaxed(dims, seed=13)
        rng = np.random.default_rng(51)
        for t in params.alphas.values():
            t.data[:] = rng.normal(size=t.data.shape)
        arch = derive_architecture(params)
        fresh = init_discrete(dims, arch, seed=14)
        batch = make_batch([rng.normal(size=(4, 3))], [rng.integers(0, 4, (6, 2))])
        out = supernet_forward(batch, fresh, mode="discrete", arch=arch)
        assert out.data.shape == (1, 2)


class TestForceOneHot:
    def test_round_trip_through_derivation(self):
        for num_blocks in range(1, 5):
            dims = SupernetDims(d_in=2, out_dim=1, num_blocks=num_blocks, hidden=2)
            params = init_relaxed(dims, seed=15)
            for seed in range(10):
                arch = random_architecture(SearchConfig(num_blocks=num_blocks), seed)
                force_one_hot_alphas(params, arch)
                assert derive_architecture(params) == arch

    def test_weights_become_exactly_one_hot(self):
        dims = SupernetDims(d_in=2, out_dim=1, num_blocks=1, hidden=2)
        params = init_relaxed(dims)
        arch = simple_arch(agg="GEN", fusion="MAX", readout="GLOBAL_SUM")
        force_one_hot_alphas(params, arch)
        w = arch_weights(params.alphas["agg/b0"], 1.0).data
        expected = np.zeros(len(supernet.DEFAULT_AGG_CANDIDATES))
        expected[supernet.DEFAULT_AGG_CANDIDATES.index("GEN")] = 1.0
        np.testing.assert_array_equal(w, expected)


# ---------------------------------------------------------------------------
# tape size


class TestTapeSize:
    """The tape of one forward plus loss on a fixed 32-graph
    triangle-threshold batch (4 blocks, hidden 32), the benchmark's."""

    ARCH = ArchEncoding(num_blocks=4, selection=((1,), (1, 1), (0, 1, 1), (1, 0, 1, 1)),
                        fusion=("LSTM", "LSTM", "SUM", "LSTM"),
                        aggregation=("GAT", "GEN", "GAT", "GEN"), readout="GLOBAL_MAX")

    @staticmethod
    def setup(mode):
        """(dataset, batch, params, arch) for ``mode`` on the fixed batch."""
        spec = graphs.SyntheticSpec(task="triangle-threshold", num_graphs=500,
                                    min_nodes=8, max_nodes=16, edge_prob=0.25)
        ds = graphs.generate_synthetic(spec, seed=0)
        batch = graphs.batch_graphs(ds.split_graphs("train")[:32])
        dims = SupernetDims(d_in=ds.num_node_features, out_dim=1, num_blocks=4, hidden=32)
        arch = TestTapeSize.ARCH if mode == "discrete" else None
        params = init_relaxed(dims) if arch is None else init_discrete(dims, arch)
        return ds, batch, params, arch

    def taped_loss(self, mode):
        ds, batch, params, arch = self.setup(mode)
        logits = supernet_forward(batch, params, mode=mode, arch=arch, training=True)
        return batch, task_loss(ds.schema, logits, batch.labels)

    @staticmethod
    def edge_wide(arrays, batch) -> list:
        """The 2-d ``arrays`` with one row per edge, with or without the
        self-loops, and more than one column."""
        e, n = batch.edges.shape[0], batch.num_nodes
        return [a for a in arrays if a.ndim == 2 and a.shape[0] in (e, e + n) and a.shape[1] > 1]

    @staticmethod
    def is_gen(node) -> bool:
        return node.backward.__qualname__.startswith("softmax_aggregate.")

    @pytest.mark.parametrize("mode, ceiling", [("relaxed", 250), ("discrete", 53)])
    def test_ceiling(self, mode, ceiling, tape):
        """The ceilings are the counts with the fused primitives (805 relaxed
        and 253 discrete before them; 394 and 91 before the one-node segment
        softmax, the per-node GAT scores and the shared neighbour gather; 354
        and 77 before GEN's softmax aggregation and MF's bucket pick became
        one node each; 278 and 67 before one ``gather_sum`` node replaced
        each gather, scale and sum chain; 61 discrete before a 1 selection
        bit passed its input on itself; 254 relaxed before CONCAT fusion's
        join and product became one ``concat_matmul`` node), so a change
        that splits a fused op back up fails here."""
        assert len(tape(self.taped_loss(mode)[1]).nodes) <= ceiling

    @pytest.mark.parametrize("mode", ["relaxed", "discrete"])
    def test_no_edge_wide_saved_array(self, mode, tape):
        """No node saves an array with one row per edge, with or without
        the self-loops, and more than one column, but GEN's
        ``softmax_aggregate``, which saves the three its backward reads:
        the messages, their softmax weights and their sign mask."""
        batch, loss = self.taped_loss(mode)
        e, n = batch.edges.shape[0], batch.num_nodes
        assert not {e, e + n} & {1, n, batch.num_graphs}  # no other array has these rows
        tape = tape(loss)
        gen_nodes = [node for node in tape.nodes if self.is_gen(node)]
        assert len(gen_nodes) == (4 if mode == "relaxed" else 2)
        for node in tape.nodes:
            wide = self.edge_wide(tape.saved(node), batch)
            assert [a.shape for a in wide] == ([(e, 32)] * 3 if node in gen_nodes else [])

    def test_edge_wide_saved_arrays_over_eight_candidates(self, tape, monkeypatch):
        """A relaxed supernet over all 8 aggregations with 3-wide edge
        features. No node saves GEN's projected (E x d) edge features, which
        no backward reads. Besides GEN's own three arrays, the edge-wide
        arrays the nodes save are, each once by identity, GAT_COS's two
        gathers ``hs`` and ``hd`` per block and the batch's raw edge
        features, which the projection's product reads for its weight's
        gradient."""
        rng = np.random.default_rng(5)
        feats = [rng.normal(size=(n, 3)) for n in (9, 11, 13)]
        edges = [rng.integers(0, len(f), size=(3 * len(f), 2)) for f in feats]
        batch = make_batch(feats, edges, d_edge=3, rng=rng)
        dims = SupernetDims(d_in=3, out_dim=1, num_blocks=2, hidden=8, d_edge=3)
        params = init_relaxed(dims, ops.AGGREGATION_OPS, seed=1)
        e = batch.edges.shape[0]
        outputs = {"gather_rows": [], "matmul": []}

        def recorded(name, op):
            def run(*args):
                out = op(*args)
                outputs[name].append(out.data)
                return out
            return run
        for name in outputs:
            monkeypatch.setattr(ad, name, recorded(name, getattr(ad, name)))
        logits = supernet_forward(batch, params, mode="relaxed", training=True)
        tape = tape(task_loss(graphs.TaskSchema(), logits, np.ones((3, 1))))

        projected = [a for a in outputs["matmul"] if a.shape[0] == e]
        gathers = self.edge_wide(outputs["gather_rows"], batch)
        assert [a.shape for a in projected] == [(e, 8)] * 2
        assert [a.shape for a in gathers] == [(e + batch.num_nodes, 8)] * 4  # hs, hd per block
        others = {}
        for node in tape.nodes:
            wide = self.edge_wide(tape.saved(node), batch)
            if self.is_gen(node):
                assert [a.shape for a in wide] == [(e, 8)] * 3
            else:
                others.update((id(a), a) for a in wide)
        assert not any(np.shares_memory(p, a) for p in projected for a in tape.saved_arrays())
        assert set(others) == {id(a) for a in gathers} | {id(batch.edge_features)}

    def test_relaxed_weight_step_peak_memory(self):
        """The traced peak of one relaxed weight half-step (forward, loss,
        backward, SGD step, as ``search.search`` takes it) after one
        untraced step. It read 35.5 MB before one ``gather_sum`` node
        replaced each gather, scale and sum chain and GEN gathered its own
        messages, and 29.25 MB after. It fell from 30.5 to 16.5 MB when a
        node came to keep only the arrays its backward reads, so that an
        output no backward reads is freed during the forward, and from 16.5
        to 14.24 MB when the LSTM came to save only its gates and cell
        states and CONCAT fusion no joined copy of its inputs. The ceiling
        has 5% headroom."""
        ds, batch, params, _ = self.setup("relaxed")
        opt = SGD(params.weights, lr=0.05, momentum=0.9)

        def step():
            with ad.frozen(params.alphas.values()):
                logits = supernet_forward(batch, params, mode="relaxed", training=True)
                descend(params, opt, task_loss(ds.schema, logits, batch.labels), 0)
        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14.95e6, peak / 1e6


class TestHeldPlan:
    """A forward holds its batch's index plan, so a frozen forward, which
    records no tape to hold it, still builds each flat index once."""

    @pytest.mark.parametrize("mode", ["discrete", "relaxed"])
    def test_frozen_forward_builds_each_flat_index_once(self, mode, monkeypatch):
        spec = graphs.SyntheticSpec(task="triangle-threshold", num_graphs=100,
                                    min_nodes=8, max_nodes=16, edge_prob=0.25)
        ds = graphs.generate_synthetic(spec, seed=0)
        batch = graphs.batch_graphs(ds.split_graphs("train")[:32])
        dims = SupernetDims(d_in=ds.num_node_features, out_dim=1, num_blocks=4, hidden=32)
        arch = TestTapeSize.ARCH if mode == "discrete" else None  # sfabench's FIXED_ARCH
        params = init_relaxed(dims) if arch is None else init_discrete(dims, arch)
        built, flat = [], ad.SegmentIndex.flat

        def counted(index, width):
            if width not in index._flat:
                built.append((id(index.ids), width))
            return flat(index, width)
        monkeypatch.setattr(ad.SegmentIndex, "flat", counted)
        with ad.frozen([*params.weights.values(), *params.alphas.values()]):
            supernet_forward(batch, params, mode=mode, arch=arch)
        assert built and len(built) == len(set(built))


# ---------------------------------------------------------------------------
# gradient ownership


class TestGradientOwnership:
    """``backward`` keeps a VJP's own array as a parent's first gradient, so
    after a backward no leaf gradient may share memory with another leaf's
    gradient, with a leaf's data or with an array a tape node saved."""

    @staticmethod
    def assert_owned(tape, loss, leaves):
        datas = tape(loss).held_arrays()
        ad.backward(loss)
        grads = [(name, t.grad) for name, t in leaves.items() if t.grad is not None]
        assert grads
        for i, (name, g) in enumerate(grads):
            for other, h in grads[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)
            for d in datas:
                assert not np.shares_memory(g, d), name

    def test_an_identity_vjp_gives_each_parent_its_own_array(self, tape):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        self.assert_owned(tape, ad.tsum(ad.add(a, b)), {"a": a, "b": b})

    @pytest.mark.parametrize("model", ["relaxed6", "relaxed8"] + [f"arch{k}" for k in range(6)])
    def test_supernet_leaves_own_their_gradients(self, model, tape):
        rng = np.random.default_rng(4)
        feats = [rng.normal(size=(n, 3)) for n in (5, 4, 6)]
        edges = [rng.integers(0, len(f), size=(2 * len(f), 2)) for f in feats]
        batch = make_batch(feats, edges, d_edge=2, rng=rng)
        dims = SupernetDims(d_in=3, out_dim=1, num_blocks=3, hidden=6, d_edge=2)
        if model.startswith("relaxed"):
            arch = None
            params = init_relaxed(dims, supernet.DEFAULT_AGG_CANDIDATES if model == "relaxed6"
                                  else ops.AGGREGATION_OPS, seed=1)
        else:
            config = SearchConfig(num_blocks=3, hidden=6,
                                  aggregation_candidates=ops.AGGREGATION_OPS)
            arch = random_architecture(config, seed=int(model[-1]))
            params = init_discrete(dims, arch, seed=1)
        logits = supernet_forward(batch, params, mode="relaxed" if arch is None else "discrete",
                                  arch=arch, training=True, dropout_rate=0.1, rng=rng)
        loss = task_loss(graphs.TaskSchema(), logits, np.ones((3, 1)))
        self.assert_owned(tape, loss, {**params.weights, **params.alphas})
