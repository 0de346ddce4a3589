"""Tests for the candidate operation library.

Hand-computed values cover each operator on tiny graphs; dense-matrix and
permutation oracles cover the general case.
"""

import numpy as np
import pytest

from sfanas import autodiff as ad
from sfanas import graphs, ops
from sfanas.autodiff import Tensor


def T(x):
    return Tensor(np.asarray(x, dtype=np.float64))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def make_batch(node_features, edges, edge_features=None):
    g = graphs.Graph(node_features=node_features,
                     edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                     edge_features=edge_features,
                     label=np.array([0.0]))
    return graphs.batch_graphs([g])


def two_cycle(features):
    return make_batch(features, [[0, 1], [1, 0]])


def random_batch(rng, n=10, d=4, num_edges=20, d_edge=0):
    feats = rng.normal(size=(n, d))
    edges = rng.integers(0, n, size=(num_edges, 2))
    ef = rng.normal(size=(num_edges, d_edge)) if d_edge else None
    return make_batch(feats, edges, ef)


def identity_mlp(extra=None):
    p = {"W1": T(np.eye(1)), "b1": T(np.zeros((1, 1))),
         "W2": T(np.eye(1)), "b2": T(np.zeros((1, 1)))}
    if extra:
        p.update(extra)
    return p


# ---------------------------------------------------------------------------
# GCN


class TestGcn:
    def test_two_cycle_identity_weight(self):
        batch = two_cycle([[1.0, 0.0], [0.0, 1.0]])
        out = ops.gcn(batch, T(batch.node_features), {"W": T(np.eye(2))})
        np.testing.assert_allclose(out.data, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_edgeless_is_projection(self):
        batch = make_batch([[1.0, 2.0], [3.0, 4.0]], np.zeros((0, 2)))
        W = np.array([[2.0, 0.0], [0.0, 3.0]])
        out = ops.gcn(batch, T(batch.node_features), {"W": T(W)})
        np.testing.assert_allclose(out.data, batch.node_features @ W, atol=1e-12)

    def test_matches_dense_normalized_adjacency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            batch = random_batch(rng, n=8, d=3, num_edges=15)
            W = rng.normal(size=(3, 3))
            out = ops.gcn(batch, T(batch.node_features), {"W": T(W)})

            n = batch.num_nodes
            dhat = np.ones(n)
            for _, dst in batch.edges:
                dhat[dst] += 1.0
            A = np.zeros((n, n))
            for s, d in batch.edges:
                A[d, s] += 1.0 / np.sqrt(dhat[s] * dhat[d])
            A += np.diag(1.0 / dhat)
            np.testing.assert_allclose(out.data, A @ batch.node_features @ W,
                                       atol=1e-9)


# ---------------------------------------------------------------------------
# GAT family


def gat_params(rng, d):
    return {"W": Tensor(rng.normal(size=(d, d)), requires_grad=True),
            "a_src": Tensor(rng.normal(size=(d, 1)), requires_grad=True),
            "a_dst": Tensor(rng.normal(size=(d, 1)), requires_grad=True)}


def edge_level_gat(batch, H, params, variant):
    """GAT and GAT_SYM as first written: gather both endpoints' transformed
    features per edge, then project each edge's rows onto a_src and a_dst.
    Returns (attention, output)."""
    n, src, dst = batch.num_nodes, batch.loop_src.ids, batch.loop_dst.ids
    HW = ad.matmul(H, params["W"])
    hs, hd = ad.gather_rows(HW, src), ad.gather_rows(HW, dst)

    def score(u, v):
        return ad.leaky_relu(ad.add(ad.matmul(u, params["a_src"]), ad.matmul(v, params["a_dst"])))

    logits = score(hs, hd) if variant == "plain" else ad.add(score(hs, hd), score(hd, hs))
    attn = ad.segment_softmax(logits, dst, n)
    return attn, ad.segment_reduce(ad.mul(hs, attn), dst, n, "sum")


class TestGat:
    @pytest.mark.parametrize("variant", ["plain", "sym"])
    def test_node_scores_match_the_edge_level_reference(self, variant):
        """Per-node scores looked up per edge give the reference's attention,
        output and gradients (features and weights) within 1e-12."""
        for seed in range(5):
            rng = np.random.default_rng([12, seed])
            batch = random_batch(rng, n=11, d=32, num_edges=30)
            H = Tensor(batch.node_features, requires_grad=True)
            params = gat_params(rng, 32)
            ups = {(11, 32): rng.normal(size=(11, 32)), (41, 1): rng.normal(size=(41, 1))}
            results = []
            for run in (lambda: ops.gat_attention(batch, H, params, variant)[0],
                        lambda: ops.gat(batch, H, params, variant),
                        lambda: edge_level_gat(batch, H, params, variant)[0],
                        lambda: edge_level_gat(batch, H, params, variant)[1]):
                out = run()
                for t in (H, *params.values()):
                    t.zero_grad()
                ad.backward(ad.tsum(ad.mul(out, T(ups[out.data.shape]))))
                results.append([out.data] + [t.grad.copy() for t in (H, *params.values())])
            for mine, ref in zip(results[:2], results[2:]):
                for a, b in zip(mine, ref):
                    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))), seed

    @pytest.mark.parametrize("variant", ["plain", "sym", "cos"])
    def test_identical_features_give_projection(self, variant):
        rng = np.random.default_rng(5)
        feat = rng.normal(size=4)
        batch = make_batch(np.tile(feat, (6, 1)),
                           [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 4]])
        params = gat_params(rng, 4)
        out = ops.gat(batch, T(batch.node_features), params, variant)
        expected = feat @ params["W"].data
        np.testing.assert_allclose(out.data, np.tile(expected, (6, 1)), atol=1e-9)

    @pytest.mark.parametrize("variant", ["plain", "sym", "cos"])
    def test_single_node_self_loop(self, variant):
        rng = np.random.default_rng(6)
        batch = make_batch([[1.0, -2.0, 0.5]], np.zeros((0, 2)))
        params = gat_params(rng, 3)
        out = ops.gat(batch, T(batch.node_features), params, variant)
        np.testing.assert_allclose(out.data, batch.node_features @ params["W"].data,
                                   atol=1e-12)

    @pytest.mark.parametrize("variant", ["plain", "sym", "cos"])
    def test_attention_sums_to_one_per_destination(self, variant):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, n=9, d=4, num_edges=25)
        attn, _, dst = ops.gat_attention(batch, T(batch.node_features),
                                         gat_params(rng, 4), variant)
        sums = np.zeros(batch.num_nodes)
        np.add.at(sums, dst, attn.data[:, 0])
        np.testing.assert_allclose(sums, np.ones(batch.num_nodes), atol=1e-9)

    def test_sym_scores_direction_symmetric(self):
        # Features chosen so both self-loop logits coincide; the symmetric
        # variant then weights the two cross edges equally while the plain
        # variant does not.
        batch = two_cycle([[1.0, 2.0], [2.0, 1.0]])
        params = {"W": T(np.eye(2)),
                  "a_src": T([[1.0], [0.0]]), "a_dst": T([[0.0], [1.0]])}
        attn_sym, _, _ = ops.gat_attention(batch, T(batch.node_features),
                                           params, "sym")
        assert abs(attn_sym.data[0, 0] - attn_sym.data[1, 0]) < 1e-12
        attn_plain, _, _ = ops.gat_attention(batch, T(batch.node_features),
                                             params, "plain")
        assert abs(attn_plain.data[0, 0] - attn_plain.data[1, 0]) > 1e-3

    def test_cos_attention_scale_invariant(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(2, 3))
        scaled = feats.copy()
        scaled[1] *= 3.0
        params = gat_params(rng, 3)
        a1, _, _ = ops.gat_attention(two_cycle(feats), T(feats), params, "cos")
        a2, _, _ = ops.gat_attention(two_cycle(scaled), T(scaled), params, "cos")
        np.testing.assert_allclose(a1.data, a2.data, atol=1e-9)
        p1, _, _ = ops.gat_attention(two_cycle(feats), T(feats), params, "plain")
        p2, _, _ = ops.gat_attention(two_cycle(scaled), T(scaled), params, "plain")
        assert np.abs(p1.data - p2.data).max() > 1e-3


# ---------------------------------------------------------------------------
# GIN


class TestGin:
    def test_two_cycle_identity_mlp(self):
        batch = two_cycle([[1.0], [2.0]])
        params = identity_mlp({"eps": T([0.0])})
        out = ops.gin(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-12)

    def test_eps_scales_self_term(self):
        batch = two_cycle([[1.0], [2.0]])
        params = identity_mlp({"eps": T([1.0])})
        out = ops.gin(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[4.0], [5.0]], atol=1e-12)

    def test_edgeless(self):
        batch = make_batch([[2.0], [5.0]], np.zeros((0, 2)))
        params = identity_mlp({"eps": T([0.0])})
        out = ops.gin(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[2.0], [5.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# GEN


class TestGen:
    def test_single_message(self):
        batch = make_batch([[1.0], [2.0]], [[0, 1]])
        params = identity_mlp({"beta": T([1.0])})
        out = ops.gen(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[1.0], [3.0000001]], atol=1e-12)

    def test_beta_zero_uniform_weights(self):
        batch = make_batch([[1.0], [3.0], [0.5]], [[0, 2], [1, 2]])
        params = identity_mlp({"beta": T([0.0])})
        out = ops.gen(batch, T(batch.node_features), params)
        agg = 0.5 * (1.0 + 1e-7) + 0.5 * (3.0 + 1e-7)
        np.testing.assert_allclose(out.data[2], [0.5 + agg], atol=1e-12)

    def test_identical_messages_split_evenly(self):
        batch = make_batch([[2.0], [2.0], [1.0]], [[0, 2], [1, 2]])
        params = identity_mlp({"beta": T([4.0])})
        out = ops.gen(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data[2], [1.0 + 2.0 + 1e-7], atol=1e-12)

    def test_edge_features_shift_messages(self):
        batch = make_batch([[1.0], [2.0]], [[0, 1]], edge_features=[[0.5]])
        params = identity_mlp({"beta": T([1.0])})
        out = ops.gen(batch, T(batch.node_features), params,
                      edge_feats=T(batch.edge_features))
        np.testing.assert_allclose(out.data[1], [2.0 + 1.5 + 1e-7], atol=1e-12)

    def test_edgeless(self):
        batch = make_batch([[3.0]], np.zeros((0, 2)))
        params = identity_mlp({"beta": T([1.0])})
        out = ops.gen(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[3.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# MF


class TestMf:
    def test_shared_weights_reduce_to_linear(self):
        rng = np.random.default_rng(9)
        batch = random_batch(rng, n=7, d=3, num_edges=12)
        W = rng.normal(size=(3, 3))
        params = {f"W{k}": T(W) for k in range(6)}
        out = ops.mf(batch, T(batch.node_features), params)

        s = batch.node_features.copy()
        for src, dst in batch.edges:
            s[dst] += batch.node_features[src]
        np.testing.assert_allclose(out.data, sigmoid(s @ W), atol=1e-9)

    def test_degree_clamped_to_last_bucket(self):
        # center of a 7-leaf star: degree 7 exceeds max_degree 2, so the
        # center must use W2 while leaves (degree 1) use W1
        n = 8
        edges = []
        for leaf in range(1, n):
            edges += [[0, leaf], [leaf, 0]]
        batch = make_batch(np.ones((n, 1)), edges)
        params = {f"W{k}": T([[float(k + 1)]]) for k in range(3)}
        out = ops.mf(batch, T(batch.node_features), params)
        s_center = 1.0 + 7.0
        s_leaf = 1.0 + 1.0
        assert out.data[0, 0] == pytest.approx(sigmoid(s_center * 3.0), abs=1e-12)
        np.testing.assert_allclose(out.data[1:], np.full((7, 1), sigmoid(s_leaf * 2.0)),
                                   atol=1e-12)

    def test_edgeless_uses_bucket_zero(self):
        batch = make_batch([[2.0]], np.zeros((0, 2)))
        params = {"W0": T([[3.0]]), "W1": T([[100.0]])}
        out = ops.mf(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[sigmoid(6.0)]], atol=1e-12)

    def test_sigmoid_applied_by_default(self):
        batch = make_batch([[2.0]], np.zeros((0, 2)))
        params = {"W0": T([[3.0]])}
        out = ops.mf(batch, T(batch.node_features), params)
        expected = 1.0 / (1.0 + np.exp(-6.0))
        assert out.data[0, 0] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# EXPC


class TestExpc:
    def test_two_cycle_identity_weights(self):
        batch = two_cycle([[1.0], [2.0]])
        params = {"We": T([[1.0]]), "Wc": T([[1.0]])}
        out = ops.expc(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-12)

    def test_expansion_relu_blocks_negative(self):
        batch = two_cycle([[-1.0], [2.0]])
        params = {"We": T([[1.0]]), "Wc": T([[1.0]])}
        out = ops.expc(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[2.0], [2.0]], atol=1e-12)

    def test_edgeless(self):
        batch = make_batch([[1.0], [-3.0]], np.zeros((0, 2)))
        params = {"We": T([[2.0]]), "Wc": T([[5.0]])}
        out = ops.expc(batch, T(batch.node_features), params)
        np.testing.assert_allclose(out.data, [[10.0], [0.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# dispatch


class TestAggregate:
    def test_unknown_name(self):
        batch = two_cycle([[1.0], [2.0]])
        with pytest.raises(ValueError, match="unknown aggregation op"):
            ops.aggregate("SAGE", batch, T(batch.node_features), {})

    @pytest.mark.parametrize("name", ops.AGGREGATION_OPS)
    def test_preserves_shape(self, name):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, n=6, d=4, num_edges=10)
        params = ops.init_aggregation_params(name, 4, rng)
        out = ops.aggregate(name, batch, T(batch.node_features), params)
        assert out.data.shape == (6, 4)


# ---------------------------------------------------------------------------
# fusion


class TestFusion:
    def setup_method(self):
        self.a = T([[1.0, 2.0]])
        self.b = T([[3.0, 4.0]])

    def test_sum(self):
        out = ops.fuse("SUM", [self.a, self.b], {})
        np.testing.assert_allclose(out.data, [[4.0, 6.0]], atol=1e-12)

    def test_mean(self):
        out = ops.fuse("MEAN", [self.a, self.b], {})
        np.testing.assert_allclose(out.data, [[2.0, 3.0]], atol=1e-12)

    def test_mean_divides_by_slot_count(self):
        zero = T([[0.0, 0.0]])
        out = ops.fuse("MEAN", [self.a, self.b, zero], {})
        np.testing.assert_allclose(out.data, [[4.0 / 3.0, 2.0]], atol=1e-12)

    def test_max(self):
        out = ops.fuse("MAX", [self.a, self.b], {})
        np.testing.assert_allclose(out.data, [[3.0, 4.0]], atol=1e-12)

    def test_concat_with_selector_projection(self):
        P = T(np.vstack([np.eye(2), np.zeros((2, 2))]))
        out = ops.fuse("CONCAT", [self.a, self.b], {"P": P})
        np.testing.assert_allclose(out.data, self.a.data, atol=1e-12)

    def test_lstm_zero_inputs_give_zero(self):
        rng = np.random.default_rng(13)
        params = ops.init_fusion_params("LSTM", 2, 2, rng)
        zero = T(np.zeros((3, 2)))
        out = ops.fuse("LSTM", [zero, zero], params)
        np.testing.assert_allclose(out.data, np.zeros((3, 2)), atol=1e-12)

    def test_lstm_order_sensitive(self):
        rng = np.random.default_rng(14)
        params = ops.init_fusion_params("LSTM", 2, 2, rng)
        ab = ops.fuse("LSTM", [self.a, self.b], params)
        ba = ops.fuse("LSTM", [self.b, self.a], params)
        assert np.abs(ab.data - ba.data).max() > 1e-6

    @pytest.mark.parametrize("name", ["SUM", "MEAN", "MAX"])
    def test_single_input_degenerates_to_identity(self, name):
        out = ops.fuse(name, [self.a], {})
        np.testing.assert_array_equal(out.data, self.a.data)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty input list"):
            ops.fuse("SUM", [], {})

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown fusion op"):
            ops.fuse("PROD", [self.a], {})


# ---------------------------------------------------------------------------
# readout


class TestReadout:
    def setup_method(self):
        self.H = T([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        self.ids = np.array([0, 0, 1], dtype=np.int64)

    def test_sum(self):
        out = ops.readout("GLOBAL_SUM", self.H, self.ids, 2)
        np.testing.assert_allclose(out.data, [[1.0, 1.0], [2.0, 2.0]], atol=1e-12)

    def test_mean(self):
        out = ops.readout("GLOBAL_MEAN", self.H, self.ids, 2)
        np.testing.assert_allclose(out.data, [[0.5, 0.5], [2.0, 2.0]], atol=1e-12)

    def test_max(self):
        out = ops.readout("GLOBAL_MAX", self.H, self.ids, 2)
        np.testing.assert_allclose(out.data, [[1.0, 1.0], [2.0, 2.0]], atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown readout op"):
            ops.readout("GLOBAL_MIN", self.H, self.ids, 2)


# ---------------------------------------------------------------------------
# permutation properties


def permute_batch(batch, perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    edges = inv[batch.edges] if batch.edges.size else batch.edges
    g = graphs.Graph(node_features=batch.node_features[perm],
                     edges=edges,
                     edge_features=batch.edge_features,
                     label=np.array([0.0]))
    return graphs.batch_graphs([g])


class TestPermutation:
    @pytest.mark.parametrize("name", ops.AGGREGATION_OPS)
    def test_aggregation_equivariant(self, name):
        rng = np.random.default_rng(17)
        batch = random_batch(rng, n=9, d=4, num_edges=18, d_edge=4)
        params = ops.init_aggregation_params(name, 4, rng)
        ef = T(batch.edge_features) if name == "GEN" else None
        out = ops.aggregate(name, batch, T(batch.node_features), params, ef)

        perm = rng.permutation(9)
        pbatch = permute_batch(batch, perm)
        pef = T(pbatch.edge_features) if name == "GEN" else None
        pout = ops.aggregate(name, pbatch, T(pbatch.node_features), params, pef)
        np.testing.assert_allclose(pout.data, out.data[perm], atol=1e-9)

    @pytest.mark.parametrize("name", ops.READOUT_OPS)
    def test_readout_invariant_to_node_order(self, name):
        rng = np.random.default_rng(19)
        H = rng.normal(size=(12, 5))
        ids = np.zeros(12, dtype=np.int64)
        base = ops.readout(name, T(H), ids, 1)
        perm = rng.permutation(12)
        shuffled = ops.readout(name, T(H[perm]), ids, 1)
        np.testing.assert_allclose(shuffled.data, base.data, atol=1e-9)


# ---------------------------------------------------------------------------
# shared transforms


class TestLayerNorm:
    def test_rows_standardized(self):
        rng = np.random.default_rng(21)
        H = rng.normal(size=(6, 8)) * 3.0 + 2.0
        out = ad.layer_norm(T(H)).data
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(6), atol=1e-9)
        np.testing.assert_allclose(out.var(axis=1), np.ones(6), atol=1e-3)

    def test_row_independence(self):
        rng = np.random.default_rng(22)
        A, B = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        stacked = ad.layer_norm(T(np.vstack([A, B]))).data
        separate = np.vstack([ad.layer_norm(T(A)).data, ad.layer_norm(T(B)).data])
        np.testing.assert_array_equal(stacked, separate)

    def test_constant_row_maps_to_zero(self):
        out = ad.layer_norm(T([[5.0, 5.0, 5.0]])).data
        np.testing.assert_allclose(out, [[0.0, 0.0, 0.0]], atol=1e-12)


class TestDropout:
    def test_rate_zero_is_identity(self):
        H = T([[1.0, 2.0]])
        assert ops.dropout(H, 0.0, np.random.default_rng(0)) is H

    def test_kept_entries_rescaled(self):
        rng = np.random.default_rng(23)
        H = np.ones((50, 20))
        out = ops.dropout(T(H), 0.5, rng).data
        assert set(np.unique(out)) <= {0.0, 2.0}
        assert 0.0 in out and 2.0 in out

    def test_deterministic_under_seed(self):
        H = T(np.ones((10, 10)))
        a = ops.dropout(H, 0.3, np.random.default_rng(42)).data
        b = ops.dropout(H, 0.3, np.random.default_rng(42)).data
        np.testing.assert_array_equal(a, b)
