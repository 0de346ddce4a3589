"""Tests for the alternating architecture search."""

import numpy as np
import pytest

from sfanas import autodiff as ad
from sfanas import graphs, ops, search, supernet
from sfanas.graphs import Dataset, Graph, SyntheticSpec, TaskSchema, generate_synthetic
from sfanas.search import SearchConfig, anneal, random_architecture
from sfanas.supernet import SupernetDims, init_relaxed, supernet_forward
from sfanas.training import SGD, task_loss


def tiny_dataset(seed=0, num_graphs=40):
    spec = SyntheticSpec(task="triangle-threshold", num_graphs=num_graphs)
    return generate_synthetic(spec, seed)


# ---------------------------------------------------------------------------
# temperature schedule


class TestAnneal:
    def cfg(self, **kw):
        base = dict(epochs=10, lambda_start=1.0, lambda_end=0.1, anneal="linear")
        base.update(kw)
        return SearchConfig(**base)

    def test_linear_endpoints_and_midpoint(self):
        cfg = self.cfg()
        assert anneal(0, cfg) == pytest.approx(1.0, abs=1e-12)
        assert anneal(9, cfg) == pytest.approx(0.1, abs=1e-12)
        assert anneal(3, cfg) == pytest.approx(0.7, abs=1e-12)

    def test_exponential_endpoints(self):
        cfg = self.cfg(anneal="exponential")
        assert anneal(0, cfg) == pytest.approx(1.0, abs=1e-12)
        assert anneal(9, cfg) == pytest.approx(0.1, abs=1e-12)

    def test_constant_when_start_equals_end(self):
        for schedule in search.ANNEAL_SCHEDULES:
            cfg = self.cfg(lambda_start=0.5, lambda_end=0.5, anneal=schedule)
            assert all(anneal(e, cfg) == pytest.approx(0.5, abs=1e-12)
                       for e in range(10))

    def test_single_epoch_uses_start(self):
        cfg = self.cfg(epochs=1)
        assert anneal(0, cfg) == 1.0

    @pytest.mark.parametrize("schedule", search.ANNEAL_SCHEDULES)
    def test_monotone_decreasing(self, schedule):
        cfg = self.cfg(anneal=schedule)
        temps = [anneal(e, cfg) for e in range(10)]
        assert all(b < a for a, b in zip(temps, temps[1:]))

    def test_epoch_out_of_range(self):
        cfg = self.cfg()
        with pytest.raises(ValueError, match="outside"):
            anneal(10, cfg)
        with pytest.raises(ValueError, match="outside"):
            anneal(-1, cfg)


# ---------------------------------------------------------------------------
# config validation


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.agg_candidates() == supernet.DEFAULT_AGG_CANDIDATES

    def test_fixed_aggregation_overrides_candidates(self):
        cfg = SearchConfig(fixed_aggregation="EXPC")
        assert cfg.agg_candidates() == ("EXPC",)

    @pytest.mark.parametrize("kw", [
        {"num_blocks": 0},
        {"epochs": 0},
        {"batch_size": 0},
        {"hidden": 0},
        {"lr_weights": 0.0},
        {"lr_alpha": -0.1},
        {"lambda_start": 0.05, "lambda_end": 0.1},
        {"lambda_end": 0.0},
        {"anneal": "cosine"},
        {"aggregation_candidates": ()},
        {"aggregation_candidates": ("GCN", "SAGE")},
        {"fixed_aggregation": "SAGE"},
        {"dropout": 1.0},
        {"dropout": -0.1},
    ])
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            SearchConfig(**kw)


# ---------------------------------------------------------------------------
# random baseline


class TestRandomArchitecture:
    def test_deterministic_per_seed(self):
        cfg = SearchConfig(num_blocks=4)
        assert random_architecture(cfg, 7) == random_architecture(cfg, 7)
        draws = {random_architecture(cfg, s) for s in range(10)}
        assert len(draws) > 1

    def test_thousand_draws_valid(self):
        cfg = SearchConfig(num_blocks=3)
        for s in range(1000):
            arch = random_architecture(cfg, s)
            assert all(any(bits) for bits in arch.selection)

    def test_fixed_aggregation_respected(self):
        cfg = SearchConfig(num_blocks=4, fixed_aggregation="EXPC")
        for s in range(20):
            assert random_architecture(cfg, s).aggregation == ("EXPC",) * 4

    def test_candidate_restriction_respected(self):
        cfg = SearchConfig(num_blocks=4, aggregation_candidates=("GCN", "GIN"))
        seen = set()
        for s in range(30):
            seen.update(random_architecture(cfg, s).aggregation)
        assert seen == {"GCN", "GIN"}


# ---------------------------------------------------------------------------
# alternation freeze discipline


class TestFreezeDiscipline:
    def test_each_optimizer_touches_only_its_tensors(self):
        rng = np.random.default_rng(61)
        g = Graph(node_features=rng.normal(size=(5, 2)),
                  edges=rng.integers(0, 5, size=(8, 2)),
                  label=np.array([1.0]))
        batch = graphs.batch_graphs([g])
        schema = TaskSchema("binary")

        dims = SupernetDims(d_in=2, out_dim=1, num_blocks=2, hidden=4)
        params = init_relaxed(dims, seed=0)
        opt_w = SGD(params.weights, lr=0.1, momentum=0.9)
        opt_a = SGD(params.alphas, lr=0.1)

        loss = task_loss(schema, supernet_forward(batch, params), batch.labels)
        params.zero_grads()
        ad.backward(loss)
        alphas_before = {k: t.data.copy() for k, t in params.alphas.items()}
        weights_before = {k: t.data.copy() for k, t in params.weights.items()}
        opt_w.step()
        for k, t in params.alphas.items():
            np.testing.assert_array_equal(t.data, alphas_before[k])
        assert any(not np.array_equal(t.data, weights_before[k])
                   for k, t in params.weights.items())

        loss = task_loss(schema, supernet_forward(batch, params), batch.labels)
        params.zero_grads()
        ad.backward(loss)
        weights_before = {k: t.data.copy() for k, t in params.weights.items()}
        opt_a.step()
        for k, t in params.weights.items():
            np.testing.assert_array_equal(t.data, weights_before[k])
        assert any(np.abs(t.data - alphas_before[k]).max() > 0
                   for k, t in params.alphas.items())


# ---------------------------------------------------------------------------
# end-to-end search


class TestSearch:
    def run_tiny(self, **kw):
        cfg_kw = dict(num_blocks=2, hidden=4, epochs=3, batch_size=16,
                      lambda_start=1.0, lambda_end=0.5, seed=0)
        cfg_kw.update(kw)
        return search.search(tiny_dataset(), SearchConfig(**cfg_kw))

    def test_history_one_record_per_epoch(self):
        arch, history = self.run_tiny()
        assert len(history) == 3
        assert [h["epoch"] for h in history] == [0, 1, 2]
        for h in history:
            assert set(h) == {"epoch", "train_loss", "valid_loss", "metric",
                              "valid_metric", "lambda", "arch"}
            assert h["metric"] == "auc"
            supernet.ArchEncoding.from_dict(h["arch"])  # every snapshot is valid
        temps = [h["lambda"] for h in history]
        assert temps[0] == 1.0 and temps[-1] == 0.5

    def test_returns_best_epoch_snapshot(self):
        arch, history = self.run_tiny()
        best = max(history, key=lambda h: h["valid_metric"])
        assert arch == supernet.ArchEncoding.from_dict(best["arch"])

    def test_deterministic(self):
        a1, h1 = self.run_tiny()
        a2, h2 = self.run_tiny()
        assert a1 == a2
        assert h1 == h2

    def test_single_block_selection_shape(self):
        arch, _ = self.run_tiny(num_blocks=1, epochs=1)
        assert arch.num_blocks == 1
        assert len(arch.selection) == 1 and len(arch.selection[0]) == 1

    def test_fixed_aggregation_search(self):
        arch, _ = self.run_tiny(fixed_aggregation="EXPC", epochs=2)
        assert arch.aggregation == ("EXPC", "EXPC")

    def test_metric_override(self):
        _, history = self.run_tiny(metric="accuracy", epochs=1)
        assert history[0]["metric"] == "accuracy"

    def test_empty_split_rejected(self):
        ds = tiny_dataset()
        merged = np.sort(np.concatenate([ds.splits["train"], ds.splits["valid"]]))
        empty_valid = Dataset(graphs=ds.graphs, schema=ds.schema,
                              splits={"train": merged,
                                      "valid": np.array([], dtype=np.int64),
                                      "test": ds.splits["test"]})
        with pytest.raises(ValueError, match="non-empty"):
            search.search(empty_valid, SearchConfig(epochs=1))

    def test_non_finite_loss_names_the_epoch(self):
        ds = tiny_dataset()
        graphs_ = list(ds.graphs)
        g = graphs_[ds.splits["train"][0]]
        graphs_[ds.splits["train"][0]] = Graph(
            node_features=np.full(g.node_features.shape, np.nan), edges=g.edges,
            label=g.label)
        with pytest.raises(ValueError, match="epoch 0: loss is nan"):
            search.search(Dataset(graphs=graphs_, schema=ds.schema, splits=ds.splits),
                          SearchConfig(num_blocks=1, hidden=4, epochs=2, batch_size=64))

    @pytest.mark.parametrize("metric", ["auc", "ap"])
    def test_single_class_valid_split_rejected_before_any_step(self, monkeypatch, metric):
        ds = tiny_dataset()
        positive = Dataset(graphs=[Graph(node_features=g.node_features, edges=g.edges,
                                         label=np.array([1.0])) for g in ds.graphs],
                           schema=ds.schema, splits=ds.splits)
        steps = []
        monkeypatch.setattr(SGD, "step", lambda self: steps.append(self))
        message = {"auc": "one positive and one negative", "ap": "a task with both classes"}
        with pytest.raises(ValueError, match=message[metric]):
            search.search(positive, SearchConfig(num_blocks=1, hidden=4, epochs=1,
                                                 metric=metric))
        assert steps == []
