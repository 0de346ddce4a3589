"""Tests for losses, metrics, the optimizer, and discrete training."""

import dataclasses
import gc
import itertools
import json
import re
import warnings

import numpy as np
import pytest

from sfanas import autodiff as ad
from sfanas import training
from sfanas.autodiff import Tensor
from sfanas.graphs import (Dataset, Graph, SyntheticSpec, TaskSchema, batch_graphs,
                           generate_synthetic)
from sfanas.search import SearchConfig, search
from sfanas.supernet import (ArchEncoding, SupernetDims, init_discrete, init_relaxed,
                             supernet_forward)
from sfanas.training import (HParams, SGD, accuracy, average_precision,
                             bce_masked, check_metric, cross_entropy,
                             default_metric, evaluate_model, load_model,
                             predictions_from_logits, roc_auc, save_model,
                             train_discrete)


def T(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# binary cross-entropy


class TestBceMasked:
    def test_zero_logit(self):
        loss = bce_masked(T([[0.0]]), np.array([[1.0]]))
        assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_missing_entries_excluded(self):
        loss = bce_masked(T([[0.0], [5.0]]), np.array([[1.0], [np.nan]]))
        assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        confident = bce_masked(T([[50.0]]), np.array([[1.0]]))
        assert 0.0 <= float(confident.data) < 1e-20
        wrong = bce_masked(T([[50.0]]), np.array([[0.0]]))
        assert float(wrong.data) == pytest.approx(50.0, abs=1e-6)
        low = bce_masked(T([[-50.0]]), np.array([[0.0]]))
        assert np.isfinite(low.data) and float(low.data) < 1e-20

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(71)
        z = rng.uniform(-3, 3, size=(6, 4))
        y = rng.integers(0, 2, size=(6, 4)).astype(np.float64)
        y[rng.random((6, 4)) < 0.3] = np.nan
        loss = float(bce_masked(T(z), y).data)
        p = 1.0 / (1.0 + np.exp(-z))
        m = ~np.isnan(y)
        naive = -(y[m] * np.log(p[m]) + (1 - y[m]) * np.log(1 - p[m])).mean()
        assert loss == pytest.approx(naive, abs=1e-10)

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError, match="all labels missing"):
            bce_masked(T([[1.0]]), np.array([[np.nan]]))

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError, match="bce_masked"):
            bce_masked(T([[1.0]]), np.array([1.0, 0.0]))

    def test_gradient(self):
        rng = np.random.default_rng(72)
        y = rng.integers(0, 2, size=(4, 3)).astype(np.float64)
        y[0, 1] = np.nan
        err = ad.grad_check(lambda z: bce_masked(z, y),
                            T(rng.normal(size=(4, 3)), grad=True))
        assert err < 1e-6


# ---------------------------------------------------------------------------
# cross-entropy


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(T(np.zeros((1, 4))), np.array([2]))
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct(self):
        loss = cross_entropy(T([[50.0, 0.0, 0.0]]), np.array([0]))
        assert 0.0 <= float(loss.data) < 1e-20

    def test_batch_mean(self):
        logits = T([[1.0, 0.0], [0.0, 1.0]])
        loss = cross_entropy(logits, np.array([0, 0]))
        per_row = [np.log(1 + np.e) - 1.0, np.log(1 + np.e)]
        assert float(loss.data) == pytest.approx(np.mean(per_row), abs=1e-12)

    def test_accepts_column_labels(self):
        logits = T([[1.0, 2.0], [3.0, 0.5]])
        a = float(cross_entropy(logits, np.array([1, 0])).data)
        b = float(cross_entropy(logits, np.array([[1.0], [0.0]])).data)
        assert a == b

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="labels must lie in"):
            cross_entropy(T(np.zeros((1, 3))), np.array([3]))

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(73)
        z = rng.normal(size=(5, 6)) * 3
        y = rng.integers(0, 6, size=5)
        loss = float(cross_entropy(T(z), y).data)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        naive = -np.log(p[np.arange(5), y]).mean()
        assert loss == pytest.approx(naive, abs=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(74)
        y = rng.integers(0, 5, size=6)
        err = ad.grad_check(lambda z: cross_entropy(z, y),
                            T(rng.normal(size=(6, 5)), grad=True))
        assert err < 1e-6


# ---------------------------------------------------------------------------
# ranking metrics


def auc_pair_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_and_inverted(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_interleaved(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75

    def test_all_tied_is_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least one positive"):
            roc_auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            roc_auc([0.1, 0.2], [1, 0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="not all finite"):
            roc_auc([bad, 0.1, 0.3], [1, 0, 1])

    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(75)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # small score alphabet forces plenty of ties
            scores = rng.integers(0, 4, size=n) / 4.0
            assert roc_auc(scores, labels) == auc_pair_oracle(scores, labels)

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(76)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert roc_auc(2.0 * scores + 1.0, labels) == base
        assert roc_auc(np.tanh(scores), labels) == base


def ap_oracle(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            precisions.append(hits / rank)
    return np.mean(precisions)


class TestAveragePrecision:
    def test_hit_miss_hit(self):
        mean, per_task = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert mean == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert per_task == [mean]

    def test_all_positives_ranked_first(self):
        mean, _ = average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert mean == 1.0

    def test_ties_broken_by_original_index(self):
        mean, _ = average_precision([0.5, 0.5], [0, 1])
        assert mean == 0.5
        mean, _ = average_precision([0.5, 0.5], [1, 0])
        assert mean == 1.0

    def test_single_class_task_skipped(self):
        scores = np.array([[0.9, 0.3], [0.1, 0.6]])
        labels = np.array([[1.0, np.nan], [0.0, np.nan]])
        mean, per_task = average_precision(scores, labels)
        assert per_task == [1.0, None]
        assert mean == 1.0

    def test_no_valid_task_rejected(self):
        with pytest.raises(ValueError, match="no task has both classes"):
            average_precision([0.9, 0.1], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="not all finite"):
            average_precision([bad, 0.1, 0.3], [1, 0, 1])
        with pytest.raises(ValueError, match="not all finite"):
            average_precision([[0.9, 0.3], [0.1, bad]], [[1.0, 1.0], [0.0, 0.0]])

    def test_matches_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 5, size=n) / 5.0
            mean, _ = average_precision(scores, labels)
            assert mean == ap_oracle(scores.tolist(), labels.tolist())


class TestAccuracy:
    def test_exact_fractions(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 1, 1]) == 1.0
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])

    def test_predictions_argmax_tie_takes_first(self):
        schema = TaskSchema("multi-class", num_classes=3)
        preds = predictions_from_logits(schema, np.array([[0.5, 0.5, 0.1]]))
        assert preds.tolist() == [0]

    def test_predictions_binary_threshold(self):
        schema = TaskSchema("binary")
        preds = predictions_from_logits(schema, np.array([[0.2], [-0.2], [0.0]]))
        assert preds.tolist() == [1, 0, 0]


class TestMetricSelection:
    def test_defaults(self):
        assert default_metric(TaskSchema("binary")) == "auc"
        assert default_metric(TaskSchema("multi-binary", num_tasks=3)) == "ap"
        assert default_metric(TaskSchema("multi-class", num_classes=4)) == "accuracy"

    def test_binary_allows_all(self):
        for m in training.METRICS:
            check_metric(TaskSchema("binary"), m)

    def test_mismatches_rejected(self):
        with pytest.raises(ValueError, match="does not apply to a multi-class"):
            check_metric(TaskSchema("multi-class", num_classes=3), "auc")
        with pytest.raises(ValueError, match="does not apply to a multi-binary"):
            check_metric(TaskSchema("multi-binary", num_tasks=2), "accuracy")
        with pytest.raises(ValueError, match="unknown metric"):
            check_metric(TaskSchema("binary"), "f1")


# ---------------------------------------------------------------------------
# optimizer


class TestSgd:
    def test_plain_step(self):
        # without momentum each step moves by its own gradient alone
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = SGD({"w": w}, lr=0.1)
        w.grad = np.array([0.5, -1.0])
        opt.step()
        np.testing.assert_array_equal(w.data, [1.0 - 0.1 * 0.5, 2.0 + 0.1 * 1.0])
        w.grad = np.array([-2.0, 0.25])
        opt.step()
        np.testing.assert_array_equal(
            w.data, [1.0 - 0.1 * 0.5 + 0.1 * 2.0, 2.0 + 0.1 * 1.0 - 0.1 * 0.25])

    def test_momentum_accumulates(self):
        w = Tensor(np.array([0.0]), requires_grad=True)
        opt = SGD({"w": w}, lr=1.0, momentum=0.9)
        w.grad = np.array([1.0])
        opt.step()  # v = 1
        assert w.data[0] == pytest.approx(-1.0, abs=1e-12)
        w.grad = np.array([1.0])
        opt.step()  # v = 1.9
        assert w.data[0] == pytest.approx(-2.9, abs=1e-12)

    def test_none_grad_skipped(self):
        w = Tensor(np.array([3.0]), requires_grad=True)
        SGD({"w": w}, lr=0.1).step()
        assert w.data[0] == 3.0

    def test_bad_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            SGD({}, lr=0.0)


class TestHParams:
    @pytest.mark.parametrize("kw", [
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"hidden_size": 0},
        {"dropout": 1.0},
        {"epochs": -1},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            HParams(**kw)

    def test_zero_epochs_allowed(self):
        assert HParams(epochs=0).epochs == 0


# ---------------------------------------------------------------------------
# discrete training


def small_dataset(seed=0, num_graphs=80):
    return generate_synthetic(
        SyntheticSpec(task="triangle-threshold", num_graphs=num_graphs), seed)


def one_block_arch(agg="GIN"):
    return ArchEncoding(num_blocks=1, selection=((1,),), fusion=("SUM",),
                        aggregation=(agg,), readout="GLOBAL_MEAN")


class TestTrainDiscrete:
    def test_learns_triangle_threshold(self):
        ds = small_dataset(num_graphs=200)
        hp = HParams(learning_rate=0.05, hidden_size=16, epochs=20, seed=1,
                     metric="accuracy")
        _, reports, history = train_discrete(ds, one_block_arch(), hp)
        assert len(history) == 20
        assert reports["valid"].value > 0.7

    def test_history_tracks_configured_metric(self):
        ds = small_dataset()
        hp = HParams(epochs=2, hidden_size=8, metric="accuracy")
        _, reports, history = train_discrete(ds, one_block_arch(), hp)
        assert set(history[0]) == {"epoch", "train_loss", "valid_accuracy"}
        assert set(reports) == {"train", "valid", "test"}

    def test_best_epoch_snapshot_restored(self):
        ds = small_dataset()
        hp = HParams(epochs=5, hidden_size=8, metric="accuracy")
        _, reports, history = train_discrete(ds, one_block_arch(), hp)
        best = max(history, key=lambda h: h["valid_accuracy"])
        assert reports["valid"].epoch == best["epoch"]
        assert reports["valid"].value == best["valid_accuracy"]

    def test_zero_epochs_reports_initial_model(self):
        ds = small_dataset()
        hp = HParams(epochs=0, hidden_size=8)
        _, reports, history = train_discrete(ds, one_block_arch(), hp)
        assert history == []
        assert reports["valid"].epoch == -1

    def test_deterministic(self):
        ds = small_dataset()
        hp = HParams(epochs=3, hidden_size=8, dropout=0.2, metric="accuracy")
        _, r1, h1 = train_discrete(ds, one_block_arch(), hp)
        _, r2, h2 = train_discrete(ds, one_block_arch(), hp)
        assert h1 == h2
        assert r1["test"].value == r2["test"].value

    def test_degree_parity_labels_constant(self):
        # every undirected graph has even degree sum, so this task is the
        # constant-zero function and any constant predictor is perfect
        ds = generate_synthetic(SyntheticSpec(task="degree-parity",
                                              num_graphs=40), 0)
        assert all(float(g.label[0]) == 0.0 for g in ds.graphs)
        hp = HParams(epochs=2, hidden_size=8, metric="accuracy")
        _, reports, _ = train_discrete(ds, one_block_arch(), hp)
        assert reports["valid"].value == 1.0

    def test_dataset_without_test_split(self):
        ds = small_dataset()
        splits = {"train": np.concatenate([ds.splits["train"], ds.splits["test"]]),
                  "valid": ds.splits["valid"]}
        hp = HParams(epochs=1, hidden_size=8, metric="accuracy")
        _, reports, _ = train_discrete(Dataset(graphs=ds.graphs, schema=ds.schema,
                                               splits=splits), one_block_arch(), hp)
        assert set(reports) == {"train", "valid"}

    def test_virtual_node_trains(self):
        ds = small_dataset()
        hp = HParams(epochs=1, hidden_size=8, virtual_node=True, metric="accuracy")
        _, reports, _ = train_discrete(ds, one_block_arch(), hp)
        assert 0.0 <= reports["valid"].value <= 1.0


class TestTape:
    @staticmethod
    def build(arch=None):
        ds = small_dataset(num_graphs=40)
        dims = SupernetDims(d_in=ds.num_node_features, out_dim=1, num_blocks=1, hidden=8)
        params = init_relaxed(dims, seed=3) if arch is None else init_discrete(dims, arch, seed=3)
        return ds, params

    @pytest.mark.parametrize("arch", [None, one_block_arch("GAT")], ids=["relaxed", "discrete"])
    def test_split_logits_equals_a_taped_forward(self, arch):
        ds, params = self.build(arch)
        graphs_ = ds.split_graphs("valid")
        logits, labels = training.split_logits(params, graphs_, arch)
        taped = supernet_forward(batch_graphs(graphs_), params,
                                 mode="relaxed" if arch is None else "discrete", arch=arch)
        assert taped.requires_grad
        assert logits.tobytes() == taped.data.tobytes()
        assert labels.tobytes() == batch_graphs(graphs_).labels.tobytes()
        # scoring froze the model only while it ran
        assert all(t.requires_grad for t in [*params.weights.values(),
                                             *params.alphas.values()])

    def test_descend_consumes_the_logits_tape(self):
        ds, params = self.build()
        batch = batch_graphs(ds.split_graphs("train"))
        logits = supernet_forward(batch, params)
        training.descend(params, SGD(params.weights, lr=0.1),
                         training.task_loss(ds.schema, logits, batch.labels), 0)
        assert logits._parents == () and logits.grad is None
        assert all(t.grad is not None for t in params.alphas.values())


# ---------------------------------------------------------------------------
# serialization


class TestFailsEarly:
    def test_evaluate_logits_rejects_non_finite_logits(self):
        with pytest.raises(ValueError, match="not all finite"):
            training.evaluate_logits(TaskSchema("binary"), "auc",
                                     np.array([[np.nan], [0.1], [0.2]]),
                                     np.array([[1.0], [0.0], [1.0]]), "valid", 0)

    def test_non_finite_loss_names_the_epoch(self):
        ds = small_dataset()
        graphs_ = list(ds.graphs)
        g = graphs_[ds.splits["train"][0]]
        graphs_[ds.splits["train"][0]] = Graph(
            node_features=np.full(g.node_features.shape, np.nan), edges=g.edges,
            label=g.label)
        with pytest.raises(ValueError, match="epoch 0: loss is nan"):
            train_discrete(Dataset(graphs=graphs_, schema=ds.schema, splits=ds.splits),
                           one_block_arch(), HParams(epochs=2, hidden_size=4, batch_size=128))

    @pytest.mark.parametrize("metric", ["auc", "ap"])
    def test_single_class_valid_split_rejected_before_any_step(self, monkeypatch, metric):
        ds = small_dataset()
        positive = Dataset(graphs=[Graph(node_features=g.node_features, edges=g.edges,
                                         label=np.array([1.0])) for g in ds.graphs],
                           schema=ds.schema, splits=ds.splits)
        steps = []
        monkeypatch.setattr(SGD, "step", lambda self: steps.append(self))
        message = {"auc": "one positive and one negative", "ap": "a task with both classes"}
        with pytest.raises(ValueError, match=message[metric]):
            train_discrete(positive, one_block_arch(),
                           HParams(epochs=1, hidden_size=4, metric=metric))
        assert steps == []

    @staticmethod
    def two_task_dataset(task1_valid):
        """Task 0 is all 1; task 1 takes ``task1_valid`` on the valid graphs
        (cycled) and alternates 0/1 elsewhere."""
        ds = small_dataset()
        valid = {int(i): k for k, i in enumerate(ds.splits["valid"])}
        graphs_ = [Graph(node_features=g.node_features, edges=g.edges,
                         label=np.array([1.0, task1_valid[valid[i] % len(task1_valid)]
                                         if i in valid else float(i % 2)]))
                   for i, g in enumerate(ds.graphs)]
        return Dataset(graphs=graphs_, schema=TaskSchema("multi-binary", num_tasks=2),
                       splits=ds.splits)

    def test_multi_binary_two_class_task_masked_to_null_rejected(self, monkeypatch):
        # task 1 is the only task with both classes, and its valid negatives are null
        masked = self.two_task_dataset([1.0, np.nan])
        steps = []
        monkeypatch.setattr(SGD, "step", lambda self: steps.append(self))
        with pytest.raises(ValueError, match="a task with both classes"):
            train_discrete(masked, one_block_arch(), HParams(epochs=1, hidden_size=4))
        assert steps == []

    def test_multi_binary_one_two_class_task_suffices(self):
        metric, splits, _ = training.prepare_run(self.two_task_dataset([1.0, np.nan, 0.0]),
                                                 None, num_blocks=1, hidden=4)
        assert metric == "ap" and splits["valid"]


class TestSaveLoad:
    def train_and_save(self, tmp_path, hp=None, arch=None):
        ds = small_dataset()
        hp = hp or HParams(epochs=2, hidden_size=8, metric="accuracy")
        arch = arch or one_block_arch(agg="EXPC")
        params, reports, _ = train_discrete(ds, arch, hp)
        save_model(params, arch, tmp_path / "model.bin",
                   tmp_path / "model.manifest.json", extra={"best_epoch": 1})
        return ds, arch, params, reports

    def test_round_trip_reproduces_metrics(self, tmp_path):
        ds, arch, params, reports = self.train_and_save(tmp_path)
        loaded, arch2, manifest = load_model(tmp_path / "model.bin",
                                             tmp_path / "model.manifest.json")
        assert arch2 == arch
        assert manifest["schema_version"] == 1
        assert manifest["best_epoch"] == 1
        for k in params.weights:
            np.testing.assert_array_equal(loaded.weights[k].data,
                                          params.weights[k].data)
        again = evaluate_model(ds, loaded, arch2, metric="accuracy")
        assert again["valid"].value == reports["valid"].value
        assert again["test"].value == reports["test"].value

    def test_multi_class_search_train_and_round_trip(self, tmp_path):
        base = small_dataset()
        # three classes, by node count
        ds = Dataset(graphs=[dataclasses.replace(g, label=np.array([g.num_nodes % 3.0]))
                             for g in base.graphs],
                     schema=TaskSchema("multi-class", num_classes=3), splits=base.splits)
        arch, history = search(ds, SearchConfig(num_blocks=2, hidden=4, epochs=1))
        assert history[0]["metric"] == "accuracy"
        params, reports, _ = train_discrete(ds, arch, HParams(epochs=2, hidden_size=8))
        assert params.dims.out_dim == 3 and reports["valid"].metric == "accuracy"
        save_model(params, arch, tmp_path / "model.bin", tmp_path / "model.manifest.json")
        loaded, arch2, _ = load_model(tmp_path / "model.bin", tmp_path / "model.manifest.json")
        again = evaluate_model(ds, loaded, arch2)
        for split in ("valid", "test"):
            assert again[split].value == reports[split].value

    def test_load_model_closes_its_file(self, tmp_path):
        self.train_and_save(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_model(tmp_path / "model.bin", tmp_path / "model.manifest.json")
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_truncated_blob_rejected(self, tmp_path):
        self.train_and_save(tmp_path)
        blob = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(blob[:-16])
        with pytest.raises(ValueError):
            load_model(tmp_path / "model.bin", tmp_path / "model.manifest.json")

    @pytest.mark.parametrize("cut", [-100, -3, 8], ids=["short", "odd-length", "long"])
    def test_blob_length_checked_before_copying(self, tmp_path, cut):
        self.train_and_save(tmp_path)
        blob = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(blob[:cut] if cut < 0 else blob + bytes(cut))
        with pytest.raises(ValueError, match=f"model binary model.bin holds "
                                             f"{len(blob) + cut} bytes; the manifest's "
                                             f"tensors take {len(blob)}"):
            load_model(tmp_path / "model.bin", tmp_path / "model.manifest.json")

    @staticmethod
    def relist_tensors(tmp_path, edit):
        """Rewrite the saved model to list the tensors ``edit(names)`` returns,
        each with its saved values, so the blob length matches the manifest."""
        path = tmp_path / "model.manifest.json"
        manifest = json.loads(path.read_text())
        blob = np.frombuffer((tmp_path / "model.bin").read_bytes(), dtype="<f8")
        entries, values, offset = {}, {}, 0
        for entry in manifest["tensors"]:
            size = int(np.prod(entry["shape"]))
            entries[entry["name"]] = entry
            values[entry["name"]] = blob[offset: offset + size]
            offset += size
        names = edit(list(entries))
        manifest["tensors"] = [entries[k] for k in names]
        path.write_text(json.dumps(manifest))
        (tmp_path / "model.bin").write_bytes(
            np.concatenate([values[k] for k in names]).astype("<f8").tobytes())

    @pytest.mark.parametrize("edit, message", [
        (lambda names: [k for k in names if k != "b0/agg/MF/W5"], "W5 is missing"),
        (lambda names: names + ["b0/agg/MF/W4"], "W4 is listed more than once"),
    ], ids=["missing", "repeated"])
    def test_tensor_list_must_match_the_rebuilt_model(self, tmp_path, edit, message):
        self.train_and_save(tmp_path, arch=one_block_arch(agg="MF"))
        self.relist_tensors(tmp_path, edit)
        with pytest.raises(ValueError,
                           match=rf"manifest\.json: manifest tensor b0/agg/MF/{message}"):
            load_model(tmp_path / "model.bin", tmp_path / "model.manifest.json")

    def test_unknown_tensor_rejected(self, tmp_path):
        self.train_and_save(tmp_path)
        path = tmp_path / "model.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["tensors"][0]["name"] = "b9/agg/EXPC/We"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json: manifest tensor b9/agg/EXPC/We "
                                             r"is not in the rebuilt"):
            load_model(tmp_path / "model.bin", path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: dict(m, dims=dict(m["dims"], num_blocks=2)),
         "architecture has 1 blocks, dims say 2"),
        (lambda m: dict(m, tensors=m["tensors"][:-1] + [{"name": "head/b", "shape": [2]}]),
         r"manifest tensor head/b \(2,\) does not match the rebuilt architecture"),
    ], ids=["block-count", "tensor-shape"])
    def test_rebuild_errors_name_the_file(self, tmp_path, edit, message):
        self.train_and_save(tmp_path)
        path = tmp_path / "model.manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=rf"^model manifest {re.escape(str(path))}: {message}"):
            load_model(tmp_path / "model.bin", path)

    def test_manifest_records_the_constants(self, tmp_path):
        self.train_and_save(tmp_path)
        manifest = json.loads((tmp_path / "model.manifest.json").read_text())
        # the values every earlier manifest recorded, so saved files stay byte-identical
        assert (manifest["max_degree"], manifest["expansion"]) == (5, 2)

    def test_wrong_manifest_version(self, tmp_path):
        self.train_and_save(tmp_path)
        path = tmp_path / "model.manifest.json"
        manifest = json.loads(path.read_text())
        manifest["schema_version"] = 2
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json: schema_version must be 1, got 2"):
            load_model(tmp_path / "model.bin", path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: [m], r"manifest\.json: not a JSON object, got \[\{"),
        (lambda m: {k: v for k, v in m.items() if k != "dims"}, "lacks 'dims'"),
        (lambda m: {k: v for k, v in m.items() if k != "arch"}, "lacks 'arch'"),
        (lambda m: {k: v for k, v in m.items() if k != "tensors"}, "lacks 'tensors'"),
        (lambda m: dict(m, dims=[1, 2]), r"manifest\.json: dims must be object, got \[1, 2\]"),
        (lambda m: dict(m, dims=dict(m["dims"], hidden="8")),
         r"manifest\.json: dims: hidden must be int, got '8'"),
        (lambda m: dict(m, dims=dict(m["dims"], width=8)),
         r"manifest\.json: dims: unknown key 'width'"),
        (lambda m: dict(m, tensors=[{"shape": [1]}] + m["tensors"][1:]),
         r"manifest\.json: tensors\[0\]: lacks 'name'"),
        (lambda m: dict(m, tensors={"encoder/W": [1]}),
         r"manifest\.json: tensors must be list, got \{'encoder/W': \[1\]\}"),
        (lambda m: dict(m, arch={"num_blocks": 1}), r"manifest\.json: arch: lacks 'blocks'"),
        (lambda m: dict(m, arch=[1]), r"manifest\.json: arch must be object, got \[1\]"),
    ], ids=["list", "no-dims", "no-arch", "no-tensors", "dims-list", "dims-str-value",
            "dims-unknown-key", "tensor-without-name", "tensors-object", "arch-without-blocks",
            "arch-list"])
    def test_manifest_shape_checked(self, tmp_path, edit, message):
        self.train_and_save(tmp_path)
        path = tmp_path / "model.manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message):
            load_model(tmp_path / "model.bin", path)

    def test_extra_key_collision_rejected(self, tmp_path):
        ds = small_dataset()
        arch = one_block_arch()
        params, _, _ = train_discrete(ds, arch, HParams(epochs=0, hidden_size=8))
        with pytest.raises(ValueError, match="extra manifest keys: unknown key 'arch'"):
            save_model(params, arch, tmp_path / "m.bin", tmp_path / "m.json",
                       extra={"arch": {}})

    def test_save_refuses_what_load_refuses(self, tmp_path):
        ds = small_dataset()
        arch = one_block_arch()
        params, _, _ = train_discrete(ds, arch, HParams(epochs=0, hidden_size=8))
        with pytest.raises(ValueError, match="best_epoch must be >= -1, got -5"):
            save_model(params, arch, tmp_path / "m.bin", tmp_path / "m.json",
                       extra={"best_epoch": -5})
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_binary_names_the_file(self, tmp_path):
        ds = small_dataset()
        arch = one_block_arch()
        params, _, _ = train_discrete(ds, arch, HParams(epochs=0, hidden_size=8))
        (tmp_path / "afile").write_text("")
        bad = tmp_path / "afile" / "m.bin"
        message = re.escape(f"cannot write file {bad}: Not a directory")
        with pytest.raises(ValueError, match=message):
            save_model(params, arch, bad, tmp_path / "m.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_evaluate_model_feature_width_guard(self, tmp_path):
        ds, arch, params, _ = self.train_and_save(tmp_path)
        wider = Dataset(
            graphs=[type(g)(node_features=np.hstack([g.node_features,
                                                     np.zeros((g.num_nodes, 1))]),
                            edges=g.edges, label=g.label) for g in ds.graphs],
            schema=ds.schema, splits=ds.splits)
        with pytest.raises(ValueError, match="node features"):
            evaluate_model(wider, params, arch)

    def test_evaluate_model_edge_feature_width_guard(self):
        ds = small_dataset()
        with_ef = Dataset(
            graphs=[Graph(node_features=g.node_features, edges=g.edges,
                          edge_features=np.ones((g.edges.shape[0], 2)), label=g.label)
                    for g in ds.graphs],
            schema=ds.schema, splits=ds.splits)
        arch = one_block_arch(agg="GEN")
        params, _, _ = train_discrete(with_ef, arch, HParams(epochs=0, hidden_size=8))
        with pytest.raises(ValueError, match="model expects 2 edge features, dataset has 0"):
            evaluate_model(ds, params, arch)

    @pytest.mark.parametrize("trained, scored, message", [
        (TaskSchema(), TaskSchema("multi-class", num_classes=3),
         "model gives 1 outputs, the dataset's multi-class task needs 3"),
        (TaskSchema("multi-class", num_classes=3), TaskSchema(),
         "model gives 3 outputs, the dataset's binary task needs 1"),
    ], ids=["binary-on-3-class", "3-class-on-binary"])
    def test_evaluate_model_output_width_guard(self, trained, scored, message):
        ds = small_dataset()
        arch = one_block_arch()
        params, _, _ = train_discrete(dataclasses.replace(ds, schema=trained), arch,
                                      HParams(epochs=0, hidden_size=8, metric="accuracy"))
        with pytest.raises(ValueError, match=message):
            evaluate_model(dataclasses.replace(ds, schema=scored), params, arch,
                           metric="accuracy")
