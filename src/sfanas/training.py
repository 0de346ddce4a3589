"""Losses, evaluation metrics, and from-scratch training of a derived
architecture.

Losses are built from autodiff primitives in numerically stable forms.
Metrics operate on plain arrays, and the two ranking metrics reject
non-finite scores. They match exhaustive
pair/precision oracles exactly, including the documented tie rules
(roc_auc counts ties as half; average_precision sorts by descending score
with ties broken by original index). A search and a retrain share their
set-up (``prepare_run``) and their optimizer step (``descend``).
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ops
from .autodiff import Tensor
from .graphs import (KINDS, Dataset, TaskSchema, add_virtual_node, batch_graphs, fields,
                     located, read_bytes, read_json, write_bytes, write_json)
from .supernet import ArchEncoding, SupernetDims, SupernetParams, init_discrete, supernet_forward

# ---------------------------------------------------------------------------
# losses


def bce_masked(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over non-missing (non-NaN) label entries
    (:func:`autodiff.masked_bce`). Its stable form keeps large logits from
    overflowing or losing the labelled term.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if logits.data.shape != labels.shape:
        raise ad.ShapeError(f"bce_masked: logits {logits.data.shape} vs labels {labels.shape}")
    mask = ~np.isnan(labels)
    if not mask.any():
        raise ValueError("bce_masked: all labels missing")
    return ad.masked_bce(logits, np.where(mask, labels, 0.0), mask)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax at the true class (constant max shift)."""
    labels = np.asarray(labels)
    if labels.ndim == 2 and labels.shape[1] == 1:
        labels = labels[:, 0]
    labels = labels.astype(np.int64)
    B, C = logits.data.shape
    if labels.shape != (B,):
        raise ad.ShapeError(f"cross_entropy: {B} rows but label shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= C:
        raise ValueError(f"cross_entropy: labels must lie in [0, {C})")
    m = Tensor(logits.data.max(axis=1, keepdims=True))
    lse = ad.add(m, ad.log(ad.tsum(ad.exp(ad.sub(logits, m)), axis=1, keepdims=True)))
    onehot = np.zeros((B, C))
    onehot[np.arange(B), labels] = 1.0
    z_true = ad.tsum(ad.mul(logits, Tensor(onehot)), axis=1, keepdims=True)
    return ad.tmean(ad.sub(lse, z_true))


def task_loss(schema: TaskSchema, logits: Tensor, labels: np.ndarray) -> Tensor:
    if schema.task_type == "multi-class":
        return cross_entropy(logits, labels)
    return bce_masked(logits, labels)


# ---------------------------------------------------------------------------
# metrics


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outranks a random negative, ties
    worth half (the rank-statistic form)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.shape != labels.shape:
        raise ValueError("roc_auc: scores and labels differ in length")
    if not np.isfinite(scores).all():
        raise ValueError("roc_auc: scores are not all finite")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc: needs at least one positive and one negative")
    # each group of tied scores takes the average of its 1-based ranks
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _ap_single(scores: np.ndarray, labels: np.ndarray) -> float:
    order = np.argsort(-scores, kind="stable")  # descending, ties by original index
    hits = labels[order] == 1
    cum = np.cumsum(hits)
    ks = np.nonzero(hits)[0] + 1
    return float((cum[ks - 1] / ks).mean())


def average_precision(scores: np.ndarray, labels: np.ndarray):
    """Mean precision at each positive, averaged over tasks that have
    both classes after masking missing labels.

    Returns (mean AP, per-task list with None for skipped tasks).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores[:, None]
        labels = labels[:, None]
    if scores.shape != labels.shape:
        raise ValueError("average_precision: scores and labels differ in shape")
    if not np.isfinite(scores).all():
        raise ValueError("average_precision: scores are not all finite")
    per_task = []
    valid = []
    for k in range(scores.shape[1]):
        m = ~np.isnan(labels[:, k])
        yk = labels[m, k]
        if m.sum() == 0 or yk.min() == yk.max():
            per_task.append(None)
            continue
        apk = _ap_single(scores[m, k], yk)
        per_task.append(apk)
        valid.append(apk)
    if not valid:
        raise ValueError("average_precision: no task has both classes; it needs a task "
                         "with both classes among its non-missing labels")
    return float(np.mean(valid)), per_task


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches between two equal-length vectors."""
    predictions = np.asarray(predictions).ravel()
    labels = np.asarray(labels).ravel()
    if predictions.shape != labels.shape:
        raise ValueError("accuracy: predictions and labels differ in length")
    if predictions.size == 0:
        raise ValueError("accuracy: empty input")
    return float(np.mean(predictions == labels))


def predictions_from_logits(schema: TaskSchema, logits: np.ndarray) -> np.ndarray:
    """Class predictions: argmax over classes (first index on ties), or
    sign threshold for a single-logit binary head."""
    if schema.task_type == "multi-class":
        return np.argmax(logits, axis=1)
    return (logits[:, 0] > 0.0).astype(np.int64)


# the metrics each task type allows, its default first
TASK_METRICS = {"binary": ("auc", "ap", "accuracy"), "multi-binary": ("ap",),
                "multi-class": ("accuracy",)}
METRICS = TASK_METRICS["binary"]  # a binary task allows every metric


def default_metric(schema: TaskSchema) -> str:
    return TASK_METRICS[schema.task_type][0]


def check_metric(schema: TaskSchema, metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    allowed = TASK_METRICS[schema.task_type]
    if metric not in allowed:
        raise ValueError(f"metric {metric!r} does not apply to a {schema.task_type} task "
                         f"(allowed: {allowed})")


@dataclass
class EvalReport:
    metric: str
    value: float
    split: str
    epoch: int
    per_task: list | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _score(schema: TaskSchema, metric: str, logits: np.ndarray,
           labels: np.ndarray) -> tuple[float, list | None]:
    """The metric's value, plus AP's per-task list on a multi-binary task.
    The metric functions raise where the labels leave the metric undefined."""
    if metric == "auc":
        return roc_auc(logits[:, 0], labels[:, 0]), None
    if metric == "ap":
        value, per_task = average_precision(logits, labels)
        return value, None if schema.task_type == "binary" else per_task
    return accuracy(predictions_from_logits(schema, logits), labels), None


def evaluate_logits(schema: TaskSchema, metric: str, logits: np.ndarray,
                    labels: np.ndarray, split: str, epoch: int) -> EvalReport:
    check_metric(schema, metric)
    if not np.isfinite(logits).all():
        raise ValueError(f"{split} logits at epoch {epoch} are not all finite")
    value, per_task = _score(schema, metric, logits, labels)
    return EvalReport(metric=metric, value=value, split=split, epoch=epoch,
                      per_task=per_task)


# ---------------------------------------------------------------------------
# optimizer


class SGD:
    """Gradient descent over named tensors with heavy-ball momentum:
    ``v = momentum * v + grad`` and ``x -= lr * v``, so momentum 0 steps
    by the gradient alone."""

    def __init__(self, params: dict, lr: float, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = {k: np.zeros_like(t.data) for k, t in params.items()}

    def step(self) -> None:
        for k, t in self.params.items():
            if t.grad is None:
                continue
            v = self.velocity[k]
            v *= self.momentum
            v += t.grad
            t.data -= self.lr * v


# ---------------------------------------------------------------------------
# training a discrete architecture


@dataclass
class HParams:
    learning_rate: float = 0.01
    batch_size: int = 32
    hidden_size: int = 32
    dropout: float = 0.0
    virtual_node: bool = False
    epochs: int = 30
    seed: int = 0
    momentum: float = 0.9
    metric: str | None = None

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.hidden_size < 1:
            raise ValueError("learning_rate, batch_size, hidden_size must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


def output_dim(schema: TaskSchema) -> int:
    if schema.task_type == "multi-class":
        return schema.num_classes
    return schema.num_tasks


def minibatches(graphs: list, batch_size: int, rng: np.random.Generator | None = None) -> list:
    """Consecutive chunks of ``graphs``, after one shuffle when ``rng`` is given."""
    idx = np.arange(len(graphs))
    if rng is not None:
        rng.shuffle(idx)
    return [[graphs[i] for i in idx[s: s + batch_size]]
            for s in range(0, len(graphs), batch_size)]


def split_logits(params: SupernetParams, graphs: list,
                 arch: ArchEncoding | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Logits and labels over ``graphs``, in chunks of 256: of the relaxed
    supernet when ``arch`` is None, else of the discrete network ``arch``.
    The forwards are only scored: every tensor of the model is frozen, so
    they record no tape."""
    parts = []
    labels = []
    with ad.frozen([*params.weights.values(), *params.alphas.values()]):
        for chunk in minibatches(graphs, 256):
            batch = batch_graphs(chunk)
            logits = supernet_forward(batch, params,
                                      mode="relaxed" if arch is None else "discrete", arch=arch)
            parts.append(logits.data)
            labels.append(batch.labels)
    return np.concatenate(parts, axis=0), np.concatenate(labels, axis=0)


def _split_reports(schema: TaskSchema, metric: str, params: SupernetParams, splits: dict,
                  arch: ArchEncoding, epoch: int) -> dict:
    """One EvalReport per non-empty split of ``splits`` (name -> graphs)."""
    return {split: evaluate_logits(schema, metric, *split_logits(params, graphs, arch),
                                   split, epoch)
            for split, graphs in splits.items() if graphs}


def _splits(dataset: Dataset, virtual_node: bool) -> dict:
    """Train, valid and test graphs, each given a virtual node if asked;
    a split the dataset does not name is empty."""
    splits = {split: dataset.split_graphs(split) for split in ("train", "valid", "test")}
    if virtual_node:
        splits = {split: [add_virtual_node(g) for g in graphs] for split, graphs in splits.items()}
    return splits


def prepare_run(dataset: Dataset, metric: str | None, num_blocks: int, hidden: int,
                virtual_node: bool = False) -> tuple[str, dict, SupernetDims]:
    """The metric (the task's default when None), splits and dims that a
    search or a retrain starts from. Fails before any parameter exists on
    a metric the task does not allow, an empty train or valid split, or a
    valid split that leaves the metric undefined."""
    schema = dataset.schema
    metric = metric or default_metric(schema)
    check_metric(schema, metric)
    splits = _splits(dataset, virtual_node)
    if not splits["train"] or not splits["valid"]:
        raise ValueError("train and valid splits must be non-empty")
    # scoring constant logits fails where the valid labels leave the metric undefined
    labels = np.stack([g.label for g in splits["valid"]])
    with located(f"the valid split leaves {metric} undefined"):
        _score(schema, metric, np.zeros((len(labels), output_dim(schema))), labels)
    dims = SupernetDims(d_in=dataset.num_node_features, out_dim=output_dim(schema),
                        num_blocks=num_blocks, hidden=hidden,
                        d_edge=dataset.num_edge_features)
    return metric, splits, dims


def descend(params: SupernetParams, opt: SGD, loss: Tensor, epoch: int) -> float:
    """One step of ``opt`` on ``loss``, which is returned as a float; a
    non-finite loss stops the run before anything moves. All gradients are
    cleared first, so only the tensors ``opt`` holds take the step. The
    backward pass consumes the loss's tape."""
    value = float(loss.data)
    if not np.isfinite(value):
        raise ValueError(f"epoch {epoch}: loss is {value}")
    params.zero_grads()
    ad.backward(loss)
    opt.step()
    return value


def _clone_weights(params: SupernetParams) -> dict:
    return {k: t.data.copy() for k, t in params.weights.items()}


def _restore_weights(params: SupernetParams, snapshot: dict) -> None:
    for k, t in params.weights.items():
        t.data[:] = snapshot[k]


def train_discrete(dataset: Dataset, arch: ArchEncoding, hp: HParams):
    """Train ``arch`` from a fresh initialization; returns the
    best-valid-epoch parameters, per-split EvalReports, and an epoch log.

    With epochs=0 the reports describe the initialized model (epoch -1).
    """
    schema = dataset.schema
    metric, splits, dims = prepare_run(dataset, hp.metric, arch.num_blocks, hp.hidden_size,
                                       hp.virtual_node)
    train_graphs, valid_graphs = splits["train"], splits["valid"]
    params = init_discrete(dims, arch, seed=hp.seed)

    opt = SGD(params.weights, lr=hp.learning_rate, momentum=hp.momentum)
    shuffle_rng = np.random.default_rng([hp.seed, 0x7121])
    dropout_rng = np.random.default_rng([hp.seed, 0xD120])

    best_value = -np.inf
    best_epoch = -1
    best_snapshot = _clone_weights(params)
    history = []
    for epoch in range(hp.epochs):
        epoch_loss = 0.0
        chunks = minibatches(train_graphs, hp.batch_size, shuffle_rng)
        for chunk in chunks:
            batch = batch_graphs(chunk)
            logits = supernet_forward(batch, params, mode="discrete", arch=arch,
                                      training=True, dropout_rate=hp.dropout,
                                      rng=dropout_rng)
            epoch_loss += descend(params, opt, task_loss(schema, logits, batch.labels), epoch)
        report = evaluate_logits(schema, metric, *split_logits(params, valid_graphs, arch),
                                 "valid", epoch)
        history.append({"epoch": epoch, "train_loss": epoch_loss / len(chunks),
                        f"valid_{metric}": report.value})
        if report.value > best_value:
            best_value = report.value
            best_epoch = epoch
            best_snapshot = _clone_weights(params)

    _restore_weights(params, best_snapshot)
    return params, _split_reports(schema, metric, params, splits, arch, best_epoch), history


def evaluate_model(dataset: Dataset, params: SupernetParams, arch: ArchEncoding,
                   metric: str | None = None, virtual_node: bool = False,
                   epoch: int = -1) -> dict:
    """Per-split EvalReports for an already-trained model."""
    schema = dataset.schema
    metric = metric or default_metric(schema)
    check_metric(schema, metric)
    if params.dims.d_in != dataset.num_node_features:
        raise ValueError(f"model expects {params.dims.d_in} node features, "
                         f"dataset has {dataset.num_node_features}")
    if params.dims.d_edge != dataset.num_edge_features:
        raise ValueError(f"model expects {params.dims.d_edge} edge features, "
                         f"dataset has {dataset.num_edge_features}")
    return _split_reports(schema, metric, params, _splits(dataset, virtual_node), arch, epoch)


# ---------------------------------------------------------------------------
# model serialization


# What a manifest holds; save_model's ``extra`` may add the optional keys.
MANIFEST = {"schema_version": "int", "dtype": "str", "max_degree": "int", "expansion": "int",
            "dims": "object", "arch": "object", "tensors": "list",
            "best_epoch": "int", "metric": "str", "virtual_node": "bool"}
MANIFEST_OPTIONAL = ("best_epoch", "metric", "virtual_node")
# the blob is read as the format and with the constants this code writes
MANIFEST_PINNED = {"schema_version": 1, "dtype": "<f8", "max_degree": ops.MAX_DEGREE,
                   "expansion": ops.EXPANSION}
DIMS = {f.name: f.type for f in dataclasses.fields(SupernetDims)}
TENSOR = {"name": "str", "shape": "list"}


def _check_manifest(manifest, where: str) -> dict:
    """``manifest`` if it has the keys and kinds of MANIFEST, the values of
    MANIFEST_PINNED and a best_epoch of -1 or more; a ValueError naming
    ``where`` if not. save_model checks what it writes, load_model what it
    reads."""
    fields(manifest, MANIFEST, where, optional=MANIFEST_OPTIONAL)
    for key, wanted in MANIFEST_PINNED.items():
        if manifest[key] != wanted:
            raise ValueError(f"{where}: {key} must be {wanted!r}, got {manifest[key]!r}")
    # eval writes best_epoch into its report
    if manifest.get("best_epoch", -1) < -1:
        raise ValueError(f"{where}: best_epoch must be >= -1, got {manifest['best_epoch']}")
    return manifest


def save_model(params: SupernetParams, arch: ArchEncoding, bin_path, manifest_path,
               extra: dict | None = None) -> None:
    """Flat little-endian float64 blob plus a JSON manifest that records
    enough to rebuild the container (dims, arch, tensor names and shapes).
    Writes nothing if ``extra`` would make a manifest load_model refuses."""
    extra = fields(extra or {}, {k: MANIFEST[k] for k in MANIFEST_OPTIONAL},
                   "extra manifest keys", optional=MANIFEST_OPTIONAL)
    names = list(params.weights)
    manifest = _check_manifest({
        **MANIFEST_PINNED,
        "dims": dataclasses.asdict(params.dims),
        "arch": arch.to_dict(),
        "tensors": [{"name": k, "shape": list(params.weights[k].data.shape)}
                    for k in names],
        **extra,
    }, f"model manifest {manifest_path}")
    flat = np.concatenate([params.weights[k].data.ravel() for k in names])
    write_bytes(bin_path, flat.astype("<f8").tobytes())
    write_json(manifest_path, manifest)


def load_model(bin_path, manifest_path) -> tuple[SupernetParams, ArchEncoding, dict]:
    # the binary first: a directory holding neither file names model.bin
    blob = read_bytes(bin_path, "model binary")
    where = f"model manifest {manifest_path}"
    manifest = _check_manifest(read_json(manifest_path, "model manifest"), where)
    dims = fields(manifest["dims"], DIMS, f"{where}: dims")
    with located(f"{where}: dims"):
        dims = SupernetDims(**dims)
    arch = ArchEncoding.from_dict(manifest["arch"], f"{where}: arch")
    for i, entry in enumerate(manifest["tensors"]):
        fields(entry, TENSOR, f"{where}: tensors[{i}]")
    with located(where):  # arch and dims may disagree on the block count
        params = init_discrete(dims, arch, seed=0)
    # the manifest must list each tensor of the rebuilt model exactly once
    listed = Counter(entry["name"] for entry in manifest["tensors"])
    for name in sorted(listed.keys() | params.weights.keys()):
        if listed[name] != int(name in params.weights):
            problem = ("is not in the rebuilt architecture" if name not in params.weights
                       else "is missing" if not listed[name] else "is listed more than once")
            raise ValueError(f"{where}: manifest tensor {name} {problem}")
    tensors = [params.weights[entry["name"]] for entry in manifest["tensors"]]
    for entry, t in zip(manifest["tensors"], tensors):
        if entry["shape"] != list(t.data.shape) or not all(map(KINDS["int"], entry["shape"])):
            raise ValueError(f"{where}: manifest tensor {entry['name']} "
                             f"{tuple(entry['shape'])} does not match the rebuilt architecture")
    expected = 8 * sum(t.data.size for t in tensors)
    if len(blob) != expected:
        raise ValueError(f"model binary {os.path.basename(bin_path)} holds {len(blob)} bytes; "
                         f"the manifest's tensors take {expected}")
    flat = np.frombuffer(blob, dtype="<f8")
    offset = 0
    for t in tensors:
        t.data[:] = flat[offset: offset + t.data.size].reshape(t.data.shape)
        offset += t.data.size
    return params, arch, manifest
