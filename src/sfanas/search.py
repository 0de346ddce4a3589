"""Differentiable architecture search by alternating gradient descent.

Each epoch pairs train minibatches with (cycling) valid minibatches: the
operation weights take a step on the train loss while the logits stay
frozen, then the logits take a step on the valid loss while the weights
stay frozen. The frozen side records no gradient: each half-step's
forward and backward run inside ``autodiff.frozen`` over the tensors its
optimizer does not hold, so the weight step computes no logit VJPs and
the logit step no weight VJPs. The softmax temperature anneals from
lambda_start down to lambda_end, sharpening the mixtures toward one-hot,
and the architecture returned is the per-site argmax at the
best-valid-metric epoch. Set-up and steps come from
``training.prepare_run`` and ``training.descend``.

A fixed-aggregation mode restricts every aggregation site to one op, so
the search explores only the wiring (selection/fusion/readout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ops
from .graphs import Dataset, batch_graphs
from .supernet import (ArchEncoding, DEFAULT_AGG_CANDIDATES, derive_architecture,
                       init_relaxed, supernet_forward)
from .training import (SGD, descend, evaluate_logits, minibatches, prepare_run,
                       split_logits, task_loss)

ANNEAL_SCHEDULES = ("linear", "exponential")


@dataclass
class SearchConfig:
    num_blocks: int = 4
    hidden: int = 32
    epochs: int = 10
    batch_size: int = 32
    lr_weights: float = 0.05
    lr_alpha: float = 0.1
    lambda_start: float = 1.0
    lambda_end: float = 0.1
    anneal: str = "exponential"
    fixed_aggregation: str | None = None
    aggregation_candidates: tuple = DEFAULT_AGG_CANDIDATES
    dropout: float = 0.0
    seed: int = 0
    metric: str | None = None

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be at least 1")
        if self.epochs < 1 or self.batch_size < 1 or self.hidden < 1:
            raise ValueError("epochs, batch_size, hidden must be positive")
        if self.lr_weights <= 0 or self.lr_alpha <= 0:
            raise ValueError("learning rates must be positive")
        if not (self.lambda_start >= self.lambda_end > 0):
            raise ValueError("need lambda_start >= lambda_end > 0")
        if self.anneal not in ANNEAL_SCHEDULES:
            raise ValueError(f"anneal must be one of {ANNEAL_SCHEDULES}")
        self.aggregation_candidates = tuple(self.aggregation_candidates)
        if not self.aggregation_candidates:
            raise ValueError("aggregation candidate set must be non-empty")
        for k, name in enumerate(self.aggregation_candidates):
            if name not in ops.AGGREGATION_OPS:
                raise ValueError(f"unknown aggregation candidate {name!r}")
            if name in self.aggregation_candidates[:k]:
                raise ValueError(f"aggregation candidate {name!r} is listed more than once")
        if self.fixed_aggregation is not None and \
                self.fixed_aggregation not in ops.AGGREGATION_OPS:
            raise ValueError(f"unknown fixed aggregation {self.fixed_aggregation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")

    def agg_candidates(self) -> tuple:
        if self.fixed_aggregation is not None:
            return (self.fixed_aggregation,)
        return self.aggregation_candidates


def anneal(epoch: int, config: SearchConfig) -> float:
    """Temperature at ``epoch``; endpoints are lambda_start/lambda_end."""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    if config.epochs == 1:
        return config.lambda_start
    t = epoch / (config.epochs - 1)
    if config.anneal == "linear":
        return config.lambda_start + t * (config.lambda_end - config.lambda_start)
    return config.lambda_start * (config.lambda_end / config.lambda_start) ** t


def random_architecture(config: SearchConfig, seed: int) -> ArchEncoding:
    """Uniform draw per site; all-ZERO selection masks are redrawn."""
    rng = np.random.default_rng([int(seed), 0x4A2D])
    selection = []
    fusion = []
    aggregation = []
    candidates = config.agg_candidates()
    for b in range(config.num_blocks):
        bits = rng.integers(0, 2, size=b + 1)
        while not bits.any():
            bits = rng.integers(0, 2, size=b + 1)
        selection.append(tuple(int(v) for v in bits))
        fusion.append(ops.FUSION_OPS[rng.integers(len(ops.FUSION_OPS))])
        aggregation.append(candidates[rng.integers(len(candidates))])
    readout = ops.READOUT_OPS[rng.integers(len(ops.READOUT_OPS))]
    return ArchEncoding(num_blocks=config.num_blocks, selection=tuple(selection),
                        fusion=tuple(fusion), aggregation=tuple(aggregation),
                        readout=readout)


def best_record(history: list) -> dict:
    """The record with the highest valid metric; ties go to the earliest epoch."""
    return max(history, key=lambda r: (r["valid_metric"], -r["epoch"]))


def search(dataset: Dataset, config: SearchConfig):
    """Run the alternating search; returns (best ArchEncoding, history).

    History holds one record per epoch: losses, valid metric, temperature,
    and the architecture that argmax derivation would emit at that epoch.
    """
    schema = dataset.schema
    metric, splits, dims = prepare_run(dataset, config.metric, config.num_blocks,
                                       config.hidden)
    train_graphs, valid_graphs = splits["train"], splits["valid"]
    params = init_relaxed(dims, config.agg_candidates(), seed=config.seed)
    opt_w = SGD(params.weights, lr=config.lr_weights, momentum=0.9)
    opt_a = SGD(params.alphas, lr=config.lr_alpha)

    train_rng = np.random.default_rng([config.seed, 0x5EA1])
    valid_rng = np.random.default_rng([config.seed, 0x5EA2])
    dropout_rng = np.random.default_rng([config.seed, 0xD0])

    history = []
    for epoch in range(config.epochs):
        params.lam = anneal(epoch, config)
        train_chunks = minibatches(train_graphs, config.batch_size, train_rng)
        valid_chunks = minibatches(valid_graphs, config.batch_size, valid_rng)
        train_loss = 0.0
        valid_loss = 0.0
        for step, chunk in enumerate(train_chunks):
            batch = batch_graphs(chunk)
            with ad.frozen(params.alphas.values()):
                logits = supernet_forward(batch, params, mode="relaxed", training=True,
                                          dropout_rate=config.dropout, rng=dropout_rng)
                train_loss += descend(params, opt_w,
                                      task_loss(schema, logits, batch.labels), epoch)

            vbatch = batch_graphs(valid_chunks[step % len(valid_chunks)])
            with ad.frozen(params.weights.values()):
                vlogits = supernet_forward(vbatch, params, mode="relaxed")
                valid_loss += descend(params, opt_a,
                                      task_loss(schema, vlogits, vbatch.labels), epoch)

        report = evaluate_logits(schema, metric, *split_logits(params, valid_graphs),
                                 "valid", epoch)
        history.append({"epoch": epoch, "train_loss": train_loss / len(train_chunks),
                        "valid_loss": valid_loss / len(train_chunks),
                        "metric": metric, "valid_metric": report.value,
                        "lambda": params.lam, "arch": derive_architecture(params).to_dict()})

    return ArchEncoding.from_dict(best_record(history)["arch"]), history
