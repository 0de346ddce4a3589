"""One benchmark run: set-up, then whole rounds of search, retrain and eval.

A round runs ``search.search`` for a fixed number of relaxed epochs,
``training.train_discrete`` on :data:`workloads.FIXED_ARCH`, then
``training.save_model`` once and ``load_model`` + ``evaluate_model`` a
fixed number of times, and checks every output. Rounds start while the
run is younger than ``--seconds``; at least one always runs.

End-to-end times come from clock reads around the calls the benchmark
makes, plus spans at five phase boundaries inside ``search`` and
``train_discrete`` (the parameter builders, each SGD step, each
derivation and each evaluation), which cost a few microseconds per
search step. The traced run adds spans on every layer boundary listed in
:data:`TRACE_POINTS`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import opbench
import oracles
import workloads
from spans import Tracer
from sfanas import autodiff, graphs, ops, search, supernet, training

SEARCH_SEED = 0
RETRAIN_SEED = 0
EVAL_BATCH = 256  # the batch train_discrete and evaluate_model score with


def _mode(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "relaxed")


def _first_arg(args, kwargs):
    return args[0]


# (owner, attribute, span name, tag). The boundary points feed the
# end-to-end metrics in every run; the traced run adds the rest.
BOUNDARY_POINTS = [
    (search, "init_relaxed", "supernet.init_relaxed", None),
    (training, "init_discrete", "supernet.init_discrete", None),
    (training.SGD, "step", "training.sgd_step", None),
    (search, "derive_architecture", "supernet.derive_architecture", None),
    (training, "evaluate_logits", "training.evaluate_logits", None),
]
TRACE_POINTS = [
    (graphs, "batch_graphs", "graphs.batch_graphs", None),
    (training, "batch_graphs", "graphs.batch_graphs", None),
    (search, "supernet_forward", "supernet.supernet_forward", _mode),
    (training, "supernet_forward", "supernet.supernet_forward", _mode),
    (ops, "aggregate", "ops.aggregate", _first_arg),
    (ops, "fuse", "ops.fuse", _first_arg),
    (ops, "readout", "ops.readout", _first_arg),
    (autodiff, "backward", "autodiff.backward", None),
    (autodiff, "segment_reduce", "autodiff.segment_reduce", None),
    (autodiff, "segment_softmax", "autodiff.segment_softmax", None),
    (search, "task_loss", "training.task_loss", None),
    (training, "task_loss", "training.task_loss", None),
    (search, "evaluate_logits", "training.evaluate_logits", None),
    (training, "save_model", "training.save_model", None),
    (training, "load_model", "training.load_model", None),
]


# Layers reported as the median of one call rather than a total per round.
PER_CALL = ("training.save_model", "training.load_model")


class Checks:
    """Counts attempted and failed operations; a failed check is reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            print(f"CHECK FAILED: {name} {detail}", file=sys.stderr)
        return ok


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    def __init__(self, workload: workloads.Workload, seed: int, seconds: float,
                 trace: bool, out_dir: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = out_dir
        self.tracer = Tracer()
        self.checks = Checks()
        # end-to-end samples of untraced rounds, and of traced rounds
        self.samples = {k: [] for k in ("setup_s", "search_epoch_s", "search_step_ms",
                                        "retrain_epoch_s", "eval_s")}
        self.traced_samples = {k: [] for k in self.samples}
        self.load_s: list[float] = []
        self.phase_roots: list[tuple[int, str, bool]] = []  # (span, phase, traced round)
        self.search_config = search.SearchConfig(
            num_blocks=workload.num_blocks, hidden=workload.hidden,
            epochs=workload.search_epochs, batch_size=workload.batch_size,
            lr_weights=0.05, lr_alpha=0.1, seed=SEARCH_SEED)
        self.hparams = training.HParams(
            learning_rate=0.05, batch_size=workload.batch_size,
            hidden_size=workload.hidden, epochs=workload.retrain_epochs,
            seed=RETRAIN_SEED)

    # -- set-up ------------------------------------------------------------

    def _make_dataset(self):
        if self.w.name == "triangle-small":
            return workloads.make_triangle_small(self.w, self.seed)
        t0 = time.perf_counter()
        ds = graphs.load_dataset(self.data_path, workloads.LARGE_SCHEMA, self.splits_path)
        self.load_s.append(time.perf_counter() - t0)
        return ds

    def setup(self):
        """Make or load the dataset and build the search state, repeatedly."""
        if self.w.name == "large-edgefeat":
            self.data_path, self.splits_path = workloads.write_large(
                self.w, self.seed, self.out / "data")
        for _ in range(self.w.setup_repeats):
            self.dataset = None
            t0 = time.perf_counter()
            ds = self._make_dataset()
            params = supernet.init_relaxed(self._dims(ds), self.search_config.agg_candidates(),
                                           seed=SEARCH_SEED)
            training.SGD(params.weights, lr=self.search_config.lr_weights, momentum=0.9)
            training.SGD(params.alphas, lr=self.search_config.lr_alpha)
            self.samples["setup_s"].append(time.perf_counter() - t0)
            self.dataset = ds
        self.checks("set-up", True)
        ds = self.dataset
        self.metric = self.search_config.metric or training.default_metric(ds.schema)
        self.fixed_batch = graphs.batch_graphs(ds.split_graphs("train")[:self.w.batch_size])

    def _dims(self, ds):
        return supernet.SupernetDims(d_in=ds.num_node_features,
                                     out_dim=training.output_dim(ds.schema),
                                     num_blocks=self.w.num_blocks, hidden=self.w.hidden,
                                     d_edge=ds.num_edge_features)

    # -- rounds ------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, traced: bool):
        self.tracer.enabled = True
        root = len(self.tracer.spans)
        try:
            with self.tracer.span(f"phase.{name}"):
                yield
        finally:
            self.tracer.enabled = False
        self.phase_roots.append((root, name, traced))

    def one_round(self, samples: dict, traced: bool):
        ds, check = self.dataset, self.checks
        with self.phase("search", traced):
            arch, history = search.search(ds, self.search_config)
        check("search", True)
        self._search_times(self.phase_roots[-1][0], samples)
        losses = [h[k] for h in history for k in ("train_loss", "valid_loss")]
        check("search losses finite", all(math.isfinite(v) for v in losses), str(losses))
        values = [h["valid_metric"] for h in history]
        best = values.index(max(values))
        check("search returns its best-valid epoch",
              supernet.ArchEncoding.from_dict(history[best]["arch"]) == arch,
              f"epoch {best}")

        with self.phase("retrain", traced):
            params, reports, log = training.train_discrete(ds, workloads.FIXED_ARCH, self.hparams)
        check("retrain", True)
        self._retrain_times(self.phase_roots[-1][0], samples)
        check("retrain losses finite",
              all(math.isfinite(h["train_loss"]) for h in log), str(log))
        self._check_reports(params, reports)

        with self.phase("save", traced):
            bin_path, manifest_path = self.out / "model.bin", self.out / "model.manifest.json"
            training.save_model(params, workloads.FIXED_ARCH, bin_path, manifest_path,
                                extra={"best_epoch": reports["valid"].epoch})
        check("save", True)
        for _ in range(self.w.evals_per_round):
            with self.phase("eval", traced):
                t0 = time.perf_counter()
                loaded, arch2, manifest = training.load_model(bin_path, manifest_path)
                again = training.evaluate_model(ds, loaded, arch2, metric=self.metric,
                                                epoch=manifest["best_epoch"])
                samples["eval_s"].append(time.perf_counter() - t0)
            check("eval", True)
            check("reloaded model reproduces valid and test",
                  all(again[s].value == reports[s].value for s in ("valid", "test")),
                  f"{again['valid'].value} vs {reports['valid'].value}")

        self._check_relaxation()
        self._check_permutation()

    def _search_times(self, root: int, samples: dict):
        tr = self.tracer
        start = tr.under(root, "supernet.init_relaxed")[0][4]
        sgd = tr.under(root, "training.sgd_step")
        derives = tr.under(root, "supernet.derive_architecture")
        epochs = self.search_config.epochs
        steps = math.ceil(len(self.dataset.splits["train"]) / self.w.batch_size)
        if len(sgd) != 2 * epochs * steps or len(derives) != epochs:
            raise RuntimeError(f"search made {len(sgd)} SGD steps and {len(derives)} "
                               f"derivations; expected {2 * epochs * steps} and {epochs}")
        for e in range(epochs):
            epoch_start = step_start = start
            for k in range(steps):
                end = sgd[2 * (e * steps + k) + 1][4]  # the logit step closes a step
                samples["search_step_ms"].append((end - step_start) * 1e3)
                step_start = end
            start = derives[e][4]
            samples["search_epoch_s"].append(start - epoch_start)

    def _retrain_times(self, root: int, samples: dict):
        tr = self.tracer
        start = tr.under(root, "supernet.init_discrete")[0][4]
        evals = tr.under(root, "training.evaluate_logits")
        epochs = self.hparams.epochs
        if len(evals) != epochs + 3:
            raise RuntimeError(f"retrain made {len(evals)} evaluations; expected {epochs + 3}")
        for e in range(epochs):
            samples["retrain_epoch_s"].append(evals[e][4] - start)
            start = evals[e][4]

    # -- checks ------------------------------------------------------------

    def _logits(self, params, graph_list):
        parts, labels = [], []
        for s in range(0, len(graph_list), EVAL_BATCH):
            batch = graphs.batch_graphs(graph_list[s:s + EVAL_BATCH])
            parts.append(supernet.supernet_forward(batch, params, mode="discrete",
                                                   arch=workloads.FIXED_ARCH).data)
            labels.append(batch.labels)
        return np.concatenate(parts), np.concatenate(labels)

    def _check_reports(self, params, reports):
        ds = self.dataset
        for split in ("train", "valid", "test"):
            logits, labels = self._logits(params, ds.split_graphs(split))
            want = oracles.metric(self.metric, logits, labels)
            got = reports[split].value
            self.checks(f"{split} {self.metric} matches oracle", abs(got - want) <= 1e-12,
                        f"{got} vs {want}")
            if split == "valid":
                constant = oracles.metric(self.metric, np.zeros_like(logits), labels)
                self.checks("retrained model beats the constant predictor",
                            got > constant, f"{got} vs {constant}")

    def _check_relaxation(self):
        ds = self.dataset
        params = supernet.init_relaxed(self._dims(ds), supernet.DEFAULT_AGG_CANDIDATES,
                                       seed=SEARCH_SEED)
        supernet.force_one_hot_alphas(params, workloads.FIXED_ARCH)
        relaxed = supernet.supernet_forward(self.fixed_batch, params, mode="relaxed").data
        discrete = supernet.supernet_forward(self.fixed_batch, params, mode="discrete",
                                             arch=workloads.FIXED_ARCH).data
        self.checks("one-hot relaxed forward equals discrete bit for bit",
                    np.array_equal(relaxed, discrete),
                    f"max diff {np.abs(relaxed - discrete).max():.1e}")

    def _check_permutation(self):
        ds = self.dataset
        rng = np.random.default_rng([self.seed, 0xBE4])
        chosen = ds.split_graphs("train")[:self.w.batch_size]
        permuted = []
        for g in chosen:
            perm = rng.permutation(g.num_nodes)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(g.num_nodes)
            permuted.append(graphs.Graph(node_features=g.node_features[perm],
                                         edges=inv[g.edges], edge_features=g.edge_features,
                                         label=g.label))
        params = supernet.init_relaxed(self._dims(ds), supernet.DEFAULT_AGG_CANDIDATES,
                                       seed=SEARCH_SEED)
        base = supernet.supernet_forward(self.fixed_batch, params, mode="relaxed").data
        moved = supernet.supernet_forward(graphs.batch_graphs(permuted), params,
                                          mode="relaxed").data
        self.checks("supernet logits unchanged under node permutation",
                    bool(np.allclose(base, moved, rtol=1e-9, atol=1e-9)),
                    f"max diff {np.abs(base - moved).max():.1e}")

    # -- the run -------------------------------------------------------------

    def execute(self) -> dict:
        for owner, attr, name, tag in BOUNDARY_POINTS:
            self.tracer.patch(owner, attr, name, tag)
        try:
            self.setup()
            opbench.check_ops(self.fixed_batch, self.seed, self.w.hidden, self.checks)
            self._warm_up()
            start = time.perf_counter()
            rounds = 0
            try:
                # A traced run keeps its first round untraced, as the baseline
                # its tracing overhead is measured against.
                while rounds == 0 or (self.trace and rounds == 1) \
                        or time.perf_counter() - start < self.seconds:
                    traced = self.trace and rounds > 0
                    if traced and rounds == 1:
                        for owner, attr, name, tag in TRACE_POINTS:
                            self.tracer.patch(owner, attr, name, tag)
                    self.one_round(self.traced_samples if traced else self.samples, traced)
                    rounds += 1
            except Exception:
                traceback.print_exc()
                self.checks.attempted += 1
                self.checks.failed += 1
        finally:
            self.tracer.restore()
        metrics = self.layer_metrics() if self.trace else self.end_to_end()
        if self.trace:
            self.tracer.dump(self.out / "spans.jsonl")
        (self.out / "samples.json").write_text(json.dumps(
            {"untraced": self.samples, "traced": self.traced_samples}) + "\n", encoding="utf-8")
        return {"correct": self.checks.wrong == 0, "attempted": self.checks.attempted,
                "failed": self.checks.failed, "metrics": metrics}

    def end_to_end(self) -> dict:
        s = self.samples
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "setup_s": {"value": median(s["setup_s"]), "unit": "s"},
            "search_epoch_s": {"value": median(s["search_epoch_s"]), "unit": "s"},
            "search_step_ms": {"value": median(s["search_step_ms"]), "unit": "ms"},
            "retrain_epoch_s": {"value": median(s["retrain_epoch_s"]), "unit": "s"},
            "eval_s": {"value": median(s["eval_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    def layer_metrics(self) -> dict:
        tr = self.tracer
        roots, own = tr.roots(), tr.self_times()
        phase_of = {root: name for root, name, traced in self.phase_roots if traced}
        rounds = sum(1 for name in phase_of.values() if name == "search")
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        per_call: dict[str, list] = {}
        for i, (name, tag, parent, t0, t1) in enumerate(tr.spans):
            phase = phase_of.get(roots[i])
            if phase is None or parent < 0:
                continue
            calls[name] = calls.get(name, 0) + 1
            if name in PER_CALL:
                per_call.setdefault(name, []).append(t1 - t0)
            if name.startswith("ops."):
                key, dur = name, own[i]  # self time: segment kernels excluded
            elif name == "supernet.supernet_forward":
                key, dur = f"{name}.{tag}", t1 - t0
            elif name == "autodiff.backward":
                key, dur = f"{name}.{phase}", t1 - t0
            else:
                key, dur = name, t1 - t0
            total[key] = total.get(key, 0.0) + dur

        out = {}

        def put(metric, value, unit):
            out[metric] = {"value": float(value), "unit": unit}

        for key in ("graphs.batch_graphs", "supernet.derive_architecture", "ops.aggregate",
                    "ops.fuse", "ops.readout", "autodiff.segment_reduce",
                    "autodiff.segment_softmax", "training.sgd_step", "training.task_loss",
                    "training.evaluate_logits"):
            put(f"{key}.ms", total.get(key, 0.0) * 1e3 / rounds, "ms")
        for key in ("graphs.batch_graphs", "autodiff.segment_reduce",
                    "autodiff.segment_softmax"):
            put(f"{key}.calls", calls.get(key, 0) / rounds, "count")
        for mode in ("relaxed", "discrete"):
            put(f"supernet.supernet_forward.{mode}_ms",
                total[f"supernet.supernet_forward.{mode}"] * 1e3 / rounds, "ms")
        put("autodiff.backward.search_ms", total["autodiff.backward.search"] * 1e3 / rounds, "ms")
        put("autodiff.backward.retrain_ms",
            total["autodiff.backward.retrain"] * 1e3 / rounds, "ms")
        for key in PER_CALL:
            put(f"{key}.ms", median(per_call[key]) * 1e3, "ms")
        put("graphs.load_dataset.s", median(self._load_times()), "s")

        nodes, nbytes = self._tape()
        put("autodiff.tape_nodes", nodes, "count")
        put("autodiff.tape_bytes", nbytes, "bytes")
        for metric, value in opbench.time_ops(self.fixed_batch, self.seed,
                                              self.w.hidden).items():
            put(metric, value, "ms")
        for metric, unit in (("search_epoch_s", "s"), ("search_step_ms", "ms"),
                             ("retrain_epoch_s", "s"), ("eval_s", "s")):
            put(f"trace_overhead.{metric}", median(self.traced_samples[metric])
                - median(self.samples[metric]), unit)
        return out

    def _load_times(self) -> list[float]:
        """load_dataset seconds: the set-up loads of large-edgefeat; for
        triangle-small, which never loads, a written copy of its dataset."""
        if self.load_s:
            return self.load_s
        directory = self.out / "data"
        directory.mkdir(parents=True, exist_ok=True)
        graphs.write_dataset(self.dataset, directory / "dataset.jsonl", directory / "splits.json")
        times = []
        for _ in range(self.w.setup_repeats):
            t0 = time.perf_counter()
            graphs.load_dataset(directory / "dataset.jsonl", self.dataset.schema,
                                directory / "splits.json")
            times.append(time.perf_counter() - t0)
        return times

    def _warm_up(self):
        """One untimed search step before the rounds.

        A process's first steps on a large batch run up to twice as slow as
        later ones while the allocator grows into the step's working set;
        a user pays that once per process, not once per epoch. The step is
        ``search.search`` for one epoch over one train and one valid batch.
        """
        ds, size = self.dataset, self.w.batch_size
        train, valid = ds.splits["train"], ds.splits["valid"]
        rest = np.concatenate([train[size:], valid[size:], ds.splits["test"]])
        one_step = graphs.Dataset(graphs=ds.graphs, schema=ds.schema,
                                  splits={"train": train[:size], "valid": valid[:size],
                                          "test": rest})
        search.search(one_step, dataclasses.replace(self.search_config, epochs=1))

    def _tape(self) -> tuple[int, int]:
        """Size of one search step's loss graph on the fixed batch."""
        params = supernet.init_relaxed(self._dims(self.dataset),
                                       self.search_config.agg_candidates(), seed=SEARCH_SEED)
        logits = supernet.supernet_forward(self.fixed_batch, params, mode="relaxed",
                                           training=True)
        loss = training.task_loss(self.dataset.schema, logits, self.fixed_batch.labels)
        return opbench.tape_size(loss)
