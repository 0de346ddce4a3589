"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the measured numbers so the
suite output doubles as a release checklist. The two end-to-end tests
(search beats random, fixed-aggregation search) dominate the runtime.
"""

import itertools
import json
import time

import numpy as np
import pytest

from sfanas import gradcheck, ops
from sfanas.cli import main
from sfanas.graphs import Graph, SyntheticSpec, batch_graphs, generate_synthetic
from sfanas.search import SearchConfig, random_architecture, search
from sfanas.supernet import (ArchEncoding, SupernetDims, arch_weights,
                             force_one_hot_alphas, init_discrete, init_relaxed,
                             supernet_forward)
from sfanas.autodiff import Tensor
from sfanas.training import (HParams, average_precision, roc_auc,
                             train_discrete)


def announce(capsys, criterion: str, ok: bool, detail: str):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def random_graph(rng, d=3, d_edge=0, n_lo=4, n_hi=12):
    n = int(rng.integers(n_lo, n_hi + 1))
    e = int(rng.integers(1, 3 * n))
    edges = rng.integers(0, n, size=(e, 2))
    ef = rng.normal(size=(e, d_edge)) if d_edge else None
    return Graph(node_features=rng.normal(size=(n, d)), edges=edges,
                 edge_features=ef, label=np.array([float(rng.integers(0, 2))]))


def permute_graph(g, rng):
    perm = rng.permutation(g.num_nodes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.num_nodes)
    return Graph(node_features=g.node_features[perm], edges=inv[g.edges],
                 edge_features=g.edge_features, label=g.label)


def test_1_gradient_integrity(capsys):
    start = time.monotonic()
    results = gradcheck.run_all()
    elapsed = time.monotonic() - start
    worst = max(err for _, err in results)
    failed = [name for name, err in results if err >= 1e-4]
    ok = not failed and elapsed < 60.0
    announce(capsys, "criterion 1", ok,
             f"gradient checks {len(results) - len(failed)}/{len(results)} "
             f"below 1e-4 (worst {worst:.2e}) in {elapsed:.1f}s (budget 60s)"
             + (f"; failing: {failed}" if failed else ""))


def test_2_relaxation_correctness(capsys):
    rng = np.random.default_rng(202)

    sum_err = 0.0
    shift_err = 0.0
    for _ in range(50):
        a = rng.normal(size=int(rng.integers(2, 9))) * 4.0
        lam = float(rng.uniform(0.05, 3.0))
        w = arch_weights(Tensor(a), lam).data
        sum_err = max(sum_err, abs(w.sum() - 1.0))
        w2 = arch_weights(Tensor(a + float(rng.normal()) * 10.0), lam).data
        shift_err = max(shift_err, np.abs(w - w2).max())
    peak = arch_weights(Tensor(np.array([1.0, 0.0])), 0.05).data.max()

    gs = [random_graph(rng, d=3, d_edge=2) for _ in range(3)]
    batch = batch_graphs(gs)
    params_cache = {}
    fwd_err = 0.0
    for i in range(50):
        candidates = ops.AGGREGATION_OPS if i % 2 else None
        blocks = 1 + i % 4
        cfg = SearchConfig(num_blocks=blocks, hidden=4,
                           **({"aggregation_candidates": candidates}
                              if candidates else {}))
        arch = random_architecture(cfg, seed=1000 + i)
        key = (blocks, candidates)
        if key not in params_cache:
            dims = SupernetDims(d_in=3, out_dim=1, num_blocks=blocks,
                                hidden=4, d_edge=2)
            params_cache[key] = init_relaxed(dims, cfg.agg_candidates(), seed=7)
        params = params_cache[key]
        force_one_hot_alphas(params, arch)
        relaxed = supernet_forward(batch, params, mode="relaxed").data
        discrete = supernet_forward(batch, params, mode="discrete", arch=arch).data
        fwd_err = max(fwd_err, np.abs(relaxed - discrete).max())

    ok = sum_err < 1e-9 and shift_err < 1e-9 and peak > 0.99 and fwd_err < 1e-5
    announce(capsys, "criterion 2", ok,
             f"weights sum err {sum_err:.1e} (<1e-9), shift err {shift_err:.1e} "
             f"(<1e-9), peak at lambda=0.05 {peak:.4f} (>0.99), one-hot vs "
             f"discrete forward err {fwd_err:.1e} over 50 encodings (<1e-5)")


def test_3_permutation_invariance(capsys):
    rng = np.random.default_rng(303)
    arch_by_readout = {
        name: ArchEncoding(num_blocks=1, selection=((1,),), fusion=("SUM",),
                           aggregation=("GIN",), readout=name)
        for name in ops.READOUT_OPS}
    dims = SupernetDims(d_in=3, out_dim=2, num_blocks=1, hidden=8)
    params = {name: init_discrete(dims, arch, seed=5)
              for name, arch in arch_by_readout.items()}

    worst = 0.0
    for _ in range(100):
        g = random_graph(rng)
        pg = permute_graph(g, rng)
        for name, arch in arch_by_readout.items():
            base = supernet_forward(batch_graphs([g]), params[name],
                                    mode="discrete", arch=arch).data
            perm = supernet_forward(batch_graphs([pg]), params[name],
                                    mode="discrete", arch=arch).data
            worst = max(worst, np.abs(base - perm).max())
    ok = worst < 1e-9
    announce(capsys, "criterion 3", ok,
             f"graph logits under node permutation: max deviation {worst:.2e} "
             f"over 100 graphs x {len(ops.READOUT_OPS)} readouts (<1e-9)")


def test_4_metric_oracles(capsys):
    def auc_oracle(scores, labels):
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
                   for p, n in itertools.product(pos, neg))
        return wins / (len(pos) * len(neg))

    def ap_oracle(scores, labels):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        hits, precisions = 0, []
        for rank, i in enumerate(order, start=1):
            if labels[i] == 1:
                hits += 1
                precisions.append(hits / rank)
        return np.mean(precisions)

    rng = np.random.default_rng(404)
    auc_exact = ap_exact = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 4, size=n) / 4.0  # ties guaranteed
        auc_exact += roc_auc(scores, labels) == auc_oracle(scores, labels)
        ap_exact += average_precision(scores, labels)[0] == \
            ap_oracle(scores.tolist(), labels.tolist())
    example = roc_auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])

    ok = auc_exact == 100 and ap_exact == 100 and example == 0.75
    announce(capsys, "criterion 4", ok,
             f"roc_auc exact on {auc_exact}/100 instances, average_precision "
             f"exact on {ap_exact}/100, worked example = {example} (want 0.75)")


def _search_beats_random(fixed_aggregation=None):
    dataset = generate_synthetic(SyntheticSpec(task="triangle-threshold"), seed=0)
    hp = HParams(learning_rate=0.05, batch_size=32, hidden_size=32,
                 epochs=25, seed=123, metric="accuracy")

    searched_archs = []
    searched = []
    for seed in range(5):
        cfg = SearchConfig(num_blocks=4, hidden=32, epochs=10, batch_size=32,
                           lr_weights=0.05, lr_alpha=0.1,
                           lambda_start=1.0, lambda_end=0.1,
                           fixed_aggregation=fixed_aggregation,
                           metric="accuracy", seed=seed)
        arch, _ = search(dataset, cfg)
        searched_archs.append(arch)
        _, reports, _ = train_discrete(dataset, arch, hp)
        searched.append(reports["valid"].value)

    rand_cfg = SearchConfig(num_blocks=4, hidden=32,
                            fixed_aggregation=fixed_aggregation,
                            metric="accuracy")
    randoms = []
    for i in range(20):
        arch = random_architecture(rand_cfg, seed=i)
        _, reports, _ = train_discrete(dataset, arch, hp)
        randoms.append(reports["valid"].value)
    return float(np.mean(searched)), float(np.mean(randoms)), searched_archs


@pytest.mark.slow
def test_5_search_beats_random(capsys):
    start = time.monotonic()
    searched_mean, random_mean, _ = _search_beats_random()
    elapsed = time.monotonic() - start
    margin = searched_mean - random_mean
    ok = margin >= 0.02 and elapsed < 600.0
    announce(capsys, "criterion 5", ok,
             f"searched mean accuracy {searched_mean:.4f} vs random "
             f"{random_mean:.4f} (margin {margin:+.4f}, need >= +0.02) "
             f"in {elapsed:.0f}s (budget 600s)")


@pytest.mark.slow
def test_6_fixed_aggregation_search(capsys):
    start = time.monotonic()
    searched_mean, random_mean, archs = _search_beats_random(
        fixed_aggregation="EXPC")
    elapsed = time.monotonic() - start
    margin = searched_mean - random_mean
    all_expc = all(a == "EXPC" for arch in archs for a in arch.aggregation)
    ok = margin >= 0.02 and all_expc
    announce(capsys, "criterion 6", ok,
             f"EXPC-only search mean {searched_mean:.4f} vs random "
             f"{random_mean:.4f} (margin {margin:+.4f}, need >= +0.02), "
             f"all emitted blocks EXPC: {all_expc}, in {elapsed:.0f}s")


def test_7_cli_determinism(capsys, tmp_path):
    def run_twice(argv_fn, outputs):
        dirs = [tmp_path / f"{outputs[0]}_run{i}" for i in (1, 2)]
        for d in dirs:
            code = main(argv_fn(str(d)))
            assert code == 0, f"command failed: {argv_fn(str(d))}"
        return all((dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
                   for name in outputs[1])

    data = tmp_path / "data"
    assert main(["synth-data", "--num-graphs", "40", "--out", str(data)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "dataset": {"path": str(data / "dataset.jsonl"),
                    "task": {"type": "binary"},
                    "splits_path": str(data / "splits.json")},
        "search": {"num_blocks": 2, "hidden": 4, "epochs": 2, "batch_size": 16,
                   "lambda_start": 1.0, "lambda_end": 0.5},
        "train": {"learning_rate": 0.05, "batch_size": 16, "hidden_size": 8,
                  "epochs": 2, "metric": "accuracy"},
    }), encoding="utf-8")

    results = {}
    results["synth-data"] = run_twice(
        lambda out: ["synth-data", "--num-graphs", "40", "--out", out],
        ("synth", ["dataset.jsonl", "splits.json"]))
    results["search"] = run_twice(
        lambda out: ["search", "--config", str(config), "--out", out],
        ("search", ["arch.json", "history.jsonl"]))

    search_dir = tmp_path / "search_run1"
    results["derive"] = run_twice(
        lambda out: ["derive", "--history", str(search_dir / "history.jsonl"),
                     "--out", out],
        ("derive", ["arch.json"]))

    derive_dir = tmp_path / "derive_run1"
    results["train"] = run_twice(
        lambda out: ["train", "--config", str(config),
                     "--arch", str(derive_dir / "arch.json"), "--out", out],
        ("train", ["report.json", "model.bin", "model.manifest.json"]))

    train_dir = tmp_path / "train_run1"
    results["eval"] = run_twice(
        lambda out: ["eval", "--config", str(config),
                     "--model-dir", str(train_dir), "--out", out],
        ("eval", ["report.json"]))
    results["gradcheck"] = run_twice(
        lambda out: ["gradcheck", "--out", out],
        ("gradcheck", ["report.json"]))

    bad = sorted(cmd for cmd, same in results.items() if not same)
    ok = not bad
    announce(capsys, "criterion 7", ok,
             f"byte-identical reruns for {len(results) - len(bad)}/{len(results)} "
             f"commands ({', '.join(sorted(results))})"
             + (f"; differing: {bad}" if bad else ""))
