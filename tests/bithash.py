"""Print SHA-256 digests of the logits and every leaf gradient of a set of
models on each benchmark workload's fixed batch, one line per array, of
the two files ``save_model`` writes for each discrete model, and, last, of
the two files ``write_dataset`` writes for each workload's dataset.

Two checkouts that print the same lines compute the same bits.
``tests/test_bithash.py`` compares the output with ``tests/bithash.ref``;
a change that moves bits on purpose regenerates that file with::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python3 tests/bithash.py > tests/bithash.ref

The batch is the first 32 train graphs of the workload at seed 0, as the
benchmark builds it (``sfabench/workloads.py``, read only). The models
are the relaxed supernet with the default 6 aggregations and with all 8,
the benchmark's fixed architecture and 5 random discrete architectures,
each at dropout 0 and 0.1; the relaxed ones get random logits. The
digests depend on the numpy build and the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "sfabench"))

import workloads  # noqa: E402
from sfanas import autodiff as ad, graphs, ops  # noqa: E402
from sfanas.search import SearchConfig, random_architecture  # noqa: E402
from sfanas.supernet import (DEFAULT_AGG_CANDIDATES, SupernetDims, init_discrete,  # noqa: E402
                             init_relaxed, supernet_forward)
from sfanas.training import output_dim, save_model, task_loss  # noqa: E402

SEED = 0
RANDOM_ARCHS = 5


def _digest(arr: np.ndarray | None) -> str:
    return "none" if arr is None else hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _dataset(w: workloads.Workload, directory: Path) -> graphs.Dataset:
    if w.name == "triangle-small":
        return workloads.make_triangle_small(w, SEED)
    data_path, splits_path = workloads.write_large(w, SEED, directory)
    return graphs.load_dataset(data_path, workloads.LARGE_SCHEMA, splits_path)


def _models(w: workloads.Workload):
    """(label, params builder, forward mode, arch) for every model."""
    config = SearchConfig(num_blocks=w.num_blocks, hidden=w.hidden,
                          aggregation_candidates=ops.AGGREGATION_OPS)
    yield "relaxed6", lambda dims: init_relaxed(dims, DEFAULT_AGG_CANDIDATES, SEED), None
    yield "relaxed8", lambda dims: init_relaxed(dims, ops.AGGREGATION_OPS, SEED), None
    archs = [("fixed", workloads.FIXED_ARCH)] + [
        (f"random{k}", random_architecture(config, k)) for k in range(RANDOM_ARCHS)]
    for label, arch in archs:
        yield label, lambda dims, arch=arch: init_discrete(dims, arch, SEED), arch


def workload_lines(name: str):
    w = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        ds = _dataset(w, Path(tmp))
    batch = graphs.batch_graphs(ds.split_graphs("train")[:w.batch_size])
    dims = SupernetDims(d_in=ds.num_node_features, out_dim=output_dim(ds.schema),
                        num_blocks=w.num_blocks, hidden=w.hidden, d_edge=ds.num_edge_features)
    for label, build, arch in _models(w):
        for rate in (0.0, 0.1):
            params = build(dims)
            rng = np.random.default_rng([SEED, 0xB17])
            for t in params.alphas.values():
                t.data[:] = rng.normal(size=t.data.shape)
            logits = supernet_forward(batch, params, mode="relaxed" if arch is None else "discrete",
                                      arch=arch, training=True, dropout_rate=rate, rng=rng)
            ad.backward(task_loss(ds.schema, logits, batch.labels))
            prefix = f"{name} {label} dropout={rate}"
            yield f"{prefix} logits {_digest(logits.data)}"
            leaves = {**params.weights, **{f"alpha/{k}": t for k, t in params.alphas.items()}}
            for key, t in leaves.items():
                yield f"{prefix} grad {key} {_digest(t.grad)}"
        if arch is not None:
            yield from _file_lines(f"{name} {label}", lambda *paths: save_model(
                params, arch, *paths), "model.bin", "model.manifest.json")


def data_file_lines(name: str):
    w = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        ds = _dataset(w, Path(tmp))
    yield from _file_lines(f"{name} data", lambda *paths: graphs.write_dataset(ds, *paths),
                           "dataset.jsonl", "splits.json")


def _file_lines(prefix: str, write, *names):
    """``{prefix} file {name} {digest}`` for each of the files ``names``
    that ``write(*paths)`` writes into a new directory."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in names]
        write(*paths)
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
    for name, digest in zip(names, digests):
        yield f"{prefix} file {name} {digest}"


def main() -> None:
    for name in workloads.WORKLOADS:
        for line in workload_lines(name):
            print(line)
    # the data files come after every model's lines, which keep their places
    for name in workloads.WORKLOADS:
        for line in data_file_lines(name):
            print(line)


if __name__ == "__main__":
    main()
