"""Command-line entry point binding the modules into reproducible runs.

Commands: synth-data, search, derive, train, eval, gradcheck. All file
outputs are deterministic under a fixed seed (sorted JSON keys, no
timestamps), so repeated runs produce byte-identical artifacts. Each
config section is built by one helper that checks its fields' types.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import gradcheck as gradcheck_mod
from .graphs import (SyntheticSpec, TaskSchema, generate_synthetic, is_number, load_dataset,
                     write_dataset)
from .search import SearchConfig, best_record, search
from .supernet import ArchEncoding
from .training import (HParams, default_metric, evaluate_model, load_model,
                       save_model, train_discrete)

# Allowed hyper-parameter values per dataset preset, enforced by --strict-grid.
GRIDS = {
    "molhiv": {"learning_rate": [5e-3, 1e-2, 3e-2, 5e-2, 1e-1],
               "batch_size": [128, 256, 512],
               "hidden_size": [256, 512],
               "dropout": [0.1, 0.2, 0.3],
               "virtual_node": [True, False]},
    "molpcba": {"learning_rate": [5e-4, 1e-3, 3e-3, 5e-3, 1e-2],
                "batch_size": [256, 512, 1024],
                "hidden_size": [512, 1024],
                "dropout": [0.1, 0.2, 0.3],
                "virtual_node": [True, False]},
    "ppa": {"learning_rate": [5e-3, 1e-2, 3e-2, 5e-2, 1e-1],
            "batch_size": [128, 256, 512],
            "hidden_size": [256, 512],
            "dropout": [0.1, 0.2, 0.3],
            "virtual_node": [True, False]},
}

CONFIG_KEYS = ("schema_version", "dataset", "search", "train", "grid")
DATASET_KEYS = ("path", "task", "splits_path", "symmetrize", "synthetic")

GAMMA_MESSAGE = ("'gamma' belongs to the AUC-margin training objective, which is "
                 "out of scope for this package; remove it from the config")


class CliError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    if cfg.get("schema_version") != 1:
        raise CliError("config must declare \"schema_version\": 1")
    for name in ("search", "train"):
        if not isinstance(cfg.get(name, {}), dict):
            raise CliError(f"bad {name} section: not a JSON object")
    for section in (cfg, cfg.get("search", {}), cfg.get("train", {})):
        if "gamma" in section:
            raise CliError(GAMMA_MESSAGE)
    _check_keys("config", cfg, CONFIG_KEYS)
    return cfg


def _check_keys(where: str, section: dict, allowed: tuple) -> None:
    unknown = [key for key in section if key not in allowed]
    if unknown:
        raise CliError(f"unknown {where} key {unknown[0]!r}; expected one of {list(allowed)}")


# What each annotated field type accepts from JSON. Without these,
# "batch_size": true would run as 1 and "epochs": 1.5 fail deep inside.
_FIELD_CHECKS = {
    "int": lambda v: is_number(v) and isinstance(v, int),
    "float": is_number,
    "bool": lambda v: isinstance(v, bool),
}


def _build_section(cls, name: str, section, **overrides):
    """``cls`` built from a config section, with the command-line
    ``overrides`` that are not None on top; each int, float or bool
    field is checked against its annotation first."""
    try:
        values = {**section, **{k: v for k, v in overrides.items() if v is not None}}
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        for key, value in values.items():
            check = _FIELD_CHECKS.get(types.get(key))
            if check is not None and not check(value):
                raise TypeError(f"{key} must be {types[key]}, got {value!r}")
        return cls(**values)
    except TypeError as e:
        raise CliError(f"bad {name} section: {e}")


def _check_file(what: str, path) -> None:
    if not isinstance(path, str):
        raise CliError(f"{what} path must be a string, got {path!r}")
    if not Path(path).is_file():
        raise CliError(f"{what} file not found: {path}")


def _build_dataset(cfg: dict):
    section = cfg.get("dataset")
    if not isinstance(section, dict):
        raise CliError("config needs a \"dataset\" section")
    _check_keys("dataset", section, DATASET_KEYS)
    if "synthetic" in section:
        syn = section["synthetic"]
        if not isinstance(syn, dict):
            raise CliError("bad synthetic section: not a JSON object")
        seed = syn.get("seed", 0)
        if not _FIELD_CHECKS["int"](seed):
            raise CliError(f"bad synthetic section: seed must be int, got {seed!r}")
        spec = _build_section(SyntheticSpec, "synthetic",
                              {k: v for k, v in syn.items() if k != "seed"})
        return generate_synthetic(spec, seed=seed)
    path = section.get("path")
    if not path:
        raise CliError("dataset section needs \"path\" or \"synthetic\"")
    _check_file("dataset", path)
    task = section.get("task")
    if not isinstance(task, dict) or "type" not in task:
        raise CliError("dataset section needs \"task\": {\"type\": ...}")
    schema = _build_section(TaskSchema, "task",
                            {"task_type" if k == "type" else k: v for k, v in task.items()})
    splits_path = section.get("splits_path")
    if splits_path is not None:
        _check_file("splits", splits_path)
    symmetrize = section.get("symmetrize", True)
    if not _FIELD_CHECKS["bool"](symmetrize):
        raise CliError(f"bad dataset section: symmetrize must be bool, got {symmetrize!r}")
    return load_dataset(path, schema, splits_path=splits_path, symmetrize=symmetrize)


def _check_grid(cfg: dict, values: dict, strict: bool) -> None:
    if not strict:
        return
    name = cfg.get("grid")
    if not isinstance(name, str) or name not in GRIDS:
        raise CliError(f"--strict-grid needs config \"grid\" set to one of "
                       f"{sorted(GRIDS)}, got {name!r}")
    grid = GRIDS[name]
    for key, value in values.items():
        if key in grid and value not in grid[key]:
            raise CliError(f"{key}={value!r} is outside the {name} grid {grid[key]}")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_jsonl(path: Path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def _print_reports(reports: dict) -> None:
    print(f"{'split':<8}{'metric':<12}{'value':>10}")
    for split in ("train", "valid", "test"):
        if split in reports:
            r = reports[split]
            print(f"{split:<8}{r.metric:<12}{r.value:>10.4f}")


def _report_payload(reports: dict, metric: str, best_epoch: int) -> dict:
    return {"schema_version": 1, "metric": metric, "best_epoch": best_epoch,
            "splits": {split: r.to_dict() for split, r in reports.items()}}


# ---------------------------------------------------------------------------
# commands


def cmd_synth_data(args) -> int:
    spec = _build_section(SyntheticSpec, "synthetic", {}, task=args.task,
                          num_graphs=args.num_graphs, min_nodes=args.min_nodes,
                          max_nodes=args.max_nodes, edge_prob=args.edge_prob,
                          triangle_threshold=args.threshold)
    dataset = generate_synthetic(spec, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(dataset, out / "dataset.jsonl", out / "splits.json")
    n = len(dataset.graphs)
    mean_nodes = float(np.mean([g.num_nodes for g in dataset.graphs]))
    mean_edges = float(np.mean([g.edges.shape[0] / 2 for g in dataset.graphs]))
    pos = float(np.mean([g.label[0] for g in dataset.graphs])) \
        if dataset.schema.task_type == "binary" else float("nan")
    print(f"graphs: {n}")
    print(f"mean nodes per graph: {mean_nodes:.2f}")
    print(f"mean edges per graph: {mean_edges:.2f}")
    if not np.isnan(pos):
        print(f"positive rate: {pos:.3f}")
    print(f"splits: train={len(dataset.splits['train'])} "
          f"valid={len(dataset.splits['valid'])} test={len(dataset.splits['test'])}")
    print(f"wrote {out / 'dataset.jsonl'} and {out / 'splits.json'}")
    return 0


def cmd_search(args) -> int:
    cfg = _load_config(args.config)
    config = _build_section(SearchConfig, "search", cfg.get("search", {}),
                            num_blocks=args.blocks, fixed_aggregation=args.fixed_agg,
                            seed=args.seed)
    _check_grid(cfg, {"learning_rate": config.lr_weights,
                      "batch_size": config.batch_size,
                      "hidden_size": config.hidden,
                      "dropout": config.dropout}, args.strict_grid)
    dataset = _build_dataset(cfg)
    arch, history = search(dataset, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "arch.json").write_text(arch.to_json() + "\n", encoding="utf-8")
    _write_jsonl(out / "history.jsonl", history)
    best = best_record(history)
    print(f"searched {config.epochs} epochs over {config.num_blocks} blocks")
    print(f"best epoch {best['epoch']}: valid {best['metric']} = "
          f"{best['valid_metric']:.4f} (lambda {best['lambda']:.4g})")
    print(f"aggregation per block: {', '.join(arch.aggregation)}")
    print(f"fusion per block: {', '.join(arch.fusion)}; readout: {arch.readout}")
    print(f"wrote {out / 'arch.json'} and {out / 'history.jsonl'}")
    return 0


def _history_record(lineno: int, line: str) -> dict:
    """One search history record: an object with an int ``epoch``, a
    finite ``valid_metric`` and an ``arch``, which is decoded."""
    try:
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError("not a JSON object")
        for key in ("epoch", "valid_metric", "arch"):
            if key not in rec:
                raise ValueError(f"lacks {key!r}")
        if not _FIELD_CHECKS["int"](rec["epoch"]):
            raise ValueError(f"epoch must be int, got {rec['epoch']!r}")
        if not (is_number(rec["valid_metric"]) and np.isfinite(rec["valid_metric"])):
            raise ValueError(f"valid_metric must be a finite number, "
                             f"got {rec['valid_metric']!r}")
        rec["arch"] = ArchEncoding.from_dict(rec["arch"])
    except ValueError as e:  # JSONDecodeError is a ValueError
        raise CliError(f"history line {lineno}: {e}")
    return rec


def cmd_derive(args) -> int:
    try:
        lines = Path(args.history).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise CliError(f"history file not found: {args.history}")
    records = [_history_record(n, line) for n, line in enumerate(lines, 1) if line.strip()]
    if not records:
        raise CliError("history file is empty")
    if args.epoch is not None:
        matches = [r for r in records if r.get("epoch") == args.epoch]
        if not matches:
            raise CliError(f"no epoch {args.epoch} in {args.history}")
        chosen = matches[0]
    else:
        chosen = best_record(records)
    arch = chosen["arch"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "arch.json").write_text(arch.to_json() + "\n", encoding="utf-8")
    print(f"derived from epoch {chosen['epoch']} "
          f"(valid {chosen.get('metric', 'metric')} = {chosen['valid_metric']:.4f})")
    print(f"wrote {out / 'arch.json'}")
    return 0


def _load_arch(path: str) -> ArchEncoding:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"architecture file not found: {path}")
    try:
        return ArchEncoding.from_json(text)
    except ValueError as e:  # JSONDecodeError is a ValueError
        raise CliError(f"invalid architecture file {path}: {e}")


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    hp = _build_section(HParams, "train", cfg.get("train", {}), seed=args.seed)
    _check_grid(cfg, {"learning_rate": hp.learning_rate, "batch_size": hp.batch_size,
                      "hidden_size": hp.hidden_size, "dropout": hp.dropout,
                      "virtual_node": hp.virtual_node}, args.strict_grid)
    arch = _load_arch(args.arch)
    dataset = _build_dataset(cfg)
    params, reports, history = train_discrete(dataset, arch, hp)
    best_epoch = reports["valid"].epoch
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", _report_payload(reports, reports["valid"].metric,
                                                     best_epoch))
    save_model(params, arch, out / "model.bin", out / "model.manifest.json",
               extra={"best_epoch": best_epoch, "metric": reports["valid"].metric,
                      "virtual_node": hp.virtual_node})
    _print_reports(reports)
    print(f"best epoch: {best_epoch} of {hp.epochs}")
    print(f"wrote {out / 'report.json'}, {out / 'model.bin'}, "
          f"{out / 'model.manifest.json'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    model_dir = Path(args.model_dir)
    bin_path = model_dir / "model.bin"
    manifest_path = model_dir / "model.manifest.json"
    if not bin_path.exists() or not manifest_path.exists():
        raise CliError(f"{model_dir} must contain model.bin and model.manifest.json")
    params, arch, manifest = load_model(bin_path, manifest_path)
    if args.arch is not None:
        declared = _load_arch(args.arch)
        if declared != arch:
            raise CliError("architecture file does not match the one stored "
                           "in the model manifest")
    section = cfg.get("train", {})
    for key in ("metric", "virtual_node"):
        named, trained = section.get(key), manifest.get(key)
        if named is not None and trained is not None and named != trained:
            raise CliError(f"config train.{key} is {named!r} but the model was trained "
                           f"with {trained!r}")
    dataset = _build_dataset(cfg)
    metric = manifest.get("metric") or section.get("metric") or default_metric(dataset.schema)
    reports = evaluate_model(dataset, params, arch, metric=metric,
                             virtual_node=manifest.get("virtual_node",
                                                       section.get("virtual_node", False)),
                             epoch=manifest.get("best_epoch", -1))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", _report_payload(
        reports, metric, manifest.get("best_epoch", -1)))
    _print_reports(reports)
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run_all()
    failed = 0
    for name, err in results:
        ok = err < gradcheck_mod.THRESHOLD
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<32} max_error={err:.3e}")
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"(threshold {gradcheck_mod.THRESHOLD:g})")
    if args.out is not None:
        _write_json(Path(args.out) / "report.json", {
            "schema_version": 1,
            "threshold": gradcheck_mod.THRESHOLD,
            "checks": [{"name": n, "max_error": e, "pass": e < gradcheck_mod.THRESHOLD}
                       for n, e in results],
        })
        print(f"wrote {Path(args.out) / 'report.json'}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfanas",
        description="Differentiable search over selection-fusion-aggregation "
                    "graph network architectures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    p.add_argument("--task", default="triangle-threshold",
                   choices=("triangle-threshold", "degree-parity"))
    # the generator's own defaults (SyntheticSpec) fill the flags left out
    p.add_argument("--num-graphs", type=int)
    p.add_argument("--min-nodes", type=int)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--edge-prob", type=float)
    p.add_argument("--threshold", type=int,
                   help="triangle count at which the label turns positive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("search", help="run the differentiable architecture search")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--blocks", type=int, default=None,
                   help="override the number of blocks")
    p.add_argument("--fixed-agg", default=None,
                   help="pin every aggregation site to this op")
    p.add_argument("--strict-grid", action="store_true")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("derive", help="extract an architecture from a search history")
    p.add_argument("--history", required=True)
    p.add_argument("--epoch", type=int, default=None,
                   help="take this epoch instead of the best-valid one")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("train", help="train a derived architecture from scratch")
    p.add_argument("--config", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--strict-grid", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on every split")
    p.add_argument("--config", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--arch", default=None,
                   help="optional architecture file to cross-check")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every operator")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as e:  # ValidationError and ParseError are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
