"""Command-line entry point binding the modules into reproducible runs.

Commands: synth-data, search, derive, train, eval, gradcheck. All file
outputs are deterministic under a fixed seed (sorted JSON keys, no
timestamps), so repeated runs produce byte-identical artifacts. Every file
a command reads or writes goes through the helpers of ``graphs``: the
dataset and the search history share one line reader (``read_json_lines``),
every JSON file read is checked against a field table, and every writer
turns an OS error, such as an ``--out`` under a regular file, into a
ValueError naming the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import gradcheck as gradcheck_mod
from .graphs import (SyntheticSpec, TaskSchema, fields, generate_synthetic, load_dataset,
                     located, read_json, read_json_lines, write_dataset, write_json,
                     write_json_lines)
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

# "gamma" is known only to be refused with GAMMA_MESSAGE
CONFIG = {"schema_version": "int", "dataset": "object", "search": "object", "train": "object",
          "grid": "str", "gamma": "float"}
DATASET = {"path": "str", "task": "object", "splits_path": "str", "symmetrize": "bool",
           "synthetic": "object"}
# every key search writes per epoch; derive refuses a record without one
HISTORY = {"epoch": "int", "valid_metric": "float", "arch": "object", "train_loss": "float",
           "valid_loss": "float", "metric": "str", "lambda": "float"}

GAMMA_MESSAGE = ("'gamma' belongs to the AUC-margin training objective, which is "
                 "out of scope for this package; remove it from the config")


class CliError(Exception):
    pass


def _load_config(path: str) -> dict:
    cfg = fields(read_json(path, "config"), CONFIG, f"config {path}",
                 optional=("search", "train", "grid", "gamma"))
    for section in (cfg, cfg.get("search", {}), cfg.get("train", {})):
        if "gamma" in section:
            raise CliError(GAMMA_MESSAGE)
    if cfg["schema_version"] != 1:
        raise CliError(f"config {path}: schema_version must be 1, got {cfg['schema_version']}")
    return cfg


def _build_section(cls, name: str, section, **overrides):
    """``cls`` built from a config section, with the command-line
    ``overrides`` that are not None on top; the section's table comes from
    the fields of ``cls`` and their annotations (a tuple is a JSON list).
    A bad key or a bad value raises a ValueError naming the section."""
    if isinstance(section, dict):
        section = {**section, **{k: v for k, v in overrides.items() if v is not None}}
    table = {f.name: "list" if f.type == "tuple" else f.type for f in dataclasses.fields(cls)}
    optional = [f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
    where = f"bad {name} section"
    section = fields(section, table, where, optional)
    with located(where):
        return cls(**section)


def _build_dataset(cfg: dict):
    section = fields(cfg["dataset"], DATASET, "bad dataset section", optional=DATASET)
    if "synthetic" in section:
        syn = dict(section["synthetic"])
        seed = syn.pop("seed", 0)
        fields({"seed": seed}, {"seed": "int"}, "bad synthetic section")
        return generate_synthetic(_build_section(SyntheticSpec, "synthetic", syn), seed=seed)
    path = section.get("path")
    if not path:
        raise CliError("dataset section needs \"path\" or \"synthetic\"")
    task = section.get("task", {})
    if "type" not in task:
        raise CliError("dataset section needs \"task\": {\"type\": ...}")
    schema = _build_section(TaskSchema, "task",
                            {"task_type" if k == "type" else k: v for k, v in task.items()})
    return load_dataset(path, schema, splits_path=section.get("splits_path"),
                        symmetrize=section.get("symmetrize", True))


def _check_grid(cfg: dict, values: dict, strict: bool) -> None:
    if not strict:
        return
    name = cfg.get("grid")
    if name not in GRIDS:
        raise CliError(f"--strict-grid needs config \"grid\" set to one of "
                       f"{sorted(GRIDS)}, got {name!r}")
    grid = GRIDS[name]
    for key, value in values.items():
        if key in grid and value not in grid[key]:
            raise CliError(f"{key}={value!r} is outside the {name} grid {grid[key]}")


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
    write_dataset(dataset, out / "dataset.jsonl", out / "splits.json")
    n = len(dataset.graphs)
    mean_nodes = float(np.mean([g.num_nodes for g in dataset.graphs]))
    mean_edges = float(np.mean([g.edges.shape[0] / 2 for g in dataset.graphs]))
    pos = float(np.mean([g.label[0] for g in dataset.graphs]))  # the generator's are binary
    print(f"graphs: {n}")
    print(f"mean nodes per graph: {mean_nodes:.2f}")
    print(f"mean edges per graph: {mean_edges:.2f}")
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
    write_json(out / "arch.json", arch.to_dict())
    write_json_lines(out / "history.jsonl", history)
    best = best_record(history)
    print(f"searched {config.epochs} epochs over {config.num_blocks} blocks")
    print(f"best epoch {best['epoch']}: valid {best['metric']} = "
          f"{best['valid_metric']:.4f} (lambda {best['lambda']:.4g})")
    print(f"aggregation per block: {', '.join(arch.aggregation)}")
    print(f"fusion per block: {', '.join(arch.fusion)}; readout: {arch.readout}")
    print(f"wrote {out / 'arch.json'} and {out / 'history.jsonl'}")
    return 0


def _history_record(lineno: int, value) -> dict:
    """One decoded search history record, checked, its ``arch`` decoded."""
    where = f"history line {lineno}"
    rec = fields(value, HISTORY, where)
    rec["arch"] = ArchEncoding.from_dict(rec["arch"], f"{where}: arch")
    return rec


def cmd_derive(args) -> int:
    records = [_history_record(n, value)
               for n, _, value in read_json_lines(args.history, "history")]
    if not records:
        raise CliError("history file is empty")
    if args.epoch is not None:
        matches = [r for r in records if r["epoch"] == args.epoch]
        if not matches:
            raise CliError(f"no epoch {args.epoch} in {args.history}")
        chosen = matches[0]
    else:
        chosen = best_record(records)
    arch = chosen["arch"]
    out = Path(args.out)
    write_json(out / "arch.json", arch.to_dict())
    print(f"derived from epoch {chosen['epoch']} "
          f"(valid {chosen['metric']} = {chosen['valid_metric']:.4f})")
    print(f"wrote {out / 'arch.json'}")
    return 0


def _load_arch(path: str) -> ArchEncoding:
    return ArchEncoding.from_dict(read_json(path, "architecture"), f"architecture file {path}")


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
    write_json(out / "report.json", _report_payload(reports, reports["valid"].metric,
                                                    best_epoch), indent=2)
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
    section = cfg.get("train", {})
    _build_section(HParams, "train", section)  # checked as train checks it
    model_dir = Path(args.model_dir)
    params, arch, manifest = load_model(model_dir / "model.bin",
                                        model_dir / "model.manifest.json")
    if args.arch is not None:
        declared = _load_arch(args.arch)
        if declared != arch:
            raise CliError("architecture file does not match the one stored "
                           "in the model manifest")
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
    write_json(out / "report.json", _report_payload(
        reports, metric, manifest.get("best_epoch", -1)), indent=2)
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
        write_json(Path(args.out) / "report.json", {
            "schema_version": 1,
            "threshold": gradcheck_mod.THRESHOLD,
            "checks": [{"name": n, "max_error": e, "pass": e < gradcheck_mod.THRESHOLD}
                       for n, e in results],
        }, indent=2)
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
