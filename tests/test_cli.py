"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv); a module-scoped pipeline
fixture runs synth-data -> search -> derive -> train -> eval once and the
tests assert on its artifacts.
"""

import collections
import json
import shutil

import numpy as np
import pytest

from sfanas import cli, ops
from sfanas.cli import main
from sfanas.graphs import SyntheticSpec, TaskSchema, load_dataset, read_json_lines
from sfanas.search import SearchConfig
from sfanas.supernet import ArchEncoding
from sfanas.training import MANIFEST_OPTIONAL, load_model


def write_config(path, **overrides):
    cfg = {"schema_version": 1}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def synth_section(data_dir):
    return {"path": str(data_dir / "dataset.jsonl"),
            "task": {"type": "binary"},
            "splits_path": str(data_dir / "splits.json")}


SEARCH_SECTION = {"num_blocks": 2, "hidden": 4, "epochs": 2, "batch_size": 16,
                  "lambda_start": 1.0, "lambda_end": 0.5}
TRAIN_SECTION = {"learning_rate": 0.05, "batch_size": 16, "hidden_size": 8,
                 "epochs": 2, "metric": "accuracy"}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert main(["synth-data", "--num-graphs", "40", "--out", str(data)]) == 0

    config = write_config(root / "config.json", dataset=synth_section(data),
                          search=SEARCH_SECTION, train=TRAIN_SECTION)
    search_out = root / "search"
    assert main(["search", "--config", config, "--out", str(search_out)]) == 0

    derive_out = root / "derive"
    assert main(["derive", "--history", str(search_out / "history.jsonl"),
                 "--out", str(derive_out)]) == 0

    train_out = root / "train"
    assert main(["train", "--config", config,
                 "--arch", str(derive_out / "arch.json"),
                 "--out", str(train_out)]) == 0

    eval_out = root / "eval"
    assert main(["eval", "--config", config, "--model-dir", str(train_out),
                 "--out", str(eval_out)]) == 0
    return {"root": root, "data": data, "config": config,
            "search": search_out, "derive": derive_out,
            "train": train_out, "eval": eval_out}


# ---------------------------------------------------------------------------
# synth-data


class TestSynthData:
    def test_summary_matches_files(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth-data", "--num-graphs", "40", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        ds = load_dataset(out / "dataset.jsonl", TaskSchema("binary"),
                          splits_path=out / "splits.json")
        assert f"graphs: {len(ds.graphs)}" in lines
        pos = np.mean([g.label[0] for g in ds.graphs])
        assert f"positive rate: {pos:.3f}" in lines
        mean_nodes = np.mean([g.num_nodes for g in ds.graphs])
        assert f"mean nodes per graph: {mean_nodes:.2f}" in lines
        assert (f"splits: train={len(ds.splits['train'])} "
                f"valid={len(ds.splits['valid'])} "
                f"test={len(ds.splits['test'])}") in lines

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth-data", "--num-graphs", "25", "--out", str(out)]) == 0
        for name in ("dataset.jsonl", "splits.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_spec_rejected(self, tmp_path, capsys):
        assert main(["synth-data", "--num-graphs", "5",
                     "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_flags_left_out_take_the_spec_defaults(self, tmp_path, monkeypatch):
        specs = []

        def capture(spec, seed):
            specs.append(spec)
            raise cli.CliError("captured; nothing is generated")

        monkeypatch.setattr(cli, "generate_synthetic", capture)
        assert main(["synth-data", "--out", str(tmp_path)]) == 1
        assert main(["synth-data", "--task", "degree-parity", "--edge-prob", "0.5",
                     "--out", str(tmp_path)]) == 1
        assert specs == [SyntheticSpec(task="triangle-threshold"),
                         SyntheticSpec(task="degree-parity", edge_prob=0.5)]


# ---------------------------------------------------------------------------
# search


class TestSearch:
    def test_writes_arch_and_history(self, pipeline):
        arch = ArchEncoding.from_dict(
            json.loads((pipeline["search"] / "arch.json").read_text()))
        assert arch.num_blocks == 2
        records = [json.loads(line) for line in
                   (pipeline["search"] / "history.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1]
        assert all(r["metric"] == "auc" for r in records)

    def test_best_epoch_printed(self, pipeline, capsys):
        assert main(["search", "--config", pipeline["config"],
                     "--out", str(pipeline["root"] / "search2")]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in
                   (pipeline["search"] / "history.jsonl").read_text().splitlines()]
        best = max(records, key=lambda r: r["valid_metric"])
        assert f"best epoch {best['epoch']}" in out

    def test_byte_identical_reruns(self, pipeline):
        rerun = pipeline["root"] / "search_rerun"
        assert main(["search", "--config", pipeline["config"],
                     "--out", str(rerun)]) == 0
        for name in ("arch.json", "history.jsonl"):
            assert (rerun / name).read_bytes() == \
                (pipeline["search"] / name).read_bytes()

    def test_blocks_override(self, pipeline, tmp_path):
        assert main(["search", "--config", pipeline["config"], "--blocks", "1",
                     "--out", str(tmp_path)]) == 0
        arch = ArchEncoding.from_dict(json.loads((tmp_path / "arch.json").read_text()))
        assert arch.num_blocks == 1

    def test_fixed_agg_override(self, pipeline, tmp_path):
        assert main(["search", "--config", pipeline["config"],
                     "--fixed-agg", "EXPC", "--out", str(tmp_path)]) == 0
        arch = ArchEncoding.from_dict(json.loads((tmp_path / "arch.json").read_text()))
        assert arch.aggregation == ("EXPC", "EXPC")

    def test_unknown_fixed_agg(self, pipeline, tmp_path, capsys):
        assert main(["search", "--config", pipeline["config"],
                     "--fixed-agg", "SAGE", "--out", str(tmp_path)]) == 1
        assert "unknown fixed aggregation" in capsys.readouterr().err

    def test_missing_dataset_file(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json",
                              dataset={"path": str(tmp_path / "nope.jsonl"),
                                       "task": {"type": "binary"}},
                              search=SEARCH_SECTION)
        assert main(["search", "--config", config, "--out", str(tmp_path)]) == 1
        assert "dataset file not found" in capsys.readouterr().err

    def test_missing_schema_version(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dataset": {}}), encoding="utf-8")
        assert main(["search", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_search_key(self, pipeline, tmp_path, capsys):
        config = write_config(tmp_path / "c.json",
                              dataset=synth_section(pipeline["data"]),
                              search={"num_blks": 2})
        assert main(["search", "--config", config, "--out", str(tmp_path)]) == 1
        assert "bad search section" in capsys.readouterr().err

    def test_repeated_aggregation_candidate(self, pipeline, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", dataset=synth_section(pipeline["data"]),
                              search=dict(SEARCH_SECTION,
                                          aggregation_candidates=["GCN", "GCN", "GIN"]))
        assert main(["search", "--config", config, "--out", str(tmp_path)]) == 1
        assert ("error: bad search section: aggregation candidate 'GCN' is listed more "
                "than once") in capsys.readouterr().err

    def test_bad_label_names_the_dataset_line(self, pipeline, tmp_path, capsys):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), label=2))
        (tmp_path / "d.jsonl").write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path / "c.json", search=SEARCH_SECTION,
                              dataset={"path": str(tmp_path / "d.jsonl"),
                                       "task": {"type": "binary"}})
        assert main(["search", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: dataset line 1: binary label must be 0 or 1, got 2\n"

    @pytest.mark.parametrize("synthetic, message", [
        ({"task": "triangle-threshold", "num_graph": 20},
         "bad synthetic section: unknown key 'num_graph'"),
        (5, "bad dataset section: synthetic must be object, got 5"),
    ], ids=["unknown-key", "not-an-object"])
    def test_bad_synthetic_section(self, tmp_path, capsys, synthetic, message):
        config = write_config(tmp_path / "c.json", dataset={"synthetic": synthetic},
                              search=SEARCH_SECTION)
        assert main(["search", "--config", config, "--out", str(tmp_path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("section,field,value", [
        ("search", "epochs", 1.5),
        ("search", "batch_size", True),
        ("search", "dropout", False),
        ("train", "hidden_size", 8.0),
        ("train", "virtual_node", 1),
        ("synthetic", "num_graphs", 20.5),
        ("synthetic", "seed", True),
        ("search", "dropout", 1.5),  # a value the dataclass refuses
        ("train", "dropout", 1.5),
    ])
    def test_bad_field_type(self, pipeline, tmp_path, capsys, section, field, value):
        sections = {"search": dict(SEARCH_SECTION), "train": dict(TRAIN_SECTION),
                    "synthetic": {"task": "triangle-threshold", "num_graphs": 20}}
        sections[section][field] = value
        config = write_config(tmp_path / "c.json",
                              dataset={"synthetic": sections["synthetic"]},
                              search=sections["search"], train=sections["train"])
        command = "train" if section == "train" else "search"
        argv = [command, "--config", config, "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--arch", str(pipeline["derive"] / "arch.json")]
        assert main(argv) == 1
        assert f"error: bad {section} section: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("num_tasks", 1.9), ("num_tasks", "2"), ("num_classes", True), ("num_task", 2)])
    def test_bad_task_section(self, pipeline, tmp_path, capsys, field, value):
        dataset = synth_section(pipeline["data"])
        dataset["task"][field] = value
        config = write_config(tmp_path / "c.json", dataset=dataset, search=SEARCH_SECTION)
        assert main(["search", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: bad task section: " in err and field in err

    def test_float_field_takes_int_unchanged(self):
        config = cli._build_section(SearchConfig, "search", {"lr_weights": 1})
        assert type(config.lr_weights) is int and config.lr_weights == 1


# ---------------------------------------------------------------------------
# derive


class TestDerive:
    def history(self, pipeline):
        return [json.loads(line) for line in
                (pipeline["search"] / "history.jsonl").read_text().splitlines()]

    def test_picks_best_valid_epoch(self, pipeline):
        records = self.history(pipeline)
        best = max(records, key=lambda r: r["valid_metric"])
        arch = ArchEncoding.from_dict(
            json.loads((pipeline["derive"] / "arch.json").read_text()))
        assert arch == ArchEncoding.from_dict(best["arch"])

    def test_epoch_flag(self, pipeline, tmp_path):
        records = self.history(pipeline)
        assert main(["derive", "--history",
                     str(pipeline["search"] / "history.jsonl"),
                     "--epoch", "0", "--out", str(tmp_path)]) == 0
        arch = ArchEncoding.from_dict(json.loads((tmp_path / "arch.json").read_text()))
        assert arch == ArchEncoding.from_dict(records[0]["arch"])

    def test_epoch_out_of_range(self, pipeline, tmp_path, capsys):
        assert main(["derive", "--history",
                     str(pipeline["search"] / "history.jsonl"),
                     "--epoch", "99", "--out", str(tmp_path)]) == 1
        assert "no epoch 99" in capsys.readouterr().err

    def test_missing_history(self, tmp_path, capsys):
        assert main(["derive", "--history", str(tmp_path / "h.jsonl"),
                     "--out", str(tmp_path)]) == 1
        assert "history file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ('{"epoch": 0}', "lacks 'valid_metric'"),
        ('{"valid_metric": 0.5, "arch": {}}', "lacks 'epoch'"),
        ('[1]', "not a JSON object"),
        ('not json', "Expecting value"),
        ('{"epoch": "0", "valid_metric": 0.5, "arch": {}}', "epoch must be int"),
        ('{"epoch": 1, "valid_metric": "0.5", "arch": {}}',
         "valid_metric must be float, got '0.5'"),
        ('{"epoch": 1, "valid_metric": NaN, "arch": {}}', "valid_metric must be float, got nan"),
        ('{"epoch": 1, "valid_metric": 0.5, "arch": {"num_blocks": 1}, "train_loss": 0.5, '
         '"valid_loss": 0.5, "metric": "auc", "lambda": 1.0}', "arch: lacks 'blocks'"),
        ('{"epoch": 1, "valid_metric": 0.5, "arch": 5}', "arch must be object, got 5"),
    ], ids=["no-valid-metric", "no-epoch", "list", "not-json", "string-epoch",
            "string-metric", "nan-metric", "arch-without-blocks", "arch-number"])
    def test_malformed_history(self, pipeline, tmp_path, line, message, capsys):
        good = (pipeline["search"] / "history.jsonl").read_text().splitlines()[0]
        path = tmp_path / "h.jsonl"
        path.write_text(f"{good}\n\n{line}\n")  # the blank line still counts
        assert main(["derive", "--history", str(path), "--out", str(tmp_path)]) == 1
        assert f"error: history line 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("sep", ["\u2028", "\x85"], ids=["U+2028", "U+0085"])
    def test_line_separator_inside_a_string(self, pipeline, tmp_path, sep):
        """A raw U+2028 or U+0085 in a record's string ends no line, as in
        the dataset."""
        rec = json.loads((pipeline["search"] / "history.jsonl").read_text().splitlines()[0])
        rec["metric"] = f"a{sep}b"
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
        assert sep in path.read_text(encoding="utf-8")
        assert main(["derive", "--history", str(path), "--out", str(tmp_path / "d")]) == 0
        assert json.loads((tmp_path / "d" / "arch.json").read_text()) == rec["arch"]

    def test_empty_history(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        path.write_text("\n")
        assert main(["derive", "--history", str(path),
                     "--out", str(tmp_path)]) == 1
        assert "history file is empty" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train and eval


class TestTrainEval:
    def test_train_outputs(self, pipeline):
        report = json.loads((pipeline["train"] / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["metric"] == "accuracy"
        assert set(report["splits"]) == {"train", "valid", "test"}
        manifest = json.loads(
            (pipeline["train"] / "model.manifest.json").read_text())
        assert manifest["best_epoch"] == report["best_epoch"]
        blob = (pipeline["train"] / "model.bin").read_bytes()
        total = sum(int(np.prod(t["shape"])) for t in manifest["tensors"])
        assert len(blob) == 8 * total

    def test_eval_reproduces_training_metrics(self, pipeline):
        train_report = json.loads((pipeline["train"] / "report.json").read_text())
        eval_report = json.loads((pipeline["eval"] / "report.json").read_text())
        for split in ("valid", "test"):
            assert eval_report["splits"][split]["value"] == \
                train_report["splits"][split]["value"]

    def test_train_byte_identical_reruns(self, pipeline):
        rerun = pipeline["root"] / "train_rerun"
        assert main(["train", "--config", pipeline["config"],
                     "--arch", str(pipeline["derive"] / "arch.json"),
                     "--out", str(rerun)]) == 0
        for name in ("report.json", "model.bin", "model.manifest.json"):
            assert (rerun / name).read_bytes() == \
                (pipeline["train"] / name).read_bytes()

    def test_eval_arch_cross_check(self, pipeline, tmp_path, capsys):
        assert main(["eval", "--config", pipeline["config"],
                     "--model-dir", str(pipeline["train"]),
                     "--arch", str(pipeline["derive"] / "arch.json"),
                     "--out", str(tmp_path)]) == 0
        other = ArchEncoding(num_blocks=1, selection=((1,),), fusion=("MAX",),
                             aggregation=("GCN",), readout="GLOBAL_SUM")
        wrong = tmp_path / "other.json"
        wrong.write_text(json.dumps(other.to_dict()) + "\n")
        assert main(["eval", "--config", pipeline["config"],
                     "--model-dir", str(pipeline["train"]),
                     "--arch", str(wrong), "--out", str(tmp_path)]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_eval_uses_the_trained_settings(self, pipeline, tmp_path, capsys):
        section = dict(TRAIN_SECTION, virtual_node=True)
        dataset = synth_section(pipeline["data"])
        model = tmp_path / "model"
        assert main(["train", "--config", write_config(tmp_path / "vn.json", dataset=dataset,
                                                       train=section),
                     "--arch", str(pipeline["derive"] / "arch.json"),
                     "--out", str(model)]) == 0
        manifest = json.loads((model / "model.manifest.json").read_text())
        assert (manifest["metric"], manifest["virtual_node"]) == ("accuracy", True)
        # a config that names neither setting scores the model as it was trained
        assert main(["eval", "--config", write_config(tmp_path / "bare.json", dataset=dataset),
                     "--model-dir", str(model), "--out", str(tmp_path / "eval")]) == 0
        train_report = json.loads((model / "report.json").read_text())
        eval_report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert eval_report["splits"] == train_report["splits"]
        # a config that names other settings is refused
        for key, value in (("virtual_node", False), ("metric", "auc")):
            other = write_config(tmp_path / f"{key}.json", dataset=dataset,
                                 train=dict(section, **{key: value}))
            assert main(["eval", "--config", other, "--model-dir", str(model),
                         "--out", str(tmp_path / key)]) == 1
            assert f"config train.{key} is {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ({"hidden_size": 4, "epochs": 1, "virtaul_node": True},
         "bad train section: unknown key 'virtaul_node'"),
        ({"learning_rate": -1, "epochs": "x"}, "bad train section: epochs must be int, got 'x'"),
        ({"learning_rate": -1},
         "bad train section: learning_rate, batch_size, hidden_size must be positive"),
    ], ids=["misspelt-key", "wrong-kind", "bad-value"])
    def test_eval_checks_the_train_section_as_train_does(self, pipeline, tmp_path, section,
                                                         message, capsys):
        config = write_config(tmp_path / "c.json", dataset=synth_section(pipeline["data"]),
                              train=section)
        for command, flag, value in (("train", "--arch", pipeline["derive"] / "arch.json"),
                                     ("eval", "--model-dir", pipeline["train"])):
            assert main([command, "--config", config, flag, str(value),
                         "--out", str(tmp_path / command)]) == 1
            assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_eval_refuses_a_model_of_another_output_width(self, pipeline, tmp_path, capsys):
        # the binary model has one output; a 3-class copy of its dataset needs three
        dataset = dict(synth_section(pipeline["data"]),
                       task={"type": "multi-class", "num_classes": 3})
        assert main(["eval", "--config", write_config(tmp_path / "c.json", dataset=dataset),
                     "--model-dir", str(pipeline["train"]), "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == \
            "error: model gives 1 outputs, the dataset's multi-class task needs 3\n"
        assert not (tmp_path / "eval").exists()

    def test_eval_missing_model(self, pipeline, tmp_path, capsys):
        assert main(["eval", "--config", pipeline["config"],
                     "--model-dir", str(tmp_path), "--out", str(tmp_path)]) == 1
        assert "model.bin" in capsys.readouterr().err

    def test_eval_short_model_binary(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model"
        model.mkdir()
        blob = (pipeline["train"] / "model.bin").read_bytes()
        (model / "model.bin").write_bytes(blob[:100])
        (model / "model.manifest.json").write_bytes(
            (pipeline["train"] / "model.manifest.json").read_bytes())
        assert main(["eval", "--config", pipeline["config"],
                     "--model-dir", str(model), "--out", str(tmp_path)]) == 1
        assert f"error: model binary model.bin holds 100 bytes; the manifest's tensors " \
               f"take {len(blob)}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda m: [],
        lambda m: {"schema_version": 1},
        lambda m: dict(m, dims=[1, 2]),
        lambda m: dict(m, tensors=[{"shape": [1]}] + m["tensors"][1:]),
        lambda m: dict(m, arch={"num_blocks": 1}),
    ], ids=["list", "no-dims", "dims-list", "tensor-without-name", "arch-without-blocks"])
    def test_eval_malformed_manifest(self, pipeline, tmp_path, edit, capsys):
        model = tmp_path / "model"
        model.mkdir()
        (model / "model.bin").write_bytes((pipeline["train"] / "model.bin").read_bytes())
        manifest = json.loads((pipeline["train"] / "model.manifest.json").read_text())
        (model / "model.manifest.json").write_text(json.dumps(edit(manifest)))
        assert main(["eval", "--config", pipeline["config"],
                     "--model-dir", str(model), "--out", str(tmp_path)]) == 1
        assert "error: model manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("best_epoch", "x"), ("best_epoch", 1.5), ("best_epoch", True), ("best_epoch", -2),
        ("virtual_node", "yes"), ("virtual_node", 1), ("metric", 3),
        # the blob is read as "<f8" and the model built with the code's constants
        ("dtype", ">f8"), ("dtype", "<f4"), ("max_degree", 7), ("expansion", 9),
    ])
    def test_eval_checks_the_manifest_fields_it_trusts(self, pipeline, tmp_path, key, value,
                                                       capsys):
        model = tmp_path / "model"
        model.mkdir()
        (model / "model.bin").write_bytes((pipeline["train"] / "model.bin").read_bytes())
        manifest = json.loads((pipeline["train"] / "model.manifest.json").read_text())
        (model / "model.manifest.json").write_text(json.dumps(dict(manifest, **{key: value})))
        assert main(["eval", "--config", pipeline["config"],
                     "--model-dir", str(model), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: model manifest {model / 'model.manifest.json'}: {key} must be" in err
        assert f"got {value!r}" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("hidden", 0, "hidden must be >= 1, got 0"),
        ("out_dim", -1, "out_dim must be >= 1, got -1"),
        ("num_blocks", 0, "num_blocks must be >= 1, got 0"),
        ("d_in", -1, "d_in must be >= 0, got -1"),
        ("d_edge", None, "lacks 'd_edge'"),
    ])
    def test_eval_checks_the_manifest_dims(self, pipeline, tmp_path, key, value, message,
                                           capsys):
        model = tmp_path / "model"
        model.mkdir()
        (model / "model.bin").write_bytes((pipeline["train"] / "model.bin").read_bytes())
        manifest = json.loads((pipeline["train"] / "model.manifest.json").read_text())
        manifest["dims"][key] = value
        if value is None:
            del manifest["dims"][key]
        (model / "model.manifest.json").write_text(json.dumps(manifest))
        assert main(["eval", "--config", pipeline["config"],
                     "--model-dir", str(model), "--out", str(tmp_path / "out")]) == 1
        assert f"error: model manifest {model / 'model.manifest.json'}: dims: {message}" \
            in capsys.readouterr().err

    def test_metric_must_fit_task(self, tmp_path, capsys):
        # multi-class data with an auc request has no defined positive class
        records = []
        rng = np.random.default_rng(0)
        for i in range(12):
            records.append({"num_nodes": 3,
                            "node_feat": rng.normal(size=(3, 2)).tolist(),
                            "edges": [[0, 1], [1, 2]],
                            "label": int(i % 3)})
        data = tmp_path / "mc.jsonl"
        data.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        config = write_config(
            tmp_path / "c.json",
            dataset={"path": str(data),
                     "task": {"type": "multi-class", "num_classes": 3}},
            train=dict(TRAIN_SECTION, metric="auc"))
        arch = ArchEncoding(num_blocks=1, selection=((1,),), fusion=("SUM",),
                            aggregation=("GIN",), readout="GLOBAL_MEAN")
        arch_path = tmp_path / "arch.json"
        arch_path.write_text(json.dumps(arch.to_dict()) + "\n")
        assert main(["train", "--config", config, "--arch", str(arch_path),
                     "--out", str(tmp_path)]) == 1
        assert "does not apply to a multi-class" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gamma rejection and grid enforcement


class TestConfigPolicy:
    @pytest.mark.parametrize("place", ["top", "search", "train"])
    def test_gamma_rejected_everywhere(self, pipeline, tmp_path, place, capsys):
        extras = {"dataset": synth_section(pipeline["data"]),
                  "search": dict(SEARCH_SECTION), "train": dict(TRAIN_SECTION)}
        if place == "top":
            extras["gamma"] = 0.1
        else:
            extras[place]["gamma"] = 0.1
        config = write_config(tmp_path / "c.json", **extras)
        assert main(["search", "--config", config, "--out", str(tmp_path)]) == 1
        assert "AUC-margin" in capsys.readouterr().err

    @pytest.mark.parametrize("where, key", [("config", "serach"), ("dataset", "splitspath")])
    def test_unknown_key_rejected(self, pipeline, tmp_path, where, key, capsys):
        dataset = synth_section(pipeline["data"])
        extras = {"dataset": dataset, "search": SEARCH_SECTION}
        if where == "config":
            extras[key] = {"epochs": 99}
        else:
            dataset[key] = dataset.pop("splits_path")
        config = write_config(tmp_path / "c.json", **extras)
        assert main(["search", "--config", config, "--out", str(tmp_path)]) == 1
        section = f"config {config}" if where == "config" else "bad dataset section"
        assert f"error: {section}: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_symmetrize_must_be_bool(self, pipeline, tmp_path, value, capsys):
        dataset = dict(synth_section(pipeline["data"]), symmetrize=value)
        config = write_config(tmp_path / "c.json", dataset=dataset, search=SEARCH_SECTION)
        assert main(["search", "--config", config, "--out", str(tmp_path)]) == 1
        assert "error: bad dataset section: symmetrize must be bool" in capsys.readouterr().err

    def test_strict_grid_needs_grid_name(self, pipeline, tmp_path, capsys):
        assert main(["train", "--config", pipeline["config"],
                     "--arch", str(pipeline["derive"] / "arch.json"),
                     "--out", str(tmp_path), "--strict-grid"]) == 1
        assert "--strict-grid needs config \"grid\"" in capsys.readouterr().err

    def test_strict_grid_rejects_off_grid_value(self, pipeline, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", grid="molhiv",
                              dataset=synth_section(pipeline["data"]),
                              train=dict(TRAIN_SECTION, learning_rate=0.02))
        assert main(["train", "--config", config,
                     "--arch", str(pipeline["derive"] / "arch.json"),
                     "--out", str(tmp_path), "--strict-grid"]) == 1
        assert "outside the molhiv grid" in capsys.readouterr().err

    def test_strict_grid_accepts_on_grid_values(self, pipeline, tmp_path):
        on_grid = {"learning_rate": 0.05, "batch_size": 128, "hidden_size": 256,
                   "dropout": 0.1, "virtual_node": False, "epochs": 1,
                   "metric": "accuracy"}
        config = write_config(tmp_path / "c.json", grid="molhiv",
                              dataset=synth_section(pipeline["data"]),
                              train=on_grid)
        assert main(["train", "--config", config,
                     "--arch", str(pipeline["derive"] / "arch.json"),
                     "--out", str(tmp_path), "--strict-grid"]) == 0

    def test_grid_tables_cover_expected_presets(self):
        assert set(cli.GRIDS) == {"molhiv", "molpcba", "ppa"}
        for grid in cli.GRIDS.values():
            assert set(grid) == {"learning_rate", "batch_size", "hidden_size",
                                 "dropout", "virtual_node"}


# ---------------------------------------------------------------------------
# config fuzzing


def _slots(d: dict) -> list:
    """(dict, key) for every key of ``d`` and of the dicts nested in it."""
    out = []
    for k, v in d.items():
        out.append((d, k))
        if isinstance(v, dict):
            out += _slots(v)
    return out


class TestConfigFuzz:
    @pytest.mark.parametrize("key, value", [
        ("path", 5), ("path", ["a"]), ("path", "DIR"), ("splits_path", 5),
        ("splits_path", ["a"]), ("splits_path", "DIR"), ("splits_path", "")])
    def test_dataset_paths_must_name_files(self, pipeline, tmp_path, key, value, capsys):
        dataset = dict(synth_section(pipeline["data"]), **{key: value})
        if value == "DIR":
            dataset[key] = str(tmp_path)
        config = write_config(tmp_path / "c.json", dataset=dataset, search=SEARCH_SECTION)
        assert main(["search", "--config", config, "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mutated_configs_exit_0_or_1(self, pipeline, tmp_path):
        """Seeded mutations of a small valid config, run through every
        config-reading command: each exits 0 or 1 and none raises."""
        rng = np.random.default_rng(1301)
        values = [0, 1, 2, -1, 0.5, 1.5, "", "x", "GIN", [], ["a"], [1, 2], {}, {"a": 1},
                  None, True, False, str(tmp_path), str(tmp_path / "missing.json")]
        base = {"schema_version": 1, "dataset": synth_section(pipeline["data"]),
                "search": {"num_blocks": 1, "hidden": 2, "epochs": 1, "batch_size": 64},
                "train": {"hidden_size": 2, "epochs": 1, "batch_size": 64,
                          "metric": "accuracy"}}
        commands = {"search": [],
                    "train": ["--arch", str(pipeline["derive"] / "arch.json")],
                    "eval": ["--model-dir", str(pipeline["train"])]}
        for trial in range(60):
            cfg = json.loads(json.dumps(base))
            for _ in range(int(rng.integers(1, 3))):
                slots = _slots(cfg)
                d, k = slots[rng.integers(len(slots))]
                action = rng.integers(3)
                if action == 0:
                    del d[k]
                elif action == 1:
                    d[k] = values[rng.integers(len(values))]
                else:
                    d["grid" if rng.integers(2) else "extra"] = \
                        values[rng.integers(len(values))]
            path = tmp_path / f"c{trial}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            for name, extra in commands.items():
                argv = [name, "--config", str(path), "--out", str(tmp_path / "out"), *extra]
                if name != "eval" and rng.integers(4) == 0:
                    argv.append("--strict-grid")
                try:
                    code = main(argv)
                except Exception as exc:
                    pytest.fail(f"{argv} on {cfg} raised {exc!r}")
                assert code in (0, 1), (argv, cfg)


# ---------------------------------------------------------------------------
# the other files the commands read: named errors and fuzzing


def _reader(pipeline, tmp_path):
    """For each file kind, (path, argv): a command that reads a copy of the
    pipeline's file of that kind at ``path``. The train section runs no
    epoch, so ``train`` stops soon after reading its architecture."""
    data, model = tmp_path / "data", tmp_path / "model"
    shutil.copytree(pipeline["data"], data)
    shutil.copytree(pipeline["train"], model)
    config = write_config(tmp_path / "c.json", dataset=synth_section(data),
                          train={"hidden_size": 8, "epochs": 0, "metric": "accuracy"})
    shutil.copy(pipeline["derive"] / "arch.json", tmp_path / "arch.json")
    shutil.copy(pipeline["search"] / "history.jsonl", tmp_path / "history.jsonl")
    out = ["--out", str(tmp_path / "out")]
    evaluate = ["eval", "--config", config, "--model-dir", str(model), *out]
    return {"config": (tmp_path / "c.json", evaluate),
            "dataset": (data / "dataset.jsonl", evaluate),
            "splits": (data / "splits.json", evaluate),
            "manifest": (model / "model.manifest.json", evaluate),
            "binary": (model / "model.bin", evaluate),
            "arch": (tmp_path / "arch.json",
                     ["train", "--config", config, "--arch", str(tmp_path / "arch.json"), *out]),
            "history": (tmp_path / "history.jsonl",
                        ["derive", "--history", str(tmp_path / "history.jsonl"), *out])}


class TestFileErrors:
    @pytest.mark.parametrize("kind", ["config", "arch", "history", "manifest", "splits",
                                      "dataset"])
    def test_bytes_that_are_not_utf8_name_the_file(self, pipeline, tmp_path, kind, capsys):
        path, argv = _reader(pipeline, tmp_path)[kind]
        path.write_bytes(b"\xff" + path.read_bytes())
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"file {path} is not UTF-8 (invalid start byte" in err

    @pytest.mark.parametrize("kind", ["config", "arch", "history", "manifest", "binary",
                                      "splits", "dataset"])
    def test_a_directory_in_place_of_a_file_exits_1(self, pipeline, tmp_path, kind, capsys):
        path, argv = _reader(pipeline, tmp_path)[kind]
        path.unlink()
        path.mkdir()
        assert main(argv) == 1
        assert path.name in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["config", "arch", "manifest", "splits"])
    def test_invalid_json_names_the_file(self, pipeline, tmp_path, kind, capsys):
        path, argv = _reader(pipeline, tmp_path)[kind]
        path.write_text("{x" + path.read_text())
        assert main(argv) == 1
        assert f"file {path} is not valid JSON: Expecting property name" in \
            capsys.readouterr().err


class TestUnwritableOut:
    @pytest.mark.parametrize("command, first", [
        ("synth-data", "dataset.jsonl"), ("search", "arch.json"), ("derive", "arch.json"),
        ("train", "report.json"), ("eval", "report.json"), ("gradcheck", "report.json")])
    def test_out_under_a_file_exits_1_naming_it(self, pipeline, tmp_path, command, first,
                                                capsys):
        config = pipeline["config"]
        argv = {"synth-data": ["--num-graphs", "10"],
                "search": ["--config", config],
                "derive": ["--history", str(pipeline["search"] / "history.jsonl")],
                "train": ["--config", config, "--arch", str(pipeline["derive"] / "arch.json")],
                "eval": ["--config", config, "--model-dir", str(pipeline["train"])],
                "gradcheck": []}[command]
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"
        capsys.readouterr()
        assert main([command, *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write file {out / first}: Not a directory"]


_SWAPS = [None, True, False, "", "x", [], [1], {}, {"a": 1}, 0.5, 7]
_SUFFIXES = ["x", "}", "{}", " ", "\n", "0", "[]", "\n{}"]
_PREFIXES = [b"\xff", b"\xfe\xff", b"\x80", b"\xc3(", b"\xef\xbb\xbf"]  # the last is a BOM


def _json_kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _nodes(obj) -> list:
    """(container, key) for every value inside ``obj``: object keys and list indices."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    out = []
    for k, v in items:
        out += [(obj, k)] + _nodes(v)
    return out


def _mutate(text: str, kind: str, rng, lines: bool, keep=()) -> bytes:
    """``text`` (one JSON value, or one per line if ``lines``) with one
    mutation of ``kind``; a deletion spares the top-level keys in ``keep``.
    Values are written back as the package writes them, so only the
    mutated part differs. A cut never falls at a line's end, where it would
    leave a shorter but well-formed JSON-lines file."""
    pick = lambda seq: seq[rng.integers(len(seq))]  # noqa: E731
    if kind == "truncate":
        return text[:pick([k for k in range(1, len(text))
                           if not (lines and "\n" in text[k - 1:k + 1])])].encode()
    if kind == "extend":
        return (text + pick(_SUFFIXES)).encode()
    if kind == "prefix":
        return pick(_PREFIXES) + text.encode()
    docs = [json.loads(line) for line in text.splitlines()] if lines else [json.loads(text)]
    doc = pick(docs)
    if kind == "unknown":
        pick([doc] + [c[k] for c, k in _nodes(doc) if isinstance(c[k], dict)])["extra"] = \
            pick(_SWAPS)
    elif kind == "delete":
        c, k = pick([(c, k) for c, k in _nodes(doc) if c is not doc or k not in keep])
        del c[k]
    else:  # a value of another JSON type; an integer may also turn into a float
        c, k = pick(_nodes(doc))
        c[k] = pick([v for v in _SWAPS if _json_kind(v) != _json_kind(c[k])]
                    + ([float(c[k])] if type(c[k]) is int else []))
    return "".join(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n"
                   for d in docs).encode()


_MUTATIONS = ("delete", "unknown", "swap", "truncate", "extend", "prefix")


class TestFileFuzz:
    """Seeded mutations of each file a command reads: every run exits 0
    or 1 and none raises, and a run exits 0 only if the file decodes to
    what the unmutated file does."""

    def fuzz(self, pipeline, tmp_path, kind, decode, seed, trials=240, lines=False, keep=()):
        path, argv = _reader(pipeline, tmp_path)[kind]
        assert main(argv) == 0
        text = path.read_text(encoding="utf-8")
        base = decode(path)
        rng = np.random.default_rng(seed)
        codes = collections.Counter()
        for trial in range(trials):
            mutation = _MUTATIONS[trial % len(_MUTATIONS)]
            path.write_bytes(_mutate(text, mutation, rng, lines, keep))
            try:
                code = main(argv)
            except Exception as exc:
                pytest.fail(f"{mutation} of {kind}: {path.read_bytes()!r} raised {exc!r}")
            assert code in (0, 1), (mutation, path.read_bytes())
            if code == 0:
                assert decode(path) == base, (mutation, path.read_bytes())
            codes[code] += 1
        # most mutations break the file; a trailing space, say, changes nothing
        assert codes[1] > trials // 2 and codes[0]

    def test_arch(self, pipeline, tmp_path):
        self.fuzz(pipeline, tmp_path, "arch", cli._load_arch, 1801)

    def test_history(self, pipeline, tmp_path):
        def decode(path):  # as derive reads it
            return [cli._history_record(n, value)
                    for n, _, value in read_json_lines(path, "history")]
        self.fuzz(pipeline, tmp_path, "history", decode, 1802, lines=True)

    def test_manifest_and_binary(self, pipeline, tmp_path, capsys):
        def decode(path):
            params, _, manifest = load_model(path.parent / "model.bin", path)
            return json.dumps(manifest, sort_keys=True), \
                [t.data.tobytes() for t in params.weights.values()]
        # a manifest without best_epoch, metric or virtual_node is one a
        # library caller writes, and it loads
        self.fuzz(pipeline, tmp_path, "manifest", decode, 1803, keep=MANIFEST_OPTIONAL)
        path, argv = _reader(pipeline, tmp_path / "binary")["binary"]
        blob = path.read_bytes()
        rng = np.random.default_rng(1804)
        capsys.readouterr()
        for trial in range(30):  # cut short, or extended by 1 or 8 bytes
            path.write_bytes(blob[:rng.integers(len(blob))] if trial % 3 == 0
                             else blob + bytes([7] * (1 if trial % 3 == 1 else 8)))
            assert main(argv) == 1
            assert "error: model binary model.bin holds" in capsys.readouterr().err

    def test_splits(self, pipeline, tmp_path):
        def decode(path):
            ds = load_dataset(path.parent / "dataset.jsonl", TaskSchema("binary"), path)
            return {name: idx.tolist() for name, idx in ds.splits.items()}
        self.fuzz(pipeline, tmp_path, "splits", decode, 1805)

    def test_dataset(self, pipeline, tmp_path):
        def decode(path):
            """Each graph with its edges in sorted order: the loader
            symmetrizes, so a deleted reverse edge comes back, at the end."""
            ds = load_dataset(path, TaskSchema("binary"), path.parent / "splits.json")
            graphs = []
            for g in ds.graphs:
                order = np.lexsort(g.edges.T[::-1])
                ef = None if g.edge_features is None else g.edge_features[order]
                graphs.append([None if a is None else (a.shape, a.dtype.str, a.tobytes())
                               for a in (g.node_features, g.edges[order], ef, g.label)])
            return graphs, {name: idx.tolist() for name, idx in ds.splits.items()}
        self.fuzz(pipeline, tmp_path, "dataset", decode, 1806, lines=True)


# ---------------------------------------------------------------------------
# gradcheck


class TestGradcheckCommand:
    def test_passes_and_reports_every_op(self, tmp_path, capsys):
        assert main(["gradcheck", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 1
        assert all(c["pass"] for c in report["checks"])
        assert f"{len(report['checks'])}/{len(report['checks'])} checks passed" in out

        listed = [c["name"] for c in report["checks"] if c["name"].startswith("op/")]
        assert len(listed) == len(set(listed))
        covered = {(module.capitalize(), name)
                   for module, name in (n.split("/")[1:] for n in listed)}
        assert covered == {(module, name) for module, names in (
            ("Fusion", ops.FUSION_OPS), ("Aggregation", ops.AGGREGATION_OPS),
            ("Readout", ops.READOUT_OPS)) for name in names}
        # selection is covered by the whole networks, relaxed and discrete
        assert {"supernet/relaxed", "supernet/discrete"} <= {c["name"] for c in report["checks"]}

    def test_failure_exits_nonzero(self, monkeypatch, capsys):
        from sfanas import gradcheck as gc
        monkeypatch.setattr(gc, "run_all",
                            lambda: [("op/fake/BROKEN", 1.0), ("ok", 1e-9)])
        assert main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  op/fake/BROKEN" in out
        assert "1/2 checks passed" in out
