"""End-to-end command-line pipeline tests: exit codes, manifests, output
files, and rerun determinism. Commands run in process through cli.main."""

import dataclasses
import json
import os
import platform
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddikit
from ddikit import blas, cli
from ddikit.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from ddikit.cli import main
from ddikit.data import SplitBundle
from ddikit.kg import load_table, save_table
from ddikit.model import DdiModel, ModelConfig
from ddikit.training import FinetuneConfig

TINY = {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 8, "max_len": 32,
        "conv_blocks": 2, "kg_heads": 2, "mlp1_hidden": 8, "mlp1_out": 8,
        "mlp2_hidden": 8, "epochs": 1, "batch_size": 8, "learning_rate": 1e-3}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Fixture dataset + vocab + kg table + splits, built once."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY))

    def run(*argv):
        rc = main([str(a) for a in argv])
        assert rc == 0, f"command failed: {argv}"

    run("make-fixture", "--out-dir", root / "fix", "--seed", 7,
        "--set", "n_drugs=16", "--set", "n_events=60", "--set", "n_classes=3")
    run("vocab", "--corpus", root / "fix/corpus.txt", "--out-dir", root / "vocab",
        "--seed", 0)
    run("kg-train", "--triples", root / "fix/kg.tsv", "--out-dir", root / "kg",
        "--seed", 0, "--set", "dim=4", "--set", "epochs=3")
    run("split", "--drugs", root / "fix/drugs.tsv", "--events", root / "fix/events.tsv",
        "--labels", root / "fix/labels.txt", "--out-dir", root / "split",
        "--seed", 0, "--set", "test_drug_fraction=0.2")
    return root


def dataset_args(root):
    return ["--drugs", root / "fix/drugs.tsv", "--events", root / "fix/events.tsv",
            "--labels", root / "fix/labels.txt", "--splits", root / "split/splits.json",
            "--vocab", root / "vocab/vocab.txt", "--kg-table", root / "kg/kg_table.bin",
            "--kg-index", root / "kg/kg_table.index"]


def run(*argv):
    return main([str(a) for a in argv])


def run_subprocess(*argv):
    """``python -m ddikit.cli argv`` in a child process that imports this
    ddikit, so stderr holds all the command line would print."""
    src = str(Path(ddikit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "ddikit.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=30)


def trained(world):
    """Path of the fine-tuned checkpoint, training it on first use."""
    ckpt = world / "run/model.ckpt"
    if not ckpt.exists():
        assert run("train", *dataset_args(world), "--out-dir", world / "run",
                   "--seed", 0, "--config", world / "tiny.json") == 0
    return ckpt


def pretrained(world):
    """Path of the pretrained checkpoint, pretraining it on first use."""
    ckpt = world / "pre/pretrained.ckpt"
    if not ckpt.exists():
        assert run("pretrain", "--corpus", world / "fix/corpus.txt", "--vocab",
                   world / "vocab/vocab.txt", "--out-dir", world / "pre",
                   "--seed", 0, "--config", world / "tiny.json") == 0
    return ckpt


def test_every_run_writes_a_manifest(world):
    for sub in ("fix", "vocab", "kg", "split"):
        m = json.loads((world / sub / "manifest.json").read_text())
        assert m["seed"] in (0, 7)
        assert "config_fingerprint" in m
        assert "wall_clock_seconds" in m
        for path, digest in m["inputs"].items():
            assert len(digest) == 64
            assert os.path.exists(path)


def test_manifest_records_the_environment(world):
    """The versions, the BLAS and the thread count read back from it, the
    cores and the RAM the run had."""
    env = json.loads((world / "split" / "manifest.json").read_text())["environment"]
    built = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert env == {"python": platform.python_version(), "numpy": np.__version__,
                   "blas": built["name"], "blas_version": built["version"],
                   "blas_threads": blas.threads(), "cores": len(os.sched_getaffinity(0)),
                   "ram_mb": env["ram_mb"]}
    assert 0 < env["ram_mb"] < 2**30


def test_manifest_effective_config_holds_defaults(world):
    """The manifest holds every key the run used, not only the overrides;
    the values the run sets itself are not config keys."""
    config = json.loads((trained(world).parent / "manifest.json").read_text())["effective_config"]
    assert {"dropout": 0.1, "dtype": "float32", "eval_fold": 0}.items() <= config.items()
    assert {key: config[key] for key in TINY} == TINY
    assert not {"seed", "kg_dim", "vocab_size", "n_classes"} & set(config)


def test_vocab_output_has_reserved_header(world):
    lines = (world / "vocab/vocab.txt").read_text().splitlines()
    assert lines[:4] == ["<pad>", "<unk>", "<mask>", "<sep>"]


def test_train_eval_roundtrip(world):
    rc = run("train", *dataset_args(world), "--out-dir", world / "run",
             "--seed", 0, "--config", world / "tiny.json")
    assert rc == 0
    assert (world / "run/model.ckpt").exists()
    hist = (world / "run/history.csv").read_text().splitlines()
    assert hist[0] == "epoch,train_loss,train_accuracy,eval_accuracy"
    assert len(hist) == 2  # 1 epoch

    rc = run("eval", "--checkpoint", world / "run/model.ckpt", "--split", "u1",
             *dataset_args(world), "--out-dir", world / "ev", "--seed", 0)
    assert rc == 0
    report = json.loads((world / "ev/metrics.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert (world / "ev/roc.csv").exists()
    assert (world / "ev/pr.csv").exists()


def test_eval_is_deterministic(world):
    for d in ("ev_a", "ev_b"):
        assert run("eval", "--checkpoint", trained(world), "--split",
                   "train", *dataset_args(world), "--out-dir", world / d,
                   "--seed", 0) == 0
    a = (world / "ev_a/metrics.json").read_bytes()
    b = (world / "ev_b/metrics.json").read_bytes()
    assert a == b


def test_seqlen_command(world):
    rc = run("seqlen", "--checkpoint", trained(world), "--split",
             "train", *dataset_args(world), "--out-dir", world / "sl",
             "--seed", 0, "--set", "bin_width=8")
    assert rc == 0
    lines = (world / "sl/seqlen.csv").read_text().splitlines()
    assert lines[0] == "bin_lo,mean_accuracy,count"
    assert len(lines) > 1


def test_pretrain_command(world):
    rc = run("pretrain", "--corpus", world / "fix/corpus.txt", "--vocab",
             world / "vocab/vocab.txt", "--out-dir", world / "pre",
             "--seed", 0, "--config", world / "tiny.json")
    assert rc == 0
    assert (world / "pre/pretrained.ckpt").exists()
    loss = (world / "pre/pretrain_loss.csv").read_text().splitlines()
    assert loss[0] == "epoch,loss"


def test_kg_export_command(world):
    rc = run("kg-export", "--table", world / "kg/kg_table.bin", "--index",
             world / "kg/kg_table.index", "--drugs", world / "fix/drugs.tsv",
             "--out-dir", world / "kx", "--seed", 0)
    assert rc == 0
    lines = (world / "kx/drug_vectors.tsv").read_text().splitlines()
    assert len(lines) == 16
    assert len(lines[0].split("\t")[1].split()) == 4


def test_kg_train_with_l2_norm(world):
    out = world / "kg_l2"
    assert run("kg-train", "--triples", world / "fix/kg.tsv", "--out-dir", out, "--seed", 0,
               "--set", "dim=4", "--set", "epochs=3", "--set", "norm_p=2") == 0
    loss = (out / "kg_loss.csv").read_text().splitlines()
    assert loss[0] == "epoch,loss" and len(loss) == 4
    assert np.isfinite([float(line.split(",")[1]) for line in loss[1:]]).all()
    assert json.loads((out / "manifest.json").read_text())["effective_config"]["norm_p"] == 2


def test_kg_train_that_overflows_exits_4(world, tmp_path, capsys):
    """A learning rate and margin whose epoch loss overflows: exit 4 naming
    the epoch, and no table for later commands to reject."""
    capsys.readouterr()
    rc = run("kg-train", "--triples", world / "fix/kg.tsv", "--out-dir", tmp_path / "kg",
             "--set", "dim=8", "--set", "epochs=2", "--set", "learning_rate=1e308",
             "--set", "margin=1e308")
    err = capsys.readouterr().err.splitlines()
    assert rc == 4
    assert len(err) == 1 and err[0].startswith("ddikit:error:numeric:")
    assert "epoch 0" in err[0]
    assert not (tmp_path / "kg/kg_table.bin").exists()


def test_set_value_that_is_not_json_is_a_string(world):
    """``--set id_template=DB::{id}`` is not JSON, so it reaches the run as
    that string: on a copy of the KG table whose drug entities are named
    ``DB::<id>``, the export matches the default one on the original table."""
    table = load_table(world / "kg/kg_table.bin", world / "kg/kg_table.index")
    renamed = {name.replace("Compound::", "DB::"): row
               for name, row in table.index.entities.items()}
    assert renamed.keys() != table.index.entities.keys()
    kg = world / "kg_db"
    kg.mkdir()
    save_table(dataclasses.replace(table, index=dataclasses.replace(table.index,
                                                                    entities=renamed)),
               kg / "kg_table.bin", kg / "kg_table.index")
    outs = []
    for name, table_dir, sets in (("kx_default", world / "kg", []),
                                  ("kx_db", kg, ["--set", "id_template=DB::{id}"])):
        outs.append(world / name)
        assert run("kg-export", "--table", table_dir / "kg_table.bin", "--index",
                   table_dir / "kg_table.index", "--drugs", world / "fix/drugs.tsv",
                   "--out-dir", outs[-1], "--seed", 0, *sets) == 0
    vectors = [(out / "drug_vectors.tsv").read_text() for out in outs]
    assert vectors[0] == vectors[1]
    assert any(float(x) != 0.0 for line in vectors[1].splitlines()
               for x in line.split("\t")[1].split())
    manifest = json.loads((outs[1] / "manifest.json").read_text())
    assert manifest["effective_config"]["id_template"] == "DB::{id}"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_config_key_exits_2(world, capsys):
    rc = run("vocab", "--corpus", world / "fix/corpus.txt",
             "--out-dir", world / "x", "--seed", 0, "--set", "bogus_key=1")
    assert rc == 2
    assert "ddikit:error:config" in capsys.readouterr().err


def test_bad_config_file_exits_2(world, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    rc = run("vocab", "--corpus", world / "fix/corpus.txt",
             "--out-dir", world / "x", "--config", bad)
    assert rc == 2
    assert "ddikit:error:config" in capsys.readouterr().err


def test_missing_input_exits_3(tmp_path, capsys):
    rc = run("vocab", "--corpus", tmp_path / "nope.txt", "--out-dir", tmp_path / "o")
    assert rc == 3
    assert "ddikit:error:data" in capsys.readouterr().err


def test_malformed_data_exits_3(tmp_path, capsys):
    bad = tmp_path / "drugs.tsv"
    bad.write_text("D1\tC(C\n")
    ev = tmp_path / "e.tsv"
    ev.write_text("D1\tD1\tx\n")
    lab = tmp_path / "l.txt"
    lab.write_text("x\n")
    rc = run("split", "--drugs", bad, "--events", ev, "--labels", lab,
             "--out-dir", tmp_path / "o")
    assert rc == 3
    assert "ddikit:error:data" in capsys.readouterr().err


@pytest.mark.parametrize("sub,bad", [
    ("train", ["--set", "eval_fold=9"]),
    ("train", ["--set", 'eval_fold="a"']),
    ("train", ["--set", "eval_fold=-1"]),
    ("train", ["--set", "eval_fold=true"]),
    ("sts", ["--set", "eval_fold=-1"]),
    ("eval", ["--split", "fold9"]),
    ("eval", ["--split", "foldx"]),
    ("eval", ["--split", "fold-1"]),
    ("seqlen", ["--split", "fold5"]),
], ids=["train-9", "train-str", "train-neg", "train-bool", "sts-neg",
        "eval-fold9", "eval-foldx", "eval-fold-1", "seqlen-fold5"])
def test_bad_fold_exits_2(world, capsys, sub, bad):
    if sub in ("eval", "seqlen"):
        bad = ["--checkpoint", trained(world), *bad]
    else:
        bad = ["--config", world / "tiny.json", *bad]
    capsys.readouterr()
    rc = run(sub, *dataset_args(world), "--out-dir", world / "badfold", *bad)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("ddikit:error:config: fold")


def _manifest_case(world, case):
    """(subcommand, file arguments, other arguments) for one manifest case."""
    fix, tiny, data = world / "fix", ["--config", world / "tiny.json"], dataset_args(world)
    sub = case.split("+")[0]
    files, other = {
        "make-fixture": ([], ["--set", "n_drugs=4", "--set", "n_events=3"]),
        "vocab": (["--corpus", fix / "corpus.txt"], []),
        "kg-train": (["--triples", fix / "kg.tsv"], ["--set", "dim=4", "--set", "epochs=1"]),
        "kg-export": (["--table", world / "kg/kg_table.bin", "--index",
                       world / "kg/kg_table.index", "--drugs", fix / "drugs.tsv"], []),
        "split": (data[:6], []),
        "pretrain": (["--corpus", fix / "corpus.txt", "--vocab", world / "vocab/vocab.txt"],
                     tiny),
        "train": (data, tiny),
        "sts": (data, tiny),
        "eval": (["--checkpoint", trained(world), *data], ["--split", "u1"]),
        "seqlen": (["--checkpoint", trained(world), *data], ["--split", "train"]),
    }[sub]
    if case.endswith("+pretrained"):
        files = files + ["--pretrained", pretrained(world)]
    return sub, files, other


@pytest.mark.parametrize("case", ["make-fixture", "vocab", "kg-train", "kg-export", "split",
                                  "pretrain", "train", "train+pretrained", "eval", "sts",
                                  "sts+pretrained", "seqlen"])
def test_manifest_inputs_are_the_given_files(world, case):
    sub, files, other = _manifest_case(world, case)
    out = world / "inputs" / case
    assert run(sub, *files, *other, "--out-dir", out, "--seed", 0) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert set(m["inputs"]) == {str(p) for p in files[1::2]}


@pytest.mark.parametrize("sets", [
    ["n_drugs=1"],
    ["n_classes=0"],
    ["n_drugs=3", "n_events=10"],
    ["n_drugs=3", "n_events=0"],
    ["n_drugs=true"],
    ["n_events=2.5"],
    ['n_classes="4"'],
], ids=["one-drug", "no-class", "too-many-events", "no-event", "bool", "float", "str"])
def test_bad_fixture_size_exits_2(tmp_path, sets):
    # A subprocess with a timeout, so a generator that never ends fails the
    # test instead of hanging the suite.
    argv = ["make-fixture", "--out-dir", tmp_path]
    for item in sets:
        argv += ["--set", item]
    proc = run_subprocess(*argv)
    err = proc.stderr.splitlines()
    assert proc.returncode == 2
    assert len(err) == 1 and err[0].startswith("ddikit:error:config:")


def _replace_arg(argv, flag, value):
    """``argv`` with the value after ``flag`` replaced."""
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return argv


def _one_error_line(capsys, kind):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith(f"ddikit:error:{kind}:")


@pytest.mark.parametrize("sub", ["vocab", "kg-train", "split", "kg-export", "eval"])
def test_non_utf8_input_exits_3(world, tmp_path, capsys, sub):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00\x80 not utf-8\n")
    data = dataset_args(world)
    argv = {
        "vocab": ["--corpus", bad],
        "kg-train": ["--triples", bad],
        "split": _replace_arg(data[:6], "--drugs", bad),
        "kg-export": ["--table", world / "kg/kg_table.bin", "--index",
                      world / "kg/kg_table.index", "--drugs", bad],
        "eval": ["--checkpoint", trained(world), "--split", "u1",
                 *_replace_arg(data, "--splits", bad)],
    }[sub]
    capsys.readouterr()
    assert run(sub, *argv, "--out-dir", tmp_path / "o") == 3
    assert _one_error_line(capsys, "data")


def _splits_case(world, case) -> str:
    d = json.loads((world / "split/splits.json").read_text())
    if case == "not-json":
        return (world / "fix/drugs.tsv").read_text()
    if case == "empty-object":
        return "{}"
    if case == "index-out-of-range":
        d["u1"].append(10 ** 6)
    elif case == "negative-index":
        d["u1"][0] = -1
    elif case == "u1-not-a-list":
        d["u1"] = "abc"
    elif case == "float-index":
        d["train"][0] = float(d["train"][0])
    elif case == "repeated-index":  # would score one event 51 times
        d["u1"] += [d["u1"][0]] * 50
    return json.dumps(d)


@pytest.mark.parametrize("case", ["not-json", "empty-object", "index-out-of-range",
                                  "negative-index", "u1-not-a-list", "float-index",
                                  "repeated-index"])
def test_bad_splits_file_exits_3(world, tmp_path, capsys, case):
    splits = tmp_path / "splits.json"
    splits.write_text(_splits_case(world, case))
    argv = _replace_arg(dataset_args(world), "--splits", splits)
    capsys.readouterr()
    rc = run("eval", "--checkpoint", trained(world), "--split", "u1", *argv,
             "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")


@pytest.mark.parametrize("case", ["checkpoint", "kg-table", "kg-index"])
def test_truncated_binary_input_exits_3(world, tmp_path, capsys, case):
    """A 10-byte checkpoint, a 40-byte KG table and a one-line KG index."""
    ckpt, table, index = trained(world), world / "kg/kg_table.bin", world / "kg/kg_table.index"
    short = tmp_path / "short"
    if case == "checkpoint":
        short.write_bytes(ckpt.read_bytes()[:10])
        ckpt = short
    elif case == "kg-table":
        short.write_bytes(table.read_bytes()[:40])
        table = short
    else:
        short.write_text(index.read_text().splitlines()[0] + "\n")
        index = short
    argv = _replace_arg(_replace_arg(dataset_args(world), "--kg-table", table),
                        "--kg-index", index)
    capsys.readouterr()
    rc = run("eval", "--checkpoint", ckpt, "--split", "u1", *argv, "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")


def _with_token_embedding(ckpt, value, out):
    """``ckpt`` with its token embedding set to ``value``, written to ``out``."""
    model = DdiModel(ModelConfig(**read_checkpoint(ckpt)[0]["config"]))
    load_checkpoint(ckpt, model)
    model.parameters()["embed.token"].data[...] = value
    save_checkpoint(out, model)
    return out


@pytest.mark.parametrize("case,rc,kind", [("trailing-bytes", 3, "data"),
                                          ("nan-weight", 3, "data"),
                                          ("overflowing-weight", 4, "numeric"),
                                          ("nan-kg-vectors", 3, "data")])
def test_bad_array_file_exits_nonzero(world, tmp_path, capsys, case, rc, kind):
    """A checkpoint with bytes after its last array, one holding NaN, one
    whose finite weights overflow the forward, and a KG table holding NaN."""
    ckpt, table, index = trained(world), world / "kg/kg_table.bin", world / "kg/kg_table.index"
    if case == "trailing-bytes":
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(trained(world).read_bytes() + b"\0" * 16)
    elif case == "nan-weight":
        ckpt = _with_token_embedding(ckpt, np.nan, tmp_path / "model.ckpt")
    elif case == "overflowing-weight":
        ckpt = _with_token_embedding(ckpt, 1e30, tmp_path / "model.ckpt")
    else:
        kg = load_table(table, index)
        kg.entities[...] = np.nan
        table, index = tmp_path / "kg.bin", tmp_path / "kg.index"
        save_table(kg, table, index)
    argv = _replace_arg(_replace_arg(dataset_args(world), "--kg-table", table),
                        "--kg-index", index)
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--split", "u1", *argv,
               "--out-dir", tmp_path / "o") == rc
    assert _one_error_line(capsys, kind)


def test_numeric_failure_prints_one_line_from_the_command_line(world, tmp_path):
    """The overflowing-weight checkpoint above, run as a command line, where
    numpy's warnings are not captured: stderr is the one error line."""
    ckpt = _with_token_embedding(trained(world), 1e30, tmp_path / "model.ckpt")
    proc = run_subprocess("eval", "--checkpoint", ckpt, "--split", "u1",
                          *dataset_args(world), "--out-dir", tmp_path / "o")
    err = proc.stderr.splitlines()
    assert proc.returncode == 4
    assert len(err) == 1 and err[0].startswith("ddikit:error:numeric:")


@pytest.mark.parametrize("sub,setting", [("train", "max_len=16"), ("sts", "max_len=16"),
                                         ("train", "n_layers=2")])
def test_pretrained_of_another_shape_exits_2(world, tmp_path, capsys, sub, setting):
    ckpt = pretrained(world)
    capsys.readouterr()
    rc = run(sub, *dataset_args(world), "--pretrained", ckpt, "--config", world / "tiny.json",
             "--set", setting, "--out-dir", tmp_path / "o")
    assert rc == 2
    assert _one_error_line(capsys, "config")


def test_kg_export_validates_drugs_file(world, tmp_path, capsys):
    drugs = tmp_path / "drugs.tsv"
    drugs.write_text("D1\tC(C\n")
    capsys.readouterr()
    rc = run("kg-export", "--table", world / "kg/kg_table.bin", "--index",
             world / "kg/kg_table.index", "--drugs", drugs, "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")
    assert not (tmp_path / "o/drug_vectors.tsv").exists()


# ---------------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sub,setting", [
    ("kg-train", 'epochs="x"'), ("kg-train", "dim=0"), ("kg-train", "norm_p=3"),
    ("kg-train", "batch_size=0"), ("kg-train", "seed=7"),
    ("vocab", 'min_count="a"'),
    ("split", 'n_folds="x"'), ("split", "n_folds=0"), ("split", "n_folds=1"),
    ("split", "test_drug_fraction=2"),
    ("pretrain", "batch_size=0"), ("pretrain", "n_heads=0"), ("pretrain", "n_segments=1"),
    ("pretrain", 'dtype="float16"'), ("pretrain", "dropout=1.5"),
    ("pretrain", 'learning_rate="x"'), ("pretrain", "epochs=0"), ("pretrain", "vocab_size=3"),
    ("train", "learning_rate=NaN"), ("train", "id_template=5"),
    ("kg-export", 'id_template="{x}"'),
    ("eval", "batch_size=0"),
    ("seqlen", "bin_width=0"),
    ("sts", 'min_class_count="a"'),
])
def test_bad_config_value_exits_2(world, tmp_path, capsys, sub, setting):
    _, files, other = _manifest_case(world, sub)
    capsys.readouterr()
    rc = run(sub, *files, *other, "--set", setting, "--out-dir", tmp_path / "o")
    assert rc == 2
    assert _one_error_line(capsys, "config")


@pytest.mark.parametrize("sub,key", [
    ("kg-train", "seed"), ("pretrain", "seed"), ("train", "seed"), ("sts", "seed"),
    ("pretrain", "vocab_size"), ("train", "vocab_size"), ("sts", "vocab_size"),
    ("pretrain", "n_classes"), ("train", "n_classes"), ("sts", "n_classes"),
    ("train", "kg_dim"), ("sts", "kg_dim"),
])
def test_key_the_run_sets_exits_2(world, tmp_path, capsys, sub, key):
    """seed comes from --seed; vocab_size, n_classes and kg_dim from the
    input files. A config value for them would be ignored, so it is refused."""
    _, files, other = _manifest_case(world, sub)
    capsys.readouterr()
    rc = run(sub, *files, *other, "--set", f"{key}=4", "--out-dir", tmp_path / "o")
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ddikit:error:config: {key} is set by the run, not by the config"]


@pytest.mark.parametrize("sub", ["make-fixture", "split", "eval"])
def test_negative_seed_exits_2(world, tmp_path, capsys, sub):
    _, files, other = _manifest_case(world, sub)
    capsys.readouterr()
    assert run(sub, *files, *other, "--seed", -1, "--out-dir", tmp_path / "o") == 2
    assert _one_error_line(capsys, "config")


def test_int_reaches_a_float_key_unconverted():
    fcfg = cli._take_fields({"learning_rate": 1}, FinetuneConfig, seed=0)
    assert type(fcfg.learning_rate) is int
    with pytest.raises(cli.ConfigError):
        cli._take_fields({"epochs": 2.0}, FinetuneConfig, seed=0)
    with pytest.raises(cli.ConfigError):
        cli._take_fields({"epochs": True}, FinetuneConfig, seed=0)


# Values a subcommand's run supplies to its dataclasses, as the handlers do.
_RUN_VALUES = {"seed": 0, "vocab_size": 10, "n_classes": 3, "kg_dim": 8}
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=12)
    | st.integers() | st.sampled_from([0, -1, 1, 2, 10 ** 30, -10 ** 30]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


def _run_set(sub: str, dc) -> dict:
    """The values ``sub``'s run passes to dataclass ``dc``: pretrain leaves
    kg_dim to the config."""
    names = {f.name for f in dataclasses.fields(dc)}
    return {k: v for k, v in _RUN_VALUES.items()
            if k in names and not (sub == "pretrain" and k == "kg_dim")}


def _validate(sub: str, cfg: dict):
    """The checks main() and the handlers make on a config: the key table,
    then each dataclass with the values its run sets, then the fold index."""
    dc_types, keys = cli._SUBCOMMANDS[sub].configs, cli._SUBCOMMANDS[sub].keys
    cfg = cli._config(cfg, dc_types, keys)
    built = []
    for dc in dc_types:
        built.append(cli._take_fields(cfg, dc, **_run_set(sub, dc)))
    if "eval_fold" in keys:
        bundle = SplitBundle(train=[0, 1], folds=[[0], [1]], u1=[], u2=[], test_drugs=set())
        cli._cv_fold(bundle, cfg["eval_fold"])
    return cfg, built


@given(st.data())
@settings(max_examples=600)
def test_any_json_value_is_a_config_or_a_config_error(data):
    sub = data.draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    dc_types, keys = cli._SUBCOMMANDS[sub].configs, cli._SUBCOMMANDS[sub].keys
    names = sorted({f.name for dc in dc_types for f in dataclasses.fields(dc)} | set(keys))
    cfg = data.draw(st.dictionaries(st.sampled_from(names + ["bogus"]), _JSON,
                                    min_size=1, max_size=4))
    try:
        resolved, built = _validate(sub, dict(cfg))
    except cli.ConfigError:
        return
    for obj in built:
        for key, value in cfg.items():
            if hasattr(obj, key):
                assert type(getattr(obj, key)) is type(value)  # never converted
    for key in keys:
        assert resolved[key] is cfg.get(key, cli._CLI_KEYS[key][0])


@pytest.mark.parametrize("sub", ["pretrain", "eval"])
def test_vocab_without_header_exits_3(world, tmp_path, capsys, sub):
    bad = tmp_path / "vocab.txt"
    bad.write_text("C\nO\n")
    _, files, other = _manifest_case(world, sub)
    capsys.readouterr()
    rc = run(sub, *_replace_arg(files, "--vocab", bad), *other, "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")


def _split_with_first_smiles(world, tmp_path, smiles) -> int:
    """``split`` on the fixture's drugs file with its first SMILES replaced."""
    lines = (world / "fix/drugs.tsv").read_text().splitlines()
    lines[0] = lines[0].split("\t")[0] + "\t" + smiles
    drugs = tmp_path / "drugs.tsv"
    drugs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = _replace_arg(dataset_args(world)[:6], "--drugs", drugs)
    return run("split", *argv, "--out-dir", tmp_path / "o")


def test_drug_without_atoms_exits_3(world, tmp_path, capsys):
    capsys.readouterr()
    assert _split_with_first_smiles(world, tmp_path, ".") == 3
    assert _one_error_line(capsys, "data")


def test_drug_with_a_non_ascii_digit_exits_3(world, tmp_path, capsys):
    """Ring-closure digits are ASCII: ``C\u00b2`` is a SMILES error, not an int() crash."""
    capsys.readouterr()
    assert _split_with_first_smiles(world, tmp_path, "C\u00b2") == 3
    assert _one_error_line(capsys, "data")


def test_drug_whose_smiles_cannot_be_rewritten_exits_3(world, tmp_path, capsys):
    """Writing a molecule gives each ring bond of a component its own digit,
    so 100 rings in one chain load as an error, not a crash mid-training."""
    assert _split_with_first_smiles(world, tmp_path, "C1CC1" * 99) == 0
    capsys.readouterr()
    assert _split_with_first_smiles(world, tmp_path, "C1CC1" * 100) == 3
    drug_id = (world / "fix/drugs.tsv").read_text().split("\t", 1)[0]
    err = capsys.readouterr().err
    assert "drugs.tsv:1:" in err and repr(drug_id) in err and "99 ring bonds" in err


@pytest.mark.parametrize("smiles", ["[C+" + "1" * 5000 + "]", "[" + "1" * 5000 + "C]",
                                    "[CH" + "1" * 5000 + "]"],
                         ids=["charge", "isotope", "hydrogen-count"])
def test_drug_with_a_long_bracket_digit_run_exits_3(world, tmp_path, capsys, smiles):
    """Bracket digit runs are bounded, so int() never refuses a long one, and
    the error line quotes one character of the run, not all of it."""
    capsys.readouterr()
    assert _split_with_first_smiles(world, tmp_path, smiles) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ddikit:error:data:") and len(err[0]) < 200, err


def test_readme_config_table_matches_the_schema():
    """README's "Config keys" table lists, for each key, exactly the
    subcommands that accept it: their dataclass fields the run does not set,
    plus their CLI keys."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    documented = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            keys, subs = line.split("|")[1:3]
            for key in re.findall(r"`(\w+)`", keys):
                documented[key] = set(subs.strip().split(", "))
    accepted = {}
    for sub, row in cli._SUBCOMMANDS.items():
        names = set(row.keys) | {f.name for dc in row.configs for f in dataclasses.fields(dc)
                                 if f.name not in _run_set(sub, dc)}
        for key in names:
            accepted.setdefault(key, set()).add(sub)
    assert documented == accepted


def _rewrite_header(src: Path, dst: Path, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit(header)`` applied to its JSON header."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    raw = json.dumps(header).encode()
    dst.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:])


def _drop_bn_statistics(header):
    header["arrays"] = [a for a in header["arrays"]
                        if not a["name"].startswith("conv.0.bn1.running_")]


def _rename_a_buffer(header):
    next(a for a in header["arrays"] if a["group"] == "buffer")["name"] += "_renamed"


@pytest.mark.parametrize("edit", [
    lambda h: h["meta"]["config"].update(bogus=1),
    lambda h: h["meta"]["config"].update(d_model=0),
    lambda h: h["meta"]["config"].update(d_ff=8.5),
    lambda h: h["meta"].pop("config_fingerprint"),
    lambda h: h["meta"].pop("model_rng"),
    lambda h: h["meta"]["model_rng"].pop("state"),
    _drop_bn_statistics,
    _rename_a_buffer,
], ids=["unknown-config-key", "zero-d_model", "float-d_ff", "no-fingerprint",
        "no-model-rng", "bad-model-rng", "no-bn-statistics", "renamed-buffer"])
def test_malformed_checkpoint_meta_exits_3(world, tmp_path, capsys, edit):
    """Header edits the loader must refuse. A checkpoint without its stored
    batch-norm statistics would otherwise load with fresh ones."""
    ckpt = tmp_path / "model.ckpt"
    _rewrite_header(trained(world), ckpt, edit)
    capsys.readouterr()
    rc = run("eval", "--checkpoint", ckpt, "--split", "u1", *dataset_args(world),
             "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")


@pytest.mark.parametrize("sub", ["eval", "seqlen"])
@pytest.mark.parametrize("case", ["vocab", "kg-table"])
def test_checkpoint_that_disagrees_with_its_inputs_exits_3(world, tmp_path, capsys, sub, case):
    """A vocabulary with 2 more tokens, or a KG table of another width, than
    the checkpoint's model was trained with."""
    argv = dataset_args(world)
    if case == "vocab":
        vocab = tmp_path / "vocab.txt"
        vocab.write_text((world / "vocab/vocab.txt").read_text() + "Xq\nXr\n")
        argv = _replace_arg(argv, "--vocab", vocab)
    else:
        assert run("kg-train", "--triples", world / "fix/kg.tsv", "--out-dir", tmp_path / "kg",
                   "--set", "dim=2", "--set", "epochs=1") == 0
        argv = _replace_arg(_replace_arg(argv, "--kg-table", tmp_path / "kg/kg_table.bin"),
                            "--kg-index", tmp_path / "kg/kg_table.index")
    capsys.readouterr()
    rc = run(sub, "--checkpoint", trained(world), "--split", "u1", *argv,
             "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")
    assert not (tmp_path / "o/manifest.json").exists()


def _reversed_lines(src: Path, dst: Path, keep: int = 0) -> Path:
    """``src`` with its lines after the first ``keep`` in reverse order."""
    lines = src.read_text().splitlines()
    dst.write_text("\n".join(lines[:keep] + lines[keep:][::-1]) + "\n")
    return dst


def _reordered(world, tmp_path, case) -> list:
    """The dataset arguments with the vocabulary (past its 4 reserved tokens)
    or the label file in reverse order: same sizes, other token and class ids."""
    if case == "vocab":
        path = _reversed_lines(world / "vocab/vocab.txt", tmp_path / "vocab.txt", keep=4)
    else:
        path = _reversed_lines(world / "fix/labels.txt", tmp_path / "labels.txt")
    return _replace_arg(dataset_args(world), f"--{case}", path)


@pytest.mark.parametrize("sub", ["eval", "seqlen"])
@pytest.mark.parametrize("case", ["vocab", "labels"])
def test_checkpoint_trained_with_reordered_vocab_or_labels_exits_3(world, tmp_path, capsys,
                                                                   sub, case):
    argv = _reordered(world, tmp_path, case)
    capsys.readouterr()
    rc = run(sub, "--checkpoint", trained(world), "--split", "u1", *argv,
             "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")
    assert not (tmp_path / "o/manifest.json").exists()


def test_pretrained_with_reordered_vocab_exits_3(world, tmp_path, capsys):
    argv = _reordered(world, tmp_path, "vocab")
    ckpt = pretrained(world)
    capsys.readouterr()
    rc = run("train", *argv, "--pretrained", ckpt, "--config", world / "tiny.json",
             "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")


def test_checkpoints_record_vocab_and_labels_and_load_without_them(world, tmp_path):
    """The fine-tuned checkpoint stores both digests and the pretrained one
    the vocabulary's; a checkpoint without them still loads."""
    assert {"vocab_sha256", "labels_sha256"} <= set(read_checkpoint(trained(world))[0])
    assert "vocab_sha256" in read_checkpoint(pretrained(world))[0]
    ckpt = tmp_path / "model.ckpt"
    _rewrite_header(trained(world), ckpt, lambda h: [h["meta"].pop(key) for key in
                                                     ("vocab_sha256", "labels_sha256")])
    argv = _reordered(world, tmp_path, "labels")
    assert run("eval", "--checkpoint", ckpt, "--split", "u1", *argv,
               "--out-dir", tmp_path / "o") == 0


def test_one_molecule_corpus_exits_3(world, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text((world / "fix/corpus.txt").read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    rc = run("pretrain", "--corpus", corpus, "--vocab", world / "vocab/vocab.txt",
             "--config", world / "tiny.json", "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")


def test_empty_training_fold_exits_3(world, tmp_path, capsys):
    """A splits file with one fold: holding it out leaves nothing to train on,
    while eval can still score that fold."""
    d = json.loads((world / "split/splits.json").read_text())
    d["folds"] = [sorted(i for fold in d["folds"] for i in fold)]
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps(d))
    argv = _replace_arg(dataset_args(world), "--splits", splits)
    capsys.readouterr()
    rc = run("train", *argv, "--config", world / "tiny.json", "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")
    assert run("eval", "--checkpoint", trained(world), "--split", "fold0", *argv,
               "--out-dir", tmp_path / "ev") == 0


@pytest.mark.parametrize("sub", ["eval", "seqlen"])
def test_empty_split_exits_3(world, tmp_path, capsys, sub):
    """A split with no events has nothing to score: seqlen would write a
    header-only CSV."""
    d = json.loads((world / "split/splits.json").read_text())
    d["u2"] = []
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps(d))
    argv = _replace_arg(dataset_args(world), "--splits", splits)
    capsys.readouterr()
    rc = run(sub, "--checkpoint", trained(world), "--split", "u2", *argv,
             "--out-dir", tmp_path / "o")
    assert rc == 3
    assert _one_error_line(capsys, "data")
    assert not (tmp_path / "o").exists()


# Bytes that frame or mean something to one of the readers.
_MEANINGFUL_BYTES = b"\t\n\r 019[]{}\",:-+.%()=#@\\\xff\x00"


def _mutate(blob: bytes, rng: random.Random) -> bytes:
    """``blob`` truncated, with one bit flipped, with 1-3 bytes inserted or
    with 1-8 bytes deleted, at one random offset."""
    i = rng.randrange(len(blob) + 1)
    op = rng.randrange(4)
    if op == 0:
        return blob[:i]
    if op == 1 and i < len(blob):
        return blob[:i] + bytes([blob[i] ^ 1 << rng.randrange(8)]) + blob[i + 1:]
    if op == 2:
        byte = rng.choice(_MEANINGFUL_BYTES + blob[:64])
        return blob[:i] + bytes([byte]) * rng.randint(1, 3) + blob[i:]
    return blob[:i] + blob[i + rng.randint(1, 8):]


_READS = [("vocab", "--corpus"), ("pretrain", "--corpus"), ("pretrain", "--vocab"),
          ("kg-train", "--triples"), ("kg-export", "--table"), ("kg-export", "--index"),
          ("kg-export", "--drugs"), ("split", "--drugs"), ("split", "--events"),
          ("split", "--labels"), ("eval", "--checkpoint"), ("eval", "--events"),
          ("eval", "--splits"), ("eval", "--vocab"), ("eval", "--kg-table"),
          ("eval", "--kg-index")]


@pytest.mark.parametrize("sub,flag", _READS, ids=[f"{s}{f[1:]}" for s, f in _READS])
def test_mutated_input_exits_0_or_3(world, tmp_path, capsys, sub, flag):
    """Each file the CLI reads, mutated 60 seeded ways: every run exits 0,
    or 3 with exactly one error line, and no exception leaves main."""
    _, files, other = _manifest_case(world, sub)
    argv = [*files, *other]
    src = Path(argv[argv.index(flag) + 1])
    blob = src.read_bytes()
    bad = tmp_path / src.name
    rng = random.Random(f"{sub} {flag}")
    for k in range(60):
        bad.write_bytes(_mutate(blob, rng))
        capsys.readouterr()
        rc = run(sub, *_replace_arg(argv, flag, bad), "--out-dir", tmp_path / "o")
        err = capsys.readouterr().err.splitlines()
        assert rc == 0 or (rc == 3 and len(err) == 1 and err[0].startswith("ddikit:error:")), \
            f"mutation {k}: exit {rc}, stderr {err}"
