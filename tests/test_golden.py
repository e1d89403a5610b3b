"""Golden hashes: the sha256 of every file a tiny CLI pipeline writes but its
manifests, and of the paper-shaped train step of ``paper_step``, against
``golden.json``.

Another numpy, OpenBLAS or core rounds products differently, so each entry
is keyed by the numpy version, the OpenBLAS version and the core name
OpenBLAS runs the kernels of (``blas.build()``). In an environment with no
entry both tests skip, and the reason names the missing key. A change meant
to move numbers edits ``golden.json`` in the same commit, so each
re-baseline shows in the diff; ``python tests/test_golden.py`` prints this
environment's entry."""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ddikit import blas
from ddikit.cli import main

from paper_step import TRAIN_STEP, run_script

GOLDEN = Path(__file__).with_name("golden.json")

# The model of pretrain, train and sts, and their epochs.
TINY = {"d_model": 16, "n_layers": 2, "n_heads": 2, "d_ff": 16, "max_len": 64,
        "conv_blocks": 2, "mlp1_hidden": 16, "mlp1_out": 16, "mlp2_hidden": 16, "epochs": 2}


def environment() -> str:
    build = blas.build()
    library = "no OpenBLAS" if build is None else f"OpenBLAS {build[0]} on {build[1]}"
    return f"numpy {np.__version__}, {library}"


def pipeline_hashes(root: Path) -> dict[str, str]:
    """make-fixture -> vocab -> kg-train -> kg-export -> split -> pretrain ->
    train --pretrained -> eval u1 -> seqlen u2 -> sts --pretrained under
    ``root``; the sha256 of each file written but the manifests, by path."""
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY))
    world = ["--drugs", root / "fix/drugs.tsv", "--events", root / "fix/events.tsv",
             "--labels", root / "fix/labels.txt", "--splits", root / "split/splits.json",
             "--vocab", root / "vocab/vocab.txt", "--kg-table", root / "kg/kg_table.bin",
             "--kg-index", root / "kg/kg_table.index"]
    for argv in (
            ["make-fixture", "--seed", 3, "--set", "n_drugs=30", "--set", "n_events=120",
             "--set", "n_classes=4"],
            ["vocab", "--corpus", root / "fix/corpus.txt"],
            ["kg-train", "--triples", root / "fix/kg.tsv", "--set", "dim=8", "--set", "epochs=5"],
            ["kg-export", "--table", root / "kg/kg_table.bin", "--index",
             root / "kg/kg_table.index", "--drugs", root / "fix/drugs.tsv"],
            ["split", "--drugs", root / "fix/drugs.tsv", "--events", root / "fix/events.tsv",
             "--labels", root / "fix/labels.txt"],
            ["pretrain", "--corpus", root / "fix/corpus.txt", "--vocab", root / "vocab/vocab.txt",
             "--config", config],
            ["train", *world, "--pretrained", root / "pre/pretrained.ckpt", "--config", config],
            ["eval", "--checkpoint", root / "train/model.ckpt", "--split", "u1", *world],
            ["seqlen", "--checkpoint", root / "train/model.ckpt", "--split", "u2", *world],
            ["sts", *world, "--pretrained", root / "pre/pretrained.ckpt", "--config", config]):
        out = root / {"make-fixture": "fix", "kg-train": "kg", "kg-export": "export",
                      "pretrain": "pre"}.get(argv[0], argv[0])
        assert main([str(a) for a in argv] + ["--out-dir", str(out)]) == 0, argv
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json" and p != config}


def train_step_hashes() -> dict[str, str]:
    """The step's hashes by name (``grad:<group>``, ``adam``, ``eval``), run
    at the inherited OpenBLAS thread count."""
    words = run_script(TRAIN_STEP)
    return dict(w.rsplit(":", 1) for w in words if w.startswith(("grad:", "adam:", "eval:")))


def _expected(part: str) -> dict[str, str]:
    key = environment()
    entries = json.loads(GOLDEN.read_text())
    if key not in entries:
        pytest.skip(f"tests/golden.json has no entry for {key!r}")
    return entries[key][part]


def test_the_tiny_pipeline_keeps_its_bytes(tmp_path):
    expected = _expected("pipeline")
    assert len(expected) == 20
    assert pipeline_hashes(tmp_path) == expected


def test_the_paper_shaped_train_step_keeps_its_bytes():
    expected = _expected("train_step")
    assert train_step_hashes() == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        pipeline = pipeline_hashes(Path(tmp))
    entry = {environment(): {"pipeline": pipeline, "train_step": train_step_hashes()}}
    json.dump(entry, sys.stdout, indent=2)
    print()
