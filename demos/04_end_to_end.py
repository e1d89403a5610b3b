"""Full pipeline through the command-line interface, in-process.

Generates a synthetic dataset, builds the vocabulary and knowledge-graph
table, splits the events, trains a small classifier for a few epochs, and
evaluates it on the unseen-drug (U1) split. Everything lands in a temporary
directory that is removed at the end; the printed manifest shows what each
stage recorded.
"""

import json
import tempfile
from pathlib import Path

from ddikit.cli import main as cli

TINY = {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 16, "max_len": 64,
        "conv_blocks": 2, "kg_heads": 2, "mlp1_hidden": 16, "mlp1_out": 16,
        "mlp2_hidden": 16, "epochs": 3, "batch_size": 16, "learning_rate": 3e-3}


def run(*argv):
    rc = cli([str(a) for a in argv])
    assert rc == 0, f"command failed: {argv}"


def main():
    with tempfile.TemporaryDirectory(prefix="ddikit_demo_") as tmp:
        pipeline(Path(tmp))


def pipeline(root: Path):
    print(f"working in {root}\n")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY))

    print("1. synthetic fixture")
    run("make-fixture", "--out-dir", root / "fix", "--seed", 7,
        "--set", "n_drugs=24", "--set", "n_events=120", "--set", "n_classes=3")

    print("2. vocabulary")
    run("vocab", "--corpus", root / "fix/corpus.txt",
        "--out-dir", root / "vocab", "--seed", 0)
    n_tokens = len((root / "vocab/vocab.txt").read_text().splitlines())
    print(f"   {n_tokens} tokens (incl. 4 reserved)")

    print("3. knowledge-graph embeddings")
    run("kg-train", "--triples", root / "fix/kg.tsv", "--out-dir", root / "kg",
        "--seed", 0, "--set", "dim=8", "--set", "epochs=10")

    print("4. splits")
    run("split", "--drugs", root / "fix/drugs.tsv",
        "--events", root / "fix/events.tsv", "--labels", root / "fix/labels.txt",
        "--out-dir", root / "split", "--seed", 0, "--set", "test_drug_fraction=0.2")
    splits = json.loads((root / "split/splits.json").read_text())
    print(f"   train {len(splits['train'])}, u1 {len(splits['u1'])}, "
          f"u2 {len(splits['u2'])}")

    data = ["--drugs", root / "fix/drugs.tsv", "--events", root / "fix/events.tsv",
            "--labels", root / "fix/labels.txt",
            "--splits", root / "split/splits.json",
            "--vocab", root / "vocab/vocab.txt",
            "--kg-table", root / "kg/kg_table.bin",
            "--kg-index", root / "kg/kg_table.index"]

    print("5. train")
    run("train", *data, "--out-dir", root / "run", "--seed", 0, "--config", cfg)
    for line in (root / "run/history.csv").read_text().splitlines():
        print(f"   {line}")

    print("6. evaluate on the unseen-drug split")
    run("eval", "--checkpoint", root / "run/model.ckpt", "--split", "u1",
        *data, "--out-dir", root / "ev", "--seed", 0)
    report = json.loads((root / "ev/metrics.json").read_text())
    print(f"   accuracy      {report['accuracy']:.3f}")
    print(f"   macro F1      {report['f1_macro']:.3f}")
    print(f"   micro ROC-AUC {report['auc']:.3f}")

    manifest = json.loads((root / "ev/manifest.json").read_text())
    print("\neval manifest:")
    print(f"   seed            {manifest['seed']}")
    print(f"   fingerprint     {manifest['config_fingerprint'][:16]}...")
    print(f"   inputs hashed   {len(manifest['inputs'])}")
    print(f"   outputs         {manifest['outputs']}")
    print(f"   wall clock      {manifest['wall_clock_seconds']:.2f}s")
    print("\npipeline complete")


if __name__ == "__main__":
    main()
