"""Command-line pipeline driver.

Subcommands: make-fixture, vocab, kg-train, kg-export, split, pretrain,
train, eval, sts, seqlen. Every run writes a manifest (config fingerprint,
seed, input checksums, outputs, wall time, environment) into --out-dir, and
all randomness derives from --seed, so a run is reproducible from its
manifest on the same machine and BLAS, at any thread count.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, blas
from .atomic import csv_lines, write_lines
from .checkpoint import (CheckpointError, config_fingerprint, load_checkpoint,
                         read_checkpoint, save_checkpoint)
from .data import (DataError, SplitBundle, load_dataset, load_drugs,
                   make_inductive_splits, seqlen_bins, sts_series, verify_split)
from .fixtures import make_dataset_fixture
from .kg import (ID_TEMPLATE, PairEmbedder, TransEConfig, TripleError, load_table,
                 load_triples, save_table, train_transe)
from .metrics import curves_to_csv, evaluate, roc_auc, aupr
from .model import DdiModel, ModelConfig, PretrainModel, transfer_encoder_weights
from .smiles import SmilesError, Vocabulary, VocabularyError
from .training import (FinetuneConfig, PretrainConfig, accuracy, finetune,
                       mlm_pretrain, predict_scores)


class ConfigError(ValueError):
    pass


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            cfg[key] = json.loads(raw)
        except ValueError:
            cfg[key] = raw
    return cfg


def _formats_id(template) -> bool:
    """Whether ``template`` formats each drug id into its own KG entity name."""
    try:
        return template.format(id="a") != template.format(id="b")
    except (LookupError, ValueError, AttributeError, TypeError):
        return False


# The keys only the CLI reads: default, range, and the test of that range; a
# value must also have its default's type. eval_fold has neither here:
# _cv_fold checks it, as it checks --split foldK.
_CLI_KEYS = {
    "n_drugs": (40, ">= 2", lambda n: n >= 2),
    "n_events": (300, ">= 1", lambda n: n >= 1),
    "n_classes": (8, ">= 1", lambda n: n >= 1),
    "min_count": (1, ">= 1", lambda n: n >= 1),
    "n_folds": (5, ">= 2", lambda n: n >= 2),
    "test_drug_fraction": (0.15, "in [0, 1)", lambda x: 0 <= x < 1),
    "id_template": (ID_TEMPLATE, "a format string with an {id} field", _formats_id),
    "eval_fold": (0, None, None),
    "batch_size": (32, ">= 1", lambda n: n >= 1),
    "bin_width": (25, ">= 1", lambda n: n >= 1),
    "min_class_count": (5, ">= 1", lambda n: n >= 1),
}


def _typed(key: str, value, default):
    """``value``, if it has the type of ``default``: an int passes for a
    float, a bool never for an int, and nothing is converted."""
    if type(value) is not type(default) and (type(default), type(value)) != (float, int):
        raise ConfigError(f"{key} must be {type(default).__name__}, got {value!r}")
    return value


def _config(cfg: dict, dc_types, keys) -> dict:
    """``cfg`` with the CLI ``keys``' defaults filled in. Rejects any other key
    that is not a field of ``dc_types``, and a CLI key of the wrong type or range."""
    unknown = set(cfg) - set(keys) - {f.name for dc in dc_types for f in dataclasses.fields(dc)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in keys:
        default, rule, in_range = _CLI_KEYS[key]
        if key in cfg and in_range and not in_range(_typed(key, cfg[key], default)):
            raise ConfigError(f"{key} must be {rule}, got {cfg[key]!r}")
    return {**{key: _CLI_KEYS[key][0] for key in keys}, **cfg}


def _take_fields(cfg: dict, dc_type, **fixed):
    """Build ``dc_type`` from its fields in cfg, each of its default's type,
    and ``fixed``: the values the run sets, which cfg may not set."""
    fields = [f for f in dataclasses.fields(dc_type) if f.name in cfg]
    for f in fields:
        if f.name in fixed:
            raise ConfigError(f"{f.name} is set by the run, not by the config")
    kwargs = {f.name: _typed(f.name, cfg[f.name], f.default) for f in fields}
    return _configured(dc_type, **kwargs, **fixed)


def _configured(fn, /, *args, **kwargs):
    """``fn(*args, **kwargs)``, a ValueError it raises being a config error:
    a value the config set, or more than this machine's RAM."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_manifest(args, config, outputs, t0):
    """``config`` is what ``_config`` gave the handler; the manifest puts it
    over the defaults of the row's dataclass fields, except the fields the
    run sets: those with no default, ``seed`` (from --seed) and ``kg_dim``
    (from the KG table)."""
    row = _SUBCOMMANDS[args.subcommand]
    inputs = [getattr(args, name) for name in row.files]
    config = {**{f.name: f.default for dc in row.configs for f in dataclasses.fields(dc)
                 if f.default is not dataclasses.MISSING and f.name not in ("seed", "kg_dim")},
              **config}
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "seed": args.seed,
        "effective_config": config,
        "config_fingerprint": config_fingerprint(config),
        "inputs": {str(p): _sha256(p) for p in inputs if p},
        "outputs": [os.path.basename(str(p)) for p in outputs],
        "wall_clock_seconds": round(time.time() - t0, 3),
        "environment": _environment(),
    }
    write_lines(_out(args, "manifest.json"), [json.dumps(manifest, indent=2, sort_keys=True)])


def _environment() -> dict:
    """What the run's numbers came from: the BLAS numpy was built with, the
    thread count it started with, which is the worker count, and the core
    whose kernels it runs, which sets a product's bits (both None without
    OpenBLAS), the cores this process may run on and the machine's RAM
    (None where the OS does not say)."""
    built = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    ram, build = blas.ram_bytes(), blas.build()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": built.get("name"), "blas_version": built.get("version"),
            "blas_threads": blas.threads(), "blas_core": None if build is None else build[1],
            "cores": len(cores) if cores else os.cpu_count(),
            "ram_mb": None if ram is None else ram // 2**20}


def _out(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _read_corpus(path, least: int = 1) -> list[str]:
    """The molecules of ``path``, one a line; fewer than ``least`` is a data error."""
    with open(path, encoding="utf-8") as fh:
        corpus = [ln.strip() for ln in fh if ln.strip()]
    if len(corpus) < least:
        raise DataError(f"{path}: needs at least {least} molecules, has {len(corpus)}")
    return corpus


def _pair_vectors(events, table, id_template) -> tuple[np.ndarray, PairEmbedder]:
    embedder = PairEmbedder(table, id_template=id_template)
    vecs = np.stack([embedder.pair_embedding(ev.drug_a, ev.drug_b) for ev in events])
    return vecs, embedder


def _build_model(model_cls, cfg: dict, seed: int, **fixed):
    """``model_cls`` with the ModelConfig fields in cfg and ``fixed``; one
    larger than this machine's RAM is a config error too."""
    return _configured(model_cls, _take_fields(cfg, ModelConfig, **fixed), seed=seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_make_fixture(args, cfg):
    paths = _configured(make_dataset_fixture, args.out_dir, cfg["n_drugs"], cfg["n_events"],
                        cfg["n_classes"], seed=args.seed)
    return list(paths.values())


def cmd_vocab(args, cfg):
    corpus = _read_corpus(args.corpus)
    vocab = Vocabulary.build(corpus, min_count=cfg["min_count"])
    out = _out(args, "vocab.txt")
    vocab.save(out)
    return [out]


def cmd_kg_train(args, cfg):
    tcfg = _take_fields(cfg, TransEConfig, seed=args.seed)
    triples, index = load_triples(args.triples)
    table, history = _configured(train_transe, triples, index, tcfg)
    bin_path = _out(args, "kg_table.bin")
    idx_path = _out(args, "kg_table.index")
    save_table(table, bin_path, idx_path)
    loss_path = _out(args, "kg_loss.csv")
    write_lines(loss_path, csv_lines("epoch,loss", enumerate(history)))
    return [bin_path, idx_path, loss_path]


def cmd_kg_export(args, cfg):
    table = load_table(args.table, args.index)
    embedder = PairEmbedder(table, id_template=cfg["id_template"])
    out = _out(args, "drug_vectors.tsv")
    ids = list(load_drugs(args.drugs))
    write_lines(out, (d + "\t" + " ".join(f"{x:.8g}" for x in embedder.entity_vector(d))
                      for d in ids))
    print(f"exported {len(ids)} drugs, miss rate {embedder.miss_rate:.3f}")
    return [out]


def cmd_split(args, cfg):
    drugs, events, _ = load_dataset(args.drugs, args.events, args.labels)
    rng = np.random.default_rng(args.seed)
    bundle = make_inductive_splits(events, drugs, cfg["test_drug_fraction"], rng,
                                   n_folds=cfg["n_folds"])
    verify_split(bundle, events)
    out = _out(args, "splits.json")
    write_lines(out, [bundle.to_json()])
    return [out]


def cmd_pretrain(args, cfg):
    pcfg = _take_fields(cfg, PretrainConfig, seed=args.seed)
    corpus = _read_corpus(args.corpus, least=2)  # each molecule is paired with another
    vocab = Vocabulary.load(args.vocab)
    model = _build_model(PretrainModel, cfg, args.seed, vocab_size=len(vocab), n_classes=2)
    history = mlm_pretrain(model, corpus, vocab, pcfg,
                           progress=lambda e, l: print(f"epoch {e}: mlm loss {l:.4f}"))
    ckpt = _out(args, "pretrained.ckpt")
    save_checkpoint(ckpt, model, epoch=pcfg.epochs, vocab=vocab.tokens)
    loss_path = _out(args, "pretrain_loss.csv")
    write_lines(loss_path, csv_lines("epoch,loss", enumerate(history)))
    return [ckpt, loss_path]


def _load_training_world(args, cfg):
    """The dataset, splits, vocabulary and per-event KG pair vectors that
    train, eval, sts and seqlen share, plus the embedder that built the
    vectors (for its miss rate)."""
    drugs, events, label_map = load_dataset(args.drugs, args.events, args.labels)
    with open(args.splits, encoding="utf-8") as fh:
        bundle = SplitBundle.from_json(fh.read())
    verify_split(bundle, events)
    vocab = Vocabulary.load(args.vocab)
    table = load_table(args.kg_table, args.kg_index)
    pair_vecs, embedder = _pair_vectors(events, table, cfg["id_template"])
    return drugs, events, label_map, bundle, vocab, pair_vecs, embedder


def _load_model(path, model_cls, seed: int, vocab: Vocabulary, labels=None):
    """Build ``model_cls`` with the architecture stored in the checkpoint at
    ``path`` and load its weights into it. The checkpoint must have been
    trained with ``vocab`` and, if given, ``labels`` (in class-id order)."""
    meta, _ = read_checkpoint(path)
    try:
        model = model_cls(ModelConfig(**meta["config"]), seed=seed)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: stored config is not a model config: {exc}") from exc
    load_checkpoint(path, model, vocab=vocab.tokens, labels=labels)
    return model


def _load_scorer(args, vocab: Vocabulary, label_map: dict[str, int],
                 pair_vecs: np.ndarray) -> DdiModel:
    """The --checkpoint model, checked against the vocabulary, the labels and
    the KG pair vectors it is to read."""
    model = _load_model(args.checkpoint, DdiModel, args.seed, vocab, list(label_map))
    if len(vocab) != model.cfg.vocab_size:
        raise DataError(f"--vocab has {len(vocab)} tokens; the checkpoint's model "
                        f"has {model.cfg.vocab_size}")
    if pair_vecs.shape[1] != model.cfg.kg_dim:
        raise DataError(f"--kg-table gives pair vectors of width {pair_vecs.shape[1]}; "
                        f"the checkpoint's model takes kg_dim {model.cfg.kg_dim}")
    return model


def _transfer(pretrained: PretrainModel, model: DdiModel):
    """Copy the pretrained encoder into ``model``; a checkpoint built with
    another architecture is a config error."""
    try:
        transfer_encoder_weights(pretrained, model)
    except ValueError as exc:
        raise ConfigError(f"--pretrained checkpoint does not fit the model: {exc}") from exc


def _fold(bundle: SplitBundle, k) -> list[int]:
    """The event indices of cross-validation fold ``k``."""
    if type(k) is not int or not 0 <= k < len(bundle.folds):
        raise ConfigError(f"fold {k!r} is not an integer in [0, {len(bundle.folds)})")
    return bundle.folds[k]


def _cv_fold(bundle: SplitBundle, k) -> tuple[list[int], list[int]]:
    """(train, eval) event indices with cross-validation fold ``k`` held out;
    the train part may not be empty."""
    held_out = _fold(bundle, k)
    train = [i for f, fold in enumerate(bundle.folds) if f != k for i in fold]
    if not train:
        raise DataError(f"holding out fold {k} leaves no training events")
    return train, held_out


def cmd_train(args, cfg):
    fcfg = _take_fields(cfg, FinetuneConfig, seed=args.seed)
    drugs, events, label_map, bundle, vocab, pair_vecs, embedder = \
        _load_training_world(args, cfg)
    train_idx, eval_idx = _cv_fold(bundle, cfg["eval_fold"])
    model = _build_model(DdiModel, cfg, args.seed, vocab_size=len(vocab),
                         n_classes=len(label_map), kg_dim=pair_vecs.shape[1])
    if args.pretrained:
        _transfer(_load_model(args.pretrained, PretrainModel, args.seed, vocab), model)
    ckpt = _out(args, "model.ckpt")
    history, best = finetune(model, train_idx, eval_idx, events, drugs, vocab,
                             pair_vecs, fcfg, checkpoint_path=ckpt,
                             class_names=list(label_map),
                             progress=lambda r: print(
                                 f"epoch {r.epoch}: loss {r.train_loss:.4f} "
                                 f"train_acc {r.train_accuracy:.3f} eval_acc {r.eval_accuracy:.3f}"))
    hist_path = _out(args, "history.csv")
    write_lines(hist_path, csv_lines("epoch,train_loss,train_accuracy,eval_accuracy",
                                     (dataclasses.astuple(r) for r in history)))
    print(f"best eval accuracy {best:.4f}; kg miss rate {embedder.miss_rate:.3f}")
    return [ckpt, hist_path]


def _select_split(bundle: SplitBundle, name: str) -> list[int]:
    """The event indices of split ``name``, which may not be empty."""
    if name in ("train", "u1", "u2"):
        indices = getattr(bundle, name)
    elif name.startswith("fold"):
        k = name[4:]
        indices = _fold(bundle, int(k) if k.isdecimal() else k)
    else:
        raise ConfigError(f"unknown split {name!r} (use train, u1, u2 or foldK)")
    if not indices:
        raise DataError(f"split {name!r} is empty")
    return indices


def cmd_eval(args, cfg):
    drugs, events, label_map, bundle, vocab, pair_vecs, _ = _load_training_world(args, cfg)
    indices = _select_split(bundle, args.split)
    model = _load_scorer(args, vocab, label_map, pair_vecs)
    scores = predict_scores(model, indices, events, drugs, vocab, pair_vecs,
                            batch_size=cfg["batch_size"])
    truths = np.array([events[i].label for i in indices])
    report = evaluate(scores, truths, len(label_map))
    outputs = []
    for name, lines in (("metrics.json", [report.to_json()]),
                        ("roc.csv", curves_to_csv(*roc_auc(scores, truths))),
                        ("pr.csv", curves_to_csv(*aupr(scores, truths)))):
        outputs.append(_out(args, name))
        write_lines(outputs[-1], lines)
    print(report.to_json())
    return outputs


def cmd_sts(args, cfg):
    fcfg = _take_fields(cfg, FinetuneConfig, seed=args.seed)
    drugs, events, label_map, bundle, vocab, pair_vecs, _ = _load_training_world(args, cfg)
    train_idx, eval_idx = _cv_fold(bundle, cfg["eval_fold"])
    pretrained = (_load_model(args.pretrained, PretrainModel, args.seed, vocab)
                  if args.pretrained else None)
    rng = np.random.default_rng(args.seed)
    series = sts_series(train_idx, events, rng, min_class_count=cfg["min_class_count"])
    rows = []
    start = len(series[0])
    for step, subset in enumerate(series):
        model = _build_model(DdiModel, cfg, args.seed + step, vocab_size=len(vocab),
                             n_classes=len(label_map), kg_dim=pair_vecs.shape[1])
        if pretrained is not None:
            _transfer(pretrained, model)
        finetune(model, subset, [], events, drugs, vocab, pair_vecs, fcfg)
        accs = {name: accuracy(model, idx, events, drugs, vocab, pair_vecs, fcfg.batch_size)
                if idx else float("nan")
                for name, idx in (("eval", eval_idx), ("u1", bundle.u1), ("u2", bundle.u2))}
        rows.append((step, len(subset) / start, len(subset),
                     accs["eval"], accs["u1"], accs["u2"]))
        print(f"sts step {step}: size {len(subset)} eval {accs['eval']:.3f}")
    out = _out(args, "sts.csv")
    write_lines(out, csv_lines(
        "step,train_fraction,train_size,eval_accuracy,u1_accuracy,u2_accuracy", rows))
    return [out]


def cmd_seqlen(args, cfg):
    drugs, events, label_map, bundle, vocab, pair_vecs, _ = _load_training_world(args, cfg)
    indices = _select_split(bundle, args.split)
    model = _load_scorer(args, vocab, label_map, pair_vecs)
    bins = seqlen_bins(indices, events, drugs, cfg["bin_width"], max_len=model.cfg.max_len)
    rows = [(lo, accuracy(model, idx, events, drugs, vocab, pair_vecs, cfg["batch_size"]),
             len(idx)) for lo, idx in sorted(bins.items())]
    out = _out(args, "seqlen.csv")
    write_lines(out, csv_lines("bin_lo,mean_accuracy,count", rows))
    return [out]


# ---------------------------------------------------------------------------
# the subcommand table: it builds the parser, names the files the manifest
# hashes and gives main() each handler with the config it takes
# ---------------------------------------------------------------------------

class _Subcommand(NamedTuple):
    handler: Callable
    help: str
    files: tuple[str, ...] = ()  # each read from --NAME, required but for --pretrained
    configs: tuple[type, ...] = ()  # the dataclasses whose fields it takes as config keys
    keys: tuple[str, ...] = ()  # the _CLI_KEYS it takes


# The dataset files that train, eval, sts and seqlen read.
_WORLD = ("drugs", "events", "labels", "splits", "vocab", "kg_table", "kg_index")

_SUBCOMMANDS = {
    "make-fixture": _Subcommand(cmd_make_fixture, "generate a synthetic dataset",
                                keys=("n_drugs", "n_events", "n_classes")),
    "vocab": _Subcommand(cmd_vocab, "build the token vocabulary", ("corpus",),
                         keys=("min_count",)),
    "kg-train": _Subcommand(cmd_kg_train, "train KG embeddings", ("triples",), (TransEConfig,)),
    "kg-export": _Subcommand(cmd_kg_export, "export per-drug KG vectors",
                             ("table", "index", "drugs"), keys=("id_template",)),
    "split": _Subcommand(cmd_split, "build CV + inductive splits", ("drugs", "events", "labels"),
                         keys=("test_drug_fraction", "n_folds")),
    "pretrain": _Subcommand(cmd_pretrain, "masked-token pretraining", ("corpus", "vocab"),
                            (ModelConfig, PretrainConfig)),
    "train": _Subcommand(cmd_train, "supervised fine-tuning", _WORLD + ("pretrained",),
                         (ModelConfig, FinetuneConfig), ("eval_fold", "id_template")),
    "eval": _Subcommand(cmd_eval, "evaluate a checkpoint on a split", ("checkpoint",) + _WORLD,
                        keys=("id_template", "batch_size")),
    "sts": _Subcommand(cmd_sts, "shrinking-training-set analysis", _WORLD + ("pretrained",),
                       (ModelConfig, FinetuneConfig),
                       ("eval_fold", "id_template", "min_class_count")),
    "seqlen": _Subcommand(cmd_seqlen, "accuracy by input token length",
                          ("checkpoint",) + _WORLD,
                          keys=("id_template", "bin_width", "batch_size")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddikit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, row in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        for file in row.files:
            p.add_argument("--" + file.replace("_", "-"), required=file != "pretrained")
            if file == "checkpoint":
                p.add_argument("--split", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = _load_config(args)
        row = _SUBCOMMANDS[args.subcommand]
        cfg = _config(cfg, row.configs, row.keys)
        # the program's own finite checks are the one report of a numeric failure
        with np.errstate(all="ignore"):
            outputs = row.handler(args, cfg)
        _write_manifest(args, cfg, outputs, t0)
        return 0
    except ConfigError as exc:
        print(f"ddikit:error:config: {exc}", file=sys.stderr)
        return 2
    except (DataError, TripleError, SmilesError, VocabularyError, CheckpointError,
            OSError, UnicodeDecodeError) as exc:
        print(f"ddikit:error:data: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"ddikit:error:numeric: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
