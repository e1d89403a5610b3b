"""Benchmark worker: runs one workload in this process and prints its result.

``run.py`` starts this file with the BLAS thread count pinned in the
environment, so numpy picks it up when it loads. Usage (through run.py):

    python3 perfbench/run.py --workload finetune-paper --seed 1 --seconds 24 --trace 0

The last line of standard output is the result object; the lines before it
give the environment, the workload's traffic descriptors and a readable
report. A traced run (``--trace 1``) also writes its spans to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import ddikit  # noqa: E402
from ddikit import cli, kg  # noqa: E402
from ddikit.checkpoint import load_checkpoint, read_checkpoint  # noqa: E402
from ddikit.data import DdiEvent, DrugRecord, SplitBundle, load_dataset  # noqa: E402
from ddikit.fixtures import random_smiles_corpus  # noqa: E402
from ddikit.metrics import aupr, evaluate, roc_auc  # noqa: E402
from ddikit.model import DdiModel, ModelConfig  # noqa: E402
from ddikit.smiles import Vocabulary, encode_pair  # noqa: E402
from ddikit.training import FinetuneConfig, finetune, predict_scores  # noqa: E402

import tracer as tr  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_s": "s"}

# Paper-size inputs: drug-like molecules give 100-200 real tokens per pair
# out of max_len 500, as in the paper's data.
PAPER_DRUGS = 64
PAPER_EVENTS = 256
PAPER_CLASSES = 65
FINETUNE_BATCH = 4   # batch 8 peaks near 6 GB RSS on an 8 GB box
INFER_BATCH = 32     # the CLI eval default
# A pair scored alone and inside a batch of 32 agrees to ~1e-17 here (the
# head's batch norm makes scores float64). 1e-7 leaves room for BLAS kernels
# that round the float32 encoder differently by batch size.
BATCH1_ATOL = 1e-7
SETUP_REPEATS = 3


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_library() -> str | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            name = os.path.basename(line.split()[-1])
            if "blas" in name.lower() and ".so" in name:
                return line.split()[-1]
    return None


def environment() -> dict:
    """What the numbers ran on. The BLAS thread count is read back from the
    library after a matmul, not taken from the requested setting."""
    a = np.ones((256, 256), dtype=np.float32)
    a @ a
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "ddikit": ddikit.__version__,
           "blas": blas.get("name"), "blas_version": blas.get("version"),
           "blas_threads": None,
           "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20}
    path = _blas_library()
    if path:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for entry in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, entry)
            try:
                with open(os.path.join(base, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, "size")) as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            if kind in ("Unified", "Data"):
                env[f"l{level}_cache"] = size
    return env


def _cache_bytes(text: str | None) -> int:
    if not text:
        return 0
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One benchmark workload. ``op(k)`` runs operation k and returns (wall
    seconds, pairs, operations run, failed checks); it raises when the
    program fails. ``verify`` checks outputs outside the timed and traced
    span and returns how many checks it made."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def verify(self) -> int:
        return 0

    def final_checks(self):
        pass

    def instrument(self, tracer):
        pass

    def uninstrument(self):
        pass


class PaperWorkload(Workload):
    """Shared inputs of the two paper-size workloads: drug-like molecules of
    20-40 heavy atoms, random pairs over 65 classes, random KG pair vectors."""

    def setup(self):
        rng = np.random.default_rng(self.seed)
        corpus = random_smiles_corpus(PAPER_DRUGS, rng, min_atoms=20, max_atoms=40)
        self.drugs = {f"D{i:04d}": DrugRecord(f"D{i:04d}", s) for i, s in enumerate(corpus)}
        ids = sorted(self.drugs)
        self.events = []
        for _ in range(PAPER_EVENTS):
            a, b = rng.choice(PAPER_DRUGS, size=2, replace=False)
            self.events.append(DdiEvent(ids[a], ids[b], int(rng.integers(PAPER_CLASSES))))
        self.labels = np.array([ev.label for ev in self.events])
        self.pair_vecs = rng.normal(0.0, 0.05, size=(PAPER_EVENTS, 800))
        self.vocab = Vocabulary.build(corpus)
        self.model = DdiModel(ModelConfig(vocab_size=len(self.vocab), n_classes=PAPER_CLASSES),
                              seed=self.seed)

    def descriptors(self) -> dict:
        cfg = self.model.cfg
        n_real = [encode_pair(self.drugs[ev.drug_a].smiles, self.drugs[ev.drug_b].smiles,
                              self.vocab, cfg.max_len).n_real for ev in self.events]
        return {"real_tokens_per_pair_mean": float(np.mean(n_real)),
                "real_tokens_per_pair_max": int(max(n_real)), "max_len": cfg.max_len,
                "attention_tensor_bytes": self.batch * cfg.n_heads * cfg.max_len ** 2 * 4,
                "pairs_per_op": self.batch}

    def instrument(self, tracer):
        tr.instrument_model(tracer, self.model)

    def uninstrument(self):
        tr.uninstrument_model(self.model)

    def _indices(self, k: int) -> list[int]:
        return [(k * self.batch + j) % PAPER_EVENTS for j in range(self.batch)]


class FinetunePaper(PaperWorkload):
    name = "finetune-paper"
    batch = FINETUNE_BATCH

    def op(self, k: int):
        """One train step: a one-epoch finetune over exactly one batch."""
        cfg = FinetuneConfig(epochs=1, batch_size=self.batch, randomize=True,
                             seed=self.seed * 100003 + k)
        t0 = time.perf_counter()
        history, _ = finetune(self.model, self._indices(k), [], self.events, self.drugs,
                              self.vocab, self.pair_vecs, cfg)
        seconds = time.perf_counter() - t0
        loss = history[0].train_loss
        return seconds, self.batch, 1, [] if math.isfinite(loss) else [f"loss {loss}"]

    def final_checks(self):
        bad = [name for name, p in self.model.parameters().items()
               if p.grad is None or p.grad.shape != p.data.shape
               or not np.all(np.isfinite(p.grad))]
        check(not bad, f"parameters without a finite gradient of their shape: {bad[:5]}")

    def report(self, ops) -> dict:
        return {"train_pairs_per_s": (_median([p / t for t, p in ops]), "1/s")}


class InferPaper(PaperWorkload):
    name = "infer-paper"
    batch = INFER_BATCH

    def op(self, k: int):
        """One inference batch of 32 pairs, then the metrics over its scores."""
        idx = self._indices(k)
        truths = self.labels[idx]
        t0 = time.perf_counter()
        scores = predict_scores(self.model, idx, self.events, self.drugs, self.vocab,
                                self.pair_vecs, batch_size=self.batch,
                                max_len=self.model.cfg.max_len)
        evaluate(scores, truths, PAPER_CLASSES)
        roc_auc(scores, truths)
        aupr(scores, truths)
        seconds = time.perf_counter() - t0
        self.last = (idx, scores)
        if scores.shape != (self.batch, PAPER_CLASSES) or not np.all(np.isfinite(scores)):
            return seconds, self.batch, 1, [f"scores of shape {scores.shape} not finite"]
        err = float(np.abs(scores.sum(axis=1, dtype=np.float64) - 1.0).max())
        return seconds, self.batch, 1, [] if err <= 1e-5 else [f"rows sum to 1 within {err:.2e}"]

    def final_checks(self):
        """Pairs scored alone at batch 1 match their rows in the batch of 32,
        so an error that leaks across rows (masking, batch statistics) shows."""
        idx, scores = self.last
        n_real = [encode_pair(self.drugs[self.events[i].drug_a].smiles,
                              self.drugs[self.events[i].drug_b].smiles,
                              self.vocab, self.model.cfg.max_len).n_real for i in idx]
        rows = sorted({int(np.argmin(n_real)), int(np.argmax(n_real)), 0})
        for r in rows:
            alone = predict_scores(self.model, [idx[r]], self.events, self.drugs, self.vocab,
                                   self.pair_vecs, batch_size=1,
                                   max_len=self.model.cfg.max_len)
            diff = float(np.abs(alone[0] - scores[r]).max())
            check(diff <= BATCH1_ATOL, f"pair {idx[r]} at batch 1 differs by {diff:.2e}")

    def report(self, ops) -> dict:
        return {"infer_pairs_per_s": (_median([p / t for t, p in ops]), "1/s")}


# Small pipeline: a model small enough that the CLI's per-op Python cost and
# the KG, data, checkpoint and metrics layers all show next to the compute.
PIPE_DRUGS = 48
PIPE_EVENTS = 360
PIPE_CLASSES = 6
PIPE_KG_TRIPLES = 3000
PIPE_KG_COVER = 0.9     # share of fixture drugs that appear in the KG
PIPE_KG = {"dim": 400, "epochs": 24, "batch_size": 128}
PIPE_MODEL = {"d_model": 32, "n_layers": 2, "n_heads": 4, "d_ff": 64, "max_len": 96,
              "conv_blocks": 3, "mlp1_hidden": 64, "mlp1_out": 32, "mlp2_hidden": 64,
              "dropout": 0.1}
PIPE_PRETRAIN = {"epochs": 3, "batch_size": 16}
PIPE_TRAIN = {"epochs": 1, "batch_size": 16}


class PipelineSmall(Workload):
    name = "pipeline-small"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.stage_times: list[dict[str, float]] = []
        self.stage_pairs: dict[str, int] = {}

    def setup(self):
        """Write the benchmark's own KG and config files. The KG names most
        but not all fixture drugs, so pair embedding sees a miss rate."""
        rng = np.random.default_rng(self.seed)
        self.inputs = os.path.join(self.workdir, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        n_cover = int(round(PIPE_KG_COVER * PIPE_DRUGS))
        compounds = [f"Compound::D{i:04d}" for i in
                     sorted(rng.choice(PIPE_DRUGS, size=n_cover, replace=False))]
        genes = [f"Gene::G{i}" for i in range(400)]
        relations = ["targets", "binds", "upregulates", "downregulates", "interacts"]
        triples = set()
        while len(triples) < PIPE_KG_TRIPLES:
            if rng.random() < 0.5:
                head = compounds[rng.integers(len(compounds))]
            else:
                head = genes[rng.integers(len(genes))]
            triples.add((head, relations[rng.integers(len(relations))],
                         genes[rng.integers(len(genes))]))
        self.kg_path = os.path.join(self.inputs, "kg.tsv")
        with open(self.kg_path, "w", encoding="utf-8") as fh:
            for t in sorted(triples):
                fh.write("\t".join(t) + "\n")
        self.configs = {}
        for stage, cfg in (("pretrain", {**PIPE_MODEL, **PIPE_PRETRAIN}),
                           ("train", {**PIPE_MODEL, **PIPE_TRAIN}),
                           ("kg-train", PIPE_KG),
                           ("make-fixture", {"n_drugs": PIPE_DRUGS, "n_events": PIPE_EVENTS,
                                             "n_classes": PIPE_CLASSES}),
                           ("split", {"test_drug_fraction": 0.25})):
            path = os.path.join(self.inputs, f"{stage}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.configs[stage] = path

    def _commands(self, d: str) -> list[list[str]]:
        j = lambda *p: os.path.join(d, *p)  # noqa: E731
        data = ["--drugs", j("fix", "drugs.tsv"), "--events", j("fix", "events.tsv"),
                "--labels", j("fix", "labels.txt")]
        world = data + ["--splits", j("split", "splits.json"),
                        "--vocab", j("vocab", "vocab.txt"),
                        "--kg-table", j("kg", "kg_table.bin"),
                        "--kg-index", j("kg", "kg_table.index")]
        seed = ["--seed", str(self.seed)]
        c = self.configs
        return [
            ["make-fixture", "--out-dir", j("fix"), "--config", c["make-fixture"]] + seed,
            ["vocab", "--corpus", j("fix", "corpus.txt"), "--out-dir", j("vocab")] + seed,
            ["kg-train", "--triples", self.kg_path, "--out-dir", j("kg"),
             "--config", c["kg-train"]] + seed,
            ["split"] + data + ["--out-dir", j("split"), "--config", c["split"]] + seed,
            ["pretrain", "--corpus", j("fix", "corpus.txt"), "--vocab", j("vocab", "vocab.txt"),
             "--out-dir", j("pretrain"), "--config", c["pretrain"]] + seed,
            ["train"] + world + ["--pretrained", j("pretrain", "pretrained.ckpt"),
                                 "--out-dir", j("train"), "--config", c["train"]] + seed,
            ["eval", "--checkpoint", j("train", "model.ckpt"), "--split", "u1"] + world
            + ["--out-dir", j("eval")] + seed,
            ["seqlen", "--checkpoint", j("train", "model.ckpt"), "--split", "u2"] + world
            + ["--out-dir", j("seqlen")] + seed,
        ]

    def op(self, k: int):
        """One pass of the 8-subcommand pipeline in a fresh directory. Each
        subcommand counts as an operation; the pass takes the sum of their
        wall times."""
        d = self.pass_dir = os.path.join(self.workdir, f"pass{k}")
        times: dict[str, float] = {}
        failures = []
        log = io.StringIO()
        for argv in self._commands(d):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = cli.main(argv)
            times[argv[0]] = time.perf_counter() - t0
            out_dir = argv[argv.index("--out-dir") + 1]
            try:
                check(rc == 0, f"{argv[0]} exited {rc}: {log.getvalue()[-300:]}")
                with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
                    manifest = json.load(fh)
                check(manifest["subcommand"] == argv[0], f"{argv[0]}: manifest names "
                      f"{manifest['subcommand']}")
                for name in manifest["outputs"]:
                    path = os.path.join(out_dir, name)
                    check(os.path.isfile(path) and os.path.getsize(path) > 0,
                          f"{argv[0]}: listed output {name} missing or empty")
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                failures.append(f"{argv[0]}: {exc}")
                if rc != 0:
                    break
        if failures:
            return sum(times.values()), 0, len(times), failures
        self.stage_times.append(times)
        self._count_pairs(d)
        return sum(times.values()), sum(self.stage_pairs.values()), len(times), []

    def _count_pairs(self, d: str):
        with open(os.path.join(d, "split", "splits.json"), encoding="utf-8") as fh:
            bundle = SplitBundle.from_json(fh.read())
        with open(os.path.join(d, "fix", "corpus.txt"), encoding="utf-8") as fh:
            corpus = sum(1 for ln in fh if ln.strip())
        fold = len(bundle.folds[0])
        self.stage_pairs = {
            "pretrain": corpus * PIPE_PRETRAIN["epochs"],
            "train": (len(bundle.train) - fold) * PIPE_TRAIN["epochs"],
            "train_eval": fold * PIPE_TRAIN["epochs"],
            "eval": len(bundle.u1), "seqlen": len(bundle.u2)}

    def verify(self) -> int:
        """Check the last pass's metrics.json against a recomputation through
        load_checkpoint + predict_scores + evaluate, then delete the pass."""
        d = self.pass_dir
        try:
            drugs, events, label_map = load_dataset(os.path.join(d, "fix", "drugs.tsv"),
                                                    os.path.join(d, "fix", "events.tsv"),
                                                    os.path.join(d, "fix", "labels.txt"))
            with open(os.path.join(d, "split", "splits.json"), encoding="utf-8") as fh:
                bundle = SplitBundle.from_json(fh.read())
            vocab = Vocabulary.load(os.path.join(d, "vocab", "vocab.txt"))
            table = kg.load_table(os.path.join(d, "kg", "kg_table.bin"),
                                  os.path.join(d, "kg", "kg_table.index"))
            embedder = kg.PairEmbedder(table)
            pair_vecs = np.stack([embedder.pair_embedding(ev.drug_a, ev.drug_b)
                                  for ev in events])
            ckpt = os.path.join(d, "train", "model.ckpt")
            meta, _ = read_checkpoint(ckpt)
            model = DdiModel(ModelConfig(**meta["config"]), seed=self.seed)
            load_checkpoint(ckpt, model)
            scores = predict_scores(model, bundle.u1, events, drugs, vocab, pair_vecs,
                                    batch_size=32, max_len=model.cfg.max_len)
            truths = np.array([events[i].label for i in bundle.u1])
            want = evaluate(scores, truths, len(label_map)).to_json()
            with open(os.path.join(d, "eval", "metrics.json"), encoding="utf-8") as fh:
                got = fh.read().rstrip("\n")
            check(got == want, "metrics.json differs from the recomputed report")
            self.miss_rate = embedder.miss_rate
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return 1

    def descriptors(self) -> dict:
        out = {"kg_triples": PIPE_KG_TRIPLES, "kg_epochs": PIPE_KG["epochs"],
               "kg_dim": PIPE_KG["dim"], "kg_drug_cover": PIPE_KG_COVER,
               "max_len": PIPE_MODEL["max_len"], "pairs_per_stage": self.stage_pairs}
        if hasattr(self, "miss_rate"):
            out["kg_miss_rate"] = self.miss_rate
        return out

    def report(self, ops) -> dict:
        passes = self.stage_times[-len(ops):]  # the measured passes, not the warm-up
        med = {s: _median([t[s] for t in passes]) for s in passes[0]}
        p = self.stage_pairs
        kg_work = PIPE_KG_TRIPLES * PIPE_KG["epochs"]
        return {"train_pairs_per_s": ((p["train"] + p["train_eval"]) / med["train"], "1/s"),
                "infer_pairs_per_s": (p["eval"] / med["eval"], "1/s"),
                "pretrain_pairs_per_s": (p["pretrain"] / med["pretrain"], "1/s"),
                "kg_triples_per_s": (kg_work / med["kg-train"], "1/s"),
                "pipeline_s": (_median([t for t, _ in ops]), "s")}


WORKLOADS = {w.name: w for w in (FinetunePaper, InferPaper, PipelineSmall)}


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_ops(work, seconds: float, counter: Counter, first_op: int,
            tracer: tr.Tracer | None = None) -> list[tuple[float, int]]:
    """Closed loop: start operations back to back until ``seconds`` have
    passed, and at least one. Returns (wall seconds, pairs) per successful
    op. A failed operation or output check is counted, not fatal."""
    ops = []
    k = first_op
    deadline = time.perf_counter() + seconds
    while k == first_op or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = k
            span = tracer.begin("bench.op")
        try:
            seconds_k, pairs, n_ops, failures = work.op(k)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            seconds_k, pairs, n_ops, failures = 0.0, 0, 1, ["raised"]
        finally:
            if tracer is not None:
                tracer.end(span)
        counter.attempted += n_ops
        counter.failed += len(failures)
        for what in failures:
            print(f"op {k} failed: {what}", file=sys.stderr)
        if not failures:
            ops.append((seconds_k, pairs))
            try:
                counter.attempted += work.verify()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                counter.attempted += 1
                counter.failed += 1
        k += 1
    return ops


def op_s(ops) -> float:
    return _median([t for t, _ in ops])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    env = environment()
    counter = Counter()
    work = WORKLOADS[args.workload](args.seed, args.workdir)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup()
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    warm = run_ops(work, 0.0, counter, first_op=0)
    warmup_s = time.perf_counter() - t0
    if not warm:
        print("warm-up operation failed", file=sys.stderr)
        return 1
    setup_s = IMPORT_S + _median(builds) + warmup_s

    tracer = None
    if args.trace:
        untraced = run_ops(work, args.seconds / 2, counter, first_op=1)
        tracer = tr.Tracer()
        work.instrument(tracer)
        with tr.Patches() as patches:
            tr.install(tracer, patches, sys.modules[__name__])
            ops = run_ops(work, args.seconds / 2, counter, first_op=1000, tracer=tracer)
        work.uninstrument()
    else:
        ops = run_ops(work, args.seconds, counter, first_op=1)
    counter.attempted += 1
    try:
        work.final_checks()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        counter.failed += 1
    if not ops:
        print("every measured operation failed", file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    desc = work.descriptors()
    if "attention_tensor_bytes" in desc:
        for level in ("l2", "l3"):
            size = _cache_bytes(env.get(f"{level}_cache"))
            if size:
                desc[f"attention_bytes_per_{level}"] = desc["attention_tensor_bytes"] / size
    print("env " + json.dumps(env, sort_keys=True))
    print("descriptors " + json.dumps(desc, sort_keys=True))

    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "op_s": op_s(ops)}
    report = {name: (v, E2E_UNITS[name]) for name, v in values.items()}
    report.update(work.report(ops))
    report["error_rate"] = (counter.failed / counter.attempted, "ratio")
    mode = "traced" if tracer else "untraced"
    print(f"# {args.workload} seed {args.seed}: {len(ops)} {mode} ops, "
          f"{counter.attempted} attempted, {counter.failed} failed")
    for name, (v, unit) in report.items():
        print(f"{name:24s} {v:14.6g} {unit}")

    if tracer:
        layer = tr.per_layer_metrics(tracer.spans)
        base = op_s(untraced) if untraced else values["op_s"]
        layer["trace.overhead_pct"] = (values["op_s"] - base) / base * 100
        selfs = tr.self_times(tracer.spans)
        print("# self time by span (s, over the traced ops)")
        for name, row in sorted(selfs.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:28s} calls {row['count']:7d} self {row['self_s']:10.4f} "
                  f"total {row['total_s']:10.4f}")
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "descriptors": desc, "per_layer": layer, "self_times": selfs,
                       "spans": ["name start end parent op attrs".split()] + tracer.spans},
                      fh, default=float)
        metrics = {name: {"value": layer[name], "unit": tr.per_layer_unit(name)}
                   for name in tr.PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]}
                   for name in E2E_UNITS}
    print(json.dumps({"correct": counter.failed == 0, "attempted": counter.attempted,
                      "failed": counter.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
