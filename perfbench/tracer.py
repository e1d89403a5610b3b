"""In-memory span tracer and the wrappers that time ddikit's layers from
outside the package.

Nothing here edits ddikit's source. A traced run swaps module attributes
(``ddikit.training.backward``, ``ddikit.cli.save_checkpoint``, ...) and model
sub-module attributes (``model.encoder``, ``layer.attn``, ...) for wrappers
that record a span around each call, and puts the originals back afterwards.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

from ddikit import autodiff, cli, kg, training

# (module attribute, span name) pairs patched for a traced phase. A module
# that imported a name with ``from x import y`` is patched under that name.
TRAINING_PATCHES = (
    ("_encode_events", "training.encode"),
    ("randomize_smiles", "smiles.randomize"),
    ("encode_pair", "smiles.encode"),
    ("backward", "autodiff.backward"),
    ("adam_step", "optim.adam"),
    ("predict_scores", "training.eval"),
    ("save_checkpoint", "checkpoint.save"),
)
CLI_PATCHES = (
    ("finetune", "training.finetune"),
    ("predict_scores", "training.eval"),
    ("mlm_pretrain", "training.pretrain"),
    ("train_transe", "kg.train"),
    ("_pair_vectors", "kg.pair_embed"),
    ("save_checkpoint", "checkpoint.save"),
    ("load_checkpoint", "checkpoint.load"),
    ("load_dataset", "data.load_dataset"),
    ("evaluate", "metrics.evaluate"),
    ("roc_auc", "metrics.curves"),
    ("aupr", "metrics.curves"),
)
KG_PATCHES = (("transe_train_step", "kg.transe_step"),)

# DdiModel sub-modules, in forward order, and their span names.
MODEL_MODULES = (
    ("embeddings", "model.embed"),
    ("encoder", "model.encoder"),
    ("conv", "model.conv"),
    ("mlp1", "model.mlp1"),
    ("kg_attn", "model.kg_attn"),
    ("mlp2", "model.mlp2"),
)
LAYER_MODULES = (("attn", "model.encoder.attn"), ("ffn", "model.encoder.ffn"))

CLI_SUBCOMMANDS = ("make-fixture", "vocab", "kg-train", "split", "pretrain",
                   "train", "eval", "seqlen")

PER_LAYER = (
    "model.fwd_s", "model.embed.fwd_s", "model.encoder.fwd_s",
    "model.encoder.attn.fwd_s", "model.encoder.ffn.fwd_s", "model.conv.fwd_s",
    "model.mlp1.fwd_s", "model.kg_attn.fwd_s", "model.mlp2.fwd_s",
    "model.encoder.tape_bytes", "model.encoder.tape_entries",
    "model.conv.tape_bytes",
    "autodiff.backward_s", "autodiff.tape_entries", "autodiff.tape_bytes",
    "autodiff.minor_faults", "optim.adam_s",
    "smiles.randomize_s", "smiles.encode_s", "smiles.real_tokens_mean",
    "training.step_s_p50", "training.step_s_p90", "training.eval_s",
    "kg.transe_step_s", "kg.transe_steps", "kg.pair_embed_s", "kg.miss_rate",
    "checkpoint.save_s", "checkpoint.saves", "checkpoint.bytes",
    "checkpoint.load_s", "data.load_dataset_s", "metrics.evaluate_s",
    "metrics.curves_s",
) + tuple(f"cli.{name}_s" for name in CLI_SUBCOMMANDS) + ("trace.overhead_pct",)

_UNITS = {"model.encoder.tape_bytes": "B", "model.encoder.tape_entries": "count",
          "model.conv.tape_bytes": "B", "autodiff.tape_entries": "count",
          "autodiff.tape_bytes": "B", "autodiff.minor_faults": "count",
          "smiles.real_tokens_mean": "tokens", "training.step_s_p50": "s",
          "training.step_s_p90": "s", "kg.transe_steps": "count", "kg.miss_rate": "ratio",
          "checkpoint.saves": "count", "checkpoint.bytes": "B", "trace.overhead_pct": "%"}


def per_layer_unit(name: str) -> str:
    return _UNITS.get(name, "s")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _tape_stats(entries) -> tuple[int, int]:
    return len(entries), sum(e.output.data.nbytes for e in entries)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op, attrs].

    ``op`` is the index of the benchmark operation (train step, inference
    batch or pipeline pass) the span belongs to; spans of one operation share
    it. ``end`` closes the given span and any child an exception left open.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str, **attrs) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, **attrs):
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                break
        self.spans[idx][5].update(attrs)

    @property
    def recording(self) -> bool:
        """Spans are kept only inside a benchmark operation."""
        return bool(self._stack)

    def top(self) -> int:
        return self._stack[-1] if self._stack else -1

    def top_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name: str, before=None, after=None):
        """``before(args, kwargs) -> attrs`` and ``after(attrs, args, out)``
        add counts to the span."""
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.begin(name, **(before(args, kwargs) if before else {}))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after:
                after(self.spans[idx][5], args, out)
            return out
        traced.__wrapped__ = fn
        return traced


class TracedModule:
    """Stands in for a model sub-module: one span per call, plus the growth
    of the active autodiff tape across the call (0 under ``no_grad``)."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __call__(self, *args, **kwargs):
        if not self.tracer.recording:
            return self.inner(*args, **kwargs)
        tape = autodiff.active_tape()
        n0 = len(tape.entries) if tape is not None else 0
        idx = self.tracer.begin(self.name)
        try:
            return self.inner(*args, **kwargs)
        finally:
            self.tracer.end(idx)
            if tape is not None:
                entries, nbytes = _tape_stats(tape.entries[n0:])
                self.tracer.spans[idx][5].update(tape_entries=entries, tape_bytes=nbytes)


def instrument_model(tracer: Tracer, model):
    """Wrap a DdiModel instance's forward and sub-modules in place."""
    for layer in model.encoder.layers:
        for attr, name in LAYER_MODULES:
            setattr(layer, attr, TracedModule(tracer, name, getattr(layer, attr)))
    for attr, name in MODEL_MODULES:
        setattr(model, attr, TracedModule(tracer, name, getattr(model, attr)))
    model.forward = tracer.wrap(model.forward, "model.fwd")
    return model


def uninstrument_model(model):
    del model.forward  # drops the instance attribute; the class method shows again
    for attr, _ in MODEL_MODULES:
        setattr(model, attr, getattr(model, attr).inner)
    for layer in model.encoder.layers:
        for attr, _ in LAYER_MODULES:
            setattr(layer, attr, getattr(layer, attr).inner)


class Patches:
    """Context manager that swaps module attributes and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for obj, attr, value in reversed(self._saved):
            setattr(obj, attr, value)
        self._saved.clear()
        return False


def install(tracer: Tracer, patches: Patches, bench_module):
    """Patch ddikit's training/cli/kg entry points, and the names the
    benchmark module imported from ddikit, so every layer boundary records a
    span."""

    def step_begin(args, kwargs):
        # A fine-tuning step runs from the batch encode to the Adam update.
        # Eval batches inside finetune nest under training.eval and are skipped.
        if tracer.top_name() == "training.finetune":
            tracer.begin("training.step", minflt0=_minflt())
        return {"pairs": len(args[0])}

    def step_end(attrs, args, out):
        if tracer.top_name() == "training.step":
            idx = tracer.top()
            tracer.end(idx, minor_faults=_minflt() - tracer.spans[idx][5].pop("minflt0"))

    def tape_before(args, kwargs):
        entries, nbytes = _tape_stats(args[1].entries)
        return {"tape_entries": entries, "tape_bytes": nbytes}

    def eval_before(args, kwargs):
        batch = kwargs.get("batch_size", args[6] if len(args) > 6 else 32)
        return {"pairs": len(args[1]), "batches": -(-len(args[1]) // batch)}

    def ckpt_after(attrs, args, out):
        attrs["bytes"] = os.path.getsize(args[0])

    hooks = {
        "training.encode": dict(before=step_begin),
        "smiles.encode": dict(after=lambda a, args, out: a.update(n_real=out.n_real)),
        "autodiff.backward": dict(before=tape_before),
        "optim.adam": dict(after=step_end),
        "training.eval": dict(before=eval_before),
        "checkpoint.save": dict(after=ckpt_after),
        "kg.pair_embed": dict(after=lambda a, args, out: a.update(miss_rate=out[1].miss_rate)),
    }
    for module, table in ((training, TRAINING_PATCHES), (cli, CLI_PATCHES), (kg, KG_PATCHES)):
        for attr, name in table:
            patches.set(module, attr, tracer.wrap(getattr(module, attr), name,
                                                  **hooks.get(name, {})))
    for attr, name in (("finetune", "training.finetune"),
                       ("predict_scores", "training.eval"),
                       ("evaluate", "metrics.evaluate"),
                       ("roc_auc", "metrics.curves"), ("aupr", "metrics.curves")):
        patches.set(bench_module, attr, tracer.wrap(getattr(bench_module, attr), name,
                                                    **hooks.get(name, {})))
    model_cls = cli.DdiModel
    patches.set(cli, "DdiModel",
                lambda *a, **k: instrument_model(tracer, model_cls(*a, **k)))
    patches.set(cli, "main", tracer.wrap(cli.main, "cli.main",
                                         before=lambda args, kw: {"sub": args[0][0]}))


# ---------------------------------------------------------------------------
# deriving per-layer numbers from the spans
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def self_times(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds (the
    span's duration minus the part its children cover)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return out


class _Index:
    def __init__(self, spans):
        self.spans = spans
        self._memo: dict[tuple[int, str], int] = {}

    def nearest(self, i: int, unit: str) -> int:
        """Index of the closest ancestor named ``unit``, or -1."""
        key = (i, unit)
        if key not in self._memo:
            p = self.spans[i][3]
            if p < 0:
                self._memo[key] = -1
            elif self.spans[p][0] == unit:
                self._memo[key] = p
            else:
                self._memo[key] = self.nearest(p, unit)
        return self._memo[key]

    def units(self, unit: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == unit]

    def per_unit(self, name: str, unit: str, field: str | None = None,
                 units: list[int] | None = None) -> list[float]:
        """For each span named ``unit`` (or each of ``units``): the summed
        duration, or attribute ``field``, of the ``name`` spans under it."""
        sums = {u: 0.0 for u in (self.units(unit) if units is None else units)}
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            u = self.nearest(i, unit)
            if u in sums:
                if field == "count":
                    sums[u] += 1
                else:
                    sums[u] += s[5].get(field, 0) if field else s[2] - s[1]
        return list(sums.values())


def per_layer_metrics(spans) -> dict[str, float]:
    ix = _Index(spans)
    m: dict[str, float] = {}
    fwd = ix.units("model.fwd")
    m["model.fwd_s"] = _median([spans[i][2] - spans[i][1] for i in fwd])
    for _, name in MODEL_MODULES + LAYER_MODULES:
        m[f"{name}.fwd_s"] = _median(ix.per_unit(name, "model.fwd"))
    # tape growth only over the forwards of training steps; eval runs untaped
    taped = [i for i in fwd if ix.nearest(i, "training.step") >= 0]
    for metric, name, field in (("model.encoder.tape_bytes", "model.encoder", "tape_bytes"),
                                ("model.encoder.tape_entries", "model.encoder", "tape_entries"),
                                ("model.conv.tape_bytes", "model.conv", "tape_bytes")):
        m[metric] = _median(ix.per_unit(name, "model.fwd", field, units=taped))

    steps = ix.units("training.step")
    m["autodiff.backward_s"] = _median(ix.per_unit("autodiff.backward", "training.step"))
    m["autodiff.tape_entries"] = _median(ix.per_unit("autodiff.backward", "training.step", "tape_entries"))
    m["autodiff.tape_bytes"] = _median(ix.per_unit("autodiff.backward", "training.step", "tape_bytes"))
    m["autodiff.minor_faults"] = _median([spans[i][5].get("minor_faults", 0) for i in steps])
    m["optim.adam_s"] = _median(ix.per_unit("optim.adam", "training.step"))
    m["smiles.randomize_s"] = _median(ix.per_unit("smiles.randomize", "training.step"))
    m["smiles.encode_s"] = _median(ix.per_unit("smiles.encode", "training.encode"))
    n_real = [s[5]["n_real"] for s in spans if s[0] == "smiles.encode"]
    m["smiles.real_tokens_mean"] = sum(n_real) / len(n_real) if n_real else 0.0

    durations = sorted(spans[i][2] - spans[i][1] for i in steps)
    m["training.step_s_p50"] = _median(durations)
    m["training.step_s_p90"] = (statistics.quantiles(durations, n=10, method="inclusive")[8]
                                if len(durations) > 1 else _median(durations))
    evals = [s for s in spans if s[0] == "training.eval"]
    batches = sum(s[5]["batches"] for s in evals)
    m["training.eval_s"] = sum(s[2] - s[1] for s in evals) / batches if batches else 0.0

    m["kg.transe_step_s"] = _median([s[2] - s[1] for s in spans if s[0] == "kg.transe_step"])
    misses = [s[5]["miss_rate"] for s in spans if s[0] == "kg.pair_embed"]
    m["kg.miss_rate"] = sum(misses) / len(misses) if misses else 0.0
    # per operation: a train step, an inference batch or a pipeline pass
    for metric, name, field in (
            ("kg.transe_steps", "kg.transe_step", "count"),
            ("kg.pair_embed_s", "kg.pair_embed", None),
            ("checkpoint.save_s", "checkpoint.save", None),
            ("checkpoint.saves", "checkpoint.save", "count"),
            ("checkpoint.bytes", "checkpoint.save", "bytes"),
            ("checkpoint.load_s", "checkpoint.load", None),
            ("data.load_dataset_s", "data.load_dataset", None),
            ("metrics.evaluate_s", "metrics.evaluate", None),
            ("metrics.curves_s", "metrics.curves", None)):
        m[metric] = _median(ix.per_unit(name, "bench.op", field))
    for sub in CLI_SUBCOMMANDS:
        times = [s[2] - s[1] for s in spans if s[0] == "cli.main" and s[5]["sub"] == sub]
        m[f"cli.{sub}_s"] = _median(times)
    return m
