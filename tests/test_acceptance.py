"""Acceptance criteria, one test per criterion. Each test prints (via the
terminal summary) a single pass/fail line with the measured quantity.

Desk-scale configurations stand in for the full-size network wherever a
criterion is about correctness rather than scale: the architecture is
identical, only the widths and depths shrink to fit the runtime budgets.
"""

import json
import time

import numpy as np
import pytest

from ddikit import autodiff as ad
from ddikit.autodiff import Tape, Tensor, backward, no_grad
from ddikit.checkpoint import load_checkpoint, save_checkpoint
from ddikit.cli import main as cli_main
from ddikit.data import (DdiEvent, DrugRecord, load_dataset,
                         make_inductive_splits, sts_series, verify_split)
from ddikit.fixtures import make_dataset_fixture, random_smiles_corpus
from ddikit.kg import TransEConfig, train_transe, transe_score
from ddikit.metrics import aggregate, aupr, confusion, roc_auc
from ddikit.model import (DdiModel, ModelConfig, MultiHeadAttention,
                          ParamStore, PretrainModel,
                          transfer_encoder_weights)
from ddikit.optim import zero_grads
from ddikit.smiles import (Vocabulary, canonical_smiles, encode_pair,
                           parse_smiles, randomize_smiles, tokenize)
from ddikit.training import (FinetuneConfig, PretrainConfig, finetune,
                             make_pretrain_pairs, mask_sequence, mlm_pretrain)

from conftest import record_criterion
from gradcheck import check_grads, check_model_grads
from test_kg import id_triples
from test_metrics import brute_ap, brute_auc, brute_f1, random_instance
from test_model import attention_oracle, mha_oracle


def tiny_model_config(**over):
    base = dict(vocab_size=12, n_classes=3, d_model=4, n_layers=1, n_heads=2,
                d_ff=4, max_len=8, kg_dim=4, kg_heads=2, conv_blocks=2,
                mlp1_hidden=4, mlp1_out=4, mlp2_hidden=4, dropout=0.0,
                dtype="float64")
    base.update(over)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------

def primitive_battery(seed: int) -> float:
    """One composite expression touching every differentiable primitive."""
    rng = np.random.default_rng(seed)
    r = lambda *s: rng.standard_normal(s)
    x = r(2, 3, 4)
    x[np.abs(x) < 1e-3] = 0.5
    arrays = {
        "x": x, "w": r(4, 5), "bias": r(5), "tab": r(6, 3),
        "g": 1.0 + 0.1 * r(3), "b2": r(3),
        "cw": r(2, 3, 3), "cb": r(2), "logits": r(4, 3),
    }
    ids = rng.integers(6, size=(2, 4))
    targets = rng.integers(3, size=4)
    c = ad.constant(r(2, 3, 4), dtype=np.float64)

    def build(t):
        h = ad.matmul(t["x"], t["w"])                       # [2, 3, 5]
        h = ad.add(h, t["bias"])
        h = ad.relu(h)
        h = ad.softmax(h)
        a = ad.tsum(ad.mul(h, h), axis=-1)                  # [2, 3]
        emb = ad.embedding_lookup(t["tab"], ids)            # [2, 4, 3]
        e = ad.scale(ad.tsum(emb, axis=1), 1.0 / 4)         # [2, 3], mean over 4 tokens
        m = ad.concat([a, e], axis=1)                       # [2, 6]
        m = ad.reshape(m, (2, 6))
        ln = ad.layer_norm(ad.transpose(t["x"], (0, 2, 1)),
                           ad.constant(np.ones(3), dtype=np.float64),
                           ad.constant(np.zeros(3), dtype=np.float64))
        bn = ad.batch_norm(ad.scale(t["x"], 0.5), t["g"], t["b2"],
                           np.zeros(3), np.ones(3), training=True)
        bn = ad.mul(bn, c)
        conv = ad.conv1d(ad.sub(t["x"], ad.constant(np.full((2, 3, 4), 0.1),
                                                    dtype=np.float64)),
                         t["cw"], t["cb"])
        pooled = ad.max_pool1d(conv, 2)
        drop = ad.dropout(ad.leaky_relu(t["x"]),
                          ad.dropout_keep(t["x"].shape, 0.4, np.random.default_rng(7)), 0.4)
        ce = ad.cross_entropy_loss(t["logits"], targets)
        pieces = [ad.tsum(z) for z in (m, ln, bn, pooled, drop)]
        total = ce
        for p in pieces:
            total = ad.add(total, p)
        return total

    return check_grads(build, arrays)


def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    worst = 0.0
    n_seeds = 20
    for seed in range(n_seeds):
        worst = max(worst, primitive_battery(seed))

        cfg = tiny_model_config()
        model = DdiModel(cfg, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        ids = rng.integers(4, 12, size=(2, 8))
        ids[:, 6:] = 0
        segs = (np.arange(8) >= 4).astype(np.int64) * np.ones((2, 1), np.int64)
        mask = ids != 0
        pair = rng.standard_normal((2, 4))
        targets = rng.integers(3, size=2)

        def build_loss():
            return ad.cross_entropy_loss(model.forward(ids, segs, mask, pair),
                                         targets)

        worst = max(worst, check_model_grads(model, build_loss))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 120
    record_criterion(1, ok, f"gradient fidelity: max rel err {worst:.2e} over "
                            f"{n_seeds} seeds, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 120


# ---------------------------------------------------------------------------
# criterion 2: attention formula oracles
# ---------------------------------------------------------------------------

def test_criterion_2_attention_oracles():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 7))
        q = rng.standard_normal((2, n, d))
        k = rng.standard_normal((2, n, d))
        v = rng.standard_normal((2, n, d))
        with no_grad():
            got = ad.attention(
                Tensor(q, dtype=np.float64), Tensor(k, dtype=np.float64),
                Tensor(v, dtype=np.float64)).data
        worst = max(worst, float(np.abs(got - attention_oracle(q, k, v)).max()))

        heads = int(rng.choice([1, 2, 3]))
        d_model = heads * int(rng.integers(2, 5))
        store = ParamStore(np.random.default_rng(seed + 500), np.float64)
        mha = MultiHeadAttention(store, "m", d_model, heads)
        x = rng.standard_normal((2, n, d_model))
        with no_grad():
            got = mha(Tensor(x, dtype=np.float64)).data
        want = mha_oracle(x, store.params, "m", heads)
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst < 1e-6
    record_criterion(2, ok, f"attention formula oracles: max abs err {worst:.2e} "
                            f"over 100 instances")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: SMILES soundness
# ---------------------------------------------------------------------------

def test_criterion_3_smiles_soundness():
    from test_smiles import CURATED
    rng = np.random.default_rng(2024)
    corpus = CURATED + random_smiles_corpus(1000 - len(CURATED), rng)
    assert len(corpus) == 1000
    wrng = np.random.default_rng(9)
    n_iso = n_tok = 0
    for s in corpus:
        want = canonical_smiles(parse_smiles(s))
        alt = randomize_smiles(s, wrng)
        if canonical_smiles(parse_smiles(alt)) == want:
            n_iso += 1
        if "".join(tokenize(s)) == s and "".join(tokenize(alt)) == alt:
            n_tok += 1
    ok = n_iso == 1000 and n_tok == 1000
    record_criterion(3, ok, f"SMILES soundness: {n_iso}/1000 isomorphic "
                            f"re-serializations, {n_tok}/1000 exact "
                            f"tokenize round-trips")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: split correctness
# ---------------------------------------------------------------------------

def test_criterion_4_split_correctness():
    n_ok = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_drugs = int(rng.integers(12, 40))
        ids = [f"D{i}" for i in range(n_drugs)]
        drugs = {d: DrugRecord(d, "C") for d in ids}
        events = []
        seen = set()
        for _ in range(int(rng.integers(40, 120))):
            a, b = rng.choice(n_drugs, size=2, replace=False)
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            events.append(DdiEvent(ids[int(a)], ids[int(b)], int(rng.integers(4))))
        frac = float(rng.uniform(0.1, 0.35))
        bundle = make_inductive_splits(events, drugs, frac, rng)
        verify_split(bundle, events)  # raises on any violation
        sizes = [len(f) for f in bundle.folds]
        assert max(sizes) - min(sizes) <= 1
        assert len(bundle.train) + len(bundle.u1) + len(bundle.u2) == len(events)
        n_ok += 1
    ok = n_ok == 50
    record_criterion(4, ok, f"split correctness: invariants hold on {n_ok}/50 "
                            f"random fixtures")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_metric_oracles():
    worst = 0.0
    worst_recall = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        scores, truths, m = random_instance(rng)
        preds = scores.argmax(axis=1)
        cm = confusion(preds, truths, m)
        report = aggregate(cm)

        support = np.array([(truths == c).sum() for c in range(m)])
        f1s = np.array([brute_f1(preds, truths, c) for c in range(m)])
        worst = max(worst, abs(report.accuracy - (preds == truths).mean()))
        worst = max(worst, abs(report.f1_weighted
                               - float((f1s * support).sum() / support.sum())))
        worst = max(worst, abs(report.f1_macro - float(f1s[support > 0].mean())))
        worst_recall = max(worst_recall,
                           abs(report.recall_weighted - report.accuracy))

        onehot = np.zeros_like(scores, dtype=np.int64)
        onehot[np.arange(len(truths)), truths] = 1
        roc_pc, roc_micro = roc_auc(scores, truths)
        pr_pc, pr_micro = aupr(scores, truths)
        for c, curve in roc_pc.items():
            worst = max(worst, abs(curve.auc - brute_auc(scores[:, c], onehot[:, c])))
        worst = max(worst, abs(roc_micro.auc
                               - brute_auc(scores.reshape(-1), onehot.reshape(-1))))
        for c, curve in pr_pc.items():
            worst = max(worst, abs(curve.aupr - brute_ap(scores[:, c], onehot[:, c])))
        worst = max(worst, abs(pr_micro.aupr
                               - brute_ap(scores.reshape(-1), onehot.reshape(-1))))

        # MCC against the indicator-matrix correlation construction
        n = len(truths)
        X = np.zeros((n, m))
        Y = np.zeros((n, m))
        X[np.arange(n), preds] = 1
        Y[np.arange(n), truths] = 1
        cov = lambda a, b: ((a - a.mean(0)) * (b - b.mean(0))).sum()
        den = np.sqrt(cov(X, X)) * np.sqrt(cov(Y, Y))
        want_mcc = cov(X, Y) / den if den > 0 else 0.0
        worst = max(worst, abs(report.mcc - want_mcc))
    ok = worst < 1e-9 and worst_recall < 1e-12
    record_criterion(5, ok, f"metric oracles: max abs err {worst:.2e}, "
                            f"weighted recall vs accuracy {worst_recall:.2e}, "
                            f"100 instances")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: masked-token pretraining learns
# ---------------------------------------------------------------------------

def structured_corpus(n, rng):
    """Chains, rings and branches over a small alphabet: enough regularity
    that context genuinely predicts masked tokens."""
    out = []
    for _ in range(n):
        kind = int(rng.integers(3))
        k = int(rng.integers(2, 9))
        if kind == 0:
            s = "C" * (k + 2)
        elif kind == 1:
            s = "C1" + "C" * k + "C1"
        else:
            s = "CC(" + "C" * int(rng.integers(1, 4)) + ")" + "C" * k
        if rng.random() < 0.4:
            i = int(rng.integers(len(s)))
            if s[i] == "C":
                s = s[:i] + "O" + s[i + 1:]
        parse_smiles(s)
        out.append(s)
    return out


def masked_loss_sample(model, corpus, vocab, max_len, rng, n_pairs=40):
    pairs = make_pretrain_pairs(len(corpus), rng)
    total = count = 0
    with no_grad():
        for i, j in pairs[:n_pairs]:
            seq = encode_pair(corpus[i], corpus[j], vocab, max_len)
            mids, plan = mask_sequence(seq, 0.15, rng)
            logits = model.masked_logits(mids[None], seq.segment_ids[None],
                                         seq.attention_mask[None], plan.positions)
            loss = ad.cross_entropy_loss(logits, plan.original_ids).item()
            total += loss * len(plan.positions)
            count += len(plan.positions)
    return total / count


def test_criterion_6_mlm_learning():
    rng = np.random.default_rng(0)
    corpus = structured_corpus(100, rng)
    vocab = Vocabulary.build(corpus)
    cfg = tiny_model_config(vocab_size=len(vocab), d_model=32, n_heads=2,
                            d_ff=32, max_len=48, dtype="float32")
    model = PretrainModel(cfg, seed=0)
    init = masked_loss_sample(model, corpus, vocab, 48, np.random.default_rng(99))
    ln_v = float(np.log(len(vocab)))
    pcfg = PretrainConfig(epochs=50, batch_size=8, learning_rate=3e-3, seed=0)
    history = mlm_pretrain(model, corpus, vocab, pcfg)
    final = history[-1]
    ok = abs(init - ln_v) <= 0.1 * ln_v and final < 0.5 * init
    record_criterion(6, ok, f"masked-token learning: initial {init:.3f} "
                            f"(ln V = {ln_v:.3f}), after 50 epochs {final:.3f} "
                            f"({final / init:.0%} of initial)")
    assert abs(init - ln_v) <= 0.1 * ln_v
    assert final < 0.5 * init


# ---------------------------------------------------------------------------
# criterion 7: overfit smoke
# ---------------------------------------------------------------------------

def test_criterion_7_overfit_smoke(tmp_path):
    t0 = time.time()
    paths = make_dataset_fixture(tmp_path / "fix", n_drugs=30, n_events=200,
                                 n_classes=8, seed=11)
    drugs, events, label_map = load_dataset(paths["drugs"], paths["events"],
                                            paths["labels"])
    vocab = Vocabulary.build([d.smiles for d in drugs.values()])
    rng = np.random.default_rng(0)
    pair_vecs = rng.standard_normal((len(events), 16))
    cfg = ModelConfig(vocab_size=len(vocab), n_classes=8, d_model=16,
                      n_layers=1, n_heads=2, d_ff=16, max_len=64, kg_dim=16,
                      kg_heads=2, conv_blocks=2, mlp1_hidden=32, mlp1_out=16,
                      mlp2_hidden=64, dropout=0.0)
    model = DdiModel(cfg, seed=0)
    fcfg = FinetuneConfig(epochs=100, batch_size=16, learning_rate=2e-3,
                          weight_decay=0.0, randomize=False, seed=0)
    history, _ = finetune(model, list(range(200)), [], events, drugs, vocab,
                          pair_vecs, fcfg)
    best = max(r.train_accuracy for r in history)
    hit = next((r.epoch for r in history if r.train_accuracy >= 0.95), None)
    elapsed = time.time() - t0
    ok = best >= 0.95 and elapsed < 600
    record_criterion(7, ok, f"overfit smoke: train accuracy {best:.1%} "
                            f"(>= 95% at epoch {hit}), {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: transfer + checkpoint integrity
# ---------------------------------------------------------------------------

def test_criterion_8_transfer_and_checkpoints(tmp_path):
    cfg = tiny_model_config(vocab_size=16, max_len=16)
    src = PretrainModel(cfg, seed=1)
    dst = DdiModel(cfg, seed=2)
    transfer_encoder_weights(src, dst)
    src.eval()
    dst.eval()
    rng = np.random.default_rng(0)
    ids = rng.integers(4, 16, size=(2, 16))
    segs = np.zeros_like(ids)
    mask = np.ones_like(ids, dtype=bool)
    with no_grad():
        enc_same = np.array_equal(src.trunk(ids, segs, mask).data,
                                  dst.trunk(ids, segs, mask).data)

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, dst, epoch=3)
    dst2 = DdiModel(cfg, seed=77)
    load_checkpoint(path, dst2)
    dst2.eval()
    pair = rng.standard_normal((2, cfg.kg_dim))
    with no_grad():
        fwd_same = np.array_equal(dst.forward(ids, segs, mask, pair).data,
                                  dst2.forward(ids, segs, mask, pair).data)
    ok = enc_same and fwd_same
    record_criterion(8, ok, f"transfer + checkpoints: encoder outputs identical "
                            f"after transfer ({enc_same}), save/load/forward "
                            f"bit-identical ({fwd_same})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: KG embedding sanity
# ---------------------------------------------------------------------------

def test_criterion_9_kg_embedding_sanity():
    rows = [(f"e{i}", f"r{i % 3}", f"e{(i + 1) % 8}") for i in range(12)]
    triples, index = id_triples(rows)
    cfg = TransEConfig(dim=16, epochs=200, batch_size=4, learning_rate=0.05,
                       seed=1)
    table, _ = train_transe(triples, index, cfg)

    E, R = table.entities, table.relations
    hs, rs, ts = triples.T
    pos = float(transe_score(E[hs], R[rs], E[ts], p=1).mean())
    crng = np.random.default_rng(2)
    neg = float(np.mean([transe_score(E[hs], R[rs],
                                      E[crng.integers(len(index.entities), size=len(triples))],
                                      p=1).mean() for _ in range(20)]))
    max_norm = float(np.linalg.norm(E, axis=1).max())

    irng = np.random.default_rng(3)
    h, r, t = irng.standard_normal((3, 7))
    shift = irng.standard_normal(7)
    inv_err = max(abs(transe_score(h, r, t, p=p)
                      - transe_score(h + shift, r, t + shift, p=p))
                  for p in (1, 2))
    ok = pos < neg and max_norm <= 1 + 1e-6 and inv_err < 1e-6
    record_criterion(9, ok, f"KG embedding sanity: mean positive {pos:.3f} < "
                            f"corrupted {neg:.3f}, max entity norm {max_norm:.6f}, "
                            f"translation invariance err {inv_err:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: end-to-end determinism
# ---------------------------------------------------------------------------

def run_pipeline(root, tag):
    cfg = root / "tiny.json"
    if not cfg.exists():
        cfg.write_text(json.dumps({
            "d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 8,
            "max_len": 32, "conv_blocks": 2, "kg_heads": 2, "mlp1_hidden": 8,
            "mlp1_out": 8, "mlp2_hidden": 8, "epochs": 1, "batch_size": 8,
            "learning_rate": 1e-3}))

    def run(*argv):
        rc = cli_main([str(a) for a in argv])
        assert rc == 0, f"pipeline step failed: {argv}"

    out = root / tag
    run("make-fixture", "--out-dir", out / "fix", "--seed", 5,
        "--set", "n_drugs=14", "--set", "n_events=40", "--set", "n_classes=3")
    run("vocab", "--corpus", out / "fix/corpus.txt", "--out-dir", out / "vocab",
        "--seed", 0)
    run("kg-train", "--triples", out / "fix/kg.tsv", "--out-dir", out / "kg",
        "--seed", 0, "--set", "dim=4", "--set", "epochs=2")
    run("split", "--drugs", out / "fix/drugs.tsv", "--events",
        out / "fix/events.tsv", "--labels", out / "fix/labels.txt",
        "--out-dir", out / "split", "--seed", 0,
        "--set", "test_drug_fraction=0.2")
    run("pretrain", "--corpus", out / "fix/corpus.txt", "--vocab",
        out / "vocab/vocab.txt", "--out-dir", out / "pre", "--seed", 0,
        "--config", cfg)
    data = ["--drugs", out / "fix/drugs.tsv", "--events", out / "fix/events.tsv",
            "--labels", out / "fix/labels.txt", "--splits",
            out / "split/splits.json", "--vocab", out / "vocab/vocab.txt",
            "--kg-table", out / "kg/kg_table.bin", "--kg-index",
            out / "kg/kg_table.index"]
    run("train", *data, "--pretrained", out / "pre/pretrained.ckpt",
        "--out-dir", out / "run", "--seed", 0, "--config", cfg)
    run("eval", "--checkpoint", out / "run/model.ckpt", "--split", "u1",
        *data, "--out-dir", out / "ev", "--seed", 0)
    return (out / "ev/metrics.json").read_bytes()


def test_criterion_10_end_to_end_determinism(tmp_path):
    a = run_pipeline(tmp_path, "a")
    b = run_pipeline(tmp_path, "b")
    ok = a == b
    record_criterion(10, ok, f"end-to-end determinism: metric JSON "
                             f"byte-identical across reruns ({ok}), "
                             f"{len(a)} bytes")
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: shrinking-training-set harness
# ---------------------------------------------------------------------------

def test_criterion_11_sts_harness(tmp_path):
    events = [DdiEvent("A", "B", i % 4) for i in range(400)]
    rng = np.random.default_rng(0)
    series = sts_series(list(range(400)), events, rng)
    step_err = max(abs(len(series[k + 1]) - round(0.9 * len(series[k])))
                   for k in range(len(series) - 1))
    terminated = len(series[-1]) <= 0.075 * len(series[0])

    # the harness emits (train fraction, accuracy) rows on fixture data
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 8, "max_len": 32,
        "conv_blocks": 2, "kg_heads": 2, "mlp1_hidden": 8, "mlp1_out": 8,
        "mlp2_hidden": 8, "epochs": 1, "batch_size": 8,
        "learning_rate": 1e-3}))

    def run(*argv):
        rc = cli_main([str(a) for a in argv])
        assert rc == 0, f"sts step failed: {argv}"

    run("make-fixture", "--out-dir", tmp_path / "fix", "--seed", 3,
        "--set", "n_drugs=14", "--set", "n_events=50", "--set", "n_classes=2")
    run("vocab", "--corpus", tmp_path / "fix/corpus.txt",
        "--out-dir", tmp_path / "vocab", "--seed", 0)
    run("kg-train", "--triples", tmp_path / "fix/kg.tsv",
        "--out-dir", tmp_path / "kg", "--seed", 0,
        "--set", "dim=4", "--set", "epochs=2")
    run("split", "--drugs", tmp_path / "fix/drugs.tsv", "--events",
        tmp_path / "fix/events.tsv", "--labels", tmp_path / "fix/labels.txt",
        "--out-dir", tmp_path / "split", "--seed", 0,
        "--set", "test_drug_fraction=0.2")
    run("sts", "--drugs", tmp_path / "fix/drugs.tsv", "--events",
        tmp_path / "fix/events.tsv", "--labels", tmp_path / "fix/labels.txt",
        "--splits", tmp_path / "split/splits.json", "--vocab",
        tmp_path / "vocab/vocab.txt", "--kg-table", tmp_path / "kg/kg_table.bin",
        "--kg-index", tmp_path / "kg/kg_table.index",
        "--out-dir", tmp_path / "sts", "--seed", 0, "--config", cfg,
        "--set", "min_class_count=2")
    lines = (tmp_path / "sts/sts.csv").read_text().splitlines()
    header_ok = lines[0] == ("step,train_fraction,train_size,eval_accuracy,"
                             "u1_accuracy,u2_accuracy")
    fracs = [float(ln.split(",")[1]) for ln in lines[1:]]
    accs = [float(ln.split(",")[3]) for ln in lines[1:]]
    axes_ok = (header_ok and fracs[0] == 1.0
               and all(f2 < f1 for f1, f2 in zip(fracs, fracs[1:]))
               and all(0.0 <= a <= 1.0 for a in accs))
    ok = step_err <= 1 and terminated and axes_ok
    record_criterion(11, ok, f"shrinking-set harness: per-step size within "
                             f"+/-{step_err} of 0.9^k arithmetic, terminates at "
                             f"{len(series[-1])}/{len(series[0])} "
                             f"(<= 7.5%), fraction/accuracy series emitted "
                             f"({axes_ok})")
    assert ok
