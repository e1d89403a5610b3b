"""A paper-shaped train step, and the runner that runs such scripts in a
child process. ``test_model`` runs the step at 1 and 2 OpenBLAS threads and
``test_golden`` checks its hashes against ``golden.json``.

The step: d_model 256, 2 encoder layers, max_len 500, 4 conv blocks,
float32, dropout 0.1, a batch of 4 with real lengths 146/141/129/101, then
one Adam step and an eval forward. It prints the sha256 of each gradient
group, as ``grad:<group>:<hash>``, of every parameter after Adam, as
``adam:<hash>``, and of the eval logits, as ``eval:<hash>``; then the
samples in a trunk tile, as ``tile:<n>``, and the workers its 4 samples'
tiles run on, as ``workers:<n>``."""

import os
import subprocess
import sys

import ddikit

TRAIN_STEP = """
import hashlib
import numpy as np
from ddikit import autodiff as ad, blas
from ddikit.model import DdiModel, ModelConfig
from ddikit.optim import AdamState, adam_step
model = DdiModel(ModelConfig(vocab_size=40, n_classes=7, n_layers=2, conv_blocks=4), seed=1)
rng = np.random.default_rng(3)
ids = rng.integers(4, 40, size=(4, 500))
ids[np.arange(500)[None, :] >= np.array([146, 141, 129, 101])[:, None]] = 0
batch = (ids, np.zeros_like(ids), ids != 0, rng.standard_normal((4, 800)))
tape = ad.Tape()
with tape:
    loss = ad.cross_entropy_loss(model.forward(*batch), [0, 3, 5, 6])
ad.backward(loss, tape)
params = model.parameters()
groups = {}
for name, p in params.items():
    groups.setdefault(name.split(".")[0], hashlib.sha256()).update(p.grad.tobytes())
adam_step(params, AdamState(learning_rate=1e-3))
after = hashlib.sha256(b"".join(p.data.tobytes() for p in params.values()))
model.eval()
with ad.no_grad():
    logits = model.forward(*batch).data
for group, digest in groups.items():
    print(f"grad:{group}:{digest.hexdigest()}")
print("adam:" + after.hexdigest(), "eval:" + hashlib.sha256(logits.tobytes()).hexdigest())
print(f"tile:{model.tile()}", f"workers:{blas.workers(-(-len(ids) // model.tile()))}")
"""


def run_script(script: str, threads: str | None = None) -> list[str]:
    """The words ``script`` prints, run by a child python that imports this
    ddikit, at ``OPENBLAS_NUM_THREADS=threads``; None keeps the inherited
    setting."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ddikit.__file__)))
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()
