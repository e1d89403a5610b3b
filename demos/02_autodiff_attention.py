"""Scaled dot-product attention built on the autodiff core, trained to copy.

A single attention layer (learned query/key projections, identity values)
is trained so each position attends to itself, i.e. the attention output
reproduces the input. Gradients come from the reverse-mode tape; the update
rule is plain Adam. Loss should drop by several orders of magnitude.
"""

import numpy as np

from ddikit import Parameter, Tape, backward
from ddikit import autodiff as ad
from ddikit.optim import AdamState, adam_step, zero_grads


def main():
    rng = np.random.default_rng(0)
    n, d = 6, 8
    x = rng.standard_normal((n, d))

    w_q = Parameter(rng.standard_normal((d, d)) * 0.3, name="w_q")
    w_k = Parameter(rng.standard_normal((d, d)) * 0.3, name="w_k")
    params = {"w_q": w_q, "w_k": w_k}
    opt = AdamState(learning_rate=0.05)

    def forward():
        xt = ad.constant(x)
        q = ad.matmul(xt, w_q)
        k = ad.matmul(xt, w_k)
        out = ad.attention(q, k, xt)
        diff = ad.sub(out, xt)
        sq = ad.mul(diff, diff)
        return ad.scale(ad.tsum(sq), 1.0 / sq.data.size)

    for step in range(301):
        zero_grads(params)
        with Tape() as tape:
            loss = forward()
        backward(loss, tape)
        adam_step(params, opt)
        if step % 50 == 0:
            print(f"step {step:4d}  copy loss {float(loss.data):.6f}")

    # inspect the learned attention pattern: should be near-diagonal
    q = x @ w_q.data
    k = x @ w_k.data
    scores = q @ k.T / np.sqrt(d)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    print("\nattention weights (rows = queries):")
    for row in weights:
        print("  " + " ".join(f"{w:.2f}" for w in row))
    diag = float(np.mean(np.diag(weights)))
    print(f"\nmean diagonal weight: {diag:.3f} (1.0 = perfect self-attention)")
    assert diag > 0.9
    print("attention learned to copy: OK")


if __name__ == "__main__":
    main()
