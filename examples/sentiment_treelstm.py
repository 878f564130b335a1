"""Sentiment classification over parse trees with a compiled TreeLSTM.

The workload of the paper's introduction: textual data, represented as
parse trees, fed to TreeLSTM (Tai et al. 2015).  This example adds a small
sentiment head on top of the compiled recursive portion and compares the
compiled execution against the PyTorch-like eager baseline, reporting both
agreement and the simulated speedup — the end-to-end experience a user of
the real system would have.

Run:  python examples/sentiment_treelstm.py
"""

import os

import numpy as np

import repro
from repro.baselines import pytorch_like
from repro.data import synthetic_treebank
from repro.models import get_model
from repro.runtime import V100, estimate

HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "256"))
VOCAB = 1000
CLASSES = 5  # SST's 5-way sentiment labels


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def main() -> None:
    rng = np.random.default_rng(42)
    model = repro.compile("treelstm", hidden=HIDDEN, vocab=VOCAB, rng=rng)
    head_W = rng.standard_normal((CLASSES, HIDDEN)).astype(np.float32) * 0.1
    head_b = rng.standard_normal(CLASSES).astype(np.float32) * 0.1

    sentences = synthetic_treebank(10, vocab_size=VOCAB, rng=rng)

    # compiled inference; one root row per sentence, in order
    res = model.run(sentences)
    h = res.root_output("rnn_h_ph")
    probs = softmax(h @ head_W.T + head_b)
    labels = probs.argmax(axis=1)

    # eager baseline for comparison
    base = pytorch_like.run("treelstm", model.params, sentences, V100)
    h_base = np.stack([base.states[0][base.lin.node_id(s)]
                       for s in sentences])
    probs_base = softmax(h_base @ head_W.T + head_b)
    agree = np.allclose(probs, probs_base, atol=1e-4)

    print("sentence predictions (5-way sentiment):")
    for i, lbl in enumerate(labels):
        print(f"  sentence {i}: class {lbl} (p={probs[i, lbl]:.3f})")
    print(f"\ncompiled == eager: {bool(agree)}")
    compiled_s = estimate(model, sentences, V100).total_time_s
    print(f"compiled latency:  {compiled_s * 1e3:.3f} ms (simulated)")
    print(f"eager latency:     {base.latency_s * 1e3:.3f} ms (simulated)")
    print(f"speedup:           {base.latency_s / compiled_s:.1f}x")


if __name__ == "__main__":
    main()
