"""Author a never-seen recursive model declaratively, end to end.

The cell math below is the ONLY thing written by hand — a gated TreeRNN
variant that is not in the zoo, expressed once as RA computes.  The
framework derives everything the zoo models used to hand-maintain:
parameter shapes + seeded initializers, a recursive reference evaluator
(the RA interpreter — bit-faithful to the compiled kernels), and the
registry metadata.  After ``register()`` the model flows through the same
machinery as any zoo model: ``repro.compile``, serving with cross-request
coalescing, and artifact export/reload.

Run:  python examples/custom_model.py
"""

import os
import tempfile

import numpy as np

import repro
from repro.authoring import model
from repro.data import synthetic_treebank
from repro.ir import reduce_axis, reduce_sum, sigmoid, tanh
from repro.linearizer import StructureKind
from repro.ra import NUM_NODES, isleaf
from repro.tools.artifact import load_model, save_model

HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "64"))
VOCAB = 200


@model("gated_treernn", kind=StructureKind.TREE, max_children=2,
       hs=64, hl=128)
def gated_treernn(p, hidden, vocab):
    """h(n) = g * tanh(W (h_l + h_r)) with g = sigmoid(Wg (h_l + h_r))."""
    Emb = p.input_tensor((vocab, hidden), "Emb")
    W = p.input_tensor((hidden, hidden), "W")
    Wg = p.input_tensor((hidden, hidden), "Wg")
    ph = p.placeholder((NUM_NODES, hidden), "h_ph")

    leaf_h = p.compute((NUM_NODES, hidden), lambda n, i: Emb[n.word, i],
                       "leaf_h")
    hsum = p.compute((NUM_NODES, hidden),
                     lambda n, i: ph[n.left, i] + ph[n.right, i], "hsum")

    def matvec(Wt, name):
        def body(n, i):
            k = reduce_axis(hidden, p.fresh("k"))
            return reduce_sum(Wt[i, k.var] * hsum[n, k.var], k)
        return p.compute((NUM_NODES, hidden), body, name)

    rec_h = p.compute(
        (NUM_NODES, hidden),
        lambda n, i: sigmoid(matvec(Wg, "mg")[n, i])
        * tanh(matvec(W, "mh")[n, i]), "rec_h")
    body = p.if_then_else((NUM_NODES, hidden),
                          lambda n, i: (isleaf(n), leaf_h, rec_h), "body_h")
    p.recursion_op(ph, body, "rnn")


def main() -> None:
    gated_treernn.register()          # now a first-class citizen by name
    trees = synthetic_treebank(6, vocab_size=VOCAB,
                               rng=np.random.default_rng(3))

    # compile: derived parameters, no random_params written anywhere
    m = repro.compile("gated_treernn", hidden=HIDDEN, vocab=VOCAB)
    res = m.run(trees)
    roots_out = res.root_output("rnn")  # one row per tree, in order
    print(f"compiled {m.spec.name}: outputs={list(m.outputs)}, "
          f"root batch {roots_out.shape}")

    # the derived reference (RA interpreter) is bit-identical to execution
    ref = gated_treernn.reference(trees, m.params)
    exact = all(np.array_equal(roots_out[i], ref[id(t)])
                for i, t in enumerate(trees))
    print(f"derived reference matches compiled output bitwise: {exact}")

    # serve it: cross-request coalescing through the same model
    server = m.server()
    handles = [server.submit([t]) for t in trees]
    server.flush()
    served = np.stack([h.result().root_output("rnn")[0] for h in handles])
    print(f"served (coalesced) == run: {np.array_equal(served, roots_out)}")
    server.drain()

    # artifact round trip: deploy without the compiler
    with tempfile.TemporaryDirectory() as d:
        save_model(m, d)
        deployed = load_model(d)
        r2 = deployed.run(trees)
        again = r2.root_output("rnn")
        print(f"artifact reload == run: {np.array_equal(again, roots_out)}")


if __name__ == "__main__":
    main()
