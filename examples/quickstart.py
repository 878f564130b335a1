"""Quickstart: compile and run a recursive model in a dozen lines.

Compiles the child-sum TreeLSTM with the paper's headline schedule
(dynamic batching + specialization + maximal fusion), runs it over a batch
of synthetic parse trees on this host, and prints the outputs and the
measured time.  A last, separately labelled step asks the simulated V100
cost model what the paper's GPU would take.

Run:  python examples/quickstart.py
"""

import os

import numpy as np

import repro
from repro.data import synthetic_treebank
from repro.runtime import V100, estimate

#: the CI smoke lane runs every example at a small hidden size
HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "256"))

def main() -> None:
    # 1. compile: model zoo name + hidden size; the default schedule is the
    #    paper's full optimization stack
    model = repro.compile("treelstm", hidden=HIDDEN, vocab=1000)

    # 2. inputs: ten random parse trees with SST-like shape statistics
    trees = synthetic_treebank(10, vocab_size=1000,
                               rng=np.random.default_rng(0))

    # 3. run: the linearizer lowers the trees to arrays on the host, then
    #    the generated kernels execute over NumPy
    result = model.run(trees)

    # one row per tree, in the order the trees were given
    h_roots = result.root_output("rnn_h_ph")
    print(f"root hidden states: {h_roots.shape}")          # (10, HIDDEN)
    assert np.array_equal(h_roots[3],
                          model.run([trees[3]]).root_output("rnn_h_ph")[0])
    print(f"host wall time:     {result.wall_time_s * 1e3:.3f} ms (measured)")

    # 4. simulated: the V100 cost model prices the same lowered module
    #    without running it (a model of the paper's GPU, never a claim)
    c = estimate(model, trees, V100)
    print(f"V100 latency:       {c.total_time_s * 1e3:.3f} ms (simulated)")
    print(f"  kernel launches:  {c.kernel_launches}")
    print(f"  global barriers:  {c.barriers}")
    print(f"  linearization:    {c.linearization_s * 1e6:.1f} us")

    # 5. the generated code is a real, inspectable artifact
    lines = model.python_source.splitlines()
    start = next(i for i, l in enumerate(lines) if "def k_fused" in l)
    print("\n--- generated fused kernel (excerpt) ---")
    print("\n".join(lines[start:start + 14]))


if __name__ == "__main__":
    main()
