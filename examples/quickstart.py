"""Quickstart: compile and run a recursive model in a dozen lines.

Compiles the child-sum TreeLSTM with the paper's headline schedule
(dynamic batching + specialization + maximal fusion + persistence), runs it
over a batch of synthetic parse trees on the simulated V100, and prints the
outputs and the simulated latency breakdown.

Run:  python examples/quickstart.py
"""

import os

import numpy as np

import repro
from repro.data import synthetic_treebank
from repro.runtime import V100

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
    #    the generated kernels execute over NumPy while the cost model
    #    charges the simulated device
    result = model.run(trees, device=V100)

    h_roots = result.root_output("rnn_h_ph")
    print(f"root hidden states: {h_roots.shape}")          # (10, HIDDEN)
    print(f"simulated latency:  {result.simulated_time_s * 1e3:.3f} ms")
    c = result.cost
    print(f"  kernel launches:  {c.kernel_launches}")
    print(f"  global barriers:  {c.barriers}")
    print(f"  linearization:    {c.linearization_s * 1e6:.1f} us")

    # 4. the generated code is a real, inspectable artifact
    lines = model.python_source.splitlines()
    start = next(i for i, l in enumerate(lines) if "def k_fused" in l)
    print("\n--- generated fused kernel (excerpt) ---")
    print("\n".join(lines[start:start + 14]))


if __name__ == "__main__":
    main()
