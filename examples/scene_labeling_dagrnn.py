"""Scene labeling with DAG-RNN over pixel grids (Shuai et al. 2015).

The paper's second motivating domain: spatial relations in images modeled
as graphs.  Each image becomes a grid DAG; the DAG-RNN propagates context
along the dependence sweep, and a per-cell classifier labels every pixel.
This example also demonstrates the schedule restrictions for DAGs: the
simulated device refuses unrolling and refactoring (§3.1), and leaf
specialization buys nothing because a grid has a single leaf (§7.3).

Run:  python examples/scene_labeling_dagrnn.py
"""

import os

import numpy as np

import repro
from repro import CompileOptions
from repro.data import grid_dag_batch
from repro.errors import ScheduleError
from repro.linearizer import iter_nodes
from repro.runtime import SimSchedule, V100, estimate

GRID = 10
HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "256"))
LABELS = 8  # terrain classes


def main() -> None:
    rng = np.random.default_rng(3)
    model = repro.compile("dagrnn", hidden=HIDDEN, num_cells=GRID * GRID * 4,
                          rng=rng)

    images = grid_dag_batch(4, GRID, GRID)
    res = model.run(images)
    cost = estimate(model, images, V100)

    # label every cell of the first image
    head = rng.standard_normal((LABELS, HIDDEN)).astype(np.float32) * 0.1
    h_all = res.output("rnn")
    cells = list(iter_nodes([images[0]]))
    ids = np.array([res.lin.node_id(c) for c in cells])
    scores = h_all[ids] @ head.T
    labels = scores.argmax(axis=1)
    grid = np.zeros((GRID, GRID), int)
    for cell, lbl in zip(cells, labels):
        r, c = divmod(cell.word, GRID)
        grid[r, c] = lbl
    print("predicted label grid (image 0):")
    for row in grid:
        print("  " + " ".join(str(v) for v in row))

    print(f"\nsimulated V100 latency: {cost.total_time_s * 1e3:.3f} ms "
          f"({cost.barriers} barriers over "
          f"{res.lin.num_batches} wavefront levels)")

    # DAG schedule restrictions (§3.1): nodes with multiple parents would
    # be recomputed, so the simulated device refuses an unrolled schedule
    try:
        estimate(model, images, V100, SimSchedule(unroll=True))
    except ScheduleError as e:
        print(f"\nSimSchedule(unroll=True) on dagrnn correctly refused: {e}")

    # specialization is legal but useless here: one leaf per grid
    spec = repro.compile("dagrnn", CompileOptions(specialize=False),
                         hidden=HIDDEN, num_cells=GRID * GRID * 4,
                         rng=np.random.default_rng(3))
    cost2 = estimate(spec, images, V100)
    delta = abs(cost2.total_time_s - cost.total_time_s)
    print(f"specialization effect: {delta / cost.total_time_s * 100:.1f}% "
          f"(a grid has {res.lin.num_leaves} leaf of {res.lin.num_nodes} "
          f"nodes - nothing to specialize)")


if __name__ == "__main__":
    main()
