"""Auto-tuning a model's schedule by grid search (§6 of the paper).

The Cortex prototype does not auto-schedule; it sweeps schedule parameters
by grid search and keeps the fastest.  This example tunes SimpleTreeGRU on
the simulated V100, shows the ranking, and explains the winner using the
compilation report — including why recursive refactoring made the cut here
but would not for the full TreeGRU (footnote 4 / Fig. 10c).  Only fusion
and specialization change the generated code, so the search compiles
those points and estimates every simulated schedule
(:class:`~repro.runtime.SimSchedule`) on them.

Run:  python examples/autotune_schedule.py
"""

import os

import numpy as np

import dataclasses

import repro
from repro import CompileOptions
from repro.analysis import compilation_report
from repro.data import synthetic_treebank
from repro.runtime import SimSchedule, V100
from repro.tune import grid_search

VOCAB = 1000
HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "256"))


def main() -> None:
    trees = synthetic_treebank(10, vocab_size=VOCAB,
                               rng=np.random.default_rng(0))

    print("=== grid search: SimpleTreeGRU on simulated V100 ===")
    result = grid_search("simple_treegru", HIDDEN, trees, V100, vocab=VOCAB)
    print(result.summary(top=6))
    best = result.best
    worst = result.worst
    print(f"\nbest {best.latency_ms:.4f} ms vs worst "
          f"{worst.latency_ms:.4f} ms — "
          f"{worst.latency_ms / best.latency_ms:.1f}x spread across the "
          f"schedule space")

    # compile the winner and explain it: its code-changing half compiles,
    # its simulated half is the what-if the estimate applied
    sim_keys = {f.name for f in dataclasses.fields(SimSchedule)}
    sim = SimSchedule(**{k: v for k, v in best.config.items()
                         if k in sim_keys})
    model = repro.compile("simple_treegru", CompileOptions(
        **{k: v for k, v in best.config.items() if k not in sim_keys}),
        hidden=HIDDEN, vocab=VOCAB)
    print("\n=== why the winner wins ===")
    print(compilation_report(model.lowered.module))
    print(f"simulated schedule: {sim}")

    # contrast: the same sweep on full TreeGRU never profits from refactoring
    print("\n=== contrast: TreeGRU (footnote 4) ===")
    r2 = grid_search("treegru", HIDDEN, trees, V100, vocab=VOCAB,
                     space={"fusion": ("max",), "specialize": (True,),
                            "persistence": (True,),
                            "refactor": (False, True)})
    for t in r2.valid:
        tag = "refactored" if t.config["refactor"] else "plain"
        print(f"  {tag:11s} {t.latency_ms:.4f} ms")
    print("  -> identical: the z*h_sum h-gate blocks the barrier saving")


if __name__ == "__main__":
    main()
