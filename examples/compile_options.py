"""The unified compile API: CompileOptions, presets, Session, artifacts.

Walks the whole new front door in one sitting:

1. ``repro.compile(spec, CompileOptions(...))`` — an explicit, eagerly
   validated configuration of the knobs that change generated code
   (illegal values raise up front) driving the staged pipeline, with
   per-stage wall-time records;
2. presets (``PAPER_HEADLINE``, ``UNFUSED_ABLATION``, ``DEBUG``) and the
   ``with_`` builder for deriving variants;
3. ``cache_key()`` — the stable content hash that names a configuration
   across processes and machines;
4. ``Session`` — equal (model, options) compile exactly once; routers,
   benchmarks and autotuners share compiled models through it;
5. the compile -> save -> serve loop: the artifact records its options
   next to the lowered IR in ``artifact.json`` and serves bit-identically
   after reload.

Run:  python examples/compile_options.py
"""

import os
import tempfile

import numpy as np

import repro
from repro import PAPER_HEADLINE, UNFUSED_ABLATION, CompileOptions, Session
from repro.data import synthetic_treebank
from repro.errors import ScheduleError
from repro.serve import MaxPendingRequests
from repro.tools.artifact import load_model, save_model

HIDDEN = int(os.environ.get("REPRO_EXAMPLE_HIDDEN", "64"))
VOCAB = 500


def main() -> None:
    # 1. explicit options; invalid values fail eagerly
    opts = CompileOptions()            # == PAPER_HEADLINE
    print(f"headline options: {opts.summary()}")
    try:
        CompileOptions(fusion="partial")
    except ScheduleError as e:
        print(f"rejected eagerly: {e}")

    model = repro.compile("treelstm", opts, hidden=HIDDEN, vocab=VOCAB,
                          on_stage=lambda r: print(
                              f"  stage {r.stage:8s} {r.wall_time_s * 1e3:7.2f} ms"))
    print(f"compiled: {model.report.summary()}")

    # 2. presets and derivation
    ablation = UNFUSED_ABLATION
    debug = PAPER_HEADLINE.with_(specialize=False, dynamic_batch=False)
    print(f"ablation: {ablation.summary()}")
    print(f"derived:  {debug.summary()}")

    # 3. stable cache keys name a configuration across processes
    print(f"cache keys: headline={opts.cache_key()} "
          f"ablation={ablation.cache_key()}")

    # 4. a Session compiles each configuration once
    session = Session()
    a = session.compile("treelstm", opts, hidden=HIDDEN, vocab=VOCAB)
    b = session.compile("treelstm", opts.with_(), hidden=HIDDEN, vocab=VOCAB)
    assert a is b, "equal options must hit the cache"
    print(f"session: {session.cache_info()}")

    # 5. compile -> save -> serve: the artifact carries its options and
    #    serves bit-identically to the in-process model
    trees = synthetic_treebank(4, vocab_size=VOCAB,
                               rng=np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, tmp)
        deployed = load_model(tmp)
        print(f"reloaded options match: {deployed.options == model.options}")
        srv = deployed.server(policy=MaxPendingRequests(2))
        handles = [srv.submit([t]) for t in trees]
        srv.drain()
        solo = model.run(trees)
        ok = all(
            np.array_equal(h.result().root_output("rnn_h_ph"),
                           solo.workspace["rnn_h_ph"][[solo.lin.node_id(t)]])
            for h, t in zip(handles, trees))
        print(f"artifact server bit-identical to in-process run: {ok}")


if __name__ == "__main__":
    main()
