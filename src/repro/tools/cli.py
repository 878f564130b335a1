"""Command-line interface for the Cortex reproduction.

Usage examples::

    python -m repro.tools.cli compile treelstm --hidden 256 --show-c
    python -m repro.tools.cli run treegru --batch 10 --device gpu
    python -m repro.tools.cli compare treelstm --batch 10 --device gpu
    python -m repro.tools.cli tune simple_treegru --device gpu
    python -m repro.tools.cli models

User-authored models (``repro.authoring``) plug in through
``--model-file``: the file is imported first, and any model it registers
— or any ``ModelDef`` it defines at module scope — becomes addressable
by short name, so ``compile`` / ``run`` / ``export`` work on models that
never shipped with the zoo::

    python -m repro.tools.cli compile my_cell --model-file my_model.py
    python -m repro.tools.cli export my_cell --model-file my_model.py --out art/
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..api import compile as compile_api
from ..baselines import cavs_like, dynet_like, pytorch_like
from ..bench.harness import BENCH_VOCAB, format_table, paper_inputs
from ..models import MODELS, get_model
from ..options import PRESETS, CompileOptions
from ..runtime import breakdown_from_cost, get_device
from ..tune import grid_search


def _add_common(p: argparse.ArgumentParser) -> None:
    # model names are validated at command time (against the registry as
    # it stands AFTER --model-file imports), not by argparse choices
    p.add_argument("model", help="registry short name "
                   "(see `models`; --model-file entries included)")
    p.add_argument("--model-file", default=None, metavar="FILE",
                   help="python file defining/registering custom models "
                        "(repro.authoring) to load before resolving MODEL")
    p.add_argument("--hidden", type=int, default=None,
                   help="hidden size (default: the model's hs)")
    p.add_argument("--batch", type=int, default=10)
    p.add_argument("--device", default="gpu", choices=["gpu", "intel", "arm"])
    p.add_argument("--target", default="python", choices=["python", "c"],
                   help="execution target: vectorized NumPy kernels "
                        "(default) or the JIT-compiled native .so backend")


#: short name -> source file of models registered via --model-file, so a
#: re-load of the same file replaces its own registrations instead of
#: tripping the collision guard
_MODEL_FILE_SOURCES: dict = {}


def load_model_file(path: str) -> None:
    """Import a user model file, registering whatever it defines.

    The file runs as a throwaway module.  Models it registers itself
    (``ModelDef.register()`` / ``@model(..., register=True)``) land in
    the registry directly; module-scope :class:`~repro.authoring
    .ModelDef` objects that were *not* registered are registered here,
    so the simplest possible file — a bare ``@model`` definition — works.
    A definition whose short name collides with an already-registered
    model is an error: silently resolving the name to the zoo entry
    would run/export the wrong model.  Re-loading the *same* file is
    idempotent (the registration from the earlier load wins).
    """
    from ..authoring import ModelDef
    from ..models import unregister

    file = Path(path).resolve()
    if not file.exists():
        raise SystemExit(f"--model-file: no such file: {path}")
    spec = importlib.util.spec_from_file_location(
        f"_repro_model_file_{file.stem}", file)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for value in vars(module).values():
        if not isinstance(value, ModelDef):
            continue
        existing = MODELS.get(value.short_name)
        if existing is not None and existing is not value.spec():
            if _MODEL_FILE_SOURCES.get(value.short_name) == file:
                # the same file, loaded again (e.g. a second CLI command
                # in one process): replace with this load's definition
                unregister(value.short_name)
            else:
                raise SystemExit(
                    f"--model-file: {value.short_name!r} collides with an "
                    f"already-registered model; rename the definition in "
                    f"{path} (the existing entry would silently win "
                    f"otherwise)")
        if value.short_name not in MODELS:
            value.register()
        _MODEL_FILE_SOURCES[value.short_name] = file


def _resolve_cli_model(args) -> "object":
    if getattr(args, "model_file", None):
        load_model_file(args.model_file)
    try:
        return get_model(args.model)
    except KeyError as e:
        raise SystemExit(f"error: {e.args[0]}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Cortex (MLSys 2021) reproduction CLI")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("models", help="list the model zoo")
    p.add_argument("--model-file", default=None, metavar="FILE",
                   help="also load (and list) models from this python file")

    p = sub.add_parser("compile", help="compile a model and inspect it")
    _add_common(p)
    p.add_argument("--show-c", action="store_true",
                   help="print the generated C source")
    p.add_argument("--show-python", action="store_true",
                   help="print the generated Python source")
    p.add_argument("--report", action="store_true",
                   help="print kernel structure + memory placement (Fig. 8)")
    p.add_argument("--no-specialize", action="store_true")
    p.add_argument("--fusion", default="max", choices=["max", "none"])
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="compile under a named CompileOptions preset "
                        "(overrides the schedule flags)")

    p = sub.add_parser("run", help="run a model and report simulated latency")
    _add_common(p)

    p = sub.add_parser("compare", help="compare against all baselines")
    _add_common(p)

    p = sub.add_parser("tune", help="grid-search the schedule space")
    _add_common(p)

    p = sub.add_parser("export", help="save a deployable compiled artifact")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser(
        "trace", help="serve a synthetic stream, export a Chrome trace")
    _add_common(p)
    p.add_argument("--requests", type=int, default=64,
                   help="synthetic requests to serve (default 64)")
    p.add_argument("--seed", type=int, default=7,
                   help="input-generation seed (default 7)")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="write the trace JSON here (default: stdout)")

    p = sub.add_parser(
        "metrics", help="serve a synthetic stream, print the metrics scrape")
    _add_common(p)
    p.add_argument("--requests", type=int, default=64,
                   help="synthetic requests to serve (default 64)")
    p.add_argument("--seed", type=int, default=7,
                   help="input-generation seed (default 7)")
    p.add_argument("--format", default="prom", choices=["prom", "json"],
                   help="Prometheus text (default) or the JSON snapshot")

    p = sub.add_parser(
        "memo", help="serve a Zipf stream through the subtree memo cache "
                     "and report hit-rate / splice / eviction stats")
    _add_common(p)
    p.add_argument("--requests", type=int, default=200,
                   help="Zipf-stream requests to serve (default 200)")
    p.add_argument("--seed", type=int, default=42,
                   help="stream-generation seed (default 42)")
    p.add_argument("--zipf-a", type=float, default=1.1,
                   help="Zipf popularity exponent (default 1.1)")
    p.add_argument("--json", action="store_true",
                   help="print the raw metrics_snapshot()['memo'] dict")
    return parser


def cmd_models(args) -> int:
    if getattr(args, "model_file", None):
        load_model_file(args.model_file)
    rows = []
    for name, spec in sorted(MODELS.items()):
        rows.append([name, spec.name, spec.kind.value, spec.hs, spec.hl,
                     len(spec.outputs)])
    print(format_table(["key", "model", "structure", "hs", "hl", "#states"],
                       rows, title="model zoo"))
    return 0


def _compile(args, options=None, spec=None):
    spec = spec if spec is not None else _resolve_cli_model(args)
    hidden = args.hidden or spec.hs
    options = (options or CompileOptions()).with_(
        target=getattr(args, "target", "python"))
    # the registry drops `vocab` for models that never embed (dagrnn)
    return compile_api(spec, options, hidden=hidden,
                       vocab=BENCH_VOCAB), hidden


def cmd_compile(args) -> int:
    if getattr(args, "preset", None):
        model, hidden = _compile(args, options=PRESETS[args.preset])
    else:
        model, hidden = _compile(args, options=CompileOptions(
            specialize=not args.no_specialize, fusion=args.fusion,
            persistence=args.fusion == "max"))
    mod = model.lowered.module
    print(f"compiled {args.model} (hidden={hidden})")
    if model.options is not None:
        print(f"  options: {model.options.summary()} "
              f"[cache_key {model.options.cache_key()}]")
    if model.report is not None:
        stages = ", ".join(f"{r.stage} {r.wall_time_s * 1e3:.1f}ms"
                           for r in model.report.stages)
        print(f"  stages: {stages}")
    if getattr(args, "target", "python") == "c":
        native = getattr(model.compiled, "native", None)
        if native is not None:
            print(f"  native: {native.cc} [{' '.join(native.flags)}]")
            print(f"  native .so cache: {native.so_path}")
        else:
            print("  native: unavailable — fell back to the Python "
                  "target (see NativeFallbackWarning)")
    print(f"  kernels: {[(k.name, k.kind) for k in mod.kernels]}")
    print(f"  barriers/level: {mod.meta['barriers_per_level']}")
    checks = sum(r.checked for r in model.lowered.bounds.values())
    gone = sum(r.eliminated for r in model.lowered.bounds.values())
    print(f"  bound checks eliminated: {gone}/{checks}")
    if mod.meta["zero_folded"]:
        print(f"  zero-folded leaf tensors: {mod.meta['zero_folded']}")
    if args.report:
        from ..analysis import compilation_report

        print("\n" + compilation_report(mod))
    if args.show_python:
        print("\n" + (mod.python_source or ""))
    if args.show_c:
        print("\n" + (mod.c_source or ""))
    return 0


def cmd_run(args) -> int:
    spec = _resolve_cli_model(args)
    model, hidden = _compile(args, spec=spec)
    device = get_device(args.device)
    roots = paper_inputs(args.model, args.batch, kind=spec.kind)
    res = model.run(roots, device=device)
    print(f"{args.model} hidden={hidden} batch={args.batch} "
          f"on {device.name}:")
    print(f"  simulated latency: {res.simulated_time_s * 1e3:.4f} ms")
    bd = breakdown_from_cost(res.cost)
    for k, v in bd.row().items():
        print(f"  {k}: {v}")
    return 0


def cmd_compare(args) -> int:
    spec = _resolve_cli_model(args)
    model, hidden = _compile(args, spec=spec)
    device = get_device(args.device)
    roots = paper_inputs(args.model, args.batch, kind=spec.kind)
    res = model.run(roots, device=device)
    rows = [["Cortex", round(res.simulated_time_s * 1e3, 4), 1.0]]
    for label, runner in (("PyTorch-like", pytorch_like.run),
                          ("DyNet-like", dynet_like.run),
                          ("Cavs-like", cavs_like.run)):
        b = runner(args.model, model.params, roots, device)
        rows.append([label, round(b.latency_s * 1e3, 4),
                     round(b.latency_s / res.simulated_time_s, 2)])
    print(format_table(["framework", "latency (ms)", "vs Cortex"], rows,
                       title=f"{args.model} hidden={hidden} "
                             f"batch={args.batch} on {device.name}"))
    return 0


def cmd_tune(args) -> int:
    spec = _resolve_cli_model(args)
    hidden = args.hidden or spec.hs
    device = get_device(args.device)
    roots = paper_inputs(args.model, args.batch, kind=spec.kind)
    result = grid_search(spec, hidden, roots, device,
                         vocab=BENCH_VOCAB)
    print(result.summary(top=8))
    return 0


def cmd_export(args) -> int:
    from .artifact import save_model

    model, hidden = _compile(args)
    out = save_model(model, args.out)
    print(f"saved {args.model} (hidden={hidden}) to {out}")
    print("reload with: repro.tools.artifact.load_model(path).run(trees)")
    return 0


def _serve_synthetic(args, *, tracer=None, profiler=None):
    """Compile (traced when a tracer rides along) and serve a synthetic
    stream; returns the drained server, its observability surfaces intact."""
    from ..pipeline import CompilerPipeline
    from ..serve import Deadline, MaxPendingRequests

    spec = _resolve_cli_model(args)
    hidden = args.hidden or spec.hs
    opts = CompileOptions(target=getattr(args, "target", "python"))
    model = CompilerPipeline(tracer=tracer).compile(
        spec, opts, hidden=hidden, vocab=BENCH_VOCAB)
    roots = paper_inputs(args.model, args.requests, seed=args.seed,
                         kind=spec.kind)
    policy = MaxPendingRequests(16) | Deadline(5.0)
    with model.server(policy=policy, tracer=tracer,
                      profiler=profiler) as server:
        handles = [server.submit(r) for r in roots]
        for h in handles:
            h.result(timeout=120.0)
    return server


def cmd_trace(args) -> int:
    from ..obs import Tracer, validate_chrome_trace
    from ..runtime import KernelProfiler

    tracer = Tracer()
    server = _serve_synthetic(args, tracer=tracer,
                              profiler=KernelProfiler())
    doc = server.trace_export(args.out)
    n = validate_chrome_trace(doc)
    if args.out:
        print(f"wrote {args.out}: {n} trace events "
              f"({args.requests} requests; load in chrome://tracing "
              f"or Perfetto)")
    else:
        import json

        print(json.dumps(doc, indent=1))
    return 0


def cmd_memo(args) -> int:
    from ..data import (zipf_dag_stream, zipf_sequence_stream,
                        zipf_tree_stream)
    from ..linearizer import StructureKind
    from ..serve import MaxPendingRequests

    spec = _resolve_cli_model(args)
    model, hidden = _compile(args, spec=spec)
    if spec.kind is StructureKind.DAG:
        stream = zipf_dag_stream(args.requests, zipf_a=args.zipf_a,
                                 seed=args.seed)
    elif spec.kind is StructureKind.SEQUENCE:
        stream = zipf_sequence_stream(args.requests, vocab_size=BENCH_VOCAB,
                                      zipf_a=args.zipf_a, seed=args.seed)
    else:
        stream = zipf_tree_stream(args.requests, vocab_size=BENCH_VOCAB,
                                  zipf_a=args.zipf_a, seed=args.seed)
    server = model.server(memo="on", policy=MaxPendingRequests(16))
    server.serve_forever(stream)
    memo = server.metrics_snapshot()["memo"]
    if args.json:
        import json

        print(json.dumps(memo, indent=2))
        return 0
    cache = memo["cache"]
    print(f"{args.model} hidden={hidden}: {args.requests} Zipf(a="
          f"{args.zipf_a}) requests through the subtree memo cache")
    rows = [
        ["subtree hit rate", f"{memo['hit_rate']:.1%}"],
        ["spliced node fraction", f"{memo['spliced_fraction']:.1%}"],
        ["nodes executed / total",
         f"{memo['executed_nodes']} / {memo['total_nodes']}"],
        ["full-hit requests",
         f"{memo['full_hit_requests']} / {memo['requests']}"],
        ["cache entries (bytes)",
         f"{cache['entries']} ({cache['bytes']})"],
        ["insertions / evictions / rejected",
         f"{cache['insertions']} / {cache['evictions']} / "
         f"{cache['rejected']}"],
    ]
    print(format_table(["stat", "value"], rows, title="memo"))
    return 0


def cmd_metrics(args) -> int:
    server = _serve_synthetic(args)
    if args.format == "json":
        import json

        from ..obs import metrics_json

        print(json.dumps(metrics_json(server.metrics.registry), indent=2))
    else:
        print(server.metrics_prometheus(), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd == "models":
        return cmd_models(args)
    if args.cmd == "compile":
        return cmd_compile(args)
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "compare":
        return cmd_compare(args)
    if args.cmd == "tune":
        return cmd_tune(args)
    if args.cmd == "export":
        return cmd_export(args)
    if args.cmd == "trace":
        return cmd_trace(args)
    if args.cmd == "metrics":
        return cmd_metrics(args)
    if args.cmd == "memo":
        return cmd_memo(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
