"""The staged compiler pipeline and the compile-cache session.

:class:`CompilerPipeline` is what ``repro.compile`` runs, one stage at a
time: **build** the RA program from a model definition, **lower**
recursion to loops as the :class:`~repro.options.CompileOptions` say
(recording the zero-fill and splice-safety verdicts in ``module.meta``),
run **codegen** (the Python kernels + the C rendering), and derive the
host launch **plan**.  The result is a :class:`~repro.api.CortexModel` —
the same class :func:`~repro.tools.artifact.load_model` returns, after
the same stages from ``lower()``'s tail on.  Each stage is timed into a
:class:`StageRecord`; ``on_stage`` hooks observe stages as they finish —
the introspection autotuners, servers and CI want from a compiler front
door (cf. Relay/TVM's pass-pipeline design).

:class:`Session` caches compiled models by ``(model definition, resolved
build arguments, options.cache_key())`` so routers, benchmark harnesses and
grid-search autotuners stop recompiling identical configurations — a
cache hit returns the *same* :class:`~repro.api.CortexModel` object, so
its host plan and workspace arena are shared too.  Compilation requests
that carry caller-supplied parameters or an RNG bypass the cache (their
results are not functions of the key alone).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Tuple,
                    Union)

import numpy as np

from .api import CortexModel
from .ilir.codegen.compiled import CompiledModule
from .authoring import ModelDef
from .models.registry import resolve_model
from .obs import STATUS_ERROR, Tracer
from .options import CompileOptions
from .ra.lowering import lower, run_codegen
from .runtime.native import attach_native
from .runtime.plan import get_host_plan

#: stage names of the default (Python-target) pipeline, in execution
#: order; compiling with ``CompileOptions(target="c")`` inserts a
#: ``native`` stage between ``codegen`` and ``plan``
STAGES = ("build", "lower", "codegen", "plan")

#: hook signature: called after a stage completes
StageHook = Callable[["StageRecord"], None]


def _resolve_options(options: Optional[CompileOptions]) -> CompileOptions:
    if options is None:
        return CompileOptions()
    if not isinstance(options, CompileOptions):
        # catch compile(name, 64) — the legacy second positional was
        # hidden= — with a clear error instead of a deep AttributeError
        raise TypeError(
            f"options must be a CompileOptions, got {options!r}; "
            f"the hidden size is a keyword argument (hidden={options!r})")
    return options


@dataclass(frozen=True)
class StageRecord:
    """One completed pipeline stage: name + wall time."""

    stage: str
    wall_time_s: float


@dataclass
class CompileReport:
    """Per-stage wall-time record of one compilation."""

    model: str
    options: CompileOptions
    stages: List[StageRecord] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(r.wall_time_s for r in self.stages)

    def stage_time_s(self, stage: str) -> float:
        for r in self.stages:
            if r.stage == stage:
                return r.wall_time_s
        raise KeyError(f"no stage {stage!r}; recorded: "
                       f"{[r.stage for r in self.stages]}")

    def summary(self) -> str:
        parts = [f"{r.stage} {r.wall_time_s * 1e3:.2f}ms"
                 for r in self.stages]
        return (f"compiled {self.model} [{self.options.summary()}] in "
                f"{self.total_s * 1e3:.2f}ms: " + ", ".join(parts))


class CompilerPipeline:
    """The staged front door: model + options -> compiled model.

    ``on_stage`` (constructor-level, and/or per-call) observes every
    :class:`StageRecord` as its stage finishes; ``compile_count`` tallies
    full pipeline runs (the probe Session cache tests use).

    ``tracer`` (optional, an :class:`~repro.obs.Tracer`) records each
    compilation as a ``compile`` root span with one ``compile.<stage>``
    child per stage — the same trace stream the serving layer writes
    into, so one Chrome trace shows compile and serve side by side.
    Stage timestamps come from ``perf_counter`` (the same clock the
    :class:`StageRecord` wall times use), so keep the tracer on its
    default clock when mixing with compile spans.
    """

    stages = STAGES

    def __init__(self, *, on_stage: Optional[StageHook] = None,
                 tracer: Optional[Tracer] = None):
        self.on_stage = on_stage
        self.tracer = tracer
        self.compile_count = 0

    def compile(self, model: Union[str, ModelDef],
                options: Optional[CompileOptions] = None, *,
                hidden: Optional[int] = None, vocab: int = 1000,
                params: Optional[Mapping[str, np.ndarray]] = None,
                rng: Optional[np.random.Generator] = None,
                on_stage: Optional[StageHook] = None,
                **build_kw) -> CortexModel:
        """Run every stage; returns the model with its report attached.

        ``model`` is a registry name or an authoring
        :class:`~repro.authoring.ModelDef` — user-authored models compile
        identically to zoo entries.
        """
        spec = resolve_model(model)
        opts = _resolve_options(options)
        opts.validate()
        hooks = [h for h in (self.on_stage, on_stage) if h is not None]
        report = CompileReport(model=spec.short_name, options=opts)
        compile_span = (self.tracer.start_span(
            "compile", attributes={"model": spec.short_name,
                                   "options": opts.summary()})
            if self.tracer is not None else None)

        def finish(stage: str, t0: float) -> None:
            now = time.perf_counter()
            record = StageRecord(stage, now - t0)
            report.stages.append(record)
            if compile_span is not None:
                self.tracer.add_span(f"compile.{stage}", t0, now,
                                     parent=compile_span)
            for hook in hooks:
                hook(record)

        try:
            t0 = time.perf_counter()
            prog = spec.build(hidden, vocab, **build_kw)
            model_params = (dict(params) if params is not None
                            else spec.random_params(hidden, vocab, rng=rng,
                                                    **build_kw))
            finish("build", t0)

            t0 = time.perf_counter()
            lowered = lower(prog, opts, codegen=False)
            finish("lower", t0)

            t0 = time.perf_counter()
            run_codegen(lowered.module)
            finish("codegen", t0)

            compiled = CompiledModule(lowered.module)
            if opts.target == "c":
                # native stage: JIT the C source into a cached .so and
                # attach the launchers; on fallback (no compiler) the
                # stage still records — with nothing attached, the plan
                # dispatches the Python kernels unchanged
                t0 = time.perf_counter()
                attach_native(compiled)
                finish("native", t0)

            t0 = time.perf_counter()
            plan = get_host_plan(lowered, compiled)
            finish("plan", t0)
        except BaseException as exc:
            if compile_span is not None:
                compile_span.set_attribute("exception", type(exc).__name__)
                compile_span.end(STATUS_ERROR)
            raise
        if compile_span is not None:
            compile_span.end()

        self.compile_count += 1
        return CortexModel(spec=spec, program=prog, lowered=lowered,
                           compiled=compiled, params=model_params,
                           plan=plan, options=opts, report=report)


@dataclass
class SessionStats:
    """Cache accounting for one :class:`Session`."""

    hits: int = 0
    misses: int = 0
    #: compiles that bypassed the cache (caller-supplied params/rng)
    bypasses: int = 0

    @property
    def compiles(self) -> int:
        return self.misses + self.bypasses


class Session:
    """A compile cache: equal ``(model, args, options)`` -> same model.

    The cache key is ``(model definition, resolved build arguments,
    options.cache_key())`` — :meth:`CompileOptions.cache_key` is a stable
    content hash, so two *equal* options objects hit the same entry.  A
    hit returns the identical :class:`CortexModel` object (plan and arena
    included); callers that mutate a compiled model should compile
    outside a session or :meth:`clear` it.
    """

    def __init__(self, pipeline: Optional[CompilerPipeline] = None):
        self.pipeline = pipeline if pipeline is not None else CompilerPipeline()
        self.stats = SessionStats()
        self._cache: Dict[Tuple, CortexModel] = {}

    def compile(self, model: Union[str, ModelDef],
                options: Optional[CompileOptions] = None, *,
                hidden: Optional[int] = None, vocab: int = 1000,
                params: Optional[Mapping[str, np.ndarray]] = None,
                rng: Optional[np.random.Generator] = None,
                on_stage: Optional[StageHook] = None,
                **build_kw) -> CortexModel:
        """Compile through the cache (or straight through, for params/rng).

        ``on_stage`` observes pipeline stages exactly as in
        :meth:`CompilerPipeline.compile`; a cache hit runs no stages, so
        the hook fires only when compilation actually happens.  A
        registered name resolves to its :class:`~repro.authoring.ModelDef`,
        so compiling through the def and through the name hit the same
        cache entry.
        """
        spec = resolve_model(model)
        opts = _resolve_options(options)
        if params is not None or rng is not None:
            self.stats.bypasses += 1
            return self.pipeline.compile(spec, opts, hidden=hidden,
                                         vocab=vocab, params=params, rng=rng,
                                         on_stage=on_stage, **build_kw)
        key = self._key(spec, opts, hidden, vocab, build_kw)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        compiled = self.pipeline.compile(spec, opts, hidden=hidden,
                                         vocab=vocab, on_stage=on_stage,
                                         **build_kw)
        self.stats.misses += 1
        self._cache[key] = compiled
        return compiled

    @staticmethod
    def _key(spec: ModelDef, opts: CompileOptions, hidden: Optional[int],
             vocab: int, build_kw: Dict[str, object]) -> Tuple:
        # the def itself keys the entry (it hashes by identity), so a
        # custom def reusing a zoo short_name can never collide with the
        # zoo model; build args are resolved so hidden=None and
        # hidden=spec.hs share an entry (and vocab drops out for models
        # that never embed)
        args = spec._resolve_args(hidden, vocab, build_kw)
        return (spec, tuple(sorted(args.items())), opts.cache_key())

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def cache_info(self) -> Dict[str, int]:
        return {"entries": len(self._cache), "hits": self.stats.hits,
                "misses": self.stats.misses,
                "bypasses": self.stats.bypasses}
