"""High-level API: one compile front door, one model class.

Compilation is ``compile(spec, options)``: a model-zoo name (or
:class:`~repro.models.registry.ModelSpec`) plus a frozen, validated
:class:`~repro.options.CompileOptions` run through the staged
:class:`~repro.pipeline.CompilerPipeline` (build -> schedule -> lower ->
codegen -> plan).

Example (the README quickstart)::

    import repro
    from repro.data import synthetic_treebank
    from repro.runtime import V100

    model = repro.compile("treelstm", hidden=256, vocab=1000)
    trees = synthetic_treebank(10, vocab_size=1000)
    result = model.run(trees, device=V100)
    print(result.root_output("rnn_h_ph").shape)   # (10, 256)
    print(result.simulated_time_s)                # simulated latency

Every runnable model is a :class:`CortexModel` — compiled in process, or
reloaded from disk by :func:`~repro.tools.artifact.load_model` — and runs
the one generated source through the one executor
(:func:`~repro.runtime.plan.execute_plan`) under a host plan built by the
same rule (see DESIGN.md §3).  What a reloaded model lacks (the spec, the
RA program, the operator nests) is decided once, from its module: the
executor refuses a simulated ``device`` without nests, and memoization
reads the splice verdict lowering recorded in the module's ``meta``.

For repeated inference over a stream of input batches, use the amortized
entry points: ``model.run(roots, reuse=True)`` recycles workspace buffers
through the model's arena (the previous call's result buffers are reclaimed
— copy anything you need to keep), and ``model.run_many(batches)`` does the
copying for you, returning per-batch root outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .authoring import ModelDef as ModelDefLike
    from .pipeline import CompileReport, Session, StageHook
    from .serve import ModelServer

import numpy as np

from .ilir.codegen.compiled import CompiledModule
from .linearizer import Linearized, Linearizer, Node
from .models.registry import ModelSpec
from .options import CompileOptions, Validate
from .ra.lowering import Lowered
from .ra.ops import Program
from .runtime.device import Device
from .runtime.memory import WorkspaceArena
from .runtime.plan import (ExecutionResult, HostPlan, execute_plan,
                           get_host_plan)


@dataclass
class BatchResult:
    """Lightweight result of one ``run_many`` step.

    Holds *copies* of the root-row outputs (the per-node workspace has
    already been recycled into the arena by the time the caller sees this).
    """

    outputs: Dict[str, np.ndarray]
    roots: np.ndarray
    wall_time_s: float = 0.0
    linearize_time_s: float = 0.0
    simulated_time_s: Optional[float] = None
    cost: Optional[object] = None

    def root_output(self, name: str) -> np.ndarray:
        """Rows of an output buffer at the root nodes (the model results)."""
        return self.outputs[name]


def _validate_mode(validate: Validate) -> Validate:
    if not isinstance(validate, Validate):
        raise TypeError(
            f"validate must be a repro.Validate member (Validate.FIRST, "
            f"Validate.ALWAYS or Validate.NEVER), not {validate!r}")
    return validate


@dataclass
class CortexModel:
    """A compiled model: generated code + host plan + parameters.

    ``compile()`` fills every field; a model reloaded by
    :func:`~repro.tools.artifact.load_model` has no ``spec``, ``program``
    or ``report`` (and its module no operator nests), and runs, streams,
    serves and memoizes through the same methods.
    """

    spec: Optional[ModelSpec]
    program: Optional[Program]
    lowered: Lowered
    compiled: CompiledModule
    params: Dict[str, np.ndarray]
    #: precompiled host launch plan (kernel partition, buffer recipes);
    #: derived from the compiled module in ``__post_init__`` when omitted
    plan: Optional[HostPlan] = None
    #: workspace pool for ``reuse=True`` / ``run_many`` calls
    arena: WorkspaceArena = field(default_factory=WorkspaceArena)
    #: the validated configuration this model was compiled under (None for
    #: hand-assembled models and artifacts saved without options)
    options: Optional[CompileOptions] = None
    #: per-stage wall-time record of the compilation (None when reloaded)
    report: Optional["CompileReport"] = None

    def __post_init__(self) -> None:
        if self.plan is None:
            self.plan = get_host_plan(self.lowered, self.compiled)
        self._fast_linearizer: Optional[Linearizer] = None
        self._leased: List[np.ndarray] = []  # the last reuse call's slab
        self._params_version = 0
        self._memo_key: Optional[str] = None

    # -- parameter versioning / memoization ----------------------------------
    @property
    def params_version(self) -> int:
        """Monotone counter of in-place weight updates (starts at 0).

        Part of every memo-cache key, so bumping it invalidates all of
        this model's cached subtree rows at once without scanning them.
        """
        return self._params_version

    def bump_params_version(self) -> int:
        """Declare an in-place parameter edit; returns the new version.

        Must be called after mutating ``model.params`` arrays in place.
        It retires two caches keyed on the old weights: the memoization
        layer's subtree rows (via the version in the cache key) and the
        runtime's cached contiguous GEMM operand transposes (which hold
        copies of weight arrays — see
        :func:`repro.runtime.kernels.clear_contig_cache`).
        """
        from .runtime.kernels import clear_contig_cache

        self._params_version += 1
        clear_contig_cache()
        return self._params_version

    def memo_model_key(self) -> str:
        """Cached per-model memoization key component (content hash).

        Fingerprints the compile configuration, buffer signature and the
        *initial* parameter bytes; computed once (it hashes every weight)
        and safe to cache because later in-place edits are covered by
        :attr:`params_version`, which sits next to this key in every
        cache key.
        """
        if self._memo_key is None:
            from .memo.hashing import model_memo_key

            self._memo_key = model_memo_key(self)
        return self._memo_key

    # -- linearization -------------------------------------------------------
    def fast_linearizer(self) -> Linearizer:
        """The model's check-free linearizer (built lazily, then shared).

        Bit-identical layouts to ``lowered.linearizer``; input validation
        and numbering re-verification are skipped.  Used by
        ``run(validate=Validate.NEVER)``, ``run_many`` and the serving
        flush loop.
        """
        if self._fast_linearizer is None:
            self._fast_linearizer = self.lowered.linearizer.fast_clone()
            native = getattr(self.compiled, "native", None)
            if native is not None:
                # target="c": the walk is the one the module's .so carries
                self._fast_linearizer.use_native(native.walker)
        return self._fast_linearizer

    def default_outputs(self) -> List[str]:
        """Buffer names result copies cover by default: outputs + state."""
        return list(dict.fromkeys(
            list(self.lowered.module.output_buffers)
            + list(self.lowered.module.state_buffers)))

    def _linearize(self, roots: Union[Node, Sequence[Node]],
                   check: bool) -> Linearized:
        if isinstance(roots, Node):
            roots = [roots]
        if check:
            return self.lowered.linearizer(roots)
        return self.fast_linearizer()(roots)

    def release(self) -> None:
        """Return the last ``run(reuse=True)`` call's workspace to the arena.

        Without this, the leased slab sits out of the arena until the
        *next* reuse call reclaims it.  Calling it makes the arena drain
        deterministic — the serving loop invokes it between flushes — and
        it is a no-op when nothing is leased.  The previous reuse result's
        workspace must not be read afterwards.
        """
        if self._leased:
            self.arena.release_many(self._leased)
            self._leased = []

    # -- execution -------------------------------------------------------------
    def run(self, roots: Union[Node, Sequence[Node]], *,
            device: Optional[Device] = None, reuse: bool = False,
            validate: Validate = Validate.ALWAYS) -> ExecutionResult:
        """Run one inference call through the precompiled host plan.

        With ``reuse=True`` workspace buffers come from the model's arena:
        the *previous* ``reuse`` call's buffers are reclaimed first, so a
        prior result's workspace must not be read after this returns (copy
        what you need, or use :meth:`run_many`, which copies for you).
        ``validate`` is a :class:`~repro.options.Validate` member: anything
        but ``Validate.NEVER`` structure-checks this call's input; skipping
        only amortizes away the §3 checks — layout and outputs are
        unchanged.
        """
        check = _validate_mode(validate) is not Validate.NEVER
        lin = self._linearize(roots, check)
        if not reuse:
            return execute_plan(self.plan, lin, self.params, device=device)
        self.release()
        res = execute_plan(self.plan, lin, self.params, device=device,
                           arena=self.arena)
        self._leased = res.arena_buffers
        return res

    def run_many(self, batches: Iterable[Union[Node, Sequence[Node]]], *,
                 device: Optional[Device] = None,
                 outputs: Optional[Sequence[str]] = None,
                 validate: Validate = Validate.FIRST) -> List[BatchResult]:
        """Amortized streaming inference over a sequence of input batches.

        Plan setup, scalar templates and workspace buffers are shared across
        the whole stream; each step's root outputs are copied out before its
        workspace is recycled, so results stay valid.  ``validate`` is a
        :class:`~repro.options.Validate` member (default: check the first
        batch only).
        """
        mode = _validate_mode(validate)
        names = (list(outputs) if outputs is not None
                 else self.default_outputs())
        results: List[BatchResult] = []
        for i, roots in enumerate(batches):
            lin = self._linearize(roots, mode.checks_step(i))
            res = execute_plan(self.plan, lin, self.params, device=device,
                               arena=self.arena)
            # advanced indexing already yields fresh arrays (never views),
            # so the root rows survive the workspace recycling below
            outs = {n: res.workspace[n][lin.roots] for n in names}
            self.arena.release_many(res.arena_buffers)
            results.append(BatchResult(
                outputs=outs, roots=lin.roots,
                wall_time_s=res.wall_time_s,
                linearize_time_s=lin.wall_time_s,
                simulated_time_s=res.simulated_time_s, cost=res.cost))
        return results

    # -- serving ---------------------------------------------------------------
    def server(self, **kw) -> "ModelServer":
        """A :class:`~repro.serve.ModelServer` wrapping this model.

        The server coalesces many independent requests into single
        linearized mega-batches through this model's host plan and arena;
        keyword arguments (``policy``, ``max_queue``, ...) are forwarded to
        the :class:`~repro.serve.ModelServer` constructor.  A model
        compiled with ``CompileOptions(memo="on")`` serves memoized unless
        ``memo=`` says otherwise — reloaded or not.
        """
        from .serve import ModelServer

        if self.options is not None and self.options.memo == "on":
            kw.setdefault("memo", "on")
        return ModelServer(self, **kw)

    # -- generated-code inspection --------------------------------------------
    @property
    def python_source(self) -> str:
        return self.lowered.module.python_source or ""

    @property
    def fast_python_source(self) -> str:
        # read-only alias of python_source, kept only because the frozen
        # benchmarks/e2e/child.py reads it; remove in the next benchmark PR
        return self.python_source

    @property
    def c_source(self) -> str:
        return self.lowered.module.c_source or ""

    @property
    def outputs(self) -> Sequence[str]:
        return self.lowered.module.output_buffers


def compile(model: Union[str, ModelSpec, "ModelDefLike"],
            options: Optional[CompileOptions] = None, *,
            hidden: Optional[int] = None, vocab: int = 1000,
            params: Optional[Mapping[str, np.ndarray]] = None,
            rng: Optional[np.random.Generator] = None,
            session: Optional["Session"] = None,
            on_stage: Optional["StageHook"] = None,
            **build_kw) -> CortexModel:
    """Compile one model under explicit, validated options.

    ``model`` is a registry short name, a
    :class:`~repro.models.registry.ModelSpec`, or a declaratively
    authored :class:`~repro.authoring.ModelDef` — user-defined models
    compile, serve and export exactly like zoo entries (register them
    via ``ModelDef.register()`` to also address them by name).

    The front door of the compiler: ``options`` (default:
    :data:`~repro.options.PAPER_HEADLINE`) is validated eagerly — illegal
    combinations such as ``persistence=True, fusion="none"`` raise
    :class:`~repro.errors.ScheduleError` before any work happens — and
    then drives the staged :class:`~repro.pipeline.CompilerPipeline`
    (build -> schedule -> lower -> codegen -> plan).  The returned model
    carries ``options`` and a per-stage ``report``.

    ``session`` routes the compile through a :class:`~repro.pipeline
    .Session` cache (equal spec + options -> the same model object);
    ``on_stage`` observes each pipeline stage as it completes.
    """
    if session is not None:
        return session.compile(model, options, hidden=hidden, vocab=vocab,
                               params=params, rng=rng, on_stage=on_stage,
                               **build_kw)
    from .pipeline import CompilerPipeline

    return CompilerPipeline().compile(model, options, hidden=hidden,
                                      vocab=vocab, params=params, rng=rng,
                                      on_stage=on_stage, **build_kw)
