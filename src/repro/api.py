"""High-level API: one compile front door, one model class.

Compilation is ``compile(model, options)``: a model-zoo name (or an
authoring :class:`~repro.authoring.ModelDef`) plus a frozen, validated
:class:`~repro.options.CompileOptions` run through the staged
:class:`~repro.pipeline.CompilerPipeline` (build -> lower -> codegen ->
plan).

Example (the README quickstart)::

    import repro
    from repro.data import synthetic_treebank

    model = repro.compile("treelstm", hidden=256, vocab=1000)
    trees = synthetic_treebank(10, vocab_size=1000)
    result = model.run(trees)
    print(result.root_output("rnn_h_ph").shape)   # (10, 256)
    print(result.wall_time_s)                     # measured host time

Every runnable model is a :class:`CortexModel` — compiled in process, or
reloaded from disk by :func:`~repro.tools.artifact.load_model` — and runs
the one generated source through the one executor
(:func:`~repro.runtime.plan.execute_plan`) under a host plan built by the
same rule (see DESIGN.md §3).  Either way its module carries the operator
nests that source, the verdicts in ``meta``, the host plan and the
simulated-device estimate (:func:`repro.runtime.estimate`, kept outside
the run paths) are derived from; a reloaded model lacks only its model
definition and the RA program.

A model has one :class:`~repro.linearizer.Linearizer`,
``model.lowered.linearizer`` (on ``target="c"`` it walks in the ``.so``);
``validate=`` decides per call whether it checks.

For repeated inference over a stream of input batches, use the amortized
entry points: ``model.run(roots, reuse=True)`` recycles workspace buffers
through the model's arena (the previous call's result buffers are reclaimed
— copy anything you need to keep), and ``model.run_many(batches)`` does the
copying for you, returning per-batch root outputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .authoring import ModelDef
    from .pipeline import CompileReport, Session, StageHook
    from .serve import ModelServer

import numpy as np

from .ilir.codegen.compiled import CompiledModule
from .linearizer import Linearized, Node
from .options import CompileOptions, Validate
from .ra.lowering import Lowered
from .ra.ops import Program
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
    #: the roots' node ids, in the order the batch listed them
    roots: np.ndarray
    wall_time_s: float = 0.0
    linearize_time_s: float = 0.0

    def root_output(self, name: str) -> np.ndarray:
        """Rows of an output buffer at the root nodes (the model results),
        one per root in the order the batch listed them."""
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
    or ``report``, and runs, streams, serves, memoizes and estimates
    through the same methods, and :func:`repro.runtime.estimate` prices
    either on a simulated device.
    """

    #: the model definition it was compiled from
    spec: Optional["ModelDef"]
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
        native = getattr(self.compiled, "native", None)
        if native is not None:  # target="c": walk in the module's .so
            self.lowered.linearizer.use_native(native.walker)
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
    def fast_linearizer(self) -> Callable[..., Linearized]:
        # read-only alias (check=False), kept only because the frozen
        # benchmarks/e2e/child.py calls it; remove in the next benchmark PR
        return functools.partial(self.lowered.linearizer, check=False)

    def default_outputs(self) -> List[str]:
        """Buffer names result copies cover by default: outputs + state."""
        return list(dict.fromkeys(
            list(self.lowered.module.output_buffers)
            + list(self.lowered.module.state_buffers)))

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
            reuse: bool = False,
            validate: Validate = Validate.ALWAYS) -> ExecutionResult:
        """Run one inference call through the precompiled host plan.

        With ``reuse=True`` workspace buffers come from the model's arena:
        the *previous* ``reuse`` call's buffers are reclaimed first, so a
        prior result's workspace must not be read after this returns (copy
        what you need, or use :meth:`run_many`, which copies for you).
        ``validate`` is a :class:`~repro.options.Validate` member: anything
        but ``Validate.NEVER`` structure-checks this call's input and its
        linearized layout; skipping only amortizes away those checks —
        layout and outputs are unchanged.
        """
        check = _validate_mode(validate) is not Validate.NEVER
        lin = self.lowered.linearizer(roots, check=check)
        if not reuse:
            return execute_plan(self.plan, lin, self.params)
        self.release()
        res = execute_plan(self.plan, lin, self.params, arena=self.arena)
        self._leased = res.arena_buffers
        return res

    def run_many(self, batches: Iterable[Union[Node, Sequence[Node]]], *,
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
            lin = self.lowered.linearizer(roots, check=mode.checks_step(i))
            res = execute_plan(self.plan, lin, self.params,
                               arena=self.arena)
            # advanced indexing already yields fresh arrays (never views),
            # so the root rows survive the workspace recycling below
            outs = {n: res.workspace[n][lin.input_roots] for n in names}
            self.arena.release_many(res.arena_buffers)
            results.append(BatchResult(
                outputs=outs, roots=lin.input_roots,
                wall_time_s=res.wall_time_s,
                linearize_time_s=lin.wall_time_s))
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


def compile(model: Union[str, "ModelDef"],
            options: Optional[CompileOptions] = None, *,
            hidden: Optional[int] = None, vocab: int = 1000,
            params: Optional[Mapping[str, np.ndarray]] = None,
            rng: Optional[np.random.Generator] = None,
            session: Optional["Session"] = None,
            on_stage: Optional["StageHook"] = None,
            **build_kw) -> CortexModel:
    """Compile one model under explicit, validated options.

    ``model`` is a registry short name or a declaratively authored
    :class:`~repro.authoring.ModelDef` — user-defined models compile,
    serve and export exactly like zoo entries (register them via
    ``ModelDef.register()`` to also address them by name).

    The front door of the compiler: ``options`` (default:
    :data:`~repro.options.PAPER_HEADLINE`) is validated eagerly — an
    illegal value such as ``fusion="partial"`` raises
    :class:`~repro.errors.ScheduleError` before any work happens — and
    then drives the staged :class:`~repro.pipeline.CompilerPipeline`
    (build -> lower -> codegen -> plan).  The returned model
    carries ``options`` and a per-stage ``report``.

    ``session`` routes the compile through a :class:`~repro.pipeline
    .Session` cache (equal model + options -> the same model object);
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
