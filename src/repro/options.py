"""The unified compilation configuration: :class:`CompileOptions`.

One frozen, hashable object captures every schedule and codegen knob the
compiler understands — the §3.1 recursion-scheduling primitives (dynamic
batching, leaf specialization, fusion, persistence, unrolling, recursive
refactoring, per-block GPU scheduling), the ILIR-level layout/codegen
choices (dense intermediates, rational non-linearity approximation), and
the bounds-verification strictness.  Invalid combinations raise
:class:`~repro.errors.ScheduleError` *eagerly*, at construction — e.g.
``persistence=True`` with ``fusion="none"`` is rejected instead of being
silently coerced, because parameters can only stay on-chip while a single
persistent kernel runs.

Because the object is frozen and fully value-typed, :meth:`CompileOptions
.cache_key` is a stable content hash (sha256 over the canonical field
dict, independent of ``PYTHONHASHSEED`` and of the process) — the key the
:class:`~repro.pipeline.Session` cache, artifact manifests and autotuners
use to recognize "the same compilation" across calls and across machines.

Presets name the configurations the paper's evaluation keeps reaching
for::

    PAPER_HEADLINE     dynamic batching + specialization + maximal fusion
                       + model persistence (the Fig. 6/9 configuration)
    UNFUSED_ABLATION   one kernel per operator per phase, no persistence
                       (the "unfused" bar of Fig. 10a)
    DEBUG              every transformation off — the most literal,
                       single-stepping-friendly lowering

Derive variants with :meth:`CompileOptions.with_`::

    opts = PAPER_HEADLINE.with_(unroll=True, per_block=True)

This module also hosts :class:`Validate`, the one spelling of the
runtime input-validation setting (``run(validate=...)``,
``run_many(validate=...)``); servers always check, at ``submit``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from .errors import ScheduleError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .ra.ops import Program

#: fields that must be plain bools (eager type validation)
_BOOL_FIELDS = ("specialize", "dynamic_batch", "persistence", "unroll",
                "refactor", "per_block", "rational_approx",
                "dense_intermediates", "strict_bounds")

#: bump when the meaning of a field changes, so old cache keys expire
_CACHE_KEY_VERSION = 2


class Validate(enum.Enum):
    """Shared input-validation convention for every runtime entry point.

    ``FIRST`` structure-checks the first call of a stream and trusts the
    rest; ``ALWAYS`` checks every call; ``NEVER`` skips the §3 structure
    checks entirely (layouts and outputs are unchanged either way).  The
    word-range check against the model's embedding table is not one of
    them: it is a bounds check on outside input guarding the kernels'
    gathers, so it runs on every call under every setting and refuses
    with :class:`~repro.errors.LinearizationError`: words must lie in
    ``[-1, rows)``, and a leaf's — always gathered — in ``[0, rows)``
    (``-1`` marks "absent" on interior nodes only).  Entry points take
    members only: a bool or a string is a ``TypeError``.
    """

    FIRST = "first"
    ALWAYS = "always"
    NEVER = "never"

    def checks_step(self, index: int) -> bool:
        """Should step ``index`` of a stream validate its input?"""
        return self is Validate.ALWAYS or (self is Validate.FIRST
                                           and index == 0)


@dataclass(frozen=True)
class CompileOptions:
    """Every schedule/codegen knob of one compilation, validated eagerly.

    The defaults are the paper's headline configuration (dynamic batching
    + leaf specialization + maximal kernel fusion + model persistence).
    Instances are immutable; build variants with :meth:`with_`.
    """

    #: kernel fusion level: "max" (one persistent fused kernel) or "none"
    fusion: str = "max"
    #: generate separate code versions for the leaf / interior branches
    specialize: bool = True
    #: batch independent nodes on the fly at linearization time
    dynamic_batch: bool = True
    #: persist model parameters in fast on-chip memory (requires fusion)
    persistence: bool = True
    #: process a node together with its children (trees/sequences only)
    unroll: bool = False
    #: move operators across the recursion backedge (trees/sequences only)
    refactor: bool = False
    #: one-node-per-thread-block GPU scheduling (TreeRNN-style, §7.4)
    per_block: bool = False
    #: replace transcendental non-linearities with rational approximations
    rational_approx: bool = False
    #: dense indexing of scratchpad intermediates (Fig. 5)
    dense_intermediates: bool = True
    #: fail compilation on bound checks the prover cannot eliminate
    strict_bounds: bool = False
    #: cross-request subtree memoization policy: "off" or "on" (servers
    #: built from a model compiled with "on" default to a memoizing path;
    #: see :mod:`repro.memo`)
    memo: str = "off"
    #: execution target: "python" (vectorized NumPy kernels) or "c"
    #: (JIT-compiled native shared library launched via ctypes; falls
    #: back to the Python target with a NativeFallbackWarning when
    #: no C compiler is available — see :mod:`repro.runtime.native`)
    target: str = "python"

    def __post_init__(self) -> None:
        self.validate()

    # -- validation --------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScheduleError` on any illegal knob or combination.

        Knob combinations (fusion levels, persistence-requires-fusion)
        are judged by :meth:`CortexSchedule.validate` itself, so the two
        layers cannot drift; structure-dependent restrictions
        (unrolling/refactoring a DAG model) can only be checked against
        a concrete program and are enforced by the pipeline's schedule
        stage.
        """
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ScheduleError(
                    f"CompileOptions.{name} must be a bool, "
                    f"got {value!r}")
        if self.memo not in ("off", "on"):
            raise ScheduleError(
                f"CompileOptions.memo must be 'off' or 'on', "
                f"got {self.memo!r}")
        if self.target not in ("python", "c"):
            raise ScheduleError(
                f"CompileOptions.target must be 'python' or 'c', "
                f"got {self.target!r}")
        from .ra.schedule import CortexSchedule

        CortexSchedule(
            dynamic_batch=self.dynamic_batch, specialize=self.specialize,
            fusion=self.fusion, persistence=self.persistence,
            unroll=self.unroll, refactor=self.refactor,
            per_block=self.per_block,
            dense_intermediates=self.dense_intermediates).validate()

    # -- derivation --------------------------------------------------------
    def with_(self, **updates) -> "CompileOptions":
        """A copy with fields replaced; the result is re-validated."""
        return dataclasses.replace(self, **updates)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-serializable field dict (artifact manifests)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompileOptions":
        """Inverse of :meth:`to_dict`; unknown keys are rejected.

        Raises :class:`ScheduleError` so callers reloading artifacts see
        one exception family for "this config cannot be reconstructed".
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScheduleError(
                f"unknown CompileOptions fields {unknown}; this artifact "
                f"was produced by an incompatible compiler version")
        return cls(**data)

    def cache_key(self) -> str:
        """Stable content hash of this configuration.

        Identical options produce identical keys in every process and on
        every machine (sha256 over the canonical JSON encoding — no
        dependence on ``PYTHONHASHSEED`` or field declaration order), so
        the key is safe to embed in artifact manifests and on-disk caches.
        """
        payload = {"v": _CACHE_KEY_VERSION}
        payload.update(self.to_dict())
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    # -- application -------------------------------------------------------
    def apply(self, prog: "Program") -> None:
        """Imprint these options onto a program's schedule (§3.1).

        Plain knobs are written to the :class:`~repro.ra.schedule
        .CortexSchedule`; ``unroll``/``refactor`` go through the actual
        scheduling primitives so their structure restrictions (DAG models)
        raise exactly as a hand-written schedule would.  The schedule is
        re-validated afterwards, so no illegal state survives compilation.
        """
        from .ra import schedule as sched_mod

        s = prog.schedule
        s.dynamic_batch = self.dynamic_batch
        s.specialize = self.specialize
        s.fusion = self.fusion
        s.persistence = self.persistence
        s.per_block = self.per_block
        s.dense_intermediates = self.dense_intermediates
        if self.unroll:
            sched_mod.unroll(prog)
        if self.refactor:
            sched_mod.recursive_refactor(prog)
        s.validate()

    def summary(self) -> str:
        """Compact one-line rendering (benchmark tables, logs)."""
        on = [f.name for f in dataclasses.fields(self)
              if getattr(self, f.name) is True]
        if self.target != "python":
            on.append(f"target={self.target}")
        return f"fusion={self.fusion} " + (" ".join(sorted(on)) or "(bare)")


#: the paper's headline schedule: Fig. 6 / Fig. 9 configuration
PAPER_HEADLINE = CompileOptions()

#: the "unfused" ablation bar of Fig. 10a
UNFUSED_ABLATION = CompileOptions(fusion="none", persistence=False,
                                  dense_intermediates=False)

#: everything off: the most literal lowering, for single-stepping kernels
DEBUG = CompileOptions(fusion="none", specialize=False, dynamic_batch=False,
                       persistence=False, dense_intermediates=False)

#: name -> options, for CLIs and config files
PRESETS: Dict[str, CompileOptions] = {
    "paper_headline": PAPER_HEADLINE,
    "unfused_ablation": UNFUSED_ABLATION,
    "debug": DEBUG,
}
