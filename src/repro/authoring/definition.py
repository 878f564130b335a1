"""Declarative model definitions: write the cell once, derive the rest.

A :class:`ModelDef` holds a single *builder* function — the RA cell math,
written once with ``p.input_tensor`` / ``p.compute`` / ``p.recursion_op``
— plus the structural facts compilation needs up front (structure kind,
arity bound, paper hidden sizes).  Every model in the zoo is one, and the
registry stores nothing else.  Everything else is **derived** from that
one definition:

* ``build(hidden, vocab, ...)`` — constructs the
  :class:`~repro.ra.ops.Program` (the definition owns the ``with Program``
  block, so the builder body is nothing but cell math);
* ``random_params(...)`` — parameter shapes come straight from the
  declared ``input_tensor`` extents, filled by seeded initializers
  (:mod:`repro.authoring.initializers`) in declaration order;
* ``reference(roots, params)`` — the recursive NumPy reference is the
  RA interpreter (:mod:`repro.ra.interp`) over the same program, so it
  cannot drift from the compiled model;
* ``outputs`` / ``multi_state`` — read off the ``recursion_op`` of one
  probe build (:func:`repro.ra.analysis.derive_metadata`), which also
  refuses a fixed child slot beyond ``max_children`` and a ``vocab``
  argument with no ``n.word`` read behind it.

``ModelDef.register()`` drops the definition into the global registry,
after which the model serves, exports, autotunes and benchmarks exactly
like a zoo model::

    from repro.authoring import model
    from repro.linearizer import StructureKind

    @model("my_cell", kind=StructureKind.TREE, max_children=2)
    def my_cell(p, hidden, vocab):
        Emb = p.input_tensor((vocab, hidden), "Emb")
        ...
        p.recursion_op(ph, body, "rnn")

    my_cell.register()
    m = repro.compile("my_cell", hidden=64)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..errors import CortexError
from ..linearizer import Node, StructureKind
from ..linearizer.structures import iter_nodes
from ..ra.analysis import DerivedMetadata, derive_metadata, word_tables
from ..ra.interp import ReferenceInterpreter
from ..ra.ops import InputOp, Program
from .initializers import Init, default_init

__all__ = ["AuthoringError", "ModelDef", "define_model", "model"]


class AuthoringError(CortexError):
    """Invalid model definition or underivable build arguments."""


#: distinct probe assignments for shape-template inference; every value is
#: unique within a column and differs across the two columns, so a shape
#: extent that *tracks* an argument is unambiguous
_PROBE_A = {"hidden": 5, "vocab": 11, "input_size": 3, "num_cells": 23}
_PROBE_B = {"hidden": 7, "vocab": 17, "input_size": 4, "num_cells": 29}
_EXTRA_A = (37, 41, 43, 53, 59, 61)
_EXTRA_B = (47, 67, 71, 73, 79, 83)

#: template entry kinds
_ARG, _CONST, _OPAQUE = "arg", "const", "opaque"


@dataclass(eq=False)  # identity semantics: each def owns its caches
class ModelDef:
    """One declaratively authored model; see the module docstring.

    Instances are what :func:`define_model` and the :func:`model`
    decorator return, and what the registry holds.  They are accepted
    directly by ``repro.compile``, :class:`~repro.pipeline.Session` (which
    keys its cache on the def itself), and
    :meth:`~repro.serve.Router.deploy`, and become addressable by name
    via :meth:`register`.

    Builders must accept a ``hidden`` argument — it is the size knob the
    whole surface (``compile(hidden=)``, ``hs``/``hl``, the CLI's
    ``--hidden``) is expressed in; a differently named size argument
    would silently ignore those requests.
    """

    short_name: str
    builder: Callable[..., Any]
    kind: StructureKind = StructureKind.TREE
    max_children: int = 2
    name: Optional[str] = None
    hs: int = 256
    hl: int = 512
    inits: Mapping[str, Init] = field(default_factory=dict)
    doc: str = ""

    def __post_init__(self) -> None:
        if not callable(self.builder):
            raise AuthoringError("builder must be callable")
        try:
            sig = inspect.signature(self.builder)
        except (TypeError, ValueError) as e:  # pragma: no cover
            raise AuthoringError(f"cannot inspect builder: {e}") from e
        params = list(sig.parameters.values())
        if not params:
            raise AuthoringError(
                "builder must take the Program as its first argument")
        self._accepted = {p.name: p for p in params[1:]}
        for p in params[1:]:
            if p.kind in (inspect.Parameter.VAR_POSITIONAL,
                          inspect.Parameter.VAR_KEYWORD):
                raise AuthoringError(
                    "builder arguments must be named (no *args/**kwargs): "
                    "shape inference needs to probe each one")
        if "hidden" not in self._accepted:
            raise AuthoringError(
                f"{self.short_name}: the builder must take a `hidden` "
                f"argument — compile(hidden=...), hs/hl and the CLI all "
                f"size models through it, and a builder without it would "
                f"silently ignore those requests")
        if self.name is None:
            self.name = self.short_name
        self.needs_vocab = "vocab" in self._accepted
        self._templates: Optional[Dict[str, Tuple]] = None
        self._meta: Optional[DerivedMetadata] = None
        self._prog_cache: Dict[Tuple, Program] = {}

    # -- program construction ------------------------------------------------
    def _build(self, args: Dict[str, Any]) -> Program:
        """Build the program for one resolved argument assignment."""
        unknown = [k for k in args if k not in self._accepted]
        if unknown:
            raise AuthoringError(
                f"{self.short_name}: builder does not accept {unknown}; "
                f"it takes {sorted(self._accepted)}")
        mc = int(args.get("max_children", self.max_children))
        prog = Program(self.short_name, self.kind, mc)
        with prog:
            self.builder(prog, **args)
        return prog.finalize()

    def _resolve_args(self, hidden: Optional[int], vocab: int,
                      build_kw: Dict[str, Any]) -> Dict[str, Any]:
        args = dict(build_kw)
        args["hidden"] = int(hidden) if hidden is not None else self.hs
        if self.needs_vocab:
            args["vocab"] = int(vocab)
        return args

    def build(self, hidden: Optional[int] = None, vocab: int = 1000,
              **build_kw) -> Program:
        """A fresh RA program for one configuration.

        ``hidden=None`` is the paper's small size (``hs``); ``vocab`` is
        dropped when the builder does not take one.  Never cached: each
        compiled model owns its program (:meth:`program` is the shared,
        read-only one).
        """
        return self._build(self._resolve_args(hidden, vocab, build_kw))

    def program(self, hidden: Optional[int] = None, vocab: int = 1000,
                **build_kw) -> Program:
        """The RA program for one configuration (cached per assignment;
        read-only — derivations share it)."""
        args = self._resolve_args(hidden, vocab, build_kw)
        key = tuple(sorted(args.items()))
        prog = self._prog_cache.get(key)
        if prog is None:
            prog = self._prog_cache[key] = self._build(args)
        return prog

    # -- derived parameters --------------------------------------------------
    def random_params(self, hidden: Optional[int] = None, vocab: int = 1000,
                      rng: Optional[np.random.Generator] = None,
                      **build_kw) -> Dict[str, np.ndarray]:
        """Seeded parameters: shapes from the declared input tensors,
        drawn in declaration order (default seed 0)."""
        prog = self.program(hidden, vocab, **build_kw)
        gen = rng if rng is not None else np.random.default_rng(0)
        tables = word_tables(prog)
        out: Dict[str, np.ndarray] = {}
        for op in prog.ops:
            if not isinstance(op, InputOp):
                continue
            t = op.output
            init = self.inits.get(t.name)
            if init is None:
                init = default_init(t.name in tables)
            out[t.name] = init.make(gen, t.concrete_shape({}))
        return out

    # -- shape templates (params -> build args) -------------------------------
    def _probe_args(self, table: Mapping[str, int],
                    extras: Sequence[int]) -> Dict[str, Any]:
        args: Dict[str, Any] = {}
        pool = iter(extras)
        for pname, p in self._accepted.items():
            if pname == "max_children":
                args[pname] = self.max_children
                continue
            if pname in table:
                args[pname] = table[pname]
            elif isinstance(p.default, bool):
                args[pname] = p.default
            elif isinstance(p.default, int):
                try:
                    args[pname] = next(pool)
                except StopIteration:
                    raise AuthoringError(
                        f"{self.short_name}: too many integer builder "
                        f"arguments to probe (more than {len(extras)} "
                        f"beyond {sorted(table)}); fold some into the "
                        f"builder body or give them non-integer defaults"
                    ) from None
            elif p.default is inspect.Parameter.empty:
                raise AuthoringError(
                    f"{self.short_name}: builder argument {pname!r} has no "
                    f"default and is not a known size argument; shape "
                    f"probing cannot assign it")
            # non-int defaults pass through untouched (flags, strings)
        return args

    def templates(self) -> Dict[str, Tuple]:
        """Per-input shape templates: which extents track which argument.

        Derived by building the program under two distinct small
        assignments of every size argument; an extent that equals the
        argument's value under *both* is attributed to it, an unchanged
        extent is a constant, anything else is opaque.  The reference
        evaluator inverts these templates to recover ``hidden``/``vocab``
        (and friends) from nothing but the parameter arrays.
        """
        if self._templates is not None:
            return self._templates
        args_a = self._probe_args(_PROBE_A, _EXTRA_A)
        args_b = self._probe_args(_PROBE_B, _EXTRA_B)
        prog_a = self._build(args_a)
        prog_b = self._build(args_b)
        ins_a = [op.output for op in prog_a.ops if isinstance(op, InputOp)]
        ins_b = {op.output.name: op.output for op in prog_b.ops
                 if isinstance(op, InputOp)}
        templates: Dict[str, Tuple] = {}
        for t in ins_a:
            tb = ins_b.get(t.name)
            if tb is None:
                raise AuthoringError(
                    f"{self.short_name}: input {t.name!r} exists only under "
                    f"some argument assignments; inputs must be declared "
                    f"unconditionally")
            sa, sb = t.concrete_shape({}), tb.concrete_shape({})
            dims = []
            for va, vb in zip(sa, sb):
                if va == vb:
                    dims.append((_CONST, va))
                    continue
                arg = next((k for k in args_a
                            if args_a[k] == va and args_b.get(k) == vb), None)
                dims.append((_ARG, arg) if arg is not None else (_OPAQUE, None))
            templates[t.name] = tuple(dims)
        self._templates = templates
        return templates

    def infer_build_args(self, params: Mapping[str, np.ndarray],
                         roots: Optional[Sequence[Node]] = None
                         ) -> Dict[str, Any]:
        """Recover the build arguments a parameter set was made for."""
        inferred: Dict[str, Any] = {}
        for tname, dims in self.templates().items():
            arr = params.get(tname)
            if arr is None:
                raise AuthoringError(
                    f"{self.short_name}: parameter {tname!r} missing; "
                    f"cannot infer build arguments")
            if len(arr.shape) != len(dims):
                raise AuthoringError(
                    f"{self.short_name}: parameter {tname!r} has rank "
                    f"{len(arr.shape)}, the definition declares {len(dims)}")
            for extent, (kind, ref) in zip(arr.shape, dims):
                if kind != _ARG:
                    continue
                prev = inferred.setdefault(ref, int(extent))
                if prev != int(extent):
                    raise AuthoringError(
                        f"{self.short_name}: inconsistent parameter shapes: "
                        f"{ref}={prev} vs {int(extent)} (from {tname!r})")
        if "max_children" in self._accepted and roots is not None:
            widest = max((len(n.children) for n in iter_nodes(list(roots))),
                         default=0)
            inferred["max_children"] = max(self.max_children, widest)
        return inferred

    # -- derived reference ----------------------------------------------------
    def reference(self, roots: Union[Node, Sequence[Node]],
                  params: Mapping[str, np.ndarray]) -> Dict[int, Any]:
        """The recursive reference, ``id(node) -> state`` (a tuple of
        states for a multi-state model): the RA interpreter over the
        model's own program, bit-faithful to the generated kernels."""
        root_list = [roots] if isinstance(roots, Node) else list(roots)
        args = self.infer_build_args(params, root_list)
        hidden = args.pop("hidden", None)
        vocab = args.pop("vocab", 1000)
        prog = self.program(hidden, vocab, **args)
        return ReferenceInterpreter(prog)(root_list, params)

    def reference_h(self, roots: Sequence[Node],
                    params: Mapping[str, np.ndarray]) -> Dict[int, np.ndarray]:
        """Reference hidden state per node (the first state when several)."""
        ref = self.reference(roots, params)
        if self.multi_state:
            return {k: v[0] for k, v in ref.items()}
        return ref

    # -- derived metadata ------------------------------------------------------
    def metadata(self) -> DerivedMetadata:
        """Facts read off one probe build (derived once, then cached).

        Refuses a definition that reads a fixed child slot beyond
        ``max_children`` (:class:`~repro.errors.LoweringError`) or takes
        ``vocab`` without ever reading ``n.word`` (:class:`AuthoringError`).
        """
        if self._meta is None:
            meta = derive_metadata(self.program(hidden=_PROBE_A["hidden"],
                                                vocab=_PROBE_A["vocab"]))
            if self.needs_vocab and not meta.uses_words:
                raise AuthoringError(
                    f"{self.short_name}: the builder takes `vocab` but the "
                    f"program never reads `n.word` — nothing to embed")
            self._meta = meta
        return self._meta

    @property
    def outputs(self) -> Tuple[str, ...]:
        """The recursion's output state buffers, in declaration order."""
        return self.metadata().outputs

    @property
    def multi_state(self) -> bool:
        """True when the recursion resolves more than one state."""
        return self.metadata().multi_state

    def register(self) -> "ModelDef":
        """Add this definition to the global model registry.

        After this the model is addressable by name everywhere a zoo
        model is: ``repro.compile``, sessions, ``ModelServer``/``Router``,
        artifact export, the CLI and ``tune.grid_search``.
        """
        from ..models.registry import register as _register

        return _register(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ModelDef({self.short_name}, kind={self.kind.value}, "
                f"max_children={self.max_children})")


def define_model(short_name: str, builder: Callable[..., Any], *,
                 kind: StructureKind = StructureKind.TREE,
                 max_children: int = 2, name: Optional[str] = None,
                 hs: int = 256, hl: int = 512,
                 inits: Optional[Mapping[str, Init]] = None,
                 doc: str = "") -> ModelDef:
    """Define a model from a builder function; see :class:`ModelDef`."""
    return ModelDef(short_name=short_name, builder=builder, kind=kind,
                    max_children=max_children, name=name, hs=hs, hl=hl,
                    inits=dict(inits or {}), doc=doc)


def model(short_name: str, *, kind: StructureKind = StructureKind.TREE,
          max_children: int = 2, name: Optional[str] = None,
          hs: int = 256, hl: int = 512,
          inits: Optional[Mapping[str, Init]] = None,
          register: bool = False) -> Callable[[Callable], ModelDef]:
    """Decorator form of :func:`define_model`.

    ``@model("my_cell", ...)`` over a builder function replaces it with
    the :class:`ModelDef`; pass ``register=True`` to also drop it into
    the global registry at definition time.
    """
    def deco(fn: Callable[..., Any]) -> ModelDef:
        d = define_model(short_name, fn, kind=kind,
                         max_children=max_children, name=name, hs=hs, hl=hl,
                         inits=inits, doc=fn.__doc__ or "")
        if register:
            d.register()
        return d
    return deco
