"""Seeded parameter initializers for declaratively authored models.

The authoring layer derives parameter *shapes* from the ``input_tensor``
declarations of a model's RA program; these initializer specs say how to
fill them.  Models rarely need to spell one out: :func:`default_init`
reproduces the zoo's long-standing conventions (lookup tables at scale
0.5, weights and biases at scale 0.1), where a lookup table is a tensor
the program indexes by ``n.word`` (:func:`repro.ra.analysis.word_tables`).
Per-tensor overrides go through ``inits={"W": init.normal(0.02)}`` on
:func:`~repro.authoring.define_model`.

All initializers draw from the single :class:`numpy.random.Generator`
the caller supplies, in input-declaration order, so a fixed seed yields
reproducible parameters for a fixed model definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = ["Init", "normal", "embedding", "zeros", "constant",
           "eye_plus_noise", "default_init"]

#: signature of the fill function: (rng, shape) -> array
InitFn = Callable[[np.random.Generator, Tuple[int, ...]], np.ndarray]


@dataclass(frozen=True)
class Init:
    """One parameter's initialization recipe."""

    fn: InitFn
    label: str = "custom"

    def make(self, rng: np.random.Generator,
             shape: Tuple[int, ...]) -> np.ndarray:
        arr = self.fn(rng, shape)
        if tuple(arr.shape) != tuple(shape):
            raise ValueError(
                f"initializer {self.label!r} produced shape "
                f"{tuple(arr.shape)}, expected {tuple(shape)}")
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Init({self.label})"


def normal(scale: float = 0.1) -> Init:
    """Scaled standard-normal float32 draw (the zoo's weight default)."""
    return Init(lambda rng, shape:
                (rng.standard_normal(shape) * scale).astype(np.float32),
                label=f"normal({scale})")


def embedding(scale: float = 0.5) -> Init:
    """Embedding-table draw (the zoo's lookup-table default)."""
    return normal(scale)


def zeros() -> Init:
    return Init(lambda rng, shape: np.zeros(shape, np.float32),
                label="zeros")


def constant(value: float) -> Init:
    return Init(lambda rng, shape: np.full(shape, value, np.float32),
                label=f"constant({value})")


def eye_plus_noise(scale: float = 0.05) -> Init:
    """Identity plus scaled noise, for square matrix states (MV-RNN)."""
    def fn(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("eye_plus_noise needs a square 2-D shape")
        return (np.eye(shape[0], dtype=np.float32)
                + (rng.standard_normal(shape) * scale).astype(np.float32))
    return Init(fn, label=f"eye_plus_noise({scale})")


def default_init(table: bool) -> Init:
    """The convention-over-configuration default for one input tensor.

    A lookup table — an embedding or feature table, i.e. a tensor the
    program indexes by ``n.word`` — draws at scale 0.5; everything else
    (weights, biases) at scale 0.1.
    """
    return embedding() if table else normal()
