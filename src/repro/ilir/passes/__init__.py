"""ILIR compilation passes."""

from .barrier_insertion import (dependence_carrying_loops, insert_barriers)

__all__ = [
    "dependence_carrying_loops", "insert_barriers",
]
