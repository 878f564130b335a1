"""ILIR compilation passes."""

from .barrier_insertion import (dependence_carrying_loops, insert_barriers)
from .nonlinear_approx import (apply_rational_approximations, sigmoid_rational,
                               tanh_rational)

__all__ = [
    "dependence_carrying_loops", "insert_barriers",
    "apply_rational_approximations", "sigmoid_rational", "tanh_rational",
]
