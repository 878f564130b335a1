"""Small shared helpers: unique naming, identifiers, products."""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable

_IDENT_RE = re.compile(r"[^0-9a-zA-Z_]+")


class NameSupply:
    """Produces unique, deterministic identifiers.

    A fresh supply is created per compilation so generated names are stable
    across runs (important for snapshot tests on generated code).
    """

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()

    def fresh(self, hint: str = "v") -> str:
        base = sanitize_identifier(hint) or "v"
        n = self._counts[base]
        self._counts[base] += 1
        return base if n == 0 else f"{base}_{n}"

    def reset(self) -> None:
        self._counts.clear()


def sanitize_identifier(name: str) -> str:
    """Turn an arbitrary string into a valid Python/C identifier."""
    out = _IDENT_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def product(values: Iterable[int]) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out
