"""Zipf-skewed request streams with shared substructure.

The workloads the memoization layer (:mod:`repro.memo`) is built for:
production streams of recursive structures repeat themselves — popular
phrases recur across parse trees, expression DAGs share common
subexpressions, and sequence requests share prefixes.  Each generator
here draws from a bounded pool of "phrase" substructures under a Zipf
popularity law and composes fresh requests on top, so consecutive
requests are *distinct at the root* but share hot subtrees — exactly the
shape where a content-addressed subtree cache pays off and a whole-input
cache would not.

The pool substructures are reused as the *same objects* across requests
(as a caller holding canonicalized phrase structures would), which also
exercises the memo layer's skip of already-digested nodes; structural
hashing is content-addressed, so fresh copies would hit the cache all the
same.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..linearizer import Node
from .dags import random_dag
from .trees import random_binary_tree
from .vocab import DEFAULT_VOCAB_SIZE


def zipf_ranks(n: int, size: int, a: float = 1.1,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """``size`` draws from a bounded Zipf law over ranks ``[0, n)``.

    ``P(rank r) ∝ (r + 1)^-a`` — the standard web/workload popularity
    skew; ``a = 1.1`` makes the head hot without starving the tail
    (numpy's ``zipf`` is unbounded, hence this explicit normalization).
    """
    if rng is None:
        rng = np.random.default_rng()
    weights = (np.arange(1, n + 1, dtype=np.float64)) ** -float(a)
    weights /= weights.sum()
    return rng.choice(n, size=size, p=weights)


def zipf_tree_stream(n_requests: int, *,
                     vocab_size: int = DEFAULT_VOCAB_SIZE,
                     num_phrases: int = 32, phrase_leaves: int = 8,
                     phrases_per_request: int = 3, zipf_a: float = 1.1,
                     repeat_fraction: float = 0.3, num_templates: int = 32,
                     seed: int = 0) -> List[Node]:
    """Parse-tree requests sharing Zipf-popular phrase subtrees.

    A pool of ``num_phrases`` random binary phrase trees is built once;
    a fresh request picks ``phrases_per_request`` of them by Zipf rank
    and joins them under a new spine of interior nodes — distinct at the
    root, hot below.  A ``repeat_fraction`` of requests are instead
    *exact repeats* of Zipf-popular full request templates (production
    streams repeat whole queries, not only phrases).
    """
    rng = np.random.default_rng(seed)
    pool = [random_binary_tree(phrase_leaves, vocab_size=vocab_size, rng=rng)
            for _ in range(num_phrases)]

    def fresh() -> Node:
        row = zipf_ranks(num_phrases, phrases_per_request, a=zipf_a, rng=rng)
        # a request must be a *tree*: repeating one phrase object inside
        # a single request would make it a DAG, so duplicates collapse
        # (sharing across requests is the point; within, it's dropped)
        chosen = list(dict.fromkeys(int(r) for r in row))
        root = pool[chosen[0]]
        for r in chosen[1:]:
            root = Node((root, pool[r]))
        return root

    templates = [fresh() for _ in range(num_templates)]
    out: List[Node] = []
    for _ in range(n_requests):
        if rng.random() < repeat_fraction:
            out.append(templates[int(zipf_ranks(num_templates, 1, a=zipf_a,
                                                rng=rng)[0])])
        else:
            out.append(fresh())
    return out


def zipf_sequence_stream(n_requests: int, *,
                         vocab_size: int = DEFAULT_VOCAB_SIZE,
                         num_prefixes: int = 32, prefix_len: int = 24,
                         suffix_len: int = 8, zipf_a: float = 1.1,
                         seed: int = 0) -> List[Node]:
    """Sequence requests sharing Zipf-popular prefixes.

    The natural sharing shape for left-recursive chains: a subtree of the
    final node is exactly a prefix, so a shared prefix is a cacheable
    subtree.  Prefix *chain objects* are pooled and extended with fresh
    suffix nodes (extension never mutates the prefix chain — ``Node``
    children are immutable tuples).
    """
    rng = np.random.default_rng(seed)
    from ..linearizer import sequence

    pool = [sequence(list(rng.integers(0, vocab_size, size=prefix_len)))
            for _ in range(num_prefixes)]
    picks = zipf_ranks(num_prefixes, n_requests, a=zipf_a, rng=rng)
    out: List[Node] = []
    for p in picks:
        node = pool[int(p)]
        for w in rng.integers(0, vocab_size, size=suffix_len):
            node = Node((node,), int(w))
        out.append(node)
    return out


def zipf_dag_stream(n_requests: int, *,
                    num_subdags: int = 48, subdag_nodes: int = 12,
                    subdags_per_request: int = 3, zipf_a: float = 1.1,
                    repeat_fraction: float = 0.3, num_templates: int = 24,
                    seed: int = 0) -> List[Node]:
    """DAG requests sharing Zipf-popular sub-DAGs (common subexpressions).

    Each fresh request joins ``subdags_per_request`` pooled sub-DAGs
    under new binary join nodes — the common-subexpression pattern of
    expression-graph workloads — and a ``repeat_fraction`` of requests
    exactly repeat a Zipf-popular full expression template.
    """
    rng = np.random.default_rng(seed)
    pool = [random_dag(subdag_nodes, rng=rng) for _ in range(num_subdags)]

    def fresh() -> Node:
        row = zipf_ranks(num_subdags, subdags_per_request, a=zipf_a, rng=rng)
        # distinct sub-DAGs per request: duplicates would make the join
        # spine share one child twice, which is legal for DAG models but
        # degenerate as a workload
        chosen = list(dict.fromkeys(int(r) for r in row))
        root = pool[chosen[0]]
        for r in chosen[1:]:
            root = Node((root, pool[r]))
        return root

    templates = [fresh() for _ in range(num_templates)]
    out: List[Node] = []
    for _ in range(n_requests):
        if rng.random() < repeat_fraction:
            out.append(templates[int(zipf_ranks(num_templates, 1, a=zipf_a,
                                                rng=rng)[0])])
        else:
            out.append(fresh())
    return out
