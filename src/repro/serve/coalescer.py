"""Cross-request coalescing: many requests -> one linearized mega-batch.

The compiler's generated code already executes a *forest* — the linearizer
batches nodes by height across every tree it is handed, and each node's
value depends only on its own subtree.  Coalescing therefore needs no new
kernel work at all: concatenate the queued requests' root sets, linearize
once (:meth:`repro.linearizer.Linearizer.coalesce`), launch the model's
host plan once, and scatter the root rows back to the requests that
contributed them.  Outputs are bit-identical to running each request alone;
what changes is that the per-flush host overhead (linearization, kernel
launches, workspace setup) is paid once for the whole batch instead of once
per caller.  A memoized flush (:mod:`repro.memo`) is the same batch with
cached subtrees pruned out of the forest and their rows to seed attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ServingError
from ..linearizer import Linearized, Linearizer
from .request import Request

if TYPE_CHECKING:  # repro.memo imports this module
    from ..memo.splice import MemoSplicer, SpliceResult


@dataclass
class CoalescedBatch:
    """One flush's worth of requests, merged into a single mega-batch."""

    requests: List[Request]
    lin: Linearized
    #: per request (in ``requests`` order): node ids of its roots, the
    #: scatter map from mega-batch rows back to the request's outputs
    root_ids: List[np.ndarray]
    #: the memoized flush's bookkeeping (``None`` without a splicer)
    splice: Optional["SpliceResult"] = None

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_nodes(self) -> int:
        return self.lin.num_nodes

    @property
    def seeds(self) -> Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]]:
        """``execute_plan(seeds=)``: cached rows to write at stub ids."""
        return None if self.splice is None else self.splice.seeds


def coalesce(requests: Sequence[Request], linearizer: Linearizer,
             memo: Optional["MemoSplicer"] = None) -> CoalescedBatch:
    """Merge the requests' root sets into one linearized forest.

    Refuses requests whose handles are already resolved — a cancelled or
    deadline-expired request must never ride a mega-batch (the server
    filters these before coalescing; this guard keeps the invariant for
    hand-rolled callers too).  With ``memo``, the splicer prunes cached
    subtrees before the forest is linearized.  Structure was checked per
    request at ``submit``; nothing here re-checks it.
    """
    if not requests:
        raise ServingError("cannot coalesce an empty request batch")
    dead = [r.request_id for r in requests if r.handle.done()]
    if dead:
        raise ServingError(
            f"requests {dead} are already resolved (cancelled or "
            f"expired); they must not be coalesced into a flush")
    root_sets = [r.roots for r in requests]
    if memo is None:
        lin, root_ids = linearizer.coalesce(root_sets)
        return CoalescedBatch(list(requests), lin, root_ids)
    splice = memo.coalesce(root_sets)
    return CoalescedBatch(list(requests), splice.lin, splice.root_ids,
                          splice)


def scatter(root_ids: Sequence[np.ndarray],
            workspace: Dict[str, np.ndarray],
            names: Sequence[str]) -> List[Dict[str, np.ndarray]]:
    """Per-request root-row outputs, one dict per entry of ``root_ids``
    (:attr:`CoalescedBatch.root_ids`, so in ``batch.requests`` order).

    One fancy-index per buffer gathers every request's rows at once;
    each request gets its own slice of that fresh array.  So the rows
    survive the mega-batch workspace being recycled into the arena, and
    no two requests' rows overlap — not even for a root they share.
    """
    if not root_ids:
        return []
    flat = np.concatenate(root_ids)
    gathered = [(n, workspace[n][flat]) for n in names]
    bounds = [0, *accumulate(map(len, root_ids))]
    return [{n: rows[a:b] for n, rows in gathered}
            for a, b in pairwise(bounds)]
