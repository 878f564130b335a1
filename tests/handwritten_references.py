"""Hand-written recursive NumPy references for the authored tree models.

Test oracles only: ``tests/test_authoring.py`` checks the derived RA
interpreter (``spec.reference``) against these independent recursions.
Each returns ``id(node) -> h`` (``(h, c)`` for TreeLSTM) and shares
subtrees by identity.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.linearizer import Node
from repro.models.cells import np_sigmoid


def treefc(roots: Sequence[Node], params: Dict[str, np.ndarray]
           ) -> Dict[int, np.ndarray]:
    """Hand-written recursive NumPy reference (parity cross-check only)."""
    emb, wl, wr, b = params["Emb"], params["Wl"], params["Wr"], params["b"]
    out: Dict[int, np.ndarray] = {}

    def go(node: Node) -> np.ndarray:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
        else:
            z = wl @ go(node.left) + wr @ go(node.right) + b
            h = np.maximum(z, 0).astype(np.float32)
        out[id(node)] = h
        return h

    for r in roots:
        go(r)
    return out


def treernn(roots: Sequence[Node], params: Dict[str, np.ndarray]
            ) -> Dict[int, np.ndarray]:
    """Hand-written recursive NumPy reference (parity cross-check only)."""
    emb = params["Emb"]
    out: Dict[int, np.ndarray] = {}

    def go(node: Node) -> np.ndarray:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
        else:
            h = np.tanh(go(node.left) + go(node.right)).astype(np.float32)
        out[id(node)] = h
        return h

    for r in roots:
        go(r)
    return out


def treegru(roots: Sequence[Node], params: Dict[str, np.ndarray], *,
            simple: bool = False) -> Dict[int, np.ndarray]:
    """Hand-written recursive NumPy reference (parity cross-check only)."""
    out: Dict[int, np.ndarray] = {}
    emb = params["Emb"]

    def go(node: Node) -> np.ndarray:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
        else:
            h_sum = np.sum([go(c) for c in node.children], axis=0)
            z = np_sigmoid(params["Uz"] @ h_sum + params["bz"])
            r = np_sigmoid(params["Ur"] @ h_sum + params["br"])
            hp = np.tanh(params["Uh"] @ (r * h_sum) + params["bh"])
            if simple:
                h = ((1.0 - z) * hp).astype(np.float32)
            else:
                h = (z * h_sum + (1.0 - z) * hp).astype(np.float32)
        out[id(node)] = h
        return h

    for r in roots:
        go(r)
    return out


def simple_treegru(roots, params):
    return treegru(roots, params, simple=True)


def treelstm(roots: Sequence[Node], params: Dict[str, np.ndarray]
             ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Hand-written reference, ``id(node) -> (h, c)`` (cross-check only)."""
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    emb = params["Emb"]

    def go(node: Node) -> Tuple[np.ndarray, np.ndarray]:
        if id(node) in out:
            return out[id(node)]
        if node.is_leaf:
            h = emb[node.word].astype(np.float32)
            c = np.zeros_like(h)
        else:
            hs = [go(ch)[0] for ch in node.children]
            cs = [go(ch)[1] for ch in node.children]
            h_tilde = np.sum(hs, axis=0)
            gi = np_sigmoid(params["Ui"] @ h_tilde + params["bi"])
            go_ = np_sigmoid(params["Uo"] @ h_tilde + params["bo"])
            gu = np.tanh(params["Uu"] @ h_tilde + params["bu"])
            c = gi * gu
            for hk, ck in zip(hs, cs):
                fk = np_sigmoid(params["Uf"] @ hk + params["bf"])
                c = c + fk * ck
            c = c.astype(np.float32)
            h = (go_ * np.tanh(c)).astype(np.float32)
        out[id(node)] = (h, c)
        return h, c

    for r in roots:
        go(r)
    return out
