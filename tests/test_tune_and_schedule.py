"""Tests for the grid-search autotuner and the ILIR module verifier."""

from collections import Counter

import numpy as np
import pytest

import repro
from repro.data import grid_dag_batch, synthetic_treebank
from repro.errors import ScheduleError
from repro.linearizer import Linearizer
from repro.models.registry import resolve_model
from repro.options import CompileOptions
from repro.pipeline import Session
from repro.runtime import V100, SimSchedule, estimate
from repro.tune import grid_search

VOCAB = 100
TREES = synthetic_treebank(3, vocab_size=VOCAB, rng=np.random.default_rng(2))


# -- autotuner ---------------------------------------------------------------

def test_grid_search_picks_full_optimizations_for_trees():
    result = grid_search("treegru", 64, TREES, V100, vocab=VOCAB)
    best = result.best
    assert best.config["fusion"] == "max"
    assert best.config["persistence"] is True
    # the sweep really explored both good and bad points
    assert result.worst.latency_ms > 2 * best.latency_ms
    assert "grid search" in result.summary()


def test_grid_search_respects_dag_restrictions():
    dags = grid_dag_batch(1, 5, 5)
    result = grid_search("dagrnn", 64, dags, V100)
    # unroll/refactor points are recorded as illegal, not crashed
    illegal = [t for t in result.trials if not t.ok]
    assert illegal, "DAG restrictions should reject some points"
    assert all("trees and sequences" in t.error for t in illegal)
    assert result.best.config["unroll"] is False


def test_grid_search_prefers_refactor_for_simple_treegru():
    space = {"fusion": ("max",), "specialize": (True,),
             "persistence": (True,), "refactor": (False, True)}
    result = grid_search("simple_treegru", 128, TREES, V100, vocab=VOCAB,
                         space=space)
    assert result.best.config["refactor"] is True


def test_grid_search_unroll_needs_per_block_for_treernn():
    space = {"fusion": ("max",), "specialize": (True,),
             "persistence": (False,), "unroll": (False, True),
             "per_block": (False, True)}
    result = grid_search("treernn", 64, TREES, V100, vocab=VOCAB, space=space)
    best = result.best
    if best.config["unroll"]:
        assert best.config["per_block"] is True  # Fig. 10b


@pytest.mark.parametrize("name, roots", [
    ("treegru", TREES), ("dagrnn", grid_dag_batch(1, 3, 3))])
def test_grid_search_linearizes_once_per_compiled_point(monkeypatch, name,
                                                        roots):
    """Every SimSchedule point of a compiled model is priced on one
    ``Linearized``; the trials are what per-point estimates give."""
    calls = Counter()
    real = Linearizer.__call__

    def counting(self, *args, **kw):
        calls[id(self)] += 1
        return real(self, *args, **kw)

    session = Session()
    monkeypatch.setattr(Linearizer, "__call__", counting)
    result = grid_search(name, 8, roots, V100, vocab=VOCAB, session=session)
    monkeypatch.undo()
    compiled = {(t.config["fusion"], t.config["specialize"])
                for t in result.trials}
    assert len(compiled) == 4 and len(result.trials) == 64
    assert sorted(calls.values()) == [1] * len(compiled)

    for t in result.trials:
        options = {k: t.config[k] for k in ("fusion", "specialize")}
        model = session.compile(resolve_model(name),
                                CompileOptions(**options), hidden=8,
                                vocab=VOCAB)
        sim = SimSchedule(**{k: v for k, v in t.config.items()
                             if k not in options})
        try:
            want = (estimate(model, roots, V100, sim).total_time_s * 1e3,
                    None)
        except ScheduleError as e:
            want = (None, str(e))
        assert (t.latency_ms, t.error) == want, t.config


# -- module verifier -----------------------------------------------------------

def test_verifier_accepts_all_zoo_modules():
    from repro.ilir import verify_module

    for name in ("treernn", "treelstm", "mvrnn"):
        m = repro.compile(name, hidden=8, vocab=VOCAB)
        assert verify_module(m.lowered.module) == []


def test_verifier_flags_unknown_buffer():
    from repro.ilir import verify_module

    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    mod = m.lowered.module
    # sabotage: drop a buffer from the map
    victim = mod.fused_kernel.nests[0].out.name
    removed = mod.buffers.pop(victim)
    problems = verify_module(mod)
    assert any(victim in p for p in problems)
    mod.buffers[victim] = removed
