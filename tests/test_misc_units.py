"""Unit tests for the smaller support modules: utils, dims, harness, profiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import format_table, paper_inputs, speedup
from repro.errors import IRError
from repro.ir import (Dim, DimRegistry, Var, collect_ufs, expr_to_str,
                      tanh, uf)
from repro.utils import NameSupply, product, sanitize_identifier


# -- utils ------------------------------------------------------------------

def test_name_supply_unique_and_deterministic():
    ns = NameSupply()
    assert ns.fresh("x") == "x"
    assert ns.fresh("x") == "x_1"
    assert ns.fresh("y") == "y"
    ns2 = NameSupply()
    assert ns2.fresh("x") == "x"  # fresh supply restarts


def test_sanitize_identifier():
    assert sanitize_identifier("a-b c") == "a_b_c"
    assert sanitize_identifier("1abc").startswith("_")
    assert sanitize_identifier("ok_name") == "ok_name"


def test_product():
    assert product([2, 3, 4]) == 24
    assert product([]) == 1


# -- dims ----------------------------------------------------------------------

def test_dim_registry_idempotent():
    reg = DimRegistry()
    d1 = reg.dim("d_node")
    d2 = reg.dim("d_node")
    assert d1 is d2
    with pytest.raises(IRError):
        reg.dim("d_node", kind=Dim.FUN)


def test_dim_relations():
    reg = DimRegistry()
    node = reg.dim("d_node")
    batch = reg.dim("d_batch")
    all_b = reg.dim("d_all_batches")
    batches = uf("batches", 2, range=(0, 100))
    b, i = Var("b"), Var("i")
    reg.relate(node, [all_b, batch], [b, i], batches(b, i))
    assert reg.source_dims(node) == [all_b, batch]
    assert reg.source_dims(batch) == [batch]  # no relation: identity


def test_dim_relation_arity_checked():
    reg = DimRegistry()
    node = reg.dim("n")
    with pytest.raises(IRError):
        reg.relate(node, [node], [], Var("x"))


# -- uninterpreted functions ------------------------------------------------------

def test_collect_ufs():
    from repro.ir import float32

    left = uf("left", 1)
    right = uf("right", 1)
    n = Var("n")
    found = collect_ufs([left(n) + right(n), tanh(Var("h", float32))])
    names = {f.name for f in found}
    assert names == {"left", "right"}


def test_uf_bad_arity_and_monotonic():
    with pytest.raises(IRError):
        uf("f", 0)
    with pytest.raises(IRError):
        uf("f", 1, monotonic="sideways")


# -- bench harness ----------------------------------------------------------------

def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="t")
    lines = out.splitlines()
    assert lines[0] == "t"
    assert "|" in lines[1]
    assert len({len(l) for l in lines[1:]}) <= 2  # aligned widths


def test_speedup():
    assert speedup(10.0, 2.0) == 5.0
    assert speedup(1.0, 0.0) == float("inf")


def test_paper_inputs_shapes():
    assert len(paper_inputs("treefc", 3)) == 3
    assert len(paper_inputs("dagrnn", 2)) == 2
    seqs = paper_inputs("seq_lstm", 2, seq_len=10)
    # leading virtual step + 10 real steps
    from repro.linearizer import count_nodes

    assert count_nodes(seqs[:1]) == 11


def test_paper_inputs_cached():
    a = paper_inputs("treegru", 4)
    b = paper_inputs("treegru", 4)
    assert a is b


# -- profiler --------------------------------------------------------------------

def test_activity_breakdown_row_units():
    from repro.runtime import ActivityBreakdown

    bd = ActivityBreakdown(framework="X", dynamic_batching_s=0.001,
                           kernel_calls=5, exec_time_s=0.002)
    row = bd.row()
    assert row["Dyn. batch (ms)"] == 1.0
    assert row["#Kernel calls"] == 5
    assert row["Exe. time (ms)"] == 2.0


# -- property: format_table never truncates values ---------------------------------

@given(st.lists(st.tuples(st.integers(-999, 999), st.floats(0, 99)),
                min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_format_table_contains_all_values(rows):
    rows = [[a, round(b, 3)] for a, b in rows]
    out = format_table(["x", "y"], rows)
    for a, _ in rows:
        assert str(a) in out
