"""Tests for the unified compile API: CompileOptions, pipeline, Session.

Covers the PR's acceptance criteria: eager option validation (illegal
combinations raise instead of being coerced), preset/`with_` derivation,
cross-process-stable cache keys, staged compilation with per-stage
records and hooks, Session compile-count elimination (equal options ->
the same model object), the Validate enum as the one spelling of
`validate=`, and the `_prog_of` owning-program fix.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import CompileOptions, Session, Validate
from repro.data import synthetic_treebank
from repro.errors import IRError, ScheduleError
from repro.models import get_model
from repro.options import DEBUG, PAPER_HEADLINE, PRESETS, UNFUSED_ABLATION
from repro.pipeline import STAGES, CompilerPipeline
from repro.ra import schedule as sched
from repro.ra.ops import Program

VOCAB = 50
RNG = np.random.default_rng(11)
TREES = synthetic_treebank(3, vocab_size=VOCAB, rng=RNG)


# -- CompileOptions: eager validation ----------------------------------------

def test_defaults_are_paper_headline():
    opts = CompileOptions()
    assert opts == PAPER_HEADLINE
    assert opts.fusion == "max" and opts.persistence
    assert opts.dynamic_batch and opts.specialize


def test_persistence_without_fusion_raises_eagerly():
    with pytest.raises(ScheduleError, match="persistence requires"):
        CompileOptions(fusion="none", persistence=True)


def test_unknown_fusion_level_raises():
    with pytest.raises(ScheduleError, match="unknown fusion level"):
        CompileOptions(fusion="most")


def test_non_bool_knob_raises():
    with pytest.raises(ScheduleError, match="must be a bool"):
        CompileOptions(unroll="yes")


def test_with_rebuilds_and_revalidates():
    opts = PAPER_HEADLINE.with_(unroll=True, per_block=True)
    assert opts.unroll and opts.per_block
    assert PAPER_HEADLINE.unroll is False  # original untouched
    with pytest.raises(ScheduleError):
        PAPER_HEADLINE.with_(fusion="none")  # persistence still True


def test_presets_are_valid_and_registered():
    for name, preset in PRESETS.items():
        preset.validate()
        assert isinstance(name, str)
    assert UNFUSED_ABLATION.fusion == "none"
    assert not UNFUSED_ABLATION.persistence
    assert not DEBUG.dynamic_batch and not DEBUG.specialize


def test_dict_roundtrip_and_unknown_fields():
    opts = CompileOptions(unroll=True, per_block=True)
    assert CompileOptions.from_dict(opts.to_dict()) == opts
    with pytest.raises(ScheduleError, match="unknown CompileOptions"):
        CompileOptions.from_dict({"fusion": "max", "warp_specialize": True})


# -- cache keys ---------------------------------------------------------------

def test_cache_key_distinguishes_configs_and_matches_equal_ones():
    a, b = CompileOptions(), CompileOptions()
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != UNFUSED_ABLATION.cache_key()
    assert a.cache_key() != a.with_(unroll=True).cache_key()


def test_cache_key_stable_across_processes():
    """The key must not depend on PYTHONHASHSEED or process identity."""
    code = ("from repro.options import CompileOptions as C; "
            "print(C().cache_key(), "
            "C(fusion='none', persistence=False).cache_key())")
    src = str(Path(repro.__file__).parents[1])
    outs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outs.add(proc.stdout.strip())
    assert len(outs) == 1, f"cache_key varies across processes: {outs}"
    unfused = CompileOptions(fusion="none", persistence=False)
    assert outs.pop() == (f"{CompileOptions().cache_key()} "
                          f"{unfused.cache_key()}")


# -- staged pipeline ----------------------------------------------------------

def test_pipeline_records_every_stage_in_order():
    model = repro.compile("treernn", hidden=8, vocab=VOCAB)
    assert model.report is not None
    assert tuple(r.stage for r in model.report.stages) == STAGES
    assert all(r.wall_time_s >= 0 for r in model.report.stages)
    assert model.report.total_s >= model.report.stage_time_s("lower")
    assert "treernn" in model.report.summary()


def test_on_stage_hooks_fire_per_stage():
    seen = []
    repro.compile("treernn", hidden=8, vocab=VOCAB,
                  on_stage=lambda r: seen.append(r.stage))
    assert tuple(seen) == STAGES


def test_on_stage_hooks_forward_through_session():
    seen = []
    session = Session()
    repro.compile("treernn", hidden=8, vocab=VOCAB, session=session,
                  on_stage=lambda r: seen.append(r.stage))
    assert tuple(seen) == STAGES
    # a cache hit runs no stages, so the hook stays silent
    repro.compile("treernn", hidden=8, vocab=VOCAB, session=session,
                  on_stage=lambda r: seen.append("hit:" + r.stage))
    assert tuple(seen) == STAGES


def test_compiled_model_carries_its_options():
    opts = CompileOptions(specialize=False)
    model = repro.compile("treernn", opts, hidden=8, vocab=VOCAB)
    assert model.options == opts
    meta = model.lowered.module.meta
    assert meta["specialize"] is False and meta["fusion"] == "max"


def test_compile_rejects_positional_hidden_with_clear_error():
    """compile(name, 64) — the legacy second positional was hidden= —
    must fail loudly, not with a deep AttributeError."""
    with pytest.raises(TypeError, match="hidden"):
        repro.compile("treernn", 64)
    with pytest.raises(TypeError, match="hidden"):
        Session().compile("treernn", 64)


def test_pipeline_rejects_dag_unroll_at_schedule_stage():
    with pytest.raises(ScheduleError, match="trees and sequences"):
        repro.compile("dagrnn", CompileOptions(unroll=True), hidden=8,
                      num_cells=64)


# -- Session ------------------------------------------------------------------

def test_session_cache_hits_return_same_object():
    session = Session()
    a = session.compile("treernn", CompileOptions(), hidden=8, vocab=VOCAB)
    b = session.compile("treernn", CompileOptions(), hidden=8, vocab=VOCAB)
    assert a is b
    # equal-but-distinct options objects hit the same entry (stable key)
    c = session.compile("treernn", CompileOptions().with_(), hidden=8,
                        vocab=VOCAB)
    assert c is a
    d = session.compile("treernn", UNFUSED_ABLATION, hidden=8, vocab=VOCAB)
    assert d is not a
    assert session.cache_info() == {"entries": 2, "hits": 2, "misses": 2,
                                    "bypasses": 0}


def test_session_eliminates_duplicate_compiles_probe():
    """The compile-count probe: n distinct configs -> n pipeline runs."""
    session = Session()
    for _ in range(4):
        session.compile("treernn", CompileOptions(), hidden=8, vocab=VOCAB)
        session.compile("treernn", DEBUG, hidden=8, vocab=VOCAB)
    assert session.pipeline.compile_count == 2
    assert session.stats.hits == 6


def test_session_keys_by_spec_identity_not_short_name():
    """A custom spec reusing a zoo short_name must not hit the zoo entry."""
    import dataclasses as dc

    session = Session()
    zoo = session.compile("treernn", hidden=8, vocab=VOCAB)
    gru_spec = get_model("treegru")
    imposter = dc.replace(gru_spec, short_name="treernn")
    other = session.compile(imposter, hidden=8, vocab=VOCAB)
    assert other is not zoo
    assert session.stats.misses == 2
    assert "treegru" in other.lowered.module.name.lower() \
        or other.python_source != zoo.python_source


def test_two_threaded_servers_cannot_share_one_arena():
    """Session cache hits share the model object; starting a second
    threaded server over the same (non-thread-safe) arena must fail."""
    from repro.errors import ServingError

    session = Session()
    a = session.compile("treernn", CompileOptions(), hidden=8, vocab=VOCAB)
    b = session.compile("treernn", CompileOptions(), hidden=8, vocab=VOCAB)
    assert a is b
    s1 = a.server().start()
    try:
        with pytest.raises(ServingError, match="already owned"):
            b.server().start()
    finally:
        s1.stop()
    # once the owner stops, the arena is free again
    s2 = b.server().start()
    s2.stop()


def test_session_resolves_default_hidden_and_bypasses_on_rng():
    session = Session()
    spec = get_model("treernn")
    a = session.compile("treernn", hidden=spec.hs, vocab=VOCAB)
    b = session.compile("treernn", vocab=VOCAB)  # hidden=None -> spec.hs
    assert a is b
    c = session.compile("treernn", hidden=spec.hs, vocab=VOCAB,
                        rng=np.random.default_rng(0))
    assert c is not a and session.stats.bypasses == 1


def test_grid_search_shares_compiles_through_session():
    from repro.runtime import V100
    from repro.tune import grid_search

    session = Session()
    space = {"fusion": ("max",), "specialize": (False, True),
             "persistence": (True,)}
    grid_search("treernn", 8, TREES, V100, vocab=VOCAB, space=space,
                session=session)
    before = session.pipeline.compile_count
    result = grid_search("treernn", 8, TREES, V100, vocab=VOCAB, space=space,
                         session=session)
    assert session.pipeline.compile_count == before  # all hits
    assert len(result.valid) == 2


# -- Validate enum ------------------------------------------------------------

def test_validate_refuses_legacy_spellings():
    """``validate=`` takes Validate members only: the old bool and string
    spellings are a TypeError naming the enum, at every entry point."""
    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    for legacy in (True, False, "first", "never", "sometimes", 3, None):
        with pytest.raises(TypeError, match="repro.Validate member"):
            m.run(TREES, validate=legacy)
        with pytest.raises(TypeError, match="repro.Validate member"):
            m.run_many([TREES], validate=legacy)
    assert not hasattr(Validate, "coerce")


def test_run_and_run_many_accept_validate_enum():
    m = repro.compile("treernn", hidden=8, vocab=VOCAB)
    ref = m.run(TREES).output("rnn").copy()
    assert np.array_equal(m.run(TREES, validate=Validate.NEVER).output("rnn"),
                          ref)
    for mode in (Validate.FIRST, Validate.ALWAYS, Validate.NEVER):
        res = m.run_many([TREES], validate=mode)
        assert np.array_equal(res[0].root_output("rnn"),
                              ref[m.lowered.linearizer(TREES).roots])


# -- _prog_of: owning-program resolution --------------------------------------

def test_schedule_primitives_work_outside_program_block():
    prog = get_model("treernn").build_program(hidden=8, vocab=VOCAB)
    out = prog.recursion.outputs[0]
    # no `with Program(...)` active: Program.current() would raise IRError
    with pytest.raises(IRError):
        Program.current()
    prog.schedule.dynamic_batch = False
    sched.dynamic_batch(out)
    assert prog.schedule.dynamic_batch is True


def test_schedule_primitives_target_owning_program_not_current():
    prog = get_model("treernn").build_program(hidden=8, vocab=VOCAB)
    out = prog.recursion.outputs[0]
    with Program("decoy"):
        decoy = Program.current()
        sched.set_fusion(out, "none")
    assert prog.schedule.fusion == "none"          # owner mutated
    assert decoy.schedule.fusion == "max"          # decoy untouched


def test_unowned_tensor_still_rejected():
    from repro.ra.tensor import RATensor

    t = RATensor("stray", (4, 4))
    with pytest.raises(ScheduleError, match="not part of a program"):
        sched.dynamic_batch(t)
