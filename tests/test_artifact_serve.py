"""The compile -> save -> serve production loop, bit for bit.

A reloaded artifact is a `CortexModel` like the in-process model, so
`load_model(path).server()` must serve every request bit-identically to a
`ModelServer` over the original — across flush policies — and the
artifact must restore the exact CompileOptions it was compiled under.
"""

import json

import numpy as np
import pytest

import repro
from repro import CompileOptions, CortexModel
from repro.data import synthetic_treebank
from repro.serve import Deadline, MaxPendingRequests, MaxTotalNodes
from repro.tools.artifact import DOCUMENT, load_model, save_model

VOCAB = 60
RNG = np.random.default_rng(21)


def _artifact(tmp_path, name="treelstm", options=None, **kw):
    options = options if options is not None else CompileOptions()
    model = repro.compile(name, options, hidden=8, vocab=VOCAB,
                          rng=np.random.default_rng(4), **kw)
    out = save_model(model, tmp_path / name)
    return model, load_model(out), out


def _requests(n, rng):
    return [synthetic_treebank(1, vocab_size=VOCAB, rng=rng)
            for _ in range(n)]


# -- options round-trip -------------------------------------------------------

def test_artifact_writes_options_json(tmp_path):
    model, loaded, out = _artifact(tmp_path)
    payload = json.loads((out / DOCUMENT).read_text())["options"]
    assert payload == model.options.to_dict()
    assert loaded.options.cache_key() == model.options.cache_key()


def test_load_model_restores_exact_options(tmp_path):
    opts = CompileOptions(specialize=False, dense_intermediates=False)
    model, loaded, _ = _artifact(tmp_path, options=opts)
    assert loaded.options == opts
    assert loaded.options.cache_key() == model.options.cache_key()


def test_resaving_without_options_clears_stale_options_json(tmp_path):
    """Re-using an artifact directory must not attribute the previous
    save's options to a model saved without options."""
    model, _, out = _artifact(tmp_path)
    bare = CortexModel(spec=model.spec, program=model.program,
                       lowered=model.lowered, compiled=model.compiled,
                       params=model.params)
    assert bare.options is None
    save_model(bare, out)
    assert json.loads((out / DOCUMENT).read_text())["options"] is None
    loaded = load_model(out)
    assert loaded.options is None


# -- one model surface --------------------------------------------------------

def test_deployed_model_implements_model_handle(tmp_path):
    """A reloaded artifact is the in-process class, minus what only the
    compiler has (the reloaded memo tests check the C target too)."""
    model, loaded, _ = _artifact(tmp_path)
    assert type(model) is CortexModel and type(loaded) is CortexModel
    assert loaded.spec is None and loaded.program is None
    assert loaded.report is None and loaded.options == model.options
    assert loaded.default_outputs() == model.default_outputs()


def test_deployed_run_many_and_release_match_in_process(tmp_path):
    model, loaded, _ = _artifact(tmp_path)
    rng = np.random.default_rng(7)
    batches = [synthetic_treebank(2, vocab_size=VOCAB, rng=rng)
               for _ in range(3)]
    ours = model.run_many(batches)
    theirs = loaded.run_many(batches)
    for a, b in zip(ours, theirs):
        for name in model.default_outputs():
            assert np.array_equal(a.root_output(name), b.root_output(name))
    loaded.run(batches[0], reuse=True)
    assert loaded._leased
    loaded.release()
    assert not loaded._leased


def test_deployed_model_estimates_simulated_device_like_in_process(
        tmp_path):
    """A reloaded module carries its operator nests, so ``run`` /
    ``run_many`` with a device give the in-process estimate exactly."""
    from repro.runtime import V100

    model, loaded, _ = _artifact(tmp_path)
    roots = _requests(1, np.random.default_rng(0))[0]
    want = model.run(roots, device=V100)
    got = loaded.run(roots, device=V100, reuse=True)
    assert got.simulated_time_s == want.simulated_time_s is not None
    assert got.cost.per_kernel == want.cost.per_kernel
    loaded.release()
    assert [r.simulated_time_s for r in loaded.run_many([roots],
                                                        device=V100)] == \
        [want.simulated_time_s]
    assert loaded.arena.snapshot()["leased"] == 0
    assert loaded.run(roots).simulated_time_s is None


# -- artifact server == in-process server, across flush policies --------------

POLICIES = [
    ("one_by_one", lambda: MaxPendingRequests(1)),
    ("batch_4", lambda: MaxPendingRequests(4)),
    ("node_budget", lambda: MaxTotalNodes(48)),
    ("any_of", lambda: MaxPendingRequests(3) | Deadline(60_000.0)),
]


@pytest.mark.parametrize("label,policy", POLICIES,
                         ids=[p[0] for p in POLICIES])
def test_deployed_server_bit_identical_to_in_process(tmp_path, label, policy):
    model, loaded, _ = _artifact(tmp_path)
    rng = np.random.default_rng(13)
    requests = _requests(7, rng)

    srv_a = model.server(policy=policy())
    handles_a = [srv_a.submit(r) for r in requests]
    srv_a.drain()
    srv_b = loaded.server(policy=policy())
    handles_b = [srv_b.submit(r) for r in requests]
    srv_b.drain()

    for ha, hb, roots in zip(handles_a, handles_b, requests):
        ra, rb = ha.result(), hb.result()
        solo = model.run(roots)
        ids = [solo.lin.node_id(r) for r in roots]
        for name in model.default_outputs():
            assert np.array_equal(ra.root_output(name),
                                  rb.root_output(name)), (label, name)
            # and both equal the solo in-process run, bit for bit
            assert np.array_equal(rb.root_output(name),
                                  solo.workspace[name][ids]), (label, name)


def test_deployed_server_threaded_mode(tmp_path):
    _, loaded, _ = _artifact(tmp_path, name="treernn")
    rng = np.random.default_rng(3)
    requests = _requests(10, rng)
    with loaded.server(policy=MaxPendingRequests(4) | Deadline(5.0)) as srv:
        handles = [srv.submit(r) for r in requests]
        results = [h.result(timeout=30.0) for h in handles]
    assert all(r.root_output("rnn").shape == (1, 8) for r in results)
    assert srv.metrics_snapshot()["completed"] == 10


def test_router_deploy_shares_compiles(tmp_path):
    from repro.serve import Router

    router = Router()
    a = router.deploy("blue", "treernn", hidden=8, vocab=VOCAB,
                      policy=MaxPendingRequests(1))
    b = router.deploy("green", "treernn", hidden=8, vocab=VOCAB,
                      policy=MaxPendingRequests(1))
    assert router.session.pipeline.compile_count == 1  # one compile, two aliases
    assert a.model.lowered is b.model.lowered          # shared compilation
    assert a.model.arena is not b.model.arena          # private workspace
    roots = _requests(1, np.random.default_rng(0))[0]
    ha = router.submit("blue", roots)
    hb = router.submit("green", roots)
    router.drain()
    assert np.array_equal(ha.result().root_output("rnn"),
                          hb.result().root_output("rnn"))


def test_router_add_model_isolates_shared_model_arenas():
    """Session cache hits hand the same model object to add_model twice;
    the second registration must get a private-arena view."""
    from repro import Session
    from repro.serve import Router

    session = Session()
    m1 = session.compile("treernn", hidden=8, vocab=VOCAB)
    m2 = session.compile("treernn", hidden=8, vocab=VOCAB)
    assert m1 is m2
    router = Router()
    a = router.add_model("a", m1, policy=MaxPendingRequests(1))
    b = router.add_model("b", m2, policy=MaxPendingRequests(1))
    assert a.model is m1                      # first registration untouched
    assert b.model is not m1
    assert b.model.arena is not m1.arena      # private workspace
    assert b.model.lowered is m1.lowered      # shared compilation
    roots = _requests(1, np.random.default_rng(2))[0]
    ha, hb = router.submit("a", roots), router.submit("b", roots)
    router.drain()
    assert np.array_equal(ha.result().root_output("rnn"),
                          hb.result().root_output("rnn"))


def test_router_remove_model_drains_sync_server():
    """Queued requests on a never-started server must be served, not
    abandoned, when the model is unregistered."""
    from repro.serve import Router

    router = Router()
    router.deploy("m", "treernn", hidden=8, vocab=VOCAB,
                  policy=MaxPendingRequests(100))  # never fires on its own
    roots = _requests(1, np.random.default_rng(5))[0]
    handle = router.submit("m", roots)
    assert not handle.done()
    router.remove_model("m")
    assert handle.done()
    assert handle.result().root_output("rnn").shape == (1, 8)
    assert "m" not in router
