import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrec import autodiff as ad
from sfrec import layers as ly
from sfrec.fast import DeviceSession, ExposureMemory, FastModel
from sfrec.slow import SlowModel


def rng(seed=0):
    return np.random.default_rng(seed)


def cloud_rows(seed, n_items=12, dim=4):
    return rng(seed + 9000).uniform(-0.05, 0.05, size=(n_items, dim))


def make_model(seed=0, interactive=False, n_items=12, dim=4, table=None):
    """A device model whose fetch reads ``table`` (default: ``cloud_rows(seed)``) at call time."""
    table = cloud_rows(seed, n_items, dim) if table is None else table
    return FastModel(n_items, dim, rng(seed), interactive=interactive, fetch=lambda idx: table[idx])


def session_at(m, clicked, exposed, prior=None):
    """A new session of ``m`` advanced once, to ``clicked`` and ``exposed`` under ``prior``."""
    session = DeviceSession(m)
    session.advance(clicked, exposed, prior)
    return session


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_mlp(mlp, x):
    """An MLP written out in numpy: affine layers, ReLU between them."""
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = x @ w.data + b.data
        if k != len(mlp.weights) - 1:
            x = np.maximum(x, 0.0)
    return x


def reference_score(m, r1, r2, tgt, r_t=None):
    """Fusion (a softmax over the two interest logits) and head, in numpy, for one target row."""
    logits = np.hstack([reference_mlp(m.fusion, np.hstack([r1, tgt])), reference_mlp(m.fusion, np.hstack([r2, tgt]))])
    w = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
    blended = w[0, 0] * r1 + w[0, 1] * r2
    feats = [blended, tgt] if r_t is None else [blended, r_t, tgt]
    return sig(reference_mlp(m.head, np.hstack(feats)))[0, 0]


def reference_prior_states(m, prior):
    """The interactive GRU init states, in numpy."""
    alpha = sig(np.hstack([prior["r_n"], prior["r_t"]]) @ m.prior_gate_w.data + m.prior_gate_b.data)
    blended = alpha * prior["r_n"] + (1.0 - alpha) * prior["r_t"]
    init_click = np.maximum(blended @ m.init_click_w.data + m.init_click_b.data, 0.0)
    return init_click, np.maximum(blended @ m.init_expose_w.data + m.init_expose_b.data, 0.0)


def prior_of(m, seed):
    r = rng(seed)
    return {"r_n": r.normal(size=(1, m.dim)), "r_t": r.normal(size=(1, m.dim))}


# ---------------------------------------------------------------------------
# reading the cloud's rows


def test_a_read_returns_the_cloud_rows_bit_exactly():
    cloud = SlowModel(10, 4, rng(1), interactive=False)
    device = FastModel(10, 4, rng(2), interactive=False, fetch=cloud.embedding.lookup_np)
    ids = [0, 3, 7]
    np.testing.assert_array_equal(device.lookup_np(ids), cloud.embedding.lookup_np(ids))


def test_a_read_checks_its_ids_once(monkeypatch):
    m, calls = make_model(3), []

    def spied(ids, vocab_size, check=ly.checked_ids):
        calls.append(vocab_size)
        return check(ids, vocab_size)

    monkeypatch.setattr(ly, "checked_ids", spied)
    m.lookup_np([1, 4, 4, 9])
    assert calls == [12]


@pytest.mark.parametrize("shape", [(2, 3), (1, 4), (2, 4, 1), (8,)])
def test_sync_rejects_rows_not_shaped_one_per_id(shape):
    m = make_model(4)
    before = m.lookup_np(np.arange(12))
    with pytest.raises(ad.ShapeError, match=re.escape(f"wants (2, 4) rows, got {shape}")):
        m.sync_rows([1, 2], np.ones(shape))
    np.testing.assert_array_equal(m.lookup_np(np.arange(12)), before)


# ---------------------------------------------------------------------------
# plain forward


def test_plain_forward_empty_exposures_is_well_defined():
    m = make_model(3)
    out = m.forward([1, 2], [], [5])
    np.testing.assert_array_equal(session_at(m, [1, 2], []).r_expose, np.zeros((1, 4)))
    assert 0.0 < out.item() < 1.0


def test_plain_forward_zeroed_head_gives_half():
    m = make_model(4)
    m.head.weights[-1].data[:] = 0.0
    m.head.biases[-1].data[:] = 0.0
    assert m.forward([1, 2], [3], [5]).item() == 0.5


def test_plain_forward_matches_layer_composition():
    m = make_model(5)
    clicked, exposed, cand = [1, 4, 9], [2, 7], 6
    r1 = m.gru_click.encode_np(m.lookup_np(clicked), np.zeros((1, 4)))
    r2 = m.gru_expose.encode_np(m.lookup_np(exposed), np.zeros((1, 4)))
    expected = reference_score(m, r1, r2, m.lookup_np([cand]))
    assert m.forward(clicked, exposed, [cand]).item() == pytest.approx(expected, rel=1e-12)


def test_plain_forward_rejects_empty_clicks():
    m = make_model(6)
    with pytest.raises(ad.ShapeError):
        m.forward([], [1], [2])


def _plain_forward_inputs(model):
    """A plain model, its positional forward arguments and its exchange input."""
    if model == "slow":
        m = SlowModel(12, 4, rng(40), interactive=False)
        return m, ([1, 6, 10], [0, 2, 3]), {"neg_memory": rng(41).normal(size=(1, 4))}
    m = make_model(42)
    return m, ([1, 6], [10, 0, 2], [0, 2, 3]), {"prior": prior_of(m, 43)}


@pytest.mark.parametrize("model", ["slow", "fast"])
def test_plain_wiring_ignores_the_exchange_input_bit_for_bit(model):
    m, args, exchange = _plain_forward_inputs(model)
    np.testing.assert_array_equal(m.forward(*args, **exchange).data, m.forward(*args).data)
    grads = []
    for kwargs in ({}, exchange):
        for p in m.params():
            p.zero_grad()
        with ad.tape() as t:
            loss = m.loss(*args, [1, 0, 0], **kwargs)
            t.backward(loss)
        grads.append((loss.item(), [p.grad.copy() for p in m.params()]))
    assert grads[0][0] == grads[1][0]
    for without, with_input in zip(grads[0][1], grads[1][1]):
        np.testing.assert_array_equal(with_input, without)


# ---------------------------------------------------------------------------
# interactive forward


def test_zeroed_prior_gate_averages_the_two_prior_vectors():
    m = make_model(7, interactive=True)
    m.prior_gate_w.data[:] = 0.0
    m.prior_gate_b.data[:] = 0.0
    prior = prior_of(m, 8)
    init_click, init_expose, _ = m._prior_states([prior], 1)
    blend = (prior["r_n"] + prior["r_t"]) / 2.0
    np.testing.assert_allclose(
        init_click.data, np.maximum(blend @ m.init_click_w.data + m.init_click_b.data, 0.0), rtol=1e-12
    )
    np.testing.assert_allclose(
        init_expose.data, np.maximum(blend @ m.init_expose_w.data + m.init_expose_b.data, 0.0), rtol=1e-12
    )


def test_reduction_zero_prior_and_projections_reproduce_plain_encodings():
    # same seed: click/expose GRUs and fusion draw identical weights
    mi = make_model(9, interactive=True)
    mp = make_model(9, interactive=False)
    for p in (mi.init_click_w, mi.init_click_b, mi.init_expose_w, mi.init_expose_b):
        p.data[:] = 0.0
    zero = np.zeros((1, 4))
    prior = {"r_n": zero, "r_t": zero}
    clicked, exposed, cand = [1, 5, 8], [0, 2], 3
    out_i = session_at(mi, clicked, exposed, prior)
    out_p = session_at(mp, clicked, exposed)
    np.testing.assert_array_equal(out_i.r_click, out_p.r_click)
    np.testing.assert_array_equal(out_i.r_expose, out_p.r_expose)


def test_interactive_matches_step_by_step_oracle():
    m = make_model(10, interactive=True)
    prior = prior_of(m, 11)
    clicked, exposed, cand = [0, 3, 7], [5, 1], 9
    init_click, init_expose = reference_prior_states(m, prior)
    r1 = m.gru_click.encode_np(m.lookup_np(clicked), init_click)
    r2 = m.gru_expose.encode_np(m.lookup_np(exposed), init_expose)
    expected = reference_score(m, r1, r2, m.lookup_np([cand]), prior["r_t"])
    out = m.forward(clicked, exposed, [cand], prior)
    assert out.item() == pytest.approx(expected, rel=1e-12)


def test_interactive_rejects_bad_prior_shape():
    m = make_model(12, interactive=True)
    bad = {"r_n": np.zeros((1, 3)), "r_t": np.zeros((1, 4))}
    with pytest.raises(ad.ShapeError):
        m.forward([1], [], [2], bad)
    with pytest.raises(ad.ShapeError):  # a missing row, not a KeyError
        m.forward([1], [], [2], {"r_t": np.zeros((1, 4))})


MISSING_EXCHANGE_INPUT = {
    "fast-forward": (lambda m, s: m.forward([1, 2], [3], [4]), "prior"),
    "fast-encode_context": (lambda m, s: DeviceSession(m).advance([1, 2], [3]), "prior"),
    "fast-score_candidates": (lambda m, s: m.score_candidates([1, 2], [3], [4, 5]), "prior"),
    "slow-no-memory": (lambda m, s: s.score_candidates([1], [2, 3]), "memory"),
    "slow-short-memory": (lambda m, s: s.score_candidates([1], [2, 3], np.zeros((1, 3))), "memory"),
}


@pytest.mark.parametrize("call, named", MISSING_EXCHANGE_INPUT.values(), ids=MISSING_EXCHANGE_INPUT.keys())
def test_interactive_model_without_its_exchange_input_raises_shape_error(call, named):
    device, cloud = make_model(50, interactive=True), SlowModel(12, 4, rng(51), interactive=True)
    with pytest.raises(ad.ShapeError, match=named):
        call(device, cloud)


def test_full_interactive_graph_gradients():
    m = make_model(13, interactive=True, n_items=8, dim=3)
    prior = prior_of(m, 14)

    def loss_fn():
        return m.loss([0, 2], [5], [6], [1], prior=prior)

    report = ad.grad_check(loss_fn, m.params(), tolerance=1e-3)
    assert report.passed, str(report)


def test_interactive_context_tape_node_count():
    # each GRU is one sequence node: 20 nodes, was 30 when every GRU step was
    # a node of its own (4 + 6 steps) and each GRU's per-candidate states a concat
    m = make_model(31, interactive=True)
    with ad.tape() as t:
        m.loss([1, 5, 3, 2], [6, 7, 8, 0, 10, 11], [4, 9], [1, 0], prior=prior_of(m, 33))
    assert len(t.nodes) == 20


def test_loss_matches_slow_loss_bit_exactly():
    r = rng(15)
    for _ in range(1000):
        p = float(r.uniform(1e-6, 1.0 - 1e-6))
        y = int(r.integers(0, 2))
        a = ad.binary_cross_entropy(ad.constant([[p]]), [y]).item()
        b = ad.binary_cross_entropy(ad.constant([[p]]), [y]).item()
        assert a == b


# ---------------------------------------------------------------------------
# exposure memory


def test_export_with_no_exposures_keeps_state_and_reports_zero():
    m = make_model(16)
    mem = ExposureMemory(4)
    first = mem.export(m, [[1, 2]])
    second = mem.export(m, [[1, 2]])
    np.testing.assert_array_equal(first["r2_hat"], second["r2_hat"])
    assert set(second) == {"r2_hat"}  # the NEGATIVE_MEMORY_UP payload, nothing the header carries


def test_first_export_encodes_from_zero_state():
    m = make_model(17)
    mem = ExposureMemory(4)
    items = [2, 5, 9]
    export = mem.export(m, [items])
    expected = m.gru_expose.encode_np(m.lookup_np(items), np.zeros((1, 4)))
    np.testing.assert_array_equal(export["r2_hat"], expected)


def test_exposure_accumulation_is_associative_across_200_random_splits():
    m = make_model(18)
    r = rng(19)
    for _ in range(200):
        n = int(r.integers(2, 20))
        stream = r.integers(0, 12, size=n).tolist()
        cut = int(r.integers(1, n))
        one_pass = ExposureMemory(4).export(m, [stream])["r2_hat"]
        split = ExposureMemory(4)
        split.export(m, [stream[:cut]])
        two_pass = split.export(m, [stream[:cut], stream[cut:]])["r2_hat"]
        np.testing.assert_array_equal(one_pass, two_pass)


# ---------------------------------------------------------------------------
# capacity and scoring


def test_fast_has_fewer_trainable_parameters_than_slow():
    # default experiment dims: 32-dim embeddings, ML-1M-sized vocabulary
    slow = SlowModel(3706, 32, rng(20), interactive=True)
    fast = FastModel(3706, 32, rng(21), interactive=True, fetch=slow.embedding.lookup_np)
    assert sum(p.data.size for p in fast.params()) < sum(p.data.size for p in slow.params())


def test_batched_scores_match_graph_forward_plain():
    m = make_model(22)
    clicked, exposed = [0, 2, 4], [8, 9]
    cands = [1, 3, 5, 7, 11]
    batched = m.score_candidates(clicked, exposed, cands)
    for i, c in enumerate(cands):
        assert batched[i] == pytest.approx(m.forward(clicked, exposed, [c]).item(), rel=1e-12)


def test_batched_scores_match_graph_forward_interactive():
    m = make_model(23, interactive=True)
    prior = prior_of(m, 24)
    clicked, exposed = [1, 6], [10, 0, 2]
    cands = [3, 5, 7, 9]
    batched = m.score_candidates(clicked, exposed, cands, prior=prior)
    for i, c in enumerate(cands):
        out = m.forward(clicked, exposed, [c], prior)
        assert batched[i] == pytest.approx(out.item(), rel=1e-12)


@pytest.mark.parametrize("interactive", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_carried_click_state_equals_full_reencode_bit_exactly(interactive, dtype):
    table = rng(31).uniform(-0.05, 0.05, size=(12, 4))
    m = FastModel(12, 4, rng(30), interactive=interactive, fetch=lambda idx: table[idx], dtype=dtype)
    prior = prior_of(m, 32) if interactive else None
    clicks, exposed, cands = [3, 0, 7, 7, 11, 2], [8, 9, 1], [1, 4, 5, 10]
    session = DeviceSession(m)
    for n in range(1, len(clicks) + 1):
        session.advance(clicks[:n], exposed, prior)
        full = session_at(m, clicks[:n], exposed, prior)
        np.testing.assert_array_equal(session.r_click, full.r_click)
        assert np.array_equal(session.score(cands), m.score_candidates(clicks[:n], exposed, cands, prior))
    r_expose = session.r_expose.copy()  # what the slid advance must keep, copied before it runs
    session.advance(clicks[2:], exposed, prior)
    np.testing.assert_array_equal(session.r_click, session_at(m, clicks[2:], exposed, prior).r_click)
    np.testing.assert_array_equal(session.r_expose, r_expose)


def test_reencode_rejects_an_empty_click_window():
    m = make_model(33)
    session = DeviceSession(m)
    session.advance([1, 2], [3])
    with pytest.raises(ad.ShapeError):
        session.advance([], [3])


@pytest.mark.parametrize("interactive", [False, True])
def test_encode_contexts_reads_once_and_encodes_as_a_session_per_window(interactive):
    m = make_model(35, interactive=interactive)
    # three click lengths, a length shared across contexts, and an empty exposure window
    contexts = [
        ([[3, 0, 7], [3, 0, 7, 2], [1]], [8, 9, 1], prior_of(m, 36)),
        ([[5, 6], [4, 11, 2]], [], prior_of(m, 37)),
    ]
    reads, fetch = [], m.fetch
    m.fetch = lambda idx: reads.append(idx.size) or fetch(idx)
    r_click, r_expose, r_ts = m.encode_contexts(contexts)
    m.fetch = fetch
    assert reads == [3 + 0 + 3 + 4 + 1 + 2 + 3]
    windows = [(window, exposed, prior) for clicks, exposed, prior in contexts for window in clicks]
    owners = [0, 0, 0, 1, 1]
    for k, (window, exposed, prior) in enumerate(windows):
        session = session_at(m, window, exposed, prior)
        np.testing.assert_allclose(r_click[k : k + 1], session.r_click, rtol=0, atol=1e-12)
        np.testing.assert_allclose(r_expose[owners[k]][None], session.r_expose, rtol=0, atol=1e-12)
        np.testing.assert_equal(r_ts[owners[k]], session.r_t)  # None in the plain wiring
    with pytest.raises(ad.ShapeError, match="non-empty"):
        m.encode_contexts([([[1], []], [2], prior_of(m, 36))])


class FetchError(Exception):
    pass


@pytest.mark.parametrize("interactive", [False, True])
def test_a_failed_advance_leaves_the_session_scoring_as_before(interactive):
    table = cloud_rows(34)

    def fetch(idx):
        if 11 in idx:
            raise FetchError("item 11 cannot be fetched")
        return table[idx]

    m = FastModel(12, 4, rng(34), interactive=interactive, fetch=fetch)
    prior = prior_of(m, 36) if interactive else None
    session = session_at(m, [3, 0, 7], [8, 9], prior)
    before = session.score([1, 4, 5])
    failing = [
        ([3, 0, 7, 11], [8, 9], prior),  # the click window gains the row that fails
        ([3, 0, 7, 2], [8, 9, 11], prior),  # the exposure window gains it
        ([0, 7, 11], [8], prior),  # both windows slid
        ([3, 0, 7], [8, 9, 11], prior_of(m, 37) if interactive else None),  # new init states, then a failure
    ]
    for clicked, exposed, new_prior in failing:
        with pytest.raises(FetchError):
            session.advance(clicked, exposed, new_prior)
        assert np.array_equal(session.score([1, 4, 5]), before)
    session.advance([3, 0, 7, 2], [8, 9], prior)
    assert np.array_equal(session.score([1, 4, 5]), m.score_candidates([3, 0, 7, 2], [8, 9], [1, 4, 5], prior))


# ---------------------------------------------------------------------------
# what a carried device session keeps, and what makes it encode again

CLICKS, EXPOSED, CANDS = [3, 0, 7], [8, 9, 1], [1, 4, 5, 10]


def counted_session(seed=40, table=None):
    """An interactive model fetching from ``table``, a prior, and a session
    advanced once over CLICKS and EXPOSED; the Counter records each GRU's
    encoded rows and each rebuild of the prior-derived init states from here on."""
    m = make_model(seed, interactive=True, table=table)
    prior = prior_of(m, seed + 1)
    session = DeviceSession(m)
    session.advance(CLICKS, EXPOSED, prior)
    counts = Counter()
    for name, cell in (("click", m.gru_click), ("expose", m.gru_expose)):

        def counted(seq, init, encode=cell.encode_np, name=name):
            counts[name] += seq.shape[0]
            return encode(seq, init)

        cell.encode_np = counted

    def prior_states(priors, rows, build=m._prior_states):
        counts["init"] += 1
        return build(priors, rows)

    m._prior_states = prior_states
    return m, prior, session, counts


def advance_checked(session, counts, clicked, exposed, prior):
    """Advance ``session``; check its scores against ``score_candidates`` bit
    for bit and return what the advance encoded."""
    counts.clear()
    session.advance(clicked, exposed, prior)
    encoded = dict(counts)
    want = session.model.score_candidates(clicked, exposed, CANDS, prior)
    assert np.array_equal(session.score(CANDS), want)
    return encoded


FULL = {"init": 1, "click": len(CLICKS), "expose": len(EXPOSED)}


def test_session_extends_both_grus_by_the_new_rows_only():
    m, prior, session, counts = counted_session()
    assert advance_checked(session, counts, CLICKS, EXPOSED, prior) == {}
    assert advance_checked(session, counts, CLICKS + [11], EXPOSED + [2, 6], prior) == {"click": 1, "expose": 2}


def test_session_encodes_in_full_after_an_optimizer_step():
    m, prior, session, counts = counted_session()
    before = m.score_candidates(CLICKS, EXPOSED, CANDS, prior)
    opt = ad.Adam(m.params(), lr=1e-2)
    with ad.tape() as t:
        t.backward(m.loss(CLICKS, EXPOSED, CANDS, [1, 0, 0, 0], prior))
    opt.step()
    assert advance_checked(session, counts, CLICKS, EXPOSED, prior) == FULL
    assert not np.array_equal(m.score_candidates(CLICKS, EXPOSED, CANDS, prior), before)


@pytest.mark.parametrize("cell", ["gru_click", "gru_expose"])
def test_session_encodes_in_full_after_a_gate_load(cell):
    m, prior, session, counts = counted_session()
    getattr(m, cell).load_gates(ly.GruCell(4, 4, rng(42)).export_gates())
    assert advance_checked(session, counts, CLICKS, EXPOSED, prior) == FULL


# the cloud rows changed below are fetched by the next advance's read of its windows


def test_a_read_that_returns_a_changed_exposure_row_reencodes_only_gru_expose():
    table = cloud_rows(40)
    m, prior, session, counts = counted_session(table=table)
    table[EXPOSED[0]] += 0.01
    assert advance_checked(session, counts, CLICKS, EXPOSED, prior) == {"expose": len(EXPOSED)}


def test_a_read_that_returns_a_changed_click_row_reencodes_only_gru_click():
    table = cloud_rows(40)
    m, prior, session, counts = counted_session(table=table)
    table[CLICKS[-1]] += 0.01
    assert advance_checked(session, counts, CLICKS, EXPOSED, prior) == {"click": len(CLICKS)}


def test_a_read_that_returns_a_changed_row_outside_the_windows_keeps_the_session():
    table = cloud_rows(40)
    m, prior, session, counts = counted_session(table=table)
    before = session.score(CANDS)
    table[[CANDS[-1], 6]] += 0.01  # a candidate, and a row nothing reads
    assert advance_checked(session, counts, CLICKS, EXPOSED, prior) == {}
    assert not np.array_equal(session.score(CANDS), before)  # the candidate's new row is scored


def test_a_read_that_returns_no_changed_row_keeps_the_session():
    m, prior, session, counts = counted_session()
    m.lookup_np(np.arange(12))  # a read of every row, which changes none
    assert advance_checked(session, counts, CLICKS + [11], EXPOSED, prior) == {"click": 1}


def test_a_row_changed_and_restored_between_two_advances_keeps_the_session():
    table = cloud_rows(40)
    m, prior, session, counts = counted_session(table=table)
    held = table[EXPOSED[0]].copy()
    table[EXPOSED[0]] += 0.01
    m.lookup_np([EXPOSED[0]])  # a read between the advances fetches the changed row
    table[EXPOSED[0]] = held
    assert advance_checked(session, counts, CLICKS, EXPOSED, prior) == {}


def test_a_session_keeps_no_view_of_a_buffer_that_fetch_reuses():
    # fetch hands out a view of one buffer it overwrites on every call: a read
    # must copy, or the rows a session keeps change under it with the next read
    table, buffer = cloud_rows(40), np.empty((12, 4))

    def fetch(idx):
        buffer[: len(idx)] = table[idx]
        return buffer[: len(idx)]

    m = FastModel(12, 4, rng(40), interactive=False, fetch=fetch)
    session = session_at(m, CLICKS, EXPOSED)
    session.score(CANDS)
    table[CLICKS[-1]] += 0.01  # a kept click row changes in the cloud
    session.advance(CLICKS, EXPOSED)
    assert np.array_equal(session.score(CANDS), m.score_candidates(CLICKS, EXPOSED, CANDS))


def test_session_encodes_in_full_for_a_new_prior():
    m, prior, session, counts = counted_session()
    assert advance_checked(session, counts, CLICKS, EXPOSED, prior_of(m, 43)) == FULL


def test_session_reencodes_only_the_gru_whose_window_slid():
    m, prior, session, counts = counted_session()
    slid = CLICKS[1:] + [11]
    assert advance_checked(session, counts, slid, EXPOSED + [2], prior) == {"click": len(slid), "expose": 1}
    assert advance_checked(session, counts, slid, EXPOSED[1:], prior) == {"expose": len(EXPOSED) - 1}


ITEMS = st.integers(0, 11)
WINDOWS = st.sampled_from(["click", "expose"])
SESSION_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("grow"), WINDOWS, ITEMS),
        st.tuples(st.just("slide"), WINDOWS, ITEMS),
        st.tuples(st.just("shrink"), WINDOWS, st.booleans()),
        st.tuples(st.just("rewrite"), ITEMS),
        st.tuples(st.just("restore"), ITEMS),
        st.tuples(st.just("read"), ITEMS),
        st.tuples(st.just("adam")),
        st.tuples(st.just("prior"), st.integers(0, 2)),
        st.tuples(st.just("advance")),
    ),
    max_size=25,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), interactive=st.booleans(), ops=SESSION_OPS)
def test_a_carried_session_scores_as_score_candidates_after_any_advances(dtype, interactive, ops):
    """Windows that grow, slide or shrink, cloud rows rewritten, restored or
    read between advances, Adam steps and prior swaps: after each advance the
    session scores as ``score_candidates`` on the same windows, bit for bit."""
    original = cloud_rows(50)
    table = original.copy()
    m = FastModel(12, 4, rng(50), interactive=interactive, fetch=lambda idx: table[idx], dtype=dtype)
    priors = [prior_of(m, 51 + k) if interactive else None for k in range(3)]
    opt = ad.Adam(m.params(), lr=1e-2)
    windows, prior, session = {"click": list(CLICKS), "expose": list(EXPOSED)}, priors[0], DeviceSession(m)
    for op, *args in [*ops, ("advance",)]:
        if op == "advance":
            session.advance(windows["click"], windows["expose"], prior)
            want = m.score_candidates(windows["click"], windows["expose"], CANDS, prior)
            assert np.array_equal(session.score(CANDS), want)
        elif op in ("grow", "slide"):
            windows[args[0]] = windows[args[0]][op == "slide" :] + [args[1]]
        elif op == "shrink" and len(windows[args[0]]) > (args[0] == "click"):
            windows[args[0]].pop(0 if args[1] else -1)
        elif op == "rewrite":
            table[args[0]] += 0.01
        elif op == "restore":
            table[args[0]] = original[args[0]]
        elif op == "read":
            m.lookup_np([args[0]])
        elif op == "adam":
            with ad.tape() as t:
                t.backward(m.loss(windows["click"], windows["expose"], CANDS, [1, 0, 0, 0], prior))
            opt.step()
        elif op == "prior":
            prior = priors[args[0]]


@pytest.mark.parametrize("bad", [-1, 12])
def test_scoring_rejects_out_of_vocabulary_ids(bad):
    m = make_model(27)  # vocabulary of 12
    with pytest.raises(ly.OutOfVocabularyError, match=str(bad)):
        m.score_candidates([1, 2], [3], [4, bad])
    with pytest.raises(ly.OutOfVocabularyError, match=str(bad)):
        m.score_candidates([1, bad], [3], [4])


def test_gru_sync_overwrites_device_copy():
    cloud = SlowModel(10, 4, rng(25), interactive=True)
    device = make_model(26, interactive=True)
    device.gru_expose.load_gates(cloud.gru_n.export_gates())
    for tag, p in zip(ly.GruCell.GATE_NAMES, cloud.gru_n.params()):
        q = dict(zip(ly.GruCell.GATE_NAMES, device.gru_expose.params()))[tag]
        np.testing.assert_array_equal(q.data, p.data)


def test_checkpoint_prefix_and_round_trip(tmp_path):
    m = make_model(27, interactive=True)
    assert all(p.name.startswith("fast/all/") for p in m.params())
    path = tmp_path / "fast.sfpk"
    ad.save_checkpoint(path, {p.name: p.data for p in m.params()})
    m2 = make_model(28, interactive=True)
    ad.load_params(m2.params(), ad.load_checkpoint(path))
    for p, q in zip(m.params(), m2.params()):
        np.testing.assert_array_equal(q.data, p.data.astype(np.float32).astype(np.float64))
