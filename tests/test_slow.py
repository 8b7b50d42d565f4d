import numpy as np
import pytest

from sfrec import autodiff as ad
from sfrec import layers as ly
from sfrec.slow import SlowModel


def rng(seed=0):
    return np.random.default_rng(seed)


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_head(head, x):
    """The prediction head written out in numpy: affine layers, ReLU between, sigmoid."""
    for k, (w, b) in enumerate(zip(head.weights, head.biases)):
        x = x @ w.data + b.data
        if k != len(head.weights) - 1:
            x = np.maximum(x, 0.0)
    with np.errstate(over="ignore"):
        return sig(x)


def ref_gru_step(cell, x, h):
    """One GRU step written out longhand, independent of the library's kernel."""
    w = {p.name.split("/")[-1]: p.data for p in cell.params()}
    z = sig(x @ w["w_z"] + h @ w["u_z"] + w["b_z"])
    r = sig(x @ w["w_r"] + h @ w["u_r"] + w["b_r"])
    c = np.tanh(x @ w["w_h"] + (r * h) @ w["u_h"] + w["b_h"])
    return (1.0 - z) * h + z * c


def make_model(seed=0, interactive=False, n_items=12, dim=4):
    return SlowModel(n_items, dim, rng(seed), interactive=interactive)


# ---------------------------------------------------------------------------
# loss


def test_loss_half_probability_is_log_two():
    assert ad.binary_cross_entropy(ad.constant([[0.5]]), [1]).item() == pytest.approx(np.log(2.0), rel=1e-12)


def test_loss_confident_correct_tends_to_zero():
    assert ad.binary_cross_entropy(ad.constant([[1.0 - 1e-9]]), [1]).item() == pytest.approx(0.0, abs=1e-6)


def test_loss_wrong_side_closed_form():
    assert ad.binary_cross_entropy(ad.constant([[0.9]]), [0]).item() == pytest.approx(-np.log(0.1), rel=1e-12)


def test_loss_gradient_wrt_logit_is_prob_minus_label():
    for seed in range(5):
        for y in (0, 1):
            logit = ad.parameter(rng(seed).normal(size=(1, 1)), "logit")
            with ad.tape() as t:
                p = ad.sigmoid(logit)
                t.backward(ad.binary_cross_entropy(p, [y]))
            assert abs(logit.grad[0, 0] - (p.data[0, 0] - y)) < 1e-10


# ---------------------------------------------------------------------------
# plain forward


def test_plain_forward_zeroed_head_gives_half():
    m = make_model(1)
    m.head.weights[-1].data[:] = 0.0
    m.head.biases[-1].data[:] = 0.0
    assert m.forward([0, 1, 2], [5]).item() == 0.5


def test_plain_forward_single_item_history_with_unit_attention():
    m = make_model(2)
    for p in m.attention.params():
        p.data[:] = 0.0
    m.attention.biases[-1].data[:] = 1.0
    prob = m.forward([7], [3])
    e1 = m.embedding.lookup_np([7])
    e_t = m.embedding.lookup_np([3])
    direct = ly.predict_head(m.head, ad.constant(np.hstack([e1, e_t])))
    assert prob.item() == direct.item()


def test_plain_forward_matches_layer_composition():
    m = make_model(3)
    seq, cand = [1, 4, 9, 2], 6
    hist = m.embedding.lookup_np(seq)
    tgt = m.embedding.lookup_np([cand])
    pooled = ly.din_attention(m.attention, ad.constant(hist), ad.constant(tgt)).data
    expected = reference_head(m.head, np.hstack([pooled, tgt]))[0, 0]
    assert m.forward(seq, [cand]).item() == pytest.approx(expected, rel=1e-12)


def test_plain_forward_rejects_empty_history():
    m = make_model(4)
    with pytest.raises(ad.ShapeError):
        m.forward([], [1])


# ---------------------------------------------------------------------------
# interactive forward


def test_interactive_zeroed_gate_params_halve_the_refreshed_state():
    m = make_model(5, interactive=True)
    m.gate_w.data[:] = 0.0
    m.gate_b.data[:] = 0.0
    mem = rng(6).normal(size=(1, 4))
    _, (r_n, _) = m._interests([1, 2], [3], mem)
    refreshed = ref_gru_step(m.gru_n, m.embedding.lookup_np([3]), mem)
    np.testing.assert_allclose(r_n.data, 0.5 * refreshed, rtol=1e-12)


def test_interactive_zero_memory_and_zero_gru_collapses_r_n():
    m = make_model(7, interactive=True)
    for p in m.gru_n.params():
        p.data[:] = 0.0
    _, (r_n, _) = m._interests([1, 2], [3], np.zeros((1, 4)))
    np.testing.assert_array_equal(r_n.data, np.zeros((1, 4)))


def test_interactive_matches_step_by_step_oracle():
    m = make_model(8, interactive=True)
    seq, cand = [0, 3, 7], 9
    mem = rng(9).normal(size=(1, 4))
    hist = m.embedding.lookup_np(seq)
    tgt = m.embedding.lookup_np([cand])
    pooled = ly.din_attention(m.attention, ad.constant(hist), ad.constant(tgt)).data
    refreshed = ref_gru_step(m.gru_n, tgt, mem)
    gate = sig(np.hstack([refreshed, tgt]) @ m.gate_w.data + m.gate_b.data)
    r_n = gate * refreshed
    expected = reference_head(m.head, np.hstack([r_n, pooled, tgt]))[0, 0]
    assert m.forward(seq, [cand], mem).item() == pytest.approx(expected, rel=1e-12)


def test_interactive_rejects_bad_memory_shape():
    m = make_model(10, interactive=True)
    with pytest.raises(ad.ShapeError):
        m.forward([1], [2], np.zeros((1, 3)))


def test_gate_forced_to_zero_equals_feeding_zero_memory_feature():
    # with the gate pinned at 0 the head sees [0, r_t, e_i]; build that input
    # directly and check the score (hence any ranking order) is identical.
    # sigmoid(-1e4) is exactly 0.0 in float64, whatever the refreshed state.
    m = make_model(11, interactive=True)
    m.gate_w.data[:] = 0.0
    m.gate_b.data[:] = -1e4
    seq, mem = [2, 5], rng(12).normal(size=(1, 4))
    for cand in (1, 6, 8):
        prob = m.forward(seq, [cand], mem)
        _, (r_n, _) = m._interests(seq, [cand], mem)
        np.testing.assert_array_equal(r_n.data, np.zeros((1, 4)))
        hist = m.embedding.lookup_np(seq)
        tgt = m.embedding.lookup_np([cand])
        pooled = ly.din_attention(m.attention, ad.constant(hist), ad.constant(tgt)).data
        direct = reference_head(m.head, np.hstack([np.zeros((1, 4)), pooled, tgt]))[0, 0]
        assert prob.item() == direct


def test_full_interactive_graph_gradients():
    m = make_model(13, interactive=True, n_items=8, dim=3)
    mem = rng(14).normal(size=(1, 3))

    def loss_fn():
        return m.loss([0, 2, 5], [6], [1], neg_memory=mem)

    report = ad.grad_check(loss_fn, m.params(), tolerance=1e-3)
    assert report.passed, str(report)


def test_one_adam_step_decreases_single_example_loss():
    for seed in range(20):
        m = make_model(100 + seed, interactive=False, n_items=10, dim=3)
        opt = ad.Adam(m.params(), lr=1e-3, l2_weight=0.0)
        seq, cand = [1, 4, 7], 2
        with ad.tape() as t:
            loss = m.loss(seq, [cand], [1])
            t.backward(loss)
        before = loss.item()
        opt.step()
        after = m.loss(seq, [cand], [1]).item()
        assert after < before, f"seed {seed}: {before} -> {after}"


def test_training_on_a_zero_memory_keeps_the_idle_gru_gates_and_no_weight_collapses():
    # Before any upload the negative memory is all zeros, so no gradient reaches
    # gru_n's recurrences or its reset gate's input weights: decay alone must not
    # erase them, nor any dead unit's weights elsewhere.
    m = SlowModel(12, 4, rng(11), interactive=True, dtype=np.float32)
    start = {p.name: p.data.copy() for p in m.params()}
    opt = ad.Adam(m.params(), lr=5e-3, l2_weight=1e-4)
    r, memory = rng(12), np.zeros((1, 4), dtype=np.float32)
    for _ in range(800):
        with ad.tape() as t:
            t.backward(m.loss(r.integers(0, 12, size=5), r.integers(0, 12, size=4), [1, 0, 0, 0], memory))
        opt.step()
        opt.zero_grad()
    for gate in (m.gru_n.u_z, m.gru_n.u_r, m.gru_n.u_h, m.gru_n.w_r):
        np.testing.assert_array_equal(gate.data, start[gate.name], err_msg=gate.name)
    for p in m.params():
        collapsed = (np.abs(p.data) < 1e-20) & (np.abs(start[p.name]) >= 1e-20)
        assert not collapsed.any(), f"{p.name}: {np.count_nonzero(collapsed)} entries fell below 1e-20"


# ---------------------------------------------------------------------------
# interest export


def test_export_cold_start_zero_memory_slot():
    m = make_model(15, interactive=True)
    export = m.export_interest(seq_ids=[1, 2, 3])
    np.testing.assert_array_equal(export["r_n"], np.zeros((1, 4)))
    # r_t does not read the memory: any memory gives the same pooled interest
    np.testing.assert_array_equal(export["r_t"], m._interests([1, 2, 3], [3], rng(26).normal(size=(1, 4)))[1][-1].data)
    assert set(export) == {"r_n", "r_t"}  # the INTEREST_DOWN payload, nothing the header carries


def test_export_after_upload_matches_interactive_forward_bit_exactly():
    m = make_model(16, interactive=True)
    seq = [4, 0, 9]
    mem = rng(17).normal(size=(1, 4))
    export = m.export_interest(seq_ids=seq, neg_memory=mem)
    _, (r_n, r_t) = m._interests(seq, [seq[-1]], mem)
    np.testing.assert_array_equal(export["r_n"], r_n.data)
    np.testing.assert_array_equal(export["r_t"], r_t.data)


@pytest.mark.parametrize("interactive", [False, True])
def test_export_never_runs_the_head(monkeypatch, interactive):
    m = make_model(27, interactive=interactive)

    def no_head(head, features):
        raise AssertionError("export_interest ran the prediction head")

    monkeypatch.setattr(ly, "predict_head", no_head)
    for memory in (None, rng(28).normal(size=(1, 4))):
        export = m.export_interest(seq_ids=[3, 1, 5], neg_memory=memory)
        assert export["r_t"].shape == export["r_n"].shape == (1, 4)


def test_export_is_a_value_snapshot():
    m = make_model(18, interactive=True)
    export = m.export_interest(seq_ids=[1, 2], neg_memory=np.zeros((1, 4)))
    saved = export["r_t"].copy()
    for p in m.params():
        p.data[:] = 0.0
    np.testing.assert_array_equal(export["r_t"], saved)


# ---------------------------------------------------------------------------
# batched scorer


def test_batched_scores_match_graph_forward_plain():
    m = make_model(19)
    seq = [0, 2, 4, 8]
    cands = [1, 3, 5, 7, 9, 11]
    batched = m.score_candidates(seq, cands)
    for i, c in enumerate(cands):
        assert batched[i] == pytest.approx(m.forward(seq, [c]).item(), rel=1e-12)


def test_batched_scores_match_graph_forward_interactive():
    m = make_model(20, interactive=True)
    seq = [1, 6, 10]
    mem = rng(21).normal(size=(1, 4))
    cands = [0, 2, 3, 5, 11]
    batched = m.score_candidates(seq, cands, neg_memory=mem)
    for i, c in enumerate(cands):
        assert batched[i] == pytest.approx(m.forward(seq, [c], mem).item(), rel=1e-12)


@pytest.mark.parametrize("bad", [-1, 12])
@pytest.mark.parametrize("interactive", [False, True])
def test_scoring_rejects_out_of_vocabulary_ids(interactive, bad):
    m = make_model(23, interactive=interactive)  # vocabulary of 12
    mem = np.zeros((1, 4)) if interactive else None
    with pytest.raises(ly.OutOfVocabularyError, match=str(bad)):
        m.score_candidates([1, 2], [3, bad], neg_memory=mem)
    with pytest.raises(ly.OutOfVocabularyError, match=str(bad)):
        m.score_candidates([1, bad], [3], neg_memory=mem)


def test_interactive_context_tape_node_count():
    # the attention pool and the head's three-layer MLP are one fused node each
    # (13 and 8 composed ones before: 32, then 20)
    m = make_model(24, interactive=True)
    mem = rng(25).normal(size=(1, 4))
    with ad.tape() as t:
        m.loss([0, 3, 5, 7, 9], [2, 11], [1, 0], neg_memory=mem)
    assert len(t.nodes) == 13


# ---------------------------------------------------------------------------
# persistence


def test_named_arrays_round_trip_through_checkpoint(tmp_path):
    m = make_model(22, interactive=True)
    path = tmp_path / "slow.sfpk"
    ad.save_checkpoint(path, {p.name: p.data for p in m.params()})
    loaded = ad.load_checkpoint(path)
    assert all(name.startswith("slow/") for name in loaded)
    m2 = make_model(23, interactive=True)
    ad.load_params(m2.params(), loaded)
    for p, q in zip(m.params(), m2.params()):
        np.testing.assert_allclose(q.data, p.data.astype(np.float32), rtol=0, atol=0)
