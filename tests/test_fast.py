import numpy as np
import pytest

from sfrec import autodiff as ad
from sfrec import layers as ly
from sfrec.fast import ExposureMemory, FastModel, UnsyncedRowError
from sfrec.slow import InterestExport, SlowModel


def rng(seed=0):
    return np.random.default_rng(seed)


def make_model(seed=0, interactive=False, n_items=12, dim=4, synced=True):
    m = FastModel(n_items, dim, rng(seed), interactive=interactive)
    if synced:
        m.sync_rows(np.arange(n_items), rng(seed + 9000).uniform(-0.05, 0.05, size=(n_items, dim)))
    return m


def prior_of(m, seed):
    r = rng(seed)
    return InterestExport(user=0, round=0, r_n=r.normal(size=(1, m.dim)), r_t=r.normal(size=(1, m.dim)))


# ---------------------------------------------------------------------------
# embedding mirror discipline


def test_lookup_of_unsynced_row_is_rejected():
    m = make_model(0, synced=False)
    m.sync_rows([1, 2], np.ones((2, 4)))
    m.lookup_np([1, 2])
    with pytest.raises(UnsyncedRowError, match="3"):
        m.lookup_np([1, 3])


def test_synced_rows_mirror_cloud_table_bit_exactly():
    cloud = SlowModel(10, 4, rng(1), interactive=False)
    device = FastModel(10, 4, rng(2), interactive=False)
    ids = [0, 3, 7]
    device.sync_rows(ids, cloud.embedding.lookup_np(ids))
    np.testing.assert_array_equal(device.lookup_np(ids), cloud.embedding.lookup_np(ids))


# ---------------------------------------------------------------------------
# plain forward


def test_plain_forward_empty_exposures_is_well_defined():
    m = make_model(3)
    out = m.forward([1, 2], [], [5])
    np.testing.assert_array_equal(out.r_expose.data, np.zeros((1, 4)))
    assert 0.0 < out.prob.item() < 1.0


def test_plain_forward_zeroed_head_gives_half():
    m = make_model(4)
    m.head.mlp.weights[-1].data[:] = 0.0
    m.head.mlp.biases[-1].data[:] = 0.0
    assert m.forward([1, 2], [3], [5]).prob.item() == 0.5


def test_plain_forward_matches_layer_composition():
    m = make_model(5)
    clicked, exposed, cand = [1, 4, 9], [2, 7], 6
    r1 = m.gru_click.encode_np(m.lookup_np(clicked), np.zeros((1, 4)))
    r2 = m.gru_expose.encode_np(m.lookup_np(exposed), np.zeros((1, 4)))
    tgt = m.lookup_np([cand])
    blended = ly.target_aware_fusion_np(m.fusion, r1, r2, tgt)
    expected = m.head.apply_np(np.hstack([blended, tgt]))[0, 0]
    assert m.forward(clicked, exposed, [cand]).prob.item() == pytest.approx(expected, rel=1e-12)


def test_plain_forward_rejects_empty_clicks_and_wrong_mode():
    m = make_model(6)
    with pytest.raises(ad.ShapeError):
        m.forward([], [1], [2])
    with pytest.raises(RuntimeError):
        m.forward_interactive([1], [], [2], prior_of(m, 0))


# ---------------------------------------------------------------------------
# interactive forward


def test_zeroed_prior_gate_averages_the_two_prior_vectors():
    m = make_model(7, interactive=True)
    m.prior_gate_w.data[:] = 0.0
    m.prior_gate_b.data[:] = 0.0
    prior = prior_of(m, 8)
    init_click, init_expose = m._prior_states_np(prior.r_n, prior.r_t)
    blend = (prior.r_n + prior.r_t) / 2.0
    np.testing.assert_allclose(
        init_click, np.maximum(blend @ m.init_click_w.data + m.init_click_b.data, 0.0), rtol=1e-12
    )
    np.testing.assert_allclose(
        init_expose, np.maximum(blend @ m.init_expose_w.data + m.init_expose_b.data, 0.0), rtol=1e-12
    )


def test_reduction_zero_prior_and_projections_reproduce_plain_encodings():
    # same seed: click/expose GRUs and fusion draw identical weights
    mi = make_model(9, interactive=True)
    mp = make_model(9, interactive=False)
    for p in (mi.init_click_w, mi.init_click_b, mi.init_expose_w, mi.init_expose_b):
        p.data[:] = 0.0
    zero = np.zeros((1, 4))
    prior = InterestExport(user=0, round=0, r_n=zero, r_t=zero)
    clicked, exposed, cand = [1, 5, 8], [0, 2], 3
    out_i = mi.forward_interactive(clicked, exposed, [cand], prior)
    out_p = mp.forward(clicked, exposed, [cand])
    np.testing.assert_array_equal(out_i.r_click.data, out_p.r_click.data)
    np.testing.assert_array_equal(out_i.r_expose.data, out_p.r_expose.data)


def test_interactive_matches_step_by_step_oracle():
    m = make_model(10, interactive=True)
    prior = prior_of(m, 11)
    clicked, exposed, cand = [0, 3, 7], [5, 1], 9
    init_click, init_expose = m._prior_states_np(prior.r_n, prior.r_t)
    r1 = m.gru_click.encode_np(m.lookup_np(clicked), init_click)
    r2 = m.gru_expose.encode_np(m.lookup_np(exposed), init_expose)
    tgt = m.lookup_np([cand])
    blended = ly.target_aware_fusion_np(m.fusion, r1, r2, tgt)
    expected = m.head.apply_np(np.hstack([blended, prior.r_t, tgt]))[0, 0]
    out = m.forward_interactive(clicked, exposed, [cand], prior)
    assert out.prob.item() == pytest.approx(expected, rel=1e-12)


def test_interactive_rejects_bad_prior_shape():
    m = make_model(12, interactive=True)
    bad = InterestExport(user=0, round=0, r_n=np.zeros((1, 3)), r_t=np.zeros((1, 4)))
    with pytest.raises(ad.ShapeError):
        m.forward_interactive([1], [], [2], bad)


def test_full_interactive_graph_gradients():
    m = make_model(13, interactive=True, n_items=8, dim=3)
    prior = prior_of(m, 14)

    def loss_fn():
        return m.loss([0, 2], [5], [6], [1], prior=prior)

    report = ad.grad_check(loss_fn, m.params(), tolerance=1e-3)
    assert report.passed, str(report)


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
    mem.record([1, 2])
    first = mem.export(m, user=3)
    second = mem.export(m, user=3)
    assert first.count == 2 and second.count == 0
    np.testing.assert_array_equal(first.r2_hat, second.r2_hat)
    assert second.user == 3


def test_first_export_encodes_from_zero_state():
    m = make_model(17)
    mem = ExposureMemory(4)
    items = [2, 5, 9]
    mem.record(items)
    export = mem.export(m, user=0)
    expected = m.gru_expose.encode_np(m.lookup_np(items), np.zeros((1, 4)))
    np.testing.assert_array_equal(export.r2_hat, expected)


def test_exposure_accumulation_is_associative_across_200_random_splits():
    m = make_model(18)
    r = rng(19)
    for _ in range(200):
        n = int(r.integers(2, 20))
        stream = r.integers(0, 12, size=n).tolist()
        cut = int(r.integers(1, n))
        whole = ExposureMemory(4)
        whole.record(stream)
        one_pass = whole.export(m, user=0).r2_hat
        split = ExposureMemory(4)
        split.record(stream[:cut])
        split.export(m, user=0)
        split.record(stream[cut:])
        two_pass = split.export(m, user=0).r2_hat
        np.testing.assert_array_equal(one_pass, two_pass)


# ---------------------------------------------------------------------------
# capacity and scoring


def test_fast_has_fewer_trainable_parameters_than_slow():
    # default experiment dims: 32-dim embeddings, ML-1M-sized vocabulary
    slow = SlowModel(3706, 32, rng(20), interactive=True)
    fast = FastModel(3706, 32, rng(21), interactive=True)
    assert fast.param_count() < slow.param_count()


def test_batched_scores_match_graph_forward_plain():
    m = make_model(22)
    clicked, exposed = [0, 2, 4], [8, 9]
    cands = [1, 3, 5, 7, 11]
    batched = m.score_candidates(clicked, exposed, cands)
    for i, c in enumerate(cands):
        assert batched[i] == pytest.approx(m.forward(clicked, exposed, [c]).prob.item(), rel=1e-12)


def test_batched_scores_match_graph_forward_interactive():
    m = make_model(23, interactive=True)
    prior = prior_of(m, 24)
    clicked, exposed = [1, 6], [10, 0, 2]
    cands = [3, 5, 7, 9]
    batched = m.score_candidates(clicked, exposed, cands, prior=prior)
    for i, c in enumerate(cands):
        out = m.forward_interactive(clicked, exposed, [c], prior)
        assert batched[i] == pytest.approx(out.prob.item(), rel=1e-12)


@pytest.mark.parametrize("interactive", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_carried_click_state_equals_full_reencode_bit_exactly(interactive, dtype):
    m = FastModel(12, 4, rng(30), interactive=interactive, dtype=dtype)
    m.sync_rows(np.arange(12), rng(31).uniform(-0.05, 0.05, size=(12, 4)))
    prior = prior_of(m, 32) if interactive else None
    clicks, exposed, cands = [3, 0, 7, 7, 11, 2], [8, 9, 1], [1, 4, 5, 10]
    context = m.encode_context(clicks[:1], exposed, prior)
    for n in range(1, len(clicks) + 1):
        if n > 1:
            context = m.extend_clicks(context, clicks[n - 1 : n])
        full = m.encode_context(clicks[:n], exposed, prior)
        np.testing.assert_array_equal(context.r_click, full.r_click)
        assert np.array_equal(m.score_context(context, cands), m.score_candidates(clicks[:n], exposed, cands, prior))
    slid = m.reencode_clicks(context, clicks[2:])
    np.testing.assert_array_equal(slid.r_click, m.encode_context(clicks[2:], exposed, prior).r_click)
    np.testing.assert_array_equal(slid.r_expose, context.r_expose)


def test_reencode_rejects_an_empty_click_window():
    m = make_model(33)
    context = m.encode_context([1, 2], [3])
    with pytest.raises(ad.ShapeError):
        m.reencode_clicks(context, [])


@pytest.mark.parametrize("bad", [-1, 12])
def test_scoring_rejects_out_of_vocabulary_ids(bad):
    m = make_model(27)  # vocabulary of 12, every row synced
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
    assert all(name.startswith("fast/all/") for name in m.named_arrays())
    path = tmp_path / "fast.sfpk"
    ad.save_checkpoint(path, m.named_arrays())
    m2 = make_model(28, interactive=True)
    m2.load_arrays(ad.load_checkpoint(path))
    for p, q in zip(m.params(), m2.params()):
        np.testing.assert_array_equal(q.data, p.data.astype(np.float32).astype(np.float64))
