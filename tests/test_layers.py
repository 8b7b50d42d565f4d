from functools import partial

import numpy as np
import pytest

from sfrec import autodiff as ad
from sfrec import layers as ly
from sfrec.fast import FastModel
from sfrec.slow import SlowModel


def rng(seed=0):
    return np.random.default_rng(seed)


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_gru_step(w, x, h):
    """Gate equations written out longhand, independent of the library path."""
    z = sig(x @ w["w_z"] + h @ w["u_z"] + w["b_z"])
    r = sig(x @ w["w_r"] + h @ w["u_r"] + w["b_r"])
    c = np.tanh(x @ w["w_h"] + (r * h) @ w["u_h"] + w["b_h"])
    return (1.0 - z) * h + z * c


def cell_arrays(cell):
    return {p.name.split("/")[-1]: p.data for p in cell.params()}


def zero_cell(d, k):
    cell = ly.GruCell(d, k, rng(0))
    for p in cell.params():
        p.data[:] = 0.0
    return cell


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_lookup_returns_stored_rows():
    table = ly.EmbeddingTable(6, 3, rng(1))
    out = table.lookup([4])
    np.testing.assert_array_equal(out.data, table.table.data[4:5, :])


def test_embedding_repeated_id_sums_gradient():
    table = ly.EmbeddingTable(5, 2, rng(2))
    with ad.tape() as t:
        t.backward(ad.sum_all(table.lookup([3, 3])))
    np.testing.assert_array_equal(table.table.grad[3], [2.0, 2.0])
    assert np.all(table.table.grad[[0, 1, 2, 4]] == 0.0)


def test_embedding_empty_and_oov():
    table = ly.EmbeddingTable(5, 2, rng(3))
    assert table.lookup([]).shape == (0, 2)
    with pytest.raises(ly.OutOfVocabularyError, match="5"):
        table.lookup([5])
    for bad in (-1, 5):  # numpy indexing would wrap -1 to the last row
        for lookup in (table.lookup, table.lookup_np):
            with pytest.raises(ly.OutOfVocabularyError, match=str(bad)):
                lookup([0, bad])


def test_embedding_init_range_and_seeding():
    a = ly.EmbeddingTable(50, 8, rng(9)).table.data
    b = ly.EmbeddingTable(50, 8, rng(9)).table.data
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) < 0.05)


# ---------------------------------------------------------------------------
# GRU


def test_gru_step_all_zero_weights_and_hidden_gives_zero():
    cell = zero_cell(3, 4)
    out = cell.step(ad.constant(np.ones((1, 3))), ad.constant(np.zeros((1, 4))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 4)))


def test_gru_step_matches_handwritten_reference():
    r = rng(11)
    cell = ly.GruCell(5, 4, r)
    x = r.normal(size=(1, 5))
    h = r.normal(size=(1, 4))
    out = cell.step(ad.constant(x), ad.constant(h))
    np.testing.assert_allclose(out.data, ref_gru_step(cell_arrays(cell), x, h), rtol=1e-14)


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("dim", [3, 5, 6, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gru_step_equals_separate_gate_products_bit_for_bit(dtype, dim, rows):
    # the kernel stacks the gate weights; each gate's block of a stacked
    # product is that gate's own product, so scoring keeps its bits
    r = rng(59)
    cell = ly.GruCell(dim, dim, r, dtype=dtype)
    x, h = r.normal(size=(rows, dim)).astype(dtype), r.normal(size=(rows, dim)).astype(dtype)
    out = cell.step(ad.constant(x), ad.constant(h)).data
    np.testing.assert_array_equal(out, ref_gru_step(cell_arrays(cell), x, h))
    np.testing.assert_array_equal(cell.encode_np(x[:1], h[:1]), ref_gru_step(cell_arrays(cell), x[:1], h[:1]))


def test_gru_step_shape_errors():
    cell = ly.GruCell(3, 4, rng(0))
    with pytest.raises(ad.ShapeError):
        cell.step(ad.constant(np.zeros((1, 4))), ad.constant(np.zeros((1, 4))))
    with pytest.raises(ad.ShapeError):
        cell.step(ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((1, 3))))


def test_gru_step_gradients_vs_finite_differences():
    r = rng(12)
    cell = ly.GruCell(3, 3, r)
    x = ad.parameter(r.normal(size=(1, 3)), "x")
    h = ad.parameter(r.normal(size=(1, 3)), "h")
    weights = ad.constant(r.normal(size=(3, 1)))

    def loss_fn():
        return ad.matmul(cell.step(x, h), weights)

    report = ad.grad_check(loss_fn, [x, h, *cell.params()], tolerance=1e-4)
    assert report.passed, str(report)


def test_gru_step_on_n_rows_equals_n_single_row_steps():
    r = rng(50)
    cell = ly.GruCell(3, 4, r)
    xs, hs = r.normal(size=(5, 3)), r.normal(size=(5, 4))
    probe = r.normal(size=(5, 4))

    def grads(x_rows, h_rows, probe_rows):
        x, h = ad.parameter(x_rows, "x"), ad.parameter(h_rows, "h")
        cell_params = cell.params()
        for p in cell_params:
            p.zero_grad()
        with ad.tape() as t:
            out = cell.step(x, h)
            t.backward(ad.sum_all(ad.mul(out, ad.constant(probe_rows))))
        return out.data, x.grad, h.grad, {p.name: p.grad.copy() for p in cell_params}

    out, gx, gh, gparams = grads(xs, hs, probe)
    summed = {name: np.zeros_like(g) for name, g in gparams.items()}
    for i in range(5):
        one, ox, oh, oparams = grads(xs[i : i + 1], hs[i : i + 1], probe[i : i + 1])
        np.testing.assert_allclose(out[i : i + 1], one, rtol=1e-12)
        np.testing.assert_allclose(gx[i : i + 1], ox, rtol=1e-12)
        np.testing.assert_allclose(gh[i : i + 1], oh, rtol=1e-12)
        for name in summed:
            summed[name] += oparams[name]
    for name, g in gparams.items():
        assert g.shape == summed[name].shape, name
        np.testing.assert_allclose(g, summed[name], rtol=1e-10, atol=1e-14, err_msg=name)


def test_gru_encode_empty_returns_init_unchanged():
    cell = ly.GruCell(3, 4, rng(13))
    init = ad.constant(rng(14).normal(size=(1, 4)))
    assert ly.gru_encode(cell, ad.constant(np.zeros((0, 3))), init) is init


def test_gru_encode_length_one_equals_single_step():
    r = rng(15)
    cell = ly.GruCell(3, 4, r)
    seq = r.normal(size=(1, 3))
    init = ad.constant(np.zeros((1, 4)))
    enc = ly.gru_encode(cell, ad.constant(seq), init)
    step = cell.step(ad.constant(seq), init)
    np.testing.assert_array_equal(enc.data, step.data)


def test_gru_encode_chains_steps_bit_exactly():
    r = rng(16)
    cell = ly.GruCell(3, 3, r)
    seq = r.normal(size=(3, 3))
    h = np.zeros((1, 3))
    w = cell_arrays(cell)
    for j in range(3):
        h = ref_gru_step(w, seq[j : j + 1], h)
    enc = ly.gru_encode(cell, ad.constant(seq), ad.constant(np.zeros((1, 3))))
    np.testing.assert_allclose(enc.data, h, rtol=1e-14)


def test_gru_encode_zero_weights_halves_init_each_step():
    cell = zero_cell(3, 3)
    init = rng(17).normal(size=(1, 3))
    for l in (1, 2, 5):
        enc = ly.gru_encode(cell, ad.constant(np.zeros((l, 3))), ad.constant(init))
        np.testing.assert_allclose(enc.data, (0.5**l) * init, rtol=1e-12)


def test_gru_numpy_paths_match_graph():
    r = rng(18)
    cell = ly.GruCell(4, 4, r)
    seq = r.normal(size=(6, 4))
    init = r.normal(size=(1, 4))
    graph = ly.gru_encode(cell, ad.constant(seq), ad.constant(init))
    np.testing.assert_allclose(cell.encode_np(seq, init), graph.data, atol=1e-12)
    # batched rows advance independently
    xs = r.normal(size=(3, 4))
    hs = r.normal(size=(3, 4))
    batched = cell.step(ad.constant(xs), ad.constant(hs)).data
    for i in range(3):
        one = cell.step(ad.constant(xs[i : i + 1]), ad.constant(hs[i : i + 1])).data
        np.testing.assert_allclose(batched[i : i + 1], one, atol=1e-14)


@pytest.mark.parametrize("dim", [3, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gru_node_prefix_states_equal_encode_np_and_folded_steps_bit_for_bit(dtype, dim):
    r = rng(60)
    cell = ly.GruCell(dim, dim, r, dtype=dtype)
    seq = r.normal(size=(7, dim)).astype(dtype)
    init = r.normal(size=(1, dim)).astype(dtype)
    lengths = list(range(8))
    with ad.tape() as t:
        states = ly.gru_encode(cell, ad.constant(seq), ad.parameter(init, "init"), lengths)
    assert len(t.nodes) == 1 and states.dtype == dtype
    h = ad.constant(init)
    for k in lengths:
        np.testing.assert_array_equal(states.data[k : k + 1], cell.encode_np(seq[:k], init))
        np.testing.assert_array_equal(states.data[k : k + 1], h.data)
        if k < len(seq):
            h = cell.step(ad.constant(seq[k : k + 1]), h)


@pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-14)])
def test_encode_np_folds_a_stack_of_windows_as_each_window_alone(dtype, atol):
    r = rng(62)
    cell = ly.GruCell(6, 5, r, dtype=dtype)
    seqs = r.normal(size=(4, 3, 6)).astype(dtype)
    init = r.normal(size=(4, 5)).astype(dtype)
    stacked = cell.encode_np(seqs, init)
    assert stacked.shape == (4, 5) and stacked.dtype == dtype
    for i in range(4):
        alone = cell.encode_np(seqs[i], init[i : i + 1])
        np.testing.assert_array_equal(cell.encode_np(seqs[i : i + 1], init[i : i + 1]), alone)  # n = 1
        np.testing.assert_allclose(stacked[i : i + 1], alone, rtol=0, atol=atol)
    np.testing.assert_array_equal(cell.encode_np(seqs[:, :0], init), init)  # empty windows keep their init rows
    for bad_seqs, bad_init in ((seqs, init[:3]), (seqs[..., :5], init), (seqs[0, 0], init[:1])):
        with pytest.raises(ad.ShapeError, match="gru wants"):
            cell.encode_np(bad_seqs, bad_init)


def test_gru_node_gradients_with_repeated_and_zero_prefix_lengths():
    r = rng(61)
    cell = ly.GruCell(3, 4, r)
    seq = ad.parameter(r.normal(size=(6, 3)), "seq")  # the last row lies past every prefix
    init = ad.parameter(r.normal(size=(1, 4)), "init")
    lengths = [2, 0, 5, 2, 5, 0, 1]
    probe = ad.constant(r.normal(size=(len(lengths), 4)))

    def loss_fn():
        return ad.sum_all(ad.mul(ly.gru_encode(cell, seq, init, lengths), probe))

    report = ad.grad_check(loss_fn, [seq, init, *cell.params()], tolerance=1e-4)
    assert report.passed, str(report)


def test_gru_step_gradients_on_three_rows_with_tracked_input():
    r = rng(62)
    cell = ly.GruCell(3, 4, r)
    x = ad.parameter(r.normal(size=(3, 3)), "x")
    h = ad.constant(r.normal(size=(3, 4)))
    probe = ad.constant(r.normal(size=(3, 4)))

    def loss_fn():
        return ad.sum_all(ad.mul(cell.step(x, h), probe))

    report = ad.grad_check(loss_fn, [x, *cell.params()], tolerance=1e-4)
    assert report.passed, str(report)


def test_gru_encode_of_only_empty_prefixes_stacks_init():
    cell = ly.GruCell(3, 4, rng(63))
    init = ad.parameter(rng(64).normal(size=(1, 4)), "init")
    with ad.tape() as t:
        out = ly.gru_encode(cell, ad.constant(np.zeros((2, 3))), init, [0, 0])
        t.backward(ad.sum_all(out))
    np.testing.assert_array_equal(out.data, np.vstack([init.data, init.data]))
    np.testing.assert_array_equal(init.grad, np.full((1, 4), 2.0))
    assert all(not p.grad.any() for p in cell.params())


def test_gru_gate_export_import_round_trip_and_shape_guard():
    r = rng(19)
    src = ly.GruCell(3, 4, r)
    dst = ly.GruCell(3, 4, rng(20))
    dst.load_gates(src.export_gates())
    for p, q in zip(src.params(), dst.params()):
        np.testing.assert_array_equal(p.data, q.data)
        assert p.data is not q.data
    bad = src.export_gates()
    bad["w_z"] = np.zeros((2, 2))
    with pytest.raises(ad.ShapeError):
        dst.load_gates(bad)


# ---------------------------------------------------------------------------
# attention pooling


def test_attention_single_row_with_unit_weight_returns_that_row():
    unit = ly.Mlp([4 * 3, 16, 1], rng(21), name="att")
    for p in unit.params():
        p.data[:] = 0.0
    unit.biases[-1].data[:] = 1.0  # constant weight 1.0
    e1 = rng(22).normal(size=(1, 3))
    out = ly.din_attention(unit, ad.constant(e1), ad.constant(rng(23).normal(size=(1, 3))))
    np.testing.assert_allclose(out.data, e1, rtol=1e-14)


def test_attention_zeroed_unit_gives_zero_vector():
    unit = ly.Mlp([4 * 3, 16, 1], rng(24), name="att")
    for p in unit.params():
        p.data[:] = 0.0
    hist = rng(25).normal(size=(4, 3))
    out = ly.din_attention(unit, ad.constant(hist), ad.constant(rng(26).normal(size=(1, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 3)))


def reference_weights(unit, hist, targets):
    """The (n, l) weights from the explicit (n*l, 4d) pair features, float64."""
    n, l = targets.shape[0], hist.shape[0]
    hist_rep = np.tile(hist, (n, 1))
    tgt_rep = np.repeat(targets, l, axis=0)
    feats = np.hstack([hist_rep, tgt_rep, hist_rep - tgt_rep, hist_rep * tgt_rep])
    w0, b0 = unit.weights[0].data, unit.biases[0].data
    w1, b1 = unit.weights[1].data, unit.biases[1].data
    return (np.maximum(feats @ w0 + b0, 0.0) @ w1 + b1).reshape(n, l)


def reference_attention(unit, hist, targets):
    return reference_weights(unit, hist, targets) @ hist


def brute_force_attention(unit, hist, target):
    """Per-row feature build and weight-and-sum, written as explicit loops."""
    w0, b0 = unit.weights[0].data, unit.biases[0].data
    w1, b1 = unit.weights[1].data, unit.biases[1].data
    out = np.zeros((1, hist.shape[1]))
    for j in range(hist.shape[0]):
        e = hist[j : j + 1]
        feat = np.hstack([e, target, e - target, e * target])
        a = np.maximum(feat @ w0 + b0, 0.0) @ w1 + b1
        out = out + a[0, 0] * e
    return out


def test_attention_matches_brute_force_oracle():
    r = rng(27)
    unit = ly.Mlp([4 * 5, 16, 1], r, name="att")
    hist = r.normal(size=(4, 5))
    target = r.normal(size=(1, 5))
    out = ly.din_attention(unit, ad.constant(hist), ad.constant(target))
    np.testing.assert_allclose(out.data, brute_force_attention(unit, hist, target), atol=1e-12)


def test_attention_weight_count_and_empty_rejection():
    r = rng(28)
    unit = ly.Mlp([4 * 3, 16, 1], r, name="att")
    for p in unit.params():
        p.data[:] = 0.0
    unit.biases[-1].data[:] = 1.0  # every weight is 1, so the pool sums one weight per row
    hist = r.normal(size=(7, 3))
    out = ly.din_attention(unit, ad.constant(hist), ad.constant(r.normal(size=(1, 3))))
    np.testing.assert_allclose(out.data, hist.sum(axis=0, keepdims=True), rtol=1e-14)
    with pytest.raises(ad.ShapeError):
        ly.din_attention(unit, ad.constant(np.zeros((0, 3))), ad.constant(np.zeros((1, 3))))


def test_attention_output_invariant_under_history_permutation():
    r = rng(29)
    unit = ly.Mlp([4 * 4, 16, 1], r, name="att")
    hist = r.normal(size=(5, 4))
    target = ad.constant(r.normal(size=(1, 4)))
    perm = r.permutation(5)
    a = ly.din_attention(unit, ad.constant(hist), target)
    b = ly.din_attention(unit, ad.constant(hist[perm]), target)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_attention_batched_numpy_path_matches_graph():
    r = rng(30)
    unit = ly.Mlp([4 * 4, 16, 1], r, name="att")
    hist = r.normal(size=(6, 4))
    targets = r.normal(size=(9, 4))
    batched = reference_attention(unit, hist, targets)
    for i in range(9):
        one = ly.din_attention(unit, ad.constant(hist), ad.constant(targets[i : i + 1]))
        np.testing.assert_allclose(batched[i : i + 1], one.data, atol=1e-12)


def test_attention_graph_on_many_targets_matches_one_target_at_a_time():
    r = rng(51)
    unit = ly.Mlp([4 * 4, 16, 1], r, name="att")
    hist = ad.constant(r.normal(size=(6, 4)))
    targets = r.normal(size=(3, 4))
    assert reference_weights(unit, hist.data, targets).shape == (3, 6)
    batched = ly.din_attention(unit, hist, ad.constant(targets))
    assert batched.shape == (3, 4)
    for i in range(3):
        one = ly.din_attention(unit, hist, ad.constant(targets[i : i + 1]))
        np.testing.assert_allclose(batched.data[i : i + 1], one.data, rtol=1e-12)


def test_attention_gradients():
    r = rng(31)
    unit = ly.Mlp([4 * 3, 4, 1], r, name="att")
    hist = ad.parameter(r.normal(size=(3, 3)), "hist")
    target = ad.parameter(r.normal(size=(1, 3)), "target")
    probe = ad.constant(r.normal(size=(3, 1)))

    def loss_fn():
        return ad.matmul(ly.din_attention(unit, hist, target), probe)

    report = ad.grad_check(loss_fn, [hist, target, *unit.params()], tolerance=1e-4)
    assert report.passed, str(report)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("l", [1, 5, 30])
def test_fused_attention_matches_pair_feature_reference(n, l):
    r = rng(100 * n + l)
    unit = ly.Mlp([4 * 6, 5, 1], r, name="att")
    unit.biases[0].data[:] = r.normal(size=(1, 5))
    unit.biases[1].data[:] = r.normal(size=(1, 1))
    hist = r.normal(size=(l, 6))
    targets = r.normal(size=(n, 6))
    out = ly.din_attention(unit, ad.constant(hist), ad.constant(targets))
    assert out.shape == (n, 6)
    np.testing.assert_allclose(out.data, reference_attention(unit, hist, targets), rtol=1e-12)


def test_fused_attention_gradients_over_many_targets():
    r = rng(32)
    unit = ly.Mlp([4 * 3, 4, 1], r, name="att")
    for p in unit.params():
        p.data[:] = r.normal(size=p.data.shape)  # nonzero biases, so every block of dW0 is exercised
    hist = ad.parameter(r.normal(size=(4, 3)), "hist")
    targets = ad.parameter(r.normal(size=(3, 3)), "targets")
    probe = ad.constant(r.normal(size=(3, 1)))

    def loss_fn():
        return ad.sum_all(ad.matmul(ly.din_attention(unit, hist, targets), probe))

    report = ad.grad_check(loss_fn, [hist, targets, *unit.params()], tolerance=1e-4)
    assert report.passed, str(report)


def test_fused_attention_is_one_tape_node_and_records_nothing_without_a_tape():
    r = rng(33)
    unit = ly.Mlp([4 * 3, 16, 1], r, name="att")
    hist = ad.parameter(r.normal(size=(5, 3)), "hist")
    targets = ad.constant(r.normal(size=(2, 3)))
    with ad.tape() as t:
        ly.din_attention(unit, hist, targets)
    assert len(t.nodes) == 1
    out = ly.din_attention(unit, hist, targets)
    assert not out.track and out._backward is None


@pytest.mark.parametrize("dims", [[4 * 4, 16, 1], [4 * 3, 16, 2], [4 * 3, 1], [4 * 3, 5, 4, 1]])
def test_attention_rejects_an_mlp_that_is_not_4d_by_k_by_1(dims):
    r = rng(35)
    with pytest.raises(ad.ShapeError, match="attention wants a"):
        ly.din_attention(ly.Mlp(dims, r), ad.constant(r.normal(size=(5, 3))), ad.constant(r.normal(size=(2, 3))))


def test_fused_attention_keeps_float32():
    r = rng(34)
    unit = ly.Mlp([4 * 3, 16, 1], r, name="att", dtype=np.float32)
    hist = ad.constant(r.normal(size=(5, 3)).astype(np.float32))
    targets = ad.constant(r.normal(size=(4, 3)).astype(np.float32))
    assert ly.din_attention(unit, hist, targets).dtype == np.float32
    with pytest.raises(ad.ShapeError):
        ly.din_attention(unit, ad.constant(r.normal(size=(5, 3))), targets)


# ---------------------------------------------------------------------------
# fusion


def reference_mlp(mlp, x):
    """The MLP written out in numpy: affine layers, ReLU between them."""
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = x @ w.data + b.data
        if k != len(mlp.weights) - 1:
            x = np.maximum(x, 0.0)
    return x


def composed_mlp(mlp, x):
    """The MLP as a graph of matmul, bias-add and ReLU nodes."""
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        x = ad.add(ad.matmul(x, w), b)
        if k != len(mlp.weights) - 1:
            x = ad.relu(x)
    return x


def composed_fusion(r1, r2, targets, mlp):
    """Target-aware fusion as a graph of the engine's elementary nodes."""
    logit1 = composed_mlp(mlp, ad.concat([r1, targets], axis=1))
    logit2 = composed_mlp(mlp, ad.concat([r2, targets], axis=1))
    w1 = ad.sigmoid(ad.add(logit1, ad.affine(logit2, mul=-1.0)))
    return ad.add(ad.scale(w1, r1), ad.scale(ad.affine(w1, mul=-1.0, add=1.0), r2))


def run_twice(graph, inputs, params, probe):
    """Output and every gradient after two backward passes of ``sum(graph * probe)``
    with no zeroing between, so each pass adds onto existing gradients."""
    tensors = list({id(t): t for t in (*inputs, *params) if t.track}.values())
    for t in tensors:
        t.zero_grad()
    for _ in range(2):
        with ad.tape() as tp:
            out = graph(*inputs)
            tp.backward(ad.sum_all(ad.mul(out, probe)))
    return [out.data] + [t.grad for t in tensors]


def fusion_parts(d, seed):
    r = rng(seed)
    mlp = ly.Mlp([2 * d, 8, 1], r, name="fuse")
    return mlp, r.normal(size=(1, d)), r.normal(size=(1, d)), r.normal(size=(1, d))


def test_fusion_equal_logits_average_the_inputs():
    mlp, r1, r2, tgt = fusion_parts(4, 32)
    for p in mlp.params():
        p.data[:] = 0.0
    out = ly.target_aware_fusion(ad.constant(r1), ad.constant(r2), ad.constant(tgt), mlp)
    np.testing.assert_allclose(out.data, (r1 + r2) / 2.0, atol=1e-14)


def test_fusion_saturated_logit_picks_one_side():
    d = 3
    mlp = ly.Mlp([2 * d, 1], rng(33), name="fuse")
    mlp.weights[0].data[:] = 0.0
    mlp.weights[0].data[0, 0] = 1.0  # logit = first coordinate of the interest vector
    mlp.biases[0].data[:] = 0.0
    r1 = np.array([[20.0, 1.0, -1.0]])
    r2 = np.array([[0.0, -5.0, 5.0]])
    tgt = rng(34).normal(size=(1, d))
    out = ly.target_aware_fusion(ad.constant(r1), ad.constant(r2), ad.constant(tgt), mlp)
    np.testing.assert_allclose(out.data, r1, atol=1e-6)


def test_fusion_matches_hand_evaluation():
    mlp, r1, r2, tgt = fusion_parts(5, 35)
    l1 = reference_mlp(mlp, np.hstack([r1, tgt]))[0, 0]
    l2 = reference_mlp(mlp, np.hstack([r2, tgt]))[0, 0]
    e1, e2 = np.exp(l1 - max(l1, l2)), np.exp(l2 - max(l1, l2))
    w1 = e1 / (e1 + e2)
    expected = w1 * r1 + (1.0 - w1) * r2
    out = ly.target_aware_fusion(ad.constant(r1), ad.constant(r2), ad.constant(tgt), mlp)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_fusion_output_is_convex_combination():
    for seed in range(10):
        mlp, r1, r2, tgt = fusion_parts(4, 100 + seed)
        out = ly.target_aware_fusion(ad.constant(r1), ad.constant(r2), ad.constant(tgt), mlp).data
        lo = np.minimum(r1, r2) - 1e-12
        hi = np.maximum(r1, r2) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


def test_fused_fusion_node_matches_composed_graph_bit_for_bit():
    for dtype in (np.float32, np.float64):
        r = rng(36)
        mlp = ly.Mlp([8, 6, 1], r, name="fuse", dtype=dtype)
        arrays = [r.normal(size=(5, 4)).astype(dtype) for _ in range(3)]
        probe = ad.constant(r.normal(size=(5, 4)).astype(dtype))
        for case in ("untracked", "tracked", "aliased"):
            if case == "untracked":
                inputs = [ad.constant(a) for a in arrays]
            else:
                inputs = [ad.parameter(a.copy(), f"x{i}") for i, a in enumerate(arrays)]
                if case == "aliased":  # one tensor as r1 and as targets: its gradient order shows
                    inputs[2] = inputs[0]
            fused = run_twice(lambda a, b, t: ly.target_aware_fusion(a, b, t, mlp), inputs, mlp.params(), probe)
            composed = run_twice(lambda a, b, t: composed_fusion(a, b, t, mlp), inputs, mlp.params(), probe)
            assert len(fused) == len(composed)
            for got, want in zip(fused, composed):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)


def test_fused_fusion_is_one_tape_node_and_records_nothing_without_a_tape():
    mlp, r1, r2, tgt = fusion_parts(4, 39)
    with ad.tape() as t:
        ly.target_aware_fusion(ad.parameter(r1, "r1"), ad.constant(r2), ad.constant(tgt), mlp)
    assert len(t.nodes) == 1
    out = ly.target_aware_fusion(ad.constant(r1), ad.constant(r2), ad.constant(tgt), mlp)
    assert not out.track
    with pytest.raises(ad.ShapeError):
        ly.target_aware_fusion(ad.constant(r1.astype(np.float32)), ad.constant(r2), ad.constant(tgt), mlp)


def test_fusion_graph_on_many_targets_matches_one_target_at_a_time():
    mlp, _, _, _ = fusion_parts(4, 52)
    r = rng(53)
    targets, r1, r2 = r.normal(size=(3, 4)), r.normal(size=(3, 4)), r.normal(size=(3, 4))
    batched = ly.target_aware_fusion(ad.constant(r1), ad.constant(r2), ad.constant(targets), mlp)
    assert batched.shape == (3, 4)
    for i in range(3):
        rows = [ad.constant(x[i : i + 1]) for x in (r1, r2, targets)]
        one = ly.target_aware_fusion(*rows, mlp)
        np.testing.assert_allclose(batched.data[i : i + 1], one.data, rtol=1e-12)
    with pytest.raises(ad.ShapeError):  # one interest row per target, not a shared one
        ly.target_aware_fusion(ad.constant(r1[:1]), ad.constant(r2[:1]), ad.constant(targets), mlp)


def test_fusion_gradients():
    r = rng(38)
    mlp = ly.Mlp([6, 4, 1], r, name="fuse")
    r1 = ad.parameter(r.normal(size=(1, 3)), "r1")
    r2 = ad.parameter(r.normal(size=(1, 3)), "r2")
    tgt = ad.parameter(r.normal(size=(1, 3)), "tgt")
    probe = ad.constant(r.normal(size=(3, 1)))

    def loss_fn():
        return ad.matmul(ly.target_aware_fusion(r1, r2, tgt, mlp), probe)

    report = ad.grad_check(loss_fn, [r1, r2, tgt, *mlp.params()], tolerance=1e-4)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# prediction head


def test_head_has_exactly_three_affine_layers():
    fetch = SlowModel(12, 4, rng(39), interactive=False).embedding.lookup_np
    for model in (SlowModel, partial(FastModel, fetch=fetch)):
        for interactive in (False, True):
            head = model(12, 4, rng(40), interactive=interactive).head
            assert len(head.weights) == 3
            assert head.dims == [(3 if interactive else 2) * 4, 64, 32, 1]


def test_head_zeroed_final_layer_outputs_half():
    head = ly.Mlp([6, 64, 32, 1], rng(41))
    head.weights[-1].data[:] = 0.0
    head.biases[-1].data[:] = 0.0
    out = ly.predict_head(head, ad.constant(rng(42).normal(size=(1, 6))))
    assert out.item() == 0.5


def test_head_output_strictly_increases_with_final_bias():
    r = rng(43)
    head = ly.Mlp([6, 64, 32, 1], r)
    x = ad.constant(r.normal(size=(1, 6)))
    base = ly.predict_head(head, x).item()
    head.biases[-1].data += 0.75
    assert ly.predict_head(head, x).item() > base


def test_head_matches_recomputation_and_stays_in_unit_interval():
    r = rng(44)
    head = ly.Mlp([5, 64, 32, 1], r)
    x = r.normal(size=(1, 5))
    h1 = np.maximum(x @ head.weights[0].data + head.biases[0].data, 0.0)
    h2 = np.maximum(h1 @ head.weights[1].data + head.biases[1].data, 0.0)
    logit = h2 @ head.weights[2].data + head.biases[2].data
    out = ly.predict_head(head, ad.constant(x))
    np.testing.assert_allclose(out.data, sig(logit), atol=1e-14)
    assert 0.0 < out.item() < 1.0


def test_head_rejects_wrong_width():
    head = ly.Mlp([6, 64, 32, 1], rng(45))
    with pytest.raises(ad.ShapeError):
        ly.predict_head(head, ad.constant(np.zeros((1, 5))))


def test_fused_mlp_node_matches_composed_graph_bit_for_bit():
    for dtype in (np.float32, np.float64):
        r = rng(46)
        mlp = ly.Mlp([7, 6, 5, 1], r, name="head", dtype=dtype)
        for n in (1, 4):  # one row adds the bias without a column sum
            x = r.normal(size=(n, 7)).astype(dtype)
            probe = ad.constant(r.normal(size=(n, 1)).astype(dtype))
            for inputs in ([ad.constant(x)], [ad.parameter(x.copy(), "x")]):
                fused = run_twice(mlp.apply, inputs, mlp.params(), probe)
                composed = run_twice(lambda t: composed_mlp(mlp, t), inputs, mlp.params(), probe)
                for got, want in zip(fused, composed):
                    assert got.dtype == dtype
                    np.testing.assert_array_equal(got, want)


def test_fused_mlp_is_one_tape_node_and_checks_its_input():
    mlp = ly.Mlp([3, 4, 1], rng(49))
    with ad.tape() as t:
        mlp.apply(ad.constant(np.ones((2, 3))))
    assert len(t.nodes) == 1
    np.testing.assert_array_equal(mlp.apply(ad.constant(np.ones((2, 3)))).data, reference_mlp(mlp, np.ones((2, 3))))
    for bad in (np.ones((2, 4)), np.ones((2, 3), dtype=np.float32)):
        with pytest.raises(ad.ShapeError):
            mlp.apply(ad.constant(bad))


def test_head_gradients():
    r = rng(47)
    head = ly.Mlp([4, 5, 3, 1], r)
    x = ad.parameter(r.normal(size=(1, 4)), "x")

    def loss_fn():
        return ly.predict_head(head, x)

    report = ad.grad_check(loss_fn, [x, *head.params()], tolerance=1e-4)
    assert report.passed, str(report)


def test_mlp_requires_two_dims():
    with pytest.raises(ValueError):
        ly.Mlp([4], rng(48))
