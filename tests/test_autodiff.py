import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfrec import autodiff as ad


def central_diff(loss_fn, arr, h=1e-5):
    """Finite-difference gradient of loss_fn() w.r.t. arr, mutated in place."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return g


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# forward values


def test_sigmoid_of_zero_is_half():
    x = ad.constant([[0.0]])
    assert ad.sigmoid(x).item() == 0.5


def test_sigmoid_saturates_without_nan():
    x = ad.constant([[-1000.0, 1000.0]])
    out = ad.sigmoid(x).data
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0


def test_matmul_identity():
    a = ad.constant(rng().normal(size=(3, 3)))
    eye = ad.constant(np.eye(3))
    np.testing.assert_array_equal(ad.matmul(a, eye).data, a.data)


def test_affine_and_scale():
    x = ad.constant([[1.0, -2.0]])
    np.testing.assert_array_equal(ad.affine(x, mul=3.0, add=1.0).data, [[4.0, -5.0]])
    s = ad.constant([[2.0]])
    np.testing.assert_array_equal(ad.scale(s, x).data, [[2.0, -4.0]])


def test_concat_both_axes():
    a = ad.constant([[1.0, 2.0]])
    b = ad.constant([[3.0, 4.0]])
    np.testing.assert_array_equal(ad.concat([a, b], axis=1).data, [[1, 2, 3, 4]])
    np.testing.assert_array_equal(ad.concat([a, b], axis=0).data, [[1, 2], [3, 4]])


def test_vector_promotion_and_scalar_promotion():
    assert ad.constant([1.0, 2.0, 3.0]).shape == (1, 3)
    assert ad.constant(5.0).shape == (1, 1)
    with pytest.raises(ad.ShapeError):
        ad.constant(np.zeros((2, 2, 2)))


def test_relu_keeps_nan():
    out = ad.relu(ad.constant([[-1.0, np.nan, 2.0]])).data
    np.testing.assert_array_equal(out, [[0.0, np.nan, 2.0]])


def test_mean_and_sum():
    x = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    assert ad.sum_all(x).item() == 10.0
    assert ad.mean_all(x).item() == 2.5


# ---------------------------------------------------------------------------
# backward: hand-checkable cases


def test_square_gradient_at_three():
    # d(x*x)/dx = 2x = 6 at x = 3
    x = ad.parameter([[3.0]], "x")
    with ad.tape() as t:
        loss = ad.mul(x, x)
        t.backward(loss)
    assert x.grad[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_constant_only_graph_records_nothing_and_gets_no_grad():
    c = ad.constant([[2.0]])
    with ad.tape() as t:
        out = ad.mul(c, c)
        assert t.nodes == []
        with pytest.raises(ad.NonScalarLossError):
            t.backward(ad.constant([[1.0, 2.0]]))
        t.backward(out)
    assert c.grad is None


def test_no_tape_means_no_tracking():
    x = ad.parameter([[3.0]], "x")
    out = ad.mul(x, x)
    assert out.track is False
    assert out._backward is None


def test_reused_node_accumulates_both_paths():
    # loss = x*x + x  ->  dloss/dx = 2x + 1 = 5 at x = 2
    x = ad.parameter([[2.0]], "x")
    with ad.tape() as t:
        loss = ad.add(ad.mul(x, x), x)
        t.backward(loss)
    assert x.grad[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_bias_broadcast_gradient_sums_over_rows():
    m = ad.constant(np.ones((4, 3)))
    b = ad.parameter(np.zeros((1, 3)), "b")
    with ad.tape() as t:
        loss = ad.sum_all(ad.add(m, b))
        t.backward(loss)
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 4.0))


def test_gather_rows_accumulates_repeated_ids():
    table = ad.parameter(np.zeros((5, 2)), "emb")
    with ad.tape() as t:
        picked = ad.gather_rows(table, [1, 3, 1])
        t.backward(ad.sum_all(picked))
    expected = np.zeros((5, 2))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_gather_rows_empty_id_list():
    table = ad.parameter(np.ones((4, 3)), "emb")
    out = ad.gather_rows(table, [])
    assert out.shape == (0, 3)


def test_gradient_accumulates_across_tapes():
    # two per-example tapes, no zero_grad in between: grads add up
    x = ad.parameter([[1.0]], "x")
    for _ in range(2):
        with ad.tape() as t:
            t.backward(ad.mul(x, x))
    assert x.grad[0, 0] == pytest.approx(4.0)


def test_backward_requires_scalar_loss():
    x = ad.parameter([[1.0, 2.0]], "x")
    with ad.tape() as t:
        y = ad.relu(x)
        with pytest.raises(ad.NonScalarLossError):
            t.backward(y)


def test_tapes_do_not_nest():
    with ad.tape():
        with pytest.raises(RuntimeError):
            with ad.tape():
                pass


# ---------------------------------------------------------------------------
# backward vs central differences, op by op


def fd_case(build, arrays, tol=1e-6):
    """Check analytic gradients of build(params...) against central differences."""
    params = [ad.parameter(a, f"p{i}") for i, a in enumerate(arrays)]
    with ad.tape() as t:
        t.backward(build(*params))
    for p in params:
        numeric = central_diff(lambda: build(*params).item(), p.data)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


def test_fd_matmul():
    r = rng(1)
    fd_case(
        lambda a, b: ad.sum_all(ad.matmul(a, b)),
        [r.normal(size=(3, 4)), r.normal(size=(4, 2))],
    )


def test_fd_elementwise_chain():
    r = rng(2)
    fd_case(
        lambda a, b: ad.mean_all(ad.mul(ad.tanh(a), ad.sigmoid(b))),
        [r.normal(size=(2, 3)), r.normal(size=(2, 3))],
    )


def test_fd_relu_affine_concat_transpose():
    r = rng(4)
    a0, b0 = r.normal(size=(2, 3)) + 0.3, r.normal(size=(2, 2))
    # the concatenation at the starting point, transposed, as a constant right operand
    right = ad.constant(np.concatenate([np.maximum(a0, 0.0), 0.5 * b0 + 0.2], axis=1).T)

    def build(a, b):
        cat = ad.concat([ad.relu(a), ad.affine(b, mul=0.5, add=0.2)], axis=1)
        return ad.sum_all(ad.matmul(cat, right))

    fd_case(build, [a0, b0])


def test_fd_scale_and_row_and_gather():
    r = rng(5)

    def build(s, table):
        picked = ad.gather_rows(table, [0, 2, 2])
        return ad.sum_all(ad.scale(s, ad.add(picked, ad.gather_rows(table, [1]))))

    fd_case(build, [r.normal(size=(1, 1)), r.normal(size=(4, 3))])


def test_fd_column_scale():
    r = rng(8)

    def build(s, v):
        scaled = ad.scale(s, v)  # (3,1) column times (3,2)
        return ad.sum_all(ad.mul(scaled, scaled))

    fd_case(build, [r.normal(size=(3, 1)), r.normal(size=(3, 2))])


def test_fd_bce_interior():
    fd_case(
        lambda p: ad.binary_cross_entropy(ad.sigmoid(p), [1]),
        [np.array([[0.3]])],
    )
    fd_case(
        lambda p: ad.binary_cross_entropy(ad.sigmoid(p), [0]),
        [np.array([[-0.7]])],
    )


def test_bce_value_and_gradient_formula():
    p = ad.parameter([[0.25]], "p")
    with ad.tape() as t:
        loss = ad.binary_cross_entropy(p, [1])
        t.backward(loss)
    assert loss.item() == pytest.approx(-np.log(0.25), rel=1e-12)
    # d/dp of -log p is -1/p = -4; via (p - y) / (p (1 - p))
    assert p.grad[0, 0] == pytest.approx((0.25 - 1) / (0.25 * 0.75), rel=1e-12)


def test_bce_clamps_and_masks_gradient_at_extremes():
    p = ad.parameter([[1.0]], "p")
    with ad.tape() as t:
        loss = ad.binary_cross_entropy(p, [0])
        t.backward(loss)
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(-np.log(1e-7), rel=1e-6)
    assert p.grad[0, 0] == 0.0


def test_bce_rejects_bad_label():
    with pytest.raises(ValueError):
        ad.binary_cross_entropy(ad.constant([[0.5]]), [0.5])


@pytest.mark.parametrize("labels", [[1, 2, 0], [0, -1, 1], [1, 0, np.nan]])
def test_bce_rejects_labels_outside_zero_one(labels):
    with pytest.raises(ValueError, match="0 or 1"):
        ad.binary_cross_entropy(ad.constant([[0.2], [0.5], [0.7]]), labels)


@pytest.mark.parametrize("labels", [[1, 0], [1, 0, 0, 1], []])
def test_bce_rejects_label_count_not_matching_rows(labels):
    with pytest.raises(ad.ShapeError):
        ad.binary_cross_entropy(ad.constant([[0.2], [0.5], [0.7]]), labels)


def test_bce_column_is_the_sum_of_single_rows():
    probs = np.array([[0.2], [0.5], [0.9], [1.0]])
    labels = [1, 0, 0, 1]
    p = ad.parameter(probs.copy(), "p")
    with ad.tape() as t:
        loss = ad.binary_cross_entropy(p, labels)
        t.backward(loss)
    singles, grads = [], []
    for i, y in enumerate(labels):
        q = ad.parameter(probs[i : i + 1].copy(), "q")
        with ad.tape() as t:
            one = ad.binary_cross_entropy(q, [y])
            t.backward(one)
        singles.append(one.item())
        grads.append(q.grad[0, 0])
    assert loss.shape == (1, 1)
    assert loss.item() == pytest.approx(sum(singles), rel=1e-12)
    np.testing.assert_allclose(p.grad[:, 0], grads, rtol=1e-12)


def test_grad_check_helper_passes_on_correct_graph():
    r = rng(6)
    w = ad.parameter(r.normal(size=(3, 2)), "w")
    b = ad.parameter(np.zeros((1, 2)), "b")
    x = ad.constant(r.normal(size=(2, 3)))

    def loss_fn():
        return ad.mean_all(ad.tanh(ad.add(ad.matmul(x, w), b)))

    report = ad.grad_check(loss_fn, [w, b], tolerance=1e-4)
    assert report.passed, str(report)


def test_grad_check_helper_catches_wrong_backward():
    w = ad.parameter([[0.7]], "w")

    def bad_square(x):
        # deliberately wrong derivative: claims d(x^2)/dx = x
        def backward(g):
            x.accumulate(g * x.data)

        return ad.node(x.data * x.data, (x,), backward)

    report = ad.grad_check(lambda: bad_square(w), [w], tolerance=1e-4)
    assert not report.passed
    assert "FAIL" in str(report)


# ---------------------------------------------------------------------------
# shape and dtype errors


@pytest.mark.parametrize(
    "build",
    [
        lambda: ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3)))),
        lambda: ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 2)))),
        lambda: ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 1)))),
        lambda: ad.mul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((1, 3)))),
        lambda: ad.scale(ad.constant(np.zeros((1, 2))), ad.constant(np.zeros((2, 2)))),
        lambda: ad.concat([ad.constant(np.zeros((1, 2))), ad.constant(np.zeros((2, 2)))], axis=1),
        lambda: ad.concat([], axis=1),
        lambda: ad.binary_cross_entropy(ad.constant(np.full((2, 2), 0.5)), [0, 1]),
        lambda: ad.constant(np.zeros((2, 2))).item(),
        lambda: ad.scale(ad.constant(np.zeros((3, 1))), ad.constant(np.zeros((2, 2)))),
        lambda: ad.concat([ad.constant(np.zeros((1, 2)))], axis=2),
    ],
)
def test_shape_errors(build):
    with pytest.raises(ad.ShapeError):
        build()


def test_mixed_dtype_rejected():
    a = ad.constant(np.zeros((1, 2), dtype=np.float32))
    b = ad.constant(np.zeros((1, 2), dtype=np.float64))
    with pytest.raises(ad.ShapeError):
        ad.add(a, b)


def test_float32_graphs_stay_float32():
    a = ad.constant(np.ones((2, 2), dtype=np.float32))
    b = ad.constant(np.ones((2, 2), dtype=np.float32))
    assert ad.matmul(a, b).dtype == np.float32


EVERY_OP = {
    "matmul": lambda a, c, s: ad.matmul(a, ad.constant(a.data.T.copy())),
    "add": lambda a, c, s: ad.add(a, a),
    "add-bias": lambda a, c, s: ad.add(a, ad.gather_rows(a, [0])),
    "mul": lambda a, c, s: ad.mul(a, a),
    "affine": lambda a, c, s: ad.affine(a, mul=-2.0, add=0.5),
    "scale": lambda a, c, s: ad.scale(s, a),
    "scale-column": lambda a, c, s: ad.scale(c, a),
    "concat-rows": lambda a, c, s: ad.concat([a, a], axis=0),
    "concat-cols": lambda a, c, s: ad.concat([a, c], axis=1),
    "gather_rows": lambda a, c, s: ad.gather_rows(a, [2, 0, 2]),
    "gather_rows-empty": lambda a, c, s: ad.gather_rows(a, []),
    "sigmoid": lambda a, c, s: ad.sigmoid(a),
    "tanh": lambda a, c, s: ad.tanh(a),
    "relu": lambda a, c, s: ad.relu(a),
    "sum_all": lambda a, c, s: ad.sum_all(a),
    "mean_all": lambda a, c, s: ad.mean_all(a),
    "binary_cross_entropy": lambda a, c, s: ad.binary_cross_entropy(ad.sigmoid(c), [1, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(EVERY_OP))
@pytest.mark.parametrize("recorded", [False, True])
def test_every_op_output_is_2d_and_keeps_float32(name, recorded):
    r = rng(9)
    a = ad.parameter(r.normal(size=(3, 2)).astype(np.float32), "a")
    c = ad.parameter(r.normal(size=(3, 1)).astype(np.float32), "c")
    s = ad.parameter(r.normal(size=(1, 1)).astype(np.float32), "s")
    if recorded:
        with ad.tape() as t:
            out = EVERY_OP[name](a, c, s)
            t.backward(ad.sum_all(out))
        for p in (a, c, s):
            assert p.grad is None or (p.grad.dtype == np.float32 and p.grad.shape == p.shape), name
    else:
        out = EVERY_OP[name](a, c, s)
    assert isinstance(out.data, np.ndarray) and out.data.ndim == 2, name
    assert out.dtype == np.float32, name
    assert out.track == recorded


# ---------------------------------------------------------------------------
# optimizer


def reference_adam_step(theta, g, m, v, t, lr, b1, b2, eps):
    """Textbook Adam update on plain floats."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1 - b1**t)
    vhat = v / (1 - b2**t)
    return theta - lr * mhat / (np.sqrt(vhat) + eps), m, v


def test_adam_matches_reference_over_steps():
    p = ad.parameter([[1.0]], "w", decay=True)
    opt = ad.Adam([p], lr=0.1, l2_weight=0.01)
    theta, m, v = 1.0, 0.0, 0.0
    for t in range(1, 6):
        x = p.item()
        with ad.tape() as tp:
            tp.backward(ad.mul(p, p))  # raw grad 2x
        opt.step()
        opt.zero_grad()
        g = 2.0 * x + 0.01 * x  # decay folded into the gradient
        theta, m, v = reference_adam_step(theta, g, m, v, t, 0.1, 0.9, 0.999, 1e-8)
        assert p.item() == pytest.approx(theta, rel=1e-12)
    assert opt.step_count == 5


def test_adam_l2_lives_in_gradient_not_as_decoupled_decay():
    # With zero raw gradient the L2 term drives Adam's moments, so the first
    # step is ~lr * sign(theta).  Decoupled decay would move by lr*l2*theta.
    p = ad.parameter([[1.0]], "w", decay=True)
    opt = ad.Adam([p], lr=0.1, l2_weight=1e-4)
    opt.step()
    assert p.item() == pytest.approx(1.0 - 0.1 * (1e-4 / (1e-4 + 1e-8)), rel=1e-9)


def test_adam_skips_decay_on_unflagged_params():
    p = ad.parameter([[1.0]], "b")  # bias-style: no decay flag
    opt = ad.Adam([p], lr=0.1, l2_weight=1e-4)
    opt.step()
    assert p.item() == 1.0


def test_adam_sparse_decay_touches_only_rows_with_gradient():
    table = ad.parameter(np.ones((4, 2)), "emb", sparse_decay=True)
    opt = ad.Adam([table], lr=0.1, l2_weight=1e-2)
    with ad.tape() as t:
        t.backward(ad.sum_all(ad.gather_rows(table, [1])))
    opt.step()
    moved = np.any(table.data != 1.0, axis=1)
    np.testing.assert_array_equal(moved, [False, True, False, False])


def test_adam_zero_lr_is_identity():
    p = ad.parameter([[2.0, -3.0]], "w", decay=True)
    before = p.data.copy()
    opt = ad.Adam([p], lr=0.0)
    with ad.tape() as t:
        t.backward(ad.sum_all(ad.mul(p, p)))
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_scale_averages_accumulated_batch():
    pa = ad.parameter([[1.0]], "a")
    pb = ad.parameter([[1.0]], "b")
    examples = [0.5, 1.5, -2.0, 3.0]
    # accumulated per-example tapes with scale=1/n ...
    opt_a = ad.Adam([pa], lr=0.01, l2_weight=0.0)
    for c in examples:
        with ad.tape() as t:
            t.backward(ad.scale(ad.constant([[c]]), ad.mul(pa, pa)))
    opt_a.step(scale=1.0 / len(examples))
    # ... match one tape over the mean loss
    opt_b = ad.Adam([pb], lr=0.01, l2_weight=0.0)
    with ad.tape() as t:
        mean_c = sum(examples) / len(examples)
        t.backward(ad.scale(ad.constant([[mean_c]]), ad.mul(pb, pb)))
    opt_b.step()
    assert pa.item() == pytest.approx(pb.item(), rel=1e-12)


def test_adam_aborts_on_nan_gradient_naming_the_parameter():
    p = ad.parameter([[1.0]], "w_fishy")
    p.accumulate(np.array([[np.nan]]))
    opt = ad.Adam([p], lr=0.1)
    with pytest.raises(ad.NanGradientError, match="w_fishy"):
        opt.step()


def test_adam_requires_unique_names():
    with pytest.raises(ValueError):
        ad.Adam([ad.parameter([[1.0]], "w"), ad.parameter([[2.0]], "w")])


def test_training_is_deterministic():
    def run():
        r = rng(42)
        w = ad.parameter(r.normal(size=(3, 3)), "w", decay=True)
        x = ad.constant(r.normal(size=(2, 3)))
        opt = ad.Adam([w], lr=1e-3)
        for _ in range(5):
            with ad.tape() as t:
                t.backward(ad.mean_all(ad.tanh(ad.matmul(x, w))))
            opt.step()
            opt.zero_grad()
        return w.data.copy()

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# property tests


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_matmul_grad_matches_fd_on_random_shapes(n, k, m, seed):
    r = rng(seed)
    fd_case(
        lambda a, b: ad.mean_all(ad.matmul(a, b)),
        [r.normal(size=(n, k)), r.normal(size=(k, m))],
        tol=1e-5,
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_sigmoid_tanh_relationship(seed):
    # tanh(x) = 2*sigmoid(2x) - 1
    x = rng(seed).normal(scale=3.0, size=(1, 8))
    lhs = ad.tanh(ad.constant(x)).data
    rhs = 2.0 * ad.sigmoid(ad.constant(2.0 * x)).data - 1.0
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "model.sfpk"
    arrays = {
        "slow/emb": rng(7).normal(size=(5, 3)).astype(np.float32),
        "slow/w": np.zeros((2, 2), dtype=np.float32),
        "fast/all/b": np.array([[1.5, -2.5]], dtype=np.float32),
        "scalar": np.float32(0.25),
        "vector": np.arange(5, dtype=np.float32),
    }
    ad.save_checkpoint(path, arrays)
    loaded = ad.load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == np.shape(arrays[name])


def test_checkpoint_header_layout(tmp_path):
    path = tmp_path / "one.sfpk"
    ad.save_checkpoint(path, {"w": np.ones((1, 1), dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == b"SFPK"
    assert raw[4] == 1  # version
    assert int.from_bytes(raw[5:9], "little") == 1  # tensor count
    assert int.from_bytes(raw[9:11], "little") == 1  # name length


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.sfpk"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ad.CheckpointError):
        ad.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "pad.sfpk"
    ad.save_checkpoint(path, {"w": np.ones((1, 1), dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ad.CheckpointError):
        ad.load_checkpoint(path)


def test_checkpoint_every_truncation_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "two.sfpk"
    ad.save_checkpoint(path, {"a/w": np.ones((2, 3), np.float32), "b": np.arange(4, dtype=np.float32)})
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ad.CheckpointError):
            ad.load_checkpoint(path)


def test_checkpoint_garbled_name_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "name.sfpk"
    ad.save_checkpoint(path, {"w": np.ones((1, 1), np.float32)})
    raw = bytearray(path.read_bytes())
    raw[11] = 0xFF  # the one byte of the name
    path.write_bytes(bytes(raw))
    with pytest.raises(ad.CheckpointError, match="UTF-8"):
        ad.load_checkpoint(path)


@pytest.mark.parametrize("first, second", [(b"b", b"b"), (b"c", b"b")], ids=["repeated", "out-of-order"])
def test_checkpoint_names_must_be_unique_and_sorted(tmp_path, first, second):
    path = tmp_path / "names.sfpk"
    ad.save_checkpoint(path, {"a": np.ones((1, 1), np.float32), "b": np.zeros((1, 1), np.float32)})
    raw = bytearray(path.read_bytes())
    first_at, second_at = raw.index(b"a", 9), raw.rindex(b"b")  # the two one-byte names
    raw[first_at : first_at + 1], raw[second_at : second_at + 1] = first, second
    path.write_bytes(bytes(raw))
    with pytest.raises(ad.CheckpointError, match="repeated or out of order"):
        ad.load_checkpoint(path)


def test_checkpoint_name_too_long_for_its_length_field_keeps_the_old_file(tmp_path):
    path = tmp_path / "long.sfpk"
    ad.save_checkpoint(path, {"w": np.ones((1, 1), np.float32)})
    before = path.read_bytes()
    with pytest.raises(ad.CheckpointError, match="65535"):
        ad.save_checkpoint(path, {"w": np.zeros((1, 1), np.float32), "n" * 70_000: np.zeros(1)})
    assert path.read_bytes() == before
