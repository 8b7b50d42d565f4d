"""One graph per training segment: a run of consecutive contexts, of one user
or of several, goes through each model in one forward and backward, and
equals the sum of the contexts run one at a time."""

import functools

import numpy as np
import pytest

from sfrec import autodiff as ad
from sfrec import layers as ly
from sfrec.config import ExperimentConfig
from sfrec.fast import DeviceSession, FastModel
from sfrec.harness import _SeedRun, prepare_data
from sfrec.slow import SlowModel

N_ITEMS, DIM = 16, 3
HISTORY = [1, 5, 3, 2, 9, 11, 4, 12]
# (position, candidates, labels): each slow context sees the 3 history items
# before its position, so the windows slide along the shared history
SLOW_CONTEXTS = [(3, [2, 7], [1, 0]), (4, [9, 14], [1, 0]), (6, [4, 13, 15], [1, 0, 0]), (8, [0], [1])]
SLOW_SPAN = 3
CLICKED = [1, 5, 3, 2]
EXPOSED = [8, 6, 7, 4, 9]
# (clicks, exposures, candidates, labels): windows are prefixes of the longest
FAST_CONTEXTS = [(1, 0, [2, 10], [1, 0]), (2, 2, [11, 12], [1, 0]), (3, 5, [0], [1]), (4, 5, [13, 14, 15], [1, 0, 0])]
# a second user, whose contexts follow the first's in a two-user segment: a
# shorter history, click and exposure windows, and other prefix lengths
HISTORY_2 = [7, 0, 14, 6, 10]
SLOW_CONTEXTS_2 = [(3, [6, 3], [1, 0]), (5, [10], [1])]
CLICKED_2 = [12, 0, 9]
EXPOSED_2 = [3, 11]
FAST_CONTEXTS_2 = [(2, 1, [9, 4], [1, 0]), (3, 2, [5], [1])]


def slow_wiring(interactive, users):
    """A slow model, the loss of the first ``users`` users' SLOW_CONTEXTS as one
    segment over their histories back to back, and one loss per context."""
    m = SlowModel(N_ITEMS, DIM, np.random.default_rng(1), interactive=interactive, head_hidden=(6, 4))
    memories = np.random.default_rng(2).normal(scale=0.3, size=(2, 1, DIM))
    parts = [(HISTORY, SLOW_CONTEXTS, memories[0]), (HISTORY_2, SLOW_CONTEXTS_2, memories[1])][:users]
    history, candidates, labels, windows, memory, singles = [], [], [], [], [], []
    for seq, contexts, mem in parts:
        kwargs = {"neg_memory": mem} if interactive else {}
        for j, cands, labs in contexts:
            candidates += cands
            labels += labs
            windows += [(len(history) + j - SLOW_SPAN, len(history) + j)] * len(cands)
            memory += [mem] * len(cands)
            singles.append(lambda seq=seq, j=j, c=cands, l=labs, kw=kwargs: m.loss(seq[j - SLOW_SPAN : j], c, l, **kw))
        history += seq
    kwargs = {"neg_memory": np.concatenate(memory)} if interactive else {}

    def segment():
        return m.loss(history, candidates, labels, windows=windows, **kwargs)

    return m, segment, singles


def fast_wiring(interactive, users):
    """A fast model, the loss of the first ``users`` users' FAST_CONTEXTS as one
    segment, one row per user, and one loss per context."""
    table = np.random.default_rng(4).normal(scale=0.3, size=(N_ITEMS, DIM))
    m = FastModel(
        N_ITEMS, DIM, np.random.default_rng(3), interactive=interactive, fetch=lambda idx: table[idx], head_hidden=(6, 4)
    )
    r = np.random.default_rng(5)
    priors = [{"r_n": r.normal(size=(1, DIM)), "r_t": r.normal(size=(1, DIM))} for _ in range(2)][:users]
    rows = [(CLICKED, EXPOSED, FAST_CONTEXTS), (CLICKED_2, EXPOSED_2, FAST_CONTEXTS_2)][:users]
    candidates, labels, prefixes, singles = [], [], [], []
    for row, ((clicked, exposed, contexts), prior) in enumerate(zip(rows, priors)):
        kwargs = {"prior": prior} if interactive else {}
        for nc, ne, cands, labs in contexts:
            candidates += cands
            labels += labs
            prefixes += [(row, nc, ne)] * len(cands)
            singles.append(
                lambda w=(clicked[:nc], exposed[:ne]), c=cands, l=labs, kw=kwargs: m.loss(*w, c, l, **kw)
            )
    clicked, exposed = [row[0] for row in rows], [row[1] for row in rows]

    def segment():
        return m.loss(clicked, exposed, candidates, labels, prior=priors, prefixes=prefixes)

    return m, segment, singles


WIRINGS = {
    f"{model}-{wiring}{tag}": functools.partial(build, wiring == "interactive", users)
    for model, build in (("slow", slow_wiring), ("fast", fast_wiring))
    for wiring in ("plain", "interactive")
    for users, tag in ((1, ""), (2, "-two-users"))
}


def loss_and_grads(model, loss_fn):
    for p in model.params():
        p.zero_grad()
    with ad.tape() as t:
        loss = loss_fn()
        t.backward(loss)
    grads = {p.name: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in model.params()}
    return loss.item(), grads


@pytest.mark.parametrize("wiring", sorted(WIRINGS))
def test_segment_loss_and_gradients_equal_sums_over_single_contexts(wiring):
    model, segment, singles = WIRINGS[wiring]()
    total, grads = loss_and_grads(model, segment)
    want_total = 0.0
    want = {name: np.zeros_like(g) for name, g in grads.items()}
    for single in singles:
        one, one_grads = loss_and_grads(model, single)
        want_total += one
        for name, g in one_grads.items():
            want[name] += g
    assert total == pytest.approx(want_total, rel=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, want[name], rtol=1e-12, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("wiring", sorted(WIRINGS))
def test_segment_graph_passes_gradient_check(wiring):
    model, segment, _ = WIRINGS[wiring]()
    report = ad.grad_check(segment, model.params(), tolerance=1e-3)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# masked attention


def attention_parts(seed):
    r = np.random.default_rng(seed)
    unit = ly.Mlp([4 * DIM, 5, 1], r, name="att")
    return unit, r.normal(size=(6, DIM)), r.normal(size=(4, DIM))


WINDOWS = [(0, 2), (1, 4), (3, 6), (0, 6)]


def test_masked_attention_equals_attention_over_each_window():
    unit, hist, targets = attention_parts(60)
    pooled = ly.din_attention(unit, ad.constant(hist), ad.constant(targets), WINDOWS).data
    for i, (start, end) in enumerate(WINDOWS):
        alone = ly.din_attention(unit, ad.constant(hist[start:end]), ad.constant(targets[i : i + 1])).data
        np.testing.assert_allclose(pooled[i : i + 1], alone, rtol=1e-12)


def test_masked_attention_passes_gradient_check():
    unit, hist, targets = attention_parts(61)
    hist = ad.parameter(hist, "hist")
    targets = ad.parameter(targets, "targets")
    probe = ad.constant(np.random.default_rng(62).normal(size=(DIM, 1)))

    def loss_fn():
        return ad.sum_all(ad.matmul(ly.din_attention(unit, hist, targets, WINDOWS), probe))

    report = ad.grad_check(loss_fn, [hist, targets, *unit.params()], tolerance=1e-4)
    assert report.passed, str(report)


@pytest.mark.parametrize("windows", [[(0, 2)] * 3, [(0, 2), (1, 1), (0, 6)], [(0, 2), (-1, 3), (0, 6), (2, 7)]])
def test_attention_rejects_malformed_windows(windows):
    unit, hist, targets = attention_parts(63)
    with pytest.raises(ad.ShapeError):
        ly.din_attention(unit, ad.constant(hist), ad.constant(targets), windows)


def test_gru_prefix_states_equal_separate_encodes():
    r = np.random.default_rng(64)
    cell = ly.GruCell(DIM, DIM, r)
    seq, init = ad.constant(r.normal(size=(5, DIM))), ad.constant(r.normal(size=(1, DIM)))
    lengths = [3, 0, 5, 3, 1]
    states = ly.gru_encode(cell, seq, init, [(0, k) for k in lengths])
    assert states.shape == (5, DIM)
    for row, k in enumerate(lengths):
        alone = ly.gru_encode(cell, ad.constant(seq.data[:k]), init)
        np.testing.assert_array_equal(states.data[row : row + 1], alone.data)
    for reads in ([(0, 2), (0, 6)], [(1, 2)], [(0, -1)]):
        with pytest.raises(ad.ShapeError):
            ly.gru_encode(cell, seq, init, reads)


# three windows of 4, 2 and 3 rows, and reads of each at its own prefix lengths
STACK_LENGTHS = [4, 2, 3]
STACK_READS = [(0, 4), (1, 2), (2, 1), (0, 0), (1, 1), (2, 3), (0, 2), (2, 3)]


def stacked_windows(seed):
    """A cell, the windows, their (T * 3, d) padded stack and their (3, d) init rows."""
    r = np.random.default_rng(seed)
    cell = ly.GruCell(DIM, DIM, r)
    windows = [r.normal(size=(k, DIM)) for k in STACK_LENGTHS]
    stack = np.zeros((max(STACK_LENGTHS), len(windows), DIM))
    for row, window in enumerate(windows):
        stack[: len(window), row] = window
    return cell, windows, stack.reshape(-1, DIM), r.normal(size=(len(windows), DIM))


def test_a_padded_stack_of_windows_reads_and_backpropagates_as_separate_nodes():
    cell, windows, stack, init = stacked_windows(65)
    probe = np.random.default_rng(66).normal(size=(len(STACK_READS), DIM))

    def run(build):
        for p in cell.params():
            p.zero_grad()
        inits = ad.parameter(init, "init")
        with ad.tape() as t:
            states = build(inits)
            t.backward(ad.sum_all(ad.mul(states, ad.constant(probe))))
        return states.data, inits.grad, {p.name: p.grad.copy() for p in cell.params()}

    def separate(inits):
        reads = []
        for row, k in STACK_READS:
            init_row = ad.gather_rows(inits, np.array([row]))
            reads.append(ly.gru_encode(cell, ad.constant(windows[row]), init_row, [(0, k)]))
        return ad.concat(reads, axis=0)

    states, init_grad, grads = run(lambda inits: ly.gru_encode(cell, ad.constant(stack), inits, STACK_READS))
    want_states, want_init_grad, want = run(separate)
    np.testing.assert_allclose(states, want_states, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(init_grad, want_init_grad, rtol=1e-12, atol=1e-15)
    for name, g in grads.items():
        np.testing.assert_allclose(g, want[name], rtol=1e-12, atol=1e-15, err_msg=name)


def test_a_padded_stack_of_windows_passes_gradient_check():
    cell, _, stack, init = stacked_windows(67)
    init = ad.parameter(init, "init")
    probe = ad.constant(np.random.default_rng(68).normal(size=(len(STACK_READS), DIM)))

    def loss_fn():
        return ad.sum_all(ad.mul(ly.gru_encode(cell, ad.constant(stack), init, STACK_READS), probe))

    report = ad.grad_check(loss_fn, [init, *cell.params()], tolerance=1e-4)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# the harness trains the same parameters as one tape per context


def float64_config(**overrides):
    base = dict(
        data_format="cluster", dim=4, lr=5e-3, batch_size=6, slow_epochs=1, fast_epochs=2, patience=0,
        seeds=1, n_eval_neg=5, max_users=6, max_positions_per_user=5, precision="float64", record_timing=False,
    )
    cfg = ExperimentConfig(**{**base, **overrides})
    cfg.validate()
    return cfg


def slow_context_loss(run, user, ctx):
    window = run._window(run.split.users[user].slow[: ctx.position])
    return run.slow.loss(window, ctx.candidates, ctx.labels, neg_memory=run._memory(user))


def reference_train_slow(run):
    """One slow epoch (no early stopping to undo), one tape per context."""
    order = run.epoch_rng.permutation(run.users)
    contexts = []
    for user in order:
        user = int(user)
        seq = run.split.users[user].slow
        trainable = np.arange(1, len(seq) - 1)
        if trainable.size > run.config.max_positions_per_user:
            trainable = np.sort(run.epoch_rng.choice(trainable, size=run.config.max_positions_per_user, replace=False))
        contexts += [(user, c) for c in run._slow_user_contexts(user, trainable.tolist())]
    pending = 0
    for user, c in contexts:
        with ad.tape() as t:
            t.backward(slow_context_loss(run, user, c))
        pending += len(c.candidates)
        if pending >= run.config.batch_size:
            run.opt_slow.step(scale=1.0 / pending)
            run.opt_slow.zero_grad()
            pending = 0
    if pending:
        run.opt_slow.step(scale=1.0 / pending)
        run.opt_slow.zero_grad()


def reference_refresh(run, user):
    seq = run.split.users[user].slow
    trainable = np.arange(1, len(seq))
    if trainable.size > run.config.max_positions_per_user:
        trainable = np.sort(run.epoch_rng.choice(trainable, size=run.config.max_positions_per_user, replace=False))
    run.opt_slow.zero_grad()
    count = 0
    for c in run._slow_user_contexts(user, trainable.tolist()):
        with ad.tape() as t:
            t.backward(slow_context_loss(run, user, c))
        count += len(c.candidates)
    run.opt_slow.step(scale=1.0 / count)
    run.opt_slow.zero_grad()
    run.counts["refreshes"] += 1


def reference_serve_and_train_fast(run):
    """Serving on the first epoch, one tape per device context, and per-context refreshes."""
    run._refresh_slow = lambda user: reference_refresh(run, user)
    for epoch in range(run.config.fast_epochs):
        order = run.epoch_rng.permutation(run.users) if epoch else list(run.users)
        pending = 0
        for user in order:
            user = int(user)
            session = DeviceSession(run.fast)
            for j, item in enumerate(run.split.users[user].fast):
                if epoch == 0:
                    run._serve_event(user, j, session, run.scheduler.tick(user) if run.slow.interactive else 0)
                if j == 0:
                    continue
                clicked, exposed = run._fast_contexts(user, j)
                negs = [int(n) for n in run.sampler.draw(user, "fast", j, run.config.n_train_neg)]
                candidates, labels = [item] + negs, [1] + [0] * len(negs)
                with ad.tape() as t:
                    t.backward(run.fast.loss(clicked, exposed, candidates, labels, prior=run.priors.get(user)))
                pending += len(candidates)
                if pending >= run.config.batch_size:
                    run.opt_fast.step(scale=1.0 / pending)
                    run.opt_fast.zero_grad()
                    pending = 0
        if pending:
            run.opt_fast.step(scale=1.0 / pending)
            run.opt_fast.zero_grad()


def assert_same_parameters(got, want):
    for model in ("slow", "fast"):
        for p, q in zip(getattr(got, model).params(), getattr(want, model).params()):
            np.testing.assert_allclose(p.data, q.data, rtol=1e-9, atol=1e-12, err_msg=p.name)


def spy_segment_users(run):
    """Record, per phase, how many users each training segment of ``run`` holds."""
    held = {"slow": [], "fast": []}
    for phase in held:
        real = getattr(run, f"_{phase}_segment_loss")

        def spied(segment, real=real, phase=phase):
            held[phase].append(len({user for user, _ in segment}))
            return real(segment)

        setattr(run, f"_{phase}_segment_loss", spied)
    return held


@pytest.mark.parametrize("variant", ["independent", "f2s", "s2f_full"])
@pytest.mark.parametrize(
    "overrides",
    [{"threshold": 2}, {"max_history_len": 3}, {"batch_size": 24}],
    ids=["mid-sequence-uploads", "sliding-windows-with-gaps", "segments-of-three-users"],
)
def test_segmented_training_matches_one_tape_per_context(variant, overrides):
    cfg = float64_config(variant=variant, **overrides)
    prepared = prepare_data(cfg)
    run, ref = _SeedRun(cfg, 0, *prepared), _SeedRun(cfg, 0, *prepared)
    held = spy_segment_users(run)
    run.train_slow()
    reference_train_slow(ref)
    assert run.opt_slow.step_count == ref.opt_slow.step_count
    assert_same_parameters(run, ref)
    if variant == "s2f_full":
        for user in run.users:
            run._download(user, round_no=0)
            ref._download(user, round_no=0)
    run.serve_and_train_fast()
    reference_serve_and_train_fast(ref)
    assert (run.opt_slow.step_count, run.opt_fast.step_count) == (ref.opt_slow.step_count, ref.opt_fast.step_count)
    assert run.counts == ref.counts
    assert run.exposure_log == ref.exposure_log
    assert_same_parameters(run, ref)
    if cfg.batch_size == 24:  # a step's 24 examples span several users' contexts in both models
        assert max(held["slow"]) >= 3 and max(held["fast"]) >= 3, held
