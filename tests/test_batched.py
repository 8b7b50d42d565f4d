"""One graph per training context: every model wiring scores its candidates
in one batched forward, and the batched loss and gradients equal the sums of
the single-candidate ones."""

import numpy as np
import pytest

from sfrec import autodiff as ad
from sfrec.fast import FastModel
from sfrec.slow import SlowModel

N_ITEMS, DIM = 10, 3
CANDIDATES = [4, 7, 9, 2]
LABELS = [1, 0, 0, 1]


def slow_wiring(interactive):
    m = SlowModel(N_ITEMS, DIM, np.random.default_rng(1), interactive=interactive, head_hidden=(6, 4))
    memory = np.random.default_rng(2).normal(scale=0.3, size=(1, DIM))
    kwargs = {"neg_memory": memory} if interactive else {}
    return m, lambda cands, labels: m.loss([1, 5, 3, 2], cands, labels, **kwargs)


def fast_wiring(interactive):
    table = np.random.default_rng(4).normal(scale=0.3, size=(N_ITEMS, DIM))
    m = FastModel(
        N_ITEMS, DIM, np.random.default_rng(3), interactive=interactive, fetch=lambda idx: table[idx], head_hidden=(6, 4)
    )
    r = np.random.default_rng(5)
    kwargs = {"prior": {"r_n": r.normal(size=(1, DIM)), "r_t": r.normal(size=(1, DIM))}} if interactive else {}
    return m, lambda cands, labels: m.loss([1, 5, 3], [8, 6], cands, labels, **kwargs)


WIRINGS = {
    "slow-plain": lambda: slow_wiring(False),
    "slow-interactive": lambda: slow_wiring(True),
    "fast-plain": lambda: fast_wiring(False),
    "fast-interactive": lambda: fast_wiring(True),
}


def loss_and_grads(model, loss_fn, cands, labels):
    for p in model.params():
        p.zero_grad()
    with ad.tape() as t:
        loss = loss_fn(cands, labels)
        t.backward(loss)
    grads = {p.name: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in model.params()}
    return loss.item(), grads


@pytest.mark.parametrize("wiring", sorted(WIRINGS))
def test_batched_loss_and_gradients_equal_sums_over_single_candidates(wiring):
    model, loss_fn = WIRINGS[wiring]()
    batched, batched_grads = loss_and_grads(model, loss_fn, CANDIDATES, LABELS)
    total = 0.0
    summed = {name: np.zeros_like(g) for name, g in batched_grads.items()}
    for cand, label in zip(CANDIDATES, LABELS):
        one, grads = loss_and_grads(model, loss_fn, [cand], [label])
        total += one
        for name, g in grads.items():
            summed[name] += g
    assert batched == pytest.approx(total, rel=1e-12)
    for name, g in batched_grads.items():
        np.testing.assert_allclose(g, summed[name], rtol=1e-9, atol=1e-13, err_msg=name)


@pytest.mark.parametrize("wiring", sorted(WIRINGS))
def test_batched_graph_passes_gradient_check(wiring):
    model, loss_fn = WIRINGS[wiring]()
    report = ad.grad_check(lambda: loss_fn(CANDIDATES, LABELS), model.params(), tolerance=1e-3)
    assert report.passed, str(report)

