"""A tour of the tape-based autodiff core.

Everything in this package runs on 2-D row-major tensors: a vector is a
(1, d) row, a scalar is (1, 1).  Gradients come from a Tape context that
records operations in execution order and replays them backwards.  This
script builds a few graphs by hand, checks one gradient against central
finite differences, and fits a toy regression with the Adam optimizer.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

import sfrec.autodiff as ad


def section(title):
    print(f"\n--- {title} ---")


section("scalars and the tape")
x = ad.parameter(np.array([[3.0]]), "x")
with ad.tape() as t:
    y = ad.mul(x, x)  # y = x^2
    t.backward(y)
print(f"d(x^2)/dx at x=3 is {x.grad[0, 0]:.1f} (expected 6.0)")
x.zero_grad()

section("a reused node accumulates gradient")
with ad.tape() as t:
    y = ad.add(ad.mul(x, x), x)  # x^2 + x, x appears twice
    t.backward(y)
print(f"d(x^2 + x)/dx at x=3 is {x.grad[0, 0]:.1f} (expected 7.0)")

section("no active tape means no graph")
z = ad.sigmoid(ad.constant(np.zeros((1, 3))))
print(f"sigmoid(0) outside a tape is {z.data.round(2)} and records nothing")

section("checking a gradient against finite differences")
rng = np.random.default_rng(0)
w = ad.parameter(rng.normal(size=(4, 2)), "w")
features = ad.constant(rng.normal(size=(1, 4)))


def loss_fn():
    return ad.sum_all(ad.sigmoid(ad.matmul(features, w)))


report = ad.grad_check(loss_fn, [w], tolerance=1e-6)
print(report)

section("fitting y = 2x - 1 with Adam")
true_w, true_b = 2.0, -1.0
w = ad.parameter(np.zeros((1, 1)), "w", decay=True)
b = ad.parameter(np.zeros((1, 1)), "b")
opt = ad.Adam([w, b], lr=0.05, l2_weight=0.0)
xs = rng.uniform(-1, 1, size=32)
for step in range(200):
    total = 0.0
    for xv in xs:
        with ad.tape() as t:
            pred = ad.add(ad.affine(w, mul=float(xv), add=0.0), b)
            err = ad.affine(pred, mul=1.0, add=-(true_w * xv + true_b))
            sq = ad.mul(err, err)
            t.backward(sq)
        total += sq.item()
    opt.step(scale=1 / len(xs))
    opt.zero_grad()
    if step % 50 == 0:
        print(f"step {step:3d}: mse={total / len(xs):.5f} w={w.data[0, 0]:+.3f} b={b.data[0, 0]:+.3f}")
print(f"final: w={w.data[0, 0]:+.4f} (true {true_w}), b={b.data[0, 0]:+.4f} (true {true_b})")
