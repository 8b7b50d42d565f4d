"""The building blocks of the two recommenders, one at a time.

The cloud-side model pools a long click history with target-aware attention;
the device-side model runs two small GRUs (clicks and exposures) and blends
them per candidate.  This script walks through each block with tiny shapes,
then runs each full model's one ``forward`` (a plain model takes the same
call and ignores the exchange input) and round-trips a checkpoint.

Run:  python3 demos/02_model_components.py
"""

import os
import tempfile

import numpy as np

import sfrec.autodiff as ad
import sfrec.layers as ly
from sfrec.fast import FastModel
from sfrec.slow import SlowModel


def section(title):
    print(f"\n--- {title} ---")


dim = 8
rng = np.random.default_rng(0)

section("embedding table")
emb = ly.EmbeddingTable(20, dim, rng, name="emb")
rows = emb.lookup([3, 7, 3])
print(f"lookup of ids [3, 7, 3] gives shape {rows.shape}; rows 0 and 2 equal:",
      bool(np.array_equal(rows.data[0], rows.data[2])))

section("GRU step and sequence encoding")
gru = ly.GruCell(dim, dim, rng, name="gru")
h = ad.constant(np.zeros((1, dim)))
x = emb.lookup([3])
h1 = gru.step(x, h)
print(f"one step maps (1,{dim}) x (1,{dim}) -> {h1.shape}, values in (-1, 1):",
      bool(np.all(np.abs(h1.data) < 1)))
seq = ly.gru_encode(gru, emb.lookup([3, 7, 5]), ad.constant(np.zeros((1, dim))))
print(f"folding a 3-item sequence gives {seq.shape}")

section("attention pooling (weights are not normalized)")
att = ly.Mlp([4 * dim, 6, 1], rng, name="att")  # the attention unit: pair features (4d wide) to one weight
history = emb.lookup([1, 2, 3, 4])
target = emb.lookup([9])
pooled = ly.din_attention(att, history, target)
print(f"4 history rows, one weight each -> pooled {pooled.shape} (no softmax; the weights' sum is free)")

section("target-aware fusion blends two interest vectors")
fuse = ly.Mlp([2 * dim, 6, 1], rng, name="fuse")
r1 = ad.constant(rng.normal(size=(1, dim)))
r2 = ad.constant(rng.normal(size=(1, dim)))
blended = ly.target_aware_fusion(r1, r2, target, fuse)
print(f"blend of two (1,{dim}) vectors -> {blended.shape}")

section("cloud model forward")
slow = SlowModel(50, dim, np.random.default_rng(1), interactive=True, head_hidden=(16, 8))
memory = np.zeros((1, dim))
prob = slow.forward([4, 9, 11, 2], [7, 12], neg_memory=memory)
print(f"p(click) for candidates 7, 12: {prob.data.ravel().round(4)} (one graph for both)")
interest = slow.export_interest([4, 9, 11, 2], neg_memory=memory)  # the encoder alone, no head
print(f"the INTEREST_DOWN payload for the latest click, item 2, has r_n={interest['r_n'][0].round(3)}")
plain = SlowModel(50, dim, np.random.default_rng(1), interactive=False, head_hidden=(16, 8))
ignored = np.array_equal(plain.forward([4, 9, 11, 2], [7, 12], neg_memory=memory).data,
                         plain.forward([4, 9, 11, 2], [7, 12]).data)
print(f"a plain model takes the same call and ignores the memory: {ignored}")

section("device model forward (each read syncs its rows from the cloud table)")
fast = FastModel(50, dim, np.random.default_rng(2), interactive=True,
                 fetch=slow.embedding.lookup_np, head_hidden=(16, 8))  # device rows come from the cloud table
prior = interest  # the device's prior is the downloaded payload itself
out = fast.forward(clicked=[4, 9], exposed=[13, 30], candidates=[7, 12], prior=prior)
print(f"p(click)={out.data.ravel().round(4)} from one read of 6 rows, synced as it read them;"
      " both GRUs ran once for the two candidates")
# a training segment: two contexts in one graph, the first seeing one click
# and one exposure, the second both; each GRU still runs once
seg = fast.forward([4, 9], [13, 30], [7, 12], prior=prior, prefixes=[(1, 1), (2, 2)])
print(f"as a segment of two contexts: p(click)={seg.data.ravel().round(4)};"
      f" the first candidate read the states after 1 click and 1 exposure")

section("checkpoint round trip")
path = os.path.join(tempfile.mkdtemp(), "demo.ckpt")
ad.save_checkpoint(path, {p.name: p.data for p in slow.params()})
loaded = ad.load_checkpoint(path)
same = all(np.allclose(loaded[p.name], p.data, atol=1e-6) for p in slow.params())
print(f"saved {len(loaded)} tensors to {path}; float32 round trip close: {same}")
