"""Fixed cosine time encodings, the time-context projection vector, and the
temporal attention encoder with its link-scoring head."""

import numpy as np

from tgsl import autodiff as ad
from tgsl.encoder import (EncoderParams, TgatEncoder, time_context,
                          time_encode, time_frequencies)
from tgsl.graph import NeighborIndex, synth_generate

# the frequencies depend on the width d alone: every consumer passes d
d = 16
omega = time_frequencies(d)
print(f"omega spans {omega[0]:.3g} .. {omega[-1]:.3g} "
      f"(omega_i = sqrt(d)^(-i / sqrt(d)), sqrt(d) = {np.sqrt(d)})")

# TE(0) is all ones; components always stay in [-1, 1]
print("TE(0)      :", time_encode(0.0, d)[:4], "...")
print("TE(1234.5) :", np.round(time_encode(1234.5, d)[:4], 3), "...")

# s(0) is the identity mapping; s(-x) mirrors s(x) around 1
print("s(0)       :", time_context(0.0, d)[:4], "...")
print("s(+3) + s(-3) - 2 =", np.abs(time_context(3.0, d)
                                    + time_context(-3.0, d) - 2).max())

# --- encode nodes at a query time -------------------------------------------
store = synth_generate(2, 30, 30, 1500, 0.1, seed=4)
index = NeighborIndex.build(store)
params = EncoderParams(d_model=d, layers=2, heads=2, d_hidden=32, seed=0)
enc = TgatEncoder(params, store, n_nb=10)   # time encodings d_model wide

nodes = np.array([0, 1, 2, 30, 31])
t = 1200.0
emb = enc.encode_batch(index, nodes, np.full(5, t))
print(f"\nembeddings at t={t}: shape {emb.shape}")

# the embedding of a node depends only on events strictly before t:
# perturbing later events cannot change it (see tests for the proof)

# --- link scores come from a small feed-forward head -------------------------
scores = enc.score_batch(ad.narrow(emb, 0, 0, 2), ad.narrow(emb, 0, 2, 2))
print("pair scores (untrained, near 0.5):", np.round(scores.values, 3))

# scoring is batched too: one row per (u, v) pair at the same time
pair = enc.encode_batch(index, np.array([0, 30]), np.full(2, t))
single = enc.score_batch(ad.narrow(pair, 0, 0, 1), ad.narrow(pair, 0, 1, 1))
print(f"single-pair score node 0 -> 30 at t={t}: {single.values[0]:.4f}")
