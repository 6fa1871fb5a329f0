"""The structure learner end to end: edge-centric message passing over the
visible window, LSTM context embeddings, candidate construction under the
three sampling strategies, time mapping, Gumbel-Top-K selection, and the
resulting augmented view the encoder consumes."""

import numpy as np

from tgsl import autodiff as ad
from tgsl.encoder import EncoderParams, TgatEncoder, time_frequencies
from tgsl.graph import NeighborIndex, chronological_split, synth_generate
from tgsl.structure import StructureLearner, TgslParams, visible_window
from tgsl.training import RunConfig

store = synth_generate(2, 40, 40, 2500, 0.1, seed=11)
split = chronological_split(store, mask_frac=0.1, seed=0)
index = NeighborIndex.build(store, split.usable_train_ids)
tgsl_params = TgslParams(16, store.node_dim, store.edge_dim, layers=2, seed=1)
# the ET-GNN's time encodings and the time map's contexts use the
# frequencies of the model width, the same ones the encoder uses
omega = time_frequencies(tgsl_params.d_model)
print(f"time frequencies at d={len(omega)}: {omega[0]:.3g} .. {omega[-1]:.3g}")

batch = split.usable_train_ids[600:680]
sources = np.unique(np.concatenate([store.src[batch], store.dst[batch]]))
t0 = float(store.ts[batch[0]])
print(f"batch of {len(batch)} events, {len(sources)} source nodes, "
      f"window closes at t={t0}")

# every query of the batch runs on the index cut before its first event
cut = index.prefix(int(batch[0]))
win = visible_window(cut, sources, t0, levels=2)
print(f"visible window: {len(win)} events strictly before the batch")

train_nodes = np.unique(np.concatenate(
    [store.src[split.usable_train_ids], store.dst[split.usable_train_ids]]))

for strategy in ("one-hop", "third-hop", "random"):
    run_cfg = RunConfig(strategy=strategy, k=4, n_can=8, n_rnn=6)
    learner = StructureLearner(tgsl_params, store, run_cfg, train_nodes)
    with ad.Tape() as tape:
        view, detail = learner.propose(cut, sources, t_ref=t0,
                                       t_max=split.t_max_train, seed=5,
                                       view_base=cut, mode="stochastic")
        cands = detail["candidates"]
        rho = detail["rho"]
        print(f"\n{strategy}: {len(cands)} candidates -> "
              f"{view.num_added} edges added "
              f"(rho in [{rho.values.min():.3f}, {rho.values.max():.3f}])")
        # the relaxed selection weight keeps the whole pipeline trainable
        learned = learner.parameters()      # the tensors that reach rho
        if learned:
            tape.backward(ad.sum_(view.rho))
    if not learned:
        # random candidates borrow no edge row, so their score is 0 and
        # rho is the squashed noise alone: the ET-GNN and the LSTM do not
        # run, and no gradient could reach them
        print("  gradient mass reaching the learner parameters: none "
              "(the learner does not run under random)")
        continue
    gsum = sum(float(np.abs(p.grad).sum()) for p in learned)
    print(f"  gradient mass reaching the learner parameters: {gsum:.3f}")
    for p in learned:
        p.zero_grad()

# --- the encoder sees added edges as weighted neighbors ----------------------
enc_params = EncoderParams(16, layers=1, heads=2, d_hidden=24, seed=2)
enc = TgatEncoder(enc_params, store, n_nb=10)
learner = StructureLearner(tgsl_params, store,
                           RunConfig(strategy="one-hop", k=4, n_can=8, n_rnn=6))
view, _ = learner.propose(cut, sources, t_ref=t0, t_max=split.t_max_train,
                          seed=5, view_base=cut, mode="noise-free")
plain = enc.encode_batch(cut, sources[:6], np.full(6, t0))
augmented = enc.encode_batch(view, sources[:6], np.full(6, t0))
delta = np.abs(plain.values - augmented.values).max(axis=1)
print("\nmax embedding shift caused by the added edges per node:",
      np.round(delta, 4))
