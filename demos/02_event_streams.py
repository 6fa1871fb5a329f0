"""The temporal graph data layer: synthetic interaction streams, the
chronological split with inductive masking, strictly-causal neighbor
queries, third-hop candidates, and train-set sparsification."""

import numpy as np

from tgsl import graph as tg
from tgsl.structure import sample_candidates

# --- a bipartite community store --------------------------------------------
store = tg.synth_generate(n_communities=2, n_users=50, n_items=50,
                          n_events=2000, noise_rate=0.1, seed=7)
print(f"{len(store)} events over {store.num_nodes} nodes, "
      f"edge features {store.edge_features.shape}")
cross = np.mean(store.src % 2 != (store.dst - store.num_users) % 2)
print(f"cross-community fraction: {cross:.3f} (generator noise was 0.1)")

# --- chronological 70/15/15 split, 10% inductive node mask -------------------
split = tg.chronological_split(store, mask_frac=0.1, seed=1)
print(f"train {split.train_range}, val {split.val_range}, "
      f"test {split.test_range}, t_max_train = {split.t_max_train}")
print(f"{len(split.masked_nodes)} masked nodes; "
      f"{len(split.usable_train_ids)} usable train events "
      f"(events touching masked nodes removed)")

# --- neighbor queries are strictly 'before t' --------------------------------
index = tg.NeighborIndex.build(store, split.usable_train_ids)
node = int(store.src[100])
nbrs, eids, times = index.neighbors_before(node, t=500.0, n=5)
print(f"node {node}, five most recent neighbors before t=500:",
      list(zip(nbrs.tolist(), times.tolist())))

# --- third-hop walks find similar-taste destinations -------------------------
# Each hop draws, per frontier row, distinct neighbors from one permutation
# of its history and drops nodes the source already visited.
cands = sample_candidates(np.array([node]), "third-hop", index, n_can=5,
                          seed=3, t_ref=500.0, t_max=split.t_max_train,
                          fanouts=(5, 3, 3))
print("3-hop endpoints (with the borrowed final-hop edge):",
      list(zip(cands.dst.tolist(), cands.feat_eid.tolist())))

# --- sparsification keeps every N-th training event --------------------------
thin, thin_split = tg.sparsify(store, 4, mask_frac=0.1, seed=1)
print(f"sparsify N=4: {thin_split.train_range[1]} of "
      f"{split.train_range[1]} train events kept; "
      f"val/test untouched: "
      f"{np.array_equal(thin.ts[thin_split.val_range[0]:], store.ts[split.val_range[0]:])}")
