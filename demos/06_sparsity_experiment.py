"""Miniature sparsity study: thin the training interactions (keep one event
in every N), retrain both models, and watch the gap between the structure
learner and the plain encoder widen as the graph gets sparser. A full-size
version of this experiment runs in the acceptance suite."""

from tgsl.graph import sparsify, synth_generate
from tgsl.training import RunConfig, Trainer

store = synth_generate(2, 200, 200, 10_000, 0.1, seed=42)
EPOCHS = {1: 4, 2: 8, 4: 16}     # roughly constant optimizer steps


def run(n_sparse, use_tgsl, seed=0):
    thin, thin_split = sparsify(store, n_sparse, mask_frac=0.1, seed=42)
    cfg = RunConfig(batch_size=100, lr=1e-2, max_epochs=EPOCHS[n_sparse],
                    n_nb=20, alpha=0.0, strategy="one-hop", k=8, n_can=16,
                    n_rnn=10, d_model=16, layers=1, heads=2, d_hidden=32,
                    etgnn_layers=1, use_tgsl=use_tgsl)
    tr = Trainer(thin, thin_split, cfg, seed)
    tr.fit(early_stop=False, val_limit=500)
    return tr.evaluate("transductive", "test").ap, thin_split.train_range[1]


print(f"{'N':>3} {'kept':>6} {'encoder':>8} {'with-tgsl':>9} {'gap':>8}")
for n in (1, 2, 4):
    base, kept = run(n, use_tgsl=False)
    tgsl, _ = run(n, use_tgsl=True)
    print(f"{n:>3} {kept:>6} {base:>8.4f} {tgsl:>9.4f} {tgsl - base:>+8.4f}")

print("\nsparser training data (larger N) leaves more for edge addition to "
      "recover; the full-size version of this study (20k events, 800 nodes) "
      "runs in tests/test_acceptance.py")
