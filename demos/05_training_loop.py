"""Joint training of the encoder and the structure learner: two supervised
link-prediction losses (original and augmented view) plus the momentum-
contrast InfoNCE term, then evaluation under both protocols and the
inference-graph comparison."""

from dataclasses import replace

from tgsl.graph import chronological_split, synth_generate
from tgsl.training import RunConfig, Trainer

store = synth_generate(2, 60, 60, 4000, 0.1, seed=7)
split = chronological_split(store, mask_frac=0.1, seed=1)

cfg = RunConfig(batch_size=200, lr=1e-2, max_epochs=5, n_nb=10, alpha=0.2,
                tau_cl=0.2, moco_momentum=0.9, strategy="one-hop", k=6,
                n_can=10, n_rnn=8, d_model=16, layers=1, heads=2, d_hidden=32,
                etgnn_layers=1)
cfg.validate()
trainer = Trainer(store, split, cfg, seed=0)

history = trainer.fit(log=lambda e: print(
    f"epoch {e['epoch']}: task(ori)={e['loss_task_ori']:.4f} "
    f"task(aug)={e['loss_task_aug']:.4f} contrastive={e['loss_cl']:.4f} "
    f"val AP={e['val_ap']:.4f}"))
print(f"\nbest epoch by validation AP: {trainer.best_epoch}")

trans = trainer.evaluate("transductive", "test")
induc = trainer.evaluate("inductive", "test")
ogi = trainer.evaluate("transductive", "test", use_augmented=False)
print(f"transductive: AP={trans.ap:.4f} ACC={trans.acc:.4f}")
print(f"inductive:    AP={induc.ap:.4f} ACC={induc.acc:.4f}")
print(f"inference on the original graph instead: AP={ogi.ap:.4f} "
      f"(augmented-graph inference should not be worse)")

# the plain-encoder baseline under the same budget
base = Trainer(store, split, replace(cfg, use_tgsl=False), seed=0)
base.fit()
print(f"encoder-alone baseline: AP={base.evaluate('transductive', 'test').ap:.4f}")
