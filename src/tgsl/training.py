"""Multi-task training and evaluation.

Per batch: the structure learner proposes an augmented view; the query
encoder scores links on both the original and augmented views (binary cross
entropy each); queries from the augmented view are contrasted against
momentum-encoder keys from the original view through a FIFO key queue
(InfoNCE). Evaluation scores each positive against one seeded negative,
reporting accuracy at 0.5 and average precision, under transductive or
inductive protocols, with inference on the augmented view in noise-free
mode.
"""

import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .encoder import EncoderParams, TgatEncoder, TimeEncodingConfig
from .graph import DataError, NeighborIndex, sample_negatives
from .structure import StructureLearner, TgslParams, etgnn_forward

__all__ = [
    "ConfigError", "EmptySetError", "RunConfig", "MetricsReport",
    "EarlyStopState", "early_stop_update", "MoCoState", "moco_step",
    "bce_link_loss", "info_nce_batch", "accuracy_score", "average_precision",
    "Trainer",
]


# ---------------------------------------------------------------------------
# the run config

class ConfigError(ValueError):
    pass


class EmptySetError(DataError):
    """An evaluation subset with no events under the requested setting."""


@dataclass
class RunConfig:
    """Every setting of a run: data, structure learner, encoder, optimizer
    and output. The CLI parses it from key=value pairs; Trainer and
    StructureLearner read it directly. validate() is the one check."""

    dataset: str = "synth"          # "synth" or a jodie-csv path
    synth_communities: int = 2
    synth_users: int = 400
    synth_items: int = 400
    synth_events: int = 20000
    synth_noise: float = 0.1
    synth_jitter: float = 0.1
    synth_seed: int = 42
    mask_frac: float = 0.1
    split_seed: int = 42
    sparsify_n: int = 1
    seeds: str = "0"                # comma-separated training seeds
    use_tgsl: bool = True
    strategy: str = "one-hop"
    k: int = 8
    n_can: int = 30
    n_rnn: int = 20
    alpha: float = 0.5
    tau_cl: float = 0.2
    tau_gumbel: float = 1.0
    moco_momentum: float = 0.999
    moco_queue: int = 512
    fanouts: str = "10,3,3"
    d_model: int = 100
    layers: int = 2
    heads: int = 2
    d_hidden: int = 100
    etgnn_layers: int = 2
    n_nb: int = 20
    lr: float = 1e-4
    batch_size: int = 200
    max_epochs: int = 50
    patience: int = 3
    tolerance: float = 1e-3
    out_dir: str = "runs"

    def validate(self):
        if self.strategy not in ("one-hop", "third-hop", "random"):
            raise ConfigError(f"strategy must be one of one-hop, third-hop, "
                              f"random; got {self.strategy!r}")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.sparsify_n < 1:
            raise ConfigError("sparsify_n must be >= 1")
        for key, parse in (("seeds", self.seed_list),
                           ("fanouts", self.fanout_list)):
            try:
                parse()
            except ValueError:
                raise ConfigError(f"{key} must be comma-separated integers, "
                                  f"got {getattr(self, key)!r}")
        if not self.seed_list():
            raise ConfigError("seeds must name at least one seed")

    def seed_list(self):
        return [int(s) for s in str(self.seeds).split(",") if s.strip() != ""]

    def fanout_list(self):
        return tuple(int(x) for x in str(self.fanouts).split(","))

    def resolved(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# metrics

def average_precision(labels, scores):
    """Area under the precision-recall step function over items ranked by
    score, ties broken by stable (original) order."""
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    n_pos = int(ranked.sum())
    if n_pos == 0:
        return 0.0
    hits = np.cumsum(ranked)
    prec = hits / np.arange(1, len(ranked) + 1)
    return float(prec[ranked == 1].sum() / n_pos)


def accuracy_score(labels, scores, threshold=0.5):
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    return float(((scores > threshold) == (labels == 1)).mean())


# ---------------------------------------------------------------------------
# losses

_EPS = 1e-7


def bce_link_loss(pos_scores, neg_scores):
    """Mean of -log p over positives and -log(1-p) over negatives (one
    shared mean over all 2n terms). Scores at exactly 0 or 1 are clamped."""
    if pos_scores.shape[0] != neg_scores.shape[0]:
        raise ValueError("one negative per positive required")
    if ad.verify_active():
        vals = np.concatenate([pos_scores.values, neg_scores.values])
        if np.any(vals <= 0) or np.any(vals >= 1):
            warnings.warn("bce_link_loss: scores clamped to [eps, 1-eps]")
    n = pos_scores.shape[0] + neg_scores.shape[0]
    lp = ad.log(ad.clip(pos_scores, _EPS, 1.0 - _EPS))
    one_minus = ad.sub(ad.constant(np.ones((), dtype=neg_scores.dtype)),
                       neg_scores)
    ln = ad.log(ad.clip(one_minus, _EPS, 1.0 - _EPS))
    return ad.scale(ad.add(ad.sum_(lp), ad.sum_(ln)), -1.0 / n)


def _l2_rows(x):
    norm = ad.sqrt(ad.add(ad.sum_(ad.mul(x, x), axis=1, keepdims=True),
                          ad.constant(np.asarray(1e-24, dtype=x.dtype))))
    return ad.div(x, norm)


def _l2_rows_np(x):
    return x / np.sqrt((x * x).sum(axis=1, keepdims=True) + 1e-24)


def info_nce_batch(q, k_pos, queue, tau):
    """Batched InfoNCE: queries [B, d] (differentiable), positive keys
    [B, d] and queue [M, d] as constants; all rows L2-normalized; the
    positive sits inside the denominator sum."""
    b = q.shape[0]
    k_pos = np.asarray(k_pos, dtype=q.dtype)
    if k_pos.shape[1] != q.shape[1]:
        raise ValueError("query/key dimension mismatch")
    qn = _l2_rows(q)
    kp = ad.constant(_l2_rows_np(k_pos))
    pos = ad.reshape(ad.sum_(ad.mul(qn, kp), axis=1), (b, 1))
    if queue is not None and len(queue) > 0:
        qmat = ad.constant(_l2_rows_np(np.asarray(queue, dtype=q.dtype)).T)
        logits = ad.concat([pos, ad.matmul(qn, qmat)], axis=1)
    else:
        if ad.verify_active():
            warnings.warn("info_nce: empty queue, loss is zero")
        logits = pos
    logits = ad.scale(logits, 1.0 / tau)
    lse = ad.logsumexp(logits, axis=1)
    p0 = ad.reshape(ad.narrow(logits, 1, 0, 1), (b,))
    return ad.mean(ad.sub(lse, p0))


# ---------------------------------------------------------------------------
# MoCo machinery

class MoCoState:
    """Momentum copy of the query encoder plus the FIFO key queue."""

    def __init__(self, key_params, momentum=0.999, tau_cl=0.2, capacity=512):
        self.key_params = key_params
        for p in key_params.parameters():
            p.requires_grad = False
            p._grad = None          # never on a tape, never holds a grad
        self.momentum = momentum
        self.tau_cl = tau_cl
        self.capacity = capacity
        self.queue = np.zeros((0, key_params.d_model), dtype=np.float32)


def moco_step(state, query_params, new_keys):
    """Momentum-update key params toward the query params, then enqueue the
    new keys (dequeue beyond capacity, FIFO)."""
    new_keys = np.asarray(new_keys)
    if new_keys.ndim != 2 or new_keys.shape[1] != state.key_params.d_model:
        raise ValueError(
            f"key dimension {new_keys.shape} != {state.key_params.d_model}")
    mom = state.momentum
    for kp, qp in zip(state.key_params.parameters(),
                      query_params.parameters()):
        if kp.values.shape != qp.values.shape:
            raise ValueError("key/query parameter shape mismatch")
        kp.values[...] = mom * kp.values + (1.0 - mom) * qp.values
    state.queue = np.concatenate(
        [state.queue, new_keys.astype(np.float32)])[-state.capacity:]


# ---------------------------------------------------------------------------
# early stopping

@dataclass
class EarlyStopState:
    patience: int = 3
    tolerance: float = 1e-3
    max_epochs: int = 50
    best: float = -np.inf
    best_epoch: int = -1
    epochs_since: int = 0
    epoch: int = 0


def early_stop_update(state, val_ap):
    """Improvement means val AP > best + tolerance; stop once the
    non-improvement streak exceeds the patience or the epoch cap is hit."""
    state.epoch += 1
    if val_ap > state.best + state.tolerance:
        state.best = val_ap
        state.best_epoch = state.epoch
        state.epochs_since = 0
    else:
        state.epochs_since += 1
    if state.epochs_since > state.patience or state.epoch >= state.max_epochs:
        return "stop"
    return "continue"


# ---------------------------------------------------------------------------
# the trainer

@dataclass
class MetricsReport:
    setting: str
    acc: float
    ap: float


def _seed(*parts):
    return int(np.random.SeedSequence(tuple(int(p) for p in parts))
               .generate_state(1)[0])


class Trainer:
    """Owns the encoders, structure learner, optimizer and MoCo state for
    one run of `cfg` (a RunConfig) under one training seed. With
    cfg.use_tgsl off it degenerates to the plain encoder baseline (single
    supervised loss, no augmentation at inference)."""

    def __init__(self, store, split, cfg, seed):
        self.store = store
        self.split = split
        self.cfg = cfg
        self.seed = seed
        self.te_cfg = TimeEncodingConfig(cfg.d_model)
        self.train_index = NeighborIndex.build(store, split.usable_train_ids)
        self.full_index = NeighborIndex.build(store)

        usable = split.usable_train_ids
        self.train_nodes = np.unique(np.concatenate(
            [store.src[usable], store.dst[usable]]))
        self.train_dst_pool = np.unique(store.dst[usable])
        self.eval_dst_pool = np.unique(store.dst)

        enc_shape = (cfg.d_model, cfg.layers, cfg.heads, cfg.d_hidden)
        self.q_params = EncoderParams(*enc_shape, seed=_seed(seed, 1))
        self.q_enc = TgatEncoder(self.q_params, self.te_cfg, store,
                                 n_nb=cfg.n_nb)
        k_params = EncoderParams(*enc_shape, seed=_seed(seed, 1))
        k_params.copy_from(self.q_params)
        self.moco = MoCoState(k_params, cfg.moco_momentum, cfg.tau_cl,
                              cfg.moco_queue)
        self.k_enc = TgatEncoder(k_params, self.te_cfg, store, n_nb=cfg.n_nb)

        params = self.q_params.parameters()
        if cfg.use_tgsl:
            self.tgsl_params = TgslParams(cfg.d_model, store.node_dim,
                                          store.edge_dim,
                                          layers=cfg.etgnn_layers,
                                          seed=_seed(seed, 2))
            self.learner = StructureLearner(self.tgsl_params, self.te_cfg,
                                            store, cfg, self.train_nodes)
            params = params + self.tgsl_params.parameters()
        else:
            self.tgsl_params = None
            self.learner = None
        self.opt = ad.AdamState(params, lr=cfg.lr)

    # -- training

    def _batches(self):
        ids = self.split.usable_train_ids
        bs = self.cfg.batch_size
        return [ids[i:i + bs] for i in range(0, len(ids), bs)]

    def train_epoch(self, epoch):
        """One pass over the chronological training batches; returns the
        per-batch loss record."""
        cfg = self.cfg
        store = self.store
        rec = {"loss_ori": [], "loss_aug": [], "loss_cl": [], "total": []}
        for bi, batch in enumerate(self._batches()):
            src, dst, tss = store.src[batch], store.dst[batch], store.ts[batch]
            b = len(batch)
            start_eid = int(batch[0])
            t0 = float(tss[0])
            neg = sample_negatives(dst, self.train_dst_pool,
                                   _seed(self.seed, epoch, bi, 3))
            with ad.Tape() as tape:
                nodes3 = np.concatenate([src, dst, neg])
                ts3 = np.concatenate([tss, tss, tss])
                emb_ori = self.q_enc.encode_batch(self.train_index, nodes3,
                                                  ts3, max_eid=start_eid)
                s_pos = self.q_enc.score_batch(ad.narrow(emb_ori, 0, 0, b),
                                               ad.narrow(emb_ori, 0, b, b))
                s_neg = self.q_enc.score_batch(ad.narrow(emb_ori, 0, 0, b),
                                               ad.narrow(emb_ori, 0, 2 * b, b))
                loss_ori = bce_link_loss(s_pos, s_neg)
                if self.learner is not None:
                    view, _ = self.learner.propose(
                        self.train_index, np.concatenate([src, dst]),
                        t_ref=t0, t_max=self.split.t_max_train,
                        seed=_seed(self.seed, epoch, bi, 1),
                        view_base=self.train_index, mode="stochastic",
                        max_eid=start_eid)
                    emb_aug = self.q_enc.encode_batch(view, nodes3, ts3,
                                                      max_eid=start_eid)
                    a_pos = self.q_enc.score_batch(
                        ad.narrow(emb_aug, 0, 0, b),
                        ad.narrow(emb_aug, 0, b, b))
                    a_neg = self.q_enc.score_batch(
                        ad.narrow(emb_aug, 0, 0, b),
                        ad.narrow(emb_aug, 0, 2 * b, b))
                    loss_aug = bce_link_loss(a_pos, a_neg)
                    with ad.no_grad():
                        k_emb = self.k_enc.encode_batch(
                            self.train_index, nodes3[:2 * b], ts3[:2 * b],
                            max_eid=start_eid)
                    keys = _l2_rows_np(k_emb.values)
                    if cfg.alpha == 0.0:
                        # zero weight means zero gradient either way; skip
                        # recording the contrastive subgraph on the tape
                        with ad.no_grad():
                            loss_cl = info_nce_batch(
                                ad.narrow(emb_aug, 0, 0, 2 * b).detach(),
                                keys, self.moco.queue, cfg.tau_cl)
                        total = ad.add(loss_ori, loss_aug)
                    else:
                        loss_cl = info_nce_batch(
                            ad.narrow(emb_aug, 0, 0, 2 * b), keys,
                            self.moco.queue, cfg.tau_cl)
                        total = ad.add(ad.add(loss_ori, loss_aug),
                                       ad.scale(loss_cl, cfg.alpha))
                else:
                    loss_aug = loss_cl = None
                    keys = None
                    total = loss_ori
                if not np.isfinite(total.values):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch} batch {bi}")
                tape.backward(total)
            ad.adam_step(self.opt.params, self.opt)
            if self.learner is not None:
                moco_step(self.moco, self.q_params, keys)
            rec["loss_ori"].append(float(loss_ori.values))
            rec["loss_aug"].append(
                float(loss_aug.values) if loss_aug is not None else 0.0)
            rec["loss_cl"].append(
                float(loss_cl.values) if loss_cl is not None else 0.0)
            rec["total"].append(float(total.values))
        return rec

    # -- evaluation

    def _eval_ids(self, setting, subset, limit=None):
        ids = self.split.test_ids if subset == "test" else self.split.val_ids
        src_m = self.split.is_masked(self.store.src[ids])
        dst_m = self.split.is_masked(self.store.dst[ids])
        if setting == "transductive":
            keep = ~(src_m | dst_m)
        elif setting == "inductive":
            keep = src_m | dst_m
        else:
            raise ValueError(f"unknown setting {setting!r}")
        ids = ids[keep]
        if limit is not None:
            ids = ids[:limit]
        if len(ids) == 0:
            raise EmptySetError(f"empty {setting} {subset} set")
        return ids

    def evaluate(self, setting, subset="test", seed=None, use_augmented=True,
                 limit=None):
        """Score each positive against one seeded negative; inference on the
        augmented view in noise-free mode (or the original graph when
        use_augmented is off / no learner is attached)."""
        cfg = self.cfg
        store = self.store
        seed = self.seed if seed is None else seed
        ids = self._eval_ids(setting, subset, limit)
        neg = sample_negatives(store.dst[ids], self.eval_dst_pool,
                               _seed(seed, 7, len(ids)))
        t_ref = self.split.t_max_train + 1.0
        et_cache = None
        if self.learner is not None and use_augmented:
            with ad.no_grad():
                et_cache = etgnn_forward(self.split.usable_train_ids, store,
                                         self.tgsl_params, self.te_cfg)
        scores, labels = [], []
        bs = cfg.batch_size
        with ad.no_grad():
            for bi in range(0, len(ids), bs):
                batch = ids[bi:bi + bs]
                src, dst = store.src[batch], store.dst[batch]
                tss = store.ts[batch]
                nb = neg[bi:bi + bs]
                b = len(batch)
                if self.learner is not None and use_augmented:
                    view, _ = self.learner.propose(
                        self.train_index, np.concatenate([src, dst]),
                        t_ref=t_ref, t_max=self.split.t_max_train,
                        seed=_seed(seed, 5, bi), view_base=self.full_index,
                        mode="noise-free", etgnn_cache=et_cache)
                else:
                    view = self.full_index
                emb = self.q_enc.encode_batch(
                    view, np.concatenate([src, dst, nb]),
                    np.concatenate([tss, tss, tss]))
                s_pos = self.q_enc.score_batch(ad.narrow(emb, 0, 0, b),
                                               ad.narrow(emb, 0, b, b))
                s_neg = self.q_enc.score_batch(ad.narrow(emb, 0, 0, b),
                                               ad.narrow(emb, 0, 2 * b, b))
                scores.extend(s_pos.values.tolist())
                scores.extend(s_neg.values.tolist())
                labels.extend([1] * b + [0] * b)
        scores = np.asarray(scores)
        labels = np.asarray(labels)
        return MetricsReport(setting=setting,
                             acc=accuracy_score(labels, scores),
                             ap=average_precision(labels, scores))

    # -- full fit loop

    def snapshot(self):
        d = {"query": self.q_params.state_dict()}
        if self.tgsl_params is not None:
            d["tgsl"] = self.tgsl_params.state_dict()
        d["key"] = self.moco.key_params.state_dict()
        return d

    def restore(self, snap):
        self.q_params.load_state_dict(snap["query"])
        if self.tgsl_params is not None and "tgsl" in snap:
            self.tgsl_params.load_state_dict(snap["tgsl"])
        if "key" in snap:
            self.moco.key_params.load_state_dict(snap["key"])

    def fit(self, log=None, early_stop=True, val_limit=None):
        """Train with early stopping on transductive validation AP; restores
        the best-epoch parameters. Returns the per-epoch history.

        early_stop=False runs all max_epochs (best-epoch restore still
        applies); val_limit caps the validation events used for selection.
        """
        stop = EarlyStopState(patience=self.cfg.patience,
                              tolerance=self.cfg.tolerance,
                              max_epochs=self.cfg.max_epochs)
        best_snap = self.snapshot()
        history = []
        for epoch in range(self.cfg.max_epochs):
            t0 = time.time()
            rec = self.train_epoch(epoch)
            # fixed per-run negatives keep the early-stopping signal smooth
            val = self.evaluate("transductive", subset="val",
                                seed=_seed(self.seed, 11),
                                limit=val_limit)
            entry = {
                "epoch": epoch,
                "loss_task_ori": float(np.mean(rec["loss_ori"])),
                "loss_task_aug": float(np.mean(rec["loss_aug"])),
                "loss_cl": float(np.mean(rec["loss_cl"])),
                "val_ap": val.ap,
                "wall_seconds": time.time() - t0,
            }
            history.append(entry)
            if log:
                log(entry)
            decision = early_stop_update(stop, val.ap)
            if stop.epochs_since == 0:
                best_snap = self.snapshot()
            if decision == "stop" and early_stop:
                break
        self.restore(best_snap)
        self.best_epoch = stop.best_epoch
        return history
