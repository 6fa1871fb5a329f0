"""Multi-task training and evaluation.

Per batch: the query encoder scores links on the original view and, via
`score_view`, on the augmented view the structure learner proposes (binary
cross entropy each); at alpha > 0, queries from the augmented view are
contrasted against momentum-encoder keys from the original view through a
FIFO key queue (InfoNCE). Evaluation scores each positive against one
seeded negative through the same `score_view`, reporting accuracy at 0.5
and average precision, under transductive or inductive protocols, with
inference on the augmented view in noise-free mode. Only this module knows
a batch's stacked [src | dst | neg] rows.
"""

import copy
import math
import time
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .encoder import EncoderParams, TgatEncoder
from .graph import DataError, NeighborIndex, node_set, sample_negatives
from .structure import STRATEGIES, StructureLearner, TgslParams
# not called here; bound only because benchmark/test_benchmark.py checks
# that its tracer restores this binding: drop it with that check
from .structure import etgnn_forward  # noqa: F401

__all__ = [
    "ConfigError", "EmptySetError", "RunConfig", "MetricsReport",
    "EarlyStopState", "early_stop_update", "MoCoState", "moco_step",
    "bce_link_loss", "info_nce_batch", "score_view", "batch_loss",
    "accuracy_score", "average_precision", "Trainer",
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
        for f in fields(self):      # seeds, fanouts: their parsers check
            v = getattr(self, f.name)
            if f.name not in ("seeds", "fanouts") and (
                    isinstance(v, bool) != (f.type is bool) or not isinstance(
                        v, (int, float) if f.type is float else f.type)):
                raise ConfigError(f"{f.name} must be {f.type.__name__}, "
                                  f"got {v!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of "
                              f"{', '.join(STRATEGIES)}; got {self.strategy!r}")
        for key in ("synth_communities", "synth_users", "synth_items",
                    "synth_events", "sparsify_n", "k", "n_can", "n_rnn",
                    "moco_queue", "d_model", "layers", "heads", "d_hidden",
                    "etgnn_layers", "n_nb", "batch_size", "max_epochs",
                    "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got "
                                  f"{getattr(self, key)}")
        if self.synth_communities > min(self.synth_users, self.synth_items):
            raise ConfigError(f"synth_communities must not exceed "
                              f"synth_users or synth_items, got "
                              f"{self.synth_communities}")
        if self.d_model % self.heads:
            raise ConfigError(f"heads must divide d_model {self.d_model}, "
                              f"got {self.heads}")
        for key in ("tau_gumbel", "tau_cl", "lr"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and > 0, got "
                                  f"{getattr(self, key)}")
        for key in ("synth_jitter", "tolerance"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got "
                                  f"{getattr(self, key)}")
        for key in ("alpha", "moco_momentum", "synth_noise"):
            if not (0.0 <= getattr(self, key) <= 1.0):
                raise ConfigError(f"{key} must be in [0, 1], got "
                                  f"{getattr(self, key)}")
        if not (0.0 <= self.mask_frac < 1.0):
            raise ConfigError(f"mask_frac must be in [0, 1), got "
                              f"{self.mask_frac}")
        for key, parse in (("seeds", self.seed_list),
                           ("fanouts", self.fanout_list)):
            try:
                parse()
            except ValueError:
                raise ConfigError(f"{key} must be comma-separated integers, "
                                  f"got {getattr(self, key)!r}")
        # a run's directory is keyed by its config and seed
        if not 0 < len(set(self.seed_list())) == len(self.seed_list()):
            raise ConfigError(f"seeds must name one or more seeds, none "
                              f"repeated, got {self.seeds!r}")
        for key, low in (("seeds", min(self.seed_list())),
                         ("synth_seed", self.synth_seed),
                         ("split_seed", self.split_seed)):
            if low < 0:
                raise ConfigError(f"{key} must be >= 0, got "
                                  f"{getattr(self, key)!r}")
        if min(self.fanout_list()) < 1:
            raise ConfigError(f"fanouts must all be >= 1, got "
                              f"{self.fanouts!r}")

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


def accuracy_score(labels, scores):
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    return float(((scores > 0.5) == (labels == 1)).mean())


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


def info_nce_batch(q, k_pos, queue, tau):
    """Batched InfoNCE: queries [B, d] (differentiable), positive keys
    [B, d] and queue [M, d] as constants; all rows L2-normalized; the
    positive sits inside the denominator sum."""
    b = q.shape[0]
    k_pos = np.asarray(k_pos, dtype=q.dtype)
    if k_pos.shape[1] != q.shape[1]:
        raise ValueError("query/key dimension mismatch")
    qn = _l2_rows(q)
    kp = _l2_rows(ad.constant(k_pos))
    pos = ad.reshape(ad.sum_(ad.mul(qn, kp), axis=1), (b, 1))
    if queue is not None and len(queue) > 0:
        qmat = ad.constant(_l2_rows(ad.constant(
            np.asarray(queue, dtype=q.dtype))).values.T)
        logits = ad.concat([pos, ad.matmul(qn, qmat)], axis=1)
    else:
        if ad.verify_active():
            warnings.warn("info_nce: empty queue, loss is zero")
        logits = pos
    logits = ad.scale(logits, 1.0 / tau)
    lse = ad.logsumexp(logits, axis=1)
    p0 = ad.reshape(ad.narrow(logits, 1, 0, 1), (b,))
    return ad.mean(ad.sub(lse, p0))


def _score_rows(enc, emb, b):
    """(s_pos, s_neg) of stacked [src | dst | neg] embedding rows, b each."""
    return tuple(enc.score_batch(ad.narrow(emb, 0, 0, b),
                                 ad.narrow(emb, 0, at, b))
                 for at in (b, 2 * b))


def score_view(enc, learner, index, view, nodes, ts, *, t_ref, t_max, seed,
               mode, inputs):
    """The one scoring path of a batch of stacked [src | dst | neg] rows
    `nodes` at times `ts`: with a learner, its `propose` for the [src | dst]
    rows from `index` inserts edges into `view` first. Returns (s_pos,
    s_neg, emb), emb being the rows' embeddings on the view scored."""
    b = len(nodes) // 3
    if learner is not None:
        view, _ = learner.propose(
            index, nodes[:2 * b], t_ref=t_ref, t_max=t_max, seed=seed,
            view_base=view, mode=mode, inputs=inputs)
    emb = enc.encode_batch(view, nodes, ts)
    return (*_score_rows(enc, emb, b), emb)


def batch_loss(enc, learner, plan, *, t_max, seed, keys, queue, alpha, tau):
    """The multi-task loss of one training batch, given as `plan`, the
    encode plan of its [src | dst | neg] pairs on the original view (the
    index cut before the batch): link BCE on that view, and with a
    structure learner also link BCE on its `score_view`, and with `keys`
    alpha times the InfoNCE of that view's [src | dst] embeddings against
    `keys` and `queue`. Returns (loss_ori, loss_aug, loss_cl, total),
    None for each absent term; total sums the others."""
    b = len(plan.nodes) // 3
    loss_ori = bce_link_loss(*_score_rows(enc, enc.apply(plan), b))
    if learner is None:
        return loss_ori, None, None, loss_ori
    s_pos, s_neg, emb_aug = score_view(
        enc, learner, plan.view, plan.view, plan.nodes, plan.ts,
        t_ref=float(plan.ts[0]), t_max=t_max, seed=seed, mode="stochastic",
        inputs=None)
    loss_aug = bce_link_loss(s_pos, s_neg)
    if keys is None:
        return loss_ori, loss_aug, None, ad.add(loss_ori, loss_aug)
    loss_cl = info_nce_batch(ad.narrow(emb_aug, 0, 0, 2 * b), keys, queue,
                             tau)
    total = ad.add(ad.add(loss_ori, loss_aug), ad.scale(loss_cl, alpha))
    return loss_ori, loss_aug, loss_cl, total


# ---------------------------------------------------------------------------
# MoCo machinery

class MoCoState:
    """Momentum copy of the query encoder plus the FIFO key queue; a
    Trainer builds one only when use_tgsl is on and alpha > 0."""

    def __init__(self, key_params, momentum, capacity):
        self.key_params = key_params
        for p in key_params.parameters():
            p.requires_grad = False
            p._grad = None          # never on a tape, never holds a grad
        self.momentum = momentum
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
    patience: int
    tolerance: float
    max_epochs: int
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
    one run of `cfg` (a RunConfig) under one training seed. Only a weighted
    contrastive term (use_tgsl on, alpha > 0) gets MoCo state and a key
    encoder, whose parameters start as a copy of the query's; otherwise
    both are None and loss_cl reads 0. Each training batch builds one
    encode plan of its [src | dst | neg] pairs on the train index cut
    before the batch, which the query's original-view pass and the key
    encoder, if any, apply; the plan and the batch's tape are dropped
    before the next batch. Adam gets the learner's `parameters()`, none
    under strategy=random (its tensors still stay in the snapshot). With
    use_tgsl off it is the plain encoder baseline (single supervised loss,
    no augmentation at inference)."""

    def __init__(self, store, split, cfg, seed):
        self.store = store
        self.split = split
        self.cfg = cfg
        self.seed = seed
        self.train_index = NeighborIndex.build(store, split.usable_train_ids)
        self.full_index = NeighborIndex.build(store)

        usable = split.usable_train_ids
        v = store.num_nodes
        self.train_nodes = node_set(v, store.src[usable], store.dst[usable])
        self.train_dst_pool = node_set(v, store.dst[usable])
        self.eval_dst_pool = node_set(v, store.dst)

        self.q_params = EncoderParams(cfg.d_model, cfg.layers, cfg.heads,
                                      cfg.d_hidden, seed=_seed(seed, 1))
        try:
            self.q_enc = TgatEncoder(self.q_params, store, n_nb=cfg.n_nb)
        except ValueError as e:     # features wider than d_model
            raise ConfigError(str(e)) from e
        self.moco = self.k_enc = None
        if cfg.use_tgsl and cfg.alpha > 0:
            # the key set starts as an exact copy with its own arrays:
            # moco_step writes them in place
            k_params = copy.deepcopy(self.q_params)
            self.moco = MoCoState(k_params, cfg.moco_momentum, cfg.moco_queue)
            self.k_enc = TgatEncoder(k_params, store, cfg.n_nb)

        params = self.q_params.parameters()
        if cfg.use_tgsl:
            self.tgsl_params = TgslParams(cfg.d_model, store.node_dim,
                                          store.edge_dim,
                                          layers=cfg.etgnn_layers,
                                          seed=_seed(seed, 2))
            self.learner = StructureLearner(self.tgsl_params, store, cfg,
                                            self.train_nodes)
            params = params + self.learner.parameters()
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
            # no query of a batch sees the batch's own events
            index = self.train_index.prefix(int(batch[0]))
            neg = sample_negatives(dst, self.train_dst_pool,
                                   _seed(self.seed, epoch, bi, 3))
            plan = self.q_enc.plan(index, np.concatenate([src, dst, neg]),
                                   np.concatenate([tss, tss, tss]))
            keys = queue = None
            if self.moco is not None:
                with ad.no_grad():
                    k_emb = self.k_enc.apply(plan)
                keys = _l2_rows(ad.narrow(k_emb, 0, 0, 2 * len(batch))).values
                queue = self.moco.queue
            with ad.Tape() as tape:
                loss_ori, loss_aug, loss_cl, total = batch_loss(
                    self.q_enc, self.learner, plan,
                    t_max=self.split.t_max_train,
                    seed=_seed(self.seed, epoch, bi, 1), keys=keys,
                    queue=queue, alpha=cfg.alpha, tau=cfg.tau_cl)
                if not np.isfinite(total.values):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch} batch {bi}")
                tape.backward(total)
            # the tape and the plan hold this batch's arrays: free them
            # now, not when the next batch builds its own
            tape = plan = None
            ad.adam_step(self.opt)
            if self.moco is not None:
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
        """Score each positive against one seeded negative, one
        `score_view` call per batch; inference on the augmented view in
        noise-free mode (or the original graph when use_augmented is off /
        no learner is attached). The cut, the train index and the
        parameters are fixed for the whole call, so the learner inputs of
        every scored source and destination (its ET-GNN over their visible
        window and their context rows) are built once, read by every
        batch's proposal and dropped when the call returns."""
        cfg = self.cfg
        store = self.store
        seed = self.seed if seed is None else seed
        ids = self._eval_ids(setting, subset, limit)
        neg = sample_negatives(store.dst[ids], self.eval_dst_pool,
                               _seed(seed, 7, len(ids)))
        t_ref = self.split.t_max_train + 1.0
        learner = self.learner if use_augmented else None
        scores, labels = [], []
        bs = cfg.batch_size
        with ad.no_grad():
            inputs = None if learner is None else learner.inputs(
                self.train_index,
                np.concatenate([store.src[ids], store.dst[ids]]), t_ref)
            for bi in range(0, len(ids), bs):
                batch = ids[bi:bi + bs]
                s_pos, s_neg, _ = score_view(
                    self.q_enc, learner, self.train_index, self.full_index,
                    np.concatenate([store.src[batch], store.dst[batch],
                                    neg[bi:bi + bs]]),
                    np.tile(store.ts[batch], 3), t_ref=t_ref,
                    t_max=self.split.t_max_train, seed=_seed(seed, 5, bi),
                    mode="noise-free", inputs=inputs)
                scores += s_pos.values.tolist() + s_neg.values.tolist()
                labels.extend([1] * len(batch) + [0] * len(batch))
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
        if self.moco is not None:
            d["key"] = self.moco.key_params.state_dict()
        return d

    def restore(self, snap):
        """Load a snapshot(): every group this trainer has must be there
        (KeyError names a missing one), with exactly its tensors
        (ValueError from load_state_dict); other groups are ignored."""
        self.q_params.load_state_dict(snap["query"])
        if self.tgsl_params is not None:
            self.tgsl_params.load_state_dict(snap["tgsl"])
        if self.moco is not None:
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
