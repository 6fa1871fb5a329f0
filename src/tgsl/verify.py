"""Verification suites behind `tgsl verify`: gradient correctness against
finite differences, Gumbel-Top-K selection frequencies against a Monte-Carlo
oracle, metric implementations against brute-force definitions, and
chronological leakage invariance. Each check reports its measured value and
threshold; suites run in float64 where gradients are involved.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import EncoderParams, TgatEncoder
from .graph import EventStore, NeighborIndex, chronological_split, synth_generate
from .structure import (STRATEGIES, StructureLearner, TgslParams,
                        context_predict_batch, etgnn_forward,
                        gumbel_topk_select)
from .training import (RunConfig, accuracy_score, average_precision,
                       batch_loss, score_view)

__all__ = ["Check", "grad_suite", "gumbel_suite", "metrics_suite",
           "leakage_suite", "run_suites", "SUITES"]

# The suites' fixed sizes, seeds and thresholds
GRAD_INSTANCES, GRAD_SEED, GRAD_TOL = 100, 0, 1e-4
TOY_D_MODEL, TOY_SEED = 8, 13
GUMBEL_DRAWS, GUMBEL_N, GUMBEL_K, GUMBEL_TOL = 100_000, 10, 3, 0.01
METRICS_MAX_N, METRICS_SEED = 12, 5
LEAKAGE_TRIALS, LEAKAGE_SEED = 50, 11


@dataclass
class Check:
    name: str
    passed: bool
    measured: float
    threshold: float
    note: str = ""

    def line(self):
        word = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return (f"[{word}] {self.name}: measured {self.measured:.6g} "
                f"vs threshold {self.threshold:.6g}{extra}")


# ---------------------------------------------------------------------------
# gradient suite

def _primitive_cases(rng):
    """One random instance per call, cycling through the primitive set."""
    c = ad.constant

    def rnd(*shape):
        return rng.standard_normal(shape)

    w = c(rng.standard_normal((4, 3)))
    w42 = c(rng.standard_normal((4, 2)))
    w3 = c(rng.standard_normal(3))
    w4 = c(rng.standard_normal(4))
    w32 = c(rng.standard_normal((3, 2)))
    lhs = c(rng.standard_normal((2, 3, 4)))
    # attention over 3 rows x 4 slots at d=4, 2 heads: row 0 all padded,
    # row 1 all real; narrow node states (width 3) and edge rows (width
    # 2); added slots bring differentiable [P, 4] rows and [P] weights
    mask = (rng.random((3, 4)) < 0.7).astype(np.float64)
    mask[0], mask[1] = 0.0, 1.0
    added = mask * (rng.random((3, 4)) < 0.5)
    added[1, 2] = 1.0
    pos = np.nonzero(added)
    n_add = len(pos[0])
    # the slots' time rows as a table, one row per slot
    te = (c(rng.uniform(-1.0, 1.0, (3, 4, 4)).reshape(12, 4)),
          np.arange(12).reshape(3, 4))
    w34 = c(rng.standard_normal((3, 4)))

    def attention(h_self, h_nbr, e_slot, e_add, w_add, wq, wk, wv):
        return ad.sum_(ad.mul(ad.temporal_attention(
            h_self, h_nbr, e_slot, te, mask, wq, wk, wv, 2,
            (pos, e_add, w_add)), w34))

    return [
        ("add", lambda a, b: ad.sum_(ad.mul(ad.add(a, b), w)),
         [rnd(4, 3), rnd(4, 3)]),
        ("sub-broadcast", lambda a, b: ad.sum_(ad.mul(ad.sub(a, b), w)),
         [rnd(4, 3), rnd(1, 3)]),
        ("mul", lambda a, b: ad.sum_(ad.mul(ad.mul(a, b), w)),
         [rnd(4, 3), rnd(4, 3)]),
        ("div", lambda a, b: ad.sum_(ad.mul(ad.div(a, b), w)),
         [rnd(4, 3), np.abs(rnd(4, 3)) + 0.5]),
        ("scale", lambda a: ad.sum_(ad.mul(ad.scale(a, -2.5), w)), [rnd(4, 3)]),
        ("matmul", lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), w)),
         [rnd(4, 5), rnd(5, 3)]),
        # N-D @ 2-D, the encoder's shape class; the constant lhs gets no
        # gradient
        ("matmul-broadcast", lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), w32)),
         [rnd(2, 3, 4), rnd(4, 2)]),
        ("matmul-const-lhs",
         lambda b: ad.sum_(ad.mul(ad.matmul(lhs, b), w32)), [rnd(4, 2)]),
        ("concat-narrow",
         lambda a, b: ad.sum_(ad.mul(ad.narrow(ad.concat([a, b], axis=1),
                                               1, 1, 3), w)),
         [rnd(4, 2), rnd(4, 3)]),
        ("reshape", lambda a: ad.sum_(ad.mul(ad.reshape(a, (4, 3)), w)),
         [rnd(12)]),
        ("take", lambda a: ad.sum_(ad.mul(ad.take(
            a, np.array([0, 2, 2, 1])), w)), [rnd(3, 3)]),
        ("segment-sum", lambda a: ad.sum_(ad.mul(ad.segment_sum(
            a, np.array([0, 1, 0, 2, 1]), 4), w42)), [rnd(5, 2)]),
        ("sigmoid", lambda a: ad.sum_(ad.mul(ad.sigmoid(a), w)), [rnd(4, 3)]),
        ("relu", lambda a: ad.sum_(ad.mul(ad.relu(a), w)), [rnd(4, 3)]),
        ("tanh", lambda a: ad.sum_(ad.mul(ad.tanh(a), w)), [rnd(4, 3)]),
        ("log", lambda a: ad.sum_(ad.mul(ad.log(a), w)),
         [np.abs(rnd(4, 3)) + 0.5]),
        ("sqrt", lambda a: ad.sum_(ad.mul(ad.sqrt(a), w)),
         [np.abs(rnd(4, 3)) + 0.5]),
        ("mean-axis", lambda a: ad.sum_(ad.mul(ad.mean(a, axis=0), w3)),
         [rnd(5, 3)]),
        ("sum-axis", lambda a: ad.sum_(ad.mul(ad.sum_(a, axis=1), w4)),
         [rnd(4, 5)]),
        ("logsumexp", lambda a: ad.sum_(ad.mul(ad.logsumexp(a, axis=1),
                                               w4)), [rnd(4, 5)]),
        ("clip", lambda a: ad.sum_(ad.mul(ad.clip(a, -5.0, 5.0), w)),
         [rnd(4, 3)]),
        ("temporal-attention", attention,
         [rnd(3, 3), rnd(3, 4, 3), rnd(3, 4, 2), rnd(n_add, 4),
          rng.uniform(0.1, 0.9, n_add), rnd(8, 4), rnd(12, 4), rnd(12, 4)]),
    ]


def grad_primitives():
    """The worst relative gradient error over GRAD_INSTANCES cases, cycling
    through the primitive set with fresh random instances each cycle."""
    rng = np.random.default_rng(GRAD_SEED)
    cases = itertools.chain.from_iterable(
        _primitive_cases(rng) for _ in itertools.count())
    return max((ad.grad_check(fn, args).max_rel_err
                for _, fn, args in itertools.islice(cases, GRAD_INSTANCES)),
               default=0.0)


def toy_mtl_setup():
    """The 6-node, 10-event toy graph with the training loss
    (`training.batch_loss`, alpha 0.5), float64 throughout; returns
    (loss_fn, start_values) for grad_check."""
    d_model, seed = TOY_D_MODEL, TOY_SEED
    store = synth_generate(2, 3, 3, 10, 0.2, seed=seed)
    split = chronological_split(store)
    batch = split.usable_train_ids[-3:]
    index = NeighborIndex.build(store, split.usable_train_ids).prefix(
        int(batch[0]))
    enc_p = EncoderParams(d_model, layers=1, heads=1, d_hidden=6,
                          seed=seed + 1, dtype=np.float64)
    enc = TgatEncoder(enc_p, store, n_nb=4)
    tg_p = TgslParams(d_model, store.node_dim, store.edge_dim, layers=1,
                      seed=seed + 2, dtype=np.float64)
    learner = StructureLearner(tg_p, store,
                               RunConfig(strategy="one-hop", k=2, n_can=4,
                                         n_rnn=3))
    rng = np.random.default_rng(seed + 3)
    queue = rng.standard_normal((4, d_model))
    keys = rng.standard_normal((2 * len(batch), d_model))  # frozen positives
    # parameter-free, so one plan serves every probe; each negative is dst[0]
    plan = enc.plan(index, np.concatenate([store.src[batch], store.dst[batch],
                                           np.full(len(batch), store.dst[0])]),
                    np.tile(store.ts[batch], 3))
    n_enc = len(enc_p.parameters())

    def loss_fn(*probes):
        enc_p.replace_tensors(probes[:n_enc])
        tg_p.replace_tensors(probes[n_enc:])
        return batch_loss(enc, learner, plan, t_max=split.t_max_train,
                          seed=seed + 4, keys=keys, queue=queue, alpha=0.5,
                          tau=0.2)[3]

    start = [p.values.copy() for p in enc_p.parameters() + tg_p.parameters()]
    return loss_fn, start


def grad_suite():
    checks = []
    t0 = time.time()
    worst = grad_primitives()
    checks.append(Check(f"grad/primitives-{GRAD_INSTANCES}-random-instances",
                        worst <= GRAD_TOL, worst, GRAD_TOL))
    fn, start = toy_mtl_setup()
    res = ad.grad_check(fn, start)
    note = f"{res.n_checked} coords, {len(res.skipped)} kinks skipped"
    checks.append(Check("grad/composite-mtl-toy-graph",
                        res.max_rel_err <= GRAD_TOL, res.max_rel_err,
                        GRAD_TOL, note))
    checks.append(Check("grad/runtime-seconds", time.time() - t0 < 60,
                        time.time() - t0, 60.0))
    return checks


# ---------------------------------------------------------------------------
# Gumbel suite

def gumbel_suite():
    draws, n, k, tol = GUMBEL_DRAWS, GUMBEL_N, GUMBEL_K, GUMBEL_TOL
    t0 = time.time()
    c = draws * n
    src = np.repeat(np.arange(draws), n)
    zh = ad.constant(np.ones((c, 1)))
    fh_eq = ad.constant(np.zeros((c, 1)))
    _, _, sel = gumbel_topk_select(zh, fh_eq, src, k, 1.0, seed=123)
    freq = np.bincount(sel % n, minlength=n) / draws
    dev = float(np.abs(freq - k / n).max())
    checks = [Check("gumbel/equal-logit-frequency-dev", dev <= tol, dev, tol,
                    f"target {k / n:.3f} each")]

    # raise candidate 0's logit by +2 under common random numbers
    raised = np.zeros((c, 1))
    raised[::n] = 2.0
    _, _, sel2 = gumbel_topk_select(zh, ad.constant(raised), src, k, 1.0,
                                    seed=123)
    f0_eq = freq[0]
    f0_up = np.count_nonzero(sel2 % n == 0) / draws
    checks.append(Check("gumbel/raised-logit-frequency-increases",
                        f0_up > f0_eq, f0_up - f0_eq, 0.0,
                        f"{f0_eq:.3f} -> {f0_up:.3f}"))

    # monotone influence: candidate 0 never drops out under paired noise
    base0 = set(sel[sel % n == 0].tolist())
    up0 = set(sel2[sel2 % n == 0].tolist())
    dropped = len(base0 - up0)
    checks.append(Check("gumbel/monotone-influence-dropouts", dropped == 0,
                        float(dropped), 0.0))

    # noise-free mode is deterministic
    zh50 = ad.constant(np.ones((50, 1)))
    f50 = ad.constant(raised[:50])
    _, r1, s1 = gumbel_topk_select(zh50, f50, src[:50], k, 1.0,
                                   seed=1, mode="noise-free")
    _, r2, s2 = gumbel_topk_select(zh50, f50, src[:50], k, 1.0,
                                   seed=2, mode="noise-free")
    same = np.array_equal(r1.values, r2.values) and np.array_equal(s1, s2)
    checks.append(Check("gumbel/noise-free-deterministic", same,
                        float(same), 1.0))
    checks.append(Check("gumbel/runtime-seconds", time.time() - t0 < 30,
                        time.time() - t0, 30.0))
    return checks


# ---------------------------------------------------------------------------
# metric oracle suite

def _brute_ap(labels, scores):
    n = len(labels)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    tp = 0
    total_pos = sum(labels)
    if total_pos == 0:
        return 0.0
    area = 0.0
    prev_recall = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            tp += 1
        precision = tp / rank
        recall = tp / total_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def _brute_acc(labels, scores):
    hits = sum(1 for l, s in zip(labels, scores)
               if (s > 0.5) == (l == 1))
    return hits / len(labels)


def metrics_suite():
    rng = np.random.default_rng(METRICS_SEED)
    worst_ap = 0.0
    worst_acc = 0.0
    for n in range(1, METRICS_MAX_N + 1):
        scores = np.round(rng.random(n), 1)   # coarse grid forces ties
        for pattern in range(1, 2 ** n):
            labels = np.array([(pattern >> i) & 1 for i in range(n)])
            worst_ap = max(worst_ap, abs(average_precision(labels, scores)
                                         - _brute_ap(labels.tolist(),
                                                     scores.tolist())))
            worst_acc = max(worst_acc, abs(accuracy_score(labels, scores)
                                           - _brute_acc(labels.tolist(),
                                                        scores.tolist())))
    checks = [
        Check("metrics/ap-brute-force-max-abs-diff", worst_ap <= 1e-12,
              worst_ap, 1e-12, f"all label patterns, n <= {METRICS_MAX_N}"),
        Check("metrics/acc-brute-force-max-abs-diff", worst_acc <= 1e-12,
              worst_acc, 1e-12),
    ]
    # monotone transform invariance
    labels = rng.integers(0, 2, size=200)
    labels[0] = 1
    scores = rng.random(200)
    base = average_precision(labels, scores)
    dev = max(abs(average_precision(labels, t(scores)) - base)
              for t in (lambda s: 2 * s + 1, np.exp,
                        lambda s: 1 / (1 + np.exp(-5 * s))))
    checks.append(Check("metrics/ap-monotone-transform-invariance",
                        dev == 0.0, dev, 0.0))
    return checks


# ---------------------------------------------------------------------------
# leakage suite

def leakage_suite():
    """Outputs at time t must not move when events at or after t change:
    the encoder on the plain index, ET-GNN and the LSTM context over the
    visible window, and the structure learner's proposal (stochastic and
    noise-free, the strategy cycling per trial, with learner inputs built
    per batch and once at t) with the encoder and `score_view` on the
    augmented view it builds."""
    rng = np.random.default_rng(LEAKAGE_SEED)
    pool = np.arange(16)            # random-strategy pool no perturbation moves
    worst = 0.0
    for trial in range(LEAKAGE_TRIALS):
        store = synth_generate(2, 8, 8, 120, 0.2, seed=int(rng.integers(1e6)))
        t = float(store.ts[70])
        nodes = rng.integers(0, store.num_nodes, size=4)
        tss = np.full(4, t)
        rows = np.concatenate([nodes, np.roll(nodes, 1), np.roll(nodes, 2)])
        d = 8
        enc_p = EncoderParams(d, layers=2, heads=2, d_hidden=8,
                              seed=int(rng.integers(1e6)))
        tg_p = TgslParams(d, store.node_dim, store.edge_dim, layers=2,
                          seed=int(rng.integers(1e6)))
        run_cfg = RunConfig(strategy=STRATEGIES[(trial // 3) % 3], k=2,
                            n_can=4, n_rnn=4, fanouts="3,2,2")

        def outputs(st):
            idx = NeighborIndex.build(st)
            enc = TgatEncoder(enc_p, st, n_nb=5)
            emb = enc.encode_batch(idx, nodes, tss).values
            visible = np.flatnonzero(st.ts < t)
            et = etgnn_forward(visible, st, tg_p)
            z = context_predict_batch(tg_p, et, idx, nodes, t, 4).values
            out = [emb, et.edge_f.values, z]
            learner = StructureLearner(tg_p, st, run_cfg, pool)
            # inputs built per batch, and once at t; a scored batch of
            # [nodes | rolled | rolled] proposes for the nodes again
            for inputs in (None, learner.inputs(idx, nodes, t)):
                for mode in ("stochastic", "noise-free"):
                    kw = dict(t_ref=t, t_max=t, seed=trial, mode=mode,
                              inputs=inputs)
                    view, _ = learner.propose(idx, nodes, view_base=idx, **kw)
                    s_pos, s_neg, _ = score_view(enc, learner, idx, idx, rows,
                                                 np.tile(tss, 3), **kw)
                    out += [np.zeros(0) if view.rho is None
                            else view.rho.values,
                            enc.encode_batch(view, nodes, tss).values,
                            s_pos.values, s_neg.values]
            return out

        base = outputs(store)
        kind = trial % 3
        future = np.flatnonzero(store.ts >= t)
        pick = int(rng.choice(future))
        if kind == 0:      # modify a future event's features
            feats = store.edge_features.copy()
            feats[pick] += rng.standard_normal(
                feats.shape[1]).astype(np.float32)
            mut = EventStore(store.src, store.dst, store.ts,
                             store.node_features, feats, store.num_users)
        elif kind == 1:    # delete a future event
            keep = np.ones(len(store), dtype=bool)
            keep[pick] = False
            mut = EventStore(store.src[keep], store.dst[keep], store.ts[keep],
                             store.node_features, store.edge_features[keep],
                             store.num_users)
        else:              # append a brand-new future event
            feats = np.concatenate([store.edge_features,
                                    rng.standard_normal(
                                        (1, store.edge_dim)).astype(np.float32)])
            mut = EventStore(np.append(store.src, rng.integers(8)),
                             np.append(store.dst, 8 + rng.integers(8)),
                             np.append(store.ts, store.ts[-1] + 1.0),
                             store.node_features, feats, store.num_users)
        after = outputs(mut)
        for a, b in zip(base, after):
            if not np.array_equal(a, b):
                worst = max(worst, float(np.abs(a - b).max())
                            if a.shape == b.shape else np.inf)
    return [Check("leakage/future-perturbation-max-delta", worst == 0.0,
                  worst, 0.0, f"{LEAKAGE_TRIALS} randomized trials")]


SUITES = {
    "grad": grad_suite,
    "gumbel": gumbel_suite,
    "metrics": metrics_suite,
    "leakage": leakage_suite,
}


def run_suites(names):
    checks = []
    for name in names:
        checks.extend(SUITES[name]())
    return checks, all(c.passed for c in checks)
