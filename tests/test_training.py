import math

import numpy as np
import pytest

from tgsl import autodiff as ad
from tgsl import training as tt
from tgsl.graph import NeighborIndex, chronological_split, synth_generate


# ---------------------------------------------------------------------------
# losses

def test_bce_half_scores_is_ln2():
    loss = tt.bce_link_loss(ad.constant(np.array([0.5])),
                            ad.constant(np.array([0.5])))
    assert abs(float(loss.values) - math.log(2)) < 1e-12


def test_bce_perfect_scores_vanishes():
    eps = 1e-7
    loss = tt.bce_link_loss(ad.constant(np.array([1 - eps, 1 - eps])),
                            ad.constant(np.array([eps, eps])))
    assert float(loss.values) < 1e-6


def test_bce_matches_independent_recomputation():
    rng = np.random.default_rng(0)
    p = rng.uniform(0.01, 0.99, size=20)
    n = rng.uniform(0.01, 0.99, size=20)
    got = float(tt.bce_link_loss(ad.constant(p), ad.constant(n)).values)
    # plain python float arithmetic, no shared code path
    want = -(sum(math.log(x) for x in p)
             + sum(math.log(1 - x) for x in n)) / 40
    assert abs(got - want) < 1e-12


def test_bce_clamps_and_flags_in_verification_mode():
    pos = ad.constant(np.array([1.0]))
    neg = ad.constant(np.array([0.0]))
    loss = float(tt.bce_link_loss(pos, neg).values)   # silently clamped
    assert np.isfinite(loss)
    with ad.verification_mode():
        with pytest.warns(UserWarning, match="clamped"):
            tt.bce_link_loss(pos, neg)


def test_bce_requires_matched_counts():
    with pytest.raises(ValueError, match="negative per positive"):
        tt.bce_link_loss(ad.constant(np.array([0.5, 0.5])),
                         ad.constant(np.array([0.5])))


def info_nce(q, k_pos, queue, tau):
    """InfoNCE of one query vector through info_nce_batch."""
    q = np.asarray(q)
    return tt.info_nce_batch(ad.constant(q[None, :]),
                             np.asarray(k_pos)[None, :], queue, tau)


def test_info_nce_uniform_similarity_is_log_m_plus_one():
    d, m = 8, 5
    v = np.ones(d)
    queue = np.tile(v, (m, 1))
    loss = float(info_nce(v, v, queue, tau=0.7).values)
    assert abs(loss - math.log(m + 1)) < 1e-9


def test_info_nce_orthogonal_queue_closed_form():
    # q = k+, queue orthogonal to q, tau = 1: loss = ln(1 + M/e)
    d, m = 8, 3
    q = np.zeros(d)
    q[0] = 2.0                       # normalization handles the scale
    queue = np.zeros((m, d))
    queue[:, 1] = 1.0
    loss = float(info_nce(q, q, queue, tau=1.0).values)
    assert abs(loss - math.log(1 + m / math.e)) < 1e-9


def test_info_nce_sharpening_monotonicity():
    d, m = 8, 4
    q = np.zeros(d)
    q[0] = 1.0
    queue = np.zeros((m, d))
    queue[:, 1] = 1.0
    losses = [float(info_nce(q, q, queue, tau=t).values)
              for t in (1.0, 0.5, 0.25)]
    assert losses[0] > losses[1] > losses[2]


def test_info_nce_empty_queue_is_zero_and_flagged():
    q = np.ones(4)
    assert float(info_nce(q, q, np.zeros((0, 4)), 0.2).values) == 0.0
    with ad.verification_mode():
        with pytest.warns(UserWarning, match="empty queue"):
            info_nce(q, q, None, 0.2)


def test_info_nce_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        info_nce(np.ones(4), np.ones(5), np.zeros((2, 4)), 0.2)


# ---------------------------------------------------------------------------
# MoCo machinery

def key_params(dm=4):
    from tgsl.encoder import EncoderParams
    return EncoderParams(dm, layers=1, heads=1, d_hidden=4, seed=0)


def query_like(kp, scale=2.0):
    from tgsl.encoder import EncoderParams
    qp = EncoderParams(kp.d_model, 1, 1, kp.d_hidden, seed=0)
    for p in qp.parameters():
        p.values[...] = p.values * scale
    return qp


def test_moco_momentum_one_keeps_key_params():
    kp = key_params()
    before = [p.values.copy() for p in kp.parameters()]
    st = tt.MoCoState(kp, momentum=1.0, capacity=8)
    tt.moco_step(st, query_like(kp), np.ones((2, 4)))
    for b, p in zip(before, kp.parameters()):
        assert np.array_equal(b, p.values)


def test_moco_momentum_zero_copies_query():
    kp = key_params()
    qp = query_like(kp)
    st = tt.MoCoState(kp, momentum=0.0, capacity=8)
    tt.moco_step(st, qp, np.ones((2, 4)))
    for q, p in zip(qp.parameters(), kp.parameters()):
        assert np.array_equal(q.values, p.values)


def test_moco_queue_fifo_against_list_oracle():
    kp = key_params()
    st = tt.MoCoState(kp, momentum=0.999, capacity=512)
    qp = query_like(kp)
    oracle = []
    rng = np.random.default_rng(1)
    for step in range(3):
        keys = rng.standard_normal((200, 4)).astype(np.float32)
        tt.moco_step(st, qp, keys)
        oracle.extend(keys.tolist())
        oracle = oracle[-512:]
    assert len(st.queue) == 512
    assert np.allclose(st.queue, np.asarray(oracle, dtype=np.float32))


def test_moco_rejects_dimension_mismatch():
    st = tt.MoCoState(key_params(), momentum=0.999, capacity=8)
    with pytest.raises(ValueError, match="dimension"):
        tt.moco_step(st, query_like(st.key_params), np.ones((2, 7)))


def test_key_params_never_require_grad():
    st = tt.MoCoState(key_params(), momentum=0.999, capacity=512)
    assert all(not p.requires_grad for p in st.key_params.parameters())


# ---------------------------------------------------------------------------
# early stopping

def stubbed_fit(val_aps, max_epochs, early_stop=True):
    """Trainer.fit (patience 3, tolerance 1e-3) with train_epoch and
    evaluate stubbed: epoch e writes e into every query parameter and
    scores val AP val_aps[e]. Returns (history, best_epoch, the epoch
    whose parameters fit restored)."""
    tr, _, _ = tiny_setup()
    tr.cfg.max_epochs = max_epochs
    epoch = []

    def train_epoch(e):
        epoch[:] = [e]
        for p in tr.q_params.parameters():
            p.values[...] = e
        return {"loss_ori": [0.0], "loss_aug": [0.0], "loss_cl": [0.0],
                "total": [0.0]}

    tr.train_epoch = train_epoch
    tr.evaluate = lambda *args, **kwargs: tt.MetricsReport(
        "transductive", 0.5, val_aps[epoch[0]])
    history = tr.fit(early_stop=early_stop)
    assert [h["val_ap"] for h in history] == list(val_aps[:len(history)])
    restored = {float(p.values.flat[0]) for p in tr.q_params.parameters()}
    assert len(restored) == 1
    return history, tr.best_epoch, int(restored.pop())


def test_early_stop_improving_sequence_continues():
    history, best, restored = stubbed_fit((0.5, 0.6, 0.7, 0.7), 4)
    assert len(history) == 4
    assert best == restored == 2


def test_early_stop_sub_tolerance_plateau():
    # 0.0005 never clears the tolerance: the fifth epoch is the fourth
    # without a gain, one more than the patience
    history, best, restored = stubbed_fit(
        (0.7, 0.7005, 0.7005, 0.7005, 0.7005, 0.9), 50)
    assert len(history) == 5
    assert best == restored == 0


def test_early_stop_epoch_cap():
    history, best, restored = stubbed_fit(
        [0.5 + 0.005 * e for e in range(60)], 50)    # always improving
    assert len(history) == 50
    assert best == restored == 49


def test_without_early_stop_every_epoch_runs_and_the_best_is_restored():
    history, best, restored = stubbed_fit(
        (0.7, 0.8, 0.75, 0.75, 0.75, 0.75, 0.75, 0.75), 8, early_stop=False)
    assert len(history) == 8
    assert best == restored == 1


@pytest.mark.parametrize("early_stop", [True, False])
def test_best_epoch_indexes_the_restored_epoch(early_stop):
    """After a real fit, `best_epoch` indexes the history, and the
    parameters fit restored score that epoch's val AP again."""
    tr, _, _ = tiny_setup(alpha=0.0)
    tr.cfg.max_epochs, tr.cfg.patience = 5, 1
    history = tr.fit(early_stop=early_stop)
    assert 0 <= tr.best_epoch < len(history)
    val = tr.evaluate("transductive", subset="val", seed=tt._seed(tr.seed, 11))
    assert val.ap == history[tr.best_epoch]["val_ap"]


# ---------------------------------------------------------------------------
# metrics

def test_metrics_perfect_ranking():
    labels = np.array([1, 1, 0, 0])
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    assert tt.average_precision(labels, scores) == 1.0
    assert tt.accuracy_score(labels, scores) == 1.0


def test_metrics_chance_level():
    rng = np.random.default_rng(0)
    labels = np.array([1, 0] * 5000)
    scores = rng.random(10_000)
    assert abs(tt.average_precision(labels, scores) - 0.5) < 0.02
    assert abs(tt.accuracy_score(labels, scores) - 0.5) < 0.02


def test_ap_brute_force_small_sets():
    # direct PR-curve enumeration, independent arithmetic
    def brute(labels, scores):
        order = sorted(range(len(labels)), key=lambda i: (-scores[i], i))
        tp, area, prev_r = 0, 0.0, 0.0
        npos = sum(labels)
        for rank, i in enumerate(order, 1):
            tp += labels[i]
            r = tp / npos
            area += (r - prev_r) * (tp / rank)
            prev_r = r
        return area

    rng = np.random.default_rng(2)
    for n in range(1, 13):
        scores = np.round(rng.random(n), 1)
        for _ in range(30):
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                continue
            assert abs(tt.average_precision(labels, scores)
                       - brute(labels.tolist(), scores.tolist())) < 1e-12


def test_ap_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=300)
    labels[0] = 1
    scores = rng.random(300)
    base = tt.average_precision(labels, scores)
    for f in (lambda s: 3 * s - 1, np.exp, lambda s: s ** 3):
        assert tt.average_precision(labels, f(scores)) == base


# ---------------------------------------------------------------------------
# trainer behavior

TINY = dict(batch_size=100, lr=1e-2, max_epochs=2, n_nb=6,
            strategy="one-hop", n_can=5, n_rnn=4, d_model=8, layers=1,
            heads=2, d_hidden=12, etgnn_layers=1)


def tiny_setup(seed=0, use_tgsl=True, alpha=0.5, k=3):
    store = synth_generate(2, 20, 20, 700, 0.1, seed=11)
    split = chronological_split(store, mask_frac=0.1, seed=2)
    # k=0 is below what validate() accepts; the Python API still runs it
    cfg = tt.RunConfig(**TINY, alpha=alpha, k=k, patience=3,
                       moco_momentum=0.9, use_tgsl=use_tgsl)
    return tt.Trainer(store, split, cfg, seed), store, split


def test_loss_decomposition():
    tr, _, _ = tiny_setup(alpha=0.5)
    rec = tr.train_epoch(0)
    for o, a, c, t in zip(rec["loss_ori"], rec["loss_aug"], rec["loss_cl"],
                          rec["total"]):
        assert abs(t - (o + a + 0.5 * c)) <= 1e-6 * max(1.0, abs(t))


def test_alpha_zero_matches_contrastive_term_removed():
    grads = []
    for _ in range(2):
        tr, store, split = tiny_setup(alpha=0.0)
        tr.train_epoch(0)
        grads.append(np.concatenate(
            [p.values.ravel().copy() for p in tr.opt.params]))
    # identical runs agree bit-for-bit; at alpha=0 no contrastive term,
    # key encoder or queue is built at all
    assert np.array_equal(grads[0], grads[1])


@pytest.mark.parametrize("use_tgsl, alpha", [(True, 0.0), (False, 0.5)])
def test_no_moco_state_without_a_weighted_contrastive_term(use_tgsl, alpha):
    tr, _, _ = tiny_setup(use_tgsl=use_tgsl, alpha=alpha)
    assert tr.moco is None and tr.k_enc is None
    assert "key" not in tr.snapshot()
    rec = tr.train_epoch(0)
    assert rec["loss_cl"] == [0.0] * len(rec["total"])
    for o, a, t in zip(rec["loss_ori"], rec["loss_aug"], rec["total"]):
        # the losses are float32 scalars: their float32 sum, bit for bit
        assert np.float32(t) == np.float32(o) + np.float32(a)
    tr.restore(tr.snapshot())


def test_batch_loss_without_keys_has_no_contrastive_term():
    tr, store, _ = tiny_setup(alpha=0.5)
    batch = tr._batches()[1]
    src, dst, tss = store.src[batch], store.dst[batch], store.ts[batch]
    neg = dst[::-1].copy()
    args = (tr.q_enc, tr.learner, tr.q_enc.plan(
        tr.train_index.prefix(int(batch[0])), np.concatenate([src, dst, neg]),
        np.concatenate([tss, tss, tss])))
    kw = dict(seed=5, queue=None, alpha=0.5, tau=0.2)
    ori, aug, cl, total = tt.batch_loss(*args, keys=None, **kw)
    assert cl is None
    assert np.float32(total.values) == (np.float32(ori.values)
                                        + np.float32(aug.values))
    rng = np.random.default_rng(0)
    keys = rng.standard_normal((2 * len(batch), tr.cfg.d_model))
    kw["queue"] = rng.standard_normal((16, tr.cfg.d_model))
    ori2, aug2, cl2, total2 = tt.batch_loss(*args, keys=keys, **kw)
    assert float(cl2.values) > 0.0
    assert float(ori2.values) == float(ori.values)
    assert float(aug2.values) == float(aug.values)
    want = float(ori2.values) + float(aug2.values) + 0.5 * float(cl2.values)
    assert abs(float(total2.values) - want) <= 1e-6 * max(1.0, abs(want))


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("strategy", ["one-hop", "third-hop", "random"])
def test_batch_loss_on_a_prefix_equals_the_index_below_the_batch(strategy,
                                                                 layers):
    """A batch's queries run on the train index's prefix at its first
    event: every loss and every gradient equals, bit for bit, those on
    the index built over the usable events below that event."""
    store = synth_generate(2, 20, 20, 700, 0.1, seed=11)
    split = chronological_split(store, mask_frac=0.1, seed=2)
    cfg = tt.RunConfig(**dict(TINY, strategy=strategy, layers=layers,
                              etgnn_layers=layers, fanouts="3,2,2"),
                       alpha=0.5, k=3)
    tr = tt.Trainer(store, split, cfg, 0)
    batch = tr._batches()[2]
    src, dst, tss = store.src[batch], store.dst[batch], store.ts[batch]
    rng = np.random.default_rng(1)
    neg = rng.permutation(dst)
    keys = rng.standard_normal((2 * len(batch), cfg.d_model))
    queue = rng.standard_normal((16, cfg.d_model))
    usable = split.usable_train_ids
    runs = []
    for index in (tr.train_index.prefix(int(batch[0])),
                  NeighborIndex.build(store, usable[usable < batch[0]])):
        for p in tr.opt.params:
            p.zero_grad()
        with ad.Tape() as tape:
            plan = tr.q_enc.plan(index, np.concatenate([src, dst, neg]),
                                 np.concatenate([tss, tss, tss]))
            losses = tt.batch_loss(tr.q_enc, tr.learner, plan, seed=5,
                                   keys=keys, queue=queue, alpha=0.5, tau=0.2)
            tape.backward(losses[3])
        runs.append([x.values.tobytes() for x in losses]
                    + [p.grad.tobytes() for p in tr.opt.params])
    assert runs[0] == runs[1]


def test_two_epochs_decrease_training_loss():
    tr, _, _ = tiny_setup(alpha=0.0)
    r0 = tr.train_epoch(0)
    r1 = tr.train_epoch(1)
    assert np.mean(r1["total"]) < np.mean(r0["total"])


def test_key_params_start_equal_to_query_params():
    tr, _, _ = tiny_setup()
    key = tr.moco.key_params.state_dict()
    query = tr.q_params.state_dict()
    assert list(key) == list(query)
    for name in query:
        assert np.array_equal(key[name], query[name]), name


def test_key_params_own_their_arrays():
    # moco_step writes the key arrays in place: the query must not move
    tr, _, _ = tiny_setup()
    for kp, qp in zip(tr.moco.key_params.parameters(),
                      tr.q_params.parameters()):
        assert not np.shares_memory(kp.values, qp.values), qp.name
    query = tr.q_params.state_dict()
    for p in tr.moco.key_params.parameters():
        p.values += 1.0
    tt.moco_step(tr.moco, tr.q_params, np.ones((2, tr.q_params.d_model)))
    for name, values in tr.q_params.state_dict().items():
        assert values.tobytes() == query[name].tobytes(), name


def test_key_encoder_untouched_by_training_gradients():
    tr, _, _ = tiny_setup()
    tr.train_epoch(0)
    for p in tr.moco.key_params.parameters():
        assert not p.requires_grad
        assert p.grad is None


def test_end_to_end_determinism_same_seed():
    a, _, _ = tiny_setup(seed=7)
    b, _, _ = tiny_setup(seed=7)
    a.fit(val_limit=200)
    b.fit(val_limit=200)
    ra = a.evaluate("transductive", "test")
    rb = b.evaluate("transductive", "test")
    assert ra.ap == rb.ap
    assert ra.acc == rb.acc


def test_earlier_batches_unaffected_by_later_event_change():
    # chronological training: an event's features reach only batches that
    # start after it; batches up to and including its own see nothing
    store = synth_generate(2, 20, 20, 700, 0.1, seed=11)
    split = chronological_split(store, mask_frac=0.1, seed=2)
    pick = int(split.usable_train_ids[150])   # sits inside batch 1
    feats = store.edge_features.copy()
    feats[pick] += 9.0
    from tgsl.graph import EventStore
    mut = EventStore(store.src, store.dst, store.ts, store.node_features,
                     feats, store.num_users)
    recs = []
    for st in (store, mut):
        sp = chronological_split(st, mask_frac=0.1, seed=2)
        cfg = tt.RunConfig(**dict(TINY, max_epochs=1), alpha=0.0, k=3)
        tr = tt.Trainer(st, sp, cfg, seed=0)
        recs.append(tr.train_epoch(0))
    assert recs[0]["total"][0] == recs[1]["total"][0]
    assert recs[0]["total"][1] == recs[1]["total"][1]
    assert recs[0]["total"][-1] != recs[1]["total"][-1]


def test_evaluate_rejects_empty_sets_and_bad_setting():
    tr, _, _ = tiny_setup()
    with pytest.raises(ValueError, match="unknown setting"):
        tr.evaluate("semi-inductive")


def test_evaluate_reports_both_settings():
    tr, _, _ = tiny_setup(alpha=0.0)
    tr.fit(val_limit=200)
    trans = tr.evaluate("transductive", "test")
    induc = tr.evaluate("inductive", "test")
    for rep in (trans, induc):
        assert 0.0 <= rep.acc <= 1.0
        assert 0.0 <= rep.ap <= 1.0
    assert trans.setting == "transductive"


@pytest.mark.parametrize("use_augmented", [True, False])
def test_evaluate_records_nothing(use_augmented):
    """Evaluation runs with no tape open: no op records, so every
    parameter's gradient stays at zero."""
    tr, _, _ = tiny_setup(alpha=0.5)
    tr.evaluate("transductive", "val", use_augmented=use_augmented)
    grads = [p.grad for p in tr.opt.params]
    assert len(grads) and all(not g.any() for g in grads)


def test_random_strategy_runs_no_learner_and_keeps_it_out_of_adam(
        monkeypatch):
    """Random candidates borrow no edge row, so no tgsl tensor reaches
    rho: the ET-GNN and the LSTM never run, the tgsl tensors are not in
    Adam and stay at their init, and the snapshot still holds them."""
    from tgsl import structure

    def never(*args, **kwargs):
        raise AssertionError("the learner ran under strategy=random")

    monkeypatch.setattr(structure, "etgnn_forward", never)
    monkeypatch.setattr(structure, "context_predict_batch", never)
    store = synth_generate(2, 20, 20, 700, 0.1, seed=11)
    split = chronological_split(store, mask_frac=0.1, seed=2)
    cfg = tt.RunConfig(**dict(TINY, strategy="random"), alpha=0.5, k=3)
    tr = tt.Trainer(store, split, cfg, 0)
    assert not tr.learner.learns
    init = tr.tgsl_params.state_dict()
    in_adam = {id(p) for p in tr.opt.params}
    assert not any(id(p) in in_adam for p in tr.tgsl_params.parameters())
    tr.train_epoch(0)
    tr.evaluate("transductive", "val", limit=100)
    snap = tr.snapshot()
    assert list(snap["tgsl"]) == list(init)
    for name, values in init.items():
        assert snap["tgsl"][name].tobytes() == values.tobytes(), name


@pytest.mark.parametrize("strategy", ["one-hop", "third-hop", "random"])
@pytest.mark.parametrize("setting", ["transductive", "inductive"])
def test_evaluate_builds_contexts_once(strategy, setting, monkeypatch):
    """The cut and the parameters are fixed over an evaluate call, so a
    learning learner builds every scored node's context in one LSTM call
    and the ET-GNN in one forward over one visible window of them all;
    under random none of them runs."""
    from tgsl import structure
    calls = []

    def counted(name):
        fn = getattr(structure, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(structure, name, wrapper)

    for name in ("context_predict_batch", "etgnn_forward", "visible_window"):
        counted(name)
    store = synth_generate(2, 20, 20, 700, 0.1, seed=11)
    split = chronological_split(store, mask_frac=0.1, seed=2)
    cfg = tt.RunConfig(**dict(TINY, strategy=strategy, batch_size=8),
                       alpha=0.0, k=3)
    tr = tt.Trainer(store, split, cfg, 0)
    assert len(tr._eval_ids(setting, "test")) > cfg.batch_size
    tr.evaluate(setting, "test")
    once = 1 if strategy != "random" else 0
    assert calls == ["visible_window", "etgnn_forward",
                     "context_predict_batch"] * once


def test_training_and_evaluation_score_through_one_path(monkeypatch):
    """Every scored batch takes one `score_view` call, in training and in
    evaluation with and without the augmented view; `encode_batch` is
    entered only from inside it, and `propose` gets its sources from the
    stacked rows by one rule in both."""
    from tgsl.encoder import TgatEncoder
    from tgsl.structure import StructureLearner

    def proposed(nodes):        # the rows a scored batch proposes for
        return nodes[:2 * (len(nodes) // 3)]

    log, inside = [], []
    score_view = tt.score_view
    propose = StructureLearner.propose
    encode_batch = TgatEncoder.encode_batch

    def spy_score(enc, learner, inputs, view, nodes, ts, **kw):
        log.append(("score", learner is not None, np.array(nodes)))
        inside.append(True)
        try:
            return score_view(enc, learner, inputs, view, nodes, ts, **kw)
        finally:
            inside.pop()

    def spy_propose(self, inputs, src_nodes, **kw):
        log.append(("propose", np.array(src_nodes)))
        return propose(self, inputs, src_nodes, **kw)

    def spy_encode(self, *args, **kw):
        assert inside, "encode_batch entered outside score_view"
        log.append(("encode",))
        return encode_batch(self, *args, **kw)

    monkeypatch.setattr(tt, "score_view", spy_score)
    monkeypatch.setattr(StructureLearner, "propose", spy_propose)
    monkeypatch.setattr(TgatEncoder, "encode_batch", spy_encode)
    tr, _, _ = tiny_setup()
    n_eval = math.ceil(len(tr._eval_ids("transductive", "val"))
                       / tr.cfg.batch_size)
    for run, batches, augmented in (
            (lambda: tr.train_epoch(0), len(tr._batches()), True),
            (lambda: tr.evaluate("transductive", "val"), n_eval, True),
            (lambda: tr.evaluate("transductive", "val",
                                 use_augmented=False), n_eval, False)):
        log.clear()
        run()
        per_batch = 3 if augmented else 2
        assert len(log) == batches * per_batch
        for i in range(0, len(log), per_batch):
            kind, with_learner, nodes = log[i]
            assert kind == "score" and with_learner == augmented
            if augmented:
                assert log[i + 1][0] == "propose"
                assert np.array_equal(log[i + 1][1], proposed(nodes))
            assert log[i + per_batch - 1] == ("encode",)
