import numpy as np
import pytest

from tgsl import autodiff as ad
from tgsl import structure as ts
from tgsl.encoder import EncoderParams, TgatEncoder, TimeEncodingConfig
from tgsl.graph import EventStore, NeighborIndex, chronological_split, synth_generate
from tgsl.training import RunConfig


def single_edge_store(t=0.0):
    return EventStore([0], [1], [t], [0],
                      np.zeros((2, 2), dtype=np.float32),
                      np.zeros((1, 2), dtype=np.float32))


def test_etgnn_zero_weights_zero_output():
    store = single_edge_store()
    params = ts.TgslParams(4, 2, 2, layers=2, seed=0)
    for l in range(2):
        for w in ("wh", "wf"):
            params[f"tgsl.l{l}.{w}"].values[...] = 0.0
    out = ts.etgnn_forward(np.array([0]), store, params,
                           TimeEncodingConfig(4))
    assert np.all(out.node_h.values == 0)
    assert np.all(out.edge_f.values == 0)


def test_etgnn_hand_computed_single_layer():
    """One edge (0, 1) at t=0 with zero raw features: the mean message is
    (0-block, 0-block, TE(0)=1-block); recompute h and f by hand."""
    store = single_edge_store(t=0.0)
    dm = 4
    params = ts.TgslParams(dm, 2, 2, layers=1, seed=3, dtype=np.float64)
    cfg = TimeEncodingConfig(dm)
    out = ts.etgnn_forward(np.array([0]), store, params, cfg)

    wh = params["tgsl.l0.wh"].values
    wf = params["tgsl.l0.wf"].values
    msg = np.concatenate([np.zeros(2), np.zeros(2), np.ones(dm)])  # h,f,TE(0)
    h_want = np.maximum(np.concatenate([np.zeros(2), msg]) @ wh, 0)
    f_in = np.concatenate([np.zeros(2), np.zeros(2), np.zeros(2), np.ones(dm)])
    f_want = np.maximum(f_in @ wf, 0)
    assert np.allclose(out.node_h.values[0], h_want, rtol=1e-12)
    assert np.allclose(out.node_h.values[1], h_want, rtol=1e-12)
    assert np.allclose(out.edge_f.values[0], f_want, rtol=1e-12)


def test_etgnn_duplicate_neighbors_mean_idempotent():
    # k identical events contribute the same mean message as one of them
    feats = np.array([[0.5, -0.2]], dtype=np.float32)
    one = EventStore([0], [1], [2.0], [0], np.zeros((2, 2), np.float32),
                     feats)
    three = EventStore([0, 0, 0], [1, 1, 1], [2.0, 2.0, 2.0], [0, 0, 0],
                       np.zeros((2, 2), np.float32), feats)
    params = ts.TgslParams(4, 2, 2, layers=2, seed=1)
    cfg = TimeEncodingConfig(4)
    h1 = ts.etgnn_forward(np.array([0]), one, params, cfg).node_h.values
    h3 = ts.etgnn_forward(np.arange(3), three, params, cfg).node_h.values
    assert np.allclose(h1, h3, rtol=1e-6)


def test_etgnn_empty_window():
    store = single_edge_store()
    params = ts.TgslParams(4, 2, 2, layers=1, seed=0)
    out = ts.etgnn_forward(np.array([], dtype=np.int64), store, params,
                           TimeEncodingConfig(4))
    assert out.edge_f.shape == (0, 4)


# ---------------------------------------------------------------------------
# context prediction

def lstm_cell_oracle(x, h, c, wx, wh, b):
    gates = x @ wx + h @ wh + b
    dm = h.shape[-1]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, g, o = (gates[..., :dm], gates[..., dm:2 * dm],
                  gates[..., 2 * dm:3 * dm], gates[..., 3 * dm:])
    c2 = sig(f) * c + sig(i) * np.tanh(g)
    return sig(o) * np.tanh(c2), c2


def context(node, et, idx, n_rnn, params, t_cut):
    """One node's context vector through context_predict_batch."""
    return ts.context_predict_batch(params, et, idx, np.array([node]), t_cut,
                                    n_rnn).values[0]


def test_context_no_history_is_zero():
    store = synth_generate(2, 4, 4, 20, 0.0, seed=0)
    idx = NeighborIndex.build(store)
    params = ts.TgslParams(4, 2, 2, layers=1, seed=2)
    cfg = TimeEncodingConfig(4)
    et = ts.etgnn_forward(np.arange(10), store, params, cfg)
    emb = context(0, et, idx, 4, params, t_cut=0.0)
    assert np.all(emb == 0)


def test_context_length_one_matches_hand_lstm():
    store = single_edge_store(t=1.0)
    params = ts.TgslParams(4, 2, 2, layers=1, seed=5, dtype=np.float64)
    cfg = TimeEncodingConfig(4)
    idx = NeighborIndex.build(store)
    et = ts.etgnn_forward(np.array([0]), store, params, cfg)
    got = context(0, et, idx, 3, params, t_cut=5.0)

    x = et.edge_f.values[0]
    h, _ = lstm_cell_oracle(x, np.zeros(4), np.zeros(4),
                            params["tgsl.lstm.wx"].values,
                            params["tgsl.lstm.wh"].values,
                            params["tgsl.lstm.b"].values)
    assert np.allclose(got, h, rtol=1e-12)


def test_context_depends_only_on_last_n_rnn_edges():
    store = synth_generate(2, 6, 6, 120, 0.1, seed=7)
    idx = NeighborIndex.build(store)
    params = ts.TgslParams(4, 2, 2, layers=1, seed=2)
    cfg = TimeEncodingConfig(4)
    node = int(store.src[0])
    t_cut = float(store.ts[-1]) + 1.0
    _, ei, _ = idx.neighbors_before(node, t_cut, 10_000)
    assert len(ei) > 3

    et = ts.etgnn_forward(np.arange(len(store)), store, params, cfg)
    base = context(node, et, idx, 3, params, t_cut=t_cut)

    # perturb the feature of an edge OLDER than the last 3: no effect
    old_eid = int(ei[-4])
    feats = store.edge_features.copy()
    feats[store.feat_ids[old_eid]] += 7.0
    mut = EventStore(store.src, store.dst, store.ts, store.feat_ids,
                     store.node_features, feats, store.num_users)
    et2 = ts.etgnn_forward(np.arange(len(mut)), mut, params, cfg)
    after = context(node, et2, NeighborIndex.build(mut), 3, params,
                    t_cut=t_cut)
    assert np.array_equal(base, after)


# ---------------------------------------------------------------------------
# candidate sampling

def candidate_fixture():
    store = synth_generate(2, 20, 20, 600, 0.2, seed=9)
    split = chronological_split(store)
    idx = NeighborIndex.build(store, split.usable_train_ids)
    pool = np.unique(np.concatenate(
        [store.src[split.usable_train_ids],
         store.dst[split.usable_train_ids]]))
    return store, split, idx, pool


def test_random_strategy_candidates():
    store, split, idx, pool = candidate_fixture()
    cands = ts.sample_candidates(np.array([0, 1, 2]), "random", idx, store,
                                 5, seed=3, t_ref=split.t_max_train,
                                 t_max=split.t_max_train, random_pool=pool)
    assert np.all(cands.feat_eid == -1)
    assert np.all(np.isin(cands.dst, pool))
    assert np.array_equal(cands.t_sample, cands.t_new)   # identity mapping


def test_one_hop_distinct_destination_bound():
    store = EventStore([0, 0, 0, 0, 0], [1, 2, 3, 1, 2],
                       [1.0, 2.0, 3.0, 4.0, 5.0], np.arange(5),
                       np.zeros((4, 1), np.float32),
                       np.zeros((5, 1), np.float32))
    idx = NeighborIndex.build(store)
    cands = ts.sample_candidates(np.array([0]), "one-hop", idx, store, 10,
                                 seed=1, t_ref=10.0, t_max=10.0)
    assert len(np.unique(cands.dst)) == len(cands.dst) <= 3
    assert np.all(cands.t_new <= 10.0)


def test_t_new_uniform_ks():
    from scipy import stats
    store, split, idx, pool = candidate_fixture()
    t_max = split.t_max_train
    src = np.arange(20)
    draws = []
    for s in range(140):
        c = ts.sample_candidates(src, "random", idx, store, 250, seed=s,
                                 t_ref=t_max, t_max=t_max, random_pool=pool)
        draws.append(c.t_new)
    t_new = np.concatenate(draws)
    assert len(t_new) >= 100_000
    stat = stats.kstest(t_new / t_max, "uniform").statistic
    assert stat < 1.63 / np.sqrt(len(t_new))   # 1% critical value


def test_isolated_node_yields_no_neighbor_candidates():
    store, split, idx, pool = candidate_fixture()
    lonely = store.num_nodes - 1
    cands = ts.sample_candidates(np.array([lonely]), "one-hop", idx, store,
                                 5, seed=0, t_ref=0.5, t_max=10.0)
    assert len(cands) == 0


def test_unknown_strategy_rejected():
    store, split, idx, pool = candidate_fixture()
    with pytest.raises(ValueError, match="strategy"):
        ts.sample_candidates(np.array([0]), "two-hop", idx, store, 5, seed=0,
                             t_ref=1.0, t_max=1.0)


# ---------------------------------------------------------------------------
# time mapping

def time_map_one(z, f, t_new, t_ctx, t_sample, cfg):
    """Map one context and one candidate feature row to t_new through
    time_map_batch; t_ctx is the time the context was predicted at."""
    zh, fh = ts.time_map_batch(ad.constant(np.asarray(z)[None, :]),
                               ad.constant(np.asarray(f)[None, :]),
                               np.array([t_new]), t_ctx,
                               np.array([t_sample]), cfg)
    return zh.values[0], fh.values[0]


def test_time_map_identity_at_matching_times():
    cfg = TimeEncodingConfig(4)
    z = np.array([1.0, -2.0, 0.5, 3.0])
    f = np.array([0.1, 0.2, 0.3, 0.4])
    zh, fh = time_map_one(z, f, 100.0, 100.0, 100.0, cfg)
    assert np.array_equal(zh, z)
    assert np.array_equal(fh, f)


def test_time_map_zero_context_stays_zero():
    cfg = TimeEncodingConfig(4)
    zh, _ = time_map_one(np.zeros(4), np.ones(4), 31.4, 100.0, 77.7, cfg)
    assert np.all(zh == 0)


def test_time_map_matches_closed_form():
    cfg = TimeEncodingConfig(8)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(8)
    f = rng.standard_normal(8)
    zh, fh = time_map_one(z, f, 13.0, 50.0, 20.0, cfg)
    assert np.allclose(zh, z * (np.sin((13.0 - 50.0) * cfg.omega) + 1))
    assert np.allclose(fh, f * (np.sin((13.0 - 20.0) * cfg.omega) + 1))


# ---------------------------------------------------------------------------
# Gumbel-Top-K selection

def test_noise_free_rho_is_sigmoid_of_logit_over_tau():
    zh = ad.constant(np.ones((4, 1)))
    fh = ad.constant(np.zeros((4, 1)))   # m = 0 everywhere
    m, rho, sel = ts.gumbel_topk_select(zh, fh, np.zeros(4), 2, 1.0, seed=0,
                                        mode="noise-free")
    assert np.allclose(m.values, 0.0)
    assert np.allclose(rho.values, 0.5)
    assert len(sel) == 2


def test_k_saturation_selects_all():
    zh = ad.constant(np.ones((3, 2)))
    fh = ad.constant(np.full((3, 2), 0.3))
    _, _, sel = ts.gumbel_topk_select(zh, fh, np.zeros(3), 10, 1.0, seed=1)
    assert np.array_equal(sel, [0, 1, 2])


def test_selection_rank_invariant_to_tau_with_paired_noise():
    rng = np.random.default_rng(4)
    zh = ad.constant(rng.standard_normal((40, 4)))
    fh = ad.constant(rng.standard_normal((40, 4)))
    src = np.repeat(np.arange(4), 10)
    _, _, s_1 = ts.gumbel_topk_select(zh, fh, src, 3, 1.0, seed=9)
    _, _, s_2 = ts.gumbel_topk_select(zh, fh, src, 3, 0.25, seed=9)
    assert np.array_equal(s_1, s_2)


def test_rho_open_interval_and_per_source_cap():
    rng = np.random.default_rng(5)
    zh = ad.constant(rng.standard_normal((60, 3)))
    fh = ad.constant(rng.standard_normal((60, 3)))
    src = np.repeat(np.arange(6), 10)
    _, rho, sel = ts.gumbel_topk_select(zh, fh, src, 4, 1.0, seed=2)
    assert np.all(rho.values > 0) and np.all(rho.values < 1)
    counts = np.bincount(src[sel])
    assert np.all(counts <= 4)


def test_bad_tau_and_k_rejected():
    zh = ad.constant(np.ones((2, 1)))
    with pytest.raises(ValueError, match="temperature"):
        ts.gumbel_topk_select(zh, zh, np.zeros(2), 1, 0.0, seed=0)
    with pytest.raises(ValueError, match="K"):
        ts.gumbel_topk_select(zh, zh, np.zeros(2), 0, 1.0, seed=0)


def test_gradient_reaches_learner_parameters():
    store = synth_generate(2, 10, 10, 200, 0.1, seed=3)
    split = chronological_split(store)
    idx = NeighborIndex.build(store, split.usable_train_ids)
    params = ts.TgslParams(8, 2, 2, layers=2, seed=4)
    learner = ts.StructureLearner(params, TimeEncodingConfig(8), store,
                                  RunConfig(strategy="one-hop", k=3, n_can=5,
                                            n_rnn=4))
    with ad.Tape() as tape:
        view, det = learner.propose(idx, store.src[100:130],
                                    t_ref=float(store.ts[100]),
                                    t_max=split.t_max_train, seed=6,
                                    view_base=idx, max_eid=100)
        loss = ad.add(ad.sum_(view.rho),
                      ad.sum_(ad.mul(view.cand_features, view.cand_features)))
        tape.backward(loss)
    total = sum(float(np.abs(p.grad).sum()) for p in params.parameters())
    assert total > 0


# ---------------------------------------------------------------------------
# augmented view

def test_empty_selection_equals_original():
    store = synth_generate(2, 8, 8, 100, 0.1, seed=1)
    idx = NeighborIndex.build(store)
    view = ts.AugmentedView(idx, np.zeros(0, np.int64), np.zeros(0, np.int64),
                            np.zeros(0), None, None, len(store))
    a = view.batch_neighbors(np.arange(5), np.full(5, 50.0), 6)
    b = idx.batch_neighbors(np.arange(5), np.full(5, 50.0), 6)
    for x, y in zip(a[:4], b):
        assert np.array_equal(x, y)
    assert np.all(a[4] == -1)


def view_with_one_edge(t_new):
    store = synth_generate(2, 8, 8, 100, 0.1, seed=1)
    idx = NeighborIndex.build(store)
    fhat = ad.constant(np.ones((1, 4)))
    rho = ad.constant(np.array([0.75]))
    view = ts.AugmentedView(idx, np.array([0]), np.array([9]),
                            np.array([t_new]), fhat, rho, len(store))
    return view, idx


def test_inserted_edge_visible_after_its_time():
    view, idx = view_with_one_edge(t_new=40.0)
    ids, eids, tss, mask, aug = view.batch_neighbors(
        np.array([0]), np.array([41.0]), 50)
    hit = np.flatnonzero(aug >= 0)
    assert len(hit) == 1
    row, col = 0, hit[0] % 50
    assert ids[row, col] == 9
    assert tss[row, col] == 40.0
    # invisible to queries at or before t_new
    _, _, _, _, aug2 = view.batch_neighbors(np.array([0]),
                                            np.array([40.0]), 50)
    assert np.all(aug2 == -1)


def test_dedupe_keeps_larger_rho():
    store = synth_generate(2, 8, 8, 100, 0.1, seed=1)
    idx = NeighborIndex.build(store)
    cands = ts.CandidateBatch([0, 0], [9, 9], [40.0, 40.0], [40.0, 40.0],
                              [-1, -1], "random")
    fhat = ad.constant(np.ones((2, 4)))
    rho = ad.constant(np.array([0.3, 0.8]))
    view = ts.build_augmented_view(idx, cands, np.array([0, 1]), fhat, rho,
                                   len(store))
    assert view.num_added == 1
    assert view.rho.values[0] == np.float64(0.8)


def test_min_k_candidate_count_added_per_source():
    store = synth_generate(2, 10, 10, 300, 0.1, seed=2)
    split = chronological_split(store)
    idx = NeighborIndex.build(store, split.usable_train_ids)
    params = ts.TgslParams(8, 2, 2, layers=1, seed=4)
    learner = ts.StructureLearner(params, TimeEncodingConfig(8), store,
                                  RunConfig(strategy="one-hop", k=2, n_can=6,
                                            n_rnn=4))
    view, det = learner.propose(idx, store.src[150:190],
                                t_ref=float(store.ts[150]),
                                t_max=split.t_max_train, seed=5,
                                view_base=idx, max_eid=150)
    cands = det["candidates"]
    sel = det["selected"]
    per_source_cand = {s: np.count_nonzero(cands.src == s)
                       for s in np.unique(cands.src)}
    per_source_sel = {s: np.count_nonzero(cands.src[sel] == s)
                      for s in np.unique(cands.src)}
    for s, n_cand in per_source_cand.items():
        assert per_source_sel.get(s, 0) == min(2, n_cand)


def test_one_hop_hot_path_makes_no_single_row_queries(monkeypatch):
    """One-hop proposing and encoding on the augmented view run on batched
    range searches only; `neighbors_before` is the single-row query."""
    calls = []
    single_row = NeighborIndex.neighbors_before

    def counted(self, *args, **kwargs):
        calls.append(args)
        return single_row(self, *args, **kwargs)

    monkeypatch.setattr(NeighborIndex, "neighbors_before", counted)
    store = synth_generate(2, 10, 10, 300, 0.1, seed=2)
    split = chronological_split(store)
    idx = NeighborIndex.build(store, split.usable_train_ids)
    te = TimeEncodingConfig(8)
    learner = ts.StructureLearner(ts.TgslParams(8, 2, 2, layers=1, seed=4),
                                  te, store,
                                  RunConfig(strategy="one-hop", k=2, n_can=6,
                                            n_rnn=4))
    batch = np.arange(150, 190)
    view, _ = learner.propose(idx, store.src[batch],
                              t_ref=float(store.ts[150]),
                              t_max=split.t_max_train, seed=5,
                              view_base=idx, max_eid=150)
    assert view.num_added > 0
    enc = TgatEncoder(EncoderParams(8, layers=2, heads=2, d_hidden=8),
                      te, store, n_nb=5)
    enc.encode_batch(view, store.src[batch], store.ts[batch], max_eid=150)
    assert len(calls) == 0


def test_visible_window_respects_cutoffs():
    store = synth_generate(2, 10, 10, 300, 0.1, seed=6)
    idx = NeighborIndex.build(store)
    win = ts.visible_window(idx, np.array([0, 1]), float(store.ts[200]),
                            levels=2, max_eid=200)
    assert np.all(win < 200)
    assert np.all(store.ts[win] < store.ts[200])
