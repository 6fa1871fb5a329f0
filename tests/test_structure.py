import numpy as np
import pytest

from tgsl import autodiff as ad
from tgsl import structure as ts
from tgsl.encoder import EncoderParams, TgatEncoder, time_frequencies
from tgsl.graph import (EventStore, NeighborIndex, chronological_split, ranks,
                        synth_generate)
from tgsl.training import RunConfig, Trainer


def single_edge_store(t=0.0):
    return EventStore([0], [1], [t],
                      np.zeros((2, 2), dtype=np.float32),
                      np.zeros((1, 2), dtype=np.float32))


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_tgsl_params_hold_no_last_node_update(layers):
    params = ts.TgslParams(4, 2, 3, layers=layers, seed=0)
    names = [p.name for p in params.parameters()]
    want = [f"tgsl.l{l}.{w}" for l in range(layers)
            for w in (("wh", "wf") if l < layers - 1 else ("wf",))]
    assert names == want + ["tgsl.lstm.wx", "tgsl.lstm.wh", "tgsl.lstm.b"]
    assert len(names) == 2 * layers + 2


def test_etgnn_zero_weights_zero_output():
    store = single_edge_store()
    params = ts.TgslParams(4, 2, 2, layers=2, seed=0)
    for p in params.parameters():
        if p.name.startswith("tgsl.l"):
            p.values[...] = 0.0
    out = ts.etgnn_forward(np.array([0]), store, params)
    assert np.all(out.edge_f.values == 0)


def test_etgnn_hand_computed_two_layers():
    """Events (0,1), (0,2), (1,2) with random raw features: node 0 has
    degree 2, so its layer-1 state is a true mean of two messages, and it
    reaches the layer-2 rows of both its edges. Recomputed in float64 with
    per-node loops."""
    rng = np.random.default_rng(0)
    src, dst, t = [0, 0, 1], [1, 2, 2], [0.5, 1.5, 4.0]
    store = EventStore(src, dst, t, rng.standard_normal((3, 2)),
                       rng.standard_normal((3, 3))[[2, 0, 1]])
    dm = 4
    params = ts.TgslParams(dm, 2, 3, layers=2, seed=3, dtype=np.float64)
    out = ts.etgnn_forward(np.arange(3), store, params)

    relu = lambda v: np.maximum(v, 0.0)
    w = {p.name: p.values for p in params.parameters()}
    h0 = store.node_features
    f0 = store.edge_features
    te = [np.cos(ti * time_frequencies(dm)) for ti in t]
    h1 = []
    for v in range(3):
        msgs = [np.concatenate([h0[d if s == v else s], f0[e], te[e]])
                for e, (s, d) in enumerate(zip(src, dst)) if v in (s, d)]
        h1.append(relu(np.concatenate([h0[v], np.mean(msgs, axis=0)])
                       @ w["tgsl.l0.wh"]))
    f1 = [relu(np.concatenate([f0[e], h0[s], h0[d], te[e]]) @ w["tgsl.l0.wf"])
          for e, (s, d) in enumerate(zip(src, dst))]
    f2 = [relu(np.concatenate([f1[e], h1[s], h1[d], te[e]]) @ w["tgsl.l1.wf"])
          for e, (s, d) in enumerate(zip(src, dst))]
    assert np.abs(np.stack(f2)).sum() > 0
    assert np.allclose(out.edge_f.values, np.stack(f2), rtol=1e-12,
                       atol=1e-14)


def test_etgnn_duplicate_neighbors_mean_idempotent():
    # k identical events contribute the same mean message as one of them,
    # so every layer-2 edge row equals the single event's row
    feats = np.array([[0.5, -0.2]], dtype=np.float32)
    one = EventStore([0], [1], [2.0], np.zeros((2, 2), np.float32), feats)
    three = EventStore([0, 0, 0], [1, 1, 1], [2.0, 2.0, 2.0],
                       np.zeros((2, 2), np.float32), feats[[0, 0, 0]])
    params = ts.TgslParams(4, 2, 2, layers=2, seed=1)
    f1 = ts.etgnn_forward(np.array([0]), one, params).edge_f.values
    f3 = ts.etgnn_forward(np.arange(3), three, params).edge_f.values
    assert np.abs(f1).sum() > 0
    assert np.allclose(f3, np.repeat(f1, 3, axis=0), rtol=1e-6)


def test_etgnn_empty_window():
    store = single_edge_store()
    params = ts.TgslParams(4, 2, 2, layers=1, seed=0)
    out = ts.etgnn_forward(np.array([], dtype=np.int64), store, params)
    assert out.edge_f.shape == (0, 4)


def test_event_rows_of_no_ids_is_empty():
    for ids in (np.zeros(0, dtype=np.int64), np.array([3, 5])):
        rows = ts.EtgnnOutput(ids, None).event_rows([])
        assert rows.shape == (0,) and rows.dtype == np.int64


def test_event_rows_match_searchsorted():
    ids = np.array([4, 5, 8, 10])
    q = np.array([10, 4, 8, 8, 5])
    rows = ts.EtgnnOutput(ids, None).event_rows(q)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, np.searchsorted(ids, q))


@pytest.mark.parametrize("ids, eids", [
    ([4, 5, 8, 10], [6]),          # a gap inside the range
    ([4, 5, 8, 10], [5, 9]),
    ([4, 5, 8, 10], [3]),          # below
    ([4, 5, 8, 10], [11]),         # above
    ([4, 5, 8, 10], [-1]),         # random's feature id
    ([0, 2], [-1]),                # must not wrap to the last row
    ([], [0]),                     # an empty window
])
def test_event_rows_outside_the_window_raise(ids, eids):
    out = ts.EtgnnOutput(np.asarray(ids, dtype=np.int64), None)
    with pytest.raises(KeyError):
        out.event_rows(eids)


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
    et = ts.etgnn_forward(np.arange(10), store, params)
    emb = context(0, et, idx, 4, params, t_cut=0.0)
    assert np.all(emb == 0)


def test_context_length_one_matches_hand_lstm():
    store = single_edge_store(t=1.0)
    params = ts.TgslParams(4, 2, 2, layers=1, seed=5, dtype=np.float64)
    idx = NeighborIndex.build(store)
    et = ts.etgnn_forward(np.array([0]), store, params)
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
    node = int(store.src[0])
    t_cut = float(store.ts[-1]) + 1.0
    _, ei, _ = idx.neighbors_before(node, t_cut, 10_000)
    assert len(ei) > 3

    et = ts.etgnn_forward(np.arange(len(store)), store, params)
    base = context(node, et, idx, 3, params, t_cut=t_cut)

    # perturb the feature of an edge OLDER than the last 3: no effect
    old_eid = int(ei[-4])
    feats = store.edge_features.copy()
    feats[old_eid] += 7.0
    mut = EventStore(store.src, store.dst, store.ts, store.node_features,
                     feats, store.num_users)
    et2 = ts.etgnn_forward(np.arange(len(mut)), mut, params)
    after = context(node, et2, NeighborIndex.build(mut), 3, params,
                    t_cut=t_cut)
    assert np.array_equal(base, after)


def test_context_records_19_tape_entries_per_step():
    # the gather, two products, two adds, four narrows, three sigmoids and
    # a tanh for the gates, the input gate's mask, then c and h in five;
    # the first step multiplies no zero state, so it has no h @ wh, its
    # add, forget gate (narrow, sigmoid), f * c or its add: 13 entries
    store = synth_generate(2, 6, 6, 120, 0.1, seed=7)
    idx = NeighborIndex.build(store)
    params = ts.TgslParams(4, 2, 2, layers=1, seed=2)
    with ad.no_grad():
        et = ts.etgnn_forward(np.arange(len(store)), store, params)
    et = ts.EtgnnOutput(et.event_ids, ad.param(et.edge_f.values))
    t_cut = float(store.ts[-1]) + 1.0
    for n_rnn in (1, 3, 5):
        # the ones with at least n_rnn events, so every step runs
        nodes = np.flatnonzero(np.diff(idx.offsets) >= n_rnn)
        assert len(nodes)
        with ad.Tape() as tape:
            ts.context_predict_batch(params, et, idx, nodes, t_cut, n_rnn)
        assert len(tape) == 13 + 19 * (n_rnn - 1)


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
    cands = ts.sample_candidates(np.array([0, 1, 2]), "random", idx,
                                 5, seed=3, t_ref=split.t_max_train,
                                 t_max=split.t_max_train, random_pool=pool)
    assert np.all(cands.feat_eid == -1)
    assert np.all(np.isin(cands.dst, pool))
    assert np.array_equal(cands.t_sample, cands.t_new)   # identity mapping


def test_one_hop_distinct_destination_bound():
    store = EventStore([0, 0, 0, 0, 0], [1, 2, 3, 1, 2],
                       [1.0, 2.0, 3.0, 4.0, 5.0],
                       np.zeros((4, 1), np.float32),
                       np.zeros((5, 1), np.float32))
    idx = NeighborIndex.build(store)
    cands = ts.sample_candidates(np.array([0]), "one-hop", idx, 10,
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
        c = ts.sample_candidates(src, "random", idx, 250, seed=s,
                                 t_ref=t_max, t_max=t_max, random_pool=pool)
        draws.append(c.t_new)
    t_new = np.concatenate(draws)
    assert len(t_new) >= 100_000
    stat = stats.kstest(t_new / t_max, "uniform").statistic
    assert stat < 1.63 / np.sqrt(len(t_new))   # 1% critical value


def test_isolated_node_yields_no_neighbor_candidates():
    store, split, idx, pool = candidate_fixture()
    lonely = store.num_nodes - 1
    cands = ts.sample_candidates(np.array([lonely]), "one-hop", idx, 5,
                                 seed=0, t_ref=0.5, t_max=10.0)
    assert len(cands) == 0


@pytest.mark.parametrize("strategy", ts.STRATEGIES)
def test_candidates_are_distinct_and_the_view_inserts_all(strategy):
    """Distinct sources on stores that repeat (user, item) pairs, at cuts
    mid-stream and after the last event: every call yields distinct
    (src, dst) pairs, and the view of a selection holds every selected
    edge with its fhat row and rho, in selection order."""
    for seed in range(4):
        store = synth_generate(2, 6, 6, 300, 0.2, seed=seed)
        pairs = store.src * store.num_nodes + store.dst
        assert len(np.unique(pairs)) < len(store)
        idx = NeighborIndex.build(store)
        nodes = np.arange(store.num_nodes)
        for t in (float(store.ts[150]), float(store.ts[-1]) + 1.0):
            cands = ts.sample_candidates(
                nodes, strategy, idx, 8, seed, t_ref=t, t_max=t,
                random_pool=nodes, fanouts=(3, 2, 2))
            assert len(cands) > store.num_nodes
            key = cands.src * store.num_nodes + cands.dst
            assert len(np.unique(key)) == len(key)
            sel = np.arange(0, len(cands), 2)
            rows = np.arange(len(cands), dtype=np.float64)
            fhat, rho = ad.constant(rows[:, None]), ad.constant(rows / 1e3)
            view = ts.build_augmented_view(idx, cands, sel, fhat, rho)
            assert np.array_equal(view.cand_features.values[:, 0], sel)
            assert np.array_equal(view.rho.values, rho.values[sel])
            assert np.array_equal(np.sort(view.added.eid),
                                  np.repeat(np.arange(len(sel)), 2))


def test_unknown_strategy_rejected():
    store, split, idx, pool = candidate_fixture()
    with pytest.raises(ValueError, match="strategy"):
        ts.sample_candidates(np.array([0]), "two-hop", idx, 5, seed=0,
                             t_ref=1.0, t_max=1.0)


# ---------------------------------------------------------------------------
# time mapping

def time_map_one(z, f, t_new, t_ctx, t_sample):
    """Map one context and one candidate feature row to t_new through
    time_map_batch; t_ctx is the time the context was predicted at."""
    zh, fh = ts.time_map_batch(ad.constant(np.asarray(z)[None, :]),
                               ad.constant(np.asarray(f)[None, :]),
                               np.array([t_new]), t_ctx,
                               np.array([t_sample]))
    return zh.values[0], fh.values[0]


def test_time_map_identity_at_matching_times():
    z = np.array([1.0, -2.0, 0.5, 3.0])
    f = np.array([0.1, 0.2, 0.3, 0.4])
    zh, fh = time_map_one(z, f, 100.0, 100.0, 100.0)
    assert np.array_equal(zh, z)
    assert np.array_equal(fh, f)


def test_time_map_zero_context_stays_zero():
    zh, _ = time_map_one(np.zeros(4), np.ones(4), 31.4, 100.0, 77.7)
    assert np.all(zh == 0)


def test_time_map_matches_closed_form():
    rng = np.random.default_rng(0)
    z = rng.standard_normal(8)
    f = rng.standard_normal(8)
    zh, fh = time_map_one(z, f, 13.0, 50.0, 20.0)
    omega = time_frequencies(8)
    assert np.allclose(zh, z * (np.sin((13.0 - 50.0) * omega) + 1))
    assert np.allclose(fh, f * (np.sin((13.0 - 20.0) * omega) + 1))


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


def lexsort_topk(rho, src_of, k):
    """Per-source top-K through one (source, -rho, index) lexsort: the
    reference for the float sort followed by an id order."""
    order = np.lexsort((np.arange(len(rho)), -rho, src_of))
    return np.sort(order[ranks(src_of[order]) < k])


@pytest.mark.parametrize("high", [5, 2**16 + 30, 2**33])
@pytest.mark.parametrize("mode", ["stochastic", "noise-free"])
def test_topk_matches_lexsort_form(high, mode):
    """Unsorted sources from a few ids (past one or two 16-bit digits),
    and in noise-free mode repeated rows, so rho ties inside groups."""
    rng = np.random.default_rng(high)
    c = 700
    src = rng.choice(rng.integers(0, high, size=12), size=c)
    rows = rng.standard_normal((5, 3))[rng.integers(0, 5, size=c)]
    zh, fh = ad.constant(rows), ad.constant(np.ones((c, 3)))
    for k in (1, 3, 100):
        _, rho, sel = ts.gumbel_topk_select(zh, fh, src, k, 0.7, seed=k,
                                            mode=mode)
        if mode == "noise-free":
            assert len(np.unique(rho.values)) < c
        assert sel.tobytes() == lexsort_topk(rho.values, src, k).tobytes()


def lexsort_added_csr(num_nodes, add_src, add_dst, add_t):
    """The added edges' CSR with both endpoint lists stacked and one
    (owner, t, j) lexsort: the reference for AugmentedView's."""
    j = np.arange(len(add_src), dtype=np.int64)
    owners = np.concatenate([add_src, add_dst])
    order = np.lexsort((np.concatenate([j, j]),
                        np.concatenate([add_t, add_t]), owners))
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=num_nodes), out=offsets[1:])
    return (np.concatenate([add_dst, add_src])[order],
            np.concatenate([j, j])[order],
            np.concatenate([add_t, add_t])[order], offsets)


@pytest.mark.parametrize("num_nodes", [6, 2**16 + 9])
def test_added_csr_matches_lexsort_form(num_nodes):
    """Few endpoints and few times, so a node owns edges as source and as
    destination at one t, and self-loops: the (owner, t, j) lexsort."""
    rng = np.random.default_rng(num_nodes)
    base = NeighborIndex.build(EventStore(
        [0], [1], [1.0], np.zeros((num_nodes, 1)), np.zeros((1, 1))))
    ids = rng.integers(0, num_nodes, size=5)
    for c in (0, 1, 300):
        add_src, add_dst = rng.choice(ids, size=c), rng.choice(ids, size=c)
        add_t = rng.integers(0, 4, size=c).astype(np.float64)
        added = ts.AugmentedView(base, add_src, add_dst, add_t).added
        got = (added.nbr, added.eid, added.ts, added.offsets)
        want = lexsort_added_csr(num_nodes, add_src, add_dst, add_t)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert [x.dtype for x in got] == [x.dtype for x in want]


def test_first_of_each_matches_unique_form():
    rng = np.random.default_rng(3)
    for high in (1, 40, 2**16 + 3, 2**40):
        for m in (0, 1, 2000):
            key = rng.choice(rng.integers(0, high, size=50), size=m)
            want = np.sort(np.unique(key, return_index=True)[1])
            got = ts._first_of_each(key)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("etgnn_layers", [1, 2, 3])
def test_gradient_reaches_learner_parameters(etgnn_layers):
    store = synth_generate(2, 10, 10, 200, 0.1, seed=3)
    split = chronological_split(store)
    idx = NeighborIndex.build(store, split.usable_train_ids)
    params = ts.TgslParams(8, 2, 2, layers=etgnn_layers, seed=4)
    learner = ts.StructureLearner(params, store,
                                  RunConfig(strategy="one-hop", k=3, n_can=5,
                                            n_rnn=4))
    with ad.Tape() as tape:
        cut = idx.prefix(100)
        view, det = learner.propose(cut, store.src[100:130],
                                    t_ref=float(store.ts[100]),
                                    t_max=split.t_max_train, seed=6,
                                    view_base=cut)
        loss = ad.add(ad.sum_(view.rho),
                      ad.sum_(ad.mul(view.cand_features, view.cand_features)))
        tape.backward(loss)
    dead = [p.name for p in params.parameters()
            if p.grad is None or not np.abs(p.grad).sum() > 0]
    assert dead == []


# ---------------------------------------------------------------------------
# augmented view

def test_empty_selection_equals_original():
    store = synth_generate(2, 8, 8, 100, 0.1, seed=1)
    idx = NeighborIndex.build(store)
    view = ts.AugmentedView(idx)
    assert view.num_added == 0
    a = view.batch_neighbors(np.arange(5), np.full(5, 50.0), 6)
    b = idx.batch_neighbors(np.arange(5), np.full(5, 50.0), 6)
    assert len(a) == len(b) == 4
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert np.all(a[1] >= 0)


def view_with_one_edge(t_new):
    store = synth_generate(2, 8, 8, 100, 0.1, seed=1)
    idx = NeighborIndex.build(store)
    fhat = ad.constant(np.ones((1, 4)))
    rho = ad.constant(np.array([0.75]))
    view = ts.AugmentedView(idx, np.array([0]), np.array([9]),
                            np.array([t_new]), fhat, rho)
    return view, idx


def test_inserted_edge_visible_after_its_time():
    view, idx = view_with_one_edge(t_new=40.0)
    ids, eids, tss, mask = view.batch_neighbors(
        np.array([0]), np.array([41.0]), 50)
    hit = np.flatnonzero((mask > 0) & (eids < 0))
    assert len(hit) == 1
    row, col = 0, hit[0] % 50
    assert eids[row, col] == -1         # added edge j = 0
    assert ids[row, col] == 9
    assert tss[row, col] == 40.0
    # invisible to queries at or before t_new
    _, eids2, _, _ = view.batch_neighbors(np.array([0]),
                                          np.array([40.0]), 50)
    assert np.all(eids2 >= 0)


def lexsort_batch_neighbors(view, nodes, ts_, n):
    """The augmented merge as a four-key lexsort (pads first, then t, then
    base before added, then column or j): the reference for the stable
    argsort over the slot times."""
    ids, eids, tss, mask = view.base.batch_neighbors(nodes, ts_, n)
    a_ids, a_j, a_ts, a_mask = view.added.batch_neighbors(nodes, ts_, n)
    if not a_mask.any():
        return ids, eids, tss, mask
    b = len(ids)
    valid = np.concatenate([mask, a_mask], axis=1)
    t_all = np.concatenate([tss, a_ts], axis=1)
    kind = np.broadcast_to(np.repeat([0, 1], n), (b, 2 * n))
    index = np.concatenate([np.broadcast_to(np.arange(n), (b, n)), a_j],
                           axis=1)
    order = np.lexsort((index, kind, t_all, valid), axis=1)
    m = np.minimum(valid.sum(axis=1), n).astype(np.int64)
    col = np.arange(n)
    keep = col < m[:, None]
    take = np.take_along_axis(
        order, np.where(keep, 2 * n - m[:, None] + col, 0), axis=1)

    def pick(block, pad):
        return np.where(keep, np.take_along_axis(block, take, axis=1), pad)

    return (pick(np.concatenate([ids, a_ids], axis=1), 0),
            pick(np.concatenate([eids, -1 - a_j], axis=1), 0),
            pick(t_all, 0.0), keep.astype(np.float64))


@pytest.mark.parametrize("seed", range(4))
def test_augmented_merge_matches_lexsort_form(seed):
    """Added edges at base event times and several at one t, rows holding
    more than n entries: the same bytes as the four-key lexsort."""
    rng = np.random.default_rng(seed)
    store = synth_generate(2, 6, 6, 80, 0.1, seed=seed)   # integer times
    idx = NeighborIndex.build(store)
    c = 40
    add_src = rng.integers(0, store.num_nodes, size=c)
    add_dst = rng.integers(0, store.num_nodes, size=c)
    add_t = store.ts[rng.integers(0, len(store), size=c)]
    add_t[c // 2:] = add_t[0]
    nodes = np.repeat(np.arange(store.num_nodes), 3)
    tq = np.concatenate([add_t[:len(nodes) // 2], np.full(
        len(nodes) - len(nodes) // 2, store.ts[-1] + 1.0)])
    for base in (idx, idx.prefix(50)):
        view = ts.AugmentedView(base, add_src, add_dst, add_t,
                                ad.constant(np.ones((c, 2))),
                                ad.constant(np.full(c, 0.5)))
        for n in (1, 2, 3, 8, 40):
            got = view.batch_neighbors(nodes, tq, n)
            want = lexsort_batch_neighbors(view, nodes, tq, n)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
            assert [x.dtype for x in got] == [x.dtype for x in want]


def test_min_k_candidate_count_added_per_source():
    store = synth_generate(2, 10, 10, 300, 0.1, seed=2)
    split = chronological_split(store)
    idx = NeighborIndex.build(store, split.usable_train_ids)
    params = ts.TgslParams(8, 2, 2, layers=1, seed=4)
    learner = ts.StructureLearner(params, store,
                                  RunConfig(strategy="one-hop", k=2, n_can=6,
                                            n_rnn=4))
    cut = idx.prefix(150)
    view, det = learner.propose(cut, store.src[150:190],
                                t_ref=float(store.ts[150]),
                                t_max=split.t_max_train, seed=5,
                                view_base=cut)
    cands = det["candidates"]
    sel = det["selected"]
    per_source_cand = {s: np.count_nonzero(cands.src == s)
                       for s in np.unique(cands.src)}
    per_source_sel = {s: np.count_nonzero(cands.src[sel] == s)
                      for s in np.unique(cands.src)}
    for s, n_cand in per_source_cand.items():
        assert per_source_sel.get(s, 0) == min(2, n_cand)


@pytest.mark.parametrize("strategy", ts.STRATEGIES)
def test_one_hop_hot_path_makes_no_single_row_queries(monkeypatch, strategy):
    """Proposing (any strategy) and encoding on the augmented view run on
    batched range searches only; `neighbors_before` is the single-row
    query."""
    calls = []
    single_row = NeighborIndex.neighbors_before

    def counted(self, *args, **kwargs):
        calls.append(args)
        return single_row(self, *args, **kwargs)

    monkeypatch.setattr(NeighborIndex, "neighbors_before", counted)
    store = synth_generate(2, 10, 10, 300, 0.1, seed=2)
    split = chronological_split(store)
    idx = NeighborIndex.build(store, split.usable_train_ids)
    learner = ts.StructureLearner(ts.TgslParams(8, 2, 2, layers=1, seed=4),
                                  store, RunConfig(strategy=strategy, k=2,
                                                   n_can=6, n_rnn=4),
                                  np.arange(store.num_nodes))
    batch = np.arange(150, 190)
    cut = idx.prefix(150)
    view, _ = learner.propose(cut, store.src[batch],
                              t_ref=float(store.ts[150]),
                              t_max=split.t_max_train, seed=5,
                              view_base=cut)
    assert view.num_added > 0
    enc = TgatEncoder(EncoderParams(8, layers=2, heads=2, d_hidden=8),
                      store, n_nb=5)
    enc.encode_batch(view, store.src[batch], store.ts[batch])
    assert len(calls) == 0


def set_ops_window(index, nodes, t_ref, levels=2):
    """The visible window through np.unique, setdiff1d and union1d: the
    reference for the presence-array form."""
    level = seen = np.unique(np.asarray(nodes, dtype=np.int64))
    eids = []
    for _ in range(levels):
        lo, cut = index.ranges_before(level, t_ref)
        pos = ts._flat_ranges(lo, cut)
        if len(pos) == 0:
            break
        eids.append(index.eid[pos])
        level = np.setdiff1d(index.nbr[pos], seen)
        seen = np.union1d(seen, level)
        if len(level) == 0:
            break
    if not eids:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate(eids))


@pytest.mark.parametrize("levels", [1, 2, 4])
def test_visible_window_matches_set_ops_form(levels):
    rng = np.random.default_rng(levels)
    store = synth_generate(3, 40, 40, 1500, 0.2, seed=levels)
    idx = NeighborIndex.build(store, np.arange(0, 1500, 2))
    for m in (0, 1, 30):
        nodes = rng.integers(0, store.num_nodes, size=m)
        for t_ref, cut in ((0.0, idx), (700.0, idx),
                           (2000.0, idx.prefix(900))):
            got = ts.visible_window(cut, nodes, t_ref, levels)
            want = set_ops_window(cut, nodes, t_ref, levels)
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype


def test_visible_window_respects_cutoffs():
    store = synth_generate(2, 10, 10, 300, 0.1, seed=6)
    idx = NeighborIndex.build(store)
    win = ts.visible_window(idx.prefix(200), np.array([0, 1]),
                            float(store.ts[200]), levels=2)
    assert np.all(win < 200)
    assert np.all(store.ts[win] < store.ts[200])


@pytest.mark.parametrize("etgnn_layers", [1, 2, 3])
@pytest.mark.parametrize("strategy", ts.STRATEGIES)
def test_etgnn_rows_propose_reads_match_full_prefix(strategy, etgnn_layers):
    """Every ET-GNN edge row `propose` reads (each source's last n_rnn
    events for the context, and the borrowed candidate features) equals the
    row computed over the whole visible prefix. Three training batches
    build their inputs per batch; an evaluation builds them once over
    every scored node at t_max_train + 1 on the train index. A sparse
    store keeps the L-hop neighborhoods short of the full graph, so a
    window one ring too shallow shows."""
    store = synth_generate(2, 2000, 2000, 12_000, 0.1, seed=21)
    idx = NeighborIndex.build(store)
    params = ts.TgslParams(8, store.node_dim, store.edge_dim,
                           layers=etgnn_layers, seed=3, dtype=np.float64)
    cfg = RunConfig(strategy=strategy, k=2, n_can=6, n_rnn=4,
                    fanouts="3,2,2", etgnn_layers=etgnn_layers)
    learner = ts.StructureLearner(params, store, cfg,
                                  np.arange(store.num_nodes))
    cases = []  # (index, sources, t_ref, seed, visible prefix, inputs)
    for start in (6000, 9000, 11_990):
        batch = np.arange(start, start + 5)
        t_ref = float(store.ts[start])
        sources = np.unique(np.concatenate([store.src[batch],
                                            store.dst[batch]]))
        prefix = np.unique(idx.eid[(idx.ts < t_ref) & (idx.eid < start)])
        cases.append((idx.prefix(start), sources, t_ref, start, prefix,
                      None))
    split = chronological_split(store)
    train = NeighborIndex.build(store, split.usable_train_ids)
    scored = np.concatenate([store.src[split.test_ids],
                             store.dst[split.test_ids]])
    t_ref = split.t_max_train + 1.0
    cases.append((train, scored, t_ref, 0, split.usable_train_ids,
                  learner.inputs(train, scored, t_ref)))
    borrowed = 0
    for cut, sources, t_ref, seed, prefix, inputs in cases:
        _, det = learner.propose(cut, sources, t_ref=t_ref, t_max=t_ref,
                                 seed=seed, view_base=cut, inputs=inputs)
        _, ctx, _, mask = cut.batch_neighbors(sources, t_ref, cfg.n_rnn)
        feat = det["candidates"].feat_eid
        borrowed += int((feat >= 0).sum())
        if strategy == "random":
            # no row reaches rho, so propose runs no ET-GNN to read
            assert inputs is None
            assert det["etgnn"] is None and det["context"] is None
            continue
        rows = np.unique(np.concatenate([ctx[mask > 0], feat[feat >= 0]]))
        full = ts.etgnn_forward(prefix, store, params)
        et = det["etgnn"]
        got = et.edge_f.values[et.event_rows(rows)]
        want = full.edge_f.values[full.event_rows(rows)]
        assert len(rows) and np.abs(want).max() > 0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert (borrowed > 0) == (strategy != "random")


@pytest.mark.parametrize("strategy", ts.STRATEGIES)
def test_propose_feature_rows_are_borrowed_edge_rows(strategy, monkeypatch):
    """One-hop and third-hop candidates read the ET-GNN row of the edge
    they borrow; random candidates read zero rows."""
    store, split, idx, pool = candidate_fixture()
    params = ts.TgslParams(8, store.node_dim, store.edge_dim, layers=2,
                           seed=4)
    learner = ts.StructureLearner(
        params, store,
        RunConfig(strategy=strategy, k=2, n_can=4, n_rnn=3, fanouts="3,2,2"),
        pool)
    seen = []

    def spy(z_rows, f_rows, *args):
        seen.append(f_rows)
        return time_map(z_rows, f_rows, *args)

    time_map = ts.time_map_batch
    monkeypatch.setattr(ts, "time_map_batch", spy)
    t_ref = float(store.ts[300])
    cut = idx.prefix(300)
    _, det = learner.propose(cut, store.src[300:330], t_ref=t_ref,
                             t_max=split.t_max_train, seed=6, view_base=cut)
    (f_rows,) = seen
    feat, et = det["candidates"].feat_eid, det["etgnn"]
    assert f_rows.shape == (len(feat), 8) and len(feat)
    assert f_rows.dtype == np.float32
    if strategy == "random":
        assert np.all(feat == -1) and np.all(f_rows.values == 0)
    else:
        assert np.all(feat >= 0)
        assert np.array_equal(f_rows.values,
                              et.edge_f.values[et.event_rows(feat)])


@pytest.mark.parametrize("etgnn_layers", [1, 2])
@pytest.mark.parametrize("strategy", ["one-hop", "third-hop"])
def test_cached_propose_matches_per_batch_propose(strategy, etgnn_layers):
    """Evaluation's proposals from one set of learner inputs equal the
    per-batch path (window ET-GNN, then the batch's own contexts) byte for
    byte: selection, rho and the view's neighbor blocks, in both settings.
    The inputs' LSTM starts at the earliest column over all their nodes,
    so a batch whose nodes have short histories runs extra masked steps."""
    store = synth_generate(2, 30, 30, 1500, 0.1, seed=11)
    split = chronological_split(store, mask_frac=0.1, seed=2)
    cfg = RunConfig(d_model=8, layers=1, heads=2, d_hidden=8, n_nb=5, k=3,
                    n_can=5, n_rnn=40, strategy=strategy, fanouts="3,2,2",
                    etgnn_layers=etgnn_layers, alpha=0.0)
    tr = Trainer(store, split, cfg, 0)
    t_ref = split.t_max_train + 1.0
    extra_steps = added = 0
    for setting in ("transductive", "inductive"):
        ids = tr._eval_ids(setting, "test")
        with ad.no_grad():
            inputs = tr.learner.inputs(
                tr.train_index,
                np.concatenate([store.src[ids], store.dst[ids]]), t_ref)
            hist = tr.train_index.batch_neighbors(
                inputs.nodes, t_ref, cfg.n_rnn)[3].sum(axis=1)
            for bi in range(0, len(ids), 16):
                b = ids[bi:bi + 16]
                nodes = np.concatenate([store.src[b], store.dst[b],
                                        store.dst[b][::-1]])
                tss = np.tile(store.ts[b], 3)
                out = []
                for given in (inputs, None):
                    view, det = tr.learner.propose(
                        tr.train_index, nodes[:2 * len(b)], t_ref=t_ref,
                        t_max=split.t_max_train, seed=bi,
                        view_base=tr.full_index, mode="noise-free",
                        inputs=given)
                    out.append([x.tobytes() for x in (
                        det["selected"], det["rho"].values,
                        *view.batch_neighbors(nodes, tss, cfg.n_nb))])
                assert out[0] == out[1]
                added += view.num_added
                own = hist[np.isin(inputs.nodes, nodes)]
                extra_steps += int(own.max() < hist.max())
    assert extra_steps > 0 and added > 0
    outside = np.setdiff1d(np.arange(store.num_nodes), inputs.nodes)[:1]
    with pytest.raises(KeyError, match="learner inputs"):
        tr.learner.propose(tr.train_index, outside, t_ref=t_ref,
                           t_max=split.t_max_train, seed=0,
                           view_base=tr.full_index, inputs=inputs)
