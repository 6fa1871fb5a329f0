"""The vectorised one-hop sampling path against its per-row loop forms.

Each `ref_*` function below is the row-at-a-time implementation the array
code replaced, kept as the reference: neighbor windows, the augmented
view's merge, the context rows, one-hop candidates, the visible window and
the duplicate resolution of added edges. Every test asserts bitwise
equality on random stores with tied integer timestamps, repeated query
nodes, nodes without history, windows wider than the degree, self-loops,
and both with and without an event-id cutoff.
"""

import numpy as np
import pytest

from tgsl import autodiff as ad
from tgsl import structure as ts
from tgsl.encoder import TimeEncodingConfig
from tgsl.graph import EventStore, NeighborIndex


# ---------------------------------------------------------------------------
# reference implementations (row-at-a-time)

def ref_neighbors_before(index, node, t, n, max_eid=None):
    lo, hi = index.offsets[node], index.offsets[node + 1]
    tss = index.ts[lo:hi]
    cut = int(np.searchsorted(tss, t, side="left"))
    if max_eid is not None:
        cut = min(cut, int(np.searchsorted(index.eid[lo:hi], max_eid,
                                           side="left")))
    start = max(0, cut - n)
    sl = slice(lo + start, lo + cut)
    return index.nbr[sl], index.eid[sl], index.ts[sl]


def ref_batch_neighbors(index, nodes, ts_, n, max_eid=None):
    b = len(nodes)
    ids = np.zeros((b, n), dtype=np.int64)
    eids = np.zeros((b, n), dtype=np.int64)
    tss = np.zeros((b, n), dtype=np.float64)
    mask = np.zeros((b, n), dtype=np.float64)
    for i in range(b):
        nb, ei, tt = ref_neighbors_before(index, int(nodes[i]), float(ts_[i]),
                                          n, max_eid)
        k = len(nb)
        if k:
            ids[i, :k] = nb
            eids[i, :k] = ei
            tss[i, :k] = tt
            mask[i, :k] = 1.0
    return ids, eids, tss, mask


class RefAugmentedView:
    def __init__(self, base, add_src, add_dst, add_t, num_real_events):
        self.base = base
        self.num_real_events = num_real_events
        self._per_node = {}
        for j in range(len(add_src)):
            for a, bnode in ((add_src[j], add_dst[j]),
                             (add_dst[j], add_src[j])):
                self._per_node.setdefault(int(a), []).append(
                    (float(add_t[j]), j, int(bnode)))
        for lst in self._per_node.values():
            lst.sort()

    def batch_neighbors(self, nodes, ts_, n, max_eid=None):
        ids, eids, tss, mask = ref_batch_neighbors(self.base, nodes, ts_, n,
                                                   max_eid)
        aug = np.full(ids.shape, -1, dtype=np.int64)
        if not self._per_node:
            return ids, eids, tss, mask, aug
        for i in range(len(nodes)):
            adds = self._per_node.get(int(nodes[i]))
            if not adds:
                continue
            t_q = float(ts_[i])
            live = [(t, j, peer) for (t, j, peer) in adds if t < t_q]
            if not live:
                continue
            k = int(mask[i].sum())
            b_ids, b_eids, b_tss = (ids[i, :k].copy(), eids[i, :k].copy(),
                                    tss[i, :k].copy())
            merged = [(b_tss[c], 0, c, -1) for c in range(k)]
            merged += [(t, 1, j, peer) for (t, j, peer) in live]
            merged.sort(key=lambda r: (r[0], r[1], r[2]))
            merged = merged[-n:]
            for c, (t, kind, j, peer) in enumerate(merged):
                if kind == 0:
                    ids[i, c], eids[i, c] = b_ids[j], b_eids[j]
                    tss[i, c], aug[i, c] = t, -1
                else:
                    ids[i, c] = peer
                    eids[i, c] = self.num_real_events + j
                    tss[i, c] = t
                    aug[i, c] = j
                mask[i, c] = 1.0
            for c in range(len(merged), n):
                ids[i, c] = eids[i, c] = 0
                tss[i, c] = 0.0
                mask[i, c] = 0.0
                aug[i, c] = -1
        return ids, eids, tss, mask, aug


def ref_context_predict_batch(params, et, index, nodes, t_cut, n_rnn,
                              max_eid=None):
    nodes = np.asarray(nodes, dtype=np.int64)
    s = len(nodes)
    dm = params.d_model
    dtype = params.dtype
    rows = np.zeros((s, n_rnn), dtype=np.int64)
    mask = np.zeros((s, n_rnn), dtype=dtype)
    have = len(et.event_ids) > 0
    for i, u in enumerate(nodes):
        if not have:
            break
        _, ei, _ = ref_neighbors_before(index, int(u), t_cut, n_rnn, max_eid)
        k = len(ei)
        if k:
            rows[i, n_rnn - k:] = et.event_rows(ei)   # left padding
            mask[i, n_rnn - k:] = 1.0
    zeros = ad.constant(np.zeros((s, dm), dtype=dtype))
    if not mask.any():
        return zeros
    start = int(np.flatnonzero(mask.any(axis=0))[0])
    h, c = zeros, zeros
    wx, wh, b = (params["tgsl.lstm.wx"], params["tgsl.lstm.wh"],
                 params["tgsl.lstm.b"])
    for t in range(start, n_rnn):
        x = ad.take(et.edge_f, rows[:, t])
        gates = ad.add(ad.add(ad.matmul(x, wx), ad.matmul(h, wh)), b)
        i_g = ad.sigmoid(ad.narrow(gates, 1, 0, dm))
        f_g = ad.sigmoid(ad.narrow(gates, 1, dm, dm))
        g_g = ad.tanh(ad.narrow(gates, 1, 2 * dm, dm))
        o_g = ad.sigmoid(ad.narrow(gates, 1, 3 * dm, dm))
        c_new = ad.add(ad.mul(f_g, c), ad.mul(i_g, g_g))
        h_new = ad.mul(o_g, ad.tanh(c_new))
        m = ad.constant(mask[:, t:t + 1])
        km = ad.constant(1.0 - mask[:, t:t + 1])
        h = ad.add(ad.mul(h_new, m), ad.mul(h, km))
        c = ad.add(ad.mul(c_new, m), ad.mul(c, km))
    return h


def ref_one_hop_candidates(src_nodes, index, n_can, seed, *, t_ref, t_max,
                           max_eid=None):
    rng = np.random.default_rng(seed)
    src_out, dst_out, eid_out, tsamp_out = [], [], [], []
    for u in np.asarray(src_nodes, dtype=np.int64):
        u = int(u)
        nb, ei, tt = ref_neighbors_before(index, u, t_ref, index.degree(u),
                                          max_eid)
        if len(nb) == 0:
            continue
        order = rng.permutation(len(nb))
        seen = set()
        for j in order:
            v = int(nb[j])
            if v in seen:
                continue
            seen.add(v)
            src_out.append(u)
            dst_out.append(v)
            eid_out.append(int(ei[j]))
            tsamp_out.append(float(tt[j]))
            if len(seen) >= n_can:
                break
    t_new = rng.uniform(0.0, t_max, size=len(src_out))
    tsamp = np.asarray(tsamp_out, dtype=np.float64)
    return ts.CandidateBatch(src_out, dst_out, t_new, tsamp, eid_out,
                             "one-hop")


def ref_visible_window(index, nodes, t_ref, levels=2, max_eid=None):
    seen = set(int(u) for u in nodes)
    level = np.unique(np.asarray(nodes, dtype=np.int64))
    eids = []
    for _ in range(levels):
        nxt = []
        for u in level:
            nb, ei, _ = ref_neighbors_before(index, int(u), t_ref,
                                             index.degree(int(u)), max_eid)
            if len(ei):
                eids.append(ei)
                nxt.append(nb)
        if not nxt:
            break
        cand = np.unique(np.concatenate(nxt))
        level = np.array([v for v in cand if int(v) not in seen],
                         dtype=np.int64)
        seen.update(int(v) for v in level)
        if len(level) == 0:
            break
    if not eids:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate(eids))


def ref_dedupe(cands, sel, rho_values):
    """Positions kept by build_augmented_view's duplicate resolution."""
    sel = np.asarray(sel, dtype=np.int64)
    key = np.stack([cands.src[sel].astype(np.float64),
                    cands.dst[sel].astype(np.float64),
                    cands.t_new[sel]], axis=1)
    _, first, inv = np.unique(key, axis=0, return_index=True,
                              return_inverse=True)
    inv = inv.reshape(-1)
    if len(first) != len(sel):
        keep = np.zeros(len(first), dtype=np.int64)
        best = np.full(len(first), -np.inf)
        rv = rho_values[sel]
        for pos in range(len(sel)):
            g = inv[pos]
            if rv[pos] > best[g]:
                best[g] = rv[pos]
                keep[g] = pos
        sel = sel[np.sort(keep)]
    return sel


# ---------------------------------------------------------------------------
# random stores and queries

def random_store(seed, num_nodes=14, num_events=120, t_span=25):
    """Integer timestamps (many ties) and self-loops; the last two node ids
    never appear, so they have no history."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes - 2, size=num_events)
    dst = rng.integers(0, num_nodes - 2, size=num_events)
    dst[::11] = src[::11]                                  # self-loops
    tss = np.sort(rng.integers(0, t_span, size=num_events)).astype(float)
    feats = rng.standard_normal((num_events, 3)).astype(np.float32)
    return EventStore(src, dst, tss, np.arange(num_events),
                      np.zeros((num_nodes, 3), np.float32), feats)


def indexes(store, rng):
    """Full, subset and empty indexes over one store."""
    sub = np.sort(rng.choice(len(store), size=len(store) // 2, replace=False))
    return [NeighborIndex.build(store),
            NeighborIndex.build(store, sub),
            NeighborIndex.build(store, np.zeros(0, np.int64))]


def queries(store, rng, b=40):
    """Repeated nodes (including ones without history) at times that tie
    event times, fall between them, or lie before and after every event."""
    nodes = rng.integers(0, store.num_nodes, size=b)
    nodes[:6] = [0, 0, 0, store.num_nodes - 1, store.num_nodes - 2, 1]
    t = rng.integers(-1, int(store.ts.max()) + 3, size=b).astype(float)
    t[::5] += 0.5
    return nodes, t


def cutoffs(store):
    return [None, 0, len(store) // 3, len(store) + 5]


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


SEEDS = range(6)


# ---------------------------------------------------------------------------
# oracle checks

@pytest.mark.parametrize("seed", SEEDS)
def test_batch_neighbors_matches_loop(seed):
    rng = np.random.default_rng(seed)
    store = random_store(seed)
    for idx in indexes(store, rng):
        nodes, t = queries(store, rng)
        for n in (1, 3, 200):
            for max_eid in cutoffs(store):
                assert_same(idx.batch_neighbors(nodes, t, n, max_eid),
                            ref_batch_neighbors(idx, nodes, t, n, max_eid))
                for u, tq in zip(nodes[:8], t[:8]):
                    assert_same(
                        idx.neighbors_before(int(u), tq, n, max_eid),
                        ref_neighbors_before(idx, int(u), tq, n, max_eid))


def random_view(store, idx, rng, n_add=30):
    """Added edges at integer times (tying base and query times), with
    self-loops and edges on nodes without base history."""
    add_src = rng.integers(0, store.num_nodes, size=n_add)
    add_dst = rng.integers(0, store.num_nodes, size=n_add)
    add_src[:3] = add_dst[:3]
    add_src[3] = store.num_nodes - 1
    add_t = rng.integers(0, int(store.ts.max()) + 2, size=n_add).astype(float)
    add_t[4:6] = store.ts[:2]
    view = ts.AugmentedView(idx, add_src, add_dst, add_t,
                            ad.constant(np.ones((n_add, 2))),
                            ad.constant(np.full(n_add, 0.5)), len(store))
    ref = RefAugmentedView(idx, add_src, add_dst, add_t, len(store))
    return view, ref, add_t


@pytest.mark.parametrize("seed", SEEDS)
def test_augmented_merge_matches_loop(seed):
    rng = np.random.default_rng(100 + seed)
    store = random_store(seed)
    for idx in indexes(store, rng):
        view, ref, add_t = random_view(store, idx, rng)
        nodes, t = queries(store, rng)
        t[6:10] = add_t[:4]                     # query t == an added t
        for n in (1, 4, 200):
            for max_eid in cutoffs(store):
                assert_same(view.batch_neighbors(nodes, t, n, max_eid),
                            ref.batch_neighbors(nodes, t, n, max_eid))


def test_augmented_merge_without_additions_matches_loop():
    store = random_store(0)
    idx = NeighborIndex.build(store)
    none = np.zeros(0, np.int64)
    view = ts.AugmentedView(idx, none, none, np.zeros(0), None, None,
                            len(store))
    ref = RefAugmentedView(idx, none, none, np.zeros(0), len(store))
    nodes, t = queries(store, np.random.default_rng(0))
    assert_same(view.batch_neighbors(nodes, t, 5),
                ref.batch_neighbors(nodes, t, 5))


@pytest.mark.parametrize("seed", SEEDS)
def test_visible_window_matches_loop(seed):
    rng = np.random.default_rng(200 + seed)
    store = random_store(seed)
    for idx in indexes(store, rng):
        nodes, t = queries(store, rng, b=6)
        for levels in (1, 2, 3):
            for max_eid in cutoffs(store):
                t_ref = float(t[0])
                assert_same([ts.visible_window(idx, nodes, t_ref, levels,
                                               max_eid)],
                            [ref_visible_window(idx, nodes, t_ref, levels,
                                                max_eid)])


@pytest.mark.parametrize("seed", SEEDS)
def test_context_predict_matches_loop(seed):
    rng = np.random.default_rng(300 + seed)
    store = random_store(seed)
    params = ts.TgslParams(4, 3, 3, layers=1, seed=seed)
    cfg = TimeEncodingConfig(4)
    for idx in indexes(store, rng):
        nodes, t = queries(store, rng, b=12)
        t_cut = float(t[1])
        for max_eid in cutoffs(store):
            window = ref_visible_window(idx, nodes, t_cut, 1, max_eid)
            et = ts.etgnn_forward(window, store, params, cfg)
            for n_rnn in (1, 3, 50):
                got = ts.context_predict_batch(params, et, idx, nodes, t_cut,
                                               n_rnn, max_eid)
                want = ref_context_predict_batch(params, et, idx, nodes,
                                                 t_cut, n_rnn, max_eid)
                assert_same([got.values], [want.values])


@pytest.mark.parametrize("seed", SEEDS)
def test_one_hop_candidates_match_loop(seed):
    rng = np.random.default_rng(400 + seed)
    store = random_store(seed)
    for idx in indexes(store, rng):
        nodes, t = queries(store, rng, b=15)
        for n_can in (0, 1, 3, 100):
            for max_eid in cutoffs(store):
                kw = dict(t_ref=float(t[0]), t_max=float(store.ts.max()),
                          max_eid=max_eid)
                got = ts.sample_candidates(nodes, "one-hop", idx, store,
                                           n_can, seed, **kw)
                want = ref_one_hop_candidates(nodes, idx, n_can, seed, **kw)
                fields = ("src", "dst", "t_new", "t_sample", "feat_eid")
                assert_same([getattr(got, f) for f in fields],
                            [getattr(want, f) for f in fields])


@pytest.mark.parametrize("seed", SEEDS)
def test_dedupe_matches_loop(seed):
    """Forced duplicate (src, dst, t_new) keys, with tied rho inside some
    groups: the larger rho wins, the earlier candidate on ties."""
    rng = np.random.default_rng(500 + seed)
    store = random_store(seed)
    idx = NeighborIndex.build(store)
    c = 60
    src = rng.integers(0, 4, size=c)
    dst = rng.integers(0, 3, size=c)
    t_new = rng.integers(0, 3, size=c).astype(float)
    cands = ts.CandidateBatch(src, dst, t_new, t_new, np.full(c, -1),
                              "random")
    rho = rng.choice([0.2, 0.5, 0.9], size=c).astype(np.float32)
    sel = np.sort(rng.choice(c, size=40, replace=False))
    fhat = ad.constant(np.arange(c, dtype=np.float64)[:, None])
    view = ts.build_augmented_view(idx, cands, sel, fhat, ad.constant(rho),
                                   len(store))
    want = ref_dedupe(cands, sel, rho)
    assert len(want) < len(sel)
    assert_same([view.cand_features.values[:, 0].astype(np.int64),
                 view.rho.values],
                [want, rho[want]])
