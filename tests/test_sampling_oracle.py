"""The vectorised sampling path against its per-row loop forms.

Each `ref_*` function below is the row-at-a-time implementation the array
code replaced, kept as the reference: neighbor windows, the augmented
view's merge, the context rows, the candidates of all three strategies,
the visible window and the duplicate resolution of added edges. The
candidate references make the same generator calls in the same order as
the batched draws. Every test asserts bitwise equality on random stores
with tied integer timestamps, repeated query nodes, nodes without history,
windows wider than the degree, self-loops, and both on an index and on its
`prefix` at an event-id cutoff; the references take that cutoff as an
argument.
"""

import itertools

import numpy as np
import pytest

from tgsl import autodiff as ad
from tgsl import structure as ts
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
    def __init__(self, base, add_src, add_dst, add_t):
        self.base = base
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
        if not self._per_node:
            return ids, eids, tss, mask
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
                    tss[i, c] = t
                else:
                    ids[i, c] = peer
                    eids[i, c] = -1 - j
                    tss[i, c] = t
                mask[i, c] = 1.0
            for c in range(len(merged), n):
                ids[i, c] = eids[i, c] = 0
                tss[i, c] = 0.0
                mask[i, c] = 0.0
        return ids, eids, tss, mask


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


def ref_history(index, node, t, max_eid=None):
    return ref_neighbors_before(index, node, t, len(index.nbr), max_eid)


def ref_draw(index, nodes, t_ref, n, rng, max_eid=None):
    """The draw rule over rows `nodes`: one permutation of their histories
    concatenated in row order; then, per row, a walk over that order
    keeping the row's first occurrence of each neighbor, the first n, as
    (neighbor, event id, time) triples. One list per row."""
    hist = [(i, int(v), int(e), float(t))
            for i, u in enumerate(nodes)
            for v, e, t in zip(*ref_history(index, int(u), t_ref, max_eid))]
    perm = rng.permutation(len(hist))
    out = []
    for i in range(len(nodes)):
        picks, seen = [], set()
        for j in perm:
            row, v, e, t = hist[j]
            if row != i or v in seen or len(picks) >= n:
                continue
            seen.add(v)
            picks.append((v, e, t))
        out.append(picks)
    return out


def ref_candidates(src_nodes, ends, rng, t_max):
    """CandidateBatch of per-source (dst, eid, t_sample) lists, with t_new
    drawn last."""
    src_out = [int(u) for u, e in zip(src_nodes, ends) for _ in e]
    flat = [c for e in ends for c in e]
    t_new = rng.uniform(0.0, t_max, size=len(flat))
    return ts.CandidateBatch(src_out, [c[0] for c in flat], t_new,
                             np.asarray([c[2] for c in flat], np.float64),
                             [c[1] for c in flat])


def ref_one_hop_candidates(src_nodes, index, n_can, seed, *, t_ref, t_max,
                           max_eid=None):
    rng = np.random.default_rng(seed)
    ends = ref_draw(index, src_nodes, t_ref, n_can, rng, max_eid)
    return ref_candidates(src_nodes, ends, rng, t_max)


def ref_third_hop_candidates(src_nodes, index, n_can, seed, *, t_ref, t_max,
                             fanouts, max_eid=None):
    """Hop-major walk: each hop is one draw over every (source, frontier
    node) row, sources in order and each source's frontier in order; each
    source then keeps the nodes it has not visited yet (itself
    included)."""
    rng = np.random.default_rng(seed)
    src_nodes = [int(u) for u in src_nodes]
    visited = [{u} for u in src_nodes]
    frontier = [[u] for u in src_nodes]
    ends = [[] for _ in src_nodes]
    for fanout in fanouts:
        rows = [(i, w) for i in range(len(src_nodes)) for w in frontier[i]]
        draws = ref_draw(index, [w for _, w in rows], t_ref, fanout, rng,
                         max_eid)
        ends = [[] for _ in src_nodes]
        for (i, _), picks in zip(rows, draws):
            for v, e, t in picks:
                if v not in visited[i]:
                    visited[i].add(v)
                    ends[i].append((v, e, t))
        frontier = [[v for v, _, _ in nxt] for nxt in ends]
    return ref_candidates(src_nodes, [e[:n_can] for e in ends], rng, t_max)


def ref_random_candidates(src_nodes, pool, n_can, seed, *, t_max):
    """Per source, n_can + 1 pool entries drawn without replacement, step i
    popping the r-th entry left with r uniform on [0, len(pool) - i); the
    first n_can that are not the source, with t_sample = t_new and no
    borrowed feature."""
    rng = np.random.default_rng(seed)
    m = min(n_can + 1, len(pool))
    draws = rng.integers(0, len(pool) - np.arange(m), size=(len(src_nodes), m))
    src_out, dst_out = [], []
    for u, row in zip(src_nodes, draws):
        left = [int(v) for v in pool]
        picks = [v for v in (left.pop(int(r)) for r in row) if v != u][:n_can]
        src_out += [int(u)] * len(picks)
        dst_out += picks
    t_new = rng.uniform(0.0, t_max, size=len(src_out))
    return ts.CandidateBatch(src_out, dst_out, t_new, t_new,
                             np.full(len(src_out), -1))


def ref_visible_window(index, nodes, t_ref, levels=2, max_eid=None):
    seen = set(int(u) for u in nodes)
    level = np.unique(np.asarray(nodes, dtype=np.int64))
    eids = []
    for _ in range(levels):
        nxt = []
        for u in level:
            nb, ei, _ = ref_history(index, int(u), t_ref, max_eid)
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
    return EventStore(src, dst, tss, np.zeros((num_nodes, 3), np.float32),
                      feats)


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


def cut(idx, max_eid):
    """The index a query at cutoff `max_eid` runs on: its prefix there, or
    the index itself without a cutoff."""
    return idx if max_eid is None else idx.prefix(max_eid)


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
                assert_same(cut(idx, max_eid).batch_neighbors(nodes, t, n),
                            ref_batch_neighbors(idx, nodes, t, n, max_eid))
                for u, tq in zip(nodes[:8], t[:8]):
                    assert_same(
                        cut(idx, max_eid).neighbors_before(int(u), tq, n),
                        ref_neighbors_before(idx, int(u), tq, n, max_eid))


@pytest.mark.parametrize("seed", SEEDS)
def test_prefix_answers_as_the_index_over_earlier_events(seed):
    """idx.prefix(e) shares idx's arrays and answers every query as the
    index built over idx's events below e: at cutoffs whose event ties
    others in time, queried at that time, just after it and at random."""
    rng = np.random.default_rng(800 + seed)
    store = random_store(seed)
    sub = np.sort(rng.choice(len(store), size=len(store) // 2, replace=False))
    tied = np.flatnonzero(np.diff(store.ts) == 0) + 1   # ts[e] == ts[e - 1]
    cuts = [0, len(store) + 5, *rng.choice(tied, 4),
            *rng.integers(0, len(store), 4)]
    for ids in (np.arange(len(store)), sub, np.zeros(0, np.int64)):
        idx = NeighborIndex.build(store, ids)
        for e in map(int, cuts):
            got = idx.prefix(e)
            want = NeighborIndex.build(store, ids[ids < e])
            for arr in ("nbr", "eid", "ts", "offsets"):
                assert getattr(got, arr) is getattr(idx, arr)
            nodes, t = queries(store, rng)
            t_e = float(store.ts[min(e, len(store) - 1)])
            t[6:10] = [t_e, t_e, t_e + 0.5, t_e + 1]
            for n in (1, 3, 200):
                assert_same(got.batch_neighbors(nodes, t, n),
                            want.batch_neighbors(nodes, t, n))
                for u, tq in zip(nodes[:10], t[:10]):
                    assert_same(got.neighbors_before(int(u), tq, n),
                                want.neighbors_before(int(u), tq, n))
            # a prefix of a prefix keeps the earlier cutoff
            assert_same(got.prefix(e + 7).batch_neighbors(nodes, t, 5),
                        want.batch_neighbors(nodes, t, 5))


def random_additions(store, rng, n_add=30):
    """Added edges (add_src, add_dst, add_t) at integer times (tying base
    and query times), with self-loops and edges on nodes without base
    history."""
    add_src = rng.integers(0, store.num_nodes, size=n_add)
    add_dst = rng.integers(0, store.num_nodes, size=n_add)
    add_src[:3] = add_dst[:3]
    add_src[3] = store.num_nodes - 1
    add_t = rng.integers(0, int(store.ts.max()) + 2, size=n_add).astype(float)
    add_t[4:6] = store.ts[:2]
    return add_src, add_dst, add_t


def augmented(base, adds):
    n_add = len(adds[0])
    return ts.AugmentedView(base, *adds, np.arange(n_add),
                            ad.constant(np.ones((n_add, 2))),
                            ad.constant(np.full(n_add, 0.5)))


@pytest.mark.parametrize("seed", SEEDS)
def test_augmented_merge_matches_loop(seed):
    rng = np.random.default_rng(100 + seed)
    store = random_store(seed)
    for idx in indexes(store, rng):
        adds = random_additions(store, rng)
        ref = RefAugmentedView(idx, *adds)
        nodes, t = queries(store, rng)
        t[6:10] = adds[2][:4]                   # query t == an added t
        for max_eid in cutoffs(store):
            view = augmented(cut(idx, max_eid), adds)
            for n in (1, 4, 200):
                assert_same(view.batch_neighbors(nodes, t, n),
                            ref.batch_neighbors(nodes, t, n, max_eid))


def test_augmented_merge_without_additions_matches_loop():
    store = random_store(0)
    idx = NeighborIndex.build(store)
    view = ts.AugmentedView(idx)
    ref = RefAugmentedView(idx, [], [], [])
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
                assert_same([ts.visible_window(cut(idx, max_eid), nodes,
                                               t_ref, levels)],
                            [ref_visible_window(idx, nodes, t_ref, levels,
                                                max_eid)])


def context_and_grads(fn, params, et, w, *args):
    """The context rows and the gradients of sum(h * w) reaching each
    `tgsl.lstm.*` tensor and the edge rows (a fresh leaf copy of them)."""
    edge_f = ad.param(et.edge_f.values.copy())
    lstm = [params[f"tgsl.lstm.{n}"] for n in ("wx", "wh", "b")]
    for p in lstm:
        p.zero_grad()
    with ad.Tape() as tape:
        h = fn(params, ts.EtgnnOutput(et.event_ids, edge_f), *args)
        if h.requires_grad:
            tape.backward(ad.sum_(ad.mul(h, ad.constant(w))))
    return [h.values] + [p.grad.copy() for p in lstm] + [edge_f.grad]


@pytest.mark.parametrize("seed", SEEDS)
def test_context_predict_matches_loop(seed):
    # the masked input gate against the blended state update: the rows
    # and every gradient, bitwise, in float32 and float64
    rng = np.random.default_rng(300 + seed)
    store = random_store(seed)
    for dtype, idx in itertools.product((np.float32, np.float64),
                                        indexes(store, rng)):
        params = ts.TgslParams(4, 3, 3, layers=1, seed=seed, dtype=dtype)
        nodes, t = queries(store, rng, b=12)
        t_cut = float(t[1])
        w = rng.standard_normal((len(nodes), 4)).astype(dtype)
        for max_eid in cutoffs(store):
            window = ref_visible_window(idx, nodes, t_cut, 1, max_eid)
            et = ts.etgnn_forward(window, store, params)
            for n_rnn in (1, 3, 50):
                assert_same(
                    context_and_grads(ts.context_predict_batch, params, et,
                                      w, cut(idx, max_eid), nodes, t_cut,
                                      n_rnn),
                    context_and_grads(ref_context_predict_batch, params, et,
                                      w, idx, nodes, t_cut, n_rnn, max_eid))


@pytest.mark.parametrize("seed", SEEDS)
def test_one_hop_candidates_match_loop(seed):
    rng = np.random.default_rng(400 + seed)
    store = random_store(seed)
    for idx in indexes(store, rng):
        nodes, t = queries(store, rng, b=15)
        for n_can in (0, 1, 3, 100):
            for max_eid in cutoffs(store):
                kw = dict(t_ref=float(t[0]), t_max=float(store.ts.max()))
                got = ts.sample_candidates(nodes, "one-hop",
                                           cut(idx, max_eid), n_can, seed,
                                           **kw)
                want = ref_one_hop_candidates(nodes, idx, n_can, seed,
                                              max_eid=max_eid, **kw)
                assert_same_candidates(got, want)


def assert_same_candidates(got, want):
    fields = ("src", "dst", "feat_eid", "t_sample", "t_new")
    assert_same([getattr(got, f) for f in fields],
                [getattr(want, f) for f in fields])


def star_store(leaves=5):
    """Node 0 joined to every leaf: every walk folds back onto it. Node
    leaves + 1 has no history."""
    return EventStore(np.zeros(leaves, np.int64), np.arange(1, leaves + 1),
                      np.arange(1.0, leaves + 1),
                      np.zeros((leaves + 2, 1), np.float32),
                      np.zeros((leaves, 1), np.float32))


def path_store(n=6):
    """0 - 1 - ... - n-1: a walk reaches hop 3 only along the path."""
    return EventStore(np.arange(n - 1), np.arange(1, n),
                      np.arange(1.0, n),
                      np.zeros((n, 1), np.float32),
                      np.zeros((n - 1, 1), np.float32))


FANOUTS = [(1,), (2, 1, 1), (3, 2, 2), (50, 50, 50)]


@pytest.mark.parametrize("seed", SEEDS)
def test_third_hop_candidates_match_loop(seed):
    rng = np.random.default_rng(600 + seed)
    store = random_store(seed)
    for idx in indexes(store, rng):
        nodes, t = queries(store, rng, b=15)
        for fanouts in FANOUTS:
            for n_can in (1, 3, 100):
                for max_eid in cutoffs(store):
                    kw = dict(t_ref=float(t[0]),
                              t_max=float(store.ts.max()), fanouts=fanouts)
                    got = ts.sample_candidates(nodes, "third-hop",
                                               cut(idx, max_eid), n_can,
                                               seed, **kw)
                    want = ref_third_hop_candidates(nodes, idx, n_can, seed,
                                                    max_eid=max_eid, **kw)
                    assert_same_candidates(got, want)


@pytest.mark.parametrize("store,nodes,hop3", [
    (star_store(), [0, 1, 2, 6], []),
    (path_store(), [0, 5, 2, 2], [(0, 3), (5, 2), (2, 5), (2, 5)]),
])
def test_third_hop_star_and_path_match_loop(store, nodes, hop3):
    """A star gives no endpoint (every hop-3 node is visited); on a path
    only the walks with three unvisited steps ahead reach hop 3, which
    fanouts of at least two always find."""
    idx = NeighborIndex.build(store)
    for seed in SEEDS:
        for fanouts in FANOUTS:
            kw = dict(t_ref=10.0, t_max=10.0, fanouts=fanouts)
            got = ts.sample_candidates(nodes, "third-hop", idx, 100, seed,
                                       **kw)
            want = ref_third_hop_candidates(nodes, idx, 100, seed, **kw)
            assert_same_candidates(got, want)
            if len(fanouts) == 3 and min(fanouts) >= 2:
                assert sorted(zip(got.src.tolist(), got.dst.tolist())) == \
                    sorted(hop3)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_candidates_match_loop(seed):
    rng = np.random.default_rng(700 + seed)
    store = random_store(seed)
    idx = NeighborIndex.build(store)
    nodes, _ = queries(store, rng, b=15)
    pools = [np.arange(store.num_nodes),                 # holds every source
             np.setdiff1d(np.arange(store.num_nodes), nodes),   # holds none
             np.array([int(nodes[0])]),                  # only one source
             rng.permutation(store.num_nodes)[:5],
             rng.permutation(900)[:600]]                 # wider than n_can
    for pool in pools:
        for n_can in (1, 3, 40, 100):
            got = ts.sample_candidates(nodes, "random", idx, n_can, seed,
                                       t_ref=5.0, t_max=20.0,
                                       random_pool=pool)
            want = ref_random_candidates(nodes, pool, n_can, seed, t_max=20.0)
            assert_same_candidates(got, want)


def test_random_candidates_are_uniform_ordered_pairs():
    # 2 draws from 4 positions hit each of the 12 ordered pairs equally
    # often; with n_can=1 and a source outside the pool, each pool node
    # is the candidate equally often
    n = 60000
    pool = np.arange(4)
    r = ts._partial_draw(n, len(pool), 2, np.random.default_rng(0))
    assert np.all(r[:, 0] != r[:, 1])
    counts = np.bincount(r[:, 0] * 4 + r[:, 1], minlength=16)
    assert np.all(counts[[0, 5, 10, 15]] == 0)
    expect = n / 12
    pairs = np.delete(counts, [0, 5, 10, 15])
    assert np.all(np.abs(pairs - expect) < 5 * np.sqrt(expect))
    got = ts.sample_candidates(np.full(n, 9), "random", None, 1, 0,
                               t_ref=0.0, t_max=1.0, random_pool=pool)
    freq = np.bincount(got.dst, minlength=4)
    assert np.all(np.abs(freq - n / 4) < 5 * np.sqrt(n / 4))


def test_one_hop_draw_is_uniform_per_row_and_independent_across_rows():
    # node 0's history holds a = 1 twice and b = 2 once, node 3's holds
    # 4 twice and 5 once: a uniform permutation of a row's history puts an
    # a first 2/3 of the time, so at n=1 a is picked and at n=2 (a, b) is
    # the order 2/3 of the time; two rows of one call pick independently
    store = EventStore([0, 0, 0, 3, 3, 3], [1, 2, 1, 4, 5, 4],
                       np.arange(1.0, 7.0), np.zeros((6, 1), np.float32),
                       np.zeros((6, 1), np.float32))
    idx = NeighborIndex.build(store)
    n = 60000

    def within(count, total, p):
        return abs(count - total * p) < 5 * np.sqrt(total * p * (1 - p))

    rng = np.random.default_rng(0)
    row, pos = ts._draw(np.zeros(n, np.int64), idx, 1, rng, 10.0)
    assert np.array_equal(row, np.arange(n))
    assert within(np.sum(idx.nbr[pos] == 1), n, 2 / 3)
    row, pos = ts._draw(np.zeros(n, np.int64), idx, 2, rng, 10.0)
    assert np.array_equal(row, np.repeat(np.arange(n), 2))
    pair = idx.nbr[pos].reshape(n, 2)
    assert np.all(np.sort(pair, axis=1) == [1, 2])
    assert within(np.sum(pair[:, 0] == 1), n, 2 / 3)
    row, pos = ts._draw(np.tile([0, 3], n // 2), idx, 1, rng, 10.0)
    assert np.array_equal(row, np.arange(n))
    joint = idx.nbr[pos].reshape(n // 2, 2)
    share = {1: 2 / 3, 2: 1 / 3, 4: 2 / 3, 5: 1 / 3}
    for first, second in itertools.product((1, 2), (4, 5)):
        p = share[first] * share[second]
        hits = np.sum((joint[:, 0] == first) & (joint[:, 1] == second))
        assert within(hits, n // 2, p)
