"""The structure learner: edge-centric message passing, sequence-predicted
context embeddings, candidate edge construction, time mapping, and
Gumbel-Top-K selection into an augmented graph view.

Candidate edges are proposed per source node by one of three strategies
(one-hop resampling, third-hop borrowing, random), projected to a freshly
sampled timestamp via the time-context vector, scored against the node's
context embedding, and the K largest relaxed weights survive. The surviving
weight rho stays attached to each added edge so gradients flow back through
the encoder's value aggregation.
"""

import numpy as np

from . import autodiff as ad
from .encoder import time_context, time_encode
from .graph import NeighborIndex, khop_sample

__all__ = [
    "TgslParams", "EtgnnOutput", "etgnn_forward", "context_predict_batch",
    "CandidateBatch", "sample_candidates", "time_map_batch",
    "gumbel_topk_select", "AugmentedView", "build_augmented_view",
    "visible_window", "StructureLearner",
]

STRATEGIES = ("one-hop", "third-hop", "random")


class TgslParams(ad.ParamSet):
    """ET-GNN layer weights plus the single-layer LSTM of the context
    predictor. Layer dims follow the raw feature dims at layer 1 and the
    model dim afterwards; the time block is d_model wide (shared omega)."""

    def __init__(self, d_model, d_node, d_edge, layers=2, seed=0,
                 dtype=np.float32):
        super().__init__()
        self.d_model = d_model
        self.layers = layers
        rng = np.random.default_rng(seed)
        dm = d_model

        def add(name, shape, fan_in):
            self.register(ad.init_uniform(shape, fan_in, rng, dtype, name))

        dh, df = d_node, d_edge
        for l in range(layers):
            in_h = dh + (dh + df + dm)
            in_f = df + 2 * dh + dm
            add(f"tgsl.l{l}.wh", (in_h, dm), in_h)
            add(f"tgsl.l{l}.wf", (in_f, dm), in_f)
            dh = df = dm
        add("tgsl.lstm.wx", (dm, 4 * dm), dm)
        add("tgsl.lstm.wh", (dm, 4 * dm), dm)
        add("tgsl.lstm.b", (4 * dm,), dm)


# ---------------------------------------------------------------------------
# edge-centric message passing (mean aggregation with time encodings)

class EtgnnOutput:
    """Layer-L node and edge embeddings over a visible event window, with
    lookups from graph ids to local rows."""

    def __init__(self, nodes, node_h, event_ids, edge_f):
        self.nodes = nodes
        self.node_h = node_h
        self.event_ids = event_ids
        self.edge_f = edge_f

    def event_rows(self, eids):
        eids = np.asarray(eids, dtype=np.int64)
        pos = np.searchsorted(self.event_ids, eids)
        pos = np.clip(pos, 0, max(len(self.event_ids) - 1, 0))
        if len(self.event_ids) == 0 or not np.array_equal(
                self.event_ids[pos], eids):
            raise KeyError("event id outside the visible window")
        return pos


def etgnn_forward(event_ids, store, params, cfg):
    """Run the edge-centric GNN over the given (already time-filtered)
    events. Per layer: node messages are the neighborhood mean of
    concat(neighbor state, edge state, TE(t)); node and edge states pass
    through relu-activated linear maps. Inputs are the raw feature rows."""
    event_ids = np.asarray(event_ids, dtype=np.int64)
    dtype = params.dtype
    dm = params.d_model
    if len(event_ids) == 0:
        return EtgnnOutput(np.zeros(0, np.int64),
                           ad.constant(np.zeros((0, dm), dtype)),
                           np.zeros(0, np.int64),
                           ad.constant(np.zeros((0, dm), dtype)))
    src, dst = store.src[event_ids], store.dst[event_ids]
    ts = store.ts[event_ids]
    nodes = np.unique(np.concatenate([src, dst]))
    s_l = np.searchsorted(nodes, src)
    d_l = np.searchsorted(nodes, dst)
    n = len(nodes)

    h = ad.constant(store.node_features[nodes].astype(dtype))
    f = ad.constant(store.edge_features[store.feat_ids[event_ids]].astype(dtype))
    te = ad.constant(time_encode(ts, cfg, dtype=dtype))
    deg = np.bincount(np.concatenate([d_l, s_l]), minlength=n)
    inv = ad.constant((1.0 / np.maximum(deg, 1))[:, None].astype(dtype))
    seg = np.concatenate([d_l, s_l])

    for l in range(params.layers):
        msg_fwd = ad.concat([ad.take(h, s_l), f, te], axis=1)
        msg_bwd = ad.concat([ad.take(h, d_l), f, te], axis=1)
        mean_msg = ad.mul(ad.segment_sum(ad.concat([msg_fwd, msg_bwd], axis=0),
                                         seg, n), inv)
        h_new = ad.relu(ad.matmul(ad.concat([h, mean_msg], axis=1),
                                  params[f"tgsl.l{l}.wh"]))
        f_new = ad.relu(ad.matmul(
            ad.concat([f, ad.take(h, s_l), ad.take(h, d_l), te], axis=1),
            params[f"tgsl.l{l}.wf"]))
        h, f = h_new, f_new
    return EtgnnOutput(nodes, h, event_ids, f)


# ---------------------------------------------------------------------------
# sequence-predicted context embeddings

def context_predict_batch(params, et, index, nodes, t_cut, n_rnn,
                          max_eid=None):
    """LSTM over each node's most recent <= n_rnn edge embeddings in
    non-decreasing time order; returns the final hidden states [S, d].
    Nodes without history keep the zero initial state."""
    nodes = np.asarray(nodes, dtype=np.int64)
    s = len(nodes)
    dm = params.d_model
    dtype = params.dtype
    rows = np.zeros((s, n_rnn), dtype=np.int64)
    mask = np.zeros((s, n_rnn), dtype=dtype)
    if len(et.event_ids):
        _, eids, _, valid = index.batch_neighbors(nodes, t_cut, n_rnn,
                                                  max_eid)
        valid = valid > 0
        # right-padded block -> left padding: shift row i by n_rnn - k_i
        shift = n_rnn - valid.sum(axis=1)
        r, c = np.nonzero(valid)
        rows[r, c + shift[r]] = et.event_rows(eids[valid])
        mask[r, c + shift[r]] = 1.0
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


# ---------------------------------------------------------------------------
# candidate construction

class CandidateBatch:
    """Struct-of-arrays candidate container."""

    def __init__(self, src, dst, t_new, t_sample, feat_eid, strategy):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.t_new = np.asarray(t_new, dtype=np.float64)
        self.t_sample = np.asarray(t_sample, dtype=np.float64)
        self.feat_eid = np.asarray(feat_eid, dtype=np.int64)
        self.strategy = strategy

    def __len__(self):
        return len(self.src)


def _flat_ranges(lo, cut):
    """Positions of the concatenated ranges [lo_i, cut_i)."""
    cnt = cut - lo
    return (np.arange(cnt.sum(), dtype=np.int64)
            + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt))


def _one_hop(src, index, n_can, rng, t_ref, max_eid):
    """Rows (source position, CSR position) of the one-hop candidates: per
    source with history, in source order, one permutation of its history;
    the first occurrence of each neighbor in permutation order is kept,
    up to n_can per source (at least one)."""
    lo, cut = index.ranges_before(src, t_ref, max_eid)
    has = np.flatnonzero(cut > lo)
    perm = [rng.permutation(int(cut[i] - lo[i])) for i in has]
    row = np.repeat(has, cut[has] - lo[has])
    pos = (lo[row] + np.concatenate(perm)) if perm else row
    # first occurrence of every (row, neighbor) pair, in permutation order
    key = row * np.int64(index.num_nodes) + index.nbr[pos]
    first = np.sort(np.unique(key, return_index=True)[1])
    row, pos = row[first], pos[first]
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    keep = rank < max(n_can, 1)
    return row[keep], pos[keep]


def sample_candidates(src_nodes, strategy, index, store, n_can, seed, *,
                      t_ref, t_max, random_pool=None, max_eid=None,
                      fanouts=(10, 3, 3)):
    """Up to n_can candidate destinations per source node.

    one-hop: seeded sample of distinct historical neighbors, feature = the
    node's own edge with them. third-hop: random-walk endpoints with the
    final-hop edge's feature borrowed. random: uniform training-set nodes
    with zero feature vectors (t_sample := t_new so the projection is the
    identity). Every candidate gets a fresh t_new uniform on [0, t_max].
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; one of {STRATEGIES}")
    if strategy == "random" and (random_pool is None or len(random_pool) == 0):
        raise ValueError("random strategy needs a node pool")
    rng = np.random.default_rng(seed)
    src_nodes = np.asarray(src_nodes, dtype=np.int64)
    if strategy == "one-hop":
        row, pos = _one_hop(src_nodes, index, n_can, rng, t_ref, max_eid)
        src_out, dst_out = src_nodes[row], index.nbr[pos]
        eid_out, tsamp_out = index.eid[pos], index.ts[pos]
    else:
        src_out, dst_out, eid_out, tsamp_out = [], [], [], []
        for u in src_nodes:
            u = int(u)
            if strategy == "third-hop":
                walk_seed = int(rng.integers(2 ** 31))
                ends = khop_sample(index, u, t_ref, hops=len(fanouts),
                                   fanouts=fanouts, seed=walk_seed,
                                   max_eid=max_eid)
                for v, e in ends[:n_can]:
                    src_out.append(u)
                    dst_out.append(v)
                    eid_out.append(e)
                    tsamp_out.append(float(store.ts[e]))
            else:
                pool = np.asarray(random_pool, dtype=np.int64)
                pool = pool[pool != u]
                if len(pool) == 0:
                    continue
                k = min(n_can, len(pool))
                picks = rng.choice(pool, size=k, replace=False)
                for v in picks:
                    src_out.append(u)
                    dst_out.append(int(v))
                    eid_out.append(-1)
                    tsamp_out.append(0.0)   # overwritten with t_new below
    t_new = rng.uniform(0.0, t_max, size=len(src_out))
    tsamp = np.asarray(tsamp_out, dtype=np.float64)
    if strategy == "random":
        tsamp = t_new.copy()
    return CandidateBatch(src_out, dst_out, t_new, tsamp, eid_out, strategy)


# ---------------------------------------------------------------------------
# time mapping and selection

def time_map_batch(z_rows, f_rows, t_new, t_max, t_sample, cfg):
    """Project context rows to t_new and candidate feature rows from their
    sampled time to t_new, via elementwise time-context products."""
    dtype = z_rows.dtype
    s_ctx = ad.constant(time_context(t_new - t_max, cfg, dtype=dtype))
    s_feat = ad.constant(time_context(t_new - t_sample, cfg, dtype=dtype))
    return ad.mul(z_rows, s_ctx), ad.mul(f_rows, s_feat)


def gumbel_topk_select(zhat, fhat, src_of, k, tau, seed,
                       mode="stochastic"):
    """Score candidates by the context/feature dot product, perturb with
    seeded logistic noise, squash by temperature, and keep the K largest
    relaxed weights per source node. Noise-free mode pins u = 0.5.

    Returns (m, rho, selected_indices): m and rho stay differentiable.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if k < 1:
        raise ValueError("K must be >= 1")
    if mode not in ("stochastic", "noise-free"):
        raise ValueError(f"unknown mode {mode!r}")
    c = zhat.shape[0]
    m = ad.sum_(ad.mul(zhat, fhat), axis=1)
    if mode == "stochastic":
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 1.0, size=c)
        noise = np.log(u) - np.log1p(-u)
    else:
        noise = np.zeros(c)
    rho = ad.sigmoid(ad.scale(ad.add(m, ad.constant(noise.astype(
        zhat.dtype))), 1.0 / tau))
    src_of = np.asarray(src_of)
    # per-source top-K, vectorized: sort by (source, -rho, index), keep the
    # first K ranks of every group; ties resolve to the earlier candidate
    order = np.lexsort((np.arange(c), -rho.values, src_of))
    grp = src_of[order]
    starts = np.flatnonzero(np.concatenate(([True], grp[1:] != grp[:-1])))
    rank = np.arange(c) - np.repeat(starts, np.diff(
        np.concatenate((starts, [c]))))
    sel = np.sort(order[rank < k])
    return m, rho, sel


# ---------------------------------------------------------------------------
# the augmented view

class AugmentedView:
    """A neighbor index plus weighted candidate edges inserted at their
    sampled timestamps. Original events carry implicit weight 1; added
    edges resolve to differentiable feature rows and weights. Ephemeral:
    valid only for the batch that built it.

    The added edges form a second, small CSR (`added`, a NeighborIndex)
    in which both endpoints own each edge j, sorted by (owner, t, j); its
    eid column holds j. A query merges the base window with the matching
    window of added edges."""

    def __init__(self, base, add_src, add_dst, add_t, cand_features, rho,
                 num_real_events):
        self.base = base
        self.cand_features = cand_features
        self.rho = rho
        self.num_real_events = num_real_events
        add_src = np.asarray(add_src, dtype=np.int64)
        add_dst = np.asarray(add_dst, dtype=np.int64)
        add_t = np.asarray(add_t, dtype=np.float64)
        j = np.arange(len(add_src), dtype=np.int64)
        owners = np.concatenate([add_src, add_dst])
        peers = np.concatenate([add_dst, add_src])
        js = np.concatenate([j, j])
        ts = np.concatenate([add_t, add_t])
        self.added = NeighborIndex.from_order(
            base.num_nodes, np.lexsort((js, ts, owners)), owners, peers, js,
            ts)

    @property
    def num_added(self):
        return 0 if self.cand_features is None else self.cand_features.shape[0]

    def batch_neighbors(self, nodes, ts, n, max_eid=None):
        """The base block merged with the added edges strictly before each
        row's time: the n most recent of both, ascending and left-aligned.
        At equal t base entries come first, base ones by column and added
        ones by j. `aug` holds j in added slots and -1 elsewhere; an added
        slot's event id is num_real_events + j."""
        ids, eids, tss, mask = self.base.batch_neighbors(nodes, ts, n, max_eid)
        aug = np.full(ids.shape, -1, dtype=np.int64)
        a_ids, a_j, a_ts, a_mask = self.added.batch_neighbors(nodes, ts, n)
        if not a_mask.any():
            return ids, eids, tss, mask, aug
        b = len(ids)
        valid = np.concatenate([mask, a_mask], axis=1)
        t_all = np.concatenate([tss, a_ts], axis=1)
        kind = np.broadcast_to(np.repeat([0, 1], n), (b, 2 * n))
        index = np.concatenate([np.broadcast_to(np.arange(n), (b, n)), a_j],
                               axis=1)
        # pads sort first, then entries by (t, kind, index); the last
        # min(total, n) per row are the most recent ones
        order = np.lexsort((index, kind, t_all, valid), axis=1)
        m = np.minimum(valid.sum(axis=1), n).astype(np.int64)
        col = np.arange(n)
        keep = col < m[:, None]
        take = np.take_along_axis(
            order, np.where(keep, 2 * n - m[:, None] + col, 0), axis=1)

        def pick(block, pad):
            return np.where(keep, np.take_along_axis(block, take, axis=1),
                            pad)

        ids = pick(np.concatenate([ids, a_ids], axis=1), 0)
        eids = pick(np.concatenate([eids, self.num_real_events + a_j],
                                   axis=1), 0)
        tss = pick(t_all, 0.0)
        aug = pick(np.concatenate([aug, a_j], axis=1), -1)
        return ids, eids, tss, keep.astype(np.float64), aug


def build_augmented_view(base, cands, selected_idx, fhat, rho,
                         num_real_events):
    """Insert the selected candidates into the neighbor structure at their
    t_new, deduplicating (src, dst, t_new) triples by the larger rho (the
    earlier candidate on ties)."""
    if len(selected_idx) == 0:
        return AugmentedView(base, np.zeros(0, np.int64), np.zeros(0, np.int64),
                             np.zeros(0), None, None, num_real_events)
    sel = np.asarray(selected_idx, dtype=np.int64)
    key = np.stack([cands.src[sel].astype(np.float64),
                    cands.dst[sel].astype(np.float64),
                    cands.t_new[sel]], axis=1)
    _, first, inv = np.unique(key, axis=0, return_index=True,
                              return_inverse=True)
    inv = inv.reshape(-1)
    if len(first) != len(sel):
        order = np.lexsort((np.arange(len(sel)), -rho.values[sel], inv))
        grp = inv[order]
        lead = np.concatenate(([True], grp[1:] != grp[:-1]))
        sel = sel[np.sort(order[lead])]
    fh = ad.take(fhat, sel)
    rh = ad.take(rho, sel)
    return AugmentedView(base, cands.src[sel], cands.dst[sel],
                         cands.t_new[sel], fh, rh, num_real_events)


# ---------------------------------------------------------------------------
# window collection and the end-to-end proposer

def visible_window(index, nodes, t_ref, levels=2, max_eid=None):
    """Event ids incident to the sources and their first (levels-1) rings,
    restricted to strictly before t_ref (and the optional event-id cutoff)."""
    level = seen = np.unique(np.asarray(nodes, dtype=np.int64))
    eids = []
    for _ in range(levels):
        lo, cut = index.ranges_before(level, t_ref, max_eid)
        pos = _flat_ranges(lo, cut)
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


class StructureLearner:
    """End-to-end proposer: window -> edge embeddings -> contexts ->
    candidates -> time mapping -> Gumbel-Top-K -> augmented view.

    Reads strategy, k, n_can, n_rnn, tau_gumbel and fanouts from the run
    config; te_cfg is the time encoding shared with the encoder."""

    def __init__(self, params, te_cfg, store, cfg, random_pool=None):
        self.params = params
        self.te_cfg = te_cfg
        self.store = store
        self.cfg = cfg
        self.random_pool = random_pool

    def window_levels(self):
        # third-hop borrowing needs the events incident to hop-2 nodes
        return 3 if self.cfg.strategy == "third-hop" else 2

    def propose(self, index, src_nodes, *, t_ref, t_max, seed, view_base,
                mode="stochastic", max_eid=None, etgnn_cache=None):
        """Build the augmented view for a batch of source nodes. Candidates
        come from `index`; the view inserts the selected ones into
        `view_base`. Returns (view, detail dict) — the view is ephemeral to
        this batch."""
        cfg = self.cfg
        src_nodes = np.unique(np.asarray(src_nodes, dtype=np.int64))
        num_real = len(self.store)
        empty = (view_base, np.zeros(0, np.int64), np.zeros(0, np.int64),
                 np.zeros(0), None, None, num_real)
        if cfg.k == 0:
            return AugmentedView(*empty), {}
        if etgnn_cache is not None:
            et = etgnn_cache
        else:
            window = visible_window(index, src_nodes, t_ref,
                                    self.window_levels(), max_eid)
            et = etgnn_forward(window, self.store, self.params, self.te_cfg)
        z = context_predict_batch(self.params, et, index, src_nodes, t_ref,
                                  cfg.n_rnn, max_eid)
        cands = sample_candidates(
            src_nodes, cfg.strategy, index, self.store, cfg.n_can, seed,
            t_ref=t_ref, t_max=t_max, random_pool=self.random_pool,
            max_eid=max_eid, fanouts=cfg.fanout_list())
        if len(cands) == 0:
            return AugmentedView(*empty), {"candidates": cands}
        z_rows = ad.take(z, np.searchsorted(src_nodes, cands.src))
        dtype = z.dtype
        borrow = cands.feat_eid >= 0
        if borrow.any():
            rows = np.zeros(len(cands), dtype=np.int64)
            rows[borrow] = et.event_rows(cands.feat_eid[borrow])
            feat_rows = ad.mul(ad.take(et.edge_f, rows),
                               ad.constant(borrow[:, None].astype(dtype)))
        else:
            feat_rows = ad.constant(
                np.zeros((len(cands), self.params.d_model), dtype=dtype))
        zhat, fhat = time_map_batch(z_rows, feat_rows, cands.t_new, t_max,
                                    cands.t_sample, self.te_cfg)
        m, rho, sel = gumbel_topk_select(
            zhat, fhat, cands.src, cfg.k, cfg.tau_gumbel, seed + 1, mode)
        view = build_augmented_view(view_base, cands, sel, fhat, rho,
                                    num_real)
        detail = {"candidates": cands, "m": m, "rho": rho, "selected": sel,
                  "context": z, "etgnn": et}
        return view, detail
