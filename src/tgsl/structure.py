"""The structure learner: edge-centric message passing, sequence-predicted
context embeddings, candidate edge construction, time mapping, and
Gumbel-Top-K selection into an augmented graph view.

Candidate edges are proposed per source node by one of three strategies
(one-hop resampling, third-hop borrowing, random), projected to a freshly
sampled timestamp via the time-context vector, scored against the node's
context embedding, and the K largest relaxed weights survive. The surviving
weight rho stays attached to each added edge so gradients flow back through
the encoder's value aggregation.

One draw rule serves both graph strategies, batched over all rows: per
row, one permutation of its history, the first occurrence of each
neighbor, the first n. One-hop applies it once to the sources, third-hop
once per fanout to a frontier of (source, node) rows. The ET-GNN runs
over its nodes' visible window of `layers + (len(fanouts) - 1 if third-hop
else 0)` rings, exactly as deep as the edge rows the learner reads, so
those rows equal the ones computed over the whole visible prefix.
The learner reads only edge rows, so the ET-GNN's last layer updates edges
only: `tgsl.l{l}.wh` exists for l < L-1, `tgsl.l{l}.wf` for every l. The
learner reads the ET-GNN and context rows by node from one
`LearnerInputs`, which `StructureLearner.inputs` alone builds: per batch
in training, and at inference, where the cut and the parameters are
fixed, once per evaluation over every scored node.
"""

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .encoder import time_context, time_encode
from .graph import (NeighborIndex, by_ids, edge_entries, id_order,
                    id_presence, node_set, ranks, run_heads, top_k)

__all__ = [
    "TgslParams", "EtgnnOutput", "etgnn_forward", "context_predict_batch",
    "CandidateBatch", "sample_candidates", "time_map_batch",
    "gumbel_topk_select", "AugmentedView", "build_augmented_view",
    "visible_window", "LearnerInputs", "StructureLearner",
]

STRATEGIES = ("one-hop", "third-hop", "random")


class TgslParams(ad.ParamSet):
    """ET-GNN node updates `tgsl.l{l}.wh` (l < layers-1; the last layer
    updates edges only) and edge updates `tgsl.l{l}.wf`, plus the LSTM
    `tgsl.lstm.{wx,wh,b}`: 2 * layers + 2 tensors. Layer dims follow the
    raw feature dims at layer 1 and the model dim afterwards; the time
    block is d_model wide, the encoder's time encoding at that width."""

    def __init__(self, d_model, d_node, d_edge, layers, seed=0,
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
            if l < layers - 1:
                in_h = dh + (dh + df + dm)
                add(f"tgsl.l{l}.wh", (in_h, dm), in_h)
            in_f = df + 2 * dh + dm
            add(f"tgsl.l{l}.wf", (in_f, dm), in_f)
            dh = df = dm
        add("tgsl.lstm.wx", (dm, 4 * dm), dm)
        add("tgsl.lstm.wh", (dm, 4 * dm), dm)
        add("tgsl.lstm.b", (4 * dm,), dm)


# ---------------------------------------------------------------------------
# edge-centric message passing (mean aggregation with time encodings)

class EtgnnOutput:
    """Layer-L edge embeddings over a visible event window: row i belongs
    to event_ids[i] (sorted ascending, distinct). event_rows maps ids to
    rows through a dense array over [event_ids[0], event_ids[-1]], built
    once per output, with -1 on the ids the window skips."""

    def __init__(self, event_ids, edge_f):
        self.event_ids = event_ids
        self.edge_f = edge_f
        self._lo = int(event_ids[0]) if len(event_ids) else 0
        self._row = np.full(int(event_ids[-1]) - self._lo + 1
                            if len(event_ids) else 0, -1, dtype=np.int64)
        self._row[event_ids - self._lo] = np.arange(len(event_ids))

    def event_rows(self, eids):
        """Rows of the given event ids; KeyError if any is not in the
        window (below or above its range, or on a gap inside it)."""
        off = np.asarray(eids, dtype=np.int64) - self._lo
        if len(off) == 0:
            return off
        if off.min() < 0 or off.max() >= len(self._row):
            raise KeyError("event id outside the visible window")
        rows = self._row[off]
        if rows.min() < 0:
            raise KeyError("event id outside the visible window")
        return rows


def etgnn_forward(event_ids, store, params):
    """Run the edge-centric GNN over the given (already time-filtered)
    events; inputs are the raw feature rows. Every layer gathers each
    endpoint's state once and updates the edges, f' = relu(concat(f,
    h_src, h_dst, TE(t)) @ wf). Every layer but the last also updates the
    nodes, h' = relu(concat(h, mean message) @ wh), where a node's message
    is the mean over its events of concat(other endpoint's state, f, TE(t)).
    The last layer's node update would feed nothing, so it is not computed:
    one layer is a single per-edge MLP. Node states are rows of the
    window's node set, found through a dense node id -> row map."""
    event_ids = np.asarray(event_ids, dtype=np.int64)
    dtype = params.dtype
    src, dst = store.src[event_ids], store.dst[event_ids]
    nodes = node_set(store.num_nodes, src, dst)
    local = np.empty(store.num_nodes, dtype=np.intp)
    local[nodes] = np.arange(len(nodes))
    s_l, d_l = local[src], local[dst]

    h = ad.constant(store.node_features[nodes].astype(dtype, copy=False))
    f = ad.constant(store.edge_features[event_ids].astype(dtype, copy=False))
    te = ad.constant(time_encode(store.ts[event_ids], params.d_model, dtype))
    last = params.layers - 1
    if last > 0:
        seg = np.concatenate([d_l, s_l])
        deg = np.bincount(seg, minlength=len(nodes))
        inv = ad.constant((1.0 / np.maximum(deg, 1))[:, None].astype(dtype))

    for l in range(params.layers):
        h_s, h_d = ad.take(h, s_l), ad.take(h, d_l)
        if l < last:
            msg = ad.concat([ad.concat([h_s, f, te], axis=1),
                             ad.concat([h_d, f, te], axis=1)], axis=0)
            mean_msg = ad.mul(ad.segment_sum(msg, seg, len(nodes)), inv)
            h = ad.relu(ad.matmul(ad.concat([h, mean_msg], axis=1),
                                  params[f"tgsl.l{l}.wh"]))
        f = ad.relu(ad.matmul(ad.concat([f, h_s, h_d, te], axis=1),
                              params[f"tgsl.l{l}.wf"]))
    return EtgnnOutput(event_ids, f)


# ---------------------------------------------------------------------------
# sequence-predicted context embeddings

def context_predict_batch(params, et, index, nodes, t_cut, n_rnn):
    """LSTM over each node's most recent <= n_rnn edge embeddings in
    non-decreasing time order; returns the final hidden states [S, d].
    Rows are left-padded, so a row's mask is 0 before its first edge and 1
    from it on; the mask multiplies the input gate, which keeps the zero
    initial state until that edge (nodes without history keep it to the
    end). The first step multiplies no zero state: c = i * g, no h @ wh."""
    nodes = np.asarray(nodes, dtype=np.int64)
    s = len(nodes)
    dm = params.d_model
    dtype = params.dtype
    rows = np.zeros((s, n_rnn), dtype=np.int64)
    mask = np.zeros((s, n_rnn), dtype=dtype)
    if len(et.event_ids):
        _, eids, _, valid = index.batch_neighbors(nodes, t_cut, n_rnn)
        valid = valid > 0
        # right-padded block -> left padding: shift row i by n_rnn - k_i
        shift = n_rnn - valid.sum(axis=1)
        r, c = np.nonzero(valid)
        rows[r, c + shift[r]] = et.event_rows(eids[valid])
        mask[r, c + shift[r]] = 1.0
    if not mask.any():
        return ad.constant(np.zeros((s, dm), dtype=dtype))
    start = int(np.flatnonzero(mask.any(axis=0))[0])
    wx, wh, b = (params["tgsl.lstm.wx"], params["tgsl.lstm.wh"],
                 params["tgsl.lstm.b"])
    for t in range(start, n_rnn):
        gates = ad.matmul(ad.take(et.edge_f, rows[:, t]), wx)
        if t > start:
            gates = ad.add(gates, ad.matmul(h, wh))
        gates = ad.add(gates, b)
        # a closed input gate keeps c, and so h, exactly zero
        i_g = ad.mul(ad.sigmoid(ad.narrow(gates, 1, 0, dm)),
                     ad.constant(mask[:, t:t + 1]))
        g_g = ad.tanh(ad.narrow(gates, 1, 2 * dm, dm))
        o_g = ad.sigmoid(ad.narrow(gates, 1, 3 * dm, dm))
        c = ad.mul(i_g, g_g) if t == start else ad.add(ad.mul(
            ad.sigmoid(ad.narrow(gates, 1, dm, dm)), c), ad.mul(i_g, g_g))
        h = ad.mul(o_g, ad.tanh(c))
    return h


# ---------------------------------------------------------------------------
# candidate construction

class CandidateBatch:
    """Struct-of-arrays candidate container."""

    def __init__(self, src, dst, t_new, t_sample, feat_eid):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.t_new = np.asarray(t_new, dtype=np.float64)
        self.t_sample = np.asarray(t_sample, dtype=np.float64)
        self.feat_eid = np.asarray(feat_eid, dtype=np.int64)

    def __len__(self):
        return len(self.src)


def _flat_ranges(lo, cut):
    """Positions of the concatenated ranges [lo_i, cut_i)."""
    cnt = cut - lo
    return (np.arange(cnt.sum(), dtype=np.int64)
            + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt))


def _draw(nodes, index, n, rng, t_ref):
    """The one draw rule: per row of `nodes` with history, in row order,
    one permutation of its history before t_ref on `index`; the first
    occurrence of each neighbor in permutation order is kept, up to n per
    row (at least one). Returns (row, CSR position) pairs in row order,
    then permutation order."""
    lo, cut = index.ranges_before(nodes, t_ref)
    has = np.flatnonzero(cut > lo)
    perm = [rng.permutation(int(cut[i] - lo[i])) for i in has]
    row = np.repeat(has, cut[has] - lo[has])
    pos = (lo[row] + np.concatenate(perm)) if perm else row
    first = _first_of_each(row * np.int64(index.num_nodes) + index.nbr[pos])
    row, pos = row[first], pos[first]
    keep = ranks(row) < max(n, 1)
    return row[keep], pos[keep]


def _first_of_each(key):
    """Positions of the first occurrence of every (non-negative) key, in
    order: the heads of the groups of a stable id order."""
    order = id_order(key)
    first = np.zeros(len(key), dtype=bool)
    first[order[run_heads(order, key)]] = True
    return np.flatnonzero(first)


def _partial_draw(rows, size, m, rng):
    """Per row, m distinct positions of range(size) in draw order, from one
    generator call: step i takes the r-th position that row has not taken
    yet, r uniform on [0, size - i). O(rows x m) memory and O(rows x m^2)
    time, whatever size is."""
    r = rng.integers(0, size - np.arange(m), size=(rows, m))
    taken = np.empty((rows, 0), dtype=np.int64)    # sorted per row
    for i in range(m):
        # below taken[:, k] lie taken[:, k] - k untaken positions, so r's
        # position is r plus the taken ones with at most r untaken below
        v = r[:, i] + np.sum(taken - np.arange(i) <= r[:, i, None], axis=1)
        r[:, i] = v
        taken = np.sort(np.concatenate([taken, v[:, None]], axis=1), axis=1)
    return r


def _walk(src, index, fanouts, rng, t_ref):
    """Rows (source position, CSR position of the last hop's edge) of the
    third-hop endpoints: hop h applies `_draw` with n = fanouts[h] to every
    (source, node) frontier row, then drops nodes the row's source has
    visited (itself and earlier hops) and repeats within the hop."""
    owner, node = np.arange(len(src)), src
    visited = owner * np.int64(index.num_nodes) + src
    for fanout in fanouts:
        row, pos = _draw(node, index, fanout, rng, t_ref)
        owner, node = owner[row], index.nbr[pos]
        key = owner * np.int64(index.num_nodes) + node
        first = _first_of_each(key)
        first = first[~np.isin(key[first], visited)]
        owner, node, pos = owner[first], node[first], pos[first]
        visited = np.concatenate([visited, key[first]])
    return owner, pos


def sample_candidates(src_nodes, strategy, index, n_can, seed, *, t_ref,
                      t_max, random_pool=None, fanouts=(10, 3, 3)):
    """Up to n_can candidate destinations per source node, grouped by
    source in source order, from one seeded generator. Given distinct
    sources (as `propose` passes them) and a pool of distinct nodes, each
    call yields distinct (src, dst) pairs: a draw keeps each neighbor's
    first occurrence per row, a walk drops repeated and visited (source,
    node) rows, and random takes distinct pool positions.

    Every neighbor draw is `_draw`: per row, one permutation of the row's
    history before t_ref, first occurrence of each neighbor, the first n.
    one-hop: one draw from the sources, feature = the source's own edge
    with the neighbor. third-hop: len(fanouts) draws, hop h keeping
    fanouts[h] per frontier row and dropping nodes the source already
    visited; the endpoints borrow the last hop's edge. random: per
    source, n_can + 1 pool entries drawn without replacement
    (`_partial_draw`, all sources at once), and the first n_can of them
    that are not the source, with zero feature vectors (t_sample := t_new
    so the projection is the identity). Sample times are the CSR times of
    the borrowed edges. Every candidate gets a fresh t_new uniform on
    [0, t_max], drawn after all of the above.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; one of {STRATEGIES}")
    if strategy == "random" and (random_pool is None or len(random_pool) == 0):
        raise ValueError("random strategy needs a node pool")
    if strategy == "third-hop" and (not fanouts or min(fanouts) < 1):
        raise ValueError("third-hop needs one fanout >= 1 per hop")
    rng = np.random.default_rng(seed)
    src_nodes = np.asarray(src_nodes, dtype=np.int64)
    if strategy == "random":
        pool = np.asarray(random_pool, dtype=np.int64)
        head = pool[_partial_draw(len(src_nodes), len(pool),
                                  min(n_can + 1, len(pool)), rng)]
        keep = head != src_nodes[:, None]
        keep &= np.cumsum(keep, axis=1) <= n_can
        row, col = np.nonzero(keep)
        dst, t_sample, feat_eid = head[row, col], None, np.full(len(row), -1)
    else:
        if strategy == "one-hop":
            row, pos = _draw(src_nodes, index, n_can, rng, t_ref)
        else:
            row, pos = _walk(src_nodes, index, fanouts, rng, t_ref)
            keep = ranks(row) < n_can
            row, pos = row[keep], pos[keep]
        dst, t_sample, feat_eid = index.nbr[pos], index.ts[pos], index.eid[pos]
    t_new = rng.uniform(0.0, t_max, size=len(row))
    return CandidateBatch(src_nodes[row], dst, t_new,
                          t_new.copy() if t_sample is None else t_sample,
                          feat_eid)


# ---------------------------------------------------------------------------
# time mapping and selection

def time_map_batch(z_rows, f_rows, t_new, t_max, t_sample):
    """Project context rows to t_new and candidate feature rows from their
    sampled time to t_new, via elementwise time-context products."""
    dtype, d = z_rows.dtype, z_rows.shape[1]
    s_ctx = ad.constant(time_context(t_new - t_max, d, dtype=dtype))
    s_feat = ad.constant(time_context(t_new - t_sample, d, dtype=dtype))
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
    # ties resolve to the earlier candidate
    return m, rho, top_k(rho.values, np.asarray(src_of), k)


# ---------------------------------------------------------------------------
# the augmented view

class AugmentedView:
    """A neighbor index plus weighted candidate edges inserted at their
    sampled timestamps. Original events carry implicit weight 1; added
    edge j resolves to the differentiable feature row cand_features[j] and
    weight rho[j]. Ephemeral: valid only for the batch that built it.
    `AugmentedView(base)` adds nothing and answers as `base` does.

    Its `batch_neighbors` answers with the same four columns as
    `NeighborIndex.batch_neighbors`; a slot holding added edge j carries
    event id -1 - j, so real events are exactly the slots with ids >= 0.
    The added edges form a second, small CSR (`added`, a NeighborIndex)
    in which both endpoints own each edge j, sorted by (owner, t, j); its
    eid column holds j. A query merges the base window with the matching
    window of added edges."""

    def __init__(self, base, add_src=(), add_dst=(), add_t=(),
                 cand_features=None, rho=None):
        self.base = base
        self.cand_features = cand_features
        self.rho = rho
        add_src = np.asarray(add_src, dtype=np.int64)
        add_dst = np.asarray(add_dst, dtype=np.int64)
        add_t = np.asarray(add_t, dtype=np.float64)
        owners, peers, js, ts = edge_entries(
            add_src, add_dst, np.arange(len(add_src), dtype=np.int64), add_t)
        # entries stand in (j, side) order, so a stable sort by t and then
        # by owner gives (owner, t, j)
        self.added = NeighborIndex.from_order(
            base.num_nodes, by_ids(np.argsort(ts, kind="stable"), owners),
            owners, peers, js, ts)

    @property
    def num_added(self):
        return 0 if self.cand_features is None else self.cand_features.shape[0]

    def batch_neighbors(self, nodes, ts, n):
        """The base block merged with the added edges strictly before each
        row's time: the n most recent of both, ascending and left-aligned.
        At equal t base entries come first, base ones by column and added
        ones by j. Added edge j sits in its slot with event id -1 - j."""
        ids, eids, tss, mask = self.base.batch_neighbors(nodes, ts, n)
        a_ids, a_j, a_ts, a_mask = self.added.batch_neighbors(nodes, ts, n)
        if not a_mask.any():
            return ids, eids, tss, mask
        valid = np.concatenate([mask, a_mask], axis=1) > 0
        t_all = np.concatenate([tss, a_ts], axis=1)
        # pads (at -inf) sort first, then entries by t; at equal t the
        # stable sort keeps column order: base columns, then added ones,
        # which their CSR holds in (t, j) order. The last min(total, n)
        # per row are the most recent ones
        order = np.argsort(np.where(valid, t_all, -np.inf), axis=1,
                           kind="stable")
        m = np.minimum(valid.sum(axis=1), n)
        col = np.arange(n)
        keep = col < m[:, None]
        take = np.take_along_axis(
            order, np.where(keep, 2 * n - m[:, None] + col, 0), axis=1)

        def pick(block, pad):
            return np.where(keep, np.take_along_axis(block, take, axis=1),
                            pad)

        ids = pick(np.concatenate([ids, a_ids], axis=1), 0)
        eids = pick(np.concatenate([eids, -1 - a_j], axis=1), 0)
        tss = pick(t_all, 0.0)
        return ids, eids, tss, keep.astype(np.float64)


def build_augmented_view(base, cands, selected_idx, fhat, rho):
    """Insert every selected candidate into the neighbor structure at its
    t_new, with its fhat row and rho. The candidates must hold distinct
    (src, dst) pairs, as `sample_candidates` guarantees."""
    if len(selected_idx) == 0:
        return AugmentedView(base)
    sel = np.asarray(selected_idx, dtype=np.int64)
    return AugmentedView(base, cands.src[sel], cands.dst[sel],
                         cands.t_new[sel], ad.take(fhat, sel),
                         ad.take(rho, sel))


# ---------------------------------------------------------------------------
# window collection and the end-to-end proposer

def visible_window(index, nodes, t_ref, levels):
    """Event ids incident to the sources and their first (levels-1) rings,
    strictly before t_ref on `index` (and before its cut, if a prefix),
    sorted. Each ring is the sorted set of the last ring's neighbors not
    seen before, kept as presence arrays over the node ids."""
    seen = id_presence(index.num_nodes, nodes)
    level = np.flatnonzero(seen)
    eids = []
    for _ in range(levels):
        lo, cut = index.ranges_before(level, t_ref)
        pos = _flat_ranges(lo, cut)
        if len(pos) == 0:
            break
        eids.append(index.eid[pos])
        ring = id_presence(index.num_nodes, index.nbr[pos]) & ~seen
        level = np.flatnonzero(ring)
        seen |= ring
        if len(level) == 0:
            break
    if not eids:
        return np.zeros(0, dtype=np.int64)
    return node_set(max(int(e.max()) for e in eids) + 1, *eids)


class LearnerInputs(NamedTuple):
    """What `propose` reads per node: the ET-GNN output over some events,
    the sorted node ids, and their context rows (one row per node, in node
    order). Valid only while the parameters and the cut do not change."""
    etgnn: EtgnnOutput
    nodes: np.ndarray
    context: ad.Tensor


class StructureLearner:
    """End-to-end proposer: window -> edge embeddings -> contexts ->
    candidates -> time mapping -> Gumbel-Top-K -> augmented view.

    Reads strategy, k, n_can, n_rnn, tau_gumbel and fanouts from the run
    config. `propose` reads its ET-GNN and context rows from `inputs`,
    built per batch in training, its cut moving with the batch, and once
    per evaluation over every scored node at inference.
    Random candidates borrow no edge row, so their feature rows are
    zero, their score m = zhat . fhat is exactly 0 and rho is the squashed
    noise alone: no parameter reaches it. So under `random` the learner
    does not learn: `parameters()` is empty, `inputs()` is None, and
    propose runs neither the ET-GNN nor the LSTM; the context rows it
    maps are zero as well."""

    def __init__(self, params, store, cfg, random_pool=None):
        self.params = params
        self.store = store
        self.cfg = cfg
        self.random_pool = random_pool
        self.learns = cfg.strategy != "random"

    def parameters(self):
        """The tensors that reach rho: none when the learner does not learn."""
        return self.params.parameters() if self.learns else []

    def inputs(self, index, nodes, t_ref):
        """The ET-GNN over the distinct `nodes`' visible window at cut t_ref
        on `index` (as deep as the rows read: the nodes' own edges and a
        walk's last hop), and one LSTM context call over them, for every
        `propose` of these nodes at that cut; None if it does not learn."""
        if not self.learns:
            return None
        cfg = self.cfg
        levels = self.params.layers + (
            len(cfg.fanout_list()) - 1 if cfg.strategy == "third-hop" else 0)
        nodes = node_set(self.store.num_nodes, nodes)
        et = etgnn_forward(visible_window(index, nodes, t_ref, levels),
                           self.store, self.params)
        z = context_predict_batch(self.params, et, index, nodes, t_ref,
                                  cfg.n_rnn)
        return LearnerInputs(et, nodes, z)

    def propose(self, index, src_nodes, *, t_ref, t_max, seed, view_base,
                mode="stochastic", inputs=None):
        """Build the augmented view for a batch of source nodes. Candidates
        come from `index`; the view inserts the selected ones into
        `view_base`. The ET-GNN and context rows are read by node from
        `inputs` (by `inputs()` at this t_ref and index, holding every
        source), by default `inputs()` of the sources alone.
        Returns (view, detail dict) — the view is ephemeral to this batch;
        the detail's context (rows of the inputs' nodes) and etgnn are
        None when the learner does not learn."""
        cfg = self.cfg
        src_nodes = node_set(index.num_nodes, src_nodes)
        if cfg.k == 0:
            return AugmentedView(view_base), {}
        if inputs is None:
            inputs = self.inputs(index, src_nodes, t_ref)
        et, nodes, z = inputs or (None, None, None)
        if et is not None and not np.isin(src_nodes, nodes).all():
            raise KeyError("source node outside the learner inputs")
        cands = sample_candidates(
            src_nodes, cfg.strategy, index, cfg.n_can, seed, t_ref=t_ref,
            t_max=t_max, random_pool=self.random_pool,
            fanouts=cfg.fanout_list())
        if len(cands) == 0:
            return AugmentedView(view_base), {"candidates": cands}
        if et is not None:
            # one-hop and third-hop borrow an edge row for every candidate
            z_rows = ad.take(z, np.searchsorted(nodes, cands.src))
            feat_rows = ad.take(et.edge_f, et.event_rows(cands.feat_eid))
        else:
            z_rows = feat_rows = ad.constant(np.zeros(
                (len(cands), self.params.d_model), dtype=self.params.dtype))
        zhat, fhat = time_map_batch(z_rows, feat_rows, cands.t_new, t_max,
                                    cands.t_sample)
        m, rho, sel = gumbel_topk_select(
            zhat, fhat, cands.src, cfg.k, cfg.tau_gumbel, seed + 1, mode)
        view = build_augmented_view(view_base, cands, sel, fhat, rho)
        detail = {"candidates": cands, "m": m, "rho": rho, "selected": sel,
                  "context": z, "etgnn": et}
        return view, detail
