"""Temporal attention encoder and shared time encodings.

The time encoding is a fixed (non-learnable) cosine feature map, evaluated
in float64 once per distinct time gap and cast once; the same frequency
vector, `time_frequencies(d)`, also drives the time-context mapping used to
project embeddings across time gaps; it depends on the width d only. The
reference encoder is a TGAT-style multi-head attention over each node's
most recent neighbors, where augmented edges contribute value vectors
scaled by their relaxed selection weight. Each layer's attention is one
`autodiff.temporal_attention` op: with one query per (node, t) row, the
query is folded into W_k and the slots are pooled before W_v, so no
per-slot key or value is ever formed. The node and edge feature tables keep
their raw widths; the op reads a narrow input as itself zero-padded to
d_model, touching only the weight rows it fills. Added edges reach it as
their slot positions with one cand_features row and one rho weight each, so
only those positions cost added-slot work; a real slot weighs 1 and a pad
0, as the mask says. Its backward returns no gradient for a constant input
(the time encodings, the real events' edge rows, the bottom layer's
neighbor states).
"""

import math

import numpy as np

from . import autodiff as ad

__all__ = [
    "time_frequencies", "time_encode", "time_context",
    "EncoderParams", "TgatEncoder",
]


def time_frequencies(d):
    """Frequencies omega_i = sqrt(d)^{-(i-1)/sqrt(d)}, i = 1..d."""
    if d < 1:
        raise ValueError("time encoding dimension must be >= 1")
    root = math.sqrt(d)
    return root ** (-np.arange(d, dtype=np.float64) / root)


def time_encode(t, d, dtype=np.float64):
    """cos(t * omega) with omega = time_frequencies(d). Accepts scalars or
    arrays; the omega axis is appended last. cos is evaluated in float64
    once per distinct value of t, cast once to dtype and gathered, so the
    result equals the direct form byte for byte (cos is even, so -0.0 and
    0.0 may merge). A strictly increasing 1-D t (the ET-GNN's event times)
    is its own set of distinct values, so one comparison replaces the
    sort."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("time_encode: non-finite timestamp")
    if t.ndim == 1 and np.all(t[1:] > t[:-1]):
        u, inv = t, np.arange(len(t))
    else:
        u, inv = np.unique(t, return_inverse=True)
    return np.cos(u[:, None] * time_frequencies(d)).astype(dtype)[
        inv.reshape(t.shape)]


def time_context(delta, d, dtype=np.float64):
    """sin(delta * omega) + 1 with omega = time_frequencies(d); delta may be
    negative (the sign encodes projecting into the past vs the future)."""
    delta = np.asarray(delta, dtype=np.float64)
    if not np.all(np.isfinite(delta)):
        raise ValueError("time_context: non-finite delta")
    return (np.sin(delta[..., None] * time_frequencies(d)) + 1.0).astype(dtype)


class EncoderParams(ad.ParamSet):
    """Attention projections, merge MLPs, and the link-scoring head."""

    def __init__(self, d_model, layers=2, heads=2, d_hidden=100, seed=0,
                 dtype=np.float32):
        if d_model % heads:
            raise ValueError(f"d_model {d_model} not divisible by heads {heads}")
        super().__init__()
        self.d_model = d_model
        self.layers = layers
        self.heads = heads
        self.d_hidden = d_hidden
        self.d_k = d_model // heads
        rng = np.random.default_rng(seed)
        dm, hk = d_model, heads * self.d_k
        dq, dkv = 2 * dm, 3 * dm

        def add(name, shape, fan_in):
            self.register(ad.init_uniform(shape, fan_in, rng, dtype, name))

        for l in range(layers):
            add(f"enc.l{l}.wq", (dq, hk), dq)
            add(f"enc.l{l}.wk", (dkv, hk), dkv)
            add(f"enc.l{l}.wv", (dkv, hk), dkv)
            add(f"enc.l{l}.w1", (hk + dm, d_hidden), hk + dm)
            add(f"enc.l{l}.b1", (d_hidden,), hk + dm)
            add(f"enc.l{l}.w2", (d_hidden, dm), d_hidden)
            add(f"enc.l{l}.b2", (dm,), d_hidden)
        add("score.w1", (2 * dm, d_hidden), 2 * dm)
        add("score.b1", (d_hidden,), 2 * dm)
        add("score.w2", (d_hidden, 1), d_hidden)
        add("score.b2", (1,), d_hidden)


class TgatEncoder:
    """Multi-head temporal attention over a graph view.

    A view is anything whose batch_neighbors(nodes, ts, n, max_eid) returns
    (ids, eids, tss, mask) blocks: a NeighborIndex or an AugmentedView.
    Slots with event ids >= 0 are real events, whose feature rows are
    edge_features[feat_ids[eid]]; a slot with id -1 - j is the view's added
    edge j, with feature row cand_features[j] and weight rho[j].
    """

    def __init__(self, params, store, n_nb=20):
        self.params = params
        self.n_nb = n_nb
        self.dtype = params.dtype
        for what, table in (("node feature", store.node_features),
                            ("edge feature", store.edge_features)):
            if table.shape[1] > params.d_model:
                raise ValueError(
                    f"{what} dimension {table.shape[1]} exceeds d_model "
                    f"{params.d_model}; raise d_model")
        # kept at their raw widths: the attention reads a narrow input as
        # itself zero-padded to d_model
        self.node_feat = store.node_features.astype(self.dtype)
        self.edge_feat = store.edge_features.astype(self.dtype)
        self.feat_ids = store.feat_ids

    # -- recursive embedding

    def encode_batch(self, view, nodes, ts, max_eid=None):
        """Embeddings for (node, t) pairs; returns a [B, d_model] tensor."""
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= len(self.node_feat)):
            raise ValueError("encode_batch: node id outside the graph")
        return self._embed(view, nodes, ts, self.params.layers, max_eid)

    def _embed(self, view, nodes, ts, layer, max_eid):
        """Layer-`layer` embeddings of (node, t) pairs: attention over the
        view's n_nb most recent slots before t, recursing one layer down
        for the self and neighbor states. Each slot's value is scaled by 1
        for a real event, rho[j] for added edge j (event id -1 - j) and 0
        for a pad. Layer 0 is the node feature rows at their raw width.
        The attention itself is one ad.temporal_attention op, which gets
        the real events' edge rows at their raw width, the mask as the
        slot weights, and the added slots as positions with their
        cand_features rows and rho weights."""
        if layer == 0:
            return ad.constant(self.node_feat[nodes])
        pre = f"enc.l{layer - 1}."
        p = self.params
        b = len(nodes)
        ids, eids, tss, mask = view.batch_neighbors(nodes, ts, self.n_nb,
                                                    max_eid)
        n = ids.shape[1]

        # one recursion covers self and neighbor embeddings; below layer 1
        # identical (node, t) pairs are deduplicated, at layer 1 the lookup
        # is a flat constant gather and dedup would cost more than it saves
        all_nodes = np.concatenate([nodes, ids.ravel()])
        all_ts = np.concatenate([ts, tss.ravel()])
        if layer == 1:
            emb = self._embed(view, all_nodes, all_ts, 0, max_eid)
        else:
            pairs = np.stack([all_nodes.astype(np.float64), all_ts], axis=1)
            uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
            sub = self._embed(view, uniq[:, 0].astype(np.int64), uniq[:, 1],
                              layer - 1, max_eid)
            emb = ad.take(sub, inverse.reshape(-1))
        w = emb.shape[1]
        h_self = ad.narrow(emb, 0, 0, b)
        h_nbr = ad.reshape(ad.narrow(emb, 0, b, b * n), (b, n, w))

        # real events bring their edge row and weight 1; added edge j
        # brings cand_features[j] and rho[j] in place of its row and
        # weight; pads bring zeros
        real_m = mask * (eids >= 0)
        e_rows = self.edge_feat[self.feat_ids[np.where(real_m > 0, eids, 0)]]
        e_rows[real_m == 0] = 0
        pos = np.nonzero((mask > 0) & (eids < 0))
        added = None
        if len(pos[0]):
            j = -1 - eids[pos]
            added = (pos, ad.take(view.cand_features, j),
                     ad.take(view.rho, j))

        te_nbr = ad.constant(time_encode(ts[:, None] - tss, p.d_model,
                                         dtype=self.dtype))
        head = ad.temporal_attention(h_self, h_nbr, ad.constant(e_rows),
                                     te_nbr, mask, p[pre + "wq"],
                                     p[pre + "wk"], p[pre + "wv"], p.heads,
                                     added)
        # the merge MLP reads the top rows of w1 that (head || h_self) fills
        w1 = p[pre + "w1"]
        if head.shape[1] + w < w1.shape[0]:
            w1 = ad.narrow(w1, 0, 0, head.shape[1] + w)
        merged = ad.concat([head, h_self], axis=1)
        hid = ad.relu(ad.add(ad.matmul(merged, w1), p[pre + "b1"]))
        return ad.add(ad.matmul(hid, p[pre + "w2"]), p[pre + "b2"])

    # -- link scoring head

    def score_batch(self, emb_u, emb_v):
        """2-layer feed-forward head on concatenated [B, d] embeddings,
        squashed through the logistic; returns a [B] tensor in (0, 1)."""
        p = self.params
        x = ad.concat([emb_u, emb_v], axis=1)
        hid = ad.relu(ad.add(ad.matmul(x, p["score.w1"]), p["score.b1"]))
        out = ad.add(ad.matmul(hid, p["score.w2"]), p["score.b2"])
        return ad.reshape(ad.sigmoid(out), (x.shape[0],))

    def score_links(self, emb, b):
        """Link scores of stacked [src | dst | neg] embedding rows (3b of
        them): returns (s_pos, s_neg), the [b] scores of (src, dst) and
        (src, neg)."""
        s_pos = self.score_batch(ad.narrow(emb, 0, 0, b),
                                 ad.narrow(emb, 0, b, b))
        s_neg = self.score_batch(ad.narrow(emb, 0, 0, b),
                                 ad.narrow(emb, 0, 2 * b, b))
        return s_pos, s_neg
