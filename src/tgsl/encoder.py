"""Temporal attention encoder and shared time encodings.

The time encoding is a fixed (non-learnable) cosine feature map, evaluated
once per distinct time gap; the same frequency vector, `time_frequencies(d)`,
also drives the time-context mapping used to project embeddings across time
gaps; it depends on the width d only. In float64 both are the direct form;
in float32 both reduce each argument exactly to one period in float64 and
evaluate the function in float32, within 3e-7 of the float64 value rounded
once (and equal to it past the exact reduction's range). The
reference encoder is a TGAT-style multi-head attention over each node's
most recent neighbors, where augmented edges contribute value vectors
scaled by their relaxed selection weight. Each layer's attention is one
`autodiff.temporal_attention` op: with one query per (node, t) row, the
query is folded into W_k and the slots are pooled before W_v, so no
per-slot key or value is ever formed. Event e's feature row is row e of the
edge table. The node and edge feature tables keep their raw widths; the op
reads a narrow input as itself zero-padded to d_model, touching only the
weight rows it fills. Added edges reach it as their slot positions with one
cand_features row and one rho weight each, gathered by candidate index
from the view's candidate tensors, so only those positions cost added-slot
work; a real slot weighs 1 and a pad 0, as the mask says. The slots' time
encodings reach it as a table of the distinct gaps' rows and an int32
inverse. It works in blocks of rows of at most `autodiff._ATTN_BLOCK` slot
elements, each gathering its rows of the [B, n, d] time block in the
forward and again in the backward, so no tape keeps them and a layer's
transients do not grow with B. Its backward returns no gradient for a
constant input (the time encodings, the real events' edge rows, the
bottom layer's neighbor states). Those constants, the neighbor blocks and
the (node, t) dedup form a parameter-free EncodePlan, built once and
applied by any encoder of the same config.
"""

import math
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .graph import by_ids, runs

__all__ = [
    "time_frequencies", "time_encode", "time_context",
    "EncoderParams", "LayerPlan", "EncodePlan", "TgatEncoder",
]


def time_frequencies(d):
    """Frequencies omega_i = sqrt(d)^{-(i-1)/sqrt(d)}, i = 1..d."""
    if d < 1:
        raise ValueError("time encoding dimension must be >= 1")
    root = math.sqrt(d)
    return root ** (-np.arange(d, dtype=np.float64) / root)


# 2*pi as P1 + P2 + P3 (Cody-Waite): P1 and P2 hold at most 26 significant
# bits, so k * P1 and k * P2 are exact for |k| <= _K_EXACT, and P3 is the
# float64 nearest the rest (the sum is within 6e-33 of 2*pi).
_P1 = float.fromhex("0x1.921fb58p+2")
_P2 = float.fromhex("-0x1.dde974p-25")
_P3 = float.fromhex("0x1.1a62633145c07p-52")
_INV_2PI = 1.0 / (2.0 * math.pi)
_K_EXACT = 2.0 ** 26
# elements per block of the float32 path: its float64 temporaries stay
# small next to the result, whatever the grid's size
_TRIG_BLOCK = 1 << 15


def _sin_plus_one(x, out=None):
    out = np.sin(x, out=out)
    out += 1.0
    return out


def _periodic(u, d, fn, dtype):
    """fn(u * omega) with omega = time_frequencies(d) appended as the last
    axis, for the periodic fn = cos or sin + 1 of period 2*pi. Any dtype
    but float32 gets the direct form, fn in float64 cast once. float32
    reduces each float64 product x to r = x - k * 2*pi in [-pi, pi], k =
    rint(x / (2*pi)), with the three-part split above, and evaluates fn on
    r rounded to float32; an element with |k| > _K_EXACT, past the exact
    reduction, takes the direct form. Each element's value depends on that
    element alone, whatever block it falls in."""
    omega = time_frequencies(d)
    if np.dtype(dtype) != np.float32:
        return fn(u[..., None] * omega).astype(dtype)
    flat = u.reshape(-1)
    out = np.empty((len(flat), d), dtype=np.float32)
    step = max(1, _TRIG_BLOCK // d)
    for a in range(0, len(flat), step):
        x = flat[a:a + step, None] * omega
        k = np.rint(x * _INV_2PI)
        r = x - k * _P1
        r -= k * _P2
        r -= k * _P3
        o = out[a:a + step]
        fn(r.astype(np.float32), out=o)
        far = np.abs(k) > _K_EXACT
        o[far] = fn(x[far])
    return out.reshape(*u.shape, d)


def time_encode(t, d, dtype=np.float64):
    """cos(t * omega) with omega = time_frequencies(d). Accepts scalars or
    arrays; the omega axis is appended last. cos is evaluated once per
    distinct value of t, found by np.unique, and gathered (cos is even, so
    -0.0 and 0.0 may merge). In float64 the values are the direct form's;
    in float32 cos runs in float32 on the argument reduced exactly to one
    period in float64, which is within 3e-7 of the float64 value rounded
    once, and beyond the exact reduction's range (|t * omega| > 2*pi *
    2**26, about 4.2e8) it is that value."""
    table, inverse = _time_table(np.asarray(t, dtype=np.float64), d, dtype)
    return table[inverse]


def _time_table(t, d, dtype):
    """time_encode's (table, inverse): the (U, d) rows of t's U distinct
    values and each element's row among them, shaped like t."""
    if not np.all(np.isfinite(t)):
        raise ValueError("time_encode: non-finite timestamp")
    u, inv = np.unique(t, return_inverse=True)
    return _periodic(u, d, np.cos, dtype), inv.reshape(t.shape)


def time_context(delta, d, dtype=np.float64):
    """sin(delta * omega) + 1 with omega = time_frequencies(d); delta may be
    negative (the sign encodes projecting into the past vs the future).
    In float64 the values are the direct form's; float32 takes
    time_encode's reduced kernel, within 3e-7 of the float64 value rounded
    once and equal to it beyond the exact reduction's range."""
    delta = np.asarray(delta, dtype=np.float64)
    if not np.all(np.isfinite(delta)):
        raise ValueError("time_context: non-finite delta")
    return _periodic(delta, d, _sin_plus_one, dtype)


class EncoderParams(ad.ParamSet):
    """Attention projections, merge MLPs, and the link-scoring head."""

    def __init__(self, d_model, layers, heads, d_hidden, seed=0,
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


class LayerPlan(NamedTuple):
    """One layer of an EncodePlan, b rows of n slots: `inverse` gathers the
    layer's b self rows and b * n slot rows from the distinct rows below
    (None at layer 1, whose rows are node feature rows); the [b, n] slot
    mask; the real events' edge rows at their raw width; the time
    encodings as a pair (table, int32 [b, n] inverse), the table holding
    one (U, d) row per distinct gap of the plan's layers, shared by them;
    and the added slots' np.nonzero positions with their candidate
    indices."""
    inverse: object
    mask: np.ndarray
    e_rows: np.ndarray
    te: np.ndarray
    positions: tuple
    added: np.ndarray


class EncodePlan(NamedTuple):
    """The parameter-free part of one encode: the view (a prefix carries
    its cut) and pairs it was built for, `base`, the node ids of the
    layer-0 rows, and one LayerPlan per layer, bottom first. It reads the
    view's cand_features and rho when applied, so it is valid only while
    its view is."""
    view: object
    nodes: np.ndarray
    ts: np.ndarray
    base: np.ndarray
    layers: list


class TgatEncoder:
    """Multi-head temporal attention over a graph view.

    A view is anything whose batch_neighbors(nodes, ts, n) returns (ids,
    eids, tss, mask) blocks: a NeighborIndex or an AugmentedView.
    Slots with event ids >= 0 are real events, whose feature rows are
    edge_features[eid]; a slot with id -1 - j holds the view's candidate
    j, with feature row cand_features[j] and weight rho[j].

    encode_batch is apply(plan(...)): plan() gathers everything that does
    not depend on the parameters into an EncodePlan, and apply() runs the
    layers on it. Encoders of the same config and store can apply one
    another's plans, so a training batch's momentum key encoder and query
    encoder share the plan of its original view.
    """

    def __init__(self, params, store, n_nb):
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
        self.node_feat = store.node_features.astype(self.dtype, copy=False)
        self.edge_feat = store.edge_features.astype(self.dtype, copy=False)

    # -- embedding: a parameter-free plan, then the layers applied to it

    def encode_batch(self, view, nodes, ts):
        """Embeddings for (node, t) pairs; returns a [B, d_model] tensor.
        It is apply(plan(view, nodes, ts)); a caller that needs the plan
        itself (a training batch's original-view pass) builds it with
        plan() and applies it."""
        return self.apply(self.plan(view, nodes, ts))

    def plan(self, view, nodes, ts):
        """The parameter-free part of encoding (node, t) pairs on `view`,
        as an EncodePlan for apply(). Each layer attends over the view's
        n_nb most recent slots before t, so the plan queries the view top
        layer first: a layer's rows are the (node, t) pairs the layer
        above reads, its self pairs followed by its slot pairs. Above
        layer 1 identical pairs are deduplicated; at layer 1 the rows are
        node feature rows, a flat gather for which dedup would cost more
        than it saves. The time encodings of every layer's gaps are one
        table, evaluated once per distinct gap, and each layer keeps an
        int32 inverse into it, never the gathered [b, n, d] block."""
        nodes = np.asarray(nodes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= len(self.node_feat)):
            raise ValueError("encode_batch: node id outside the graph")
        q_nodes, q_ts = nodes, ts
        tops, gaps = [], []
        for layer in range(self.params.layers, 0, -1):
            ids, eids, tss, mask = view.batch_neighbors(nodes, ts, self.n_nb)
            # real events bring their edge row and weight 1; candidate j
            # is a position that brings cand_features[j] and rho[j] in
            # apply; pads bring zeros
            real_m = mask * (eids >= 0)
            e_rows = self.edge_feat[np.where(real_m > 0, eids, 0)]
            e_rows[real_m == 0] = 0
            pos = np.nonzero((mask > 0) & (eids < 0))
            gaps.append((ts[:, None] - tss).ravel())
            nodes = np.concatenate([nodes, ids.ravel()])
            ts = np.concatenate([ts, tss.ravel()])
            inverse = None
            if layer > 1:
                # np.unique(axis=0) of the (node, t) pairs, from id orders
                order = by_ids(np.argsort(ts, kind="stable"), nodes)
                starts, inverse = runs(order, nodes, ts)
                nodes, ts = nodes[order[starts]], ts[order[starts]]
            tops.append((inverse, mask, e_rows, pos, -1 - eids[pos]))
        table, te_inv = _time_table(np.concatenate(gaps),
                                    self.params.d_model, self.dtype)
        rows = np.split(te_inv.astype(np.int32),
                        np.cumsum([len(g) for g in gaps])[:-1])
        layers = [LayerPlan(inverse, mask, e_rows,
                            (table, r.reshape(mask.shape)), pos, j)
                  for (inverse, mask, e_rows, pos, j), r in zip(
                      tops[::-1], rows[::-1])]
        return EncodePlan(view, q_nodes, q_ts, nodes, layers)

    def apply(self, plan):
        """Embeddings of a plan's pairs under this encoder's parameters;
        returns a [B, d_model] tensor. Layer 0 is the node feature rows at
        their raw width; each layer above is one ad.temporal_attention op
        over the layer below's self and slot rows, whose slot values are
        scaled by 1 for a real event, rho[j] for candidate j and 0 for a
        pad, then the merge MLP. The op gets the real events' edge rows at
        their raw width, the mask as the slot weights, and the added slots
        as positions with their cand_features rows and rho weights. Tape
        entries are recorded bottom layer first, each layer's after those
        of the layers below it."""
        p = self.params
        if len(plan.layers) != p.layers:
            raise ValueError(f"apply: a {len(plan.layers)}-layer plan for a "
                             f"{p.layers}-layer encoder")
        emb = ad.constant(self.node_feat[plan.base])
        for l, (inverse, mask, e_rows, (table, te_inv), pos, j) in enumerate(
                plan.layers):
            pre = f"enc.l{l}."
            b, n = mask.shape
            if inverse is not None:
                emb = ad.take(emb, inverse)
            w = emb.shape[1]
            h_self = ad.narrow(emb, 0, 0, b)
            h_nbr = ad.reshape(ad.narrow(emb, 0, b, b * n), (b, n, w))
            added = None
            if len(j):
                added = (pos, ad.take(plan.view.cand_features, j),
                         ad.take(plan.view.rho, j))
            head = ad.temporal_attention(h_self, h_nbr, ad.constant(e_rows),
                                         (ad.constant(table), te_inv), mask,
                                         p[pre + "wq"], p[pre + "wk"],
                                         p[pre + "wv"], p.heads, added)
            # the merge MLP reads the top rows of w1 that (head || h_self)
            # fills
            w1 = p[pre + "w1"]
            if head.shape[1] + w < w1.shape[0]:
                w1 = ad.narrow(w1, 0, 0, head.shape[1] + w)
            merged = ad.concat([head, h_self], axis=1)
            hid = ad.relu(ad.add(ad.matmul(merged, w1), p[pre + "b1"]))
            emb = ad.add(ad.matmul(hid, p[pre + "w2"]), p[pre + "b2"])
        return emb

    # -- link scoring head

    def score_batch(self, emb_u, emb_v):
        """2-layer feed-forward head on concatenated [B, d] embeddings,
        squashed through the logistic; returns a [B] tensor in (0, 1)."""
        p = self.params
        x = ad.concat([emb_u, emb_v], axis=1)
        hid = ad.relu(ad.add(ad.matmul(x, p["score.w1"]), p["score.b1"]))
        out = ad.add(ad.matmul(hid, p["score.w2"]), p["score.b2"])
        return ad.reshape(ad.sigmoid(out), (x.shape[0],))
