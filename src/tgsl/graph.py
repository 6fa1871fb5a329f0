"""Continuous-time dynamic graph data layer.

Events are undirected timestamped interactions (src, dst, t, feature row) on
a node-id space where bipartite item ids sit after the user ids. Everything
downstream (neighbor queries, splits, sampling) is built on the invariant
that events are sorted by timestamp with ties broken by ingestion order, so
"strictly before t" is always well defined.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventStore", "NeighborIndex", "SplitSpec", "load_events", "save_events",
    "chronological_split", "khop_sample", "sparsify", "synth_generate",
    "sample_negatives",
]


class DataError(ValueError):
    """Malformed input data (bad rows, inconsistent stores)."""


class EventStore:
    """Chronologically sorted interaction events plus feature tables.

    Columns are kept as flat numpy arrays. Immutable after construction.
    """

    def __init__(self, src, dst, ts, feat_ids, node_features, edge_features,
                 num_users=None):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.ts = np.asarray(ts, dtype=np.float64)
        self.feat_ids = np.asarray(feat_ids, dtype=np.int64)
        self.node_features = np.asarray(node_features, dtype=np.float32)
        self.edge_features = np.asarray(edge_features, dtype=np.float32)
        self.num_users = num_users
        self._validate()

    def _validate(self):
        n = len(self.src)
        if not (len(self.dst) == len(self.ts) == len(self.feat_ids) == n):
            raise DataError("event columns have inconsistent lengths")
        if n and np.any(np.diff(self.ts) < 0):
            raise DataError("events not sorted by timestamp")
        if n and (self.ts.min() < 0 or not np.all(np.isfinite(self.ts))):
            raise DataError("timestamps must be finite and >= 0")
        v = self.num_nodes
        if n and (self.src.min() < 0 or self.dst.min() < 0
                  or self.src.max() >= v or self.dst.max() >= v):
            raise DataError("node ids outside the feature table")
        if n and (self.feat_ids.min() < 0
                  or self.feat_ids.max() >= len(self.edge_features)):
            raise DataError("edge_feature_id outside the edge feature table")
        if not np.all(np.isfinite(self.node_features)):
            raise DataError("non-finite node features")
        if not np.all(np.isfinite(self.edge_features)):
            raise DataError("non-finite edge features")

    def __len__(self):
        return len(self.src)

    @property
    def num_nodes(self):
        return self.node_features.shape[0]

    @property
    def edge_dim(self):
        return self.edge_features.shape[1]

    @property
    def node_dim(self):
        return self.node_features.shape[1]


class NeighborIndex:
    """Per-node, time-sorted adjacency in CSR layout. An event (u, v, t)
    appears in both endpoints' lists (undirected semantics).

    Node u owns the entries offsets[u]:offsets[u+1] of the flat arrays nbr
    (the peer), eid (the event id) and ts, in (ts, eid) order. Every query
    is one vectorised search over those ranges (`ranges_before`) followed
    by gathers; no query loops over rows in Python."""

    def __init__(self, num_nodes, nbr, eid, ts, offsets):
        self.num_nodes = num_nodes
        self.nbr = nbr
        self.eid = eid
        self.ts = ts
        self.offsets = offsets

    @classmethod
    def build(cls, store, event_ids=None):
        if event_ids is None:
            event_ids = np.arange(len(store), dtype=np.int64)
        else:
            event_ids = np.asarray(event_ids, dtype=np.int64)
        s, d = store.src[event_ids], store.dst[event_ids]
        t = store.ts[event_ids]
        owners = np.concatenate([s, d])
        peers = np.concatenate([d, s])
        eids = np.concatenate([event_ids, event_ids])
        tss = np.concatenate([t, t])
        # sort by (owner, event id); event id order == (ts, ingestion) order
        order = np.lexsort((eids, owners))
        return cls.from_order(store.num_nodes, order, owners, peers, eids, tss)

    @classmethod
    def from_order(cls, num_nodes, order, owners, peers, eids, ts):
        """CSR over the entries taken in `order`, which must sort them by
        owner and, within an owner, by non-decreasing ts (and eid, for
        queries that pass max_eid)."""
        counts = np.bincount(owners[order], minlength=num_nodes)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(num_nodes, peers[order], eids[order], ts[order], offsets)

    def degree(self, node):
        return int(self.offsets[node + 1] - self.offsets[node])

    def node_slice(self, node):
        lo, hi = self.offsets[node], self.offsets[node + 1]
        return self.nbr[lo:hi], self.eid[lo:hi], self.ts[lo:hi]

    def ranges_before(self, nodes, ts, max_eid=None):
        """For each (node, t) row, the CSR range [lo, cut) of the node's
        entries strictly before t, and before event id max_eid when given:
        a per-row `searchsorted(side="left")`, run as one bisection over
        all rows. `ts` may be a scalar."""
        nodes = np.asarray(nodes, dtype=np.int64)
        t = np.broadcast_to(np.asarray(ts, dtype=np.float64), nodes.shape)
        lo = self.offsets[nodes]
        hi = self.offsets[nodes + 1]
        cut, end = lo.copy(), hi.copy()
        # within a node both ts and eid are non-decreasing, so "before t
        # and before max_eid" holds on a prefix of its range
        act = np.flatnonzero(cut < end)
        while act.size:
            a, b = cut[act], end[act]
            mid = (a + b) >> 1
            before = self.ts[mid] < t[act]
            if max_eid is not None:
                before &= self.eid[mid] < max_eid
            cut[act] = np.where(before, mid + 1, a)
            end[act] = np.where(before, b, mid)
            act = act[cut[act] < end[act]]
        return lo, cut

    def neighbors_before(self, node, t, n, max_eid=None):
        """The n most recent entries strictly before time t (and before
        event id max_eid when given), ascending."""
        lo, cut = self.ranges_before([node], [t], max_eid)
        sl = slice(max(int(lo[0]), int(cut[0]) - n), int(cut[0]))
        return self.nbr[sl], self.eid[sl], self.ts[sl]

    def batch_neighbors(self, nodes, ts, n, max_eid=None):
        """Right-padded [B, n] neighbor blocks: ids, event ids, timestamps
        and a {0,1} mask, holding each row's n most recent entries strictly
        before its time (as `neighbors_before`; `ts` may be a scalar).
        Padded slots carry node 0 at time 0."""
        lo, cut = self.ranges_before(nodes, ts, max_eid)
        start = np.maximum(lo, cut - n)
        col = np.arange(n)
        valid = col < (cut - start)[:, None]
        pos = (start[:, None] + col)[valid]
        b = len(lo)
        ids = np.zeros((b, n), dtype=np.int64)
        eids = np.zeros((b, n), dtype=np.int64)
        tss = np.zeros((b, n), dtype=np.float64)
        ids[valid] = self.nbr[pos]
        eids[valid] = self.eid[pos]
        tss[valid] = self.ts[pos]
        return ids, eids, tss, valid.astype(np.float64)

    def __eq__(self, other):
        return (isinstance(other, NeighborIndex)
                and self.num_nodes == other.num_nodes
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.nbr, other.nbr)
                and np.array_equal(self.eid, other.eid)
                and np.array_equal(self.ts, other.ts))


@dataclass
class SplitSpec:
    train_range: tuple          # (start, end) event-id ranges, end exclusive
    val_range: tuple
    test_range: tuple
    t_max_train: float
    masked_nodes: np.ndarray    # sorted node ids excluded from training
    usable_train_ids: np.ndarray  # train events touching no masked node
    mask_frac: float = 0.0
    mask_seed: int = 0

    def is_masked(self, nodes):
        return np.isin(np.asarray(nodes), self.masked_nodes)

    @property
    def train_ids(self):
        return np.arange(*self.train_range, dtype=np.int64)

    @property
    def val_ids(self):
        return np.arange(*self.val_range, dtype=np.int64)

    @property
    def test_ids(self):
        return np.arange(*self.test_range, dtype=np.int64)


def _compute_mask(store, n_train, mask_frac, seed):
    """Unseen-in-training nodes plus a seeded sample of other val/test-active
    nodes; returns (sorted masked ids, usable train event ids)."""
    train_nodes = np.unique(np.concatenate([store.src[:n_train],
                                            store.dst[:n_train]]))
    later_nodes = np.unique(np.concatenate([store.src[n_train:],
                                            store.dst[n_train:]]))
    unseen = np.setdiff1d(later_nodes, train_nodes, assume_unique=True)
    masked = unseen
    k = int(math.floor(mask_frac * store.num_nodes))
    if k > 0:
        pool = np.intersect1d(later_nodes, train_nodes, assume_unique=True)
        rng = np.random.default_rng(seed)
        extra = rng.choice(pool, size=min(k, len(pool)), replace=False)
        masked = np.union1d(unseen, extra)
    touches = (np.isin(store.src[:n_train], masked)
               | np.isin(store.dst[:n_train], masked))
    usable = np.flatnonzero(~touches).astype(np.int64)
    return masked.astype(np.int64), usable


def chronological_split(store, ratios=(0.70, 0.15, 0.15), mask_frac=0.0,
                        seed=0):
    """First 70% of events train, next 15% val, rest test (floor/floor/
    remainder). Masked nodes never contribute usable training events."""
    if len(store) == 0:
        raise DataError("cannot split an empty store")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    if not (0.0 <= mask_frac < 1.0):
        raise ValueError(f"mask_frac must be in [0, 1), got {mask_frac}")
    n = len(store)
    n_train = int(math.floor(ratios[0] * n))
    n_val = int(math.floor(ratios[1] * n))
    if n_train == 0:
        raise DataError("train split is empty")
    masked, usable = _compute_mask(store, n_train, mask_frac, seed)
    return SplitSpec(
        train_range=(0, n_train),
        val_range=(n_train, n_train + n_val),
        test_range=(n_train + n_val, n),
        t_max_train=float(store.ts[n_train - 1]),
        masked_nodes=masked,
        usable_train_ids=usable,
        mask_frac=mask_frac,
        mask_seed=seed,
    )


def sparsify(store, split, n_keep_every):
    """Keep train events at positions 0, N, 2N, ... of the train range;
    val and test events are untouched. Returns the thinned store plus a
    recomputed SplitSpec (ranges shift, the mask is re-derived with the
    original mask_frac and seed)."""
    if n_keep_every < 1:
        raise ValueError("N must be >= 1")
    tr0, tr1 = split.train_range
    keep_train = np.arange(tr0, tr1, n_keep_every, dtype=np.int64)
    rest = np.arange(tr1, len(store), dtype=np.int64)
    keep = np.concatenate([keep_train, rest])
    thinned = EventStore(store.src[keep], store.dst[keep], store.ts[keep],
                         store.feat_ids[keep], store.node_features,
                         store.edge_features, num_users=store.num_users)
    n_train = len(keep_train)
    n_val = split.val_range[1] - split.val_range[0]
    masked, usable = _compute_mask(thinned, n_train, split.mask_frac,
                                   split.mask_seed)
    new_split = SplitSpec(
        train_range=(0, n_train),
        val_range=(n_train, n_train + n_val),
        test_range=(n_train + n_val, len(thinned)),
        t_max_train=float(thinned.ts[n_train - 1]),
        masked_nodes=masked,
        usable_train_ids=usable,
        mask_frac=split.mask_frac,
        mask_seed=split.mask_seed,
    )
    return thinned, new_split


def khop_sample(index, node, t, hops=3, fanouts=(10, 3, 3), seed=0,
                max_eid=None):
    """Seeded random-walk expansion to hop `hops`; returns the final-hop
    endpoints paired with the event id of the last hop (whose feature gets
    borrowed). Nodes already visited at earlier hops are dropped."""
    if hops < 1 or len(fanouts) < hops or any(f < 1 for f in fanouts[:hops]):
        raise ValueError("hops >= 1 and one fanout >= 1 per hop required")
    rng = np.random.default_rng(seed)
    visited = {int(node)}
    frontier = [int(node)]
    result = []
    for hop in range(hops):
        nxt = []
        seen_this_hop = set()
        for u in frontier:
            nb, ei, _ = index.neighbors_before(u, t, index.degree(u), max_eid)
            if len(nb) == 0:
                continue
            k = min(fanouts[hop], len(nb))
            pick = rng.choice(len(nb), size=k, replace=False)
            pick.sort()
            for j in pick:
                v, e = int(nb[j]), int(ei[j])
                if v in visited or v in seen_this_hop:
                    continue
                seen_this_hop.add(v)
                nxt.append((v, e))
        visited |= seen_this_hop
        frontier = [v for v, _ in nxt]
        result = nxt
    return result


def sample_negatives(pos_dst, pool, seed):
    """One seeded uniform destination per positive, never equal to the
    positive's destination."""
    pool = np.asarray(pool, dtype=np.int64)
    pos_dst = np.asarray(pos_dst, dtype=np.int64)
    if len(pool) == 0:
        raise ValueError("empty negative pool")
    if len(pool) == 1 and np.any(pool[0] == pos_dst):
        raise ValueError("pool has a single node equal to a positive destination")
    rng = np.random.default_rng(seed)
    out = pool[rng.integers(0, len(pool), size=len(pos_dst))]
    bad = out == pos_dst
    while np.any(bad):
        out[bad] = pool[rng.integers(0, len(pool), size=int(bad.sum()))]
        bad = out == pos_dst
    return out


def synth_generate(n_communities, n_users, n_items, n_events, noise_rate,
                   seed, jitter=0.1):
    """Bipartite community testbed: user u sits in community u % C and
    interacts with items of its community except for a `noise_rate` fraction
    of events; edge features are the item's community one-hot plus seeded
    Gaussian jitter; timestamps strictly increase."""
    if min(n_communities, n_users, n_items, n_events) < 1:
        raise ValueError("all synth counts must be positive")
    if n_communities > min(n_users, n_items):
        raise ValueError("more communities than users or items")
    c = n_communities
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, size=n_events)
    comm = users % c
    flip = rng.random(n_events) < noise_rate
    if c > 1:
        shift = rng.integers(1, c, size=n_events)
        comm = np.where(flip, (comm + shift) % c, comm)
    # k-th item of community q has local id q + c*k
    members = np.array([len(range(q, n_items, c)) for q in range(c)])
    pick = np.floor(rng.random(n_events) * members[comm]).astype(np.int64)
    items = comm + c * pick
    ts = np.arange(1, n_events + 1, dtype=np.float64)
    feats = np.zeros((n_events, c), dtype=np.float32)
    feats[np.arange(n_events), comm] = 1.0
    feats += (jitter * rng.standard_normal((n_events, c))).astype(np.float32)
    node_features = np.zeros((n_users + n_items, c), dtype=np.float32)
    return EventStore(users, n_users + items, ts,
                      np.arange(n_events, dtype=np.int64),
                      node_features, feats, num_users=n_users)


# ---------------------------------------------------------------------------
# jodie-csv io: header line, then `user_id,item_id,timestamp,state_label,f...`

def load_events(path, node_feature_dim=None):
    """Parse a jodie-csv interaction file into an EventStore. Item ids are
    offset by the user count (max user id + 1, identical for the contiguous
    ids these files use) to share one node-id space."""
    users, items, tss, feats = [], [], [], []
    n_feat = None
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}")
    with handle as f:
        header = f.readline()
        if header == "":
            raise DataError(f"{path}: empty file")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 4:
                raise DataError(f"{path}:{lineno}: expected at least 4 fields")
            if n_feat is None:
                n_feat = len(parts) - 4
            elif len(parts) - 4 != n_feat:
                raise DataError(
                    f"{path}:{lineno}: ragged row ({len(parts) - 4} features, "
                    f"expected {n_feat})")
            try:
                u = float(parts[0])
                v = float(parts[1])
                t = float(parts[2])
                fv = [float(x) for x in parts[4:]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric field")
            if u != int(u) or v != int(v) or u < 0 or v < 0:
                raise DataError(f"{path}:{lineno}: node ids must be "
                                "non-negative integers")
            if t < 0 or not math.isfinite(t):
                raise DataError(f"{path}:{lineno}: negative or non-finite "
                                "timestamp")
            users.append(int(u))
            items.append(int(v))
            tss.append(t)
            feats.append(fv)
    if not users:
        raise DataError(f"{path}: no data rows")
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    tss = np.asarray(tss, dtype=np.float64)
    feats = np.asarray(feats, dtype=np.float32).reshape(len(users), n_feat)
    num_users = int(users.max()) + 1
    dst = num_users + items
    order = np.argsort(tss, kind="stable")
    num_nodes = num_users + int(items.max()) + 1
    d_v = node_feature_dim if node_feature_dim is not None else max(n_feat, 1)
    node_features = np.zeros((num_nodes, d_v), dtype=np.float32)
    return EventStore(users[order], dst[order], tss[order],
                      np.arange(len(users), dtype=np.int64),
                      node_features, feats[order], num_users=num_users)


def save_events(store, path):
    """Serialize a bipartite store back to jodie-csv."""
    if store.num_users is None:
        raise DataError("store has no bipartite user/item boundary")
    d = store.edge_dim
    with open(path, "w", encoding="utf-8") as f:
        cols = ",".join(f"f{i}" for i in range(d))
        f.write("user_id,item_id,timestamp,state_label" + ("," + cols if d else "") + "\n")
        for i in range(len(store)):
            u = int(store.src[i])
            v = int(store.dst[i] - store.num_users)
            row = store.edge_features[store.feat_ids[i]]
            feat_txt = ",".join(repr(float(x)) for x in row)
            f.write(f"{u},{v},{float(store.ts[i])!r},0"
                    + ("," + feat_txt if d else "") + "\n")
