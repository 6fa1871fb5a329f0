"""Continuous-time dynamic graph data layer.

Events are undirected timestamped interactions (src, dst, t, feature row) on
a node-id space where bipartite item ids sit after the user ids. Everything
downstream (neighbor queries, splits, sampling) is built on the invariant
that events are sorted by timestamp with ties broken by ingestion order, so
"strictly before t" is always well defined, and so is "before event id e",
the cut of `NeighborIndex.prefix(e)`. Node and event ids are small dense
integers, so ids are ordered and deduplicated in linear time (`id_order`,
`node_set`), each result equal to the comparison sort's.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventStore", "NeighborIndex", "SplitSpec", "load_events", "save_events",
    "chronological_split", "sparsify", "synth_generate",
    "sample_negatives", "id_order", "by_ids", "run_heads", "runs", "ranks",
    "top_k", "id_presence", "node_set",
]


class DataError(ValueError):
    """Malformed input data (bad rows, inconsistent stores)."""


def id_order(keys):
    """`np.argsort(keys, kind="stable")` for non-negative int keys, in
    linear time: least-significant-digit passes over 16-bit digits, each a
    stable argsort of a uint16 array, which numpy runs as a radix sort.
    The largest key sets the number of passes (one below 2**16)."""
    keys = np.asarray(keys, dtype=np.int64)
    if len(keys) == 0:
        return np.zeros(0, dtype=np.intp)
    if keys.min() < 0:
        raise ValueError("id_order: negative key")
    top = int(keys.max())
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def by_ids(order, *keys):
    """`order` re-sorted stably by each id key in turn, the last key
    primary: with `order` a stable argsort of a float key f, this is
    `np.lexsort((f, *keys))`, ties left in index order."""
    for key in keys:
        order = order[id_order(key[order])]
    return order


def run_heads(order, *keys):
    """Where the runs of equal rows start along `order`, a sort of the rows
    by `keys`: a bool mask over the positions in `order`."""
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for key in keys:
        k = key[order]
        head[1:] |= k[1:] != k[:-1]
    return head


def runs(order, *keys):
    """The runs of equal rows along `order`, a sort of the rows by `keys`:
    the positions in `order` where a run starts, and each row's run."""
    head = run_heads(order, *keys)
    run = np.empty(len(order), dtype=np.intp)
    run[order] = np.cumsum(head) - 1
    return np.flatnonzero(head), run


def ranks(group):
    """Rank of each entry inside its run of a non-decreasing group array:
    its position less its run's head, the heads carried forward by a
    running maximum. Linear; equal to `arange - searchsorted(group, group)`."""
    group = np.asarray(group)
    head = np.flatnonzero(group[1:] != group[:-1]) + 1
    start = np.zeros(len(group), dtype=np.intp)
    start[head] = head
    return np.arange(len(group)) - np.maximum.accumulate(start)


def top_k(score, group, k):
    """The sorted indices of each group's k highest scores, the earlier
    index first on ties: a stable sort by -score, then an id order by the
    (non-negative int) group, keeping each group's first k."""
    order = by_ids(np.argsort(-score, kind="stable"), group)
    return np.sort(order[ranks(group[order]) < k])


def id_presence(bound, *ids):
    """A bool array over [0, bound), True at every id of the given
    arrays (each id in that range)."""
    present = np.zeros(bound, dtype=bool)
    for part in ids:
        present[np.asarray(part, dtype=np.int64)] = True
    return present


def node_set(bound, *ids):
    """The distinct ids of the given arrays, sorted: `np.unique` of their
    concatenation, from an O(bound) presence array."""
    return np.flatnonzero(id_presence(bound, *ids))


def edge_entries(src, dst, eids, ts):
    """Each edge's two CSR entries side by side, the source's first:
    (owners, peers, eids, ts), each of length 2 * len(src)."""
    owners = np.empty(2 * len(src), dtype=np.int64)
    owners[0::2], owners[1::2] = src, dst
    peers = np.empty_like(owners)
    peers[0::2], peers[1::2] = dst, src
    return owners, peers, np.repeat(eids, 2), np.repeat(ts, 2)


class EventStore:
    """Chronologically sorted interaction events plus feature tables.

    Columns are kept as flat numpy arrays; event e's feature row is
    edge_features[e]. Immutable after construction.
    """

    def __init__(self, src, dst, ts, node_features, edge_features,
                 num_users=None):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.ts = np.asarray(ts, dtype=np.float64)
        self.node_features = np.asarray(node_features, dtype=np.float32)
        self.edge_features = np.asarray(edge_features, dtype=np.float32)
        self.num_users = num_users
        self._validate()

    def _validate(self):
        n = len(self.src)
        if not (len(self.dst) == len(self.ts) == n):
            raise DataError("event columns have inconsistent lengths")
        if len(self.edge_features) != n:
            raise DataError(f"{len(self.edge_features)} edge feature rows "
                            f"for {n} events")
        if n and np.any(np.diff(self.ts) < 0):
            raise DataError("events not sorted by timestamp")
        if n and (self.ts.min() < 0 or not np.all(np.isfinite(self.ts))):
            raise DataError("timestamps must be finite and >= 0")
        v = self.num_nodes
        if n and (self.src.min() < 0 or self.dst.min() < 0
                  or self.src.max() >= v or self.dst.max() >= v):
            raise DataError("node ids outside the feature table")
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

    def __init__(self, num_nodes, nbr, eid, ts, offsets, max_eid=None):
        self.num_nodes = num_nodes
        self.nbr = nbr
        self.eid = eid
        self.ts = ts
        self.offsets = offsets
        self.max_eid = max_eid

    @classmethod
    def build(cls, store, event_ids=None):
        """The index over `event_ids` (all events when None), which must
        ascend strictly: each event's two entries are laid out side by
        side in event-id order, so one stable id order by owner gives the
        (owner, event id) order, a self-loop's source entry first."""
        if event_ids is None:
            event_ids = np.arange(len(store), dtype=np.int64)
        else:
            event_ids = np.asarray(event_ids, dtype=np.int64)
            if np.any(event_ids[1:] <= event_ids[:-1]):
                raise ValueError("NeighborIndex.build: event ids must "
                                 "ascend strictly")
        s, d = store.src[event_ids], store.dst[event_ids]
        owners, peers, eids, ts = edge_entries(s, d, event_ids,
                                             store.ts[event_ids])
        return cls.from_order(store.num_nodes, id_order(owners), owners,
                              peers, eids, ts)

    @classmethod
    def from_order(cls, num_nodes, order, owners, peers, eids, ts):
        """CSR over the entries taken in `order`, which must sort them by
        owner and, within an owner, by non-decreasing ts (and eid, if the
        index is to be cut by `prefix`)."""
        counts = np.bincount(owners, minlength=num_nodes)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(num_nodes, peers[order], eids[order], ts[order], offsets)

    def prefix(self, eid):
        """This index, also cut before event id `eid`, on the same CSR
        arrays: it answers as the index over the earlier events does."""
        return type(self)(self.num_nodes, self.nbr, self.eid, self.ts,
                          self.offsets, eid if self.max_eid is None
                          else min(eid, self.max_eid))

    def ranges_before(self, nodes, ts):
        """For each (node, t) row, the CSR range [lo, cut) of the node's
        entries strictly before t (and before the index's max_eid): a
        per-row `searchsorted(side="left")`, run as one bisection over all
        rows. `ts` may be a scalar."""
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
            if self.max_eid is not None:
                before &= self.eid[mid] < self.max_eid
            cut[act] = np.where(before, mid + 1, a)
            end[act] = np.where(before, b, mid)
            act = act[cut[act] < end[act]]
        return lo, cut

    def neighbors_before(self, node, t, n):
        """The n most recent entries strictly before time t, ascending."""
        lo, cut = self.ranges_before([node], [t])
        sl = slice(max(int(lo[0]), int(cut[0]) - n), int(cut[0]))
        return self.nbr[sl], self.eid[sl], self.ts[sl]

    def batch_neighbors(self, nodes, ts, n):
        """Right-padded [B, n] neighbor blocks: ids, event ids, timestamps
        and a {0,1} mask, holding each row's n most recent entries strictly
        before its time (as `neighbors_before`; `ts` may be a scalar).
        Padded slots carry node 0 at time 0."""
        lo, cut = self.ranges_before(nodes, ts)
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


@dataclass
class SplitSpec:
    train_range: tuple          # (start, end) event-id ranges, end exclusive
    val_range: tuple
    test_range: tuple
    t_max_train: float
    masked_nodes: np.ndarray    # sorted node ids excluded from training
    usable_train_ids: np.ndarray  # train events touching no masked node

    def is_masked(self, nodes):
        return np.isin(np.asarray(nodes), self.masked_nodes)

    @property
    def val_ids(self):
        return np.arange(*self.val_range, dtype=np.int64)

    @property
    def test_ids(self):
        return np.arange(*self.test_range, dtype=np.int64)


def _compute_mask(store, n_train, mask_frac, seed):
    """Unseen-in-training nodes plus a seeded sample of other val/test-active
    nodes, mask_frac of the nodes that occur; returns (sorted masked ids,
    usable train event ids)."""
    v = store.num_nodes
    in_train = id_presence(v, store.src[:n_train], store.dst[:n_train])
    later = id_presence(v, store.src[n_train:], store.dst[n_train:])
    masked = later & ~in_train
    k = int(math.floor(mask_frac * np.count_nonzero(in_train | later)))
    if k > 0:
        pool = np.flatnonzero(later & in_train)
        rng = np.random.default_rng(seed)
        masked[rng.choice(pool, size=min(k, len(pool)), replace=False)] = True
    touches = masked[store.src[:n_train]] | masked[store.dst[:n_train]]
    usable = np.flatnonzero(~touches).astype(np.int64)
    return np.flatnonzero(masked).astype(np.int64), usable


def _split_spec(store, n_train, n_val, mask_frac, seed):
    """Train, val and test as consecutive ranges (test takes the rest),
    with the mask drawn by `_compute_mask`."""
    masked, usable = _compute_mask(store, n_train, mask_frac, seed)
    return SplitSpec(
        train_range=(0, n_train),
        val_range=(n_train, n_train + n_val),
        test_range=(n_train + n_val, len(store)),
        t_max_train=float(store.ts[n_train - 1]),
        masked_nodes=masked,
        usable_train_ids=usable,
    )


def _split_sizes(store, mask_frac):
    """The train and val sizes of the chronological split, floor(0.70 n)
    and floor(0.15 n); the test range takes the rest."""
    if len(store) == 0:
        raise DataError("cannot split an empty store")
    if not (0.0 <= mask_frac < 1.0):
        raise ValueError(f"mask_frac must be in [0, 1), got {mask_frac}")
    n = len(store)
    n_train = int(math.floor(0.70 * n))
    if n_train == 0:
        raise DataError("train split is empty")
    return n_train, int(math.floor(0.15 * n))


def chronological_split(store, mask_frac=0.0, seed=0):
    """First 70% of events train, next 15% val, rest test (floor/floor/
    remainder). Masked nodes never contribute usable training events."""
    n_train, n_val = _split_sizes(store, mask_frac)
    return _split_spec(store, n_train, n_val, mask_frac, seed)


def sparsify(store, n_keep_every, mask_frac=0.0, seed=0):
    """The chronological split with its train range thinned: train events
    at positions 0, N, 2N, ... are kept, val and test events untouched.
    Returns the thinned store, holding the kept events' feature rows, and
    its SplitSpec, whose mask is drawn on the thinned store."""
    if n_keep_every < 1:
        raise ValueError("N must be >= 1")
    n_train, n_val = _split_sizes(store, mask_frac)
    keep_train = np.arange(0, n_train, n_keep_every, dtype=np.int64)
    keep = np.concatenate([keep_train,
                           np.arange(n_train, len(store), dtype=np.int64)])
    thinned = EventStore(store.src[keep], store.dst[keep], store.ts[keep],
                         store.node_features, store.edge_features[keep],
                         num_users=store.num_users)
    return thinned, _split_spec(thinned, len(keep_train), n_val, mask_frac,
                                seed)


def sample_negatives(pos_dst, pool, seed):
    """One seeded uniform destination per positive, never equal to the
    positive's destination."""
    pool = np.asarray(pool, dtype=np.int64)
    pos_dst = np.asarray(pos_dst, dtype=np.int64)
    if len(pool) == 0:
        raise DataError("empty negative pool")
    if len(pool) == 1 and np.any(pool[0] == pos_dst):
        raise DataError("pool has a single node equal to a positive destination")
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
    return EventStore(users, n_users + items, ts, node_features, feats,
                      num_users=n_users)


# ---------------------------------------------------------------------------
# jodie-csv io: header line, then `user_id,item_id,timestamp,state_label,f...`

def _text_lines(path, f):
    """(line number, text) of each line of binary file f, decoded from
    UTF-8 one line at a time, so that a byte that is not UTF-8 is a
    DataError naming its line. As in text mode, a line ends at \\n, \\r\\n
    or \\r (no UTF-8 sequence holds either byte)."""
    lineno = 0
    for raw in f:
        for piece in raw.splitlines() or [b""]:
            lineno += 1
            try:
                yield lineno, piece.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(f"cannot read {path}:{lineno}: {e}") from None


def load_events(path):
    """Parse a jodie-csv interaction file into an EventStore. Item ids are
    offset by the user count (max user id + 1, identical for the contiguous
    ids these files use) to share one node-id space."""
    users, items, tss, feats = [], [], [], []
    n_feat = None
    try:
        with open(path, "rb") as f:
            lines = _text_lines(path, f)
            if next(lines, None) is None:
                raise DataError(f"{path}: empty file")
            for lineno, line in lines:
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < 4:
                    raise DataError(f"{path}:{lineno}: expected at least "
                                    "4 fields")
                if n_feat is None:
                    n_feat = len(parts) - 4
                elif len(parts) - 4 != n_feat:
                    raise DataError(f"{path}:{lineno}: ragged row "
                                    f"({len(parts) - 4} features, expected "
                                    f"{n_feat})")
                try:
                    u = float(parts[0])
                    v = float(parts[1])
                    t = float(parts[2])
                    fv = [float(x) for x in parts[4:]]
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric field")
                if not all(0 <= x < math.inf and x == int(x) for x in (u, v)):
                    raise DataError(f"{path}:{lineno}: node ids must be "
                                    "non-negative integers")
                if t < 0 or not math.isfinite(t):
                    raise DataError(f"{path}:{lineno}: negative or non-finite "
                                    "timestamp")
                users.append(int(u))
                items.append(int(v))
                tss.append(t)
                feats.append(fv)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}")
    if not users:
        raise DataError(f"{path}: no data rows")
    num_users = max(users) + 1
    num_nodes = num_users + max(items) + 1
    width = max(n_feat, 1)
    try:
        node_features = np.zeros((num_nodes, width), dtype=np.float32)
    except (MemoryError, ValueError, OverflowError):
        raise DataError(
            f"{path}: largest node id {max(max(users), max(items))} implies "
            f"a node table of {num_nodes} rows x {width} float32 "
            f"({num_nodes * width * 4 / 2**30:.1f} GiB), which cannot be "
            "allocated") from None
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    tss = np.asarray(tss, dtype=np.float64)
    feats = np.asarray(feats, dtype=np.float32).reshape(len(users), n_feat)
    order = np.argsort(tss, kind="stable")
    return EventStore(users[order], num_users + items[order], tss[order],
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
            feat_txt = ",".join(repr(float(x))
                                for x in store.edge_features[i])
            f.write(f"{u},{v},{float(store.ts[i])!r},0"
                    + ("," + feat_txt if d else "") + "\n")
