import dataclasses

import numpy as np
import pytest

from tgsl import graph as tg
from tgsl.graph import DataError, EventStore, NeighborIndex
from tgsl.structure import sample_candidates


def write_csv(path, rows, n_feat=2):
    head = "user_id,item_id,timestamp,state_label," + ",".join(
        f"f{i}" for i in range(n_feat))
    path.write_text(head + "\n" + "\n".join(rows) + "\n")
    return str(path)


def test_load_three_rows(tmp_path):
    p = write_csv(tmp_path / "t.csv", [
        "0,0,1.0,0,0.5,0.25",
        "1,1,2.0,0,0.1,0.2",
        "0,1,3.0,0,0.3,0.4",
    ])
    store = tg.load_events(p)
    assert len(store) == 3
    assert store.edge_features.shape == (3, 2)
    assert store.num_users == 2
    # items are offset past the user ids
    assert store.dst.min() >= store.num_users


def test_load_wikipedia_width(tmp_path):
    feats = ",".join(["0.01"] * 172)
    p = write_csv(tmp_path / "w.csv",
                  [f"0,0,1.0,0,{feats}", f"1,0,2.0,0,{feats}"], n_feat=172)
    store = tg.load_events(p)
    assert store.edge_dim == 172


def test_load_out_of_order_equals_presorted(tmp_path):
    rows = ["0,0,5.0,0,1.0,0.0", "1,1,1.0,0,0.0,1.0", "0,1,3.0,0,0.5,0.5"]
    a = tg.load_events(write_csv(tmp_path / "a.csv", rows))
    b = tg.load_events(write_csv(
        tmp_path / "b.csv", sorted(rows, key=lambda r: float(r.split(",")[2]))))
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.edge_features, b.edge_features)


@pytest.mark.parametrize("row,msg", [
    ("0,0,1.0,0,0.5", "ragged"),
    ("0,x,1.0,0,0.5,0.5", "non-numeric"),
    ("0,0,-1.0,0,0.5,0.5", "negative"),
    # int(nan) and int(inf) used to raise past the row checks
    ("nan,0,1.0,0,0.5,0.5", "node ids"),
    ("0,inf,1.0,0,0.5,0.5", "node ids"),
])
def test_load_rejects_bad_rows_with_line_number(tmp_path, row, msg):
    p = write_csv(tmp_path / "bad.csv", ["0,0,1.0,0,0.5,0.5", row])
    with pytest.raises(DataError, match=r":3"):   # header is line 1
        tg.load_events(p)


@pytest.mark.parametrize("good_rows", [0, 2000])
def test_load_undecodable_bytes_is_a_data_error_naming_the_file(
        tmp_path, good_rows):
    """A byte that is not UTF-8 in the header's read, or in a row read
    inside the line loop, well past the first buffered chunk."""
    path = tmp_path / "bytes.csv"
    write_csv(path, ["0,0,1.0,0,0.5,0.5"] * good_rows)
    with open(path, "ab") as f:
        f.write(b"1,1,2.0,0,0.5,\xff\n")
    with pytest.raises(DataError, match="cannot read .*bytes.csv"):
        tg.load_events(str(path))


def test_load_undecodable_byte_names_its_line(tmp_path):
    """A 32,948-byte file whose only bad byte is its second-last, far past
    the first 8 KiB a text reader decodes ahead: the error names the
    line, and the position inside it."""
    path = tmp_path / "bytes.csv"
    write_csv(path, ["0,0,1.0,0,0.5,0.5"] * 1828)
    data = bytearray(path.read_bytes())
    assert len(data) == 32_948
    data[-2] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(DataError,
                       match=r"cannot read .*bytes\.csv:1829: 'utf-8' codec "
                             r"can't decode byte 0xff in position 16"):
        tg.load_events(str(path))


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_load_takes_crlf_and_cr_line_ends_as_text_mode_does(tmp_path, end):
    rows = ["0,0,1.0,0,0.5,0.25", "", "1,1,2.0,0,0.1,0.2"]
    want = tg.load_events(write_csv(tmp_path / "lf.csv", rows))
    text = (tmp_path / "lf.csv").read_text().replace("\n", end)
    (tmp_path / "other.csv").write_bytes(text.encode())
    got = tg.load_events(str(tmp_path / "other.csv"))
    for field in ("src", "dst", "ts", "edge_features", "node_features"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    bad = text.replace("2.0", "x", 1).encode()
    (tmp_path / "bad.csv").write_bytes(bad)
    with pytest.raises(DataError, match=r"bad\.csv:4: non-numeric"):
        tg.load_events(str(tmp_path / "bad.csv"))


# ---------------------------------------------------------------------------
# chronological split

def test_split_sizes_floor_floor_remainder():
    store = tg.synth_generate(2, 4, 4, 10, 0.0, seed=0)
    sp = tg.chronological_split(store)
    assert sp.train_range == (0, 7)
    assert sp.val_range == (7, 8)
    assert sp.test_range == (8, 10)
    assert sp.t_max_train == store.ts[6]


def test_split_mask_zero_is_exactly_unseen():
    store = tg.synth_generate(2, 30, 30, 300, 0.1, seed=5)
    sp = tg.chronological_split(store, mask_frac=0.0)
    n_tr = sp.train_range[1]
    train_nodes = set(store.src[:n_tr]) | set(store.dst[:n_tr])
    later = set(store.src[n_tr:]) | set(store.dst[n_tr:])
    assert set(sp.masked_nodes.tolist()) == later - train_nodes


def test_split_mask_reproducible_and_clean():
    store = tg.synth_generate(2, 20, 20, 100, 0.1, seed=9)
    a = tg.chronological_split(store, mask_frac=0.1, seed=4)
    b = tg.chronological_split(store, mask_frac=0.1, seed=4)
    assert np.array_equal(a.masked_nodes, b.masked_nodes)
    use = a.usable_train_ids
    assert not np.any(a.is_masked(store.src[use]))
    assert not np.any(a.is_masked(store.dst[use]))


def test_split_rejects_empty_and_bad_args():
    store = tg.synth_generate(2, 4, 4, 10, 0.0, seed=0)
    empty = EventStore([], [], [], store.node_features,
                       store.edge_features[:0])
    with pytest.raises(DataError, match="empty"):
        tg.chronological_split(empty)
    with pytest.raises(ValueError):
        tg.chronological_split(store, mask_frac=1.0)


def gapped(store, at, gap):
    """The store with every node id >= `at` moved up by `gap`: the same
    graph, its ids in the same order, `gap` unused ids in the table."""
    def shift(ids):
        return np.where(ids >= at, ids + gap, ids)
    feats = np.zeros((store.num_nodes + gap, store.node_dim), np.float32)
    return EventStore(shift(store.src), shift(store.dst), store.ts, feats,
                      store.edge_features), shift


@pytest.mark.parametrize("seed", [0, 1])
def test_split_mask_of_a_store_with_an_id_gap_is_its_dense_twins(seed):
    """The extra mask is sized by the nodes that occur, not by the id
    range: a store whose ids skip 5000 unused ones masks exactly the
    renumbered nodes of its dense twin, and keeps the same train events."""
    dense = tg.synth_generate(3, 40, 40, 400, 0.2, seed=seed)
    sparse, shift = gapped(dense, 30, 5000)
    for mask_frac in (0.0, 0.05, 0.3):
        a = tg.chronological_split(dense, mask_frac=mask_frac, seed=seed)
        b = tg.chronological_split(sparse, mask_frac=mask_frac, seed=seed)
        assert np.array_equal(b.masked_nodes, shift(a.masked_nodes))
        assert np.array_equal(b.usable_train_ids, a.usable_train_ids)
    # the twin's extra mask is a few nodes, not every val/test-active one
    unseen = tg.chronological_split(dense, mask_frac=0.0).masked_nodes
    assert 0 < len(a.masked_nodes) - len(unseen) <= 0.3 * dense.num_nodes


def set_ops_mask(store, n_train, mask_frac, seed):
    """The split's mask through np.unique, setdiff1d, intersect1d, union1d
    and isin: the reference for the presence-array form. The extra mask
    takes mask_frac of the nodes that occur."""
    train_nodes = np.unique(np.concatenate([store.src[:n_train],
                                            store.dst[:n_train]]))
    later_nodes = np.unique(np.concatenate([store.src[n_train:],
                                            store.dst[n_train:]]))
    masked = np.setdiff1d(later_nodes, train_nodes, assume_unique=True)
    k = int(np.floor(mask_frac * len(np.union1d(train_nodes, later_nodes))))
    if k > 0:
        pool = np.intersect1d(later_nodes, train_nodes, assume_unique=True)
        rng = np.random.default_rng(seed)
        extra = rng.choice(pool, size=min(k, len(pool)), replace=False)
        masked = np.union1d(masked, extra)
    touches = (np.isin(store.src[:n_train], masked)
               | np.isin(store.dst[:n_train], masked))
    return masked.astype(np.int64), np.flatnonzero(~touches).astype(np.int64)


@pytest.mark.parametrize("mask_frac", [0.0, 0.05, 0.3, 0.9])
@pytest.mark.parametrize("seed", [0, 1])
def test_split_mask_matches_set_ops_form(mask_frac, seed):
    dense = tg.synth_generate(3, 40, 40, 400, 0.2, seed=seed)
    for store in (dense, gapped(dense, 30, 5000)[0]):
        for n_train in (1, 200, 400):
            got = tg._compute_mask(store, n_train, mask_frac, seed)
            want = set_ops_mask(store, n_train, mask_frac, seed)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
            assert [x.dtype for x in got] == [x.dtype for x in want]


# ---------------------------------------------------------------------------
# id orders and id sets

def id_cases():
    """(name, keys): empty, one key, all keys equal, and random keys below
    bounds on both sides of each 16-bit digit, each holding the bound's
    largest key."""
    rng = np.random.default_rng(0)
    yield "empty", np.zeros(0, dtype=np.int64)
    yield "one", np.array([7], dtype=np.int64)
    yield "all-equal", np.full(500, 70_000, dtype=np.int64)
    for bound in (1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32 + 3, 2**33):
        keys = rng.integers(0, bound, size=3000)
        keys[:200] = rng.integers(0, 4, size=200)   # ties
        keys[-1] = bound - 1
        yield f"below-{bound}", rng.permutation(keys)


@pytest.mark.parametrize("name", [name for name, _ in id_cases()])
def test_id_order_is_the_stable_argsort(name):
    keys = dict(id_cases())[name]
    got = tg.id_order(keys)
    want = np.argsort(keys, kind="stable")
    assert got.tobytes() == want.tobytes() and got.dtype == want.dtype


def test_id_order_rejects_negative_keys():
    with pytest.raises(ValueError, match="negative"):
        tg.id_order(np.array([3, -1, 2]))


@pytest.mark.parametrize("high", [3, 2**16 + 2, 2**35])
def test_by_ids_after_a_float_sort_is_the_lexsort(high):
    """Float ties (including -0.0 and 0.0) and id ties in both keys."""
    rng = np.random.default_rng(high)
    for m in (0, 1, 2000):
        f = rng.choice([-0.0, 0.0, 0.5, 1.5, -2.0], size=m)
        a = rng.choice(rng.integers(0, high, size=6), size=m)
        b = rng.choice(rng.integers(0, high, size=6), size=m)
        got = tg.by_ids(np.argsort(f, kind="stable"), a, b)
        want = np.lexsort((f, a, b))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [name for name, _ in id_cases()])
def test_runs_of_one_id_key_match_unique(name):
    keys = dict(id_cases())[name]
    order = tg.id_order(keys)
    starts, run = tg.runs(order, keys)
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    assert np.array_equal(order[starts], first)
    assert np.array_equal(run, inverse.reshape(-1))


@pytest.mark.parametrize("first_id", [0, 2**16 - 3])
def test_runs_of_id_and_float_keys_match_unique_rows(first_id):
    """Rows (a, b, f) ordered by a stable float sort of f and an id order
    by b, then a; ids from 0 and across a 16-bit digit, ties in every key:
    the run heads are np.unique's first indices, the runs its inverse."""
    rng = np.random.default_rng(first_id)
    for m in (0, 1, 3000):
        a = first_id + rng.integers(0, 6, size=m)
        b = rng.integers(0, 3, size=m)
        f = rng.choice([0.0, 0.25, 1.5, -2.0], size=m)
        order = tg.by_ids(np.argsort(f, kind="stable"), b, a)
        starts, run = tg.runs(order, a, b, f)
        rows = np.stack([a, b, f], axis=1).astype(np.float64)
        _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                      return_inverse=True)
        assert np.array_equal(order[starts], first)
        assert np.array_equal(run, inverse.reshape(-1))
        assert len(starts) == len(first) and run.dtype == np.intp


def ranks_cases():
    """(name, group): empty, single, all-equal, all-distinct and random
    non-decreasing int arrays, with long and one-entry runs."""
    rng = np.random.default_rng(1)
    yield "empty", np.zeros(0, dtype=np.int64)
    yield "single", np.array([5], dtype=np.int64)
    yield "all-equal", np.full(400, 9, dtype=np.int64)
    yield "all-distinct", np.arange(3, 903, dtype=np.int64) * 7
    for high in (2, 50, 2**40):
        yield f"random-below-{high}", np.sort(rng.integers(0, high, 2000))


@pytest.mark.parametrize("name", [name for name, _ in ranks_cases()])
def test_ranks_match_the_searchsorted_form(name):
    group = dict(ranks_cases())[name]
    got = tg.ranks(group)
    want = np.arange(len(group)) - np.searchsorted(group, group)
    assert got.tobytes() == want.tobytes() and got.dtype == want.dtype


def lexsort_top_k(score, group, k):
    """Each group's first k entries of one (group, -score, index) lexsort,
    sorted: the reference for graph.top_k."""
    order = np.lexsort((np.arange(len(score)), -score, group))
    seen = {}
    keep = []
    for i in order:
        seen[group[i]] = seen.get(group[i], 0) + 1
        if seen[group[i]] <= k:
            keep.append(i)
    return np.sort(np.array(keep, dtype=np.intp))


@pytest.mark.parametrize("high", [4, 2**16 + 7])
def test_top_k_matches_lexsort_form(high):
    """Scores from few values, so they tie inside groups; k = 1, k inside
    the groups and k past every group's size."""
    rng = np.random.default_rng(high)
    for m in (0, 1, 900):
        group = rng.choice(rng.integers(0, high, size=9), size=m)
        score = rng.choice([0.1, 0.5, 0.5, 0.9], size=m).astype(np.float32)
        for k in (1, 3, 1000):
            got = tg.top_k(score, group, k)
            want = lexsort_top_k(score, group, k)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bound", [1, 5, 2**16 - 1, 2**16, 2**16 + 1])
def test_node_set_is_unique(bound):
    rng = np.random.default_rng(bound)
    parts = [rng.integers(0, bound, size=m) for m in (0, 1, 900, 40)]
    parts[2][-1] = bound - 1
    for some in ([], parts[:1], parts[1:2], parts, [np.full(30, bound - 1)]):
        got = tg.node_set(bound, *some)
        want = np.unique(np.concatenate(some or [np.zeros(0, np.int64)]))
        assert got.tobytes() == want.tobytes() and got.dtype == want.dtype


# ---------------------------------------------------------------------------
# neighbor queries

def test_neighbors_before_zero_time_empty():
    store = tg.synth_generate(2, 4, 4, 20, 0.0, seed=1)
    idx = NeighborIndex.build(store)
    nb, ei, ts = idx.neighbors_before(0, 0.0, 5)
    assert len(nb) == 0


def test_neighbors_before_strict_inequality():
    store = EventStore([0, 0, 0], [1, 2, 3], [1.0, 2.0, 3.0],
                       np.zeros((4, 1)), np.zeros((3, 1)))
    idx = NeighborIndex.build(store)
    nb, ei, ts = idx.neighbors_before(0, 3.0, 5)
    assert list(ts) == [1.0, 2.0]


def test_neighbors_before_matches_brute_force():
    rng = np.random.default_rng(3)
    store = tg.synth_generate(3, 12, 12, 400, 0.2, seed=3)
    idx = NeighborIndex.build(store)
    for _ in range(50):
        node = int(rng.integers(store.num_nodes))
        t = float(rng.uniform(0, 450))
        n = int(rng.integers(1, 8))
        got = idx.neighbors_before(node, t, n)
        # brute force: filter, sort, truncate
        hist = [(store.ts[i], i, int(store.dst[i] if store.src[i] == node
                                     else store.src[i]))
                for i in range(len(store))
                if (store.src[i] == node or store.dst[i] == node)
                and store.ts[i] < t]
        hist.sort()
        want = hist[-n:]
        assert [int(x) for x in got[1]] == [i for _, i, _ in want]
        assert [int(x) for x in got[0]] == [v for _, _, v in want]


def test_neighbor_index_rebuild_equality():
    store = tg.synth_generate(2, 10, 10, 150, 0.1, seed=8)
    a, b = NeighborIndex.build(store), NeighborIndex.build(store)
    assert (a.num_nodes == b.num_nodes
            and np.array_equal(a.offsets, b.offsets)
            and np.array_equal(a.nbr, b.nbr)
            and np.array_equal(a.eid, b.eid)
            and np.array_equal(a.ts, b.ts))


def lexsort_index(store, event_ids=None):
    """The index with both endpoint lists stacked and one (owner, event id)
    lexsort: the reference for the id-ordered build."""
    if event_ids is None:
        event_ids = np.arange(len(store), dtype=np.int64)
    s, d = store.src[event_ids], store.dst[event_ids]
    owners = np.concatenate([s, d])
    eids = np.concatenate([event_ids, event_ids])
    order = np.lexsort((eids, owners))
    counts = np.bincount(owners, minlength=store.num_nodes)
    offsets = np.zeros(store.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return (np.concatenate([d, s])[order], eids[order],
            np.concatenate([store.ts[event_ids]] * 2)[order], offsets)


def random_store(rng, num_nodes, n_events):
    """Uniform endpoints (some events self-loops) at non-decreasing times
    with repeats."""
    src = rng.integers(0, num_nodes, size=n_events)
    dst = rng.integers(0, num_nodes, size=n_events)
    dst[::9] = src[::9]
    ts = np.sort(rng.integers(0, n_events // 4 + 1, size=n_events)
                 ).astype(np.float64)
    return EventStore(src, dst, ts, np.zeros((num_nodes, 1)),
                      np.zeros((n_events, 1)))


@pytest.mark.parametrize("num_nodes,n_events", [
    (1, 5), (7, 300), (500, 4000), (70_000, 6000)])
def test_build_matches_lexsort_index(num_nodes, n_events):
    rng = np.random.default_rng(num_nodes)
    store = random_store(rng, num_nodes, n_events)
    some = np.flatnonzero(rng.random(n_events) < 0.6)
    for event_ids in (None, some, some[:1], some[:0]):
        idx = NeighborIndex.build(store, event_ids)
        want = lexsort_index(store, event_ids)
        got = (idx.nbr, idx.eid, idx.ts, idx.offsets)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert [x.dtype for x in got] == [x.dtype for x in want]


@pytest.mark.parametrize("event_ids", [[0, 2, 2, 5], [3, 1], [4, 5, 0]])
def test_build_rejects_ids_not_strictly_ascending(event_ids):
    store = tg.synth_generate(2, 4, 4, 10, 0.0, seed=0)
    with pytest.raises(ValueError, match="ascend"):
        NeighborIndex.build(store, event_ids)


def test_no_event_at_or_after_query_time_is_returned():
    store = tg.synth_generate(2, 10, 10, 300, 0.2, seed=13)
    idx = NeighborIndex.build(store)
    rng = np.random.default_rng(0)
    for _ in range(100):
        node = int(rng.integers(store.num_nodes))
        t = float(rng.uniform(0, 300))
        _, _, ts = idx.neighbors_before(node, t, 20)
        assert np.all(ts < t)


# ---------------------------------------------------------------------------
# k-hop walks: third-hop candidates

def third_hop(idx, node, t, fanouts, seed):
    c = sample_candidates(np.array([node]), "third-hop", idx, 10, seed,
                          t_ref=t, t_max=t, fanouts=fanouts)
    return list(zip(c.dst.tolist(), c.feat_eid.tolist()))


def path_store():
    # 0 - 1 - 2 - 3 chain
    return EventStore([0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0],
                      np.zeros((4, 1)), np.zeros((3, 1)))


def test_khop_path_graph_reaches_far_end():
    idx = NeighborIndex.build(path_store())
    got = third_hop(idx, 0, 10.0, (2, 2, 2), seed=0)
    assert got == [(3, 2)]    # node 3 via the (2,3) edge, feature borrowed


def test_khop_star_graph_returns_empty():
    store = EventStore([0, 0, 0, 0], [1, 2, 3, 4],
                       [1.0, 2.0, 3.0, 4.0],
                       np.zeros((5, 1)), np.zeros((4, 1)))
    idx = NeighborIndex.build(store)
    got = third_hop(idx, 0, 10.0, (4, 4, 4), seed=1)
    assert got == []          # every walk folds back onto visited leaves


def test_khop_seed_determinism():
    store = tg.synth_generate(2, 15, 15, 300, 0.2, seed=2)
    idx = NeighborIndex.build(store)
    a = third_hop(idx, 3, 250.0, (10, 3, 3), seed=77)
    b = third_hop(idx, 3, 250.0, (10, 3, 3), seed=77)
    assert a and a == b


# ---------------------------------------------------------------------------
# sparsify

def test_sparsify_n1_is_identity():
    store = tg.synth_generate(2, 10, 10, 100, 0.1, seed=4)
    sp = tg.chronological_split(store)
    thin, sp2 = tg.sparsify(store, 1)
    assert np.array_equal(thin.src, store.src)
    assert np.array_equal(thin.ts, store.ts)
    assert sp2.train_range == sp.train_range


def test_sparsify_positions_and_count():
    store = tg.synth_generate(2, 5, 5, 15, 0.0, seed=4)   # 10 train events
    sp = tg.chronological_split(store)
    assert sp.train_range == (0, 10)
    thin, sp2 = tg.sparsify(store, 3)
    assert sp2.train_range == (0, 4)                      # ceil(10/3)
    kept_ts = thin.ts[:4]
    assert list(kept_ts) == [store.ts[i] for i in (0, 3, 6, 9)]


def test_sparsify_keeps_val_test_untouched():
    store = tg.synth_generate(2, 10, 10, 200, 0.1, seed=6)
    sp = tg.chronological_split(store)
    for n in (2, 5, 9):
        thin, sp2 = tg.sparsify(store, n)
        assert np.array_equal(thin.src[sp2.val_range[0]:],
                              store.src[sp.val_range[0]:])
        assert np.array_equal(thin.ts[sp2.val_range[0]:],
                              store.ts[sp.val_range[0]:])
        n_tr = sp.train_range[1]
        assert sp2.train_range[1] == -(-n_tr // n)        # ceil rule


def two_step_sparsify(store, n_keep_every, mask_frac, seed):
    """The reference: split the full store, thin its train range through
    feature ids into the full table, gather the rows, then build the
    thinned split by hand with the set-ops mask."""
    split = tg.chronological_split(store, mask_frac=mask_frac, seed=seed)
    tr0, tr1 = split.train_range
    keep_train = np.arange(tr0, tr1, n_keep_every)
    keep = np.concatenate([keep_train, np.arange(tr1, len(store))])
    feat_ids = np.arange(len(store))[keep]
    thin = EventStore(store.src[keep], store.dst[keep], store.ts[keep],
                      store.node_features, store.edge_features[feat_ids],
                      num_users=store.num_users)
    n_train = len(keep_train)
    n_val = split.val_range[1] - split.val_range[0]
    masked, usable = set_ops_mask(thin, n_train, mask_frac, seed)
    return thin, tg.SplitSpec(
        train_range=(0, n_train), val_range=(n_train, n_train + n_val),
        test_range=(n_train + n_val, len(thin)),
        t_max_train=float(thin.ts[n_train - 1]), masked_nodes=masked,
        usable_train_ids=usable)


@pytest.mark.parametrize("n_keep_every", [1, 2, 3, 9])
def test_sparsify_matches_two_step_form(n_keep_every):
    store = tg.synth_generate(3, 30, 30, 500, 0.2, seed=n_keep_every)
    for mask_frac in (0.0, 0.1):
        for seed in (0, 1):
            got = tg.sparsify(store, n_keep_every, mask_frac, seed)
            want = two_step_sparsify(store, n_keep_every, mask_frac, seed)
            for col in ("src", "dst", "ts", "node_features",
                        "edge_features"):
                a, b = getattr(got[0], col), getattr(want[0], col)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got[0].num_users == want[0].num_users
            for f in dataclasses.fields(tg.SplitSpec):
                a, b = getattr(got[1], f.name), getattr(want[1], f.name)
                assert np.array_equal(a, b), f.name
                assert type(a) is type(b), f.name


@pytest.mark.parametrize("extra", [-1, 1])
def test_store_rejects_an_edge_table_of_another_length(extra):
    store = tg.synth_generate(2, 4, 4, 10, 0.0, seed=0)
    feats = np.zeros((len(store) + extra, store.edge_dim), np.float32)
    with pytest.raises(DataError, match="edge feature rows"):
        EventStore(store.src, store.dst, store.ts, store.node_features, feats)


# ---------------------------------------------------------------------------
# synthetic generator

def test_synth_zero_noise_is_all_intra_community():
    store = tg.synth_generate(3, 30, 30, 2000, 0.0, seed=10)
    user_comm = store.src % 3
    item_comm = (store.dst - store.num_users) % 3
    assert np.all(user_comm == item_comm)


def test_synth_seed_determinism():
    a = tg.synth_generate(2, 10, 10, 500, 0.2, seed=3)
    b = tg.synth_generate(2, 10, 10, 500, 0.2, seed=3)
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.edge_features, b.edge_features)


def test_synth_cross_community_fraction():
    store = tg.synth_generate(2, 50, 50, 10_000, 0.1, seed=12)
    cross = np.mean(store.src % 2 != (store.dst - store.num_users) % 2)
    assert abs(cross - 0.10) <= 0.01


# ---------------------------------------------------------------------------
# negatives

def test_negatives_single_element_pool():
    out = tg.sample_negatives(np.array([5, 5, 5]), np.array([9]), seed=0)
    assert np.all(out == 9)
    with pytest.raises(ValueError):
        tg.sample_negatives(np.array([9]), np.array([9]), seed=0)


def test_negatives_reproducible_and_disjoint():
    pos = np.arange(50)
    pool = np.arange(100)
    a = tg.sample_negatives(pos, pool, seed=5)
    b = tg.sample_negatives(pos, pool, seed=5)
    assert np.array_equal(a, b)
    assert not np.any(a == pos)


def test_negatives_uniform_frequency():
    # positives sit outside the pool, so the draw is exactly uniform
    pos = np.full(100_000, 1000)
    pool = np.arange(100)
    out = tg.sample_negatives(pos, pool, seed=8)
    freq = np.bincount(out, minlength=100)[:100] / len(pos)
    assert np.all(np.abs(freq - 0.01) <= 0.003)
