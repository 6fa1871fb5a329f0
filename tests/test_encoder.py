import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tgsl import autodiff as ad
from tgsl import encoder as te
from tgsl.graph import (EventStore, NeighborIndex, by_ids,
                        chronological_split, runs, sparsify, synth_generate)
from tgsl.structure import AugmentedView


def test_omega_defaults_and_decay():
    omega = te.time_frequencies(100)
    assert omega[0] == 1.0
    assert abs(omega[99] - 10 ** (-9.9)) < 1e-22
    assert np.all(np.diff(omega) < 0)


def test_time_encode_zero_is_ones():
    assert np.array_equal(te.time_encode(0.0, 16), np.ones(16))


def test_time_encode_range():
    for t in (0.1, 3.7, 1e5, -2.0):
        v = te.time_encode(t, 32)
        assert np.all(v >= -1.0) and np.all(v <= 1.0)


def test_time_context_zero_is_ones():
    assert np.array_equal(te.time_context(0.0, 16), np.ones(16))


def test_time_context_odd_symmetry_machine_precision():
    for d in (0.3, 12.0, 4567.8):
        lhs = te.time_context(-d, 24)
        rhs = 2.0 - te.time_context(d, 24)
        # one rounding step of difference at most (values live in [0, 2])
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_time_context_range():
    v = te.time_context(np.linspace(-50, 50, 999), 16)
    assert np.all(v >= 0.0) and np.all(v <= 2.0)


def test_time_encode_float32_is_the_rounded_float64_value():
    """At Wikipedia-scale times (up to 2.7e6 s), cos(t * omega) computed in
    float32 drifts by about 0.1; the encoding, cos in float32 of the
    argument reduced to one period in float64, must stay within 1e-6 of the
    float64 value rounded once."""
    t = np.random.default_rng(0).uniform(0.0, 2.7e6, 4000)
    want = te.time_encode(t, 100).astype(np.float32)
    got = te.time_encode(t, 100, dtype=np.float32)
    assert got.dtype == np.float32
    assert np.abs(got - want).max() <= 1e-6
    in_f32 = np.cos(t.astype(np.float32)[:, None]
                    * te.time_frequencies(100).astype(np.float32))
    assert np.abs(in_f32 - want).max() > 1e-2


TRIG_SCALES = (1e2, 2.7e6, 1.7e9, 1e12)


@pytest.mark.parametrize("d", [16, 100])
@pytest.mark.parametrize("scale", TRIG_SCALES)
@pytest.mark.parametrize("name", ["time_encode", "time_context"])
def test_float32_time_features_are_the_float64_value_within_3e7(name, scale,
                                                                 d):
    """float32 is within 3e-7 of the float64 value rounded once and, past
    the exact reduction (|t * omega| > 2*pi * 2**26), is those bytes."""
    fn = getattr(te, name)
    t = np.random.default_rng(3).uniform(-scale, scale, 3000)
    want = fn(t, d).astype(np.float32)
    got = fn(t, d, dtype=np.float32)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.abs(got.astype(np.float64) - want).max() <= 3e-7
    far = np.abs(t[:, None] * te.time_frequencies(d)) > (
        2 * np.pi * (2.0 ** 26 + 1))
    assert far.any() == (scale >= 1.7e9)
    assert got[far].tobytes() == want[far].tobytes()


def test_two_pi_split_has_exact_26_bit_products():
    two_pi = Fraction("6.283185307179586476925286766559005768394338798750")
    for part in (te._P1, te._P2):
        assert (math.frexp(part)[0] * 2 ** 26).is_integer()
    split = sum(Fraction(p) for p in (te._P1, te._P2, te._P3))
    assert abs(split - two_pi) < Fraction(1, 2 ** 100)


@pytest.mark.parametrize("d", [16, 100])
@pytest.mark.parametrize("name", ["time_encode", "time_context"])
def test_float32_time_features_of_zero_are_exact_ones(name, d):
    got = getattr(te, name)(np.array([[0.0, -0.0], [-0.0, 0.0]]), d,
                            dtype=np.float32)
    assert got.dtype == np.float32
    assert got.tobytes() == np.ones((2, 2, d), dtype=np.float32).tobytes()


@pytest.mark.parametrize("scale", TRIG_SCALES)
def test_float32_time_features_keep_their_symmetry(scale):
    """cos is even bytewise; sin + 1 is odd about 1 within one float32 ulp
    at 2."""
    t = np.random.default_rng(4).uniform(0.0, scale, 2000)
    ulp2 = np.spacing(np.float32(2.0))
    for d in (16, 100):
        pos = te.time_encode(t, d, dtype=np.float32)
        assert te.time_encode(-t, d, dtype=np.float32).tobytes() == \
            pos.tobytes()
        lhs = te.time_context(-t, d, dtype=np.float32)
        rhs = np.float32(2.0) - te.time_context(t, d, dtype=np.float32)
        assert np.abs(lhs - rhs).max() <= ulp2


@pytest.mark.parametrize("block", [1, 7, te._TRIG_BLOCK])
def test_float32_time_feature_rows_do_not_depend_on_their_block(monkeypatch,
                                                                block):
    """A row's bytes equal those it has when computed alone, whichever
    block and offset it takes; some rows are past the exact reduction."""
    rng = np.random.default_rng(5)
    t = rng.uniform(-2.7e6, 2.7e6, 2500)
    t[::97] = rng.uniform(-1e12, 1e12, len(t[::97]))
    alone = {(fn, d): np.concatenate([fn(t[i:i + 1], d, dtype=np.float32)
                                      for i in range(len(t))])
             for fn in (te.time_encode, te.time_context) for d in (1, 3, 16)}
    monkeypatch.setattr(te, "_TRIG_BLOCK", block)
    for (fn, d), want in alone.items():
        assert fn(t, d, dtype=np.float32).tobytes() == want.tobytes()


def direct_time_encode(t, d, dtype=np.float64):
    """The direct form: cos over the whole (..., d) grid, then one cast; in
    float32, the element-wise kernel over the whole grid. Neither
    deduplicates nor gathers."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("time_encode: non-finite timestamp")
    if np.dtype(dtype) == np.float32:
        return te._periodic(t, d, np.cos, dtype)
    return np.cos(t[..., None] * te.time_frequencies(d)).astype(dtype)


def time_grids():
    rng = np.random.default_rng(11)
    t = np.tile(rng.integers(40, 60, (30, 1)), (1, 20)).astype(np.float64)
    gaps = t - rng.integers(0, 40, (30, 20))
    gaps[:, 12:] = 0.0                          # pad slots: the row's own t
    yield "integer-gaps-with-pads", gaps
    yield "wiki-scale-distinct", rng.uniform(0.0, 2.7e6, (40, 25))
    yield "negative-and-signed-zeros", np.array(
        [[-3.0, -0.0, 0.0, 2.5, -2.5, 0.0, -0.0, 7.0],
         [0.0, -0.0, -0.0, 0.0, -1e-300, 1e-300, -7.0, -3.0]])
    yield "python-scalar", 12.5
    yield "0-d-array", np.array(-4.25)
    yield "empty-grid", np.zeros((0, 20))
    # 1-D event times as the ET-GNN passes them: strictly increasing,
    # sorted with ties, and with -0.0 before 0.0
    yield "increasing-1d", np.cumsum(rng.uniform(0.5, 900.0, 3000))
    yield "sorted-with-ties-1d", np.sort(rng.integers(0, 50, 300)).astype(
        np.float64)
    yield "signed-zeros-1d", np.array([-2.0, -0.0, 0.0, 3.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", [name for name, _ in time_grids()])
def test_time_encode_matches_direct_form_bytes(case, dtype):
    t = dict(time_grids())[case]
    got = te.time_encode(t, 100, dtype=dtype)
    want = direct_time_encode(t, 100, dtype=dtype)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_time_encode_rejects_non_finite_among_repeats(bad):
    t = np.array([[1.0, 1.0, 2.0, 2.0], [0.0, 1.0, bad, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        te.time_encode(t, 8)


def test_encodings_bit_reproducible():
    a = te.time_encode(123.456, 16)
    b = te.time_encode(123.456, 16)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the attention encoder

def two_neighbor_store(dm=2):
    # node 0 interacts with 1 at t=1 and with 2 at t=2
    return EventStore([0, 0], [1, 2], [1.0, 2.0],
                      np.array([[0.3, -0.1], [0.2, 0.0], [-0.4, 0.5]],
                               dtype=np.float32),
                      np.array([[1.0, 0.5], [-0.5, 0.25]], dtype=np.float32))


def test_hand_computed_single_head_attention():
    """Manual forward pass with plain numpy mirrors the documented layer:
    q=(h||TE(0))Wq, k=v=(h_nbr||e||TE(dt))Wk, softmax(qk/sqrt(d)) over
    neighbors, then the two-layer merge on (attn_out||h_self)."""
    store = two_neighbor_store()
    idx = NeighborIndex.build(store)
    p = te.EncoderParams(2, layers=1, heads=1, d_hidden=2, seed=0,
                         dtype=np.float64)
    rng = np.random.default_rng(42)
    keys = ("wq", "wk", "wv", "w1", "b1", "w2", "b2")
    for key in keys:
        p["enc.l0." + key].values[...] = rng.standard_normal(
            p["enc.l0." + key].shape)
    enc = te.TgatEncoder(p, store, n_nb=4)
    got = enc.encode_batch(idx, [0], [3.0]).values[0]

    # independent numpy evaluation
    lp = {k: p["enc.l0." + k].values for k in keys}
    h_self = store.node_features[0].astype(np.float64)
    h_nbr = store.node_features[[1, 2]].astype(np.float64)
    e = store.edge_features.astype(np.float64)
    te_nbr = np.cos((3.0 - np.array([1.0, 2.0]))[:, None]
                    * te.time_frequencies(2))
    q = np.concatenate([h_self, np.ones(2)]) @ lp["wq"]
    kv_in = np.concatenate([h_nbr, e, te_nbr], axis=1)
    k = kv_in @ lp["wk"]
    v = kv_in @ lp["wv"]
    logits = k @ q / math.sqrt(2)
    attn = np.exp(logits - logits.max())
    attn /= attn.sum()
    attn_out = attn @ v
    merged = np.concatenate([attn_out, h_self])
    want = np.maximum(merged @ lp["w1"] + lp["b1"], 0) @ lp["w2"] + lp["b2"]
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_empty_history_deterministic_finite():
    store = two_neighbor_store()
    idx = NeighborIndex.build(store)
    p = te.EncoderParams(2, layers=2, heads=1, d_hidden=4, seed=1)
    enc = te.TgatEncoder(p, store, n_nb=4)
    a = enc.encode_batch(idx, [2], [1.0]).values[0]   # nothing before t=1
    b = enc.encode_batch(idx, [2], [1.0]).values[0]
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_leakage_future_event_perturbation():
    store = synth_generate(2, 6, 6, 80, 0.1, seed=4)
    idx = NeighborIndex.build(store)
    p = te.EncoderParams(8, layers=2, heads=2, d_hidden=8, seed=5)
    enc = te.TgatEncoder(p, store, n_nb=5)
    t = float(store.ts[50])
    nodes = np.arange(6)
    base = enc.encode_batch(idx, nodes, np.full(6, t)).values.copy()

    feats = store.edge_features.copy()
    feats[60:] += 5.0
    mut = EventStore(store.src, store.dst, store.ts, store.node_features,
                     feats, store.num_users)
    enc2 = te.TgatEncoder(p, mut, n_nb=5)
    after = enc2.encode_batch(NeighborIndex.build(mut), nodes,
                              np.full(6, t)).values
    assert np.array_equal(base, after)


@pytest.mark.parametrize("layers", [1, 2])
def test_view_without_additions_encodes_as_its_base(layers):
    store = synth_generate(2, 6, 6, 80, 0.1, seed=4)
    idx = NeighborIndex.build(store, np.arange(60))
    p = te.EncoderParams(8, layers=layers, heads=2, d_hidden=8, seed=5)
    enc = te.TgatEncoder(p, store, n_nb=5)
    nodes = np.concatenate([store.src[50:60], store.dst[50:60]])
    tss = np.concatenate([store.ts[50:60], store.ts[50:60]])
    for base in (idx, idx.prefix(50)):
        want = enc.encode_batch(base, nodes, tss).values
        got = enc.encode_batch(AugmentedView(base), nodes, tss).values
        assert np.array_equal(got, want)


def test_sparsified_store_holds_the_kept_rows():
    """A sparsified store holds the kept events' feature rows, event e's
    at row e; encoding it must match encoding the original store on the
    index over the kept events, whose ids and rows are the original ones."""
    store = synth_generate(2, 6, 6, 200, 0.1, seed=4)
    thin, _ = sparsify(store, 2)
    n_train = chronological_split(store).train_range[1]
    keep = np.concatenate([np.arange(0, n_train, 2),
                           np.arange(n_train, len(store))])
    assert thin.edge_features.tobytes() == store.edge_features[keep].tobytes()
    assert np.array_equal(thin.src, store.src[keep])
    assert np.array_equal(thin.ts, store.ts[keep])
    p = te.EncoderParams(8, layers=2, heads=2, d_hidden=8, seed=5)
    nodes = np.concatenate([thin.src[-20:], thin.dst[-20:]])
    tss = np.concatenate([thin.ts[-20:], thin.ts[-20:]])
    got = te.TgatEncoder(p, thin, n_nb=5).encode_batch(
        NeighborIndex.build(thin), nodes, tss).values
    want = te.TgatEncoder(p, store, n_nb=5).encode_batch(
        NeighborIndex.build(store, keep), nodes, tss).values
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the fused attention primitive

def pad_to(t, d):
    """t zero-padded on its last axis to width d, through recorded ops."""
    w = t.shape[-1]
    if w == d:
        return t
    zeros = np.zeros(t.shape[:-1] + (d - w,), dtype=t.dtype)
    return ad.concat([t, ad.constant(zeros)], axis=t.values.ndim - 1)


def scatter_dense(rows, pos, shape):
    """Rows [P, ...] scattered into a zero grid of `shape` = (B, n, ...)
    at positions `pos`, through a recorded gather of a zero row."""
    idx = np.zeros(shape[:2], dtype=np.int64)
    idx[pos] = 1 + np.arange(len(pos[0]))
    zero = ad.constant(np.zeros((1,) + rows.shape[1:], dtype=rows.dtype))
    return ad.take(ad.concat([zero, rows], axis=0), idx)


def composed_attention(h_self, h_nbr, e_slot, te, mask, wq, wk, wv,
                       heads, added=None):
    """Test oracle: the attention layer composed from primitives. The time
    rows are gathered from their table by a recorded take, narrow inputs
    are zero-padded to d, the added rows are scattered into a dense grid
    added to e_slot, and the slot weights are the mask with the added
    weights scattered over it; then `dense_attention`."""
    table, te_inv = te
    b, n = mask.shape
    dm = table.shape[1]
    te_nbr = ad.reshape(ad.take(table, te_inv.reshape(-1)), (b, n, dm))
    h_self, h_nbr, e_slot = (pad_to(t, dm) for t in (h_self, h_nbr, e_slot))
    w_dense = ad.constant(mask)
    if added is not None:
        pos, e_add, w_add = added
        e_slot = ad.add(e_slot, scatter_dense(e_add, pos, (b, n, dm)))
        kept = mask.copy()
        kept[pos] = 0.0
        w_dense = ad.add(ad.constant(kept), scatter_dense(w_add, pos, (b, n)))
    return dense_attention(h_self, h_nbr, e_slot, te_nbr, w_dense, mask, wq,
                           wk, wv, heads)


def softmax(a, axis):
    """exp(a - logsumexp(a)) from primitives the gradient suite checks:
    for y <= 0, exp(y) = sigmoid(y) / sigmoid(-y) without cancellation."""
    y = ad.sub(a, ad.logsumexp(a, axis=axis, keepdims=True))
    return ad.div(ad.sigmoid(y), ad.sigmoid(ad.scale(y, -1.0)))


def dense_attention(h_self, h_nbr, e_slot, te_nbr, w_dense, mask, wq, wk, wv,
                    heads):
    """The composed attention block on d-wide inputs and a dense [B, n]
    slot weight tensor: per-slot keys and values from the concatenated
    (h_nbr || e_slot || te_nbr) input and a (h_self || 1) query."""
    b, n, dm = te_nbr.shape
    dk = wq.shape[1] // heads
    q_in = ad.concat([h_self, ad.constant(np.ones((b, dm)))], axis=1)
    kv_in = ad.concat([h_nbr, e_slot, te_nbr], axis=2)
    q = ad.reshape(ad.matmul(q_in, wq), (b, 1, heads, dk))
    k = ad.reshape(ad.matmul(kv_in, wk), (b, n, heads, dk))
    v = ad.reshape(ad.matmul(kv_in, wv), (b, n, heads, dk))
    logits = ad.scale(ad.sum_(ad.mul(q, k), axis=3), 1.0 / math.sqrt(dk))
    neg = ad.constant(((mask - 1.0) * 1e9)[:, :, None])
    attn = softmax(ad.add(logits, neg), axis=1)
    v_eff = ad.mul(v, ad.reshape(w_dense, (b, n, 1, 1)))
    head = ad.sum_(ad.mul(ad.reshape(attn, (b, n, heads, 1)), v_eff), axis=1)
    return ad.reshape(head, (b, heads * dk))


ATTENTION_INPUTS = ("h_self", "h_nbr", "e_slot", "te", "wq", "wk", "wv")
# (h_self, h_nbr, e_slot) widths at d = 8: full, as the encoder's bottom
# layer feeds them, and each of its own width
WIDTHS = {"full": (8, 8, 8), "narrow": (3, 3, 2), "mixed": (8, 5, 1)}


def attention_case(rng, b=6, n=5, dm=8, dtype=np.float64, widths=None,
                   sparse=False, distinct=False):
    """Random inputs as the encoder builds them: row 0 has every slot
    padded, row 1 none. The time rows are a table "te" and its integer
    inverse "te_inv": one row per slot in row-major order, or if
    `distinct`, b * n // 3 rows each slot picks from at random. If
    `sparse`, some real slots are added ones, each with a [P, d] row (its
    e_slot row is random here; the encoder passes zeros there and the op
    adds the two) and a weight rho in (0, 1), which replaces the mask's 1
    there. Returns (inputs by name, mask, added positions or None)."""
    ws, wn, we = widths or (dm, dm, dm)
    mask = (rng.random((b, n)) < 0.6).astype(dtype)
    mask[0], mask[1] = 0.0, 1.0
    added = mask * (rng.random((b, n)) < 0.4)
    added[1, 2] = 1.0
    rho = rng.uniform(0.05, 0.95, (b, n))
    shapes = {"h_self": (b, ws), "h_nbr": (b, n, wn), "e_slot": (b, n, we),
              "te_nbr": (b, n, dm), "wq": (2 * dm, dm), "wk": (3 * dm, dm),
              "wv": (3 * dm, dm)}
    arrays = {k: rng.standard_normal(s).astype(dtype)
              for k, s in shapes.items()}
    arrays["te"] = arrays.pop("te_nbr").reshape(b * n, dm)
    arrays["te_inv"] = np.arange(b * n).reshape(b, n)
    if distinct:
        arrays["te"] = arrays["te"][:b * n // 3]
        arrays["te_inv"] = rng.integers(0, b * n // 3, (b, n))
    if not sparse:
        return arrays, mask, None
    pos = np.nonzero(added)
    arrays["e_add"] = rng.standard_normal((len(pos[0]), dm)).astype(dtype)
    arrays["w_add"] = rho[pos].astype(dtype)
    return arrays, mask, pos


def run_attention(fn, arrays, mask, heads, pos=None, const=(), weight=None):
    """fn's output, and the gradients of sum(out * weight) by input name;
    inputs named in `const` are constants."""
    ts = {k: (ad.constant(v) if k in const else ad.param(v.copy(), name=k))
          for k, v in arrays.items() if k != "te_inv"}
    added = None if pos is None else (pos, ts["e_add"], ts["w_add"])
    with ad.Tape() as tape:
        out = fn(*(ts[k] for k in ATTENTION_INPUTS[:3]),
                 (ts["te"], arrays["te_inv"]), mask,
                 *(ts[k] for k in ATTENTION_INPUTS[4:]), heads, added)
        if weight is not None:
            tape.backward(ad.sum_(ad.mul(out, ad.constant(weight))))
    return out.values, {k: t.grad for k, t in ts.items() if k not in const}


def close(got, want, rtol):
    """Max error within rtol of the array's largest magnitude: entries that
    cancel to near zero keep the absolute error of their neighbors."""
    return np.abs(got - want).max(initial=0) <= rtol * np.abs(want).max(
        initial=0)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("const", [(), ("te",), ("h_nbr", "te"),
                                   ("e_slot", "te")])
def test_temporal_attention_matches_composed_oracle(heads, const):
    """Every input width layout, with and without added slots, on a time
    table with one row per slot and on one whose rows repeat: output and
    every gradient."""
    rng = np.random.default_rng(heads * 10 + len(const))
    for widths, sparse, distinct in itertools.product(
            WIDTHS.values(), (False, True), (False, True)):
        arrays, mask, pos = attention_case(rng, widths=widths,
                                           sparse=sparse,
                                           distinct=distinct)
        weight = rng.standard_normal((len(mask), arrays["wq"].shape[1]))
        got, got_g = run_attention(ad.temporal_attention, arrays, mask,
                                   heads, pos, const, weight)
        want, want_g = run_attention(composed_attention, arrays, mask,
                                     heads, pos, const, weight)
        assert close(got, want, 1e-10)
        assert set(got_g) == set(want_g)
        for k in got_g:
            assert got_g[k].shape == arrays[k].shape
            assert close(got_g[k], want_g[k], 1e-10), (k, widths, sparse,
                                                        distinct)


def test_temporal_attention_narrow_inputs_read_only_their_rows():
    """A narrow input gives the same output as itself zero-padded, and the
    weight rows it does not read get an exactly zero gradient."""
    rng = np.random.default_rng(8)
    arrays, mask, _ = attention_case(rng, widths=WIDTHS["narrow"])
    dm = arrays["te"].shape[1]
    padded = {k: (np.concatenate([v, np.zeros(v.shape[:-1]
                                              + (dm - v.shape[-1],))], -1)
                  if k in ("h_self", "h_nbr", "e_slot") else v)
              for k, v in arrays.items()}
    weight = rng.standard_normal((len(mask), dm))
    got, grads = run_attention(ad.temporal_attention, arrays, mask, 2,
                               weight=weight)
    want, _ = run_attention(ad.temporal_attention, padded, mask, 2)
    assert close(got, want, 1e-12)
    assert np.all(grads["wq"][3:dm] == 0) and np.any(grads["wq"][:3] != 0)
    for k in ("wk", "wv"):
        assert np.all(grads[k][3:dm] == 0), k
        assert np.all(grads[k][dm + 2:2 * dm] == 0), k
        assert np.any(grads[k][dm:dm + 2] != 0), k


def test_temporal_attention_returns_none_for_constants():
    rng = np.random.default_rng(3)
    arrays, mask, pos = attention_case(rng, sparse=True)
    const = ("h_nbr", "e_slot", "te", "w_add")
    ts = {k: ad.constant(v) if k in const else ad.param(v)
          for k, v in arrays.items() if k != "te_inv"}
    names = ATTENTION_INPUTS + ("e_add", "w_add")
    with ad.Tape() as tape:
        out = ad.temporal_attention(
            *(ts[k] for k in ATTENTION_INPUTS[:3]),
            (ts["te"], arrays["te_inv"]), mask,
            *(ts[k] for k in ATTENTION_INPUTS[4:]), 2,
            (pos, ts["e_add"], ts["w_add"]))
    (inputs, _, bw), = tape.entries
    assert [ts[k] for k in names] == list(inputs)
    for k, g in zip(names, bw(np.ones_like(out.values))):
        assert (g is None) == (k in const), k


def test_temporal_attention_empty_added_part_is_none():
    rng = np.random.default_rng(4)
    arrays, mask, _ = attention_case(rng, widths=WIDTHS["narrow"])
    empty = dict(arrays, e_add=np.zeros((0, 8)), w_add=np.zeros(0))
    nowhere = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    weight = rng.standard_normal((len(mask), 8))
    got, got_g = run_attention(ad.temporal_attention, empty, mask, 2,
                               nowhere, weight=weight)
    want, want_g = run_attention(ad.temporal_attention, arrays, mask, 2,
                                 weight=weight)
    assert np.array_equal(got, want)
    assert got_g.pop("e_add").size == 0 and got_g.pop("w_add").size == 0
    for k in want_g:
        assert np.array_equal(got_g[k], want_g[k]), k


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("sparse", [False, True])
def test_temporal_attention_time_table_matches_gathered_rows(sparse, heads,
                                                             dtype):
    """A table of distinct time rows with an int32 inverse gives, bit for
    bit, the output and every gradient of the same rows gathered one per
    slot with an arange inverse; the table's gradient is those slots'
    gradients added into their rows in slot order, as np.add.at adds."""
    rng = np.random.default_rng(20 + heads)
    arrays, mask, pos = attention_case(rng, dtype=dtype, sparse=sparse,
                                       distinct=True)
    arrays["te_inv"] = arrays["te_inv"].astype(np.int32)
    b, n = mask.shape
    rows = arrays["te"][arrays["te_inv"]].reshape(b * n, -1)
    gathered = dict(arrays, te=rows, te_inv=np.arange(b * n).reshape(b, n))
    weight = rng.standard_normal((b, arrays["wq"].shape[1])).astype(dtype)
    got, got_g = run_attention(ad.temporal_attention, arrays, mask, heads,
                               pos, weight=weight)
    want, want_g = run_attention(ad.temporal_attention, gathered, mask, heads,
                                 pos, weight=weight)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    table_g = np.zeros_like(arrays["te"])
    np.add.at(table_g, arrays["te_inv"].reshape(-1), want_g.pop("te"))
    assert got_g.pop("te").tobytes() == table_g.tobytes()
    assert got_g.keys() == want_g.keys()
    for k in want_g:
        assert got_g[k].dtype == dtype, k
        assert got_g[k].tobytes() == want_g[k].tobytes(), k


def blocked_case(rng, widths, sparse, dtype):
    """A 24-row attention_case whose rows 10-14 have every slot padded.
    If `sparse`, every row with a filled slot has at least one added
    position."""
    arrays, mask, _ = attention_case(rng, b=24, dtype=dtype, widths=widths,
                                     distinct=True)
    mask[10:15] = 0.0
    if not sparse:
        return arrays, mask, None
    added = mask * (rng.random(mask.shape) < 0.4)
    filled = mask.any(axis=1)
    added[filled, mask[filled].argmax(axis=1)] = 1.0
    pos = np.nonzero(added)
    arrays["e_add"] = rng.standard_normal(
        (len(pos[0]), arrays["te"].shape[1])).astype(dtype)
    arrays["w_add"] = rng.uniform(0.05, 0.95, len(pos[0])).astype(dtype)
    return arrays, mask, pos


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("widths", ["full", "mixed"])
def test_temporal_attention_row_blocks_match_one_block(monkeypatch, widths,
                                                       sparse, heads, dtype):
    """Blocks of 1, 2, 5 and 7 rows give, bit for bit, the output and
    every gradient of the one-block call, with every input requiring a
    gradient: added positions fall on both sides of block edges, and the
    all-pad rows 10-14 make blocks with no added position."""
    rng = np.random.default_rng(40 + heads)
    arrays, mask, pos = blocked_case(rng, WIDTHS[widths], sparse, dtype)
    b, n = mask.shape
    dm = arrays["te"].shape[1]
    weight = rng.standard_normal((b, arrays["wq"].shape[1])).astype(dtype)
    assert b * n * dm <= ad._ATTN_BLOCK
    want, want_g = run_attention(ad.temporal_attention, arrays, mask, heads,
                                 pos, weight=weight)
    for step in (1, 2, 5, 7):
        monkeypatch.setattr(ad, "_ATTN_BLOCK", step * n * dm)
        if sparse and step > 1:
            edges = np.arange(step, b, step)
            with_added = set(pos[0].tolist())
            assert any(e - 1 in with_added and e in with_added
                       for e in edges), step
        got, got_g = run_attention(ad.temporal_attention, arrays, mask,
                                   heads, pos, weight=weight)
        assert got.tobytes() == want.tobytes(), step
        assert got_g.keys() == want_g.keys()
        for k in want_g:
            assert got_g[k].tobytes() == want_g[k].tobytes(), (k, step)


@pytest.mark.parametrize("sparse", [False, True])
def test_temporal_attention_transients_are_one_blocks_not_the_batchs(sparse):
    """With the [B, n, d] slot block 16 times _ATTN_BLOCK, what the
    forward and backward allocate above what they keep or return stays
    under half that block; gathering the whole block once would take
    all of it."""
    rng = np.random.default_rng(9)
    b, n, dm = 2048, 128, 16
    whole = b * n * dm * 4
    assert whole >= 16 * 4 * ad._ATTN_BLOCK
    mask = (rng.random((b, n)) < 0.7).astype(np.float32)

    def arr(*shape):
        return ad.param(rng.standard_normal(shape).astype(np.float32))

    pos = np.nonzero(mask * (rng.random((b, n)) < 0.3))
    added = ((pos, arr(len(pos[0]), dm),
              ad.param(rng.uniform(0.1, 0.9, len(pos[0])).astype(np.float32)))
             if sparse else None)
    args = (arr(b, dm), arr(b, n, dm), ad.constant(np.zeros((b, n, 4),
                                                            np.float32)),
            (ad.constant(rng.standard_normal((500, dm)).astype(np.float32)),
             rng.integers(0, 500, (b, n))), mask,
            arr(2 * dm, dm), arr(3 * dm, dm), arr(3 * dm, dm), 2, added)
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            tracemalloc.reset_peak()
            out = ad.temporal_attention(*args)
            kept, peak = tracemalloc.get_traced_memory()
            assert peak - kept < whole / 2
        (_, _, bw), = tape.entries
        g = np.ones_like(out.values)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = bw(g)
        peak = tracemalloc.get_traced_memory()[1]
        returned = sum(x.nbytes for x in grads if x is not None)
        assert peak - before - returned < whole / 2
    finally:
        tracemalloc.stop()


def shape_cases():
    """(name, the args that break one rule) for each shape rule."""
    z = ad.constant
    h, s3 = z(np.zeros((2, 4))), z(np.zeros((2, 3, 4)))
    table = z(np.zeros((6, 4)))
    w = dict(h_self=h, h_nbr=s3, e_slot=s3,
             te=(table, np.arange(6).reshape(2, 3)), mask=np.ones((2, 3)),
             wq=z(np.zeros((8, 4))),
             wk=z(np.zeros((12, 4))), wv=z(np.zeros((12, 4))), heads=2,
             added=((np.array([0, 1]), np.array([2, 0])),
                    z(np.zeros((2, 4))), z(np.zeros(2))))
    pos = w["added"][0]
    yield "wk-rows", dict(w, wk=z(np.zeros((12, 5)))), r"\(12, 5\)"
    yield "h_self-wider-than-d", dict(w, h_self=z(np.zeros((2, 5)))), \
        r"widths <= 4.*\(2, 5\)"
    yield "e_slot-wider-than-d", dict(w, e_slot=z(np.zeros((2, 3, 6)))), \
        r"\(2, 3, 6\)"
    yield "h_nbr-rows", dict(w, h_nbr=z(np.zeros((2, 2, 4)))), r"\(2, 2, 4\)"
    yield "time-rows-shape", dict(
        w, te=(table, np.arange(6).reshape(3, 2))), r"time rows \(3, 2\)"
    yield "time-rows-outside", dict(
        w, te=(table, np.arange(1, 7).reshape(2, 3))), r"time rows \(2, 3\)"
    yield "time-rows-negative", dict(
        w, te=(table, -np.arange(6).reshape(2, 3))), r"time rows \(2, 3\)"
    yield "time-rows-float", dict(
        w, te=(table, np.zeros((2, 3)))), "float64"
    yield "time-table-1d", dict(
        w, te=(z(np.zeros(6)), np.arange(6).reshape(2, 3))), r"\(6,\)"
    yield "added-rows-width", dict(
        w, added=(pos, z(np.zeros((2, 3))), w["added"][2])), r"\(2, 3\)"
    yield "added-weights", dict(
        w, added=(pos, w["added"][1], z(np.zeros((2, 1))))), r"\(2, 1\)"
    yield "position-outside", dict(
        w, added=((np.array([0, 1]), np.array([2, 3])),) + w["added"][1:]), \
        r"\(2, 3\)"
    yield "row-outside", dict(
        w, added=((np.array([0, 2]), np.array([2, 0])),) + w["added"][1:]), \
        r"\(2, 3\)"
    yield "positions-repeated", dict(
        w, added=((np.array([1, 1]), np.array([0, 0])),) + w["added"][1:]), \
        "distinct row-major"
    yield "positions-unsorted", dict(
        w, added=((np.array([1, 0]), np.array([0, 2])),) + w["added"][1:]), \
        "distinct row-major"


@pytest.mark.parametrize("case", [name for name, _, _ in shape_cases()])
def test_temporal_attention_shape_rules(case):
    (_, kwargs, match), = [c for c in shape_cases() if c[0] == case]
    with pytest.raises(ad.ShapeError, match="temporal_attention: .*" + match):
        ad.temporal_attention(**kwargs)


def test_attention_weights_normalized_under_mask():
    """Through the primitive: the attention weights of a row sum to 1 over
    its real slots, a padded slot's inputs never reach the output, and a
    row with every slot padded outputs zero."""
    rng = np.random.default_rng(5)
    for dtype in (np.float32, np.float64):
        arrays, mask, _ = attention_case(rng, b=8, n=6, dtype=dtype)
        assert not mask[0].any() and mask[1:].any(axis=1).all()
        # with only the te block read by W_v, a slot's value is 1, so each
        # output is the attention mass on real slots
        probe = dict(arrays, te=np.ones_like(arrays["te"]))
        dm = probe["h_self"].shape[1]
        probe["wv"] = np.zeros_like(arrays["wv"])
        probe["wv"][2 * dm:] = 1.0 / dm
        mass, _ = run_attention(ad.temporal_attention, probe, mask, 2)
        tol = 1e-6 if dtype == np.float32 else 1e-12
        assert np.allclose(mass[1:], 1.0, rtol=0, atol=tol)
        assert np.all(mass[0] == 0)

        base, _ = run_attention(ad.temporal_attention, arrays, mask, 2)
        pads = (mask == 0)[:, :, None]
        for k in ("h_nbr", "e_slot", "te"):
            moved = dict(arrays)
            # the table has one row per slot, in row-major order
            where = pads.reshape(-1, 1) if k == "te" else pads
            moved[k] = np.where(where, arrays[k] + rng.standard_normal(
                arrays[k].shape).astype(dtype), arrays[k])
            got, _ = run_attention(ad.temporal_attention, moved, mask, 2)
            assert np.array_equal(got, base), k
        assert np.all(base[0] == 0)


def test_encode_batch_tape_entries_per_layer():
    """With added edges, one 2-layer encode_batch records 23 tape entries:
    30 while the added slots were dense (B, n, d) grids, 69 with the
    composed attention block."""
    store = synth_generate(2, 6, 6, 80, 0.1, seed=4)
    idx = NeighborIndex.build(store, np.arange(60))
    p = te.EncoderParams(8, layers=2, heads=2, d_hidden=8, seed=5)
    enc = te.TgatEncoder(p, store, n_nb=5)
    rng = np.random.default_rng(0)
    t_add = float(store.ts[55])
    view = AugmentedView(
        idx, store.src[50:56], store.dst[:6], np.full(6, t_add),
        cand_features=ad.param(rng.standard_normal((6, 8)).astype(np.float32)),
        rho=ad.param(rng.uniform(0.1, 0.9, 6).astype(np.float32)))
    nodes = np.concatenate([store.src[56:60], store.dst[56:60]])
    tss = np.concatenate([store.ts[56:60], store.ts[56:60]])
    assert (view.batch_neighbors(nodes, tss, 5)[1] < 0).any()
    with ad.Tape() as tape:
        enc.encode_batch(view, nodes, tss)
    assert len(tape) == 23


def test_encode_batch_matches_direct_time_encode(monkeypatch):
    """A 2-layer encode_batch on a view with additions: output and every
    gradient are bitwise those of a run on the direct time encoding."""
    store = synth_generate(2, 6, 6, 80, 0.1, seed=4)
    idx = NeighborIndex.build(store, np.arange(60))
    t_add = float(store.ts[55])
    nodes = np.concatenate([store.src[56:60], store.dst[56:60]])
    tss = np.concatenate([store.ts[56:60], store.ts[56:60]])

    def run():
        rng = np.random.default_rng(0)
        p = te.EncoderParams(8, layers=2, heads=2, d_hidden=8, seed=5)
        enc = te.TgatEncoder(p, store, n_nb=5)
        view = AugmentedView(
            idx, store.src[50:56], store.dst[:6], np.full(6, t_add),
            cand_features=ad.param(
                rng.standard_normal((6, 8)).astype(np.float32)),
            rho=ad.param(rng.uniform(0.1, 0.9, 6).astype(np.float32)))
        assert (view.batch_neighbors(nodes, tss, 5)[1] < 0).any()
        w = ad.constant(
            rng.standard_normal((len(nodes), 8)).astype(np.float32))
        with ad.Tape() as tape:
            out = enc.encode_batch(view, nodes, tss)
            loss = ad.sum_(ad.mul(out, w))
        tape.backward(loss)
        # the score head takes no part in encode_batch
        grads = [t.grad for t in p.parameters() if t.name.startswith("enc.")]
        return out.values, grads + [view.cand_features.grad, view.rho.grad]

    out, grads = run()
    monkeypatch.setattr(te, "_time_table", lambda t, d, dtype: (
        direct_time_encode(t, d, dtype).reshape(-1, d),
        np.arange(t.size).reshape(t.shape)))
    want_out, want_grads = run()
    assert out.tobytes() == want_out.tobytes()
    assert len(grads) == len(want_grads)
    for g, want in zip(grads, want_grads):
        assert np.any(want != 0)
        assert g.tobytes() == want.tobytes()


def padded_dense_embed(enc, view, nodes, ts, layer):
    """Test oracle: the encoder before narrow inputs and sparse added
    slots. Feature tables are zero-padded to d_model, every slot gathers
    cand_features and rho and a mask zeroes all but the added ones, and
    the attention is the composed block."""
    p = enc.params
    dm = p.d_model

    def padded(table):
        out = np.zeros((len(table), dm), dtype=table.dtype)
        out[:, :table.shape[1]] = table
        return out

    if layer == 0:
        return ad.constant(padded(enc.node_feat)[nodes])
    pre = f"enc.l{layer - 1}."
    b = len(nodes)
    ids, eids, tss, mask = view.batch_neighbors(nodes, ts, enc.n_nb)
    n = ids.shape[1]
    all_nodes = np.concatenate([nodes, ids.ravel()])
    all_ts = np.concatenate([ts, tss.ravel()])
    if layer == 1:
        emb = padded_dense_embed(enc, view, all_nodes, all_ts, 0)
    else:
        pairs = np.stack([all_nodes.astype(np.float64), all_ts], axis=1)
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        sub = padded_dense_embed(enc, view, uniq[:, 0].astype(np.int64),
                                 uniq[:, 1], layer - 1)
        emb = ad.take(sub, inverse.reshape(-1))
    h_self = ad.narrow(emb, 0, 0, b)
    h_nbr = ad.reshape(ad.narrow(emb, 0, b, b * n), (b, n, dm))
    real_m = mask * (eids >= 0)
    added_m = mask * (eids < 0)
    e_rows = padded(enc.edge_feat)[np.where(real_m > 0, eids, 0)]
    e_slot = ad.constant(e_rows * (real_m[:, :, None] > 0))
    w_dense = ad.constant(real_m)
    if added_m.any():
        j = np.maximum(-1 - eids, 0)
        e_slot = ad.add(e_slot, ad.mul(ad.take(view.cand_features, j),
                                       ad.constant(added_m[:, :, None])))
        w_dense = ad.add(w_dense, ad.mul(ad.take(view.rho, j),
                                         ad.constant(added_m)))
    te_nbr = ad.constant(te.time_encode(ts[:, None] - tss, dm))
    head = dense_attention(h_self, h_nbr, e_slot, te_nbr, w_dense, mask,
                           p[pre + "wq"], p[pre + "wk"], p[pre + "wv"],
                           p.heads)
    merged = ad.concat([head, h_self], axis=1)
    hid = ad.relu(ad.add(ad.matmul(merged, p[pre + "w1"]), p[pre + "b1"]))
    return ad.add(ad.matmul(hid, p[pre + "w2"]), p[pre + "b2"])


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("additions", [False, True])
@pytest.mark.parametrize("widths", [(3, 2), (8, 8)])
def test_encode_batch_matches_padded_dense_oracle(widths, additions, layers):
    """float64, d_model 8: output and every enc.*, cand_features and rho
    gradient of encode_batch match the padded, dense encoder; the bottom
    layer's node-padding rows of wq, wk, wv and w1 get exactly zero."""
    base = synth_generate(2, 6, 6, 80, 0.1, seed=4)
    rng = np.random.default_rng(layers)
    wn, we = widths
    store = EventStore(base.src, base.dst, base.ts,
                       rng.standard_normal((base.num_nodes, wn)),
                       rng.standard_normal((len(base.edge_features), we)),
                       base.num_users)
    idx = NeighborIndex.build(store, np.arange(60))
    nodes = np.concatenate([store.src[56:60], store.dst[56:60]])
    tss = np.concatenate([store.ts[56:60], store.ts[56:60]])
    dm = 8

    def run(embed):
        p = te.EncoderParams(dm, layers=layers, heads=2, d_hidden=8, seed=5,
                             dtype=np.float64)
        enc = te.TgatEncoder(p, store, n_nb=5)
        r = np.random.default_rng(0)
        view = AugmentedView(idx)
        if additions:
            view = AugmentedView(
                idx, store.src[50:56], store.dst[:6],
                np.full(6, float(store.ts[55])),
                cand_features=ad.param(r.standard_normal((6, dm))),
                rho=ad.param(r.uniform(0.1, 0.9, 6)))
        assert (view.batch_neighbors(nodes, tss, 5)[1] < 0).any() == additions
        w = ad.constant(r.standard_normal((len(nodes), dm)))
        with ad.Tape() as tape:
            out = embed(enc, view, nodes, tss)
            tape.backward(ad.sum_(ad.mul(out, w)))
        grads = {t.name: t.grad for t in p.parameters()
                 if t.name.startswith("enc.")}
        if additions:
            grads.update(cand=view.cand_features.grad, rho=view.rho.grad)
        return out.values, grads

    got, got_g = run(lambda enc, view, nodes, tss:
                     enc.encode_batch(view, nodes, tss))
    want, want_g = run(lambda enc, view, nodes, tss:
                       padded_dense_embed(enc, view, nodes, tss, layers))
    assert close(got, want, 1e-12)
    assert set(got_g) == set(want_g)
    for k in got_g:
        assert np.any(want_g[k] != 0), k
        assert close(got_g[k], want_g[k], 1e-12), k
    hk = dm                      # heads * d_k
    for k in ("wq", "wk", "wv"):
        g = got_g["enc.l0." + k]
        assert np.all(g[wn:dm] == 0) and np.any(g[:wn] != 0), k
    g = got_g["enc.l0.w1"]
    assert np.all(g[hk + wn:] == 0) and np.any(g[hk:hk + wn] != 0)


def test_depth_validation_and_bad_node():
    # the recursion depth is the encoder's layer count; node ids outside
    # the graph are rejected
    store = two_neighbor_store()
    idx = NeighborIndex.build(store)
    enc = te.TgatEncoder(te.EncoderParams(2, layers=1, heads=1, d_hidden=2),
                         store, n_nb=2)
    with pytest.raises(ValueError, match="node"):
        enc.encode_batch(idx, [99], [1.0])


# ---------------------------------------------------------------------------
# link scorer

def score(enc, u, v):
    """Score one (u, v) pair of embedding vectors through score_batch."""
    out = enc.score_batch(ad.constant(np.asarray(u)[None, :]),
                          ad.constant(np.asarray(v)[None, :]))
    return float(out.values[0])


def make_encoder(seed=0, dm=4):
    store = synth_generate(2, 4, 4, 30, 0.0, seed=seed)
    p = te.EncoderParams(dm, layers=1, heads=1, d_hidden=4, seed=seed)
    return te.TgatEncoder(p, store, n_nb=3), store


def test_zero_head_scores_half():
    enc, store = make_encoder()
    for k in ("w1", "b1", "w2", "b2"):
        enc.params["score." + k].values[...] = 0.0
    u = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([-1.0, 0.0, 1.0, 2.0])
    assert score(enc, u, v) == 0.5


def test_score_is_directional_and_deterministic():
    enc, _ = make_encoder(seed=3)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([-1.0, 0.5, 1.0, 2.0])
    s1 = score(enc, u, v)
    s2 = score(enc, u, v)
    assert s1 == s2
    assert score(enc, v, u) != s1     # concatenation order matters


def test_hand_set_head_matches_manual():
    # 1-dim embeddings, hand-set 2-layer head evaluated by hand
    store = EventStore([0], [1], [1.0], np.zeros((2, 1)), np.zeros((1, 1)))
    p = te.EncoderParams(1, layers=1, heads=1, d_hidden=1, seed=0,
                         dtype=np.float64)
    enc = te.TgatEncoder(p, store, n_nb=2)
    p["score.w1"].values[...] = [[2.0], [-1.0]]
    p["score.b1"].values[...] = [0.5]
    p["score.w2"].values[...] = [[1.5]]
    p["score.b2"].values[...] = [-0.25]
    hidden = max(0.8 * 2.0 + 0.3 * -1.0 + 0.5, 0.0)
    want = 1.0 / (1.0 + math.exp(-(hidden * 1.5 - 0.25)))
    assert abs(score(enc, [0.8], [0.3]) - want) < 1e-12


def test_float32_encoder_shares_the_store_feature_tables():
    """The store's float32 tables are read in place; a float64 encoder
    holds its own converted copies."""
    store = synth_generate(2, 8, 8, 40, 0.0, seed=0)
    for dtype, shared in ((np.float32, True), (np.float64, False)):
        enc = te.TgatEncoder(te.EncoderParams(4, layers=1, heads=1,
                                              d_hidden=4, dtype=dtype),
                             store, n_nb=20)
        assert np.shares_memory(enc.node_feat, store.node_features) == shared
        assert np.shares_memory(enc.edge_feat, store.edge_features) == shared
        assert enc.edge_feat.dtype == dtype


def test_feature_dim_exceeding_model_dim_rejected():
    store = synth_generate(4, 8, 8, 20, 0.0, seed=0)   # 4-dim features
    with pytest.raises(ValueError, match="d_model"):
        te.TgatEncoder(te.EncoderParams(2, layers=1, heads=1, d_hidden=2),
                       store, n_nb=20)


# ---------------------------------------------------------------------------
# the encode plan

def distinct_pairs(nodes, ts):
    """The plan's (node, t) dedup: a stable sort by t, an id order by
    node, then the runs of equal pairs along that order."""
    order = by_ids(np.argsort(ts, kind="stable"), nodes)
    starts, inverse = runs(order, nodes, ts)
    return nodes[order[starts]], ts[order[starts]], inverse


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distinct_pairs_match_unique_rows_and_inverse(seed):
    """Node ids from 0 and across a 16-bit digit."""
    for first_id in (0, 2**16 - 15):
        rng = np.random.default_rng(seed)
        nodes = first_id + rng.integers(0, 30, 4000)
        ts = rng.integers(0, 40, 4000).astype(np.float64) * 0.5
        ts[::7] = 0.0
        pairs = np.stack([nodes.astype(np.float64), ts], axis=1)
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        got_n, got_t, got_inv = distinct_pairs(nodes, ts)
        assert np.array_equal(got_n, uniq[:, 0].astype(np.int64))
        assert got_t.tobytes() == uniq[:, 1].tobytes()
        assert np.array_equal(got_inv, inverse.reshape(-1))
        empty = distinct_pairs(nodes[:0], ts[:0])
        assert [len(x) for x in empty] == [0, 0, 0]


def plan_fixture(layers):
    """A batch of 60 events and the index its queries run on: the one over
    the first 800 events, cut before the batch."""
    store = synth_generate(2, 30, 30, 900, 0.1, seed=6)
    batch = np.arange(700, 760)
    idx = NeighborIndex.build(store, np.arange(800)).prefix(int(batch[0]))
    src, dst, tss = store.src[batch], store.dst[batch], store.ts[batch]
    neg = np.random.default_rng(0).permutation(dst)
    encs = [te.TgatEncoder(te.EncoderParams(16, layers=layers, heads=2,
                                            d_hidden=16, seed=s), store,
                           n_nb=8) for s in (1, 2)]
    return idx, src, dst, neg, tss, encs


def test_plan_keeps_time_encodings_as_a_distinct_gap_table():
    """A 2-layer d=100 plan on an augmented view: both layers share one
    table with a row per distinct gap of either layer, each keeps an int32
    [b, n] inverse whose rows are time_encode of its gaps, and no array in
    the plan is as large as a layer's gathered [b, n, d] block."""
    store = synth_generate(2, 30, 30, 600, 0.1, seed=7)
    idx = NeighborIndex.build(store, np.arange(500))
    rng = np.random.default_rng(1)
    view = AugmentedView(
        idx, store.src[480:500], store.dst[:20],
        np.sort(rng.uniform(store.ts[400], store.ts[499], 20)),
        cand_features=ad.param(rng.standard_normal((20, 4))),
        rho=ad.param(rng.uniform(0.1, 0.9, 20)))
    enc = te.TgatEncoder(te.EncoderParams(100, layers=2, heads=2, d_hidden=100,
                                          seed=3),
                         store, n_nb=20)
    batch = np.arange(500, 560)
    nodes = np.concatenate([store.src[batch], store.dst[batch]])
    ts = np.concatenate([store.ts[batch], store.ts[batch]])
    plan = enc.plan(view, nodes, ts)
    # the oracle's queries, top layer first, dedup by np.unique
    gaps = []
    for layer in (2, 1):
        ids, eids, tss, _ = view.batch_neighbors(nodes, ts, 20)
        gaps.insert(0, ts[:, None] - tss)
        pairs = np.unique(np.stack([np.concatenate([nodes, ids.ravel()]),
                                    np.concatenate([ts, tss.ravel()])], 1),
                          axis=0)
        nodes, ts = pairs[:, 0].astype(np.int64), pairs[:, 1]
    assert (eids < 0).any()
    table = plan.layers[0].te[0]
    assert len(table) == len(np.unique(np.concatenate(
        [g.ravel() for g in gaps])))
    grids = [lp.mask.size * 100 for lp in plan.layers]
    for lp, g in zip(plan.layers, gaps):
        assert lp.te[0] is table
        assert lp.te[1].dtype == np.int32 and lp.te[1].shape == g.shape
        assert table[lp.te[1]].tobytes() == te.time_encode(
            g, 100, dtype=np.float32).tobytes()
        held = [x for x in lp if isinstance(x, np.ndarray)]
        held += [x for part in lp if isinstance(part, tuple) for x in part]
        assert all(x.size < min(grids) for x in held)


@pytest.mark.parametrize("layers", [1, 2])
def test_key_rows_of_a_shared_plan_match_their_own_encode(layers):
    """The key pass applies the plan of [src | dst | neg] built by the
    query encoder; its first 2b rows are, bit for bit, the key encoder's
    own encode of [src | dst]."""
    idx, src, dst, neg, tss, (q_enc, k_enc) = plan_fixture(layers)
    b = len(src)
    plan = q_enc.plan(idx, np.concatenate([src, dst, neg]),
                      np.concatenate([tss, tss, tss]))
    with ad.no_grad():
        got = k_enc.apply(plan).values[:2 * b]
        want = k_enc.encode_batch(idx, np.concatenate([src, dst]),
                                  np.concatenate([tss, tss])).values
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layers", [1, 2])
def test_encode_batch_with_a_plan_records_the_same_tape(layers):
    """Applying a plan built beforehand changes nothing: apply(plan) and
    encode_batch give the same output bytes, tape length and gradients."""
    idx, src, dst, neg, tss, (q_enc, _) = plan_fixture(layers)
    nodes = np.concatenate([src, dst, neg])
    ts3 = np.concatenate([tss, tss, tss])
    plan = q_enc.plan(idx, nodes, ts3)
    runs = []
    for encode in (lambda: q_enc.encode_batch(idx, nodes, ts3),
                   lambda: q_enc.apply(plan)):
        with ad.Tape() as tape:
            out = encode()
            tape.backward(ad.sum_(ad.mul(out, out)))
        runs.append((out.values.tobytes(), len(tape),
                     [p.grad.tobytes() for p in q_enc.params.parameters()
                      if p.name.startswith("enc.")]))
        for p in q_enc.params.parameters():
            p.zero_grad()
    assert runs[0] == runs[1]
