"""Minimal reverse-mode automatic differentiation on numpy arrays.

A Tape records primitive ops in execution order; Tape.backward() replays
the record in exact reverse order and accumulates gradients additively
(fan-out sum rule). A tape is replayed once: each entry is popped as it is
replayed, so the forward arrays its closure holds are freed then, and a
second backward raises. `.grad` lives on leaves only (params and other
tensors no recorded op produced); each intermediate's work gradient is
freed at its last use, when the op that produced it is replayed. A backward
closure returns None for an input that does not require a gradient, so no
gradient is ever formed for a constant. `matmul` takes an N-D lhs and a
2-D rhs only, and computes each gradient as one 2-D GEMM over the folded
leading axes. The primitives are the ones the model calls. Training
runs in float32, verification suites in float64 — gradient checks are
unreliable in float32.
"""

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tensor", "Tape", "no_grad", "verification_mode", "ParamSet",
    "AdamState", "adam_step", "GradCheckResult", "grad_check",
    "param", "constant", "init_uniform",
    "add", "sub", "mul", "div", "scale", "matmul", "concat", "narrow",
    "reshape", "take", "segment_sum", "sigmoid", "relu", "tanh",
    "log", "sqrt", "clip", "sum_", "mean", "logsumexp",
    "temporal_attention", "ShapeError", "NonFiniteError",
]


class ShapeError(ValueError):
    """Operand shapes do not conform to the op's algebra."""


class NonFiniteError(ValueError):
    """Non-finite values fed to a primitive while verification mode is on."""


# module-wide verification switch: when on, every primitive rejects
# non-finite inputs and soft clamps get flagged
_VERIFY = [False]


class verification_mode:
    def __enter__(self):
        self._prev = _VERIFY[0]
        _VERIFY[0] = True
        return self

    def __exit__(self, *exc):
        _VERIFY[0] = self._prev
        return False


def verify_active():
    return _VERIFY[0]


# ---------------------------------------------------------------------------
# tape

class Tape:
    """Ordered record of executed primitives; also a context manager that
    makes itself the active recording target."""

    def __init__(self):
        self.entries = []
        self._replayed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        assert _TAPE_STACK[-1] is self
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self.entries)

    def backward(self, loss):
        """Reverse replay: add d(loss)/d(leaf) into .grad of every
        requires_grad leaf on a path to the loss. Leaves are the tensors no
        entry of this tape produced; .grad lives on leaves only, never on
        intermediates. Each output's work gradient is popped, used and
        freed when its entry is replayed: every consumer of the output
        comes later on the tape, so by then the gradient is complete.

        A tape is replayed once: each entry is popped as it is replayed,
        so the forward arrays its closure holds are freed then, not when
        the tape is dropped, and a second call raises RuntimeError. To
        accumulate gradients over several passes, record a tape per
        pass."""
        if self._replayed:
            raise RuntimeError("Tape.backward: this tape was already "
                               "replayed; record a new tape for each pass")
        if loss.values.size != 1:
            raise ShapeError(
                f"backward needs a scalar loss, got shape {loss.values.shape}")
        self._replayed = True
        # id -> (tensor, grad)
        work = {id(loss): (loss, np.ones_like(loss.values))}
        entries = self.entries
        while entries:
            # rebinding the names drops the last entry's closure before
            # this one runs
            inputs, out, bw = entries.pop()
            hit = work.pop(id(out), None)
            if hit is None:
                continue            # not on a path to the loss
            for t, gi in zip(inputs, bw(hit[1])):
                if t.requires_grad and gi is not None:
                    prev = work.get(id(t))
                    work[id(t)] = (t, gi if prev is None else prev[1] + gi)
        # each produced tensor was popped at its entry: what is left are
        # the leaves
        for t, g in work.values():
            t._ensure_grad()
            t._grad += g


class no_grad:
    """Suspend recording: ops executed inside produce requires_grad=False
    outputs and leave the active tape untouched."""

    def __enter__(self):
        _TAPE_STACK.append(None)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


_TAPE_STACK = []


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


# ---------------------------------------------------------------------------
# tensor

class Tensor:
    __slots__ = ("values", "_grad", "requires_grad", "name")

    def __init__(self, values, requires_grad=False, name=None):
        self.values = np.asarray(values)
        self._grad = None
        self.requires_grad = requires_grad
        self.name = name

    # -- bookkeeping

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def grad(self):
        return self._grad

    def _ensure_grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.values)

    def zero_grad(self):
        if self._grad is not None:
            self._grad[...] = 0

    def item(self):
        return float(self.values.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.values.shape}, dtype={self.values.dtype}{tag})"

def param(values, name=None):
    """A learnable leaf: owns a zero grad grid from birth."""
    t = Tensor(np.asarray(values), requires_grad=True, name=name)
    t._ensure_grad()
    return t


def constant(values, name=None):
    return Tensor(np.asarray(values), requires_grad=False, name=name)


def init_uniform(shape, fan_in, rng, dtype=np.float32, name=None):
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return param(rng.uniform(-bound, bound, size=shape).astype(dtype), name=name)


class ParamSet:
    """Named parameter tensors in registration order. Models register their
    tensors once at construction and look them up by name at use
    (`params["enc.l0.wq"]`), so tensors swapped in by replace_tensors reach
    every op. The order is that of parameters(), optimizer state and
    init draws; the names key state dicts and snapshots."""

    def __init__(self):
        self._tensors = {}

    def register(self, tensor):
        self._tensors[tensor.name] = tensor

    def __getitem__(self, name):
        return self._tensors[name]

    @property
    def dtype(self):
        return next(iter(self._tensors.values())).dtype

    def parameters(self):
        return list(self._tensors.values())

    def replace_tensors(self, tensors):
        """Swap in externally owned tensors (parameters() order); used by
        gradient checking to route grads into probe tensors."""
        tensors = list(tensors)
        if len(tensors) != len(self._tensors):
            raise ValueError(f"replace_tensors: {len(tensors)} tensors for "
                             f"{len(self._tensors)} parameters")
        self._tensors = dict(zip(self._tensors, tensors))

    def state_dict(self):
        return {name: t.values.copy() for name, t in self._tensors.items()}

    def load_state_dict(self, d):
        """Copy in a state dict with exactly this set's names and shapes;
        anything else raises ValueError naming the tensor, before any
        value is written."""
        missing = sorted(set(self._tensors) - set(d))
        extra = sorted(set(d) - set(self._tensors))
        if missing or extra:
            raise ValueError(f"load_state_dict: missing {missing}, "
                             f"unexpected {extra}")
        for name, t in self._tensors.items():
            shape = np.shape(d[name])
            if shape != t.shape:
                raise ValueError(f"load_state_dict: {name} has shape {shape}, "
                                 f"expected {t.shape}")
        for name, t in self._tensors.items():
            t.values[...] = d[name]


# ---------------------------------------------------------------------------
# primitive machinery

def _check_finite(op, tensors):
    if _VERIFY[0]:
        for t in tensors:
            if not np.all(np.isfinite(t.values)):
                raise NonFiniteError(f"{op}: non-finite input (verification mode)")


def _record(op, inputs, out_values, bw):
    _check_finite(op, inputs)
    tape = _active_tape()
    rg = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_values, requires_grad=rg)
    if rg:
        tape.entries.append((inputs, out, bw))
    return out


def _unbroadcast(g, shape):
    """Sum g down to `shape` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives

def _broadcasting(name, fn, grad_a, grad_b):
    """A binary primitive `fn(a, b)` under numpy broadcasting; grad_a and
    grad_b map (g, a, b) values to each input's gradient before it is
    summed down to that input's shape."""
    def op(a, b):
        try:
            out = fn(a.values, b.values)
        except ValueError:
            raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do "
                             "not broadcast")
        return _record(name, (a, b), out, lambda g: (
            _unbroadcast(grad_a(g, a.values, b.values), a.shape)
            if a.requires_grad else None,
            _unbroadcast(grad_b(g, a.values, b.values), b.shape)
            if b.requires_grad else None))

    op.__name__ = op.__qualname__ = name
    return op


add = _broadcasting("add", np.add, lambda g, a, b: g, lambda g, a, b: g)
sub = _broadcasting("sub", np.subtract, lambda g, a, b: g,
                    lambda g, a, b: -g)
mul = _broadcasting("mul", np.multiply, lambda g, a, b: g * b,
                    lambda g, a, b: g * a)
div = _broadcasting("div", np.true_divide, lambda g, a, b: g / b,
                    lambda g, a, b: -g * a / (b * b))


def scale(a, c):
    """Multiply by a python scalar constant (no gradient w.r.t. c)."""
    c = float(c)
    return _record("scale", (a,), a.values * c, lambda g: (g * c,))


def matmul(a, b):
    """An N-D `a` times a 2-D `b`, numpy @ semantics. The leading axes of
    `a` fold into rows, so each gradient is one 2-D GEMM."""
    if b.values.ndim != 2 or a.values.ndim < 1 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape} needs a 2-D rhs "
                         f"and equal inner dims")
    out = a.values @ b.values
    k, m = b.shape

    def bw(g):
        g2 = g.reshape(-1, m)
        ga = (g2 @ b.values.T).reshape(a.shape) if a.requires_grad else None
        gb = a.values.reshape(-1, k).T @ g2 if b.requires_grad else None
        return ga, gb

    return _record("matmul", (a, b), out, bw)


def concat(tensors, axis=0):
    tensors = tuple(tensors)
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        s = list(t.shape)
        s[axis] = ref[axis]
        if s != ref:
            raise ShapeError(
                f"concat: shapes {[t.shape for t in tensors]} differ off axis {axis}")
    out = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record("concat", tensors, out, bw)


def narrow(a, axis, start, length):
    """Contiguous slice along one axis (the inverse piece of concat): a
    view of `a`'s values, which no primitive writes into."""
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(
            f"narrow: [{start}:{start + length}] outside axis {axis} of {a.shape}")
    idx = [slice(None)] * a.values.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bw(g):
        full = np.zeros_like(a.values)
        full[idx] = g
        return (full,)

    return _record("narrow", (a,), a.values[idx], bw)


def reshape(a, shape):
    out = a.values.reshape(shape)
    return _record("reshape", (a,), out, lambda g: (g.reshape(a.shape),))


# rows narrower than this many elements scatter through np.add.at: on
# 4k-12.6k float32 rows it is faster below 16 elements, level at 16 and
# slower from 20; at width 1 the reduce below would also sum pairwise
_SORTED_SCATTER_MIN = 20
# a scatter round with fewer rows than this ends the rounds
_ROUND_MIN = 32


def _scatter_add(out, idx, vals):
    """out[idx] += vals, where a repeated index adds its rows in order:
    byte for byte np.add.at(out, idx, vals), which it calls for 1-D and
    narrow rows. Otherwise the rows are stable-sorted by target, and round
    r adds every target's r-th row with one fancy +=, so no round repeats
    a target. Once a round would have fewer than _ROUND_MIN rows, each
    target left adds its remaining rows with one axis-0 np.add.reduce,
    which adds rows in sequence when they are at least 2 wide."""
    idx = np.asarray(idx).reshape(-1)
    vals = np.asarray(vals).reshape(idx.shape + out.shape[1:])
    n = len(idx)
    if (out.ndim == 1 or math.prod(out.shape[1:]) < _SORTED_SCATTER_MIN
            or vals.dtype != out.dtype or n == 0):
        np.add.at(out, idx, vals)
        return out
    if idx.min() < 0:
        idx = np.where(idx < 0, idx + len(out), idx)
    order = np.argsort(idx, kind="stable")
    tgt, rows = idx[order], vals[order]
    first = np.r_[True, tgt[1:] != tgt[:-1]]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, n))
    live, r = np.arange(len(starts)), 0
    while len(live) >= _ROUND_MIN:
        out[tgt[starts[live]]] += rows[starts[live] + r]
        r += 1
        live = live[counts[live] > r]
    for g in live:
        t, a = tgt[starts[g]], starts[g]
        out[t] = np.add.reduce(np.concatenate(
            [out[t][None], rows[a + r:a + counts[g]]]), axis=0)
    return out


def take(a, indices):
    """Gather rows along axis 0; the gradient scatter-adds back through
    _scatter_add, so repeated rows add in index order as np.add.at
    would."""
    idx = np.asarray(indices)
    out = a.values[idx]

    def bw(g):
        return (_scatter_add(np.zeros_like(a.values), idx, g),)

    return _record("take", (a,), out, bw)


def segment_sum(a, segment_ids, num_segments):
    """Sum rows of a into num_segments buckets given per-row bucket ids;
    each bucket adds its rows in order (_scatter_add)."""
    seg = np.asarray(segment_ids)
    if seg.shape[0] != a.shape[0]:
        raise ShapeError(
            f"segment_sum: {seg.shape[0]} ids for {a.shape[0]} rows")
    out = _scatter_add(np.zeros((num_segments,) + a.shape[1:], dtype=a.dtype),
                       seg, a.values)
    return _record("segment_sum", (a,), out, lambda g: (g[seg],))


def sigmoid(a):
    v = a.values
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _record("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def relu(a):
    # subgradient at 0 is 0 by convention
    out = np.maximum(a.values, 0)
    return _record("relu", (a,), out, lambda g: (g * (a.values > 0),))


def tanh(a):
    out = np.tanh(a.values)
    return _record("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


def log(a):
    return _record("log", (a,), np.log(a.values),
                   lambda g: (g / a.values,))


def sqrt(a):
    out = np.sqrt(a.values)
    return _record("sqrt", (a,), out, lambda g: (g * 0.5 / out,))


def clip(a, lo, hi):
    """Clamp values; gradient is identity strictly inside (lo, hi)."""
    out = np.clip(a.values, lo, hi)
    inside = (a.values > lo) & (a.values < hi)
    return _record("clip", (a,), out, lambda g: (g * inside,))


def _spread(g, a, axis, keepdims):
    """A reduction's output gradient broadcast back over its input."""
    if not keepdims and axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, a.shape)


def sum_(a, axis=None, keepdims=False):
    return _record("sum", (a,), a.values.sum(axis=axis, keepdims=keepdims),
                   lambda g: (_spread(g, a, axis, keepdims),))


def mean(a, axis=None, keepdims=False):
    n = a.values.size if axis is None else a.shape[axis]
    return _record("mean", (a,), a.values.mean(axis=axis, keepdims=keepdims),
                   lambda g: (_spread(g, a, axis, keepdims) / n,))


def logsumexp(a, axis=None, keepdims=False):
    v = a.values
    m = np.max(v, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(v - m)
    s = e.sum(axis=axis, keepdims=True)
    out_k = np.log(s) + m
    if keepdims:
        out = out_k
    elif axis is None:
        out = out_k.reshape(())
    else:
        out = np.squeeze(out_k, axis=axis)
    soft = e / s

    def bw(g):
        return (np.asarray(g).reshape(out_k.shape) * soft,)

    return _record("logsumexp", (a,), out, bw)


def _row_groups(rows):
    """Sorted row ids as groups: (the R distinct rows, each id's group and
    rank within it, the largest group size k)."""
    first = np.r_[True, rows[1:] != rows[:-1]]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    rank = np.arange(len(rows)) - starts[group]
    return rows[starts], group, rank, int(rank.max()) + 1


# slot elements (rows x n x d) per row block of temporal_attention: its
# forward and backward gather and multiply one block's slots at a time,
# so their transients do not grow with the batch. Replaying the training
# calls of a paper-default pass (d=100, n=20; one BLAS thread of a 2-CPU
# VM) took a median 0.234 CPU-s at 2^18, 0.289 at 2^15, 0.240 at 2^20
# and 0.272 in one block
_ATTN_BLOCK = 1 << 18


class _AddedBlock(NamedTuple):
    """A row block's added positions: their slice of the P positions, the
    block's rows with additions (batch row ids), and the positions' (row,
    slot) and (group, rank) coordinates, local to the block."""
    pos: slice
    at: np.ndarray
    slots: tuple
    packs: tuple


def _put(out, lo, part, total):
    """`out` with `part` written at rows lo:lo + len(part). A None `out`
    is made [total, ...] of part's dtype, or is part itself when part
    spans all total rows, so a one-block call copies nothing."""
    if out is None:
        if len(part) == total:
            return part
        out = np.empty((total,) + part.shape[1:], dtype=part.dtype)
    out[lo:lo + len(part)] = part
    return out


def temporal_attention(h_self, h_nbr, e_slot, te, mask, wq, wk, wv, heads,
                       added=None):
    """One multi-head temporal attention layer over n slots per row
    (TGAT, Xu et al. 2020); returns the [B, heads*d_k] head outputs.

    Row b has one query q = (h_self || 1) @ wq, and slot s has the key and
    value input x_s = (h_nbr_s || e_s || te_s), each block d wide. Head
    h takes a = softmax_s(q_h . (x_s @ wk_h) / sqrt(d_k) - 1e9 (1 -
    mask_s)) and returns sum_s a_s w_s (x_s @ wv_h). Because each row has
    one query, the query is folded into W_k, q_h . (x_s W_k,h) = x_s .
    (W_k,h q_h), and the slots are pooled before W_v, sum_s u_s (x_s
    W_v,h) = (sum_s u_s x_s) W_v,h with u = a * w. So no per-slot key or
    value is formed, and the layer costs O(B n 3d heads), not O(B n 3d
    heads d_k).

    The slot work runs in blocks of consecutive rows, each at most
    _ATTN_BLOCK slot elements (rows x n x d): a block gathers its time
    rows, forms its logits, softmax, u and pooled parts, and writes them
    into [B, ...] arrays; the backward forms each block's slot gradients
    the same way. Every row's arithmetic is the same in any block, so
    results do not depend on the block size, and the transients are one
    block's, not the batch's. The products that reduce over rows (the
    output and the weight, query and h_self gradients) take the whole
    [B, ...] arrays, and a call of one block runs no extra pass.

    `te` is the slots' time encodings as a pair (table, inverse): a
    [U, d] table of distinct rows and a [B, n] integer array, so that
    te_s = table[inverse[b, s]]. Each block gathers its rows of the time
    block in the forward and again in the backward, and the tape keeps
    none of them; a table that requires a gradient gets the slots' rows
    scatter-added, all in one pass. `h_self`, `h_nbr` and `e_slot` may be
    narrower than d (the table is d wide): an input of width w stands for
    itself zero-padded to d, so it reads only the top w rows of its block
    of wq, wk and wv, and the rows it does not read get an exactly zero
    gradient. `mask` is a [B, n] array, 1 for a filled slot and 0 for a
    pad, and is also each slot's value weight w. `added`, if given, is
    (positions, rows, weights): P distinct filled (row, slot) positions in
    row-major order, as np.nonzero gives them, with [P, d] rows that add
    to e there and [P] weights written over w there. Their logits, pooled
    terms and gradients are formed at those P positions only: each row's
    added positions are packed into a [R, k, .] block (R rows with
    additions, k the most in one row, over the whole batch), so each of
    their products is one batched matmul per row block. A row with every
    slot padded outputs zero. The backward follows the same reassociation
    and returns None for any input that does not require a gradient."""
    b, n = mask.shape
    table, te_inv = te
    te_inv = np.asarray(te_inv)
    d = table.shape[-1]
    hk = wq.shape[1]
    ws, wn, we = (t.shape[-1] for t in (h_self, h_nbr, e_slot))
    if (hk % heads or max(ws, wn, we) > d or h_self.shape != (b, ws)
            or h_nbr.shape != (b, n, wn) or e_slot.shape != (b, n, we)
            or table.values.ndim != 2 or te_inv.shape != (b, n)
            or te_inv.dtype.kind not in "iu"
            or (te_inv.size and (te_inv.min() < 0
                                 or te_inv.max() >= len(table.values)))
            or wq.shape != (2 * d, hk)
            or wk.shape != (3 * d, hk) or wv.shape != (3 * d, hk)):
        raise ShapeError(
            f"temporal_attention: {heads} heads, widths <= {d}, shapes "
            f"{[t.shape for t in (h_self, h_nbr, e_slot, table)]}, time "
            f"rows {te_inv.shape} of {te_inv.dtype} in range, mask "
            f"{mask.shape}, weights {[wq.shape, wk.shape, wv.shape]}")
    inputs = (h_self, h_nbr, e_slot, table, wq, wk, wv)
    sparse = False
    if added is not None:
        (rows, cols), e_add, w_add = added
        rows, cols = np.asarray(rows), np.asarray(cols)
        p = len(rows)
        if (e_add.shape != (p, d) or w_add.shape != (p,)
                or rows.shape != (p,) or cols.shape != (p,)
                or (p and (rows[0] < 0 or rows[-1] >= b or cols.min() < 0
                           or cols.max() >= n
                           or np.any(np.diff(rows * n + cols) <= 0)))):
            raise ShapeError(
                f"temporal_attention: added rows {e_add.shape}, weights "
                f"{w_add.shape} and positions {rows.shape}, {cols.shape} "
                f"must be (P, {d}), (P,) and P distinct row-major slots of "
                f"{(b, n)}")
        # an empty added part is no added part
        sparse = p > 0
        if sparse:
            inputs += (e_add, w_add)
    dk = hk // heads
    c = 1.0 / math.sqrt(dk)
    # the rows of wk and wv read: each block's top rows, the whole e block
    # when added rows are present; spans index the read rows
    we_r = d if sparse else we
    kv_rows = np.r_[0:wn, d:d + we_r, 2 * d:3 * d]
    spans = (slice(0, wn), slice(wn, wn + we), slice(wn + we_r, wn + we_r + d))
    e_span = slice(wn, wn + d)
    r = len(kv_rows)
    wq_v = wq.values

    def per_head(w):
        # [r, h*d_k] -> [h, r, d_k]
        return w[kv_rows].reshape(r, heads, dk).transpose(1, 0, 2)

    wk3, wv3 = per_head(wk.values), per_head(wv.values)
    q = h_self.values @ wq_v[:ws] + wq_v[d:].sum(axis=0)
    q3 = q.reshape(b, heads, dk).transpose(1, 0, 2)           # [h, B, d_k]
    # qt[b, :, h] = W_k,h q_h / sqrt(d_k), over the read rows
    qt = np.ascontiguousarray(
        (q3 @ wk3.transpose(0, 2, 1)).transpose(1, 2, 0)) * c  # [B, r, h]

    # the row blocks; an empty batch is one empty block
    step = max(1, _ATTN_BLOCK // max(n * d, 1))
    cuts = np.r_[np.arange(0, max(b, 1), step), b].tolist()
    blocks = [(lo, hi, None) for lo, hi in zip(cuts[:-1], cuts[1:])]
    if sparse:
        # added positions are row-major, so a block's are one contiguous
        # range; k is the whole batch's, so every block packs to the same
        # length of sum
        at, group, rank, k = _row_groups(rows)
        pcut = np.searchsorted(rows, cuts).tolist()
        gcut = np.searchsorted(at, cuts).tolist()
        for i, (lo, hi, _) in enumerate(blocks):
            ps = slice(pcut[i], pcut[i + 1])
            blocks[i] = (lo, hi, _AddedBlock(
                ps, at[gcut[i]:gcut[i + 1]], (rows[ps] - lo, cols[ps]),
                (group[ps] - gcut[i], rank[ps])))

    def gather(lo, hi):
        # a block's slot inputs, its time rows gathered from the table
        return (h_nbr.values[lo:hi], e_slot.values[lo:hi],
                table.values[te_inv[lo:hi]])

    def packed(vals, ab):
        # a block's [P, ...] -> [R, k, ...], zero where a row has fewer
        # than k
        out = np.zeros((len(ab.at), k) + vals.shape[1:], dtype=vals.dtype)
        out[ab.packs] = vals
        return out

    def pad_e(part, w_pos, e_pk, ab, lo):
        # the e block d wide: the real rows' part plus each row's added
        # rows pooled by their [P, h] weights
        full = np.zeros((len(part), heads, d), dtype=part.dtype)
        full[:, :, :we] = part
        full[ab.at - lo] += packed(w_pos, ab).transpose(0, 2, 1) @ e_pk
        return full

    attn = u = w_all = None
    parts = [None] * 3
    for lo, hi, ab in blocks:
        xs = gather(lo, hi)
        qb = qt[lo:hi]
        logits = xs[0] @ qb[:, spans[0]]
        logits += xs[1] @ qb[:, spans[1]]
        if sparse:
            e_pk = packed(e_add.values[ab.pos], ab)           # [R, k, d]
            logits[ab.slots] += (e_pk @ qt[ab.at, e_span])[ab.packs]
        logits += xs[2] @ qb[:, spans[2]]
        logits += ((mask[lo:hi] - 1.0) * 1e9)[:, :, None].astype(
            logits.dtype)
        a = np.exp(logits - logits.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)                     # [rows, n, h]
        w = np.array(mask[lo:hi], dtype=a.dtype)
        if sparse:
            w[ab.slots] = w_add.values[ab.pos]
        ub = a * w[:, :, None]
        ut = ub.transpose(0, 2, 1)
        pb = [ut @ x for x in xs]                             # [rows, h, w]
        if sparse:
            pb[1] = pad_e(pb[1], ub[ab.slots], e_pk, ab, lo)
        attn, u, w_all = (_put(attn, lo, a, b), _put(u, lo, ub, b),
                          _put(w_all, lo, w, b))
        parts = [_put(o, lo, x, b) for o, x in zip(parts, pb)]
    pooled = np.concatenate(parts, axis=2)                    # [B, h, r]
    out = (pooled.transpose(1, 0, 2) @ wv3).transpose(1, 0, 2).reshape(b, hk)

    def scatter_rows(g_read, w):
        full = np.zeros_like(w.values)
        full[kv_rows] = g_read
        return full

    def bw(g):
        g3 = g.reshape(b, heads, dk).transpose(1, 0, 2)       # [h, B, d_k]
        g_wv = g_wk = g_wq = g_self = g_e = g_w = None
        if wv.requires_grad:
            g_wv = scatter_rows((pooled.transpose(1, 2, 0) @ g3)
                                .transpose(1, 0, 2).reshape(r, hk), wv)
        g_pool = np.ascontiguousarray(
            (g3 @ wv3.transpose(0, 2, 1)).transpose(1, 0, 2))  # [B, h, r]
        g_x = [None] * 3
        g_parts = [None] * 3
        for lo, hi, ab in blocks:
            # the block's slot inputs, its time rows gathered again
            xs = gather(lo, hi)
            gp = g_pool[lo:hi]
            g_u = sum(x @ gp[:, :, sp].transpose(0, 2, 1)
                      for x, sp in zip(xs, spans))             # [rows, n, h]
            if sparse:
                # packed again, not kept on the tape
                e_pk = packed(e_add.values[ab.pos], ab)
                gp_e = g_pool[ab.at, :, e_span]               # [R, h, d]
                g_u[ab.slots] += (e_pk @ gp_e.transpose(0, 2, 1))[ab.packs]
            a, ub, qb = attn[lo:hi], u[lo:hi], qt[lo:hi]
            g_a = g_u * w_all[lo:hi, :, None]
            g_l = a * (g_a - (g_a * a).sum(axis=1, keepdims=True))
            g_lt = g_l.transpose(0, 2, 1)
            for j, (t, sp) in enumerate(zip((h_nbr, e_slot, table), spans)):
                if t.requires_grad:
                    g_x[j] = _put(g_x[j], lo, ub @ gp[:, :, sp]
                                  + g_l @ qb[:, sp].transpose(0, 2, 1), b)
            # qt's gradient pools the slots by g_l, as the forward pools
            # by u
            gpb = [g_lt @ x for x in xs]
            # the block's time rows are not needed again: free them
            # before the added slots' [R, k, d] products
            del xs
            if sparse:
                gpb[1] = pad_e(gpb[1], g_l[ab.slots], e_pk, ab, lo)
                if e_add.requires_grad:
                    g_e = _put(g_e, ab.pos.start, (
                        packed(ub[ab.slots], ab) @ gp_e
                        + packed(g_l[ab.slots], ab)
                        @ qt[ab.at, e_span].transpose(0, 2, 1))[ab.packs], p)
                if w_add.requires_grad:
                    g_w = _put(g_w, ab.pos.start,
                               (g_u[ab.slots] * a[ab.slots]).sum(axis=1), p)
            g_parts = [_put(o, lo, x, b) for o, x in zip(g_parts, gpb)]
        if g_x[2] is not None:
            g_x[2] = _scatter_add(np.zeros_like(table.values), te_inv, g_x[2])
        g_qt = np.concatenate(g_parts, axis=2)
        g_qt = g_qt.transpose(1, 0, 2) * c                     # [h, B, r]
        if wk.requires_grad:
            g_wk = scatter_rows((g_qt.transpose(0, 2, 1) @ q3)
                                .transpose(1, 0, 2).reshape(r, hk), wk)
        g_q = (g_qt @ wk3).transpose(1, 0, 2).reshape(b, hk)
        if wq.requires_grad:
            g_wq = np.zeros_like(wq_v)
            g_wq[:ws] = h_self.values.T @ g_q
            g_wq[d:] = g_q.sum(axis=0)
        if h_self.requires_grad:
            g_self = g_q @ wq_v[:ws].T
        grads = (g_self, *g_x, g_wq, g_wk, g_wv)
        if not sparse:
            return grads
        return grads + (g_e, g_w)

    return _record("temporal_attention", inputs, out, bw)


# ---------------------------------------------------------------------------
# optimizer

# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Per-parameter moment grids plus the shared step counter."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]


def adam_step(state):
    """One bias-corrected Adam update of the state's params; zeroes their
    grads afterwards."""
    params = state.params
    for p in params:
        if p.grad is None:
            raise ValueError(f"adam_step: missing grad for parameter {p.name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p.values -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        p.zero_grad()


# ---------------------------------------------------------------------------
# gradient checking

class GradCheckResult:
    def __init__(self, max_rel_err, skipped, n_checked):
        self.max_rel_err = max_rel_err
        self.skipped = skipped          # list of (input index, flat coord)
        self.n_checked = n_checked

    def __repr__(self):
        return (f"GradCheckResult(max_rel_err={self.max_rel_err:.3e}, "
                f"checked={self.n_checked}, skipped={len(self.skipped)})")


# grad_check's finite-difference step, and the relative gap between the
# one-sided differences past which a coordinate counts as a kink
_H, _KINK_TOL = 1e-5, 1e-3


def grad_check(fn, point):
    """Compare reverse-mode gradients of a scalar fn against central finite
    differences of step _H at `point` (a list of tensors or arrays), in
    float64.

    Coordinates where the two one-sided differences disagree by more than
    _KINK_TOL (relu-style kinks) are skipped and reported in the result.
    """
    xs = [param(np.asarray(p.values if isinstance(p, Tensor) else p,
                           dtype=np.float64).copy(), name=f"x{i}")
          for i, p in enumerate(point)]

    with verification_mode():
        with Tape() as tape:
            y = fn(*xs)
            if y.values.size != 1:
                raise ShapeError("grad_check: fn must be scalar-valued")
            tape.backward(y)
        analytic = [x.grad.copy() for x in xs]

        def feval():
            # perturbed points may step outside a domain; the typed error
            # below replaces numpy's warning
            with no_grad(), np.errstate(invalid="ignore", divide="ignore"):
                out = fn(*xs).values
            if not np.all(np.isfinite(out)):
                raise NonFiniteError("grad_check: fn non-finite at perturbed point")
            return float(np.asarray(out).reshape(()))

        f0 = feval()
        max_err = 0.0
        skipped = []
        n_checked = 0
        for i, x in enumerate(xs):
            flat = x.values.reshape(-1)
            aflat = analytic[i].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + _H
                fp = feval()
                flat[j] = orig - _H
                fm = feval()
                flat[j] = orig
                central = (fp - fm) / (2 * _H)
                d_plus = (fp - f0) / _H
                d_minus = (f0 - fm) / _H
                if abs(d_plus - d_minus) > _KINK_TOL * max(1.0, abs(d_plus), abs(d_minus)):
                    skipped.append((i, j))
                    continue
                err = abs(aflat[j] - central) / max(1.0, abs(central))
                max_err = max(max_err, err)
                n_checked += 1
    return GradCheckResult(max_err, skipped, n_checked)
