import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from tgsl import autodiff as ad


def test_matmul_identity():
    a = np.random.default_rng(0).standard_normal((3, 3))
    out = ad.matmul(ad.constant(np.eye(3)), ad.constant(a))
    assert np.allclose(out.values, a)


def test_sigmoid_at_zero():
    out = ad.sigmoid(ad.constant(np.zeros(1)))
    assert out.values[0] == 0.5


def test_logsumexp_equal_entries():
    # oracle: log(sum exp(c)) over 3 equal entries is c + ln 3
    c = 0.7
    out = ad.logsumexp(ad.constant(np.full(3, c)))
    assert abs(float(out.values) - (c + math.log(3))) < 1e-12


def test_shape_errors_name_op_and_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ad.ShapeError, match=r"matmul.*2, 3"):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeError, match="concat"):
        ad.concat([a, ad.constant(np.zeros((2, 4)))], axis=0)
    with pytest.raises(ad.ShapeError, match=r"matmul: \(3,\) @ \(2, 3, 4\)"):
        ad.matmul(ad.constant(np.zeros(3)), ad.constant(np.zeros((2, 3, 4))))
    z = ad.constant
    slots = [z(np.zeros((2, 3, 4)))] * 2
    te = (z(np.zeros((6, 4))), np.arange(6).reshape(2, 3))
    with pytest.raises(ad.ShapeError, match=r"temporal_attention.*\(12, 5\)"):
        ad.temporal_attention(z(np.zeros((2, 4))), *slots, te, np.ones((2, 3)),
                              z(np.zeros((8, 4))), z(np.zeros((12, 5))),
                              z(np.zeros((12, 4))), 2)


# one primitive per family: elementwise, matmul, concat, gather, reduction
NONFINITE_CALLS = {
    "relu": ad.relu,
    "matmul": lambda a: ad.matmul(a, ad.constant(np.ones((2, 1)))),
    "concat": lambda a: ad.concat([a, a], axis=0),
    "take": lambda a: ad.take(a, np.array([0, 0])),
    "logsumexp": lambda a: ad.logsumexp(a, axis=1),
}


@pytest.mark.parametrize("op", list(NONFINITE_CALLS))
def test_verification_mode_rejects_nonfinite(op):
    call = NONFINITE_CALLS[op]
    bad = ad.constant(np.array([[1.0, np.nan]]))
    call(bad)   # fine outside verification mode
    with ad.verification_mode():
        with pytest.raises(ad.NonFiniteError,
                           match=f"^{op}: non-finite input \\(verification"):
            call(bad)


# ---------------------------------------------------------------------------
# backward

def test_backward_sigmoid_grad_quarter():
    x = ad.param(np.array([0.0]))
    with ad.Tape() as t:
        y = ad.sigmoid(x)
        t.backward(y)
    assert np.allclose(x.grad, [0.25])


def test_backward_product_rule():
    rng = np.random.default_rng(1)
    a = ad.param(rng.standard_normal(4))
    b = ad.param(rng.standard_normal(4))
    with ad.Tape() as t:
        t.backward(ad.sum_(ad.mul(a, b)))
    assert np.allclose(a.grad, b.values)
    assert np.allclose(b.grad, a.values)


def test_backward_requires_scalar():
    x = ad.param(np.zeros(3))
    with ad.Tape() as t:
        y = ad.relu(x)
        with pytest.raises(ad.ShapeError, match="scalar"):
            t.backward(y)


def test_backward_accumulates_additively():
    x = ad.param(np.array([0.3]))
    grads = []
    for _ in range(2):
        with ad.Tape() as t:
            t.backward(ad.sigmoid(x))
        grads.append(x.grad.copy())
    assert np.allclose(grads[1], 2 * grads[0])


def test_off_path_tensor_gets_zero_grid():
    # .grad lives on leaves only: an off-path param keeps the zero grid it
    # was born with, and no intermediate gets one
    x = ad.param(np.ones(3))
    z = ad.param(np.ones(2))
    with ad.Tape() as t:
        dead = ad.relu(z)      # recorded but not connected to the loss
        sq = ad.mul(x, x)
        t.backward(ad.sum_(sq))
    assert z.grad is not None and np.all(z.grad == 0)
    assert dead.grad is None and sq.grad is None
    assert np.all(x.grad == 2.0)


def _backward_peak(loss, tape):
    """Peak bytes that tape.backward(loss) allocates above what was live."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_backward_frees_work_grads_at_last_use():
    # the tape holds the chain's 40 forward values; backward itself keeps
    # only a few leaf-sized grids alive at once, not one per op
    x = ad.param(np.random.default_rng(0).standard_normal(1 << 18))   # 2 MB
    with ad.Tape() as t:
        y = x
        for _ in range(40):
            y = ad.tanh(y)
        peak = _backward_peak(ad.sum_(y), t)
    assert peak < 5 * x.values.nbytes


def test_backward_frees_each_entry_as_it_replays_it():
    """The tape is replayed once: its entries, and the forward values
    their closures hold, are freed by backward while the tape object
    lives on, and a second backward raises."""
    x = ad.param(np.random.default_rng(0).standard_normal(1 << 18))   # 2 MB
    tracemalloc.start()
    try:
        with ad.Tape() as t:
            y = x
            for _ in range(40):
                y = ad.tanh(y)
            loss = ad.sum_(y)
            del y
            held = tracemalloc.get_traced_memory()[0]
            t.backward(loss)
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(t) == 0
    assert freed > 0.9 * 40 * x.values.nbytes
    g = x.grad.copy()
    with pytest.raises(RuntimeError, match="already replayed"):
        t.backward(loss)
    assert x.grad.tobytes() == g.tobytes()


def _batched_matmul_grads(a, b, g):
    """The reference form of an N-D @ 2-D gradient: a batched product per
    input, summed back down to the input's shape."""
    at = np.swapaxes(a, -1, -2)
    bt = np.swapaxes(b, -1, -2)
    return ad._unbroadcast(g @ bt, a.shape), ad._unbroadcast(at @ g, b.shape)


def test_broadcast_matmul_grads_match_batched_oracle():
    # the recorded backward closure, called with a random upstream grad,
    # equals the batched form; a constant input's slot is None
    rng = np.random.default_rng(5)
    for _ in range(20):
        lead = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
        k, m = rng.integers(1, 7, size=2)
        a = rng.standard_normal(lead + (k,))
        b = rng.standard_normal((k, m))
        g = rng.standard_normal(lead + (m,))
        ref_a, ref_b = _batched_matmul_grads(a, b, g)
        leaf = {True: ad.param, False: ad.constant}
        for a_rg, b_rg in ((True, True), (False, True), (True, False)):
            with ad.Tape() as t:
                ad.matmul(leaf[a_rg](a), leaf[b_rg](b))
            (_, _, bw), = t.entries
            ga, gb = bw(g)
            for got, ref, rg in ((ga, ref_a, a_rg), (gb, ref_b, b_rg)):
                if rg:
                    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
                else:
                    assert got is None


def test_constant_input_gradient_is_never_formed():
    rng = np.random.default_rng(2)
    c = ad.constant(rng.standard_normal((64, 64, 128)))      # 4 MB
    w = ad.param(rng.standard_normal((128, 4)))
    with ad.Tape() as t:
        peak = _backward_peak(ad.sum_(ad.matmul(c, w)), t)
    assert peak < c.values.nbytes
    # mul's param gradient g * c is itself c-sized; a second c-sized grid
    # for the constant would take the peak to twice that
    p = ad.param(rng.standard_normal(c.shape))
    with ad.Tape() as t:
        peak = _backward_peak(ad.sum_(ad.mul(c, p)), t)
    assert peak < 1.5 * c.values.nbytes


def test_finished_tape_is_freed_by_refcounting():
    # outputs hold no reference back to their tape, so a finished tape and
    # its loss go as soon as they leave scope, without the cyclic collector
    x = ad.param(np.ones(3))
    gc.disable()
    try:
        with ad.Tape() as t:
            loss = ad.sum_(ad.mul(x, x))
            t.backward(loss)
        ref = weakref.ref(t)
        del t, loss
        assert ref() is None
    finally:
        gc.enable()


def test_param_set_names_order_and_round_trip():
    ps = ad.ParamSet()
    for name in ("b", "a"):
        ps.register(ad.param(np.zeros(2), name=name))
    assert [p.name for p in ps.parameters()] == ["b", "a"]
    ps["a"].values[...] = 3.0
    snap = ps.state_dict()
    ps["a"].values[...] = 0.0
    ps.load_state_dict(snap)
    assert np.all(ps["a"].values == 3.0) and np.all(ps["b"].values == 0.0)
    probes = [ad.param(np.ones(2), name="x0"), ad.param(np.ones(2), name="x1")]
    ps.replace_tensors(probes)
    assert ps["b"] is probes[0] and ps["a"] is probes[1]
    with pytest.raises(ValueError, match="replace_tensors"):
        ps.replace_tensors(probes[:1])
    # names and shapes must match exactly; nothing is written otherwise
    for bad, named in (({"a": np.ones(2)}, "b"),
                       ({**snap, "c": np.ones(2)}, "c"),
                       ({**snap, "a": np.ones(1)}, "a")):
        with pytest.raises(ValueError, match=named):
            ps.load_state_dict(bad)
        assert np.all(ps["b"].values == 1.0)


def test_five_op_composite_matches_finite_differences():
    rng = np.random.default_rng(7)

    def f(a, b):
        h = ad.relu(ad.matmul(a, b))            # matmul, relu
        return ad.mean(ad.mul(ad.tanh(h), h))   # tanh, mul, mean

    res = ad.grad_check(f, [rng.standard_normal((3, 4)),
                            rng.standard_normal((4, 2))])
    assert res.max_rel_err <= 1e-4


def test_tape_replay_bit_deterministic():
    def run():
        rng = np.random.default_rng(11)
        a = ad.param(rng.standard_normal((5, 5)))
        b = ad.param(rng.standard_normal((5, 5)))
        with ad.Tape() as t:
            y = ad.sum_(ad.sigmoid(ad.matmul(a, b)))
            t.backward(y)
        return y.values.copy(), a.grad.copy(), b.grad.copy()

    y1, ga1, gb1 = run()
    y2, ga2, gb2 = run()
    assert np.array_equal(y1, y2)
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


def test_concat_narrow_roundtrip_routes_grads_disjointly():
    rng = np.random.default_rng(3)
    a = ad.param(rng.standard_normal((2, 3)))
    b = ad.param(rng.standard_normal((2, 4)))
    with ad.Tape() as t:
        cat = ad.concat([a, b], axis=1)
        back_a = ad.narrow(cat, 1, 0, 3)
        back_b = ad.narrow(cat, 1, 3, 4)
        assert np.array_equal(back_a.values, a.values)
        assert np.array_equal(back_b.values, b.values)
        t.backward(ad.sum_(back_a))
    assert np.all(a.grad == 1.0)
    assert np.all(b.grad == 0.0)   # gradient of the a-slice never leaks to b


def test_narrow_is_a_view_of_its_input():
    a = ad.param(np.arange(24.0).reshape(4, 6))
    for axis, start, length in ((0, 1, 2), (1, 2, 3)):
        out = ad.narrow(a, axis, start, length)
        assert np.shares_memory(out.values, a.values)
        assert np.array_equal(out.values, np.take(
            a.values, np.arange(start, start + length), axis=axis))


def _reachable_arrays(fn, tensors):
    """Every array a grad-suite case reads: its argument tensors and the
    tensors and arrays its closure holds, in tuples too."""
    out, todo = [], list(tensors) + [
        c.cell_contents for c in fn.__closure__ or ()]
    while todo:
        x = todo.pop()
        if isinstance(x, ad.Tensor):
            out.append(x.values)
        elif isinstance(x, np.ndarray):
            out.append(x)
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
    return out


def _grad_cases():
    from tgsl import verify
    return verify._primitive_cases(np.random.default_rng(0))


@pytest.mark.parametrize("case", [name for name, _, _ in _grad_cases()])
def test_no_primitive_writes_into_its_inputs(case):
    """For every primitive the grad suite checks, neither its forward nor
    its backward changes a byte of any array it reads, nor of the output
    gradient its backward is given: narrow's outputs are views, so a
    write into an input would reach the tensor it was narrowed from."""
    (fn, args), = [(f, a) for name, f, a in _grad_cases() if name == case]
    xs = [ad.param(np.array(a, dtype=np.float64)) for a in args]
    arrays = _reachable_arrays(fn, xs)
    before = [a.tobytes() for a in arrays]
    with ad.Tape() as tape:
        loss = fn(*xs)
    assert [a.tobytes() for a in arrays] == before
    calls = []

    def checked(inputs, bw):
        def run(g):
            seen = [t.values.tobytes() for t in inputs] + [g.tobytes()]
            grads = bw(g)
            assert [t.values.tobytes() for t in inputs] + [g.tobytes()] \
                == seen
            calls.append(bw)
            return grads
        return run

    tape.entries = [(i, o, checked(i, bw)) for i, o, bw in tape.entries]
    recorded = len(tape.entries)
    tape.backward(loss)
    assert len(calls) == recorded
    assert [a.tobytes() for a in arrays] == before


def test_an_op_records_only_on_an_open_tape():
    """An op records exactly when a tape is open and an input requires a
    gradient; with no tape open, an op on a param yields a constant."""
    x = ad.param(np.ones(2))
    with ad.Tape() as t:
        pass
    y = ad.relu(ad.mul(x, x))
    assert not y.requires_grad
    assert len(t) == 0
    with ad.Tape() as t:
        y = ad.relu(x)
        c = ad.relu(ad.constant(np.ones(2)))
    assert y.requires_grad and not c.requires_grad
    assert len(t) == 1


# ---------------------------------------------------------------------------
# adam

def test_adam_first_step_magnitude_is_lr():
    # bias-corrected moments at t=1 make the update lr * g/(|g| + eps)
    p = ad.param(np.array([1.0]))
    p._grad = np.array([0.5])
    st = ad.AdamState([p], lr=1e-3)
    ad.adam_step(st)
    assert abs(abs(1.0 - p.values[0]) - 1e-3) < 1e-6
    assert np.all(p.grad == 0)         # grads zeroed afterwards
    assert st.step_count == 1


def test_adam_zero_grad_leaves_params_unchanged():
    p = ad.param(np.array([1.0, -2.0]))
    st = ad.AdamState([p], lr=1e-2)
    ad.adam_step(st)
    assert np.array_equal(p.values, [1.0, -2.0])


def test_adam_identical_params_identical_updates():
    a = ad.param(np.array([1.0]))
    b = ad.param(np.array([1.0]))
    a._grad = np.array([0.3])
    b._grad = np.array([0.3])
    st = ad.AdamState([a, b], lr=1e-2)
    ad.adam_step(st)
    assert np.array_equal(a.values, b.values)


def test_adam_missing_grad_names_parameter():
    p = ad.param(np.array([1.0]), name="enc.w")
    p._grad = None
    st = ad.AdamState([p], lr=1e-4)
    with pytest.raises(ValueError, match="enc.w"):
        ad.adam_step(st)


# ---------------------------------------------------------------------------
# grad_check

def test_grad_check_linear_map_is_exact():
    c = ad.constant(np.array([1.5, -2.0, 0.5]))
    res = ad.grad_check(lambda x: ad.sum_(ad.mul(x, c)),
                        [np.array([0.2, 0.4, -0.1])])
    assert res.max_rel_err <= 1e-10


def test_grad_check_flags_relu_kink():
    res = ad.grad_check(lambda x: ad.sum_(ad.relu(x)),
                        [np.array([1.0, 0.0, -1.0])])
    assert (0, 1) in res.skipped       # the coordinate sitting exactly at 0
    assert res.n_checked == 2


def test_grad_check_rejects_nonfinite_fn():
    with pytest.raises(ad.NonFiniteError):
        ad.grad_check(lambda x: ad.sum_(ad.log(x)), [np.array([5e-6])])


# ---------------------------------------------------------------------------
# the sorted scatter-add behind take's backward and segment_sum

def _scatter_cases():
    rng = np.random.default_rng(3)
    heavy = np.zeros(12_000, dtype=np.int64)
    heavy[:600] = np.arange(600)          # one target takes 11,401 rows
    signed = np.where(rng.random((3000, 100)) < 0.5, np.float32(-0.0),
                      np.float32(0.0)).astype(np.float32)
    return {
        "random": (900, rng.integers(0, 900, 12_600),
                   rng.standard_normal((12_600, 100)).astype(np.float32)),
        "heavy": (600, heavy,
                  rng.standard_normal((12_000, 100)).astype(np.float32)),
        "signed-zeros": (50, rng.integers(0, 50, 3000), signed),
        "empty": (10, np.zeros(0, dtype=np.int64),
                  np.zeros((0, 100), dtype=np.float32)),
        "width-1": (40, rng.integers(0, 40, 5000),
                    rng.standard_normal((5000, 1)).astype(np.float32)),
        "width-2": (40, rng.integers(0, 40, 5000),
                    rng.standard_normal((5000, 2)).astype(np.float32)),
        "1-d": (40, rng.integers(0, 40, 5000),
                rng.standard_normal(5000).astype(np.float32)),
        "3-d": (70, rng.integers(0, 70, 4000),
                rng.standard_normal((4000, 4, 8)).astype(np.float32)),
        "float64": (300, rng.integers(0, 300, 8000),
                    rng.standard_normal((8000, 64))),
        "2-d-index": (30, rng.integers(0, 30, (40, 50)),
                      rng.standard_normal((40, 50, 48)).astype(np.float32)),
        # -1 and 59 name one row, which must not land in one round twice
        "negative-index": (60, rng.integers(-60, 60, 6000),
                           rng.standard_normal((6000, 40)).astype(np.float32)),
    }


@pytest.mark.parametrize("min_width", [None, 2])
@pytest.mark.parametrize("case", sorted(_scatter_cases()))
def test_scatter_add_matches_add_at_bitwise(case, min_width, monkeypatch):
    """_scatter_add equals np.add.at byte for byte, into zeros and into
    values already there; min_width 2 sends narrow rows down the sorted
    path too, where its axis-0 reduce must still add in sequence."""
    if min_width is not None:
        monkeypatch.setattr(ad, "_SORTED_SCATTER_MIN", min_width)
    n, idx, vals = _scatter_cases()[case]
    shape = (n,) + vals.shape[idx.ndim:]
    for start in (np.zeros(shape, dtype=vals.dtype),
                  np.random.default_rng(1).standard_normal(shape)
                  .astype(vals.dtype)):
        want = start.copy()
        np.add.at(want, idx, vals)
        got = ad._scatter_add(start.copy(), idx, vals)
        assert got.tobytes() == want.tobytes()


def test_take_and_segment_sum_scatter_like_add_at():
    """take's gradient and segment_sum's forward are np.add.at's sums, bit
    for bit, on rows wide enough for the sorted path."""
    rng = np.random.default_rng(4)
    idx = rng.integers(0, 200, 3000)
    idx[:1500] = 7
    vals = rng.standard_normal((3000, 64)).astype(np.float32)
    want = np.zeros((200, 64), dtype=np.float32)
    np.add.at(want, idx, vals)
    assert ad.segment_sum(ad.constant(vals), idx, 200).values.tobytes() == \
        want.tobytes()
    a = ad.param(rng.standard_normal((200, 64)).astype(np.float32))
    with ad.Tape() as tape:
        loss = ad.sum_(ad.mul(ad.take(a, idx), ad.constant(vals)))
    tape.backward(loss)
    assert a.grad.tobytes() == want.tobytes()
