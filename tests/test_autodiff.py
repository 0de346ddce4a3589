import functools

import numpy as np
import pytest

from sfanas import autodiff as ad
from sfanas.autodiff import ShapeError, Tensor


def test_relu_forward():
    out = ad.relu(Tensor(np.array([-1.0, 2.0])))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_matmul_identity():
    out = ad.matmul(Tensor(np.eye(2)), Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_backward_square():
    x = Tensor(np.array([3.0]), requires_grad=True)
    loss = ad.tsum(ad.mul(x, x))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_sigmoid_at_zero():
    x = Tensor(np.array(0.0), requires_grad=True)
    ad.backward(ad.sigmoid(x))
    np.testing.assert_allclose(x.grad, 0.25)


def test_backward_unreached_leaf_has_zero_grad():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([1.0]), requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, x)))
    assert y.grad is None or not np.any(y.grad)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x))


def test_backward_accumulates_across_calls():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = ad.tsum(ad.mul(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    loss2 = ad.tsum(ad.mul(x, x))
    ad.backward(loss2)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_backward_diamond_reuse():
    # x feeds two branches; grads add up: d/dx (x*x + 3x) = 2x + 3
    x = Tensor(np.array([4.0]), requires_grad=True)
    loss = ad.tsum(ad.add(ad.mul(x, x), ad.scalar_mul(x, 3.0)))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [11.0])


def test_backward_deterministic_bits():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 3))
    grads = []
    for _ in range(2):
        x = Tensor(data.copy(), requires_grad=True)
        h = ad.relu(ad.matmul(x, Tensor(data.T.copy())))
        ad.backward(ad.tsum(ad.mul(h, h)))
        grads.append(x.grad.copy())
    assert grads[0].tobytes() == grads[1].tobytes()


def _tape_nodes(loss):
    """Every tensor reachable from ``loss`` through the tape."""
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def test_backward_frees_the_tape_and_leaves_keep_gradients():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    h = ad.relu(ad.matmul(x, w))
    loss = ad.add(ad.tsum(ad.mul(h, ad.sigmoid(h))),
                  ad.tsum(ad.gather_rows(h, np.array([2, 0, 0]))))
    inner = [t for t in _tape_nodes(loss) if t._parents]
    assert len(inner) == 8
    ad.backward(loss)
    for t in inner:
        assert t.grad is None and t._parents == ()
    assert x.grad.shape == (3, 2) and w.grad.shape == (2, 2)
    assert np.abs(w.grad).max() > 0


def test_second_backward_through_a_consumed_tape_raises():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    logits = ad.mul(x, x)
    loss = ad.tsum(logits)
    ad.backward(loss)
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(loss)
    with pytest.raises(RuntimeError, match="already consumed"):
        ad.backward(ad.tsum(ad.scalar_mul(logits, 2.0)))
    np.testing.assert_array_equal(x.grad, first)


def test_no_grad_records_no_tape():
    # a forward in which no leaf needs a gradient (every leaf frozen) records
    # no tape, gives the same bytes, and taping resumes afterwards
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    taped = ad.tsum(ad.sigmoid(ad.mul(x, x)))
    with ad.frozen([x]):
        out = ad.tsum(ad.sigmoid(ad.mul(x, x)))
    assert not out.requires_grad and out._parents == ()
    assert out.data.tobytes() == taped.data.tobytes()
    with pytest.raises(ZeroDivisionError):
        with ad.frozen([x]):
            1 / 0
    again = ad.mul(x, x)
    assert again.requires_grad and again._parents == (x, x)


def test_grad_check_square():
    err = ad.grad_check(lambda t: ad.tsum(ad.mul(t, t)),
                        Tensor(np.array([3.0, -1.0])))
    assert err < 1e-6


def test_grad_check_relu_away_from_kink():
    err = ad.grad_check(lambda t: ad.tsum(ad.relu(t)), Tensor(np.array([2.0])))
    assert err < 1e-6


def test_relu_subgradient_zero_at_kink():
    x = Tensor(np.array([0.0]), requires_grad=True)
    ad.backward(ad.tsum(ad.relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0])


def test_maximum_tie_goes_to_first_operand():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([1.0, 5.0]), requires_grad=True)
    ad.backward(ad.tsum(ad.maximum(a, b)))
    np.testing.assert_array_equal(a.grad, [1.0, 0.0])
    np.testing.assert_array_equal(b.grad, [0.0, 1.0])


def test_broadcasting_gradients():
    rng = np.random.default_rng(5)
    row = rng.standard_normal((1, 4))
    full = rng.standard_normal((3, 4))
    err = ad.grad_check(
        lambda t: ad.tsum(ad.mul(ad.add(t, Tensor(full)), Tensor(full))),
        Tensor(row))
    assert err < 1e-6


@pytest.mark.parametrize("shape", [(1, 4), (4,), ()], ids=["1x4", "4", "scalar"])
@pytest.mark.parametrize("broadcast_first", [True, False], ids=["left", "right"])
@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.maximum])
def test_broadcasting_gradients_per_op(op, broadcast_first, shape):
    rng = np.random.default_rng(5)
    small = rng.standard_normal(shape)
    full = rng.standard_normal((3, 4))
    if op is ad.div:  # keep both operands away from zero as denominators
        small, full = np.abs(small) + 0.5, np.abs(full) + 0.5
    weight = Tensor(rng.standard_normal((3, 4)))

    def f(t):
        args = (t, Tensor(full)) if broadcast_first else (Tensor(full), t)
        return ad.tsum(ad.mul(op(*args), weight))

    x = Tensor(small, requires_grad=True)
    ad.backward(f(x))
    assert x.grad.shape == shape
    assert ad.grad_check(f, Tensor(small)) < 1e-6


def test_primitives_at_random_points():
    rng = np.random.default_rng(11)
    cases = [
        ("add", lambda t, c: ad.add(t, c), None),
        ("mul", lambda t, c: ad.mul(t, c), None),
        ("div", lambda t, c: ad.div(c, t), lambda x: np.abs(x) + 0.5),
        ("sigmoid", lambda t, c: ad.sigmoid(t), None),
        ("tanh", lambda t, c: composed_tanh(t), None),
        ("exp", lambda t, c: ad.exp(t), None),
        ("log", lambda t, c: ad.log(t), lambda x: np.abs(x) + 0.5),
    ]
    for name, fn, prep in cases:
        for _ in range(5):
            x = rng.standard_normal((2, 3))
            if prep is not None:
                x = prep(x)
            c = Tensor(rng.standard_normal((2, 3)))
            w = Tensor(rng.standard_normal((2, 3)))
            err = ad.grad_check(lambda t: ad.tsum(ad.mul(fn(t, c), w)), Tensor(x))
            assert err < 1e-4, f"{name}: {err:.3e}"


# ---------------------------------------------------------------------------
# segment ops


def test_segment_reduce_examples():
    v = Tensor(np.array([[1.0], [2.0], [3.0]]))
    ids = np.array([0, 0, 1])
    np.testing.assert_array_equal(
        ad.segment_reduce(v, ids, 2, "sum").data, [[3.0], [3.0]])
    np.testing.assert_array_equal(
        ad.segment_reduce(v, ids, 2, "mean").data, [[1.5], [3.0]])
    np.testing.assert_array_equal(
        ad.segment_reduce(v, ids, 2, "max").data, [[2.0], [3.0]])


def test_segment_max_gradient_routes_to_argmax():
    v = Tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
    out = ad.segment_reduce(v, np.array([0, 0, 1]), 2, "max")
    ad.backward(ad.tsum(out[0:1]))
    np.testing.assert_array_equal(v.grad, [[0.0], [1.0], [0.0]])


def test_segment_max_tie_first_index():
    v = Tensor(np.array([[5.0], [5.0]]), requires_grad=True)
    out = ad.segment_reduce(v, np.array([0, 0]), 1, "max")
    ad.backward(ad.tsum(out))
    np.testing.assert_array_equal(v.grad, [[1.0], [0.0]])


def test_segment_reduce_empty_segments_zero():
    v = Tensor(np.array([[1.0], [2.0]]))
    ids = np.array([0, 2])
    for mode in ("sum", "mean", "max"):
        out = ad.segment_reduce(v, ids, 4, mode)
        np.testing.assert_array_equal(out.data[1], [0.0])
        np.testing.assert_array_equal(out.data[3], [0.0])


def test_segment_reduce_id_out_of_range():
    v = Tensor(np.ones((2, 1)))
    with pytest.raises(ValueError):
        ad.segment_reduce(v, np.array([0, 5]), 2, "sum")
    with pytest.raises(ValueError):
        ad.segment_reduce(v, np.array([-1, 0]), 2, "sum")


def _fold(rows, d):
    """The rows added one by one, in order, onto zeros."""
    return functools.reduce(np.add, rows, np.zeros(d))


def _segment_loop(vals, ids, s, mode, g):
    """Per-segment reference: output and input gradient under upstream ``g``.

    Sums add rows one by one in input order onto zeros; max reads the first
    max row per column and sends it the whole gradient. Gradients are
    accumulated onto zeros, as ``Tensor.accumulate`` does.
    """
    out = np.zeros((s, vals.shape[1]))
    grad = np.zeros_like(vals)
    cols = np.arange(vals.shape[1])
    for k in range(s):
        rows = np.flatnonzero(ids == k)
        if rows.size == 0:
            continue
        if mode == "max":
            first = rows[vals[rows].argmax(axis=0)]
            out[k] = vals[first, cols]
            grad[first, cols] = g[k]
            continue
        out[k] = _fold(vals[rows], vals.shape[1])
        if mode == "mean":
            out[k] = out[k] / rows.size
        grad[rows] = g[k] / rows.size if mode == "mean" else g[k]
    return out, 0.0 + grad


def test_segment_sum_matches_one_hot_matmul():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, d, s = rng.integers(1, 12), rng.integers(1, 5), rng.integers(1, 6)
        vals = rng.standard_normal((m, d))
        ids = rng.integers(0, s, size=m)
        onehot = np.zeros((s, m))
        onehot[ids, np.arange(m)] = 1.0
        got = ad.segment_reduce(Tensor(vals), ids, int(s), "sum").data
        np.testing.assert_allclose(got, onehot @ vals, atol=1e-12)
    # integers times 1, -1 or 0.5 per entry: ties, +0 beside -0, and empty segments
    def sample(shape):
        return rng.integers(-3, 4, size=shape) * rng.choice([1.0, -1.0, 0.5], size=shape)

    for case in range(60):
        m, d, s = int(rng.integers(0, 60)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
        vals = sample((m, d))
        ids = rng.integers(0, s, size=m)
        g = sample((s, d))
        for mode in ("sum", "mean", "max"):
            x = Tensor(vals, requires_grad=True)
            out = ad.segment_reduce(x, ids, s, mode)
            ad.backward(ad.tsum(ad.mul(out, Tensor(g))))
            want_out, want_grad = _segment_loop(vals, ids, s, mode, g)
            assert out.data.tobytes() == want_out.tobytes(), (case, mode)
            assert x.grad.tobytes() == want_grad.tobytes(), (case, mode)
        # gather_rows' backward is the segment sum of the row gradients
        src = Tensor(np.zeros((s, d)), requires_grad=True)
        up = sample((m, d))
        ad.backward(ad.tsum(ad.mul(ad.gather_rows(src, ids), Tensor(up))))
        want = np.array([_fold(up[ids == k], d) for k in range(s)])
        assert src.grad.tobytes() == want.tobytes(), case


def test_segment_sums_fold_rows_in_order():
    # non-integer values, many rows per segment: the summation order shows
    rng = np.random.default_rng(11)
    m, d, s = 300, 3, 4
    vals = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-8, 8, size=(m, d))
    ids = rng.integers(0, s, size=m)
    g = rng.standard_normal((s, d))
    for mode in ("sum", "mean"):
        x = Tensor(vals, requires_grad=True)
        out = ad.segment_reduce(x, ids, s, mode)
        ad.backward(ad.tsum(ad.mul(out, Tensor(g))))
        want_out, want_grad = _segment_loop(vals, ids, s, mode, g)
        assert out.data.tobytes() == want_out.tobytes(), mode
        assert x.grad.tobytes() == want_grad.tobytes(), mode
    src = Tensor(np.zeros((s, d)), requires_grad=True)
    ad.backward(ad.tsum(ad.mul(ad.gather_rows(src, ids), Tensor(vals))))
    want = np.array([_fold(vals[ids == k], d) for k in range(s)])
    assert src.grad.tobytes() == want.tobytes()


def test_segment_max_nan_row_is_the_max():
    vals = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, np.nan], [np.nan, 5.0]])
    x = Tensor(vals, requires_grad=True)
    out = ad.segment_reduce(x, np.array([0, 0, 0, 1]), 2, "max")  # no RuntimeWarning
    np.testing.assert_array_equal(out.data, [[np.nan, np.nan], [np.nan, 5.0]])
    ad.backward(ad.tsum(out))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.isnan(ad.segment_softmax(Tensor(vals), np.array([0, 0, 0, 1]), 2).data[:3]).all()


def test_segment_softmax_sums_to_one_per_segment():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((7, 2))
    ids = np.array([0, 0, 0, 1, 1, 2, 2])
    w = ad.segment_softmax(Tensor(logits), ids, 3)
    sums = ad.segment_reduce(w, ids, 3, "sum").data
    np.testing.assert_allclose(sums, np.ones((3, 2)), atol=1e-12)


def test_frozen_holds_leaves_out_and_restores_after_an_exception():
    a = Tensor(np.array([2.0]), requires_grad=True)
    b = Tensor(np.array([3.0]), requires_grad=True)
    with pytest.raises(KeyError):
        with ad.frozen([a]):
            assert not a.requires_grad and b.requires_grad
            ad.backward(ad.tsum(ad.mul(a, b)))
            raise KeyError("boom")
    assert a.requires_grad and b.requires_grad
    assert a.grad is None and b.grad.tolist() == [2.0]


def test_gather_rows_accumulates_duplicates():
    x = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
    out = ad.gather_rows(x, np.array([0, 0, 1]))
    ad.backward(ad.tsum(out))
    np.testing.assert_array_equal(x.grad, [[2.0], [1.0]])


# ---------------------------------------------------------------------------
# fused composites against the composed versions they replace


def composed_tanh(a):
    out = np.tanh(a.data)
    return ad._make(out, (a,), (lambda g: g * (1.0 - out * out),))


def composed_softmax(a, temperature):
    shifted = ad.scalar_mul(ad.sub(a, Tensor(a.data.max())), 1.0 / temperature)
    e = ad.exp(shifted)
    return ad.div(e, ad.tsum(e))


def composed_weighted_sum(w, ys):
    out = None
    for k, y in enumerate(ys):
        term = ad.mul(w[k:k + 1], y)
        out = term if out is None else ad.add(out, term)
    return out


def composed_layer_norm(H):
    mu = ad.tmean(H, axis=1, keepdims=True)
    xc = ad.sub(H, mu)
    var = ad.tmean(ad.mul(xc, xc), axis=1, keepdims=True)
    return ad.div(xc, ad.sqrt(ad.add(var, Tensor(1e-5))))


def composed_masked_bce(z, y, mask):
    neg_abs = ad.scalar_mul(ad.add(ad.relu(z), ad.relu(ad.scalar_mul(z, -1.0))), -1.0)
    elem = ad.add(ad.sub(ad.relu(z), ad.mul(z, Tensor(y))),
                  ad.log(ad.add(Tensor(1.0), ad.exp(neg_abs))))
    masked = ad.mul(elem, Tensor(mask.astype(np.float64)))
    return ad.scalar_mul(ad.tsum(masked), 1.0 / int(mask.sum()))


def composed_lstm(inputs, W_ih, W_hh, b):
    n, d = inputs[0].data.shape
    h = Tensor(np.zeros((n, d)))
    c = Tensor(np.zeros((n, d)))
    for x in inputs:
        z = ad.add(ad.add(ad.matmul(x, W_ih), ad.matmul(h, W_hh)), b)
        i = ad.sigmoid(z[:, 0 * d:1 * d])
        f = ad.sigmoid(z[:, 1 * d:2 * d])
        g = composed_tanh(z[:, 2 * d:3 * d])
        o = ad.sigmoid(z[:, 3 * d:4 * d])
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, composed_tanh(c))
    return h


def composed_segment_softmax(logits, ids, num_segments):
    index = ad._segment_index(ids, num_segments)
    flat = index.flat(logits.data.shape[1])
    shift = ad._segment_max(logits.data, flat, num_segments)[flat].reshape(logits.data.shape)
    z = ad.exp(ad.sub(logits, Tensor(shift)))
    denom = ad.segment_reduce(z, index, num_segments, "sum")
    return ad.div(z, ad.gather_rows(denom, index))


def _softmax_case(rng):
    a = Tensor(rng.normal(size=int(rng.integers(1, 9))) * 4.0, requires_grad=True)
    temperature = float(rng.uniform(0.05, 3.0))
    return [a], lambda op: op(a, temperature)


def _weighted_sum_case(rng):
    k, shape = int(rng.integers(1, 6)), tuple(rng.integers(1, 6, size=2))
    w = Tensor(rng.uniform(0.0, 1.0, size=k), requires_grad=True)
    ys = [Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(k)]
    # one tensor listed twice, as when two fusion candidates return their only input
    ys = ys[:1] + ys[:k - 1] if k > 2 else ys
    return [w, *ys], lambda op: op(w, ys)


def _layer_norm_case(rng):
    shape = (int(rng.integers(1, 7)), int(rng.integers(1, 9)))
    H = Tensor(rng.normal(size=shape) * rng.uniform(0.1, 5.0) + rng.normal(), requires_grad=True)
    return [H], lambda op: op(H)


def _masked_bce_case(rng):
    shape = (int(rng.integers(1, 7)), int(rng.integers(1, 4)))
    z = Tensor(rng.normal(size=shape) * 3.0, requires_grad=True)
    y = rng.integers(0, 2, size=shape).astype(np.float64)
    mask = rng.random(shape) < 0.7
    mask.flat[int(rng.integers(mask.size))] = True
    return [z], lambda op: op(z, y, mask)


def _segment_softmax_case(rng):
    """Widths 1 and 32; the last segment is always empty, and a row of
    NaNs comes in about a third of the cases."""
    rows, segments = int(rng.integers(1, 12)), int(rng.integers(2, 6))
    width = (1, 32)[int(rng.integers(2))]
    ids = rng.integers(0, segments - 1, size=rows)
    logits = rng.normal(size=(rows, width)) * 3.0
    if rng.random() < 0.35:
        logits[int(rng.integers(rows))] = np.nan
    x = Tensor(logits, requires_grad=True)
    return [x], lambda op: op(x, ids, segments)


def _lstm_case(rng):
    n, d, steps = (int(v) for v in rng.integers(1, 6, size=3))
    xs = [Tensor(rng.normal(size=(n, d)), requires_grad=True) for _ in range(steps)]
    weights = [Tensor(rng.normal(size=shape) * 0.7, requires_grad=True)
               for shape in ((d, 4 * d), (d, 4 * d), (1, 4 * d))]
    return [*xs, *weights], lambda op: op(xs, *weights)


@pytest.mark.parametrize("fused,composed,case", [
    (ad.softmax, composed_softmax, _softmax_case),
    (ad.weighted_sum, composed_weighted_sum, _weighted_sum_case),
    (ad.layer_norm, composed_layer_norm, _layer_norm_case),
    (ad.masked_bce, composed_masked_bce, _masked_bce_case),
    (ad.lstm, composed_lstm, _lstm_case),
    (ad.segment_softmax, composed_segment_softmax, _segment_softmax_case),
], ids=["softmax", "weighted_sum", "layer_norm", "masked_bce", "lstm", "segment_softmax"])
def test_fused_matches_composed(fused, composed, case):
    """The fused op records one tape node, over the leaves, and its output
    equals the composed version's bit for bit; the gradients agree within
    1e-12 in grad_check's relative error, |a - b| / max(1, |b|), and are
    NaN at the same entries (a segment softmax over a NaN row)."""
    for trial in range(30):
        rng = np.random.default_rng([trial, len(fused.__name__)])
        leaves, call = case(rng)
        outs, grads = [], []
        for op in (fused, composed):
            out = call(op)
            if op is fused:
                assert all(p in leaves for p in out._parents)
                w = Tensor(rng.normal(size=out.data.shape))
            for t in leaves:
                t.zero_grad()
            ad.backward(ad.tsum(ad.mul(out, w)))
            outs.append(out.data.tobytes())
            grads.append([t.grad.copy() for t in leaves])
        assert outs[0] == outs[1], trial
        for mine, ref in zip(*grads):
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(mine), nan), trial
            assert np.all(np.abs(mine - ref)[~nan] <= 1e-12 * np.maximum(1.0, np.abs(ref[~nan]))), \
                trial


def test_fused_shape_checks():
    ones = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="softmax"):
        ad.softmax(ones, 1.0)
    for w, ys in ((np.ones(3), [ones, ones]), (np.ones(2), [ones, Tensor(np.ones((3, 2)))]),
                  (np.ones(0), [])):
        with pytest.raises(ShapeError, match="weighted_sum"):
            ad.weighted_sum(Tensor(w), ys)
    W, b = Tensor(np.ones((3, 12))), Tensor(np.ones((1, 12)))
    with pytest.raises(ShapeError, match="lstm: input shapes"):
        ad.lstm([ones, Tensor(np.ones((3, 3)))], W, W, b)
    with pytest.raises(ShapeError, match="lstm: weights"):
        ad.lstm([ones], W, Tensor(np.ones((3, 8))), b)


def test_sigmoid_keeps_the_masked_form_bits():
    """ad.sigmoid, which the fused LSTM shares, gives the bits of the
    two-branch form it replaced, tails and signed zeros included."""
    x = np.concatenate([np.random.default_rng(3).normal(size=2000) * 20.0,
                        [0.0, -0.0, 1e-320, -1e-320, 36.0, -36.0, 709.0, -709.0, 746.0, -746.0,
                         np.inf, -np.inf]])
    e = np.exp(-np.abs(x))
    with np.errstate(over="ignore"):
        want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert ad.sigmoid(Tensor(x)).data.tobytes() == want.tobytes()
