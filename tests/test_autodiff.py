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
        ("tanh", lambda t, c: ad.tanh(t), None),
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


def _segment_loop(vals, ids, s, mode, g):
    """Per-segment reference: output and input gradient under upstream ``g``.

    Sums add rows one by one in input order; max reads the first max row per
    column and sends it the whole gradient. Gradients are accumulated onto
    zeros, as ``Tensor.accumulate`` does.
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
        out[k] = functools.reduce(np.add, vals[rows])
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
        want = np.zeros((s, d))
        for k in range(s):
            rows = np.flatnonzero(ids == k)
            if rows.size:
                want[k] = functools.reduce(np.add, up[rows])
        assert src.grad.tobytes() == (0.0 + want).tobytes(), case


def test_segment_softmax_sums_to_one_per_segment():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((7, 2))
    ids = np.array([0, 0, 0, 1, 1, 2, 2])
    w = ad.segment_softmax(Tensor(logits), ids, 3)
    sums = ad.segment_reduce(w, ids, 3, "sum").data
    np.testing.assert_allclose(sums, np.ones((3, 2)), atol=1e-12)


def test_detach_blocks_gradient():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(x, x).detach()
    loss = ad.tsum(ad.mul(y, Tensor(np.array([3.0]))))
    ad.backward(loss)
    assert x.grad is None or not np.any(x.grad)


def test_gather_rows_accumulates_duplicates():
    x = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
    out = ad.gather_rows(x, np.array([0, 0, 1]))
    ad.backward(ad.tsum(out))
    np.testing.assert_array_equal(x.grad, [[2.0], [1.0]])
