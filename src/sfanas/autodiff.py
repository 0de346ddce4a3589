"""Minimal dense-tensor reverse-mode automatic differentiation.

Values are float64 numpy arrays wrapped in :class:`Tensor`. Every operation
builds the backward tape on the fly (define-by-run); calling
:func:`backward` on a scalar loss populates ``grad`` on every reachable
leaf. The op set is deliberately small: just enough for message-passing
layers, the relaxed architecture mixture, and the training losses.

A tape lives only as long as a gradient needs it. :func:`backward` frees
each node once its VJPs have run, so a loss can be backpropagated once;
a second pass through the same tape raises ``RuntimeError``. An op
records a tape node only if one of its inputs needs a gradient, so
:func:`frozen` is the one way to keep tensors off the tape: it holds
chosen leaves out, and with every leaf frozen a forward that is only
scored records no tape at all.

Segment reductions sort nothing. Row ``i``, column ``c`` goes to slot
``ids[i] * width + c`` of one flat output: sums are one ``bincount``
over that index, which adds each segment's rows in row order onto
zeros, and maxima are one ``maximum.at``.

The tape contract: an op computes its output and hands :func:`_make` its
parents plus one vector-Jacobian product (VJP) per parent, each mapping
the output's gradient to that parent's gradient at the output's
broadcast shape. :func:`backward` alone skips parents that need no
gradient, sums a broadcast gradient back to the parent's shape, and
accumulates the parents' gradients in the order the op listed them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class Tensor:
    """A dense float64 array plus its accumulated gradient and tape link."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _vjps: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjps = _vjps

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # g + 0.0 rather than a copy: it stores -0.0 as 0.0, as adding
            # onto zeros does, and turns a read-only view into an own array
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return tslice(self, key)


@contextmanager
def frozen(tensors):
    """Within the block, ``tensors`` need no gradient: ops record no tape
    node for them, and :func:`backward` neither reaches them nor runs
    their VJPs. The values are the same as unfrozen, and so are the other
    tensors' gradients. Each ``requires_grad`` is restored on the way out."""
    tensors = list(tensors)
    previous = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, previous):
            t.requires_grad = flag


def _make(data: np.ndarray, parents: tuple, vjps: tuple) -> Tensor:
    """The op's output; it keeps the tape link only if a parent needs a
    gradient."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, vjps)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _scatter(shape: tuple[int, ...], key, values: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with ``values`` written at ``key``."""
    out = np.zeros(shape)
    out[key] = values
    return out


def _check_broadcast(name: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.data.shape} and {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    return _make(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    return _make(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    return _make(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    out_data = a.data / b.data
    return _make(out_data, (a, b),
                 (lambda g: g / b.data, lambda g: -g * out_data / b.data))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a,), (lambda g: g * c,))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first operand."""
    _check_broadcast("maximum", a, b)
    take_a = a.data >= b.data
    return _make(np.where(take_a, a.data, b.data), (a, b),
                 (lambda g: g * take_a, lambda g: g * ~take_a))


# ---------------------------------------------------------------------------
# matrix product


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _make(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # subgradient at 0 fixed to 0
    return _make(a.data * mask, (a,), (lambda g: g * mask,))


def leaky_relu(a: Tensor) -> Tensor:
    """Slope 0.2 below zero, as GAT uses."""
    scale = np.where(a.data > 0.0, 1.0, 0.2)
    return _make(a.data * scale, (a,), (lambda g: g * scale,))


def sigmoid(a: Tensor) -> Tensor:
    # stable in both tails
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _make(out_data, (a,), (lambda g: g * out_data * (1.0 - out_data),))


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    return _make(out_data, (a,), (lambda g: g * (1.0 - out_data * out_data),))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _make(out_data, (a,), (lambda g: g * out_data,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), (lambda g: g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _make(out_data, (a,), (lambda g: g * 0.5 / out_data,))


# ---------------------------------------------------------------------------
# shape ops


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    shapes = [t.data.shape for t in tensors]
    base = list(shapes[0])
    for s in shapes[1:]:
        trial = list(s)
        if len(trial) != len(base):
            raise ShapeError(f"concat: rank mismatch among shapes {shapes}")
        trial[axis] = base[axis]
        if trial != base:
            raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [s[axis] for s in shapes])
    keys = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        key = [slice(None)] * out_data.ndim
        key[axis] = slice(lo, hi)
        keys.append(tuple(key))
    return _make(out_data, tuple(tensors), tuple([lambda g, k=k: g[k] for k in keys]))


def tslice(a: Tensor, key) -> Tensor:
    """Basic (non-overlapping) indexing: ints and slices."""
    return _make(a.data[key], (a,), (lambda g: _scatter(a.data.shape, key, g),))


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup by integer index vector; rows may repeat."""
    idx = np.asarray(idx, dtype=np.int64)
    return _make(a.data[idx], (a,), (
        lambda g: _segment_sum(g, idx, a.data.shape[0]),))


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    expand = axis is not None and not keepdims
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), (
        lambda g: np.broadcast_to(np.expand_dims(g, axis) if expand else g, a.data.shape),))


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return scalar_mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# segment reduction (the message-passing/readout workhorse)


def _flat_index(ids: np.ndarray, width: int) -> np.ndarray:
    """Row ``i``, column ``c`` of a ``width``-column array goes to slot
    ``ids[i] * width + c`` of the flattened per-segment output."""
    return (ids[:, None] * width + np.arange(width)).ravel()


def _segment_sum(values: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment sums of the rows of ``values``: each segment's rows are
    added one by one, in row order, onto zeros, so empty segments give zero."""
    width = int(np.prod(values.shape[1:], dtype=np.int64))
    sums = np.bincount(_flat_index(ids, width), weights=values.ravel(),
                       minlength=num_segments * width)
    return sums.reshape((num_segments,) + values.shape[1:])


def _segment_max(values: np.ndarray, flat: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment column maxima of 2-d ``values`` at the flat index ``flat``;
    empty segments give -inf and a NaN row makes its column's max NaN."""
    out = np.full(num_segments * values.shape[1], -np.inf)
    with np.errstate(invalid="ignore"):  # a NaN is a max, not an error
        np.maximum.at(out, flat, values.ravel())
    return out


def segment_reduce(values: Tensor, ids: np.ndarray, num_segments: int,
                   mode: str = "sum") -> Tensor:
    """Reduce rows of ``values`` into ``num_segments`` buckets given by ``ids``.

    Empty segments produce zero rows in every mode, and zero-row input
    gives ``num_segments`` zero rows. A sum adds each segment's rows one
    by one, in row order, onto zeros (one ``bincount``); a mean divides
    that sum by the row count. For ``max`` (one ``maximum.at``) the output
    is read from, and the gradient flows only to, the first max row per
    column; a NaN row counts as a max.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if values.data.ndim != 2:
        raise ShapeError(f"segment_reduce: expected 2-d values, got shape {values.data.shape}")
    if ids.shape != (values.data.shape[0],):
        raise ShapeError(
            f"segment_reduce: ids shape {ids.shape} does not match values rows {values.data.shape[0]}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError(f"segment_reduce: segment id out of range [0, {num_segments})")
    if mode not in ("sum", "mean", "max"):
        raise ValueError(f"segment_reduce: unknown mode {mode!r}")

    if mode != "max":
        n = np.maximum(np.bincount(ids, minlength=num_segments), 1.0)[:, None] \
            if mode == "mean" else 1.0
        return _make(_segment_sum(values.data, ids, num_segments) / n, (values,),
                     (lambda g: (g / n)[ids],))

    rows, width = values.data.shape
    flat, v = _flat_index(ids, width), values.data.ravel()
    is_max = (v == _segment_max(values.data, flat, num_segments)[flat]) | np.isnan(v)
    # the first max row per column, as a position in the flattened values
    first = np.full(num_segments * width, v.size)
    np.minimum.at(first, flat[is_max], np.flatnonzero(is_max))
    hit = np.flatnonzero(first < v.size)
    out = np.zeros(num_segments * width)
    out[hit] = v[first[hit]]
    return _make(out.reshape(num_segments, width), (values,), (
        lambda g: _scatter(values.data.size, first[hit], g.ravel()[hit]).reshape(rows, width),))


def segment_softmax(logits: Tensor, ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over each segment, per column. Max-shifted for stability."""
    ids = np.asarray(ids, dtype=np.int64)
    flat = _flat_index(ids, logits.data.shape[1])
    shift = _segment_max(logits.data, flat, num_segments)[flat].reshape(logits.data.shape)
    z = exp(sub(logits, Tensor(shift)))
    denom = segment_reduce(z, ids, num_segments, "sum")
    return div(z, gather_rows(denom, ids))


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar loss, and
    free the tape on the way.

    Once a node's VJPs have run, its gradient, parents and VJPs are
    dropped, so the tape is consumed: a loss can be backpropagated once,
    and a pass that reaches a consumed node raises ``RuntimeError``.
    Leaves keep their gradients, and a later loss over the same leaves
    adds to them unless they are zeroed first.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._vjps is None:
            raise RuntimeError("backward: the tape was already consumed by an earlier "
                               "backward; a loss can be backpropagated once")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.accumulate(np.ones_like(loss.data))
    while topo:
        node = topo.pop()  # reverse topological order; the list lets go of each node
        if not node._parents:
            continue  # a leaf keeps its gradient
        for p, vjp in zip(node._parents, node._vjps):
            if p.requires_grad:
                g = vjp(node.grad)
                p.accumulate(g if g.shape == p.data.shape else _unbroadcast(g, p.data.shape))
        node.grad, node._parents, node._vjps = None, (), None


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between the analytic gradient of ``f`` at ``x``
    and its central difference (:func:`difference_error`)."""
    x = Tensor(x.data.copy(), requires_grad=True)
    backward(f(x))
    return difference_error(x.grad, lambda: float(f(Tensor(x.data)).data), x.data)


def difference_error(analytic: np.ndarray | None, f: Callable[[], float],
                     x: np.ndarray) -> float:
    """Max relative error between ``analytic`` (None reads as zeros) and
    the central-difference gradient of ``f()`` in ``x`` (step 1e-4).

    Each entry of ``x`` is moved in place and restored, so ``f`` reads
    ``x`` where it already lives. Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    eps = 1e-4
    flat = x.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f()
        flat[i] = orig - eps
        f_minus = f()
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * eps)

    numeric = numeric.reshape(x.shape)
    if analytic is None:
        analytic = np.zeros_like(numeric)
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
