"""Minimal dense-tensor reverse-mode automatic differentiation.

Values are float64 numpy arrays wrapped in :class:`Tensor`. Every operation
builds the backward tape on the fly (define-by-run); calling
:func:`backward` on a scalar loss populates ``grad`` on every reachable
leaf. The op set is deliberately small: just enough for message-passing
layers, the relaxed architecture mixture, and the training losses.

The tape contract: an op computes its output and hands :func:`_make` its
parents plus one vector-Jacobian product (VJP) per parent, each mapping
the output's gradient to that parent's gradient at the output's
broadcast shape. :func:`backward` alone skips parents that need no
gradient, sums a broadcast gradient back to the parent's shape, and
accumulates the parents' gradients in the order the op listed them.
"""

from __future__ import annotations

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
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return tslice(self, key)


def _make(data: np.ndarray, parents: tuple, vjps: tuple) -> Tensor:
    """The op's output; it keeps the tape link only if a parent needs a gradient."""
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


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    scale = np.where(a.data > 0.0, 1.0, slope)
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
        lambda g: _segment_reduceat(np.add, g, _segment_layout(idx, a.data.shape[0])),))


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


def _segment_layout(ids: np.ndarray, num_segments: int):
    """Stable row order by id, the first sorted position of each non-empty
    segment, the non-empty segment ids, and the per-segment row counts."""
    counts = np.bincount(ids, minlength=num_segments)
    nonempty = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[nonempty]
    return np.argsort(ids, kind="stable"), starts, nonempty, counts


def _segment_reduceat(ufunc, values: np.ndarray, layout) -> np.ndarray:
    """``ufunc`` over the rows of each segment; empty segments give zero."""
    order, starts, nonempty, counts = layout
    return _scatter(counts.shape + values.shape[1:], nonempty,
                    ufunc.reduceat(values[order], starts, axis=0))


def segment_reduce(values: Tensor, ids: np.ndarray, num_segments: int,
                   mode: str = "sum") -> Tensor:
    """Reduce rows of ``values`` into ``num_segments`` buckets given by ``ids``.

    Empty segments produce zero rows in every mode, and zero-row input
    gives ``num_segments`` zero rows. For ``max`` the output is read from,
    and the gradient flows only to, the first max row per column.
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

    layout = order, starts, nonempty, counts = _segment_layout(ids, num_segments)

    if mode != "max":
        n = np.maximum(counts, 1.0)[:, None] if mode == "mean" else 1.0
        return _make(_segment_reduceat(np.add, values.data, layout) / n, (values,),
                     (lambda g: (g / n)[ids],))

    ordered = values.data[order]
    seg_max = np.maximum.reduceat(ordered, starts, axis=0)
    is_max = ordered == np.repeat(seg_max, counts[nonempty], axis=0)
    is_max |= np.isnan(ordered)  # a NaN is its segment's max, as in argmax
    positions = np.where(is_max, np.arange(ids.size)[:, None], ids.size)
    first = order[np.minimum.reduceat(positions, starts, axis=0)]
    cols = np.arange(values.data.shape[1])
    return _make(_scatter((num_segments, cols.size), nonempty, values.data[first, cols]),
                 (values,), (lambda g: _scatter(values.data.shape, (first, cols), g[nonempty]),))


def segment_softmax(logits: Tensor, ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over each segment, per column. Max-shifted for stability."""
    ids = np.asarray(ids, dtype=np.int64)
    shift = _segment_reduceat(np.maximum, logits.data, _segment_layout(ids, num_segments))
    z = exp(sub(logits, Tensor(shift[ids])))
    denom = segment_reduce(z, ids, num_segments, "sum")
    return div(z, gather_rows(denom, ids))


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar loss.

    Repeated calls without zeroing accumulate, matching the usual
    gradient-accumulation convention.
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
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss.accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        for p, vjp in zip(node._parents, node._vjps):
            if p.requires_grad:
                g = vjp(node.grad)
                p.accumulate(g if g.shape == p.data.shape else _unbroadcast(g, p.data.shape))


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    x = Tensor(x.data.copy(), requires_grad=True)
    out = f(x)
    backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(Tensor(x.data)).data)
        flat[i] = orig - eps
        f_minus = float(f(Tensor(x.data)).data)
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * eps)

    numeric = numeric.reshape(x.data.shape)
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
