"""Minimal dense-tensor reverse-mode automatic differentiation.

Values are float64 numpy arrays wrapped in :class:`Tensor`. Every operation
builds the backward tape on the fly (define-by-run); calling
:func:`backward` on a scalar loss populates ``grad`` on every reachable
leaf. The op set is deliberately small: just enough for message-passing
layers, the relaxed architecture mixture, and the training losses.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """A dense float64 array plus its accumulated gradient and tape link."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.data = _as_f64(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

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

    # operator sugar; the named functions below do the work
    def __add__(self, other): return add(self, _wrap(other))
    def __radd__(self, other): return add(_wrap(other), self)
    def __sub__(self, other): return sub(self, _wrap(other))
    def __rsub__(self, other): return sub(_wrap(other), self)
    def __mul__(self, other): return mul(self, _wrap(other))
    def __rmul__(self, other): return mul(_wrap(other), self)
    def __truediv__(self, other): return div(self, _wrap(other))
    def __matmul__(self, other): return matmul(self, other)
    def __neg__(self): return scalar_mul(self, -1.0)
    def __getitem__(self, key): return tslice(self, key)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable | None) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req,
                  _parents=tuple(parents) if req else (),
                  _backward=backward if req else None)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(name: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.data.shape} and {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out_data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    out_data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    out_data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    out_data = a.data / b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * out_data / b.data, b.data.shape))

    return _make(out_data, (a, b), bwd)


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = a.data * c

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * c)

    return _make(out_data, (a,), bwd)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first operand."""
    _check_broadcast("maximum", a, b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * ~take_a, b.data.shape))

    return _make(out_data, (a, b), bwd)


# ---------------------------------------------------------------------------
# matrix product


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _make(out_data, (a, b), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # subgradient at 0 fixed to 0
    out_data = a.data * mask

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * mask)

    return _make(out_data, (a,), bwd)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = a.data > 0.0
    scale = np.where(mask, 1.0, slope)
    out_data = a.data * scale

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * scale)

    return _make(out_data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    # stable in both tails
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * out_data)

    return _make(out_data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g / a.data)

    return _make(out_data, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), bwd)


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
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate(g[tuple(idx)])

    return _make(out_data, tuple(tensors), bwd)


def tslice(a: Tensor, key) -> Tensor:
    """Basic (non-overlapping) indexing: ints and slices."""
    out_data = a.data[key]

    def bwd(g):
        if a.requires_grad:
            gp = np.zeros_like(a.data)
            gp[key] += g
            a.accumulate(gp)

    return _make(out_data, (a,), bwd)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup by integer index vector; rows may repeat."""
    idx = np.asarray(idx, dtype=np.int64)
    out_data = a.data[idx]

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_segment_reduceat(np.add, g, _segment_layout(idx, a.data.shape[0])))

    return _make(out_data, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if a.requires_grad:
            if axis is None:
                a.accumulate(np.broadcast_to(g, a.data.shape).copy())
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                a.accumulate(np.broadcast_to(ge, a.data.shape).copy())

    return _make(out_data, (a,), bwd)


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
    out = np.zeros(counts.shape + values.shape[1:])
    out[nonempty] = ufunc.reduceat(values[order], starts, axis=0)
    return out


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

    if mode in ("sum", "mean"):
        out_data = _segment_reduceat(np.add, values.data, layout)
        if mode == "mean":
            out_data = out_data / np.maximum(counts, 1.0)[:, None]

        def bwd(g):
            if values.requires_grad:
                if mode == "mean":
                    g = g / np.maximum(counts, 1.0)[:, None]
                values.accumulate(g[ids])

        return _make(out_data, (values,), bwd)

    ordered = values.data[order]
    seg_max = np.maximum.reduceat(ordered, starts, axis=0)
    is_max = ordered == np.repeat(seg_max, counts[nonempty], axis=0)
    is_max |= np.isnan(ordered)  # a NaN is its segment's max, as in argmax
    positions = np.where(is_max, np.arange(ids.size)[:, None], ids.size)
    first = order[np.minimum.reduceat(positions, starts, axis=0)]
    cols = np.arange(values.data.shape[1])
    out_data = np.zeros((num_segments, values.data.shape[1]))
    out_data[nonempty] = values.data[first, cols]

    def bwd(g):
        if values.requires_grad:
            gp = np.zeros_like(values.data)
            gp[first, cols] = g[nonempty]
            values.accumulate(gp)

    return _make(out_data, (values,), bwd)


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
        if node._backward is not None:
            node._backward(node.grad)


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
