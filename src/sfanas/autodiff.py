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
zeros, and maxima are one ``maximum.at``. The ids come as a
:class:`SegmentIndex`, which checks them once and builds each flat index
once. A graph batch hands out one per index array it owns; a supernet
forward holds it while it runs, and the tape nodes that read it keep it,
with its memo, until the tape is consumed; a plain array passed to a
segment kernel becomes a throwaway one.

The tape contract: an op computes its output and hands :func:`_make` its
parents plus one vector-Jacobian product (VJP) per parent, each mapping
the output's gradient to that parent's gradient at the output's
broadcast shape. :func:`backward` alone skips parents that need no
gradient, sums a broadcast gradient back to the parent's shape, and
accumulates the parents' gradients in the order the op listed them.
A parent's first gradient is the VJP's own array when that array owns
its memory (no view, writeable, float64 at the parent's shape) and is
not the output's gradient; any other array is copied. So a VJP never
hands one array to two parents (the identity VJPs, such as ``add``'s,
return the output's gradient, which is copied), never returns a forward
value or a tensor's ``data``, and never writes an array after returning
it. A leaf's first gradient stores -0.0 as 0.0 either way, so leaf
gradients keep the bits they had when every first gradient was copied.

Seven fused composites are one tape node each, with a closed-form VJP:
:func:`softmax` (the architecture weights), :func:`weighted_sum` (the
relaxed mixture), :func:`layer_norm`, :func:`masked_bce`, :func:`lstm`
(the whole scan; its VJP runs backpropagation through time),
:func:`segment_softmax` (attention over each segment) and
:func:`softmax_aggregate` (GEN's relu, softmax and weighted sum over each
segment). :func:`pick_blocks` takes one column block per row, as MF
picks each node's degree bucket out of one product against all its
weights. Each forward evaluates the numpy expressions of the composed
version it replaced, in the same order, so outputs keep their bits;
gradients may differ in the last bits. The LSTM's first step leaves out
the zero state's ``h @ W_hh`` and ``f * c``, and a fused VJP computes
only the gradients of parents that need one, so frozen weights cost the
LSTM no weight product; neither rule moves a bit. A fused VJP may keep
forward buffers in its closure (the LSTM keeps every step's gates, cell
state and hidden state); they live until :func:`backward` frees the
node, and a tape size that counts node outputs only, as the benchmark's
``autodiff.tape_bytes`` does, leaves them out.
"""

from __future__ import annotations

import math
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

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` to the gradient. The first ``g`` becomes the gradient
        itself when ``owned`` says nothing else holds it."""
        if self.grad is None:
            # g + 0.0 rather than a copy: it stores -0.0 as 0.0, as adding
            # onto zeros does, and turns a read-only view into an own array.
            # An owned g keeps its -0.0 on the tape, where it can move only
            # the signs of other zeros; a leaf's gradient drops it in place.
            if not owned:
                self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
            else:
                self.grad = g if self._parents else np.add(g, 0.0, out=g)
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
    # numpy's rule: trailing dimensions pair up and must be equal or 1
    for x, y in zip(a.data.shape[::-1], b.data.shape[::-1]):
        if x != y and 1 not in (x, y):
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
    out_data = _sigmoid(a.data)
    return _make(out_data, (a,), (lambda g: g * out_data * (1.0 - out_data),))


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(min(x, 0)) / (1 + exp(-|x|)): stable in both tails, and the same
    bits as 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, for
    e = exp(-|x|), without a mask."""
    denom = np.abs(x, out=np.empty_like(x))
    np.negative(denom, out=denom)
    np.exp(denom, out=denom)
    denom += 1.0
    num = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(num, out=num)
    return np.divide(num, denom, out=out)


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


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """2-d tensors with the same row count, joined side by side."""
    if not tensors:
        raise ShapeError("concat: empty tensor list")
    shapes = [t.data.shape for t in tensors]
    if any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes):
        raise ShapeError(f"concat: incompatible shapes {shapes}; need 2-d, equal row counts")
    offsets = np.cumsum([0] + [s[1] for s in shapes])
    return _make(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors),
                 tuple([lambda g, lo=lo, hi=hi: g[:, lo:hi]
                        for lo, hi in zip(offsets[:-1], offsets[1:])]))


def tslice(a: Tensor, key) -> Tensor:
    """Basic (non-overlapping) indexing: ints and slices."""
    return _make(a.data[key], (a,), (lambda g: _scatter(a.data.shape, key, g),))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Row lookup by an integer index vector or a :class:`SegmentIndex`
    over ``a``'s rows; rows may repeat."""
    index = _segment_index(idx, a.data.shape[0])
    return _make(a.data[index.ids], (a,), (lambda g: _segment_sum(g, index),))


def pick_blocks(a: Tensor, blocks: np.ndarray, width: int) -> Tensor:
    """Row ``i`` of the output is block ``blocks[i]`` of row ``i`` of the
    2-d ``a``, whose columns form blocks of ``width``: columns
    ``blocks[i] * width`` up to ``(blocks[i] + 1) * width``. The VJP
    writes each row's gradient back into its block of zeros."""
    rows, cols = a.data.shape
    blocks = np.asarray(blocks)
    if cols % width or blocks.shape != (rows,):
        raise ShapeError(f"pick_blocks: blocks of shape {blocks.shape} and width {width} "
                         f"do not fit shape {a.data.shape}")
    shape, picked = (rows, cols // width, width), np.arange(rows)

    def vjp(g):
        grad = np.zeros(shape)
        grad[picked, blocks] = g
        grad.shape = a.data.shape  # in place, not a view
        return grad
    return _make(a.data.reshape(shape)[picked, blocks], (a,), (vjp,))


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


class SegmentIndex:
    """Segment ids in ``[0, num_segments)``, checked once, with a memo of
    the flat index the segment kernels derive from them, per width, built
    on first use. The memo lives as long as the index, which the tape
    nodes that read it hold."""

    __slots__ = ("ids", "num_segments", "_flat", "__weakref__")

    def __init__(self, ids, num_segments: int):
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ShapeError(f"segment ids must be 1-d, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
            raise ValueError(f"segment id out of range [0, {num_segments})")
        self.ids = ids
        self.num_segments = num_segments
        self._flat: dict[int, np.ndarray] = {}

    def copy(self) -> "SegmentIndex":
        """The same ids, not checked again, with an empty memo."""
        twin = SegmentIndex.__new__(SegmentIndex)
        twin.ids, twin.num_segments, twin._flat = self.ids, self.num_segments, {}
        return twin

    def flat(self, width: int) -> np.ndarray:
        """Row ``i``, column ``c`` of a ``width``-column array goes to slot
        ``ids[i] * width + c`` of the flattened per-segment output."""
        flat = self._flat.get(width)
        if flat is None:
            flat = self._flat[width] = (self.ids[:, None] * width + np.arange(width)).ravel()
        return flat


def _segment_index(ids, num_segments: int) -> SegmentIndex:
    """``ids`` itself if it is a :class:`SegmentIndex` over ``num_segments``
    segments; a plain array becomes a throwaway one."""
    if not isinstance(ids, SegmentIndex):
        return SegmentIndex(ids, num_segments)
    if ids.num_segments != num_segments:
        raise ValueError(f"segment index over {ids.num_segments} segments "
                         f"used for {num_segments}")
    return ids


def _segment_sum(values: np.ndarray, index: SegmentIndex) -> np.ndarray:
    """Per-segment sums of the rows of ``values``: each segment's rows are
    added one by one, in row order, onto zeros, so empty segments give zero.
    The result owns its memory, so :func:`backward` can keep it."""
    width = math.prod(values.shape[1:])
    sums = np.bincount(index.flat(width), weights=values.ravel(),
                       minlength=index.num_segments * width)
    sums.shape = (index.num_segments,) + values.shape[1:]  # in place, not a view
    return sums


def _segment_max(values: np.ndarray, flat: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment column maxima of 2-d ``values`` at the flat index ``flat``;
    empty segments give -inf and a NaN row makes its column's max NaN."""
    out = np.full(num_segments * values.shape[1], -np.inf)
    with np.errstate(invalid="ignore"):  # a NaN is a max, not an error
        np.maximum.at(out, flat, values.ravel())
    return out


def segment_reduce(values: Tensor, ids, num_segments: int,
                   mode: str = "sum") -> Tensor:
    """Reduce rows of ``values`` into ``num_segments`` buckets given by
    ``ids``, an integer array or a :class:`SegmentIndex`.

    Empty segments produce zero rows in every mode, and zero-row input
    gives ``num_segments`` zero rows. A sum adds each segment's rows one
    by one, in row order, onto zeros (one ``bincount``); a mean divides
    that sum by the row count. For ``max`` (one ``maximum.at``) the output
    is read from, and the gradient flows only to, the first max row per
    column; a NaN row counts as a max.
    """
    if values.data.ndim != 2:
        raise ShapeError(f"segment_reduce: expected 2-d values, got shape {values.data.shape}")
    index = _segment_index(ids, num_segments)
    if index.ids.shape != (values.data.shape[0],):
        raise ShapeError(f"segment_reduce: ids shape {index.ids.shape} does not match "
                         f"values rows {values.data.shape[0]}")
    if mode not in ("sum", "mean", "max"):
        raise ValueError(f"segment_reduce: unknown mode {mode!r}")

    if mode == "sum":
        return _make(_segment_sum(values.data, index), (values,), (lambda g: g[index.ids],))
    if mode == "mean":
        n = np.maximum(np.bincount(index.ids, minlength=num_segments), 1.0)[:, None]
        return _make(_segment_sum(values.data, index) / n, (values,),
                     (lambda g: (g / n)[index.ids],))

    rows, width = values.data.shape
    flat, v = index.flat(width), values.data.ravel()
    is_max = (v == _segment_max(values.data, flat, num_segments)[flat]) | np.isnan(v)
    # the first max row per column, as a position in the flattened values
    first = np.full(num_segments * width, v.size)
    np.minimum.at(first, flat[is_max], np.flatnonzero(is_max))
    hit = np.flatnonzero(first < v.size)
    source = first[hit]
    out = np.zeros(num_segments * width)
    out[hit] = v[source]

    def vjp(g):
        grad = _scatter(v.size, source, g.ravel()[hit])
        grad.shape = (rows, width)  # in place, not a view
        return grad
    return _make(out.reshape(num_segments, width), (values,), (vjp,))


def _segment_softmax(logits: np.ndarray, index: SegmentIndex) -> np.ndarray:
    """Softmax over each segment, per column, of the 2-d ``logits``,
    shifted by the segment's max."""
    flat = index.flat(logits.shape[1])
    shift = _segment_max(logits, flat, index.num_segments)[flat].reshape(logits.shape)
    z = np.exp(np.subtract(logits, shift, out=shift), out=shift)
    return np.divide(z, _segment_sum(z, index)[index.ids], out=z)


def segment_softmax(logits: Tensor, ids, num_segments: int) -> Tensor:
    """Softmax over each segment, per column, of the 2-d ``logits``;
    max-shifted for stability. One tape node, whose VJP is
    ``out * (g - segsum(g * out)[ids])``."""
    index = _segment_index(ids, num_segments)
    out = _segment_softmax(logits.data, index)

    def vjp(g):
        grad = g - _segment_sum(g * out, index)[index.ids]
        grad *= out
        return grad
    return _make(out, (logits,), (vjp,))


# ---------------------------------------------------------------------------
# fused composites: one tape node each, with a closed-form VJP


def softmax(a: Tensor, temperature: float) -> Tensor:
    """Softmax of the 1-d ``a`` at ``temperature``, shifted by its max."""
    if a.data.ndim != 1:
        raise ShapeError(f"softmax: expected a 1-d tensor, got shape {a.data.shape}")
    scale = 1.0 / temperature
    e = np.exp((a.data - a.data.max()) * scale)
    out = e / e.sum()
    return _make(out, (a,), (lambda g: out * (g - (g * out).sum()) * scale,))


def weighted_sum(w: Tensor, ys: Sequence[Tensor]) -> Tensor:
    """``w[0] * ys[0] + w[1] * ys[1] + ...``, added in list order, for a
    1-d ``w`` with one entry per same-shape tensor of ``ys``."""
    if not ys or w.data.shape != (len(ys),) or \
            any(y.data.shape != ys[0].data.shape for y in ys):
        raise ShapeError(f"weighted_sum: weight shape {w.data.shape} for tensors of shapes "
                         f"{[y.data.shape for y in ys]}")
    out = w.data[0] * ys[0].data
    for k in range(1, len(ys)):
        out += w.data[k] * ys[k].data
    return _make(out, (w, *ys), (
        lambda g: np.array([np.vdot(g, y.data) for y in ys]),
        *(lambda g, k=k: g * w.data[k] for k in range(len(ys)))))


def layer_norm(a: Tensor) -> Tensor:
    """Each row of the 2-d ``a`` minus its mean, over its standard
    deviation with the variance floored by 1e-5 (Ba et al., 2016)."""
    x = a.data
    inv_width = 1.0 / x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) * inv_width
    std = np.sqrt((xc * xc).sum(axis=1, keepdims=True) * inv_width + 1e-5)
    out = xc / std
    return _make(out, (a,), (lambda g: (g - g.mean(axis=1, keepdims=True)
                                        - out * (g * out).mean(axis=1, keepdims=True)) / std,))


def masked_bce(logits: Tensor, y: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of ``logits`` against 0/1 targets ``y``
    over the entries where the boolean ``mask`` holds, in the stable form
    max(z, 0) - z*y + log(1 + exp(-|z|)); at least one entry must hold."""
    z = logits.data
    e = np.exp(-np.abs(z))
    keep = mask.astype(np.float64)
    scale = 1.0 / int(mask.sum())
    elem = (z * (z > 0.0) - z * y) + np.log(1.0 + e)
    return _make((elem * keep).sum() * scale, (logits,),
                 (lambda g: (g * scale) * keep * (_sigmoid(z) - y),))


def _shared_vjps(grads: Callable[[np.ndarray], list], count: int) -> tuple:
    """``count`` VJPs, the ``k``-th returning ``grads(g)[k]``, where
    ``grads`` runs once, at the first VJP :func:`backward` calls. It may
    leave ``None`` for a parent that needs no gradient, whose VJP
    :func:`backward` does not call."""
    cache = []

    def part(k):
        def vjp(g):
            if not cache:
                cache.extend(grads(g))
            return cache[k]
        return vjp
    return tuple(part(k) for k in range(count))


def lstm(inputs: Sequence[Tensor], W_ih: Tensor, W_hh: Tensor, b: Tensor) -> Tensor:
    """Final hidden state of an LSTM run over ``inputs`` in list order from
    a zero state. Each step computes ``z = x @ W_ih + h @ W_hh + b``, whose
    four d-wide column blocks give the gates i, f, g, o; then
    ``c = f * c + i * g`` and ``h = o * tanh(c)`` (sigmoid gates, tanh g).
    The first step leaves out the zero state's terms ``h @ W_hh`` and
    ``f * c``.

    The VJP runs backpropagation through time once for every parent
    (Appleyard et al., 2016): each step writes its four gate gradients into
    one (n, 4d) buffer, from which that step's input gradient, its share of
    the weight gradients and the recurrent gradient are one matmul each. It
    computes only the gradients of parents that need one, so frozen
    weights cost no product, and the first step, whose state is zero,
    adds nothing to ``W_hh``'s gradient and leaves its forget gate's at zero.
    """
    n, d = inputs[0].data.shape
    for x in inputs:
        if x.data.shape != (n, d):
            raise ShapeError(f"lstm: input shapes {[t.data.shape for t in inputs]} differ")
    if W_ih.data.shape != (d, 4 * d) or W_hh.data.shape != (d, 4 * d) \
            or b.data.shape != (1, 4 * d):
        raise ShapeError(f"lstm: weights {W_ih.data.shape}, {W_hh.data.shape}, "
                         f"{b.data.shape} do not fit width {d}")
    # per step: the gates i, f, g, o (each contiguous), c, tanh(c) and h after it
    gates, cs, tanh_cs, hs = [], [], [], []
    for t, x in enumerate(inputs):
        z = x.data @ W_ih.data
        if t:
            z += hs[-1] @ W_hh.data
        z += b.data
        i, f, g, o = act = np.empty((4, n, d))
        for k in range(4):
            (np.tanh if k == 2 else _sigmoid)(z[:, k * d:(k + 1) * d], out=act[k])
        if t:
            c = f * cs[-1]
            c += i * g
        else:
            c = i * g
        tanh_c = np.tanh(c)
        gates.append(act)
        cs.append(c)
        tanh_cs.append(tanh_c)
        hs.append(o * tanh_c)

    def bptt(gh: np.ndarray) -> list:
        grads = [None] * len(inputs) + [
            np.zeros_like(w.data) if w.requires_grad else None for w in (W_ih, W_hh, b)]
        dW_ih, dW_hh, db = grads[-3:]
        dz = np.empty((n, 4 * d))
        di, df, dg, do = (dz[:, k * d:(k + 1) * d] for k in range(4))
        dh, dc = gh, np.zeros((n, d))
        for t in reversed(range(len(inputs))):
            (i, f, g, o), tanh_c = gates[t], tanh_cs[t]
            dc += dh * o * (1.0 - tanh_c * tanh_c)
            np.multiply(dc * g, i * (1.0 - i), out=di)
            if t:
                np.multiply(dc * cs[t - 1], f * (1.0 - f), out=df)
            else:
                df.fill(0.0)
            np.multiply(dc * i, 1.0 - g * g, out=dg)
            np.multiply(dh * tanh_c, o * (1.0 - o), out=do)
            if inputs[t].requires_grad:
                grads[t] = dz @ W_ih.data.T
            if dW_ih is not None:
                dW_ih += inputs[t].data.T @ dz
            if dW_hh is not None and t:
                dW_hh += hs[t - 1].T @ dz
            if db is not None:
                db += dz.sum(axis=0, keepdims=True)
            if t:
                dh = dz @ W_hh.data.T
                dc *= f
        return grads

    return _make(hs[-1], (*inputs, W_ih, W_hh, b), _shared_vjps(bptt, len(inputs) + 3))


def softmax_aggregate(x: Tensor, beta: Tensor, ids, num_segments: int) -> Tensor:
    """DeeperGCN's softmax aggregation (Li et al., 2020) of the 2-d
    messages ``x`` into ``num_segments`` rows, given each row's segment
    ``ids``: with ``m = relu(x) + 1e-7`` and ``w`` the softmax of
    ``beta * m`` over each segment, per column, output row ``s`` is the
    sum of ``w * m`` over segment ``s``. ``beta`` holds one value.

    One tape node. With ``y`` the output and ``G`` its gradient, the VJPs
    are ``dx = [x > 0] * w * G[ids] * (1 + beta * (m - y[ids]))`` and
    ``dbeta = sum(w * G[ids] * (m - y[ids]) * m)``, each computed only
    for a parent that needs it."""
    if x.data.ndim != 2 or beta.data.size != 1:
        raise ShapeError(f"softmax_aggregate: messages {x.data.shape} and beta "
                         f"{beta.data.shape}; want 2-d messages and one beta")
    index = _segment_index(ids, num_segments)
    m = np.maximum(x.data, 0.0)
    m += 1e-7
    w = _segment_softmax(beta.data * m, index)
    out = _segment_sum(w * m, index)

    def grads(g: np.ndarray) -> list:
        gw = g[index.ids]
        gw *= w
        centred = m - out[index.ids]
        dx = dbeta = None
        if beta.requires_grad:  # summed elementwise: a BLAS dot's bits vary with its threads
            terms = gw * centred
            terms *= m
            dbeta = np.full(beta.data.shape, terms.sum())
        if x.requires_grad:
            centred *= beta.data
            centred += 1.0
            centred *= gw
            centred *= x.data > 0.0
            dx = centred
        return [dx, dbeta]

    return _make(out, (x, beta), _shared_vjps(grads, 2))


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

    loss.accumulate(np.ones_like(loss.data), owned=True)
    while topo:
        node = topo.pop()  # reverse topological order; the list lets go of each node
        if not node._parents:
            continue  # a leaf keeps its gradient
        for p, vjp in zip(node._parents, node._vjps):
            if p.requires_grad:
                g = vjp(node.grad)
                if g.shape != p.data.shape:
                    g = _unbroadcast(g, p.data.shape)
                # the tape contract makes an array that owns its memory the VJP's alone
                p.accumulate(g, owned=g is not node.grad and isinstance(g, np.ndarray)
                             and g.base is None and g.flags.writeable
                             and g.dtype == np.float64 and g.shape == p.data.shape)
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
