"""Minimal dense-tensor reverse-mode automatic differentiation.

Values are float64 numpy arrays wrapped in :class:`Tensor`. Every operation
builds the backward tape on the fly (define-by-run); calling
:func:`backward` on a scalar loss populates ``grad`` on every reachable
leaf. The op set is deliberately small: just enough for message-passing
layers, the relaxed architecture mixture, and the training losses.

The tape is kept apart from the values, as PyTorch's autograd keeps a
graph node apart from its tensor (Paszke et al., 2017). An op output
that needs a gradient holds its op's tape node. The node holds its
parents' entries, its one backward function, the arrays that function
reads (its saved arrays) and its output's shape: not its output, and no
parent's :class:`Tensor` or ``data``. A parent's entry is the parent's
own node; a leaf that needs a gradient, which :func:`backward` gives its
``grad``, is its own entry; any other parent is a placeholder that holds
only its shape. So the tape keeps an array alive only while a backward
function will read it (Chen et al., 2016, arXiv:1604.06174): an
intermediate that the forward drops and no backward reads, such as an
MLP's hidden layer, is freed at once, during the forward. The tape forms
no reference cycle, so a dropped or consumed tape is freed by reference
counting alone.

A tape lives only as long as a gradient needs it. :func:`backward` frees
each node once its backward function has run, so a loss can be
backpropagated once; a second pass through the same tape raises
``RuntimeError``. An op records a tape node only if one of its inputs
needs a gradient, so :func:`frozen` is the one way to keep tensors off
the tape: it holds chosen leaves out, and with every leaf frozen a
forward that is only scored records no tape at all.

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
parents, one backward function and the arrays that function reads. It
saves an array only for a parent that needs a gradient: ``matmul``
saves ``b``'s data only if ``a`` needs a gradient, and ``a``'s only if
``b`` does; ``add``, ``sub``, ``scalar_mul``, ``concat``, ``tsum`` and
``tslice`` save no values at all. The function's closure holds no array
and no tensor, only flags, shapes, offsets and :class:`SegmentIndex`
handles; it is called as ``backward(g, *saved)``. It maps the output's
gradient ``g`` to one entry per parent, in parent order: that parent's
vector-Jacobian product (VJP) at the output's broadcast shape, or
``None`` for a parent that needed no gradient when the op ran, so a
frozen parent costs it no product. :func:`backward` calls it once per
node, sums a broadcast entry back to the parent's shape, which it reads
from the parent's entry, and accumulates the entries of the parents
that need a gradient in parent order. A parent's first gradient is the
entry itself when that array owns its memory (no view, writeable,
float64 at the parent's shape) and is not the output's gradient; any
other array is copied. So a backward function never hands one array to
two parents (an identity entry, such as ``add``'s, is the output's
gradient, which is copied), never returns a saved array or a tensor's
``data``, and never writes an array after returning it. A leaf's first
gradient stores -0.0 as 0.0 either way, so leaf gradients keep the bits
they had when every first gradient was copied. Saved arrays are not
read-only: nothing may write one before the backward that reads it has
run. ``SGD.step`` writes a weight's data in place, which ``matmul``
saves, only after that backward.

Nine fused composites are one tape node each, with a closed-form VJP:
:func:`softmax` (the architecture weights), :func:`weighted_sum` (the
relaxed mixture), :func:`layer_norm`, :func:`masked_bce`, :func:`lstm`
(the whole scan; its backward runs backpropagation through time),
:func:`concat_matmul` (CONCAT fusion's join and projection),
:func:`segment_softmax` (attention over each segment),
:func:`gather_sum` (message passing: gather rows by edge source, scale
each by an optional edge weight, sum them per destination) and
:func:`softmax_aggregate` (GEN's gather, relu, softmax and weighted sum
over each segment). The two message-passing nodes save no edge-wide
array that their backward does not read: ``gather_sum`` saves none and
rebuilds its gathers in its backward. ``weighted_sum`` saves the
candidates only when its weights need a gradient (the logit half-step);
when only the candidates do (the weight half-step) it saves the
weights alone. ``concat_matmul`` saves no joined copy of its inputs:
their own arrays, which the LSTM at the same site also saves, are
joined again in its backward. :func:`pick_blocks` takes one column
block per row, as MF picks each node's degree bucket out of one product
against all its weights. Each forward evaluates the numpy expressions
of the composed version it replaced, in the same order, so outputs keep
their bits; gradients may differ in the last bits. The LSTM's first
step leaves out the zero state's ``h @ W_hh``, ``f * c`` and forget
gate, which moves no bit. A node's saved arrays may be forward buffers
(the LSTM saves every step's gates and ``c``; its backward rebuilds
``tanh(c)`` and, for ``W_hh``'s gradient, ``h`` with the forward's
bits); they live until :func:`backward` frees the node. A tape walk
that reads each entry's ``data``, as the benchmark's
``autodiff.tape_bytes`` does, counts every taped output at its full
size (a node's ``data`` is a zero-stride stand-in of its output's
shape) and no saved array.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class Tensor:
    """A dense float64 array plus its accumulated gradient and, for an op
    output that needs a gradient, the op's tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None  # None on a leaf

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def _parents(self) -> tuple:
        """The tape entries of the op that made this tensor; () on a leaf."""
        return () if self._node is None else self._node._parents

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` to a leaf's gradient. The first ``g`` becomes the
        gradient itself when ``owned`` says nothing else holds it."""
        if self.grad is None:
            # g + 0.0 rather than a copy: it stores -0.0 as 0.0, as adding
            # onto zeros does, and turns a read-only view into an own array
            self.grad = np.add(g, 0.0, out=g if owned else np.empty_like(self.data))
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __getitem__(self, key):
        return tslice(self, key)


class _Node:
    """One op's place on the tape: its parents' entries, its backward
    function, the arrays that function reads, its output's shape and, while
    :func:`backward` runs, the output's gradient. It holds neither the
    output nor a parent :class:`Tensor` that needs no gradient.

    A placeholder (``backward`` None) stands for a parent that needs no
    gradient; it holds only that parent's shape."""

    __slots__ = ("_parents", "backward", "saved", "shape", "grad")

    def __init__(self, parents: tuple, backward: Callable | None, saved: tuple,
                 shape: tuple[int, ...]):
        self._parents, self.backward, self.saved, self.shape = parents, backward, saved, shape
        self.grad: np.ndarray | None = None

    @property
    def requires_grad(self) -> bool:
        return self.backward is not None

    @property
    def data(self) -> np.ndarray:
        """A zero-stride stand-in for the output, which the node does not
        hold; its ``nbytes`` are the output's."""
        return np.broadcast_to(np.float64(0.0), self.shape)

    def accumulate(self, g: np.ndarray, owned: bool) -> None:
        if self.grad is None:
            self.grad = g if owned else np.add(g, 0.0, out=np.empty(self.shape))
        else:
            self.grad += g


@contextmanager
def frozen(tensors):
    """Within the block, ``tensors`` need no gradient: ops record no tape
    node for them, and :func:`backward` neither reaches them nor computes
    their gradients. The values are the same as unfrozen, and so are the
    other tensors' gradients. Each ``requires_grad`` is restored on the way
    out."""
    tensors = list(tensors)
    previous = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, previous):
            t.requires_grad = flag


def _entry(t: Tensor):
    """``t``'s entry on a child's tape node: the node of the op that made
    it, the tensor itself when it is a leaf that needs a gradient, and
    otherwise a placeholder of its shape."""
    if not t.requires_grad:
        return _Node((), None, (), t.data.shape)
    return t if t._node is None else t._node


def _make(data: np.ndarray, parents: tuple, backward: Callable, *saved) -> Tensor:
    """The op's output; it records a tape node only if a parent needs a
    gradient. ``backward(g, *saved)`` runs once, in :func:`backward`."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(_entry(p) for p in parents), backward, saved, out.data.shape)
    return out


def _kept(t: Tensor, array):
    """``array`` when ``t`` needs a gradient, else None: what an op saves
    for one parent's entry."""
    return array if t.requires_grad else None


def _consumed(g, *saved):
    """The backward function of a node that :func:`backward` has freed."""
    raise RuntimeError("backward: the tape was already consumed by an earlier "
                       "backward; a loss can be backpropagated once")


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
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    keep_a, keep_b = a.requires_grad, b.requires_grad
    return _make(a.data - b.data, (a, b), lambda g: (
        g if keep_a else None, -g if keep_b else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    return _make(a.data * b.data, (a, b), lambda g, bd, ad: (
        None if bd is None else g * bd, None if ad is None else g * ad),
        _kept(a, b.data), _kept(b, a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    out_data = a.data / b.data
    keep_a = a.requires_grad
    return _make(out_data, (a, b), lambda g, bd, out: (
        g / bd if keep_a else None, None if out is None else -g * out / bd),
        b.data, _kept(b, out_data))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient goes to the first operand."""
    _check_broadcast("maximum", a, b)
    take_a = a.data >= b.data
    keep_a, keep_b = a.requires_grad, b.requires_grad
    return _make(np.where(take_a, a.data, b.data), (a, b), lambda g, take_a: (
        g * take_a if keep_a else None, g * ~take_a if keep_b else None), take_a)


# ---------------------------------------------------------------------------
# matrix product


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    return _make(a.data @ b.data, (a, b), lambda g, bd, ad: (
        None if bd is None else g @ bd.T, None if ad is None else ad.T @ g),
        _kept(a, b.data), _kept(b, a.data))


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # subgradient at 0 fixed to 0
    return _make(a.data * mask, (a,), lambda g, mask: (g * mask,), mask)


def leaky_relu(a: Tensor) -> Tensor:
    """Slope 0.2 below zero, as GAT uses."""
    scale = np.where(a.data > 0.0, 1.0, 0.2)
    return _make(a.data * scale, (a,), lambda g, scale: (g * scale,), scale)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)
    return _make(out_data, (a,), lambda g, out: (g * out * (1.0 - out),), out_data)


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
    return _make(out_data, (a,), lambda g, out: (g * out,), out_data)


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g, x: (g / x,), a.data)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _make(out_data, (a,), lambda g, out: (g * 0.5 / out,), out_data)


# ---------------------------------------------------------------------------
# shape ops


def _column_blocks(name: str, tensors: Sequence[Tensor]) -> list[tuple[int, int]]:
    """The (start, stop) columns of each of the 2-d ``tensors``, which must
    have one row count, once they are joined side by side."""
    if not tensors:
        raise ShapeError(f"{name}: empty tensor list")
    shapes = [t.data.shape for t in tensors]
    if any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes):
        raise ShapeError(f"{name}: incompatible shapes {shapes}; need 2-d, equal row counts")
    offsets = np.cumsum([0] + [s[1] for s in shapes]).tolist()
    return list(zip(offsets[:-1], offsets[1:]))


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """2-d tensors with the same row count, joined side by side."""
    blocks = _column_blocks("concat", tensors)
    return _make(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors),
                 lambda g: tuple(g[:, lo:hi] for lo, hi in blocks))


def tslice(a: Tensor, key) -> Tensor:
    """Basic indexing: an int, a slice or a tuple of them, which reads each
    entry at most once. Any other key, such as an integer array, which may
    repeat an entry, or a boolean mask, raises :class:`ShapeError`: the
    backward writes the gradient at ``key``, which would drop repeats."""
    if not all(isinstance(k, slice) or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in (key if isinstance(key, tuple) else (key,))):
        raise ShapeError(f"tslice: key {key!r} is not an int, a slice or a tuple of them")
    shape = a.data.shape
    return _make(a.data[key], (a,), lambda g: (_scatter(shape, key, g),))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Row lookup by an integer index vector or a :class:`SegmentIndex`
    over ``a``'s rows; rows may repeat."""
    index = _segment_index(idx, a.data.shape[0])
    return _make(a.data[index.ids], (a,), lambda g: (_segment_sum(g, index),))


def pick_blocks(a: Tensor, blocks: np.ndarray, width: int) -> Tensor:
    """Row ``i`` of the output is block ``blocks[i]`` of row ``i`` of the
    2-d ``a``, whose columns form blocks of ``width``: columns
    ``blocks[i] * width`` up to ``(blocks[i] + 1) * width``. The backward
    writes each row's gradient back into its block of zeros."""
    rows, cols = a.data.shape
    blocks = np.asarray(blocks)
    if cols % width or blocks.shape != (rows,):
        raise ShapeError(f"pick_blocks: blocks of shape {blocks.shape} and width {width} "
                         f"do not fit shape {a.data.shape}")
    shape, picked = (rows, cols // width, width), np.arange(rows)

    def backward(g, picked, blocks):
        grad = np.zeros(shape)
        grad[picked, blocks] = g
        grad.shape = (rows, cols)  # in place, not a view
        return (grad,)
    return _make(a.data.reshape(shape)[picked, blocks], (a,), backward, picked, blocks)


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    expand = axis is not None and not keepdims
    shape = a.data.shape
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), lambda g: (
        np.broadcast_to(np.expand_dims(g, axis) if expand else g, shape),))


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
        return _make(_segment_sum(values.data, index), (values,), lambda g: (g[index.ids],))
    if mode == "mean":
        n = np.maximum(np.bincount(index.ids, minlength=num_segments), 1.0)[:, None]
        return _make(_segment_sum(values.data, index) / n, (values,),
                     lambda g, n: ((g / n)[index.ids],), n)

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

    def backward(g, source, hit):
        grad = _scatter(rows * width, source, g.ravel()[hit])
        grad.shape = (rows, width)  # in place, not a view
        return (grad,)
    return _make(out.reshape(num_segments, width), (values,), backward, source, hit)


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

    def backward(g, out):
        grad = g - _segment_sum(g * out, index)[index.ids]
        grad *= out
        return (grad,)
    return _make(out, (logits,), backward, out)


# ---------------------------------------------------------------------------
# fused composites: one tape node each, with a closed-form VJP


def softmax(a: Tensor, temperature: float) -> Tensor:
    """Softmax of the 1-d ``a`` at ``temperature``, shifted by its max."""
    if a.data.ndim != 1:
        raise ShapeError(f"softmax: expected a 1-d tensor, got shape {a.data.shape}")
    scale = 1.0 / temperature
    e = np.exp((a.data - a.data.max()) * scale)
    out = e / e.sum()
    return _make(out, (a,), lambda g, out: (out * (g - (g * out).sum()) * scale,), out)


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
    keep_ys = [y.requires_grad for y in ys]
    # the logit half-step saves the candidates; the weight half-step only w
    return _make(out, (w, *ys), lambda g, w, ys: (
        None if ys is None else np.array([np.vdot(g, y) for y in ys]),
        *(g * w[k] if keep else None for k, keep in enumerate(keep_ys))),
        w.data if any(keep_ys) else None, _kept(w, [y.data for y in ys]))


def layer_norm(a: Tensor) -> Tensor:
    """Each row of the 2-d ``a`` minus its mean, over its standard
    deviation with the variance floored by 1e-5 (Ba et al., 2016)."""
    x = a.data
    inv_width = 1.0 / x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) * inv_width
    std = np.sqrt((xc * xc).sum(axis=1, keepdims=True) * inv_width + 1e-5)
    out = xc / std
    return _make(out, (a,), lambda g, out, std: ((g - g.mean(axis=1, keepdims=True)
                                                  - out * (g * out).mean(axis=1, keepdims=True))
                                                 / std,), out, std)


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
                 lambda g, z, y, keep: ((g * scale) * keep * (_sigmoid(z) - y),), z, y, keep)


def lstm(inputs: Sequence[Tensor], W_ih: Tensor, W_hh: Tensor, b: Tensor) -> Tensor:
    """Final hidden state of an LSTM run over ``inputs`` in list order from
    a zero state. Each step computes ``z = x @ W_ih + h @ W_hh + b``, whose
    four d-wide column blocks give the gates i, f, g, o; then
    ``c = f * c + i * g`` and ``h = o * tanh(c)`` (sigmoid gates, tanh g).
    The first step leaves out the zero state's terms ``h @ W_hh`` and
    ``f * c``, and so its forget gate.

    The node saves each step's gates (i, g, o at the first step) and ``c``.
    The backward runs backpropagation through time once for every parent
    (Appleyard et al., 2016): each step writes its four gate gradients into
    one (n, 4d) buffer, from which that step's input gradient, its share of
    the weight gradients and the recurrent gradient are one matmul each.
    It rebuilds each step's ``tanh(c)`` once, and the previous step's
    ``h = o * tanh(c)`` only for ``W_hh``'s gradient, by the forward's
    expressions, so they have the forward's bits. The first step, whose
    state is zero, adds nothing to ``W_hh``'s gradient and leaves its forget
    gate's at zero.
    """
    n, d = inputs[0].data.shape
    for x in inputs:
        if x.data.shape != (n, d):
            raise ShapeError(f"lstm: input shapes {[t.data.shape for t in inputs]} differ")
    if W_ih.data.shape != (d, 4 * d) or W_hh.data.shape != (d, 4 * d) \
            or b.data.shape != (1, 4 * d):
        raise ShapeError(f"lstm: weights {W_ih.data.shape}, {W_hh.data.shape}, "
                         f"{b.data.shape} do not fit width {d}")
    # per step: the gates i, f, g, o (each contiguous; the first step's
    # forget gate would scale a zero state, so it has none) and c
    gates, cs = [], []
    for t, x in enumerate(inputs):
        z = x.data @ W_ih.data
        if t:
            z += h @ W_hh.data
        z += b.data
        blocks = range(4) if t else (0, 2, 3)
        act = np.empty((len(blocks), n, d))
        for slot, k in enumerate(blocks):
            (np.tanh if k == 2 else _sigmoid)(z[:, k * d:(k + 1) * d], out=act[slot])
        if t:
            i, f, g, o = act
            c = f * cs[-1]
            c += i * g
        else:
            i, g, o = act
            c = i * g
        gates.append(act)
        cs.append(c)
        h = o * np.tanh(c)

    keep_x = [x.requires_grad for x in inputs]
    weight_shapes = [w.data.shape if w.requires_grad else None for w in (W_ih, W_hh, b)]

    def bptt(gh: np.ndarray, xs, w_ih, w_hh, gates, cs) -> list:
        grads = [None] * len(keep_x) + [
            None if shape is None else np.zeros(shape) for shape in weight_shapes]
        dW_ih, dW_hh, db = grads[-3:]
        dz = np.empty((n, 4 * d))
        di, df, dg, do = (dz[:, k * d:(k + 1) * d] for k in range(4))
        dh, dc = gh, np.zeros((n, d))
        tanh_c = np.tanh(cs[-1])
        for t in reversed(range(len(keep_x))):
            if t:
                i, f, g, o = gates[t]
            else:
                i, g, o = gates[t]
            dc += dh * o * (1.0 - tanh_c * tanh_c)
            np.multiply(dc * g, i * (1.0 - i), out=di)
            if t:
                np.multiply(dc * cs[t - 1], f * (1.0 - f), out=df)
            else:
                df.fill(0.0)
            np.multiply(dc * i, 1.0 - g * g, out=dg)
            np.multiply(dh * tanh_c, o * (1.0 - o), out=do)
            if t:
                tanh_c = np.tanh(cs[t - 1])  # step t-1's: for its h below and its own turn
            if keep_x[t]:
                grads[t] = dz @ w_ih.T
            if dW_ih is not None:
                dW_ih += xs[t].T @ dz
            if dW_hh is not None and t:
                dW_hh += (gates[t - 1][-1] * tanh_c).T @ dz  # the previous step's o * tanh(c)
            if db is not None:
                db += dz.sum(axis=0, keepdims=True)
            if t:
                dh = dz @ w_hh.T
                dc *= f
        return grads

    return _make(h, (*inputs, W_ih, W_hh, b), bptt,
                 _kept(W_ih, [x.data for x in inputs]), W_ih.data if any(keep_x) else None,
                 W_hh.data, gates, cs)


def concat_matmul(tensors: Sequence[Tensor], P: Tensor) -> Tensor:
    """``matmul(concat(tensors), P)`` as one node that keeps no joined
    copy: for ``P``'s gradient it saves the tensors' own arrays and joins
    them again in its backward. Each tensor's gradient is its column block
    of ``g @ P.T``. Forward and gradients have the two nodes' bits."""
    blocks = _column_blocks("concat_matmul", tensors)
    if P.data.ndim != 2 or P.data.shape[0] != blocks[-1][1]:
        raise ShapeError(f"concat_matmul: {blocks[-1][1]} joined columns for P of shape "
                         f"{P.data.shape}")
    xs = [t.data for t in tensors]
    keep_x = [t.requires_grad for t in tensors]

    def backward(g, p, xs):
        gx = None if p is None else g @ p.T
        return (*(gx[:, lo:hi] if keep else None for keep, (lo, hi) in zip(keep_x, blocks)),
                None if xs is None else np.concatenate(xs, axis=1).T @ g)
    return _make(np.concatenate(xs, axis=1) @ P.data, (*tensors, P), backward,
                 P.data if any(keep_x) else None, _kept(P, xs))


def _edge_indices(name: str, x: Tensor, src, dst, num_segments: int) -> tuple:
    """The :class:`SegmentIndex` of ``src`` over the rows of the 2-d ``x``
    and of ``dst`` over ``num_segments``, one id per edge each."""
    if x.data.ndim != 2:
        raise ShapeError(f"{name}: expected 2-d node features, got shape {x.data.shape}")
    src, dst = _segment_index(src, x.data.shape[0]), _segment_index(dst, num_segments)
    if src.ids.shape != dst.ids.shape:
        raise ShapeError(f"{name}: {src.ids.size} sources for {dst.ids.size} destinations")
    return src, dst


def gather_sum(x: Tensor, src, dst, num_segments: int, weight=None) -> Tensor:
    """Message passing: row ``i`` of the output is the sum of
    ``weight[e] * x[src[e]]`` over the edges ``e`` with ``dst[e] == i``.
    ``weight`` is None (all ones), a constant (E, 1) array or an (E, 1)
    Tensor; ``src`` and ``dst`` are id arrays or :class:`SegmentIndex`
    handles over ``x``'s rows and the ``num_segments`` output rows.

    One tape node that keeps no (E x width) array. Its forward gathers,
    scales and sums as the chain ``gather_rows``, ``mul``,
    ``segment_reduce`` does, so the output has its bits. Its backward
    rebuilds ``G[dst]`` (``G`` the output's gradient): ``dx`` is the sum of
    ``weight * G[dst]`` per source, and ``dweight``, built only when the
    weight Tensor needs it, the row sums of ``G[dst] * x[src]``."""
    src, dst = _edge_indices("gather_sum", x, src, dst, num_segments)
    w = weight.data if isinstance(weight, Tensor) else weight
    if w is not None and np.shape(w) != (src.ids.size, 1):
        raise ShapeError(f"gather_sum: weight of shape {np.shape(w)} for {src.ids.size} edges")
    msg = x.data[src.ids]
    if w is not None:
        msg *= w
    out = _segment_sum(msg, dst)

    parents = (x, weight) if isinstance(weight, Tensor) else (x,)
    keep_x, n_parents = x.requires_grad, len(parents)

    def grads(g: np.ndarray, x_data, w) -> tuple:
        gd = g[dst.ids]
        dx = dw = None
        if x_data is not None:  # the weight Tensor needs a gradient
            xs = x_data[src.ids]
            xs *= gd
            dw = xs.sum(axis=1, keepdims=True)
        if keep_x:
            if w is not None:
                gd *= w
            dx = _segment_sum(gd, src)
        return (dx, dw)[:n_parents]
    return _make(out, parents, grads,
                 _kept(weight, x.data) if n_parents == 2 else None, _kept(x, w))


def softmax_aggregate(x: Tensor, beta: Tensor, src, dst, num_segments: int,
                      edge: Tensor | None = None) -> Tensor:
    """DeeperGCN's softmax aggregation (Li et al., 2020) of the messages
    ``x[src]``, plus the (E x width) ``edge`` features when given, into
    ``num_segments`` rows by ``dst`` (ids as in :func:`gather_sum`): with
    ``m = relu(message) + 1e-7`` and ``w`` the softmax of ``beta * m`` over
    each segment, per column, output row ``s`` is the sum of ``w * m`` over
    segment ``s``. ``beta`` holds one value.

    One tape node, which gathers its messages itself. With ``y`` the output
    and ``G`` its gradient, the message gradient is
    ``dmsg = [message > 0] * w * G[dst] * (1 + beta * (m - y[dst]))``:
    ``dedge`` is ``dmsg`` and ``dx`` its sum per source. ``dbeta`` is
    ``sum(w * G[dst] * (m - y[dst]) * m)``."""
    src, dst = _edge_indices("softmax_aggregate", x, src, dst, num_segments)
    if beta.data.size != 1 or \
            (edge is not None and edge.data.shape != (src.ids.size, x.data.shape[1])):
        raise ShapeError(f"softmax_aggregate: beta {beta.data.shape} and edge features "
                         f"{None if edge is None else edge.data.shape} for {src.ids.size} "
                         f"messages of width {x.data.shape[1]}; want one beta")
    m = x.data[src.ids]
    if edge is not None:
        m += edge.data
    positive = m > 0.0
    np.maximum(m, 0.0, out=m)
    m += 1e-7
    w = _segment_softmax(beta.data * m, dst)
    out = _segment_sum(w * m, dst)

    parents = (x, beta) if edge is None else (x, beta, edge)
    keep_x, keep_beta, n_parents = x.requires_grad, beta.requires_grad, len(parents)
    keep_msg = keep_x or (edge is not None and edge.requires_grad)

    def grads(g: np.ndarray, w, m, out, positive, beta) -> tuple:
        gw = g[dst.ids]
        gw *= w
        centred = m - out[dst.ids]
        dmsg = dbeta = None
        if keep_beta:  # summed elementwise: a BLAS dot's bits vary with its threads
            terms = gw * centred
            terms *= m
            dbeta = np.full(beta.shape, terms.sum())
        if keep_msg:
            centred *= beta
            centred += 1.0
            centred *= gw
            centred *= positive
            dmsg = centred
        dx = _segment_sum(dmsg, src) if keep_x else None
        return (dx, dbeta, dmsg)[:n_parents]
    return _make(out, parents, grads, w, m, out, positive if keep_msg else None, beta.data)


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar loss, and
    free the tape on the way.

    Once a node's backward function has run, its gradient, parents,
    backward function and saved arrays are dropped, so the tape is
    consumed: a loss can be backpropagated once, and a pass that reaches
    a consumed node raises ``RuntimeError``. Leaves keep their gradients,
    and a later loss over the same leaves adds to them unless they are
    zeroed first.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    root = _entry(loss)
    topo: list[_Node] = []
    visited: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)] if root is not loss else []
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.backward is _consumed:
            _consumed(node.grad)  # raises before any gradient moves
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if type(p) is _Node and p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    root.accumulate(np.ones_like(loss.data), owned=True)
    while topo:
        node = topo.pop()  # reverse topological order; the list lets go of each node
        for p, g in zip(node._parents, node.backward(node.grad, *node.saved), strict=True):
            if p.requires_grad:
                if g.shape != p.shape:
                    g = _unbroadcast(g, p.shape)
                # the tape contract makes an array that owns its memory the op's alone
                p.accumulate(g, owned=g is not node.grad and isinstance(g, np.ndarray)
                             and g.base is None and g.flags.writeable
                             and g.dtype == np.float64 and g.shape == p.shape)
        node.grad, node._parents, node.backward, node.saved = None, (), _consumed, ()


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
