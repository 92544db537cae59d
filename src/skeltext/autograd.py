"""Dense float64 tensors with reverse-mode automatic differentiation.

Desk-scale engine: every value is a row-major numpy float64 array, every op
on a tracked tensor builds a node in a backward tape, and gradients are
exact analytic forms (verified against central finite differences in the
test suite). Non-finite values anywhere are treated as an error state, not
a warning. The tape is for training: the forward arithmetic of the
whole-block ops lives in plain-array kernels (`_affine`, `_keys_values`,
`_attention`, `_softmax`, `_layer_norm`, `_feed_forward`), which every
inference pass runs off the tape, probing each result with `_checked`. The
three hot inference passes run lean (`_lean_pass`): only the `_guard`
probes run, on the points where a non-finite value could vanish, and an
error re-runs the pass with every probe, so it names the op the tape would
name.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    pass


# Read-only zeros the finiteness probe multiplies against.
_ZEROS = np.zeros(1 << 14)
_ZEROS.flags.writeable = False


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value of a float64 array is finite, in one numpy call.

    The dot product with zeros is NaN when any value is inf or NaN, and +-0
    otherwise: a finite value times zero is +-0, so the sum cannot overflow.
    np.vdot, unlike np.dot, raises no floating-point warning for inf * 0.
    Arrays larger than the zero buffer take np.isfinite.
    """
    n = arr.size
    if n > _ZEROS.size:
        return bool(np.isfinite(arr).all())
    return np.vdot(arr, _ZEROS[:n]) == 0.0


def _as_array(value) -> np.ndarray:
    arr = value if type(value) is np.ndarray and value.dtype == np.float64 else np.asarray(
        value, dtype=np.float64
    )
    if not _all_finite(arr):
        raise NonFiniteError("non-finite value entering the graph")
    return arr


class Tensor:
    __slots__ = ("data", "grad", "retain_grad", "_track", "_parents", "_bw", "_consumed")

    def __init__(self, data, parents: tuple["Tensor", ...] = (), bw=None, retain_grad=False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.retain_grad = retain_grad
        self._parents = parents
        self._bw: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = bw
        self._track = retain_grad or bool(parents)
        self._consumed = False

    # -- bookkeeping ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate into retained .grad arrays, from a scalar or with a seed `grad`.

        A scalar is seeded with 1; any other tensor needs `grad`, its
        gradient, of its own shape. Only tracked tensors receive gradients:
        constants are neither walked nor given one. An op may hand one array
        to several parents, so an intermediate node stores its first
        contribution as it comes and adds later ones into a new array. A
        retained gradient owns its array and accumulates in place. Every
        stored gradient is C-contiguous, so each op's backward reads the
        memory layout (and takes the BLAS path) it always has, and gives the
        same bits.

        Each node is freed as soon as it has run: its saved arrays, its links
        to its parents and, unless retained, its gradient. It is marked so
        that a later op cannot silently build on a value whose upstream graph
        is gone (stale forward results).
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
            grad = np.ones_like(self.data)
        elif grad.shape != self.shape:
            raise ShapeError(f"backward() seed of shape {grad.shape} for a tensor of {self.shape}")
        # Post-order DFS over the nodes with a backward; leaves need no visit.
        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        done: set[Tensor] = set()
        stack: list[Tensor] = [self] if self._bw is not None else []
        while stack:
            node = stack.pop()
            if node in seen:
                # A node is pushed again, above its parents, when first
                # visited; by the time that entry pops its parents are done.
                if node not in done:
                    done.add(node)
                    topo.append(node)
                continue
            seen.add(node)
            stack.append(node)
            for p in node._parents:
                if p._bw is not None and p not in seen:
                    stack.append(p)
        del seen, done  # only topo may keep the nodes alive
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, order="C")
        else:
            self.grad += grad
        while topo:
            node = topo.pop()
            if node.grad is not None:
                for parent, g in zip(node._parents, node._bw(node.grad)):
                    if g is None or not parent._track:
                        continue
                    if parent.retain_grad:
                        if parent.grad is None:
                            parent.grad = np.array(g, order="C")
                        else:
                            parent.grad += g
                    elif parent.grad is None:
                        parent.grad = np.ascontiguousarray(g)
                    else:  # C-contiguous, as the stored operand is
                        parent.grad = parent.grad + g
            node._consumed = True
            node._parents = ()
            node._bw = None
            if not node.retain_grad:
                node.grad = None

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return mul_scalar(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, float)):
            raise TypeError("tensor division only supports scalars")
        return mul_scalar(self, 1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return take(self, index)

    def relu(self):
        return relu(self)

    def log(self):
        return log(self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def transpose(self, *axes):
        return transpose(self, axes or None)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bw, op: str) -> Tensor:
    """The result of op `op`, on the tape when a parent is tracked."""
    try:
        if any(p._track for p in parents):
            for p in parents:
                if p._consumed:
                    raise RuntimeError(
                        "tensor reused after backward() consumed its graph; "
                        "recompute the forward pass instead of caching it"
                    )
            return Tensor(data, parents, bw)
        return Tensor(data)
    except NonFiniteError:
        raise _non_finite(op) from None


def _non_finite(op: str) -> NonFiniteError:
    return NonFiniteError(f"non-finite value entering the graph from {op}")


# True while a lean pass runs (`_lean_pass`): `_checked` then probes nothing.
_lean = False


def _checked(arr: np.ndarray, op: str) -> np.ndarray:
    """arr, after the probe a tensor made by op `op` passes: non-finite, it names that op.

    Inside a lean pass it probes nothing: the value reaches a `_guard`
    within the pass.
    """
    if not _lean and not _all_finite(arr):
        raise _non_finite(op)
    return arr


def _guard(arr: np.ndarray, op: str) -> np.ndarray:
    """_checked that probes inside a lean pass too: a value a softmax, relu or LayerNorm would hide.

    The kernels guard their attention scores, FFN hidden layer and LayerNorm
    variance; a pass guards what a relu or an argmax reads, and what leaves it.
    """
    if not _all_finite(arr):
        raise _non_finite(op)
    return arr


def _lean_pass(method):
    """Run an inference pass lean; if it meets a non-finite value, once more with every probe.

    A lean run skips the `_checked` probes and keeps each `_guard`, the
    probe on every point where a non-finite value can vanish: the attention
    scores before their softmax, the FFN hidden layer before its relu and
    the LayerNorm variance (in the kernels), what a pass's relu or argmax
    reads, and what leaves the pass. Every other value reaches one of them
    within the pass, since inf or NaN times any weight, zero included, is
    not finite. So the lean run raises NonFiniteError exactly when the
    probed one does, but maybe at a later op; it then runs again with every
    probe, which raises the probed error. A pass that raises has changed
    none of its inputs (the decoder step returns its new keys and values,
    and the beam keeps them only once its step has run), so the second run
    starts where the first did. The lean run ignores overflow and
    invalid-value warnings, which a value flowing on to the next guard may
    raise; the second run, the one that raises, gives the warnings of a
    probed pass.
    """

    @functools.wraps(method)
    def run(*args):
        global _lean
        _lean = True
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return method(*args)
        except NonFiniteError:
            pass
        finally:
            _lean = False
        return method(*args)

    return run


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.data + b.data
    except ValueError as err:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from err
    return _make(
        out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)), "add"
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.data * b.data
    except ValueError as err:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from err
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
        "mul",
    )


def mul_scalar(a: Tensor, c: float) -> Tensor:
    return _make(a.data * c, (a,), lambda g: (g * c,), "mul_scalar")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ for shapes {a.shape} and {b.shape}")
    out = np.matmul(a.data, b.data)

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(out, (a, b), bw, "matmul")


# -- forward kernels ----------------------------------------------------------
# Each op below builds its tape node on the `_`-prefixed plain-array kernel of
# its forward, so each formula is written once; the `step` forwards of the nn
# modules run the same kernels off the tape.

def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, out=None) -> np.ndarray:
    out = np.matmul(x, w, out=out)
    if b is not None:
        out += b
    return out


def _affine_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of x @ w + b for the input, the weight and the bias."""
    return np.matmul(g, w.T), np.matmul(x.T, g), g.sum(axis=0)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight + bias in one tape node, for a 2-D x (flatten leading axes first).

    Values and gradients are those of the same expression built from matmul
    and add, to the bit.
    """
    if x.ndim != 2:
        raise ShapeError(f"linear needs a 2-D input, got shape {x.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not fit weight {weight.shape}")
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _affine(x.data, weight.data, None if bias is None else bias.data)

    def bw(g):  # a bias-less node has no bias gradient
        return _affine_grads(g, x.data, weight.data)[: len(parents)]

    return _make(out, parents, bw, "linear")


# -- whole transformer blocks ------------------------------------------------
# Each op below is one tape node that replays the composed ops it replaces
# (linear, the head split and merge by reshape/transpose, the residual add,
# relu) with their operand layouts, so values and gradients are the composed
# ones to the bit. A node returns its gradients in the order the composed
# graph accumulated them: an input that graph read twice (the keys and the
# values of one memory) is listed twice, and gets two gradients.

def _heads(a: np.ndarray, n_heads: int, batch: int = 1) -> np.ndarray:
    """(B·T, h*d) rows of B sequences -> the strided (B, h, T, d) view of their heads."""
    n, width = a.shape
    return a.reshape(batch, n // batch, n_heads, width // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(c: np.ndarray) -> np.ndarray:
    """(B, h, T, d) heads -> (B·T, h*d) rows, as a new C-contiguous array."""
    b, h, t, d = c.shape
    return c.transpose(0, 2, 1, 3).reshape(b * t, h * d)


def _keys_values(x: np.ndarray, wk: np.ndarray, bk: np.ndarray, wv: np.ndarray,
                 bv: np.ndarray) -> np.ndarray:
    """The key and value projections of the rows of x (t, d), stacked: (2, t, d)."""
    kv = np.empty((2,) + x.shape)
    _affine(x, wk, bk, out=kv[0])
    _affine(x, wv, bv, out=kv[1])
    return kv


def keys_values(memory: Tensor, wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor) -> Tensor:
    """Key and value projections of the rows of memory (t, d) as one node: (2, t, d)."""
    x = memory.data

    def bw(g):
        gx_k, gwk, gbk = _affine_grads(g[0], x, wk.data)
        gx_v, gwv, gbv = _affine_grads(g[1], x, wv.data)
        return gx_k, gx_v, gwk, gbk, gwv, gbv

    return _make(_keys_values(x, wk.data, bk.data, wv.data, bv.data),
                 (memory, memory, wk, bk, wv, bv), bw, "keys_values")


def _attention(
    x: np.ndarray, kh: np.ndarray, vh: np.ndarray, wq: np.ndarray, bq: np.ndarray,
    wo: np.ndarray, bo: np.ndarray, n_heads: int, batch: int, mask: np.ndarray | None,
):
    """attention()'s forward from the rows of x (B·T, d), B sequences of T rows each.

    kh and vh are B sequences' keys and values split into heads,
    (B, h, t_k, d_head). Returns the query heads, the attention weights
    (B, h, T, t_k), the merged context rows and the output. The scores are
    probed: a non-finite score raises even where the softmax would hide it.
    """
    qh = _heads(_affine(x, wq, bq), n_heads, batch)
    p = np.matmul(qh, kh.swapaxes(-1, -2))
    p *= 1.0 / math.sqrt(x.shape[1] // n_heads)
    if mask is not None:
        p += mask
    _guard(p, "attention")
    _softmax(p, -1, out=p)
    c = _merge_heads(np.matmul(p, vh))
    return qh, p, c, _affine(c, wo, bo)


def attention(
    x: Tensor, kv: Tensor, wq: Tensor, bq: Tensor, wo: Tensor, bo: Tensor,
    n_heads: int, mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention from the rows of x (T, d) over keys_values() output, as one node.

    The node covers the query projection, the head split, the scaled masked
    softmax, the head merge and the output projection. With kv (2, t_k, d),
    every row of x attends over the same t_k positions, under the additive
    (T, t_k) mask if one is given. A 4-D mask (B, 1, T or 1, t_k) makes a
    padded batch: x holds B sequences of T rows each, kv B memories of t_k
    rows each, and sequence b attends over memory b under mask[b], which
    hides its padded keys.
    """
    batch = mask.shape[0] if mask is not None and mask.ndim == 4 else 1
    kh, vh = _heads(kv.data[0], n_heads, batch), _heads(kv.data[1], n_heads, batch)
    qh, p, c, out = _attention(x.data, kh, vh, wq.data, bq.data, wo.data, bo.data, n_heads,
                               batch, mask)

    def bw(g):
        gc, gwo, gbo = _affine_grads(g, c, wo.data)
        gc = np.ascontiguousarray(_heads(gc, n_heads, batch))
        gp = np.matmul(gc, np.swapaxes(vh, -1, -2))
        gv = np.matmul(np.swapaxes(p, -1, -2), gc)
        gp = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p
        gp *= 1.0 / math.sqrt(x.shape[1] // n_heads)
        gq = np.matmul(gp, kh)
        gk = np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gp), -1, -2)
        gkv = np.empty_like(kv.data)
        _heads(gkv[0], n_heads, batch)[...] = gk
        _heads(gkv[1], n_heads, batch)[...] = gv
        gx, gwq, gbq = _affine_grads(_merge_heads(gq), x.data, wq.data)
        return gx, gkv, gwq, gbq, gwo, gbo

    return _make(out, (x, kv, wq, bq, wo, bo), bw, "attention")


def _feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                  b2: np.ndarray):
    """feed_forward()'s forward: the relu mask, the hidden layer (probed) and the output."""
    h = _affine(x, w1, b1)
    _guard(h, "feed_forward")
    mask = h > 0
    r = np.where(mask, h, 0.0)
    return mask, r, _affine(r, w2, b2)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one node; the hidden layer is probed too."""
    mask, r, out = _feed_forward(x.data, w1.data, b1.data, w2.data, b2.data)

    def bw(g):
        gr, gw2, gb2 = _affine_grads(g, r, w2.data)
        gx, gw1, gb1 = _affine_grads(gr * mask, x.data, w1.data)
        return gx, gw1, gb1, gw2, gb2

    return _make(out, (x, w1, b1, w2, b2), bw, "feed_forward")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _make(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,), "relu")


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):  # -> NonFiniteError
        out = np.log(x.data)
    return _make(out, (x,), lambda g: (g / x.data,), "log")


def reduce_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, x.shape).copy(),)

    return _make(out, (x,), bw, "reduce_sum")


def transpose(x: Tensor, axes=None) -> Tensor:
    axes_ = tuple(reversed(range(x.ndim))) if axes is None else tuple(axes)
    inv = np.argsort(axes_)
    return _make(x.data.transpose(axes_), (x,), lambda g: (g.transpose(inv),), "transpose")


def _picks_each_once(index) -> bool:
    """Whether x[index] reads no element of x twice, judged from its first axis alone.

    True for slices, and for a 1-D integer array of distinct non-negative
    rows, alone or paired with 1-D arrays of its length, as in
    x[rows, labels]. Anything else counts as repeating.
    """
    parts = index if isinstance(index, tuple) else (index,)
    if all(isinstance(p, slice) for p in parts):
        return True
    rows = parts[0]
    if not (isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind in "iu"
            and all(isinstance(p, np.ndarray) and p.shape == rows.shape for p in parts[1:])):
        return False
    ids = rows.tolist()
    return len(set(ids)) == len(ids) and (not ids or min(ids) >= 0)


def take(x: Tensor, index) -> Tensor:
    """Index/slice with gradient scatter-add (fancy integer indexing included).

    When the index reads each element once, the backward adds g straight
    into the zero gradient, with np.add.at's bits: both compute 0.0 + g,
    which turns a -0.0 of g into +0.0.
    """
    out = x.data[index]

    def bw(g):
        gx = np.zeros_like(x.data)
        if _picks_each_once(index):
            gx[index] += g
        else:
            np.add.at(gx, index, g)
        return (gx,)

    return _make(out, (x,), bw, "take")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _make(out, tuple(tensors), bw, "concat")


def _check_ids(low: int, high: int, rows: int) -> None:
    """Refuse ids from `low` to `high` for an embedding table of `rows` rows unless all fit."""
    if low < 0 or high >= rows:
        raise ShapeError(f"embedding ids out of range for table of {rows} rows")


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of an embedding table; gradients scatter-add back into it.

    Into a retained table (a parameter) the backward adds only the rows the
    ids touch, each summed as a dense scatter sums it: row r gets
    grad[r] + ((0 + g_1) + g_2), the dense path's bits. An untouched row
    keeps its value, as adding the dense path's +0.0 does, because a
    gradient that starts at +0.0 never holds -0.0. For the same reason,
    distinct ids add g straight into their rows: grad[r] + g_1 has the bits
    of grad[r] + (0 + g_1), which differ only where g_1 is -0.0.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size:
        _check_ids(ids.min(), ids.max(), table.shape[0])
    if not table.retain_grad:
        return take(table, ids)

    def bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        if len(set(ids.tolist())) == ids.size:
            table.grad[ids] += g
            return (None,)
        rows, inverse = np.unique(ids, return_inverse=True)
        summed = np.zeros((len(rows),) + table.shape[1:])
        np.add.at(summed, inverse, g)
        table.grad[rows] += summed
        return (None,)  # accumulated above

    return _make(table.data[ids], (table,), bw, "embedding_lookup")


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along `axis`, into a new array or into `out` (which may be x)."""
    y = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    y = _softmax(x.data, axis)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _make(y, (x,), bw, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (x,), bw, "log_softmax")


_LN_EPS = 1e-12  # LayerNorm's variance offset


def _layer_norm(x: np.ndarray, residual: np.ndarray | None, gain: np.ndarray, bias: np.ndarray):
    """layer_norm()'s forward of x, or of x + residual: the normalized rows, 1/std and the output.

    The out-of-place arithmetic, ufunc for ufunc, written into arrays this
    kernel allocates, never into an input's: xc (h, when there is a
    residual) becomes the output, and xhat holds the squares first. Means
    are sum / n, np.mean's arithmetic without its Python wrapper. A
    variance that overflows raises: it would otherwise normalize every row
    to the bias.
    """
    n = x.shape[-1]
    h = x if residual is None else x + residual
    mu = h.sum(axis=-1, keepdims=True)
    mu /= n
    xc = h - mu if residual is None else np.subtract(h, mu, out=h)
    xhat = np.multiply(xc, xc)
    var = xhat.sum(axis=-1, keepdims=True)
    var /= n
    _guard(var, "layer_norm")
    var += _LN_EPS
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    np.multiply(xc, inv, out=xhat)
    out = np.multiply(xhat, gain, out=xc)
    out += bias
    return xhat, inv, out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    With a residual this normalizes x + residual in the same node, and hands
    both inputs one gradient array, as add() does.
    """
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {x.shape[-1]}"
        )
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"layer_norm: residual {residual.shape} does not match input {x.shape}")
    n = x.shape[-1]
    xhat, inv, out = _layer_norm(x.data, None if residual is None else residual.data,
                                 gain.data, bias.data)

    def bw(g):
        dxhat = g * gain.data
        m1 = dxhat.sum(axis=-1, keepdims=True) / n
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
        dx = inv * (dxhat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        dgain, dbias = (g * xhat).sum(axis=axes), g.sum(axis=axes)
        return (dx, dgain, dbias) if residual is None else (dx, dx, dgain, dbias)

    parents = (x, gain, bias) if residual is None else (x, residual, gain, bias)
    return _make(out, parents, bw, "layer_norm")
