"""Dense float64 tensors with reverse-mode automatic differentiation.

Desk-scale engine: every value is a row-major numpy float64 array, every op
builds a node in a backward tape, and gradients are exact analytic forms
(verified against central finite differences in the test suite). Non-finite
values anywhere are treated as an error state, not a warning.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_grad_enabled = True


class ShapeError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    pass


@contextlib.contextmanager
def no_grad():
    """Disable tape construction (inference and argmax roll-outs)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


def _as_array(value) -> np.ndarray:
    arr = value if type(value) is np.ndarray and value.dtype == np.float64 else np.asarray(
        value, dtype=np.float64
    )
    if not np.isfinite(arr).all():
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
        self._track = retain_grad or (bool(parents) and _grad_enabled)
        self._consumed = False

    # -- bookkeeping ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def tracked(self) -> bool:
        """Whether ops on this tensor are recorded for backward()."""
        return self._track

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def backward(self) -> None:
        """Backpropagate from a scalar; accumulates into retained .grad arrays.

        Only tracked tensors receive gradients: constants are neither walked
        nor given one. An op may hand one array to several parents, so an
        intermediate node stores its first contribution as it comes and adds
        later ones into a new array. A retained gradient owns its array and
        accumulates in place. Every stored gradient is C-contiguous, so each
        op's backward reads the memory layout (and takes the BLAS path) it
        always has, and gives the same bits.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
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
        seed = np.ones_like(self.data)
        self.grad = seed if self.grad is None else self.grad + seed
        for node in reversed(topo):
            if node.grad is None:
                continue
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
        # Free tape memory; only retain_grad leaves keep their gradients.
        # Freed non-leaf nodes are marked so a later op cannot silently build
        # on a value whose upstream graph is gone (stale forward results).
        for node in topo:
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

    def __sub__(self, other):
        return add(self, -_wrap(other))

    def __rsub__(self, other):
        return add(_wrap(other), -self)

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
    """The result of op `op`, on the tape when gradients are on and a parent is tracked."""
    try:
        if _grad_enabled and any(p._track for p in parents):
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


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.matmul(x, w)
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
    out = np.matmul(x.data, weight.data)
    if bias is not None:
        out += bias.data

    def bw(g):
        gx = np.matmul(g, weight.data.T)
        gw = np.matmul(x.data.T, g)
        return (gx, gw) if bias is None else (gx, gw, g.sum(axis=0))

    return _make(out, (x, weight) if bias is None else (x, weight, bias), bw, "linear")


# -- whole transformer blocks ------------------------------------------------
# Each op below is one tape node that replays the composed ops it replaces
# (linear, the head split and merge by reshape/transpose, the residual add,
# relu) with their operand layouts, so values and gradients are the composed
# ones to the bit. A node returns its gradients in the order the composed
# graph accumulated them: an input that graph read twice (the keys and the
# values of one memory) is listed twice, and gets two gradients.

def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(T, h*d) rows -> the strided (h, T, d) view of their heads."""
    return a.reshape(a.shape[0], n_heads, a.shape[1] // n_heads).transpose(1, 0, 2)


def _merge_heads(c: np.ndarray) -> np.ndarray:
    """(h, T, d) heads -> (T, h*d) rows, as a new C-contiguous array."""
    return c.transpose(1, 0, 2).reshape(c.shape[1], -1)


def keys_values(
    memory: Tensor, wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor, past: Tensor | None = None
) -> Tensor:
    """Key and value projections of the rows of memory (t, d) as one node: (2, t, d).

    With `past`, a (2, B, h, t, d_head) cache of B hypotheses' keys and
    values, memory holds the newest position of each hypothesis, (B, d), and
    the result is that cache with the position appended: (2, B, h, t+1, d_head).
    """
    x = memory.data
    kv = np.stack((_affine(x, wk.data, bk.data), _affine(x, wv.data, bv.data)))
    if past is not None:
        b, (_, _, h, _, dh) = x.shape[0], past.shape
        kv = np.concatenate((past.data, kv.reshape(2, b, h, 1, dh)), axis=3)

    def bw(g):
        if past is not None:
            g_past, g = g[:, :, :, :-1], g[:, :, :, -1].reshape(2, b, -1)
        gx_k, gwk, gbk = _affine_grads(g[0], x, wk.data)
        gx_v, gwv, gbv = _affine_grads(g[1], x, wv.data)
        grads = (gx_k, gx_v, gwk, gbk, gwv, gbv)
        return grads if past is None else grads + (g_past,)

    parents = (memory, memory, wk, bk, wv, bv) + (() if past is None else (past,))
    return _make(kv, parents, bw, "keys_values")


def attention(
    x: Tensor, kv: Tensor, wq: Tensor, bq: Tensor, wo: Tensor, bo: Tensor,
    n_heads: int, mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention from the rows of x (T, d) over keys_values() output, as one node.

    The node covers the query projection, the head split, the scaled masked
    softmax, the head merge and the output projection. With kv (2, t_k, d),
    every row of x attends over the same t_k positions, under the additive
    (T, t_k) mask if one is given. With kv a (2, B, h, t, d_head) cache, row
    b of x (B, d) attends over the t positions of hypothesis b. The scores
    are probed like any tensor: a non-finite score raises even where the
    softmax would hide it.
    """
    n, d = x.shape
    dh = d // n_heads
    scale = 1.0 / float(np.sqrt(dh))
    cached = kv.ndim == 5
    q = _affine(x.data, wq.data, bq.data)
    if cached:
        qh, (kh, vh) = q.reshape(n, n_heads, 1, dh), kv.data
    else:
        qh, kh, vh = _heads(q, n_heads), _heads(kv.data[0], n_heads), _heads(kv.data[1], n_heads)
    p = np.matmul(qh, np.swapaxes(kh, -1, -2))
    p *= scale
    if mask is not None:
        p += mask
    if not np.isfinite(p).all():
        raise _non_finite("attention")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    c = np.matmul(p, vh)
    c = c.reshape(n, d) if cached else _merge_heads(c)

    def bw(g):
        gc, gwo, gbo = _affine_grads(g, c, wo.data)
        gc = gc.reshape(qh.shape) if cached else np.ascontiguousarray(_heads(gc, n_heads))
        gp = np.matmul(gc, np.swapaxes(vh, -1, -2))
        gv = np.matmul(np.swapaxes(p, -1, -2), gc)
        gp = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p
        gp *= scale
        gq = np.matmul(gp, kh)
        gk = np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gp), -1, -2)
        gkv = np.empty_like(kv.data)
        if cached:
            gkv[0], gkv[1] = gk, gv
            gq = gq.reshape(n, d)
        else:
            _heads(gkv[0], n_heads)[...] = gk
            _heads(gkv[1], n_heads)[...] = gv
            gq = _merge_heads(gq)
        gx, gwq, gbq = _affine_grads(gq, x.data, wq.data)
        return gx, gkv, gwq, gbq, gwo, gbo

    return _make(_affine(c, wo.data, bo.data), (x, kv, wq, bq, wo, bo), bw, "attention")


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 as one node; the hidden layer is probed too."""
    h = _affine(x.data, w1.data, b1.data)
    if not np.isfinite(h).all():
        raise _non_finite("feed_forward")
    mask = h > 0
    r = np.where(mask, h, 0.0)

    def bw(g):
        gr, gw2, gb2 = _affine_grads(g, r, w2.data)
        gx, gw1, gb1 = _affine_grads(gr * mask, x.data, w1.data)
        return gx, gw1, gb1, gw2, gb2

    return _make(_affine(r, w2.data, b2.data), (x, w1, b1, w2, b2), bw, "feed_forward")


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


def take(x: Tensor, index) -> Tensor:
    """Index/slice with gradient scatter-add (fancy integer indexing included)."""
    out = x.data[index]

    def bw(g):
        gx = np.zeros_like(x.data)
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


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of an embedding table; gradients scatter-add back into it.

    Into a retained table (a parameter) the backward adds only the rows the
    ids touch, each summed as a dense scatter sums it: row r gets
    grad[r] + ((0 + g_1) + g_2), the dense path's bits. An untouched row
    keeps its value, as adding the dense path's +0.0 does, because a
    gradient that starts at +0.0 never holds -0.0.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding ids out of range for table of {table.shape[0]} rows")
    if not table.retain_grad:
        return take(table, ids)

    def bw(g):
        rows, inverse = np.unique(ids, return_inverse=True)
        summed = np.zeros((len(rows),) + table.shape[1:])
        np.add.at(summed, inverse, g)
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[rows] += summed
        return (None,)  # accumulated above

    return _make(table.data[ids], (table,), bw, "embedding_lookup")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

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


def layer_norm(
    x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12, residual: Tensor | None = None
) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine.

    With a residual this normalizes x + residual in the same node, and hands
    both inputs one gradient array, as add() does. A variance that overflows
    raises: it would otherwise normalize every row to the bias.
    """
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {x.shape[-1]}"
        )
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"layer_norm: residual {residual.shape} does not match input {x.shape}")
    h = x.data if residual is None else x.data + residual.data
    n = h.shape[-1]  # means as sum / n: np.mean's arithmetic, without its Python wrapper
    mu = h.sum(axis=-1, keepdims=True) / n
    xc = h - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    if not np.isfinite(var).all():
        raise _non_finite("layer_norm")
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

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
