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

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 or isinstance(shape[0], int) else shape[0])

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


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float, mask: np.ndarray | None) -> Tensor:
    """softmax(q k^T * scale + mask) v over the last two axes, as one node.

    It replays the composed ops (matmul, scale, mask, max-shifted softmax,
    matmul) and their operand layouts, so outputs and gradients are the
    composed ones to the bit. The scores are probed like any tensor: a
    non-finite score raises even where the softmax would hide it.
    """
    s = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    s *= scale
    if mask is not None:
        s += mask
    if not np.isfinite(s).all():
        raise _non_finite("attention")
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = np.matmul(s, v.data)

    def bw(g):
        gs = np.matmul(g, np.swapaxes(v.data, -1, -2))
        gv = np.matmul(np.swapaxes(s, -1, -2), g)
        gs = (gs - (gs * s).sum(axis=-1, keepdims=True)) * s
        gs *= scale
        gq = np.matmul(gs, k.data)
        gk = np.swapaxes(np.matmul(np.swapaxes(q.data, -1, -2), gs), -1, -2)
        return _unbroadcast(gq, q.shape), _unbroadcast(gk, k.shape), _unbroadcast(gv, v.shape)

    return _make(out, (q, k, v), bw, "attention")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _make(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,), "relu")


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = np.exp(x.data)
    return _make(out, (x,), lambda g: (g * out,), "exp")


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


def reduce_mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    count = x.data.size if axis is None else x.shape[axis]
    out = x.data.mean(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2 / count, x.shape).copy(),)

    return _make(out, (x,), bw, "reduce_mean")


def reshape(x: Tensor, shape) -> Tensor:
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),), "reshape")


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
    """Rows of an embedding table; gradients scatter-add back into it."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding ids out of range for table of {table.shape[0]} rows")
    return take(table, ids)


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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine."""
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {x.shape[-1]}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _make(out, (x, gain, bias), bw, "layer_norm")
