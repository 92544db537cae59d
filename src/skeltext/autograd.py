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
        """Backpropagate from a scalar; accumulates into retained .grad arrays."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += np.ones_like(self.data)
        for node in reversed(topo):
            if node._bw is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._bw(node.grad)):
                if g is None:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += g
        # Free tape memory; only retain_grad leaves keep their gradients.
        # Freed non-leaf nodes are marked so a later op cannot silently build
        # on a value whose upstream graph is gone (stale forward results).
        for node in topo:
            if node._bw is not None:
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

    def swap_last(self):
        """Transpose the last two axes (batched matrix transpose)."""
        order = list(range(self.ndim))
        order[-1], order[-2] = order[-2], order[-1]
        return transpose(self, tuple(order))


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bw) -> Tensor:
    if _grad_enabled and any(p._track for p in parents):
        for p in parents:
            if p._consumed:
                raise RuntimeError(
                    "tensor reused after backward() consumed its graph; "
                    "recompute the forward pass instead of caching it"
                )
        return Tensor(data, parents, bw)
    return Tensor(data)


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
    return _make(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


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
    )


def mul_scalar(a: Tensor, c: float) -> Tensor:
    return _make(a.data * c, (a,), lambda g: (g * c,))


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

    return _make(out, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _make(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        out = np.exp(x.data)
    return _make(out, (x,), lambda g: (g * out,))


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):  # -> NonFiniteError
        out = np.log(x.data)
    return _make(out, (x,), lambda g: (g / x.data,))


def reduce_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, x.shape).copy(),)

    return _make(out, (x,), bw)


def reduce_mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    count = x.data.size if axis is None else x.shape[axis]
    out = x.data.mean(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2 / count, x.shape).copy(),)

    return _make(out, (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    return _make(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor, axes=None) -> Tensor:
    axes_ = tuple(reversed(range(x.ndim))) if axes is None else tuple(axes)
    inv = np.argsort(axes_)
    return _make(x.data.transpose(axes_), (x,), lambda g: (g.transpose(inv),))


def take(x: Tensor, index) -> Tensor:
    """Index/slice with gradient scatter-add (fancy integer indexing included)."""
    out = x.data[index]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, g)
        return (gx,)

    return _make(out, (x,), bw)


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

    return _make(out, tuple(tensors), bw)


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

    return _make(y, (x,), bw)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (x,), bw)


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

    return _make(out, (x, gain, bias), bw)
