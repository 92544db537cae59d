"""Layers, the Adam optimizer, and checkpoint I/O."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Tensor
from .config import read_json

# Large-but-finite mask value: exp() of it underflows to exactly 0.0, which
# keeps masked attention exact while every stored value stays finite.
NEG_INF = -1e9


class Parameter(Tensor):
    """A trained tensor, whose gradient is allocated at first read, as zeros.

    So a parameter that is never trained holds no gradient array, and Adam
    binds each gradient to its own buffer with nothing left behind.
    """

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, retain_grad=True)
        del self.grad

    def __getattr__(self, name: str):
        # Called only for an attribute that is not set: grad, before its first read.
        if name != "grad":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.grad = np.zeros(self.data.shape)
        return self.grad


def uniform_init(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base class; parameters are discovered by attribute walk in creation order."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, val in vars(self).items():
            if isinstance(val, Parameter):
                yield prefix + attr, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{prefix}{attr}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{attr}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int, bias: bool = True):
        self.weight = Parameter(uniform_init(rng, d_in, d_out, (d_in, d_out)))
        self.bias = Parameter(np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.weight, self.bias)

    def step(self, x: np.ndarray) -> np.ndarray:
        """__call__'s forward on arrays, off the tape."""
        bias = None if self.bias is None else self.bias.data
        return ag._checked(ag._affine(x, self.weight.data, bias), "linear")


class Embedding(Module):
    def __init__(self, rng, num_embeddings: int, dim: int):
        self.weight = Parameter(uniform_init(rng, num_embeddings, dim, (num_embeddings, dim)))

    def __call__(self, ids) -> Tensor:
        return ag.embedding_lookup(self.weight, ids)

    def step(self, ids: list[int]) -> np.ndarray:
        """__call__'s forward of a list of ids on arrays, off the tape."""
        table = self.weight.data
        if ids:
            ag._check_ids(min(ids), max(ids), len(table))
        return ag._checked(table[ids], "embedding_lookup")


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        """LayerNorm of x, or of x + residual when one is given."""
        return ag.layer_norm(x, self.gain, self.bias, residual=residual)

    def step(self, x: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """__call__'s forward of x + residual on arrays, off the tape."""
        out = ag._layer_norm(x, residual, self.gain.data, self.bias.data)[-1]
        return ag._checked(out, "layer_norm")


def causal_mask(n: int) -> np.ndarray:
    """Additive mask letting position t attend only to positions <= t."""
    return np.triu(np.full((n, n), NEG_INF), k=1)


def padding_mask(lengths: Sequence[int], width: int) -> np.ndarray | None:
    """Additive (B, 1, 1, width) mask hiding the keys past each sequence's length.

    None for one sequence without padding, which attention takes unbatched.
    """
    if len(lengths) == 1 and lengths[0] == width:
        return None
    real = np.arange(width) < np.asarray(lengths)[:, None]
    return np.where(real, 0.0, NEG_INF)[:, None, None, :]


@dataclass
class Padded:
    """B sequences of rows stacked as one (B·width, d) tensor, each padded to `width` rows.

    Sequence b holds rows b·width .. b·width + lengths[b] - 1; the rows after
    them are padding, which attention hides as keys and the losses never read.
    """

    rows: Tensor
    lengths: list[int]

    @property
    def width(self) -> int:
        return self.rows.shape[0] // len(self.lengths)

    def mask(self) -> np.ndarray | None:
        return padding_mask(self.lengths, self.width)

    def index(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """Flat row numbers of rows[b], row indices within sequence b, for every b."""
        width = self.width
        return np.concatenate([b * width + np.asarray(r, dtype=np.int64) for b, r in enumerate(rows)])

    def select(self, which: Sequence[int]) -> Padded:
        """The sequences `which`, padded to the longest of them."""
        if list(which) == list(range(len(self.lengths))):
            return self
        lengths = [self.lengths[b] for b in which]
        width, old = max(lengths), self.width
        rows = np.concatenate([b * old + np.arange(width) for b in which])
        return Padded(self.rows[rows], lengths)


class Detached:
    """A retained leaf copy of a padded pass, and one backward through that pass.

    Later passes read the leaf, a Padded over every row of the pass, padding
    included, and backpropagate into it as soon as their losses are known,
    so the tape holds the padded pass and one later pass at most. backward()
    then walks the graph below the leaf's rows once, with its gradient.
    """

    def __init__(self, padded: Padded):
        self.padded = padded
        self.leaf = Padded(Tensor(padded.rows.data, retain_grad=True), padded.lengths)

    def backward(self) -> None:
        """Backpropagate the leaf's gradient through the padded pass; nothing if it has none."""
        if self.leaf.rows.grad is not None:
            self.padded.rows.backward(self.leaf.rows.grad)


class MultiHeadAttention(Module):
    """Scaled dot-product attention; full/bidirectional unless a mask says otherwise."""

    def __init__(self, rng, d_model: int, n_heads: int):
        if d_model % n_heads != 0:
            raise ShapeError(f"model width {d_model} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.wq = Linear(rng, d_model, d_model)
        self.wk = Linear(rng, d_model, d_model)
        self.wv = Linear(rng, d_model, d_model)
        self.wo = Linear(rng, d_model, d_model)

    def keys_values(self, memory: Tensor) -> Tensor:
        """Keys and values of the rows of memory (t_k, d), stacked: (2, t_k, d)."""
        if memory.shape[0] == 0:
            raise ShapeError("attention over an empty key set")
        return ag.keys_values(memory, self.wk.weight, self.wk.bias, self.wv.weight, self.wv.bias)

    def __call__(self, x: Tensor, memory: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attend from the rows of x (t_q, d) over the rows of memory (t_k, d)."""
        return ag.attention(
            x, self.keys_values(memory), self.wq.weight, self.wq.bias, self.wo.weight,
            self.wo.bias, self.n_heads, mask,
        )

    def keys_values_step(self, x: np.ndarray, batch: int = 1) -> np.ndarray:
        """keys_values() of B sequences' rows x (B·T, d) on arrays, as heads (2, B, h, T, d_head)."""
        wk, wv = self.wk, self.wv
        kv = ag._checked(ag._keys_values(x, wk.weight.data, wk.bias.data, wv.weight.data,
                                         wv.bias.data), "keys_values")
        return kv.reshape(2, batch, x.shape[0] // batch, self.n_heads, self.d_head).swapaxes(2, 3)

    def step(self, x: np.ndarray, kv: np.ndarray) -> np.ndarray:
        """__call__'s forward on arrays, off the tape, over keys and values split into heads.

        With kv (2, B, h, t, d_head), the rows of x (B·T, d) of sequence b
        attend over its t positions; with (2, 1, h, t, d_head), every row
        over the same ones.
        """
        wq, wo = self.wq, self.wo
        out = ag._attention(x, kv[0], kv[1], wq.weight.data, wq.bias.data, wo.weight.data,
                            wo.bias.data, self.n_heads, kv.shape[1], None)[-1]
        return ag._checked(out, "attention")


class FeedForward(Module):
    def __init__(self, rng, d_model: int, d_hidden: int):
        self.lin1 = Linear(rng, d_model, d_hidden)
        self.lin2 = Linear(rng, d_hidden, d_model)

    def __call__(self, x: Tensor) -> Tensor:
        lin1, lin2 = self.lin1, self.lin2
        return ag.feed_forward(x, lin1.weight, lin1.bias, lin2.weight, lin2.bias)

    def step(self, x: np.ndarray) -> np.ndarray:
        """__call__'s forward on arrays, off the tape."""
        lin1, lin2 = self.lin1, self.lin2
        out = ag._feed_forward(x, lin1.weight.data, lin1.bias.data, lin2.weight.data,
                               lin2.bias.data)[-1]
        return ag._checked(out, "feed_forward")


class EncoderLayer(Module):
    def __init__(self, rng, d_model: int, d_hidden: int, n_heads: int):
        self.attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ff = FeedForward(rng, d_model, d_hidden)
        self.ln1 = LayerNorm(d_model)
        self.ln2 = LayerNorm(d_model)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = self.ln1(x, self.attn(x, x, mask))
        return self.ln2(x, self.ff(x))

    def step(self, x: np.ndarray) -> np.ndarray:
        """__call__'s forward of one sequence's rows x (n, d) on arrays, off the tape."""
        x = self.ln1.step(x, self.attn.step(x, self.attn.keys_values_step(x)))
        return self.ln2.step(x, self.ff.step(x))


class DecoderLayer(Module):
    """Self-attention (optionally causal) + cross-attention + feed-forward, post-LN."""

    def __init__(self, rng, d_model: int, d_hidden: int, n_heads: int):
        self.self_attn = MultiHeadAttention(rng, d_model, n_heads)
        self.cross_attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ff = FeedForward(rng, d_model, d_hidden)
        self.ln1 = LayerNorm(d_model)
        self.ln2 = LayerNorm(d_model)
        self.ln3 = LayerNorm(d_model)

    def __call__(
        self,
        x: Tensor,
        memory: Tensor,
        self_mask: np.ndarray | None = None,
        memory_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Each attention takes its own mask."""
        x = self.ln1(x, self.self_attn(x, x, self_mask))
        x = self.ln2(x, self.cross_attn(x, memory, memory_mask))
        return self.ln3(x, self.ff(x))

    def step(self, x: np.ndarray, memory_kv: np.ndarray, past: np.ndarray | None = None,
             parents: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """T new positions of each of B hypotheses, x (B·T, d), through the layer on arrays.

        memory_kv is the memory's cross-attention keys and values
        (2, 1, h, t_k, d_head). With past None, x is one sequence decoded
        afresh, which attends over its own keys and values. Otherwise past
        holds the self-attention keys and values of t earlier positions,
        (2, B', h, t, d_head), and hypothesis i continues row parents[i] of
        it. Returns the layer's output and its new past, (2, B, h, t+T,
        d_head); no input changes. Past rows were probed when they were
        made; only the new ones are.
        """
        sa = self.self_attn
        kv = sa.keys_values_step(x, 1 if past is None else len(parents))
        if past is not None:
            kv = np.concatenate((past[:, parents], kv), axis=3)
        x = self.ln1.step(x, sa.step(x, kv))
        x = self.ln2.step(x, self.cross_attn.step(x, memory_kv))
        return self.ln3.step(x, self.ff.step(x)), kv


class TransformerEncoder(Module):
    def __init__(self, rng, d_model: int, d_hidden: int, n_heads: int, n_layers: int):
        self.layers = [EncoderLayer(rng, d_model, d_hidden, n_heads) for _ in range(n_layers)]

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Encode the rows of x; with a padding mask (Padded.mask), a padded batch of them."""
        for layer in self.layers:
            x = layer(x, mask)
        return x

    def step(self, x: np.ndarray) -> np.ndarray:
        """__call__'s forward of one sequence's rows x (n, d) on arrays, off the tape."""
        for layer in self.layers:
            x = layer.step(x)
        return x


class TransformerDecoder(Module):
    def __init__(self, rng, d_model: int, d_hidden: int, n_heads: int, n_layers: int):
        self.layers = [DecoderLayer(rng, d_model, d_hidden, n_heads) for _ in range(n_layers)]

    def __call__(
        self, x: Tensor, memory: Padded, causal: bool, mask: np.ndarray | None = None,
    ) -> Tensor:
        """Decode the rows of x (T, d) against memory.

        The key-padding mask of a padded batch of x (Padded.mask) goes in
        `mask`; the memory's comes from the memory.
        """
        if causal:
            causal_part = causal_mask(x.shape[0] if mask is None else mask.shape[-1])
            mask = causal_part if mask is None else mask + causal_part
        memory_mask = memory.mask()
        for layer in self.layers:
            x = layer(x, memory.rows, mask, memory_mask)
        return x

    def memory_kv(self, memory: np.ndarray) -> list[np.ndarray]:
        """Each layer's cross-attention keys and values of memory (t_k, d), (2, 1, h, t_k, d_head)."""
        return [layer.cross_attn.keys_values_step(memory) for layer in self.layers]

    def step(self, x: np.ndarray, memory_kv: list[np.ndarray],
             past: list[np.ndarray] | None = None,
             parents: Sequence[int] | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
        """Decode T new positions of each of B hypotheses, x (B·T, d), against memory_kv's table.

        memory_kv is the table's memory_kv(). past None starts afresh: x
        is one sequence of T positions. Otherwise past is a step's returned
        past, and hypothesis i continues its row parents[i]. A new position
        attends over every position of its hypothesis, unmasked: the beam
        steps one position at a time, and a non-causal pass over a whole
        state is one step afresh. Returns the output rows and each layer's
        new past, which grows by T positions; nothing is stored, and no
        input changes. Inference-only: the ops' forward kernels run on
        plain arrays, off the tape, and a non-finite result names its op.
        """
        new_past = []
        for layer, kv, layer_past in zip(self.layers, memory_kv,
                                         [None] * len(self.layers) if past is None else past):
            x, layer_past = layer.step(x, kv, layer_past, parents)
            new_past.append(layer_past)
        return x, new_past


def inverse_sqrt_lr(step: int, peak: float, warmup: int) -> float:
    """Linear warmup to the peak, then decay proportional to 1/sqrt(step)."""
    if step <= warmup:
        return peak * step / warmup
    return peak * np.sqrt(warmup / step)


# Adam's moment decay rates and denominator offset, shared by both stages.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
# Values per slice of an Adam update, which with its two temporaries stays in
# cache. On a 2-core Xeon with one BLAS thread, a step over the editor's
# 234,464 values took 1.8-2.0 ms in slices of 32K values, 3.3 ms in one pass
# over the whole buffers and 2.4-2.8 ms in a pass per parameter.
ADAM_BLOCK = 32_768


class Adam:
    """Adam with the inverse-sqrt warmup schedule used by both training stages.

    The values, gradients and both moments live in flat buffers, in parameter
    order, `_data`, `_grad`, `_m` and `_v`: each parameter's `data` and `grad`
    are C-contiguous views of its part of them. An update runs over slices of
    ADAM_BLOCK values, across parameter boundaries, and zeroes every gradient
    at once. Each value goes through the arithmetic of an update parameter by
    parameter, in the same order, so it gets the same bits.
    """

    def __init__(self, params: list[Parameter], peak_lr: float, warmup: int):
        self._params = params
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.step_count = 0
        total = sum(p.data.size for p in params)
        self._data, self._grad, self._m, self._v = np.zeros((4, total))
        self._grads: list[np.ndarray] = []  # the views each p.grad is bound to
        start = 0
        for p in params:
            end = start + p.data.size
            self._data[start:end] = p.data.reshape(-1)
            p.data = self._data[start:end].reshape(p.shape)
            self._grad[start:end] = p.grad.reshape(-1)
            p.grad = self._grad[start:end].reshape(p.shape)
            self._grads.append(p.grad)
            start = end

    def lr(self) -> float:
        return inverse_sqrt_lr(self.step_count, self.peak_lr, self.warmup)

    def step(self) -> float:
        """Apply one update, zero gradients, advance the step counter."""
        for p, view in zip(self._params, self._grads):
            if p.grad is not view:  # rebound since, by code that assigns p.grad itself
                view[...] = p.grad
                p.grad = view
        self.step_count += 1
        lr = self.lr()
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        tmp1, tmp2 = np.empty((2, min(self._data.size, ADAM_BLOCK)))
        for first in range(0, self._data.size, ADAM_BLOCK):
            block = slice(first, first + ADAM_BLOCK)
            g, m, v = self._grad[block], self._m[block], self._v[block]
            t1, t2 = tmp1[: len(g)], tmp2[: len(g)]
            # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g²
            m *= b1
            m += np.multiply(1 - b1, g, out=t1)
            v *= b2
            v += np.multiply(1 - b2, np.multiply(g, g, out=t1), out=t1)
            # the step: lr (m / c1) / (sqrt(v / c2) + eps)
            np.multiply(lr, np.divide(m, c1, out=t1), out=t1)
            np.add(np.sqrt(np.divide(v, c2, out=t2), out=t2), ADAM_EPS, out=t2)
            np.divide(t1, t2, out=t1)
            self._data[block] -= t1
        self._grad[...] = 0.0
        return lr


# -- checkpoints -----------------------------------------------------------
# A checkpoint is a directory: manifest.json lists {name, shape, dtype} in
# order, params.bin concatenates the values as little-endian float32 in that
# order. Directories written with the optimizer state of earlier versions
# also hold optimizer.bin and optimizer.json, which loading ignores.

MANIFEST_FILE = "manifest.json"
PARAMS_FILE = "params.bin"


def save_checkpoint(directory: str, model: Module) -> None:
    os.makedirs(directory, exist_ok=True)
    named = list(model.named_parameters())
    names = [n for n, _ in named]
    if len(set(names)) != len(names):
        raise ValueError("duplicate parameter names in model")
    manifest = [
        {"name": n, "shape": list(p.shape), "dtype": "float32"} for n, p in named
    ]
    with open(os.path.join(directory, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    with open(os.path.join(directory, PARAMS_FILE), "wb") as fh:
        for _, p in named:
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def load_checkpoint(directory: str, model: Module) -> None:
    """Set the model's parameters from a checkpoint directory.

    Every file is read and checked before any parameter changes, and a
    damaged one, or a non-finite value, ends in a ValueError naming it.
    """
    path = os.path.join(directory, MANIFEST_FILE)
    manifest = read_json(path)
    if not isinstance(manifest, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and isinstance(e.get("shape"), list)
        for e in manifest
    ):
        raise ValueError(f"{path}: expected a JSON list of entries with a name and a shape list")
    named = list(model.named_parameters())
    if [n for n, _ in named] != [e["name"] for e in manifest]:
        raise ValueError(f"checkpoint {directory} does not match the model's parameter set")
    for (_, p), entry in zip(named, manifest):
        if list(p.shape) != entry["shape"]:
            raise ValueError(
                f"checkpoint {directory}: shape {entry['shape']} for {entry['name']} "
                f"does not match model shape {list(p.shape)}"
            )
    path = os.path.join(directory, PARAMS_FILE)
    expected, actual = 4 * sum(p.data.size for _, p in named), os.path.getsize(path)
    if actual != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes of float32 for the manifest, file has {actual}"
        )
    raw = np.fromfile(path, dtype="<f4")
    ends = np.cumsum([p.data.size for _, p in named]).tolist()
    # min and max build no array the size of the file; a NaN reaches both, an infinity one.
    if raw.size and not np.isfinite((raw.min(), raw.max())).all():
        first = int(np.argmin(np.isfinite(raw)))  # the first non-finite value
        name = next(name for (name, _), end in zip(named, ends) if first < end)
        raise ValueError(f"{path}: parameter {name} holds a non-finite value")
    for (_, p), end in zip(named, ends):
        p.data[...] = raw[end - p.data.size : end].reshape(p.shape)
