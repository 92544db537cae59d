"""Layers, optimizer, gradient checking, and checkpoint I/O."""

from __future__ import annotations

import json
import os
from typing import Callable, Iterator

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Tensor

# Large-but-finite mask value: exp() of it underflows to exactly 0.0, which
# keeps masked attention exact while every stored value stays finite.
NEG_INF = -1e9


class Parameter(Tensor):
    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, retain_grad=True)
        self.grad = np.zeros_like(self.data)
        self.name = name


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
                    if isinstance(item, Parameter):
                        yield f"{prefix}{attr}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{attr}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int, bias: bool = True):
        self.weight = Parameter(uniform_init(rng, d_in, d_out, (d_in, d_out)))
        self.bias = Parameter(np.zeros(d_out)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.weight, self.bias)


class Embedding(Module):
    def __init__(self, rng, num_embeddings: int, dim: int):
        self.weight = Parameter(uniform_init(rng, num_embeddings, dim, (num_embeddings, dim)))

    def __call__(self, ids) -> Tensor:
        return ag.embedding_lookup(self.weight, ids)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-12):
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor, residual: Tensor | None = None) -> Tensor:
        """LayerNorm of x, or of x + residual when one is given."""
        return ag.layer_norm(x, self.gain, self.bias, self.eps, residual)


def causal_mask(n: int) -> np.ndarray:
    """Additive mask letting position t attend only to positions <= t."""
    return np.triu(np.full((n, n), NEG_INF), k=1)


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

    def keys_values(self, memory: Tensor, past: Tensor | None = None) -> Tensor:
        """Keys and values of the rows of memory (t_k, d), stacked: (2, t_k, d).

        With `past`, a (2, B, h, t, d_head) self-attention cache, memory is the
        newest position of each of B hypotheses, (B, d), and the result is the
        cache with it appended.
        """
        if past is None and memory.shape[0] == 0:
            raise ShapeError("attention over an empty key set")
        return ag.keys_values(
            memory, self.wk.weight, self.wk.bias, self.wv.weight, self.wv.bias, past
        )

    def __call__(
        self,
        x: Tensor,
        memory: Tensor,
        mask: np.ndarray | None = None,
        kv: Tensor | None = None,
    ) -> Tensor:
        """Attend from the rows of x (t_q, d) over the rows of memory (t_k, d).

        `kv` stands in for keys_values(memory). It is either the memory's
        memoized projections, with the same result, or a self-attention
        cache (2, B, h, t, d_head) that already holds x's newest positions:
        each row of x (B, d) then attends over its own hypothesis. A cache
        holds no future position, so it needs no mask.
        """
        if kv is None:
            kv = self.keys_values(memory)
        return ag.attention(
            x, kv, self.wq.weight, self.wq.bias, self.wo.weight, self.wo.bias,
            self.n_heads, mask,
        )


class FeedForward(Module):
    def __init__(self, rng, d_model: int, d_hidden: int):
        self.lin1 = Linear(rng, d_model, d_hidden)
        self.lin2 = Linear(rng, d_hidden, d_model)

    def __call__(self, x: Tensor) -> Tensor:
        lin1, lin2 = self.lin1, self.lin2
        return ag.feed_forward(x, lin1.weight, lin1.bias, lin2.weight, lin2.bias)


class EncoderLayer(Module):
    def __init__(self, rng, d_model: int, d_hidden: int, n_heads: int):
        self.attn = MultiHeadAttention(rng, d_model, n_heads)
        self.ff = FeedForward(rng, d_model, d_hidden)
        self.ln1 = LayerNorm(d_model)
        self.ln2 = LayerNorm(d_model)

    def __call__(self, x: Tensor) -> Tensor:
        x = self.ln1(x, self.attn(x, x))
        return self.ln2(x, self.ff(x))


class LayerCache:
    """One decoder layer's share of a DecoderCache.

    `memory_kv` is the cross-attention keys_values() of the memory. `self_kv`
    is None for full passes, or the (2, B, h, t, d_head) self-attention keys
    and values of every position decoded so far, one row per hypothesis.
    """

    __slots__ = ("self_kv", "memory_kv")

    def __init__(self, self_kv: Tensor | None, memory_kv: Tensor):
        self.self_kv = self_kv
        self.memory_kv = memory_kv


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
        cache: LayerCache | None = None,
    ) -> Tensor:
        """With a cache whose self_kv is set, x (B, d) is one incremental step:
        its keys and values are appended to self_kv before it attends."""
        self_kv = memory_kv = None
        if cache is not None:
            memory_kv = cache.memory_kv
            if cache.self_kv is not None:
                self_kv = cache.self_kv = self.self_attn.keys_values(x, cache.self_kv)
        x = self.ln1(x, self.self_attn(x, x, self_mask, self_kv))
        x = self.ln2(x, self.cross_attn(x, memory, None, memory_kv))
        return self.ln3(x, self.ff(x))


class TransformerEncoder(Module):
    def __init__(self, rng, d_model: int, d_hidden: int, n_heads: int, n_layers: int):
        self.layers = [EncoderLayer(rng, d_model, d_hidden, n_heads) for _ in range(n_layers)]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class DecoderCache:
    """What a TransformerDecoder reuses across passes over one memory.

    Per layer: the cross-attention projections of the memory, computed once,
    and, when `incremental`, the self-attention keys and values of every
    position decoded so far for B live hypotheses, (2, B, h, t, d_head), with
    `length` = t. A cache that is not incremental serves full passes: each
    decodes a whole sequence and only the memory projections are reused.
    """

    def __init__(self, decoder: TransformerDecoder, memory: Tensor, incremental: bool = True):
        self.incremental = incremental
        self.layers: list[LayerCache] = []
        for layer in decoder.layers:
            attn = layer.self_attn
            self_kv = None
            if incremental:
                self_kv = Tensor(np.zeros((2, 1, attn.n_heads, 0, attn.d_head)))
            self.layers.append(LayerCache(self_kv, layer.cross_attn.keys_values(memory)))
        self.length = 0

    def reorder(self, parents) -> None:
        """Keep row parents[i] of each self-attention cache as hypothesis i."""
        index = (slice(None), np.asarray(parents, dtype=np.int64))
        for layer in self.layers:
            layer.self_kv = layer.self_kv[index]


class TransformerDecoder(Module):
    def __init__(self, rng, d_model: int, d_hidden: int, n_heads: int, n_layers: int):
        self.layers = [DecoderLayer(rng, d_model, d_hidden, n_heads) for _ in range(n_layers)]

    def __call__(
        self, x: Tensor, memory: Tensor, causal: bool, cache: DecoderCache | None = None
    ) -> Tensor:
        """Decode the rows of x (T, d) against memory.

        With an incremental cache, x is (B, d): position cache.length of each
        hypothesis, decoded causally against the cached earlier positions.
        Any other cache only supplies the memory projections.
        """
        if cache is not None and cache.incremental:
            for layer, layer_cache in zip(self.layers, cache.layers):
                x = layer(x, memory, None, layer_cache)
            cache.length += 1
            return x
        mask = causal_mask(x.shape[0]) if causal else None
        layer_caches = cache.layers if cache is not None else [None] * len(self.layers)
        for layer, layer_cache in zip(self.layers, layer_caches):
            x = layer(x, memory, mask, layer_cache)
        return x


def inverse_sqrt_lr(step: int, peak: float, warmup: int) -> float:
    """Linear warmup to the peak, then decay proportional to 1/sqrt(step)."""
    if step <= warmup:
        return peak * step / warmup
    return peak * np.sqrt(warmup / step)


class Adam:
    """Adam with the inverse-sqrt warmup schedule used by both training stages."""

    def __init__(
        self,
        params: list[Parameter],
        peak_lr: float,
        warmup: int,
        beta1: float = 0.9,
        beta2: float = 0.98,
        eps: float = 1e-9,
    ):
        self._params = params
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def lr(self, step: int | None = None) -> float:
        return inverse_sqrt_lr(self.step_count if step is None else step, self.peak_lr, self.warmup)

    def step(self) -> float:
        """Apply one update, zero gradients, advance the step counter."""
        self.step_count += 1
        lr = self.lr()
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for p, m, v in zip(self._params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.grad[...] = 0.0
        return lr


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: list[Parameter],
    rng: np.random.Generator,
    samples_per_param: int = 16,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Coordinates are sampled per parameter. Relative error uses a 1e-4 floor
    in the denominator so finite-difference rounding noise on near-zero
    gradients does not register as failure. Zero parameters -> 0.0.
    """
    if not params:
        return 0.0
    for p in params:
        p.grad[...] = 0.0
    loss_fn().backward()
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.grad[...] = 0.0

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        idx = np.arange(n) if n <= samples_per_param else rng.choice(n, samples_per_param, replace=False)
        for i in idx:
            orig = flat[i]
            with ag.no_grad():
                flat[i] = orig + eps
                hi = loss_fn().item()
                flat[i] = orig - eps
                lo = loss_fn().item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * eps)
            a = ga.reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            worst = max(worst, rel)
    return worst


# -- checkpoints -----------------------------------------------------------
# A checkpoint is a directory: manifest.json lists {name, shape, dtype} in
# order, params.bin concatenates the values as little-endian float32 in that
# order. optimizer.bin (same scheme: first moments then second moments, plus
# optimizer.json for the step counter) appears only for mid-training saves.

MANIFEST_FILE = "manifest.json"
PARAMS_FILE = "params.bin"
OPTIMIZER_FILE = "optimizer.bin"
OPTIMIZER_META_FILE = "optimizer.json"


def _write_f32(path: str, arrays: list[np.ndarray]) -> None:
    with open(path, "wb") as fh:
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_f32(path: str, manifest: list[dict]) -> list[np.ndarray]:
    sizes = [int(np.prod(e["shape"], dtype=np.int64)) if e["shape"] else 1 for e in manifest]
    expected, actual = 4 * sum(sizes), os.path.getsize(path)
    if actual != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes of float32 for the manifest, file has {actual}"
        )
    raw = np.fromfile(path, dtype="<f4")
    arrays, offset = [], 0
    for entry, size in zip(manifest, sizes):
        arrays.append(raw[offset : offset + size].astype(np.float64).reshape(entry["shape"]))
        offset += size
    return arrays


def save_checkpoint(directory: str, model: Module, optimizer: Adam | None = None) -> None:
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
    _write_f32(os.path.join(directory, PARAMS_FILE), [p.data for _, p in named])
    if optimizer is not None:
        _write_f32(
            os.path.join(directory, OPTIMIZER_FILE), list(optimizer.m) + list(optimizer.v)
        )
        with open(os.path.join(directory, OPTIMIZER_META_FILE), "w", encoding="utf-8") as fh:
            json.dump({"step": optimizer.step_count}, fh)


def load_checkpoint(directory: str, model: Module, optimizer: Adam | None = None) -> None:
    with open(os.path.join(directory, MANIFEST_FILE), encoding="utf-8") as fh:
        manifest = json.load(fh)
    named = list(model.named_parameters())
    if [n for n, _ in named] != [e["name"] for e in manifest]:
        raise ValueError(f"checkpoint {directory} does not match the model's parameter set")
    for (_, p), entry in zip(named, manifest):
        if list(p.shape) != list(entry["shape"]):
            raise ValueError(
                f"checkpoint {directory}: shape {entry['shape']} for {entry['name']} "
                f"does not match model shape {list(p.shape)}"
            )
    arrays = _read_f32(os.path.join(directory, PARAMS_FILE), manifest)
    moments = step = None
    if optimizer is not None:
        # Read the whole optimizer state before mutating anything, so a
        # damaged checkpoint leaves the model and optimizer as they were.
        opt_path = os.path.join(directory, OPTIMIZER_FILE)
        meta_path = os.path.join(directory, OPTIMIZER_META_FILE)
        has_moments, has_step = os.path.exists(opt_path), os.path.exists(meta_path)
        if has_moments != has_step:
            missing = OPTIMIZER_META_FILE if has_moments else OPTIMIZER_FILE
            raise ValueError(f"checkpoint {directory}: optimizer state has no {missing}")
        if has_moments:
            moments = _read_f32(opt_path, manifest + manifest)
            with open(meta_path, encoding="utf-8") as fh:
                step = json.load(fh)["step"]
    for (_, p), arr in zip(named, arrays):
        p.data[...] = arr
    if moments is not None:
        half = len(manifest)
        for m, arr in zip(optimizer.m, moments[:half]):
            m[...] = arr
        for v, arr in zip(optimizer.v, moments[half:]):
            v[...] = arr
        optimizer.step_count = step
