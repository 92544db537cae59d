"""Shared test utilities: random fixtures, tiny model builders and the references of fast paths."""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np

from skeltext import autograd as ag
from skeltext.autograd import Tensor
from skeltext.config import RunConfig
from skeltext.data import Attribute, Example, Table, Vocabulary, linearize_table
from skeltext.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, inverse_sqrt_lr
from skeltext.oracle import edit_loss_example
from skeltext.training import build_editor, build_pointer

WORDS = (
    "Alda Bram Cato Delia Edmund Falk Greta Hollis Lunden Varano Kestwick "
    "physicist sculptor botanist 1950 1961 14 March October won born the a in was ."
).split()

KEYS = ("Name_ID", "Place_of_birth", "Date_of_birth", "Occupation", "Award_received")


def all_value_tokens(table: Table) -> list[str]:
    """Every value token of the table, attribute by attribute."""
    return [t for a in table.attributes for t in a.value_tokens]


def blas_fingerprint() -> str:
    """The sha256 of a few fixed float64 matmuls' bytes, at the tiny models' widths.

    Two BLAS kernels that sum these products in different orders give
    different fingerprints; bit-exact pins are recorded per fingerprint.
    """
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for m, k, n in ((7, 16, 16), (16, 7, 24), (5, 24, 16)):
        digest.update(np.matmul(rng.normal(size=(m, k)), rng.normal(size=(k, n))).tobytes())
    return digest.hexdigest()


def random_table(rng: np.random.Generator, max_attrs: int = 4, max_value_len: int = 3) -> Table:
    n_attrs = int(rng.integers(1, max_attrs + 1))
    keys = list(rng.choice(len(KEYS), size=n_attrs, replace=False))
    attrs = []
    for k in keys:
        length = int(rng.integers(1, max_value_len + 1))
        value = tuple(WORDS[int(i)] for i in rng.integers(0, len(WORDS), size=length))
        attrs.append(Attribute(KEYS[int(k)], value))
    return Table(tuple(attrs))


def random_tokens(rng: np.random.Generator, max_len: int = 8, alphabet=WORDS) -> list[str]:
    length = int(rng.integers(0, max_len + 1))
    return [alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length)]


def tiny_config(**overrides) -> RunConfig:
    base = dict(
        d_model=16, d_hidden=24, n_heads=2, n_layers=1,
        token_dim=10, key_dim=6, pos_dim=4, k_max=4,
        pointer_epochs=1, editor_epochs=1, batch_size=4,
        pointer_warmup=10, editor_warmup=10, seed=0,
    )
    base.update(overrides)
    return RunConfig(**base).validate()


def tiny_vocabs() -> tuple[Vocabulary, Vocabulary]:
    return Vocabulary(WORDS), Vocabulary(KEYS)


def tiny_pointer(seed: int = 0, **config_overrides):
    cfg = tiny_config(seed=seed, **config_overrides)
    vocab, key_vocab = tiny_vocabs()
    return build_pointer(cfg, vocab, key_vocab), cfg


def tiny_editor(seed: int = 0, **config_overrides):
    cfg = tiny_config(seed=seed, **config_overrides)
    vocab, key_vocab = tiny_vocabs()
    return build_editor(cfg, vocab, key_vocab), cfg


# The inference passes that run lean (autograd._lean_pass): (class, method name).
def lean_passes() -> list[tuple[type, str]]:
    from skeltext.editor import EditRealizer
    from skeltext.encoder import TableEncoder
    from skeltext.pointer import SkeletonPointer

    return [(TableEncoder, "step"), (SkeletonPointer, "_step_log_probs"),
            (EditRealizer, "decode_hidden")]


@contextlib.contextmanager
def every_probe():
    """Run each lean pass as its undecorated method: every probe runs, and no pass runs twice."""
    saved = [(cls, name, vars(cls)[name]) for cls, name in lean_passes()]
    try:
        for cls, name, method in saved:
            setattr(cls, name, method.__wrapped__)
        yield
    finally:
        for cls, name, method in saved:
            setattr(cls, name, method)


def decode_hidden(model, tokens, memory) -> Tensor:
    """EditRealizer.decode_hidden on the tape: the editor's decoder outputs for tokens, a Tensor.

    The reference of the array pass; `memory` is the table's Padded encoding.
    """
    return model.decode_batch([tokens], memory, False).rows


def table_memory_kv(model, table: Table) -> list[np.ndarray]:
    """The memory_kv stage 1 and stage 2 build for a table: its array encoding, projected."""
    return model.decoder.memory_kv(model.encoder.step(linearize_table(table)))


def encode_cells(model, table: Table):
    """A table's memory and the tokens of its cells, the copy addresses the pointer takes."""
    cells = linearize_table(table)
    return model.encoder(cells), [c.token for c in cells]


def small_example(rng: np.random.Generator) -> Example:
    """Table plus a reference that overlaps its values (skeleton annotated later)."""
    table = random_table(rng)
    value_tokens = all_value_tokens(table)
    ref: list[str] = []
    for tok in value_tokens:
        if rng.uniform() < 0.3:
            ref.append(WORDS[int(rng.integers(0, len(WORDS)))])
        ref.append(tok)
    ref.append(".")
    return Example(table, tuple(ref))


def per_example_edit_step(model, examples, rngs, lam: float = 1.0) -> list[dict[str, float]]:
    """The per-example reference of the micro-batched editor step: a graph and a backward each.

    Adds the gradient of the batch's mean edit loss into the parameters and
    returns each example's loss parts.
    """
    parts = []
    for ex, rng in zip(examples, rngs):
        memory = model.encoder(linearize_table(ex.table))
        loss = edit_loss_example(model, memory, ex.skeleton, ex.reference, rng, lam)
        (loss.total / len(examples)).backward()
        parts.append(loss.as_dict())
    return parts


def per_example_pointer_step(model, examples) -> list[float]:
    """The per-example reference of the batched pointer step: a graph and a backward each.

    Adds the gradient of the batch's mean loss into the parameters and
    returns each example's loss.
    """
    losses = []
    for ex in examples:
        loss = model.loss(ex, *encode_cells(model, ex.table))
        (loss / len(examples)).backward()
        losses.append(loss.item())
    return losses


# -- the composed reference of the fused transformer blocks ------------------
# The single ops that skeltext.autograd's keys_values, attention,
# feed_forward and residual layer_norm nodes replace, composed as the model
# composed them before those nodes existed, and the decoder step on the tape
# ops. The byte-equality tests compare the fused nodes and the array step
# against these.


def reshape(x: Tensor, shape) -> Tensor:
    return ag._make(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),), "reshape")


def composed_sdpa(q: Tensor, k: Tensor, v: Tensor, scale: float, mask) -> Tensor:
    """softmax(q k^T * scale + mask) v over the last two axes."""
    order = list(range(k.ndim))
    order[-1], order[-2] = order[-2], order[-1]
    scores = (q @ k.transpose(*order)) * scale
    if mask is not None:
        scores = scores + Tensor(mask)
    return ag.softmax(scores, axis=-1) @ v


def composed_keys_values(attn, memory: Tensor) -> tuple[Tensor, Tensor]:
    """Keys and values of memory (t_k, d), each split into heads: (h, t_k, d_head)."""
    t_k = memory.shape[0]
    h, dh = attn.n_heads, attn.d_head
    return tuple(
        reshape(lin(memory), (t_k, h, dh)).transpose(1, 0, 2) for lin in (attn.wk, attn.wv)
    )


def composed_attention(attn, x: Tensor, memory: Tensor, mask=None, kv=None) -> Tensor:
    t_q, d = x.shape
    h, dh = attn.n_heads, attn.d_head
    q = reshape(attn.wq(x), (t_q, h, dh)).transpose(1, 0, 2)
    k, v = kv if kv is not None else composed_keys_values(attn, memory)
    ctx = composed_sdpa(q, k, v, 1.0 / float(np.sqrt(dh)), mask)
    return attn.wo(reshape(ctx.transpose(1, 0, 2), (t_q, d)))


def composed_step(attn, x: Tensor, past_k: Tensor, past_v: Tensor):
    """Rows x (B, d) attend over their cached (B, h, t, d_head) keys and values plus their own.

    Returns the output and the keys and values with x's appended, (B, h, t+1, d_head).
    """
    b, d = x.shape
    h, dh = attn.n_heads, attn.d_head
    q = reshape(attn.wq(x), (b, h, 1, dh))
    k = ag.concat([past_k, reshape(attn.wk(x), (b, h, 1, dh))], axis=2)
    v = ag.concat([past_v, reshape(attn.wv(x), (b, h, 1, dh))], axis=2)
    out = attn.wo(reshape(composed_sdpa(q, k, v, 1.0 / float(np.sqrt(dh)), None), (b, d)))
    return out, k, v


def tensor_step(decoder, x: Tensor, memory: Tensor, past, parents) -> tuple[Tensor, list]:
    """TransformerDecoder.step of one position on the tape ops: the reference of the array step.

    Self-attention over past (None before the first position) runs on the
    composed ops (composed_step), every other sublayer on its module's fused
    op, cross-attention over `memory`, the rows memory_kv was projected
    from. Returns the output and the new past, as the step does: one
    (2, B, h, t+1, d_head) array per layer.
    """
    if past is None:
        past = [np.zeros((2, 1, layer.self_attn.n_heads, 0, layer.self_attn.d_head))
                for layer in decoder.layers]
    new_past = []
    for layer, kv in zip(decoder.layers, past):
        kv = kv[:, parents]
        out, k, v = composed_step(layer.self_attn, x, Tensor(kv[0]), Tensor(kv[1]))
        new_past.append(np.stack([k.data, v.data]))
        x = layer.ln1(x, out)
        x = layer.ln2(x, layer.cross_attn(x, memory))
        x = layer.ln3(x, layer.ff(x))
    return x, new_past


def composed_layer_norm(ln, x: Tensor, residual: Tensor | None = None) -> Tensor:
    return ag.layer_norm(x if residual is None else x + residual, ln.gain, ln.bias)


def composed_feed_forward(ff, x: Tensor) -> Tensor:
    return ff.lin2(ff.lin1(x).relu())


def use_composed_blocks(monkeypatch) -> None:
    """Run every attention, feed-forward and LayerNorm module on the composed ops."""
    from skeltext import nn

    monkeypatch.setattr(nn.MultiHeadAttention, "keys_values", composed_keys_values)
    monkeypatch.setattr(nn.MultiHeadAttention, "__call__", composed_attention)
    monkeypatch.setattr(nn.LayerNorm, "__call__", composed_layer_norm)
    monkeypatch.setattr(nn.FeedForward, "__call__", composed_feed_forward)


# -- the references of the bit-parallel LCS and the block-wise Adam ----------
# The plain dynamic program and the update parameter by parameter, which
# oracle.lcs_align and nn.Adam must match bit for bit.


def dp_lcs_align(a, b) -> list[tuple[int, int]]:
    """lcs_align by a dynamic program over suffixes, with its tie rule: smallest index in a, then b."""
    n, m = len(a), len(b)
    # best[i][j]: LCS length of a[i:] and b[j:]
    best = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = best[i], best[i + 1]
        ai = a[i]
        for j in range(m - 1, -1, -1):
            row[j] = nxt[j + 1] + 1 if ai == b[j] else max(nxt[j], row[j + 1])
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and best[i][j] > 0:
        target = best[i][j]
        found = -1
        for j2 in range(j, m):
            if a[i] == b[j2] and 1 + best[i + 1][j2 + 1] == target:
                found = j2
                break
        if found < 0:
            i += 1
        else:
            pairs.append((i, found))
            i += 1
            j = found + 1
    return pairs


class PerParameterAdam:
    """nn.Adam updating each parameter in turn, with its own gradient and moment arrays."""

    def __init__(self, params, peak_lr: float, warmup: int):
        self._params = params
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    @property
    def _m(self) -> np.ndarray:
        """The first moments laid out as nn.Adam's `_m`: flat, in parameter order."""
        return np.concatenate([m.reshape(-1) for m in self.m])

    @property
    def _v(self) -> np.ndarray:
        """The second moments laid out as nn.Adam's `_v`."""
        return np.concatenate([v.reshape(-1) for v in self.v])

    def lr(self) -> float:
        return inverse_sqrt_lr(self.step_count, self.peak_lr, self.warmup)

    def step(self) -> float:
        self.step_count += 1
        lr = self.lr()
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for p, m, v in zip(self._params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            p.grad[...] = 0.0
        return lr

