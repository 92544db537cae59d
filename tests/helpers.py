"""Shared test utilities: random fixtures, tiny model builders and composed references."""

from __future__ import annotations

import numpy as np

from skeltext import autograd as ag
from skeltext.autograd import Tensor
from skeltext.config import RunConfig
from skeltext.data import Attribute, Example, Table, Vocabulary
from skeltext.training import build_editor, build_pointer

WORDS = (
    "Alda Bram Cato Delia Edmund Falk Greta Hollis Lunden Varano Kestwick "
    "physicist sculptor botanist 1950 1961 14 March October won born the a in was ."
).split()

KEYS = ("Name_ID", "Place_of_birth", "Date_of_birth", "Occupation", "Award_received")


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


def small_example(rng: np.random.Generator) -> Example:
    """Table plus a reference that overlaps its values (skeleton annotated later)."""
    table = random_table(rng)
    value_tokens = table.all_value_tokens()
    ref: list[str] = []
    for tok in value_tokens:
        if rng.uniform() < 0.3:
            ref.append(WORDS[int(rng.integers(0, len(WORDS)))])
        ref.append(tok)
    ref.append(".")
    return Example(table, tuple(ref))


# -- the composed reference of the fused transformer blocks ------------------
# The single ops that skeltext.autograd's keys_values, attention,
# feed_forward and residual layer_norm nodes replace, composed as the model
# composed them before those nodes existed. The byte-equality tests compare
# the fused nodes against these.


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


def composed_keys_values(attn, memory: Tensor, past=None) -> tuple[Tensor, Tensor]:
    """Keys and values of memory (t_k, d), each split into heads: (h, t_k, d_head)."""
    if past is not None:
        raise NotImplementedError("incremental steps: use composed_step")
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


def composed_step(attn, x: Tensor, past_k: Tensor, past_v: Tensor) -> Tensor:
    """Rows x (B, d) attend over their cached (B, h, t, d_head) keys and values plus their own."""
    b, d = x.shape
    h, dh = attn.n_heads, attn.d_head
    q = reshape(attn.wq(x), (b, h, 1, dh))
    k = ag.concat([past_k, reshape(attn.wk(x), (b, h, 1, dh))], axis=2)
    v = ag.concat([past_v, reshape(attn.wv(x), (b, h, 1, dh))], axis=2)
    return attn.wo(reshape(composed_sdpa(q, k, v, 1.0 / float(np.sqrt(dh)), None), (b, d)))


def composed_layer_norm(ln, x: Tensor, residual: Tensor | None = None) -> Tensor:
    return ag.layer_norm(x if residual is None else x + residual, ln.gain, ln.bias, ln.eps)


def composed_feed_forward(ff, x: Tensor) -> Tensor:
    return ff.lin2(ff.lin1(x).relu())


def use_composed_blocks(monkeypatch) -> None:
    """Run every attention, feed-forward and LayerNorm module on the composed ops."""
    from skeltext import nn

    monkeypatch.setattr(nn.MultiHeadAttention, "keys_values", composed_keys_values)
    monkeypatch.setattr(nn.MultiHeadAttention, "__call__", composed_attention)
    monkeypatch.setattr(nn.LayerNorm, "__call__", composed_layer_norm)
    monkeypatch.setattr(nn.FeedForward, "__call__", composed_feed_forward)
