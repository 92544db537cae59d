"""Shared table-to-text trunk: the table encoder and the token decoder over its memory."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import RunConfig
from .data import PAD_ID, LinearizedTable, Vocabulary
from .nn import (
    Embedding,
    Linear,
    Module,
    Padded,
    TransformerDecoder,
    TransformerEncoder,
    padding_mask,
)


def pad_ids(seqs: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Stack id arrays, padded with PAD_ID along their last axis to the longest.

    Returns the (B, ..., width) array and the B unpadded lengths.
    """
    lengths = [s.shape[-1] for s in seqs]
    out = np.full((len(seqs),) + seqs[0].shape[:-1] + (max(lengths),), PAD_ID, dtype=np.int64)
    for row, s in zip(out, seqs):
        row[..., : s.shape[-1]] = s
    return out, lengths


class TableEncoder(Module):
    """Projects (token, key, fwd, bwd) tuples to model width and runs self-attention.

    No global sequence-position encoding is added: the cells behave as a set,
    and attribute-internal order enters only through the two position fields.
    """

    def __init__(self, rng: np.random.Generator, vocab: Vocabulary, key_vocab: Vocabulary,
                 cfg: RunConfig):
        self.vocab = vocab
        self.key_vocab = key_vocab
        self.pos_clamp = cfg.pos_clamp
        self.tok_emb = Embedding(rng, len(vocab), cfg.token_dim)
        self.key_emb = Embedding(rng, len(key_vocab), cfg.key_dim)
        self.fwd_emb = Embedding(rng, cfg.pos_clamp + 1, cfg.pos_dim)
        self.bwd_emb = Embedding(rng, cfg.pos_clamp + 1, cfg.pos_dim)
        self.fuse = Linear(rng, cfg.token_dim + cfg.key_dim + 2 * cfg.pos_dim, cfg.d_model)
        self.encoder = TransformerEncoder(rng, cfg.d_model, cfg.d_hidden, cfg.n_heads, cfg.n_layers)

    def _cell_ids(self, cells: LinearizedTable) -> np.ndarray:
        """(4, cells) ids: token, key, forward position and backward position."""
        clamp = self.pos_clamp
        return np.array(
            [
                self.vocab.ids([c.token for c in cells]),
                self.key_vocab.ids([c.key for c in cells]),
                [min(c.fwd_pos, clamp) for c in cells],
                [min(c.bwd_pos, clamp) for c in cells],
            ],
            dtype=np.int64,
        )

    def _embed(self, ids: np.ndarray) -> Tensor:
        """Fused per-cell vectors of _cell_ids: relu(W_f [token; key; fwd; bwd] + b_f)."""
        tok, key, fwd, bwd = ids
        fused = ag.concat(
            [self.tok_emb(tok), self.key_emb(key), self.fwd_emb(fwd), self.bwd_emb(bwd)],
            axis=1,
        )
        return self.fuse(fused).relu()

    def encode_padded(self, tables: Sequence[LinearizedTable]) -> Padded:
        """Hidden vectors of the cells of several tables, encoded as one padded batch.

        Padding cells take id 0 in every field: the padding token and key,
        and position 0, which no real cell has.
        """
        for b, cells in enumerate(tables):
            if not cells:
                raise ValueError(f"encode_padded: table {b} has no cells, not even the EOS cell")
        ids, lengths = pad_ids([self._cell_ids(cells) for cells in tables])
        flat = ids.transpose(1, 0, 2).reshape(4, -1)
        mask = padding_mask(lengths, ids.shape[-1])
        return Padded(self.encoder(self._embed(flat), mask), lengths)

    def __call__(self, cells: LinearizedTable) -> Padded:
        """Hidden vectors of one table's cells: encode_padded of that table alone."""
        return self.encode_padded([cells])

    @ag._lean_pass
    def step(self, cells: LinearizedTable) -> np.ndarray:
        """__call__'s forward on arrays, off the tape: (cells, d) rows; a non-finite value names its op.

        A lean pass: the fuse projection is guarded before its relu, and the
        rows before they leave the pass.
        """
        tok, key, fwd, bwd = self._cell_ids(cells).tolist()
        fused = np.concatenate([self.tok_emb.step(tok), self.key_emb.step(key),
                                self.fwd_emb.step(fwd), self.bwd_emb.step(bwd)], axis=1)
        x = ag._guard(self.fuse.step(fused), "linear")
        return ag._guard(self.encoder.step(np.where(x > 0, x, 0.0)), "layer_norm")


class TableToText(Module):
    """Table encoder plus a transformer decoder over embedded output tokens.

    Both stages are this trunk with their own heads on top; they differ only
    in the decoder's mask. Subclasses call this constructor before building
    their heads, so parameters are drawn and named in the same order.
    """

    def __init__(self, rng: np.random.Generator, vocab: Vocabulary, key_vocab: Vocabulary,
                 cfg: RunConfig, max_len: int):
        self.vocab = vocab
        self.d_model = cfg.d_model
        self.max_len = max_len
        self.encoder = TableEncoder(rng, vocab, key_vocab, cfg)
        # Output tokens reuse the encoder-side embedding table, projected up
        # to decoder width, plus learned absolute positions.
        self.in_proj = Linear(rng, cfg.token_dim, cfg.d_model)
        self.pos_emb = Embedding(rng, max_len, cfg.d_model)
        self.decoder = TransformerDecoder(rng, cfg.d_model, cfg.d_hidden, cfg.n_heads, cfg.n_layers)

    def _check_positions(self, last: int) -> None:
        if last >= self.max_len:
            raise ValueError(f"{last + 1} positions exceed the {self.max_len}-position cap")

    def _embed_tokens(self, ids: np.ndarray, positions: np.ndarray) -> Tensor:
        if len(positions):
            self._check_positions(positions[-1])  # the largest, last
        return self.in_proj(self.encoder.tok_emb(ids)) + self.pos_emb(positions)

    def _embed_step(self, tokens: Sequence[str], start: int, n: int = 1) -> np.ndarray:
        """_embed_tokens on arrays, each result probed as its op is.

        With n = 1, B tokens all at position `start`, one per hypothesis;
        otherwise one state's n tokens at positions start .. start + n - 1.
        """
        self._check_positions(start + n - 1)
        x = self.in_proj.step(self.encoder.tok_emb.step(self.vocab.ids(tokens)))
        position = ag._checked(self.pos_emb.weight.data[start : start + n], "embedding_lookup")
        return ag._checked(x + position, "add")

    def decode_batch(self, states: Sequence[Sequence[str]], memory: Padded, causal: bool) -> Padded:
        """Embed each state at positions 0..n-1 and decode it against table b of `memory`.

        All states go as one padded batch; one unpadded state is the
        unbatched computation.
        """
        ids, lengths = pad_ids([np.array(self.vocab.ids(s), dtype=np.int64) for s in states])
        batch, width = ids.shape
        x = self._embed_tokens(ids.reshape(-1), np.tile(np.arange(width), batch))
        mask = padding_mask(lengths, width)
        return Padded(self.decoder(x, memory, causal, mask), lengths)
