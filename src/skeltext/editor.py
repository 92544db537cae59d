"""Stage 2 model: non-causal edit decoder with deletion/placeholder/token heads."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import (
    BOS_TOKEN,
    EOS_TOKEN,
    PLH_TOKEN,
    RESERVED_TOKENS,
    Table,
    Vocabulary,
    linearize_table,
)
from .encoder import EncoderOutput, TableEncoder
from .nn import Embedding, Linear, Module, TransformerDecoder


@dataclass(frozen=True)
class EditState:
    """Sentinel-delimited token sequence plus its per-position constraint mask."""

    tokens: tuple[str, ...]
    protected: tuple[bool, ...]
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "protected", tuple(self.protected))
        if len(self.tokens) < 2 or self.tokens[0] != BOS_TOKEN or self.tokens[-1] != EOS_TOKEN:
            raise ValueError("edit state must be wrapped in BOS/EOS sentinels")
        if len(self.protected) != len(self.tokens):
            raise ValueError(
                f"mask length {len(self.protected)} != token length {len(self.tokens)}"
            )
        if not (self.protected[0] and self.protected[-1]):
            raise ValueError("sentinels must be protected")
        for tok, prot in zip(self.tokens, self.protected):
            if tok == PLH_TOKEN and prot:
                raise ValueError("placeholder tokens are never protected")

    def __len__(self) -> int:
        return len(self.tokens)

    def body(self) -> tuple[str, ...]:
        """Tokens with the sentinels stripped."""
        return self.tokens[1:-1]

    def plh_positions(self) -> list[int]:
        return [i for i, t in enumerate(self.tokens) if t == PLH_TOKEN]

    def advanced(self, **changes) -> "EditState":
        return replace(self, **changes)


class EditRealizer(Module):
    """Edit-based transformer decoder over a table encoder.

    Self-attention is full (no causal mask) so every edit decision can
    condition on the whole current state; cross-attention reads the encoded
    table. The usual output softmax is replaced by three classifier heads.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        vocab: Vocabulary,
        key_vocab: Vocabulary,
        *,
        token_dim: int,
        key_dim: int,
        pos_dim: int,
        pos_clamp: int,
        d_model: int,
        d_hidden: int,
        n_heads: int,
        n_layers: int,
        k_max: int = 8,
        max_state_len: int = 512,
        tie_token_head: bool = False,
    ):
        self.vocab = vocab
        self.k_max = k_max
        self.max_state_len = max_state_len
        self.tie_token_head = tie_token_head
        self.encoder = TableEncoder(
            rng, vocab, key_vocab, token_dim, key_dim, pos_dim, pos_clamp,
            d_model, d_hidden, n_heads, n_layers,
        )
        self.in_proj = Linear(rng, token_dim, d_model)
        self.pos_emb = Embedding(rng, max_state_len, d_model)
        self.decoder = TransformerDecoder(rng, d_model, d_hidden, n_heads, n_layers)
        self.w_del = Linear(rng, d_model, 2, bias=False)
        self.w_plh = Linear(rng, 2 * d_model, k_max + 1, bias=False)
        if not tie_token_head:
            self.w_tok = Linear(rng, d_model, len(vocab), bias=False)

    def encode(self, table: Table) -> EncoderOutput:
        return self.encoder(linearize_table(table))

    def decode_hidden(self, tokens: Sequence[str], enc: EncoderOutput) -> Tensor:
        """Decoder outputs z_0..z_n.

        Under no_grad, the table memory's cross-attention projections are
        computed once per `enc` and reused by every later pass over it.
        """
        n = len(tokens)
        if n > self.max_state_len:
            raise ValueError(f"state of {n} tokens exceeds the {self.max_state_len} cap")
        ids = np.array([self.vocab.id_of(t) for t in tokens], dtype=np.int64)
        x = self.in_proj(self.encoder.tok_emb(ids)) + self.pos_emb(np.arange(n))
        return self.decoder(x, enc.hidden, causal=False, cache=enc.memory_cache(self.decoder))

    # -- classifier heads ---------------------------------------------------
    def deletion_logits(self, z: Tensor) -> Tensor:
        return self.w_del(z)

    def deletion_scores(self, z: Tensor) -> Tensor:
        """Per-position (keep, delete) distribution; index 0 keeps, 1 deletes."""
        return ag.softmax(self.deletion_logits(z), axis=-1)

    def placeholder_logits(self, z: Tensor) -> Tensor:
        if z.shape[0] < 2:
            raise ValueError("placeholder head needs a state of length >= 2")
        pairs = ag.concat([z[:-1], z[1:]], axis=1)
        return self.w_plh(pairs)

    def placeholder_scores(self, z: Tensor) -> Tensor:
        """Distribution over 0..k_max insertions for each of the n-1 slots."""
        return ag.softmax(self.placeholder_logits(z), axis=-1)

    def token_logits(self, z: Tensor, positions: Sequence[int]) -> Tensor:
        rows = z[np.asarray(positions, dtype=np.int64)]
        if self.tie_token_head:
            table = self.in_proj(self.encoder.tok_emb.weight)
            return rows @ table.transpose()
        return self.w_tok(rows)

    def token_scores(self, z: Tensor, positions: Sequence[int]) -> Tensor | None:
        """Vocabulary distribution at each placeholder position; None when there are none."""
        if len(positions) == 0:
            return None
        return ag.softmax(self.token_logits(z, positions), axis=-1)

    def argmax_fill(self, z: Tensor, positions: Sequence[int]) -> list[str]:
        """Greedy token choices for the given placeholder positions.

        Fills range over actual tokens: the reserved symbols (padding,
        sentinels, the placeholder itself) are excluded from the argmax.
        """
        if len(positions) == 0:
            return []
        logits = self.token_logits(z, positions).data.copy()
        logits[:, : len(RESERVED_TOKENS)] = -np.inf
        return [self.vocab.token_of(int(i)) for i in np.argmax(logits, axis=1)]
