"""Stage 2 model: non-causal edit decoder with deletion/placeholder/token heads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import RunConfig
from .data import BOS_TOKEN, EOS_TOKEN, PLH_TOKEN, RESERVED_TOKENS, Vocabulary
from .encoder import TableToText
from .nn import Linear


@dataclass(frozen=True)
class EditState:
    """Sentinel-delimited token sequence plus its per-position constraint mask."""

    tokens: tuple[str, ...]
    protected: tuple[bool, ...]

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


class EditRealizer(TableToText):
    """Edit-based transformer decoder over a table encoder.

    Self-attention is full (no causal mask) so every edit decision can
    condition on the whole current state; cross-attention reads the encoded
    table. The usual output softmax is replaced by three classifier heads.
    """

    def __init__(self, rng: np.random.Generator, vocab: Vocabulary, key_vocab: Vocabulary,
                 cfg: RunConfig):
        super().__init__(rng, vocab, key_vocab, cfg, cfg.max_state_len)
        self.k_max = cfg.k_max
        self.w_del = Linear(rng, self.d_model, 2, bias=False)
        self.w_plh = Linear(rng, 2 * self.d_model, cfg.k_max + 1, bias=False)
        self.w_tok = Linear(rng, self.d_model, len(vocab), bias=False)

    @ag._lean_pass
    def decode_hidden(self, tokens: Sequence[str], memory_kv: list[np.ndarray]) -> np.ndarray:
        """Decoder outputs z_0..z_n of one state against a table's memory_kv, on arrays.

        The state is decoded afresh, as one step of n + 1 positions: the rows
        of the full pass, off the tape. A lean pass, whose rows are guarded
        before they leave it for the heads.
        """
        z, _ = self.decoder.step(self._embed_step(tokens, 0, len(tokens)), memory_kv)
        return ag._guard(z, "layer_norm")

    # -- classifier heads: on the tape for training, on arrays for stage 2 ---
    def deletion_logits(self, z: Tensor) -> Tensor:
        return self.w_del(z)

    def placeholder_logits(self, z: Tensor, slots: np.ndarray) -> Tensor:
        """Logits of 0..k_max insertions between each row of z in `slots` and the next row."""
        return self.w_plh(ag.concat([z[slots], z[slots + 1]], axis=1))

    def token_logits(self, z: Tensor, positions: Sequence[int]) -> Tensor:
        return self.w_tok(z[np.asarray(positions, dtype=np.int64)])

    def deletion_scores(self, z: np.ndarray) -> np.ndarray:
        """deletion_logits on arrays, off the tape."""
        return self.w_del.step(z)

    def placeholder_scores(self, z: np.ndarray) -> np.ndarray:
        """placeholder_logits of every slot between consecutive rows of z, on arrays."""
        return self.w_plh.step(np.concatenate([z[:-1], z[1:]], axis=1))

    def argmax_fill(self, z: np.ndarray, positions: Sequence[int]) -> list[str]:
        """Greedy token choices for the given placeholder positions, on arrays.

        Fills range over actual tokens: the reserved symbols (padding,
        sentinels, the placeholder itself) are excluded from the argmax.
        """
        return self.fill_tokens(self.w_tok.step(z[np.asarray(positions, dtype=np.int64)]))

    def fill_tokens(self, logits: np.ndarray) -> list[str]:
        """The greedy token of each row of token-head logits, reserved symbols excluded."""
        choices = np.argmax(logits[:, len(RESERVED_TOKENS):], axis=1) + len(RESERVED_TOKENS)
        return [self.vocab.token_of(int(i)) for i in choices]
