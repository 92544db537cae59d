"""Stage 1: autoregressive pointer network that copies table tokens into a skeleton."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import BOS_TOKEN, EOS_TOKEN, Example, Table, Vocabulary, linearize_table
from .encoder import EncoderOutput, TableEncoder
from .nn import DecoderCache, Embedding, Linear, Module, TransformerDecoder


class DataIntegrityError(ValueError):
    """A training skeleton references a token the table does not contain."""


def copy_pool(cell_tokens: list[str]) -> tuple[list[str], np.ndarray]:
    """Distinct table tokens (first-occurrence order) and the cell->token pooling matrix."""
    distinct: list[str] = []
    index: dict[str, int] = {}
    for tok in cell_tokens:
        if tok not in index:
            index[tok] = len(distinct)
            distinct.append(tok)
    pool = np.zeros((len(cell_tokens), len(distinct)))
    for i, tok in enumerate(cell_tokens):
        pool[i, index[tok]] = 1.0
    return distinct, pool


@dataclass
class SkeletonPrediction:
    """A skeleton hypothesis; beam search returns the best one."""

    tokens: list[str]
    score: float
    finished: bool  # False means truncation at max_len was reported


@dataclass
class _TableSearch:
    """What one beam search computes once per table, before its step loop."""

    enc: EncoderOutput
    distinct: list[str]
    pool: np.ndarray  # cell -> distinct-token pooling matrix
    keys: Tensor  # W_k h, the pointer keys of the cells
    cache: DecoderCache


class SkeletonPointer(Module):
    """Table encoder + causal transformer decoder + copy attention over cells."""

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
        max_prefix_len: int = 128,
    ):
        self.vocab = vocab
        self.d_model = d_model
        self.max_prefix_len = max_prefix_len
        self.encoder = TableEncoder(
            rng, vocab, key_vocab, token_dim, key_dim, pos_dim, pos_clamp,
            d_model, d_hidden, n_heads, n_layers,
        )
        # Previously selected tokens reuse the encoder-side embedding table,
        # projected up to decoder width, plus learned absolute positions.
        self.in_proj = Linear(rng, token_dim, d_model)
        self.pos_emb = Embedding(rng, max_prefix_len, d_model)
        self.decoder = TransformerDecoder(rng, d_model, d_hidden, n_heads, n_layers)
        self.wq = Linear(rng, d_model, d_model, bias=False)
        self.wk = Linear(rng, d_model, d_model, bias=False)

    def encode(self, table: Table) -> EncoderOutput:
        return self.encoder(linearize_table(table))

    def decoder_states(
        self, tokens: list[str], enc: EncoderOutput, cache: DecoderCache | None = None
    ) -> Tensor:
        """Causal decoder hidden states.

        Without a cache, `tokens` is the whole selected-token prefix and the
        result is r_0..r_{T-1}, (T, d). With a cache, `tokens` holds the newest
        token of each of B live hypotheses, all at position cache.length; the
        result is their states, (B, d), and the cache grows by one position.
        """
        if cache is None:
            if len(tokens) > self.max_prefix_len:
                raise ValueError(
                    f"prefix of {len(tokens)} exceeds max length {self.max_prefix_len}"
                )
            positions = np.arange(len(tokens))
        else:
            positions = np.full(len(tokens), cache.length)
        ids = np.array([self.vocab.id_of(t) for t in tokens], dtype=np.int64)
        x = self.in_proj(self.encoder.tok_emb(ids)) + self.pos_emb(positions)
        return self.decoder(x, enc.hidden, causal=True, cache=cache)

    def pointer_attention(self, r: Tensor, keys: Tensor) -> Tensor:
        """Attention over cells: softmax of (W_q r) . k_i / sqrt(d_r), with keys k_i = W_k h_i."""
        logits = (self.wq(r) @ keys.transpose()) / np.sqrt(self.d_model)
        return ag.softmax(logits, axis=-1)

    def copy_log_probs(self, prefix: list[str], enc: EncoderOutput) -> tuple[Tensor, list[str]]:
        """Per-step log P_copy over distinct table tokens (mass pooled across cells)."""
        r = self.decoder_states(prefix, enc)
        attn = self.pointer_attention(r, self.wk(enc.hidden))
        distinct, pool = copy_pool(enc.cell_tokens)
        return (attn @ Tensor(pool)).log(), distinct

    def loss(self, example: Example) -> Tensor:
        """Teacher-forced negative log-likelihood of skeleton + EOS."""
        if example.skeleton is None:
            raise DataIntegrityError("example has no skeleton annotation")
        enc = self.encode(example.table)
        table_tokens = set(enc.cell_tokens)
        for tok in example.skeleton:
            if tok not in table_tokens:
                raise DataIntegrityError(f"skeleton token {tok!r} does not occur in the table")
        prefix = [BOS_TOKEN, *example.skeleton]
        targets = [*example.skeleton, EOS_TOKEN]
        logp, distinct = self.copy_log_probs(prefix, enc)
        idx = {t: i for i, t in enumerate(distinct)}
        target_ids = np.array([idx[t] for t in targets], dtype=np.int64)
        return -logp[np.arange(len(targets)), target_ids].sum()

    def _start_search(self, table: Table) -> _TableSearch:
        enc = self.encode(table)
        distinct, pool = copy_pool(enc.cell_tokens)
        cache = DecoderCache(self.decoder, enc.hidden)
        return _TableSearch(enc, distinct, pool, self.wk(enc.hidden), cache)

    def _step_log_probs(
        self, search: _TableSearch, live: list[SkeletonPrediction], parents: list[int]
    ) -> tuple[np.ndarray, list[str]]:
        """Next-token log P_copy, (B, n_distinct), for the B live hypotheses.

        live[i] extends the hypothesis in cache row parents[i] by its last
        token; one decoder pass decodes that token for every hypothesis.
        """
        search.cache.reorder(parents)
        tokens = [h.tokens[-1] if h.tokens else BOS_TOKEN for h in live]
        r = self.decoder_states(tokens, search.enc, search.cache)
        attn = self.pointer_attention(r, search.keys)
        # Plain-array scores: tokens whose copy mass underflowed to zero score
        # -inf and are simply never selected.
        with np.errstate(divide="ignore"):
            return np.log(attn.data @ search.pool), search.distinct

    def beam_search(
        self,
        table: Table,
        beam_width: int,
        max_len: int = 64,
        length_normalize: bool = False,
    ) -> SkeletonPrediction:
        """Length-unnormalized beam search over copy distributions.

        Hypotheses end when they select EOS. If nothing finishes within
        max_len the best open prefix is returned with finished=False. The
        decoder runs incrementally: each step is one pass over the newest
        token of every live hypothesis, against cached earlier positions.
        """
        if beam_width < 1:
            raise ValueError("beam width must be >= 1")
        if max_len > self.max_prefix_len - 1:
            raise ValueError(
                f"max_len {max_len} exceeds {self.max_prefix_len - 1}: BOS plus max_len "
                f"tokens must fit the decoder's max_prefix_len of {self.max_prefix_len}"
            )
        with ag.no_grad():
            search = self._start_search(table)
            live = [SkeletonPrediction([], 0.0, False)]
            parents = [0]
            done: list[SkeletonPrediction] = []
            exhausted: list[SkeletonPrediction] = []
            for _ in range(max_len + 1):  # +1: the final EOS step
                if not live:
                    break
                # Scores only fall with extension, so once the best finished
                # hypothesis beats every live one the search is settled.
                if done and not length_normalize:
                    if max(h.score for h in done) >= max(h.score for h in live):
                        break
                logp, distinct = self._step_log_probs(search, live, parents)
                expansions: list[tuple[SkeletonPrediction, int]] = []
                for row, hyp in enumerate(live):
                    for j in np.argsort(-logp[row])[:beam_width]:
                        tok = distinct[j]
                        score = hyp.score + float(logp[row, j])
                        if tok == EOS_TOKEN:
                            done.append(SkeletonPrediction(hyp.tokens, score, True))
                        elif len(hyp.tokens) < max_len:
                            extended = SkeletonPrediction([*hyp.tokens, tok], score, False)
                            expansions.append((extended, row))
                    if len(hyp.tokens) >= max_len:
                        exhausted.append(hyp)
                expansions.sort(key=lambda e: -e[0].score)
                live = [h for h, _ in expansions[:beam_width]]
                parents = [row for _, row in expansions[:beam_width]]

        def rank(h: SkeletonPrediction) -> float:
            return h.score / (len(h.tokens) + 1) if length_normalize else h.score

        return max(done or live + exhausted, key=rank)
