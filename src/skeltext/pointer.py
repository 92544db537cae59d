"""Stage 1: autoregressive pointer network that copies table tokens into a skeleton."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import RunConfig
from .data import BOS_TOKEN, EOS_TOKEN, Example, Table, Vocabulary, linearize_table
from .encoder import TableToText
from .nn import Detached, Linear, Padded


class DataIntegrityError(ValueError):
    """A training skeleton references a token the table does not contain."""


def copy_pool(cell_tokens: list[str]) -> tuple[list[str], np.ndarray]:
    """Distinct table tokens (first-occurrence order) and the cell->token pooling matrix."""
    index: dict[str, int] = {}
    for tok in cell_tokens:
        index.setdefault(tok, len(index))
    pool = np.zeros((len(cell_tokens), len(index)))
    for i, tok in enumerate(cell_tokens):
        pool[i, index[tok]] = 1.0
    return list(index), pool


def check_skeleton(example: Example, index: int | None = None) -> None:
    """Raise DataIntegrityError unless the example's skeleton is made of its table's value tokens.

    `index`, the example's corpus index, is named in the message when given.
    """
    where = "" if index is None else f"example {index}: "
    if example.skeleton is None:
        raise DataIntegrityError(f"{where}example has no skeleton annotation")
    table_tokens = example.table.value_token_set()
    for tok in example.skeleton:
        if tok not in table_tokens:
            raise DataIntegrityError(f"{where}skeleton token {tok!r} does not occur in the table")


@dataclass
class SkeletonPrediction:
    """A skeleton hypothesis; beam search returns the best one."""

    tokens: list[str]
    score: float
    finished: bool  # False means truncation at max_len was reported


@dataclass
class _TableSearch:
    """What one beam search computes once per table, before its step loop."""

    distinct: list[str]
    pool: np.ndarray  # cell -> distinct-token pooling matrix
    keys_t: np.ndarray  # (W_k h)^T, the pointer keys of the cells as columns
    memory_kv: list[np.ndarray]  # TransformerDecoder.memory_kv of the cells
    past: list[np.ndarray] | None = None  # the live hypotheses' self-attention keys and values


class SkeletonPointer(TableToText):
    """Table-to-text trunk with a causal decoder and copy attention over cells."""

    def __init__(self, rng: np.random.Generator, vocab: Vocabulary, key_vocab: Vocabulary,
                 cfg: RunConfig):
        super().__init__(rng, vocab, key_vocab, cfg, cfg.max_skeleton_len + 2)  # BOS, skeleton, EOS
        self.wq = Linear(rng, self.d_model, self.d_model, bias=False)
        self.wk = Linear(rng, self.d_model, self.d_model, bias=False)

    def decoder_states(
        self, tokens: list[str], memory: Padded | list[np.ndarray],
        parents: Sequence[int] | None = None, past: list[np.ndarray] | None = None,
    ) -> Tensor | tuple[np.ndarray, list[np.ndarray]]:
        """Causal decoder hidden states against one table's memory.

        Without parents, `tokens` is the whole selected-token prefix and the
        result is r_0..r_{T-1}, (T, d). With parents, `memory` is the
        decoder's memory_kv of the table and one position is decoded:
        `tokens` holds the newest token of each of B live hypotheses, and
        hypothesis i continues row parents[i] of `past`, the keys and values
        of their earlier positions (None before the first). The result is
        their states, (B, d), a plain array off the tape, and the new past
        (TransformerDecoder.step).
        """
        if parents is None:
            return self.decode_batch([tokens], memory, True).rows
        x = self._embed_step(tokens, 0 if past is None else past[0].shape[3])
        return self.decoder.step(x, memory, past, parents)

    def pointer_attention(self, r: Tensor, keys_t: Tensor) -> Tensor:
        """Attention over cells: softmax of (W_q r) . k_i / sqrt(d_r), with keys k_i = W_k h_i.

        `keys_t` holds the keys as columns: (W_k h)^T, the transposed view.
        """
        logits = (self.wq(r) @ keys_t) * (1.0 / math.sqrt(self.d_model))
        return ag.softmax(logits, axis=-1)

    def _step_attention(self, r: np.ndarray, keys_t: np.ndarray) -> np.ndarray:
        """pointer_attention on arrays, off the tape, each result probed as its op probes it.

        In a lean pass only the logits are: the softmax would hide a -inf.
        """
        logits = ag._guard(np.matmul(self.wq.step(r), keys_t), "matmul")
        logits = ag._checked(logits * (1.0 / math.sqrt(self.d_model)), "mul_scalar")
        return ag._checked(ag._softmax(logits, -1, out=logits), "softmax")

    def copy_log_probs(
        self, prefix: list[str], memory: Padded, cell_tokens: Sequence[str]
    ) -> tuple[Tensor, list[str]]:
        """Per-step log P_copy over one encoded table's distinct `cell_tokens` (mass pooled)."""
        r = self.decoder_states(prefix, memory)
        attn = self.pointer_attention(r, self.wk(memory.rows).transpose())
        distinct, pool = copy_pool(cell_tokens)
        return (attn @ Tensor(pool)).log(), distinct

    def loss(self, example: Example, memory: Padded, cell_tokens: Sequence[str]) -> Tensor:
        """Teacher-forced negative log-likelihood of skeleton + EOS, against its encoded table."""
        check_skeleton(example)
        prefix = [BOS_TOKEN, *example.skeleton]
        targets = [*example.skeleton, EOS_TOKEN]
        logp, distinct = self.copy_log_probs(prefix, memory, cell_tokens)
        idx = {t: i for i, t in enumerate(distinct)}
        target_ids = np.array([idx[t] for t in targets], dtype=np.int64)
        return -logp[np.arange(len(targets)), target_ids].sum()

    def _start_search(self, table: Table) -> _TableSearch:
        cells = linearize_table(table)
        memory = self.encoder.step(cells)
        distinct, pool = copy_pool([c.token for c in cells])
        return _TableSearch(distinct, pool, self.wk.step(memory).T, self.decoder.memory_kv(memory))

    @ag._lean_pass
    def _step_log_probs(
        self, search: _TableSearch, live: list[SkeletonPrediction], parents: list[int]
    ) -> tuple[np.ndarray, list[str]]:
        """Next-token log P_copy, (B, n_distinct), for the B live hypotheses.

        live[i] extends the hypothesis in row parents[i] of search.past by its
        last token; one decoder pass decodes that token for every hypothesis.
        A lean pass: search.past is set only once the step has run, so a
        step that raises leaves it as it was.
        """
        tokens = [h.tokens[-1] if h.tokens else BOS_TOKEN for h in live]
        # One index array for every decoder layer's gather of the past.
        states, past = self.decoder_states(tokens, search.memory_kv, np.array(parents), search.past)
        attn = self._step_attention(states, search.keys_t)
        search.past = past
        # Tokens whose copy mass underflowed to zero score -inf and are simply
        # never selected. Rounding can pool a little more than all the mass
        # into one token; capped at 1, no score is above 0.
        with np.errstate(divide="ignore"):
            return np.log(np.minimum(attn @ search.pool, 1.0)), search.distinct

    def beam_search(
        self,
        table: Table,
        beam_width: int,
        max_len: int = 64,
        length_normalize: bool = False,
    ) -> SkeletonPrediction:
        """Beam search over copy distributions, ranking hypotheses by score or,
        with length_normalize, by score per token (EOS included).

        Hypotheses end when they select EOS. If nothing finishes within
        max_len the best open prefix is returned with finished=False. The
        decoder runs incrementally: each step is one pass over the newest
        token of every live hypothesis, against the keys and values of its
        earlier positions.
        """
        if beam_width < 1:
            raise ValueError("beam width must be >= 1")
        if max_len < 0:
            raise ValueError(f"max_len must be >= 0, got {max_len}")
        if max_len > self.max_len - 1:
            raise ValueError(
                f"max_len {max_len} exceeds {self.max_len - 1}: BOS plus max_len "
                f"tokens must fit the decoder's {self.max_len} positions"
            )

        def rank(h: SkeletonPrediction) -> float:
            return h.score / (len(h.tokens) + 1) if length_normalize else h.score

        def bound(h: SkeletonPrediction) -> float:  # the best rank h's descendants reach
            return h.score / (max_len + 1) if length_normalize else h.score

        search = self._start_search(table)
        live = [SkeletonPrediction([], 0.0, False)]
        parents = [0]
        done: list[SkeletonPrediction] = []
        exhausted: list[SkeletonPrediction] = []
        for _ in range(max_len + 1):  # +1: the final EOS step
            if not live:
                break
            # Log-probabilities are <= 0, so no descendant of a live
            # hypothesis outranks its bound: once the best finished rank
            # reaches every live bound, the search is settled.
            if done and max(map(rank, done)) >= max(map(bound, live)):
                break
            logp, distinct = self._step_log_probs(search, live, parents)
            top = np.argsort(-logp, axis=1)[:, :beam_width].tolist()
            scores = logp.tolist()
            # (score, row, token index) in row order, then argsort order:
            # the stable sort below breaks score ties in that order.
            expansions: list[tuple[float, int, int]] = []
            for row, hyp in enumerate(live):
                extend = len(hyp.tokens) < max_len
                for j in top[row]:
                    score = hyp.score + scores[row][j]
                    if distinct[j] == EOS_TOKEN:
                        done.append(SkeletonPrediction(hyp.tokens, score, True))
                    elif extend:
                        expansions.append((score, row, j))
                if not extend:
                    exhausted.append(hyp)
            expansions.sort(key=lambda e: -e[0])
            del expansions[beam_width:]
            live = [
                SkeletonPrediction([*live[row].tokens, distinct[j]], score, False)
                for score, row, j in expansions
            ]
            parents = [row for _, row, _ in expansions]

        return max(done or exhausted, key=rank)


def predict_skeletons(
    model: SkeletonPointer, tables: Sequence[Table], beam_width: int, max_len: int,
    length_normalize: bool,
) -> list[SkeletonPrediction | ag.NonFiniteError]:
    """Each table's beam-searched skeleton, in order, or the NonFiniteError its search met."""
    predictions: list[SkeletonPrediction | ag.NonFiniteError] = []
    for table in tables:
        try:
            predictions.append(model.beam_search(table, beam_width, max_len, length_normalize))
        except ag.NonFiniteError as err:
            predictions.append(err)
    return predictions


def backprop_pointer_batch(
    model: SkeletonPointer,
    examples: Sequence[Example],
    scale: float = 1.0,
) -> list[float]:
    """Add `scale` times the teacher-forced losses of a batch of examples into the gradients.

    The tables are encoded as one padded pass. Each example's loss runs on its
    own rows of that pass's retained leaf, and is backpropagated into it at
    once; the leaf's gradient goes through the encoder once, at the end.
    Returns each example's loss. The caller checks each skeleton first
    (check_skeleton).
    """
    tables = [linearize_table(ex.table) for ex in examples]
    encoded = Detached(model.encoder.encode_padded(tables))
    losses = []
    for b, (ex, cells) in enumerate(zip(examples, tables)):
        loss = model.loss(ex, encoded.leaf.select([b]), [cell.token for cell in cells])
        (loss * scale).backward()
        losses.append(loss.item())
    encoded.backward()
    return losses
