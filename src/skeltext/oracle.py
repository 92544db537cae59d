"""Edit supervision: alignment oracles, corrupted intermediates, and the edit loss.

The expert actions are built constructively from longest-common-subsequence
alignments instead of searching over edit scripts: within the insertion-only
and deletion-only action classes an LCS alignment is optimal, and the test
suite re-verifies that claim by brute force on a small universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import BOS_TOKEN, EOS_TOKEN, PLH_TOKEN
from .editor import EditRealizer
from .encoder import EncoderOutput

Tokens = Sequence[str]

KEEP, DELETE = 0, 1


def levenshtein_distance(a: Tokens, b: Tokens) -> int:
    """Minimal insertions + deletions + substitutions turning a into b."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        ai = a[i - 1]
        for j in range(1, m + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ai != b[j - 1]))
        prev = cur
    return prev[m]


def lcs_align(
    a: Tokens, b: Tokens, a_required: Sequence[bool] | None = None
) -> list[tuple[int, int]]:
    """Leftmost-greedy LCS alignment as (index in a, index in b) pairs.

    Maximizes the number of matched required a-positions first (none are
    required by default, giving the plain LCS), then total match count, and
    among remaining ties prefers matches with the smallest index in a, then
    in b. Whenever the required tokens form a subsequence of b in order (the
    constrained decoder guarantees this for protected skeleton tokens), the
    alignment matches every required position.
    """
    n, m = len(a), len(b)
    required = [False] * n if a_required is None else list(a_required)
    bonus = n + 1  # one required match outweighs every possible plain match
    score = [bonus + 1 if req else 1 for req in required]
    # best[i][j]: max total score of an alignment of a[i:] with b[j:]
    best = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = best[i], best[i + 1]
        ai, si = a[i], score[i]
        for j in range(m - 1, -1, -1):
            cand = max(nxt[j], row[j + 1])
            if ai == b[j]:
                matched = si + nxt[j + 1]
                if matched > cand:
                    cand = matched
            row[j] = cand
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and best[i][j] > 0:
        target = best[i][j]
        found = -1
        for j2 in range(j, m):
            if a[i] == b[j2] and score[i] + best[i + 1][j2 + 1] == target:
                found = j2
                break
        if found < 0:
            i += 1
        else:
            pairs.append((i, found))
            i += 1
            j = found + 1
    return pairs


def lcs(a: Tokens, b: Tokens) -> list[str]:
    """A longest common subsequence (leftmost-greedy tie-breaking)."""
    return [a[i] for i, _ in lcs_align(a, b)]


def subsequence_positions(sub: Tokens, seq: Tokens) -> list[int] | None:
    """Leftmost-greedy embedding of sub into seq, or None if not a subsequence."""
    positions: list[int] = []
    j = 0
    for tok in sub:
        while j < len(seq) and seq[j] != tok:
            j += 1
        if j == len(seq):
            return None
        positions.append(j)
        j += 1
    return positions


def is_subsequence(sub: Tokens, seq: Tokens) -> bool:
    return subsequence_positions(sub, seq) is not None


def make_intermediate(y_star: Tokens, skeleton: Tokens, rng: np.random.Generator) -> list[str]:
    """Corrupt the reference by random deletion, sparing its skeleton match.

    The positions of LCS(skeleton, reference) inside the reference are
    protected; every other token survives independently with a keep-rate
    drawn once per call from Uniform[0, 1].
    """
    protected = {j for _, j in lcs_align(skeleton, y_star)}
    rho = float(rng.uniform())
    return [
        tok
        for pos, tok in enumerate(y_star)
        if pos in protected or float(rng.uniform()) < rho
    ]


def oracle_insertion(y_current: Tokens, y_star: Tokens) -> tuple[list[int], list[list[str]]]:
    """Slot-wise insertion counts and gold tokens that rebuild y_star exactly.

    Slots surround y_current (|y|+1 of them, matching the sentinel-padded
    training state). Requires y_current to be a subsequence of y_star.
    """
    positions = subsequence_positions(y_current, y_star)
    if positions is None:
        raise ValueError("insertion oracle needs the current sequence to be a subsequence of the target")
    counts: list[int] = []
    fills: list[list[str]] = []
    start = 0
    for pos in positions:
        gap = list(y_star[start:pos])
        counts.append(len(gap))
        fills.append(gap)
        start = pos + 1
    tail = list(y_star[start:])
    counts.append(len(tail))
    fills.append(tail)
    return counts, fills


def oracle_deletion(
    y_tprime: Tokens, y_star: Tokens, protected: Sequence[bool] | None = None
) -> list[int]:
    """Keep/delete labels (0 keep, 1 delete) from an LCS alignment with y_star.

    Kept positions form a maximal common subsequence, which minimizes the
    post-deletion distance among deletion-only actions. Protection flags, if
    supplied, constrain the alignment to keep those positions (the masked
    decoder cannot delete them, so supervision targets the best state its
    action space can actually reach); cardinality is maximal among such
    alignments.
    """
    kept = {i for i, _ in lcs_align(y_tprime, y_star, protected)}
    return [KEEP if i in kept else DELETE for i in range(len(y_tprime))]


def apply_insertions(y: Tokens, counts: Sequence[int]) -> list[str]:
    """Insert the requested number of placeholder tokens into each slot."""
    if len(counts) != len(y) + 1:
        raise ValueError(f"{len(counts)} slot counts for a sequence of {len(y)} tokens")
    out: list[str] = []
    for tok, count in zip(y, counts):
        out.extend([PLH_TOKEN] * count)
        out.append(tok)
    out.extend([PLH_TOKEN] * counts[-1])
    return out


def fill_positions(y_dprime: Tokens) -> list[int]:
    """Indices of placeholders inside the sentinel-padded state [BOS] y'' [EOS]."""
    return [i + 1 for i, tok in enumerate(y_dprime) if tok == PLH_TOKEN]


@dataclass
class EditSupervision:
    """Frozen intermediate states and oracle targets for one training example."""

    state1: list[str]  # [BOS] Y' [EOS], supervises the placeholder head
    slot_labels: np.ndarray  # oracle counts clamped to k_max, one per slot
    state2: list[str]  # [BOS] Y'' [EOS] with placeholders, supervises the token head
    positions: list[int]  # placeholder indices inside state2
    gold_ids: np.ndarray  # vocabulary ids of the gold fills
    state3: list[str]  # [BOS] Y''' [EOS] with model fills, supervises deletion
    del_labels: np.ndarray  # keep/delete per state3 position, sentinels keep
    clamped_slots: int


@dataclass
class EditLossParts:
    total: Tensor
    placeholder_nll: float
    token_nll: float
    deletion_nll: float
    clamped_slots: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "loss_edit": self.total.item(),
            "loss_ins": self.placeholder_nll + self.token_nll,
            "loss_plh": self.placeholder_nll,
            "loss_tok": self.token_nll,
            "loss_del": self.deletion_nll,
        }


def build_edit_supervision(
    model: EditRealizer,
    enc: EncoderOutput,
    skeleton: Tokens,
    y_star: Tokens,
    rng: np.random.Generator,
) -> EditSupervision:
    """Construct Y'/Y''/Y''' and the oracle targets for one example.

    Y' corrupts the reference around its skeleton match, the insertion
    oracle yields placeholder counts and gold fills, and Y''' replaces the
    placeholders with the model's current argmax choices (evaluated without
    gradients) so the deletion head sees its own mistakes.
    """
    with ag.no_grad():
        return _supervise(model, enc, skeleton, y_star, rng)[0]


def _supervise(
    model: EditRealizer,
    enc: EncoderOutput,
    skeleton: Tokens,
    y_star: Tokens,
    rng: np.random.Generator,
) -> tuple[EditSupervision, Tensor | None]:
    """build_edit_supervision, plus the decoder states of state2 it filled from.

    The states are None when state2 has no placeholder. They are on the tape
    when gradients are on, so that the token loss can reuse them.
    """
    y_prime = make_intermediate(y_star, skeleton, rng)
    counts, fills = oracle_insertion(y_prime, y_star)
    slot_labels = np.array([min(c, model.k_max) for c in counts], dtype=np.int64)

    y_dprime = apply_insertions(y_prime, counts)
    state2 = [BOS_TOKEN, *y_dprime, EOS_TOKEN]
    positions = fill_positions(y_dprime)
    gold_fill = [tok for gap in fills for tok in gap]
    gold_ids = np.array([model.vocab.id_of(t) for t in gold_fill], dtype=np.int64)

    z2 = None
    model_fill: list[str] = []
    if positions:
        z2 = model.decode_hidden(state2, enc)
        with ag.no_grad():
            model_fill = model.argmax_fill(z2, positions)
    y_tprime = list(y_dprime)
    for pos, tok in zip(positions, model_fill):
        y_tprime[pos - 1] = tok  # positions are sentinel-offset by one

    del_labels = np.array([KEEP, *oracle_deletion(y_tprime, y_star), KEEP], dtype=np.int64)
    sup = EditSupervision(
        state1=[BOS_TOKEN, *y_prime, EOS_TOKEN],
        slot_labels=slot_labels,
        state2=state2,
        positions=positions,
        gold_ids=gold_ids,
        state3=[BOS_TOKEN, *y_tprime, EOS_TOKEN],
        del_labels=del_labels,
        clamped_slots=sum(1 for c in counts if c > model.k_max),
    )
    return sup, z2


def edit_loss_from_supervision(
    model: EditRealizer,
    enc: EncoderOutput,
    sup: EditSupervision,
    lam: float = 1.0,
    hidden: Tensor | None = None,
) -> EditLossParts:
    """L_ins + lam * L_del over the frozen supervision states.

    `hidden`, when given, is what decode_hidden(sup.state2, enc) returns,
    already on the current tape; state2 is then not decoded again.
    """
    z1 = model.decode_hidden(sup.state1, enc)
    plh_logp = ag.log_softmax(model.placeholder_logits(z1), axis=-1)
    loss_plh = -plh_logp[np.arange(len(sup.slot_labels)), sup.slot_labels].sum()

    loss_tok = Tensor(0.0)
    if sup.positions:
        z2 = model.decode_hidden(sup.state2, enc) if hidden is None else hidden
        tok_logp = ag.log_softmax(model.token_logits(z2, sup.positions), axis=-1)
        loss_tok = -tok_logp[np.arange(len(sup.positions)), sup.gold_ids].sum()

    z3 = model.decode_hidden(sup.state3, enc)
    del_logp = ag.log_softmax(model.deletion_logits(z3), axis=-1)
    loss_del = -del_logp[np.arange(len(sup.del_labels)), sup.del_labels].sum()

    total = loss_plh + loss_tok + lam * loss_del
    return EditLossParts(
        total, loss_plh.item(), loss_tok.item(), loss_del.item(), sup.clamped_slots
    )


def edit_loss_example(
    model: EditRealizer,
    enc: EncoderOutput,
    skeleton: Tokens,
    y_star: Tokens,
    rng: np.random.Generator,
    lam: float = 1.0,
) -> EditLossParts:
    """Imitation loss for one (table, skeleton, reference) triple.

    State2 is decoded once, on the tape: its argmax fills make state3, and
    its token loss reuses the same states.
    """
    sup, z2 = _supervise(model, enc, skeleton, y_star, rng)
    return edit_loss_from_supervision(model, enc, sup, lam, hidden=z2)
