"""Edit supervision: alignment oracles, corrupted intermediates, and the edit loss.

The expert actions are built constructively from longest-common-subsequence
alignments instead of searching over edit scripts: within the insertion-only
and deletion-only action classes an LCS alignment is optimal, and the test
suite re-verifies that claim by brute force on a small universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import BOS_TOKEN, EOS_TOKEN, PLH_TOKEN, Example, linearize_table
from .editor import EditRealizer
from .nn import Detached, Padded

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


def match_masks(seq: Iterable[str]) -> dict[str, int]:
    """Bit k of masks[t] is set where seq[k] == t: seq as the bit-parallel LCS reads it."""
    masks: dict[str, int] = {}
    for k, tok in enumerate(seq):
        masks[tok] = masks.get(tok, 0) | 1 << k
    return masks


def _lcs_rows(a: Iterable[str], masks: dict[str, int], m: int) -> list[int]:
    """rows[i]: the columns k < m where LCS(a[:i], b[:k + 1]) exceeds LCS(a[:i], b[:k]).

    b is the m-token sequence whose match_masks are `masks`, so the LCS of
    a[:i] and b[:k] is the popcount of the low k bits of rows[i]. Each row
    takes one step of the bit-parallel recurrence of Allison and Dix (1986)
    in Hyyrö's (2004) form, on a vector of m bits held in a Python int.
    """
    full = (1 << m) - 1
    v, rows = full, [0]
    for tok in a:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(full ^ v)
    return rows


def lcs_length(a: Tokens, masks: dict[str, int], m: int) -> int:
    """Length of an LCS of a and the m-token sequence whose match_masks are `masks`."""
    return _lcs_rows(a, masks, m)[-1].bit_count()


def lcs_align(a: Tokens, b: Tokens) -> list[tuple[int, int]]:
    """Leftmost-greedy LCS alignment as (index in a, index in b) pairs.

    Of the longest alignments it is the lexicographically smallest: ties
    prefer matches with the smallest index in a, then in b.
    """
    n, m = len(a), len(b)
    # Bit k stands for b[m - 1 - k], so the low m - j bits are b[j:], and
    # best(i, j), the LCS length of a[i:] and b[j:], is the popcount of the
    # low m - j bits of rows[n - i].
    masks = match_masks(reversed(b))
    rows = _lcs_rows(reversed(a), masks, m)
    pairs: list[tuple[int, int]] = []
    low = (1 << m) - 1  # the columns of b[j:]
    for i in range(n):
        target = (rows[n - i] & low).bit_count()
        if not target:
            break
        # a[i]'s first match at or after j is the only candidate: no later
        # one leaves more of b for a[i + 1:].
        match = masks.get(a[i], 0) & low
        if match:
            k = match.bit_length() - 1  # b[m - 1 - k]
            rest = (1 << k) - 1  # the columns after it
            if 1 + (rows[n - i - 1] & rest).bit_count() == target:
                pairs.append((i, m - 1 - k))
                low = rest
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


def oracle_deletion(y_tprime: Tokens, y_star: Tokens) -> list[int]:
    """Keep/delete labels (0 keep, 1 delete) from an LCS alignment with y_star.

    Kept positions form a maximal common subsequence, which minimizes the
    post-deletion distance among deletion-only actions.
    """
    kept = {i for i, _ in lcs_align(y_tprime, y_star)}
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

    reference: list[str]  # Y*, which every oracle label is drawn against
    state1: list[str]  # [BOS] Y' [EOS], supervises the placeholder head
    slot_labels: np.ndarray  # oracle counts clamped to k_max, one per slot
    state2: list[str]  # [BOS] Y'' [EOS] with placeholders, supervises the token head
    positions: list[int]  # placeholder indices inside state2
    gold_ids: np.ndarray  # vocabulary ids of the gold fills
    state3: list[str] | None  # [BOS] Y''' [EOS] with model fills, supervises deletion
    del_labels: np.ndarray | None  # keep/delete per state3 position, sentinels keep
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
    model: EditRealizer, skeleton: Tokens, y_star: Tokens, rng: np.random.Generator
) -> EditSupervision:
    """Y', Y'' and their oracle targets for one example: a draft.

    Y' corrupts the reference around its skeleton match, and the insertion
    oracle yields placeholder counts and gold fills. state3 and del_labels
    wait for the model's fills: edit_loss_from_supervision completes the draft.
    """
    y_prime = make_intermediate(y_star, skeleton, rng)
    counts, fills = oracle_insertion(y_prime, y_star)
    y_dprime = apply_insertions(y_prime, counts)
    gold_fill = [tok for gap in fills for tok in gap]
    return EditSupervision(
        reference=list(y_star),
        state1=[BOS_TOKEN, *y_prime, EOS_TOKEN],
        slot_labels=np.array([min(c, model.k_max) for c in counts], dtype=np.int64),
        state2=[BOS_TOKEN, *y_dprime, EOS_TOKEN],
        positions=fill_positions(y_dprime),
        gold_ids=np.array(model.vocab.ids(gold_fill), dtype=np.int64),
        state3=None,
        del_labels=None,
        clamped_slots=sum(1 for c in counts if c > model.k_max),
    )


def _complete(sup: EditSupervision, model_fill: Sequence[str]) -> None:
    """Set Y''' (Y'' with the model's fills) and its deletion labels against the reference."""
    sup.state3 = list(sup.state2)
    for pos, tok in zip(sup.positions, model_fill):
        sup.state3[pos] = tok
    labels = oracle_deletion(sup.state3[1:-1], sup.reference)
    sup.del_labels = np.array([KEEP, *labels, KEEP], dtype=np.int64)


def _nll(
    logits: Tensor, rows: np.ndarray, labels: np.ndarray, counts: Sequence[int] = ()
) -> tuple[Tensor, list[float]]:
    """Summed negative log-likelihood of labels[i] at row rows[i] of the logits.

    Also returns its parts per example: the i-th sums the next counts[i] labels.
    """
    picked = ag.log_softmax(logits, axis=-1)[rows, labels]
    parts, end = [], 0
    for count in counts:
        parts.append(-float(picked.data[end : end + count].sum()) if count else 0.0)
        end += count
    return -picked.sum(), parts


def edit_loss_from_supervision(
    model: EditRealizer,
    memory: Padded,
    sups: Sequence[EditSupervision],
    lam: float,
    take: Callable[[str, Tensor], None],
) -> list[EditLossParts]:
    """The three edit losses of sups[b] against table b of `memory`, one padded pass each.

    The token pass runs first: a draft takes the argmax fills of its state2
    into its state3, and its deletion labels against its reference, so the
    deletion head sees the model's own mistakes. The placeholder and
    deletion passes follow. take(name, loss) receives each pass's summed
    loss as soon as it is known, named "tok" (skipped when no state2 has a
    placeholder), "plh" or "del". Returns each example's loss parts, with
    constant totals.
    """
    token_nll = [0.0] * len(sups)
    fills: list[list[str]] = [[] for _ in sups]
    filled = [b for b, sup in enumerate(sups) if sup.positions]
    if filled:
        z2 = model.decode_batch([sups[b].state2 for b in filled], memory.select(filled), False)
        logits = model.token_logits(z2.rows, z2.index([sups[b].positions for b in filled]))
        argmax, start = model.fill_tokens(logits.data), 0
        counts = [len(sups[b].positions) for b in filled]
        labels = np.concatenate([sups[b].gold_ids for b in filled])
        loss, parts = _nll(logits, np.arange(len(labels)), labels, counts)
        for b, count, part in zip(filled, counts, parts):
            fills[b], token_nll[b] = argmax[start : start + count], part
            start += count
        take("tok", loss)
    for sup, fill in zip(sups, fills):
        if sup.state3 is None:
            _complete(sup, fill)

    z1 = model.decode_batch([sup.state1 for sup in sups], memory, False)
    slots = z1.index([np.arange(len(sup.slot_labels)) for sup in sups])
    labels = np.concatenate([sup.slot_labels for sup in sups])
    counts = [len(sup.slot_labels) for sup in sups]
    logits = model.placeholder_logits(z1.rows, slots)
    loss, placeholder_nll = _nll(logits, np.arange(len(labels)), labels, counts)
    take("plh", loss)

    z3 = model.decode_batch([sup.state3 for sup in sups], memory, False)
    rows = z3.index([np.arange(len(sup.del_labels)) for sup in sups])
    labels = np.concatenate([sup.del_labels for sup in sups])
    counts = [len(sup.del_labels) for sup in sups]
    loss, deletion_nll = _nll(model.deletion_logits(z3.rows), rows, labels, counts)
    take("del", loss)

    return [
        EditLossParts(Tensor(plh + tok + lam * dl), plh, tok, dl, sup.clamped_slots)
        for plh, tok, dl, sup in zip(placeholder_nll, token_nll, deletion_nll, sups)
    ]


def edit_loss_example(
    model: EditRealizer,
    memory: Padded,
    skeleton: Tokens,
    y_star: Tokens,
    rng: np.random.Generator,
    lam: float = 1.0,
) -> EditLossParts:
    """Imitation loss for one (table, skeleton, reference) triple, its total on the tape.

    Its draft's edit_loss_from_supervision, as a batch of one: state2 is
    decoded once, for both its fills and its token loss.
    """
    sup = build_edit_supervision(model, skeleton, y_star, rng)
    losses = {"tok": Tensor(0.0)}
    parts = edit_loss_from_supervision(model, memory, [sup], lam, losses.__setitem__)[0]
    parts.total = losses["plh"] + losses["tok"] + lam * losses["del"]
    return parts


def backprop_edit_batch(
    model: EditRealizer,
    examples: Sequence[Example],
    sups: Sequence[EditSupervision],
    lam: float = 1.0,
    scale: float = 1.0,
) -> list[EditLossParts]:
    """Add `scale` times the edit losses of a batch of examples into the gradients.

    sups[i] supervises examples[i]. A draft (build_edit_supervision) is
    completed from the model's argmax fills of its state2; complete
    supervision stays as it is. The tables are encoded as one padded pass,
    and each supervision state of every example as one padded pass
    (edit_loss_from_supervision). Each pass is backpropagated as soon as its
    loss is known, into a retained copy of the encoder output, whose
    gradient goes through the encoder once, at the end; so the tape holds
    the encoder's pass and one decoder pass at most.
    Returns each example's loss parts, with constant totals.
    """
    tables = [linearize_table(ex.table) for ex in examples]
    encoded = Detached(model.encoder.encode_padded(tables))

    def backprop(name: str, loss: Tensor) -> None:
        (loss * (lam * scale if name == "del" else scale)).backward()

    parts = edit_loss_from_supervision(model, encoded.leaf, sups, lam, backprop)
    encoded.backward()
    return parts
