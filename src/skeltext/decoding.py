"""Stage 2 inference: constraint-masked iterative refinement from a skeleton."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import autograd as ag
from .data import BOS_TOKEN, EOS_TOKEN, Table, _check_tokens, linearize_table
from .editor import EditRealizer, EditState
from .oracle import DELETE, apply_insertions, fill_positions, is_subsequence

FIXED_POINT = "fixed_point"
MAX_ITERATIONS = "max_iterations"
OVERFLOW = "overflow"
NON_FINITE = "non_finite"
TERMINATIONS = (FIXED_POINT, MAX_ITERATIONS, OVERFLOW, NON_FINITE)


class StateOverflowError(RuntimeError):
    """The edit state outgrew the hard length cap; decoding is aborted.

    Raised from `iterate`, it carries the partial `trace`: the states of the
    iterations completed before the abort, with termination OVERFLOW.
    """

    trace: DecodeTrace | None = None


@dataclass
class DecodeTrace:
    """The initial state, then the state after each completed iteration, at its index."""

    snapshots: list[EditState]
    termination: str

    @property
    def iterations(self) -> int:
        return len(self.snapshots) - 1


class Realization(NamedTuple):
    """One example's stage-2 outcome; `trace` and `preserved` are None without a skeleton."""

    tokens: list[str]
    trace: DecodeTrace | None
    termination: str
    error: Exception | None  # the error that ended this example early, if any
    preserved: bool | None  # the output still holds its skeleton


def init_state(skeleton, protect_skeleton: bool = True) -> EditState:
    """Wrap the skeleton in sentinels; under hard constraints everything is protected.

    The skeleton's tokens follow the corpus file's token rule, `data._check_tokens`.
    """
    skeleton = tuple(skeleton)
    _check_tokens("skeleton", skeleton)
    tokens = (BOS_TOKEN, *skeleton, EOS_TOKEN)
    protected = (True, *(protect_skeleton for _ in skeleton), True)
    return EditState(tokens, protected)


def masked_delete(state: EditState, deletion_scores: np.ndarray) -> EditState:
    """Drop unprotected positions whose delete score wins; keep the rest.

    `deletion_scores` holds a (keep, delete) row per position: logits,
    probabilities, any scores whose argmax is the choice (a tie keeps).
    Protected positions (sentinels included) are forced to "keep" no matter
    what the classifier says. Mask entries of the survivors carry over.
    """
    if deletion_scores.shape[0] != len(state):
        raise ValueError(
            f"{deletion_scores.shape[0]} deletion rows for a state of {len(state)} tokens"
        )
    choices = np.argmax(deletion_scores, axis=1).tolist()
    keep = [prot or c != DELETE for prot, c in zip(state.protected, choices)]
    tokens = tuple(t for t, k in zip(state.tokens, keep) if k)
    protected = tuple(p for p, k in zip(state.protected, keep) if k)
    return EditState(tokens, protected)


def insert_and_fill(
    state: EditState, model: EditRealizer, memory_kv: list[np.ndarray], hidden: np.ndarray,
    cap: int,
) -> EditState:
    """Argmax placeholder insertion followed by argmax token filling.

    `hidden` is model.decode_hidden(state.tokens, memory_kv). Inserted tokens
    enter unprotected; every other position keeps its mask. Growth beyond
    `cap`, iterate's state cap, aborts with StateOverflowError rather than
    decode forever.
    """
    counts = np.argmax(model.placeholder_scores(hidden), axis=-1)
    if counts.sum() + len(state) > cap:
        raise StateOverflowError(
            f"state would grow to {int(counts.sum()) + len(state)} tokens (cap {cap})"
        )
    body = apply_insertions(state.body(), counts)
    tokens = [BOS_TOKEN, *body, EOS_TOKEN]
    # Position i of the state moves right past the placeholders of slots 0..i-1.
    moved = np.arange(len(state)) + np.concatenate(([0], np.cumsum(counts)))
    protected = np.zeros(len(tokens), dtype=bool)
    protected[moved] = state.protected
    plh_positions = fill_positions(body)
    if plh_positions:
        z2 = model.decode_hidden(tokens, memory_kv)
        for pos, tok in zip(plh_positions, model.argmax_fill(z2, plh_positions)):
            tokens[pos] = tok
    return EditState(tokens, protected.tolist())


def iterate(
    model: EditRealizer,
    table: Table,
    skeleton,
    max_iter: int = 10,
    hard_constraints: bool = True,
    max_state_len: int | None = None,
) -> tuple[list[str], DecodeTrace]:
    """Alternate masked deletion and insertion until the text stops changing.

    Returns the final tokens (sentinels stripped) and the full trace;
    termination is either a fixed point or the iteration cap. A state is
    decoded once while it stays unchanged: if deletion removes nothing, the
    placeholder head reads the deletion head's hidden states, and if nothing
    is inserted, those states serve the next deletion. The table memory is
    encoded and projected for cross-attention once per call. Every pass
    runs on arrays, off the tape.

    A StateOverflowError or NonFiniteError propagates with a `trace`
    attribute holding the iterations completed before it, terminated
    OVERFLOW or NON_FINITE; under hard constraints its last snapshot holds
    every skeleton token, and it is within the length cap (max_state_len,
    by default the editor's position cap) unless the initial state alone is
    past it. Such a state overflows before any decoding, with the trace
    [initial state]. A cap beyond the editor's, a negative max_iter and a
    skeleton that breaks the corpus token rule are ValueErrors.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    cap = model.max_len if max_state_len is None else max_state_len
    if cap > model.max_len:
        raise ValueError(f"max_state_len {cap} exceeds the editor's {model.max_len}-position cap")
    state = init_state(skeleton, protect_skeleton=hard_constraints)
    snapshots = [state]
    termination = MAX_ITERATIONS
    try:
        if len(state) > cap:
            raise StateOverflowError(f"initial state has {len(state)} tokens (cap {cap})")
        memory_kv = model.decoder.memory_kv(model.encoder.step(linearize_table(table)))
        z = None  # hidden states of `state`, when already decoded
        for _ in range(max_iter):
            previous = state.tokens
            if z is None:
                z = model.decode_hidden(state.tokens, memory_kv)
            kept = masked_delete(state, model.deletion_scores(z))
            if kept.tokens != state.tokens:
                z = model.decode_hidden(kept.tokens, memory_kv)
            state = insert_and_fill(kept, model, memory_kv, z, cap)
            if state.tokens != kept.tokens:
                z = None
            snapshots.append(state)
            if state.tokens == previous:
                termination = FIXED_POINT
                break
    except (StateOverflowError, ag.NonFiniteError) as err:
        reason = OVERFLOW if isinstance(err, StateOverflowError) else NON_FINITE
        err.trace = DecodeTrace(snapshots, reason)
        raise
    return list(state.body()), DecodeTrace(snapshots, termination)


def realize_corpus(
    model: EditRealizer, tables: Sequence[Table], skeletons: Sequence, max_iter: int,
    hard_constraints: bool,
) -> Iterator[Realization]:
    """Stage 2 over a corpus: `iterate` each table's skeleton, yielding outcomes in order.

    States are capped at the editor's position cap. A stage-1 NonFiniteError
    in place of a skeleton gives an empty NON_FINITE outcome. An overflow or
    non-finite abort keeps its trace's last state. Unequal numbers of tables
    and skeletons are a ValueError, raised before the first outcome.
    """
    if len(tables) != len(skeletons):
        raise ValueError(f"{len(tables)} tables for {len(skeletons)} skeletons")
    for table, skeleton in zip(tables, skeletons):
        if isinstance(skeleton, ag.NonFiniteError):
            yield Realization([], None, NON_FINITE, skeleton, None)
            continue
        error = None
        try:
            tokens, trace = iterate(model, table, skeleton, max_iter=max_iter,
                                    hard_constraints=hard_constraints)
        except (StateOverflowError, ag.NonFiniteError) as err:
            error, trace = err, err.trace
            tokens = list(trace.snapshots[-1].body())
        yield Realization(tokens, trace, trace.termination, error, is_subsequence(skeleton, tokens))
