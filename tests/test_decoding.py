"""Constraint-masked iterative refinement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltext import autograd as ag
from skeltext.autograd import NonFiniteError
from skeltext.data import (
    BOS_TOKEN, EOS_TOKEN, PAD_TOKEN, PLH_TOKEN, Attribute, Table, linearize_table,
)
from skeltext.decoding import (
    FIXED_POINT,
    MAX_ITERATIONS,
    NON_FINITE,
    OVERFLOW,
    Realization,
    StateOverflowError,
    init_state,
    insert_and_fill,
    iterate,
    masked_delete,
    realize_corpus,
)
from skeltext.editor import EditState
from skeltext.nn import TransformerDecoder
from skeltext.oracle import is_subsequence

from helpers import all_value_tokens, random_table, table_memory_kv, tiny_editor


class _StubEncoder:
    def step(self, cells):
        return np.zeros((1, 2))


class StubEditor:
    """Scriptable model: fixed deletion bias, fixed per-slot insertions, fixed fill."""

    decoder = TransformerDecoder(None, 2, 2, 1, 0)  # no layers: an empty memory_kv
    encoder = _StubEncoder()

    def __init__(
        self, delete_everything=False, insert_per_slot=0, fill_token="x", k_max=8, max_len=512
    ):
        self.delete_everything = delete_everything
        self.insert_per_slot = insert_per_slot
        self.fill_token = fill_token
        self.k_max = k_max
        self.max_len = max_len

    def decode_hidden(self, tokens, memory_kv):
        return np.zeros((len(tokens), 2))

    def deletion_scores(self, z):
        n = z.shape[0]
        logits = np.zeros((n, 2))
        logits[:, 1 if self.delete_everything else 0] = 1.0
        return logits

    def placeholder_scores(self, z):
        logits = np.zeros((len(z) - 1, self.k_max + 1))
        logits[:, self.insert_per_slot] = 1.0
        return logits

    def argmax_fill(self, z, positions):
        return [self.fill_token] * len(positions)


def test_init_state_empty_skeleton():
    state = init_state([])
    assert state.tokens == (BOS_TOKEN, EOS_TOKEN)
    assert state.protected == (True, True)


def test_init_state_protects_skeleton():
    state = init_state(["London"])
    assert state.tokens == (BOS_TOKEN, "London", EOS_TOKEN)
    assert state.protected == (True, True, True)


def test_init_state_length():
    rng = np.random.default_rng(0)
    for q in range(0, 9):
        skeleton = [f"t{i}" for i in range(q)]
        assert len(init_state(skeleton)) == q + 2


def test_init_state_ablation_unprotects_skeleton_only():
    state = init_state(["a", "b"], protect_skeleton=False)
    assert state.protected == (True, False, False, True)


@pytest.mark.parametrize("token", [PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, PLH_TOKEN])
def test_a_skeleton_holding_a_reserved_token_is_rejected_naming_it(token):
    message = f"^skeleton holds the reserved token '{token}'$"
    for protect_skeleton in (True, False):
        with pytest.raises(ValueError, match=message):
            init_state(["a", token], protect_skeleton=protect_skeleton)
    with pytest.raises(ValueError, match=message):
        iterate(StubEditor(), _TABLE, ["a", token])


def test_masked_delete_fully_protected_state_unchanged():
    state = init_state(["a", "b"])
    adversarial = np.tile([0.0, 1.0], (4, 1))
    out = masked_delete(state, adversarial)
    assert out.tokens == state.tokens
    assert out.protected == state.protected


def test_masked_delete_removes_unprotected_majority_delete():
    state = EditState((BOS_TOKEN, "a", "b", EOS_TOKEN), (True, False, True, True))
    probs = np.array([[1, 0], [0.1, 0.9], [0.4, 0.6], [1, 0]], dtype=float)
    out = masked_delete(state, probs)
    assert out.tokens == (BOS_TOKEN, "b", EOS_TOKEN)
    assert out.protected == (True, True, True)


def test_masked_delete_keeps_a_position_whose_scores_tie():
    state = EditState((BOS_TOKEN, "a", "b", EOS_TOKEN), (True, False, False, True))
    probs = np.array([[1, 0], [0.5, 0.5], [0.2, 0.8], [1, 0]], dtype=float)
    assert masked_delete(state, probs).tokens == (BOS_TOKEN, "a", EOS_TOKEN)


def test_masked_delete_sentinels_survive_adversarial_scores():
    state = EditState((BOS_TOKEN, "a", EOS_TOKEN), (True, False, True))
    probs = np.tile([0.0, 1.0], (3, 1))
    out = masked_delete(state, probs)
    assert out.tokens == (BOS_TOKEN, EOS_TOKEN)
    assert out.protected == (True, True)


def test_masked_delete_arity_checked():
    state = init_state(["a"])
    with pytest.raises(ValueError):
        masked_delete(state, np.zeros((2, 2)))


def _fill(stub, state, cap=None):
    """insert_and_fill of a stub's state, over the stub's own hidden states; the cap is
    by default the stub's position cap."""
    memory_kv = stub.decoder.memory_kv(stub.encoder.step(None))
    z = stub.decode_hidden(state.tokens, memory_kv)
    return insert_and_fill(state, stub, memory_kv, z, stub.max_len if cap is None else cap)


def test_insert_and_fill_noop_when_zero_slots():
    stub = StubEditor(insert_per_slot=0)
    state = init_state(["a"])
    out = _fill(stub, state)
    assert out.tokens == state.tokens


def test_insert_and_fill_two_tokens_unprotected():
    state = init_state(["a"])

    class OneSlotStub(StubEditor):
        def placeholder_scores(self, z):
            logits = np.zeros((len(z) - 1, self.k_max + 1))
            logits[:, 0] = 1.0
            logits[0, 0] = 0.0
            logits[0, 2] = 1.0  # two insertions in the first slot only
            return logits

    stub2 = OneSlotStub(fill_token="new")
    out = _fill(stub2, state)
    assert out.tokens == (BOS_TOKEN, "new", "new", "a", EOS_TOKEN)
    assert out.protected == (True, False, False, True, True)
    assert len(out.tokens) == len(out.protected)


def test_insert_and_fill_keeps_every_mask_and_leaves_insertions_unprotected():
    state = EditState((BOS_TOKEN, "a", "b", "c", EOS_TOKEN), (True, False, True, False, True))

    class SlotCounts(StubEditor):
        def placeholder_scores(self, z):
            logits = np.zeros((len(z) - 1, self.k_max + 1))
            logits[np.arange(len(z) - 1), [1, 0, 2, 1]] = 1.0
            return logits

    out = _fill(SlotCounts(fill_token="n"), state)
    assert out.tokens == (BOS_TOKEN, "n", "a", "b", "n", "n", "c", "n", EOS_TOKEN)
    assert out.protected == (True, False, False, True, False, False, False, False, True)


def test_insert_and_fill_never_leaves_placeholders():
    stub = StubEditor(insert_per_slot=2, fill_token="y")
    state = init_state(["a", "b"])
    out = _fill(stub, state)
    assert PLH_TOKEN not in out.tokens
    assert out.tokens.count("y") == 2 * (len(state) - 1)


def test_insert_and_fill_overflow_aborts():
    stub = StubEditor(insert_per_slot=8)
    state = init_state(["a", "b", "c"])
    with pytest.raises(StateOverflowError):
        _fill(stub, state, cap=12)


def test_iterate_keep_all_zero_insert_fixed_point_after_one():
    stub = StubEditor()
    table = Table((Attribute("K", ("x",)),))
    tokens, trace = iterate(stub, table, ["s1", "s2"], max_iter=10)
    assert tokens == ["s1", "s2"]
    assert trace.termination == FIXED_POINT
    assert trace.iterations == 1
    assert len(trace.snapshots) == 2


def test_iterate_max_iter_zero_returns_skeleton():
    stub = StubEditor(delete_everything=True)
    table = Table((Attribute("K", ("x",)),))
    tokens, trace = iterate(stub, table, ["s1"], max_iter=0)
    assert tokens == ["s1"]
    assert trace.termination == MAX_ITERATIONS
    assert trace.iterations == 0
    assert len(trace.snapshots) == 1


@pytest.mark.parametrize("max_iter", [-1, -7])
def test_iterate_rejects_a_negative_max_iter_naming_it(max_iter):
    with pytest.raises(ValueError, match=f"^max_iter must be >= 0, got {max_iter}$"):
        iterate(StubEditor(), _TABLE, ["s1"], max_iter=max_iter)


def test_iterate_hard_constraints_flag_changes_adversarial_output():
    stub = StubEditor(delete_everything=True)
    table = Table((Attribute("K", ("x",)),))
    kept, _ = iterate(stub, table, ["s1", "s2"], max_iter=3, hard_constraints=True)
    dropped, _ = iterate(stub, table, ["s1", "s2"], max_iter=3, hard_constraints=False)
    assert kept == ["s1", "s2"]
    assert dropped == []
    assert kept != dropped


def test_iterate_random_model_constraint_preservation():
    rng = np.random.default_rng(1)
    for seed in range(6):
        model, cfg = tiny_editor(seed=20 + seed, k_max=2)
        table = random_table(rng)
        value_tokens = all_value_tokens(table)
        take = sorted(
            rng.choice(len(value_tokens), size=int(rng.integers(0, min(4, len(value_tokens)) + 1)), replace=False)
        )
        skeleton = [value_tokens[i] for i in take]
        tokens, trace = iterate(model, table, skeleton, max_iter=3, max_state_len=512)
        assert trace.iterations <= 3
        for snap in trace.snapshots:
            assert snap.tokens[0] == BOS_TOKEN and snap.tokens[-1] == EOS_TOKEN
            assert is_subsequence(skeleton, snap.body())
        assert is_subsequence(skeleton, tokens)
        if trace.termination == FIXED_POINT:
            # one more edit round applied to the final state changes nothing
            memory_kv = table_memory_kv(model, table)
            state = trace.snapshots[-1]
            z = model.decode_hidden(state.tokens, memory_kv)
            after = masked_delete(state, model.deletion_scores(z))
            z = model.decode_hidden(after.tokens, memory_kv)
            after = insert_and_fill(after, model, memory_kv, z, model.max_len)
            assert after.tokens == state.tokens


def test_iterate_trained_stub_fixed_point_detection():
    # keep-all + one insertion everywhere: grows forever, stops at max_iter
    stub = StubEditor(insert_per_slot=1, fill_token="z")
    table = Table((Attribute("K", ("x",)),))
    tokens, trace = iterate(stub, table, ["a"], max_iter=4, max_state_len=512)
    assert trace.termination == MAX_ITERATIONS
    assert trace.iterations == 4
    assert is_subsequence(["a"], tokens)


# -- decoder-state reuse against a loop that decodes every pass ------------------

def _decode_every_pass(model, tokens, memory):
    """decode_hidden without reuse: embed, then a full pass that projects the memory."""
    ids = np.array(model.vocab.ids(tokens), dtype=np.int64)
    x = model.in_proj(model.encoder.tok_emb(ids)) + model.pos_emb(np.arange(len(tokens)))
    return model.decoder(x, memory, causal=False)


def _reference_iterate(model, table, skeleton, max_iter, hard_constraints, max_state_len):
    """The refinement loop spelled out on the tape, each of its passes decoding its state afresh.

    Deletions and insertion counts are the argmax of their heads' softmax,
    the distributions the realizer is trained on; `iterate` reads the logits.

    Returns the snapshots and the termination; an overflow ends them with OVERFLOW.
    """
    state = init_state(skeleton, protect_skeleton=hard_constraints)
    snapshots = [state]
    memory = model.encoder(linearize_table(table))
    for _ in range(max_iter):
        previous = state.tokens
        z = _decode_every_pass(model, state.tokens, memory)
        state = masked_delete(state, ag.softmax(model.deletion_logits(z)).data)
        z = _decode_every_pass(model, state.tokens, memory)
        slots = np.arange(len(state) - 1)
        counts = np.argmax(ag.softmax(model.placeholder_logits(z, slots)).data, axis=-1)
        if counts.sum() + len(state) > max_state_len:
            return snapshots, OVERFLOW
        tokens, protected = [BOS_TOKEN], [True]
        for slot, count in enumerate(counts):
            tokens += [PLH_TOKEN] * int(count)
            protected += [False] * int(count)
            tokens.append(state.tokens[slot + 1])
            protected.append(state.protected[slot + 1])
        plh = [i for i, t in enumerate(tokens) if t == PLH_TOKEN]
        if plh:
            z = _decode_every_pass(model, tokens, memory)
            for pos, tok in zip(plh, model.fill_tokens(model.token_logits(z, plh).data)):
                tokens[pos] = tok
        state = EditState(tokens, protected)
        snapshots.append(state)
        if state.tokens == previous:
            return snapshots, FIXED_POINT
    return snapshots, MAX_ITERATIONS


@st.composite
def _decoding_cases(draw):
    """Tiny random model and table; skeletons repeat tokens and hold unknown ones."""
    seed = draw(st.integers(0, 2**16))
    table = random_table(np.random.default_rng(seed))
    pool = [*all_value_tokens(table), "oov-token-1", "oov-token-2"]
    return {
        "seed": seed,
        "k_max": draw(st.integers(1, 4)),
        "table": table,
        "skeleton": draw(st.lists(st.sampled_from(pool), max_size=6)),
        "max_iter": draw(st.integers(0, 5)),
        "hard_constraints": draw(st.booleans()),
        "max_state_len": draw(st.integers(8, 64)),
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_decoding_cases())
def test_iterate_matches_a_loop_that_decodes_every_pass(case):
    model, _ = tiny_editor(seed=case["seed"] % 97, k_max=case["k_max"])
    args = (case["table"], case["skeleton"], case["max_iter"], case["hard_constraints"],
            case["max_state_len"])
    expected, termination = _reference_iterate(model, *args)
    tokens = None
    try:
        tokens, trace = iterate(model, *args)
    except StateOverflowError as err:
        trace = err.trace
    assert trace.termination == termination
    assert trace.iterations == len(expected) - 1 == len(trace.snapshots) - 1
    # Snapshot i is the state after iteration i, the initial state at 0.
    assert [(i, s.tokens, s.protected) for i, s in enumerate(trace.snapshots)] == [
        (i, s.tokens, s.protected) for i, s in enumerate(expected)
    ]
    if termination == OVERFLOW:
        assert tokens is None
    else:
        assert tokens == list(expected[-1].body())


def test_iterate_never_decodes_the_same_tokens_twice_in_a_row():
    rng = np.random.default_rng(5)
    for seed in range(10):
        model, _ = tiny_editor(seed=40 + seed, k_max=2)
        calls = []
        decode = model.decode_hidden

        def counting(tokens, memory_kv, decode=decode, calls=calls):
            calls.append(tuple(tokens))
            return decode(tokens, memory_kv)

        model.decode_hidden = counting
        table = random_table(rng)
        _, trace = iterate(model, table, all_value_tokens(table)[:3], max_iter=4,
                           hard_constraints=bool(seed % 2))
        assert trace.iterations >= 1
        assert all(a != b for a, b in zip(calls, calls[1:]))


def test_memoized_memory_projections_match_uncached_decoding():
    model, _ = tiny_editor(seed=3, n_layers=2)
    table = random_table(np.random.default_rng(3))
    first = [BOS_TOKEN, *all_value_tokens(table), EOS_TOKEN]
    second = [BOS_TOKEN, "oov-token", *all_value_tokens(table)[:1], PLH_TOKEN, EOS_TOKEN]
    memory = model.encoder(linearize_table(table))
    memory_kv = model.decoder.memory_kv(memory.rows.data)
    for tokens in (first, second, first):
        cached = model.decode_hidden(tokens, memory_kv)
        uncached = _decode_every_pass(model, tokens, memory).data
        np.testing.assert_allclose(cached, uncached, rtol=0, atol=1e-12)


def test_iterate_projects_the_table_memory_once_per_layer():
    model, _ = tiny_editor(seed=4, n_layers=2, k_max=3)
    projections = {}
    for i, layer in enumerate(model.decoder.layers):
        def counting(memory, i=i, project=layer.cross_attn.keys_values_step):
            projections[i] = projections.get(i, 0) + 1
            return project(memory)

        layer.cross_attn.keys_values_step = counting
    decodes = []
    decode = model.decode_hidden
    model.decode_hidden = lambda tokens, kv: decodes.append(tokens) or decode(tokens, kv)
    table = random_table(np.random.default_rng(4))
    iterate(model, table, all_value_tokens(table)[:2], max_iter=3)
    assert len(decodes) >= 3
    assert projections == {0: 1, 1: 1}


def test_nan_in_a_cross_attention_weight_raises_non_finite():
    model, _ = tiny_editor(seed=6)
    model.decoder.layers[0].cross_attn.wk.weight.data[0, 0] = np.nan
    table = random_table(np.random.default_rng(6))
    with pytest.raises(NonFiniteError) as info:
        iterate(model, table, all_value_tokens(table)[:2], max_iter=3)
    trace = info.value.trace
    assert trace.termination == NON_FINITE
    assert trace.iterations == 0
    assert trace.snapshots[0].body() == tuple(all_value_tokens(table)[:2])


def test_a_nan_in_any_weight_iterate_reads_names_the_op_the_tape_names():
    # Each weight the table encoder, the decoder and the three heads read,
    # spoiled alone: iterate's array passes must stop at the op where the
    # same loop on the tape ops stops. The token embedding is also spoiled
    # in BOS's row alone, which only the decoder reads. The first iteration
    # inserts, so the token head is read too.
    table = random_table(np.random.default_rng(10))
    skeleton = all_value_tokens(table)[:2]
    args = (table, skeleton, 2, True, 64)

    def spoiled(name, row=None):
        model, _ = tiny_editor(seed=10, n_layers=2, k_max=3)
        param = dict(model.named_parameters())[name]
        param.data[... if row is None else row] = np.nan
        return model

    model, _ = tiny_editor(seed=10, n_layers=2, k_max=3)
    cases = [(name, None) for name, _ in model.named_parameters()]
    cases.append(("encoder.tok_emb.weight", model.vocab.token_to_id[BOS_TOKEN]))
    ops = set()
    for name, row in cases:
        with pytest.raises(NonFiniteError) as tape:
            _reference_iterate(spoiled(name, row), *args)
        with pytest.raises(NonFiniteError) as arrays:
            iterate(spoiled(name, row), *args)
        assert str(arrays.value) == str(tape.value), name
        ops.add(str(tape.value).rsplit(" ", 1)[-1])
    assert ops == {"embedding_lookup", "linear", "keys_values", "attention", "feed_forward",
                   "layer_norm"}


def test_overflow_carries_the_states_decoded_before_it():
    stub = StubEditor(insert_per_slot=1, fill_token="z")
    table = Table((Attribute("K", ("x",)),))
    # 3 -> 5 -> 9 -> 17 tokens: the third insertion breaks a cap of 12.
    with pytest.raises(StateOverflowError) as info:
        iterate(stub, table, ["a"], max_iter=10, max_state_len=12)
    trace = info.value.trace
    assert trace.termination == OVERFLOW
    assert [len(s) for s in trace.snapshots] == [3, 5, 9]
    assert all(is_subsequence(["a"], s.body()) for s in trace.snapshots)


class _NonFiniteAfter(StubEditor):
    """StubEditor whose deletion head goes non-finite after `passes` passes (None: never)."""

    def __init__(self, passes=None, **kwargs):
        super().__init__(**kwargs)
        self.passes = passes

    def deletion_scores(self, z):
        if self.passes is not None:
            if self.passes == 0:
                raise NonFiniteError("deletion logits are not finite")
            self.passes -= 1
        return super().deletion_scores(z)


@pytest.mark.parametrize(
    "stub, max_iter, max_state_len, termination, iterations",
    [
        ({}, 10, 512, FIXED_POINT, 1),
        ({"insert_per_slot": 1}, 3, 512, MAX_ITERATIONS, 3),
        ({"insert_per_slot": 1}, 0, 512, MAX_ITERATIONS, 0),
        ({"insert_per_slot": 1}, 10, 12, OVERFLOW, 2),
        ({"insert_per_slot": 1, "passes": 2}, 10, 512, NON_FINITE, 2),
        ({"passes": 0}, 10, 512, NON_FINITE, 0),
    ],
    ids=["fixed_point", "max_iterations", "no_iterations", "overflow", "non_finite",
         "non_finite_at_once"],
)
def test_trace_iterations_count_the_snapshots_after_the_first(
    stub, max_iter, max_state_len, termination, iterations
):
    table = Table((Attribute("K", ("x",)),))
    try:
        _, trace = iterate(_NonFiniteAfter(**stub), table, ["a"], max_iter,
                           max_state_len=max_state_len)
    except (StateOverflowError, NonFiniteError) as err:
        trace = err.trace
    assert trace.termination == termination
    assert trace.iterations == len(trace.snapshots) - 1 == iterations


# -- the corpus driver: one outcome per example -----------------------------------

_TABLE = Table((Attribute("K", ("x",)),))


def _realize(model, skeletons, max_iter=10, hard_constraints=True):
    return list(realize_corpus(model, [_TABLE] * len(skeletons), skeletons, max_iter,
                               hard_constraints))


def _runaway_editor(max_state_len):
    """Tiny editor whose hidden states are all one row: keep every token, insert k_max per slot."""
    model, _ = tiny_editor(seed=0, max_state_len=max_state_len)
    last = model.decoder.layers[-1].ln3
    last.gain.data[...] = 0.0
    last.bias.data[...] = 1.0
    model.w_del.weight.data[...] = [1.0, 0.0]
    model.w_plh.weight.data[...] = 0.0
    model.w_plh.weight.data[:, model.k_max] = 1.0
    return model


def test_a_runaway_overflows_at_the_editors_own_position_cap():
    # 4 insertions per slot: 3 -> 11 tokens, then 11 + 40 is past the 12 positions.
    model = _runaway_editor(12)
    with pytest.raises(StateOverflowError, match=r"51 tokens \(cap 12\)") as info:
        iterate(model, _TABLE, ["a"], max_iter=10)
    assert info.value.trace.termination == OVERFLOW
    assert [len(s) for s in info.value.trace.snapshots] == [3, 11]
    [outcome] = realize_corpus(model, [_TABLE], [["a"]], 10, True)
    assert (outcome.termination, outcome.trace.iterations, len(outcome.tokens)) == (OVERFLOW, 1, 9)
    assert isinstance(outcome.error, StateOverflowError)


def test_a_state_cap_beyond_the_editors_positions_is_rejected():
    model = _runaway_editor(12)
    message = "max_state_len 13 exceeds the editor's 12-position cap"
    with pytest.raises(ValueError, match=message):
        iterate(model, _TABLE, ["a"], max_state_len=13)


def test_realize_corpus_passes_a_stage1_error_through_as_its_outcome():
    err = NonFiniteError("beam scores are not finite")
    assert _realize(StubEditor(), [["a"], err]) == [
        Realization(["a"], iterate(StubEditor(), _TABLE, ["a"])[1], FIXED_POINT, None, True),
        Realization([], None, NON_FINITE, err, None),
    ]


@pytest.mark.parametrize("n_tables, n_skeletons", [(3, 2), (1, 2), (1, 0)])
def test_realize_corpus_refuses_unequal_lengths_before_any_outcome(n_tables, n_skeletons):
    outcomes = realize_corpus(StubEditor(), [_TABLE] * n_tables, [["a"]] * n_skeletons, 10, True)
    with pytest.raises(ValueError, match=f"^{n_tables} tables for {n_skeletons} skeletons$"):
        next(outcomes)


def test_realize_corpus_keeps_the_last_state_of_an_overflow():
    # 3 -> 5 -> 9 -> 17 tokens: the third insertion breaks a cap of 12.
    [outcome] = _realize(StubEditor(insert_per_slot=1, fill_token="z", max_len=12), [["a"]])
    assert isinstance(outcome.error, StateOverflowError)
    assert outcome.trace is outcome.error.trace
    assert (outcome.termination, outcome.trace.iterations) == (OVERFLOW, 2)
    assert outcome.tokens == list(outcome.trace.snapshots[-1].body())
    assert len(outcome.tokens) == 7 and outcome.preserved


def test_realize_corpus_keeps_the_last_state_of_a_non_finite_abort():
    [outcome] = _realize(_NonFiniteAfter(passes=2, insert_per_slot=1), [["a"]])
    assert isinstance(outcome.error, NonFiniteError)
    assert (outcome.termination, outcome.trace.iterations) == (NON_FINITE, 2)
    assert outcome.tokens == list(outcome.trace.snapshots[-1].body())


def test_realize_corpus_gives_what_iterate_returns_on_plain_examples():
    rng = np.random.default_rng(4)
    model, _ = tiny_editor(seed=3, k_max=2)
    tables = [random_table(rng) for _ in range(4)]
    skeletons = [all_value_tokens(table)[:n] for n, table in enumerate(tables)]
    outcomes = list(realize_corpus(model, tables, skeletons, 3, True))
    assert len(outcomes) == len(tables)
    for table, skeleton, outcome in zip(tables, skeletons, outcomes):
        tokens, trace = iterate(model, table, skeleton, max_iter=3)
        assert outcome == Realization(tokens, trace, trace.termination, None, True)


def test_realize_corpus_reports_a_lost_skeleton_only_without_hard_constraints():
    stub = StubEditor(delete_everything=True)
    [kept] = _realize(stub, [["s1", "s2"]], max_iter=3)
    [lost] = _realize(stub, [["s1", "s2"]], max_iter=3, hard_constraints=False)
    assert (kept.tokens, kept.preserved) == (["s1", "s2"], True)
    assert (lost.tokens, lost.preserved) == ([], False)
