"""Lean inference passes: what every probe gives, with a second run of the pass that raised."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeltext import autograd as ag
from skeltext.autograd import NonFiniteError
from skeltext.data import BOS_TOKEN
from skeltext.decoding import iterate
from skeltext.pointer import SkeletonPrediction

from helpers import all_value_tokens, every_probe, lean_passes, random_table, tiny_editor, tiny_pointer

F32_MAX = float(np.finfo(np.float32).max)
# NaN, the infinities, values whose squares overflow, and values a product overflows.
VALUES = (np.nan, np.inf, -np.inf, 1e154, -1e154, 1.7e308, -1.7e308)


def test_the_three_hot_passes_run_lean():
    for cls, name in lean_passes():
        assert vars(cls)[name].__wrapped__.__name__ == name
    assert not ag._lean


def _model(case):
    build = tiny_pointer if case["stage"] == "pointer" else tiny_editor
    model, _ = build(seed=case["seed"], n_layers=case["n_layers"], k_max=3)
    return model


def _spoil(model, case) -> str:
    """Set the case's parameter, row or entry to its value; returns the parameter's name."""
    if case["value"] == "chain":
        # _overflowing_editor's float32 chain: stored weights, whose products overflow.
        attn = model.decoder.layers[0].self_attn
        for p in (model.encoder.tok_emb.weight, model.in_proj.weight, attn.wv.weight,
                  attn.wo.weight):
            p.data[...] = F32_MAX
        attn.wo.weight.data[:, ::2] *= -1.0
        return "chain"
    named = list(model.named_parameters())
    name, param = (named[case["param"] % len(named)] if isinstance(case["param"], int)
                   else (case["param"], dict(named)[case["param"]]))
    data = param.data
    if case["where"] == "all":
        data[...] = case["value"]
    elif case["where"] == "row":
        data[case["index"] % data.shape[0]] = case["value"]
    else:
        data.reshape(-1)[case["index"] % data.size] = case["value"]
    return name


def _outcome(model, case):
    """What the case's beam search or refinement gives: its result or error, and its warnings."""
    table = random_table(np.random.default_rng(case["seed"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if case["stage"] == "pointer":
                pred = model.beam_search(table, beam_width=3, max_len=8)
                result = ("ok", pred.tokens, pred.score.hex(), pred.finished)
            else:
                tokens, trace = iterate(model, table, all_value_tokens(table)[:2], max_iter=3)
                result = ("ok", tokens, _trace(trace))
        except Exception as err:  # compared, type, message and trace
            result = (type(err).__name__, str(err), _trace(getattr(err, "trace", None)))
    return result, [(w.category.__name__, str(w.message)) for w in caught]


def _trace(trace):
    if trace is None:
        return None
    return trace.termination, [(s.tokens, s.protected) for s in trace.snapshots]


_CASES = st.fixed_dictionaries({
    "stage": st.sampled_from(["pointer", "editor"]),
    "seed": st.integers(0, 40),
    "n_layers": st.integers(1, 2),
    "param": st.integers(0, 10**4),
    "where": st.sampled_from(["all", "row", "entry"]),
    "index": st.integers(0, 10**4),
    "value": st.sampled_from(VALUES + ("chain",)),
})


def _case(stage, param, where, value, seed=0, n_layers=1, index=0):
    return {"stage": stage, "seed": seed, "n_layers": n_layers, "param": param, "where": where,
            "index": index, "value": value}


@settings(max_examples=200, deadline=None)
@given(_CASES)
# One case per guard, where a lean run without that guard differs: a score
# that overflows to -inf (the softmax hides it), NaN before a relu, the
# float32 chain whose LayerNorm variance overflows, a NaN the pointer's
# softmax spreads, a head reading NaN weights, and the rows leaving a pass.
@example(_case("pointer", "decoder.layers.0.cross_attn.wq.bias", "row", -1.7e308, seed=33,
               index=1630))
@example(_case("editor", "decoder.layers.0.ff.lin1.bias", "entry", np.nan))
@example(_case("editor", 0, "all", "chain"))
@example(_case("pointer", 0, "all", "chain"))
@example(_case("editor", "encoder.fuse.bias", "all", np.nan, seed=3))
@example(_case("pointer", "wq.weight", "all", -np.inf, seed=16))
@example(_case("editor", "w_del.weight", "all", np.nan))
@example(_case("editor", "w_plh.weight", "all", np.nan))
@example(_case("editor", "encoder.encoder.layers.1.ln2.bias", "all", np.nan, seed=7, n_layers=2))
@example(_case("editor", "decoder.layers.0.ln3.gain", "row", -np.inf, seed=24, index=9435))
def test_a_lean_run_gives_what_every_probe_gives(case):
    # Equal results and warnings, or the same error, message and trace.
    model = _model(case)
    name = _spoil(model, case)
    lean = _outcome(model, case)
    with every_probe():
        probed = _outcome(model, case)
    assert lean == probed, name
    # A parameter that every run reads, all NaN, stops it; a fill reads w_tok only
    # when a placeholder is inserted.
    if case["where"] == "all" and case["value"] is np.nan and name != "w_tok.weight":
        assert probed[0][0] == "NonFiniteError", name


def _counting(calls, obj, name, label):
    """Record each call of obj.name as (label, rows of its first argument)."""
    method = getattr(obj, name)

    def counted(*args):
        calls.append((label, len(args[0])))
        return method(*args)

    setattr(obj, name, counted)


def _counted_editor(calls):
    """A tiny editor that records every call of its modules that a refinement makes."""
    model, _ = tiny_editor(seed=10, n_layers=2, k_max=3)
    _counting(calls, model.encoder.encoder, "step", "encode")
    _counting(calls, model.decoder, "step", "decode")
    for name in ("_embed_step", "deletion_scores", "placeholder_scores", "argmax_fill"):
        _counting(calls, model, name, name)
    return model


def test_an_error_runs_only_the_pass_that_raised_again_and_once():
    # Stage 2, with a NaN in the first position embedding row that the first
    # state does not read. The pass that reads it first runs lean, meets the
    # NaN at an attention guard, and runs again with every probe, which stops
    # at the embedding. No other call runs twice.
    table = random_table(np.random.default_rng(10))
    args = (table, all_value_tokens(table)[:2], 3)
    clean: list = []
    _, trace = iterate(_counted_editor(clean), *args)
    first = next(n for label, n in clean if label == "_embed_step")
    grown = next(i for i, (label, n) in enumerate(clean) if label == "_embed_step" and n > first)
    calls: list = []
    model = _counted_editor(calls)
    model.pos_emb.weight.data[first] = np.nan
    with pytest.raises(NonFiniteError, match="from embedding_lookup$") as info:
        iterate(model, *args)
    n = clean[grown][1]
    assert calls == clean[:grown] + [("_embed_step", n), ("decode", n), ("_embed_step", n)]
    assert info.value.trace.snapshots == trace.snapshots[: len(info.value.trace.snapshots)]


def test_a_beam_step_that_raises_leaves_the_cache_as_it_was():
    table = random_table(np.random.default_rng(3))
    model, _ = tiny_pointer(seed=3, n_layers=2)
    model.pos_emb.weight.data[2] = np.nan
    search = model._start_search(table)
    live = [SkeletonPrediction([], 0.0, False)]
    for _ in range(2):
        model._step_log_probs(search, live, [0])
        live = [SkeletonPrediction(["Alda"], 0.0, False)]
    past = search.past
    with pytest.raises(NonFiniteError, match="from embedding_lookup$"):
        model._step_log_probs(search, live, [0])
    assert search.past is past and all(kv.shape[3] == 2 for kv in past)
    # The pointer head reads the decoder's output after the decoder has run.
    model, _ = tiny_pointer(seed=3, n_layers=2)
    model.wq.weight.data[0, 0] = np.nan
    search = model._start_search(table)
    with pytest.raises(NonFiniteError, match="from linear$"):
        model._step_log_probs(search, [SkeletonPrediction([], 0.0, False)], [0])
    assert search.past is None
    states, _ = model.decoder_states([BOS_TOKEN], search.memory_kv, [0], search.past)
    assert states.shape == (1, model.d_model)
    # A step that the decoder's second layer stops stores nothing either.
    model, _ = tiny_pointer(seed=3, n_layers=2)
    model.decoder.layers[1].ff.lin1.bias.data[0] = np.nan
    search = model._start_search(table)
    with pytest.raises(NonFiniteError, match="from feed_forward$"):
        model._step_log_probs(search, [SkeletonPrediction([], 0.0, False)], [0])
    assert search.past is None
