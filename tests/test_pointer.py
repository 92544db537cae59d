"""Pointer network: copy attention, teacher-forced loss, beam search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from skeltext.autograd import NonFiniteError, Tensor
from skeltext.data import Attribute, BOS_TOKEN, EOS_TOKEN, Example, Table
from skeltext.encoder import EncoderOutput
from skeltext.nn import DecoderCache
from skeltext.pointer import DataIntegrityError, SkeletonPointer, copy_pool
from skeltext.skeleton import annotate_skeleton
from skeltext.stopwords import default_stop_words
from skeltext.synth import TemplateSpec, generate
from skeltext.training import train_pointer

from helpers import random_table, tiny_config, tiny_pointer


def _enc(rows: np.ndarray, tokens: list[str]) -> EncoderOutput:
    return EncoderOutput(Tensor(rows), tokens)


def test_pointer_attention_uniform_when_keys_identical():
    model, _ = tiny_pointer()
    rows = np.tile(np.linspace(0.1, 1.0, 16), (4, 1))
    enc = _enc(rows, ["a", "b", "c", EOS_TOKEN])
    r = Tensor(np.random.default_rng(0).normal(size=(2, 16)))
    alpha = model.pointer_attention(r, model.wk(enc.hidden)).data
    assert np.allclose(alpha, 0.25, atol=1e-12)


def test_pointer_attention_softmax_arithmetic():
    # Identity maps and crafted vectors give logits (ln 3, 0) -> (0.75, 0.25).
    model, _ = tiny_pointer()
    d = model.d_model
    model.wq.weight.data[...] = np.eye(d)
    model.wk.weight.data[...] = np.eye(d)
    h = np.zeros((2, d))
    h[0, 0] = 1.0
    r = np.zeros((1, d))
    r[0, 0] = math.sqrt(d) * math.log(3.0)
    alpha = model.pointer_attention(Tensor(r), model.wk(Tensor(h))).data
    assert np.allclose(alpha, [[0.75, 0.25]], atol=1e-12)


def test_pointer_attention_scale_identity():
    # Scaling W_q and the encoder rows by c scales logits by c^2 exactly.
    model, _ = tiny_pointer(seed=5)
    rng = np.random.default_rng(6)
    r = Tensor(rng.normal(size=(1, 16)))
    rows = rng.normal(size=(3, 16))
    c = 1.7

    def logits(rows_arr):
        q = model.wq(r).data
        k = model.wk(Tensor(rows_arr)).data
        return (q @ k.T) / math.sqrt(model.d_model)

    base = logits(rows)
    model.wq.weight.data *= c
    scaled = logits(rows * c)
    model.wq.weight.data /= c
    assert np.allclose(scaled, c * c * base, atol=1e-9)


def _copy_distribution(alpha: np.ndarray, tokens: list[str]) -> dict[str, float]:
    distinct, pool = copy_pool(tokens)
    return dict(zip(distinct, alpha @ pool))


def test_copy_distribution_pools_identical_tokens():
    alpha = np.array([0.1, 0.1, 0.3, 0.2, 0.1, 0.2])
    tokens = ["a", "b", "London", "c", "d", "London"]
    distinct, pool = copy_pool(tokens)
    assert distinct == ["a", "b", "London", "c", "d"]  # first-occurrence order
    dist = _copy_distribution(alpha, tokens)
    assert dist["London"] == pytest.approx(0.5)
    assert sum(dist.values()) == pytest.approx(1.0)


def test_copy_distribution_single_support():
    dist = _copy_distribution(np.array([1.0]), [EOS_TOKEN])
    assert dist == {EOS_TOKEN: 1.0}


def test_copy_distribution_no_pooling_when_distinct():
    alpha = np.array([0.2, 0.3, 0.5])
    dist = _copy_distribution(alpha, ["a", "b", "c"])
    assert dist == pytest.approx({"a": 0.2, "b": 0.3, "c": 0.5})


def test_copy_support_restricted_to_table_tokens():
    model, _ = tiny_pointer(seed=1)
    table = Table((Attribute("Name_ID", ("Alda", "Bram", "Alda")),))
    enc = model.encode(table)
    logp, distinct = model.copy_log_probs(["<bos>"], enc)
    assert set(distinct) == {"Alda", "Bram", EOS_TOKEN}
    assert np.exp(logp.data[0]).sum() == pytest.approx(1.0, abs=1e-9)


def test_loss_two_step_decomposition():
    model, _ = tiny_pointer(seed=2)
    table = Table((Attribute("K", ("tok",)),))
    ex = Example(table, ("tok",), ("tok",))
    enc = model.encode(table)
    logp, distinct = model.copy_log_probs(["<bos>", "tok"], enc)
    idx = {t: i for i, t in enumerate(distinct)}
    expected = -(logp.data[0, idx["tok"]] + logp.data[1, idx[EOS_TOKEN]])
    assert model.loss(ex).item() == pytest.approx(expected, abs=1e-12)


def test_loss_empty_skeleton_is_eos_step_only():
    model, _ = tiny_pointer(seed=3)
    table = Table((Attribute("K", ("tok",)),))
    ex = Example(table, ("text",), ())
    enc = model.encode(table)
    logp, distinct = model.copy_log_probs(["<bos>"], enc)
    expected = -logp.data[0, distinct.index(EOS_TOKEN)]
    assert model.loss(ex).item() == pytest.approx(expected, abs=1e-12)


def test_loss_perfect_model_is_zero(monkeypatch):
    model, _ = tiny_pointer(seed=4)
    table = Table((Attribute("K", ("tok",)),))
    ex = Example(table, ("tok",), ("tok",))

    def perfect(prefix, enc):
        distinct = ["tok", EOS_TOKEN]
        n = len(prefix)
        probs = np.full((n, 2), 1e-300)
        for t in range(n):
            probs[t, 0 if t == 0 else 1] = 1.0
        return Tensor(np.log(probs)), distinct

    monkeypatch.setattr(model, "copy_log_probs", perfect)
    assert model.loss(ex).item() == pytest.approx(0.0, abs=1e-12)


def test_loss_requires_annotation_and_table_membership():
    model, _ = tiny_pointer(seed=5)
    table = Table((Attribute("K", ("tok",)),))
    with pytest.raises(DataIntegrityError):
        model.loss(Example(table, ("tok",), None))
    with pytest.raises(DataIntegrityError, match="ghost"):
        model.loss(Example(table, ("tok",), ("ghost",)))


class _ForcedPointer(SkeletonPointer):
    """Deterministic one-hot copy distribution following a forced script."""

    def __init__(self, script):
        # deliberately skip parent init; only decoding hooks are used
        self.script = list(script)
        self.forced_vocab = sorted(set(self.script) | {EOS_TOKEN})
        self.max_prefix_len = 128

    def _start_search(self, table):
        return None

    def _step_log_probs(self, search, live, parents):
        t = len(live[0].tokens)
        target = self.script[t] if t < len(self.script) else EOS_TOKEN
        probs = np.full(len(self.forced_vocab), 1e-12)
        probs[self.forced_vocab.index(target)] = 1.0
        return np.tile(np.log(probs / probs.sum()), (len(live), 1)), self.forced_vocab


@pytest.mark.parametrize("width", [1, 2, 5])
def test_one_hot_model_reproduces_forced_sequence(width):
    script = ["Lunden", "14", "Lunden"]
    model = _ForcedPointer(script)
    table = Table((Attribute("K", ("x",)),))
    pred = model.beam_search(table, beam_width=width, max_len=10)
    assert pred.tokens == script
    assert pred.finished


def test_beam_score_at_least_greedy_score():
    rng = np.random.default_rng(8)
    for seed in range(4):
        model, _ = tiny_pointer(seed=10 + seed)
        table = random_table(rng)
        greedy = model.beam_search(table, beam_width=1, max_len=8)
        beam = model.beam_search(table, beam_width=5, max_len=8)
        assert beam.score >= greedy.score - 1e-12


def test_truncation_is_flagged_not_silent():
    script = ["a", "b", "c", "d", "e"]
    model = _ForcedPointer(script)
    pred = model.beam_search(Table((Attribute("K", ("x",)),)), beam_width=1, max_len=3)
    assert not pred.finished
    assert len(pred.tokens) == 3


def test_argmax_invariant_under_logit_shift():
    logits = np.array([1.3, -0.2, 0.8, 0.4])
    tokens = ["a", "b", "a", EOS_TOKEN]

    def argmax_token(lg):
        e = np.exp(lg - lg.max())
        dist = _copy_distribution(e / e.sum(), tokens)
        return max(dist, key=dist.get)

    assert argmax_token(logits) == argmax_token(logits + 5.0) == argmax_token(logits - 3.0)


def test_cached_decoder_states_match_full_decoder_rows():
    # Three hypotheses decoded one position per pass; between passes the cache
    # rows are gathered by parent, reordering and duplicating hypotheses.
    rng = np.random.default_rng(21)
    model, _ = tiny_pointer(seed=21)
    enc = model.encode(random_table(rng))
    cache = DecoderCache(model.decoder, enc.hidden)
    prefixes = [[BOS_TOKEN]]
    states = model.decoder_states([BOS_TOKEN], enc, cache)
    for parents in ([0, 0, 0], [2, 0, 0], [1, 2, 2], [0, 1, 2]):
        for i, prefix in enumerate(prefixes):
            full = model.decoder_states(prefix, enc).data[-1]
            assert np.abs(states.data[i] - full).max() < 1e-12
        cache.reorder(parents)
        new = [str(rng.choice(enc.cell_tokens)) for _ in parents]
        prefixes = [[*prefixes[p], tok] for p, tok in zip(parents, new)]
        states = model.decoder_states(new, enc, cache)
        assert cache.length == len(prefixes[0])
    for i, prefix in enumerate(prefixes):
        full = model.decoder_states(prefix, enc).data
        assert np.abs(states.data[i] - full[-1]).max() < 1e-12


@pytest.mark.parametrize("width", [1, 2, 5])
def test_beam_score_is_teacher_forced_log_prob(width, monkeypatch):
    # Every live hypothesis's next-token distribution, at every step, must be
    # the last row of the teacher-forced pass over its own prefix.
    rng = np.random.default_rng(30 + width)
    finished = 0
    for seed in range(6):
        model, _ = tiny_pointer(seed=40 + seed)
        table = random_table(rng)
        enc = model.encode(table)
        step = model._step_log_probs

        def checked(search, live, parents):
            logp, distinct = step(search, live, parents)
            for row, hyp in enumerate(live):
                forced, forced_distinct = model.copy_log_probs([BOS_TOKEN, *hyp.tokens], enc)
                assert forced_distinct == distinct
                assert np.abs(logp[row] - forced.data[-1]).max() < 1e-9
            return logp, distinct

        monkeypatch.setattr(model, "_step_log_probs", checked)
        pred = model.beam_search(table, beam_width=width, max_len=24)
        if not pred.finished:
            continue
        finished += 1
        logp, distinct = model.copy_log_probs([BOS_TOKEN, *pred.tokens], enc)
        targets = [distinct.index(t) for t in [*pred.tokens, EOS_TOKEN]]
        forced = logp.data[np.arange(len(targets)), targets].sum()
        assert abs(pred.score - forced) < 1e-9
    assert finished >= 3


def test_non_finite_weight_surfaces_in_beam_search():
    model, _ = tiny_pointer(seed=9)
    model.decoder.layers[0].ff.lin1.weight.data[0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        model.beam_search(random_table(np.random.default_rng(9)), beam_width=3, max_len=8)


def test_beam_search_rejects_max_len_beyond_decoder_positions():
    model, _ = tiny_pointer(seed=12)
    table = random_table(np.random.default_rng(12))
    limit = model.max_prefix_len - 1
    with pytest.raises(ValueError, match=f"max_len {limit + 1} exceeds {limit}.*{limit + 1}"):
        model.beam_search(table, beam_width=2, max_len=limit + 1)
    assert len(model.beam_search(table, beam_width=2, max_len=limit).tokens) <= limit


def test_teacher_forced_loss_decreases_monotonically_50_steps():
    corpus = generate(TemplateSpec(seed=11), 10)
    stop = default_stop_words()
    annotated = [
        Example(ex.table, ex.reference, tuple(annotate_skeleton(ex.table, ex.reference, stop)))
        for ex in corpus
    ]
    cfg = tiny_config(
        seed=11, batch_size=10, pointer_epochs=50, pointer_peak_lr=2e-3, pointer_warmup=50
    )
    losses: list[float] = []
    train_pointer(
        annotated, cfg,
        lambda rec: losses.append(rec["loss"]) if rec["event"] == "pointer_step" else None,
    )
    assert len(losses) == 50
    for earlier, later in zip(losses, losses[1:]):
        assert later < earlier
