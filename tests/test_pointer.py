"""Pointer network: copy attention, teacher-forced loss, beam search."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

from skeltext import autograd as ag
from skeltext.autograd import NonFiniteError, Tensor
from skeltext.data import Attribute, BOS_TOKEN, EOS_TOKEN, Example, Table
from skeltext.pointer import DataIntegrityError, SkeletonPointer, SkeletonPrediction, copy_pool
from skeltext.skeleton import annotate_skeleton, default_stop_words
from skeltext.synth import TemplateSpec, generate
from skeltext.training import train_pointer

from helpers import encode_cells, every_probe, random_table, tiny_config, tiny_pointer


def test_pointer_attention_uniform_when_keys_identical():
    model, _ = tiny_pointer()
    rows = Tensor(np.tile(np.linspace(0.1, 1.0, 16), (4, 1)))
    r = Tensor(np.random.default_rng(0).normal(size=(2, 16)))
    alpha = model.pointer_attention(r, model.wk(rows).transpose()).data
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
    alpha = model.pointer_attention(Tensor(r), model.wk(Tensor(h)).transpose()).data
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
    logp, distinct = model.copy_log_probs(["<bos>"], *encode_cells(model, table))
    assert set(distinct) == {"Alda", "Bram", EOS_TOKEN}
    assert np.exp(logp.data[0]).sum() == pytest.approx(1.0, abs=1e-9)


def test_loss_two_step_decomposition():
    model, _ = tiny_pointer(seed=2)
    table = Table((Attribute("K", ("tok",)),))
    ex = Example(table, ("tok",), ("tok",))
    memory, tokens = encode_cells(model, table)
    logp, distinct = model.copy_log_probs(["<bos>", "tok"], memory, tokens)
    idx = {t: i for i, t in enumerate(distinct)}
    expected = -(logp.data[0, idx["tok"]] + logp.data[1, idx[EOS_TOKEN]])
    assert model.loss(ex, memory, tokens).item() == pytest.approx(expected, abs=1e-12)


def test_loss_empty_skeleton_is_eos_step_only():
    model, _ = tiny_pointer(seed=3)
    table = Table((Attribute("K", ("tok",)),))
    ex = Example(table, ("text",), ())
    memory, tokens = encode_cells(model, table)
    logp, distinct = model.copy_log_probs(["<bos>"], memory, tokens)
    expected = -logp.data[0, distinct.index(EOS_TOKEN)]
    assert model.loss(ex, memory, tokens).item() == pytest.approx(expected, abs=1e-12)


def test_loss_perfect_model_is_zero(monkeypatch):
    model, _ = tiny_pointer(seed=4)
    table = Table((Attribute("K", ("tok",)),))
    ex = Example(table, ("tok",), ("tok",))

    def perfect(prefix, memory, cell_tokens):
        distinct = ["tok", EOS_TOKEN]
        n = len(prefix)
        probs = np.full((n, 2), 1e-300)
        for t in range(n):
            probs[t, 0 if t == 0 else 1] = 1.0
        return Tensor(np.log(probs)), distinct

    monkeypatch.setattr(model, "copy_log_probs", perfect)
    assert model.loss(ex, *encode_cells(model, table)).item() == pytest.approx(0.0, abs=1e-12)


def test_loss_requires_annotation_and_table_membership():
    model, _ = tiny_pointer(seed=5)
    table = Table((Attribute("K", ("tok",)),))
    memory, tokens = encode_cells(model, table)
    with pytest.raises(DataIntegrityError):
        model.loss(Example(table, ("tok",), None), memory, tokens)
    with pytest.raises(DataIntegrityError, match="ghost"):
        model.loss(Example(table, ("tok",), ("ghost",)), memory, tokens)
    assert EOS_TOKEN in tokens  # the EOS cell can be copied, but is no skeleton token:
    with pytest.raises(ValueError, match="skeleton holds the reserved token '<eos>'"):
        Example(table, ("tok",), ("tok", EOS_TOKEN))  # such an example cannot be built


class _ForcedPointer(SkeletonPointer):
    """Deterministic one-hot copy distribution following a forced script."""

    def __init__(self, script):
        # deliberately skip parent init; only decoding hooks are used
        self.script = list(script)
        self.forced_vocab = sorted(set(self.script) | {EOS_TOKEN})
        self.max_len = 128

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


def _reference_beam_search(
    model, table, beam_width, max_len, length_normalize=False, stop_early=True
):
    """Beam search as a plain loop: a per-row argsort, every expansion built, one stable sort.

    With stop_early, the search ends once the best finished hypothesis ranks
    at or above the best rank a live one can still reach: its score, or with
    length_normalize its score over max_len + 1 tokens (log-probabilities are
    <= 0). Without it, the search runs until no hypothesis is live.
    """

    def rank(h):
        return h.score / (len(h.tokens) + 1) if length_normalize else h.score

    def bound(h):
        return h.score / (max_len + 1) if length_normalize else h.score

    search = model._start_search(table)
    live, parents = [SkeletonPrediction([], 0.0, False)], [0]
    done, exhausted = [], []
    for _ in range(max_len + 1):
        if not live:
            break
        if stop_early and done and max(map(rank, done)) >= max(map(bound, live)):
            break
        logp, distinct = model._step_log_probs(search, live, parents)
        expansions = []
        for row, hyp in enumerate(live):
            for j in np.argsort(-logp[row])[:beam_width]:
                score = hyp.score + float(logp[row, j])
                if distinct[j] == EOS_TOKEN:
                    done.append(SkeletonPrediction(hyp.tokens, score, True))
                elif len(hyp.tokens) < max_len:
                    extended = SkeletonPrediction([*hyp.tokens, distinct[j]], score, False)
                    expansions.append((extended, row))
            if len(hyp.tokens) >= max_len:
                exhausted.append(hyp)
        expansions.sort(key=lambda e: -e[0].score)
        live = [h for h, _ in expansions[:beam_width]]
        parents = [row for _, row in expansions[:beam_width]]
    return max(done or live + exhausted, key=rank)


class _TiedPointer(_ForcedPointer):
    """Scores quantized to a few levels, so most candidates tie within and across rows."""

    def __init__(self, seed):
        super().__init__([])
        self.forced_vocab = ["a", "b", "c", "d", EOS_TOKEN]
        self.rng = np.random.default_rng(seed)

    def _step_log_probs(self, search, live, parents):
        levels = self.rng.integers(0, 3, size=(len(live), len(self.forced_vocab)))
        levels[:, -1] = 3  # EOS is never likely, so hypotheses run to max_len
        return -np.log(2.0) * levels, self.forced_vocab


def _search_trace(model, search_fn, *args):
    """The result of one search and the (live tokens, parents) of each of its steps."""
    steps, step = [], model._step_log_probs

    def recording(search, live, parents):
        steps.append(([h.tokens for h in live], list(parents)))
        return step(search, live, parents)

    model._step_log_probs = recording
    try:
        pred = search_fn(*args)
    finally:
        del model._step_log_probs
    return (pred.tokens, pred.score.hex(), pred.finished), steps


class _LengthPointer(_ForcedPointer):
    """EOS first (0.6) beats "a" (0.4), after which EOS is all but certain.

    The empty skeleton has the best score (log 0.6); ["a"] has the best
    length-normalized one (log 0.4 / 2).
    """

    def __init__(self):
        super().__init__([])
        self.forced_vocab = ["a", EOS_TOKEN]

    def _step_log_probs(self, search, live, parents):
        rows = [[1e-6, 1.0 - 1e-6] if h.tokens else [0.4, 0.6] for h in live]
        return np.log(np.array(rows)), self.forced_vocab


class _LatePointer(_ForcedPointer):
    """EOS first (0.7) beats "a" (0.3); then "a" is all but certain, and after four, EOS.

    ["a"] * 4 has the best length-normalized score, but while it is ["a"]
    its own normalized score is below the empty skeleton's: a stop rule
    that bounded a live hypothesis by its current rank would return [].
    """

    def __init__(self):
        super().__init__([])
        self.forced_vocab = ["a", EOS_TOKEN]

    def _step_log_probs(self, search, live, parents):
        def row(n):
            return [0.3, 0.7] if n == 0 else [1 - 1e-9, 1e-9] if n < 4 else [1e-9, 1 - 1e-9]

        return np.log(np.array([row(len(h.tokens)) for h in live])), self.forced_vocab


@pytest.mark.parametrize(
    "width, length_normalize",
    [pytest.param(w, norm, id=f"{w}-normalized" if norm else str(w))
     for norm in (False, True) for w in (1, 3, 5)],
)
def test_beam_search_matches_the_plain_loop_to_the_bit(width, length_normalize):
    # Every step's hypotheses and parents, and the result's tokens, score
    # bits and finished flag, tie order included.
    rng = np.random.default_rng(50 + width)
    for seed in range(4):
        model, _ = tiny_pointer(seed=60 + seed)
        table = random_table(rng)
        args = (table, width, 10, length_normalize)
        got = _search_trace(model, model.beam_search, *args)
        want = _search_trace(model, _reference_beam_search, model, *args)
        assert got == want
    table = Table((Attribute("K", ("x",)),))  # the scripted pointers ignore the table
    args = (table, width, 6, length_normalize)
    for seed in range(6):
        model = _TiedPointer(seed)
        got = _search_trace(model, model.beam_search, *args)
        model = _TiedPointer(seed)
        want = _search_trace(model, _reference_beam_search, model, *args)
        assert got == want
    model = _LengthPointer()
    got = _search_trace(model, model.beam_search, *args)
    assert got == _search_trace(model, _reference_beam_search, model, *args)
    # A beam of one never keeps ["a"]; a wider one lets normalization pick it.
    assert got[0][0] == (["a"] if length_normalize and width > 1 else [])


@pytest.mark.parametrize(
    "length_normalize", [False, True], ids=["unnormalized", "normalized"]
)
def test_an_early_stop_gives_the_exhaustive_search_result_to_the_bit(length_normalize):
    # Tokens, score bits and finished flag against a search that never stops
    # early; the stop must also cut steps in most searches, or it shows nothing.
    rng = np.random.default_rng(70)
    cut = 0
    for width in (2, 3, 5):
        for seed in range(4):
            model, _ = tiny_pointer(seed=80 + seed)
            args = (random_table(rng), width, 10, length_normalize)
            got, steps = _search_trace(model, model.beam_search, *args)
            want, every_step = _search_trace(
                model, _reference_beam_search, model, *args, False)
            assert got == want
            cut += len(steps) < len(every_step)
    assert cut >= 6  # of 12
    table = Table((Attribute("K", ("x",)),))  # the scripted pointers ignore the table
    # (pointer, best normalized skeleton, steps taken normalized, unnormalized)
    for model, best, normalized, plain in ((_LengthPointer(), ["a"], 2, 1),
                                           (_LatePointer(), ["a"] * 4, 5, 1)):
        args = (table, 3, 6, length_normalize)
        got, steps = _search_trace(model, model.beam_search, *args)
        want, every_step = _search_trace(model, _reference_beam_search, model, *args, False)
        assert got == want
        assert got[0] == (best if length_normalize else [])
        assert (len(steps), len(every_step)) == (normalized if length_normalize else plain, 7)


def test_a_step_scores_a_token_holding_all_the_copy_mass_zero(monkeypatch):
    # These cells' attention, summed, rounds above 1; the stop rule is exact
    # only while no step raises a score.
    model, _ = tiny_pointer(seed=15)
    table = Table((Attribute("K", ("Alda", "Alda", "Alda")),))
    attn = ag.softmax(Tensor(np.array([[2.1, -1.1, -0.4, -800.0]])))
    assert (attn.data @ copy_pool(["Alda"] * 3 + [EOS_TOKEN])[1])[0, 0] > 1.0
    monkeypatch.setattr(model, "_step_attention", lambda r, keys_t: attn.data)
    search = model._start_search(table)
    logp, distinct = model._step_log_probs(search, [SkeletonPrediction([], 0.0, False)], [0])
    assert distinct == ["Alda", EOS_TOKEN]
    assert logp.tolist() == [[0.0, -np.inf]]


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
    # Three hypotheses decoded one position per pass; between passes the past
    # rows are gathered by parent, reordering and duplicating hypotheses.
    rng = np.random.default_rng(21)
    model, _ = tiny_pointer(seed=21)
    memory, cell_tokens = encode_cells(model, random_table(rng))
    memory_kv = model.decoder.memory_kv(memory.rows.data)
    prefixes = [[BOS_TOKEN]]
    states, past = model.decoder_states([BOS_TOKEN], memory_kv, [0])
    for parents in ([0, 0, 0], [2, 0, 0], [1, 2, 2], [0, 1, 2]):
        for i, prefix in enumerate(prefixes):
            full = model.decoder_states(prefix, memory).data[-1]
            assert np.abs(states[i] - full).max() < 1e-12
        new = [str(rng.choice(cell_tokens)) for _ in parents]
        prefixes = [[*prefixes[p], tok] for p, tok in zip(parents, new)]
        states, past = model.decoder_states(new, memory_kv, parents, past)
        assert all(kv.shape[3] == len(prefixes[0]) for kv in past)
    for i, prefix in enumerate(prefixes):
        full = model.decoder_states(prefix, memory).data
        assert np.abs(states[i] - full[-1]).max() < 1e-12


@pytest.mark.parametrize("width,n_layers", [(1, 1), (3, 2), (5, 3)])
def test_a_cached_beam_step_builds_a_fixed_number_of_tensors(width, n_layers, monkeypatch):
    # A beam step runs on plain arrays from the token embedding to the copy
    # scores, so it builds no Tensor, whatever the number of live hypotheses;
    # nor does the start of a search: the table's encoding, the pointer keys
    # and the memory's projections.
    model, _ = tiny_pointer(seed=14, n_layers=n_layers)
    built = []
    init = Tensor.__init__
    monkeypatch.setattr(
        Tensor, "__init__", lambda t, *a, **k: built.append(1) or init(t, *a, **k)
    )
    search = model._start_search(random_table(np.random.default_rng(14)))
    model._step_log_probs(search, [SkeletonPrediction([], 0.0, False)], [0])
    live = [SkeletonPrediction([tok], 0.0, False) for tok in search.distinct[:width]]
    live += [live[0]] * (width - len(live))
    logp, _ = model._step_log_probs(search, live, [0] * width)
    assert logp.shape[0] == width
    assert len(built) == 0


def _step_weights(model) -> list[tuple[str, str]]:
    """(name, op) of every parameter a beam step reads, and the op a non-finite value there names.

    The cross-attention key and value weights are not read by a step: the
    search's memory_kv holds their projections of the memory.
    """
    ops = {"encoder.tok_emb": "embedding_lookup", "in_proj": "linear",
           "pos_emb": "embedding_lookup", "wq": "linear"}
    layer_ops = {"self_attn.wk": "keys_values", "self_attn.wv": "keys_values",
                 "self_attn.wq": "attention", "self_attn.wo": "attention",
                 "cross_attn.wq": "attention", "cross_attn.wo": "attention",
                 "ff.lin1": "feed_forward", "ff.lin2": "feed_forward",
                 "ln1": "layer_norm", "ln2": "layer_norm", "ln3": "layer_norm"}
    read = []
    for name, _ in model.named_parameters():
        module = name.rsplit(".", 1)[0]
        if name.startswith("decoder.layers."):
            op = layer_ops.get(module.split(".", 3)[3])
        else:
            op = ops.get(module)
        if op is not None:
            read.append((name, op))
    return read


def test_a_nan_in_any_weight_a_beam_step_reads_names_its_op():
    # The ops are those the Tensor path of the step named: the array step
    # probes every result the tape ops probed. The token embedding is shared
    # with the encoder, so only the row of the step's token, BOS, is spoiled.
    table = random_table(np.random.default_rng(24))
    model, _ = tiny_pointer(seed=24, n_layers=2)
    weights = _step_weights(model)
    assert len(weights) == 5 + 2 * 22
    for name, op in weights:
        model, _ = tiny_pointer(seed=24, n_layers=2)
        param = dict(model.named_parameters())[name]
        if name == "encoder.tok_emb.weight":
            param.data[model.vocab.token_to_id[BOS_TOKEN]] = np.nan
        else:
            param.data[...] = np.nan
        search = model._start_search(table)
        with pytest.raises(NonFiniteError, match=f"entering the graph from {op}$"):
            model._step_log_probs(search, [SkeletonPrediction([], 0.0, False)], [0])


def _search_op(name: str) -> str:
    """The op a NaN filling parameter `name` names in a beam search: the first op that reads it.

    The pointer keys and the cross-attention keys and values are projected
    from the table's encoding once, before the first step.
    """
    module = name.split(".")[:-1]
    if module[-1].endswith("_emb"):
        return "embedding_lookup"
    if len(module) == 1 or module[-1] == "fuse":  # in_proj, wq, wk and the encoder's fuse
        return "linear"
    if module[-2].endswith("attn"):
        return "keys_values" if module[-1] in ("wk", "wv") else "attention"
    return "feed_forward" if module[-2] == "ff" else "layer_norm"


@pytest.mark.parametrize("probed", [False, True], ids=["lean", "every_probe"])
def test_a_nan_in_any_weight_beam_search_names_the_op_that_reads_it_first(probed):
    # The public search, whose passes run lean, against the same search with
    # every probe: each parameter, spoiled alone, names the op that reads it first.
    table = random_table(np.random.default_rng(24))
    names = [name for name, _ in tiny_pointer(seed=24, n_layers=2)[0].named_parameters()]
    ops = set()
    for name in names:
        model, _ = tiny_pointer(seed=24, n_layers=2)
        dict(model.named_parameters())[name].data[...] = np.nan
        op = _search_op(name)
        with every_probe() if probed else contextlib.nullcontext():
            with pytest.raises(NonFiniteError, match=f"entering the graph from {op}$"):
                model.beam_search(table, beam_width=3, max_len=8)
        ops.add(op)
    assert ops == {"embedding_lookup", "linear", "keys_values", "attention", "feed_forward",
                   "layer_norm"}


@pytest.mark.parametrize("width", [1, 2, 5])
def test_beam_score_is_teacher_forced_log_prob(width, monkeypatch):
    # Every live hypothesis's next-token distribution, at every step, must be
    # the last row of the teacher-forced pass over its own prefix.
    rng = np.random.default_rng(30 + width)
    finished = 0
    for seed in range(6):
        model, _ = tiny_pointer(seed=40 + seed)
        table = random_table(rng)
        memory, tokens = encode_cells(model, table)
        step = model._step_log_probs

        def checked(search, live, parents):
            logp, distinct = step(search, live, parents)
            for row, hyp in enumerate(live):
                forced, forced_distinct = model.copy_log_probs([BOS_TOKEN, *hyp.tokens], memory, tokens)
                assert forced_distinct == distinct
                assert np.abs(logp[row] - forced.data[-1]).max() < 1e-9
            return logp, distinct

        monkeypatch.setattr(model, "_step_log_probs", checked)
        pred = model.beam_search(table, beam_width=width, max_len=24)
        if not pred.finished:
            continue
        finished += 1
        logp, distinct = model.copy_log_probs([BOS_TOKEN, *pred.tokens], memory, tokens)
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
    limit = model.max_len - 1
    with pytest.raises(ValueError, match=f"max_len {limit + 1} exceeds {limit}.*{limit + 1}"):
        model.beam_search(table, beam_width=2, max_len=limit + 1)
    assert len(model.beam_search(table, beam_width=2, max_len=limit).tokens) <= limit


@pytest.mark.parametrize("max_len", [-1, -7])
def test_beam_search_rejects_a_negative_max_len_naming_it(max_len):
    model, _ = tiny_pointer(seed=12)
    table = random_table(np.random.default_rng(12))
    assert model.beam_search(table, beam_width=2, max_len=0).tokens == []
    with pytest.raises(ValueError, match=f"^max_len must be >= 0, got {max_len}$"):
        model.beam_search(table, beam_width=2, max_len=max_len)


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
