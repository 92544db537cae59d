"""The contract both training stages share: parameter names, log fields, checkpoints."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from skeltext import annotate_corpus, default_stop_words, generate, nn, oracle, training
from skeltext.data import EOS_TOKEN, PAD_ID, linearize_table
from skeltext.encoder import TableEncoder
from skeltext.oracle import backprop_edit_batch, build_edit_supervision
from skeltext.pointer import DataIntegrityError, SkeletonPointer, backprop_pointer_batch
from skeltext.synth import TemplateSpec
from skeltext.training import (
    load_editor_dir,
    load_pointer_dir,
    save_model_dir,
    train_editor,
    train_pointer,
)

from helpers import (
    PerParameterAdam,
    dp_lcs_align,
    per_example_edit_step,
    per_example_pointer_step,
    tiny_config,
    tiny_editor,
    tiny_pointer,
)

EDIT_LOSS_PARTS = {"loss_edit", "loss_ins", "loss_plh", "loss_tok", "loss_del"}


def _linear(prefix: str, bias: bool = True) -> list[str]:
    return [f"{prefix}.weight", f"{prefix}.bias"] if bias else [f"{prefix}.weight"]


def _attention(prefix: str) -> list[str]:
    return [name for w in ("wq", "wk", "wv", "wo") for name in _linear(f"{prefix}.{w}")]


def _layer_norms(prefix: str, *names: str) -> list[str]:
    return [f"{prefix}.{n}.{p}" for n in names for p in ("gain", "bias")]


def _feed_forward(prefix: str) -> list[str]:
    return _linear(f"{prefix}.lin1") + _linear(f"{prefix}.lin2")


# The one-layer trunk of both stages, in checkpoint (manifest) order.
TRUNK = [
    "encoder.tok_emb.weight", "encoder.key_emb.weight",
    "encoder.fwd_emb.weight", "encoder.bwd_emb.weight",
    *_linear("encoder.fuse"),
    *_attention("encoder.encoder.layers.0.attn"),
    *_feed_forward("encoder.encoder.layers.0.ff"),
    *_layer_norms("encoder.encoder.layers.0", "ln1", "ln2"),
    *_linear("in_proj"), "pos_emb.weight",
    *_attention("decoder.layers.0.self_attn"),
    *_attention("decoder.layers.0.cross_attn"),
    *_feed_forward("decoder.layers.0.ff"),
    *_layer_norms("decoder.layers.0", "ln1", "ln2", "ln3"),
]


@pytest.mark.parametrize(
    "build,heads",
    [
        (tiny_pointer, ["wq.weight", "wk.weight"]),
        (tiny_editor, ["w_del.weight", "w_plh.weight", "w_tok.weight"]),
    ],
    ids=["pointer", "editor"],
)
def test_manifest_parameter_names_in_order(tmp_path, build, heads):
    model, cfg = build(seed=0)
    save_model_dir(str(tmp_path), model, cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [entry["name"] for entry in manifest] == TRUNK + heads


@pytest.fixture(scope="module")
def corpus():
    return annotate_corpus(generate(TemplateSpec(seed=2), 6), default_stop_words())


def _events(records: list[dict], event: str) -> list[dict]:
    return [r for r in records if r["event"] == event]


def test_pointer_log_fields(corpus):
    cfg = tiny_config(batch_size=4, pointer_epochs=2)
    records: list[dict] = []
    train_pointer(corpus, cfg, records.append)
    steps, epochs = _events(records, "pointer_step"), _events(records, "pointer_epoch")
    assert [s["step"] for s in steps] == [1, 2, 3, 4]
    assert all(set(s) == {"event", "step", "lr", "loss"} for s in steps)
    assert [set(e) for e in epochs] == [{"event", "epoch", "mean_loss"}] * 2
    # Batches of 4 and 2: the epoch mean weighs each step by its batch size.
    first = (4 * steps[0]["loss"] + 2 * steps[1]["loss"]) / len(corpus)
    assert epochs[0]["mean_loss"] == pytest.approx(first, rel=1e-12)


def test_editor_log_fields(corpus):
    cfg = tiny_config(batch_size=4, editor_epochs=2)
    records: list[dict] = []
    train_editor(corpus, cfg, records.append)
    steps, epochs = _events(records, "editor_step"), _events(records, "editor_epoch")
    assert [s["step"] for s in steps] == [1, 2, 3, 4]
    assert all(set(s) == {"event", "step", "lr", *EDIT_LOSS_PARTS} for s in steps)
    assert [set(e) for e in epochs] == [{"event", "epoch", *EDIT_LOSS_PARTS}] * 2
    for part in EDIT_LOSS_PARTS:
        first = (4 * steps[0][part] + 2 * steps[1][part]) / len(corpus)
        assert math.isclose(epochs[0][part], first, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize(
    "build,load", [(tiny_pointer, load_pointer_dir), (tiny_editor, load_editor_dir)],
    ids=["pointer", "editor"],
)
def test_checkpoint_with_a_legacy_config_loads(tmp_path, build, load):
    # Checkpoints written while RunConfig still had a dropout field say "dropout": 0.0.
    model, cfg = build(seed=3)
    save_model_dir(str(tmp_path), model, cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), "dropout": 0.0}))
    loaded, loaded_cfg = load(str(tmp_path))
    assert loaded_cfg == cfg
    assert [n for n, _ in loaded.named_parameters()] == [n for n, _ in model.named_parameters()]


# sha256 of manifest.json for tiny_editor(seed=0), as written while RunConfig
# still had a tie_token_head field: every parameter name and shape, in order.
TIED_ERA_EDITOR_MANIFEST = "75586b20181c2ddcedaa09b74ccafdb342b2af920820f4b1cb2e32bca62f079c"


def test_editor_checkpoint_with_the_retired_tie_token_head_false_loads(tmp_path):
    import hashlib

    model, cfg = tiny_editor(seed=0)
    save_model_dir(str(tmp_path), model, cfg)
    manifest = (tmp_path / "manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == TIED_ERA_EDITOR_MANIFEST
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), "tie_token_head": False}))
    loaded, loaded_cfg = load_editor_dir(str(tmp_path))
    assert loaded_cfg == cfg
    for (name, p), (_, want) in zip(loaded.named_parameters(), model.named_parameters()):
        assert p.data.tobytes() == want.data.astype("<f4").astype(float).tobytes(), name


@pytest.mark.parametrize(
    "build,load", [(tiny_pointer, load_pointer_dir), (tiny_editor, load_editor_dir)],
    ids=["pointer", "editor"],
)
def test_checkpoint_with_optimizer_files_of_earlier_versions_loads(tmp_path, build, load):
    # Earlier versions could also save Adam's moments, as float32 first
    # moments then second moments in manifest order, and the step counter.
    model, cfg = build(seed=4)
    save_model_dir(str(tmp_path / "plain"), model, cfg)
    save_model_dir(str(tmp_path / "old"), model, cfg)
    moments = [np.full(p.shape, 0.5) for p in model.parameters()] * 2
    with open(tmp_path / "old" / "optimizer.bin", "wb") as fh:
        for arr in moments:
            fh.write(arr.astype("<f4").tobytes())
    (tmp_path / "old" / "optimizer.json").write_text(json.dumps({"step": 7}))

    plain, _ = load(str(tmp_path / "plain"))
    old, old_cfg = load(str(tmp_path / "old"))
    assert old_cfg == cfg
    for (name, p), (_, want) in zip(old.named_parameters(), plain.named_parameters()):
        assert p.data.tobytes() == want.data.tobytes(), name


@pytest.mark.parametrize(
    "build,load", [(tiny_pointer, load_pointer_dir), (tiny_editor, load_editor_dir)],
    ids=["pointer", "editor"],
)
def test_a_loaded_model_draws_no_weights_and_holds_the_saved_float32_values(
    tmp_path, monkeypatch, build, load
):
    model, cfg = build(seed=6)
    save_model_dir(str(tmp_path), model, cfg)

    def no_draws(*entropy):
        raise AssertionError(f"loading drew from _rng{entropy}")

    monkeypatch.setattr(training, "_rng", no_draws)
    loaded, _ = load(str(tmp_path))
    saved = np.fromfile(tmp_path / "params.bin", dtype="<f4").astype(np.float64)
    values = np.concatenate([p.data.ravel() for p in loaded.parameters()])
    assert values.dtype == np.float64
    assert values.tobytes() == saved.tobytes()
    path = tmp_path / "params.bin"  # a truncated file still fails naming it
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="float32 for the manifest") as info:
        load(str(tmp_path))
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "name,text,problem",
    [
        ("manifest.json", "[{", "not a JSON file"),
        ("config.json", '{"d_model": 16,', "not a JSON file"),
        ("config.json", "[16, 24]", "JSON object"),
        ("config.json", '{"d_model": "wide"}', "config field d_model must be int, not 'wide'"),
        ("vocab.json", '{"<pad>": 0}', "list of tokens"),
        ("keys.json", "", "not a JSON file"),
        ("vocab.json", '["<pad>", "<unk>", "<bos>", "<eos>", "<plh>", "born", "born"]',
         "repeats token 'born' at positions 5 and 6"),
    ],
    ids=["manifest_not_json", "config_not_json", "config_list", "config_wrong_type",
         "vocab_object", "keys_empty", "vocab_repeat"],
)
def test_a_damaged_checkpoint_file_is_a_value_error_naming_it(tmp_path, name, text, problem):
    model, cfg = tiny_pointer(seed=5)
    save_model_dir(str(tmp_path), model, cfg)
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError, match=problem) as info:
        load_pointer_dir(str(tmp_path))
    assert str(info.value).startswith(str(tmp_path / name) + ": ")


# -- micro-batched editor steps ------------------------------------------------


def _edit_batch(k_max: int):
    """Four examples of different lengths; the first has a Y'' without placeholder."""
    examples = annotate_corpus(generate(TemplateSpec(seed=5), 4), default_stop_words())
    # A skeleton that is the whole reference protects every token of it, so
    # Y' is the reference and Y'' has nothing to fill.
    examples[0] = replace(examples[0], skeleton=examples[0].reference)
    model, cfg = tiny_editor(seed=6, n_layers=2, k_max=k_max)
    return model, examples


def _seeds(n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(10 + i) for i in range(n)]


def _batched_step(model, examples, lam=0.7):
    for p in model.parameters():
        p.grad[...] = 0.0
    sups = [build_edit_supervision(model, ex.skeleton, ex.reference, rng)
            for ex, rng in zip(examples, _seeds(len(examples)))]
    parts = backprop_edit_batch(model, examples, sups, lam, 1.0 / len(examples))
    return sups, [p.as_dict() for p in parts], {n: p.grad.copy() for n, p in model.named_parameters()}


def _assert_gradients_match(got: dict, want: dict, tol: float = 1e-10):
    # Relative to each parameter's gradient scale. The attention key biases
    # have a mathematically zero gradient (softmax ignores a shift shared by
    # every key); theirs is rounding noise, scaled by their key weights'.
    for name, g in want.items():
        scale = np.abs(want[name.replace("wk.bias", "wk.weight")]).max()
        assert np.abs(got[name] - g).max() <= tol * scale, name


@pytest.mark.parametrize("k_max", [4, 1], ids=["k_max4", "k_max1_clamped"])
def test_a_batched_editor_step_equals_the_per_example_steps(k_max):
    model, examples = _edit_batch(k_max)
    reference, _ = tiny_editor(seed=6, n_layers=2, k_max=k_max)
    want_parts = per_example_edit_step(reference, examples, _seeds(len(examples)), 0.7)
    want = {n: p.grad.copy() for n, p in reference.named_parameters()}
    sups, got_parts, got = _batched_step(model, examples)

    assert not sups[0].positions and all(sup.positions for sup in sups[1:])
    assert len({len(sup.state3) for sup in sups}) > 1  # padding in every pass
    assert (sum(sup.clamped_slots for sup in sups) > 0) == (k_max == 1)
    for g, w in zip(got_parts, want_parts):
        assert g.keys() == w.keys()
        for key in w:
            assert g[key] == pytest.approx(w[key], rel=1e-10, abs=1e-12), key
    _assert_gradients_match(got, want)


def test_padding_changes_no_loss_and_gets_no_gradient(monkeypatch):
    from skeltext import encoder

    model, examples = _edit_batch(4)
    _, parts, grads = _batched_step(model, examples)
    # Padding rows (id 0 in every cell field, the padding token in states)
    # are the only readers of these embedding rows.
    enc = model.encoder
    for table, row in ((enc.tok_emb, PAD_ID), (enc.key_emb, PAD_ID), (enc.fwd_emb, 0),
                       (enc.bwd_emb, 0)):
        assert not table.weight.grad[row].any()

    def wider(seqs):
        # Three more columns, and id 3 (end of sequence, position 3) for padding.
        ids = np.full((len(seqs),) + seqs[0].shape[:-1] + (max(s.shape[-1] for s in seqs) + 3,), 3)
        for row, s in zip(ids, seqs):
            row[..., : s.shape[-1]] = s
        return ids, [s.shape[-1] for s in seqs]

    monkeypatch.setattr(encoder, "pad_ids", wider)
    _, wider_parts, wider_grads = _batched_step(model, examples)
    assert [p.keys() for p in wider_parts] == [p.keys() for p in parts]
    for got, want in zip(wider_parts, parts):
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-12), key
    _assert_gradients_match(wider_grads, grads, 1e-12)


def test_editor_training_is_deterministic_and_logs_the_batch_mean(corpus):
    cfg = tiny_config(batch_size=6, editor_epochs=2)  # micro-batches of 4 and 2
    runs = []
    for _ in range(2):
        records: list[dict] = []
        model, opt = train_editor(corpus, cfg, records.append)
        runs.append((records, [p.data.tobytes() for p in model.parameters()],
                     [opt._m.tobytes(), opt._v.tobytes()]))
    assert runs[0] == runs[1]

    # The first step's logged parts are the per-example parts' mean.
    from skeltext.training import _rng, build_editor, build_vocabularies

    reference = build_editor(cfg, *build_vocabularies(corpus, cfg))
    order = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 4])))
    batch = [int(i) for i in order.permutation(len(corpus))]
    rngs = [_rng(cfg.seed, 0, i) for i in batch]
    want = per_example_edit_step(reference, [corpus[i] for i in batch], rngs, cfg.lambda_del)
    step = _events(runs[0][0], "editor_step")[0]
    for key in EDIT_LOSS_PARTS:
        assert step[key] == pytest.approx(sum(w[key] for w in want) / len(batch), rel=1e-10)


def _train_both_stages(corpus, cfg) -> list[tuple]:
    """Each stage's log records, parameter bytes and moment bytes."""
    runs = []
    for train in (train_pointer, train_editor):
        records: list[dict] = []
        model, opt = train(corpus, cfg, records.append)
        runs.append((records, [p.data.tobytes() for p in model.parameters()],
                     [opt._m.tobytes(), opt._v.tobytes()]))
    return runs


@pytest.mark.parametrize("block", [nn.ADAM_BLOCK, 777])
def test_training_with_the_fast_kernels_gives_the_reference_kernels_bits(corpus, monkeypatch, block):
    # The tiny models fit in one Adam block; 777 values per block split them.
    monkeypatch.setattr(nn, "ADAM_BLOCK", block)
    cfg = tiny_config(batch_size=4, pointer_epochs=2, editor_epochs=2)
    fast = _train_both_stages(corpus, cfg)
    aligned = []
    monkeypatch.setattr(oracle, "lcs_align", lambda a, b: aligned.append(1) or dp_lcs_align(a, b))
    monkeypatch.setattr(training, "Adam", PerParameterAdam)
    reference = _train_both_stages(corpus, cfg)
    assert aligned
    assert fast == reference


# -- batched pointer steps -------------------------------------------------------


def _pointer_batch():
    """Four examples whose tables differ in length, and two pointers with the same weights."""
    examples = annotate_corpus(generate(TemplateSpec(seed=7), 4), default_stop_words())
    assert len({len(linearize_table(ex.table)) for ex in examples}) > 1  # padding
    return examples, tiny_pointer(seed=8, n_layers=2)[0], tiny_pointer(seed=8, n_layers=2)[0]


def _grads(model) -> dict[str, np.ndarray]:
    return {n: p.grad.copy() for n, p in model.named_parameters()}


def test_a_batched_pointer_step_equals_the_per_example_steps():
    examples, model, reference = _pointer_batch()
    want = per_example_pointer_step(reference, examples)
    got = backprop_pointer_batch(model, examples, 1.0 / len(examples))
    assert got == pytest.approx(want, rel=1e-12)
    _assert_gradients_match(_grads(model), _grads(reference))


def test_a_one_example_pointer_step_gives_the_per_example_bytes():
    examples, model, reference = _pointer_batch()
    want = per_example_pointer_step(reference, examples[1:2])
    assert backprop_pointer_batch(model, examples[1:2]) == want
    for name, grad in _grads(reference).items():
        assert _grads(model)[name].tobytes() == grad.tobytes(), name


def test_pointer_padding_gets_no_gradient():
    examples, model, _ = _pointer_batch()
    backprop_pointer_batch(model, examples, 1.0 / len(examples))
    # Padding cells (id 0 in every field) are the only readers of these rows.
    enc = model.encoder
    for table, row in ((enc.tok_emb, PAD_ID), (enc.key_emb, PAD_ID), (enc.fwd_emb, 0),
                       (enc.bwd_emb, 0)):
        assert not table.weight.grad[row].any()
    assert enc.tok_emb.weight.grad.any()


def test_a_pointer_step_encodes_once_and_decodes_each_example_once(corpus, monkeypatch):
    calls: Counter[str] = Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    count(TableEncoder, "encode_padded")
    count(SkeletonPointer, "decoder_states")
    train_pointer(corpus, tiny_config(batch_size=4, pointer_epochs=1))  # steps of 4 and 2
    assert calls == {"encode_padded": 2, "decoder_states": len(corpus)}


@pytest.mark.parametrize("stage", ["pointer", "editor"])
def test_a_training_step_retains_one_leaf_over_its_encoder_pass(stage, monkeypatch):
    from skeltext import autograd

    if stage == "pointer":
        examples, model, _ = _pointer_batch()
        step = lambda: backprop_pointer_batch(model, examples, 1.0 / len(examples))  # noqa: E731
    else:
        model, examples = _edit_batch(k_max=4)
        step = lambda: _batched_step(model, examples)  # noqa: E731
    passes, retained = [], []
    encode_padded, init = TableEncoder.encode_padded, autograd.Tensor.__init__

    def recorded_pass(self, tables):
        passes.append(encode_padded(self, tables))
        return passes[-1]

    def recorded_init(self, data, *args, retain_grad=False, **kwargs):
        init(self, data, *args, retain_grad=retain_grad, **kwargs)
        if retain_grad:
            retained.append(self)

    monkeypatch.setattr(TableEncoder, "encode_padded", recorded_pass)
    monkeypatch.setattr(autograd.Tensor, "__init__", recorded_init)
    step()
    assert len(passes) == 1 and len(retained) == 1
    assert retained[0].shape == passes[0].rows.shape
    assert np.shares_memory(retained[0].data, passes[0].rows.data)


def test_a_bad_skeleton_names_its_corpus_index_before_any_gradient(corpus, monkeypatch):
    from skeltext import training

    bad = replace(corpus[4], skeleton=(*corpus[4].skeleton, "ghost"))
    records: list[dict] = []
    with pytest.raises(DataIntegrityError, match="example 4: skeleton token 'ghost'"):
        train_pointer([*corpus[:4], bad, *corpus[5:]], tiny_config(batch_size=6), records.append)
    assert records == []
    # The linearized table ends in an EOS cell, but EOS is no value token: a
    # pointer taught to copy it would end its skeletons early. No Example
    # holds it, so no corpus can reach training with it.
    with pytest.raises(ValueError, match="skeleton holds the reserved token '<eos>'"):
        replace(corpus[4], skeleton=(*corpus[4].skeleton, EOS_TOKEN))

    # Steps of two, the bad example drawn in the last: no step runs.
    batches = []
    original = training.backprop_pointer_batch
    monkeypatch.setattr(training, "backprop_pointer_batch",
                        lambda model, examples, *rest: batches.append(examples)
                        or original(model, examples, *rest))
    cfg = tiny_config(batch_size=2)
    train_pointer(corpus, cfg)
    assert len(batches) == 3
    last = next(i for i, ex in enumerate(corpus) if ex is batches[-1][0])
    bad = replace(corpus[last], skeleton=(*corpus[last].skeleton, "ghost"))
    records = []
    with pytest.raises(DataIntegrityError, match=f"example {last}: skeleton token 'ghost'"):
        train_pointer([*corpus[:last], bad, *corpus[last + 1 :]], cfg, records.append)
    assert _events(records, "pointer_step") == []


def _capped(stage: str, cap: int):
    """A tiny config whose `stage` model has `cap` decoder positions."""
    if stage == "pointer":
        return tiny_config(max_skeleton_len=cap - 2)  # BOS and EOS take the other two
    return tiny_config(max_state_len=cap)


@pytest.mark.parametrize(
    "stage,train,build,need",
    [
        ("pointer", train_pointer, "build_pointer", lambda ex: len(ex.skeleton) + 1),
        ("editor", train_editor, "build_editor", lambda ex: len(ex.reference) + 2),
    ],
    ids=["pointer", "editor"],
)
def test_a_bad_training_example_is_named_before_the_first_step(
    corpus, monkeypatch, stage, train, build, need
):
    from skeltext import training

    built = []
    original = getattr(training, build)
    monkeypatch.setattr(training, build, lambda *a: built.append(original(*a)) or built[-1])
    # The first of the corpus's longest examples is the first to outgrow the cap.
    longest = max(range(len(corpus)), key=lambda i: need(corpus[i]))
    cap = need(corpus[longest]) - 1
    cfg = _capped(stage, cap)
    records: list[dict] = []
    with pytest.raises(
        ValueError, match=f"^example {longest}: {cap + 1} positions exceed the {cap}-position cap$"
    ):
        train(corpus, cfg, records.append)
    assert records == []
    fresh = original(cfg, *training.build_vocabularies(corpus, cfg))
    for (name, p), (_, want) in zip(built[-1].named_parameters(), fresh.named_parameters()):
        assert p.data.tobytes() == want.data.tobytes(), name

    no_reference = [*corpus[:2], replace(corpus[2], reference=()), *corpus[3:]]
    with pytest.raises(ValueError, match="^example 2: training example has an empty reference$"):
        train(no_reference, tiny_config(), records.append)
    no_skeleton = [*corpus[:3], replace(corpus[3], skeleton=None), *corpus[4:]]
    with pytest.raises(ValueError, match=f"^example 3: {stage} training needs a skeleton"):
        train(no_skeleton, tiny_config(), records.append)
    assert records == []
