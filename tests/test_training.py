"""The contract both training stages share: parameter names, log fields, checkpoints."""

from __future__ import annotations

import json
import math

import pytest

from skeltext import annotate_corpus, default_stop_words, generate
from skeltext.synth import TemplateSpec
from skeltext.training import (
    load_editor_dir,
    load_pointer_dir,
    save_model_dir,
    train_editor,
    train_pointer,
)

from helpers import tiny_config, tiny_editor, tiny_pointer

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
