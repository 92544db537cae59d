"""Layers, optimizer schedule, gradient checking, and checkpoints."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from skeltext import autograd as ag
from skeltext.autograd import ShapeError, Tensor
from skeltext.nn import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    TransformerEncoder,
    causal_mask,
    finite_difference_check,
    inverse_sqrt_lr,
    load_checkpoint,
    save_checkpoint,
)


class Holder(Module):
    def __init__(self, **layers):
        for name, layer in layers.items():
            setattr(self, name, layer)


def test_attention_peaks_on_matching_key():
    # Single head, identity projections, two keys: one aligned with the
    # query, one anti-aligned. Expected output is the closed-form softmax
    # mixture of the two value rows.
    rng = np.random.default_rng(0)
    d = 4
    attn = MultiHeadAttention(rng, d, 1)
    for lin in (attn.wq, attn.wk, attn.wv, attn.wo):
        lin.weight.data[...] = np.eye(d)
        lin.bias.data[...] = 0.0
    q = np.array([[2.0, 0.0, 0.0, 0.0]])
    keys = np.array([[8.0, 0.0, 0.0, 0.0], [-8.0, 0.0, 0.0, 0.0]])
    logits = (q @ keys.T) / np.sqrt(d)
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    expected = weights @ keys  # values = keys under identity projections
    out = attn(Tensor(q), Tensor(keys))
    assert np.allclose(out.data, expected, atol=1e-12)
    assert abs(weights[0, 0] - 1.0) < 1e-6  # effectively one-hot
    assert np.allclose(out.data, keys[0], atol=1e-5)


def test_attention_rejects_empty_keys():
    rng = np.random.default_rng(1)
    attn = MultiHeadAttention(rng, 4, 2)
    with pytest.raises(ShapeError):
        attn(Tensor(np.zeros((2, 4))), Tensor(np.zeros((0, 4))))


def test_attention_width_must_divide_heads():
    with pytest.raises(ShapeError):
        MultiHeadAttention(np.random.default_rng(2), 6, 4)


def test_causal_mask_single_position_matches_unmasked():
    rng = np.random.default_rng(3)
    attn = MultiHeadAttention(rng, 8, 2)
    x = Tensor(rng.normal(size=(1, 8)))
    masked = attn(x, x, causal_mask(1))
    full = attn(x, x)
    assert np.allclose(masked.data, full.data)


def test_causal_mask_blocks_future():
    rng = np.random.default_rng(4)
    attn = MultiHeadAttention(rng, 8, 2)
    x1 = rng.normal(size=(3, 8))
    x2 = x1.copy()
    x2[2] += 10.0  # only the last position changes
    m = causal_mask(3)
    out1 = attn(Tensor(x1), Tensor(x1), m)
    out2 = attn(Tensor(x2), Tensor(x2), m)
    assert np.allclose(out1.data[0], out2.data[0])
    assert np.allclose(out1.data[1], out2.data[1])
    assert not np.allclose(out1.data[2], out2.data[2])


def test_inverse_sqrt_schedule_reference_points():
    assert inverse_sqrt_lr(100, peak=1e-3, warmup=100) == pytest.approx(1e-3)
    assert inverse_sqrt_lr(400, peak=1e-3, warmup=100) == pytest.approx(5e-4)
    assert inverse_sqrt_lr(50, peak=1e-3, warmup=100) == pytest.approx(5e-4)
    # published schedules: 3e-4 over 4K steps and 5e-4 over 10K steps
    assert inverse_sqrt_lr(4_000, peak=3e-4, warmup=4_000) == pytest.approx(3e-4)
    assert inverse_sqrt_lr(16_000, peak=3e-4, warmup=4_000) == pytest.approx(1.5e-4)
    assert inverse_sqrt_lr(10_000, peak=5e-4, warmup=10_000) == pytest.approx(5e-4)
    assert inverse_sqrt_lr(40_000, peak=5e-4, warmup=10_000) == pytest.approx(2.5e-4)


def test_adam_step_updates_zeroes_and_counts():
    rng = np.random.default_rng(5)
    layer = Holder(lin=Linear(rng, 3, 2))
    opt = Adam(layer.parameters(), peak_lr=1e-2, warmup=1)
    x = Tensor(rng.normal(size=(4, 3)))
    before = layer.lin.weight.data.copy()
    (layer.lin(x).relu().sum()).backward()
    assert np.abs(layer.lin.weight.grad).sum() > 0
    opt.step()
    assert opt.step_count == 1
    assert not np.allclose(layer.lin.weight.data, before)
    assert np.all(layer.lin.weight.grad == 0.0)


def test_adam_default_hyperparameters():
    opt = Adam([], peak_lr=1e-3, warmup=10)
    assert (opt.beta1, opt.beta2, opt.eps) == (0.9, 0.98, 1e-9)


def test_finite_difference_linear_layer_tight():
    rng = np.random.default_rng(6)
    layer = Holder(lin=Linear(rng, 5, 4))
    x = Tensor(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(3, 4)))
    err = finite_difference_check(
        lambda: (layer.lin(x) * w).sum(), layer.parameters(), rng, samples_per_param=20
    )
    assert err < 1e-6


def test_finite_difference_two_layer_block():
    rng = np.random.default_rng(7)
    block = Holder(enc=TransformerEncoder(rng, 8, 12, 2, 2))
    x = Tensor(rng.normal(size=(5, 8)))
    w = Tensor(rng.normal(size=(5, 8)))
    err = finite_difference_check(
        lambda: (block.enc(x) * w).sum(), block.parameters(), rng, samples_per_param=6
    )
    assert err < 1e-4


def test_finite_difference_zero_parameters():
    assert finite_difference_check(lambda: Tensor(1.0), [], np.random.default_rng(8)) == 0.0


def test_layer_norm_module_statistics():
    rng = np.random.default_rng(9)
    ln = LayerNorm(16)
    y = ln(Tensor(rng.normal(loc=-2.0, scale=3.0, size=(5, 16)))).data
    assert np.all(np.abs(y.mean(axis=-1)) < 1e-9)
    assert np.all(np.abs(y.var(axis=-1) - 1.0) < 1e-6)


def test_named_parameters_unique_and_stable():
    rng = np.random.default_rng(10)
    model = Holder(a=Linear(rng, 3, 3), b=Holder(c=Embedding(rng, 4, 3), d=LayerNorm(3)))
    names = [n for n, _ in model.named_parameters()]
    assert names == ["a.weight", "a.bias", "b.c.weight", "b.d.gain", "b.d.bias"]
    assert len(set(names)) == len(names)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    model = Holder(a=Linear(rng, 6, 5), b=Embedding(rng, 7, 6))
    opt = Adam(model.parameters(), peak_lr=1e-3, warmup=5)
    x = Tensor(rng.normal(size=(2, 6)))
    (model.a(x).sum()).backward()
    opt.step()
    save_checkpoint(str(tmp_path / "ck"), model, opt)

    model2 = Holder(a=Linear(rng, 6, 5), b=Embedding(rng, 7, 6))
    opt2 = Adam(model2.parameters(), peak_lr=1e-3, warmup=5)
    load_checkpoint(str(tmp_path / "ck"), model2, opt2)
    for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
        assert n1 == n2
        assert np.allclose(p1.data, p2.data, atol=1e-6)  # float32 storage
    assert opt2.step_count == 1
    for m1, m2 in zip(opt.m, opt2.m):
        assert np.allclose(m1, m2, atol=1e-6)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(12)
    model = Holder(a=Linear(rng, 6, 5))
    save_checkpoint(str(tmp_path / "ck"), model)
    other = Holder(a=Linear(rng, 6, 4))
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(str(tmp_path / "ck"), other)


def test_checkpoint_name_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(13)
    model = Holder(a=Linear(rng, 6, 5))
    save_checkpoint(str(tmp_path / "ck"), model)
    other = Holder(z=Linear(rng, 6, 5))
    with pytest.raises(ValueError, match="parameter set"):
        load_checkpoint(str(tmp_path / "ck"), other)


@pytest.mark.parametrize("missing", ["optimizer.json", "optimizer.bin"])
def test_checkpoint_half_optimizer_state_rejected_before_loading(tmp_path, missing):
    rng = np.random.default_rng(14)
    model = Holder(a=Linear(rng, 6, 5))
    opt = Adam(model.parameters(), peak_lr=1e-3, warmup=5)
    model.a(Tensor(rng.normal(size=(2, 6)))).sum().backward()
    opt.step()
    save_checkpoint(str(tmp_path / "ck"), model, opt)
    (tmp_path / "ck" / missing).unlink()

    other = Holder(a=Linear(rng, 6, 5))
    other_opt = Adam(other.parameters(), peak_lr=1e-3, warmup=5)
    before = [p.data.copy() for p in other.parameters()]
    with pytest.raises(ValueError, match=missing):
        load_checkpoint(str(tmp_path / "ck"), other, other_opt)
    assert other_opt.step_count == 0
    assert all(not m.any() for m in other_opt.m + other_opt.v)
    assert all(np.array_equal(a, p.data) for a, p in zip(before, other.parameters()))


def _train_steps(seed: int, steps: int) -> bytes:
    rng = np.random.default_rng(seed)
    model = Holder(l1=Linear(rng, 8, 8), ln=LayerNorm(8), l2=Linear(rng, 8, 2))
    opt = Adam(model.parameters(), peak_lr=1e-3, warmup=10)
    data_rng = np.random.default_rng(seed + 1)
    for _ in range(steps):
        x = Tensor(data_rng.normal(size=(4, 8)))
        ids = data_rng.integers(0, 2, size=4)
        logp = ag.log_softmax(model.l2(model.ln(model.l1(x)).relu()), axis=-1)
        loss = -logp[np.arange(len(ids)), ids].sum() / len(ids)
        loss.backward()
        opt.step()
    return b"".join(p.data.tobytes() for p in model.parameters())


def test_training_steps_bitwise_deterministic():
    assert _train_steps(42, 5) == _train_steps(42, 5)
    assert _train_steps(42, 5) != _train_steps(43, 5)


@pytest.mark.parametrize("cut", [8, 3])
@pytest.mark.parametrize("name", ["params.bin", "optimizer.bin"])
def test_truncated_checkpoint_file_named_with_its_sizes(tmp_path, name, cut):
    rng = np.random.default_rng(15)
    model = Holder(a=Linear(rng, 6, 5))
    opt = Adam(model.parameters(), peak_lr=1e-3, warmup=5)
    model.a(Tensor(rng.normal(size=(2, 6)))).sum().backward()
    opt.step()
    save_checkpoint(str(tmp_path / "ck"), model, opt)
    path = tmp_path / "ck" / name
    full = path.read_bytes()
    path.write_bytes(full[:-cut])

    other = Holder(a=Linear(rng, 6, 5))
    other_opt = Adam(other.parameters(), peak_lr=1e-3, warmup=5)
    before = [p.data.copy() for p in other.parameters()]
    with pytest.raises(ValueError) as info:
        load_checkpoint(str(tmp_path / "ck"), other, other_opt)
    message = str(info.value)
    assert str(path) in message
    assert f"expected {len(full)} bytes" in message
    assert f"file has {len(full) - cut}" in message
    assert other_opt.step_count == 0
    assert all(np.array_equal(a, p.data) for a, p in zip(before, other.parameters()))


def test_linear_refuses_to_broadcast_over_leading_axes():
    layer = Linear(np.random.default_rng(16), 4, 3)
    with pytest.raises(ShapeError, match="2-D"):
        layer(Tensor(np.zeros((2, 5, 4))))


def test_nan_in_a_cross_attention_key_weight_names_keys_values():
    from skeltext.autograd import NonFiniteError
    from skeltext.nn import DecoderLayer

    rng = np.random.default_rng(17)
    layer = DecoderLayer(rng, 8, 12, 2)
    layer.cross_attn.wk.weight.data[0, 0] = np.nan
    x, memory = Tensor(rng.normal(size=(3, 8))), Tensor(rng.normal(size=(4, 8)))
    with pytest.raises(NonFiniteError, match="non-finite value entering the graph from keys_values$"):
        layer(x, memory)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_attention_scores_name_attention():
    # Finite but huge query and key rows: their scores overflow inside the fused op.
    from skeltext.autograd import NonFiniteError

    rng = np.random.default_rng(18)
    attn = MultiHeadAttention(rng, 4, 1)
    for lin in (attn.wq, attn.wk, attn.wv, attn.wo):
        lin.weight.data[...] = np.eye(4)
    x = Tensor(np.array([[1e160, 0.0, 0.0, 0.0], [-1e160, 0.0, 0.0, 0.0]]))
    with pytest.raises(NonFiniteError, match="from attention$"):
        attn(x, x)


def _tape_nodes(out: Tensor) -> set[Tensor]:
    nodes, stack = set(), [out]
    while stack:
        node = stack.pop()
        if node._bw is not None and node not in nodes:
            nodes.add(node)
            stack.extend(node._parents)
    return nodes


def test_a_decoder_layer_forward_pass_records_eight_tape_nodes():
    # Per sublayer: keys_values and attention for each of the two attentions,
    # feed_forward, and a residual LayerNorm after each of the three.
    from skeltext.nn import DecoderLayer

    rng = np.random.default_rng(19)
    layer = DecoderLayer(rng, 8, 12, 2)
    x = Tensor(rng.normal(size=(3, 8)), retain_grad=True)
    memory = Tensor(rng.normal(size=(4, 8)), retain_grad=True)
    nodes = _tape_nodes(layer(x, memory, causal_mask(3)))
    assert sorted(Counter(n._bw.__qualname__.split(".")[0] for n in nodes).items()) == [
        ("attention", 2), ("feed_forward", 1), ("keys_values", 2), ("layer_norm", 3),
    ]


@pytest.mark.parametrize("stage", ["pointer", "editor"])
def test_fused_blocks_give_the_composed_models_gradients_to_the_bit(stage, monkeypatch):
    # Whole models, so that the order in which backward() sums a tensor's
    # gradients (the encoder's output gets keys and values from every decoder
    # layer of every pass) is checked too.
    from skeltext.oracle import edit_loss_example

    from helpers import small_example, tiny_editor, tiny_pointer, use_composed_blocks

    def gradients() -> list[bytes]:
        build = tiny_pointer if stage == "pointer" else tiny_editor
        model, _ = build(seed=31, n_layers=2)
        grads = []
        for i in range(3):
            rng = np.random.default_rng(100 + i)
            ex = small_example(rng)
            for p in model.parameters():
                p.grad[...] = 0.0
            if stage == "pointer":
                loss = model.loss(replace(ex, skeleton=ex.table.all_value_tokens()[:3]))
            else:
                skeleton = ex.table.all_value_tokens()[:2]
                loss = edit_loss_example(model, model.encode(ex.table), skeleton, ex.reference, rng).total
            loss.backward()
            grads += [p.grad.tobytes() for p in model.parameters()]
        return grads

    fused = gradients()
    use_composed_blocks(monkeypatch)
    assert fused == gradients()
