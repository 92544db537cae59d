"""Layers, optimizer schedule, gradient checking, and checkpoints."""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from skeltext import autograd as ag
from skeltext.autograd import ShapeError, Tensor
from skeltext.gradcheck import finite_difference_check
from skeltext.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    Parameter,
    TransformerEncoder,
    causal_mask,
    inverse_sqrt_lr,
    load_checkpoint,
    save_checkpoint,
)

from helpers import PerParameterAdam


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


def _adam_model(seed: int) -> Holder:
    """Parameters of almost two Adam blocks in all: one longer than a block, and
    one a transposed array, which is not C-contiguous."""
    rng = np.random.default_rng(seed)
    return Holder(
        small=Linear(rng, 3, 5),
        big=Embedding(rng, ADAM_BLOCK // 64 + 3, 64),
        ln=LayerNorm(7),
        turned=Parameter(rng.normal(size=(6, 4)).T),
        wide=Linear(rng, 128, 250),
    )


def test_block_adam_gives_the_per_parameter_bits():
    model, reference = _adam_model(3), _adam_model(3)
    params = model.parameters()
    sizes = [p.data.size for p in params]
    assert max(sizes) > ADAM_BLOCK and sum(sizes) % ADAM_BLOCK
    assert not model.turned.data.flags["C_CONTIGUOUS"]
    opt = Adam(params, peak_lr=1e-2, warmup=2)
    assert model.turned.data.flags["C_CONTIGUOUS"]
    for p, q in zip(params, reference.parameters()):
        assert p.data.tobytes() == q.data.tobytes()  # the same values, now in the buffer
        assert np.shares_memory(p.data, opt._data) and np.shares_memory(p.grad, opt._grad)
    ref = PerParameterAdam(reference.parameters(), peak_lr=1e-2, warmup=2)
    grad_rng = np.random.default_rng(4)
    for _ in range(4):
        for p, q in zip(params, reference.parameters()):
            g = grad_rng.normal(size=p.shape) * grad_rng.choice([0.0, 1e-12, 1.0, 1e6])
            p.grad += g
            q.grad += g
        assert opt.step() == ref.step()
        for p, q in zip(params, reference.parameters()):
            assert p.data.tobytes() == q.data.tobytes()
            assert not p.grad.any() and p.grad.flags["C_CONTIGUOUS"]
        assert (opt._m.tobytes(), opt._v.tobytes()) == (ref._m.tobytes(), ref._v.tobytes())
    assert opt.step_count == ref.step_count == 4


def test_adam_takes_gradients_added_before_it_or_bound_after_it():
    model, reference = _adam_model(5), _adam_model(5)
    model.small.weight.grad += 0.25  # before the optimizer holds the gradients
    reference.small.weight.grad += 0.25
    opt = Adam(model.parameters(), peak_lr=1e-2, warmup=2)
    ref = PerParameterAdam(reference.parameters(), peak_lr=1e-2, warmup=2)
    view = model.big.weight.grad
    model.big.weight.grad = np.full(model.big.weight.shape, 0.5)
    reference.big.weight.grad[...] = 0.5
    opt.step()
    ref.step()
    for p, q in zip(model.parameters(), reference.parameters()):
        assert p.data.tobytes() == q.data.tobytes()
    assert model.big.weight.grad is view and not view.any()


def test_checkpoints_round_trip_parameters_an_adam_updates(tmp_path):
    model = _adam_model(6)
    opt = Adam(model.parameters(), peak_lr=1e-2, warmup=2)
    for p in model.parameters():
        p.grad += 1.0
    opt.step()
    save_checkpoint(str(tmp_path / "ck"), model)
    fresh = _adam_model(7)
    load_checkpoint(str(tmp_path / "ck"), fresh)
    for p, q in zip(model.parameters(), fresh.parameters()):
        assert q.data.tobytes() == p.data.astype(np.float32).astype(np.float64).tobytes()
    # Loading into the trained model leaves its gradients bound to the optimizer.
    load_checkpoint(str(tmp_path / "ck"), model)
    for p, q, view in zip(model.parameters(), fresh.parameters(), opt._grads):
        assert p.data.tobytes() == q.data.tobytes() and p.grad is view
    # And a step after loading updates the loaded values.
    for p in model.parameters():
        p.grad += 1.0
    opt.step()
    for p, q in zip(model.parameters(), fresh.parameters()):
        assert not np.array_equal(p.data, q.data)


def test_a_parameter_gradient_is_zeros_from_its_first_read():
    p = Parameter(np.ones((2, 3)))
    with pytest.raises(AttributeError, match="'Parameter' object has no attribute 'gard'"):
        p.gard
    assert p.grad.shape == (2, 3) and not p.grad.any() and p.grad.flags["C_CONTIGUOUS"]
    p.grad += 1.0
    assert p.grad.sum() == 6.0  # the same array from then on


def test_adam_default_hyperparameters():
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.98, 1e-9)


def test_finite_difference_linear_layer_tight():
    rng = np.random.default_rng(6)
    layer = Holder(lin=Linear(rng, 5, 4))
    x = Tensor(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(3, 4)))

    def loss() -> Tensor:
        return (layer.lin(x) * w).sum()

    err = finite_difference_check(
        lambda: loss().backward(), lambda: loss().item(), layer.parameters(), rng,
        samples_per_param=20,
    )
    assert err < 1e-6


def test_finite_difference_two_layer_block():
    rng = np.random.default_rng(7)
    block = Holder(enc=TransformerEncoder(rng, 8, 12, 2, 2))
    x = Tensor(rng.normal(size=(5, 8)))
    w = Tensor(rng.normal(size=(5, 8)))

    def loss() -> Tensor:
        return (block.enc(x) * w).sum()

    err = finite_difference_check(
        lambda: loss().backward(), lambda: loss().item(), block.parameters(), rng,
        samples_per_param=6,
    )
    assert err < 1e-4


def test_finite_difference_zero_parameters():
    assert finite_difference_check(lambda: None, lambda: 1.0, [], np.random.default_rng(8)) == 0.0


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
    save_checkpoint(str(tmp_path / "ck"), model)
    assert sorted(os.listdir(tmp_path / "ck")) == ["manifest.json", "params.bin"]

    model2 = Holder(a=Linear(rng, 6, 5), b=Embedding(rng, 7, 6))
    load_checkpoint(str(tmp_path / "ck"), model2)
    for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(p1.data.astype(np.float32), p2.data)  # float32 storage


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


@pytest.mark.parametrize("bad,named", [
    ({"b.weight": [(4, 2, np.nan)]}, "b.weight"),
    ({"b.weight": [(0, 0, np.inf)]}, "b.weight"),  # the first value after a.bias
    ({"b.weight": [(-1, -1, -np.inf)]}, "b.weight"),  # the last value of params.bin
    ({"a.bias": [(-1, -np.inf)], "b.weight": [(0, 0, np.nan), (3, 1, np.inf)]}, "a.bias"),
], ids=["nan", "inf_first", "last_value", "two_parameters"])
def test_a_non_finite_checkpoint_value_is_rejected_before_any_parameter_changes(
    tmp_path, bad, named
):
    rng = np.random.default_rng(14)
    model = Holder(a=Linear(rng, 6, 5), b=Embedding(rng, 7, 6))
    params = dict(model.named_parameters())
    for name, values in bad.items():
        for *index, value in values:
            params[name].data[tuple(index)] = value
    save_checkpoint(str(tmp_path / "ck"), model)
    other = Holder(a=Linear(rng, 6, 5), b=Embedding(rng, 7, 6))
    before = [p.data.copy() for p in other.parameters()]
    with pytest.raises(ValueError) as info:
        load_checkpoint(str(tmp_path / "ck"), other)
    path = tmp_path / "ck" / "params.bin"
    assert str(info.value) == f"{path}: parameter {named} holds a non-finite value"
    assert all(np.array_equal(p.data, b) for p, b in zip(other.parameters(), before))


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
@pytest.mark.parametrize("name", ["params.bin"])
def test_truncated_checkpoint_file_named_with_its_sizes(tmp_path, name, cut):
    rng = np.random.default_rng(15)
    model = Holder(a=Linear(rng, 6, 5))
    save_checkpoint(str(tmp_path / "ck"), model)
    path = tmp_path / "ck" / name
    full = path.read_bytes()
    path.write_bytes(full[:-cut])

    other = Holder(a=Linear(rng, 6, 5))
    before = [p.data.copy() for p in other.parameters()]
    with pytest.raises(ValueError) as info:
        load_checkpoint(str(tmp_path / "ck"), other)
    message = str(info.value)
    assert str(path) in message
    assert f"expected {len(full)} bytes" in message
    assert f"file has {len(full) - cut}" in message
    assert all(np.array_equal(a, p.data) for a, p in zip(before, other.parameters()))


@pytest.mark.parametrize(
    "text,problem",
    [
        ('[{"name": "a.weight"', "not a JSON file"),
        ('{"a.weight": [6, 5]}', "JSON list"),
        ('[{"shape": [6, 5], "dtype": "float32"}]', "JSON list"),
        ('[{"name": "a.weight", "shape": 30}]', "JSON list"),
    ],
    ids=["not_json", "object", "no_name", "shape_not_a_list"],
)
def test_damaged_manifest_named_before_loading(tmp_path, text, problem):
    rng = np.random.default_rng(17)
    save_checkpoint(str(tmp_path / "ck"), Holder(a=Linear(rng, 6, 5)))
    path = tmp_path / "ck" / "manifest.json"
    path.write_text(text)

    other = Holder(a=Linear(rng, 6, 5))
    before = [p.data.copy() for p in other.parameters()]
    with pytest.raises(ValueError, match=problem) as info:
        load_checkpoint(str(tmp_path / "ck"), other)
    assert str(path) in str(info.value)
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


def test_a_decoder_step_with_gradients_on_stays_off_the_tape():
    # A decoder step is inference-only, even over tracked parameters: it runs
    # on plain arrays and builds no tensor.
    from skeltext.autograd import NonFiniteError
    from skeltext.nn import TransformerDecoder

    rng = np.random.default_rng(20)
    decoder = TransformerDecoder(rng, 8, 12, 2, 2)
    memory_kv = decoder.memory_kv(rng.normal(size=(4, 8)))
    assert all(type(kv) is np.ndarray for kv in memory_kv)
    past = None
    for parents in ([0], [0, 0, 0], [2, 0, 1]):
        out, past = decoder.step(rng.normal(size=(len(parents), 8)), memory_kv, past, parents)
        assert type(out) is np.ndarray and out.shape == (len(parents), 8)
        assert all(type(kv) is np.ndarray for kv in past)
    assert not any(p.grad.any() for p in decoder.parameters())

    # The forward still names the op a non-finite value came from.
    decoder.layers[1].self_attn.wk.weight.data[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match="from keys_values$"):
        decoder.step(out, memory_kv, past, [0, 1, 2])


def test_a_decoder_step_leaves_its_keys_and_values_as_they_were():
    # The step is a function of (x, memory_kv, past): every past and
    # memory_kv array it reads keeps its bytes, and what it returns shares
    # no memory with them. The beam's steps reorder, duplicate and drop
    # rows while the batch keeps its size; the last is stage 2's, afresh.
    from skeltext.nn import TransformerDecoder

    rng = np.random.default_rng(22)
    decoder = TransformerDecoder(rng, 8, 12, 2, 2)
    memory_kv = decoder.memory_kv(rng.normal(size=(4, 8)))
    past = None
    for parents, rows in [([0], 1), ([0, 0, 0], 3), ([2, 0, 1], 3), ([1, 1, 0], 3), (None, 5)]:
        given = None if parents is None else past
        read = memory_kv + ([] if given is None else given)
        before = [kv.tobytes() for kv in read]
        out, past = decoder.step(rng.normal(size=(rows, 8)), memory_kv, given, parents)
        assert [kv.tobytes() for kv in read] == before
        assert not any(np.shares_memory(kv, old) for kv in [out, *past] for old in read)
        length = rows if given is None else length + 1
        batch = 1 if given is None else len(parents)
        assert [kv.shape for kv in past] == [(2, batch, 2, length, 4)] * 2


# (layers, heads, the parents of each step after the first): rows reordered,
# duplicated and dropped.
_STEP_CASES = [
    (1, 1, [[0, 0, 0], [2, 0, 1], [1, 1], [0, 1, 1, 0]]),
    (2, 2, [[0, 0], [1, 0, 1], [2, 2, 0, 1, 1], [4, 0]]),
    (3, 4, [[0, 0, 0, 0], [3, 1, 1, 0], [2], [0, 0, 0]]),
    (2, 1, [[0, 0, 0, 0, 0], [4, 3, 2, 1, 0], [0, 2, 4], [1, 1, 2]]),
    (1, 4, [[0, 0], [1, 1], [0, 1, 0]]),
]


@pytest.mark.parametrize("n_layers,n_heads,steps", _STEP_CASES)
def test_the_array_step_equals_the_tensor_step_to_the_byte(n_layers, n_heads, steps):
    # The beam's steps: output rows and every layer's past, after every
    # step, against the tape-op reference over a past of its own. Then the
    # other array passes against their tape forms: a table's encoding, and
    # stage 2's pass over a whole state, one step of n positions afresh,
    # against decode_batch of that state alone.
    from skeltext.data import BOS_TOKEN, EOS_TOKEN, PLH_TOKEN, linearize_table
    from skeltext.nn import TransformerDecoder

    from helpers import WORDS, random_table, tensor_step, tiny_editor

    rng = np.random.default_rng(40 + 10 * n_layers + n_heads)
    decoder = TransformerDecoder(rng, 8, 12, n_heads, n_layers)
    for p in decoder.parameters():  # non-zero biases, gains off 1
        p.data[...] = rng.normal(size=p.shape)
    memory = rng.normal(size=(5, 8))
    memory_kv = decoder.memory_kv(memory)
    fast = reference = None
    for parents in [[0], *steps]:
        x = rng.normal(size=(len(parents), 8))
        out, fast = decoder.step(x, memory_kv, fast, parents)
        expected, reference = tensor_step(decoder, Tensor(x), Tensor(memory), reference, parents)
        assert out.tobytes() == expected.data.tobytes()
        assert len(fast) == len(reference) == n_layers
        for kv, ref in zip(fast, reference):
            assert kv.shape == ref.shape and kv.tobytes() == ref.tobytes()

    model, _ = tiny_editor(seed=n_layers, n_layers=n_layers, n_heads=n_heads)
    for p in model.parameters():
        p.data[...] = rng.normal(size=p.shape) * 0.5
    for _ in range(3):
        cells = linearize_table(random_table(rng))
        memory = model.encoder(cells)
        rows = model.encoder.step(cells)
        assert type(rows) is np.ndarray and rows.tobytes() == memory.rows.data.tobytes()
        memory_kv = model.decoder.memory_kv(rows)
        for n in (0, 1, 6):
            body = [WORDS[i] for i in rng.integers(0, len(WORDS), size=n)] + [PLH_TOKEN] * (n > 1)
            state = [BOS_TOKEN, *body, EOS_TOKEN]
            z = model.decode_hidden(state, memory_kv)
            _, past = model.decoder.step(model._embed_step(state, 0, len(state)), memory_kv)
            assert all(kv.shape[3] == len(state) for kv in past)
            assert z.tobytes() == model.decode_batch([state], memory, False).rows.data.tobytes()


@pytest.mark.parametrize("stage", ["pointer", "editor"])
def test_fused_blocks_give_the_composed_models_gradients_to_the_bit(stage, monkeypatch):
    # Whole models, so that the order in which backward() sums a tensor's
    # gradients (the encoder's output gets keys and values from every decoder
    # layer of every pass) is checked too.
    from skeltext.data import linearize_table
    from skeltext.oracle import edit_loss_example

    from helpers import (
        all_value_tokens, encode_cells, small_example, tiny_editor, tiny_pointer, use_composed_blocks,
    )

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
                loss = model.loss(
                    replace(ex, skeleton=all_value_tokens(ex.table)[:3]), *encode_cells(model, ex.table)
                )
            else:
                skeleton = all_value_tokens(ex.table)[:2]
                memory = model.encoder(linearize_table(ex.table))
                loss = edit_loss_example(model, memory, skeleton, ex.reference, rng).total
            loss.backward()
            grads += [p.grad.tobytes() for p in model.parameters()]
        return grads

    fused = gradients()
    use_composed_blocks(monkeypatch)
    assert fused == gradients()
