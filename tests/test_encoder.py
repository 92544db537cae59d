"""Table-to-text trunk: cell fusion, permutation-equivariant encoding, decoder positions."""

from __future__ import annotations

import numpy as np
import pytest

from skeltext.data import BOS_TOKEN, EOS_TOKEN, Attribute, LinearizedCell, Table, linearize_table

from helpers import random_table, table_memory_kv, tiny_editor, tiny_pointer


def _encoder(seed: int = 0):
    model, _ = tiny_pointer(seed)
    return model.encoder


def _embed(enc, cell: LinearizedCell):
    """The fused vector of a single cell."""
    return enc._embed(enc._cell_ids([cell]))[0]


def test_embed_cell_zero_weights_zero_output():
    enc = _encoder()
    enc.fuse.weight.data[...] = 0.0
    enc.fuse.bias.data[...] = 0.0
    out = _embed(enc, LinearizedCell("Alda", "Name_ID", 1, 2))
    assert np.all(out.data == 0.0)


def test_embed_cell_negative_bias_clamped_by_relu():
    enc = _encoder()
    enc.fuse.weight.data[...] = 0.0
    enc.fuse.bias.data[...] = -1.0
    out = _embed(enc, LinearizedCell("Alda", "Name_ID", 1, 2))
    assert np.all(out.data == 0.0)


def test_embed_cell_sensitive_to_fwd_position_rows():
    enc = _encoder()
    enc.fwd_emb.weight.data[1, :] = 0.5
    enc.fwd_emb.weight.data[2, :] = -0.5
    a = _embed(enc, LinearizedCell("Alda", "Name_ID", 1, 2))
    b = _embed(enc, LinearizedCell("Alda", "Name_ID", 2, 1))
    assert not np.allclose(a.data, b.data)


def test_embed_cell_unknown_tokens_fall_back_to_unk():
    enc = _encoder()
    a = _embed(enc, LinearizedCell("definitely-oov-1", "Name_ID", 1, 1))
    b = _embed(enc, LinearizedCell("definitely-oov-2", "Name_ID", 1, 1))
    assert np.allclose(a.data, b.data)


def test_position_clamp_bounds_lookup():
    enc = _encoder()
    big = _embed(enc, LinearizedCell("Alda", "Name_ID", 500, 1))
    at_cap = _embed(enc, LinearizedCell("Alda", "Name_ID", enc.pos_clamp, 1))
    assert np.allclose(big.data, at_cap.data)


def test_encode_single_attribute_length():
    enc = _encoder()
    cells = linearize_table(Table((Attribute("K", ("x",)),)))
    out = enc(cells)
    assert [c.token for c in cells] == ["x", "<eos>"]  # value cell + EOS
    assert out.rows.shape == (2, 16)
    assert out.lengths == [2]


def test_encode_published_linearization_example():
    enc = _encoder()
    table = Table((Attribute("Name_ID", ("Thaila", "Ayala")),))
    cells = linearize_table(table)
    assert [c.token for c in cells] == ["Thaila", "Ayala", "<eos>"]
    assert enc(cells).rows.shape[0] == 3


def test_encoder_output_shape_invariants_random():
    rng = np.random.default_rng(1)
    enc = _encoder()
    for _ in range(25):
        table = random_table(rng)
        cells = linearize_table(table)
        out = enc(cells)
        assert out.rows.shape == (len(cells), 16)
        assert out.lengths == [len(cells)]


def test_permutation_equivariance_over_attributes():
    enc = _encoder(seed=3)
    a = Attribute("Name_ID", ("Alda", "Fenwick"))
    b = Attribute("Place_of_birth", ("Lunden",))
    c = Attribute("Occupation", ("physicist",))
    out1 = enc(linearize_table(Table((a, b, c))))
    out2 = enc(linearize_table(Table((c, a, b))))
    # cells: table1 -> [a0 a1 b0 c0 eos], table2 -> [c0 a0 a1 b0 eos]
    perm = [3, 0, 1, 2, 4]
    assert np.allclose(out2.rows.data, out1.rows.data[perm], atol=1e-10)


def test_gradients_reach_fusion_and_embeddings():
    model, _ = tiny_editor(seed=4)
    enc = model.encoder
    table = Table((Attribute("Name_ID", ("Alda",)), Attribute("Occupation", ("sculptor",))))
    out = enc(linearize_table(table))
    (out.rows * out.rows).sum().backward()
    assert np.abs(enc.fuse.weight.grad).max() > 0
    assert np.abs(enc.fuse.bias.grad).max() > 0
    tok_ids = enc.vocab.ids(("Alda", "sculptor", "<eos>"))
    for tid in tok_ids:
        assert np.abs(enc.tok_emb.weight.grad[tid]).max() > 0
    key_ids = enc.key_vocab.ids(("Name_ID", "Occupation", "<eos>"))
    for kid in key_ids:
        assert np.abs(enc.key_emb.weight.grad[kid]).max() > 0
    unused = enc.vocab.token_to_id["Varano"]
    assert np.abs(enc.tok_emb.weight.grad[unused]).max() == 0


def test_encode_requires_cells():
    enc = _encoder()
    with pytest.raises(ValueError):
        enc([])


def test_a_padded_pass_names_its_empty_table():
    enc = _encoder()
    cells = linearize_table(Table((Attribute("Name_ID", ("Alda",)),)))
    with pytest.raises(ValueError, match=r"^encode_padded: table 1 has no cells"):
        enc.encode_padded([cells, [], cells])


@pytest.mark.parametrize(
    "build,decode",
    [
        (tiny_pointer, lambda model, tokens, memory: model.decoder_states(tokens, memory)),
        (tiny_editor, lambda model, tokens, memory: model.decode_hidden(
            tokens, model.decoder.memory_kv(memory.rows.data))),
    ],
    ids=["pointer", "editor"],
)
def test_trunk_rejects_inputs_beyond_its_positions(build, decode):
    model, _ = build(seed=5, max_skeleton_len=6, max_state_len=8)
    memory = model.encoder(linearize_table(random_table(np.random.default_rng(5))))
    tokens = [BOS_TOKEN, *["Alda"] * (model.max_len - 2), EOS_TOKEN]
    assert decode(model, tokens, memory).shape == (model.max_len, model.d_model)
    with pytest.raises(ValueError, match=f"{model.max_len + 1} positions exceed the {model.max_len}"):
        decode(model, [BOS_TOKEN, *tokens], memory)


def test_cached_pointer_step_rejects_a_position_beyond_the_cap():
    model, _ = tiny_pointer(seed=6, max_skeleton_len=3)
    memory_kv = table_memory_kv(model, random_table(np.random.default_rng(6)))
    past = None
    for _ in range(model.max_len):
        _, past = model.decoder_states([BOS_TOKEN], memory_kv, [0], past)
    with pytest.raises(ValueError, match="positions exceed"):
        model.decoder_states([BOS_TOKEN], memory_kv, [0], past)
