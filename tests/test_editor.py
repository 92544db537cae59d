"""Edit decoder heads: arities, softmax arithmetic, non-causality."""

from __future__ import annotations

import math

import numpy as np
import pytest

from skeltext import autograd as ag
from skeltext.autograd import Tensor
from skeltext.data import BOS_TOKEN, EOS_TOKEN, PLH_TOKEN, Attribute, Table
from skeltext.editor import EditState

from helpers import tiny_editor


def _setup(seed=0):
    model, cfg = tiny_editor(seed=seed)
    table = Table((Attribute("Name_ID", ("Alda", "Fenwick")), Attribute("Occupation", ("sculptor",))))
    return model, model.encode(table), cfg


def test_edit_state_invariants():
    EditState((BOS_TOKEN, "x", EOS_TOKEN), (True, False, True))
    with pytest.raises(ValueError):
        EditState(("x", EOS_TOKEN), (True, True))  # missing BOS
    with pytest.raises(ValueError):
        EditState((BOS_TOKEN, EOS_TOKEN), (False, True))  # unprotected sentinel
    with pytest.raises(ValueError):
        EditState((BOS_TOKEN, "x", EOS_TOKEN), (True, False))  # arity
    with pytest.raises(ValueError):
        EditState((BOS_TOKEN, PLH_TOKEN, EOS_TOKEN), (True, True, True))  # protected PLH


def test_decode_hidden_output_arity():
    model, enc, _ = _setup()
    state = [BOS_TOKEN, "Alda", "sculptor", EOS_TOKEN]
    z = model.decode_hidden(state, enc)
    assert z.shape == (4, 16)
    z2 = model.decode_hidden([BOS_TOKEN, EOS_TOKEN], enc)
    assert z2.shape == (2, 16)


def test_head_arities():
    model, enc, cfg = _setup()
    state = [BOS_TOKEN, "Alda", PLH_TOKEN, "sculptor", PLH_TOKEN, EOS_TOKEN]
    z = model.decode_hidden(state, enc)
    assert model.deletion_scores(z).shape == (6, 2)
    assert model.placeholder_scores(z).shape == (5, cfg.k_max + 1)
    plh = [i for i, t in enumerate(state) if t == PLH_TOKEN]
    assert ag.softmax(model.token_logits(z, plh)).shape == (2, len(model.vocab))


def test_deletion_zero_weights_give_half_half():
    model, enc, _ = _setup()
    model.w_del.weight.data[...] = 0.0
    z = model.decode_hidden([BOS_TOKEN, "Alda", EOS_TOKEN], enc)
    assert np.allclose(model.deletion_scores(z).data, 0.5)


def test_deletion_softmax_arithmetic_ln9():
    model, enc, _ = _setup()
    # Rig one position to logits (ln 9, 0): P(keep) = 0.9.
    model.w_del.weight.data[...] = 0.0
    z_rows = np.zeros((3, 16))
    z_rows[1, 0] = 1.0
    model.w_del.weight.data[0, 0] = math.log(9.0)
    from skeltext.autograd import Tensor

    scores = model.deletion_scores(Tensor(z_rows)).data
    assert scores[1, 0] == pytest.approx(0.9)
    assert scores[1, 1] == pytest.approx(0.1)
    assert np.allclose(scores.sum(axis=1), 1.0)


def test_deletion_rows_sum_to_one():
    model, enc, _ = _setup(seed=2)
    z = model.decode_hidden([BOS_TOKEN, "Alda", "Fenwick", EOS_TOKEN], enc)
    assert np.allclose(model.deletion_scores(z).data.sum(axis=1), 1.0, atol=1e-9)


def test_placeholder_slot_counts():
    model, enc, cfg = _setup(seed=3)
    z = model.decode_hidden([BOS_TOKEN, EOS_TOKEN], enc)
    assert model.placeholder_scores(z).shape == (1, cfg.k_max + 1)
    z5 = model.decode_hidden([BOS_TOKEN, "a", "b", "c", EOS_TOKEN], enc)
    assert model.placeholder_scores(z5).shape == (4, cfg.k_max + 1)


def test_placeholder_zero_weights_uniform():
    model, enc, cfg = _setup(seed=4)
    model.w_plh.weight.data[...] = 0.0
    z = model.decode_hidden([BOS_TOKEN, "Alda", EOS_TOKEN], enc)
    assert np.allclose(model.placeholder_scores(z).data, 1.0 / (cfg.k_max + 1))


def test_token_scores_empty_without_placeholders():
    model, enc, _ = _setup(seed=5)
    z = model.decode_hidden([BOS_TOKEN, "Alda", EOS_TOKEN], enc)
    assert ag.softmax(model.token_logits(z, [])).shape == (0, len(model.vocab))
    assert model.argmax_fill(z, []) == []


def test_token_scores_rows_are_distributions():
    model, enc, _ = _setup(seed=6)
    state = [BOS_TOKEN, PLH_TOKEN, "Alda", PLH_TOKEN, EOS_TOKEN]
    z = model.decode_hidden(state, enc)
    scores = ag.softmax(model.token_logits(z, [1, 3])).data
    assert scores.shape == (2, len(model.vocab))
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_one_hot_token_logits_fill_deterministically():
    from skeltext.autograd import Tensor

    model, enc, _ = _setup(seed=7)
    target = model.vocab.id_of("Lunden")
    model.w_tok.weight.data[...] = 0.0
    model.w_tok.weight.data[0, target] = 5.0
    z_rows = np.zeros((3, 16))
    z_rows[1, 0] = 1.0  # the placeholder position activates the rigged column
    assert model.argmax_fill(Tensor(z_rows), [1]) == ["Lunden"]


def test_non_causality_last_token_reaches_z0():
    model, enc, _ = _setup(seed=8)
    s1 = [BOS_TOKEN, "Alda", "Fenwick", EOS_TOKEN]
    s2 = [BOS_TOKEN, "Alda", "sculptor", EOS_TOKEN]
    z1 = model.decode_hidden(s1, enc).data
    z2 = model.decode_hidden(s2, enc).data
    assert not np.allclose(z1[0], z2[0])  # full self-attention sees position 2


def test_all_three_heads_receive_gradient():
    model, enc, _ = _setup(seed=9)
    from skeltext.oracle import edit_loss_example

    class _Rng:  # rho = 0 corrupts down to the skeleton, so gaps exist
        calls = 0

        def uniform(self):
            self.calls += 1
            return 0.0 if self.calls == 1 else 0.5

    parts = edit_loss_example(
        model, enc, ["Alda", "sculptor"],
        ["Alda", "Fenwick", "was", "a", "sculptor"], _Rng(),
    )
    parts.total.backward()
    assert np.abs(model.w_del.weight.grad).max() > 0
    assert np.abs(model.w_plh.weight.grad).max() > 0
    assert np.abs(model.w_tok.weight.grad).max() > 0


def test_tied_token_head_uses_embedding_table():
    model, cfg = tiny_editor(seed=10, tie_token_head=True)
    table = Table((Attribute("K", ("Alda",)),))
    enc = model.encode(table)
    assert not hasattr(model, "w_tok")
    z = model.decode_hidden([BOS_TOKEN, PLH_TOKEN, EOS_TOKEN], enc)
    scores = ag.softmax(model.token_logits(z, [1]))
    assert scores.shape == (1, len(model.vocab))
    assert np.allclose(scores.data.sum(axis=1), 1.0)


def test_state_cap_enforced():
    model, _ = tiny_editor(seed=11, max_state_len=4)
    enc = model.encode(Table((Attribute("Name_ID", ("Alda",)),)))
    model.decode_hidden([BOS_TOKEN, "a", "b", EOS_TOKEN], enc)
    with pytest.raises(ValueError, match="cap"):
        model.decode_hidden([BOS_TOKEN, "a", "b", "c", EOS_TOKEN], enc)


def _gradients(model, enc_of):
    """Parameter gradients of one edit loss, with the encoding made by enc_of(table)."""
    from skeltext.oracle import edit_loss_example

    table = Table((Attribute("Name_ID", ("Alda", "Fenwick")), Attribute("Occupation", ("sculptor",))))
    enc = enc_of(table)
    parts = edit_loss_example(
        model, enc, ["Alda", "sculptor"],
        ["Alda", "Fenwick", "was", "a", "sculptor"], np.random.default_rng(4),
    )
    parts.total.backward()
    return enc, {name: p.grad.copy() for name, p in model.named_parameters()}


def test_edit_loss_gradient_unchanged_by_memory_memo(monkeypatch):
    # A tracked encoding is never memoized, not even by the no-grad argmax
    # fill inside the supervision, so training builds the graph it always did.
    from skeltext.encoder import EncoderOutput

    model, _ = tiny_editor(seed=11)
    enc, got = _gradients(model, model.encode)
    assert enc._memory is None
    reference, _ = tiny_editor(seed=11)
    monkeypatch.setattr(EncoderOutput, "memory_cache", lambda self, decoder: None)
    _, want = _gradients(reference, reference.encode)
    assert got.keys() == want.keys()
    for name in got:
        assert np.array_equal(got[name], want[name]), name
    assert np.abs(got["decoder.layers.0.cross_attn.wk.weight"]).max() > 1e-6


def test_decoding_with_gradients_ignores_a_memo_made_under_no_grad():
    from skeltext import autograd as ag

    model, enc, _ = _setup(seed=12)
    with ag.no_grad():
        frozen = model.encode(Table((Attribute("Name_ID", ("Alda",)),)))
        model.decode_hidden([BOS_TOKEN, "Alda", EOS_TOKEN], frozen)
    assert frozen.memory_cache(model.decoder) is None  # grad is enabled here
    assert frozen._memory is not None
    z = model.decode_hidden([BOS_TOKEN, "Alda", EOS_TOKEN], frozen)
    weights = Tensor(np.random.default_rng(0).normal(size=z.shape))
    (z * weights).sum().backward()  # a plain sum of layer-normed rows is constant
    for layer in model.decoder.layers:
        assert np.abs(layer.cross_attn.wk.weight.grad).max() > 1e-6
        assert np.abs(layer.cross_attn.wv.weight.grad).max() > 1e-6


def test_one_graded_state2_pass_matches_the_two_pass_loss():
    # Training decodes state2 once, on the tape, for both the argmax fills and
    # the token loss; the frozen-supervision path decodes it twice.
    from skeltext.oracle import (
        build_edit_supervision,
        edit_loss_example,
        edit_loss_from_supervision,
    )

    table = Table(
        (Attribute("Name_ID", ("Alda", "Fenwick")), Attribute("Occupation", ("sculptor",)))
    )
    skeleton, reference = ["Alda", "sculptor"], ["Alda", "Fenwick", "was", "a", "sculptor", "."]

    def run(one_pass: bool):
        model, _ = tiny_editor(seed=13)
        decoded = []
        decode = model.decode_hidden
        model.decode_hidden = lambda tokens, enc: decoded.append(tokens) or decode(tokens, enc)
        enc = model.encode(table)
        rng = np.random.default_rng(3)
        if one_pass:
            parts = edit_loss_example(model, enc, skeleton, reference, rng)
        else:
            sup = build_edit_supervision(model, enc, skeleton, reference, rng)
            assert sup.positions
            parts = edit_loss_from_supervision(model, enc, sup)
        parts.total.backward()
        grads = {name: p.grad.tobytes() for name, p in model.named_parameters()}
        return parts.as_dict(), parts.clamped_slots, grads, len(decoded)

    *got, one_pass_decodes = run(True)
    *want, two_pass_decodes = run(False)
    assert got == want
    assert (one_pass_decodes, two_pass_decodes) == (3, 4)
