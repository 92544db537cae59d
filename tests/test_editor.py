"""Edit decoder heads: arities, argmax decisions, non-causality."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from skeltext import autograd as ag
from skeltext.autograd import Tensor
from skeltext.data import (
    BOS_TOKEN, EOS_TOKEN, PLH_TOKEN, RESERVED_TOKENS, Attribute, Table, linearize_table,
)
from skeltext.decoding import masked_delete
from skeltext.editor import EditState

from helpers import blas_fingerprint, decode_hidden, tiny_editor


def _setup(seed=0):
    model, cfg = tiny_editor(seed=seed)
    table = Table((Attribute("Name_ID", ("Alda", "Fenwick")), Attribute("Occupation", ("sculptor",))))
    return model, model.encoder(linearize_table(table)), cfg


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
    model, memory, _ = _setup()
    state = [BOS_TOKEN, "Alda", "sculptor", EOS_TOKEN]
    z = decode_hidden(model, state, memory)
    assert z.shape == (4, 16)
    z2 = decode_hidden(model, [BOS_TOKEN, EOS_TOKEN], memory)
    assert z2.shape == (2, 16)


def test_head_arities():
    model, memory, cfg = _setup()
    state = [BOS_TOKEN, "Alda", PLH_TOKEN, "sculptor", PLH_TOKEN, EOS_TOKEN]
    z = decode_hidden(model, state, memory)
    assert model.deletion_logits(z).shape == (6, 2)
    assert model.placeholder_logits(z, np.arange(5)).shape == (5, cfg.k_max + 1)
    plh = [i for i, t in enumerate(state) if t == PLH_TOKEN]
    assert ag.softmax(model.token_logits(z, plh)).shape == (2, len(model.vocab))


def test_deletion_zero_weights_give_half_half():
    # Even odds: each position's keep and delete logits tie, and a tie keeps.
    model, memory, _ = _setup()
    model.w_del.weight.data[...] = 0.0
    state = EditState((BOS_TOKEN, "Alda", EOS_TOKEN), (True, False, True))
    logits = model.deletion_logits(decode_hidden(model, state.tokens, memory)).data
    assert np.array_equal(logits, np.zeros((3, 2)))
    assert masked_delete(state, logits) == state


def test_placeholder_slot_counts():
    model, memory, cfg = _setup(seed=3)
    z = decode_hidden(model, [BOS_TOKEN, EOS_TOKEN], memory)
    assert model.placeholder_logits(z, np.arange(1)).shape == (1, cfg.k_max + 1)
    z5 = decode_hidden(model, [BOS_TOKEN, "a", "b", "c", EOS_TOKEN], memory)
    assert model.placeholder_logits(z5, np.arange(4)).shape == (4, cfg.k_max + 1)


def test_the_placeholder_head_over_every_slot_gives_the_sliced_pairs_bytes():
    # The reference is the one-state head of earlier versions, which paired
    # the slices z[:-1] and z[1:] instead of gathering explicit slots.
    model, memory, cfg = _setup(seed=5)
    state = [BOS_TOKEN, "Alda", PLH_TOKEN, "sculptor", EOS_TOKEN]
    weights = np.random.default_rng(5).normal(size=(len(state) - 1, cfg.k_max + 1))
    got, want = [], []
    for out, head in (
        (got, lambda z: model.placeholder_logits(z, np.arange(len(state) - 1))),
        (want, lambda z: model.w_plh(ag.concat([z[:-1], z[1:]], axis=1))),
    ):
        z = Tensor(decode_hidden(model, state, memory).data, retain_grad=True)
        logits = head(z)
        (logits * Tensor(weights)).sum().backward()
        out += [logits.data.tobytes(), z.grad.tobytes(), model.w_plh.weight.grad.tobytes()]
        model.w_plh.weight.grad[...] = 0.0
    assert got == want


def test_token_scores_empty_without_placeholders():
    model, memory, _ = _setup(seed=5)
    z = decode_hidden(model, [BOS_TOKEN, "Alda", EOS_TOKEN], memory)
    assert ag.softmax(model.token_logits(z, [])).shape == (0, len(model.vocab))
    assert model.argmax_fill(z.data, []) == []


def test_token_scores_rows_are_distributions():
    model, memory, _ = _setup(seed=6)
    state = [BOS_TOKEN, PLH_TOKEN, "Alda", PLH_TOKEN, EOS_TOKEN]
    z = decode_hidden(model, state, memory)
    scores = ag.softmax(model.token_logits(z, [1, 3])).data
    assert scores.shape == (2, len(model.vocab))
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_one_hot_token_logits_fill_deterministically():
    model, memory, _ = _setup(seed=7)
    target = model.vocab.token_to_id["Lunden"]
    model.w_tok.weight.data[...] = 0.0
    model.w_tok.weight.data[0, target] = 5.0
    z_rows = np.zeros((3, 16))
    z_rows[1, 0] = 1.0  # the placeholder position activates the rigged column
    assert model.argmax_fill(z_rows, [1]) == ["Lunden"]


def test_a_fill_is_the_first_best_non_reserved_token_whatever_the_reserved_logits():
    model, _, _ = _setup()
    logits = np.random.default_rng(9).normal(size=(3, len(model.vocab)))
    logits[:, : len(RESERVED_TOKENS)] = 100.0
    logits[2, [7, 9]] = 50.0  # a tie goes to the lower id
    first_best = [max(range(len(RESERVED_TOKENS), len(row)), key=lambda i: (row[i], -i))
                  for row in logits]
    assert model.fill_tokens(logits) == [model.vocab.token_of(i) for i in first_best]


def test_non_causality_last_token_reaches_z0():
    model, memory, _ = _setup(seed=8)
    s1 = [BOS_TOKEN, "Alda", "Fenwick", EOS_TOKEN]
    s2 = [BOS_TOKEN, "Alda", "sculptor", EOS_TOKEN]
    z1 = decode_hidden(model, s1, memory).data
    z2 = decode_hidden(model, s2, memory).data
    assert not np.allclose(z1[0], z2[0])  # full self-attention sees position 2


def test_all_three_heads_receive_gradient():
    model, memory, _ = _setup(seed=9)
    from skeltext.oracle import edit_loss_example

    class _Rng:  # rho = 0 corrupts down to the skeleton, so gaps exist
        calls = 0

        def uniform(self):
            self.calls += 1
            return 0.0 if self.calls == 1 else 0.5

    parts = edit_loss_example(
        model, memory, ["Alda", "sculptor"],
        ["Alda", "Fenwick", "was", "a", "sculptor"], _Rng(),
    )
    parts.total.backward()
    assert np.abs(model.w_del.weight.grad).max() > 0
    assert np.abs(model.w_plh.weight.grad).max() > 0
    assert np.abs(model.w_tok.weight.grad).max() > 0


def test_state_cap_enforced():
    model, _ = tiny_editor(seed=11, max_state_len=4)
    memory = model.encoder(linearize_table(Table((Attribute("Name_ID", ("Alda",)),))))
    decode_hidden(model, [BOS_TOKEN, "a", "b", EOS_TOKEN], memory)
    with pytest.raises(ValueError, match="cap"):
        decode_hidden(model, [BOS_TOKEN, "a", "b", "c", EOS_TOKEN], memory)


def test_edit_loss_gradients_reach_every_cross_attention_projection():
    from skeltext.oracle import edit_loss_example

    model, _ = tiny_editor(seed=11, n_layers=2)
    table = Table((Attribute("Name_ID", ("Alda", "Fenwick")), Attribute("Occupation", ("sculptor",))))
    parts = edit_loss_example(
        model, model.encoder(linearize_table(table)), ["Alda", "sculptor"],
        ["Alda", "Fenwick", "was", "a", "sculptor"], np.random.default_rng(4),
    )
    parts.total.backward()
    for layer in model.decoder.layers:
        assert np.abs(layer.cross_attn.wk.weight.grad).max() > 1e-6
        assert np.abs(layer.cross_attn.wv.weight.grad).max() > 1e-6


# Loss parts, clamped slot count and a sha256 over every parameter's name and
# gradient bytes, recorded when edit_loss_example still decoded state2 once, on
# the tape, for both its argmax fills and its token loss. Decoding it a second
# time for the token loss gives the same bits. The bits follow the order in
# which the BLAS kernel sums, so each pin is keyed by blas_fingerprint(): here
# OpenBLAS 0.3.31's SkylakeX (its default on the recording host), Haswell (Zen
# gives the same) and Sandybridge kernels, chosen by OPENBLAS_CORETYPE.
SKYLAKEX_EDIT_LOSS = {
    "loss_edit": 26.250040149382812,
    "loss_ins": 18.67466034147044,
    "loss_plh": 3.149094734059127,
    "loss_tok": 15.52556560741131,
    "loss_del": 7.5753798079123715,
}
PINNED_EDIT_LOSS = {
    "fc32f897a7a862527d523ca2156ae0de93642969459082f93e4290d24f9c809d": (
        SKYLAKEX_EDIT_LOSS, 1, "5a212e23d1f438cf1b61b395b5ec4caf7c6134bec39bb019b69bd59f2ae07a73",
    ),
    "911463fc84d6942e78b1c82cd72a503aa09c04b0946621e73ce9414be7a03abb": (
        SKYLAKEX_EDIT_LOSS, 1, "f64612d91b6cd232aeb9d19ad9d1b85e2cc8bff2ad89ba8a3e2f9fb3a7e8abdc",
    ),
    "1cde6561333d8d1621d24c581146ca54349d2cbe9275bb4aea02237615627f43": (
        {**SKYLAKEX_EDIT_LOSS, "loss_plh": 3.149094734059126, "loss_tok": 15.525565607411313},
        1,
        "10f1a759f498d8053009012aef32a6087783876a7f699eab4ce7093bf2b7f8ee",
    ),
}


def _pinned_edit_loss() -> tuple[dict, int, str]:
    """The pinned computation: loss parts, clamped slots and the gradient sha256."""
    import hashlib

    from skeltext.oracle import edit_loss_example

    model, _ = tiny_editor(seed=13, k_max=1)
    table = Table(
        (Attribute("Name_ID", ("Alda", "Fenwick")), Attribute("Occupation", ("sculptor",)))
    )
    skeleton, reference = ["Alda", "sculptor"], ["Alda", "Fenwick", "was", "a", "sculptor", "."]
    parts = edit_loss_example(
        model, model.encoder(linearize_table(table)), skeleton, reference, np.random.default_rng(3)
    )
    parts.total.backward()
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode() + b"\0" + p.grad.tobytes())
    return parts.as_dict(), parts.clamped_slots, digest.hexdigest()


def _check_the_pin(got: tuple[dict, int, str], fingerprint: str) -> None:
    pinned = PINNED_EDIT_LOSS.get(fingerprint)
    if pinned is not None:
        assert got == pinned
    else:  # a kernel with no pin: the loss parts to 1e-12 relative
        assert got[0] == pytest.approx(SKYLAKEX_EDIT_LOSS, rel=1e-12, abs=0.0)
        assert got[1] == 1


def test_edit_loss_example_gives_its_pinned_loss_and_gradient_bytes():
    _check_the_pin(_pinned_edit_loss(), blas_fingerprint())


def _kernel_can_run(core: str) -> bool:
    """numpy's BLAS is OpenBLAS on x86-64, and this CPU has the instructions of kernel `core`."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in str(blas.get("name", "")).lower():
        return False
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = {f for line in fh if line.startswith("flags") for f in line.split()}
    except OSError:
        return False
    return {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}[core] <= flags


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_the_pinned_edit_loss_holds_under_another_openblas_kernel(core):
    # OPENBLAS_CORETYPE picks the kernel when OpenBLAS loads, so the
    # computation reruns in a child process whose environment alone sets it.
    if not _kernel_can_run(core):
        pytest.skip(f"numpy's BLAS cannot run OpenBLAS's {core} kernel here")
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(os.path.dirname(tests), "src"), tests, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = ("import json, helpers, test_editor; "
              "print(json.dumps([helpers.blas_fingerprint(), test_editor._pinned_edit_loss()]))")
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    fingerprint, got = json.loads(child.stdout)
    _check_the_pin(tuple(got), fingerprint)


def test_a_padded_batch_encodes_and_decodes_each_example_as_alone():
    from helpers import random_table, random_tokens

    model, _ = tiny_editor(seed=21, n_layers=2)
    rng = np.random.default_rng(21)
    tables = [random_table(rng) for _ in range(3)]
    states = [[BOS_TOKEN, *random_tokens(rng, 7), EOS_TOKEN] for _ in range(3)]
    memory = model.encoder.encode_padded([linearize_table(t) for t in tables])
    z = model.decode_batch(states, memory, causal=False)
    assert len({len(s) for s in states}) > 1 and len(set(memory.lengths)) > 1
    for b, (table, state) in enumerate(zip(tables, states)):
        own = model.encoder(linearize_table(table))
        cells = memory.rows.data[b * memory.width : b * memory.width + own.lengths[0]]
        assert np.abs(cells - own.rows.data).max() < 1e-12
        rows = z.rows.data[b * z.width : b * z.width + len(state)]
        assert np.abs(rows - decode_hidden(model, state, own).data).max() < 1e-12
    # One example is the unbatched computation, to the bit.
    first = model.encoder.encode_padded([linearize_table(tables[0])])
    one = model.decode_batch(states[:1], first, causal=False)
    alone = decode_hidden(model, states[0], model.encoder(linearize_table(tables[0])))
    assert one.rows.data.tobytes() == alone.data.tobytes()
