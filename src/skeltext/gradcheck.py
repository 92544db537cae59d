"""Finite-difference verification of every differentiable layer and both models."""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Attribute, Example, Table, Vocabulary, linearize_table
from .nn import (
    Embedding,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    Padded,
    Parameter,
    TransformerDecoder,
    TransformerEncoder,
)
from .oracle import backprop_edit_batch, build_edit_supervision, edit_loss_from_supervision
from .pointer import backprop_pointer_batch
from .training import RunConfig, build_editor, build_pointer

TOLERANCE = 1e-4
SAMPLES_PER_PARAM = 12  # coordinates finite_difference_check samples in each parameter
FD_STEP = 1e-5  # the central difference's step in each coordinate


def finite_difference_check(
    backprop: Callable[[], object],
    value: Callable[[], float],
    params: list[Parameter],
    rng: np.random.Generator,
    samples_per_param: int = SAMPLES_PER_PARAM,
) -> float:
    """Max relative error between analytic and central-difference gradients of one loss.

    backprop() adds the loss's gradient into the parameters' gradients, once;
    value() returns the loss, without a backward, at each perturbed
    coordinate. Coordinates are sampled per parameter. Relative error uses a
    1e-4 floor in the denominator so finite-difference rounding noise on
    near-zero gradients does not register as failure. Zero parameters -> 0.0.
    """
    if not params:
        return 0.0
    for p in params:
        p.grad[...] = 0.0
    backprop()
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.grad[...] = 0.0

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        idx = np.arange(n) if n <= samples_per_param else rng.choice(n, samples_per_param, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = value()
            flat[i] = orig - FD_STEP
            lo = value()
            flat[i] = orig
            numeric = (hi - lo) / (2 * FD_STEP)
            a = ga.reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            worst = max(worst, rel)
    return worst


def run_gradcheck(seed: int = 0) -> list[tuple[str, float]]:
    """Run the whole suite; returns (check name, max relative error) pairs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    results: list[tuple[str, float]] = []

    def check(name: str, backprop, value, params) -> None:
        err = finite_difference_check(backprop, value, params, rng)
        results.append((name, err))

    def check_loss(name: str, loss_fn: Callable[[], Tensor], params) -> None:
        check(name, lambda: loss_fn().backward(), lambda: loss_fn().item(), params)

    def weighted(name: str, out: Callable[[], Tensor], params) -> None:
        # w is drawn after the module and its inputs, so each check keeps its draws.
        w = Tensor(rng.normal(size=out().shape))
        check_loss(name, lambda: (out() * w).sum(), params)

    x = Tensor(rng.normal(size=(5, 6)))
    linear = Linear(rng, 6, 4)
    weighted("linear", lambda: linear(x), linear.parameters())

    emb = Embedding(rng, 9, 5)
    ids = np.array([0, 3, 3, 8])
    weighted("embedding", lambda: emb(ids), emb.parameters())

    ln = LayerNorm(6)
    ln_x = Tensor(rng.normal(size=(4, 6)))
    weighted("layer_norm", lambda: ln(ln_x), ln.parameters())

    attn = MultiHeadAttention(rng, 8, 2)
    q_in = Tensor(rng.normal(size=(4, 8)))
    m_in = Tensor(rng.normal(size=(6, 8)))
    weighted("multi_head_attention", lambda: attn(q_in, m_in), attn.parameters())

    enc_block = TransformerEncoder(rng, 8, 12, 2, 2)
    enc_x = Tensor(rng.normal(size=(5, 8)))
    weighted("transformer_encoder_2layer", lambda: enc_block(enc_x), enc_block.parameters())

    dec_block = TransformerDecoder(rng, 8, 12, 2, 2)
    dec_x = Tensor(rng.normal(size=(4, 8)))
    dec_m = Padded(Tensor(rng.normal(size=(5, 8))), [5])
    weighted(
        "transformer_decoder_causal",
        lambda: dec_block(dec_x, dec_m, causal=True),
        dec_block.parameters(),
    )

    sm_x = Tensor(rng.normal(size=(3, 6)))
    sm_head = Linear(rng, 6, 6)
    weighted("softmax", lambda: ag.softmax(sm_head(sm_x), axis=-1), sm_head.parameters())

    cfg = RunConfig(
        d_model=8, d_hidden=12, n_heads=2, n_layers=2,
        token_dim=6, key_dim=4, pos_dim=3, k_max=4,
        pointer_epochs=1, editor_epochs=1, seed=7,
    )
    vocab = Vocabulary(["Alda", "Fenwick", "Lunden", "optics", "born", "in", "."])
    key_vocab = Vocabulary(["Name_ID", "Place_of_birth", "Field_of_work"])
    table = Table(
        (
            Attribute("Name_ID", ("Alda", "Fenwick")),
            Attribute("Place_of_birth", ("Lunden",)),
            Attribute("Field_of_work", ("optics",)),
        )
    )
    reference = ("Alda", "Fenwick", "born", "in", "Lunden", ".")
    example = Example(table, reference, ("Alda", "Fenwick", "Lunden"))

    pointer = build_pointer(cfg, vocab, key_vocab)
    table_enc = pointer.encoder
    cells = linearize_table(example.table)
    check_loss(
        "pointer_model_loss",
        lambda: pointer.loss(example, table_enc(cells), [c.token for c in cells]),
        pointer.parameters(),
    )
    weighted("table_encoder", lambda: table_enc(cells).rows, table_enc.parameters())

    editor = build_editor(cfg, vocab, key_vocab)

    def check_edit_batch(name: str, batch: list[Example], seed: int) -> None:
        # Drafts, as in training: the analytic step, run once, completes each
        # from the argmax fills; the finite differences evaluate the same
        # padded losses without a backward.
        sups = [
            build_edit_supervision(
                editor, ex.skeleton, ex.reference, np.random.Generator(np.random.PCG64(seed + i))
            )
            for i, ex in enumerate(batch)
        ]
        tables = [linearize_table(ex.table) for ex in batch]

        def value() -> float:
            memory = editor.encoder.encode_padded(tables)
            parts = edit_loss_from_supervision(editor, memory, sups, 1.0, lambda name, loss: None)
            return sum(p.total.item() for p in parts)

        check(name, lambda: backprop_edit_batch(editor, batch, sups), value, editor.parameters())

    check_edit_batch("editor_model_loss", [example], 11)
    check_loss("zero_parameter_fragment", lambda: Tensor(0.0), [])

    # Last, so that the checks above draw what they always drew from rng.
    short = Example(
        Table((Attribute("Name_ID", ("Lunden",)),)), ("born", "in", "Lunden", "."), ("Lunden",)
    )
    batch = [example, short]
    check_edit_batch("editor_padded_batch_loss", batch, 12)

    # Also after the checks above: two tables of 5 and 2 cells, one padded pass.
    tables = [linearize_table(ex.table) for ex in batch]

    def pointer_batch_loss() -> float:
        memory = pointer.encoder.encode_padded(tables)
        return sum(
            pointer.loss(ex, memory.select([b]), [c.token for c in cells]).item()
            for b, (ex, cells) in enumerate(zip(batch, tables))
        )

    check(
        "pointer_padded_batch_loss",
        lambda: backprop_pointer_batch(pointer, batch),
        pointer_batch_loss,
        pointer.parameters(),
    )
    return results
