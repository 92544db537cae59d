"""The benchmark's tracer still wraps, classifies and restores what it names.

perfbench/tracer.py replaces each `(owner, attr)` of `_traced_targets()` by
`owner.__dict__[attr]`, so a function that moves or is renamed breaks the
traced benchmark run. The first test reads the tracer's list without
installing it; the second installs it on a tiny run of both stages. A
module that binds a traced name at import holds the unwrapped function, so
the second test also counts training's calls of the two oracle spans.
"""

from __future__ import annotations

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_target_is_defined_on_its_owner():
    targets = _load_tracer()._traced_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_a_traced_tiny_run_counts_work_in_every_span_and_uninstall_restores(monkeypatch):
    from skeltext import annotate_corpus, autograd, decoding, default_stop_words, generate
    from skeltext import metrics, nn, training
    from skeltext.data import linearize_table
    from skeltext.synth import TemplateSpec

    from helpers import tiny_config

    tracer_module = _load_tracer()
    targets = tracer_module._traced_targets()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    originals.append((autograd.Tensor, "__init__", autograd.Tensor.__dict__["__init__"]))
    # Every decoder layer makes one self- and one cross-attention call, and
    # every encoder layer one self-attention call.
    layer_calls = {"encoder": 0, "decoder": 0}
    for kind, cls in (("encoder", nn.EncoderLayer), ("decoder", nn.DecoderLayer)):
        def counted(self, *args, _kind=kind, _call=cls.__call__, **kwargs):
            layer_calls[_kind] += 1
            return _call(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__call__", counted)

    corpus = annotate_corpus(generate(TemplateSpec(seed=2), 4), default_stop_words())
    cfg = tiny_config(batch_size=2)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        pointer, _ = training.train_pointer(corpus, cfg)
        editor, _ = training.train_editor(corpus, cfg)
        skeleton = pointer.beam_search(corpus[0].table, 2, 4).tokens
        tokens, _ = decoding.iterate(editor, corpus[0].table, skeleton, max_iter=2)
        metrics.evaluate_outputs([tokens], corpus[:1])
        # No workload calls TableEncoder.__call__: training encodes padded
        # batches, and inference encodes on arrays.
        editor.encoder(linearize_table(corpus[1].table))
    finally:
        tracer.uninstall()
    not_restored = [
        f"{owner.__name__}.{attr}" for owner, attr, original in originals
        if owner.__dict__[attr] is not original
    ]
    assert not_restored == []

    totals = tracer.totals()
    names = {name for _, _, name in targets if isinstance(name, str)}
    names |= {"nn.self_attention", "nn.cross_attention"}
    idle = [name for name in sorted(names) if totals.get(name, {"calls": 0})["calls"] == 0]
    assert idle == []
    assert totals["nn.cross_attention"]["calls"] == layer_calls["decoder"]
    assert totals["nn.self_attention"]["calls"] == sum(layer_calls.values())
    # Training drafts each example once per epoch and takes each micro-batch's
    # edit losses once: one epoch of 4 examples, in 2 batches of 2.
    assert cfg.editor_epochs == 1 and training.EDITOR_MICRO_BATCH >= cfg.batch_size
    assert totals["oracle.build_edit_supervision"]["calls"] == len(corpus) == 4
    assert totals["oracle.edit_loss_from_supervision"]["calls"] == 2
    for counter in tracer_module._WORK.values():
        assert tracer.counts[counter[0]] > 0, counter[0]
