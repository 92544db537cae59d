"""One training loop for both stages, plus model building and checkpoint assembly."""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Callable

import numpy as np

from . import oracle
from .config import RunConfig, read_json
from .data import (
    Corpus,
    Vocabulary,
    build_key_vocabulary,
    build_vocabulary,
)
from .editor import EditRealizer
from .nn import Adam, Module, load_checkpoint, save_checkpoint
from .pointer import SkeletonPointer, backprop_pointer_batch, check_skeleton

Logger = Callable[[dict], None]

VOCAB_FILE = "vocab.json"
KEY_VOCAB_FILE = "keys.json"
CONFIG_FILE = "config.json"


def _noop_logger(_: dict) -> None:
    pass


def _rng(*entropy: int) -> np.random.Generator:
    """The generator of every training draw, seeded with SeedSequence(entropy): (seed, 1|2)
    builds the pointer|editor, (seed, 3|4) shuffles its epochs, (seed, epoch, index) drafts.
    These overlap: SeedSequence pads entropy with zeros, so (seed, k) draws the same stream
    as the draft of example 0 in epoch k, (seed, k, 0)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def build_pointer(cfg: RunConfig, vocab: Vocabulary, key_vocab: Vocabulary) -> SkeletonPointer:
    return SkeletonPointer(_rng(cfg.seed, 1), vocab, key_vocab, cfg)


def build_editor(cfg: RunConfig, vocab: Vocabulary, key_vocab: Vocabulary) -> EditRealizer:
    return EditRealizer(_rng(cfg.seed, 2), vocab, key_vocab, cfg)


def build_vocabularies(corpus: Corpus, cfg: RunConfig) -> tuple[Vocabulary, Vocabulary]:
    return build_vocabulary(corpus, cfg.vocab_cap), build_key_vocabulary(corpus)


def _training_model(build, corpus: Corpus, cfg: RunConfig, stage: str, positions) -> Module:
    """build(cfg, vocab, key_vocab) for the corpus, once every example is checked.

    positions(example) is the number of decoder positions the example needs
    in training. An error names the corpus index of the example.
    """
    if not corpus:
        raise ValueError(f"{stage} training corpus is empty")
    model = build(cfg, *build_vocabularies(corpus, cfg))
    for i, ex in enumerate(corpus):
        if not ex.reference:
            raise ValueError(f"example {i}: training example has an empty reference")
        if ex.skeleton is None:
            raise ValueError(f"example {i}: {stage} training needs a skeleton (run annotate first)")
        n = positions(ex)
        if n > model.max_len:
            raise ValueError(f"example {i}: {n} positions exceed the {model.max_len}-position cap")
    return model


def _train(stage: str, model, schedule: tuple[float, int, int], stream: int, backprop,
           corpus: Corpus, cfg: RunConfig, log: Logger, epoch_names: dict[str, str]) -> Adam:
    """Mini-batch Adam over (peak lr, warmup, epochs), shuffling with RNG stream `stream`.

    backprop(batch, epoch) adds the gradient of the batch's mean loss into the
    parameters, for the corpus indices `batch`, and returns the float parts
    of the loss summed over the batch. The `{stage}_step` and
    `{stage}_epoch` events log the parts averaged over the batch and over
    the corpus, the latter renamed by `epoch_names`.
    """
    peak_lr, warmup, epochs = schedule
    opt = Adam(model.parameters(), peak_lr, warmup)
    shuffle_rng = _rng(cfg.seed, stream)
    for epoch in range(epochs):
        order = shuffle_rng.permutation(len(corpus))
        sums: Counter[str] = Counter()
        for start in range(0, len(order), cfg.batch_size):
            batch = [int(i) for i in order[start : start + cfg.batch_size]]
            step_sums = backprop(batch, epoch)
            lr = opt.step()
            sums.update(step_sums)
            log({"event": f"{stage}_step", "step": opt.step_count, "lr": lr,
                 **{k: v / len(batch) for k, v in step_sums.items()}})
        log({"event": f"{stage}_epoch", "epoch": epoch + 1,
             **{epoch_names.get(k, k): v / len(corpus) for k, v in sums.items()}})
    return opt


def train_pointer(
    corpus: Corpus, cfg: RunConfig, log: Logger = _noop_logger
) -> tuple[SkeletonPointer, Adam]:
    """Teacher-forced training of the skeleton pointer, each step's tables encoded as one padded pass."""
    model = _training_model(build_pointer, corpus, cfg, "pointer", lambda ex: 1 + len(ex.skeleton))
    for i, ex in enumerate(corpus):
        check_skeleton(ex, i)

    def backprop(batch: list[int], epoch: int) -> Counter[str]:
        losses = backprop_pointer_batch(model, [corpus[i] for i in batch], 1.0 / len(batch))
        return Counter({"loss": sum(losses)})

    schedule = (cfg.pointer_peak_lr, cfg.pointer_warmup, cfg.pointer_epochs)
    opt = _train("pointer", model, schedule, 3, backprop, corpus, cfg, log,
                 {"loss": "mean_loss"})
    return model, opt


# Examples per padded editor pass. A micro-batch's tape holds its encoder
# pass and one decoder pass, so memory grows with it: two rounds of the
# benchmark's train flow peaked at 49.1 MB with the per-example loop this
# replaced, and at 46.5, 50.5 and 55.3 MB with 1, 4 and 8 examples per pass.
# 4 was also the fastest of 1, 2, 4 and 8.
EDITOR_MICRO_BATCH = 4


def train_editor(
    corpus: Corpus, cfg: RunConfig, log: Logger = _noop_logger
) -> tuple[EditRealizer, Adam]:
    """Imitation training of the edit realizer on an annotated corpus, in padded micro-batches."""
    # The longest edit state is the reference between its sentinels.
    model = _training_model(build_editor, corpus, cfg, "editor", lambda ex: 2 + len(ex.reference))
    clamp_warned = False

    def backprop(batch: list[int], epoch: int) -> Counter[str]:
        nonlocal clamp_warned
        sums: Counter[str] = Counter()
        for start in range(0, len(batch), EDITOR_MICRO_BATCH):
            indices = batch[start : start + EDITOR_MICRO_BATCH]
            chunk = [corpus[i] for i in indices]
            # Through the module: the benchmark's tracer replaces oracle's attributes.
            sups = [
                oracle.build_edit_supervision(model, ex.skeleton, ex.reference,
                                              _rng(cfg.seed, epoch, i))
                for ex, i in zip(chunk, indices)
            ]
            scale = 1.0 / len(batch)
            for parts in oracle.backprop_edit_batch(model, chunk, sups, cfg.lambda_del, scale):
                if parts.clamped_slots and not clamp_warned:
                    clamp_warned = True
                    log({"event": "warning",
                         "message": f"oracle placeholder counts clamped to k_max={cfg.k_max}"})
                sums.update(parts.as_dict())
        return sums

    schedule = (cfg.editor_peak_lr, cfg.editor_warmup, cfg.editor_epochs)
    return model, _train("editor", model, schedule, 4, backprop, corpus, cfg, log, {})


def save_model_dir(directory: str, model, cfg: RunConfig) -> None:
    """Checkpoint directory: manifest/params plus the vocabularies and config."""
    save_checkpoint(directory, model)
    cfg.save(os.path.join(directory, CONFIG_FILE))
    for name, vocab in ((VOCAB_FILE, model.vocab), (KEY_VOCAB_FILE, model.encoder.key_vocab)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(vocab.to_json(), fh)


class _Placeholders:
    """The generator a loading model is built with: every weight it draws is zeros,
    which load_checkpoint replaces, so loading draws no random numbers."""

    @staticmethod
    def uniform(low: float, high: float, size) -> np.ndarray:
        return np.zeros(size)


def _load_dir(directory: str, model_class):
    """model_class(rng, vocab, key_vocab, cfg) from a checkpoint directory, its weights loaded."""
    cfg = RunConfig.from_file(os.path.join(directory, CONFIG_FILE))
    vocabs = []
    for name in (VOCAB_FILE, KEY_VOCAB_FILE):
        path = os.path.join(directory, name)
        tokens = read_json(path)
        try:
            vocabs.append(Vocabulary.from_json(tokens))
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
    model = model_class(_Placeholders(), *vocabs, cfg)
    load_checkpoint(directory, model)
    return model, cfg


def load_pointer_dir(directory: str) -> tuple[SkeletonPointer, RunConfig]:
    return _load_dir(directory, SkeletonPointer)


def load_editor_dir(directory: str) -> tuple[EditRealizer, RunConfig]:
    return _load_dir(directory, EditRealizer)
