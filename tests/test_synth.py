"""Synthetic corpus: determinism, shape, and faithfulness guarantees."""

from __future__ import annotations

import io

import pytest

from skeltext.data import write_corpus
from skeltext.skeleton import annotate_skeleton, default_stop_words
from skeltext.synth import FUNCTION_WORDS, TemplateSpec, generate, generate_example


def _dump(corpus) -> str:
    buf = io.StringIO()
    write_corpus(corpus, buf)
    return buf.getvalue()


def test_same_spec_and_seed_byte_identical():
    a = generate(TemplateSpec(seed=5), 40)
    b = generate(TemplateSpec(seed=5), 40)
    assert _dump(a) == _dump(b)


def test_different_seeds_differ():
    a = generate(TemplateSpec(seed=5), 40)
    b = generate(TemplateSpec(seed=6), 40)
    assert _dump(a) != _dump(b)


def test_generation_is_pure_per_index():
    spec = TemplateSpec(seed=9)
    corpus = generate(spec, 30)
    assert generate_example(spec, 17) == corpus[17]


def test_attribute_counts_in_range():
    corpus = generate(TemplateSpec(seed=0), 200)
    counts = {len(ex.table.attributes) for ex in corpus}
    assert min(counts) >= 4 and max(counts) <= 8
    assert 4 in counts and 8 in counts  # both extremes occur at n=200


def test_sentence_template_counts_in_range():
    corpus = generate(TemplateSpec(seed=0), 200)
    for ex in corpus:
        sentences = ex.reference.count(".")
        assert 2 <= sentences <= 4


def test_references_are_faithful_by_construction():
    corpus = generate(TemplateSpec(seed=0), 200)
    stop = default_stop_words()
    for ex in corpus:
        values = ex.table.value_token_set()
        for tok in ex.reference:
            assert tok in values or tok in stop or tok in FUNCTION_WORDS, tok


def test_every_reference_yields_nonempty_skeleton():
    corpus = generate(TemplateSpec(seed=0), 200)
    stop = default_stop_words()
    for ex in corpus:
        skel = annotate_skeleton(ex.table, ex.reference, stop)
        assert skel
        # mandatory attribute tokens survive into the skeleton
        assert ex.table.attributes[0].value_tokens[0] in skel


def test_default_corpus_vocabulary_scale():
    corpus = generate(TemplateSpec(seed=0), 200)
    distinct = {t for ex in corpus for t in ex.reference}
    distinct |= {t for ex in corpus for t in ex.table.value_token_set()}
    assert 150 <= len(distinct) <= 450


def test_stop_words_interleaved_in_references():
    corpus = generate(TemplateSpec(seed=0), 50)
    stop = default_stop_words()
    for ex in corpus:
        assert any(tok in stop for tok in ex.reference)


def test_n_must_be_positive():
    with pytest.raises(ValueError):
        generate(TemplateSpec(seed=0), 0)
