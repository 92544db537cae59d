"""BLEU / PARENT / PARENT-T against independent hand-rolled calculators."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from skeltext.data import Attribute, Example, Table
from skeltext.metrics import _entailment, bleu, evaluate_outputs, ngram_counts, parent, parent_t

from helpers import random_table, random_tokens


from metric_refs import geo as _geo
from metric_refs import grams as _grams
from metric_refs import ref_bleu, ref_parent, ref_parent_t

FIXTURE_TABLE = Table((Attribute("K", ("a", "b")),))


# -- bleu ----------------------------------------------------------------------

def test_bleu_perfect_match_is_100():
    hyps = [["x"], ["a", "b", "c"], ["one", "two", "three", "four", "five"]]
    assert bleu(hyps, [list(h) for h in hyps]) == pytest.approx(100.0, abs=1e-9)


def test_bleu_disjoint_unigrams_is_zero():
    assert bleu([["x", "y"]], [["a", "b"]]) == 0.0


def test_bleu_cat_sat_fixture():
    value = bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    assert value == pytest.approx(ref_bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]]), abs=1e-12)
    assert value == pytest.approx(100.0 * math.exp(1.0 - 4.0 / 3.0), abs=1e-9)
    assert value == pytest.approx(71.65313105737893, abs=1e-9)


def test_bleu_empty_hypothesis_set_is_error():
    with pytest.raises(ValueError):
        bleu([], [])


def test_bleu_count_mismatch_is_error():
    with pytest.raises(ValueError):
        bleu([["a"]], [["a"], ["b"]])


def test_bleu_empty_hypotheses_score_zero():
    assert bleu([[]], [["a", "b"]]) == 0.0


def test_bleu_matches_reference_on_random_corpora():
    # To the bit, and so does the report's BLEU, which reuses PARENT's n-gram
    # counts: the counts are integers, so every float operation is the reference's.
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        hyps = [random_tokens(rng, 6) for _ in range(n)]
        refs = [random_tokens(rng, 6) for _ in range(n)]
        want = ref_bleu(hyps, refs)
        assert bleu(hyps, refs) == want
        corpus = [Example(random_table(rng), tuple(ref)) for ref in refs]
        assert evaluate_outputs(hyps, corpus).bleu == want


# -- entailment weight -----------------------------------------------------------

def test_table_entailment_weight_ratios():
    values = FIXTURE_TABLE.value_token_set()
    assert _entailment(("a", "b"), values) == 1.0
    assert _entailment(("x", "y"), values) == 0.0
    assert _entailment(("a", "x"), values) == 0.5
    assert _entailment((), values) == 0.0


# -- parent / parent-t ------------------------------------------------------------

def test_parent_fixture_hand_derived():
    got = parent(["a"], ["a", "b"], FIXTURE_TABLE)
    want = ref_parent(["a"], ["a", "b"], {"a", "b"}, [["a", "b"]])
    assert got == pytest.approx(want, abs=1e-9)
    # frozen: precision 1 (unigram entailed, higher orders neutral),
    # recall 0 (no hypothesis bigram kills reference recall), f1 0
    assert got == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)


def test_parent_t_fixture_hand_derived():
    got = parent_t(["a"], FIXTURE_TABLE)
    want = ref_parent_t(["a"], {"a", "b"}, [["a", "b"]])
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx((1.0, 0.5, 2.0 / 3.0), abs=1e-9)


def test_parent_identity_full_coverage():
    table = Table((Attribute("K", ("a", "b")), Attribute("J", ("c",))))
    hyp = ["a", "b", "c"]
    p, r, f = parent(hyp, hyp, table)
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(1.0)
    assert f == pytest.approx(1.0)


def test_parent_empty_hypothesis_precision_zero_recall_normal():
    p, r, f = parent([], ["a", "b"], FIXTURE_TABLE)
    assert p == 0.0
    assert f == 0.0
    want = ref_parent([], ["a", "b"], {"a", "b"}, [["a", "b"]])
    assert (p, r, f) == pytest.approx(want, abs=1e-12)


def test_parent_out_of_table_hypothesis_has_zero_parent_t_precision():
    p, r, f = parent_t(["zz", "qq"], FIXTURE_TABLE)
    assert p == 0.0 and f == 0.0


def test_parent_t_recall_one_when_values_contiguous():
    table = Table((Attribute("K", ("a", "b")), Attribute("J", ("c",))))
    hyp = ["x", "a", "b", "y", "c"]
    _, r, _ = parent_t(hyp, table)
    assert r == pytest.approx(1.0)


def test_parent_t_recall_monotone_in_value_coverage():
    rng = np.random.default_rng(1)
    for _ in range(50):
        table = random_table(rng)
        hyp = random_tokens(rng, 6)
        _, r0, _ = parent_t(hyp, table)
        extended = list(hyp)
        for attr in table.attributes:
            extended.extend(attr.value_tokens)
            _, r1, _ = parent_t(extended, table)
            assert r1 >= r0 - 1e-12
            r0 = r1
        assert r0 == pytest.approx(1.0)


def test_parent_precision_reduces_to_reference_matching_without_table_overlap():
    # table disjoint from hyp and ref: w == 0 everywhere, so precision is
    # plain clipped n-gram precision against the reference.
    table = Table((Attribute("K", ("zzz",)),))
    hyp = ["a", "b", "a"]
    ref = ["a", "b"]
    p, _, _ = parent(hyp, ref, table)
    per = []
    for n in range(1, 5):
        hc, rc = _grams(hyp, n), _grams(ref, n)
        total = sum(hc.values())
        per.append(1.0 if total == 0 else sum(min(c, rc[g]) for g, c in hc.items()) / total)
    assert p == pytest.approx(_geo(per), abs=1e-12)


def test_metric_ranges_randomized():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        table = random_table(rng)
        hyp = random_tokens(rng, 8)
        ref = random_tokens(rng, 8)
        for value in (*parent(hyp, ref, table), *parent_t(hyp, table)):
            assert 0.0 <= value <= 1.0
        assert 0.0 <= bleu([hyp], [ref]) <= 100.0


def test_parent_matches_reference_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(300):
        table = random_table(rng)
        values = set(table.value_token_set())
        attr_values = [list(a.value_tokens) for a in table.attributes]
        hyp = random_tokens(rng, 7)
        ref = random_tokens(rng, 7)
        assert parent(hyp, ref, table) == pytest.approx(
            ref_parent(hyp, ref, values, attr_values), abs=1e-12
        )
        assert parent_t(hyp, table) == pytest.approx(
            ref_parent_t(hyp, values, attr_values), abs=1e-12
        )


# -- corpus report -----------------------------------------------------------------

def test_report_f1_is_harmonic_mean_of_corpus_means():
    rng = np.random.default_rng(4)
    corpus = []
    hyps = []
    for _ in range(10):
        table = random_table(rng)
        ref = random_tokens(rng, 6) or ["x"]
        corpus.append(Example(table, tuple(ref)))
        hyps.append(random_tokens(rng, 6))
    report = evaluate_outputs(hyps, corpus)
    for p, r, f in (
        (report.parent_precision, report.parent_recall, report.parent_f1),
        (report.parent_t_precision, report.parent_t_recall, report.parent_t_f1),
    ):
        want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert f == pytest.approx(want, abs=1e-12)
    assert len(report.per_example) == 10
    for metric in ("parent", "parent_t"):
        for part in ("precision", "recall"):
            mean = sum(entry[metric][part] for entry in report.per_example) / 10
            assert getattr(report, f"{metric}_{part}") == mean
    assert 0.0 <= report.bleu <= 100.0
    for entry in report.per_example:
        for block in (entry["parent"], entry["parent_t"]):
            assert 0.0 <= block["precision"] <= 1.0
            assert 0.0 <= block["recall"] <= 1.0


def test_report_count_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate_outputs([["a"]], [])


def test_report_on_an_empty_corpus_is_a_named_error():
    # Corpus means divide by the example count, so an empty corpus must be
    # refused before any of them (it used to raise ZeroDivisionError).
    with pytest.raises(ValueError, match="at least one gold example"):
        evaluate_outputs([], [])


def test_ngram_counts_basic():
    assert ngram_counts(["a", "b", "a"], 1) == Counter({("a",): 2, ("b",): 1})
    assert ngram_counts(["a", "b", "a"], 2) == Counter({("a", "b"): 1, ("b", "a"): 1})
    assert ngram_counts(["a"], 2) == Counter()
