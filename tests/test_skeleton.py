"""Skeleton annotation semantics and invariants."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeltext.data import Attribute, Example, Table, write_corpus
from skeltext.oracle import is_subsequence
from skeltext.skeleton import StopWordList, annotate_corpus, annotate_skeleton, default_stop_words
from skeltext.synth import TemplateSpec, generate

from helpers import random_table, random_tokens


def _table(*values: str) -> Table:
    return Table(tuple(Attribute(f"K{i}", tuple(v.split())) for i, v in enumerate(values)))


def test_stop_word_list_case_insensitive():
    sw = StopWordList(["The", "of"])
    assert "the" in sw
    assert "THE" in sw
    assert "Of" in sw
    assert "cat" not in sw


def test_stop_word_list_numeric_tokens_never_match():
    sw = StopWordList(["1908", "8", "the"])
    assert "1908" not in sw
    assert "8" not in sw
    assert "the" in sw


_STOP_CHARS = st.sampled_from("aAeEnNdDtT2819-İ")  # "İ".lower() is two characters


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(_STOP_CHARS, min_size=1, max_size=4), max_size=6),
       st.text(_STOP_CHARS, max_size=4))
@example(["2nd", "the"], "2ND")
@example(["the"], "The")
def test_stop_word_membership_is_a_lowercase_match_of_a_token_without_a_digit(words, token):
    expected = False if any(ch.isdigit() for ch in token) else token.lower() in {
        w.lower() for w in words}
    assert (token in StopWordList(words)) is expected


def test_selects_table_tokens_and_skips_stop_words():
    table = _table("Thaila Ayala", "London")
    stop = StopWordList(["she", "was", "in"])
    ref = ["she", "was", "born", "in", "London"]
    assert annotate_skeleton(table, ref, stop) == ["London"]


def test_empty_overlap_gives_empty_skeleton():
    table = _table("Thaila Ayala")
    assert annotate_skeleton(table, ["no", "shared", "tokens"], StopWordList([])) == []


def test_duplicate_reference_positions_duplicate_entries():
    table = _table("London")
    stop = StopWordList(["and"])
    assert annotate_skeleton(table, ["London", "and", "London"], stop) == ["London", "London"]


def test_matching_is_case_sensitive_against_table():
    table = _table("London")
    assert annotate_skeleton(table, ["london"], StopWordList([])) == []
    assert annotate_skeleton(table, ["London"], StopWordList([])) == ["London"]


def test_stop_word_match_is_case_insensitive():
    table = _table("The")
    assert annotate_skeleton(table, ["The"], StopWordList(["the"])) == []


def test_numeric_table_tokens_survive_stop_listing():
    table = _table("8 November 1908")
    stop = StopWordList(["8", "1908", "november"])
    assert annotate_skeleton(table, ["8", "November", "1908"], stop) == ["8", "1908"]


def test_skeleton_is_subsequence_of_reference():
    rng = np.random.default_rng(7)
    stop = default_stop_words()
    for _ in range(300):
        table = random_table(rng)
        ref = random_tokens(rng, max_len=12)
        skel = annotate_skeleton(table, ref, stop)
        assert is_subsequence(skel, ref)


def test_skeleton_multiset_bounded_by_matching_positions():
    rng = np.random.default_rng(8)
    stop = default_stop_words()
    for _ in range(300):
        table = random_table(rng)
        values = table.value_token_set()
        ref = random_tokens(rng, max_len=12)
        skel = annotate_skeleton(table, ref, stop)
        matching = [t for t in ref if t in values]
        # each skeleton token consumes one matching reference position
        for tok in set(skel):
            assert skel.count(tok) <= matching.count(tok)
            assert tok in values


def test_empty_stop_list_yields_superset():
    rng = np.random.default_rng(9)
    stop = default_stop_words()
    none = StopWordList([])
    for _ in range(200):
        table = random_table(rng)
        ref = random_tokens(rng, max_len=12)
        with_stop = annotate_skeleton(table, ref, stop)
        without = annotate_skeleton(table, ref, none)
        assert is_subsequence(with_stop, without)
        assert len(without) >= len(with_stop)


def test_deterministic():
    rng = np.random.default_rng(10)
    stop = default_stop_words()
    for _ in range(50):
        table = random_table(rng)
        ref = random_tokens(rng, max_len=10)
        assert annotate_skeleton(table, ref, stop) == annotate_skeleton(table, ref, stop)


# Mixed case, numeric tokens, and a stop list holding "2nd", a word with a digit.
_HAND_MADE = [
    Example(_table("Alda Fenwick", "2nd", "8 November 1908", "The Rovers"),
            "Alda Fenwick finished 2nd on 8 November 1908 with The Rovers and the rovers .".split()),
    Example(_table("Ode", "2nd 2ND"), ("The", "2nd", "ode", "Ode", "2ND")),
    Example(_table("x"), ("y",)),
]
_HAND_MADE_STOP = StopWordList(["2nd", "the", "November", "on", "WITH"])


def _lines(corpus) -> str:
    buf = io.StringIO()
    write_corpus(corpus, buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "corpus,stop",
    [*((generate(TemplateSpec(seed=s), 40), default_stop_words()) for s in range(3)),
     (_HAND_MADE, _HAND_MADE_STOP)],
    ids=["synth0", "synth1", "synth2", "hand_made"],
)
def test_an_annotated_copy_equals_the_example_its_constructor_builds(corpus, stop):
    got = annotate_corpus(corpus, stop)
    want = [Example(ex.table, ex.reference, annotate_skeleton(ex.table, ex.reference, stop))
            for ex in corpus]
    assert got == want
    assert [hash(ex) for ex in got] == [hash(ex) for ex in want]
    assert _lines(got) == _lines(want)
    assert all(ex.skeleton is None for ex in corpus)  # a copy; the input keeps no skeleton


def test_the_hand_made_skeletons():
    skeletons = [ex.skeleton for ex in annotate_corpus(_HAND_MADE, _HAND_MADE_STOP)]
    assert skeletons == [("Alda", "Fenwick", "2nd", "8", "1908", "Rovers"), ("2nd", "Ode", "2ND"),
                         ()]
