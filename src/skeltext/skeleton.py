"""Skeleton annotation: project a reference onto the tokens it shares with the table."""

from __future__ import annotations

from typing import Iterable

from .data import Corpus, Table, open_text, utf8_problem

DEFAULT_STOP_WORDS = (
    "a an the this that these those some any each every either neither "
    "i you he she it we they me him her us them my your his its our their "
    "mine yours hers ours theirs myself yourself himself herself itself "
    "ourselves themselves who whom whose which what "
    "is am are was were be been being do does did done doing have has had "
    "having will would shall should can could may might must ought "
    "not no nor never n't "
    "and or but if then else when while because although though since so "
    "than as unless until whether yet both also too very just only even "
    "of in on at by for with about against between into through during "
    "before after above below to from up down out off over under again "
    "further here there where why how all more most other such own same "
    "few once per via upon within without across along among around "
    "behind beneath beside besides beyond despite except inside like near "
    "onto outside toward towards underneath "
    "'s 're 've 'll 'd 'm . , ; : ! ? ( ) \" ' - --"
).split()


class StopWordList:
    """Case-insensitive stop-word membership; a token holding a digit (a date,
    a count, a year) never matches."""

    def __init__(self, words: Iterable[str]):
        self._words = frozenset(w.lower() for w in words)

    def __contains__(self, token: str) -> bool:
        # The lookup first: only a token it finds pays for the digit scan.
        return token.lower() in self._words and not any(ch.isdigit() for ch in token)

    @classmethod
    def from_file(cls, path) -> "StopWordList":
        """One word per non-blank line; a line that is not UTF-8 text is a ValueError naming it."""
        words = []
        with open_text(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                problem = utf8_problem(line)
                if problem:
                    raise ValueError(f"{path} line {line_no}: {problem}")
                if line.strip():
                    words.append(line.strip())
        return cls(words)


def default_stop_words() -> StopWordList:
    return StopWordList(DEFAULT_STOP_WORDS)


def annotate_skeleton(
    table: Table, reference: list[str] | tuple[str, ...], stopwords: StopWordList
) -> list[str]:
    """Collect reference tokens that occur in the table values and are not stop words.

    Walks the reference left to right and appends every token that matches
    (case-sensitively) any value token of the table, unless the stop-word
    list claims it. Repeated matches yield repeated skeleton entries, so the
    skeleton is always a subsequence of the reference.
    """
    value_tokens = table.value_token_set()
    return [tok for tok in reference if tok in value_tokens and tok not in stopwords]


def annotate_corpus(corpus: Corpus, stopwords: StopWordList) -> Corpus:
    """Return a copy of the corpus with skeleton fields filled in."""
    return [
        ex._annotated(tuple(annotate_skeleton(ex.table, ex.reference, stopwords)))
        for ex in corpus
    ]
