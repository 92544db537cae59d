"""Skeleton annotation: project a reference onto the tokens it shares with the table."""

from __future__ import annotations

from .data import Corpus, StopWordList, Table


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
