"""Corpus metrics: BLEU-4 and the table-aware PARENT / PARENT-T scores."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .data import Corpus, Table
from .oracle import lcs_length, match_masks

Tokens = Sequence[str]
Grams = list[Counter]  # n-gram counts of each order 1..MAX_ORDER (_orders)
Scores = tuple[float, float, float]  # precision, recall, f1

MAX_ORDER = 4


def ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _orders(tokens: Tokens) -> Grams:
    return [ngram_counts(tokens, n) for n in range(1, MAX_ORDER + 1)]


def bleu(hypotheses: list[Tokens], references: list[Tokens]) -> float:
    """Corpus BLEU-4 with brevity penalty; n >= 2 precisions are add-one smoothed."""
    if not hypotheses:
        raise ValueError("bleu needs at least one hypothesis")
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    stats = [_bleu_stats(_orders(h), _orders(r)) for h, r in zip(hypotheses, references)]
    return _bleu([sum(column) for column in zip(*stats)])


def _bleu_stats(hyp: Grams, ref: Grams) -> list[int]:
    """One pair's BLEU counts: both lengths, then the matched and total n-grams of each order."""
    stats = [sum(hyp[0].values()), sum(ref[0].values())]
    for hyp_counts, ref_counts in zip(hyp, ref):
        stats.append(sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()))
        stats.append(sum(hyp_counts.values()))
    return stats


def _bleu(stats: list[int]) -> float:
    """bleu from the sum of every pair's _bleu_stats."""
    hyp_len, ref_len = stats[0], stats[1]
    if hyp_len == 0:
        return 0.0
    log_precision = 0.0
    for n in range(MAX_ORDER):  # order n + 1
        matched, total = stats[2 + 2 * n], stats[3 + 2 * n]
        if n > 0:
            matched += 1
            total += 1
        if matched == 0:
            return 0.0
        log_precision += math.log(matched / total)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision / MAX_ORDER)


def _entailment(ngram: Tokens, values: frozenset[str]) -> float:
    """Fraction of the n-gram's tokens among a table's value tokens, built once by the caller."""
    if not ngram:
        return 0.0
    return sum(1 for tok in ngram if tok in values) / len(ngram)


def _geometric_mean(values: list[float]) -> float:
    if any(v == 0.0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _entailed_precision(hyp: Grams, ref: Grams | None, values: frozenset[str]) -> float:
    """Geometric mean over n of entailment-weighted clipped n-gram precision.

    With a reference, each hypothesis n-gram scores max(reference match,
    entailment weight); reference matches are count-clipped. Orders where
    the hypothesis has no n-grams contribute a neutral 1. Empty hypotheses
    score 0 outright.
    """
    if not hyp[0]:
        return 0.0
    per_order: list[float] = []
    for n, hyp_counts in enumerate(hyp):
        total = sum(hyp_counts.values())
        if total == 0:
            per_order.append(1.0)
            continue
        ref_counts = ref[n] if ref is not None else Counter()
        score = 0.0
        for gram, count in hyp_counts.items():
            w = _entailment(gram, values)
            matched = min(count, ref_counts[gram])
            score += matched * max(1.0, w) + (count - matched) * w
        per_order.append(score / total)
    return _geometric_mean(per_order)


def _reference_recall(hyp: Grams, ref: Grams, values: frozenset[str]) -> float:
    """Entailment-weighted recall of reference n-grams, geometric over n."""
    per_order: list[float] = []
    for hyp_counts, ref_counts in zip(hyp, ref):
        numer = denom = 0.0
        for gram, count in ref_counts.items():
            w = _entailment(gram, values)
            denom += count * w
            numer += min(count, hyp_counts[gram]) * w
        per_order.append(1.0 if denom == 0.0 else numer / denom)
    return _geometric_mean(per_order)


def _table_recall(hyp: Tokens, table: Table) -> float:
    """Mean per-attribute LCS coverage of the value tokens by the hypothesis."""
    masks = match_masks(hyp)
    ratios = [
        lcs_length(attr.value_tokens, masks, len(hyp)) / len(attr.value_tokens)
        for attr in table.attributes
    ]
    return sum(ratios) / len(ratios)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def parent(hyp: Tokens, ref: Tokens, table: Table, lambda_mix: float = 0.5) -> Scores:
    """PARENT (precision, recall, f1) for one example.

    Recall blends reference recall and table recall geometrically with
    exponents lambda_mix and 1 - lambda_mix.
    """
    values = table.value_token_set()
    return _parent(_orders(hyp), _orders(ref), _table_recall(hyp, table), values, lambda_mix)


def _parent(hyp: Grams, ref: Grams, r_tab: float, values: frozenset[str], mix: float) -> Scores:
    """parent from the n-gram counts and the table recall, built once by the caller."""
    precision = _entailed_precision(hyp, ref, values)
    recall = (_reference_recall(hyp, ref, values) ** mix) * (r_tab ** (1.0 - mix))
    return precision, recall, _f1(precision, recall)


def parent_t(hyp: Tokens, table: Table) -> Scores:
    """Table-only PARENT variant: entailment precision and LCS table recall."""
    return _parent_t(_orders(hyp), _table_recall(hyp, table), table.value_token_set())


def _parent_t(hyp: Grams, recall: float, values: frozenset[str]) -> Scores:
    """parent_t from the n-gram counts and the table recall, built once by the caller."""
    precision = _entailed_precision(hyp, None, values)
    return precision, recall, _f1(precision, recall)


@dataclass
class MetricReport:
    bleu: float
    parent_precision: float
    parent_recall: float
    parent_f1: float
    parent_t_precision: float
    parent_t_recall: float
    parent_t_f1: float
    per_example: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "bleu": self.bleu,
            "parent": {
                "precision": self.parent_precision,
                "recall": self.parent_recall,
                "f1": self.parent_f1,
            },
            "parent_t": {
                "precision": self.parent_t_precision,
                "recall": self.parent_t_recall,
                "f1": self.parent_t_f1,
            },
            "per_example": self.per_example,
        }


def evaluate_outputs(
    hypotheses: list[Tokens], corpus: Corpus, lambda_mix: float = 0.5
) -> MetricReport:
    """Score system outputs against a gold corpus (one hypothesis per example)."""
    if len(hypotheses) != len(corpus):
        raise ValueError(f"{len(hypotheses)} hypotheses for {len(corpus)} gold examples")
    if not corpus:
        raise ValueError("evaluate_outputs needs at least one gold example, got an empty corpus")
    per_example = []
    sums = [0.0] * 4
    bleu_stats = [0] * (2 + 2 * MAX_ORDER)
    for hyp, ex in zip(hypotheses, corpus):
        hyp_grams, ref_grams = _orders(hyp), _orders(ex.reference)  # for BLEU and PARENT alike
        bleu_stats = [a + b for a, b in zip(bleu_stats, _bleu_stats(hyp_grams, ref_grams))]
        values, r_tab = ex.table.value_token_set(), _table_recall(hyp, ex.table)
        p, r, f = _parent(hyp_grams, ref_grams, r_tab, values, lambda_mix)
        tp, tr, tf = _parent_t(hyp_grams, r_tab, values)
        per_example.append(
            {
                "parent": {"precision": p, "recall": r, "f1": f},
                "parent_t": {"precision": tp, "recall": tr, "f1": tf},
            }
        )
        for i, v in enumerate((p, r, tp, tr)):
            sums[i] += v
    n = len(corpus)
    means = [s / n for s in sums]
    return MetricReport(
        bleu=_bleu(bleu_stats),
        parent_precision=means[0],
        parent_recall=means[1],
        parent_f1=_f1(means[0], means[1]),
        parent_t_precision=means[2],
        parent_t_recall=means[3],
        parent_t_f1=_f1(means[2], means[3]),
        per_example=per_example,
    )
