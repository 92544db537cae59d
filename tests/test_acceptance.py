"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The suite trains both
stages on the 200-example synthetic corpus (and repeats the run for the
determinism criterion), so expect roughly ten to fifteen minutes end to end.
"""

from __future__ import annotations

import itertools
import json
import os
import time

import numpy as np
import pytest

from skeltext import decoding
from skeltext.cli import main as cli_main
from skeltext.data import (
    Attribute,
    EOS_TOKEN,
    BOS_TOKEN,
    Table,
    load_corpus,
    tokenize,
)
from skeltext.gradcheck import TOLERANCE, run_gradcheck
from skeltext.metrics import bleu, evaluate_outputs, parent, parent_t
from skeltext.nn import TransformerDecoder
from skeltext.oracle import (
    is_subsequence,
    lcs,
    levenshtein_distance,
    oracle_deletion,
    oracle_insertion,
    KEEP,
)
from skeltext.skeleton import StopWordList, annotate_skeleton
from skeltext.training import load_editor_dir

from helpers import all_value_tokens, random_table, random_tokens, tiny_editor
from metric_refs import ref_bleu, ref_parent, ref_parent_t

ABC = ("a", "b", "c")
MAX_LEN = 6

_CACHE: dict = {}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


# -- shared universe over a 3-symbol alphabet, lengths <= 6 -------------------

def _universe():
    if "seqs" not in _CACHE:
        seqs = [tuple(s) for L in range(MAX_LEN + 1) for s in itertools.product(ABC, repeat=L)]
        _CACHE["seqs"] = seqs
        _CACHE["index"] = {s: i for i, s in enumerate(seqs)}
    return _CACHE["seqs"], _CACHE["index"]


def _pair_dp_matrix(substitutions: bool) -> np.ndarray:
    """All-pairs distance via a numpy-vectorized DP, independent of the library.

    With substitutions it is the Levenshtein distance, without them the
    insertion/deletion-only distance.
    """
    seqs, _ = _universe()
    n = len(seqs)
    codes = np.zeros((n, MAX_LEN), dtype=np.int8)
    lens = np.array([len(s) for s in seqs], dtype=np.int16)
    for i, s in enumerate(seqs):
        for j, ch in enumerate(s):
            codes[i, j] = ord(ch) - 96
    la, lb = lens[:, None], lens[None, :]
    big = np.int16(100)
    rows = [np.full((n, n), j, dtype=np.int16) for j in range(MAX_LEN + 1)]
    result = np.zeros((n, n), dtype=np.int16)
    for j in range(MAX_LEN + 1):
        m = (la == 0) & (lb == j)
        result[m] = rows[j][m]
    for i in range(1, MAX_LEN + 1):
        new = [np.full((n, n), i, dtype=np.int16)]
        ai = codes[:, i - 1][:, None]
        for j in range(1, MAX_LEN + 1):
            same = ai == codes[:, j - 1][None, :]
            diag = rows[j - 1] + np.where(same, 0, 1 if substitutions else big)
            new.append(np.minimum(np.minimum(rows[j] + 1, new[j - 1] + 1), diag))
        rows = new
        for j in range(MAX_LEN + 1):
            m = (la == i) & (lb == j)
            result[m] = rows[j][m]
    return result


def _indep_lev_matrix() -> np.ndarray:
    if "indep_lev" not in _CACHE:
        _CACHE["indep_lev"] = _pair_dp_matrix(substitutions=True)
    return _CACHE["indep_lev"]


def _subset_ids() -> list[np.ndarray]:
    """Distinct deletion-subset sequences of each universe member, as indices."""
    if "subsets" not in _CACHE:
        seqs, index = _universe()
        out = []
        for s in seqs:
            subs = {tuple(s[i] for i in range(len(s)) if mask >> i & 1) for mask in range(1 << len(s))}
            out.append(np.array(sorted(index[t] for t in subs), dtype=np.int32))
        _CACHE["subsets"] = out
    return _CACHE["subsets"]


# -- criterion 1: gradient correctness ----------------------------------------

def test_acceptance_1_gradient_correctness():
    t0 = time.perf_counter()
    results = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err in results)
    failures = [name for name, err in results if not err < TOLERANCE]
    names = {name for name, _ in results}
    assert {"pointer_model_loss", "editor_model_loss"} <= names  # both full models
    ok = not failures and elapsed < 60.0
    _report(
        1, "gradient correctness", ok,
        f"{len(results)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 2: edit-oracle optimality ---------------------------------------

def test_acceptance_2_edit_oracle_optimality():
    t0 = time.perf_counter()
    seqs, index = _universe()
    n = len(seqs)
    indep = _indep_lev_matrix()
    subsets = _subset_ids()

    # insertion: rebuilding the target exactly from every subsequence source
    insertion_failures = 0
    insertion_cases = 0
    for b_idx, b in enumerate(seqs):
        for s_idx in subsets[b_idx]:
            source = seqs[s_idx]
            counts, fills = oracle_insertion(source, b)
            rebuilt: list[str] = []
            for k, tok in enumerate(source):
                rebuilt.extend(fills[k])
                rebuilt.append(tok)
            rebuilt.extend(fills[-1])
            insertion_cases += 1
            if tuple(rebuilt) != b:
                insertion_failures += 1
    # a reconstruction has distance zero, the brute-force minimum by definition

    # deletion: achieved distance equals the brute-force subset minimum
    deletion_failures = 0
    kept_len = np.zeros((n, n), dtype=np.int16)
    achieved = np.zeros((n, n), dtype=np.int16)
    for a_idx, a in enumerate(seqs):
        for b_idx, b in enumerate(seqs):
            labels = oracle_deletion(a, b)
            kept = tuple(t for t, d in zip(a, labels) if d == KEEP)
            kept_len[a_idx, b_idx] = len(kept)
            achieved[a_idx, b_idx] = indep[index[kept], b_idx]
    brute = np.empty((n, n), dtype=np.int16)
    for a_idx in range(n):
        brute[a_idx] = indep[subsets[a_idx], :].min(axis=0)
    deletion_failures = int((achieved != brute).sum())
    _CACHE["our_lcs_len"] = kept_len

    elapsed = time.perf_counter() - t0
    ok = insertion_failures == 0 and deletion_failures == 0 and elapsed < 120.0
    _report(
        2, "edit-oracle optimality", ok,
        f"{insertion_cases} insertion cases, {n * n} deletion pairs, "
        f"{insertion_failures + deletion_failures} failures, {elapsed:.1f}s",
    )


# -- criterion 3: levenshtein / lcs identities -----------------------------------

def _bfs_edit_script_matrix() -> np.ndarray:
    """Shortest edit scripts by breadth-first search over single-token edits.

    Optimal scripts can be ordered deletions, then substitutions, then
    insertions, so intermediate sequences never exceed max(|a|, |b|) <= 6
    and the bounded universe contains every state an optimal script visits.
    """
    seqs, index = _universe()
    n = len(seqs)
    neighbors: list[np.ndarray] = []
    for s in seqs:
        adjacent = set()
        for i in range(len(s)):
            adjacent.add(s[:i] + s[i + 1 :])
            for c in ABC:
                if c != s[i]:
                    adjacent.add(s[:i] + (c,) + s[i + 1 :])
        if len(s) < MAX_LEN:
            for i in range(len(s) + 1):
                for c in ABC:
                    adjacent.add(s[:i] + (c,) + s[i:])
        adjacent.discard(s)
        neighbors.append(np.array(sorted(index[t] for t in adjacent), dtype=np.int32))
    dist = np.full((n, n), -1, dtype=np.int16)
    for src in range(n):
        row = dist[src]
        row[src] = 0
        frontier = np.array([src], dtype=np.int32)
        depth = 0
        while frontier.size:
            depth += 1
            candidates = np.unique(np.concatenate([neighbors[u] for u in frontier]))
            fresh = candidates[row[candidates] < 0]
            row[fresh] = depth
            frontier = fresh
    return dist


def test_acceptance_3_levenshtein_lcs_identities():
    t0 = time.perf_counter()
    seqs, index = _universe()
    n = len(seqs)

    ours = np.zeros((n, n), dtype=np.int16)
    for i, a in enumerate(seqs):
        for j, b in enumerate(seqs):
            ours[i, j] = levenshtein_distance(a, b)

    script_search = _bfs_edit_script_matrix()
    lev_failures = int((ours != script_search).sum())
    dp_failures = int((ours != _indep_lev_matrix()).sum())

    if "our_lcs_len" in _CACHE:
        lcs_lengths = _CACHE["our_lcs_len"]
    else:
        lcs_lengths = np.zeros((n, n), dtype=np.int16)
        for i, a in enumerate(seqs):
            for j, b in enumerate(seqs):
                lcs_lengths[i, j] = len(lcs(a, b))
    lens = np.array([len(s) for s in seqs], dtype=np.int16)
    indel = _pair_dp_matrix(substitutions=False)
    identity_failures = int(
        ((lens[:, None] + lens[None, :] - 2 * lcs_lengths) != indel).sum()
    )

    elapsed = time.perf_counter() - t0
    ok = lev_failures == 0 and dp_failures == 0 and identity_failures == 0
    _report(
        3, "levenshtein/lcs identities", ok,
        f"{n * n} pairs, failures: {lev_failures} vs script search, "
        f"{dp_failures} vs DP, {identity_failures} indel identity, {elapsed:.1f}s",
    )


# -- pipeline fixture (criteria 4, 6, 8) ------------------------------------------

def _run_pipeline(root: str, seed: int) -> dict:
    os.makedirs(root, exist_ok=True)
    paths = {
        "corpus": os.path.join(root, "corpus.jsonl"),
        "annotated": os.path.join(root, "annotated.jsonl"),
        "pointer": os.path.join(root, "pointer"),
        "editor": os.path.join(root, "editor"),
        "skeletons": os.path.join(root, "skeletons.jsonl"),
        "gen_oracle": os.path.join(root, "gen_oracle.jsonl"),
        "gen_pred": os.path.join(root, "gen_pred.jsonl"),
    }
    timings: dict[str, float] = {}

    def run(tag: str, argv: list[str]) -> None:
        t0 = time.perf_counter()
        code = cli_main(argv)
        timings[tag] = time.perf_counter() - t0
        assert code == 0, f"{tag} failed"

    seed_flag = ["--set", f"seed={seed}"]
    run("synth", ["synth-corpus", "--n", "200", "--seed", str(seed), "--out", paths["corpus"]])
    run("annotate", ["annotate", "--corpus", paths["corpus"], "--out", paths["annotated"]])
    run("train_pointer", ["train-pointer", "--corpus", paths["annotated"],
                          "--out-dir", paths["pointer"], *seed_flag])
    run("train_editor", ["train-editor", "--corpus", paths["annotated"],
                         "--out-dir", paths["editor"], *seed_flag])
    run("skeleton", ["skeleton", "--checkpoint", paths["pointer"],
                     "--corpus", paths["corpus"], "--out", paths["skeletons"]])
    run("gen_oracle", ["generate", "--editor", paths["editor"], "--corpus", paths["annotated"],
                       "--oracle-skeleton", "--out", paths["gen_oracle"]])
    # feeding the predicted-skeleton file back through --oracle-skeleton reuses
    # the stage-1 output without re-running beam search
    run("gen_pred", ["generate", "--editor", paths["editor"], "--corpus", paths["skeletons"],
                     "--oracle-skeleton", "--out", paths["gen_pred"]])
    paths["timings"] = timings
    paths["total_seconds"] = sum(timings.values())
    return paths


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_run1")
    return _run_pipeline(str(root), seed=0)


# -- criterion 4: hard-constraint preservation --------------------------------------

def test_acceptance_4_hard_constraint_preservation(pipeline):
    total = 0
    failures = []

    def check(skeleton, trace, final_tokens, max_iter):
        nonlocal total
        total += 1
        if trace.iterations > max_iter:
            failures.append("iteration overrun")
        for snap in trace.snapshots:
            if snap.tokens[0] != BOS_TOKEN or snap.tokens[-1] != EOS_TOKEN:
                failures.append("sentinel lost")
            if not is_subsequence(skeleton, snap.body()):
                failures.append("skeleton lost in snapshot")
        if not is_subsequence(skeleton, final_tokens):
            failures.append("skeleton lost in output")

    # trained weights: oracle and stage-1-predicted skeletons
    editor, cfg = load_editor_dir(pipeline["editor"])
    for corpus_path in (pipeline["annotated"], pipeline["skeletons"]):
        for ex in load_corpus(corpus_path):
            tokens, trace = decoding.iterate(
                editor, ex.table, list(ex.skeleton), max_iter=cfg.max_iter,
                max_state_len=cfg.max_state_len,
            )
            check(list(ex.skeleton), trace, tokens, cfg.max_iter)

    # random weights: many tiny models over random tables and skeletons
    rng = np.random.default_rng(99)
    for model_seed in range(30):
        model, _ = tiny_editor(seed=1000 + model_seed, k_max=2)
        for _ in range(20):
            table = random_table(rng)
            values = all_value_tokens(table)
            take = sorted(
                rng.choice(len(values), size=int(rng.integers(0, min(6, len(values)) + 1)),
                           replace=False)
            )
            skeleton = [values[i] for i in take]
            tokens, trace = decoding.iterate(model, table, skeleton, max_iter=3)
            check(skeleton, trace, tokens, 3)

    ok = total >= 1000 and not failures
    _report(
        4, "hard-constraint preservation", ok,
        f"{total} decodes, {len(failures)} violations",
    )


# -- criterion 5: skeleton annotator conformance -------------------------------------

def _transcribed_annotate(table: Table, reference, stop_words) -> list[str]:
    """Independent straight-line transcription of the annotation procedure."""
    value_tokens: list[str] = []
    for attribute in table.attributes:
        for token in attribute.value_tokens:
            value_tokens.append(token)
    stop_lower = {w.lower() for w in stop_words}
    skeleton: list[str] = []
    for token in reference:
        occurs_in_table = token in value_tokens
        numeric = any(ch.isdigit() for ch in token)
        is_stop = (not numeric) and (token.lower() in stop_lower)
        if occurs_in_table and not is_stop:
            skeleton.append(token)
    return skeleton


def _tbl(*pairs):
    return Table(tuple(Attribute(k, tuple(v.split())) for k, v in pairs))


ANNOTATOR_FIXTURES = [
    (_tbl(("Name_ID", "Thaila Ayala"), ("Place", "London")), "Thaila Ayala was born in London", ("was", "in")),
    (_tbl(("Name_ID", "Thaila Ayala")), "she lives in Paris", ("in",)),
    (_tbl(("Place", "London")), "London and London", ("and",)),
    (_tbl(("Place", "London")), "london is not London", ("is", "not")),
    (_tbl(("Date", "8 November 1908")), "born 8 November 1908", ("8", "1908", "november")),
    (_tbl(("Award", "Order of the Golden Reed")), "won the Order of the Golden Reed", ("of", "the")),
    (_tbl(("K", "x")), "", ()),
    (_tbl(("K", "x")), "x x x", ()),
    (_tbl(("K", "x y z")), "z y x", ()),
    (_tbl(("K", "a b"), ("J", "c")), "a b c", ("b",)),
    (_tbl(("K", "The")), "The the THE", ("the",)),
    (_tbl(("K", "42")), "42 42", ("42",)),
    (_tbl(("K", "O'Neil")), "O'Neil spoke", ()),
    (_tbl(("K", "New York"), ("J", "York New")), "New York", ()),
    (_tbl(("Name", "Aaron Miller")), "Aaron Miller ( born Aaron )", ("(", ")", "born")),
    (_tbl(("K", "a")), "a b a b a", ("b",)),
    (_tbl(("K", "hyphen-ated")), "a hyphen-ated word", ("a", "word")),
    (_tbl(("K", "x")), "X x X x", ()),
    (_tbl(("K", "1,000")), "paid 1,000 dollars", ("paid", "dollars", "1,000")),
    (_tbl(("K", "st. mary")), "st. mary st. mary", ()),
    (_tbl(("A", "p q"), ("B", "q r")), "p q r s", ()),
    (_tbl(("A", "p")), "p P p", ("p",)),
    (_tbl(("A", "m n o")), "o n m", ("n",)),
    (_tbl(("A", "tok")), "tok", ()),
    (_tbl(("A", "tok")), "tok .", (".",)),
    (_tbl(("A", "a b c d e f")), "f e d c b a", ("c", "d")),
    (_tbl(("A", "one"), ("B", "two"), ("C", "three")), "one two three", ("two",)),
    (_tbl(("A", "x")), "y z w", ()),
    (_tbl(("A", "É")), "É e", ()),
    (_tbl(("A", "x1")), "x1 marks", ("x1",)),
    (_tbl(("Name", "Emile Mbouh")), "Emile Mbouh Mbouh played", ("played",)),
    (_tbl(("Team", "Le Havre AC")), "He joined Le Havre AC .", ("he", ".",)),
    (_tbl(("K", "alpha beta")), "alpha gamma beta delta", ("gamma", "delta")),
    (_tbl(("K", "v")), "v v v v v v", ()),
    (_tbl(("K", "w")), "w", ("w",)),
    (_tbl(("K", "case")), "Case case CASE", ()),
    (_tbl(("K", "9")), "9 nine", ("nine", "9")),
    (_tbl(("K", "dot")), "dot . dot", (".",)),
    (_tbl(("A", "long value with stop")), "value with stop appears", ("with",)),
    (_tbl(("A", "a"), ("B", "b"), ("C", "c"), ("D", "d")), "d c b a", ()),
    (_tbl(("A", "rep")), "rep rep", ("rep",)),
    (_tbl(("A", "mix 3d")), "mix 3d mix", ("mix", "3d")),
    (_tbl(("A", "Ødegaard")), "Ødegaard scored", ("scored",)),
    (_tbl(("A", "semi;colon")), "semi;colon here", ("here",)),
    (_tbl(("A", "tab")), "tab tab", ()),
    (_tbl(("A", "x y")), "y x y x y", ("x",)),
    (_tbl(("A", "deep")), "deep deeper deepest", ("deeper",)),
    (_tbl(("A", "N")), "N n", ("n",)),
    (_tbl(("A", "q")), "q", ()),
    (_tbl(("A", "final stop")), "the final stop .", ("the", ".", "stop")),
]


def test_acceptance_5_annotator_conformance():
    assert len(ANNOTATOR_FIXTURES) == 50
    mismatches = 0
    checked = 0

    def verify(table, reference, stop_words):
        nonlocal mismatches, checked
        checked += 1
        stop = StopWordList(stop_words)
        got = annotate_skeleton(table, reference, stop)
        want = _transcribed_annotate(table, reference, stop_words)
        if got != want:
            mismatches += 1
            return
        values = table.value_token_set()
        assert is_subsequence(got, list(reference))
        assert all(tok in values for tok in got)
        assert all(tok not in stop for tok in got)

    for table, reference, stop_words in ANNOTATOR_FIXTURES:
        verify(table, tokenize(reference), stop_words)

    from skeltext.skeleton import DEFAULT_STOP_WORDS
    from skeltext.synth import TemplateSpec, generate

    corpus = generate(TemplateSpec(seed=0), 200)
    for ex in corpus:
        verify(ex.table, list(ex.reference), tuple(DEFAULT_STOP_WORDS))

    ok = mismatches == 0
    _report(5, "annotator conformance", ok, f"{checked} cases, {mismatches} mismatches")


# -- criterion 6: end-to-end overfit ---------------------------------------------------

class _ZeroEncoder:
    def step(self, cells):
        return np.zeros((1, 2))


class _DeleteEverythingStub:
    """Adversarial editor: wants to delete every token and insert nothing."""

    k_max = 2
    max_len = 512
    decoder = TransformerDecoder(None, 2, 2, 1, 0)  # no layers: an empty memory_kv

    encoder = _ZeroEncoder()

    def decode_hidden(self, tokens, memory_kv):
        return np.zeros((len(tokens), 2))

    def deletion_scores(self, z):
        logits = np.zeros((z.shape[0], 2))
        logits[:, 1] = 1.0
        return logits

    def placeholder_scores(self, z):
        logits = np.zeros((len(z) - 1, self.k_max + 1))
        logits[:, 0] = 1.0
        return logits

    def argmax_fill(self, z, positions):
        return ["x"] * len(positions)


def test_acceptance_6_end_to_end_overfit(pipeline):
    annotated = load_corpus(pipeline["annotated"])
    predicted = load_corpus(pipeline["skeletons"])

    exact = sum(
        1 for gold, pred in zip(annotated, predicted) if gold.skeleton == pred.skeleton
    )
    skeleton_rate = exact / len(annotated)

    with open(pipeline["gen_oracle"], encoding="utf-8") as fh:
        outputs = [json.loads(line) for line in fh]
    hypotheses = [tokenize(obj["text"]) for obj in outputs]
    report = evaluate_outputs(hypotheses, annotated)

    table = Table((Attribute("K", ("x",)),))
    stub = _DeleteEverythingStub()
    constrained, _ = decoding.iterate(stub, table, ["s1", "s2"], max_iter=3,
                                      hard_constraints=True)
    ablated, _ = decoding.iterate(stub, table, ["s1", "s2"], max_iter=3,
                                  hard_constraints=False)
    flag_live = constrained != ablated

    total = pipeline["total_seconds"]
    ok = (
        skeleton_rate >= 0.90
        and report.bleu >= 95.0
        and report.parent_t_recall >= 0.99
        and flag_live
        and total < 900.0
    )
    _report(
        6, "end-to-end overfit", ok,
        f"skeleton exact {exact}/200, BLEU {report.bleu:.2f}, "
        f"PARENT-T recall {report.parent_t_recall:.4f}, constraint flag live: {flag_live}, "
        f"pipeline {total:.0f}s",
    )


# -- criterion 7: metric fixtures --------------------------------------------------------

def test_acceptance_7_metric_fixtures():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = random_tokens(rng, 8) or ["x"]
        assert bleu([x], [list(x)]) == pytest.approx(100.0, abs=1e-9)

    # fixture 1: BLEU with brevity penalty and add-one smoothed higher orders
    got = bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    want = ref_bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    assert abs(got - want) < 1e-9
    assert abs(got - 71.65313105737893) < 1e-9

    # fixtures 2 and 3: PARENT and PARENT-T on the two-token table
    table = Table((Attribute("K", ("a", "b")),))
    got_p = parent(["a"], ["a", "b"], table)
    want_p = ref_parent(["a"], ["a", "b"], {"a", "b"}, [["a", "b"]])
    assert max(abs(g - w) for g, w in zip(got_p, want_p)) < 1e-9
    assert got_p == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)
    got_t = parent_t(["a"], table)
    want_t = ref_parent_t(["a"], {"a", "b"}, [["a", "b"]])
    assert max(abs(g - w) for g, w in zip(got_t, want_t)) < 1e-9
    assert got_t == pytest.approx((1.0, 0.5, 2.0 / 3.0), abs=1e-9)

    out_of_range = 0
    for _ in range(10_000):
        table = random_table(rng, max_attrs=3, max_value_len=2)
        hyp = random_tokens(rng, 6)
        ref = random_tokens(rng, 6)
        values = (*parent(hyp, ref, table), *parent_t(hyp, table), bleu([hyp], [ref]) / 100.0)
        if not all(0.0 <= v <= 1.0 for v in values):
            out_of_range += 1
    elapsed = time.perf_counter() - t0
    ok = out_of_range == 0
    _report(
        7, "metric fixtures", ok,
        f"3 fixtures at 1e-9, 10000 randomized range checks, "
        f"{out_of_range} violations, {elapsed:.0f}s",
    )


# -- criterion 8: determinism ---------------------------------------------------------

def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_acceptance_8_determinism(pipeline, tmp_path_factory):
    rerun = _run_pipeline(str(tmp_path_factory.mktemp("acceptance_run2")), seed=0)
    mismatched: list[str] = []
    for stage in ("pointer", "editor"):
        for name in ("manifest.json", "params.bin", "config.json", "vocab.json", "keys.json"):
            a = _file_bytes(os.path.join(pipeline[stage], name))
            b = _file_bytes(os.path.join(rerun[stage], name))
            if a != b:
                mismatched.append(f"{stage}/{name}")
    for artifact in ("corpus", "annotated", "skeletons", "gen_oracle", "gen_pred"):
        if _file_bytes(pipeline[artifact]) != _file_bytes(rerun[artifact]):
            mismatched.append(artifact)
    ok = not mismatched
    _report(
        8, "determinism", ok,
        f"second run {rerun['total_seconds']:.0f}s, mismatches: {mismatched or 'none'}",
    )
