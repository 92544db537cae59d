"""Edit oracles against independent brute-force references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltext.data import PLH_TOKEN, linearize_table
from skeltext.oracle import (
    DELETE,
    KEEP,
    apply_insertions,
    edit_loss_example,
    is_subsequence,
    lcs,
    lcs_align,
    lcs_length,
    levenshtein_distance,
    make_intermediate,
    match_masks,
    oracle_deletion,
    oracle_insertion,
    subsequence_positions,
)

from helpers import dp_lcs_align

ABC = ("a", "b", "c")


# -- independent reference implementations ----------------------------------

def brute_edit_distance(a, b, max_depth=8):
    """Iterative-deepening search over edit scripts (insert/delete/substitute)."""
    alphabet = sorted(set(a) | set(b))
    seen_limit = {}

    def reachable(cur, depth):
        if cur == tuple(b):
            return True
        if depth == 0:
            return False
        key = cur
        if seen_limit.get(key, -1) >= depth:
            return False
        seen_limit[key] = depth
        for i in range(len(cur)):  # deletions
            if reachable(cur[:i] + cur[i + 1 :], depth - 1):
                return True
        for i in range(len(cur)):  # substitutions
            for s in alphabet:
                if s != cur[i] and reachable(cur[:i] + (s,) + cur[i + 1 :], depth - 1):
                    return True
        for i in range(len(cur) + 1):  # insertions
            for s in alphabet:
                if reachable(cur[:i] + (s,) + cur[i:], depth - 1):
                    return True
        return False

    for depth in range(max_depth + 1):
        seen_limit.clear()
        if reachable(tuple(a), depth):
            return depth
    raise AssertionError("depth bound too small")


def all_subsequences(seq):
    out = set()
    for mask in range(1 << len(seq)):
        out.add(tuple(seq[i] for i in range(len(seq)) if mask >> i & 1))
    return out


def brute_lcs_set(a, b):
    common = all_subsequences(a) & all_subsequences(b)
    best = max(len(s) for s in common)
    return {s for s in common if len(s) == best}


def indel_distance(a, b):
    """Insertion/deletion-only edit distance (no substitutions)."""
    n, m = len(a), len(b)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j], cur[j - 1])
        prev = cur
    return prev[m]


class FixedRng:
    """Stand-in rng: uniform() pops preset values, then repeats the last."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        if len(self.values) > 1:
            return self.values.pop(0)
        return self.values[0]


# -- levenshtein -------------------------------------------------------------

def test_levenshtein_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        assert levenshtein_distance(x, x) == 0


def test_levenshtein_pure_insertion():
    assert levenshtein_distance([], ["a", "b", "c"]) == 3
    assert levenshtein_distance(["a", "b", "c"], []) == 3


def test_levenshtein_mixed_case_against_script_search():
    a, b = ["a", "b", "c"], ["a", "c", "d"]
    assert brute_edit_distance(a, b, max_depth=4) == 2
    assert levenshtein_distance(a, b) == 2


def test_levenshtein_random_against_script_search():
    rng = np.random.default_rng(1)
    for _ in range(40):
        a = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 5))]
        b = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 5))]
        assert levenshtein_distance(a, b) == brute_edit_distance(a, b, max_depth=6)


# -- lcs ----------------------------------------------------------------------

def test_lcs_identity():
    x = ["a", "b", "a"]
    assert lcs(x, x) == x


def test_lcs_disjoint():
    assert lcs(["a"], ["b"]) == []


def test_lcs_matches_exhaustive_enumeration():
    a, b = ["a", "b", "c", "d"], ["b", "d"]
    assert tuple(lcs(a, b)) in brute_lcs_set(a, b)
    assert lcs(a, b) == ["b", "d"]


def test_lcs_random_always_maximal():
    rng = np.random.default_rng(2)
    for _ in range(150):
        a = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        b = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        got = tuple(lcs(a, b))
        if a and b:
            assert got in brute_lcs_set(a, b)
        else:
            assert got == ()


def test_lcs_align_leftmost_greedy_tiebreak():
    # both a-positions could match; the smaller a-index must win
    assert lcs_align(["a", "x", "a"], ["a"]) == [(0, 0)]
    # and given the a-index, the smaller b-index wins
    assert lcs_align(["a"], ["a", "x", "a"]) == [(0, 0)]
    assert lcs_align(["b", "a"], ["a", "b", "a"]) == [(0, 1), (1, 2)]
    # so of two equal choices the deletion oracle keeps the leftmost
    assert oracle_deletion(["b", "b"], ["a", "b"]) == [KEEP, DELETE]


def test_lcs_indel_identity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        b = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        assert len(a) + len(b) - 2 * len(lcs(a, b)) == indel_distance(a, b)


def test_subsequence_positions():
    assert subsequence_positions(["a", "c"], ["a", "b", "c"]) == [0, 2]
    assert subsequence_positions([], ["a"]) == []
    assert subsequence_positions(["c", "a"], ["a", "b", "c"]) is None
    assert is_subsequence(["a", "b"], ["a", "x", "b"])
    assert not is_subsequence(["b", "a"], ["a", "x", "b"])


# -- make_intermediate --------------------------------------------------------

def test_make_intermediate_keep_rate_one_returns_reference():
    y = ["a", "b", "c", "d"]
    rng = FixedRng([1.0, 0.5])  # rho forced to 1; uniform draws stay below it
    assert make_intermediate(y, ["b"], rng) == y


def test_make_intermediate_keep_rate_zero_returns_lcs():
    y = ["a", "b", "c", "b"]
    skeleton = ["b", "b"]
    rng = FixedRng([0.0, 0.5])  # rho = 0; later draws all >= rho
    assert make_intermediate(y, skeleton, rng) == ["b", "b"]


def test_make_intermediate_sandwich_property():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        y = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(1, 9))]
        take = sorted(
            rng.choice(len(y), size=int(rng.integers(0, len(y) + 1)), replace=False)
        )
        skeleton = [y[i] for i in take]
        x = lcs(skeleton, y)
        y_prime = make_intermediate(y, skeleton, rng)
        assert is_subsequence(x, y_prime)
        assert is_subsequence(y_prime, y)


# -- oracle insertion ---------------------------------------------------------

def test_oracle_insertion_noop_when_equal():
    counts, fills = oracle_insertion(["a", "b"], ["a", "b"])
    assert counts == [0, 0, 0]
    assert fills == [[], [], []]


def test_oracle_insertion_from_empty():
    counts, fills = oracle_insertion([], ["a", "b"])
    assert counts == [2]
    assert fills == [["a", "b"]]


def _apply_with_fills(y, counts, fills):
    out = []
    for i, tok in enumerate(y):
        out.extend(fills[i])
        out.append(tok)
    out.extend(fills[-1])
    return out


def brute_min_insertion_distance(y, y_star, budget=3):
    """Minimum D(Y*, result) over all insertion actions with <= budget tokens."""
    alphabet = sorted(set(y) | set(y_star))
    best = levenshtein_distance(y, y_star)
    frontier = {tuple(y)}
    for _ in range(budget):
        nxt = set()
        for cur in frontier:
            for i in range(len(cur) + 1):
                for s in alphabet:
                    cand = cur[:i] + (s,) + cur[i:]
                    nxt.add(cand)
        frontier = nxt
        best = min(best, min(levenshtein_distance(list(c), y_star) for c in frontier))
    return best


def test_oracle_insertion_middle_gap_is_optimal():
    y, y_star = ["b"], ["a", "b", "c"]
    counts, fills = oracle_insertion(y, y_star)
    assert counts == [1, 1]
    assert fills == [["a"], ["c"]]
    rebuilt = _apply_with_fills(y, counts, fills)
    assert rebuilt == y_star
    assert brute_min_insertion_distance(y, y_star) == 0  # achieved by the oracle


def test_oracle_insertion_requires_subsequence():
    with pytest.raises(ValueError):
        oracle_insertion(["b", "a"], ["a", "b"])


def test_oracle_insertion_reconstructs_random_cases():
    rng = np.random.default_rng(5)
    for _ in range(300):
        y_star = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 8))]
        keep = sorted(
            rng.choice(len(y_star), size=int(rng.integers(0, len(y_star) + 1)), replace=False)
        ) if y_star else []
        y = [y_star[i] for i in keep]
        counts, fills = oracle_insertion(y, y_star)
        assert len(counts) == len(y) + 1
        assert [len(f) for f in fills] == counts
        assert _apply_with_fills(y, counts, fills) == y_star
        assert levenshtein_distance(_apply_with_fills(y, counts, fills), y_star) == 0


# -- oracle deletion ----------------------------------------------------------

def test_oracle_deletion_identity_keeps_all():
    y = ["a", "b", "c"]
    assert oracle_deletion(y, y) == [KEEP, KEEP, KEEP]


def test_oracle_deletion_disjoint_deletes_all():
    assert oracle_deletion(["a", "a"], ["b", "c"]) == [DELETE, DELETE]


def test_oracle_deletion_matches_subset_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(150):
        y = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        y_star = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
        labels = oracle_deletion(y, y_star)
        kept = [t for t, d in zip(y, labels) if d == KEEP]
        achieved = levenshtein_distance(kept, y_star)
        brute = min(
            levenshtein_distance(list(sub), y_star) for sub in all_subsequences(y)
        )
        assert achieved == brute


# -- apply_insertions ----------------------------------------------------------

def test_apply_insertions_noop():
    assert apply_insertions(["a", "b"], [0, 0, 0]) == ["a", "b"]


def test_apply_insertions_example():
    assert apply_insertions(["a"], [1, 2]) == [PLH_TOKEN, "a", PLH_TOKEN, PLH_TOKEN]


def test_apply_insertions_arity_checked():
    with pytest.raises(ValueError):
        apply_insertions(["a"], [1])


def test_apply_insertions_length_arithmetic():
    rng = np.random.default_rng(7)
    for _ in range(200):
        y = [ABC[i] for i in rng.integers(0, 3, size=rng.integers(0, 6))]
        counts = [int(c) for c in rng.integers(0, 4, size=len(y) + 1)]
        out = apply_insertions(y, counts)
        assert len(out) == len(y) + sum(counts)
        assert [t for t in out if t != PLH_TOKEN] == y


# -- edit loss ------------------------------------------------------------------

def _loss_setup(seed=0):
    from skeltext.data import Attribute, Table
    from helpers import tiny_editor

    model, cfg = tiny_editor(seed=seed)
    table = Table(
        (Attribute("Name_ID", ("Alda", "Fenwick")), Attribute("Occupation", ("sculptor",)))
    )
    skeleton = ["Alda", "Fenwick", "sculptor"]
    y_star = ["Alda", "Fenwick", "the", "sculptor", "."]
    return model, table, skeleton, y_star


def test_edit_loss_lambda_zero_drops_deletion_term():
    model, table, skeleton, y_star = _loss_setup()
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    memory = model.encoder(linearize_table(table))
    with_del = edit_loss_example(model, memory, skeleton, y_star, rng1, lam=1.0)
    without = edit_loss_example(model, memory, skeleton, y_star, rng2, lam=0.0)
    assert without.total.item() == pytest.approx(
        without.placeholder_nll + without.token_nll, abs=1e-12
    )
    assert with_del.total.item() == pytest.approx(
        with_del.placeholder_nll + with_del.token_nll + with_del.deletion_nll, abs=1e-12
    )


def test_edit_loss_default_lambda_is_one():
    import inspect

    from skeltext.config import RunConfig

    assert inspect.signature(edit_loss_example).parameters["lam"].default == 1.0
    assert RunConfig().lambda_del == 1.0


def test_edit_loss_overfits_single_example():
    from skeltext.nn import Adam

    model, table, skeleton, y_star = _loss_setup(seed=3)
    opt = Adam(model.parameters(), peak_lr=4e-3, warmup=25)
    cells = linearize_table(table)
    for step in range(300):
        rng = np.random.default_rng(step % 4)  # recycle a few corruptions
        parts = edit_loss_example(model, model.encoder(cells), skeleton, y_star, rng)
        parts.total.backward()
        opt.step()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        final = edit_loss_example(model, model.encoder(cells), skeleton, y_star, rng)
        assert final.placeholder_nll < 0.2
        assert final.token_nll < 0.2
        assert final.deletion_nll < 0.2


def _one_example_cases():
    """(model, example, draft seed) triples: with and without placeholders in state2."""
    from skeltext.data import Example

    model, table, skeleton, y_star = _loss_setup(seed=5)
    yield model, Example(table, tuple(y_star), tuple(skeleton)), 2
    # The reference is the skeleton: nothing to insert, so no token pass.
    yield model, Example(table, tuple(skeleton), tuple(skeleton)), 2


def test_the_one_example_loss_is_the_batch_of_one():
    from skeltext.oracle import backprop_edit_batch, build_edit_supervision

    with_placeholders = []
    for model, ex, seed in _one_example_cases():
        memory = model.encoder(linearize_table(ex.table))
        rng = np.random.default_rng
        one = edit_loss_example(model, memory, ex.skeleton, ex.reference, rng(seed), lam=0.5)
        draft = build_edit_supervision(model, ex.skeleton, ex.reference, rng(seed))
        assert draft.reference == list(ex.reference) and draft.state3 is None
        [batch] = backprop_edit_batch(model, [ex], [draft], lam=0.5)
        assert one.as_dict() == batch.as_dict()
        assert one.clamped_slots == batch.clamped_slots
        assert (one.placeholder_nll, one.token_nll, one.deletion_nll) == (
            batch.placeholder_nll, batch.token_nll, batch.deletion_nll
        )
        with_placeholders.append(bool(draft.positions))
    assert with_placeholders == [True, False]


def test_a_completed_draft_scores_the_same_again():
    from skeltext.oracle import backprop_edit_batch, build_edit_supervision

    def parts_and_gradient_bytes(model, ex, sup):
        for p in model.parameters():
            p.grad[...] = 0.0
        [parts] = backprop_edit_batch(model, [ex], [sup], lam=0.5)
        return parts.as_dict(), parts.clamped_slots, [p.grad.tobytes() for p in model.parameters()]

    for model, ex, seed in _one_example_cases():
        draft = build_edit_supervision(model, ex.skeleton, ex.reference, np.random.default_rng(seed))
        want = parts_and_gradient_bytes(model, ex, draft)
        # Now complete, the supervision is read as it is and gives the same again.
        assert draft.state3 is not None
        state3, labels = list(draft.state3), draft.del_labels.tobytes()
        assert parts_and_gradient_bytes(model, ex, draft) == want
        assert (draft.state3, draft.del_labels.tobytes()) == (state3, labels)


def test_the_edit_loss_completes_a_draft_from_the_argmax_fills():
    # The reference completion: the model's argmax fills of its own state2,
    # decoded on its own, written into the draft's placeholders.
    from skeltext.oracle import build_edit_supervision, edit_loss_from_supervision

    from helpers import decode_hidden

    for model, ex, seed in _one_example_cases():
        memory = model.encoder(linearize_table(ex.table))
        built = build_edit_supervision(model, ex.skeleton, ex.reference, np.random.default_rng(seed))
        edit_loss_from_supervision(model, memory, [built], 1.0, lambda name, loss: None)
        want = build_edit_supervision(model, ex.skeleton, ex.reference, np.random.default_rng(seed))
        fills = model.argmax_fill(decode_hidden(model, want.state2, memory).data, want.positions)
        state3 = list(want.state2)
        for pos, tok in zip(want.positions, fills):
            state3[pos] = tok
        assert built.state3 == state3
        labels = [KEEP, *oracle_deletion(state3[1:-1], ex.reference), KEEP]
        assert built.del_labels.tolist() == labels
        for name in ("state1", "state2", "positions", "clamped_slots"):
            assert getattr(built, name) == getattr(want, name), name
        assert built.slot_labels.tobytes() == want.slot_labels.tobytes()
        assert built.gold_ids.tobytes() == want.gold_ids.tobytes()


def test_consumed_graph_reuse_is_loud():
    # Caching a tracked forward across backward() calls must raise, not
    # silently train on stale values.
    model, table, skeleton, y_star = _loss_setup(seed=4)
    memory = model.encoder(linearize_table(table))
    parts = edit_loss_example(model, memory, skeleton, y_star, np.random.default_rng(0))
    parts.total.backward()
    with pytest.raises(RuntimeError, match="backward"):
        edit_loss_example(model, memory, skeleton, y_star, np.random.default_rng(1))


# -- properties over random alphabets (hypothesis) -------------------------------


_ALPHABETS = st.integers(2, 6).map(lambda k: "abcdef"[:k])


def _tokens(alphabet: str, max_size: int = 20):
    return st.lists(st.sampled_from(alphabet), max_size=max_size)


_PAIRS = _ALPHABETS.flatmap(lambda a: st.tuples(_tokens(a), _tokens(a)))


def _lcs_length(a, b) -> int:
    """Textbook dynamic program, independent of lcs_align."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1], table[i + 1][j])
    return table[len(a)][len(b)]


@settings(max_examples=200, deadline=None)
@given(_PAIRS)
def test_lcs_align_is_an_increasing_matching_of_lcs_length(pair):
    a, b = pair
    pairs = lcs_align(a, b)
    assert all(a[i] == b[j] for i, j in pairs)
    assert all(i < i2 and j < j2 for (i, j), (i2, j2) in zip(pairs, pairs[1:]))
    assert len(pairs) == _lcs_length(a, b)


def _alignments(a, b, i=0, j=0):
    """Every increasing matching of a[i:] with b[j:], as a list of (i, j) pairs."""
    yield []
    for i2 in range(i, len(a)):
        for j2 in range(j, len(b)):
            if a[i2] == b[j2]:
                for rest in _alignments(a, b, i2 + 1, j2 + 1):
                    yield [(i2, j2), *rest]


_SHORT_PAIRS = st.integers(1, 3).map(lambda k: "abc"[:k]).flatmap(
    lambda alphabet: st.tuples(_tokens(alphabet, 6), _tokens(alphabet, 6))
)


@settings(max_examples=300, deadline=None)
@given(_SHORT_PAIRS)
def test_lcs_align_is_the_lexicographically_smallest_longest_alignment(pair):
    # The tie rule, by brute force: smallest index in a first, then in b.
    a, b = pair
    alignments = list(_alignments(a, b))
    longest = max(len(al) for al in alignments)
    assert lcs_align(a, b) == min(al for al in alignments if len(al) == longest)


# Up to 80 tokens: bit vectors wider than one 64-bit word. One- and two-token
# alphabets make ties everywhere.
_LONG_PAIRS = st.integers(1, 5).map(lambda k: "abcde"[:k]).flatmap(
    lambda alphabet: st.tuples(_tokens(alphabet, 80), _tokens(alphabet, 80))
)


@settings(max_examples=400, deadline=None)
@given(_LONG_PAIRS)
def test_bit_parallel_lcs_align_gives_the_dynamic_programs_alignment(pair):
    a, b = pair
    assert lcs_align(a, b) == dp_lcs_align(a, b)
    assert lcs_align(b, a) == dp_lcs_align(b, a)


@settings(max_examples=400, deadline=None)
@given(_LONG_PAIRS)
def test_lcs_length_from_match_masks_is_the_lcs_length(pair):
    a, b = pair
    masks = match_masks(b)
    for c in (a, a[::-1], b):  # one set of masks serves every sequence
        assert lcs_length(c, masks, len(b)) == len(lcs(c, b))


def test_lcs_kernels_take_empty_sides_and_wide_vectors():
    long = list("ab" * 40)
    for a, b in (([], []), ([], long), (long, []), (long, long), (long, long[::-1])):
        assert lcs_align(a, b) == dp_lcs_align(a, b)
        assert lcs_length(a, match_masks(b), len(b)) == len(dp_lcs_align(a, b))
    assert lcs_align(long, long) == [(i, i) for i in range(80)]


@st.composite
def _subsequence_of_target(draw):
    alphabet = draw(_ALPHABETS)
    y_star = draw(_tokens(alphabet))
    keep = draw(st.lists(st.booleans(), min_size=len(y_star), max_size=len(y_star)))
    return [t for t, k in zip(y_star, keep) if k], y_star


@settings(max_examples=200, deadline=None)
@given(_subsequence_of_target())
def test_oracle_insertion_rebuilds_the_target_exactly(case):
    y, y_star = case
    counts, fills = oracle_insertion(y, y_star)
    assert counts == [len(f) for f in fills]
    rebuilt = list(fills[0])
    for tok, fill in zip(y, fills[1:]):
        rebuilt += [tok, *fill]
    assert rebuilt == y_star
    assert len(apply_insertions(y, counts)) == len(y_star)


@settings(max_examples=200, deadline=None)
@given(_PAIRS)
def test_oracle_deletion_keeps_a_maximal_common_subsequence(pair):
    y, y_star = pair
    labels = oracle_deletion(y, y_star)
    kept = [t for t, label in zip(y, labels) if label == KEEP]
    assert is_subsequence(kept, y_star)
    assert len(kept) == _lcs_length(y, y_star)
