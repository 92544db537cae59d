"""tools/bench_ab.py's summary of alternating benchmark pairs, on made-up run records."""

from __future__ import annotations

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("_bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

END_TO_END = [
    {"name": "ex_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def _run(kind, side, pair, ex_per_s, setup_s, fingerprint="f", workload="train", correct=True,
         failed=0):
    return {"set": kind, "workload": workload, "pair": pair, "side": side, "correct": correct,
            "failed": failed, "metrics": {"ex_per_s": ex_per_s, "setup_s": setup_s},
            "fingerprint": fingerprint}


def _runs():
    parent = [100.0, 110.0, 120.0, 130.0]
    change = [105.0, 110.0, 119.0, 140.0]  # one win, one tie, one loss, one win
    setup = [(1.0, 0.9), (1.0, 1.0), (1.0, 1.0), (1.0, 1.1)]
    runs = []
    for pair, (a, b, (sa, sb)) in enumerate(zip(parent, change, setup)):
        runs += [_run("ab", "parent", pair, a, sa), _run("ab", "change", pair, b, sb)]
        aa = a + 10.0
        runs += [_run("aa", "parent", pair, aa, sa), _run("aa", "copy", pair, aa * 1.1, sa)]
    return runs


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    summary = bench_ab.summarize(_runs(), END_TO_END)
    rate = summary["train"]["metrics"]["ex_per_s"]
    assert (rate["change_wins"], rate["parent_wins"], rate["pairs"]) == (2, 1, 4)
    assert rate["parent"] == {"median": 115.0, "q1": 107.5, "q3": 122.5, "n": 4}
    assert rate["change"]["median"] == 114.5
    assert rate["relative_change"] == pytest.approx(-0.5 / 115.0)
    assert rate["aa"]["parent_median"] == 125.0
    assert rate["aa"]["gap"] == pytest.approx(0.1)
    assert rate["aa"]["pairs"] == 4
    setup = summary["train"]["metrics"]["setup_s"]  # lower is better
    assert (setup["change_wins"], setup["parent_wins"]) == (1, 1)
    assert summary["train"]["fingerprints_equal"] is True
    assert summary["train"]["failed_runs"] == 0
    assert summary["train"]["failed_ops"] == {"parent": 0, "change": 0}


def test_summary_reports_a_fingerprint_mismatch_and_a_failed_run_per_workload():
    runs = _runs()
    runs[1] = _run("ab", "change", 0, 105.0, 0.9, fingerprint="g", correct=False, failed=3)
    runs[4] = _run("ab", "parent", 1, 110.0, 1.0, failed=1)
    runs[6] = _run("aa", "parent", 1, 120.0, 1.0, failed=5)  # the A/A set's failures not summed
    runs += [_run("ab", side, 0, 1.0, 1.0, workload="generate") for side in ("parent", "change")]
    summary = bench_ab.summarize(runs, END_TO_END)
    assert summary["train"]["fingerprints_equal"] is False
    assert summary["train"]["failed_runs"] == 1
    assert summary["train"]["failed_ops"] == {"parent": 1, "change": 3}
    assert summary["generate"]["fingerprints_equal"] is True
    assert "aa" not in summary["generate"]["metrics"]["ex_per_s"]  # no A/A set was run
    assert summary["generate"]["metrics"]["ex_per_s"]["parent"]["n"] == 1


def test_summary_gives_each_pairs_ratio_as_a_median_and_quartiles():
    # The pairs' seeds differ, so the medians spread; each pair's ratio does not.
    summary = bench_ab.summarize(_runs(), END_TO_END)
    rate = summary["train"]["metrics"]["ex_per_s"]
    ratios = sorted([105.0 / 100.0, 110.0 / 110.0, 119.0 / 120.0, 140.0 / 130.0])
    assert rate["ratio"]["n"] == 4
    assert rate["ratio"]["median"] == pytest.approx((ratios[1] + ratios[2]) / 2)
    assert rate["ratio"]["q1"] == pytest.approx(ratios[0] + (ratios[1] - ratios[0]) * 0.75)
    assert rate["ratio"]["q3"] == pytest.approx(ratios[2] + (ratios[3] - ratios[2]) * 0.25)
    assert rate["aa"]["ratio"] == pytest.approx({"median": 1.1, "q1": 1.1, "q3": 1.1, "n": 4})
    setup = summary["train"]["metrics"]["setup_s"]
    assert setup["ratio"]["median"] == pytest.approx(1.0)
    assert setup["aa"]["ratio"]["median"] == 1.0


def test_a_ratio_over_a_parent_value_of_zero_is_none():
    runs = [_run("ab", "parent", 0, 0.0, 1.0), _run("ab", "change", 0, 1.0, 1.0)]
    summary = bench_ab.summarize(runs, END_TO_END)
    assert summary["train"]["metrics"]["ex_per_s"]["ratio"] is None
    assert summary["train"]["metrics"]["setup_s"]["ratio"]["median"] == 1.0


def test_summary_splits_each_pairs_ratio_by_the_side_that_ran_first():
    # A host where whatever runs second reads 4% slower: the A/A split shows it,
    # and the A/B split carries it on top of a change that moves nothing.
    runs = []
    for pair in range(4):
        base = 100.0 + 10 * pair
        first, second = base, base * 0.96
        parent, other = (first, second) if pair % 2 == 0 else (second, first)
        runs += [_run("ab", "parent", pair, parent, 1.0), _run("ab", "change", pair, other, 1.0),
                 _run("aa", "parent", pair, parent, 1.0), _run("aa", "copy", pair, other, 1.0)]
    metrics = bench_ab.summarize(runs, END_TO_END)["train"]["metrics"]
    rate = metrics["ex_per_s"]
    for split in (rate["ratio_by_first"], rate["aa"]["ratio_by_first"]):
        assert split["parent"] == pytest.approx({"median": 0.96, "q1": 0.96, "q3": 0.96, "n": 2})
    assert rate["ratio_by_first"]["change"] == pytest.approx(
        {"median": 1 / 0.96, "q1": 1 / 0.96, "q3": 1 / 0.96, "n": 2})
    assert rate["aa"]["ratio_by_first"]["copy"]["median"] == pytest.approx(1 / 0.96)
    assert rate["ratio"]["n"] == 4
    split = metrics["setup_s"]["ratio_by_first"]
    assert (split["parent"]["median"], split["change"]["median"]) == (1.0, 1.0)
    # One pair: the side that did not run first has no ratio.
    one = bench_ab.summarize(runs[:4], END_TO_END)["train"]["metrics"]["ex_per_s"]
    assert one["ratio_by_first"]["change"] is None
    assert one["aa"]["ratio_by_first"] == {"parent": pytest.approx(
        {"median": 0.96, "q1": 0.96, "q3": 0.96, "n": 1}), "copy": None}
