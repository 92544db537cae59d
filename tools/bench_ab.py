"""Alternating pairs of benchmark runs: a parent checkout against this tree, plus an A/A set.

    python3 tools/bench_ab.py PARENT_DIR --out BENCH.json [--pairs 10] [--seeds 1 2 ...]

PARENT_DIR is a checkout of the parent commit. For each workload of this
tree's BENCHMARK.json and each pair i, the script runs the benchmark command
with `--workload W --seed S --seconds N --trace 0` once in PARENT_DIR and
once in this tree, with the same seed: the parent goes first in even pairs
and this tree in odd ones. Seed S is the i-th of `--seeds` (by default 1 to
`--pairs`), repeating when there are fewer seeds than pairs. After each A/B
pair comes an A/A pair, run in the same alternating order: the parent
against a copy of itself in a temporary directory, removed at the end. The
spread of the A/A set is what a change that moves nothing reads.

After each run the script reads the last line of standard output and the
run's record under the tree's `.bench_build/perfbench/results/`. It writes
one JSON file, `--out`. For each workload and end-to-end metric it holds
both medians and quartiles, the change's wins (pairs where it is better;
ties count for neither), the relative change of the median, the A/A gap
between the medians, and the per-pair ratios as a median and quartiles:
change/parent in the A/B set, copy/parent in the A/A set, over every pair
and split by the side that ran first. Both sides of a pair run the same
seed, so a ratio carries none of the spread between seeds; a split whose
halves differ in the A/A set reads an order effect, which a change's ratio
carries as well. For each workload it holds the runs that were not
correct and each A/B side's failed operations, summed over its runs. It
also holds whether every pair's output fingerprints were equal, both
commits, the environment with the BLAS fingerprint of
`tests/helpers.blas_fingerprint()`, and every run's values. Apart from that
file, the script writes nothing in this tree but what the benchmark itself
writes. Each run takes a few seconds to a minute; the first `generate` run
in a tree also builds that tree's checkpoints.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(".bench_build", "perfbench", "results")


def log(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


def run_once(bench: dict, tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in `tree`: its metric values, outcome and fingerprint."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([*bench["command"], *args], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    summary = json.loads(lines[-1])
    with open(os.path.join(tree, RESULTS, f"{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    return {
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"], "fingerprint": record["fingerprint"], "env": record["env"],
    }


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _relative(new: float, old: float) -> float | None:
    return (new - old) / abs(old) if old else None


def _ratios(old: list[float], new: list[float]) -> dict | None:
    """The spread of new / old pair by pair; None without pairs, or when a pair's old value is 0."""
    if not old or not all(old):
        return None
    return _spread([b / a for a, b in zip(old, new)])


def _parent_first(pair: int) -> bool:
    """Whether the parent runs first in pair `pair`: in even pairs; the other side in odd ones."""
    return pair % 2 == 0


def _ratios_by_first(pairs: list[int], old: list[float], new: list[float], other: str) -> dict:
    """_ratios of the pairs the parent ran first in, and of those `other` ran first in."""
    split = {}
    for side, parent_first in (("parent", True), (other, False)):
        kept = [i for i, p in enumerate(pairs) if _parent_first(p) == parent_first]
        split[side] = _ratios([old[i] for i in kept], [new[i] for i in kept])
    return split


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: medians, quartiles, the change's wins, the A/A gap and pair ratios.

    The pair ratios are given over every pair (`ratio`) and split by which
    side ran first (`ratio_by_first`, keyed by that side), in both sets.

    Per workload also: whether the fingerprints were equal, the runs that were
    not correct, and each A/B side's failed operations summed over its runs.

    Each run is a dict with `set` ("ab" or "aa"), `workload`, `pair`, `side`
    ("parent" and "change" in the A/B set, "parent" and "copy" in the A/A
    set), `metrics`, `correct`, `failed` (its count of failed operations) and
    `fingerprint`. `end_to_end` is BENCHMARK.json's list
    of metrics, each with its `name`, `better` and `bound`.
    """
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides: dict[tuple[str, str], dict[int, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                sides.setdefault((r["set"], r["side"]), {})[r["pair"]] = r
        parent, change = sides[("ab", "parent")], sides[("ab", "change")]
        aa_parent, aa_copy = sides.get(("aa", "parent"), {}), sides.get(("aa", "copy"), {})
        pairs = sorted(set(parent) & set(change))
        aa_pairs = sorted(set(aa_parent) & set(aa_copy))
        metrics = {}
        for m in end_to_end:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            old = [parent[p]["metrics"][name] for p in pairs]
            new = [change[p]["metrics"][name] for p in pairs]
            entry = {
                "better": m["better"], "bound": m["bound"],
                "parent": _spread(old), "change": _spread(new), "pairs": len(pairs),
                "change_wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
                "parent_wins": sum(sign * (b - a) < 0 for a, b in zip(old, new)),
            }
            entry["relative_change"] = _relative(entry["change"]["median"],
                                                 entry["parent"]["median"])
            entry["ratio"] = _ratios(old, new)
            entry["ratio_by_first"] = _ratios_by_first(pairs, old, new, "change")
            if aa_pairs:
                aa_old = [aa_parent[p]["metrics"][name] for p in aa_pairs]
                aa_new = [aa_copy[p]["metrics"][name] for p in aa_pairs]
                old_median, new_median = statistics.median(aa_old), statistics.median(aa_new)
                entry["aa"] = {"parent_median": old_median, "copy_median": new_median,
                               "gap": _relative(new_median, old_median), "pairs": len(aa_pairs),
                               "ratio": _ratios(aa_old, aa_new),
                               "ratio_by_first": _ratios_by_first(aa_pairs, aa_old, aa_new,
                                                                  "copy")}
            metrics[name] = entry
        out[workload] = {
            "metrics": metrics,
            "fingerprints_equal": all(
                a[p]["fingerprint"] == b[p]["fingerprint"]
                for a, b in ((parent, change), (aa_parent, aa_copy)) for p in set(a) & set(b)),
            "failed_runs": sum(not r["correct"] for by_pair in sides.values()
                               for r in by_pair.values()),
            "failed_ops": {"parent": sum(r["failed"] for r in parent.values()),
                           "change": sum(r["failed"] for r in change.values())},
        }
    return out


def _git(tree: str, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _blas_fingerprint(tree: str) -> str:
    """tests/helpers.blas_fingerprint() of `tree`, with one BLAS thread as the benchmark pins."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import helpers; print(helpers.blas_fingerprint())"],
        cwd=os.path.join(tree, "tests"), env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_DIR", help="checkout of the parent commit")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10, help="A/B pairs per workload")
    parser.add_argument("--seeds", type=int, nargs="+", help="seeds of the pairs (default 1..N)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parent = os.path.abspath(args.parent)
    seeds = args.seeds or list(range(1, args.pairs + 1))
    report = {  # the trees as they are when the runs start
        "parent_commit": _git(parent, "rev-parse", "HEAD"),
        "change_commit": _git(ROOT, "rev-parse", "HEAD"),
        "change_uncommitted_files": _git(ROOT, "status", "--porcelain").splitlines(),
        "command": bench["command"], "seconds": bench["run_seconds"], "pairs": args.pairs,
        "seeds": seeds, "order": "parent first in even pairs, the other side first in odd ones",
    }
    runs: list[dict] = []
    scratch = tempfile.mkdtemp(prefix="bench_ab-")
    try:
        copy = os.path.join(scratch, "parent-copy")
        shutil.copytree(parent, copy, symlinks=True)
        for workload in (w["name"] for w in bench["workloads"]):
            for pair in range(args.pairs):
                seed = seeds[pair % len(seeds)]
                for kind, sides in (("ab", (("parent", parent), ("change", ROOT))),
                                    ("aa", (("parent", parent), ("copy", copy)))):
                    for side, tree in sides if _parent_first(pair) else sides[::-1]:
                        run = run_once(bench, tree, workload, seed, bench["run_seconds"])
                        runs.append({"set": kind, "workload": workload, "pair": pair,
                                     "seed": seed, "side": side, **run})
                        log({"event": "run", "set": kind, "workload": workload, "pair": pair,
                             "seed": seed, "side": side, "correct": run["correct"]})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env = {k: v for k, v in runs[0]["env"].items() if k != "git_commit"}
    report["env"] = {**env, "blas_fingerprint": _blas_fingerprint(ROOT)}
    report["env_equal"] = all({k: v for k, v in r["env"].items() if k != "git_commit"} == env
                              for r in runs)
    report["workloads"] = summarize(runs, bench["end_to_end"])
    report["fingerprints_equal"] = all(w["fingerprints_equal"]
                                       for w in report["workloads"].values())
    report["runs"] = [{k: v for k, v in r.items() if k != "env"} for r in runs]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
