"""Digest every artifact of a short CLI pipeline run from one source tree.

    python3 tools/pipeline_digest.py SRC_DIR

SRC_DIR is the directory that holds the `skeltext` package (a checkout's
`src`). For synth seeds 0 and 1 the script runs, each seed in its own
worker and fresh temporary directory, the CLI pipeline on 48 synthetic
examples with one epoch per stage: synth-corpus, annotate, both trainings,
skeleton, generate from pointer and from oracle skeletons (each with and
without --no-hard-constraints), evaluate of each output, and gradcheck.
Then `beam:scores` beam-searches every table of the seed's corpus with its
trained pointer, at widths 1 and 5, with and without length normalization,
and records each result's tokens, score bits (`float.hex`) and `finished`
flag: no CLI file holds a beam score. And `stage2:traces` realizes every
table with the trained editor, from its annotated skeleton and from the
pointer's (`skeletons.jsonl`), with and without hard constraints, and
records each outcome's termination, error and every `DecodeTrace`
snapshot, tokens and protected mask: the CLI writes only the final texts
and counts. It prints one sha256 per artifact (each step's exit code,
stdout, and stderr with the run directory stripped, the beam scores, the
stage-2 traces, then every file the run wrote) and a total, in seed order
once both seeds are done.

A change that must not move any bit gives the same lines on both trees:

    python3 tools/pipeline_digest.py OLD/src > old.txt
    python3 tools/pipeline_digest.py NEW/src > new.txt
    diff old.txt new.txt

Each command runs with the caller's environment, PYTHONPATH set to SRC_DIR,
SANA_SEED removed and one BLAS thread. Takes about 45 s per tree on two
CPU cores.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

SEEDS = (0, 1)
N_EXAMPLES = 48
_GENERATE = {
    "pointer": ["--pointer", "pointer"],
    "pointer_soft": ["--pointer", "pointer", "--no-hard-constraints"],
    "oracle": ["--oracle-skeleton"],
    "oracle_soft": ["--oracle-skeleton", "--no-hard-constraints"],
}

# Every table's beam search with the trained pointer, one line per result.
_BEAM_SCORES = """
from skeltext.data import load_corpus
from skeltext.pointer import SkeletonPrediction, predict_skeletons
from skeltext.training import load_pointer_dir

model, cfg = load_pointer_dir("pointer")
tables = [ex.table for ex in load_corpus("corpus.jsonl")]
for width in (1, 5):
    for normalize in (False, True):
        for p in predict_skeletons(model, tables, width, cfg.max_skeleton_len, normalize):
            print(width, normalize, *((p.tokens, p.score.hex(), p.finished)
                                      if isinstance(p, SkeletonPrediction) else (repr(p),)))
"""

# Every table's stage-2 trace with the trained editor, one line per outcome.
_STAGE2_TRACES = """
from skeltext.data import load_corpus
from skeltext.decoding import realize_corpus
from skeltext.training import load_editor_dir

model, cfg = load_editor_dir("editor")
for path in ("annotated.jsonl", "skeletons.jsonl"):
    corpus = load_corpus(path)
    tables, skeletons = [ex.table for ex in corpus], [ex.skeleton for ex in corpus]
    for hard in (True, False):
        for i, r in enumerate(realize_corpus(model, tables, skeletons, cfg.max_iter, hard)):
            print(path, hard, i, r.termination, repr(r.error),
                  *((s.tokens, s.protected) for s in r.trace.snapshots))
"""


def steps(seed: int) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of each step of one seed's run, in order; paths are run-relative."""
    out = [
        ("synth-corpus", ["synth-corpus", "--n", str(N_EXAMPLES), "--seed", str(seed),
                          "--out", "corpus.jsonl"]),
        ("annotate", ["annotate", "--corpus", "corpus.jsonl", "--out", "annotated.jsonl"]),
    ]
    for stage in ("pointer", "editor"):
        out.append((f"train-{stage}", [
            f"train-{stage}", "--corpus", "annotated.jsonl", "--out-dir", stage,
            "--set", f"{stage}_epochs=1", "--set", f"seed={seed}",
        ]))
    out.append(("skeleton", ["skeleton", "--checkpoint", "pointer", "--corpus", "annotated.jsonl",
                             "--out", "skeletons.jsonl"]))
    for name, flags in _GENERATE.items():
        out.append((f"generate-{name}", ["generate", "--editor", "editor", *flags,
                                         "--corpus", "annotated.jsonl",
                                         "--out", f"generate-{name}.jsonl"]))
    for name in _GENERATE:
        out.append((f"evaluate-{name}", ["evaluate", "--system", f"generate-{name}.jsonl",
                                         "--gold", "annotated.jsonl"]))
    out.append(("gradcheck", ["gradcheck", "--seed", str(seed)]))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_run(src_dir: str, run_dir: str, seed: int) -> list[tuple[str, str]]:
    """(artifact, sha256) of every step's outcome and every file of one seed's run."""
    env = {k: v for k, v in os.environ.items() if k != "SANA_SEED"}
    env["PYTHONPATH"] = os.path.abspath(src_dir)
    # One BLAS thread per process: the seeds' runs share the cores, and the
    # thread count moves no bit (README, "Determinism").
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    os.makedirs(run_dir)
    artifacts = []
    for name, args in steps(seed):
        proc = subprocess.run([sys.executable, "-m", "skeltext.cli", *args], cwd=run_dir,
                              env=env, capture_output=True)
        stderr = proc.stderr.replace(os.fsencode(run_dir), b"<run>")
        artifacts += [(f"{name}:exit", _sha(str(proc.returncode).encode())),
                      (f"{name}:stdout", _sha(proc.stdout)),
                      (f"{name}:stderr", _sha(stderr))]
    beam = subprocess.run([sys.executable, "-c", _BEAM_SCORES], cwd=run_dir, env=env,
                          capture_output=True)
    if beam.returncode:
        raise RuntimeError(f"seed {seed} beam scores: {beam.stderr.decode()[-2000:]}")
    artifacts.append(("beam:scores", _sha(beam.stdout)))
    traces = subprocess.run([sys.executable, "-c", _STAGE2_TRACES], cwd=run_dir, env=env,
                            capture_output=True)
    if traces.returncode:
        raise RuntimeError(f"seed {seed} stage-2 traces: {traces.stderr.decode()[-2000:]}")
    artifacts.append(("stage2:traces", _sha(traces.stdout)))
    for root, dirs, files in os.walk(run_dir):
        dirs.sort()
        for file in sorted(files):
            path = os.path.join(root, file)
            with open(path, "rb") as fh:
                artifacts.append((f"file:{os.path.relpath(path, run_dir)}", _sha(fh.read())))
    return artifacts


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(len(SEEDS)) as pool:
        runs = [pool.submit(digest_run, argv[0], os.path.join(tmp, f"seed{seed}"), seed)
                for seed in SEEDS]
        digests = [run.result() for run in runs]
        for seed, digest in zip(SEEDS, digests):
            for artifact, sha in digest:
                line = f"{sha}  seed{seed}/{artifact}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
