"""skeltext benchmark.

    python3 perfbench/run.py --workload {train,generate} --seed S --seconds N --trace {0,1}

Run from the root of a source checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones, from a traced pass that follows an
untraced pass of the same work. The full record of each run (environment,
plan, fingerprints, every value) goes to .bench_build/perfbench/results/.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread is the steadiest setting on a small shared host. It must be
# set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("train", "generate")

# (name, unit). The pointer_* and editor_* metrics are per stage: teacher-
# forced training on `train`, beam search and iterative realization on
# `generate`. See README.md for each definition.
END_TO_END = (
    ("setup_s", "s"),
    ("pointer_ex_per_s", "examples/s"),
    ("editor_ex_per_s", "examples/s"),
    ("pointer_loss", "nats"),
    ("editor_loss", "nats"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "fraction"),
)

_TIMED = ("calls", "ms_per_call", "share")
# (span name, stats) for the layers the tracer wraps.
LAYERS = (
    ("autograd.backward", _TIMED),
    ("nn.self_attention", _TIMED),
    ("nn.cross_attention", _TIMED),
    ("nn.feed_forward", _TIMED),
    ("nn.layer_norm", _TIMED),
    ("nn.adam_step", _TIMED),
    ("encoder.encode", _TIMED + ("cells_per_call",)),
    ("pointer.decoder_states", ("calls_per_example", "tokens_per_example", "ms_per_call", "share")),
    ("pointer.pointer_attention", _TIMED),
    ("pointer.beam_search", ("ms_per_call",)),
    ("pointer.loss", _TIMED),
    ("editor.decode_hidden", ("calls_per_example", "tokens_per_example", "ms_per_call", "share")),
    ("editor.heads", _TIMED),
    ("oracle.lcs_align", ("calls", "cells", "ms_per_call", "share")),
    ("oracle.build_edit_supervision", _TIMED),
    ("oracle.edit_loss_from_supervision", _TIMED),
    ("decoding.iterate", _TIMED),
    ("decoding.masked_delete", _TIMED),
    ("decoding.insert_and_fill", _TIMED),
)
STAT_UNITS = {
    "calls": "count", "ms_per_call": "ms", "share": "fraction", "cells_per_call": "count",
    "calls_per_example": "count", "tokens_per_example": "tokens", "cells": "count",
}
# Values the workloads measure directly, reported in the traced run.
OTHER_LAYER_METRICS = (
    ("autograd.tensors_per_example", "count"),
    ("autograd.tensor_init.share", "fraction"),
    ("pointer.p50_ms", "ms"),
    ("pointer.p95_ms", "ms"),
    ("editor.p50_ms", "ms"),
    ("editor.p95_ms", "ms"),
    ("pointer.raw_ex_per_s", "examples/s"),
    ("editor.raw_ex_per_s", "examples/s"),
    ("host.slowdown", "ratio"),
    ("pointer.beam_truncated", "count"),
    ("pointer.skeleton_exact", "fraction"),
    ("decoding.iterations_per_example", "count"),
    ("decoding.useful_iteration_share", "fraction"),
    ("decoding.termination.fixed_point", "count"),
    ("decoding.termination.max_iterations", "count"),
    ("decoding.termination.overflow", "count"),
    ("decoding.termination.non_finite", "count"),
    ("metrics.evaluate_outputs.ms_per_example", "ms"),
    ("metrics.bleu", "score"),
    ("metrics.parent_f1", "F1"),
    ("setup.corpus_ms", "ms"),
    ("setup.checkpoint_load_ms", "ms"),
    ("trace.overhead_share", "fraction"),
    ("failed_frac", "fraction"),
)
PER_LAYER = tuple(
    (f"{layer}.{stat}", STAT_UNITS[stat]) for layer, stats in LAYERS for stat in stats
) + OTHER_LAYER_METRICS


def log(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), file=sys.stderr, flush=True)


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads(numpy) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it exposes one."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(numpy),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _bench_sha256() -> str:
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(HERE) if n.endswith(".py")):
        with open(os.path.join(HERE, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def check_fingerprint(key: dict, fingerprint: str) -> str | None:
    """Record the fingerprint of this code and input; report a mismatch with earlier runs."""
    path = os.path.join(CACHE, "fingerprints.json")
    ident = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    if ident in known:
        if known[ident] != fingerprint:
            return (f"determinism: output fingerprint {fingerprint[:16]} differs from "
                    f"{known[ident][:16]} of an earlier run of the same code and seed")
        return None
    known[ident] = fingerprint
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def layer_values(tracer, outcome, untraced) -> dict[str, float]:
    """Per-layer values from the traced pass `outcome`; timings of stages from `untraced`."""
    totals = tracer.totals()
    wall_ns = outcome.wall_s * 1e9
    v = outcome.values
    examples = {"pointer": v.get("pointer.examples", 0), "editor": v.get("editor.examples", 0)}
    out: dict[str, float] = {}
    for layer, stats in LAYERS:
        t = totals.get(layer, {"calls": 0, "ns": 0, "self_ns": 0})
        calls = t["calls"]
        per_example = examples.get(layer.split(".")[0], 0)
        for stat in stats:
            if stat == "calls":
                value = calls
            elif stat == "ms_per_call":
                value = t["ns"] / calls / 1e6 if calls else 0.0
            elif stat == "share":
                value = t["self_ns"] / wall_ns
            elif stat == "calls_per_example":
                value = calls / per_example if per_example else 0.0
            elif stat == "tokens_per_example":
                value = tracer.counts[f"{layer}.tokens"] / per_example if per_example else 0.0
            elif stat == "cells_per_call":
                value = tracer.counts[f"{layer}.cells"] / calls if calls else 0.0
            else:  # cells
                value = tracer.counts[f"{layer}.cells"]
            out[f"{layer}.{stat}"] = value
    out["autograd.tensors_per_example"] = tracer.tensors / max(v["examples"], 1)
    out["autograd.tensor_init.share"] = tracer.tensor_ns / wall_ns
    out["trace.overhead_share"] = outcome.wall_s / untraced.wall_s - 1.0
    for stage in ("pointer", "editor"):
        for stat in ("p50_ms", "p95_ms", "raw_ex_per_s"):
            out[f"{stage}.{stat}"] = untraced.values.get(f"{stage}.{stat}", 0.0)
    out["host.slowdown"] = untraced.values.get("host.slowdown", 0.0)
    out["failed_frac"] = outcome.failed / outcome.attempted
    for name, _ in OTHER_LAYER_METRICS:
        out.setdefault(name, v.get(name, 0.0))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "skeltext", "__init__.py")):
        log({"event": "error", "message": f"no skeltext sources under {SRC}"})
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import checkpoints
    import workloads
    from skeltext import RunConfig
    from tracer import Tracer

    env = environment()
    p = workloads.plan(args.seconds, args.smoke)
    ckpt_dir, meta = checkpoints.ensure(SRC, CACHE, p.checkpoint_config, log)

    if args.workload == "train":
        cfg = RunConfig(pointer_epochs=1, editor_epochs=1)
        setup = functools.partial(workloads.setup_train, args.seed, p, cfg)

        def run(corpus, tracer=None):
            return workloads.run_train(corpus, p, cfg, tracer)
    else:
        setup = functools.partial(workloads.setup_generate, args.seed, p, ckpt_dir, meta)

        def run(data, tracer=None):
            return workloads.run_generate(*data, tracer)

    # Half of the set-up repeats run after the measured pass, so that their
    # median spans the run instead of one speed level of a shared host.
    before = p.setup_repeats // 2 + 1
    data, setup_times = workloads.repeat_setup(setup, before)
    outcome = run(data)
    # Read before the later set-ups, which load models while the run's are alive.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, later in workloads.repeat_setup(setup, p.setup_repeats - before)[1].items():
        setup_times[name] += later
    setup_values = {name: statistics.median(v) for name, v in setup_times.items()}
    outcome.values.update(setup_values)
    problems = list(outcome.problems)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run(data, tracer)
        finally:
            tracer.uninstall()
        traced.values.update(setup_values)
        if traced.fingerprint != outcome.fingerprint:
            problems.append("determinism: the traced pass produced other outputs")
        values = layer_values(tracer, traced, outcome)
        os.makedirs(CACHE, exist_ok=True)
        tracer.write(os.path.join(CACHE, f"spans-{args.workload}.jsonl"))
        names = PER_LAYER
    else:
        if args.workload == "generate":
            # The losses of the models generate uses: the final epoch of the
            # default-schedule training that built its checkpoints.
            outcome.values["pointer_loss"] = meta["final_epoch"]["pointer"]["mean_loss"]
            outcome.values["editor_loss"] = meta["final_epoch"]["editor"]["loss_edit"]
        values = dict(outcome.values)
        values["peak_rss_mb"] = peak_rss_mb
        values["success_frac"] = 1.0 - outcome.failed / outcome.attempted
        names = END_TO_END

    mismatch = check_fingerprint(
        {"source": checkpoints.source_sha256(SRC), "bench": _bench_sha256(),
         "checkpoints": meta["key"], "workload": args.workload, "seed": args.seed,
         "plan": p.__dict__},
        outcome.fingerprint)
    if mismatch:
        problems.append(mismatch)
    # A stage that crashed leaves values missing or NaN; the run is then
    # marked incorrect, and 0 keeps the line valid JSON.
    metrics = {}
    for name, unit in names:
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "plan": p.__dict__, "checkpoints": ckpt_dir,
        "checkpoint_train_s": meta["train_s"], "fingerprint": outcome.fingerprint,
        "wall_s": outcome.wall_s, "values": values, "problems": problems,
        "samples_ms": outcome.samples_ms,
    }
    results = os.path.join(CACHE, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in problems[:20]:
        log({"event": "problem", "message": problem})
    print(json.dumps({
        "correct": not problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
