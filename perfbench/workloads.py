"""The `train` and `generate` workloads.

Each is one process driving the public skeltext calls the CLI makes, in a
closed loop with one caller: the next example starts only after the previous
one has finished. `train` runs teacher-forced training of both stages and
never decodes; `generate` decodes held-out tables with no gradients, so
`backward` and Adam do no work there.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from skeltext import RunConfig, TemplateSpec, annotate_corpus, default_stop_words
from skeltext import autograd, decoding, metrics, oracle, synth, training

import checkpoints
import hostspeed

TRAIN_SIZE = checkpoints.TRAIN_SIZE
HELD_OUT_START = TRAIN_SIZE

# Seconds per unit of work on a 2-core x86 host with one BLAS thread. They
# turn --seconds into fixed amounts of work, so that a seed always gives the
# same inputs, outputs and fingerprint however fast the host is.
TRAIN_ROUND_S = 9.0  # one pointer epoch and one editor epoch on 200 examples
GENERATE_EXAMPLE_S = 0.16
SETUP_REPEATS = 11


@dataclass(frozen=True)
class Plan:
    train_examples: int
    train_rounds: int
    generate_examples: int
    setup_repeats: int
    checkpoint_config: dict


def plan(seconds: int, smoke: bool = False) -> Plan:
    """Work sized to about `seconds` of measurement; `smoke` is a seconds-long check."""
    if smoke:
        return Plan(16, 2, 12, 3, RunConfig(pointer_epochs=3, editor_epochs=3).to_dict())
    return Plan(
        train_examples=TRAIN_SIZE,
        train_rounds=max(1, round(seconds / TRAIN_ROUND_S)),
        generate_examples=max(20, round(seconds / GENERATE_EXAMPLE_S)),
        setup_repeats=SETUP_REPEATS,
        checkpoint_config=RunConfig().to_dict(),
    )


@dataclass
class Outcome:
    """What one pass of a workload measured and produced."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0  # the measured stages, setup excluded
    values: dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    samples_ms: dict[str, list[float]] = field(default_factory=dict)  # per-example latencies


class StageClock:
    """Times consecutive stages, probing the host's speed between them.

    Each stage's time is kept raw and, when there is a probe, also corrected
    to the reference speed by the probes on either side of it. The traced
    pass runs without a probe. Probing time is never part of a stage.
    """

    def __init__(self, probe: hostspeed.Probe | None):
        self.probe = probe
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.corrected: dict[str, list[float]] = defaultdict(list)
        self._last = probe.measure() if probe else None
        self._start = perf_counter()

    def restart(self, probe: bool) -> None:
        """Start the next stage now, after a fresh probe when `probe`."""
        if probe and self.probe:
            self._last = self.probe.measure()
        self._start = perf_counter()

    def stop(self, stage: str) -> None:
        """End a stage of `stage`, probe, and start the next stage."""
        elapsed = perf_counter() - self._start
        self.raw[stage].append(elapsed)
        if self.probe:
            now = self.probe.measure()
            self.corrected[stage].append(hostspeed.corrected(elapsed, self._last, now))
            self._last = now
        self._start = perf_counter()

    @property
    def probing_s(self) -> float:
        return self.probe.spent_s if self.probe else 0.0

    def throughputs(self, out: Outcome, examples_per_stage: int) -> None:
        """Examples per second from the median stage time, corrected and raw."""
        for stage, samples in self.raw.items():
            out.values[f"{stage}.raw_ex_per_s"] = examples_per_stage / statistics.median(samples)
            if self.corrected[stage]:
                out.values[f"{stage}_ex_per_s"] = (
                    examples_per_stage / statistics.median(self.corrected[stage]))
                out.samples_ms[f"{stage}.corrected"] = [
                    1000.0 * s / examples_per_stage for s in self.corrected[stage]]
        if self.probe:
            out.values["host.slowdown"] = (
                statistics.median(self.probe.samples) / hostspeed.REFERENCE_S)
            out.samples_ms["probe"] = [1000.0 * s for s in self.probe.samples]


def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated q-quantile."""
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_stats(stage: str, samples_ms: list[float]) -> dict[str, float]:
    """Median and tail per-example latency of a stage.

    The tail is p95 when ten samples lie beyond it (200 samples or more),
    else the highest percentile that has ten samples beyond it.
    """
    n = len(samples_ms)
    q = min(0.95, 1.0 - 10.0 / n) if n > 20 else 0.5
    return {
        f"{stage}.p50_ms": statistics.median(samples_ms),
        f"{stage}.p95_ms": quantile(samples_ms, q),
        f"{stage}.p95_ms.percentile": 100.0 * q,
    }


def build_corpus(seed: int, start: int, count: int):
    """Synthetic examples start..start+count-1 of seed, annotated with skeletons."""
    spec = TemplateSpec(seed=seed)
    corpus = [synth.generate_example(spec, i) for i in range(start, start + count)]
    return annotate_corpus(corpus, default_stop_words())


def _params_digest(digest, model) -> bool:
    """Feed the parameters into digest; False when any is not finite."""
    finite = True
    for name, p in model.named_parameters():
        digest.update(name.encode())
        digest.update(p.data.tobytes())
        finite = finite and bool(np.isfinite(p.data).all())
    return finite


def repeat_setup(setup, repeats: int):
    """Call setup() `repeats` times: the last result and every timing, by name.

    `setup_s` is corrected to the reference host speed by probes on either
    side of each call; `setup.raw_s` keeps the time as measured.
    """
    probe = hostspeed.Probe()
    times: dict[str, list[float]] = {}
    for _ in range(repeats):
        before = probe.measure()
        result, timing = setup()
        timing["setup.raw_s"] = timing["setup_s"]
        timing["setup_s"] = hostspeed.corrected(timing["setup_s"], before, probe.measure())
        for name, value in timing.items():
            times.setdefault(name, []).append(value)
    return result, times


# -- train ------------------------------------------------------------------

def setup_train(seed: int, p: Plan, cfg: RunConfig):
    """Everything `train` does before its first step: corpus, vocabularies, models."""
    start = perf_counter()
    corpus = build_corpus(seed, 0, p.train_examples)
    built = perf_counter()
    vocab, key_vocab = training.build_vocabularies(corpus, cfg)
    training.build_pointer(cfg, vocab, key_vocab)
    training.build_editor(cfg, vocab, key_vocab)
    return corpus, {"setup_s": perf_counter() - start, "setup.corpus_ms": 1000 * (built - start)}


def run_train(corpus, p: Plan, cfg: RunConfig, tracer=None) -> Outcome:
    """Rounds of one pointer epoch then one editor epoch, each from a fresh model.

    Alternating the stages spreads the step samples of both over the whole
    run, so that a slow spell of a shared host weighs on both alike. Every
    round does the same arithmetic, so every round must end with the same
    parameters.
    """
    out = Outcome()
    clock = StageClock(None if tracer is not None else hostspeed.Probe())
    steps_per_epoch = math.ceil(len(corpus) / cfg.batch_size)
    stages = (
        ("pointer", training.train_pointer, cfg.pointer_epochs, "mean_loss"),
        ("editor", training.train_editor, cfg.editor_epochs, "loss_edit"),
    )
    losses: dict[str, float] = {}
    digests: dict[str, str] = {}
    steps_done = 0
    wall_start = perf_counter()
    for _ in range(p.train_rounds):
        for stage, train, epochs, loss_key in stages:
            planned = steps_per_epoch * epochs
            stamps: list[int] = []
            last_epoch: dict = {}

            def log(record: dict, stage=stage, stamps=stamps, last_epoch=last_epoch) -> None:
                if record["event"] == f"{stage}_step":
                    # A step's time runs from the previous step event to its
                    # own. The first step also builds the vocabulary and the
                    # model, and has no start, so it is not timed.
                    if stamps:
                        clock.stop(stage)
                    else:
                        clock.restart(probe=True)
                    stamps.append(record["step"])
                    if tracer is not None:
                        tracer.example = steps_done + record["step"]
                elif record["event"] == f"{stage}_epoch":
                    last_epoch.update(record)

            out.attempted += planned
            try:
                model, _ = train(corpus, cfg, log)
            except Exception as err:  # a crash fails every step that did not run
                out.failed += planned - len(stamps)
                out.problems.append(f"{stage} training: {type(err).__name__}: {err}")
                continue
            finally:
                steps_done += len(stamps)
                out.values[f"{stage}.examples"] = (
                    out.values.get(f"{stage}.examples", 0) + len(stamps) * cfg.batch_size)
            if len(stamps) != planned:
                out.failed += planned - len(stamps)
                out.problems.append(f"{stage} training ran {len(stamps)} of {planned} steps")
            digest = hashlib.sha256()
            if not _params_digest(digest, model):
                out.problems.append(f"{stage} training left non-finite parameters")
            if digests.setdefault(stage, digest.hexdigest()) != digest.hexdigest():
                out.problems.append(f"determinism: {stage} rounds ended with other parameters")
            loss = last_epoch.get(loss_key, math.nan)
            if not math.isfinite(loss):
                out.problems.append(f"{stage} final-epoch loss is {loss}")
            losses[stage] = loss
    out.wall_s = perf_counter() - wall_start - clock.probing_s
    clock.throughputs(out, cfg.batch_size)
    for stage, *_ in stages:
        if clock.raw[stage]:
            out.samples_ms[stage] = [1000.0 * s / cfg.batch_size for s in clock.raw[stage]]
            out.values.update(latency_stats(stage, out.samples_ms[stage]))
        out.values[f"{stage}_loss"] = losses.get(stage, math.nan)
    out.values["examples"] = sum(out.values.get(f"{s}.examples", 0) for s, *_ in stages)
    out.fingerprint = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    return out


# -- generate -----------------------------------------------------------------

def setup_generate(seed: int, p: Plan, ckpt_dir: str, meta: dict):
    """The held-out corpus and the verified checkpoints."""
    start = perf_counter()
    corpus = build_corpus(seed, HELD_OUT_START, p.generate_examples)
    built = perf_counter()
    models = checkpoints.load(ckpt_dir, meta)
    done = perf_counter()
    return (corpus, models), {
        "setup_s": done - start,
        "setup.corpus_ms": 1000 * (built - start),
        "setup.checkpoint_load_ms": 1000 * (done - built),
    }


def run_generate(corpus, models, tracer=None) -> Outcome:
    pointer, pcfg, editor, ecfg = models
    out = Outcome()
    clock = StageClock(None if tracer is not None else hostspeed.Probe())
    hypotheses: list[list[str]] = []
    exact = truncated = iterations = useful = 0
    terminations = dict.fromkeys(
        (decoding.FIXED_POINT, decoding.MAX_ITERATIONS, "overflow", "non_finite", "error"), 0)
    digest = hashlib.sha256()
    wall_start = perf_counter()
    for i, ex in enumerate(corpus):
        if tracer is not None:
            tracer.example = i
        out.attempted += 1
        tokens: list[str] = []
        clock.restart(probe=False)
        try:
            pred = pointer.beam_search(
                ex.table, pcfg.beam_width, pcfg.max_skeleton_len, pcfg.beam_length_normalize)
        except Exception as err:  # one bad example must not end the run
            clock.stop("pointer")
            out.failed += 1
            terminations["error"] += 1
            out.problems.append(f"example {i}: beam search: {type(err).__name__}: {err}")
            hypotheses.append(tokens)
            continue
        clock.stop("pointer")
        try:
            tokens, trace = decoding.iterate(
                editor, ex.table, pred.tokens, max_iter=ecfg.max_iter,
                hard_constraints=True, max_state_len=ecfg.max_state_len)
        except Exception as err:  # one bad example must not end the run
            clock.stop("editor")
            kind = ("overflow" if isinstance(err, decoding.StateOverflowError)
                    else "non_finite" if isinstance(err, autograd.NonFiniteError) else "error")
            terminations[kind] += 1
            out.failed += 1
            out.problems.append(f"example {i}: realize: {type(err).__name__}: {err}")
        else:
            clock.stop("editor")
            terminations[trace.termination] += 1
            iterations += trace.iterations
            useful += sum(a.tokens != b.tokens for a, b in zip(trace.snapshots, trace.snapshots[1:]))
            if not oracle.is_subsequence(pred.tokens, tokens):
                out.failed += 1
                out.problems.append(f"example {i}: output lost a skeleton token")
        exact += pred.tokens == list(ex.skeleton)
        if not set(pred.tokens) <= ex.table.value_token_set():
            out.problems.append(f"example {i}: skeleton holds a token the table lacks")
        truncated += not pred.finished
        hypotheses.append(tokens)
        digest.update((" ".join(pred.tokens) + "\t" + " ".join(tokens) + "\n").encode())
    eval_start = perf_counter()
    report = metrics.evaluate_outputs(hypotheses, corpus, pcfg.lambda_mix)
    eval_s = perf_counter() - eval_start
    out.wall_s = perf_counter() - wall_start - clock.probing_s
    out.fingerprint = digest.hexdigest()

    n = len(corpus)
    v = out.values
    clock.throughputs(out, 1)
    for stage in ("pointer", "editor"):
        out.samples_ms[stage] = [1000.0 * s for s in clock.raw[stage]]
        v.update(latency_stats(stage, out.samples_ms[stage]))
    v["metrics.bleu"] = report.bleu
    v["metrics.parent_f1"] = report.parent_f1
    v["pointer.skeleton_exact"] = exact / n
    v["pointer.beam_truncated"] = truncated
    v["metrics.evaluate_outputs.ms_per_example"] = 1000.0 * eval_s / n
    decoded = n - terminations["error"] - terminations["overflow"] - terminations["non_finite"]
    v["decoding.iterations_per_example"] = iterations / max(decoded, 1)
    v["decoding.useful_iteration_share"] = useful / max(iterations, 1)
    for kind in ("fixed_point", "max_iterations", "overflow", "non_finite"):
        v[f"decoding.termination.{kind}"] = terminations[kind]
    v["examples"] = v["pointer.examples"] = v["editor.examples"] = n
    return out
