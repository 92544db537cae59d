"""Command-line pipeline: corpus synthesis through training, generation, scoring."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import decoding, metrics
from .autograd import NonFiniteError
from .config import RunConfig, resolve_config
from .data import (
    Corpus,
    Example,
    StopWordList,
    load_corpus,
    save_corpus,
    tokenize,
)
from .gradcheck import TOLERANCE, run_gradcheck
from .pointer import SkeletonPrediction
from .skeleton import annotate_corpus
from .stopwords import default_stop_words
from .synth import TemplateSpec, generate
from .training import (
    load_editor_dir,
    load_pointer_dir,
    save_model_dir,
    train_editor,
    train_pointer,
)


def _log(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _cmd_synth_corpus(args) -> int:
    corpus = generate(TemplateSpec(seed=args.seed), args.n)
    save_corpus(corpus, args.out)
    _log({"event": "synth_corpus", "n": len(corpus), "out": args.out})
    return 0


def _load_stopwords(path: str | None) -> StopWordList:
    return StopWordList.from_file(path) if path else default_stop_words()


def _cmd_annotate(args) -> int:
    corpus = load_corpus(args.corpus)
    annotated = annotate_corpus(corpus, _load_stopwords(args.stopwords))
    save_corpus(annotated, args.out)
    _log({"event": "annotate", "n": len(annotated), "out": args.out})
    return 0


def _cmd_train(args) -> int:
    cfg = resolve_config(args.config, args.set)
    corpus = load_corpus(args.corpus)
    model, opt = args.train(corpus, cfg, _log)
    save_model_dir(args.out_dir, model, cfg, opt if args.save_optimizer else None)
    _log({"event": "checkpoint", "dir": args.out_dir, "steps": opt.step_count})
    return 0


def _predict_skeletons(model, cfg: RunConfig, corpus: Corpus, beam_width: int | None):
    """Beam-search skeletons; an example whose search met a non-finite value gets the error."""
    width = beam_width if beam_width is not None else cfg.beam_width
    predictions: list[SkeletonPrediction | NonFiniteError] = []
    truncated = 0
    for ex in corpus:
        try:
            pred = model.beam_search(
                ex.table, width, cfg.max_skeleton_len, cfg.beam_length_normalize
            )
        except NonFiniteError as err:
            predictions.append(err)
            continue
        if not pred.finished:
            truncated += 1
        predictions.append(pred)
    if truncated:
        _log({"event": "warning", "message": f"{truncated} skeleton(s) truncated at max length"})
    return predictions


def _stage1_failure(i: int, err: NonFiniteError) -> str:
    return f"example {i}: stage 1 (skeleton beam search): {type(err).__name__}: {err}"


def _cmd_skeleton(args) -> int:
    model, cfg = load_pointer_dir(args.checkpoint)
    corpus = load_corpus(args.corpus)
    predictions = _predict_skeletons(model, cfg, corpus, args.beam_width)
    for i, pred in enumerate(predictions):
        if isinstance(pred, NonFiniteError):
            raise NonFiniteError(_stage1_failure(i, pred))
    annotated = [
        Example(ex.table, ex.reference, tuple(pred.tokens))
        for ex, pred in zip(corpus, predictions)
    ]
    save_corpus(annotated, args.out)
    _log({"event": "skeleton", "n": len(annotated), "out": args.out})
    return 0


def _cmd_generate(args) -> int:
    editor, cfg = load_editor_dir(args.editor)
    corpus = load_corpus(args.corpus)
    max_iter = cfg.max_iter if args.max_iter is None else args.max_iter
    if args.oracle_skeleton:
        for i, ex in enumerate(corpus):
            if ex.skeleton is None:
                raise ValueError(f"example {i}: --oracle-skeleton needs annotated skeletons")
        skeletons = [list(ex.skeleton) for ex in corpus]
    else:
        if not args.pointer:
            raise ValueError("--pointer checkpoint required unless --oracle-skeleton is set")
        pointer_model, pointer_cfg = load_pointer_dir(args.pointer)
        predictions = _predict_skeletons(pointer_model, pointer_cfg, corpus, args.beam_width)
        skeletons = [p if isinstance(p, NonFiniteError) else p.tokens for p in predictions]
    terminations = dict.fromkeys(
        (decoding.FIXED_POINT, decoding.MAX_ITERATIONS, decoding.OVERFLOW, decoding.NON_FINITE), 0
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, (ex, skeleton) in enumerate(zip(corpus, skeletons)):
            if isinstance(skeleton, NonFiniteError):
                # Stage 1 found no skeleton, so there is nothing to realize.
                tokens, iterations, termination = [], 0, decoding.NON_FINITE
                _log({"event": "warning", "example": i, "termination": termination,
                      "message": _stage1_failure(i, skeleton)})
            else:
                try:
                    tokens, trace = decoding.iterate(
                        editor, ex.table, skeleton,
                        max_iter=max_iter,
                        hard_constraints=not args.no_hard_constraints,
                        max_state_len=cfg.max_state_len,
                    )
                except (decoding.StateOverflowError, NonFiniteError) as err:
                    # One runaway example must not end the run: keep its last
                    # state within the cap, which still holds the skeleton.
                    trace = err.trace
                    tokens = list(trace.snapshots[-1].body())
                    _log({"event": "warning", "example": i, "termination": trace.termination,
                          "message": f"{type(err).__name__}: {err}"})
                iterations, termination = trace.iterations, trace.termination
            terminations[termination] += 1
            row = {"text": " ".join(tokens), "iterations": iterations, "termination": termination}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    _log({"event": "generate", "n": len(corpus), "out": args.out, "terminations": terminations})
    return 0


def _cmd_evaluate(args) -> int:
    gold = load_corpus(args.gold)
    hypotheses = []
    with open(args.system, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if "text" not in obj:
                raise ValueError(f"{args.system} line {line_no}: missing 'text'")
            hypotheses.append(tokenize(obj["text"]))
    report = metrics.evaluate_outputs(hypotheses, gold, args.lambda_mix)
    print(json.dumps(report.as_dict(), sort_keys=True))
    rows = [
        ("BLEU", report.bleu, "", ""),
        ("PARENT", report.parent_precision, report.parent_recall, report.parent_f1),
        ("PARENT-T", report.parent_t_precision, report.parent_t_recall, report.parent_t_f1),
    ]
    print(f"{'metric':<10}{'P':>10}{'R':>10}{'F1':>10}", file=sys.stderr)
    for name, p, r, f in rows:
        fmt = lambda v: f"{v:>10.4f}" if v != "" else f"{'':>10}"
        print(f"{name:<10}{fmt(p)}{fmt(r)}{fmt(f)}", file=sys.stderr)
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(args.seed)
    failures = 0
    for name, err in results:
        ok = bool(err < TOLERANCE)
        failures += 0 if ok else 1
        _log({"event": "gradcheck", "layer": name, "max_rel_error": float(err), "pass": ok})
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeltext",
        description="Two-stage table-to-text: pointer-selected skeletons expanded by an edit model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate the deterministic synthetic corpus")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_corpus)

    p = sub.add_parser("annotate", help="add oracle skeleton annotations to a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stopwords", help="optional stop-word file, one token per line")
    p.set_defaults(func=_cmd_annotate)

    for name, train in (("train-pointer", train_pointer), ("train-editor", train_editor)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} on an annotated corpus")
        p.add_argument("--corpus", required=True)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--config", help="JSON config file (defaults used otherwise)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override; wins over the file and SANA_SEED")
        p.add_argument("--save-optimizer", action="store_true",
                       help="include optimizer state for resuming")
        p.set_defaults(func=_cmd_train, train=train)

    p = sub.add_parser("skeleton", help="predict skeletons with a trained pointer")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam-width", type=int)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("generate", help="expand skeletons into text with a trained editor")
    p.add_argument("--editor", required=True, help="editor checkpoint directory")
    p.add_argument("--pointer", help="pointer checkpoint directory (stage-1 skeletons)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--beam-width", type=int)
    p.add_argument("--no-hard-constraints", action="store_true",
                   help="ablation: allow deleting skeleton tokens")
    p.add_argument("--oracle-skeleton", action="store_true",
                   help="use annotated skeletons; the pointer checkpoint is bypassed")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="score system output against a gold corpus")
    p.add_argument("--system", required=True, help="generation output JSON Lines")
    p.add_argument("--gold", required=True, help="gold corpus JSON Lines")
    p.add_argument("--lambda-mix", type=float, default=0.5)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of all layers and models")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An overflow or invalid value ends in a NonFiniteError, which the
        # commands report per example; numpy's warning would only print
        # between the JSON-lines records.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except Exception as err:  # surface a clean diagnostic, nonzero exit
        _log({"event": "error", "error": type(err).__name__, "message": str(err)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
