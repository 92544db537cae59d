"""Command-line pipeline: corpus synthesis through training, generation, scoring."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import decoding, metrics
from .autograd import NonFiniteError
from .config import RunConfig, resolve_config
from .data import Corpus, Example, load_corpus, open_text, read_json_lines, save_corpus, tokenize
from .gradcheck import TOLERANCE, run_gradcheck
from .pointer import SkeletonPrediction, predict_skeletons
from .skeleton import StopWordList, annotate_corpus, default_stop_words
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
    seed = _flag_overrides(RunConfig(), seed=args.seed).seed
    corpus = generate(TemplateSpec(seed=seed), args.n)
    save_corpus(corpus, args.out)
    _log({"event": "synth_corpus", "n": len(corpus), "out": args.out})
    return 0


def _cmd_annotate(args) -> int:
    corpus = load_corpus(args.corpus)
    stop_words = StopWordList.from_file(args.stopwords) if args.stopwords else default_stop_words()
    annotated = annotate_corpus(corpus, stop_words)
    save_corpus(annotated, args.out)
    _log({"event": "annotate", "n": len(annotated), "out": args.out})
    return 0


def _cmd_train(args) -> int:
    cfg = resolve_config(args.config, args.set)
    corpus = load_corpus(args.corpus)
    model, opt = args.train(corpus, cfg, _log)
    save_model_dir(args.out_dir, model, cfg)
    _log({"event": "checkpoint", "dir": args.out_dir, "steps": opt.step_count})
    return 0


def _flag_overrides(cfg: RunConfig, **flags) -> RunConfig:
    """cfg with the flags given on the command line set, checked as the config's own fields are."""
    given = {name: value for name, value in flags.items() if value is not None}
    try:
        return cfg.with_overrides(given)
    except ValueError as err:
        names = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ValueError(f"{names}: {err}") from None


def _predict_skeletons(model, cfg: RunConfig, corpus: Corpus):
    """Each example's stage-1 skeleton or NonFiniteError; a warning names the truncated ones."""
    predictions = predict_skeletons(model, [ex.table for ex in corpus], cfg.beam_width,
                                    cfg.max_skeleton_len, cfg.beam_length_normalize)
    truncated = [i for i, p in enumerate(predictions)
                 if isinstance(p, SkeletonPrediction) and not p.finished]
    if truncated:
        _log({"event": "warning", "examples": truncated,
              "message": f"{len(truncated)} skeleton(s) truncated at max length"})
    return [p if isinstance(p, NonFiniteError) else p.tokens for p in predictions]


def _stage1_failure(i: int, err: NonFiniteError) -> str:
    return f"example {i}: stage 1 (skeleton beam search): {type(err).__name__}: {err}"


def _cmd_skeleton(args) -> int:
    model, cfg = load_pointer_dir(args.checkpoint)
    cfg = _flag_overrides(cfg, beam_width=args.beam_width)
    corpus = load_corpus(args.corpus)
    annotated = []
    for i, (ex, skeleton) in enumerate(zip(corpus, _predict_skeletons(model, cfg, corpus))):
        if isinstance(skeleton, NonFiniteError):
            raise NonFiniteError(_stage1_failure(i, skeleton))
        annotated.append(Example(ex.table, ex.reference, tuple(skeleton)))
    save_corpus(annotated, args.out)
    _log({"event": "skeleton", "n": len(annotated), "out": args.out})
    return 0


def _cmd_generate(args) -> int:
    editor, cfg = load_editor_dir(args.editor)
    cfg = _flag_overrides(cfg, max_iter=args.max_iter)
    corpus = load_corpus(args.corpus)
    if args.oracle_skeleton:
        _flag_overrides(RunConfig(), beam_width=args.beam_width)  # unused, but still checked
        for i, ex in enumerate(corpus):
            if ex.skeleton is None:
                raise ValueError(f"example {i}: --oracle-skeleton needs annotated skeletons")
        skeletons = [ex.skeleton for ex in corpus]
    else:
        if not args.pointer:
            raise ValueError("--pointer checkpoint required unless --oracle-skeleton is set")
        pointer_model, pointer_cfg = load_pointer_dir(args.pointer)
        pointer_cfg = _flag_overrides(pointer_cfg, beam_width=args.beam_width)
        skeletons = _predict_skeletons(pointer_model, pointer_cfg, corpus)
    terminations = dict.fromkeys(decoding.TERMINATIONS, 0)
    preserved = 0  # outputs that still hold their stage-1 skeleton
    outcomes = decoding.realize_corpus(editor, [ex.table for ex in corpus], skeletons,
                                       cfg.max_iter, not args.no_hard_constraints)
    with open(args.out, "w", encoding="utf-8") as fh:
        for i, out in enumerate(outcomes):
            if out.error is not None:
                message = f"{type(out.error).__name__}: {out.error}"
                _log({"event": "warning", "example": i, "termination": out.termination,
                      "message": _stage1_failure(i, out.error) if out.trace is None else message})
            preserved += bool(out.preserved)
            if out.preserved is False and not args.no_hard_constraints:
                _log({"event": "warning", "example": i,
                      "message": f"example {i}: output lost its skeleton under hard constraints"})
            terminations[out.termination] += 1
            row = {"text": " ".join(out.tokens),
                   "iterations": out.trace.iterations if out.trace else 0,
                   "termination": out.termination}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    _log({"event": "generate", "n": len(corpus), "out": args.out, "terminations": terminations,
          "skeleton_preserved": preserved})
    return 0


def _output_tokens(obj) -> list[str]:
    """The tokens of one generation-output line."""
    if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
        raise ValueError("expected a JSON object with a string 'text'")
    return tokenize(obj["text"])


def _cmd_evaluate(args) -> int:
    lambda_mix = _flag_overrides(RunConfig(), lambda_mix=args.lambda_mix).lambda_mix
    gold = load_corpus(args.gold)
    with open_text(args.system) as fh:
        hypotheses = read_json_lines(fh, _output_tokens)
    report = metrics.evaluate_outputs(hypotheses, gold, lambda_mix)
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
    results = run_gradcheck(_flag_overrides(RunConfig(), seed=args.seed).seed)
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
    p.add_argument("--seed", type=int)
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
    p.add_argument("--lambda-mix", type=float)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of all layers and models")
    p.add_argument("--seed", type=int)
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
