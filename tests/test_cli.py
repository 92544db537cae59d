"""CLI pipeline on a miniature corpus: commands, overrides, determinism."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from skeltext.cli import main
from skeltext.config import RunConfig, parse_override, resolve_config
from skeltext.data import load_corpus

TINY = [
    "--set", "d_model=16", "--set", "d_hidden=24", "--set", "n_heads=2",
    "--set", "n_layers=1", "--set", "token_dim=10", "--set", "key_dim=6",
    "--set", "pos_dim=4", "--set", "pointer_epochs=4", "--set", "editor_epochs=4",
    "--set", "pointer_warmup=20", "--set", "editor_warmup=20", "--set", "batch_size=5",
    "--set", "k_max=2", "--set", "max_skeleton_len=16",
]


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole CLI pipeline once on a 20-example corpus."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = str(root / "corpus.jsonl")
    annotated = str(root / "annotated.jsonl")
    pointer_dir = str(root / "pointer")
    editor_dir = str(root / "editor")
    assert main(["synth-corpus", "--n", "20", "--seed", "3", "--out", corpus]) == 0
    assert main(["annotate", "--corpus", corpus, "--out", annotated]) == 0
    assert main(["train-pointer", "--corpus", annotated, "--out-dir", pointer_dir, *TINY]) == 0
    assert main(["train-editor", "--corpus", annotated, "--out-dir", editor_dir, *TINY]) == 0
    return {
        "root": root,
        "corpus": corpus,
        "annotated": annotated,
        "pointer": pointer_dir,
        "editor": editor_dir,
    }


def test_synth_corpus_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["synth-corpus", "--n", "8", "--seed", "1", "--out", out1]) == 0
    assert main(["synth-corpus", "--n", "8", "--seed", "1", "--out", out2]) == 0
    assert _read(out1) == _read(out2)


def test_annotate_adds_skeleton_field(pipeline):
    corpus = load_corpus(pipeline["annotated"])
    assert len(corpus) == 20
    for ex in corpus:
        assert ex.skeleton is not None and len(ex.skeleton) > 0
    raw = _read(pipeline["annotated"]).splitlines()[0]
    assert "skeleton" in json.loads(raw)


def test_checkpoint_directory_layout(pipeline):
    for directory in (pipeline["pointer"], pipeline["editor"]):
        for name in ("manifest.json", "params.bin", "config.json", "vocab.json", "keys.json"):
            assert os.path.exists(os.path.join(directory, name)), name
        manifest = json.loads(_read(os.path.join(directory, "manifest.json")))
        assert all({"name", "shape", "dtype"} <= set(e) for e in manifest)
        size = sum(
            int(__import__("numpy").prod(e["shape"])) if e["shape"] else 1 for e in manifest
        )
        assert os.path.getsize(os.path.join(directory, "params.bin")) == 4 * size


def test_skeleton_command_writes_predictions(pipeline, tmp_path):
    out = str(tmp_path / "skeletons.jsonl")
    code = main(
        ["skeleton", "--checkpoint", pipeline["pointer"], "--corpus", pipeline["corpus"],
         "--out", out, "--beam-width", "2"]
    )
    assert code == 0
    corpus = load_corpus(out)
    assert len(corpus) == 20
    assert all(ex.skeleton is not None for ex in corpus)


def test_generate_with_oracle_skeleton_bypasses_pointer(pipeline, tmp_path):
    out = str(tmp_path / "gen.jsonl")
    code = main(
        ["generate", "--editor", pipeline["editor"], "--corpus", pipeline["annotated"],
         "--out", out, "--oracle-skeleton", "--max-iter", "3"]
    )
    assert code == 0
    lines = [json.loads(l) for l in _read(out).splitlines()]
    assert len(lines) == 20
    for obj in lines:
        assert set(obj) == {"text", "iterations", "termination"}
        assert obj["termination"] in ("fixed_point", "max_iterations")
        assert obj["iterations"] <= 3


def test_generate_requires_pointer_or_oracle(pipeline, tmp_path):
    out = str(tmp_path / "gen.jsonl")
    code = main(
        ["generate", "--editor", pipeline["editor"], "--corpus", pipeline["annotated"],
         "--out", out]
    )
    assert code == 1


def test_generate_with_pointer_checkpoint(pipeline, tmp_path):
    out = str(tmp_path / "gen2.jsonl")
    code = main(
        ["generate", "--editor", pipeline["editor"], "--pointer", pipeline["pointer"],
         "--corpus", pipeline["corpus"], "--out", out, "--beam-width", "2",
         "--max-iter", "2"]
    )
    assert code == 0
    assert len(_read(out).splitlines()) == 20


def test_generate_hard_constraint_flag_accepted(pipeline, tmp_path):
    out = str(tmp_path / "gen3.jsonl")
    code = main(
        ["generate", "--editor", pipeline["editor"], "--corpus", pipeline["annotated"],
         "--out", out, "--oracle-skeleton", "--no-hard-constraints", "--max-iter", "2"]
    )
    assert code == 0


def test_generate_deterministic_outputs(pipeline, tmp_path):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    args = ["generate", "--editor", pipeline["editor"], "--corpus", pipeline["annotated"],
            "--oracle-skeleton", "--max-iter", "3"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert _read(a) == _read(b)


def test_evaluate_command(pipeline, tmp_path, capsys):
    gen = str(tmp_path / "gen.jsonl")
    main(["generate", "--editor", pipeline["editor"], "--corpus", pipeline["annotated"],
          "--out", gen, "--oracle-skeleton", "--max-iter", "2"])
    capsys.readouterr()
    code = main(["evaluate", "--system", gen, "--gold", pipeline["corpus"]])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"bleu", "parent", "parent_t", "per_example"}
    assert 0 <= report["bleu"] <= 100
    for block in (report["parent"], report["parent_t"]):
        assert set(block) == {"precision", "recall", "f1"}


def test_evaluate_count_mismatch_fails(pipeline, tmp_path):
    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w") as fh:
        fh.write('{"text": "only one line"}\n')
    assert main(["evaluate", "--system", bad, "--gold", pipeline["corpus"]]) == 1


def test_train_is_deterministic_given_seed(pipeline, tmp_path):
    dir1 = str(tmp_path / "p1")
    dir2 = str(tmp_path / "p2")
    args = ["train-pointer", "--corpus", pipeline["annotated"], *TINY,
            "--set", "pointer_epochs=2"]
    assert main(args + ["--out-dir", dir1]) == 0
    assert main(args + ["--out-dir", dir2]) == 0
    with open(os.path.join(dir1, "params.bin"), "rb") as fh:
        bytes1 = fh.read()
    with open(os.path.join(dir2, "params.bin"), "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2
    assert _read(os.path.join(dir1, "manifest.json")) == _read(os.path.join(dir2, "manifest.json"))


def test_missing_checkpoint_is_clean_failure(tmp_path):
    out = str(tmp_path / "x.jsonl")
    corpus = str(tmp_path / "c.jsonl")
    main(["synth-corpus", "--n", "2", "--seed", "0", "--out", corpus])
    assert main(["skeleton", "--checkpoint", str(tmp_path / "nope"), "--corpus", corpus,
                 "--out", out]) == 1


def test_dimension_mismatch_against_checkpoint_fails(pipeline, tmp_path):
    # retrain with different dims into the same directory layout, then load
    # with a config claiming other dims
    import shutil

    broken = str(tmp_path / "broken")
    shutil.copytree(pipeline["pointer"], broken)
    cfg = RunConfig.from_file(os.path.join(broken, "config.json"))
    cfg.d_model = 32
    cfg.save(os.path.join(broken, "config.json"))
    out = str(tmp_path / "y.jsonl")
    assert main(["skeleton", "--checkpoint", broken, "--corpus", pipeline["corpus"],
                 "--out", out]) == 1


def test_no_hard_constraints_flag_is_live_end_to_end(tmp_path):
    # An untrained editor wants to edit aggressively, so constrained and
    # unconstrained decodes of the same corpus must diverge, and only the
    # constrained outputs are guaranteed to retain their skeletons.
    from skeltext.oracle import is_subsequence
    from skeltext.training import build_editor, build_vocabularies, save_model_dir

    from helpers import tiny_config

    corpus, ann = str(tmp_path / "c.jsonl"), str(tmp_path / "a.jsonl")
    assert main(["synth-corpus", "--n", "5", "--seed", "0", "--out", corpus]) == 0
    assert main(["annotate", "--corpus", corpus, "--out", ann]) == 0
    data = load_corpus(ann)
    cfg = tiny_config(seed=0, k_max=2)
    vocab, key_vocab = build_vocabularies(data, cfg)
    ckpt = str(tmp_path / "editor")
    save_model_dir(ckpt, build_editor(cfg, vocab, key_vocab), cfg)
    constrained = str(tmp_path / "on.jsonl")
    ablated = str(tmp_path / "off.jsonl")
    base = ["generate", "--editor", ckpt, "--corpus", ann, "--oracle-skeleton",
            "--max-iter", "2"]
    assert main(base + ["--out", constrained]) == 0
    assert main(base + ["--out", ablated, "--no-hard-constraints"]) == 0
    assert _read(constrained) != _read(ablated)
    for ex, line in zip(data, _read(constrained).splitlines()):
        assert is_subsequence(list(ex.skeleton), json.loads(line)["text"].split())


def test_gradcheck_command_exits_zero():
    assert main(["gradcheck", "--seed", "1"]) == 0


# -- config resolution ----------------------------------------------------------

def test_parse_override_json_values():
    assert parse_override("d_model=32") == ("d_model", 32)
    assert parse_override("editor_peak_lr=0.001") == ("editor_peak_lr", 0.001)
    assert parse_override("tie_token_head=true") == ("tie_token_head", True)
    with pytest.raises(ValueError):
        parse_override("no-equals-sign")


def test_resolve_config_precedence(tmp_path):
    path = str(tmp_path / "cfg.json")
    RunConfig(seed=1, d_model=32).save(path)
    cfg = resolve_config(path, [], env={})
    assert (cfg.seed, cfg.d_model) == (1, 32)
    cfg = resolve_config(path, [], env={"SANA_SEED": "7"})
    assert cfg.seed == 7
    cfg = resolve_config(path, ["seed=9"], env={"SANA_SEED": "7"})
    assert cfg.seed == 9  # explicit flags win over the environment


def test_resolve_config_rejects_unknown_field(tmp_path):
    with pytest.raises(ValueError):
        resolve_config(None, ["not_a_field=1"], env={})


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(beam_width=0).validate()
    with pytest.raises(ValueError):
        RunConfig(d_model=30, n_heads=4).validate()
    with pytest.raises(ValueError):
        RunConfig.from_dict({"dropout": 0.5})
    with pytest.raises(ValueError):
        RunConfig(lambda_mix=1.5).validate()


def test_legacy_zero_dropout_loads(tmp_path):
    # Every config.json written before the field was removed has "dropout": 0.0.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**RunConfig(seed=4).to_dict(), "dropout": 0.0}))
    assert RunConfig.from_file(str(path)) == RunConfig(seed=4)
    assert "dropout" not in RunConfig().to_dict()


@pytest.mark.parametrize("value", [0.1, 1.0, "0.5"])
def test_nonzero_dropout_rejected_naming_the_field(value):
    with pytest.raises(ValueError, match="dropout"):
        RunConfig.from_dict({**RunConfig().to_dict(), "dropout": value})


def test_published_preset_dimensions():
    cfg = RunConfig.published_preset()
    assert (cfg.d_model, cfg.d_hidden, cfg.n_heads, cfg.n_layers) == (512, 2048, 8, 6)
    assert (cfg.token_dim, cfg.key_dim, cfg.pos_dim) == (420, 80, 5)
    assert (cfg.pointer_peak_lr, cfg.pointer_warmup) == (3e-4, 4_000)
    assert (cfg.editor_peak_lr, cfg.editor_warmup) == (5e-4, 10_000)
    assert cfg.beam_width == 5
    assert cfg.vocab_cap == 50_000
    cfg.validate()


def _runaway_editor(tmp_path, corpus_path, max_state_len=8, k_max=4):
    """Tiny editor checkpoint rigged to insert k_max tokens into every slot."""
    from skeltext.training import build_editor, build_vocabularies, save_model_dir

    from helpers import tiny_config

    cfg = tiny_config(seed=0, k_max=k_max, max_state_len=max_state_len)
    model = build_editor(cfg, *build_vocabularies(load_corpus(corpus_path), cfg))
    last = model.decoder.layers[-1].ln3
    last.gain.data[...] = 0.0  # every hidden state is the constant bias row
    last.bias.data[...] = 1.0
    model.w_plh.weight.data[...] = 0.0
    model.w_plh.weight.data[:, k_max] = 1.0
    ckpt = str(tmp_path / "runaway")
    save_model_dir(ckpt, model, cfg)
    return ckpt


def _two_example_corpus(tmp_path):
    from skeltext.data import Example, save_corpus

    corpus = str(tmp_path / "c.jsonl")
    assert main(["synth-corpus", "--n", "2", "--seed", "0", "--out", corpus]) == 0
    data = load_corpus(corpus)
    skeletons = [(), data[1].table.all_value_tokens()[:1]]
    annotated = [Example(ex.table, ex.reference, tuple(sk)) for ex, sk in zip(data, skeletons)]
    path = str(tmp_path / "a.jsonl")
    save_corpus(annotated, path)
    return path, skeletons


def _closing_event(stderr: str) -> dict:
    events = [json.loads(line) for line in stderr.splitlines() if line.startswith("{")]
    return [e for e in events if e["event"] == "generate"][-1]


def test_generate_overflow_is_a_per_example_outcome(tmp_path, capsys):
    # With a cap of 8 and 4 insertions per slot, the empty skeleton grows to
    # 6 tokens and stops at the iteration cap, while the one-token skeleton
    # (3 tokens, 2 slots -> 11) overflows in its first iteration.
    corpus, skeletons = _two_example_corpus(tmp_path)
    ckpt = _runaway_editor(tmp_path, corpus)
    out = str(tmp_path / "gen.jsonl")
    assert main(["generate", "--editor", ckpt, "--corpus", corpus, "--out", out,
                 "--oracle-skeleton", "--max-iter", "1"]) == 0
    rows = [json.loads(line) for line in _read(out).splitlines()]
    assert [r["termination"] for r in rows] == ["max_iterations", "overflow"]
    assert len(rows[0]["text"].split()) == 4
    assert rows[1] == {"text": " ".join(skeletons[1]), "iterations": 0, "termination": "overflow"}
    closing = _closing_event(capsys.readouterr().err)
    assert closing["terminations"] == {
        "fixed_point": 0, "max_iterations": 1, "overflow": 1, "non_finite": 0
    }


def test_generate_non_finite_is_a_per_example_outcome(tmp_path, capsys):
    from skeltext.nn import save_checkpoint
    from skeltext.training import load_editor_dir

    corpus, skeletons = _two_example_corpus(tmp_path)
    ckpt = _runaway_editor(tmp_path, corpus, max_state_len=64)
    model, _ = load_editor_dir(ckpt)
    model.decoder.layers[0].cross_attn.wk.weight.data[0, 0] = np.nan
    save_checkpoint(ckpt, model)
    out = str(tmp_path / "gen.jsonl")
    assert main(["generate", "--editor", ckpt, "--corpus", corpus, "--out", out,
                 "--oracle-skeleton"]) == 0
    rows = [json.loads(line) for line in _read(out).splitlines()]
    assert rows == [
        {"text": " ".join(sk), "iterations": 0, "termination": "non_finite"} for sk in skeletons
    ]
    assert _closing_event(capsys.readouterr().err)["terminations"]["non_finite"] == 2


def test_generate_overflow_ends_non_finite_without_a_warning(tmp_path, capsys):
    # Stored weights are float32, so none can exceed 3.4e38; a chain of them
    # (token embedding, its projection, then the values and the output of the
    # first self-attention) gives attention outputs near 1e157, whose squares
    # overflow the residual LayerNorm's variance in float64.
    import warnings

    from skeltext.nn import save_checkpoint
    from skeltext.training import load_editor_dir

    corpus, skeletons = _two_example_corpus(tmp_path)
    ckpt = _runaway_editor(tmp_path, corpus, max_state_len=64)
    model, _ = load_editor_dir(ckpt)
    attn = model.decoder.layers[0].self_attn
    for p in (model.encoder.tok_emb.weight, model.in_proj.weight, attn.wv.weight, attn.wo.weight):
        p.data[...] = np.finfo(np.float32).max
    attn.wo.weight.data[:, ::2] *= -1.0  # rows of +-1e157 deviate from their mean
    save_checkpoint(ckpt, model)
    out = str(tmp_path / "gen.jsonl")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["generate", "--editor", ckpt, "--corpus", corpus, "--out", out,
                     "--oracle-skeleton"]) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    rows = [json.loads(line) for line in _read(out).splitlines()]
    assert [r["termination"] for r in rows] == ["non_finite", "non_finite"]
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["example"] for e in events if e["event"] == "warning"] == [0, 1]
    assert all("from layer_norm" in e["message"] for e in events if e["event"] == "warning")


def _pointer_with_a_nan_token(tmp_path, corpus_path):
    """Untrained tiny pointer whose embedding of one token of example 1 only is NaN."""
    from skeltext.training import build_pointer, build_vocabularies, save_model_dir

    from helpers import tiny_config

    data = load_corpus(corpus_path)
    token = sorted(set(data[1].table.all_value_tokens()) - set(data[0].table.all_value_tokens()))[0]
    cfg = tiny_config(seed=0)
    model = build_pointer(cfg, *build_vocabularies(data, cfg))
    model.encoder.tok_emb.weight.data[model.vocab.id_of(token), 0] = np.nan
    ckpt = str(tmp_path / "nan-pointer")
    save_model_dir(ckpt, model, cfg)
    return ckpt


def test_generate_stage1_non_finite_is_a_per_example_outcome(tmp_path, capsys):
    corpus, _ = _two_example_corpus(tmp_path)
    pointer = _pointer_with_a_nan_token(tmp_path, corpus)
    editor = _runaway_editor(tmp_path, corpus, max_state_len=64)
    out = str(tmp_path / "gen.jsonl")
    assert main(["generate", "--editor", editor, "--pointer", pointer, "--corpus", corpus,
                 "--out", out, "--max-iter", "1"]) == 0
    rows = [json.loads(line) for line in _read(out).splitlines()]
    assert rows[0]["termination"] == "max_iterations"
    assert rows[1] == {"text": "", "iterations": 0, "termination": "non_finite"}
    err = capsys.readouterr().err
    warnings = [json.loads(line) for line in err.splitlines() if '"warning"' in line]
    assert [(w["example"], w["termination"]) for w in warnings] == [(1, "non_finite")]
    assert "example 1: stage 1" in warnings[0]["message"]
    assert _closing_event(err)["terminations"] == {
        "fixed_point": 0, "max_iterations": 1, "overflow": 0, "non_finite": 1
    }


def test_skeleton_stage1_non_finite_names_the_example(tmp_path, capsys):
    corpus, _ = _two_example_corpus(tmp_path)
    pointer = _pointer_with_a_nan_token(tmp_path, corpus)
    out = tmp_path / "skeletons.jsonl"
    assert main(["skeleton", "--checkpoint", pointer, "--corpus", corpus, "--out", str(out)]) == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events[-1]["event"] == "error"
    assert events[-1]["error"] == "NonFiniteError"
    assert events[-1]["message"].startswith("example 1: stage 1")
    assert not out.exists()
