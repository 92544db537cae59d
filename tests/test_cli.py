"""CLI pipeline on a miniature corpus: commands, overrides, determinism."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from skeltext.cli import main
from skeltext.config import SEED_ENV_VAR, RunConfig, parse_override, resolve_config
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


def test_evaluate_on_an_empty_gold_corpus_names_the_problem(tmp_path, capsys):
    gold, system = tmp_path / "gold.jsonl", tmp_path / "system.jsonl"
    gold.write_text("\n")
    system.write_text("")
    assert main(["evaluate", "--system", str(system), "--gold", str(gold)]) == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events[-1]["event"] == "error"
    assert events[-1]["error"] == "ValueError"
    assert "at least one gold example" in events[-1]["message"]


@pytest.mark.parametrize(
    "lines,line_no,problem",
    [
        (['{"text": "a b"}', "{oops"], 2, "malformed JSON ("),
        (["5"], 1, "expected a JSON object with a string 'text'"),
        (['{"text": 5}'], 1, "expected a JSON object with a string 'text'"),
        (['{"txt": "a"}'], 1, "expected a JSON object with a string 'text'"),
    ],
    ids=["not_json", "bare_number", "text_not_a_string", "no_text"],
)
def test_evaluate_names_the_file_and_line_of_a_malformed_system_line(
    tmp_path, capsys, lines, line_no, problem
):
    gold, system = str(tmp_path / "gold.jsonl"), str(tmp_path / "system.jsonl")
    assert main(["synth-corpus", "--n", "2", "--seed", "0", "--out", gold]) == 0
    with open(system, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--system", system, "--gold", gold]) == 1
    event = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (event["event"], event["error"]) == ("error", "CorpusError")
    assert event["message"].startswith(f"{system} line {line_no}: {problem}")


def test_annotate_rejects_a_corpus_holding_a_placeholder_and_writes_nothing(tmp_path, capsys):
    # Read as an ordinary token, a literal <plh> trained the editor on labels
    # one row off and ended `generate` when the skeleton held it.
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "annotated.jsonl"
    line = {"table": [{"key": "Name_ID", "value": "Alda <plh> Fenwick"}],
            "text": "Alda <plh> Fenwick was born ."}
    corpus.write_text(json.dumps(line) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["annotate", "--corpus", str(corpus), "--out", str(out)]) == 1
    event = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (event["event"], event["error"]) == ("error", "CorpusError")
    assert event["message"] == (f"{corpus} line 1: table entry 0: attribute 'Name_ID' value "
                                "holds the reserved token '<plh>'")
    assert not out.exists()


@pytest.mark.parametrize("command", ["annotate", "train-pointer", "train-editor", "skeleton",
                                     "generate", "evaluate --gold", "evaluate --system"])
def test_a_malformed_line_ends_in_one_error_naming_its_file_and_line(
    pipeline, tmp_path, capsys, command
):
    # Every command reads its JSON-lines files through one reader, so each
    # bad line gets one message format: "FILE line N: problem".
    bad, out, system = (str(tmp_path / name) for name in ("bad.jsonl", "out", "system.jsonl"))
    with open(pipeline["annotated"], encoding="utf-8") as fh:
        first = '{"text": "a b"}\n' if command == "evaluate --system" else fh.readline()
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(first + "{oops\n")
    with open(system, "w", encoding="utf-8") as fh:
        fh.write('{"text": "a b"}\n')
    args = {
        "annotate": ["annotate", "--corpus", bad, "--out", out],
        "train-pointer": ["train-pointer", "--corpus", bad, "--out-dir", out, *TINY],
        "train-editor": ["train-editor", "--corpus", bad, "--out-dir", out, *TINY],
        "skeleton": ["skeleton", "--checkpoint", pipeline["pointer"], "--corpus", bad,
                     "--out", out],
        "generate": ["generate", "--editor", pipeline["editor"], "--pointer", pipeline["pointer"],
                     "--corpus", bad, "--out", out],
        "evaluate --gold": ["evaluate", "--system", system, "--gold", bad],
        "evaluate --system": ["evaluate", "--system", bad, "--gold", pipeline["corpus"]],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["message"].startswith(f"{bad} line 2: ")


@pytest.mark.parametrize("command", ["annotate", "annotate --stopwords", "evaluate --system"])
def test_a_byte_that_is_not_utf8_ends_in_one_error_naming_its_file_and_line(
    tmp_path, capsys, command
):
    # A strict read decodes a chunk at a time: the byte on line 2 raised a bare
    # UnicodeDecodeError, naming no file or line, before line 1 was returned.
    corpus, bad, out = (str(tmp_path / name) for name in ("corpus.jsonl", "bad", "out"))
    line = json.dumps({"table": [{"key": "Name_ID", "value": "Alda"}], "text": "Alda ."})
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    first = {"annotate": line, "annotate --stopwords": "the",
             "evaluate --system": '{"text": "Alda ."}'}[command]
    with open(bad, "wb") as fh:
        fh.write(first.encode() + b"\nAl\xffda\n")
    args = {
        "annotate": ["annotate", "--corpus", bad, "--out", out],
        "annotate --stopwords": ["annotate", "--corpus", corpus, "--out", out, "--stopwords", bad],
        "evaluate --system": ["evaluate", "--system", bad, "--gold", corpus],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(e["event"], e["error"]) for e in events] == [
        ("error", "ValueError" if command == "annotate --stopwords" else "CorpusError")
    ]
    assert events[0]["message"] == f"{bad} line 2: byte 0xff at character 3 is not UTF-8 text"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["train-pointer", "train-editor"])
def test_save_optimizer_is_a_usage_error(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--corpus", "c.jsonl", "--out-dir", str(tmp_path), "--save-optimizer"])
    assert info.value.code == 2
    assert "unrecognized arguments: --save-optimizer" in capsys.readouterr().err


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


def test_gradcheck_command_exits_zero(capsys, monkeypatch):
    # Each edit-loss check and the padded pointer check run their training
    # step once, for the analytic gradient; their finite differences
    # evaluate the losses without one.
    from skeltext import gradcheck

    calls: list[str] = []

    def counted(name: str):
        step = getattr(gradcheck, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return step(*args, **kwargs)

        return wrapper

    for name in ("backprop_edit_batch", "backprop_pointer_batch"):
        monkeypatch.setattr(gradcheck, name, counted(name))
    capsys.readouterr()
    assert main(["gradcheck", "--seed", "1"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["layer"] for e in events] == [
        "linear", "embedding", "layer_norm", "multi_head_attention",
        "transformer_encoder_2layer", "transformer_decoder_causal", "softmax",
        "pointer_model_loss", "table_encoder", "editor_model_loss", "zero_parameter_fragment",
        "editor_padded_batch_loss", "pointer_padded_batch_loss",
    ]
    assert all(e["event"] == "gradcheck" and e["pass"] for e in events)
    assert calls == ["backprop_edit_batch", "backprop_edit_batch", "backprop_pointer_batch"]


# -- config resolution ----------------------------------------------------------

def test_parse_override_json_values():
    assert parse_override("d_model=32") == ("d_model", 32)
    assert parse_override("editor_peak_lr=0.001") == ("editor_peak_lr", 0.001)
    assert parse_override("beam_length_normalize=true") == ("beam_length_normalize", True)
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


def _out_of_range():
    """(field, a value just outside its range, the error) for every number field."""
    for f in dataclasses.fields(RunConfig):
        if f.name == "lambda_mix":
            yield from ((f.name, v, "lambda_mix must lie in [0, 1]") for v in (-0.1, 1.1))
        elif f.type == "float":
            yield f.name, -0.5, f"config field {f.name} must be non-negative"
        elif f.name in ("max_iter", "seed"):  # the int fields that may be 0
            yield f.name, -1, f"config field {f.name} must be non-negative"
        elif f.type == "int":
            yield f.name, 0, f"config field {f.name} must be positive"


@pytest.mark.parametrize(
    "name,value,error", [pytest.param(*c, id=f"{c[0]}={c[1]}") for c in _out_of_range()]
)
def test_a_number_field_outside_its_range_is_rejected_naming_it(name, value, error):
    for cfg in (RunConfig(), RunConfig.published_preset()):
        assert cfg.validate() is cfg
        with pytest.raises(ValueError) as info:
            dataclasses.replace(cfg, **{name: value}).validate()
        assert str(info.value) == error


WRONGLY_TYPED = [
    ('beam_length_normalize="no"', "beam_length_normalize"),  # a truthy string would normalize
    ("beam_length_normalize=1", "beam_length_normalize"),
    ('tie_token_head="no"', "tie_token_head"),  # retired: loads only as false
    ("tie_token_head=1", "tie_token_head"),
    ("batch_size=4.0", "batch_size"),
    ("batch_size=true", "batch_size"),  # bool is an int subtype, not an int field
    ("d_model=abc", "d_model"),
    ("seed=null", "seed"),
    ("lambda_del=false", "lambda_del"),
    ('editor_peak_lr="1e-3"', "editor_peak_lr"),
]


@pytest.mark.parametrize("override,field", WRONGLY_TYPED)
def test_a_wrongly_typed_set_fails_before_training_naming_the_field(
    tmp_path, capsys, override, field
):
    out_dir = tmp_path / "out"
    argv = ["train-pointer", "--corpus", str(tmp_path / "absent.jsonl"),
            "--out-dir", str(out_dir), "--set", override]
    assert main(argv) == 1
    [record] = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert record["error"] == "ValueError"
    assert f"config field {field} must be" in record["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("override,field", WRONGLY_TYPED)
def test_a_wrongly_typed_config_file_field_is_rejected_naming_file_and_field(
    tmp_path, override, field
):
    path = tmp_path / "config.json"
    _, value = parse_override(override)
    path.write_text(json.dumps({**RunConfig().to_dict(), field: value}))
    with pytest.raises(ValueError, match=f"config.json: config field {field} must be"):
        RunConfig.from_file(str(path))


def test_float_fields_take_ints_and_saved_configs_load(tmp_path):
    cfg = resolve_config(
        None, ["lambda_del=2", "editor_peak_lr=1", "beam_length_normalize=true"], env={}
    )
    assert (cfg.lambda_del, cfg.editor_peak_lr, cfg.beam_length_normalize) == (2, 1, True)
    for saved in (cfg, RunConfig(), RunConfig.published_preset()):
        path = str(tmp_path / "config.json")
        saved.save(path)
        assert RunConfig.from_file(path) == saved


def test_legacy_zero_dropout_loads(tmp_path):
    # Every config.json written before the field was removed has "dropout": 0.0.
    path = tmp_path / "config.json"
    for zero in (0.0, 0):
        path.write_text(json.dumps({**RunConfig(seed=4).to_dict(), "dropout": zero}))
        assert RunConfig.from_file(str(path)) == RunConfig(seed=4)
    assert "dropout" not in RunConfig().to_dict()


@pytest.mark.parametrize("value", [0.1, 1.0, "0.5", False])
def test_nonzero_dropout_rejected_naming_the_field(value):
    with pytest.raises(ValueError, match="dropout"):
        RunConfig.from_dict({**RunConfig().to_dict(), "dropout": value})


@pytest.mark.parametrize("value", [True, 0, "false", None])
def test_retired_tie_token_head_other_than_false_rejected_naming_file_and_field(tmp_path, value):
    # Every config.json written while the field existed has "tie_token_head": false.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**RunConfig().to_dict(), "tie_token_head": value}))
    with pytest.raises(ValueError, match="config.json: config field tie_token_head"):
        RunConfig.from_file(str(path))
    assert "tie_token_head" not in RunConfig().to_dict()


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

    from helpers import all_value_tokens

    corpus = str(tmp_path / "c.jsonl")
    assert main(["synth-corpus", "--n", "2", "--seed", "0", "--out", corpus]) == 0
    data = load_corpus(corpus)
    skeletons = [(), all_value_tokens(data[1].table)[:1]]
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


def test_generate_a_skeleton_past_the_cap_overflows_as_itself(tmp_path, capsys):
    # The second skeleton alone (10 tokens with its sentinels) is past the cap
    # of 8, so it is never decoded; the run still writes every line.
    from skeltext.data import Example, save_corpus

    from helpers import all_value_tokens

    corpus = str(tmp_path / "c.jsonl")
    assert main(["synth-corpus", "--n", "3", "--seed", "0", "--out", corpus]) == 0
    data = load_corpus(corpus)
    skeletons = [(), tuple((all_value_tokens(data[1].table) * 8)[:8]), ()]
    save_corpus([Example(ex.table, ex.reference, sk) for ex, sk in zip(data, skeletons)], corpus)
    ckpt = _runaway_editor(tmp_path, corpus)
    out = str(tmp_path / "gen.jsonl")
    assert main(["generate", "--editor", ckpt, "--corpus", corpus, "--out", out,
                 "--oracle-skeleton", "--max-iter", "1"]) == 0
    rows = [json.loads(line) for line in _read(out).splitlines()]
    assert [r["termination"] for r in rows] == ["max_iterations", "overflow", "max_iterations"]
    assert rows[1] == {"text": " ".join(skeletons[1]), "iterations": 0, "termination": "overflow"}
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    [warning] = [e for e in events if e["event"] == "warning"]
    assert (warning["example"], warning["termination"]) == (1, "overflow")
    assert "StateOverflowError" in warning["message"]


def _overflowing_editor(tmp_path, corpus_path):
    """A runaway editor whose first decoder layer overflows in float64 on every state.

    Stored weights are float32, so none can exceed 3.4e38; a chain of them
    (token embedding, its projection, then the values and the output of the
    first self-attention) gives attention outputs near 1e157, whose squares
    overflow the residual LayerNorm's variance in float64.
    """
    from skeltext.nn import save_checkpoint
    from skeltext.training import load_editor_dir

    ckpt = _runaway_editor(tmp_path, corpus_path, max_state_len=64)
    model, _ = load_editor_dir(ckpt)
    attn = model.decoder.layers[0].self_attn
    for p in (model.encoder.tok_emb.weight, model.in_proj.weight, attn.wv.weight, attn.wo.weight):
        p.data[...] = np.finfo(np.float32).max
    attn.wo.weight.data[:, ::2] *= -1.0  # rows of +-1e157 deviate from their mean
    save_checkpoint(ckpt, model)
    return ckpt


def test_generate_non_finite_is_a_per_example_outcome(tmp_path, capsys):
    corpus, skeletons = _two_example_corpus(tmp_path)
    ckpt = _overflowing_editor(tmp_path, corpus)
    out = str(tmp_path / "gen.jsonl")
    assert main(["generate", "--editor", ckpt, "--corpus", corpus, "--out", out,
                 "--oracle-skeleton"]) == 0
    rows = [json.loads(line) for line in _read(out).splitlines()]
    assert rows == [
        {"text": " ".join(sk), "iterations": 0, "termination": "non_finite"} for sk in skeletons
    ]
    assert _closing_event(capsys.readouterr().err)["terminations"]["non_finite"] == 2


def test_generate_overflow_ends_non_finite_without_a_warning(tmp_path, capsys):
    import warnings

    corpus, _ = _two_example_corpus(tmp_path)
    ckpt = _overflowing_editor(tmp_path, corpus)
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


def test_generate_rejects_a_checkpoint_holding_a_non_finite_value(tmp_path, capsys):
    # Two NaNs; the error names the first parameter, in manifest order.
    from skeltext.nn import save_checkpoint
    from skeltext.training import load_editor_dir

    corpus, _ = _two_example_corpus(tmp_path)
    ckpt = _runaway_editor(tmp_path, corpus, max_state_len=64)
    model, _ = load_editor_dir(ckpt)
    model.encoder.fuse.bias.data[3] = np.nan
    model.w_tok.weight.data[0, 0] = np.inf
    save_checkpoint(ckpt, model)
    out = tmp_path / "gen.jsonl"
    assert main(["generate", "--editor", ckpt, "--corpus", corpus, "--out", str(out),
                 "--oracle-skeleton"]) == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events].count("error") == 1
    assert (events[-1]["error"], events[-1]["message"]) == (
        "ValueError",
        f"{os.path.join(ckpt, 'params.bin')}: parameter encoder.fuse.bias holds a non-finite value",
    )
    assert not out.exists()


def _pointer_with_a_nan_token(tmp_path, corpus_path, monkeypatch):
    """Untrained tiny pointer whose embedding of one token of example 1 only is NaN.

    A checkpoint holding a NaN is rejected when loaded, so the NaN is set in
    the model the CLI loads, and met by the forward pass of that example.
    """
    from skeltext import cli
    from skeltext.training import (
        build_pointer, build_vocabularies, load_pointer_dir, save_model_dir,
    )

    from helpers import all_value_tokens, tiny_config

    data = load_corpus(corpus_path)
    token = sorted(set(all_value_tokens(data[1].table)) - set(all_value_tokens(data[0].table)))[0]
    cfg = tiny_config(seed=0)
    ckpt = str(tmp_path / "nan-pointer")
    save_model_dir(ckpt, build_pointer(cfg, *build_vocabularies(data, cfg)), cfg)

    def load_with_a_nan(directory):
        model, loaded_cfg = load_pointer_dir(directory)
        model.encoder.tok_emb.weight.data[model.vocab.token_to_id[token], 0] = np.nan
        return model, loaded_cfg

    monkeypatch.setattr(cli, "load_pointer_dir", load_with_a_nan)
    return ckpt


def test_generate_stage1_non_finite_is_a_per_example_outcome(tmp_path, capsys, monkeypatch):
    corpus, _ = _two_example_corpus(tmp_path)
    pointer = _pointer_with_a_nan_token(tmp_path, corpus, monkeypatch)
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


def test_skeleton_stage1_non_finite_names_the_example(tmp_path, capsys, monkeypatch):
    corpus, _ = _two_example_corpus(tmp_path)
    pointer = _pointer_with_a_nan_token(tmp_path, corpus, monkeypatch)
    out = tmp_path / "skeletons.jsonl"
    assert main(["skeleton", "--checkpoint", pointer, "--corpus", corpus, "--out", str(out)]) == 1
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events[-1]["event"] == "error"
    assert events[-1]["error"] == "NonFiniteError"
    assert events[-1]["message"].startswith("example 1: stage 1")
    assert not out.exists()


def test_a_truncation_warning_names_the_truncated_examples(tmp_path, capsys):
    from skeltext.training import build_pointer, build_vocabularies, save_model_dir

    from helpers import tiny_config

    corpus = str(tmp_path / "c.jsonl")
    assert main(["synth-corpus", "--n", "8", "--seed", "0", "--out", corpus]) == 0
    data = load_corpus(corpus)
    cfg = tiny_config(seed=0, max_skeleton_len=1)  # untrained: EOS rarely wins in 2 steps
    model = build_pointer(cfg, *build_vocabularies(data, cfg))
    ckpt = str(tmp_path / "pointer")
    save_model_dir(ckpt, model, cfg)
    truncated = [i for i, ex in enumerate(data)
                 if not model.beam_search(ex.table, cfg.beam_width, 1).finished]
    assert 0 < len(truncated) < len(data)
    capsys.readouterr()
    out = str(tmp_path / "skeletons.jsonl")
    assert main(["skeleton", "--checkpoint", ckpt, "--corpus", corpus, "--out", out]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    [warning] = [e for e in events if e["event"] == "warning"]
    assert warning["examples"] == truncated
    assert warning["message"] == f"{len(truncated)} skeleton(s) truncated at max length"


@pytest.mark.parametrize(
    "env,argv,named",
    [
        (None, ["generate", "--editor", "{editor}", "--corpus", "{annotated}", "--out", "{out}",
                "--oracle-skeleton", "--max-iter", "-1"],
         "--max-iter: config field max_iter must be non-negative"),
        (None, ["generate", "--editor", "{editor}", "--pointer", "{pointer}", "--corpus",
                "{corpus}", "--out", "{out}", "--beam-width", "0"],
         "--beam-width: config field beam_width"),
        (None, ["generate", "--editor", "{editor}", "--corpus", "{annotated}", "--out", "{out}",
                "--oracle-skeleton", "--beam-width", "0"], "--beam-width: config field beam_width"),
        (None, ["skeleton", "--checkpoint", "{pointer}", "--corpus", "{corpus}", "--out", "{out}",
                "--beam-width", "0"], "--beam-width: config field beam_width"),
        (None, ["evaluate", "--system", "{absent}", "--gold", "{absent}", "--lambda-mix", "1.5"],
         "--lambda-mix: lambda_mix must lie in [0, 1]"),
        (None, ["evaluate", "--system", "{absent}", "--gold", "{absent}", "--lambda-mix", "-1"],
         "--lambda-mix: lambda_mix must lie in [0, 1]"),
        (None, ["train-pointer", "--corpus", "{empty}", "--out-dir", "{out}", *TINY],
         "pointer training corpus is empty"),
        (None, ["train-editor", "--corpus", "{empty}", "--out-dir", "{out}", *TINY],
         "editor training corpus is empty"),
        (None, ["train-pointer", "--corpus", "{annotated}", "--out-dir", "{out}", *TINY,
                "--set", "seed=-1"], "config field seed must be non-negative"),
        ("abc", ["train-editor", "--corpus", "{annotated}", "--out-dir", "{out}", *TINY],
         "SANA_SEED='abc': invalid literal for int()"),
        ("-1", ["train-pointer", "--corpus", "{annotated}", "--out-dir", "{out}", *TINY],
         "SANA_SEED='-1': config field seed must be non-negative"),
        (None, ["synth-corpus", "--n", "4", "--seed", "-1", "--out", "{out}"],
         "--seed: config field seed must be non-negative"),
        (None, ["gradcheck", "--seed", "-1"], "--seed: config field seed must be non-negative"),
    ],
    ids=["max_iter", "generate_beam_width", "oracle_generate_beam_width", "skeleton_beam_width",
         "lambda_mix_above", "lambda_mix_below", "empty_pointer_corpus", "empty_editor_corpus",
         "set_seed", "env_seed_not_int", "env_seed_negative", "synth_seed", "gradcheck_seed"],
)
def test_a_bad_flag_or_corpus_fails_naming_it_and_writes_nothing(
    pipeline, tmp_path, capsys, monkeypatch, env, argv, named
):
    # `env` is the SANA_SEED the command runs under, if any.
    if env is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    paths = {**pipeline, "out": str(out), "empty": str(empty), "absent": str(tmp_path / "no")}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    event = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert (event["event"], event["error"]) == ("error", "ValueError")
    assert named in event["message"]
    assert not out.exists()


def test_generate_counts_the_outputs_that_keep_their_skeleton(pipeline, tmp_path, capsys):
    out = str(tmp_path / "gen.jsonl")
    capsys.readouterr()
    assert main(["generate", "--editor", pipeline["editor"], "--corpus", pipeline["annotated"],
                 "--out", out, "--oracle-skeleton", "--max-iter", "2"]) == 0
    closing = _closing_event(capsys.readouterr().err)
    assert closing["n"] == closing["skeleton_preserved"] == 20


@pytest.mark.parametrize("hard", [True, False])
def test_generate_warns_of_an_output_that_lost_its_skeleton_only_under_hard_constraints(
    tmp_path, capsys, monkeypatch, hard
):
    from skeltext import decoding

    def drop_everything(model, table, skeleton, **kwargs):
        return [], decoding.DecodeTrace([decoding.init_state(skeleton)], decoding.FIXED_POINT)

    corpus, _ = _two_example_corpus(tmp_path)  # skeletons: empty, then one token
    ckpt = _runaway_editor(tmp_path, corpus)
    monkeypatch.setattr(decoding, "iterate", drop_everything)
    flags = [] if hard else ["--no-hard-constraints"]
    assert main(["generate", "--editor", ckpt, "--corpus", corpus, "--out",
                 str(tmp_path / "gen.jsonl"), "--oracle-skeleton", *flags]) == 0
    stderr = capsys.readouterr().err
    warnings = [json.loads(line) for line in stderr.splitlines() if '"warning"' in line]
    assert [w["example"] for w in warnings] == ([1] if hard else [])
    assert _closing_event(stderr)["skeleton_preserved"] == 1


def _pipeline_digest():
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "pipeline_digest.py")
    spec = importlib.util.spec_from_file_location("_pipeline_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_the_pipeline_digest_runs_every_subcommand_with_arguments_that_parse():
    import argparse

    from skeltext.cli import build_parser

    digest = _pipeline_digest()

    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for seed in digest.SEEDS:
        steps = digest.steps(seed)
        assert {args[0] for _, args in steps} == set(subparsers.choices)
        assert len({name for name, _ in steps}) == len(steps)
        for _, args in steps:
            parser.parse_args(args)


def test_the_pipeline_digests_beam_scores_hold_each_results_score_bits(pipeline, monkeypatch,
                                                                       capsys):
    from skeltext.training import load_pointer_dir

    monkeypatch.chdir(pipeline["root"])
    exec(_pipeline_digest()._BEAM_SCORES, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 * 20  # widths 1 and 5, each with and without normalization
    model, cfg = load_pointer_dir(pipeline["pointer"])
    table = load_corpus(pipeline["corpus"])[0].table
    best = model.beam_search(table, 5, cfg.max_skeleton_len, True)
    assert lines[3 * 20] == f"5 True {best.tokens} {best.score.hex()} {best.finished}"


def test_the_pipeline_digests_stage2_traces_hold_every_snapshot(pipeline, monkeypatch, capsys):
    from skeltext.decoding import iterate
    from skeltext.training import load_editor_dir

    monkeypatch.chdir(pipeline["root"])
    assert main(["skeleton", "--checkpoint", pipeline["pointer"], "--corpus",
                 pipeline["annotated"], "--out", "skeletons.jsonl"]) == 0
    capsys.readouterr()
    exec(_pipeline_digest()._STAGE2_TRACES, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 * 20  # two skeleton sources, each with and without hard constraints
    model, cfg = load_editor_dir(pipeline["editor"])
    example = load_corpus("skeletons.jsonl")[3]
    _, trace = iterate(model, example.table, example.skeleton, cfg.max_iter, False)
    snapshots = " ".join(str((s.tokens, s.protected)) for s in trace.snapshots)
    assert lines[3 * 20 + 3] == f"skeletons.jsonl False 3 {trace.termination} None {snapshots}"


def test_every_option_that_sets_a_config_field_defaults_to_none():
    """RunConfig states each default once: a flag for a config field has no default of its own."""
    import argparse

    from skeltext.cli import build_parser

    fields = {f.name for f in dataclasses.fields(RunConfig)}
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = [(command, action.option_strings[0], action.default)
               for command, sub in subparsers.choices.items()
               for action in sub._actions if action.dest in fields]
    assert ("evaluate", "--lambda-mix") in [o[:2] for o in options]  # the walk finds flags
    assert [o for o in options if o[2] is not None] == []
