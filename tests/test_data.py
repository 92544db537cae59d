"""Tables, tokenization, vocabulary, and linearization contracts."""

from __future__ import annotations

import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeltext.data import (
    EOS_TOKEN,
    RESERVED_TOKENS,
    Attribute,
    CorpusError,
    Example,
    Table,
    Vocabulary,
    build_vocabulary,
    linearize_table,
    load_corpus,
    parse_corpus,
    tokenize,
    write_corpus,
)

from helpers import random_table


def test_tokenize_whitespace_split():
    assert tokenize("Thaila Ayala") == ["Thaila", "Ayala"]
    assert tokenize("") == []
    assert tokenize("8 November 1908") == ["8", "November", "1908"]
    assert tokenize("  spaced\tout\n tokens ") == ["spaced", "out", "tokens"]


def test_tokenize_never_yields_empty_tokens():
    rng = np.random.default_rng(0)
    pieces = ["a", "bb", " ", "\t", "\n", "cc d"]
    for _ in range(200):
        text = "".join(pieces[int(i)] for i in rng.integers(0, len(pieces), size=10))
        toks = tokenize(text)
        assert all(toks)
        assert toks == text.split()


def _line(table, text, **extra):
    return json.dumps({"table": table, "text": text, **extra})


def test_parse_corpus_single_line():
    line = _line([{"key": "Name_ID", "value": "Thaila Ayala"}], "Thaila Ayala was born")
    corpus = parse_corpus(io.StringIO(line + "\n"))
    assert len(corpus) == 1
    ex = corpus[0]
    assert ex.table.attributes[0].key == "Name_ID"
    assert ex.table.attributes[0].value_tokens == ("Thaila", "Ayala")
    assert ex.reference == ("Thaila", "Ayala", "was", "born")
    assert ex.skeleton is None


def test_parse_corpus_preserves_order():
    lines = "\n".join(
        _line([{"key": "K", "value": f"v{i}"}], f"text {i}") for i in range(3)
    )
    corpus = parse_corpus(io.StringIO(lines))
    assert [ex.reference[1] for ex in corpus] == ["0", "1", "2"]


def test_parse_corpus_missing_table_names_line():
    good = _line([{"key": "K", "value": "v"}], "x")
    bad = json.dumps({"text": "no table here"})
    with pytest.raises(CorpusError, match="line 2"):
        parse_corpus(io.StringIO(good + "\n" + bad + "\n"))


def test_parse_corpus_malformed_json_names_line():
    with pytest.raises(CorpusError, match="line 1"):
        parse_corpus(io.StringIO("{not json}\n"))


def test_parse_corpus_empty_table_rejected():
    with pytest.raises(CorpusError, match="non-empty"):
        parse_corpus(io.StringIO(_line([], "x") + "\n"))


def test_parse_corpus_skeleton_field_roundtrip():
    line = _line([{"key": "K", "value": "v"}], "v x", skeleton=["v"])
    corpus = parse_corpus(io.StringIO(line + "\n"))
    assert corpus[0].skeleton == ("v",)


@pytest.mark.parametrize(
    "field, token, named",
    [
        ("value", "<plh>",
         "table entry 1: attribute 'Occupation' value holds the reserved token '<plh>'"),
        ("value", "<pad>",
         "table entry 1: attribute 'Occupation' value holds the reserved token '<pad>'"),
        ("text", "<bos>", "reference holds the reserved token '<bos>'"),
        ("text", "<plh>", "reference holds the reserved token '<plh>'"),
        ("skeleton", "<eos>", "skeleton holds the reserved token '<eos>'"),
        ("skeleton", "<plh>", "skeleton holds the reserved token '<plh>'"),
    ],
    ids=["value_plh", "value_pad", "text_bos", "text_plh", "skeleton_eos", "skeleton_plh"],
)
def test_a_reserved_token_in_a_corpus_is_an_error_naming_line_field_and_token(
    field, token, named
):
    # A literal placeholder in the text would make the edit oracle count it as
    # a slot to fill; sentinels and padding mean something in the models too.
    fields = {"value": "sculptor", "text": "Alda was a sculptor", "skeleton": ["Alda"]}
    fields[field] = [token] if field == "skeleton" else f"{fields[field]} {token}"
    table = [{"key": "Name_ID", "value": "Alda"}, {"key": "Occupation", "value": fields["value"]}]
    bad = _line(table, fields["text"], skeleton=fields["skeleton"])
    good = _line(table[:1], "Alda <unk> .", skeleton=["Alda"])  # <unk> is an ordinary token
    assert parse_corpus([good])[0].reference == ("Alda", "<unk>", ".")
    with pytest.raises(CorpusError) as info:
        parse_corpus([good, bad])
    assert str(info.value) == f"line 2: {named}"


_ALDA = {"key": "Name_ID", "value": "Alda"}


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"table": [_ALDA, {"key": "Born", "value": None}]},
         "table entry 1 ('Born') value must be a JSON string, got null"),
        ({"table": [{"key": "Age", "value": 41}]},
         "table entry 0 ('Age') value must be a JSON string, got 41"),
        ({"table": [{"key": None, "value": "Alda"}]},
         "table entry 0 key must be a JSON string, got null"),
        ({"text": None}, "text must be a JSON string, got null"),
        ({"text": ["Alda", "."]}, 'text must be a JSON string, got ["Alda", "."]'),
        ({"skeleton": ["Alda", None]}, "skeleton entry 1 must be a JSON string, got null"),
        ({"skeleton": [{"x": 1}]}, 'skeleton entry 0 must be a JSON string, got {"x": 1}'),
        ({"skeleton": ["Alda", ""]}, "skeleton holds '', which is not one token"),
        ({"skeleton": ["Alda Fenwick"]}, "skeleton holds 'Alda Fenwick', which is not one token"),
        ({"skeleton": [" Alda"]}, "skeleton holds ' Alda', which is not one token"),
        *(({"table": [_ALDA, {"key": key, "value": "sculptor"}]},
           f"table entry 1: attribute key holds the reserved token {key!r}")
          for key in ("<pad>", "<bos>", "<eos>", "<plh>")),
        *(({"table": [_ALDA, {"key": key, "value": "sculptor"}]},
           f"table entry 1: attribute key holds {key!r}, which is not one token")
          for key in ("Birth place", "", " Name_ID")),
    ],
    ids=["value_null", "value_number", "key_null", "text_null", "text_list", "skeleton_null",
         "skeleton_object", "skeleton_empty", "skeleton_two_tokens", "skeleton_padded",
         "key_pad", "key_bos", "key_eos", "key_plh", "key_two_tokens", "key_empty", "key_padded"],
)
def test_a_field_that_is_not_its_tokens_is_an_error_naming_line_field_and_value(fields, named):
    # str() of a non-string made tokens such as 'None' and "{'x': 1}", and an
    # empty skeleton token was written out as a double space. Keys share the
    # reserved ids: <eos> would take the EOS cell's key id, <pad> the padding's.
    line = {"table": [_ALDA], "text": "Alda .", "skeleton": ["Alda"], **fields}
    with pytest.raises(CorpusError) as info:
        parse_corpus([_VALID, json.dumps(line)])
    assert str(info.value) == f"line 2: {named}"


def test_an_unk_key_is_an_ordinary_key():
    (ex,) = parse_corpus([_line([{"key": "<unk>", "value": "Alda"}], "Alda .")])
    assert ex.table.attributes[0].key == "<unk>"


def test_corpus_roundtrip_identical():
    rng = np.random.default_rng(1)
    corpus = []
    for i in range(20):
        table = random_table(rng)
        ref = tuple(f"tok{j}" for j in range(int(rng.integers(1, 6))))
        skel = ref[:1] if i % 2 else None
        corpus.append(Example(table, ref, skel))
    buf = io.StringIO()
    write_corpus(corpus, buf)
    again = parse_corpus(io.StringIO(buf.getvalue()))
    assert again == corpus
    buf2 = io.StringIO()
    write_corpus(again, buf2)
    assert buf.getvalue() == buf2.getvalue()


_RESERVED = ("<pad>", "<bos>", "<eos>", "<plh>")
_WORDS = st.sampled_from(["Alda", "Fenwick", "born", "<unk>"])
_SPACES = st.sampled_from([" ", "\t", "\x1c"])  # str.split() splits at each
_ODD_TOKENS = st.one_of(
    st.sampled_from(_RESERVED),
    st.just(""),
    st.just("Al\ud800da"),  # a lone surrogate: valid JSON, but no UTF-8 file holds it
    _SPACES,
    st.tuples(_WORDS, _SPACES, _WORDS).map("".join),
    st.tuples(_SPACES, _WORDS).map("".join),
    st.tuples(_WORDS, _SPACES).map("".join),
)
_TOKENS = st.one_of(*[_WORDS] * 5, _ODD_TOKENS)  # about one token in six is odd


def _not_a_corpus_token(token: str) -> bool:
    return tokenize(token) != [token] or token in _RESERVED or "\ud800" in token


@settings(max_examples=300, deadline=None)
@given(_TOKENS, st.lists(_TOKENS, min_size=1, max_size=3), st.lists(_TOKENS, max_size=4),
       st.none() | st.lists(_TOKENS, max_size=3))
# The shapes that saved and then did not load, or loaded back changed.
@example("Name", ["Alda"], ["Alda"], ["<eos>"])
@example("Name", ["Alda"], ["Alda"], ["Alda Fenwick"])
@example("Name", [""], ["Alda"], None)
@example("Name", ["Alda"], ["Alda Fenwick"], None)
@example("Name", ["Alda Fenwick"], ["Alda"], None)
@example("Name", ["Alda"], [""], None)
@example("Name", ["Alda"], ["Al\ud800da"], None)
def test_an_example_either_names_its_bad_token_or_saves_and_loads_back_equal(
    key, value, reference, skeleton
):
    try:
        ex = Example(Table((Attribute(key, value),)), reference, skeleton)
    except ValueError as err:
        fields = [("attribute key", [key]), (f"attribute {key!r} value", value),
                  ("reference", reference), ("skeleton", skeleton or [])]
        field, tokens = next((f, ts) for f, ts in fields if any(map(_not_a_corpus_token, ts)))
        assert str(err).startswith(f"{field} holds ")
        assert any(repr(t) in str(err) for t in tokens if _not_a_corpus_token(t))
        return
    buf = io.StringIO()
    write_corpus([ex], buf)
    text = buf.getvalue().encode("utf-8").decode("utf-8")  # as a corpus file holds it
    assert parse_corpus(io.StringIO(text)) == [ex]


def test_a_lone_surrogate_is_an_error_naming_line_field_and_token():
    # Valid JSON that loaded, and then ended annotate in save_corpus with a
    # UnicodeEncodeError and an empty output file.
    line = (r'{"table": [{"key": "Name_ID", "value": "Al\ud800da"}], '
            r'"text": "Al\ud800da was born ."}')
    with pytest.raises(CorpusError) as info:
        parse_corpus([line])
    assert str(info.value) == (r"line 1: table entry 0: attribute 'Name_ID' value holds "
                               r"'Al\ud800da', which is not UTF-8 text")
    with pytest.raises(ValueError, match=r"^reference holds 'Al\\ud800da', which is not UTF-8 text$"):
        Example(Table((Attribute("Name_ID", ("Alda",)),)), ("Al\ud800da", "was", "born"))


def test_a_byte_that_is_not_utf8_is_a_corpus_error_naming_its_file_and_line(tmp_path):
    # A strict read decodes a chunk at a time: on this file it raised a bare
    # UnicodeDecodeError, naming no file or line, before returning line 1.
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(json.dumps({"table": [_ALDA], "text": "Alda ."}).encode() + b"\n"
                     + b'{"table": [{"key": "Name_ID", "value": "Al\xffda"}], "text": "."}\n')
    with pytest.raises(CorpusError) as info:
        load_corpus(str(path))
    assert info.value.line == 2
    assert str(info.value) == f"{path} line 2: byte 0xff at character 43 is not UTF-8 text"


def test_attribute_invariants():
    with pytest.raises(ValueError):
        Attribute("K", ())
    with pytest.raises(ValueError):
        Attribute("bad key", ("v",))
    with pytest.raises(ValueError):
        Attribute("", ("v",))
    with pytest.raises(ValueError):
        Table(())


def test_a_token_that_is_not_a_string_is_an_error_naming_the_field_and_the_token():
    # str.join's own TypeError named neither.
    table = Table((Attribute("K", ("x",)),))
    cases = [
        (lambda: Attribute("K", (1,)), "attribute 'K' value holds 1, which is not a string"),
        (lambda: Attribute(7, ("x",)), "attribute key holds 7, which is not a string"),
        (lambda: Example(table, ("x", None)), "reference holds None, which is not a string"),
        (lambda: Example(table, ("x",), (b"x",)), "skeleton holds b'x', which is not a string"),
    ]
    for build, message in cases:
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message


def test_the_token_rule_holds_a_list_as_it_holds_its_tuple():
    # A list never equals the tuple its text splits back into: a valid list
    # raised a bare StopIteration from the search for its bad token.
    from skeltext.data import _check_tokens

    _check_tokens("skeleton", ["a", "b"])
    _check_tokens("skeleton", [])
    for tokens, message in [(["a", "b c"], "skeleton holds 'b c', which is not one token"),
                            (["a", ""], "skeleton holds '', which is not one token"),
                            (["<eos>", "a"], "skeleton holds the reserved token '<eos>'")]:
        with pytest.raises(ValueError) as info:
            _check_tokens("skeleton", tokens)
        assert str(info.value) == message


@pytest.mark.parametrize("token", ["<pad>", "<bos>", "<eos>", "<plh>"])
def test_an_attribute_rejects_a_reserved_token_naming_the_attribute(token):
    # A table holding <eos> as a value would let the pointer learn to copy it.
    with pytest.raises(ValueError) as info:
        Table((Attribute("K", (token, "x")),))
    assert str(info.value) == f"attribute 'K' value holds the reserved token {token!r}"
    with pytest.raises(ValueError) as info:
        Attribute(token, ("x",))
    assert str(info.value) == f"attribute key holds the reserved token {token!r}"
    assert Attribute("<unk>", ("x", "<unk>")).value_tokens == ("x", "<unk>")


@pytest.mark.parametrize("token", ["<pad>", "<bos>", "<eos>", "<plh>"])
def test_an_example_rejects_a_reserved_token_in_its_reference_naming_it(token):
    # A <plh> read as a reference token counted as a slot of its own, so the
    # editor was trained on fill labels one slot off, with no error.
    table = Table((Attribute("Name", ("Alda", "Fenwick")),))
    with pytest.raises(ValueError) as info:
        Example(table, ("Alda", token, "Fenwick", "was", "<eos>", "born"))
    assert str(info.value) == f"reference holds the reserved token {token!r}"
    assert Example(table, ["Alda", "<unk>", "born"]).reference == ("Alda", "<unk>", "born")
    # The skeleton holds the same rule: saved, it would not load back.
    with pytest.raises(ValueError) as info:
        Example(table, ("Alda", "born"), ("Alda", token))
    assert str(info.value) == f"skeleton holds the reserved token {token!r}"
    assert Example(table, ("Alda", "born"), ["<unk>"]).skeleton == ("<unk>",)


def test_vocabulary_reserved_ids_fixed():
    vocab = build_vocabulary([], cap=100)
    assert len(vocab) == 5
    for i, tok in enumerate(RESERVED_TOKENS):
        assert vocab.token_to_id[tok] == i
        assert vocab.token_of(i) == tok


def test_vocabulary_counts_three_distinct():
    corpus = [Example(Table((Attribute("K", ("x",)),)), ("x", "y", "z"))]
    vocab = build_vocabulary(corpus, cap=100)
    assert len(vocab) == 8  # 3 distinct tokens + 5 reserved


def test_vocabulary_tie_breaks_by_first_occurrence():
    # a and b both end up with count 5; a is seen first; cap=6 keeps only one.
    table = Table((Attribute("K", ("a", "b")),))
    corpus = [Example(table, ("a", "b") * 4)]
    vocab = build_vocabulary(corpus, cap=6)
    assert "a" in vocab.token_to_id
    assert "b" not in vocab.token_to_id
    assert vocab.ids(["b"]) == vocab.ids(["<unk>"])


def test_build_vocabularies_pins_both_id_lists():
    from skeltext.config import RunConfig
    from skeltext.training import build_vocabularies

    # zeta and alpha tie at 2. zeta is seen first, in a table value and then
    # in the reference, so it takes the lower id, though it sorts after alpha
    # and alpha's last occurrence comes before zeta's. <unk> takes no slot,
    # neither in a reference nor as a key; keys keep their first-seen order.
    corpus = [
        Example(
            Table((Attribute("Name", ("zeta", "x")), Attribute("Job", ("x",)))),
            ("alpha", "x", "alpha", "<unk>", "zeta"),
        ),
        Example(
            Table((Attribute("Job", ("mid",)), Attribute("<unk>", ("mid",)),
                   Attribute("Born", ("x",)))),
            ("mid",),
        ),
    ]
    vocab, key_vocab = build_vocabularies(corpus, RunConfig())
    assert vocab.to_json() == [*RESERVED_TOKENS, "x", "mid", "zeta", "alpha"]
    assert key_vocab.to_json() == [*RESERVED_TOKENS, "Name", "Job", "Born"]
    assert vocab.ids(("x", "alpha", "<unk>")) == [5, 8, 1]


def test_vocabulary_default_cap_matches_published_setting():
    import inspect

    from skeltext.config import RunConfig

    assert inspect.signature(build_vocabulary).parameters["cap"].default == 50_000
    assert RunConfig().vocab_cap == 50_000


def test_vocabulary_cap_too_small():
    with pytest.raises(ValueError):
        build_vocabulary([], cap=4)


def test_vocabulary_roundtrip_lookup():
    rng = np.random.default_rng(2)
    tokens = [f"w{i}" for i in range(50)]
    vocab = Vocabulary(tokens)
    for tok in tokens:
        assert vocab.token_of(vocab.token_to_id[tok]) == tok
    again = Vocabulary.from_json(vocab.to_json())
    assert again.to_json() == vocab.to_json()
    for _ in range(100):
        idx = int(rng.integers(0, len(vocab)))
        assert again.token_to_id[again.token_of(idx)] == idx


@pytest.mark.parametrize(
    "extra,token,positions",
    [(["w1"], "w1", (6, 8)), ([RESERVED_TOKENS[2]], RESERVED_TOKENS[2], (2, 8))],
    ids=["ordinary", "reserved"],
)
def test_a_vocabulary_file_repeating_a_token_names_it_and_both_positions(extra, token, positions):
    # Dropping the repeat would shift every later id off its weights.
    tokens = Vocabulary(["w0", "w1", "w2"]).to_json() + extra
    message = f"repeats token '{token}' at positions {positions[0]} and {positions[1]}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Vocabulary.from_json(tokens)


def test_linearize_published_example():
    table = Table((Attribute("Name_ID", ("Thaila", "Ayala")),))
    cells = linearize_table(table)
    assert [(c.token, c.key, c.fwd_pos, c.bwd_pos) for c in cells] == [
        ("Thaila", "Name_ID", 1, 2),
        ("Ayala", "Name_ID", 2, 1),
        (EOS_TOKEN, EOS_TOKEN, 1, 1),
    ]


def test_linearize_single_token_value():
    cells = linearize_table(Table((Attribute("K", ("x",)),)))
    assert [(c.token, c.fwd_pos, c.bwd_pos) for c in cells] == [
        ("x", 1, 1),
        (EOS_TOKEN, 1, 1),
    ]


def test_linearize_two_attributes_positions():
    table = Table(
        (
            Attribute("A", ("a1", "a2")),
            Attribute("B", ("b1", "b2", "b3")),
        )
    )
    cells = linearize_table(table)
    assert len(cells) == 6  # 5 value cells + EOS
    for cell in cells[:2]:
        assert cell.fwd_pos + cell.bwd_pos == 3
    for cell in cells[2:5]:
        assert cell.fwd_pos + cell.bwd_pos == 4


def test_linearize_invariants_random_tables():
    rng = np.random.default_rng(3)
    for _ in range(100):
        table = random_table(rng, max_attrs=5, max_value_len=6)
        cells = linearize_table(table)
        total = sum(len(a.value_tokens) for a in table.attributes)
        assert len(cells) == total + 1
        assert cells[-1].token == EOS_TOKEN and cells[-1].key == EOS_TOKEN
        assert (cells[-1].fwd_pos, cells[-1].bwd_pos) == (1, 1)
        i = 0
        for attr in table.attributes:
            length = len(attr.value_tokens)
            for j in range(length):
                cell = cells[i]
                assert cell.key == attr.key
                assert cell.fwd_pos + cell.bwd_pos == length + 1
                assert cell.fwd_pos + cell.bwd_pos - 1 == length
                i += 1


# -- fuzzing (hypothesis) ------------------------------------------------------


_VALID = json.dumps({"table": [{"key": "Name_ID", "value": "Alda Fenwick"}], "text": "Alda ."})

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
# Objects shaped like corpus lines, any field of which may be missing or wrong.
_ENTRY = st.dictionaries(st.sampled_from(["key", "value", "other"]), _JSON, max_size=3)
_NEAR_LINES = st.fixed_dictionaries(
    {},
    optional={
        "table": st.lists(_ENTRY | _JSON, max_size=3) | _JSON,
        "text": _JSON,
        "skeleton": st.lists(_JSON, max_size=3) | _JSON,
    },
)
_LINES = st.one_of(
    st.text(max_size=40),
    _JSON.map(json.dumps),
    _NEAR_LINES.map(json.dumps),
    st.integers(0, len(_VALID)).map(lambda n: _VALID[:n]),  # truncated lines
    st.sampled_from([10, 1_000, 100_000]).map(lambda n: "[" * n),  # deep nesting
    st.sampled_from([10, 1_000, 100_000]).map(lambda n: '{"a":' * n),
    st.integers(4_000, 5_000).map(lambda n: "7" * n),  # beyond the int digit limit
)


@settings(max_examples=300, deadline=None)
@given(_LINES)
def test_every_malformed_line_is_a_corpus_error_naming_it(line):
    try:
        corpus = parse_corpus([_VALID, line, _VALID])
    except CorpusError as err:
        assert err.line == 2
        assert str(err).startswith("line 2: ")
    else:  # the line was well formed, or blank
        assert len(corpus) == (2 if not line.strip() else 3)


def test_a_deeply_nested_line_is_a_corpus_error():
    with pytest.raises(CorpusError, match="^line 2: JSON nested too deeply$"):
        parse_corpus([_VALID, "[" * 100_000])
