"""Tables, corpora, tokenization, vocabularies, and table linearization."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import IO, Callable, Iterable, NamedTuple, Sequence

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
PLH_TOKEN = "<plh>"

# Reserved ids are frozen so checkpoints stay portable across vocab rebuilds.
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN, PLH_TOKEN)
PAD_ID, UNK_ID, BOS_ID, EOS_ID, PLH_ID = range(5)
# Padding, the sentinels and the placeholder mean something in a model's
# input, so a corpus may not hold them; <unk> maps to the id it names.
_FORBIDDEN_TOKENS = frozenset(RESERVED_TOKENS) - {UNK_TOKEN}


class CorpusError(ValueError):
    """A malformed line of a JSON-lines file; the message names the file and the line."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(message)


def tokenize(text: str) -> list[str]:
    """Split text into maximal runs of non-whitespace, preserving order."""
    return text.split()


def utf8_problem(text: str) -> str | None:
    """None for UTF-8 text, else what is not: a lone surrogate, as open_text escapes a bad byte."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as err:
            ch = text[err.start]
            what = f"byte 0x{ord(ch) - 0xDC00:02x}" if "\udc80" <= ch <= "\udcff" else repr(ch)
            return f"{what} at character {err.start + 1} is not UTF-8 text"
    return None


def _check_tokens(field: str, tokens: Sequence[str]) -> None:
    """The corpus file's rule for every token: one non-empty run of non-whitespace, not reserved.

    Tokens of UTF-8 text that the file's text splits back into are what saves and loads back equal.
    `tokens` may be any sequence: a list is held to the rule as its tuple is.
    """
    try:
        text = " ".join(tokens)
    except TypeError:  # str.join names neither the field nor the token
        token = next(t for t in tokens if not isinstance(t, str))
        raise TypeError(f"{field} holds {token!r}, which is not a string") from None
    if tuple(tokenize(text)) != tuple(tokens) or not _FORBIDDEN_TOKENS.isdisjoint(tokens):
        token = next(t for t in tokens if tokenize(t) != [t] or t in _FORBIDDEN_TOKENS)
        if token in _FORBIDDEN_TOKENS:
            raise ValueError(f"{field} holds the reserved token {token!r}")
        raise ValueError(f"{field} holds {token!r}, which is not one token")
    if not text.isascii() and utf8_problem(text):  # no corpus file could hold it
        token = next(t for t in tokens if utf8_problem(t))
        raise ValueError(f"{field} holds {token!r}, which is not UTF-8 text")


@dataclass(frozen=True)
class Attribute:
    """One key/value pair of a table; the value is an ordered token list."""

    key: str
    value_tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "value_tokens", tuple(self.value_tokens))
        _check_tokens("attribute key", (self.key,))
        if not self.value_tokens:
            raise ValueError(f"attribute {self.key!r} has an empty value")
        _check_tokens(f"attribute {self.key!r} value", self.value_tokens)


@dataclass(frozen=True)
class Table:
    """An ordered list of attributes. Order is meaningful downstream."""

    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        if not self.attributes:
            raise ValueError("a table needs at least one attribute")
        object.__setattr__(self, "attributes", tuple(self.attributes))

    def value_token_set(self) -> frozenset[str]:
        return frozenset(t for a in self.attributes for t in a.value_tokens)


@dataclass(frozen=True)
class Example:
    table: Table
    reference: tuple[str, ...]
    skeleton: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "reference", tuple(self.reference))
        _check_tokens("reference", self.reference)
        if self.skeleton is not None:
            object.__setattr__(self, "skeleton", tuple(self.skeleton))
            _check_tokens("skeleton", self.skeleton)

    def _annotated(self, skeleton: tuple[str, ...]) -> Example:
        """This example holding `skeleton`, a subsequence of its reference.

        Every token is one the reference's check has passed, so the copy
        skips __post_init__ and checks nothing again. Set one by one, the
        fields are stored as __init__ stores them; vars() would give each
        copy a dict of its own.
        """
        copy = object.__new__(Example)
        object.__setattr__(copy, "table", self.table)
        object.__setattr__(copy, "reference", self.reference)
        object.__setattr__(copy, "skeleton", skeleton)
        return copy


Corpus = list[Example]


class LinearizedCell(NamedTuple):
    """4-tuple view of one value token: (token, key, fwd position, bwd position).

    Positions count from 1 at each end of the owning value, so within an
    attribute of length l every cell satisfies fwd_pos + bwd_pos == l + 1.
    The clamp for embedding-table bounds happens at lookup time, not here.
    """

    token: str
    key: str
    fwd_pos: int
    bwd_pos: int


EOS_CELL = LinearizedCell(EOS_TOKEN, EOS_TOKEN, 1, 1)

LinearizedTable = list[LinearizedCell]


def linearize_table(table: Table) -> LinearizedTable:
    """Flatten a table into cells, attribute by attribute, plus the EOS cell."""
    cells: list[LinearizedCell] = []
    for attr in table.attributes:
        length = len(attr.value_tokens)
        for j, tok in enumerate(attr.value_tokens, start=1):
            cells.append(LinearizedCell(tok, attr.key, j, length - j + 1))
    cells.append(EOS_CELL)
    return cells


class Vocabulary:
    """Bidirectional token<->id map with fixed reserved ids 0..4."""

    def __init__(self, tokens: Iterable[str]):
        self.token_to_id = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        for tok in tokens:
            self.token_to_id.setdefault(tok, len(self.token_to_id))
        self.id_to_token: list[str] = list(self.token_to_id)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """The id of each token, UNK_ID for one out of the vocabulary."""
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def token_of(self, idx: int) -> str:
        return self.id_to_token[idx]

    def to_json(self) -> list[str]:
        return list(self.id_to_token)

    @classmethod
    def from_json(cls, id_to_token: list[str]) -> "Vocabulary":
        if not (isinstance(id_to_token, list) and all(isinstance(t, str) for t in id_to_token)):
            raise ValueError("vocabulary file is not a JSON list of tokens")
        if tuple(id_to_token[:5]) != RESERVED_TOKENS:
            raise ValueError("vocabulary file does not start with the reserved tokens")
        # A repeat would be dropped, shifting every later id off its weights.
        first: dict[str, int] = {}
        for i, tok in enumerate(id_to_token):
            if tok in first:
                raise ValueError(f"vocabulary file repeats token {tok!r} at positions {first[tok]} and {i}")
            first[tok] = i
        return cls(id_to_token[5:])


def build_vocabulary(corpus: Corpus, cap: int = 50_000) -> Vocabulary:
    """Keep the (cap - 5) most frequent tokens from table values and references.

    Frequency ties break toward the token seen first in corpus order
    (table values of an example before its reference text).
    """
    if cap < len(RESERVED_TOKENS):
        raise ValueError(f"cap must be >= {len(RESERVED_TOKENS)}, got {cap}")
    counts: Counter[str] = Counter()
    for ex in corpus:
        for attr in ex.table.attributes:
            counts.update(attr.value_tokens)
        counts.update(ex.reference)
    for tok in RESERVED_TOKENS:
        counts.pop(tok, None)
    # A Counter keeps first-seen order, and a stable sort keeps it among ties.
    ranked = sorted(counts, key=lambda t: -counts[t])
    return Vocabulary(ranked[: cap - len(RESERVED_TOKENS)])


def build_key_vocabulary(corpus: Corpus) -> Vocabulary:
    """Vocabulary over attribute keys (EOS key included via reserved ids)."""
    return Vocabulary(attr.key for ex in corpus for attr in ex.table.attributes)


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a JSON string, got {json.dumps(value)}")
    return value


def _parse_line(obj) -> Example:
    """The Example of one corpus line's JSON; the types check every token."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if "table" not in obj:
        raise ValueError('missing "table" field')
    if "text" not in obj:
        raise ValueError('missing "text" field')
    raw_table = obj["table"]
    if not isinstance(raw_table, list) or not raw_table:
        raise ValueError("table must be a non-empty list of attributes")
    attrs = []
    for k, entry in enumerate(raw_table):
        if not isinstance(entry, dict) or "key" not in entry or "value" not in entry:
            raise ValueError(f'table entry {k} needs "key" and "value"')
        key = _string(entry["key"], f"table entry {k} key")
        value = _string(entry["value"], f"table entry {k} ({key!r}) value")
        try:
            attrs.append(Attribute(key, tuple(tokenize(value))))
        except ValueError as err:
            raise ValueError(f"table entry {k}: {err}") from None
    skeleton = None
    if "skeleton" in obj:
        if not isinstance(obj["skeleton"], list):
            raise ValueError('"skeleton" must be a list of tokens')
        skeleton = [_string(tok, f"skeleton entry {i}") for i, tok in enumerate(obj["skeleton"])]
    text = tokenize(_string(obj["text"], "text"))
    return Example(Table(tuple(attrs)), tuple(text), skeleton)


def open_text(path) -> IO[str]:
    """A UTF-8 file, each bad byte escaped: a strict read decodes by chunk and names no line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def read_json_lines(stream: IO[str] | Iterable[str], parse: Callable[[object], object]) -> list:
    """parse() of each non-blank line's JSON value, in order.

    Every error is a CorpusError whose message starts "FILE line N: ", FILE
    being the stream's name (an open file's path), or "line N: " for a
    stream without one; parse() reports a bad value with a ValueError. Open
    a file with open_text, so that a byte that is not UTF-8 names its line.
    """
    name = getattr(stream, "name", None)
    where = "line" if name is None else f"{name} line"
    rows = []
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        problem = utf8_problem(line)
        if problem:
            raise CorpusError(f"{where} {line_no}: {problem}", line_no)
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            problem = f"malformed JSON ({err.msg})"
        except RecursionError:
            problem = "JSON nested too deeply"
        except ValueError as err:  # e.g. an integer literal beyond the digit limit
            problem = f"unreadable JSON ({err})"
        else:
            try:
                rows.append(parse(obj))
                continue
            except RecursionError:  # json.dumps of a deeply nested value, for parse()'s message
                problem = "value nested too deeply"
            except ValueError as err:
                problem = str(err)
        raise CorpusError(f"{where} {line_no}: {problem}", line_no)
    return rows


def parse_corpus(stream: IO[str] | Iterable[str]) -> Corpus:
    """Parse JSON Lines ({"table": [{"key","value"}...], "text": ...}) into Examples."""
    return read_json_lines(stream, _parse_line)


def load_corpus(path) -> Corpus:
    with open_text(path) as fh:
        return parse_corpus(fh)


def example_to_json(ex: Example) -> dict:
    obj: dict = {
        "table": [
            {"key": a.key, "value": " ".join(a.value_tokens)} for a in ex.table.attributes
        ],
        "text": " ".join(ex.reference),
    }
    if ex.skeleton is not None:
        obj["skeleton"] = list(ex.skeleton)
    return obj


def write_corpus(corpus: Corpus, fh: IO[str]) -> None:
    for ex in corpus:
        fh.write(json.dumps(example_to_json(ex), ensure_ascii=False) + "\n")


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_corpus(corpus, fh)
