"""Corpus ingestion and vocabulary construction.

A corpus is plain UTF-8 text, one sentence per line, tokens separated by
whitespace. Ingestion lowercases everything; blank lines are skipped.
Vocabularies map token strings to dense integer ids with four reserved
special tokens at fixed positions.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

from .config import DEFAULT_MIN_COUNT, check_count

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

SPECIAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)
NUM_SPECIALS = len(SPECIAL_TOKENS)
_SPECIAL_SET = frozenset(SPECIAL_TOKENS)

# Lowest token id the decoder may emit: PAD and BOS are structural and
# never generated.
FIRST_GENERABLE_ID = EOS_ID


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``, without one leading byte order mark."""
    return Path(path).read_text(encoding="utf-8-sig")


def split_lines(text: str) -> list[str]:
    """Lines of ``text``, ending at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else.

    Unlike ``str.splitlines()``, a form feed or ``\\u2028`` does not end a line.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _raise_frozen(name: str, verb: str) -> NoReturn:
    """Raise what a frozen dataclass raises on setting or deleting ``name``."""
    # imported here: dataclasses pulls in inspect, which no command needs
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class _Record:
    """A frozen dataclass's behaviour, without importing ``dataclasses``.

    A subclass declares its fields as a dataclass does, as annotated class
    attributes in constructor order (a name with a leading underscore is not
    a field), and its ``__init__`` stores them through ``self.__dict__``.
    Setting or deleting any attribute raises
    ``dataclasses.FrozenInstanceError``. Records of one class are equal when
    their fields are and hash as the tuple of them, and ``repr`` lists the
    fields as a dataclass's does. A subclass sets ``__hash__ = None`` to have
    no hash.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__annotations__ if not name.startswith("_"))

    def __setattr__(self, name, value):
        _raise_frozen(name, "assign to")

    def __delattr__(self, name):
        _raise_frozen(name, "delete")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class Corpus(_Record):
    """Tokenized sentences; immutable after construction.

    Every sentence is a non-empty tuple of lowercase token strings.
    Corpora with equal sentences are equal; a corpus has no hash.
    """

    sentences: tuple[tuple[str, ...], ...]
    __hash__ = None

    def __init__(self, sentences: tuple[tuple[str, ...], ...]):
        self.__dict__["sentences"] = sentences

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    @classmethod
    def from_text(cls, text: str) -> "Corpus":
        """Parse one-sentence-per-line text, lowercasing and skipping blanks."""
        sentences = []
        for line in split_lines(text):
            tokens = tuple(line.lower().split())
            if tokens:
                sentences.append(tokens)
        return cls(sentences=tuple(sentences))

    @classmethod
    def from_file(cls, path: str | Path) -> "Corpus":
        return cls.from_text(read_text(path))


class Vocabulary:
    """Bidirectional token/id map with reserved specials at ids 0-3.

    Non-special tokens are ordered by descending corpus frequency with
    lexicographic tie-breaks, so id assignment is deterministic across
    runs and platforms. Every token is a non-empty string of valid Unicode
    (no lone surrogate), listed once.
    """

    def __init__(self, non_special_tokens: Iterable[str]):
        given = list(non_special_tokens)
        # one pass per check in C; the loop runs only to name the first bad token
        if not (set(map(type, given)) <= {str} and "" not in given
                and _SPECIAL_SET.isdisjoint(given)):
            for tok in given:
                if not isinstance(tok, str) or not tok:
                    raise ValueError(f"invalid vocab token {tok!r}")
                if tok in SPECIAL_TOKENS:
                    raise ValueError(f"special token {tok!r} cannot be re-added")
        tokens = [*SPECIAL_TOKENS, *given]
        try:
            "".join(tokens).encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which no model document can hold
            bad = next(t for t in tokens if t.encode("utf-8", "replace").decode("utf-8") != t)
            raise ValueError(f"vocab token {bad!r} is not valid Unicode") from None
        self._tokens: tuple[str, ...] = tuple(tokens)
        self._index: dict[str, int] = {t: i for i, t in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise ValueError("vocabulary tokens must be unique")
        # the id of a token string, KeyError for any other; the dict's own
        # lookup, so a model loader pays no Python call per token
        self.id_of = self._index.__getitem__

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    @property
    def tokens(self) -> tuple[str, ...]:
        """All token strings in id order, specials first."""
        return self._tokens

    @property
    def non_special_tokens(self) -> tuple[str, ...]:
        return self._tokens[NUM_SPECIALS:]

    def token_to_id(self, token: str) -> int:
        """Id for ``token``; unknown strings map to UNK."""
        return self._index.get(token, UNK_ID)

    def id_to_token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise ValueError(
                f"token id {token_id} out of range for vocabulary of size {len(self._tokens)}"
            )
        return self._tokens[token_id]

    def encode(self, sentence: Sequence[str]) -> list[int]:
        """Map token strings to ids; out-of-vocabulary strings become UNK.

        No BOS/EOS framing is added here; the decoding layer owns
        sentence delimiters.
        """
        return [self._index.get(tok, UNK_ID) for tok in sentence]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Inverse of :meth:`encode` for in-vocabulary input.

        Special ids render as their literal names. Raises ``ValueError``
        for any id outside the vocabulary.
        """
        return [self.id_to_token(i) for i in ids]


def build_vocabulary(corpus: Corpus, min_count: int = DEFAULT_MIN_COUNT) -> Vocabulary:
    """Build a vocabulary from every token occurring at least ``min_count`` times.

    The default of 4 keeps tokens appearing strictly more than three
    times. Raising ``min_count`` never adds tokens.
    """
    check_count("min_count", min_count)
    if len(corpus) == 0:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for sentence in corpus:
        counts.update(sentence)
    # The special names keep their reserved ids: a literal <eos> or <unk>
    # encodes as that token, and train_ngram counts <pad>/<bos> as <unk>.
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    kept = [tok for tok, n in counts.items() if n >= min_count]
    kept.sort(key=lambda tok: (-counts[tok], tok))
    return Vocabulary(kept)
