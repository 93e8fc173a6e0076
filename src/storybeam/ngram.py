"""N-gram counting and model documents, without numpy.

Training a Laplace-smoothed n-gram model, writing it as JSON and reading
a model document (JSON, or YAML where JSON does not apply) are pure
Python, so ``train-lm`` never imports numpy. Only scoring a step does:
``NGramModel`` summarizes a context as a ``scoring.ScoreRow`` the first
time it is scored. The table scorer and the scorer contract live in
``scoring``, which re-exports the n-gram API.

Loading checks each rule once, in the rule's one owner. ``_parse_document``
owns the syntax (no ``NaN``, no lone surrogate, bounded nesting).
``ngram_from_dict`` owns the document's rules: the four fields, the vocab
list and its special tokens, each count entry's shape and types, known
tokens and no repeated entry. It maps strings to ids through
``Vocabulary.id_of`` and builds the model with ``NGramModel(...)``, which
owns the model's rules for every caller: trained, loaded or built
directly, no model skips them.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Sequence

from .config import _is_finite_number, check_condition
from .corpus import (
    BOS_ID,
    EOS_ID,
    FIRST_GENERABLE_ID,
    NUM_SPECIALS,
    SPECIAL_TOKENS,
    UNK_ID,
    Corpus,
    Vocabulary,
    _Record,
)

if TYPE_CHECKING:
    from .scoring import ScoreRow

# Deepest collection nesting a YAML model document may have. A model nests 4
# deep; libyaml's composer recurses once per level and overflows the C stack
# some ten thousand levels down.
MAX_YAML_DEPTH = 100

# Past this order every scored step would pad its context with thousands of
# BOS ids; an order beyond the index range cannot build a context at all.
MAX_ORDER = 1024


def _check_step_args(condition: str, prefix: Sequence[int]) -> None:
    check_condition(condition)
    if EOS_ID in prefix:
        raise ValueError("prefix must not contain EOS; finished hypotheses are not scored")


class NGramModel(_Record):
    """Laplace-smoothed n-gram model over a fixed vocabulary.

    Contexts are the preceding ``order - 1`` token ids, left-padded with
    BOS. The smoothed probability of token ``v`` in context ``c`` is
    ``(count(c, v) + alpha) / (total(c) + alpha * (V - 2))`` where the
    event space excludes PAD and BOS. Construction checks the order, alpha
    (finite, > 0, stored as a float, ``alpha * (V - 2)`` finite), contexts
    (``order - 1`` in-range ids), counted tokens (never PAD or BOS) and
    counts (non-negative integers, finite totals once smoothed) on its own
    copy of ``counts``, then derives ``totals``. ``train_ngram``,
    ``ngram_from_dict`` and direct callers all build through these checks;
    no constructor skips them.

    Immutable after that, as a frozen dataclass is: setting or deleting a
    field raises ``dataclasses.FrozenInstanceError``, models with equal
    ``order``, ``alpha``, ``vocab``, ``counts`` and ``totals`` are equal,
    and a model has no hash. Safe for concurrent scoring.

    ``score_step`` returns one shared ``ScoreRow`` per counted context: the
    floor is the smoothed ``log(alpha / denominator)`` and the exceptions
    are the counted tokens. Every unseen context shares one more. Each is
    built the first time it is scored and kept, so the cache holds at most
    one entry per counted context, plus one.
    """

    order: int
    alpha: float
    vocab: Vocabulary
    counts: dict[tuple[int, ...], dict[int, int]]
    totals: dict[tuple[int, ...], int]
    # counted context, or None for every unseen one -> its summary
    _rows: dict[tuple[int, ...] | None, ScoreRow]
    __hash__ = None

    def __init__(self, order: int, alpha: float, vocab: Vocabulary,
                 counts: dict[tuple[int, ...], dict[int, int]] | None = None):
        if counts is None:
            counts = {}
        _check_order(order)
        vocab_size = len(vocab)
        alpha = _check_alpha(alpha, vocab_size)
        smoothing = alpha * (vocab_size - FIRST_GENERABLE_ID)
        width = order - 1
        # ``type(x) is int`` rather than isinstance keeps bools out
        totals = {}
        own = {}  # the model's own copy: a later change to the caller's dicts skips no check
        for context, bucket in counts.items():
            if not (type(context) is tuple and len(context) == width):
                raise ValueError(f"context {context!r} must be {width} in-range ids")
            for i in context:
                if not (type(i) is int and 0 <= i < vocab_size):
                    raise ValueError(f"context {context!r} must be {width} in-range ids")
            # copied through ``items()``, so a bucket that is not a mapping still
            # fails; ``dict(bucket)`` is the same copy of a dict at half the cost
            bucket = own[context] = dict(bucket) if type(bucket) is dict else dict(bucket.items())
            for token, count in bucket.items():
                if not (type(token) is int and FIRST_GENERABLE_ID <= token < vocab_size):
                    raise ValueError(f"counted token id {token!r} is PAD, BOS or out of range")
                if not (type(count) is int and count >= 0):
                    raise ValueError(f"count must be a non-negative integer, got {count!r}")
            total = totals[context] = sum(bucket.values())
            try:
                finite = math.isfinite(total + smoothing)
            except OverflowError:  # a total beyond float range
                finite = False
            if not finite:
                raise ValueError(
                    f"counts in context {vocab.decode(context)!r} overflow "
                    "float range once smoothed")
        # past the frozen __setattr__
        self.__dict__.update(order=order, alpha=alpha, vocab=vocab, counts=own,
                             totals=totals, _rows={})

    def context_for(self, prefix: Sequence[int]) -> tuple[int, ...]:
        width = self.order - 1
        if width == 0:
            return ()
        context = tuple(prefix[-width:])
        if len(context) < width:
            context = (BOS_ID,) * (width - len(context)) + context
        return context

    def score_step(self, condition: str, prefix: Sequence[int]) -> ScoreRow:
        _check_step_args(condition, prefix)
        context = self.context_for(prefix)
        if context not in self.counts:
            context = None
        row = self._rows.get(context)
        if row is None:
            # threads that build one context at once all keep the first entry
            row = self._rows.setdefault(context, self._summary(context))
        return row

    def _summary(self, context: tuple[int, ...] | None) -> ScoreRow:
        # scoring imports numpy, which counting and model I/O run without
        from .scoring import ScoreRow

        generable = len(self.vocab) - FIRST_GENERABLE_ID
        denominator = self.totals.get(context, 0) + self.alpha * generable
        bucket = self.counts.get(context, {})
        return ScoreRow(
            _log_or_minus_inf(self.alpha / denominator), list(bucket),
            [_log_or_minus_inf((count + self.alpha) / denominator) for count in bucket.values()],
            len(self.vocab))


def _log_or_minus_inf(probability: float) -> float:
    """``math.log``, with ``-inf`` for 0.

    Scores take their logs here rather than with ``np.log``, whose SIMD loops
    (AVX-512 on x86) differ from libm in the last bit for some inputs; the
    score of a token must not depend on the CPU that computed it.
    """
    return math.log(probability) if probability > 0 else -math.inf


def _check_order(order) -> None:
    if not (type(order) is int and 1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be an integer from 1 to {MAX_ORDER}, got {order!r}")


def _check_alpha(alpha, vocab_size: int | None = None) -> float:
    """``alpha`` as a float; ``ValueError`` unless finite and > 0.

    With a vocabulary size, ``alpha * (V - 2)`` must be finite too.
    """
    if not (_is_finite_number(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite number > 0, got {alpha!r}")
    alpha = float(alpha)
    if vocab_size is None:
        return alpha
    # score_step divides by total + alpha * (V - 2), and no count exceeds
    # its context's total; an infinite term turns every score into nan or -inf
    generable = vocab_size - FIRST_GENERABLE_ID
    if not math.isfinite(alpha * generable):
        raise ValueError(
            f"alpha must keep alpha * {generable} generable tokens finite, got {alpha}")
    return alpha


def train_ngram(corpus: Corpus, vocab: Vocabulary, order: int, alpha: float) -> NGramModel:
    """Count n-grams over ``corpus`` with BOS padding and a final EOS per sentence."""
    # counting reads the whole corpus, so the rules NGramModel checks run first
    _check_order(order)
    _check_alpha(alpha, len(vocab))
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for sentence in corpus:
        # a word spelled <pad> or <bos> counts as <unk>: the model never emits those
        words = [UNK_ID if i < FIRST_GENERABLE_ID else i for i in vocab.encode(sentence)]
        framed = [BOS_ID] * (order - 1) + words + [EOS_ID]
        for pos in range(order - 1, len(framed)):
            bucket = counts.setdefault(tuple(framed[pos - order + 1:pos]), {})
            bucket[framed[pos]] = bucket.get(framed[pos], 0) + 1
    return NGramModel(order=order, alpha=alpha, vocab=vocab, counts=counts)


# Characters a YAML 1.1 reader rejects raw (C1 controls, U+FFFE, U+FFFF) or
# folds into a space (U+0085); JSON leaves them raw inside strings
_YAML_UNSAFE = re.compile("[\x7f-\x9f\ufffe\uffff]")


def _float_literal(value: float) -> str:
    """``repr`` with a dot in the mantissa: YAML 1.1 reads ``1e-05`` as a string."""
    mantissa, e, exponent = repr(value).partition("e")
    if e and "." not in mantissa:
        mantissa += ".0"
    return mantissa + e + exponent


def _yaml_safe_string(token: str) -> str:
    """The JSON string ``json.dumps(token, ensure_ascii=False)`` writes, YAML-safe."""
    return _YAML_UNSAFE.sub(lambda char: f"\\u{ord(char.group()):04x}",
                            encode_basestring(token))


def dump_ngram(model: NGramModel) -> str:
    """Serialize to compact JSON, which is also YAML.

    Count entries are ``[context tokens, token, count]`` in (context, token)
    string order. Deterministic, and loads back to identical scores.
    """
    # construction checked every id, so they index the token list directly
    tokens = model.vocab.tokens
    size = len(tokens)
    # each token's JSON string, written once: only a token can hold a YAML-unsafe character
    strings = [_yaml_safe_string(token) for token in tokens]
    rank = [0] * size  # each id's place in string order
    for place, token in enumerate(sorted(range(size), key=tokens.__getitem__)):
        rank[token] = place
    # every context holds order - 1 ids, so an entry's ranks read as one base-V
    # numeral sort exactly as its strings do
    entries = {}
    for context, bucket in model.counts.items():
        key = 0
        for i in context:
            key = key * size + rank[i]
        key *= size
        head = "[[" + ",".join(map(strings.__getitem__, context)) + "],"
        for token, count in bucket.items():
            entries[key + rank[token]] = f"{head}{strings[token]},{count}]"
    counts = ",".join([entries[key] for key in sorted(entries)])
    return (f'{{"order":{model.order},"alpha":{_float_literal(model.alpha)},'
            f'"vocab":[{",".join(strings)}],"counts":[{counts}]}}\n')


def _is_token_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def _bad_entry(entry) -> ValueError:
    return ValueError(f"count entry must be [context tokens, token string, int], got {entry!r}")


def ngram_from_dict(doc: dict) -> NGramModel:
    if not isinstance(doc, dict):
        raise ValueError("n-gram model document must be a mapping")
    try:
        order = doc["order"]
        alpha = doc["alpha"]
        vocab_tokens = doc["vocab"]
        triples = doc["counts"]
    except KeyError as missing:
        raise ValueError(f"n-gram model document is missing field {missing}") from None
    if not isinstance(vocab_tokens, list):
        raise ValueError("vocab must be a list of token strings")
    if tuple(vocab_tokens[:NUM_SPECIALS]) != SPECIAL_TOKENS:
        raise ValueError(f"model vocab must start with the special tokens {SPECIAL_TOKENS}")
    vocab = Vocabulary(vocab_tokens[NUM_SPECIALS:])
    if not isinstance(triples, list):
        raise ValueError(
            f"counts must be a list of [context, token, count], got {type(triples).__name__}")
    # strings become ids through the vocabulary's own index; NGramModel checks the ids
    id_of = vocab.id_of
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for entry in triples:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise _bad_entry(entry)
        context_tokens, token, count = entry
        if not (isinstance(context_tokens, list) and isinstance(token, str)
                and type(count) is int):
            raise _bad_entry(entry)
        try:
            context = tuple(map(id_of, context_tokens))
            target = id_of(token)
        except (KeyError, TypeError):  # an unknown token, or a context item that is no string
            if not _is_token_list(context_tokens):
                raise _bad_entry(entry) from None
            unknown = next(t for t in context_tokens + [token] if t not in vocab)
            raise ValueError(f"token {unknown!r} is not in the model vocabulary") from None
        bucket = counts.setdefault(context, {})
        if target in bucket:
            # summing would let a negative count hide behind a positive one
            raise ValueError(f"count entry {entry!r} repeats an earlier context and token")
        bucket[target] = count
    return NGramModel(order=order, alpha=alpha, vocab=vocab, counts=counts)


def load_ngram(text: str) -> NGramModel:
    return ngram_from_dict(_parse_document(text))


# ---------------------------------------------------------------------------
# Model documents


def _reject_constant(name: str):
    raise ValueError(f"malformed model document: {name} is not a finite number")


# a raw surrogate or a \ud800-style escape; json.loads keeps a lone one
_SURROGATE = re.compile(r"[\ud800-\udfff]|\\u[dD][89a-fA-F]")


def _parse_json(text: str) -> dict | None:
    """The text as a JSON object, or None when it is not one."""
    if not text.startswith("{"):
        return None
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError:
        return None
    except RecursionError:
        raise ValueError("malformed model document: nested too deeply") from None
    # a surrogate is a raw non-ASCII character or a \u escape: skip the scan without either
    if not (text.isascii() and "\\u" not in text) and _SURROGATE.search(text):
        # raises UnicodeEncodeError on a lone surrogate, as libyaml does
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    return doc


def _check_yaml_depth(text: str, loader) -> None:
    """Raise ``ValueError`` if the document nests deeper than ``MAX_YAML_DEPTH``."""
    import yaml

    # the parser keeps its own stack, so counting its events cannot overflow
    depth = 0
    for event in yaml.parse(text, Loader=loader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_YAML_DEPTH:
                raise ValueError(
                    f"malformed model document: nested deeper than {MAX_YAML_DEPTH} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


# A flat table: a top-level block mapping of ``key: [scalar, ...]`` lines,
# each list all numbers or all words, whose types under YAML 1.1 are certain.
# A float needs a dot, and a signed exponent if any (1e-06 is a string); an
# int has no leading zero (010 is octal); a word starts with a letter or "<",
# holds no indicator, and is no bool, null or merge word. libyaml allows a
# block key 1024 characters. A list pattern takes each "item," atomically (a
# lookahead, then a backreference to what it saw), so a match keeps no
# backtracking state per item: an 8000-item list would otherwise hold 5 MB.
# The patterns are compiled on first use: train-lm imports this module and
# never reads YAML.
_FLAT_LINE = r"([A-Za-z<][\w<>.-]{0,1022}): \[(.*)\]"
_FLAT_NUMBER = r" *(?:[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|[-+]?(?:0|[1-9][0-9]*)) *"
_FLAT_WORD = r" *[A-Za-z<][\w<>.-]* *"
_FLAT_NUMBERS = rf"(?:(?=({_FLAT_NUMBER},))\1)*{_FLAT_NUMBER}"
_FLAT_WORDS = rf"(?:(?=({_FLAT_WORD},))\1)*{_FLAT_WORD}"
_YAML_WORDS = frozenset(
    "yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off OFF "
    "null Null NULL <<".split())


def _parse_flat_table(text: str) -> dict | None:
    """The document ``SafeLoader`` reads from ``text`` when it is a flat table, else None.

    None means only that this reader is not certain; the caller then runs
    PyYAML, so every other document loads, or fails, exactly as before.
    """
    # \r rules out CRLF; isascii rules out a BOM, U+0085 and surrogates
    if not (text.isascii() and text.endswith("\n")) or "\r" in text:
        return None
    line = re.compile(_FLAT_LINE, re.ASCII).fullmatch
    numbers = re.compile(_FLAT_NUMBERS).fullmatch
    words = re.compile(_FLAT_WORDS, re.ASCII).fullmatch
    doc = {}
    for raw in text[:-1].split("\n"):
        match = line(raw)
        if match is None:
            return None
        key, items = match.groups()
        if key in doc or key in _YAML_WORDS:
            return None
        if not items.strip(" "):
            doc[key] = []
        elif numbers(items):
            try:
                doc[key] = [float(x) if "." in x else int(x) for x in items.split(",")]
            except ValueError:  # an int past sys.get_int_max_str_digits()
                return None
        elif words(items):
            doc[key] = items.replace(" ", "").split(",")
            if not _YAML_WORDS.isdisjoint(doc[key]):
                return None
        else:
            return None
    return doc


def _parse_yaml(text: str):
    doc = _parse_flat_table(text)
    if doc is not None:
        return doc
    # yaml is imported on first use only: JSON models, flat tables and train-lm
    # never need it, and importing it is a visible share of CLI start-up
    import yaml

    # libyaml's loader, where PyYAML has it, parses several times faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        _check_yaml_depth(text, loader)
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ValueError(f"malformed model document: {exc}") from exc


def _parse_document(text: str) -> dict:
    """Parse a model document as JSON, or as YAML where JSON does not apply."""
    try:
        doc = _parse_json(text)
        if doc is None:
            doc = _parse_yaml(text)
    except UnicodeEncodeError as exc:
        # libyaml encodes the text to UTF-8 first, so a lone surrogate fails
        # there instead of in the pure reader's character check
        raise ValueError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("model document must be a key-value mapping")
    return doc
