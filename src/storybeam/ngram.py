"""N-gram counting and model documents, without numpy.

Training a Laplace-smoothed n-gram model, writing it as JSON and reading
a model document (JSON, or YAML where JSON does not apply) are pure
Python, so ``train-lm`` never imports numpy. Only ``NGramModel``'s row
builder does, the first time a row is scored. The table scorer and the
scorer contract live in ``scoring``, which re-exports the n-gram API.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from .config import _is_finite_number
from .corpus import (
    BOS_ID,
    EOS_ID,
    FIRST_GENERABLE_ID,
    NUM_SPECIALS,
    SPECIAL_TOKENS,
    UNK_ID,
    Corpus,
    Vocabulary,
)

if TYPE_CHECKING:
    import numpy as np

# The PyYAML loader class for documents that are not JSON. None picks
# libyaml's, which parses several times faster, where PyYAML has it, and the
# pure-Python one otherwise. yaml is imported on first use only: JSON models
# and train-lm never need it, and importing it is a visible share of CLI start-up.
YAML_LOADER = None

# Deepest collection nesting a YAML model document may have. A model nests 4
# deep; libyaml's composer recurses once per level and overflows the C stack
# some ten thousand levels down.
MAX_YAML_DEPTH = 100

# Memory an NGramModel may spend on cached log rows (8 bytes per vocabulary
# id each). Decoding revisits the same few hundred contexts story after
# story; 4 MiB holds 522 rows at V = 1004.
ROW_CACHE_BYTES = 4 << 20

# Past this order every scored step would pad its context with thousands of
# BOS ids; an order beyond the index range cannot build a context at all.
MAX_ORDER = 1024


def _check_step_args(condition: str, prefix: Sequence[int]) -> None:
    if not condition:
        raise ValueError("condition must be a non-empty string")
    if EOS_ID in prefix:
        raise ValueError("prefix must not contain EOS; finished hypotheses are not scored")


@dataclass
class NGramModel:
    """Laplace-smoothed n-gram model over a fixed vocabulary.

    Contexts are the preceding ``order - 1`` token ids, left-padded with
    BOS. The smoothed probability of token ``v`` in context ``c`` is
    ``(count(c, v) + alpha) / (total(c) + alpha * (V - 2))`` where the
    event space excludes PAD and BOS. Construction checks the order, alpha
    (finite, > 0, stored as a float, ``alpha * (V - 2)`` finite), contexts
    (``order - 1`` in-range ids), counted tokens (never PAD or BOS) and
    counts (non-negative integers, finite totals once smoothed), then
    derives ``totals``. Immutable after that; safe for concurrent scoring.

    ``score_step`` returns one shared, read-only row per context from a
    bounded LRU cache of ``ROW_CACHE_BYTES // (8 * V)`` rows (at least one).
    """

    order: int
    alpha: float
    vocab: Vocabulary
    counts: dict[tuple[int, ...], dict[int, int]] = field(default_factory=dict)
    totals: dict[tuple[int, ...], int] = field(init=False)
    _row: Callable[[tuple[int, ...]], np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_order(self.order)
        vocab_size = len(self.vocab)
        self.alpha = _check_alpha(self.alpha, vocab_size)
        generable = vocab_size - FIRST_GENERABLE_ID
        # ``type(x) is int`` rather than isinstance keeps bools out
        self.totals = {}
        for context, bucket in self.counts.items():
            if not (type(context) is tuple and len(context) == self.order - 1
                    and all(type(i) is int and 0 <= i < vocab_size for i in context)):
                raise ValueError(f"context {context!r} must be {self.order - 1} in-range ids")
            for token, count in bucket.items():
                if not (type(token) is int and FIRST_GENERABLE_ID <= token < vocab_size):
                    raise ValueError(f"counted token id {token!r} is PAD, BOS or out of range")
                if not (type(count) is int and count >= 0):
                    raise ValueError(f"count must be a non-negative integer, got {count!r}")
            total = self.totals[context] = sum(bucket.values())
            if not (_is_finite_number(total)
                    and math.isfinite(total + self.alpha * generable)):
                raise ValueError(
                    f"counts in context {self.vocab.decode(context)!r} overflow "
                    "float range once smoothed")
        capacity = max(1, ROW_CACHE_BYTES // (8 * vocab_size))
        self._row = functools.lru_cache(maxsize=capacity)(self._build_row)

    def context_for(self, prefix: Sequence[int]) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        padded = (BOS_ID,) * (self.order - 1) + tuple(prefix)
        return padded[-(self.order - 1):]

    def score_step(self, condition: str, prefix: Sequence[int]) -> np.ndarray:
        _check_step_args(condition, prefix)
        return self._row(self.context_for(prefix))

    def _build_row(self, context: tuple[int, ...]) -> np.ndarray:
        # the one numpy use in this module: counting and model I/O run without it
        import numpy as np

        vocab_size = len(self.vocab)
        generable = vocab_size - FIRST_GENERABLE_ID
        observed = np.zeros(generable, dtype=np.float64)
        for token, count in self.counts.get(context, {}).items():
            observed[token - FIRST_GENERABLE_ID] = count
        total = self.totals.get(context, 0)
        probs = (observed + self.alpha) / (total + self.alpha * generable)
        scores = np.full(vocab_size, -np.inf, dtype=np.float64)
        with np.errstate(divide="ignore"):
            scores[FIRST_GENERABLE_ID:] = np.log(probs)
        scores.flags.writeable = False
        return scores


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


def ngram_to_dict(model: NGramModel) -> dict:
    triples = []
    for context, bucket in model.counts.items():
        context_tokens = model.vocab.decode(context)
        for token, count in bucket.items():
            triples.append([context_tokens, model.vocab.id_to_token(token), count])
    triples.sort(key=lambda t: (t[0], t[1]))
    return {
        "order": model.order,
        "alpha": model.alpha,
        "vocab": list(model.vocab.tokens),
        "counts": triples,
    }


# Characters a YAML 1.1 reader rejects raw (C1 controls, U+FFFE, U+FFFF) or
# folds into a space (U+0085); json.dumps leaves them raw inside strings
_YAML_UNSAFE = re.compile("[\x7f-\x9f\ufffe\uffff]")


def _float_literal(value: float) -> str:
    """``repr`` with a dot in the mantissa: YAML 1.1 reads ``1e-05`` as a string."""
    mantissa, e, exponent = repr(value).partition("e")
    if e and "." not in mantissa:
        mantissa += ".0"
    return mantissa + e + exponent


def dump_ngram(model: NGramModel) -> str:
    """Serialize to compact JSON, which is also YAML.

    Deterministic, and loads back to identical scores.
    """
    fields = {key: json.dumps(value, ensure_ascii=False, separators=(",", ":"))
              for key, value in ngram_to_dict(model).items()}
    fields["alpha"] = _float_literal(model.alpha)
    text = "{" + ",".join(f'"{key}":{value}' for key, value in fields.items()) + "}\n"
    return _YAML_UNSAFE.sub(lambda char: f"\\u{ord(char.group()):04x}", text)


def _is_token_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


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
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for entry in triples:
        if not (isinstance(entry, list) and len(entry) == 3 and _is_token_list(entry[0])
                and isinstance(entry[1], str) and type(entry[2]) is int):
            raise ValueError(f"count entry must be [context tokens, token string, int], "
                             f"got {entry!r}")
        context_tokens, token, count = entry
        for tok in context_tokens + [token]:
            if tok not in vocab:
                raise ValueError(f"token {tok!r} is not in the model vocabulary")
        bucket = counts.setdefault(tuple(vocab.token_to_id(t) for t in context_tokens), {})
        target = vocab.token_to_id(token)
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
    if _SURROGATE.search(text):
        # raises UnicodeEncodeError on a lone surrogate, as libyaml does
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    return doc


# Every collection a YAML document opens starts at one of these: a flow
# bracket, a mapping's ":" or "?", or a block sequence's "-" before a space
# or line break (a tab there is a scanner error). Their count bounds the
# nesting depth from above.
_NESTING_MARKS = ("[", "{", ":", "?", "- ", "-\n", "-\r", "-\x85", "-\u2028", "-\u2029")


def _check_yaml_depth(text: str, loader) -> None:
    """Raise ``ValueError`` if the document nests deeper than ``MAX_YAML_DEPTH``."""
    marks = sum(text.count(mark) for mark in _NESTING_MARKS) + text.endswith("-")
    if marks <= MAX_YAML_DEPTH:
        return
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


def _parse_yaml(text: str):
    import yaml

    loader = YAML_LOADER or getattr(yaml, "CSafeLoader", yaml.SafeLoader)
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
