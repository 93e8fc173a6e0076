"""Step scorers: next-token log-probability distributions.

A scorer maps ``(condition, prefix)`` to a vector of natural-log
probabilities over the whole vocabulary (one entry per token id). Every
scorer obeys the same contract:

* the vector has one float64 entry per vocabulary id,
* PAD and BOS get ``-inf`` (they are structural, never generated),
* the probabilities of the remaining tokens sum to 1,
* identical arguments always produce identical vectors,
* a vector may be shared and read-only: callers must not write into it.

Two concrete scorers ship here: a Laplace-smoothed n-gram model trained
from a corpus, and a table scorer driven by explicit probability rows
(useful for tests, demos, and hand-constructed fixtures). The condition
argument is an opaque non-empty string naming the conditioning input of
one segment; the n-gram model ignores it, the table scorer may dispatch
on it.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .corpus import (
    BOS_ID,
    BOS_TOKEN,
    EOS_ID,
    FIRST_GENERABLE_ID,
    NUM_SPECIALS,
    PAD_ID,
    PAD_TOKEN,
    SPECIAL_TOKENS,
    UNK_ID,
    Corpus,
    Vocabulary,
)

# The PyYAML loader class for documents that are not JSON. None picks
# libyaml's, which parses several times faster, where PyYAML has it, and the
# pure-Python one otherwise. yaml is imported on first use only: JSON models
# and train-lm never need it, and importing it is a visible share of CLI start-up.
YAML_LOADER = None

# Memory an NGramModel may spend on cached log rows (8 bytes per vocabulary
# id each). Decoding revisits the same few hundred contexts story after
# story; 4 MiB holds 522 rows at V = 1004.
ROW_CACHE_BYTES = 4 << 20

# Past this order every scored step would pad its context with thousands of
# BOS ids; an order beyond the index range cannot build a context at all.
MAX_ORDER = 1024

LOGSUMEXP_TOLERANCE = 1e-9
ROW_SUM_TOLERANCE = 1e-6

Condition = str


class Scorer(Protocol):
    """Anything that can produce next-token log-probabilities."""

    @property
    def vocab(self) -> Vocabulary: ...

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> np.ndarray: ...


def _check_step_args(condition: Condition, prefix: Sequence[int]) -> None:
    if not condition:
        raise ValueError("condition must be a non-empty string")
    if EOS_ID in prefix:
        raise ValueError("prefix must not contain EOS; finished hypotheses are not scored")


def log_sum_exp(values: np.ndarray) -> float:
    """Stable log-sum-exp; returns -inf for an all--inf input."""
    m = float(np.max(values))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(values - m))))


def validate_step_scores(scores: np.ndarray, vocab_size: int,
                         tolerance: float = LOGSUMEXP_TOLERANCE) -> None:
    """Raise ``ValueError`` unless ``scores`` is a valid log-distribution."""
    if scores.shape != (vocab_size,):
        raise ValueError(f"step scores have shape {scores.shape}, expected ({vocab_size},)")
    if scores.dtype != np.float64:
        raise ValueError(f"step scores must be float64, got {scores.dtype}")
    if np.isnan(scores).any():
        raise ValueError("step scores contain NaN")
    if scores[PAD_ID] != -np.inf or scores[BOS_ID] != -np.inf:
        raise ValueError("PAD and BOS must have -inf log-probability")
    lse = log_sum_exp(scores)
    if not abs(lse) <= tolerance:
        raise ValueError(f"step scores are not a distribution: log-sum-exp = {lse!r}")


def _log_row(probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(probs)


# ---------------------------------------------------------------------------
# N-gram language model


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
        if not (_is_finite_number(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {self.alpha!r}")
        self.alpha = float(self.alpha)
        # score_step divides by total + alpha * (V - 2), and no count exceeds
        # its context's total; an infinite term turns every score into nan or -inf
        vocab_size = len(self.vocab)
        generable = vocab_size - FIRST_GENERABLE_ID
        if not math.isfinite(self.alpha * generable):
            raise ValueError(
                f"alpha must keep alpha * {generable} generable tokens finite, "
                f"got {self.alpha}")
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

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> np.ndarray:
        _check_step_args(condition, prefix)
        return self._row(self.context_for(prefix))

    def _build_row(self, context: tuple[int, ...]) -> np.ndarray:
        vocab_size = len(self.vocab)
        generable = vocab_size - FIRST_GENERABLE_ID
        observed = np.zeros(generable, dtype=np.float64)
        for token, count in self.counts.get(context, {}).items():
            observed[token - FIRST_GENERABLE_ID] = count
        total = self.totals.get(context, 0)
        probs = (observed + self.alpha) / (total + self.alpha * generable)
        scores = np.full(vocab_size, -np.inf, dtype=np.float64)
        scores[FIRST_GENERABLE_ID:] = _log_row(probs)
        scores.flags.writeable = False
        return scores


def _check_order(order) -> None:
    if not (type(order) is int and 1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be an integer from 1 to {MAX_ORDER}, got {order!r}")


def train_ngram(corpus: Corpus, vocab: Vocabulary, order: int, alpha: float) -> NGramModel:
    """Count n-grams over ``corpus`` with BOS padding and a final EOS per sentence."""
    # the BOS padding below is built before NGramModel can check the order
    _check_order(order)
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


def _is_finite_number(value) -> bool:
    """True for an int or float, not a bool, that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


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
    if not _is_token_list(vocab_tokens):
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
# Table scorer


@dataclass(frozen=True)
class TableRule:
    """One override row: applies when the condition and prefix suffix match."""

    condition: str | None
    context: tuple[int, ...]
    log_row: np.ndarray

    def matches(self, condition: Condition, prefix: Sequence[int]) -> bool:
        if self.condition is not None and self.condition != condition:
            return False
        n = len(self.context)
        if n == 0:
            return True
        return tuple(prefix[-n:]) == self.context


@dataclass(frozen=True)
class TableScorer:
    """Deterministic scorer backed by explicit probability rows.

    Rows are tried in declaration order; the first whose condition and
    context-suffix pattern match wins, otherwise the default row
    applies. Rows are validated and renormalized at load time so every
    returned vector is an exact distribution.
    """

    vocab: Vocabulary
    default_log_row: np.ndarray
    rules: tuple[TableRule, ...] = ()

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> np.ndarray:
        _check_step_args(condition, prefix)
        for rule in self.rules:
            if rule.matches(condition, prefix):
                return rule.log_row
        return self.default_log_row


def _expand_row(probs: list, listed_ids: list[int], vocab_size: int, label: str) -> np.ndarray:
    if not isinstance(probs, list) or not all(_is_finite_number(p) for p in probs):
        raise ValueError(f"{label}: probabilities must be a list of finite numbers")
    if len(probs) != len(listed_ids):
        raise ValueError(
            f"{label}: got {len(probs)} probabilities for {len(listed_ids)} vocab tokens"
        )
    row = np.asarray(probs, dtype=np.float64)
    if (row < 0).any():
        raise ValueError(f"{label}: probabilities must be non-negative")
    total = float(row.sum())
    if abs(total - 1.0) > ROW_SUM_TOLERANCE:
        raise ValueError(f"{label}: probabilities sum to {total}, expected 1")
    full = np.zeros(vocab_size, dtype=np.float64)
    full[listed_ids] = row / total
    log_row = _log_row(full)
    log_row.flags.writeable = False
    return log_row


def table_from_dict(doc: dict) -> TableScorer:
    if not isinstance(doc, dict):
        raise ValueError("table scorer document must be a mapping")
    try:
        listed = doc["vocab"]
        default_probs = doc["default_row"]
    except KeyError as missing:
        raise ValueError(f"table scorer document is missing field {missing}") from None
    if not isinstance(listed, list) or not listed:
        raise ValueError("vocab must be a non-empty list of token strings")
    if len(set(listed)) != len(listed):
        raise ValueError("vocab tokens must be unique")
    for tok in listed:
        if not isinstance(tok, str) or not tok:
            raise ValueError(f"invalid vocab token {tok!r}")
        if tok in (PAD_TOKEN, BOS_TOKEN):
            raise ValueError(f"{tok} is never generated and cannot carry probability")
    vocab = Vocabulary(t for t in listed if t not in SPECIAL_TOKENS)
    listed_ids = [vocab.token_to_id(t) for t in listed]
    vocab_size = len(vocab)
    default_log_row = _expand_row(default_probs, listed_ids, vocab_size, "default_row")
    rows = [] if doc.get("rows") is None else doc["rows"]
    if not isinstance(rows, list):
        raise ValueError(f"rows must be a list of row mappings, got {type(rows).__name__}")
    rules = []
    for i, raw in enumerate(rows):
        label = f"rows[{i}]"
        if not isinstance(raw, dict) or "probs" not in raw:
            raise ValueError(f"{label}: each row needs at least a probs field")
        condition = raw.get("condition")
        if condition is not None and (not isinstance(condition, str) or not condition):
            raise ValueError(f"{label}: condition must be a non-empty string or null")
        context_tokens = [] if raw.get("context") is None else raw["context"]
        if not _is_token_list(context_tokens):
            raise ValueError(
                f"{label}: context must be a list of token strings, got {context_tokens!r}")
        for tok in context_tokens:
            if tok not in vocab:
                raise ValueError(f"{label}: unknown context token {tok!r}")
        context = tuple(vocab.token_to_id(t) for t in context_tokens)
        log_row = _expand_row(raw["probs"], listed_ids, vocab_size, label)
        rules.append(TableRule(condition=condition, context=context, log_row=log_row))
    return TableScorer(vocab=vocab, default_log_row=default_log_row, rules=tuple(rules))


def load_table_scorer(text: str) -> TableScorer:
    return table_from_dict(_parse_document(text))


# ---------------------------------------------------------------------------
# Loading helpers


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
    if _SURROGATE.search(text):
        # raises UnicodeEncodeError on a lone surrogate, as libyaml does
        json.dumps(doc, ensure_ascii=False).encode("utf-8")
    return doc


def _parse_yaml(text: str):
    import yaml

    loader = YAML_LOADER or getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
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


def load_scorer(text: str) -> NGramModel | TableScorer:
    """Load either model kind, dispatching on the document's fields."""
    doc = _parse_document(text)
    if "order" in doc:
        return ngram_from_dict(doc)
    if "default_row" in doc:
        return table_from_dict(doc)
    raise ValueError("model document is neither an n-gram model nor a scoring table")


class ValidatingScorer:
    """Wraps a scorer and checks every returned vector against the contract.

    Used by the verification suite to certify that all distributions seen
    during decoding are proper; also handy when developing a new scorer.
    """

    def __init__(self, inner: Scorer, tolerance: float = LOGSUMEXP_TOLERANCE):
        self._inner = inner
        self._tolerance = tolerance
        self.calls = 0

    @property
    def vocab(self) -> Vocabulary:
        return self._inner.vocab

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> np.ndarray:
        scores = self._inner.score_step(condition, prefix)
        validate_step_scores(scores, len(self._inner.vocab), self._tolerance)
        self.calls += 1
        return scores
