"""Step scorers: next-token log-probability distributions.

A scorer maps ``(condition, prefix)`` to a vector of natural-log
probabilities over the whole vocabulary (one entry per token id). Every
scorer obeys the same contract:

* the vector has one float64 entry per vocabulary id,
* PAD and BOS get ``-inf`` (they are structural, never generated),
* the probabilities of the remaining tokens sum to 1,
* identical arguments always produce identical vectors.

Two concrete scorers ship here: a Laplace-smoothed n-gram model trained
from a corpus, and a table scorer driven by explicit probability rows
(useful for tests, demos, and hand-constructed fixtures). The condition
argument is an opaque non-empty string naming the conditioning input of
one segment; the n-gram model ignores it, the table scorer may dispatch
on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np
import yaml

from .corpus import (
    BOS_ID,
    BOS_TOKEN,
    EOS_ID,
    FIRST_GENERABLE_ID,
    NUM_SPECIALS,
    PAD_ID,
    PAD_TOKEN,
    SPECIAL_TOKENS,
    Corpus,
    Vocabulary,
)

# libyaml's classes parse and emit the same documents several times faster;
# the pure-Python pair is the fallback where PyYAML was built without libyaml
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

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
    event space excludes PAD and BOS. Immutable after training; safe for
    concurrent scoring.
    """

    order: int
    alpha: float
    vocab: Vocabulary
    counts: dict[tuple[int, ...], dict[int, int]] = field(default_factory=dict)
    totals: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        # score_step divides by total + alpha * (V - 2); an infinite term
        # turns every score into nan or -inf
        generable = len(self.vocab) - FIRST_GENERABLE_ID
        if not math.isfinite(self.alpha * generable):
            raise ValueError(
                f"alpha must keep alpha * {generable} generable tokens finite, "
                f"got {self.alpha}")

    def context_for(self, prefix: Sequence[int]) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        padded = (BOS_ID,) * (self.order - 1) + tuple(prefix)
        return padded[-(self.order - 1):]

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> np.ndarray:
        _check_step_args(condition, prefix)
        vocab_size = len(self.vocab)
        context = self.context_for(prefix)
        generable = vocab_size - FIRST_GENERABLE_ID
        observed = np.zeros(generable, dtype=np.float64)
        for token, count in self.counts.get(context, {}).items():
            observed[token - FIRST_GENERABLE_ID] = count
        total = self.totals.get(context, 0)
        probs = (observed + self.alpha) / (total + self.alpha * generable)
        scores = np.full(vocab_size, -np.inf, dtype=np.float64)
        scores[FIRST_GENERABLE_ID:] = _log_row(probs)
        return scores


def train_ngram(corpus: Corpus, vocab: Vocabulary, order: int, alpha: float) -> NGramModel:
    """Count n-grams over ``corpus`` with BOS padding and a final EOS per sentence."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    totals: dict[tuple[int, ...], int] = {}
    for sentence in corpus:
        framed = [BOS_ID] * (order - 1) + vocab.encode(sentence) + [EOS_ID]
        for pos in range(order - 1, len(framed)):
            context = tuple(framed[pos - order + 1:pos])
            target = framed[pos]
            bucket = counts.setdefault(context, {})
            bucket[target] = bucket.get(target, 0) + 1
            totals[context] = totals.get(context, 0) + 1
    return NGramModel(order=order, alpha=alpha, vocab=vocab, counts=counts, totals=totals)


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


def dump_ngram(model: NGramModel) -> str:
    """Serialize to YAML; deterministic, loads back to identical scores."""
    return yaml.dump(ngram_to_dict(model), Dumper=YAML_DUMPER,
                     sort_keys=False, allow_unicode=True)


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


def _vocab_from_listing(tokens: list) -> Vocabulary:
    if not _is_token_list(tokens):
        raise ValueError("vocab must be a list of token strings")
    if tuple(tokens[:NUM_SPECIALS]) != SPECIAL_TOKENS:
        raise ValueError(f"model vocab must start with the special tokens {SPECIAL_TOKENS}")
    return Vocabulary(tokens[NUM_SPECIALS:])


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
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    if not (_is_finite_number(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite number > 0, got {alpha!r}")
    vocab = _vocab_from_listing(vocab_tokens)
    if not isinstance(triples, list):
        raise ValueError(
            f"counts must be a list of [context, token, count], got {type(triples).__name__}")
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    totals: dict[tuple[int, ...], int] = {}
    for entry in triples:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"count entry must be [context, token, count], got {entry!r}")
        context_tokens, token, count = entry
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(f"count must be a non-negative integer, got {count!r}")
        if not (_is_token_list(context_tokens) and isinstance(token, str)):
            raise ValueError(
                f"count entry needs a list of context tokens and a token string, "
                f"got {entry!r}")
        if len(context_tokens) != order - 1:
            raise ValueError(
                f"context {context_tokens!r} has length {len(context_tokens)}, "
                f"expected {order - 1} for order {order}"
            )
        for tok in list(context_tokens) + [token]:
            if tok not in vocab:
                raise ValueError(f"token {tok!r} is not in the model vocabulary")
        context = tuple(vocab.token_to_id(t) for t in context_tokens)
        target = vocab.token_to_id(token)
        bucket = counts.setdefault(context, {})
        bucket[target] = bucket.get(target, 0) + count
        totals[context] = totals.get(context, 0) + count
    return NGramModel(order=order, alpha=float(alpha), vocab=vocab,
                      counts=counts, totals=totals)


def load_ngram(text: str) -> NGramModel:
    return ngram_from_dict(_parse_yaml(text))


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
                return rule.log_row.copy()
        return self.default_log_row.copy()


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
    return _log_row(full)


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
    return table_from_dict(_parse_yaml(text))


# ---------------------------------------------------------------------------
# Loading helpers


def _parse_yaml(text: str) -> dict:
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # libyaml encodes the text to UTF-8 first, so a lone surrogate fails
        # there instead of in the pure reader's character check
        raise ValueError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("model document must be a key-value mapping")
    return doc


def load_scorer(text: str) -> NGramModel | TableScorer:
    """Load either model kind, dispatching on the document's fields."""
    doc = _parse_yaml(text)
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
