"""Step scorers: next-token log-probability distributions.

A scorer maps ``(condition, prefix)`` to a vector of natural-log
probabilities over the whole vocabulary (one entry per token id). Every
scorer obeys the same contract:

* the vector has one float64 entry per vocabulary id,
* PAD and BOS get ``-inf`` (they are structural, never generated),
* the probabilities of the remaining tokens sum to 1,
* identical arguments always produce identical vectors,
* a vector may be shared and read-only: callers must not write into it;
  a read-only vector that owns its data, once returned, is never changed,
  so the decoder summarizes each such vector once.

Two concrete scorers ship: a Laplace-smoothed n-gram model trained from
a corpus (``ngram``, re-exported here, which counts and reads models
without numpy), and the table scorer defined here, driven by explicit
probability rows (useful for tests, demos, and hand-constructed
fixtures). The condition argument is an opaque non-empty string naming
the conditioning input of one segment; the n-gram model ignores it, the
table scorer may dispatch on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .config import _is_finite_number
from .corpus import BOS_ID, BOS_TOKEN, PAD_ID, PAD_TOKEN, SPECIAL_TOKENS, Vocabulary
from .ngram import (  # noqa: F401 - storybeam.scoring keeps naming the n-gram API
    NGramModel,
    _check_step_args,
    _is_token_list,
    _parse_document,
    dump_ngram,
    load_ngram,
    ngram_from_dict,
    ngram_to_dict,
    train_ngram,
)

LOGSUMEXP_TOLERANCE = 1e-9
ROW_SUM_TOLERANCE = 1e-6

Condition = str


class Scorer(Protocol):
    """Anything that can produce next-token log-probabilities."""

    @property
    def vocab(self) -> Vocabulary: ...

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> np.ndarray: ...


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
    with np.errstate(divide="ignore"):
        log_row = np.log(full)
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
    vocab = Vocabulary(t for t in listed if t not in SPECIAL_TOKENS)
    # Vocabulary has vetted the tokens, so they hash
    if len(set(listed)) != len(listed):
        raise ValueError("vocab tokens must be unique")
    for tok in (PAD_TOKEN, BOS_TOKEN):
        if tok in listed:
            raise ValueError(f"{tok} is never generated and cannot carry probability")
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
