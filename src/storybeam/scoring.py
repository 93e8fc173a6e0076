"""Step scorers: next-token log-probability distributions.

A scorer maps ``(condition, prefix)`` to natural-log probabilities over
the whole vocabulary, one per token id. ``score_step`` returns either a
``ScoreRow``, the summary a selection step reads (a floor value shared by
most tokens, plus exception ids and their values), or a dense float64
vector with one entry per vocabulary id. Either way the row obeys the
same contract:

* PAD and BOS get ``-inf`` (they are structural, never generated),
* the probabilities of the remaining tokens sum to 1,
* identical arguments always produce identical rows,
* a row may be shared: a ``ScoreRow`` holds tuples and cannot be written,
  and callers must not write into a dense row.

The decoder passes every row through ``summarize`` as it receives it.

Two concrete scorers ship, and both return ``ScoreRow``s: a
Laplace-smoothed n-gram model trained from a corpus (``ngram``, which
counts and reads models without numpy), and the table scorer defined
here, driven by explicit probability rows (useful for tests, demos, and
hand-constructed fixtures). Both scorers apply the decoder's rule to
the condition argument, an opaque key (``config.check_condition``); the
n-gram model then ignores it, the table scorer may dispatch on it.
"""

from __future__ import annotations

import math
import operator
from typing import Protocol, Sequence

import numpy as np

from .config import _is_finite_number, check_condition
from .corpus import (
    BOS_TOKEN,
    EOS_TOKEN,
    FIRST_GENERABLE_ID,
    PAD_TOKEN,
    SPECIAL_TOKENS,
    Vocabulary,
    _Record,
)
from .ngram import (NGramModel, _check_step_args, _is_token_list, _log_or_minus_inf,
                    _parse_document, ngram_from_dict)
# perfbench/tracing.py imports these two from here until ROADMAP item 1
from .ngram import dump_ngram, train_ngram  # noqa: F401

ROW_SUM_TOLERANCE = 1e-6

Condition = str


def _row_items(items, convert, name: str, kind: str) -> tuple:
    """``items`` converted one by one, if it is a list, tuple, range or 1-D array."""
    if isinstance(items, (list, tuple, range)) or getattr(items, "ndim", None) == 1:
        try:
            return tuple(map(convert, items))
        except TypeError:  # a nested item, or one of another type
            pass
    raise ValueError(f"score row {name} must be a 1-D sequence of {kind}")


def _number(value) -> float:
    """``value`` as a float, if it is a number: ``float`` would parse a string too."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__float__"):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


class ScoreRow(_Record):
    """A score row as a selection step reads it: a floor plus exceptions.

    Every generable token scores ``floor`` except ``ids[i]``, which scores
    ``values[i]``; PAD and BOS score ``-inf``. ``ids`` holds distinct
    generable ids below ``vocab_size``, in any order, and may list a
    token at the floor value. Construction copies ``ids`` to a tuple of
    ints and ``values`` to a tuple of floats, so a row cannot be written,
    and raises ``ValueError`` on mismatched lengths, an id that is PAD,
    BOS, out of range or repeated, a score that is not a number (a string
    or bytes is not parsed), or a NaN or ``+inf`` score (``-inf`` is
    legal). A row equals only itself.
    """

    floor: float
    ids: tuple[int, ...]
    values: tuple[float, ...]
    vocab_size: int
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, floor: float, ids: Sequence[int], values: Sequence[float],
                 vocab_size: int):
        vocab_size = operator.index(vocab_size)
        if vocab_size <= FIRST_GENERABLE_ID:
            raise ValueError(f"score row vocab_size must exceed {FIRST_GENERABLE_ID}, "
                             f"got {vocab_size}")
        ids = _row_items(ids, operator.index, "ids", "integers")
        values = _row_items(values, _number, "values", "numbers")
        if len(values) != len(ids):
            raise ValueError(f"score row has {len(ids)} ids but {len(values)} values")
        listed = set(ids)
        if listed and not (FIRST_GENERABLE_ID <= min(listed) and max(listed) < vocab_size):
            raise ValueError(f"score row ids must be generable ids below {vocab_size}")
        if len(listed) != len(ids):
            raise ValueError("score row ids must be distinct")
        try:
            floor = _number(floor)
        except TypeError:
            raise ValueError(f"score row floor must be a number, got {floor!r}") from None
        if not (floor < math.inf and all(value < math.inf for value in values)):
            raise ValueError("step scores contain NaN or +inf")
        self.__dict__.update(floor=floor, ids=ids, values=values, vocab_size=vocab_size)


Scores = ScoreRow | np.ndarray


class Scorer(Protocol):
    """Anything that can produce next-token log-probabilities."""

    @property
    def vocab(self) -> Vocabulary: ...

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> Scores: ...


def summarize(scores: Scores, vocab_size: int) -> ScoreRow:
    """A step's row as a ``ScoreRow`` over ``vocab_size`` tokens.

    A ``ScoreRow`` is returned as it is. A dense row is summarized: its
    last value is the floor, and the generable ids valued otherwise are
    the exceptions. Raises ``ValueError`` on a wrong size, or a NaN or
    ``+inf`` anywhere in a dense row, PAD and BOS included.
    """
    if isinstance(scores, ScoreRow):
        if scores.vocab_size != vocab_size:
            raise ValueError(
                f"score row covers {scores.vocab_size} tokens, expected {vocab_size}")
        return scores
    row = np.asarray(scores, dtype=np.float64)
    if row.shape != (vocab_size,):
        raise ValueError(f"step scores have shape {row.shape}, expected ({vocab_size},)")
    if not (row[:FIRST_GENERABLE_ID] < math.inf).all():
        raise ValueError("step scores contain NaN or +inf")
    floor = row[-1]
    ids = (row[FIRST_GENERABLE_ID:] != floor).nonzero()[0] + FIRST_GENERABLE_ID
    return ScoreRow(floor, ids.tolist(), row[ids].tolist(), vocab_size)


# ---------------------------------------------------------------------------
# Table scorer


class TableRule(_Record):
    """One override row: applies when the condition and prefix suffix match."""

    condition: str | None
    context: tuple[int, ...]
    row: ScoreRow

    def __init__(self, condition: str | None, context: tuple[int, ...], row: ScoreRow):
        self.__dict__.update(condition=condition, context=context, row=row)

    def matches(self, condition: Condition, prefix: Sequence[int]) -> bool:
        if self.condition is not None and self.condition != condition:
            return False
        n = len(self.context)
        if n == 0:
            return True
        return tuple(prefix[-n:]) == self.context


class TableScorer(_Record):
    """Deterministic scorer backed by explicit probability rows.

    Rows are tried in declaration order; the first whose condition and
    context-suffix pattern match wins, otherwise the default row
    applies. Rows are validated, renormalized and summarized at load time,
    so every returned ``ScoreRow`` is an exact distribution.
    """

    vocab: Vocabulary
    default_row: ScoreRow
    rules: tuple[TableRule, ...]

    def __init__(self, vocab: Vocabulary, default_row: ScoreRow,
                 rules: tuple[TableRule, ...] = ()):
        self.__dict__.update(vocab=vocab, default_row=default_row, rules=rules)

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> ScoreRow:
        _check_step_args(condition, prefix)
        for rule in self.rules:
            if rule.matches(condition, prefix):
                return rule.row
        return self.default_row


def _finite_row(probs: list, label: str) -> np.ndarray:
    """``probs`` as a float64 array, if it is a list of ``_is_finite_number`` values."""
    if isinstance(probs, list):
        if set(map(type, probs)) <= {float, int}:  # no Python call per entry
            try:
                row = np.array(probs, dtype=np.float64)
            except OverflowError:  # an int beyond float range
                row = None
            if row is not None and np.isfinite(row).all():
                return row
        elif all(map(_is_finite_number, probs)):  # a bool, a float subclass, ...
            return np.array(probs, dtype=np.float64)
    raise ValueError(f"{label}: probabilities must be a list of finite numbers")


def _load_row(probs: list, listed_ids: list[int], vocab_size: int, label: str) -> ScoreRow:
    row = _finite_row(probs, label)
    if len(row) != len(listed_ids):
        raise ValueError(
            f"{label}: got {len(row)} probabilities for {len(listed_ids)} vocab tokens"
        )
    if (row < 0).any():
        raise ValueError(f"{label}: probabilities must be non-negative")
    total = float(row.sum())
    if abs(total - 1.0) > ROW_SUM_TOLERANCE:
        raise ValueError(f"{label}: probabilities sum to {total}, expected 1")
    probs = (row / total).tolist()
    logs = {p: _log_or_minus_inf(p) for p in set(probs)}
    log_row = np.full(vocab_size, -np.inf)
    log_row[listed_ids] = list(map(logs.__getitem__, probs))
    return summarize(log_row, vocab_size)


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
    vocab = Vocabulary([t for t in listed if t not in SPECIAL_TOKENS])
    # Vocabulary has vetted the tokens, so they hash
    if len(set(listed)) != len(listed):
        raise ValueError("vocab tokens must be unique")
    for tok in (PAD_TOKEN, BOS_TOKEN):
        if tok in listed:
            raise ValueError(f"{tok} is never generated and cannot carry probability")
    listed_ids = list(map(vocab.id_of, listed))
    vocab_size = len(vocab)
    default_row = _load_row(default_probs, listed_ids, vocab_size, "default_row")
    rows = [] if doc.get("rows") is None else doc["rows"]
    if not isinstance(rows, list):
        raise ValueError(f"rows must be a list of row mappings, got {type(rows).__name__}")
    rules = []
    for i, raw in enumerate(rows):
        label = f"rows[{i}]"
        if not isinstance(raw, dict) or "probs" not in raw:
            raise ValueError(f"{label}: each row needs at least a probs field")
        condition = raw.get("condition")
        if condition is not None:
            try:
                check_condition(condition)
            except ValueError as error:
                raise ValueError(f"{label}: {error}") from None
        context_tokens = [] if raw.get("context") is None else raw["context"]
        if not _is_token_list(context_tokens):
            raise ValueError(
                f"{label}: context must be a list of token strings, got {context_tokens!r}")
        for tok in context_tokens:
            if tok not in vocab:
                raise ValueError(f"{label}: unknown context token {tok!r}")
            if tok in (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN):  # BOS is implicit, EOS ends a hypothesis
                raise ValueError(f"{label}: context token {tok!r} never occurs in a prefix")
        context = tuple(map(vocab.id_of, context_tokens))
        row = _load_row(raw["probs"], listed_ids, vocab_size, label)
        rules.append(TableRule(condition=condition, context=context, row=row))
    return TableScorer(vocab=vocab, default_row=default_row, rules=tuple(rules))


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

