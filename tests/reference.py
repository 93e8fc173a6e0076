"""Brute-force references and a row validator that certify the decoder.

None of this ships in the package: the CLI and the library never run it.
``exhaustive_step_select`` mirrors one selection step and
``exhaustive_best`` scores every complete sequence; both enumerate their
candidate spaces outright, so the guard limit is deliberate and
performance is a non-goal. They expand each row with their own
``dense_row``, never through ``scoring.summarize``, so a fault in the
decoder's reading of rows is not shared with its reference.
``validate_step_scores`` checks that a row is a log-distribution, and
``ValidatingScorer`` applies it to every row a scorer returns.
``reference_dump_ngram`` is an earlier model writer that builds the
document as lists and serializes it with ``json.dumps``; the package's
one-pass writer must write its bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from storybeam.config import check_count, check_strength
from storybeam.corpus import BOS_ID, EOS_ID, FIRST_GENERABLE_ID, PAD_ID, Vocabulary
from storybeam.diversity import validate_penalty
from storybeam.ngram import _YAML_UNSAFE, NGramModel, _float_literal
from storybeam.scoring import Condition, ScoreRow, Scorer, Scores

LOGSUMEXP_TOLERANCE = 1e-9
SEARCH_SPACE_LIMIT = 10 ** 6


def dense_row(scores: Scores) -> np.ndarray:
    """A step's row as a dense vector: a ``ScoreRow`` expanded, a dense row as it is."""
    if not isinstance(scores, ScoreRow):
        return scores
    row = np.full(scores.vocab_size, scores.floor)
    row[:FIRST_GENERABLE_ID] = -math.inf
    row[list(scores.ids)] = scores.values  # a tuple index would be multi-dimensional
    return row


def validate_step_scores(scores: Scores, vocab_size: int) -> None:
    """Raise ``ValueError`` unless ``scores`` is a valid log-distribution.

    Its log-sum-exp must be within ``LOGSUMEXP_TOLERANCE`` of 0.
    """
    scores = dense_row(scores)
    if scores.shape != (vocab_size,):
        raise ValueError(f"step scores have shape {scores.shape}, expected ({vocab_size},)")
    if scores.dtype != np.float64:
        raise ValueError(f"step scores must be float64, got {scores.dtype}")
    if np.isnan(scores).any():
        raise ValueError("step scores contain NaN")
    if scores[PAD_ID] != -np.inf or scores[BOS_ID] != -np.inf:
        raise ValueError("PAD and BOS must have -inf log-probability")
    # log-sum-exp, shifted by the peak; an all--inf row gives -inf
    lse = float(np.max(scores))
    if math.isfinite(lse):
        lse += math.log(float(np.sum(np.exp(scores - lse))))
    if not abs(lse) <= LOGSUMEXP_TOLERANCE:
        raise ValueError(f"step scores are not a distribution: log-sum-exp = {lse!r}")


class ValidatingScorer:
    """Wraps a scorer and checks every returned row with ``validate_step_scores``.

    Used by the verification suite to certify that all distributions seen
    during decoding are proper.
    """

    def __init__(self, inner: Scorer):
        self._inner = inner
        self.calls = 0

    @property
    def vocab(self) -> Vocabulary:
        return self._inner.vocab

    def score_step(self, condition: Condition, prefix: Sequence[int]) -> Scores:
        scores = self._inner.score_step(condition, prefix)
        validate_step_scores(scores, len(self._inner.vocab))
        self.calls += 1
        return scores


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum over the enumerated sequence space."""

    best_tokens: tuple[int, ...]
    best_score: float


def exhaustive_step_select(beam_aug: Sequence[float],
                           scores_per_hypothesis: Sequence[Scores],
                           penalty: np.ndarray, strength: float,
                           beam_width: int) -> tuple[np.ndarray, ...]:
    """Reference for ``expand_and_select``: materialize and sort everything.

    Builds every ``(score, token, beam position)`` candidate, sorts the
    whole list under the selection order (score descending, token
    ascending, beam position ascending), and keeps the top
    ``beam_width``. Returns beam positions, token ids and scores like the
    engine, and must match it exactly, including order.
    """
    check_count("beam_width", beam_width)
    check_strength("strength", strength)
    validate_penalty(penalty, len(penalty))
    if len(scores_per_hypothesis) != len(beam_aug):
        raise ValueError(
            f"got {len(scores_per_hypothesis)} score vectors for {len(beam_aug)} hypotheses")

    candidates = []
    for pos, (aug, scores) in enumerate(zip(beam_aug, scores_per_hypothesis)):
        scores = dense_row(scores)
        for token in range(FIRST_GENERABLE_ID, len(penalty)):
            score = (float(aug) + float(scores[token])) + strength * float(penalty[token])
            candidates.append((score, token, pos))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    kept = candidates[:beam_width]
    return (np.array([c[2] for c in kept], dtype=np.int64),
            np.array([c[1] for c in kept], dtype=np.int64),
            np.array([c[0] for c in kept], dtype=np.float64))


def exhaustive_best(scorer: Scorer, condition: Condition, vocab: Vocabulary,
                    max_len: int, strength: float,
                    penalty: np.ndarray) -> OracleResult:
    """Exact optimum of the penalized objective over all complete sequences.

    A complete sequence either ends in EOS or has exactly ``max_len``
    tokens; EOS never appears before the final position. Scoring
    accumulates ``logprob + strength * penalty[token]`` per step, exactly
    like the engine. Ties prefer the shorter sequence, then the
    lexicographically smaller token ids. Refuses search spaces larger
    than ``SEARCH_SPACE_LIMIT`` leaves.
    """
    check_count("max_len", max_len)
    check_strength("strength", strength)
    validate_penalty(penalty, len(vocab))
    n_generable = len(vocab) - FIRST_GENERABLE_ID
    # 2 ** 64 already exceeds the limit: no exact power of an unbounded max_len
    if n_generable ** min(max_len, 64) > SEARCH_SPACE_LIMIT:
        raise ValueError(
            f"search space {n_generable}^{max_len} exceeds the "
            f"{SEARCH_SPACE_LIMIT} guard limit")

    best_tokens: tuple[int, ...] | None = None
    best_score = -np.inf

    def consider(tokens: tuple[int, ...], score: float) -> None:
        nonlocal best_tokens, best_score
        if best_tokens is None or score > best_score:
            best_tokens, best_score = tokens, score
        elif score == best_score and (len(tokens), tokens) < (len(best_tokens), best_tokens):
            best_tokens = tokens

    def visit(prefix: tuple[int, ...], aug: float) -> None:
        scores = dense_row(scorer.score_step(condition, prefix))
        for token in range(FIRST_GENERABLE_ID, len(vocab)):
            new_aug = (aug + float(scores[token])) + strength * float(penalty[token])
            extended = prefix + (token,)
            if token == EOS_ID or len(extended) == max_len:
                consider(extended, new_aug)
            else:
                visit(extended, new_aug)

    visit((), 0.0)
    assert best_tokens is not None
    return OracleResult(best_tokens=best_tokens, best_score=best_score)


def _ngram_to_dict(model: NGramModel) -> dict:
    """The model as a document, its count entries in (context, token) string order."""
    # construction checked every id, so they index the token list directly
    tokens = model.vocab.tokens
    size = len(tokens)
    rank = [0] * size  # each id's place in string order
    for place, token in enumerate(sorted(range(size), key=tokens.__getitem__)):
        rank[token] = place
    # every context holds order - 1 ids, so an entry's ranks read as one base-V
    # numeral sort exactly as its strings do
    entries = {}
    for context, bucket in model.counts.items():
        key = 0
        context_tokens = []  # built here: a comprehension is a function call on Python 3.11
        for i in context:
            key = key * size + rank[i]
            context_tokens.append(tokens[i])
        key *= size
        for token, count in bucket.items():
            entries[key + rank[token]] = [context_tokens, tokens[token], count]
    triples = [entries[key] for key in sorted(entries)]
    return {
        "order": model.order,
        "alpha": model.alpha,
        "vocab": list(model.vocab.tokens),
        "counts": triples,
    }


def reference_dump_ngram(model: NGramModel) -> str:
    """Serialize to compact JSON, which is also YAML.

    Deterministic, and loads back to identical scores.
    """
    fields = {key: json.dumps(value, ensure_ascii=False, separators=(",", ":"))
              for key, value in _ngram_to_dict(model).items()}
    fields["alpha"] = _float_literal(model.alpha)
    text = "{" + ",".join(f'"{key}":{value}' for key, value in fields.items()) + "}\n"
    return _YAML_UNSAFE.sub(lambda char: f"\\u{ord(char.group()):04x}", text)
