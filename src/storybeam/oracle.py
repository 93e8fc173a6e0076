"""Brute-force reference implementations for certifying the decoder.

These enumerate candidate spaces outright and exist only for tests and
spot checks; the guard limit is deliberate and performance is a
non-goal. ``exhaustive_step_select`` mirrors one selection step,
``exhaustive_best`` scores every complete sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_count, check_strength
from .corpus import EOS_ID, FIRST_GENERABLE_ID, Vocabulary
from .diversity import validate_penalty
from .scoring import Condition, Scorer, Scores, dense_row

SEARCH_SPACE_LIMIT = 10 ** 6


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
