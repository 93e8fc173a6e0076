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

from .corpus import EOS_ID, FIRST_GENERABLE_ID, Vocabulary
from .decoding import Beam, Hypothesis
from .diversity import validate_penalty
from .scoring import Condition, Scorer

SEARCH_SPACE_LIMIT = 10 ** 6


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum over the enumerated sequence space."""

    best_tokens: tuple[int, ...]
    best_score: float


def exhaustive_step_select(beam: Beam, scores_per_hypothesis: Sequence[np.ndarray],
                           penalty: np.ndarray, strength: float,
                           beam_width: int) -> Beam:
    """Reference for ``expand_and_select``: materialize and sort everything.

    Builds every (hypothesis, token) candidate, sorts the whole list
    under the selection order (score descending, token ascending, beam
    position ascending), and keeps the top ``beam_width``. Rejects a
    finished hypothesis like the engine does. Must match the engine
    exactly, including order.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    if not strength >= 0:
        raise ValueError(f"diversity strength must be >= 0, got {strength}")
    vocab_size = len(penalty)
    if any(h.finished for h in beam):
        raise ValueError("finished hypotheses cannot be expanded")
    if len(scores_per_hypothesis) != len(beam):
        raise ValueError(
            f"got {len(scores_per_hypothesis)} score vectors for {len(beam)} hypotheses")

    candidates: list[tuple[float, int, int, Hypothesis]] = []
    for pos, (parent, scores) in enumerate(zip(beam, scores_per_hypothesis)):
        for token in range(FIRST_GENERABLE_ID, vocab_size):
            logprob = float(scores[token])
            contribution = strength * float(penalty[token])
            aug = (parent.aug_score + logprob) + contribution
            extended = Hypothesis(
                tokens=parent.tokens + (token,),
                raw_score=parent.raw_score + logprob,
                aug_score=aug,
                finished=token == EOS_ID,
                step_logprobs=parent.step_logprobs + (logprob,),
                step_penalties=parent.step_penalties + (contribution,),
            )
            candidates.append((aug, token, pos, extended))

    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    return Beam(tuple(c[3] for c in candidates[:beam_width]))


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
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if not strength >= 0:
        raise ValueError(f"diversity strength must be >= 0, got {strength}")
    validate_penalty(penalty, len(vocab))
    n_generable = len(vocab) - FIRST_GENERABLE_ID
    if n_generable ** max_len > SEARCH_SPACE_LIMIT:
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
        scores = scorer.score_step(condition, prefix)
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
