"""Beam-search decoding over one or many conditioned segments.

A story is decoded segment by segment. The first segment runs plain beam
search; every later segment runs beam search whose candidate scores are
augmented by ``strength * penalty[token]``, where the penalty vector is
computed once from the best hypotheses of all earlier segments and
frozen for the whole segment. Each hypothesis therefore carries two
scores: ``raw_score`` (the plain sum of per-step log-probabilities) and
``aug_score`` (the running total with penalty contributions folded in,
which is what ranking uses).

Determinism is part of the contract: candidate selection follows a
strict total order (augmented score descending, token id ascending,
incoming beam position ascending), so identical inputs always produce
identical results, byte for byte once serialized.

The penalty is frozen and depends only on the token, so a selection step
needs just each live hypothesis's augmented score and score row. A live
hypothesis is a plain tuple ``(prefix tokens, aug, step logprob, step
contribution, parent)``, and a step copies no score history. After each
step the finishers update the segment's single running best, and the
next beam keeps the unfinished hypotheses scoring strictly above it.
Only the segment's winner is walked back into a ``Hypothesis``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DecodeConfig, check_count, check_strength
from .corpus import BOS_TOKEN, EOS_ID, EOS_TOKEN, FIRST_GENERABLE_ID, PAD_TOKEN, Vocabulary
from .diversity import PenaltyFn, hamming_diversity, validate_penalty, zero_penalty
from .kernels import select_top_candidates
from .scoring import Condition, Scorer


@dataclass(frozen=True)
class Hypothesis:
    """A segment's result: a complete output sequence with replayable scores.

    ``step_logprobs`` and ``step_penalties`` are aligned with ``tokens``;
    ``raw_score`` is their log-probability sum taken left to right from
    0.0, and ``aug_score`` is the running total that also folds in each
    step's penalty contribution. A sequence ended by EOS keeps that EOS
    as its last token; one ended by the step budget keeps its tokens
    as-is.
    """

    tokens: tuple[int, ...] = ()
    raw_score: float = 0.0
    aug_score: float = 0.0
    step_logprobs: tuple[float, ...] = ()
    step_penalties: tuple[float, ...] = ()


@dataclass(frozen=True)
class StepTrace:
    """What one expansion step considered: every (hypothesis, generable token) pair."""

    candidate_count: int


@dataclass(frozen=True)
class SegmentResult:
    condition: str
    best: Hypothesis
    trace: tuple[StepTrace, ...]


@dataclass(frozen=True)
class StoryResult:
    segments: tuple[SegmentResult, ...]


def expand_and_select(beam_aug: Sequence[float],
                      scores_per_hypothesis: Sequence[np.ndarray], penalty: np.ndarray,
                      strength: float, beam_width: int) -> tuple[np.ndarray, ...]:
    """One selection step: expand every live hypothesis and keep the top B.

    ``beam_aug`` holds the live hypotheses' augmented scores in any
    order, and ``scores_per_hypothesis`` their score rows in the same
    order. Each candidate scores ``aug + logprob + strength *
    penalty[token]``; PAD and BOS are never candidates. ``beam_width`` and
    ``strength`` follow ``DecodeConfig``'s rules. A NaN has no
    place in the total order, and ``+inf`` plus ``-inf`` makes one, so a
    NaN or ``+inf`` in ``beam_aug`` or in a score row raises
    ``ValueError`` (``-inf`` is legal). Returns the kept candidates' beam
    positions, token ids and scores, in selection order.
    """
    check_count("beam_width", beam_width)
    check_strength("strength", strength)
    validate_penalty(penalty, len(penalty))
    vocab_size = len(penalty)
    base_aug = np.array(beam_aug, dtype=np.float64)
    if not (base_aug < np.inf).all():
        raise ValueError("beam aug scores contain NaN or +inf")
    if len(scores_per_hypothesis) != len(base_aug):
        raise ValueError(
            f"got {len(scores_per_hypothesis)} score vectors for {len(base_aug)} hypotheses")
    for scores in scores_per_hypothesis:
        if scores.shape != (vocab_size,):
            raise ValueError(
                f"step scores have shape {scores.shape}, expected ({vocab_size},)")

    matrix = np.array(scores_per_hypothesis, dtype=np.float64).reshape(
        len(base_aug), vocab_size)
    if not (matrix < np.inf).all():
        raise ValueError("step scores contain NaN or +inf")
    return select_top_candidates(
        base_aug, matrix, penalty, float(strength), np.arange(len(base_aug), dtype=np.int64),
        np.empty(0), np.empty(0, dtype=np.int64), beam_width)


def _hypothesis(node: tuple) -> Hypothesis:
    """A segment's result, built by walking the links back from its last step."""
    tokens, aug_score = node[0], node[1]
    steps = []
    while node[4] is not None:  # the root is no step
        steps.append(node)
        node = node[4]
    steps.reverse()
    raw_score = 0.0
    for step in steps:
        raw_score += step[2]
    return Hypothesis(tokens, raw_score, aug_score, tuple(step[2] for step in steps),
                      tuple(step[3] for step in steps))


def beam_search(scorer: Scorer, condition: Condition, vocab: Vocabulary,
                config: DecodeConfig, penalty: np.ndarray | None = None
                ) -> SegmentResult:
    """Decode one segment under a frozen penalty vector.

    Starts from a single empty hypothesis (scorers see the BOS context
    implicitly) and runs up to ``max_len`` selection steps, keeping the
    best finished hypothesis by augmented score; on ties the one that
    finished first, then the one ranked first in the beam, wins. After
    each step the next beam keeps only the unfinished hypotheses scoring
    strictly above that best (all of them while nothing has finished):
    scores never increase, so no other continuation could still beat it.
    The search stops once the beam is empty or ``max_len`` steps have
    run. Hypotheses left after ``max_len`` steps are force-finished at
    their current score and compete under the same rule. Returns the
    best hypothesis and a per-step trace with one entry per step run.
    """
    if penalty is None:
        penalty = zero_penalty(len(vocab))
    validate_penalty(penalty, len(vocab))
    if not (isinstance(condition, str) and condition):
        raise ValueError("condition must be a non-empty string")
    try:
        condition.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, as a non-UTF-8 argv byte becomes
        raise ValueError(f"condition {condition!r} is not valid Unicode") from None
    beam_width = config.beam_width
    strength = config.diversity_strength
    # a hypothesis collects at most max_len penalty contributions; their total
    # must stay finite or the kernel's score sums overflow to -inf
    steps = min(config.max_len, sys.float_info.max)  # an int may exceed float range
    with np.errstate(over="ignore"):
        contributions = strength * penalty
        worst_total = steps * contributions
    if not np.isfinite(worst_total).all():
        raise ValueError(
            f"diversity strength {strength} overflows this segment's penalty "
            f"total over {config.max_len} steps")

    # live hypotheses: (prefix tokens, aug, step logprob, step contribution, parent)
    beam: list[tuple] = [((), 0.0, 0.0, 0.0, None)]
    best: tuple | None = None
    trace: list[StepTrace] = []
    n_generable = len(vocab) - FIRST_GENERABLE_ID
    while beam and len(trace) < config.max_len:
        trace.append(StepTrace(candidate_count=len(beam) * n_generable))
        scores = [scorer.score_step(condition, node[0]) for node in beam]
        positions, tokens, augs = expand_and_select(
            [node[1] for node in beam], scores, penalty, strength, beam_width)
        live = []
        for pos, token, aug in zip(positions.tolist(), tokens.tolist(), augs.tolist()):
            parent = beam[pos]
            node = (parent[0] + (token,), aug, float(scores[pos][token]),
                    float(contributions[token]), parent)
            if token != EOS_ID:
                live.append(node)
            elif best is None or aug > best[1]:  # strict: the earlier finisher wins ties
                best = node
        # scores never increase, so only a live hypothesis above best can still win
        beam = [node for node in live if best is None or node[1] > best[1]]
    for node in beam:  # force-finish what max_len cut off
        if best is None or node[1] > best[1]:
            best = node
    return SegmentResult(condition=condition, best=_hypothesis(best), trace=tuple(trace))


def inter_sentence_dbs(scorer: Scorer, conditions: Sequence[Condition],
                       vocab: Vocabulary, config: DecodeConfig,
                       penalty_fn: PenaltyFn = hamming_diversity) -> StoryResult:
    """Decode a multi-segment story with cross-segment diversity penalties.

    Segment 1 is decoded with no penalty. For each segment ``i >= 2`` the
    penalty vector is computed by ``penalty_fn`` from the best hypotheses
    of segments ``1..i-1``, validated, and frozen for that segment's
    whole decode. Each segment's best hypothesis joins the story and
    feeds all later penalties.
    """
    if not conditions:
        raise ValueError("at least one condition is required")
    if len(conditions) != config.num_segments:
        raise ValueError(
            f"got {len(conditions)} conditions for num_segments={config.num_segments}")
    segments: list[SegmentResult] = []
    for i, condition in enumerate(conditions):
        if i == 0:
            penalty = zero_penalty(len(vocab))
        else:
            penalty = penalty_fn([seg.best.tokens for seg in segments], vocab)
        segments.append(beam_search(scorer, condition, vocab, config, penalty))
    return StoryResult(segments=tuple(segments))


# ---------------------------------------------------------------------------
# Output serialization

_STRUCTURAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN)


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite score {value}: JSON has no nan/inf")
    return format(value, ".9g")


def _jstr(text: str) -> str:
    return json.dumps(text, ensure_ascii=False)


def story_to_json(result: StoryResult, vocab: Vocabulary) -> str:
    """Serialize a story with a fixed field order and 9-significant-digit floats.

    The layout is stable so identical decodes produce byte-identical
    files. ``story`` is the readable concatenation of all segments with
    structural tokens dropped (``<unk>`` is kept: it marks a real
    emission). Raises ``ValueError`` on a non-finite score rather than
    writing invalid JSON.
    """
    segment_objs = []
    story_words: list[str] = []
    for seg in result.segments:
        words = vocab.decode(seg.best.tokens)
        story_words.extend(w for w in words if w not in _STRUCTURAL_TOKENS)
        steps = ", ".join(
            "{" + f'"token": {_jstr(w)}, "logprob": {_fmt(lp)}, "penalty": {_fmt(pen)}' + "}"
            for w, lp, pen in zip(words, seg.best.step_logprobs, seg.best.step_penalties))
        tokens = ", ".join(_jstr(w) for w in words)
        segment_objs.append(
            "{" + f'"condition": {_jstr(seg.condition)}, "tokens": [{tokens}], '
            f'"raw_score": {_fmt(seg.best.raw_score)}, '
            f'"aug_score": {_fmt(seg.best.aug_score)}, "steps": [{steps}]' + "}")
    segments = ", ".join(segment_objs)
    story = _jstr(" ".join(story_words))
    return "{" + f'"segments": [{segments}], "story": {story}' + "}\n"
