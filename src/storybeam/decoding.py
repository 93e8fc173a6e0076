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

A beam holds only live hypotheses that can still win. After each step
the finishers update the segment's single running best, and the next
beam keeps the unfinished hypotheses scoring strictly above it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .corpus import BOS_TOKEN, EOS_ID, EOS_TOKEN, FIRST_GENERABLE_ID, PAD_TOKEN, Vocabulary
from .diversity import PenaltyFn, hamming_diversity, validate_penalty, zero_penalty
from .kernels import select_top_candidates
from .scoring import Condition, Scorer

@dataclass(frozen=True)
class DecodeConfig:
    """Decoding knobs: beam width, diversity strength, step budget, segments."""

    beam_width: int = 3
    diversity_strength: float = 2.0
    max_len: int = 20
    num_segments: int = 5

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if not (math.isfinite(self.diversity_strength) and self.diversity_strength >= 0):
            raise ValueError(
                f"diversity_strength must be finite and >= 0, got {self.diversity_strength}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if self.num_segments < 1:
            raise ValueError(f"num_segments must be >= 1, got {self.num_segments}")


@dataclass(frozen=True)
class Hypothesis:
    """A (possibly complete) output sequence with replayable scores.

    ``step_logprobs`` and ``step_penalties`` are aligned with ``tokens``;
    ``raw_score`` is their running log-probability sum and ``aug_score``
    additionally folds in each step's penalty contribution. A hypothesis
    finished by emitting EOS keeps that EOS as its last token; a
    hypothesis finished by exhausting the step budget keeps its tokens
    as-is.
    """

    tokens: tuple[int, ...] = ()
    raw_score: float = 0.0
    aug_score: float = 0.0
    finished: bool = False
    step_logprobs: tuple[float, ...] = ()
    step_penalties: tuple[float, ...] = ()


@dataclass(frozen=True)
class Beam:
    """Hypotheses ordered best-first by augmented score."""

    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self):
        scores = [h.aug_score for h in self.hypotheses]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("beam hypotheses must be sorted by aug_score, best first")

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __iter__(self):
        return iter(self.hypotheses)

    def __getitem__(self, i: int) -> Hypothesis:
        return self.hypotheses[i]


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
    story_tokens: tuple[int, ...]


def expand_and_select(beam: Beam, scores_per_hypothesis: Sequence[np.ndarray],
                      penalty: np.ndarray, strength: float, beam_width: int) -> Beam:
    """One selection step: expand every hypothesis of the beam and keep the top B.

    ``scores_per_hypothesis`` must align with the beam's hypotheses in
    order, and every hypothesis must be unfinished: a finished one has
    nothing left to expand. Each candidate scores ``hypothesis aug +
    logprob + strength * penalty[token]``; PAD and BOS are never
    candidates.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    if not (math.isfinite(strength) and strength >= 0):
        raise ValueError(f"diversity strength must be finite and >= 0, got {strength}")
    validate_penalty(penalty, len(penalty))
    vocab_size = len(penalty)
    if any(h.finished for h in beam):
        raise ValueError("finished hypotheses cannot be expanded")
    if len(scores_per_hypothesis) != len(beam):
        raise ValueError(
            f"got {len(scores_per_hypothesis)} score vectors for {len(beam)} hypotheses")
    for scores in scores_per_hypothesis:
        if scores.shape != (vocab_size,):
            raise ValueError(
                f"step scores have shape {scores.shape}, expected ({vocab_size},)")

    matrix = np.array(scores_per_hypothesis, dtype=np.float64).reshape(
        len(beam), vocab_size)
    base_aug = np.array([h.aug_score for h in beam], dtype=np.float64)
    sel_beam, sel_token, sel_aug = select_top_candidates(
        base_aug, matrix, penalty, float(strength), np.arange(len(beam), dtype=np.int64),
        np.empty(0), np.empty(0, dtype=np.int64), int(beam_width))

    kept = []
    for beam_pos, token, aug in zip(sel_beam, sel_token, sel_aug):
        beam_pos, token = int(beam_pos), int(token)
        parent = beam[beam_pos]
        logprob = float(matrix[beam_pos, token])
        contribution = float(strength) * float(penalty[token])
        kept.append(Hypothesis(
            tokens=parent.tokens + (token,),
            raw_score=parent.raw_score + logprob,
            aug_score=float(aug),
            finished=token == EOS_ID,
            step_logprobs=parent.step_logprobs + (logprob,),
            step_penalties=parent.step_penalties + (contribution,),
        ))
    return Beam(tuple(kept))


def _better_finisher(best: Hypothesis | None, finishers: Iterable[Hypothesis]
                     ) -> Hypothesis | None:
    # strict ">" keeps the earlier finisher on ties
    for h in finishers:
        if best is None or h.aug_score > best.aug_score:
            best = h
    return best


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
    if not condition:
        raise ValueError("condition must be a non-empty string")
    beam_width = config.beam_width
    strength = config.diversity_strength
    # a hypothesis collects at most max_len penalty contributions; their total
    # must stay finite or the kernel's score sums overflow to -inf
    steps = min(config.max_len, sys.float_info.max)  # an int may exceed float range
    with np.errstate(over="ignore"):
        worst_total = steps * (strength * penalty)
    if not np.isfinite(worst_total).all():
        raise ValueError(
            f"diversity strength {strength} overflows this segment's penalty "
            f"total over {config.max_len} steps")

    beam = Beam((Hypothesis(),))
    best: Hypothesis | None = None
    trace: list[StepTrace] = []
    n_generable = len(vocab) - FIRST_GENERABLE_ID
    while beam and len(trace) < config.max_len:
        trace.append(StepTrace(candidate_count=len(beam) * n_generable))
        scores = [scorer.score_step(condition, h.tokens) for h in beam]
        beam = expand_and_select(beam, scores, penalty, strength, beam_width)
        best = _better_finisher(best, (h for h in beam if h.finished))
        # scores never increase, so only a live hypothesis above best can still win
        beam = Beam(tuple(h for h in beam if not h.finished
                          and (best is None or h.aug_score > best.aug_score)))
    best = _better_finisher(best, (replace(h, finished=True) for h in beam))
    return SegmentResult(condition=condition, best=best, trace=tuple(trace))


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
    story_tokens: tuple[int, ...] = ()
    for seg in segments:
        story_tokens += seg.best.tokens
    return StoryResult(segments=tuple(segments), story_tokens=story_tokens)


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
