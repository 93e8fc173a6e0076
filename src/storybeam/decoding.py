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
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import BOS_TOKEN, EOS_ID, EOS_TOKEN, FIRST_GENERABLE_ID, PAD_TOKEN, Vocabulary
from .diversity import PenaltyFn, hamming_diversity, validate_penalty, zero_penalty
from .kernels import select_top_candidates
from .scoring import Condition, Scorer

CARRYOVER_TOKEN = -1  # tie-break sentinel for finished hypotheses kept in the beam


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
    """What one expansion step considered and kept.

    Carried-over finished hypotheses appear with token -1 and zero
    logprob/penalty entries.
    """

    candidate_count: int
    selected_tokens: tuple[int, ...]
    selected_logprobs: tuple[float, ...]
    selected_penalties: tuple[float, ...]


@dataclass(frozen=True)
class SegmentResult:
    condition: str
    best: Hypothesis
    all_finished: tuple[Hypothesis, ...]
    trace: tuple[StepTrace, ...]


@dataclass(frozen=True)
class StoryResult:
    segments: tuple[SegmentResult, ...]
    story_tokens: tuple[int, ...]


def _expand_traced(beam: Beam, scores_per_hypothesis: Sequence[np.ndarray],
                   penalty: np.ndarray, strength: float, beam_width: int
                   ) -> tuple[Beam, StepTrace]:
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    if not (math.isfinite(strength) and strength >= 0):
        raise ValueError(f"diversity strength must be finite and >= 0, got {strength}")
    vocab_size = len(penalty)
    unfinished = [(i, h) for i, h in enumerate(beam) if not h.finished]
    finished = [(i, h) for i, h in enumerate(beam) if h.finished]
    if len(scores_per_hypothesis) != len(unfinished):
        raise ValueError(
            f"got {len(scores_per_hypothesis)} score vectors for "
            f"{len(unfinished)} unfinished hypotheses")
    for scores in scores_per_hypothesis:
        if scores.shape != (vocab_size,):
            raise ValueError(
                f"step scores have shape {scores.shape}, expected ({vocab_size},)")

    if unfinished:
        matrix = np.stack([np.asarray(s, dtype=np.float64)
                           for s in scores_per_hypothesis])
    else:
        matrix = np.zeros((0, vocab_size), dtype=np.float64)
    base_aug = np.array([h.aug_score for _, h in unfinished], dtype=np.float64)
    unfinished_idx = np.array([i for i, _ in unfinished], dtype=np.int64)
    carry_scores = np.array([h.aug_score for _, h in finished], dtype=np.float64)
    carry_idx = np.array([i for i, _ in finished], dtype=np.int64)

    sel_beam, sel_token, sel_aug = select_top_candidates(
        base_aug, matrix, penalty, float(strength),
        unfinished_idx, carry_scores, carry_idx, int(beam_width))

    row_of = {int(i): row for row, (i, _) in enumerate(unfinished)}
    kept = []
    for beam_pos, token, aug in zip(sel_beam, sel_token, sel_aug):
        beam_pos, token = int(beam_pos), int(token)
        parent = beam[beam_pos]
        if token == CARRYOVER_TOKEN:
            kept.append(parent)
            continue
        logprob = float(matrix[row_of[beam_pos], token])
        contribution = float(strength) * float(penalty[token])
        kept.append(Hypothesis(
            tokens=parent.tokens + (token,),
            raw_score=parent.raw_score + logprob,
            aug_score=float(aug),
            finished=token == EOS_ID,
            step_logprobs=parent.step_logprobs + (logprob,),
            step_penalties=parent.step_penalties + (contribution,),
        ))
    n_generable = vocab_size - FIRST_GENERABLE_ID
    trace = StepTrace(
        candidate_count=len(unfinished) * n_generable + len(finished),
        selected_tokens=tuple(int(t) for t in sel_token),
        selected_logprobs=tuple(
            h.step_logprobs[-1] if t != CARRYOVER_TOKEN else 0.0
            for h, t in zip(kept, sel_token)),
        selected_penalties=tuple(
            h.step_penalties[-1] if t != CARRYOVER_TOKEN else 0.0
            for h, t in zip(kept, sel_token)),
    )
    return Beam(tuple(kept)), trace


def expand_and_select(beam: Beam, scores_per_hypothesis: Sequence[np.ndarray],
                      penalty: np.ndarray, strength: float, beam_width: int) -> Beam:
    """One selection step: expand unfinished hypotheses and keep the top B.

    ``scores_per_hypothesis`` must align with the beam's unfinished
    hypotheses in order. Finished hypotheses are not expanded but compete
    for slots at their existing augmented score. Each expansion candidate
    scores ``hypothesis aug + logprob + strength * penalty[token]``; PAD
    and BOS are never candidates.
    """
    validate_penalty(penalty, len(penalty))
    new_beam, _ = _expand_traced(beam, scores_per_hypothesis, penalty,
                                 strength, beam_width)
    return new_beam


def _merge_finished(pool: list[Hypothesis], new: list[Hypothesis],
                    beam_width: int) -> list[Hypothesis]:
    # stable sort keeps earlier-finished hypotheses ahead on score ties
    merged = sorted(pool + new, key=lambda h: h.aug_score, reverse=True)
    return merged[:beam_width]


def beam_search(scorer: Scorer, condition: Condition, vocab: Vocabulary,
                config: DecodeConfig, penalty: np.ndarray | None = None
                ) -> SegmentResult:
    """Decode one segment under a frozen penalty vector.

    Starts from a single empty hypothesis (scorers see the BOS context
    implicitly), runs up to ``max_len`` selection steps, and collects
    hypotheses into a finished pool when they emit EOS. The search stops
    early once every kept hypothesis is finished, or once the pool holds
    ``beam_width`` finished hypotheses none of which any unfinished
    continuation could still beat (scores only ever decrease). Unfinished
    hypotheses surviving all ``max_len`` steps are force-finished at
    their current score. Returns the best finished hypothesis by
    augmented score along with the whole pool and a per-step trace.
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
    pool: list[Hypothesis] = []
    trace: list[StepTrace] = []
    for step in range(config.max_len):
        unfinished = [h for h in beam if not h.finished]
        if not unfinished:
            break
        best_possible = max(h.aug_score for h in unfinished)
        if len(pool) == beam_width and best_possible <= pool[-1].aug_score:
            break
        scores = [scorer.score_step(condition, h.tokens) for h in unfinished]
        beam, step_trace = _expand_traced(beam, scores, penalty, strength, beam_width)
        trace.append(step_trace)
        newly = [h for h in beam if h.finished and len(h.tokens) == step + 1]
        if newly:
            pool = _merge_finished(pool, newly, beam_width)
    else:
        leftover = [h for h in beam if not h.finished]
        if leftover:
            forced = [replace(h, finished=True) for h in leftover]
            pool = _merge_finished(pool, forced, beam_width)

    return SegmentResult(condition=condition, best=pool[0],
                         all_finished=tuple(pool), trace=tuple(trace))


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
            validate_penalty(penalty, len(vocab))
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
