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
Only the segment's winner is walked back into a ``Hypothesis``. The same
frozen penalty gives the segment one token order by contribution, built
once, from which each step picks the few columns that can still be
selected (see ``expand_and_select``). A step reads a row through its
summary: the floor, the exception ids and the NaN/``+inf`` check. A
read-only row that owns its data is never changed, so its summary is
computed once per row object, however many steps and stories see it. Only
the kept columns of each row are read, and a row is copied whole only on
a step that keeps every column.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import sys
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class _SegmentOrder(NamedTuple):
    """A segment's frozen selection data, built once per penalty and strength.

    ``ranking`` lists the columns a step may keep, best first: PAD and BOS
    (which the kernel expects), then the generable token ids by
    contribution (``strength * penalty``) descending, then id ascending.
    ``ranked`` holds those tokens' contributions in that order, and
    ``bounds`` the positions in ``ranked`` where a new contribution value
    starts, between 0 and ``len(ranked)``.
    """

    penalty: np.ndarray
    strength: float
    contributions: np.ndarray
    ranking: np.ndarray
    ranked: list[float]
    bounds: list[int]


def _segment_order(penalty: np.ndarray, strength: float) -> _SegmentOrder:
    """The selection data of a validated penalty at ``strength``."""
    strength = float(strength)
    with np.errstate(over="ignore"):  # beam_search rejects an overflowing strength
        contributions = strength * penalty
    generable = contributions[FIRST_GENERABLE_ID:]
    order = np.argsort(-generable, kind="stable")  # ties stay in id order
    ranked = generable[order]
    starts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    ranking = np.concatenate((np.arange(FIRST_GENERABLE_ID), order + FIRST_GENERABLE_ID))
    return _SegmentOrder(penalty, strength, contributions, ranking, ranked.tolist(),
                         [0, *starts.tolist(), len(order)])


# Summaries of read-only rows by id(row): (weak reference to the row, summary).
# An entry is dropped while its row is freed, before the id can be reused.
# Threads that summarize one row at once both store a right entry, so the
# memo needs no lock.
_SUMMARIES: dict[int, tuple[weakref.ref, tuple[float, np.ndarray]]] = {}


def _summary(row: np.ndarray, vocab_size: int) -> tuple[float, np.ndarray]:
    """A score row's floor (its last value) and exceptions (the generable ids valued otherwise).

    Raises ``ValueError`` on a wrong shape, or a NaN or ``+inf`` anywhere in
    the row. A row that is read-only and owns its data is never changed
    (see ``scoring``), so its summary is computed once and kept while the
    row lives; any other row is summarized afresh at every step.
    """
    if row.shape != (vocab_size,):
        raise ValueError(f"step scores have shape {row.shape}, expected ({vocab_size},)")
    fixed = not row.flags.writeable and row.flags.owndata
    if fixed:
        entry = _SUMMARIES.get(id(row))
        if entry is not None and entry[0]() is row:
            return entry[1]
    floor = row[-1]
    exceptions = (row[FIRST_GENERABLE_ID:] != floor).nonzero()[0] + FIRST_GENERABLE_ID
    # a NaN differs from any floor, so a NaN or +inf past BOS is the floor or an exception
    if not (floor < np.inf and (row[exceptions] < np.inf).all()
            and (row[:FIRST_GENERABLE_ID] < np.inf).all()):
        raise ValueError("step scores contain NaN or +inf")
    summary = (float(floor), exceptions)
    if fixed:
        # the callback calls pop(id, ref), which needs no module global at shutdown
        _SUMMARIES[id(row)] = (weakref.ref(row, functools.partial(_SUMMARIES.pop, id(row))),
                               summary)
    return summary


def _select(beam_aug: Sequence[float], scores_per_hypothesis: Sequence[np.ndarray],
            segment: _SegmentOrder, beam_width: int) -> tuple[np.ndarray, ...]:
    """``expand_and_select`` on a segment's prebuilt order; the decoder's selection step."""
    vocab_size = len(segment.penalty)
    base_aug = np.array(beam_aug, dtype=np.float64)
    if not (base_aug < np.inf).all():
        raise ValueError("beam aug scores contain NaN or +inf")
    if len(scores_per_hypothesis) != len(base_aug):
        raise ValueError(
            f"got {len(scores_per_hypothesis)} score vectors for {len(base_aug)} hypotheses")
    # hypotheses often share a row object; each distinct one is summarized once.
    # The list keeps every row alive for the step, so no two rows share an id.
    rows = list(scores_per_hypothesis)
    summaries = {}
    for row in rows:
        if id(row) not in summaries:
            summaries[id(row)] = _summary(row, vocab_size)
    floors = [summaries[id(row)][0] for row in rows]
    exceptions = [ids for _, ids in summaries.values()]

    columns = _columns_that_can_win(base_aug.tolist(), floors, exceptions, segment, beam_width)
    if columns is None:
        matrix, penalty = np.array(rows, dtype=np.float64), segment.penalty
    else:
        matrix = np.array([row[columns] for row in rows], dtype=np.float64)
        penalty = segment.penalty[columns]
    positions, tokens, scores = select_top_candidates(
        base_aug, matrix.reshape(len(base_aug), len(penalty)), penalty, segment.strength,
        np.arange(len(base_aug), dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64),
        beam_width)
    if columns is not None:
        tokens = columns[tokens]
    return positions, tokens, scores


def _columns_that_can_win(beam_aug: list[float], floors: list[float],
                          exceptions: list[np.ndarray], segment: _SegmentOrder,
                          beam_width: int) -> np.ndarray | None:
    """The columns that hold the exact top B, ascending; None keeps them all.

    ``floors`` holds each hypothesis's row floor, and ``exceptions`` each
    distinct row's exception ids. With ``E`` the most exceptions of any
    row, the first ``B + E`` tokens of the segment order hold at least
    ``B`` floor tokens of every row, each scoring at least as high as any
    later floor token of that row. So every exception plus that prefix
    holds the top B, and extra columns change nothing. Rounding can merge
    different contributions, and then the id tie-break may prefer a later
    token: so when some row's floor scores at the prefix's last position
    and the next are equal, and that tie run reaches a second contribution
    value, every column is kept. PAD and BOS lead the returned columns, as
    the kernel expects.
    """
    keep = beam_width + max(map(len, exceptions), default=0)
    ranked = segment.ranked
    if keep >= len(ranked):
        return None
    # the floor scores at the prefix's last position, the next one, and the
    # nearest positions on either side holding another contribution value;
    # float arithmetic here rounds as the kernel's float64 arithmetic does
    bounds = segment.bounds
    block = bisect.bisect_right(bounds, keep - 1)
    below, above = bounds[block - 1] - 1, bounds[block]
    at, past = ranked[keep - 1], ranked[keep]
    below = ranked[below] if below >= 0 else math.nan  # nan: no neighbour, equal to nothing
    above = ranked[above] if above < len(ranked) else math.nan
    for aug, floor in zip(beam_aug, floors):
        base = aug + floor
        last = base + at
        if base + past == last and (base + below == last or base + above == last):
            return None
    kept = np.zeros(len(segment.penalty), dtype=bool)
    kept[np.concatenate((segment.ranking[:FIRST_GENERABLE_ID + keep], *exceptions))] = True
    return kept.nonzero()[0]


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

    The kernel sees only the columns that can still be selected: every
    token whose value differs from its row's floor (the value most tokens
    of the row share), plus the first ``B + E`` tokens by ``strength *
    penalty`` descending, then id ascending, where ``E`` is the most such
    exceptions in one row. The selection is exactly the one over all
    columns; when rounding merges different penalty contributions into
    one score at the cut, or the prefix covers every token, the step
    selects from all columns. A row's floor, exceptions and NaN/``+inf``
    check are computed once per row object when the row is read-only and
    owns its data, and at every call otherwise. ``beam_search`` runs the
    same step with the order built once per segment.
    """
    check_count("beam_width", beam_width)
    check_strength("strength", strength)
    validate_penalty(penalty, len(penalty))
    return _select(beam_aug, scores_per_hypothesis, _segment_order(penalty, strength),
                   beam_width)


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
    validate_penalty(penalty, len(vocab))  # once per segment: _select trusts it
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
    segment = _segment_order(penalty, strength)
    contributions = segment.contributions
    with np.errstate(over="ignore"):
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
        positions, tokens, augs = _select(
            [node[1] for node in beam], scores, segment, beam_width)
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
