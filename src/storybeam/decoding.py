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
hypothesis is a plain tuple ``(prefix tokens, aug, step logprobs)``: a
child extends its parent's two tuples by one entry and keeps no link to
it, so a segment holds O(beam width x max_len) of history. After each
step the finishers update the segment's single running best, and the next
beam keeps the unfinished hypotheses scoring strictly above it. Only the
segment's winner becomes a ``Hypothesis``, whose step penalties are the
segment's contributions at its tokens. Rows
pass through ``scoring.summarize`` where they enter the decoder: the
shipped scorers return ``ScoreRow``s (a floor plus exception ids and
values), which it returns as they are, and a dense row from any other
scorer is summarized for each hypothesis that scores it.

A selection step runs in this order:

* ``_columns_that_can_win`` picks the columns that can still be
  selected: PAD and BOS, every exception, every penalized token, and the
  tokens of contribution zero (all of them at strength 0, most of them
  otherwise) ranked by id below ``B + E``, from ranks built once per
  segment (``_segment_order``). The kept columns stay in id order.
* ``_select`` fills a matrix over those columns from the rows' floors
  and scatters the exceptions into it. It hands the kernel the kept
  columns' contributions at strength 1.0, so the kernel never multiplies.
* ``select_top_candidates`` ranks the candidates. Laid out token-major
  (all rows of one token together, tokens ascending), the flat candidate
  order is the tie-break order. A partition finds the score of the last
  kept candidate (the cut-off), and one stable sort orders the
  candidates at or above it, so candidates at the cut-off keep the
  tie-break order. It returns each kept candidate's step log-probability,
  so the decoder never reads a row by token.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring
from typing import NamedTuple, Sequence

import numpy as np

from .config import (BEAM_WIDTH, DIVERSITY_STRENGTH, MAX_LEN, check_condition, check_count,
                     check_strength)
from .corpus import (BOS_TOKEN, EOS_ID, EOS_TOKEN, FIRST_GENERABLE_ID, PAD_TOKEN, Vocabulary,
                     _Record)
from .diversity import PenaltyFn, hamming_diversity, validate_penalty, zero_penalty
from .scoring import Condition, ScoreRow, Scorer, Scores, summarize


class DecodeConfig(_Record):
    """Decoding knobs: beam width, diversity strength, step budget, segments.

    The counts must pass ``check_count`` and the strength ``check_strength``.
    ``num_segments`` may be left ``None``: a story has one segment per
    condition. A given value must equal the number of conditions
    (ROADMAP item 1a deletes the field).
    """

    beam_width: int
    diversity_strength: float
    max_len: int
    num_segments: int | None

    def __init__(self, beam_width: int = BEAM_WIDTH,
                 diversity_strength: float = DIVERSITY_STRENGTH, max_len: int = MAX_LEN,
                 num_segments: int | None = None):
        check_count("beam_width", beam_width)
        check_count("max_len", max_len)
        if num_segments is not None:
            check_count("num_segments", num_segments)
        check_strength("diversity_strength", diversity_strength)
        self.__dict__.update(beam_width=beam_width, diversity_strength=diversity_strength,
                             max_len=max_len, num_segments=num_segments)


class Hypothesis(_Record):
    """A segment's result: a complete output sequence with replayable scores.

    ``step_logprobs`` and ``step_penalties`` are aligned with ``tokens``;
    ``raw_score`` is their log-probability sum taken left to right from
    0.0, and ``aug_score`` is the running total that also folds in each
    step's penalty contribution. A sequence ended by EOS keeps that EOS
    as its last token; one ended by the step budget keeps its tokens
    as-is.
    """

    tokens: tuple[int, ...]
    raw_score: float
    aug_score: float
    step_logprobs: tuple[float, ...]
    step_penalties: tuple[float, ...]

    def __init__(self, tokens: tuple[int, ...] = (), raw_score: float = 0.0,
                 aug_score: float = 0.0, step_logprobs: tuple[float, ...] = (),
                 step_penalties: tuple[float, ...] = ()):
        self.__dict__.update(tokens=tokens, raw_score=raw_score, aug_score=aug_score,
                             step_logprobs=step_logprobs, step_penalties=step_penalties)


class StepTrace(_Record):
    """What one expansion step considered: every (hypothesis, generable token) pair."""

    candidate_count: int

    def __init__(self, candidate_count: int):
        self.__dict__["candidate_count"] = candidate_count


class SegmentResult(_Record):
    """A decoded segment. ``condition`` follows ``beam_search``'s rule, checked here too."""

    condition: str
    best: Hypothesis
    trace: tuple[StepTrace, ...]

    def __init__(self, condition: str, best: Hypothesis, trace: tuple[StepTrace, ...]):
        check_condition(condition)
        self.__dict__.update(condition=condition, best=best, trace=trace)


class StoryResult(_Record):
    segments: tuple[SegmentResult, ...]

    def __init__(self, segments: tuple[SegmentResult, ...]):
        self.__dict__["segments"] = segments


class _SegmentOrder(NamedTuple):
    """A segment's frozen selection data, built once per penalty and strength.

    ``contributions`` is ``strength * penalty``. ``ranks`` ranks the
    generable tokens of contribution zero by id: the lowest ranks 0, the
    next 1, and so on. Every other token ranks 0, so it is always kept:
    PAD and BOS, which the kernel expects, and each penalized token.
    """

    contributions: np.ndarray
    ranks: np.ndarray


# the kernel's carry arguments, always empty (see select_top_candidates)
_NO_CARRY = np.empty(0)
_NO_IDS = np.empty(0, dtype=np.int64)


def _segment_order(penalty: np.ndarray, strength: float) -> _SegmentOrder:
    """The selection data of a validated penalty at ``strength``."""
    strength = float(strength)
    with np.errstate(over="ignore"):  # -inf where it overflows; beam_search rejects that
        contributions = strength * penalty
    zero = contributions[FIRST_GENERABLE_ID:] == 0  # -0.0 included: it equals 0.0
    ranks = np.zeros(len(penalty), dtype=np.int64)
    ranks[FIRST_GENERABLE_ID:] = np.where(zero, zero.cumsum() - 1, 0)
    return _SegmentOrder(contributions, ranks)


def select_top_candidates(base_aug: np.ndarray, logprobs: np.ndarray,
                          penalty: np.ndarray, strength: float,
                          unfinished_idx: np.ndarray, carry_scores: np.ndarray,
                          carry_idx: np.ndarray, beam_width: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return (beam positions, token ids, scores, step logprobs) of the kept candidates, best first.

    The selection kernel: each candidate scores ``base_aug[row] +
    logprobs[row, column] + strength * penalty[column]``, and the best
    ``beam_width`` are kept in the module's selection order.

    ``logprobs`` holds one row per hypothesis and one column per token
    (columns below ``FIRST_GENERABLE_ID``, PAD and BOS, are never read).

    ``unfinished_idx``, ``carry_scores`` and ``carry_idx`` are kept only for
    the signature the benchmark's tracing wrapper (``perfbench/tracing.py``)
    forwards; anything but ``arange(n_rows)`` and two empty arrays raises
    ``ValueError``.
    """
    n_rows = logprobs.shape[0]
    if np.asarray(unfinished_idx).tolist() != list(range(n_rows)):  # array_equal, in 1/10 the time
        raise ValueError("unfinished_idx must be arange(n_rows): every row is expanded")
    if len(carry_scores) or len(carry_idx):
        raise ValueError("carryovers are not supported: beams hold only live hypotheses")
    expanded = (base_aug[:, None] + logprobs[:, FIRST_GENERABLE_ID:]) \
        + (strength * penalty[FIRST_GENERABLE_ID:])[None, :]
    scores = expanded.T.ravel()
    n = scores.size
    k = min(beam_width, n)
    if k == 0:
        top = np.empty(0, dtype=np.intp)
    else:
        cut = np.partition(scores, n - k)[n - k]
        top = (scores >= cut).nonzero()[0]  # in flat order, so a stable sort breaks ties
        top = top[np.argsort(-scores[top], kind="stable")[:k]]
    tokens, rows = np.divmod(top, n_rows)
    tokens += FIRST_GENERABLE_ID
    return rows, tokens, scores[top], logprobs[rows, tokens]


def _select(beam_aug: list[float], rows: Sequence[ScoreRow], segment: _SegmentOrder,
            beam_width: int) -> tuple[np.ndarray, ...]:
    """``expand_and_select`` on checked inputs and a segment's prebuilt order.

    The decoder's selection step: ``beam_aug`` holds Python floats below
    ``+inf``, one per row, as ``beam_search`` builds them. Also returns the
    kept candidates' step log-probabilities.
    """
    floors = [row.floor for row in rows]
    counts = [len(row.ids) for row in rows]
    ids = [token for row in rows for token in row.ids]

    columns = _columns_that_can_win(ids, max(counts, default=0), segment, beam_width)
    # each row of the kernel's matrix is its floor, but at its exceptions
    matrix = np.empty((len(rows), len(columns)))
    matrix.T[...] = floors
    if ids:
        matrix[np.arange(len(rows)).repeat(counts), np.searchsorted(columns, ids)] = \
            [value for row in rows for value in row.values]
    positions, tokens, augs, logprobs = select_top_candidates(
        np.array(beam_aug), matrix, segment.contributions[columns], 1.0,  # 1.0 * c == c
        np.arange(len(rows)), _NO_CARRY, _NO_IDS, beam_width)
    return positions, columns[tokens], augs, logprobs


def _columns_that_can_win(ids: list[int], most: int, segment: _SegmentOrder,
                          beam_width: int) -> np.ndarray:
    """The columns that hold the exact top B, ascending.

    ``ids`` holds the exception ids of every row, and ``most`` the most
    exceptions of one row, ``E``. Kept are PAD and BOS, every exception,
    every penalized token, and the zero-contribution tokens ranked below
    ``B + E``. A row's floor tokens of contribution zero all score its
    floor plus zero, one value, so ids break their ties: one ranked
    ``B + E`` or later has at least ``B`` of them, with lower ids, in its
    own row ahead of it, and cannot be selected. Extra columns change
    nothing.
    """
    kept = segment.ranks < min(beam_width + most, len(segment.ranks))  # no int past int64
    kept[ids] = True
    return kept.nonzero()[0]


def expand_and_select(beam_aug: Sequence[float],
                      scores_per_hypothesis: Sequence[Scores], penalty: np.ndarray,
                      strength: float, beam_width: int) -> tuple[np.ndarray, ...]:
    """One selection step: expand every live hypothesis and keep the top B.

    ``beam_aug`` holds the live hypotheses' augmented scores in any
    order, and ``scores_per_hypothesis`` their score rows in the same
    order, each a ``ScoreRow`` or a dense row (see ``scoring``). Each
    candidate scores ``aug + logprob + strength * penalty[token]``; PAD and
    BOS are never candidates. ``beam_width`` and ``strength`` follow
    ``DecodeConfig``'s rules. A NaN has no place in the total order, and
    ``+inf`` plus ``-inf`` makes one, so a NaN or ``+inf`` in ``beam_aug``
    or in a score row raises ``ValueError`` (``-inf`` is legal). Returns
    the kept candidates' beam positions, token ids and scores, in
    selection order.

    The selection is exactly the one over all columns, though the kernel
    sees only the columns that can still be selected (see
    ``_columns_that_can_win``). ``beam_search`` runs the same step with
    the order built once per segment.
    """
    check_count("beam_width", beam_width)
    check_strength("strength", strength)
    validate_penalty(penalty, len(penalty))
    rows = [summarize(scores, len(penalty)) for scores in scores_per_hypothesis]
    beam_aug = [float(aug) for aug in beam_aug]
    if not all(aug < math.inf for aug in beam_aug):
        raise ValueError("beam aug scores contain NaN or +inf")
    if len(rows) != len(beam_aug):
        raise ValueError(f"got {len(rows)} score vectors for {len(beam_aug)} hypotheses")
    return _select(beam_aug, rows, _segment_order(penalty, strength), beam_width)[:3]


def _hypothesis(node: tuple, contributions: np.ndarray) -> Hypothesis:
    """A segment's result, built from its winner's tuple and the segment's contributions."""
    tokens, aug_score, logprobs = node
    raw_score = 0.0
    for logprob in logprobs:
        raw_score += logprob
    return Hypothesis(tokens, raw_score, aug_score, logprobs,
                      tuple(contributions[list(tokens)].tolist()))


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
    check_condition(condition)
    beam_width = config.beam_width
    strength = config.diversity_strength
    # a hypothesis collects at most max_len penalty contributions; their total
    # must stay finite or the kernel's score sums overflow to -inf
    steps = min(config.max_len, sys.float_info.max)  # an int may exceed float range
    segment = _segment_order(penalty, strength)
    contributions = segment.contributions
    if not math.isfinite(steps * float(contributions.min())):
        raise ValueError(
            f"diversity strength {strength} overflows this segment's penalty "
            f"total over {config.max_len} steps")

    # live hypotheses: (prefix tokens, aug, step logprobs)
    beam: list[tuple] = [((), 0.0, ())]
    best: tuple | None = None
    trace: list[StepTrace] = []
    vocab_size = len(vocab)
    n_generable = vocab_size - FIRST_GENERABLE_ID
    score_step = scorer.score_step
    while beam and len(trace) < config.max_len:
        trace.append(StepTrace(candidate_count=len(beam) * n_generable))
        rows = [summarize(score_step(condition, node[0]), vocab_size) for node in beam]
        selected = _select([node[1] for node in beam], rows, segment, beam_width)
        live = []
        for pos, token, aug, logprob in zip(*(a.tolist() for a in selected)):
            prefix, _, logprobs = beam[pos]
            node = (prefix + (token,), aug, logprobs + (logprob,))
            if token != EOS_ID:
                live.append(node)
            elif best is None or aug > best[1]:  # strict: the earlier finisher wins ties
                best = node
        # scores never increase, so only a live hypothesis above best can still win
        beam = [node for node in live if best is None or node[1] > best[1]]
    for node in beam:  # force-finish what max_len cut off
        if best is None or node[1] > best[1]:
            best = node
    return SegmentResult(condition=condition, best=_hypothesis(best, contributions),
                         trace=tuple(trace))


def inter_sentence_dbs(scorer: Scorer, conditions: Sequence[Condition],
                       vocab: Vocabulary, config: DecodeConfig,
                       penalty_fn: PenaltyFn = hamming_diversity) -> StoryResult:
    """Decode a multi-segment story with cross-segment diversity penalties.

    Segment 1 is decoded with no penalty. For each segment ``i >= 2`` the
    penalty vector is computed by ``penalty_fn`` from the best hypotheses
    of segments ``1..i-1``, validated, and frozen for that segment's
    whole decode. Each segment's best hypothesis joins the story and
    feeds all later penalties. A story has one segment per condition, so
    ``config.num_segments``, if given, must equal ``len(conditions)``.
    """
    if not conditions:
        raise ValueError("at least one condition is required")
    if config.num_segments not in (None, len(conditions)):
        raise ValueError(
            f"got {len(conditions)} conditions for num_segments={config.num_segments}")
    segments: list[SegmentResult] = []
    for i, condition in enumerate(conditions):
        penalty = penalty_fn([seg.best.tokens for seg in segments], vocab) if i else None
        segments.append(beam_search(scorer, condition, vocab, config, penalty))
    return StoryResult(segments=tuple(segments))


# ---------------------------------------------------------------------------
# Output serialization

_STRUCTURAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN)


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite score {value}: JSON has no nan/inf")
    return format(value, ".9g")


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
        # what json.dumps(w, ensure_ascii=False) writes
        strings = [encode_basestring(w) for w in words]
        steps = ", ".join(
            "{" + f'"token": {w}, "logprob": {_fmt(lp)}, "penalty": {_fmt(pen)}' + "}"
            for w, lp, pen in zip(strings, seg.best.step_logprobs, seg.best.step_penalties))
        tokens = ", ".join(strings)
        segment_objs.append(
            "{" + f'"condition": {encode_basestring(seg.condition)}, "tokens": [{tokens}], '
            f'"raw_score": {_fmt(seg.best.raw_score)}, '
            f'"aug_score": {_fmt(seg.best.aug_score)}, "steps": [{steps}]' + "}")
    segments = ", ".join(segment_objs)
    story = encode_basestring(" ".join(story_words))
    return "{" + f'"segments": [{segments}], "story": {story}' + "}\n"
