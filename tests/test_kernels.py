"""The selection kernel: its total order, and exact agreement with the
brute-force oracle on inputs built to force score ties."""

import math

import numpy as np
import pytest

from storybeam import kernels
from storybeam.corpus import EOS_ID, NUM_SPECIALS
from storybeam.decoding import Beam, Hypothesis, expand_and_select
from storybeam.oracle import exhaustive_step_select

from conftest import assert_beams_identical

VOCAB_SIZE = 7  # <eos>, <unk> and three regular tokens are generable


def hypothesis(token: int, score: float) -> Hypothesis:
    return Hypothesis(tokens=(token,), raw_score=score, aug_score=score,
                      step_logprobs=(score,), step_penalties=(0.0,))


def uniform_row(vocab_size: int = VOCAB_SIZE) -> np.ndarray:
    row = np.full(vocab_size, -np.inf)
    row[EOS_ID:] = math.log(1 / (vocab_size - EOS_ID))
    return row


def flat_penalty(kind: str, vocab_size: int = VOCAB_SIZE) -> np.ndarray:
    penalty = np.zeros(vocab_size)
    if kind == "equal":
        penalty[NUM_SPECIALS:] = -1.0
    return penalty


def assert_matches_oracle(beam, rows, penalty, strength, width) -> Beam:
    got = expand_and_select(beam, rows, penalty, strength, width)
    want = exhaustive_step_select(beam, rows, penalty, strength, width)
    assert_beams_identical(got, want)
    return got


def test_numpy_path_orders_by_score_then_token_then_beam():
    base = np.array([0.0])
    logprobs = np.full((1, 6), -np.inf)
    logprobs[0, 2:] = np.log(1 / 4)  # four-way tie
    penalty = np.zeros(6)
    beams, tokens, scores = kernels.select_top_candidates(
        base, logprobs, penalty, 0.0,
        np.array([0], dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), 10)
    assert tokens.tolist() == [2, 3, 4, 5]
    assert np.allclose(scores, np.log(1 / 4))
    assert beams.tolist() == [0, 0, 0, 0]


def test_carryover_wins_score_tie_via_sentinel_token():
    # a finished hypothesis at the same score as an expansion ranks first
    base = np.array([np.log(0.5)])
    logprobs = np.full((1, 5), -np.inf)
    logprobs[0, 4] = 0.0  # candidate lands exactly on log(0.5)
    logprobs[0, 2] = np.log(0.5)
    penalty = np.zeros(5)
    carry = np.array([np.log(0.5)])
    beams, tokens, _ = kernels.select_top_candidates(
        base, logprobs, penalty, 0.0,
        np.array([0], dtype=np.int64), carry, np.array([1], dtype=np.int64), 2)
    assert tokens.tolist() == [-1, 4]
    assert beams.tolist() == [1, 0]


def test_beam_width_larger_than_candidates_returns_everything():
    base = np.array([-1.0])
    logprobs = np.full((1, 5), -np.inf)
    logprobs[0, 2:] = np.log(1 / 3)
    beams, tokens, scores = kernels.select_top_candidates(
        base, logprobs, np.zeros(5), 1.0,
        np.array([0], dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), 99)
    assert len(tokens) == 3


@pytest.mark.parametrize("n_hyps", [2, 3])
@pytest.mark.parametrize("penalty_kind", ["zero", "equal"])
@pytest.mark.parametrize("strength", [0.0, 2.0])
def test_uniform_rows_tie_across_hypotheses(n_hyps, penalty_kind, strength):
    beam = Beam(tuple(hypothesis(4 + i, -1.0) for i in range(n_hyps)))
    rows = [uniform_row() for _ in range(n_hyps)]
    penalty = flat_penalty(penalty_kind)
    all_tied = penalty_kind == "zero" or strength == 0.0
    # every candidate ties: token ascending, then beam position
    order = [(t, b) for t in range(EOS_ID, VOCAB_SIZE) for b in range(n_hyps)]
    for width in range(1, len(order) + 1):
        got = assert_matches_oracle(beam, rows, penalty, strength, width)
        if all_tied:
            # hypothesis i carries token 4 + i, so tokens[0] names the parent
            assert [(h.tokens[1], h.tokens[0] - 4) for h in got] == order[:width]


@pytest.mark.parametrize("width", [13, 14, 50])
def test_beam_wider_than_candidate_set(width):
    beam = Beam((hypothesis(4, -1.0), hypothesis(5, -1.0)))
    rows = [uniform_row(), uniform_row()]
    got = assert_matches_oracle(beam, rows, flat_penalty("equal"), 1.0, width)
    assert len(got) == 2 * (VOCAB_SIZE - EOS_ID)


def test_negative_infinity_rows_tie_at_the_bottom():
    partial = uniform_row()
    partial[[3, 5]] = -np.inf
    only_eos = np.full(VOCAB_SIZE, -np.inf)
    only_eos[EOS_ID] = 0.0
    beam = Beam((hypothesis(4, -1.0), hypothesis(5, -1.0), hypothesis(6, -1.0)))
    rows = [partial, only_eos, uniform_row()]
    total = 3 * (VOCAB_SIZE - EOS_ID)
    for strength in (0.0, 2.0):
        for width in range(1, total + 2):
            got = assert_matches_oracle(beam, rows, flat_penalty("equal"),
                                        strength, width)
        assert sum(h.aug_score == -np.inf for h in got) == 6


def test_quantized_random_steps_match_oracle():
    # scores drawn from a small lattice so most candidates tie with another
    rng = np.random.default_rng(97)
    levels = np.log([1.0, 0.5, 0.25])
    for _ in range(300):
        vocab_size = int(rng.integers(5, 9))
        n_hyps = int(rng.integers(1, 4))
        hyps = [hypothesis(4, float(rng.choice(levels))) for _ in range(n_hyps)]
        hyps.sort(key=lambda h: h.aug_score, reverse=True)
        beam = Beam(tuple(hyps))
        rows = []
        for _ in range(n_hyps):
            row = np.full(vocab_size, -np.inf)
            row[EOS_ID:] = rng.choice(np.append(levels, -np.inf),
                                      size=vocab_size - EOS_ID)
            rows.append(row)
        penalty = np.zeros(vocab_size)
        penalty[NUM_SPECIALS:] = -rng.integers(0, 2, size=vocab_size - NUM_SPECIALS)
        strength = float(rng.choice([0.0, 1.0, 2.0]))
        width = int(rng.integers(1, 12))
        assert_matches_oracle(beam, rows, penalty, strength, width)
