"""The selection kernel: its total order, and exact agreement with the
brute-force oracle on inputs built to force score ties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storybeam import decoding
from storybeam.corpus import EOS_ID, FIRST_GENERABLE_ID, NUM_SPECIALS
from storybeam.decoding import expand_and_select

from conftest import assert_selects_like_oracle

VOCAB_SIZE = 7  # <eos>, <unk> and three regular tokens are generable


def uniform_row(vocab_size: int = VOCAB_SIZE) -> np.ndarray:
    row = np.full(vocab_size, -np.inf)
    row[EOS_ID:] = math.log(1 / (vocab_size - EOS_ID))
    return row


def flat_penalty(kind: str, vocab_size: int = VOCAB_SIZE) -> np.ndarray:
    penalty = np.zeros(vocab_size)
    if kind == "equal":
        penalty[NUM_SPECIALS:] = -1.0
    return penalty


def test_orders_by_score_then_token_then_beam():
    base = np.zeros(3)
    logprobs = np.full((3, 6), -np.inf)
    logprobs[:, 2:] = np.log(1 / 4)  # twelve-way tie across three rows
    penalty = np.zeros(6)
    beams, tokens, scores, steps = decoding.select_top_candidates(
        base, logprobs, penalty, 0.0,
        np.arange(3, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), 20)
    assert beams.tolist() == [0, 1, 2] * 4
    assert tokens.tolist() == [t for t in range(2, 6) for _ in range(3)]
    assert np.allclose(scores, np.log(1 / 4))
    assert steps.tolist() == logprobs[beams, tokens].tolist()
    assert (beams.dtype, tokens.dtype, scores.dtype, steps.dtype) == (
        np.int64, np.int64, np.float64, np.float64)


def sorted_selection(base_aug, logprobs, penalty, strength, beam_width):
    """The kernel before the cut-off: one stable sort of every token-major score."""
    expanded = (base_aug[:, None] + logprobs[:, FIRST_GENERABLE_ID:]) \
        + (strength * penalty[FIRST_GENERABLE_ID:])[None, :]
    scores = expanded.T.ravel()
    top = np.argsort(-scores, kind="stable")[:beam_width]
    tokens, rows = np.divmod(top, logprobs.shape[0])
    tokens += FIRST_GENERABLE_ID
    return rows, tokens, scores[top], logprobs[rows, tokens]


LEVELS = (0.0, -0.5, -1.0, -np.inf)


@st.composite
def selection_steps(draw):
    """Steps whose scores tie often: lattice, all-tied and -inf rows."""
    n_rows = draw(st.integers(1, 4))
    vocab_size = draw(st.integers(NUM_SPECIALS, 60))
    base = np.array(draw(st.lists(st.sampled_from(LEVELS[:3]),
                                  min_size=n_rows, max_size=n_rows)))
    logprobs = np.full((n_rows, vocab_size), -np.inf)
    for row in logprobs:
        kind = draw(st.sampled_from(["lattice", "tied", "-inf"]))
        if kind == "lattice":
            row[FIRST_GENERABLE_ID:] = draw(st.lists(
                st.sampled_from(LEVELS), min_size=vocab_size - FIRST_GENERABLE_ID,
                max_size=vocab_size - FIRST_GENERABLE_ID))
        elif kind == "tied":
            row[FIRST_GENERABLE_ID:] = -math.log(vocab_size - FIRST_GENERABLE_ID)
    penalty = np.zeros(vocab_size)
    penalty[NUM_SPECIALS:] = draw(st.lists(
        st.sampled_from([0.0, -1.0]), min_size=vocab_size - NUM_SPECIALS,
        max_size=vocab_size - NUM_SPECIALS))
    strength = draw(st.sampled_from([0.0, 0.5, 2.0]))
    n = n_rows * (vocab_size - FIRST_GENERABLE_ID)
    beam_width = draw(st.integers(1, n + 3))
    return base, logprobs, penalty, strength, beam_width


@settings(max_examples=300, deadline=None)
@given(selection_steps())
def test_cut_off_selects_what_a_full_stable_sort_selects(step):
    base, logprobs, penalty, strength, beam_width = step
    got = decoding.select_top_candidates(
        base, logprobs, penalty, strength, np.arange(len(base), dtype=np.int64),
        np.empty(0), np.empty(0, dtype=np.int64), beam_width)
    want = sorted_selection(base, logprobs, penalty, strength, beam_width)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()


def test_ties_straddling_the_cut_off_fill_in_flat_order():
    # token-major scores: four candidates above the cut-off, then a
    # twelve-way tie of which only the first three fit
    logprobs = np.full((3, 8), -np.inf)
    logprobs[:, 2:] = np.log(1 / 8)
    logprobs[0, 7] = logprobs[1, 7] = logprobs[2, 6] = logprobs[1, 3] = np.log(1 / 4)
    beams, tokens, scores, _ = decoding.select_top_candidates(
        np.zeros(3), logprobs, np.zeros(8), 0.0,
        np.arange(3, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), 7)
    assert list(zip(tokens.tolist(), beams.tolist())) == [
        (3, 1), (6, 2), (7, 0), (7, 1), (2, 0), (2, 1), (2, 2)]
    assert scores.tolist() == [np.log(1 / 4)] * 4 + [np.log(1 / 8)] * 3


@pytest.mark.parametrize("unfinished_idx, carry_scores, carry_idx", [
    (np.array([0, 1]), np.array([-1.0]), np.array([1])),
    (np.array([0, 1]), np.array([-1.0]), np.empty(0, dtype=np.int64)),
    (np.array([0, 1]), np.empty(0), np.array([1])),
    (np.array([1, 0]), np.empty(0), np.empty(0, dtype=np.int64)),
    (np.array([0]), np.empty(0), np.empty(0, dtype=np.int64)),
], ids=["carryover", "carry-scores", "carry-idx", "reordered-rows", "missing-row"])
def test_legacy_parameters_accept_only_what_the_decoder_passes(
        unfinished_idx, carry_scores, carry_idx):
    logprobs = np.full((2, 5), -np.inf)
    logprobs[:, 2:] = np.log(1 / 3)
    with pytest.raises(ValueError):
        decoding.select_top_candidates(np.zeros(2), logprobs, np.zeros(5), 0.0,
                                       unfinished_idx, carry_scores, carry_idx, 3)


def test_empty_beam_selects_nothing():
    selected = expand_and_select([], [], flat_penalty("zero"), 0.0, 3)
    assert [a.tolist() for a in selected] == [[], [], []]


def test_beam_width_larger_than_candidates_returns_everything():
    base = np.array([-1.0])
    logprobs = np.full((1, 5), -np.inf)
    logprobs[0, 2:] = np.log(1 / 3)
    beams, tokens, scores, _ = decoding.select_top_candidates(
        base, logprobs, np.zeros(5), 1.0,
        np.array([0], dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64), 99)
    assert len(tokens) == 3


@pytest.mark.parametrize("n_hyps", [2, 3])
@pytest.mark.parametrize("penalty_kind", ["zero", "equal"])
@pytest.mark.parametrize("strength", [0.0, 2.0])
def test_uniform_rows_tie_across_hypotheses(n_hyps, penalty_kind, strength):
    beam_aug = [-1.0] * n_hyps
    rows = [uniform_row() for _ in range(n_hyps)]
    penalty = flat_penalty(penalty_kind)
    all_tied = penalty_kind == "zero" or strength == 0.0
    # every candidate ties: token ascending, then beam position
    order = [(t, b) for t in range(EOS_ID, VOCAB_SIZE) for b in range(n_hyps)]
    for width in range(1, len(order) + 1):
        positions, tokens, _ = assert_selects_like_oracle(
            beam_aug, rows, penalty, strength, width)
        if all_tied:
            assert list(zip(tokens.tolist(), positions.tolist())) == order[:width]


@pytest.mark.parametrize("width", [13, 14, 50])
def test_beam_wider_than_candidate_set(width):
    rows = [uniform_row(), uniform_row()]
    _, tokens, _ = assert_selects_like_oracle([-1.0, -1.0], rows, flat_penalty("equal"),
                                              1.0, width)
    assert len(tokens) == 2 * (VOCAB_SIZE - EOS_ID)


def test_negative_infinity_rows_tie_at_the_bottom():
    partial = uniform_row()
    partial[[3, 5]] = -np.inf
    only_eos = np.full(VOCAB_SIZE, -np.inf)
    only_eos[EOS_ID] = 0.0
    rows = [partial, only_eos, uniform_row()]
    total = 3 * (VOCAB_SIZE - EOS_ID)
    for strength in (0.0, 2.0):
        for width in range(1, total + 2):
            _, _, scores = assert_selects_like_oracle([-1.0] * 3, rows, flat_penalty("equal"),
                                                      strength, width)
        assert np.count_nonzero(scores == -np.inf) == 6


def test_quantized_random_steps_match_oracle():
    # scores drawn from a small lattice so most candidates tie with another
    rng = np.random.default_rng(97)
    levels = np.log([1.0, 0.5, 0.25])
    for _ in range(300):
        vocab_size = int(rng.integers(5, 9))
        n_hyps = int(rng.integers(1, 4))
        beam_aug = [float(rng.choice(levels)) for _ in range(n_hyps)]
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
        assert_selects_like_oracle(beam_aug, rows, penalty, strength, width)
