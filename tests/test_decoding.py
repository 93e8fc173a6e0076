import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, dataclass, make_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storybeam import decoding
from storybeam.cli import build_parser
from storybeam.corpus import (
    BOS_ID,
    EOS_ID,
    FIRST_GENERABLE_ID,
    NUM_SPECIALS,
    PAD_ID,
    UNK_ID,
    Corpus,
    Vocabulary,
    build_vocabulary,
)
from storybeam.decoding import (
    DecodeConfig,
    Hypothesis,
    SegmentResult,
    StepTrace,
    StoryResult,
    beam_search,
    expand_and_select,
    inter_sentence_dbs,
    story_to_json,
)
from storybeam.diversity import PENALTIES, zero_penalty
from storybeam.metrics import DiversityReport
from storybeam.ngram import train_ngram
from storybeam.scoring import ScoreRow, TableRule, TableScorer, summarize

from conftest import (
    INVALID_SETTINGS,
    assert_selects_like_oracle,
    invalid_arguments,
    log_row,
    make_table,
    random_table_scorer,
    step_cases,
)
from reference import ValidatingScorer, dense_row, exhaustive_best, exhaustive_step_select

LN = math.log


def _small_model():
    corpus = Corpus.from_text("a b a\nb a")
    return train_ngram(corpus, build_vocabulary(corpus, min_count=1), order=2, alpha=0.5)


class TestDecodeConfig:
    def test_defaults(self):
        config = DecodeConfig()
        assert (config.beam_width, config.diversity_strength,
                config.max_len, config.num_segments) == (3, 2.0, 20, None)

    def test_cli_decode_defaults_are_the_config_defaults(self):
        # the parser reads its defaults from storybeam.config, DecodeConfig from decoding
        args = build_parser().parse_args(["decode", "--model", "m", "--conditions", "c"])
        config = DecodeConfig()
        assert (args.beam_width, args.strength, args.max_len) == (
            config.beam_width, config.diversity_strength, config.max_len)
        assert args.penalty in PENALTIES

    def test_zero_strength_accepted(self):
        assert DecodeConfig(diversity_strength=0.0).diversity_strength == 0.0

    @pytest.mark.parametrize("kwargs", INVALID_SETTINGS)
    def test_invalid_bounds_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            DecodeConfig(**kwargs)

    def test_int_strength_and_large_int_budget_accepted(self):
        config = DecodeConfig(diversity_strength=2, max_len=10 ** 400)
        assert (config.diversity_strength, config.max_len) == (2, 10 ** 400)


class TestExpandAndSelect:
    def test_penalty_flips_selection(self, skewed_table):
        # one step at strength 2 with token a penalized twice: b wins
        vocab = skewed_table.vocab
        a = vocab.token_to_id("a")
        scores = skewed_table.score_step("img", [])
        penalty = zero_penalty(len(vocab))
        penalty[a] = -2.0
        positions, tokens, augs = expand_and_select([0.0], [scores], penalty, 2.0, 1)
        assert positions.tolist() == [0]
        assert vocab.decode(tokens.tolist()) == ["b"]
        assert augs[0] == pytest.approx(LN(0.3))

    def test_zero_strength_matches_zero_penalty(self, skewed_table):
        vocab = skewed_table.vocab
        scores = skewed_table.score_step("img", [])
        penalty = zero_penalty(len(vocab))
        penalty[vocab.token_to_id("a")] = -3.0
        _, tokens, augs = expand_and_select([0.0], [scores], penalty, 0.0, 3)
        _, plain_tokens, plain_augs = expand_and_select(
            [0.0], [scores], zero_penalty(len(vocab)), 0.0, 3)
        assert tokens.tolist() == plain_tokens.tolist()
        assert augs.tolist() == pytest.approx(plain_augs.tolist())

    def test_misaligned_scores_rejected(self, skewed_table):
        vocab = skewed_table.vocab
        scores = skewed_table.score_step("img", [])
        with pytest.raises(ValueError, match="score vectors"):
            expand_and_select([0.0], [scores, scores],
                              zero_penalty(len(vocab)), 0.0, 2)
        with pytest.raises(ValueError, match="shape"):
            expand_and_select([0.0], [dense_row(scores)[:-1]],
                              zero_penalty(len(vocab)), 0.0, 2)
        with pytest.raises(ValueError, match="covers"):
            expand_and_select([0.0], [summarize(log_row(np.ones(5)), 7)],
                              zero_penalty(len(vocab)), 0.0, 2)

    def test_invalid_width_and_strength_rejected(self, skewed_table):
        scores = skewed_table.score_step("img", [])
        penalty = zero_penalty(len(skewed_table.vocab))
        with pytest.raises(ValueError, match="beam_width"):
            expand_and_select([0.0], [scores], penalty, 0.0, 0)
        for strength in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="strength"):
                expand_and_select([0.0], [scores], penalty, strength, 1)

    # 10 ** 400 raised OverflowError, 2.5 selected two candidates, True passed
    @pytest.mark.parametrize("name, value", invalid_arguments("beam_width"))
    def test_decode_config_rules_apply(self, skewed_table, name, value):
        arguments = {"strength": 0.0, "beam_width": 2, name: value}
        scores = skewed_table.score_step("img", [])
        with pytest.raises(ValueError, match=name):
            expand_and_select([0.0], [scores], zero_penalty(len(skewed_table.vocab)),
                              **arguments)

    def test_nan_step_scores_rejected(self, skewed_table):
        scores = skewed_table.score_step("img", [])
        nan_scores, inf_scores = dense_row(scores).copy(), dense_row(scores).copy()
        nan_scores[-1] = np.nan
        inf_scores[-1] = np.inf
        # -inf stays legal: -inf rows are selectable; +inf plus -inf is NaN
        expand_and_select([-np.inf], [scores], zero_penalty(len(skewed_table.vocab)), 0.0, 2)
        for beam_aug, rows in (([0.0], [nan_scores]), ([np.nan], [scores]),
                               ([-np.inf], [inf_scores]), ([np.inf], [scores])):
            with pytest.raises(ValueError, match="NaN"):
                expand_and_select(beam_aug, rows,
                                  zero_penalty(len(skewed_table.vocab)), 0.0, 2)

    # float32 contributions round differently from the oracle's float64 ones
    @pytest.mark.parametrize("penalty", [
        np.zeros(6, dtype=np.float32), np.zeros(6, dtype=np.int64), [0.0] * 6],
        ids=["float32", "int64", "list"])
    def test_penalty_must_be_a_float64_array(self, skewed_table, penalty):
        scores = skewed_table.score_step("img", [])
        with pytest.raises(ValueError, match="penalty must be"):
            expand_and_select([0.0], [scores], penalty, 1.0, 2)

    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_selects_like_the_oracle(self, case):
        assert_selects_like_oracle(*case)

    def test_rounded_away_penalty_keeps_the_id_tie_break(self):
        # next to log(1/6), 1e-20 * -1 rounds away: all six tokens tie and ids
        # decide, so penalized id 4 beats unpenalized id 6
        row = log_row(np.ones(6))
        penalty = zero_penalty(len(row))
        penalty[[4, 5]] = -1.0
        _, tokens, _ = assert_selects_like_oracle([0.0], [row], penalty, 1e-20, 3)
        assert tokens.tolist() == [2, 3, 4]

    # Hamming counts 1..50, each on four tokens 50 ids apart, after ten
    # unpenalized ones: at 1e-20 every contribution rounds away and at 1e-16
    # only some do, so distinct contributions score alike and ids decide
    @pytest.mark.parametrize("strength", [1e-20, 1e-16])
    def test_distinct_contributions_that_round_to_one_score(self, strength):
        penalty = np.zeros(FIRST_GENERABLE_ID + 210)
        penalty[FIRST_GENERABLE_ID + 10:] = -np.tile(np.arange(1.0, 51.0), 4)
        floor = log_row([4.0, 0.5] + [1.0] * 208)
        tied = log_row(np.ones(210))
        rows, beam_aug = [floor, tied, floor], [0.0, -1e-15, -0.5]
        for width in [*range(1, 13), 20, 50, 100, 210, 631]:
            assert_selects_like_oracle(beam_aug, rows, penalty, strength, width)

    # 1e308 * -10 overflows to -inf: the oracle's Python floats do so silently,
    # and the kernel adds contributions built once under errstate, never multiplying
    @pytest.mark.parametrize("width", [3, 4, 5])
    def test_overflowing_contribution_selects_like_the_oracle(self, width):
        row = log_row([0.1, 0.3, 0.2, 0.3])
        penalty = zero_penalty(len(row))
        penalty[4] = -10.0
        _, tokens, augs = assert_selects_like_oracle([0.0], [row], penalty, 1e308, width)
        assert tokens.tolist() == [3, 5, 2, 4][:width]
        assert (augs[-1] == -np.inf) == (width > 3)

    @pytest.mark.parametrize("strength", [0.0, 1e-20, 2.0])
    def test_dense_and_floor_rows_in_one_step(self, strength):
        rng = np.random.default_rng(11)
        dense = log_row(rng.dirichlet(np.ones(12)))
        floor = log_row([4.0, 0.0, 2.0] + [1.0] * 9)
        tied = log_row(np.ones(12))
        penalty = zero_penalty(len(dense))
        penalty[[5, 9, 13]] = [-1.0, -2.0, -1.0]
        for width in [*range(1, 4 * 12 + 2), 10 ** 30]:  # a Python int past int64 too
            assert_selects_like_oracle([-0.5, -1.0, 0.0, -0.5], [floor, dense, tied, floor],
                                       penalty, strength, width)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bad_value_in_a_shared_row_is_rejected(self, bad):
        row = log_row([3.0] + [1.0] * 6)
        row[FIRST_GENERABLE_ID] = bad  # an exception: the floor is the other tokens' value
        with pytest.raises(ValueError, match="NaN"):
            expand_and_select([0.0, -1.0], [row, row], zero_penalty(len(row)), 0.0, 2)


class TestColumnReduction:
    """Whole decodes give the same bytes as decodes that select from every column."""

    @staticmethod
    def decode_both(monkeypatch, scorer, strength: float) -> dict:
        """Story JSON with the decoder's selection, then with the oracle's; step counts."""
        conditions = ["c1", "c2", "c3", "c4"]
        config = DecodeConfig(beam_width=4, diversity_strength=strength, max_len=8)
        columns = decoding._columns_that_can_win
        kept = {"reduced": 0, "all": 0}

        def counting(*args):
            chosen = columns(*args)
            segment = args[2]
            kept["all" if len(chosen) == len(segment.ranks) else "reduced"] += 1
            return chosen

        monkeypatch.setattr(decoding, "_columns_that_can_win", counting)
        fast = story_to_json(inter_sentence_dbs(scorer, conditions, scorer.vocab, config),
                             scorer.vocab)
        def exhaustive(beam_aug, rows, segment, width):
            # the kernel is handed the contributions at strength 1.0 too: 1.0 * c == c
            positions, tokens, augs = exhaustive_step_select(
                beam_aug, rows, segment.contributions, 1.0, width)
            logprobs = [dense_row(rows[p])[t] for p, t in zip(positions, tokens)]
            return positions, tokens, augs, np.array(logprobs, dtype=np.float64)

        monkeypatch.setattr(decoding, "_select", exhaustive)
        slow = story_to_json(inter_sentence_dbs(scorer, conditions, scorer.vocab, config),
                             scorer.vocab)
        assert fast == slow
        return kept

    def test_flat_table_at_zero_strength(self, monkeypatch):
        # tie-heavy in miniature: every word ties and EOS is all but impossible
        words = [f"w{i:03d}" for i in range(300)]
        scorer = make_table(words + ["<eos>"], [(1 - 1e-6) / 300] * 300 + [1e-6])
        kept = self.decode_both(monkeypatch, scorer, 0.0)
        assert kept == {"reduced": 4 * 8, "all": 0}

    @pytest.mark.parametrize("strength", [1e-20, 2.0])
    def test_ngram_model(self, monkeypatch, strength):
        rng = np.random.default_rng(3)
        words = [f"w{i:02d}" for i in range(60)]
        lines = [" ".join(rng.choice(words, size=int(rng.integers(4, 12)),
                                     p=np.arange(60, 0, -1) / 1830))
                 for _ in range(80)]
        corpus = Corpus.from_text("\n".join(lines))
        model = train_ngram(corpus, build_vocabulary(corpus, min_count=1), order=2, alpha=0.1)
        kept = self.decode_both(monkeypatch, model, strength)
        # the column rule keeps fewer than all columns, even where the penalty rounds away (1e-20)
        assert kept["reduced"] > 0 and kept["all"] == 0


def zero_block_ranks(penalty: np.ndarray, strength: float) -> list[int]:
    """The reference ranks, one token at a time in Python floats.

    A generable token of contribution zero ranks by id among those tokens;
    every other token ranks 0.
    """
    ranks = [0] * len(penalty)
    count = 0
    for token in range(FIRST_GENERABLE_ID, len(penalty)):
        if float(strength) * float(penalty[token]) == 0:  # -0.0 too
            ranks[token] = count
            count += 1
    return ranks


# entries that tie, round to subnormals or to zero, or overflow at some strength
PENALTY_VALUES = (-0.0, -5e-324, -1e-310, -1e-300, -0.5, -1.0, -2.0, -3.0, -50.0, -1e300,
                  -sys.float_info.max)
STRENGTHS = (0.0, 5e-324, 1e-320, 1e-310, 1e-20, 0.5, 1.0, 2.0, 1e308)


@st.composite
def segment_penalties(draw) -> tuple[np.ndarray, float]:
    """A valid penalty over up to 8004 tokens, and a strength for it."""
    size = draw(st.one_of(st.integers(NUM_SPECIALS, 40), st.integers(NUM_SPECIALS, 8004),
                          st.just(8004)))
    value = st.one_of(st.sampled_from(PENALTY_VALUES),
                      st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    penalty = np.zeros(size)
    shape = draw(st.sampled_from(["all-zero", "one", "few", "many"]))
    if shape == "many":  # every token from a few shared values, so blocks are long
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = np.array(draw(st.lists(value, min_size=1, max_size=4)))
        penalty[NUM_SPECIALS:] = rng.choice(values, size - NUM_SPECIALS)
    elif shape != "all-zero" and size > NUM_SPECIALS:
        ids = st.integers(NUM_SPECIALS, size - 1)
        count = 1 if shape == "one" else draw(st.integers(1, min(30, size - NUM_SPECIALS)))
        for token in draw(st.lists(ids, min_size=count, max_size=count, unique=True)):
            penalty[token] = draw(value)
    strength = draw(st.one_of(st.sampled_from(STRENGTHS),
                              st.floats(0.0, 1e308, allow_nan=False)))
    return penalty, strength


class TestSegmentOrder:
    """``_segment_order`` ranks the zero-contribution tokens by id and every other token 0."""

    @staticmethod
    def assert_ranks_like_the_reference(penalty, strength):
        segment = decoding._segment_order(penalty, strength)
        assert segment.ranks.dtype == np.int64
        assert segment.ranks.tolist() == zero_block_ranks(penalty, strength)
        return segment

    @settings(max_examples=300, deadline=None)
    @given(segment_penalties())
    def test_ranks_like_the_zero_block_reference(self, case):
        self.assert_ranks_like_the_reference(*case)

    # PAD, BOS, every penalized token, every exception, and the zero block's
    # tokens ranked by id below B + E, where E is the most exceptions of one row
    @settings(max_examples=200, deadline=None)
    @given(segment_penalties(), st.data())
    def test_kept_columns_follow_the_rule(self, case, data):
        penalty, strength = case
        generable = st.integers(FIRST_GENERABLE_ID, len(penalty) - 1)
        rows = data.draw(st.lists(st.lists(generable, unique=True, max_size=6),
                                  min_size=1, max_size=4))
        beam_width = data.draw(st.one_of(st.integers(1, 40), st.just(10 ** 30)))
        ids = [token for row in rows for token in row]
        most = max(map(len, rows))
        columns = decoding._columns_that_can_win(
            ids, most, decoding._segment_order(penalty, strength), beam_width)
        want, zero_rank = [], 0
        for token in range(len(penalty)):
            zero = token >= FIRST_GENERABLE_ID and float(strength) * float(penalty[token]) == 0
            if not zero or token in ids or zero_rank < beam_width + most:
                want.append(token)
            zero_rank += zero
        assert columns.tolist() == want

    def test_zero_strength_gives_negative_zeros_in_the_zero_block(self):
        penalty = zero_penalty(20)
        penalty[[5, 9, 12]] = [-1.0, -2.0, -1.0]
        segment = self.assert_ranks_like_the_reference(penalty, 0.0)
        assert np.signbit(segment.contributions[[5, 9, 12]]).all()
        assert segment.ranks[FIRST_GENERABLE_ID:].tolist() == list(range(18))

    # 5e-324 * -1 is the smallest subnormal, a penalized token that ranks 0;
    # 5e-324 * -0.25 rounds to -0.0, which joins the zero block
    def test_contributions_that_underflow(self):
        penalty = zero_penalty(12)
        penalty[[4, 6, 8, 10]] = [-1.0, -0.25, -1.0, -0.25]
        segment = self.assert_ranks_like_the_reference(penalty, 5e-324)
        assert segment.contributions[4] == -5e-324 and segment.contributions[6] == 0.0
        assert np.signbit(segment.contributions[[6, 10]]).all()
        assert segment.ranks[[4, 8]].tolist() == [0, 0]
        assert segment.ranks[[2, 3, 5, 6, 7, 9, 10, 11]].tolist() == list(range(8))

    @pytest.mark.parametrize("size", [NUM_SPECIALS, NUM_SPECIALS + 1, 8004])
    def test_all_zero_penalty_ranks_by_id(self, size):
        segment = self.assert_ranks_like_the_reference(zero_penalty(size), 2.0)
        assert segment.ranks.tolist() == [0] * FIRST_GENERABLE_ID + list(
            range(size - FIRST_GENERABLE_ID))

    @pytest.mark.parametrize("token", [NUM_SPECIALS, 4000, 8003])
    def test_a_single_penalized_token(self, token):
        penalty = zero_penalty(8004)
        penalty[token] = -1.0
        segment = self.assert_ranks_like_the_reference(penalty, 2.0)
        assert segment.ranks[token] == 0
        assert segment.ranks[8003 if token < 8003 else 8002] == 8000

    # a tie-heavy row: every token ties but the few penalized ones
    @pytest.mark.parametrize("strength", [0.0, 1e-320, 2.0])
    def test_wide_flat_row_selects_like_the_oracle(self, strength):
        row = log_row([1.0] * 8001 + [1e-6])
        penalty = zero_penalty(len(row))
        penalty[[10, 11, 500, 7000, 8002]] = [-1.0, -2.0, -1.0, -3.0, -1.0]
        for width in (1, 3, 8, 20):
            assert_selects_like_oracle([0.0, -1e-12, -0.5], [row, row, row], penalty,
                                       strength, width)


class TestSelectInputs:
    """``beam_search`` hands ``_select`` what ``expand_and_select`` checks for its callers."""

    @staticmethod
    def checked_rows(monkeypatch) -> list[ScoreRow]:
        """Patch ``_select`` to check its inputs; returns the rows it saw."""
        select = decoding._select
        seen: list[ScoreRow] = []

        def checking(beam_aug, rows, segment, beam_width):
            assert all(type(aug) is float and aug < math.inf for aug in beam_aug)
            assert len(rows) == len(beam_aug)
            seen.extend(rows)
            return select(beam_aug, rows, segment, beam_width)

        monkeypatch.setattr(decoding, "_select", checking)
        return seen

    @pytest.mark.parametrize("strength", [0.0, 1e-20, 2.0])
    def test_random_tables_with_minus_inf_rows(self, monkeypatch, strength):
        seen = self.checked_rows(monkeypatch)
        rng = np.random.default_rng(5)
        conditions = ["c1", "c2", "c3"]
        for _ in range(40):
            scorer = random_table_scorer(rng, conditions=tuple(conditions), lattice=True)
            config = DecodeConfig(beam_width=int(rng.integers(1, 6)),
                                  diversity_strength=strength, max_len=5)
            inter_sentence_dbs(scorer, conditions, scorer.vocab, config)
        assert any(row.floor == -math.inf for row in seen)

    @pytest.mark.parametrize("strength", [0.0, 1e-20, 2.0])
    def test_ngram_model(self, monkeypatch, strength):
        seen = self.checked_rows(monkeypatch)
        corpus = Corpus.from_text("the cat sat\nthe dog ran\na cat ran away\n")
        model = train_ngram(corpus, build_vocabulary(corpus, min_count=1), order=2, alpha=0.5)
        conditions = ["c1", "c2", "c3", "c4"]
        config = DecodeConfig(beam_width=3, diversity_strength=strength, max_len=6)
        inter_sentence_dbs(model, conditions, model.vocab, config)
        assert seen


def floor_row(exception: int, read_only: bool = False) -> np.ndarray:
    """Eight generable tokens on one floor, but ``exception`` (an offset) four times likelier."""
    weights = np.ones(8)
    weights[exception] = 4.0
    row = log_row(weights)
    if read_only:
        row.flags.writeable = False
    return row


class TestRowSummaries:
    """A step reads every row as it is at that step, dense or summarized."""

    @staticmethod
    def best_token(rows) -> int:
        _, tokens, _ = assert_selects_like_oracle([0.0] * len(rows), rows,
                                                  zero_penalty(len(rows[0])), 0.0, 1)
        return int(tokens[0])

    def test_a_writable_row_changed_between_steps(self):
        row = floor_row(0)
        assert self.best_token([row]) == FIRST_GENERABLE_ID
        row[:] = floor_row(5)
        assert self.best_token([row]) == FIRST_GENERABLE_ID + 5

    # a read-only flag is no promise: numpy lets the owner lift it and rewrite the row
    def test_a_read_only_row_rewritten_between_steps(self):
        row = floor_row(0, read_only=True)
        assert self.best_token([row]) == FIRST_GENERABLE_ID
        row.flags.writeable = True
        row[:] = floor_row(5)
        row.flags.writeable = False
        assert self.best_token([row]) == FIRST_GENERABLE_ID + 5

    def test_a_read_only_view_of_a_changed_base(self):
        base = floor_row(0)
        view = base.view()
        view.flags.writeable = False
        assert self.best_token([view, view]) == FIRST_GENERABLE_ID
        base[:] = floor_row(5)
        assert self.best_token([view, view]) == FIRST_GENERABLE_ID + 5

    def test_freed_rows_whose_ids_are_reused(self):
        rng = np.random.default_rng(5)
        seen, reused = set(), 0
        for _ in range(40):
            row = floor_row(int(rng.integers(8)), read_only=True)
            reused += id(row) in seen
            seen.add(id(row))
            assert_selects_like_oracle([0.0, -1.0], [row, row], zero_penalty(len(row)), 1.0, 3)
            del row
        assert reused  # the allocator did hand a freed row's id to a new row

    def test_rows_of_one_matrix(self):
        # iterating a 2-D array makes a new view per row each time
        rows = np.stack([floor_row(3), floor_row(6), floor_row(3)])
        assert_selects_like_oracle([0.0, -1.0, -0.5], rows, zero_penalty(rows.shape[1]), 1.0, 4)

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("position", [PAD_ID, BOS_ID])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_at_pad_or_bos_rejected(self, bad, position, read_only):
        row = floor_row(0)
        row[position] = bad
        if read_only:
            row.flags.writeable = False
        for _ in range(2):  # rejected at every step
            with pytest.raises(ValueError, match="NaN"):
                expand_and_select([0.0], [row], zero_penalty(len(row)), 0.0, 2)

    @pytest.mark.parametrize("fields, match", [
        ({"floor": np.nan}, "NaN"),
        ({"floor": np.inf}, "NaN"),
        ({"values": [-1.0, np.nan]}, "NaN"),
        ({"values": [-1.0, np.inf]}, "NaN"),
        ({"ids": [PAD_ID, 5]}, "generable"),
        ({"ids": [BOS_ID, 5]}, "generable"),
        ({"ids": [4, 10]}, "generable"),
        ({"ids": [-1, 5]}, "generable"),
        ({"ids": [5, 5]}, "distinct"),
        ({"ids": [4.0, 5.0]}, "integers"),
        ({"ids": 5}, "integers"),
        ({"ids": [[4], [5]]}, "integers"),
        ({"ids": "45"}, "integers"),
        ({"ids": {4, 5}}, "integers"),
        ({"values": [None, -1.0]}, None),
        ({"values": ["a", -1.0]}, "sequence of numbers"),
        ({"values": "45"}, None),
        ({"floor": "-2"}, "floor must be a number"),
        ({"values": ["-1.5", "-2"]}, "sequence of numbers"),
        ({"values": [-1.0]}, "2 ids but 1 values"),
        ({"values": [-1.0, -2.0, -3.0]}, "2 ids but 3 values"),
        ({"vocab_size": 2}, "vocab_size"),
    ], ids=["nan-floor", "inf-floor", "nan-value", "inf-value", "pad-id", "bos-id",
            "id-past-vocab", "negative-id", "repeated-id", "float-ids", "scalar-ids",
            "nested-ids", "string-ids", "set-ids", "none-value", "string-value",
            "string-values", "string-floor", "numeric-string-values", "fewer-values",
            "more-values", "no-generable-token"])
    def test_malformed_score_row_rejected(self, fields, match):
        good = {"floor": -2.0, "ids": [4, 5], "values": [-1.0, -3.0], "vocab_size": 10}
        ScoreRow(**good)
        with pytest.raises(ValueError, match=match):
            ScoreRow(**{**good, **fields})

    def test_score_row_fields_are_python_ints_and_floats(self):
        row = ScoreRow(np.float64(-2.0), np.array([5, 4]), np.array([-1.0, -3.0]), np.int64(10))
        assert row.ids == (5, 4) and row.values == (-1.0, -3.0)
        assert [type(x) for x in (row.floor, *row.ids, *row.values, row.vocab_size)] \
            == [float, int, int, float, float, int]

    def test_score_row_of_another_vocabulary_rejected(self):
        row = ScoreRow(-2.0, [4], [-1.0], 10)
        for vocab_size in (9, 11):
            with pytest.raises(ValueError, match="covers 10 tokens"):
                expand_and_select([0.0], [row], zero_penalty(vocab_size), 0.0, 1)


class TestBeamSearch:
    def test_skewed_fixture_greedy_path(self, skewed_table):
        # P = (a: 0.5, b: 0.3, eos: 0.2), B=1, T=2: [a, a] force-finished
        config = DecodeConfig(beam_width=1, diversity_strength=0.0, max_len=2)
        result = beam_search(skewed_table, "img", skewed_table.vocab, config)
        assert skewed_table.vocab.decode(result.best.tokens) == ["a", "a"]
        assert result.best.raw_score == pytest.approx(2 * LN(0.5))

    def test_uniform_tie_prefers_lowest_token_id(self, uniform_table):
        # all three generable options tie at ln(1/3); EOS holds the lowest
        # id (specials come first), so the greedy beam ends immediately
        config = DecodeConfig(beam_width=1, diversity_strength=0.0, max_len=2)
        result = beam_search(uniform_table, "img", uniform_table.vocab, config)
        assert uniform_table.vocab.decode(result.best.tokens) == ["<eos>"]
        assert result.best.raw_score == pytest.approx(LN(1 / 3))

    def test_nan_row_from_scorer_rejected(self, skewed_table):
        class NanAfterFirstStep:
            vocab = skewed_table.vocab

            def score_step(self, condition, prefix):
                scores = dense_row(skewed_table.score_step(condition, prefix)).copy()
                if prefix:
                    scores[FIRST_GENERABLE_ID] = np.nan
                return scores

        config = DecodeConfig(beam_width=2, diversity_strength=0.0, max_len=3)
        with pytest.raises(ValueError, match="NaN"):
            beam_search(NanAfterFirstStep(), "img", skewed_table.vocab, config)

    def test_saturated_beam_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            scorer = random_table_scorer(rng, max_regular=2)
            vocab = scorer.vocab
            max_len = 3
            width = (len(vocab) - 2) ** max_len
            config = DecodeConfig(beam_width=width, diversity_strength=0.0, max_len=max_len)
            result = beam_search(scorer, "c", vocab, config)
            oracle = exhaustive_best(scorer, "c", vocab, max_len, 0.0,
                                     zero_penalty(len(vocab)))
            assert result.best.raw_score == pytest.approx(oracle.best_score, abs=1e-9)

    def test_scores_replay_from_steps(self):
        # both scores replay bit for bit from the step records, folded left to right
        rows = [{"context": ["a"], "probs": [0.12, 0.41, 0.29, 0.17, 0.01]},
                {"context": ["b"], "probs": [0.37, 0.08, 0.33, 0.21, 0.01]},
                {"context": ["c"], "probs": [0.26, 0.34, 0.07, 0.32, 0.01]}]
        table = make_table(["a", "b", "c", "d", "<eos>"], [0.31, 0.27, 0.23, 0.18, 0.01], rows)
        config = DecodeConfig(beam_width=3, diversity_strength=0.3, max_len=6)
        story = inter_sentence_dbs(table, ["c1", "c2", "c3"], table.vocab, config)
        other_orders = set()
        for seg in story.segments:
            best = seg.best
            assert len(best.step_logprobs) == len(best.step_penalties) == len(best.tokens)
            raw = aug = backwards = 0.0
            for logprob, contribution in zip(best.step_logprobs, best.step_penalties):
                raw += logprob
                aug = (aug + logprob) + contribution
            for logprob in reversed(best.step_logprobs):
                backwards += logprob
            assert best.raw_score == raw
            assert best.aug_score == aug
            if backwards != raw:
                other_orders.add("right to left")
            if raw + sum(best.step_penalties) != aug:
                other_orders.add("raw plus penalty total")
        # this story tells those summation orders apart from the one replayed
        assert other_orders == {"right to left", "raw plus penalty total"}


class DenseRowScorer:
    """Dense rows from a formula: nearly every token is an exception.

    EOS and ``<unk>``, which no penalty touches, are all but impossible.
    """

    vocab = Vocabulary(f"w{i}" for i in range(4))

    def score_step(self, condition, prefix):
        last = prefix[-1] if prefix else 0
        weights = [1.0 + (5 * token + 3 * len(prefix) + last) % 7
                   for token in range(FIRST_GENERABLE_ID, len(self.vocab))]
        weights[EOS_ID - FIRST_GENERABLE_ID] = weights[UNK_ID - FIRST_GENERABLE_ID] = 1e-9
        return log_row(weights)


class TestStepPenalties:
    """A winner's step penalties are ``strength * penalty`` at its tokens, bit for bit."""

    @pytest.mark.parametrize("strength", [0.0, 5e-324, 2.0])
    @pytest.mark.parametrize("penalty_name", ["hamming", "presence"])
    @pytest.mark.parametrize("scorer", [
        make_table(["a", "b", "c", "<eos>"], [0.4, 0.3, 0.3 - 1e-6, 1e-6]), DenseRowScorer()],
        ids=["table", "dense"])
    def test_step_penalties_are_the_contributions_at_the_tokens(self, scorer, penalty_name,
                                                                 strength):
        penalty_fn = PENALTIES[penalty_name]
        # more segments than words: later winners pay a penalty even at strength 2
        config = DecodeConfig(beam_width=3, diversity_strength=strength, max_len=4)
        story = inter_sentence_dbs(scorer, ["c1", "c2", "c3", "c4", "c5"], scorer.vocab, config,
                                   penalty_fn)
        penalized = 0
        for i, segment in enumerate(story.segments):
            earlier = [seg.best.tokens for seg in story.segments[:i]]
            penalty = penalty_fn(earlier, scorer.vocab) if i else zero_penalty(len(scorer.vocab))
            want = [strength * float(penalty[token]) for token in segment.best.tokens]
            got = segment.best.step_penalties
            assert type(got) is tuple and all(type(value) is float for value in got)
            # float.hex tells -0.0 from 0.0 and shows every subnormal bit
            assert [value.hex() for value in got] == [value.hex() for value in want]
            penalized += any(want)
        assert (penalized > 0) == (strength > 0)


@dataclass(frozen=True)
class RefHypothesis:
    """The reference search's hypothesis: a finished flag lets it stay in the beam."""

    tokens: tuple[int, ...] = ()
    raw_score: float = 0.0
    aug_score: float = 0.0
    finished: bool = False
    step_logprobs: tuple[float, ...] = ()
    step_penalties: tuple[float, ...] = ()


def carryover_step(beam, scores_per_unfinished, penalty, strength, beam_width
                   ) -> tuple[RefHypothesis, ...]:
    """Brute-force selection where finished hypotheses compete for slots as token -1."""
    candidates = []
    rows = iter(scores_per_unfinished)
    for pos, parent in enumerate(beam):
        if parent.finished:
            candidates.append((parent.aug_score, -1, pos, parent))
            continue
        row = dense_row(next(rows))
        for token in range(FIRST_GENERABLE_ID, len(penalty)):
            logprob = float(row[token])
            contribution = strength * float(penalty[token])
            aug = (parent.aug_score + logprob) + contribution
            candidates.append((aug, token, pos, RefHypothesis(
                tokens=parent.tokens + (token,),
                raw_score=parent.raw_score + logprob,
                aug_score=aug,
                finished=token == EOS_ID,
                step_logprobs=parent.step_logprobs + (logprob,),
                step_penalties=parent.step_penalties + (contribution,))))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    return tuple(c[3] for c in candidates[:beam_width])


def reference_best(scorer, condition, config, penalty) -> tuple[RefHypothesis, int]:
    """Search whose beam carries finished hypotheses; returns (best, steps run).

    It stops once nothing in the beam is unfinished or the best unfinished
    hypothesis scores no higher than the best finisher. A finisher
    replaces the best only on a strictly higher score.
    """
    def better(best, h):
        return best is None or h.aug_score > best.aug_score

    beam = (RefHypothesis(),)
    best = None
    steps = 0
    while steps < config.max_len:
        unfinished = [h for h in beam if not h.finished]
        if not unfinished or not better(best, unfinished[0]):
            break
        scores = [scorer.score_step(condition, h.tokens) for h in unfinished]
        beam = carryover_step(beam, scores, penalty, config.diversity_strength,
                              config.beam_width)
        steps += 1
        for h in beam:
            if h.finished and better(best, h):
                best = h
    for h in beam:
        if not h.finished and better(best, h):
            best = replace(h, finished=True)
    return best, steps


class TestRunningBest:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lattice=st.booleans(),
           beam_width=st.integers(1, 4), max_len=st.integers(1, 6),
           strength=st.floats(0.0, 3.0))
    def test_matches_carryover_reference(self, seed, lattice, beam_width, max_len,
                                         strength):
        rng = np.random.default_rng(seed)
        scorer = random_table_scorer(rng, conditions=("c",), lattice=lattice)
        vocab = scorer.vocab
        penalty = zero_penalty(len(vocab))
        penalty[NUM_SPECIALS:] = -rng.integers(0, 3, size=len(vocab) - NUM_SPECIALS)
        config = DecodeConfig(beam_width=beam_width, diversity_strength=strength, max_len=max_len)
        result = beam_search(scorer, "c", vocab, config, penalty)
        want, steps = reference_best(scorer, "c", config, penalty)
        fields = ("tokens", "raw_score", "aug_score", "step_logprobs", "step_penalties")
        assert ([getattr(result.best, f) for f in fields]
                == [getattr(want, f) for f in fields])
        assert len(result.trace) == steps

    def test_runaway_max_len_stops_once_best_is_unbeatable(self, skewed_table):
        # <eos> finishes at step 1 and nothing live can beat it after step 3
        config = DecodeConfig(beam_width=3, max_len=2000)
        story = inter_sentence_dbs(skewed_table, ["c1", "c2"], skewed_table.vocab,
                                   config)
        for seg in story.segments:
            assert len(seg.trace) == 3
            assert skewed_table.vocab.decode(seg.best.tokens) == ["<eos>"]


class TestEarlyTermination:
    @pytest.fixture
    def branching_table(self):
        """Worked three-way fixture driving the stop-bound code path.

        Step 1 keeps {a, b, <eos>}; step 2 bumps the finished <eos> out
        of the beam (the running best must retain it); step 3 finishes
        two tied hypotheses while one live hypothesis survives below
        them, which triggers the early stop.
        """
        rows = [
            {"context": ["a", "a"], "probs": [0.05, 0.05, 0.9]},
            {"context": ["a", "b"], "probs": [0.05, 0.05, 0.9]},
            {"context": ["b", "a"], "probs": [0.45, 0.45, 0.1]},
            {"context": ["a"], "probs": [0.45, 0.45, 0.1]},
            {"context": ["b"], "probs": [0.7, 0.2, 0.1]},
        ]
        return make_table(["a", "b", "<eos>"], [0.5, 0.3, 0.2], rows)

    def test_stops_once_best_unbeatable(self, branching_table):
        vocab = branching_table.vocab
        config = DecodeConfig(beam_width=3, diversity_strength=0.0, max_len=10)
        result = beam_search(branching_table, "c", vocab, config)
        assert len(result.trace) == 3  # stopped long before max_len
        # a a <eos> ties a b <eos> and ranks first in the beam
        assert vocab.decode(result.best.tokens) == ["a", "a", "<eos>"]
        assert result.best.aug_score == pytest.approx(
            LN(0.5) + LN(0.45) + LN(0.9), abs=1e-12)

    def test_stops_when_all_hypotheses_finish(self):
        table = make_table(["a", "<eos>"], [0.05, 0.95])
        config = DecodeConfig(beam_width=2, diversity_strength=0.0, max_len=10)
        result = beam_search(table, "c", table.vocab, config)
        assert len(result.trace) < 10
        assert table.vocab.decode(result.best.tokens) == ["<eos>"]


class TestInterSentenceDbs:
    def test_two_segment_fixture(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=1, diversity_strength=2.0, max_len=2)
        story = inter_sentence_dbs(skewed_table, ["img1", "img2"], vocab, config)
        assert vocab.decode(story.segments[0].best.tokens) == ["a", "a"]
        assert vocab.decode(story.segments[1].best.tokens) == ["b", "b"]
        assert story.segments[1].best.aug_score == pytest.approx(2 * LN(0.3))

    def test_zero_strength_repeats_segments(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=1, diversity_strength=0.0, max_len=2)
        story = inter_sentence_dbs(skewed_table, ["img1", "img2"], vocab, config)
        assert (story.segments[0].best.tokens == story.segments[1].best.tokens)

    def test_single_segment_equals_plain_beam_search(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=2, diversity_strength=2.0, max_len=3)
        story = inter_sentence_dbs(skewed_table, ["img1"], vocab, config)
        plain = beam_search(skewed_table, "img1", vocab, config)
        assert story.segments[0].best.tokens == plain.best.tokens
        assert story.segments[0].best.aug_score == plain.best.aug_score

    def test_zero_strength_reduction_over_random_scorers(self):
        rng = np.random.default_rng(42)
        conditions = ("c1", "c2", "c3")
        for _ in range(25):
            scorer = random_table_scorer(rng, conditions=conditions)
            vocab = scorer.vocab
            config = DecodeConfig(
                beam_width=int(rng.integers(1, 4)), diversity_strength=0.0,
                max_len=int(rng.integers(1, 5)))
            story = inter_sentence_dbs(scorer, list(conditions), vocab, config)
            for condition, segment in zip(conditions, story.segments):
                alone = beam_search(scorer, condition, vocab, config)
                assert segment.best.tokens == alone.best.tokens

    def test_builds_one_hypothesis_per_segment(self, skewed_table, monkeypatch):
        built = []
        init = Hypothesis.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Hypothesis, "__init__", counting_init)
        conditions = ["c1", "c2", "c3", "c4"]
        config = DecodeConfig(beam_width=3, max_len=6)
        story = inter_sentence_dbs(skewed_table, conditions, skewed_table.vocab, config)
        assert all(len(seg.trace) > 1 for seg in story.segments)
        assert built == [seg.best for seg in story.segments]

    def test_condition_count_must_match_config(self, skewed_table):
        config = DecodeConfig(num_segments=3)
        with pytest.raises(ValueError, match="conditions"):
            inter_sentence_dbs(skewed_table, ["c1"], skewed_table.vocab, config)

    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_default_config_gives_one_segment_per_condition(self, skewed_table, count):
        conditions = [f"c{i}" for i in range(1, count + 1)]
        story = inter_sentence_dbs(skewed_table, conditions, skewed_table.vocab,
                                   DecodeConfig(max_len=2))
        assert [seg.condition for seg in story.segments] == conditions
        with pytest.raises(ValueError,
                           match=f"got {count} conditions for num_segments={count + 1}"):
            inter_sentence_dbs(skewed_table, conditions, skewed_table.vocab,
                               DecodeConfig(max_len=2, num_segments=count + 1))

    def test_matching_num_segments_decodes_like_the_default(self, skewed_table):
        # as perfbench/tracing.py passes it
        conditions = ["c1", "c2", "c3"]
        stories = [story_to_json(inter_sentence_dbs(skewed_table, conditions,
                                                     skewed_table.vocab, config),
                                 skewed_table.vocab)
                   for config in (DecodeConfig(num_segments=len(conditions)), DecodeConfig())]
        assert stories[0] == stories[1]

    def test_empty_conditions_rejected(self, skewed_table):
        config = DecodeConfig()
        with pytest.raises(ValueError, match="condition"):
            inter_sentence_dbs(skewed_table, [], skewed_table.vocab, config)

    def test_rogue_penalty_fn_rejected(self, skewed_table):
        def rogue(segments, vocab):
            values = zero_penalty(len(vocab))
            values[4] = 0.5
            return values

        config = DecodeConfig(beam_width=1, max_len=2)
        with pytest.raises(ValueError, match="<= 0"):
            inter_sentence_dbs(skewed_table, ["c1", "c2"], skewed_table.vocab,
                               config, penalty_fn=rogue)

    @pytest.mark.parametrize("convert", [
        lambda values: values.astype(np.float32), lambda values: values.astype(np.int64),
        lambda values: values.tolist()], ids=["float32", "int64", "list"])
    def test_penalty_fn_must_return_a_float64_array(self, skewed_table, convert):
        def penalty_fn(segments, vocab):
            return convert(PENALTIES["hamming"](segments, vocab))

        config = DecodeConfig(beam_width=2, max_len=3)
        with pytest.raises(ValueError, match="penalty must be"):
            inter_sentence_dbs(skewed_table, ["c1", "c2"], skewed_table.vocab, config,
                               penalty_fn=penalty_fn)

    # 1e308 overflows a single contribution; 1e307 only the ten-step total
    @pytest.mark.parametrize("listed, probs, strength, max_len", [
        (["a", "b", "<eos>"], [0.5, 0.3, 0.2], 1e308, 3),
        (["a", "<eos>"], [0.9, 0.1], 1e307, 10),
    ])
    def test_overflowing_penalty_rejected_without_warning(
            self, listed, probs, strength, max_len):
        table = make_table(listed, probs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = DecodeConfig(beam_width=2, diversity_strength=strength, max_len=max_len)
            inter_sentence_dbs(table, ["c1"], table.vocab, one)
            with pytest.raises(ValueError, match="overflows"):
                inter_sentence_dbs(table, ["c1", "c2"], table.vocab, one)

    def test_overflow_check_takes_max_len_beyond_float_range(self):
        # "a" then "<eos>": every segment ends after two steps
        table = make_table(["a", "<eos>"], [1.0, 0.0],
                           rows=[{"context": ["a"], "probs": [0.0, 1.0]}])
        config = DecodeConfig(beam_width=1, diversity_strength=0.0, max_len=10**400)
        story = inter_sentence_dbs(table, ["c1", "c2"], table.vocab, config)
        assert story.segments[1].best.tokens == story.segments[0].best.tokens
        with pytest.raises(ValueError, match="overflows"):
            inter_sentence_dbs(table, ["c1", "c2"], table.vocab,
                               DecodeConfig(beam_width=1, diversity_strength=2.0,
                                            max_len=10**400))

    # Explicit penalties on both sides of float max. The check must reject
    # exactly when some step total, max_len (capped at float max) times one
    # contribution, is not finite; "b" is the most negative token, and it is
    # neither the first generable id nor the first regular one.
    @pytest.mark.parametrize("max_len, strength, penalty_a, penalty_b", [
        (10**400, 1.0, -0.5, -1.0),
        (10**400, 1.0, -0.5, math.nextafter(-1.0, -math.inf)),
        (10**400, 1e-300, -1.0, -1e300),
        (10**400, 1e-300, -1.0, -1e301),
        (2, 1.0, -1.0, -sys.float_info.max / 2),
        (2, 1.0, -1.0, math.nextafter(-sys.float_info.max / 2, -math.inf)),
        (3, 1.0, -1.0, -sys.float_info.max / 2),
        (2, 0.5, -1.0, -sys.float_info.max),
        (2, 0.5, -sys.float_info.max / 4, -sys.float_info.max),
        (1, 2.0, -1.0, -sys.float_info.max),
    ])
    def test_overflow_check_matches_the_total_over_max_len(
            self, max_len, strength, penalty_a, penalty_b):
        # every hypothesis ends after "a" or "b" then "<eos>"
        table = make_table(["a", "b", "<eos>"], [0.5, 0.3, 0.2],
                           rows=[{"context": [word], "probs": [0.0, 0.0, 1.0]}
                                 for word in ("a", "b")])
        vocab = table.vocab
        penalty = zero_penalty(len(vocab))
        penalty[vocab.token_to_id("a")] = penalty_a
        penalty[vocab.token_to_id("b")] = penalty_b
        with np.errstate(over="ignore"):
            finite = np.isfinite(min(max_len, sys.float_info.max) * (strength * penalty)).all()
        config = DecodeConfig(beam_width=2, diversity_strength=strength, max_len=max_len)
        if finite:
            assert len(beam_search(table, "c", vocab, config, penalty).best.tokens) <= 2
        else:
            with pytest.raises(ValueError, match="overflows"):
                beam_search(table, "c", vocab, config, penalty)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           strength=st.sampled_from(
               [0.0, 1e-300, 2.0, 1e300, 1e306, 1e307, 5e307, sys.float_info.max]),
           beam_width=st.integers(1, 4), max_len=st.integers(1, 6))
    def test_extreme_strengths_decode_to_valid_json_or_reject(
            self, seed, strength, beam_width, max_len):
        conditions = ["c1", "c2", "c3"]
        scorer = random_table_scorer(np.random.default_rng(seed),
                                     conditions=tuple(conditions))
        config = DecodeConfig(beam_width=beam_width, diversity_strength=strength, max_len=max_len)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                story = inter_sentence_dbs(scorer, conditions, scorer.vocab, config)
            except ValueError as exc:
                assert "overflows" in str(exc)
                return
            doc = json.loads(story_to_json(story, scorer.vocab))
        assert len(doc["segments"]) == len(conditions)

    def test_aug_equals_raw_without_overlap_and_drops_with_it(self):
        table = make_table(["a", "b", "<eos>"], [0.9, 0.05, 0.05])
        vocab = table.vocab
        config = DecodeConfig(beam_width=1, diversity_strength=0.1, max_len=2)
        story = inter_sentence_dbs(table, ["c1", "c2"], vocab, config)
        first, second = story.segments
        assert first.best.aug_score == first.best.raw_score
        # a is still the best choice at weak strength, so the repeat is paid for
        assert vocab.decode(second.best.tokens) == ["a", "a"]
        assert second.best.aug_score < second.best.raw_score


class TestDeterminism:
    def test_story_json_byte_identical_across_runs(self):
        rng1 = np.random.default_rng(77)
        rng2 = np.random.default_rng(77)
        conditions = ["c1", "c2", "c3", "c4"]
        config = DecodeConfig(beam_width=3, diversity_strength=2.0, max_len=5)
        outputs = []
        for rng in (rng1, rng2):
            scorer = random_table_scorer(rng, conditions=tuple(conditions))
            story = inter_sentence_dbs(scorer, conditions, scorer.vocab, config)
            outputs.append(story_to_json(story, scorer.vocab))
        assert outputs[0] == outputs[1]

    def test_thread_safe_for_concurrent_stories(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=2, diversity_strength=2.0, max_len=4)
        conditions = ["c1", "c2", "c3"]

        def decode(_):
            story = inter_sentence_dbs(skewed_table, conditions, vocab, config)
            return story_to_json(story, vocab)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(decode, range(16)))
        assert len(set(results)) == 1


class TestStoryJson:
    def test_schema_fields_and_float_format(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=1, diversity_strength=2.0, max_len=2)
        story = inter_sentence_dbs(skewed_table, ["img1", "img2"], vocab, config)
        text = story_to_json(story, vocab)
        doc = json.loads(text)
        assert list(doc) == ["segments", "story"]
        seg = doc["segments"][0]
        assert list(seg) == ["condition", "tokens", "raw_score", "aug_score", "steps"]
        assert list(seg["steps"][0]) == ["token", "logprob", "penalty"]
        assert doc["story"] == "a a b b"
        # nine significant digits
        assert '"raw_score": -1.38629436,' in text
        assert text.endswith("\n")

    @pytest.mark.parametrize("field, value", [
        ("aug_score", math.nan), ("aug_score", math.inf), ("raw_score", -math.inf),
        ("step_penalties", (0.0, math.nan)),
    ])
    def test_non_finite_score_refused(self, skewed_table, field, value):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=1, diversity_strength=2.0, max_len=2)
        story = inter_sentence_dbs(skewed_table, ["img1"], vocab, config)
        segment = story.segments[0]
        best = Hypothesis(**{**vars(segment.best), field: value})
        broken = SegmentResult(segment.condition, best, segment.trace)
        with pytest.raises(ValueError, match="non-finite"):
            story_to_json(StoryResult((broken,)), vocab)

    # one shared encoder writes what json.dumps(s, ensure_ascii=False) writes
    def test_strings_encode_as_json_dumps_does(self, monkeypatch):
        words = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "line\u2028sep",
                 "caf\u00e9 \u4e2d\u6587 \U0001F600", "<unk>", "<eos>"]
        vocab = make_table(words, [1 / 7] * 7).vocab
        ids = tuple(vocab.token_to_id(w) for w in words)
        conditions = ['c"1', "c\\2", "c\u2028\x013", "\u00e9\U0001F600"]
        best = Hypothesis(ids, -7.0, -8.0, (-1.0,) * 7, (-1 / 7,) * 7)
        story = decoding.StoryResult(tuple(decoding.SegmentResult(c, best, ())
                                           for c in conditions))
        text = story_to_json(story, vocab)
        monkeypatch.setattr(decoding, "encode_basestring",
                            lambda s: json.dumps(s, ensure_ascii=False))
        assert story_to_json(story, vocab) == text
        doc = json.loads(text)
        assert [seg["condition"] for seg in doc["segments"]] == conditions
        assert [seg["tokens"] for seg in doc["segments"]] == [words] * 4
        assert "\u2028" in text and "\u00e9" in text  # written as themselves, not escaped

    @given(st.text())
    def test_any_string_encodes_as_json_dumps_does(self, text):
        assert decoding.encode_basestring(text) == json.dumps(text, ensure_ascii=False)

    # a hand-built record meets beam_search's rule and messages where it is built,
    # not a TypeError inside story_to_json; both scorers and a table's rows apply
    # the same rule, so a scorer called directly rejects what the decoder rejects
    @pytest.mark.parametrize("condition, match", [
        (7, "non-empty string"), (None, "non-empty string"), ("", "non-empty string"),
        (b"c1", "non-empty string"), ("c\udc801", "not valid Unicode")],
        ids=["int", "none", "empty", "bytes", "lone-surrogate"])
    def test_segment_result_condition_follows_beam_search(self, skewed_table, condition, match):
        best = Hypothesis((FIRST_GENERABLE_ID,), -1.0, -1.0, (-1.0,), (0.0,))
        with pytest.raises(ValueError, match=match):
            SegmentResult(condition, best, ())
        with pytest.raises(ValueError, match=match):
            beam_search(skewed_table, condition, skewed_table.vocab, DecodeConfig(max_len=1))
        for scorer in (skewed_table, _small_model()):
            with pytest.raises(ValueError, match=match):
                scorer.score_step(condition, [])
        row = {"condition": condition, "probs": [0.2, 0.3, 0.5]}
        if condition is None:  # a null row condition is the row for every condition
            assert make_table(["a", "b", "<eos>"], [0.5, 0.3, 0.2], [row]).rules[0].condition is None
        else:
            with pytest.raises(ValueError, match=rf"^rows\[0\]: .*{match}"):
                make_table(["a", "b", "<eos>"], [0.5, 0.3, 0.2], [row])

    # st.text() draws no lone surrogate, so two are listed
    @given(st.one_of(st.text(), st.sampled_from(
        ["c\udc80", "\ud800", None, 0, 7, 1.5, b"c1", ("c1",), ["c1"]])))
    @settings(max_examples=200)
    def test_decoder_and_scorers_accept_and_reject_the_same_conditions(self, condition):
        scorers = (make_table(["a", "b", "<eos>"], [0.5, 0.3, 0.2]), _small_model())
        best = Hypothesis((FIRST_GENERABLE_ID,), -1.0, -1.0, (-1.0,), (0.0,))
        calls = [lambda: SegmentResult(condition, best, ())]
        for scorer in scorers:
            calls.append(lambda scorer=scorer: beam_search(
                scorer, condition, scorer.vocab, DecodeConfig(beam_width=1, max_len=1)))
            calls.append(lambda scorer=scorer: scorer.score_step(condition, []))
        outcomes = set()
        for call in calls:
            try:
                call()
            except ValueError as error:
                outcomes.add(str(error))
            else:
                outcomes.add(None)
        assert len(outcomes) == 1

    def test_validating_scorer_sees_every_step(self, skewed_table):
        wrapped = ValidatingScorer(skewed_table)
        config = DecodeConfig(beam_width=2, diversity_strength=2.0, max_len=3)
        inter_sentence_dbs(wrapped, ["c1", "c2"], wrapped.vocab, config)
        assert wrapped.calls > 0


def _outcome(call):
    """What ``call()`` returns, or the type of the TypeError it raises."""
    try:
        return call()
    except TypeError:
        return TypeError


class TestRecords:
    """The records of a decode are plain classes that behave as frozen dataclasses."""

    @staticmethod
    def records():
        row = ScoreRow(-1.5, (4,), (-0.5,), 6)
        vocab = make_table(["a", "b", "<eos>"], [0.5, 0.3, 0.2]).vocab
        rule = TableRule(None, (4,), row)
        segment = SegmentResult("c1", Hypothesis((4, 2), -1.0, -2.0, (-0.5, -0.5), (0.0, -1.0)),
                                (StepTrace(3),))
        return {cls.__name__: (cls, fields, eq) for cls, fields, eq in [
            (DecodeConfig, {"beam_width": 2, "diversity_strength": 0.5, "max_len": 7,
                            "num_segments": 3}, True),
            (Hypothesis, vars(segment.best), True),
            (StepTrace, {"candidate_count": 3}, True),
            (SegmentResult, vars(segment), True),
            (StoryResult, {"segments": (segment,)}, True),
            (ScoreRow, vars(row), False),
            (TableRule, vars(rule), True),
            (TableScorer, {"vocab": vocab, "default_row": row, "rules": (rule,)}, True),
            (DiversityReport, {"distinct_1": 0.5, "distinct_2": 0.25,
                               "mean_pairwise_jaccard": 0.125, "repeated_segment_pairs": 2},
             True),
        ]}

    # each is compared with a frozen dataclass of the same fields, built here
    @pytest.mark.parametrize("name", [
        "DecodeConfig", "Hypothesis", "StepTrace", "SegmentResult", "StoryResult", "ScoreRow",
        "TableRule", "TableScorer", "DiversityReport"])
    def test_record_behaves_as_its_frozen_dataclass(self, name):
        cls, fields, eq = self.records()[name]
        reference = make_dataclass(cls.__name__, list(fields), frozen=True, eq=eq)
        record, twin, ref, ref_twin = (cls(**fields), cls(*fields.values()),
                                       reference(**fields), reference(*fields.values()))
        assert vars(record) == vars(twin) == fields
        assert repr(record) == repr(ref)
        assert (record == twin, record == record, record != twin) == (
            ref == ref_twin, ref == ref, ref != ref_twin)
        assert record.__eq__(ref) is NotImplemented
        assert _outcome(lambda: hash(record) == hash(twin)) == _outcome(
            lambda: hash(ref) == hash(ref_twin))
        for field in fields:
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
                setattr(record, field, None)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
                delattr(record, field)
        with pytest.raises(FrozenInstanceError):
            record.other = None
        assert vars(record) == fields

    def test_defaults(self):
        assert Hypothesis() == Hypothesis((), 0.0, 0.0, (), ())
        assert DecodeConfig() == DecodeConfig(3, 2.0, 20, None)
        _, fields, _ = self.records()["TableScorer"]
        assert TableScorer(fields["vocab"], fields["default_row"]).rules == ()
