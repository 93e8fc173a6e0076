import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storybeam import config as config_module, decoding, ngram
from storybeam.cli import build_parser
from storybeam.corpus import (
    BOS_ID,
    EOS_ID,
    FIRST_GENERABLE_ID,
    NUM_SPECIALS,
    PAD_ID,
    Corpus,
    build_vocabulary,
)
from storybeam.decoding import (
    DecodeConfig,
    Hypothesis,
    beam_search,
    expand_and_select,
    inter_sentence_dbs,
    story_to_json,
)
from storybeam.diversity import PENALTIES, zero_penalty
from storybeam.ngram import train_ngram
from storybeam.oracle import exhaustive_best, exhaustive_step_select
from storybeam.scoring import ValidatingScorer

from conftest import (
    INVALID_SETTINGS,
    assert_selects_like_oracle,
    invalid_arguments,
    log_row,
    make_table,
    random_table_scorer,
    step_cases,
)

LN = math.log


class TestDecodeConfig:
    def test_defaults(self):
        config = DecodeConfig()
        assert (config.beam_width, config.diversity_strength,
                config.max_len, config.num_segments) == (3, 2.0, 20, 5)

    def test_cli_decode_defaults_are_the_config_defaults(self):
        # the parser reads the numpy-free module; the decoder's name is the same class
        assert DecodeConfig is config_module.DecodeConfig
        args = build_parser().parse_args(["decode", "--model", "m"])
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
            expand_and_select([0.0], [scores[:-1]],
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
        nan_scores, inf_scores = scores.copy(), scores.copy()
        nan_scores[-1] = np.nan
        inf_scores[-1] = np.inf
        # -inf stays legal: -inf rows are selectable; +inf plus -inf is NaN
        expand_and_select([-np.inf], [scores], zero_penalty(len(skewed_table.vocab)), 0.0, 2)
        for beam_aug, rows in (([0.0], [nan_scores]), ([np.nan], [scores]),
                               ([-np.inf], [inf_scores]), ([np.inf], [scores])):
            with pytest.raises(ValueError, match="NaN"):
                expand_and_select(beam_aug, rows,
                                  zero_penalty(len(skewed_table.vocab)), 0.0, 2)

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

    @pytest.mark.parametrize("strength", [0.0, 1e-20, 2.0])
    def test_dense_and_floor_rows_in_one_step(self, strength):
        rng = np.random.default_rng(11)
        dense = log_row(rng.dirichlet(np.ones(12)))
        floor = log_row([4.0, 0.0, 2.0] + [1.0] * 9)
        tied = log_row(np.ones(12))
        penalty = zero_penalty(len(dense))
        penalty[[5, 9, 13]] = [-1.0, -2.0, -1.0]
        for width in range(1, 4 * 12 + 2):
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
        config = DecodeConfig(beam_width=4, diversity_strength=strength, max_len=8,
                              num_segments=len(conditions))
        columns = decoding._columns_that_can_win
        kept = {"reduced": 0, "all": 0}

        def counting(*args):
            chosen = columns(*args)
            kept["all" if chosen is None else "reduced"] += 1
            return chosen

        monkeypatch.setattr(decoding, "_columns_that_can_win", counting)
        fast = story_to_json(inter_sentence_dbs(scorer, conditions, scorer.vocab, config),
                             scorer.vocab)
        monkeypatch.setattr(decoding, "_select", lambda beam_aug, rows, segment, width:
                            exhaustive_step_select(beam_aug, rows, segment.penalty,
                                                   segment.strength, width))
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
        assert kept["reduced"] > 0
        if strength == 1e-20:  # the penalty rounds away, so penalized segments keep all
            assert kept["all"] > 0


def floor_row(exception: int, read_only: bool = False) -> np.ndarray:
    """Eight generable tokens on one floor, but ``exception`` (an offset) four times likelier."""
    weights = np.ones(8)
    weights[exception] = 4.0
    row = log_row(weights)
    if read_only:
        row.flags.writeable = False
    return row


class TestRowSummaries:
    """A step summarizes a row once while it can rely on it, and never a different row."""

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
        # iterating a 2-D array makes a new view per row each time; the step
        # keeps them alive, so no two of them are taken for one row
        rows = np.stack([floor_row(3), floor_row(6), floor_row(3)])
        assert_selects_like_oracle([0.0, -1.0, -0.5], rows, zero_penalty(rows.shape[1]), 1.0, 4)

    def test_entries_die_with_their_rows(self):
        rows = [floor_row(i, read_only=True) for i in range(3)]
        keys = {id(row) for row in rows}
        expand_and_select([0.0, -1.0, -2.0], rows, zero_penalty(len(rows[0])), 0.0, 2)
        assert keys <= decoding._SUMMARIES.keys()
        del rows
        assert not keys & decoding._SUMMARIES.keys()

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("position", [PAD_ID, BOS_ID])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_at_pad_or_bos_rejected(self, bad, position, read_only):
        row = floor_row(0)
        row[position] = bad
        if read_only:
            row.flags.writeable = False
        for _ in range(2):  # a rejected row is not memoized
            with pytest.raises(ValueError, match="NaN"):
                expand_and_select([0.0], [row], zero_penalty(len(row)), 0.0, 2)


class TestBeamSearch:
    def test_skewed_fixture_greedy_path(self, skewed_table):
        # P = (a: 0.5, b: 0.3, eos: 0.2), B=1, T=2: [a, a] force-finished
        config = DecodeConfig(beam_width=1, diversity_strength=0.0,
                              max_len=2, num_segments=1)
        result = beam_search(skewed_table, "img", skewed_table.vocab, config)
        assert skewed_table.vocab.decode(result.best.tokens) == ["a", "a"]
        assert result.best.raw_score == pytest.approx(2 * LN(0.5))

    def test_uniform_tie_prefers_lowest_token_id(self, uniform_table):
        # all three generable options tie at ln(1/3); EOS holds the lowest
        # id (specials come first), so the greedy beam ends immediately
        config = DecodeConfig(beam_width=1, diversity_strength=0.0,
                              max_len=2, num_segments=1)
        result = beam_search(uniform_table, "img", uniform_table.vocab, config)
        assert uniform_table.vocab.decode(result.best.tokens) == ["<eos>"]
        assert result.best.raw_score == pytest.approx(LN(1 / 3))

    def test_nan_row_from_scorer_rejected(self, skewed_table):
        class NanAfterFirstStep:
            vocab = skewed_table.vocab

            def score_step(self, condition, prefix):
                scores = skewed_table.score_step(condition, prefix).copy()
                if prefix:
                    scores[FIRST_GENERABLE_ID] = np.nan
                return scores

        config = DecodeConfig(beam_width=2, diversity_strength=0.0,
                              max_len=3, num_segments=1)
        with pytest.raises(ValueError, match="NaN"):
            beam_search(NanAfterFirstStep(), "img", skewed_table.vocab, config)

    def test_saturated_beam_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            scorer = random_table_scorer(rng, max_regular=2)
            vocab = scorer.vocab
            max_len = 3
            width = (len(vocab) - 2) ** max_len
            config = DecodeConfig(beam_width=width, diversity_strength=0.0,
                                  max_len=max_len, num_segments=1)
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
        config = DecodeConfig(beam_width=3, diversity_strength=0.3, max_len=6, num_segments=3)
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
        row = next(rows)
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
        config = DecodeConfig(beam_width=beam_width, diversity_strength=strength,
                              max_len=max_len, num_segments=1)
        result = beam_search(scorer, "c", vocab, config, penalty)
        want, steps = reference_best(scorer, "c", config, penalty)
        fields = ("tokens", "raw_score", "aug_score", "step_logprobs", "step_penalties")
        assert ([getattr(result.best, f) for f in fields]
                == [getattr(want, f) for f in fields])
        assert len(result.trace) == steps

    def test_runaway_max_len_stops_once_best_is_unbeatable(self, skewed_table):
        # <eos> finishes at step 1 and nothing live can beat it after step 3
        config = DecodeConfig(beam_width=3, max_len=2000, num_segments=2)
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
        config = DecodeConfig(beam_width=3, diversity_strength=0.0,
                              max_len=10, num_segments=1)
        result = beam_search(branching_table, "c", vocab, config)
        assert len(result.trace) == 3  # stopped long before max_len
        # a a <eos> ties a b <eos> and ranks first in the beam
        assert vocab.decode(result.best.tokens) == ["a", "a", "<eos>"]
        assert result.best.aug_score == pytest.approx(
            LN(0.5) + LN(0.45) + LN(0.9), abs=1e-12)

    def test_stops_when_all_hypotheses_finish(self):
        table = make_table(["a", "<eos>"], [0.05, 0.95])
        config = DecodeConfig(beam_width=2, diversity_strength=0.0,
                              max_len=10, num_segments=1)
        result = beam_search(table, "c", table.vocab, config)
        assert len(result.trace) < 10
        assert table.vocab.decode(result.best.tokens) == ["<eos>"]


class TestInterSentenceDbs:
    def test_two_segment_fixture(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=1, diversity_strength=2.0,
                              max_len=2, num_segments=2)
        story = inter_sentence_dbs(skewed_table, ["img1", "img2"], vocab, config)
        assert vocab.decode(story.segments[0].best.tokens) == ["a", "a"]
        assert vocab.decode(story.segments[1].best.tokens) == ["b", "b"]
        assert story.segments[1].best.aug_score == pytest.approx(2 * LN(0.3))

    def test_zero_strength_repeats_segments(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=1, diversity_strength=0.0,
                              max_len=2, num_segments=2)
        story = inter_sentence_dbs(skewed_table, ["img1", "img2"], vocab, config)
        assert (story.segments[0].best.tokens == story.segments[1].best.tokens)

    def test_single_segment_equals_plain_beam_search(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=2, diversity_strength=2.0,
                              max_len=3, num_segments=1)
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
                max_len=int(rng.integers(1, 5)), num_segments=len(conditions))
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
        config = DecodeConfig(beam_width=3, max_len=6, num_segments=len(conditions))
        story = inter_sentence_dbs(skewed_table, conditions, skewed_table.vocab, config)
        assert all(len(seg.trace) > 1 for seg in story.segments)
        assert built == [seg.best for seg in story.segments]

    def test_condition_count_must_match_config(self, skewed_table):
        config = DecodeConfig(num_segments=3)
        with pytest.raises(ValueError, match="conditions"):
            inter_sentence_dbs(skewed_table, ["c1"], skewed_table.vocab, config)

    def test_empty_conditions_rejected(self, skewed_table):
        config = DecodeConfig(num_segments=1)
        with pytest.raises(ValueError, match="condition"):
            inter_sentence_dbs(skewed_table, [], skewed_table.vocab, config)

    def test_rogue_penalty_fn_rejected(self, skewed_table):
        def rogue(segments, vocab):
            values = zero_penalty(len(vocab))
            values[4] = 0.5
            return values

        config = DecodeConfig(beam_width=1, max_len=2, num_segments=2)
        with pytest.raises(ValueError, match="<= 0"):
            inter_sentence_dbs(skewed_table, ["c1", "c2"], skewed_table.vocab,
                               config, penalty_fn=rogue)

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
            one = DecodeConfig(beam_width=2, diversity_strength=strength,
                               max_len=max_len, num_segments=1)
            inter_sentence_dbs(table, ["c1"], table.vocab, one)
            two = replace(one, num_segments=2)
            with pytest.raises(ValueError, match="overflows"):
                inter_sentence_dbs(table, ["c1", "c2"], table.vocab, two)

    def test_overflow_check_takes_max_len_beyond_float_range(self):
        # "a" then "<eos>": every segment ends after two steps
        table = make_table(["a", "<eos>"], [1.0, 0.0],
                           rows=[{"context": ["a"], "probs": [0.0, 1.0]}])
        config = DecodeConfig(beam_width=1, diversity_strength=0.0,
                              max_len=10**400, num_segments=2)
        story = inter_sentence_dbs(table, ["c1", "c2"], table.vocab, config)
        assert story.segments[1].best.tokens == story.segments[0].best.tokens
        with pytest.raises(ValueError, match="overflows"):
            inter_sentence_dbs(table, ["c1", "c2"], table.vocab,
                               replace(config, diversity_strength=2.0))

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
        config = DecodeConfig(beam_width=beam_width, diversity_strength=strength,
                              max_len=max_len, num_segments=len(conditions))
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
        config = DecodeConfig(beam_width=1, diversity_strength=0.1,
                              max_len=2, num_segments=2)
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
        config = DecodeConfig(beam_width=3, diversity_strength=2.0,
                              max_len=5, num_segments=4)
        outputs = []
        for rng in (rng1, rng2):
            scorer = random_table_scorer(rng, conditions=tuple(conditions))
            story = inter_sentence_dbs(scorer, conditions, scorer.vocab, config)
            outputs.append(story_to_json(story, scorer.vocab))
        assert outputs[0] == outputs[1]

    def test_thread_safe_for_concurrent_stories(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=2, diversity_strength=2.0,
                              max_len=4, num_segments=3)
        conditions = ["c1", "c2", "c3"]

        def decode(_):
            story = inter_sentence_dbs(skewed_table, conditions, vocab, config)
            return story_to_json(story, vocab)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(decode, range(16)))
        assert len(set(results)) == 1


    def test_threads_share_row_summaries_while_rows_are_evicted(self, monkeypatch):
        # a one-row cache frees rows while other threads look up their summaries,
        # as --jobs 2 does; a tiny switch interval interleaves the threads often
        rng = np.random.default_rng(9)
        words = [f"w{i:02d}" for i in range(30)]
        corpus = Corpus.from_text("\n".join(" ".join(rng.choice(words, size=8))
                                             for _ in range(40)))
        vocab = build_vocabulary(corpus, min_count=1)
        cached = train_ngram(corpus, vocab, order=2, alpha=0.1)  # keeps every row
        monkeypatch.setattr(ngram, "ROW_CACHE_BYTES", 0)
        evicting = train_ngram(corpus, vocab, order=2, alpha=0.1)
        stories = [(["c1", "c2", "c3"][:2 + i % 2], strength)
                   for i, strength in enumerate([0.0, 0.5, 1.0, 2.0, 3.0, 1e-20, 2.0, 0.5])]

        def decode(story, model=evicting):
            conditions, strength = story
            config = DecodeConfig(beam_width=4, diversity_strength=strength, max_len=6,
                                  num_segments=len(conditions))
            return story_to_json(inter_sentence_dbs(model, conditions, model.vocab, config),
                                 model.vocab)

        serial = [decode(story, cached) for story in stories]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(decode, stories * 2))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 2

class TestStoryJson:
    def test_schema_fields_and_float_format(self, skewed_table):
        vocab = skewed_table.vocab
        config = DecodeConfig(beam_width=1, diversity_strength=2.0,
                              max_len=2, num_segments=2)
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
        config = DecodeConfig(beam_width=1, diversity_strength=2.0,
                              max_len=2, num_segments=1)
        story = inter_sentence_dbs(skewed_table, ["img1"], vocab, config)
        segment = story.segments[0]
        broken = replace(segment, best=replace(segment.best, **{field: value}))
        with pytest.raises(ValueError, match="non-finite"):
            story_to_json(replace(story, segments=(broken,)), vocab)

    def test_validating_scorer_sees_every_step(self, skewed_table):
        wrapped = ValidatingScorer(skewed_table)
        config = DecodeConfig(beam_width=2, diversity_strength=2.0,
                              max_len=3, num_segments=2)
        inter_sentence_dbs(wrapped, ["c1", "c2"], wrapped.vocab, config)
        assert wrapped.calls > 0
