import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storybeam.corpus import EOS_ID, FIRST_GENERABLE_ID, NUM_SPECIALS
from storybeam.decoding import (
    Beam,
    DecodeConfig,
    Hypothesis,
    beam_search,
    expand_and_select,
    inter_sentence_dbs,
    story_to_json,
)
from storybeam.diversity import hamming_diversity, zero_penalty
from storybeam.oracle import exhaustive_best, exhaustive_step_select
from storybeam.scoring import ValidatingScorer

from conftest import assert_beams_identical, make_table, random_table_scorer

LN = math.log


class TestDecodeConfig:
    def test_defaults(self):
        config = DecodeConfig()
        assert (config.beam_width, config.diversity_strength,
                config.max_len, config.num_segments) == (3, 2.0, 20, 5)

    def test_zero_strength_accepted(self):
        assert DecodeConfig(diversity_strength=0.0).diversity_strength == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"beam_width": 0},
        {"diversity_strength": -0.5},
        {"max_len": 0},
        {"num_segments": 0},
        {"diversity_strength": math.inf},
        {"diversity_strength": math.nan},
    ])
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DecodeConfig(**kwargs)


class TestBeam:
    def test_must_be_sorted_best_first(self):
        good = Hypothesis(tokens=(4,), raw_score=-1.0, aug_score=-1.0)
        bad = Hypothesis(tokens=(5,), raw_score=-2.0, aug_score=-2.0)
        Beam((good, bad))
        with pytest.raises(ValueError, match="sorted"):
            Beam((bad, good))


class TestExpandAndSelect:
    def test_penalty_flips_selection(self, skewed_table):
        # one step at strength 2 with token a penalized twice: b wins
        vocab = skewed_table.vocab
        a = vocab.token_to_id("a")
        scores = skewed_table.score_step("img", [])
        penalty = zero_penalty(len(vocab))
        penalty[a] = -2.0
        beam = expand_and_select(Beam((Hypothesis(),)), [scores], penalty, 2.0, 1)
        selected = beam[0]
        assert vocab.decode(selected.tokens) == ["b"]
        assert selected.aug_score == pytest.approx(LN(0.3))
        assert selected.raw_score == pytest.approx(LN(0.3))

    def test_zero_strength_matches_zero_penalty(self, skewed_table):
        vocab = skewed_table.vocab
        scores = skewed_table.score_step("img", [])
        penalty = zero_penalty(len(vocab))
        penalty[vocab.token_to_id("a")] = -3.0
        start = Beam((Hypothesis(),))
        with_strength_zero = expand_and_select(start, [scores], penalty, 0.0, 3)
        with_zero_penalty = expand_and_select(
            start, [scores], zero_penalty(len(vocab)), 0.0, 3)
        assert ([h.tokens for h in with_strength_zero]
                == [h.tokens for h in with_zero_penalty])
        assert ([h.aug_score for h in with_strength_zero]
                == pytest.approx([h.aug_score for h in with_zero_penalty]))

    def test_misaligned_scores_rejected(self, skewed_table):
        vocab = skewed_table.vocab
        scores = skewed_table.score_step("img", [])
        with pytest.raises(ValueError, match="score vectors"):
            expand_and_select(Beam((Hypothesis(),)), [scores, scores],
                              zero_penalty(len(vocab)), 0.0, 2)
        with pytest.raises(ValueError, match="shape"):
            expand_and_select(Beam((Hypothesis(),)), [scores[:-1]],
                              zero_penalty(len(vocab)), 0.0, 2)

    def test_invalid_width_and_strength_rejected(self, skewed_table):
        scores = skewed_table.score_step("img", [])
        penalty = zero_penalty(len(skewed_table.vocab))
        with pytest.raises(ValueError, match="beam_width"):
            expand_and_select(Beam((Hypothesis(),)), [scores], penalty, 0.0, 0)
        for strength in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="strength"):
                expand_and_select(Beam((Hypothesis(),)), [scores], penalty, strength, 1)

    def test_finished_hypothesis_rejected(self, skewed_table):
        vocab = skewed_table.vocab
        finished = Hypothesis(tokens=(EOS_ID,), raw_score=-0.1, aug_score=-0.1,
                              finished=True, step_logprobs=(-0.1,),
                              step_penalties=(0.0,))
        live = Hypothesis(tokens=(4,), raw_score=-0.5, aug_score=-0.5,
                          step_logprobs=(-0.5,), step_penalties=(0.0,))
        beam = Beam((finished, live))
        scores = skewed_table.score_step("img", live.tokens)
        for select in (expand_and_select, exhaustive_step_select):
            with pytest.raises(ValueError, match="finished"):
                select(beam, [scores, scores], zero_penalty(len(vocab)), 0.0, 2)


class TestBeamSearch:
    def test_skewed_fixture_greedy_path(self, skewed_table):
        # P = (a: 0.5, b: 0.3, eos: 0.2), B=1, T=2: [a, a] force-finished
        config = DecodeConfig(beam_width=1, diversity_strength=0.0,
                              max_len=2, num_segments=1)
        result = beam_search(skewed_table, "img", skewed_table.vocab, config)
        assert skewed_table.vocab.decode(result.best.tokens) == ["a", "a"]
        assert result.best.raw_score == pytest.approx(2 * LN(0.5))
        assert result.best.finished

    def test_uniform_tie_prefers_lowest_token_id(self, uniform_table):
        # all three generable options tie at ln(1/3); EOS holds the lowest
        # id (specials come first), so the greedy beam ends immediately
        config = DecodeConfig(beam_width=1, diversity_strength=0.0,
                              max_len=2, num_segments=1)
        result = beam_search(uniform_table, "img", uniform_table.vocab, config)
        assert uniform_table.vocab.decode(result.best.tokens) == ["<eos>"]
        assert result.best.raw_score == pytest.approx(LN(1 / 3))

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
        rng = np.random.default_rng(5)
        scorer = random_table_scorer(rng, max_regular=3)
        vocab = scorer.vocab
        penalty = hamming_diversity([[4, 4, 5]], vocab)
        config = DecodeConfig(beam_width=3, diversity_strength=2.0,
                              max_len=4, num_segments=1)
        best = beam_search(scorer, "c", vocab, config, penalty).best
        assert len(best.step_logprobs) == len(best.step_penalties) == len(best.tokens)
        assert best.raw_score == pytest.approx(sum(best.step_logprobs), abs=1e-9)
        assert best.aug_score == pytest.approx(
            best.raw_score + sum(best.step_penalties), abs=1e-9)


def carryover_step(beam, scores_per_unfinished, penalty, strength, beam_width) -> Beam:
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
            candidates.append((aug, token, pos, Hypothesis(
                tokens=parent.tokens + (token,),
                raw_score=parent.raw_score + logprob,
                aug_score=aug,
                finished=token == EOS_ID,
                step_logprobs=parent.step_logprobs + (logprob,),
                step_penalties=parent.step_penalties + (contribution,))))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    return Beam(tuple(c[3] for c in candidates[:beam_width]))


def reference_best(scorer, condition, config, penalty) -> tuple[Hypothesis, int]:
    """Search whose beam carries finished hypotheses; returns (best, steps run).

    It stops once nothing in the beam is unfinished or the best unfinished
    hypothesis scores no higher than the best finisher. A finisher
    replaces the best only on a strictly higher score.
    """
    def better(best, h):
        return best is None or h.aug_score > best.aug_score

    beam = Beam((Hypothesis(),))
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
        assert_beams_identical(Beam((result.best,)), Beam((want,)))
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
        assert story.story_tokens == (story.segments[0].best.tokens
                                      + story.segments[1].best.tokens)

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
