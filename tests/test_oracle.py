import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storybeam.decoding import DecodeConfig, beam_search
from storybeam.diversity import zero_penalty
from storybeam.oracle import exhaustive_best, exhaustive_step_select

from conftest import (
    assert_selects_like_oracle,
    invalid_arguments,
    make_table,
    random_step_case,
    random_table_scorer,
)

LN = math.log


class TestExhaustiveBest:
    @pytest.mark.parametrize("name, value", invalid_arguments("max_len"))
    def test_decode_config_rules_apply(self, skewed_table, name, value):
        arguments = {"max_len": 2, "strength": 0.0, name: value}
        vocab = skewed_table.vocab
        with pytest.raises(ValueError, match=name):
            exhaustive_best(skewed_table, "c", vocab, penalty=zero_penalty(len(vocab)),
                            **arguments)

    def test_unpenalized_optimum(self, skewed_table):
        vocab = skewed_table.vocab
        result = exhaustive_best(skewed_table, "c", vocab, 2, 0.0,
                                 zero_penalty(len(vocab)))
        assert vocab.decode(result.best_tokens) == ["a", "a"]
        assert result.best_score == pytest.approx(2 * LN(0.5), abs=1e-12)

    def test_penalty_makes_empty_segment_optimal(self, skewed_table):
        # with a doubly-penalized and strength 2: [b, b] costs 2 ln 0.3 but
        # a bare <eos> costs only ln 0.2, so the optimum is the empty segment
        vocab = skewed_table.vocab
        penalty = zero_penalty(len(vocab))
        penalty[vocab.token_to_id("a")] = -2.0
        result = exhaustive_best(skewed_table, "c", vocab, 2, 2.0, penalty)
        assert vocab.decode(result.best_tokens) == ["<eos>"]
        assert result.best_score == pytest.approx(LN(0.2), abs=1e-12)

    def test_narrow_beam_is_not_globally_optimal_under_penalty(self, skewed_table):
        # the B=1 beam commits to b and ends at 2 ln 0.3 < ln 0.2
        vocab = skewed_table.vocab
        penalty = zero_penalty(len(vocab))
        penalty[vocab.token_to_id("a")] = -2.0
        config = DecodeConfig(beam_width=1, diversity_strength=2.0,
                              max_len=2, num_segments=1)
        beam_result = beam_search(skewed_table, "c", vocab, config, penalty)
        oracle = exhaustive_best(skewed_table, "c", vocab, 2, 2.0, penalty)
        assert vocab.decode(beam_result.best.tokens) == ["b", "b"]
        assert beam_result.best.aug_score < oracle.best_score

    def test_single_step_returns_argmax_token(self, skewed_table):
        vocab = skewed_table.vocab
        result = exhaustive_best(skewed_table, "c", vocab, 1, 0.0,
                                 zero_penalty(len(vocab)))
        assert vocab.decode(result.best_tokens) == ["a"]
        assert result.best_score == pytest.approx(LN(0.5), abs=1e-12)

    def test_search_space_guard(self):
        table = make_table(["a", "b", "c", "d", "e", "f", "<eos>"],
                           [0.2, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="guard"):
            exhaustive_best(table, "c", table.vocab, 8, 0.0,
                            zero_penalty(len(table.vocab)))

    def test_force_finished_sequences_are_enumerated(self):
        # a complete sequence ends in EOS or has exactly max_len tokens;
        # here [a a a] at 3 ln 0.95 = -0.154 beats [<eos>] at ln 0.05 = -3.0
        table = make_table(["a", "<eos>"], [0.95, 0.05])
        vocab = table.vocab
        result = exhaustive_best(table, "c", vocab, 3, 0.0, zero_penalty(len(vocab)))
        assert vocab.decode(result.best_tokens) == ["a", "a", "a"]
        assert result.best_score == pytest.approx(3 * LN(0.95), abs=1e-12)


class TestExhaustiveStepSelect:
    def test_matches_engine_on_random_inputs(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            assert_selects_like_oracle(*random_step_case(rng))

    # inf gave a nan score and 2.5 a TypeError where the engine raises ValueError
    @pytest.mark.parametrize("name, value", invalid_arguments("beam_width"))
    def test_decode_config_rules_apply(self, skewed_table, name, value):
        arguments = {"beam_width": 2, "strength": 0.0, name: value}
        scores = [skewed_table.score_step("c", [])]
        with pytest.raises(ValueError, match=name):
            exhaustive_step_select([0.0], scores, zero_penalty(len(skewed_table.vocab)),
                                   **arguments)

    def test_zero_strength_is_plain_expansion(self, skewed_table):
        vocab = skewed_table.vocab
        scores = [skewed_table.score_step("c", [])]
        penalty = zero_penalty(len(vocab))
        penalty[vocab.token_to_id("a")] = -9.0
        _, tokens, _ = exhaustive_step_select([0.0], scores, penalty, 0.0, 2)
        assert vocab.decode([tokens[0]]) == ["a"]

    def test_width_beyond_candidates_returns_all_sorted(self, skewed_table):
        vocab = skewed_table.vocab
        scores = [skewed_table.score_step("c", [])]
        _, tokens, augs = exhaustive_step_select([0.0], scores,
                                                 zero_penalty(len(vocab)), 0.0, 50)
        assert len(tokens) == len(vocab) - 2
        assert augs.tolist() == sorted(augs.tolist(), reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_engine_equivalence_property(self, seed):
        assert_selects_like_oracle(*random_step_case(np.random.default_rng(seed)))


class TestOracleAgainstSaturatedDecoding:
    def test_penalized_saturated_beam_matches_oracle(self):
        rng = np.random.default_rng(314)
        for _ in range(10):
            scorer = random_table_scorer(rng, max_regular=2)
            vocab = scorer.vocab
            penalty = zero_penalty(len(vocab))
            for token in range(4, len(vocab)):
                penalty[token] = -float(rng.integers(0, 3))
            max_len = 3
            width = (len(vocab) - 2) ** max_len
            config = DecodeConfig(beam_width=width, diversity_strength=2.0,
                                  max_len=max_len, num_segments=1)
            result = beam_search(scorer, "c", vocab, config, penalty)
            oracle = exhaustive_best(scorer, "c", vocab, max_len, 2.0, penalty)
            assert result.best.aug_score == pytest.approx(oracle.best_score, abs=1e-9)
