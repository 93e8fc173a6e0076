import numpy as np
import pytest
from hypothesis import given, strategies as st

from storybeam.corpus import EOS_ID, NUM_SPECIALS, Corpus, build_vocabulary
from storybeam.diversity import (
    bag_of_words,
    get_penalty_fn,
    hamming_diversity,
    presence_diversity,
    validate_penalty,
    zero_penalty,
)

VOCAB = build_vocabulary(Corpus.from_text("a b c d"), min_count=1)
A, B, C = (VOCAB.token_to_id(t) for t in "abc")
V = len(VOCAB)

token_ids = st.integers(min_value=0, max_value=V - 1)
segments_strategy = st.lists(st.lists(token_ids, max_size=8), max_size=5)


class TestBagOfWords:
    def test_no_previous_segments(self):
        assert bag_of_words([]) == {}

    def test_counts_within_one_segment(self):
        assert bag_of_words([[A, B, A]]) == {A: 2, B: 1}

    def test_counts_across_segments(self):
        assert bag_of_words([[A], [A, C]]) == {A: 2, C: 1}

    def test_special_tokens_excluded(self):
        assert bag_of_words([[0, 1, 2, 3, A]]) == {A: 1}

    @given(segments_strategy, segments_strategy)
    def test_additive_over_concatenation(self, left, right):
        combined = bag_of_words(left + right)
        separate = bag_of_words(left) + bag_of_words(right)
        assert combined == separate

    @given(segments_strategy, st.lists(token_ids, max_size=8))
    def test_adding_a_segment_never_decreases_counts(self, segments, extra):
        before = bag_of_words(segments)
        after = bag_of_words(segments + [extra])
        assert all(after[t] >= c for t, c in before.items())


class TestHammingPenalty:
    def test_empty_bag_gives_zero_vector(self):
        assert not hamming_diversity([], VOCAB).any()
        assert not hamming_diversity([[], []], VOCAB).any()

    def test_counts_negated(self):
        values = hamming_diversity([[A, B], [A]], VOCAB)
        assert values[A] == -2.0
        assert values[B] == -1.0
        assert values[C] == 0.0
        assert values[EOS_ID] == 0.0

    def test_proportional_not_binary(self):
        assert hamming_diversity([[A, A], [A, A, A]], VOCAB)[A] == -5.0

    @given(segments_strategy)
    def test_exactly_negated_occurrence_counts(self, segments):
        values = hamming_diversity(segments, VOCAB)
        for token in range(NUM_SPECIALS, V):
            assert values[token] == -float(sum(seg.count(token) for seg in segments))

    @given(segments_strategy, st.lists(token_ids, max_size=8))
    def test_monotone_in_history(self, segments, extra):
        before = hamming_diversity(segments, VOCAB)
        after = hamming_diversity(segments + [extra], VOCAB)
        assert (after <= before).all()

    def test_specials_never_penalized(self):
        values = hamming_diversity([[0, 1, 2, 3, A, A]], VOCAB)
        assert not values[:NUM_SPECIALS].any()


class TestPenaltyContract:
    @given(segments_strategy)
    def test_hamming_satisfies_contract(self, segments):
        validate_penalty(hamming_diversity(segments, VOCAB), V)

    @given(segments_strategy)
    def test_presence_satisfies_contract(self, segments):
        values = presence_diversity(segments, VOCAB)
        validate_penalty(values, V)
        seen = {t for seg in segments for t in seg if t >= NUM_SPECIALS}
        assert all(values[t] == (-1.0 if t in seen else 0.0) for t in range(V))

    def test_positive_entry_rejected(self):
        values = zero_penalty(V)
        values[A] = 0.5
        with pytest.raises(ValueError, match="<= 0"):
            validate_penalty(values, V)

    def test_nonzero_special_rejected(self):
        values = zero_penalty(V)
        values[EOS_ID] = -1.0
        with pytest.raises(ValueError, match="special"):
            validate_penalty(values, V)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            validate_penalty(zero_penalty(V - 1), V)

    def test_non_finite_rejected(self):
        values = zero_penalty(V)
        values[A] = -np.inf
        with pytest.raises(ValueError, match="finite"):
            validate_penalty(values, V)

    def test_registry_lookup(self):
        assert get_penalty_fn("hamming") is hamming_diversity
        with pytest.raises(ValueError, match="unknown penalty"):
            get_penalty_fn("cosine")
