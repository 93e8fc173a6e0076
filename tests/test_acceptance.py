"""End-to-end verification suite.

Eight numbered criteria certify the decoder against independent
references at pinned tolerances. Each test prints one PASS/FAIL line
(run with ``pytest -s`` to see them live). Criteria use instrumented
scorers so every emitted distribution is also validity-checked, which
criterion 8 reports on.
"""

import time
from contextlib import contextmanager

import numpy as np

from storybeam.cli import main
from storybeam.decoding import DecodeConfig, beam_search, inter_sentence_dbs
from storybeam.diversity import hamming_diversity, zero_penalty
from storybeam.metrics import diversity_report

from conftest import (
    assert_selects_like_oracle,
    make_table,
    random_step_case,
    random_table_scorer,
)
from reference import (
    LOGSUMEXP_TOLERANCE,
    ValidatingScorer,
    exhaustive_best,
    validate_step_scores,
)

SCORE_TOLERANCE = 1e-9

# running total of contract-validated scorer calls across criteria 1-5
VALIDATED = {"calls": 0}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def derepetition_fixture() -> ValidatingScorer:
    return ValidatingScorer(make_table(["a", "b", "<eos>"], [0.5, 0.3, 0.2]))


def decode_fixture_story(strength: float):
    scorer = derepetition_fixture()
    conditions = ["c1", "c2", "c3", "c4", "c5"]
    config = DecodeConfig(beam_width=1, diversity_strength=strength, max_len=2)
    story = inter_sentence_dbs(scorer, conditions, scorer.vocab, config)
    VALIDATED["calls"] += scorer.calls
    segments = [scorer.vocab.decode(seg.best.tokens) for seg in story.segments]
    return story, segments


def saturated_fixtures(count: int = 50):
    """Scoring tables small enough to decode with an exhaustive beam."""
    rng = np.random.default_rng(190)
    fixtures = []
    for i in range(count):
        scorer = random_table_scorer(rng, max_regular=2)
        max_len = 1 + i % 3
        fixtures.append((ValidatingScorer(scorer), max_len))
    return fixtures


def test_criterion_1_zero_strength_reduction():
    """inter_sentence_dbs at strength 0 must equal independent beam searches."""
    with criterion(1, "strength-0 reduction, 500 cases, exact"):
        rng = np.random.default_rng(20260810)
        start = time.perf_counter()
        for _ in range(500):
            n_segments = int(rng.integers(1, 6))
            conditions = tuple(f"c{j}" for j in range(n_segments))
            scorer = ValidatingScorer(
                random_table_scorer(rng, max_regular=4, conditions=conditions))
            config = DecodeConfig(
                beam_width=int(rng.integers(1, 5)), diversity_strength=0.0,
                max_len=int(rng.integers(1, 7)))
            story = inter_sentence_dbs(scorer, list(conditions),
                                       scorer.vocab, config)
            for cond, segment in zip(conditions, story.segments):
                solo = beam_search(scorer, cond, scorer.vocab, config)
                assert segment.best.tokens == solo.best.tokens
            VALIDATED["calls"] += scorer.calls
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s"


def test_criterion_2_step_selection_matches_oracle():
    """expand_and_select must equal brute-force selection, order included."""
    with criterion(2, "step oracle, 1000 cases, exact incl. order"):
        rng = np.random.default_rng(60321)
        start = time.perf_counter()
        for _ in range(1000):
            beam_aug, scores, penalty, strength, width = random_step_case(rng)
            for row in scores:
                validate_step_scores(row, len(penalty))
            assert_selects_like_oracle(beam_aug, scores, penalty, strength, width)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f} s, budget 5 s"


def test_criterion_3_saturated_beam_optimality():
    """A beam wide enough to hold every sequence must find the optimum."""
    with criterion(3, "saturated-beam optimality, 50 fixtures, 1e-9"):
        for scorer, max_len in saturated_fixtures():
            vocab = scorer.vocab
            width = (len(vocab) - 2) ** max_len
            config = DecodeConfig(beam_width=width, diversity_strength=0.0, max_len=max_len)
            result = beam_search(scorer, "c", vocab, config)
            oracle = exhaustive_best(scorer, "c", vocab, max_len, 0.0,
                                     zero_penalty(len(vocab)))
            assert abs(result.best.raw_score - oracle.best_score) <= SCORE_TOLERANCE
            VALIDATED["calls"] += scorer.calls


def test_criterion_4_penalized_saturated_beam_matches_oracle():
    """Segment 2 under the frozen penalty must match the exhaustive optimum."""
    with criterion(4, "penalized oracle on segment 2, 50 fixtures, 1e-9"):
        for scorer, max_len in saturated_fixtures():
            vocab = scorer.vocab
            width = (len(vocab) - 2) ** max_len
            config = DecodeConfig(beam_width=width, diversity_strength=2.0, max_len=max_len)
            story = inter_sentence_dbs(scorer, ["c", "c"], vocab, config)
            frozen = hamming_diversity([story.segments[0].best.tokens], vocab)
            oracle = exhaustive_best(scorer, "c", vocab, max_len, 2.0, frozen)
            got = story.segments[1].best.aug_score
            assert abs(got - oracle.best_score) <= SCORE_TOLERANCE
            VALIDATED["calls"] += scorer.calls


def test_criterion_5_derepetition_on_identical_conditions():
    """Strength 0 repeats all five segments; strength 2 breaks the repeat."""
    with criterion(5, "de-repetition demonstration, exact tokens"):
        _, repeated = decode_fixture_story(strength=0.0)
        assert repeated == [["a", "a"]] * 5
        assert diversity_report(repeated).repeated_segment_pairs == 10
        _, diversified = decode_fixture_story(strength=2.0)
        assert diversified[0] == ["a", "a"]
        assert diversified[1] == ["b", "b"]
        assert diversified[1] != diversified[0]


def test_criterion_6_jaccard_drops_with_strength():
    """Mean pairwise Jaccard must be strictly lower at strength 2 than 0."""
    with criterion(6, "diversity monotonicity on the fixture"):
        _, repeated = decode_fixture_story(strength=0.0)
        _, diversified = decode_fixture_story(strength=2.0)
        at_zero = diversity_report(repeated).mean_pairwise_jaccard
        at_two = diversity_report(diversified).mean_pairwise_jaccard
        assert at_two < at_zero


def test_criterion_7_cli_decode_is_byte_deterministic(tmp_path):
    """Two identical decode invocations must write identical bytes."""
    with criterion(7, "byte-identical CLI decode"):
        table = tmp_path / "table.yaml"
        table.write_text("vocab: [a, b, <eos>]\ndefault_row: [0.5, 0.3, 0.2]\n",
                         encoding="utf-8")
        args = ["decode", "--model", str(table),
                "--conditions", "c1", "c2", "c3", "c4", "c5",
                "--beam-width", "3", "--lambda", "2", "--max-len", "4"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_criterion_8_all_emitted_distributions_valid():
    """Every distribution seen by criteria 1-5 passed the 1e-9 validity check."""
    with criterion(8, "scorer validity via instrumented wrapper, 1e-9"):
        # criteria 1-5 ran their scorers through ValidatingScorer, which
        # raises on any invalid distribution; re-run a representative
        # sweep here so this criterion also stands alone.
        rng = np.random.default_rng(4242)
        sweep_calls = 0
        scorers = [derepetition_fixture()]
        scorers += [ValidatingScorer(random_table_scorer(rng, conditions=("c1", "c2")))
                    for _ in range(20)]
        config = DecodeConfig(beam_width=3, diversity_strength=2.0, max_len=4)
        for scorer in scorers:
            inter_sentence_dbs(scorer, ["c1", "c2"], scorer.vocab, config)
            sweep_calls += scorer.calls
        assert sweep_calls > 0
        total = VALIDATED["calls"] + sweep_calls
        print(f"validated {total} scorer calls across criteria")
        assert LOGSUMEXP_TOLERANCE == 1e-9
