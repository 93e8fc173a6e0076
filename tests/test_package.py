"""The package's lazy exports and the names that moved between modules."""

import importlib

import pytest

import storybeam
from storybeam import ngram, scoring

# every name the package exported when its __init__ imported them all
EXPORTED = {
    "BOS_ID", "BOS_TOKEN", "DEFAULT_MIN_COUNT", "EOS_ID", "EOS_TOKEN", "PAD_ID",
    "PAD_TOKEN", "SPECIAL_TOKENS", "UNK_ID", "UNK_TOKEN", "Corpus", "Vocabulary",
    "build_vocabulary", "DecodeConfig", "Hypothesis", "SegmentResult", "StoryResult",
    "beam_search", "expand_and_select", "inter_sentence_dbs", "story_to_json",
    "PENALTIES", "bag_of_words", "validate_penalty", "zero_penalty", "DiversityReport",
    "diversity_report", "report_to_json", "OracleResult", "exhaustive_best",
    "exhaustive_step_select", "NGramModel", "TableScorer", "ValidatingScorer",
    "dump_ngram", "load_ngram", "load_scorer", "load_table_scorer", "train_ngram",
    "validate_step_scores", "__version__",
}


def test_every_earlier_export_is_still_exported():
    assert EXPORTED <= set(storybeam.__all__)


@pytest.mark.parametrize("name", sorted(storybeam._EXPORTS))
def test_export_resolves_to_its_modules_object(name):
    module = importlib.import_module(f"storybeam.{storybeam._EXPORTS[name]}")
    assert getattr(storybeam, name) is getattr(module, name)
    assert name in dir(storybeam)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        storybeam.no_such_name


# perfbench and library code import these from their old homes
@pytest.mark.parametrize("name", [
    "NGramModel", "train_ngram", "dump_ngram", "load_ngram", "ngram_to_dict",
    "ngram_from_dict"])
def test_scoring_names_the_ngram_objects(name):
    assert getattr(scoring, name) is getattr(ngram, name)
