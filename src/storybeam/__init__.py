"""storybeam: multi-segment beam-search decoding with diversity penalties.

The names below load with their module on first access (PEP 562), so
``import storybeam`` imports neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "BOS_ID": "corpus",
    "BOS_TOKEN": "corpus",
    "DEFAULT_MIN_COUNT": "corpus",
    "EOS_ID": "corpus",
    "EOS_TOKEN": "corpus",
    "PAD_ID": "corpus",
    "PAD_TOKEN": "corpus",
    "SPECIAL_TOKENS": "corpus",
    "UNK_ID": "corpus",
    "UNK_TOKEN": "corpus",
    "Corpus": "corpus",
    "Vocabulary": "corpus",
    "build_vocabulary": "corpus",
    "DecodeConfig": "decoding",
    "Hypothesis": "decoding",
    "SegmentResult": "decoding",
    "StoryResult": "decoding",
    "beam_search": "decoding",
    "expand_and_select": "decoding",
    "inter_sentence_dbs": "decoding",
    "story_to_json": "decoding",
    "PENALTIES": "diversity",
    "bag_of_words": "diversity",
    "validate_penalty": "diversity",
    "zero_penalty": "diversity",
    "DiversityReport": "metrics",
    "diversity_report": "metrics",
    "report_to_json": "metrics",
    "NGramModel": "ngram",
    "dump_ngram": "ngram",
    "load_ngram": "ngram",
    "train_ngram": "ngram",
    "ScoreRow": "scoring",
    "TableScorer": "scoring",
    "load_scorer": "scoring",
    "load_table_scorer": "scoring",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
