"""The package's lazy exports and the names that moved between modules."""

import ast
import importlib
import importlib.util
from pathlib import Path

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
    "diversity_report", "report_to_json", "NGramModel", "TableScorer", "dump_ngram",
    "load_ngram", "load_scorer", "load_table_scorer", "train_ngram", "__version__",
}
# the brute-force references and the row validator, which only the tests run,
# live in tests/reference.py
MOVED = {
    "OracleResult", "exhaustive_best", "exhaustive_step_select", "ValidatingScorer",
    "validate_step_scores", "dense_row", "LOGSUMEXP_TOLERANCE",
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
@pytest.mark.parametrize("name", ["NGramModel", "train_ngram", "dump_ngram", "ngram_from_dict"])
def test_scoring_names_the_ngram_objects(name):
    assert getattr(scoring, name) is getattr(ngram, name)


def test_test_references_are_not_shipped():
    assert importlib.util.find_spec("storybeam.oracle") is None
    assert not MOVED & set(storybeam.__all__)
    assert not [name for name in MOVED if hasattr(scoring, name)]


def _imported(node: ast.AST) -> list[str]:
    return ([alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])


def test_only_the_decoding_modules_import_numpy():
    importers = set()
    for path in Path(storybeam.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if any(name.split(".")[0] == "numpy" for name in _imported(node)):
                importers.add(path.stem)
    assert importers == {"decoding", "diversity", "scoring"}


# the records raise dataclasses.FrozenInstanceError, so corpus._raise_frozen
# imports dataclasses when it raises; no module imports it as it loads
def test_dataclasses_is_imported_only_to_raise_a_frozen_instance_error():
    importers = set()
    for path in Path(storybeam.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits an outer function before an inner one, so the innermost names a node
        owner = {node: func.name for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func)}
        for node in ast.walk(tree):
            if any(name.split(".")[0] == "dataclasses" for name in _imported(node)):
                importers.add((path.stem, owner.get(node)))
    assert importers == {("corpus", "_raise_frozen")}


# beam_search, SegmentResult, both scorers' score_step and a table's rows share
# one condition rule, config.check_condition; a raise of either of its messages
# anywhere else is a second copy of the rule, free to drift from the first
def test_the_condition_messages_are_raised_only_in_config():
    raised = []
    for path in sorted(Path(storybeam.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = ast.unparse(node.exc)
                if "condition must be a non-empty string" in text:
                    raised.append((path.stem, "non-empty"))
                elif "condition {" in text and "is not valid Unicode" in text:
                    raised.append((path.stem, "unicode"))
    assert raised == [("config", "non-empty"), ("config", "unicode")]
