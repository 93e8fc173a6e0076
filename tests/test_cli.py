import ast
import codecs
import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import storybeam
from storybeam import diversity
from storybeam.cli import main
from storybeam.config import PENALTY_NAMES, check_count
from storybeam.corpus import (
    FIRST_GENERABLE_ID,
    SPECIAL_TOKENS,
    Corpus,
    Vocabulary,
    build_vocabulary,
)
from storybeam.decoding import DecodeConfig
from storybeam.ngram import MAX_ORDER, NGramModel, _check_order, dump_ngram, load_ngram
from storybeam.scoring import load_scorer

from conftest import run_python
from reference import dense_row

TABLE_YAML = """\
vocab: [a, b, <eos>]
default_row: [0.5, 0.3, 0.2]
"""

TOY_CORPUS = """\
the cat sat on the mat
the cat ran
a dog sat
the dog ran away
"""


# a child's own peak RSS is read from Linux's VmHWM; a child's ru_maxrss starts
# at its parent's size at spawn, so from pytest it would read pytest's size
needs_vmhwm = pytest.mark.skipif(
    not (Path("/proc/self/status").exists()
         and "VmHWM:" in Path("/proc/self/status").read_text()),
    reason="the peak is read from Linux's VmHWM in /proc/self/status")


@pytest.fixture
def table_path(tmp_path) -> Path:
    path = tmp_path / "table.yaml"
    path.write_text(TABLE_YAML, encoding="utf-8")
    return path


@pytest.fixture
def corpus_path(tmp_path) -> Path:
    path = tmp_path / "corpus.txt"
    path.write_text(TOY_CORPUS, encoding="utf-8")
    return path


def toy_vocab():
    return build_vocabulary(Corpus.from_text(TOY_CORPUS), min_count=1)


# (command, flag, bad value, the flag's owner called with that value); argparse
# only parses the number, so the error is the owner's, word for word
FLAG_RULES = [
    ("train-lm", "--order", "0", lambda: _check_order(0)),
    ("train-lm", "--order", str(MAX_ORDER + 1), lambda: _check_order(MAX_ORDER + 1)),
    ("train-lm", "--min-count", "0", lambda: build_vocabulary(Corpus.from_text(TOY_CORPUS), 0)),
    ("train-lm", "--alpha", "0", lambda: NGramModel(2, 0.0, toy_vocab())),
    ("train-lm", "--alpha", "1e308", lambda: NGramModel(2, 1e308, toy_vocab())),
    ("decode", "--beam-width", "0", lambda: DecodeConfig(beam_width=0)),
    ("decode", "--max-len", "0", lambda: DecodeConfig(max_len=0)),
    ("decode", "--lambda", "-1", lambda: DecodeConfig(diversity_strength=-1.0)),
    ("decode", "--lambda", "inf", lambda: DecodeConfig(diversity_strength=math.inf)),
    ("decode", "--jobs", "0", lambda: check_count("jobs", 0)),
    ("decode", "--jobs", "-1", lambda: check_count("jobs", -1)),
]


@pytest.mark.parametrize("command, flag, value, owner", FLAG_RULES,
                         ids=[f"{flag}={value}" for _, flag, value, _ in FLAG_RULES])
def test_flag_errors_are_the_owners(corpus_path, tmp_path, capsys, command, flag, value,
                                    owner):
    with pytest.raises(ValueError) as expected:
        owner()
    out = tmp_path / "out.json"
    if command == "train-lm":
        argv = ["train-lm", str(corpus_path), "--min-count", "1"]
    else:
        # the model does not exist: settings are checked before any file is read
        argv = ["decode", "--model", str(tmp_path / "missing.json"), "--conditions", "c1"]
    assert main(argv + [flag, value, "--out", str(out)]) == 2
    assert f"error: {expected.value}\n" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_are_byte_identical_across_hash_seeds(corpus_path, tmp_path):
    """train-lm, a batch decode and eval write the same bytes in fresh interpreters."""
    runs = []
    for seed in ("0", "4242"):
        work = tmp_path / seed
        work.mkdir()
        (work / "batch.txt").write_text("c1 c2 c3\nc4 c5\n", encoding="utf-8")
        result = run_python(
            "import os\n"
            "from storybeam.cli import main\n"
            f"os.chdir({str(work)!r})\n"
            "print(hash('storybeam'))\n"
            f"assert main(['train-lm', {str(corpus_path)!r}, '--order', '3', '--alpha', '0.1',"
            " '--min-count', '1', '--out', 'model.json']) == 0\n"
            "assert main(['decode', '--model', 'model.json', '--batch', 'batch.txt',"
            " '--max-len', '8', '--out', 'stories']) == 0\n"
            "assert main(['eval', 'stories/story_0000.json']) == 0\n",
            PYTHONHASHSEED=seed)
        assert result.returncode == 0, result.stderr
        salt, stdout = result.stdout.split("\n", 1)
        files = {path.relative_to(work).as_posix(): path.read_bytes()
                 for path in work.rglob("*") if path.is_file()}
        runs.append((salt, stdout, files))
    (first_salt, *first), (second_salt, *second) = runs
    assert first_salt != second_salt  # the two interpreters hash strings differently
    assert len(first[1]) == 4  # the batch file, the model and two stories
    assert first == second


# every train-lm rule but alpha * (V - 2), which needs the vocabulary
TRAIN_RULES_BEFORE_READING = [rule for rule in FLAG_RULES
                              if rule[0] == "train-lm" and rule[2] != "1e308"]


@pytest.mark.parametrize("command, flag, value, owner", TRAIN_RULES_BEFORE_READING,
                         ids=[f"{flag}={value}" for _, flag, value, _ in TRAIN_RULES_BEFORE_READING])
def test_train_lm_checks_settings_before_reading_the_corpus(tmp_path, capsys, command, flag,
                                                             value, owner):
    with pytest.raises(ValueError) as expected:
        owner()
    # the corpus does not exist: only a check made before reading it names the setting
    argv = [command, str(tmp_path / "missing.txt"), flag, value,
            "--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    assert f"error: {expected.value}\n" in capsys.readouterr().err


def ngram_document(**fields) -> str:
    """A JSON n-gram model over ``a`` and ``b``, with ``fields`` replaced; None drops one."""
    doc = {"order": 2, "alpha": 1.0, "vocab": ["<pad>", "<bos>", "<eos>", "<unk>", "a", "b"],
           "counts": [[["<bos>"], "a", 3], [["a"], "b", 1]]}
    doc.update(fields)
    return json.dumps({key: value for key, value in doc.items() if value is not None})


# (n-gram model document, the whole message decode prints for it); one rule broken each
BAD_NGRAM_DOCUMENTS = {
    "missing-field": (ngram_document(counts=None),
                      "n-gram model document is missing field 'counts'"),
    "vocab-not-a-list": (ngram_document(vocab="ab"), "vocab must be a list of token strings"),
    "no-special-tokens": (ngram_document(vocab=["a", "b"]),
                          "model vocab must start with the special tokens "
                          "('<pad>', '<bos>', '<eos>', '<unk>')"),
    "reordered-special-tokens": (
        ngram_document(vocab=["<bos>", "<pad>", "<eos>", "<unk>", "a", "b"]),
        "model vocab must start with the special tokens ('<pad>', '<bos>', '<eos>', '<unk>')"),
    "repeated-vocab-token": (ngram_document(vocab=["<pad>", "<bos>", "<eos>", "<unk>", "a", "a"]),
                             "vocabulary tokens must be unique"),
    "counts-not-a-list": (ngram_document(counts={"a": 1}),
                          "counts must be a list of [context, token, count], got dict"),
    "entry-not-a-triple": (ngram_document(counts=[[["a"], "b"]]),
                           "count entry must be [context tokens, token string, int], "
                           "got [['a'], 'b']"),
    "context-not-a-list": (ngram_document(counts=[["a", "b", 1]]),
                           "count entry must be [context tokens, token string, int], "
                           "got ['a', 'b', 1]"),
    "unknown-context-token": (ngram_document(counts=[[["zebra"], "a", 1]]),
                              "token 'zebra' is not in the model vocabulary"),
    "unknown-target": (ngram_document(counts=[[["a"], "zebra", 1]]),
                       "token 'zebra' is not in the model vocabulary"),
    "repeated-context-and-token": (ngram_document(counts=[[["a"], "b", 1], [["a"], "b", 1]]),
                                   "count entry [['a'], 'b', 1] repeats an earlier context "
                                   "and token"),
    "negative-count": (ngram_document(counts=[[["a"], "b", -1]]),
                       "count must be a non-negative integer, got -1"),
    "bool-count": (ngram_document(counts=[[["a"], "b", True]]),
                   "count entry must be [context tokens, token string, int], "
                   "got [['a'], 'b', True]"),
    "float-count": (ngram_document(counts=[[["a"], "b", 1.0]]),
                    "count entry must be [context tokens, token string, int], "
                    "got [['a'], 'b', 1.0]"),
    "pad-target": (ngram_document(counts=[[["a"], "<pad>", 1]]),
                   "counted token id 0 is PAD, BOS or out of range"),
    "bos-target": (ngram_document(counts=[[["a"], "<bos>", 1]]),
                   "counted token id 1 is PAD, BOS or out of range"),
    "short-context": (ngram_document(counts=[[[], "b", 1]]), "context () must be 1 in-range ids"),
    "long-context": (ngram_document(counts=[[["a", "b"], "b", 1]]),
                     "context (4, 5) must be 1 in-range ids"),
    "overflowing-total": (ngram_document(counts=[[["a"], "a", 10 ** 308], [["a"], "b", 10 ** 308]]),
                          "counts in context ['a'] overflow float range once smoothed"),
    "order-zero": (ngram_document(order=0), "order must be an integer from 1 to 1024, got 0"),
    "order-too-large": (ngram_document(order=MAX_ORDER + 1),
                        "order must be an integer from 1 to 1024, got 1025"),
    "order-not-an-int": (ngram_document(order=2.0),
                         "order must be an integer from 1 to 1024, got 2.0"),
    "alpha-zero": (ngram_document(alpha=0), "alpha must be a finite number > 0, got 0"),
    "alpha-not-a-number": (ngram_document(alpha="1"),
                           "alpha must be a finite number > 0, got '1'"),
    "alpha-overflows": (ngram_document(alpha=1e308),
                        "alpha must keep alpha * 4 generable tokens finite, got 1e+308"),
}


@pytest.mark.parametrize("text, message", BAD_NGRAM_DOCUMENTS.values(),
                         ids=BAD_NGRAM_DOCUMENTS.keys())
def test_bad_ngram_document_exits_2_with_its_message(tmp_path, capsys, text, message):
    model, out = tmp_path / "lm.json", tmp_path / "story.json"
    model.write_text(text, encoding="utf-8")
    assert main(["decode", "--model", str(model), "--conditions", "c1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"storybeam decode: error: {message}\n")
    assert not out.exists()


def test_good_ngram_document_decodes(tmp_path):
    model, out = tmp_path / "lm.json", tmp_path / "story.json"
    model.write_text(ngram_document(), encoding="utf-8")
    assert main(["decode", "--model", str(model), "--conditions", "c1", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["segments"][0]["tokens"]


LM_TOKENS = ["a", "b", "c"]
ANY_JSON = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(-1, 3),
                     st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
# faults only NGramModel's rules catch, and faults the loader's own rules catch
MODEL_FAULTS = ["order", "alpha", "context-length", "pad-or-bos-target", "count"]
DOCUMENT_FAULTS = ["drop-field", "retype-field", "bad-entry", "repeat-entry",
                   "unknown-token", "bad-vocab"]


@st.composite
def ngram_documents(draw):
    """``(doc, well_formed)``: an n-gram model document with up to two faults NGramModel
    catches, and whether it also keeps the loader's own rules (fields present, vocab and
    count entries well-formed, tokens known, no entry repeated)."""
    vocab = list(SPECIAL_TOKENS) + draw(st.lists(st.sampled_from(LM_TOKENS), unique=True))
    order = draw(st.integers(1, 3))
    context = st.lists(st.sampled_from(vocab), min_size=order - 1, max_size=order - 1)
    target = st.sampled_from(vocab[FIRST_GENERABLE_ID:])
    count = st.integers(0, 9)
    entries = draw(st.lists(st.tuples(context, target, count), max_size=5))
    doc = {"order": order, "alpha": draw(st.floats(1e-3, 4)), "vocab": vocab}
    for fault in draw(st.lists(st.sampled_from(MODEL_FAULTS), max_size=2)):
        if fault == "order":
            doc["order"] = draw(st.one_of(st.integers(-1, 4), ANY_JSON, st.sampled_from(
                [MAX_ORDER, MAX_ORDER + 1, 10 ** 400])))
        elif fault == "alpha":
            doc["alpha"] = draw(st.one_of(st.sampled_from([0, -1, 1e300, 1e308]), ANY_JSON))
        elif fault == "context-length":
            entries.append((draw(st.lists(st.sampled_from(vocab), max_size=3)), draw(target),
                            draw(count)))
        elif fault == "pad-or-bos-target":
            entries.append((draw(context), draw(st.sampled_from(vocab[:FIRST_GENERABLE_ID])),
                            draw(count)))
        else:
            entries.append((draw(context), draw(target), draw(st.one_of(
                st.integers(max_value=-1), st.sampled_from([10 ** 308, 10 ** 400])))))
    # any order of entries, each context and token once
    unique = {(tuple(c), t): [c, t, n] for c, t, n in entries}
    doc["counts"] = draw(st.permutations(list(unique.values())))
    fault = draw(st.sampled_from([None] * len(DOCUMENT_FAULTS) + DOCUMENT_FAULTS))
    if fault == "drop-field":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "retype-field":
        doc[draw(st.sampled_from(["vocab", "counts"]))] = draw(ANY_JSON)
    elif fault == "bad-entry":
        c, t, n = draw(context), draw(target), draw(count)
        doc["counts"].append(draw(st.sampled_from([
            [c, t], [c, t, n, 0], ["".join(c), t, n], [c + [0], t, n], [c, [t], n],
            [c, t, 1.0], [c, t, True], n])))
    elif fault == "repeat-entry":
        c, t = draw(context), draw(target)
        doc["counts"] += [[c, t, draw(count)], [c, t, draw(st.integers(-2, 9))]]
    elif fault == "unknown-token":
        doc["counts"].append(draw(st.sampled_from([[["zebra"], "a", 1], [[], "zebra", 1]])))
    elif fault == "bad-vocab":
        doc["vocab"] = draw(st.sampled_from([
            LM_TOKENS, vocab + vocab[-1:], vocab + [3], vocab + [""], vocab[1:]]))
    return doc, fault is None


def directly_built(doc) -> NGramModel:
    """``NGramModel`` over ``doc``'s counts, mapped to ids here rather than by the loader."""
    vocab = Vocabulary(doc["vocab"][len(SPECIAL_TOKENS):])
    counts = {}
    for context, token, count in doc["counts"]:
        ids = tuple(vocab.token_to_id(t) for t in context)
        counts.setdefault(ids, {})[vocab.token_to_id(token)] = count
    return NGramModel(order=doc["order"], alpha=doc["alpha"], vocab=vocab, counts=counts)


@settings(max_examples=150, deadline=None)
@given(ngram_documents(), st.integers(1, 4), st.integers(1, 5),
       st.sampled_from(["0", "2", "1e-20"]))
def test_any_ngram_document_loads_as_built_directly_or_exits_2(document, beam_width, max_len,
                                                                strength):
    doc, well_formed = document
    text = json.dumps(doc)
    try:
        loaded = load_scorer(text)
        error = None
    except ValueError as exc:
        error = str(exc)
    if well_formed:
        # construction owns every rule the loader leaves: same model, or same message
        try:
            direct = directly_built(doc)
        except ValueError as exc:
            assert error == str(exc)
        else:
            assert error is None
            assert vars(loaded) == vars(direct)
            assert type(loaded.alpha) is float
    elif error is None:
        assert vars(loaded) == vars(directly_built(doc))
    with tempfile.TemporaryDirectory() as work:
        model, out = Path(work) / "lm.json", Path(work) / "story.json"
        model.write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["decode", "--model", str(model), "--conditions", "c1", "c2",
                         f"--beam-width={beam_width}", f"--max-len={max_len}",
                         f"--lambda={strength}", "--out", str(out)])
        if error is None:
            assert code == 0, stderr.getvalue()
            text = out.read_text(encoding="utf-8")
            assert perfbench_checks.story_problems(text, ["c1", "c2"]) == []
        else:
            assert code == 2
            assert stderr.getvalue() == f"storybeam decode: error: {error}\n"
            assert not out.exists()


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` in this process: its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def assert_one_error_line(command: str, stderr: str) -> None:
    errors = [line for line in stderr.splitlines()
              if line.startswith(f"storybeam {command}: error: ")]
    assert len(errors) == 1, stderr


CORPUS_WORDS = [b"the", b"Cat", b"sat", b"<pad>", b"<BOS>", b"<eos>", b"<Unk>", b"<unk>s",
                "café".encode(), "\U0001f600".encode()]
CORPUS_SPACES = [b" ", b"\t", b"\x0c", b"\x0b", "\u2028".encode(), "\u0085".encode()]
CORPUS_LINE_ENDS = [b"\n", b"\r", b"\r\n"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80"]
# (command-line value, whether it keeps the setting's rule); None leaves the default
TRAIN_SETTINGS = {
    "--order": [(None, True), ("1", True), ("3", True), (str(MAX_ORDER), True), ("0", False),
                ("-1", False), (str(MAX_ORDER + 1), False), ("2.5", False)],
    "--alpha": [(None, True), ("0.01", True), ("5e-324", True), ("0", False), ("-1", False),
                ("nan", False), ("inf", False), ("1e308", False), ("x", False)],
    "--min-count": [(None, True), ("1", True), ("3", True), ("0", False), ("-2", False),
                    ("1.5", False)],
}


@settings(max_examples=100, deadline=None)
@given(corpus=st.lists(st.sampled_from(CORPUS_WORDS + CORPUS_SPACES + CORPUS_LINE_ENDS
                                        + NOT_UTF8), max_size=30),
       chosen=st.fixed_dictionaries({flag: st.sampled_from(values)
                                     for flag, values in TRAIN_SETTINGS.items()}))
def test_any_train_lm_input_exits_0_with_a_loadable_model_or_2(corpus, chosen):
    data = b"".join(corpus)
    try:
        has_words = bool(data.decode("utf-8").split())
    except UnicodeDecodeError:
        has_words = False
    with tempfile.TemporaryDirectory() as work:
        corpus_file, out = Path(work) / "corpus.txt", Path(work) / "lm.json"
        corpus_file.write_bytes(data)
        argv = ["train-lm", str(corpus_file), "--out", str(out)]
        argv += [f"{flag}={value}" for flag, (value, _) in chosen.items() if value is not None]
        code, stdout, stderr = run_main(argv)
        # V >= 4, so 1e308 * (V - 2) always overflows and the other alphas never do
        assert code == (0 if has_words and all(ok for _, ok in chosen.values()) else 2), stderr
        if code == 0:
            model = load_scorer(out.read_text(encoding="utf-8"))
            assert f"contexts: {len(model.counts)}\n" in stdout
        else:
            assert_one_error_line("train-lm", stderr)
            assert sorted(os.listdir(work)) == ["corpus.txt"]


def story_segments(good: bool):
    words = st.sampled_from(["a", "b", "<eos>", "<unk>", "", "\ud800"])
    if good:
        return st.lists(st.fixed_dictionaries({"tokens": st.lists(words, max_size=4)},
                                              optional={"text": st.text(max_size=2)}),
                        max_size=4)
    bad_tokens = st.one_of(ANY_JSON.filter(lambda v: not isinstance(v, list)),
                           st.lists(st.one_of(words, ANY_JSON), min_size=1, max_size=3)
                           .filter(lambda v: not all(isinstance(t, str) for t in v)))
    bad_segment = st.one_of(ANY_JSON.filter(lambda v: not isinstance(v, dict)),
                            st.fixed_dictionaries({}, optional={"text": st.text(max_size=2)}),
                            st.fixed_dictionaries({"tokens": bad_tokens}))
    return st.one_of(ANY_JSON.filter(lambda v: not isinstance(v, list)),
                     st.lists(bad_segment, min_size=1, max_size=3))


@st.composite
def story_files(draw):
    """``(bytes, good)``: a story file, and whether eval must accept it."""
    if draw(st.booleans()):
        doc = {"segments": draw(story_segments(True)), "story": draw(st.text(max_size=3))}
        return json.dumps(doc).encode(), True
    kind = draw(st.sampled_from(["bad-segments", "no-segments", "not-a-mapping", "empty",
                                 "deep", "not-utf8"]))
    if kind == "bad-segments":
        data = json.dumps({"segments": draw(story_segments(False))})
    elif kind == "no-segments":
        data = json.dumps(draw(st.dictionaries(st.sampled_from(["story", "tokens"]), ANY_JSON)))
    elif kind == "not-a-mapping":
        data = json.dumps(draw(ANY_JSON.filter(lambda v: not isinstance(v, dict))))
    elif kind == "empty":
        data = ""
    elif kind == "deep":
        depth = draw(st.sampled_from([3, 50, 5000]))
        data = draw(st.sampled_from(['{"segments": %s}', '{"segments": [{"tokens": %s}]}']))
        data %= "[" * depth + "]" * depth
    else:
        good = json.dumps({"segments": draw(story_segments(True))}).encode()
        cut = draw(st.integers(0, len(good)))
        return good[:cut] + draw(st.sampled_from(NOT_UTF8)) + good[cut:], False
    return data.encode(), False


@settings(max_examples=150, deadline=None)
@given(story_files())
def test_any_story_file_evaluates_to_strict_json_or_exits_2(story):
    data, good = story
    with tempfile.NamedTemporaryFile(suffix=".json") as handle:
        handle.write(data)
        handle.flush()
        code, stdout, stderr = run_main(["eval", handle.name])
    assert code == (0 if good else 2), stderr
    if code == 0:
        report = json.loads(stdout, parse_constant=lambda name: pytest.fail(name))
        assert list(report) == ["distinct_1", "distinct_2", "mean_pairwise_jaccard",
                                "repeated_segment_pairs"]
        assert all(0 <= report[key] <= 1 for key in list(report)[:3])
        assert type(report["repeated_segment_pairs"]) is int
    else:
        assert stdout == ""
        assert_one_error_line("eval", stderr)


# perfbench's output gate, loaded by path because perfbench is not a package
_checks_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).parents[1] / "perfbench" / "checks.py")
perfbench_checks = importlib.util.module_from_spec(_checks_spec)
_checks_spec.loader.exec_module(perfbench_checks)

TABLE_TOKENS = ["a", "b", "c", "<eos>", "<unk>", "café"]
CONDITIONS = ["c1", "c2", "x", "é"]
BLANKS = ["", " ", "\t", " \t "]
TABLE_FAULTS = ["probs-length", "probs-sum", "negative-prob", "pad-token", "repeated-token",
                "missing-default", "unknown-context", "eos-context"]
# (command-line value, whether it keeps the setting's rule, or None where a story
# may fail anyway: at 1e308 a story of more than one segment overflows)
DECODE_SETTINGS = {
    # 8 and 64 are wider than any table's candidate set
    "--beam-width": [(None, True), ("1", True), ("3", True), ("8", True), ("64", True),
                     ("0", False), ("x", False)],
    "--lambda": [(None, True), ("0", True), ("1e-20", True), ("1e300", True), ("1e308", None),
                 ("-1", False), ("nan", False)],
    "--max-len": [(None, True), ("1", True), ("4", True), ("0", False)],
    "--penalty": [(None, True), *((name, True) for name in PENALTY_NAMES), ("none", False)],
}


def table_file(draw, intact: bool) -> tuple[bytes, bool]:
    """A scoring-table file, and whether decode must load it."""
    kinds = ["flat-yaml", "rows-yaml", "json"] + ([] if intact else ["empty", "not-utf8"])
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return b"", False
    tokens = draw(st.lists(st.sampled_from(TABLE_TOKENS), min_size=1, max_size=4, unique=True))

    def probs() -> list[float]:
        weights = draw(st.lists(st.integers(0, 3), min_size=len(tokens),
                                max_size=len(tokens)).filter(any))
        return [weight / sum(weights) for weight in weights]

    doc = {"vocab": tokens, "default_row": probs()}
    # a prefix never holds <eos>, so a row context naming it is a fault
    context_tokens = [token for token in tokens if token != "<eos>"]
    if kind != "flat-yaml":
        doc["rows"] = [{"condition": draw(st.sampled_from([None, *CONDITIONS])),
                        "context": (draw(st.lists(st.sampled_from(context_tokens), max_size=2))
                                    if context_tokens else []),
                        "probs": probs()} for _ in range(draw(st.integers(0, 2)))]
    fault = None if intact else draw(st.sampled_from([None, *TABLE_FAULTS]))
    if fault == "probs-length":
        doc["default_row"] = doc["default_row"][:-1] or [1.0, 0.0]
    elif fault == "probs-sum":
        doc["default_row"] = [2 * p for p in doc["default_row"]]
    elif fault == "negative-prob":
        doc["default_row"][0] -= 0.5
    elif fault in ("pad-token", "repeated-token"):
        doc["vocab"] = [*tokens, "<pad>" if fault == "pad-token" else tokens[0]]
        doc["default_row"] = [*doc["default_row"], 0.0]
    elif fault == "missing-default":
        del doc["default_row"]
    elif fault == "unknown-context":
        doc.setdefault("rows", []).append({"context": ["zzz"], "probs": doc["default_row"]})
    elif fault == "eos-context":
        doc.setdefault("rows", []).append({"context": ["<eos>"], "probs": doc["default_row"]})
    if kind == "flat-yaml" and "rows" not in doc:
        text = "".join(f"{key}: [{', '.join(map(str, value))}]\n" for key, value in doc.items())
    elif kind == "json":
        text = json.dumps(doc)
    else:
        text = yaml.safe_dump(doc, allow_unicode=True, sort_keys=False)
    data = draw(st.sampled_from([b"", codecs.BOM_UTF8])) + text.encode("utf-8")
    if kind == "not-utf8":
        cut = draw(st.integers(0, len(data)))
        return data[:cut] + draw(st.sampled_from(NOT_UTF8)) + data[cut:], False
    return data, fault is None


def decode_source(draw, intact: bool) -> tuple[str, object, list, bool]:
    """A condition source (``kind`` and argument or file bytes), its stories as
    decode reads them (``(line number, conditions)``), and whether they must decode."""
    kind = draw(st.sampled_from(["conditions", "conditions-file", "batch"]))
    if kind == "conditions":
        conditions = draw(st.lists(st.sampled_from(CONDITIONS + ([] if intact else [""])),
                                   min_size=1, max_size=4))
        return kind, conditions, [(1, conditions)], "" not in conditions
    if kind == "conditions-file":
        filled = st.sampled_from(CONDITIONS + [" c1 "])
    else:
        filled = st.lists(st.sampled_from(CONDITIONS), min_size=1, max_size=3).map(" ".join)
    # an intact file has a non-blank line
    lines = draw(st.lists(filled, min_size=int(intact), max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANKS)))
    if kind == "conditions-file":
        stories = [(1, [line.strip() for line in lines if line.strip()])]
    else:
        stories = [(number, line.split()) for number, line in enumerate(lines, start=1)
                   if line.split()]
    # a leading byte order mark is not part of the first line
    data = draw(st.sampled_from([b"", codecs.BOM_UTF8])) + "\n".join(lines).encode("utf-8")
    if not intact and draw(st.booleans()):
        return kind, data + draw(st.sampled_from(NOT_UTF8)), stories, False
    return kind, data, stories, bool(stories and stories[0][1])


@st.composite
def decode_inputs(draw):
    """A model file, a condition source and flags; in about half the cases all of
    them keep every rule."""
    intact = draw(st.booleans())
    flags = {flag: draw(st.sampled_from([(value, ok) for value, ok in values
                                         if ok is not False or not intact]))
             for flag, values in DECODE_SETTINGS.items()}
    return table_file(draw, intact), decode_source(draw, intact), flags


# decode's boundary contract: exit 0 with strict JSON stories that replay, or
# exit 2 with one error line and no file for a story that failed
@settings(max_examples=120, deadline=None)
@given(inputs=decode_inputs(), to_file=st.booleans())
def test_any_decode_input_exits_0_with_stories_that_replay_or_2(inputs, to_file):
    (model_bytes, good_model), (kind, value, stories, good_source), chosen = inputs
    with tempfile.TemporaryDirectory() as work:
        model, out = Path(work) / "table.yaml", Path(work) / "out"
        model.write_bytes(model_bytes)
        argv = ["decode", "--model", str(model)]
        if kind == "conditions":
            argv += ["--conditions", *value]
        else:
            (Path(work) / "source.txt").write_bytes(value)
            argv += [f"--{kind}", str(Path(work) / "source.txt")]
        if to_file or kind == "batch":
            argv += ["--out", str(out)]
        argv += [f"{flag}={value}" for flag, (value, _) in chosen.items() if value is not None]
        code, stdout, stderr = run_main(argv)
        oks = [good_model, good_source, *(ok for _, ok in chosen.values())]
        assert code in ((2,) if False in oks else (0,) if None not in oks else (0, 2)), stderr
        if kind != "batch":
            written = out.read_text(encoding="utf-8") if out.exists() else stdout
            assert (written == "") == (code == 2)
            if code == 0:
                assert perfbench_checks.story_problems(written, stories[0][1]) == []
        else:
            failed = {int(line.split(":")[0].split()[-1]) for line in stderr.splitlines()
                      if line.startswith("batch line ")}
            for index, (number, conditions) in enumerate(stories):
                story = out / f"story_{index:04d}.json"
                assert story.exists() == (out.exists() and number not in failed)
                if story.exists():
                    text = story.read_text(encoding="utf-8")
                    assert perfbench_checks.story_problems(text, conditions) == []
        if code == 2:
            assert_one_error_line("decode", stderr)


@st.composite
def batch_inputs(draw):
    """An intact table, a batch file with blank and whitespace-only lines, and
    flags; at --lambda 1e308 a story of more than one segment overflows and fails."""
    model_bytes, _ = table_file(draw, intact=True)
    filled = st.lists(st.sampled_from(CONDITIONS), min_size=1, max_size=3).map(" ".join)
    lines = draw(st.lists(st.one_of(filled, st.sampled_from(BLANKS)), min_size=1, max_size=6))
    flags = [f"--lambda={draw(st.sampled_from(['0', '2', '1e308']))}",
             f"--beam-width={draw(st.sampled_from([1, 2, 3, 8, 64]))}",
             f"--max-len={draw(st.integers(1, 4))}"]
    return model_bytes, "\n".join(lines).encode("utf-8"), flags


# --jobs changes how many stories run at once, never what decode writes or reports
@settings(max_examples=30, deadline=None)
@given(inputs=batch_inputs(), jobs=st.integers(1, 3))
def test_any_batch_decodes_alike_at_every_job_count(inputs, jobs):
    model_bytes, batch_bytes, flags = inputs
    with tempfile.TemporaryDirectory() as work:
        model, batch = Path(work) / "table.yaml", Path(work) / "batch.txt"
        model.write_bytes(model_bytes)
        batch.write_bytes(batch_bytes)
        runs = []
        for count in (1, jobs):
            out = Path(work) / f"out{count}"
            code, stdout, stderr = run_main(["decode", "--model", str(model), "--batch",
                                             str(batch), "--out", str(out),
                                             f"--jobs={count}", *flags])
            files = ({path.name: path.read_bytes() for path in out.iterdir()}
                     if out.exists() else None)
            runs.append((code, stdout.replace(str(out), "<out>"), stderr, files))
        assert runs[0][0] in (0, 2), runs[0][2]
        assert runs[1] == runs[0]


class TestTrainLm:
    def test_trains_and_round_trips(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "model.yaml"
        code = main(["train-lm", str(corpus_path), "--order", "2",
                     "--alpha", "1", "--min-count", "1", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "vocabulary size:" in printed
        assert "contexts:" in printed
        model = load_ngram(out.read_text(encoding="utf-8"))
        the = model.vocab.token_to_id("the")
        again = load_ngram(out.read_text(encoding="utf-8"))
        assert (dense_row(model.score_step("x", [the])).tobytes()
                == dense_row(again.score_step("x", [the])).tobytes())

    def test_leading_byte_order_mark_is_skipped(self, corpus_path, tmp_path):
        marked_corpus = tmp_path / "marked.txt"
        marked_corpus.write_bytes(codecs.BOM_UTF8 + corpus_path.read_bytes())
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        for corpus, out in ((corpus_path, plain), (marked_corpus, marked)):
            assert main(["train-lm", str(corpus), "--min-count", "1", "--out", str(out)]) == 0
        assert marked.read_bytes() == plain.read_bytes()

    def test_degenerate_vocabulary_warns_but_succeeds(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "model.yaml"
        code = main(["train-lm", str(corpus_path), "--min-count", "99",
                     "--out", str(out)])
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_missing_corpus_file(self, tmp_path, capsys):
        code = main(["train-lm", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "m.yaml")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_order_rejected(self, corpus_path, tmp_path):
        code = main(["train-lm", str(corpus_path), "--order", "0",
                     "--out", str(tmp_path / "m.yaml")])
        assert code == 2

    def test_order_beyond_limit_rejected(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "m.yaml"
        code = main(["train-lm", str(corpus_path), "--order", str(MAX_ORDER + 1),
                     "--min-count", "1", "--out", str(out)])
        assert code == 2
        assert f"order must be an integer from 1 to {MAX_ORDER}" in capsys.readouterr().err
        assert not out.exists()

    def test_pad_and_bos_words_train_as_unk(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the <pad> cat\n<bos> the cat <bos>\n", encoding="utf-8")
        out = tmp_path / "model.json"
        assert main(["train-lm", str(corpus), "--min-count", "1", "--out", str(out)]) == 0
        triples = json.loads(out.read_text(encoding="utf-8"))["counts"]
        assert {token for _, token, _ in triples} == {"the", "cat", "<unk>", "<eos>"}
        assert main(["decode", "--model", str(out), "--conditions", "c1", "c2",
                     "--out", str(tmp_path / "story.json")]) == 0

    @pytest.mark.parametrize("alpha", ["inf", "1e308"])
    def test_non_finite_or_overflowing_alpha_rejected(self, corpus_path, tmp_path,
                                                      capsys, alpha):
        out = tmp_path / "m.yaml"
        code = main(["train-lm", str(corpus_path), "--alpha", alpha,
                     "--min-count", "1", "--out", str(out)])
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()


class TestDecode:
    def test_zero_lambda_repeats_five_segments(self, table_path, tmp_path):
        out = tmp_path / "story.json"
        code = main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "c2", "c3", "c4", "c5",
                     "--beam-width", "1", "--lambda", "0", "--max-len", "2",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        tokens = [seg["tokens"] for seg in doc["segments"]]
        assert tokens == [["a", "a"]] * 5

    def test_default_lambda_diversifies_second_segment(self, table_path, tmp_path):
        out = tmp_path / "story.json"
        code = main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "c2",
                     "--beam-width", "1", "--max-len", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["segments"][0]["tokens"] == ["a", "a"]
        assert doc["segments"][1]["tokens"] == ["b", "b"]

    def test_negative_lambda_rejected(self, table_path, tmp_path, capsys):
        code = main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "--lambda", "-1",
                     "--out", str(tmp_path / "s.json")])
        assert code == 2

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_non_finite_lambda_rejected(self, table_path, tmp_path, capsys, lam):
        out = tmp_path / "s.json"
        code = main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "c2", "--beam-width", "2",
                     "--max-len", "3", "--lambda", lam, "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_lambda_rejected_without_warning(self, table_path, tmp_path,
                                                         capsys):
        out = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["decode", "--model", str(table_path),
                         "--conditions", "c1", "c2", "--beam-width", "2",
                         "--max-len", "3", "--lambda", "1e308", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "Warning" not in err
        assert not out.exists()

    def test_out_succeeds_beside_stale_tmp_directory(self, table_path, tmp_path):
        out = tmp_path / "out.json"
        (tmp_path / "out.json.tmp").mkdir()
        code = main(["decode", "--model", str(table_path), "--conditions", "c1",
                     "--beam-width", "1", "--max-len", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["segments"]
        assert out.stat().st_mode == table_path.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.json", "out.json.tmp", "table.yaml"]

    # the temporary file was named <name>.<16 hex>.tmp, 21 bytes past a
    # 250-byte name and over the 255-byte limit
    def test_out_accepts_a_250_byte_name(self, corpus_path, table_path, tmp_path):
        model, story = tmp_path / ("m" * 245 + ".yaml"), tmp_path / ("s" * 245 + ".json")
        assert len(os.fsencode(model.name)) == len(os.fsencode(story.name)) == 250
        assert main(["train-lm", str(corpus_path), "--min-count", "1",
                     "--out", str(model)]) == 0
        assert main(["decode", "--model", str(model), "--conditions", "c1", "c2",
                     "--beam-width", "1", "--max-len", "2", "--out", str(story)]) == 0
        assert json.loads(story.read_text(encoding="utf-8"))["segments"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["corpus.txt", "table.yaml", model.name, story.name])

    def test_failed_write_leaves_no_temp_file(self, table_path, tmp_path):
        out = tmp_path / "taken"
        out.mkdir()  # os.replace cannot overwrite a directory with a file
        code = main(["decode", "--model", str(table_path), "--conditions", "c1",
                     "--beam-width", "1", "--max-len", "2", "--out", str(out)])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.yaml", "taken"]
        assert not any(out.iterdir())

    def test_out_through_a_symlink_replaces_its_target(self, table_path, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        (real / "story.json").write_text("old", encoding="utf-8")
        link, dangling = tmp_path / "link.json", tmp_path / "dangling.json"
        link.symlink_to(real / "story.json")
        dangling.symlink_to(real / "new.json")
        for out in (link, dangling):
            code = main(["decode", "--model", str(table_path), "--conditions", "c1",
                         "--beam-width", "1", "--max-len", "2", "--out", str(out)])
            assert code == 0
            assert out.is_symlink()
        story = (real / "story.json").read_text(encoding="utf-8")
        assert json.loads(story)["segments"]
        assert (real / "new.json").read_text(encoding="utf-8") == story
        assert (real / "story.json").stat().st_mode == table_path.stat().st_mode
        assert sorted(p.name for p in real.iterdir()) == ["new.json", "story.json"]

    def test_out_mode_follows_the_umask_at_write_time(self, corpus_path, table_path,
                                                      tmp_path):
        # the umask changes after storybeam.cli is imported: a mode fixed at import is 0o644
        model, story = tmp_path / "model.json", tmp_path / "story.json"
        previous = os.umask(0o077)
        try:
            assert main(["train-lm", str(corpus_path), "--min-count", "1",
                         "--out", str(model)]) == 0
            assert main(["decode", "--model", str(table_path), "--conditions", "c1",
                         "--beam-width", "1", "--max-len", "2", "--out", str(story)]) == 0
        finally:
            os.umask(previous)
        assert [path.stat().st_mode & 0o777 for path in (model, story)] == [0o600, 0o600]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_out_to_a_fifo_writes_into_it(self, table_path, tmp_path):
        fifo = tmp_path / "story.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code = main(["decode", "--model", str(table_path), "--conditions", "c1",
                         "--beam-width", "1", "--max-len", "2", "--out", str(fifo)])
            assert code == 0
            text = os.read(reader, 1 << 16).decode("utf-8")
        finally:
            os.close(reader)
        assert json.loads(text)["segments"]
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["story.fifo", "table.yaml"]

    def test_unknown_penalty_rejected(self, table_path, tmp_path):
        code = main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "--penalty", "cosine",
                     "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_malformed_model_document_rejected(self, tmp_path, capsys):
        model = tmp_path / "table.yaml"
        model.write_text(TABLE_YAML + "rows: 5\n", encoding="utf-8")
        code = main(["decode", "--model", str(model), "--conditions", "c1"])
        assert code == 2
        assert "rows must be a list" in capsys.readouterr().err

    # the row loaded but could never match: no prefix holds <eos>
    def test_eos_in_a_row_context_rejected(self, tmp_path, capsys):
        model = tmp_path / "table.yaml"
        model.write_text(TABLE_YAML + "rows: [{context: [<eos>], probs: [0, 1, 0]}]\n",
                         encoding="utf-8")
        code = main(["decode", "--model", str(model), "--conditions", "c1"])
        assert code == 2
        assert "rows[0]: context token '<eos>' never occurs in a prefix" in capsys.readouterr().err

    def test_overflowing_count_total_rejected(self, tmp_path, capsys):
        model = tmp_path / "lm.yaml"
        model.write_text(
            "order: 1\nalpha: 1.0\nvocab: ['<pad>', '<bos>', '<eos>', '<unk>', a, b]\n"
            f"counts: [[[], a, {10 ** 308}], [[], b, {10 ** 308}]]\n", encoding="utf-8")
        code = main(["decode", "--model", str(model), "--conditions", "c1"])
        assert code == 2
        assert "float range" in capsys.readouterr().err

    # summed, the two entries loaded as a count of 2
    def test_repeated_count_entry_rejected(self, tmp_path, capsys):
        model = tmp_path / "lm.json"
        model.write_text(
            '{"order":2,"alpha":1.0,"vocab":["<pad>","<bos>","<eos>","<unk>","a","b"],'
            '"counts":[[["a"],"b",5],[["a"],"b",-3]]}\n', encoding="utf-8")
        code = main(["decode", "--model", str(model), "--conditions", "c1"])
        assert code == 2
        assert "repeats an earlier context and token" in capsys.readouterr().err

    # RecursionError in json.loads exited 1; libyaml's composer overflowed the
    # C stack (SIGSEGV), so each runs in a child that may crash without pytest
    @pytest.mark.parametrize("name, text", [
        ("deep.json", '{"order":' + "[" * 100000 + "]" * 100000 + "}"),
        ("deep.yaml", "order:\n" + "- " * 30000 + "x"),
        ("deep_flow.yaml", "order: " + "[" * 30000 + "]" * 30000 + "\n"),
    ], ids=["json", "block-yaml", "flow-yaml"])
    def test_deeply_nested_model_rejected(self, tmp_path, name, text):
        model = tmp_path / name
        model.write_text(text, encoding="utf-8")
        result = run_python(
            "import sys\n"
            "from storybeam.cli import main\n"
            f"sys.exit(main(['decode', '--model', {str(model)!r}, '--conditions', 'c1']))\n")
        assert result.returncode == 2, result.stderr
        assert "nested" in result.stderr

    # yaml is imported only for a document that is not JSON
    def test_json_model_round_never_imports_yaml(self, corpus_path, tmp_path):
        model, out = tmp_path / "model.json", tmp_path / "story.json"
        result = run_python(
            "import sys\n"
            "from storybeam.cli import main\n"
            f"assert main(['train-lm', {str(corpus_path)!r}, '--out', {str(model)!r}]) == 0\n"
            f"assert main(['decode', '--model', {str(model)!r}, '--conditions', 'c1', 'c2',"
            f" '--out', {str(out)!r}]) == 0\n"
            "print('yaml' in sys.modules)\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"
        assert json.loads(out.read_text(encoding="utf-8"))["segments"]

    # the flat-table reader takes the table, so yaml is never imported either
    def test_flat_table_decodes_without_yaml(self, table_path, tmp_path):
        out = tmp_path / "story.json"
        result = run_python(
            "import sys\n"
            "from storybeam.cli import main\n"
            f"assert main(['decode', '--model', {str(table_path)!r}, '--conditions', 'c1',"
            f" '--out', {str(out)!r}]) == 0\n"
            "print('yaml' in sys.modules)\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"
        assert json.loads(out.read_text(encoding="utf-8"))["segments"]

    @pytest.mark.parametrize("token", ["<bos>", "<pad>"])
    def test_counted_pad_or_bos_rejected(self, tmp_path, capsys, token):
        model = tmp_path / "lm.yaml"
        model.write_text(
            "order: 2\nalpha: 1.0\nvocab: ['<pad>', '<bos>', '<eos>', '<unk>', a]\n"
            f"counts: [[['<bos>'], a, 3], [['<bos>'], '{token}', 50]]\n", encoding="utf-8")
        code = main(["decode", "--model", str(model), "--conditions", "c1"])
        assert code == 2
        assert "PAD, BOS" in capsys.readouterr().err

    # an order beyond the index range loaded, then failed in context_for
    def test_oversized_order_rejected(self, tmp_path, capsys):
        model = tmp_path / "lm.yaml"
        model.write_text(
            f"order: {10 ** 400}\nalpha: 1.0\n"
            "vocab: ['<pad>', '<bos>', '<eos>', '<unk>', a]\ncounts: []\n", encoding="utf-8")
        code = main(["decode", "--model", str(model), "--conditions", "c1"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: order must be an integer from 1 to {MAX_ORDER}" in err
        assert "internal error" not in err

    def test_missing_model_file(self, tmp_path):
        code = main(["decode", "--model", str(tmp_path / "ghost.yaml"),
                     "--conditions", "c1", "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_byte_identical_across_runs(self, table_path, tmp_path):
        args = ["decode", "--model", str(table_path),
                "--conditions", "c1", "c2", "c3",
                "--beam-width", "2", "--max-len", "4"]
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_when_no_out_given(self, table_path, capsys):
        code = main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "--beam-width", "1",
                     "--max-len", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segments"][0]["condition"] == "c1"

    def test_conditions_file(self, table_path, tmp_path):
        conditions = tmp_path / "conds.txt"
        conditions.write_text("c1\nc2\n\nc3\n", encoding="utf-8")
        out = tmp_path / "story.json"
        code = main(["decode", "--model", str(table_path),
                     "--conditions-file", str(conditions), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [seg["condition"] for seg in doc["segments"]] == ["c1", "c2", "c3"]

    @pytest.mark.parametrize("sources, message", [
        ([], "one of the arguments --conditions --conditions-file --batch is required"),
        (["--conditions", "c1", "--conditions-file", "missing.txt"],
         "argument --conditions-file: not allowed with argument --conditions"),
        (["--conditions", "c1", "--batch", "missing.txt"],
         "argument --batch: not allowed with argument --conditions"),
        (["--conditions", "c1", "--conditions-file", "missing.txt", "--batch", "missing.txt"],
         "argument --conditions-file: not allowed with argument --conditions"),
    ], ids=["none", "conditions-and-file", "two", "three"])
    def test_exactly_one_source_is_parsed(self, tmp_path, capsys, sources, message):
        # a missing model: the parser rejects the sources before any file is read
        argv = ["decode", "--model", str(tmp_path / "missing.json"), *sources,
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_decode_with_trained_ngram(self, corpus_path, tmp_path):
        model = tmp_path / "model.yaml"
        assert main(["train-lm", str(corpus_path), "--order", "2",
                     "--min-count", "1", "--out", str(model)]) == 0
        out = tmp_path / "story.json"
        code = main(["decode", "--model", str(model),
                     "--conditions", "c1", "c2", "--max-len", "6",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["segments"]) == 2

    # the block YAML that train-lm wrote before models were written as JSON
    def test_block_yaml_model_decodes_like_json_model(self, corpus_path, tmp_path):
        model = tmp_path / "model.yaml"
        assert main(["train-lm", str(corpus_path), "--order", "3", "--alpha", "0.01",
                     "--min-count", "1", "--out", str(model)]) == 0
        text = model.read_text(encoding="utf-8")
        assert text.startswith("{")
        old = tmp_path / "old.yaml"
        old.write_text(yaml.dump(json.loads(dump_ngram(load_ngram(text))), Dumper=yaml.SafeDumper,
                                 sort_keys=False, allow_unicode=True), encoding="utf-8")
        stories = []
        for path in (model, old):
            out = tmp_path / f"{path.stem}.json"
            assert main(["decode", "--model", str(path), "--conditions", "c1", "c2", "c3",
                         "--max-len", "8", "--out", str(out)]) == 0
            stories.append(out.read_bytes())
        assert stories[0] == stories[1]

    def test_batch_decoding_matches_single_runs(self, table_path, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("c1 c2\nc3 c4 c5\n", encoding="utf-8")
        out_dir = tmp_path / "stories"
        code = main(["decode", "--model", str(table_path), "--batch", str(batch),
                     "--jobs", "3", "--beam-width", "1", "--max-len", "2",
                     "--out", str(out_dir)])
        assert code == 0
        first = (out_dir / "story_0000.json").read_bytes()
        single = tmp_path / "single.json"
        assert main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "c2", "--beam-width", "1",
                     "--max-len", "2", "--out", str(single)]) == 0
        assert first == single.read_bytes()
        assert (out_dir / "story_0001.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_writes_good_stories_and_reports_bad_lines(
            self, table_path, tmp_path, capsys, jobs):
        # at --lambda 1e308 a one-segment story decodes, a two-segment one overflows
        batch = tmp_path / "batch.txt"
        batch.write_text("c1 c2\n\nc1\nc3 c4\n", encoding="utf-8")
        out_dir = tmp_path / "stories"
        args = ["--beam-width", "2", "--max-len", "3", "--lambda", "1e308"]
        code = main(["decode", "--model", str(table_path), "--batch", str(batch),
                     "--jobs", jobs, "--out", str(out_dir)] + args)
        assert code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err_lines[:2]] == [
            "batch line 1", "batch line 4"]
        assert "2 of 3 stories failed" in err_lines[2]
        assert sorted(p.name for p in out_dir.iterdir()) == ["story_0001.json"]
        single = tmp_path / "single.json"
        assert main(["decode", "--model", str(table_path), "--conditions", "c1",
                     "--out", str(single)] + args) == 0
        assert (out_dir / "story_0001.json").read_bytes() == single.read_bytes()

    def test_failed_story_removes_earlier_runs_file(self, table_path, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        out_dir = tmp_path / "stories"
        args = ["decode", "--model", str(table_path), "--batch", str(batch),
                "--out", str(out_dir), "--beam-width", "2", "--max-len", "3",
                "--lambda", "1e308"]
        batch.write_text("c1\nc2\n", encoding="utf-8")
        assert main(args) == 0
        first = (out_dir / "story_0000.json").read_bytes()
        batch.write_text("c1\nc2 c3\n", encoding="utf-8")
        assert main(args) == 2
        assert "batch line 2" in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.iterdir()) == ["story_0000.json"]
        assert (out_dir / "story_0000.json").read_bytes() == first

    @pytest.mark.parametrize("sep", ["\x1c", "\x0c", "\N{LINE SEPARATOR}"])
    def test_batch_and_conditions_files_split_at_newlines_only(
            self, table_path, tmp_path, capsys, sep):
        # str.splitlines() breaks lines at sep too, which shifts story numbers
        # and reported line numbers away from the file's lines
        batch = tmp_path / "batch.txt"
        batch.write_text(f"c1\n\nc2{sep}c3\nc4\n", encoding="utf-8")
        out_dir = tmp_path / "stories"
        # at --lambda 1e308 a one-segment story decodes, a two-segment one overflows
        code = main(["decode", "--model", str(table_path), "--batch", str(batch),
                     "--max-len", "2", "--lambda", "1e308", "--out", str(out_dir)])
        assert code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines[0].startswith("batch line 3: ")
        assert "1 of 3 stories failed" in err_lines[1]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "story_0000.json", "story_0002.json"]
        doc = json.loads((out_dir / "story_0002.json").read_text(encoding="utf-8"))
        assert [seg["condition"] for seg in doc["segments"]] == ["c4"]

        conditions = tmp_path / "conds.txt"
        conditions.write_text(f"c1\n\nc2{sep}c3\n", encoding="utf-8")
        out = tmp_path / "story.json"
        assert main(["decode", "--model", str(table_path), "--max-len", "2",
                     "--conditions-file", str(conditions), "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [seg["condition"] for seg in doc["segments"]] == ["c1", f"c2{sep}c3"]

    def test_bad_setting_fails_a_batch_once(self, table_path, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text("c1 c2\nc3\nc4 c5\n", encoding="utf-8")
        out_dir = tmp_path / "stories"
        code = main(["decode", "--model", str(table_path), "--batch", str(batch),
                     "--beam-width", "0", "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == (
            "storybeam decode: error: beam_width must be an integer >= 1, got 0\n")
        assert not list(tmp_path.rglob("story_*.json"))

    # a non-UTF-8 argv byte reaches the decoder as a lone surrogate; stdout
    # wrote it as a raw byte, and --out failed only after the whole decode
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_condition_that_is_not_utf8_rejected(self, table_path, tmp_path, to_file):
        out = tmp_path / "story.json"
        argv = [sys.executable, "-m", "storybeam", "decode", "--model", str(table_path),
                "--conditions", "c1", b"\xff"] + (["--out", str(out)] if to_file else [])
        env = {**os.environ, "LC_ALL": "C",
               "PYTHONPATH": str(Path(storybeam.__file__).parents[1])}
        result = subprocess.run(argv, capture_output=True, timeout=60, env=env)
        assert result.returncode == 2, result.stderr
        assert result.stdout == b""
        assert b"not valid Unicode" in result.stderr
        assert not out.exists()

    # a list or mapping token made decode exit 1, and the n-gram model took ''
    @pytest.mark.parametrize("token", ["[a]", "{k: v}", "3", "''"])
    @pytest.mark.parametrize("kind", ["table", "ngram"])
    def test_vocab_tokens_are_non_empty_strings(self, tmp_path, capsys, kind, token):
        model = tmp_path / "model.yaml"
        if kind == "table":
            text = f"vocab: [b, {token}, <eos>]\ndefault_row: [0.5, 0.3, 0.2]\n"
        else:
            text = ("order: 1\nalpha: 1.0\n"
                    f"vocab: ['<pad>', '<bos>', '<eos>', '<unk>', b, {token}]\ncounts: []\n")
        model.write_text(text, encoding="utf-8")
        assert main(["decode", "--model", str(model), "--conditions", "c1"]) == 2
        assert "error: invalid vocab token" in capsys.readouterr().err

    def test_batch_requires_out_directory(self, table_path, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("c1 c2\n", encoding="utf-8")
        assert main(["decode", "--model", str(table_path),
                     "--batch", str(batch)]) == 2

    @staticmethod
    def peak_kib(*argv: str) -> int:
        """Run the CLI with ``argv`` in a child; return the child's own peak RSS in KiB."""
        result = run_python(
            "from storybeam.cli import main\n"
            f"assert main({list(argv)!r}) == 0\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))\n")
        assert result.returncode == 0, result.stderr
        return int(result.stdout.split()[-1])  # train-lm prints its summary first

    @classmethod
    def decode_peak_kib(cls, *args: str) -> int:
        """Run ``decode`` with ``args`` in a child; return the child's own peak RSS in KiB."""
        return cls.peak_kib("decode", *args)

    # A model's load and its training both hold memory in proportion to the
    # model. The slope between two seeded corpora (25k and 100k tokens, Zipf
    # weights over 2000 words, lines of 6-15 words) cancels the interpreter's
    # fixed size: about 24 B of decode peak and 18 B of train-lm peak per byte
    # of model JSON, for models of 0.71 and 2.55 MB (x86_64 Linux, Python 3.11,
    # numpy 2.4). A change that doubles either slope fails.
    @needs_vmhwm
    def test_memory_per_model_byte(self, tmp_path):
        cum_weights = list(itertools.accumulate(1 / rank ** 1.05 for rank in range(1, 2001)))
        words = [f"w{i:04d}" for i in range(2000)]
        peaks = {"decode": [], "train-lm": []}
        sizes = []
        for tokens in (25_000, 100_000):
            rng = random.Random(tokens)
            lines, count = [], 0
            while count < tokens:
                length = rng.randint(6, 15)
                lines.append(" ".join(rng.choices(words, cum_weights=cum_weights, k=length)))
                count += length
            corpus, model = tmp_path / f"corpus{tokens}.txt", tmp_path / f"model{tokens}.json"
            corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
            peaks["train-lm"].append(self.peak_kib(
                "train-lm", str(corpus), "--order", "3", "--alpha", "0.01", "--min-count", "1",
                "--out", str(model)))
            sizes.append(model.stat().st_size)
            out = tmp_path / f"story{tokens}.json"
            peaks["decode"].append(self.decode_peak_kib(
                "--model", str(model), "--conditions", "c1", "c2", "c3", "c4", "c5",
                "--out", str(out)))
            assert len(json.loads(out.read_text(encoding="utf-8"))["segments"]) == 5
        slope = {command: (peak[1] - peak[0]) * 1024 / (sizes[1] - sizes[0])
                 for command, peak in peaks.items()}
        assert slope["decode"] <= 45 and slope["train-lm"] <= 32, (slope, peaks, sizes)

    # a segment holds O(beam width x max-len) of history, so the peak of a
    # width-1 decode grows by a few MiB from 500 to 4000 steps, not by tens
    @needs_vmhwm
    def test_segment_memory_grows_linearly_with_max_len(self, table_path, tmp_path):
        peaks = []
        for max_len in (500, 4000):
            out = tmp_path / f"story{max_len}.json"
            peaks.append(self.decode_peak_kib(
                "--model", str(table_path), "--conditions", "c1", "--beam-width", "1",
                "--lambda", "0", "--max-len", str(max_len), "--out", str(out)))
            assert len(json.loads(out.read_text(encoding="utf-8"))["segments"][0]["tokens"]) \
                == max_len
        assert peaks[1] - peaks[0] < 8 * 1024, f"VmHWM {peaks[0]} kB, then {peaks[1]} kB"

    # every hypothesis of a flat table stays live, so a step's matrix is B rows
    # by about B + E columns: a penalized segment adds only its penalized tokens
    # (88 MiB at width 1024 and 44 MiB at 512 on x86_64 Linux, Python 3.11, numpy 2.4)
    @needs_vmhwm
    def test_wide_beam_memory_in_a_penalized_story(self, tmp_path):
        words = 2000
        model = tmp_path / "flat.yaml"
        probs = [f"{(1 - 1e-6) / words:.17e}"] * words + ["1.0e-06"]
        model.write_text(f"vocab: [{', '.join(f't{i:04d}' for i in range(words))}, <eos>]\n"
                         f"default_row: [{', '.join(probs)}]\n", encoding="utf-8")
        out = tmp_path / "story.json"
        peak = self.decode_peak_kib(
            "--model", str(model), "--conditions", "c1", "c2", "c3", "--beam-width", "1024",
            "--lambda", "2", "--max-len", "5", "--out", str(out))
        segments = json.loads(out.read_text(encoding="utf-8"))["segments"]
        assert [len(seg["tokens"]) for seg in segments] == [5, 5, 5]
        assert segments[1]["tokens"] != segments[0]["tokens"]  # the penalty bites
        assert peak <= 128 * 1024, f"VmHWM {peak} kB"


class TestBlasThreads:
    """``decode`` starts numpy's OpenBLAS with one thread unless told otherwise."""

    @staticmethod
    def decode_and_report(table_path, tmp_path, **env) -> list[str]:
        out = tmp_path / "story.json"
        result = run_python(
            "import os\n"
            "from storybeam.cli import main\n"
            f"assert main(['decode', '--model', {str(table_path)!r}, '--conditions', 'c1',"
            f" '--out', {str(out)!r}]) == 0\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task')"
            " else 'unknown')\n", **env)
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    def test_decode_defaults_to_one_blas_thread(self, table_path, tmp_path):
        setting, _ = self.decode_and_report(table_path, tmp_path, OPENBLAS_NUM_THREADS=None)
        assert setting == "1"

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="threads are counted in Linux's /proc/self/task")
    def test_decode_process_runs_one_thread(self, table_path, tmp_path):
        _, threads = self.decode_and_report(table_path, tmp_path, OPENBLAS_NUM_THREADS=None)
        assert threads == "1"

    def test_caller_setting_is_kept(self, table_path, tmp_path):
        setting, _ = self.decode_and_report(table_path, tmp_path, OPENBLAS_NUM_THREADS="2")
        assert setting == "2"

    # a numpy already imported has read its setting; changing it would tell
    # the caller's later subprocesses something the caller never chose
    def test_caller_with_numpy_imported_keeps_its_environment(self, table_path, tmp_path,
                                                               monkeypatch):
        import numpy  # noqa: F401

        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert main(["decode", "--model", str(table_path), "--conditions", "c1",
                     "--out", str(tmp_path / "story.json")]) == 0
        assert dict(os.environ) == before


class TestExitFreeze:
    """``main`` freezes the heap in an ``atexit`` handler, never while the caller runs."""

    # atexit runs handlers last in, first out, so the script's own handler,
    # registered before any main() call, reads the count after main's has run.
    # gc.freeze is wrapped to count how often it runs at exit: once, however
    # many times main() ran in the process
    @pytest.mark.parametrize("model, code", [("table.yaml", 0), ("ghost.yaml", 2)])
    def test_heap_frozen_once_at_exit(self, table_path, tmp_path, model, code):
        out = tmp_path / "story.json"
        argv = ["decode", "--model", str(tmp_path / model), "--conditions", "c1", "c2",
                "--out", str(out)]
        result = run_python(
            "import atexit, gc, sys\n"
            "from storybeam.cli import main\n"
            "freeze, runs = gc.freeze, []\n"
            "gc.freeze = lambda: (runs.append(1), freeze())[1]\n"
            "atexit.register(lambda: print('at exit', len(runs), gc.get_freeze_count() > 0))\n"
            f"codes = [main({argv!r}) for _ in range(3)]\n"
            "print('after main', gc.get_freeze_count())\n"
            "sys.exit(codes[0] if len(set(codes)) == 1 else 99)\n")
        assert result.returncode == code, result.stderr
        assert result.stdout.splitlines() == ["after main 0", "at exit 1 True"]
        assert out.exists() == (code == 0)


class TestEval:
    def decode_story(self, table_path, tmp_path, lam: str) -> Path:
        out = tmp_path / f"story_{lam}.json"
        assert main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "c2", "c3", "c4", "c5",
                     "--beam-width", "1", "--lambda", lam, "--max-len", "2",
                     "--out", str(out)]) == 0
        return out

    def test_repetitive_story_counted(self, table_path, tmp_path, capsys):
        story = self.decode_story(table_path, tmp_path, "0")
        assert main(["eval", str(story)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["repeated_segment_pairs"] == 10
        assert report["mean_pairwise_jaccard"] == 1.0

    def test_diversified_story_scores_lower(self, table_path, tmp_path, capsys):
        story = self.decode_story(table_path, tmp_path, "2")
        assert main(["eval", str(story)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["repeated_segment_pairs"] < 10
        assert report["mean_pairwise_jaccard"] < 1.0

    def test_leading_byte_order_mark_is_skipped(self, table_path, tmp_path, capsys):
        story = self.decode_story(table_path, tmp_path, "2")
        marked = tmp_path / "marked.json"
        marked.write_bytes(codecs.BOM_UTF8 + story.read_bytes())
        reports = []
        for path in (story, marked):
            assert main(["eval", str(path)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[1] == reports[0]

    def test_distinct_segments_report_zero_pairs(self, tmp_path, capsys):
        doc = {"segments": [{"tokens": ["a", "b"]}, {"tokens": ["c"]}],
               "story": "a b c"}
        path = tmp_path / "story.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["repeated_segment_pairs"] == 0

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        assert main(["eval", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"segments": [{"tokens": [1, 2]}]}),
                        encoding="utf-8")
        assert main(["eval", str(path)]) == 2

    def test_missing_story_file(self, tmp_path):
        assert main(["eval", str(tmp_path / "ghost.json")]) == 2

    def test_deeply_nested_story_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"segments":' + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
        result = run_python(
            "import sys\n"
            "from storybeam.cli import main\n"
            f"sys.exit(main(['eval', {str(path)!r}]))\n")
        assert result.returncode == 2, result.stderr
        assert "nested too deeply" in result.stderr


# what --help, decode --help and a usage error must not load: the parser
# needs only argparse and storybeam.config
STARTUP_ONLY = ("dataclasses", "inspect", "json", "pathlib", "storybeam.corpus",
                "storybeam.ngram", "storybeam.decoding", "numpy", "storybeam.metrics",
                "concurrent.futures")


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    # Each command imports what it runs, so --help and usage errors load
    # only argparse and storybeam.config, only decode loads numpy, and only
    # --jobs above 1 loads a thread pool. No command loads dataclasses; numpy
    # loads inspect, so only the rows without numpy can list inspect. Under
    # -S no site module loads pathlib first, so those rows see whether storybeam does.
    @pytest.mark.parametrize("flags, argv, code, absent, present", [
        ((), ["--help"], 0, STARTUP_ONLY, ()),
        ((), ["decode", "--help"], 0, STARTUP_ONLY, ()),
        ((), ["decode", "--model", "{model}"], 2, STARTUP_ONLY, ()),
        (("-S",), ["--help"], 0, STARTUP_ONLY, ()),
        (("-S",), ["decode", "--help"], 0, STARTUP_ONLY, ()),
        (("-S",), ["decode", "--model", "{model}"], 2, STARTUP_ONLY, ()),
        ((), ["train-lm", "{corpus}", "--out", "{tmp}/new.json"], 0,
         ("numpy", "dataclasses", "storybeam.decoding", "storybeam.metrics",
          "concurrent.futures"), ()),
        ((), ["eval", "{story}"], 0,
         ("numpy", "dataclasses", "inspect", "storybeam.decoding", "concurrent.futures"),
         ("storybeam.metrics",)),
        ((), ["decode", "--model", "{model}", "--conditions", "c1", "c2", "--out",
              "{tmp}/s.json"], 0, ("dataclasses", "storybeam.metrics", "concurrent.futures"),
         ("numpy",)),
        ((), ["decode", "--model", "{model}", "--batch", "{batch}", "--out", "{tmp}/stories"],
         0, ("dataclasses", "storybeam.metrics", "concurrent.futures"), ("numpy",)),
        ((), ["decode", "--model", "{model}", "--batch", "{batch}", "--jobs", "2", "--out",
              "{tmp}/stories"], 0, ("storybeam.metrics",), ("numpy", "concurrent.futures")),
    ], ids=["help", "decode-help", "usage-error", "help-no-site", "decode-help-no-site",
            "usage-error-no-site", "train-lm", "eval", "decode", "decode-batch",
            "decode-batch-jobs2"])
    def test_command_loads_only_what_it_runs(self, flags, argv, code, absent, present,
                                             corpus_path, tmp_path):
        paths = {"corpus": corpus_path, "model": tmp_path / "model.json", "tmp": tmp_path,
                 "story": tmp_path / "story.json", "batch": tmp_path / "b.txt"}
        assert main(["train-lm", str(corpus_path), "--out", str(paths["model"])]) == 0
        paths["story"].write_text('{"segments": [{"tokens": ["a", "b"]}, {"tokens": ["a"]}]}',
                                  encoding="utf-8")
        paths["batch"].write_text("c1 c2\n", encoding="utf-8")
        argv = [arg.format(**paths) for arg in argv]
        # a module that site or the interpreter loaded before storybeam is not counted
        result = run_python(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import storybeam\n"
            "from storybeam.cli import main\n"
            f"code = main({argv!r})\n"
            "new = sorted(set(sys.modules) - before)\n"
            "print()\n"
            "print(repr((code, new, sorted(sys.modules))))\n", *flags)
        assert result.returncode == 0, result.stderr
        exit_code, new, loaded = ast.literal_eval(result.stdout.splitlines()[-1])
        assert exit_code == code, result.stderr
        assert sorted(set(absent) & set(new)) == []
        assert sorted(set(present) - set(loaded)) == []

    def test_decode_help_offers_every_registered_penalty(self, capsys):
        assert main(["decode", "--help"]) == 0
        usage = capsys.readouterr().out
        offered = usage.split("--penalty {", 1)[1].split("}", 1)[0]
        assert offered.split(",") == sorted(diversity.PENALTIES)

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
