import dataclasses
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

import storybeam
from storybeam import ngram
from storybeam.config import _is_finite_number
from storybeam.corpus import (
    BOS_ID,
    EOS_ID,
    FIRST_GENERABLE_ID,
    PAD_ID,
    UNK_ID,
    Corpus,
    Vocabulary,
    build_vocabulary,
)
from storybeam.decoding import DecodeConfig, inter_sentence_dbs, story_to_json
from storybeam.diversity import zero_penalty
from storybeam.ngram import (
    MAX_ORDER,
    NGramModel,
    dump_ngram,
    load_ngram,
    ngram_from_dict,
    train_ngram,
)
from storybeam.scoring import load_scorer, load_table_scorer, table_from_dict

from conftest import make_table, random_table_scorer, run_python
from reference import (
    ValidatingScorer,
    dense_row,
    exhaustive_best,
    reference_dump_ngram,
    validate_step_scores,
)

needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")

YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.fixture(params=["pure", pytest.param("libyaml", marks=needs_libyaml)])
def yaml_loader(request, monkeypatch) -> str:
    """Make the YAML fallback of model loading use one PyYAML loader."""
    if request.param == "pure":  # the fallback takes libyaml's loader where it finds one
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


def spy_on_yaml_load(monkeypatch) -> list:
    """The loader class of each later ``yaml.load`` call, in order."""
    seen = []
    real_load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda text, Loader: seen.append(Loader)
                        or real_load(text, Loader=Loader))
    return seen


def test_yaml_fallback_defaults_to_the_fastest_loader(monkeypatch):
    seen = spy_on_yaml_load(monkeypatch)
    # a comment line is one the flat-table reader leaves to PyYAML
    load_table_scorer("# two tokens\nvocab: [a, <eos>]\ndefault_row: [0.5, 0.5]\n")
    assert seen == [getattr(yaml, "CSafeLoader", yaml.SafeLoader)]


def test_table_with_rows_goes_to_pyyaml(monkeypatch):
    seen = spy_on_yaml_load(monkeypatch)
    table = load_table_scorer("vocab: [a, <eos>]\ndefault_row: [0.5, 0.5]\n"
                              "rows:\n  - {context: [a], probs: [0.25, 0.75]}\n")
    assert seen == [getattr(yaml, "CSafeLoader", yaml.SafeLoader)]
    assert len(table.rules) == 1


def assert_yaml_reads_as_json(text: str) -> None:
    """A written model is JSON that every YAML loader reads to the same document."""
    doc = json.loads(text)
    for loader in YAML_LOADERS:
        assert yaml.load(text, Loader=loader) == doc


class TestTableScorer:
    def test_uniform_default_row(self, uniform_table):
        vocab = uniform_table.vocab
        scores = dense_row(uniform_table.score_step("img1", []))
        third = math.log(1 / 3)
        for tok in ("a", "b", "<eos>"):
            assert scores[vocab.token_to_id(tok)] == pytest.approx(third, abs=1e-12)
        assert scores[PAD_ID] == -np.inf
        assert scores[BOS_ID] == -np.inf
        assert scores[UNK_ID] == -np.inf

    def test_bitwise_deterministic(self, skewed_table):
        a = dense_row(skewed_table.score_step("img1", [4, 5]))
        b = dense_row(skewed_table.score_step("img1", [4, 5]))
        assert a.tobytes() == b.tobytes()

    def test_condition_row_overrides_default_only_for_that_condition(self):
        table = make_table(
            ["a", "b", "<eos>"], [0.5, 0.3, 0.2],
            rows=[{"condition": "img2", "probs": [0.1, 0.7, 0.2]}])
        vocab = table.vocab
        b = vocab.token_to_id("b")
        default = dense_row(table.score_step("img1", []))
        overridden = dense_row(table.score_step("img2", []))
        assert default[b] == pytest.approx(math.log(0.3))
        assert overridden[b] == pytest.approx(math.log(0.7))

    def test_context_suffix_pattern(self):
        table = make_table(
            ["a", "b", "<eos>"], [0.5, 0.3, 0.2],
            rows=[{"context": ["a"], "probs": [0.0, 0.0, 1.0]}])
        vocab = table.vocab
        a = vocab.token_to_id("a")
        after_a = dense_row(table.score_step("img1", [a]))
        assert after_a[EOS_ID] == pytest.approx(0.0)
        assert after_a[a] == -np.inf
        fresh = dense_row(table.score_step("img1", []))
        assert fresh[a] == pytest.approx(math.log(0.5))

    def test_first_matching_row_wins(self):
        table = make_table(
            ["a", "b", "<eos>"], [0.5, 0.3, 0.2],
            rows=[{"context": ["a"], "probs": [0.0, 0.0, 1.0]},
                  {"context": ["a"], "probs": [1.0, 0.0, 0.0]}])
        a = table.vocab.token_to_id("a")
        assert dense_row(table.score_step("x", [a]))[EOS_ID] == pytest.approx(0.0)

    def test_prefix_with_eos_rejected(self, skewed_table):
        with pytest.raises(ValueError, match="EOS"):
            skewed_table.score_step("img1", [EOS_ID])

    def test_empty_condition_rejected(self, skewed_table):
        with pytest.raises(ValueError, match="condition"):
            skewed_table.score_step("", [])

    def test_returned_rows_are_read_only(self, skewed_table):
        scores = skewed_table.score_step("img1", [])
        before = dense_row(scores).tobytes()
        for items in (scores.ids, scores.values):
            with pytest.raises(TypeError):
                items[0] = EOS_ID
        for name, value in (("floor", 0.0), ("ids", [EOS_ID]), ("values", [0.0])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(scores, name, value)
        assert dense_row(skewed_table.score_step("img1", [])).tobytes() == before


class TestTableLoading:
    def test_loads_yaml_document(self):
        table = load_table_scorer(
            "vocab: [a, b, <eos>]\ndefault_row: [0.5, 0.3, 0.2]\n")
        assert table.vocab.non_special_tokens == ("a", "b")

    def test_row_sum_off_by_too_much_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            make_table(["a", "b", "<eos>"], [0.5, 0.2, 0.2])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_table(["a", "b", "<eos>"], [0.7, -0.2, 0.5])

    def test_unknown_context_token_rejected(self):
        with pytest.raises(ValueError, match="unknown context token"):
            make_table(["a", "<eos>"], [0.8, 0.2],
                       rows=[{"context": ["zebra"], "probs": [0.5, 0.5]}])

    # a prefix never holds them: BOS is implicit and EOS ends a hypothesis
    @pytest.mark.parametrize("token", ["<pad>", "<bos>", "<eos>"])
    def test_special_context_token_rejected(self, token):
        with pytest.raises(ValueError,
                           match=f"rows\\[0\\]: context token '{token}' never occurs in a prefix"):
            make_table(["a", "<eos>"], [0.8, 0.2],
                       rows=[{"context": ["a", token], "probs": [0.5, 0.5]}])

    def test_unk_context_token_matches(self):
        table = make_table(["a", "<unk>", "<eos>"], [0.5, 0.5, 0.0],
                           rows=[{"context": ["<unk>"], "probs": [0.0, 0.0, 1.0]}])
        assert table.score_step("c1", (UNK_ID,)) is table.rules[0].row

    def test_pad_bos_cannot_carry_probability(self):
        with pytest.raises(ValueError, match="never generated"):
            make_table(["a", "<bos>"], [0.5, 0.5])

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="probabilities"):
            make_table(["a", "b", "<eos>"], [0.5, 0.5])

    # nan passed the row-sum check, as abs(nan - 1) > tolerance is False
    @pytest.mark.parametrize("default_row", [
        "[true, false]", "[.nan, 1.0]", "[.inf, 1.0]", "[1" + "0" * 400 + ", 0]"],
        ids=["bool", "nan", "inf", "int-beyond-float"])
    def test_non_finite_or_bool_probability_rejected(self, default_row):
        with pytest.raises(ValueError, match="finite numbers"):
            load_table_scorer(f"vocab: [a, <eos>]\ndefault_row: {default_row}\n")

    @pytest.mark.parametrize("rows, match", [
        ("5", "rows must be a list"),
        ("[{context: 5, probs: [0.5, 0.5]}]", "context must be a list"),
        ("[{context: a, probs: [0.5, 0.5]}]", "context must be a list"),
    ], ids=["rows-int", "context-int", "context-string"])
    def test_malformed_rows_rejected(self, rows, match):
        with pytest.raises(ValueError, match=match):
            load_table_scorer(f"vocab: [a, <eos>]\ndefault_row: [0.5, 0.5]\nrows: {rows}\n")

    # a lone surrogate fails libyaml's UTF-8 encoding, not a YAML check, and
    # json.loads reads the escape without complaint
    @pytest.mark.parametrize("text", [
        "vocab: [a\n  broken", "a: \ud800\n", '{"vocab": ["\\ud800"], "default_row": [1]}'],
        ids=["unclosed", "surrogate", "surrogate-escape"])
    def test_malformed_yaml_rejected(self, yaml_loader, text):
        with pytest.raises(ValueError, match="malformed"):
            load_table_scorer(text)

    # each kind of nesting mark opens one level; the top-level mapping is one
    @pytest.mark.parametrize("nested", [
        lambda d: "default_row:\n" + "- " * (d - 1) + "x\n",
        lambda d: ("default_row:\n" + "".join("  " * i + "-\n" for i in range(d - 1))
                   + "  " * (d - 1) + "x\n"),
        lambda d: "default_row: " + "[" * (d - 1) + "x" + "]" * (d - 1) + "\n",
        lambda d: "default_row: " + "{a: " * (d - 1) + "x" + "}" * (d - 1) + "\n",
        lambda d: "? " * d + "x\n",
    ], ids=["dash-space", "dash-newline", "flow-sequence", "flow-mapping", "key"])
    def test_nesting_limit_is_exact(self, yaml_loader, nested):
        def error(text):
            with pytest.raises(ValueError) as caught:
                load_table_scorer(text)
            return str(caught.value)

        assert "nested" not in error(nested(ngram.MAX_YAML_DEPTH))
        assert "nested deeper than 100 levels" in error(nested(ngram.MAX_YAML_DEPTH + 1))

    def test_surrogate_pair_escape_loads(self):
        table = load_table_scorer(
            '{"vocab": ["\\ud83d\\ude00", "<eos>"], "default_row": [0.5, 0.5]}')
        assert table.vocab.non_special_tokens == ("\U0001F600",)

    @pytest.mark.parametrize("text", [
        "{vocab: [a, <eos>], default_row: [0.5, 0.5]}",
        "{vocab: [a, <eos>],\n default_row: [0.5, 0.5]}\n",
    ], ids=["one-line", "two-lines"])
    def test_flow_yaml_mapping_loads(self, yaml_loader, text):
        assert load_table_scorer(text).vocab.non_special_tokens == ("a",)

    # ints and floats take one array conversion, any other entry one
    # _is_finite_number call each: both accept what that call accepts
    @pytest.mark.parametrize("probs, accepted", [
        ([0.25, 0.75], True),
        ([1, 0], True),
        ([np.float64(0.25), np.float64(0.75)], True),
        ([np.float64(0.25), 0.75], True),
        ([0.5, True], False),
        ([True, False], False),
        ([0.5, "0.5"], False),
        ([0.5, None], False),
        ([0.5, [0.5]], False),
        ([10 ** 400, 0], False),
        ([0.5, 10 ** 400], False),
        ([math.nan, 1.0], False),
        ([math.inf, 0.0], False),
        ([np.float64(math.nan), 1.0], False),
        ([np.float64(math.inf), np.float64(0.0)], False),
        ([np.int64(1), 0], False),
        ([np.float32(0.5), 0.5], False),
        ((0.25, 0.75), False),
        (np.array([0.25, 0.75]), False),
        ("[0.25, 0.75]", False),
    ], ids=["floats", "ints", "float64s", "float64-and-float", "bool",
            "bools", "string", "none", "nested", "int-beyond-float", "int-beyond-float-last",
            "nan", "inf", "float64-nan", "float64-inf", "int64", "float32", "tuple",
            "array", "text"])
    def test_probability_entries_are_checked_alike_on_both_paths(self, probs, accepted):
        assert accepted == (isinstance(probs, list) and all(map(_is_finite_number, probs)))
        for label, doc in (
                ("default_row", {"vocab": ["a", "<eos>"], "default_row": probs}),
                (r"rows\[0\]", {"vocab": ["a", "<eos>"], "default_row": [0.5, 0.5],
                                 "rows": [{"probs": probs}]})):
            if accepted:
                table = table_from_dict(doc)
                row = table.rules[0].row if table.rules else table.default_row
                want = make_table(["a", "<eos>"], [float(p) for p in probs]).default_row
                assert (row.floor, row.ids, row.values) == (want.floor, want.ids, want.values)
            else:
                with pytest.raises(ValueError,
                                   match=f"^{label}: probabilities must be a list of finite "
                                         "numbers$"):
                    table_from_dict(doc)

    @pytest.mark.parametrize("probs", [[0.5, 0.25, 0.25], [np.float64(0.5)] * 3, [1]],
                             ids=["floats", "float64s", "int"])
    def test_entry_count_is_checked_on_both_paths(self, probs):
        with pytest.raises(ValueError, match=f"^default_row: got {len(probs)} probabilities "
                                             "for 2 vocab tokens$"):
            table_from_dict({"vocab": ["a", "<eos>"], "default_row": probs})

    def test_near_one_row_sum_is_renormalized(self):
        # within the 1e-6 acceptance window; scores must still be exact
        table = make_table(["a", "<eos>"], [0.6000001, 0.4])
        scores = dense_row(table.score_step("c", []))
        total = math.exp(scores[table.vocab.token_to_id("a")]) + math.exp(scores[EOS_ID])
        assert total == pytest.approx(1.0, abs=1e-12)


# b with one of log(b / (b + (1 - b))) and log((1 - b) / (b + (1 - b))) one ulp
# apart between numpy 2.4's AVX-512 (X86_V4) loop and libm's log
ULP_SPLIT = [0.0318, 0.0821, 0.1521, 0.3981, 0.4751, 0.662, 0.8479, 0.9466, 0.9753, 0.9968]


def two_token_table_text(b: float) -> str:
    return f"vocab: [a, <eos>]\ndefault_row: [{b!r}, {1 - b!r}]\n"


def _cpu_has_x86_v4() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x names no X86_V4 group
        return False
    return bool(__cpu_features__.get("X86_V4"))


class TestLogRows:
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=8))
    def test_table_rows_are_libm_logs_of_the_normalized_probabilities(self, weights):
        assume(sum(weights) > 0)
        tokens = [f"t{i}" for i in range(len(weights))]
        probs = np.asarray(weights) / sum(weights)
        table = make_table(tokens, probs.tolist())
        probs = probs / float(probs.sum())  # the table's renormalization
        scores = dense_row(table.score_step("c", []))
        want = [math.log(p) if p > 0 else -math.inf for p in probs.tolist()]
        got = [float(scores[table.vocab.token_to_id(t)]) for t in tokens]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        unlisted = [i for i in range(len(table.vocab))
                    if table.vocab.id_to_token(i) not in tokens]
        assert (scores[unlisted] == -np.inf).all()

    @pytest.mark.parametrize("b", ULP_SPLIT)
    def test_table_rows_are_libm_logs_where_numpy_simd_differs(self, b):
        table = load_table_scorer(two_token_table_text(b))
        scores = dense_row(table.score_step("c", []))[[table.vocab.token_to_id("a"), EOS_ID]]
        probs = np.array([b, 1 - b]) / (b + (1 - b))
        assert scores.tolist() == [math.log(p) for p in probs.tolist()]

    # the same rows with numpy's AVX-512 loops and without; libm's log is the
    # only log either run takes. glibc's FMA and non-FMA builds of log are
    # not compared here.
    @pytest.mark.skipif(not _cpu_has_x86_v4(),
                        reason="CPU lacks X86_V4: numpy has no AVX-512 log loop to compare")
    def test_rows_do_not_depend_on_numpy_simd_loops(self):
        script = (
            "from storybeam.corpus import EOS_ID, Vocabulary\n"
            "from storybeam.ngram import NGramModel\n"
            "from storybeam.scoring import load_table_scorer\n"
            "from reference import dense_row\n"
            f"for text in {[two_token_table_text(b) for b in ULP_SPLIT]!r}:\n"
            "    print(dense_row(load_table_scorer(text).score_step('c', [])).tobytes().hex())\n"
            "model = NGramModel(1, 0.5, Vocabulary(['a']), {(): {4: 54, EOS_ID: 1}})\n"
            "print(dense_row(model.score_step('c', [])).tobytes().hex())\n")
        # the child imports dense_row from the reference module beside this file
        path = f"{Path(storybeam.__file__).parents[1]}{os.pathsep}{Path(__file__).parent}"
        native = run_python(script, PYTHONPATH=path)
        scalar = run_python(script, PYTHONPATH=path,
                            NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
        assert native.returncode == 0, native.stderr
        assert scalar.returncode == 0, scalar.stderr
        assert native.stdout.splitlines() == scalar.stdout.splitlines()
        assert len(native.stdout.splitlines()) == len(ULP_SPLIT) + 1


def same_document(a, b) -> bool:
    """Equal with identical types throughout, floats to the bit (so -0.0 is not 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return same_document(list(a), list(b)) and all(same_document(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_document, a, b))
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


def assert_flat_reader_agrees_with_pyyaml(text: str) -> dict | None:
    """The reader returns None or exactly what each PyYAML safe loader reads."""
    doc = ngram._parse_flat_table(text)
    for loader in YAML_LOADERS:
        try:
            expected = yaml.load(text, Loader=loader)
        except (yaml.YAMLError, ValueError):  # UnicodeEncodeError and int digits included
            assert doc is None, (text, loader)
            continue
        assert doc is None or same_document(doc, expected), (text, loader, doc, expected)
    return doc


# plain scalars whose YAML 1.1 type is not what they look like, and near misses
YAML_TRAPS = [
    "1e-06", "1E+6", "1.0e6", "1.0e-06", ".inf", "-.inf", "+.INF", ".nan", ".NaN", "~",
    "null", "Null", "NULL", "nULL", "yes", "Yes", "no", "NO", "on", "On", "off", "OFF",
    "true", "False", "y", "n", "0x1F", "-0x1f", "0o7", "0b101", "010", "08", "-010",
    "00.5", "1_000", "1_0.5", "+.5", ".5", "-.5", "1.", "-1.", "1.e+5", "+1", "-0", "+0",
    "-0.0", "+0.0", "0.0", "1:30", "-1:30", "1:30.5", "190:20:30", "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "<<", "=", "<", "<eos>", "<<a", "-", "-a", "a-",
    "a:", "a:b", "a#b", "a #b", "#a", "'a'", '"a"', "&a", "*a", "!!str a", "!a", "%a", "@a",
    "`a", "|", ">", "?", "?a", "a b", "[a]", "[]", "{a: b}", "{}", "a,", "1" * 1100,
    "9" * 5000, "a" * 1100, "1" + "0" * 400 + ".5",
]
_NEAR_MISS_CHARS = [
    "#", " #", "\t", "\r", "\r\n", "\ufeff", "\x85", "\ud800", " ", "\x00", "\x0c",
    "'", '"', "&", "*", "!", "{", "}", "[", "]", ":", ": ", "\n", "\n\n", "-", ",",
    "\xe9", "%", "---\n", "...\n", "? ", "- ",
]
_WORDS = st.from_regex(r"[A-Za-z<][A-Za-z0-9_<>.-]{0,6}", fullmatch=True)
_SCALARS = st.one_of(
    st.sampled_from(YAML_TRAPS),
    _WORDS,
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.floats(allow_nan=False).map(repr),  # 1e-06, inf and -0.0 among them
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17e}".format),
    st.lists(st.sampled_from(_NEAR_MISS_CHARS + list("aZ0.+_<>~=")), max_size=4).map("".join),
)
_CERTAIN_WORDS = _WORDS.filter(lambda word: word not in ngram._YAML_WORDS)
_KEYS = st.one_of(
    _WORDS, st.sampled_from(["vocab", "default_row", "rows", "yes", "null", "<<", "1",
                             "a" * 1023, "a" * 1024, "a" * 1025]))


@st.composite
def flat_documents(draw, lists=st.lists(_SCALARS, max_size=6), keys=_KEYS,
                   near_misses=True) -> str:
    """Text shaped like a flat table, some of it mutated into a near miss."""
    lines = []
    for key in draw(st.lists(keys, max_size=3)):
        items = draw(lists)
        comma = draw(st.sampled_from([", ", ",", " , "]))
        left, right = draw(st.sampled_from([("[", "]"), ("[ ", " ]")]))
        lines.append(f"{key}: {left}{comma.join(items)}{right}\n")
    text = "".join(lines)
    if near_misses and text:
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["none", "insert", "duplicate-line", "no-final-newline"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(_NEAR_MISS_CHARS)) + text[at:]
        elif edit == "duplicate-line":
            text += lines[0]
        elif edit == "no-final-newline":
            text = text[:-1]
    return text


class TestFlatTableReader:
    """``ngram._parse_flat_table`` against PyYAML's safe loaders.

    The reader may decline any document, but a document it returns must be
    the one SafeLoader and CSafeLoader build, type for type.
    """

    @settings(max_examples=400, deadline=None)
    @given(flat_documents())
    def test_returns_none_or_the_loaders_document(self, text):
        assert_flat_reader_agrees_with_pyyaml(text)

    @pytest.mark.parametrize("trap", YAML_TRAPS,
                             ids=lambda t: t if len(t) <= 30 else f"{t[:3]}..{len(t)}-chars")
    def test_yaml_traps(self, trap):
        for text in (f"default_row: [{trap}]\n", f"default_row: [0.5, {trap}, a]\n",
                     f"vocab: [a, {trap}]\n", f"{trap}: [a]\n"):
            assert_flat_reader_agrees_with_pyyaml(text)

    @pytest.mark.parametrize("text", [
        "vocab: []\n", "vocab: [ ]\n", "vocab: [a,]\n", "vocab: [a,,b]\n", "vocab:\t[a]\n",
        "vocab: [a,\tb]\n", "vocab: [a\x85b]\n", "vocab: [a\ud800]\n", "vocab: [a]\n\n", "",
        "\n", "vocab: [a]  \n", "vocab:  [a]\n", " vocab: [a]\n", "vocab: [a] # c\n",
        "vocab: [a]\n  - b\n", "vocab: [a,\n  b]\n", "---\nvocab: [a]\n",
        "vocab: [a]\n...\n", "vocab: a\n", "? vocab\n: [a]\n",
    ])
    def test_named_near_misses(self, text):
        assert_flat_reader_agrees_with_pyyaml(text)

    # the documents the reader must leave to PyYAML even where it would agree
    @pytest.mark.parametrize("text", [
        "# c\nvocab: [a]\n", "vocab: ['a']\n", 'vocab: ["a"]\n', "vocab: [&x a]\n",
        "vocab: [!!str a]\n", "vocab: [[a]]\n", "vocab: [a]\nrows: []\nrows: []\n",
        "vocab: [a]\nvocab: [b]\n", "vocab: [a]\r\n", "\ufeffvocab: [a]\n", "vocab: [a]",
        "vocab: [\xe9]\n", "vocab: [a]\nrows:\n  - {probs: [1.0]}\n",
    ], ids=["comment", "single-quote", "double-quote", "anchor", "tag", "nested",
            "repeated-rows", "repeated-key", "crlf", "bom", "no-final-newline", "non-ascii",
            "rows"])
    def test_declines(self, text):
        assert ngram._parse_flat_table(text) is None

    def test_int_past_the_digit_limit_is_left_to_pyyaml(self):
        text = "default_row: [" + "1" * (sys.get_int_max_str_digits() + 1) + "]\n"
        assert ngram._parse_flat_table(text) is None
        with pytest.raises(ValueError, match="digits"):
            load_table_scorer(text)

    # a reader that declined everything would pass the tests above
    @settings(max_examples=200, deadline=None)
    @given(flat_documents(
        lists=st.one_of(
            st.lists(_CERTAIN_WORDS),
            st.lists(st.one_of(st.integers(-10 ** 20, 10 ** 20).map(str),
                               st.floats(allow_nan=False, allow_infinity=False)
                               .map("{:.17e}".format)))),
        keys=_CERTAIN_WORDS, near_misses=False))
    def test_takes_every_flat_table_of_certain_scalars(self, text):
        keys = [line.partition(":")[0] for line in text.splitlines()]
        assume(keys and len(set(keys)) == len(keys))
        assert assert_flat_reader_agrees_with_pyyaml(text) is not None

    def test_takes_the_benchmark_shape(self):
        tokens = [f"t{i:04d}" for i in range(50)] + ["<eos>"]
        probs = [f"{0.0199:.17e}"] * 50 + [f"{0.005:.17e}"]
        text = f"vocab: [{', '.join(tokens)}]\ndefault_row: [{', '.join(probs)}]\n"
        assert assert_flat_reader_agrees_with_pyyaml(text) == {
            "vocab": tokens, "default_row": [float(p) for p in probs]}


# tokens whose string order is not their id order: prefixes, case, accents,
# astral characters, the specials' spellings
SORT_TOKENS = (
    st.sampled_from(["a", "ab", "abc", "A", "Ab", "b", "B", "é", "e", "éa", "日", "日本",
                     "\U0001F600", "a\x85", "<unk>", "<eos>"])
    | st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3))
# characters JSON escapes, and those it leaves raw that YAML 1.1 rejects or folds
ESCAPED_TOKENS = st.sampled_from(
    ["\x00", "\x1f", '"', "\\", "\x7f", "\x85", "\x9f", "\xa0", "\u2028", "\ufffe", "\uffff",
     "\U0001F680"])


@st.composite
def trained_models(draw, tokens, order: int, alpha: float) -> NGramModel:
    """A model trained on up to five sentences over up to eight distinct tokens."""
    pool = draw(st.lists(tokens, min_size=1, max_size=8, unique=True))
    sentences = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=6),
                              min_size=1, max_size=5))
    corpus = Corpus(sentences=tuple(tuple(s) for s in sentences))
    return train_ngram(corpus, build_vocabulary(corpus, min_count=1), order, alpha=alpha)


def tiny_corpus(*lines: str) -> Corpus:
    return Corpus.from_text("\n".join(lines))


class TestNGram:
    def test_unigram_counts_dominate_at_small_alpha(self):
        corpus = tiny_corpus("a a a b")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=1, alpha=1e-9)
        scores = dense_row(model.score_step("any", []))
        assert math.exp(scores[vocab.token_to_id("a")]) == pytest.approx(3 / 5, abs=1e-6)
        assert math.exp(scores[vocab.token_to_id("b")]) == pytest.approx(1 / 5, abs=1e-6)
        assert math.exp(scores[EOS_ID]) == pytest.approx(1 / 5, abs=1e-6)

    def test_laplace_hand_computed_value(self):
        # corpus {"a"}: count(a)=1, count(EOS)=1, total=2, event space {a, EOS, UNK}
        corpus = tiny_corpus("a")
        vocab = build_vocabulary(corpus, min_count=1)
        assert len(vocab) == 5
        model = train_ngram(corpus, vocab, order=1, alpha=1.0)
        scores = dense_row(model.score_step("any", []))
        assert math.exp(scores[vocab.token_to_id("a")]) == pytest.approx(0.4, abs=1e-12)
        assert math.exp(scores[EOS_ID]) == pytest.approx(0.4, abs=1e-12)
        assert math.exp(scores[UNK_ID]) == pytest.approx(0.2, abs=1e-12)

    def test_unseen_context_is_uniform(self):
        corpus = tiny_corpus("a b", "b a")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=3, alpha=0.5)
        unk_context = [vocab.token_to_id("a"), vocab.token_to_id("a")]
        assert model.totals.get(tuple(unk_context), 0) == 0
        scores = dense_row(model.score_step("any", unk_context))
        generable = scores[2:]
        assert np.allclose(generable, generable[0])

    def test_kl_to_uniform_shrinks_with_alpha(self):
        corpus = tiny_corpus("a a a a b", "a b c")
        vocab = build_vocabulary(corpus, min_count=1)
        uniform = 1.0 / (len(vocab) - 2)

        def kl(alpha: float) -> float:
            scores = dense_row(train_ngram(corpus, vocab, 1, alpha).score_step("x", []))
            probs = np.exp(scores[2:])
            return float(np.sum(probs * np.log(probs / uniform)))

        divergences = [kl(a) for a in (0.1, 1.0, 10.0)]
        assert divergences[0] > divergences[1] > divergences[2]

    def test_condition_ignored(self):
        corpus = tiny_corpus("a b a")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=2, alpha=1.0)
        a = [vocab.token_to_id("a")]
        assert model.score_step("img1", a) is model.score_step("img2", a)

    def test_invalid_order_and_alpha(self):
        corpus = tiny_corpus("a")
        vocab = build_vocabulary(corpus, min_count=1)
        for order in (0, MAX_ORDER + 1):
            with pytest.raises(ValueError, match="order"):
                train_ngram(corpus, vocab, order=order, alpha=1.0)
        # inf and an alpha whose alpha * (V - 2) overflows would score nan or -inf
        for alpha in (0.0, math.inf, 1e308):
            with pytest.raises(ValueError, match="alpha"):
                train_ngram(corpus, vocab, order=1, alpha=alpha)

    # train-lm --alpha 0 counted a 100000-line corpus (1.9 s) before rejecting alpha
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan, True, 1e308])
    def test_bad_alpha_is_rejected_before_the_corpus_is_read(self, alpha):
        vocab = build_vocabulary(tiny_corpus("a b"), min_count=1)

        class UnreadCorpus:
            def __iter__(self):
                pytest.fail("train_ngram read the corpus before checking alpha")

        with pytest.raises(ValueError, match="alpha"):
            train_ngram(UnreadCorpus(), vocab, order=2, alpha=alpha)

    @pytest.mark.parametrize("kwargs, match", [
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": -0.5}, "alpha"),
        ({"alpha": True}, "alpha"),
        ({"alpha": math.nan}, "alpha"),
        ({"counts": {(4, 4): {4: 1}}}, "context"),
        ({"counts": {(4,): {PAD_ID: 1}}}, "PAD, BOS"),
        ({"counts": {(4,): {BOS_ID: 1}}}, "PAD, BOS"),
        ({"counts": {(4,): {4: -1}}}, "non-negative integer"),
        ({"counts": {(4,): {4: True}}}, "non-negative integer"),
    ], ids=["alpha-zero", "alpha-negative", "alpha-bool", "alpha-nan", "context-length",
            "pad-target", "bos-target", "negative-count", "bool-count"])
    def test_direct_construction_rejects_invalid_values(self, kwargs, match):
        vocab = build_vocabulary(tiny_corpus("a b"), min_count=1)
        with pytest.raises(ValueError, match=match):
            NGramModel(**{"order": 2, "alpha": 1.0, "vocab": vocab, **kwargs})

    def test_totals_are_derived_from_counts(self):
        vocab = build_vocabulary(tiny_corpus("a b"), min_count=1)
        model = NGramModel(order=2, alpha=1, vocab=vocab, counts={(BOS_ID,): {4: 3, 5: 1}})
        assert model.totals == {(BOS_ID,): 4} and model.alpha == 1.0
        validate_step_scores(model.score_step("x", []), len(vocab))

    def test_the_model_keeps_its_own_counts(self):
        vocab = build_vocabulary(tiny_corpus("a b"), min_count=1)
        counts = {(BOS_ID,): {4: 1, 5: 1}}
        model = NGramModel(order=2, alpha=1.0, vocab=vocab, counts=counts)
        # a count the checks reject, a counted BOS and a new context, all after construction
        counts[(BOS_ID,)][4] = -5
        counts[(BOS_ID,)][BOS_ID] = 3
        counts[(4,)] = {5: 1}
        untouched = NGramModel(order=2, alpha=1.0, vocab=vocab, counts={(BOS_ID,): {4: 1, 5: 1}})
        assert model.counts == {(BOS_ID,): {4: 1, 5: 1}}
        assert model.totals == {(BOS_ID,): 2}
        for prefix in ([], [4]):
            row, want = model.score_step("x", prefix), untouched.score_step("x", prefix)
            assert (row.floor, row.ids, row.values) == (want.floor, want.ids, want.values)
        assert dump_ngram(model) == dump_ngram(untouched)
        assert load_ngram(dump_ngram(model)) == untouched
        validate_step_scores(model.score_step("x", []), len(vocab))

    def test_a_bucket_must_be_a_mapping(self):
        # the copy goes through ``items()``, as the checks did before it
        vocab = build_vocabulary(tiny_corpus("a b"), min_count=1)
        with pytest.raises(AttributeError, match="items"):
            NGramModel(order=2, alpha=1.0, vocab=vocab, counts={(4,): [(5, 1)]})
        model = NGramModel(order=2, alpha=1.0, vocab=vocab,
                           counts={(4,): MappingProxyType({5: 2})})
        assert type(model.counts[(4,)]) is dict and model.counts == {(4,): {5: 2}}

    # a corpus word spelled <pad> or <bos> must not count toward those ids,
    # which score_step has no slot for
    @given(st.integers(min_value=1, max_value=3),
           st.lists(st.lists(st.sampled_from(["a", "b", "<pad>", "<bos>", "<eos>", "<unk>"]),
                             min_size=1, max_size=5), min_size=1, max_size=4))
    def test_any_corpus_words_give_valid_rows(self, order, sentences):
        corpus = Corpus(sentences=tuple(tuple(s) for s in sentences))
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=order, alpha=0.5)
        assert all(PAD_ID not in bucket and BOS_ID not in bucket
                   for bucket in model.counts.values())
        # score_step never sees a prefix holding EOS, and no context holds PAD
        prefixes = [list(c) for c in model.counts if EOS_ID not in c]
        if order > 1:
            assert (PAD_ID,) * (order - 1) not in model.counts
            prefixes.append([PAD_ID] * (order - 1))
        for prefix in prefixes:
            validate_step_scores(model.score_step("x", prefix), len(vocab))

    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_scores_depend_only_on_context_window(self, order, data):
        corpus = tiny_corpus("a b a c", "b b a", "c a b")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=order, alpha=0.7)
        ids = [vocab.token_to_id(t) for t in ("a", "b", "c")]
        tail = data.draw(st.lists(st.sampled_from(ids), min_size=order - 1,
                                  max_size=order - 1))
        head_a = data.draw(st.lists(st.sampled_from(ids), max_size=4))
        head_b = data.draw(st.lists(st.sampled_from(ids), max_size=4))
        one = dense_row(model.score_step("x", head_a + tail))
        other = dense_row(model.score_step("x", head_b + tail))
        assert one.tobytes() == other.tobytes()

    def test_step_scores_contract_holds(self):
        corpus = tiny_corpus("a b c a", "b c", "a a")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=2, alpha=0.3)
        a = vocab.token_to_id("a")
        for prefix in ([], [a], [a, a]):
            validate_step_scores(model.score_step("x", prefix), len(vocab))


class TestNGramSerialization:
    def test_round_trip_scores_and_bytes(self, yaml_loader):
        corpus = tiny_corpus("the cat sat", "the cat ran", "a cat")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=2, alpha=0.5)
        text = dump_ngram(model)
        loaded = load_ngram(text)
        assert dump_ngram(loaded) == text
        the = vocab.token_to_id("the")
        for prefix in ([], [the]):
            assert (dense_row(loaded.score_step("x", prefix)).tobytes()
                    == dense_row(model.score_step("x", prefix)).tobytes())

    def test_loader_dispatches_on_document_kind(self, yaml_loader):
        corpus = tiny_corpus("a b")
        vocab = build_vocabulary(corpus, min_count=1)
        ngram_text = dump_ngram(train_ngram(corpus, vocab, 1, 1.0))
        assert isinstance(load_scorer(ngram_text), NGramModel)
        table_text = "vocab: [a, <eos>]\ndefault_row: [0.5, 0.5]\n"
        assert load_scorer(table_text).vocab.non_special_tokens == ("a",)
        with pytest.raises(ValueError, match="neither"):
            load_scorer("foo: bar\n")

    def test_non_ascii_model_written_raw_and_read_alike_as_yaml(self):
        corpus = tiny_corpus("the café sat", "日本 the cat", "café 日本 ran")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=2, alpha=0.5)
        text = dump_ngram(model)
        assert text.startswith("{") and "日本" in text
        assert_yaml_reads_as_json(text)
        # a YAML-only reader gets the same model from the same text
        cafe = vocab.token_to_id("café")
        for loaded in [load_ngram(text)] + [ngram_from_dict(yaml.load(text, Loader=loader))
                                            for loader in YAML_LOADERS]:
            assert loaded.vocab == vocab
            for prefix in ([], [cafe]):
                assert (dense_row(loaded.score_step("x", prefix)).tobytes()
                        == dense_row(model.score_step("x", prefix)).tobytes())

    # both YAML readers fold a raw U+0085 into a space, so it is escaped
    def test_next_line_token_round_trips(self):
        corpus = Corpus(sentences=(("a\x85b", "c"), ("c",)))
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=2, alpha=1.0)
        text = dump_ngram(model)
        assert "\x85" not in text and '"a\\u0085b"' in text
        assert_yaml_reads_as_json(text)
        loaded = load_ngram(text)
        assert loaded.vocab == vocab
        assert loaded.counts == model.counts
        assert dump_ngram(loaded) == text

    def test_astral_token_written_raw_and_loads_under_both_loaders(self):
        corpus = tiny_corpus("\U0001F600 cat", "cat \U0001F600 \U0001F600")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=2, alpha=0.5)
        text = dump_ngram(model)
        assert '"\U0001F600"' in text
        assert "\\U" not in text and "\\u" not in text
        assert_yaml_reads_as_json(text)
        smile = vocab.token_to_id("\U0001F600")
        for loaded in [load_ngram(text)] + [ngram_from_dict(yaml.load(text, Loader=loader))
                                            for loader in YAML_LOADERS]:
            assert loaded.vocab == vocab
            for prefix in ([], [smile]):
                assert (dense_row(loaded.score_step("x", prefix)).tobytes()
                        == dense_row(model.score_step("x", prefix)).tobytes())
        assert dump_ngram(load_ngram(text)) == text

    # a library-built corpus may put any character but a surrogate in a token,
    # including ones the CLI's str.split never leaves there
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1),
                    min_size=1, max_size=6, unique=True))
    def test_any_tokens_written_as_yaml_readable_json(self, tokens):
        tokens = [t for t in tokens if t not in ("<pad>", "<bos>", "<eos>", "<unk>")]
        corpus = Corpus(sentences=(tuple(tokens) or ("a",),))
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=2, alpha=0.5)
        text = dump_ngram(model)
        assert_yaml_reads_as_json(text)
        loaded = load_ngram(text)
        assert loaded.vocab == vocab and loaded.counts == model.counts
        assert dump_ngram(loaded) == text

    # dump_ngram sorts by one integer per entry; this is the order it stands for
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_entries_sort_by_context_and_token_strings(self, order, data):
        model = data.draw(trained_models(SORT_TOKENS, order, alpha=0.5))
        tokens = model.vocab.tokens
        triples = [[[tokens[i] for i in context], tokens[token], count]
                   for context, bucket in model.counts.items()
                   for token, count in bucket.items()]
        assert (json.loads(dump_ngram(model))["counts"]
                == sorted(triples, key=lambda t: (t[0], t[1])))
        text = dump_ngram(model)
        assert dump_ngram(load_ngram(text)) == text

    # the writer that built the document as lists for json.dumps; the alphas
    # cover _float_literal's ".0" (5e-324, 1e-05, 1e+20) and plain reprs
    @given(st.integers(min_value=1, max_value=4),
           st.sampled_from([5e-324, 1e-05, 0.01, 1.0, 1e+20]), st.data())
    def test_writes_the_reference_writers_bytes(self, order, alpha, data):
        model = data.draw(trained_models(SORT_TOKENS | ESCAPED_TOKENS, order, alpha))
        assert dump_ngram(model) == reference_dump_ngram(model)

    @given(st.integers(min_value=1, max_value=3),
           st.lists(st.lists(st.sampled_from(["a", "b", "c", "<unk>"]), min_size=1,
                             max_size=6), min_size=1, max_size=5))
    def test_written_model_never_repeats_a_pair(self, order, sentences):
        corpus = Corpus(sentences=tuple(tuple(s) for s in sentences))
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=order, alpha=0.5)
        text = dump_ngram(model)
        pairs = [(tuple(context), token) for context, token, _ in json.loads(text)["counts"]]
        assert len(set(pairs)) == len(pairs)
        assert load_ngram(text).counts == model.counts

    # json.dumps writes 1e-05 and 1e+20, which YAML 1.1 reads as strings
    @pytest.mark.parametrize("alpha", [1e-05, 0.01, 1e+20])
    def test_alpha_reads_as_the_same_float_under_yaml(self, alpha):
        corpus = tiny_corpus("a b", "b a")
        vocab = build_vocabulary(corpus, min_count=1)
        text = dump_ngram(train_ngram(corpus, vocab, order=2, alpha=alpha))
        assert json.loads(text)["alpha"] == alpha
        assert_yaml_reads_as_json(text)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_constants_rejected(self, constant):
        corpus = tiny_corpus("a b")
        vocab = build_vocabulary(corpus, min_count=1)
        text = dump_ngram(train_ngram(corpus, vocab, order=1, alpha=0.5))
        assert '"alpha":0.5,' in text
        with pytest.raises(ValueError, match=f"malformed model document: {constant}"):
            load_ngram(text.replace('"alpha":0.5,', f'"alpha":{constant},'))

    # the block layout libyaml wrote before models were written as JSON
    def test_block_yaml_model_loads_identically(self, yaml_loader):
        corpus = tiny_corpus("the café sat", "the cat ran", "a cat \U0001F600")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=3, alpha=1e-05)
        old = yaml.dump(json.loads(dump_ngram(model)), Dumper=yaml.SafeDumper,
                        sort_keys=False, allow_unicode=True)
        assert old.startswith("order: 3\nalpha: 1.0e-05\n")
        loaded = load_ngram(old)
        assert (loaded.counts, loaded.totals, loaded.alpha) == (
            model.counts, model.totals, model.alpha)
        the, cat = vocab.token_to_id("the"), vocab.token_to_id("cat")
        for prefix in ([], [the], [the, cat], [cat, cat]):
            assert (dense_row(loaded.score_step("x", prefix)).tobytes()
                    == dense_row(model.score_step("x", prefix)).tobytes())
        assert dump_ngram(loaded) == dump_ngram(model)

    def test_corrupt_model_documents_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            load_ngram("order: 2\nalpha: 1.0\nvocab: ['<pad>','<bos>','<eos>','<unk>']\n")
        with pytest.raises(ValueError, match="special tokens"):
            load_ngram("order: 1\nalpha: 1.0\nvocab: [a]\ncounts: []\n")
        with pytest.raises(ValueError, match="not in the model vocabulary"):
            load_ngram("order: 1\nalpha: 1.0\n"
                       "vocab: ['<pad>','<bos>','<eos>','<unk>', a]\n"
                       "counts: [[[], zebra, 1]]\n")
        vocab = "vocab: ['<pad>','<bos>','<eos>','<unk>', a, b]\n"
        for fields, match in [
            ("order: 2\nalpha: 1.0\ncounts: 5\n", "counts must be a list"),
            ("order: 2\nalpha: 1.0\ncounts: [[5, a, 1]]\n", "context tokens"),
            ("order: 2\nalpha: 1.0\ncounts: [[[a], [a], 1]]\n", "token string"),
            ("order: 3\nalpha: 1.0\ncounts: [[ab, a, 1]]\n", "context tokens"),
            ("order: 2\nalpha: 1.0\ncounts: [[[a], a, true]]\n", "count"),
            ("order: true\nalpha: 1.0\ncounts: []\n", "order"),
            (f"order: {MAX_ORDER + 1}\nalpha: 1.0\ncounts: []\n", "order"),
            (f"order: {10 ** 400}\nalpha: 1.0\ncounts: []\n", "order"),
            ("order: 1\nalpha: true\ncounts: []\n", "alpha"),
            ("order: 1\nalpha: .inf\ncounts: []\n", "alpha"),
            ("order: 1\nalpha: 1.0e+308\ncounts: []\n", "alpha"),
            (f"order: 1\nalpha: 1.0\ncounts: [[[], a, {10 ** 400}]]\n", "float range"),
            (f"order: 1\nalpha: 1.0\ncounts: [[[], a, {10 ** 308}], [[], b, {10 ** 308}]]\n",
             "float range"),
            (f"order: 1\nalpha: 1.0e+307\ncounts: [[[], a, {17 * 10 ** 307}]]\n",
             "float range"),
            ("order: 2\nalpha: 1.0\ncounts: [[[a, b], a, 1]]\n", "context"),
            ("order: 2\nalpha: 1.0\ncounts: [[[a], a, -1]]\n", "non-negative"),
            ("order: 2\nalpha: 1.0\ncounts: [[['<bos>'], '<bos>', 50]]\n", "PAD, BOS"),
            ("order: 2\nalpha: 1.0\ncounts: [[['<bos>'], '<pad>', 20]]\n", "PAD, BOS"),
            # summed, these two loaded as a count of 2
            ("order: 2\nalpha: 1.0\ncounts: [[[a], b, 5], [[a], b, -3]]\n", "repeats"),
            ("order: 2\nalpha: 1.0\ncounts: [[[a], b, 1], [[b], a, 1], [[a], b, 1]]\n",
             "repeats"),
        ]:
            with pytest.raises(ValueError, match=match):
                load_ngram(fields + vocab)


class TestValidatingScorer:
    def test_passes_through_valid_scorer(self, skewed_table):
        wrapped = ValidatingScorer(skewed_table)
        scores = wrapped.score_step("img1", [])
        assert wrapped.calls == 1
        assert scores is skewed_table.score_step("img1", [])

    def test_rejects_broken_scorer(self, skewed_table):
        class Broken:
            vocab = skewed_table.vocab

            def score_step(self, condition, prefix):
                scores = dense_row(skewed_table.score_step(condition, prefix))
                return scores * 0.5  # no longer a distribution

        with pytest.raises(ValueError, match="not a distribution"):
            ValidatingScorer(Broken()).score_step("img1", [])

    def test_random_tables_all_satisfy_contract(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            scorer = random_table_scorer(rng, conditions=("c1", "c2"))
            wrapped = ValidatingScorer(scorer)
            wrapped.score_step("c1", [])
            wrapped.score_step("c2", [4])
        assert wrapped.calls == 2


def reference_row(model: NGramModel, prefix) -> np.ndarray:
    """The smoothed log row, computed afresh one token at a time with libm's log."""
    context = model.context_for(prefix)
    counts = model.counts.get(context, {})
    denominator = (model.totals.get(context, 0)
                   + model.alpha * (len(model.vocab) - FIRST_GENERABLE_ID))
    return np.array([-math.inf] * FIRST_GENERABLE_ID
                    + [math.log((counts.get(token, 0) + model.alpha) / denominator)
                       for token in range(FIRST_GENERABLE_ID, len(model.vocab))])


# order 1, alpha 0.5 and counts {a: 54, EOS: 1} give p(a) = 54.5 / 56.5, whose
# log from numpy 2.4's AVX-512 loop is one ulp off libm's
def ulp_split_model() -> NGramModel:
    return NGramModel(order=1, alpha=0.5, vocab=Vocabulary(["a"]), counts={(): {4: 54, EOS_ID: 1}})


def trigram_model() -> NGramModel:
    corpus = tiny_corpus("a b c a b", "b c a", "c c b a", "a a b")
    vocab = build_vocabulary(corpus, min_count=1)
    return train_ngram(corpus, vocab, order=3, alpha=0.3)


def every_prefix(model: NGramModel, length: int = 2) -> list[list[int]]:
    ids = [model.vocab.token_to_id(t) for t in ("a", "b", "c")] + [UNK_ID]
    return [list(p) for n in range(length + 1) for p in itertools.product(ids, repeat=n)]


def zero_count_model() -> NGramModel:
    # an explicit zero count lists a token at the floor value
    vocab = build_vocabulary(tiny_corpus("a b c"), min_count=1)
    return NGramModel(order=2, alpha=0.5, vocab=vocab,
                      counts={(BOS_ID,): {4: 0, 5: 3}, (4,): {EOS_ID: 0}, (5,): {}})


def huge_alpha_model() -> NGramModel:
    corpus = tiny_corpus("a b c a b", "b c a")
    return train_ngram(corpus, build_vocabulary(corpus, min_count=1), order=2, alpha=1e300)


class TestRowCache:
    """The n-gram model's cache of summaries, one per counted context plus one."""

    def test_rows_match_a_fresh_computation_and_are_read_only(self):
        for model in (trigram_model(), ulp_split_model(), zero_count_model(),
                      huge_alpha_model()):
            for _ in range(2):  # the second pass reads the cache
                for prefix in every_prefix(model):
                    row = model.score_step("x", prefix)
                    assert dense_row(row).tobytes() == reference_row(model, prefix).tobytes()
                    for items in (row.ids, row.values):
                        with pytest.raises(TypeError):
                            items[0] = 0
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        row.values = ()

    def test_rows_are_libm_logs_where_numpy_simd_differs(self):
        model = ulp_split_model()
        assert (dense_row(model.score_step("x", [])).tobytes()
                == reference_row(model, []).tobytes())

    def test_summary_is_the_smoothed_floor_and_the_counted_tokens(self):
        model = zero_count_model()
        row = model.score_step("x", [])
        assert row.floor == math.log(0.5 / (3 + 0.5 * (len(model.vocab) - 2)))
        assert row.ids == (4, 5) and row.values[0] == row.floor

    def test_one_context_shares_one_row(self):
        model = trigram_model()
        a, b = model.vocab.token_to_id("a"), model.vocab.token_to_id("b")
        row = model.score_step("img1", [a, b])
        assert model.score_step("img2", [b, b, a, b]) is row
        assert model.score_step("img1", [a, a]) is not row

    # a rebound alpha would leave cached rows at the old one, and alpha 0
    # would divide by zero on an unseen context
    @pytest.mark.parametrize("name, value", [("alpha", 100.0), ("alpha", 0.0), ("order", 2),
                                             ("counts", {})])
    def test_fields_cannot_be_rebound(self, name, value):
        model = trigram_model()
        row = model.score_step("x", [])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(model, name)
        assert model.score_step("x", []) is row

    def test_equal_fields_make_equal_models_without_a_hash(self):
        assert trigram_model() == trigram_model()
        assert trigram_model() != ulp_split_model()
        assert trigram_model() != trigram_model().counts
        with pytest.raises(TypeError):
            hash(trigram_model())
        vocab = Vocabulary(["a"])
        empty = NGramModel(2, 1.0, vocab)
        assert empty.counts == {} and empty == NGramModel(order=2, alpha=1.0, vocab=vocab)
        assert empty.counts is not NGramModel(2, 1.0, vocab).counts

    def test_unseen_contexts_share_one_entry(self):
        model = trigram_model()
        unseen = [p for p in every_prefix(model) if model.context_for(p) not in model.counts]
        assert len({model.context_for(p) for p in unseen}) > 1
        rows = {id(model.score_step("x", p)) for p in unseen}
        assert len(rows) == 1

    def test_construction_builds_nothing_and_the_cache_stays_bounded(self):
        model = trigram_model()
        assert model._rows == {}
        for prefix in every_prefix(model, length=3):
            model.score_step("x", prefix)
            assert len(model._rows) <= len(model.counts) + 1
        contexts = {model.context_for(p) for p in every_prefix(model, length=3)}
        assert len(model._rows) == len(contexts & model.counts.keys()) + 1

    # The model never evicts, but an entry dropped from its cache is rebuilt
    # equal to the first build, and the decoder keeps no state keyed on an
    # entry: a story decoded while the test trims the cache to `capacity`
    # entries before every step is the story of a model that keeps them all.
    @pytest.mark.parametrize("capacity", [1, 2, 5])
    def test_eviction_keeps_rows_correct_and_the_cache_bounded(self, capacity):
        def evict(rows: dict) -> None:
            while len(rows) >= capacity:
                del rows[next(iter(rows))]  # the oldest entry

        class Evicting:
            """The model, with its cache trimmed before each step."""

            def __init__(self, model):
                self.vocab = model.vocab
                self._model = model

            def score_step(self, condition, prefix):
                evict(self._model._rows)
                return self._model.score_step(condition, prefix)

        model = trigram_model()
        prefixes = every_prefix(model)
        first = {}
        builds = 0
        rng = np.random.default_rng(capacity)
        for i in rng.integers(0, len(prefixes), size=300):
            context = model.context_for(prefixes[i])
            evict(model._rows)
            builds += (context if context in model.counts else None) not in model._rows
            row = model.score_step("x", prefixes[i])
            assert len(model._rows) <= capacity
            assert dense_row(row).tobytes() == reference_row(model, prefixes[i]).tobytes()
            was = first.setdefault(context, row)
            assert row.floor == was.floor and row.vocab_size == was.vocab_size
            # float.hex tells -0.0 from 0.0, which tuple equality does not
            assert row.ids == was.ids
            assert list(map(float.hex, row.values)) == list(map(float.hex, was.values))
        assert builds > len({model.context_for(p) for p in prefixes} & model.counts.keys())
        config = DecodeConfig(beam_width=3, diversity_strength=2.0, max_len=6)
        stories = [story_to_json(inter_sentence_dbs(ValidatingScorer(scorer), ["c1", "c2", "c3"],
                                                    model.vocab, config), model.vocab)
                   for scorer in (Evicting(model), trigram_model())]
        assert stories[0] == stories[1]
        assert len(model._rows) <= capacity

    # the check runs before the cache, so a cached context still rejects bad input
    def test_step_arguments_checked_on_every_call(self):
        model = trigram_model()
        model.score_step("x", [])
        with pytest.raises(ValueError, match="non-empty"):
            model.score_step("", [])
        with pytest.raises(ValueError, match="EOS"):
            model.score_step("x", [EOS_ID])

    def test_threads_sharing_a_small_cache_get_correct_rows(self):
        # four threads fill one model's cache at once; a tiny switch interval
        # interleaves them often
        model = trigram_model()
        prefixes = every_prefix(model)
        want = [reference_row(model, p).tobytes() for p in prefixes]

        def score_all(seed: int) -> list:
            order = np.random.default_rng(seed).permutation(len(prefixes))
            got = [None] * len(prefixes)
            for _ in range(20):
                for i in order:
                    got[i] = model.score_step("x", prefixes[i])
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(score_all, seed) for seed in range(4)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert [dense_row(row).tobytes() for row in got] == want
            # every thread got the one entry the cache kept for each context
            assert all(row is model.score_step("x", p) for row, p in zip(got, prefixes))
        assert len(model._rows) <= len(model.counts) + 1

    def test_validator_oracle_and_decoder_see_identical_rows(self):
        class DenseRows:
            """A scorer that returns the model's rows as dense vectors."""

            def __init__(self, model):
                self.vocab = model.vocab
                self._model = model

            def score_step(self, condition, prefix):
                return dense_row(self._model.score_step(condition, prefix))

        warm, fresh = trigram_model(), trigram_model()
        for prefix in every_prefix(warm):
            row = warm.score_step("x", prefix)
            assert ValidatingScorer(warm).score_step("x", prefix) is row
            assert (dense_row(ValidatingScorer(DenseRows(fresh)).score_step("x", prefix))
                    .tobytes() == dense_row(row).tobytes())
        vocab = warm.vocab
        penalty = zero_penalty(len(vocab))
        assert (exhaustive_best(warm, "c", vocab, 4, 0.0, penalty)
                == exhaustive_best(DenseRows(trigram_model()), "c", vocab, 4, 0.0, penalty))
        config = DecodeConfig(beam_width=3, diversity_strength=2.0, max_len=6)
        stories = [story_to_json(inter_sentence_dbs(ValidatingScorer(scorer), ["c1", "c2", "c3"],
                                                    vocab, config), vocab)
                   for scorer in (warm, trigram_model(), DenseRows(trigram_model()))]
        assert stories[0] == stories[1] == stories[2]
