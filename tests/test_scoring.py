import itertools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from storybeam import ngram
from storybeam.corpus import (
    BOS_ID,
    EOS_ID,
    FIRST_GENERABLE_ID,
    PAD_ID,
    UNK_ID,
    Corpus,
    build_vocabulary,
)
from storybeam.decoding import DecodeConfig, inter_sentence_dbs, story_to_json
from storybeam.diversity import zero_penalty
from storybeam.ngram import MAX_ORDER, ROW_CACHE_BYTES
from storybeam.oracle import exhaustive_best
from storybeam.scoring import (
    NGramModel,
    ValidatingScorer,
    dump_ngram,
    load_ngram,
    load_scorer,
    load_table_scorer,
    ngram_from_dict,
    ngram_to_dict,
    train_ngram,
    validate_step_scores,
)

from conftest import make_table, random_table_scorer

needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")

YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.fixture(params=["pure", pytest.param("libyaml", marks=needs_libyaml)])
def yaml_loader(request, monkeypatch) -> str:
    """Make the YAML fallback of model loading use one PyYAML loader."""
    loader = {"pure": "SafeLoader", "libyaml": "CSafeLoader"}[request.param]
    monkeypatch.setattr(ngram, "YAML_LOADER", getattr(yaml, loader))
    return request.param


def test_yaml_fallback_defaults_to_the_fastest_loader(monkeypatch):
    seen = []
    real_load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda text, Loader: seen.append(Loader)
                        or real_load(text, Loader=Loader))
    load_table_scorer("vocab: [a, <eos>]\ndefault_row: [0.5, 0.5]\n")
    assert seen == [getattr(yaml, "CSafeLoader", yaml.SafeLoader)]


def assert_yaml_reads_as_json(text: str) -> None:
    """A written model is JSON that every YAML loader reads to the same document."""
    doc = json.loads(text)
    for loader in YAML_LOADERS:
        assert yaml.load(text, Loader=loader) == doc


class TestTableScorer:
    def test_uniform_default_row(self, uniform_table):
        vocab = uniform_table.vocab
        scores = uniform_table.score_step("img1", [])
        third = math.log(1 / 3)
        for tok in ("a", "b", "<eos>"):
            assert scores[vocab.token_to_id(tok)] == pytest.approx(third, abs=1e-12)
        assert scores[PAD_ID] == -np.inf
        assert scores[BOS_ID] == -np.inf
        assert scores[UNK_ID] == -np.inf

    def test_bitwise_deterministic(self, skewed_table):
        a = skewed_table.score_step("img1", [4, 5])
        b = skewed_table.score_step("img1", [4, 5])
        assert a.tobytes() == b.tobytes()

    def test_condition_row_overrides_default_only_for_that_condition(self):
        table = make_table(
            ["a", "b", "<eos>"], [0.5, 0.3, 0.2],
            rows=[{"condition": "img2", "probs": [0.1, 0.7, 0.2]}])
        vocab = table.vocab
        b = vocab.token_to_id("b")
        default = table.score_step("img1", [])
        overridden = table.score_step("img2", [])
        assert default[b] == pytest.approx(math.log(0.3))
        assert overridden[b] == pytest.approx(math.log(0.7))

    def test_context_suffix_pattern(self):
        table = make_table(
            ["a", "b", "<eos>"], [0.5, 0.3, 0.2],
            rows=[{"context": ["a"], "probs": [0.0, 0.0, 1.0]}])
        vocab = table.vocab
        a = vocab.token_to_id("a")
        after_a = table.score_step("img1", [a])
        assert after_a[EOS_ID] == pytest.approx(0.0)
        assert after_a[a] == -np.inf
        fresh = table.score_step("img1", [])
        assert fresh[a] == pytest.approx(math.log(0.5))

    def test_first_matching_row_wins(self):
        table = make_table(
            ["a", "b", "<eos>"], [0.5, 0.3, 0.2],
            rows=[{"context": ["a"], "probs": [0.0, 0.0, 1.0]},
                  {"context": ["a"], "probs": [1.0, 0.0, 0.0]}])
        a = table.vocab.token_to_id("a")
        assert table.score_step("x", [a])[EOS_ID] == pytest.approx(0.0)

    def test_prefix_with_eos_rejected(self, skewed_table):
        with pytest.raises(ValueError, match="EOS"):
            skewed_table.score_step("img1", [EOS_ID])

    def test_empty_condition_rejected(self, skewed_table):
        with pytest.raises(ValueError, match="condition"):
            skewed_table.score_step("", [])

    def test_returned_rows_are_read_only(self, skewed_table):
        scores = skewed_table.score_step("img1", [])
        before = scores.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            scores[EOS_ID] = 0.0
        assert skewed_table.score_step("img1", []).tobytes() == before


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

    def test_near_one_row_sum_is_renormalized(self):
        # within the 1e-6 acceptance window; scores must still be exact
        table = make_table(["a", "<eos>"], [0.6000001, 0.4])
        scores = table.score_step("c", [])
        total = math.exp(scores[table.vocab.token_to_id("a")]) + math.exp(scores[EOS_ID])
        assert total == pytest.approx(1.0, abs=1e-12)


def tiny_corpus(*lines: str) -> Corpus:
    return Corpus.from_text("\n".join(lines))


class TestNGram:
    def test_unigram_counts_dominate_at_small_alpha(self):
        corpus = tiny_corpus("a a a b")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=1, alpha=1e-9)
        scores = model.score_step("any", [])
        assert math.exp(scores[vocab.token_to_id("a")]) == pytest.approx(3 / 5, abs=1e-6)
        assert math.exp(scores[vocab.token_to_id("b")]) == pytest.approx(1 / 5, abs=1e-6)
        assert math.exp(scores[EOS_ID]) == pytest.approx(1 / 5, abs=1e-6)

    def test_laplace_hand_computed_value(self):
        # corpus {"a"}: count(a)=1, count(EOS)=1, total=2, event space {a, EOS, UNK}
        corpus = tiny_corpus("a")
        vocab = build_vocabulary(corpus, min_count=1)
        assert len(vocab) == 5
        model = train_ngram(corpus, vocab, order=1, alpha=1.0)
        scores = model.score_step("any", [])
        assert math.exp(scores[vocab.token_to_id("a")]) == pytest.approx(0.4, abs=1e-12)
        assert math.exp(scores[EOS_ID]) == pytest.approx(0.4, abs=1e-12)
        assert math.exp(scores[UNK_ID]) == pytest.approx(0.2, abs=1e-12)

    def test_unseen_context_is_uniform(self):
        corpus = tiny_corpus("a b", "b a")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=3, alpha=0.5)
        unk_context = [vocab.token_to_id("a"), vocab.token_to_id("a")]
        assert model.totals.get(tuple(unk_context), 0) == 0
        scores = model.score_step("any", unk_context)
        generable = scores[2:]
        assert np.allclose(generable, generable[0])

    def test_kl_to_uniform_shrinks_with_alpha(self):
        corpus = tiny_corpus("a a a a b", "a b c")
        vocab = build_vocabulary(corpus, min_count=1)
        uniform = 1.0 / (len(vocab) - 2)

        def kl(alpha: float) -> float:
            scores = train_ngram(corpus, vocab, 1, alpha).score_step("x", [])
            probs = np.exp(scores[2:])
            return float(np.sum(probs * np.log(probs / uniform)))

        divergences = [kl(a) for a in (0.1, 1.0, 10.0)]
        assert divergences[0] > divergences[1] > divergences[2]

    def test_condition_ignored(self):
        corpus = tiny_corpus("a b a")
        vocab = build_vocabulary(corpus, min_count=1)
        model = train_ngram(corpus, vocab, order=2, alpha=1.0)
        a = [vocab.token_to_id("a")]
        assert model.score_step("img1", a).tobytes() == model.score_step("img2", a).tobytes()

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
        one = model.score_step("x", head_a + tail)
        other = model.score_step("x", head_b + tail)
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
            assert (loaded.score_step("x", prefix).tobytes()
                    == model.score_step("x", prefix).tobytes())

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
                assert (loaded.score_step("x", prefix).tobytes()
                        == model.score_step("x", prefix).tobytes())

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
                assert (loaded.score_step("x", prefix).tobytes()
                        == model.score_step("x", prefix).tobytes())
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
        old = yaml.dump(ngram_to_dict(model), Dumper=yaml.SafeDumper,
                        sort_keys=False, allow_unicode=True)
        assert old.startswith("order: 3\nalpha: 1.0e-05\n")
        loaded = load_ngram(old)
        assert (loaded.counts, loaded.totals, loaded.alpha) == (
            model.counts, model.totals, model.alpha)
        the, cat = vocab.token_to_id("the"), vocab.token_to_id("cat")
        for prefix in ([], [the], [the, cat], [cat, cat]):
            assert (loaded.score_step("x", prefix).tobytes()
                    == model.score_step("x", prefix).tobytes())
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
        assert scores.tobytes() == skewed_table.score_step("img1", []).tobytes()

    def test_rejects_broken_scorer(self, skewed_table):
        class Broken:
            vocab = skewed_table.vocab

            def score_step(self, condition, prefix):
                scores = skewed_table.score_step(condition, prefix)
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
    """The smoothed log row, computed afresh as score_step did before caching."""
    context = model.context_for(prefix)
    generable = len(model.vocab) - FIRST_GENERABLE_ID
    observed = np.zeros(generable, dtype=np.float64)
    for token, count in model.counts.get(context, {}).items():
        observed[token - FIRST_GENERABLE_ID] = count
    probs = (observed + model.alpha) / (model.totals.get(context, 0) + model.alpha * generable)
    row = np.full(len(model.vocab), -np.inf, dtype=np.float64)
    with np.errstate(divide="ignore"):
        row[FIRST_GENERABLE_ID:] = np.log(probs)
    return row


def trigram_model() -> NGramModel:
    corpus = tiny_corpus("a b c a b", "b c a", "c c b a", "a a b")
    vocab = build_vocabulary(corpus, min_count=1)
    return train_ngram(corpus, vocab, order=3, alpha=0.3)


def every_prefix(model: NGramModel, length: int = 2) -> list[list[int]]:
    ids = [model.vocab.token_to_id(t) for t in ("a", "b", "c")] + [UNK_ID]
    return [list(p) for n in range(length + 1) for p in itertools.product(ids, repeat=n)]


class TestRowCache:
    def test_rows_match_a_fresh_computation_and_are_read_only(self):
        model = trigram_model()
        for _ in range(2):  # the second pass reads the cache
            for prefix in every_prefix(model):
                row = model.score_step("x", prefix)
                assert row.tobytes() == reference_row(model, prefix).tobytes()
                assert not row.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    row[FIRST_GENERABLE_ID] = 0.0

    def test_one_context_shares_one_row(self):
        model = trigram_model()
        a, b = model.vocab.token_to_id("a"), model.vocab.token_to_id("b")
        row = model.score_step("img1", [a, b])
        assert model.score_step("img2", [b, b, a, b]) is row
        assert model.score_step("img1", [a, a]) is not row

    def test_capacity_comes_from_the_byte_budget(self, monkeypatch):
        model = trigram_model()
        assert model._row.cache_info().maxsize == ROW_CACHE_BYTES // (8 * len(model.vocab))
        monkeypatch.setattr(ngram, "ROW_CACHE_BYTES", 8 * len(model.vocab) * 3 + 7)
        assert trigram_model()._row.cache_info().maxsize == 3
        monkeypatch.setattr(ngram, "ROW_CACHE_BYTES", 1)
        assert trigram_model()._row.cache_info().maxsize == 1

    # the check runs before the cache, so a cached context still rejects bad input
    def test_step_arguments_checked_on_every_call(self):
        model = trigram_model()
        model.score_step("x", [])
        with pytest.raises(ValueError, match="non-empty"):
            model.score_step("", [])
        with pytest.raises(ValueError, match="EOS"):
            model.score_step("x", [EOS_ID])

    @pytest.mark.parametrize("capacity", [1, 2, 5])
    def test_eviction_keeps_rows_correct_and_the_cache_bounded(self, monkeypatch, capacity):
        monkeypatch.setattr(ngram, "ROW_CACHE_BYTES", 8 * len(trigram_model().vocab) * capacity)
        model = trigram_model()
        prefixes = every_prefix(model)
        rng = np.random.default_rng(capacity)
        for i in rng.integers(0, len(prefixes), size=300):
            row = model.score_step("x", prefixes[i])
            assert row.tobytes() == reference_row(model, prefixes[i]).tobytes()
            assert model._row.cache_info().currsize <= capacity
        assert model._row.cache_info().misses > len({model.context_for(p) for p in prefixes})

    def test_threads_sharing_a_small_cache_get_correct_rows(self, monkeypatch):
        monkeypatch.setattr(ngram, "ROW_CACHE_BYTES", 8 * len(trigram_model().vocab) * 3)
        model = trigram_model()
        prefixes = every_prefix(model)
        want = [reference_row(model, p).tobytes() for p in prefixes]

        def score_all(seed: int) -> bool:
            order = np.random.default_rng(seed).permutation(len(prefixes))
            return all(model.score_step("x", prefixes[i]).tobytes() == want[i]
                       for _ in range(20) for i in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(score_all, seed) for seed in range(4)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)
        assert model._row.cache_info().currsize <= 3

    def test_validator_oracle_and_decoder_see_identical_rows(self, monkeypatch):
        cached = trigram_model()
        monkeypatch.setattr(ngram, "ROW_CACHE_BYTES", 1)
        evicting = trigram_model()
        for prefix in every_prefix(cached):
            row = cached.score_step("x", prefix)
            assert ValidatingScorer(cached).score_step("x", prefix) is row
            assert ValidatingScorer(evicting).score_step("x", prefix).tobytes() == row.tobytes()
        vocab = cached.vocab
        penalty = zero_penalty(len(vocab))
        assert (exhaustive_best(cached, "c", vocab, 4, 0.0, penalty)
                == exhaustive_best(evicting, "c", vocab, 4, 0.0, penalty))
        config = DecodeConfig(beam_width=3, diversity_strength=2.0, max_len=6, num_segments=3)
        stories = [story_to_json(inter_sentence_dbs(ValidatingScorer(model), ["c1", "c2", "c3"],
                                                    vocab, config), vocab)
                   for model in (cached, evicting, cached)]
        assert stories[0] == stories[1] == stories[2]
