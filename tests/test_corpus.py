import dataclasses

import pytest
from hypothesis import given, strategies as st

from storybeam.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Corpus,
    Vocabulary,
    build_vocabulary,
)


def corpus_of(*lines: str) -> Corpus:
    return Corpus.from_text("\n".join(lines))


class TestCorpusIngestion:
    def test_lowercases_and_splits_on_whitespace(self):
        corpus = Corpus.from_text("The  Cat\n\nsat MAT\n")
        assert corpus.sentences == (("the", "cat"), ("sat", "mat"))

    def test_blank_and_whitespace_lines_skipped(self):
        corpus = Corpus.from_text("a\n   \n\t\nb c\n")
        assert corpus.sentences == (("a",), ("b", "c"))

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028"],
                             ids=["form-feed", "file-separator", "next-line", "line-separator"])
    def test_lines_end_only_at_newlines(self, separator):
        # str.splitlines() would break at these; whitespace splitting still
        # separates the tokens on either side
        corpus = Corpus.from_text(f"a b{separator}c d\ne f\r\ng\rh\n")
        assert corpus.sentences == (("a", "b", "c", "d"), ("e", "f"), ("g",), ("h",))

    def test_reads_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("x y\nz\n", encoding="utf-8")
        assert Corpus.from_file(path).sentences == (("x", "y"), ("z",))

    # a plain class with a frozen dataclass's behaviour: train-lm never imports dataclasses
    def test_fields_cannot_be_set_or_deleted(self):
        corpus = corpus_of("a b")
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.sentences = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del corpus.sentences
        assert corpus.sentences == (("a", "b"),)

    def test_equal_sentences_make_equal_corpora_without_a_hash(self):
        assert corpus_of("a b", "c") == Corpus((("a", "b"), ("c",)))
        assert corpus_of("a b") != corpus_of("a c")
        assert corpus_of("a b") != (("a", "b"),)
        with pytest.raises(TypeError):
            hash(corpus_of("a b"))
        assert vars(corpus_of("a")) == {"sentences": (("a",),)}


class TestBuildVocabulary:
    def test_min_count_four_keeps_nothing_at_three_occurrences(self):
        # a appears 3x: strictly fewer than the default threshold of 4
        vocab = build_vocabulary(corpus_of("a b a", "a c"), min_count=4)
        assert vocab.tokens == SPECIAL_TOKENS

    def test_min_count_one_keeps_all_frequency_ordered(self):
        vocab = build_vocabulary(corpus_of("a b a", "a c"), min_count=1)
        assert vocab.non_special_tokens == ("a", "b", "c")

    def test_singleton_corpus(self):
        vocab = build_vocabulary(corpus_of("x"), min_count=1)
        assert vocab.non_special_tokens == ("x",)

    def test_lexicographic_tie_break(self):
        vocab = build_vocabulary(corpus_of("zz yy", "yy zz"), min_count=1)
        assert vocab.non_special_tokens == ("yy", "zz")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary(Corpus.from_text(""), min_count=1)

    def test_zero_min_count_rejected(self):
        with pytest.raises(ValueError, match="min_count"):
            build_vocabulary(corpus_of("a"), min_count=0)

    @pytest.mark.parametrize("min_count", [2.5, True])
    def test_min_count_must_be_an_integer(self, min_count):
        with pytest.raises(ValueError, match="min_count must be an integer"):
            build_vocabulary(corpus_of("a"), min_count=min_count)

    def test_deterministic(self):
        corpus = corpus_of("c b a", "b a", "a")
        first = build_vocabulary(corpus, min_count=1)
        second = build_vocabulary(corpus, min_count=1)
        assert first.tokens == second.tokens

    def test_special_ids_fixed(self):
        vocab = build_vocabulary(corpus_of("a"), min_count=1)
        assert vocab.token_to_id("<pad>") == PAD_ID
        assert vocab.token_to_id("<bos>") == BOS_ID
        assert vocab.token_to_id("<eos>") == EOS_ID
        assert vocab.token_to_id("<unk>") == UNK_ID

    @given(st.integers(min_value=1, max_value=6))
    def test_raising_min_count_never_adds_tokens(self, min_count):
        corpus = corpus_of("a a a b b c", "a b d", "d e")
        lower = set(build_vocabulary(corpus, min_count).non_special_tokens)
        higher = set(build_vocabulary(corpus, min_count + 1).non_special_tokens)
        assert higher <= lower


class TestEncodeDecode:
    @pytest.fixture
    def vocab(self) -> Vocabulary:
        return build_vocabulary(corpus_of("a b c"), min_count=1)

    def test_oov_maps_to_unk(self, vocab):
        assert vocab.encode(["a", "zzz"]) == [vocab.token_to_id("a"), UNK_ID]

    def test_empty_sentence(self, vocab):
        assert vocab.encode([]) == []

    def test_repetition_preserved(self, vocab):
        a = vocab.token_to_id("a")
        assert vocab.encode(["a", "a"]) == [a, a]

    def test_round_trip(self, vocab):
        sentence = ["a", "c", "b", "a"]
        assert vocab.decode(vocab.encode(sentence)) == sentence

    def test_specials_render_literally(self, vocab):
        assert vocab.decode([EOS_ID]) == ["<eos>"]

    @pytest.mark.parametrize("token", ["", ["a"], {"k": "v"}, 3, None])
    def test_token_must_be_a_non_empty_string(self, token):
        with pytest.raises(ValueError, match="invalid vocab token"):
            Vocabulary(["a", token])

    # the tokens are checked in bulk; the first bad one is still named, after many good ones
    @pytest.mark.parametrize("bad, message", [
        ([3, ""], "invalid vocab token 3"),
        (["", "<eos>"], "invalid vocab token ''"),
        (["<eos>"], "special token '<eos>' cannot be re-added"),
        (["<pad>", None], "special token '<pad>' cannot be re-added"),
    ])
    def test_first_bad_token_is_named(self, bad, message):
        good = [f"w{i}" for i in range(5000)]
        with pytest.raises(ValueError) as error:
            Vocabulary([*good, *bad, *good])
        assert str(error.value) == message

    def test_str_subclass_token_accepted(self):
        class Token(str):
            pass

        assert Vocabulary(["a", Token("b")]).tokens[-1] == "b"

    # no UTF-8 model document can hold a lone surrogate, so no model may be built over one
    @pytest.mark.parametrize("token", ["\ud800", "a\udfffb", "\udc80"])
    def test_token_must_be_valid_unicode(self, token):
        with pytest.raises(ValueError, match="not valid Unicode") as error:
            Vocabulary(["a", token, "\U0001F600"])
        assert repr(token) in str(error.value)
        with pytest.raises(ValueError, match="not valid Unicode"):
            build_vocabulary(Corpus(sentences=(("a", token),)), min_count=1)

    def test_out_of_range_id_rejected(self, vocab):
        with pytest.raises(ValueError, match="out of range"):
            vocab.decode([len(vocab)])
        with pytest.raises(ValueError, match="out of range"):
            vocab.decode([-1])

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=12))
    def test_round_trip_property(self, sentence):
        vocab = build_vocabulary(corpus_of("a b c"), min_count=1)
        assert vocab.decode(vocab.encode(sentence)) == sentence
