import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

import storybeam
from storybeam import diversity
from storybeam.cli import main
from storybeam.config import DecodeConfig
from storybeam.corpus import Corpus, build_vocabulary
from storybeam.ngram import MAX_ORDER, NGramModel, _check_order
from storybeam.scoring import load_ngram, ngram_to_dict

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


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports the same storybeam as this test."""
    env = {**os.environ, "PYTHONPATH": str(Path(storybeam.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=env)


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
        assert (model.score_step("x", [the]).tobytes()
                == again.score_step("x", [the]).tobytes())

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

    def test_failed_write_leaves_no_temp_file(self, table_path, tmp_path):
        out = tmp_path / "taken"
        out.mkdir()  # os.replace cannot overwrite a directory with a file
        code = main(["decode", "--model", str(table_path), "--conditions", "c1",
                     "--beam-width", "1", "--max-len", "2", "--out", str(out)])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.yaml", "taken"]
        assert not any(out.iterdir())

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

    def test_conditions_sources_are_exclusive(self, table_path, tmp_path, capsys):
        conditions = tmp_path / "conds.txt"
        conditions.write_text("c1\n", encoding="utf-8")
        code = main(["decode", "--model", str(table_path),
                     "--conditions", "c1", "--conditions-file", str(conditions)])
        assert code == 2

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
        old.write_text(yaml.dump(ngram_to_dict(load_ngram(text)), Dumper=yaml.SafeDumper,
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


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    # only decode needs numpy, and importing it doubles a process's start-up
    def test_help_train_lm_and_eval_never_import_numpy(self, corpus_path, tmp_path):
        model, story = tmp_path / "model.json", tmp_path / "story.json"
        story.write_text('{"segments": [{"tokens": ["a", "b"]}, {"tokens": ["a"]}]}',
                         encoding="utf-8")
        result = run_python(
            "import sys\n"
            "def report(): print('numpy loaded:', 'numpy' in sys.modules)\n"
            "import storybeam\n"
            "report()\n"
            "from storybeam.cli import main\n"
            "assert main(['--help']) == 0\n"
            "report()\n"
            f"assert main(['train-lm', {str(corpus_path)!r}, '--out', {str(model)!r}]) == 0\n"
            "report()\n"
            f"assert main(['eval', {str(story)!r}]) == 0\n"
            "report()\n")
        assert result.returncode == 0, result.stderr
        reports = [line for line in result.stdout.splitlines()
                   if line.startswith("numpy loaded:")]
        assert reports == ["numpy loaded: False"] * 4

    def test_decode_help_offers_every_registered_penalty(self, capsys):
        assert main(["decode", "--help"]) == 0
        usage = capsys.readouterr().out
        offered = usage.split("--penalty {", 1)[1].split("}", 1)[0]
        assert offered.split(",") == sorted(diversity.PENALTIES)

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2
