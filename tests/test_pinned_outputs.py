"""SHA-256 pins of the bytes that ``train-lm``, ``decode`` and the library write.

The determinism contract says identical inputs give identical bytes; these
pins say which bytes, so a change that claims "output bytes are unchanged"
is checked here. A change that alters output on purpose updates the pins in
the same commit and says why in CHANGES.md.

``data/corpus.txt`` holds the first 41 lines (8 KB) of the benchmark's
seed-7 cli-story corpus, committed as text: the generator draws from
numpy's ``Generator``, whose streams may differ between numpy versions.
``data/table.yaml`` is README's three-token table.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from storybeam.cli import main
from storybeam.corpus import EOS_ID, FIRST_GENERABLE_ID, Vocabulary
from storybeam.decoding import DecodeConfig, inter_sentence_dbs, story_to_json

DATA = Path(__file__).parent / "data"

# train-lm settings: the benchmark's, README's, and the benchmark's at orders 1
# (every entry's context is empty, written [[],"tok",n]) and 4 (three tokens)
MODEL_SETTINGS = {
    "benchmark": ["--order", "3", "--alpha", "0.01", "--min-count", "1"],
    "readme": ["--order", "2", "--alpha", "1.0", "--min-count", "4"],
    "order-1": ["--order", "1", "--alpha", "0.01", "--min-count", "1"],
    "order-4": ["--order", "4", "--alpha", "0.01", "--min-count", "1"],
}
MODEL_PINS = {
    "benchmark": "2212d550759512358a1f029edf524b2b33e5098109e97be5f5dcd36a573f487b",
    "readme": "5be25bd80b2377a886121f3a32210c91c8002241bcb876eff4d68d6ab7e9383f",
    "order-1": "0235acefb57a3b754d28788ab5549c5d7dc9a122c63287bbc0d1375e539cf94d",
    "order-4": "6c80a7074e37ba20d4ae66b34c07ca0f7e1b2c5bb4cdb9a612f7ffe47475bd72",
}
# single five-segment stories on the benchmark model, at the benchmark's width and length
# (the two penalties differ at 0.5 only)
STORY_PINS = {
    ("0", "hamming"): "6b8269fdb56f8e27211ad6f54d3c050eb1e2321bc6da32aa9dd926a74f833d2d",
    ("0", "presence"): "6b8269fdb56f8e27211ad6f54d3c050eb1e2321bc6da32aa9dd926a74f833d2d",
    ("0.5", "hamming"): "660e222c0aa85d9509599075298c98142f7706e0edbbeb031f9452988ac0995e",
    ("0.5", "presence"): "ad31664efdc04b972699a6580a6bb8ffb764a537f159aaa99df14315c9bb5af6",
    ("2", "hamming"): "5773b5bf8c90f2fb88b2a71fd1e850fa861866ac7617adee1daa504172fd0a0b",
    ("2", "presence"): "5773b5bf8c90f2fb88b2a71fd1e850fa861866ac7617adee1daa504172fd0a0b",
}
BATCH_STORIES = "b1 b2 b3\nb4\nb5 b6 b7 b8\n"
BATCH_PIN = "9303f87f20ab00f1b40459cf29506ae99cba4cdd4cba30db6643cc9a5f7340d7"
# README's "Seeing the penalty work": --lambda 0, then the default
README_TABLE_PINS = {
    "0": "ed4a4d69c0622d18e2e6d842284d604c8e21629582adf3ec3e3ef21316ff67c7",
    "default": "d23ce35f1af1f058b0fe32ee0c8c15dc15a240dc5b0011e63a90c19b653d7372",
}
FLAT_TABLE_PIN = "c4d624e51131cb0de285995e69cc4e1d5dbe8fafc2c09850f4cf8b42c6f6e6e0"
DENSE_SCORER_PIN = "2134952c25dee49c82479b036a92cd699679f8f57806fbc5e1726b8a78ec8a32"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv: str) -> None:
    assert main(list(argv)) == 0


@pytest.fixture(scope="module")
def models(tmp_path_factory) -> dict[str, Path]:
    directory = tmp_path_factory.mktemp("models")
    paths = {}
    for name, settings in MODEL_SETTINGS.items():
        paths[name] = directory / f"{name}.json"
        run("train-lm", str(DATA / "corpus.txt"), *settings, "--out", str(paths[name]))
    return paths


@pytest.mark.parametrize("name", sorted(MODEL_SETTINGS))
def test_train_lm_model_bytes(models, name):
    assert sha256(models[name].read_bytes()) == MODEL_PINS[name]


@pytest.mark.parametrize("strength, penalty", sorted(STORY_PINS))
def test_single_story_decode(models, tmp_path, strength, penalty):
    out = tmp_path / "story.json"
    run("decode", "--model", str(models["benchmark"]),
        "--conditions", "s1", "s2", "s3", "s4", "s5", "--beam-width", "8", "--max-len", "20",
        "--lambda", strength, "--penalty", penalty, "--out", str(out))
    assert sha256(out.read_bytes()) == STORY_PINS[strength, penalty]


def test_batch_directory(models, tmp_path):
    stories = tmp_path / "stories.txt"
    stories.write_text(BATCH_STORIES, encoding="utf-8")
    out = tmp_path / "out"
    run("decode", "--model", str(models["benchmark"]), "--batch", str(stories),
        "--beam-width", "8", "--max-len", "20", "--out", str(out))
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == BATCH_PIN


@pytest.mark.parametrize("strength", sorted(README_TABLE_PINS))
def test_readme_table_decode(tmp_path, strength):
    out = tmp_path / "story.json"
    lambda_flag = [] if strength == "default" else ["--lambda", strength]
    run("decode", "--model", str(DATA / "table.yaml"), "--conditions", "c1", "c2", "c3", "c4",
        "c5", "--beam-width", "1", "--max-len", "2", *lambda_flag, "--out", str(out))
    assert sha256(out.read_bytes()) == README_TABLE_PINS[strength]


def test_flat_table_decode(tmp_path):
    # the tie-heavy workload's table at 2000 tokens: every word ties, EOS all but impossible
    n_tokens, eos = 2000, 1e-6
    word = (1.0 - eos) / n_tokens
    tokens = [f"t{i:04d}" for i in range(n_tokens)] + ["<eos>"]
    probs = [f"{word:.17e}"] * n_tokens + [f"{eos:.17e}"]
    table = tmp_path / "flat.yaml"
    table.write_text(f"vocab: [{', '.join(tokens)}]\ndefault_row: [{', '.join(probs)}]\n",
                     encoding="utf-8")
    out = tmp_path / "story.json"
    run("decode", "--model", str(table), "--conditions", "c1", "c2", "c3",
        "--beam-width", "8", "--max-len", "20", "--lambda", "0", "--out", str(out))
    assert sha256(out.read_bytes()) == FLAT_TABLE_PIN


class DenseScorer:
    """Dense float64 rows from a formula: nearly every token is an exception."""

    vocab = Vocabulary(f"w{i:02d}" for i in range(40))

    def score_step(self, condition, prefix):
        last = prefix[-1] if prefix else 0
        weights = [0.0] * FIRST_GENERABLE_ID + [
            1.0 + (7 * token + 3 * len(prefix) + last + len(condition)) % 11
            for token in range(FIRST_GENERABLE_ID, len(self.vocab))]
        weights[EOS_ID] = 0.5 * len(prefix)
        total = math.fsum(weights)
        return np.array([math.log(w / total) if w else -math.inf for w in weights])


def test_dense_row_scorer_story():
    scorer = DenseScorer()
    config = DecodeConfig(beam_width=4, diversity_strength=1.5, max_len=8)
    story = inter_sentence_dbs(scorer, ["c1", "c22", "c333", "c1"], scorer.vocab, config)
    assert sha256(story_to_json(story, scorer.vocab).encode()) == DENSE_SCORER_PIN
