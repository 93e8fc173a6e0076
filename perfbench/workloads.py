"""Workload definitions and seeded input generation.

Every workload runs the same CLI operations (``train-lm``,
single-story ``decode`` and ``decode --batch --jobs 1``; the traced run
adds ``decode --batch --jobs 2``) with the same settings; what differs is
the inputs, and so which layer of the program does most of the work. The
seed fixes every input: the same seed always gives byte-identical files.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SENTENCE_WORDS = (25, 40)  # inclusive range of words per corpus sentence
EOS_PROBABILITY = 1e-6     # tie-heavy table: EOS is never chosen, segments run to max_len
ORDER, ALPHA, MIN_COUNT = 3, 0.01, 1  # train-lm settings
BEAM_WIDTH, MAX_LEN = 8, 20           # decode settings
STORY_SEGMENTS = 5                    # segments of each single-story decode
BATCH_SEGMENTS = (3, 4, 5, 6, 7)      # segment counts of the batch stories, cycled
SINGLE_DECODES = 1                    # single-story decode processes per round


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_weights: str        # "skewed" or "flat" word distribution
    batch_stories: int         # stories in the --batch file
    table_tokens: int = 0      # > 0: decode with a flat scoring table of this many tokens
    strength: float = 2.0      # --lambda
    corpus_sentences: int = 100
    corpus_words: int = 1000


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        name="cli-story",
        corpus_weights="skewed", batch_stories=5),
    Workload(
        name="batch-ngram",
        corpus_weights="skewed", batch_stories=50),
    Workload(
        name="tie-heavy",
        corpus_weights="flat", batch_stories=8, table_tokens=8000, strength=0.0),
)}


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    table: Path | None         # model for decode; None means the trained n-gram model
    batch: Path
    batch_stories: tuple[tuple[str, ...], ...]
    single_stories: tuple[tuple[str, ...], ...]


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode())])


def corpus_text(rng: np.random.Generator, workload: Workload) -> str:
    """Sentences of 25-40 words, followed by lines covering every word once.

    The covering lines fix the vocabulary size at ``corpus_words``, so the
    kernel's candidate count does not depend on the seed.
    """
    n_words = workload.corpus_words
    words = [f"w{i:04d}" for i in range(n_words)]
    if workload.corpus_weights == "skewed":
        # the quantiles of u**2 for uniform u: a fixed profile, so only which
        # word gets which weight depends on the seed, not how skewed it is
        weights = rng.permutation(((np.arange(n_words) + 0.5) / n_words) ** 2)
    else:
        weights = np.ones(n_words)
    weights /= weights.sum()
    lo, hi = SENTENCE_WORDS
    lengths = list(rng.integers(lo, hi + 1, size=workload.corpus_sentences))
    picks = list(rng.choice(n_words, size=int(sum(lengths)), p=weights))
    cover = list(rng.permutation(n_words))
    while cover:
        n = int(rng.integers(lo, hi + 1))
        picks.extend(cover[:n])
        lengths.append(min(n, len(cover)))
        cover = cover[n:]
    lines, start = [], 0
    for n in lengths:
        lines.append(" ".join(words[j] for j in picks[start:start + n]))
        start += n
    return "\n".join(lines) + "\n"


def table_text(n_tokens: int) -> str:
    """A scoring table where every token ties and EOS is all but impossible."""
    word = (1.0 - EOS_PROBABILITY) / n_tokens
    # the explicit mantissa dot keeps YAML 1.1 from reading 1e-06 as a string
    tokens = [f"t{i:04d}" for i in range(n_tokens)] + ["<eos>"]
    probs = [f"{word:.17e}"] * n_tokens + [f"{EOS_PROBABILITY:.17e}"]
    return f"vocab: [{', '.join(tokens)}]\ndefault_row: [{', '.join(probs)}]\n"


def _stories(rng: np.random.Generator, segment_counts, prefix: str):
    stories = []
    for i, n in enumerate(segment_counts):
        tag = int(rng.integers(0, 10**6))
        stories.append(tuple(f"{prefix}{i:03d}-{tag:06d}-{k}" for k in range(n)))
    return tuple(stories)


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's input files into ``directory``."""
    rng = _rng(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    corpus = directory / "corpus.txt"
    corpus.write_text(corpus_text(rng, workload), encoding="utf-8")
    table = None
    if workload.table_tokens:
        table = directory / "table.yaml"
        table.write_text(table_text(workload.table_tokens), encoding="utf-8")
    # a fixed multiset of segment counts, shuffled: total work is seed-independent
    counts = [BATCH_SEGMENTS[i % len(BATCH_SEGMENTS)] for i in range(workload.batch_stories)]
    batch_stories = _stories(rng, rng.permutation(counts), "b")
    batch = directory / "stories.txt"
    batch.write_text("".join(" ".join(s) + "\n" for s in batch_stories), encoding="utf-8")
    single_stories = _stories(rng, [STORY_SEGMENTS] * SINGLE_DECODES, "s")
    return Inputs(corpus=corpus, table=table, batch=batch,
                  batch_stories=batch_stories, single_stories=single_stories)
