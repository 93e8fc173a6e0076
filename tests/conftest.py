"""Shared fixtures and random-instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from storybeam.decoding import Beam, Hypothesis
from storybeam.scoring import TableScorer, table_from_dict


def make_table(listed_vocab, default_probs, rows=None) -> TableScorer:
    """Build a validated table scorer from in-test data."""
    doc = {
        "vocab": list(listed_vocab),
        "default_row": [float(p) for p in default_probs],
    }
    if rows:
        doc["rows"] = rows
    return table_from_dict(doc)


@pytest.fixture
def skewed_table() -> TableScorer:
    """The 0.5/0.3/0.2 fixture over (a, b, <eos>) used by the worked examples."""
    return make_table(["a", "b", "<eos>"], [0.5, 0.3, 0.2])


@pytest.fixture
def uniform_table() -> TableScorer:
    return make_table(["a", "b", "<eos>"], [1 / 3, 1 / 3, 1 / 3])


_WORDS = ("ant", "bee", "cat", "dog", "elk", "fox")


def random_table_scorer(rng: np.random.Generator, max_regular: int = 4,
                        conditions: tuple[str, ...] = (), max_rows: int = 3,
                        lattice: bool = False) -> TableScorer:
    """Random but valid table scorer; rows may dispatch on conditions.

    With ``lattice`` every probability is drawn from {0, .25, .5, 1} before
    normalizing, so scores tie often and zero entries give ``-inf`` rows.
    """
    n_regular = int(rng.integers(1, max_regular + 1))
    listed = list(_WORDS[:n_regular]) + ["<eos>"]
    if rng.random() < 0.3:
        listed.append("<unk>")

    def random_probs() -> list[float]:
        if lattice:
            raw = rng.choice([0.0, 0.25, 0.5, 1.0], size=len(listed))
            if not raw.any():
                raw[-1] = 1.0
        else:
            raw = rng.random(len(listed)) + 1e-3
        raw /= raw.sum()
        return [float(p) for p in raw]

    rows = []
    for _ in range(int(rng.integers(0, max_rows + 1))):
        row: dict = {"probs": random_probs()}
        if conditions and rng.random() < 0.7:
            row["condition"] = str(rng.choice(list(conditions)))
        context_len = int(rng.integers(0, 3))
        context_pool = [t for t in listed if t != "<eos>"]
        if context_len and context_pool:
            row["context"] = [str(rng.choice(context_pool))
                              for _ in range(context_len)]
        rows.append(row)
    return make_table(listed, random_probs(), rows)


def random_step_case(rng: np.random.Generator):
    """A random one-step selection problem: beam, step scores, penalty.

    Every hypothesis is unfinished: a selection step expands the whole beam.
    """
    vocab_size = int(rng.integers(4, 9))
    n_hyps = int(rng.integers(1, 4))
    hypotheses = []
    for _ in range(n_hyps):
        length = int(rng.integers(0, 3))
        tokens = tuple(int(t) for t in rng.integers(2, vocab_size, size=length))
        logprobs = tuple(float(-x) for x in rng.random(length))
        penalties = tuple(float(-x) for x in rng.random(length))
        raw = sum(logprobs)
        hypotheses.append(Hypothesis(
            tokens=tokens, raw_score=raw, aug_score=raw + sum(penalties),
            step_logprobs=logprobs, step_penalties=penalties))
    hypotheses.sort(key=lambda h: h.aug_score, reverse=True)
    beam = Beam(tuple(hypotheses))
    scores = []
    for _ in range(len(beam)):
        row = np.full(vocab_size, -np.inf)
        row[2:] = np.log(rng.dirichlet(np.ones(vocab_size - 2)))
        scores.append(row)
    penalty = np.zeros(vocab_size)
    penalty[4:] = -rng.integers(0, 3, size=vocab_size - 4).astype(float)
    strength = float(rng.choice([0.0, 1.0, 2.0]))
    beam_width = int(rng.integers(1, 7))
    return beam, scores, penalty, strength, beam_width


def assert_beams_identical(got: Beam, want: Beam) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tokens == w.tokens
        assert g.raw_score == w.raw_score
        assert g.aug_score == w.aug_score
        assert g.finished == w.finished
        assert g.step_logprobs == w.step_logprobs
        assert g.step_penalties == w.step_penalties
