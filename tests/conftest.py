"""Shared fixtures and random-instance builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from storybeam.decoding import expand_and_select
from storybeam.oracle import exhaustive_step_select
from storybeam.scoring import TableScorer, table_from_dict


# Settings that break DecodeConfig's rules, one {field: value} each. Every
# entry point that takes a count or a strength must reject each value.
INVALID_SETTINGS = [
    {"beam_width": 0},
    {"diversity_strength": -0.5},
    {"max_len": 0},
    {"num_segments": 0},
    {"diversity_strength": math.inf},
    {"diversity_strength": math.nan},
    # accepted, or OverflowError, before ints were required: max_len 2.5 ran 3 steps
    {"diversity_strength": 10 ** 400},
    {"diversity_strength": True},
    {"diversity_strength": "2.0"},
    {"diversity_strength": None},
    {"beam_width": 2.5},
    {"beam_width": True},
    {"beam_width": 3.0},
    {"max_len": 2.5},
    {"max_len": False},
    {"num_segments": 2.0},
    {"num_segments": True},
]
INVALID_STRENGTHS = [value for setting in INVALID_SETTINGS
                     for field, value in setting.items() if field == "diversity_strength"]
INVALID_COUNTS = [value for setting in INVALID_SETTINGS
                  for field, value in setting.items() if field != "diversity_strength"]


def invalid_arguments(count_name: str) -> list:
    """``(parameter, value)`` cases for an entry point's count and its ``strength``."""
    pairs = ([(count_name, value) for value in INVALID_COUNTS]
             + [("strength", value) for value in INVALID_STRENGTHS])
    return [pytest.param(name, value, id=f"{name}={value!r:.12}") for name, value in pairs]


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
    """A random one-step selection problem: beam aug scores, step scores, penalty.

    Each live hypothesis's aug score sums the negated logprobs and
    penalties of 0-2 earlier steps; the beam comes in no particular order.
    """
    vocab_size = int(rng.integers(4, 9))
    n_hyps = int(rng.integers(1, 4))
    beam_aug = [-float(rng.random(2 * int(rng.integers(0, 3))).sum())
                for _ in range(n_hyps)]
    scores = []
    for _ in range(n_hyps):
        row = np.full(vocab_size, -np.inf)
        row[2:] = np.log(rng.dirichlet(np.ones(vocab_size - 2)))
        scores.append(row)
    penalty = np.zeros(vocab_size)
    penalty[4:] = -rng.integers(0, 3, size=vocab_size - 4).astype(float)
    strength = float(rng.choice([0.0, 1.0, 2.0]))
    beam_width = int(rng.integers(1, 7))
    return beam_aug, scores, penalty, strength, beam_width


def assert_selects_like_oracle(beam_aug, scores, penalty, strength, beam_width):
    """Run one step through the engine and the oracle; both must select the same.

    Equal means equal beam positions, token ids and scores, in order.
    Returns the engine's selection.
    """
    got = expand_and_select(beam_aug, scores, penalty, strength, beam_width)
    want = exhaustive_step_select(beam_aug, scores, penalty, strength, beam_width)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    return got
