"""Shared fixtures and random-instance builders for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import storybeam
from storybeam.corpus import FIRST_GENERABLE_ID
from storybeam.decoding import expand_and_select
from storybeam.scoring import ScoreRow, TableScorer, summarize, table_from_dict

from reference import exhaustive_step_select


def run_python(script: str, *flags: str, **env: str | None) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports the same storybeam as this test.

    ``flags`` go to the interpreter, before ``-c``. Each keyword sets that
    environment variable, or unsets it when None.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(storybeam.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True,
                          timeout=60, env={k: v for k, v in env.items() if v is not None})


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


# The strengths a step case draws from: 1e-20 rounds away next to a log-probability.
STEP_STRENGTHS = (0.0, 1e-20, 1.0, 2.0)
# Weights an exception token may carry, relative to a floor weight of 1; a
# -inf floor row (floor weight 0) draws from all but the first.
EXCEPTION_WEIGHTS = (0.0, 0.5, 2.0, 3.0)
ROW_KINDS = ("dense", "floor", "tied", "-inf floor")


def exception_range(kind: str, n_generable: int) -> tuple[int, int]:
    """Fewest and most exceptions of a non-dense row kind.

    A floor row keeps one floor token, so 0-weight exceptions leave it some
    mass; a -inf floor row needs one exception to hold any.
    """
    return {"floor": (0, min(3, n_generable - 1)), "tied": (0, 0),
            "-inf floor": (1, min(3, n_generable))}[kind]


def log_row(weights) -> np.ndarray:
    """A step row from generable-token weights: PAD and BOS at -inf, then normalized logs.

    Equal weights give bitwise-equal scores, so a row of one repeated weight
    plus a few others is a floor-plus-exception row, as n-gram rows are.
    """
    weights = np.asarray(weights, dtype=np.float64)
    row = np.full(FIRST_GENERABLE_ID + len(weights), -np.inf)
    with np.errstate(divide="ignore"):
        row[FIRST_GENERABLE_ID:] = np.log(weights / weights.sum())
    return row


# How a step case hands a row to the step: dense, as its summary, or as a
# summary that lists a floor-valued token too and its ids in descending order
ROW_FORMS = ("dense", "summary", "padded summary")


def row_form(row: np.ndarray, form: str):
    """``row`` in one of ``ROW_FORMS``; every form expands to the same scores."""
    if form == "dense":
        return row
    summary = summarize(row, len(row))
    if form == "summary":
        return summary
    # summarize's floor is the last token's value, so that token is floor-valued
    ids = sorted({*summary.ids, len(row) - 1}, reverse=True)
    return ScoreRow(summary.floor, ids, row[ids], len(row))


def random_step_case(rng: np.random.Generator):
    """A random one-step selection problem: beam aug scores, step scores, penalty.

    Each live hypothesis's aug score sums the negated logprobs and
    penalties of 0-2 earlier steps, or is ``-inf``; the beam comes in no
    particular order. A row is dense, a floor with 0-3 exceptions, all
    tied, or a ``-inf`` floor with 1-3 exceptions, and one row object may
    serve several hypotheses. Each row object comes in one of ``ROW_FORMS``,
    so one step mixes dense rows and ``ScoreRow``s. The beam may be wider
    than the candidate set.
    """
    vocab_size = int(rng.integers(4, 17))
    n_generable = vocab_size - FIRST_GENERABLE_ID
    n_hyps = int(rng.integers(1, 5))
    beam_aug = [-float(rng.random(2 * int(rng.integers(0, 3))).sum())
                for _ in range(n_hyps)]
    if rng.random() < 0.1:
        beam_aug[int(rng.integers(n_hyps))] = -np.inf
    scores = []
    for _ in range(n_hyps):
        kind = rng.choice(ROW_KINDS, p=[0.2, 0.4, 0.2, 0.2])  # one dense row keeps all columns
        if kind == "dense":
            weights = rng.dirichlet(np.ones(n_generable))
        else:
            weights = np.full(n_generable, float(kind != "-inf floor"))
            fewest, most = exception_range(kind, n_generable)
            where = rng.choice(n_generable, size=int(rng.integers(fewest, most + 1)),
                               replace=False)
            weights[where] = rng.choice(EXCEPTION_WEIGHTS[kind == "-inf floor":], size=len(where))
        scores.append(log_row(weights))
    if n_hyps > 1 and rng.random() < 0.3:  # one row object, as the n-gram model shares per context
        shared = rng.choice(n_hyps, size=int(rng.integers(2, n_hyps + 1)), replace=False)
        for i in shared:
            scores[i] = scores[shared[0]]
    forms = {id(row): row_form(row, str(rng.choice(ROW_FORMS)))  # a shared row counts once
             for row in scores}
    scores = [forms[id(row)] for row in scores]
    penalty = np.zeros(vocab_size)
    penalty[4:] = -rng.integers(0, 3, size=vocab_size - 4).astype(float)
    strength = float(rng.choice(STEP_STRENGTHS))
    beam_width = int(rng.integers(1, 7))
    if rng.random() < 0.1:
        beam_width = n_hyps * n_generable + int(rng.integers(1, 4))
    return beam_aug, scores, penalty, strength, beam_width


@st.composite
def step_cases(draw):
    """``random_step_case``'s space as a hypothesis strategy, so failures shrink."""
    vocab_size = draw(st.integers(4, 16))
    n_generable = vocab_size - FIRST_GENERABLE_ID
    n_hyps = draw(st.integers(1, 4))
    beam_aug = draw(st.lists(st.sampled_from([0.0, -0.5, -1.0, -1.5, -np.inf]),
                             min_size=n_hyps, max_size=n_hyps))
    scores = []
    for _ in range(n_hyps):
        reuse = draw(st.sampled_from([None, *range(len(scores))]))
        if reuse is not None:  # one row object shared by several hypotheses
            scores.append(scores[reuse])
            continue
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "dense":
            weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n_generable,
                                    max_size=n_generable))
        else:
            weights = [float(kind != "-inf floor")] * n_generable
            fewest, most = exception_range(kind, n_generable)
            where = draw(st.lists(st.integers(0, n_generable - 1), unique=True,
                                  min_size=fewest, max_size=most))
            for i in where:
                weights[i] = draw(st.sampled_from(EXCEPTION_WEIGHTS[kind == "-inf floor":]))
        scores.append(row_form(log_row(weights), draw(st.sampled_from(ROW_FORMS))))
    penalty = np.zeros(vocab_size)
    penalty[4:] = [-float(draw(st.integers(0, 2))) for _ in range(vocab_size - 4)]
    strength = draw(st.sampled_from(STEP_STRENGTHS))
    beam_width = draw(st.integers(1, n_hyps * n_generable + 3))
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
