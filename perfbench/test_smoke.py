"""Smoke test of the benchmark harness at tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import story_problems
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

run.import_program()


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], corpus_sentences=6, corpus_words=40,
                               batch_stories=3, table_tokens=min(WORKLOADS[name].table_tokens, 60))


def result_of(capsys, monkeypatch, workload, trace: bool) -> dict:
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    code = run.run(workload, seed=3, seconds=0, trace=trace)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines
    return result


def test_spec_names_match_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(capsys, monkeypatch, name):
    result = result_of(capsys, monkeypatch, tiny(name), trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_too_few_samples_make_the_run_incorrect(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "DEADLINE_S", 0.0)  # no round may start
    assert run.run(tiny("cli-story"), seed=3, seconds=0, trace=False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1


def test_traced_run_prints_every_layer_metric(capsys, monkeypatch):
    result = result_of(capsys, monkeypatch, tiny("tie-heavy"), trace=True)
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["kernels.tied_at_cutoff"]["value"] > 1


def test_inputs_depend_only_on_the_seed(tmp_path):
    workload = tiny("batch-ngram")
    first = make_inputs(workload, 7, tmp_path / "a")
    again = make_inputs(workload, 7, tmp_path / "b")
    other = make_inputs(workload, 8, tmp_path / "c")
    assert first.corpus.read_bytes() == again.corpus.read_bytes()
    assert first.batch.read_bytes() == again.batch.read_bytes()
    assert first.corpus.read_bytes() != other.corpus.read_bytes()


GOOD = ('{"segments": [{"condition": "c1", "tokens": ["a", "<eos>"], "raw_score": -1.5, '
        '"aug_score": -3.5, "steps": [{"token": "a", "logprob": -1, "penalty": -2}, '
        '{"token": "<eos>", "logprob": -0.5, "penalty": 0}]}], "story": "a"}\n')


@pytest.mark.parametrize("text, conditions, complaint", [
    (GOOD.replace('"aug_score": -3.5', '"aug_score": NaN'), ["c1"], "strict JSON"),
    (GOOD, ["c1", "c2"], "segments, expected 2"),
    (GOOD.replace("-1.5", "-1.25"), ["c1"], "raw_score"),
    (GOOD.replace("-3.5", "-3.0"), ["c1"], "aug_score"),
    (GOOD.replace('"story": "a"', '"story": "b"'), ["c1"], "concatenation"),
])
def test_output_gate_rejects_bad_stories(text, conditions, complaint):
    assert story_problems(GOOD, ["c1"]) == []
    problems = story_problems(text, conditions)
    assert problems and complaint in problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cli-story",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
