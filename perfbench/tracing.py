"""In-process replay of one round of CLI operations, optionally traced.

The replay makes the same library calls the CLI makes. When traced, it
times each layer at its public entry point from outside the program:

* ``Corpus.from_file`` + ``build_vocabulary``, ``train_ngram``,
  ``dump_ngram`` and ``load_scorer`` are timed where they are called;
* a proxy scorer times every ``score_step``;
* a wrapper times the penalty function;
* ``storybeam.decoding.select_top_candidates`` is patched for the
  duration of the replay;
* ``story_to_json`` is timed where it is called.

Nothing inside ``src/`` is changed. Counting done by the wrappers (tied
candidates, bytes) is timed separately as bookkeeping, so it is charged
to no layer.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from storybeam import decoding
from storybeam.corpus import FIRST_GENERABLE_ID, Corpus, build_vocabulary
from storybeam.decoding import DecodeConfig, inter_sentence_dbs, story_to_json
from storybeam.diversity import get_penalty_fn
from storybeam.scoring import dump_ngram, load_scorer, train_ngram
from workloads import ALPHA, BEAM_WIDTH, MAX_LEN, MIN_COUNT, ORDER


class Layers:
    """Busy seconds, call counts and work counters per layer."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.per_call: dict[str, list[float]] = defaultdict(list)
        self.candidates = 0
        self.kernel_bytes = 0
        self.tied_at_cutoff = 0
        self.load_bytes = 0
        self.json_bytes = 0
        self.stories = 0
        self.segment_steps: list[int] = []
        self.batch_busy: dict[str, float] = {}  # busy seconds of the --batch op alone
        self.batch_wall = 0.0

    def add(self, layer: str, seconds: float) -> None:
        self.busy[layer] += seconds
        self.calls[layer] += 1
        self.per_call[layer].append(seconds)


class ProxyScorer:
    """Forwards to a scorer and times each ``score_step``."""

    def __init__(self, inner, layers: Layers):
        self._inner = inner
        self._layers = layers

    @property
    def vocab(self):
        return self._inner.vocab

    def score_step(self, condition, prefix):
        start = perf_counter()
        scores = self._inner.score_step(condition, prefix)
        self._layers.add("scoring.score_step", perf_counter() - start)
        return scores


def traced_penalty(penalty_fn, layers: Layers):
    def penalty(segments, vocab):
        start = perf_counter()
        values = penalty_fn(segments, vocab)
        layers.add("diversity.penalty", perf_counter() - start)
        return values
    return penalty


def traced_select(select, layers: Layers):
    def select_top_candidates(base_aug, logprobs, penalty, strength, unfinished_idx,
                              carry_scores, carry_idx, beam_width):
        start = perf_counter()
        result = select(base_aug, logprobs, penalty, strength, unfinished_idx,
                        carry_scores, carry_idx, beam_width)
        done = perf_counter()
        layers.add("kernels.select", done - start)
        # counted outside the timed region, with the kernel's own arithmetic
        expanded = (base_aug[:, None] + logprobs[:, FIRST_GENERABLE_ID:]) \
            + (strength * penalty[FIRST_GENERABLE_ID:])[None, :]
        scores = np.concatenate([expanded.ravel(), carry_scores])
        sel_aug = result[2]
        if len(sel_aug):
            layers.tied_at_cutoff += int(np.count_nonzero(scores == sel_aug[-1]))
        layers.candidates += scores.size
        layers.kernel_bytes += sum(a.nbytes for a in (
            base_aug, logprobs, penalty, unfinished_idx, carry_scores, carry_idx, *result))
        layers.busy["trace.bookkeeping"] += perf_counter() - done
        return result
    return select_top_candidates


def _timed(layers: Layers | None, layer: str, fn, *args):
    if layers is None:
        return fn(*args)
    start = perf_counter()
    value = fn(*args)
    layers.add(layer, perf_counter() - start)
    return value


def replay(workload, inputs, layers: Layers | None = None) -> dict[str, str]:
    """Run one round in-process, in the CLI's order; return outputs keyed like the CLI's.

    Keys: ``model`` (the dumped n-gram model), ``single/<i>`` (story
    ``i`` of ``inputs.single_stories``) and ``batch/<i>``.
    """
    outputs: dict[str, str] = {}
    penalty_fn = get_penalty_fn("hamming")
    original_select = decoding.select_top_candidates
    if layers is not None:
        penalty_fn = traced_penalty(penalty_fn, layers)
        decoding.select_top_candidates = traced_select(original_select, layers)
    try:
        def build(path):
            corpus = Corpus.from_file(path)
            return corpus, build_vocabulary(corpus, MIN_COUNT)

        def train() -> str:
            corpus, vocab = _timed(layers, "corpus.build", build, inputs.corpus)
            model = _timed(layers, "scoring.train", train_ngram, corpus, vocab, ORDER, ALPHA)
            return _timed(layers, "scoring.dump", dump_ngram, model)

        table_text = inputs.table.read_text(encoding="utf-8") if inputs.table else None

        def load():
            model_text = table_text or outputs["model"]
            scorer = _timed(layers, "scoring.load", load_scorer, model_text)
            if layers is not None:
                layers.load_bytes += len(model_text.encode("utf-8"))
                return ProxyScorer(scorer, layers)
            return scorer

        def decode(scorer, conditions) -> str:
            config = DecodeConfig(beam_width=BEAM_WIDTH, diversity_strength=workload.strength,
                                  max_len=MAX_LEN, num_segments=len(conditions))
            result = _timed(layers, "decoding.decode", inter_sentence_dbs,
                            scorer, list(conditions), scorer.vocab, config, penalty_fn)
            if layers is not None:
                layers.stories += 1
                layers.segment_steps.extend(len(seg.trace) for seg in result.segments)
            text = _timed(layers, "decoding.serialize", story_to_json, result, scorer.vocab)
            if layers is not None:
                layers.json_bytes += len(text.encode("utf-8"))
            return text

        for i, conditions in enumerate(inputs.single_stories):
            outputs["model"] = train()
            outputs[f"single/{i}"] = decode(load(), conditions)
        before = dict(layers.busy) if layers is not None else {}
        start = perf_counter()
        scorer = load()
        for i, conditions in enumerate(inputs.batch_stories):
            outputs[f"batch/{i}"] = decode(scorer, conditions)
        if layers is not None:
            layers.batch_wall = perf_counter() - start
            layers.batch_busy = {k: v - before.get(k, 0.0) for k, v in layers.busy.items()}
    finally:
        decoding.select_top_candidates = original_select
    return outputs


def layer_seconds(busy: dict[str, float]) -> dict[str, float]:
    """Busy seconds per layer; decode time outside its nested layers is ``decoding.self``."""
    busy = defaultdict(float, busy)
    nested = ("scoring.score_step", "kernels.select", "diversity.penalty", "trace.bookkeeping")
    seconds = {layer: busy[layer] for layer in (
        "corpus.build", "scoring.train", "scoring.dump", "scoring.load", *nested,
        "decoding.serialize")}
    seconds["decoding.self"] = busy["decoding.decode"] - sum(busy[k] for k in nested)
    return seconds


def layer_metrics(layers: Layers) -> dict:
    """Per-layer metrics of a traced replay, as (value, unit).

    Decode-layer times and counts are per story; load, dump, train and
    corpus build are medians per call.
    """
    busy, calls = layers.busy, layers.calls
    stories = max(layers.stories, 1)
    self_s = layer_seconds(busy)["decoding.self"]
    kernel_calls = max(calls["kernels.select"], 1)
    steps = layers.segment_steps or [0]

    def median(layer: str) -> float:
        return statistics.median(layers.per_call[layer] or [0.0])

    metrics = {
        "scoring.load_s": (median("scoring.load"), "s"),
        "scoring.load_mib_per_s": (
            layers.load_bytes / 2**20 / max(busy["scoring.load"], 1e-12), "MiB/s"),
        "scoring.dump_s": (median("scoring.dump"), "s"),
        "scoring.train_s": (median("scoring.train"), "s"),
        "corpus.build_s": (median("corpus.build"), "s"),
        "scoring.score_step_calls": (calls["scoring.score_step"] / stories, "count"),
        "scoring.score_step_us": (
            busy["scoring.score_step"] / max(calls["scoring.score_step"], 1) * 1e6, "us"),
        "kernels.select_calls": (calls["kernels.select"] / stories, "count"),
        "kernels.select_us": (busy["kernels.select"] / kernel_calls * 1e6, "us"),
        "kernels.candidates_per_call": (layers.candidates / kernel_calls, "count"),
        "kernels.ns_per_candidate": (
            busy["kernels.select"] / max(layers.candidates, 1) * 1e9, "ns"),
        "kernels.bytes_per_call": (layers.kernel_bytes / kernel_calls, "B"),
        "kernels.tied_at_cutoff": (layers.tied_at_cutoff / kernel_calls, "count"),
        "diversity.penalty_calls": (calls["diversity.penalty"] / stories, "count"),
        "diversity.penalty_s": (busy["diversity.penalty"] / stories, "s"),
        "decoding.self_s": (self_s / stories, "s"),
        "decoding.steps_per_segment": (sum(steps) / len(steps), "count"),
        "decoding.max_len_stop_ratio": (sum(s == MAX_LEN for s in steps) / len(steps), "ratio"),
        "decoding.serialize_s": (busy["decoding.serialize"] / stories, "s"),
        "decoding.json_bytes": (layers.json_bytes / stories, "B"),
    }
    return metrics
