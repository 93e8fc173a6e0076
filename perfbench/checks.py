"""Output gate: every story the program writes must pass these checks."""

from __future__ import annotations

import json
import math

STRUCTURAL_TOKENS = ("<pad>", "<bos>", "<eos>")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in output")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity literals Python accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(total: float, stated: float, magnitude: float) -> bool:
    # printed floats carry 9 significant digits, so each term and the stated
    # score may each be off by 5e-9 of their size
    return abs(total - stated) <= 1e-8 * magnitude + 1e-12


def story_problems(text: str, conditions) -> list[str]:
    """Return what is wrong with one story document (empty when it is valid)."""
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    segments = doc.get("segments") if isinstance(doc, dict) else None
    if not isinstance(segments, list):
        return ["no segments list"]
    if len(segments) != len(conditions):
        return [f"{len(segments)} segments, expected {len(conditions)}"]
    problems = []
    words = []
    for i, (seg, condition) in enumerate(zip(segments, conditions)):
        try:
            steps = seg["steps"]
            tokens = seg["tokens"]
            logprobs = [float(s["logprob"]) for s in steps]
            penalties = [float(s["penalty"]) for s in steps]
            raw, aug = float(seg["raw_score"]), float(seg["aug_score"])
            step_tokens = [s["token"] for s in steps]
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"segment {i}: malformed ({exc!r})")
            continue
        if seg.get("condition") != condition:
            problems.append(f"segment {i}: condition {seg.get('condition')!r} != {condition!r}")
        if tokens != step_tokens or not tokens:
            problems.append(f"segment {i}: tokens do not match steps")
        magnitude = sum(abs(x) for x in logprobs + penalties) + abs(raw) + abs(aug)
        if not all(math.isfinite(x) for x in logprobs + penalties):
            problems.append(f"segment {i}: non-finite step score")
        if not _close(sum(logprobs), raw, magnitude):
            problems.append(f"segment {i}: raw_score {raw} != sum of logprobs {sum(logprobs)}")
        if not _close(sum(logprobs) + sum(penalties), aug, magnitude):
            problems.append(f"segment {i}: aug_score {aug} does not replay")
        words.extend(t for t in tokens if t not in STRUCTURAL_TOKENS)
    if doc.get("story") != " ".join(words):
        problems.append("story text is not the concatenation of the segments")
    return problems
