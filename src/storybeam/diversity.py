"""Cross-segment diversity penalties.

Previously emitted segments are summarized as a bag of words (special
tokens excluded); a penalty function turns that history into a
non-positive per-token vector that the decoder adds, scaled by the
diversity strength, to each candidate's score. Any function with the
``PenaltyFn`` signature can be plugged in as long as its output passes
``validate_penalty``.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from .config import PENALTY_NAMES
from .corpus import NUM_SPECIALS, Vocabulary

# (previous segments as token-id sequences, vocabulary) -> penalty vector
PenaltyFn = Callable[[Sequence[Sequence[int]], Vocabulary], np.ndarray]


def bag_of_words(segments: Sequence[Sequence[int]]) -> Counter[int]:
    """Occurrence counts of non-special tokens across all segments."""
    bag: Counter[int] = Counter()
    for segment in segments:
        bag.update(t for t in segment if t >= NUM_SPECIALS)
    return bag


def zero_penalty(vocab_size: int) -> np.ndarray:
    return np.zeros(vocab_size, dtype=np.float64)


def validate_penalty(values: np.ndarray, vocab_size: int) -> None:
    """Raise ``ValueError`` unless ``values`` is a legal penalty vector."""
    if values.shape != (vocab_size,):
        raise ValueError(f"penalty has shape {values.shape}, expected ({vocab_size},)")
    if not np.isfinite(values).all():
        raise ValueError("penalty entries must be finite")
    if (values > 0).any():
        raise ValueError("penalty entries must be <= 0")
    if values[:NUM_SPECIALS].any():
        raise ValueError("special tokens must carry zero penalty")


def hamming_diversity(segments: Sequence[Sequence[int]], vocab: Vocabulary) -> np.ndarray:
    """Penalty proportional to previous occurrences: -count per repeated token."""
    values = zero_penalty(len(vocab))
    for token, count in bag_of_words(segments).items():
        values[token] = -float(count)
    return values


def presence_diversity(segments: Sequence[Sequence[int]], vocab: Vocabulary) -> np.ndarray:
    """Binary variant: -1 for any token already seen, regardless of count."""
    values = zero_penalty(len(vocab))
    for token in bag_of_words(segments):
        values[token] = -1.0
    return values


PENALTIES: dict[str, PenaltyFn] = dict(
    zip(PENALTY_NAMES, (hamming_diversity, presence_diversity), strict=True))


def get_penalty_fn(name: str) -> PenaltyFn:
    try:
        return PENALTIES[name]
    except KeyError:
        known = ", ".join(sorted(PENALTIES))
        raise ValueError(f"unknown penalty {name!r}; available: {known}") from None
