"""Surface diversity statistics for generated stories.

Quantifies how repetitive a story is across its segments: distinct-n
ratios, mean pairwise Jaccard overlap of segment token sets, and the
number of segment pairs that are outright identical. All statistics are
computed over non-special tokens.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations
from typing import Sequence

from .corpus import SPECIAL_TOKENS, _Record


class DiversityReport(_Record):
    distinct_1: float
    distinct_2: float
    mean_pairwise_jaccard: float
    repeated_segment_pairs: int

    def __init__(self, distinct_1: float, distinct_2: float, mean_pairwise_jaccard: float,
                 repeated_segment_pairs: int):
        self.__dict__.update(distinct_1=distinct_1, distinct_2=distinct_2,
                             mean_pairwise_jaccard=mean_pairwise_jaccard,
                             repeated_segment_pairs=repeated_segment_pairs)


def _distinct_n(segments: list[tuple[str, ...]], n: int) -> float:
    total = 0
    unique: set[tuple[str, ...]] = set()
    for tokens in segments:
        for i in range(len(tokens) - n + 1):
            unique.add(tokens[i:i + n])
            total += 1
    return len(unique) / total if total else 0.0


def _jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0  # two empty segments are identical
    union = a | b
    return len(a & b) / len(union)


def diversity_report(segments: Sequence[Sequence[str]]) -> DiversityReport:
    """Compute the four diversity statistics over segment token sequences.

    Special tokens are dropped before counting. N-grams never span
    segment boundaries. With fewer than two segments the pairwise
    statistics degenerate to 0.
    """
    stripped = [tuple(t for t in seg if t not in SPECIAL_TOKENS) for seg in segments]
    pairs = list(combinations(range(len(stripped)), 2))
    if pairs:
        sets = [set(seg) for seg in stripped]
        # fsum keeps the mean exactly invariant under segment permutation
        mean_jaccard = math.fsum(_jaccard(sets[i], sets[j]) for i, j in pairs) / len(pairs)
    else:
        mean_jaccard = 0.0
    identical = Counter(stripped)
    repeated = sum(k * (k - 1) // 2 for k in identical.values())
    return DiversityReport(
        distinct_1=_distinct_n(stripped, 1),
        distinct_2=_distinct_n(stripped, 2),
        mean_pairwise_jaccard=mean_jaccard,
        repeated_segment_pairs=repeated,
    )


def report_to_json(report: DiversityReport) -> str:
    """Fixed field order, floats at 9 significant digits."""
    return (
        "{"
        f'"distinct_1": {format(report.distinct_1, ".9g")}, '
        f'"distinct_2": {format(report.distinct_2, ".9g")}, '
        f'"mean_pairwise_jaccard": {format(report.mean_pairwise_jaccard, ".9g")}, '
        f'"repeated_segment_pairs": {json.dumps(report.repeated_segment_pairs)}'
        "}\n"
    )
