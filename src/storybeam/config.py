"""Decoding settings and their rules, readable without numpy.

The CLI parser takes its defaults and ``--penalty`` choices from here, so
building it (and ``--help``) imports none of the decoder. Every entry point
that takes a count or a strength checks it with ``check_count`` or
``check_strength``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The penalty functions registered in ``diversity.PENALTIES``, in that order.
PENALTY_NAMES = ("hamming", "presence")


def _is_finite_number(value) -> bool:
    """True for an int or float, not a bool, that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an int, not a bool, >= 1."""
    if not (type(value) is int and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def check_strength(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite int or float, not a bool, >= 0."""
    if not (_is_finite_number(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding knobs: beam width, diversity strength, step budget, segments.

    The counts must pass ``check_count`` and the strength ``check_strength``.
    """

    beam_width: int = 3
    diversity_strength: float = 2.0
    max_len: int = 20
    num_segments: int = 5

    def __post_init__(self):
        for name in ("beam_width", "max_len", "num_segments"):
            check_count(name, getattr(self, name))
        check_strength("diversity_strength", self.diversity_strength)
