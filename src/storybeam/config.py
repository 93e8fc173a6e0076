"""Defaults, the count, strength and condition rules, and penalty names.

The CLI parser takes its defaults and ``--penalty`` choices from here, so
building it (and ``--help``) imports only this module: no dataclass, no
corpus and none of the decoder. Every entry point that takes a count or a
strength checks it with ``check_count`` or ``check_strength``, and every
one that takes a condition key (the decoder, ``SegmentResult``, both
scorers' ``score_step`` and a table row) checks it with ``check_condition``.
"""

from __future__ import annotations

import math

# The penalty functions registered in ``diversity.PENALTIES``, in that order.
PENALTY_NAMES = ("hamming", "presence")

# ``decoding.DecodeConfig``'s defaults, and ``corpus.build_vocabulary``'s.
BEAM_WIDTH = 3
DIVERSITY_STRENGTH = 2.0
MAX_LEN = 20
DEFAULT_MIN_COUNT = 4


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


def check_condition(condition) -> None:
    """Raise ``ValueError`` unless ``condition`` is a non-empty ``str`` that encodes as UTF-8."""
    if not (isinstance(condition, str) and condition):
        raise ValueError("condition must be a non-empty string")
    try:
        condition.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, as a non-UTF-8 argv byte becomes
        raise ValueError(f"condition {condition!r} is not valid Unicode") from None
