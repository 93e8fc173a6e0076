"""Decoding settings, readable without numpy.

The CLI parser takes its defaults and ``--penalty`` choices from here, so
building it (and ``--help``) imports none of the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ngram import _is_finite_number

# The penalty functions registered in ``diversity.PENALTIES``, in that order.
PENALTY_NAMES = ("hamming", "presence")


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding knobs: beam width, diversity strength, step budget, segments.

    The counts must be ints (not bools) >= 1, and the strength an int or
    float, not a bool, that is finite and >= 0.
    """

    beam_width: int = 3
    diversity_strength: float = 2.0
    max_len: int = 20
    num_segments: int = 5

    def __post_init__(self):
        for name in ("beam_width", "max_len", "num_segments"):
            value = getattr(self, name)
            if not (type(value) is int and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        strength = self.diversity_strength
        if not (_is_finite_number(strength) and strength >= 0):
            raise ValueError(f"diversity_strength must be finite and >= 0, got {strength!r}")
