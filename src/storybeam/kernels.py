"""Candidate scoring and top-B selection: the decoder's inner loop.

At every step the beam expands into ``hypothesis x generable-token``
candidates, each scored as ``hypothesis score + token log-probability +
strength * penalty[token]``. The best ``beam_width`` survive under a
strict total order: score descending, then token id ascending, then beam
position ascending. Laid out token-major (all rows of one token together,
tokens ascending), the flat candidate order is that tie-break order, so
one stable sort on score selects identical candidates for identical inputs.
"""

from __future__ import annotations

import numpy as np

from .corpus import FIRST_GENERABLE_ID


def select_top_candidates(base_aug: np.ndarray, logprobs: np.ndarray,
                          penalty: np.ndarray, strength: float,
                          unfinished_idx: np.ndarray, carry_scores: np.ndarray,
                          carry_idx: np.ndarray, beam_width: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (beam positions, token ids, scores) of the kept candidates, best first.

    ``unfinished_idx``, ``carry_scores`` and ``carry_idx`` are kept only for
    the signature the benchmark's tracing wrapper (``perfbench/tracing.py``)
    forwards; anything but ``arange(n_rows)`` and two empty arrays raises
    ``ValueError``.
    """
    n_rows = logprobs.shape[0]
    if not np.array_equal(unfinished_idx, np.arange(n_rows)):
        raise ValueError("unfinished_idx must be arange(n_rows): every row is expanded")
    if len(carry_scores) or len(carry_idx):
        raise ValueError("carryovers are not supported: beams hold only live hypotheses")
    expanded = (base_aug[:, None] + logprobs[:, FIRST_GENERABLE_ID:]) \
        + (strength * penalty[FIRST_GENERABLE_ID:])[None, :]
    scores = expanded.T.ravel()
    top = np.argsort(-scores, kind="stable")[:beam_width]
    tokens, rows = np.divmod(top, n_rows)
    return rows, tokens + FIRST_GENERABLE_ID, scores[top]
