"""Candidate scoring and top-B selection: the decoder's inner loop.

At every step the beam expands into ``hypothesis x generable-token``
candidates, each scored as ``hypothesis score + token log-probability +
strength * penalty[token]``. The best ``beam_width`` survive under a
strict total order: score descending, then token id ascending, then beam
position ascending. Laid out token-major (all rows of one token together,
tokens ascending), the flat candidate order is that tie-break order.
A partition finds the score of the last kept candidate (the cut-off), and
one stable sort orders the candidates at or above it, which stand in flat
order, so candidates at the cut-off keep the tie-break order. Identical
inputs therefore select identical candidates, whatever the number of ties.

The decoder hands the kernel only the columns that can still be selected
(``decoding._columns_that_can_win``). A segment's penalty is frozen and
depends only on the token, so the tokens have one order by ``strength *
penalty`` descending, then id ascending; and most score rows are one floor
value plus a few exceptions, which the decoder reads from each row's
summary, computed once per read-only row. Every exception plus the first
``B + E`` tokens of that order, ``E`` being the most exceptions of one row,
hold the exact top B. The kept columns stay in id order, so the flat order
is still the tie-break order, and the kernel's column indices map back to
token ids. When rounding merges two contributions into one score at the
cut, the id tie-break could reach past that prefix, so such a step keeps
every column.
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
    n = scores.size
    k = min(beam_width, n)
    if k == 0:
        top = np.empty(0, dtype=np.intp)
    else:
        cut = np.partition(scores, n - k)[n - k]
        top = (scores >= cut).nonzero()[0]  # in flat order, so a stable sort breaks ties
        top = top[np.argsort(-scores[top], kind="stable")[:k]]
    tokens, rows = np.divmod(top, n_rows)
    return rows, tokens + FIRST_GENERABLE_ID, scores[top]
