"""Candidate scoring and top-B selection: the decoder's inner loop.

At every step the beam expands into ``unfinished x generable-token``
candidates (plus any finished carryovers passed in), each scored as
``hypothesis score + token log-probability + strength * penalty``. The best
``beam_width`` survive under a strict total order: score descending,
then token id ascending, then incoming beam position ascending, with
carryovers using token -1 so they win score ties. The whole candidate
set is built with numpy and ranked by one ``np.lexsort`` over those
three keys, so identical inputs always select identical candidates.
"""

from __future__ import annotations

import numpy as np

from .corpus import FIRST_GENERABLE_ID


# The decoder's beams hold only live hypotheses, so it always passes empty
# carry_scores/carry_idx. The parameters stay because the benchmark's
# tracing wrapper (perfbench/tracing.py) forwards all eight arguments.
def select_top_candidates(base_aug: np.ndarray, logprobs: np.ndarray,
                          penalty: np.ndarray, strength: float,
                          unfinished_idx: np.ndarray, carry_scores: np.ndarray,
                          carry_idx: np.ndarray, beam_width: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (beam positions, token ids, scores) of the kept candidates.

    Token id -1 marks a finished hypothesis carried over unchanged.
    Results are ordered best-first under the strict total order described
    in the module docstring.
    """
    n_rows, vocab_size = logprobs.shape
    n_generable = vocab_size - FIRST_GENERABLE_ID
    if n_rows:
        expanded = (base_aug[:, None] + logprobs[:, FIRST_GENERABLE_ID:]) \
            + (strength * penalty[FIRST_GENERABLE_ID:])[None, :]
        exp_scores = expanded.ravel()
        exp_tokens = np.tile(
            np.arange(FIRST_GENERABLE_ID, vocab_size, dtype=np.int64), n_rows)
        exp_beams = np.repeat(unfinished_idx, n_generable)
    else:
        exp_scores = np.empty(0, dtype=np.float64)
        exp_tokens = np.empty(0, dtype=np.int64)
        exp_beams = np.empty(0, dtype=np.int64)
    scores = np.concatenate([exp_scores, carry_scores])
    tokens = np.concatenate(
        [exp_tokens, np.full(carry_scores.shape[0], -1, dtype=np.int64)])
    beams = np.concatenate([exp_beams, carry_idx])
    # lexsort: last key is primary
    order = np.lexsort((beams, tokens, -scores))
    top = order[:min(beam_width, scores.shape[0])]
    return beams[top], tokens[top], scores[top]
