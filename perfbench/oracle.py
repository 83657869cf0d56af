"""Independent correctness oracle: a numpy full scan over the live ids.

The scan shares no code with the index.  It scores every live row with
the same float64 arithmetic the library's scoring contract fixes
(elementwise multiply, then a row sum), ranks by the canonical
``(-score, id)`` order, and compares ids and score bits exactly.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np


def scan_top_k(values: np.ndarray, live_ids: np.ndarray, weights: np.ndarray, k: int) -> tuple:
    """``(ids, scores)`` of the top ``k`` live rows under ``weights``."""
    ids = np.asarray(live_ids, dtype=np.int64)
    scores = np.sum(values[ids] * np.asarray(weights, dtype=np.float64), axis=1)
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def mismatch(result, values: np.ndarray, live_ids: np.ndarray, weights: np.ndarray, k: int) -> Optional[str]:
    """Why ``result`` differs from the scan, or ``None`` when bit-identical."""
    want_ids, want_scores = scan_top_k(values, live_ids, weights, k)
    got_ids = np.asarray(result.ids, dtype=np.int64)
    got_scores = np.asarray(result.scores, dtype=np.float64)
    if got_ids.shape != want_ids.shape or not np.array_equal(got_ids, want_ids):
        return f"ids {got_ids.tolist()} != scan {want_ids.tolist()}"
    if got_scores.view(np.uint64).tolist() != want_scores.view(np.uint64).tolist():
        return f"scores {got_scores.tolist()} != scan {want_scores.tolist()}"
    return None


def check_all(pairs: Iterable, values: np.ndarray, live_ids: np.ndarray, k: int) -> list:
    """Mismatch messages for ``(weights, result)`` pairs (empty = correct)."""
    return [
        message
        for weights, result in pairs
        if (message := mismatch(result, values, live_ids, weights, k)) is not None
    ]
