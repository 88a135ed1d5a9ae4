"""Independent numpy float64 oracle for every output the benchmark checks.

It shares no code with the program.  Ranks follow the program's
documented tie rule: a row's rank is the number of rows scoring strictly
higher, plus the rows with an equal score and a smaller index, plus one.
Top-k lists are best first under the same rule.

Scores are computed in float64 and can differ from the program's by a
few ulps.  A decision whose deciding score gap is positive but within
``REL_BAND`` of the function's score scale could go either way, so it
is counted as *unverifiable* and not judged.  An exact zero gap is a
tie, decided by the row index.
"""

from __future__ import annotations

import numpy as np

REL_BAND = 1e-12
_CHUNK = 256  # functions scored per GEMM


class Tally:
    """Counts of judged and unverifiable decisions, plus mismatches."""

    def __init__(self) -> None:
        self.judged = 0
        self.unverifiable = 0
        self.mismatches: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.judged += 1
        if not ok and len(self.mismatches) < 20:
            self.mismatches.append(what)
        elif not ok:
            self.mismatches.append("...")

    @property
    def correct(self) -> bool:
        return not self.mismatches


def _scale(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per function, the largest |score| any row could have."""
    return np.abs(values).sum(axis=1).max() * np.abs(weights).max(axis=1)


def _chunks(weights: np.ndarray):
    for lo in range(0, weights.shape[0], _CHUNK):
        yield lo, weights[lo : lo + _CHUNK]


def topk(values: np.ndarray, weights: np.ndarray, k: int):
    """Best-first top-k rows per function.

    Returns ``(orders, unverifiable)``: an ``(m, k)`` int64 array and an
    ``(m,)`` bool mask of functions with a near-tie among the first
    ``k + 1`` scores (inside the order or at the k boundary).
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    n = values.shape[0]
    k = min(int(k), n)
    orders = np.empty((weights.shape[0], k), dtype=np.int64)
    near = np.zeros(weights.shape[0], dtype=bool)
    band = REL_BAND * _scale(values, weights)
    for lo, chunk in _chunks(weights):
        scores = chunk @ values.T  # one contiguous row per function
        for j in range(chunk.shape[0]):
            s = scores[j]
            depth = min(k + 1, n)
            kth = np.partition(s, n - depth)[n - depth]
            cand = np.flatnonzero(s >= kth)
            ranked = cand[np.lexsort((cand, -s[cand]))][:depth]
            orders[lo + j] = ranked[:k]
            gaps = -np.diff(s[ranked])
            near[lo + j] = bool(np.any((gaps > 0) & (gaps <= band[lo + j])))
    return orders, near


def rank_of_best(values: np.ndarray, weights: np.ndarray, subset):
    """Per function, the rank of the best ``subset`` member.

    Returns ``(ranks, unverifiable)``.  A function is unverifiable when a
    row other than the best member scores within the band of it without
    tying it exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    members = np.unique(np.asarray(subset, dtype=np.int64))
    m = weights.shape[0]
    ranks = np.empty(m, dtype=np.int64)
    near = np.zeros(m, dtype=bool)
    band = REL_BAND * _scale(values, weights)
    index = np.arange(values.shape[0])
    for lo, chunk in _chunks(weights):
        scores = values @ chunk.T  # (n, c)
        member_scores = scores[members]
        # Best member: highest score, smallest index among equals
        # (members are sorted, so argmax's first hit is the smallest).
        best_pos = np.argmax(member_scores, axis=0)
        best_idx = members[best_pos]
        best = member_scores[best_pos, np.arange(chunk.shape[0])]
        diff = scores - best
        above = (diff > 0).sum(axis=0)
        tied = diff == 0
        tied_before = (tied & (index[:, None] < best_idx)).sum(axis=0)
        ranks[lo : lo + chunk.shape[0]] = above + tied_before + 1
        inside = np.abs(diff) <= band[lo : lo + chunk.shape[0]]
        near[lo : lo + chunk.shape[0]] = (inside & ~tied).any(axis=0)
    return ranks, near


def rank_regret(values: np.ndarray, subset, panel: np.ndarray) -> tuple[int, int]:
    """Largest rank-of-best over ``panel``; returns ``(regret, unverifiable)``.

    Near-tie functions are left out of the maximum and counted instead.
    """
    ranks, near = rank_of_best(values, panel, subset)
    judged = ranks[~near]
    return int(judged.max()) if judged.size else 0, int(near.sum())


class Mirror:
    """Client-side copy of a served matrix under keyed mutations.

    Inserts append rows; deletes remove rows by current index, and the
    rows after them move up (``np.delete`` semantics).
    """

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.array(values, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def insert(self, rows) -> list[int]:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        start = self.n
        self.values = np.vstack([self.values, rows])
        return list(range(start, self.n))

    def delete(self, indices) -> int:
        unique = np.unique(np.asarray(indices, dtype=np.int64))
        if unique.size and (unique[0] < 0 or unique[-1] >= self.n):
            raise IndexError("delete index out of range")
        self.values = np.delete(self.values, unique, axis=0)
        return int(unique.size)
