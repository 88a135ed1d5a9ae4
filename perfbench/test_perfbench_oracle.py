"""Hand-made cases for the benchmark's numpy oracle (no server, no program)."""

from __future__ import annotations

import numpy as np
import pytest

import oracle

# Four rows, two attributes; scores under w = (1, 1): 3, 3, 2, 4.
TIED = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0], [2.0, 2.0]])


def test_topk_orders_by_score_then_index():
    values = np.array([[0.1, 0.9], [0.8, 0.3], [0.5, 0.5], [0.9, 0.95]])
    orders, near = oracle.topk(values, np.array([[1.0, 0.0], [0.0, 1.0]]), 2)
    assert orders.tolist() == [[3, 1], [3, 0]]
    assert not near.any()


def test_topk_exact_tie_goes_to_smaller_index():
    orders, near = oracle.topk(TIED, np.array([[1.0, 1.0]]), 3)
    assert orders.tolist() == [[3, 0, 1]]
    assert not near.any()  # an exact tie is decided, not unverifiable


def test_topk_exact_tie_at_the_k_boundary():
    orders, _ = oracle.topk(TIED, np.array([[1.0, 1.0]]), 2)
    assert orders.tolist() == [[3, 0]]


def test_topk_near_tie_is_unverifiable():
    values = np.array([[1.0, 0.0], [1.0 + 1e-15, 0.0], [0.5, 0.0]])
    orders, near = oracle.topk(values, np.array([[1.0, 0.0]]), 1)
    assert orders.tolist() == [[1]]
    assert near.tolist() == [True]


def test_rank_of_best_counts_strictly_better_rows():
    ranks, near = oracle.rank_of_best(TIED, np.array([[1.0, 1.0]]), [2])
    assert ranks.tolist() == [4]
    assert not near.any()


def test_rank_of_best_exact_tie_counts_smaller_index_only():
    # Member 1 ties row 0 (smaller index): rank = 1 better + 1 tied + 1.
    ranks, _ = oracle.rank_of_best(TIED, np.array([[1.0, 1.0]]), [1])
    assert ranks.tolist() == [3]
    # Member 0 ties row 1 (larger index): only row 3 is ahead.
    ranks, _ = oracle.rank_of_best(TIED, np.array([[1.0, 1.0]]), [0])
    assert ranks.tolist() == [2]


def test_rank_of_best_takes_the_best_member():
    # Under (0, 1) member 3 scores 2 and row 0 ties it with a smaller index.
    ranks, _ = oracle.rank_of_best(TIED, np.array([[1.0, 1.0], [0.0, 1.0]]), [2, 3])
    assert ranks.tolist() == [1, 2]


def test_rank_of_best_near_tie_is_unverifiable():
    values = np.array([[1.0, 0.0], [1.0 - 1e-15, 0.0], [0.0, 1.0]])
    _, near = oracle.rank_of_best(values, np.array([[1.0, 0.0], [0.0, 1.0]]), [1])
    assert near.tolist() == [True, False]


def test_rank_regret_skips_unverifiable_functions():
    values = np.array([[1.0, 0.0], [1.0 - 1e-15, 0.0], [0.0, 1.0], [0.0, 0.5]])
    panel = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert oracle.rank_regret(values, [1, 3], panel) == (2, 1)


def test_mirror_insert_appends_and_delete_shifts():
    mirror = oracle.Mirror(np.arange(10.0).reshape(5, 2))
    assert mirror.insert([[10.0, 11.0]]) == [5]
    assert mirror.delete([3, 0, 3]) == 2
    assert mirror.values[:, 0].tolist() == [2.0, 4.0, 8.0, 10.0]
    with pytest.raises(IndexError):
        mirror.delete([4])
