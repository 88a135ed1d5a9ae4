"""Seeded inputs for every workload, generated apart from the program.

Everything here is plain numpy.  The same ``--seed`` gives the same
inputs; constants that are not derived from the seed are fixed on
purpose and documented next to them (see README.md, "Inputs").
"""

from __future__ import annotations

import numpy as np

# --- represent ---------------------------------------------------------
# A fixed corpus with fixed K-SETr seeds: the quality metrics (rep_size,
# rank_regret) are means over it, so they repeat exactly from run to run
# and seed to seed.  The seed orders the corpus and draws the sampled
# rank-regret estimator's panel.
REPRESENT_N = 5000
REPRESENT_K = 10
REPRESENT_KINDS = (
    ("independent", 3),
    ("correlated", 3),
    ("anticorrelated", 3),
    ("independent", 4),
    ("correlated", 4),
    ("anticorrelated", 4),
)
CORPUS_SEED = 1907
WARMUP = ("independent", 3, 2000)  # kind, d, n of the untimed warm-up op
ESTIMATOR_FUNCTIONS = 1000  # functions per sampled rank-regret call
PANEL_FUNCTIONS = 2000  # held-out panel scored by the oracle only
PANEL_SEED = 4711

# --- serving -----------------------------------------------------------
SERVE_N = 20000
SERVE_D = 4
SERVE_K = 10  # top-k depth
# Representative order.  At k=10 this matrix drifts under churn into
# states where MDRC engages its max_cells budget path; from then on the
# maintained view recomputes from scratch (~1-2 s) on every refresh, on
# some seeds and not others.  k=50 keeps the view on its repair path.
SERVE_REP_K = 50
MATRIX_SEED = 2019
RANK_SUBSET_SIZE = 10
RANK_SUBSETS = 4  # distinct /v1/rank subsets (same subset => coalescable)
BLOCK = 100  # requests per connection block; runs stop at block ends
REPRESENTATIVES_PER_BLOCK = 2  # /v1/representative requests per block, at seeded places

# serve_churn
HISTORY_MUTATIONS = 120  # replayed from the WAL at every boot
HISTORY_SEED = 2020  # fixed: every run recovers the same state
MAX_BATCH_ROWS = 8


def dataset(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    """Classic skyline-benchmark distributions on ``[0, 1]^d``."""
    rng = np.random.default_rng(seed)
    if kind == "independent":
        return rng.random((n, d))
    if kind == "correlated":
        quality = rng.random((n, 1))
        return np.clip(quality + rng.normal(0.0, 0.15, size=(n, d)), 0.0, 1.0)
    if kind == "anticorrelated":
        base = rng.random((n, d))
        shift = (d / 2.0 - base.sum(axis=1, keepdims=True)) / d
        return np.clip(base + shift + rng.normal(0.0, 0.1, size=(n, d)), 0.0, 1.0)
    raise ValueError(f"unknown dataset kind {kind!r}")


def functions(d: int, count: int, seed: int) -> np.ndarray:
    """Uniform unit weight vectors on the positive orthant."""
    raw = np.abs(np.random.default_rng(seed).normal(size=(count, d)))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def represent_corpus() -> list[dict]:
    return [
        {
            "name": f"{kind}-{d}d",
            "kind": kind,
            "d": d,
            "values": dataset(kind, REPRESENT_N, d, CORPUS_SEED + i),
        }
        for i, (kind, d) in enumerate(REPRESENT_KINDS)
    ]


def represent_order(seed: int) -> list[int]:
    """The seed's processing order of the corpus."""
    return [int(i) for i in np.random.default_rng(seed).permutation(len(REPRESENT_KINDS))]


def rrr_seed(idx: int) -> int:
    """The K-SETr seed of corpus entry ``idx``."""
    return CORPUS_SEED + 100 + idx


def estimator_seed(seed: int, idx: int) -> int:
    """The sampled rank-regret estimator's seed for corpus entry ``idx``."""
    return seed * 100 + 50 + idx


def held_out_panel(d: int) -> np.ndarray:
    return functions(d, PANEL_FUNCTIONS, PANEL_SEED + d)


def serve_matrix() -> np.ndarray:
    return dataset("independent", SERVE_N, SERVE_D, MATRIX_SEED)


def rank_subsets(seed: int) -> list[list[int]]:
    rng = np.random.default_rng([seed, 1])
    return [
        sorted(int(i) for i in rng.choice(SERVE_N // 2, RANK_SUBSET_SIZE, replace=False))
        for _ in range(RANK_SUBSETS)
    ]


def read_block(seed: int, stream: int) -> list[dict]:
    """One block of read requests for one connection.

    Each request holds 1-4 functions; about half are top-k, the rest
    rank-of-best against one of a few subsets, and
    ``REPRESENTATIVES_PER_BLOCK`` are ``/v1/representative``.  Rank
    subsets index the lower half of the matrix, which churn never
    deletes from (see :func:`churn_mutation`).
    """
    rng = np.random.default_rng([seed, 2, stream])
    subsets = rank_subsets(seed)
    representatives = set(rng.choice(BLOCK, REPRESENTATIVES_PER_BLOCK, replace=False).tolist())
    block = []
    for i in range(BLOCK):
        m = int(rng.integers(1, 5))
        weights = functions(SERVE_D, m, int(rng.integers(2**31)))
        if i in representatives:
            block.append({"kind": "representative", "k": SERVE_REP_K})
        elif rng.random() < 0.5:
            block.append({"kind": "topk", "weights": weights, "k": SERVE_K})
        else:
            subset = subsets[int(rng.integers(len(subsets)))]
            block.append({"kind": "rank", "weights": weights, "subset": subset})
    return block


def churn_mutation(rng: np.random.Generator, n: int, protected: int) -> dict:
    """One keyed mutation: an insert or a delete of 1..MAX_BATCH_ROWS rows.

    Inserts and deletes alternate in expectation so ``n`` stays near its
    start.  Deletes pick current indices at or above ``protected``, so
    the rank subsets (below it) stay valid at every revision.
    """
    m = int(rng.integers(1, MAX_BATCH_ROWS + 1))
    if rng.random() < 0.5 or n - protected <= 2 * MAX_BATCH_ROWS:
        return {"kind": "insert", "rows": rng.random((m, SERVE_D))}
    picked = rng.choice(n - protected, m, replace=False) + protected
    return {"kind": "delete", "indices": sorted(int(i) for i in picked)}
