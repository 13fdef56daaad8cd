"""Okapi BM25 scoring math (Lucene-default parameters k1=1.2, b=0.75).

The reference relies on OpenSearch/Lucene's default BM25 similarity
(harvester/search/models/index.py:173-188 creates indices without a similarity
override; BASELINE.md pins k1=1.2, b=0.75). We use the Lucene BM25 idf:
``ln(1 + (N - df + 0.5) / (df + 0.5))`` — always positive — and the standard
tf saturation ``tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))``.

One canonical implementation used by the index scorer, the brute-force
oracle, and mirrored term-for-term in the DuckDB oracle SQL, so scores are
comparable to rounding precision everywhere.
"""

from __future__ import annotations

import numpy as np

K1 = 1.2
B = 0.75


def idf(n_docs: int, df: np.ndarray | int | float) -> np.ndarray | float:
    """Lucene BM25 idf: ln(1 + (N - df + 0.5)/(df + 0.5))."""
    return np.log1p((n_docs - np.asarray(df, dtype=np.float64) + 0.5) / (np.asarray(df, dtype=np.float64) + 0.5))


def tf_component(
    tf: np.ndarray, dl: np.ndarray, avgdl: float, k1: float = K1, b: float = B
) -> np.ndarray:
    """tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)) — vectorized."""
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    norm = k1 * (1.0 - b + b * dl / avgdl)
    return tf * (k1 + 1.0) / (tf + norm)


def score(
    tf: np.ndarray,
    dl: np.ndarray,
    term_idf: float,
    avgdl: float,
    k1: float = K1,
    b: float = B,
) -> np.ndarray:
    return term_idf * tf_component(tf, dl, avgdl, k1, b)

