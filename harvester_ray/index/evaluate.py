"""Ranking evaluation over a saved query set with graded judgments.

The reference stores saved search queries with per-user relevance ratings
(`Query`/`QueryRanking`, harvester/core/models/search/query.py:13-116) and
uses them to evaluate ranking quality. Here the same shape, deterministic:

- a fixed QUERY_SET (the "saved queries"),
- graded judgments defined independently of the ranker: a document's
  relevance for a query is the NUMBER OF DISTINCT QUERY TERMS it contains
  (0..n_terms). This mirrors the reference's human ratings slot with a rule
  both the engine and the SQL oracle can compute exactly.
- metric: nDCG@k of the engine's OR-mode BM25 ranking, where
  DCG = Σ rel_i / log2(i + 1) over ranks i = 1..k and the ideal DCG uses
  the same k judged documents re-sorted by relevance desc (retrieved-set
  normalization — stated here because both sides must use one definition).

The engine side computes relevance straight from posting-list membership
(no corpus re-read); the oracle recomputes everything from the raw table.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .. import analyzer
from . import bm25

# saved-query fixture over the `documents` corpus vocabulary. Three of the
# five mix the one rare term ("dup", df≈5% of docs) with common terms so the
# top-10's graded relevance VARIES within a query (non-trivial ideal
# ordering, ndcg < 1) — an all-common query set scores ndcg ≡ 1.0 on this
# corpus and cannot detect ranking regressions.
QUERY_SET: list[str] = [
    "spark window",
    "dup batch",
    "dup stream window",
    "customer query big",
    "dup join scan table",
]


def _term_membership(reader, docs: np.ndarray, terms: list[str]) -> np.ndarray:
    """rel[i] = number of ``terms`` the live copy of docs[i] holds,
    answered from the index itself (``doc_terms``: the query terms'
    postings in the segments holding the docs)."""
    rows = reader.doc_terms(docs, terms)
    held, n = np.unique(np.asarray(rows["doc_id"], np.int64), return_counts=True)
    if held.size == 0:
        return np.zeros(docs.size, np.int64)
    i = np.minimum(np.searchsorted(held, docs), held.size - 1)
    return np.where(held[i] == docs, n[i], 0)


def ndcg_at_k(rel: np.ndarray) -> float:
    """nDCG with retrieved-set ideal normalization (see module docstring)."""
    if rel.size == 0:
        return 0.0
    discounts = 1.0 / np.log2(np.arange(2, rel.size + 2, dtype=np.float64))
    dcg = float((rel * discounts).sum())
    ideal = np.sort(rel)[::-1]
    idcg = float((ideal * discounts).sum())
    return dcg / idcg if idcg > 0 else 0.0


def evaluate_ranking(reader, queries: list[str] | None = None, k: int = 10) -> pd.DataFrame:
    """Per-query nDCG@k + mean graded relevance of the engine's OR-mode
    BM25 top-k. Returns (query, n_results, ndcg, mean_rel)."""
    queries = QUERY_SET if queries is None else queries
    rows = []
    for q in queries:
        terms = reader.prepare(q, "or").terms
        out = reader.search(q, k=k, mode="or").to_pandas()
        docs = out["doc_id"].to_numpy(dtype=np.int64)
        rel = _term_membership(reader, docs, terms)
        rows.append(
            {
                "query": q,
                "n_results": int(docs.size),
                "ndcg": round(ndcg_at_k(rel.astype(np.float64)), 6),
                "mean_rel": round(float(rel.mean()) if rel.size else 0.0, 6),
            }
        )
    return pd.DataFrame(rows).sort_values("query").reset_index(drop=True)


def evaluate_ranking_sql(
    table: str,
    queries: list[str] | None = None,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle: same metric recomputed from the raw table per query (BM25
    OR-mode ranking via the shared tokenizer + Lucene idf, judgments =
    distinct matching query terms, retrieved-set-normalized nDCG)."""
    queries = QUERY_SET if queries is None else queries
    tok = analyzer.sql_tokenize_expr(text_col)
    per_query = []
    for q in queries:
        terms = sorted(set(analyzer.tokenize_query(q)))
        term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
        qlit = q.replace("'", "''")
        per_query.append(
            f"""
SELECT '{qlit}' AS query, count(*) AS n_results,
       round(CASE WHEN sum(rel / log2(ideal_rank + 1)) > 0
                  THEN sum(rel / log2(rank + 1)) / sum(rel / log2(ideal_rank + 1))
                  ELSE 0 END, 6) AS ndcg,
       coalesce(round(avg(rel), 6), 0) AS mean_rel
FROM (
  SELECT rel,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank,
         row_number() OVER (ORDER BY rel DESC, score DESC, doc_id ASC) AS ideal_rank
  FROM (
    WITH doclen AS (
      SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
    ),
    stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
    toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
    tf AS (
      SELECT doc_id, term, count(*) AS tf FROM toks
      WHERE term IN ({term_list}) GROUP BY doc_id, term
    ),
    df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
    SELECT tf.doc_id AS doc_id,
           sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                * tf.tf * ({bm25.K1} + 1.0)
                / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score,
           count(DISTINCT tf.term) AS rel
    FROM tf
    JOIN df USING (term)
    JOIN doclen d ON tf.doc_id = d.doc_id
    CROSS JOIN stats s
    GROUP BY tf.doc_id
    ORDER BY score DESC, tf.doc_id ASC
    LIMIT {k}
  )
)"""
        )
    union = "\nUNION ALL\n".join(per_query)
    return f"SELECT * FROM (\n{union}\n) ORDER BY query"


def evaluate_ranking_mrr(
    reader, queries: list[str] | None = None, k: int = 10
) -> pd.DataFrame:
    """The other two ES ``_rank_eval`` metrics next to nDCG:
    ``mean_reciprocal_rank`` (1/rank of the first fully-relevant hit —
    binary relevance = doc contains EVERY query term) and
    ``precision_at_k`` (fully-relevant fraction of the top k, fixed
    denominator k). Judgments come from the index itself like
    evaluate_ranking. Returns (query, n_results, mrr, p_at_k)."""
    queries = QUERY_SET if queries is None else queries
    rows = []
    for q in queries:
        terms = reader.prepare(q, "or").terms
        out = reader.search(q, k=k, mode="or").to_pandas()
        docs = out["doc_id"].to_numpy(dtype=np.int64)
        rel = _term_membership(reader, docs, terms)
        hits = rel >= len(terms)
        first = np.flatnonzero(hits)
        mrr = 1.0 / (int(first[0]) + 1) if first.size else 0.0
        rows.append({
            "query": q,
            "n_results": int(docs.size),
            "mrr": round(mrr, 6),
            "p_at_k": round(float(hits.sum()) / k, 6),
        })
    return pd.DataFrame(rows).sort_values("query").reset_index(drop=True)


def evaluate_ranking_mrr_sql(
    table: str,
    queries: list[str] | None = None,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for evaluate_ranking_mrr: the same ranked CTE as the nDCG
    oracle, binary relevance = all query terms present."""
    from . import bm25

    queries = QUERY_SET if queries is None else queries
    tok = analyzer.sql_tokenize_expr(text_col)
    per_query = []
    for q in queries:
        terms = sorted(set(analyzer.tokenize_query(q)))
        term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
        qlit = q.replace("'", "''")
        per_query.append(f"""
SELECT '{qlit}' AS query, CAST(count(*) AS BIGINT) AS n_results,
       coalesce(round(1.0 / min(rank) FILTER (WHERE rel >= {len(terms)}), 6), 0.0) AS mrr,
       round(CAST(count(*) FILTER (WHERE rel >= {len(terms)}) AS DOUBLE) / {k}, 6) AS p_at_k
FROM (
  SELECT rel, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM (
    WITH doclen AS (
      SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
    ),
    stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
    toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
    tf AS (
      SELECT doc_id, term, count(*) AS tf FROM toks
      WHERE term IN ({term_list}) GROUP BY doc_id, term
    ),
    df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
    scored AS (
      SELECT tf.doc_id,
             count(*) AS rel,
             sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                  * tf.tf * ({bm25.K1} + 1.0)
                  / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
      FROM tf JOIN df USING (term)
      JOIN doclen d ON tf.doc_id = d.doc_id
      CROSS JOIN stats s
      GROUP BY tf.doc_id
    )
    SELECT doc_id, rel, score FROM scored
  ) ORDER BY score DESC, doc_id ASC LIMIT {k}
)""")
    union = "\nUNION ALL\n".join(per_query)
    return f"SELECT * FROM (\n{union}\n) ORDER BY query"


def evaluate_ranking_err(
    reader, queries: list[str] | None = None, k: int = 10
) -> pd.DataFrame:
    """ES ``_rank_eval`` ``expected_reciprocal_rank`` (Chapelle et al.
    2009): ERR@k = Σ_i (R_i · Π_{j<i}(1−R_j)) / i with stop probability
    R = (2^rel − 1) / 2^g, g = the query's max grade (its term count).
    Every R and every running product is an exact dyadic rational (g ≤ 5,
    k ≤ 10 keeps all numerators under 53 bits), so both sides compute
    bit-identical floats; each rank's contribution quantizes to a 1e12
    fixed-point integer before the sum (the nano discipline — no float
    summation order). Returns (query, n_results, err)."""
    import math

    queries = QUERY_SET if queries is None else queries
    rows = []
    for q in queries:
        terms = reader.prepare(q, "or").terms
        g = len(terms)
        out = reader.search(q, k=k, mode="or").to_pandas()
        docs = out["doc_id"].to_numpy(dtype=np.int64)
        rel = _term_membership(reader, docs, terms)
        acc = 0
        prod = 1.0
        for i, r in enumerate(rel.tolist(), start=1):
            R = (2.0 ** int(r) - 1.0) / (2.0 ** g)
            acc += math.floor(R * prod / i * 1e12 + 0.5)
            prod *= 1.0 - R
        rows.append({
            "query": q,
            "n_results": int(docs.size),
            "err": acc / 1e12,
        })
    return pd.DataFrame(rows).sort_values("query").reset_index(drop=True)


def evaluate_ranking_err_sql(
    table: str,
    queries: list[str] | None = None,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for evaluate_ranking_err: the shared ranked CTE, stop
    probabilities from pow(2, rel) (dyadic-exact), the prefix product via
    DuckDB's product() window (exact over exact dyadics), per-rank 1e12
    quantization before the integer sum."""
    queries = QUERY_SET if queries is None else queries
    tok = analyzer.sql_tokenize_expr(text_col)
    per_query = []
    for q in queries:
        terms = sorted(set(analyzer.tokenize_query(q)))
        g = len(terms)
        term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
        qlit = q.replace("'", "''")
        per_query.append(f"""
SELECT '{qlit}' AS query, CAST(count(*) AS BIGINT) AS n_results,
       CAST(coalesce(sum(CAST(floor(R * prod / rank * 1e12 + 0.5) AS BIGINT)), 0) AS DOUBLE) / 1e12 AS err
FROM (
  SELECT rank, R,
         coalesce(product(1.0 - R) OVER (
           ORDER BY rank ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 1.0) AS prod
  FROM (
    SELECT (pow(2.0, rel) - 1.0) / {2 ** g} AS R,
           row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank
    FROM (
      WITH doclen AS (
        SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
      ),
      stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
      toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
      tf AS (
        SELECT doc_id, term, count(*) AS tf FROM toks
        WHERE term IN ({term_list}) GROUP BY doc_id, term
      ),
      df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)
      SELECT tf.doc_id AS doc_id,
             sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                  * tf.tf * ({bm25.K1} + 1.0)
                  / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score,
             count(DISTINCT tf.term) AS rel
      FROM tf
      JOIN df USING (term)
      JOIN doclen d ON tf.doc_id = d.doc_id
      CROSS JOIN stats s
      GROUP BY tf.doc_id
      ORDER BY score DESC, tf.doc_id ASC
      LIMIT {k}
    )
  )
)""")
    union = "\nUNION ALL\n".join(per_query)
    return f"SELECT * FROM (\n{union}\n) ORDER BY query"
