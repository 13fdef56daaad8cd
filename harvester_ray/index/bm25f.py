"""Multi-field weighted BM25 ("fields": ["title^2", "text"] parity).

The reference's stored query body searches several fields with per-field
boosts through one ``simple_query_string``
(`/root/reference/harvester/core/models/search/query.py:73-98`, field list
with ``^boost`` suffixes). OpenSearch scores each field independently with
BM25 (per-field df / doc length / avgdl) and combines per-term, per-field
contributions; this module implements the sum-combination form (BM25F-lite):

    score(d, q) = Σ_field  w_f · BM25_f(d, q)        (OR semantics)

Engine shape: one index per field (built with ``build_index(text_col=f)``),
each queried exhaustively in OR mode (k = n_docs so no per-field top-k
truncation can drop a doc whose *combined* score lands in the final top-k),
then a vectorized weighted merge. At serving scale the per-field reads fan
out through the same segment-actor machinery as single-field search.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .. import analyzer
from . import bm25
from .query import IndexReader, shared_analyzer_version, topk_over


def search_weighted_fields(
    readers: dict[str, "IndexReader"],
    weights: dict[str, float],
    query_text: str,
    k: int = 10,
    *,
    round_digits: int = 4,
) -> pd.DataFrame:
    """Weighted-sum multi-field BM25 top-k → (doc_id, score) DataFrame."""
    all_docs, all_ws = [], []
    # deterministic field order (sorted) so the float accumulation order is
    # reproducible run-to-run and matches the oracle's grouped sum tolerance
    for field in sorted(readers):
        reader = readers[field]
        w = float(weights.get(field, 1.0))
        res = reader.search(query_text, k=max(reader.n_docs, 1), mode="or")
        all_docs.append(np.asarray(res["doc_id"], dtype=np.int64))
        all_ws.append(np.asarray(res["score"], dtype=np.float64) * w)
    docs = np.concatenate(all_docs) if all_docs else np.empty(0, np.int64)
    ws = np.concatenate(all_ws) if all_ws else np.empty(0, np.float64)
    if not docs.size:
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"), "score": []})
    order = np.argsort(docs, kind="stable")
    docs, ws = docs[order], ws[order]
    uniq, starts = np.unique(docs, return_index=True)
    sums = np.add.reduceat(ws, starts)
    docs, scores = uniq, sums
    order = np.lexsort((docs, -scores))[:k]
    return pd.DataFrame(
        {"doc_id": docs[order], "score": np.round(scores[order], round_digits)}
    )


def bm25f_sql(
    table: str,
    query_text: str,
    fields: dict[str, float],
    k: int = 10,
    *,
    id_col: str = "doc_id",
    round_digits: int = 4,
) -> str:
    """Oracle: per-field BM25 (own df/doclen/avgdl per field), weighted sum.

    OR semantics; every field's score list is complete (no per-field LIMIT)
    before the weighted combination, matching the engine.
    """
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    if not terms:
        return "SELECT CAST(NULL AS BIGINT) AS doc_id, CAST(NULL AS DOUBLE) AS score WHERE 1=0"
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)

    ctes, selects = [], []
    for i, (col, _w) in enumerate(sorted(fields.items())):
        tok = analyzer.sql_tokenize_expr(col)
        ctes.append(
            f"""
dl_{i} AS (SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}),
st_{i} AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl_{i}),
tk_{i} AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
tf_{i} AS (SELECT doc_id, term, count(*) AS tf FROM tk_{i}
           WHERE term IN ({term_list}) GROUP BY doc_id, term),
df_{i} AS (SELECT term, count(*) AS df FROM tf_{i} GROUP BY term),
sc_{i} AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf_{i} tf
  JOIN df_{i} df USING (term)
  JOIN dl_{i} d ON tf.doc_id = d.doc_id
  CROSS JOIN st_{i} s
  GROUP BY tf.doc_id
)""".strip()
        )
        selects.append(f"SELECT doc_id, score * {float(fields[col])} AS ws FROM sc_{i}")

    union = " UNION ALL ".join(selects)
    return f"""
WITH {", ".join(ctes)},
allf AS ({union}),
comb AS (SELECT doc_id, sum(ws) AS score FROM allf GROUP BY doc_id)
SELECT doc_id, round(score, {round_digits}) AS score
FROM comb
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def search_dis_max(
    readers: dict[str, "IndexReader"],
    weights: dict[str, float],
    query_text: str,
    k: int = 10,
    *,
    tie_breaker: float = 0.0,
    round_digits: int = 4,
) -> pd.DataFrame:
    """ES ``dis_max`` / ``multi_match type=best_fields``: a doc's score is
    its BEST single field plus ``tie_breaker`` × the other fields' sum —
    the combiner OpenSearch actually uses for the reference's field lists
    unless a query opts into cross-field sums (which
    ``search_weighted_fields`` covers).

    Parity: per-field weighted scores quantize to 1e-4 fixed-point BIGINTs;
    ``tie_breaker`` must be a multiple of 0.1 so the combined ranking key
    ``10·max + (10·tie)·(sum − max)`` is exact integer arithmetic on both
    engine and oracle — no float-order ambiguity can flip a rank. Ties rank
    by doc_id ascending. Output score = key / 1e5.
    """
    tn = round(tie_breaker * 10)
    if abs(tn / 10.0 - tie_breaker) > 1e-9:
        raise ValueError("tie_breaker must be a multiple of 0.1 for exact ranking")
    all_docs, all_fp = [], []
    for field in sorted(readers):
        reader = readers[field]
        w = float(weights.get(field, 1.0))
        res = reader.search(query_text, k=max(reader.n_docs, 1), mode="or")
        sc = np.asarray(res["score"], dtype=np.float64) * w
        all_docs.append(np.asarray(res["doc_id"], dtype=np.int64))
        all_fp.append(np.floor(sc * 1e4 + 0.5).astype(np.int64))
    docs = np.concatenate(all_docs) if all_docs else np.empty(0, np.int64)
    fp = np.concatenate(all_fp) if all_fp else np.empty(0, np.int64)
    if not docs.size:
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"), "score": []})
    order = np.argsort(docs, kind="stable")
    docs, fp = docs[order], fp[order]
    uniq, starts = np.unique(docs, return_index=True)
    mx = np.maximum.reduceat(fp, starts)
    sm = np.add.reduceat(fp, starts)
    key = 10 * mx + tn * (sm - mx)
    order = np.lexsort((uniq, -key))[:k]
    return pd.DataFrame({
        "doc_id": uniq[order],
        "score": np.round(key[order] / 1e5, round_digits),
    })


def dis_max_sql(
    table: str,
    query_text: str,
    fields: dict[str, float],
    k: int = 10,
    *,
    tie_breaker: float = 0.0,
    id_col: str = "doc_id",
    round_digits: int = 4,
) -> str:
    """Oracle for ``search_dis_max``: same per-field CTEs as ``bm25f_sql``,
    fixed-point quantization before MAX/SUM, exact-integer ranking key."""
    tn = round(tie_breaker * 10)
    base = bm25f_sql(table, query_text, fields, k, id_col=id_col)
    if base.startswith("SELECT"):  # empty-query degenerate form
        return base
    # reuse everything up to the per-field UNION; rebuild the combiner
    head, _, _ = base.partition("\nallf AS (")
    union = base.partition("allf AS (")[2].partition(")")[0]
    fp_union = " UNION ALL ".join(
        f"SELECT doc_id, CAST(floor(ws * 10000 + 0.5) AS BIGINT) AS fp FROM ({leg.strip()})"
        for leg in union.split(" UNION ALL ")
    )
    return f"""
{head}
allfp AS ({fp_union}),
comb AS (
  SELECT doc_id, 10 * max(fp) + {tn} * (sum(fp) - max(fp)) AS key
  FROM allfp GROUP BY doc_id
)
SELECT doc_id, round(key / 100000.0, {round_digits}) AS score
FROM comb
ORDER BY key DESC, doc_id ASC
LIMIT {k}
""".strip()


def search_cross_fields(
    readers: dict[str, "IndexReader"],
    weights: dict[str, float],
    query_text: str,
    k: int = 10,
    *,
    round_digits: int = 4,
) -> pd.DataFrame:
    """ES ``multi_match type=cross_fields`` (BlendedTermQuery-lite): the
    term-centric combiner for "one logical field split across columns"
    (title/body, first/last name). Per TERM: document frequency is blended
    to the MAX across fields (so a term common in any field is cheap in
    all), the term's contribution to a doc is its best per-field weighted
    score, and a doc sums its term maxima — every query term must earn its
    score once, not once per field.

    Parity: per-(term, field, doc) scores quantize to 1e-4 fixed-point
    BIGINTs BEFORE the max/sum (the dis_max discipline) so the ranking key
    is exact integer arithmetic on both sides. Engine shape: one
    exhaustive single-term pass per (term, field) through the normal
    segment scorer with the blended idf injected. Every field index must
    share one analyzer version."""
    shared_analyzer_version(readers.values())
    terms = readers[min(readers)].prepare(query_text, "or").terms
    empty = pd.DataFrame({"doc_id": pd.array([], dtype="int64"), "score": []})
    if not terms:
        return empty
    dfb = {
        t: max(r.df([t]).get(t, 0) for r in readers.values()) for t in terms
    }
    all_docs, all_fp, all_tid = [], [], []
    for ti, t in enumerate(terms):
        if dfb[t] == 0:
            continue
        for field in sorted(readers):
            r = readers[field]
            w = float(weights.get(field, 1.0))
            idf = float(bm25.idf(r.n_docs, dfb[t]))
            d, s = topk_over(r.segments(), [t], {t: idf}, r.avgdl, r.n_docs + 1, "or")
            if d.size:
                all_docs.append(d)
                all_fp.append(np.floor(s * w * 1e4 + 0.5).astype(np.int64))
                all_tid.append(np.full(d.size, ti, np.int64))
    if not all_docs:
        return empty
    docs = np.concatenate(all_docs)
    fp = np.concatenate(all_fp)
    tid = np.concatenate(all_tid)
    # max per (doc, term) across fields, then integer sum per doc
    key = docs * len(terms) + tid
    order = np.argsort(key, kind="stable")
    key, fp = key[order], fp[order]
    uniq, starts = np.unique(key, return_index=True)
    mx = np.maximum.reduceat(fp, starts)
    udocs = uniq // len(terms)
    d_order = np.argsort(udocs, kind="stable")
    udocs, mx = udocs[d_order], mx[d_order]
    fdocs, fstarts = np.unique(udocs, return_index=True)
    sums = np.add.reduceat(mx, fstarts)
    top = np.lexsort((fdocs, -sums))[:k]
    return pd.DataFrame({
        "doc_id": fdocs[top],
        "score": np.round(sums[top] / 1e4, round_digits),
    })


def cross_fields_sql(
    table: str,
    query_text: str,
    fields: dict[str, float],
    k: int = 10,
    *,
    id_col: str = "doc_id",
    round_digits: int = 4,
    exprs: dict[str, str] | None = None,
) -> str:
    """Oracle for search_cross_fields: per-field scored legs with the
    blended (max-across-fields) df injected into the idf, fixed-point
    quantization before the per-term MAX, exact-integer doc keys.
    ``exprs`` maps a field name to the SQL expression producing its text
    (defaults to the column of the same name) — e.g. a derived title
    field ``substr(text, 1, 60)``."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    if not terms:
        return ("SELECT CAST(NULL AS BIGINT) AS doc_id, "
                "CAST(NULL AS DOUBLE) AS score WHERE 1=0")
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    ctes, df_union, legs = [], [], []
    for f in sorted(fields):
        tok = analyzer.sql_tokenize_expr((exprs or {}).get(f, f))
        w = float(fields[f])
        ctes.append(f"""dl_{f} AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
st_{f} AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM dl_{f}),
tf_{f} AS (
  SELECT {id_col} AS doc_id, term, count(*) AS tf
  FROM (SELECT {id_col}, unnest({tok}) AS term FROM {table})
  WHERE term IN ({term_list}) GROUP BY {id_col}, term
),
df_{f} AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf_{f} GROUP BY term)""")
        df_union.append(f"SELECT term, df FROM df_{f}")
        legs.append(f"""SELECT tf.doc_id, tf.term,
       CAST(floor((ln(1 + (s.n_docs - b.df + 0.5) / (b.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl))
             * {w!r}) * 10000 + 0.5) AS BIGINT) AS fp
FROM tf_{f} tf
JOIN dfb b USING (term)
JOIN dl_{f} d ON tf.doc_id = d.doc_id
CROSS JOIN st_{f} s""")
    nl = ",\n"
    return f"""
WITH {nl.join(ctes)},
dfb AS (
  SELECT term, max(df) AS df FROM ({" UNION ALL ".join(df_union)}) GROUP BY term
),
allf AS ({" UNION ALL ".join(legs)}),
maxt AS (SELECT doc_id, term, max(fp) AS fp FROM allf GROUP BY doc_id, term),
comb AS (SELECT doc_id, sum(fp) AS key FROM maxt GROUP BY doc_id)
SELECT doc_id, round(key / 10000.0, {round_digits}) AS score
FROM comb ORDER BY key DESC, doc_id ASC LIMIT {k}
""".strip()
