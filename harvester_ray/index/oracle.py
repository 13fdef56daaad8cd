"""Independent BM25 oracle as ANSI SQL (DuckDB).

Shares exactly one definition of tokenization with the engine
(analyzer.sql_tokenize_expr ≡ analyzer-v1) and one BM25 formula (bm25.py:
Lucene idf, k1=1.2, b=0.75). Used both by pytest golden tests and by
``__ray_entry__.oracle_sql`` so the external driver can verify the Ray
pipeline against DuckDB on the same Parquet.

Determinism note: engine and oracle compute identical math on identical
inputs; scores are rounded (default 4 decimals) in *both* outputs so cross-
engine float summation order cannot flip the hash compare.
"""

from __future__ import annotations

from .. import analyzer
from . import bm25


def bm25_sql(
    table: str,
    query_text: str,
    k: int = 10,
    *,
    mode: str = "and",
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
    must_not: str | None = None,
    min_should_match: int | None = None,
    version: str = "v1",
) -> str:
    """``must_not`` excludes docs containing ANY of its (tokenized) terms;
    ``min_should_match`` (OR mode) keeps docs matching at least that many
    distinct query terms — mirrors IndexReader.search. ``version`` selects
    the analyzer chain on BOTH the query terms and the token expression
    (a v2 index stores stems)."""
    terms = sorted(set(analyzer.tokenize_query(query_text, version)))
    if not terms:
        return f"SELECT CAST(NULL AS BIGINT) AS doc_id, CAST(NULL AS DOUBLE) AS score WHERE 1=0"
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col, version)
    if mode == "and":
        having = f"HAVING count(*) = {len(terms)}"
    elif min_should_match is not None:
        having = f"HAVING count(*) >= {min_should_match}"
    else:
        having = ""
    neg_cte = neg_filter = ""
    if must_not:
        neg_terms = sorted(set(analyzer.tokenize_query(must_not)))
        neg_list = ", ".join("'" + t.replace("'", "''") + "'" for t in neg_terms)
        neg_cte = f"""neg AS (
  SELECT DISTINCT doc_id FROM toks WHERE term IN ({neg_list})
),
"""
        neg_filter = "WHERE tf.doc_id NOT IN (SELECT doc_id FROM neg)"
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
{neg_cte}tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({term_list}) GROUP BY doc_id, term
),
df AS (
  SELECT term, count(*) AS df FROM tf GROUP BY term
),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  {neg_filter}
  GROUP BY tf.doc_id
  {having}
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def author_suggestions_sql(
    table: str,
    author_name: str,
    k: int = 10,
    *,
    authors_col: str = "authors",
    sep: str = "|",
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.author_suggestions: the full BM25-OR ranking of the
    name (global corpus stats — exclusion happens AFTER scoring, exactly as
    the engine does) minus docs whose ``authors_col`` lists the name as an
    exact case-insensitive trimmed entry, cut at k. ``table`` may be a
    parenthesized subquery (used to plant the authors fixture column)."""
    inner = bm25_sql(
        table, author_name, 1_000_000_000, mode="or",
        id_col=id_col, text_col=text_col, round_digits=round_digits,
    )
    name = author_name.strip().lower().replace("'", "''")
    sepq = sep.replace("'", "''")
    return f"""
SELECT b.doc_id, b.score
FROM (
{inner}
) b
WHERE b.doc_id NOT IN (
  SELECT {id_col} FROM {table}
  WHERE list_contains(
          list_transform(string_split({authors_col}, '{sepq}'),
                         x -> lower(trim(x))),
          '{name}')
)
ORDER BY b.score DESC, b.doc_id ASC
LIMIT {k}
""".strip()


def msearch_sql(
    table: str,
    queries: list[str],
    k: int = 10,
    *,
    mode: str = "and",
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Batched multi-query oracle (IndexReader.msearch): each query's
    independent top-k, stacked with the query string as the key — msearch
    MUST equal Q separate searches, so the oracle is exactly that union."""
    parts = []
    for q in dict.fromkeys(queries):
        inner = bm25_sql(
            table, q, k, mode=mode, id_col=id_col, text_col=text_col,
            round_digits=round_digits,
        )
        qlit = q.replace("'", "''")
        parts.append(
            f"SELECT '{qlit}' AS query, "
            "CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS INTEGER) AS rank, "
            f"doc_id, score FROM (\n{inner}\n)"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"SELECT * FROM (\n{union}\n) ORDER BY query, rank"


def hard_negatives_sql(
    table: str,
    pairs: dict[str, list[int]],
    k: int = 5,
    *,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.mine_hard_negatives: per query, the full BM25
    ranking minus that query's positive ids, renumbered 1..k."""
    parts = []
    for q, pos in pairs.items():
        inner = bm25_sql(
            table, q, k + len(pos), mode=mode, id_col=id_col, text_col=text_col
        )
        qlit = q.replace("'", "''")
        pos_list = ", ".join(str(int(p)) for p in pos) or "NULL"
        parts.append(
            f"""SELECT '{qlit}' AS query,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS INTEGER) AS rank,
       doc_id, score
FROM (SELECT * FROM (\n{inner}\n) WHERE doc_id NOT IN ({pos_list}))
QUALIFY rank <= {k}"""
        )
    union = "\nUNION ALL\n".join(parts)
    return f"SELECT * FROM (\n{union}\n) ORDER BY query, rank"


def bm25_prefix_sql(
    table: str,
    prefix: str,
    k: int = 10,
    *,
    max_expansions: int = 50,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Prefix-expansion disjunction oracle (IndexReader.search_prefix):
    distinct matching terms in lexicographic order capped at
    ``max_expansions``, each scored with its own idf."""
    pfx = analyzer.tokenize_query(prefix)
    assert len(pfx) == 1, "prefix must normalize to one token"
    esc = pfx[0].replace("'", "''")
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
allm AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term LIKE '{esc}%' GROUP BY doc_id, term
),
sel AS (
  SELECT DISTINCT term FROM allm ORDER BY term LIMIT {max_expansions}
),
tf AS (
  SELECT * FROM allm WHERE term IN (SELECT term FROM sel)
),
df AS (
  SELECT term, count(*) AS df FROM tf GROUP BY term
),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def highlight_sql(
    table: str,
    query_text: str,
    k: int = 10,
    *,
    window: int = 30,
    width: int = 80,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for `extras.highlight_topk`: identical first-occurrence
    window (1-based strpos ≡ 0-based str.find + 1) and the same nested
    term-order replace chain."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    esc = [t.replace("'", "''") for t in terms]
    pos = "least(" + ", ".join(f"strpos(d.{text_col}, '{t}')" for t in esc) + ")"
    snip = f"substr(d.{text_col}, greatest(1, {pos} - {window}), {width})"
    for t in esc:
        snip = f"replace({snip}, '{t}', '<em>{t}</em>')"
    base = bm25_sql(table, query_text, k, mode="and", id_col=id_col, text_col=text_col)
    return f"""
WITH res AS (
{base}
)
SELECT r.doc_id, r.score, {snip} AS snippet
FROM res r JOIN {table} d ON d.{id_col} = r.doc_id
ORDER BY r.score DESC, r.doc_id
""".strip()


def more_like_this_sql(
    table: str,
    doc_id: int,
    k: int = 10,
    *,
    max_terms: int = 12,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for the MLT path (extras.doc_top_terms + OR search): pick the
    source doc's top ``max_terms`` terms by tf·idf (Lucene idf, tie-break
    term asc), BM25-OR over them, exclude the doc itself."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
alltf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term
),
alldf AS (
  SELECT term, count(*) AS df FROM alltf GROUP BY term
),
top_terms AS (
  SELECT t.term
  FROM alltf t JOIN alldf d USING (term) CROSS JOIN stats s
  WHERE t.doc_id = {doc_id}
  ORDER BY t.tf * ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5)) DESC, t.term ASC
  LIMIT {max_terms}
),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM alltf tf
  JOIN alldf df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  WHERE tf.term IN (SELECT term FROM top_terms) AND tf.doc_id != {doc_id}
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def doc_stats_sql(table: str, *, id_col: str = "doc_id", text_col: str = "text") -> str:
    tok = analyzer.sql_tokenize_expr(text_col)
    return (
        f"SELECT {id_col} AS doc_id, len({tok}) AS dl "
        f"FROM {table} ORDER BY doc_id"
    )


def corpus_stats_sql(table: str, *, text_col: str = "text") -> str:
    """avgdl is derived from the SAME integer pair (dl_sum, n_docs) on both
    sides — a single float64 division whose input bits are identical in the
    engine and DuckDB, so round(·, 6) cannot flip between them (the engine's
    running float avg and DuckDB's avg() may differ by an ulp)."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return (
        f"SELECT count(*) AS n_docs, CAST(sum(len({tok})) AS BIGINT) AS dl_sum, "
        f"round(CAST(sum(len({tok})) AS DOUBLE) / count(*), 6) AS avgdl FROM {table}"
    )


def term_df_sql(table: str, top_n: int = 50, *, id_col: str = "doc_id", text_col: str = "text") -> str:
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
stats AS (
  SELECT term, count(DISTINCT doc_id) AS df, count(*) AS cf FROM toks GROUP BY term
)
SELECT term, df, cf FROM stats ORDER BY df DESC, term ASC LIMIT {top_n}
""".strip()


def phrase_bm25_sql(
    table: str,
    phrase: str,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
    version: str = "v1",
) -> str:
    """Exact-phrase BM25 oracle (Lucene PhraseQuery semantics: tf = phrase
    frequency, df = docs containing the phrase). Adjacency is checked on
    token ordinals from the shared tokenizer — positions here are 1-based
    (generate_subscripts) vs the engine's 0-based, which cancels out in the
    relative-adjacency predicate. ``version="v2"`` checks adjacency over
    POST-FILTER ordinals (stopwords removed, stems), exactly as a v2
    positional index stores them."""
    terms = analyzer.tokenize_query(phrase, version)
    if not terms:
        return "SELECT CAST(NULL AS BIGINT) AS doc_id, CAST(NULL AS DOUBLE) AS score WHERE 1=0"
    tok = analyzer.sql_tokenize_expr(text_col, version)
    quoted = ["'" + t.replace("'", "''") + "'" for t in terms]
    joins = "\n  ".join(
        f"JOIN pos p{i} ON p{i}.doc_id = p0.doc_id AND p{i}.i = p0.i + {i}"
        for i in range(1, len(terms))
    )
    preds = " AND ".join(f"p{i}.term = {q}" for i, q in enumerate(quoted))
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
pos AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) AS i
  FROM {table}
),
m AS (
  SELECT p0.doc_id, count(*) AS ptf
  FROM pos p0
  {joins}
  WHERE {preds}
  GROUP BY p0.doc_id
),
dfv AS (
  SELECT count(*) AS df FROM m
),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m
  CROSS JOIN dfv
  CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def proximity_bm25_sql(
    table: str,
    phrase: str,
    slop: int,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Ordered-proximity BM25 oracle (ES match_phrase with slop, ordered
    spans): a start position matches if SOME in-order chain of the remaining
    terms completes within ``len(terms) + slop`` positions; tf = distinct
    matching starts (mirrors IndexReader.search_proximity's greedy-chain
    count, which is equivalent to this exists-chain count). Each join also
    carries the redundant window upper bound so DuckDB prunes the pair
    blow-up before the final span predicate."""
    terms = analyzer.tokenize_query(phrase)
    if not terms:
        return "SELECT CAST(NULL AS BIGINT) AS doc_id, CAST(NULL AS DOUBLE) AS score WHERE 1=0"
    tok = analyzer.sql_tokenize_expr(text_col)
    quoted = ["'" + t.replace("'", "''") + "'" for t in terms]
    window = len(terms) - 1 + slop
    joins = "\n  ".join(
        f"JOIN pos p{i} ON p{i}.doc_id = p0.doc_id AND p{i}.i > p{i-1}.i"
        f" AND p{i}.i <= p0.i + {window}"
        for i in range(1, len(terms))
    )
    preds = " AND ".join(f"p{i}.term = {q}" for i, q in enumerate(quoted))
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
pos AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) AS i
  FROM {table}
),
m AS (
  SELECT p0.doc_id, count(DISTINCT p0.i) AS ptf
  FROM pos p0
  {joins}
  WHERE {preds}
  GROUP BY p0.doc_id
),
dfv AS (
  SELECT count(*) AS df FROM m
),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m
  CROSS JOIN dfv
  CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def bm25_expansion_sql(
    table: str,
    term_predicate: str,
    k: int = 10,
    *,
    max_expansions: int = 50,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Disjunction over a dynamically-matched term set (fuzzy/wildcard
    rewrites): ``term_predicate`` is a SQL boolean over ``term``; matching
    distinct terms are capped at ``max_expansions`` in lexicographic order
    and scored with per-term idf (mirrors IndexReader expansion paths)."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
allm AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE {term_predicate} GROUP BY doc_id, term
),
sel AS (
  SELECT DISTINCT term FROM allm ORDER BY term LIMIT {max_expansions}
),
tf AS (
  SELECT * FROM allm WHERE term IN (SELECT term FROM sel)
),
df AS (
  SELECT term, count(*) AS df FROM tf GROUP BY term
),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def explain_sql(
    table: str,
    query_text: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Per-term BM25 breakdown (ES _explain analog) for the top-1 AND-mode
    hit of ``query_text`` — fully self-contained: the target doc is chosen
    inside the statement with the same (score DESC, doc_id ASC) tie-break
    IndexReader.search uses. df per term is corpus-wide (termstats parity);
    only terms present in the target doc emit a row."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    if not terms:
        return ("SELECT CAST(NULL AS VARCHAR) AS term, CAST(NULL AS BIGINT) AS tf, "
                "CAST(NULL AS BIGINT) AS df, CAST(NULL AS DOUBLE) AS score WHERE 1=0")
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({term_list}) GROUP BY doc_id, term
),
df AS (
  SELECT term, count(*) AS df FROM tf GROUP BY term
),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
  HAVING count(*) = {len(terms)}
),
target AS (
  SELECT doc_id FROM scored ORDER BY score DESC, doc_id ASC LIMIT 1
)
SELECT tf.term,
       tf.tf,
       df.df,
       round( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)),
              {round_digits}) AS score
FROM tf
JOIN target USING (doc_id)
JOIN df USING (term)
JOIN doclen d ON tf.doc_id = d.doc_id
CROSS JOIN stats s
ORDER BY tf.term
""".strip()


def collapse_sql(
    table: str,
    query_text: str,
    *,
    field: str = "source",
    k: int = 10,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Field-collapse oracle (extras.search_collapse): one best doc per
    ``field`` value by (rounded score desc, doc_id asc), groups ranked
    globally the same way. Scores round at 4 BEFORE group selection on
    both sides."""
    base = bm25_sql(table, query_text, 2147483647, mode=mode,
                    id_col=id_col, text_col=text_col)
    return f"""
WITH res AS (
{base}
),
r AS (
  SELECT d.{field} AS {field}, res.doc_id, res.score,
         row_number() OVER (
           PARTITION BY d.{field}
           ORDER BY res.score DESC, res.doc_id ASC
         ) AS rn
  FROM res JOIN {table} d ON d.{id_col} = res.doc_id
)
SELECT {field}, doc_id, score
FROM r WHERE rn = 1
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def percentiles_agg_sql(
    table: str,
    query_text: str,
    *,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75),
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.percentiles_agg: quantile_cont of token counts
    over the match set."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    legs = " UNION ALL ".join(
        f"SELECT {q} AS q, round(quantile_cont(dl, {q}), 6) AS value FROM dls"
        for q in qs
    )
    return f"""
WITH toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
m AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
      GROUP BY doc_id {having}),
dls AS (
  SELECT len({tok}) AS dl FROM {table} d JOIN m ON d.{id_col} = m.doc_id
)
SELECT * FROM ({legs}) ORDER BY q
""".strip()


def date_histogram_sql(
    table: str,
    query_text: str,
    *,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for IndexReader.date_histogram: epoch-µs floor-div buckets over
    the match set, exact integer keys and counts."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
m AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
      GROUP BY doc_id {having})
SELECT (epoch_us(d.{ts_col}) // {interval_us}) * {interval_us} AS bucket_us,
       CAST(count(*) AS BIGINT) AS doc_count
FROM {table} d JOIN m ON d.{id_col} = m.doc_id
GROUP BY bucket_us
ORDER BY bucket_us
""".strip()


def terms_agg_sql(
    table: str,
    query_text: str,
    *,
    field: str = "source",
    size: int = 10,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.terms_agg in the EXACT regime (shard_size ≥ every
    segment's distinct values): plain grouped counts over the match set,
    every error bound 0. The approximation contract itself (bounds under
    truncation) is segment-layout-dependent and covered by unit tests."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
m AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
      GROUP BY doc_id {having})
SELECT d.{field} AS {field}, CAST(count(*) AS BIGINT) AS doc_count,
       CAST(0 AS BIGINT) AS doc_count_error_upper_bound
FROM {table} d JOIN m ON d.{id_col} = m.doc_id
GROUP BY d.{field}
ORDER BY doc_count DESC, {field} ASC
LIMIT {size}
""".strip()


def boosting_sql(
    table: str,
    positive: str,
    negative: str,
    *,
    negative_boost: float = 0.5,
    k: int = 10,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.search_boosting: full positive BM25, docs matching
    the negative query demoted via the exact-integer key fp·(10·boost)."""
    nbn = round(negative_boost * 10)
    base = bm25_sql(table, positive, 2147483647, mode=mode,
                    id_col=id_col, text_col=text_col)
    neg_terms = sorted(set(analyzer.tokenize_query(negative)))
    neg_list = ", ".join("'" + t.replace("'", "''") + "'" for t in neg_terms)
    neg_where = f"term IN ({neg_list})" if neg_terms else "1=0"
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH res AS (
{base}
),
negm AS (
  SELECT DISTINCT {id_col} AS doc_id
  FROM (SELECT {id_col}, unnest({tok}) AS term FROM {table})
  WHERE {neg_where}
),
keyed AS (
  SELECT res.doc_id,
         CAST(floor(res.score * 10000 + 0.5) AS BIGINT)
           * (CASE WHEN res.doc_id IN (SELECT doc_id FROM negm)
                   THEN {nbn} ELSE 10 END) AS key
  FROM res
)
SELECT doc_id, round(key / 100000.0, 4) AS score
FROM keyed
ORDER BY key DESC, doc_id ASC
LIMIT {k}
""".strip()


def has_child_sql(
    table: str,
    query_text: str,
    *,
    parent_col: str = "conv_id",
    k: int = 10,
    mode: str = "or",
    score_mode: str = "sum",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Parent-child oracle (extras.search_parents): BM25 over child docs,
    then the parent aggregate. Per-child scores are quantized to 1e-4
    fixed-point BIGINTs before SUM/MAX so the cross-row aggregate is exact
    integer arithmetic on both sides; ties rank by parent key ascending."""
    base = bm25_sql(table, query_text, 2147483647, mode=mode,
                    id_col=id_col, text_col=text_col)
    agg = "sum(fp)" if score_mode == "sum" else "max(fp)"
    return f"""
WITH res AS (
{base}
),
p AS (
  SELECT d.{parent_col} AS {parent_col},
         CAST(floor(res.score * 10000 + 0.5) AS BIGINT) AS fp
  FROM res JOIN {table} d ON d.{id_col} = res.doc_id
)
SELECT {parent_col}, round({agg} / 10000.0, 4) AS score,
       CAST(count(*) AS BIGINT) AS n_hits
FROM p GROUP BY {parent_col}
ORDER BY {agg} DESC, {parent_col} ASC
LIMIT {k}
""".strip()


def top_hits_sql(
    table: str,
    query_text: str,
    *,
    field: str = "source",
    per_group: int = 3,
    n_groups: int = 5,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.top_hits: per-group row_number over the rounded
    full ranking, groups ranked by their best hit."""
    base = bm25_sql(table, query_text, 2147483647, mode=mode,
                    id_col=id_col, text_col=text_col)
    return f"""
WITH res AS (
{base}
),
r AS (
  SELECT d.{field} AS {field}, res.doc_id, res.score,
         CAST(row_number() OVER (
           PARTITION BY d.{field}
           ORDER BY res.score DESC, res.doc_id ASC
         ) AS BIGINT) AS hit_rank
  FROM res JOIN {table} d ON d.{id_col} = res.doc_id
),
g AS (
  SELECT {field},
         CAST(row_number() OVER (ORDER BY score DESC, doc_id ASC) AS BIGINT)
           AS group_rank
  FROM r WHERE hit_rank = 1
)
SELECT r.{field}, g.group_rank, r.hit_rank, r.doc_id, r.score
FROM r JOIN g USING ({field})
WHERE g.group_rank <= {n_groups} AND r.hit_rank <= {per_group}
ORDER BY g.group_rank, r.hit_rank
""".strip()


def significant_terms_sql(
    table: str,
    query_text: str,
    *,
    n: int = 20,
    mode: str = "and",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.significant_terms: exact-integer share difference
    ``fg_df·n_docs − bg_df·fg_size``, positive scores only, (score desc,
    term asc) order."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    if not terms:
        return ("SELECT CAST(NULL AS VARCHAR) AS term, CAST(NULL AS BIGINT) AS fg_df, "
                "CAST(NULL AS BIGINT) AS bg_df, CAST(NULL AS BIGINT) AS score WHERE 1=0")
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    fg_having = (
        f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    )
    return f"""
WITH toks AS (
  SELECT DISTINCT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
n AS (
  SELECT count(*) AS n_docs FROM {table}
),
fg AS (
  SELECT doc_id FROM toks WHERE term IN ({term_list})
  GROUP BY doc_id {fg_having}
),
fgn AS (
  SELECT count(*) AS fg_size FROM fg
),
fgdf AS (
  SELECT t.term, count(*) AS fg_df
  FROM toks t JOIN fg USING (doc_id)
  GROUP BY t.term
),
bgdf AS (
  SELECT term, count(*) AS bg_df FROM toks
  WHERE term IN (SELECT term FROM fgdf)
  GROUP BY term
)
SELECT f.term, f.fg_df, b.bg_df,
       f.fg_df * n.n_docs - b.bg_df * fgn.fg_size AS score
FROM fgdf f
JOIN bgdf b USING (term)
CROSS JOIN n
CROSS JOIN fgn
WHERE f.fg_df * n.n_docs - b.bg_df * fgn.fg_size > 0
ORDER BY score DESC, f.term ASC
LIMIT {n}
""".strip()


def rescore_sql(
    table: str,
    query_text: str,
    *,
    window: int = 25,
    k: int = 10,
    slop: int = 2,
    weight: float = 2.0,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.rescore: BM25-OR top-``window`` (rounded score +
    doc_id tie-break cut) LEFT JOINed with the proximity scores, final
    order by the combined score. Both component scores are 4-decimal
    rounded before combining, exactly like the engine."""
    prim = bm25_sql(table, query_text, window, mode="or",
                    id_col=id_col, text_col=text_col)
    prox = proximity_bm25_sql(table, query_text, slop, 2147483647,
                              id_col=id_col, text_col=text_col)
    return f"""
WITH prim AS (
{prim}
),
prox AS (
{prox}
)
SELECT p.doc_id, p.score + {weight} * coalesce(x.score, 0.0) AS score
FROM prim p
LEFT JOIN prox x USING (doc_id)
ORDER BY score DESC, p.doc_id ASC
LIMIT {k}
""".strip()


def search_random_sql(
    table: str,
    query_text: str,
    *,
    seed: int = 7,
    k: int = 10,
    mode: str = "and",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.search_random: matched docs keyed by the shared
    Knuth hash, k smallest (h, doc_id) win."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    if not terms:
        return ("SELECT CAST(NULL AS BIGINT) AS doc_id, "
                "CAST(NULL AS BIGINT) AS h WHERE 1=0")
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH toks AS (
  SELECT DISTINCT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
m AS (
  SELECT doc_id FROM toks WHERE term IN ({term_list})
  GROUP BY doc_id {having}
)
SELECT doc_id, (doc_id * 2654435761 + {seed}) % 4294967296 AS h
FROM m
ORDER BY h ASC, doc_id ASC
LIMIT {k}
""".strip()


def _match_ctes(
    table: str, query_text: str, mode: str, id_col: str, text_col: str
) -> str:
    """Shared tokenize→match CTE prefix (``toks``, ``m``, ``md`` = matched
    rows of the table) used by the agg-family oracles."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
m AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
      GROUP BY doc_id {having}),
md AS (SELECT d.* FROM {table} d JOIN m ON d.{id_col} = m.doc_id)
""".strip()


def _filter_pred(spec: dict[str, list]) -> str:
    parts = []
    for field, values in spec.items():
        vals = ", ".join(
            "'" + str(v).replace("'", "''") + "'" for v in values
        )
        parts.append(f"{field} IN ({vals})")
    return "(" + " AND ".join(parts) + ")"


def filters_agg_sql(
    table: str,
    query_text: str,
    named_filters: dict[str, dict[str, list]],
    *,
    other_bucket: bool = True,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.filters_agg: per-name counts over the match set
    plus the none-of-the-above ``_other_`` bucket."""
    names = sorted(named_filters)
    selects = [
        f"SELECT '{nm}' AS bucket, CAST(count(*) FILTER (WHERE "
        f"{_filter_pred(named_filters[nm])}) AS BIGINT) AS doc_count FROM md"
        for nm in names
    ]
    if other_bucket:
        none_pred = " AND ".join(
            f"NOT {_filter_pred(named_filters[nm])}" for nm in names
        )
        selects.append(
            f"SELECT '_other_' AS bucket, CAST(count(*) FILTER (WHERE "
            f"{none_pred}) AS BIGINT) AS doc_count FROM md"
        )
    union = "\nUNION ALL\n".join(selects)
    return (
        _match_ctes(table, query_text, mode, id_col, text_col)
        + f"\nSELECT bucket, doc_count FROM (\n{union}\n) ORDER BY bucket"
    )


def adjacency_matrix_sql(
    table: str,
    query_text: str,
    named_filters: dict[str, dict[str, list]],
    *,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.adjacency_matrix: singles + sorted-pair
    intersections over the match set, empty buckets omitted."""
    names = sorted(named_filters)
    selects = []
    for i, a in enumerate(names):
        pa_ = _filter_pred(named_filters[a])
        selects.append(
            f"SELECT '{a}' AS bucket, CAST(count(*) FILTER (WHERE {pa_}) "
            f"AS BIGINT) AS doc_count FROM md"
        )
        for b in names[i + 1:]:
            pb = _filter_pred(named_filters[b])
            selects.append(
                f"SELECT '{a}&{b}' AS bucket, CAST(count(*) FILTER (WHERE "
                f"{pa_} AND {pb}) AS BIGINT) AS doc_count FROM md"
            )
    union = "\nUNION ALL\n".join(selects)
    return (
        _match_ctes(table, query_text, mode, id_col, text_col)
        + f"\nSELECT bucket, doc_count FROM (\n{union}\n) "
        + "WHERE doc_count > 0 ORDER BY bucket"
    )


def composite_agg_sql(
    table: str,
    query_text: str,
    *,
    sources: tuple[str, ...] = ("source", "lang"),
    size: int = 10,
    offset: int = 0,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.composite_agg: the after-cursor page equals
    OFFSET over the ascending bucket order (the gate derives ``after``
    from the previous page's last key, which is exactly this order)."""
    cols = ", ".join(sources)
    return (
        _match_ctes(table, query_text, mode, id_col, text_col)
        + f"""
SELECT {cols}, CAST(count(*) AS BIGINT) AS doc_count
FROM md GROUP BY {cols} ORDER BY {cols}
LIMIT {size} OFFSET {offset}"""
    )


def span_first_bm25_sql(
    table: str,
    term: str,
    end: int,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_span_first: occurrences within the first
    ``end`` token ordinals (generate_subscripts is 1-based vs the engine's
    0-based ``pos < end`` — hence ``i <= end``), span-frequency scoring."""
    toks = analyzer.tokenize_query(term)
    assert len(toks) == 1
    q = "'" + toks[0].replace("'", "''") + "'"
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
pos AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) AS i
  FROM {table}
),
m AS (
  SELECT doc_id, count(*) AS ptf FROM pos
  WHERE term = {q} AND i <= {end}
  GROUP BY doc_id
),
dfv AS (SELECT count(*) AS df FROM m),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m CROSS JOIN dfv CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def recency_bm25_sql(
    table: str,
    query_text: str,
    k: int = 10,
    *,
    origin_us: int,
    pivot_us: float = 90 * 86400 * 1_000_000.0,
    boost: float = 1.15,
    mode: str = "or",
    ts_col: str = "ts",
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for search(recency=...) — Lucene distance_feature date boost
    added to the BM25 sum before rounding: boost·pivot/(pivot+|Δt µs|),
    the same (boost·pivot) / (pivot + dist) operation order as the engine."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(*) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({term_list}) GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
  {having}
),
boosted AS (
  SELECT sc.doc_id,
         sc.score + ({boost!r} * {pivot_us!r})
           / ({pivot_us!r} + CAST(abs({origin_us} - epoch_us(t.{ts_col})) AS DOUBLE)) AS score
  FROM scored sc JOIN {table} t ON t.{id_col} = sc.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM boosted ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def phrase_prefix_bm25_sql(
    table: str,
    phrase: str,
    k: int = 10,
    *,
    max_expansions: int = 50,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_match_phrase_prefix: adjacency chain on the
    fixed lead terms with the last position drawn from the prefix's
    expansion set (distinct corpus tokens, lexicographic, capped — the
    engine's dictionary union is exactly this set at initial build)."""
    toks = analyzer.tokenize_query(phrase)
    assert toks, "empty phrase"
    fixed, prefix = toks[:-1], toks[-1]
    esc = prefix.replace("'", "''")
    tok = analyzer.sql_tokenize_expr(text_col)
    L = len(fixed)
    joins = "\n  ".join(
        f"JOIN pos p{i} ON p{i}.doc_id = p0.doc_id AND p{i}.i = p0.i + {i}"
        for i in range(1, L + 1)
    )
    preds = [
        f"p{i}.term = '" + t.replace("'", "''") + "'"
        for i, t in enumerate(fixed)
    ]
    preds.append(f"p{L}.term IN (SELECT term FROM sel)")
    where = " AND ".join(preds)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
pos AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) AS i
  FROM {table}
),
sel AS (
  SELECT DISTINCT term FROM pos WHERE term LIKE '{esc}%'
  ORDER BY term LIMIT {max_expansions}
),
m AS (
  SELECT p0.doc_id, count(*) AS ptf
  FROM pos p0
  {joins}
  WHERE {where}
  GROUP BY p0.doc_id
),
dfv AS (SELECT count(*) AS df FROM m),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m CROSS JOIN dfv CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def matrix_stats_sql(
    table: str,
    query_text: str,
    *,
    ts_base_s: int,
    ts_col: str = "ts",
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.matrix_stats: HUGEINT sufficient statistics over
    the match set, every ratio derived from the same integer pair and
    rounded with the shared floor(x·1e6+0.5) rule."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
mset AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
         GROUP BY doc_id {having}),
vals AS (
  SELECT len({tok}) AS dl,
         epoch_us(t.{ts_col}) // 1000000 - {ts_base_s} AS tss
  FROM {table} t JOIN mset ON t.{id_col} = mset.doc_id
),
sums AS (
  SELECT CAST(count(*) AS HUGEINT) AS n,
         sum(CAST(dl AS HUGEINT)) AS s_dl,
         sum(CAST(tss AS HUGEINT)) AS s_ts,
         sum(CAST(dl AS HUGEINT) * dl) AS s_dl2,
         sum(CAST(tss AS HUGEINT) * tss) AS s_ts2,
         sum(CAST(dl AS HUGEINT) * tss) AS s_dlts
  FROM vals
)
SELECT CAST(n AS BIGINT) AS n,
       floor(CAST(s_dl AS DOUBLE) / CAST(n AS BIGINT) * 1e6 + 0.5) / 1e6 AS mean_dl,
       floor(CAST(s_ts AS DOUBLE) / CAST(n AS BIGINT) * 1e6 + 0.5) / 1e6 AS mean_ts_s,
       floor(CAST(n * s_dl2 - s_dl * s_dl AS DOUBLE)
             / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)) * 1e6 + 0.5) / 1e6 AS var_dl,
       floor(CAST(n * s_ts2 - s_ts * s_ts AS DOUBLE)
             / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)) * 1e6 + 0.5) / 1e6 AS var_ts_s,
       floor(CAST(n * s_dlts - s_dl * s_ts AS DOUBLE)
             / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)) * 1e6 + 0.5) / 1e6 AS cov,
       floor(CASE WHEN n * s_dl2 - s_dl * s_dl > 0 AND n * s_ts2 - s_ts * s_ts > 0
                  THEN CAST(n * s_dlts - s_dl * s_ts AS DOUBLE)
                       / (sqrt(CAST(n * s_dl2 - s_dl * s_dl AS DOUBLE))
                          * sqrt(CAST(n * s_ts2 - s_ts * s_ts AS DOUBLE)))
                  ELSE 0.0 END * 1e6 + 0.5) / 1e6 AS corr
FROM sums
""".strip()


def rank_feature_bm25_sql(
    table: str,
    query_text: str,
    k: int = 10,
    *,
    pivot: float = 100.0,
    boost: float = 1.0,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for search(recency={"kind": "rank_feature", ...}) — ES
    rank_feature saturation over the doc length, added to the BM25 sum
    before rounding with the engine's (boost·dl)/(dl+pivot) op order."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(*) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({term_list}) GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
  {having}
),
boosted AS (
  SELECT sc.doc_id,
         sc.score + ({boost!r} * d.dl) / (d.dl + {pivot!r}) AS score
  FROM scored sc JOIN doclen d USING (doc_id)
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM boosted ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def histogram_pipeline_sql(
    table: str,
    query_text: str,
    *,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.histogram_pipeline: window cumulative sum + lag
    derivative over the date-histogram buckets, first bucket omitted."""
    dh = date_histogram_sql(
        table, query_text, ts_col=ts_col, interval_us=interval_us,
        mode=mode, id_col=id_col, text_col=text_col,
    )
    return f"""
WITH h AS (
{dh}
)
SELECT bucket_us, doc_count,
       CAST(sum(doc_count) OVER (ORDER BY bucket_us) AS BIGINT) AS cum_count,
       CAST(doc_count - lag(doc_count) OVER (ORDER BY bucket_us) AS BIGINT)
         AS deriv
FROM h
QUALIFY lag(doc_count) OVER (ORDER BY bucket_us) IS NOT NULL
ORDER BY bucket_us
""".strip()


def bool_bm25_sql(
    table: str,
    *,
    must: str = "",
    should: str = "",
    must_not: str = "",
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_bool: docs holding every must term and no
    must_not term, scored over must + present should terms."""
    must_terms = sorted(set(analyzer.tokenize_query(must)))
    should_terms = sorted(set(analyzer.tokenize_query(should)) - set(must_terms))
    neg_terms = sorted(set(analyzer.tokenize_query(must_not)))
    all_terms = sorted(set(must_terms) | set(should_terms))
    ql = lambda ts: ", ".join("'" + t.replace("'", "''") + "'" for t in ts)
    tok = analyzer.sql_tokenize_expr(text_col)
    if must_terms:
        match_cte = f"""m AS (
  SELECT doc_id FROM toks WHERE term IN ({ql(must_terms)})
  GROUP BY doc_id HAVING count(DISTINCT term) = {len(must_terms)}
)"""
    else:
        match_cte = f"""m AS (
  SELECT DISTINCT doc_id FROM toks WHERE term IN ({ql(all_terms)})
)"""
    neg_pred = (
        f"AND tf.doc_id NOT IN (SELECT DISTINCT doc_id FROM toks "
        f"WHERE term IN ({ql(neg_terms)}))" if neg_terms else ""
    )
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({ql(all_terms)}) GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
{match_cte},
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN m ON tf.doc_id = m.doc_id
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  WHERE 1=1 {neg_pred}
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def query_string_sql(
    table: str,
    qs: str,
    k: int = 10,
    *,
    max_expansions: int = 50,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_query_string: the same clause parse
    (shared parse_query_string), candidates = AND of all positive clauses
    minus negs, score = bare-term sum + span-scored phrases + present
    prefix expansions."""
    from .extras import parse_query_string

    c = parse_query_string(qs)
    plain, prefixes, negs = c["plain"], c["prefixes"], c["negs"]
    phrases = [analyzer.tokenize_query(h) for h in c["phrases"]]
    assert plain or phrases
    tok = analyzer.sql_tokenize_expr(text_col)
    ql = lambda ts: ", ".join("'" + t.replace("'", "''") + "'" for t in ts)
    term_like = [f"term IN ({ql(plain)})"] if plain else []
    sel_ctes, sel_names = [], []
    for i, x in enumerate(prefixes):
        esc = x.replace("'", "''")
        sel_ctes.append(
            f"sel{i} AS (SELECT DISTINCT term FROM toks WHERE term LIKE "
            f"'{esc}%' ORDER BY term LIMIT {max_expansions})"
        )
        sel_names.append(f"sel{i}")
        term_like.append(f"term IN (SELECT term FROM sel{i})")
    ph_ctes, ph_score_ctes = [], []
    for i, h in enumerate(phrases):
        quoted = ["'" + t.replace("'", "''") + "'" for t in h]
        joins = "\n  ".join(
            f"JOIN pos p{j} ON p{j}.doc_id = p0.doc_id AND p{j}.i = p0.i + {j}"
            for j in range(1, len(h))
        )
        preds = " AND ".join(f"p{j}.term = {q}" for j, q in enumerate(quoted))
        ph_ctes.append(f"""mh{i} AS (
  SELECT p0.doc_id, count(*) AS ptf FROM pos p0
  {joins}
  WHERE {preds} GROUP BY p0.doc_id
),
dfh{i} AS (SELECT count(*) AS df FROM mh{i})""")
        ph_score_ctes.append(f"""ph{i} AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfh{i}.df + 0.5) / (dfh{i}.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS sc
  FROM mh{i} m CROSS JOIN dfh{i} CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)""")
    cand_parts = []
    if plain:
        cand_parts.append(
            f"SELECT doc_id FROM toks WHERE term IN ({ql(plain)}) "
            f"GROUP BY doc_id HAVING count(DISTINCT term) = {len(plain)}"
        )
    for i in range(len(phrases)):
        cand_parts.append(f"SELECT doc_id FROM mh{i}")
    for i in range(len(prefixes)):
        cand_parts.append(
            f"SELECT DISTINCT doc_id FROM toks WHERE term IN "
            f"(SELECT term FROM sel{i})"
        )
    cand = "\nINTERSECT\n".join(cand_parts)
    if negs:
        cand += (f"\nEXCEPT\nSELECT DISTINCT doc_id FROM toks "
                 f"WHERE term IN ({ql(negs)})")
    term_pred = " OR ".join(term_like)
    ph_join = "".join(
        f"\n  LEFT JOIN ph{i} ON ph{i}.doc_id = cand.doc_id"
        for i in range(len(phrases))
    )
    ph_sum = "".join(f" + coalesce(ph{i}.sc, 0)" for i in range(len(phrases)))
    extra_ctes = ",\n".join(
        x for x in (sel_ctes + ph_ctes + ph_score_ctes) if x
    )
    extra_ctes = (extra_ctes + ",\n") if extra_ctes else ""
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
pos AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) AS i
  FROM {table}
),
{extra_ctes}tfq AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE {term_pred} GROUP BY doc_id, term
),
dfq AS (SELECT term, count(*) AS df FROM tfq GROUP BY term),
cand AS (
{cand}
),
tscore AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - dfq.df + 0.5) / (dfq.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS sc
  FROM tfq tf
  JOIN dfq USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  WHERE tf.doc_id IN (SELECT doc_id FROM cand)
  GROUP BY tf.doc_id
),
total AS (
  SELECT cand.doc_id,
         coalesce(t.sc, 0){ph_sum} AS score
  FROM cand
  LEFT JOIN tscore t ON t.doc_id = cand.doc_id{ph_join}
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM total ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def span_not_bm25_sql(
    table: str,
    include_term: str,
    exclude_term: str,
    *,
    distance: int = 3,
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_span_not: include positions with no exclude
    occurrence within ±distance (1-based ordinals cancel in the distance
    predicate), span-frequency scoring."""
    inc = analyzer.tokenize_query(include_term)
    exc = analyzer.tokenize_query(exclude_term)
    assert len(inc) == 1 and len(exc) == 1
    qi = "'" + inc[0].replace("'", "''") + "'"
    qe = "'" + exc[0].replace("'", "''") + "'"
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
pos AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) AS i
  FROM {table}
),
m AS (
  SELECT p.doc_id, count(*) AS ptf
  FROM pos p
  WHERE p.term = {qi}
    AND NOT EXISTS (
      SELECT 1 FROM pos e
      WHERE e.doc_id = p.doc_id AND e.term = {qe}
        AND abs(e.i - p.i) <= {distance}
    )
  GROUP BY p.doc_id
),
dfv AS (SELECT count(*) AS df FROM m),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m CROSS JOIN dfv CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


# --- pipeline / bucket aggregations (index/pipeline_aggs.py) ---------------


def _match_ctes_body(
    query_text: str,
    table: str,
    mode: str,
    id_col: str,
    text_col: str,
) -> str:
    """Shared toks/m CTE pair (bodies only, caller supplies WITH) selecting
    the match set's doc ids — the pipeline-agg variant of _match_ctes."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    return f"""toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
m AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
      GROUP BY doc_id {having})"""


def _hist_cte(
    table: str, ts_col: str, interval_us: int, id_col: str
) -> str:
    return f"""h AS (
  SELECT (epoch_us(d.{ts_col}) // {interval_us}) * {interval_us} AS bucket_us,
         CAST(count(*) AS BIGINT) AS doc_count
  FROM {table} d JOIN m ON d.{id_col} = m.doc_id
  GROUP BY bucket_us
)"""


def moving_fn_sql(
    table: str,
    query_text: str,
    *,
    window: int = 3,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.moving_fn: trailing window mean with the
    engine's exact half-away fixed-point quotient (BIGINT arithmetic)."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)}
SELECT bucket_us, doc_count,
       CAST((2 * sum(doc_count) OVER w * 1000000 + count(*) OVER w)
            // (2 * count(*) OVER w) AS BIGINT) / 1000000.0 AS moving_avg
FROM h
WINDOW w AS (ORDER BY bucket_us ROWS BETWEEN {window - 1} PRECEDING AND CURRENT ROW)
ORDER BY bucket_us
""".strip()


def serial_diff_sql(
    table: str,
    query_text: str,
    *,
    lag: int = 2,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.serial_diff: integer lag difference, first
    ``lag`` buckets omitted."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)}
SELECT bucket_us, doc_count,
       CAST(doc_count - lag(doc_count, {lag}) OVER (ORDER BY bucket_us) AS BIGINT) AS diff
FROM h
QUALIFY lag(doc_count, {lag}) OVER (ORDER BY bucket_us) IS NOT NULL
ORDER BY bucket_us
""".strip()


def bucket_sort_sql(
    table: str,
    query_text: str,
    *,
    min_count: int = 1,
    size: int = 10,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.bucket_sort: selector + sort + truncate."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)}
SELECT bucket_us, doc_count FROM h
WHERE doc_count >= {min_count}
ORDER BY doc_count DESC, bucket_us ASC
LIMIT {size}
""".strip()


def cumulative_cardinality_sql(
    table: str,
    query_text: str,
    *,
    field: str = "conv_id",
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.cumulative_cardinality: first bucket per
    key, cumulative sum of first-appearance counts over the histogram."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)},
firsts AS (
  SELECT d.{field} AS k,
         min((epoch_us(d.{ts_col}) // {interval_us}) * {interval_us}) AS fb
  FROM {table} d JOIN m ON d.{id_col} = m.doc_id
  GROUP BY d.{field}
),
fc AS (SELECT fb AS bucket_us, CAST(count(*) AS BIGINT) AS c FROM firsts GROUP BY fb)
SELECT h.bucket_us, h.doc_count,
       CAST(sum(coalesce(fc.c, 0)) OVER (ORDER BY h.bucket_us) AS BIGINT) AS cum_card
FROM h LEFT JOIN fc USING (bucket_us)
ORDER BY bucket_us
""".strip()


def weighted_avg_sql(
    table: str,
    query_text: str,
    *,
    ts_col: str = "ts",
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.weighted_avg: value = token count, weight =
    UTC hour + 1; HUGEINT-exact half-away quotient."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
vw AS (
  SELECT CAST(len({tok}) AS BIGINT) AS v,
         CAST((epoch_us(d.{ts_col}) // 3600000000) % 24 + 1 AS BIGINT) AS w
  FROM {table} d JOIN m ON d.{id_col} = m.doc_id
)
SELECT CAST(sum(w) AS BIGINT) AS weight_sum,
       CAST((2 * sum(v * w) * 1000000 + sum(w)) // (2 * sum(w)) AS BIGINT)
         / 1000000.0 AS weighted_avg
FROM vw
""".strip()


def top_metrics_sql(
    table: str,
    query_text: str,
    *,
    group: str = "tool",
    ts_col: str = "ts",
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.top_metrics: argmax row per group by
    (dl DESC, doc_id ASC) via QUALIFY row_number."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)}
SELECT CAST(d.{group} AS VARCHAR) AS {group},
       CAST(len({tok}) AS BIGINT) AS top_dl,
       CAST(epoch_us(d.{ts_col}) AS BIGINT) AS top_ts_us,
       d.{id_col} AS doc_id
FROM {table} d JOIN m ON d.{id_col} = m.doc_id
QUALIFY row_number() OVER (
  PARTITION BY d.{group} ORDER BY len({tok}) DESC, d.{id_col} ASC) = 1
ORDER BY {group}
""".strip()


def diversified_sampler_sql(
    table: str,
    query_text: str,
    *,
    field: str = "conv_id",
    max_per: int = 1,
    k: int = 10,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.diversified_sampler: full BM25 ranking,
    per-key cap via QUALIFY row_number, then global truncate. Scores are
    rounded to 4 decimals BEFORE ranking on both sides (DuckDB round() is
    half-away, matching the engine's floor(x·1e4+0.5) for positive
    scores)."""
    inner = bm25_sql(
        table, query_text, 2**31, mode=mode, id_col=id_col, text_col=text_col,
    )
    return f"""
WITH ranked AS (
{inner}
)
SELECT r.doc_id, CAST(d.{field} AS VARCHAR) AS {field}, r.score
FROM ranked r JOIN {table} d ON r.doc_id = d.{id_col}
QUALIFY row_number() OVER (
  PARTITION BY d.{field} ORDER BY r.score DESC, r.doc_id ASC) <= {max_per}
ORDER BY r.score DESC, r.doc_id ASC
LIMIT {k}
""".strip()


def auto_date_histogram_sql(
    table: str,
    query_text: str,
    *,
    target_buckets: int = 20,
    ladder_us: tuple = (
        60_000_000, 300_000_000, 1_800_000_000, 3_600_000_000,
        10_800_000_000, 43_200_000_000, 86_400_000_000, 604_800_000_000,
    ),
    ts_col: str = "ts",
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.auto_date_histogram: the same fixed ladder,
    smallest interval whose bucket span fits target_buckets (CASE chain
    over integer min/max — ``ts//i`` equals ``minutefloor(ts)//i`` for
    every ladder i, so raw min/max here matches the engine's
    minute-partial-derived bounds)."""
    cases = "\n".join(
        f"    WHEN mx // {i} - mn // {i} + 1 <= {target_buckets} THEN CAST({i} AS BIGINT)"
        for i in ladder_us
    )
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
mt AS (
  SELECT CAST(epoch_us(d.{ts_col}) AS BIGINT) AS tus
  FROM {table} d JOIN m ON d.{id_col} = m.doc_id
),
span AS (SELECT min(tus) AS mn, max(tus) AS mx FROM mt),
iv AS (
  SELECT CASE
{cases}
    ELSE CAST({ladder_us[-1]} AS BIGINT) END AS interval_us
  FROM span
)
SELECT iv.interval_us, (mt.tus // iv.interval_us) * iv.interval_us AS bucket_us,
       CAST(count(*) AS BIGINT) AS doc_count
FROM mt CROSS JOIN iv
GROUP BY iv.interval_us, bucket_us
ORDER BY bucket_us
""".strip()


# --- non-BM25 similarity models (index/similarities.py) --------------------


def similarity_sql(
    table: str,
    query_text: str,
    *,
    model: str = "lm_dirichlet",
    k: int = 10,
    mode: str = "or",
    mu: float = 2000.0,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for similarities.search_similarity. Scores quantize via
    floor(x·1e4 + 0.5) on BOTH sides (LM Dirichlet sums can be negative,
    where DuckDB round()'s half-away disagrees with the engine's
    half-up)."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    if not terms:
        return "SELECT CAST(NULL AS BIGINT) AS doc_id, CAST(NULL AS DOUBLE) AS score WHERE 1=0"
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(*) = {len(terms)}" if mode == "and" else ""
    if model == "lm_dirichlet":
        per_term = (
            f"ln(1 + tf.tf / ({mu!r} * (CAST(c.cf AS DOUBLE) / CAST(s.total AS DOUBLE))))"
            f" + ln({mu!r} / (d.dl + {mu!r}))"
        )
        score_expr = f"sum({per_term})"
        extra_join = "JOIN cf c USING (term)"
    elif model == "lm_jelinek_mercer":
        # λ = 0.5 ⇒ (1-λ)/λ ≡ 1 (IEEE-exact); mirror the engine's
        # (tf/dl)/p(t|C) operation order verbatim.
        per_term = (
            "ln(1 + (tf.tf / d.dl)"
            " / (CAST(c.cf AS DOUBLE) / CAST(s.total AS DOUBLE)))"
        )
        score_expr = f"sum({per_term})"
        extra_join = "JOIN cf c USING (term)"
    elif model == "classic":
        score_expr = (
            "sum(sqrt(tf.tf) * i.idf * i.idf / sqrt(d.dl))"
            f" * (CAST(count(*) AS DOUBLE) / {len(terms)})"
        )
        extra_join = "JOIN idf i USING (term)"
    else:
        raise ValueError(f"unknown similarity model {model!r}")
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, CAST(sum(dl) AS BIGINT) AS total FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({term_list}) GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
cf AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY term),
idf AS (
  SELECT df.term, 1 + ln(s.n_docs / (df.df + 1)) AS idf
  FROM df CROSS JOIN stats s
),
scored AS (
  SELECT tf.doc_id, {score_expr} AS score
  FROM tf
  {extra_join}
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id {having}
)
SELECT doc_id, floor(score * 10000 + 0.5) / 10000.0 AS score
FROM scored
ORDER BY floor(score * 10000 + 0.5) DESC, doc_id ASC
LIMIT {k}
""".strip()


def bool_prefix_bm25_sql(
    table: str,
    query_text: str,
    k: int = 10,
    *,
    max_expansions: int = 50,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_match_bool_prefix: the last token is a
    prefix whose distinct corpus expansions (lexicographic, capped at
    ``max_expansions``) join the fixed lead terms in one disjunction; the
    lead terms are always scored, cap or not (engine contract)."""
    toks = analyzer.tokenize_query(query_text)
    fixed, prefix = toks[:-1], toks[-1]
    pfx = prefix.replace("'", "''").replace("%", "\\%").replace("_", "\\_")
    fixed_list = ", ".join(
        "'" + t.replace("'", "''") + "'" for t in sorted(set(fixed))
    ) or "''"
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
allm AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({fixed_list}) OR term LIKE '{pfx}%'
  GROUP BY doc_id, term
),
sel AS (
  SELECT term FROM (
    SELECT DISTINCT term FROM allm WHERE term LIKE '{pfx}%'
    ORDER BY term LIMIT {max_expansions}
  )
  UNION
  SELECT DISTINCT term FROM allm WHERE term IN ({fixed_list})
),
tf AS (
  SELECT * FROM allm WHERE term IN (SELECT term FROM sel)
),
df AS (
  SELECT term, count(*) AS df FROM tf GROUP BY term
),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def terms_set_sql(
    table: str,
    terms: list[str],
    req_expr: str,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_terms_set: ``req_expr`` is a SQL expression
    over the raw table row computing the per-doc minimum-should-match (it
    mirrors the stored numeric attribute the engine reads). A doc qualifies
    when its count of DISTINCT matched terms >= its own minimum; qualifying
    docs score as the BM25 sum of their matched terms (bool should)."""
    tok = analyzer.sql_tokenize_expr(text_col)
    term_list = ", ".join(
        "'" + t.replace("'", "''") + "'" for t in sorted(set(terms))
    )
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (
  SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen
),
req AS (
  SELECT {id_col} AS doc_id, {req_expr} AS req FROM {table}
),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({term_list}) GROUP BY doc_id, term
),
df AS (
  SELECT term, count(*) AS df FROM tf GROUP BY term
),
scored AS (
  SELECT tf.doc_id,
         count(*) AS matched,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
)
SELECT s.doc_id, round(s.score, {round_digits}) AS score
FROM scored s
JOIN req r USING (doc_id)
WHERE s.matched >= r.req
ORDER BY score DESC, doc_id ASC
LIMIT {k}
""".strip()


def span_or_bm25_sql(
    table: str,
    terms_text: str,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_span_or: the clause-term union scored as ONE
    pseudo-term (tf = total occurrences of any clause term, one shared df)
    — deliberately NOT the per-term-idf bool disjunction."""
    terms = sorted(set(analyzer.tokenize_query(terms_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
m AS (
  SELECT doc_id, count(*) AS ptf FROM toks
  WHERE term IN ({term_list}) GROUP BY doc_id
),
dfv AS (SELECT count(*) AS df FROM m),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m CROSS JOIN dfv CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def span_multi_bm25_sql(
    table: str,
    prefix: str,
    k: int = 10,
    *,
    max_expansions: int = 50,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_span_multi: the prefix expansion happens in
    SQL (first ``max_expansions`` distinct matching corpus tokens in term
    order — identical to the engine's dictionary walk), then the span_or
    single-pseudo-term scoring."""
    pfx = analyzer.tokenize_query(prefix)[0].replace("'", "''")
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
exp AS (
  SELECT DISTINCT term FROM toks WHERE term LIKE '{pfx}%'
  ORDER BY term LIMIT {max_expansions}
),
m AS (
  SELECT doc_id, count(*) AS ptf FROM toks
  WHERE term IN (SELECT term FROM exp) GROUP BY doc_id
),
dfv AS (SELECT count(*) AS df FROM m),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m CROSS JOIN dfv CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def span_containing_bm25_sql(
    table: str,
    big: tuple[str, str],
    little: str,
    *,
    slop: int = 4,
    mode: str = "containing",
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_span_containing: big spans are ordered
    (t1, t2) windows with 1 <= p2 - p1 <= slop + 1; ``containing`` counts
    big spans enclosing a little occurrence, ``within`` counts little
    occurrences enclosed by a big span (1-based ordinals cancel)."""
    t1 = analyzer.tokenize_query(big[0])[0].replace("'", "''")
    t2 = analyzer.tokenize_query(big[1])[0].replace("'", "''")
    t3 = analyzer.tokenize_query(little)[0].replace("'", "''")
    tok = analyzer.sql_tokenize_expr(text_col)
    if mode == "containing":
        m_cte = f"""m AS (
  SELECT p1.doc_id, count(*) AS ptf
  FROM pos p1
  JOIN pos p2 ON p2.doc_id = p1.doc_id AND p2.term = '{t2}'
             AND p2.i - p1.i BETWEEN 1 AND {slop + 1}
  WHERE p1.term = '{t1}'
    AND EXISTS (
      SELECT 1 FROM pos p3
      WHERE p3.doc_id = p1.doc_id AND p3.term = '{t3}'
        AND p3.i BETWEEN p1.i AND p2.i
    )
  GROUP BY p1.doc_id
)"""
    elif mode == "within":
        m_cte = f"""m AS (
  SELECT p3.doc_id, count(*) AS ptf
  FROM pos p3
  WHERE p3.term = '{t3}'
    AND EXISTS (
      SELECT 1 FROM pos p1
      JOIN pos p2 ON p2.doc_id = p1.doc_id AND p2.term = '{t2}'
                 AND p2.i - p1.i BETWEEN 1 AND {slop + 1}
      WHERE p1.doc_id = p3.doc_id AND p1.term = '{t1}'
        AND p3.i BETWEEN p1.i AND p2.i
    )
  GROUP BY p3.doc_id
)"""
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
pos AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) AS i
  FROM {table}
),
{m_cte},
dfv AS (SELECT count(*) AS df FROM m),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m CROSS JOIN dfv CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def _dls_ctes(
    table: str, query_text: str, mode: str, id_col: str, text_col: str
) -> str:
    """toks/m/dls CTE bodies: token lengths of the match set."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    return f"""toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
m AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
      GROUP BY doc_id {having}),
dls AS (
  SELECT len({tok}) AS dl FROM {table} d JOIN m ON d.{id_col} = m.doc_id
)"""


def extended_stats_sql(
    table: str,
    query_text: str,
    *,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.extended_stats_agg: the same integer sufficient
    statistics (HUGEINT variance numerator) and mirrored float derivations
    with floor-1e6 quantization."""
    return f"""
WITH {_dls_ctes(table, query_text, mode, id_col, text_col)},
agg AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(min(dl) AS BIGINT) AS min_dl,
         CAST(max(dl) AS BIGINT) AS max_dl,
         CAST(sum(dl) AS BIGINT) AS sum_dl,
         CAST(sum(CAST(dl AS HUGEINT) * dl) AS HUGEINT) AS sumsq
  FROM dls
),
der AS (
  SELECT n, min_dl, max_dl, sum_dl,
         CAST(n AS HUGEINT) * sumsq - CAST(sum_dl AS HUGEINT) * sum_dl AS var_num
  FROM agg
)
SELECT n, min_dl, max_dl, sum_dl,
       floor(CAST(sum_dl AS DOUBLE) / n * 1e6 + 0.5) / 1e6 AS avg_dl,
       floor(CAST(var_num AS DOUBLE) / (CAST(n AS DOUBLE) * n) * 1e6 + 0.5) / 1e6 AS variance,
       floor(sqrt(CAST(var_num AS DOUBLE)) / n * 1e6 + 0.5) / 1e6 AS std_dev,
       floor((CAST(sum_dl AS DOUBLE) / n + 2.0 * sqrt(CAST(var_num AS DOUBLE)) / n) * 1e6 + 0.5) / 1e6 AS upper_2sd,
       floor((CAST(sum_dl AS DOUBLE) / n - 2.0 * sqrt(CAST(var_num AS DOUBLE)) / n) * 1e6 + 0.5) / 1e6 AS lower_2sd
FROM der
""".strip()


def terms_stats_sql(
    table: str,
    query_text: str,
    *,
    field: str = "source",
    size: int = 10,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.terms_stats_agg: per-bucket count/sum of token
    lengths with the mirrored floor-1e6 average."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
agg AS (
  SELECT d.{field} AS {field},
         CAST(count(*) AS BIGINT) AS doc_count,
         CAST(sum(len({tok})) AS BIGINT) AS sum_dl
  FROM {table} d JOIN m ON d.{id_col} = m.doc_id
  GROUP BY 1
)
SELECT {field}, doc_count, sum_dl,
       floor(CAST(sum_dl AS DOUBLE) / doc_count * 1e6 + 0.5) / 1e6 AS avg_dl
FROM agg ORDER BY doc_count DESC, {field} ASC LIMIT {size}
""".strip()


def missing_sql(
    table: str,
    query_text: str,
    *,
    field: str = "tool",
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.missing_agg: null-count vs matched-count."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)}
SELECT CAST(count(*) FILTER (WHERE d.{field} IS NULL) AS BIGINT) AS missing_count,
       CAST(count(*) AS BIGINT) AS doc_count
FROM {table} d JOIN m ON d.{id_col} = m.doc_id
""".strip()


def histogram_agg_sql(
    table: str,
    query_text: str,
    *,
    interval: int = 10,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.histogram_agg: integer floor-division buckets of
    the match set's token lengths."""
    return f"""
WITH {_dls_ctes(table, query_text, mode, id_col, text_col)}
SELECT CAST((dl // {interval}) * {interval} AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS doc_count
FROM dls GROUP BY 1 ORDER BY bucket
""".strip()


def stats_sql(
    table: str,
    query_text: str,
    *,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.stats_agg: the count/min/max/sum/avg projection of
    the extended_stats oracle."""
    inner = extended_stats_sql(
        table, query_text, mode=mode, id_col=id_col, text_col=text_col
    )
    return f"SELECT n, min_dl, max_dl, sum_dl, avg_dl FROM (\n{inner}\n)"


def mad_sql(
    table: str,
    query_text: str,
    *,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.mad_agg: quantile_cont median, then quantile_cont
    of the absolute deviations (all values exact binary fractions)."""
    return f"""
WITH {_dls_ctes(table, query_text, mode, id_col, text_col)},
med AS (SELECT quantile_cont(dl, 0.5) AS m FROM dls)
SELECT CAST(count(*) AS BIGINT) AS n,
       (SELECT m FROM med) AS median_dl,
       quantile_cont(abs(dl - (SELECT m FROM med)), 0.5) AS mad
FROM dls
""".strip()


def string_stats_sql(
    table: str,
    query_text: str,
    *,
    field: str = "source",
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.string_stats_agg: value-length stats + Shannon
    entropy (bits) of the character distribution, mirrored expression with
    floor-1e4 quantization over exact integer character counts."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
m AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
      GROUP BY doc_id {having}),
vals AS (
  SELECT CAST(d.{field} AS VARCHAR) AS v
  FROM {table} d JOIN m ON d.{id_col} = m.doc_id
),
chars AS (
  SELECT unnest(string_split(v, '')) AS ch FROM vals
),
cc AS (SELECT ch, CAST(count(*) AS BIGINT) AS cnt FROM chars GROUP BY ch),
tot AS (SELECT CAST(sum(cnt) AS BIGINT) AS total FROM cc),
ent AS (
  SELECT CASE WHEN t.total > 0
              THEN log2(CAST(t.total AS DOUBLE))
                   - sum(c.cnt * log2(CAST(c.cnt AS DOUBLE))) / t.total
              ELSE 0.0 END AS e
  FROM cc c CROSS JOIN tot t GROUP BY t.total
)
SELECT CAST(count(*) AS BIGINT) AS n,
       CAST(min(len(v)) AS BIGINT) AS min_len,
       CAST(max(len(v)) AS BIGINT) AS max_len,
       floor(sum(len(v)) * 1.0 / count(*) * 1e6 + 0.5) / 1e6 AS avg_len,
       floor((SELECT e FROM ent) * 1e4 + 0.5) / 1e4 AS entropy
FROM vals
""".strip()


def t_test_sql(
    table: str,
    query_text: str,
    *,
    field: str = "source",
    group_a: str = "src0",
    group_b: str = "src1",
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.t_test_agg: Welch's t from exact HUGEINT
    sufficient statistics, mirrored expression, floor-1e4 quantized."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(DISTINCT term) = {len(terms)}" if mode == "and" else ""
    ga = group_a.replace("'", "''")
    gb = group_b.replace("'", "''")
    return f"""
WITH toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
m AS (SELECT doc_id FROM toks WHERE term IN ({term_list})
      GROUP BY doc_id {having}),
gd AS (
  SELECT CAST(d.{field} AS VARCHAR) AS g, len({tok}) AS dl
  FROM {table} d JOIN m ON d.{id_col} = m.doc_id
  WHERE CAST(d.{field} AS VARCHAR) IN ('{ga}', '{gb}')
),
agg AS (
  SELECT g, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(dl) AS BIGINT) AS s,
         CAST(sum(CAST(dl AS HUGEINT) * dl) AS HUGEINT) AS q
  FROM gd GROUP BY g
),
ab AS (
  SELECT
    (SELECT n FROM agg WHERE g = '{ga}') AS n1,
    (SELECT s FROM agg WHERE g = '{ga}') AS s1,
    (SELECT q FROM agg WHERE g = '{ga}') AS q1,
    (SELECT n FROM agg WHERE g = '{gb}') AS n2,
    (SELECT s FROM agg WHERE g = '{gb}') AS s2,
    (SELECT q FROM agg WHERE g = '{gb}') AS q2
)
SELECT n1 AS n_a, n2 AS n_b,
       floor(
         (CAST(s1 AS DOUBLE) / n1 - CAST(s2 AS DOUBLE) / n2)
         / sqrt(
             CAST(CAST(n1 AS HUGEINT) * q1 - CAST(s1 AS HUGEINT) * s1 AS DOUBLE)
               / (CAST(n1 AS DOUBLE) * n1 * (n1 - 1))
             + CAST(CAST(n2 AS HUGEINT) * q2 - CAST(s2 AS HUGEINT) * s2 AS DOUBLE)
               / (CAST(n2 AS DOUBLE) * n2 * (n2 - 1))
           ) * 1e4 + 0.5
       ) / 1e4 AS t_stat
FROM ab
WHERE n1 >= 2 AND n2 >= 2
""".strip()


def bucket_script_sql(
    table: str,
    query_text: str,
    *,
    tool_col: str = "tool",
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.bucket_script: per-bucket tool-call share
    with the engine's exact half-away fixed-point quotient."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
h AS (
  SELECT (epoch_us(d.{ts_col}) // {interval_us}) * {interval_us} AS bucket_us,
         CAST(count(*) AS BIGINT) AS doc_count,
         CAST(count(d.{tool_col}) AS BIGINT) AS tool_count
  FROM {table} d JOIN m ON d.{id_col} = m.doc_id
  GROUP BY bucket_us
)
SELECT bucket_us, doc_count, tool_count,
       CAST((2 * tool_count * 1000000 + doc_count)
            // (2 * doc_count) AS BIGINT) / 1000000.0 AS tool_share
FROM h ORDER BY bucket_us
""".strip()


def normalize_agg_sql(
    table: str,
    query_text: str,
    *,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.normalize_agg: percent_of_sum over the
    histogram with the exact half-away fixed-point quotient."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)},
tot AS (SELECT CAST(sum(doc_count) AS BIGINT) AS total FROM h)
SELECT bucket_us, doc_count,
       CAST((2 * 100 * doc_count * 1000000 + t.total)
            // (2 * t.total) AS BIGINT) / 1000000.0 AS percent_of_sum
FROM h CROSS JOIN tot t ORDER BY bucket_us
""".strip()


def rate_agg_sql(
    table: str,
    query_text: str,
    *,
    unit_us: int = 60_000_000,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.rate_agg: per-bucket count · unit/interval
    with the same gcd-reduced half-away fixed-point quotient."""
    import math

    g = math.gcd(unit_us, interval_us)
    nu, de = unit_us // g, interval_us // g
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)}
SELECT bucket_us, doc_count,
       CAST((2 * doc_count * {nu} * 1000000 + {de})
            // (2 * {de}) AS BIGINT) / 1000000.0 AS rate
FROM h ORDER BY bucket_us
""".strip()


def function_score_sql(
    table: str,
    query_text: str,
    k: int = 10,
    *,
    origin_us: int,
    scale_us: int,
    decay: float = 0.5,
    mode: str = "or",
    ts_col: str = "ts",
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_function_score: gauss decay multiplied into
    the BM25 sum — exp(ln(decay) · m·m) with m = dist/scale, the identical
    float expression (no pow())."""
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    tok = analyzer.sql_tokenize_expr(text_col)
    having = f"HAVING count(*) = {len(terms)}" if mode == "and" else ""
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
toks AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ({term_list}) GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf
  JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
  {having}
),
boosted AS (
  SELECT sc.doc_id,
         sc.score * exp(ln({decay!r}) * (
           (CAST(abs({origin_us} - epoch_us(t.{ts_col})) AS DOUBLE) / {scale_us})
           * (CAST(abs({origin_us} - epoch_us(t.{ts_col})) AS DOUBLE) / {scale_us})
         )) AS score
  FROM scored sc JOIN {table} t ON t.{id_col} = sc.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM boosted ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def has_parent_sql(
    table: str,
    parent_query: str,
    *,
    parent_col: str = "conv_id",
    k: int = 10,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for extras.search_has_parent: children inherit their parent's
    has_child-sum score (1e-4 fixed-point BIGINT ranking key)."""
    base = bm25_sql(table, parent_query, 2147483647, mode=mode,
                    id_col=id_col, text_col=text_col)
    return f"""
WITH res AS (
{base}
),
p AS (
  SELECT d.{parent_col} AS {parent_col},
         CAST(floor(res.score * 10000 + 0.5) AS BIGINT) AS fp
  FROM res JOIN {table} d ON d.{id_col} = res.doc_id
),
ps AS (SELECT {parent_col}, CAST(sum(fp) AS BIGINT) AS fp FROM p GROUP BY {parent_col})
SELECT d.{id_col} AS doc_id, round(ps.fp / 10000.0, 4) AS score
FROM {table} d JOIN ps USING ({parent_col})
ORDER BY ps.fp DESC, d.{id_col} ASC
LIMIT {k}
""".strip()


def intervals_bm25_sql(
    table: str,
    terms_text: str,
    *,
    max_gaps: int = 2,
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_digits: int = 4,
) -> str:
    """Oracle for extras.search_intervals: an anchor p1 counts when ANY
    ordered chain p1 < p2 < … < pT with pT − p1 − (T−1) ≤ max_gaps exists
    (the greedy chain the engine takes is minimal, so any-chain ≡ greedy)."""
    toks = analyzer.tokenize_query(terms_text)
    assert len(toks) >= 2
    tok = analyzer.sql_tokenize_expr(text_col)
    T = len(toks)
    esc = [t.replace("'", "''") for t in toks]
    joins = []
    for i in range(2, T):
        joins.append(
            f"JOIN pos p{i + 1} ON p{i + 1}.doc_id = p{i}.doc_id "
            f"AND p{i + 1}.term = '{esc[i]}' AND p{i + 1}.i > p{i}.i"
        )
    exists = f"""EXISTS (
      SELECT 1 FROM pos p2 {' '.join(joins)}
      WHERE p2.doc_id = p1.doc_id AND p2.term = '{esc[1]}' AND p2.i > p1.i
        AND p{T}.i - p1.i <= {T - 1 + max_gaps}
    )"""
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
pos AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) AS i
  FROM {table}
),
m AS (
  SELECT p1.doc_id, count(*) AS ptf
  FROM pos p1
  WHERE p1.term = '{esc[0]}' AND {exists}
  GROUP BY p1.doc_id
),
dfv AS (SELECT count(*) AS df FROM m),
scored AS (
  SELECT m.doc_id,
         ln(1 + (s.n_docs - dfv.df + 0.5) / (dfv.df + 0.5))
           * m.ptf * ({bm25.K1} + 1.0)
           / (m.ptf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) AS score
  FROM m CROSS JOIN dfv CROSS JOIN stats s
  JOIN doclen d ON m.doc_id = d.doc_id
)
SELECT doc_id, round(score, {round_digits}) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def moving_percentiles_sql(
    table: str,
    query_text: str,
    *,
    window: int = 3,
    q: float = 0.5,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.moving_percentiles: window quantile_cont
    over the bucket counts (exact — integer counts, dyadic interpolation)."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)}
SELECT bucket_us, doc_count,
       quantile_cont(doc_count, {q}) OVER w AS moving_pct
FROM h
WINDOW w AS (ORDER BY bucket_us ROWS BETWEEN {window - 1} PRECEDING AND CURRENT ROW)
ORDER BY bucket_us
""".strip()


def extended_stats_bucket_sql(
    table: str,
    query_text: str,
    *,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for pipeline_aggs.extended_stats_bucket: HUGEINT variance
    numerator over the bucket counts, mirrored float derivations."""
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)},
agg AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(min(doc_count) AS BIGINT) AS mn,
         CAST(max(doc_count) AS BIGINT) AS mx,
         CAST(sum(doc_count) AS BIGINT) AS s,
         CAST(sum(CAST(doc_count AS HUGEINT) * doc_count) AS HUGEINT) AS s2
  FROM h
),
der AS (
  SELECT n, mn, mx, s,
         CAST(n AS HUGEINT) * s2 - CAST(s AS HUGEINT) * s AS var_num
  FROM agg
)
SELECT n AS n_buckets, mn AS min_count, mx AS max_count, s AS sum_count,
       floor(s * 1.0 / n * 1e6 + 0.5) / 1e6 AS avg_count,
       floor(CAST(var_num AS DOUBLE) / (CAST(n AS DOUBLE) * n) * 1e6 + 0.5) / 1e6 AS variance,
       floor(sqrt(CAST(var_num AS DOUBLE)) / n * 1e6 + 0.5) / 1e6 AS std_dev
FROM der
""".strip()


def bucket_selector_sql(
    table: str,
    query_text: str,
    *,
    tool_col: str = "tool",
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
    min_docs: int = 3,
    share_num: int = 1,
    share_den: int = 4,
) -> str:
    """Oracle for pipeline_aggs.bucket_selector: the same integer predicate
    over the bucket_script histogram."""
    inner = bucket_script_sql(
        table, query_text, tool_col=tool_col, ts_col=ts_col,
        interval_us=interval_us, mode=mode, id_col=id_col, text_col=text_col,
    )
    return f"""
WITH bs AS ({inner})
SELECT bucket_us, doc_count, tool_count FROM bs
WHERE doc_count >= {min_docs}
  AND tool_count * {share_den} >= doc_count * {share_num}
ORDER BY bucket_us
""".strip()


def percentiles_bucket_sql(
    table: str,
    query_text: str,
    *,
    ts_col: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
    id_col: str = "doc_id",
    text_col: str = "text",
    qs: tuple[float, ...] = (0.25, 0.5, 0.75),
) -> str:
    """Oracle for pipeline_aggs.percentiles_bucket: quantile_cont over the
    histogram bucket counts (dyadic-exact at quarter quantiles)."""
    qcols = ",\n       ".join(
        f"quantile_cont(doc_count, {p}) AS p{int(p * 100)}" for p in qs
    )
    return f"""
WITH {_match_ctes_body(query_text, table, mode, id_col, text_col)},
{_hist_cte(table, ts_col, interval_us, id_col)}
SELECT CAST(count(*) AS BIGINT) AS n_buckets,
       {qcols}
FROM h
""".strip()
