"""Query-time synonym expansion + dictionary-driven decompounding.

The reference's only in-repo analysis asset is the Dutch decompound word
list (53,175 entries, `/root/reference/opensearch/config/
decompound_word_list.nl.txt`) wired into the OpenSearch analyzer via
`/root/reference/harvester/harvester/settings/base.py:308-309` — compound
words are split against a dictionary so "fietspad" matches "fiets" and
"pad". This module re-expresses that (plus the synonym-filter sibling) as
*query-time* expansion over our own index:

- ``decompound``: DP segmentation of an out-of-vocabulary query term into
  dictionary words (membership = df > 0 in the index's term stats — the
  live analog of the static word list). Deterministic: fewest parts wins,
  ties by leftmost-longest.
- ``expand_query``: per-term union of the original term, its synonyms
  (small broadcast map), and its compound parts.
- ``search_expanded``: expansion → OR-mode BM25 over the expanded term set
  (Lucene synonym/decompound filters put alternatives at the same
  position; with ``default_operator`` semantics preserved for original
  terms that exist, the OR expansion is the query-side equivalent).

Scale shape: expansion is driver-side string work on a handful of query
terms (df probes batch through the same TermStats lookup the query path
uses); nothing touches the corpus.
"""

from __future__ import annotations

from .. import analyzer
from .query import PreparedQuery, prepare_query


def decompound(
    df_lookup,
    term: str,
    *,
    min_part: int = 3,
    max_parts: int = 4,
) -> list[str]:
    """Split ``term`` into ≥2 dictionary words, or return [].

    ``df_lookup(terms) -> dict[term, df]`` is the dictionary membership
    oracle (an ``IndexReader.df`` bound method). DP over split points;
    among valid segmentations the fewest parts wins, ties broken by
    preferring the longest first part (leftmost-longest, the conventional
    decompounder behavior).
    """
    n = len(term)
    if n < 2 * min_part:
        return []
    subs = sorted(
        {term[i:j] for i in range(n) for j in range(i + min_part, n + 1)}
    )
    dfs = df_lookup(subs)
    present = {s for s in subs if dfs.get(s, 0) > 0}
    if not present:
        return []
    # best[i] = (n_parts, parts tuple) for term[i:]; prefer fewer parts,
    # then lexicographically smaller (-len first part) via longest-first scan
    INF = max_parts + 1
    best: list[tuple[int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[n] = (0, ())
    for i in range(n - min_part, -1, -1):
        for j in range(n, i + min_part - 1, -1):  # longest candidate first
            if i == 0 and j == n:
                continue  # the whole term is not a "part" of itself
            part = term[i:j]
            if part not in present or best[j] is None:
                continue
            cand_parts = best[j][0] + 1
            if cand_parts > max_parts:
                continue
            if best[i] is None or cand_parts < best[i][0]:
                best[i] = (cand_parts, (part,) + best[j][1])
    if best[0] is None or best[0][0] < 2:
        return []
    return list(best[0][1])


def expand_query(
    df_lookup,
    query: str | PreparedQuery,
    *,
    synonyms: dict[str, list[str]] | None = None,
    decompound_oov: bool = True,
) -> list[str]:
    """Expanded, ordered, distinct term list for a query — a
    ``reader.prepare`` result, or raw text analyzed as v1.

    Synonyms apply to every term; decompounding applies only to
    out-of-vocabulary terms (df == 0) — in-vocab compounds already match
    directly, mirroring the analyzer's only_longest_match-style restraint.
    Synonym values are index terms (already analyzed).
    """
    synonyms = synonyms or {}
    if isinstance(query, str):
        query = prepare_query(query, "or", "v1", df_lookup, n_docs=0)  # idf unused
    terms, dfs = query.terms, query.dfs
    out: list[str] = []
    seen: set[str] = set()

    def add(t: str) -> None:
        if t not in seen:
            seen.add(t)
            out.append(t)

    for t in terms:
        add(t)
        for s in synonyms.get(t, []):
            add(s)
        if decompound_oov and dfs.get(t, 0) == 0:
            for p in decompound(df_lookup, t):
                add(p)
    return out


def search_expanded(
    reader,
    query_text: str,
    *,
    synonyms: dict[str, list[str]] | None = None,
    k: int = 10,
):
    """Synonym/decompound-expanded BM25 search (OR over the expanded set)."""
    expanded = expand_query(reader.df, reader.prepare(query_text, "or"), synonyms=synonyms)
    return reader._search_terms(expanded, k, "or")


def dictionary_decompound(
    ds,
    word_list,
    *,
    text_col: str = "text",
    min_word_size: int = 5,
    min_subword_size: int = 2,
    max_subword_size: int = 15,
    only_longest_match: bool = False,
):
    """Index-analysis decompounding against an EXTERNAL word list — the
    reference's actual semantics (`opensearch/config/
    decompound_word_list.nl.txt`, 53,175 entries, wired as a
    dictionary_decompounder at harvester/harvester/settings/base.py:
    308-309). Lucene DictionaryCompoundWordTokenFilter brute force: every
    dictionary word of length [min_subword_size, max_subword_size] that
    occurs as a substring of a corpus token of length ≥ min_word_size is
    emitted as that token's subword; ``only_longest_match`` keeps, per
    start position, only the longest dictionary match (Lucene flag).

    Returns the corpus-level DISTINCT (term, subword) decompound table as
    pandas, sorted by (term, subword).

    Scale shape: the word list is broadcast ONCE as a sorted numpy array
    (``ray.put``); each batch tokenizes, reduces to its distinct terms
    (dictionary work scales with per-batch vocabulary, not rows), and
    resolves ALL substring candidates with one vectorized searchsorted.
    Partials are distinct pairs; the final distinct is a
    vocabulary-bounded pyarrow group_by on the driver (no Ray groupby for
    vocab-sized data — CLAUDE.md perf rule)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    words = np.asarray(sorted({str(w) for w in word_list}), dtype=object)
    wref = ray.put(words)

    def partials(batch: pa.Table) -> pa.Table:
        wl = ray.get(wref)
        text = analyzer.normalize_text(batch[text_col])
        _rows, _codes, dictionary = analyzer.tokenize_flat(text)
        cand_term, cand_start, cand_str = [], [], []
        for term in dictionary.to_pylist():
            n = len(term)
            if n < min_word_size:
                continue
            for i in range(n - min_subword_size + 1):
                hi = min(n, i + max_subword_size)
                for j in range(i + min_subword_size, hi + 1):
                    cand_term.append(term)
                    cand_start.append(i)
                    cand_str.append(term[i:j])
        empty = pa.table({"term": pa.array([], pa.string()),
                          "subword": pa.array([], pa.string())})
        if not cand_str:
            return empty
        cs = np.asarray(cand_str, dtype=object)
        pos = np.searchsorted(wl, cs)
        pos[pos >= wl.size] = wl.size - 1
        hit = wl[pos] == cs
        if not hit.any():
            return empty
        df = pd.DataFrame({
            "term": np.asarray(cand_term, dtype=object)[hit],
            "start": np.asarray(cand_start, dtype=np.int64)[hit],
            "subword": cs[hit],
        })
        if only_longest_match:
            df["_len"] = df["subword"].str.len()
            df = df.sort_values(["term", "start", "_len"]).groupby(
                ["term", "start"], as_index=False
            ).tail(1)
        pairs = df[["term", "subword"]].drop_duplicates()
        return pa.table({
            "term": pa.array(pairs["term"].to_numpy(), pa.string()),
            "subword": pa.array(pairs["subword"].to_numpy(), pa.string()),
        })

    parts = list(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")
    )
    empty = pd.DataFrame({"term": pd.Series(dtype=object),
                          "subword": pd.Series(dtype=object)})
    if not parts:
        return empty
    allp = pa.concat_tables(parts)
    if allp.num_rows == 0:
        return empty
    distinct = allp.group_by(["term", "subword"]).aggregate([]).sort_by(
        [("term", "ascending"), ("subword", "ascending")]
    )
    return distinct.to_pandas()


def dictionary_decompound_sql(
    table: str,
    word_list,
    *,
    text_col: str = "text",
    min_word_size: int = 5,
    min_subword_size: int = 2,
    max_subword_size: int = 15,
) -> str:
    """Oracle for ``dictionary_decompound`` (only_longest_match=False):
    the distinct corpus terms list-joined to the word list on substring
    containment with the same length gates."""
    tok = analyzer.sql_tokenize_expr(text_col)
    wl = ", ".join(
        "'" + str(w).replace("'", "''") + "'" for w in sorted({str(w) for w in word_list})
    )
    return f"""
WITH terms AS (
  SELECT DISTINCT unnest({tok}) AS term FROM {table}
),
wl AS (SELECT unnest([{wl}]) AS w)
SELECT t.term, wl.w AS subword
FROM terms t JOIN wl ON strpos(t.term, wl.w) > 0
WHERE length(t.term) >= {min_word_size}
  AND length(wl.w) BETWEEN {min_subword_size} AND {max_subword_size}
ORDER BY term, subword
""".strip()
