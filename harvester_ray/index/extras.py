"""Search extras: more_like_this, autocomplete suggestions, aggregations
over the match set.

The reference delegates these wholesale to OpenSearch (similarity + author
suggestions: harvester/search/views/similarity.py:70-110; autocomplete:
harvester/search/views/autocomplete.py:25-33; ``results_total`` and
``include_filter_counts`` aggregations: harvester/search/views/
document.py:129-143; facet frequency refresh: harvester/metadata/models/
field.py:14-39). Implemented natively against the segment index.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from .. import analyzer
from . import bm25
from .query import (
    IndexReader,
    _topk,
    check_counts,
    exclude_terms,
    iter_matches,
    match_one_segment,
    merge_topk,
    or_exhaustive,
    phrase_match_segment,
    prepare_terms,
    score_spans,
    search_segment,
    span_matches,
)


def doc_top_terms(
    reader: IndexReader, doc_id: int, max_terms: int = 12
) -> list[str]:
    """A document's highest tf·idf terms — the MLT query-term selection.

    Scans only the one segment containing the doc (binary search over
    segment doc tables), and recovers the doc's terms from ONE vectorized
    whole-segment decode (``SegmentReader.all_postings``) rather than
    decoding every term's posting list separately."""
    for _, seg, _ in reader.segments():
        pos = np.searchsorted(seg.doc_ids, doc_id)
        if pos >= seg.doc_ids.size or seg.doc_ids[pos] != doc_id:
            continue
        term_rows, df_s, d_all, f_all = seg.all_postings()
        hit = np.flatnonzero(d_all == doc_id)
        if hit.size == 0:
            return []
        seg_of = np.searchsorted(np.cumsum(df_s), hit, side="right")
        terms = seg._term_strings.take(pa.array(term_rows[seg_of])).to_pylist()
        tfs = f_all[hit]
        dfs = reader.df(terms)
        scores = [
            (float(tf) * float(bm25.idf(reader.n_docs, dfs[t])), t)
            for t, tf in zip(terms, tfs)
        ]
        scores.sort(key=lambda x: (-x[0], x[1]))
        return [t for _, t in scores[:max_terms]]
    return []


def termvectors(reader: IndexReader, doc_id: int) -> pd.DataFrame:
    """ES ``_termvectors`` API: one document's full term list with term
    frequencies and within-doc token ordinals, answered from the INDEX's
    own structures (no corpus re-read): one vectorized whole-segment
    postings decode + one whole-segment positional decode of the single
    segment holding the doc — the same access pattern doc_top_terms uses,
    extended with the `.pos` stream. Returns flat (term, tf, pos) rows
    ordered (term asc, pos asc); empty if the doc is absent, deleted, or
    the segment lacks positions."""
    empty = pd.DataFrame({
        "term": pd.Series(dtype=object),
        "tf": pd.Series(dtype=np.int64),
        "pos": pd.Series(dtype=np.int64),
    })
    for _, seg, live_docs in reader.segments():
        p = np.searchsorted(seg.doc_ids, doc_id)
        if p >= seg.doc_ids.size or seg.doc_ids[p] != doc_id:
            continue
        if live_docs is not None and not live_docs[p]:
            continue
        if not seg.has_positions:
            return empty
        term_rows, df_s, d_all, f_all = seg.all_postings()
        hit = np.flatnonzero(d_all == doc_id)
        if hit.size == 0:
            return empty
        pos_all = seg.all_positions(f_all)
        offs = np.cumsum(f_all)
        counts = f_all[hit]
        starts = offs[hit] - counts
        # gather each hit posting's contiguous position slice, vectorized
        total = int(counts.sum())
        gather = np.repeat(starts, counts) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(counts) - counts, counts)
        )
        seg_of = np.searchsorted(np.cumsum(df_s), hit, side="right")
        terms = seg._term_strings.take(pa.array(term_rows[seg_of])).to_pylist()
        out = pd.DataFrame({
            "term": np.repeat(np.asarray(terms, dtype=object), counts),
            "tf": np.repeat(counts.astype(np.int64), counts),
            "pos": pos_all[gather],
        })
        return out.sort_values(["term", "pos"]).reset_index(drop=True)
    return empty


def termvectors_sql(
    table: str,
    doc_id: int,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for ``termvectors``: flat (term, tf, ordinal) from the raw
    text via the shared tokenizer."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH tl AS (SELECT {tok} AS arr FROM {table} WHERE {id_col} = {doc_id}),
flat AS (
  SELECT unnest(arr) AS term,
         CAST(generate_subscripts(arr, 1) - 1 AS BIGINT) AS pos
  FROM tl
),
tf AS (SELECT term, CAST(count(*) AS BIGINT) AS tf FROM flat GROUP BY term)
SELECT f.term, t.tf, f.pos
FROM flat f JOIN tf t USING (term)
ORDER BY f.term, f.pos
""".strip()


def more_like_this(
    reader: IndexReader, doc_id: int, k: int = 10, max_terms: int = 12
) -> pa.Table:
    """Similar documents: OR query over the doc's top tf·idf terms, the doc
    itself excluded (similarity endpoint analog)."""
    check_counts(k=k)
    terms = doc_top_terms(reader, doc_id, max_terms=max_terms)
    if not terms:
        return reader.search("", k=k)
    out = reader.search(" ".join(terms), k=k + 1, mode="or").to_pandas()
    out = out[out["doc_id"] != doc_id].head(k).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int32)
    return pa.Table.from_pandas(out, preserve_index=False)


def suggest(reader: IndexReader, prefix: str, limit: int = 10) -> pd.DataFrame:
    """Prefix autocomplete over the global term dictionary, ordered by
    document frequency (suggest_completion field analog,
    harvester/products/models/datatypes/product.py:169-180)."""
    prefix = prefix.lower()
    num_buckets = reader.manifest.get("num_buckets")
    ts_dir = os.path.join(reader.root, reader.manifest["termstats"])
    parts = []
    if os.path.isdir(ts_dir):
        for fname in sorted(os.listdir(ts_dir)):
            if not fname.endswith(".parquet"):
                continue
            tbl = pq.read_table(os.path.join(ts_dir, fname), columns=["term", "df"])
            import pyarrow.compute as pc

            m = pc.starts_with(tbl["term"], pattern=prefix)
            parts.append(tbl.filter(m).to_pandas())
    if not parts:
        return pd.DataFrame({"term": [], "df": []})
    out = pd.concat(parts, ignore_index=True)
    out = out.sort_values(["df", "term"], ascending=[False, True], kind="mergesort")
    return out.head(limit).reset_index(drop=True)


def highlight_topk(
    reader: IndexReader,
    docs_ds,
    query_text: str,
    *,
    k: int = 10,
    window: int = 30,
    width: int = 80,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Snippet highlighting for the top-k BM25 results (the OpenSearch
    ``highlight`` response block the reference's search portal consumes —
    the reference delegates it to the engine wholesale, like the other
    extras above).

    The snippet is the ``width``-char substring starting ``window`` chars
    before the FIRST occurrence of any query term (raw substring position,
    ES plain-highlighter-style), with every term occurrence wrapped in
    ``<em>`` tags. Distributed shape: search is the normal index top-k; the
    k texts are fetched with one broadcast-id semi-join pass over the docs
    Dataset (never a full collect); the per-snippet string work is O(k)
    driver work.
    """
    check_counts(k=k)
    import ray

    res = reader.search(query_text, k=k, mode="and").to_pandas()
    if not len(res):
        return pd.DataFrame(
            {"doc_id": pd.Series(dtype=np.int64), "score": pd.Series(dtype=np.float64),
             "snippet": pd.Series(dtype=object)}
        )
    terms = reader.prepare(query_text, "and").terms
    texts = fetch_texts(
        docs_ds, res["doc_id"].to_numpy(dtype=np.int64),
        id_col=id_col, text_col=text_col,
    )
    out = res[["doc_id", "score"]].copy()
    out["score"] = out["score"].round(4)
    out["snippet"] = make_snippets(
        texts, res["doc_id"], terms, window=window, width=width
    )
    return out.reset_index(drop=True)


def fetch_texts(
    docs_ds, doc_ids, *, id_col: str = "doc_id", text_col: str = "text"
) -> pd.Series:
    """Fetch the texts of a small id set with one broadcast-id semi-join
    pass over the docs Dataset (never a full collect). Returns a
    doc_id-indexed Series."""
    import ray

    ids_ref = ray.put(np.sort(np.asarray(doc_ids, dtype=np.int64)))

    def pick(t: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)
        d = np.asarray(t[id_col].combine_chunks().cast(pa.int64()))
        pos = np.searchsorted(ids, d)
        pos[pos == ids.size] = 0
        return t.filter(pa.array(ids[pos] == d)).select([id_col, text_col])

    return (
        docs_ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .set_index(id_col)[text_col]
    )


def make_snippets(
    texts, doc_ids, terms, *, window: int = 30, width: int = 80
) -> list[str]:
    """Shared plain-highlighter core: ``width``-char substring starting
    ``window`` chars before the first query-term occurrence, terms wrapped
    in ``<em>``. ``texts`` is any int-keyed mapping (pd.Series.get works).
    O(k) driver work — callers fetch the k texts distributedly."""
    snips = []
    for doc_id in doc_ids:
        text = texts.get(int(doc_id), "") or ""
        first = min((p for p in (text.find(t) for t in terms) if p >= 0), default=0)
        start = max(0, first - window)
        snip = text[start : start + width]
        for t in terms:
            snip = snip.replace(t, f"<em>{t}</em>")
        snips.append(snip)
    return snips


# ---------------------------------------------------------------------------
# did_you_mean — the OpenSearch term-suggester half of the reference search
# response (harvester/search/views/document.py:139 returns ``did_you_mean``
# from the search_client's suggester on every query). ES ``suggest_mode:
# missing`` semantics: only tokens ABSENT from the index get a correction;
# candidates must share the first ``prefix_length`` chars (ES default 1) and
# lie within ``max_edits`` (ES default 2) Levenshtein edits, ranked by edit
# distance, then document frequency desc, then term asc. The surface is
# ``SearchSurfaces.did_you_mean``; the ranking lives here.


def _levenshtein_batch(query: str, cands: list[str]) -> np.ndarray:
    """Edit distance from ``query`` to every candidate, vectorized over the
    candidate axis: the DP runs m × Lmax numpy steps of O(n_cands) instead
    of a per-pair Python DP. Tokens are analyzer output (ascii), so a uint8
    byte matrix is exact."""
    q = np.frombuffer(query.encode(), dtype=np.uint8)
    m = q.size
    n = len(cands)
    lens = np.fromiter((len(c) for c in cands), dtype=np.int64, count=n)
    L = int(lens.max())
    mat = np.zeros((n, L), dtype=np.uint8)
    for i, c in enumerate(cands):
        b = c.encode()
        mat[i, : len(b)] = np.frombuffer(b, dtype=np.uint8)
    prev = np.tile(np.arange(L + 1, dtype=np.int64), (n, 1))
    for i in range(1, m + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        qi = q[i - 1]
        for j in range(1, L + 1):
            sub = prev[:, j - 1] + (mat[:, j - 1] != qi)
            cur[:, j] = np.minimum(np.minimum(prev[:, j], cur[:, j - 1]) + 1, sub)
        prev = cur
    return prev[np.arange(n), lens]


def _best_suggestion(tok: str, vocab: dict[str, int], max_edits: int) -> str:
    """Shared ranking core: min edit distance, then df desc, then term asc
    over an aggregated {term: df} candidate map; '' when nothing qualifies.
    Used by ``did_you_mean`` on every backend."""
    if not vocab:
        return ""
    terms = sorted(vocab)
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=len(terms))
    keep = np.abs(lens - len(tok)) <= max_edits
    terms = [t for t, k in zip(terms, keep) if k]
    if not terms:
        return ""
    dist = _levenshtein_batch(tok, terms)
    ok = dist <= max_edits
    if not ok.any():
        return ""
    dfs = np.fromiter((vocab[t] for t in terms), dtype=np.int64, count=len(terms))
    cand = sorted(
        ((int(d), -int(f), t) for t, d, f, o in zip(terms, dist, dfs, ok) if o)
    )
    return cand[0][2]


def suggest_tokens(prep, vocabs, max_edits: int, prefix_length: int) -> pd.DataFrame:
    """(token, suggestion) per distinct query token: '' for tokens the
    index holds or shorter than ``prefix_length``, else the best
    ``_best_suggestion`` over its {term: df} candidates sharing the prefix
    within the edit window. ``vocabs`` gets the ``(prefix, min_len,
    max_len)`` of every token to correct in one call and returns their
    candidate maps in order."""
    fix = [t for t in prep.terms if prep.dfs[t] == 0 and len(t) >= prefix_length]
    cands = dict(zip(fix, vocabs([
        (t[:prefix_length], len(t) - max_edits, len(t) + max_edits) for t in fix
    ])))
    out = [
        (t, _best_suggestion(t, cands[t], max_edits) if t in cands else "")
        for t in prep.terms
    ]
    return pd.DataFrame(out, columns=["token", "suggestion"], dtype=object)


def mine_hard_negatives(
    reader: IndexReader,
    pairs: dict[str, list[int]],
    *,
    k: int = 5,
    mode: str = "or",
) -> pd.DataFrame:
    """Hard-negative mining for retrieval/embedding training: for each
    (query → known-positive doc ids) pair, the top lexical matches that are
    NOT positives — the BM25-confusable documents a dual encoder most needs
    as negatives (the standard DPR/sentence-transformers mining recipe,
    run against this engine instead of a serving cluster).

    One ``msearch`` sweep evaluates every query (segments opened once,
    shared postings decode), over-fetching ``k + |positives|`` per query so
    the post-hoc anti-join can never starve the result; ranks are
    renumbered 1..k after exclusion. Returns (query, rank, doc_id, score),
    scores rounded to 4."""
    check_counts(k=k)
    queries = list(pairs)
    empty = pd.DataFrame({
        "query": pd.Series(dtype=object),
        "rank": pd.Series(dtype=np.int32),
        "doc_id": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    })
    if not queries:
        return empty
    p_max = max(len(v) for v in pairs.values())
    res = reader.msearch(queries, k=k + p_max, mode=mode).to_pandas()
    if res.empty:
        return empty
    res["score"] = res["score"].round(4)
    outs = []
    for q in queries:
        part = res[res["query"] == q]
        part = part[~part["doc_id"].isin(pairs[q])].head(k).copy()
        part["rank"] = np.arange(1, len(part) + 1, dtype=np.int32)
        outs.append(part)
    out = pd.concat(outs, ignore_index=True)
    return out[["query", "rank", "doc_id", "score"]]


def suggest_phrases(
    reader: IndexReader,
    query_text: str,
    *,
    max_edits: int = 2,
    per_token: int = 3,
    n: int = 5,
) -> pd.DataFrame:
    """ES ``phrase`` suggester (unigram-smoothing configuration): correct
    the WHOLE query, not tokens in isolation. Per token, the top
    ``per_token`` dictionary candidates within ``max_edits`` Levenshtein
    edits (same first char + length window — the same prefix-bounded
    dictionary walk did_you_mean uses, so cost is a range probe per
    segment, never a vocabulary scan), ranked (distance asc, df desc, term
    asc). Candidate phrases are the cross product; a phrase's score is the
    EXACT integer ``Π (df_i + 1)`` (Laplace-smoothed unigram likelihood up
    to a constant factor — monotone-identical ranking with no float logs),
    ties broken by phrase ascending.

    A token with no in-vocabulary candidate passes through unchanged with
    df 0 (the SQL oracle assumes every token has candidates; gate queries
    satisfy that)."""
    import itertools

    toks = analyzer.tokenize_query(query_text, reader.analyzer_version)  # order kept
    empty = pd.DataFrame({"phrase": pd.Series(dtype=object),
                          "score": pd.Series(dtype=np.int64)})
    if not toks:
        return empty
    cand_lists: list[list[tuple[str, int]]] = []
    vocabs = reader.vocab([(t[:1], len(t) - max_edits, len(t) + max_edits) for t in toks])
    for tok, vocab in zip(toks, vocabs):
        names = sorted(vocab)
        if names:
            dists = _levenshtein_batch(tok, names)
            ranked = sorted(
                (
                    (int(d), -vocab[t], t)
                    for t, d in zip(names, dists)
                    if d <= max_edits
                ),
            )[:per_token]
            cands = [(t, -negdf) for _, negdf, t in ranked]
        else:
            cands = []
        cand_lists.append(cands if cands else [(tok, 0)])
    rows = []
    for combo in itertools.product(*cand_lists):
        phrase = " ".join(t for t, _ in combo)
        score = 1
        for _, df in combo:
            score *= df + 1
        rows.append((phrase, score))
    rows.sort(key=lambda r: (-r[1], r[0]))
    out = pd.DataFrame(rows[:n], columns=["phrase", "score"])
    out["score"] = out["score"].astype(np.int64)
    return out


def phrase_suggest_sql(
    table: str,
    query_text: str,
    *,
    max_edits: int = 2,
    per_token: int = 3,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for ``suggest_phrases``: per-token candidate CTEs with the
    same prefix/length/edit constraints and (distance, df desc, term)
    ranking, cross-joined, scored ``Π (df+1)`` as BIGINT."""
    toks = analyzer.tokenize_query(query_text)
    tok_expr = analyzer.sql_tokenize_expr(text_col)
    ctes = [
        f"tokd AS (SELECT {id_col} AS doc_id, unnest({tok_expr}) AS t FROM {table})",
        "vocab AS (SELECT t AS term, count(DISTINCT doc_id) AS df FROM tokd GROUP BY t)",
    ]
    for i, tok in enumerate(toks):
        lit = tok.replace("'", "''")
        ctes.append(
            f"""c{i} AS (
  SELECT term, df FROM vocab
  WHERE substr(term, 1, 1) = substr('{lit}', 1, 1)
    AND abs(length(term) - length('{lit}')) <= {max_edits}
    AND levenshtein(term, '{lit}') <= {max_edits}
  QUALIFY row_number() OVER (
    ORDER BY levenshtein(term, '{lit}') ASC, df DESC, term ASC
  ) <= {per_token}
)"""
        )
    phrase = " || ' ' || ".join(f"c{i}.term" for i in range(len(toks)))
    score = " * ".join(f"(c{i}.df + 1)" for i in range(len(toks)))
    froms = " CROSS JOIN ".join(f"c{i}" for i in range(len(toks)))
    return f"""
WITH {", ".join(ctes)}
SELECT {phrase} AS phrase, CAST({score} AS BIGINT) AS score
FROM {froms}
ORDER BY score DESC, phrase ASC
LIMIT {n}
""".strip()


def search_after(
    reader: IndexReader,
    query_text: str,
    *,
    after: tuple[float, int] | None = None,
    k: int = 10,
    mode: str = "and",
    round_digits: int = 4,
) -> pd.DataFrame:
    """Cursor pagination (ES ``search_after`` semantics): return the next
    ``k`` results strictly after the ``(score, doc_id)`` cursor in the
    total order (rounded score desc, doc_id asc). The cursor compares
    ROUNDED scores so a page boundary is stable across processes (the same
    rounding the API response carries). Deep cursors score each segment's
    full match set — the per-shard cost ES pays on deep pagination too —
    rather than inflating a top-k heap by the cursor depth."""
    check_counts(k=k)
    prep = reader.prepare(query_text, mode)
    if prep.empty:
        return _no_hits()
    doc_parts, score_parts = [], []
    for seg, matched in iter_matches(reader.segments(), prep.live, mode):
        dl = seg.doc_lengths(matched).astype(np.float64)
        s = np.zeros(matched.size, np.float64)
        for t in prep.live:
            d, f = seg.postings(t)
            pos = np.searchsorted(d, matched)
            posc = np.clip(pos, 0, max(d.size - 1, 0))
            hit = (d.size > 0) & (d[posc] == matched) if d.size else np.zeros(matched.size, bool)
            tf = np.where(hit, f[posc], 0).astype(np.float64)
            s += bm25.score(tf, dl, prep.idf[t], reader.avgdl)
        doc_parts.append(matched)
        score_parts.append(s)
    docs = np.concatenate(doc_parts)
    scores = np.round(np.concatenate(score_parts), round_digits)
    if after is not None:
        cs, cd = float(after[0]), int(after[1])
        keep = (scores < cs) | ((scores == cs) & (docs > cd))
        docs, scores = docs[keep], scores[keep]
    order = np.lexsort((docs, -scores))[:k]
    return pd.DataFrame({"doc_id": docs[order], "score": scores[order]})


def search_stats(
    reader: IndexReader,
    query_text: str,
    *,
    by: str = "source",
    mode: str = "and",
) -> pd.DataFrame:
    """Numeric stats aggregation over the match set (the ES ``stats`` agg
    next to the facet counts): per ``by``-field value, match count and
    token-length sum/mean of the matching docs. dl comes from the doc-table
    sidecars already in memory — no text is touched."""
    acc: dict[str, list[int]] = {}
    for seg, matched in reader.matches(query_text, mode):
        vals = seg.attr_values(by, matched)
        dl = seg.doc_lengths(matched)
        svals = np.asarray(vals, dtype=object)
        uniq, inv = np.unique(svals, return_inverse=True)
        n = np.bincount(inv)
        s = np.bincount(inv, weights=dl.astype(np.float64)).astype(np.int64)
        for v, c, ds in zip(uniq, n, s):
            cur = acc.setdefault(str(v), [0, 0])
            cur[0] += int(c)
            cur[1] += int(ds)
    rows = sorted(acc.items())
    dl_sum = np.array([v[1] for _, v in rows], np.int64)
    n_m = np.array([v[0] for _, v in rows], np.int64)
    avg = np.floor(dl_sum / np.maximum(n_m, 1) * 1e6 + 0.5) / 1e6
    return pd.DataFrame({
        by: pd.Series([k for k, _ in rows], dtype=object),
        "n_matches": n_m,
        "dl_sum": dl_sum,
        "avg_dl": avg,
    })


def fuzzy_search(
    reader: IndexReader,
    query_text: str,
    *,
    k: int = 10,
    max_edits: int = 1,
    prefix_length: int = 1,
    max_expansions: int = 50,
) -> pd.DataFrame:
    """Fuzzy term search (ES ``fuzziness`` on a term query): expand the
    (single) query token to dictionary terms within ``max_edits``
    Levenshtein edits sharing the first ``prefix_length`` chars — the same
    prefix-bounded candidate walk did_you_mean uses — then score the
    expansion as a disjunction, each term with its own idf."""
    check_counts(k=k)
    tok = _single_token(reader, query_text, "fuzzy_search takes exactly one token")
    terms = _fuzzy_terms(reader, tok, max_edits, prefix_length)[:max_expansions]
    return reader._search_terms(terms, k, "or").to_pandas()


def _fuzzy_terms(reader: IndexReader, tok: str, max_edits: int, prefix_length: int) -> list[str]:
    """Sorted dictionary terms within ``max_edits`` Levenshtein edits of
    ``tok`` sharing its first ``prefix_length`` chars."""
    cands = sorted(reader.vocab([
        (tok[:prefix_length], len(tok) - max_edits, len(tok) + max_edits)
    ])[0])
    if not cands:
        return []
    return [c for c, d in zip(cands, _levenshtein_batch(tok, cands)) if d <= max_edits]


def match_fuzzy(
    reader: IndexReader,
    query_text: str,
    *,
    k: int = 10,
    max_edits: int = 1,
    prefix_length: int = 1,
    max_expansions: int = 50,
) -> pd.DataFrame:
    """Multi-token fuzzy match (ES ``match`` with ``fuzziness``): every
    query token expands to the dictionary terms within ``max_edits``
    Levenshtein edits (same prefix-bounded candidate walk as
    ``fuzzy_search``; an exact-vocabulary token contributes at least
    itself), the UNION of expansions is capped at ``max_expansions``
    lexicographically (Lucene rewrite cap) and scored as one disjunction
    with per-term idf — so a typo'd token still contributes its neighbors'
    postings next to the clean tokens'."""
    check_counts(k=k)
    union = {
        t for tok in reader.prepare(query_text, "or").terms if len(tok) >= prefix_length
        for t in _fuzzy_terms(reader, tok, max_edits, prefix_length)
    }
    out = reader._search_terms(sorted(union)[:max_expansions], k, "or").to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def match_fuzzy_predicate_sql(
    query_text: str,
    *,
    max_edits: int = 1,
    prefix_length: int = 1,
) -> str:
    """The term predicate for oracle.bm25_expansion_sql matching
    ``match_fuzzy``'s per-token candidate rules."""
    toks = sorted(set(analyzer.tokenize_query(query_text)))
    parts = []
    for tok in toks:
        if len(tok) < prefix_length:
            continue
        lit = tok.replace("'", "''")
        parts.append(
            f"(substr(term, 1, {prefix_length}) = substr('{lit}', 1, {prefix_length}) "
            f"AND abs(length(term) - length('{lit}')) <= {max_edits} "
            f"AND levenshtein(term, '{lit}') <= {max_edits})"
        )
    return " OR ".join(parts) if parts else "1=0"


def explain(reader: IndexReader, query_text: str, doc_id: int | None = None) -> pd.DataFrame:
    """Per-term BM25 score breakdown for one document (the ES ``_explain``
    API, which the reference exposes indirectly through OpenSearch's
    explain=true search flag): for each query term matched by the doc,
    the term's tf in the doc, corpus df, and its BM25 contribution.

    ``doc_id=None`` explains the top-1 AND-mode hit (self-contained for
    the driver gate). Touches only the ONE segment containing the doc
    (binary search over segment doc tables) and decodes only the query
    terms' posting lists."""
    empty = pd.DataFrame({
        "term": pd.Series(dtype=object),
        "tf": pd.Series(dtype=np.int64),
        "df": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    })
    prep = reader.prepare(query_text, "and")
    if not prep.terms:
        return empty
    if doc_id is None:
        top = reader._topk(prep, 1, "and")
        if top.num_rows == 0:
            return empty
        doc_id = int(top["doc_id"][0].as_py())
    for _, seg, _ in reader.segments():
        pos = np.searchsorted(seg.doc_ids, doc_id)
        if pos >= seg.doc_ids.size or seg.doc_ids[pos] != doc_id:
            continue
        dl = float(seg.doc_lengths(np.array([doc_id], dtype=np.int64))[0])
        rows = []
        for t in prep.terms:
            p = seg.postings(t)
            if p is None:
                continue
            docs, tfs = p[0], p[1]
            i = np.searchsorted(docs, doc_id)
            if i >= docs.size or docs[i] != doc_id:
                continue
            tf = int(tfs[i])
            s = float(bm25.score(np.array([tf], dtype=np.int64),
                                 np.array([dl]), prep.idf[t], reader.avgdl)[0])
            rows.append((t, tf, int(prep.dfs[t]), round(s, 4)))
        if not rows:
            return empty
        out = pd.DataFrame(rows, columns=["term", "tf", "df", "score"])
        return out.sort_values("term").reset_index(drop=True)
    return empty


def _entries(seg, live: list[str], mode: str) -> dict | None:
    """The segment's dictionary entries of the ``live`` terms, or None when
    the segment cannot match (no term, or a missing AND term)."""
    entries = {t: e for t in live if (e := seg.entry(t)) is not None}
    if not entries or (mode == "and" and len(entries) < len(live)):
        return None
    return entries


def scored_matches(reader: IndexReader, live: list[str], idf_map: dict, mode: str):
    """Yield ``(segment, live_docs, docs, scores)`` per segment with a
    match, EVERY matching doc BM25-scored (``or_exhaustive``; AND through
    min_should_match) — for ops that rank, group or fold all matches."""
    msm = len(live) if mode == "and" else None
    for _, seg, live_docs in reader.segments():
        entries = _entries(seg, live, mode)
        if entries is None:
            continue
        docs, scores = or_exhaustive(
            seg, entries, idf_map, reader.avgdl, k=2**31,
            live_docs=live_docs, min_should_match=msm,
        )
        if docs.size:
            yield seg, live_docs, docs, scores


def scored_query(reader: IndexReader, query_text: str, mode: str):
    """``scored_matches`` of the prepared query; nothing when it cannot
    match."""
    prep = reader.prepare(query_text, mode)
    return iter(()) if prep.empty else scored_matches(reader, prep.live, prep.idf, mode)


def _span_topk(reader: IndexReader, match, k: int, positions: str | None = None) -> pd.DataFrame:
    """(doc_id, score) top-k of a span query: ``match(seg)`` gives each
    segment's (docs, span tf); scored by ``score_spans``, rounded to 4."""
    out = score_spans(
        *span_matches(reader.segments(), match, positions=positions),
        reader.n_docs, reader.avgdl, k,
    ).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


_NO_SPANS = (np.empty(0, np.int64), np.empty(0, np.int64))


def _no_hits() -> pd.DataFrame:
    return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                         "score": pd.Series(dtype=np.float64)})


def _single_token(reader: IndexReader, text: str, what: str) -> str:
    toks = reader.prepare(text, "or").terms
    if len(toks) != 1:
        raise ValueError(what)
    return toks[0]


def author_suggestions(
    reader: IndexReader,
    author_name: str,
    *,
    authors_field: str = "authors",
    k: int = 10,
    sep: str = "|",
) -> pd.DataFrame:
    """Author-suggestions endpoint (reference search/views/similarity.py:
    84-110 — "documents where the name of the author appears in the text or
    metadata, but is not set as author in the authors field", offered to
    authors as more content from their hand): BM25-OR ranking of the name
    over the text MINUS docs whose ``authors_field`` attribute contains the
    name as an exact case-insensitive, trimmed ``sep``-separated entry —
    the ES analog is a match query with a must_not term on
    authors.name.keyword.

    Per segment: exhaustive OR scoring (global df), the entry anti-filter
    evaluated once per DISTINCT attr value (attr cardinality ≪ matches),
    then a LOCAL top-k cut — merge fan-in is O(segments × k). Scores round
    to 4 before the cut with doc_id tie-break, so oracle LIMIT selection is
    identical."""
    check_counts(k=k)
    name_norm = author_name.strip().lower()
    docs_parts, score_parts = [], []
    for seg, _, docs, scores in scored_query(reader, author_name, "or"):
        vals = pd.Series(np.asarray(seg.attr_values(authors_field, docs),
                                    dtype=object)).fillna("")
        codes, uniques = pd.factorize(vals)
        is_author = np.fromiter(
            (any(p.strip().lower() == name_norm for p in str(u).split(sep))
             for u in uniques),
            dtype=bool, count=len(uniques),
        )
        keep = ~is_author[codes]
        docs, scores = docs[keep], np.round(scores[keep], 4)
        if docs.size == 0:
            continue
        order = np.lexsort((docs, -scores))[:k]
        docs_parts.append(docs[order])
        score_parts.append(scores[order])
    if not docs_parts:
        return _no_hits()
    docs = np.concatenate(docs_parts)
    scores = np.concatenate(score_parts)
    order = np.lexsort((docs, -scores))[:k]
    return pd.DataFrame({"doc_id": docs[order], "score": scores[order]})


def search_collapse(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "source",
    k: int = 10,
    mode: str = "or",
) -> pd.DataFrame:
    """Field-collapsed top-k (the ES ``collapse`` search option the
    reference's search views rely on for per-provider result folding):
    at most ONE hit per distinct ``field`` value — each group keeps its
    best doc by (score desc, doc_id asc) — then the groups' best docs are
    ranked globally and cut at k.

    Per segment the matched set is scored exhaustively (global-df idf) and
    reduced to ONE row per field value before leaving the segment, so the
    merge fan-in is O(segments × distinct values), never O(matches).
    Scores are rounded to 4 decimals BEFORE group selection on both engine
    and oracle sides, so representative choice is byte-identical."""
    check_counts(k=k)
    empty = pd.DataFrame({
        field: pd.Series(dtype=object),
        "doc_id": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    })
    vals_parts, docs_parts, score_parts = [], [], []
    for seg, _, docs, scores in scored_query(reader, query_text, mode):
        scores = np.round(scores, 4)
        vals = seg.attr_values(field, docs)
        # one row per field value leaves the segment
        order = np.lexsort((docs, -scores, vals))
        vals, docs, scores = vals[order], docs[order], scores[order]
        first = np.empty(vals.size, dtype=bool)
        first[0] = True
        first[1:] = vals[1:] != vals[:-1]
        vals_parts.append(vals[first])
        docs_parts.append(docs[first])
        score_parts.append(scores[first])
    if not vals_parts:
        return empty
    vals = np.concatenate(vals_parts)
    docs = np.concatenate(docs_parts)
    scores = np.concatenate(score_parts)
    order = np.lexsort((docs, -scores, vals))
    vals, docs, scores = vals[order], docs[order], scores[order]
    first = np.empty(vals.size, dtype=bool)
    first[0] = True
    first[1:] = vals[1:] != vals[:-1]
    vals, docs, scores = vals[first], docs[first], scores[first]
    order = np.lexsort((docs, -scores))
    vals, docs, scores = vals[order][:k], docs[order][:k], scores[order][:k]
    return pd.DataFrame({field: vals, "doc_id": docs, "score": scores})


def terms_stats_agg(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "source",
    size: int = 10,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``terms`` aggregation carrying a metric SUB-aggregation — the
    single most common aggs nesting (`terms` + per-bucket `avg`): for each
    attr value of the match set, doc_count, sum of token lengths and their
    fixed-point average. Per segment one (value → count, dl_sum) partial
    fold leaves the worker (bounded by distinct values, never matches);
    exact regime only (every value reported), so counts are exact and the
    oracle mirrors byte-identically. Buckets ordered count desc, value asc,
    cut at ``size``."""
    empty = pd.DataFrame({
        field: pd.Series(dtype=object),
        "doc_count": pd.Series(dtype=np.int64),
        "sum_dl": pd.Series(dtype=np.int64),
        "avg_dl": pd.Series(dtype=np.float64),
    })
    parts: list[pd.DataFrame] = []
    for seg, docs in reader.matches(query_text, mode):
        vals = seg.attr_values(field, docs)
        dl = seg.doc_lengths(docs).astype(np.int64)
        order = np.argsort(vals, kind="mergesort")
        vals, dl = vals[order], dl[order]
        first = np.empty(vals.size, dtype=bool)
        first[0] = True
        first[1:] = vals[1:] != vals[:-1]
        starts = np.flatnonzero(first)
        parts.append(pd.DataFrame({
            field: vals[starts],
            "doc_count": np.diff(np.append(starts, vals.size)).astype(np.int64),
            "sum_dl": np.add.reduceat(dl, starts).astype(np.int64),
        }))
    if not parts:
        return empty
    agg = (
        pd.concat(parts, ignore_index=True)
        .groupby(field, as_index=False)[["doc_count", "sum_dl"]]
        .sum()
    )
    agg = agg.sort_values(
        ["doc_count", field], ascending=[False, True], kind="mergesort"
    ).head(size).reset_index(drop=True)
    import math

    agg["avg_dl"] = [
        math.floor(int(s) / int(c) * 1e6 + 0.5) / 1e6
        for s, c in zip(agg["sum_dl"], agg["doc_count"])
    ]
    return agg.astype({"doc_count": np.int64, "sum_dl": np.int64})


def terms_agg(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "source",
    size: int = 10,
    shard_size: int | None = None,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``terms`` aggregation with its distributed-approximation contract:
    each shard (segment) reports only its top ``shard_size`` values by local
    doc count, the coordinator sums what was reported, and every returned
    bucket carries ``doc_count_error_upper_bound`` — the worst-case count
    mass a non-reporting shard could have hidden (the sum, over shards that
    did not report the value, of that shard's smallest reported count; a
    shard that returned ALL its values contributes 0). ES semantics exactly:
    ``true_count ≤ doc_count + doc_count_error_upper_bound`` and, with
    ``shard_size`` ≥ per-shard distinct values, counts are exact and every
    bound is 0.

    This is the facet path that stays cheap at 100 TB: per segment one
    unscored match enumeration + one sort/reduceat count fold, and only
    ``shard_size`` rows leave each segment regardless of match count.
    ``shard_size=None`` keeps everything (exact mode, bounds ≡ 0)."""
    empty = pd.DataFrame({
        field: pd.Series(dtype=object),
        "doc_count": pd.Series(dtype=np.int64),
        "doc_count_error_upper_bound": pd.Series(dtype=np.int64),
    })
    seg_reports: list[pd.DataFrame] = []
    seg_worst: list[int] = []
    for seg, docs in reader.matches(query_text, mode):
        vals = seg.attr_values(field, docs)
        order = np.argsort(vals, kind="mergesort")
        vals = vals[order]
        first = np.empty(vals.size, dtype=bool)
        first[0] = True
        first[1:] = vals[1:] != vals[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, vals.size))
        uvals = vals[starts]
        order = np.lexsort((uvals, -counts))
        uvals, counts = uvals[order], counts[order]
        if shard_size is not None and uvals.size > shard_size:
            uvals, counts = uvals[:shard_size], counts[:shard_size]
            seg_worst.append(int(counts[-1]))  # smallest reported count
        else:
            seg_worst.append(0)
        seg_reports.append(pd.DataFrame({field: uvals, "doc_count": counts}))
    if not seg_reports:
        return empty
    merged = (
        pd.concat(seg_reports)
        .groupby(field, as_index=False)["doc_count"].sum()
    )
    bounds = np.zeros(len(merged), dtype=np.int64)
    for rep, worst in zip(seg_reports, seg_worst):
        if worst:
            missing = ~merged[field].isin(rep[field]).to_numpy()
            bounds[missing] += worst
    merged["doc_count_error_upper_bound"] = bounds
    merged = merged.sort_values(
        [ "doc_count", field], ascending=[False, True], kind="mergesort"
    ).head(size)
    merged["doc_count"] = merged["doc_count"].astype(np.int64)
    return merged.reset_index(drop=True)[
        [field, "doc_count", "doc_count_error_upper_bound"]
    ]


def count_terminate_after(
    reader: IndexReader,
    query_text: str,
    *,
    terminate_after: int,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``_count`` with ``terminate_after``: stop enumerating once the
    running match count reaches the threshold and report (count,
    terminated). The contract is a LOWER BOUND when terminated — the shape
    dashboards use for "10,000+ results" counters where an exact count
    would decode every posting. Per segment the count is still one
    vectorized enumeration; termination saves the REMAINING segments, which
    is where the win is at 100 TB (thousands of segments, threshold hit in
    the first few)."""
    count = 0
    terminated = False
    for _, matched in reader.matches(query_text, mode):
        count += int(matched.size)
        if count >= terminate_after:
            terminated = True
            break
    return pd.DataFrame({
        "count": [np.int64(count)],
        "terminated": [bool(terminated)],
    })


def profile_search(
    reader: IndexReader,
    query_text: str,
    *,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``_profile`` API shape: structural cost counters for a query —
    segments touched vs total, live terms, postings decoded (Σ df over
    touched segments), candidate docs enumerated — plus wall time. The
    counters are structural facts (deterministic, asserted in tests);
    timings are informational. Used to answer "why is this query slow"
    without tracing: a query decoding 10^8 postings for a 10-doc answer
    needs a rarer term or a filter."""
    import time as _time

    t0 = _time.time()
    prep = reader.prepare(query_text, mode)
    seg_total = len(reader.manifest["segments"])
    seg_touched = 0
    postings = 0
    candidates = 0
    for _, seg, live_docs in reader.segments():
        entries = _entries(seg, prep.live, mode)
        if entries is None:
            continue
        seg_touched += 1
        postings += int(sum(e["df"] for e in entries.values()))
        candidates += int(match_one_segment(seg, prep.live, mode, live_docs, None).size)
    return pd.DataFrame({
        "segments_total": [np.int64(seg_total)],
        "segments_touched": [np.int64(seg_touched)],
        "query_terms": [np.int64(len(prep.terms))],
        "live_terms": [np.int64(len(prep.live))],
        "postings_decoded": [np.int64(postings)],
        "candidates": [np.int64(candidates)],
        "wall_ms": [round((_time.time() - t0) * 1000, 3)],
    })


def cardinality_agg(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "source",
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``cardinality`` aggregation over the match set — EXACT here
    (per-segment distinct attr values union-folded on the driver; the
    value set is facet-bounded). The index-free approximate siblings for
    unbounded fields are ops/sketch.py's HLL/KMV gates."""
    vals: set = set()
    for seg, docs in reader.matches(query_text, mode):
        vals.update(np.unique(seg.attr_values(field, docs)).tolist())
    return pd.DataFrame({"n_distinct": [np.int64(len(vals))]})


def parse_boosted_query(query_text: str, version: str = "v1") -> dict[str, float]:
    """simple_query_string per-term ``^boost`` syntax (``spark^2 window``)
    → {term: boost}; repeated terms keep the LAST boost, bare terms boost
    1.0. Tokens are analyzed exactly like plain queries, with the index's
    analyzer ``version``."""
    out: dict[str, float] = {}
    for raw in query_text.split():
        if "^" in raw:
            body, _, b = raw.rpartition("^")
            try:
                boost = float(b)
            except ValueError:
                body, boost = raw, 1.0
        else:
            body, boost = raw, 1.0
        for tok in analyzer.tokenize_query(body, version):
            out[tok] = boost
    return out


def search_boosted_terms(
    reader: IndexReader,
    query_text: str,
    *,
    k: int = 10,
) -> pd.DataFrame:
    """OR search with per-term boosts (``spark^2 window``): each term's
    BM25 contribution scales by its boost — exactly Lucene's boosted
    term-query sum, implemented by scaling the term's idf before the
    existing exhaustive scorer (contribution is linear in idf, so no new
    scoring path)."""
    check_counts(k=k)
    boosts = parse_boosted_query(query_text, reader.analyzer_version)
    prep = prepare_terms(boosts, "or", reader.df, reader.n_docs)
    idf_map = {t: idf * boosts[t] for t, idf in prep.idf.items()}
    parts = [
        (docs, np.round(scores, 4))
        for _, _, docs, scores in scored_matches(reader, prep.live, idf_map, "or")
    ]
    if not parts:
        return _no_hits()
    docs = np.concatenate([p[0] for p in parts])
    scores = np.concatenate([p[1] for p in parts])
    order = np.lexsort((docs, -scores))[:k]
    return pd.DataFrame({"doc_id": docs[order], "score": scores[order]})


def boosted_terms_sql(
    table: str,
    query_text: str,
    *,
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for search_boosted_terms: bm25_sql's OR scorer with each
    term's contribution multiplied by its boost."""
    check_counts(k=k)
    from . import oracle as _oracle

    boosts = parse_boosted_query(query_text)
    terms = sorted(boosts)
    term_list = ", ".join("'" + t.replace("'", "''") + "'" for t in terms)
    boost_case = " ".join(
        f"WHEN '{t.replace(chr(39), chr(39) * 2)}' THEN {float(boosts[t])!r}"
        for t in terms
    )
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH doclen AS (
  SELECT {id_col} AS doc_id, len({tok}) AS dl FROM {table}
),
stats AS (SELECT count(*) AS n_docs, avg(dl) AS avgdl FROM doclen),
toks AS (SELECT {id_col} AS doc_id, unnest({tok}) AS term FROM {table}),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ({term_list}) GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum( (CASE tf.term {boost_case} ELSE 1.0 END)
              * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({bm25.K1} + 1.0)
              / (tf.tf + {bm25.K1} * (1.0 - {bm25.B} + {bm25.B} * d.dl / s.avgdl)) ) AS score
  FROM tf JOIN df USING (term)
  JOIN doclen d ON tf.doc_id = d.doc_id
  CROSS JOIN stats s
  GROUP BY tf.doc_id
)
SELECT doc_id, round(score, 4) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {k}
""".strip()


def search_span_near(
    reader: IndexReader,
    phrase: str,
    *,
    slop: int = 0,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``span_near`` with ``in_order=false``: docs where ALL query terms
    co-occur within a window of ``len(terms) + slop`` positions in ANY
    order (the unordered sibling of ``search_proximity``). Returns
    (doc_id, span_w) — the MINIMAL covering-window width — ranked tightest
    first (span_w asc, doc_id asc): exact integers, no float scoring.

    Per segment: candidates are the AND-intersection of the terms' posting
    lists (so the per-doc work is bounded by conjunctive match count, the
    same bound Lucene's span iterator pays); each candidate's minimal
    window is the classic two-pointer sweep over its term-tagged position
    multiset. Requires ``store_positions=True``."""
    check_counts(k=k)
    empty = pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                          "span_w": pd.Series(dtype=np.int64)})
    terms = reader.prepare(phrase, "and").terms
    if len(terms) < 2:
        return empty
    W = len(terms) + slop
    rows_d, rows_w = [], []
    for _, seg, live_docs in reader.segments():
        if not seg.has_positions:
            raise ValueError(
                "span_near needs positions — build_index(store_positions=True)"
            )
        cand = match_one_segment(seg, terms, "and", live_docs, None)
        if cand.size == 0:
            continue
        # one positional decode per term; slice per candidate doc
        per_term = []
        ok = True
        for t in terms:
            hit = seg.positions(t)
            if hit is None:
                ok = False
                break
            per_term.append(hit)  # (docs, tfs, flat positions)
        if not ok:
            continue
        for d in cand:
            tagged = []
            for ti, (docs, tfs, flat) in enumerate(per_term):
                j = int(np.searchsorted(docs, d))
                offs = np.cumsum(tfs)
                start = int(offs[j] - tfs[j])
                pos = flat[start:int(offs[j])]
                tagged.append(np.stack([pos, np.full(pos.size, ti)], axis=1))
            ev = np.concatenate(tagged)
            ev = ev[np.argsort(ev[:, 0], kind="mergesort")]
            need = len(terms)
            count = np.zeros(need, dtype=np.int64)
            have = 0
            best = np.iinfo(np.int64).max
            lo = 0
            for hi in range(ev.shape[0]):
                c = int(ev[hi, 1])
                if count[c] == 0:
                    have += 1
                count[c] += 1
                while have == need:
                    best = min(best, int(ev[hi, 0] - ev[lo, 0]) + 1)
                    cl = int(ev[lo, 1])
                    count[cl] -= 1
                    if count[cl] == 0:
                        have -= 1
                    lo += 1
            if best <= W:
                rows_d.append(int(d))
                rows_w.append(best)
    if not rows_d:
        return empty
    out = pd.DataFrame({"doc_id": np.asarray(rows_d, dtype=np.int64),
                        "span_w": np.asarray(rows_w, dtype=np.int64)})
    return out.sort_values(["span_w", "doc_id"], kind="mergesort").head(
        k
    ).reset_index(drop=True)


def span_near_sql(
    table: str,
    phrase: str,
    *,
    slop: int = 0,
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Oracle for search_span_near: per-term position lists, T-way join,
    min over combos of (greatest − least + 1)."""
    check_counts(k=k)
    terms = sorted(set(analyzer.tokenize_query(phrase)))
    W = len(terms) + slop
    tok = analyzer.sql_tokenize_expr(text_col)
    ctes = [
        f"""flat AS (
  SELECT {id_col} AS doc_id, unnest({tok}) AS term,
         generate_subscripts({tok}, 1) - 1 AS p
  FROM {table}
)"""
    ]
    for i, t in enumerate(terms):
        lit = t.replace("'", "''")
        ctes.append(
            f"pos_{i} AS (SELECT doc_id, p FROM flat WHERE term = '{lit}')"
        )
    join = " ".join(
        f"JOIN pos_{i} USING (doc_id)" for i in range(1, len(terms))
    )
    plist = ", ".join(f"pos_{i}.p" for i in range(len(terms)))
    return f"""
WITH {", ".join(ctes)},
m AS (
  SELECT doc_id,
         min(greatest({plist}) - least({plist}) + 1) AS span_w
  FROM pos_0 {join}
  GROUP BY doc_id
)
SELECT doc_id, CAST(span_w AS BIGINT) AS span_w
FROM m WHERE span_w <= {W}
ORDER BY span_w ASC, doc_id ASC
LIMIT {k}
""".strip()


def _add_bincount(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``counts`` plus the bincount of non-negative int ``values``."""
    part = np.bincount(values)
    if part.size > counts.size:
        part[: counts.size] += counts
        return part
    counts[: part.size] += part
    return counts


def percentiles_agg(
    reader: IndexReader,
    query_text: str,
    *,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75),
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``percentiles`` aggregation over the match set, on the doc-length
    field — EXACT, not t-digest: token counts are small integers, so each
    segment emits a bincount partial (bounded by max dl, not match count),
    the driver folds counts, and quantile_cont's interpolation is evaluated
    from ranks. With quarter quantiles the interpolation fraction is a
    power-of-two rational, so float64 evaluation is bit-exact against the
    oracle's ``quantile_cont``. Counting-sort percentiles are the
    scale-path alternative to shipping every value."""
    empty = pd.DataFrame({"q": pd.Series(dtype=np.float64),
                          "value": pd.Series(dtype=np.float64)})
    counts = np.zeros(1, dtype=np.int64)
    for seg, docs in reader.matches(query_text, mode):
        counts = _add_bincount(counts, seg.doc_lengths(docs).astype(np.int64))
    n = int(counts.sum())
    if n == 0:
        return empty
    cum = np.cumsum(counts)
    vals = []
    for q in qs:
        h = (n - 1) * q
        lo = int(np.floor(h))
        hi = min(lo + 1, n - 1)
        x_lo = int(np.searchsorted(cum, lo + 1))
        x_hi = int(np.searchsorted(cum, hi + 1))
        vals.append(x_lo + (h - lo) * (x_hi - x_lo))
    return pd.DataFrame({
        "q": np.asarray(qs, dtype=np.float64),
        "value": np.round(np.asarray(vals, dtype=np.float64), 6),
    })


def search_boosting(
    reader: IndexReader,
    positive: str,
    negative: str,
    *,
    negative_boost: float = 0.5,
    k: int = 10,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``boosting`` query: docs matching ``negative`` stay in the result
    set but their positive score is multiplied by ``negative_boost`` — the
    soft counterpart of ``must_not`` (which `search(must_not=...)` covers).
    The reference's search bodies use this shape to demote, not drop,
    low-priority providers.

    Parity: positive scores quantize to 1e-4 fixed-point; ``negative_boost``
    must be a multiple of 0.1 so the ranking key — ``fp·10`` kept,
    ``fp·(10·boost)`` demoted — is exact integer arithmetic on both sides.
    Per segment the negative set is one unscored match enumeration; the
    demotion mask is a sorted membership test, so the negative query adds
    posting decode but no extra exchange."""
    check_counts(k=k)
    nbn = round(negative_boost * 10)
    if abs(nbn / 10.0 - negative_boost) > 1e-9:
        raise ValueError("negative_boost must be a multiple of 0.1 for exact ranking")
    neg_terms = reader.prepare(negative, "or").terms
    docs_parts, key_parts = [], []
    for seg, live_docs, docs, scores in scored_query(reader, positive, mode):
        fp = np.floor(scores * 1e4 + 0.5).astype(np.int64)
        key = fp * 10
        if neg_terms:
            neg = match_one_segment(seg, neg_terms, "or", live_docs, None)
            if neg.size:
                pos = np.searchsorted(neg, docs)
                np.clip(pos, 0, neg.size - 1, out=pos)
                demote = neg[pos] == docs
                key[demote] = fp[demote] * nbn
        docs_parts.append(docs)
        key_parts.append(key)
    if not docs_parts:
        return _no_hits()
    docs = np.concatenate(docs_parts)
    keys = np.concatenate(key_parts)
    order = np.lexsort((docs, -keys))[:k]
    return pd.DataFrame({
        "doc_id": docs[order],
        "score": np.round(keys[order] / 1e5, 4),
    })


def search_parents(
    reader: IndexReader,
    query_text: str,
    *,
    parent_field: str = "conv_id",
    k: int = 10,
    mode: str = "or",
    score_mode: str = "sum",
) -> pd.DataFrame:
    """Parent-child search (ES ``has_child`` query): match and score CHILD
    documents (turns), rank PARENTS (conversations). The reference's search
    stack exposes per-document hits only; ES's join field + has_child with
    ``score_mode`` is the canonical way to answer "which conversations talk
    about X" from a turn-level index without re-indexing at conversation
    granularity (which `conv_bm25` covers separately and which freezes the
    granularity at build time).

    The parent key is an ordinary attribute column (``attr_cols`` at build
    time), so one turn-level index serves both per-turn and per-conversation
    retrieval.

    ``score_mode``: ``sum`` (total of child scores — rewards conversations
    with many on-topic turns) or ``max`` (best single turn). Parity: per-child
    scores are quantized to 1e-4 fixed-point integers (floor(s·1e4 + 0.5))
    BEFORE aggregation, so the cross-row SUM is an integer sum — immune to
    float accumulation order — and ties rank by parent key ascending.

    Scale shape: per segment ONE exhaustive vectorized score pass, then a
    sort+reduceat fold to one row per (segment, parent-with-hits) — partials
    leaving a segment are bounded by its distinct parents, never its matches.
    Driver merge is O(segments × parents-with-hits); at 100 TB that merge
    becomes one small Dataset groupby over the partial rows, same combiner.
    """
    check_counts(k=k)
    empty = pd.DataFrame({
        parent_field: pd.Series(dtype=object),
        "score": pd.Series(dtype=np.float64),
        "n_hits": pd.Series(dtype=np.int64),
    })
    partials: list[pd.DataFrame] = []
    for seg, _, docs, scores in scored_query(reader, query_text, mode):
        fp = np.floor(scores * 1e4 + 0.5).astype(np.int64)
        parents = seg.attr_values(parent_field, docs)
        order = np.argsort(parents, kind="mergesort")
        parents, fp = parents[order], fp[order]
        first = np.empty(parents.size, dtype=bool)
        first[0] = True
        first[1:] = parents[1:] != parents[:-1]
        starts = np.flatnonzero(first)
        agg = (np.add if score_mode == "sum" else np.maximum).reduceat(fp, starts)
        counts = np.diff(np.append(starts, parents.size))
        partials.append(pd.DataFrame({
            parent_field: parents[starts], "fp": agg, "n_hits": counts,
        }))
    if not partials:
        return empty
    merged = pd.concat(partials).groupby(parent_field, as_index=False).agg(
        fp=("fp", "sum" if score_mode == "sum" else "max"),
        n_hits=("n_hits", "sum"),
    )
    merged = merged.sort_values(
        ["fp", parent_field], ascending=[False, True], kind="mergesort"
    ).head(k)
    merged["score"] = np.round(merged["fp"].to_numpy() / 1e4, 4)
    merged["n_hits"] = merged["n_hits"].astype(np.int64)
    return merged[[parent_field, "score", "n_hits"]].reset_index(drop=True)


def top_hits(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "source",
    per_group: int = 3,
    n_groups: int = 5,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``top_hits`` aggregation (the N-per-group generalization of
    ``collapse``): groups ranked by their best hit, each carrying its own
    top ``per_group`` docs. Per segment the match set reduces to at most
    ``per_group`` rows per group before leaving (sort + run-position mask),
    so the merge fan-in is O(segments × groups × per_group). Scores round
    to 4 before any selection, ties by doc_id asc — identical on both
    sides."""
    empty = pd.DataFrame({
        field: pd.Series(dtype=object),
        "group_rank": pd.Series(dtype=np.int64),
        "hit_rank": pd.Series(dtype=np.int64),
        "doc_id": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    })
    parts = []
    for seg, _, docs, scores in scored_query(reader, query_text, mode):
        scores = np.round(scores, 4)
        vals = seg.attr_values(field, docs)
        order = np.lexsort((docs, -scores, vals))
        vals, docs, scores = vals[order], docs[order], scores[order]
        first = np.empty(vals.size, dtype=bool)
        first[0] = True
        first[1:] = vals[1:] != vals[:-1]
        run_first = np.zeros(vals.size, dtype=np.int64)
        starts = np.flatnonzero(first)
        run_first[starts] = starts
        np.maximum.accumulate(run_first, out=run_first)
        pos = np.arange(vals.size, dtype=np.int64) - run_first
        keep = pos < per_group
        parts.append((vals[keep], docs[keep], scores[keep]))
    if not parts:
        return empty
    vals = np.concatenate([p[0] for p in parts])
    docs = np.concatenate([p[1] for p in parts])
    scores = np.concatenate([p[2] for p in parts])
    order = np.lexsort((docs, -scores, vals))
    vals, docs, scores = vals[order], docs[order], scores[order]
    first = np.empty(vals.size, dtype=bool)
    first[0] = True
    first[1:] = vals[1:] != vals[:-1]
    starts = np.flatnonzero(first)
    run_first = np.zeros(vals.size, dtype=np.int64)
    run_first[starts] = starts
    np.maximum.accumulate(run_first, out=run_first)
    hit_rank = np.arange(vals.size, dtype=np.int64) - run_first + 1
    keep = hit_rank <= per_group
    vals, docs, scores, hit_rank = vals[keep], docs[keep], scores[keep], hit_rank[keep]
    # group rank = order of each group's best (score desc, doc asc)
    first = np.empty(vals.size, dtype=bool)
    first[0] = True
    first[1:] = vals[1:] != vals[:-1]
    gstarts = np.flatnonzero(first)
    border = np.lexsort((docs[gstarts], -scores[gstarts]))
    grank_of_group = np.empty(border.size, dtype=np.int64)
    grank_of_group[border] = np.arange(1, border.size + 1)
    group_idx = np.cumsum(first) - 1
    grank = grank_of_group[group_idx]
    keep = grank <= n_groups
    out = pd.DataFrame({
        field: vals[keep],
        "group_rank": grank[keep],
        "hit_rank": hit_rank[keep],
        "doc_id": docs[keep],
        "score": scores[keep],
    })
    return out.sort_values(["group_rank", "hit_rank"]).reset_index(drop=True)


def significant_terms(
    reader: IndexReader,
    query_text: str,
    *,
    n: int = 20,
    mode: str = "and",
) -> pd.DataFrame:
    """Significant-terms aggregation (the ES ``significant_terms`` facet of
    the reference's search stack): terms over-represented in the FOREGROUND
    (docs matching ``query_text``) relative to the whole corpus.

    Scoring is exact-integer — ``score = fg_df·n_docs − bg_df·fg_size``,
    the difference of document-frequency shares scaled by ``fg_size·n_docs``
    — so engine and oracle compare byte-identically with no float rounding.
    Only terms with score > 0 (foreground share strictly above background
    share) qualify, which drops corpus-wide stopwords exactly like ES's
    background-ratio heuristics.

    Per segment: ONE vectorized whole-segment decode (``all_postings``), a
    sorted-membership mask against the foreground set, and one reduceat —
    per-term foreground partials leave each segment as (term, count) rows,
    a vocabulary-bounded fold."""
    empty = pd.DataFrame({
        "term": pd.Series(dtype=object),
        "fg_df": pd.Series(dtype=np.int64),
        "bg_df": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.int64),
    })
    fg_parts = []
    partials: list[pd.DataFrame] = []
    for seg, fg in reader.matches(query_text, mode):
        fg_parts.append(fg)
        term_rows, df_s, d_all, _ = seg.all_postings()
        idx = np.searchsorted(fg, d_all)
        np.clip(idx, 0, fg.size - 1, out=idx)
        hit = fg[idx] == d_all
        starts = np.concatenate([np.zeros(1, np.int64), np.cumsum(df_s)[:-1]])
        fg_counts = np.add.reduceat(hit.astype(np.int64), starts)
        keep = fg_counts > 0
        if not keep.any():
            continue
        terms = seg._term_strings.take(pa.array(term_rows[keep])).to_pylist()
        partials.append(pd.DataFrame({"term": terms, "fg_df": fg_counts[keep]}))
    if not partials:
        return empty
    fg_size = int(sum(p.size for p in fg_parts))
    fg_df = (
        pd.concat(partials).groupby("term", as_index=False)["fg_df"].sum()
    )
    bg = reader.df(fg_df["term"].tolist())
    fg_df["bg_df"] = fg_df["term"].map(bg).astype(np.int64)
    fg_df["score"] = fg_df["fg_df"] * reader.n_docs - fg_df["bg_df"] * fg_size
    out = fg_df[fg_df["score"] > 0].sort_values(
        ["score", "term"], ascending=[False, True]
    )
    return out.head(n).reset_index(drop=True)[["term", "fg_df", "bg_df", "score"]]


def rescore(
    reader: IndexReader,
    query_text: str,
    *,
    window: int = 25,
    k: int = 10,
    slop: int = 2,
    weight: float = 2.0,
    mode: str = "or",
) -> pd.DataFrame:
    """Two-phase ranking (the ES ``rescore`` request block): take the
    top-``window`` primary hits (``mode`` = "or"/"and" operator of the
    first phase), add ``weight ×`` their ordered-proximity
    phrase score (slop-windowed), re-rank, cut at ``k``. The cheap broad
    query recalls, the expensive positional query re-orders only the window
    — the standard serving-cost shape the reference's stack uses.

    Window membership and the final order both use 4-decimal-rounded
    component scores with doc_id tie-break, so the oracle's LIMIT-based cut
    selects the identical window. Needs ``store_positions=True``."""
    check_counts(k=k)
    empty = _no_hits()
    prim = reader.search(query_text, k=2**31, mode=mode).to_pandas()
    if prim.empty:
        return empty
    prim["score"] = prim["score"].round(4)
    prim = prim.sort_values(
        ["score", "doc_id"], ascending=[False, True]
    ).head(window)[["doc_id", "score"]]
    prox = reader.search_proximity(query_text, k=2**31, slop=slop).to_pandas()
    if prox.empty:
        prim = prim.copy()
        boost = np.zeros(len(prim))
    else:
        prox["score"] = prox["score"].round(4)
        boost = (
            prim["doc_id"].map(prox.set_index("doc_id")["score"]).fillna(0.0).to_numpy()
        )
    prim["score"] = prim["score"].to_numpy() + weight * boost
    out = prim.sort_values(["score", "doc_id"], ascending=[False, True]).head(k)
    return out.reset_index(drop=True)


def search_random(
    reader: IndexReader,
    query_text: str,
    *,
    seed: int = 7,
    k: int = 10,
    mode: str = "and",
) -> pd.DataFrame:
    """Seeded random-order sampling of matches (ES ``function_score`` with
    ``random_score`` + seed — used for unbiased result audits): every doc
    matching the query gets a deterministic Knuth-multiplicative hash key
    ``h = (doc_id·2654435761 + seed) mod 2³²`` and the k smallest keys win.
    Fully vectorized and exact-integer (the same shared hash
    ops/sampling.py uses), so engine and oracle agree byte-identically.
    Each segment contributes only its local k smallest keys to the merge."""
    check_counts(k=k)
    from ..ops.sampling import _KNUTH, _MOD

    empty = pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                          "h": pd.Series(dtype=np.int64)})
    docs_parts, h_parts = [], []
    for _, matched in reader.matches(query_text, mode):
        h = (matched * _KNUTH + seed) % _MOD
        if matched.size > k:  # local top-k: only k keys leave the segment
            part = np.argpartition(h, k)[:k]
            matched, h = matched[part], h[part]
        docs_parts.append(matched)
        h_parts.append(h)
    if not docs_parts:
        return empty
    docs = np.concatenate(docs_parts)
    hs = np.concatenate(h_parts)
    order = np.lexsort((docs, hs))[:k]
    return pd.DataFrame({"doc_id": docs[order], "h": hs[order].astype(np.int64)})


def filters_agg(
    reader: IndexReader,
    query_text: str,
    named_filters: dict[str, dict[str, list]],
    *,
    other_bucket: bool = True,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``filters`` aggregation over the match set: one bucket per named
    filter (attr value-membership predicates, AND across fields like the
    facet API), plus ``_other_`` for matching docs claimed by no named
    filter. A doc may land in several named buckets (ES semantics) but in
    ``_other_`` only when it matches none. Scale shape: per segment one
    unscored match enumeration and F+1 counters leave — never rows."""
    names = sorted(named_filters)
    counts = {nm: 0 for nm in names}
    other = 0
    for seg, matched in reader.matches(query_text, mode):
        any_mask = np.zeros(matched.size, dtype=bool)
        for nm in names:
            m = _filter_mask(seg, matched, named_filters[nm])
            counts[nm] += int(m.sum())
            any_mask |= m
        other += int((~any_mask).sum())
    rows = [(nm, counts[nm]) for nm in names]
    if other_bucket:
        rows.append(("_other_", other))
    out = pd.DataFrame(rows, columns=["bucket", "doc_count"])
    out = out.sort_values("bucket").reset_index(drop=True)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def _filter_mask(seg, matched: np.ndarray, spec: dict[str, list]) -> np.ndarray:
    """Which ``matched`` docs satisfy a named filter (value membership per
    field, AND across fields)."""
    m = np.ones(matched.size, dtype=bool)
    for field, values in spec.items():
        m &= np.isin(seg.attr_values(field, matched), np.asarray(values))
    return m


def adjacency_matrix(
    reader: IndexReader,
    query_text: str,
    named_filters: dict[str, dict[str, list]],
    *,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``adjacency_matrix`` aggregation: one bucket per named filter and
    per filter pair (key ``a&b``, names joined in sorted order), counting
    matching docs that satisfy BOTH; empty buckets omitted (ES contract).
    Per segment the F×F intersection grid is one boolean-matrix GEMM
    (``M @ M.T``) and only F² counters leave the segment."""
    names = sorted(named_filters)
    F = len(names)
    grid = np.zeros((F, F), dtype=np.int64)
    for seg, matched in reader.matches(query_text, mode):
        M = np.zeros((F, matched.size), dtype=np.int64)
        for i, nm in enumerate(names):
            M[i] = _filter_mask(seg, matched, named_filters[nm])
        grid += M @ M.T
    rows = []
    for i in range(F):
        if grid[i, i]:
            rows.append((names[i], int(grid[i, i])))
        for j in range(i + 1, F):
            if grid[i, j]:
                rows.append((f"{names[i]}&{names[j]}", int(grid[i, j])))
    out = pd.DataFrame(rows, columns=["bucket", "doc_count"])
    out = out.sort_values("bucket").reset_index(drop=True)
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out


def composite_agg(
    reader: IndexReader,
    query_text: str,
    *,
    sources: tuple[str, ...] = ("source", "lang"),
    size: int = 10,
    after: tuple | None = None,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``composite`` aggregation: buckets of the attr-tuple grid in
    ascending key order, paginated by the exclusive ``after`` cursor — the
    agg that lets a client stream EVERY bucket of a high-cardinality
    grouping in bounded pages. Scale shape: per segment one sort/reduceat
    pair-count partial (≤ distinct combos rows leave the segment), the
    coordinator merges, range-filters past the cursor and cuts ``size``."""
    cols = list(sources)
    empty = pd.DataFrame(
        {**{c: pd.Series(dtype=object) for c in cols},
         "doc_count": pd.Series(dtype=np.int64)}
    )
    partials = []
    for seg, matched in reader.matches(query_text, mode):
        dfp = pd.DataFrame({c: seg.attr_values(c, matched) for c in cols})
        partials.append(dfp.groupby(cols, as_index=False).size())
    if not partials:
        return empty
    merged = (
        pd.concat(partials).groupby(cols, as_index=False)["size"].sum()
        .sort_values(cols, kind="mergesort").reset_index(drop=True)
    )
    if after is not None:
        gt = np.zeros(len(merged), dtype=bool)
        eq = np.ones(len(merged), dtype=bool)
        for c, a in zip(cols, after):
            v = merged[c].to_numpy()
            gt |= eq & (v > a)
            eq &= v == a
        merged = merged[gt]
    merged = merged.head(size).rename(columns={"size": "doc_count"})
    merged["doc_count"] = merged["doc_count"].astype(np.int64)
    return merged.reset_index(drop=True)


def search_span_first(
    reader: IndexReader,
    term: str,
    *,
    end: int,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``span_first``: match a term only where it occurs within the
    first ``end`` token positions of the document (title-ish leading text
    without a separate field). tf = number of qualifying occurrences,
    df = live docs with at least one (span-frequency scoring, the same
    contract as search_phrase/search_proximity). One positional decode of
    the single term per segment; a reduceat over posting boundaries counts
    qualifying positions — no per-doc loop."""
    check_counts(k=k)
    tok = _single_token(reader, term, "span_first takes exactly one term")

    def match(seg):
        hit = seg.positions(tok)
        if hit is None:
            return _NO_SPANS
        docs, tfs, pos = hit
        offs = np.zeros(tfs.size, dtype=np.int64)
        np.cumsum(tfs[:-1], out=offs[1:])
        cnt = np.add.reduceat((pos < end).astype(np.int64), offs)
        keep = cnt > 0
        return docs[keep], cnt[keep]

    return _span_topk(reader, match, k, "span_first")


def search_match_phrase_prefix(
    reader: IndexReader,
    phrase: str,
    *,
    max_expansions: int = 50,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``match_phrase_prefix`` (search-as-you-type): the query's last
    token is a prefix; a doc matches where the fixed lead terms occur
    adjacently followed by ANY dictionary expansion of the prefix.
    Expansion set is global and deterministic: the union of segment
    dictionaries' prefix ranges, lexicographically capped at
    ``max_expansions`` (the match_fuzzy contract). Scored like the rest of
    the span family: tf = number of matching start positions, df = live
    docs with ≥1 match. Per segment the fixed chain's packed
    (doc,start)-keys are intersected ONCE, then each expansion only
    intersects its own positions against that chain — the lead terms are
    never re-decoded per expansion."""
    check_counts(k=k)
    toks = analyzer.tokenize_query(phrase, reader.analyzer_version)  # order kept
    if not toks:
        return _no_hits()
    fixed, prefix = toks[:-1], toks[-1]
    expansions = reader.terms_with_prefix(prefix)[:max_expansions]
    last_i = len(fixed)

    def match(seg):
        keys: np.ndarray | None = None
        for i, t in enumerate(fixed):
            res = seg.positions(t)
            if res is None:
                return _NO_SPANS
            docs, tfs, pos = res
            local = np.searchsorted(seg.doc_ids, docs)
            tok_local = np.repeat(local, tfs)
            shifted = pos - i
            ok = shifted >= 0
            kk = (tok_local[ok].astype(np.int64) << 31) | shifted[ok]
            keys = kk if keys is None else np.intersect1d(
                keys, kk, assume_unique=True
            )
            if keys.size == 0:
                return _NO_SPANS
        start_parts = []
        for e in expansions:
            res = seg.positions(e)
            if res is None:
                continue
            docs, tfs, pos = res
            local = np.searchsorted(seg.doc_ids, docs)
            tok_local = np.repeat(local, tfs)
            shifted = pos - last_i
            ok = shifted >= 0
            kk = (tok_local[ok].astype(np.int64) << 31) | shifted[ok]
            hit = kk if keys is None else np.intersect1d(
                keys, kk, assume_unique=True
            )
            if hit.size:
                start_parts.append(hit >> 31)
        if not start_parts:
            return _NO_SPANS
        # one token per position → keys are distinct across expansions
        uniq, ptf = np.unique(np.concatenate(start_parts), return_counts=True)
        return seg.doc_ids[uniq], ptf.astype(np.int64)

    return _span_topk(reader, match, k, "match_phrase_prefix")


def matrix_stats(
    reader: IndexReader,
    query_text: str,
    *,
    ts_field: str = "ts",
    ts_base_s: int,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``matrix_stats`` aggregation over the match set, between the two
    numeric per-doc signals the index already holds: token length (dl) and
    the ts attribute (seconds since ``ts_base_s``, a fixture constant so the
    integer sufficient statistics stay small). Exact: per segment six
    integer counters (n, Σdl, Σts, Σdl², Σts², Σdl·ts) folded as Python
    ints (no int64 overflow by construction), all ratios derived from the
    same integer pairs on both sides. Returns one row: count, means,
    population variances, covariance and Pearson correlation (6 dp)."""
    import math

    n = 0
    s_dl = s_ts = s_dl2 = s_ts2 = s_dlts = 0
    for seg, matched in reader.matches(query_text, mode):
        dl = seg.doc_lengths(matched).astype(np.int64)
        ts = seg.attr_values(ts_field, matched)
        ts = ts.astype("datetime64[us]").astype(np.int64) // 1_000_000
        ts = ts - ts_base_s
        n += int(matched.size)
        s_dl += int(dl.sum())
        s_ts += int(ts.sum())
        s_dl2 += int((dl * dl).sum())
        s_ts2 += int((ts * ts).sum())
        s_dlts += int((dl * ts).sum())
    empty = pd.DataFrame({
        "n": pd.Series(dtype=np.int64),
        "mean_dl": pd.Series(dtype=np.float64),
        "mean_ts_s": pd.Series(dtype=np.float64),
        "var_dl": pd.Series(dtype=np.float64),
        "var_ts_s": pd.Series(dtype=np.float64),
        "cov": pd.Series(dtype=np.float64),
        "corr": pd.Series(dtype=np.float64),
    })
    if n == 0:
        return empty

    def r6(x: float) -> float:
        return math.floor(x * 1e6 + 0.5) / 1e6

    var_dl_num = n * s_dl2 - s_dl * s_dl
    var_ts_num = n * s_ts2 - s_ts * s_ts
    cov_num = n * s_dlts - s_dl * s_ts
    nn = float(n) * float(n)
    corr = (
        float(cov_num)
        / (math.sqrt(float(var_dl_num)) * math.sqrt(float(var_ts_num)))
        if var_dl_num > 0 and var_ts_num > 0
        else 0.0
    )
    return pd.DataFrame([{
        "n": np.int64(n),
        "mean_dl": r6(float(s_dl) / n),
        "mean_ts_s": r6(float(s_ts) / n),
        "var_dl": r6(float(var_dl_num) / nn),
        "var_ts_s": r6(float(var_ts_num) / nn),
        "cov": r6(float(cov_num) / nn),
        "corr": r6(corr),
    }])


def search_pinned(
    reader: IndexReader,
    query_text: str,
    pinned_ids: list[int],
    *,
    k: int = 10,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``pinned`` query: curated doc ids first, in the curator's order
    (present even when they don't match the query — ES semantics), then the
    organic matches with pinned ids removed. Organic order is the rounded-
    score total order with doc-id tie-break (the search_after/cursor
    contract). Returns (rank, doc_id, pinned)."""
    check_counts(k=k)
    organic = reader.search(
        query_text, k=k + len(pinned_ids), mode=mode
    ).to_pandas()
    organic["score"] = organic["score"].round(4)
    organic = organic.sort_values(
        ["score", "doc_id"], ascending=[False, True], kind="mergesort"
    )
    organic = organic[~organic["doc_id"].isin(pinned_ids)]
    rows = [(i + 1, int(d), True) for i, d in enumerate(pinned_ids)]
    base = len(pinned_ids)
    for j, d in enumerate(organic["doc_id"].tolist()):
        rows.append((base + j + 1, int(d), False))
    out = pd.DataFrame(rows, columns=["rank", "doc_id", "pinned"]).head(k)
    out["rank"] = out["rank"].astype(np.int64)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out.reset_index(drop=True)


def search_exists(
    reader: IndexReader,
    field: str,
    *,
    boost: float = 1.0,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``constant_score`` over an ``exists`` filter: every live doc whose
    ``field`` attribute is non-null scores exactly ``boost`` (filter
    context — no stats, no postings touched), ordered by doc id. The
    match_all + filter degenerate case of the query DSL."""
    check_counts(k=k)
    import pyarrow.compute as _pc

    parts = []
    for _, seg, live_docs in reader.segments():
        if field not in seg.attrs:
            raise KeyError(
                f"attribute {field!r} not stored — build with attr_cols=[{field!r}]"
            )
        mask = np.asarray(_pc.is_valid(seg.attrs[field]))
        if live_docs is not None:
            mask = mask & live_docs
        docs = seg.doc_ids[mask]
        if docs.size:
            parts.append(docs[:k])  # per-segment pre-cut: ids are sorted
    if not parts:
        return _no_hits()
    docs = np.sort(np.concatenate(parts))[:k]
    return pd.DataFrame({
        "doc_id": docs.astype(np.int64),
        "score": np.full(docs.size, float(boost)),
    })


def histogram_pipeline(
    reader: IndexReader,
    query_text: str,
    *,
    ts_field: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
) -> pd.DataFrame:
    """ES pipeline aggregations over a date_histogram: ``cumulative_sum``
    and ``derivative`` of the bucket counts — integer-exact (window sums of
    BIGINT counts, no float). ES defines no derivative for the first
    bucket, so it is omitted (the cumulative sum still includes it)."""
    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    empty = pd.DataFrame({
        "bucket_us": pd.Series(dtype=np.int64),
        "doc_count": pd.Series(dtype=np.int64),
        "cum_count": pd.Series(dtype=np.int64),
        "deriv": pd.Series(dtype=np.int64),
    })
    if len(h) < 2:
        return empty
    out = h.copy()
    out["cum_count"] = out["doc_count"].cumsum().astype(np.int64)
    out["deriv"] = out["doc_count"].diff().fillna(0).astype(np.int64)
    return out.iloc[1:].reset_index(drop=True)


def range_agg(
    reader: IndexReader,
    query_text: str,
    ranges: list[tuple[float | None, float | None]],
    *,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``range`` aggregation over the match set, bucketing the indexed
    doc length ([from, to) half-open, ES semantics; None = unbounded).
    Bucket keys use the ES label format ``from-to`` with ``*`` for
    unbounded. Per segment one unscored enumeration + R counters."""
    labels = [
        f"{'*' if lo is None else lo}-{'*' if hi is None else hi}"
        for lo, hi in ranges
    ]
    counts = np.zeros(len(ranges), dtype=np.int64)
    for seg, matched in reader.matches(query_text, mode):
        dl = seg.doc_lengths(matched)
        for i, (lo, hi) in enumerate(ranges):
            m = np.ones(dl.size, dtype=bool)
            if lo is not None:
                m &= dl >= lo
            if hi is not None:
                m &= dl < hi
            counts[i] += int(m.sum())
    out = pd.DataFrame({"bucket": labels, "doc_count": counts})
    out["doc_count"] = out["doc_count"].astype(np.int64)
    return out  # ES returns ranges in the given order


def rare_terms_agg(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "source",
    max_doc_count: int = 1,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``rare_terms`` aggregation: the long-tail complement of ``terms``
    — attribute values whose match-set doc count is ≤ ``max_doc_count``,
    ordered count-ascending then value. Exact regime (ES's CuckooFilter
    approximation exists to bound coordinator memory; per-segment partials
    already bound ours at distinct-values-per-segment)."""
    empty = pd.DataFrame({
        field: pd.Series(dtype=object),
        "doc_count": pd.Series(dtype=np.int64),
    })
    partials = []
    for seg, matched in reader.matches(query_text, mode):
        vals = seg.attr_values(field, matched)
        uniq, counts = np.unique(vals, return_counts=True)
        partials.append(pd.DataFrame({field: uniq, "doc_count": counts}))
    if not partials:
        return empty
    merged = pd.concat(partials).groupby(field, as_index=False)["doc_count"].sum()
    merged = merged[merged["doc_count"] <= max_doc_count]
    merged = merged.sort_values(["doc_count", field], kind="mergesort")
    merged["doc_count"] = merged["doc_count"].astype(np.int64)
    return merged.reset_index(drop=True)


def search_bool(
    reader: IndexReader,
    *,
    must: str = "",
    should: str = "",
    must_not: str = "",
    k: int = 10,
) -> pd.DataFrame:
    """The full ES ``bool`` query in one scorer: ``must`` terms are all
    required and always score; ``should`` terms are optional but add their
    BM25 contribution when present; ``must_not`` terms exclude. (With an
    empty ``must``, should-terms become the match set — plain OR.) Scoring
    order is fixed (sorted term order, must and should interleaved by term
    string) so scores are bit-comparable with the oracle's grouped sum."""
    check_counts(k=k)
    must_terms = reader.prepare(must, "and").terms
    should_terms = reader.prepare(should, "or").terms
    neg_terms = reader.prepare(must_not, "or").terms
    empty = _no_hits()
    prep = prepare_terms(must_terms + should_terms, "or", reader.df, reader.n_docs)
    if not prep.terms or any(prep.dfs[t] == 0 for t in must_terms):
        return empty
    scoring, idf = prep.live, prep.idf
    parts = []
    for _, seg, live_docs in reader.segments():
        if neg_terms:
            live_docs = exclude_terms(seg, live_docs, neg_terms)
        cand = match_one_segment(
            seg, must_terms if must_terms else scoring,
            "and" if must_terms else "or", live_docs, None,
        )
        if cand.size == 0:
            continue
        dl = seg.doc_lengths(cand).astype(np.float64)
        scores = np.zeros(cand.size, dtype=np.float64)
        for t in scoring:  # fixed sorted order — deterministic accumulation
            p = seg.postings(t)
            if p is None:
                continue
            d, f = p
            idx = np.searchsorted(d, cand)
            idx_c = np.clip(idx, 0, max(d.size - 1, 0))
            hit = (d[idx_c] == cand) if d.size else np.zeros(cand.size, bool)
            tf = np.where(hit, f[idx_c], 0).astype(np.float64)
            scores += np.where(
                hit, bm25.score(np.maximum(tf, 1.0), dl, idf[t], reader.avgdl), 0.0
            )
        parts.append((cand, scores))
    if not parts:
        return empty
    out = merge_topk(parts, k).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def delete_by_query(index_root: str, query_text: str, *, mode: str = "or") -> dict:
    """ES ``_delete_by_query``: enumerate the CURRENT version's live
    matching docs and retire them through the normal tombstone delta path —
    global stats stay EXACT via the incremental negative corrections, so
    post-delete BM25 scores equal a fresh build over the surviving corpus
    (which is precisely what the oracle asserts). Integrity guard is
    bypassed: the caller explicitly asked for a shrink."""
    import pandas as pd_
    import ray.data as rd

    from . import incremental

    reader = IndexReader(index_root)
    ids = [matched for _, matched in reader.matches(query_text, mode)]
    doomed = np.sort(np.concatenate(ids)) if ids else np.empty(0, np.int64)
    if doomed.size == 0:
        return {"deleted": 0, "version": reader.manifest["_version"]}
    delta = pd_.DataFrame({
        "doc_id": doomed.astype(np.int64),
        "text": "",
        "state": "deleted",
    })
    man = incremental.build_incremental(
        index_root, rd.from_pandas(delta), integrity_check=False
    )
    return {
        "deleted": int(doomed.size),
        "version": man.get("_version", man.get("version")),
    }


def update_by_query(
    index_root: str,
    query_text: str,
    transform,
    *,
    mode: str = "or",
) -> dict:
    """ES ``_update_by_query``: fetch every live matching doc's stored
    ``_source`` (the index must be built with ``store_source=True``), apply
    ``transform`` (a ``pa.Array -> pa.Array`` text rewrite — the script
    body), and re-ingest the rewritten docs through the normal upsert delta
    path. Old versions tombstone, global stats stay exact, attrs carry
    through unchanged. At fleet scale the per-segment fetch+transform rows
    would be emitted by parallel Ray tasks; matches are usually a small
    fraction of the corpus so the delta is the bounded part either way."""
    import pandas as pd_
    import ray.data as rd

    from . import incremental
    from . import manifest as _mf

    man = _mf.read_manifest(index_root)
    if not man.get("store_source", False):
        raise ValueError("update_by_query needs store_source=True")
    attr_cols = list(man.get("attr_cols") or [])
    reader = IndexReader(index_root)
    frames = []
    for seg, matched in reader.matches(query_text, mode):
        cols = {
            "doc_id": matched.astype(np.int64),
            "text": transform(seg.stored_values("_source", matched)).to_pylist(),
        }
        for a in attr_cols:
            cols[a] = seg.attr_values(a, matched)
        frames.append(pd_.DataFrame(cols))
    if not frames:
        return {"updated": 0, "version": reader.manifest["_version"]}
    delta = pd_.concat(frames)
    delta["state"] = "active"
    man2 = incremental.build_incremental(
        index_root, rd.from_pandas(delta), integrity_check=False
    )
    return {
        "updated": int(len(delta)),
        "version": man2.get("_version", man2.get("version")),
    }


def assemble_context(
    reader: IndexReader,
    query_text: str,
    *,
    budget_tokens: int,
    k_max: int = 50,
    mode: str = "or",
) -> pd.DataFrame:
    """RAG context assembly: the ranked prefix of the BM25 top-``k_max``
    that fits a token budget (take-while over the cumulative indexed doc
    length — the greedy packing most retrieval-augmented prompt builders
    use). Lengths come from the dl sidecars already in memory; no text is
    touched until the caller fetches the chosen docs. Ordering is the
    rounded-score total order with doc-id tie-break (the cursor contract).
    Returns (rank, doc_id, n_tokens, cum_tokens)."""
    check_counts(k_max=k_max)
    ranked = reader.search(query_text, k=k_max, mode=mode).to_pandas()
    if ranked.empty:
        return pd.DataFrame({
            "rank": pd.Series(dtype=np.int64),
            "doc_id": pd.Series(dtype=np.int64),
            "n_tokens": pd.Series(dtype=np.int64),
            "cum_tokens": pd.Series(dtype=np.int64),
        })
    ranked["score"] = ranked["score"].round(4)
    ranked = ranked.sort_values(
        ["score", "doc_id"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    ids = ranked["doc_id"].to_numpy(np.int64)
    dl = np.zeros(ids.size, dtype=np.int64)
    for _, seg, _ in reader.segments():
        idx = np.searchsorted(seg.doc_ids, ids)
        idx_c = np.clip(idx, 0, max(seg.doc_ids.size - 1, 0))
        hit = (seg.doc_ids.size > 0) & (seg.doc_ids[idx_c] == ids)
        dl = np.where(hit, seg.dl[idx_c], dl)
    cum = np.cumsum(dl)
    keep = cum <= budget_tokens
    out = pd.DataFrame({
        "rank": np.arange(1, ids.size + 1, dtype=np.int64)[keep],
        "doc_id": ids[keep],
        "n_tokens": dl[keep],
        "cum_tokens": cum[keep],
    })
    return out.reset_index(drop=True)


def parse_query_string(qs: str, version: str = "v1") -> dict:
    """Shared clause parser for the combined ``simple_query_string``
    surface (the reference's actual query language,
    core/models/search/query.py:73-98): ``"quoted phrases"`` must match
    adjacently, ``-term`` negates, ``term*`` expands against the
    dictionary, bare terms are AND-required. One definition used by BOTH
    the engine and the SQL oracle builder; clauses are analyzed with the
    index's analyzer ``version``."""
    import re

    def toks(text: str) -> list[str]:
        return analyzer.tokenize_query(text, version)

    phrases = [h for h in re.findall(r'"([^"]*)"', qs) if toks(h)]
    rest = re.sub(r'"[^"]*"', " ", qs)
    plain: list[str] = []
    prefixes: list[str] = []
    negs: list[str] = []
    for tok in rest.split():
        if tok.startswith("-"):
            negs.extend(toks(tok[1:]))
        elif tok.endswith("*"):
            stem = toks(tok[:-1])
            if len(stem) == 1:
                prefixes.append(stem[0])
        else:
            plain.extend(toks(tok))
    return {
        "plain": sorted(set(plain)),
        "phrases": phrases,
        "prefixes": sorted(set(prefixes)),
        "negs": sorted(set(negs)),
    }


def search_query_string(
    reader: IndexReader,
    qs: str,
    *,
    k: int = 10,
    max_expansions: int = 50,
) -> pd.DataFrame:
    """The combined simple_query_string scorer: a doc matches when it holds
    EVERY bare term, EVERY quoted phrase (adjacent), at least one
    dictionary expansion of EVERY ``term*`` prefix, and no negated term.
    Score = Σ bare-term BM25 + Σ phrase BM25 (span frequency / span df,
    the search_phrase contract) + Σ BM25 of the doc's present expansions
    (per-expansion idf, the search_prefix contract). Expansion sets are
    global and lexicographically capped. Requires positions when the query
    has phrases."""
    check_counts(k=k)
    c = parse_query_string(qs, reader.analyzer_version)
    plain, prefixes, negs = c["plain"], c["prefixes"], c["negs"]
    phrases = [analyzer.tokenize_query(h, reader.analyzer_version) for h in c["phrases"]]
    empty = _no_hits()
    if not (plain or phrases):
        raise ValueError("query string needs at least one bare term or phrase")
    expmap: dict[str, list[str]] = {}
    for x in prefixes:
        expmap[x] = reader.terms_with_prefix(x)[:max_expansions]
        if not expmap[x]:
            return empty
    all_exp = sorted({e for xs in expmap.values() for e in xs})
    dfs = reader.df(plain + all_exp)
    if any(dfs.get(t, 0) == 0 for t in plain):
        return empty
    idf = {
        t: float(bm25.idf(reader.n_docs, dfs[t]))
        for t in set(plain) | set(all_exp) if dfs.get(t, 0) > 0
    }

    collected = []
    df_phrase = [0] * len(phrases)
    for _, seg, live_docs in reader.segments():
        kept = exclude_terms(seg, live_docs, negs) if negs else live_docs
        if plain:
            cand = match_one_segment(seg, plain, "and", kept, None)
        else:
            cand = None  # constrained by phrases below
        ph_docs = []
        dead_seg = False
        for hi, h in enumerate(phrases):
            if not seg.has_positions:
                raise ValueError("phrases need store_positions=True")
            d_h, ptf_h = phrase_match_segment(seg, h)
            ords = seg.ordinals(d_h)
            if live_docs is not None:
                live = live_docs[ords]
                d_h, ptf_h, ords = d_h[live], ptf_h[live], ords[live]
            df_phrase[hi] += int(d_h.size)  # span df: tombstones only
            if kept is not None:
                keep = kept[ords]
                d_h, ptf_h = d_h[keep], ptf_h[keep]
            ph_docs.append((d_h, ptf_h))
            if d_h.size == 0:
                dead_seg = True
        if dead_seg:
            continue
        for d_h, _ in ph_docs:
            cand = d_h if cand is None else np.intersect1d(
                cand, d_h, assume_unique=True
            )
        for x in prefixes:
            hit_parts = [
                seg.postings(e)[0] for e in expmap[x]
                if seg.postings(e) is not None
            ]
            if not hit_parts:
                cand = np.empty(0, np.int64)
                break
            xdocs = np.unique(np.concatenate(hit_parts))
            cand = xdocs if cand is None else np.intersect1d(
                cand, xdocs, assume_unique=True
            )
        if cand is None or cand.size == 0:
            continue
        if not plain and kept is not None:
            cand = cand[kept[seg.ordinals(cand)]]
        tf_map = {}
        for t in sorted(set(plain) | set(all_exp)):
            p = seg.postings(t)
            if p is None:
                continue
            d, f = p
            idx = np.searchsorted(d, cand)
            idx_c = np.clip(idx, 0, max(d.size - 1, 0))
            hit = (d[idx_c] == cand) if d.size else np.zeros(cand.size, bool)
            tf_map[t] = np.where(hit, f[idx_c], 0).astype(np.float64)
        ptf_map = {}
        for hi, (d_h, ptf_h) in enumerate(ph_docs):
            idx = np.searchsorted(d_h, cand)
            idx_c = np.clip(idx, 0, max(d_h.size - 1, 0))
            hit = (d_h[idx_c] == cand) if d_h.size else np.zeros(cand.size, bool)
            ptf_map[hi] = np.where(hit, ptf_h[idx_c], 0).astype(np.float64)
        collected.append((cand, seg.doc_lengths(cand).astype(np.float64),
                          tf_map, ptf_map))
    if not collected:
        return empty
    parts = []
    for cand, dl, tf_map, ptf_map in collected:
        scores = np.zeros(cand.size, dtype=np.float64)
        for t in sorted(tf_map):
            tf = tf_map[t]
            hit = tf > 0
            if hit.any():
                scores += np.where(
                    hit, bm25.score(np.maximum(tf, 1.0), dl, idf[t], reader.avgdl), 0.0
                )
        for hi in sorted(ptf_map):
            if df_phrase[hi] == 0:
                continue
            h_idf = float(bm25.idf(reader.n_docs, df_phrase[hi]))
            ptf = ptf_map[hi]
            scores += bm25.score(np.maximum(ptf, 1.0), dl, h_idf, reader.avgdl)
        parts.append((cand, scores))
    out = merge_topk(parts, k).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def search_span_not(
    reader: IndexReader,
    include_term: str,
    exclude_term: str,
    *,
    distance: int = 3,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``span_not``: occurrences of ``include_term`` that are NOT within
    ``distance`` token positions of any ``exclude_term`` occurrence (the
    "apple but not near pie" pattern). tf = surviving occurrences, df =
    live docs with ≥1 (the span-family contract). Vectorized: both terms'
    positions pack into ``(local_doc << 31) | pos`` keys; a binary-search
    range probe per include token finds whether an exclude key lands in
    its ±distance window — no per-doc loop."""
    check_counts(k=k)
    what = "span_not takes exactly one include and one exclude term"
    inc = _single_token(reader, include_term, what)
    exc = _single_token(reader, exclude_term, what)

    def match(seg):
        hit = seg.positions(inc)
        if hit is None:
            return _NO_SPANS
        docs, tfs, pos = hit
        local = np.searchsorted(seg.doc_ids, docs)
        tok_local = np.repeat(local, tfs).astype(np.int64)
        inc_keys = (tok_local << 31) | pos
        ex = seg.positions(exc)
        if ex is None:
            good = np.ones(inc_keys.size, dtype=bool)
        else:
            edocs, etfs, epos = ex
            elocal = np.repeat(
                np.searchsorted(seg.doc_ids, edocs), etfs
            ).astype(np.int64)
            ex_keys = np.sort((elocal << 31) | epos)
            lo = (tok_local << 31) | np.maximum(pos - distance, 0)
            hi = (tok_local << 31) | (pos + distance)
            good = np.searchsorted(ex_keys, lo) >= np.searchsorted(
                ex_keys, hi, side="right"
            )
        cnt = np.add.reduceat(
            good.astype(np.int64),
            np.concatenate(([0], np.cumsum(tfs)[:-1])),
        ) if tfs.size else np.zeros(0, np.int64)
        keep = cnt > 0
        return docs[keep], cnt[keep]

    return _span_topk(reader, match, k, "span_not")


def multi_terms_agg(
    reader: IndexReader,
    query_text: str,
    *,
    fields: tuple[str, ...] = ("source", "lang"),
    size: int = 10,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``multi_terms`` aggregation: top-N COMPOUND-key buckets of the
    match set by doc count (the count-ranked sibling of composite's
    key-ordered pagination). Same per-segment pair-count partials; ties
    break by the key tuple ascending."""
    full = composite_agg(
        reader, query_text, sources=fields, size=1 << 62, mode=mode
    )
    if full.empty:
        return full
    cols = list(fields)
    out = full.sort_values(
        ["doc_count"] + cols, ascending=[False] + [True] * len(cols),
        kind="mergesort",
    ).head(size)
    return out.reset_index(drop=True)


def percentile_ranks_agg(
    reader: IndexReader,
    query_text: str,
    values: list[float],
    *,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``percentile_ranks``: for each probe value, the percentage of the
    match set's doc lengths ≤ value — the inverse of percentiles_agg.
    Exact: one (count ≤ v, total) integer pair per value, the percentage
    derived with the shared floor(x·1e6+0.5) rule."""
    import math

    empty = pd.DataFrame({
        "value": pd.Series(dtype=np.float64),
        "n_le": pd.Series(dtype=np.int64),
        "pct_rank": pd.Series(dtype=np.float64),
    })
    total = 0
    n_le = np.zeros(len(values), dtype=np.int64)
    for seg, matched in reader.matches(query_text, mode):
        dl = seg.doc_lengths(matched)
        total += int(matched.size)
        for i, v in enumerate(values):
            n_le[i] += int((dl <= v).sum())
    if total == 0:
        return empty
    return pd.DataFrame({
        "value": np.asarray(values, np.float64),
        "n_le": n_le,
        "pct_rank": [
            math.floor(int(c) * 100.0 / total * 1e6 + 0.5) / 1e6 for c in n_le
        ],
    })


def attr_value_suggest(
    reader: IndexReader,
    field: str,
    prefix: str,
    *,
    limit: int = 10,
) -> pd.DataFrame:
    """Keyword-attribute completion (ES terms_enum API / keyword-field
    autocomplete): distinct live values of ``field`` starting with
    ``prefix``, with live doc counts, count-desc then value. Served
    entirely from the attr sidecars — no text, no postings."""
    import pyarrow.compute as _pc

    partials = []
    for _, seg, live_docs in reader.segments():
        if field not in seg.attrs:
            raise KeyError(f"attribute {field!r} not stored")
        arr = seg.attrs[field]
        mask = np.asarray(
            _pc.fill_null(_pc.starts_with(arr, prefix), False)
        )
        if live_docs is not None:
            mask &= live_docs
        if not mask.any():
            continue
        vals = np.asarray(arr)[mask]
        uniq, counts = np.unique(vals.astype(str), return_counts=True)
        partials.append(pd.DataFrame({"value": uniq, "n_docs": counts}))
    if not partials:
        return pd.DataFrame({"value": pd.Series(dtype=object),
                             "n_docs": pd.Series(dtype=np.int64)})
    out = (
        pd.concat(partials).groupby("value", as_index=False)["n_docs"].sum()
        .sort_values(["n_docs", "value"], ascending=[False, True],
                     kind="mergesort")
        .head(limit).reset_index(drop=True)
    )
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out


def export_search(
    reader: IndexReader,
    query_text: str,
    out_dir: str,
    *,
    mode: str = "or",
) -> dict:
    """ES scroll/sliced-scroll analog: materialize a query's FULL scored
    result set as partitioned Parquet — one shard per index segment with a
    per-shard ``_DONE`` marker, so a crashed export resumes with I/O
    proportional to the missing shards (the state/export discipline).
    Scores are the exhaustive per-segment BM25 (k = segment size: nothing
    pruned), rounded to 4. Returns {rows, shards, skipped}."""
    import os

    import pyarrow.parquet as _pq

    os.makedirs(out_dir, exist_ok=True)
    prep = reader.prepare(query_text, mode)
    if prep.empty:
        return {"rows": 0, "shards": 0, "skipped": 0}
    rows = shards = skipped = 0
    for seg_meta, seg, live_docs in reader.segments():
        name = os.path.basename(seg_meta["path"])
        shard = os.path.join(out_dir, f"{name}.parquet")
        done = shard + ".done"
        if os.path.exists(done):
            skipped += 1
            rows += _pq.read_metadata(shard).num_rows
            shards += 1
            continue
        d, s = search_segment(
            seg, prep.live, prep.idf, reader.avgdl, k=seg.doc_ids.size + 1,
            mode=mode, live_docs=live_docs,
        )
        if d.size == 0:
            continue
        tbl = pa.table({
            "doc_id": pa.array(d, pa.int64()),
            "score": pa.array(np.round(s, 4), pa.float64()),
        })
        _pq.write_table(tbl, shard + ".tmp")
        os.replace(shard + ".tmp", shard)
        with open(done, "w") as f:
            f.write("ok")
        rows += tbl.num_rows
        shards += 1
    return {"rows": rows, "shards": shards, "skipped": skipped}


def boxplot_agg(
    reader: IndexReader,
    query_text: str,
    *,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``boxplot`` aggregation over the match set's doc lengths:
    min / q1 / median / q3 / max in one row, from the same exact bincount
    partials as percentiles_agg (quarter quantiles are dyadic → bit-exact
    vs quantile_cont; min/max are integers)."""
    q = percentiles_agg(reader, query_text, qs=(0.25, 0.5, 0.75), mode=mode)
    empty = pd.DataFrame({
        "min_dl": pd.Series(dtype=np.int64),
        "q1": pd.Series(dtype=np.float64),
        "median": pd.Series(dtype=np.float64),
        "q3": pd.Series(dtype=np.float64),
        "max_dl": pd.Series(dtype=np.int64),
    })
    if q.empty:
        return empty
    lo, hi = None, None
    for seg, docs in reader.matches(query_text, mode):
        dl = seg.doc_lengths(docs)
        lo = int(dl.min()) if lo is None else min(lo, int(dl.min()))
        hi = int(dl.max()) if hi is None else max(hi, int(dl.max()))
    vals = dict(zip(q["q"], q["value"]))
    return pd.DataFrame([{
        "min_dl": np.int64(lo),
        "q1": vals[0.25],
        "median": vals[0.5],
        "q3": vals[0.75],
        "max_dl": np.int64(hi),
    }])


def bucket_stats(
    reader: IndexReader,
    query_text: str,
    *,
    ts_field: str = "ts",
    interval_us: int = 3_600_000_000,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``stats_bucket`` pipeline aggregation: min / max / sum / exact
    mean of the date-histogram bucket counts (one row summarizing traffic
    shape). Integers plus the shared floor(sum/n·1e6+0.5) mean rule."""
    import math

    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    if h.empty:
        return pd.DataFrame({
            "n_buckets": pd.Series(dtype=np.int64),
            "min_count": pd.Series(dtype=np.int64),
            "max_count": pd.Series(dtype=np.int64),
            "sum_count": pd.Series(dtype=np.int64),
            "avg_count": pd.Series(dtype=np.float64),
        })
    c = h["doc_count"].to_numpy(np.int64)
    return pd.DataFrame([{
        "n_buckets": np.int64(c.size),
        "min_count": np.int64(c.min()),
        "max_count": np.int64(c.max()),
        "sum_count": np.int64(c.sum()),
        "avg_count": math.floor(int(c.sum()) * 1.0 / c.size * 1e6 + 0.5) / 1e6,
    }])


def search_match_bool_prefix(
    reader: IndexReader,
    query_text: str,
    *,
    max_expansions: int = 50,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``match_bool_prefix`` (the other search-as-you-type query next to
    match_phrase_prefix, surfaced by the reference's autocomplete-style
    search endpoints, harvester/search/views/autocomplete.py): every token
    but the LAST is a plain should (OR) term clause; the last token is a
    prefix whose dictionary expansions join the same disjunction, each
    expansion keeping its own idf. Unlike match_phrase_prefix there is NO
    adjacency requirement — terms may appear anywhere in the doc. Expansion
    set is global and deterministic: the union of segment dictionaries'
    prefix ranges, lexicographically capped at ``max_expansions`` (the
    Lucene MultiTermQuery rewrite contract shared by match_fuzzy /
    wildcard); the fixed lead terms are always scored, cap or not."""
    check_counts(k=k)
    toks = analyzer.tokenize_query(query_text, reader.analyzer_version)  # last = prefix
    expansions = reader.terms_with_prefix(toks[-1])[:max_expansions] if toks else []
    out = reader._search_terms(toks[:-1] + expansions, k, "or").to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def search_terms_set(
    reader: IndexReader,
    terms: list[str],
    *,
    min_field: str,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``terms_set`` query with ``minimum_should_match_field``: a doc
    matches when it contains at least N DISTINCT terms of the supplied set,
    where N is read PER DOC from a stored numeric attribute (the stored
    ``required_matches``-style field of the ES docs). This is the per-doc
    generalization of ``search(min_should_match=...)`` — the global variant
    cannot express "strict docs demand more evidence than lax ones".
    Scored as bool should scoring: the BM25 sum of the doc's matched terms.
    Terms are exact dictionary terms (terms_set does not analyze input).

    Per segment: full vectorized decode of the term set, sort/reduceat
    score aggregation (the or_exhaustive shape), per-doc match counts from
    the posting-stream run lengths, the minimum vector gathered in ONE
    ``attr_values`` take — no per-doc Python."""
    check_counts(k=k)
    prep = prepare_terms(terms, "or", reader.df, reader.n_docs)
    parts = []
    for seg, uniq, sums, n_matched in _term_sums(reader, prep):
        keep = n_matched >= np.asarray(seg.attr_values(min_field, uniq), dtype=np.int64)
        parts.append((uniq[keep], sums[keep]))
    if not parts:
        return _no_hits()
    out = merge_topk(parts, k).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _term_sums(reader: IndexReader, prep):
    """Yield ``(segment, docs, score sums, matched-term counts)`` per
    segment with a live doc: every posting of the live terms scored and
    summed per doc in sorted term order (deterministic accumulation),
    tombstoned docs dropped."""
    for _, seg, live_docs in reader.segments():
        docs_parts, score_parts = [], []
        for t in prep.live:
            p = seg.postings(t)
            if p is None:
                continue
            d, f = p
            docs_parts.append(d)
            score_parts.append(bm25.score(
                f.astype(np.float64), seg.doc_lengths(d).astype(np.float64),
                prep.idf[t], reader.avgdl,
            ))
        if not docs_parts:
            continue
        alld = np.concatenate(docs_parts)
        alls = np.concatenate(score_parts)
        order = np.argsort(alld, kind="stable")
        alld, alls = alld[order], alls[order]
        uniq, starts = np.unique(alld, return_index=True)
        sums = np.add.reduceat(alls, starts)
        n_matched = np.diff(np.append(starts, alld.size))
        if live_docs is not None:
            live = live_docs[seg.ordinals(uniq)]
            uniq, sums, n_matched = uniq[live], sums[live], n_matched[live]
        if uniq.size:
            yield seg, uniq, sums, n_matched


def search_span_or(
    reader: IndexReader,
    terms_text: str,
    *,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``span_or``: the union of the clause terms treated as ONE span
    source. Unlike the bool/OR disjunction (which sums per-term BM25 with
    per-term idf), the span family scores the union as a single pseudo-term:
    tf = TOTAL occurrences of any clause term in the doc, df = live docs
    with >=1 occurrence, one shared idf. Positions are not needed — the
    union's occurrence count is just the sum of the clause tfs."""
    check_counts(k=k)
    return _span_or_terms(reader, reader.prepare(terms_text, "or").terms, k)


def _span_or_terms(reader: IndexReader, terms: list[str], k: int) -> pd.DataFrame:
    """``span_or`` over already-analyzed terms."""
    def match(seg):
        posts = [p for p in (seg.postings(t) for t in terms) if p is not None]
        if not posts:
            return _NO_SPANS
        alld = np.concatenate([p[0] for p in posts])
        allf = np.concatenate([p[1].astype(np.int64) for p in posts])
        order = np.argsort(alld, kind="stable")
        alld, allf = alld[order], allf[order]
        uniq, starts = np.unique(alld, return_index=True)
        return uniq, np.add.reduceat(allf, starts)

    return _span_topk(reader, match, k)


def search_span_multi(
    reader: IndexReader,
    prefix: str,
    *,
    k: int = 10,
    max_expansions: int = 50,
) -> pd.DataFrame:
    """ES ``span_multi`` wrapping a ``prefix`` query: expand ``pre*``
    against the sorted segment dictionaries (Lucene MultiTermQuery rewrite
    cap — first ``max_expansions`` distinct terms lexicographically), then
    score the expansion as ONE span source with ``span_or`` semantics
    (tf = total occurrences of ANY expanded term, one shared df/idf).
    Deliberately different ranking from ``search_prefix``'s per-term-idf
    disjunction — the degeneracy test asserts they diverge."""
    check_counts(k=k)
    pfx = _single_token(reader, prefix, "span_multi prefix must normalize to exactly one token")
    return _span_or_terms(reader, reader.terms_with_prefix(pfx)[:max_expansions], k)


def _expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the concatenated [lo_i, hi_i) index ranges: returns
    (owner_row, flat_index) — the run-length-expansion trick, no Python
    loop. Empty ranges contribute nothing."""
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    owner = np.repeat(np.arange(lo.size, dtype=np.int64), cnt)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    return owner, lo[owner] + offs


def _span_tokens(seg, term: str) -> np.ndarray | None:
    """All occurrences of ``term`` in the segment as sorted packed
    ``(local_doc << 31) | position`` keys (doc-major, positions ascending
    within doc — the postings layout guarantees sortedness)."""
    res = seg.positions(term)
    if res is None:
        return None
    docs, tfs, pos = res
    local = np.repeat(
        np.searchsorted(seg.doc_ids, docs), tfs
    ).astype(np.int64)
    return (local << 31) | pos


def search_span_containing(
    reader: IndexReader,
    big: tuple[str, str],
    little: str,
    *,
    slop: int = 4,
    mode: str = "containing",
    k: int = 10,
) -> pd.DataFrame:
    """ES ``span_containing`` / ``span_within``: the big clause is an
    ordered two-term window — a span [p1, p2] per (p1 in pos(t1), p2 in
    pos(t2)) with 1 <= p2 - p1 <= slop + 1 — and the little clause is a
    single term.

    - ``mode="containing"`` (span_containing): matches are the BIG spans
      that enclose >=1 little occurrence; tf = qualifying spans per doc.
    - ``mode="within"`` (span_within): matches are the LITTLE occurrences
      enclosed by >=1 big span; tf = qualifying occurrences per doc.

    df = live docs with >=1 match; span-frequency pseudo-term scoring (the
    span-family contract shared with span_near/span_first/span_not).
    Fully vectorized: packed (doc << 31 | pos) keys, two binary searches
    per side, run-length pair materialization — no per-doc loop."""
    check_counts(k=k)
    what = "span_containing takes single-token clauses"
    t1, t2, t3 = (_single_token(reader, x, what) for x in (big[0], big[1], little))
    if mode not in ("containing", "within"):
        raise ValueError(f"unknown mode {mode!r}")

    def match(seg):
        k1 = _span_tokens(seg, t1)
        k2 = _span_tokens(seg, t2)
        k3 = _span_tokens(seg, t3)
        if k1 is None or k2 is None or k3 is None:
            return _NO_SPANS
        # ordered big windows: p2 in (p1, p1 + slop + 1], same doc
        lo2 = np.searchsorted(k2, k1 + 1)
        hi2 = np.searchsorted(k2, k1 + slop + 1, side="right")
        owner, idx2 = _expand_ranges(lo2, hi2)
        if owner.size == 0:
            return _NO_SPANS
        span_lo = k1[owner]          # packed (doc, p1)
        span_hi = k2[idx2]           # packed (doc, p2), same doc by range
        a = np.searchsorted(k3, span_lo)
        b = np.searchsorted(k3, span_hi, side="right")
        if mode == "containing":
            good = b > a             # span encloses >=1 little occurrence
            keys = span_lo[good]     # one key per qualifying span
        else:
            _, idx3 = _expand_ranges(a, b)
            keys = k3[np.unique(idx3)]  # distinct enclosed little tokens
        return _span_counts(seg, keys)

    return _span_topk(reader, match, k, "span_containing")


def _span_counts(seg, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(docs, span count) of packed ``(local_doc << 31) | pos`` span keys."""
    uniq_local, cnt = np.unique(keys >> 31, return_counts=True)
    return seg.doc_ids[uniq_local], cnt.astype(np.int64)


def extended_stats_agg(
    reader: IndexReader,
    query_text: str,
    *,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``extended_stats`` aggregation over the match set's token lengths
    (the numeric signal the index holds without re-reading text): count,
    min, max, sum, sum_of_squares as exact integers; avg, population
    variance, std_deviation and ±2σ bounds derived from the SAME integer
    sufficient statistics on both engine and oracle sides (variance
    numerator n·Σx² − (Σx)² is an exact Python int / HUGEINT; sqrt is
    IEEE-correctly-rounded on an exactly-equal double, so the floor-1e6
    quantization cannot diverge)."""
    import math

    n = 0
    s = s2 = 0
    mn, mx = None, None
    for seg, matched in reader.matches(query_text, mode):
        dl = seg.doc_lengths(matched).astype(np.int64)
        n += int(matched.size)
        s += int(dl.sum())
        s2 += int((dl * dl).sum())
        mn = int(dl.min()) if mn is None else min(mn, int(dl.min()))
        mx = int(dl.max()) if mx is None else max(mx, int(dl.max()))
    if n == 0:
        return pd.DataFrame({
            "n": pd.Series(dtype=np.int64),
            "min_dl": pd.Series(dtype=np.int64),
            "max_dl": pd.Series(dtype=np.int64),
            "sum_dl": pd.Series(dtype=np.int64),
            "avg_dl": pd.Series(dtype=np.float64),
            "variance": pd.Series(dtype=np.float64),
            "std_dev": pd.Series(dtype=np.float64),
            "upper_2sd": pd.Series(dtype=np.float64),
            "lower_2sd": pd.Series(dtype=np.float64),
        })

    def r6(x: float) -> float:
        return math.floor(x * 1e6 + 0.5) / 1e6

    var_num = n * s2 - s * s  # exact integer, >= 0
    avg = float(s) / n
    std = math.sqrt(float(var_num)) / n
    return pd.DataFrame([{
        "n": np.int64(n),
        "min_dl": np.int64(mn),
        "max_dl": np.int64(mx),
        "sum_dl": np.int64(s),
        "avg_dl": r6(avg),
        "variance": r6(float(var_num) / (float(n) * n)),
        "std_dev": r6(std),
        "upper_2sd": r6(avg + 2.0 * std),
        "lower_2sd": r6(avg - 2.0 * std),
    }])


def missing_agg(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "tool",
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``missing`` aggregation: how many matched docs have NO value for
    an attribute field. Per segment only two integers leave the worker
    (matched count, null count) — validity comes straight from the Arrow
    null bitmap of the stored attr column."""
    import pyarrow.compute as _pc

    total = 0
    nmiss = 0
    for seg, matched in reader.matches(query_text, mode):
        if field not in seg.attrs:
            raise KeyError(
                f"attribute {field!r} not stored — build with attr_cols=[{field!r}]"
            )
        idx = np.searchsorted(seg.doc_ids, matched)
        valid = np.asarray(_pc.is_valid(seg.attrs[field].take(pa.array(idx))))
        total += int(matched.size)
        nmiss += int(matched.size - valid.sum())
    return pd.DataFrame(
        [{"missing_count": np.int64(nmiss), "doc_count": np.int64(total)}]
    )


def histogram_agg(
    reader: IndexReader,
    query_text: str,
    *,
    interval: int = 10,
    mode: str = "or",
) -> pd.DataFrame:
    """ES numeric ``histogram`` aggregation over the match set's token
    lengths: bucket = floor(dl / interval) · interval. Per segment one
    bincount over ``dl // interval`` leaves the worker — bounded by
    max_dl/interval, never by matches."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    counts = np.zeros(0, np.int64)
    for seg, matched in reader.matches(query_text, mode):
        counts = _add_bincount(counts, seg.doc_lengths(matched).astype(np.int64) // interval)
    nz = np.flatnonzero(counts)
    return pd.DataFrame(
        {
            "bucket": (nz * interval).astype(np.int64),
            "doc_count": counts[nz].astype(np.int64),
        }
    )


def stats_agg(
    reader: IndexReader,
    query_text: str,
    *,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``stats`` aggregation (count/min/max/sum/avg) over the match
    set's token lengths — the exact-integer subset of
    ``extended_stats_agg``'s sufficient statistics (same segment pass,
    same floor-1e6 avg quantization)."""
    return extended_stats_agg(reader, query_text, mode=mode)[
        ["n", "min_dl", "max_dl", "sum_dl", "avg_dl"]
    ]


def mad_agg(
    reader: IndexReader,
    query_text: str,
    *,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``median_absolute_deviation`` aggregation over the match set's
    token lengths — EXACT, not the TDigest approximation: per-segment
    bincount partials over integer dl (the percentiles_agg machinery), the
    median via quantile_cont interpolation from ranks, then a SECOND exact
    histogram over the integer 2·|dl − median| deviations (median is a
    multiple of 1/2, deviations of 1/4 — all exact in binary floats)."""
    counts = np.zeros(0, np.int64)
    for seg, matched in reader.matches(query_text, mode):
        counts = _add_bincount(counts, seg.doc_lengths(matched).astype(np.int64))
    n = int(counts.sum())
    if n == 0:
        return pd.DataFrame({
            "n": pd.Series(dtype=np.int64),
            "median_dl": pd.Series(dtype=np.float64),
            "mad": pd.Series(dtype=np.float64),
        })

    def _quantile_cont(cnt: np.ndarray, vals: np.ndarray, q: float) -> float:
        """quantile_cont over a histogram (vals ascending, cnt >= 0)."""
        nz = cnt > 0
        v, c = vals[nz].astype(np.float64), cnt[nz]
        cum = np.cumsum(c)
        total = int(cum[-1])
        h = q * (total - 1)  # 0-based fractional rank
        lo_rank = int(np.floor(h))
        hi_rank = min(lo_rank + 1, total - 1)
        lo_v = v[np.searchsorted(cum, lo_rank + 1)]
        hi_v = v[np.searchsorted(cum, hi_rank + 1)]
        return float(lo_v + (h - lo_rank) * (hi_v - lo_v))

    vals = np.arange(counts.size, dtype=np.int64)
    med = _quantile_cont(counts, vals, 0.5)
    # deviations in quarter units: 2*|dl - med| is a non-negative integer
    dev2 = np.abs(2 * vals - int(round(2 * med)))
    dev_counts = np.bincount(dev2, weights=counts).astype(np.int64)
    mad2 = _quantile_cont(
        dev_counts, np.arange(dev_counts.size, dtype=np.int64), 0.5
    )
    return pd.DataFrame([{
        "n": np.int64(n),
        "median_dl": med,
        "mad": mad2 / 2.0,
    }])


def string_stats_agg(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "source",
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``string_stats`` aggregation (with ``show_distribution``-style
    entropy) over a keyword attribute of the match set: count, min/max/avg
    value length, and Shannon entropy (bits) of the CHARACTER distribution
    across all matched values. Lengths are exact integers; entropy =
    log2(total) − Σ cnt·log2(cnt)/total is one mirrored float expression
    over exact integer character counts, floor-1e4 quantized on both sides
    (keyword attrs are short enumerated values — the per-value Python
    Counter walk is bounded by the attr alphabet, not the corpus)."""
    import math
    from collections import Counter

    n = 0
    len_sum = 0
    mn, mx = None, None
    chars: Counter = Counter()
    for seg, matched in reader.matches(query_text, mode):
        vals = [str(v) for v in seg.attr_values(field, matched)]
        n += len(vals)
        lens = [len(v) for v in vals]
        len_sum += sum(lens)
        mn = min(lens) if mn is None else min(mn, min(lens))
        mx = max(lens) if mx is None else max(mx, max(lens))
        chars.update("".join(vals))
    if n == 0:
        return pd.DataFrame({
            "n": pd.Series(dtype=np.int64),
            "min_len": pd.Series(dtype=np.int64),
            "max_len": pd.Series(dtype=np.int64),
            "avg_len": pd.Series(dtype=np.float64),
            "entropy": pd.Series(dtype=np.float64),
        })
    total = sum(chars.values())
    ent = (
        math.log2(total) - sum(c * math.log2(c) for c in chars.values()) / total
        if total > 0
        else 0.0
    )
    return pd.DataFrame([{
        "n": np.int64(n),
        "min_len": np.int64(mn),
        "max_len": np.int64(mx),
        "avg_len": math.floor(len_sum * 1.0 / n * 1e6 + 0.5) / 1e6,
        "entropy": math.floor(ent * 1e4 + 0.5) / 1e4,
    }])


def t_test_agg(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "source",
    group_a: str = "src0",
    group_b: str = "src1",
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``t_test`` aggregation (type=heteroscedastic, Welch's t) between
    two attribute-defined groups of the match set, over token lengths:
    t = (m̄₁ − m̄₂) / sqrt(s₁²/n₁ + s₂²/n₂) with SAMPLE variances
    sᵢ² = (nᵢ·Σx² − (Σx)²) / (nᵢ·(nᵢ−1)). All sufficient statistics are
    exact Python ints (HUGEINT in the oracle); the final expression is
    mirrored verbatim and floor-1e4 quantized."""
    import math

    stats = {group_a: [0, 0, 0], group_b: [0, 0, 0]}  # n, sum, sumsq
    for seg, matched in reader.matches(query_text, mode):
        dl = seg.doc_lengths(matched).astype(np.int64)
        vals = np.asarray(seg.attr_values(field, matched), dtype=object)
        for g in (group_a, group_b):
            d = dl[vals == g]
            stats[g][0] += int(d.size)
            stats[g][1] += int(d.sum())
            stats[g][2] += int((d * d).sum())
    n1, s1, q1 = stats[group_a]
    n2, s2, q2 = stats[group_b]
    if n1 < 2 or n2 < 2:
        return pd.DataFrame({
            "n_a": pd.Series(dtype=np.int64),
            "n_b": pd.Series(dtype=np.int64),
            "t_stat": pd.Series(dtype=np.float64),
        })
    v1_num = n1 * q1 - s1 * s1  # sample var numerator (over n1*(n1-1))
    v2_num = n2 * q2 - s2 * s2
    t = (float(s1) / n1 - float(s2) / n2) / math.sqrt(
        float(v1_num) / (float(n1) * n1 * (n1 - 1))
        + float(v2_num) / (float(n2) * n2 * (n2 - 1))
    )
    return pd.DataFrame([{
        "n_a": np.int64(n1),
        "n_b": np.int64(n2),
        "t_stat": math.floor(t * 1e4 + 0.5) / 1e4,
    }])


def search_function_score(
    reader: IndexReader,
    query_text: str,
    *,
    origin_us: int,
    scale_us: int,
    decay: float = 0.5,
    ts_field: str = "ts",
    k: int = 10,
) -> pd.DataFrame:
    """ES ``function_score`` with a ``gauss`` decay function and
    ``boost_mode: multiply`` (the canonical "fresher is better" shape): the
    OR-mode BM25 sum is MULTIPLIED by
    ``decay ** ((|ts − origin| / scale)²)`` — computed as
    ``exp(ln(decay) · m·m)`` with ``m = dist/scale`` so engine and oracle
    share one float expression (no pow()), offset = 0. Scoring is
    exhaustive per segment; per-segment top-k after the multiply is exact
    because the decay is per-doc."""
    check_counts(k=k)
    import math

    ln_decay = math.log(decay)
    parts = []
    for seg, uniq, sums, _ in _term_sums(reader, reader.prepare(query_text, "or")):
        ts = (
            seg.attr_values(ts_field, uniq)
            .astype("datetime64[us]").astype(np.int64)
        )
        dist = np.abs(origin_us - ts).astype(np.float64)
        m_ = dist / float(scale_us)
        final = sums * np.exp(ln_decay * (m_ * m_))
        parts.append(_topk(uniq, final, k))
    if not parts:
        return _no_hits()
    out = merge_topk(parts, k).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def search_has_parent(
    reader: IndexReader,
    parent_query: str,
    *,
    parent_field: str = "conv_id",
    k: int = 10,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``has_parent`` query with ``score: true`` — the dual of has_child
    (extras.search_parents): return CHILD documents (turns), each scored by
    its PARENT's (conversation's) relevance to ``parent_query``, where the
    parent score is the has_child sum of its children's 1e-4-quantized BM25
    scores. Children of the same parent tie on score and rank by doc id —
    the "give me every turn of the conversations about X" access path.

    Scale shape: parent scores are the vocabulary-bounded has_child fold
    (one row per parent-with-hits); child enumeration is one broadcast-map
    pass over each segment's parent-key sidecar (at 100 TB: broadcast the
    parent score table, map_batches over the doc sidecars)."""
    check_counts(k=k)
    empty = _no_hits()
    parents = search_parents(
        reader, parent_query, parent_field=parent_field, k=2**31,
        mode=mode, score_mode="sum",
    )
    if parents.empty:
        return empty
    # recover the exact integer ranking key from the 4-dp score
    fp = np.floor(parents["score"].to_numpy() * 1e4 + 0.5).astype(np.int64)
    fp_map = dict(zip(parents[parent_field], fp))
    parts = []
    for _, seg, live_docs in reader.segments():
        vals = pd.Series(np.asarray(seg.attrs[parent_field], dtype=object))
        child_fp = vals.map(fp_map)
        sel = child_fp.notna().to_numpy()
        if live_docs is not None:
            sel = sel & live_docs
        if not sel.any():
            continue
        docs = seg.doc_ids[sel]
        cfp = child_fp.to_numpy()[sel].astype(np.int64)
        if docs.size:
            parts.append(pd.DataFrame({"doc_id": docs, "fp": cfp}))
    if not parts:
        return empty
    out = pd.concat(parts).sort_values(
        ["fp", "doc_id"], ascending=[False, True], kind="mergesort"
    ).head(k)
    out["score"] = np.round(out["fp"].to_numpy() / 1e4, 4)
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out[["doc_id", "score"]].reset_index(drop=True)


def search_intervals(
    reader: IndexReader,
    terms_text: str,
    *,
    max_gaps: int = 2,
    k: int = 10,
) -> pd.DataFrame:
    """ES ``intervals`` query, ``all_of(ordered=true, max_gaps=N)``: the
    tokens must appear IN ORDER with at most ``max_gaps`` total non-matching
    tokens inside the interval — i.e. an ordered chain p1 < p2 < … < pT
    with span pT − p1 − (T−1) ≤ max_gaps. Sits between match_phrase
    (max_gaps=0 adjacency… though phrase also fixes per-link distance) and
    unordered span_near.

    tf = number of positions of the FIRST token that anchor a valid chain;
    df = live docs with ≥1; pseudo-term scoring (the span-family contract).

    Exactness of the greedy chain: taking the EARLIEST next-token position
    after the current one minimizes the chain's end for a given anchor, so
    an anchor has a valid chain iff its greedy chain is valid — one
    vectorized searchsorted per link, no per-doc loop."""
    check_counts(k=k)
    toks = analyzer.tokenize_query(terms_text, reader.analyzer_version)  # order kept
    if len(toks) < 2:
        raise ValueError("intervals needs at least two ordered tokens")

    def match(seg):
        keys = [_span_tokens(seg, t) for t in toks]
        if any(kk is None for kk in keys):
            return _NO_SPANS
        anchor = keys[0]
        cur = anchor
        for nxt in keys[1:]:
            # earliest occurrence of the next token strictly after cur,
            # within the same packed doc (doc boundary = key monotonicity)
            idx = np.searchsorted(nxt, cur + 1)
            ok = idx < nxt.size
            cand = np.where(ok, nxt[np.minimum(idx, nxt.size - 1)], -1)
            same_doc = ok & ((cand >> 31) == (cur >> 31))
            cur = np.where(same_doc, cand, np.int64(-1))
            alive = cur >= 0
            anchor, cur = anchor[alive], cur[alive]
            if anchor.size == 0:
                return _NO_SPANS
        span_ok = (cur - anchor) <= (len(toks) - 1 + max_gaps)
        return _span_counts(seg, anchor[span_ok])

    return _span_topk(reader, match, k, "intervals")
