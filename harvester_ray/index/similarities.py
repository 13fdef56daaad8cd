"""Pluggable per-field similarity models — the ES/Lucene ``similarity``
index setting the reference inherits through OpenSearch (index creation:
/root/reference/harvester/search/models/index.py:173-188 delegates the
mapping, whose fields score with the configured Lucene similarity; BM25 is
only the default). Implemented natively over the same segment postings the
BM25 scorer reads:

- ``lm_dirichlet`` — Lucene LMDirichletSimilarity: per matched term
  ``ln(1 + tf/(µ·p(t|C))) + ln(µ/(dl+µ))`` with ``p(t|C) = cf_t /
  total_tokens`` (collection frequency over the whole corpus). No
  non-negativity clamp (documented deviation from some Lucene versions —
  the clamp collapses ties and hides ranking signal on small corpora).
- ``classic`` — Lucene ClassicSimilarity (pre-BM25 default TF-IDF):
  ``coord(q,d) · Σ sqrt(tf) · idf² / sqrt(dl)`` with ``idf = 1 +
  ln(n_docs/(df+1))`` and ``coord = |matched terms| / |query terms|``;
  queryNorm is omitted (a per-query constant — rank-invariant).
- ``lm_jelinek_mercer`` — Lucene LMJelinekMercerSimilarity: per matched
  term ``ln(1 + ((1-λ)/λ) · (tf/dl) / p(t|C))``. λ is fixed at 0.5 (the
  Lucene default for short queries is 0.1, but 0.5 makes (1-λ)/λ ≡ 1 —
  exact in IEEE doubles, so engine and SQL oracle agree bit-for-bit).

Scale/parity notes: collection frequencies come from one full postings
decode per (query term, segment) — the same cost class as a scored query —
and, like Lucene, segment statistics ignore tombstones until compaction.
Per-term score arrays are accumulated in sorted term order; final scores
round half-away to 4 decimals and rank by ``(score, doc_id)`` exactly like
the BM25 gates (floor(x·1e4+0.5) ≡ DuckDB round(x,4) for positive x).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .query import IndexReader, iter_matches

MU = 2000.0


def _collection_freqs(reader: IndexReader, terms: list[str]) -> dict[str, int]:
    """Σ tf per term across every segment (postings are decoded once; the
    reader's cache keeps them warm for the scoring pass)."""
    cf = {t: 0 for t in terms}
    for _, seg, _ in reader.segments():
        for t in terms:
            p = seg.postings(t)
            if p is not None:
                cf[t] += int(p[1].sum())
    return cf


def search_similarity(
    reader: IndexReader,
    query_text: str,
    *,
    model: str = "lm_dirichlet",
    k: int = 10,
    mode: str = "or",
    mu: float = MU,
) -> pd.DataFrame:
    """Top-k under a non-BM25 similarity model. OR mode scores every doc
    matching ≥1 term (AND intersects first); exhaustive per segment, like
    BM25's own disjunctions."""
    empty = pd.DataFrame({
        "doc_id": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    })
    prep = reader.prepare(query_text, mode)
    if prep.empty:
        return empty
    live = prep.live
    n_docs = reader.n_docs
    total_tokens = int(reader.manifest["dl_sum"])
    if model in ("lm_dirichlet", "lm_jelinek_mercer"):
        cf = _collection_freqs(reader, live)
        live = [t for t in live if cf[t] > 0]
        if not live:
            return empty
    elif model == "classic":
        idf = {t: 1.0 + np.log(n_docs / (prep.dfs[t] + 1)) for t in live}
    else:
        raise ValueError(f"unknown similarity model {model!r}")

    docs_parts: list[np.ndarray] = []
    score_parts: list[np.ndarray] = []
    for seg, cand in iter_matches(reader.segments(), live, mode):
        dl = seg.doc_lengths(cand).astype(np.float64)
        scores = np.zeros(cand.size, dtype=np.float64)
        matched = np.zeros(cand.size, dtype=np.int64)
        for t in live:  # sorted order — float addition order mirrored in docs
            p = seg.postings(t)
            if p is None or not p[0].size:
                continue
            pos = np.searchsorted(p[0], cand)
            np.clip(pos, 0, p[0].size - 1, out=pos)
            hit = p[0][pos] == cand
            tf = np.where(hit, p[1][pos], 0).astype(np.float64)
            if model == "lm_dirichlet":
                pc = cf[t] / total_tokens
                s = np.log(1.0 + tf / (mu * pc)) + np.log(mu / (dl + mu))
            elif model == "lm_jelinek_mercer":
                pc = cf[t] / total_tokens
                s = np.log(1.0 + (tf / dl) / pc)
            else:
                s = np.sqrt(tf) * idf[t] * idf[t] / np.sqrt(dl)
            scores += np.where(hit, s, 0.0)
            matched += hit
        if model == "classic":
            scores *= matched / len(prep.terms)
        docs_parts.append(cand)
        score_parts.append(scores)
    if not docs_parts:
        return empty
    docs = np.concatenate(docs_parts)
    scores = np.concatenate(score_parts)
    fp = np.floor(scores * 1e4 + 0.5).astype(np.int64)
    order = np.lexsort((docs, -fp))[:k]
    return pd.DataFrame({
        "doc_id": docs[order],
        "score": fp[order] / 1e4,
    })
