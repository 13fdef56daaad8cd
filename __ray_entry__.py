"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline (documents corpus → versioned BM25
segment index → top-k search) on sf0.001. ``queries()`` exposes one callable
per implemented operator/pipeline from SURVEY.md §2 (+ the training-data
ops); ``oracle_sql()`` gives the DuckDB-equivalent SQL for every
SQL-expressible one. Ray is initialised by the driver BEFORE this module is
imported — nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

from harvester_ray import analyzer as _analyzer
from harvester_ray import synth
from harvester_ray.index import build as index_build
from harvester_ray.index import oracle as index_oracle
from harvester_ray.index import query as index_query
from harvester_ray.ops import boilerplate as _boilerplate
from harvester_ray.ops import cluster as _cluster
from harvester_ray.ops import decontam as _decontam
from harvester_ray.ops import dupgrams as _dupgrams
from harvester_ray.ops import substring as _substring
from harvester_ray.ops import c4 as _c4
from harvester_ray.ops import diversity as _diversity
from harvester_ray.ops import prefixcache as _prefixcache
from harvester_ray.ops import coreset as _coreset
from harvester_ray.ops import refusal as _refusal
from harvester_ray.ops import pca as _pca
from harvester_ray.pipelines import transform as _transform_mod
from harvester_ray.ops import agreement as _agreement
from harvester_ray.ops import tagging as _tagging
from harvester_ray.ops import packing as _packing
from harvester_ray.ops import quantiles as _quantiles
from harvester_ray.pipelines import graph as _graph
from harvester_ray.index import bm25f as _bm25f_oracle
from harvester_ray.ops import pii as _pii
from harvester_ray.ops import sampling as _sampling
from harvester_ray.ops import sketch as _sketch
from harvester_ray.ops import spandedup as _spandedup
from harvester_ray.ops import kmeans as _kmeans
from harvester_ray.ops import compare as _compare
from harvester_ray.ops import keywords as _keywords
from harvester_ray.pipelines import analytics as _analytics
from harvester_ray.pipelines import windows as _windows_mod
from harvester_ray.ops import bloom as _bloom
from harvester_ray.ops import embstats as _embstats
from harvester_ray.ops import chunking as _chunking
from harvester_ray.ops import dedup, similarity, text_analysis
from harvester_ray.ops import urldedup
from harvester_ray.ops import percolate as _percolate_mod
from harvester_ray.ops import quality_model as _qm_mod
from harvester_ray.pipelines import curate as _curate
from harvester_ray.pipelines import flagship, relational, windows
from harvester_ray.pipelines import transcripts as _transcripts_mod

_SCRATCH = "/tmp/harvester_ray_entry"

# fixed evaluation queries over the `documents` corpus vocabulary
BM25_QUERY_AND = "spark window"
# v2 probe: stopword + plural/verbal suffixes — stems to [spark, window]
# over an index whose postings merged spark/sparks and window/windows(…ing)
BM25_QUERY_V2 = "the sparks windowing"
# phrase probe: "parts" stems to part; "the" is dropped, so v2 adjacency
# matches "part <the> filter" spans that v1 would reject
PHRASE_QUERY_V2 = "parts the filter"
BM25_QUERY_AND2 = "vector stream sort"
BM25_QUERY_OR = "customer query big"
BM25_MUST_NOT = "sort"
FUZZY_QUERY = "spork"  # 1 edit from 'spark'; no exact match in the corpus
BM25_MSM_QUERY = "dup the fast"  # rare terms: msm=2 visibly prunes single-term matches
BM25_PREFIX = "s"
# rare terms at conversation granularity: flattening makes common-term
# scores tie at 4 decimals across all 200 convs, so the gate query must
# have discriminative df/tf (OR over two df=4 terms)
CONV_QUERY = "bafepale baru"


AUTHOR_NAME = "merge table"
AUTHORS_WITH_PROBE = "Merge Table|Filler Writer"
AUTHORS_WITHOUT_PROBE = "Filler Writer"
AUTHORS_SQL_TABLE = (
    "(SELECT *, CASE WHEN doc_id % 3 = 0"
    f" THEN '{AUTHORS_WITH_PROBE}' ELSE '{AUTHORS_WITHOUT_PROBE}' END"
    " AS authors FROM documents)"
)


def _documents_index(sf_dir: str) -> str:
    """Build (once per sf_dir, cached+resumable) the index over documents."""
    import ray.data as rd

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"docidx-attrs3-pos-{tag}")
    docs = os.path.join(sf_dir, "documents.parquet")
    from harvester_ray.index import manifest as mf

    if mf.current_version(root) is None:
        import pyarrow as _pa
        import numpy as _np

        def _with_req(b: "_pa.Table") -> "_pa.Table":
            # per-doc minimum_should_match field for the terms_set gate:
            # deterministic 1..3 derived from the stored n_chars column
            n = b["n_chars"].to_numpy(zero_copy_only=False).astype("int64")
            b = b.append_column("req", _pa.array(1 + (n % 3)))
            # authors fixture for the author_suggestions gate: every third
            # doc lists the probe author (mixed case — the entry match is
            # case-insensitive); mirrored verbatim in the oracle's CASE
            d = b["doc_id"].to_numpy(zero_copy_only=False)
            auth = _np.where(
                d % 3 == 0, AUTHORS_WITH_PROBE, AUTHORS_WITHOUT_PROBE
            ).astype(object)
            return b.append_column("authors", _pa.array(auth, _pa.string()))

        ds = rd.read_parquet(
            docs, columns=["doc_id", "text", "source", "lang", "n_chars"]
        ).map_batches(_with_req, batch_format="pyarrow")
        index_build.build_index(
            ds, root, input_desc=docs,
            attr_cols=["source", "lang", "req", "authors"],
            store_positions=True,
        )
    return root


def _bm25(sf_dir: str, q: str, mode: str, k: int = 10) -> pd.DataFrame:
    root = _documents_index(sf_dir)
    out = index_query.IndexReader(root).search(q, k=k, mode=mode).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _documents_index_v2(sf_dir: str) -> str:
    """Analyzer-v2 (stopwords + light stemmer) index over documents —
    its own root: v1 and v2 indices are distinct artifacts keyed by the
    manifest's analyzer version (the fingerprint includes it, so a v1
    segment can never be reused for a v2 build)."""
    import ray.data as rd

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"docidx-v2-{tag}")
    docs = os.path.join(sf_dir, "documents.parquet")
    from harvester_ray.index import manifest as mf

    if mf.current_version(root) is None:
        ds = rd.read_parquet(docs, columns=["doc_id", "text"])
        index_build.build_index(
            ds, root, input_desc=docs, analyzer_version="v2",
            store_positions=True,
        )
    return root


def _bm25_v2(sf_dir: str, q: str, mode: str, k: int = 10) -> pd.DataFrame:
    root = _documents_index_v2(sf_dir)
    out = index_query.IndexReader(root).search(q, k=k, mode=mode).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _phrase_v2(sf_dir: str, phrase: str, k: int = 10) -> pd.DataFrame:
    """Quoted phrase over the analyzer-v2 positional index: adjacency is
    over POST-FILTER ordinals (stopwords dropped, stems), so a stopword
    inside the query phrase matches documents where the content words are
    adjacent after filtering."""
    root = _documents_index_v2(sf_dir)
    out = index_query.IndexReader(root).search_phrase(phrase, k=k).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _similarity(sf_dir: str, model: str) -> pd.DataFrame:
    """Non-BM25 similarity modules (ES/Lucene `similarity` index setting):
    LM Dirichlet and classic TF-IDF ranking over the same postings."""
    from harvester_ray.index import similarities as _sim

    root = _documents_index(sf_dir)
    return _sim.search_similarity(
        index_query.IndexReader(root), BM25_QUERY_AND, model=model,
        k=10, mode="or",
    )


MIN_SCORE_THR = 0.7


def _min_score(sf_dir: str) -> pd.DataFrame:
    """ES search ``min_score``: exhaustive AND query, keep only hits whose
    ROUNDED BM25 score clears the cutoff — filtering after the shared
    round(4) so the boundary comparison is bit-identical on both sides."""
    out = _bm25(sf_dir, BM25_QUERY_AND, "and", k=100000)
    out = out[out["score"] >= MIN_SCORE_THR]
    return out.sort_values(
        ["score", "doc_id"], ascending=[False, True], kind="stable"
    ).reset_index(drop=True)


def _bm25_not(sf_dir: str) -> pd.DataFrame:
    """Negated-clause search (simple_query_string ``-term``): AND query with
    docs containing the negated term excluded per segment."""
    root = _documents_index(sf_dir)
    out = (
        index_query.IndexReader(root)
        .search(BM25_QUERY_AND, k=10, mode="and", must_not=BM25_MUST_NOT)
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _author_suggestions(sf_dir: str) -> pd.DataFrame:
    """Author-suggestions endpoint (reference search/views/similarity.py:
    84-110): docs where the author's name matches the text but is absent
    from the (planted) authors attribute."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.author_suggestions(
        index_query.IndexReader(root), AUTHOR_NAME, k=10
    )


def _bm25_boosting(sf_dir: str) -> pd.DataFrame:
    """ES ``boosting`` query: docs matching the negative clause demoted by
    negative_boost=0.3, not dropped (the soft sibling of bm25_not)."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_boosting(
        index_query.IndexReader(root), BM25_QUERY_OR, BM25_MUST_NOT,
        negative_boost=0.3, k=10,
    )


PHRASE_SUGGEST_QUERY = "spork windov"  # both tokens misspelled by one edit


def _phrase_suggest_sql_entry() -> str:
    from harvester_ray.index import extras as _extras

    return _extras.phrase_suggest_sql("documents", PHRASE_SUGGEST_QUERY, n=5)


def _boosted_terms_sql_entry() -> str:
    from harvester_ray.index import extras as _extras

    return _extras.boosted_terms_sql("documents", BOOSTED_QUERY, k=10)


def _span_near_sql_entry() -> str:
    from harvester_ray.index import extras as _extras

    return _extras.span_near_sql("documents", BM25_QUERY_AND, slop=SPAN_NEAR_SLOP, k=10)


def _termvectors_sql_entry() -> str:
    from harvester_ray.index import extras as _extras

    return _extras.termvectors_sql("documents", TERMVEC_DOC)


def _match_fuzzy_sql_entry() -> str:
    from harvester_ray.index import extras as _extras

    return index_oracle.bm25_expansion_sql(
        "documents", _extras.match_fuzzy_predicate_sql(MATCH_FUZZY_QUERY), 10
    )


# (query → known-positive doc ids) fixture; ids are the sf0.01 top-2 hits so
# the anti-join visibly reshapes the result at the gate scale (at other sfs
# the ids are arbitrary labels — both sides exclude the same set either way)
HARD_NEG_PAIRS = {
    "spark window": [104, 174],
    "customer query big": [385, 224],
}


def _hard_negatives(sf_dir: str) -> pd.DataFrame:
    """Hard-negative mining (DPR-style): per training query, top BM25
    matches that are not known positives, via one msearch sweep."""
    from harvester_ray.index import extras as _extras

    return _extras.mine_hard_negatives(
        index_query.IndexReader(_documents_index(sf_dir)),
        HARD_NEG_PAIRS, k=5, mode="or",
    )


def _phrase_suggest(sf_dir: str) -> pd.DataFrame:
    """ES phrase suggester: whole-query corrections ranked by the exact
    integer Laplace unigram likelihood Π(df+1)."""
    from harvester_ray.index import extras as _extras

    return _extras.suggest_phrases(
        index_query.IndexReader(_documents_index(sf_dir)),
        PHRASE_SUGGEST_QUERY, n=5,
    )


def _top_hits(sf_dir: str) -> pd.DataFrame:
    """ES top_hits aggregation: groups ranked by best hit, top-3 docs per
    group (the N-per-group generalization of collapse)."""
    from harvester_ray.index import extras as _extras

    return _extras.top_hits(
        index_query.IndexReader(_documents_index(sf_dir)),
        BM25_QUERY_OR, field="source", per_group=3, n_groups=5, mode="or",
    )


MGET_IDS = [5, 17, 999999]  # last id missing → found=False row


TERMVEC_DOC = 7


def _termvectors(sf_dir: str) -> pd.DataFrame:
    """ES _termvectors: one doc's (term, tf, ordinal) rows from the index's
    own postings + positional streams (no corpus re-read)."""
    from harvester_ray.index import extras as _extras

    return _extras.termvectors(
        index_query.IndexReader(_documents_index(sf_dir)), TERMVEC_DOC
    )


def _analyze_tokens(sf_dir: str) -> pd.DataFrame:
    """ES _analyze: the exact (doc, ordinal, token) stream the index build
    emits, via the build-path analyzer kernels, over a fixed doc slice."""
    import ray.data as rd

    docs = os.path.join(sf_dir, "documents.parquet")
    ds = rd.read_parquet(docs, columns=["doc_id", "text"]).filter(
        expr="doc_id < 20"
    )
    parts = [
        _analyzer.analyze_table(pa.Table.from_pandas(b))
        for b in ds.iter_batches(batch_format="pandas")
    ]
    out = pa.concat_tables(parts).to_pandas()
    return out.sort_values(["doc_id", "pos"]).reset_index(drop=True)


def _mget_docs(sf_dir: str) -> pd.DataFrame:
    """ES _mget: batched stored-field fetch, one pass per segment doc
    table for the whole id batch; missing ids keep a found=False row."""
    from harvester_ray.index import readback as _readback

    out = _readback.mget(
        _documents_index(sf_dir), MGET_IDS, columns=["dl", "source", "lang"]
    )
    out["created_version"] = out["created_version"].astype(np.int64)
    out["dl"] = out["dl"].astype(np.int64)
    return out


SPAN_NEAR_SLOP = 6
BOOSTED_QUERY = "spark^2 window big^0.5"


def _harvest_pages() -> list[str]:
    """The deterministic 60-doc harvest fixture's texts, by doc_id."""
    return [
        (f"spark window doc {d}" if d % 2 else f"batch stream scan {d}")
        for d in range(60)
    ]


UPDATE_IDS = (3, 7, 11)


def _update_docs(sf_dir: str) -> pd.DataFrame:
    """ES _update lifecycle: partial attr merges ride the single-record
    delta path; read-back state is the merged doc with text untouched.
    Idempotent across cached-index reruns (updates set absolute values)."""
    import pyarrow.compute as _pc
    import ray.data as rd

    from harvester_ray.index import build as _build
    from harvester_ray.index import incremental as _inc
    from harvester_ray.index import manifest as _mf
    from harvester_ray.index import readback as _readback

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"updlife-{tag}")
    if _mf.current_version(root) is None:
        ds = rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text", "source"],
        ).map_batches(
            lambda t: t.filter(_pc.less(t["doc_id"], 20)),
            batch_format="pyarrow",
        )
        _build.build_index(
            ds, root, concurrency=2, attr_cols=["source"], store_source=True
        )
    for i in UPDATE_IDS:
        _inc.update_document(root, i, {"source": f"patched{i}"})
    out = _readback.mget(root, list(range(20)), columns=["dl", "source"])
    out = out[["doc_id", "source", "dl"]].copy()
    out["dl"] = out["dl"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def _run_harvest(sf_dir: str) -> pd.DataFrame:
    """End-to-end run_harvest lifecycle (paged source → OBJECTIVE →
    validate → index → promote), verified by searching the promoted index
    against a VALUES-table oracle of the same deterministic pages."""
    import shutil

    from harvester_ray.index import manifest as mf
    from harvester_ray.pipelines import harvest

    texts = _harvest_pages()

    def fetch(page: int) -> list[dict]:
        return [
            {"meta": {"id": page * 10 + i}, "body": {"content": texts[page * 10 + i]}}
            for i in range(10)
        ]

    root = os.path.join(_SCRATCH, "harvest-idx")
    if mf.current_version(root) is None:
        shutil.rmtree(root, ignore_errors=True)
        harvest.run_harvest(
            fetch, 6, {"@": "$", "doc_id": "$.meta.id", "text": "$.body.content"},
            root,
        )
    out = index_query.IndexReader(root).search(
        "spark window", k=10, mode="and"
    ).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _run_harvest_sql() -> str:
    rows = ", ".join(
        f"({d}, '{t}')" for d, t in enumerate(_harvest_pages())
    )
    body = index_oracle.bm25_sql("hdocs", "spark window", 10, mode="and")
    return (
        f"WITH hdocs(doc_id, text) AS (VALUES {rows}), "
        + body[len("WITH "):]
    )


def _profile_search(sf_dir: str) -> pd.DataFrame:
    """_profile API structural counters (SQL-expressible projection:
    segment counts and wall time stay in the full API, not the gate)."""
    from harvester_ray.index import extras as _extras

    prof = _extras.profile_search(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        mode="or",
    )
    return prof[["query_terms", "live_terms", "postings_decoded", "candidates"]]


def _boosted_terms(sf_dir: str) -> pd.DataFrame:
    """Per-term ^boost weighting (simple_query_string boost syntax): each
    term's BM25 contribution scales by its boost."""
    from harvester_ray.index import extras as _extras

    return _extras.search_boosted_terms(
        index_query.IndexReader(_documents_index(sf_dir)), BOOSTED_QUERY, k=10
    )


def _count_terminate(sf_dir: str) -> pd.DataFrame:
    """_count with terminate_after (exact regime: threshold unreachable,
    terminated=False; the lower-bound contract is unit-tested)."""
    from harvester_ray.index import extras as _extras

    return _extras.count_terminate_after(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        terminate_after=2**31, mode="or",
    )


def _cardinality_agg(sf_dir: str) -> pd.DataFrame:
    """ES cardinality agg over the match set (exact: facet-bounded field)."""
    from harvester_ray.index import extras as _extras

    return _extras.cardinality_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        field="source", mode="or",
    )


def _span_near(sf_dir: str) -> pd.DataFrame:
    """span_near in_order=false: all terms within a window in any order,
    ranked by minimal covering-window width (exact integers)."""
    from harvester_ray.index import extras as _extras

    return _extras.search_span_near(
        index_query.IndexReader(_documents_index(sf_dir)),
        BM25_QUERY_AND, slop=SPAN_NEAR_SLOP, k=10,
    )


def _extended_stats(sf_dir: str) -> pd.DataFrame:
    """ES extended_stats agg: exact integer sufficient statistics, mirrored
    float derivations (avg/variance/std/±2σ bounds)."""
    from harvester_ray.index import extras as _extras

    return _extras.extended_stats_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        mode="or",
    )


def _late_arrivals(sf_dir: str) -> pd.DataFrame:
    """Watermark / allowed-lateness accounting over the events stream
    (two-phase prefix scan, zero shuffle)."""
    from harvester_ray.pipelines import windows as _win

    return _win.late_arrivals(
        [os.path.join(sf_dir, "events.parquet")],
        interval_us=3_600_000_000,
        allowed_lateness_us=1_800_000_000,
        seq_scramble=True,  # the synth log is event-time-ordered; scramble
        # arrival deterministically so late rows actually exist
    )


def _window_gaps(sf_dir: str) -> pd.DataFrame:
    """Data-completeness gap report: 10-minute tumbling windows with no
    events between the stream's min and max (bounded per-batch partials)."""
    import ray.data as rd

    from harvester_ray.pipelines import windows as _win

    return _win.window_gaps(
        rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"]),
        interval_us=600_000_000,
    )


PHRASE_DECON_DOCS = ((7, 6), (21, 4))


def _phrase_decontam(sf_dir: str) -> pd.DataFrame:
    """Exact-phrase decontamination: benchmark phrases = the first L tokens
    of fixture docs (both sides derive them identically), matched verbatim
    at their own lengths."""
    import pyarrow.parquet as _pq

    from harvester_ray import analyzer as _an
    from harvester_ray.ops import decontam as _dec

    tbl = _pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    ids = tbl["doc_id"].to_pylist()
    phrases = []
    for d, L in PHRASE_DECON_DOCS:
        toks = _an.tokenize_query(tbl["text"][ids.index(d)].as_py())
        phrases.append(" ".join(toks[:L]))
    out = (
        _dec.phrase_decontaminate(_docs_ds(sf_dir), phrases)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return out


def _segment_metrics(sf_dir: str) -> pd.DataFrame:
    """Per-partition lineage + metrics (north_rule): per-segment doc/term
    stats, on-disk bytes, encode wall time. Rows-only (wall times and byte
    sizes are not SQL-derivable)."""
    from harvester_ray.index import build as _build

    return _build.segment_metrics(_documents_index(sf_dir))


def _missing_agg(sf_dir: str) -> pd.DataFrame:
    """ES missing agg: matched turns with no tool attribute (null bitmap
    count per segment)."""
    from harvester_ray.index import extras as _extras

    return _extras.missing_agg(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        field="tool", mode="or",
    )


def _histogram_agg(sf_dir: str) -> pd.DataFrame:
    """ES numeric histogram over match-set token lengths (interval=10)."""
    from harvester_ray.index import extras as _extras

    return _extras.histogram_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        interval=10, mode="or",
    )


def _terms_stats(sf_dir: str) -> pd.DataFrame:
    """ES terms agg with an avg metric sub-agg: per-bucket doc_count +
    dl sum/average, exact regime."""
    from harvester_ray.index import extras as _extras

    return _extras.terms_stats_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        field="source", size=20, mode="or",
    )


def _stats_agg(sf_dir: str) -> pd.DataFrame:
    """ES stats agg: the count/min/max/sum/avg projection of the
    extended_stats sufficient statistics."""
    from harvester_ray.index import extras as _extras

    return _extras.stats_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        mode="or",
    )


def _mad_agg(sf_dir: str) -> pd.DataFrame:
    """ES median_absolute_deviation agg — exact (bincount + quantile_cont),
    not the TDigest approximation."""
    from harvester_ray.index import extras as _extras

    return _extras.mad_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        mode="or",
    )


def _string_stats(sf_dir: str) -> pd.DataFrame:
    """ES string_stats agg over the source keyword attr of the match set
    (length stats + character-distribution Shannon entropy)."""
    from harvester_ray.index import extras as _extras

    return _extras.string_stats_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        field="source", mode="or",
    )


def _t_test(sf_dir: str) -> pd.DataFrame:
    """ES t_test agg (Welch) between src0 and src1 token lengths over the
    match set — exact HUGEINT sufficient statistics."""
    from harvester_ray.index import extras as _extras

    return _extras.t_test_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        field="source", group_a="src0", group_b="src1", mode="or",
    )


def _percentiles_agg(sf_dir: str) -> pd.DataFrame:
    """ES percentiles agg over the match set (exact bincount fold, not
    t-digest: doc lengths are small ints)."""
    from harvester_ray.index import extras as _extras

    return _extras.percentiles_agg(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        mode="or",
    )


def _aggs_dsl(sf_dir: str) -> pd.DataFrame:
    """ES aggs-DSL dispatcher end-to-end: a JSON terms agg routed through
    index/aggdsl.py onto the native operator."""
    from harvester_ray.index import aggdsl as _aggdsl

    out = _aggdsl.execute_aggs(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_QUERY_OR,
        {"by_source": {"terms": {"field": "source", "size": 20}}},
        mode="or",
    )
    return out["by_source"]


def _terms_agg(sf_dir: str) -> pd.DataFrame:
    """ES terms aggregation (exact regime: shard_size unbounded, bounds 0).
    The shard_size approximation contract is unit-tested (test_extras)."""
    from harvester_ray.index import extras as _extras

    return _extras.terms_agg(
        index_query.IndexReader(_documents_index(sf_dir)),
        BM25_QUERY_OR, field="source", size=20, mode="or",
    )


def _snapshot_restore(sf_dir: str) -> pd.DataFrame:
    """Snapshot → restore → search: the restored index must rank exactly
    like the oracle over the raw table (i.e. like the source index). The
    snapshot repo is content-addressed by immutable relpath, so re-running
    reuses every file (incremental-snapshot semantics, index/snapshot.py)."""
    from harvester_ray.index import snapshot as _snap

    tag = os.path.basename(os.path.normpath(sf_dir))
    repo = os.path.join(_SCRATCH, f"snap-repo-{tag}")
    dest = os.path.join(_SCRATCH, f"snap-restored-{tag}")
    rec = _snap.snapshot(_documents_index(sf_dir), repo)
    _snap.restore(repo, rec["name"], dest)
    out = (
        index_query.IndexReader(dest)
        .search(BM25_QUERY_AND, k=10, mode="and")
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _bm25_msm(sf_dir: str) -> pd.DataFrame:
    """OR query with minimum_should_match=2 (ES bool-should semantics)."""
    root = _documents_index(sf_dir)
    out = (
        index_query.IndexReader(root)
        .search(BM25_MSM_QUERY, k=10, mode="or", min_should_match=2)
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _bm25_prefix(sf_dir: str) -> pd.DataFrame:
    """Prefix wildcard search (``s*``): dictionary expansion capped at 50
    terms, scored as a disjunction."""
    root = _documents_index(sf_dir)
    out = index_query.IndexReader(root).search_prefix(BM25_PREFIX, k=10).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


MSEARCH_QUERIES = [BM25_QUERY_AND, BM25_QUERY_AND2, BM25_QUERY_OR]


def _msearch(sf_dir: str) -> pd.DataFrame:
    """Batched multi-query search (ES _msearch): one segment sweep answers
    all queries — df lookup once for the term union, shared terms decoded
    once per segment."""
    root = _documents_index(sf_dir)
    out = (
        index_query.IndexReader(root)
        .msearch(MSEARCH_QUERIES, k=10, mode="or")
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["query", "rank", "doc_id", "score"]]


def _scroll_pages(sf_dir: str) -> pd.DataFrame:
    """Legacy scroll cursor (index/api.open_scroll + scroll): page through
    the ENTIRE OR-match result set 7 hits at a time until the empty page;
    the stateless scroll id pins the manifest version, so the pages are one
    frozen total order ≡ the oracle's row_number()//7 partition."""
    from harvester_ray.index import api as _api

    root = _documents_index(sf_dir)
    resp = _api.open_scroll(root, {"query": {"match": {"text": {"query": BM25_QUERY_OR, "operator": "or"}}}}, size=7)
    rows = []
    page = 0
    while resp["hits"]["hits"]:
        for h in resp["hits"]["hits"]:
            rows.append((page, h["_id"], round(h["_score"], 4)))
        page += 1
        resp = _api.scroll(root, resp["_scroll_id"])
    return pd.DataFrame(rows, columns=["page", "doc_id", "score"]).astype(
        {"page": np.int64, "doc_id": np.int64}
    )


def _search_cursor(sf_dir: str) -> pd.DataFrame:
    """Cursor pagination (search_after): page 2 fetched via the (score,
    doc_id) cursor of page 1's last row ≡ OFFSET page_size of the total
    order, which is exactly what the oracle computes."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    r = index_query.IndexReader(root)
    p1 = _extras.search_after(r, BM25_QUERY_OR, k=10, mode="or")
    cur = (float(p1["score"].iloc[-1]), int(p1["doc_id"].iloc[-1]))
    out = _extras.search_after(r, BM25_QUERY_OR, after=cur, k=10, mode="or")
    return out[["doc_id", "score"]]


def _search_stats(sf_dir: str) -> pd.DataFrame:
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_stats(
        index_query.IndexReader(root), BM25_QUERY_AND, by="source", mode="and"
    )


# named filter buckets over (source, lang) attrs — shared by the filters /
# adjacency_matrix aggregation gates
AGG_FILTERS = {
    "english": {"lang": ["en"]},
    "low_src": {"source": ["src0", "src1", "src2", "src3"]},
    "romance": {"lang": ["es", "fr"]},
}


DL_RANGES = [(None, 80.0), (80.0, 120.0), (120.0, None)]
RARE_TERMS_QUERY = "dup"  # df≈25 over 20 sources → a real ≤2 long tail
BOOL_MUST, BOOL_SHOULD, BOOL_NOT = "spark", "window batch", "dup"


def _range_agg(sf_dir: str) -> pd.DataFrame:
    """ES range aggregation: half-open doc-length buckets over the match
    set (ES from-to label keys)."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.range_agg(
        index_query.IndexReader(root), BM25_QUERY_OR, DL_RANGES, mode="or"
    )


def _rare_terms(sf_dir: str) -> pd.DataFrame:
    """ES rare_terms aggregation: long-tail attribute values of the match
    set (doc_count ≤ 2), count-ascending."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.rare_terms_agg(
        index_query.IndexReader(root), RARE_TERMS_QUERY,
        field="source", max_doc_count=2, mode="or",
    )


def _bool_query(sf_dir: str) -> pd.DataFrame:
    """Full ES bool query: must (required, scored) + should (optional,
    additive) + must_not (excluding) in one scorer."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_bool(
        index_query.IndexReader(root),
        must=BOOL_MUST, should=BOOL_SHOULD, must_not=BOOL_NOT, k=10,
    )


def _filters_agg(sf_dir: str) -> pd.DataFrame:
    """ES `filters` aggregation: named predicate buckets + _other_ over the
    match set (one unscored enumeration per segment, counters only)."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.filters_agg(
        index_query.IndexReader(root), BM25_QUERY_OR, AGG_FILTERS, mode="or"
    )


def _adjacency_matrix(sf_dir: str) -> pd.DataFrame:
    """ES `adjacency_matrix` aggregation: filter-pair intersection counts
    via one boolean GEMM per segment."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.adjacency_matrix(
        index_query.IndexReader(root), BM25_QUERY_OR, AGG_FILTERS, mode="or"
    )


COMPOSITE_SIZE = 8


PCTRANK_VALUES = [60.0, 90.0, 130.0]


def _multi_terms_agg(sf_dir: str) -> pd.DataFrame:
    """ES multi_terms: top compound (source, lang) buckets by count."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.multi_terms_agg(
        index_query.IndexReader(root), BM25_QUERY_OR,
        fields=("source", "lang"), size=10, mode="or",
    )


def _percentile_ranks(sf_dir: str) -> pd.DataFrame:
    """ES percentile_ranks: inverse percentiles of match-set doc lengths."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.percentile_ranks_agg(
        index_query.IndexReader(root), BM25_QUERY_OR, PCTRANK_VALUES,
        mode="or",
    )


def _composite_agg(sf_dir: str) -> pd.DataFrame:
    """ES `composite` aggregation page 2: the after-cursor comes from page
    1's last (source, lang) key ≡ OFFSET size of the ascending bucket
    order, which is exactly what the oracle computes."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    r = index_query.IndexReader(root)
    p1 = _extras.composite_agg(
        r, BM25_QUERY_OR, sources=("source", "lang"),
        size=COMPOSITE_SIZE, mode="or",
    )
    after = (str(p1["source"].iloc[-1]), str(p1["lang"].iloc[-1]))
    return _extras.composite_agg(
        r, BM25_QUERY_OR, sources=("source", "lang"),
        size=COMPOSITE_SIZE, after=after, mode="or",
    )


def _fuzzy_search(sf_dir: str) -> pd.DataFrame:
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    out = _extras.fuzzy_search(index_query.IndexReader(root), FUZZY_QUERY, k=10)
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


PERC_QUERIES = [
    (1, "spark window"),
    (2, "part filter scan"),
    (3, "dup batch"),
    (4, "customer query"),
    (5, "zzznope spark"),  # unsatisfiable: term absent from the corpus
]


def _percolate(sf_dir: str) -> pd.DataFrame:
    """Reverse search: stream the documents table against the stored query
    set (broadcast small side, one map_batches pass, no shuffle)."""
    import ray.data as rd

    from harvester_ray.ops import percolate as _perc

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return _perc.percolate(ds, PERC_QUERIES)


def _explain_score(sf_dir: str) -> pd.DataFrame:
    """Per-term BM25 score breakdown (ES _explain) for the top-1 AND hit."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.explain(index_query.IndexReader(root), BM25_QUERY_AND)


def _quality_scores(sf_dir: str) -> pd.DataFrame:
    """Linear hashed-feature quality classifier (fastText-style filter):
    weight table built once per actor, exact-integer scores."""
    import ray.data as rd

    from harvester_ray.ops import quality_model as _qm

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return _qm.quality_scores(ds, salt=97, concurrency=4)


def _federated_search(sf_dir: str) -> pd.DataFrame:
    """Federated BM25 across two disjoint half-corpus indexes with exact
    combined global stats — score-identical to one union index, which is
    exactly what the whole-table oracle asserts."""
    import pyarrow.compute as _pc
    import ray.data as rd

    from harvester_ray.index import federated as _fed
    from harvester_ray.index import manifest as mf

    tag = os.path.basename(os.path.normpath(sf_dir))
    docs = os.path.join(sf_dir, "documents.parquet")
    roots = []
    for half in (0, 1):
        root = os.path.join(_SCRATCH, f"fedidx-{tag}-{half}")
        if mf.current_version(root) is None:
            ds = rd.read_parquet(docs, columns=["doc_id", "text"]).map_batches(
                lambda t, h=half: t.filter(
                    _pc.equal(_pc.bit_wise_and(t["doc_id"], 1), h)
                ),
                batch_format="pyarrow",
            )
            index_build.build_index(ds, root, input_desc=f"{docs}#half{half}")
        roots.append(root)
    out = _fed.FederatedReader(roots).search(BM25_QUERY_AND, k=10, mode="and").to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


WILDCARD_PATTERN = "*art*"


def _wildcard(sf_dir: str) -> pd.DataFrame:
    """Infix wildcard search (*art*): vectorized dictionary match_like
    expansion capped at 50 terms, scored as a disjunction."""
    root = _documents_index(sf_dir)
    out = index_query.IndexReader(root).search_wildcard(WILDCARD_PATTERN, k=10).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


REGEXP_PATTERN = "s.*k|wind.w"  # RE2, fully anchored per Lucene regexp rules
MATCH_FUZZY_QUERY = "spork windov"  # both tokens one edit off the vocabulary


def _match_fuzzy(sf_dir: str) -> pd.DataFrame:
    """Multi-token fuzzy match (ES match + fuzziness): per-token edit
    expansion, union capped at 50, OR-scored with per-term idf."""
    from harvester_ray.index import extras as _extras

    return _extras.match_fuzzy(
        index_query.IndexReader(_documents_index(sf_dir)), MATCH_FUZZY_QUERY, k=10
    )


def _regexp_search(sf_dir: str) -> pd.DataFrame:
    """ES regexp query: anchored RE2 dictionary expansion, OR-scored."""
    root = _documents_index(sf_dir)
    out = index_query.IndexReader(root).search_regexp(REGEXP_PATTERN, k=10).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _search_random(sf_dir: str) -> pd.DataFrame:
    """Seeded random sampling of AND-matches (function_score random_score)."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_random(
        index_query.IndexReader(root), BM25_QUERY_AND, seed=7, k=10, mode="and"
    )


def _rescore(sf_dir: str) -> pd.DataFrame:
    """Two-phase ranking: BM25-OR top-window + 2× proximity boost re-rank."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.rescore(
        index_query.IndexReader(root), PHRASE_QUERY, window=25, k=10, slop=PROX_SLOP
    )


def _significant_terms(sf_dir: str) -> pd.DataFrame:
    """ES significant_terms: exact-integer foreground-vs-corpus df shares."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.significant_terms(
        index_query.IndexReader(root), BM25_QUERY_AND, n=20, mode="and"
    )


def _search_collapse(sf_dir: str) -> pd.DataFrame:
    """Field-collapsed top-k (ES collapse): one best hit per source."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_collapse(
        index_query.IndexReader(root), BM25_QUERY_OR, field="source", k=10, mode="or"
    )


def _bm25_brute(sf_dir: str, q: str, mode: str, k: int = 10) -> pd.DataFrame:
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    out = index_query.brute_force_topk(ds, q, k=k, mode=mode).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _doc_stats(sf_dir: str) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray import analyzer

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        dl = analyzer.doc_token_counts(analyzer.normalize_text(t["text"]))
        return pa.table(
            {"doc_id": t["doc_id"].combine_chunks().cast(pa.int64()), "dl": pa.array(dl, pa.int64())}
        )

    return ds.map_batches(stats, batch_format="pyarrow").to_pandas().sort_values("doc_id").reset_index(drop=True)


def _corpus_stats(sf_dir: str) -> pd.DataFrame:
    root = _documents_index(sf_dir)
    from harvester_ray.index import manifest as mf

    man = mf.read_manifest(root)
    # derive avgdl from the integer pair so the float64 division input is
    # bit-identical to the oracle's (see oracle.corpus_stats_sql)
    return pd.DataFrame(
        {
            "n_docs": [int(man["n_docs"])],
            "dl_sum": [int(man["dl_sum"])],
            "avgdl": [round(float(man["dl_sum"]) / float(man["n_docs"]), 6)],
        }
    )


def _term_df_top50(sf_dir: str) -> pd.DataFrame:
    import pyarrow.dataset as pads

    root = _documents_index(sf_dir)
    from harvester_ray.index import manifest as mf

    man = mf.read_manifest(root)
    ts = pads.dataset(os.path.join(root, man["termstats"])).to_table().to_pandas()
    ts = ts.sort_values(["df", "term"], ascending=[False, True], kind="mergesort").head(50)
    return ts[["term", "df", "cf"]].reset_index(drop=True)


def _index_stats(sf_dir: str) -> pd.DataFrame:
    """Index-level integrity counters (_cat/indices analog + the set-level
    count reporting of core/logging.py:90-133): corpus size, vocabulary
    size, postings count, token count — all read from the index's own
    termstats/manifest, verified against recomputation from the raw text."""
    import pyarrow.dataset as pads

    root = _documents_index(sf_dir)
    from harvester_ray.index import manifest as mf

    man = mf.read_manifest(root)
    ts = pads.dataset(os.path.join(root, man["termstats"])).to_table()
    return pd.DataFrame(
        {
            "n_docs": [int(man["n_docs"])],
            "n_terms": [int(ts.num_rows)],
            "n_postings": [int(pd.Series(ts["df"].to_numpy(zero_copy_only=False)).sum())],
            "n_tokens": [int(pd.Series(ts["cf"].to_numpy(zero_copy_only=False)).sum())],
        }
    )


def _sliding_window(sf_dir: str) -> pd.DataFrame:
    import ray.data as rd

    from harvester_ray.pipelines import windows

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "value"])
    out = windows.sliding_window_counts(ds).to_pandas()
    out["sum_value"] = out["sum_value"].round(4)
    return out.sort_values(["user_id", "window_start"]).reset_index(drop=True)


def _session_windows(sf_dir: str) -> pd.DataFrame:
    import ray.data as rd

    from harvester_ray.pipelines import windows

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_id", "ts"])
    return windows.session_windows(ds).to_pandas().sort_values(
        ["user_id", "session_start"]
    ).reset_index(drop=True)


def _bm25_filtered(sf_dir: str) -> pd.DataFrame:
    """Filtered search: facet filters restrict matches without changing
    scoring stats (filter-context parity, search/views/document.py:70-94)."""
    root = _documents_index(sf_dir)
    out = (
        index_query.IndexReader(root)
        .search(BM25_QUERY_AND, k=10, mode="and", filters={"source": ["src0", "src1", "src2"]})
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _term_df_shuffle(sf_dir: str) -> pd.DataFrame:
    """Term stats via the explicit salted groupby-aggregate shuffle path
    (north_rule skew mechanism; see harvester_ray/index/stats.py)."""
    from harvester_ray.index import stats

    out = stats.term_stats_shuffle(_docs_ds(sf_dir), hot_threshold=50).to_pandas()
    out = out.sort_values(["df", "term"], ascending=[False, True], kind="mergesort").head(50)
    return out[["term", "df", "cf"]].reset_index(drop=True)


def _transcript_files() -> list[str]:
    """Sorted shard list of the transcript fixture (sorted-path gates)."""
    d = _transcripts_dir()
    return sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )


def _transcripts_dir() -> str:
    """Deterministic tiny transcript corpus (FIXTURES.md §1) shared by every
    transcript-family gate entry AND its oracle: oracle_sql() calls this too,
    so the Parquet the SQL reads always exists (generation is pure pyarrow —
    no Ray needed)."""
    return synth.transcripts_parquet(_SCRATCH, n_convs=200, seed=42, shards=4)


def _transcript_bm25(sf_dir: str) -> pd.DataFrame:
    """Flagship transcript path. Value-checked: the oracle reproduces the
    corpus doc ids in SQL (conv_base prefix-sum over conv_id order +
    turn_idx — corpus.assign_doc_ids) and BM25-scores the same Parquet."""
    data_dir = _transcripts_dir()
    root = os.path.join(_SCRATCH, "transcript-index")
    from harvester_ray.index import manifest as mf

    if mf.current_version(root) is None:
        flagship.build_transcript_index(data_dir, root)
    out = flagship.search_transcripts(root, "gaji hopotenu", k=10).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _conv_bm25(sf_dir: str) -> pd.DataFrame:
    """Conversation-granularity retrieval: flatten each conversation to one
    role-prefixed document (streaming, assembled text never on the driver),
    index it, BM25-search it. doc_id = conversation rank in sorted conv_id
    order; the oracle reproduces both the flattening and the ranks in SQL."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus
    from harvester_ray.index import manifest as mf

    data_dir = _transcripts_dir()
    root = os.path.join(_SCRATCH, "conv-index")
    if mf.current_version(root) is None:
        paths = sorted(
            os.path.join(data_dir, f)
            for f in os.listdir(data_dir)
            if f.endswith(".parquet")
        )
        counts = _corpus.conv_counts_from_files(paths)
        ds = rd.read_parquet(data_dir, columns=["conv_id", "turn_idx", "role", "text"])
        flat = _transcripts_mod.flatten_text_ds(
            ds, counts["conv_id"].to_numpy(dtype=np.str_)
        )
        index_build.build_index(flat, root, input_desc=data_dir)
    out = (
        index_query.IndexReader(root)
        .search(CONV_QUERY, k=10, mode="or")
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


HAS_CHILD_QUERY = "lifugife tevawahu"  # mid-df: ~58 convs each, multi-turn hits


def _conv_has_child(sf_dir: str) -> pd.DataFrame:
    """Parent-child retrieval (ES has_child, score_mode=sum): BM25 over the
    TURN-level index, conversations ranked by the integer-quantized sum of
    their matching turns' scores. The parent key rides as an attribute
    column, so the same turn index answers both granularities."""
    from harvester_ray.index import extras as _extras

    return _extras.search_parents(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        parent_field="conv_id", k=10, mode="or", score_mode="sum",
    )


def _has_parent(sf_dir: str) -> pd.DataFrame:
    """ES has_parent (score=true), the dual of has_child: turns scored by
    their conversation's has_child-sum relevance — every turn of the
    conversations about X."""
    from harvester_ray.index import extras as _extras

    return _extras.search_has_parent(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        parent_field="conv_id", k=10, mode="or",
    )


def _turnattr_index() -> str:
    """Turn-level index with (conv_id, ts) attribute columns — shared by
    the parent-child and date-histogram gates."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus
    from harvester_ray.index import manifest as mf

    data_dir = _transcripts_dir()
    root = os.path.join(_SCRATCH, "turnattr3-index")
    if mf.current_version(root) is None:
        paths = sorted(
            os.path.join(data_dir, f)
            for f in os.listdir(data_dir)
            if f.endswith(".parquet")
        )
        ds = rd.read_parquet(
            data_dir, columns=["conv_id", "turn_idx", "text", "ts", "tool"]
        )
        ds = _corpus.assign_doc_ids(ds, counts=_corpus.conv_counts_from_files(paths))
        index_build.build_index(
            ds, root, input_desc=data_dir, attr_cols=["conv_id", "ts", "tool"]
        )
    return root


RANGE_GTE = "2023-11-16 00:00:00"
RANGE_LT = "2023-11-20 00:00:00"


def _bm25_range(sf_dir: str) -> pd.DataFrame:
    """Range query in filter context (ES ``range`` on a date field): BM25
    ranking restricted to turns inside [gte, lt); scoring stats unchanged
    (filter-context parity, like bm25_filtered)."""
    import pandas as pd_

    out = (
        index_query.IndexReader(_turnattr_index())
        .search(
            HAS_CHILD_QUERY, k=10, mode="or",
            filters={"ts": {
                "gte": pd_.Timestamp(RANGE_GTE), "lt": pd_.Timestamp(RANGE_LT),
            }},
        )
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


RECENCY_ORIGIN_US = 1_700_438_400_000_000  # 2023-11-20 00:00:00 UTC in µs
FSCORE_SCALE_US = 12 * 3_600_000_000  # gauss decay scale: 12h


def _function_score(sf_dir: str) -> pd.DataFrame:
    """ES function_score, gauss decay × BM25 (boost_mode multiply): one
    mirrored exp(ln(decay)·m·m) expression, exhaustive OR path."""
    from harvester_ray.index import extras as _extras

    return _extras.search_function_score(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        origin_us=RECENCY_ORIGIN_US, scale_us=FSCORE_SCALE_US, decay=0.5,
        ts_field="ts", k=10,
    )


def _recency_boost(sf_dir: str) -> pd.DataFrame:
    """Lucene distance_feature date boost (the reference's recency ranking,
    core/models/search/query.py:90-98): BM25 sum + boost·pivot/(pivot+|Δt|)
    from the ts attribute column, added after the exhaustive OR scorer."""
    out = (
        index_query.IndexReader(_turnattr_index())
        .search(
            HAS_CHILD_QUERY, k=10, mode="or",
            recency={"ts_col": "ts", "origin_us": RECENCY_ORIGIN_US},
        )
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


SPAN_FIRST_TERM = "spark"
SPAN_FIRST_END = 8


def _span_first(sf_dir: str) -> pd.DataFrame:
    """ES span_first: the term only counts within the first N token
    positions (leading-text match without a separate title field)."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_span_first(
        index_query.IndexReader(root), SPAN_FIRST_TERM, end=SPAN_FIRST_END, k=10
    )


PASSAGE_CHUNK, PASSAGE_STRIDE = 32, 16


def _chunk_index(sf_dir: str) -> str:
    """Passage-level index: overlapping token-window chunks as child docs
    (chunk id = doc_id·1024 + chunk_idx, parent attr = doc_id) — the third
    indexing granularity next to turn- and conversation-level."""
    import ray.data as rd

    from harvester_ray.index import manifest as mf
    from harvester_ray.ops import chunking as _chunking

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"chunkidx-{tag}")
    if mf.current_version(root) is None:
        chunks = _chunking.chunk_documents(
            _docs_ds(sf_dir), chunk_size=PASSAGE_CHUNK, stride=PASSAGE_STRIDE,
            collect=False,
        )

        def prep(t):
            import pyarrow as _pa

            did = np.asarray(t["doc_id"].combine_chunks().cast(_pa.int64()))
            cix = np.asarray(t["chunk_idx"].combine_chunks())
            assert cix.size == 0 or cix.max() < 1024
            return _pa.table({
                "doc_id": _pa.array(did * 1024 + cix, _pa.int64()),
                "text": t["chunk_text"],
                "parent": _pa.array(did, _pa.int64()),
            })

        ds2 = chunks.map_batches(prep, batch_format="pyarrow",
                                 zero_copy_batch=True)
        index_build.build_index(ds2, root, attr_cols=["parent"])
    return root


def _passage_bm25(sf_dir: str) -> pd.DataFrame:
    """Passage retrieval: BM25 over overlapping chunks, documents ranked by
    their best passage (has_child score_mode=max over the chunk index)."""
    from harvester_ray.index import extras as _extras

    return _extras.search_parents(
        index_query.IndexReader(_chunk_index(sf_dir)), BM25_QUERY_OR,
        parent_field="parent", k=10, mode="or", score_mode="max",
    )


CONTEXT_BUDGET = 600


def _export_search(sf_dir: str) -> pd.DataFrame:
    """Scroll-analog full-result export: every scored match lands in
    per-segment Parquet shards; the gate reads the shards back — the union
    must be value-identical to the exhaustive oracle ranking."""
    import glob as _glob
    import shutil

    from harvester_ray.index import extras as _extras

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_SCRATCH, f"search-export-{tag}")
    shutil.rmtree(out, ignore_errors=True)
    root = _documents_index(sf_dir)
    _extras.export_search(
        index_query.IndexReader(root), BM25_QUERY_OR, out, mode="or"
    )
    files = sorted(_glob.glob(os.path.join(out, "*.parquet")))
    df = pd.concat([pd.read_parquet(f) for f in files])
    return df.sort_values("doc_id").reset_index(drop=True)[["doc_id", "score"]]


def _assemble_context(sf_dir: str) -> pd.DataFrame:
    """RAG context assembly: ranked prefix of the BM25 top-k that fits the
    token budget (take-while over cumulative dl)."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.assemble_context(
        index_query.IndexReader(root), BM25_QUERY_OR,
        budget_tokens=CONTEXT_BUDGET, k_max=50, mode="or",
    )


QS_QUERY = '"part filter" window -dup b*'


PERC_QS_QUERIES = [
    (1, '"part filter" window'),
    (2, "big -dup"),
    (3, "sor* customer"),
    (4, '"spark window" -the'),
    (5, "zzznope spark"),       # unsatisfiable bare term
    (6, "-dup"),                # negation-only: rejected at registration
]


def _percolate_qs(sf_dir: str) -> pd.DataFrame:
    """Percolation over the full query language: stored queries with
    phrases, negations and prefixes matched against the document stream
    in one map pass."""
    return _percolate_mod.percolate_qs(_docs_ds(sf_dir), PERC_QS_QUERIES)


def _query_string(sf_dir: str) -> pd.DataFrame:
    """Combined simple_query_string: quoted phrase + required bare term +
    negation + dictionary prefix expansion scored in one query — the
    reference's actual query-language surface end-to-end."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_query_string(
        index_query.IndexReader(root), QS_QUERY, k=10
    )


def _lang_routes(sf_dir: str) -> str:
    """Per-language index family (en/nl/unk + all) — the reference's one
    physical index per analyzer language."""
    import ray.data as rd

    from harvester_ray.index import manifest as mf
    from harvester_ray.pipelines import multilingual

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"langroutes-{tag}")
    if mf.current_version(os.path.join(root, "all")) is None:
        docs = os.path.join(sf_dir, "documents.parquet")
        ds = rd.read_parquet(docs, columns=["doc_id", "text", "lang"])
        multilingual.build_language_indexes(ds, root)
    return root


def _lang_routed_search(sf_dir: str) -> pd.DataFrame:
    """Language-routed BM25: the 'en' route scores with en-only df/avgdl
    statistics — exactly a fresh build over the clamped-en subset."""
    from harvester_ray.pipelines import multilingual

    out = multilingual.search_language(
        _lang_routes(sf_dir), BM25_QUERY_OR, k=10, language="en", mode="or"
    ).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _delete_by_query(sf_dir: str) -> pd.DataFrame:
    """ES _delete_by_query end-to-end: copy the index, tombstone every
    'dup' match through the delta path, then BM25-search the survivors —
    value-identical to a fresh build over the filtered corpus, which is
    the strongest assertion the exact negative-correction machinery has."""
    import shutil

    from harvester_ray.index import extras as _extras

    tag = os.path.basename(os.path.normpath(sf_dir))
    src = _documents_index(sf_dir)
    dest = os.path.join(_SCRATCH, f"docidx-delq-{tag}")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(src, dest)
    _extras.delete_by_query(dest, RARE_TERMS_QUERY, mode="or")
    out = (
        index_query.IndexReader(dest)
        .search(BM25_QUERY_OR, k=10, mode="or")
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


UPDATE_SUFFIX = " zzflag"


def _update_by_query(sf_dir: str) -> pd.DataFrame:
    """ES _update_by_query end-to-end: copy the store_source index, append
    a marker token to every 'dup' match via the stored _source + upsert
    delta path, then BM25-search the marker — scores must equal a fresh
    oracle over the rewritten corpus (updated docs re-scored, avgdl moved,
    corrections exact)."""
    import shutil

    import pyarrow.compute as _pc

    from harvester_ray.index import extras as _extras

    tag = os.path.basename(os.path.normpath(sf_dir))
    src = _source_index(sf_dir)
    dest = os.path.join(_SCRATCH, f"docidx-updq-{tag}")
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(src, dest)
    _extras.update_by_query(
        dest, RARE_TERMS_QUERY,
        lambda arr: _pc.binary_join_element_wise(arr, UPDATE_SUFFIX, ""),
        mode="or",
    )
    out = (
        index_query.IndexReader(dest)
        .search("zzflag", k=10, mode="or")
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _source_index(sf_dir: str) -> str:
    """Shared store_source copy of the documents index (reindex +
    update_by_query fixtures)."""
    import ray.data as rd

    from harvester_ray.index import manifest as mf

    tag = os.path.basename(os.path.normpath(sf_dir))
    src = os.path.join(_SCRATCH, f"docidx-src-{tag}")
    docs = os.path.join(sf_dir, "documents.parquet")
    if mf.current_version(src) is None:
        ds = rd.read_parquet(docs, columns=["doc_id", "text", "source", "lang"])
        index_build.build_index(
            ds, src, input_desc=docs, attr_cols=["source", "lang"],
            store_source=True,
        )
    return src


def _reindex_dest(sf_dir: str) -> str:
    """Reindex fixture: ES _reindex of the store_source index into a
    lang='en'-only destination (from the stored _source alone — the raw
    parquet is never re-read)."""
    from harvester_ray.index import manifest as mf
    from harvester_ray.index import reindex as _reindex_mod

    tag = os.path.basename(os.path.normpath(sf_dir))
    dest = os.path.join(_SCRATCH, f"docidx-reindexed-{tag}")
    if mf.current_version(dest) is None:
        _reindex_mod.reindex(_source_index(sf_dir), dest, filters={"lang": ["en"]})
    return dest


def _reindex_search(sf_dir: str) -> pd.DataFrame:
    """BM25 over the reindexed (lang='en') destination: scoring stats are
    those of the filtered corpus, proving the rebuild is self-contained."""
    out = (
        index_query.IndexReader(_reindex_dest(sf_dir))
        .search(BM25_QUERY_OR, k=10, mode="or")
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


PINNED_IDS = [7, 3, 123]  # 3 doesn't need to match — ES pins unconditionally


def _pinned_query(sf_dir: str) -> pd.DataFrame:
    """ES pinned query: curated ids first in curator order, then organic
    matches with pinned ids removed."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_pinned(
        index_query.IndexReader(root), BM25_QUERY_OR, PINNED_IDS, k=10, mode="or"
    )


def _exists_filter(sf_dir: str) -> pd.DataFrame:
    """ES constant_score over an exists filter: turns that made a tool call
    all score exactly boost, ordered by doc id."""
    from harvester_ray.index import extras as _extras

    return _extras.search_exists(
        index_query.IndexReader(_turnattr_index()), "tool", boost=1.0, k=10
    )


INTERVALS_QUERY = "spark window data"  # ordered, shared max_gaps budget
INTERVALS_MAX_GAPS = 3


def _intervals(sf_dir: str) -> pd.DataFrame:
    """ES intervals all_of(ordered, max_gaps): tokens in order with at most
    max_gaps fillers inside the whole interval."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_intervals(
        index_query.IndexReader(root), INTERVALS_QUERY,
        max_gaps=INTERVALS_MAX_GAPS, k=10,
    )


SPAN_OR_TERMS = "dup batch stream"  # union scored as ONE pseudo-term
SPAN_CONT_BIG = ("spark", "window")  # ordered window, slop tokens apart
SPAN_CONT_LITTLE = "data"
SPAN_CONT_SLOP = 4


def _span_multi(sf_dir: str) -> pd.DataFrame:
    """ES span_multi over a prefix: dictionary expansion (capped, term
    order) scored as ONE span source (span_or semantics)."""
    from harvester_ray.index import extras as _extras

    return _extras.search_span_multi(
        index_query.IndexReader(_documents_index(sf_dir)), BM25_PREFIX, k=10
    )


def _span_or(sf_dir: str) -> pd.DataFrame:
    """ES span_or: clause-term union scored as ONE pseudo-term (total
    occurrences, shared df) — not the per-term-idf bool disjunction."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_span_or(
        index_query.IndexReader(root), SPAN_OR_TERMS, k=10
    )


def _span_containing(sf_dir: str) -> pd.DataFrame:
    """ES span_containing: ordered (spark..window) slop-4 spans that
    enclose a 'data' occurrence; tf = qualifying spans per doc."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_span_containing(
        index_query.IndexReader(root), SPAN_CONT_BIG, SPAN_CONT_LITTLE,
        slop=SPAN_CONT_SLOP, mode="containing", k=10,
    )


def _span_within(sf_dir: str) -> pd.DataFrame:
    """ES span_within: 'data' occurrences enclosed by an ordered
    (spark..window) slop-4 span; tf = enclosed occurrences per doc."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_span_containing(
        index_query.IndexReader(root), SPAN_CONT_BIG, SPAN_CONT_LITTLE,
        slop=SPAN_CONT_SLOP, mode="within", k=10,
    )


BOOL_PREFIX_QUERY = "dup s"  # rare lead 'dup' OR 's*' expansions, no adjacency
# rare 'dup' + common terms: high-scoring single-term matches exist whose
# per-doc req (2-3) excludes them — top-10 provably differs from plain OR
TERMS_SET_TERMS = ["dup", "spark", "window"]


DSL_QUERY = {
    "bool": {
        "must": [{"match": {"text": "table scan"}}],
        "must_not": [{"match": {"text": "dup"}}],
        "filter": {"terms": {"source": ["src0", "src1", "src2"]}},
    }
}


def _search_request(sf_dir: str) -> pd.DataFrame:
    """ES _search envelope end-to-end: query DSL + from/size pagination
    through index/api.py; hits page 2 (from=5, size=5) as a frame."""
    from harvester_ray.index import api as _api

    root = _documents_index(sf_dir)
    resp = _api.search_request(
        index_query.IndexReader(root),
        {"query": {"match": {"text": BM25_QUERY_OR}}, "from": 5, "size": 5},
    )
    return pd.DataFrame(
        [(h["_id"], h["_score"]) for h in resp["hits"]["hits"]],
        columns=["doc_id", "score"],
    )


def _dsl_query(sf_dir: str) -> pd.DataFrame:
    """ES JSON query-DSL dispatcher end-to-end: a compound bool (must +
    must_not + terms filter) routed through index/dsl.py onto the native
    scorer — the reference's OpenSearch request surface."""
    from harvester_ray.index import dsl as _dsl

    root = _documents_index(sf_dir)
    return _dsl.execute_dsl(index_query.IndexReader(root), DSL_QUERY, k=10)


def _match_bool_prefix(sf_dir: str) -> pd.DataFrame:
    """ES match_bool_prefix (search-as-you-type, unordered): fixed lead
    terms + capped dictionary expansions of the last token in one
    disjunction — no adjacency, unlike match_phrase_prefix."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_match_bool_prefix(
        index_query.IndexReader(root), BOOL_PREFIX_QUERY, k=10
    )


def _terms_set(sf_dir: str) -> pd.DataFrame:
    """ES terms_set with minimum_should_match_field: each doc's required
    match count is read from its stored `req` attribute (1..3 derived from
    n_chars) — the per-doc generalization of global min_should_match."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_terms_set(
        index_query.IndexReader(root), TERMS_SET_TERMS, min_field="req", k=10
    )


PHRASE_PREFIX_QUERY = "part s"  # lead 'part' + 's*': stream/slow/scan/sort all live
TS_BASE_S = 1_698_796_800  # 2023-11-01 00:00:00 UTC — keeps ts ints small


def _match_phrase_prefix(sf_dir: str) -> pd.DataFrame:
    """ES match_phrase_prefix (search-as-you-type): adjacency chain with
    the last position drawn from the prefix's dictionary expansions."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_match_phrase_prefix(
        index_query.IndexReader(root), PHRASE_PREFIX_QUERY, k=10
    )


SPAN_NOT_INC, SPAN_NOT_EXC, SPAN_NOT_DIST = "spark", "window", 3


def _span_not(sf_dir: str) -> pd.DataFrame:
    """ES span_not: 'spark' occurrences not within 3 positions of 'window'
    — the exclusion-window sibling of span_near."""
    from harvester_ray.index import extras as _extras

    root = _documents_index(sf_dir)
    return _extras.search_span_not(
        index_query.IndexReader(root), SPAN_NOT_INC, SPAN_NOT_EXC,
        distance=SPAN_NOT_DIST, k=10,
    )


def _matrix_stats(sf_dir: str) -> pd.DataFrame:
    """ES matrix_stats aggregation over the match set: exact integer
    sufficient statistics between doc length and the ts attribute."""
    from harvester_ray.index import extras as _extras

    return _extras.matrix_stats(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        ts_field="ts", ts_base_s=TS_BASE_S, mode="or",
    )


def _histogram_pipeline(sf_dir: str) -> pd.DataFrame:
    """ES pipeline aggs (cumulative_sum + derivative) over the hourly
    date_histogram of matching turns."""
    from harvester_ray.index import extras as _extras

    return _extras.histogram_pipeline(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        ts_field="ts", interval_us=3_600_000_000, mode="or",
    )


def _date_histogram(sf_dir: str) -> pd.DataFrame:
    """ES date_histogram over the match set: hourly buckets of matching
    turns from the ts attribute column."""
    return index_query.IndexReader(_turnattr_index()).date_histogram(
        HAS_CHILD_QUERY, ts_field="ts", interval_us=3_600_000_000, mode="or",
    )


def _moving_percentiles(sf_dir: str) -> pd.DataFrame:
    """ES moving_percentiles (exact window quantile_cont over integer
    bucket counts) — trailing window 3, median."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.moving_percentiles(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        window=3, q=0.5, ts_field="ts", mode="or",
    )


def _extended_stats_bucket(sf_dir: str) -> pd.DataFrame:
    """ES extended_stats_bucket: variance/σ of the hourly bucket counts
    (HUGEINT numerator, mirrored derivations)."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.extended_stats_bucket(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        ts_field="ts", mode="or",
    )


def _bucket_script(sf_dir: str) -> pd.DataFrame:
    """ES bucket_script: derived per-bucket ratio (tool-call share) from
    two sibling metrics of the hourly histogram."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.bucket_script(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        tool_field="tool", ts_field="ts", mode="or",
    )


def _bucket_selector(sf_dir: str) -> pd.DataFrame:
    """ES bucket_selector: integer predicate over sibling bucket metrics
    (busy hours with at least a 1/4 tool-call share)."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.bucket_selector(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        tool_field="tool", ts_field="ts", mode="or",
    )


def _percentiles_bucket(sf_dir: str) -> pd.DataFrame:
    """ES percentiles_bucket: quartiles of the hourly histogram's bucket
    counts (dyadic-exact quantile_cont)."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.percentiles_bucket(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        ts_field="ts", mode="or",
    )


def _rate_agg(sf_dir: str) -> pd.DataFrame:
    """ES rate agg: hourly histogram normalized to per-minute event rates
    (gcd-reduced exact fixed-point quotient)."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.rate_agg(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        ts_field="ts", mode="or",
    )


def _normalize_agg(sf_dir: str) -> pd.DataFrame:
    """ES normalize (percent_of_sum) over the hourly histogram; exact
    fixed-point percentages."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.normalize_agg(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        ts_field="ts", mode="or",
    )


def _moving_fn(sf_dir: str) -> pd.DataFrame:
    """ES moving_fn (unweighted trailing avg, window 3) over the hourly
    histogram; half-away fixed-point quotient on both sides."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.moving_fn(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        window=3, ts_field="ts", mode="or",
    )


def _serial_diff(sf_dir: str) -> pd.DataFrame:
    """ES serial_diff (lag 2) over the hourly histogram; integer-exact."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.serial_diff(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        lag=2, ts_field="ts", mode="or",
    )


def _bucket_sort_agg(sf_dir: str) -> pd.DataFrame:
    """ES bucket_selector + bucket_sort: hourly buckets with >=2 matches,
    top 5 by count."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.bucket_sort(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        min_count=2, size=5, ts_field="ts", mode="or",
    )


def _cumulative_cardinality(sf_dir: str) -> pd.DataFrame:
    """ES cumulative_cardinality (exact): distinct conversations seen up to
    each hourly bucket of the match set."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.cumulative_cardinality(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        field="conv_id", ts_field="ts", mode="or",
    )


def _weighted_avg(sf_dir: str) -> pd.DataFrame:
    """ES weighted_avg metric agg: doc length weighted by UTC hour + 1,
    HUGEINT-exact quotient."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.weighted_avg(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        ts_field="ts", mode="or",
    )


def _top_metrics(sf_dir: str) -> pd.DataFrame:
    """ES top_metrics under a terms agg: per tool value the (ts, doc_id)
    of the longest matching turn."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.top_metrics(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        group="tool", ts_field="ts", mode="or",
    )


def _diversified_sampler(sf_dir: str) -> pd.DataFrame:
    """ES diversified_sampler: BM25 top-10 with at most one turn per
    conversation (1e-4 fixed-point ranking on both sides)."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.diversified_sampler(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        field="conv_id", max_per=1, k=10, mode="or",
    )


def _auto_date_histogram(sf_dir: str) -> pd.DataFrame:
    """ES auto_date_histogram: ladder-chosen interval (<=24 buckets) over
    the match set, interval choice surfaced in the output."""
    from harvester_ray.index import pipeline_aggs as _pa

    return _pa.auto_date_histogram(
        index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
        target_buckets=24, ts_field="ts", mode="or",
    )


def _tds(sf_dir: str):
    """Transcript corpus as a Dataset (fixed-scale synthetic input — the
    north-rule transcript shape is not among the driver's sf tables)."""
    import ray.data as rd

    return rd.read_parquet(_transcripts_dir())


def _conv_neardup(sf_dir: str) -> pd.DataFrame:
    """Conversation near-dup detection with PLANTED duplicates: every 10th
    conversation (rank order) is re-added under ``<conv_id>~d`` with its
    last turn dropped — a truncated re-crawl of the same dialogue — then
    the flattened corpus goes through MinHash-LSH + distributed Jaccard
    verification. The oracle reproduces the planting, flattening and exact
    all-pairs Jaccard in SQL."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus

    data_dir = _transcripts_dir()
    paths = sorted(
        os.path.join(data_dir, f)
        for f in os.listdir(data_dir)
        if f.endswith(".parquet")
    )
    counts = _corpus.conv_counts_from_files(paths)
    convs = counts["conv_id"].to_numpy(dtype=np.str_)  # sorted
    ns = counts["n"].to_numpy(dtype=np.int64)
    sel, sel_n = convs[::10], ns[::10]
    keep = sel_n > 1  # a 1-turn conversation truncates to nothing
    sel, sel_n = sel[keep], sel_n[keep]

    def dup_rows(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["conv_id"].to_numpy(dtype=np.str_)
        idx = np.searchsorted(sel, cid)
        np.clip(idx, 0, max(len(sel) - 1, 0), out=idx)
        hit = (len(sel) > 0) & (sel[idx] == cid)
        hit &= df["turn_idx"].to_numpy() < sel_n[idx] - 1
        out = df.loc[hit].copy()
        out["conv_id"] = out["conv_id"] + "~d"
        return out

    cols = ["conv_id", "turn_idx", "role", "text"]
    base = rd.read_parquet(data_dir, columns=cols)
    dups = rd.read_parquet(data_dir, columns=cols).map_batches(
        dup_rows, batch_format="pandas"
    )
    union_convs = np.sort(np.concatenate([convs, np.char.add(sel, "~d")]))
    flat = _transcripts_mod.flatten_text_ds(base.union(dups), union_convs)
    out = dedup.near_dup_minhash(flat, threshold=0.5)
    return out.to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _best_of_n(sf_dir: str) -> pd.DataFrame:
    """Best-of-n rejection-sampling selection over the same planted ``~r``
    retries as conv_branches: each prefix group keeps its longest
    conversation (the 2-turn retry always loses to its original unless the
    original itself has 2 turns, where the lexicographic tie-break keeps
    the original id). Singleton groups select themselves, so the output is
    the full curated selection."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus

    data_dir = _transcripts_dir()
    paths = sorted(
        os.path.join(data_dir, f)
        for f in os.listdir(data_dir)
        if f.endswith(".parquet")
    )
    sel = _corpus.conv_counts_from_files(paths)["conv_id"].to_numpy(dtype=np.str_)[::10]

    def retry_rows(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["conv_id"].to_numpy(dtype=np.str_)
        idx = np.searchsorted(sel, cid)
        np.clip(idx, 0, max(len(sel) - 1, 0), out=idx)
        hit = (len(sel) > 0) & (sel[idx] == cid)
        hit &= df["turn_idx"].to_numpy() < 2
        out = df.loc[hit].copy()
        out["conv_id"] = out["conv_id"] + "~r"
        return out

    cols = ["conv_id", "turn_idx", "role", "text"]
    base = rd.read_parquet(data_dir, columns=cols)
    retries = rd.read_parquet(data_dir, columns=cols).map_batches(
        retry_rows, batch_format="pandas"
    )
    return _transcripts_mod.best_of_n(base.union(retries), k=2)


def _best_of_n_sql() -> str:
    """Same retry-planting head as conv_branches, best-of-n selection body."""
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    head = (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, text FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, row_number() OVER (ORDER BY conv_id) - 1 AS r "
        "FROM (SELECT DISTINCT conv_id FROM tsrc)), "
        "ret AS (SELECT t.conv_id || '~r' AS conv_id, t.turn_idx, t.role, t.text "
        "FROM tsrc t JOIN cids c USING (conv_id) WHERE c.r % 10 = 0 AND t.turn_idx < 2), "
        "uni AS (SELECT * FROM tsrc UNION ALL SELECT * FROM ret)"
    )
    body = _transcripts_mod.best_of_n_sql("uni", k=2)
    assert body.startswith("WITH ")
    return head + ", " + body[len("WITH "):]


def _conv_skeletons(sf_dir: str) -> pd.DataFrame:
    """Opening-flow role templates (first 6 turns) shared by >= 2
    conversations — structure-level duplication the text ops miss; the
    skeleton partial fold is driver-side (template-bounded cardinality)."""
    return _transcripts_mod.conv_skeletons(_tds(sf_dir), k=6)


def _conv_skeletons_sql() -> str:
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    return _transcripts_mod.conv_skeletons_sql(f"read_parquet('{glob}')", k=6)


def _conv_branches(sf_dir: str) -> pd.DataFrame:
    """Retry/branch detection with PLANTED retries: every 10th conversation
    (rank order) is re-added as ``<conv_id>~r`` truncated to its first k=2
    turns — a resampled/abandoned retry sharing the opening exchange — then
    ``conv_branches`` groups identical first-k prefixes (two bucketed
    stages, one bounded row per conversation between them)."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus

    data_dir = _transcripts_dir()
    paths = sorted(
        os.path.join(data_dir, f)
        for f in os.listdir(data_dir)
        if f.endswith(".parquet")
    )
    sel = _corpus.conv_counts_from_files(paths)["conv_id"].to_numpy(dtype=np.str_)[::10]

    def retry_rows(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["conv_id"].to_numpy(dtype=np.str_)
        idx = np.searchsorted(sel, cid)
        np.clip(idx, 0, max(len(sel) - 1, 0), out=idx)
        hit = (len(sel) > 0) & (sel[idx] == cid)
        hit &= df["turn_idx"].to_numpy() < 2
        out = df.loc[hit].copy()
        out["conv_id"] = out["conv_id"] + "~r"
        return out

    cols = ["conv_id", "turn_idx", "role", "text"]
    base = rd.read_parquet(data_dir, columns=cols)
    retries = rd.read_parquet(data_dir, columns=cols).map_batches(
        retry_rows, batch_format="pandas"
    )
    return _transcripts_mod.conv_branches(base.union(retries), k=2)


def _system_prompt_reuse(sf_dir: str) -> pd.DataFrame:
    """Shared-opener detection over the same planted ``~r`` retries as
    conv_branches: every planted retry shares its original's first turn, so
    each yields one reused-fingerprint group."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus

    data_dir = _transcripts_dir()
    paths = sorted(
        os.path.join(data_dir, f)
        for f in os.listdir(data_dir)
        if f.endswith(".parquet")
    )
    sel = _corpus.conv_counts_from_files(paths)["conv_id"].to_numpy(dtype=np.str_)[::10]

    def retry_rows(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["conv_id"].to_numpy(dtype=np.str_)
        idx = np.searchsorted(sel, cid)
        np.clip(idx, 0, max(len(sel) - 1, 0), out=idx)
        hit = (len(sel) > 0) & (sel[idx] == cid)
        hit &= df["turn_idx"].to_numpy() < 2
        out = df.loc[hit].copy()
        out["conv_id"] = out["conv_id"] + "~r"
        return out

    cols = ["conv_id", "turn_idx", "role", "text"]
    base = rd.read_parquet(data_dir, columns=cols)
    retries = rd.read_parquet(data_dir, columns=cols).map_batches(
        retry_rows, batch_format="pandas"
    )
    return _transcripts_mod.system_prompt_reuse(base.union(retries))


def _system_prompt_reuse_sql() -> str:
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    head = (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, text FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, row_number() OVER (ORDER BY conv_id) - 1 AS r "
        "FROM (SELECT DISTINCT conv_id FROM tsrc)), "
        "ret AS (SELECT t.conv_id || '~r' AS conv_id, t.turn_idx, t.role, t.text "
        "FROM tsrc t JOIN cids c USING (conv_id) WHERE c.r % 10 = 0 AND t.turn_idx < 2), "
        "uni AS (SELECT * FROM tsrc UNION ALL SELECT * FROM ret)"
    )
    body = _transcripts_mod.system_prompt_reuse_sql("uni")
    assert body.startswith("WITH ")
    return head + ", " + body[len("WITH "):]


def _conv_template_dedup(sf_dir: str) -> pd.DataFrame:
    """Structural dedup over planted skeleton clones: every 10th
    conversation gets a ``~t`` clone with the IDENTICAL (role, tool)
    sequence (a true structural duplicate — group of 2) and a ``~u`` clone
    with the same roles but remapped tool names (NOT a duplicate under the
    tool-discriminating template; it only joins the group when the original
    calls no tools). conv_skeletons (role-only) would merge all three —
    the ~u head is the fixture-level degeneracy proof."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus

    data_dir = _transcripts_dir()
    paths = sorted(
        os.path.join(data_dir, f)
        for f in os.listdir(data_dir)
        if f.endswith(".parquet")
    )
    sel = _corpus.conv_counts_from_files(paths)["conv_id"].to_numpy(dtype=np.str_)[::10]

    def clones(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["conv_id"].to_numpy(dtype=np.str_)
        idx = np.searchsorted(sel, cid)
        np.clip(idx, 0, max(len(sel) - 1, 0), out=idx)
        hit = (len(sel) > 0) & (sel[idx] == cid)
        t = df.loc[hit].copy()
        t["conv_id"] = t["conv_id"] + "~t"
        u = df.loc[hit].copy()
        u["conv_id"] = u["conv_id"] + "~u"
        u["tool"] = np.where(u["tool"].isna(), None, "alt_" + u["tool"].astype(str))
        return pd.concat([t, u], ignore_index=True)

    cols = ["conv_id", "turn_idx", "role", "tool"]
    base = rd.read_parquet(data_dir, columns=cols)
    planted = rd.read_parquet(data_dir, columns=cols).map_batches(
        clones, batch_format="pandas"
    )
    return _transcripts_mod.conv_template_dedup(base.union(planted))


def _conv_template_dedup_sql() -> str:
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    head = (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, tool FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, row_number() OVER (ORDER BY conv_id) - 1 AS r "
        "FROM (SELECT DISTINCT conv_id FROM tsrc)), "
        "dupt AS (SELECT t.conv_id || '~t' AS conv_id, t.turn_idx, t.role, t.tool "
        "FROM tsrc t JOIN cids c USING (conv_id) WHERE c.r % 10 = 0), "
        "dupu AS (SELECT t.conv_id || '~u' AS conv_id, t.turn_idx, t.role, "
        "CASE WHEN t.tool IS NULL THEN NULL ELSE 'alt_' || t.tool END AS tool "
        "FROM tsrc t JOIN cids c USING (conv_id) WHERE c.r % 10 = 0), "
        "uni AS (SELECT * FROM tsrc UNION ALL SELECT * FROM dupt UNION ALL SELECT * FROM dupu)"
    )
    body = _transcripts_mod.conv_template_dedup_sql("uni")
    assert body.startswith("WITH ")
    return head + ", " + body[len("WITH "):]


def _preference_pairs(sf_dir: str) -> pd.DataFrame:
    """DPO pair mining over the same planted retries as conv_branches: the
    truncated ``~r`` branch loses to its full-length original, so every
    planted group yields exactly one (chosen=original, rejected=retry)
    pair."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus

    data_dir = _transcripts_dir()
    paths = sorted(
        os.path.join(data_dir, f)
        for f in os.listdir(data_dir)
        if f.endswith(".parquet")
    )
    sel = _corpus.conv_counts_from_files(paths)["conv_id"].to_numpy(dtype=np.str_)[::10]

    def retry_rows(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["conv_id"].to_numpy(dtype=np.str_)
        idx = np.searchsorted(sel, cid)
        np.clip(idx, 0, max(len(sel) - 1, 0), out=idx)
        hit = (len(sel) > 0) & (sel[idx] == cid)
        hit &= df["turn_idx"].to_numpy() < 2
        out = df.loc[hit].copy()
        out["conv_id"] = out["conv_id"] + "~r"
        return out

    cols = ["conv_id", "turn_idx", "role", "text"]
    base = rd.read_parquet(data_dir, columns=cols)
    retries = rd.read_parquet(data_dir, columns=cols).map_batches(
        retry_rows, batch_format="pandas"
    )
    return _transcripts_mod.preference_pairs(base.union(retries), k=2)


def _conv_continuations(sf_dir: str) -> pd.DataFrame:
    """Continuation stitching with PLANTED continuations: every 10th
    conversation X gets a clone ``X~c`` whose first turn replays X's last
    turn text — conv_continuations must recover exactly those links."""
    import ray.data as rd

    data_dir = _transcripts_dir()
    pdf = pd.read_parquet(data_dir, columns=["conv_id", "turn_idx", "role", "text"])
    pdf = pdf.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    last = pdf.groupby("conv_id", sort=True).tail(1)
    sel = last.iloc[::10]
    planted = pd.concat([
        pd.DataFrame({
            "conv_id": sel["conv_id"] + "~c",
            "turn_idx": 0, "role": "user", "text": sel["text"].to_numpy(),
        }),
        pd.DataFrame({
            "conv_id": sel["conv_id"] + "~c",
            "turn_idx": 1, "role": "assistant",
            "text": ("cont filler " + sel["conv_id"]).to_numpy(),
        }),
    ], ignore_index=True)
    planted["turn_idx"] = planted["turn_idx"].astype(pdf["turn_idx"].dtype)
    base = rd.read_parquet(data_dir, columns=["conv_id", "turn_idx", "role", "text"])
    return _transcripts_mod.conv_continuations(base.union(rd.from_pandas(planted)))


def _conv_continuations_sql() -> str:
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    head = (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, text FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, row_number() OVER (ORDER BY conv_id) - 1 AS r "
        "FROM (SELECT DISTINCT conv_id FROM tsrc)), "
        "lastt AS (SELECT conv_id, max_by(text, turn_idx) AS lt FROM tsrc GROUP BY conv_id), "
        "cont AS (SELECT l.conv_id || '~c' AS conv_id, 0 AS turn_idx, 'user' AS role, l.lt AS text "
        "FROM cids c JOIN lastt l USING (conv_id) WHERE c.r % 10 = 0 "
        "UNION ALL SELECT c.conv_id || '~c', 1, 'assistant', 'cont filler ' || c.conv_id "
        "FROM cids c WHERE c.r % 10 = 0), "
        "uni AS (SELECT * FROM tsrc UNION ALL SELECT * FROM cont)"
    )
    body = _transcripts_mod.conv_continuations_sql("uni")
    assert body.startswith("WITH ")
    return head + ", " + body[len("WITH "):]


def _preference_pairs_sql() -> str:
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    head = (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, text FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, row_number() OVER (ORDER BY conv_id) - 1 AS r "
        "FROM (SELECT DISTINCT conv_id FROM tsrc)), "
        "ret AS (SELECT t.conv_id || '~r' AS conv_id, t.turn_idx, t.role, t.text "
        "FROM tsrc t JOIN cids c USING (conv_id) WHERE c.r % 10 = 0 AND t.turn_idx < 2), "
        "uni AS (SELECT * FROM tsrc UNION ALL SELECT * FROM ret)"
    )
    body = _transcripts_mod.preference_pairs_sql("uni", k=2)
    assert body.startswith("WITH ")
    return head + ", " + body[len("WITH "):]


def _conv_branches_sql() -> str:
    """Planting CTEs + the conv_branches grouping over the union."""
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    head = (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, text FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, row_number() OVER (ORDER BY conv_id) - 1 AS r "
        "FROM (SELECT DISTINCT conv_id FROM tsrc)), "
        "ret AS (SELECT t.conv_id || '~r' AS conv_id, t.turn_idx, t.role, t.text "
        "FROM tsrc t JOIN cids c USING (conv_id) WHERE c.r % 10 = 0 AND t.turn_idx < 2), "
        "uni AS (SELECT * FROM tsrc UNION ALL SELECT * FROM ret)"
    )
    body = _transcripts_mod.conv_branches_sql("uni", k=2)
    assert body.startswith("WITH ")
    return head + ", " + body[len("WITH "):]


def _conv_neardup_sql_head() -> str:
    """CTE chain mirroring _conv_neardup's planting + flattening."""
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    return (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, text FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, count(*) AS n, "
        "row_number() OVER (ORDER BY conv_id) - 1 AS r FROM tsrc GROUP BY conv_id), "
        "dup AS (SELECT t.conv_id || '~d' AS conv_id, t.turn_idx, t.role, t.text "
        "FROM tsrc t JOIN cids c USING (conv_id) "
        "WHERE c.r % 10 = 0 AND t.turn_idx < c.n - 1), "
        "uni AS (SELECT * FROM tsrc UNION ALL SELECT * FROM dup), "
        "cflat AS (SELECT conv_id, string_agg(role || ': ' || text, chr(10) ORDER BY turn_idx) AS text "
        "FROM uni GROUP BY conv_id), "
        "cdoc AS (SELECT CAST(row_number() OVER (ORDER BY conv_id) - 1 AS BIGINT) AS doc_id, text FROM cflat)"
    )


def _transcript_doc_sql_head(glob: str) -> str:
    """CTE chain reproducing corpus.assign_doc_ids in SQL: doc_id =
    (exclusive prefix sum of per-conversation turn counts in conv_id order)
    + turn_idx."""
    return (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, text FROM read_parquet('{glob}')), "
        "tcnt AS (SELECT conv_id, count(*) AS n FROM tsrc GROUP BY conv_id), "
        "tbase AS (SELECT conv_id, CAST(sum(n) OVER (ORDER BY conv_id) - n AS BIGINT) AS base FROM tcnt), "
        "tdoc AS (SELECT CAST(b.base + s.turn_idx AS BIGINT) AS doc_id, s.text "
        "FROM tsrc s JOIN tbase b USING (conv_id))"
    )


def _transcript_docp_sql_head(glob: str) -> str:
    """Like _transcript_doc_sql_head but the doc table keeps the parent key
    (conv_id) — the has_child oracle groups by it."""
    return (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, text, ts, tool FROM read_parquet('{glob}')), "
        "tcnt AS (SELECT conv_id, count(*) AS n FROM tsrc GROUP BY conv_id), "
        "tbase AS (SELECT conv_id, CAST(sum(n) OVER (ORDER BY conv_id) - n AS BIGINT) AS base FROM tcnt), "
        "tdocp AS (SELECT CAST(b.base + s.turn_idx AS BIGINT) AS doc_id, s.text, s.conv_id, s.ts, s.tool "
        "FROM tsrc s JOIN tbase b USING (conv_id))"
    )


def _index_diff(sf_dir: str) -> pd.DataFrame:
    """Version-diff audit: apply a deterministic delta (update doc_id%7==0,
    delete doc_id%11==0 unless updated, append 20 new docs) and read the
    added/changed/removed rows back from the index's OWN structures
    (segment doc tables + created_version + tombstones — index/diff.py).
    The oracle derives the same rows from the delta rule alone."""
    import shutil

    import ray.data as rd

    from harvester_ray.index import diff as index_diff_mod
    from harvester_ray.index import incremental

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"diff-{tag}")
    shutil.rmtree(root, ignore_errors=True)
    docs = os.path.join(sf_dir, "documents.parquet")
    index_build.build_index(
        rd.read_parquet(docs, columns=["doc_id", "text"]), root, input_desc=docs
    )
    base = rd.read_parquet(docs, columns=["doc_id", "text"]).to_pandas()
    mx = int(base["doc_id"].max())
    changed = base[base["doc_id"] % 7 == 0].copy()
    changed["text"] = changed["text"] + " updatedmarker"
    changed["state"] = "active"
    deleted = base[(base["doc_id"] % 11 == 0) & (base["doc_id"] % 7 != 0)].copy()
    deleted["text"] = ""
    deleted["state"] = "deleted"
    added = pd.DataFrame(
        {
            "doc_id": np.arange(mx + 1, mx + 21, dtype=np.int64),
            "text": [f"brand new document number {i} spark" for i in range(20)],
            "state": "active",
        }
    )
    delta = pd.concat([changed, deleted, added], ignore_index=True)
    incremental.build_incremental(root, rd.from_pandas(delta), input_desc="diff-delta")
    return index_diff_mod.index_diff(root)


def _index_diff_sql(table: str = "documents") -> str:
    return f"""
WITH mx AS (SELECT max(doc_id) AS m FROM {table}),
added AS (
  SELECT CAST(mx.m + gs.generate_series AS BIGINT) AS doc_id, 'added' AS change
  FROM mx, generate_series(1, 20) gs
),
changed AS (
  SELECT doc_id, 'changed' AS change FROM {table} WHERE doc_id % 7 = 0
),
removed AS (
  SELECT doc_id, 'removed' AS change FROM {table}
  WHERE doc_id % 11 = 0 AND doc_id % 7 <> 0
)
SELECT doc_id, change FROM (
  SELECT * FROM added UNION ALL SELECT * FROM changed UNION ALL SELECT * FROM removed
) ORDER BY doc_id, change
""".strip()


def _set_integrity(sf_dir: str) -> pd.DataFrame:
    """Set-integrity guard scenario (reference check_set_integrity,
    core/tasks/harvest/set.py:99-126): a delta deleting every even doc_id
    shrinks the corpus ~50% ≥ the 5% bar, so promotion must be refused and
    the parent version keeps serving."""
    import shutil

    import ray.data as rd

    from harvester_ray.index import incremental
    from harvester_ray.index import manifest as mf

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"integrity-{tag}")
    shutil.rmtree(root, ignore_errors=True)
    docs = os.path.join(sf_dir, "documents.parquet")
    index_build.build_index(
        rd.read_parquet(docs, columns=["doc_id", "text"]), root, input_desc=docs
    )
    ids = rd.read_parquet(docs, columns=["doc_id"]).to_pandas()["doc_id"]
    bad = pd.DataFrame(
        {"doc_id": ids[ids % 2 == 0], "text": "", "state": "deleted"}
    )
    man = incremental.build_incremental(root, rd.from_pandas(bad), input_desc="bad-delta")
    integ = man["lineage"]["integrity"]
    serving = mf.read_manifest(root)  # CURRENT after the guard's decision
    return pd.DataFrame(
        {
            "parent_docs": [int(integ["parent_docs"])],
            "new_docs": [int(integ["new_docs"])],
            "is_replaced": [bool(integ["is_replaced"])],
            "serving_docs": [int(serving["n_docs"])],
        }
    )


def _set_integrity_sql(table: str = "documents") -> str:
    cond = "(parent_docs >= 50 AND (new_docs = 0 OR (parent_docs - new_docs) * 1.0 / new_docs >= 0.05))"
    return f"""
WITH c AS (
  SELECT count(*) AS parent_docs,
         CAST(sum(CASE WHEN doc_id % 2 = 0 THEN 0 ELSE 1 END) AS BIGINT) AS new_docs
  FROM {table}
)
SELECT parent_docs, new_docs, {cond} AS is_replaced,
       CASE WHEN {cond} THEN parent_docs ELSE new_docs END AS serving_docs
FROM c
""".strip()


def _merge_child_table(sf_dir: str) -> pd.DataFrame:
    """Ordered fan-in join (Product ⟕ Files analog, reference
    products/models/datatypes/product.py:82-167): orders gain their
    highest-price lineitem's fields plus all return flags concatenated in
    price order."""
    import ray.data as rd

    from harvester_ray.pipelines import fanin

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_orderpriority"]
    )
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_partkey", "l_extendedprice", "l_returnflag"],
    )
    out = fanin.merge_child_table(
        orders,
        li,
        key="l_orderkey",
        parent_key="o_orderkey",
        order_by=["l_extendedprice", "l_linenumber"],
        descending=[True, False],
        take_first=["l_partkey", "l_extendedprice"],
        concat={"flags": ("l_returnflag", ",")},
    ).to_pandas()
    out["first_l_extendedprice"] = pd.to_numeric(out["first_l_extendedprice"]).round(4)
    out["first_l_partkey"] = pd.to_numeric(out["first_l_partkey"])
    out["flags"] = out["flags"].where(out["flags"].notna(), None)
    out = out[
        ["o_orderkey", "o_orderpriority", "first_l_partkey", "first_l_extendedprice", "flags", "n_children"]
    ]
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _merge_child_table_sql() -> str:
    return """
SELECT o.o_orderkey, o.o_orderpriority,
       first(l.l_partkey ORDER BY l.l_extendedprice DESC, l.l_linenumber ASC) AS first_l_partkey,
       round(first(l.l_extendedprice ORDER BY l.l_extendedprice DESC, l.l_linenumber ASC), 4)
           AS first_l_extendedprice,
       string_agg(l.l_returnflag, ',' ORDER BY l.l_extendedprice DESC, l.l_linenumber ASC) AS flags,
       CAST(count(l.l_orderkey) AS BIGINT) AS n_children
FROM orders o LEFT JOIN lineitem l ON o.o_orderkey = l.l_orderkey
GROUP BY 1, 2 ORDER BY 1
""".strip()


def _seed_merge(sf_dir: str) -> pd.DataFrame:
    """Seeding `merge` strategy (reference resource.py:86-95): orders seeds
    enriched with the customer endpoint's fields on o_custkey."""
    import ray.data as rd

    from harvester_ray.sources import objective as obj

    seeds = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    extra = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment", "c_nationkey"]
    ).to_pandas().rename(columns={"c_custkey": "o_custkey"})
    out = obj.merge_phase(seeds, extra, merge_on="o_custkey").to_pandas()
    out["o_totalprice"] = out["o_totalprice"].round(4)
    out = out[["o_orderkey", "o_custkey", "o_totalprice", "c_mktsegment", "c_nationkey"]]
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _seed_back_fill(sf_dir: str) -> pd.DataFrame:
    """Seeding `back_fill` strategy (reference resource.py:168-177): each
    supplier seed expands into (s_suppkey % 3) detail records."""
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.sources import objective as obj

    seeds = rd.read_parquet(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey"])
    schema = pa.schema([("s_suppkey", pa.int64()), ("detail", pa.int64())])

    def expand(r):
        return [{"s_suppkey": r["s_suppkey"], "detail": i} for i in range(r["s_suppkey"] % 3)]

    out = obj.back_fill_phase(seeds, expand, schema=schema).to_pandas()
    return out.sort_values(["s_suppkey", "detail"]).reset_index(drop=True)


def _readback_documents(sf_dir: str) -> pd.DataFrame:
    """Raw-data read-back (reference core/views/document.py:22-83): live doc
    listing straight from the version's segment doc tables."""
    from harvester_ray.index import readback

    root = _documents_index(sf_dir)
    out = readback.read_documents(root, columns=["doc_id", "dl", "source"]).to_pandas()
    return out[["doc_id", "dl", "source"]].sort_values("doc_id").reset_index(drop=True)


def _check_urls(sf_dir: str) -> pd.DataFrame:
    """URL prober actor pool. The fake prober derives status/redirect/ctype
    from the URL's md5 prefix (ops/probe.py) so the gate is value-checked
    against an exact md5 CASE oracle."""
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.ops import probe

    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"])
    urls = parts.map_batches(
        lambda t: pa.table(
            {"url": pa.array([f"http://files.example.org/part/{k}" for k in t["p_partkey"].to_pylist()])}
        ),
        batch_format="pyarrow",
    )
    out = probe.check_urls(urls, concurrency=4).to_pandas()
    return out.sort_values("url").reset_index(drop=True)


# Deterministic per-document URL synthesis shared by the url_dedup gate and
# its oracle: every component is a pure modular expression over (doc_id,
# source, n_chars) so the SQL side rebuilds byte-identical raw URLs. The
# variation deliberately exercises every normalization rule (scheme, www,
# tracking params, trailing slash, fragment).
_URL_SYNTH_SQL = """
SELECT doc_id, n_chars AS quality,
       (CASE WHEN doc_id % 2 = 0 THEN 'https://' ELSE 'http://' END)
       || (CASE WHEN doc_id % 3 = 0 THEN 'www.' ELSE '' END)
       || source || '.example.org/docs/'
       || CAST(doc_id % 25 AS VARCHAR) || '-' || CAST(n_chars % 4 AS VARCHAR)
       || (CASE WHEN doc_id % 5 = 0 THEN '/' ELSE '' END)
       || (CASE WHEN doc_id % 2 = 0 THEN '?utm_source=feed&ref=' ELSE '?ref=' END)
       || CAST(doc_id % 3 AS VARCHAR)
       || (CASE WHEN doc_id % 11 = 0 THEN '#sec' ELSE '' END) AS url
FROM documents
""".strip()


def _url_dedup(sf_dir: str) -> pd.DataFrame:
    """Canonical-URL dedup (ops/urldedup.py): normalize synthesized URLs
    (scheme/www/fragment/tracking-param/trailing-slash rules), keep the
    (max n_chars, min doc_id) doc per canonical URL via the bucketed
    reducer. Only (norm_url, doc_id, quality) triples cross the wire."""
    import pyarrow as pa

    from harvester_ray.ops import urldedup

    docs = _docs_ds(sf_dir, ("doc_id", "source", "n_chars"))

    def synth(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].combine_chunks().cast(pa.int64()))
        src = batch["source"].to_pandas().to_numpy(dtype=object)
        nc = np.asarray(batch["n_chars"].combine_chunks().cast(pa.int64()))
        scheme = np.where(ids % 2 == 0, "https://", "http://")
        www = np.where(ids % 3 == 0, "www.", "")
        slash = np.where(ids % 5 == 0, "/", "")
        qpre = np.where(ids % 2 == 0, "?utm_source=feed&ref=", "?ref=")
        frag = np.where(ids % 11 == 0, "#sec", "")
        urls = [
            f"{scheme[i]}{www[i]}{src[i]}.example.org/docs/{ids[i] % 25}-{nc[i] % 4}"
            f"{slash[i]}{qpre[i]}{ids[i] % 3}{frag[i]}"
            for i in range(len(ids))
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "url": pa.array(urls, pa.string()),
                "quality": pa.array(nc, pa.int64()),
            }
        )

    urls = docs.map_batches(synth, batch_format="pyarrow", zero_copy_batch=True)
    out = urldedup.url_dedup(urls).to_pandas()
    return out.sort_values("norm_url").reset_index(drop=True)


def _demo_vocab() -> pd.DataFrame:
    """Deterministic 40-node vocab forest: v0..v2 roots, parent(i)=v[(i-3)//3]."""
    values = [f"v{i}" for i in range(40)]
    parents = [None if i < 3 else f"v{(i - 3) // 3}" for i in range(40)]
    return pd.DataFrame({"value": values, "parent": parents})


def _vocab_ancestors(sf_dir: str) -> pd.DataFrame:
    """Vocab tree closure (reference lookup_study_vocabulary_parents,
    products/tasks/learning_materials.py:10-45): each doc's leaf value
    (v{20 + doc_id % 20}) expands to its sorted ancestors incl self, plus
    the root normalization (metadata/utils/operations.py)."""
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.functions import vocab as vb

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])

    def leaf(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "leaf": pa.array([f"v{20 + int(i) % 20}" for i in ids], pa.string()),
            }
        )

    seeded = docs.map_batches(leaf, batch_format="pyarrow")
    tree = _demo_vocab()
    expanded = vb.expand_ancestors(seeded, tree, col="leaf", out_col="anc")
    rooted = vb.normalize_to_roots(expanded, tree, col="leaf", out_col="root")

    def finish(t: pa.Table) -> pa.Table:
        joined = [",".join(a) for a in t["anc"].to_pylist()]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "leaf": t["leaf"],
                "ancestors": pa.array(joined, pa.string()),
                "root": t["root"],
            }
        )

    out = rooted.map_batches(finish, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _vocab_ancestors_sql() -> str:
    rows = ", ".join(
        f"('v{i}', " + ("NULL" if i < 3 else f"'v{(i - 3) // 3}'") + ")" for i in range(40)
    )
    return f"""
WITH RECURSIVE vocab(value, parent) AS (VALUES {rows}),
anc AS (
  SELECT value AS start, value, parent FROM vocab
  UNION ALL
  SELECT a.start, v.value, v.parent FROM anc a JOIN vocab v ON a.parent = v.value
),
docs AS (
  SELECT doc_id, 'v' || CAST(20 + doc_id % 20 AS VARCHAR) AS leaf FROM documents
)
SELECT d.doc_id, d.leaf,
       string_agg(a.value, ',' ORDER BY a.value) AS ancestors,
       min(CASE WHEN a.parent IS NULL THEN a.value END) AS root
FROM docs d JOIN anc a ON a.start = d.leaf
GROUP BY d.doc_id, d.leaf
ORDER BY d.doc_id
""".strip()


def _parse_seed_data(sf_dir: str) -> pd.DataFrame:
    """Dotted-key -> nested-struct builder + access round trip
    (reference parse_seed_data, core/models/datatypes/document.py:68-79)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from harvester_ray.functions import document as fd

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "lang", "n_chars"],
    )

    def dotted(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "meta.source": t["source"],
                "meta.lang": t["lang"],
                "meta.stats.n_chars": t["n_chars"],
            }
        )

    nested = fd.parse_seed_data(docs.map_batches(dotted, batch_format="pyarrow"))

    def access(t: pa.Table) -> pa.Table:
        meta = t["meta"].combine_chunks()
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": pc.struct_field(meta, "source"),
                "lang": pc.struct_field(meta, "lang"),
                "n_chars": pc.struct_field(meta, ["stats", "n_chars"]),
            }
        )

    out = nested.map_batches(access, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _set_metadata(sf_dir: str) -> pd.DataFrame:
    """Provider coalesce + hash-diff modified stamp + language clamp
    (reference set_metadata, core/models/datatypes/document.py:99-139)."""
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.functions import document as fd

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "source", "lang"]
    )

    def prep(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        src = t["source"].to_pylist()
        texts = t["text"].to_pylist()
        import hashlib

        name = [s if i % 3 != 0 else None for i, s in zip(ids, src)]
        slug = [s.lower() if i % 2 != 0 else None for i, s in zip(ids, src)]
        ext = [f"ext-{i}" for i in ids]
        # previous-version hash: docs with doc_id % 10 == 0 changed upstream
        prev = [
            hashlib.md5(((x or "") + ("CHANGED" if i % 10 == 0 else "")).encode()).hexdigest()
            for i, x in zip(ids, texts)
        ]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": t["text"],
                "lang": t["lang"],
                "name": pa.array(name, pa.string()),
                "slug": pa.array(slug, pa.string()),
                "ext": pa.array(ext, pa.string()),
                "prev_hash": pa.array(prev, pa.string()),
            }
        )

    stamped = docs.map_batches(prep, batch_format="pyarrow").map_batches(
        lambda t: fd.set_metadata(
            t,
            provider_cols=["name", "slug", "ext"],
            content_col="text",
            prev_hash_col="prev_hash",
            language_col="lang",
            current_version=2,
            parent_version=1,
        ).select(["doc_id", "provider", "content_hash", "modified_at_version", "language"]),
        batch_format="pyarrow",
    )
    return stamped.to_pandas().sort_values("doc_id").reset_index(drop=True)


def _to_search(sf_dir: str) -> pd.DataFrame:
    """Bulk search-action assembly with tombstone delete ops (reference
    to_search, core/models/datatypes/document.py:182-205)."""
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.functions import document as fd

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "lang", "n_chars"],
    )

    def assemble(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        return fd.to_search(
            t,
            id_cols=["source", "doc_id"],
            language_col="lang",
            keep_cols=["n_chars"],
            deleted_mask=(ids % 25 == 0),  # synthesized soft-delete set
        )

    out = docs.map_batches(assemble, batch_format="pyarrow").to_pandas()
    return out.sort_values("_id").reset_index(drop=True)


def _file_split(sf_dir: str) -> pd.DataFrame:
    """Per-parent child dedup + files/links split (reference
    products/models/datatypes/product.py:119-143): duplicate (order, part)
    children drop keeping the first line number; survivors are ranked
    within their kind."""
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.pipelines import fanin

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_linenumber", "l_suppkey"],
    )

    def prep(t: pa.Table) -> pa.Table:
        sk = np.asarray(t["l_suppkey"].combine_chunks().cast(pa.int64()))
        ln = np.asarray(t["l_linenumber"].combine_chunks().cast(pa.int64()))
        pk = np.asarray(t["l_partkey"].combine_chunks().cast(pa.int64()))
        # l_linenumber is not unique within an order in the synthetic data;
        # (l_linenumber, l_suppkey, l_partkey) makes both the dedup pick and
        # the within-kind ranking deterministic
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_partkey": t["l_partkey"],
                "l_linenumber": t["l_linenumber"],
                "ord": pa.array((ln * 1_000_000 + sk) * 1_000_000 + pk, pa.int64()),
                "is_link": pa.array(sk % 2 == 0),
            }
        )

    out = fanin.split_children(
        li.map_batches(prep, batch_format="pyarrow"),
        key="l_orderkey",
        dedup_col="l_partkey",
        order_col="ord",
        is_link_col="is_link",
    ).to_pandas()
    out["kind_rank"] = out["kind_rank"].astype("int64")
    out = out[["l_orderkey", "l_partkey", "l_linenumber", "kind", "kind_rank"]]
    return out.sort_values(["l_orderkey", "l_partkey"]).reset_index(drop=True)


def _generate_previews(sf_dir: str) -> pd.DataFrame:
    """Thumbnail actor pool (reference files/tasks/previews.py:8-102):
    mime-dispatched generator, per-size fan-out, content-addressed paths."""
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.ops import previews

    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"])
    ctypes = ["video/mp4", "application/pdf", "image/png", "text/html"]

    def files(t: pa.Table) -> pa.Table:
        keys = [int(k) for k in t["p_partkey"].to_pylist()]
        return pa.table(
            {
                "url": pa.array([f"http://files.example.org/part/{k}" for k in keys]),
                "content_type": pa.array([ctypes[k % 4] for k in keys]),
            }
        )

    ds = parts.map_batches(files, batch_format="pyarrow")
    out = previews.generate_previews(ds, concurrency=4).to_pandas()
    return out.sort_values(["url", "size"]).reset_index(drop=True)


def _translate_values(sf_dir: str) -> pd.DataFrame:
    """Translation fetcher actor pool (reference metadata/tasks.py:13-28):
    per-actor client + distinct-value memo cache."""
    import ray.data as rd

    from harvester_ray.ops import translate

    nation = rd.read_parquet(os.path.join(sf_dir, "nation.parquet"), columns=["n_name"])
    out = translate.translate_values(nation, value_col="n_name", target="en").to_pandas()
    return out.sort_values("value").reset_index(drop=True)


def _query_vec(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    import pyarrow.dataset as pads

    tbl = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        filter=pads.field("vec_id") == vec_id, columns=["embedding"]
    )
    return np.asarray(tbl["embedding"][0].as_py(), dtype=np.float64)


def _knn(sf_dir: str) -> pd.DataFrame:
    out = similarity.knn_brute(_emb_ds(sf_dir), _query_vec(sf_dir), k=10).to_pandas()
    return out[["vec_id", "cosine"]]


def _knn_ivf(sf_dir: str) -> pd.DataFrame:
    """IVF in its EXACT regime (nprobe = n_centroids): every cluster dir is
    probed, so the result is provably identical to brute cosine — which
    gives the IVF machinery (partition layout, per-batch cluster routing,
    distributed top-k merge) a value-identical SQL oracle. The pruned
    approximate regime is gated separately (``knn_ivf_pruned``, rows-only)
    and recall-tested in tests/."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    ivf_dir = os.path.join(_SCRATCH, f"ivf-{tag}")
    similarity.ivf_partition(_emb_ds(sf_dir), ivf_dir, n_centroids=16)
    out = similarity.knn_ivf_partitioned(
        ivf_dir, _query_vec(sf_dir), k=10, nprobe=16
    ).to_pandas()
    return out[["vec_id", "cosine"]]


def _knn_ivf_pruned(sf_dir: str) -> pd.DataFrame:
    """Partition-pruned IVF (the 100 TB serving shape): the corpus is laid
    out once as one Parquet dir per centroid; the query reads only its
    nprobe cluster dirs. Approximate — rows-only gate; recall vs brute is
    asserted in tests/test_similarity."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    ivf_dir = os.path.join(_SCRATCH, f"ivf-{tag}")
    similarity.ivf_partition(_emb_ds(sf_dir), ivf_dir, n_centroids=16)
    out = similarity.knn_ivf_partitioned(ivf_dir, _query_vec(sf_dir), k=10).to_pandas()
    return out[["vec_id", "cosine"]]


KNN_FILTER_LABELS = [0, 1, 2]


def _knn_hnsw(sf_dir: str) -> pd.DataFrame:
    """Graph-based ANN (per-shard deterministic HNSW — the Lucene
    per-segment graph shape the reference serves kNN through). Approximate
    by design: rows-only gate; recall@10 >= 0.95 vs brute and
    partition-independence are asserted in tests/test_hnsw.py."""
    from harvester_ray.ops import hnsw as _hnsw

    tag = os.path.basename(os.path.normpath(sf_dir))
    wd = os.path.join(_SCRATCH, f"hnsw-{tag}")
    out = _hnsw.knn_hnsw(
        _emb_ds(sf_dir), _query_vec(sf_dir), k=10, work_dir=wd
    ).to_pandas()
    return out[["vec_id", "cosine"]]


def _knn_radius(sf_dir: str) -> pd.DataFrame:
    """Similarity-threshold vector search (ES 8 kNN `similarity` param):
    every vector with cosine >= 0.2 to the query, no top-k cap — the
    streaming stateless sibling of _knn (ops/similarity.knn_radius)."""
    return similarity.knn_radius(
        _emb_ds(sf_dir), _query_vec(sf_dir), threshold=0.2
    )[["vec_id", "cosine"]]


def _knn_filtered(sf_dir: str) -> pd.DataFrame:
    """Filtered vector search (ES 8 kNN filter clause, pre-filter
    semantics): exact cosine top-k over rows whose label is allowed."""
    out = similarity.knn_filtered(
        _emb_ds(sf_dir), _query_vec(sf_dir), k=10,
        filter_col="label", filter_values=KNN_FILTER_LABELS,
    ).to_pandas()
    return out[["vec_id", "cosine"]]


def _knn_l2(sf_dir: str) -> pd.DataFrame:
    """Euclidean kNN (dense_vector l2_norm similarity), exact."""
    out = similarity.knn_l2(_emb_ds(sf_dir), _query_vec(sf_dir), k=10).to_pandas()
    return out[["vec_id", "dist"]]


def _knn_dot(sf_dir: str) -> pd.DataFrame:
    """Max-inner-product kNN (dense_vector dot_product similarity), exact."""
    out = similarity.knn_dot(_emb_ds(sf_dir), _query_vec(sf_dir), k=10).to_pandas()
    return out[["vec_id", "dot"]]


def _rank_feature(sf_dir: str) -> pd.DataFrame:
    """ES rank_feature query: BM25 sum + boost·sat(dl) saturation over the
    indexed doc length (added after the exhaustive OR scorer)."""
    root = _documents_index(sf_dir)
    out = (
        index_query.IndexReader(root)
        .search(
            BM25_QUERY_OR, k=10, mode="or",
            recency={"kind": "rank_feature", "pivot": 120.0, "boost": 1.2},
        )
        .to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _retriever_agreement(sf_dir: str) -> pd.DataFrame:
    """Lexical-vs-dense agreement for the fixture query: BM25 top-10 doc
    ids vs cosine top-10 vec ids (the synthetic tables share the 0-based id
    space, making the comparison well-defined). Both lists use the
    rounded-score total order with id tie-break."""
    root = _documents_index(sf_dir)
    bm = (
        index_query.IndexReader(root)
        .search(BM25_QUERY_OR, k=10, mode="or")
        .to_pandas()
    )
    bm["score"] = bm["score"].round(4)
    bm = bm.sort_values(["score", "doc_id"], ascending=[False, True],
                        kind="mergesort")
    kn = similarity.knn_brute(_emb_ds(sf_dir), _query_vec(sf_dir), k=500).to_pandas()
    kn = kn.sort_values(["cosine", "vec_id"], ascending=[False, True],
                        kind="mergesort")
    return similarity.retriever_agreement(
        bm["doc_id"].to_numpy(), kn["vec_id"].to_numpy(), k=10
    )


RBO_QUERY_B = "customer query"


def _first_day_filter(t: "pa.Table") -> "pa.Table":
    import numpy as _np
    import pyarrow as _pa

    ts = _np.asarray(t["ts"].combine_chunks().cast(_pa.timestamp("us"))).astype(
        "datetime64[us]"
    ).astype(_np.int64)
    cut = int(_np.datetime64("2024-01-02T00:00:00", "us").astype(_np.int64))
    return t.filter(_pa.array(ts < cut))


def _mod5_split(t: "pa.Table", keep_zero: bool) -> "pa.Table":
    import numpy as _np
    import pyarrow as _pa

    ids = _np.asarray(t["doc_id"].combine_chunks().cast(_pa.int64()))
    m = _pa.array(ids % 5 == 0)
    import pyarrow.compute as pc

    return t.filter(m if keep_zero else pc.invert(m))


def _plant_sentences(t: "pa.Table") -> "pa.Table":
    import pyarrow.compute as pc

    return t.set_column(
        t.schema.get_field_index("text"), "text",
        pc.replace_substring(t["text"].combine_chunks(), " table ", ". "),
    )


def _luhn_fixture_rows() -> list:
    """Deterministic PAN-audit fixture (the VALUES-oracle precedent:
    lifecycle gates build both sides from one fixture fn): every third doc
    plants a checksum-VALID 16-digit number, the next a single-digit typo
    of it (fails Luhn), the rest carry no candidate."""
    def check_digit(base: str) -> str:
        for d in "0123456789":
            sdig = base + d
            rev = [int(c) for c in sdig[::-1]]
            tot = 0
            for i, v in enumerate(rev):
                if i % 2 == 1:
                    v *= 2
                    if v > 9:
                        v -= 9
                tot += v
            if tot % 10 == 0:
                return d
        raise AssertionError

    rows = []
    for i in range(60):
        base = f"4{i:014d}"
        num = base + check_digit(base)
        if i % 3 == 0:
            txt = f"payment card {num} appeared in the transcript"
        elif i % 3 == 1:
            bad = num[:-1] + ("0" if num[-1] != "0" else "1")
            txt = f"order id {bad} looks like a card but is not"
        else:
            txt = "no digit runs here only words"
        rows.append((i, txt))
    return rows


def _luhn_audit(sf_dir: str) -> pd.DataFrame:
    """Luhn mod-10 card-number audit over the planted fixture
    (ops/pii.luhn_audit): checksum-valid PANs vs lookalikes."""
    import ray.data as _rd

    df = pd.DataFrame(_luhn_fixture_rows(), columns=["doc_id", "text"])
    return (
        _pii.luhn_audit(_rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)))
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _luhn_audit_oracle() -> str:
    vals = ", ".join(
        "({}, '{}')".format(i, t.replace("'", "''"))
        for i, t in _luhn_fixture_rows()
    )
    head = f"WITH documents_l AS (SELECT col0 AS doc_id, col1 AS text FROM (VALUES {vals}))"
    return _pii.luhn_audit_sql("documents_l").replace("WITH ", head + ", ", 1)


def _rbo_retrievers(sf_dir: str) -> pd.DataFrame:
    """Rank-biased overlap between the OR-mode BM25 rankings of two
    overlapping queries — the top-weighted retriever comparison
    (ops/similarity.rbo_overlap; Webber et al. 2010). Both rankings use
    the rounded-score total order with id tie-break (the
    retriever_agreement discipline)."""
    root = _documents_index(sf_dir)
    reader = index_query.IndexReader(root)

    def ranked(q: str) -> np.ndarray:
        t = reader.search(q, k=10, mode="or").to_pandas()
        t["score"] = t["score"].round(4)
        t = t.sort_values(["score", "doc_id"], ascending=[False, True],
                          kind="mergesort")
        return t["doc_id"].to_numpy()

    return similarity.rbo_overlap(ranked(BM25_QUERY_OR), ranked(RBO_QUERY_B))


def _mmr_rerank(sf_dir: str) -> pd.DataFrame:
    """MMR diversified re-rank over the cosine top-pool: greedy
    relevance-minus-redundancy selection, exact-integer step keys."""
    return similarity.mmr_rerank(
        _emb_ds(sf_dir), _query_vec(sf_dir), k=5, pool=12, lam=0.7
    )


def _knn_pq(sf_dir: str) -> pd.DataFrame:
    """Product quantization ANN: 8-byte codes + ADC lookup-table scan, then
    exact re-rank of the top-100 ADC candidates (the standard PQ serving
    pipeline). With re-rank the result is exact — value-checked against the
    same cosine oracle as knn_cosine."""
    tag = os.path.basename(os.path.normpath(sf_dir))
    pq_dir = os.path.join(_SCRATCH, f"pq-{tag}")
    similarity.pq_index(_emb_ds(sf_dir), pq_dir)
    src = os.path.join(sf_dir, "embeddings.parquet")
    out = similarity.knn_pq(
        pq_dir, _query_vec(sf_dir), k=10, rerank=100, source_path=src
    ).to_pandas()
    return out[["vec_id", "cosine"]]


def _table_merge(sf_dir: str) -> pd.DataFrame:
    """Copy-on-write partitioned MERGE (Delta/Iceberg-style upsert with
    partition pruning): deterministic delta — update doc_id%7==0
    (n_chars+1000), delete doc_id%11==0 unless updated, insert two new
    rows — then a verification profile of the merged table."""
    import shutil

    from harvester_ray.state import table as _table

    docs = pd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"],
    )
    root = os.path.join(_SCRATCH, "cow-table")
    shutil.rmtree(root, ignore_errors=True)
    _table.write_partitioned(docs, root, n_partitions=8)
    mx = int(docs["doc_id"].max())
    upd = docs[docs["doc_id"] % 7 == 0].copy()
    upd["n_chars"] += 1000
    upd["state"] = "active"
    dele = docs[(docs["doc_id"] % 11 == 0) & (docs["doc_id"] % 7 != 0)].copy()
    dele["state"] = "deleted"
    ins = pd.DataFrame({
        "doc_id": np.array([mx + 1, mx + 2], dtype=np.int64),
        "source": ["srcnew", "srcnew"],
        "n_chars": np.array([11, 22], dtype=np.int64),
        "state": ["active", "active"],
    })
    _table.merge(root, pd.concat([upd, dele, ins], ignore_index=True))
    out = _table.read_table(root)
    return pd.DataFrame({
        "n": [np.int64(len(out))],
        "chars_sum": [np.int64(out["n_chars"].sum())],
        "min_id": [np.int64(out["doc_id"].min())],
        "max_id": [np.int64(out["doc_id"].max())],
    })


def _docs_ds(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])


def _emb_ds(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))


def _extract_props(sf_dir: str) -> pd.DataFrame:
    """Declarative OBJECTIVE extraction over the events.props JSON column
    (source-plugin protocol: harvester/products/sources/sharekit.py:165-200)."""
    import ray.data as rd

    from harvester_ray.sources import objective as obj

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_id", "props"])
    out = obj.extract_json_column(
        ds, "props", {"@": "$", "k": "$.k"}, keep_cols=["event_id"]
    )
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


def _ranking_eval(sf_dir: str) -> pd.DataFrame:
    """Saved-query ranking evaluation (Query/QueryRanking analog,
    harvester/core/models/search/query.py:13-116): nDCG@10 + mean graded
    relevance per fixture query, judgments = #distinct matching terms."""
    from harvester_ray.index import evaluate, query as iq

    reader = iq.IndexReader(_documents_index(sf_dir))
    return evaluate.evaluate_ranking(reader, k=10)


def _ranking_eval_mrr(sf_dir: str) -> pd.DataFrame:
    """ES _rank_eval MRR + precision@k (binary relevance: every query term
    present) over the same fixture query set as ranking_eval."""
    from harvester_ray.index import evaluate, query as iq

    reader = iq.IndexReader(_documents_index(sf_dir))
    return evaluate.evaluate_ranking_mrr(reader, k=10)


def _more_like_this(sf_dir: str, doc_id: int = 0, k: int = 10) -> pd.DataFrame:
    """Similar-documents endpoint analog (harvester/search/views/
    similarity.py:70-110): top tf·idf terms of the doc → BM25 OR query,
    source doc excluded."""
    from harvester_ray.index import extras, query as iq

    reader = iq.IndexReader(_documents_index(sf_dir))
    out = extras.more_like_this(reader, doc_id, k=k).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _neardup_pairs_ds(sf_dir: str):
    """Verified exact-Jaccard pairs (threshold 0.8), cached as parquet per
    sf_dir so the three gates that consume them (neardup_jaccard,
    dedup_clusters, dedup_corpus) run the shingle pipeline once."""
    import ray.data as rd

    tag = os.path.basename(os.path.normpath(sf_dir))
    path = os.path.join(_SCRATCH, f"ndpairs-j08-{tag}")
    if not os.path.exists(os.path.join(path, "_DONE")):
        os.makedirs(path, exist_ok=True)
        dedup.near_dup_jaccard(_docs_ds(sf_dir), threshold=0.8).write_parquet(path)
        open(os.path.join(path, "_DONE"), "w").close()
    return rd.read_parquet(path)


def _neardup_jaccard(sf_dir: str) -> pd.DataFrame:
    """Exact n-gram Jaccard near-dup (complete shingle-bucket candidates —
    the non-approximate sibling of neardup_minhash)."""
    out = _neardup_pairs_ds(sf_dir).to_pandas()
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _dedup_clusters(sf_dir: str) -> pd.DataFrame:
    """Near-dup clusters: exact-Jaccard pairs → distributed hash-to-min
    connected components → (doc_id, cluster_id=min reachable id). The
    transitive-closure generalization of the reference's one-live-doc-per-srn
    upsert rule (core/processors/seed/resource.py:98-105)."""
    from harvester_ray.ops import cluster

    out = cluster.connected_components(_neardup_pairs_ds(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _cluster_safe_split(sf_dir: str) -> pd.DataFrame:
    """Leakage-safe splits: near-dup cluster members share one split
    (representative-keyed hash), singleton docs key on themselves."""
    from harvester_ray.ops import cluster

    return cluster.cluster_safe_split(
        _docs_ds(sf_dir, columns=("doc_id",)), _neardup_pairs_ds(sf_dir)
    )


def _dedup_corpus(sf_dir: str) -> pd.DataFrame:
    """Corpus-level near-dup removal: keep the minimum-id representative of
    every cluster, drop the rest (bucketed anti-join, no driver collect)."""
    import ray.data as rd

    from harvester_ray.ops import cluster

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source", "n_chars"],
    )
    out = cluster.dedup_corpus(docs, _neardup_pairs_ds(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _decontaminate(sf_dir: str) -> pd.DataFrame:
    """Benchmark decontamination: distinct 5-gram hashes of a deterministic
    eval slice (doc_id % 13 == 0) broadcast once; streaming vectorized
    overlap count per corpus doc (GPT-3 App. C-style n-gram collision)."""
    from harvester_ray.ops import decontam

    def bench_slice(t):
        ids = np.asarray(t["doc_id"])
        return t.filter(ids % 13 == 0)

    docs = _docs_ds(sf_dir)
    bench = _docs_ds(sf_dir).map_batches(
        bench_slice, batch_format="pyarrow", zero_copy_batch=True
    )
    out = decontam.decontaminate(docs, bench, shingle_n=5).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _doremi_weights(sf_dir: str) -> pd.DataFrame:
    """DoReMi-lite per-domain mixture weights
    (ops/keywords.doremi_weights): excess per-token unigram NLL over the
    corpus mean, integer nano means, one mirrored normalization."""
    return _keywords.doremi_weights(_docs_ds(sf_dir, ("doc_id", "text", "source")))


def _value_percentiles(sf_dir: str) -> pd.DataFrame:
    """Exact p50/p90/p99 of events.value via histogram-refinement order
    statistics (ops/quantiles.column_percentiles) — the corpus-scale
    no-global-sort sibling of value_quantiles' per-group exchange."""
    from harvester_ray.ops import quantiles

    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "value"]
    )
    return quantiles.column_percentiles(ds)


def _winnow_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Winnowing fingerprint selection (Schleimer et al. 2003 / MOSS):
    window-min over md5 k-gram hashes — the guaranteed-detection sparse
    sibling of the full-gram `dup_ngrams` family
    (ops/text_analysis.winnow_fingerprints)."""
    return text_analysis.winnow_fingerprints(_docs_ds(sf_dir, ("doc_id", "text")))


def _gopher_rules(sf_dir: str) -> pd.DataFrame:
    """Gopher Table-A1 composite quality filter
    (ops/text_analysis.gopher_rules): word-count bounds, mean-word-length
    band and stopword-presence as pure integer comparisons in one
    streaming pass; bounds adapted to the synthetic corpus so every rule
    fires (non-degenerate at all sf)."""
    from harvester_ray.ops import text_analysis as ta

    out = ta.gopher_rules(_docs_ds(sf_dir, ("doc_id", "text"))).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _perplexity_buckets(sf_dir: str) -> pd.DataFrame:
    """CCNet head/middle/tail split (ops/quantiles.perplexity_buckets):
    per-token unigram NLL as an exact integer key, corpus-third cutoffs
    found by histogram-refinement order statistics (no global sort), one
    comparison pass assigns buckets."""
    from harvester_ray.ops import quantiles

    return quantiles.perplexity_buckets(_docs_ds(sf_dir, ("doc_id", "text")))


def _boilerplate_strip(sf_dir: str) -> pd.DataFrame:
    """Per-source boilerplate-span stripping (ops/boilerplate.py): one
    bucketed exchange of distinct (span_hash, source) pairs elects each
    source's furniture spans (df >= 2 AND df*100 >= 2*n_docs — pct=2 keeps
    the fixture non-degenerate on the natural corpus at every sf), the tiny
    winner set broadcasts, and a second streaming pass strips every
    occurrence locally — document text never crosses the wire."""
    from harvester_ray.ops import boilerplate

    out = boilerplate.boilerplate_strip(
        _docs_ds(sf_dir, ("doc_id", "text", "source")), pct=2
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _semantic_decontam(sf_dir: str) -> pd.DataFrame:
    """Embedding-similarity decontamination (ops/decontam.semantic_decontam):
    benchmark = vec_id % 97 == 0 rows of the embeddings table, quantized
    matrix broadcast once; corpus streams through one integer-matmul
    map_batches; per-pair sims quantize to 1e-6 ints before the per-vector
    argmax. tau=0.4 keeps the flag non-degenerate on the synthetic
    embeddings (max sim ~0.47)."""
    from harvester_ray.ops import decontam

    return decontam.semantic_decontam(_emb_ds(sf_dir), tau=0.4)


def _dup_ngrams(sf_dir: str) -> pd.DataFrame:
    """Duplicated-n-gram fraction per doc: one bucketed all-to-all of
    distinct (gram_hash, doc_id) pairs, vectorized run-length dup marking
    per bucket, doc-cardinality final fold (ops/dupgrams.py)."""
    from harvester_ray.ops import dupgrams

    out = dupgrams.dup_ngram_fraction(_docs_ds(sf_dir), shingle_n=5).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)









KEYWORD_TAG_PHRASES = (
    "key agg row", "hash value", "table part", "spark",
    "merge batch", "sort table window",
)


def _keyword_tags(sf_dir: str) -> pd.DataFrame:
    """FlashText-style broadcast phrase tagging: dictionary hashed once
    with the corpus shingle machinery, zero-shuffle per-batch window
    membership, overlapping-occurrence counts (ops/tagging.py)."""
    from harvester_ray.ops import tagging

    out = tagging.keyword_tags(_docs_ds(sf_dir), KEYWORD_TAG_PHRASES).to_pandas()
    return out.sort_values(["doc_id", "phrase"]).reset_index(drop=True)

def _refusal_flags(sf_dir: str) -> pd.DataFrame:
    """Assistant-refusal lexicon detection with PLANTED refusals: every 5th
    conversation (rank order) gets its turn_idx==1 text prefixed with a
    canned refusal, so assistant-role turns among them flag. Map-side
    partial counts, one int-only groupby(conv_id) (ops/refusal.py)."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus
    from harvester_ray.ops import refusal

    data_dir = _transcripts_dir()
    paths = sorted(
        os.path.join(data_dir, f)
        for f in os.listdir(data_dir)
        if f.endswith(".parquet")
    )
    sel = _corpus.conv_counts_from_files(paths)["conv_id"].to_numpy(dtype=np.str_)[::5]

    def plant(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["conv_id"].to_numpy(dtype=np.str_)
        idx = np.searchsorted(sel, cid)
        np.clip(idx, 0, max(len(sel) - 1, 0), out=idx)
        hit = (len(sel) > 0) & (sel[idx] == cid)
        hit &= df["turn_idx"].to_numpy() == 1
        df = df.copy()
        df.loc[hit, "text"] = "I cannot help with that. " + df.loc[hit, "text"]
        return df

    cols = ["conv_id", "turn_idx", "role", "text"]
    ds = rd.read_parquet(data_dir, columns=cols).map_batches(
        plant, batch_format="pandas"
    )
    out = refusal.refusal_flags(ds).to_pandas()
    return out.sort_values("conv_id").reset_index(drop=True)


def _refusal_flags_sql() -> str:
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    head = (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, text FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, row_number() OVER (ORDER BY conv_id) - 1 AS r "
        "FROM (SELECT DISTINCT conv_id FROM tsrc)), "
        "uni AS (SELECT t.conv_id, t.turn_idx, t.role, "
        "CASE WHEN c.r % 5 = 0 AND t.turn_idx = 1 "
        "THEN 'I cannot help with that. ' || t.text ELSE t.text END AS text "
        "FROM tsrc t JOIN cids c USING (conv_id))"
    )
    body = _refusal.refusal_flags_sql("uni")
    assert body.startswith("WITH ")
    return head + ", " + body[len("WITH "):]

def _kcenter_select(sf_dir: str) -> pd.DataFrame:
    """Greedy k-center coreset (Gonzalez farthest-point traversal): k
    streaming passes, broadcast integer centers, one candidate row per
    block, exact integer squared-L2 selection keys (ops/coreset.py)."""
    from harvester_ray.ops import coreset

    return coreset.kcenter_select(_emb_ds(sf_dir), k=6)

def _transform_pivot(sf_dir: str) -> pd.DataFrame:
    """ES continuous-transform analog (pipelines/transform.py): initial
    pivot at a 90% timestamp watermark, then the continuous step recomputes
    only post-checkpoint group keys and rewrites only their dest buckets —
    the result must equal one full pivot (the oracle)."""
    import shutil

    from harvester_ray.pipelines import transform as _transform

    tag = os.path.basename(os.path.normpath(sf_dir))
    dest = os.path.join(_SCRATCH, f"transform-pivot-{tag}")
    shutil.rmtree(dest, ignore_errors=True)
    return _transform.transform_pivot(sf_dir, dest)


def _pca_project(sf_dir: str) -> pd.DataFrame:
    """Top-PC projection head (ops/pca.py): streaming (count, Σq, qqT)
    Gram partials → exact-integer power iteration on the driver (64
    truncating-division steps, d×d only) → broadcast direction → streaming
    matvec + distributed top-k. The oracle unrolls the identical integer
    iteration as MATERIALIZED CTEs."""
    return _pca.pca_project(
        os.path.join(sf_dir, "embeddings.parquet")
    ).to_pandas()

def _prefix_cache_union(sf_dir: str):
    """Shared head for the prefix-cache gate + its oracle shape: the base
    transcript corpus with PLANTED prefix-sharing replays — every 10th
    conversation (rank order) re-added as ``<conv_id>~r`` truncated to its
    first 2 turns and every 7th as ``<conv_id>~p`` truncated to its first
    4 — so cache hits are non-degenerate at several depths."""
    import ray.data as rd

    from harvester_ray import corpus as _corpus

    data_dir = _transcripts_dir()
    paths = sorted(
        os.path.join(data_dir, f)
        for f in os.listdir(data_dir)
        if f.endswith(".parquet")
    )
    cids = _corpus.conv_counts_from_files(paths)["conv_id"].to_numpy(dtype=np.str_)
    plants = [(cids[::10], 2, "~r"), (cids[::7], 4, "~p")]

    def replay_rows(df: pd.DataFrame) -> pd.DataFrame:
        cid = df["conv_id"].to_numpy(dtype=np.str_)
        outs = []
        for sel, k, tag in plants:
            idx = np.searchsorted(sel, cid)
            np.clip(idx, 0, max(len(sel) - 1, 0), out=idx)
            hit = (len(sel) > 0) & (sel[idx] == cid)
            hit &= df["turn_idx"].to_numpy() < k
            out = df.loc[hit].copy()
            out["conv_id"] = out["conv_id"] + tag
            outs.append(out)
        return pd.concat(outs, ignore_index=True)

    cols = ["conv_id", "turn_idx", "role", "text"]
    base = rd.read_parquet(data_dir, columns=cols)
    replays = rd.read_parquet(data_dir, columns=cols).map_batches(
        replay_rows, batch_format="pandas"
    )
    return base.union(replays)


def _prefix_cache_stats(sf_dir: str) -> pd.DataFrame:
    """RadixAttention-style KV-cache reuse accounting per prefix depth:
    bucketed per-conversation polynomial prefix hashes (no per-row Python),
    prefix-hash-bucketed distinct-node counting, tiny per-depth fold
    (ops/prefixcache.py)."""
    from harvester_ray.ops import prefixcache

    out = prefixcache.prefix_cache_stats(_prefix_cache_union(sf_dir)).to_pandas()
    return out.sort_values("depth").reset_index(drop=True)


def _prefix_cache_stats_sql() -> str:
    glob = os.path.join(_transcripts_dir(), "*.parquet")
    head = (
        f"WITH tsrc AS (SELECT conv_id, turn_idx, role, text FROM read_parquet('{glob}')), "
        "cids AS (SELECT conv_id, row_number() OVER (ORDER BY conv_id) - 1 AS r "
        "FROM (SELECT DISTINCT conv_id FROM tsrc)), "
        "ret AS (SELECT t.conv_id || '~r' AS conv_id, t.turn_idx, t.role, t.text "
        "FROM tsrc t JOIN cids c USING (conv_id) WHERE c.r % 10 = 0 AND t.turn_idx < 2), "
        "ext AS (SELECT t.conv_id || '~p' AS conv_id, t.turn_idx, t.role, t.text "
        "FROM tsrc t JOIN cids c USING (conv_id) WHERE c.r % 7 = 0 AND t.turn_idx < 4), "
        "uni AS (SELECT * FROM tsrc UNION ALL SELECT * FROM ret UNION ALL SELECT * FROM ext)"
    )
    body = _prefixcache.prefix_cache_stats_sql("uni")
    assert body.startswith("WITH ")
    return head + ", " + body[len("WITH "):]

def _distinct_ngrams(sf_dir: str) -> pd.DataFrame:
    """Per-source distinct-n diversity (Li et al. 2016): one bucketed
    all-to-all of batch-distinct (gram_hash, source, count) triples,
    run-length bucket reduction, tiny per-source fold (ops/diversity.py)."""
    from harvester_ray.ops import diversity

    out = diversity.distinct_ngrams(
        _docs_ds(sf_dir, columns=("text", "source")), shingle_n=2
    ).to_pandas()
    return (
        out[["source", "n_total", "n_distinct", "distinct_ratio"]]
        .sort_values("source")
        .reset_index(drop=True)
    )

def _webpages_dir() -> str:
    """Deterministic web-page corpus (synth.webpages_parquet) shared by the
    C4-rules gate AND its oracle: oracle_sql() calls this too, so the
    Parquet the SQL reads always exists (generation is pure pyarrow)."""
    return synth.webpages_parquet(_SCRATCH, n_pages=300, seed=7)


def _c4_rules(sf_dir: str) -> pd.DataFrame:
    """C4 line-level cleaning (Raffel et al. 2020 SS2.2): terminal-punct /
    min-words / javascript line filter + lorem-brace-badword-min-sentences
    page gate, one shuffle-free Arrow-kernel map (ops/c4.py). kept_text is
    value-checked verbatim."""
    import ray.data as rd

    from harvester_ray.ops import c4

    out = c4.c4_clean(rd.read_parquet(_webpages_dir())).to_pandas()
    return out.sort_values("page_id").reset_index(drop=True)

def _substring_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact duplicated-substring coverage (Lee et al. 2022, suffix-array
    signal re-expressed shuffle-native): one-prefix-scan rolling window
    hashes, bucketed global count>=2 marking, per-doc interval-union fold
    (ops/substring.py). Integer half-up 1e-6 ratio quantization."""
    from harvester_ray.ops import substring

    out = substring.substring_dup_coverage(_docs_ds(sf_dir), min_len=30).to_pandas()
    return (
        out.reindex(columns=["doc_id", "n_chars", "covered", "dup_frac"])
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

def _weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Efraimidis–Spirakis weighted sample without replacement (k=20 by
    n_chars): per-batch local top-k, O(k × blocks) driver merge."""
    import ray.data as rd

    from harvester_ray.ops import sampling

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    )
    return sampling.weighted_sample(docs, k=20, weight_col="n_chars")


def _range_join_bands(sf_dir: str) -> pd.DataFrame:
    """Interval join: events.value against 25 overlapping price bands
    derived from nation (band k = [20k, 20k+24.5]); per-band event count +
    value sum. Range-partitioned domain, intervals replicated only to
    overlapping buckets (pipelines/rangejoin.py)."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from harvester_ray.pipelines import rangejoin

    events = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "value"]
    )

    def to_bands(t: pa.Table) -> pa.Table:
        k = t["n_nationkey"].combine_chunks().cast(pa.float64())
        lo = pc.multiply(k, 20.0)
        return pa.table(
            {
                "band": t["n_nationkey"].combine_chunks().cast(pa.int64()),
                "lo": lo,
                "hi": pc.add(lo, 24.5),
            }
        )

    bands = rd.read_parquet(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey"]
    ).map_batches(to_bands, batch_format="pyarrow", zero_copy_batch=True)
    joined = rangejoin.range_join(
        events,
        bands,
        value_col="value",
        lo_col="lo",
        hi_col="hi",
        left_cols=["event_id", "value"],
        right_cols=["band"],
    )
    agg = joined.groupby("band").aggregate(
        Count(alias_name="n_events"), Sum("value", alias_name="sum_value")
    )
    out = agg.to_pandas().sort_values("band").reset_index(drop=True)
    out["sum_value"] = out["sum_value"].round(4)
    return out


def _hybrid_search(sf_dir: str) -> pd.DataFrame:
    """Hybrid lexical+dense retrieval: BM25 top-50 candidates re-ranked by
    embedding cosine vs vec 0, normalized linear fusion (ops/similarity.py)."""
    reader = index_query.IndexReader(_documents_index(sf_dir))
    return similarity.hybrid_search(
        reader, _emb_ds(sf_dir), BM25_QUERY_AND, query_vec_id=0, k=10, k_cand=50
    )


def _rrf_search(sf_dir: str) -> pd.DataFrame:
    """Reciprocal-rank fusion (the ES/OpenSearch default hybrid combiner):
    BM25 top-50 ∪ cosine-kNN top-50 fused by 1/(60+rank) sums."""
    reader = index_query.IndexReader(_documents_index(sf_dir))
    return similarity.rrf_fusion(
        reader, _emb_ds(sf_dir), BM25_QUERY_AND, query_vec_id=0, k=10, k_cand=50
    )


def _pack_sequences(sf_dir: str) -> pd.DataFrame:
    """Virtual-concatenation sequence packing (capacity 512 tokens) via a
    two-phase distributed prefix scan (ops/packing.py)."""
    from harvester_ray.ops import packing

    out = packing.pack_sequences(_docs_ds(sf_dir), capacity=512).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _highlight(sf_dir: str) -> pd.DataFrame:
    """Snippet highlighting over the BM25 top-10 (ES highlight-block
    analog): broadcast-id semi-join text fetch, O(k) snippet assembly."""
    from harvester_ray.index import extras

    reader = index_query.IndexReader(_documents_index(sf_dir))
    return extras.highlight_topk(reader, _docs_ds(sf_dir), BM25_QUERY_AND, k=10)


def _pagerank(sf_dir: str) -> pd.DataFrame:
    """Distributed PageRank (5 fixed-point rounds) over the
    customer→supplier order graph; see pipelines/graph.py."""
    from harvester_ray.pipelines import graph

    return graph.customer_supplier_pagerank(sf_dir)


def _range_join_sql() -> str:
    return """
SELECT n.n_nationkey AS band,
       count(*) AS n_events,
       round(sum(e.value), 4) AS sum_value
FROM events e
JOIN nation n
  ON e.value BETWEEN n.n_nationkey * 20.0 AND n.n_nationkey * 20.0 + 24.5
GROUP BY band
ORDER BY band
""".strip()


SPLIT_SPEC = {"train": 0.8, "val": 0.1, "test": 0.1}
STRATA_RATES = {"en": 0.25, "de": 0.5}


def _sample_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split by Knuth multiplicative hash of
    doc_id — row-local, partition-independent; per-split doc and char
    totals."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from harvester_ray.ops import sampling

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    )
    tagged = sampling.assign_split(docs, splits=SPLIT_SPEC)
    out = (
        tagged.groupby("split")
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_weight"))
        .to_pandas()
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_weight"] = out["sum_weight"].astype("int64")
    return out.sort_values("split").reset_index(drop=True)


def _stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Per-language mixture downsampling (en 25%, de 50%, rest kept):
    deterministic hash-fraction keep rule, no shuffle."""
    import ray.data as rd

    from harvester_ray.ops import sampling

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    )
    out = sampling.stratified_sample(
        docs, strata_col="lang", rates=STRATA_RATES
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


DECOMPOUND_QUERY = "sparkscan window"  # "sparkscan" is OOV; parts are in-vocab
SYN_MAP = {"rapid": ["fast"], "huge": ["big"]}
SYN_QUERY = "rapid huge"


def _decompound_search(sf_dir: str) -> pd.DataFrame:
    """Dictionary decompounding at query time (the Dutch decompound word
    list analog, opensearch/config/decompound_word_list.nl.txt via
    settings/base.py:308-309): OOV compound query terms split against the
    index's own term dictionary, then OR-BM25 over the expanded set."""
    from harvester_ray.index import synonyms

    reader = index_query.IndexReader(_documents_index(sf_dir))
    out = synonyms.search_expanded(reader, DECOMPOUND_QUERY, k=10).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


from harvester_ray.index import synonyms as _synonyms_mod


DECOMPOUND_WORDLIST = [
    "tab", "able", "cust", "omer", "me", "win", "dow", "str", "ream",
    "ue", "vec", "ect", "ord", "er", "filter", "zzz",
]


def _decompound_wordlist(sf_dir: str) -> pd.DataFrame:
    """Decompounding against an EXTERNAL word list — the reference's real
    dictionary_decompounder semantics (opensearch/config/
    decompound_word_list.nl.txt wired at settings/base.py:308-309):
    distinct (term, subword) pairs where a broadcast word-list entry occurs
    as a substring of a corpus token."""
    import ray.data as rd

    from harvester_ray.index import synonyms

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    return synonyms.dictionary_decompound(docs, DECOMPOUND_WORDLIST)


def _synonym_search(sf_dir: str) -> pd.DataFrame:
    """Query-time synonym expansion (OpenSearch synonym-filter analog):
    broadcast synonym map, OR-BM25 over original + synonym terms."""
    from harvester_ray.index import synonyms

    reader = index_query.IndexReader(_documents_index(sf_dir))
    out = synonyms.search_expanded(reader, SYN_QUERY, synonyms=SYN_MAP, k=10).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


BM25F_QUERY = "spark src3"
BM25F_WEIGHTS = {"text": 1.0, "source": 2.0}


def _field_index(sf_dir: str, col: str) -> str:
    """A per-field index (BM25F leg) over one attribute column as its text."""
    import ray.data as rd

    from harvester_ray.index import manifest as mf

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"docidx-field-{col}-{tag}")
    if mf.current_version(root) is None:
        docs = os.path.join(sf_dir, "documents.parquet")
        ds = rd.read_parquet(docs, columns=["doc_id", col])
        index_build.build_index(ds, root, text_col=col, input_desc=docs)
    return root


def _bm25f(sf_dir: str) -> pd.DataFrame:
    """Multi-field weighted BM25 (simple_query_string fields ["text",
    "source^2"] parity, core/models/search/query.py:73-98): per-field
    indexes scored independently, weighted sum, OR semantics."""
    from harvester_ray.index import bm25f

    readers = {
        "text": index_query.IndexReader(_documents_index(sf_dir)),
        "source": index_query.IndexReader(_field_index(sf_dir, "source")),
    }
    return bm25f.search_weighted_fields(readers, BM25F_WEIGHTS, BM25F_QUERY, k=10)


def _bm25f_dismax(sf_dir: str) -> pd.DataFrame:
    """dis_max / best_fields multi_match (tie_breaker=0.3): best single
    field + 0.3 × the rest, exact-integer ranking key on both sides."""
    from harvester_ray.index import bm25f

    readers = {
        "text": index_query.IndexReader(_documents_index(sf_dir)),
        "source": index_query.IndexReader(_field_index(sf_dir, "source")),
    }
    return bm25f.search_dis_max(
        readers, BM25F_WEIGHTS, BM25F_QUERY, k=10, tie_breaker=0.3
    )


CROSS_FIELDS_QUERY = "spark window"
CROSS_FIELDS_WEIGHTS = {"text": 1.0, "title": 2.0}
TITLE_CHARS = 60  # derived title field = leading slice of the body


def _title_index(sf_dir: str) -> str:
    """Title-field BM25F leg: first TITLE_CHARS chars of the body as a
    derived 'title' column (the canonical title/body cross_fields split —
    vocabulary genuinely shared with the text leg)."""
    import pyarrow.compute as _pc
    import ray.data as rd

    from harvester_ray.index import manifest as mf

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(_SCRATCH, f"docidx-title-{tag}")
    if mf.current_version(root) is None:
        docs = os.path.join(sf_dir, "documents.parquet")

        def add_title(t):
            return t.append_column(
                "title",
                _pc.utf8_slice_codeunits(
                    t["text"].combine_chunks(), 0, TITLE_CHARS
                ),
            )

        ds = rd.read_parquet(docs, columns=["doc_id", "text"]).map_batches(
            add_title, batch_format="pyarrow", zero_copy_batch=True
        )
        index_build.build_index(ds, root, text_col="title", input_desc=docs)
    return root


def _bm25f_cross(sf_dir: str) -> pd.DataFrame:
    """multi_match type=cross_fields: term-centric blended-df combiner —
    each term scores once (its best field), not once per field. The
    title/body legs share vocabulary, so max-per-term visibly diverges
    from both the weighted sum and whole-field dis_max."""
    from harvester_ray.index import bm25f

    readers = {
        "text": index_query.IndexReader(_documents_index(sf_dir)),
        "title": index_query.IndexReader(_title_index(sf_dir)),
    }
    return bm25f.search_cross_fields(
        readers, CROSS_FIELDS_WEIGHTS, CROSS_FIELDS_QUERY, k=10
    )


def _pii_scrub(sf_dir: str) -> pd.DataFrame:
    """PII redaction (emails/phones/IPv4 → placeholder tokens) with audit
    counts. The synthetic corpus has no PII, so both sides inject identical
    deterministic spans derived from doc_id before scrubbing — the gate
    then checks the regex semantics, not a trivially-zero pass-through."""
    import pyarrow.compute as pc

    from harvester_ray.ops import pii

    def inject(t):
        ids = t["doc_id"].combine_chunks().cast(pa.int64())
        s = pc.cast(ids, pa.string())
        m1000 = pc.utf8_lpad(pc.cast(_np_mod(ids, 1000), pa.string()), 3, "0")
        m10000 = pc.utf8_lpad(pc.cast(_np_mod(ids, 10000), pa.string()), 4, "0")
        txt = pc.binary_join_element_wise(
            t["text"].combine_chunks(),
            " contact user", s, "@example.org ip 10.",
            pc.cast(_np_mod(ids, 256), pa.string()), ".0.",
            pc.cast(_np_mod(ids, 250), pa.string()),
            " call +1-555-", m1000, "-", m10000,
            "",
        )
        return pa.table({"doc_id": ids, "text": txt})

    out = pii.scrub(_docs_ds(sf_dir).map_batches(inject, batch_format="pyarrow")).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _np_mod(arr: "pa.Array", m: int) -> "pa.Array":
    return pa.array(np.asarray(arr) % m, pa.int64())


def _approx_distinct(sf_dir: str) -> pd.DataFrame:
    """KMV distinct-count sketch over events.user_id (k=64 < true
    cardinality so the estimator path, not the exact path, is exercised);
    the sketch state itself is verified value-identically vs SQL."""
    import ray.data as rd

    from harvester_ray.ops import sketch

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id"])
    return sketch.kmv_distinct(ds, "user_id", k=64)


def _ev_ds(sf_dir: str, columns):
    import ray.data as rd

    return rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=list(columns)
    )


def _ev_with_hod(sf_dir: str):
    """Events columns (user_id, event_type) plus a derived hour-of-day
    column — ≡ SQL extract(hour FROM ts) for naive UTC timestamps."""
    import pyarrow as pa

    def add_hod(batch: pa.Table) -> pa.Table:
        import numpy as np

        us = batch["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64())
        h = (us.to_numpy(zero_copy_only=False) // 3_600_000_000) % 24
        return pa.table(
            {
                "user_id": batch["user_id"],
                "event_type": batch["event_type"],
                "hod": pa.array(h.astype(np.int64), pa.int64()),
            }
        )

    return _ev_ds(sf_dir, ("user_id", "event_type", "ts")).map_batches(
        add_hod, batch_format="pyarrow", zero_copy_batch=True
    )


def _running_total(sf_dir: str) -> pd.DataFrame:
    """Per-user cumulative value (window-function analog): groupby(user) +
    in-group sort + exact integer-micros cumsum (pipelines/analytics.py)."""
    return _analytics.running_total(
        _ev_ds(sf_dir, ("event_id", "user_id", "ts", "value"))
    )


def _funnel(sf_dir: str) -> pd.DataFrame:
    """view→click→purchase funnel: per-user earliest strictly-ordered chain
    inside map_groups, then a tiny per-stage count aggregate."""
    return _analytics.funnel(_ev_ds(sf_dir, ("user_id", "event_type", "ts")))


def _value_histogram(sf_dir: str) -> pd.DataFrame:
    """Equi-width histogram per event_type over the exact global [min,max]:
    exact bounds aggregate + per-batch bincount partials, no raw shuffle."""
    return _analytics.value_histogram(
        _ev_ds(sf_dir, ("event_type", "value")), nbins=20
    )


def _outliers_mad(sf_dir: str) -> pd.DataFrame:
    """Robust per-type outliers (|x−median| > 3·MAD) via the same grouped
    exchange as value_quantiles; medians ≡ DuckDB median."""
    return _analytics.outliers_mad(
        _ev_ds(sf_dir, ("event_id", "event_type", "value")), k=3.0
    )


def _user_timeline(sf_dir: str) -> pd.DataFrame:
    """Ordered string_agg per user (ContentContainer ordered-assembly
    analog): per-group time-sorted event-type concatenation."""
    return _analytics.user_timeline(
        _ev_ds(sf_dir, ("user_id", "event_type", "ts", "event_id"))
    )


def _bloom_semijoin(sf_dir: str) -> pd.DataFrame:
    """Bloom-filter pushdown audit: filter lineitem by a 16384-bit bloom of
    urgent-order keys, report pass/true/false-positive counts — positions
    from md5 double hashing so the oracle reproduces them exactly."""
    import ray.data as rd

    probe = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_orderkey"]
    )
    build = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    ).filter(expr="o_orderpriority == '1-URGENT'")
    return _bloom.bloom_semijoin_stats(
        probe, build, probe_key="l_orderkey", build_key="o_orderkey"
    )


def _event_transitions(sf_dir: str) -> pd.DataFrame:
    """Markov transition counts (lag() window analog): per-user consecutive
    pairs in map_groups, tiny pair-vocabulary fold."""
    return _analytics.event_transitions(
        _ev_ds(sf_dir, ("user_id", "event_type", "ts", "event_id"))
    )


def _pivot_hourly(sf_dir: str) -> pd.DataFrame:
    """Crosstab hour-of-day × event-type counts: per-batch bincount
    partials over a 24×5 grid, driver reshape, no shuffle."""
    return _analytics.pivot_hourly(_ev_ds(sf_dir, ("event_type", "ts")))


def _zscore(sf_dir: str) -> pd.DataFrame:
    """Per-type z-score standardization from exact integer moment partials
    + broadcast moments — two streaming passes, no shuffle."""
    return _analytics.zscore_normalize(
        _ev_ds(sf_dir, ("event_id", "event_type", "value"))
    )


def _regression_by_type(sf_dir: str) -> pd.DataFrame:
    """Per-type OLS of value vs time from mergeable integer sufficient
    statistics — zero-shuffle regr_slope analog (pipelines/analytics.py)."""
    return _analytics.regression_by_group(
        _ev_ds(sf_dir, ("event_type", "ts", "value"))
    )


def _docs_ds(sf_dir: str, columns=("doc_id", "text")):
    import ray.data as rd

    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=list(columns)
    )


def _tfidf_keywords(sf_dir: str) -> pd.DataFrame:
    """Per-doc top-5 TF-IDF terms: one partial-fold pass for (df, N), one
    broadcast-vocab scoring pass with per-batch vectorized top-k
    (ops/keywords.py)."""
    return _keywords.tfidf_keywords(_docs_ds(sf_dir), k=5)


def _collocations(sf_dir: str) -> pd.DataFrame:
    """Corpus bigram collocations by PMI from one partial-count pass; the
    log argument is an exact integer ratio so oracle parity is ulp-safe."""
    return _keywords.collocations_pmi(_docs_ds(sf_dir, ("text",)), k=50, min_count=5)


def _source_jaccard(sf_dir: str) -> pd.DataFrame:
    """Exact shingle-set Jaccard between every source pair: one bucketed
    all-to-all of distinct (shingle_hash, source) pairs, closed-form pair
    enumeration per bucket, tiny driver fold (ops/compare.py)."""
    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "text"]
    )
    return _compare.source_jaccard(ds, shingle_n=5)


def _source_ablation(sf_dir: str) -> pd.DataFrame:
    """Leave-one-source-out contribution table: per-source doc/token share,
    exclusive vocabulary, corpus mean tokens without the source
    (ops/compare.source_ablation — one bucketed pass, integer partials)."""
    return _compare.source_ablation(_docs_ds(sf_dir, ("doc_id", "text", "source")))


def _approx_distinct_by_user(sf_dir: str) -> pd.DataFrame:
    """Per-user HLL distinct event_type counts (m=64): batches emit at most
    groups x m register rows; one groupby(user_id) max-folds and finalizes.
    State exact vs SQL, estimate to 2 decimals."""
    import ray.data as rd

    from harvester_ray.ops import sketch

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )
    out = sketch.hll_distinct_by(ds, "user_id", "event_type", p=6).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def _heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Misra-Gries heavy hitters + exact rescreen over events.user_id:
    bounded-memory sketch finds candidates, a second counting pass makes
    the surfaced counts exact (identical to SQL top-20 whenever the MG
    guarantee covers the top set; tiny-capacity behavior unit-tested)."""
    import ray.data as rd

    from harvester_ray.ops import sketch

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["user_id"])
    return sketch.heavy_hitters(ds, "user_id", n=20, capacity=4096)


def _approx_distinct_hll(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog sketch over events.event_id (m=64 registers, raw
    estimator regime: true cardinality >> 2.5m); register state verified
    value-identically vs SQL, estimate to 2 decimals."""
    import ray.data as rd

    from harvester_ray.ops import sketch

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["event_id"])
    return sketch.hll_distinct(ds, "event_id", p=6)


def _curate_corpus(sf_dir: str) -> pd.DataFrame:
    """End-to-end curation: repetition filter → benchmark decontamination →
    train-split selection (one fused map pass, zero shuffle) → near-dup
    dedup over the survivors (the only shuffling stage, run last)."""
    import ray.data as rd

    from harvester_ray.pipelines import curate

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source", "n_chars"],
    )

    def bench_slice(t):
        ids = np.asarray(t["doc_id"])
        return t.filter(ids % 13 == 0)

    bench = _docs_ds(sf_dir).map_batches(
        bench_slice, batch_format="pyarrow", zero_copy_batch=True
    )
    out = curate.curate(docs, bench).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _media_parquet() -> str:
    """Materialize the deterministic synth media table (pure pyarrow, cached)
    so the multimodal oracles can read the exact same payload bytes in SQL."""
    import pyarrow.parquet as pq

    from harvester_ray.ops import multimodal

    os.makedirs(_SCRATCH, exist_ok=True)
    path = os.path.join(_SCRATCH, "media-s42-n64.parquet")
    if not os.path.exists(path):
        pq.write_table(multimodal.synth_media(n_items=64, seed=42), path)
    return path


def _multimodal_decode(sf_dir: str) -> pd.DataFrame:
    """Multimodal decode/feature plumbing: binary payload column → actor-pool
    decode stage → typed feature rows. The 16-dim sha256 feature vector has
    no SQL surface (dropped here as in any export), but technical_type and
    payload_bytes are value-checked against an octet_length/CASE oracle over
    the same materialized payloads."""
    import ray.data as rd

    from harvester_ray.ops import multimodal

    ds = rd.from_arrow(multimodal.synth_media(n_items=64, seed=42))
    out = multimodal.decode_features(ds).to_pandas()
    out = out.drop(columns=["features"])
    return out.sort_values("item_id").reset_index(drop=True)


def _frame_sample(sf_dir: str) -> pd.DataFrame:
    """Video frame-sampling fan-out: one video row → many sampled frame rows
    (deterministic byte-slice frames). The frame payload itself is binary
    (dropped), but the fan-out shape — (item_id, frame_idx, frame_bytes) per
    sampled frame — is value-checked against a LATERAL range oracle."""
    import ray.data as rd

    from harvester_ray.ops import multimodal

    ds = rd.from_arrow(multimodal.synth_media(n_items=64, seed=42))
    out = multimodal.frame_sample(ds, every_n=4, frame_stride=512).to_pandas()
    out = out.drop(columns=["frame_payload"])
    return out.sort_values(["item_id", "frame_idx"]).reset_index(drop=True)


def _suggest_terms(sf_dir: str) -> pd.DataFrame:
    """Prefix autocomplete over the term dictionary (autocomplete analog,
    harvester/search/views/autocomplete.py:25-33)."""
    from harvester_ray.index import extras, query as iq

    reader = iq.IndexReader(_documents_index(sf_dir))
    return extras.suggest(reader, "s", limit=10)


DYM_QUERY = "custmer filter tabel windw"


def _did_you_mean(sf_dir: str) -> pd.DataFrame:
    """Spelling suggestions (``did_you_mean`` in every reference search
    response, search/views/document.py:139): ES suggest_mode=missing —
    absent tokens corrected to the min-edit-distance vocab term (first char
    fixed, <=2 edits, ties by df desc then term asc)."""
    from harvester_ray.index import query as iq

    return iq.IndexReader(_documents_index(sf_dir)).did_you_mean(DYM_QUERY)


def _search_paged(sf_dir: str) -> pd.DataFrame:
    """Relevance pagination (page/page_size, search/views/document.py:27-29):
    page 2 of the BM25 ranking — ES from+size semantics."""
    from harvester_ray.index import query as iq

    reader = iq.IndexReader(_documents_index(sf_dir))
    out = reader.search_page(BM25_QUERY_AND, page=2, page_size=10, mode="and")
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]].reset_index(drop=True)


def _search_ordered(sf_dir: str) -> pd.DataFrame:
    """Attribute-field ordering (ordering='-source',
    search/views/document.py:42-51): relevance as predicate, stored-attr
    global sort, first page."""
    from harvester_ray.index import query as iq

    reader = iq.IndexReader(_documents_index(sf_dir))
    out = reader.search_page(
        "table", page=1, page_size=20, mode="and", ordering="-source"
    )
    out["rank"] = out["rank"].astype("int32")
    return out[["rank", "doc_id", "source"]].reset_index(drop=True)


def _matches_by_source(sf_dir: str) -> pd.DataFrame:
    """Exact results_total filter-count aggregation per source field
    (harvester/search/views/document.py:129-143)."""
    from harvester_ray.index import query as iq

    reader = iq.IndexReader(_documents_index(sf_dir))
    got = reader.match_counts(BM25_QUERY_AND, mode="and", count_fields=["source"])
    items = sorted(got["filter_counts"]["source"].items())
    return pd.DataFrame({"source": [k for k, _ in items], "n": [v for _, v in items]})


SAMPLER_TOP = 100


def _sampler_terms(sf_dir: str) -> pd.DataFrame:
    """ES ``sampler`` aggregation with a terms sub-aggregation: the source
    breakdown of only the top-``SAMPLER_TOP`` scored hits (exact global
    top-N regime — the (score desc, doc_id) ranking is a total order, so
    the rank-100 boundary is deterministic on both sides), unlike
    ``matches_by_source`` which counts the full match set."""
    import pyarrow.dataset as pads

    hits = _bm25(sf_dir, BM25_QUERY_OR, "or", k=SAMPLER_TOP)
    tbl = pads.dataset(os.path.join(sf_dir, "documents.parquet")).to_table(
        columns=["doc_id", "source"],
        filter=pads.field("doc_id").isin(hits["doc_id"].tolist()),
    )
    g = tbl.to_pandas().groupby("source", as_index=False).size().rename(columns={"size": "n"})
    g["n"] = g["n"].astype("int64")
    return g.sort_values(["n", "source"], ascending=[False, True], kind="stable").reset_index(drop=True)


PHRASE_QUERY = "part filter"
PHRASE_QUERY3 = "part filter scan"
PROX_SLOP = 2
PROX_SLOP3 = 4


def _phrase(sf_dir: str, phrase: str, k: int = 10) -> pd.DataFrame:
    """Exact-phrase BM25 top-k over the positional documents index
    (simple_query_string quoted-phrase parity)."""
    root = _documents_index(sf_dir)
    out = index_query.IndexReader(root).search_phrase(phrase, k=k).to_pandas()
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _proximity(sf_dir: str, phrase: str, slop: int, k: int = 10) -> pd.DataFrame:
    """Ordered-proximity BM25 top-k (ES match_phrase with slop): terms in
    order within a window of len(terms)+slop positions, span frequency as
    tf (greedy-chain count ≡ the oracle's exists-chain count)."""
    root = _documents_index(sf_dir)
    out = (
        index_query.IndexReader(root).search_proximity(phrase, k=k, slop=slop).to_pandas()
    )
    out["score"] = out["score"].round(4)
    return out[["doc_id", "score"]]


def _asof_events(sf_dir: str) -> pd.DataFrame:
    """As-of join: each order gains the latest event by the same user at or
    before the order date (ties on ts broken by max event_id). Custom
    operator the reference lacks — closest analog is the carry-forward
    upsert (core/models/harvest.py:56-84); composed as hash-bucket
    co-partition + per-bucket vectorized merge_asof."""
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.pipelines import asof

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    ev = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "value", "event_id"],
    )

    def ren(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_custkey": t["user_id"], "ts": t["ts"], "value": t["value"], "event_id": t["event_id"]}
        )

    out = asof.asof_join(
        orders,
        ev.map_batches(ren, batch_format="pyarrow"),
        on="o_custkey",
        left_ts="o_orderdate",
        right_ts="ts",
        value_cols=["value", "event_id"],
        tiebreak=["event_id"],
        n_partitions=16,
    ).to_pandas()
    # NULL (no event at or before the order) -> sentinels, matching the
    # oracle's coalesce, so both sides hash with identical dtypes
    out["last_value"] = out["value"].fillna(-1.0).round(4)
    out["last_event_id"] = out["event_id"].fillna(-1).astype("int64")
    out["last_ts"] = out["ts"].fillna(pd.Timestamp("1970-01-01"))
    out = out[["o_orderkey", "o_custkey", "o_orderdate", "last_ts", "last_value", "last_event_id"]]
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _ranking_eval_sql() -> str:
    from harvester_ray.index import evaluate

    return evaluate.evaluate_ranking_sql("documents", k=10)


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: build the versioned BM25
    segment index over `documents`, search, return the top-k table."""
    return _bm25("/root/testdata/sf0.001", BM25_QUERY_AND, "and", k=10)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # --- relational operator coverage (SURVEY §2.4-2.7) ---------------
        "q1_pricing_summary": relational.q1_pricing_summary,
        "revenue_by_nation": relational.revenue_by_nation,
        "join_revenue_by_priority": relational.hash_join_order_lineitem,
        "join_shuffle_fallback": relational.hash_join_order_lineitem_shuffle,
        "merge_child_table": _merge_child_table,
        "seed_merge": _seed_merge,
        "seed_back_fill": _seed_back_fill,
        "readback_documents": _readback_documents,
        "check_urls": _check_urls,
        "vocab_ancestors": _vocab_ancestors,
        "parse_seed_data": _parse_seed_data,
        "set_metadata": _set_metadata,
        "to_search": _to_search,
        "generate_previews": _generate_previews,
        "translate_values": _translate_values,
        "file_split": _file_split,
        "topk_orders": relational.topk_orders,
        "filter_revenue": relational.filter_revenue,
        "events_facets": relational.events_facets,
        "value_quantiles": relational.value_quantiles,
        "events_hourly_window": relational.events_hourly_window,
        "events_sliding_window": _sliding_window,
        "session_windows": _session_windows,
        "bm25_filtered": _bm25_filtered,
        "min_score": _min_score,
        "sessionize": relational.sessionize,
        # report_dataset_version: per-collection state counts with the
        # duplicate-name collection skip (reference core/logging.py:112-133)
        "report_dataset_version": relational.report_dataset_version,
        # Matomo end-to-end: sessionize -> visit filters -> search/click/
        # download DFA -> document-language join -> per-query ranking keys
        # (reference core/analysis/matomo.py:30-69). 1-day visit gap: the
        # synthetic event log is too sparse for 30-min visits to have >=3
        # actions.
        "visits_to_rankings": lambda sf: relational.visits_to_rankings(
            sf, gap_minutes=1440
        ),
        "last_event_per_user": relational.last_event_per_user,
        "top_events_per_user": relational.top_events_per_user,
        "events_rollup": relational.events_rollup,
        "q5_local_supplier": relational.q5_local_supplier,
        "pack_sequences": _pack_sequences,
        # the synthetic docs contain no '. ' — plant sentence boundaries by
        # replacing the frequent token ' table ' with '. ' IDENTICALLY on
        # both sides (left-to-right non-overlapping replace in Arrow and
        # DuckDB alike), so the packing is genuinely multi-sentence
        "sentence_pack": lambda sf: _packing.sentence_pack(
            _docs_ds(sf, ("doc_id", "text")).map_batches(
                _plant_sentences, batch_format="pyarrow"
            ),
            capacity=64,
        ).to_pandas().sort_values(["doc_id", "sent_idx"]).reset_index(drop=True),
        "span_corruption": lambda sf: _packing.span_corruption(
            _docs_ds(sf, ("doc_id", "text"))
        ),
        "fim_split": lambda sf: _packing.fim_split(_docs_ds(sf, ("doc_id", "text"))),
        "length_buckets": lambda sf: _packing.length_buckets(_docs_ds(sf)),
        "asof_join": _asof_events,
        "distinct_segments": relational.distinct_segments,
        "state_counts": relational.state_counts,
        # --- full-text index + BM25 (north_rule core) ---------------------
        "doc_stats": _doc_stats,
        "corpus_stats": _corpus_stats,
        "index_stats": _index_stats,
        "index_diff": _index_diff,
        "set_integrity": _set_integrity,
        "term_df_top50": _term_df_top50,
        "term_df_shuffle": _term_df_shuffle,
        "bm25_topk": lambda sf: _bm25(sf, BM25_QUERY_AND, "and"),
        "bm25_topk_v2": lambda sf: _bm25_v2(sf, BM25_QUERY_V2, "and"),
        "phrase_search_v2": lambda sf: _phrase_v2(sf, PHRASE_QUERY_V2),
        "similarity_lmd": lambda sf: _similarity(sf, "lm_dirichlet"),
        "similarity_classic": lambda sf: _similarity(sf, "classic"),
        "similarity_jm": lambda sf: _similarity(sf, "lm_jelinek_mercer"),
        "bm25_topk_multi": lambda sf: _bm25(sf, BM25_QUERY_AND2, "and"),
        "bm25_or_topk": lambda sf: _bm25(sf, BM25_QUERY_OR, "or"),
        "bm25_not": _bm25_not,
        "author_suggestions": _author_suggestions,
        "bm25_boosting": _bm25_boosting,
        "snapshot_restore": _snapshot_restore,
        "terms_agg": _terms_agg,
        "aggs_dsl": _aggs_dsl,
        "top_hits": _top_hits,
        "mget_docs": _mget_docs,
        "update_docs": _update_docs,
        "analyze_tokens": _analyze_tokens,
        "termvectors": _termvectors,
        "phrase_suggest": _phrase_suggest,
        "hard_negatives": _hard_negatives,
        "bm25_msm": _bm25_msm,
        "bm25_prefix": _bm25_prefix,
        "search_cursor": _search_cursor,
        "scroll_pages": _scroll_pages,
        "search_stats": _search_stats,
        "filters_agg": _filters_agg,
        "range_agg": _range_agg,
        "rare_terms": _rare_terms,
        "bool_query": _bool_query,
        "adjacency_matrix": _adjacency_matrix,
        "composite_agg": _composite_agg,
        "multi_terms_agg": _multi_terms_agg,
        "percentile_ranks": _percentile_ranks,
        "boxplot_agg": lambda sf: __import__(
            "harvester_ray.index.extras", fromlist=["x"]
        ).boxplot_agg(
            index_query.IndexReader(_documents_index(sf)), BM25_QUERY_OR,
            mode="or",
        ),
        "attr_value_suggest": lambda sf: __import__(
            "harvester_ray.index.extras", fromlist=["x"]
        ).attr_value_suggest(
            index_query.IndexReader(_documents_index(sf)), "source", "src1",
            limit=10,
        ),
        "conv_final_roles": lambda sf: _transcripts_mod.conv_final_roles(_tds(sf)),
        "fuzzy_search": _fuzzy_search,
        "explain_score": _explain_score,
        "percolate": _percolate,
        "search_collapse": _search_collapse,
        "significant_terms": _significant_terms,
        "rescore_topk": _rescore,
        "wildcard_search": _wildcard,
        "regexp_search": _regexp_search,
        "match_fuzzy": _match_fuzzy,
        "random_sample_search": _search_random,
        "federated_search": _federated_search,
        "quality_model_scores": _quality_scores,
        "msearch": _msearch,
        "bm25_brute_force": lambda sf: _bm25_brute(sf, BM25_QUERY_AND, "and"),
        "phrase_search": lambda sf: _phrase(sf, PHRASE_QUERY),
        "phrase_search_3": lambda sf: _phrase(sf, PHRASE_QUERY3),
        "proximity_search": lambda sf: _proximity(sf, PHRASE_QUERY, PROX_SLOP),
        "proximity_search_3": lambda sf: _proximity(sf, PHRASE_QUERY3, PROX_SLOP3),
        "bm25f_fields": _bm25f,
        "bm25f_dismax": _bm25f_dismax,
        "bm25f_cross_fields": _bm25f_cross,
        "decompound_search": _decompound_search,
        "decompound_wordlist": _decompound_wordlist,
        "synonym_search": _synonym_search,
        "search_paged": _search_paged,
        "search_ordered": _search_ordered,
        "did_you_mean": _did_you_mean,
        "transcript_bm25": _transcript_bm25,
        "conv_bm25": _conv_bm25,
        "conv_has_child": _conv_has_child,
        "has_parent": _has_parent,
        # --- transcript-table analytics (north-rule input shape) ----------
        "conv_flatten": lambda sf: _transcripts_mod.conv_flatten(_tds(sf)),
        "conv_flatten_sorted": lambda sf: _transcripts_mod.conv_flatten_sorted(
            _transcript_files()
        ),
        "turn_overlap_sorted": lambda sf: _transcripts_mod.turn_overlap_sorted(
            _transcript_files()
        ),
        "conv_branches": _conv_branches,
        "best_of_n": _best_of_n,
        "conv_skeletons": _conv_skeletons,
        "preference_pairs": _preference_pairs,
        "conv_continuations": _conv_continuations,
        "conv_stats": lambda sf: _transcripts_mod.conv_stats(_tds(sf)),
        "role_stats": lambda sf: _transcripts_mod.role_stats(_tds(sf)),
        "tool_usage": lambda sf: _transcripts_mod.tool_usage(_tds(sf)),
        "conv_tail": lambda sf: _transcripts_mod.conv_tail(_tds(sf)),
        "conv_head_tail": lambda sf: _transcripts_mod.conv_head_tail(_tds(sf)),
        "sft_examples": lambda sf: _transcripts_mod.sft_examples(_tds(sf)),
        "conv_fit_context": lambda sf: _transcripts_mod.conv_fit_context(_tds(sf)),
        "merge_turns": lambda sf: _transcripts_mod.merge_consecutive_turns(_tds(sf)),
        "date_histogram": _date_histogram,
        "bm25_range": _bm25_range,
        "recency_boost": _recency_boost,
        "function_score": _function_score,
        "span_first": _span_first,
        "span_not": _span_not,
        "match_phrase_prefix": _match_phrase_prefix,
        "match_bool_prefix": _match_bool_prefix,
        "terms_set": _terms_set,
        "dsl_query": _dsl_query,
        "search_request": _search_request,
        "span_or": _span_or,
        "span_multi": _span_multi,
        "intervals": _intervals,
        "span_containing": _span_containing,
        "span_within": _span_within,
        "matrix_stats": _matrix_stats,
        "reindex_search": _reindex_search,
        "delete_by_query": _delete_by_query,
        "assemble_context": _assemble_context,
        "export_search": _export_search,
        "passage_bm25": _passage_bm25,
        "update_by_query": _update_by_query,
        "lang_routed_search": _lang_routed_search,
        "query_string": _query_string,
        "percolate_qs": _percolate_qs,
        "role_token_quantiles": lambda sf: _transcripts_mod.role_token_quantiles(_tds(sf)),
        "system_prompt_reuse": _system_prompt_reuse,
        "conv_template_dedup": _conv_template_dedup,
        "pinned_query": _pinned_query,
        "exists_filter": _exists_filter,
        "histogram_pipeline": _histogram_pipeline,
        "moving_fn": _moving_fn,
        "bucket_script": _bucket_script,
        "bucket_selector": _bucket_selector,
        "percentiles_bucket": _percentiles_bucket,
        "normalize_agg": _normalize_agg,
        "rate_agg": _rate_agg,
        "moving_percentiles": _moving_percentiles,
        "extended_stats_bucket": _extended_stats_bucket,
        "serial_diff": _serial_diff,
        "bucket_sort": _bucket_sort_agg,
        "cumulative_cardinality": _cumulative_cardinality,
        "weighted_avg": _weighted_avg,
        "top_metrics": _top_metrics,
        "diversified_sampler": _diversified_sampler,
        "auto_date_histogram": _auto_date_histogram,
        "bucket_stats": lambda sf: __import__(
            "harvester_ray.index.extras", fromlist=["x"]
        ).bucket_stats(
            index_query.IndexReader(_turnattr_index()), HAS_CHILD_QUERY,
            ts_field="ts", interval_us=3_600_000_000, mode="or",
        ),
        "conv_depth_histogram": lambda sf: _transcripts_mod.conv_depth_histogram(_tds(sf)),
        "verbosity_by_depth": lambda sf: _transcripts_mod.verbosity_by_depth(_tds(sf)),
        "markov_entropy_rate": lambda sf: _transcripts_mod.markov_entropy_rate(_tds(sf)),
        "role_transitions": lambda sf: _transcripts_mod.role_transitions(_tds(sf)),
        "conv_windows": lambda sf: _transcripts_mod.conv_windows(_tds(sf)),
        "turn_overlap": lambda sf: _transcripts_mod.turn_overlap(_tds(sf)),
        "tool_chains": lambda sf: _transcripts_mod.tool_chains(_tds(sf)),
        "tool_loops": lambda sf: _transcripts_mod.tool_loops(_tds(sf), min_run=2),
        "tool_latency": lambda sf: _transcripts_mod.tool_latency(_tds(sf)),
        "role_violations": lambda sf: _transcripts_mod.role_violations(_tds(sf)),
        "conv_neardup": _conv_neardup,
        "curate_conversations": lambda sf: _transcripts_mod.curate_conversations(_tds(sf)),
        # --- text analysis ------------------------------------------------
        "text_quality": lambda sf: text_analysis.analyze(_docs_ds(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        "lang_id": lambda sf: text_analysis.lang_id(_docs_ds(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        "bpe_token_count": lambda sf: text_analysis.bpe_token_count(_docs_ds(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        "fingerprint": lambda sf: text_analysis.fingerprint(_docs_ds(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        "repetition": lambda sf: text_analysis.repetition(_docs_ds(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        "watermark_greenlist": lambda sf: text_analysis.watermark_greenlist(_docs_ds(sf)),
        # rows-only: no deterministic compressor exists in DuckDB
        "compression_ratio": lambda sf: text_analysis.compression_ratio(_docs_ds(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        # --- dedup --------------------------------------------------------
        "near_dup_incremental": lambda sf: dedup.near_dup_incremental(
            _docs_ds(sf, ("doc_id", "text")).map_batches(
                lambda t: _mod5_split(t, False), batch_format="pyarrow"
            ),
            _docs_ds(sf, ("doc_id", "text")).map_batches(
                lambda t: _mod5_split(t, True), batch_format="pyarrow"
            ),
            threshold=0.5,
        ).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True),
        # banded-candidate admission regime: deterministic minhash perms, so
        # on this fixture the band collisions cover every true pair and the
        # result is value-identical to the exact oracle (verified; the
        # recall difference is a corpus property, not a run property)
        "near_dup_incremental_mh": lambda sf: dedup.near_dup_incremental(
            _docs_ds(sf, ("doc_id", "text")).map_batches(
                lambda t: _mod5_split(t, False), batch_format="pyarrow"
            ),
            _docs_ds(sf, ("doc_id", "text")).map_batches(
                lambda t: _mod5_split(t, True), batch_format="pyarrow"
            ),
            threshold=0.5, method="minhash",
        ).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True),
        "exact_dedup": lambda sf: dedup.exact_dedup(_docs_ds(sf)).to_pandas().sort_values("text_hash").reset_index(drop=True),
        "url_dedup": _url_dedup,
        "neardup_minhash": lambda sf: dedup.near_dup_minhash(_docs_ds(sf), threshold=0.8).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True),
        "simhash": lambda sf: dedup.simhash(_docs_ds(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        "simhash_neardup": lambda sf: dedup.simhash_near_dups(_docs_ds(sf)).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True),
        "neardup_jaccard": _neardup_jaccard,
        "dedup_clusters": _dedup_clusters,
        "cluster_safe_split": _cluster_safe_split,
        "dedup_corpus": _dedup_corpus,
        "decontaminate": _decontaminate,
        "phrase_decontam": _phrase_decontam,
        "semantic_decontam": _semantic_decontam,
        "boilerplate_strip": _boilerplate_strip,
        "perplexity_buckets": _perplexity_buckets,
        "gopher_rules": _gopher_rules,
        "winnow_fingerprints": _winnow_fingerprints,
        "doremi_weights": _doremi_weights,
        "value_percentiles": _value_percentiles,
        "late_arrivals": _late_arrivals,
        "window_gaps": _window_gaps,
        "dup_ngrams": _dup_ngrams,
        "substring_dedup": _substring_dedup,
        "c4_rules": _c4_rules,
        "distinct_ngrams": _distinct_ngrams,
        "prefix_cache_stats": _prefix_cache_stats,
        "kcenter_select": _kcenter_select,
        "pca_project": _pca_project,
        "transform_pivot": _transform_pivot,
        "rater_kappa": lambda sf: _agreement.rater_kappa(_docs_ds(sf)),
        "calibration_bins": lambda sf: _agreement.calibration_bins(_docs_ds(sf)),
        "pca_residual": lambda sf: _pca.pca_residual_outliers(
            os.path.join(sf, "embeddings.parquet")
        ).to_pandas(),
        "srp_project": lambda sf: _pca.srp_project(
            os.path.join(sf, "embeddings.parquet")
        ).to_pandas(),
        "refusal_flags": _refusal_flags,
        "keyword_tags": _keyword_tags,
        "span_dedup": lambda sf: _spandedup.span_dedup(_docs_ds(sf)).to_pandas().sort_values("doc_id").reset_index(drop=True),
        "kmeans_clusters": lambda sf: _kmeans.kmeans_assign(_emb_ds(sf), k=8, iters=2).to_pandas().sort_values("vec_id").reset_index(drop=True),
        "cluster_purity": lambda sf: _kmeans.cluster_purity(
            _emb_ds(sf), k=8, iters=2
        ),
        "semantic_dedup": lambda sf: _kmeans.semantic_dedup(_emb_ds(sf), k=8, iters=2, threshold_pct=90).to_pandas().sort_values("vec_id").reset_index(drop=True),
        "cluster_sample": lambda sf: _kmeans.cluster_sample(_emb_ds(sf), k=8, iters=2, n_per_cluster=10).to_pandas().sort_values("vec_id").reset_index(drop=True),
        "range_join_bands": _range_join_bands,
        "pagerank": _pagerank,
        "hits_scores": lambda sf: _graph.customer_supplier_hits(sf),
        "label_propagation": lambda sf: _graph.label_propagation(
            _graph._customer_supplier_edges(sf), n_iter=4
        ),
        "sample_split": _sample_split,
        "weighted_sample": _weighted_sample,
        "stratified_sample": _stratified_sample,
        "interleave_sources": lambda sf: _sampling.interleave_sources(
            _docs_ds(sf, columns=("doc_id", "source")),
            {"src0": 4, "src1": 2}, n=60,
        ),
        "source_mixture": lambda sf: _sampling.source_mixture(
            _docs_ds(sf, columns=("doc_id", "source")), target_total=200
        ),
        "pii_scrub": _pii_scrub,
        "curate_corpus": _curate_corpus,
        "approx_distinct": _approx_distinct,
        "approx_distinct_hll": _approx_distinct_hll,
        "heavy_hitters": _heavy_hitters,
        "approx_distinct_by_user": _approx_distinct_by_user,
        "source_jaccard": _source_jaccard,
        "source_ablation": _source_ablation,
        "cms_counts": lambda sf: _sketch.cms_counts(
            _ev_ds(sf, ("user_id",)), "user_id", width=256, depth=4
        ),
        "kmv_overlap": lambda sf: _sketch.kmv_overlap(
            _ev_ds(sf, ("user_id", "event_type")),
            key_col="user_id", label_col="event_type",
            label_a="click", label_b="purchase", k=64,
        ),
        "schema_profile": lambda sf: _analytics.schema_profile(
            _ev_ds(sf, ("event_id", "user_id", "event_type", "value", "ts")),
            columns=("event_id", "user_id", "event_type", "value", "ts"),
        ),
        "abc_classification": lambda sf: _analytics.abc_classification(
            _ev_ds(sf, ("user_id", "value"))
        ),
        "extreme_events": lambda sf: _analytics.extreme_events(
            _ev_ds(sf, ("event_id", "event_type", "value"))
        ),
        "rfm_scores": lambda sf: _analytics.rfm_scores(
            _ev_ds(sf, ("user_id", "ts", "value"))
        ),
        "autocorr_lag1": lambda sf: _analytics.autocorr_lag1(
            _ev_ds(sf, ("event_id", "event_type", "ts", "value"))
        ),
        "change_point": lambda sf: _analytics.change_point(
            _ev_ds(sf, ("event_type", "ts"))
        ),
        "holt_forecast": lambda sf: _analytics.holt_forecast(
            _ev_ds(sf, ("event_type", "ts"))
        ),
        "variable_width_histogram": lambda sf: _analytics.variable_width_histogram(
            _ev_ds(sf, ("value",))
        ),
        "k_anonymity": lambda sf: _analytics.k_anonymity(
            _ev_ds(sf, ("user_id", "event_type")), k=10
        ),
        "psi_drift": lambda sf: _analytics.psi_drift(_ev_ds(sf, ("ts", "value"))),
        "l_diversity": lambda sf: _analytics.l_diversity(
            _ev_with_hod(sf), group_cols=("user_id", "event_type"),
            sensitive_col="hod", l=8,
        ),
        "theil_sen": lambda sf: _analytics.theil_sen(_ev_ds(sf, ("event_type", "ts"))),
        "events_heatmap": lambda sf: _analytics.events_heatmap(_ev_ds(sf, ("ts",))),
        "spearman_by_type": lambda sf: _analytics.spearman_by_group(
            _ev_ds(sf, ("event_id", "event_type", "ts", "value"))
        ),
        "mann_whitney_u": lambda sf: _analytics.mann_whitney_u(
            _ev_ds(sf, ("event_type", "value"))
        ),
        "longest_streak": lambda sf: _analytics.longest_streak(
            _ev_ds(sf, ("user_id", "event_type", "ts", "event_id"))
        ),
        "winsorize": lambda sf: _analytics.winsorize(
            _ev_ds(sf, ("event_id", "value"))
        ),
        "hapax_rate": lambda sf: _compare.hapax_rate(
            _docs_ds(sf, ("source", "text"))
        ),
        "ks_doclen": lambda sf: _compare.ks_statistic(
            _docs_ds(sf, ("source", "n_chars"))
        ),
        "source_profile": lambda sf: _compare.source_profile(
            _docs_ds(sf, ("source", "text"))
        ),
        "source_kl": lambda sf: _compare.source_kl(
            _docs_ds(sf, ("source", "text"))
        ),
        "tfidf_keywords": _tfidf_keywords,
        "collocations_pmi": _collocations,
        "bpe_pair_counts": lambda sf: _keywords.bpe_pair_counts(
            _docs_ds(sf, ("text",)), k=100
        ),
        "bpe_learn_merges": lambda sf: _keywords.bpe_learn_merges(
            _docs_ds(sf, ("text",)), n_merges=8
        ),
        "bpe_encode_counts": lambda sf: _keywords.bpe_encode_counts(
            _docs_ds(sf), n_merges=8
        ),
        "bpe_fertility": lambda sf: _keywords.bpe_fertility_by_lang(
            _docs_ds(sf, ("doc_id", "text", "lang")), n_merges=8
        ),
        "dsir_weights": lambda sf: _keywords.dsir_weights(
            _docs_ds(sf, ("doc_id", "text", "lang")), target_lang="en"
        ),
        "keyness_llr": lambda sf: _compare.keyness_llr(
            _docs_ds(sf, ("doc_id", "text", "lang")), target_lang="en", k=50
        ),
        "unigram_logprob": lambda sf: _keywords.unigram_logprob(_docs_ds(sf)),
        "bigram_logprob": lambda sf: _keywords.bigram_logprob(_docs_ds(sf)),
        "zipf_slope": lambda sf: _keywords.zipf_slope(_docs_ds(sf, ("text",))),
        "heaps_law": lambda sf: _keywords.heaps_law(
            _docs_ds(sf, ("doc_id", "text")), points=24
        ),
        "burstiness": lambda sf: _keywords.burstiness(_docs_ds(sf, ("text",)), k=50),
        "doc_skyline": lambda sf: text_analysis.doc_skyline(
            _docs_ds(sf, ("doc_id", "text"))
        ),
        "gini_vocab": lambda sf: _keywords.gini_vocab(_docs_ds(sf, ("text",))),
        "syllable_stats": lambda sf: _keywords.syllable_stats(
            _docs_ds(sf, ("source", "text"))
        ),
        "stylometry_delta": lambda sf: _keywords.stylometry_delta(
            _docs_ds(sf, ("source", "text")), k=30
        ),
        "vocab_coverage": lambda sf: _keywords.vocab_coverage(
            _docs_ds(sf, ("text",)), ks=(5, 10, 20, 50)
        ),
        "cooccurrence_pairs": lambda sf: _keywords.cooccurrence_pairs(
            _docs_ds(sf, ("text",)), k=50, min_count=5
        ),
        "fuzzy_token_pairs": lambda sf: _keywords.fuzzy_token_pairs(
            _docs_ds(sf, ("text",)), min_len=4, max_dist=2
        ),
        "chunk_documents": lambda sf: _chunking.chunk_documents(
            _docs_ds(sf), chunk_size=32, stride=16
        ),
        "chunk_dedup_stats": lambda sf: _chunking.chunk_dedup_stats(
            _docs_ds(sf), chunk_size=32, stride=16
        ),
        "running_total": _running_total,
        "funnel": _funnel,
        "value_histogram": _value_histogram,
        "outliers_mad": _outliers_mad,
        "user_timeline": _user_timeline,
        "regression_by_type": _regression_by_type,
        "weighted_median": lambda sf: _analytics.weighted_median(
            _ev_ds(sf, ("event_id", "event_type", "value"))
        ),
        "journey_trigrams": lambda sf: _analytics.journey_trigrams(
            _ev_ds(sf, ("user_id", "event_type", "ts", "event_id")), k=20
        ),
        "chi_square_hour_type": lambda sf: _analytics.chi_square_hour_type(
            _ev_ds(sf, ("event_type", "ts"))
        ),
        "trimmed_mean": lambda sf: _analytics.trimmed_mean(
            _ev_ds(sf, ("event_id", "event_type", "value")), trim=0.1
        ),
        "distinct_users_by_type": lambda sf: _analytics.distinct_users_by_type(
            _ev_ds(sf, ("event_type", "user_id"))
        ),
        "user_set_ops": lambda sf: _analytics.user_set_ops(
            _ev_ds(sf, ("user_id", "event_type"))
        ),
        "hourly_correlation": lambda sf: _analytics.hourly_correlation(
            _ev_ds(sf, ("event_type", "ts"))
        ),
        "kendall_hourly": lambda sf: _analytics.kendall_hourly(
            _ev_ds(sf, ("event_type", "ts"))
        ),
        "benford_value": lambda sf: _analytics.benford_value(_ev_ds(sf, ("value",))),
        "frequent_itemsets": lambda sf: _analytics.frequent_itemsets(
            _ev_ds(sf, ("user_id", "event_type"))
        ),
        "anova_f": lambda sf: _analytics.anova_f(_ev_ds(sf, ("event_type", "value"))),
        "rolling_mean": lambda sf: _analytics.rolling_mean(
            _ev_ds(sf, ("event_id", "user_id", "ts", "value")), window=4
        ),
        "event_gaps": lambda sf: _analytics.event_gaps(
            _ev_ds(sf, ("event_id", "user_id", "ts"))
        ),
        "key_skew": lambda sf: _analytics.key_skew(_ev_ds(sf, ("user_id",))),
        "hot_keys": lambda sf: _analytics.hot_keys(_ev_ds(sf, ("user_id",))),
        # 24h window / >5 events: probed non-degenerate on the sf0.01 events
        # table (732 violations; the 1h default matches nothing there)
        # daily periods: the 30-day events table yields ~27 cohorts x 9
        # offsets (weekly gave a single cohort — degenerate)
        # one-day slice: over the full 30 days every user converts (z
        # degenerate); ~2 events/user in a day keeps both variants mixed
        "ab_conversion_test": lambda sf: _analytics.ab_conversion_test(
            _ev_ds(sf, ("user_id", "event_type", "ts")).map_batches(
                _first_day_filter, batch_format="pyarrow"
            )
        ),
        "seasonal_decompose": lambda sf: _analytics.seasonal_decompose(
            _ev_ds(sf, ("ts",))
        ),
        "cohort_retention": lambda sf: _analytics.cohort_retention(
            _ev_ds(sf, ("user_id", "event_type", "ts"))
        ),
        # daily first-seen periods (weekly collapses the 30-day table to
        # one cohort): the ratio-matrix sibling of signup-anchored
        # cohort_retention
        "retention_matrix": lambda sf: _analytics.retention_matrix(
            _ev_ds(sf, ("user_id", "ts")), period_us=86_400_000_000
        ),
        "touch_attribution": lambda sf: _analytics.touch_attribution(
            _ev_ds(sf, ("event_id", "user_id", "event_type", "ts"))
        ),
        "rate_limit_violations": lambda sf: _analytics.rate_limit_violations(
            _ev_ds(sf, ("event_id", "user_id", "ts")),
            window_us=86_400_000_000, max_events=5,
        ),
        "geometric_mean": lambda sf: _analytics.geometric_mean(
            _ev_ds(sf, ("event_type", "value"))
        ),
        "equidepth_histogram": lambda sf: _analytics.equidepth_histogram(
            _ev_ds(sf, ("value",)), nbuckets=10
        ),
        "type_entropy": lambda sf: _analytics.type_entropy(
            _ev_ds(sf, ("event_type",))
        ),
        "rate_wilson_ci": lambda sf: _analytics.rate_wilson_ci(
            _ev_ds(sf, ("event_type",))
        ),
        "percent_rank": lambda sf: _analytics.percent_rank(
            _ev_ds(sf, ("event_id", "event_type", "value"))
        ),
        "ntile_quartiles": lambda sf: _analytics.ntile_buckets(
            _ev_ds(sf, ("event_id", "event_type", "value")), n=4
        ),
        "event_transitions": _event_transitions,
        "pivot_hourly": _pivot_hourly,
        "zscore_normalize": _zscore,
        "bloom_semijoin": _bloom_semijoin,
        "anti_join_orders": relational.orders_without_lineitems,
        "full_outer_join": relational.events_customers_full_outer,
        "global_sort_page": relational.global_sort_page,
        "centroid_cosine": lambda sf: _embstats.centroid_cosine(_emb_ds(sf)),
        "embedding_quantize": lambda sf: _embstats.quantize_embeddings_int8(_emb_ds(sf)),
        "embedding_neardup": lambda sf: dedup.embedding_near_dups(_emb_ds(sf), threshold=0.4).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True),
        # --- similarity search -------------------------------------------
        "knn_cosine": _knn,
        "hybrid_search": _hybrid_search,
        "rrf_search": _rrf_search,
        "knn_ivf": _knn_ivf,
        "knn_ivf_pruned": _knn_ivf_pruned,
        "knn_hnsw": _knn_hnsw,
        "knn_pq": _knn_pq,
        "knn_filtered": _knn_filtered,
        "knn_radius": _knn_radius,
        "knn_l2": _knn_l2,
        "knn_dot": _knn_dot,
        "mmr_rerank": _mmr_rerank,
        "retriever_agreement": _retriever_agreement,
        "rbo_retrievers": _rbo_retrievers,
        "luhn_audit": _luhn_audit,
        "knn_binary": lambda sf: similarity.knn_binary(
            _emb_ds(sf), _query_vec(sf), k=10
        ).to_pandas(),
        "knn_int8": lambda sf: similarity.knn_int8(
            _emb_ds(sf), _query_vec(sf), k=10
        ).to_pandas(),
        "knn_int4_rescore": lambda sf: similarity.knn_int4_rescore(
            _emb_ds(sf), _query_vec(sf), k=10
        ).to_pandas(),
        "knn_maxsim": lambda sf: similarity.knn_maxsim(
            _emb_ds(sf),
            np.stack([_query_vec(sf, i) for i in range(4)]),
            k=10,
        ).to_pandas(),
        "ranking_eval_mrr": _ranking_eval_mrr,
        "ranking_eval_err": lambda sf: __import__(
            "harvester_ray.index.evaluate", fromlist=["x"]
        ).evaluate_ranking_err(index_query.IndexReader(_documents_index(sf))),
        "rank_feature": _rank_feature,
        "table_merge": _table_merge,
        "percentiles_agg": _percentiles_agg,
        "extended_stats": _extended_stats,
        "stats_agg": _stats_agg,
        "missing_agg": _missing_agg,
        "segment_metrics": _segment_metrics,
        "terms_stats": _terms_stats,
        "histogram_agg": _histogram_agg,
        "mad_agg": _mad_agg,
        "string_stats": _string_stats,
        "t_test": _t_test,
        "span_near": _span_near,
        "boosted_terms": _boosted_terms,
        "cardinality_agg": _cardinality_agg,
        "count_terminate": _count_terminate,
        "profile_search": _profile_search,
        "run_harvest": _run_harvest,
        # --- source-plugin protocol (OBJECTIVE extractor, SURVEY §2.10) ---
        "extract_props": _extract_props,
        # --- search extras (autocomplete + filter-count aggregations) -----
        "suggest_terms": _suggest_terms,
        "matches_by_source": _matches_by_source,
        "sampler_terms": _sampler_terms,
        "more_like_this": _more_like_this,
        "highlight": _highlight,
        "ranking_eval": _ranking_eval,
        # --- multimodal plumbing (rows-only: binary decode has no SQL) ----
        "multimodal_decode": _multimodal_decode,
        "frame_sample": _frame_sample,
    }


def oracle_sql() -> dict[str, str]:
    # materialize the deterministic transcript corpus (cached, pure pyarrow)
    # so the transcript-family SQL below can always read it
    _tglob = os.path.join(_transcripts_dir(), "*.parquet")
    _tsrc = _transcripts_mod.transcript_view_sql(_tglob)
    return {
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 4) AS sum_qty,
                   round(sum(l_extendedprice), 4) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
                   round(sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 4) AS sum_charge,
                   round(avg(l_quantity), 4) AS avg_qty,
                   round(avg(l_extendedprice), 4) AS avg_price,
                   round(avg(l_discount), 4) AS avg_disc,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "revenue_by_nation": """
            SELECT n.n_name,
                   round(sum(o.o_totalprice), 4) AS revenue,
                   count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name ORDER BY n.n_name
        """,
        "join_revenue_by_priority": """
            SELECT o.o_orderpriority,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 4) AS revenue,
                   count(*) AS n_items
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority
        """,
        "join_shuffle_fallback": """
            SELECT o.o_orderpriority,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 4) AS revenue,
                   count(*) AS n_items
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority
        """,
        "merge_child_table": _merge_child_table_sql(),
        "vocab_ancestors": _vocab_ancestors_sql(),
        "parse_seed_data": """
            SELECT doc_id, source, lang, n_chars FROM documents ORDER BY doc_id
        """,
        "set_metadata": """
            SELECT doc_id,
                   coalesce(CASE WHEN doc_id % 3 <> 0 THEN source END,
                            CASE WHEN doc_id % 2 <> 0 THEN lower(source) END,
                            'ext-' || CAST(doc_id AS VARCHAR)) AS provider,
                   md5(text) AS content_hash,
                   CAST(CASE WHEN doc_id % 10 = 0 THEN 2 ELSE 1 END AS BIGINT)
                       AS modified_at_version,
                   CASE WHEN lang IN ('en', 'nl') THEN lang ELSE 'unk' END AS language
            FROM documents ORDER BY doc_id
        """,
        "to_search": """
            SELECT source || ':' || CAST(doc_id AS VARCHAR) AS _id,
                   CASE WHEN doc_id % 25 = 0 THEN 'delete' ELSE 'index' END AS op,
                   CASE WHEN lang IN ('en', 'nl') THEN lang ELSE 'unk' END AS language,
                   CASE WHEN doc_id % 25 = 0 THEN NULL ELSE n_chars END AS n_chars
            FROM documents ORDER BY _id
        """,
        "generate_previews": """
            WITH files AS (
              SELECT 'http://files.example.org/part/' || CAST(p_partkey AS VARCHAR) AS url,
                     CASE p_partkey % 4 WHEN 0 THEN 'video/mp4'
                          WHEN 1 THEN 'application/pdf'
                          WHEN 2 THEN 'image/png' ELSE 'text/html' END AS content_type
              FROM part
            ), gen AS (
              SELECT url,
                     CASE WHEN content_type LIKE 'video/%' THEN 'youtube_dl'
                          WHEN content_type = 'application/pdf' THEN 'pdf2image'
                          WHEN content_type LIKE 'image/%' THEN 'pillow' END AS generator
              FROM files
            )
            SELECT url, generator, s.size,
                   'previews/' || md5(url) || '-' || s.size || '.png' AS preview_path,
                   TRUE AS success
            FROM gen, (VALUES ('400x300'), ('200x150')) s(size)
            WHERE generator IS NOT NULL
            ORDER BY url, s.size
        """,
        "translate_values": """
            SELECT n_name AS value, CAST(NULL AS VARCHAR) AS language,
                   'en' AS target, n_name || ' (en)' AS translation
            FROM nation ORDER BY value
        """,
        "file_split": """
            WITH c AS (
              SELECT l_orderkey, l_partkey, l_linenumber, l_suppkey,
                     CASE WHEN l_suppkey % 2 = 0 THEN 'link' ELSE 'file' END AS kind,
                     row_number() OVER (PARTITION BY l_orderkey, l_partkey
                                        ORDER BY l_linenumber, l_suppkey, l_partkey) AS rn
              FROM lineitem
            )
            SELECT l_orderkey, l_partkey, l_linenumber, kind,
                   CAST(row_number() OVER (PARTITION BY l_orderkey, kind
                                           ORDER BY l_linenumber, l_suppkey, l_partkey)
                        AS BIGINT) AS kind_rank
            FROM c WHERE rn = 1
            ORDER BY l_orderkey, l_partkey
        """,
        "seed_merge": """
            SELECT o.o_orderkey, o.o_custkey, round(o.o_totalprice, 4) AS o_totalprice,
                   c.c_mktsegment, c.c_nationkey
            FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
            ORDER BY o.o_orderkey
        """,
        "seed_back_fill": """
            SELECT s_suppkey, CAST(g.detail AS BIGINT) AS detail
            FROM supplier, LATERAL (
              SELECT unnest(range(s_suppkey % 3)) AS detail
            ) g
            ORDER BY s_suppkey, detail
        """,
        "readback_documents": (
            f"SELECT doc_id, len({_analyzer.sql_tokenize_expr('text')}) AS dl, source "
            "FROM documents ORDER BY doc_id"
        ),
        "topk_orders": """
            SELECT o_orderkey, o_totalprice, o_orderdate
            FROM orders ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
        """,
        "filter_revenue": """
            SELECT round(sum(l_extendedprice * l_discount), 4) AS revenue
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND l_discount >= 0.05 AND l_quantity < 24
        """,
        "value_quantiles": relational.VALUE_QUANTILES_SQL,
        "events_facets": """
            SELECT event_type, count(*) AS frequency, round(avg(value), 4) AS avg_value
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "events_hourly_window": """
            SELECT user_id, date_trunc('hour', ts) AS hour,
                   count(*) AS n_events, round(sum(value), 4) AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "sessionize": """
            WITH lagged AS (
              SELECT user_id, ts,
                     lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
              FROM events
            )
            SELECT user_id, count(*) AS n_events,
                   CAST(sum(CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
            FROM lagged GROUP BY user_id ORDER BY user_id
        """,
        "report_dataset_version": relational.report_dataset_version_sql(),
        "visits_to_rankings": relational.visits_to_rankings_sql(
            gap_minutes=1440
        ),
        "top_events_per_user": relational.top_events_per_user_sql(),
        "events_rollup": relational.events_rollup_sql(),
        "q5_local_supplier": relational.q5_local_supplier_sql(),
        "pack_sequences": _packing.pack_sequences_sql("documents", capacity=512),
        "sentence_pack": _packing.sentence_pack_sql(
            "(SELECT doc_id, replace(text, ' table ', '. ') AS text FROM documents)",
            capacity=64,
        ),
        "span_corruption": _packing.span_corruption_sql("documents"),
        "fim_split": _packing.fim_split_sql("documents"),
        "length_buckets": _packing.length_buckets_sql("documents"),
        "hybrid_search": similarity.hybrid_search_sql(
            index_oracle.bm25_sql("documents", BM25_QUERY_AND, 50, mode="and"),
            query_vec_id=0,
            k=10,
        ),
        "rrf_search": similarity.rrf_fusion_sql(
            index_oracle.bm25_sql("documents", BM25_QUERY_AND, 50, mode="and"),
            query_vec_id=0,
            k=10,
            k_cand=50,
        ),
        "last_event_per_user": """
            SELECT user_id, event_id, ts, event_type FROM (
              SELECT *, row_number() OVER (
                PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
              FROM events
            ) WHERE rn = 1 ORDER BY user_id
        """,
        "asof_join": """
            WITH matched AS (
              SELECT o.o_orderkey, e.ts, e.value, e.event_id,
                     row_number() OVER (
                       PARTITION BY o.o_orderkey
                       ORDER BY e.ts DESC, e.event_id DESC) AS rn
              FROM orders o
              JOIN events e ON e.user_id = o.o_custkey AND e.ts <= o.o_orderdate
            )
            SELECT o.o_orderkey, o.o_custkey, o.o_orderdate,
                   coalesce(m.ts, TIMESTAMP '1970-01-01') AS last_ts,
                   coalesce(round(m.value, 4), -1.0) AS last_value,
                   CAST(coalesce(m.event_id, -1) AS BIGINT) AS last_event_id
            FROM orders o
            LEFT JOIN matched m ON m.o_orderkey = o.o_orderkey AND m.rn = 1
            ORDER BY o.o_orderkey
        """,
        "distinct_segments": "SELECT DISTINCT c_mktsegment FROM customer ORDER BY 1",
        "state_counts": """
            SELECT 'orders' AS entity, o_orderstatus AS state, count(*) AS n
            FROM orders GROUP BY 2
            UNION ALL
            SELECT 'lineitem' AS entity, l_linestatus AS state, count(*) AS n
            FROM lineitem GROUP BY 2
            ORDER BY entity, state
        """,
        # --- index / text -------------------------------------------------
        "events_sliding_window": windows.sliding_window_sql("events"),
        "session_windows": """
            WITH ordered AS (
              SELECT user_id, event_id, ts,
                     lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
              FROM events
            ),
            marked AS (
              SELECT user_id, ts,
                     sum(CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
                              THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sess
              FROM ordered
            )
            SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_events
            FROM marked GROUP BY user_id, sess
            ORDER BY user_id, session_start
        """,
        "doc_stats": index_oracle.doc_stats_sql("documents"),
        "corpus_stats": index_oracle.corpus_stats_sql("documents"),
        "index_stats": f"""
            WITH toks AS (
              SELECT doc_id, unnest({_analyzer.sql_tokenize_expr('text')}) AS term
              FROM documents
            ),
            td AS (SELECT term, count(DISTINCT doc_id) AS df, count(*) AS cf
                   FROM toks GROUP BY term)
            SELECT (SELECT count(*) FROM documents) AS n_docs,
                   count(*) AS n_terms,
                   CAST(sum(df) AS BIGINT) AS n_postings,
                   CAST(sum(cf) AS BIGINT) AS n_tokens
            FROM td
        """,
        "set_integrity": _set_integrity_sql("documents"),
        "index_diff": _index_diff_sql("documents"),
        "term_df_top50": index_oracle.term_df_sql("documents", 50),
        "term_df_shuffle": index_oracle.term_df_sql("documents", 50),
        "bm25_topk": index_oracle.bm25_sql("documents", BM25_QUERY_AND, 10, mode="and"),
        "bm25_topk_v2": index_oracle.bm25_sql("documents", BM25_QUERY_V2, 10, mode="and", version="v2"),
        "phrase_search_v2": index_oracle.phrase_bm25_sql("documents", PHRASE_QUERY_V2, 10, version="v2"),
        "similarity_lmd": index_oracle.similarity_sql(
            "documents", BM25_QUERY_AND, model="lm_dirichlet", k=10, mode="or",
        ),
        "similarity_classic": index_oracle.similarity_sql(
            "documents", BM25_QUERY_AND, model="classic", k=10, mode="or",
        ),
        "similarity_jm": index_oracle.similarity_sql(
            "documents", BM25_QUERY_AND, model="lm_jelinek_mercer", k=10, mode="or",
        ),
        "bm25_filtered": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_AND, 100000, mode="and")
            + ") SELECT r.doc_id, r.score FROM ranked r "
            "JOIN documents d ON d.doc_id = r.doc_id "
            "WHERE d.source IN ('src0','src1','src2') "
            "ORDER BY r.score DESC, r.doc_id ASC LIMIT 10"
        ),
        "min_score": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_AND, 100000, mode="and")
            + f") SELECT doc_id, score FROM ranked WHERE score >= {MIN_SCORE_THR} "
            "ORDER BY score DESC, doc_id"
        ),
        "bm25_topk_multi": index_oracle.bm25_sql("documents", BM25_QUERY_AND2, 10, mode="and"),
        "bm25_or_topk": index_oracle.bm25_sql("documents", BM25_QUERY_OR, 10, mode="or"),
        "sampler_terms": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, SAMPLER_TOP, mode="or")
            + ") SELECT d.source, CAST(count(*) AS BIGINT) AS n "
            "FROM ranked r JOIN documents d USING (doc_id) "
            "GROUP BY d.source ORDER BY n DESC, d.source"
        ),
        "author_suggestions": index_oracle.author_suggestions_sql(
            AUTHORS_SQL_TABLE, AUTHOR_NAME, 10
        ),
        "bm25_not": index_oracle.bm25_sql(
            "documents", BM25_QUERY_AND, 10, mode="and", must_not=BM25_MUST_NOT
        ),
        "bm25_msm": index_oracle.bm25_sql(
            "documents", BM25_MSM_QUERY, 10, mode="or", min_should_match=2
        ),
        "bm25_boosting": index_oracle.boosting_sql(
            "documents", BM25_QUERY_OR, BM25_MUST_NOT, negative_boost=0.3, k=10
        ),
        "snapshot_restore": index_oracle.bm25_sql(
            "documents", BM25_QUERY_AND, 10, mode="and"
        ),
        "terms_agg": index_oracle.terms_agg_sql(
            "documents", BM25_QUERY_OR, field="source", size=20, mode="or"
        ),
        "aggs_dsl": index_oracle.terms_agg_sql(
            "documents", BM25_QUERY_OR, field="source", size=20, mode="or"
        ),
        "percentiles_agg": index_oracle.percentiles_agg_sql(
            "documents", BM25_QUERY_OR, mode="or"
        ),
        "extended_stats": index_oracle.extended_stats_sql(
            "documents", BM25_QUERY_OR, mode="or"
        ),
        "stats_agg": index_oracle.stats_sql(
            "documents", BM25_QUERY_OR, mode="or"
        ),
        "terms_stats": index_oracle.terms_stats_sql(
            "documents", BM25_QUERY_OR, field="source", size=20, mode="or"
        ),
        "missing_agg": index_oracle.missing_sql(
            "tdocp", HAS_CHILD_QUERY, field="tool", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "histogram_agg": index_oracle.histogram_agg_sql(
            "documents", BM25_QUERY_OR, interval=10, mode="or"
        ),
        "mad_agg": index_oracle.mad_sql("documents", BM25_QUERY_OR, mode="or"),
        "string_stats": index_oracle.string_stats_sql(
            "documents", BM25_QUERY_OR, field="source", mode="or"
        ),
        "t_test": index_oracle.t_test_sql(
            "documents", BM25_QUERY_OR, field="source",
            group_a="src0", group_b="src1", mode="or",
        ),
        "span_near": _span_near_sql_entry(),
        "boosted_terms": _boosted_terms_sql_entry(),
        "run_harvest": _run_harvest_sql(),
        "count_terminate": (
            "WITH toks AS (SELECT doc_id, unnest("
            + _analyzer.sql_tokenize_expr("text")
            + ") AS term FROM documents) "
            "SELECT CAST(count(DISTINCT doc_id) AS BIGINT) AS count, "
            "FALSE AS terminated FROM toks WHERE term IN ("
            + ", ".join(f"'{t}'" for t in sorted(set(BM25_QUERY_OR.split())))
            + ")"
        ),
        "profile_search": (
            "WITH toks AS (SELECT doc_id, unnest("
            + _analyzer.sql_tokenize_expr("text")
            + ") AS term FROM documents), "
            "hit AS (SELECT doc_id, term FROM toks WHERE term IN ("
            + ", ".join(f"'{t}'" for t in sorted(set(BM25_QUERY_OR.split())))
            + ")) "
            f"SELECT CAST({len(set(BM25_QUERY_OR.split()))} AS BIGINT) AS query_terms, "
            "CAST(count(DISTINCT term) AS BIGINT) AS live_terms, "
            "CAST(count(DISTINCT (doc_id, term)) AS BIGINT) AS postings_decoded, "
            "CAST(count(DISTINCT doc_id) AS BIGINT) AS candidates FROM hit"
        ),
        "cardinality_agg": (
            "WITH toks AS (SELECT doc_id, unnest("
            + _analyzer.sql_tokenize_expr("text")
            + ") AS term FROM documents), "
            "m AS (SELECT doc_id FROM toks WHERE term IN ("
            + ", ".join(f"'{t}'" for t in sorted(set(BM25_QUERY_OR.split())))
            + ") GROUP BY doc_id) "
            "SELECT CAST(count(DISTINCT d.source) AS BIGINT) AS n_distinct "
            "FROM documents d JOIN m ON d.doc_id = m.doc_id"
        ),
        "phrase_suggest": _phrase_suggest_sql_entry(),
        "top_hits": index_oracle.top_hits_sql(
            "documents", BM25_QUERY_OR, field="source", per_group=3,
            n_groups=5, mode="or",
        ),
        "termvectors": _termvectors_sql_entry(),
        "analyze_tokens": (
            "WITH toks AS (SELECT doc_id, "
            + _analyzer.sql_tokenize_expr("text")
            + " AS arr FROM documents WHERE doc_id < 20) "
            "SELECT doc_id, "
            "CAST(generate_subscripts(arr, 1) - 1 AS BIGINT) AS pos, "
            "unnest(arr) AS token "
            "FROM toks ORDER BY doc_id, pos"
        ),
        "update_docs": (
            "SELECT doc_id, CASE WHEN doc_id IN "
            + "(" + ", ".join(str(i) for i in UPDATE_IDS) + ")"
            + " THEN 'patched' || CAST(doc_id AS VARCHAR) ELSE source END AS source, "
            + "CAST(len(" + _analyzer.sql_tokenize_expr("text") + ") AS BIGINT) AS dl "
            + "FROM documents WHERE doc_id < 20 ORDER BY doc_id"
        ),
        "mget_docs": (
            "WITH ids(doc_id) AS (VALUES "
            + ", ".join(f"({i})" for i in MGET_IDS)
            + "), doclen AS (SELECT doc_id, len("
            + _analyzer.sql_tokenize_expr("text")
            + ") AS dl, source, lang FROM documents) "
            "SELECT i.doc_id, CAST(coalesce(d.dl, -1) AS BIGINT) AS dl, "
            "coalesce(d.source, '') AS source, coalesce(d.lang, '') AS lang, "
            "CAST(CASE WHEN d.doc_id IS NULL THEN -1 ELSE 1 END AS BIGINT) "
            "AS created_version, d.doc_id IS NOT NULL AS found "
            "FROM ids i LEFT JOIN doclen d USING (doc_id) ORDER BY i.doc_id"
        ),
        "hard_negatives": index_oracle.hard_negatives_sql(
            "documents", HARD_NEG_PAIRS, k=5, mode="or"
        ),
        "bm25_prefix": index_oracle.bm25_prefix_sql("documents", BM25_PREFIX, 10),
        # cursor page 2 == rows 11-20 of the rounded-score total order
        "search_cursor": (
            "SELECT doc_id, score FROM ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, 100000, mode="or")
            + ") ORDER BY score DESC, doc_id ASC LIMIT 10 OFFSET 10"
        ),
        "scroll_pages": (
            "SELECT CAST((row_number() OVER (ORDER BY score DESC, doc_id ASC) - 1) // 7 AS BIGINT) AS page, "
            "doc_id, score FROM ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, 100000, mode="or")
            + ") ORDER BY page, doc_id"
        ),
        "search_stats": """
            WITH doclen AS (
              SELECT doc_id, len(regexp_extract_all(lower(regexp_replace(text, '<[^>]*>', ' ', 'g')), '[a-z0-9]+')) AS dl
              FROM documents
            ),
            toks AS (
              SELECT doc_id, unnest(regexp_extract_all(lower(regexp_replace(text, '<[^>]*>', ' ', 'g')), '[a-z0-9]+')) AS term
              FROM documents
            ),
            m AS (
              SELECT doc_id FROM toks WHERE term IN ('spark', 'window')
              GROUP BY doc_id HAVING count(DISTINCT term) = 2
            )
            SELECT d.source,
                   count(*) AS n_matches,
                   CAST(sum(dl.dl) AS BIGINT) AS dl_sum,
                   floor(CAST(sum(dl.dl) AS BIGINT) * 1.0 / count(*) * 1e6 + 0.5) / 1e6 AS avg_dl
            FROM m JOIN doclen dl USING (doc_id) JOIN documents d USING (doc_id)
            GROUP BY d.source ORDER BY d.source
        """,
        "range_agg": (
            index_oracle._match_ctes("documents", BM25_QUERY_OR, "or", "doc_id", "text")
            + """,
dlb AS (SELECT len(""" + __import__("harvester_ray.analyzer", fromlist=["x"]).sql_tokenize_expr("text") + """) AS dl FROM md)
SELECT bucket, doc_count FROM (
  SELECT '*-80.0' AS bucket, CAST(count(*) FILTER (WHERE dl < 80.0) AS BIGINT) AS doc_count, 1 AS o FROM dlb
  UNION ALL
  SELECT '80.0-120.0', CAST(count(*) FILTER (WHERE dl >= 80.0 AND dl < 120.0) AS BIGINT), 2 FROM dlb
  UNION ALL
  SELECT '120.0-*', CAST(count(*) FILTER (WHERE dl >= 120.0) AS BIGINT), 3 FROM dlb
) ORDER BY o"""
        ),
        "rare_terms": (
            index_oracle._match_ctes("documents", RARE_TERMS_QUERY, "or", "doc_id", "text")
            + """
SELECT source, CAST(count(*) AS BIGINT) AS doc_count
FROM md GROUP BY source HAVING count(*) <= 2
ORDER BY doc_count, source"""
        ),
        "bool_query": index_oracle.bool_bm25_sql(
            "documents", must=BOOL_MUST, should=BOOL_SHOULD,
            must_not=BOOL_NOT, k=10,
        ),
        "filters_agg": index_oracle.filters_agg_sql(
            "documents", BM25_QUERY_OR, AGG_FILTERS, mode="or"
        ),
        "adjacency_matrix": index_oracle.adjacency_matrix_sql(
            "documents", BM25_QUERY_OR, AGG_FILTERS, mode="or"
        ),
        "attr_value_suggest": (
            "SELECT source AS value, CAST(count(*) AS BIGINT) AS n_docs "
            "FROM documents WHERE source LIKE 'src1%' "
            "GROUP BY source ORDER BY n_docs DESC, value LIMIT 10"
        ),
        "conv_final_roles": _transcripts_mod.conv_final_roles_sql(_tsrc),
        "multi_terms_agg": (
            index_oracle._match_ctes("documents", BM25_QUERY_OR, "or", "doc_id", "text")
            + """
SELECT source, lang, CAST(count(*) AS BIGINT) AS doc_count
FROM md GROUP BY source, lang
ORDER BY doc_count DESC, source, lang LIMIT 10"""
        ),
        "boxplot_agg": (
            index_oracle._match_ctes("documents", BM25_QUERY_OR, "or", "doc_id", "text")
            + """,
dlb AS (SELECT len(""" + _analyzer.sql_tokenize_expr("text") + """) AS dl FROM md)
SELECT CAST(min(dl) AS BIGINT) AS min_dl,
       quantile_cont(dl, 0.25) AS q1,
       quantile_cont(dl, 0.5) AS median,
       quantile_cont(dl, 0.75) AS q3,
       CAST(max(dl) AS BIGINT) AS max_dl
FROM dlb"""
        ),
        "percentile_ranks": (
            index_oracle._match_ctes("documents", BM25_QUERY_OR, "or", "doc_id", "text")
            + """,
dlb AS (SELECT len(""" + _analyzer.sql_tokenize_expr("text") + """) AS dl FROM md),
tot AS (SELECT count(*) AS n FROM dlb)
SELECT v.value,
       CAST(count(*) FILTER (WHERE dlb.dl <= v.value) AS BIGINT) AS n_le,
       floor(count(*) FILTER (WHERE dlb.dl <= v.value) * 100.0
             / any_value(tot.n) * 1e6 + 0.5) / 1e6 AS pct_rank
FROM (VALUES (60.0), (90.0), (130.0)) v(value)
CROSS JOIN dlb CROSS JOIN tot
GROUP BY v.value ORDER BY v.value"""
        ),
        "composite_agg": index_oracle.composite_agg_sql(
            "documents", BM25_QUERY_OR, sources=("source", "lang"),
            size=COMPOSITE_SIZE, offset=COMPOSITE_SIZE, mode="or",
        ),
        "explain_score": index_oracle.explain_sql("documents", BM25_QUERY_AND),
        "percolate": _percolate_mod.percolate_sql("documents", PERC_QUERIES),
        "search_collapse": index_oracle.collapse_sql(
            "documents", BM25_QUERY_OR, field="source", k=10, mode="or"
        ),
        "significant_terms": index_oracle.significant_terms_sql(
            "documents", BM25_QUERY_AND, n=20, mode="and"
        ),
        "rescore_topk": index_oracle.rescore_sql(
            "documents", PHRASE_QUERY, window=25, k=10, slop=PROX_SLOP
        ),
        "wildcard_search": index_oracle.bm25_expansion_sql(
            "documents", "term LIKE '%art%'", 10
        ),
        "regexp_search": index_oracle.bm25_expansion_sql(
            "documents", f"regexp_full_match(term, '{REGEXP_PATTERN}')", 10
        ),
        "match_fuzzy": _match_fuzzy_sql_entry(),
        "random_sample_search": index_oracle.search_random_sql(
            "documents", BM25_QUERY_AND, seed=7, k=10, mode="and"
        ),
        "federated_search": index_oracle.bm25_sql("documents", BM25_QUERY_AND, 10),
        "quality_model_scores": _qm_mod.quality_scores_sql("documents", salt=97),
        "msearch": index_oracle.msearch_sql(
            "documents", MSEARCH_QUERIES, 10, mode="or"
        ),
        "fuzzy_search": index_oracle.bm25_expansion_sql(
            "documents",
            "substr(term, 1, 1) = 'NEWFUZZPFX' AND abs(length(term) - NEWFUZZLEN) <= 1 "
            "AND levenshtein(term, 'NEWFUZZTOK') <= 1",
            10,
        ).replace("NEWFUZZPFX", FUZZY_QUERY[0]).replace(
            "NEWFUZZLEN", str(len(FUZZY_QUERY))
        ).replace("NEWFUZZTOK", FUZZY_QUERY),
        "bm25_brute_force": index_oracle.bm25_sql("documents", BM25_QUERY_AND, 10, mode="and"),
        "phrase_search": index_oracle.phrase_bm25_sql("documents", PHRASE_QUERY, 10),
        "phrase_search_3": index_oracle.phrase_bm25_sql("documents", PHRASE_QUERY3, 10),
        "proximity_search": index_oracle.proximity_bm25_sql(
            "documents", PHRASE_QUERY, PROX_SLOP, 10
        ),
        "proximity_search_3": index_oracle.proximity_bm25_sql(
            "documents", PHRASE_QUERY3, PROX_SLOP3, 10
        ),
        "bm25f_fields": _bm25f_oracle.bm25f_sql(
            "documents", BM25F_QUERY, BM25F_WEIGHTS, k=10
        ),
        "bm25f_cross_fields": _bm25f_oracle.cross_fields_sql(
            "documents", CROSS_FIELDS_QUERY, CROSS_FIELDS_WEIGHTS, k=10,
            exprs={"title": f"substr(text, 1, {TITLE_CHARS})"},
        ),
        "bm25f_dismax": _bm25f_oracle.dis_max_sql(
            "documents", BM25F_QUERY, BM25F_WEIGHTS, k=10, tie_breaker=0.3
        ),
        # expansion is deterministic driver-side string work; the oracle
        # runs BM25 over the *expected* expanded term set, so a wrong
        # engine-side expansion surfaces as a score/rank mismatch
        "decompound_wordlist": _synonyms_mod.dictionary_decompound_sql(
            "documents", DECOMPOUND_WORDLIST
        ),
        "decompound_search": index_oracle.bm25_sql(
            "documents", "sparkscan spark scan window", 10, mode="or"
        ),
        "synonym_search": index_oracle.bm25_sql(
            "documents", "rapid fast huge big", 10, mode="or"
        ),
        "search_paged": (
            "SELECT doc_id, score FROM ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_AND, 20, mode="and")
            + ") ORDER BY score DESC, doc_id ASC LIMIT 10 OFFSET 10"
        ),
        "search_ordered": f"""
            WITH toks AS (
              SELECT doc_id, source, {_analyzer.sql_tokenize_expr('text')} AS t
              FROM documents
            ), matched AS (
              SELECT doc_id, source FROM toks WHERE list_contains(t, 'table')
            )
            SELECT CAST(row_number() OVER (ORDER BY source DESC, doc_id ASC) AS INTEGER) AS rank,
                   doc_id, source
            FROM matched
            ORDER BY source DESC, doc_id ASC
            LIMIT 20
        """,
        "text_quality": text_analysis.analyze_sql("documents"),
        "lang_id": text_analysis.lang_id_sql("documents"),
        "bpe_token_count": text_analysis.bpe_token_count_sql("documents"),
        "fingerprint": text_analysis.fingerprint_sql("documents"),
        "repetition": text_analysis.repetition_sql("documents"),
        "watermark_greenlist": text_analysis.watermark_greenlist_sql("documents"),
        # deterministic-fake stages with exact SQL mirrors: the prober's
        # status/ctype derive from the first 8 md5 hex digits of the url
        # (ops/probe.py), and the multimodal fakes are pure byte arithmetic
        # over the materialized synth media parquet
        "check_urls": f"""
            WITH h AS (
              SELECT 'http://files.example.org/part/' || CAST(p_partkey AS VARCHAR) AS url,
                     ('0x' || substr(md5('http://files.example.org/part/'
                                         || CAST(p_partkey AS VARCHAR)), 1, 8))::BIGINT AS hv
              FROM part
            )
            SELECT url,
                   CASE WHEN hv % 10 = 6 THEN 301 WHEN hv % 10 = 7 THEN 302
                        WHEN hv % 10 = 8 THEN 404 WHEN hv % 10 = 9 THEN 500
                        ELSE 200 END AS status,
                   CASE WHEN hv % 10 IN (6, 7) THEN url || '/moved' END AS redirect_url,
                   (['text/html','application/pdf','image/png','video/mp4'])
                       [CAST((hv >> 4) % 4 AS INT) + 1] AS content_type,
                   (hv % 10 = 8) AS is_not_found
            FROM h ORDER BY url
        """,
        "multimodal_decode": f"""
            SELECT item_id,
                   CASE mime WHEN 'image/png' THEN 'image'
                        WHEN 'image/jpeg' THEN 'image'
                        WHEN 'audio/wav' THEN 'audio'
                        WHEN 'audio/mpeg' THEN 'audio'
                        WHEN 'video/mp4' THEN 'video'
                        WHEN 'application/pdf' THEN 'document'
                        ELSE 'unknown' END AS technical_type,
                   octet_length(payload) AS payload_bytes
            FROM read_parquet('{_media_parquet()}') ORDER BY item_id
        """,
        "frame_sample": f"""
            WITH v AS (
              SELECT item_id, octet_length(payload) AS nb
              FROM read_parquet('{_media_parquet()}') WHERE mime = 'video/mp4'
            )
            SELECT item_id, CAST(j * 4 AS INTEGER) AS frame_idx,
                   least(512, nb - j * 4 * 512) AS frame_bytes
            FROM v, LATERAL unnest(range(0, ((nb + 511) // 512 + 3) // 4)) AS t(j)
            ORDER BY item_id, frame_idx
        """,
        "near_dup_incremental": (
            "WITH corpus_side AS (SELECT doc_id, text FROM documents WHERE doc_id % 5 != 0), "
            "delta_side AS (SELECT doc_id, text FROM documents WHERE doc_id % 5 = 0), "
            + dedup.ngram_jaccard_cross_sql(threshold=0.5).replace("WITH ", "", 1)
        ),
        "near_dup_incremental_mh": (
            "WITH corpus_side AS (SELECT doc_id, text FROM documents WHERE doc_id % 5 != 0), "
            "delta_side AS (SELECT doc_id, text FROM documents WHERE doc_id % 5 = 0), "
            + dedup.ngram_jaccard_cross_sql(threshold=0.5).replace("WITH ", "", 1)
        ),
        "exact_dedup": dedup.exact_dedup_sql("documents"),
        "url_dedup": urldedup.url_dedup_sql(_URL_SYNTH_SQL),
        "neardup_minhash": dedup.ngram_jaccard_sql("documents", threshold=0.8),
        "neardup_jaccard": dedup.ngram_jaccard_sql("documents", threshold=0.8),
        "dedup_clusters": _cluster.cluster_sql(
            dedup.ngram_jaccard_sql("documents", threshold=0.8)
        ),
        "cluster_safe_split": _cluster.cluster_safe_split_sql(
            dedup.ngram_jaccard_sql("documents", threshold=0.8), "documents"
        ),
        "dedup_corpus": _cluster.dedup_corpus_sql(
            dedup.ngram_jaccard_sql("documents", threshold=0.8),
            "(SELECT doc_id, text, lang, source, n_chars FROM documents)",
        ),
        "decontaminate": _decontam.decontaminate_sql("documents", shingle_n=5),
        "phrase_decontam": _decontam.phrase_decontaminate_sql(
            "documents", phrase_docs=PHRASE_DECON_DOCS
        ),
        "semantic_decontam": _decontam.semantic_decontam_sql(
            "embeddings", tau=0.4
        ),
        "boilerplate_strip": _boilerplate.boilerplate_strip_sql(
            "documents", pct=2
        ),
        "perplexity_buckets": _quantiles.perplexity_buckets_sql("documents"),
        "gopher_rules": text_analysis.gopher_rules_sql("documents"),
        "winnow_fingerprints": text_analysis.winnow_fingerprints_sql("documents"),
        "doremi_weights": _keywords.doremi_weights_sql("documents"),
        "value_percentiles": _quantiles.column_percentiles_sql("events"),
        "late_arrivals": _windows_mod.late_arrivals_sql(
            "events", allowed_lateness_us=1_800_000_000, seq_scramble=True
        ),
        "window_gaps": _windows_mod.window_gaps_sql(
            "events", interval_us=600_000_000
        ),
        "dup_ngrams": _dupgrams.dup_ngram_fraction_sql("documents", shingle_n=5),
        "substring_dedup": _substring.substring_dup_coverage_sql("documents", min_len=30),
        "c4_rules": _c4.c4_clean_sql(
            "read_parquet('" + os.path.join(_webpages_dir(), "*.parquet") + "')"
        ),
        "distinct_ngrams": _diversity.distinct_ngrams_sql("documents", shingle_n=2),
        "prefix_cache_stats": _prefix_cache_stats_sql(),
        "kcenter_select": _coreset.kcenter_select_sql("embeddings", k=6),
        "pca_project": _pca.pca_sql("embeddings"),
        "transform_pivot": _transform_mod.transform_pivot_sql("events"),
        "rater_kappa": _agreement.rater_kappa_sql("documents"),
        "calibration_bins": _agreement.calibration_bins_sql("documents"),
        "pca_residual": _pca.pca_residual_sql("embeddings"),
        "srp_project": _pca.srp_sql("embeddings"),
        "refusal_flags": _refusal_flags_sql(),
        "keyword_tags": _tagging.keyword_tags_sql("documents", KEYWORD_TAG_PHRASES),
        "span_dedup": _spandedup.span_dedup_sql("documents", span_words=3),
        "kmeans_clusters": _kmeans.kmeans_sql("embeddings", k=8, iters=2),
        "cluster_purity": _kmeans.cluster_purity_sql("embeddings", k=8, iters=2),
        "semantic_dedup": _kmeans.semantic_dedup_sql("embeddings", k=8, iters=2, threshold_pct=90),
        "cluster_sample": _kmeans.cluster_sample_sql("embeddings", k=8, iters=2, n_per_cluster=10),
        "range_join_bands": _range_join_sql(),
        "pagerank": _graph.pagerank_sql(
            "SELECT DISTINCT o.o_custkey AS src, l.l_suppkey + 1000000 AS dst "
            "FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey"
        ),
        "hits_scores": _graph.hits_sql(
            "SELECT o.o_custkey AS src, l.l_suppkey + 1000000 AS dst "
            "FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey"
        ),
        "label_propagation": _graph.label_propagation_sql(
            "SELECT o.o_custkey AS src, l.l_suppkey + 1000000 AS dst "
            "FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey"
        ),
        "sample_split": _sampling.split_summary_sql("documents", splits=SPLIT_SPEC),
        "weighted_sample": _sampling.weighted_sample_sql(
            "documents", k=20, weight_col="n_chars"
        ),
        "stratified_sample": _sampling.stratified_sample_sql(
            "documents", strata_col="lang", rates=STRATA_RATES
        ),
        "interleave_sources": _sampling.interleave_sources_sql(
            "documents", {"src0": 4, "src1": 2}, n=60
        ),
        "source_mixture": _sampling.source_mixture_sql(
            "documents", target_total=200
        ),
        "curate_corpus": _curate.curate_sql("documents"),
        "approx_distinct": _sketch.kmv_distinct_sql("events", "user_id", k=64),
        "approx_distinct_hll": _sketch.hll_distinct_sql("events", "event_id", p=6),
        "heavy_hitters": _sketch.heavy_hitters_sql("events", "user_id", n=20),
        "approx_distinct_by_user": _sketch.hll_distinct_by_sql("events", "user_id", "event_type", p=6),
        "source_jaccard": _compare.source_jaccard_sql("documents", shingle_n=5),
        "source_ablation": _compare.source_ablation_sql("documents"),
        "cms_counts": _sketch.cms_counts_sql("events", "user_id", width=256, depth=4),
        "kmv_overlap": _sketch.kmv_overlap_sql(
            "events", key_col="user_id", label_col="event_type",
            label_a="click", label_b="purchase", k=64,
        ),
        "schema_profile": _analytics.schema_profile_sql(
            "events", columns=("event_id", "user_id", "event_type", "value", "ts")
        ),
        "abc_classification": _analytics.abc_classification_sql("events"),
        "extreme_events": _analytics.extreme_events_sql("events"),
        "rfm_scores": _analytics.rfm_scores_sql("events"),
        "autocorr_lag1": _analytics.autocorr_lag1_sql("events"),
        "change_point": _analytics.change_point_sql("events"),
        "holt_forecast": _analytics.holt_forecast_sql("events"),
        "variable_width_histogram": _analytics.variable_width_histogram_sql("events"),
        "k_anonymity": _analytics.k_anonymity_sql("events", k=10),
        "psi_drift": _analytics.psi_drift_sql("events"),
        "l_diversity": _analytics.l_diversity_sql("events", l=8),
        "theil_sen": _analytics.theil_sen_sql("events"),
        "events_heatmap": _analytics.events_heatmap_sql("events"),
        "spearman_by_type": _analytics.spearman_by_group_sql("events"),
        "mann_whitney_u": _analytics.mann_whitney_u_sql("events"),
        "longest_streak": _analytics.longest_streak_sql("events"),
        "winsorize": _analytics.winsorize_sql("events"),
        "hapax_rate": _compare.hapax_rate_sql("documents"),
        "ks_doclen": _compare.ks_statistic_sql("documents"),
        "source_profile": _compare.source_profile_sql("documents"),
        "source_kl": _compare.source_kl_sql("documents"),
        "tfidf_keywords": _keywords.tfidf_keywords_sql("documents", k=5),
        "collocations_pmi": _keywords.collocations_pmi_sql("documents", k=50, min_count=5),
        "bpe_pair_counts": _keywords.bpe_pair_counts_sql("documents", k=100),
        "bpe_learn_merges": _keywords.bpe_learn_merges_sql("documents", n_merges=8),
        "bpe_encode_counts": _keywords.bpe_encode_counts_sql("documents", n_merges=8),
        "bpe_fertility": _keywords.bpe_fertility_by_lang_sql("documents", n_merges=8),
        "dsir_weights": _keywords.dsir_weights_sql("documents", target_lang="en"),
        "keyness_llr": _compare.keyness_llr_sql("documents", target_lang="en", k=50),
        "unigram_logprob": _keywords.unigram_logprob_sql("documents"),
        "bigram_logprob": _keywords.bigram_logprob_sql("documents"),
        "heaps_law": _keywords.heaps_law_sql("documents", points=24),
        "burstiness": _keywords.burstiness_sql("documents", k=50),
        "zipf_slope": _keywords.zipf_slope_sql("documents"),
        "doc_skyline": text_analysis.doc_skyline_sql("documents"),
        "gini_vocab": _keywords.gini_vocab_sql("documents"),
        "syllable_stats": _keywords.syllable_stats_sql("documents"),
        "stylometry_delta": _keywords.stylometry_delta_sql("documents", k=30),
        "vocab_coverage": _keywords.vocab_coverage_sql("documents", ks=(5, 10, 20, 50)),
        "cooccurrence_pairs": _keywords.cooccurrence_pairs_sql(
            "documents", k=50, min_count=5
        ),
        "fuzzy_token_pairs": _keywords.fuzzy_token_pairs_sql("documents", min_len=4, max_dist=2),
        "chunk_documents": _chunking.chunk_documents_sql(
            "documents", chunk_size=32, stride=16
        ),
        "chunk_dedup_stats": _chunking.chunk_dedup_stats_sql(
            "documents", chunk_size=32, stride=16
        ),
        "running_total": _analytics.running_total_sql("events"),
        "funnel": _analytics.funnel_sql("events"),
        "value_histogram": _analytics.value_histogram_sql("events", nbins=20),
        "outliers_mad": _analytics.outliers_mad_sql("events", k=3.0),
        "user_timeline": _analytics.user_timeline_sql("events"),
        "regression_by_type": _analytics.regression_by_group_sql("events"),
        "weighted_median": _analytics.weighted_median_sql("events"),
        "journey_trigrams": _analytics.journey_trigrams_sql("events", k=20),
        "chi_square_hour_type": _analytics.chi_square_hour_type_sql("events"),
        "trimmed_mean": _analytics.trimmed_mean_sql("events", trim=0.1),
        "distinct_users_by_type": _analytics.distinct_users_by_type_sql("events"),
        "user_set_ops": _analytics.user_set_ops_sql("events"),
        "hourly_correlation": _analytics.hourly_correlation_sql("events"),
        "kendall_hourly": _analytics.kendall_hourly_sql("events"),
        "benford_value": _analytics.benford_value_sql("events"),
        "frequent_itemsets": _analytics.frequent_itemsets_sql("events"),
        "anova_f": _analytics.anova_f_sql("events"),
        "rolling_mean": _analytics.rolling_mean_sql("events", window=4),
        "event_gaps": _analytics.event_gaps_sql("events"),
        "key_skew": _analytics.key_skew_sql("events"),
        "hot_keys": _analytics.hot_keys_sql("events"),
        "ab_conversion_test": _analytics.ab_conversion_test_sql(
            "(SELECT * FROM events WHERE ts < TIMESTAMP '2024-01-02')"),
        "seasonal_decompose": _analytics.seasonal_decompose_sql("events"),
        "cohort_retention": _analytics.cohort_retention_sql("events"),
        "retention_matrix": _analytics.retention_matrix_sql(
            "events", period_us=86_400_000_000),
        "touch_attribution": _analytics.touch_attribution_sql("events"),
        "rate_limit_violations": _analytics.rate_limit_violations_sql(
            "events", window_us=86_400_000_000, max_events=5),
        "geometric_mean": _analytics.geometric_mean_sql("events"),
        "equidepth_histogram": _analytics.equidepth_histogram_sql("events", nbuckets=10),
        "type_entropy": _analytics.type_entropy_sql("events"),
        "rate_wilson_ci": _analytics.rate_wilson_ci_sql("events"),
        "percent_rank": _analytics.percent_rank_sql("events"),
        "ntile_quartiles": _analytics.ntile_buckets_sql("events", n=4),
        "event_transitions": _analytics.event_transitions_sql("events"),
        "pivot_hourly": _analytics.pivot_hourly_sql("events"),
        "zscore_normalize": _analytics.zscore_normalize_sql("events"),
        "bloom_semijoin": _bloom.bloom_semijoin_sql(
            "lineitem",
            "(SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT')",
            probe_key="l_orderkey",
            build_key="o_orderkey",
        ),
        "anti_join_orders": relational.ORDERS_WITHOUT_LINEITEMS_SQL,
        "full_outer_join": relational.FULL_OUTER_EVENTS_CUSTOMERS_SQL,
        "global_sort_page": relational.GLOBAL_SORT_PAGE_SQL,
        "centroid_cosine": _embstats.centroid_cosine_sql("embeddings"),
        "embedding_quantize": _embstats.quantize_embeddings_int8_sql("embeddings"),
        "pii_scrub": _pii.scrub_sql(
            """(SELECT doc_id,
                       text || ' contact user' || CAST(doc_id AS VARCHAR)
                            || '@example.org ip 10.' || CAST(doc_id % 256 AS VARCHAR)
                            || '.0.' || CAST(doc_id % 250 AS VARCHAR)
                            || ' call +1-555-' || lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0')
                            || '-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') AS text
                FROM documents)"""
        ),
        "more_like_this": index_oracle.more_like_this_sql("documents", 0, 10),
        "highlight": index_oracle.highlight_sql("documents", BM25_QUERY_AND, 10),
        "ranking_eval": _ranking_eval_sql(),
        "embedding_neardup": dedup.embedding_near_dups_sql("embeddings", threshold=0.4),
        "knn_cosine": similarity.knn_sql("embeddings", 0, 10),
        # knn_ivf runs the exact regime (nprobe=n_centroids == brute cosine)
        "knn_ivf": similarity.knn_sql("embeddings", 0, 10),
        "knn_pq": similarity.knn_sql("embeddings", 0, 10),
        "knn_filtered": similarity.knn_filtered_sql(
            "embeddings", 0, 10, filter_col="label",
            filter_values=KNN_FILTER_LABELS,
        ),
        "knn_radius": (
            "SELECT vec_id, cosine FROM ("
            + similarity.knn_radius_sql("embeddings", 0, threshold=0.2)
            + ") t"
        ),
        "knn_l2": similarity.knn_l2_sql("embeddings", 0, 10),
        "knn_dot": similarity.knn_dot_sql("embeddings", 0, 10),
        "retriever_agreement": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, 10, mode="or")
            + "), a AS (SELECT doc_id AS id, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r FROM ranked), "
            "dense AS (SELECT vec_id, round(list_cosine_similarity(CAST(embedding AS DOUBLE[]), q.qv), 6) AS c FROM embeddings CROSS JOIN (SELECT CAST(embedding AS DOUBLE[]) AS qv FROM embeddings WHERE vec_id = 0) q), "
            "b AS (SELECT vec_id AS id, row_number() OVER (ORDER BY c DESC, vec_id ASC) AS r FROM dense QUALIFY r <= 10) "
            "SELECT CAST(10 AS BIGINT) AS k, "
            "CAST((SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 10 AND b.r <= 10) AS BIGINT) AS overlap_at_k, "
            "floor(((SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 1 AND b.r <= 1) * 2520 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 2 AND b.r <= 2) * 1260 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 3 AND b.r <= 3) * 840 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 4 AND b.r <= 4) * 630 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 5 AND b.r <= 5) * 504 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 6 AND b.r <= 6) * 420 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 7 AND b.r <= 7) * 360 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 8 AND b.r <= 8) * 315 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 9 AND b.r <= 9) * 280 + (SELECT count(*) FROM a JOIN b USING (id) WHERE a.r <= 10 AND b.r <= 10) * 252) * 1.0 / 25200 * 1e6 + 0.5) / 1e6 AS avg_overlap"
        ),
        "luhn_audit": _luhn_audit_oracle(),
        "rbo_retrievers": (
            "WITH rra AS ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, 10, mode="or")
            + "), rrb AS ("
            + index_oracle.bm25_sql("documents", RBO_QUERY_B, 10, mode="or")
            + "), ra AS (SELECT doc_id AS id, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r FROM rra), "
            "rb AS (SELECT doc_id AS id, row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r FROM rrb), "
            + similarity.rbo_overlap_sql("ra", "rb")
        ),
        "knn_binary": similarity.knn_binary_sql("embeddings", 0, 10),
        "knn_int8": similarity.knn_int8_sql("embeddings", 0, 10),
        "knn_int4_rescore": similarity.knn_int4_rescore_sql("embeddings", 0, 10),
        "knn_maxsim": similarity.knn_maxsim_sql("embeddings", (0, 1, 2, 3), 10),
        "ranking_eval_mrr": __import__(
            "harvester_ray.index.evaluate", fromlist=["x"]
        ).evaluate_ranking_mrr_sql("documents"),
        "ranking_eval_err": __import__(
            "harvester_ray.index.evaluate", fromlist=["x"]
        ).evaluate_ranking_err_sql("documents"),
        "mmr_rerank": similarity.mmr_rerank_sql(
            "embeddings", 0, k=5, pool=12, lam=0.7
        ),
        "rank_feature": index_oracle.rank_feature_bm25_sql(
            "documents", BM25_QUERY_OR, 10, pivot=120.0, boost=1.2, mode="or",
        ),
        "table_merge": (
            "WITH mx AS (SELECT max(doc_id) AS m FROM documents), "
            "merged AS ("
            "  SELECT doc_id, source, "
            "         CASE WHEN doc_id % 7 = 0 THEN n_chars + 1000 ELSE n_chars END AS n_chars "
            "  FROM documents WHERE NOT (doc_id % 11 = 0 AND doc_id % 7 != 0) "
            "  UNION ALL "
            "  SELECT m + 1, 'srcnew', 11 FROM mx "
            "  UNION ALL SELECT m + 2, 'srcnew', 22 FROM mx"
            ") "
            "SELECT CAST(count(*) AS BIGINT) AS n, "
            "CAST(sum(n_chars) AS BIGINT) AS chars_sum, "
            "CAST(min(doc_id) AS BIGINT) AS min_id, "
            "CAST(max(doc_id) AS BIGINT) AS max_id FROM merged"
        ),
        "suggest_terms": """
            WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(regexp_replace(text, '<[^>]*>', ' ', 'g')), '[a-z0-9]+')) AS term FROM documents),
            stats AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term)
            SELECT term, df FROM stats WHERE term LIKE 's%'
            ORDER BY df DESC, term ASC LIMIT 10
        """,
        "did_you_mean": f"""
            WITH toks(token) AS (VALUES {", ".join(f"('{t}')" for t in sorted(set(DYM_QUERY.split())))}),
            tokd AS (SELECT doc_id, unnest({_analyzer.sql_tokenize_expr('text')}) AS t FROM documents),
            vocab AS (SELECT t AS term, count(DISTINCT doc_id) AS df FROM tokd GROUP BY t)
            SELECT token,
                   coalesce((
                     SELECT term FROM vocab
                     WHERE substr(term, 1, 1) = substr(token, 1, 1)
                       AND abs(length(term) - length(token)) <= 2
                       AND levenshtein(term, token) <= 2
                       AND NOT EXISTS (SELECT 1 FROM vocab v2 WHERE v2.term = token)
                     ORDER BY levenshtein(term, token) ASC, df DESC, term ASC
                     LIMIT 1
                   ), '') AS suggestion
            FROM toks ORDER BY token
        """,
        "matches_by_source": """
            WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(regexp_replace(text, '<[^>]*>', ' ', 'g')), '[a-z0-9]+')) AS term FROM documents),
            m AS (SELECT doc_id FROM toks WHERE term IN ('spark', 'window')
                  GROUP BY doc_id HAVING count(DISTINCT term) = 2)
            SELECT d.source, count(*) AS n FROM documents d JOIN m ON d.doc_id = m.doc_id
            GROUP BY d.source ORDER BY d.source
        """,
        "extract_props": (
            "SELECT event_id, CAST(json_extract(props, '$.k') AS BIGINT) AS k "
            "FROM events ORDER BY event_id"
        ),
        "simhash": dedup.simhash_sql("documents"),
        "simhash_neardup": dedup.simhash_neardup_sql("documents", max_hamming=3),
        # --- transcript family: oracle reads the same deterministic synth
        # Parquet the engine reads (_transcripts_dir() above guarantees it
        # exists before these strings are ever executed) ------------------
        "transcript_bm25": index_oracle.bm25_sql(
            "tdoc", "gaji hopotenu", 10, mode="and"
        ).replace("WITH ", _transcript_doc_sql_head(_tglob) + ", ", 1),
        "conv_bm25": index_oracle.bm25_sql(
            "cdoc", CONV_QUERY, 10, mode="or"
        ).replace("WITH ", _transcripts_mod.conv_doc_sql_head(_tglob) + ", ", 1),
        "conv_has_child": index_oracle.has_child_sql(
            "tdocp", HAS_CHILD_QUERY, parent_col="conv_id", k=10,
            mode="or", score_mode="sum",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "has_parent": index_oracle.has_parent_sql(
            "tdocp", HAS_CHILD_QUERY, parent_col="conv_id", k=10, mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "date_histogram": index_oracle.date_histogram_sql(
            "tdocp", HAS_CHILD_QUERY, ts_col="ts",
            interval_us=3_600_000_000, mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "bm25_range": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql("tdocp", HAS_CHILD_QUERY, 100000, mode="or")
            + ") SELECT r.doc_id, r.score FROM ranked r "
            "JOIN tdocp d ON d.doc_id = r.doc_id "
            f"WHERE d.ts >= TIMESTAMP '{RANGE_GTE}' AND d.ts < TIMESTAMP '{RANGE_LT}' "
            "ORDER BY r.score DESC, r.doc_id ASC LIMIT 10"
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "recency_boost": index_oracle.recency_bm25_sql(
            "tdocp", HAS_CHILD_QUERY, 10, origin_us=RECENCY_ORIGIN_US,
            mode="or", ts_col="ts",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "function_score": index_oracle.function_score_sql(
            "tdocp", HAS_CHILD_QUERY, 10, origin_us=RECENCY_ORIGIN_US,
            scale_us=FSCORE_SCALE_US, decay=0.5, mode="or", ts_col="ts",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "span_first": index_oracle.span_first_bm25_sql(
            "documents", SPAN_FIRST_TERM, SPAN_FIRST_END, 10
        ),
        "span_not": index_oracle.span_not_bm25_sql(
            "documents", SPAN_NOT_INC, SPAN_NOT_EXC,
            distance=SPAN_NOT_DIST, k=10,
        ),
        "match_phrase_prefix": index_oracle.phrase_prefix_bm25_sql(
            "documents", PHRASE_PREFIX_QUERY, 10
        ),
        "match_bool_prefix": index_oracle.bool_prefix_bm25_sql(
            "documents", BOOL_PREFIX_QUERY, 10
        ),
        "search_request": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, 10, mode="or")
            + ") SELECT doc_id, score FROM ranked "
            "ORDER BY score DESC, doc_id ASC LIMIT 5 OFFSET 5"
        ),
        "dsl_query": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql(
                "documents", "table scan", 100000, mode="and", must_not="dup"
            )
            + ") SELECT r.doc_id, r.score FROM ranked r "
            "JOIN documents d ON d.doc_id = r.doc_id "
            "WHERE d.source IN ('src0','src1','src2') "
            "ORDER BY r.score DESC, r.doc_id ASC LIMIT 10"
        ),
        "terms_set": index_oracle.terms_set_sql(
            "documents", TERMS_SET_TERMS, "1 + (n_chars % 3)", 10
        ),
        "span_or": index_oracle.span_or_bm25_sql("documents", SPAN_OR_TERMS, 10),
        "span_multi": index_oracle.span_multi_bm25_sql("documents", BM25_PREFIX, 10),
        "intervals": index_oracle.intervals_bm25_sql(
            "documents", INTERVALS_QUERY, max_gaps=INTERVALS_MAX_GAPS, k=10
        ),
        "span_containing": index_oracle.span_containing_bm25_sql(
            "documents", SPAN_CONT_BIG, SPAN_CONT_LITTLE,
            slop=SPAN_CONT_SLOP, mode="containing", k=10,
        ),
        "span_within": index_oracle.span_containing_bm25_sql(
            "documents", SPAN_CONT_BIG, SPAN_CONT_LITTLE,
            slop=SPAN_CONT_SLOP, mode="within", k=10,
        ),
        "pinned_query": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, 100000, mode="or")
            + "), pin(doc_id, pord) AS (VALUES (7, 1), (3, 2), (123, 3)), "
            "org AS (SELECT doc_id, row_number() OVER "
            "(ORDER BY score DESC, doc_id ASC) AS r FROM ranked "
            "WHERE doc_id NOT IN (SELECT doc_id FROM pin)) "
            "SELECT CAST(rank AS BIGINT) AS rank, CAST(doc_id AS BIGINT) AS doc_id, pinned "
            "FROM (SELECT pord AS rank, doc_id, true AS pinned FROM pin "
            "UNION ALL SELECT 3 + r, doc_id, false FROM org) "
            "ORDER BY rank LIMIT 10"
        ),
        "exists_filter": (
            "SELECT doc_id, 1.0 AS score FROM tdocp "
            "WHERE tool IS NOT NULL ORDER BY doc_id LIMIT 10"
        ).replace("SELECT doc_id", _transcript_docp_sql_head(_tglob) + " SELECT doc_id", 1),
        "passage_bm25": index_oracle.has_child_sql(
            "cdoc", BM25_QUERY_OR, parent_col="parent", k=10, mode="or",
            score_mode="max",
        ).replace(
            "WITH ",
            "WITH chunks AS ("
            + _chunking.chunk_documents_sql(
                "documents", chunk_size=PASSAGE_CHUNK, stride=PASSAGE_STRIDE
            )
            + "), cdoc AS (SELECT CAST(doc_id * 1024 + chunk_idx AS BIGINT) "
            "AS doc_id, chunk_text AS text, CAST(doc_id AS BIGINT) AS parent "
            "FROM chunks), ",
            1,
        ),
        "export_search": (
            "SELECT doc_id, score FROM ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, 100000, mode="or")
            + ") ORDER BY doc_id"
        ),
        "assemble_context": (
            "WITH ranked AS ("
            + index_oracle.bm25_sql("documents", BM25_QUERY_OR, 50, mode="or")
            + "), "
            "lens AS (SELECT doc_id, len("
            + _analyzer.sql_tokenize_expr("text")
            + ") AS n_tokens FROM documents), "
            "ordered AS (SELECT r.doc_id, l.n_tokens, "
            "row_number() OVER (ORDER BY r.score DESC, r.doc_id ASC) AS rank, "
            "sum(l.n_tokens) OVER (ORDER BY r.score DESC, r.doc_id ASC "
            "ROWS UNBOUNDED PRECEDING) AS cum_tokens "
            "FROM ranked r JOIN lens l USING (doc_id)) "
            "SELECT CAST(rank AS BIGINT) AS rank, doc_id, "
            "CAST(n_tokens AS BIGINT) AS n_tokens, "
            "CAST(cum_tokens AS BIGINT) AS cum_tokens "
            f"FROM ordered WHERE cum_tokens <= {CONTEXT_BUDGET} ORDER BY rank"
        ),
        "percolate_qs": _percolate_mod.percolate_qs_sql(
            "documents", PERC_QS_QUERIES
        ),
        "query_string": index_oracle.query_string_sql(
            "documents", QS_QUERY, 10
        ),
        "lang_routed_search": index_oracle.bm25_sql(
            "(SELECT * FROM documents WHERE lang = 'en')",
            BM25_QUERY_OR, 10, mode="or",
        ),
        "delete_by_query": (
            index_oracle.bm25_sql("kept", BM25_QUERY_OR, 10, mode="or")
            .replace(
                "WITH ",
                "WITH delt AS (SELECT DISTINCT doc_id FROM (SELECT doc_id, "
                "unnest(" + _analyzer.sql_tokenize_expr("text")
                + ") AS term FROM documents) WHERE term = '"
                + RARE_TERMS_QUERY + "'), "
                "kept AS (SELECT * FROM documents WHERE doc_id NOT IN "
                "(SELECT doc_id FROM delt)), ",
                1,
            )
        ),
        "update_by_query": (
            index_oracle.bm25_sql("modif", "zzflag", 10, mode="or")
            .replace(
                "WITH ",
                "WITH updt AS (SELECT DISTINCT doc_id FROM (SELECT doc_id, "
                "unnest(" + _analyzer.sql_tokenize_expr("text")
                + ") AS term FROM documents) WHERE term = '"
                + RARE_TERMS_QUERY + "'), "
                "modif AS (SELECT doc_id, CASE WHEN doc_id IN "
                "(SELECT doc_id FROM updt) THEN text || '" + UPDATE_SUFFIX
                + "' ELSE text END AS text, lang, source FROM documents), ",
                1,
            )
        ),
        "role_token_quantiles": _transcripts_mod.role_token_quantiles_sql(_tsrc),
        "system_prompt_reuse": _system_prompt_reuse_sql(),
        "conv_template_dedup": _conv_template_dedup_sql(),
        "reindex_search": index_oracle.bm25_sql(
            "(SELECT * FROM documents WHERE lang = 'en')",
            BM25_QUERY_OR, 10, mode="or",
        ),
        "bucket_stats": (
            "WITH h AS (\n"
            + index_oracle.date_histogram_sql(
                "tdocp", HAS_CHILD_QUERY, ts_col="ts",
                interval_us=3_600_000_000, mode="or",
            )
            + "\n) SELECT CAST(count(*) AS BIGINT) AS n_buckets, "
            "CAST(min(doc_count) AS BIGINT) AS min_count, "
            "CAST(max(doc_count) AS BIGINT) AS max_count, "
            "CAST(sum(doc_count) AS BIGINT) AS sum_count, "
            "floor(CAST(sum(doc_count) AS BIGINT) * 1.0 / count(*) * 1e6 + 0.5) / 1e6 AS avg_count "
            "FROM h"
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "conv_depth_histogram": _transcripts_mod.conv_depth_histogram_sql(_tsrc),
        "verbosity_by_depth": _transcripts_mod.verbosity_by_depth_sql(_tsrc),
        "markov_entropy_rate": _transcripts_mod.markov_entropy_rate_sql(_tsrc),
        "histogram_pipeline": index_oracle.histogram_pipeline_sql(
            "tdocp", HAS_CHILD_QUERY, ts_col="ts",
            interval_us=3_600_000_000, mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "moving_fn": index_oracle.moving_fn_sql(
            "tdocp", HAS_CHILD_QUERY, window=3, ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "bucket_script": index_oracle.bucket_script_sql(
            "tdocp", HAS_CHILD_QUERY, tool_col="tool", ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "bucket_selector": index_oracle.bucket_selector_sql(
            "tdocp", HAS_CHILD_QUERY, tool_col="tool", ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "percentiles_bucket": index_oracle.percentiles_bucket_sql(
            "tdocp", HAS_CHILD_QUERY, ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "normalize_agg": index_oracle.normalize_agg_sql(
            "tdocp", HAS_CHILD_QUERY, ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "rate_agg": index_oracle.rate_agg_sql(
            "tdocp", HAS_CHILD_QUERY, ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "moving_percentiles": index_oracle.moving_percentiles_sql(
            "tdocp", HAS_CHILD_QUERY, window=3, q=0.5, ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "extended_stats_bucket": index_oracle.extended_stats_bucket_sql(
            "tdocp", HAS_CHILD_QUERY, ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "serial_diff": index_oracle.serial_diff_sql(
            "tdocp", HAS_CHILD_QUERY, lag=2, ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "bucket_sort": index_oracle.bucket_sort_sql(
            "tdocp", HAS_CHILD_QUERY, min_count=2, size=5, ts_col="ts",
            mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "cumulative_cardinality": index_oracle.cumulative_cardinality_sql(
            "tdocp", HAS_CHILD_QUERY, field="conv_id", ts_col="ts",
            mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "weighted_avg": index_oracle.weighted_avg_sql(
            "tdocp", HAS_CHILD_QUERY, ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "top_metrics": index_oracle.top_metrics_sql(
            "tdocp", HAS_CHILD_QUERY, group="tool", ts_col="ts", mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "diversified_sampler": index_oracle.diversified_sampler_sql(
            "tdocp", HAS_CHILD_QUERY, field="conv_id", max_per=1, k=10,
            mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "auto_date_histogram": index_oracle.auto_date_histogram_sql(
            "tdocp", HAS_CHILD_QUERY, target_buckets=24, ts_col="ts",
            mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "matrix_stats": index_oracle.matrix_stats_sql(
            "tdocp", HAS_CHILD_QUERY, ts_base_s=TS_BASE_S, ts_col="ts",
            mode="or",
        ).replace("WITH ", _transcript_docp_sql_head(_tglob) + ", ", 1),
        "conv_flatten": _transcripts_mod.conv_flatten_sql(_tsrc),
        "conv_flatten_sorted": _transcripts_mod.conv_flatten_sql(_tsrc),
        "conv_branches": _conv_branches_sql(),
        "best_of_n": _best_of_n_sql(),
        "conv_skeletons": _conv_skeletons_sql(),
        "preference_pairs": _preference_pairs_sql(),
        "conv_continuations": _conv_continuations_sql(),
        "conv_stats": _transcripts_mod.conv_stats_sql(_tsrc),
        "role_stats": _transcripts_mod.role_stats_sql(_tsrc),
        "tool_usage": _transcripts_mod.tool_usage_sql(_tsrc),
        "conv_tail": _transcripts_mod.conv_tail_sql(_tsrc),
        "conv_head_tail": _transcripts_mod.conv_head_tail_sql(_tsrc),
        "sft_examples": _transcripts_mod.sft_examples_sql(_tsrc),
        "conv_fit_context": _transcripts_mod.conv_fit_context_sql(_tsrc),
        "merge_turns": _transcripts_mod.merge_consecutive_turns_sql(_tsrc),
        "role_transitions": _transcripts_mod.role_transitions_sql(_tsrc),
        "conv_windows": _transcripts_mod.conv_windows_sql(_tsrc),
        "turn_overlap": _transcripts_mod.turn_overlap_sql(_tsrc),
        "turn_overlap_sorted": _transcripts_mod.turn_overlap_sql(_tsrc),
        "tool_chains": _transcripts_mod.tool_chains_sql(_tsrc),
        "tool_loops": _transcripts_mod.tool_loops_sql(_tsrc, min_run=2),
        "tool_latency": _transcripts_mod.tool_latency_sql(_tsrc),
        "role_violations": _transcripts_mod.role_violations_sql(_tsrc),
        "conv_neardup": dedup.ngram_jaccard_sql("cdoc", threshold=0.5).replace(
            "WITH ", _conv_neardup_sql_head() + ", ", 1
        ),
        "curate_conversations": _transcripts_mod.curate_conversations_sql(_tsrc),
        # knn_ivf_pruned: rows-only (approximate pruned index; recall-tested)
        # knn_hnsw: rows-only (approximate graph ANN; recall + determinism
        # tested in tests/test_hnsw.py)
    }
