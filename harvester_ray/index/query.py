"""BM25 top-k query engine over the segment index.

Mirrors the reference's search semantics: ``simple_query_string`` with
``default_operator: "and"`` (harvester/core/models/search/query.py:80-86)
⇒ AND = posting-list intersection across query terms; OR mode scores the
union. Scores are Okapi BM25, k1=1.2, b=0.75 (see bm25.py), ties broken
(score desc, doc_id asc), matching the oracle.

Physical execution is document-partitioned fan-out — each segment computes
its local top-k, the driver (or a merge step) merges heaps — the same plan
OpenSearch runs across shards for the reference's search API
(harvester/search/views/document.py:122-143).

Every query surface is written once, on ``SearchSurfaces``, over two
fan-out backends:
- ``IndexReader``      — in-process, for tests / single-node latency.
- ``QueryService``     — an actor pool; each actor holds a subset of
  segments' dictionaries + mmap'd postings loaded once in ``__init__``
  (the load-once-per-worker analog of SURVEY §2.3).
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .. import analyzer
from . import bm25
from . import codec
from . import manifest as mf

RESULT_SCHEMA = pa.schema(
    [("rank", pa.int32()), ("doc_id", pa.int64()), ("score", pa.float64())]
)


def _empty_result() -> pa.Table:
    return RESULT_SCHEMA.empty_table()


# Cache budget per indexed token (Σ dl_sum of the segments a reader
# serves): a full decode of every cached kind is ~36 B/token, so the bound
# scales with the data served, never with the distinct terms queried.
CACHE_BYTES_PER_TOKEN = 16
# charged per entry on top of its arrays (key, array headers, LRU node:
# 300-480 B measured on CPython 3.11), so tiny and empty values (rare
# terms, absent phrases) count too
CACHE_ENTRY_BYTES = 512


class SegmentCache:
    """One LRU of decoded segment data shared by a set of segment readers
    (an ``IndexReader``'s, or a ``QuerySegmentActor``'s), bounded by bytes —
    Lucene's ``LRUQueryCache`` discipline. Entries are keyed ``(kind,
    segment, key)`` and every value is a pure function of its immutable
    segment, so an eviction only costs a recompute. The kinds:

    - ``postings``: term → decoded ``(doc_ids, tfs)``;
    - ``pos``: term → int32 positions of those postings in ``doc_ids``;
    - ``score``: ``(term, idf, avgdl)`` → float64 per-posting BM25 scores;
    - ``packed``: term → int64 ``(local_doc << 31) | pos`` occurrence keys;
    - ``match``: phrase/proximity → ``(docs, span tf)``, before the
      live-docs mask and filters (which apply per query).

    Hits, misses, evictions and held bytes are counted per kind."""

    def __init__(self, budget: int):
        from collections import OrderedDict

        self.budget = int(budget)
        self.bytes = 0
        self._lru: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._stats = {
            kind: {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0}
            for kind in ("postings", "pos", "score", "packed", "match")
        }

    @classmethod
    def for_segments(cls, seg_metas) -> "SegmentCache":
        """A cache budgeted for these manifest segments."""
        return cls(CACHE_BYTES_PER_TOKEN * sum(int(m["dl_sum"]) for m in seg_metas))

    def get(self, key: tuple, compute):
        """The cached value of ``key``, else ``compute()``: stored, then LRU
        entries evicted until the cache is within budget. A value larger
        than the whole budget is returned but not stored."""
        st = self._stats[key[0]]
        hit = self._lru.get(key)
        if hit is not None:
            st["hits"] += 1
            self._lru.move_to_end(key)
            return hit[0]
        st["misses"] += 1
        value = compute()
        size = CACHE_ENTRY_BYTES + sum(
            a.nbytes for a in (value if isinstance(value, tuple) else (value,))
        )
        if size <= self.budget:
            self._lru[key] = (value, size)
            self.bytes += size
            st["bytes"] += size
            while self.bytes > self.budget:
                old, (_, n) = self._lru.popitem(last=False)
                self.bytes -= n
                self._stats[old[0]]["bytes"] -= n
                self._stats[old[0]]["evictions"] += 1
        return value

    def __contains__(self, key: tuple) -> bool:
        """Membership peek: moves neither the counters nor the recency."""
        return key in self._lru

    def stats(self) -> dict[str, dict[str, int]]:
        """``{kind: {hits, misses, evictions, bytes}}``."""
        return {kind: dict(st) for kind, st in self._stats.items()}


class SegmentReader:
    """Loads one segment's term dictionary + doc lengths once (numpy column
    views, no per-term python materialization); postings are mmap'd and
    decoded lazily per query term into ``cache``, the ``SegmentCache`` this
    reader shares with the other segments of its reader (the
    load-once-per-worker discipline of SURVEY §2.3)."""

    def __init__(self, base_path: str, cache: SegmentCache):
        self.base = base_path
        self.cache = cache
        # indexes written before the block (max_tf, min_dl) columns were
        # dropped still hold them: they are never read
        pf = pq.ParquetFile(base_path + ".terms.parquet")
        terms = pf.read(columns=[
            c for c in pf.schema_arrow.names if c not in ("block_max_tf", "block_min_dl")
        ])
        self._term_strings = terms["term"].combine_chunks()
        self._lookup = {t: i for i, t in enumerate(self._term_strings.to_pylist())}
        for col in ("df", "cf", "doc_off", "doc_nbytes", "tf_off", "tf_nbytes"):
            setattr(self, "_" + col, np.asarray(terms[col].combine_chunks(), dtype=np.int64))
        # the block columns share one list layout: per-term [lo, hi) slices
        self._block_off = np.asarray(
            terms["block_last_doc"].combine_chunks().offsets, dtype=np.int64
        )
        self._blocks = {
            col: np.asarray(terms[col].combine_chunks().values, dtype=np.int64)
            for col in ("block_last_doc", "block_doc_off", "block_tf_off")
        }
        # underscore-prefixed columns (e.g. the ES-_source analog "_source")
        # are stored-on-disk-only: pruned at the read, never held in serving
        # memory, fetched per doc batch via stored_values()
        docs_schema = pq.read_schema(base_path + ".docs.parquet")
        self.stored_cols = [c for c in docs_schema.names if c.startswith("_")]
        live_cols = [c for c in docs_schema.names if not c.startswith("_")]
        docs = pq.read_table(base_path + ".docs.parquet", columns=live_cols)
        self.doc_ids = np.asarray(docs["doc_id"].combine_chunks(), dtype=np.int64)
        self.dl = np.asarray(docs["dl"].combine_chunks(), dtype=np.int64)
        # attribute columns (filtered search / recency boost), aligned to doc_ids
        self.attrs: dict[str, pa.Array] = {
            c: docs[c].combine_chunks()
            for c in docs.column_names
            if c not in ("doc_id", "dl")
        }
        self._bin = np.memmap(base_path + ".bin", dtype=np.uint8, mode="r")
        # positional stream (phrase queries): present only when the index was
        # built with store_positions — loaded lazily, never touched otherwise
        self.has_positions = "pos_off" in terms.column_names and os.path.exists(
            base_path + ".pos"
        )
        if self.has_positions:
            for col in ("pos_off", "pos_nbytes"):
                setattr(self, "_" + col, np.asarray(terms[col].combine_chunks(), dtype=np.int64))
            self._pos = np.memmap(base_path + ".pos", dtype=np.uint8, mode="r")

    def cached(self, kind: str, key, compute):
        """This segment's ``key`` of ``kind`` through the shared cache."""
        return self.cache.get((kind, self.base, key), compute)

    def entry(self, term: str) -> dict | None:
        """Lightweight per-term view: scalars + numpy block-metadata slices."""
        i = self._lookup.get(term)
        if i is None:
            return None
        row = {
            "idx": i,
            "df": int(self._df[i]),
            "doc_off": int(self._doc_off[i]),
            "doc_nbytes": int(self._doc_nbytes[i]),
            "tf_off": int(self._tf_off[i]),
            "tf_nbytes": int(self._tf_nbytes[i]),
        }
        lo, hi = self._block_off[i], self._block_off[i + 1]
        for col, v in self._blocks.items():
            row[col] = v[lo:hi]
        return row

    def _slices(self, row: dict) -> tuple[memoryview, memoryview]:
        d0, dn = row["doc_off"], row["doc_nbytes"]
        t0, tn = row["tf_off"], row["tf_nbytes"]
        return (
            memoryview(self._bin[d0 : d0 + dn]),
            memoryview(self._bin[t0 : t0 + tn]),
        )

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Full decode → (doc_ids, tfs), cached."""
        if term not in self._lookup:
            return None
        return self.cached(
            "postings", term, lambda: codec.decode_postings(*self._slices(self.entry(term)))
        )

    def postings_positions(self, term: str) -> np.ndarray | None:
        """int32 positions of ``postings(term)[0]`` within ``doc_ids`` —
        cached (the 64x soak measured the per-query doc_lengths
        searchsorted + dl/score recompute dominating warm OR latency; the
        positions are immutable per segment so they are computed once)."""
        if term not in self._lookup:
            return None
        return self.cached(
            "pos", term,
            lambda: np.searchsorted(self.doc_ids, self.postings(term)[0]).astype(np.int32),
        )

    def scored_postings(
        self, term: str, idf: float, avgdl: float
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(positions-in-doc_ids, per-posting BM25 scores) for a term —
        both cached, the scores keyed by ``(term, idf, avgdl)``. The dense
        OR/AND paths are one gather-scatter per term on a hot cache."""
        idx = self.postings_positions(term)
        if idx is None:
            return None
        return idx, self.cached("score", (term, idf, avgdl), lambda: bm25.score(
            self.postings(term)[1].astype(np.float64),
            self.dl[idx].astype(np.float64), idf, avgdl,
        ))

    def postings_for_candidates(
        self, row: dict, cand: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode only the blocks whose doc-id range can contain ``cand``
        (block-skip via last_doc metadata); consecutive needed blocks are
        decoded as single runs (one varbyte pass per run). Returns decoded
        (docs, tfs) of just those blocks, sorted."""
        last_doc = np.asarray(row["block_last_doc"], dtype=np.int64)
        need = np.unique(np.searchsorted(last_doc, cand))
        need = need[need < last_doc.size]
        if need.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        # if we'd touch most blocks anyway, one full decode is cheaper
        if need.size >= max(1, int(0.8 * last_doc.size)):
            db, tb = self._slices(row)
            return codec.decode_postings(db, tb)
        db, tb = self._slices(row)
        blocks = {
            "last_doc": last_doc,
            "doc_off": np.asarray(row["block_doc_off"], dtype=np.int64),
            "tf_off": np.asarray(row["block_tf_off"], dtype=np.int64),
        }
        # split needed block ids into maximal consecutive runs
        run_breaks = np.flatnonzero(np.diff(need) > 1) + 1
        docs_parts, tf_parts = [], []
        for run in np.split(need, run_breaks):
            d, t = codec.decode_block_run(db, tb, blocks, int(run[0]), int(run[-1]))
            docs_parts.append(d)
            tf_parts.append(t)
        return np.concatenate(docs_parts), np.concatenate(tf_parts)

    def prefix_range(self, prefix: str) -> tuple[int, int]:
        """[lo, hi) rows of this segment's term dictionary starting with
        ``prefix``: the dictionary is sorted at build time, so this is two
        O(log V) binary searches with scalar probes."""
        import bisect

        def key(s):
            return s.as_py()

        lo = bisect.bisect_left(self._term_strings, prefix, key=key)
        hi = bisect.bisect_left(self._term_strings, prefix + "\U0010ffff", lo=lo, key=key)
        return lo, hi

    def terms_with_prefix(self, prefix: str) -> list[str]:
        """Terms of this segment's dictionary starting with ``prefix`` (the
        wildcard/prefix expansion path of simple_query_string)."""
        lo, hi = self.prefix_range(prefix)
        return self._term_strings.slice(lo, hi - lo).to_pylist()

    def all_postings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Decode the ENTIRE segment in two vectorized varbyte passes.

        Returns ``(term_rows, df_s, doc_ids, tfs)``: the postings stream in
        encoder order, segmented per term — ``term_rows[k]`` is the row index
        into the (term-sorted) dictionary table of the k-th stream segment,
        whose ``df_s[k]`` postings are the next slice of the flat
        ``doc_ids``/``tfs`` arrays. The doc ids come from one segmented
        cumsum over the per-term delta-gaps; no per-term Python loop
        (compaction/corrections use this instead of per-term ``postings``)."""
        # terms.parquet is term-sorted; byte offsets follow stream order
        order = np.argsort(self._doc_off, kind="stable")
        df_s = self._df[order]
        if df_s.size == 0:
            z = np.empty(0, np.int64)
            return z, z, z, z
        d0 = int(self._doc_off.min())
        t0 = int(self._tf_off.min())
        gaps = codec.varbyte_decode(
            self._bin[d0 : d0 + int(self._doc_nbytes.sum())]
        ).astype(np.int64)
        tfs = codec.varbyte_decode(
            self._bin[t0 : t0 + int(self._tf_nbytes.sum())]
        ).astype(np.int64)
        offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(df_s)])
        run = np.cumsum(gaps)
        base = np.zeros(df_s.size, dtype=np.int64)
        base[1:] = run[offs[1:-1] - 1]
        doc_ids = run - np.repeat(base, df_s)
        return order, df_s, doc_ids, tfs

    @staticmethod
    def _abs_positions(gaps: np.ndarray, tfs: np.ndarray) -> np.ndarray:
        """Delta-gap position stream → absolute ordinals; gaps reset at each
        posting boundary (posting j owns tfs[j] consecutive gaps)."""
        run = np.cumsum(gaps)
        offs = np.cumsum(tfs)
        base = np.zeros(tfs.size, dtype=np.int64)
        base[1:] = run[offs[:-1] - 1]
        return run - np.repeat(base, tfs)

    def positions(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Decode a term's postings + positions → (doc_ids, tfs, positions)
        where ``positions`` is flat: posting j's tfs[j] ascending within-doc
        token ordinals are a contiguous slice. None if the term is absent or
        the segment has no positional stream."""
        i = self._lookup.get(term)
        if not self.has_positions or i is None:
            return None
        docs, tfs = self.postings(term)
        p0, pn = int(self._pos_off[i]), int(self._pos_nbytes[i])
        gaps = codec.varbyte_decode(self._pos[p0 : p0 + pn]).astype(np.int64)
        return docs, tfs, self._abs_positions(gaps, tfs)

    def packed_positions(self, term: str) -> np.ndarray | None:
        """Sorted-unique int64 keys ``(local_doc << 31) | pos`` for every
        occurrence of ``term`` in this segment — cached. Ascending by
        construction (docs ascending, positions ascending within a doc) and
        unique ((doc, pos) pairs are distinct). None when the term is
        absent or the segment has no positional stream."""
        if not self.has_positions or term not in self._lookup:
            return None

        def pack():
            _docs, tfs, pos = self.positions(term)
            return (np.repeat(self.postings_positions(term).astype(np.int64), tfs) << 31) | pos

        return self.cached("packed", term, pack)

    def all_positions(self, tfs_stream: np.ndarray) -> np.ndarray:
        """Whole-segment position decode (one vectorized varbyte pass) in the
        same stream order as ``all_postings``; ``tfs_stream`` is that call's
        flat tf array (defines the per-posting gap-reset boundaries)."""
        gaps = codec.varbyte_decode(self._pos).astype(np.int64)
        return self._abs_positions(gaps, tfs_stream)

    def ordinals(self, docs: np.ndarray) -> np.ndarray:
        """Local doc ordinals (rows of ``doc_ids``) of doc ids this segment
        holds: what a live-docs mask or ``dl`` is indexed by."""
        return np.searchsorted(self.doc_ids, docs)

    def doc_lengths(self, docs: np.ndarray) -> np.ndarray:
        return self.dl[self.ordinals(docs)]

    def stored_values(self, col: str, docs: np.ndarray) -> pa.Array:
        """Fetch a stored-on-disk column (e.g. ``_source``) for specific doc
        ids — one pruned parquet column read, never cached in memory."""
        if col not in self.stored_cols:
            raise KeyError(
                f"stored column {col!r} absent — build with store_source=True"
            )
        tbl = pq.read_table(self.base + ".docs.parquet", columns=[col])
        return tbl[col].combine_chunks().take(pa.array(self.ordinals(docs)))

    def attr_values(self, col: str, docs: np.ndarray) -> np.ndarray:
        if col not in self.attrs:
            raise KeyError(
                f"attribute {col!r} not stored in this index — build with attr_cols=[{col!r}]"
            )
        return np.asarray(self.attrs[col].take(pa.array(self.ordinals(docs))))

    def allowed_docs(self, filters: dict | None) -> np.ndarray | None:
        """Facet filters → sorted allowed doc-id array. Semantics mirror the
        reference API: OR within a field's value list, AND across fields
        (search/views/document.py:70-94). A field's spec may instead be a
        RANGE dict with ``gte``/``gt``/``lte``/``lt`` bounds (the ES
        ``range`` query in filter context), AND-combined. Filters do not
        affect scoring stats (OpenSearch filter-context parity)."""
        if not filters:
            return None
        _RANGE_OPS = {
            "gte": pc.greater_equal, "gt": pc.greater,
            "lte": pc.less_equal, "lt": pc.less,
        }
        mask = np.ones(self.doc_ids.size, dtype=bool)
        for col, spec in filters.items():
            if col not in self.attrs:
                raise KeyError(
                    f"filter field {col!r} not stored — build with attr_cols=[{col!r}]"
                )
            arr = self.attrs[col]
            if isinstance(spec, dict):
                ok = None
                for op, val in spec.items():
                    cmp = _RANGE_OPS[op](arr, pa.scalar(val, type=arr.type))
                    ok = cmp if ok is None else pc.and_(ok, cmp)
                if ok is None:
                    continue
            else:
                ok = pc.is_in(arr, value_set=pa.array(spec))
            mask &= np.asarray(pc.fill_null(ok, False))
        return self.doc_ids[mask]


def _topk(docs: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k on the ORACLE's ordering key: 4-decimal-rounded
    score desc, doc_id asc. Selecting on the rounded score (scores are
    compared rounded everywhere downstream) makes k-boundary ties resolve
    identically to SQL's ``ORDER BY round(score,4) DESC, doc_id ASC`` —
    full-precision selection picks the larger raw score where two docs tie
    at 4 decimals, which is order-of-summation noise, not ranking signal.
    The pre-cut keeps the ENTIRE boundary tie class (everything rounding
    ≥ the rounded k-th), so the doc_id tie-break sees all contenders."""
    if docs.size == 0:
        return docs, scores
    r = np.round(scores, 4)
    if k < docs.size:
        kth = -np.partition(-r, k - 1)[k - 1]
        keep = r >= kth
        docs, scores, r = docs[keep], scores[keep], r[keep]
    order = np.lexsort((docs, -r))[:k]
    return docs[order], scores[order]


def recency_boost(seg: SegmentReader, docs: np.ndarray, recency: dict) -> np.ndarray:
    """Per-doc additive score feature, applied AFTER term scoring. Two kinds:

    - Lucene ``distance_feature`` date boost (default):
      ``boost * pivot/(pivot+|Δt|)`` — reference defaults pivot=90d,
      boost=1.15 (core/models/search/query.py:90-98); ``origin_us`` is
      passed explicitly (no wall clock).
    - ES ``rank_feature`` saturation (``kind="rank_feature"``): ``boost *
      f/(f+pivot)`` over the indexed doc length — the numeric-feature
      relevance signal, no attribute column needed."""
    if recency.get("kind") == "rank_feature":
        pivot = float(recency.get("pivot", 100.0))
        boost = float(recency.get("boost", 1.0))
        dl = seg.doc_lengths(docs).astype(np.float64)
        return boost * dl / (dl + pivot)
    ts = seg.attr_values(recency.get("ts_col", "ts"), docs)
    ts = ts.astype("datetime64[us]").astype(np.int64)
    origin = int(recency["origin_us"])
    pivot = float(recency.get("pivot_us", 90 * 86400 * 1_000_000))
    boost = float(recency.get("boost", 1.15))
    dist = np.abs(origin - ts).astype(np.float64)
    return boost * pivot / (pivot + dist)


def search_segment(
    seg: SegmentReader,
    terms: list[str],
    idf_map: dict[str, float],
    avgdl: float,
    k: int,
    mode: str = "and",
    live_docs: np.ndarray | None = None,
    include: np.ndarray | None = None,
    recency: dict | None = None,
    min_should_match: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Local top-k for one segment. ``live_docs`` is the segment's live-docs
    mask (``live_mask``; None = every doc live) and ``include`` the
    facet-filter allowed set, both applied BEFORE top-k selection so
    dead/filtered docs never crowd out live ones; ``recency`` adds the
    distance_feature date boost. ``min_should_match`` (OR mode) keeps only
    docs matching at least that many distinct query terms. OR mode is
    always ``or_exhaustive``."""
    entries = {}
    for t in terms:
        row = seg.entry(t)
        if row is None:
            if mode == "and":
                return np.empty(0, np.int64), np.empty(0, np.float64)
        else:
            entries[t] = row
    if not entries:
        return np.empty(0, np.int64), np.empty(0, np.float64)

    if mode == "and":
        # dense fast path: when the rarest term still covers a large slice
        # of the segment (head-term conjunctions — the 64x soak's p50
        # regime) or every term's position index is already hot, the dense
        # disjunction keeping docs that match every term beats
        # candidate-driven block decode; contributions accumulate in the
        # same sorted-term order, so scores are bitwise identical to the
        # candidate path.
        min_df = min(e["df"] for e in entries.values())
        if recency is None and (
            4 * min_df >= seg.doc_ids.size
            or all(("pos", seg.base, t) in seg.cache for t in entries)
        ):
            return or_exhaustive(
                seg, entries, idf_map, avgdl, k, live_docs=live_docs, include=include,
                min_should_match=len(entries),
            )
        # intersect, driving from the rarest term; block-skip decode others
        order = sorted(entries, key=lambda t: entries[t]["df"])
        cand, _ = seg.postings(order[0])
        if live_docs is not None:
            cand = cand[live_docs[seg.postings_positions(order[0])]]
        if include is not None and cand.size:
            cand = np.intersect1d(cand, include, assume_unique=True)
        decoded = {}
        for t in order[1:]:
            if cand.size == 0:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            d, f = seg.postings_for_candidates(entries[t], cand)
            idx = np.searchsorted(d, cand)
            idx_c = np.clip(idx, 0, max(d.size - 1, 0))
            hit = (d.size > 0) & (d[idx_c] == cand) if d.size else np.zeros(cand.size, bool)
            cand = cand[hit]
            decoded[t] = (d, f)
        if cand.size == 0:
            return cand, np.empty(0, np.float64)
        dl = seg.doc_lengths(cand).astype(np.float64)
        scores = np.zeros(cand.size, dtype=np.float64)
        for t in sorted(entries):  # fixed accumulation order → deterministic
            if t == order[0]:
                d, f = seg.postings(t)
            else:
                d, f = decoded[t]
            idx = np.searchsorted(d, cand)
            tf = f[idx].astype(np.float64)
            scores += bm25.score(tf, dl, idf_map[t], avgdl)
        if recency is not None:
            scores = scores + recency_boost(seg, cand, recency)
        return _topk(cand, scores, k)

    return or_exhaustive(
        seg, entries, idf_map, avgdl, k, live_docs=live_docs, include=include,
        recency=recency, min_should_match=min_should_match,
    )


def or_exhaustive(
    seg: SegmentReader,
    entries: dict[str, dict],
    idf_map: dict[str, float],
    avgdl: float,
    k: int,
    live_docs: np.ndarray | None = None,
    include: np.ndarray | None = None,
    recency: dict | None = None,
    min_should_match: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact disjunctive top-k over the segment's whole doc space: the one
    scorer of every OR query, and of an AND query whose terms are dense or
    hot (``min_should_match=len(entries)``). Accumulation is in sorted-term
    order per doc — the same order as the candidate AND path and the
    oracle, so scores are bit-comparable.

    There is deliberately no block-max (WAND) pruned path: every block of a
    head term holds a near-max score, so the bounds do not prune, and
    BASELINE.md measured such a path slower than this one on every query
    long enough to take it."""
    # dense accumulation: one zeros(n) plus a fancy-index add per term (a
    # term's postings hit each doc at most once, so no np.add.at is needed);
    # per-doc contributions land in sorted-term order. With
    # min_should_match > 1 the per-doc term counts alone pick the matches.
    n_seg = seg.doc_ids.size
    dense = np.zeros(n_seg, np.float64)
    need = min_should_match if min_should_match is not None and min_should_match > 1 else 0
    hits = np.zeros(n_seg, np.int16 if need else bool)
    for t in sorted(entries):
        idx, sc = seg.scored_postings(t, idf_map[t], avgdl)
        dense[idx] += sc
        if need:
            hits[idx] += 1
        else:
            hits[idx] = True
    nz = np.flatnonzero(hits >= need) if need else np.flatnonzero(hits)
    if live_docs is not None:
        nz = nz[live_docs[nz]]
    uniq = seg.doc_ids[nz]
    sums = dense[nz]
    if include is not None and uniq.size:
        keep = np.isin(uniq, include, assume_unique=True)
        uniq, sums = uniq[keep], sums[keep]
    if recency is not None and uniq.size:
        sums = sums + recency_boost(seg, uniq, recency)
    return _topk(uniq, sums, k)


def parse_tombstones(manifest: dict) -> tuple[np.ndarray, np.ndarray]:
    """Manifest tombstones are ``[doc_id, version]`` pairs: the doc's
    occurrences in segments created BEFORE that version are dead (a modified
    doc is re-added by a newer segment and must keep matching there)."""
    tombs = manifest.get("tombstones", [])
    if not tombs:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    arr = np.asarray(tombs, dtype=np.int64)
    if arr.ndim == 1:  # legacy flat id list: treat as tombstoned everywhere
        return arr, np.full(arr.size, np.iinfo(np.int64).max, dtype=np.int64)
    return arr[:, 0], arr[:, 1]


def live_mask(
    doc_ids: np.ndarray, tomb_ids: np.ndarray, tomb_vers: np.ndarray, created_version: int
) -> np.ndarray | None:
    """Lucene ``liveDocs`` of one segment: a bool mask over its local doc
    ordinals (``doc_ids``, sorted ascending), False where a tombstone newer
    than the segment's ``created_version`` names the doc. Computed once
    where a segment is opened; every op then drops dead docs with a gather
    on ordinals it already holds. Tombstoned ids the segment does not hold
    are ignored. None when no doc of the segment is dead: a clean segment
    carries no mask and its ops skip the gather."""
    if tomb_ids.size == 0 or doc_ids.size == 0:
        return None
    dead = tomb_ids[tomb_vers > created_version]
    pos = np.minimum(np.searchsorted(doc_ids, dead), doc_ids.size - 1)
    pos = pos[doc_ids[pos] == dead]
    if pos.size == 0:
        return None
    live = np.ones(doc_ids.size, bool)
    live[pos] = False
    return live


def merge_topk(
    parts: list[tuple[np.ndarray, np.ndarray]], k: int
) -> pa.Table:
    if not parts:
        return _empty_result()
    docs = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
    scores = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, np.float64)
    docs, scores = _topk(docs, scores, k)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, docs.size + 1, dtype=np.int32)),
            "doc_id": pa.array(docs, pa.int64()),
            "score": pa.array(scores, pa.float64()),
        }
    )


class TermStats:
    """Global (term → df) lookup over the bucket-partitioned term-stats
    files. Only the bucket files a query's terms hash into are opened, and
    looked-up terms are cached (load-once analog of the reference's
    broadcast vocab lookups, SURVEY §2.3)."""

    # bucket files at or below this row count are loaded wholesale into an
    # in-memory dict (one parquet open per bucket, ever); larger buckets fall
    # back to filtered reads per query
    SMALL_BUCKET_ROWS = 2_000_000

    def __init__(self, termstats_dir: str, num_buckets: int | None):
        self.dir = termstats_dir
        self.num_buckets = num_buckets
        self._cache: dict[str, int] = {}
        self._bucket_loaded: set[int] = set()

    def _bucket_path(self, b: int) -> str:
        return os.path.join(self.dir, f"bucket-{b:05d}.parquet")

    def _load_bucket(self, b: int, wanted: list[str]) -> None:
        if b in self._bucket_loaded:
            return
        path = self._bucket_path(b)
        if not os.path.exists(path):
            self._bucket_loaded.add(b)
            return
        f = pq.ParquetFile(path)
        if f.metadata.num_rows <= self.SMALL_BUCKET_ROWS:
            tbl = f.read(columns=["term", "df"])
            self._cache.update(zip(tbl["term"].to_pylist(), (int(x) for x in tbl["df"].to_pylist())))
            self._bucket_loaded.add(b)
        else:  # huge vocab: filtered read for just the wanted terms
            tbl = pads.dataset(path).to_table(
                filter=pads.field("term").isin(wanted), columns=["term", "df"]
            )
            self._cache.update(zip(tbl["term"].to_pylist(), (int(x) for x in tbl["df"].to_pylist())))

    def df(self, terms: list[str]) -> dict[str, int]:
        import zlib

        missing = [t for t in terms if t not in self._cache]
        if missing:
            if self.num_buckets:
                by_bucket: dict[int, list[str]] = {}
                for t in missing:
                    by_bucket.setdefault(zlib.crc32(t.encode()) % self.num_buckets, []).append(t)
                for b, wanted in by_bucket.items():
                    self._load_bucket(b, wanted)
            else:  # legacy layout: scan the whole directory
                tbl = pads.dataset(self.dir).to_table(
                    filter=pads.field("term").isin(missing), columns=["term", "df"]
                )
                self._cache.update(zip(tbl["term"].to_pylist(), (int(x) for x in tbl["df"].to_pylist())))
            for t in missing:
                self._cache.setdefault(t, 0)
        return {t: self._cache[t] for t in terms}


@dataclass(frozen=True)
class PreparedQuery:
    """A query analyzed with its index's analyzer, plus the global stats
    every reader surface needs: the sorted distinct ``terms`` with their
    ``dfs``, the ``live`` (df > 0) terms in sorted order with their BM25
    ``idf``, and ``empty`` when nothing can match — no live term, or an AND
    query holding a term the index does not have."""

    terms: list[str]
    dfs: dict[str, int]
    live: list[str]
    idf: dict[str, float]
    empty: bool


def prepare_terms(tokens, mode: str, df, n_docs: int) -> PreparedQuery:
    """``PreparedQuery`` over already-analyzed tokens (dictionary
    expansions, exact terms). ``df`` is the index's term → df lookup.
    ``ValueError`` for a mode other than ``and``/``or``, which would
    otherwise run as OR."""
    if mode not in ("and", "or"):
        raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
    terms = sorted(set(tokens))
    dfs = df(terms) if terms else {}
    live = [t for t in terms if dfs[t] > 0]
    return PreparedQuery(
        terms=terms,
        dfs=dfs,
        live=live,
        idf={t: float(bm25.idf(n_docs, dfs[t])) for t in live},
        empty=not live or (mode == "and" and len(live) < len(terms)),
    )


def prepare_query(
    text: str, mode: str, analyzer_version: str, df, n_docs: int
) -> PreparedQuery:
    """Analyze ``text`` with the index's analyzer (the manifest's
    ``analyzer_version``) and look up its stats: the one query prep of every
    bag-of-terms reader surface. One tokenize and one ``df`` call."""
    return prepare_terms(
        analyzer.tokenize_query(text, analyzer_version), mode, df, n_docs
    )


def shared_analyzer_version(readers) -> str:
    """The analyzer version every reader's manifest records; ``ValueError``
    naming each root and its version when they differ (one query cannot be
    analyzed two ways)."""
    versions = {r.root: r.analyzer_version for r in readers}
    if len(set(versions.values())) > 1:
        raise ValueError(
            "indexes use different analyzer versions: "
            + ", ".join(f"{root}={v}" for root, v in versions.items())
        )
    return next(iter(versions.values()))


def check_counts(**counts: int) -> None:
    """Raise ``ValueError`` naming the first negative count (``k``,
    ``slop``, ``page_size``, …) before a surface does any work; a negative
    top-k would otherwise silently drop rows."""
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


class SearchSurfaces:
    """The query surfaces, each written once over one index's constants:
    prepare the query with the index's analyzer and term stats, run one
    segment op (``OPS``) through ``_fanout``, fold the parts. A backend
    supplies ``_fanout`` — ``IndexReader`` runs the op in process, as one
    part; ``QueryService`` runs it on every actor through its compiled
    graph, one part per actor — so both answer the same surfaces with the
    same results (REPOSE's plan: local top-k per partition, global merge)."""

    def __init__(self, index_root: str, version: int | None = None):
        self.root = index_root
        self.manifest = mf.read_manifest(index_root, version)
        # queries must tokenize with the INDEX's analyzer (a v2 index
        # stores stems): every surface goes through prepare()
        self.analyzer_version = self.manifest.get("analyzer", "v1")
        self.avgdl = float(self.manifest["avgdl"])
        self.n_docs = int(self.manifest["n_docs"])
        self._termstats = TermStats(
            os.path.join(index_root, self.manifest["termstats"]),
            self.manifest.get("num_buckets"),
        )

    def _fanout(self, op: str, *args) -> list:
        """``OPS[op](segments, *args)`` over every segment group: one part
        per group."""
        raise NotImplementedError

    def _pool(self) -> None:
        """Raise when the backend cannot answer (an in-process one always
        can)."""

    def _check(self, **counts: int) -> None:
        """What every surface runs before any work: the backend can answer,
        and no count (``k``, ``slop``, ``page_size``) is negative."""
        self._pool()
        check_counts(**counts)

    def df(self, terms: list[str]) -> dict[str, int]:
        return self._termstats.df(terms)

    def prepare(self, text: str, mode: str = "and") -> PreparedQuery:
        return prepare_query(text, mode, self.analyzer_version, self.df, self.n_docs)

    def search(
        self,
        query_text: str,
        k: int = 10,
        mode: str = "and",
        filters: dict[str, list] | None = None,
        recency: dict | None = None,
        must_not: str | None = None,
        min_should_match: int | None = None,
    ) -> pa.Table:
        """Top-k BM25. ``mode="and"`` = intersection semantics
        (simple_query_string default_operator:and parity); ``mode="or"`` =
        disjunctive scoring. ``filters`` are facet filters
        (OR within field, AND across fields, filter-context scoring);
        ``recency`` is the distance_feature date boost (see recency_boost).
        ``must_not`` is negated text (simple_query_string ``-term`` clauses,
        core/models/search/query.py analog): docs containing ANY of its
        terms are excluded before top-k, per segment, through the same
        live-docs mask tombstones clear. ``min_should_match`` (OR mode)
        keeps only docs matching at least that many distinct query terms.

        One fan-out: every segment group runs ``topk_over`` and the parts
        merge."""
        return self._topk(*self._search_plan(
            query_text, k, mode, filters, recency, must_not, min_should_match
        ))

    def _search_plan(
        self, query_text, k, mode, filters, recency, must_not, min_should_match
    ) -> tuple:
        """``search``'s checks and query prep: the arguments of its
        ``_topk``, which the async path runs later."""
        self._check(k=k)
        neg_terms = self.prepare(must_not, "or").terms if must_not else None
        return (
            self.prepare(query_text, mode), k, mode, filters, recency, neg_terms,
            min_should_match,
        )

    def _topk(
        self, prep: PreparedQuery, k: int, mode: str, filters=None, recency=None,
        neg_terms=None, min_should_match=None,
    ) -> pa.Table:
        if prep.empty:
            return _empty_result()
        return merge_topk(self._fanout(
            "search", prep.live, prep.idf, self.avgdl, k, mode, filters, recency,
            neg_terms, min_should_match,
        ), k)

    def msearch(self, queries: list[tuple[str, str]], k: int = 10) -> list[pa.Table]:
        """ES ``_msearch``: answer a batch of (query_text, mode) requests
        with ONE fan-out for the whole batch instead of one per query.
        Results are per-query tables identical to ``search``'s; the merge
        touches only Q x parts x k rows."""
        self._check(k=k)
        preps = [self.prepare(q, mode) for q, mode in queries]
        batch = [
            (prep.live, prep.idf, k, mode)
            for prep, (_, mode) in zip(preps, queries) if not prep.empty
        ]
        if not batch:
            return [_empty_result() for _ in queries]
        # per batch entry: one part per segment group
        answers = zip(*self._fanout("search_many", batch, self.avgdl))
        return [
            _empty_result() if prep.empty else merge_topk(list(next(answers)), k)
            for prep in preps
        ]

    def search_phrase(
        self,
        phrase: str,
        k: int = 10,
        filters: dict[str, list] | None = None,
    ) -> pa.Table:
        """Exact-phrase top-k (simple_query_string quoted-phrase parity,
        core/models/search/query.py:81-86): docs containing the query terms
        adjacently in order, BM25-scored with phrase frequency as tf and the
        phrase's own document frequency as df (Lucene PhraseQuery semantics).
        Requires an index built with ``store_positions=True``."""
        return self._spans(phrase, k, None, filters)

    def search_proximity(
        self,
        phrase: str,
        k: int = 10,
        *,
        slop: int = 0,
        filters: dict[str, list] | None = None,
    ) -> pa.Table:
        """Ordered proximity top-k (ES ``match_phrase`` with ``slop``,
        ordered-span semantics): a doc matches where the query terms occur
        IN ORDER within a window of at most ``len(terms) + slop`` token
        positions. tf = number of distinct start positions that open at
        least one valid window (the minimal-completion chain — greedy next
        occurrence per term — is valid iff ANY chain is, so this equals
        the oracle's exists-chain count). Scored like ``search_phrase``.
        Requires ``store_positions=True``."""
        self._check(slop=slop)
        return self._spans(phrase, k, slop, filters)

    def _spans(self, phrase: str, k: int, slop: int | None, filters) -> pa.Table:
        """Span top-k: the parts' matches are scored once the global span
        df is known (a query-time aggregate, so scoring cannot complete
        per segment group)."""
        self._check(k=k)
        terms = analyzer.tokenize_query(phrase, self.analyzer_version)  # order + duplicates kept
        if not terms:
            return _empty_result()
        parts = self._fanout("spans", terms, slop, filters)
        docs, tf, dl = (np.concatenate([p[i] for p in parts]) for i in range(3))
        return score_spans(docs, tf, dl, sum(p[3] for p in parts), self.n_docs, self.avgdl, k)

    def match_counts(
        self,
        query_text: str,
        *,
        mode: str = "and",
        count_fields: list[str] | None = None,
        filters: dict[str, list] | None = None,
    ) -> dict:
        """Exact ``results_total`` + per-field value counts over the matching
        docs (``include_filter_counts`` analog): matches are enumerated per
        segment from posting intersections/unions (k=∞ without scoring) and
        the parts' counts add up."""
        self._check()
        prep = self.prepare(query_text, mode)
        parts = [] if prep.empty else self._fanout(
            "match_counts", prep.live, mode, filters, count_fields
        )
        counts: dict[str, dict[str, int]] = {f: {} for f in (count_fields or [])}
        for _, part in parts:
            for f, vals in part.items():
                add_counts(counts[f], vals)
        return {
            "results_total": {"value": sum(p[0] for p in parts), "is_precise": True},
            "filter_counts": counts,
        }

    def search_page(
        self,
        query_text: str,
        *,
        page: int = 1,
        page_size: int = 10,
        mode: str = "and",
        ordering: str | None = None,
        filters: dict[str, list] | None = None,
    ) -> pd.DataFrame:
        """Paginated search with optional attribute-field ordering — the
        reference search request surface (search/views/document.py:20-51:
        ``page``/``page_size``/``ordering``, '-' prefix = descending).

        ``ordering=None``: relevance (BM25 top page*page_size, then slice —
        ES from+size semantics). ``ordering="field"``/``"-field"``: relevance
        becomes a match predicate; every segment group cuts its matches to
        its first page*page_size by the stored attribute (ties by doc_id
        asc), the cuts merge and the page is sliced. Returns (rank, doc_id,
        score|value)."""
        self._check(page_size=page_size)
        if page < 1:
            raise ValueError(f"page is 1-based, got {page!r}")
        lo, hi = (page - 1) * page_size, page * page_size
        if ordering is None:
            out = self.search(query_text, k=hi, mode=mode, filters=filters).to_pandas()
            out = out.iloc[lo:hi].reset_index(drop=True)
            out["rank"] = np.arange(lo + 1, lo + 1 + len(out), dtype=np.int32)
            return out
        desc = ordering.startswith("-")
        field = ordering[1:] if desc else ordering
        prep = self.prepare(query_text, mode)
        if prep.empty:
            docs, vals = np.empty(0, np.int64), np.empty(0, object)
        else:
            parts = self._fanout("attr_page", prep.live, mode, filters, field, desc, hi)
            docs, vals = _attr_cut(
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]), desc, hi,
            )
        return pd.DataFrame({
            "rank": np.arange(lo + 1, lo + 1 + docs[lo:].size, dtype=np.int32),
            "doc_id": docs[lo:],
            field: vals[lo:],
        })

    def did_you_mean(
        self,
        query_text: str,
        *,
        max_edits: int = 2,
        prefix_length: int = 1,
    ) -> pd.DataFrame:
        """Per-token spelling suggestions over the index vocabulary (ES term
        suggester, ``suggest_mode: missing``; ranking in
        ``extras.suggest_tokens``). Candidates come from ``vocab``: each
        segment's first-``prefix_length``-chars dictionary range (terms are
        stored sorted), so cost is O(log V) probes + one prefix bucket per
        segment — never a vocabulary scan — weighed by the live df. Every
        misspelled token's range is read in one fan-out. Returns one row per distinct
        query token, sorted: (token, suggestion), suggestion '' for tokens
        that are present or uncorrectable."""
        from .extras import suggest_tokens

        self._check()
        return suggest_tokens(self.prepare(query_text, "or"), self.vocab, max_edits, prefix_length)

    def vocab(self, specs: list[tuple[str, int, int]]) -> list[dict[str, int]]:
        """``{term: df}`` per ``(prefix, min_len, max_len)`` of ``specs``:
        the dictionary terms in that prefix range and length window (one
        fan-out for all specs), each with its df from the term stats, which
        every delta corrects; terms whose df is 0 (only tombstoned docs
        held them) are dropped. The candidate source of every spelling and
        fuzzy surface, so they answer like a rebuild of the live corpus."""
        found = [set() for _ in specs]
        for part in self._fanout("prefix_vocab", specs) if specs else []:
            for acc, terms in zip(found, part):
                acc |= terms
        dfs = self.df(sorted(set().union(*found)))
        return [{t: dfs[t] for t in terms if dfs[t] > 0} for terms in found]

    def date_histogram(
        self,
        query_text: str,
        *,
        ts_field: str = "ts",
        interval_us: int = 3_600_000_000,
        mode: str = "or",
    ) -> pd.DataFrame:
        """ES ``date_histogram`` aggregation over the match set: fixed-interval
        time buckets of matching docs, from the timestamp attribute column (no
        text touched). Only (bucket, count) partials leave a segment, so the
        merge is bounded by the time range, never the match count. Bucket
        keys are epoch-microsecond integers (``(epoch_us // interval) ·
        interval``) — exact on both sides."""
        self._check()
        if interval_us <= 0:
            raise ValueError(f"interval_us must be > 0, got {interval_us!r}")
        prep = self.prepare(query_text, mode)
        parts = [] if prep.empty else self._fanout(
            "date_histogram", prep.live, mode, ts_field, interval_us
        )
        buckets, counts = sum_by_key(parts)
        return pd.DataFrame({"bucket_us": buckets, "doc_count": counts})

    def warm(self, query_texts: list[str]) -> int:
        """ES index-warmer analog: pre-populate the postings, position and
        score caches for the union of the queries' terms so the first
        client query pays no decode (the 64x soak measured cold p50 5.3x
        warm). Returns the (segment, term) entries made hot."""
        self._check()
        idf_map = {t: v for q in query_texts for t, v in self.prepare(q, "or").idf.items()}
        if not idf_map:
            return 0
        return sum(self._fanout("warm", sorted(idf_map), idf_map, self.avgdl))


class IndexReader(SearchSurfaces):
    """In-process reader over an index version (default: CURRENT): the
    surfaces' ops run here over ``segments()``, as one part."""

    def __init__(self, index_root: str, version: int | None = None):
        super().__init__(index_root, version)
        self._segments: dict[str, tuple[SegmentReader, np.ndarray | None]] = {}
        self._tombstones = parse_tombstones(self.manifest)
        self.cache = SegmentCache.for_segments(self.manifest["segments"])

    def _fanout(self, op: str, *args) -> list:
        """The in-process backend: ``op`` over every segment, one part."""
        return [OPS[op](list(self.segments()), *args)]

    def _open(self, seg_meta: dict) -> tuple[SegmentReader, np.ndarray | None]:
        """The segment's reader and live-docs mask, made on first use and
        then kept."""
        key = seg_meta["path"]
        if key not in self._segments:
            seg = SegmentReader(os.path.join(self.root, key), self.cache)
            self._segments[key] = seg, live_mask(
                seg.doc_ids, *self._tombstones,
                seg_meta.get("created_version", self.manifest["_version"]),
            )
        return self._segments[key]

    def _segment(self, seg_meta: dict) -> SegmentReader:
        return self._open(seg_meta)[0]

    def segments(self):
        """Yield ``(meta, segment, live_docs)`` per manifest segment — the
        triples a ``QuerySegmentActor`` holds: the segment reader and its
        live-docs mask (``live_mask``), both made once per reader."""
        for meta in self.manifest["segments"]:
            yield (meta, *self._open(meta))

    def matches(self, text: str, mode: str, filters: dict | None = None):
        """``iter_matches`` of the prepared query over this reader's
        segments; yields nothing when the query cannot match."""
        prep = self.prepare(text, mode)
        if prep.empty:
            return iter(())
        return iter_matches(self.segments(), prep.live, mode, filters)

    def terms_with_prefix(self, prefix: str) -> list[str]:
        """Sorted distinct dictionary terms starting with ``prefix``, over
        every segment."""
        out: set[str] = set()
        for _, seg, _ in self.segments():
            out.update(seg.terms_with_prefix(prefix))
        return sorted(out)

    def _search_terms(self, terms: list[str], k: int, mode: str) -> pa.Table:
        """Top-k over already-analyzed terms (dictionary expansions)."""
        self._check(k=k)
        return self._topk(prepare_terms(terms, mode, self.df, self.n_docs), k, mode)

    def search_prefix(self, prefix: str, k: int = 10, max_expansions: int = 50) -> pa.Table:
        """Prefix (wildcard ``pre*``) top-k: expand against the segment
        dictionaries (sorted — two binary searches each), take the first
        ``max_expansions`` distinct terms in lexicographic order (Lucene
        MultiTermQuery rewrite cap), then score as a disjunction where each
        expanded term keeps its own idf."""
        pfx = self.prepare(prefix, "or").terms
        if len(pfx) != 1:
            raise ValueError("prefix must normalize to exactly one token")
        return self._search_terms(self.terms_with_prefix(pfx[0])[:max_expansions], k, "or")

    def _expand_pattern(self, kernel, pattern: str, k: int, max_expansions: int) -> pa.Table:
        """Top-k disjunction over the dictionary terms one vectorized Arrow
        ``kernel`` selects per segment, capped at the first
        ``max_expansions`` distinct terms lexicographically."""
        expanded: set[str] = set()
        for _, seg, _ in self.segments():
            hit = kernel(seg._term_strings, pattern)
            expanded.update(seg._term_strings.filter(hit).to_pylist())
        return self._search_terms(sorted(expanded)[:max_expansions], k, "or")

    def search_wildcard(
        self, pattern: str, k: int = 10, max_expansions: int = 50
    ) -> pa.Table:
        """General wildcard top-k (ES ``wildcard`` query: ``*mid*``,
        ``*tail``, ``head*tail``): expand the pattern against the segment
        dictionaries with ONE vectorized Arrow kernel per segment
        (match_like over the term strings — no per-term Python), take the
        first ``max_expansions`` distinct terms lexicographically (Lucene
        MultiTermQuery rewrite cap), score as a disjunction with per-term
        idf. ``*`` is the only wildcard; the rest of the pattern is
        analyzed like a term."""
        raw = pattern.strip().lower()
        if not raw or raw.replace("*", "") == "":
            return _empty_result()
        # escape SQL-LIKE metacharacters, then map * → %
        like = raw.replace("%", "\\%").replace("_", "\\_").replace("*", "%")
        return self._expand_pattern(pc.match_like, like, k, max_expansions)

    def search_regexp(
        self, pattern: str, k: int = 10, max_expansions: int = 50
    ) -> pa.Table:
        """ES ``regexp`` query: the pattern is FULLY ANCHORED against each
        dictionary term (Lucene regexp semantics), expanded with one
        vectorized RE2 kernel per segment, capped at ``max_expansions``
        distinct terms lexicographically, scored as a disjunction with
        per-term idf. Both Arrow and DuckDB run RE2, so the oracle
        (``regexp_full_match``) sees the identical term set for any RE2
        pattern."""
        raw = pattern.strip().lower()
        if not raw:
            return _empty_result()
        return self._expand_pattern(
            pc.match_substring_regex, f"^(?:{raw})$", k, max_expansions
        )

    def msearch(self, queries: list[str], k: int = 10, mode: str = "and") -> pa.Table:
        """Batched multi-query top-k (ES ``_msearch`` analog — the reference
        fires one bulk request per sync cycle, search/views/document.py) as
        one table (query, rank, doc_id, score): each distinct query's top-k
        stacked in input order. The batch is ``SearchSurfaces.msearch``, so
        results are identical to Q independent ``search`` calls — asserted
        in tests. Offline query workloads (ranking evals,
        decontamination-by-search, percolation sweeps) share this reader's
        warm state: each segment is opened once and a term shared by several
        queries is decoded once into the reader's cache."""
        uniq = list(dict.fromkeys(queries))
        tables = super().msearch([(q, mode) for q in uniq], k)
        return pa.concat_tables(
            [RESULT_SCHEMA.insert(0, pa.field("query", pa.string())).empty_table()]
            + [
                t.add_column(0, "query", pa.array([q] * t.num_rows, pa.string()))
                for q, t in zip(uniq, tables)
            ]
        )


# ---------------------------------------------------------------------------
# Per-segment operators, each written once. ``segments`` is an iterable of
# ``(meta, segment, live_docs)`` triples — ``IndexReader.segments()`` in
# process, ``QuerySegmentActor.readers`` on the serving path — so the
# in-process reader and the actors run the same code. ``OPS`` names the ones
# a surface fans out.
# ---------------------------------------------------------------------------


def exclude_terms(
    seg: SegmentReader, live_docs: np.ndarray | None, neg_terms
) -> np.ndarray | None:
    """``live_docs`` with the segment's docs holding any ``neg_terms`` term
    cleared too (must_not clauses share the live-docs mask); the mask
    itself when no such term is in the segment."""
    hits = [p for t in neg_terms if (p := seg.postings_positions(t)) is not None]
    if not hits:
        return live_docs
    live = np.ones(seg.doc_ids.size, bool) if live_docs is None else live_docs.copy()
    for p in hits:
        live[p] = False
    return live


def topk_over(
    segments,
    terms: list[str],
    idf_map: dict[str, float],
    avgdl: float,
    k: int,
    mode: str,
    filters: dict[str, list] | None = None,
    recency: dict | None = None,
    neg_terms: list[str] | None = None,
    min_should_match: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k over the segments: each segment's local top-k, merged."""
    if k == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    parts = []
    for _, seg, live_docs in segments:
        if neg_terms:
            live_docs = exclude_terms(seg, live_docs, neg_terms)
        parts.append(search_segment(
            seg, terms, idf_map, avgdl, k, mode=mode, live_docs=live_docs,
            include=seg.allowed_docs(filters), recency=recency,
            min_should_match=min_should_match,
        ))
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    return _topk(
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]), k,
    )


def topk_many(segments, batch: list[tuple], avgdl: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """``topk_over`` per ``(terms, idf_map, k, mode)`` of an ``msearch``
    batch: one fan-out answers the whole batch."""
    return [topk_over(segments, terms, idf, avgdl, k, mode) for terms, idf, k, mode in batch]


def span_matches(
    segments, match, filters: dict[str, list] | None = None, positions: str | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Span matches of every segment, ready for ``score_spans``:
    ``match(seg)`` gives one segment's ``(docs, tf)`` (phrase, proximity or
    span occurrence counts); tombstoned docs drop, the rest count toward the
    span df, then the facet filter applies (filter context: the df is
    pre-filter). Returns ``(docs, tf, dl, df)``. ``positions`` names the
    query in the error raised for a segment built without positions."""
    doc_parts, tf_parts, dl_parts = [], [], []
    df = 0
    for _, seg, live_docs in segments:
        if positions and not seg.has_positions:
            raise ValueError(
                f"{positions} needs positions — build_index(store_positions=True)"
            )
        docs, tf = match(seg)
        if docs.size == 0:
            continue
        ords = seg.ordinals(docs)
        if live_docs is not None:
            keep = live_docs[ords]
            docs, tf, ords = docs[keep], tf[keep], ords[keep]
        df += int(docs.size)
        include = seg.allowed_docs(filters)
        if include is not None:
            keep = np.isin(docs, include)
            docs, tf, ords = docs[keep], tf[keep], ords[keep]
        if docs.size:
            doc_parts.append(docs)
            tf_parts.append(tf)
            dl_parts.append(seg.dl[ords])
    if not doc_parts:
        z = np.empty(0, np.int64)
        return z, z, z, df
    return (
        np.concatenate(doc_parts), np.concatenate(tf_parts),
        np.concatenate(dl_parts), df,
    )


def spans(segments, terms: list[str], slop: int | None, filters):
    """``span_matches`` of the exact phrase ``terms`` (``slop`` None) or of
    their ordered proximity within ``slop``."""
    if slop is None:
        return span_matches(
            segments, lambda seg: phrase_match_segment(seg, terms), filters,
            positions="phrase search",
        )
    return span_matches(
        segments, lambda seg: proximity_match_segment(seg, terms, slop), filters,
        positions="proximity search",
    )


def score_spans(
    docs: np.ndarray, tf: np.ndarray, dl: np.ndarray, df: int,
    n_docs: int, avgdl: float, k: int,
) -> pa.Table:
    """BM25 top-k of span matches scored as one pseudo-term: span frequency
    as tf, the span's document frequency as df (Lucene PhraseQuery)."""
    if df == 0 or docs.size == 0:
        return _empty_result()
    idf = float(bm25.idf(n_docs, df))
    return merge_topk([(docs, bm25.score(tf, dl, idf, avgdl))], k)


def iter_matches(segments, terms: list[str], mode: str, filters: dict | None = None):
    """Yield ``(segment, matched doc ids)`` per segment with a match: exact
    unscored enumeration (``match_one_segment``), tombstone- and
    facet-filter-aware."""
    for _, seg, live_docs in segments:
        m = match_one_segment(seg, terms, mode, live_docs, seg.allowed_docs(filters))
        if m.size:
            yield seg, m


def count_matches(
    segments, terms: list[str], mode: str, filters: dict | None,
    count_fields: list[str] | None,
) -> tuple[int, dict[str, dict[str, int]]]:
    """Match count + per-field value counts of the segments' matches
    (``iter_matches``); partials add up (``add_counts``)."""
    total = 0
    counts: dict[str, dict[str, int]] = {f: {} for f in (count_fields or [])}
    for seg, matched in iter_matches(segments, terms, mode, filters):
        total += int(matched.size)
        for f in counts:
            uniq, cnt = np.unique(seg.attr_values(f, matched), return_counts=True)
            add_counts(counts[f], {str(v): int(c) for v, c in zip(uniq, cnt)})
    return total, counts


def add_counts(into: dict, part: dict) -> None:
    for v, c in part.items():
        into[v] = into.get(v, 0) + c


def _attr_cut(docs: np.ndarray, vals: np.ndarray, desc: bool, limit: int):
    """The first ``limit`` rows by (value asc/desc, doc_id asc); dense value
    codes make descending order work for any attr dtype."""
    codes = np.unique(vals, return_inverse=True)[1] if vals.size else np.empty(0, np.int64)
    sel = np.lexsort((docs, -codes if desc else codes))[:limit]
    return docs[sel], vals[sel]


def attr_page(
    segments, terms: list[str], mode: str, filters: dict | None,
    field: str, desc: bool, limit: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``limit`` of the segments' matches (``iter_matches``)
    ordered by a stored attribute (ties doc_id asc), sorted. A page can only
    hold rows within the first ``limit`` of each segment's own ordering, so
    every segment is cut before the merge (the per-shard from+size bound ES
    serving relies on)."""
    doc_parts, val_parts = [], []
    for seg, matched in iter_matches(segments, terms, mode, filters):
        d, v = _attr_cut(matched, np.asarray(seg.attr_values(field, matched)), desc, limit)
        doc_parts.append(d)
        val_parts.append(v)
    if not doc_parts:
        return np.empty(0, np.int64), np.empty(0, object)
    return _attr_cut(np.concatenate(doc_parts), np.concatenate(val_parts), desc, limit)


def vocab_with_prefix(
    segments, prefix: str, min_len: int = 0, max_len: int = 1 << 30
) -> set[str]:
    """The dictionary terms of the segments starting with ``prefix`` with
    length in [min_len, max_len] — enumerated from each segment's sorted
    dictionary range only, never a vocabulary scan. A dictionary still
    holds terms only tombstoned docs have: ``SearchSurfaces.vocab`` weighs
    these candidates by the live df."""
    out: set[str] = set()
    for _, seg, _ in segments:
        out.update(
            t for t in seg.terms_with_prefix(prefix) if min_len <= len(t) <= max_len
        )
    return out


def vocabs_with_prefixes(segments, specs: list[tuple[str, int, int]]) -> list[set[str]]:
    """``vocab_with_prefix`` of every ``(prefix, min_len, max_len)`` of
    ``specs``, in order: one fan-out answers every token a spelling or
    fuzzy surface expands."""
    segments = list(segments)
    return [vocab_with_prefix(segments, *spec) for spec in specs]


def date_buckets(
    segments, terms: list[str], mode: str, ts_field: str, interval_us: int
) -> tuple[np.ndarray, np.ndarray]:
    """``date_histogram`` partial: (bucket, count) of the segments' matches,
    bucketed ``(epoch_us // interval_us) · interval_us`` per segment (one
    floor-div and one unique each) and summed."""
    parts = []
    for seg, docs in iter_matches(segments, terms, mode):
        ts = seg.attr_values(ts_field, docs).astype("datetime64[us]").astype(np.int64)
        parts.append(np.unique((ts // interval_us) * interval_us, return_counts=True))
    return sum_by_key(parts)


def sum_by_key(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``(keys, counts)`` partials: the distinct keys ascending, each
    with its summed count (int64, exact)."""
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    keys, inverse = np.unique(np.concatenate([p[0] for p in parts]), return_inverse=True)
    counts = np.zeros(keys.size, np.int64)
    np.add.at(counts, inverse, np.concatenate([p[1] for p in parts]))
    return keys.astype(np.int64), counts


def proximity_match_segment(
    seg: SegmentReader, terms: list[str], slop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Docs of one segment containing ``terms`` in order within a span of
    ``len(terms) + slop`` positions, with the span frequency (distinct valid
    start positions). Fully vectorized greedy chain over packed
    ``(local_doc << 31) | pos`` keys: for each candidate start, the minimal
    next-occurrence of each subsequent term is found with one searchsorted
    per term; the greedy chain minimizes the final position for a given
    start, so its span test is equivalent to the exists-any-chain test.
    Results are cached (kind ``match``)."""
    return seg.cached(
        "match", ("prox", slop, *terms),
        lambda: _proximity_match_segment_uncached(seg, terms, slop),
    )


def _proximity_match_segment_uncached(
    seg: SegmentReader, terms: list[str], slop: int
) -> tuple[np.ndarray, np.ndarray]:
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    mask = (np.int64(1) << 31) - 1

    starts = seg.packed_positions(terms[0])
    if starts is None or starts.size == 0:
        return empty
    chain = starts
    for t in terms[1:]:
        keys = seg.packed_positions(t)
        if keys is None or keys.size == 0:
            return empty
        idx = np.searchsorted(keys, chain, side="right")
        ok = idx < keys.size
        nxt = keys[np.minimum(idx, keys.size - 1)]
        ok &= (nxt >> 31) == (chain >> 31)  # same doc
        starts, chain = starts[ok], nxt[ok]
        if starts.size == 0:
            return empty
    span = (chain & mask) - (starts & mask)  # >= n-1 by construction
    ok = span <= (len(terms) - 1 + slop)
    starts = starts[ok]
    if starts.size == 0:
        return empty
    uniq, ptf = np.unique(starts >> 31, return_counts=True)
    return seg.doc_ids[uniq], ptf.astype(np.int64)


def phrase_match_segment(
    seg: SegmentReader, terms: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Docs of one segment containing ``terms`` as an exact adjacent phrase,
    with the phrase frequency. Vectorized adjacency: term i contributes keys
    ``(local_doc << 31) | (pos - i)``; a phrase occurrence is a key present
    for EVERY term, found by iterative sorted-set intersection. Positions are
    < 2^31 (1M-char truncation) and local doc indices < 2^31, so the packed
    key fits int64. Results are cached (kind ``match``)."""
    return seg.cached(
        "match", ("phrase", *terms),
        lambda: _phrase_match_segment_uncached(seg, terms),
    )


def _phrase_match_segment_uncached(
    seg: SegmentReader, terms: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    empty = (np.empty(0, np.int64), np.empty(0, np.int64))
    mask = (np.int64(1) << 31) - 1
    keys: np.ndarray | None = None
    for i, t in enumerate(terms):
        packed = seg.packed_positions(t)
        if packed is None:
            return empty
        # (local << 31) | (pos - i) == packed - i whenever pos >= i (no
        # borrow into the doc field) — one vectorized subtract per term on
        # a warm cache instead of re-decoding positions per query
        if i == 0:
            k = packed
        else:
            k = packed[(packed & mask) >= i] - i
        keys = k if keys is None else np.intersect1d(keys, k, assume_unique=True)
        if keys.size == 0:
            return empty
    start_local = (keys >> 31).astype(np.int64)
    uniq, ptf = np.unique(start_local, return_counts=True)
    return seg.doc_ids[uniq], ptf.astype(np.int64)


def match_one_segment(
    seg,
    terms: list[str],
    mode: str,
    live_docs: np.ndarray | None,
    include: np.ndarray | None,
) -> np.ndarray:
    """Exact match enumeration for one segment (k=∞, no scoring): posting
    intersections (``and``, rarest-first with early exit) or unions
    (``or``), minus the docs ``live_docs`` clears, intersected with the facet-filter allowed
    set. Shared by the in-process extras and the actor-pool serving path."""
    matched: np.ndarray | None = None
    for t in sorted(terms, key=lambda t: seg.entry(t)["df"] if seg.entry(t) else 0):
        p = seg.postings(t)
        d = p[0] if p else np.empty(0, np.int64)
        if matched is None:
            matched = d
        elif mode == "and":
            matched = np.intersect1d(matched, d, assume_unique=True)
        else:
            matched = np.union1d(matched, d)
        if mode == "and" and matched.size == 0:
            break
    if matched is None or matched.size == 0:
        return np.empty(0, np.int64)
    if live_docs is not None:
        matched = matched[live_docs[seg.ordinals(matched)]]
    if include is not None:
        matched = np.intersect1d(matched, include, assume_unique=True)
    return matched


def warm_segments(segments, terms: list[str], idf_map: dict[str, float], avgdl: float) -> int:
    """Decode and score ``terms`` into the segments' caches; returns the
    (segment, term) entries now hot."""
    return sum(
        1 for _, seg, _ in segments for t in terms
        if t in idf_map and seg.scored_postings(t, idf_map[t], avgdl) is not None
    )


# the segment ops a surface fans out: ``OPS[op](segments, *args)``
OPS = {
    "search": topk_over,
    "search_many": topk_many,
    "spans": spans,
    "match_counts": count_matches,
    "attr_page": attr_page,
    "prefix_vocab": vocabs_with_prefixes,
    "date_histogram": date_buckets,
    "warm": warm_segments,
}


class QuerySegmentActor:
    """Actor holding a set of segments, loaded once (SURVEY §2.3 stateful
    stage). Use via ``QueryService``, which reaches it through ``run``
    alone; ``search``, ``phrase_match`` and ``stats`` stay callable in
    process."""

    def __init__(self, index_root: str, seg_metas: list[dict], manifest: dict):
        tombstones = parse_tombstones(manifest)
        cur_version = manifest.get("_version", 0)
        self.cache = SegmentCache.for_segments(seg_metas)
        self.readers = []
        for m in seg_metas:
            reader = SegmentReader(os.path.join(index_root, m["path"]), self.cache)
            live_docs = live_mask(
                reader.doc_ids, *tombstones, m.get("created_version", cur_version)
            )
            self.readers.append((m, reader, live_docs))
        self.avgdl = float(manifest["avgdl"])

    def run(self, request: tuple[str, tuple]):
        """The one RPC entry point: ``(op, args)`` → ``OPS[op](self.readers,
        *args)``, the op ``IndexReader`` runs in process, or ``stats``. One
        method per actor is what lets ``QueryService`` compile its fan-out
        into a static graph."""
        op, args = request
        if op == "stats":
            return self.stats()
        if op not in OPS:
            raise ValueError(
                f"unknown QuerySegmentActor op {op!r}; expected one of {sorted(OPS)} or 'stats'"
            )
        return OPS[op](self.readers, *args)

    def search(
        self, terms: list[str], idf_map: dict[str, float], k: int, mode: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """This actor's part of a ``search`` fan-out."""
        return self.run(("search", (terms, idf_map, self.avgdl, k, mode)))

    def phrase_match(
        self, terms: list[str], filters: dict[str, list] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """This actor's part of a ``search_phrase`` fan-out: (docs,
        phrase_tf, dl, df_pre_filter)."""
        return self.run(("spans", (terms, None, filters)))

    def stats(self) -> dict:
        """Serving observability (the soak leg's per-actor memory + cache
        evidence): resident set size from /proc, the tombstoned docs its
        segments still hold and every op still scans (``dead_docs``: a
        compact removes them), the cache's hits and misses summed over its
        kinds, and the per-kind counters under ``cache``."""
        rss_kb = 0
        try:
            with open("/proc/self/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        rss_kb = int(line.split()[1])
                        break
        except OSError:
            pass
        cache = self.cache.stats()
        return {
            "rss_kb": rss_kb,
            "n_segments": len(self.readers),
            "dead_docs": sum(
                int(live.size - np.count_nonzero(live))
                for _, _, live in self.readers if live is not None
            ),
            "cache_hits": sum(c["hits"] for c in cache.values()),
            "cache_misses": sum(c["misses"] for c in cache.values()),
            "cache": cache,
        }


def _release_pool(graph, actors: list, executor) -> None:
    """Free what a ``QueryService`` holds: tear the compiled graph down
    (ignoring errors from actors that already died), kill the actors and
    stop the async-search thread. Runs once, from ``shutdown`` or when the
    service is garbage-collected."""
    import ray

    try:
        graph.teardown()
    except ray.exceptions.RayError:
        pass  # an actor already died; the kills below still free the rest
    if ray.is_initialized():  # ray.shutdown already released everything
        for a in actors:
            ray.kill(a)
    executor.shutdown(wait=False, cancel_futures=True)


class QueryService(SearchSurfaces):
    """Distributed query serving: segments spread over an actor pool; every
    surface (inherited from ``SearchSurfaces``, the same as
    ``IndexReader``'s) fans its op out to the actors and folds their parts
    (the OpenSearch shard fan-out analog). Actors are created once and
    reused across queries.

    The fan-out runs one compiled Ray graph (``InputNode`` → each actor's
    ``run`` → ``MultiOutputNode``), built once here: a fan-out writes its
    request to shared memory and reads the parts back without a per-call
    task submission. Two costs follow from Ray's channels. Executions are
    serialized by a lock (a compiled graph is not thread-safe), so
    concurrent callers queue behind each other. And an idle actor
    busy-waits on its input channel, spinning the core its ``num_cpus=1``
    slot reserves. Call ``shutdown`` when done serving; a service that is
    garbage-collected releases its pool too."""

    def __init__(
        self,
        index_root: str,
        version: int | None = None,
        num_actors: int = 4,
    ):
        import ray
        from ray.dag import InputNode, MultiOutputNode

        super().__init__(index_root, version)
        segs = self.manifest["segments"]
        num_actors = max(1, min(num_actors, len(segs)))
        groups: list[list[dict]] = [segs[i::num_actors] for i in range(num_actors)]
        actor_cls = ray.remote(num_cpus=1)(QuerySegmentActor)
        self.actors = [actor_cls.remote(index_root, g, self.manifest) for g in groups]
        with InputNode() as request:
            dag = MultiOutputNode([a.run.bind(request) for a in self.actors])
        # the lock keeps one execution in flight, so each channel needs one
        # shared-memory buffer, not Ray's default ten
        self._graph = dag.experimental_compile(_max_inflight_executions=1)
        self._lock = threading.Lock()
        # async searches: id -> Future of the merged result
        self._async: dict[str, Future] = {}
        self._async_ids = itertools.count(1)
        self._executor = ThreadPoolExecutor(max_workers=1)
        self._release = weakref.finalize(
            self, _release_pool, self._graph, self.actors, self._executor
        )
        self._release.atexit = False  # at exit, ray.shutdown tears graphs down

    def _pool(self) -> None:
        """``RuntimeError`` once ``shutdown`` released the actor pool (a
        killed pool must not answer as if nothing matched)."""
        if not self.actors:
            raise RuntimeError("QueryService is shut down")

    def _fanout(self, op: str, *args) -> list:
        """Run ``op`` on every actor through the compiled graph; returns the
        per-actor parts in actor order. An op that raises re-raises here as
        its own type; once an actor died, every call raises a
        ``RayActorError`` or ``RaySystemError``. No timeout, like a plain
        ``ray.get``: the graph's default of 10 s would fail slow high-df
        phrases."""
        import ray

        self._pool()
        with self._lock:
            return ray.get(self._graph.execute((op, args)), timeout=-1)

    def actor_stats(self) -> list[dict]:
        """Per-actor {rss_kb, n_segments, dead_docs, cache_hits,
        cache_misses, cache} (``cache``: per-kind hits, misses, evictions
        and bytes)."""
        return self._fanout("stats")

    def shutdown(self) -> None:
        """Release the pool: tear the graph down, kill the actors (their
        num_cpus=1 reservations and idle spin go with them) and stop the
        async-search thread. On a cluster where serving actors occupy every
        slot, any later Ray work (a Dataset read, a task) deadlocks waiting
        for a CPU until this runs. Idempotent; every surface that answers
        from the pool raises ``RuntimeError`` afterwards."""
        self._release()
        self.actors = []

    # -- async search (ES _async_search) ------------------------------------

    def submit(
        self,
        query_text: str,
        k: int = 10,
        mode: str = "and",
        filters: dict[str, list] | None = None,
        recency: dict | None = None,
        must_not: str | None = None,
        min_should_match: int | None = None,
    ) -> str:
        """ES ``_async_search`` submit: takes ``search``'s arguments,
        checks and prepares the query here, hands its fan-out to the
        service's async-search thread and returns a search id immediately.
        A query without live terms resolves here. The future is the async
        state: ``status`` asks whether it is done, ``get`` blocks on it,
        ``delete`` cancels it if it has not started."""
        plan = self._search_plan(
            query_text, k, mode, filters, recency, must_not, min_should_match
        )
        sid = f"async-{next(self._async_ids)}"
        if plan[0].empty:
            fut: Future = Future()
            fut.set_result(_empty_result())
        else:
            fut = self._executor.submit(self._topk, *plan)
        self._async[sid] = fut
        return sid

    def status(self, search_id: str) -> dict:
        """``{"is_running": bool}`` — never blocks."""
        return {"is_running": not self._async_state(search_id).done()}

    def get(self, search_id: str) -> pa.Table:
        """Block until complete and return the merge. ES ``_async_search``
        semantics: the result stays retrievable (repeated GETs return the
        same table) until the id is explicitly deleted."""
        return self._async_state(search_id).result()

    def delete(self, search_id: str) -> dict:
        """ES ``DELETE _async_search/<id>``: cancel if not yet started,
        release the state. Unknown/already-deleted ids return
        ``{"found": False}`` instead of raising (the ES 404 shape)."""
        fut = self._async.pop(search_id, None)
        if fut is None:
            return {"acknowledged": False, "found": False}
        fut.cancel()
        return {"acknowledged": True, "found": True}

    def cancel(self, search_id: str) -> dict:
        """Alias for :meth:`delete` (ES cancels via the DELETE endpoint)."""
        return self.delete(search_id)

    def _async_state(self, search_id: str) -> Future:
        fut = self._async.get(search_id)
        if fut is None:
            raise KeyError(f"unknown async search id {search_id!r}")
        return fut


# ---------------------------------------------------------------------------
# Independent distributed brute-force scorer (the verification oracle path:
# map_batches scorer + sort(score desc).limit(k), SURVEY §2.6)
# ---------------------------------------------------------------------------


def brute_force_topk(
    ds,
    query_text: str,
    k: int = 10,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    mode: str = "and",
) -> pa.Table:
    """Score every document with BM25 directly from the corpus — no index.

    Pass 1 (streaming): per-batch partials of (n_docs, dl_sum, df per query
    term) → driver-side reduce (tiny). Pass 2: per-batch exact scores →
    global ``sort(score desc, doc_id asc).limit(k)``. Independent of the
    index code path; used as the in-engine oracle.
    """
    terms = sorted(set(analyzer.tokenize_query(query_text)))
    if not terms:
        return _empty_result()
    term_arr = pa.array(terms)

    def stats_partials(batch: pa.Table) -> pa.Table:
        text = analyzer.normalize_text(batch[text_col])
        rows, codes, dictionary = analyzer.tokenize_flat(text)
        dl_sum = int(rows.size)
        r, c, _tf = analyzer.term_frequencies(rows, codes)
        present = np.asarray(pc.is_in(dictionary, value_set=term_arr))
        dfs = []
        dict_list = dictionary.to_pylist()
        code_df = np.bincount(c, minlength=len(dict_list))
        for t in terms:
            try:
                ti = dict_list.index(t)
                dfs.append(int(code_df[ti]))
            except ValueError:
                dfs.append(0)
        return pa.table(
            {
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "dl_sum": pa.array([dl_sum], pa.int64()),
                **{f"df_{i}": pa.array([dfs[i]], pa.int64()) for i in range(len(terms))},
            }
        )

    stats = ds.map_batches(stats_partials, batch_format="pyarrow").to_pandas()
    n_docs = int(stats["n_docs"].sum())
    dl_sum = int(stats["dl_sum"].sum())
    avgdl = dl_sum / n_docs if n_docs else 0.0
    dfs = {terms[i]: int(stats[f"df_{i}"].sum()) for i in range(len(terms))}
    if mode == "and" and any(dfs[t] == 0 for t in terms):
        return _empty_result()
    live_terms = [t for t in terms if dfs[t] > 0]
    if not live_terms:
        return _empty_result()
    idf_map = {t: float(bm25.idf(n_docs, dfs[t])) for t in live_terms}

    def score_batch(batch: pa.Table) -> pa.Table:
        doc_ids = np.asarray(batch[id_col].combine_chunks().cast(pa.int64()))
        text = analyzer.normalize_text(batch[text_col])
        rows, codes, dictionary = analyzer.tokenize_flat(text)
        dl = np.bincount(rows, minlength=batch.num_rows).astype(np.float64)
        r, c, tf = analyzer.term_frequencies(rows, codes)
        dict_list = dictionary.to_pylist()
        scores = np.zeros(batch.num_rows, dtype=np.float64)
        nmatch = np.zeros(batch.num_rows, dtype=np.int64)
        for t in live_terms:
            try:
                ti = dict_list.index(t)
            except ValueError:
                continue
            sel = c == ti
            rr = r[sel]
            scores[rr] += bm25.score(tf[sel].astype(np.float64), dl[rr], idf_map[t], avgdl)
            nmatch[rr] += 1
        need = len(live_terms) if mode == "and" else 1
        keep = nmatch >= need
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[keep], pa.int64()),
                "score": pa.array(scores[keep], pa.float64()),
                "neg_score": pa.array(-scores[keep], pa.float64()),
            }
        )

    scored = ds.map_batches(score_batch, batch_format="pyarrow")
    top = scored.sort(["neg_score", "doc_id"]).limit(k).to_pandas()
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(top) + 1, dtype=np.int32)),
            "doc_id": pa.array(top["doc_id"].to_numpy(), pa.int64()),
            "score": pa.array(top["score"].to_numpy(), pa.float64()),
        }
    )
