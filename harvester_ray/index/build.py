"""Streaming, resumable inverted-index build over a Ray Data corpus.

Architecture — **document-partitioned segments** (the physical layout the
reference's OpenSearch/Lucene backend itself uses; one "shard" per doc range):

- **Phase 1 (heavy, streaming, zero shuffle).** ``corpus.map_batches(
  build_segment, batch_format="pyarrow", concurrency=N)`` — Ray Data tasks
  (a function UDF: a class UDF would start a fresh actor pool, worker
  processes and imports, on every build and delta commit — a fixed ~1–3 s
  floor on a 2-slot host — while the builder's only state is configuration).
  Each batch becomes one immutable *segment*: the builder normalizes +
  tokenizes (vectorized Arrow/numpy, see analyzer.py), computes per-doc term
  frequencies and doc lengths, delta-gap + varbyte encodes every term's
  posting list in one vectorized pass, attaches per-block (last_doc, byte
  offsets) skip metadata, and atomically writes
  ``seg-*.{terms.parquet,docs.parquet,bin}`` plus a fingerprinted ``.done``
  marker. Its *return value* is the segment's tiny vocabulary partial —
  ``(term, df, cf)`` rows plus one ``term=""`` meta row — which Ray streams
  into a staging Parquet checkpoint.

- **Phase 2 (map-side-partitioned aggregate, no all-to-all).** Phase 1
  already pre-aggregated to one (term, df, cf) row per (segment, term) and
  stamped each row with ``bucket = crc32(term) % P``; the staging write is
  Parquet-partitioned by bucket, so same-term rows are co-located on disk.
  Phase 2 is then P embarrassingly-parallel tasks, each doing a local
  pyarrow ``group_by`` over its bucket and writing one sorted term-stats
  file. Functionally this IS the groupby-aggregate shuffle — but the
  exchange happens at write time through the filesystem/object store, which
  benchmarks ~30× cheaper than a generic sort-shuffle at small scale and
  scales linearly with P at large scale. Hot ("stopword-like") terms cannot
  skew a reducer: a term contributes at most one row per segment regardless
  of its document frequency (the pre-aggregation answer to the
  salted-repartition requirement); residual bucket imbalance is bounded by
  vocabulary hashing, not by term frequency.

Compared to a term-partitioned ``groupby(term)`` over raw ``(term, doc, tf)``
postings, this moves ~100-1000× less data through the object store at 100 TB
scale and is exactly how Lucene builds per-shard indexes; global BM25 stats
(N, avgdl, df) are recovered by the cheap phase-2 aggregate. Segments store
no scores, so phase 1 never needs them and the build stays single-pass
(queries score with the global stats; see codec.py / query.py).

Resume (north_rule): per-segment fingerprinted done markers — a rerun skips
encode+write for any segment whose input fingerprint matches and replays its
vocabulary partial from the already-written ``terms.parquet``; a completed
phase 1 is skipped wholesale via a staging marker. Versioning/promotion in
manifest.py. Reference analogs: per-doc ``pipeline`` ledger resume
(harvester/core/models/datatypes/base.py:17-44), DatasetVersion copy-forward
(harvester/core/models/harvest.py:56-84).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .. import analyzer
from . import codec
from . import manifest as mf

PARTIAL_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("seg", pa.string()),
        ("bucket", pa.int32()),
    ]
)

META_TERM = ""  # analyzer tokens are never empty, so "" marks per-segment meta rows

# Number of term-hash buckets the vocabulary partials are partitioned into.
# The term-stats "shuffle" is map-side: phase 1 writes staging Parquet
# partitioned by bucket (each writer splits locally by crc32(term) % P), so
# phase 2 is P embarrassingly-parallel local group-bys with no all-to-all
# exchange. Hot terms cannot skew a reducer: a term contributes at most one
# partial row per segment regardless of its document frequency. Scale P with
# vocabulary size (P ≈ vocab_bytes / 256 MiB).
NUM_TERM_BUCKETS = 16


def _crc32_table() -> np.ndarray:
    t = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        t = np.where(t & 1, (t >> 1) ^ np.uint32(0xEDB88320), t >> 1)
    return t


_CRC32_TABLE = _crc32_table()


def crc32_strings(terms: pa.Array) -> np.ndarray:
    """Vectorized crc32 over a string/binary array — identical to
    ``zlib.crc32`` per value, computed table-driven per byte POSITION over
    the array's flat data buffer (one numpy pass per byte of the longest
    term), so there is no Python loop over terms."""
    b = terms.cast(pa.binary())
    if isinstance(b, pa.ChunkedArray):
        b = b.combine_chunks()
    n = len(b)
    if n == 0:
        return np.zeros(0, np.uint32)
    bufs = b.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int32, count=n + 1, offset=b.offset * 4)
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    starts = offsets[:-1].astype(np.int64)
    lens = (offsets[1:] - offsets[:-1]).astype(np.int64)
    crc = np.full(n, 0xFFFFFFFF, np.uint32)
    for i in range(int(lens.max()) if n else 0):
        act = lens > i
        byte = data[starts[act] + i]
        crc_a = crc[act]
        crc[act] = (crc_a >> np.uint32(8)) ^ _CRC32_TABLE[(crc_a ^ byte) & np.uint32(0xFF)]
    return crc ^ np.uint32(0xFFFFFFFF)


def term_buckets(terms: pa.Array, num_buckets: int) -> np.ndarray:
    """Deterministic, process-independent term bucket ids (crc32 mod P)."""
    return (crc32_strings(terms) % np.uint32(num_buckets)).astype(np.int32)


def _exclusive_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.zeros(a.size + 1, dtype=np.int64)
    np.cumsum(a, out=out[1:])
    return out


def encode_postings_streams(
    p_code: np.ndarray,
    p_doc: np.ndarray,
    p_tf: np.ndarray,
    dictionary: pa.Array,
    positions: np.ndarray | None = None,
) -> tuple[bytes, bytes, pa.Table, bytes]:
    """Encode a whole segment's postings in one vectorized pass.

    Input arrays are one row per posting, sorted by (term code, doc id);
    ``dictionary[p_code]`` gives the term string. Returns (doc_stream,
    tf_stream, terms_tbl, pos_stream) where terms_tbl is the term-sorted
    dictionary table the segment's ``.terms.parquet`` stores (delta-gap +
    varbyte streams, per-term byte ranges, block skip metadata). Shared
    by the phase-1 ``SegmentBuilder`` and postings-level
    ``compact.merge_segments`` — no per-term ``encode_postings`` Python loop
    anywhere.

    ``positions`` (optional, Lucene ``.pos``-stream analog) is the flat
    token-level array of absolute within-doc token ordinals aligned with
    posting order: posting j's ``p_tf[j]`` tokens are a contiguous ascending
    slice. Encoded as delta-gaps (reset per posting) into ``pos_stream``
    (b"" when absent); terms_tbl then carries per-term ``pos_off`` /
    ``pos_nbytes`` byte ranges. Positions are deliberately a separate stream
    so term/tf-only queries never touch it."""
    # term slices
    if p_code.size:
        term_change = np.flatnonzero(np.diff(p_code)) + 1
        term_starts = np.concatenate(([0], term_change))
        term_ends = np.concatenate((term_change, [p_code.size]))
    else:
        term_starts = term_ends = np.zeros(0, dtype=np.int64)
    term_ids = p_code[term_starts] if p_code.size else np.zeros(0, dtype=np.int64)
    df = (term_ends - term_starts).astype(np.int64)
    cf = np.add.reduceat(p_tf, term_starts).astype(np.int64) if p_code.size else df

    # delta-gap doc ids with reset at term starts
    gaps = p_doc.astype(np.int64).copy()
    if gaps.size > 1:
        gaps[1:] -= p_doc[:-1]
    if term_starts.size:
        gaps[term_starts] = p_doc[term_starts]
    doc_stream, doc_starts = codec.varbyte_encode_all(gaps)
    tf_stream, tf_starts = codec.varbyte_encode_all(p_tf)
    doc_starts = np.append(doc_starts, len(doc_stream))
    tf_starts = np.append(tf_starts, len(tf_stream))

    # block tiling: BLOCK_SIZE postings per block within each term slice
    bs = codec.BLOCK_SIZE
    nblocks = (df + bs - 1) // bs
    blk_off = _exclusive_cumsum(nblocks)
    total_blocks = int(blk_off[-1])
    blk_term = np.repeat(np.arange(term_ids.size), nblocks)
    within = np.arange(total_blocks) - blk_off[blk_term]
    blk_start = term_starts[blk_term] + within * bs
    blk_end = np.minimum(blk_start + bs, term_ends[blk_term])
    last_doc = p_doc[blk_end - 1] if total_blocks else np.zeros(0, dtype=np.int64)
    blk_doc_off = doc_starts[blk_start] - doc_starts[term_starts][blk_term]
    blk_tf_off = tf_starts[blk_start] - tf_starts[term_starts][blk_term]

    tf_base = len(doc_stream)

    # positional stream: delta-gaps reset at posting boundaries; per-term
    # byte ranges derived from the same cumulative offsets as doc/tf
    pos_stream = b""
    pos_cols: dict[str, pa.Array] = {}
    if positions is not None:
        post_tok_starts = _exclusive_cumsum(p_tf.astype(np.int64))[:-1]
        pgaps = positions.astype(np.int64).copy()
        if pgaps.size > 1:
            pgaps[1:] -= positions[:-1]
        if post_tok_starts.size:
            pgaps[post_tok_starts] = positions[post_tok_starts]
        pos_stream, pos_starts = codec.varbyte_encode_all(pgaps)
        pos_starts = np.append(pos_starts, len(pos_stream))
        if term_starts.size:
            term_tok_start = post_tok_starts[term_starts]
            term_tok_end = post_tok_starts[term_ends - 1] + p_tf[term_ends - 1]
            pos_off = pos_starts[term_tok_start]
            pos_nbytes = pos_starts[term_tok_end] - pos_off
        else:
            pos_off = pos_nbytes = np.zeros(0, dtype=np.int64)
        pos_cols = {
            "pos_off": pa.array(pos_off, pa.int64()),
            "pos_nbytes": pa.array(pos_nbytes, pa.int64()),
        }

    def _list_arr(values: np.ndarray, typ=pa.int64()) -> pa.ListArray:
        return pa.ListArray.from_arrays(
            pa.array(blk_off, pa.int32()), pa.array(values, typ)
        )

    terms_tbl = pa.table(
        {
            "term": dictionary.take(pa.array(term_ids)),
            "df": pa.array(df, pa.int64()),
            "cf": pa.array(cf, pa.int64()),
            "doc_off": pa.array(doc_starts[term_starts], pa.int64()),
            "doc_nbytes": pa.array(
                doc_starts[term_ends] - doc_starts[term_starts], pa.int64()
            ),
            "tf_off": pa.array(tf_base + tf_starts[term_starts], pa.int64()),
            "tf_nbytes": pa.array(tf_starts[term_ends] - tf_starts[term_starts], pa.int64()),
            **pos_cols,
            "block_last_doc": _list_arr(last_doc),
            "block_doc_off": _list_arr(blk_doc_off),
            "block_tf_off": _list_arr(blk_tf_off),
        }
    )
    # sort term table lexicographically for binary-searchable dictionaries
    sort_idx = pc.sort_indices(terms_tbl["term"])
    return doc_stream, tf_stream, terms_tbl.take(sort_idx), pos_stream


class SegmentBuilder:
    """Phase-1 builder: one input batch → one on-disk index segment.

    ``__init__`` holds only configuration (output dirs, analyzer identity,
    layout flags) and pins the process's Arrow/allocator settings;
    ``__call__`` does vectorized per-batch work only. The pipelines run it
    through ``build_segment``, one builder per batch in a Ray Data task.
    """

    def __init__(
        self,
        seg_dir: str,
        id_col: str = "doc_id",
        text_col: str = "text",
        num_buckets: int = NUM_TERM_BUCKETS,
        attr_cols: list[str] | None = None,
        staging_dir: str | None = None,
        store_positions: bool = False,
        store_source: bool = False,
        analyzer_version: str = analyzer.ANALYZER_VERSION,
    ):
        self.analyzer_version = analyzer.check_version(analyzer_version)
        self.seg_dir = seg_dir
        self.staging_dir = staging_dir
        self.id_col = id_col
        self.text_col = text_col
        self.num_buckets = num_buckets
        # Lucene .pos-stream analog: within-doc token ordinals per posting,
        # enabling phrase queries (simple_query_string quoted phrases,
        # core/models/search/query.py:81-86). Off by default — costs ~cf
        # varbytes per segment and non-phrase queries never read it.
        self.store_positions = store_positions
        # attribute columns stored alongside doc lengths for filtered search
        # / recency boosting (facet-filter analog: search/views/document.py:70-94)
        self.attr_cols = attr_cols or []
        # ES _source analog: keep the raw text in the doc table (column name
        # "_source"). Underscore-prefixed columns are NOT loaded into serving
        # memory — fetched from the parquet on demand (reindex / hit fetch).
        self.store_source = store_source
        os.makedirs(seg_dir, exist_ok=True)
        # one builder task == one CPU slot: pin Arrow's internal thread pool
        # so N concurrent builders don't each spawn num_cpus kernel threads and
        # thrash the node (8× UDF-time inflation observed without this)
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        # keep glibc from returning big numpy buffers to the OS between
        # batches: with N concurrent builders the default mmap/munmap churn
        # makes every batch re-fault fresh zero pages, serializing on the
        # kernel's memory subsystem (measured 6x per-task CPU inflation at
        # 24 builders). Raising the mmap/trim thresholds keeps freed arena
        # memory warm for reuse.
        if not os.environ.get("GRAFT_NO_MALLOPT"):
            import ctypes

            try:
                libc = ctypes.CDLL("libc.so.6")
                libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
                libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
            except OSError:  # non-glibc platform: harmless no-op
                pass
            # Arrow's bundled jemalloc purges freed batch memory back to the
            # kernel (madvise/munmap) after every batch; with N concurrent
            # builders that is a TLB-shootdown/zone-lock storm (measured: 60%
            # sys time, per-builder throughput collapsing 20x at 24 builders).
            # The glibc system pool + the thresholds above keep pages
            # resident and reused instead.
            pa.set_memory_pool(pa.system_memory_pool())

    def _meta_row(self, name: str, n_docs: int, dl_sum: int) -> pa.Table:
        return pa.table(
            {
                "term": pa.array([META_TERM]),
                "df": pa.array([n_docs], pa.int64()),
                "cf": pa.array([dl_sum], pa.int64()),
                "seg": pa.array([name], pa.string()),
                "bucket": pa.array([self.num_buckets], pa.int32()),
            },
            schema=PARTIAL_SCHEMA,
        )

    def _write_bucket_partials(
        self, name: str, term_col: pa.Array, df: np.ndarray, cf: np.ndarray
    ) -> None:
        """Write this segment's (term, df, cf, bucket) vocabulary partials —
        the map-side half of the term-stats shuffle — as ONE file per
        segment, rows sorted by bucket (hash-partition key carried as a
        column). One file instead of one-per-bucket matters: at 768 segments
        x 16 buckets the per-file parquet open overhead alone made the
        phase-2 combine a ~20s serial tail. Atomically renamed; filenames
        carry the segment name so phase 2 can ignore leftovers from aborted
        runs."""
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        buckets = term_buckets(term_col, self.num_buckets)
        order = np.argsort(buckets, kind="stable")
        tbl = pa.table(
            {
                "term": term_col.take(pa.array(order)),
                "df": pa.array(np.asarray(df, dtype=np.int64)[order], pa.int64()),
                "cf": pa.array(np.asarray(cf, dtype=np.int64)[order], pa.int64()),
                "bucket": pa.array(buckets[order], pa.int32()),
            }
        )
        out = os.path.join(self.staging_dir, f"{name}.parquet")
        pq.write_table(tbl, out + ".tmp")
        os.replace(out + ".tmp", out)

    # -- helpers -----------------------------------------------------------

    def _fingerprint(self, doc_ids: np.ndarray, text: pa.Array) -> str:
        h = hashlib.sha1()
        h.update(self.analyzer_version.encode())
        h.update(",".join(self.attr_cols).encode())
        if self.store_positions:  # resume must not reuse a position-less segment
            h.update(b"+pos")
        h.update(np.ascontiguousarray(doc_ids).tobytes())
        for buf in text.buffers():
            if buf is not None:
                h.update(buf)
        return h.hexdigest()

    def _emit_existing(self, name: str, marker: dict) -> pa.Table:
        # bucket partials were written before the marker, so a resumed
        # segment only needs to replay its meta row
        return self._meta_row(name, marker["n_docs"], marker["dl_sum"])

    # -- main --------------------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return PARTIAL_SCHEMA.empty_table()
        doc_col = batch[self.id_col].combine_chunks().cast(pa.int64())
        doc_ids = np.asarray(doc_col)
        # stable presentation order: sort the segment by doc_id
        order = np.argsort(doc_ids, kind="stable")
        doc_ids = np.ascontiguousarray(doc_ids[order])
        text = analyzer.normalize_text(batch[self.text_col]).take(pa.array(order))

        name = f"seg-{doc_ids[0]:012d}-{doc_ids[-1]:012d}"
        marker_path = os.path.join(self.seg_dir, f"{name}.done")
        fingerprint = self._fingerprint(doc_ids, text)
        # a committed version has no staging left: rebuild a segment whose
        # partials are gone rather than replay a meta row without them
        partials = self.staging_dir and os.path.join(self.staging_dir, f"{name}.parquet")
        if os.path.exists(marker_path) and (not partials or os.path.exists(partials)):
            with open(marker_path) as f:
                marker = json.load(f)
            if marker.get("fingerprint") == fingerprint:
                return self._emit_existing(name, marker)

        encode_t0 = time.monotonic()
        rows, codes, dictionary = analyzer.tokenize_flat(text, self.analyzer_version)
        dl = np.bincount(rows, minlength=n).astype(np.int64)
        p_row, p_code, p_tf = analyzer.term_frequencies(rows, codes)
        p_doc = doc_ids[p_row]
        # postings order: (term, doc_id) ascending; doc ids are pre-sorted so
        # p_row ascending ⇒ p_doc ascending within a term
        order2 = np.lexsort((p_doc, p_code))
        p_doc = p_doc[order2]
        p_tf = p_tf[order2]
        p_code = p_code[order2]

        positions = None
        if self.store_positions:
            # token stream is (row, pos)-ordered; a stable sort by code gives
            # (code, row, pos) — exactly the (term, doc) posting order above,
            # with each posting's tf tokens contiguous and ascending
            tok_pos = analyzer.token_positions(rows)
            positions = tok_pos[np.argsort(codes, kind="stable")]

        doc_stream, tf_stream, terms_tbl, pos_stream = encode_postings_streams(
            p_code, p_doc, p_tf, dictionary, positions=positions
        )
        # term-sorted views (terms_tbl order) for partials and the marker
        seg_terms = terms_tbl["term"].combine_chunks()
        df = np.asarray(terms_tbl["df"])
        cf = np.asarray(terms_tbl["cf"])

        docs_cols = {"doc_id": pa.array(doc_ids, pa.int64()), "dl": pa.array(dl, pa.int64())}
        for c in self.attr_cols:
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            docs_cols[c] = col.take(pa.array(order))
        if self.store_source:
            src = batch[self.text_col]
            if isinstance(src, pa.ChunkedArray):
                src = src.combine_chunks()
            docs_cols["_source"] = src.take(pa.array(order))
        docs_tbl = pa.table(docs_cols)

        # atomic write: tmp files → os.replace → marker last
        base = os.path.join(self.seg_dir, name)
        pq.write_table(terms_tbl, base + ".terms.parquet.tmp")
        pq.write_table(docs_tbl, base + ".docs.parquet.tmp")
        with open(base + ".bin.tmp", "wb") as f:
            f.write(doc_stream)
            f.write(tf_stream)
        exts = [".terms.parquet", ".docs.parquet", ".bin"]
        if self.store_positions:
            with open(base + ".pos.tmp", "wb") as f:
                f.write(pos_stream)
            exts.append(".pos")
        for ext in exts:
            os.replace(base + ext + ".tmp", base + ext)
        dl_sum = int(dl.sum())
        if self.staging_dir:
            self._write_bucket_partials(name, seg_terms, df, cf)
        marker = {
            "fingerprint": fingerprint,
            "n_docs": int(n),
            "dl_sum": dl_sum,
            "n_terms": int(len(seg_terms)),
            "analyzer": self.analyzer_version,
            # per-partition metric (north_rule: per-partition lineage +
            # metrics); byte sizes come from the files themselves at read
            # time so resumed/compacted segments never go stale
            "encode_sec": round(time.monotonic() - encode_t0, 3),
        }
        tmp = marker_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(marker, f)
        os.replace(tmp, marker_path)

        return self._meta_row(name, int(n), dl_sum)


def build_segment(batch: pa.Table, **builder_kwargs) -> pa.Table:
    """Phase-1 Ray Data task UDF: one batch → one segment, through a
    ``SegmentBuilder(**builder_kwargs)``. Both commits (``build_index`` and
    ``incremental.build_incremental``) map it as a function, so they run on
    Ray Data's shared task workers; a class UDF would start a new actor pool
    on every call."""
    return SegmentBuilder(**builder_kwargs)(batch)


def write_segments(ds, meta_dir: str, *, batch_size, concurrency, **builder_kwargs):
    """Phase 1 of both commits: ``build_segment`` over ``ds`` as Ray Data
    tasks, at most ``concurrency`` at once, with the segments' meta rows
    written to ``meta_dir``. Returns the executed Dataset (its ``stats()``
    split phase 1 per operator)."""
    metas = ds.map_batches(
        build_segment,
        fn_kwargs=builder_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=concurrency,
    )
    metas.write_parquet(meta_dir)
    return metas


def live_partial_files(staging_dir: str, live_segs: set[str]) -> list[str]:
    """The vocabulary partial files of this commit's segments; leftovers of
    aborted runs are ignored."""
    return sorted(
        os.path.join(staging_dir, f)
        for f in os.listdir(staging_dir)
        if f.endswith(".parquet") and f[: -len(".parquet")] in live_segs
    )


def remove_staging(vdir: str) -> None:
    """Delete a commit's ``staging/`` (vocabulary partials, meta listing,
    phase-1 marker, delta corrections) once its manifest is written: until
    then it is what a killed commit resumes from, after that nothing reads
    it."""
    shutil.rmtree(os.path.join(vdir, "staging"), ignore_errors=True)


def remove_stray_segment_files(seg_dir: str, live: set[str]) -> None:
    """Delete what a killed or aborted builder left in a commit's segment
    dir: files of segments outside ``live`` and any unrenamed ``.tmp``."""
    for fname in os.listdir(seg_dir):
        if fname.split(".")[0] not in live or fname.endswith(".tmp"):
            os.remove(os.path.join(seg_dir, fname))


def _group_term_stats(tbl: pa.Table) -> pa.Table:
    """(bucket, term, df, cf) rows summed per (bucket, term)."""
    return (
        tbl.group_by(["bucket", "term"])
        .aggregate([("df", "sum"), ("cf", "sum")])
        .rename_columns(["bucket", "term", "df", "cf"])
    )


def _bucket_of(path: str) -> int:
    """Bucket id of a final ``bucket-NNNNN.parquet`` term-stats file."""
    return int(os.path.basename(path)[len("bucket-") : -len(".parquet")])


def _read_bucket_files(files: list[str]) -> list[pa.Table]:
    """Final term-stats bucket files as (bucket, term, df, cf) tables; the
    bucket id comes from the ``bucket-NNNNN.parquet`` file name."""
    out = []
    for path in files:
        t = pq.read_table(path, columns=["term", "df", "cf"])
        out.append(pa.table({
            "bucket": pa.array(np.full(t.num_rows, _bucket_of(path), np.int32)),
            "term": t["term"], "df": t["df"], "cf": t["cf"],
        }))
    return out


def _write_bucket_files(agg: pa.Table, termstats_dir: str) -> None:
    """agg: (bucket, term, df, cf) — keep df > 0 (a delta's corrections can
    take a term to 0), slice per bucket, write each sorted by term."""
    agg = agg.filter(pc.greater(agg["df"], 0))
    agg = agg.sort_by([("bucket", "ascending"), ("term", "ascending")])
    bvals = np.asarray(agg["bucket"].combine_chunks(), dtype=np.int64)
    starts = np.flatnonzero(np.diff(np.concatenate(([-1], bvals))))
    ends = np.append(starts[1:], bvals.size)
    for st, en in zip(starts, ends):
        out = os.path.join(termstats_dir, f"bucket-{int(bvals[st]):05d}.parquet")
        pq.write_table(agg.slice(st, en - st).select(["term", "df", "cf"]), out + ".tmp")
        os.replace(out + ".tmp", out)


def _preagg_partials(
    batch: pa.Table, stage_a_dir: str, n_ranges: int, num_buckets: int
) -> pa.Table:
    """Tree stage A (a Ray Data task): pre-aggregate one chunk of partial
    files per (bucket, term) and write it split by contiguous bucket range."""
    paths = batch["path"].to_pylist()
    agg = _group_term_stats(
        pads.dataset(paths).to_table(columns=["bucket", "term", "df", "cf"])
    ).sort_by([("bucket", "ascending")])
    bvals = np.asarray(agg["bucket"].combine_chunks(), dtype=np.int64)
    rng = (bvals * n_ranges) // num_buckets
    starts = np.flatnonzero(np.diff(np.concatenate(([-1], rng))))
    ends = np.append(starts[1:], rng.size)
    stem = hashlib.sha1("\n".join(paths).encode()).hexdigest()[:16]
    for st, en in zip(starts, ends):
        out = os.path.join(stage_a_dir, f"range-{int(rng[st]):04d}", f"{stem}.parquet")
        pq.write_table(agg.slice(st, en - st), out + ".tmp")
        os.replace(out + ".tmp", out)
    return pa.table({"chunk": pa.array([stem])})


def fold_term_stats(
    vdir: str, partial_files: list[str], *, num_buckets: int, parent_dir: str | None = None
) -> None:
    """Phase 2 of both commits: write the global term-stats bucket files of
    version dir ``vdir``. Inputs are ``partial_files`` ((bucket, term, df,
    cf) rows: new-segment partials and, for a delta, its negative
    corrections) and, for a delta, the parent version's bucket files in
    ``parent_dir``. Rows are summed per (bucket, term) and terms left at
    ``df <= 0`` are dropped. Below ``GRAFT_VOCAB_TREE_BYTES`` of input
    (parent bytes included) the fold runs in this process; above it, as a
    tree of Ray tasks: stage A pre-aggregates chunks of partial files per
    bucket range, stage B is one task per range that folds its slices with
    the parent's bucket files of that range. Every input file is opened
    exactly once and nothing big is concatenated on the driver."""
    termstats_dir = os.path.join(vdir, "termstats")
    shutil.rmtree(termstats_dir, ignore_errors=True)
    os.makedirs(termstats_dir, exist_ok=True)
    parent_files = (
        sorted(glob.glob(os.path.join(parent_dir, "bucket-*.parquet"))) if parent_dir else []
    )
    if not (partial_files or parent_files):
        return
    in_bytes = sum(os.path.getsize(f) for f in partial_files + parent_files)
    if in_bytes < int(os.environ.get("GRAFT_VOCAB_TREE_BYTES", 256 * 1024 * 1024)):
        # the vocabulary fits one process: one read of every input and one
        # local group_by (the file count, not the byte count, is what made
        # the old one-file-per-bucket layout slow)
        parts = _read_bucket_files(parent_files)
        if partial_files:
            parts.append(
                pads.dataset(partial_files).to_table(columns=["bucket", "term", "df", "cf"])
            )
        _write_bucket_files(_group_term_stats(pa.concat_tables(parts)), termstats_dir)
        return

    import ray
    import ray.data as rd

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    n_ranges = min(num_buckets, 4 * ncpu)
    stage_a_dir = os.path.join(vdir, "staging", "vocab_a")
    shutil.rmtree(stage_a_dir, ignore_errors=True)
    for r in range(n_ranges):
        os.makedirs(os.path.join(stage_a_dir, f"range-{r:04d}"), exist_ok=True)
    if partial_files:
        rd.from_items([{"path": f} for f in partial_files]).map_batches(
            _preagg_partials,
            fn_kwargs={"stage_a_dir": stage_a_dir, "n_ranges": n_ranges,
                       "num_buckets": num_buckets},
            batch_size=max(1, len(partial_files) // (2 * ncpu)),
            batch_format="pyarrow",
        ).materialize()

    @ray.remote
    def finalize_range(r: int) -> None:
        rdir = os.path.join(stage_a_dir, f"range-{r:04d}")
        parts = _read_bucket_files(
            [f for f in parent_files if _bucket_of(f) * n_ranges // num_buckets == r]
        )
        files = [os.path.join(rdir, f) for f in sorted(os.listdir(rdir))]
        if files:
            parts.append(pads.dataset(files).to_table(columns=["bucket", "term", "df", "cf"]))
        if parts:
            _write_bucket_files(_group_term_stats(pa.concat_tables(parts)), termstats_dir)

    ray.get([finalize_range.remote(r) for r in range(n_ranges)])
    shutil.rmtree(stage_a_dir, ignore_errors=True)


def segment_metrics(index_root: str, version: int | None = None) -> "pd.DataFrame":
    """Per-partition lineage + metrics surface (north_rule): one row per
    live segment of a version — doc/term/length stats from the fingerprinted
    ``.done`` marker, byte sizes statted from the segment files themselves
    (so compaction carry-forwards and resume replays never go stale), and
    the recorded encode wall time (NaN for segments written before the
    metric existed or replayed from markers)."""
    import pandas as pd

    from . import manifest as _mf

    man = _mf.read_manifest(index_root, version)
    rows = []
    for seg in man["segments"]:
        base = os.path.join(index_root, seg["path"])
        nbytes = 0
        for ext in (".terms.parquet", ".docs.parquet", ".bin", ".pos"):
            p = base + ext
            if os.path.exists(p):
                nbytes += os.path.getsize(p)
        marker = {}
        mpath = base + ".done"
        if os.path.exists(mpath):
            with open(mpath) as f:
                marker = json.load(f)
        rows.append({
            "segment": seg["name"],
            "created_version": int(seg.get("created_version", man["_version"])),
            "n_docs": int(seg["n_docs"]),
            "dl_sum": int(seg["dl_sum"]),
            "n_terms": int(marker.get("n_terms", -1)),
            "bytes": int(nbytes),
            "encode_sec": float(marker["encode_sec"]) if "encode_sec" in marker else float("nan"),
        })
    return pd.DataFrame(
        rows,
        columns=["segment", "created_version", "n_docs", "dl_sum",
                 "n_terms", "bytes", "encode_sec"],
    ).sort_values("segment").reset_index(drop=True)


def cat_indices(index_root: str) -> "pd.DataFrame":
    """ES ``_cat/indices`` analog over the version lineage: one row per
    retained version — docs, segments, on-disk bytes, parent version and
    whether it is CURRENT. Observability only; reads manifests + file
    sizes, never postings."""
    import pandas as pd

    from . import manifest as _mf

    cur = _mf.current_version(index_root)
    rows = []
    for v in _mf.list_versions(index_root):
        man = _mf.read_manifest(index_root, v)
        nbytes = int(segment_metrics(index_root, v)["bytes"].sum())
        rows.append({
            "version": int(v),
            "current": bool(v == cur),
            "n_docs": int(man["n_docs"]),
            "n_segments": int(len(man["segments"])),
            "n_tombstones": int(len(man.get("tombstones") or [])),
            "bytes": nbytes,
            "parent_version": man.get("lineage", {}).get("parent_version"),
        })
    return pd.DataFrame(
        rows,
        columns=["version", "current", "n_docs", "n_segments",
                 "n_tombstones", "bytes", "parent_version"],
    ).sort_values("version").reset_index(drop=True)


def read_segment_metas(meta_dir: str) -> pa.Table:
    """Per-segment meta rows (seg name, n_docs, dl_sum) from a build's meta
    listing; empty corpus → empty table."""
    files = (
        [os.path.join(meta_dir, f) for f in os.listdir(meta_dir) if f.endswith(".parquet")]
        if os.path.isdir(meta_dir)
        else []
    )
    if not files:
        return pa.table(
            {"seg": pa.array([], pa.string()), "df": pa.array([], pa.int64()), "cf": pa.array([], pa.int64())}
        )
    tbl = pads.dataset(files).to_table(
        filter=pads.field("term") == META_TERM, columns=["seg", "df", "cf"]
    )
    return tbl.sort_by("seg")


def _build_index_impl(
    ds,
    index_root: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    version: int | None = None,
    batch_size: int | None = None,
    concurrency: int | None = None,
    promote: bool = True,
    resume: bool = True,
    input_desc: str = "",
    keep_versions: int = 3,
    attr_cols: list[str] | None = None,
    store_positions: bool = False,
    store_source: bool = False,
    analyzer_version: str = analyzer.ANALYZER_VERSION,
) -> dict:
    """Build a new index version from a corpus Dataset. Returns the manifest.

    ``batch_size=None`` (default) makes each *read block* one segment, which
    keeps segment membership deterministic run-to-run (resume-friendly);
    tune segment size upstream via ``override_num_blocks`` on the read or
    ``DataContext.target_max_block_size``.
    """
    import ray
    import ray.data  # noqa: F401

    t0 = time.time()
    if version is None:
        version = mf.next_version(index_root)
    vdir = mf.version_dir(index_root, version)
    seg_dir = os.path.join(vdir, "segments")
    staging_dir = os.path.join(vdir, "staging", "partials")
    phase1_marker = os.path.join(vdir, "staging", "phase1.done")
    os.makedirs(seg_dir, exist_ok=True)

    if concurrency is None:
        # at most this many builder tasks at once: leave ~1/4 of the CPUs
        # for the read and write operators, or the pipeline serializes
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        concurrency = max(2, (3 * ncpu) // 4)

    num_buckets = NUM_TERM_BUCKETS

    # ---- phase 1: segments + bucket-partitioned vocabulary partials ------
    # The term "shuffle" is map-side: every partial row carries
    # bucket = crc32(term) % P and the staging write is Parquet-partitioned
    # by bucket, so same-term rows are co-located on disk without any
    # all-to-all exchange.
    meta_dir = os.path.join(vdir, "staging", "meta")
    if not (resume and os.path.exists(phase1_marker)):
        # keep segment bucket partials across retries (their own markers make
        # them idempotent); rewrite only the meta listing
        shutil.rmtree(meta_dir, ignore_errors=True)
        os.makedirs(staging_dir, exist_ok=True)
        metas = write_segments(
            ds.select_columns([id_col, text_col] + list(attr_cols or [])), meta_dir,
            batch_size=batch_size,
            concurrency=concurrency,
            seg_dir=seg_dir,
            id_col=id_col,
            text_col=text_col,
            num_buckets=num_buckets,
            attr_cols=attr_cols,
            staging_dir=staging_dir,
            store_positions=store_positions,
            store_source=store_source,
            analyzer_version=analyzer_version,
        )
        stats_out = os.environ.get("GRAFT_BUILD_STATS")
        if stats_out:  # diagnostic: per-operator wall/udf breakdown of phase 1
            with open(stats_out, "a") as f:
                f.write(metas.stats() + "\n")
        os.makedirs(os.path.dirname(phase1_marker), exist_ok=True)
        with open(phase1_marker + ".tmp", "w") as f:
            json.dump({"analyzer": analyzer_version, "num_buckets": num_buckets}, f)
        os.replace(phase1_marker + ".tmp", phase1_marker)
    t1 = time.time()

    # authoritative segment list for this build: only these segments' partial
    # files participate in phase 2 (leftovers from aborted runs are ignored)
    meta_tbl = read_segment_metas(meta_dir)
    live_segs = set(meta_tbl["seg"].to_pylist())

    # ---- phase 2: global term stats (the fold the delta commit shares) ---
    fold_term_stats(vdir, live_partial_files(staging_dir, live_segs), num_buckets=num_buckets)
    t2 = time.time()

    # ---- manifest from per-segment meta rows -----------------------------
    seg_names = meta_tbl["seg"].to_pylist()
    seg_docs = meta_tbl["df"].to_pylist()
    seg_dls = meta_tbl["cf"].to_pylist()
    n_docs = int(sum(seg_docs))
    dl_sum = int(sum(seg_dls))
    avgdl = (dl_sum / n_docs) if n_docs else 0.0
    segments = [
        {
            "name": s,
            "path": f"v{version}/segments/{s}",
            "n_docs": int(nd),
            "dl_sum": int(dls),
            "created_version": version,
        }
        for s, nd, dls in zip(seg_names, seg_docs, seg_dls)
    ]
    remove_stray_segment_files(seg_dir, set(seg_names))

    build_sec = time.time() - t0
    man = {
        "version": version,
        "analyzer": analyzer_version,
        "k1": 1.2,
        "b": 0.75,
        "n_docs": n_docs,
        "dl_sum": dl_sum,
        "avgdl": avgdl,
        "num_buckets": num_buckets,
        "attr_cols": list(attr_cols or []),
        "positions": bool(store_positions),
        "store_source": bool(store_source),
        "segments": segments,
        "termstats": f"v{version}/termstats",
        "tombstones": [],
        "lineage": {
            "input": input_desc,
            "id_col": id_col,
            "text_col": text_col,
            "batch_size": batch_size,
            "concurrency": concurrency,
            "parent_version": None,
        },
        "metrics": {
            "phase1_sec": round(t1 - t0, 3),
            "phase2_sec": round(t2 - t1, 3),
            "build_sec": round(build_sec, 3),
            "docs_per_sec": round(n_docs / build_sec, 1) if build_sec > 0 else None,
            "n_segments": len(segments),
        },
    }
    mf.write_manifest(index_root, version, man)
    remove_staging(vdir)
    if promote:
        mf.promote(index_root, version)
        mf.purge_stale_versions(index_root, keep=keep_versions)
    return man


def build_index(ds, index_root, **kwargs):
    """Public build entry: single-writer per index root (the reference's
    select_for_update(nowait) analog — manifest.build_lock). A concurrent
    live builder raises BuildLockError; a crashed builder's stale lock is
    stolen, which is what lets kill-resume work unattended."""
    with mf.build_lock(index_root):
        return _build_index_impl(ds, index_root, **kwargs)
