"""Deduplication operators: exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Reference analogs: exact upsert-dedup keyed on content hash
(harvester/core/models/datatypes/document.py:131-139, 207-218;
harvester/core/processors/seed/resource.py:98-105). The near-dup family is
the 100 TB-scale extension a training-data pipeline needs.

Scale design: exact dedup is hash-partitioned (groupby on the content hash —
each group tiny); MinHash-LSH shuffles only (band_id, band_hash, doc_id)
triples, never documents; candidate verification re-reads only candidate
shingle sets. All hashes are process-independent (zlib.crc32 / md5), never
Python ``hash()``.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import analyzer

_MERSENNE = (1 << 61) - 1


def _content_hash_batch(batch: pa.Table, *, id_col: str, text_col: str) -> pa.Table:
    text = pc.fill_null(batch[text_col], "")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    hashes = [hashlib.md5(t.encode()).hexdigest() for t in text.to_pylist()]
    return pa.table(
        {
            "text_hash": pa.array(hashes, pa.string()),
            "doc_id": batch[id_col].combine_chunks().cast(pa.int64()),
        }
    )


def exact_dedup(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Exact dedup: content-hash → hash-partitioned groupby → keep the first
    (min doc_id) per group. Returns (text_hash, doc_id) of survivors."""
    from ray.data.aggregate import Min

    hashed = ds.map_batches(
        lambda t: _content_hash_batch(t, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return hashed.groupby("text_hash").aggregate(Min("doc_id", alias_name="doc_id"))


def exact_dedup_sql(table: str = "documents", *, id_col: str = "doc_id", text_col: str = "text") -> str:
    return (
        f"SELECT md5(coalesce({text_col}, '')) AS text_hash, min({id_col}) AS doc_id "
        f"FROM {table} GROUP BY 1"
    )


# ---------------------------------------------------------------------------
# shingles + MinHash
# ---------------------------------------------------------------------------

_H64_MUL = np.uint64(0x100000001B3)  # FNV-1a prime, polynomial n-gram combine
_FNV_OFF = np.uint64(0xCBF29CE484222325)
_CRC_SALT = 0x9E3779B9


def _vocab_hash64(dictionary: pa.Array) -> np.ndarray:
    """64-bit deterministic hash per distinct token string (two salted
    crc32s). Only the batch's small vocabulary is hashed in Python; the flat
    token stream is then mapped with one vectorized gather. 64 bits (vs the
    former per-shingle crc32) makes shingle-hash collisions — which would
    silently skew Jaccard vs the string-based oracle — ~2^-32 × rarer."""
    out = np.empty(len(dictionary), dtype=np.uint64)
    for i, w in enumerate(dictionary.to_pylist()):
        b = w.encode()
        out[i] = (np.uint64(zlib.crc32(b)) << np.uint64(32)) | np.uint64(
            zlib.crc32(b, _CRC_SALT)
        )
    return out


def _batch_shingles(text: pa.Array, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized word-n-gram hashing for a whole batch.

    Returns ``(doc_idx, shingle_hash)`` flat arrays (NOT deduped per doc):
    token 64-bit hashes combined per sliding window with a polynomial roll —
    no per-shingle Python, no string joins. Docs with 0 < len < n tokens get
    one shingle covering all their tokens (mirrors the oracle's
    ``array_to_string`` fallback, ngram_jaccard_sql)."""
    rows, codes, dictionary = analyzer.tokenize_flat(text)
    nrows = len(text)
    if rows.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    th = _vocab_hash64(dictionary)[codes]
    if rows.size >= n:
        valid = rows[: rows.size - n + 1] == rows[n - 1 :]
        h = th[: th.size - n + 1].copy()
        for k in range(1, n):  # uint64 arithmetic wraps (intended)
            h = h * _H64_MUL + th[k : th.size - n + 1 + k]
        sh_doc = rows[: rows.size - n + 1][valid].astype(np.int64)
        sh_h = h[valid]
    else:
        sh_doc, sh_h = np.empty(0, np.int64), np.empty(0, np.uint64)
    counts = np.bincount(rows, minlength=nrows)
    short = np.flatnonzero((counts > 0) & (counts < n))
    if short.size:
        offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
        extra = np.empty(short.size, np.uint64)
        for si, r in enumerate(short):  # short docs only — rare
            hh = th[offs[r]]
            for t in th[offs[r] + 1 : offs[r + 1]]:
                hh = hh * _H64_MUL + t
            extra[si] = hh
        sh_doc = np.concatenate([sh_doc, short.astype(np.int64)])
        sh_h = np.concatenate([sh_h, extra])
    return sh_doc, sh_h


def _dedup_doc_shingles(sh_doc: np.ndarray, sh_h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (doc, shingle) pairs, sorted by (doc, hash) — vectorized."""
    if sh_h.size == 0:
        return sh_doc, sh_h
    order = np.lexsort((sh_h, sh_doc))
    sh_doc, sh_h = sh_doc[order], sh_h[order]
    keep = np.ones(sh_h.size, bool)
    keep[1:] = (sh_doc[1:] != sh_doc[:-1]) | (sh_h[1:] != sh_h[:-1])
    return sh_doc[keep], sh_h[keep]


def _group_pairs(
    counts: np.ndarray, emit: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate all within-group index pairs (i < j) over a group-sorted
    array described by ``counts`` (group sizes), fully vectorized (closed-form
    triangle decode — no Python loop over groups, which is what makes
    one-map_groups-call-per-tiny-group pipelines slow). ``emit`` masks groups
    whose pairs should be suppressed (hot-bucket cap). Returns global index
    arrays (i, j) into the underlying array."""
    counts = counts.astype(np.int64)
    m = counts * (counts - 1) // 2
    if emit is not None:
        m = np.where(emit, m, 0)
    total = int(m.sum())
    if total == 0:
        e = np.empty(0, np.int64)
        return e, e
    cm = np.concatenate([np.zeros(1, np.int64), np.cumsum(m)])
    offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    p = np.arange(total, dtype=np.int64)
    g = np.searchsorted(cm, p, side="right") - 1
    q = p - cm[g]
    c = counts[g]
    r = m[g] - q  # 1-based pair index counted from the group's end
    k = np.ceil((np.sqrt(8.0 * r.astype(np.float64) + 1.0) - 1.0) / 2.0).astype(np.int64) - 1
    # exact integer correction of float sqrt edge error: T(k) < r <= T(k+1)
    t_k = k * (k + 1) // 2
    k = np.where(t_k >= r, k - 1, k)
    k = np.where((k + 1) * (k + 2) // 2 < r, k + 1, k)
    i = c - 2 - k
    cum_i = i * c - i * (i + 1) // 2
    j = q - cum_i + i + 1
    return offs[g] + i, offs[g] + j


def _group_star_pairs(
    counts: np.ndarray, emit: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Star edges per group: (group-first, every other member) — c-1 edges
    instead of c(c-1)/2. On duplicate-heavy corpora an LSH band bucket's size
    grows linearly with the corpus (identical texts have identical
    signatures), so all-pairs enumeration is quadratic in corpus size; star
    edges keep it linear while preserving the connected component whenever
    the bucket members actually near-dup the representative (the common case
    — they banded together because their signatures agree). Assumes the
    underlying array is group-sorted with the representative (min doc_id)
    first in each group."""
    counts = counts.astype(np.int64)
    m = counts - 1
    if emit is not None:
        m = np.where(emit, m, 0)
    total = int(m.sum())
    if total == 0:
        e = np.empty(0, np.int64)
        return e, e
    offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
    cm = np.concatenate([np.zeros(1, np.int64), np.cumsum(m)])
    p = np.arange(total, dtype=np.int64)
    g = np.searchsorted(cm, p, side="right") - 1
    j = offs[g] + (p - cm[g]) + 1
    return offs[g], j


_MINHASH_PRIME = (1 << 31) - 1  # Mersenne 2^31-1
# NOTE (round 3): a Mersenne shift-fold replacement for the % below was
# tried and REVERTED — numpy's modulo-by-constant runs ~170M ops/s warm
# (the apparent 8M ops/s was first-touch page-fault noise), while the fold
# pays 3 extra full-grid temporaries and measures 2.7x slower.


def _minhash_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MINHASH_PRIME, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MINHASH_PRIME, size=num_perm, dtype=np.uint64)
    return a, b


def _rows_per_band(num_perm: int, bands: int) -> int:
    """Signature rows per LSH band; the bands must split the signature
    evenly, or trailing lanes would be dropped (or the reshape fail)."""
    if bands < 1 or num_perm % bands:
        raise ValueError(
            f"num_perm={num_perm} must be a multiple of bands={bands}"
        )
    return num_perm // bands


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minima of (a*x + b) mod (2^31-1) over shingle hashes.

    Fully vectorized: x is reduced mod the prime first, so a < 2^31 and
    x < 2^31 keep a*x+b < 2^62 — the whole (P, S) product grid fits uint64
    with no overflow, for 32- or 64-bit shingle hashes alike."""
    if sh.size == 0:
        return np.full(a.size, np.iinfo(np.uint64).max, dtype=np.uint64)
    x = sh.astype(np.uint64) % np.uint64(_MINHASH_PRIME)
    grid = (a[:, None] * x[None, :] + b[:, None]) % np.uint64(_MINHASH_PRIME)
    return grid.min(axis=1)


def _batch_signatures(
    sh_doc: np.ndarray,
    sh_h: np.ndarray,
    nrows: int,
    a: np.ndarray,
    b: np.ndarray,
    *,
    chunk: int = 200_000,
) -> np.ndarray:
    """(nrows, num_perm) MinHash signature matrix for a batch, computed with
    ``np.minimum.reduceat`` over doc boundaries in bounded-memory chunks (the
    (num_perm × shingles) permutation grid is never wider than ``chunk``).
    Docs with no shingles keep the uint64-max sentinel signature."""
    num_perm = a.size
    sigs = np.full((nrows, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if sh_h.size == 0:
        return sigs
    order = np.argsort(sh_doc, kind="stable")
    sh_doc, x = sh_doc[order], sh_h[order] % np.uint64(_MINHASH_PRIME)
    docs_present, starts = np.unique(sh_doc, return_index=True)
    seg_ends = np.concatenate([starts[1:], [sh_doc.size]])
    c0 = 0
    while c0 < docs_present.size:
        c1 = c0 + 1
        while c1 < docs_present.size and seg_ends[c1 - 1] - starts[c0] < chunk:
            c1 += 1
        sl = slice(starts[c0], seg_ends[c1 - 1])
        grid = (a[:, None] * x[sl][None, :] + b[:, None]) % np.uint64(_MINHASH_PRIME)
        mins = np.minimum.reduceat(grid, starts[c0:c1] - starts[c0], axis=1)
        sigs[docs_present[c0:c1]] = mins.T
        c0 = c1
    return sigs


def minhash_lsh_candidates(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    n_partitions: int = 64,
    pairing: str = "all",
    max_bucket: int | None = None,
):
    """Stage 1+2 of MinHash-LSH: per-doc signatures → (band_key, doc_id)
    rows → coarse-bucket groupby → candidate pairs (a < b), deduped.

    Only O(docs × bands) tiny rows are shuffled, and the shuffle is over
    ``n_partitions`` coarse buckets (band_key mod P), NOT one group per band
    bucket — pair enumeration inside a coarse bucket is a closed-form
    vectorized decode (``_group_pairs``), so there is no per-tiny-bucket
    Python call. Band keys are FNV-folded from the signature rows with a
    per-band salt (vectorized; no per-doc crc32). Returns a Dataset of
    (doc_a, doc_b, n_bands).

    ``pairing="star"`` emits (bucket-min, member) edges instead of all
    within-bucket pairs — c-1 rows per band bucket instead of c(c-1)/2.
    Use it when the pairs feed connected-components dedup
    (``cluster.dedup_corpus``): on duplicate-heavy corpora band buckets of
    identical texts grow WITH the corpus, so all-pairs is quadratic in
    corpus size (measured: 138M candidates from 38.4M templated turns)
    while star stays linear and unions the same docs through their
    representative. ``max_bucket`` additionally skips pair emission for
    band buckets larger than the cap (a recall/cost valve for ``"all"``;
    with ``"star"`` buckets are linear so the cap is rarely needed).
    """
    rows_per_band = _rows_per_band(num_perm, bands)
    a, b = _minhash_params(num_perm)
    band_salt = np.arange(bands, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

    def to_bands(batch: pa.Table) -> pa.Table:
        text = analyzer.normalize_text(batch[text_col])
        ids = np.asarray(batch[id_col].combine_chunks().cast(pa.int64()))
        sh_doc, sh_h = _batch_shingles(text, shingle_n)
        sigs = _batch_signatures(sh_doc, sh_h, len(text), a, b)
        # drop shingle-less docs (texts shorter than the shingle window):
        # they all carry the identical uint64-max sentinel signature, so at
        # corpus scale they'd meet in ONE band bucket and pair quadratically
        # (millions of short turns → 10^11 candidates) — yet their Jaccard
        # with anything is 0, so they can never reach a threshold > 0.
        has = np.zeros(len(text), dtype=bool)
        if sh_doc.size:
            has[np.unique(sh_doc)] = True
        ids, sigs = ids[has], sigs[has]
        s3 = sigs.reshape(ids.size, bands, rows_per_band)
        h = np.full((ids.size, bands), _FNV_OFF, dtype=np.uint64)
        for k in range(rows_per_band):
            h = (h ^ s3[:, :, k]) * _H64_MUL
        h ^= band_salt[None, :]
        flat = h.ravel()
        return pa.table(
            {
                "bkey": pa.array(flat.view(np.int64), pa.int64()),
                "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
                "bucket": pa.array((flat % np.uint64(n_partitions)).astype(np.int32)),
            }
        )

    banded = ds.map_batches(to_bands, batch_format="pyarrow", zero_copy_batch=True)

    def bucket_pairs(group: pd.DataFrame) -> pa.Table:
        k = group["bkey"].to_numpy()
        d = group["doc_id"].to_numpy()
        order = np.lexsort((d, k))
        k, d = k[order], d[order]
        _, counts = np.unique(k, return_counts=True)
        emit = None if max_bucket is None else (counts <= max_bucket)
        if pairing == "star":
            i, j = _group_star_pairs(counts, emit)
        else:
            i, j = _group_pairs(counts, emit)
        return pa.table(
            {"doc_a": pa.array(d[i], pa.int64()), "doc_b": pa.array(d[j], pa.int64())}
        )

    pairs = banded.groupby("bucket").map_groups(bucket_pairs, batch_format="pandas")
    from ray.data.aggregate import Count

    # dedupe pairs that collide in multiple bands
    return pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="n_bands"))


def doc_shingle_sets(
    docs_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    key_name: str = "doc_id",
    payload_name: str = "sh",
):
    """(doc_id, sh:binary) — each doc's sorted distinct shingle hashes packed
    as little-endian uint64 bytes. Binary (not list<uint64>) so the blob can
    ride any exchange as a flat payload column; np.frombuffer round-trips it
    zero-copy on the other side. Hashing is fully vectorized
    (``_batch_shingles``)."""

    def to_shingles(batch: pa.Table) -> pa.Table:
        text = analyzer.normalize_text(batch[text_col])
        ids = np.asarray(batch[id_col].combine_chunks().cast(pa.int64()))
        sh_doc, sh_h = _dedup_doc_shingles(*_batch_shingles(text, shingle_n))
        counts = np.bincount(sh_doc, minlength=len(text)) if sh_doc.size else np.zeros(len(text), np.int64)
        offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
        le = sh_h.astype("<u8")
        blobs = [le[offs[i] : offs[i + 1]].tobytes() for i in range(len(text))]
        return pa.table(
            {
                key_name: pa.array(ids, pa.int64()),
                payload_name: pa.array(blobs, pa.binary()),
            }
        )

    return docs_ds.map_batches(to_shingles, batch_format="pyarrow", zero_copy_batch=True)


# "no pair partner" sentinel for the verify exchange's ``other`` column —
# kept non-null so the column survives the pandas group conversion as int64
# (nullable int64 -> float64 would mantissa-round ids above 2^53)
_NO_OTHER = np.int64(-(2**63))

_VERIFY_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("key", pa.int64()),
        ("other", pa.int64()),
        ("sh", pa.binary()),
        ("sh_x", pa.binary()),
    ]
)


def jaccard_verify_pairs(
    pairs_ds,
    docs_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    threshold: float = 0.8,
    n_partitions: int = 64,
    referenced_only: bool = False,
):
    """Stage 3: exact n-gram Jaccard on candidate pairs — fully distributed.

    Shingle sets are attached to candidates by co-partitioning, not by
    driver-side broadcast: the shingle table (doc_id, sh) and the candidate
    pairs are unioned under one schema and grouped into ``n_partitions``
    coarse buckets of the doc key twice — the first pass attaches doc_a's
    shingle blob to each pair via a vectorized in-bucket pandas merge, the
    second attaches doc_b's and computes the exact Jaccard. Coarse buckets
    (not one group per doc) keep the number of Python group calls at O(P),
    and each doc's shingle set crosses the wire once per pass regardless of
    how many candidates reference it; nothing is materialized on the driver.
    (Implementation note: this deliberately uses groupby/map_groups — Ray's
    sort-based exchange — rather than Dataset.join, whose hash-shuffle
    aggregator loses the schema of 0-row input blocks, and a join *output*
    always contains empty partitions.) Returns (doc_a, doc_b, jaccard) with
    jaccard >= threshold.

    ``referenced_only=True`` prunes the doc side to ids that actually appear
    in a candidate pair before any shingle blob is built: the candidate set
    is materialized (it is pairs-sized, not corpus-sized), its distinct ids
    are folded into one sorted int64 array — bounded by
    docs-appearing-in-pairs, the same boundedness assumption
    ``cluster.cluster_safe_split`` documents — and broadcast via ``ray.put``
    so every doc_rows task membership-tests with one searchsorted. At
    realistic dup rates this keeps >80% of the corpus's shingle blobs off
    the verify exchange entirely (the blobs, not the tiny pair rows, are
    what spills at scale).
    """

    def _bucket(keys: np.ndarray) -> pa.Array:
        return pa.array((keys % n_partitions).astype(np.int32))

    ref_handle = None
    if referenced_only:
        import ray as _ray

        pairs_ds = pairs_ds.materialize()
        parts = []
        for b in pairs_ds.select_columns(["doc_a", "doc_b"]).iter_batches(
            batch_format="pyarrow"
        ):
            parts.append(
                np.unique(
                    np.concatenate(
                        [
                            np.asarray(b["doc_a"].combine_chunks().cast(pa.int64())),
                            np.asarray(b["doc_b"].combine_chunks().cast(pa.int64())),
                        ]
                    )
                )
            )
        ref_ids = (
            np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        )
        ref_handle = _ray.put(ref_ids)

        def keep_referenced(t: pa.Table) -> pa.Table:
            import ray as _ray_w

            ref = _ray_w.get(ref_handle)  # zero-copy shared-memory numpy
            keys = np.asarray(t[id_col].combine_chunks().cast(pa.int64()))
            idx = np.searchsorted(ref, keys)
            ok = idx < ref.size
            ok[ok] = ref[idx[ok]] == keys[ok]
            return t.filter(pa.array(ok))

        docs_ds = docs_ds.map_batches(
            keep_referenced, batch_format="pyarrow", zero_copy_batch=True
        )

    sh = doc_shingle_sets(docs_ds, id_col=id_col, text_col=text_col, shingle_n=shingle_n)
    if referenced_only:
        # the doc side feeds BOTH union stages and Ray re-executes shared
        # sub-DAGs per consumer — with the referenced-ids filter the blob
        # set is pairs-bounded, so materializing it once halves the
        # corpus-read + shingle work (without the filter it is
        # corpus-sized and must stay streaming).
        sh = sh.materialize()

    def doc_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        keys = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        return pa.table(
            {
                "bucket": _bucket(keys),
                "key": pa.array(keys, pa.int64()),
                # NON-NULL sentinel, not pa.nulls: a nullable int64 column
                # becomes float64 in the pandas group, and doc ids above
                # 2^53 (e.g. re-keyed delta ids with a high bit set) would
                # be mantissa-rounded, silently breaking the second-pass
                # merge
                "other": pa.array(np.full(n, _NO_OTHER, np.int64), pa.int64()),
                "sh": t["sh"].combine_chunks(),
                "sh_x": pa.nulls(n, pa.binary()),
            },
            schema=_VERIFY_SCHEMA,
        )

    def pair_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        keys = np.asarray(t["doc_a"].combine_chunks().cast(pa.int64()))
        return pa.table(
            {
                "bucket": _bucket(keys),
                "key": pa.array(keys, pa.int64()),
                "other": t["doc_b"].combine_chunks().cast(pa.int64()),
                "sh": pa.nulls(n, pa.binary()),
                "sh_x": pa.nulls(n, pa.binary()),
            },
            schema=_VERIFY_SCHEMA,
        )

    def attach_a(g: pd.DataFrame) -> pa.Table:
        prs = g[g["other"] != _NO_OTHER]
        docs = g[g["other"] == _NO_OTHER]
        if not len(prs) or not len(docs):
            return _VERIFY_SCHEMA.empty_table()
        merged = prs[["key", "other"]].merge(docs[["key", "sh"]], on="key", how="inner")
        if not len(merged):
            return _VERIFY_SCHEMA.empty_table()
        # re-key by doc_b for the second pass; carry doc_a's blob in sh_x
        new_key = merged["other"].to_numpy(dtype=np.int64)
        return pa.table(
            {
                "bucket": _bucket(new_key),
                "key": pa.array(new_key, pa.int64()),
                "other": pa.array(merged["key"].to_numpy(dtype=np.int64), pa.int64()),
                "sh": pa.nulls(len(merged), pa.binary()),
                "sh_x": pa.array(list(merged["sh"]), pa.binary()),
            },
            schema=_VERIFY_SCHEMA,
        )

    def verify_b(g: pd.DataFrame) -> pa.Table:
        prs = g[g["sh_x"].notna()]
        docs = g[g["sh_x"].isna() & (g["other"] == _NO_OTHER)]
        out_a, out_b, out_j = [], [], []
        if len(prs) and len(docs):
            merged = prs[["key", "other", "sh_x"]].merge(
                docs[["key", "sh"]], on="key", how="inner"
            )
            for key, other, blob_a, blob_b in zip(
                merged["key"], merged["other"], merged["sh_x"], merged["sh"]
            ):
                sa = np.frombuffer(blob_a, dtype="<u8")
                sb = np.frombuffer(blob_b, dtype="<u8")
                if sa.size == 0 and sb.size == 0:
                    continue
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                union = sa.size + sb.size - inter
                j = inter / union if union else 0.0
                if j >= threshold:
                    out_a.append(int(other))
                    out_b.append(int(key))
                    out_j.append(round(j, 6))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    doc_side = sh.map_batches(doc_rows, batch_format="pyarrow", zero_copy_batch=True)
    pair_side = pairs_ds.select_columns(["doc_a", "doc_b"]).map_batches(
        pair_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    stage1 = doc_side.union(pair_side).groupby("bucket").map_groups(
        attach_a, batch_format="pandas"
    )
    stage2 = doc_side.union(stage1).groupby("bucket").map_groups(
        verify_b, batch_format="pandas"
    )
    return stage2


def near_dup_minhash(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.8,
    pairing: str = "all",
    max_bucket: int | None = None,
    referenced_only: bool = False,
):
    """Full MinHash-LSH near-dup pipeline → (doc_a, doc_b, jaccard).

    Defaults compute every verified pair (the gate/oracle contract). For
    corpus-scale dedup feeding connected components, pass
    ``pairing="star", referenced_only=True``: candidates stay linear in
    corpus size and only pair-referenced docs ship shingle blobs through
    the verify exchange (see ``minhash_lsh_candidates`` /
    ``jaccard_verify_pairs``)."""
    cands = minhash_lsh_candidates(
        ds, id_col=id_col, text_col=text_col, shingle_n=shingle_n,
        num_perm=num_perm, bands=bands, pairing=pairing, max_bucket=max_bucket,
    )
    return jaccard_verify_pairs(
        cands, ds, id_col=id_col, text_col=text_col, shingle_n=shingle_n,
        threshold=threshold, referenced_only=referenced_only,
    )


def jaccard_candidates_exact(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    max_bucket: int | None = None,
    n_partitions: int = 64,
):
    """Exact (non-approximate) candidate generation: inverted shingle buckets.

    Emits one (shingle_hash, doc_id) row per distinct shingle per doc, then a
    coarse-bucket groupby (shingle mod ``n_partitions``) enumerates all pairs
    sharing ≥1 shingle with one closed-form vectorized decode per bucket
    (``_group_pairs``) — a complete candidate set for ANY Jaccard threshold
    > 0 (unlike MinHash bands, which are probabilistic), with no
    one-Python-call-per-shingle-group overhead. Shuffle volume is O(total
    distinct shingles), never documents. ``max_bucket`` (optional) skips
    pathological hot shingles (boilerplate n-grams) whose O(|bucket|²) pair
    blowup dominates at scale — a doc pair above a high threshold shares many
    shingles, so dropping a few hot buckets rarely loses true pairs (document
    the tradeoff when used).
    """

    def to_shingle_rows(batch: pa.Table) -> pa.Table:
        text = analyzer.normalize_text(batch[text_col])
        ids = np.asarray(batch[id_col].combine_chunks().cast(pa.int64()))
        sh_doc, sh_h = _dedup_doc_shingles(*_batch_shingles(text, shingle_n))
        return pa.table(
            {
                "shingle": pa.array(sh_h.view(np.int64), pa.int64()),
                "doc_id": pa.array(ids[sh_doc] if sh_doc.size else np.empty(0, np.int64), pa.int64()),
                "bucket": pa.array((sh_h % np.uint64(n_partitions)).astype(np.int32)),
            }
        )

    rows = ds.map_batches(to_shingle_rows, batch_format="pyarrow", zero_copy_batch=True)

    def bucket_pairs(group: pd.DataFrame) -> pa.Table:
        sh = group["shingle"].to_numpy()
        d = group["doc_id"].to_numpy()
        order = np.lexsort((d, sh))
        sh, d = sh[order], d[order]
        _, counts = np.unique(sh, return_counts=True)
        emit = None if max_bucket is None else (counts <= max_bucket)
        i, j = _group_pairs(counts, emit)
        return pa.table(
            {"doc_a": pa.array(d[i], pa.int64()), "doc_b": pa.array(d[j], pa.int64())}
        )

    pairs = rows.groupby("bucket").map_groups(bucket_pairs, batch_format="pandas")
    from ray.data.aggregate import Count

    return pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="n_shared"))


def near_dup_jaccard(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    threshold: float = 0.8,
    max_bucket: int | None = None,
):
    """Exact n-gram Jaccard near-dup: complete shingle-bucket candidates →
    exact verification. With ``max_bucket=None`` (default) this is
    deterministically equal to the all-pairs oracle (``ngram_jaccard_sql``)
    at any threshold > 0; at scale pass ``max_bucket`` (e.g. 256) to skip
    pathological boilerplate shingles whose O(|bucket|²) pair fan-out would
    otherwise pin one reducer — pairs above a high threshold share many
    shingles, so dropping a few hot buckets rarely loses true pairs."""
    cands = jaccard_candidates_exact(
        ds, id_col=id_col, text_col=text_col, shingle_n=shingle_n,
        max_bucket=max_bucket,
    )
    return jaccard_verify_pairs(
        cands, ds, id_col=id_col, text_col=text_col, shingle_n=shingle_n,
        threshold=threshold,
    )


def ngram_jaccard_sql(
    table: str = "documents",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    threshold: float = 0.8,
) -> str:
    """Oracle: exact all-pairs word-n-gram Jaccard (O(n²) — oracle scale
    only). Shingles as strings; matches `_shingle_hashes` up to the hash."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
WITH toks AS (
  SELECT {id_col} AS doc_id, {tok} AS ts FROM {table}
),
sh AS (
  SELECT doc_id,
         CASE WHEN len(ts) = 0 THEN []
              WHEN len(ts) < {shingle_n} THEN [array_to_string(ts, ' ')]
              ELSE list_distinct([array_to_string(ts[i : i + {shingle_n} - 1], ' ')
                                 for i in range(1, len(ts) - {shingle_n} + 2)])
         END AS shingles
  FROM toks
),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.shingles, b.shingles)) AS inter,
         len(a.shingles) + len(b.shingles) - len(list_intersect(a.shingles, b.shingles)) AS un
  FROM sh a JOIN sh b ON a.doc_id < b.doc_id
  WHERE len(a.shingles) > 0 OR len(b.shingles) > 0
)
SELECT doc_a, doc_b, round(inter * 1.0 / un, 6) AS jaccard
FROM pairs WHERE un > 0 AND inter * 1.0 / un >= {threshold}
ORDER BY doc_a, doc_b
""".strip()


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_batch(batch: pa.Table, *, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """64-bit SimHash over md5-64 token hashes weighted by tf (vectorized
    bit-count accumulation). md5 (not crc32) so the DuckDB oracle
    reproduces the exact hash values (``simhash_sql``); the per-distinct-
    token Python md5 loop is vocabulary-bounded per batch, the same bound
    as ops/sketch.py."""
    from .sketch import _md5_64

    text = analyzer.normalize_text(batch[text_col])
    rows, codes, dictionary = analyzer.tokenize_flat(text)
    n = batch.num_rows
    ids = batch[id_col].combine_chunks().cast(pa.int64())
    vocab_hashes = _md5_64(dictionary.to_pylist())
    r, c, tf = analyzer.term_frequencies(rows, codes)
    sums = np.zeros((n, 64), dtype=np.int64)
    if c.size:
        h = vocab_hashes[c]
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        contrib = (2 * bits - 1) * tf[:, None]
        np.add.at(sums, r, contrib)
    out = (sums > 0).astype(np.uint64)
    sim = np.zeros(n, dtype=np.uint64)
    for bit in range(64):
        sim |= out[:, bit] << np.uint64(bit)
    return pa.table(
        {
            "doc_id": ids,
            "simhash": pa.array(sim.view(np.int64), pa.int64()),
        }
    )


def simhash(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    return ds.map_batches(
        lambda t: simhash_batch(t, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _simhash_cte(table: str, id_col: str, text_col: str) -> str:
    """Shared CTE chain computing the exact engine SimHash in SQL: md5-64
    token hashes, tf-weighted ±1 bit votes, sign threshold, 64-bit value
    assembled as HUGEINT and wrapped to the signed BIGINT the engine
    emits."""
    tok = analyzer.sql_tokenize_expr(text_col)
    return f"""
toks AS (SELECT {id_col} AS doc_id, {tok} AS ts FROM {table}),
flat AS (SELECT doc_id, unnest(ts) AS term FROM toks),
tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM flat GROUP BY 1, 2),
th AS (
  SELECT term, CAST(('0x' || substr(md5(term), 1, 16)) AS UBIGINT) AS h
  FROM (SELECT DISTINCT term FROM flat)
),
votes AS (
  SELECT tf.doc_id, t.i,
         sum(tf.tf * (2 * CAST((th.h >> CAST(t.i AS UBIGINT)) & 1 AS BIGINT) - 1)) AS s
  FROM tf JOIN th USING (term) CROSS JOIN range(64) t(i)
  GROUP BY tf.doc_id, t.i
),
raw AS (
  SELECT doc_id,
         sum(CASE WHEN s > 0 THEN CAST(1 AS HUGEINT) << CAST(i AS INTEGER)
                  ELSE CAST(0 AS HUGEINT) END) AS v
  FROM votes GROUP BY doc_id
),
sim AS (
  SELECT t.doc_id,
         CAST(CASE WHEN r.v IS NULL THEN 0
                   WHEN r.v >= CAST(9223372036854775808 AS HUGEINT)
                   THEN r.v - CAST(18446744073709551616 AS HUGEINT)
                   ELSE r.v END AS BIGINT) AS simhash
  FROM (SELECT DISTINCT doc_id FROM toks) t LEFT JOIN raw r USING (doc_id)
)"""


def simhash_sql(table: str = "documents", *, id_col: str = "doc_id", text_col: str = "text") -> str:
    return (
        "WITH " + _simhash_cte(table, id_col, text_col)
        + "\nSELECT doc_id, simhash FROM sim ORDER BY doc_id"
    )


def simhash_neardup_sql(
    table: str = "documents",
    *,
    max_hamming: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """Exact all-pairs Hamming filter over the same SimHash values (the
    engine's 16-bit-chunk blocking is recall-complete for distance ≤ 3,
    so the candidate union equals the all-pairs answer)."""
    return (
        "WITH " + _simhash_cte(table, id_col, text_col)
        + f"""
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sim a JOIN sim b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {max_hamming}
ORDER BY doc_a, doc_b"""
    )


def simhash_near_dups(
    ds,
    *,
    max_hamming: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    pairing: str = "all",
    max_bucket: int | None = None,
):
    """Near-dup pairs by SimHash Hamming distance. Scale path: block on
    4 × 16-bit simhash chunks (any pair within distance 3 shares ≥1 chunk),
    groupby chunk, pairwise-verify within buckets.

    The within-bucket verify is all-pairs (``np.triu_indices`` — O(n²) per
    bucket); on duplicate-heavy corpora chunk buckets grow with the corpus,
    so for connected-components dedup pass ``pairing="star"`` ((bucket-min,
    member) verification — linear per bucket, same components) and/or
    ``max_bucket`` to skip buckets above the cap (see
    ``minhash_lsh_candidates`` for the rationale)."""
    sims = simhash(ds, id_col=id_col, text_col=text_col)

    def to_chunks(batch: pa.Table) -> pa.Table:
        h = np.asarray(batch["simhash"].combine_chunks()).view(np.uint64)
        ids = np.asarray(batch["doc_id"].combine_chunks())
        parts = []
        for k in range(4):
            chunk = ((h >> np.uint64(16 * k)) & np.uint64(0xFFFF)).astype(np.int64)
            parts.append(
                pa.table(
                    {
                        "chunk_id": pa.array(np.full(ids.size, k, np.int32)),
                        "chunk_val": pa.array(chunk, pa.int64()),
                        "doc_id": pa.array(ids, pa.int64()),
                        "simhash": pa.array(h.view(np.int64), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    chunked = sims.map_batches(to_chunks, batch_format="pyarrow")

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        hs = g["simhash"].to_numpy().view(np.uint64)
        if ids.size < 2 or (max_bucket is not None and ids.size > max_bucket):
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64), "doc_b": pd.Series([], dtype=np.int64), "hamming": pd.Series([], dtype=np.int64)})
        if pairing == "star":
            ai = np.zeros(ids.size - 1, dtype=np.int64)
            bi = np.arange(1, ids.size, dtype=np.int64)
        else:
            ai, bi = np.triu_indices(ids.size, k=1)
        x = hs[ai] ^ hs[bi]
        # vectorized popcount: 8 bytes per uint64 → unpack to bits and sum
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)
        keep = ham <= max_hamming
        return pd.DataFrame({"doc_a": ids[ai][keep], "doc_b": ids[bi][keep], "hamming": ham[keep]})

    pairs = chunked.groupby(["chunk_id", "chunk_val"]).map_groups(
        bucket_pairs, batch_format="pandas"
    )
    from ray.data.aggregate import Min

    return pairs.groupby(["doc_a", "doc_b"]).aggregate(Min("hamming", alias_name="hamming"))


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def _ids_and_normed(t: pa.Table, id_col: str, vec_col: str) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(t[id_col].combine_chunks().cast(pa.int64()))
    vecs = np.stack(t[vec_col].to_pandas().to_numpy()).astype(np.float64)
    n = np.linalg.norm(vecs, axis=1)
    n[n == 0] = 1.0
    return ids, vecs / n[:, None]


def embedding_near_dups(
    ds,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    round_digits: int = 4,
):
    """Exact near-dup pairs by embedding cosine ≥ threshold, as a distributed
    block-pair cross product: the dataset's Arrow blocks stay in the object
    store (``to_arrow_refs`` ships references, never rows, to the driver) and
    one Ray task per (block_i, block_j) pair with i ≤ j does a single float64
    matmul. Exact all-pairs semantics with O(B²) bounded tasks, no full-table
    ``to_pandas()`` and no whole-matrix broadcast; peak task memory is two
    blocks. The sub-quadratic approximate path is
    ``embedding_near_dups_lsh`` (hyperplane-bucketed).

    The threshold is applied to the cosine ROUNDED to ``round_digits`` on
    both engine and oracle side, so sub-ulp disagreement with DuckDB's
    ``list_cosine_similarity`` cannot flip boundary pairs.
    """
    import ray
    import ray.data as rd

    blocks = ds.map_batches(
        lambda t: t.select([id_col, vec_col]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    refs = blocks.materialize().to_arrow_refs()

    @ray.remote
    def block_pair(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ia, va = _ids_and_normed(ta, id_col, vec_col)
        ib, vb = _ids_and_normed(tb, id_col, vec_col)
        sims = np.round(va @ vb.T, round_digits)
        ai, bj = np.nonzero(sims >= threshold)
        da, db_ = ia[ai], ib[bj]
        if same:
            keep = da < db_  # each unordered pair appears twice in the self-product
            lo, hi, cs = da[keep], db_[keep], sims[ai, bj][keep]
        else:
            keep = da != db_  # cross-block: each pair appears once; canonicalize order
            da, db_, cs = da[keep], db_[keep], sims[ai, bj][keep]
            lo, hi = np.minimum(da, db_), np.maximum(da, db_)
        return pa.table(
            {
                "doc_a": pa.array(lo, pa.int64()),
                "doc_b": pa.array(hi, pa.int64()),
                "cosine": pa.array(cs, pa.float64()),
            }
        )

    futures = [
        block_pair.remote(refs[i], refs[j], i == j)
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]
    return rd.from_arrow_refs(futures)


def embedding_near_dups_lsh(
    ds,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    n_planes: int = 8,
    n_tables: int = 6,
    seed: int = 11,
    round_digits: int = 4,
    pairing: str = "all",
    max_bucket: int | None = None,
):
    """Approximate near-dup pairs via random-hyperplane LSH — the 100 TB
    path. Each vector hashes to ``n_tables`` sign-pattern buckets
    (``n_planes`` hyperplanes per table); only pairs sharing ≥1 bucket are
    verified with an exact cosine, so nothing quadratic in the corpus ever
    runs. Shuffles only (table, bucket, doc_id, vec-bytes) rows. Recall vs
    the exact ``embedding_near_dups`` is probabilistic
    (1 - (1 - p^planes)^tables, p = 1 - angle/pi); measured in tests.

    Within-bucket verification is all-pairs (n² dot products per bucket);
    identical-vector buckets grow with the corpus, so for components-feeding
    dedup pass ``pairing="star"`` ((bucket-min, member) cosines — linear)
    and/or ``max_bucket`` (see ``minhash_lsh_candidates``)."""
    probe = ds.take(1)
    dim = len(probe[0][vec_col])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_planes, dim))

    def to_buckets(t: pa.Table) -> pa.Table:
        ids, vecs = _ids_and_normed(t, id_col, vec_col)
        out = []
        for ti in range(n_tables):
            bits = (vecs @ planes[ti].T) > 0  # (n, planes)
            buckets = (bits.astype(np.int64) << np.arange(n_planes)).sum(axis=1)
            out.append(
                pa.table(
                    {
                        "table_id": pa.array(np.full(ids.size, ti, np.int32)),
                        "bucket": pa.array(buckets, pa.int64()),
                        "doc_id": pa.array(ids, pa.int64()),
                        "vec": pa.array(
                            [v.astype("<f8").tobytes() for v in vecs], pa.binary()
                        ),
                    }
                )
            )
        return pa.concat_tables(out)

    rows = ds.map_batches(to_buckets, batch_format="pyarrow", zero_copy_batch=True)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        if ids.size < 2 or (max_bucket is not None and ids.size > max_bucket):
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype=np.int64),
                 "doc_b": pd.Series([], dtype=np.int64),
                 "cosine": pd.Series([], dtype=np.float64)}
            )
        mat = np.stack([np.frombuffer(b, dtype="<f8") for b in g["vec"]])
        if pairing == "star":
            sims_v = np.round(mat[1:] @ mat[0], round_digits)
            ai = np.zeros(ids.size - 1, dtype=np.int64)
            bi = np.arange(1, ids.size, dtype=np.int64)
            keep = sims_v >= threshold
            return pd.DataFrame(
                {"doc_a": ids[ai][keep], "doc_b": ids[bi][keep], "cosine": sims_v[keep]}
            )
        sims = np.round(mat @ mat.T, round_digits)
        ai, bi = np.triu_indices(ids.size, k=1)
        keep = sims[ai, bi] >= threshold
        return pd.DataFrame(
            {"doc_a": ids[ai][keep], "doc_b": ids[bi][keep], "cosine": sims[ai, bi][keep]}
        )

    pairs = rows.groupby(["table_id", "bucket"]).map_groups(bucket_pairs, batch_format="pandas")
    from ray.data.aggregate import Min

    # dedupe pairs that collide in multiple tables
    return pairs.groupby(["doc_a", "doc_b"]).aggregate(Min("cosine", alias_name="cosine"))


def embedding_near_dups_sql(
    table: str = "embeddings",
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    round_digits: int = 4,
) -> str:
    # CAST to DOUBLE[]: list_cosine_similarity over list<float> computes and
    # returns float32, which can never byte-match the engine's float64 path.
    cos = (
        f"list_cosine_similarity(CAST(a.{vec_col} AS DOUBLE[]), "
        f"CAST(b.{vec_col} AS DOUBLE[]))"
    )
    return f"""
SELECT a.{id_col} AS doc_a, b.{id_col} AS doc_b,
       round({cos}, {round_digits}) AS cosine
FROM {table} a JOIN {table} b ON a.{id_col} < b.{id_col}
WHERE round({cos}, {round_digits}) >= {threshold}
ORDER BY doc_a, doc_b
""".strip()


def _group_cross_pairs(
    n0: np.ndarray, n1: np.ndarray, emit: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form vectorized CROSS-product decode: the stream holds G
    groups laid out [side0-block, side1-block] each; returns (i, j) local
    indices pairing every side-0 member with every side-1 member of its
    group — n0·n1 rows per group, no Python per-group call (the
    ``_group_pairs`` discipline for two-sided buckets). ``emit`` masks
    groups whose pairs are suppressed (hot-bucket cap) — it zeroes only the
    per-group PAIR count; the layout offsets are always computed from the
    unmasked n0+n1, because the masked group's rows still occupy the sorted
    stream."""
    tot = (n0 * n1).astype(np.int64)
    if emit is not None:
        tot = np.where(emit, tot, 0)
    total = int(tot.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    off = np.concatenate(([0], np.cumsum(n0 + n1)[:-1]))
    gid = np.repeat(np.arange(n0.size, dtype=np.int64), tot)
    p = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(tot)[:-1])), tot
    )
    i = off[gid] + p // n1[gid]
    j = off[gid] + n0[gid] + p % n1[gid]
    return i, j


def jaccard_candidates_cross(
    corpus_ds,
    delta_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    max_bucket: int | None = None,
    n_partitions: int = 64,
):
    """Cross-corpus candidate generation for INCREMENTAL dedup: only
    (corpus, delta) pairs sharing ≥1 shingle are emitted — never
    corpus×corpus or delta×delta — so re-screening a small delta against
    a huge indexed corpus costs O(delta shingles + touched buckets), not
    a corpus re-pass (the reference's upsert-against-current-DatasetVersion
    shape, core/models/datatypes/dataset.py:124-180). Id spaces must be
    disjoint (documented contract). Returns (doc_a=corpus, doc_b=delta,
    n_shared) as a Dataset."""

    def rows_for(side: int):
        def to_rows(batch: pa.Table) -> pa.Table:
            text = analyzer.normalize_text(batch[text_col])
            ids = np.asarray(batch[id_col].combine_chunks().cast(pa.int64()))
            sh_doc, sh_h = _dedup_doc_shingles(*_batch_shingles(text, shingle_n))
            return pa.table({
                "shingle": pa.array(sh_h.view(np.int64), pa.int64()),
                "doc_id": pa.array(
                    ids[sh_doc] if sh_doc.size else np.empty(0, np.int64), pa.int64()
                ),
                "side": pa.array(
                    np.full(sh_doc.size, side, np.int8), pa.int8()
                ),
                "bucket": pa.array((sh_h % np.uint64(n_partitions)).astype(np.int32)),
            })

        return to_rows

    rows = corpus_ds.map_batches(
        rows_for(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        delta_ds.map_batches(rows_for(1), batch_format="pyarrow", zero_copy_batch=True)
    )

    def bucket_pairs(group: pd.DataFrame) -> pa.Table:
        sh = group["shingle"].to_numpy()
        side = group["side"].to_numpy()
        d = group["doc_id"].to_numpy()
        order = np.lexsort((d, side, sh))
        sh, side, d = sh[order], side[order], d[order]
        uniq, starts = np.unique(sh, return_index=True)
        ends = np.append(starts[1:], sh.size)
        n_all = ends - starts
        # side-0 count per group via one prefix sum (no per-group Python)
        cs = np.concatenate(([0], np.cumsum((side == 0).astype(np.int64))))
        n0 = cs[ends] - cs[starts]
        n1 = n_all - n0
        emit = n_all <= max_bucket if max_bucket is not None else None
        i, j = _group_cross_pairs(n0, n1, emit)
        return pa.table({
            "doc_a": pa.array(d[i], pa.int64()),
            "doc_b": pa.array(d[j], pa.int64()),
        })

    pairs = rows.groupby("bucket").map_groups(bucket_pairs, batch_format="pandas")
    from ray.data.aggregate import Count

    return pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="n_shared"))


def _top_m_per_key(cands, m: int, *, score_col: str = "n_shared", n_buckets: int = 64):
    """Keep the ``m`` strongest candidates per delta doc: rank within
    ``doc_b`` by (score desc, doc_a asc). Bucketed on ``doc_b % B`` so
    every delta doc's candidates fold in one vectorized pass — no per-key
    Ray group."""

    def add_bucket(t: pa.Table) -> pa.Table:
        b = np.asarray(t["doc_b"].combine_chunks()) % n_buckets
        return t.append_column("bucket", pa.array(b.astype(np.int32)))

    def best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["doc_b", score_col, "doc_a"], ascending=[True, False, True],
            kind="mergesort",
        )
        b = g["doc_b"].to_numpy(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
        rank = np.arange(b.size, dtype=np.int64) - np.repeat(
            starts, np.diff(np.append(starts, b.size))
        )
        return g.loc[rank < m, ["doc_a", "doc_b", score_col]]

    return (
        cands.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .map_groups(best, batch_format="pandas")
    )


def minhash_candidates_cross(
    corpus_ds,
    delta_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    n_partitions: int = 64,
    max_bucket: int | None = None,
):
    """Cross-corpus MinHash-LSH candidates: (corpus, delta) pairs whose
    signatures collide in ≥1 band — never corpus×corpus or delta×delta.

    This is the admission-scale candidate generator for duplicate-heavy /
    templated corpora, where exact shared-shingle candidates fail BOTH
    ways: uncapped they are quadratic (every delta doc pairs with every
    template sibling), and hot-bucket-capped they lose exact twins whose
    every shingle is template-hot (measured: 602 of 5,941 re-ingested
    twins found at max_bucket=256 on the 600k-turn soak corpus). A band
    key is a pure function of the doc's OWN signature, so a twin collides
    on all ``bands`` bands regardless of shingle popularity, while
    sub-threshold siblings collide per band with probability jaccard^r.
    Returns (doc_a=corpus, doc_b=delta, n_bands)."""
    rows_per_band = _rows_per_band(num_perm, bands)
    a, b = _minhash_params(num_perm)
    band_salt = np.arange(bands, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

    def bands_for(side: int):
        def to_bands(batch: pa.Table) -> pa.Table:
            text = analyzer.normalize_text(batch[text_col])
            ids = np.asarray(batch[id_col].combine_chunks().cast(pa.int64()))
            sh_doc, sh_h = _batch_shingles(text, shingle_n)
            sigs = _batch_signatures(sh_doc, sh_h, len(text), a, b)
            has = np.zeros(len(text), dtype=bool)  # drop shingle-less docs
            if sh_doc.size:
                has[np.unique(sh_doc)] = True
            bids, sigs = ids[has], sigs[has]
            s3 = sigs.reshape(bids.size, bands, rows_per_band)
            h = np.full((bids.size, bands), _FNV_OFF, dtype=np.uint64)
            for k in range(rows_per_band):
                h = (h ^ s3[:, :, k]) * _H64_MUL
            h ^= band_salt[None, :]
            flat = h.ravel()
            return pa.table({
                "bkey": pa.array(flat.view(np.int64), pa.int64()),
                "doc_id": pa.array(np.repeat(bids, bands), pa.int64()),
                "side": pa.array(
                    np.full(bids.size * bands, side, np.int8), pa.int8()
                ),
                "bucket": pa.array(
                    (flat % np.uint64(n_partitions)).astype(np.int32)
                ),
            })

        return to_bands

    banded = corpus_ds.map_batches(
        bands_for(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        delta_ds.map_batches(bands_for(1), batch_format="pyarrow", zero_copy_batch=True)
    )

    def bucket_pairs(group: pd.DataFrame) -> pa.Table:
        k = group["bkey"].to_numpy()
        side = group["side"].to_numpy()
        d = group["doc_id"].to_numpy()
        order = np.lexsort((d, side, k))
        k, side, d = k[order], side[order], d[order]
        _, starts = np.unique(k, return_index=True)
        ends = np.append(starts[1:], k.size)
        n_all = ends - starts
        cs = np.concatenate(([0], np.cumsum((side == 0).astype(np.int64))))
        n0 = cs[ends] - cs[starts]
        n1 = n_all - n0
        emit = n_all <= max_bucket if max_bucket is not None else None
        i, j = _group_cross_pairs(n0, n1, emit)
        return pa.table({
            "doc_a": pa.array(d[i], pa.int64()),
            "doc_b": pa.array(d[j], pa.int64()),
        })

    pairs = banded.groupby("bucket").map_groups(bucket_pairs, batch_format="pandas")
    from ray.data.aggregate import Count

    return pairs.groupby(["doc_a", "doc_b"]).aggregate(Count(alias_name="n_bands"))


def near_dup_incremental(
    corpus_ds,
    delta_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    threshold: float = 0.5,
    max_bucket: int | None = None,
    top_m_per_delta: int | None = None,
    method: str = "exact",
    num_perm: int = 64,
    bands: int = 16,
):
    """Incremental exact near-dup: which DELTA docs near-duplicate an
    EXISTING corpus doc (the ingest-time admission check). Cross-only
    shingle-bucket candidates → the shared distributed Jaccard verify over
    the unioned corpus. Returns (doc_a=corpus, doc_b=delta, jaccard ≥
    threshold).

    ``top_m_per_delta`` is the ADMISSION regime for duplicate-heavy
    corpora: verify only the M corpus docs sharing the most shingles with
    each delta doc. On a corpus where a delta doc has thousands of exact
    template siblings, the full pair set is delta x sibling-count
    (measured 17.3M pairs from a 4.7k delta at 600k turns — the verify
    exchange at 64x would re-enter the r3 blob livelock regime); the
    admission question "does doc_b near-duplicate ANYTHING, and what is
    its best match" is answered exactly whenever a true near-dup ranks in
    the top M by shared-shingle count, which holds with huge margin since
    near-dups share ~all shingles. Full exact semantics (the driver gate)
    = None.

    ``method="minhash"`` swaps the exact shared-shingle candidates for
    cross-only LSH band collisions (``minhash_candidates_cross``) — the
    scale regime for duplicate-heavy corpora where the exact generator is
    quadratic uncapped and twin-blind capped (see that docstring). The
    verify stays exact either way; minhash only bounds candidate RECALL
    (a true pair is missed iff it collides in no band: prob
    (1−j^r)^bands)."""
    if method == "minhash":
        cands = minhash_candidates_cross(
            corpus_ds, delta_ds, id_col=id_col, text_col=text_col,
            shingle_n=shingle_n, num_perm=num_perm, bands=bands,
            max_bucket=max_bucket,
        )
    elif method == "exact":
        cands = jaccard_candidates_cross(
            corpus_ds, delta_ds, id_col=id_col, text_col=text_col,
            shingle_n=shingle_n, max_bucket=max_bucket,
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    if top_m_per_delta is not None:
        cands = _top_m_per_key(
            cands, top_m_per_delta,
            score_col="n_bands" if method == "minhash" else "n_shared",
        )
    return jaccard_verify_pairs(
        cands, corpus_ds.union(delta_ds), id_col=id_col, text_col=text_col,
        shingle_n=shingle_n, threshold=threshold, referenced_only=True,
    )


def ngram_jaccard_cross_sql(
    corpus_table: str = "corpus_side",
    delta_table: str = "delta_side",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_n: int = 3,
    threshold: float = 0.5,
) -> str:
    """Oracle for near_dup_incremental: exact cross-corpus word-n-gram
    Jaccard (oracle scale only)."""
    tok = analyzer.sql_tokenize_expr(text_col)
    shingle = f"""
         CASE WHEN len(ts) = 0 THEN []
              WHEN len(ts) < {shingle_n} THEN [array_to_string(ts, ' ')]
              ELSE list_distinct([array_to_string(ts[i : i + {shingle_n} - 1], ' ')
                                 for i in range(1, len(ts) - {shingle_n} + 2)])
         END"""
    return f"""
WITH ca AS (SELECT {id_col} AS doc_id, {tok} AS ts FROM {corpus_table}),
cb AS (SELECT {id_col} AS doc_id, {tok} AS ts FROM {delta_table}),
sa AS (SELECT doc_id, {shingle} AS shingles FROM ca),
sb AS (SELECT doc_id, {shingle} AS shingles FROM cb),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.shingles, b.shingles)) AS inter,
         len(a.shingles) + len(b.shingles) - len(list_intersect(a.shingles, b.shingles)) AS un
  FROM sa a CROSS JOIN sb b
)
SELECT doc_a, doc_b, round(inter * 1.0 / un, 6) AS jaccard
FROM pairs WHERE un > 0 AND inter * 1.0 / un >= {threshold}
ORDER BY doc_a, doc_b
""".strip()
