"""Incremental index builds: delta upserts + tombstones, exact global stats.

The reference's incremental machinery re-expressed: a delta harvest carries
documents forward and soft-deletes/resurrects by identity
(harvester/core/models/harvest.py:56-84), hash-diff change detection bumps
``modified_at`` (harvester/core/models/datatypes/document.py:131-139), and
the 30-second incremental sync pushes only docs modified since ``pushed_at``
with ``_op_type: delete`` tombstones (harvester/search/tasks/index.py:22-51).

Here an incremental build creates a NEW immutable version that:

- **carries forward** every previous segment untouched (manifest pointers —
  the DatasetVersion copy-forward analog; no data is rewritten),
- **builds new segments** from the delta's active rows only,
- **tombstones** every delta doc id (deleted AND modified: a modified doc's
  old posting occurrences must stop matching) as ``(doc_id, version)``
  pairs; query-time filtering drops a doc from segments created before its
  tombstone version, so re-added docs in newer segments still match,
- keeps global BM25 stats **exact** (not Lucene-style stale): for each
  carried segment that contains newly tombstoned live docs, the builder
  decodes it once and emits NEGATIVE (term, -df, -cf) correction partials;
  the build's phase-2 fold (``build.fold_term_stats``) then sums the
  parent's bucket files + new-segment partials + corrections. This is what
  makes "incremental + delta ≡ full rebuild of the merged corpus" hold
  rank-identically (tested).

Cost model at scale: new-segment build ∝ delta size; corrections ∝ postings
of affected carried segments only; term-stats combine ∝ vocabulary. Nothing
touches unaffected segments.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import build
from . import manifest as mf
from .build import NUM_TERM_BUCKETS, PARTIAL_SCHEMA, term_buckets


def _active_rows(batch: pa.Table, state_col: str) -> pa.Table:
    """The delta rows that become new segments (``state == "active"``)."""
    return batch.filter(pc.equal(batch[state_col], "active"))


def _correction_partials(
    seg_path: str, tomb_ids: np.ndarray, num_buckets: int, seg_name: str
) -> tuple[pa.Table, int, int]:
    """Emit negative (term, df, cf) partials for the postings of one carried
    segment that belong to ``tomb_ids``. Returns (partials, n_docs_removed,
    dl_removed).

    Postings are term-major in the segment's ``.bin`` (whole doc-gap stream,
    then whole tf stream; varbyte is self-delimiting), so the ENTIRE segment
    decodes in two vectorized varbyte passes; per-term doc ids come from one
    segmented cumsum over the per-term ``df`` boundaries and the corrections
    from two ``np.add.reduceat`` calls — no per-term Python loop."""
    from . import codec

    docs = pq.read_table(seg_path + ".docs.parquet", columns=["doc_id", "dl"])
    seg_doc_ids = np.asarray(docs["doc_id"].combine_chunks(), dtype=np.int64)
    present = np.intersect1d(seg_doc_ids, tomb_ids)
    if present.size == 0:
        return PARTIAL_SCHEMA.empty_table(), 0, 0
    terms = pq.read_table(
        seg_path + ".terms.parquet",
        columns=["term", "df", "doc_off", "doc_nbytes", "tf_off", "tf_nbytes"],
    )
    df = np.asarray(terms["df"].combine_chunks(), dtype=np.int64)
    dl_removed = int(
        np.asarray(docs["dl"].combine_chunks(), dtype=np.int64)[
            np.searchsorted(seg_doc_ids, present)
        ].sum()
    )
    if df.size == 0:
        return PARTIAL_SCHEMA.empty_table(), int(present.size), dl_removed
    doc_off = np.asarray(terms["doc_off"].combine_chunks(), dtype=np.int64)
    doc_nb = np.asarray(terms["doc_nbytes"].combine_chunks(), dtype=np.int64)
    tf_off = np.asarray(terms["tf_off"].combine_chunks(), dtype=np.int64)
    tf_nb = np.asarray(terms["tf_nbytes"].combine_chunks(), dtype=np.int64)
    bin_ = np.memmap(seg_path + ".bin", dtype=np.uint8, mode="r")
    # terms.parquet is sorted by TERM; byte offsets follow the encoder's
    # stream order — recover it so the decoded value stream can be segmented
    order = np.argsort(doc_off, kind="stable")
    df_s = df[order]
    d0 = int(doc_off.min())
    t0 = int(tf_off.min())
    gaps = codec.varbyte_decode(bin_[d0 : d0 + int(doc_nb.sum())]).astype(np.int64)
    tfs = codec.varbyte_decode(bin_[t0 : t0 + int(tf_nb.sum())]).astype(np.int64)
    offs = np.concatenate([np.zeros(1, np.int64), np.cumsum(df_s)])
    run = np.cumsum(gaps)
    base = np.zeros(df_s.size, dtype=np.int64)
    base[1:] = run[offs[1:-1] - 1]
    doc_ids = run - np.repeat(base, df_s)
    idx = np.clip(np.searchsorted(present, doc_ids), 0, present.size - 1)
    hit = present[idx] == doc_ids
    df_corr = np.add.reduceat(hit.astype(np.int64), offs[:-1])
    cf_corr = np.add.reduceat(np.where(hit, tfs, 0), offs[:-1])
    nz_s = np.flatnonzero(df_corr)
    if nz_s.size == 0:
        return PARTIAL_SCHEMA.empty_table(), int(present.size), dl_removed
    out_terms = terms["term"].combine_chunks().take(pa.array(order[nz_s]))
    nz = nz_s
    tbl = pa.table(
        {
            "term": out_terms,
            "df": pa.array(-df_corr[nz], pa.int64()),
            "cf": pa.array(-cf_corr[nz], pa.int64()),
            "seg": pa.nulls(nz.size, pa.string()),
            "bucket": pa.array(term_buckets(out_terms, num_buckets), pa.int32()),
        },
        schema=PARTIAL_SCHEMA,
    )
    return tbl, int(present.size), dl_removed


def ingest_document(
    index_root: str,
    doc: dict,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    **kwargs,
) -> dict:
    """Webhook single-record ingestion (reference
    core/views/webhook.py-style upsert): one document rides the same
    incremental delta path — a 1-row delta with ``state`` derived from the
    presence of text (empty/None → delete). The set-integrity guard is
    skipped: a single-doc upsert can never be the reference's bad-harvest
    wipe scenario."""
    import ray.data as rd

    state = doc.get("state") or ("active" if doc.get(text_col) else "deleted")
    row = {id_col: doc[id_col], text_col: doc.get(text_col) or "", "state": state}
    for k, v in doc.items():  # attr columns ride along (update API merge)
        if k not in row:
            row[k] = v
    kwargs.setdefault("integrity_check", False)
    kwargs.setdefault("concurrency", 2)
    return build_incremental(
        index_root, rd.from_items([row]), id_col=id_col, text_col=text_col,
        input_desc=f"webhook:{doc[id_col]}", **kwargs,
    )


def update_document(
    index_root: str,
    doc_id: int,
    fields: dict,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    **kwargs,
) -> dict:
    """ES ``_update`` API (partial document merge): read the stored doc,
    merge ``fields`` over its text and attribute columns, re-ingest through
    the single-record delta path (tombstone + 1-row segment — newest wins).
    Like ES, a text-less partial update needs the stored source
    (``build_index(store_source=True)``); raises KeyError on a missing or
    deleted id (document_missing_exception)."""
    from . import manifest as _mf
    from . import readback

    cur = readback.get_document(index_root, doc_id)
    if cur is None:
        raise KeyError(f"document {doc_id} not found")
    text = fields.get(text_col, cur.get("_source"))
    if text is None:
        raise ValueError(
            "partial update without a text field needs store_source=True"
        )
    man = _mf.read_manifest(index_root, None)
    row = {id_col: doc_id, text_col: text, "state": "active"}
    for c in man.get("attr_cols") or []:
        row[c] = fields.get(c, cur.get(c))
    return ingest_document(
        index_root, row, id_col=id_col, text_col=text_col, **kwargs
    )


def _build_incremental_impl(
    index_root: str,
    delta_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    state_col: str = "state",
    batch_size: int | None = None,
    concurrency: int | None = None,
    promote: bool = True,
    keep_versions: int = 3,
    input_desc: str = "",
    integrity_check: bool = True,
    integrity_min_docs: int = 50,
) -> dict:
    """Build version N+1 from the CURRENT version plus a delta Dataset with
    columns (id, text, state∈{active,deleted}). Returns the new manifest.

    Before promotion the set-integrity guard runs (the reference's
    ``check_set_integrity`` data-quality gate, core/tasks/harvest/set.py:
    99-126): if the parent version has ≥ ``integrity_min_docs`` live docs
    and the new version is empty, or shrank such that
    (parent - new) / new ≥ 5%, the new version is NOT promoted — the parent
    stays CURRENT (the "replace with historic" analog) and the decision is
    recorded in ``lineage.integrity``. A bad delta therefore cannot wipe the
    serving index. Pass ``integrity_check=False`` to force promotion."""
    import ray

    t0 = time.time()
    prev = mf.read_manifest(index_root)
    prev_version = prev["_version"]
    version = mf.next_version(index_root)
    num_buckets = int(prev.get("num_buckets") or NUM_TERM_BUCKETS)
    vdir = mf.version_dir(index_root, version)
    seg_dir = os.path.join(vdir, "segments")
    staging_dir = os.path.join(vdir, "staging", "partials")
    for d in (seg_dir, staging_dir):
        os.makedirs(d, exist_ok=True)

    if concurrency is None:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        concurrency = max(2, ncpu - 2)

    # ---- split delta: all ids tombstone the past; actives become segments
    delta_ids_tbl = delta_ds.select_columns([id_col, state_col]).to_pandas()
    new_tomb_ids = np.sort(delta_ids_tbl[id_col].to_numpy(dtype=np.int64))
    active = delta_ds.map_batches(
        _active_rows, fn_kwargs={"state_col": state_col},
        batch_format="pyarrow", zero_copy_batch=True,
    )

    # ---- phase 1: new segments from delta actives --------------------------
    t_p1 = time.time()
    meta_dir = os.path.join(vdir, "staging", "meta")
    shutil.rmtree(meta_dir, ignore_errors=True)
    attr_cols = list(prev.get("attr_cols") or [])
    build.write_segments(
        active.select_columns([id_col, text_col] + attr_cols), meta_dir,
        batch_size=batch_size,
        concurrency=concurrency,
        seg_dir=seg_dir,
        id_col=id_col,
        text_col=text_col,
        num_buckets=num_buckets,
        staging_dir=staging_dir,
        # delta segments inherit the parent's attribute layout so filtered
        # search keeps working on post-delta docs
        attr_cols=attr_cols,
        # delta segments inherit the parent's positional layout so a version
        # never mixes phrase-capable and phrase-less segments
        store_positions=bool(prev.get("positions", False)),
        # ... and its _source layout so reindex keeps working post-delta
        store_source=bool(prev.get("store_source", False)),
    )
    meta_tbl = build.read_segment_metas(meta_dir)
    live_segs = set(meta_tbl["seg"].to_pylist())
    build.remove_stray_segment_files(seg_dir, live_segs)
    t_corr = time.time()

    # ---- corrections for carried segments ---------------------------------
    # one Ray task per carried segment (the same fan-out compact() uses) —
    # a 64-segment index corrects in parallel instead of driver-serially
    prev_tombs = prev.get("tombstones", [])
    if prev_tombs:
        pt = np.asarray(prev_tombs, dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((pt[:, 1], pt[:, 0]))
        pt = pt[order]
        keep_last = np.ones(pt.shape[0], bool)
        keep_last[:-1] = pt[1:, 0] != pt[:-1, 0]
        tomb_doc_sorted, tomb_ver_latest = pt[keep_last, 0], pt[keep_last, 1]
    else:
        tomb_doc_sorted = np.empty(0, np.int64)
        tomb_ver_latest = np.empty(0, np.int64)
    # latest prior tombstone version per delta id (0 = never tombstoned)
    pos = np.clip(np.searchsorted(tomb_doc_sorted, new_tomb_ids), 0, max(tomb_doc_sorted.size - 1, 0))
    if tomb_doc_sorted.size:
        delta_prior_ver = np.where(
            tomb_doc_sorted[pos] == new_tomb_ids, tomb_ver_latest[pos], 0
        )
    else:
        delta_prior_ver = np.zeros(new_tomb_ids.size, np.int64)

    corr_task = ray.remote(num_cpus=1)(_correction_partials)
    futures = []
    carried = []
    for seg_meta in prev["segments"]:
        cv = seg_meta.get("created_version", prev_version)
        # only subtract docs still LIVE in this segment (not already
        # tombstoned for its creation version)
        live_new = new_tomb_ids[delta_prior_ver <= cv]
        seg_path = os.path.join(index_root, seg_meta["path"])
        futures.append(
            corr_task.remote(seg_path, live_new, num_buckets, seg_meta["name"])
        )
        carried.append(dict(seg_meta))

    corrections: list[pa.Table] = []
    n_removed = 0
    dl_removed = 0
    for tbl, nr, dlr in ray.get(futures):
        if tbl.num_rows:
            corrections.append(tbl)
        n_removed += nr
        dl_removed += dlr
    partial_files = build.live_partial_files(staging_dir, live_segs)
    if corrections:
        corr_path = os.path.join(vdir, "staging", "corrections.parquet")
        pq.write_table(pa.concat_tables(corrections), corr_path)
        partial_files.append(corr_path)
    t_ts = time.time()

    # ---- term stats: parent stats + new-segment partials + corrections ----
    build.fold_term_stats(
        vdir, partial_files, num_buckets=num_buckets,
        parent_dir=os.path.join(index_root, prev["termstats"]),
    )
    t_man = time.time()

    # ---- manifest ----------------------------------------------------------
    new_segs = [
        {
            "name": s,
            "path": f"v{version}/segments/{s}",
            "n_docs": int(nd),
            "dl_sum": int(dls),
            "created_version": version,
        }
        for s, nd, dls in zip(
            meta_tbl["seg"].to_pylist(), meta_tbl["df"].to_pylist(), meta_tbl["cf"].to_pylist()
        )
    ]

    n_added = sum(s["n_docs"] for s in new_segs)
    dl_added = sum(s["dl_sum"] for s in new_segs)
    n_docs = int(prev["n_docs"]) - n_removed + n_added
    dl_sum = int(prev["dl_sum"]) - dl_removed + dl_added
    tombstones = list(prev_tombs) + [[int(d), version] for d in new_tomb_ids]

    man = {
        "version": version,
        "analyzer": prev["analyzer"],
        "k1": prev["k1"],
        "b": prev["b"],
        "n_docs": n_docs,
        "dl_sum": dl_sum,
        "avgdl": (dl_sum / n_docs) if n_docs else 0.0,
        "num_buckets": num_buckets,
        "positions": bool(prev.get("positions", False)),
        "store_source": bool(prev.get("store_source", False)),
        "attr_cols": attr_cols,
        "segments": carried + new_segs,
        "termstats": f"v{version}/termstats",
        "tombstones": tombstones,
        "lineage": {
            "input": input_desc,
            "parent_version": prev_version,
            "delta_ids": int(new_tomb_ids.size),
            "delta_active_docs": n_added,
            "removed_docs": n_removed,
        },
        "metrics": {
            "phase1_sec": round(t_corr - t_p1, 3),
            "corrections_sec": round(t_ts - t_corr, 3),
            "termstats_sec": round(t_man - t_ts, 3),
            "build_sec": round(time.time() - t0, 3),
            "n_new_segments": len(new_segs),
            "n_carried_segments": len(carried),
        },
    }
    # ---- set-integrity guard (reference check_set_integrity semantics) ----
    parent_docs = int(prev["n_docs"])
    shrank = n_docs == 0 or (
        parent_docs > n_docs and (parent_docs - n_docs) / n_docs >= 0.05
    )
    replaced = bool(integrity_check and parent_docs >= integrity_min_docs and shrank)
    man["lineage"]["integrity"] = {
        "checked": bool(integrity_check),
        "parent_docs": parent_docs,
        "new_docs": int(n_docs),
        "is_replaced": replaced,
    }
    mf.write_manifest(index_root, version, man)
    if promote and not replaced:
        mf.promote(index_root, version)
        mf.purge_stale_versions(index_root, keep=keep_versions)
    return man


def build_incremental(index_root, delta_ds, **kwargs):
    """Public delta entry: single-writer per index root (manifest.build_lock)."""
    from . import manifest as _mf

    with _mf.build_lock(index_root):
        return _build_incremental_impl(index_root, delta_ds, **kwargs)
