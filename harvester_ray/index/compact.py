"""Segment compaction: merge small/tombstone-laden segments into fewer,
clean ones — the Lucene segment-merge analog.

After several incremental rounds (incremental.py) an index accumulates many
small segments plus tombstones that every query must filter. Compaction
creates a new version whose segments are merged at the *postings level* (no
re-tokenization): for each merge group, term posting lists are concatenated
across source segments with tombstoned docs dropped, re-sorted by doc id,
and re-encoded (delta-gap + varbyte + block metadata). Global term stats are
already exact w.r.t. tombstones (incremental corrections), so the term-stats
files carry over unchanged, and all tombstones at or below the new version
become droppable (no older segment remains for them to apply to).

Merging runs as parallel Ray tasks, one per merge group.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import codec
from . import manifest as mf
from .query import SegmentCache, SegmentReader, live_mask, parse_tombstones


def merge_segments(
    index_root: str,
    seg_metas: list[dict],
    tomb_ids: np.ndarray,
    tomb_vers: np.ndarray,
    out_dir: str,
) -> dict:
    """Merge a group of segments into one, dropping tombstoned docs.
    Returns the new segment's meta entry fields (name, n_docs, dl_sum)."""
    readers = []
    for m in seg_metas:
        # bulk decode only, so a zero-byte cache: it stores nothing
        reader = SegmentReader(os.path.join(index_root, m["path"]), SegmentCache(0))
        readers.append(
            (reader, live_mask(reader.doc_ids, tomb_ids, tomb_vers, m["created_version"]))
        )

    # merged doc table (tombstones dropped); stored-on-disk "_" columns
    # (e.g. _source) are carried through from the parquet without ever
    # entering serving memory structures
    doc_parts, dl_parts, attr_parts = [], [], {}
    attr_names = list(readers[0][0].attrs.keys()) if readers else []
    stored_names = list(readers[0][0].stored_cols) if readers else []
    for reader, live_docs in readers:
        keep = np.ones(reader.doc_ids.size, bool) if live_docs is None else live_docs
        doc_parts.append(reader.doc_ids[keep])
        dl_parts.append(reader.dl[keep])
        for a in attr_names:
            attr_parts.setdefault(a, []).append(reader.attrs[a].take(pa.array(np.flatnonzero(keep))))
        if stored_names:
            stbl = pq.read_table(reader.base + ".docs.parquet", columns=stored_names)
            sel = pa.array(np.flatnonzero(keep))
            for s in stored_names:
                attr_parts.setdefault(s, []).append(stbl[s].combine_chunks().take(sel))
    doc_ids = np.concatenate(doc_parts)
    dls = np.concatenate(dl_parts)
    order = np.argsort(doc_ids, kind="stable")
    doc_ids = doc_ids[order]
    dls = dls[order]

    # merged vocabulary: sorted union of the (already term-sorted) dictionaries
    all_terms = pa.concat_arrays([r._term_strings for r, _ in readers]).unique()
    merged_vocab = all_terms.take(pc.sort_indices(all_terms))
    vocab_np = merged_vocab.cast(pa.binary()).to_numpy(zero_copy_only=False)

    # whole-postings merge, one vectorized decode per source segment: each
    # segment's full stream → (global term code, doc, tf) triples, dead docs
    # masked; then one lexsort + one vectorized re-encode for the whole
    # merged segment (no per-term Python loop — see encode_postings_streams)
    # positions carry through a merge untouched (a doc's token ordinals don't
    # change when segments merge) — only when EVERY source segment has them
    carry_pos = bool(readers) and all(r.has_positions for r, _ in readers)
    code_parts, doc_parts2, tf_parts2, pos_parts = [], [], [], []
    for reader, live_docs in readers:
        term_rows, df_s, d, f = reader.all_postings()
        if d.size == 0:
            continue
        local_terms = (
            reader._term_strings.take(pa.array(term_rows))
            .cast(pa.binary())
            .to_numpy(zero_copy_only=False)
        )
        g_codes = np.searchsorted(vocab_np, local_terms)
        p_code = np.repeat(g_codes, df_s)
        pos = reader.all_positions(f) if carry_pos else None
        if live_docs is not None:
            # membership in the live ids is a table lookup over the
            # segment's id range: ~10x cheaper than ordinals + gather on
            # a whole segment's postings
            keep = np.isin(d, reader.doc_ids[live_docs])
            if pos is not None:
                pos = pos[np.repeat(keep, f)]
            p_code, d, f = p_code[keep], d[keep], f[keep]
        code_parts.append(p_code)
        doc_parts2.append(d)
        tf_parts2.append(f)
        if pos is not None:
            pos_parts.append(pos)
    positions = None
    if code_parts:
        p_code = np.concatenate(code_parts)
        p_doc = np.concatenate(doc_parts2)
        p_tf = np.concatenate(tf_parts2)
        order2 = np.lexsort((p_doc, p_code))
        if carry_pos:
            # segmented gather: output posting j's tokens come from the
            # contiguous source slice of input posting order2[j]
            from .build import _exclusive_cumsum

            pos_cat = np.concatenate(pos_parts)
            src_start = _exclusive_cumsum(p_tf.astype(np.int64))[:-1][order2]
            out_tf = p_tf[order2]
            out_start = _exclusive_cumsum(out_tf.astype(np.int64))[:-1]
            idx = np.repeat(src_start - out_start, out_tf) + np.arange(pos_cat.size)
            positions = pos_cat[idx]
        p_code, p_doc, p_tf = p_code[order2], p_doc[order2], p_tf[order2]
    else:
        p_code = p_doc = p_tf = np.empty(0, np.int64)

    from .build import encode_postings_streams

    doc_stream, tf_stream, terms_tbl, pos_stream = encode_postings_streams(
        p_code, p_doc, p_tf, merged_vocab, positions=positions
    )

    name = f"seg-{doc_ids[0]:012d}-{doc_ids[-1]:012d}" if doc_ids.size else "seg-empty"
    base = os.path.join(out_dir, name)
    docs_cols = {"doc_id": pa.array(doc_ids, pa.int64()), "dl": pa.array(dls, pa.int64())}
    for a in attr_names + stored_names:
        merged_attr = pa.concat_arrays([p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p for p in attr_parts[a]])
        docs_cols[a] = merged_attr.take(pa.array(order))
    pq.write_table(terms_tbl, base + ".terms.parquet.tmp")
    pq.write_table(pa.table(docs_cols), base + ".docs.parquet.tmp")
    with open(base + ".bin.tmp", "wb") as fh:
        fh.write(doc_stream)
        fh.write(tf_stream)
    exts = [".terms.parquet", ".docs.parquet", ".bin"]
    if carry_pos:
        with open(base + ".pos.tmp", "wb") as fh:
            fh.write(pos_stream)
        exts.append(".pos")
    for ext in exts:
        os.replace(base + ext + ".tmp", base + ext)
    with open(base + ".done.tmp", "w") as fh:
        json.dump({"merged_from": [m["name"] for m in seg_metas]}, fh)
    os.replace(base + ".done.tmp", base + ".done")
    return {"name": name, "n_docs": int(doc_ids.size), "dl_sum": int(dls.sum())}


def _compact_impl(
    index_root: str,
    *,
    target_segments: int = 8,
    promote: bool = True,
    keep_versions: int = 3,
) -> dict:
    """Compact the CURRENT version into ≤ target_segments merged segments
    (parallel Ray tasks, one per merge group). Term stats carry over; all
    current tombstones are dropped."""
    import ray

    t0 = time.time()
    prev = mf.read_manifest(index_root)
    prev_version = prev["_version"]
    version = mf.next_version(index_root)
    vdir = mf.version_dir(index_root, version)
    seg_dir = os.path.join(vdir, "segments")
    termstats_dir = os.path.join(vdir, "termstats")
    os.makedirs(seg_dir, exist_ok=True)

    tomb_ids, tomb_vers = parse_tombstones(prev)
    segs = sorted(prev["segments"], key=lambda m: m["name"])
    groups = np.array_split(np.arange(len(segs)), min(target_segments, len(segs)))
    merge_task = ray.remote(num_cpus=1)(merge_segments)
    futures = [
        merge_task.remote(index_root, [segs[i] for i in g], tomb_ids, tomb_vers, seg_dir)
        for g in groups
        if len(g)
    ]
    merged = ray.get(futures)

    # term stats are already exact under tombstones → copy forward
    shutil.copytree(os.path.join(index_root, prev["termstats"]), termstats_dir)

    new_segs = [
        {
            "name": m["name"],
            "path": f"v{version}/segments/{m['name']}",
            "n_docs": m["n_docs"],
            "dl_sum": m["dl_sum"],
            "created_version": version,
        }
        for m in sorted(merged, key=lambda m: m["name"])
        if m["n_docs"] > 0
    ]
    man = {
        **{k: prev[k] for k in ("analyzer", "k1", "b", "n_docs", "dl_sum", "avgdl", "num_buckets")},
        "version": version,
        "attr_cols": prev.get("attr_cols", []),
        "positions": prev.get("positions", False),
        "store_source": prev.get("store_source", False),
        "segments": new_segs,
        "termstats": f"v{version}/termstats",
        "tombstones": [],
        "lineage": {
            "parent_version": prev_version,
            "compacted_from": len(segs),
            "compacted_to": len(new_segs),
        },
        "metrics": {"compact_sec": round(time.time() - t0, 3)},
    }
    mf.write_manifest(index_root, version, man)
    if promote:
        mf.promote(index_root, version)
        mf.purge_stale_versions(index_root, keep=keep_versions)
    return man


def _compact_tiered_impl(
    index_root: str,
    *,
    small_docs: int | None = None,
    target_group_docs: int | None = None,
    promote: bool = True,
    keep_versions: int = 3,
) -> dict:
    """Tiered compaction (Lucene TieredMergePolicy shape): merge ONLY the
    small segments — the incremental-delta droppings — into size-balanced
    groups, and carry every already-big segment forward BY POINTER (no
    rewrite, no copy; the same cross-version reference incremental builds
    use). This bounds write amplification: steady-state maintenance cost is
    proportional to the delta volume, never the corpus, which is what makes
    continuous ingestion viable at 100 TB (full `compact()` remains the
    tool for a deliberate rewrite-everything).

    ``small_docs`` defaults to half the mean segment size;
    ``target_group_docs`` to twice the mean. Carried segments keep their
    ``created_version``, so the previous tombstone list still applies to
    them; merged segments physically drop their dead docs and are created
    at the new version (newer than every tombstone ⇒ exempt)."""
    import ray

    t0 = time.time()
    prev = mf.read_manifest(index_root)
    prev_version = prev["_version"]
    segs = sorted(prev["segments"], key=lambda m: m["name"])
    mean = max(1, sum(s["n_docs"] for s in segs) // max(len(segs), 1))
    small_docs = small_docs if small_docs is not None else mean // 2
    target_group_docs = (
        target_group_docs if target_group_docs is not None else 2 * mean
    )
    small = [s for s in segs if s["n_docs"] < small_docs]
    big = [s for s in segs if s["n_docs"] >= small_docs]
    if len(small) < 2:
        return prev  # nothing worth merging — no new version
    version = mf.next_version(index_root)
    vdir = mf.version_dir(index_root, version)
    seg_dir = os.path.join(vdir, "segments")
    termstats_dir = os.path.join(vdir, "termstats")
    os.makedirs(seg_dir, exist_ok=True)
    tomb_ids, tomb_vers = parse_tombstones(prev)
    # first-fit bin packing in name order (deterministic)
    groups: list[list[dict]] = [[]]
    acc = 0
    for s in small:
        if acc and acc + s["n_docs"] > target_group_docs:
            groups.append([])
            acc = 0
        groups[-1].append(s)
        acc += s["n_docs"]
    merge_task = ray.remote(num_cpus=1)(merge_segments)
    futures = [
        merge_task.remote(index_root, g, tomb_ids, tomb_vers, seg_dir)
        for g in groups
        if g
    ]
    merged = ray.get(futures)
    shutil.copytree(os.path.join(index_root, prev["termstats"]), termstats_dir)
    new_segs = [dict(s) for s in big] + [
        {
            "name": m["name"],
            "path": f"v{version}/segments/{m['name']}",
            "n_docs": m["n_docs"],
            "dl_sum": m["dl_sum"],
            "created_version": version,
        }
        for m in merged
        if m["n_docs"] > 0
    ]
    new_segs.sort(key=lambda m: m["name"])
    man = {
        **{k: prev[k] for k in ("analyzer", "k1", "b", "n_docs", "dl_sum", "avgdl", "num_buckets")},
        "version": version,
        "attr_cols": prev.get("attr_cols", []),
        "positions": prev.get("positions", False),
        "store_source": prev.get("store_source", False),
        "segments": new_segs,
        "termstats": f"v{version}/termstats",
        "tombstones": prev.get("tombstones", []),
        "lineage": {
            "parent_version": prev_version,
            "tier_merged": len(small),
            "carried": len(big),
        },
        "metrics": {"compact_sec": round(time.time() - t0, 3)},
    }
    mf.write_manifest(index_root, version, man)
    if promote:
        mf.promote(index_root, version)
        mf.purge_stale_versions(index_root, keep=keep_versions)
    return man


def compact(index_root, **kwargs):
    """Public compaction entry: single-writer per index root."""
    with mf.build_lock(index_root):
        return _compact_impl(index_root, **kwargs)


def compact_tiered(index_root, **kwargs):
    """Public tiered-compaction entry: single-writer per index root."""
    with mf.build_lock(index_root):
        return _compact_tiered_impl(index_root, **kwargs)
