"""Raw-data read-back API over a versioned index.

The reference exposes its harvested raw documents through paginated
list/detail endpoints with a ``modified_since`` filter
(harvester/core/views/document.py:22-83). Here the same surface backed by
the version manifests: documents stream straight out of the segment doc
tables of a chosen version, optionally restricted to segments created at or
after a version watermark (the ``modified_since`` analog — a doc's segment
``created_version`` IS its last-modified version, because modification
rewrites the doc into a new segment and tombstones the old occurrence).

Scale: segment doc tables are Parquet; the listing is a
``ray.data.read_parquet`` over exactly the selected segments' files
(version pruning happens BEFORE any I/O), with tombstone filtering as a
vectorized map. Pagination = ``ds.take``/``iter_batches`` on the caller's
side; ``get_document`` is a binary search in one segment, no scan.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from . import manifest as mf
from .query import live_mask, parse_tombstones


def read_documents(
    index_root: str,
    *,
    version: int | None = None,
    modified_since_version: int | None = None,
    columns: list[str] | None = None,
):
    """Dataset of live documents of an index version: (doc_id, dl, attrs…,
    created_version). ``modified_since_version`` keeps only docs (re)written
    at or after that version."""
    import ray.data as rd

    man = mf.read_manifest(index_root, version)
    cur = man.get("_version", man.get("version", 0))
    tomb_ids, tomb_vers = parse_tombstones(man)
    segs = [
        s
        for s in man["segments"]
        if modified_since_version is None
        or s.get("created_version", cur) >= modified_since_version
    ]
    if not segs:
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
    paths = [os.path.join(index_root, s["path"]) + ".docs.parquet" for s in segs]
    created = {os.path.basename(s["path"]): s.get("created_version", cur) for s in segs}

    ds = rd.read_parquet(paths, columns=columns, include_paths=True)

    def live(t: pa.Table) -> pa.Table:
        path = t["path"][0].as_py()
        seg_name = os.path.basename(path)[: -len(".docs.parquet")]
        cv = created[seg_name]
        docs = np.asarray(t["doc_id"].combine_chunks().cast(pa.int64()))
        keep = live_mask(docs, tomb_ids, tomb_vers, cv)
        if keep is None:
            keep = np.ones(docs.size, bool)
        out = t.filter(pa.array(keep)).drop_columns(["path"])
        return out.append_column(
            "created_version", pa.array(np.full(int(keep.sum()), cv, np.int64))
        )

    return ds.map_batches(live, batch_format="pyarrow", zero_copy_batch=True)


def get_document(index_root: str, doc_id: int, *, version: int | None = None) -> dict | None:
    """Detail endpoint analog: one doc's stored fields via per-segment
    binary search (newest segment wins for re-added docs)."""
    import pyarrow.parquet as pq

    man = mf.read_manifest(index_root, version)
    cur = man.get("_version", man.get("version", 0))
    tomb_ids, tomb_vers = parse_tombstones(man)
    best = None
    best_cv = -1
    for s in man["segments"]:
        cv = s.get("created_version", cur)
        tbl = pq.read_table(os.path.join(index_root, s["path"]) + ".docs.parquet")
        docs = np.asarray(tbl["doc_id"].combine_chunks().cast(pa.int64()))
        live = live_mask(docs, tomb_ids, tomb_vers, cv)
        pos = int(np.searchsorted(docs, doc_id))
        if (
            pos < docs.size and docs[pos] == doc_id and cv > best_cv
            and (live is None or live[pos])
        ):
            row = {c: tbl[c][pos].as_py() for c in tbl.column_names}
            row["created_version"] = cv
            best, best_cv = row, cv
    return best


def mget(
    index_root: str,
    doc_ids: list[int],
    *,
    version: int | None = None,
    columns: list[str] | None = None,
):
    """ES ``_mget``: batched document fetch. One pass over the segment doc
    tables — each segment is read ONCE for the whole id batch (sorted
    searchsorted membership, not per-id probes), tombstones respected,
    newest segment wins for re-added docs. Returns a pandas DataFrame with
    one row per requested id in input order: requested columns (or every
    stored column), ``created_version``, and ``found`` (missing/deleted ids
    keep their row with found=False and empty/-1 fields — the _mget
    response shape).

    At serving scale this is the batch shape the query actors already use;
    driver-side it is segment-count bounded I/O, independent of corpus
    size."""
    import pandas as pd
    import pyarrow.parquet as pq

    man = mf.read_manifest(index_root, version)
    cur = man.get("_version", man.get("version", 0))
    tomb_ids, tomb_vers = parse_tombstones(man)
    want = np.asarray(sorted(set(int(d) for d in doc_ids)), dtype=np.int64)
    found: dict[int, tuple[int, dict]] = {}
    for s in man["segments"]:
        cv = s.get("created_version", cur)
        tbl = pq.read_table(os.path.join(index_root, s["path"]) + ".docs.parquet")
        docs = np.asarray(tbl["doc_id"].combine_chunks().cast(pa.int64()))
        pos = np.searchsorted(docs, want)
        posc = np.clip(pos, 0, max(docs.size - 1, 0))
        hit = (docs.size > 0) & (docs[posc] == want)
        live = live_mask(docs, tomb_ids, tomb_vers, cv)
        if live is not None:
            hit &= live[posc]
        for w, p in zip(want[hit], posc[hit]):
            prev = found.get(int(w))
            if prev is None or cv > prev[0]:
                row = {c: tbl[c][int(p)].as_py() for c in tbl.column_names}
                found[int(w)] = (cv, row)
    cols = columns
    if cols is None:
        any_row = next(iter(found.values()))[1] if found else {}
        cols = [c for c in any_row if c != "doc_id"]
    out_rows = []
    for d in doc_ids:
        rec = found.get(int(d))
        row = {"doc_id": int(d)}
        for c in cols:
            if rec is not None:
                row[c] = rec[1].get(c)
            else:
                row[c] = -1 if c == "dl" else ""
        row["created_version"] = rec[0] if rec is not None else -1
        row["found"] = rec is not None
        out_rows.append(row)
    return pd.DataFrame(out_rows)


class CachedReader:
    """Version-keyed LRU request cache in front of ``IndexReader`` — the ES
    shard-request-cache analog (results cached until the index changes; an
    alias/promote flip invalidates everything at once because the CURRENT
    version is part of every key). Serving layers put this in front of the
    per-query fan-out so repeated dashboard/facet queries cost a dict hit.

    Capacity-bounded LRU; thread-compatible for the single-process serving
    loop (no locks — Ray actors serialize their own calls)."""

    def __init__(self, index_root: str, *, capacity: int = 256):
        from collections import OrderedDict

        from . import manifest as mf
        from .query import IndexReader

        self.root = index_root
        self.capacity = capacity
        self._mf = mf
        self._IndexReader = IndexReader
        self._version = mf.current_version(index_root)
        self._reader = IndexReader(index_root)
        self._cache: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _refresh(self) -> None:
        cur = self._mf.current_version(self.root)
        if cur != self._version:
            self._version = cur
            self._reader = self._IndexReader(self.root)
            self._cache.clear()

    def search(self, query_text: str, k: int = 10, mode: str = "and",
               filters: dict | None = None):
        self._refresh()
        fkey = (
            tuple(sorted(
                (c, tuple(v.items()) if isinstance(v, dict) else tuple(v))
                for c, v in filters.items()
            ))
            if filters else None
        )
        key = (self._version, query_text, k, mode, fkey)
        if key in self._cache:
            self._cache.move_to_end(key)
            self.hits += 1
            return self._cache[key]
        res = self._reader.search(query_text, k=k, mode=mode, filters=filters)
        self._cache[key] = res
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        self.misses += 1
        return res
