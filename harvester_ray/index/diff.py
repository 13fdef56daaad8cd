"""Version diff over the index's own structures: which documents were
added, removed, or re-ingested (changed) between two manifest versions.

The reference exposes harvest deltas through its read-back API
(``modified_since`` filtering, core/views/document.py:22-83) and its
lineage records; here the diff is computed from the engine's ground truth
— per-segment doc tables, segment ``created_version`` markers, and the
versioned tombstone pairs — not from the delta input, so it doubles as an
end-to-end audit of the incremental-build bookkeeping.

Semantics (valid between versions with no intervening compaction, which
rewrites ``created_version``):

- ``added``   — live in ``v_new`` but not in ``v_old``;
- ``removed`` — live in ``v_old`` but not in ``v_new``;
- ``changed`` — live in both AND present in a segment created at
  ``v_new`` (the tombstone-then-re-add upsert path, incremental.py).

Per-segment doc ids are read column-at-a-time (the ``.docs.parquet``
sidecars, never the postings), so the cost is O(live docs) int64 traffic
regardless of index size.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from . import manifest as mf
from .query import live_mask, parse_tombstones


def _live_docs(index_root: str, version: int) -> tuple[np.ndarray, np.ndarray]:
    """(all live doc ids, live doc ids in segments created at `version`)."""
    man = mf.read_manifest(index_root, version)
    tomb_ids, tomb_vers = parse_tombstones(man)
    live_parts: list[np.ndarray] = []
    new_parts: list[np.ndarray] = []
    for seg_meta in man["segments"]:
        base = os.path.join(index_root, seg_meta["path"])
        docs = pq.read_table(base + ".docs.parquet", columns=["doc_id"])
        ids = np.asarray(docs["doc_id"].combine_chunks(), dtype=np.int64)
        created = seg_meta.get("created_version", man["_version"])
        live = live_mask(ids, tomb_ids, tomb_vers, created)
        if live is not None:
            ids = ids[live]
        live_parts.append(ids)
        if created == version:
            new_parts.append(ids)
    live = np.unique(np.concatenate(live_parts)) if live_parts else np.empty(0, np.int64)
    new = np.unique(np.concatenate(new_parts)) if new_parts else np.empty(0, np.int64)
    return live, new


def index_diff(
    index_root: str, v_old: int | None = None, v_new: int | None = None
) -> pd.DataFrame:
    """Row-level diff ``(doc_id, change)`` between two versions (defaults:
    CURRENT and its parent), sorted by doc_id."""
    if v_new is None:
        v_new = mf.current_version(index_root)
        if v_new is None:
            raise ValueError(f"no CURRENT version under {index_root}")
    if v_old is None:
        versions = [v for v in mf.list_versions(index_root) if v < v_new]
        if not versions:
            raise ValueError(f"version {v_new} has no parent to diff against")
        v_old = max(versions)
    old_live, _ = _live_docs(index_root, v_old)
    new_live, new_created = _live_docs(index_root, v_new)
    added = np.setdiff1d(new_live, old_live, assume_unique=True)
    removed = np.setdiff1d(old_live, new_live, assume_unique=True)
    both = np.intersect1d(old_live, new_live, assume_unique=True)
    changed = np.intersect1d(both, new_created, assume_unique=True)
    out = pd.DataFrame(
        {
            "doc_id": np.concatenate([added, changed, removed]),
            "change": ["added"] * added.size
            + ["changed"] * changed.size
            + ["removed"] * removed.size,
        }
    )
    return out.sort_values(["doc_id", "change"]).reset_index(drop=True)
