"""Index integrity verification (the ES ``_cluster/health`` / Lucene
CheckIndex analog): cross-check the CURRENT manifest against the bytes on
disk before trusting a restore, a handoff, or an unattended resume.

Checks, cheapest first:
- file closure: every segment's ``.terms.parquet`` / ``.docs.parquet`` /
  ``.bin`` (+ ``.pos`` when the manifest says positions) and ``.done``
  marker exist;
- doc accounting: Σ live docs per segment (tombstones applied) equals the
  manifest's ``n_docs``; Σ live dl equals ``dl_sum``;
- postings sanity (per segment): every term's df equals its decoded
  posting-list length, posting doc ids are strictly increasing and a
  subset of the segment's doc table;
- term stats: for a deterministic sample of terms, the global df equals
  the live recomputation across segments.

Returns a report dict; never raises on corruption (callers decide)."""

from __future__ import annotations

import os

import numpy as np

from . import manifest as mf
from .query import IndexReader


def fsck(
    index_root: str,
    *,
    version: int | None = None,
    sample_terms: int = 64,
    deep: bool = True,
) -> dict:
    errors: list[str] = []
    man = mf.read_manifest(index_root, version)
    cur = man.get("_version", man.get("version"))
    need_pos = bool(man.get("positions", False))
    exts = [".terms.parquet", ".docs.parquet", ".bin", ".done"]
    if need_pos:
        exts.insert(3, ".pos")
    for seg_meta in man["segments"]:
        base = os.path.join(index_root, seg_meta["path"])
        for ext in exts:
            if not os.path.exists(base + ext):
                errors.append(f"missing file: {seg_meta['path']}{ext}")
    if errors:
        return {"ok": False, "version": cur, "errors": errors}

    reader = IndexReader(index_root, version=version)
    live_docs = 0
    live_dl = 0
    seen_terms: list[str] = []
    for seg_meta, seg, live in reader.segments():
        keep = np.ones(seg.doc_ids.size, bool) if live is None else live
        live_docs += int(keep.sum())
        live_dl += int(seg.dl[keep].sum())
        if not np.all(np.diff(seg.doc_ids) > 0):
            errors.append(f"{seg_meta['path']}: doc table ids not strictly increasing")
        if deep:
            # decode the whole segment once; verify df/ordering/membership
            term_rows, df_s, d, _f = seg.all_postings()
            n_terms = len(seg._term_strings)
            if df_s.size != n_terms:
                errors.append(f"{seg_meta['path']}: postings rows != dictionary size")
            # df_s is aligned to term_rows (stream order), not dictionary order
            bad = np.flatnonzero(seg._df[term_rows] != df_s)
            if bad.size:
                errors.append(
                    f"{seg_meta['path']}: df mismatch for term "
                    f"{seg._term_strings[int(term_rows[bad[0]])].as_py()!r}"
                )
            seg_docs_sorted = seg.doc_ids
            idx = np.searchsorted(seg_docs_sorted, d)
            idx_c = np.clip(idx, 0, max(seg_docs_sorted.size - 1, 0))
            if d.size and not np.all(seg_docs_sorted[idx_c] == d):
                errors.append(f"{seg_meta['path']}: posting doc outside doc table")
        if len(seen_terms) < sample_terms:
            seen_terms.extend(
                t.as_py() for t in seg._term_strings[: sample_terms - len(seen_terms)]
            )
    if live_docs != int(man["n_docs"]):
        errors.append(f"n_docs mismatch: manifest {man['n_docs']} vs live {live_docs}")
    if live_dl != int(man["dl_sum"]):
        errors.append(f"dl_sum mismatch: manifest {man['dl_sum']} vs live {live_dl}")

    # global term-stats sample: df from the stats files vs live recount
    sample = sorted(set(seen_terms))[:sample_terms]
    stats_df = reader.df(sample)
    for t in sample:
        df = 0
        for _, seg, live in reader.segments():
            p = seg.postings_positions(t)
            if p is not None:
                df += int(p.size) if live is None else int(np.count_nonzero(live[p]))
        if df != stats_df.get(t, 0):
            errors.append(
                f"termstats df mismatch for {t!r}: stats {stats_df.get(t, 0)} vs live {df}"
            )
    return {
        "ok": not errors,
        "version": cur,
        "segments": len(man["segments"]),
        "n_docs": live_docs,
        "terms_sampled": len(sample),
        "errors": errors,
    }
