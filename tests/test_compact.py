import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from harvester_ray.index import build, codec, compact, fsck, incremental, manifest as mf, query

DOCS = "/root/testdata/sf0.001/documents.parquet"

QUERIES = [("spark window", "and"), ("table", "or"), ("customer query big", "or")]


def test_compact_after_incremental_chain(tmp_path):
    root = str(tmp_path / "cidx")
    base = rd.read_parquet(DOCS, columns=["doc_id", "text"]).to_pandas()
    build.build_index(rd.from_pandas(base), root, concurrency=2)

    delta = pd.DataFrame(
        [
            {"doc_id": 3, "text": "rewritten spark window doc", "state": "active"},
            {"doc_id": 7, "text": "", "state": "deleted"},
            {"doc_id": 900, "text": "added spark table row", "state": "active"},
        ]
    )
    incremental.build_incremental(root, rd.from_pandas(delta))
    before = {
        (q, m): query.IndexReader(root).search(q, k=25, mode=m).to_pandas()
        for q, m in QUERIES
    }
    pre_man = mf.read_manifest(root)
    assert len(pre_man["tombstones"]) == 3

    man = compact.compact(root, target_segments=2)
    assert man["tombstones"] == []
    assert len(man["segments"]) <= 2
    assert man["n_docs"] == pre_man["n_docs"]
    after = {
        (q, m): query.IndexReader(root).search(q, k=25, mode=m).to_pandas()
        for q, m in QUERIES
    }
    for key in before:
        assert list(before[key]["doc_id"]) == list(after[key]["doc_id"]), key
        np.testing.assert_allclose(before[key]["score"], after[key]["score"], rtol=0)
    # tombstoned/modified docs behave correctly post-compaction
    r = query.IndexReader(root)
    out = r.search("rewritten", k=5).to_pandas()
    assert list(out["doc_id"]) == [3]
    all_docs = r.search("table", k=1000, mode="or").to_pandas()
    assert 7 not in set(all_docs["doc_id"])


def test_compact_preserves_attrs(tmp_path):
    root = str(tmp_path / "aidx")
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "source"])
    build.build_index(ds, root, concurrency=2, attr_cols=["source"])
    before = query.IndexReader(root).search("table", k=10, filters={"source": ["src0"]}).to_pandas()
    compact.compact(root, target_segments=1)
    after = query.IndexReader(root).search("table", k=10, filters={"source": ["src0"]}).to_pandas()
    assert list(before["doc_id"]) == list(after["doc_id"])
    np.testing.assert_allclose(before["score"], after["score"], rtol=0)


def test_tiered_compaction_carries_big_segments(tmp_path_factory, ray_session):
    """Tiered merge: small (delta) segments merge, big segments carry by
    pointer (files untouched), search results and tombstone semantics
    unchanged."""
    import os

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from harvester_ray.index import build, compact, incremental, manifest as mf, query

    root = str(tmp_path_factory.mktemp("tiered"))
    n = 400
    base = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": [f"alpha beta doc {i} " + ("spark" if i % 3 == 0 else "window")
                 for i in range(n)],
    })
    build.build_index(rd.from_pandas(base), root, concurrency=2,
                      input_desc="base")
    # two small deltas -> two tiny segments + tombstones
    for ver in range(2):
        delta = pd.DataFrame({
            "doc_id": np.array([ver * 2, ver * 2 + 1, n + ver], dtype=np.int64),
            "text": ["updated spark text", "", f"new window doc {ver}"],
            "state": ["active", "deleted", "active"],
        })
        incremental.build_incremental(root, rd.from_pandas(delta),
                                      input_desc=f"d{ver}",
                                      integrity_check=False)
    before = {
        q: query.IndexReader(root).search(q, k=50, mode="or").to_pandas()
        for q in ("spark", "window", "alpha beta")
    }
    prev_man = mf.read_manifest(root)
    big_paths = [s["path"] for s in prev_man["segments"]
                 if s["n_docs"] >= 100]
    mtimes = {
        p: os.path.getmtime(os.path.join(root, p + ".terms.parquet"))
        for p in big_paths
    }
    man = compact.compact_tiered(root, small_docs=100)
    assert man["lineage"]["tier_merged"] >= 2
    assert man["lineage"]["carried"] == len(big_paths)
    carried = [s["path"] for s in man["segments"] if s["path"] in big_paths]
    assert sorted(carried) == sorted(big_paths)  # pointers, not copies
    for p in big_paths:
        assert os.path.getmtime(os.path.join(root, p + ".terms.parquet")) == mtimes[p]
    after = {
        q: query.IndexReader(root).search(q, k=50, mode="or").to_pandas()
        for q in before
    }
    for q in before:
        pd.testing.assert_frame_equal(before[q], after[q])
    # deleted docs stay gone
    got_ids = set(after["alpha beta"]["doc_id"])
    assert 1 not in got_ids and 3 not in got_ids
    # a tiered pass over an already-tiered index is a no-op (no new version)
    v = mf.current_version(root)
    man2 = compact.compact_tiered(root, small_docs=100)
    assert mf.current_version(root) == v and man2["_version"] == v


# -- segments written with the former per-block (max_tf, min_dl) columns -------


def _add_block_score_columns(root):
    """Give every segment's ``.terms.parquet`` the per-block ``block_max_tf``
    and ``block_min_dl`` columns indexes held before they were dropped,
    computed from the segment's own postings as the former encoder did and
    placed where it wrote them (after ``block_last_doc``)."""
    for m in mf.read_manifest(root)["segments"]:
        base = os.path.join(root, m["path"])
        seg = query.SegmentReader(base, query.SegmentCache(0))
        terms = pq.read_table(base + ".terms.parquet")
        max_tf, min_dl = [], []
        for t in terms["term"].to_pylist():
            d, f = seg.postings(t)
            starts = np.arange(0, d.size, codec.BLOCK_SIZE)
            max_tf.append(np.maximum.reduceat(f, starts))
            min_dl.append(np.minimum.reduceat(seg.doc_lengths(d), starts))
        offsets = terms["block_last_doc"].combine_chunks().offsets
        at = terms.column_names.index("block_last_doc") + 1
        for name, parts in (("block_min_dl", min_dl), ("block_max_tf", max_tf)):
            col = pa.ListArray.from_arrays(offsets, pa.array(np.concatenate(parts), pa.int64()))
            terms = terms.add_column(at, name, col)
        pq.write_table(terms, base + ".terms.parquet")


def _block_columns(root):
    return [
        {c for c in pq.read_schema(os.path.join(root, m["path"]) + ".terms.parquet").names
         if c.startswith("block_")}
        for m in mf.read_manifest(root)["segments"]
    ]


def test_segments_with_block_score_columns_read_and_compact(tmp_path):
    """An index written with the per-block (max_tf, min_dl) columns answers
    ``search`` (AND and OR) and ``search_phrase`` exactly like the same
    build without them, passes fsck, and compacts into the new format."""
    new_root, old_root = str(tmp_path / "new"), str(tmp_path / "old")
    build.build_index(
        rd.read_parquet(DOCS, columns=["doc_id", "text"]), new_root,
        concurrency=2, store_positions=True,
    )
    shutil.copytree(new_root, old_root)
    _add_block_score_columns(old_root)
    every = {"block_last_doc", "block_max_tf", "block_min_dl", "block_doc_off", "block_tf_off"}
    assert all(cols == every for cols in _block_columns(old_root))

    def answers(root):
        r = query.IndexReader(root)
        out = {(q, m): r.search(q, k=25, mode=m).to_pandas() for q, m in QUERIES}
        out["phrase"] = r.search_phrase("spark window", k=25).to_pandas()
        return out

    want = answers(new_root)
    assert all(len(v) for v in want.values())
    for key, got in answers(old_root).items():
        pd.testing.assert_frame_equal(got, want[key], obj=str(key))
    rep = fsck.fsck(old_root)
    assert rep["ok"], rep["errors"]

    compact.compact(old_root, target_segments=1)
    assert _block_columns(old_root) == [{"block_last_doc", "block_doc_off", "block_tf_off"}]
    for key, got in answers(old_root).items():
        pd.testing.assert_frame_equal(got, want[key], obj=str(key))
    assert fsck.fsck(old_root)["ok"]
