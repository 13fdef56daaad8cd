import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pytest
import ray.data as rd

from harvester_ray.index import build, incremental, manifest as mf, query

DOCS = "/root/testdata/sf0.001/documents.parquet"

QUERIES = [("spark window", "and"), ("table", "and"), ("customer query big", "or"), ("zzznewterm", "and")]


def _base_corpus() -> pd.DataFrame:
    return rd.read_parquet(DOCS, columns=["doc_id", "text"]).to_pandas()


def _delta1(base: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for d in [5, 6, 7, 8, 9]:  # modified
        rows.append({"doc_id": d, "text": base.loc[base.doc_id == d, "text"].iloc[0] + " zzznewterm spark", "state": "active"})
    for d in [10, 11, 12]:  # deleted
        rows.append({"doc_id": d, "text": "", "state": "deleted"})
    for d in range(500, 510):  # added
        rows.append({"doc_id": d, "text": f"fresh spark window document number {d} zzznewterm", "state": "active"})
    return pd.DataFrame(rows)


def _delta2(merged: pd.DataFrame) -> pd.DataFrame:
    rows = [
        {"doc_id": 5, "text": "completely rewritten again table scan", "state": "active"},  # re-modify
        {"doc_id": 500, "text": "", "state": "deleted"},  # delete a previously added doc
        {"doc_id": 600, "text": "brand new second wave spark", "state": "active"},
    ]
    return pd.DataFrame(rows)


def _apply(base: pd.DataFrame, delta: pd.DataFrame) -> pd.DataFrame:
    dead = set(delta["doc_id"])
    kept = base[~base["doc_id"].isin(dead)]
    active = delta[delta["state"] == "active"][["doc_id", "text"]]
    return pd.concat([kept, active], ignore_index=True).sort_values("doc_id").reset_index(drop=True)


def _search_all(root):
    r = query.IndexReader(root)
    return {
        (q, m): r.search(q, k=20, mode=m).to_pandas() for q, m in QUERIES
    }


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    base = _base_corpus()
    delta1 = _delta1(base)
    merged1 = _apply(base, delta1)
    delta2 = _delta2(merged1)
    merged2 = _apply(merged1, delta2)

    inc_root = str(tmp_path_factory.mktemp("inc"))
    build.build_index(rd.from_pandas(base), inc_root, concurrency=2, input_desc="base")
    incremental.build_incremental(inc_root, rd.from_pandas(delta1), input_desc="delta1")

    full1_root = str(tmp_path_factory.mktemp("full1"))
    build.build_index(rd.from_pandas(merged1), full1_root, concurrency=2)
    return base, delta2, merged2, inc_root, full1_root, tmp_path_factory


def test_incremental_equals_full_rebuild(setup):
    _, _, _, inc_root, full1_root, _ = setup
    got = _search_all(inc_root)
    exp = _search_all(full1_root)
    for key in got:
        assert list(got[key]["doc_id"]) == list(exp[key]["doc_id"]), key
        np.testing.assert_allclose(got[key]["score"], exp[key]["score"], rtol=0, err_msg=str(key))


def test_incremental_stats_exact(setup):
    _, _, _, inc_root, full1_root, _ = setup
    a = mf.read_manifest(inc_root)
    b = mf.read_manifest(full1_root)
    assert a["n_docs"] == b["n_docs"]
    assert a["dl_sum"] == b["dl_sum"]
    assert abs(a["avgdl"] - b["avgdl"]) < 1e-12


def test_modified_docs_match_new_content_only(setup):
    _, _, _, inc_root, _, _ = setup
    r = query.IndexReader(inc_root)
    # "zzznewterm" exists only in modified/added docs
    out = r.search("zzznewterm", k=50, mode="and").to_pandas()
    assert set(out["doc_id"]) == {5, 6, 7, 8, 9, *range(500, 510)}
    # deleted docs never match
    out2 = r.search("table", k=500, mode="or").to_pandas()
    assert not (set(out2["doc_id"]) & {10, 11, 12})


def test_second_incremental_round(setup):
    base, delta2, merged2, inc_root, _, tmpf = setup
    incremental.build_incremental(inc_root, rd.from_pandas(delta2), input_desc="delta2")
    full2_root = str(tmpf.mktemp("full2"))
    build.build_index(rd.from_pandas(merged2), full2_root, concurrency=2)
    got = _search_all(inc_root)
    exp = _search_all(full2_root)
    for key in got:
        assert list(got[key]["doc_id"]) == list(exp[key]["doc_id"]), key
        np.testing.assert_allclose(got[key]["score"], exp[key]["score"], rtol=0, err_msg=str(key))
    a = mf.read_manifest(inc_root)
    b = mf.read_manifest(full2_root)
    assert a["n_docs"] == b["n_docs"] and a["dl_sum"] == b["dl_sum"]
    # re-modified doc 5 matches its v3 content, not v2's
    r = query.IndexReader(inc_root)
    assert 5 not in set(r.search("zzznewterm", k=50, mode="and").to_pandas()["doc_id"])
    # deleted-after-add doc 500 is gone
    assert 500 not in set(r.search("spark", k=500, mode="or").to_pandas()["doc_id"])


def test_actor_service_respects_tombstones(setup):
    _, _, _, inc_root, _, _ = setup
    svc = query.QueryService(inc_root, num_actors=2)
    reader = query.IndexReader(inc_root)
    try:
        for q, m in QUERIES[:3]:
            a = svc.search(q, k=20, mode=m).to_pandas()
            b = reader.search(q, k=20, mode=m).to_pandas()
            assert list(a["doc_id"]) == list(b["doc_id"])
    finally:
        svc.shutdown()


def test_set_integrity_guard_blocks_bad_delta(tmp_path):
    """A delta that deletes most of the corpus must NOT be promoted: the
    parent version stays CURRENT (reference check_set_integrity,
    core/tasks/harvest/set.py:99-126) and the refusal is recorded."""
    root = str(tmp_path / "guard_idx")
    base = _base_corpus()
    build.build_index(rd.from_pandas(base), root, input_desc="base")
    v_parent = mf.current_version(root)
    parent_man = mf.read_manifest(root)

    bad = pd.DataFrame(
        {"doc_id": base["doc_id"].head(400), "text": "", "state": "deleted"}
    )
    man = incremental.build_incremental(root, rd.from_pandas(bad), input_desc="bad")
    integ = man["lineage"]["integrity"]
    assert integ["is_replaced"] is True
    assert integ["parent_docs"] == parent_man["n_docs"]
    # CURRENT untouched; queries still serve the parent corpus
    assert mf.current_version(root) == v_parent
    reader = query.IndexReader(root)
    assert reader.n_docs == parent_man["n_docs"]

    # a benign delta still promotes
    ok = pd.DataFrame(
        {"doc_id": [10_001], "text": ["fresh spark addition"], "state": ["active"]}
    )
    man2 = incremental.build_incremental(root, rd.from_pandas(ok), input_desc="ok")
    assert man2["lineage"]["integrity"]["is_replaced"] is False
    assert mf.current_version(root) == man2["version"]

    # integrity_check=False forces promotion of even a wiping delta
    man3 = incremental.build_incremental(
        root, rd.from_pandas(bad), input_desc="forced", integrity_check=False
    )
    assert mf.current_version(root) == man3["version"]


def test_index_diff_labels(tmp_path):
    """index_diff reads added/changed/removed back from segment doc tables
    + created_version + tombstones, not from the delta input."""
    from harvester_ray.index import diff as diff_mod

    root = str(tmp_path / "diffidx")
    base = pd.DataFrame({
        "doc_id": np.arange(10, dtype=np.int64),
        "text": [f"alpha beta doc {i}" for i in range(10)],
    })
    build.build_index(rd.from_pandas(base), root, concurrency=2)
    delta = pd.DataFrame({
        "doc_id": np.array([1, 2, 50, 51], dtype=np.int64),
        "text": ["alpha updated", "", "new fifty", "new fiftyone"],
        "state": ["active", "deleted", "active", "active"],
    })
    incremental.build_incremental(root, rd.from_pandas(delta),
                                  integrity_check=False)
    out = diff_mod.index_diff(root)
    got = dict(zip(out["doc_id"], out["change"]))
    assert got == {1: "changed", 2: "removed", 50: "added", 51: "added"}


def test_build_lock_excludes_and_steals(tmp_path_factory, ray_session):
    """Single-writer lock: a held lock makes a second builder fail fast
    (nowait semantics); a dead writer's stale lock is stolen."""
    import os

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from harvester_ray.index import build, manifest as mf

    root = str(tmp_path_factory.mktemp("lock-idx"))
    df = pd.DataFrame({"doc_id": np.arange(10, dtype=np.int64),
                       "text": ["alpha beta"] * 10})
    with mf.build_lock(root):
        with pytest.raises(mf.BuildLockError):
            # simulate ANOTHER live process holding it
            with open(os.path.join(root, ".build.lock"), "w") as f:
                f.write("1")  # pid 1 (init) is always alive
            build.build_index(rd.from_pandas(df), root, concurrency=2)
    # stale lock from a dead pid is stolen and the build proceeds
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, ".build.lock"), "w") as f:
        f.write("999999999")  # no such pid
    man = build.build_index(rd.from_pandas(df), root, concurrency=2)
    assert man["n_docs"] == 10
    assert not os.path.exists(os.path.join(root, ".build.lock"))


def test_delete_by_query_exact_stats(tmp_path, ray_session):
    """_delete_by_query retires every match via tombstones and leaves BM25
    scores value-identical to a fresh build over the surviving corpus
    (exact negative corrections, attr + positional index)."""
    import pandas as pd
    import ray.data as rd

    from harvester_ray.index import build as ib
    from harvester_ray.index import extras, query

    docs = "/root/testdata/sf0.001/documents.parquet"
    root = str(tmp_path / "delq")
    ds = rd.read_parquet(docs, columns=["doc_id", "text", "lang"])
    ib.build_index(ds, root, attr_cols=["lang"], store_positions=True)
    res = extras.delete_by_query(root, "dup", mode="or")
    assert res["deleted"] > 0
    # no 'dup' match survives
    assert query.IndexReader(root).search("dup", k=100, mode="or").num_rows == 0
    # survivors score like a fresh filtered build
    fresh = str(tmp_path / "fresh")
    from harvester_ray import analyzer

    raw = pd.read_parquet(docs)
    dead = {
        int(i) for i, t in zip(raw["doc_id"], raw["text"])
        if "dup" in analyzer.tokenize_query(t)
    }
    kept = rd.read_parquet(docs, columns=["doc_id", "text", "lang"]).filter(
        lambda r: r["doc_id"] not in dead
    )
    ib.build_index(kept, fresh, attr_cols=["lang"], store_positions=True)
    a = query.IndexReader(root).search("customer query big", k=10, mode="or").to_pandas()
    b = query.IndexReader(fresh).search("customer query big", k=10, mode="or").to_pandas()
    pd.testing.assert_frame_equal(a, b)


def _term_stats(root: str, man: dict):
    import pyarrow.dataset as pads

    return (
        pads.dataset(os.path.join(root, man["termstats"]))
        .to_table()
        .sort_by([("term", "ascending")])
    )


def _copies_of(tmp_path, src: str, names: list[str]) -> list[str]:
    roots = [str(tmp_path / n) for n in names]
    for r in roots:
        shutil.copytree(src, r)
    return roots


def test_delta_metrics_split_the_commit(setup):
    """A delta manifest times its layers like the build's does: phase 1,
    the carried-segment corrections and the term-stats fold, each
    non-negative and together within ``build_sec``."""
    _, _, _, inc_root, _, _ = setup
    m = mf.read_manifest(inc_root)["metrics"]
    parts = [m["phase1_sec"], m["corrections_sec"], m["termstats_sec"]]
    assert all(p >= 0 for p in parts), m
    assert sum(parts) <= m["build_sec"], m


def test_delta_term_stats_tree_path_matches_in_process(setup, tmp_path, monkeypatch):
    """The delta's term-stats fold gives the same stats whether it runs in
    process or as the tree of tasks (GRAFT_VOCAB_TREE_BYTES=0), and both
    equal a full rebuild of the merged corpus: terms that only the deleted
    or modified docs held are dropped, not kept at df 0."""
    base, _, _, _, full1_root, _ = setup
    base_root = str(tmp_path / "base")
    build.build_index(rd.from_pandas(base), base_root, concurrency=2, batch_size=100)
    got = {}
    for name, tree_bytes in (("proc", None), ("tree", "0")):
        (root,) = _copies_of(tmp_path, base_root, [name])
        if tree_bytes is not None:
            monkeypatch.setenv("GRAFT_VOCAB_TREE_BYTES", tree_bytes)
        man = incremental.build_incremental(root, rd.from_pandas(_delta1(base)))
        got[name] = _term_stats(root, man)
    want = _term_stats(full1_root, mf.read_manifest(full1_root))
    assert got["proc"].num_rows > 0
    assert got["proc"].equals(got["tree"])
    assert got["proc"].equals(want)
    assert pc.min(got["proc"]["df"]).as_py() > 0


def test_builder_death_mid_delta_commits_identically(setup, tmp_path, killing_build_segment):
    """Chaos on the delta commit: a builder worker process dies mid-write
    (leaving a partial ``.bin.tmp``). The retried task must commit the same
    version as an undisturbed delta: byte-identical segments, equal term
    stats and doc counts, a clean fsck and no file left in the new
    version's segment dir that the manifest does not name."""
    from harvester_ray.index.fsck import fsck

    base = setup[0]
    base_root = str(tmp_path / "base")
    build.build_index(rd.from_pandas(base), base_root, concurrency=2, batch_size=100)
    ref_root, chaos_root = _copies_of(tmp_path, base_root, ["ref", "chaos"])
    delta = _delta1(base)
    ref = incremental.build_incremental(ref_root, rd.from_pandas(delta), batch_size=5)
    flag = str(tmp_path / "killed.flag")
    with killing_build_segment(flag):
        got = incremental.build_incremental(chaos_root, rd.from_pandas(delta), batch_size=5)
    assert os.path.exists(flag), "the killing builder never fired"

    assert mf.current_version(chaos_root) == got["version"] == ref["version"]
    assert (got["n_docs"], got["dl_sum"]) == (ref["n_docs"], ref["dl_sum"])
    assert got["segments"] == ref["segments"]
    new = [s for s in got["segments"] if s["created_version"] == got["version"]]
    assert len(new) == 3
    for seg in new:
        for ext in (".terms.parquet", ".docs.parquet", ".bin", ".done"):
            with open(os.path.join(ref_root, seg["path"] + ext), "rb") as a, \
                    open(os.path.join(chaos_root, seg["path"] + ext), "rb") as b:
                if ext == ".done":  # the marker carries the encode wall time
                    assert json.load(a)["fingerprint"] == json.load(b)["fingerprint"]
                else:
                    assert a.read() == b.read(), seg["name"] + ext
    assert _term_stats(chaos_root, got).equals(_term_stats(ref_root, ref))
    report = fsck(chaos_root)
    assert report["ok"], report["errors"]

    seg_dir = os.path.join(chaos_root, f"v{got['version']}", "segments")
    named = {
        s["name"] + ext for s in new
        for ext in (".terms.parquet", ".docs.parquet", ".bin", ".done")
    }
    assert set(os.listdir(seg_dir)) == named
