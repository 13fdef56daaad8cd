"""Per-shard deterministic HNSW (ops/hnsw.py): recall vs brute force,
partition-independence, serving pool, persistence."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from harvester_ray.ops import hnsw, similarity

EMB = "/root/testdata/sf0.01/embeddings.parquet"


def _emb_ds():
    return rd.read_parquet(EMB, columns=["vec_id", "embedding"])


def _queries(n=8):
    t = pq.read_table(EMB, columns=["vec_id", "embedding"])
    mat = np.asarray([list(v) for v in t["embedding"][:n].to_pylist()], np.float64)
    return mat


def test_recall_vs_brute(ray_session, tmp_path):
    q = _queries(8)
    brute = similarity.knn_brute(_emb_ds(), q, k=10).to_pandas()
    got = hnsw.knn_hnsw(
        _emb_ds(), q, k=10, n_shards=4, m=8, ef_construction=64, ef=64,
        work_dir=str(tmp_path / "h"),
    ).to_pandas()
    hits = 0
    for qi in range(8):
        b = set(brute[brute["query_id"] == qi]["vec_id"])
        g = set(got[got["query_id"] == qi]["vec_id"])
        hits += len(b & g)
    recall = hits / (8 * 10)
    assert recall >= 0.95, f"recall@10 = {recall}"


def test_deterministic_under_repartition(ray_session, tmp_path):
    q = _queries(3)
    a = hnsw.knn_hnsw(
        _emb_ds(), q, k=5, work_dir=str(tmp_path / "a")
    ).to_pandas()
    b = hnsw.knn_hnsw(
        _emb_ds().repartition(7), q, k=5, work_dir=str(tmp_path / "b")
    ).to_pandas()
    # shard membership and insertion order are pure functions of vec_id —
    # block layout must not change a single result row
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_graph_persistence_roundtrip(ray_session, tmp_path):
    q = _queries(2)
    wd = str(tmp_path / "h")
    hnsw.knn_hnsw(_emb_ds(), q, k=5, work_dir=wd)
    part = os.path.join(wd, "parts")
    graphs = [f for f in os.listdir(part) if f.endswith(".hnsw.npz")]
    assert len(graphs) == 4
    g = hnsw._ShardGraph.load(os.path.join(part, graphs[0]))
    ids, sims = g.search(q[0], 5, 64)
    assert ids.size == 5 and np.all(np.diff(sims) <= 1e-12)
    # reload → identical
    g2 = hnsw._ShardGraph.load(os.path.join(part, graphs[0]))
    ids2, sims2 = g2.search(q[0], 5, 64)
    np.testing.assert_array_equal(ids, ids2)
    np.testing.assert_array_equal(sims, sims2)


def test_service_matches_batch_path(ray_session, tmp_path):
    q = _queries(2)
    wd = str(tmp_path / "h")
    batch = hnsw.knn_hnsw(_emb_ds(), q, k=10, ef=64, work_dir=wd).to_pandas()
    svc = hnsw.HnswService(os.path.join(wd, "parts"), num_actors=2)
    try:
        for qi in range(2):
            got = svc.search(q[qi], k=10, ef=64).to_pandas()
            exp = batch[batch["query_id"] == qi].reset_index(drop=True)
            assert list(got["vec_id"]) == list(exp["vec_id"])
            np.testing.assert_allclose(got["cosine"], exp["cosine"], atol=1e-6)
    finally:
        svc.shutdown()


def test_tiny_shard_edge(ray_session, tmp_path):
    # 3 vectors, 2 shards: graphs of size 0/1/2 must not crash
    t = pa.table({
        "vec_id": pa.array([1, 2, 3], pa.int64()),
        "embedding": pa.array(
            [[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]],
            pa.list_(pa.float32()),
        ),
    })
    got = hnsw.knn_hnsw(
        rd.from_arrow(t), np.array([[1.0, 0.1]]), k=3, n_shards=2,
        work_dir=str(tmp_path / "h"),
    ).to_pandas()
    assert set(got["vec_id"]) == {1, 2, 3}
    assert got.iloc[0]["vec_id"] == 1

def test_artifact_manifest_lifecycle(ray_session, tmp_path):
    """Stale-artifact regression: params change or partial build must
    rebuild (and drop orphan shard graphs); a completed matching build is
    reused as-is; an empty dir fails fast in HnswService."""
    q = _queries(2)
    wd = str(tmp_path / "h")
    part = os.path.join(wd, "parts")
    a = hnsw.knn_hnsw(_emb_ds(), q, k=5, n_shards=4, work_dir=wd).to_pandas()
    mtimes = {
        f: os.path.getmtime(os.path.join(part, f))
        for f in os.listdir(part) if f.endswith(".hnsw.npz")
    }
    assert len(mtimes) == 4
    # same params again: completed build reused, no graph rewritten
    a2 = hnsw.knn_hnsw(_emb_ds(), q, k=5, n_shards=4, work_dir=wd).to_pandas()
    import pandas as pd

    pd.testing.assert_frame_equal(a, a2)
    for f, m in mtimes.items():
        assert os.path.getmtime(os.path.join(part, f)) == m
    # n_shards change in the SAME work_dir: repartition + rebuild, and the
    # old shard-count's graph files must not survive as orphans
    hnsw.knn_hnsw(_emb_ds(), q, k=5, n_shards=2, work_dir=wd)
    graphs = sorted(f for f in os.listdir(part) if f.endswith(".hnsw.npz"))
    assert len(graphs) == 2
    # simulate a crashed partial build: drop the manifest and one graph
    os.remove(os.path.join(part, hnsw._BUILD_MANIFEST))
    os.remove(os.path.join(part, graphs[0]))
    hnsw.hnsw_build(part)
    assert sorted(
        f for f in os.listdir(part) if f.endswith(".hnsw.npz")
    ) == graphs
    assert os.path.exists(os.path.join(part, hnsw._BUILD_MANIFEST))
    # empty dir: clear construction-time error, not np.concatenate([])
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    with pytest.raises(FileNotFoundError, match="hnsw.npz"):
        hnsw.HnswService(empty)


def test_crashed_rebuild_never_serves_stale_mix(ray_session, tmp_path):
    """A params change whose rebuild dies after other shards wrote their
    graphs must not leave the old manifest behind: rerunning with the
    original params rebuilds every graph instead of reusing the mix."""
    import time

    part = hnsw.hnsw_partition(_emb_ds(), str(tmp_path / "parts"), n_shards=3)
    hnsw.hnsw_build(part, m=8)
    shards = sorted(d for d in os.listdir(part) if d.startswith("shard="))
    graphs = [os.path.join(part, f"{d.replace('=', '-')}.hnsw.npz") for d in shards]
    bad = os.path.join(part, shards[0], "zz-unreadable.parquet")
    with open(bad, "w") as f:
        f.write("not parquet")  # this shard's build task raises
    with pytest.raises(Exception):
        hnsw.hnsw_build(part, m=4)
    deadline = time.time() + 120  # the other shards' m=4 tasks still finish
    while not all(os.path.exists(g) for g in graphs[1:]) and time.time() < deadline:
        time.sleep(0.2)
    assert all(int(np.load(g)["meta"][0]) == 4 for g in graphs[1:])
    os.remove(bad)
    hnsw.hnsw_build(part, m=8)
    assert [int(np.load(g)["meta"][0]) for g in graphs] == [8, 8, 8]
