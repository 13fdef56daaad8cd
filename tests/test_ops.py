import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from harvester_ray.ops import dedup, multimodal, similarity, text_analysis

DOCS = "/root/testdata/sf0.001/documents.parquet"
EMB = "/root/testdata/sf0.001/embeddings.parquet"


def _docs():
    return rd.read_parquet(DOCS, columns=["doc_id", "text"])


def test_exact_dedup_with_planted_dups():
    base = rd.read_parquet(DOCS, columns=["doc_id", "text"]).to_pandas().head(20)
    dup = base.copy()
    dup["doc_id"] = dup["doc_id"] + 10_000  # same text, new ids
    ds = rd.from_pandas(pd.concat([base, dup], ignore_index=True))
    out = dedup.exact_dedup(ds).to_pandas()
    assert len(out) == 20  # every text survives exactly once
    assert set(out["doc_id"]) == set(base["doc_id"])  # min id wins


def test_minhash_near_dup_finds_planted_pair():
    base = rd.read_parquet(DOCS, columns=["doc_id", "text"]).to_pandas().head(30)
    words = base.loc[0, "text"].split()
    near = " ".join(words[:-1] + ["zzznovel"])  # drop/replace one word
    extra = pd.DataFrame({"doc_id": [90_000], "text": [near]})
    ds = rd.from_pandas(pd.concat([base, extra], ignore_index=True))
    pairs = dedup.near_dup_minhash(ds, threshold=0.5).to_pandas()
    assert ((pairs["doc_a"] == 0) & (pairs["doc_b"] == 90_000)).any()
    j = pairs.loc[(pairs["doc_a"] == 0) & (pairs["doc_b"] == 90_000), "jaccard"].iloc[0]
    assert 0.5 <= j <= 1.0


def test_minhash_signature_similarity_estimate():
    a, b = dedup._minhash_params(256)
    rng = np.random.default_rng(3)
    s1 = rng.integers(0, 2**32, 500).astype(np.uint64)
    s2 = np.concatenate([s1[:250], rng.integers(0, 2**32, 250).astype(np.uint64)])
    sig1 = dedup.minhash_signature(np.unique(s1), a, b)
    sig2 = dedup.minhash_signature(np.unique(s2), a, b)
    est = (sig1 == sig2).mean()
    inter = np.intersect1d(s1, s2).size
    true_j = inter / np.union1d(s1, s2).size
    assert abs(est - true_j) < 0.15


def test_simhash_identical_and_different():
    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "alpha beta gamma delta epsilon"},
            {"doc_id": 1, "text": "alpha beta gamma delta epsilon"},
            {"doc_id": 2, "text": "totally different words here now"},
        ]
    )
    out = dedup.simhash(ds).to_pandas().sort_values("doc_id")
    h = out["simhash"].to_numpy()
    assert h[0] == h[1]
    assert h[0] != h[2]
    pairs = dedup.simhash_near_dups(ds, max_hamming=3).to_pandas()
    assert ((pairs["doc_a"] == 0) & (pairs["doc_b"] == 1)).any()


def test_knn_ivf_recall_vs_brute():
    ds = rd.read_parquet(EMB)
    import pyarrow.dataset as pads

    q = np.asarray(
        pads.dataset(EMB).to_table(filter=pads.field("vec_id") == 0)["embedding"][0].as_py()
    )
    brute = similarity.knn_brute(ds, q, k=10).to_pandas()
    ivf = similarity.knn_ivf(ds, q, k=10, n_centroids=8, nprobe=4).to_pandas()
    recall = len(set(brute["vec_id"]) & set(ivf["vec_id"])) / 10
    assert recall >= 0.5  # approximate, but must overlap substantially
    # brute is exact: must match itself deterministically on rerun
    brute2 = similarity.knn_brute(ds, q, k=10).to_pandas()
    assert list(brute["vec_id"]) == list(brute2["vec_id"])


def test_lang_id_clamp_and_votes():
    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "the cat and the dog in a house"},
            {"doc_id": 1, "text": "de kat en de hond van het huis"},
            {"doc_id": 2, "text": "lorem ipsum dolor sit amet"},
        ]
    )
    out = text_analysis.lang_id(ds).to_pandas().sort_values("doc_id")
    assert list(out["lang_pred"]) == ["en", "nl", "unk"]


def test_quality_metrics_shape():
    out = text_analysis.analyze(_docs()).to_pandas()
    assert len(out) == 500
    assert (out["stop_ratio"] <= 1.0).all() and (out["stop_ratio"] >= 0.0).all()
    assert (out["quality"] <= 1.0).all() and (out["quality"] >= 0.0).all()


def test_fingerprint_invariance():
    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "Hello, WORLD!  foo"},
            {"doc_id": 1, "text": "hello world foo"},
            {"doc_id": 2, "text": "hello world bar"},
        ]
    )
    out = text_analysis.fingerprint(ds).to_pandas().sort_values("doc_id")
    fps = list(out["fingerprint"])
    assert fps[0] == fps[1]  # punctuation/case-invariant
    assert fps[0] != fps[2]


def test_multimodal_decode_plumbing():
    tbl = multimodal.synth_media(48, seed=42)
    ds = rd.from_arrow(tbl)
    out = multimodal.decode_features(ds, concurrency=2, batch_size=8).to_pandas()
    assert len(out) == 48
    assert set(out.columns) == {"item_id", "technical_type", "payload_bytes", "features"}
    assert out["features"].map(len).eq(multimodal.DecodeStage.FEATURE_DIM).all()
    # deterministic: same payload → same features
    out2 = multimodal.decode_features(rd.from_arrow(tbl), concurrency=1, batch_size=16).to_pandas()
    a = out.sort_values("item_id")["features"].map(tuple).tolist()
    b = out2.sort_values("item_id")["features"].map(tuple).tolist()
    assert a == b
    sampled = multimodal.frame_sample(ds, every_n=4, frame_stride=512).to_pandas()
    media = tbl.to_pandas()
    vids = media[media["mime"] == "video/mp4"]
    # only video items, every item represented, frame indices every 4th
    assert set(sampled["item_id"]) == set(vids["item_id"])
    assert (sampled["frame_idx"] % 4 == 0).all()
    # per-item frame count and byte-slice reassembly match the payload
    for _, row in vids.iterrows():
        sub = sampled[sampled["item_id"] == row["item_id"]].sort_values("frame_idx")
        n_frames = -(-len(row["payload"]) // 512)
        assert len(sub) == -(-n_frames // 4)
        for _, fr in sub.iterrows():
            lo = fr["frame_idx"] * 512
            assert fr["frame_payload"] == row["payload"][lo : lo + 512]
            assert fr["frame_bytes"] == len(fr["frame_payload"])


def test_exact_jaccard_equals_minhash_on_planted_pair():
    """near_dup_jaccard (complete shingle-bucket candidates) finds the same
    planted near-pair as MinHash-LSH, with identical exact jaccard value."""
    base = rd.read_parquet(DOCS, columns=["doc_id", "text"]).to_pandas().head(30)
    words = base.loc[0, "text"].split()
    near = " ".join(words[:-1] + ["zzznovel"])
    extra = pd.DataFrame({"doc_id": [90_000], "text": [near]})
    src = pd.concat([base, extra], ignore_index=True)
    exact = dedup.near_dup_jaccard(rd.from_pandas(src), threshold=0.5).to_pandas()
    mh = dedup.near_dup_minhash(rd.from_pandas(src), threshold=0.5).to_pandas()
    m = exact[(exact["doc_a"] == 0) & (exact["doc_b"] == 90_000)]
    assert len(m) == 1
    # exact candidates are a superset of LSH candidates after verification
    mh_pairs = set(zip(mh["doc_a"], mh["doc_b"]))
    ex_pairs = set(zip(exact["doc_a"], exact["doc_b"]))
    assert mh_pairs <= ex_pairs
    j_mh = mh.loc[(mh["doc_a"] == 0) & (mh["doc_b"] == 90_000), "jaccard"].iloc[0]
    assert m["jaccard"].iloc[0] == j_mh


def test_jaccard_candidates_hot_bucket_cap():
    """max_bucket drops pathological shared-shingle buckets instead of
    emitting O(bucket**2) pairs."""
    docs = [{"doc_id": i, "text": "common boiler plate phrase " + f"unique{i}"} for i in range(10)]
    ds = rd.from_items(docs)
    capped = dedup.jaccard_candidates_exact(ds, max_bucket=2).to_pandas()
    uncapped = dedup.jaccard_candidates_exact(ds).to_pandas()
    assert len(capped) < len(uncapped)
    assert len(uncapped) == 45  # all 10-choose-2 pairs share the boilerplate shingles


def test_knn_ivf_partitioned_prunes_and_recalls(tmp_path):
    """ivf_partition lays out one dir per cluster; knn_ivf_partitioned reads
    only nprobe of them and still substantially overlaps exact top-10."""
    import os

    ds = rd.read_parquet(EMB)
    out_dir = str(tmp_path / "ivf")
    cent = similarity.ivf_partition(ds, out_dir, n_centroids=8)
    assert cent.shape[0] == 8
    cluster_dirs = [d for d in os.listdir(out_dir) if d.startswith("cluster=")]
    assert 1 < len(cluster_dirs) <= 8
    import pyarrow.dataset as pads

    q = np.asarray(
        pads.dataset(EMB).to_table(filter=pads.field("vec_id") == 0)["embedding"][0].as_py()
    )
    brute = similarity.knn_brute(ds, q, k=10).to_pandas()
    ivf = similarity.knn_ivf_partitioned(out_dir, q, k=10, nprobe=4).to_pandas()
    recall = len(set(brute["vec_id"]) & set(ivf["vec_id"])) / 10
    assert recall >= 0.5
    # pruning is real: fewer than all clusters are read for nprobe < n_centroids
    probe = np.argsort(-(similarity._normalize(np.atleast_2d(q.astype(np.float64))) @ cent.T), axis=1)[:, :4]
    assert len(set(probe.ravel().tolist())) <= 4


def test_embedding_lsh_recall_vs_exact():
    """Hyperplane-LSH near-dup must recover most exact pairs at a moderate
    threshold (probabilistic recall, deterministic seed)."""
    ds = rd.read_parquet(EMB)
    exact = dedup.embedding_near_dups(ds, threshold=0.4).to_pandas()
    # cos 0.4 is a WIDE angle (~66°): collision prob per plane is only ~0.63,
    # so few planes + many tables are needed (1-(1-p^planes)^tables ≈ 0.99
    # at 3/16); production near-dup thresholds ≥0.9 tolerate far more planes
    lsh = dedup.embedding_near_dups_lsh(ds, threshold=0.4, n_planes=3, n_tables=16).to_pandas()
    ex = set(zip(exact["doc_a"], exact["doc_b"]))
    got = set(zip(lsh["doc_a"], lsh["doc_b"]))
    assert got <= ex  # verification is exact, so no false positives
    assert len(ex) > 0
    assert len(got & ex) / len(ex) >= 0.8


def test_repetition_metrics_edge_cases(ray_session):
    import ray.data as rd

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "a a a a",               # one token repeated
                    "w x y z",               # all distinct
                    "",                      # empty
                    "go go stop go go stop", # dominant bigram "go go"? -> "go go" x2
                ]
            ),
        }
    )
    out = (
        text_analysis.repetition(rd.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.loc[0, ["n_tokens", "distinct_ratio", "top_token_frac", "top_bigram_frac"]].tolist() == [4, 0.25, 1.0, 1.0]
    assert bool(out.loc[0, "repetitive"])
    assert out.loc[1, ["distinct_ratio", "top_token_frac"]].tolist() == [1.0, 0.25]
    assert not bool(out.loc[1, "repetitive"])
    assert out.loc[2, ["n_tokens", "distinct_ratio", "top_bigram_frac"]].tolist() == [0, 0.0, 0.0]
    assert not bool(out.loc[2, "repetitive"])
    assert out.loc[3, "n_tokens"] == 6 and out.loc[3, "top_bigram_frac"] == 0.4


def test_percolate_matches_oracle_and_edges():
    import duckdb

    from harvester_ray.ops import percolate as perc

    queries = [(1, "spark window"), (2, "the"), (3, "zzznope"), (4, "")]
    got = perc.percolate(_docs(), queries)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    exp = con.execute(perc.percolate_sql("documents", queries)).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert set(got["query_id"]) <= {1, 2}  # absent term and empty query never match
    # streaming (collect=False) returns the same pairs as a Dataset
    stream = perc.percolate(_docs(), queries, collect=False).to_pandas()
    stream = stream.sort_values(["doc_id", "query_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(stream, got)


def test_percolate_tiny_corpus():
    from harvester_ray.ops import percolate as perc

    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": ["alpha beta", "beta", ""]})
    out = perc.percolate(rd.from_pandas(df), [(7, "alpha beta"), (8, "beta")])
    assert list(map(tuple, out.itertuples(index=False))) == [(1, 7), (1, 8), (2, 8)]


def test_quality_model_matches_oracle_and_edges():
    import duckdb

    from harvester_ray.ops import quality_model as qm

    got = qm.quality_scores(_docs(), salt=123)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    exp = con.execute(qm.quality_scores_sql("documents", salt=123)).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert set(got["label"]) <= {"keep", "drop"}
    # empty-text doc scores (0, 0, drop)
    df = pd.DataFrame({"doc_id": [1, 2], "text": ["", "spark window"]})
    out = qm.quality_scores(rd.from_pandas(df), salt=123)
    assert out.loc[out.doc_id == 1, ["n_tokens", "w_sum"]].values.tolist() == [[0, 0]]
    assert out.loc[out.doc_id == 1, "label"].iloc[0] == "drop"
    # different salt → different model → different scores somewhere
    alt = qm.quality_scores(_docs(), salt=124)
    assert (got["w_sum"] != alt["w_sum"]).any()


def test_knn_pq_recall_and_compression(tmp_path):
    """PQ ADC search: deterministic, 8-byte codes, substantial overlap with
    exact top-10."""
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as pqt

    ds = rd.read_parquet(EMB)
    out_dir = str(tmp_path / "pq")
    books = similarity.pq_index(ds, out_dir, m=8, ksub=256)
    assert books.shape == (8, 256, 8)
    q = np.asarray(
        pads.dataset(EMB).to_table(filter=pads.field("vec_id") == 0)["embedding"][0].as_py()
    )
    brute = similarity.knn_brute(ds, q, k=10).to_pandas()
    pq_res = similarity.knn_pq(out_dir, q, k=10).to_pandas()
    recall = len(set(brute["vec_id"]) & set(pq_res["vec_id"])) / 10
    assert recall >= 0.5
    # ADC prune -> exact re-rank recovers the exact top-10
    rr = similarity.knn_pq(
        out_dir, q, k=10, rerank=50, source_path=EMB
    ).to_pandas()
    assert list(rr["vec_id"]) == list(brute["vec_id"])
    np.testing.assert_allclose(rr["cosine"], brute["cosine"], atol=1e-6)
    # codes really are m uint8 per vector
    enc = pqt.read_table(
        [os.path.join(out_dir, f) for f in os.listdir(out_dir) if f.endswith(".parquet")]
    )
    assert enc["codes"].type.list_size == 8
    # deterministic re-run (cached) and re-train agree
    books2 = similarity.pq_index(ds, out_dir)
    np.testing.assert_array_equal(books, books2)


def test_ivf_pq_composition(tmp_path):
    """Scale-path composition: IVF partition pruning + PQ codes within the
    probed clusters + exact re-rank — candidate I/O is nprobe partitions of
    8-byte codes, re-rank touches only candidates."""
    import os

    import pyarrow.dataset as pads

    ds = rd.read_parquet(EMB)
    ivf_dir = str(tmp_path / "ivfpq")
    cent = similarity.ivf_partition(ds, ivf_dir, n_centroids=8)
    q = np.asarray(
        pads.dataset(EMB).to_table(filter=pads.field("vec_id") == 0)["embedding"][0].as_py()
    )
    # PQ-index each probed cluster dir independently (per-partition codes)
    probe = np.argsort(
        -(similarity._normalize(np.atleast_2d(q.astype(np.float64))) @ cent.T), axis=1
    )[0, :4]
    cands = []
    for c in probe:
        cdir = os.path.join(ivf_dir, f"cluster={int(c)}")
        if not os.path.isdir(cdir):
            continue
        pq_dir = os.path.join(str(tmp_path), f"pq-{int(c)}")
        sub = rd.read_parquet(sorted(
            os.path.join(cdir, f) for f in os.listdir(cdir) if f.endswith(".parquet")
        ))
        similarity.pq_index(sub, pq_dir, m=8, ksub=64)
        res = similarity.knn_pq(pq_dir, q, k=10, rerank=30, source_path=EMB).to_pandas()
        cands.append(res)
    import pandas as pd

    merged = pd.concat(cands).sort_values(
        ["cosine", "vec_id"], ascending=[False, True]
    ).drop_duplicates("vec_id").head(10)
    brute = similarity.knn_brute(ds, q, k=10).to_pandas()
    recall = len(set(brute["vec_id"]) & set(merged["vec_id"])) / 10
    assert recall >= 0.5


def test_knn_filtered_prefilter_semantics(ray_session):
    """Pre-filter: exactly k results from the allowed set even when the
    unfiltered top-k is dominated by excluded labels."""
    import pyarrow.dataset as pads

    ds = rd.read_parquet(EMB)
    q = np.asarray(
        pads.dataset(EMB).to_table(filter=pads.field("vec_id") == 0)["embedding"][0].as_py()
    )
    labels = rd.read_parquet(EMB, columns=["vec_id", "label"]).to_pandas()
    allowed = [int(labels["label"].iloc[0])]
    got = similarity.knn_filtered(
        ds, q, k=10, filter_col="label", filter_values=allowed
    ).to_pandas()
    lab = dict(zip(labels["vec_id"], labels["label"]))
    assert len(got) == 10
    assert all(lab[v] in allowed for v in got["vec_id"])
    # equals brute-force over the pre-filtered corpus
    sub = rd.read_parquet(EMB).to_pandas()
    brute = similarity.knn_brute(
        rd.from_pandas(sub[sub["label"].isin(allowed)]), q, k=10
    ).to_pandas()
    assert list(got["vec_id"]) == list(brute["vec_id"])


def test_mmr_rerank_diversifies(ray_session):
    """MMR must (a) lead with the relevance top-1, (b) diverge from pure
    top-k when near-duplicates crowd the pool, (c) collapse to pure
    relevance order at lam=1.0."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.ops import similarity

    rng = np.random.default_rng(5)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    rows = []
    for i in range(6):  # near-clones of the query direction
        rows.append(q + 0.01 * rng.normal(size=4) + [0, 0.001 * i, 0, 0])
    for i in range(6):  # relevant but diverse directions
        v = q + 0.5 * np.eye(4)[1 + i % 3]
        rows.append(v / np.linalg.norm(v))
    t = pa.table({
        "vec_id": pa.array(list(range(12)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in rows],
                              pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(t)
    mmr = similarity.mmr_rerank(ds, q, k=4, pool=12, lam=0.5)
    top = similarity.knn_brute(ds, q, k=4).to_pandas()
    assert mmr["vec_id"].iloc[0] == top["vec_id"].iloc[0]
    assert list(mmr["vec_id"]) != list(top["vec_id"])  # clones displaced
    # some diverse-direction vector (id >= 6) must enter the MMR top-4
    assert any(v >= 6 for v in mmr["vec_id"])
    pure = similarity.mmr_rerank(ds, q, k=4, pool=12, lam=1.0)
    assert list(pure["vec_id"]) == list(top["vec_id"])


def test_knn_binary_recall_and_exactness(ray_session):
    """Hamming kNN is exact on its own contract and, at the fixture scale,
    its top pool recalls most of the true cosine top-10."""
    import ray.data as rd

    from harvester_ray.ops import similarity

    ds = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    import pandas as pd

    q = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet").iloc[0]["embedding"]
    import numpy as np

    q = np.asarray(q, dtype=np.float64)
    exact = set(similarity.knn_brute(ds, q, k=10).to_pandas()["vec_id"])
    pool = set(similarity.knn_binary(ds, q, k=50).to_pandas()["vec_id"])
    assert len(exact & pool) >= 6  # sign bits keep most true neighbors
    # determinism + partition independence
    a = similarity.knn_binary(ds, q, k=10).to_pandas()
    b = similarity.knn_binary(ds.repartition(7), q, k=10).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_percolate_qs_clause_semantics(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.ops import percolate

    docs = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([
            "alpha beta gamma",
            "beta alpha delta",
        ]),
    })
    qs = [
        (10, '"alpha beta"'),      # adjacency: doc 1 only
        (11, '"beta alpha"'),      # reversed: doc 2 only
        (12, "al* -gamma"),        # prefix + negation: doc 2 only
        (13, "alpha beta"),        # bare AND: both
        (14, "-alpha"),            # negation-only: rejected, matches none
    ]
    out = percolate.percolate_qs(rd.from_arrow(docs), qs)
    got = set(zip(out["doc_id"], out["query_id"]))
    assert got == {(1, 10), (2, 11), (2, 12), (1, 13), (2, 13)}


def test_knn_int8_recall_and_exactness(ray_session):
    """int8 scalar quantization: exact integer contract (partition
    independent), high recall of the true cosine top-10 (much finer than
    sign bits), and quantized codes stay in [-127, 127]."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from harvester_ray.ops import similarity

    ds = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    q = pd.read_parquet(
        "/root/testdata/sf0.001/embeddings.parquet"
    ).iloc[0]["embedding"]
    q = np.asarray(q, dtype=np.float64)
    exact = set(similarity.knn_brute(ds, q, k=10).to_pandas()["vec_id"])
    got = similarity.knn_int8(ds, q, k=10).to_pandas()
    # int8 keeps ~all true neighbors at this scale (binary only manages ~6)
    assert len(exact & set(got["vec_id"])) >= 8
    a = similarity.knn_int8(ds, q, k=10).to_pandas()
    b = similarity.knn_int8(ds.repartition(7), q, k=10).to_pandas()
    pd.testing.assert_frame_equal(a, b)
    # quantization range check via the query vector itself
    mx = np.abs(q).max()
    qq = np.floor(q * (127.0 / mx) + 0.5)
    assert qq.min() >= -127 and qq.max() <= 127



def test_knn_maxsim_late_interaction(ray_session):
    """MaxSim semantics: each query vector claims its best doc vector, so a
    doc holding one strong match PER query vector beats a doc whose single
    vector pools both directions — the ranking single-vector retrieval
    inverts. Partition independence + oracle parity via the driver gate."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.ops import similarity

    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    mid = (e1 + e2) / np.linalg.norm(e1 + e2)
    # doc 0 (vecs 0-1): e1 and e2 — perfect per-query matches
    # doc 1 (vecs 2-3): mid twice — pooled representation
    # doc 2 (vecs 4-5): orthogonal noise
    t = pa.table({
        "vec_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "embedding": [e1, e2, mid, mid,
                      np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0])],
    })
    ds = rd.from_arrow(t)
    got = similarity.knn_maxsim(
        ds, np.stack([e1, e2]), k=3, group_div=2
    ).to_pandas()
    assert list(got["doc"]) == [0, 1, 2]
    assert got["score"].iloc[0] == 2.0          # 1.0 + 1.0
    assert abs(got["score"].iloc[1] - 2 * float(e1 @ mid)) < 1e-3
    b = similarity.knn_maxsim(
        ds.repartition(3), np.stack([e1, e2]), k=3, group_div=2
    ).to_pandas()
    pd.testing.assert_frame_equal(got, b)


def test_minhash_short_docs_never_bucket(ray_session):
    """Docs shorter than the shingle window carry the sentinel signature;
    they must be dropped from banding (at corpus scale they'd otherwise all
    meet in ONE band bucket and pair quadratically) and never emit pairs."""
    import pandas as pd
    import ray.data as rd

    from harvester_ray.ops import dedup

    df = pd.DataFrame({
        "doc_id": list(range(6)),
        "text": ["a", "b b", "x", "",          # 4 shingle-less docs
                 "one two three four five six",
                 "one two three four five six"],  # one true dup pair
    })
    pairs = dedup.near_dup_minhash(
        rd.from_pandas(df), shingle_n=3, threshold=0.8
    ).to_pandas()
    assert set(zip(pairs["doc_a"], pairs["doc_b"])) == {(4, 5)}


def test_minhash_star_pairing_same_clusters(ray_session):
    """pairing="star" + referenced_only=True is the corpus-scale regime for
    connected-components dedup: it must union the same duplicate clusters
    (same dedup_corpus survivors) as the default all-pairs mode on a corpus
    of mutually-near-dup groups — while emitting at most c-1 edges per
    bucket instead of c(c-1)/2."""
    import pandas as pd
    import ray.data as rd

    from harvester_ray.ops import cluster, dedup

    rows = []
    for g in range(4):
        base = " ".join(f"g{g}word{k}" for k in range(10))  # disjoint vocab
        for m in range(5):  # 5 identical copies per group
            rows.append({"doc_id": g * 100 + m, "text": base})
    for i in range(20):  # singletons, no near-dups
        rows.append({"doc_id": 10_000 + i, "text": f"unique{i} " + " ".join(
            f"w{i}x{k}" for k in range(8))})
    df = pd.DataFrame(rows)

    import pyarrow as pa

    def survivors(**kw):
        ds = rd.from_arrow(pa.Table.from_pandas(df))
        pairs = dedup.near_dup_minhash(ds, threshold=0.8, **kw)
        out = cluster.dedup_corpus(
            rd.from_arrow(pa.Table.from_pandas(df)), pairs
        ).to_pandas()
        return sorted(out["doc_id"])

    full = survivors()
    star = survivors(pairing="star", referenced_only=True)
    assert star == full
    # one representative per identical group + every singleton
    assert star == [0, 100, 200, 300] + list(range(10_000, 10_020))

    # star candidate volume is linear: <= (c-1) * bands edges per group
    cands = dedup.minhash_lsh_candidates(
        rd.from_pandas(df), pairing="star"
    ).to_pandas()
    assert len(cands) <= 4 * 4  # 4 groups x (5-1) star edges, deduped


def test_minhash_max_bucket_caps_hot_buckets(ray_session):
    """max_bucket suppresses pair emission from band buckets above the cap
    (the all-pairs cost valve); below-cap buckets still emit."""
    import pandas as pd
    import ray.data as rd

    from harvester_ray.ops import dedup

    rows = [{"doc_id": i, "text": "hot bucket identical text one two three"}
            for i in range(10)]
    rows += [{"doc_id": 100 + i, "text": "cool pair distinct words four five six"}
             for i in range(2)]
    ds = rd.from_pandas(pd.DataFrame(rows))
    pairs = dedup.near_dup_minhash(ds, threshold=0.8, max_bucket=5).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert got == {(100, 101)}  # hot 10-doc bucket suppressed, cool pair kept


def test_star_pairing_on_simhash_and_embedding_lsh(ray_session):
    """The star/max_bucket valves on the sibling bucketed verifiers: star
    finds the identical-group edges through the representative; max_bucket
    suppresses over-cap buckets."""
    import pandas as pd
    import ray.data as rd

    from harvester_ray.ops import dedup

    df = pd.DataFrame({
        "doc_id": [5, 2, 9, 30],
        "text": ["same exact words one two three"] * 3
        + ["entirely different other tokens here"],
    })
    star = dedup.simhash_near_dups(
        rd.from_pandas(df), pairing="star"
    ).to_pandas()
    assert set(zip(star["doc_a"], star["doc_b"])) == {(2, 5), (2, 9)}
    capped = dedup.simhash_near_dups(
        rd.from_pandas(df), max_bucket=2
    ).to_pandas()
    assert len(capped) == 0  # the 3-doc bucket exceeds the cap

    v = [0.6, 0.8]
    emb = pd.DataFrame({
        "vec_id": [4, 1, 7, 50],
        "embedding": [v, v, v, [-0.8, 0.6]],
    })
    star_e = dedup.embedding_near_dups_lsh(
        rd.from_pandas(emb), threshold=0.99, pairing="star"
    ).to_pandas()
    assert set(zip(star_e["doc_a"], star_e["doc_b"])) == {(1, 4), (1, 7)}
    capped_e = dedup.embedding_near_dups_lsh(
        rd.from_pandas(emb), threshold=0.99, max_bucket=2
    ).to_pandas()
    assert len(capped_e) == 0


def test_url_dedup_normalization_and_selection():
    from harvester_ray.ops import urldedup

    urls = pd.Series(
        [
            "https://www.Site.org/a/b/?utm_source=x&ref=1&b=2#frag",
            "http://site.org/a/b?b=2&ref=1",  # same canonical form
            "https://site.org/a/b?ref=2",  # different param value
            "https://other.org/a/b?utm_source=x",  # all params tracking
            "http://other.org/a/b",  # same canonical as above
            None,
        ]
    )
    norm = urldedup.normalize_urls(urls)
    assert norm[0] == norm[1] == "site.org/a/b?b=2&ref=1"
    assert norm[2] == "site.org/a/b?ref=2"
    assert norm[3] == norm[4] == "other.org/a/b"
    assert norm[5] == ""

    ds = rd.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4, 5],
                "url": urls[:5],
                "quality": [10, 50, 7, 9, 9],
            }
        )
    )
    out = urldedup.url_dedup(ds).to_pandas().sort_values("norm_url").reset_index(drop=True)
    assert len(out) == 3
    row = out[out.norm_url == "site.org/a/b?b=2&ref=1"].iloc[0]
    assert row.doc_id == 2 and row.quality == 50 and row.n_dups == 2  # max quality wins
    row = out[out.norm_url == "other.org/a/b"].iloc[0]
    assert row.doc_id == 4 and row.n_dups == 2  # quality tie -> min doc_id


def test_gopher_rules_flags(ray_session):
    import ray.data as rd

    from harvester_ray.ops import text_analysis as ta

    rows = {
        # 25 words, mean len within [4,5] needs sum 100..125; "that"+"with" = 2 stop hits
        1: "that with " + " ".join(["word"] * 21) + " wordiest:",
        2: "that with shrt",                      # fails min_words
        3: "that with " + " ".join(["aa"] * 23),  # fails mean_len low
        4: " ".join(["word"] * 25),               # fails stopwords
        5: "",                                    # zero tokens: all count rules fail
    }
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(rows), pa.int64()),
                "text": pa.array(list(rows.values()), pa.string()),
            }
        )
    )
    out = (
        ta.gopher_rules(ds, min_words=20, max_words=90)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["keep"].tolist() == [True, False, False, False, False]
    assert out.loc[1, "r_min_words"] == False  # noqa: E712
    assert out.loc[2, "r_mean_len"] == False  # noqa: E712
    assert out.loc[3, "r_stopwords"] == False  # noqa: E712
    assert out.loc[4, "n_words"] == 0 and out.loc[4, "mean_word_len"] == 0.0


def _winnow_ds(texts):
    return rd.from_arrow(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts),
        })
    )


def test_winnow_guarantee_shared_run_surfaces(ray_session):
    # winnowing guarantee: a shared token run of length >= k + w - 1 (= 7)
    # must yield at least one common selected fingerprint
    run = "alpha beta gamma delta epsilon zeta eta"  # 7 tokens
    out = text_analysis.winnow_fingerprints(
        _winnow_ds([
            f"unrelated prefix words here {run} one suffix",
            f"other start {run} completely different ending tokens",
        ])
    )
    s0 = set(out[out["doc_id"] == 0]["fp"])
    s1 = set(out[out["doc_id"] == 1]["fp"])
    assert s0 & s1, "shared 7-token run produced no common fingerprint"


def test_winnow_density_and_short_docs(ray_session):
    toks = [f"w{i}" for i in range(100)]
    out = text_analysis.winnow_fingerprints(_winnow_ds([" ".join(toks)]))
    n_grams = 100 - 4 + 1
    # winnowing keeps roughly 2/(w+1) of grams; assert a sane sparse band
    assert n_grams * 0.15 <= len(out) <= n_grams * 0.6
    # < k tokens -> nothing; == k tokens -> exactly one fingerprint
    short = text_analysis.winnow_fingerprints(_winnow_ds(["a b c", "a b c d"]))
    assert sorted(short["doc_id"].unique()) == [1] and len(short) == 1


def test_winnow_partition_independent(ray_session):
    texts = [f"t{i % 9} t{i % 5} t{i % 7} shared middle words t{i % 3} tail" for i in range(50)]
    a = text_analysis.winnow_fingerprints(_winnow_ds(texts))
    b = text_analysis.winnow_fingerprints(_winnow_ds(texts).repartition(7))
    assert a.equals(b)


def test_knn_radius_matches_numpy_and_streams_multi_query(ray_session):
    rng = np.random.RandomState(3)
    mat = rng.randn(120, 8)
    ds = rd.from_arrow(
        pa.table({
            "vec_id": pa.array(range(120), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
        })
    ).repartition(5)
    qs = np.asarray(pa.array(mat[:2].tolist(), pa.list_(pa.float32())).to_pylist())
    out = similarity.knn_radius(ds, qs, threshold=0.5)
    n = mat.astype(np.float64)
    # mirror the engine's float path: vectors arrive as float32 lists
    n32 = np.asarray(pa.array(mat.tolist(), pa.list_(pa.float32())).to_pylist())
    n32 = n32 / np.linalg.norm(n32, axis=1, keepdims=True)
    qn = qs / np.linalg.norm(qs, axis=1, keepdims=True)
    for qi in range(2):
        sims = qn[qi] @ n32.T
        exp_ids = sorted(np.flatnonzero(sims >= 0.5))
        got = out[out["query_id"] == qi]
        assert sorted(got["vec_id"]) == exp_ids
        # self-match present with cosine 1.0, ordering desc
        assert got.iloc[0]["vec_id"] == qi and got.iloc[0]["cosine"] == 1.0
        assert (np.diff(got["cosine"].to_numpy()) <= 0).all()
    empty = similarity.knn_radius(ds, qs, threshold=1.5)
    assert empty.empty


def test_knn_int4_rescore_reorders_ties(ray_session):
    """4-bit recall ties two vectors (both quantize to the same code); the
    exact rescore must break the tie by true dot, overriding the vec_id
    tie-break the int4 ranking alone would use."""
    import numpy as np
    import ray.data as rd

    from harvester_ray.ops import similarity

    t = pa.table(
        {
            "vec_id": pa.array([1, 2], pa.int64()),
            # both map to int4 code [7, 0]; raw dots 0.84 < 0.86
            "embedding": pa.array([[0.84, 0.0], [0.86, 0.0]]),
        }
    )
    q = np.array([1.0, 0.0])
    out = similarity.knn_int4_rescore(rd.from_arrow(t), q, k=2, oversample=1).to_pandas()
    assert list(out["vec_id"]) == [2, 1]  # exact rescore wins over id order
    assert out.iloc[0]["int4_dot"] == out.iloc[1]["int4_dot"]  # genuine int4 tie
    assert out.iloc[0]["exact_dot"] == 0.86 and out.iloc[1]["exact_dot"] == 0.84


def test_cluster_purity_perfect_separation(ray_session):
    """Two tight groups aligned with labels → purity 1.0, NMI ≈ 1."""
    import numpy as np
    import ray.data as rd

    from harvester_ray.ops import kmeans

    vecs = [[1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [0.1, 0.9], [0.95, 0.0], [0.0, 0.95]]
    t = pa.table(
        {
            "vec_id": pa.array(range(6), pa.int64()),
            "embedding": pa.array(vecs),
            "label": pa.array([0, 1, 0, 1, 0, 1], pa.int32()),
        }
    )
    out = kmeans.cluster_purity(rd.from_arrow(t), k=2, iters=2)
    r = out.iloc[0]
    assert r["n"] == 6 and r["n_clusters"] == 2
    assert r["purity"] == 1.0
    assert 0.999 < r["nmi"] <= 1.0


def test_rbo_overlap_exact(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd

    from harvester_ray.ops import similarity

    a = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    b = np.array([3, 1, 7, 11, 12, 2, 13, 14, 15, 16])
    got = similarity.rbo_overlap(a, b)
    con = duckdb.connect()
    ra = ", ".join(f"({v}, {i+1})" for i, v in enumerate(a))
    rb = ", ".join(f"({v}, {i+1})" for i, v in enumerate(b))
    sql = (
        f"WITH ra AS (SELECT col0 AS id, col1 AS r FROM (VALUES {ra})), "
        f"rb AS (SELECT col0 AS id, col1 AS r FROM (VALUES {rb})), "
        + similarity.rbo_overlap_sql("ra", "rb")
    )
    exp = con.execute(sql).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # identical rankings → rbo = Σ 0.5^i, nano-quantized per term
    same = similarity.rbo_overlap(a, a)
    import math
    expect = sum(math.floor(0.5**i * 1e9 + 0.5) for i in range(1, 11)) / 1e9
    assert same.iloc[-1]["rbo"] == expect
    # disjoint → 0 everywhere
    disj = similarity.rbo_overlap(a, a + 100)
    assert (disj["rbo"] == 0).all()


def test_doc_skyline_oracle(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from harvester_ray.ops import text_analysis

    rng = np.random.default_rng(17)
    vocab = np.array([f"w{i}" for i in range(40)])
    docs = [
        " ".join(rng.choice(vocab, size=int(rng.integers(2, 60))))
        for _ in range(120)
    ]
    docs += [docs[0], docs[0]]  # exact ties: mutually non-dominated dups
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs})
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    got = text_analysis.doc_skyline(ds)
    con = duckdb.connect()
    con.register("documents", df)
    exp = con.execute(text_analysis.doc_skyline_sql("documents")).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert 1 <= len(got) < len(df)
    again = text_analysis.doc_skyline(ds.repartition(7))
    pd.testing.assert_frame_equal(got, again, check_dtype=False)


@pytest.mark.parametrize("entry", ["minhash_lsh_candidates", "minhash_candidates_cross"])
def test_minhash_bands_must_split_signature(ray_session, entry):
    """A band count that does not divide num_perm fails at the call site
    with both values named, not later as a reshape error inside a task."""
    import pandas as pd
    import ray.data as rd

    from harvester_ray.ops import dedup

    ds = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2], "text": ["a b c d", "a b c e"]}))
    args = (ds,) if entry == "minhash_lsh_candidates" else (ds, ds)
    with pytest.raises(ValueError, match=r"num_perm=60.*bands=16"):
        getattr(dedup, entry)(*args, num_perm=60, bands=16)
