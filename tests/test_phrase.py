"""Positional postings + phrase queries (Lucene .pos-stream analog;
simple_query_string quoted-phrase parity, core/models/search/query.py:81-86)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from harvester_ray import analyzer
from harvester_ray.index import build as ib
from harvester_ray.index import compact as ic
from harvester_ray.index import query as iq

SF_DIR = "/root/testdata/sf0.001"
DOCS = SF_DIR + "/documents.parquet"


def test_token_positions_basic():
    rows = np.array([0, 0, 0, 2, 2, 5])
    assert analyzer.token_positions(rows).tolist() == [0, 1, 2, 0, 1, 0]
    assert analyzer.token_positions(np.empty(0, np.int64)).size == 0


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("posidx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text"])
    man = ib.build_index(ds, root, input_desc=DOCS, store_positions=True)
    assert man["positions"] is True
    return root


def test_positions_roundtrip_vs_text(pos_index):
    """Decoded positions for a term must equal the token ordinals of that
    term in the analyzed text, for every doc of a sampled segment."""
    reader = iq.IndexReader(pos_index)
    seg = reader._segment(reader.manifest["segments"][0])
    assert seg.has_positions
    docs_pd = pd.read_parquet(DOCS)
    texts = dict(zip(docs_pd.doc_id, docs_pd.text))
    term = "the"
    res = seg.positions(term)
    if res is None:
        pytest.skip("term absent from first segment")
    docs, tfs, pos = res
    off = 0
    for d, f in zip(docs[:20], tfs[:20]):
        toks = analyzer.tokenize_query(texts[int(d)])
        expect = [i for i, t in enumerate(toks) if t == term]
        assert pos[off : off + f].tolist() == expect
        off += f


def test_phrase_search_matches_duckdb(pos_index):
    import duckdb

    from harvester_ray.index import oracle

    reader = iq.IndexReader(pos_index)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')"
    )
    for phrase in ("order fast", "part filter", "big order scan", "the the"):
        got = reader.search_phrase(phrase, k=10).to_pandas()[["doc_id", "score"]]
        got["score"] = got["score"].round(4)
        exp = con.execute(oracle.phrase_bm25_sql("documents", phrase, 10)).fetchdf()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), exp.reset_index(drop=True), check_dtype=False
        ), phrase


def test_proximity_search_matches_duckdb(pos_index):
    import duckdb

    from harvester_ray.index import oracle

    reader = iq.IndexReader(pos_index)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')"
    )
    for phrase, slop in (
        ("order fast", 2),
        ("part filter", 0),
        ("big order scan", 4),
        ("the the", 3),
    ):
        got = (
            reader.search_proximity(phrase, k=10, slop=slop)
            .to_pandas()[["doc_id", "score"]]
        )
        got["score"] = got["score"].round(4)
        exp = con.execute(
            oracle.proximity_bm25_sql("documents", phrase, slop, 10)
        ).fetchdf()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), exp.reset_index(drop=True), check_dtype=False
        ), (phrase, slop)


def test_proximity_widens_phrase(pos_index):
    """slop=0 ≡ exact phrase; growing slop must only grow the match set."""
    reader = iq.IndexReader(pos_index)
    phrase = "order fast"
    exact = reader.search_phrase(phrase, k=1000).to_pandas()
    prox0 = reader.search_proximity(phrase, k=1000, slop=0).to_pandas()
    pd.testing.assert_frame_equal(exact, prox0)
    sizes = [
        len(reader.search_proximity(phrase, k=10**6, slop=s)) for s in (0, 2, 8, 64)
    ]
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]  # the window does widen on this corpus


def test_phrase_absent_and_empty(pos_index):
    reader = iq.IndexReader(pos_index)
    assert reader.search_phrase("zzzz qqqq", k=5).num_rows == 0
    assert reader.search_phrase("", k=5).num_rows == 0


def test_compact_carries_positions(pos_index, tmp_path):
    """Phrase results must be identical before and after compaction."""
    reader = iq.IndexReader(pos_index)
    before = reader.search_phrase("order fast", k=10).to_pandas()
    man = ic.compact(pos_index, target_segments=2)
    assert man.get("positions") is True
    after = iq.IndexReader(pos_index).search_phrase("order fast", k=10).to_pandas()
    pd.testing.assert_frame_equal(before, after)


def test_phrase_without_positions_raises(tmp_path):
    root = str(tmp_path / "nopos")
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text"])
    ib.build_index(ds, root, input_desc=DOCS)
    with pytest.raises(ValueError, match="store_positions"):
        iq.IndexReader(root).search_phrase("order fast", k=5)


def test_incremental_inherits_positions(tmp_path):
    """A delta on a positional index builds positional delta segments and a
    phrase query sees the new docs (engine result vs brute-force text scan)."""
    from harvester_ray.index import incremental

    root = str(tmp_path / "incpos")
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text"])
    ib.build_index(ds, root, store_positions=True)
    delta = pd.DataFrame(
        [
            {"doc_id": 900001, "text": "alpha bravo charlie alpha bravo", "state": "active"},
            {"doc_id": 0, "text": "", "state": "deleted"},
        ]
    )
    man = incremental.build_incremental(
        root, rd.from_pandas(delta), integrity_check=False
    )
    assert man["positions"] is True
    out = iq.IndexReader(root).search_phrase("alpha bravo", k=5).to_pandas()
    assert out["doc_id"].tolist() == [900001]
    # deleted doc 0 must not appear in any phrase result
    res = iq.IndexReader(root).search_phrase("order fast", k=1000).to_pandas()
    assert 0 not in set(res["doc_id"])


def test_query_service_phrase_parity(pos_index):
    """Actor-pool phrase serving returns exactly the in-process result."""
    svc = iq.QueryService(pos_index, num_actors=2)
    reader = iq.IndexReader(pos_index)
    try:
        for phrase in ("order fast", "part filter", "big order scan"):
            a = svc.search_phrase(phrase, k=10).to_pandas()
            b = reader.search_phrase(phrase, k=10).to_pandas()
            pd.testing.assert_frame_equal(a, b), phrase
    finally:
        svc.shutdown()


def test_rescore_matches_oracle(pos_index):
    import duckdb

    from harvester_ray.index import extras, oracle

    reader = iq.IndexReader(pos_index)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    for q, slop in (("order fast", 2), ("part filter", 0), ("big order scan", 3)):
        got = extras.rescore(reader, q, window=20, k=10, slop=slop)
        exp = con.execute(
            oracle.rescore_sql("documents", q, window=20, k=10, slop=slop)
        ).fetchdf()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False), (q, slop)


def test_rescore_boosts_proximity_docs(pos_index):
    """A doc with the terms in close order must outrank equal-BM25 docs
    after rescoring whenever any proximity match exists in the window."""
    from harvester_ray.index import extras

    reader = iq.IndexReader(pos_index)
    q = "order fast"
    base = reader.search(q, k=10, mode="or").to_pandas()
    res = extras.rescore(reader, q, window=25, k=10, slop=2)
    prox = reader.search_proximity(q, k=10**6, slop=2).to_pandas()
    if not prox.empty:
        assert res["score"].iloc[0] > base["score"].iloc[0] - 1e-9
        assert res["doc_id"].iloc[0] in set(prox["doc_id"]) | set(base["doc_id"])
    assert extras.rescore(reader, "zzzznope", k=5).empty


def test_span_first_restricts_and_scores(pos_index):
    import duckdb

    from harvester_ray.index import extras, oracle

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    r = iq.IndexReader(pos_index)
    got = extras.search_span_first(r, "spark", end=8, k=10)
    exp = con.execute(
        oracle.span_first_bm25_sql("documents", "spark", 8, 10)
    ).fetchdf()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp, check_dtype=False
    )
    # the position restriction actually bites: fewer or different matches
    # than the unrestricted term query at a huge window
    wide = extras.search_span_first(r, "spark", end=10**9, k=1000)
    tight = extras.search_span_first(r, "spark", end=8, k=1000)
    assert len(tight) < len(wide)


def test_span_first_edges(pos_index):
    from harvester_ray.index import extras

    r = iq.IndexReader(pos_index)
    assert extras.search_span_first(r, "zzznope", end=5).empty  # absent term
    assert extras.search_span_first(r, "spark", end=0).empty    # empty window
    with pytest.raises(ValueError):
        extras.search_span_first(r, "two words", end=5)


def test_match_phrase_prefix_matches_oracle(pos_index):
    import duckdb

    from harvester_ray.index import extras, oracle

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    r = iq.IndexReader(pos_index)
    got = extras.search_match_phrase_prefix(r, "part s", k=10)
    exp = con.execute(
        oracle.phrase_prefix_bm25_sql("documents", "part s", 10)
    ).fetchdf()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp, check_dtype=False
    )
    # expansion cap is honored and deterministic
    capped = extras.search_match_phrase_prefix(r, "part s", max_expansions=1, k=10)
    exp_c = con.execute(
        oracle.phrase_prefix_bm25_sql("documents", "part s", 10, max_expansions=1)
    ).fetchdf()
    pd.testing.assert_frame_equal(
        capped.reset_index(drop=True), exp_c, check_dtype=False
    )
    # no expansions → empty
    assert extras.search_match_phrase_prefix(r, "part zzznope", k=5).empty


def test_query_string_combined_matches_oracle(pos_index):
    import duckdb

    from harvester_ray.index import extras, oracle

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    r = iq.IndexReader(pos_index)
    for qs in (
        '"part filter" window -dup b*',
        '"order fast" scan',
        'window -dup',
        '"part filter" zzznope',  # unsatisfiable bare term → empty
    ):
        got = extras.search_query_string(r, qs, k=10)
        exp = con.execute(oracle.query_string_sql("documents", qs, 10)).fetchdf()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), exp.reset_index(drop=True),
            check_dtype=False,
        ), qs
    with pytest.raises(ValueError):
        extras.search_query_string(r, "-dup", k=5)  # negation-only


# --- span_or / span_containing / span_within -------------------------------


def test_span_or_matches_oracle(pos_index):
    import duckdb

    from harvester_ray.index import extras, oracle

    reader = iq.IndexReader(pos_index)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    got = extras.search_span_or(reader, "dup batch stream", k=10)
    exp = con.execute(
        oracle.span_or_bm25_sql("documents", "dup batch stream", 10)
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)
    # degeneracy probe: pseudo-term scoring differs from the per-term-idf
    # bool disjunction on the same clause set
    bool_or = reader.search("dup batch stream", k=10, mode="or").to_pandas()
    bool_or["score"] = bool_or["score"].round(4)
    assert list(got["score"]) != list(bool_or["score"])


@pytest.mark.parametrize("mode", ["containing", "within"])
def test_span_containing_matches_oracle(pos_index, mode):
    import duckdb

    from harvester_ray.index import extras, oracle

    reader = iq.IndexReader(pos_index)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    got = extras.search_span_containing(
        reader, ("spark", "window"), "data", slop=4, mode=mode, k=10
    )
    exp = con.execute(
        oracle.span_containing_bm25_sql(
            "documents", ("spark", "window"), "data", slop=4, mode=mode, k=10
        )
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"]), mode
    np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)
    assert len(got) > 0, "degenerate fixture: no spans with enclosed term"


def test_span_containing_semantics_tiny():
    """Hand-built corpus: exact span accounting for both modes."""
    import shutil

    import duckdb
    import pyarrow.parquet as pq

    from harvester_ray.index import extras

    tmp = "/tmp/span_cont_tiny"
    shutil.rmtree(tmp, ignore_errors=True)
    import os

    os.makedirs(tmp)
    # doc 1: a..b window encloses x twice (two windows, two x's)
    # doc 2: a..b window with no x inside (x after b)
    # doc 3: x with no a..b window
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [
            "a x b a x x b",   # windows (1,3),(4,7)... slop=4 → plenty
            "a q q b x",
            "x q q q a",
        ],
    })
    pq.write_table(t, tmp + "/d.parquet")
    root = tmp + "/idx"
    ib.build_index(
        rd.read_parquet(tmp + "/d.parquet"), root, concurrency=1,
        store_positions=True,
    )
    r = iq.IndexReader(root)
    cont = extras.search_span_containing(
        r, ("a", "b"), "x", slop=4, mode="containing", k=10
    )
    within = extras.search_span_containing(
        r, ("a", "b"), "x", slop=4, mode="within", k=10
    )
    assert set(cont["doc_id"]) == {1}
    assert set(within["doc_id"]) == {1}
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{tmp}/d.parquet')"
    )
    from harvester_ray.index import oracle

    for mode, got in (("containing", cont), ("within", within)):
        exp = con.execute(
            oracle.span_containing_bm25_sql(
                "documents", ("a", "b"), "x", slop=4, mode=mode, k=10
            )
        ).fetchdf()
        assert list(got["doc_id"]) == list(exp["doc_id"]), mode
        np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)


def test_intervals_matches_oracle(pos_index):
    import duckdb

    from harvester_ray.index import extras, oracle

    reader = iq.IndexReader(pos_index)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    for q, gaps in (("spark window data", 3), ("part filter", 0), ("big order scan", 5)):
        got = extras.search_intervals(reader, q, max_gaps=gaps, k=10)
        exp = con.execute(
            oracle.intervals_bm25_sql("documents", q, max_gaps=gaps, k=10)
        ).fetchdf()
        assert list(got["doc_id"]) == list(exp["doc_id"]), (q, gaps)
        np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)


def test_intervals_semantics_tiny():
    """Gap budget is SHARED across links: 'a b c' with max_gaps=1 matches
    one filler total, not one per link; order is mandatory."""
    import shutil, os

    from harvester_ray.index import extras

    tmp = "/tmp/intervals_tiny"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    import pyarrow.parquet as pq

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [
            "a b c",        # 0 gaps: valid
            "a x b c",      # 1 gap total: valid at max_gaps=1
            "a x b y c",    # 2 gaps total: INVALID at max_gaps=1
            "c b a",        # wrong order: never valid
        ],
    })
    pq.write_table(t, tmp + "/d.parquet")
    root = tmp + "/idx"
    ib.build_index(
        rd.read_parquet(tmp + "/d.parquet"), root, concurrency=1,
        store_positions=True,
    )
    r = iq.IndexReader(root)
    got = extras.search_intervals(r, "a b c", max_gaps=1, k=10)
    assert set(got["doc_id"]) == {1, 2}
    got2 = extras.search_intervals(r, "a b c", max_gaps=2, k=10)
    assert set(got2["doc_id"]) == {1, 2, 3}


def test_span_multi_matches_oracle(pos_index):
    import duckdb

    from harvester_ray.index import extras, oracle

    reader = iq.IndexReader(pos_index)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    got = extras.search_span_multi(reader, "s", k=10)
    exp = con.execute(
        oracle.span_multi_bm25_sql("documents", "s", 10)
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)
    assert len(got) > 0, "degenerate fixture: prefix expands to nothing"
    # degeneracy probe: ONE-pseudo-term scoring differs from search_prefix's
    # per-term-idf disjunction over the same expansion
    pfx = reader.search_prefix("s", k=10).to_pandas()
    pfx["score"] = pfx["score"].round(4)
    assert list(got["score"]) != list(pfx["score"])
