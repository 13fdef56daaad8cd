import os

import duckdb
import numpy as np
import pytest
import ray.data as rd

from harvester_ray.index import build, extras, query

SF_DIR = "/root/testdata/sf0.001"
DOCS = os.path.join(SF_DIR, "documents.parquet")


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("xidx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "source", "lang"])
    build.build_index(ds, root, concurrency=2, attr_cols=["source", "lang"])
    return root


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    return c


def test_more_like_this(idx):
    reader = query.IndexReader(idx)
    out = extras.more_like_this(reader, doc_id=0, k=5).to_pandas()
    assert len(out) == 5
    assert 0 not in set(out["doc_id"])
    assert (out["score"].diff().dropna() <= 1e-12).all()  # descending
    # deterministic
    out2 = extras.more_like_this(reader, doc_id=0, k=5).to_pandas()
    assert list(out["doc_id"]) == list(out2["doc_id"])


def test_suggest_matches_oracle(idx, con):
    reader = query.IndexReader(idx)
    got = extras.suggest(reader, "s", limit=10)
    exp = con.execute(
        """
        WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM documents),
        stats AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term)
        SELECT term, df FROM stats WHERE term LIKE 's%'
        ORDER BY df DESC, term ASC LIMIT 10
        """
    ).fetchdf()
    assert list(got["term"]) == list(exp["term"])
    np.testing.assert_array_equal(got["df"].to_numpy(), exp["df"].to_numpy())


def test_match_counts_exact(idx, con):
    reader = query.IndexReader(idx)
    got = reader.match_counts("spark window", mode="and", count_fields=["source"])
    exp_total = con.execute(
        """
        WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM documents)
        SELECT count(*) FROM (
          SELECT doc_id FROM toks WHERE term IN ('spark','window')
          GROUP BY doc_id HAVING count(DISTINCT term) = 2)
        """
    ).fetchone()[0]
    assert got["results_total"] == {"value": exp_total, "is_precise": True}
    exp_counts = con.execute(
        """
        WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM documents),
        m AS (SELECT doc_id FROM toks WHERE term IN ('spark','window')
              GROUP BY doc_id HAVING count(DISTINCT term) = 2)
        SELECT d.source, count(*) AS n FROM documents d JOIN m ON d.doc_id = m.doc_id
        GROUP BY d.source ORDER BY d.source
        """
    ).fetchdf()
    assert got["filter_counts"]["source"] == dict(
        zip(exp_counts["source"], (int(x) for x in exp_counts["n"]))
    )


def test_match_counts_with_filters(idx):
    reader = query.IndexReader(idx)
    all_m = reader.match_counts("table", count_fields=["source"])
    filt = reader.match_counts(
        "table", count_fields=["source"], filters={"source": ["src0"]}
    )
    assert filt["results_total"]["value"] == all_m["filter_counts"]["source"].get("src0", 0)
    assert set(filt["filter_counts"]["source"]) <= {"src0"}


def test_match_counts_absent_term(idx):
    reader = query.IndexReader(idx)
    got = reader.match_counts("table zzzabsent", mode="and")
    assert got["results_total"]["value"] == 0


def test_more_like_this_matches_sql_oracle(idx, con):
    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    got = extras.more_like_this(reader, doc_id=0, k=10).to_pandas()
    exp = con.execute(oracle.more_like_this_sql("documents", 0, 10)).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(
        got["score"].round(4).to_numpy(), exp["score"].to_numpy(), atol=1e-6
    )


def test_ranking_eval_ndcg(idx, con):
    from harvester_ray.index import evaluate

    reader = query.IndexReader(idx)
    got = evaluate.evaluate_ranking(reader, k=10)
    assert ((got["ndcg"] >= 0) & (got["ndcg"] <= 1)).all()
    exp = con.execute(
        evaluate.evaluate_ranking_sql("documents", k=10)
    ).fetchdf().sort_values("query").reset_index(drop=True)
    assert list(got["query"]) == list(exp["query"])
    np.testing.assert_allclose(got["ndcg"].to_numpy(), exp["ndcg"].to_numpy(), atol=1e-6)
    np.testing.assert_allclose(got["mean_rel"].to_numpy(), exp["mean_rel"].to_numpy(), atol=1e-6)
    # the fixture must be able to DETECT a ranking regression: at least one
    # query's top-10 must have non-trivial ideal ordering (ndcg < 1)
    assert (got["ndcg"] < 1.0).any(), "query set is degenerate: every ndcg == 1"


def test_ndcg_unit():
    from harvester_ray.index.evaluate import ndcg_at_k

    assert ndcg_at_k(np.array([], dtype=float)) == 0.0
    assert ndcg_at_k(np.array([3.0, 2.0, 1.0])) == 1.0  # already ideal order
    worse = ndcg_at_k(np.array([1.0, 2.0, 3.0]))
    assert 0 < worse < 1.0
    assert ndcg_at_k(np.array([0.0, 0.0])) == 0.0  # no relevant docs


def test_explain_matches_oracle(idx, con):
    import pandas as pd

    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    for q in ("spark window", "the part", "order fast scan"):
        got = extras.explain(reader, q)
        exp = con.execute(oracle.explain_sql("documents", q)).fetchdf()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False), q


def test_explain_specific_doc_vs_text(idx):
    """tf/df in the breakdown must equal counts recomputed from raw text."""
    import pandas as pd

    from harvester_ray import analyzer

    reader = query.IndexReader(idx)
    top = reader.search("spark window", k=1, mode="and").to_pandas()
    doc = int(top["doc_id"].iloc[0])
    got = extras.explain(reader, "spark window", doc_id=doc)
    docs_pd = pd.read_parquet(DOCS, columns=["doc_id", "text"])
    toks = analyzer.tokenize_query(docs_pd.set_index("doc_id").loc[doc, "text"])
    for _, row in got.iterrows():
        assert row["tf"] == toks.count(row["term"])
        df_true = sum(
            row["term"] in analyzer.tokenize_query(t) for t in docs_pd["text"]
        )
        assert row["df"] == df_true
    # contributions sum to the search score (both rounded at 4)
    assert abs(got["score"].sum() - top["score"].iloc[0]) < 5e-4


def test_explain_edges(idx):
    reader = query.IndexReader(idx)
    assert extras.explain(reader, "").empty
    assert extras.explain(reader, "zzzznonexistent qqqq").empty
    # doc that lacks one query term: only present terms emit rows
    out = extras.explain(reader, "spark zzzznonexistent", doc_id=0)
    assert set(out["term"]).issubset({"spark"})


def test_search_collapse_matches_oracle(idx, con):
    import pandas as pd

    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    for q, mode in (("customer query big", "or"), ("spark window", "and"), ("the", "or")):
        got = extras.search_collapse(reader, q, field="source", k=10, mode=mode)
        exp = con.execute(
            oracle.collapse_sql("documents", q, field="source", k=10, mode=mode)
        ).fetchdf()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False), (q, mode)


def test_search_collapse_one_per_group(idx):
    reader = query.IndexReader(idx)
    got = extras.search_collapse(reader, "the", field="lang", k=100, mode="or")
    assert got["lang"].is_unique
    assert (got["score"].diff().dropna() <= 1e-12).all()  # ranked desc
    assert extras.search_collapse(reader, "", field="source").empty
    assert extras.search_collapse(reader, "zzzznope", field="source").empty


def test_significant_terms_matches_oracle(idx, con):
    import pandas as pd

    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    for q, mode in (("spark window", "and"), ("dup", "and"), ("customer query big", "or")):
        got = extras.significant_terms(reader, q, n=25, mode=mode)
        exp = con.execute(
            oracle.significant_terms_sql("documents", q, n=25, mode=mode)
        ).fetchdf()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False), (q, mode)


def test_significant_terms_properties(idx):
    reader = query.IndexReader(idx)
    got = extras.significant_terms(reader, "spark window", n=10)
    # query terms themselves are maximally foreground-concentrated: present
    assert {"spark", "window"} <= set(got["term"])
    assert (got["fg_df"] <= got["bg_df"]).all()
    assert (got["score"] > 0).all()
    assert extras.significant_terms(reader, "").empty
    assert extras.significant_terms(reader, "zzzznope").empty


def test_msearch_equals_independent_searches_and_oracle(idx, con):
    import pandas as pd

    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    qs = ["spark window", "vector stream sort", "customer query big"]
    for mode in ("and", "or"):
        got = reader.msearch(qs, k=10, mode=mode).to_pandas()
        # identical to Q independent search() calls, stacked in input order
        singles = []
        for q in qs:
            one = reader.search(q, k=10, mode=mode).to_pandas()
            one.insert(0, "query", q)
            singles.append(one)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), pd.concat(singles, ignore_index=True)
        )
        # value-identical to the oracle at 4 decimals
        got["score"] = got["score"].round(4)
        exp = con.execute(oracle.msearch_sql("documents", qs, 10, mode=mode)).fetchdf()
        key = ["query", "rank", "score", "doc_id"]
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True),
            exp[got.columns].sort_values(key).reset_index(drop=True),
            check_dtype=False,
        )
    # edges: empty list, no-token query, duplicate queries evaluated once
    assert reader.msearch([], k=5).num_rows == 0
    empt = reader.msearch(["???", "spark window", "spark window"], k=5).to_pandas()
    assert (empt["query"] == "spark window").all()


def test_search_parents_matches_oracle(idx, con):
    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    for mode, score_mode in [("or", "sum"), ("and", "sum"), ("or", "max")]:
        got = extras.search_parents(
            reader, "spark window", parent_field="source", k=10,
            mode=mode, score_mode=score_mode,
        )
        exp = con.execute(
            oracle.has_child_sql(
                "documents", "spark window", parent_col="source", k=10,
                mode=mode, score_mode=score_mode,
            )
        ).fetchdf()
        assert list(got["source"]) == list(exp["source"]), (mode, score_mode)
        np.testing.assert_allclose(
            got["score"].to_numpy(), exp["score"].to_numpy(), atol=1e-9
        )
        np.testing.assert_array_equal(
            got["n_hits"].to_numpy(), exp["n_hits"].to_numpy()
        )


def test_search_parents_modes(idx):
    reader = query.IndexReader(idx)
    s = extras.search_parents(reader, "spark window", parent_field="source",
                              k=100, score_mode="sum")
    m = extras.search_parents(reader, "spark window", parent_field="source",
                              k=100, score_mode="max")
    assert set(s["source"]) == set(m["source"])  # same matched parents
    sm = s.set_index("source")
    mm = m.set_index("source")
    # sum >= max per parent; equal iff a single hit
    for p in sm.index:
        assert sm.loc[p, "score"] >= mm.loc[p, "score"] - 1e-9
        if sm.loc[p, "n_hits"] == 1:
            assert abs(sm.loc[p, "score"] - mm.loc[p, "score"]) < 1e-9
    assert extras.search_parents(reader, "", parent_field="source").empty
    assert extras.search_parents(reader, "zzzznope", parent_field="source").empty


def test_search_boosting_matches_oracle(idx, con):
    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    for nb in (0.1, 0.5):
        got = extras.search_boosting(
            reader, "customer query big", "sort", negative_boost=nb, k=10
        )
        exp = con.execute(
            oracle.boosting_sql(
                "documents", "customer query big", "sort", negative_boost=nb, k=10
            )
        ).fetchdf()
        assert list(got["doc_id"]) == list(exp["doc_id"]), nb
        np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)
    # empty negative ≡ plain search ranking
    plain = extras.search_boosting(reader, "spark window", "", k=10)
    base = query.IndexReader(idx).search("spark window", k=10, mode="or").to_pandas()
    assert list(plain["doc_id"]) == list(base["doc_id"])
    # demoted docs are demoted, not dropped
    all_pos = query.IndexReader(idx).search(
        "customer query big", k=10**9, mode="or").to_pandas()
    all_boost = extras.search_boosting(
        reader, "customer query big", "sort", negative_boost=0.1, k=10**9)
    assert len(all_pos) == len(all_boost)


def test_terms_agg_exact_matches_oracle(idx, con):
    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    for mode in ("or", "and"):
        got = extras.terms_agg(
            reader, "spark window", field="source", size=20, mode=mode
        )
        exp = con.execute(
            oracle.terms_agg_sql(
                "documents", "spark window", field="source", size=20, mode=mode
            )
        ).fetchdf()
        assert list(got["source"]) == list(exp["source"]), mode
        np.testing.assert_array_equal(got["doc_count"], exp["doc_count"])
        assert (got["doc_count_error_upper_bound"] == 0).all()


def test_terms_agg_error_bound_holds(tmp_path, ray_session):
    """Under shard_size truncation, true_count <= doc_count + bound, and
    reported counts never exceed the truth."""
    import pandas as pd
    import ray.data as rd

    from harvester_ray.index import build as ib

    rng = np.random.default_rng(3)
    n = 600
    # skewed values so per-segment top-2 truncation actually hides mass
    vals = rng.choice([f"v{i}" for i in range(12)],
                      p=np.array([20, 12, 9, 8, 7, 6, 6, 6, 6, 6, 7, 7]) / 100,
                      size=n)
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": ["alpha common"] * n,
        "val": vals,
    })
    root = os.path.join(str(tmp_path), "ta-idx")
    ib.build_index(
        rd.from_pandas(df).repartition(6), root, attr_cols=["val"],
        concurrency=2,
    )
    reader = query.IndexReader(root)
    truth = df.groupby("val").size()
    approx = extras.terms_agg(
        reader, "alpha", field="val", size=12, shard_size=2
    )
    assert len(approx) > 0
    for _, row in approx.iterrows():
        t = int(truth[row["val"]])
        assert row["doc_count"] <= t
        assert t <= row["doc_count"] + row["doc_count_error_upper_bound"]
    # exact mode on the same index reproduces the truth
    exact = extras.terms_agg(reader, "alpha", field="val", size=12)
    got = dict(zip(exact["val"], exact["doc_count"]))
    assert got == truth.to_dict()
    assert (exact["doc_count_error_upper_bound"] == 0).all()


def test_suggest_phrases_matches_oracle(idx, con):
    reader = query.IndexReader(idx)
    for q in ("spork windov", "spark windov big", "customer"):
        got = extras.suggest_phrases(reader, q, n=5)
        exp = con.execute(
            extras.phrase_suggest_sql("documents", q, n=5)
        ).fetchdf()
        assert list(got["phrase"]) == list(exp["phrase"]), q
        np.testing.assert_array_equal(got["score"], exp["score"])
    # the top correction of a clean query is the query itself
    top = extras.suggest_phrases(reader, "spark window", n=1)
    assert top["phrase"][0] == "spark window"


def test_mine_hard_negatives_matches_oracle(idx, con):
    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    # positives = the engine's own top-2, so the anti-join must bite
    top2 = {
        q: list(reader.search(q, k=2, mode="or").to_pandas()["doc_id"])
        for q in ("spark window", "customer query big")
    }
    got = extras.mine_hard_negatives(reader, top2, k=5, mode="or")
    exp = con.execute(oracle.hard_negatives_sql("documents", top2, 5)).fetchdf()
    got_s = got.sort_values(["query", "rank"]).reset_index(drop=True)
    exp_s = exp.sort_values(["query", "rank"]).reset_index(drop=True)
    assert list(got_s["doc_id"]) == list(exp_s["doc_id"])
    np.testing.assert_allclose(got_s["score"], exp_s["score"], atol=1e-9)
    # no positive leaks into its own negatives
    for q, pos in top2.items():
        assert not set(got[got["query"] == q]["doc_id"]) & set(pos)


def test_top_hits_matches_oracle(idx, con):
    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    for mode in ("or", "and"):
        got = extras.top_hits(
            reader, "spark window", field="source", per_group=3,
            n_groups=5, mode=mode,
        )
        exp = con.execute(
            oracle.top_hits_sql(
                "documents", "spark window", field="source", per_group=3,
                n_groups=5, mode=mode,
            )
        ).fetchdf()
        assert list(got["doc_id"]) == list(exp["doc_id"]), mode
        np.testing.assert_array_equal(got["group_rank"], exp["group_rank"])
        np.testing.assert_array_equal(got["hit_rank"], exp["hit_rank"])
        np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)
    # group_rank 1's hit_rank 1 is the global best hit (collapse parity)
    col = extras.search_collapse(reader, "spark window", field="source", k=1)
    top = got[(got["group_rank"] == 1) & (got["hit_rank"] == 1)]
    assert top["doc_id"].iloc[0] == col["doc_id"].iloc[0]


@pytest.fixture(scope="module")
def pos_idx(tmp_path_factory):
    from harvester_ray.index import build as ib

    root = str(tmp_path_factory.mktemp("pos-idx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text"])
    ib.build_index(ds, root, concurrency=2, store_positions=True)
    return root


def test_termvectors_matches_oracle(pos_idx, con):
    reader = query.IndexReader(pos_idx)
    for d in (0, 7, 42):
        got = extras.termvectors(reader, d)
        exp = con.execute(extras.termvectors_sql("documents", d)).fetchdf()
        assert list(got["term"]) == list(exp["term"]), d
        np.testing.assert_array_equal(got["tf"], exp["tf"])
        np.testing.assert_array_equal(got["pos"], exp["pos"])
    assert extras.termvectors(reader, 10**9).empty


def test_percentiles_agg_matches_oracle(idx, con):
    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    for mode, q_text in [("or", "spark window"), ("and", "spark window"),
                         ("or", "customer query big")]:
        got = extras.percentiles_agg(reader, q_text, mode=mode)
        exp = con.execute(
            oracle.percentiles_agg_sql("documents", q_text, mode=mode)
        ).fetchdf()
        np.testing.assert_allclose(got["q"], exp["q"])
        np.testing.assert_allclose(got["value"], exp["value"], atol=1e-9), (mode, q_text)
    assert extras.percentiles_agg(reader, "zzzznope").empty


def test_span_near_matches_oracle(pos_idx, con):
    reader = query.IndexReader(pos_idx)
    for phrase, slop in [("spark window", 4), ("spark window", 10),
                         ("customer query big", 8)]:
        got = extras.search_span_near(reader, phrase, slop=slop, k=20)
        exp = con.execute(
            extras.span_near_sql("documents", phrase, slop=slop, k=20)
        ).fetchdf()
        assert list(got["doc_id"]) == list(exp["doc_id"]), (phrase, slop)
        np.testing.assert_array_equal(got["span_w"], exp["span_w"])
    # unordered: reversed phrasing matches the same docs
    a = extras.search_span_near(reader, "spark window", slop=10, k=10**6)
    b = extras.search_span_near(reader, "window spark", slop=10, k=10**6)
    assert list(a["doc_id"]) == list(b["doc_id"])


def test_boosted_terms_matches_oracle(idx, con):
    reader = query.IndexReader(idx)
    for q in ("spark^2 window", "customer^0.5 query big^3", "spark window"):
        got = extras.search_boosted_terms(reader, q, k=15)
        exp = con.execute(extras.boosted_terms_sql("documents", q, k=15)).fetchdf()
        assert list(got["doc_id"]) == list(exp["doc_id"]), q
        np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)
    # all-boost-1 equals the plain OR ranking
    plain = reader.search("spark window", k=15, mode="or").to_pandas()
    b1 = extras.search_boosted_terms(reader, "spark window", k=15)
    assert list(plain["doc_id"]) == list(b1["doc_id"])


def test_cardinality_agg_matches_oracle(idx, con):
    from harvester_ray import analyzer as _an

    reader = query.IndexReader(idx)
    for mode in ("or", "and"):
        got = extras.cardinality_agg(reader, "spark window", field="source", mode=mode)
        tok = _an.sql_tokenize_expr("text")
        having = "HAVING count(DISTINCT term) = 2" if mode == "and" else ""
        exp = con.execute(f"""
            WITH toks AS (SELECT doc_id, unnest({tok}) AS term FROM documents),
            m AS (SELECT doc_id FROM toks WHERE term IN ('spark', 'window')
                  GROUP BY doc_id {having})
            SELECT CAST(count(DISTINCT d.source) AS BIGINT) AS n_distinct
            FROM documents d JOIN m ON d.doc_id = m.doc_id
        """).fetchdf()
        np.testing.assert_array_equal(got["n_distinct"], exp["n_distinct"]), mode


def test_profile_search_counters(idx, con):
    reader = query.IndexReader(idx)
    prof = extras.profile_search(reader, "spark window", mode="or")
    assert prof["segments_touched"].iloc[0] <= prof["segments_total"].iloc[0]
    assert prof["live_terms"].iloc[0] == 2
    # candidates equals the true OR match count
    exp = con.execute("""
        WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM documents)
        SELECT count(DISTINCT doc_id) FROM toks WHERE term IN ('spark', 'window')
    """).fetchone()[0]
    assert prof["candidates"].iloc[0] == exp
    # postings_decoded = sum of per-term dfs (every doc posting decoded once)
    exp_p = con.execute("""
        WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM documents)
        SELECT count(DISTINCT (doc_id, term)) FROM toks WHERE term IN ('spark', 'window')
    """).fetchone()[0]
    assert prof["postings_decoded"].iloc[0] == exp_p
    # unknown term: nothing touched
    z = extras.profile_search(reader, "zzzznope")
    assert z["segments_touched"].iloc[0] == 0 and z["candidates"].iloc[0] == 0


def test_count_terminate_after(idx, con):
    reader = query.IndexReader(idx)
    true_n = con.execute("""
        WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM documents)
        SELECT count(DISTINCT doc_id) FROM toks WHERE term IN ('spark', 'window')
    """).fetchone()[0]
    # huge threshold: exact, not terminated
    full = extras.count_terminate_after(reader, "spark window",
                                        terminate_after=10**9)
    assert full["count"][0] == true_n and not full["terminated"][0]
    # small threshold: terminated lower bound within [threshold, true]
    part = extras.count_terminate_after(reader, "spark window",
                                        terminate_after=3)
    assert part["terminated"][0]
    assert 3 <= part["count"][0] <= true_n


AGG_FILTERS = {
    "english": {"lang": ["en"]},
    "low_src": {"source": ["src0", "src1", "src2", "src3"]},
    "romance": {"lang": ["es", "fr"]},
}


def test_filters_agg_partition_invariants(idx):
    reader = query.IndexReader(idx)
    out = extras.filters_agg(reader, "customer query big", AGG_FILTERS, mode="or")
    assert list(out["bucket"]) == sorted(out["bucket"])
    total = reader.match_counts("customer query big", mode="or")[
        "results_total"]["value"]
    named = out[out["bucket"] != "_other_"]["doc_count"]
    other = int(out[out["bucket"] == "_other_"]["doc_count"].iloc[0])
    # english & romance are disjoint and low_src overlaps both, so named sums
    # can exceed the total, but other + max coverage never undershoots it
    assert other <= total and named.sum() + other >= total
    # disjoint lang buckets + other partition is exact when filters cover langs
    full = extras.filters_agg(
        reader, "customer query big",
        {"en": {"lang": ["en"]}, "rest": {"lang": ["de", "es", "fr", "zh"]}},
        mode="or",
    )
    assert int(full["doc_count"].sum()) == total  # other == 0, exact partition


def test_adjacency_matrix_bounds(idx):
    reader = query.IndexReader(idx)
    adj = extras.adjacency_matrix(reader, "customer query big", AGG_FILTERS, mode="or")
    single = dict(zip(adj["bucket"], adj["doc_count"]))
    # every pair intersection is bounded by both singles; disjoint pair absent
    for b, c in single.items():
        if "&" in b:
            a_, b_ = b.split("&")
            assert c <= single[a_] and c <= single[b_]
    assert "english&romance" not in single  # disjoint lang filters


def test_composite_agg_pagination_covers_all(idx):
    reader = query.IndexReader(idx)
    full = extras.composite_agg(
        reader, "customer query big", sources=("source", "lang"),
        size=10**9, mode="or",
    )
    pages = []
    after = None
    while True:
        p = extras.composite_agg(
            reader, "customer query big", sources=("source", "lang"),
            size=7, after=after, mode="or",
        )
        if p.empty:
            break
        pages.append(p)
        after = (str(p["source"].iloc[-1]), str(p["lang"].iloc[-1]))
    import pandas as pd

    paged = pd.concat(pages).reset_index(drop=True)
    pd.testing.assert_frame_equal(paged, full)


def test_search_pinned_contract(idx):
    reader = query.IndexReader(idx)
    organic = reader.search("customer query big", k=13, mode="or").to_pandas()
    pinned = [int(organic["doc_id"].iloc[2]), 999999]  # one organic, one absent
    out = extras.search_pinned(reader, "customer query big", pinned, k=10, mode="or")
    # pinned first, curator order, even when the id matches nothing
    assert out["doc_id"].iloc[0] == pinned[0] and out["doc_id"].iloc[1] == 999999
    assert out["pinned"].tolist()[:2] == [True, True]
    # no duplicates: the organically-matching pinned id appears exactly once
    assert (out["doc_id"] == pinned[0]).sum() == 1
    assert out["rank"].tolist() == list(range(1, 11))


def test_search_bool_semantics(idx, con):
    from harvester_ray.index import oracle

    reader = query.IndexReader(idx)
    got = extras.search_bool(
        reader, must="spark", should="window batch", must_not="dup", k=10
    )
    exp = con.execute(oracle.bool_bm25_sql(
        "documents", must="spark", should="window batch", must_not="dup", k=10
    )).fetchdf()
    import pandas as pd

    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # must_not actually excludes: no result doc contains 'dup'
    wide = extras.search_bool(reader, must="spark", must_not="dup", k=10**6)
    dup_docs = set(
        extras.search_bool(reader, must="dup", k=10**6)["doc_id"]
    )
    assert not (set(wide["doc_id"]) & dup_docs)
    # a should term can only raise a doc's score, never drop it
    base = extras.search_bool(reader, must="spark", k=10**6).set_index("doc_id")
    plus = extras.search_bool(reader, must="spark", should="window", k=10**6).set_index("doc_id")
    assert set(base.index) == set(plus.index)
    assert (plus.loc[base.index, "score"] >= base["score"] - 1e-9).all()
    # empty must degrades to plain OR over should terms
    or_only = extras.search_bool(reader, should="spark window", k=10)
    direct = reader.search("spark window", k=10, mode="or").to_pandas()
    assert list(or_only["doc_id"]) == list(direct["doc_id"])


def test_parse_query_string_clauses():
    c = extras.parse_query_string('"big scan" -dup fast s* "part filter" -Nope')
    assert c["phrases"] == ["big scan", "part filter"]
    assert c["plain"] == ["fast"]
    assert c["prefixes"] == ["s"]
    assert c["negs"] == ["dup", "nope"]


def test_export_search_resumes(idx, tmp_path):
    import glob
    import os

    reader = query.IndexReader(idx)
    out = str(tmp_path / "exp")
    r1 = extras.export_search(reader, "customer query big", out, mode="or")
    assert r1["shards"] > 0 and r1["skipped"] == 0
    files = sorted(glob.glob(os.path.join(out, "*.parquet")))
    mtimes = {f: os.path.getmtime(f) for f in files}
    # delete one shard's marker → only that shard rebuilds on resume
    victim = files[0]
    os.remove(victim + ".done")
    r2 = extras.export_search(reader, "customer query big", out, mode="or")
    assert r2["rows"] == r1["rows"]
    assert r2["skipped"] == r1["shards"] - 1
    for f in files[1:]:
        assert os.path.getmtime(f) == mtimes[f]  # untouched by mtime


# --- extended_stats / MAD / string_stats / t_test ---------------------------


def test_extended_stats_matches_oracle(idx, con):
    import pandas as pd

    from harvester_ray.index import oracle

    got = extras.extended_stats_agg(query.IndexReader(idx), "table scan", mode="or")
    exp = con.execute(
        oracle.extended_stats_sql("documents", "table scan", mode="or")
    ).fetchdf()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True), check_dtype=False
    )
    # invariants: bounds bracket the mean, variance >= 0
    r = got.iloc[0]
    assert r.lower_2sd <= r.avg_dl <= r.upper_2sd
    assert r.variance >= 0


def test_mad_matches_oracle(idx, con):
    import pandas as pd

    from harvester_ray.index import oracle

    got = extras.mad_agg(query.IndexReader(idx), "table scan", mode="or")
    exp = con.execute(oracle.mad_sql("documents", "table scan", mode="or")).fetchdf()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True), check_dtype=False
    )
    assert got.iloc[0]["mad"] >= 0


def test_mad_handmade():
    """dl values 2,3,7,50 → median 5.0, deviations 3,2,2,45 → mad 2.5."""
    import numpy as np

    from harvester_ray.index.extras import mad_agg  # noqa: F401 (api presence)

    # exercise the internal histogram quantile directly via a tiny index
    import shutil

    tmp = "/tmp/mad_tiny"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    import pyarrow as pa
    import pyarrow.parquet as pq

    texts = ["a b", "a b b", "a b b b b b b", "a " + "b " * 49]
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "text": texts})
    pq.write_table(t, tmp + "/d.parquet")
    root = tmp + "/idx"
    build.build_index(rd.read_parquet(tmp + "/d.parquet"), root, concurrency=1)
    out = extras.mad_agg(query.IndexReader(root), "a", mode="or")
    assert out.iloc[0]["median_dl"] == 5.0
    assert out.iloc[0]["mad"] == 2.5


def test_string_stats_matches_oracle(idx, con):
    import pandas as pd

    from harvester_ray.index import oracle

    got = extras.string_stats_agg(
        query.IndexReader(idx), "table scan", field="source", mode="or"
    )
    exp = con.execute(
        oracle.string_stats_sql("documents", "table scan", field="source", mode="or")
    ).fetchdf()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True), check_dtype=False
    )
    # entropy of srcNN strings: > 0 (mixed chars), <= log2(alphabet)
    assert 0 < got.iloc[0]["entropy"] < 6


def test_t_test_matches_oracle(idx, con):
    import pandas as pd

    from harvester_ray.index import oracle

    got = extras.t_test_agg(
        query.IndexReader(idx), "table scan", field="source",
        group_a="src0", group_b="src1", mode="or",
    )
    exp = con.execute(
        oracle.t_test_sql(
            "documents", "table scan", field="source",
            group_a="src0", group_b="src1", mode="or",
        )
    ).fetchdf()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True), check_dtype=False
    )


def test_t_test_zero_when_identical():
    """Same group on both sides → t = 0 exactly (engine edge, no oracle)."""
    import shutil

    tmp = "/tmp/ttest_tiny"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": ["a b", "a b c", "a b", "a b c"],
        "g": ["x", "x", "y", "y"],
    })
    pq.write_table(t, tmp + "/d.parquet")
    root = tmp + "/idx"
    build.build_index(
        rd.read_parquet(tmp + "/d.parquet"), root, concurrency=1, attr_cols=["g"]
    )
    out = extras.t_test_agg(
        query.IndexReader(root), "a", field="g", group_a="x", group_b="y"
    )
    assert out.iloc[0]["t_stat"] == 0.0


def test_has_parent_inherits_and_orders():
    """has_parent: children inherit the parent's has_child-sum score; all
    turns of a matching conversation surface, ordered by parent score then
    doc id; conversations without a match never surface."""
    import shutil

    import pandas as pd

    tmp = "/tmp/hasparent_tiny"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "text": ["needle a", "filler b", "needle needle c", "filler d",
                 "nothing here", "quiet too"],
        "conv": ["c1", "c1", "c2", "c2", "c3", "c3"],
    })
    pq.write_table(t, tmp + "/d.parquet")
    root = tmp + "/idx"
    build.build_index(
        rd.read_parquet(tmp + "/d.parquet"), root, concurrency=1,
        attr_cols=["conv"],
    )
    r = query.IndexReader(root)
    got = extras.search_has_parent(r, "needle", parent_field="conv", k=10)
    # c2 scores higher (tf=2), then c1; c3 absent; both turns of each conv
    assert list(got["doc_id"]) == [2, 3, 0, 1]
    assert got["score"].iloc[0] == got["score"].iloc[1]
    parents = extras.search_parents(r, "needle", parent_field="conv", k=10)
    by_conv = dict(zip(parents["conv"], parents["score"]))
    assert got["score"].iloc[0] == by_conv["c2"]
    assert got["score"].iloc[2] == by_conv["c1"]
