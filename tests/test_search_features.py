import os

import duckdb
import numpy as np
import pytest
import ray.data as rd

from harvester_ray.index import build, oracle, query
from harvester_ray.pipelines import multilingual

SF_DIR = "/root/testdata/sf0.001"
DOCS = os.path.join(SF_DIR, "documents.parquet")


@pytest.fixture(scope="module")
def attr_index(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("attr_idx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "lang", "source"])
    build.build_index(ds, root, concurrency=2, attr_cols=["lang", "source"])
    return root


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{DOCS}')")
    return c


@pytest.mark.parametrize("mode", ["and", "or"])
def test_filtered_search_matches_oracle(attr_index, con, mode):
    """Filters restrict matches but do NOT change scoring stats
    (OpenSearch filter-context parity)."""
    filters = {"source": ["src0", "src1"]}
    got = (
        query.IndexReader(attr_index)
        .search("table", k=15, mode=mode, filters=filters)
        .to_pandas()
    )
    base_sql = oracle.bm25_sql("documents", "table", 10_000, mode=mode, round_digits=12)
    exp = con.execute(
        f"""
        WITH ranked AS ({base_sql})
        SELECT r.doc_id, r.score FROM ranked r
        JOIN documents d ON d.doc_id = r.doc_id
        WHERE d.source IN ('src0', 'src1')
        ORDER BY r.score DESC, r.doc_id ASC LIMIT 15
        """
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)


def test_filter_and_across_fields(attr_index):
    r = query.IndexReader(attr_index)
    both = r.search("table", k=100, filters={"source": ["src0"], "lang": ["en"]}).to_pandas()
    only_src = r.search("table", k=100, filters={"source": ["src0"]}).to_pandas()
    assert set(both["doc_id"]) <= set(only_src["doc_id"])


def test_filter_unknown_field_raises(attr_index):
    with pytest.raises(KeyError):
        query.IndexReader(attr_index).search("table", k=5, filters={"nope": ["x"]})


def test_recency_boost(tmp_path_factory, con):
    import pandas as pd

    root = str(tmp_path_factory.mktemp("ts_idx"))
    base = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": ["alpha beta"] * 3,  # identical BM25 scores
            "ts": pd.to_datetime(["2024-01-01", "2024-06-01", "2023-01-01"]),
        }
    )
    build.build_index(rd.from_pandas(base), root, concurrency=2, attr_cols=["ts"])
    origin = int(pd.Timestamp("2024-06-02").value // 1000)  # µs
    rec = {"origin_us": origin, "boost": 1.15}
    out = query.IndexReader(root).search("alpha", k=3, recency=rec).to_pandas()
    # newest doc first (distance_feature: closer ts → bigger boost)
    assert list(out["doc_id"]) == [1, 0, 2]
    # oracle check of the full score (BM25 + boost) for the top doc
    con2 = duckdb.connect()
    pivot_us = 90 * 86400 * 1_000_000
    exp = con2.execute(
        f"""
        WITH d AS (SELECT * FROM (VALUES (0, TIMESTAMP '2024-01-01'),
                                         (1, TIMESTAMP '2024-06-01'),
                                         (2, TIMESTAMP '2023-01-01')) AS t(doc_id, ts))
        SELECT doc_id, 1.15 * {pivot_us} /
               ({pivot_us} + abs({origin} - epoch_us(ts))) AS boost
        FROM d ORDER BY doc_id
        """
    ).fetchdf()
    base_score = out.loc[out.doc_id == 2, "score"].iloc[0] - exp.loc[2, "boost"]
    for d in [0, 1]:
        np.testing.assert_allclose(
            out.loc[out.doc_id == d, "score"].iloc[0],
            base_score + exp.loc[d, "boost"],
            rtol=1e-9,
        )


def test_language_routed_indexes(tmp_path_factory, con):
    root = str(tmp_path_factory.mktemp("langs"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "lang"])
    manifests = multilingual.build_language_indexes(ds, root, concurrency=2)
    assert set(manifests) == {"en", "nl", "unk", "all"}
    n_total = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert manifests["all"]["n_docs"] == n_total
    routed_sum = sum(manifests[r]["n_docs"] for r in ("en", "nl", "unk"))
    assert routed_sum == n_total
    # en-index results match an oracle restricted to clamped-en docs
    # (per-language stats: df/avgdl computed over the en corpus only)
    con.execute(
        "CREATE OR REPLACE VIEW docs_en AS SELECT * FROM documents "
        "WHERE (CASE WHEN lang IN ('en','nl') THEN lang ELSE 'unk' END) = 'en'"
    )
    exp = con.execute(oracle.bm25_sql("docs_en", "table", 10, round_digits=12)).fetchdf()
    got = multilingual.search_language(root, "table", k=10, language="en").to_pandas()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)
    # unknown language routes to 'all'
    all_res = multilingual.search_language(root, "table", k=10).to_pandas()
    assert len(all_res) == 10


def test_query_service_filters(attr_index):
    svc = query.QueryService(attr_index, num_actors=2)
    reader = query.IndexReader(attr_index)
    f = {"source": ["src0", "src1"]}
    try:
        a = svc.search("table", k=15, filters=f).to_pandas()
    finally:
        svc.shutdown()
    b = reader.search("table", k=15, filters=f).to_pandas()
    assert list(a["doc_id"]) == list(b["doc_id"])


# --- negated clauses / minimum_should_match / prefix expansion -------------

def test_must_not_matches_oracle(attr_index, con):
    got = (
        query.IndexReader(attr_index)
        .search("table", k=15, mode="and", must_not="sort")
        .to_pandas()
    )
    exp = con.execute(
        oracle.bm25_sql("documents", "table", 15, mode="and",
                        must_not="sort", round_digits=12)
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)
    # excluded docs really don't contain the negated term
    bad = con.execute(
        "SELECT doc_id FROM documents WHERE lower(text) LIKE '% sort %'"
    ).fetchdf()
    assert not set(got["doc_id"]) & set(bad["doc_id"])


def test_min_should_match_matches_oracle(attr_index, con):
    q = "dup the fast"
    got = (
        query.IndexReader(attr_index)
        .search(q, k=15, mode="or", min_should_match=2)
        .to_pandas()
    )
    exp = con.execute(
        oracle.bm25_sql("documents", q, 15, mode="or",
                        min_should_match=2, round_digits=12)
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)


def test_prefix_search_matches_oracle(attr_index, con):
    got = query.IndexReader(attr_index).search_prefix("s", k=15).to_pandas()
    exp = con.execute(
        oracle.bm25_prefix_sql("documents", "s", 15, round_digits=12)
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)


def test_prefix_expansion_cap(attr_index):
    r = query.IndexReader(attr_index)
    capped = r.search_prefix("s", k=15, max_expansions=1)
    # cap=1 keeps only the lexicographically first s-term
    segs = set()
    for m in r.manifest["segments"]:
        segs.update(r._segment(m).terms_with_prefix("s"))
    first = sorted(segs)[0]
    uncapped = r._search_terms([first], 15, "or").to_pandas()
    assert list(capped.to_pandas()["doc_id"]) == list(uncapped["doc_id"])


def test_search_after_cursor_equals_offset(attr_index, con):
    """Cursor page2 == OFFSET page_size of the rounded-score total order."""
    from harvester_ray.index import extras

    r = query.IndexReader(attr_index)
    p1 = extras.search_after(r, "table", k=5, mode="or")
    cur = (float(p1["score"].iloc[-1]), int(p1["doc_id"].iloc[-1]))
    p2 = extras.search_after(r, "table", after=cur, k=5, mode="or")
    exp = con.execute(
        "SELECT doc_id, score FROM ("
        + oracle.bm25_sql("documents", "table", 100000, mode="or")
        + ") ORDER BY score DESC, doc_id LIMIT 5 OFFSET 5"
    ).fetchdf()
    assert list(p2["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(p2["score"], exp["score"], atol=1e-9)
    assert not set(p1["doc_id"]) & set(p2["doc_id"])


def test_search_stats_matches_oracle(attr_index, con):
    from harvester_ray.index import extras

    r = query.IndexReader(attr_index)
    got = extras.search_stats(r, "table", by="source", mode="and")
    exp = con.execute("""
        WITH doclen AS (
          SELECT doc_id, len(regexp_extract_all(lower(regexp_replace(text, '<[^>]*>', ' ', 'g')), '[a-z0-9]+')) AS dl
          FROM documents
        ),
        toks AS (
          SELECT doc_id, unnest(regexp_extract_all(lower(regexp_replace(text, '<[^>]*>', ' ', 'g')), '[a-z0-9]+')) AS term
          FROM documents
        ),
        m AS (SELECT DISTINCT doc_id FROM toks WHERE term = 'table')
        SELECT d.source, count(*) AS n_matches,
               CAST(sum(dl.dl) AS BIGINT) AS dl_sum,
               floor(CAST(sum(dl.dl) AS BIGINT) * 1.0 / count(*) * 1e6 + 0.5) / 1e6 AS avg_dl
        FROM m JOIN doclen dl USING (doc_id) JOIN documents d USING (doc_id)
        GROUP BY d.source ORDER BY d.source
    """).fetchdf()
    assert list(got["source"]) == list(exp["source"])
    assert list(got["n_matches"]) == list(exp["n_matches"])
    assert list(got["dl_sum"]) == list(exp["dl_sum"])
    np.testing.assert_allclose(got["avg_dl"], exp["avg_dl"], atol=0)


def test_fuzzy_search_matches_oracle(attr_index, con):
    from harvester_ray.index import extras

    r = query.IndexReader(attr_index)
    got = extras.fuzzy_search(r, "tabel", k=10)  # 1 edit from 'table'
    pred = ("substr(term,1,1) = 't' AND abs(length(term) - 5) <= 1 "
            "AND levenshtein(term, 'tabel') <= 1")
    exp = con.execute(
        oracle.bm25_expansion_sql("documents", pred, 10, round_digits=12)
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)


def test_regexp_search_matches_oracle(attr_index, con):
    got = (
        query.IndexReader(attr_index)
        .search_regexp("s.*k|wind.w", k=15)
        .to_pandas()
    )
    exp = con.execute(
        oracle.bm25_expansion_sql(
            "documents", "regexp_full_match(term, 's.*k|wind.w')", 15,
            round_digits=12,
        )
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)
    # anchored: 'par' must NOT match 'spark' (substring would)
    r = query.IndexReader(attr_index)
    assert r.search_regexp("par", k=5).num_rows == 0
    assert r.search_regexp("", k=5).num_rows == 0


def test_match_fuzzy_matches_oracle(attr_index, con):
    from harvester_ray.index import extras

    got = extras.match_fuzzy(
        query.IndexReader(attr_index), "spork windov", k=15
    )
    pred = extras.match_fuzzy_predicate_sql("spork windov")
    exp = con.execute(
        oracle.bm25_expansion_sql("documents", pred, 15)
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)
    # clean query: expansions include the exact terms, so every exact-AND
    # hit is present in the fuzzy result set
    r = query.IndexReader(attr_index)
    fz = extras.match_fuzzy(r, "spark window", k=10**6)
    exact = r.search("spark window", k=10**6, mode="and").to_pandas()
    assert set(exact["doc_id"]).issubset(set(fz["doc_id"]))


def test_date_histogram_matches_oracle(tmp_path_factory, con):
    import pandas as pd

    from harvester_ray.index import oracle

    root = str(tmp_path_factory.mktemp("dh_idx"))
    base = pd.DataFrame({
        "doc_id": np.arange(8, dtype=np.int64),
        "text": ["alpha beta"] * 6 + ["gamma only"] * 2,
        "ts": pd.to_datetime([
            "2024-01-01 00:10", "2024-01-01 00:50", "2024-01-01 01:05",
            "2024-01-01 03:59", "2024-01-02 00:00", "2024-01-01 00:30",
            "2024-01-01 02:00", "2024-01-01 02:30",
        ]),
    })
    build.build_index(rd.from_pandas(base), root, concurrency=2, attr_cols=["ts"])
    got = query.IndexReader(root).date_histogram("alpha", interval_us=3_600_000_000)
    c = duckdb.connect()
    c.register("dhsrc", base)
    exp = c.execute(
        oracle.date_histogram_sql("dhsrc", "alpha", interval_us=3_600_000_000)
    ).fetchdf()
    assert list(got["bucket_us"]) == list(exp["bucket_us"])
    np.testing.assert_array_equal(got["doc_count"], exp["doc_count"])
    assert got["doc_count"].sum() == 6  # only the alpha docs


def test_range_filter_matches_oracle(attr_index, con):
    """Numeric/string range filter in filter context vs full-rank-then-
    filter SQL (scoring stats unchanged by the filter)."""
    got = (
        query.IndexReader(attr_index)
        .search("table", k=10, mode="and",
                filters={"source": {"gte": "src2", "lt": "src6"}})
        .to_pandas()
    )
    inner = oracle.bm25_sql("documents", "table", 100000, mode="and")
    exp = con.execute(
        f"WITH ranked AS ({inner}) "
        "SELECT r.doc_id, r.score FROM ranked r "
        "JOIN documents d ON d.doc_id = r.doc_id "
        "WHERE d.source >= 'src2' AND d.source < 'src6' "
        "ORDER BY r.score DESC, r.doc_id ASC LIMIT 10"
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"].round(4), exp["score"], atol=1e-9)
    # list filters still work combined with a range on another field
    both = (
        query.IndexReader(attr_index)
        .search("table", k=10, mode="and",
                filters={"lang": ["en"], "source": {"gte": "src2"}})
        .to_pandas()
    )
    assert len(both) > 0


# --- match_bool_prefix + terms_set ---------------------------------------


def test_match_bool_prefix_matches_oracle(attr_index, con):
    from harvester_ray.index import extras

    got = extras.search_match_bool_prefix(
        query.IndexReader(attr_index), "dup s", k=10
    )
    exp = con.execute(oracle.bool_prefix_bm25_sql("documents", "dup s", 10)).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)


def test_match_bool_prefix_differs_from_siblings(attr_index):
    """Degeneracy probe: the combined query is neither the fixed-term OR
    query nor the prefix-only expansion."""
    from harvester_ray.index import extras

    r = query.IndexReader(attr_index)
    got = extras.search_match_bool_prefix(r, "dup s", k=10)
    plain = r.search("dup", k=10, mode="or").to_pandas()
    pfx = r.search_prefix("s", k=10).to_pandas()
    assert list(got["doc_id"]) != list(plain["doc_id"])
    assert list(got["doc_id"]) != list(pfx["doc_id"])


@pytest.fixture(scope="module")
def req_index(tmp_path_factory):
    """Documents index with a numeric per-doc minimum_should_match attr."""
    import pyarrow as pa

    root = str(tmp_path_factory.mktemp("req_idx"))

    def _with_req(b: pa.Table) -> pa.Table:
        n = b["n_chars"].to_numpy(zero_copy_only=False).astype("int64")
        return b.append_column("req", pa.array(1 + (n % 3)))

    ds = rd.read_parquet(
        DOCS, columns=["doc_id", "text", "n_chars"]
    ).map_batches(_with_req, batch_format="pyarrow")
    build.build_index(ds, root, concurrency=2, attr_cols=["req"])
    return root


def test_terms_set_matches_oracle(req_index, con):
    from harvester_ray.index import extras

    terms = ["dup", "spark", "window"]
    got = extras.search_terms_set(
        query.IndexReader(req_index), terms, min_field="req", k=10
    )
    exp = con.execute(
        oracle.terms_set_sql("documents", terms, "1 + (n_chars % 3)", 10)
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)


def test_terms_set_per_doc_minimum_excludes(req_index, con):
    """The per-doc req actually bites: top-10 differs from the plain OR
    disjunction, and every survivor satisfies its own minimum."""
    from harvester_ray.index import extras

    r = query.IndexReader(req_index)
    terms = ["dup", "spark", "window"]
    got = extras.search_terms_set(r, terms, min_field="req", k=10)
    plain = r.search(" ".join(terms), k=10, mode="or").to_pandas()
    assert list(got["doc_id"]) != list(plain["doc_id"])
    req = dict(
        con.execute(
            "SELECT doc_id, 1 + (n_chars % 3) FROM documents"
        ).fetchall()
    )
    matched = dict(
        con.execute(
            """
            SELECT doc_id, count(DISTINCT term) FROM (
              SELECT doc_id, unnest("""
            + oracle.analyzer.sql_tokenize_expr("text")
            + """) AS term FROM documents
            ) WHERE term IN ('dup', 'spark', 'window') GROUP BY doc_id
            """
        ).fetchall()
    )
    for d in got["doc_id"]:
        assert matched[d] >= req[d]


def test_function_score_gauss_matches_oracle(tmp_path_factory, con):
    """Gauss decay × BM25: identical ranking + scores vs the mirrored SQL
    expression; decay actually reorders (doc far from origin demoted)."""
    import pandas as pd

    from harvester_ray.index import extras, oracle

    root = str(tmp_path_factory.mktemp("fs_idx"))
    base = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["alpha beta", "alpha beta", "alpha", "alpha beta beta"],
        "ts": pd.to_datetime([
            "2024-01-01", "2024-06-01", "2024-01-02", "2023-01-01"
        ]),
    })
    build.build_index(rd.from_pandas(base), root, concurrency=2, attr_cols=["ts"])
    origin = int(pd.Timestamp("2024-01-01").value // 1000)
    scale = 30 * 86_400_000_000  # 30 days
    got = extras.search_function_score(
        query.IndexReader(root), "alpha beta",
        origin_us=origin, scale_us=scale, decay=0.5, k=4,
    )
    c = duckdb.connect()
    c.register("t", base)
    exp = c.execute(
        oracle.function_score_sql(
            "t", "alpha beta", 4, origin_us=origin, scale_us=scale, decay=0.5
        )
    ).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], atol=1e-9)
    # doc 3 has the best raw BM25 (tf=2 for beta) but is a year stale —
    # the multiply must demote it below the on-origin docs
    assert list(got["doc_id"]).index(3) > list(got["doc_id"]).index(0)


def test_async_search_api(attr_index):
    svc = query.QueryService(attr_index, num_actors=2)
    try:
        sid = svc.submit("table scan", k=10, mode="or")
        got = svc.get(sid).to_pandas()
        sync = svc.search("table scan", k=10, mode="or").to_pandas()
        assert list(got["doc_id"]) == list(sync["doc_id"])
        assert list(got["score"]) == list(sync["score"])
        # ES semantics: result stays retrievable until explicitly deleted
        assert svc.status(sid) == {"is_running": False}
        again = svc.get(sid).to_pandas()
        assert list(again["doc_id"]) == list(got["doc_id"])
        assert svc.delete(sid) == {"acknowledged": True, "found": True}
        with pytest.raises(KeyError):
            svc.get(sid)
        # term-free / dead queries resolve at submit time
        sid2 = svc.submit("zzzznomatchzzzz")
        assert svc.status(sid2) == {"is_running": False}
        assert len(svc.get(sid2)) == 0
        # cancel (= ES DELETE) releases the state; unknown ids don't raise
        sid3 = svc.submit("table", k=5, mode="or")
        assert svc.cancel(sid3)["found"] is True
        with pytest.raises(KeyError):
            svc.get(sid3)
        assert svc.cancel("async-nope") == {"acknowledged": False, "found": False}
    finally:
        svc.shutdown()


def test_shut_down_service_raises_on_every_surface(attr_index):
    """A released pool must not answer as if nothing matched: every surface
    that answers from the actors raises, for matching and dead queries."""
    svc = query.QueryService(attr_index, num_actors=2)
    svc.shutdown()
    svc.shutdown()  # idempotent
    calls = {
        "search": lambda q: svc.search(q, k=5),
        "msearch": lambda q: svc.msearch([(q, "and"), (q, "or")]),
        "submit": lambda q: svc.submit(q),
        "warm": lambda q: svc.warm([q]),
        "search_phrase": lambda q: svc.search_phrase(q),
        "search_proximity": lambda q: svc.search_proximity(q, slop=1),
        "match_counts": lambda q: svc.match_counts(q, count_fields=["lang"]),
        "search_page": lambda q: svc.search_page(q, page=1, page_size=5),
        "search_page ordering": lambda q: svc.search_page(q, ordering="-source"),
        "did_you_mean": lambda q: svc.did_you_mean(q),
        "date_histogram": lambda q: svc.date_histogram(q),
        "actor_stats": lambda q: svc.actor_stats(),
    }
    for name, call in calls.items():
        for q in ("table scan", "tabel", "zzzznomatchzzzz", ""):
            with pytest.raises(RuntimeError, match="QueryService is shut down"):
                call(q)
                pytest.fail(f"{name}({q!r}) answered after shutdown")


def test_benchmark_trace_points_fire_once_per_service_search(attr_index, monkeypatch):
    """The benchmark's traced run splits a served query into layers by
    wrapping ``QueryService.df`` and ``query.merge_topk`` (looked up at call
    time) by assignment: each must fire exactly once per ``svc.search``
    that reaches the actors, or those layer metrics read nothing."""
    counts = {"df": 0, "merge_topk": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    svc = query.QueryService(attr_index, num_actors=2)
    try:
        monkeypatch.setattr(query.QueryService, "df", counted("df", query.QueryService.df))
        monkeypatch.setattr(query, "merge_topk", counted("merge_topk", query.merge_topk))
        for n, (q, mode) in enumerate([("table scan", "and"), ("table", "or"), ("query big", "or")], 1):
            assert len(svc.search(q, k=5, mode=mode)) > 0
            assert counts == {"df": n, "merge_topk": n}
    finally:
        svc.shutdown()


def test_author_suggestions(tmp_path_factory):
    """Docs matching the author's name in text but NOT listing it in the
    authors attr (reference search/views/similarity.py:84-110). Entry match
    is case-insensitive, trimmed, exact — a substring is not enough."""
    import numpy as np
    import pandas as pd

    from harvester_ray.index import extras

    root = str(tmp_path_factory.mktemp("authidx"))
    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "ada lovelace wrote the first program",   # 0: authored (listed)
            "the lovelace method cites ada lovelace", # 1: suggestion
            "ada lovelace appears in this survey",    # 2: suggestion
            "completely unrelated content here",      # 3: no text match
            "ada lovelace again",                     # 4: listed, mixed case
            "mentions ada only",                      # 5: partial text match
        ],
        "authors": [
            "Ada Lovelace|Co Author",
            "Other Writer",
            "",
            "Ada Lovelace",
            " ada LOVELACE ",       # trimmed + case-insensitive entry
            "Ada Lovelace Jr",      # different entry — NOT an exact match
        ],
    })
    build.build_index(rd.from_pandas(df), root, concurrency=2,
                      attr_cols=["authors"])
    reader = query.IndexReader(root)
    out = extras.author_suggestions(reader, "Ada Lovelace", k=10)
    assert set(out["doc_id"]) == {1, 2, 5}
    # ranking: BM25-OR order with rounded-score/doc_id tie-break
    plain = reader.search("ada lovelace", k=100, mode="or").to_pandas()
    plain["score"] = plain["score"].round(4)
    keep = plain[plain["doc_id"].isin([1, 2, 5])]
    keep = keep.sort_values(["score", "doc_id"], ascending=[False, True])
    assert list(out["doc_id"]) == list(keep["doc_id"])
    # oracle agreement on the same fixture
    import duckdb
    from harvester_ray.index import oracle as index_oracle

    con2 = duckdb.connect()
    con2.register("docs_a", df)
    exp = con2.execute(
        index_oracle.author_suggestions_sql("docs_a", "Ada Lovelace", 10)
    ).df()
    assert list(exp["doc_id"]) == list(out["doc_id"])
    np.testing.assert_allclose(exp["score"], out["score"], atol=1e-9)
    # empty-token and no-match edges
    assert extras.author_suggestions(reader, "!!!").empty
    assert extras.author_suggestions(reader, "zzznope").empty


def test_dictionary_decompound_wordlist(ray_session):
    """External-word-list decompounding (Lucene DictionaryCompoundWord
    TokenFilter brute force): substring membership with length gates;
    only_longest_match keeps the longest match per start position."""
    import pandas as pd

    from harvester_ray.index import synonyms

    ds = rd.from_pandas(pd.DataFrame({
        "text": ["fietspad naar het voetbalveld", "korte pad"],
    }))
    wl = ["fiets", "pad", "voet", "voetbal", "bal", "veld", "zzz"]
    out = synonyms.dictionary_decompound(ds, wl, min_word_size=5,
                                         min_subword_size=3)
    got = {(r.term, r.subword) for r in out.itertuples()}
    assert got == {
        ("fietspad", "fiets"), ("fietspad", "pad"),
        ("voetbalveld", "voet"), ("voetbalveld", "voetbal"),
        ("voetbalveld", "bal"), ("voetbalveld", "veld"),
    }  # "pad"(3) and "het"/"naar"/"korte" < min_word_size or no match
    # only_longest_match: at start 0 of voetbalveld keep "voetbal" not "voet"
    longest = synonyms.dictionary_decompound(
        ds, wl, min_word_size=5, min_subword_size=3, only_longest_match=True)
    lg = {(r.term, r.subword) for r in longest.itertuples()}
    assert ("voetbalveld", "voet") not in lg
    assert {("voetbalveld", "voetbal"), ("voetbalveld", "bal"),
            ("voetbalveld", "veld")} <= lg
    # oracle agreement on the same fixture (default flag)
    import duckdb

    import pyarrow.parquet as pq_
    import pyarrow as pa_
    import tempfile, os as os_
    d = tempfile.mkdtemp()
    path = os_.path.join(d, "docs.parquet")
    pq_.write_table(pa_.table({"text": ["fietspad naar het voetbalveld",
                                        "korte pad"]}), path)
    con2 = duckdb.connect()
    con2.execute(f"CREATE VIEW docs AS SELECT * FROM read_parquet('{path}')")
    exp = con2.execute(synonyms.dictionary_decompound_sql(
        "docs", wl, min_word_size=5, min_subword_size=3)).df()
    assert list(exp["term"]) == list(out["term"])
    assert list(exp["subword"]) == list(out["subword"])


def test_service_search_matches_reader(attr_index):
    """The actors' top-k (each actor's segments, one fan-out) returns
    exactly the in-process reader's results — both run ``topk_over`` — in
    both modes and with facet filters."""
    svc = query.QueryService(attr_index, num_actors=2)
    reader = query.IndexReader(attr_index)
    # each actor walks several segments, so its local merge is exercised
    assert len(svc.manifest["segments"]) > len(svc.actors)
    try:
        for q, mode, filters in [
            ("table scan", "or", None), ("table scan", "and", None),
            ("the fast key", "or", None), ("zzznope", "or", None),
            ("table", "and", {"source": ["src0", "src1"]}),
            ("table scan", "or", {"source": ["src0", "src1"]}),
        ]:
            a = svc.search(q, k=10, mode=mode, filters=filters).to_pandas()
            b = reader.search(q, k=10, mode=mode, filters=filters).to_pandas()
            assert list(a["doc_id"]) == list(b["doc_id"]), (q, mode, filters)
            np.testing.assert_allclose(a["score"], b["score"], atol=1e-12)
    finally:
        svc.shutdown()
