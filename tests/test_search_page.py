"""Paginated + attribute-ordered search (reference search request surface:
search/views/document.py:20-51 — page, page_size, ordering with '-' desc)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from harvester_ray.index import build as ib
from harvester_ray.index import query as iq

SF_DIR = "/root/testdata/sf0.001"
DOCS = SF_DIR + "/documents.parquet"


@pytest.fixture(scope="module")
def attr_index(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pageidx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "source", "lang"])
    ib.build_index(ds, root, attr_cols=["source", "lang"])
    return root


def test_pages_tile_the_ranking(attr_index):
    reader = iq.IndexReader(attr_index)
    full = reader.search("table", k=30, mode="and").to_pandas()
    pages = [
        reader.search_page("table", page=p, page_size=10, mode="and")
        for p in (1, 2, 3)
    ]
    tiled = pd.concat(pages, ignore_index=True)
    assert tiled["doc_id"].tolist() == full["doc_id"].tolist()
    assert tiled["rank"].tolist() == list(range(1, len(tiled) + 1))
    # pages beyond the result set are empty, not an error
    assert len(reader.search_page("table", page=500, page_size=10)) == 0


def test_ordering_matches_brute_force(attr_index):
    reader = iq.IndexReader(attr_index)
    docs_pd = pd.read_parquet(DOCS)
    from harvester_ray import analyzer

    match = docs_pd[
        docs_pd["text"].map(lambda s: "table" in analyzer.tokenize_query(s))
    ][["doc_id", "source"]]
    for ordering, asc in (("source", True), ("-source", False)):
        exp = match.sort_values(
            ["source", "doc_id"], ascending=[asc, True], kind="mergesort"
        ).head(15)
        got = reader.search_page(
            "table", page=1, page_size=15, ordering=ordering
        )
        assert got["doc_id"].tolist() == exp["doc_id"].tolist(), ordering
        assert got["source"].tolist() == exp["source"].tolist(), ordering


def test_ordering_second_page_and_filters(attr_index):
    reader = iq.IndexReader(attr_index)
    p1 = reader.search_page("table", page=1, page_size=7, ordering="source")
    p2 = reader.search_page("table", page=2, page_size=7, ordering="source")
    assert p2["rank"].tolist() == list(range(8, 8 + len(p2)))
    assert not set(p1["doc_id"]) & set(p2["doc_id"])
    # facet filter composes with ordering
    langs = ["en"]
    got = reader.search_page(
        "table", page=1, page_size=50, ordering="source", filters={"lang": langs}
    )
    vals = reader._segment(reader.manifest["segments"][0])  # smoke attr access
    assert (np.isin(got["doc_id"], pd.read_parquet(DOCS).query("lang in @langs")["doc_id"])).all()


def test_no_match_and_bad_page(attr_index):
    reader = iq.IndexReader(attr_index)
    empty = reader.search_page("zzznothere", page=1, page_size=5, ordering="source")
    assert len(empty) == 0 and list(empty.columns) == ["rank", "doc_id", "source"]
    with pytest.raises(ValueError):
        reader.search_page("table", page=0)


def test_did_you_mean(attr_index):
    reader = iq.IndexReader(attr_index)
    out = reader.did_you_mean("custmer filter tabel")
    got = dict(zip(out["token"], out["suggestion"]))
    assert got["filter"] == ""          # present token: nothing to correct
    assert got["custmer"] == "customer"
    assert got["tabel"] == "table"
    # uncorrectable garbage and empty query
    out2 = reader.did_you_mean("zzqqxx")
    assert out2["suggestion"].tolist() == [""]
    assert len(reader.did_you_mean("")) == 0


@pytest.mark.parametrize("backend", ["reader", "service"])
def test_did_you_mean_reads_every_prefix_in_one_fanout(attr_index, backend, monkeypatch):
    """A 3-typo query is one fan-out (one compiled-graph round trip on a
    service), not one per misspelled token; a query without typos is none."""
    b = iq.IndexReader(attr_index) if backend == "reader" else iq.QueryService(attr_index, num_actors=2)
    try:
        ops = []
        fanout = b._fanout
        monkeypatch.setattr(b, "_fanout", lambda op, *args: ops.append(op) or fanout(op, *args))
        out = b.did_you_mean("custmer filtr tabel")
        assert ops == ["prefix_vocab"]
        got = dict(zip(out["token"], out["suggestion"]))
        assert (got["custmer"], got["tabel"]) == ("customer", "table")
        assert all(got.values()), got
        ops.clear()
        assert b.did_you_mean("filter table")["suggestion"].tolist() == ["", ""]
        assert ops == []
    finally:
        if backend == "service":
            b.shutdown()


def test_levenshtein_batch_exact():
    from harvester_ray.index.extras import _levenshtein_batch

    import itertools

    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
        return dp[len(b)]

    words = ["table", "tale", "tables", "cab", "t", "tabel", "abcdefgh"]
    got = _levenshtein_batch("tabel", words)
    exp = [ref("tabel", w) for w in words]
    assert got.tolist() == exp


def test_query_service_extras_parity(attr_index):
    """QueryService match_counts / search_page / did_you_mean return exactly
    the in-process results (distributed serving parity)."""
    svc = iq.QueryService(attr_index, num_actors=2)
    reader = iq.IndexReader(attr_index)
    try:
        a = svc.match_counts("table", count_fields=["source"])
        b = reader.match_counts("table", count_fields=["source"])
        assert a == b

        for kw in (
            dict(page=2, page_size=7),
            dict(page=1, page_size=15, ordering="source"),
            dict(page=2, page_size=9, ordering="-source"),
            dict(page=1, page_size=10, ordering="source", filters={"lang": ["en"]}),
        ):
            da = svc.search_page("table", **kw).reset_index(drop=True)
            db = reader.search_page("table", **kw).reset_index(drop=True)
            pd.testing.assert_frame_equal(da[sorted(da.columns)], db[sorted(db.columns)]), kw

        da = svc.did_you_mean("custmer filter tabel zzqqxx")
        db = reader.did_you_mean("custmer filter tabel zzqqxx")
        pd.testing.assert_frame_equal(da, db)
    finally:
        svc.shutdown()
