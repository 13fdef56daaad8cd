"""ES _search request executor: envelope shape + component equivalence."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from harvester_ray.index import api, build, dsl, extras, query

SF_DIR = "/root/testdata/sf0.001"
DOCS = os.path.join(SF_DIR, "documents.parquet")


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("apiidx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "source", "lang"])
    build.build_index(ds, root, concurrency=2, attr_cols=["source", "lang"],
                      store_positions=True)
    return query.IndexReader(root)


def test_query_from_size(idx):
    body = {"query": {"match": {"text": "table scan"}}, "from": 5, "size": 5}
    resp = api.search_request(idx, body)
    full = dsl.execute_dsl(idx, {"match": {"text": "table scan"}}, k=10)
    assert [h["_id"] for h in resp["hits"]["hits"]] == list(full["doc_id"].iloc[5:])
    assert [h["_score"] for h in resp["hits"]["hits"]] == list(full["score"].iloc[5:])


def test_track_total_and_aggs(idx):
    body = {
        "query": {"match": {"text": {"query": "table scan", "operator": "and"}}},
        "size": 3,
        "track_total_hits": True,
        "aggs": {"by_source": {"terms": {"field": "source", "size": 4}}},
    }
    resp = api.search_request(idx, body)
    counts = idx.match_counts("table scan", mode="and")
    assert resp["hits"]["total"]["value"] == counts["results_total"]["value"]
    terms = extras.terms_agg(idx, "table scan", field="source", size=4, mode="and")
    assert resp["aggregations"]["by_source"] == terms.to_dict("records")
    assert len(resp["hits"]["hits"]) == 3


def test_sort_by_attribute(idx):
    body = {
        "query": {"match": {"text": {"query": "table", "operator": "and"}}},
        "sort": [{"source": {"order": "desc"}}],
        "size": 6,
    }
    resp = api.search_request(idx, body)
    page = idx.search_page(
        "table", page=1, page_size=6, mode="and", ordering="-source"
    )
    assert [h["_id"] for h in resp["hits"]["hits"]] == list(page["doc_id"])
    vals = [h["_sort"] for h in resp["hits"]["hits"]]
    assert vals == sorted(vals, reverse=True)


def test_suggest_and_explain_blocks(idx):
    from harvester_ray.index import extras

    resp = api.search_request(idx, {
        "query": {"match": {"text": "table"}},
        "size": 2,
        "explain": True,
        "suggest": {
            "fix": {"text": "tabel", "term": {"max_edits": 2}},
            "phrase_fix": {"text": "tabel scna", "phrase": {"max_edits": 1}},
            "auto": {"prefix": "sc", "completion": {"size": 5}},
        },
    })
    assert resp["suggest"]["fix"] == idx.did_you_mean(
        "tabel", max_edits=2).to_dict("records")
    assert resp["suggest"]["phrase_fix"] == extras.suggest_phrases(
        idx, "tabel scna", max_edits=1).to_dict("records")
    assert resp["suggest"]["auto"] == extras.suggest(
        idx, "sc", limit=5).to_dict("records")
    for h in resp["hits"]["hits"]:
        ex = resp["explanations"][h["_id"]]
        assert ex == extras.explain(idx, "table", doc_id=h["_id"]).to_dict("records")
        # the explanation's per-term contributions sum to the hit's score
        total = round(sum(r["score"] for r in ex), 4)
        assert abs(total - h["_score"]) < 2e-4


def test_aggdsl_new_pipeline_types(idx):
    from harvester_ray.index import aggdsl

    with pytest.raises(ValueError):
        aggdsl.execute_aggs(idx, "table", {"x": {"nope": {}}})


def test_collapse_block(idx):
    body = {"query": {"match": {"text": "table scan"}},
            "collapse": {"field": "source"}, "size": 4}
    resp = api.search_request(idx, body)
    direct = extras.search_collapse(idx, "table scan", field="source", k=4, mode="or")
    assert [h["_id"] for h in resp["hits"]["hits"]] == list(direct["doc_id"])
    assert [h["fields"]["source"][0] for h in resp["hits"]["hits"]] == list(
        direct["source"])


def test_search_after_block(idx):
    first = api.search_request(
        idx, {"query": {"match": {"text": "table scan"}}, "size": 3})
    cursor = first["hits"]["hits"][-1]
    body = {"query": {"match": {"text": "table scan"}},
            "search_after": [cursor["_score"], cursor["_id"]], "size": 3}
    resp = api.search_request(idx, body)
    direct = extras.search_after(
        idx, "table scan", after=(cursor["_score"], cursor["_id"]), k=3, mode="or")
    assert [h["_id"] for h in resp["hits"]["hits"]] == list(direct["doc_id"])
    assert all("sort" in h for h in resp["hits"]["hits"])


def test_rescore_block(idx):
    body = {"query": {"match": {"text": "table scan"}}, "size": 5,
            "rescore": {"window_size": 20, "query": {
                "rescore_query": {"match_phrase": {"text": {"query": "table scan",
                                                            "slop": 1}}},
                "rescore_query_weight": 3.0}}}
    resp = api.search_request(idx, body)
    direct = extras.rescore(idx, "table scan", window=20, k=5, slop=1, weight=3.0)
    assert [h["_id"] for h in resp["hits"]["hits"]] == list(direct["doc_id"])
    # operator:and must reach the primary phase (ADVICE r2: mode was dropped)
    abody = {"query": {"match": {"text": {"query": "table scan",
                                          "operator": "and"}}}, "size": 5,
             "rescore": body["rescore"]}
    aresp = api.search_request(idx, abody)
    adirect = extras.rescore(idx, "table scan", window=20, k=5, slop=1,
                             weight=3.0, mode="and")
    assert [h["_id"] for h in aresp["hits"]["hits"]] == list(adirect["doc_id"])
    # and-mode recall is a strict subset of or-mode recall here
    assert set(adirect["doc_id"]) <= set(
        extras.rescore(idx, "table scan", window=200, k=200, mode="or")["doc_id"])


def test_min_score_block(idx):
    full = api.search_request(
        idx, {"query": {"match": {"text": "table scan"}}, "size": 10})
    scores = [h["_score"] for h in full["hits"]["hits"]]
    cut = scores[len(scores) // 2]
    resp = api.search_request(
        idx, {"query": {"match": {"text": "table scan"}}, "size": 10,
              "min_score": cut})
    assert [h["_id"] for h in resp["hits"]["hits"]] == [
        h["_id"] for h in full["hits"]["hits"] if h["_score"] >= cut]


def test_source_and_highlight_blocks(idx):
    body = {"query": {"match": {"text": "table scan"}}, "size": 3,
            "_source": ["source", "lang"],
            "highlight": {"fields": {"text": {"fragment_size": 60}}}}
    with pytest.raises(ValueError):
        api.search_request(idx, body)  # highlight without a corpus handle
    docs = rd.read_parquet(DOCS, columns=["doc_id", "text"])
    resp = api.search_request(idx, body, docs_ds=docs)
    assert resp["hits"]["hits"]
    df = pd.read_parquet(DOCS).set_index("doc_id")
    for h in resp["hits"]["hits"]:
        assert h["_source"]["source"] == df.loc[h["_id"], "source"]
        assert h["_source"]["lang"] == df.loc[h["_id"], "lang"]
        snip = h["highlight"]["text"][0]
        assert len(snip.replace("<em>", "").replace("</em>", "")) <= 60
        assert "<em>" in snip


def test_knn_blocks(idx):
    from harvester_ray.ops import similarity

    EMB = os.path.join(SF_DIR, "embeddings.parquet")
    emb = rd.read_parquet(EMB)
    qv = pd.read_parquet(EMB).iloc[0]["embedding"]
    body = {"knn": {"field": "embedding", "query_vector": list(qv), "k": 5}}
    with pytest.raises(ValueError):
        api.search_request(idx, body)  # no emb handle
    resp = api.search_request(idx, body, emb_ds=emb)
    direct = similarity.knn_brute(emb, np.asarray(qv, dtype=np.float64),
                                  k=5).to_pandas()
    assert [h["_id"] for h in resp["hits"]["hits"]] == list(direct["vec_id"])
    # hybrid: query + knn fuse lexical and dense scores
    hbody = {"query": {"match": {"text": "table scan"}},
             "knn": {"query_vector_id": 3, "num_candidates": 30}, "size": 5}
    hresp = api.search_request(idx, hbody, emb_ds=emb)
    hdirect = similarity.hybrid_search(idx, emb, "table scan",
                                       query_vec_id=3, k=5, k_cand=30)
    assert [h["_id"] for h in hresp["hits"]["hits"]] == list(hdirect["doc_id"])
    assert [h["_score"] for h in hresp["hits"]["hits"]] == list(hdirect["hybrid"])


def test_knn_ann_ivf_tier(idx):
    """Opt-in ANN tier: exact regime (nprobe == n_centroids probes every
    cluster) must be envelope-identical to brute; the approximate setting
    must hit recall >= 0.9 vs brute on this corpus."""
    EMB = os.path.join(SF_DIR, "embeddings.parquet")
    emb = rd.read_parquet(EMB)
    qv = list(pd.read_parquet(EMB).iloc[0]["embedding"])
    brute = api.search_request(
        idx, {"knn": {"field": "embedding", "query_vector": qv, "k": 10}},
        emb_ds=emb,
    )
    exact = api.search_request(
        idx, {"knn": {"field": "embedding", "query_vector": qv, "k": 10,
                      "ann": {"tier": "ivf", "n_centroids": 8, "nprobe": 8}}},
        emb_ds=emb,
    )
    assert exact == brute
    approx = api.search_request(
        idx, {"knn": {"field": "embedding", "query_vector": qv, "k": 10,
                      "ann": {"tier": "ivf", "n_centroids": 8, "nprobe": 4}}},
        emb_ds=emb,
    )
    b = [h["_id"] for h in brute["hits"]["hits"]]
    a = [h["_id"] for h in approx["hits"]["hits"]]
    assert len(set(a) & set(b)) >= 9


def test_pit_snapshot_isolation(tmp_path_factory):
    from harvester_ray.index import build, incremental

    root = str(tmp_path_factory.mktemp("pitidx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text"])
    build.build_index(ds, root, concurrency=2)
    pit = api.open_pit(root)

    body = {"query": {"match": {"text": "zephyrant quizzical"}}, "size": 5}
    r0 = api.search_request(query.IndexReader(root), body)
    assert not r0["hits"]["hits"]  # terms absent from the corpus

    incremental.ingest_document(
        root, {"doc_id": 10_000_001, "text": "zephyrant quizzical " * 5})

    live = api.search_request(query.IndexReader(root), body)
    assert [h["_id"] for h in live["hits"]["hits"]] == [10_000_001]
    frozen = api.search_request(
        query.IndexReader(root), {**body, "pit": pit})
    assert not frozen["hits"]["hits"]  # the pit predates the ingest

    # pit + search_after: pages of the snapshot concatenate to its top-k
    pbody = {"query": {"match": {"text": "table scan"}}, "size": 4,
             "pit": pit}
    page1 = api.search_request(query.IndexReader(root), pbody)["hits"]["hits"]
    cursor = page1[-1]
    page2 = api.search_request(query.IndexReader(root), {
        **pbody, "search_after": [cursor["_score"], cursor["_id"]]})
    topk = api.search_request(query.IndexReader(root), {
        "query": {"match": {"text": "table scan"}}, "size": 8, "pit": pit})
    assert ([h["_id"] for h in page1]
            + [h["_id"] for h in page2["hits"]["hits"]]
            ) == [h["_id"] for h in topk["hits"]["hits"]]


def test_validate_query_and_field_caps(idx):
    ok = api.validate_query({"query": {"bool": {
        "must": [{"match": {"text": "a"}}],
        "must_not": {"term": {"source": "x"}}}}})
    assert ok == {"valid": True}
    bad = api.validate_query({"query": {"geo_shape": {"field": "x"}}})
    assert not bad["valid"] and "geo_shape" in bad["error"]
    bad2 = api.validate_query({"query": {"bool": {"must": [{"match": "notadict"}]}}})
    assert not bad2["valid"]
    # every DSL body exercised in test_dsl must validate
    for body in [
        {"span_multi": {"match": {"prefix": {"text": {"value": "s"}}}}},
        {"dis_max": {"queries": [{"match": {"text": "a"}}]}},
        {"pinned": {"ids": [1], "organic": {"match": {"text": "a"}}}},
    ]:
        assert api.validate_query(body) == {"valid": True}, body

    caps = api.field_caps(idx)
    fields = dict(zip(caps["field"], caps["type"]))
    assert fields["text"] == "text" and fields["dl"] == "int64"
    assert "source" in fields and "lang" in fields
    assert bool(caps[caps["field"] == "source"].iloc[0]["aggregatable"])


def test_pit_source_isolation_and_source_forms(tmp_path_factory):
    """pit must pin _source attribute fetches too (not just hit lists), and
    _source accepts a bare string / false per the ES request schema."""
    from harvester_ray.index import incremental

    root = str(tmp_path_factory.mktemp("pitsrc"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "source"])
    build.build_index(ds, root, concurrency=2, attr_cols=["source"])
    pit = api.open_pit(root)

    body = {"query": {"match": {"text": "table scan"}}, "size": 3,
            "_source": "source"}  # bare-string form
    before = api.search_request(query.IndexReader(root), {**body, "pit": pit})
    assert before["hits"]["hits"]
    target = before["hits"]["hits"][0]["_id"]
    old_val = before["hits"]["hits"][0]["_source"]["source"]

    df = pd.read_parquet(DOCS).set_index("doc_id")
    incremental.update_document(
        root, target,
        {"text": df.loc[target, "text"], "source": "CHANGED-BY-UPDATE"})

    live = api.search_request(query.IndexReader(root), body)
    live_by_id = {h["_id"]: h["_source"]["source"] for h in live["hits"]["hits"]}
    assert live_by_id[target] == "CHANGED-BY-UPDATE"
    # the pinned snapshot must still serve the pre-update attribute value
    frozen = api.search_request(query.IndexReader(root), {**body, "pit": pit})
    froz_by_id = {h["_id"]: h["_source"]["source"] for h in frozen["hits"]["hits"]}
    assert froz_by_id[target] == old_val != "CHANGED-BY-UPDATE"

    # _source: false suppresses the block instead of crashing
    off = api.search_request(
        query.IndexReader(root),
        {"query": {"match": {"text": "table scan"}}, "size": 3,
         "_source": False})
    assert all("_source" not in h for h in off["hits"]["hits"])


def test_scroll_pages_and_snapshot_isolation(tmp_path_factory):
    from harvester_ray.index import build, incremental

    root = str(tmp_path_factory.mktemp("scrollidx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text"])
    build.build_index(ds, root, concurrency=2)

    body = {"query": {"match": {"text": {"query": "table scan", "operator": "or"}}}}
    resp = api.open_scroll(root, body, size=4)
    pages = []
    while resp["hits"]["hits"]:
        pages.append([h["_id"] for h in resp["hits"]["hits"]])
        if len(pages) == 1:
            # the scroll id pins the version: a mid-scroll ingest of a
            # better-matching doc must stay invisible to later pages
            incremental.ingest_document(
                root, {"doc_id": 10_000_002, "text": "table scan " * 20})
        resp = api.scroll(root, resp["_scroll_id"])
    flat = [d for p in pages for d in p]
    assert 10_000_002 not in flat
    assert len(flat) == len(set(flat))  # no hit repeats across pages
    assert all(len(p) == 4 for p in pages[:-1])  # full pages until the tail
    # pages concatenate to the frozen snapshot's full ordered match set
    from harvester_ray.index import extras as _extras

    v0 = api._decode_scroll_id(resp["_scroll_id"])["v"]
    full = _extras.search_after(
        query.IndexReader(root, version=v0), "table scan",
        k=10_000, mode="or")
    assert flat == full["doc_id"].tolist()
    # exhausted id keeps returning empty pages (ES loop contract)
    again = api.scroll(root, resp["_scroll_id"])
    assert not again["hits"]["hits"]
