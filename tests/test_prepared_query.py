"""Every reader surface analyzes its query with the index's own analyzer.

One corpus is built twice, as an analyzer-v1 and an analyzer-v2 index, and
every query-taking reader surface runs a plural + stopword query on both
(delete_by_query and update_by_query, which rewrite the index, enumerate
through the same ``IndexReader.matches``):

- on the v2 build (stems, no stopwords) every surface returns results, and
  surfaces that enumerate the match set agree with ``IndexReader.search``;
- on the v1 build every surface returns exactly what it returned before
  query prep and the segment walks were unified (``V1_DIGESTS``);
- every ``SearchSurfaces`` surface, every count-shaped aggregation folded
  from its ``value_counts``, and every span, scored and per-doc extra
  folded from the ``spans``, ``scored`` and ``doc_terms`` ops, answers
  identically in process (``IndexReader``, ``FederatedReader``) and
  through a ``QueryService``, on both builds and on one whose doc ids are
  all >= 2^62, and all reject the same bad parameters.
"""

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from harvester_ray.index import (
    api, bm25f, build, evaluate, extras, federated, incremental,
    pipeline_aggs, query, similarities, synonyms,
)
from test_extras import DOCS  # the sf0.001 documents table

QUERY = "the sparks windowing"      # v1: three surface forms; v2: spark, window
TYPO = "the sparkz windowing"
MODE = "and"
BASE = np.datetime64("2024-03-01T00:00:00", "us")
BASE_US = int(BASE.astype(np.int64))
DELETED = [7, 14, 21, 22]           # tombstoned by a delta, so walks see excludes


def _corpus() -> pd.DataFrame:
    t = pq.read_table(DOCS, columns=["doc_id", "text", "source", "lang"]).to_pandas()
    i = t["doc_id"].to_numpy()
    text = t["text"]
    # surface forms only the v2 analyzer folds: plurals and -ing forms
    text = text.where(i % 3 != 0, text.str.replace(r"\bspark\b", "sparks", regex=True))
    text = text.where(i % 4 != 1, text.str.replace(r"\bwindow\b", "windowing", regex=True))
    text = text.where(i % 7 != 0, text + " the sparks windowing engines")
    t["text"] = text
    t["ts"] = BASE + ((i * 7919) % (3 * 86400) * 1_000_000).astype("timedelta64[us]")
    t["conv_id"] = [f"c{d // 4}" for d in i]
    t["tool"] = [None if d % 4 == 0 else f"t{d % 5}" for d in i]
    t["need"] = i % 3  # a per-doc minimum_should_match
    return t


def _build(root: str, df: pd.DataFrame, version: str, deleted=DELETED) -> None:
    build.build_index(
        rd.from_pandas(df).repartition(3), root, concurrency=1,
        attr_cols=["source", "lang", "ts", "conv_id", "tool", "need"],
        store_positions=True, analyzer_version=version,
    )
    gone = df[df["doc_id"].isin(deleted)][["doc_id"]].assign(text="", state="deleted")
    incremental.build_incremental(root, rd.from_pandas(gone), integrity_check=False)


def _frame(out) -> pd.DataFrame:
    if isinstance(out, pa.Table):
        return out.to_pandas()
    if isinstance(out, dict):
        return pd.DataFrame({"k": [repr(out)]})
    return out


def _digest(out) -> str:
    df = _frame(out).reset_index(drop=True)
    return hashlib.sha1(df.to_csv(index=False, float_format="%.12g").encode()).hexdigest()[:16]


def _service_surfaces(root: str) -> dict:
    svc = query.QueryService(root, num_actors=2)
    try:
        sid = svc.submit(QUERY, k=10, mode=MODE)
        return {
            "svc.search": svc.search(QUERY, k=10, mode=MODE),
            "svc.msearch": svc.msearch([(QUERY, MODE), (QUERY, "or")], k=10)[1],
            "svc.submit": svc.get(sid),
            "svc.warm": pd.DataFrame({"hot": [svc.warm([QUERY])]}),
            "svc.match_counts": svc.match_counts(QUERY, mode=MODE, count_fields=["lang"]),
            "svc.search_page": svc.search_page(QUERY, mode=MODE, ordering="-source", page_size=1000),
            "svc.did_you_mean": svc.did_you_mean(TYPO),
            "svc.search_phrase": svc.search_phrase("sparks windowing", k=10),
        }
    finally:
        svc.shutdown()


def surface_calls(root: str, docs_ds, tmp: str) -> dict:
    """Name → zero-argument call of every query-taking in-process reader
    surface on ``root``."""
    r = query.IndexReader(root)
    ts = {"ts_field": "ts"}
    return {
        "reader.search_or": lambda: r.search(QUERY, k=10, mode="or"),
        "reader.must_not": lambda: r.search(QUERY, k=10, mode="or", must_not="engines"),
        "reader.msearch": lambda: r.msearch([QUERY, "sparks"], k=5, mode=MODE),
        "reader.search_prefix": lambda: r.search_prefix("spar", k=10),
        "reader.search_phrase": lambda: r.search_phrase("sparks windowing", k=10),
        "reader.search_proximity": lambda: r.search_proximity("sparks engines", k=10, slop=2),
        "match_counts": lambda: r.match_counts(QUERY, mode=MODE, count_fields=["lang"]),
        "search_page": lambda: r.search_page(QUERY, mode=MODE, ordering="-source", page_size=1000),
        "highlight_topk": lambda: extras.highlight_topk(r, docs_ds, QUERY, k=5),
        "did_you_mean": lambda: r.did_you_mean(TYPO),
        "mine_hard_negatives": lambda: extras.mine_hard_negatives(r, {QUERY: [0]}, k=5, mode=MODE),
        "suggest_phrases": lambda: extras.suggest_phrases(r, TYPO),
        "search_after": lambda: extras.search_after(r, QUERY, k=10**6, mode=MODE),
        "search_stats": lambda: extras.search_stats(r, QUERY, mode=MODE),
        "fuzzy_search": lambda: extras.fuzzy_search(r, "sparkz", k=10),
        "match_fuzzy": lambda: extras.match_fuzzy(r, TYPO, k=10),
        "explain": lambda: extras.explain(r, QUERY),
        "author_suggestions": lambda: extras.author_suggestions(r, "sparks src1", authors_field="source"),
        "search_collapse": lambda: extras.search_collapse(r, QUERY, mode=MODE),
        "terms_stats_agg": lambda: extras.terms_stats_agg(r, QUERY, mode=MODE),
        "terms_agg": lambda: extras.terms_agg(r, QUERY, size=100, mode=MODE),
        "count_terminate_after": lambda: extras.count_terminate_after(r, QUERY, terminate_after=10**9, mode=MODE),
        "profile_search": lambda: extras.profile_search(r, QUERY, mode=MODE).drop(columns="wall_ms"),
        "cardinality_agg": lambda: extras.cardinality_agg(r, QUERY, mode=MODE),
        "search_boosted_terms": lambda: extras.search_boosted_terms(r, "the sparks^2 windowing"),
        "search_span_near": lambda: extras.search_span_near(r, "sparks windowing", slop=1),
        "percentiles_agg": lambda: extras.percentiles_agg(r, QUERY, mode=MODE),
        "date_histogram": lambda: r.date_histogram(QUERY, mode=MODE),
        "search_boosting": lambda: extras.search_boosting(r, QUERY, "engines", mode=MODE),
        "search_parents": lambda: extras.search_parents(r, QUERY, mode=MODE),
        "top_hits": lambda: extras.top_hits(r, QUERY, mode=MODE),
        "significant_terms": lambda: extras.significant_terms(r, QUERY, mode=MODE),
        "rescore": lambda: extras.rescore(r, QUERY, mode=MODE),
        "search_random": lambda: extras.search_random(r, QUERY, k=10**6, mode=MODE),
        "filters_agg": lambda: extras.filters_agg(
            r, QUERY, {"a": {"source": ["src0", "src1"]}, "b": {"lang": ["en"]}}, mode=MODE),
        "adjacency_matrix": lambda: extras.adjacency_matrix(
            r, QUERY, {"a": {"lang": ["en", "fr"]}, "b": {"lang": ["en"]}}, mode=MODE),
        "composite_agg": lambda: extras.composite_agg(r, QUERY, mode=MODE),
        "search_span_first": lambda: extras.search_span_first(r, "sparks", end=1000),
        "search_match_phrase_prefix": lambda: extras.search_match_phrase_prefix(r, "sparks wind"),
        "matrix_stats": lambda: extras.matrix_stats(r, QUERY, ts_base_s=BASE_US // 10**6, mode=MODE),
        "search_pinned": lambda: extras.search_pinned(r, QUERY, [3], mode=MODE),
        "histogram_pipeline": lambda: extras.histogram_pipeline(r, QUERY, mode=MODE),
        "range_agg": lambda: extras.range_agg(r, QUERY, [(None, 50), (50, None)], mode=MODE),
        "rare_terms_agg": lambda: extras.rare_terms_agg(r, QUERY, max_doc_count=10**6, mode=MODE),
        "search_bool": lambda: extras.search_bool(r, must="sparks", should="windowing", must_not="engines"),
        "assemble_context": lambda: extras.assemble_context(r, QUERY, budget_tokens=10**6, mode=MODE),
        "search_query_string": lambda: extras.search_query_string(r, '"sparks windowing" wind* -zzz'),
        "search_span_not": lambda: extras.search_span_not(r, "sparks", "engines", distance=1),
        "multi_terms_agg": lambda: extras.multi_terms_agg(r, QUERY, mode=MODE),
        "percentile_ranks_agg": lambda: extras.percentile_ranks_agg(r, QUERY, [40, 60], mode=MODE),
        "export_search": lambda: extras.export_search(r, QUERY, os.path.join(tmp, "export"), mode=MODE),
        "boxplot_agg": lambda: extras.boxplot_agg(r, QUERY, mode=MODE),
        "bucket_stats": lambda: extras.bucket_stats(r, QUERY, mode=MODE),
        "search_match_bool_prefix": lambda: extras.search_match_bool_prefix(r, "the sparks wind"),
        "search_span_or": lambda: extras.search_span_or(r, "sparks engines"),
        "search_span_multi": lambda: extras.search_span_multi(r, "spar"),
        "search_span_containing": lambda: extras.search_span_containing(
            r, ("sparks", "engines"), "windowing", slop=3),
        "extended_stats_agg": lambda: extras.extended_stats_agg(r, QUERY, mode=MODE),
        "missing_agg": lambda: extras.missing_agg(r, QUERY, mode=MODE),
        "histogram_agg": lambda: extras.histogram_agg(r, QUERY, mode=MODE),
        "stats_agg": lambda: extras.stats_agg(r, QUERY, mode=MODE),
        "mad_agg": lambda: extras.mad_agg(r, QUERY, mode=MODE),
        "string_stats_agg": lambda: extras.string_stats_agg(r, QUERY, mode=MODE),
        "t_test_agg": lambda: extras.t_test_agg(r, QUERY, group_a="src0", group_b="src1", mode=MODE),
        "search_function_score": lambda: extras.search_function_score(
            r, QUERY, origin_us=BASE_US, scale_us=86_400_000_000),
        "search_has_parent": lambda: extras.search_has_parent(r, QUERY, mode=MODE),
        "search_intervals": lambda: extras.search_intervals(r, "sparks engines", max_gaps=1),
        "moving_fn": lambda: pipeline_aggs.moving_fn(r, QUERY, mode=MODE, **ts),
        "serial_diff": lambda: pipeline_aggs.serial_diff(r, QUERY, mode=MODE, **ts),
        "bucket_sort": lambda: pipeline_aggs.bucket_sort(r, QUERY, mode=MODE, **ts),
        "cumulative_cardinality": lambda: pipeline_aggs.cumulative_cardinality(r, QUERY, mode=MODE, **ts),
        "weighted_avg": lambda: pipeline_aggs.weighted_avg(r, QUERY, mode=MODE, **ts),
        "top_metrics": lambda: pipeline_aggs.top_metrics(r, QUERY, mode=MODE, **ts),
        "diversified_sampler": lambda: pipeline_aggs.diversified_sampler(r, QUERY, mode=MODE),
        "auto_date_histogram": lambda: pipeline_aggs.auto_date_histogram(r, QUERY, mode=MODE, **ts),
        "bucket_script": lambda: pipeline_aggs.bucket_script(r, QUERY, mode=MODE, **ts),
        "evaluate_ranking": lambda: evaluate.evaluate_ranking(r, [QUERY]),
        "evaluate_ranking_mrr": lambda: evaluate.evaluate_ranking_mrr(r, [QUERY]),
        "evaluate_ranking_err": lambda: evaluate.evaluate_ranking_err(r, [QUERY]),
        "search_weighted_fields": lambda: bm25f.search_weighted_fields({"text": r}, {"text": 2.0}, QUERY),
        "search_dis_max": lambda: bm25f.search_dis_max({"text": r}, {"text": 1.0}, QUERY),
        "search_cross_fields": lambda: bm25f.search_cross_fields({"text": r}, {"text": 1.0}, QUERY),
        "lm_dirichlet": lambda: similarities.search_similarity(r, QUERY, model="lm_dirichlet", mode=MODE),
        "classic": lambda: similarities.search_similarity(r, QUERY, model="classic", mode=MODE),
        "lm_jelinek_mercer": lambda: similarities.search_similarity(r, QUERY, model="lm_jelinek_mercer"),
        "search_expanded": lambda: synonyms.search_expanded(r, "sparkwindow engines"),
        "federated": lambda: federated.FederatedReader([root]).search(QUERY, k=10, mode=MODE),
        "api.search_request": lambda: api.search_request(r, {
            "query": {"match": {"text": {"query": QUERY, "operator": "and"}}},
            "highlight": {"fields": {"text": {}}}, "track_total_hits": True,
        }, docs_ds=docs_ds),
    }


def run_surfaces(root: str, docs_ds, tmp: str) -> dict:
    out = {name: call() for name, call in surface_calls(root, docs_ds, tmp).items()}
    out.update(_service_surfaces(root))
    return out


def _ids(df) -> set:
    return set(_frame(df)["doc_id"].tolist())


# surfaces whose output determines the full match set (or its size)
MATCH_SET = {
    "match_counts": lambda o: o["results_total"]["value"],
    "svc.match_counts": lambda o: o["results_total"]["value"],
    "search_page": _ids,
    "svc.search_page": _ids,
    "search_after": _ids,
    "search_random": _ids,
    "search_stats": lambda o: int(o["n_matches"].sum()),
    "terms_agg": lambda o: int(o["doc_count"].sum()),
    "count_terminate_after": lambda o: int(o["count"][0]),
    "extended_stats_agg": lambda o: int(o["n"][0]),
    "export_search": lambda o: o["rows"],
    "profile_search": lambda o: int(o["candidates"][0]),
}
# surfaces whose top-k must equal IndexReader.search's
SAME_TOPK = ["svc.search", "svc.submit", "federated"]


@pytest.fixture(scope="module")
def builds(tmp_path_factory):
    df = _corpus()
    docs_ds = rd.from_pandas(df[["doc_id", "text"]])
    out = {}
    for version in ("v1", "v2"):
        root = str(tmp_path_factory.mktemp(f"pq_{version}"))
        _build(root, df, version)
        out[version] = (root, run_surfaces(root, docs_ds, str(tmp_path_factory.mktemp("x"))))
    return out


# surfaces that always return rows: the column counting what they found
COUNT_COLUMN = {
    "count_terminate_after": "count", "cardinality_agg": "n_distinct",
    "profile_search": "candidates", "missing_agg": "doc_count",
    "range_agg": "doc_count", "filters_agg": "doc_count", "svc.warm": "hot",
    "evaluate_ranking": "n_results", "evaluate_ranking_mrr": "n_results",
    "evaluate_ranking_err": "n_results",
}


def _nonempty(name: str, out) -> bool:
    """Whether ``out`` holds at least one hit, match or counted doc."""
    if name in ("match_counts", "svc.match_counts"):
        return out["results_total"]["value"] > 0
    if name == "export_search":
        return out["rows"] > 0
    if name == "api.search_request":
        return bool(out["hits"]["hits"]) and "highlight" in out["hits"]["hits"][0]
    if name in ("did_you_mean", "svc.did_you_mean"):
        return (out["suggestion"] != "").any()
    if name == "search_pinned":
        return (~out["pinned"]).any()  # organic hits after the pinned ids
    if name in COUNT_COLUMN:
        return int(out[COUNT_COLUMN[name]].sum()) > 0
    return len(_frame(out)) > 0


# v1 output digest of every surface, recorded before query prep and the
# segment walks were unified
V1_DIGESTS = {
    "adjacency_matrix": "af451c300a2475a4",
    "api.search_request": "ca07f71c9ba206b1",
    "assemble_context": "44a6e2487b12dcde",
    "author_suggestions": "2800fc67cb528cc1",
    "auto_date_histogram": "d7b5b71d26623dd4",
    "boxplot_agg": "17dfaa6f617c993b",
    "bucket_script": "55e52f8f7d0742d6",
    "bucket_sort": "cb9489777a911858",
    "bucket_stats": "8f47fa6b2cf0dea2",
    "cardinality_agg": "54c1993bf202257e",
    "classic": "918dd41b3d00418b",
    "composite_agg": "0bd0165436c45567",
    "count_terminate_after": "6fd4ac110faa429c",
    "cumulative_cardinality": "d4065ec584b1a0dc",
    "date_histogram": "54930c864eae6c58",
    "did_you_mean": "6fde7ecb465a2ebc",
    "diversified_sampler": "f7e003029f60bc66",
    "evaluate_ranking": "ec6db80ef8d7fd8a",
    "evaluate_ranking_err": "d6911faaa92d3d90",
    "evaluate_ranking_mrr": "c6d98584c06b396e",
    "explain": "50401d8ada374a82",
    "export_search": "81620eb04d8e421f",
    "extended_stats_agg": "21ea216c3e352260",
    "federated": "7696cb13807c54be",
    "filters_agg": "d1d6af7bcd70eac1",
    "fuzzy_search": "17709b07239ee1c9",
    "highlight_topk": "5d1668f053b574b9",
    "histogram_agg": "95678dd95b1c2258",
    "histogram_pipeline": "4ab55393a37a0283",
    "lm_dirichlet": "9a9b07622a686242",
    "lm_jelinek_mercer": "d76325b0a25a3a12",
    "mad_agg": "0ca3b00ec88538e2",
    "match_counts": "c02d570210a2d7f8",
    "match_fuzzy": "ec7e2510bb8d277b",
    "matrix_stats": "2d26ee83578f78d5",
    "mine_hard_negatives": "4d7a63627dfd9fbf",
    "missing_agg": "2bad8dafd98f7dc6",
    "moving_fn": "dd2c2b770bb9698b",
    "multi_terms_agg": "65e83d292cf012e9",
    "percentile_ranks_agg": "00064c47e7c2520e",
    "percentiles_agg": "c911f70e09144002",
    "profile_search": "a6baa24cffeb9862",
    "range_agg": "6cc47a2dde8bd2ff",
    "rare_terms_agg": "4fdebe51ce0e02a4",
    "reader.msearch": "e877278c068c588c",
    "reader.must_not": "45b6fa06ebce980f",
    "reader.search_or": "056f5c1ab141a0b1",
    "reader.search_phrase": "d7d5f0fd34d56b32",
    "reader.search_prefix": "17709b07239ee1c9",
    "reader.search_proximity": "5bf5d1135047bee8",
    "rescore": "1c59adbfb8acb0d8",
    "search_after": "0935ec4f63f249c1",
    "search_bool": "4aab399b72ee6a2d",
    "search_boosted_terms": "b4a01bd2f8b92ee2",
    "search_boosting": "27df4388bbac5527",
    "search_collapse": "4c639e95a6f974fa",
    "search_cross_fields": "26116ae8f78e1344",
    "search_dis_max": "bd3f9cbcfbc8198a",
    "search_expanded": "ad4947c9b3e4a033",
    "search_function_score": "5548465e0911b3bc",
    "search_has_parent": "9bb948318af3ba7e",
    "search_intervals": "537661fc55ca404b",
    "search_match_bool_prefix": "12a7ca68d6639674",
    "search_match_phrase_prefix": "b09f891ec5aca3d7",
    "search_page": "872d050482cb71b1",
    "search_parents": "39f534267ff39db8",
    "search_pinned": "89fcd0959becbf57",
    "search_query_string": "ec1b3dd3e491ab78",
    "search_random": "abbea8c04b795270",
    "search_span_containing": "537661fc55ca404b",
    "search_span_first": "2800fc67cb528cc1",
    "search_span_multi": "d22c3cb51d4688cf",
    "search_span_near": "56a35c13c0c365b1",
    "search_span_not": "2800fc67cb528cc1",
    "search_span_or": "766eea8049c46042",
    "search_stats": "540f7d7099332b7b",
    "search_weighted_fields": "959b5d8786149a6e",
    "serial_diff": "738bad0576ced921",
    "significant_terms": "01d3f8ab77487b1b",
    "stats_agg": "c872b3ae61558772",
    "string_stats_agg": "a6275692af59acbf",
    # scored by the live df since candidates stopped counting the fixture's
    # tombstoned docs: the digest of a rebuild without DELETED
    "suggest_phrases": "b2b4fa89018fabd4",
    "svc.did_you_mean": "6fde7ecb465a2ebc",
    "svc.match_counts": "c02d570210a2d7f8",
    "svc.msearch": "056f5c1ab141a0b1",
    "svc.search": "7696cb13807c54be",
    "svc.search_page": "872d050482cb71b1",
    "svc.search_phrase": "d7d5f0fd34d56b32",
    "svc.submit": "7696cb13807c54be",
    "svc.warm": "149a0aad51f8322c",
    "t_test_agg": "389240f81445b123",
    "terms_agg": "a1e1b0f63554cb5d",
    "terms_stats_agg": "fc5ac6d733373a88",
    "top_hits": "efae2c9a583438ee",
    "top_metrics": "22d0881540f5b05e",
    "weighted_avg": "9159d96ce608bc0b",
}


@pytest.mark.parametrize("name", sorted(V1_DIGESTS))
def test_v2_surface_nonempty_and_agrees(builds, name):
    root, outs = builds["v2"]
    out = outs[name]
    assert _nonempty(name, out), name
    ref = query.IndexReader(root).search(QUERY, k=10**6, mode=MODE).to_pandas()
    if name in MATCH_SET:
        got = MATCH_SET[name](out)
        assert got == (set(ref["doc_id"]) if isinstance(got, set) else len(ref)), name
    if name in SAME_TOPK:
        got = _frame(out)
        assert list(got["doc_id"]) == list(ref["doc_id"][:10])
        np.testing.assert_allclose(got["score"], ref["score"][:10], rtol=1e-12)


@pytest.mark.parametrize("name", sorted(V1_DIGESTS))
def test_v1_surface_unchanged(builds, name):
    assert _digest(builds["v1"][1][name]) == V1_DIGESTS[name]


def test_every_surface_is_checked(builds):
    assert set(builds["v1"][1]) == set(V1_DIGESTS) == set(builds["v2"][1])


# -- two backends, one set of surfaces ----------------------------------------

BIG = 1 << 62  # doc ids past float64's exact integers
FILTERS = {"lang": ["en", "fr"]}
SPECS = [(QUERY, "and"), (QUERY, "or"), ("sparks", "or"), ("zzznothere", "or")]


@pytest.fixture(scope="module")
def parity_roots(builds, tmp_path_factory):
    """The v1 and v2 builds, plus the v1 corpus with every doc id >= 2^62."""
    df = _corpus()
    df["doc_id"] += BIG
    root = str(tmp_path_factory.mktemp("pq_bigids"))
    _build(root, df, "v1", deleted=[d + BIG for d in DELETED])
    return {"v1": builds["v1"][0], "v2": builds["v2"][0], "big_ids": root}


def _parity_calls(b) -> dict:
    """Name → call of every ``SearchSurfaces`` surface on backend ``b``."""
    size0 = {
        "size": 0, "track_total_hits": True,
        "query": {"match": {"text": {"query": QUERY, "operator": "or"}}},
        "aggs": {"hist": {"date_histogram": {"field": "ts", "fixed_interval": "1h"}}},
    }
    return {
        "search and": lambda: b.search(QUERY, k=10, mode="and"),
        "search or": lambda: b.search(QUERY, k=25, mode="or"),
        "search filtered": lambda: b.search(QUERY, k=10, mode="or", filters=FILTERS),
        "search recency": lambda: b.search(
            QUERY, k=10, mode="or", recency={"origin_us": BASE_US, "pivot_us": 86_400_000_000}),
        "search must_not": lambda: b.search(QUERY, k=10, mode="or", must_not="engines"),
        "search min_should_match": lambda: b.search(QUERY, k=10, mode="or", min_should_match=2),
        "search k=0": lambda: b.search(QUERY, k=0, mode="or"),
        "msearch": lambda: query.SearchSurfaces.msearch(b, SPECS, k=7),
        "msearch k=0": lambda: query.SearchSurfaces.msearch(b, SPECS, k=0),
        "search_phrase": lambda: b.search_phrase("sparks windowing", k=10),
        "search_phrase filtered": lambda: b.search_phrase("sparks windowing", k=10, filters=FILTERS),
        "search_proximity": lambda: b.search_proximity("sparks engines", k=10, slop=2),
        "search_proximity slop=0": lambda: b.search_proximity("sparks windowing", k=10),
        "match_counts": lambda: b.match_counts(
            QUERY, mode="or", count_fields=["lang", "source"], filters=FILTERS),
        "search_page": lambda: b.search_page(QUERY, page=2, page_size=5, mode="or"),
        "search_page ordering": lambda: b.search_page(
            QUERY, page=2, page_size=5, mode="or", ordering="-source"),
        "search_page page_size=0": lambda: b.search_page(QUERY, page_size=0, ordering="source"),
        "did_you_mean": lambda: b.did_you_mean(TYPO),
        "date_histogram": lambda: b.date_histogram(QUERY, mode="or"),
        "warm": lambda: b.warm([QUERY, "engines"]),
        "api size=0": lambda: api.search_request(b, size0),
        **{name: (lambda call=call: call(b)) for name, call in AGGREGATIONS.items()},
        **{name: (lambda call=call: call(b)) for name, call in EXTRAS.items()},
    }


# every count-shaped aggregation: a fold of ``value_counts`` partials
AGGREGATIONS = {
    "value_counts": lambda b: query.fold_counts(
        b.value_counts(QUERY, ["lang", "dl", ("ts", 86_400_000_000)], mode="or", filters=FILTERS),
        ["lang", "dl", ("ts", 86_400_000_000)]),
    "search_stats": lambda b: extras.search_stats(b, QUERY, mode="or"),
    "terms_stats_agg": lambda b: extras.terms_stats_agg(b, QUERY, size=100),
    "terms_agg": lambda b: extras.terms_agg(b, QUERY, size=100),
    "terms_agg shard_size=1": lambda b: extras.terms_agg(b, QUERY, size=100, shard_size=1),
    "cardinality_agg": lambda b: extras.cardinality_agg(b, QUERY, field="tool"),
    "rare_terms_agg": lambda b: extras.rare_terms_agg(b, QUERY, field="conv_id", max_doc_count=2),
    "composite_agg": lambda b: extras.composite_agg(b, QUERY, after=("src0", "en")),
    "multi_terms_agg": lambda b: extras.multi_terms_agg(b, QUERY, fields=("lang", "tool")),
    "filters_agg": lambda b: extras.filters_agg(
        b, QUERY, {"a": {"source": ["src0", "src1"]}, "b": {"lang": ["en"], "tool": ["t1"]}}),
    "adjacency_matrix": lambda b: extras.adjacency_matrix(
        b, QUERY, {"a": {"lang": ["en", "fr"]}, "b": {"lang": ["en"]}, "c": {"tool": ["t2"]}}),
    "missing_agg": lambda b: extras.missing_agg(b, QUERY),
    "string_stats_agg": lambda b: extras.string_stats_agg(b, QUERY, field="tool"),
    "t_test_agg": lambda b: extras.t_test_agg(b, QUERY, group_a="src0", group_b="src1"),
    "percentiles_agg": lambda b: extras.percentiles_agg(b, QUERY, qs=(0.1, 0.25, 0.5, 0.9)),
    "percentile_ranks_agg": lambda b: extras.percentile_ranks_agg(b, QUERY, [10, 40, 60]),
    "boxplot_agg": lambda b: extras.boxplot_agg(b, QUERY),
    "range_agg": lambda b: extras.range_agg(b, QUERY, [(None, 30), (30, 60), (60, None)]),
    "histogram_agg": lambda b: extras.histogram_agg(b, QUERY, interval=7),
    "extended_stats_agg": lambda b: extras.extended_stats_agg(b, QUERY),
    "stats_agg": lambda b: extras.stats_agg(b, QUERY),
    "mad_agg": lambda b: extras.mad_agg(b, QUERY),
    "matrix_stats": lambda b: extras.matrix_stats(b, QUERY, ts_base_s=BASE_US // 10**6),
    "cumulative_cardinality": lambda b: pipeline_aggs.cumulative_cardinality(b, QUERY),
    "weighted_avg": lambda b: pipeline_aggs.weighted_avg(b, QUERY),
    "bucket_script": lambda b: pipeline_aggs.bucket_script(b, QUERY),
}


def _top_doc(b) -> int:
    return b.search(QUERY, k=1, mode="and")["doc_id"][0].as_py()


# every span, scored and per-doc extra: a fold of ``spans``, ``scored`` or
# ``doc_terms`` parts (and the expansion surfaces next to them)
EXTRAS = {
    "search_span_first": lambda b: extras.search_span_first(b, "sparks", end=1000),
    "search_span_not": lambda b: extras.search_span_not(b, "sparks", "engines", distance=1),
    "search_span_or": lambda b: extras.search_span_or(b, "sparks engines"),
    "search_span_multi": lambda b: extras.search_span_multi(b, "spar"),
    "search_span_containing": lambda b: extras.search_span_containing(
        b, ("sparks", "engines"), "windowing", slop=3),
    "search_span_within": lambda b: extras.search_span_containing(
        b, ("sparks", "engines"), "windowing", slop=3, mode="within"),
    "search_match_phrase_prefix": lambda b: extras.search_match_phrase_prefix(b, "sparks wind"),
    "search_span_near": lambda b: extras.search_span_near(b, "sparks windowing", slop=1),
    "search_intervals": lambda b: extras.search_intervals(b, "sparks engines", max_gaps=1),
    "termvectors": lambda b: extras.termvectors(b, _top_doc(b)),
    "doc_top_terms": lambda b: pd.DataFrame({"term": extras.doc_top_terms(b, _top_doc(b))}),
    "more_like_this": lambda b: extras.more_like_this(b, _top_doc(b), k=5),
    "explain": lambda b: extras.explain(b, QUERY),
    "explain doc_id": lambda b: extras.explain(b, "sparks engines", _top_doc(b)),
    "assemble_context": lambda b: extras.assemble_context(b, QUERY, budget_tokens=400),
    "evaluate_ranking": lambda b: evaluate.evaluate_ranking(b, [QUERY, "sparks engines"]),
    "evaluate_ranking_mrr": lambda b: evaluate.evaluate_ranking_mrr(b, [QUERY]),
    "evaluate_ranking_err": lambda b: evaluate.evaluate_ranking_err(b, [QUERY]),
    "search_after": lambda b: extras.search_after(b, QUERY, k=50, mode="or"),
    "search_after cursor": lambda b: extras.search_after(b, QUERY, after=(1.0, 0), k=5, mode="or"),
    "author_suggestions": lambda b: extras.author_suggestions(b, "sparks src1", authors_field="source"),
    "search_collapse": lambda b: extras.search_collapse(b, QUERY),
    "search_boosted_terms": lambda b: extras.search_boosted_terms(b, "the sparks^2 windowing"),
    "search_boosting": lambda b: extras.search_boosting(b, QUERY, "engines"),
    "search_parents": lambda b: extras.search_parents(b, QUERY),
    "search_parents max": lambda b: extras.search_parents(b, QUERY, score_mode="max"),
    "top_hits": lambda b: extras.top_hits(b, QUERY),
    "diversified_sampler": lambda b: pipeline_aggs.diversified_sampler(b, QUERY, max_per=2),
    "search_bool": lambda b: extras.search_bool(b, must="sparks", should="windowing", must_not="engines"),
    "search_bool should": lambda b: extras.search_bool(b, should="sparks windowing", must_not="engines"),
    "search_query_string": lambda b: extras.search_query_string(b, '"sparks windowing" wind* -zzz'),
    "search_terms_set": lambda b: extras.search_terms_set(b, ["spark", "window"], min_field="need"),
    "search_function_score": lambda b: extras.search_function_score(
        b, QUERY, origin_us=BASE_US, scale_us=86_400_000_000),
    "search_prefix": lambda b: b.search_prefix("spar", k=10),
    "fuzzy_search": lambda b: extras.fuzzy_search(b, "sparkz", k=10),
    "match_fuzzy": lambda b: extras.match_fuzzy(b, TYPO, k=10),
    "search_match_bool_prefix": lambda b: extras.search_match_bool_prefix(b, "the sparks wind"),
}


# parameter values every backend must reject, each naming the bad value
BAD_CALLS = {
    "k must be >= 0, got -1": [
        lambda b: b.search(QUERY, k=-1, mode="or"),
        lambda b: query.SearchSurfaces.msearch(b, SPECS, k=-1),
        lambda b: b.search_phrase("sparks windowing", k=-1),
        lambda b: b.search_proximity("sparks engines", k=-1),
    ],
    "slop must be >= 0, got -1": [
        lambda b: b.search_proximity("sparks engines", slop=-1),
        lambda b: extras.search_span_near(b, "sparks windowing", slop=-1),
        lambda b: extras.search_span_containing(b, ("sparks", "engines"), "windowing", slop=-1),
    ],
    "max_gaps must be >= 0, got -3": [lambda b: extras.search_intervals(b, "sparks engines", max_gaps=-3)],
    "end must be >= 0, got -1": [lambda b: extras.search_span_first(b, "sparks", end=-1)],
    "distance must be >= 0, got -2": [lambda b: extras.search_span_not(b, "sparks", "engines", distance=-2)],
    "max_expansions must be >= 0, got -1": [
        lambda b: b.search_prefix("spar", max_expansions=-1),
        lambda b: extras.search_match_phrase_prefix(b, "sparks wind", max_expansions=-1),
        lambda b: extras.search_match_bool_prefix(b, "the sparks wind", max_expansions=-1),
        lambda b: extras.search_span_multi(b, "spar", max_expansions=-1),
        lambda b: extras.search_query_string(b, "sparks wind*", max_expansions=-1),
        lambda b: extras.fuzzy_search(b, "sparkz", max_expansions=-1),
        lambda b: extras.match_fuzzy(b, TYPO, max_expansions=-1),
    ],
    "max_edits must be >= 0, got -1": [
        lambda b: b.did_you_mean(TYPO, max_edits=-1),
        lambda b: extras.fuzzy_search(b, "sparkz", max_edits=-1),
        lambda b: extras.suggest_phrases(b, TYPO, max_edits=-1),
    ],
    "page_size must be >= 0, got -5": [
        lambda b: b.search_page(QUERY, page=2, page_size=-5, ordering="source"),
    ],
    "interval_us must be > 0, got 0": [
        lambda b: b.date_histogram(QUERY, interval_us=0),
        lambda b: b.value_counts(QUERY, ["dl", ("ts", 0)], mode="or"),
    ],
    "mode must be 'and' or 'or', got 'AND'": [
        lambda b: b.search("spark windowing", mode="AND"),
        lambda b: b.match_counts("spark windowing", mode="AND"),
        lambda b: query.SearchSurfaces.msearch(b, [(QUERY, "AND")]),
    ],
    "mode must be 'and' or 'or', got 'xor'": [
        lambda b: b.search("spark windowing", mode="xor"),
        lambda b: b.date_histogram(QUERY, mode="xor"),
        lambda b: b.search_page(QUERY, mode="xor", ordering="source"),
    ],
}


def _same(a, b) -> bool:
    if isinstance(a, pa.Table):
        return a.equals(b, check_metadata=True)
    if isinstance(a, pd.DataFrame):
        pd.testing.assert_frame_equal(a, b, check_exact=True)
        return True
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _answers(b) -> dict:
    for message, calls in BAD_CALLS.items():
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call(b)
    return {name: call() for name, call in _parity_calls(b).items()}


@pytest.mark.parametrize("fixture", ["v1", "v2", "big_ids"])
def test_reader_and_service_answer_every_surface_identically(parity_roots, fixture):
    """Every shared surface, aggregation and extra answers the same through
    the in-process backend, through a one-member FederatedReader and
    through a two-actor QueryService, bad parameters included."""
    root = parity_roots[fixture]
    local = _answers(query.IndexReader(root))
    for name, out in _answers(federated.FederatedReader([root])).items():
        assert _same(out, local[name]), name
    svc = query.QueryService(root, num_actors=2)
    try:
        assert len(svc.actors) == 2
        served = _answers(svc)
    finally:
        svc.shutdown()
    for name, out in local.items():
        assert _same(out, served[name]), name
    for name in [*AGGREGATIONS, *EXTRAS]:
        assert len(_frame(local[name])) > 0, name
    for name in ("search or", "search must_not", "search min_should_match", "search_phrase",
                 "search_proximity", "search_page ordering", "date_histogram"):
        assert len(_frame(local[name])) > 0, name
    assert local["search must_not"] != local["search or"]
    assert local["match_counts"]["results_total"]["value"] > 0
    assert (local["did_you_mean"]["suggestion"] != "").any()
    assert local["api size=0"]["hits"]["hits"] == []
    assert local["api size=0"]["aggregations"]["hist"]
    for name in ("search k=0", "search_page page_size=0"):
        assert len(_frame(local[name])) == 0, name
    assert all(len(t) == 0 for t in local["msearch k=0"])
    ids = np.concatenate([_frame(local[n])["doc_id"].to_numpy() for n in ("search or", "search_phrase")])
    assert ((ids >= BIG) == (fixture == "big_ids")).all()


def test_async_submit_takes_searchs_arguments():
    """``submit`` cannot drift from ``search`` again: same parameters,
    defaults included."""
    import inspect

    assert (inspect.signature(query.QueryService.submit).parameters
            == inspect.signature(query.SearchSurfaces.search).parameters)


@pytest.mark.parametrize("fixture", ["v1", "v2"])
def test_async_submit_answers_like_search(parity_roots, fixture):
    svc = query.QueryService(parity_roots[fixture], num_actors=2)
    try:
        for kwargs in ({"must_not": "engines"}, {"min_should_match": 2},
                       {"filters": FILTERS, "must_not": "engines", "min_should_match": 2}):
            want = svc.search(QUERY, k=10, mode="or", **kwargs)
            got = svc.get(svc.submit(QUERY, k=10, mode="or", **kwargs))
            assert len(want) > 0, kwargs
            assert got.equals(want, check_metadata=True), kwargs
        with pytest.raises(ValueError, match=re.escape("k must be >= 0, got -1")):
            svc.submit(QUERY, k=-1, must_not="engines")
    finally:
        svc.shutdown()


def test_held_service_tables_do_not_block_the_next_fanout(parity_roots):
    """Tables a surface hands back (``value_counts`` partials, ``scored``
    and ``doc_terms`` rows) are copied out of the service's channel: a view
    of it, held by the caller, would make the actors' next write wait
    forever."""
    from concurrent.futures import ThreadPoolExecutor

    svc = query.QueryService(parity_roots["v1"], num_actors=2)
    try:
        held = [
            svc.value_counts(QUERY, ["lang"], mode="or"),
            svc.scored(svc.prepare(QUERY, "or"), "or", ["lang"]),
            svc.doc_terms([_top_doc(svc)], ["sparks"]),
        ]
        with ThreadPoolExecutor(1) as pool:
            again = pool.submit(lambda: svc.scored(svc.prepare(QUERY, "or"), "or", ["lang"]))
            assert again.result(timeout=120).equals(held[1])
        assert held[0] and len(held[2]) > 0
    finally:
        svc.shutdown()
