"""ES aggs-DSL dispatcher: every agg type must route to the native operator
and return the identical frame."""

import os

import pandas as pd
import pytest
import ray.data as rd

from harvester_ray.index import aggdsl, build, extras, pipeline_aggs, query

SF_DIR = "/root/testdata/sf0.001"
DOCS = os.path.join(SF_DIR, "documents.parquet")
Q = "table scan"


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("aggdslidx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "source", "lang"])
    build.build_index(ds, root, concurrency=2, attr_cols=["source", "lang"])
    return query.IndexReader(root)


def _eq(a: pd.DataFrame, b: pd.DataFrame):
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True), check_dtype=False
    )


def test_parse_interval():
    assert aggdsl.parse_interval_us("1h") == 3_600_000_000
    assert aggdsl.parse_interval_us("30s") == 30_000_000
    assert aggdsl.parse_interval_us("2d") == 2 * 86_400_000_000
    with pytest.raises(ValueError):
        aggdsl.parse_interval_us("1fortnight")


def test_bucket_and_metric_aggs(idx):
    out = aggdsl.execute_aggs(idx, Q, {
        "by_source": {"terms": {"field": "source", "size": 5}},
        "rare": {"rare_terms": {"field": "source", "max_doc_count": 2}},
        "pcts": {"percentiles": {"percents": [25.0, 50.0, 75.0]}},
        "pranks": {"percentile_ranks": {"values": [10.0, 20.0]}},
        "ncard": {"cardinality": {"field": "source"}},
        "xstats": {"extended_stats": {"field": "dl"}},
        "st": {"stats": {"field": "dl"}},
        "av": {"avg": {"field": "dl"}},
        "vc": {"value_count": {"field": "dl"}},
        "mad": {"median_absolute_deviation": {"field": "dl"}},
        "sstats": {"string_stats": {"field": "source"}},
        "box": {"boxplot": {"field": "dl"}},
        "dlranges": {"range": {"field": "dl",
                               "ranges": [{"to": 15}, {"from": 15, "to": 30},
                                          {"from": 30}]}},
        "sig": {"significant_terms": {"size": 10}},
        "pairs": {"multi_terms": {"terms": [{"field": "source"},
                                            {"field": "lang"}], "size": 5}},
        "comp": {"composite": {"sources": [
            {"s": {"terms": {"field": "source"}}},
            {"l": {"terms": {"field": "lang"}}}], "size": 5}},
        "flt": {"filters": {"filters": {
            "a": {"term": {"source": "src0"}},
            "b": {"terms": {"source": ["src1", "src2"]}}}}},
        "adj": {"adjacency_matrix": {"filters": {
            "en": {"term": {"lang": "en"}},
            "s0": {"term": {"source": "src0"}}}}},
        "th": {"top_hits": {"field": "source", "size": 2, "n_groups": 4}},
        "tt": {"t_test": {"field": "source", "a": "src0", "b": "src1"}},
        "tsub": {"terms": {"field": "source", "size": 5},
                 "aggs": {"mean_dl": {"avg": {"field": "dl"}}}},
    })
    _eq(out["by_source"], extras.terms_agg(idx, Q, field="source", size=5))
    _eq(out["rare"], extras.rare_terms_agg(idx, Q, field="source", max_doc_count=2))
    _eq(out["pcts"], extras.percentiles_agg(idx, Q, qs=(0.25, 0.5, 0.75)))
    _eq(out["pranks"], extras.percentile_ranks_agg(idx, Q, [10.0, 20.0]))
    _eq(out["ncard"], extras.cardinality_agg(idx, Q, field="source"))
    _eq(out["xstats"], extras.extended_stats_agg(idx, Q))
    _eq(out["st"], extras.stats_agg(idx, Q))
    assert out["av"]["value"].iloc[0] == out["st"]["avg_dl"].iloc[0]
    assert out["vc"]["value"].iloc[0] == out["st"]["n"].iloc[0]
    _eq(out["mad"], extras.mad_agg(idx, Q))
    _eq(out["sstats"], extras.string_stats_agg(idx, Q, field="source"))
    _eq(out["box"], extras.boxplot_agg(idx, Q))
    _eq(out["dlranges"], extras.range_agg(idx, Q, [(None, 15), (15, 30), (30, None)]))
    _eq(out["sig"], extras.significant_terms(idx, Q, n=10, mode="or"))
    _eq(out["pairs"], extras.multi_terms_agg(idx, Q, fields=("source", "lang"), size=5))
    _eq(out["comp"], extras.composite_agg(idx, Q, sources=("source", "lang"), size=5))
    _eq(out["flt"], extras.filters_agg(
        idx, Q, {"a": {"source": ["src0"]}, "b": {"source": ["src1", "src2"]}}))
    _eq(out["adj"], extras.adjacency_matrix(
        idx, Q, {"en": {"lang": ["en"]}, "s0": {"source": ["src0"]}}))
    _eq(out["th"], extras.top_hits(idx, Q, field="source", per_group=2, n_groups=4))
    _eq(out["tt"], extras.t_test_agg(
        idx, Q, field="source", group_a="src0", group_b="src1"))
    _eq(out["tsub"], extras.terms_stats_agg(idx, Q, field="source", size=5))
    assert "avg_dl" in out["tsub"].columns and len(out["tsub"]) > 0


def test_pipeline_aggs_route(tmp_path_factory):
    import numpy as np

    rng = np.random.default_rng(5)
    n = 200
    base = np.datetime64("2024-03-01T00:00:00", "us")
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": ["kumo sabi"] * n,
        "ts": base + (rng.integers(0, 86400, n) * 1_000_000).astype("timedelta64[us]"),
        "conv_id": [f"c{i % 9}" for i in range(n)],
        "tool": [None if i % 2 else "t0" for i in range(n)],
    })
    root = str(tmp_path_factory.mktemp("aggdsl_ts"))
    build.build_index(rd.from_pandas(df), root, concurrency=2,
                      attr_cols=["ts", "conv_id", "tool"])
    r = query.IndexReader(root)
    out = aggdsl.execute_aggs(r, "kumo", {
        "hist": {"date_histogram": {"field": "ts", "fixed_interval": "1h"}},
        "mov": {"moving_fn": {"field": "ts", "window": 3}},
        "sd": {"serial_diff": {"field": "ts", "lag": 2}},
        "script": {"bucket_script": {"field": "ts", "tool_field": "tool"}},
        "norm": {"normalize": {"field": "ts"}},
        "ccard": {"cumulative_cardinality": {"field": "conv_id"}},
        "bsort": {"bucket_sort": {"field": "ts", "size": 5, "min_count": 2}},
        "wavg": {"weighted_avg": {"field": "ts"}},
        "tmet": {"top_metrics": {"field": "ts", "group": "tool"}},
        "adh": {"auto_date_histogram": {"field": "ts", "buckets": 12}},
        "div": {"diversified_sampler": {
            "field": "conv_id", "max_docs_per_value": 1, "shard_size": 6}},
        "miss": {"missing": {"field": "tool"}},
        "nhist": {"histogram": {"field": "dl", "interval": 3}},
        "rt": {"rate": {"field": "ts", "unit": "minute"}},
    })
    _eq(out["hist"], r.date_histogram("kumo", ts_field="ts"))
    _eq(out["mov"], pipeline_aggs.moving_fn(r, "kumo", window=3, ts_field="ts"))
    _eq(out["sd"], pipeline_aggs.serial_diff(r, "kumo", lag=2, ts_field="ts"))
    _eq(out["script"], pipeline_aggs.bucket_script(r, "kumo", ts_field="ts"))
    _eq(out["norm"], pipeline_aggs.normalize_agg(r, "kumo", ts_field="ts"))
    _eq(out["ccard"], pipeline_aggs.cumulative_cardinality(r, "kumo", field="conv_id"))
    _eq(out["bsort"], pipeline_aggs.bucket_sort(r, "kumo", size=5, min_count=2,
                                                ts_field="ts"))
    _eq(out["wavg"], pipeline_aggs.weighted_avg(r, "kumo", ts_field="ts"))
    _eq(out["tmet"], pipeline_aggs.top_metrics(r, "kumo", group="tool", ts_field="ts"))
    _eq(out["adh"], pipeline_aggs.auto_date_histogram(r, "kumo", target_buckets=12,
                                                      ts_field="ts"))
    _eq(out["div"], pipeline_aggs.diversified_sampler(r, "kumo", field="conv_id",
                                                      max_per=1, k=6))
    _eq(out["miss"], extras.missing_agg(r, "kumo", field="tool"))
    # fixture: every odd doc_id has tool=None -> exactly n//2 missing of n
    assert out["miss"]["doc_count"].iloc[0] == 200
    assert out["miss"]["missing_count"].iloc[0] == 100
    _eq(out["nhist"], extras.histogram_agg(r, "kumo", interval=3))
    assert out["nhist"]["doc_count"].sum() == 200
    _eq(out["rt"], pipeline_aggs.rate_agg(r, "kumo", ts_field="ts"))
    # hourly buckets at per-minute unit: rate == count/60 exactly
    row = out["rt"].iloc[0]
    assert row["rate"] == (2 * int(row["doc_count"]) * 1_000_000 + 60) // 120 / 1e6


def test_unsupported_agg_raises(idx):
    with pytest.raises(ValueError):
        aggdsl.execute_aggs(idx, Q, {"x": {"geo_grid": {}}})
    with pytest.raises(ValueError):
        aggdsl.execute_aggs(idx, Q, {"x": {"terms": {"field": "source"},
                                           "boxplot": {}}})
