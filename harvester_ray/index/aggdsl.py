"""ES JSON aggregation-DSL dispatcher — the agg half of index/dsl.py.

The reference's search views attach an ``aggs`` object to every request
(harvester/search/views/document.py:129-143 builds filter-count and facet
aggregations as JSON); this routes that JSON onto the native agg
operators. Each agg name maps onto the operator that already has a
value-checked driver gate — the dispatcher adds parsing only, never new
aggregation semantics. Unsupported shapes raise ValueError.

Intervals: ``fixed_interval`` accepts the ES duration grammar subset
``<n>(s|m|h|d)``. Multiple top-level aggs run independently; the result is
``{agg_name: DataFrame}``.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from .query import IndexReader

_DUR_US = {"s": 1_000_000, "m": 60_000_000, "h": 3_600_000_000,
           "d": 86_400_000_000}


def parse_interval_us(text: str) -> int:
    m = re.fullmatch(r"(\d+)([smhd])", text.strip())
    if not m:
        raise ValueError(f"unsupported fixed_interval {text!r}")
    return int(m.group(1)) * _DUR_US[m.group(2)]


def execute_aggs(
    reader: IndexReader,
    query_text: str,
    aggs: dict,
    *,
    mode: str = "or",
) -> dict[str, pd.DataFrame]:
    """Run every top-level agg of an ES ``aggs`` object over the match set
    of ``query_text``. Returns {agg_name: frame} with each frame exactly
    what the underlying operator's driver gate emits."""
    from . import extras, pipeline_aggs

    out: dict[str, pd.DataFrame] = {}
    for name, spec in aggs.items():
        if set(spec) == {"terms", "aggs"}:
            # the one supported nesting: terms bucket agg + avg metric
            # sub-agg over token lengths (the most common ES aggs shape)
            ((_sn, sub),) = spec["aggs"].items()
            if set(sub) != {"avg"}:
                raise ValueError("only an avg sub-agg is supported under terms")
            out[name] = extras.terms_stats_agg(
                reader, query_text, field=spec["terms"]["field"],
                size=int(spec["terms"].get("size", 10)), mode=mode)
            continue
        if len(spec) != 1:
            raise ValueError(f"agg {name!r} must have exactly one type key")
        (kind, body), = spec.items()
        if kind == "terms":
            out[name] = extras.terms_agg(
                reader, query_text, field=body["field"],
                size=int(body.get("size", 10)),
                shard_size=body.get("shard_size"), mode=mode)
        elif kind == "multi_terms":
            out[name] = extras.multi_terms_agg(
                reader, query_text,
                fields=tuple(t["field"] for t in body["terms"]),
                size=int(body.get("size", 10)), mode=mode)
        elif kind == "rare_terms":
            out[name] = extras.rare_terms_agg(
                reader, query_text, field=body["field"],
                max_doc_count=int(body.get("max_doc_count", 1)), mode=mode)
        elif kind == "date_histogram":
            out[name] = reader.date_histogram(
                query_text, ts_field=body["field"],
                interval_us=parse_interval_us(body["fixed_interval"]),
                mode=mode)
        elif kind == "percentiles":
            out[name] = extras.percentiles_agg(
                reader, query_text,
                qs=tuple(p / 100.0 for p in body.get(
                    "percents", [25.0, 50.0, 75.0])),
                mode=mode)
        elif kind == "percentile_ranks":
            out[name] = extras.percentile_ranks_agg(
                reader, query_text, list(body["values"]), mode=mode)
        elif kind == "cardinality":
            out[name] = extras.cardinality_agg(
                reader, query_text, field=body["field"], mode=mode)
        elif kind == "extended_stats":
            out[name] = extras.extended_stats_agg(reader, query_text, mode=mode)
        elif kind == "stats":
            out[name] = extras.stats_agg(reader, query_text, mode=mode)
        elif kind == "missing":
            out[name] = extras.missing_agg(
                reader, query_text, field=body["field"], mode=mode)
        elif kind == "histogram":
            out[name] = extras.histogram_agg(
                reader, query_text,
                interval=int(body.get("interval", 10)), mode=mode)
        elif kind in ("avg", "min", "max", "sum", "value_count"):
            # single-value metric aggs: the ES {"value": v} response shape,
            # projected from the same exact-integer stats pass
            stats = extras.stats_agg(reader, query_text, mode=mode)
            col = {"avg": "avg_dl", "min": "min_dl", "max": "max_dl",
                   "sum": "sum_dl", "value_count": "n"}[kind]
            out[name] = (
                stats[[col]].rename(columns={col: "value"})
                if len(stats) else pd.DataFrame({"value": pd.Series(dtype=np.float64)})
            )
        elif kind == "median_absolute_deviation":
            out[name] = extras.mad_agg(reader, query_text, mode=mode)
        elif kind == "string_stats":
            out[name] = extras.string_stats_agg(
                reader, query_text, field=body["field"], mode=mode)
        elif kind == "boxplot":
            out[name] = extras.boxplot_agg(reader, query_text, mode=mode)
        elif kind == "range":
            ranges = [
                (r.get("from"), r.get("to")) for r in body["ranges"]
            ]
            out[name] = extras.range_agg(reader, query_text, ranges, mode=mode)
        elif kind == "filters":
            named = {n: _terms_filter(flt) for n, flt in body["filters"].items()}
            out[name] = extras.filters_agg(
                reader, query_text, named,
                other_bucket=bool(body.get("other_bucket", True)), mode=mode)
        elif kind == "adjacency_matrix":
            named = {n: _terms_filter(flt) for n, flt in body["filters"].items()}
            out[name] = extras.adjacency_matrix(reader, query_text, named, mode=mode)
        elif kind == "significant_terms":
            out[name] = extras.significant_terms(
                reader, query_text, n=int(body.get("size", 20)), mode=mode)
        elif kind == "composite":
            out[name] = extras.composite_agg(
                reader, query_text,
                sources=tuple(
                    next(iter(s.values()))["terms"]["field"]
                    for s in body["sources"]
                ),
                size=int(body.get("size", 10)),
                after=tuple(body["after"]) if "after" in body else None,
                mode=mode)
        elif kind == "moving_fn":
            out[name] = pipeline_aggs.moving_fn(
                reader, query_text, window=int(body.get("window", 3)),
                ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "serial_diff":
            out[name] = pipeline_aggs.serial_diff(
                reader, query_text, lag=int(body.get("lag", 2)),
                ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "bucket_script":
            out[name] = pipeline_aggs.bucket_script(
                reader, query_text, tool_field=body.get("tool_field", "tool"),
                ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "normalize":
            out[name] = pipeline_aggs.normalize_agg(
                reader, query_text, ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "moving_percentiles":
            out[name] = pipeline_aggs.moving_percentiles(
                reader, query_text, window=int(body.get("window", 3)),
                q=float(body.get("percent", 50.0)) / 100.0,
                ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "extended_stats_bucket":
            out[name] = pipeline_aggs.extended_stats_bucket(
                reader, query_text, ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "cumulative_cardinality":
            out[name] = pipeline_aggs.cumulative_cardinality(
                reader, query_text, field=body["field"],
                ts_field=body.get("ts_field", "ts"), mode=mode)
        elif kind == "bucket_sort":
            out[name] = pipeline_aggs.bucket_sort(
                reader, query_text, size=int(body.get("size", 10)),
                min_count=int(body.get("min_count", 1)),
                ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "weighted_avg":
            out[name] = pipeline_aggs.weighted_avg(
                reader, query_text, ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "top_metrics":
            out[name] = pipeline_aggs.top_metrics(
                reader, query_text, group=body.get("group", "tool"),
                ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "diversified_sampler":
            out[name] = pipeline_aggs.diversified_sampler(
                reader, query_text, field=body["field"],
                max_per=int(body.get("max_docs_per_value", 1)),
                k=int(body.get("shard_size", 10)), mode=mode)
        elif kind == "rate":
            unit = {"second": 1_000_000, "minute": 60_000_000,
                    "hour": 3_600_000_000}[body.get("unit", "minute")]
            out[name] = pipeline_aggs.rate_agg(
                reader, query_text, unit_us=unit,
                ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "auto_date_histogram":
            out[name] = pipeline_aggs.auto_date_histogram(
                reader, query_text,
                target_buckets=int(body.get("buckets", 20)),
                ts_field=body.get("field", "ts"), mode=mode)
        elif kind == "top_hits":
            out[name] = extras.top_hits(
                reader, query_text, field=body["field"],
                per_group=int(body.get("size", 3)),
                n_groups=int(body.get("n_groups", 5)), mode=mode)
        elif kind == "t_test":
            out[name] = extras.t_test_agg(
                reader, query_text, field=body["field"],
                group_a=body["a"], group_b=body["b"], mode=mode)
        else:
            raise ValueError(f"unsupported aggregation type: {kind!r}")
    return out


def _terms_filter(flt: dict) -> dict[str, list]:
    """A filters-agg leaf: {"term": {f: v}} or {"terms": {f: [v...]}}."""
    if "term" in flt:
        ((f, v),) = flt["term"].items()
        return {f: [v]}
    if "terms" in flt:
        ((f, vs),) = flt["terms"].items()
        return {f: list(vs)}
    raise ValueError(f"unsupported filter leaf: {sorted(flt)}")
