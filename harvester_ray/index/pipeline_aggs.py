"""ES pipeline / bucket aggregations over the match set's time histogram:
``moving_fn`` (moving average), ``serial_diff``, ``bucket_selector`` +
``bucket_sort``, ``cumulative_cardinality``, ``weighted_avg``,
``top_metrics``, ``diversified_sampler`` and ``auto_date_histogram``.

The reference's search surface delegates aggregations wholesale to
OpenSearch (harvester/search/views/document.py:129-143 builds the request;
the agg tree itself is evaluated inside the ES cluster). These are the
native equivalents over the segment index.

Scale/parity notes shared by every function here:

- The histogram-shaped aggs read ``date_histogram``; ``cumulative_cardinality``,
  ``weighted_avg`` and ``bucket_script`` fold ``value_counts`` partials
  (``(bucket, key)``, ``(dl, hour)`` and ``(bucket, tool)`` counts). Either
  way only per-segment counts of distinct keys leave a segment — never the
  match set — so the merge is bounded by the time range / key cardinality,
  not by the corpus, and a ``QueryService`` answers them on its actors.
  ``top_metrics`` alone needs row-level pairs (the argmax row per group)
  and walks the matches in process.
- Every emitted float is derived from integer sufficient statistics with
  half-away-from-zero fixed-point division — ``(2·num·10^d + den) //
  (2·den)`` — mirrored verbatim by the SQL oracles, so the driver's value
  hash is exact (CLAUDE.md round-2 parity rules: never round-half a float).
- Buckets are epoch-microsecond integers (``epoch_us // interval ·
  interval``), identical on both sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .extras import _scored, key_counts
from .query import IndexReader, key_name

HOUR_US = 3_600_000_000


def _match_frame(
    reader: IndexReader,
    query_text: str,
    *,
    mode: str = "or",
    attrs: tuple[str, ...] = (),
    with_dl: bool = False,
) -> pd.DataFrame:
    """Matched doc ids + requested attribute columns, one segment at a
    time. Only used by aggs whose per-segment reduction genuinely needs
    row-level pairs (top_metrics); histogram aggs reduce to (bucket, count)
    before concatenating."""
    parts: list[pd.DataFrame] = []
    for seg, docs in reader.matches(query_text, mode):
        cols = {"doc_id": docs}
        for a in attrs:
            cols[a] = seg.attr_values(a, docs)
        if with_dl:
            cols["dl"] = seg.doc_lengths(docs)
        parts.append(pd.DataFrame(cols))
    if not parts:
        return pd.DataFrame()
    return pd.concat(parts, ignore_index=True)


def _fixed_div(num: np.ndarray, den: np.ndarray, digits: int) -> np.ndarray:
    """Half-away-from-zero fixed-point division on integer arrays:
    floor(num/den · 10^digits + 0.5) computed entirely in int64 —
    ``(2·num·10^digits + den) // (2·den)`` — then back to float. The SQL
    oracles use the identical BIGINT expression."""
    num = num.astype(np.int64)
    den = den.astype(np.int64)
    scale = 10 ** digits
    q = (2 * num * scale + den) // (2 * den)
    return q.astype(np.float64) / scale


def moving_fn(
    reader: IndexReader,
    query_text: str,
    *,
    window: int = 3,
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``moving_fn`` (MovingFunctions.unweightedAvg) over the
    date-histogram bucket counts: trailing mean of the last ``window``
    buckets *including the current one*, partial windows averaged over the
    buckets actually present (SQL ``ROWS BETWEEN window-1 PRECEDING AND
    CURRENT ROW`` semantics — documented deviation from ES's
    shift-defaults, which exclude the current bucket)."""
    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    if h.empty:
        h["moving_avg"] = pd.Series(dtype=np.float64)
        return h
    c = h["doc_count"].to_numpy()
    sums = pd.Series(c).rolling(window, min_periods=1).sum().to_numpy()
    counts = pd.Series(c).rolling(window, min_periods=1).count().to_numpy()
    h["moving_avg"] = _fixed_div(sums, counts, 6)
    return h


def serial_diff(
    reader: IndexReader,
    query_text: str,
    *,
    lag: int = 2,
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``serial_diff`` pipeline agg: ``doc_count - lag(doc_count, lag)``
    over the bucket sequence; the first ``lag`` buckets (no predecessor)
    are omitted, mirroring ES's skip gap policy. Integer-exact."""
    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    empty = pd.DataFrame({
        "bucket_us": pd.Series(dtype=np.int64),
        "doc_count": pd.Series(dtype=np.int64),
        "diff": pd.Series(dtype=np.int64),
    })
    if len(h) <= lag:
        return empty
    c = h["doc_count"].to_numpy()
    h["diff"] = c - np.roll(c, lag)
    out = h.iloc[lag:].reset_index(drop=True)
    return out.astype({"diff": np.int64})


def bucket_sort(
    reader: IndexReader,
    query_text: str,
    *,
    min_count: int = 1,
    size: int = 10,
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``bucket_selector`` + ``bucket_sort`` pipeline: keep histogram
    buckets with ``doc_count >= min_count`` (selector), order by
    ``doc_count DESC, bucket_us ASC`` and truncate to ``size`` (sort).
    Pure integer ranking — no parity risk."""
    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    if h.empty:
        return h
    h = h[h["doc_count"] >= min_count]
    h = h.sort_values(
        ["doc_count", "bucket_us"], ascending=[False, True], kind="mergesort"
    )
    return h.head(size).reset_index(drop=True)


def cumulative_cardinality(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "conv_id",
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``cumulative_cardinality`` pipeline agg, exact: per histogram
    bucket the number of DISTINCT ``field`` values seen in any bucket up to
    and including it. The ``(bucket, field)`` counts fold into the
    histogram and into each key's first bucket, then a cumulative sum of
    first-appearance counts — bounded by key-cardinality × time-range,
    never the match count."""
    bucket = (ts_field, interval_us)
    h = key_counts(reader, query_text, [bucket, field], mode).to_pandas()
    if h.empty:
        return pd.DataFrame({
            "bucket_us": pd.Series(dtype=np.int64),
            "doc_count": pd.Series(dtype=np.int64),
            "cum_card": pd.Series(dtype=np.int64),
        })
    h = h.rename(columns={key_name(bucket): "bucket_us"})
    hist = (
        h.groupby("bucket_us", as_index=False)["count"].sum()
        .rename(columns={"count": "doc_count"})
    )
    firsts = h.groupby(field)["bucket_us"].min().value_counts()
    hist["cum_card"] = (
        hist["bucket_us"].map(firsts).fillna(0).cumsum().astype(np.int64)
    )
    return hist.astype({"bucket_us": np.int64, "doc_count": np.int64})


def weighted_avg(
    reader: IndexReader,
    query_text: str,
    *,
    ts_field: str = "ts",
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``weighted_avg`` metric agg over the match set: value = indexed
    doc length, weight = UTC hour-of-day + 1 derived from the timestamp
    attribute (an integer weight so the whole aggregation stays in integers;
    ``(epoch_us // 3600s) % 24 + 1`` on both sides), from the
    ``(dl, hour of day)`` counts (at most 24 per doc length). One (Σv·w,
    Σw) pair; the quotient is emitted with 6-digit half-away fixed-point."""
    hour = (ts_field, HOUR_US, 24)
    h = key_counts(reader, query_text, ["dl", hour], mode)
    c = np.asarray(h["count"], np.int64).astype(object)
    w = (np.asarray(h[key_name(hour)], np.int64) + 1).astype(object)
    # Python ints: Σv·w at corpus scale exceeds what 2·num·10^6 can hold
    # in int64, and the quotient must stay exact (HUGEINT in the oracle)
    w_sum = int((w * c).sum())
    if w_sum == 0:
        return pd.DataFrame({
            "weight_sum": pd.Series(dtype=np.int64),
            "weighted_avg": pd.Series(dtype=np.float64),
        })
    vw_sum = int((np.asarray(h["dl"], np.int64).astype(object) * w * c).sum())
    avg = ((2 * vw_sum * 1_000_000 + w_sum) // (2 * w_sum)) / 1e6
    return pd.DataFrame({
        "weight_sum": np.array([w_sum], dtype=np.int64),
        "weighted_avg": np.array([avg], dtype=np.float64),
    })


def top_metrics(
    reader: IndexReader,
    query_text: str,
    *,
    group: str = "tool",
    ts_field: str = "ts",
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``top_metrics`` under a ``terms`` agg: per ``group`` value the
    metrics (timestamp in epoch-µs, doc id) of the single match sorted
    first by ``dl DESC, doc_id ASC`` — the argmax row per bucket. Ranking
    key is pure integers; oracle via QUALIFY row_number."""
    m = _match_frame(
        reader, query_text, mode=mode, attrs=(group, ts_field), with_dl=True
    )
    if m.empty:
        return pd.DataFrame({
            group: pd.Series(dtype=object),
            "top_dl": pd.Series(dtype=np.int64),
            "top_ts_us": pd.Series(dtype=np.int64),
            "doc_id": pd.Series(dtype=np.int64),
        })
    m["ts_us"] = m[ts_field].astype("datetime64[us]").astype(np.int64)
    m = m.sort_values(
        ["dl", "doc_id"], ascending=[False, True], kind="mergesort"
    )
    top = m.drop_duplicates(subset=[group], keep="first")
    top = top.sort_values(group, kind="mergesort").reset_index(drop=True)
    return pd.DataFrame({
        group: top[group].astype(str),
        "top_dl": top["dl"].astype(np.int64),
        "top_ts_us": top["ts_us"].astype(np.int64),
        "doc_id": top["doc_id"].astype(np.int64),
    })


def diversified_sampler(
    reader: IndexReader,
    query_text: str,
    *,
    field: str = "conv_id",
    max_per: int = 1,
    k: int = 10,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``diversified_sampler`` agg: the BM25-ranked match list with at
    most ``max_per`` docs per ``field`` value, truncated to ``k`` — the
    de-duplicated sample ES feeds into sub-aggs. Scores quantize to 1e-4
    fixed-point BEFORE ranking (CLAUDE.md rank-composition rule) so the
    (score, doc_id) order is exact integer on both sides."""
    t = _scored(reader, query_text, mode, [field])
    if t.num_rows == 0:
        return pd.DataFrame({
            "doc_id": pd.Series(dtype=np.int64),
            field: pd.Series(dtype=object),
            "score": pd.Series(dtype=np.float64),
        })
    allm = pd.DataFrame({
        "doc_id": np.asarray(t["doc_id"], np.int64),
        field: np.asarray(t[field]),
        "fp": np.floor(np.asarray(t["score"], np.float64) * 1e4 + 0.5).astype(np.int64),
    }).sort_values(["fp", "doc_id"], ascending=[False, True], kind="mergesort")
    allm["rank_in_key"] = allm.groupby(field).cumcount()
    out = allm[allm["rank_in_key"] < max_per].head(k).reset_index(drop=True)
    return pd.DataFrame({
        "doc_id": out["doc_id"].astype(np.int64),
        field: out[field].astype(str),
        "score": (out["fp"] / 1e4).round(4),
    })


AUTO_LADDER_US = (
    60_000_000,          # 1 minute
    300_000_000,         # 5 minutes
    1_800_000_000,       # 30 minutes
    3_600_000_000,       # 1 hour
    10_800_000_000,      # 3 hours
    43_200_000_000,      # 12 hours
    86_400_000_000,      # 1 day
    604_800_000_000,     # 7 days
)


def auto_date_histogram(
    reader: IndexReader,
    query_text: str,
    *,
    target_buckets: int = 20,
    ts_field: str = "ts",
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``auto_date_histogram``: pick the smallest interval from a fixed
    rounding ladder whose bucket SPAN (``max//i - min//i + 1``) stays
    within ``target_buckets``, then histogram at that interval. The chosen
    interval rides in the output so the oracle can assert the selection,
    not just the counts. Per segment only (finest-ladder bucket, count)
    partials leave the worker — every coarser ladder interval is an exact
    multiple of the 1-minute base, so min/max, the interval choice AND the
    final counts all re-derive from those bounded partials without a second
    pass over the match set."""
    empty = pd.DataFrame({
        "interval_us": pd.Series(dtype=np.int64),
        "bucket_us": pd.Series(dtype=np.int64),
        "doc_count": pd.Series(dtype=np.int64),
    })
    base = AUTO_LADDER_US[0]
    fine = reader.date_histogram(query_text, ts_field=ts_field, interval_us=base, mode=mode)
    if fine.empty:
        return empty
    # a ts's bucket at any ladder interval i equals its minute-floor's
    # bucket at i (i % base == 0), so minute partials decide everything
    mn = int(fine["bucket_us"].iloc[0])
    mx = int(fine["bucket_us"].iloc[-1])
    interval = AUTO_LADDER_US[-1]
    for i in AUTO_LADDER_US:
        if mx // i - mn // i + 1 <= target_buckets:
            interval = i
            break
    fine["bucket_us"] = (fine["bucket_us"] // interval) * interval
    out = (
        fine.groupby("bucket_us", as_index=False)["doc_count"].sum()
        .sort_values("bucket_us")
        .reset_index(drop=True)
    )
    out.insert(0, "interval_us", np.int64(interval))
    return out.astype({
        "interval_us": np.int64, "bucket_us": np.int64, "doc_count": np.int64,
    })


def bucket_script(
    reader: IndexReader,
    query_text: str,
    *,
    tool_field: str = "tool",
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``bucket_script`` pipeline agg: a derived per-bucket metric
    computed from two sibling metrics of the same histogram — here the
    tool-call share ``tool_count / doc_count`` per hourly bucket (the
    canonical ES example is exactly such a ratio script). Both counts fold
    from the ``(bucket, tool)`` counts (tool_count: the non-null tools);
    the ratio uses the shared half-away fixed-point quotient so the oracle
    hash is exact."""
    bucket = (ts_field, interval_us)
    h = key_counts(reader, query_text, [bucket, tool_field], mode)
    if h.num_rows == 0:
        return pd.DataFrame({
            "bucket_us": pd.Series(dtype=np.int64),
            "doc_count": pd.Series(dtype=np.int64),
            "tool_count": pd.Series(dtype=np.int64),
            "tool_share": pd.Series(dtype=np.float64),
        })
    c = np.asarray(h["count"], np.int64)
    out = pd.DataFrame({
        "bucket_us": np.asarray(h[key_name(bucket)], np.int64),
        "doc_count": c,
        "tool_count": c * np.asarray(h[tool_field].is_valid()),
    }).groupby("bucket_us", as_index=False).sum()
    out["tool_share"] = _fixed_div(
        out["tool_count"].to_numpy(), out["doc_count"].to_numpy(), 6
    )
    return out.astype({"bucket_us": np.int64, "doc_count": np.int64, "tool_count": np.int64})


def normalize_agg(
    reader: IndexReader,
    query_text: str,
    *,
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``normalize`` pipeline agg (method=percent_of_sum): each hourly
    bucket's doc_count as a percentage of the histogram total. Integer
    sufficient statistics; percent = fixed-point (100·count)/total with the
    shared half-away quotient."""
    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    if h.empty:
        h["percent_of_sum"] = pd.Series(dtype=np.float64)
        return h
    total = int(h["doc_count"].sum())
    h["percent_of_sum"] = _fixed_div(
        100 * h["doc_count"].to_numpy(np.int64),
        np.full(len(h), total, dtype=np.int64),
        6,
    )
    return h


def rate_agg(
    reader: IndexReader,
    query_text: str,
    *,
    unit_us: int = 60_000_000,
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``rate`` agg inside a date_histogram: each bucket's doc_count
    normalized to events per ``unit`` (default per-minute under hourly
    buckets). rate = count · unit/interval with the unit/interval fraction
    reduced by gcd FIRST so the shared half-away fixed-point quotient
    stays in int64 for any sane unit pair."""
    import math

    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    if h.empty:
        h["rate"] = pd.Series(dtype=np.float64)
        return h
    g = math.gcd(unit_us, interval_us)
    nu, de = unit_us // g, interval_us // g
    h["rate"] = _fixed_div(
        h["doc_count"].to_numpy(np.int64) * nu,
        np.full(len(h), de, dtype=np.int64),
        6,
    )
    return h


def moving_percentiles(
    reader: IndexReader,
    query_text: str,
    *,
    window: int = 3,
    q: float = 0.5,
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``moving_percentiles`` pipeline agg — EXACT (the counts are small
    integers, not a TDigest): the ``q``-quantile (quantile_cont
    interpolation) of the trailing ``window`` bucket counts including the
    current one; partial leading windows use the buckets present (the
    moving_fn convention). Integer counts → dyadic interpolated values,
    bit-exact against the SQL window quantile_cont."""
    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    if h.empty:
        h["moving_pct"] = pd.Series(dtype=np.float64)
        return h
    c = h["doc_count"].to_numpy(np.int64)
    vals = np.empty(c.size, dtype=np.float64)
    for i in range(c.size):
        w = np.sort(c[max(0, i - window + 1): i + 1]).astype(np.float64)
        hpos = q * (w.size - 1)
        lo = int(np.floor(hpos))
        hi = min(lo + 1, w.size - 1)
        vals[i] = w[lo] + (hpos - lo) * (w[hi] - w[lo])
    h["moving_pct"] = vals
    return h


def extended_stats_bucket(
    reader: IndexReader,
    query_text: str,
    *,
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
) -> pd.DataFrame:
    """ES ``extended_stats_bucket`` pipeline agg: variance/σ of the
    date-histogram bucket counts on top of stats_bucket's min/max/sum/mean
    — the HUGEINT-numerator recipe of extras.extended_stats_agg applied to
    the histogram. One row."""
    import math

    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    if h.empty:
        return pd.DataFrame({
            "n_buckets": pd.Series(dtype=np.int64),
            "min_count": pd.Series(dtype=np.int64),
            "max_count": pd.Series(dtype=np.int64),
            "sum_count": pd.Series(dtype=np.int64),
            "avg_count": pd.Series(dtype=np.float64),
            "variance": pd.Series(dtype=np.float64),
            "std_dev": pd.Series(dtype=np.float64),
        })
    c = h["doc_count"].to_numpy(np.int64)
    n = int(c.size)
    s = int(c.sum())
    s2 = int((c * c).sum())
    var_num = n * s2 - s * s

    def r6(x: float) -> float:
        return math.floor(x * 1e6 + 0.5) / 1e6

    return pd.DataFrame([{
        "n_buckets": np.int64(n),
        "min_count": np.int64(c.min()),
        "max_count": np.int64(c.max()),
        "sum_count": np.int64(s),
        "avg_count": r6(s * 1.0 / n),
        "variance": r6(float(var_num) / (float(n) * n)),
        "std_dev": r6(math.sqrt(float(var_num)) / n),
    }])


def bucket_selector(
    reader: IndexReader,
    query_text: str,
    *,
    tool_field: str = "tool",
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
    min_docs: int = 3,
    share_num: int = 1,
    share_den: int = 4,
) -> pd.DataFrame:
    """ES ``bucket_selector`` pipeline agg: drop histogram buckets whose
    sibling metrics fail a predicate script — here
    ``doc_count >= min_docs AND tool_count·share_den >= doc_count·share_num``
    (busy hours with at least a share_num/share_den tool-call share). The
    predicate is pure integer arithmetic on the same
    (bucket, doc_count, tool_count) partials as ``bucket_script`` — no
    float enters, so both sides keep exactly the same buckets. Returns the
    surviving ``(bucket_us, doc_count, tool_count)`` rows ascending."""
    h = bucket_script(
        reader, query_text, tool_field=tool_field, ts_field=ts_field,
        interval_us=interval_us, mode=mode,
    )
    keep = (h["doc_count"] >= min_docs) & (
        h["tool_count"] * share_den >= h["doc_count"] * share_num
    )
    return h.loc[keep, ["bucket_us", "doc_count", "tool_count"]].reset_index(drop=True)


def percentiles_bucket(
    reader: IndexReader,
    query_text: str,
    *,
    ts_field: str = "ts",
    interval_us: int = HOUR_US,
    mode: str = "or",
    qs: tuple[float, ...] = (0.25, 0.5, 0.75),
) -> pd.DataFrame:
    """ES ``percentiles_bucket`` pipeline agg: percentiles of the sibling
    date-histogram's bucket counts (the load-distribution summary on top of
    the histogram). np.quantile 'linear' ≡ DuckDB quantile_cont, and
    quarter-quantiles of integer counts are dyadic rationals → exact float
    equality (the role_token_quantiles rule). One row
    ``(n_buckets, p25, p50, p75)``."""
    h = reader.date_histogram(
        query_text, ts_field=ts_field, interval_us=interval_us, mode=mode
    )
    if h.empty:
        # the oracle's single aggregate SELECT always yields one row
        # (n_buckets=0, NULL percentiles) — mirror it, not a 0-row frame
        row = {"n_buckets": np.int64(0)}
        for p in qs:
            row[f"p{int(p * 100)}"] = np.nan
        return pd.DataFrame([row])
    v = h["doc_count"].to_numpy(np.float64)
    row = {"n_buckets": np.int64(v.size)}
    for p in qs:
        row[f"p{int(p * 100)}"] = float(np.quantile(v, p, method="linear"))
    return pd.DataFrame([row])
