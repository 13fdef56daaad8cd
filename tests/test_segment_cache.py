"""The one byte-budgeted cache each reader set shares (``query.SegmentCache``).

Every cached value is a pure function of its immutable segment, so what the
cache holds must never change an answer: one fixture index answers every
query surface (and a span extra: every span kind shares the ``match``
cache) at the derived budget and at a budget so small that every
kind evicts, in process and through ``QueryService``, and both runs must
agree. After every call the cache holds at most its budget.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from harvester_ray.index import build, extras, query
from test_extras import DOCS  # the sf0.001 documents table

KINDS = {"postings", "pos", "score", "packed", "match"}
# a few cache entries' worth on this fixture (~28k tokens over 3 segments)
SMALL_BYTES_PER_TOKEN = 0.4
QUERIES = [
    ("hash scan", "and"), ("spark window table", "and"), ("dup", "and"),
    ("dup join", "or"), ("customer row big", "or"), ("a the", "or"),
    ("vector stream filter", "and"), ("merge", "or"), ("nothere", "and"),
]
PHRASES = ["hash scan", "batch batch", "spark window", "order sort table", "dup"]
FILTERS = {"source": ["src0", "src3", "src7"], "lang": ["en", "de"]}


# -- the cache object ---------------------------------------------------------


def _arr(n: int) -> np.ndarray:
    return np.zeros(n, np.uint8)


def test_get_stores_counts_and_evicts_lru_within_budget():
    entry = query.CACHE_ENTRY_BYTES
    c = query.SegmentCache(3 * (entry + 100))
    for term in ("a", "b", "c"):
        c.get(("postings", "s", term), lambda: _arr(100))
    assert c.bytes == 3 * (entry + 100)
    assert c.get(("postings", "s", "a"), lambda: pytest.fail("hit recomputed")).size == 100
    c.get(("match", "s", ("phrase", "x")), lambda: (_arr(60), _arr(40)))  # evicts b, the LRU
    assert ("postings", "s", "b") not in c and ("postings", "s", "a") in c
    st = c.stats()
    assert set(st) == KINDS
    assert st["postings"] == {"hits": 1, "misses": 3, "evictions": 1, "bytes": 2 * (entry + 100)}
    assert st["match"] == {"hits": 0, "misses": 1, "evictions": 0, "bytes": entry + 100}
    assert c.bytes == sum(s["bytes"] for s in st.values()) <= c.budget


def test_peek_moves_neither_counters_nor_recency():
    entry = query.CACHE_ENTRY_BYTES
    c = query.SegmentCache(2 * (entry + 10))
    c.get(("pos", "s", "a"), lambda: _arr(10))
    c.get(("pos", "s", "b"), lambda: _arr(10))
    before = c.stats()
    assert ("pos", "s", "a") in c  # a stays least recently used
    assert c.stats() == before
    c.get(("pos", "s", "c"), lambda: _arr(10))
    assert ("pos", "s", "a") not in c and ("pos", "s", "b") in c


def test_value_larger_than_budget_is_returned_not_stored():
    c = query.SegmentCache(1000)
    big = _arr(1000)
    assert c.get(("score", "s", ("t", 1.0, 2.0)), lambda: big) is big
    assert ("score", "s", ("t", 1.0, 2.0)) not in c
    assert c.bytes == 0 and c.stats()["score"]["misses"] == 1
    zero = query.SegmentCache(0)  # what compaction's bulk decode passes
    assert zero.get(("match", "s", ("phrase",)), lambda: (_arr(0), _arr(0)))[0].size == 0
    assert zero.bytes == 0 and ("match", "s", ("phrase",)) not in zero


def test_budget_is_derived_from_the_segments_tokens(index):
    reader = query.IndexReader(index)
    tokens = sum(int(m["dl_sum"]) for m in reader.manifest["segments"])
    assert reader.cache.budget == query.CACHE_BYTES_PER_TOKEN * tokens
    segs = reader.manifest["segments"]
    actor = query.QuerySegmentActor(index, segs[::2], reader.manifest)
    assert actor.cache.budget == query.CACHE_BYTES_PER_TOKEN * sum(
        int(m["dl_sum"]) for m in segs[::2]
    )
    assert all(seg.cache is actor.cache for _, seg, _ in actor.readers)


# -- purity: answers do not depend on the budget ------------------------------


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cacheidx"))
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "source", "lang"]).repartition(3)
    build.build_index(ds, root, concurrency=1, attr_cols=["source", "lang"], store_positions=True)
    assert len(query.IndexReader(root).manifest["segments"]) == 3
    return root


def _rows(out):
    df = out.to_pandas() if isinstance(out, pa.Table) else out
    if isinstance(df, pd.DataFrame):
        return [tuple(r) for r in df.round(9).itertuples(index=False)]
    return df  # a counts dict


def _check_within_budget(caches) -> None:
    for used, budget, stats in caches:
        assert used <= budget
        assert used == sum(s["bytes"] for s in stats.values())


def _reader_answers(root: str) -> tuple[dict, dict]:
    reader = query.IndexReader(root)
    calls = {}
    for q, mode in QUERIES:
        calls[f"search {q} {mode}"] = lambda q=q, mode=mode: reader.search(q, k=7, mode=mode)
        calls[f"filtered {q} {mode}"] = lambda q=q, mode=mode: reader.search(
            q, k=7, mode=mode, filters=FILTERS)
        calls[f"must_not {q} {mode}"] = lambda q=q, mode=mode: reader.search(
            q, k=7, mode=mode, must_not="dup hash")
        calls[f"counts {q} {mode}"] = lambda q=q, mode=mode: reader.match_counts(
            q, mode=mode, count_fields=["source", "lang"], filters=FILTERS)
        calls[f"page {q} {mode}"] = lambda q=q, mode=mode: reader.search_page(
            q, page=2, page_size=5, mode=mode, ordering="-source")
    calls["msearch"] = lambda: reader.msearch([q for q, _ in QUERIES], k=7, mode="or")
    for p in PHRASES:
        calls[f"phrase {p}"] = lambda p=p: reader.search_phrase(p, k=7)
        calls[f"phrase filtered {p}"] = lambda p=p: reader.search_phrase(p, k=7, filters=FILTERS)
        calls[f"proximity {p}"] = lambda p=p: reader.search_proximity(p, k=7, slop=2)
        calls[f"span_first {p}"] = lambda p=p: extras.search_span_first(reader, p.split()[0], end=5, k=7)
    answers = {}
    for _ in range(2):  # the second pass reads what the first one cached
        for name, call in calls.items():
            rows = _rows(call())
            assert answers.setdefault(name, rows) == rows, name
            _check_within_budget([(reader.cache.bytes, reader.cache.budget, reader.cache.stats())])
    return answers, reader.cache.stats()


def _service_answers(root: str, monkeypatch) -> tuple[dict, list]:
    per_token = query.CACHE_BYTES_PER_TOKEN  # the driver's value, shipped to the actors

    class Actor(query.QuerySegmentActor):
        def __init__(self, index_root, seg_metas, manifest):
            super().__init__(index_root, seg_metas, manifest)
            self.cache.budget = int(per_token * sum(int(m["dl_sum"]) for m in seg_metas))

        def cache_state(self):
            return self.cache.bytes, self.cache.budget, self.cache.stats()

    monkeypatch.setattr(query, "QuerySegmentActor", Actor)
    svc = query.QueryService(root, num_actors=2)
    try:
        calls = {}
        for q, mode in QUERIES:
            calls[f"search {q} {mode}"] = lambda q=q, mode=mode: svc.search(q, k=7, mode=mode)
            calls[f"filtered {q} {mode}"] = lambda q=q, mode=mode: svc.search(
                q, k=7, mode=mode, filters=FILTERS)
            calls[f"must_not {q} {mode}"] = lambda q=q, mode=mode: svc.search(
                q, k=7, mode=mode, must_not="dup hash")
            calls[f"counts {q} {mode}"] = lambda q=q, mode=mode: svc.match_counts(
                q, mode=mode, count_fields=["source", "lang"], filters=FILTERS)
            calls[f"page {q} {mode}"] = lambda q=q, mode=mode: svc.search_page(
                q, page=2, page_size=5, mode=mode, ordering="-source")
        calls["service msearch"] = lambda: svc.msearch(QUERIES, k=7)
        for p in PHRASES:
            calls[f"phrase {p}"] = lambda p=p: svc.search_phrase(p, k=7)
            calls[f"phrase filtered {p}"] = lambda p=p: svc.search_phrase(p, k=7, filters=FILTERS)
            calls[f"proximity {p}"] = lambda p=p: svc.search_proximity(p, k=7, slop=2)
            calls[f"span_first {p}"] = lambda p=p: extras.search_span_first(svc, p.split()[0], end=5, k=7)
        answers = {}
        for _ in range(2):
            for name, call in calls.items():
                out = call()
                rows = [_rows(t) for t in out] if name == "service msearch" else _rows(out)
                assert answers.setdefault(name, rows) == rows, name
                _check_within_budget(ray.get([a.cache_state.remote() for a in svc.actors]))
        stats = [s["cache"] for s in svc.actor_stats()]
    finally:
        svc.shutdown()
    return answers, stats


def test_answers_do_not_depend_on_the_cache_budget(index, monkeypatch):
    full, full_stats = _reader_answers(index)
    served, _ = _service_answers(index, monkeypatch)
    assert any(rows for rows in full.values())

    monkeypatch.setattr(query, "CACHE_BYTES_PER_TOKEN", SMALL_BYTES_PER_TOKEN)
    small, small_stats = _reader_answers(index)
    small_served, small_served_stats = _service_answers(index, monkeypatch)

    assert small == full
    assert small_served == served
    # the service answers every call the in-process reader does, the same
    assert set(served) - {"service msearch"} == set(full) - {"msearch"}
    for name, rows in served.items():
        if name != "service msearch":
            assert rows == full[name], name
    for stats in [small_stats, *small_served_stats]:
        assert all(stats[kind]["evictions"] > 0 for kind in KINDS), stats
    assert all(full_stats[kind]["misses"] > 0 for kind in KINDS)
