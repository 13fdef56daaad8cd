"""Tombstones resolve once per segment into a live-docs mask
(``query.live_mask``), and every op drops dead docs through it.

- the mask helper itself: ids a segment does not hold, docs re-added by a
  newer segment, the legacy flat tombstone list, and a segment with no
  dead docs (no mask at all);
- a delta whose modified and deleted docs were the top BM25, phrase,
  proximity and ``match_counts`` hits before it: every ``SearchSurfaces``
  surface, with ``must_not`` and filters on top of the tombstones, on both
  backends and on a build whose doc ids are all >= 2^62, returns no dead
  doc and answers exactly like a full rebuild of the merged corpus;
- a delta that leaves no live doc holding a dictionary term: spelling and
  fuzzy candidates (``SearchSurfaces.vocab``) and every prefix, wildcard
  and regexp expansion answer like a rebuild, so a dead term never takes a
  ``max_expansions`` slot;
- a delta that rewrites a doc: every per-doc surface reads only its live
  copy (``doc_terms``), like a rebuild, on both backends.
"""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from harvester_ray.index import build, evaluate, extras, incremental, query
from test_prepared_query import BIG, FILTERS, QUERY, _corpus, _frame, _parity_calls, _same

ATTRS = ["source", "lang", "ts", "conv_id", "tool", "need"]
PHRASE = "sparks windowing"
PROXIMITY = "sparks engines"


# -- the mask helper ------------------------------------------------------------


def _tombs(pairs):
    return query.parse_tombstones({"tombstones": pairs})


def test_ids_the_segment_does_not_hold_are_ignored():
    doc_ids = np.array([10, 20, 30, 40], np.int64)
    live = query.live_mask(doc_ids, *_tombs([[5, 2], [20, 2], [35, 2], [99, 2]]), 1)
    assert live.tolist() == [True, False, True, True]
    assert query.live_mask(doc_ids, *_tombs([[5, 2], [35, 2], [99, 2]]), 1) is None


def test_a_doc_re_added_by_a_newer_segment_stays_live_there():
    doc_ids = np.array([1, 2, 3], np.int64)
    tombs = _tombs([[2, 2], [3, 2], [3, 4]])
    assert query.live_mask(doc_ids, *tombs, 1).tolist() == [True, False, False]
    # created by the delta that tombstoned 2 and 3 (v2): only v4 kills 3
    assert query.live_mask(doc_ids, *tombs, 2).tolist() == [True, True, False]
    assert query.live_mask(doc_ids, *tombs, 4) is None


def test_legacy_flat_tombstone_list_kills_everywhere():
    doc_ids = np.array([1, 2, 3], np.int64)
    tomb_ids, tomb_vers = query.parse_tombstones({"tombstones": [3, 1]})
    assert tomb_ids.tolist() == [3, 1]
    for created in (0, 7, 10**9):
        assert query.live_mask(doc_ids, tomb_ids, tomb_vers, created).tolist() == [
            False, True, False,
        ]


def test_a_segment_with_no_dead_docs_costs_nothing():
    doc_ids = np.array([1, 2, 3], np.int64)
    assert query.live_mask(doc_ids, *_tombs([]), 1) is None
    assert query.live_mask(np.empty(0, np.int64), *_tombs([[1, 2]]), 1) is None
    # every tombstone older than the segment
    assert query.live_mask(doc_ids, *_tombs([[1, 2], [2, 3]]), 3) is None


# -- a delta that kills the top hits ---------------------------------------------


def _build(root, df):
    build.build_index(
        rd.from_pandas(df).repartition(3), root, concurrency=1,
        attr_cols=ATTRS, store_positions=True, analyzer_version="v1",
    )


def _top(ids, n):
    return [int(d) for d in ids[:n]]


def _killer_delta(root, df):
    """Deleted and modified docs taken from the top of the base index's
    search, phrase, proximity and match results; modified docs lose every
    query term, and one top doc is re-added with its text unchanged."""
    r = query.IndexReader(root)
    hits = [
        _top(r.search(QUERY, k=6, mode="or")["doc_id"].to_numpy(), 6),
        _top(r.search_phrase(PHRASE, k=4)["doc_id"].to_numpy(), 4),
        _top(r.search_proximity(PROXIMITY, k=4, slop=2)["doc_id"].to_numpy(), 4),
        _top(r.search_page(QUERY, mode="and", ordering="source", page_size=4)["doc_id"].to_numpy(), 4),
    ]
    assert all(len(h) >= 3 for h in hits), hits
    ranked = list(dict.fromkeys(d for h in hits for d in h))
    deleted, modified = ranked[0::3], ranked[1::3]
    readded = ranked[2]
    rows = df.set_index("doc_id")
    delta = pd.concat([
        pd.DataFrame({"doc_id": deleted, "text": "", "state": "deleted"}),
        rows.loc[modified].reset_index().assign(text="quiet unrelated words", state="active"),
        rows.loc[[readded]].reset_index().assign(state="active"),
    ], ignore_index=True)
    merged = df[~df["doc_id"].isin(deleted)].copy()
    merged.loc[merged["doc_id"].isin(modified), "text"] = "quiet unrelated words"
    return delta, merged, set(deleted) | set(modified), readded


@pytest.fixture(scope="module", params=["v1", "big_ids"])
def killed(request, tmp_path_factory):
    df = _corpus()
    if request.param == "big_ids":
        df["doc_id"] += BIG
    delta_root = str(tmp_path_factory.mktemp(f"killed_{request.param}"))
    _build(delta_root, df)
    delta, merged, dead, readded = _killer_delta(delta_root, df)
    incremental.build_incremental(delta_root, rd.from_pandas(delta), integrity_check=False)
    rebuild_root = str(tmp_path_factory.mktemp(f"rebuild_{request.param}"))
    _build(rebuild_root, merged)
    return delta_root, rebuild_root, dead, readded


def _calls(b):
    calls = _parity_calls(b)
    # ``warm`` counts (segment, term) entries and ``terms``' ``shard_size``
    # cut is per segment: both follow the segment layout
    del calls["warm"], calls["terms_agg shard_size=1"]
    calls.update({
        "search and filtered must_not": lambda: b.search(
            QUERY, k=25, mode="and", filters=FILTERS, must_not="engines"),
        "search or filtered must_not": lambda: b.search(
            QUERY, k=25, mode="or", filters=FILTERS, must_not="engines"),
        "search min_should_match filtered must_not": lambda: b.search(
            QUERY, k=25, mode="or", filters=FILTERS, must_not="engines", min_should_match=2),
        "search or k=all": lambda: b.search(QUERY, k=10**6, mode="or"),
        "search_phrase k=all": lambda: b.search_phrase(PHRASE, k=10**6),
        "search_proximity k=all": lambda: b.search_proximity(PROXIMITY, k=10**6, slop=2),
        "match_counts and": lambda: b.match_counts(QUERY, mode="and", count_fields=["lang"]),
        "search_page all": lambda: b.search_page(
            QUERY, page=1, page_size=10**6, mode="or", ordering="source", filters=FILTERS),
    })
    return calls


def _answers(b):
    return {name: call() for name, call in _calls(b).items()}


@pytest.mark.parametrize("backend", ["reader", "service"])
def test_no_dead_doc_comes_back_and_answers_equal_a_rebuild(killed, backend):
    delta_root, rebuild_root, dead, readded = killed
    want = _answers(query.IndexReader(rebuild_root))
    if backend == "reader":
        got = _answers(query.IndexReader(delta_root))
    else:
        svc = query.QueryService(delta_root, num_actors=2)
        try:
            # every deleted and modified doc, and the re-added doc's old copy
            assert sum(s["dead_docs"] for s in svc.actor_stats()) == len(dead) + 1
            got = _answers(svc)
        finally:
            svc.shutdown()
    for name, out in got.items():
        frame = _frame(out) if not isinstance(out, list) else pd.concat(map(_frame, out))
        if "doc_id" in frame:
            assert not dead & set(frame["doc_id"].tolist()), name
        assert _same(out, want[name]), name
    # the answers are not vacuous: top hits survive, the re-added doc matches
    assert len(got["search or k=all"]) > 0 and len(got["search_phrase k=all"]) > 0
    assert readded in set(got["search or k=all"]["doc_id"].to_pylist())
    assert got["match_counts and"]["results_total"]["value"] > 0


# -- spelling and fuzzy candidates after a delta ----------------------------------

SPELL = pd.DataFrame({
    "doc_id": [1, 2, 3, 4, 5],
    "text": ["zebra one", "zebra two", "zebre three", "plain four", "zebre plain five"],
})
SPELL_SURFACES = {
    "did_you_mean": lambda b: b.did_you_mean("zebrx plainn"),
    "suggest_phrases": lambda b: extras.suggest_phrases(b, "zebrx plainn"),
    # the cap leaves one expansion: a dead term must not take it
    "fuzzy_search": lambda b: extras.fuzzy_search(b, "zebrx", max_expansions=1),
}
# dictionary expansions capped at one term: the dead "zebra" sorts first
PREFIX_SURFACES = {
    "search_prefix": lambda b: b.search_prefix("zeb", max_expansions=1).to_pandas(),
    "search_wildcard": lambda b: b.search_wildcard("zeb*", max_expansions=1).to_pandas(),
    "search_regexp": lambda b: b.search_regexp("zeb.*", max_expansions=1).to_pandas(),
    "search_match_phrase_prefix": lambda b: extras.search_match_phrase_prefix(b, "zeb", max_expansions=1),
    "search_match_bool_prefix": lambda b: extras.search_match_bool_prefix(b, "zeb", max_expansions=1),
    "search_span_multi": lambda b: extras.search_span_multi(b, "zeb", max_expansions=1),
    "search_query_string": lambda b: extras.search_query_string(b, "plain zeb*", max_expansions=1),
}


@pytest.fixture(scope="module")
def respelled(tmp_path_factory):
    """A delta deletes one "zebra" doc and rewrites the other, so the old
    segments' dictionaries still hold "zebra" (df 2 there, the df of
    "zebre") but no live doc does; and a rebuild of the merged corpus."""
    delta_root = str(tmp_path_factory.mktemp("respelled"))
    build.build_index(rd.from_pandas(SPELL), delta_root, concurrency=1, store_positions=True)
    delta = pd.DataFrame({
        "doc_id": [1, 2], "text": ["", "plain two"], "state": ["deleted", "active"],
    })
    incremental.build_incremental(delta_root, rd.from_pandas(delta), integrity_check=False)
    merged = SPELL[SPELL["doc_id"] != 1].assign(
        text=lambda d: d["text"].where(d["doc_id"] != 2, "plain two"))
    rebuild_root = str(tmp_path_factory.mktemp("respelled_rebuild"))
    build.build_index(rd.from_pandas(merged), rebuild_root, concurrency=1, store_positions=True)
    return delta_root, rebuild_root


@pytest.mark.parametrize("name", sorted(SPELL_SURFACES))
def test_spelling_and_fuzzy_candidates_answer_like_a_rebuild(respelled, name):
    delta_root, rebuild_root = respelled
    surface = SPELL_SURFACES[name]
    got = surface(query.IndexReader(delta_root))
    pd.testing.assert_frame_equal(got, surface(query.IndexReader(rebuild_root)))
    assert len(got)


@pytest.mark.parametrize("name", sorted(PREFIX_SURFACES))
def test_prefix_and_pattern_expansions_answer_like_a_rebuild(respelled, name):
    delta_root, rebuild_root = respelled
    surface = PREFIX_SURFACES[name]
    got = surface(query.IndexReader(delta_root))
    pd.testing.assert_frame_equal(got, surface(query.IndexReader(rebuild_root)))
    assert len(got)


def test_service_did_you_mean_answers_like_a_rebuild(respelled):
    delta_root, rebuild_root = respelled
    svc = query.QueryService(delta_root, num_actors=2)
    try:
        got = svc.did_you_mean("zebrx plainn")
    finally:
        svc.shutdown()
    pd.testing.assert_frame_equal(got, query.IndexReader(rebuild_root).did_you_mean("zebrx plainn"))
    assert got["suggestion"].tolist() == ["plain", "zebre"]


# -- per-doc surfaces after a rewrite ------------------------------------------------

TINY = pd.DataFrame({
    "doc_id": [1, 2, 3, 4],
    "text": ["zebra apple one", "zebra pear two", "mango kiwi three", "plain four"],
})
REWRITE = "mango kiwi banana"  # doc 1's new text
PER_DOC_SURFACES = {
    "explain mango": lambda b: extras.explain(b, "mango", doc_id=1),
    "explain zebra": lambda b: extras.explain(b, "zebra", doc_id=1),
    "explain zebra apple": lambda b: extras.explain(b, "zebra apple", doc_id=1),
    "doc_top_terms": lambda b: pd.DataFrame({"term": extras.doc_top_terms(b, 1)}),
    "more_like_this": lambda b: extras.more_like_this(b, 1, k=3).to_pandas(),
    "termvectors": lambda b: extras.termvectors(b, 1),
    "term_membership": lambda b: pd.DataFrame({"rel": evaluate._term_membership(
        b, np.array([1, 2, 3], np.int64), ["kiwi", "mango", "zebra"])}),
    "assemble_context": lambda b: extras.assemble_context(b, "banana zebra", budget_tokens=100),
}


@pytest.fixture(scope="module")
def rewritten(tmp_path_factory):
    """Doc 1 rewritten by a delta (its old copy stays in the first
    segment, dead), and a rebuild of the merged corpus."""
    delta_root = str(tmp_path_factory.mktemp("rewritten"))
    build.build_index(rd.from_pandas(TINY), delta_root, concurrency=1, store_positions=True)
    delta = pd.DataFrame({"doc_id": [1], "text": [REWRITE], "state": ["active"]})
    incremental.build_incremental(delta_root, rd.from_pandas(delta), integrity_check=False)
    merged = TINY.assign(text=TINY["text"].where(TINY["doc_id"] != 1, REWRITE))
    rebuild_root = str(tmp_path_factory.mktemp("rewritten_rebuild"))
    build.build_index(rd.from_pandas(merged), rebuild_root, concurrency=1, store_positions=True)
    return delta_root, rebuild_root


@pytest.mark.parametrize("backend", ["reader", "service"])
def test_per_doc_surfaces_read_only_the_live_copy(rewritten, backend):
    delta_root, rebuild_root = rewritten
    want = {n: call(query.IndexReader(rebuild_root)) for n, call in PER_DOC_SURFACES.items()}
    if backend == "reader":
        got = {n: call(query.IndexReader(delta_root)) for n, call in PER_DOC_SURFACES.items()}
    else:
        svc = query.QueryService(delta_root, num_actors=2)
        try:
            assert len(svc.actors) == 2
            got = {n: call(svc) for n, call in PER_DOC_SURFACES.items()}
        finally:
            svc.shutdown()
    for name, out in got.items():
        pd.testing.assert_frame_equal(out, want[name], check_exact=True, obj=name)
    # the rebuild's answers, not empty ones
    assert got["explain mango"][["term", "tf", "df", "score"]].values.tolist() == [["mango", 1, 2, 0.6683]]
    assert got["explain zebra"].empty and got["explain zebra apple"].empty
    assert got["doc_top_terms"]["term"].tolist() == ["banana", "kiwi", "mango"]
    assert got["term_membership"]["rel"].tolist() == [2, 1, 2]
    assert set(got["termvectors"]["term"]) == {"banana", "kiwi", "mango"}
