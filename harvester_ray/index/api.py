"""The ES ``_search`` request executor — the top of the API surface.

The reference's portal sends one JSON body per search: a query-DSL tree,
an ``aggs`` object, ``from``/``size`` pagination, optional ``sort`` and
``track_total_hits`` (harvester/search/views/document.py:20-143 builds
exactly this shape and POSTs it to OpenSearch). ``search_request`` accepts
that body and routes each part onto the native engine:

- ``query``   → index/dsl.py (20+ leaf types, value-gated operators)
- ``aggs``    → index/aggdsl.py (20 agg types)
- ``from/size`` → over-fetch ``from+size`` then slice (ES semantics)
- ``sort``    → attribute-field ordering via reader.search_page
  (match-query context only — the ordering replaces relevance)
- ``track_total_hits: true`` → exact match_counts total
- ``collapse``     → extras.search_collapse (one hit per field value)
- ``search_after`` → extras.search_after (cursor pagination)
- ``rescore``      → extras.rescore (phrase-proximity second phase)
- ``min_score``    → post-ranking threshold filter
- ``_source``      → readback.mget (stored attr columns per hit)
- ``highlight``    → extras.make_snippets over a corpus Dataset handle
  (pass ``docs_ds=`` — raw text is not stored in the index)
- ``knn``          → ops/similarity (brute cosine top-k; hybrid fusion
  when combined with ``query``; pass ``emb_ds=``)
- ``pit``          → version-pinned reader (open with ``open_pit``;
  pit + search_after is the ES deep-pagination pattern and later deltas
  stay invisible to the snapshot)

Response mirrors the ES envelope (a plain dict):
``{"hits": {"total": {...}, "hits": [{"_id", "_score"}...]},
"aggregations": {name: records}}``.
"""

from __future__ import annotations

import os
from typing import Any

from .query import IndexReader


def _match_parts(query: dict) -> tuple[str, str]:
    """(query_text, mode) of a plain match leaf — sort/total contexts."""
    if "match" not in query:
        raise ValueError("sort/track_total_hits need a plain match query")
    ((_f, spec),) = query["match"].items()
    if isinstance(spec, str):
        spec = {"query": spec}
    mode = "and" if spec.get("operator", "or").lower() == "and" else "or"
    return spec["query"], mode


def validate_query(body: dict) -> dict[str, Any]:
    """ES ``_validate/query``: structural parse of a ``{"query": ...}``
    body (or a bare query dict) without touching any index."""
    from . import dsl as _dsl

    return _dsl.validate_query(body.get("query", body))


def field_caps(reader: IndexReader) -> "Any":
    """ES ``_field_caps``: every queryable/aggregatable field of the index
    with its Arrow type — the analyzed ``text`` pseudo-field, the indexed
    ``dl`` doc-length, and each stored attribute column (typed from the
    newest segment's doc-table schema). Reads one Parquet footer."""
    import pandas as pd
    import pyarrow.parquet as pq

    seg = reader.manifest["segments"][-1]
    schema = pq.read_schema(
        os.path.join(reader.root, seg["path"]) + ".docs.parquet"
    )
    rows = [
        {"field": "text", "type": "text", "searchable": True,
         "aggregatable": False},
    ]
    for name in schema.names:
        if name == "doc_id":
            continue
        rows.append({
            "field": name,
            "type": str(schema.field(name).type),
            "searchable": name != "_source",
            "aggregatable": name != "_source",
        })
    return pd.DataFrame(rows, columns=["field", "type", "searchable", "aggregatable"])


def open_pit(index_root: str) -> dict[str, str]:
    """ES point-in-time (``_pit``) open: pin the CURRENT manifest version.
    A search carrying this id sees the index exactly as of now — later
    deltas, compactions and promotes are invisible — because versioned
    manifests are immutable and retention protects referenced versions.
    Zero server state: the id IS the version number."""
    from . import manifest

    v = manifest.current_version(index_root)
    if v is None:
        raise FileNotFoundError(f"no index at {index_root}")
    return {"id": str(v)}


def search_request(
    reader: IndexReader, body: dict, *, docs_ds=None, emb_ds=None
) -> dict[str, Any]:
    """Execute one ES ``_search`` body. Returns the response envelope.
    ``docs_ds`` (the corpus Dataset) is only needed for the ``highlight``
    block — raw text lives in the corpus, not the index doc tables.
    ``emb_ds`` (the embedding Dataset) is only needed for the ``knn``
    block (ES 8 vector search: ``query_vector`` → brute cosine top-k;
    with a ``query`` alongside, ``query_vector_id`` → normalized linear
    hybrid fusion)."""
    from . import aggdsl, dsl, extras

    query = body.get("query", {"match": {"text": {"query": ""}}})
    size = int(body.get("size", 10))
    from_ = int(body.get("from", 0))
    resp: dict[str, Any] = {}

    if "pit" in body:
        # re-open the reader pinned to the point-in-time version; every
        # block below then serves the frozen snapshot (ES pit semantics:
        # pit + search_after is the sanctioned deep-pagination pattern)
        reader = IndexReader(reader.root, version=int(body["pit"]["id"]))

    if "knn" in body:
        import numpy as np

        from ..ops import similarity

        if emb_ds is None:
            raise ValueError("knn needs emb_ds (vectors are not indexed)")
        spec = body["knn"]
        field = spec.get("field", "embedding")
        id_col = spec.get("id_col", "vec_id")
        if "query" in body:
            qtext, _m = _match_parts(body["query"])
            page = similarity.hybrid_search(
                reader, emb_ds, qtext,
                query_vec_id=int(spec["query_vector_id"]),
                k=size, k_cand=int(spec.get("num_candidates", 50)),
                w_lex=float(spec.get("w_lex", 0.5)),
                id_col=id_col, vec_col=field,
            )
            resp["hits"] = {
                "hits": [
                    {"_id": int(r.doc_id), "_score": float(r.hybrid)}
                    for r in page.itertuples()
                ]
            }
            return resp
        ann = spec.get("ann") or {}
        if ann.get("tier") == "ivf":
            # opt-in ANN tier (the BASELINE.md measured serving decision):
            # IVF-probed scan instead of the exhaustive corpus scan. At
            # nprobe >= n_centroids the probe set covers every cluster and
            # the result is identical to brute (the knn_ivf exact-regime
            # precedent); below that it is approximate (recall-tested).
            page = similarity.knn_ivf(
                emb_ds, np.asarray(spec["query_vector"], dtype=np.float64),
                k=int(spec.get("k", size)), id_col=id_col, vec_col=field,
                n_centroids=int(ann.get("n_centroids", 16)),
                nprobe=int(ann.get("nprobe", 4)),
            ).to_pandas()
        else:
            page = similarity.knn_brute(
                emb_ds, np.asarray(spec["query_vector"], dtype=np.float64),
                k=int(spec.get("k", size)), id_col=id_col, vec_col=field,
            ).to_pandas()
        resp["hits"] = {
            "hits": [
                {"_id": int(r.vec_id), "_score": float(r.cosine)}
                for r in page.itertuples()
            ]
        }
        return resp

    if "collapse" in body:
        qtext, mode = _match_parts(query)
        field = body["collapse"]["field"]
        page = extras.search_collapse(
            reader, qtext, field=field, k=from_ + size, mode=mode
        ).iloc[from_:]
        hits = [
            {
                "_id": int(r.doc_id),
                "_score": float(r.score),
                "fields": {field: [getattr(r, field)]},
            }
            for r in page.itertuples()
        ]
        resp["hits"] = {"hits": hits}
        return resp

    if "search_after" in body:
        qtext, mode = _match_parts(query)
        score, doc_id = body["search_after"]
        page = extras.search_after(
            reader, qtext, after=(float(score), int(doc_id)), k=size, mode=mode
        )
        resp["hits"] = {
            "hits": [
                {
                    "_id": int(r.doc_id),
                    "_score": float(r.score),
                    "sort": [float(r.score), int(r.doc_id)],
                }
                for r in page.itertuples()
            ]
        }
        return resp

    if "rescore" in body:
        qtext, mode = _match_parts(query)
        spec = body["rescore"]
        rq = spec.get("query", {})
        inner = rq.get("rescore_query", {}).get("match_phrase", {})
        slop = 2
        if inner:
            ((_f, pspec),) = inner.items()
            if isinstance(pspec, dict):
                slop = int(pspec.get("slop", 2))
        page = extras.rescore(
            reader, qtext,
            window=int(spec.get("window_size", 25)), k=size, slop=slop,
            weight=float(rq.get("rescore_query_weight", 2.0)),
            mode=mode,
        )
        resp["hits"] = {
            "hits": [
                {"_id": int(r.doc_id), "_score": float(r.score)}
                for r in page.itertuples()
            ]
        }
        return resp

    if "sort" in body:
        qtext, mode = _match_parts(query)
        spec = body["sort"]
        spec = spec[0] if isinstance(spec, list) else spec
        ((field, order),) = (
            spec.items() if isinstance(spec, dict) else ((spec, "asc"),)
        )
        if isinstance(order, dict):
            order = order.get("order", "asc")
        ordering = ("-" if order == "desc" else "") + field
        page = reader.search_page(
            qtext, page=1, page_size=from_ + size, mode=mode,
            ordering=ordering,
        ).iloc[from_:]
        sort_field = ordering.lstrip("-")
        hits = [
            {"_id": int(r.doc_id), "_sort": getattr(r, sort_field)}
            for r in page.itertuples()
        ]
    else:
        ranked = dsl.execute_dsl(reader, query, k=from_ + size)
        if "min_score" in body:
            ranked = ranked[ranked["score"] >= float(body["min_score"])]
        page = ranked.iloc[from_:]
        hits = [
            {"_id": int(r.doc_id), "_score": float(r.score)}
            for r in page.itertuples()
        ]
    resp["hits"] = {"hits": hits}

    ids = [h["_id"] for h in resp["hits"]["hits"]]
    src_spec = body.get("_source")
    if src_spec is not None and src_spec is not False and ids:
        from . import readback

        # ES accepts a list of fields, a single field string, or false
        # (suppress the block entirely — handled by the guard above)
        src_cols = [src_spec] if isinstance(src_spec, str) else list(src_spec)
        # pit isolation: fetch attrs from the PINNED manifest version, not
        # the current one — later deltas must stay invisible to _source too
        by_id = readback.mget(
            reader.root, ids, columns=src_cols,
            version=int(reader.manifest.get("_version", reader.manifest.get("version", 0))),
        ).set_index("doc_id")
        for h in resp["hits"]["hits"]:
            row = by_id.loc[h["_id"]]
            h["_source"] = {c: row[c] for c in src_cols}
    if "highlight" in body and ids:
        if docs_ds is None:
            raise ValueError("highlight needs docs_ds (raw text is not indexed)")
        qtext, mode = _match_parts(query)
        terms = reader.prepare(qtext, mode).terms
        hspec = next(iter(body["highlight"].get("fields", {"text": {}}).values()))
        snips = extras.make_snippets(
            extras.fetch_texts(docs_ds, ids), ids, terms,
            window=int(hspec.get("window", 30)),
            width=int(hspec.get("fragment_size", 80)),
        )
        for h, s in zip(resp["hits"]["hits"], snips):
            h["highlight"] = {"text": [s]}

    if body.get("track_total_hits"):
        qtext, mode = _match_parts(query)
        counts = reader.match_counts(qtext, mode=mode)
        resp["hits"]["total"] = {
            "value": int(counts["results_total"]["value"]),
            "relation": "eq",
        }

    if "aggs" in body:
        qtext, mode = _match_parts(query)
        frames = aggdsl.execute_aggs(reader, qtext, body["aggs"], mode=mode)
        resp["aggregations"] = {
            name: frame.to_dict("records") for name, frame in frames.items()
        }

    if "suggest" in body:
        sugg: dict[str, Any] = {}
        for name, spec in body["suggest"].items():
            if "term" in spec:
                frame = reader.did_you_mean(
                    spec["text"],
                    max_edits=int(spec["term"].get("max_edits", 2)))
            elif "phrase" in spec:
                frame = extras.suggest_phrases(
                    reader, spec["text"],
                    max_edits=int(spec["phrase"].get("max_edits", 1)))
            elif "completion" in spec:
                frame = extras.suggest(
                    reader, spec["prefix"],
                    limit=int(spec["completion"].get("size", 10)))
            else:
                raise ValueError(f"unsupported suggester: {sorted(spec)}")
            sugg[name] = frame.to_dict("records")
        resp["suggest"] = sugg

    if body.get("explain"):
        qtext, _mode = _match_parts(query)
        resp["explanations"] = {
            int(h["_id"]): extras.explain(
                reader, qtext, doc_id=int(h["_id"])
            ).to_dict("records")
            for h in resp["hits"]["hits"]
        }
    return resp


# ---------------------------------------------------------------------------
# scroll (legacy cursor pagination over a frozen snapshot)
# ---------------------------------------------------------------------------

def _encode_scroll_id(state: dict) -> str:
    import base64
    import json

    return base64.urlsafe_b64encode(
        json.dumps(state, sort_keys=True).encode()
    ).decode()


def _decode_scroll_id(scroll_id: str) -> dict:
    import base64
    import json

    return json.loads(base64.urlsafe_b64decode(scroll_id.encode()))


def open_scroll(index_root: str, body: dict, *, size: int = 10) -> dict:
    """ES ``?scroll=`` open: run the first page of ``body``'s match query
    and return the ES envelope plus ``_scroll_id``. Like ``open_pit``, the
    scroll context is STATELESS — the id encodes (pinned manifest version,
    query text, mode, size, last cursor), so any process holding the id can
    continue the scroll and later deltas/compactions stay invisible
    (versioned manifests are immutable; retention protects referenced
    versions). No keep-alive bookkeeping exists to expire.

    Reference analog: the portal's OpenSearch client scrolls result sets
    for batch export (the `scan`/`scroll` helper pattern its
    search views delegate to OpenSearch for); deep pagination here rides
    extras.search_after's total order (rounded score desc, doc_id asc)."""
    from . import manifest

    v = manifest.current_version(index_root)
    if v is None:
        raise FileNotFoundError(f"no index at {index_root}")
    qtext, mode = _match_parts(body.get("query", {}))
    state = {
        "v": int(v),
        "q": qtext,
        "mode": mode,
        "size": int(size),
        "cursor": None,
    }
    return _scroll_page(index_root, state)


def scroll(index_root: str, scroll_id: str) -> dict:
    """ES ``_search/scroll`` continue: next page for the cursor in
    ``scroll_id``. Empty ``hits`` means the scroll is exhausted (the ES
    loop-termination contract); the id stays valid and keeps returning
    empty pages."""
    return _scroll_page(index_root, _decode_scroll_id(scroll_id))


def _scroll_page(index_root: str, state: dict) -> dict:
    from . import extras

    reader = IndexReader(index_root, version=state["v"])
    after = tuple(state["cursor"]) if state["cursor"] else None
    page = extras.search_after(
        reader, state["q"],
        after=(float(after[0]), int(after[1])) if after else None,
        k=state["size"], mode=state["mode"],
    )
    hits = [
        {
            "_id": int(r.doc_id),
            "_score": float(r.score),
            "sort": [float(r.score), int(r.doc_id)],
        }
        for r in page.itertuples()
    ]
    if hits:
        state = dict(state, cursor=[hits[-1]["_score"], hits[-1]["_id"]])
    return {
        "_scroll_id": _encode_scroll_id(state),
        "hits": {"hits": hits},
    }
