"""Federated search across multiple independent index roots with EXACT
global statistics — the multi-index / alias search surface of the
reference's OpenSearch deployment (its search API fans one query out over
the Edusources + Publinova indices and merges by score,
harvester/search/views/document.py:122-143). OpenSearch merges shard
results whose idfs come from per-shard stats unless dfs_query_then_fetch;
this implementation is the *exact* variant: df, n_docs and avgdl are
combined across sub-indexes from their manifests' integer (df, n_docs,
dl_sum) — so a query over K federated indexes is score-identical to the
same query over one index of the union corpus, which is what the oracle
asserts.

Doc-id spaces must be disjoint across members (they are corpus-global ids
here, exactly like the reference's product ids across indices).
"""

from __future__ import annotations

from .query import IndexReader, SearchSurfaces, shared_analyzer_version


class FederatedReader(SearchSurfaces):
    """Read-only search over the union of several index versions: every
    ``SearchSurfaces`` surface, run in process over the members' chained
    segments with GLOBAL idf/avgdl (the same plan the per-index reader
    runs over its own segments). Members must
    share one analyzer version (``ValueError`` naming each root's version
    otherwise): a query is analyzed once for all of them."""

    _fanout = IndexReader._fanout

    def __init__(self, roots: list[str]):
        if not roots:
            raise ValueError("need at least one index root")
        self.readers = [IndexReader(r) for r in roots]
        self.analyzer_version = shared_analyzer_version(self.readers)
        self.n_docs = int(sum(r.n_docs for r in self.readers))
        dl_sum = int(sum(int(r.manifest["dl_sum"]) for r in self.readers))
        # exact integer combination — identical to a single index built over
        # the union corpus (manifest stores the integer pair, never floats)
        self.avgdl = (dl_sum / self.n_docs) if self.n_docs else 0.0

    def df(self, terms: list[str]) -> dict[str, int]:
        out = {t: 0 for t in terms}
        for r in self.readers:
            for t, d in r.df(terms).items():
                out[t] += int(d)
        return out

    def segments(self):
        return (s for r in self.readers for s in r.segments())
