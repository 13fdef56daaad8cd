"""Federated multi-index search: exact global stats across index roots
(the dfs_query_then_fetch-exact variant of the reference's multi-index
OpenSearch fan-out, harvester/search/views/document.py:122-143)."""

import os

import pandas as pd
import pyarrow.compute as pc
import pytest
import ray.data as rd

from harvester_ray.index import build as ib
from harvester_ray.index import federated as fed
from harvester_ray.index import query as iq

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def split_and_union(tmp_path_factory):
    base = tmp_path_factory.mktemp("fed")
    roots = []
    for half in (0, 1):
        root = str(base / f"half{half}")
        ds = rd.read_parquet(DOCS, columns=["doc_id", "text"]).map_batches(
            lambda t, h=half: t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 1), h)),
            batch_format="pyarrow",
        )
        ib.build_index(ds, root)
        roots.append(root)
    union_root = str(base / "union")
    ib.build_index(rd.read_parquet(DOCS, columns=["doc_id", "text"]), union_root)
    return roots, union_root


def test_federated_stats_equal_union(split_and_union):
    roots, union_root = split_and_union
    f = fed.FederatedReader(roots)
    u = iq.IndexReader(union_root)
    assert f.n_docs == u.n_docs
    assert abs(f.avgdl - u.avgdl) < 1e-12
    for terms in (["spark"], ["the", "window"], ["zzzznope"]):
        assert f.df(terms) == u.df(terms)


def test_federated_search_equals_union_index(split_and_union):
    roots, union_root = split_and_union
    f = fed.FederatedReader(roots)
    u = iq.IndexReader(union_root)
    for q, mode in (
        ("spark window", "and"),
        ("customer query big", "or"),
        ("the", "or"),
        ("zzzznope", "and"),
        ("", "and"),
    ):
        a = f.search(q, k=10, mode=mode).to_pandas()
        b = u.search(q, k=10, mode=mode).to_pandas()
        pd.testing.assert_frame_equal(a, b), (q, mode)


def test_federated_single_member_is_plain_reader(split_and_union):
    roots, _ = split_and_union
    f = fed.FederatedReader([roots[0]])
    r = iq.IndexReader(roots[0])
    a = f.search("spark window", k=5).to_pandas()
    b = r.search("spark window", k=5).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_federated_members_share_one_analyzer(tmp_path):
    """Members analyzed differently cannot answer one query: mixing a v1
    and a v2 index fails at construction naming each root's version; two
    v2 members analyze the query as v2 (stems, no stopwords) and answer
    exactly like one v2 index over their union."""
    def half(h):
        return rd.read_parquet(DOCS, columns=["doc_id", "text"]).map_batches(
            lambda t: t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 1), h)),
            batch_format="pyarrow",
        )

    roots = {}
    for name, h, version in (("a1", 0, "v1"), ("a2", 0, "v2"), ("b2", 1, "v2")):
        roots[name] = str(tmp_path / name)
        ib.build_index(half(h), roots[name], analyzer_version=version)
    union = str(tmp_path / "u2")
    ib.build_index(rd.read_parquet(DOCS, columns=["doc_id", "text"]), union,
                   analyzer_version="v2")
    with pytest.raises(ValueError) as err:
        fed.FederatedReader([roots["a1"], roots["b2"]])
    assert f"{roots['a1']}=v1" in str(err.value) and f"{roots['b2']}=v2" in str(err.value)
    f = fed.FederatedReader([roots["a2"], roots["b2"]])
    assert f.analyzer_version == "v2"
    got = f.search("the sparks windows", k=10, mode="and").to_pandas()
    assert len(got) > 0  # v1 analysis would look up 'sparks'/'windows': no hits
    want = iq.IndexReader(union).search("the sparks windows", k=10, mode="and").to_pandas()
    pd.testing.assert_frame_equal(got, want)
