"""Property-based tests (hypothesis) for the codec and analyzer — the
pieces whose correctness everything else leans on."""

import re

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from harvester_ray import analyzer
from harvester_ray.index import codec


@st.composite
def uint_arrays(draw):
    n = draw(st.integers(0, 500))
    bits = draw(st.sampled_from([7, 14, 21, 32, 50, 63]))
    values = draw(
        st.lists(st.integers(0, 2**bits - 1), min_size=n, max_size=n)
    )
    return np.array(values, dtype=np.uint64)


@given(uint_arrays())
@settings(max_examples=200, deadline=None)
def test_varbyte_roundtrip_property(values):
    out = codec.varbyte_decode(codec.varbyte_encode(values))
    np.testing.assert_array_equal(out, values)


@given(uint_arrays())
@settings(max_examples=100, deadline=None)
def test_varbyte_offsets_property(values):
    buf, starts = codec.varbyte_encode_all(values)
    assert starts.size == values.size
    # decoding any suffix from a value boundary yields the remaining values
    if values.size > 1:
        mid = values.size // 2
        tail = codec.varbyte_decode(buf[starts[mid]:])
        np.testing.assert_array_equal(tail, values[mid:])


@st.composite
def postings(draw):
    n = draw(st.integers(1, 400))
    doc_ids = np.array(
        sorted(draw(st.sets(st.integers(0, 10**9), min_size=n, max_size=n))),
        dtype=np.int64,
    )
    tfs = np.array(draw(st.lists(st.integers(1, 10**4), min_size=n, max_size=n)), dtype=np.int64)
    return doc_ids, tfs


@given(postings())
@settings(max_examples=100, deadline=None)
def test_postings_roundtrip_property(p):
    doc_ids, tfs = p
    db, tb, blocks = codec.encode_postings(doc_ids, tfs)
    d2, f2 = codec.decode_postings(db, tb)
    np.testing.assert_array_equal(d2, doc_ids)
    np.testing.assert_array_equal(f2, tfs)
    # every block decodes standalone
    bs = codec.BLOCK_SIZE
    for k in range(blocks["last_doc"].size):
        dk, fk = codec.decode_block_run(db, tb, blocks, k, k)
        s, e = k * bs, min((k + 1) * bs, doc_ids.size)
        np.testing.assert_array_equal(dk, doc_ids[s:e])
        np.testing.assert_array_equal(fk, tfs[s:e])


@given(st.lists(st.text(max_size=80), max_size=30))
@settings(max_examples=150, deadline=None)
def test_tokenizer_matches_reference_regex_property(texts):
    arr = pa.array(texts, pa.string())
    rows, codes, dictionary = analyzer.tokenize_flat(arr)
    vocab = dictionary.to_pylist()
    got = [[] for _ in texts]
    for r, c in zip(rows, codes):
        got[r].append(vocab[c])
    expected = [re.findall(r"[a-z0-9]+", t.lower()) for t in texts]
    assert got == expected


@given(st.lists(st.text(alphabet="ab <>/x", max_size=40), max_size=20))
@settings(max_examples=100, deadline=None)
def test_normalize_idempotent_property(texts):
    arr = pa.array(texts, pa.string())
    once = analyzer.normalize_text(arr).to_pylist()
    twice = analyzer.normalize_text(pa.array(once, pa.string())).to_pylist()
    assert once == twice


@given(st.lists(st.text(alphabet="abc ", min_size=0, max_size=30), max_size=20))
@settings(max_examples=100, deadline=None)
def test_term_frequencies_sum_to_doc_lengths(texts):
    arr = pa.array(texts, pa.string())
    rows, codes, _ = analyzer.tokenize_flat(arr)
    r, c, tf = analyzer.term_frequencies(rows, codes)
    dl = analyzer.doc_token_counts(arr)
    per_doc = np.zeros(len(texts), dtype=np.int64)
    np.add.at(per_doc, r, tf)
    np.testing.assert_array_equal(per_doc, dl)


# --- sketch / windowing properties -----------------------------------------


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=400),
    st.integers(2, 16),
)
@settings(max_examples=100, deadline=None)
def test_misra_gries_guarantee_property(keys, capacity):
    """Every key with true count > N/(capacity+1) survives the summary, and
    summary counts never exceed true counts."""
    from harvester_ray.ops.sketch import misra_gries_partial

    arr = np.array([str(k) for k in keys], dtype=object)
    uniq, cnt = np.unique(arr, return_counts=True)
    mg = misra_gries_partial(uniq.astype(object), cnt.astype(np.int64), capacity)
    n = len(keys)
    truth = dict(zip(uniq.tolist(), cnt.tolist()))
    for k, c in truth.items():
        if c > n / (capacity + 1):
            assert k in mg, (k, c, n, capacity)
    for k, c in mg.items():
        assert c <= truth[k]


@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=60),
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
    st.integers(1, 20),
)
@settings(max_examples=100, deadline=None)
def test_minimal_window_two_pointer_property(pos_a, pos_b, width):
    """search_span_near's two-pointer minimal window equals the brute-force
    min over position combos (2-term case)."""
    a = np.unique(np.array(pos_a))
    b = np.unique(np.array(pos_b))
    brute = min(abs(int(x) - int(y)) + 1 for x in a for y in b)
    # replicate the sweep from extras.search_span_near
    ev = np.concatenate([
        np.stack([a, np.zeros(a.size, int)], axis=1),
        np.stack([b, np.ones(b.size, int)], axis=1),
    ])
    ev = ev[np.argsort(ev[:, 0], kind="mergesort")]
    count = np.zeros(2, dtype=np.int64)
    have = 0
    best = np.iinfo(np.int64).max
    lo = 0
    for hi in range(ev.shape[0]):
        c = int(ev[hi, 1])
        if count[c] == 0:
            have += 1
        count[c] += 1
        while have == 2:
            best = min(best, int(ev[hi, 0] - ev[lo, 0]) + 1)
            cl = int(ev[lo, 1])
            count[cl] -= 1
            if count[cl] == 0:
                have -= 1
            lo += 1
    assert best == brute


@given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_percentile_bincount_matches_numpy(values):
    """The bincount-rank interpolation used by percentiles_agg equals
    numpy's linear quantile on the raw values."""
    vals = np.array(values, dtype=np.int64)
    counts = np.bincount(vals)
    n = vals.size
    cum = np.cumsum(counts)
    for q in (0.25, 0.5, 0.75):
        h = (n - 1) * q
        lo = int(np.floor(h))
        hi = min(lo + 1, n - 1)
        x_lo = int(np.searchsorted(cum, lo + 1))
        x_hi = int(np.searchsorted(cum, hi + 1))
        got = x_lo + (h - lo) * (x_hi - x_lo)
        np.testing.assert_allclose(got, np.quantile(vals, q), atol=1e-9)


from hypothesis import given, settings
from hypothesis import strategies as st

_WORD = st.text(alphabet="abcz019", min_size=1, max_size=6)


@given(st.lists(
    st.tuples(st.sampled_from(["plain", "neg", "prefix", "phrase"]), _WORD,
              _WORD),
    min_size=0, max_size=8,
))
@settings(max_examples=200, deadline=None)
def test_parse_query_string_classification_property(clauses):
    """Every clause lands in exactly its class; reassembled query strings
    never crash the parser; outputs are normalized analyzer tokens."""
    from harvester_ray import analyzer
    from harvester_ray.index.extras import parse_query_string

    parts, exp = [], {"plain": set(), "negs": set(), "prefixes": set(),
                      "phrases": []}
    for kind, a, b in clauses:
        if kind == "plain":
            parts.append(a)
            exp["plain"].update(analyzer.tokenize_query(a))
        elif kind == "neg":
            parts.append("-" + a)
            exp["negs"].update(analyzer.tokenize_query(a))
        elif kind == "prefix":
            parts.append(a + "*")
            stem = analyzer.tokenize_query(a)
            if len(stem) == 1:
                exp["prefixes"].add(stem[0])
        else:
            parts.append(f'"{a} {b}"')
            if analyzer.tokenize_query(f"{a} {b}"):
                exp["phrases"].append(f"{a} {b}")
    got = parse_query_string(" ".join(parts))
    assert set(got["plain"]) == exp["plain"]
    assert set(got["negs"]) == exp["negs"]
    assert set(got["prefixes"]) == exp["prefixes"]
    assert sorted(got["phrases"]) == sorted(exp["phrases"])
