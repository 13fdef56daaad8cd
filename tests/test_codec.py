import numpy as np
import pytest

from harvester_ray.index import codec


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_varbyte_roundtrip(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**40, size=10_000).astype(np.uint64)
    values[:10] = [0, 1, 127, 128, 129, 16383, 16384, 2**21 - 1, 2**21, 2**35]
    buf = codec.varbyte_encode(values)
    out = codec.varbyte_decode(buf)
    np.testing.assert_array_equal(out, values)


def test_varbyte_empty():
    assert codec.varbyte_encode(np.empty(0, np.uint64)) == b""
    assert codec.varbyte_decode(b"").size == 0


def test_varbyte_offsets():
    values = np.array([0, 127, 128, 300000, 5], dtype=np.uint64)
    buf, starts = codec.varbyte_encode_all(values)
    # each value decodes standalone from its offset slice
    ends = np.append(starts[1:], len(buf))
    for i, v in enumerate(values):
        got = codec.varbyte_decode(buf[starts[i] : ends[i]])
        assert got[0] == v


def test_postings_roundtrip():
    rng = np.random.default_rng(7)
    n = 1000
    doc_ids = np.sort(rng.choice(100_000, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 50, size=n).astype(np.int64)
    db, tb, blocks = codec.encode_postings(doc_ids, tfs)
    d2, f2 = codec.decode_postings(db, tb)
    np.testing.assert_array_equal(d2, doc_ids)
    np.testing.assert_array_equal(f2, tfs)
    # block metadata is exact
    bs = codec.BLOCK_SIZE
    n_blocks = (n + bs - 1) // bs
    assert blocks["last_doc"].size == n_blocks
    for k in range(n_blocks):
        s, e = k * bs, min((k + 1) * bs, n)
        assert blocks["last_doc"][k] == doc_ids[e - 1]
        dk, fk = codec.decode_block_run(db, tb, blocks, k, k)
        np.testing.assert_array_equal(dk, doc_ids[s:e])
        np.testing.assert_array_equal(fk, tfs[s:e])
