"""Posting-list codec: delta-gap + varbyte compression with block skip
metadata.

The reference delegates physical posting-list storage to OpenSearch/Lucene;
this module is our from-scratch equivalent. Postings for one term are stored
as two byte streams (doc-id gaps, term frequencies), each varbyte-encoded,
chunked into blocks of ``BLOCK_SIZE`` postings. Per block we keep:

- ``last_doc``  — the last (largest) doc id in the block (skip pointer),
- byte offsets of the block within each stream (standalone block decode).

That is what the candidate-driven AND path needs to decode only the blocks
that can hold its candidates. No per-block score bound is stored: there is
no pruned disjunction to use one (see ``query.or_exhaustive``). Segments
written with the former ``max_tf``/``min_dl`` block columns still read.

All encode/decode paths are numpy-vectorized (per byte position, not per
value); no Python loops over postings.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128

_U7 = np.uint64(7)
_U127 = np.uint64(0x7F)


def varbyte_encode(values: np.ndarray) -> bytes:
    """Varbyte(LEB128)-encode a non-negative int array. Vectorized over byte
    positions: at most ceil(64/7)=10 passes regardless of array size."""
    return varbyte_encode_all(values)[0]


def varbyte_encode_all(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Varbyte-encode a whole stream at once and return
    ``(bytes, value_byte_starts)`` where ``value_byte_starts[i]`` is the byte
    offset of value i in the stream. Lets a caller encode the postings of
    *every* term in a segment with one vectorized pass and slice per-term /
    per-block byte ranges out of the offsets — no per-term Python loop."""
    a = np.ascontiguousarray(values, dtype=np.uint64)
    if a.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    nb = np.ones(a.size, dtype=np.int64)
    x = a >> _U7
    while x.any():
        nb += x > 0
        x >>= _U7
    starts = np.cumsum(nb) - nb
    out = np.empty(int(nb.sum()), dtype=np.uint8)
    remaining = a.copy()
    for i in range(int(nb.max())):
        mask = nb > i
        idx = starts[mask] + i
        byte = (remaining[mask] & _U127).astype(np.uint8)
        cont = (nb[mask] - 1 > i).astype(np.uint8)
        out[idx] = byte | (cont << 7)
        remaining[mask] >>= _U7
    return out.tobytes(), starts


def varbyte_decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode a varbyte stream back to uint64. Vectorized per byte position."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_terminal = (b & 0x80) == 0
    if is_terminal.all():  # fast path: every value fits 7 bits (dense gaps, small tfs)
        return b.astype(np.uint64)
    ends = np.flatnonzero(is_terminal)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    values = np.zeros(ends.size, dtype=np.uint64)
    for i in range(int(lengths.max())):
        mask = lengths > i
        chunk = b[starts[mask] + i].astype(np.uint64)
        values[mask] |= (chunk & _U127) << np.uint64(7 * i)
    return values


def encode_postings(
    doc_ids: np.ndarray, tfs: np.ndarray
) -> tuple[bytes, bytes, dict[str, np.ndarray]]:
    """Encode one term's postings (sorted by doc_id ascending).

    Returns ``(doc_bytes, tf_bytes, blocks)`` where ``blocks`` holds per-block
    skip metadata: ``last_doc``, ``doc_off``, ``tf_off`` (byte offset of
    each block inside the two streams). Doc ids are
    delta-gap encoded; the first gap of block k is relative to block k-1's
    last doc id, so any block decodes standalone given the previous block's
    ``last_doc``.
    """
    n = doc_ids.size
    assert tfs.size == n
    if n == 0:
        z = np.empty(0, dtype=np.int64)
        return b"", b"", {k: z for k in ("last_doc", "doc_off", "tf_off")}
    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:], casting="unsafe")
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    bounds = np.minimum(np.arange(1, n_blocks + 1) * BLOCK_SIZE, n)
    starts = np.arange(n_blocks) * BLOCK_SIZE
    doc_parts: list[bytes] = []
    tf_parts: list[bytes] = []
    doc_off = np.zeros(n_blocks, dtype=np.int64)
    tf_off = np.zeros(n_blocks, dtype=np.int64)
    pos_d = pos_t = 0
    for k in range(n_blocks):
        s, e = starts[k], bounds[k]
        doc_off[k], tf_off[k] = pos_d, pos_t
        db = varbyte_encode(gaps[s:e])
        tb = varbyte_encode(tfs[s:e])
        doc_parts.append(db)
        tf_parts.append(tb)
        pos_d += len(db)
        pos_t += len(tb)
    blocks = {
        "last_doc": doc_ids[bounds - 1].astype(np.int64),
        "doc_off": doc_off,
        "tf_off": tf_off,
    }
    return b"".join(doc_parts), b"".join(tf_parts), blocks


def decode_postings(doc_bytes: bytes | memoryview, tf_bytes: bytes | memoryview) -> tuple[np.ndarray, np.ndarray]:
    """Decode a full term posting list → (doc_ids, tfs), both int64."""
    gaps = varbyte_decode(doc_bytes)
    doc_ids = np.cumsum(gaps.astype(np.int64))
    tfs = varbyte_decode(tf_bytes).astype(np.int64)
    return doc_ids, tfs


def decode_block_run(
    doc_bytes: bytes | memoryview,
    tf_bytes: bytes | memoryview,
    blocks: dict[str, np.ndarray],
    i: int,
    j: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the contiguous run of blocks ``i..j`` (inclusive) in ONE
    varbyte pass each for docs and tfs — blocks are laid out contiguously in
    the stream, and only the first gap of block i needs the preceding
    block's last_doc as base."""
    n_blocks = blocks["last_doc"].size
    d_end = blocks["doc_off"][j + 1] if j + 1 < n_blocks else len(doc_bytes)
    t_end = blocks["tf_off"][j + 1] if j + 1 < n_blocks else len(tf_bytes)
    gaps = varbyte_decode(doc_bytes[blocks["doc_off"][i] : d_end])
    doc_ids = np.cumsum(gaps.astype(np.int64))
    if i > 0:
        doc_ids += blocks["last_doc"][i - 1]
    tfs = varbyte_decode(tf_bytes[blocks["tf_off"][i] : t_end]).astype(np.int64)
    return doc_ids, tfs
