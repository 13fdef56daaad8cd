"""Seeded input generators: query mixes, phrase sets and the delta rows. Each takes the run's seed plus the data it draws from
and returns plain Python/Arrow values; the same arguments always give the
same inputs. Pure numpy/pyarrow, no Ray.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# generator streams: one independent RNG per input kind, all from one seed
STREAMS = {"hot": 1, "zipf": 2, "phrases": 3, "delta": 5, "sample": 6}

_TOKEN = re.compile(r"[a-z0-9]+")  # sample-side word split; the engine's analyzer is not used here


def rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream]])


def hot_mix(terms_by_df: list[str], seed: int) -> list[tuple[str, str]]:
    """The 17 BM25 queries bench.py times, rebuilt over this corpus: the five
    highest-df terms alone, adjacent pairs as AND and OR, the first three as
    AND and OR, plus one mid-frequency OR triple and one AND pair."""
    head = terms_by_df[:5]
    qs = [(h, "and") for h in head]
    for a, b in zip(head, head[1:]):
        qs += [(f"{a} {b}", "and"), (f"{a} {b}", "or")]
    qs += [(" ".join(head[:3]), "and"), (" ".join(head[:3]), "or")]
    mid = rng(seed, "hot").choice(np.arange(50, min(500, len(terms_by_df))), size=5, replace=False)
    m = [terms_by_df[int(i)] for i in mid]
    qs += [(" ".join(m[:3]), "or"), (" ".join(m[3:]), "and")]
    return qs


def zipf_mix(terms_by_df: list[str], n: int, seed: int, s: float = 1.0) -> list[tuple[str, str]]:
    """n queries of 1-3 terms drawn Zipf(s) over the vocabulary ranked by df,
    half AND and half OR."""
    g = rng(seed, "zipf")
    ranks = np.arange(1, len(terms_by_df) + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -s)
    cdf /= cdf[-1]
    sizes = g.integers(1, 4, size=n)
    picks = np.searchsorted(cdf, g.random(int(sizes.sum())), side="right")
    modes = g.random(n) < 0.5
    out, at = [], 0
    for size, is_and in zip(sizes, modes):
        words = [terms_by_df[int(i)] for i in picks[at:at + size]]
        at += size
        out.append((" ".join(words), "and" if is_and else "or"))
    return out


def _sample_bigrams(texts: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for t in texts:
        w = _TOKEN.findall(t.lower())
        pairs.extend(zip(w, w[1:]))
    return pairs


def hot_phrases(texts: list[str], n: int = 8) -> list[str]:
    """The n most frequent adjacent word pairs in the sampled texts (ties by
    text), so every phrase matches many documents and stays cached."""
    counts = Counter(_sample_bigrams(texts))
    best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    return [f"{a} {b}" for (a, b), _ in best]


def sampled_phrases(texts: list[str], n: int, seed: int) -> list[str]:
    """n bigrams or trigrams taken at uniform token positions of the sampled
    texts: a phrase working set far larger than the match caches."""
    g = rng(seed, "phrases")
    words = [_TOKEN.findall(t.lower()) for t in texts]
    words = [w for w in words if len(w) >= 3]
    out = []
    for _ in range(n):
        w = words[int(g.integers(len(words)))]
        size = 2 + int(g.integers(2))
        at = int(g.integers(len(w) - size + 1))
        out.append(" ".join(w[at:at + size]))
    return out


def sample_texts(texts: pa.Array, n: int, seed: int) -> list[str]:
    g = rng(seed, "sample")
    idx = np.sort(g.choice(len(texts), size=min(n, len(texts)), replace=False))
    return texts.take(pa.array(idx)).to_pylist()


def delta_rows(doc_ids: np.ndarray, texts: pa.Array, seed: int,
               modified: float = 0.01, deleted: float = 0.005,
               appended: float = 0.02) -> pa.Table:
    """FIXTURES §2 delta over a (doc_id, text) corpus: rewrite ~1% of the
    turns (word order reversed plus one word from another turn), delete
    ~0.5%, append ~2% new turns built from shuffled words of existing ones.
    Columns (doc_id, text, state)."""
    g = rng(seed, "delta")
    n = len(doc_ids)
    pick = g.permutation(n)
    n_mod, n_del, n_add = int(n * modified), int(n * deleted), int(n * appended)
    mod_idx, del_idx = pick[:n_mod], pick[n_mod:n_mod + n_del]
    donors = g.integers(0, n, size=n_mod + n_add)
    ids, out, state = [], [], []
    for i, d in zip(mod_idx, donors[:n_mod]):
        w = _TOKEN.findall(texts[int(i)].as_py().lower())[::-1]
        extra = _TOKEN.findall(texts[int(d)].as_py().lower())[:1]
        ids.append(int(doc_ids[i]))
        out.append(" ".join(w + extra))
        state.append("active")
    for i in del_idx:
        ids.append(int(doc_ids[i]))
        out.append("")
        state.append("deleted")
    next_id = int(doc_ids.max()) + 1
    for j, d in enumerate(donors[n_mod:]):
        w = _TOKEN.findall(texts[int(d)].as_py().lower())
        g.shuffle(w)
        ids.append(next_id + j)
        out.append(" ".join(w))
        state.append("active")
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(out, pa.string()),
        "state": pa.array(state, pa.string()),
    })


def apply_delta(doc_ids: np.ndarray, texts: pa.Array, delta: pa.Table) -> pa.Table:
    """The merged corpus a full rebuild indexes: base rows minus every delta
    id, plus the delta's active rows; (doc_id, text) sorted by doc_id."""
    dead = np.asarray(delta["doc_id"])
    keep = ~np.isin(doc_ids, dead)
    act = delta.filter(pc.equal(delta["state"], "active"))
    merged = pa.concat_tables([
        pa.table({"doc_id": pa.array(doc_ids[keep], pa.int64()),
                  "text": texts.filter(pa.array(keep))}),
        act.select(["doc_id", "text"]),
    ])
    return merged.sort_by("doc_id")
