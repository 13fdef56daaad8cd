"""Single-node memory soak at 10x+ bench scale (round-3 item 1).

Runs the heavy pipelines — index build, curate_corpus, MinHash near-dup,
corpus dedup — over a GRAFT_SCALE_MULT x 600k-turn synthetic transcript
corpus (default 64x = ~38.4M turns, ~5 GB Parquet / ~25 GB text) while a
sampler thread records the host memory watermark and Ray object-store
spill. Every stage CONSUMES its Dataset with count()/bounded folds — the
point is to demonstrate bounded driver/worker memory under pressure, not
to collect results.

Usage:  python scripts/soak.py [--mult 64] [--cpus 32] [--ref-mult 16]

Prints one JSON line: per-stage wall seconds, build turns/sec at the
reference multiple and at the soak multiple (ratio = the throughput-
retention criterion), peak used memory, max spill bytes, segment count.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import threading
import time
import zlib

import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SCRATCH = "/tmp/harvester_ray_soak"


def _meminfo() -> tuple[int, int]:
    m = open("/proc/meminfo").read()
    tot = int(re.search(r"MemTotal:\s+(\d+)", m).group(1))
    av = int(re.search(r"MemAvailable:\s+(\d+)", m).group(1))
    return tot, av


def _spill_bytes() -> int:
    total = 0
    for pat in (
        "/tmp/ray/session_latest/ray_spilled_objects*/*",
        "/tmp/ray/session_latest/*/spilled*/*",
        # RAY_TMPDIR on this host nests a second /ray level
        "/tmp/ray/ray/session_latest/ray_spilled_objects*/*",
        "/tmp/ray/ray/session_latest/*/spilled*/*",
    ):
        for f in glob.glob(pat):
            try:
                total += os.path.getsize(f)
            except OSError:
                pass
    return total


def _sampler(stop: threading.Event, out: dict) -> None:
    while not stop.is_set():
        tot, av = _meminfo()
        out["total_kb"] = tot
        out["min_avail_kb"] = min(out.get("min_avail_kb", av), av)
        out["max_spill_bytes"] = max(
            out.get("max_spill_bytes", 0), _spill_bytes()
        )
        stop.wait(1.0)


def turns_as_docs(data_dir: str):
    """Transcript turns re-shaped to the documents schema the curation ops
    expect. doc_id = crc32(conv_id)<<16 | turn_idx — deterministic and
    partition-independent; the ~2^-33 crc collision rate is harmless for a
    soak (it perturbs which pairs near-dup, not memory behavior)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(data_dir, columns=["conv_id", "turn_idx", "text"])

    def add(t: pa.Table) -> pa.Table:
        enc = t["conv_id"].combine_chunks().dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        h = np.fromiter(
            ((zlib.crc32(u.encode()) << 16) & 0x7FFFFFFFFFFFFFFF for u in uniq),
            dtype=np.int64, count=len(uniq),
        )
        ids = h[np.asarray(enc.indices)] + np.asarray(
            t["turn_idx"], dtype=np.int64
        )
        n = len(ids)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": t["text"],
            "lang": pa.array(np.repeat("en", n), pa.string()),
            "source": pa.array(np.repeat("turns", n), pa.string()),
            "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        })

    return ds.map_batches(add, batch_format="pyarrow", zero_copy_batch=True)


def _build(data_dir: str, root: str, conc: int, est_turns: int) -> dict:
    from harvester_ray.pipelines import flagship

    seg_docs = int(os.environ.get("GRAFT_SEG_DOCS", "45000"))
    blocks = max(1, round(est_turns / seg_docs), 4 * conc)
    blocks = ((blocks + conc - 1) // conc) * conc
    shutil.rmtree(root, ignore_errors=True)
    return flagship.build_transcript_index(
        data_dir, root, concurrency=conc, override_num_blocks=blocks
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mult", type=int, default=64)
    ap.add_argument("--ref-mult", type=int, default=16)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--stages", default="build_ref,build,curate,neardup,dedup",
                    help="comma list of build_ref,build,curate,neardup,dedup,"
                         "serve (serve = VERDICT r4 serving-at-scale leg: "
                         "positional+attr index, QueryService families, "
                         "per-actor RSS + LRU evidence), servepool (actor-"
                         "count sweep 4/8/16 over the serve index), "
                         "incdedup (VERDICT r5: ~1%-delta incremental "
                         "near-dup admission against the full corpus)")
    args = ap.parse_args()
    stages = set(args.stages.split(","))
    if "dedup" in stages:
        stages.add("neardup")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from harvester_ray import synth
    from harvester_ray.ops import cluster as _cluster
    from harvester_ray.ops import dedup as _dedup
    from harvester_ray.pipelines import curate as _curate

    os.makedirs(SCRATCH, exist_ok=True)
    report: dict = {"mult": args.mult, "ref_mult": args.ref_mult,
                    "cpus": args.cpus}
    mem: dict = {}
    stop = threading.Event()
    t_sampler = threading.Thread(target=_sampler, args=(stop, mem),
                                 daemon=True)

    conc = max(1, args.cpus * 3 // 4)
    base_convs = 60_000  # = sf0.1 bench corpus

    # --- corpus generation (streamed; not part of the watermark) --------
    t0 = time.time()
    ref_dir = synth.transcripts_parquet(
        SCRATCH, n_convs=base_convs * args.ref_mult, seed=42, shards=128)
    soak_dir = synth.transcripts_parquet(
        SCRATCH, n_convs=base_convs * args.mult, seed=42, shards=256)
    report["gen_sec"] = round(time.time() - t0, 1)
    report["soak_parquet_bytes"] = sum(
        os.path.getsize(f) for f in glob.glob(soak_dir + "/*.parquet"))

    _tot, av0 = _meminfo()
    report["baseline_used_gb"] = round((_tot - av0) / 1e6, 2)
    t_sampler.start()

    def stage(name, fn):
        t = time.time()
        out = fn()
        report[f"{name}_sec"] = round(time.time() - t, 1)
        return out

    # --- reference-rate build (ref_mult), then the soak build -----------
    if "build_ref" in stages:
        man_ref = stage("build_ref", lambda: _build(
            ref_dir, os.path.join(SCRATCH, f"idx-ref-{args.cpus}"), conc,
            base_convs * args.ref_mult * 10))
        report["n_turns_ref"] = man_ref["n_docs"]
        report["turns_per_sec_ref"] = round(
            man_ref["n_docs"] / report["build_ref_sec"], 1)
    if "build" in stages:
        man = stage("build", lambda: _build(
            soak_dir, os.path.join(SCRATCH, f"idx-soak-{args.cpus}"), conc,
            base_convs * args.mult * 10))
        report["n_turns"] = man["n_docs"]
        report["n_segments"] = man["metrics"]["n_segments"]
        report["turns_per_sec"] = round(man["n_docs"] / report["build_sec"], 1)
        if "build_ref" in stages:
            report["throughput_retention"] = round(
                report["turns_per_sec"] / report["turns_per_sec_ref"], 3)

    docs = turns_as_docs(soak_dir)

    # --- curate: fused repetition/decontam/split map + near-dup last ----
    # dedup_method="minhash": exact shared-shingle candidates are
    # O(corpus x cap) on low-entropy turn text (measured 1.05B rows
    # uncapped / 77M at max_bucket=256 from just 1.2M turns); LSH banding
    # keeps the candidate set ~linear at soak scale.
    def run_curate():
        import pyarrow as pa

        def bench_slice(t: "pa.Table") -> "pa.Table":
            ids = np.asarray(t["doc_id"])
            return t.filter(pa.array(ids % 13 == 0))

        bench = turns_as_docs(soak_dir).map_batches(
            bench_slice, batch_format="pyarrow", zero_copy_batch=True)
        return _curate.curate(
            docs, bench, dedup_method="minhash",
            pairing="star", referenced_only=True,
        ).count()

    if "curate" in stages:
        report["curate_rows"] = stage("curate", run_curate)

    # --- MinHash-LSH near-dup over all turns -----------------------------
    # pairs materialized ONCE (bounded: pair count, not corpus) and reused
    # by dedup_corpus below instead of recomputing the LSH pass.
    # pairing="star" + referenced_only=True is the corpus-scale regime:
    # all-pairs enumeration measured 138M candidates from 38.4M templated
    # turns (band buckets of identical texts grow with the corpus), and the
    # resulting blob-heavy verify exchange wedged the streaming executor
    # under spill; star edges stay linear and prune unreferenced docs'
    # shingle blobs off the exchange while unioning the same clusters.
    pairs_holder = {}

    def run_neardup():
        pairs_holder["pairs"] = _dedup.near_dup_minhash(
            docs, threshold=0.8, pairing="star", referenced_only=True,
        ).materialize()
        return pairs_holder["pairs"].count()

    if "neardup" in stages:
        report["neardup_pairs"] = stage("neardup", run_neardup)

    # --- corpus dedup: connected components + bucketed anti-join --------
    def run_dedup_corpus():
        return _cluster.dedup_corpus(docs, pairs_holder["pairs"]).count()

    if "dedup" in stages:
        report["dedup_survivors"] = stage("dedup_corpus", run_dedup_corpus)

    # --- incremental near-dup admission at soak scale (VERDICT r5) ------
    # The admission scenario: the ingest delta RE-SUBMITS ~1% of already-
    # indexed turns under fresh doc ids (doc_id % 101 == 0, re-keyed with
    # bit 62 — id spaces stay disjoint per the op contract), so every
    # delta doc has an exact corpus twin the verify must find. A prime
    # modulus matters: doc_id's low bits are turn_idx, so a power-of-two
    # modulus selects only the turn_idx==0 openers. (A random-split delta
    # finds ZERO pairs on this corpus — 600,001 distinct texts in 600,027
    # turns, max cross jaccard 0.2 in a 900k-pair sample — which soaks
    # the pipeline but verifies nothing.) Candidates run with the
    # hot-bucket cap (max_bucket=256 — exact shared-shingle enumeration
    # is O(corpus x cap) on low-entropy turn text), then the distributed
    # verify with referenced_only pruning.
    if "incdedup" in stages:
        import pyarrow as _pa

        def _delta_rekey(t: "_pa.Table") -> "_pa.Table":
            ids = np.asarray(t["doc_id"])
            m = ids % 101 == 0
            t = t.filter(_pa.array(m))
            new_ids = np.asarray(t["doc_id"]) | np.int64(1 << 62)
            return t.set_column(
                t.schema.get_field_index("doc_id"), "doc_id",
                _pa.array(new_ids, _pa.int64()))

        def run_incdedup():
            corpus = turns_as_docs(soak_dir)
            delta = turns_as_docs(soak_dir).map_batches(
                _delta_rekey, batch_format="pyarrow", zero_copy_batch=True)
            # minhash candidate regime (the scale decision, see
            # minhash_candidates_cross): band keys are signature-local, so
            # every re-ingested twin collides in all 16 bands while the
            # sub-0.2-jaccard template siblings almost never collide —
            # candidates stay ~delta-linear where the exact generator was
            # quadratic uncapped and twin-blind at max_bucket=256
            # (602/5941 twins found, measured at mult=1)
            cands = _dedup.minhash_candidates_cross(
                corpus, delta).materialize()
            report["incdedup_candidates"] = cands.count()
            capped = _dedup._top_m_per_key(
                cands, 8, score_col="n_bands").materialize()
            report["incdedup_capped_candidates"] = capped.count()
            pairs = _dedup.jaccard_verify_pairs(
                capped, corpus.union(delta), threshold=0.8,
                referenced_only=True).materialize()
            report["incdedup_delta_docs"] = delta.count()
            return pairs.count()

        report["incdedup_pairs"] = stage("incdedup", run_incdedup)

    # --- serving at soak scale (VERDICT r3 item 1) ----------------------
    # A POSITIONAL index with role/tool/ts attributes over the full soak
    # corpus (its own root — the plain soak index has neither), then the
    # QueryService families: BM25 AND/OR, quoted phrase, attribute-
    # filtered, and a ts-histogram aggregation. Evidence recorded:
    # cold/warm p50+p95 per family, per-actor RSS after cold vs after all
    # passes (boundedness — no per-query growth), LRU hit rate.
    if stages & {"serve", "servepool"}:
        import statistics

        from harvester_ray.index import pipeline_aggs as _paggs
        from harvester_ray.index import query as _iq
        from harvester_ray.pipelines import flagship as _flagship

        serve_root = os.path.join(SCRATCH, f"idx-serve-{args.cpus}")
        seg_docs = int(os.environ.get("GRAFT_SEG_DOCS", "45000"))
        est = base_convs * args.mult * 10
        blocks = max(1, round(est / seg_docs), 4 * conc)
        blocks = ((blocks + conc - 1) // conc) * conc
        man_srv = stage("serve_build", lambda: _flagship.build_transcript_index(
            soak_dir, serve_root, concurrency=conc,
            override_num_blocks=blocks,
            attr_cols=["role", "tool", "ts"], store_positions=True,
        ))
        report["serve_n_segments"] = man_srv["metrics"]["n_segments"]

        head = ["gaji", "hopotenu", "vafawu", "zoquli", "todefi"]
        qs = [(h, "and") for h in head]
        for i in range(len(head) - 1):
            qs.append((f"{head[i]} {head[i + 1]}", "and"))
            qs.append((f"{head[i]} {head[i + 1]}", "or"))
        qs += [("gaji hopotenu vafawu", "and"), ("gaji hopotenu vafawu", "or"),
               ("togisiwu zavi vilobara", "or"), ("wiva loraka", "and")]

        def _family(run_one, items, passes):
            cold, warm = [], []
            for it in items:
                t1 = time.time()
                run_one(it)
                cold.append(time.time() - t1)
            for _ in range(passes):
                for it in items:
                    t1 = time.time()
                    run_one(it)
                    warm.append(time.time() - t1)
            warm.sort()
            return {
                "cold_p50_ms": round(statistics.median(cold) * 1000, 2),
                "p50_ms": round(statistics.median(warm) * 1000, 2),
                "p95_ms": round(warm[int(len(warm) * 0.95)] * 1000, 2),
            }

    if "serve" in stages:
        svc = _iq.QueryService(serve_root, num_actors=8)
        t_serve = time.time()
        report["serve_bm25"] = _family(
            lambda it: svc.search(it[0], k=10, mode=it[1]), qs, passes=5)
        stats_cold = svc.actor_stats()
        report["serve_phrase"] = _family(
            lambda p: svc.search_phrase(p, k=10),
            ["gaji hopotenu", "zoquli todefi", "wiva loraka"], passes=5)
        report["serve_filtered"] = _family(
            lambda it: svc.search(it[0], k=10, mode=it[1],
                                  filters={"role": ["assistant"]}),
            qs[:8], passes=3)
        reader = _iq.IndexReader(serve_root)
        report["serve_aggs"] = _family(
            lambda q: _paggs.percentiles_bucket(reader, q),
            ["gaji", "hopotenu vafawu"], passes=2)
        stats_end = svc.actor_stats()
        report["serve_wall_sec"] = round(time.time() - t_serve, 1)
        report["serve_actor_rss_gb_after_cold"] = [
            round(a["rss_kb"] / 1e6, 2) for a in stats_cold]
        report["serve_actor_rss_gb_end"] = [
            round(a["rss_kb"] / 1e6, 2) for a in stats_end]
        hits = sum(a["cache_hits"] for a in stats_end)
        misses = sum(a["cache_misses"] for a in stats_end)
        report["serve_lru_hit_rate"] = round(hits / max(1, hits + misses), 3)
        # per cache kind, summed over the actors: which cache is helping
        report["serve_cache"] = {}
        for kind in stats_end[0]["cache"]:
            tot = {f: sum(a["cache"][kind][f] for a in stats_end)
                   for f in ("hits", "misses", "evictions", "bytes")}
            report["serve_cache"][kind] = {
                "hit_rate": round(tot["hits"] / max(1, tot["hits"] + tot["misses"]), 3),
                "evictions": tot["evictions"],
                "mb": round(tot["bytes"] / 1e6, 1),
            }
        svc.shutdown()

    # --- serving pool-size sweep (VERDICT r5 item 6) --------------------
    # p50 should track per-actor segment share: each query fans out to
    # every actor, an actor's work is proportional to the segments it
    # holds, so doubling the pool should roughly halve warm p50 until the
    # per-RPC floor dominates.
    if "servepool" in stages:
        report["serve_pool_sweep"] = {}
        for na in (4, 8, 16):
            svc = _iq.QueryService(serve_root, num_actors=na)
            fam = _family(
                lambda it: svc.search(it[0], k=10, mode=it[1]), qs, passes=5)
            ph = _family(
                lambda p: svc.search_phrase(p, k=10),
                ["gaji hopotenu", "zoquli todefi", "wiva loraka"], passes=5)
            report["serve_pool_sweep"][str(na)] = {
                "bm25": fam, "phrase": ph,
                "segments_per_actor": round(
                    report["serve_n_segments"] / na, 1),
            }
            svc.shutdown()

    stop.set()
    t_sampler.join(timeout=5)
    tot = mem.get("total_kb", 0)
    report["peak_used_gb"] = round((tot - mem.get("min_avail_kb", tot)) / 1e6, 2)
    report["max_spill_gb"] = round(mem.get("max_spill_bytes", 0) / 1e9, 2)
    print(json.dumps(report))
    ray.shutdown()


if __name__ == "__main__":
    main()
