"""One benchmark run in its own process: ``python -m perfbench.workload``.

Every run walks the index lifecycle on a fixed generated corpus: build
(Parquet to a promoted version), serve the workload's traffic through a
QueryService, commit a delta and read through the tombstone path, then
compact. Builds, service set-ups, serving windows, delta commits and
compactions are repeated in rounds spread over the run, and each metric is
the median (or percentile) over all of its rounds. The run's seed drives
the traffic and the delta. The two workloads differ in their traffic, both
served to one closed-loop client:

- ``hot``: the 17 head-term BM25 queries and the most frequent corpus
  bigrams as phrases; the working set fits the per-segment caches.
- ``zipf``: Zipf draws of 1-3 terms over the index's own vocabulary and
  sampled phrases; the working set exceeds the caches.

Outputs are checked in the same run: fsck after build, delta and compact,
manifest document counts, a seeded sample of served answers against the
in-process IndexReader (cross-checked against the DuckDB oracle), and
post-delta and post-compact answers against a full rebuild of the merged
corpus.

With ``--trace 1`` the run also records spans around each call into a
layer and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from perfbench import gen, session
from perfbench.stats import Tracer, median, self_time_by_layer, self_times, tail_at, tail_percentile

N_CONVS = 3000  # ~30k turns: the sf0.1 corpus shape at 1/20 of its size
CORPUS_SEED = 42  # the corpus is fixed data; the run's seed drives the traffic and the delta
WARM_CONVS = 60  # warm-up and per-build floor corpus
CYCLES = 3  # rounds of set-up + serve + build, and of delta commit + reads + compact
K = 10
PHRASES = 450  # phrase queries per run (p95 needs 200)
DELTA_QUERIES = 450  # queries through the tombstone path
REF_QUERIES = 24  # sampled responses checked per run
TEXT_SAMPLE = 2000  # rows phrases are drawn from
ZIPF_QUERIES = 4000  # distinct draws; a closed loop never gets through them
ZIPF_CHECKED_FROM = 300  # sampled checks come from draws every run serves


def _answer(tbl: pa.Table) -> list[tuple[int, float]]:
    return [(int(d), round(float(s), 4)) for d, s in
            zip(tbl["doc_id"].to_pylist(), tbl["score"].to_pylist())]


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        da == db and abs(sa - sb) <= 1.5e-4 for (da, sa), (db, sb) in zip(a, b)
    )


def _tree_bytes(path: str, suffix: str = "") -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path) for f in files if f.endswith(suffix)
    )


def _segment_bytes(root: str, seg: dict) -> int:
    base = os.path.join(root, seg["path"])
    return sum(os.path.getsize(base + ext) for ext in (".terms.parquet", ".docs.parquet", ".bin", ".pos")
               if os.path.exists(base + ext))


def _doc_ids(tbl: pa.Table) -> np.ndarray:
    """Stable doc ids computed independently of the engine: exclusive prefix
    sum of per-conversation turn counts in conv_id order, plus turn_idx."""
    counts = tbl.group_by("conv_id").aggregate([([], "count_all")]).sort_by("conv_id")
    convs = counts["conv_id"].to_numpy(zero_copy_only=False).astype(str)
    n = counts["count_all"].to_numpy()
    base = np.concatenate(([0], np.cumsum(n)[:-1]))
    idx = np.searchsorted(convs, tbl["conv_id"].to_numpy(zero_copy_only=False).astype(str))
    return base[idx] + tbl["turn_idx"].to_numpy().astype(np.int64)


class Run:
    def __init__(self, a: argparse.Namespace):
        self.a = a
        self.root = os.getcwd()
        self.work = os.path.join(self.root, a.work)
        self.tracer = Tracer() if a.trace else None
        self.cpus = os.sched_getaffinity(0)
        self.pinned_to: list[int] = []
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.phases: dict[str, float] = {}  # wall seconds per phase, summed over rounds
        self.builds: list[tuple[float, dict, list[float]]] = []  # wall, manifest, corpus spans
        self._last = time.perf_counter()

    # -- bookkeeping --------------------------------------------------------

    @contextmanager
    def pinned(self):
        """Serving is measured with this process and all Ray workers on one
        CPU, the least contended one at the time (session.pin); pipelines and
        set-up use every CPU."""
        cpu = session.fastest_cpu(self.cpus)
        self.pinned_to.append(cpu)
        session.pin({cpu})
        try:
            yield
        finally:
            session.pin(self.cpus)

    def span(self, layer: str, name: str):
        return self.tracer.span(layer, name) if self.tracer else nullcontext()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def note(self, key: str, value) -> None:
        self.notes.append(f"{key}: {value}")

    def op(self, fn, what: str):
        """One attempted operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception as e:  # noqa: BLE001 - recorded, the run goes on
            self.fail(f"{what}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None

    def mark(self, phase: str) -> None:
        """Add the wall time spent since the previous mark to ``phase``."""
        now = time.perf_counter()
        self.phases[phase] = self.phases.get(phase, 0.0) + now - self._last
        self._last = now

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    # -- phases -------------------------------------------------------------

    def build(self, data: str, root: str) -> dict:
        from harvester_ray.pipelines import flagship

        shutil.rmtree(root, ignore_errors=True)
        with self.span("index.build", "build_transcript_index"):
            return flagship.build_transcript_index(
                data, root, concurrency=self.a.builder_concurrency, store_positions=True
            )

    def timed_build(self, data: str, root: str, n_turns: int) -> dict:
        """One timed build, recorded in self.builds. The previous build's
        actor pool holds a slot until it is collected; a build started
        before that waits for it, so the slots are freed first."""
        session.wait_for_slots(self.a.cpu_slots)
        span0 = len(self.tracer.spans) if self.tracer else 0
        t = time.perf_counter()
        man = self.op(lambda: self.build(data, root), "build")
        wall = time.perf_counter() - t
        if man is None:
            raise RuntimeError("build failed")
        self.check(man["n_docs"] == n_turns, f"build n_docs {man['n_docs']} != {n_turns} input turns")
        conv = self.tracer.durations("corpus", "conv_counts_from_files", span0) if self.tracer else []
        self.builds.append((wall, man, conv))
        return man

    def fsck_clean(self, root: str, stage: str) -> None:
        from harvester_ray.index import fsck

        rep = fsck.fsck(root)
        self.check(rep["ok"], f"fsck after {stage}: {rep.get('errors', [])[:3]}")

    def start_service(self, root: str, warm: list[str]):
        from harvester_ray.index import query

        session.wait_for_slots(self.a.cpu_slots)
        svc = query.QueryService(root, num_actors=self.a.serve_actors)
        svc.warm(warm)
        return svc

    def search(self, svc, spec: tuple[str, str]):
        q, mode = spec
        with self.span("index.query", "search"):
            return svc.search(q, k=K, mode=mode)

    def phrase(self, svc, p: str):
        with self.span("index.query", "search_phrase"):
            return svc.search_phrase(p, k=K)

    def closed_loop(self, svc, specs, seconds: float | None = None, count: int | None = None,
                    start: int = 0, record: dict | None = None, is_phrase: bool = False):
        """One client: next request when the previous answer is back. Goes
        through ``specs`` from ``start``, cycling, for ``seconds`` or ``count``
        requests. Returns (latencies, elapsed)."""
        lat: list[float] = []
        t0 = time.perf_counter()
        i = 0
        while (count is None or i < count) and (
            seconds is None or time.perf_counter() - t0 < seconds
        ):
            spec = specs[(start + i) % len(specs)]
            i += 1
            t1 = time.perf_counter()
            res = self.op(lambda: self.phrase(svc, spec) if is_phrase else self.search(svc, spec),
                          f"query {spec!r}")
            lat.append(time.perf_counter() - t1)
            if res is not None and record is not None and spec in record and record[spec] is None:
                record[spec] = _answer(res)
        return lat, time.perf_counter() - t0

    def compare(self, got: dict, want: dict, what: str) -> None:
        for spec, ans in got.items():
            if ans is None:
                self.fail(f"{what}: no response recorded for {spec!r}")
            elif not _same(ans, want[spec]):
                self.fail(f"{what}: {spec!r} served {ans[:3]} expected {want[spec][:3]}")

    def oracle_check(self, corpus: pa.Table, bm25_specs, phrase_specs, refs) -> None:
        """Cross-check reference answers against the DuckDB SQL oracle."""
        import duckdb

        from harvester_ray.index import oracle

        con = duckdb.connect()
        con.register("corpus", corpus)
        sqls = [(s, oracle.bm25_sql("corpus", s[0], k=K, mode=s[1])) for s in bm25_specs]
        sqls += [(p, oracle.phrase_bm25_sql("corpus", p, k=K)) for p in phrase_specs]
        for spec, sql in sqls:
            got = [(int(d), round(float(s), 4)) for d, s in con.execute(sql).fetchall()]
            self.check(_same(got, refs[spec]), f"oracle mismatch {spec!r}")
        con.close()

    # -- the run --------------------------------------------------------------

    def run(self) -> None:
        a = self.a
        import ray.data as rd

        from harvester_ray import corpus as hcorpus, synth
        from harvester_ray.index import build as hbuild, compact, incremental, query

        session.start(self.root, a.ray_dir, a.cpu_slots)
        session.preflight()
        self.mark("ray")

        if self.tracer:
            hcorpus.conv_counts_from_files = self.tracer.wrap(
                "corpus", "conv_counts_from_files", hcorpus.conv_counts_from_files)

        data = synth.transcripts_parquet(self.path("corpus"), n_convs=N_CONVS, seed=CORPUS_SEED)
        tbl = pq.read_table(data, columns=["conv_id", "turn_idx", "text"])
        doc_ids = _doc_ids(tbl)
        texts = tbl["text"].combine_chunks()
        corpus = pa.table({"doc_id": pa.array(doc_ids, pa.int64()), "text": texts})
        text_bytes = int(pc.sum(pc.binary_length(texts)).as_py())
        self.mark("inputs")

        # warm-up: imports and the first Dataset execution, untimed
        warm = synth.transcripts_parquet(self.path("warm"), n_convs=WARM_CONVS, seed=CORPUS_SEED + 1)
        self.build(warm, self.path("warmidx"))
        self.mark("warmup")
        if self.tracer:
            session.wait_for_slots(a.cpu_slots)
            t = time.perf_counter()
            self.build(warm, self.path("warmidx"))
            self.metrics["index.build.floor_s"] = time.perf_counter() - t

        # the first timed build makes the index every later phase reads
        idx = self.path("idx")
        man = self.timed_build(data, idx, tbl.num_rows)
        self.fsck_clean(idx, "build")
        self.mark("build")
        vdir = os.path.join(idx, f"v{man['version']}")
        index_bytes = _tree_bytes(os.path.join(vdir, "segments")) + _tree_bytes(os.path.join(vdir, "termstats"))
        self.metrics["index_bytes_per_text_byte"] = index_bytes / text_bytes
        if self.tracer:
            self.metrics["index.build.segments"] = len(man["segments"])
            self.metrics["index.build.postings_bytes"] = _tree_bytes(os.path.join(vdir, "segments"), ".bin")
            self.metrics["index.build.positions_bytes"] = _tree_bytes(os.path.join(vdir, "segments"), ".pos")

        # ---- inputs drawn from the index's own vocabulary ------------------------
        ts = pads.dataset(os.path.join(idx, man["termstats"])).to_table(columns=["term", "df"])
        ts = ts.sort_by([("df", "descending"), ("term", "ascending")])
        terms_by_df = ts["term"].to_pylist()
        if self.tracer:
            self.metrics["index.build.vocab_terms"] = len(terms_by_df)
        sample = gen.sample_texts(texts, TEXT_SAMPLE, a.seed)
        hot = gen.hot_mix(terms_by_df, a.seed)
        hot_phr = gen.hot_phrases(sample)
        warm_texts = [q for q, _ in hot] + hot_phr
        if a.workload == "hot":
            specs, phrases = hot, hot_phr
            checked = list(hot)
            delta_specs = hot
        else:
            specs = gen.zipf_mix(terms_by_df, ZIPF_QUERIES, a.seed)
            phrases = gen.sampled_phrases(sample, PHRASES, a.seed)
            pick = gen.rng(a.seed, "sample").choice(ZIPF_CHECKED_FROM, size=REF_QUERIES, replace=False)
            checked = list(dict.fromkeys(specs[int(i)] for i in pick))
            delta_specs = specs[:DELTA_QUERIES]
        checked_phr = list(dict.fromkeys(phrases))[:8]

        # ---- reference answers: in-process reader, cross-checked in DuckDB -------
        reader = query.IndexReader(idx)
        refs = {s: _answer(reader.search(s[0], k=K, mode=s[1])) for s in checked}
        refs.update({p: _answer(reader.search_phrase(p, k=K)) for p in checked_phr})
        nonempty = [s for s in checked if refs[s]] or checked
        self.oracle_check(corpus, nonempty[:1], checked_phr[:1], refs)
        self.mark("references")

        # ---- serve and build, in CYCLES rounds: a timed build (from the second
        # round on; the first was idx's), QueryService set-up (start, warm,
        # first answer), a serving window, shutdown. Each metric's samples come
        # from every round, spread over the run, and each window goes on where
        # the previous one stopped in the mix.
        setups, lat, plat, rss = [], [], [], []
        served_s = hits = miss = 0.0
        served = {s: None for s in checked}
        served_phr = {p: None for p in checked_phr}
        for cycle in range(CYCLES):
            if cycle:
                self.timed_build(data, self.path("spare"), tbl.num_rows)
                self.mark("build")
            session.wait_for_slots(a.cpu_slots)
            t = time.perf_counter()
            svc = query.QueryService(idx, num_actors=a.serve_actors)
            svc.warm(warm_texts)
            svc.search(hot[0][0], k=K, mode=hot[0][1])
            setups.append(time.perf_counter() - t)
            before = svc.actor_stats()
            with self.pinned():
                ql, elapsed = self.closed_loop(svc, specs, seconds=a.seconds / CYCLES,
                                               start=len(lat), record=served)
                pl, _ = self.closed_loop(svc, phrases, count=PHRASES // CYCLES, start=len(plat),
                                         record=served_phr, is_phrase=True)
            after = svc.actor_stats()
            lat += ql
            plat += pl
            served_s += elapsed
            rss.append(sum(s["rss_kb"] for s in after) / 1024.0)
            hits += sum(s["cache_hits"] for s in after) - sum(s["cache_hits"] for s in before)
            miss += sum(s["cache_misses"] for s in after) - sum(s["cache_misses"] for s in before)
            if self.tracer and cycle == CYCLES - 1:
                with self.pinned():
                    self.query_layers(svc, idx, hot if a.workload == "hot" else specs[:400], phrases)
            svc.shutdown()
            self.mark("serve")
        self.compare(served, refs, "served vs in-process reader")
        self.compare(served_phr, refs, "served phrase vs in-process reader")
        self.metrics["setup_s"] = median(setups)
        self.metrics["query_p50_ms"] = median(lat) * 1e3
        self.metrics["query_p95_ms"] = tail_at(lat, 95) * 1e3
        self.metrics["query_qps"] = len(lat) / served_s
        self.metrics["phrase_p50_ms"] = median(plat) * 1e3
        self.metrics["phrase_p95_ms"] = tail_at(plat, 95) * 1e3
        self.metrics["serve_rss_mb"] = median(rss)
        self.note("samples", f"query {len(lat)} (supported up to p{tail_percentile(len(lat)):g}), "
                             f"phrase {len(plat)} (up to p{tail_percentile(len(plat)):g})")
        if self.tracer:
            self.metrics["index.query.cache_hit_ratio"] = hits / max(1, hits + miss)
            self.metrics["index.query.cache_misses_per_query"] = miss / max(1, len(lat) + len(plat))
            self.metrics["index.query.actor_rss_mb"] = self.metrics["serve_rss_mb"] / a.serve_actors

        # ---- delta, in CYCLES rounds on copies of the built index: timed
        # commit, then a timed compact. idx is the first copy: after its
        # commit, queries read it through the tombstone path on a fresh
        # service, and it goes on to the checks.
        delta = gen.delta_rows(doc_ids, texts, a.seed)
        merged = gen.apply_delta(doc_ids, texts, delta)
        os.makedirs(self.path("delta"))
        pq.write_table(delta, self.path("delta", "part-000.parquet"))
        roots = [idx] + [self.path(f"copy{i}") for i in range(1, CYCLES)]
        for root in roots[1:]:
            shutil.copytree(idx, root)
        commits, compacts, mans2, mans3 = [], [], [], []
        after_delta = {s: None for s in delta_specs[:REF_QUERIES]}
        for root in roots:
            session.wait_for_slots(a.cpu_slots)
            with self.span("index.incremental", "build_incremental"):
                t = time.perf_counter()
                man2 = self.op(lambda: incremental.build_incremental(
                    root, rd.read_parquet(self.path("delta")), concurrency=a.builder_concurrency),
                    "delta commit")
                commits.append(time.perf_counter() - t)
            if man2 is None:
                raise RuntimeError("delta commit failed")
            self.check(man2["n_docs"] == merged.num_rows,
                       f"delta n_docs {man2['n_docs']} != merged corpus {merged.num_rows}")
            mans2.append(man2)
            self.mark("delta_commit")
            if root == idx:
                self.fsck_clean(idx, "delta")
                pre_bytes = sum(_segment_bytes(idx, m) for m in man2["segments"])  # before compact rewrites them
                stored = sum(m["n_docs"] for m in man2["segments"])

                svc = self.start_service(idx, warm_texts)
                with self.pinned():
                    dlat, _ = self.closed_loop(svc, delta_specs, count=DELTA_QUERIES, record=after_delta)
                svc.shutdown()
                self.mark("delta_reads")

            session.wait_for_slots(a.cpu_slots)
            with self.span("index.compact", "compact"):
                t = time.perf_counter()
                man3 = self.op(lambda: compact.compact(root), "compact")
                compacts.append(time.perf_counter() - t)
            if man3 is None:
                raise RuntimeError("compact failed")
            self.check(man3["n_docs"] == merged.num_rows, "compact changed n_docs")
            mans3.append(man3)
            self.mark("compact")
        self.metrics["delta_commit_s"] = median(commits)
        self.metrics["delta_query_p50_ms"] = median(dlat) * 1e3
        self.metrics["compact_s"] = median(compacts)
        man2, man3 = mans2[0], mans3[0]
        self.fsck_clean(idx, "compact")
        compacted = query.IndexReader(idx)
        after_compact = {s: _answer(compacted.search(s[0], k=K, mode=s[1])) for s in after_delta}

        # reference: full rebuild of the merged corpus
        session.wait_for_slots(a.cpu_slots)
        rebuild = self.path("rebuild")
        hbuild.build_index(rd.from_arrow(merged), rebuild,
                           concurrency=a.builder_concurrency, store_positions=True)
        rb = query.IndexReader(rebuild)
        want = {s: _answer(rb.search(s[0], k=K, mode=s[1])) for s in after_delta}
        self.compare(after_delta, want, "after delta vs full rebuild")
        self.compare(after_compact, want, "after compact vs full rebuild")
        self.mark("rebuild_check")

        walls = [w for w, _, _ in self.builds]
        self.metrics["build_turns_per_s"] = tbl.num_rows / median(walls)
        if self.tracer:
            conv = [sum(c) for _, _, c in self.builds]
            p1 = [m["metrics"]["phase1_sec"] for _, m, _ in self.builds]
            p2 = [m["metrics"]["phase2_sec"] for _, m, _ in self.builds]
            self.metrics["corpus.conv_counts_s"] = median(conv)
            self.metrics["index.build.phase1_s"] = median(p1)
            self.metrics["index.build.phase2_s"] = median(p2)
            self.metrics["index.build.manifest_s"] = median(
                [w - c - x - y for w, c, x, y in zip(walls, conv, p1, p2)])
            self.metrics["index.incremental.build_s"] = median([m["metrics"]["build_sec"] for m in mans2])
            self.metrics["index.incremental.new_segments"] = man2["metrics"]["n_new_segments"]
            self.metrics["index.incremental.tombstones"] = len(man2["tombstones"])
            self.metrics["index.compact.merge_s"] = median([m["metrics"]["compact_sec"] for m in mans3])
            self.metrics["index.compact.bytes_rewritten_per_live_byte"] = (
                _tree_bytes(os.path.join(idx, f"v{man3['version']}", "segments"))
                / (pre_bytes * man3["n_docs"] / stored)
            )
            self.segment_layers(corpus.slice(0, tbl.num_rows // len(man["segments"])))
            for layer, s in self_time_by_layer(self.tracer.spans).items():
                self.metrics[f"{layer}.self_s"] = s

    # -- traced-only measurements ------------------------------------------------

    def query_layers(self, svc, idx: str, specs, phrases) -> None:
        """Split a query into driver prep, fan-out and merge (spans around the
        analyzer, term-stats and merge calls the QueryService makes), time the
        same per-actor work in process, and measure the tracing overhead by
        alternating untraced and traced passes over the same queries."""
        from harvester_ray import analyzer
        from harvester_ray.index import bm25, query

        tr = self.tracer

        @contextmanager
        def traced_calls():
            """Spans around the calls QueryService.search makes into the
            analyzer, the term stats and the merge."""
            plain = (analyzer.tokenize_query, query.QueryService.df, query.merge_topk)
            analyzer.tokenize_query = tr.wrap("analyzer", "tokenize_query", plain[0])
            query.QueryService.df = tr.wrap("index.query", "termstats_df", plain[1])
            query.merge_topk = tr.wrap("index.query", "merge_topk", plain[2])
            try:
                yield
            finally:
                analyzer.tokenize_query, query.QueryService.df, query.merge_topk = plain

        untraced, traced = [], []
        for i, spec in enumerate(specs * max(1, 200 // len(specs))):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                with traced_calls() if on else nullcontext():
                    t = time.perf_counter()
                    if on:
                        self.search(svc, spec)
                    else:
                        svc.search(spec[0], k=K, mode=spec[1])
                    (traced if on else untraced).append(time.perf_counter() - t)
        self.metrics["trace.overhead_us"] = (median(traced) - median(untraced)) * 1e6
        span0 = len(tr.spans)
        with traced_calls():
            for spec in specs:
                self.search(svc, spec)
        # fan-out = the search span's self time, over queries that reached the
        # actors (those merge); the rest are answered without a fan-out
        merged = {s.parent for s in tr.spans[span0:] if s.name == "merge_topk"}
        st = self_times(tr.spans)
        searches = [s for s in tr.spans[span0:] if s.name == "search"]
        fanout = {s.sid: st[s.sid] for s in searches if s.sid in merged}
        self.metrics["analyzer.tokenize_query_us"] = median(tr.durations("analyzer", "tokenize_query", span0)) * 1e6
        self.metrics["index.query.termstats_df_us"] = median(tr.durations("index.query", "termstats_df", span0)) * 1e6
        self.metrics["index.query.merge_us"] = median(tr.durations("index.query", "merge_topk", span0)) * 1e6
        self.metrics["index.query.fanout_ms"] = median(fanout.values()) * 1e3

        # the same per-actor work in process: one QuerySegmentActor per group
        man = svc.manifest
        segs = man["segments"]
        n = max(1, min(self.a.serve_actors, len(segs)))
        groups = [query.QuerySegmentActor(idx, segs[i::n], man) for i in range(n)]
        def slowest_group(call, warm: bool = True) -> float:
            ts = []
            for g in groups:
                if warm:
                    call(g)  # first call fills the caches, as on the warm actors
                t = time.perf_counter()
                call(g)
                ts.append(time.perf_counter() - t)
            return max(ts)

        compute, rpc = [], []
        for spec, sp in zip(specs, searches):
            if sp.sid not in fanout:
                continue
            terms = sorted(set(analyzer.tokenize_query(spec[0], svc.analyzer_version)))
            dfs = svc.df(terms)
            live = [x for x in terms if dfs[x] > 0]
            idf = {x: float(bm25.idf(svc.n_docs, dfs[x])) for x in live}
            c = slowest_group(lambda g: g.search(live, idf, K, spec[1]))
            compute.append(c)
            rpc.append(fanout[sp.sid] - c)
        self.metrics["index.query.actor_compute_ms"] = median(compute) * 1e3
        self.metrics["index.query.rpc_ms"] = median(rpc) * 1e3
        self.metrics["index.query.phrase_match_ms"] = median(
            slowest_group(lambda g: g.phrase_match(analyzer.tokenize_query(p, svc.analyzer_version), None),
                          warm=self.a.workload == "hot")  # zipf phrases are mostly seen once
            for p in phrases[:64]) * 1e3

        reader = query.IndexReader(idx)
        lat = []
        for spec in specs:
            reader.search(spec[0], k=K, mode=spec[1])
        for spec in specs:
            t = time.perf_counter()
            reader.search(spec[0], k=K, mode=spec[1])
            lat.append(time.perf_counter() - t)
        self.metrics["index.query.inproc_p50_ms"] = median(lat) * 1e3

    def segment_layers(self, batch: pa.Table) -> None:
        """Phase 1 split into analysis, postings encoding and the rest, on one
        segment-sized batch in this process. Runs last: SegmentBuilder
        pins the process's Arrow thread count and memory pool."""
        from harvester_ray import analyzer
        from harvester_ray.index import build

        tr = self.tracer
        t = time.perf_counter()
        with self.span("analyzer", "analyze_table"):
            analyzer.analyze_table(batch)
        self.metrics["analyzer.analyze_table_s"] = time.perf_counter() - t

        names = ("normalize_text", "tokenize_flat", "term_frequencies", "token_positions")
        plain = {n: getattr(analyzer, n) for n in names}
        plain_enc = build.encode_postings_streams
        seg_dir = self.path("segprobe")
        builder = build.SegmentBuilder(seg_dir, staging_dir=seg_dir, store_positions=True)
        span0 = len(tr.spans)
        try:
            for n in names:
                setattr(analyzer, n, tr.wrap("analyzer", n, plain[n]))
            build.encode_postings_streams = tr.wrap("index.build", "encode_postings_streams", plain_enc)
            with self.span("index.build", "segment"):
                builder(batch)
        finally:
            for n in names:
                setattr(analyzer, n, plain[n])
            build.encode_postings_streams = plain_enc
        seg = tr.spans[span0]
        self.metrics["index.build.segment_s"] = seg.duration
        self.metrics["index.build.encode_postings_s"] = sum(
            tr.durations("index.build", "encode_postings_streams", span0))
        self.metrics["analyzer.segment_analyze_s"] = sum(
            sum(tr.durations("analyzer", n, span0)) for n in names)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["hot", "zipf"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--cpu-slots", type=int, required=True)
    p.add_argument("--serve-actors", type=int, required=True)
    p.add_argument("--builder-concurrency", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--ray-dir", required=True)
    p.add_argument("--result", required=True)
    a = p.parse_args(argv)

    with open("BENCHMARK.json") as f:
        wanted = json.load(f)["per_layer" if a.trace else "end_to_end"]
    run = Run(a)
    before, t0 = session.cpu_times(), time.perf_counter()
    crashed = None
    try:
        run.run()
    except Exception as e:  # noqa: BLE001 - reported as a failed run
        crashed = f"{type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    finally:
        import ray

        ray.shutdown()
    run.note("nproc", f"{os.environ.get('OMP_NUM_THREADS', len(run.cpus))} "
                      f"(OMP_NUM_THREADS), {len(run.cpus)} CPUs usable")
    run.note("serving_on_cpu", run.pinned_to)
    run.note("steal_pct", round(session.steal_pct(before, session.cpu_times()), 2))
    run.note("run_wall_s", round(time.perf_counter() - t0, 2))
    run.note("phase_wall_s", " ".join(f"{k}={v:.2f}" for k, v in run.phases.items()))
    for line in run.notes:
        print(f"# {line}")
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if crashed:
        run.fail(crashed)
    elif missing:
        run.fail(f"metrics not produced: {missing}")
    for e in run.errors:
        print(f"# FAILED {e}")
    metrics = {
        m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in run.metrics
    }
    for name, v in metrics.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics if not crashed and not missing else {},
    }
    with open(a.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
