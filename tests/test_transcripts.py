import glob
import hashlib
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from harvester_ray import analyzer, corpus, synth
from harvester_ray.index import build, oracle, query
from harvester_ray.pipelines import flagship


@pytest.fixture(scope="module")
def transcripts_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("synthdata"))
    return synth.transcripts_parquet(out, n_convs=80, seed=42, shards=4)


def test_generator_deterministic():
    a = synth.generate_transcripts(30, seed=42)
    b = synth.generate_transcripts(30, seed=42)
    assert a.equals(b)
    c = synth.generate_transcripts(30, seed=43)
    assert not a.equals(c)


def test_doc_id_assignment_matches_pandas_oracle(transcripts_dir):
    ds = rd.read_parquet(transcripts_dir)
    with_ids = corpus.assign_doc_ids(ds).to_pandas()
    pdf = rd.read_parquet(transcripts_dir).to_pandas()
    expected = corpus.doc_id_table(pdf)
    got = with_ids.sort_values("doc_id").reset_index(drop=True)
    exp = expected.sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(exp["doc_id"])
    assert list(got["conv_id"]) == list(exp["conv_id"])
    assert list(got["turn_idx"]) == list(exp["turn_idx"])
    # dense, contiguous, stable under (conv_id, turn_idx) order
    assert got["doc_id"].tolist() == list(range(len(got)))


def test_per_turn_text_equality_invariant(transcripts_dir):
    """BASELINE.json per-row invariant: normalized text of every
    (conv_id, turn_idx) is identical pre/post pipeline, under stable
    ordering. The pipeline must never reorder, drop, or mutate turns."""
    src = rd.read_parquet(transcripts_dir).to_pandas()
    src_norm = (
        pd.DataFrame(
            {
                "conv_id": src["conv_id"],
                "turn_idx": src["turn_idx"],
                "norm": analyzer.normalize_text(pa.array(src["text"])).to_pylist(),
            }
        )
        .sort_values(["conv_id", "turn_idx"], kind="mergesort")
        .reset_index(drop=True)
    )

    ds = corpus.assign_doc_ids(rd.read_parquet(transcripts_dir))

    def normalize(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("text"),
            "text",
            analyzer.normalize_text(batch["text"]),
        )

    out = ds.map_batches(normalize, batch_format="pyarrow").to_pandas()
    out = out.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    assert len(out) == len(src_norm)
    assert list(out["conv_id"]) == list(src_norm["conv_id"])
    assert list(out["turn_idx"]) == list(src_norm["turn_idx"])
    assert list(out["text"]) == list(src_norm["norm"])
    # normalize is idempotent → applying the pipeline again changes nothing
    again = analyzer.normalize_text(pa.array(out["text"])).to_pylist()
    assert again == list(out["text"])


@pytest.fixture(scope="module")
def transcript_index(transcripts_dir, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("tidx"))
    man = flagship.build_transcript_index(transcripts_dir, root, concurrency=2)
    return root, man


def _transcript_con(transcripts_dir):
    con = duckdb.connect()
    con.execute(
        f"""
        CREATE VIEW transcripts_ids AS
        WITH base AS (SELECT * FROM read_parquet('{transcripts_dir}/part-*.parquet'))
        SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS doc_id, *
        FROM base
        """
    )
    return con


@pytest.mark.parametrize("q", ["gaji hopotenu", "zoquli", "vafawu todefi zavi", "xyznope", "gaji xyznope"])
def test_transcript_bm25_matches_duckdb(transcript_index, transcripts_dir, q):
    root, _ = transcript_index
    con = _transcript_con(transcripts_dir)
    exp = con.execute(
        oracle.bm25_sql("transcripts_ids", q, 10, mode="and", round_digits=12)
    ).fetchdf()
    got = query.IndexReader(root).search(q, k=10, mode="and").to_pandas()
    assert list(got["doc_id"]) == list(exp["doc_id"]), f"query={q!r}"
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)


def _segment_digest(root):
    files = sorted(glob.glob(os.path.join(root, "v*", "segments", "seg-*")))
    out = {}
    for f in files:
        if f.endswith(".done"):
            continue
        with open(f, "rb") as fh:
            out[os.path.basename(f)] = hashlib.sha1(fh.read()).hexdigest()
    return out


def test_resume_skips_segments_and_is_byte_identical(
    transcripts_dir, tmp_path_factory, monkeypatch
):
    root = str(tmp_path_factory.mktemp("ridx"))

    def crash(*args, **kwargs):
        raise RuntimeError("crash after phase 1")

    # a crash after phase 1: segments and staging are on disk, no manifest
    with monkeypatch.context() as m:
        m.setattr(build, "fold_term_stats", crash)
        with pytest.raises(RuntimeError, match="crash after phase 1"):
            flagship.build_transcript_index(transcripts_dir, root, concurrency=2)
    assert not os.path.exists(os.path.join(root, "v1", "manifest.json"))
    before = _segment_digest(root)
    mtimes = {
        f: os.path.getmtime(f)
        for f in glob.glob(os.path.join(root, "v1", "segments", "seg-*.bin"))
    }
    # rerun phase 1 too, so every segment must be skipped by its own marker
    os.remove(os.path.join(root, "v1", "staging", "phase1.done"))
    man = flagship.build_transcript_index(transcripts_dir, root)
    assert man["version"] == 1 or man["version"] == 2
    after = _segment_digest(root)
    seg_after = {k: v for k, v in after.items() if k in before}
    assert seg_after == before  # byte-identical segments
    for f, t in mtimes.items():
        assert os.path.getmtime(f) == t, "segment was rebuilt instead of resumed"


def test_rebuild_same_input_identical_results(transcripts_dir, tmp_path_factory):
    r1 = str(tmp_path_factory.mktemp("i1"))
    r2 = str(tmp_path_factory.mktemp("i2"))
    flagship.build_transcript_index(transcripts_dir, r1, concurrency=2)
    flagship.build_transcript_index(transcripts_dir, r2, concurrency=3)
    for q in ["gaji hopotenu", "zoquli vafawu"]:
        a = query.IndexReader(r1).search(q, k=20).to_pandas()
        b = query.IndexReader(r2).search(q, k=20).to_pandas()
        assert list(a["doc_id"]) == list(b["doc_id"])
        np.testing.assert_allclose(a["score"], b["score"], rtol=0)


# --- conversation-analytics family vs DuckDB oracles -----------------------

from harvester_ray.pipelines import transcripts as tmod


def _oracle_df(sql: str) -> pd.DataFrame:
    return duckdb.sql(sql).fetchdf()


@pytest.mark.parametrize(
    "fn,sql_fn,sort_cols",
    [
        (tmod.conv_flatten, tmod.conv_flatten_sql, ["conv_id"]),
        (tmod.conv_stats, tmod.conv_stats_sql, ["conv_id"]),
        (tmod.role_stats, tmod.role_stats_sql, ["role"]),
        (tmod.tool_usage, tmod.tool_usage_sql, ["tool"]),
        (tmod.conv_tail, tmod.conv_tail_sql, ["conv_id", "turn_idx"]),
        (tmod.role_transitions, tmod.role_transitions_sql, ["prev_role", "role"]),
        (tmod.sft_examples, tmod.sft_examples_sql, ["conv_id", "turn_idx"]),
        (tmod.conv_fit_context, tmod.conv_fit_context_sql, ["conv_id", "turn_idx"]),
        (tmod.merge_consecutive_turns, tmod.merge_consecutive_turns_sql,
         ["conv_id", "run_idx"]),
    ],
    ids=["flatten", "stats", "roles", "tools", "tail", "transitions", "sft",
         "fitctx", "mergeturns"],
)
def test_transcript_analytics_vs_oracle(transcripts_dir, fn, sql_fn, sort_cols):
    ds = rd.read_parquet(transcripts_dir)
    got = fn(ds).sort_values(sort_cols).reset_index(drop=True)
    src = tmod.transcript_view_sql(os.path.join(transcripts_dir, "*.parquet"))
    exp = _oracle_df(sql_fn(src)).sort_values(sort_cols).reset_index(drop=True)
    assert list(got.columns) == list(exp.columns)
    assert len(got) == len(exp)
    for c in got.columns:
        a, b = got[c], exp[c]
        if np.issubdtype(a.dtype, np.floating):
            assert np.allclose(a.to_numpy(np.float64), b.to_numpy(np.float64),
                               rtol=1e-9, atol=1e-9), c
        else:
            assert a.astype(str).tolist() == b.astype(str).tolist(), c


def test_conv_tail_small_convs(transcripts_dir):
    """Conversations shorter than k return all their turns (edge: the
    single-turn conversation synth pins at index 2)."""
    ds = rd.read_parquet(transcripts_dir)
    out = tmod.conv_tail(ds, k=3)
    pdf = rd.read_parquet(transcripts_dir).to_pandas()
    lens = pdf.groupby("conv_id").size()
    per_conv = out.groupby("conv_id").size()
    assert (per_conv == lens.clip(upper=3).reindex(per_conv.index)).all()


def test_conv_flatten_md5_matches_manual(transcripts_dir):
    ds = rd.read_parquet(transcripts_dir)
    out = tmod.conv_flatten(ds).set_index("conv_id")
    pdf = rd.read_parquet(transcripts_dir).to_pandas()
    one = pdf[pdf["conv_id"] == pdf["conv_id"].iloc[0]].sort_values("turn_idx")
    flat = "\n".join(r + ": " + t for r, t in zip(one["role"], one["text"]))
    assert out.loc[one["conv_id"].iloc[0], "conv_md5"] == hashlib.md5(flat.encode()).hexdigest()
    assert int(out.loc[one["conv_id"].iloc[0], "n_chars"]) == len(flat)


def test_conv_granularity_bm25_vs_oracle(transcripts_dir, tmp_path_factory):
    """Flatten conversations to docs (rank-in-sorted-order ids), index,
    search — rank-identical to the SQL oracle over the same Parquet."""
    from harvester_ray.index import build as ibuild
    from harvester_ray.index import oracle as ioracle
    from harvester_ray.index import query as iquery

    root = str(tmp_path_factory.mktemp("convidx"))
    paths = sorted(
        os.path.join(transcripts_dir, f)
        for f in os.listdir(transcripts_dir)
        if f.endswith(".parquet")
    )
    counts = corpus.conv_counts_from_files(paths)
    ds = rd.read_parquet(transcripts_dir, columns=["conv_id", "turn_idx", "role", "text"])
    flat = tmod.flatten_text_ds(ds, counts["conv_id"].to_numpy(dtype=np.str_))
    ibuild.build_index(flat, root, concurrency=2)
    # rank ids are dense 0..n_convs-1
    r = iquery.IndexReader(root)
    assert r.n_docs == len(counts)
    # pick a rare term from the corpus for a discriminative query
    pdf = rd.read_parquet(transcripts_dir).to_pandas()
    vocab = pd.Series(" ".join(pdf["text"].head(200)).split()).value_counts()
    rare = vocab[vocab <= 2].index[0]
    got = r.search(rare, k=10, mode="or").to_pandas()
    sql = ioracle.bm25_sql("cdoc", rare, 10, mode="or", round_digits=12).replace(
        "WITH ",
        tmod.conv_doc_sql_head(os.path.join(transcripts_dir, "*.parquet")) + ", ",
        1,
    )
    exp = duckdb.sql(sql).fetchdf()
    assert list(got["doc_id"]) == list(exp["doc_id"])
    np.testing.assert_allclose(got["score"], exp["score"], rtol=1e-9)


def test_conv_windows_vs_oracle(transcripts_dir):
    ds = rd.read_parquet(transcripts_dir)
    got = tmod.conv_windows(ds, k=4, stride=2)
    src = tmod.transcript_view_sql(os.path.join(transcripts_dir, "*.parquet"))
    exp = duckdb.sql(tmod.conv_windows_sql(src, k=4, stride=2)).fetchdf()
    assert len(got) == len(exp)
    for c in got.columns:
        assert got[c].astype(str).tolist() == exp[c].astype(str).tolist(), c
    # short conversations yield exactly one (full) window
    pdf = rd.read_parquet(transcripts_dir).to_pandas()
    lens = pdf.groupby("conv_id").size()
    short = lens[lens <= 4].index
    for cid in short[:3]:
        rows = got[got["conv_id"] == cid]
        assert len(rows) == 1 and int(rows["n_turns"].iloc[0]) == lens[cid]


def test_conv_windows_stride_covers_all_turns(transcripts_dir):
    """Every turn of every conversation appears in >=1 window when
    stride <= k (no gaps in training coverage)."""
    ds = rd.read_parquet(transcripts_dir)
    got = tmod.conv_windows(ds, k=5, stride=3)
    pdf = rd.read_parquet(transcripts_dir).to_pandas()
    lens = pdf.groupby("conv_id").size()
    last_end = got.groupby("conv_id")["end_turn"].max()
    assert (last_end == lens.reindex(last_end.index) - 1).all()


def test_turn_overlap_vs_oracle(transcripts_dir):
    ds = rd.read_parquet(transcripts_dir)
    got = tmod.turn_overlap(ds)
    src = tmod.transcript_view_sql(os.path.join(transcripts_dir, "*.parquet"))
    exp = duckdb.sql(tmod.turn_overlap_sql(src)).fetchdf()
    assert len(got) == len(exp)
    for c in got.columns:
        assert got[c].astype(str).tolist() == exp[c].astype(str).tolist(), c


def test_turn_overlap_detects_repetition():
    """A conversation that repeats itself verbatim scores inter == union
    on every pair; an all-distinct one scores inter == 0."""
    t = pa.table({
        "conv_id": pa.array(["rep"] * 3 + ["uniq"] * 3, pa.string()),
        "turn_idx": pa.array([0, 1, 2, 0, 1, 2], pa.int32()),
        "role": pa.array(["user"] * 6, pa.string()),
        "text": pa.array(
            ["same words here", "same words here", "same words here",
             "alpha bravo", "charlie delta", "echo foxtrot"],
            pa.string(),
        ),
        "tool": pa.array([None] * 6, pa.string()),
        "ts": pa.array([1, 2, 3, 4, 5, 6], pa.timestamp("us")),
    })
    out = tmod.turn_overlap(rd.from_arrow(t)).set_index("conv_id")
    assert int(out.loc["rep", "inter_sum"]) == int(out.loc["rep", "union_sum"]) == 6
    assert int(out.loc["uniq", "inter_sum"]) == 0
    assert int(out.loc["uniq", "union_sum"]) == 8
    assert int(out.loc["rep", "n_pairs"]) == int(out.loc["uniq", "n_pairs"]) == 2


def test_tool_chains_vs_oracle(transcripts_dir):
    ds = rd.read_parquet(transcripts_dir)
    got = tmod.tool_chains(ds)
    src = tmod.transcript_view_sql(os.path.join(transcripts_dir, "*.parquet"))
    exp = duckdb.sql(tmod.tool_chains_sql(src)).fetchdf()
    assert len(got) == len(exp)
    for c in got.columns:
        assert got[c].astype(str).tolist() == exp[c].astype(str).tolist(), c


def test_tool_chains_skip_non_tool_turns():
    """Intervening user/assistant turns do not break a tool chain."""
    t = pa.table({
        "conv_id": pa.array(["c"] * 4, pa.string()),
        "turn_idx": pa.array([0, 1, 2, 3], pa.int32()),
        "role": pa.array(["tool", "assistant", "user", "tool"], pa.string()),
        "text": pa.array(["a", "b", "c", "d"], pa.string()),
        "tool": pa.array(["t1", None, None, "t2"], pa.string()),
        "ts": pa.array([1, 2, 3, 4], pa.timestamp("us")),
    })
    out = tmod.tool_chains(rd.from_arrow(t))
    assert out.to_dict("records") == [{"prev_tool": "t1", "tool": "t2", "n": 1}]


def test_curate_conversations_vs_oracle(transcripts_dir):
    ds = rd.read_parquet(transcripts_dir)
    got = tmod.curate_conversations(ds)
    src = tmod.transcript_view_sql(os.path.join(transcripts_dir, "*.parquet"))
    exp = duckdb.sql(tmod.curate_conversations_sql(src)).fetchdf()
    assert len(got) == len(exp)
    for c in got.columns:
        assert got[c].astype(str).tolist() == exp[c].astype(str).tolist(), c
    # verdicts are non-degenerate on the synth corpus: at least two reasons
    assert got["reason"].nunique() >= 2
    assert got["keep"].any() and not got["keep"].all()


def test_role_violations_matches_oracle(transcripts_dir):
    from harvester_ray.pipelines import transcripts as tmod

    ds = rd.read_parquet(transcripts_dir)
    got = tmod.role_violations(ds)
    con = duckdb.connect()
    src = tmod.transcript_view_sql(os.path.join(transcripts_dir, "*.parquet"))
    exp = con.execute(tmod.role_violations_sql(src)).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_role_violations_planted():
    from harvester_ray.pipelines import transcripts as tmod

    df = pd.DataFrame({
        "conv_id": ["a"] * 3 + ["b"] * 3,
        "turn_idx": [0, 1, 2] * 2,
        "role": ["user", "user", "assistant", "assistant", "user", "user"],
        "text": ["x"] * 6,
        "tool": [""] * 6,
        "ts": pd.to_datetime(["2026-01-01"] * 6),
    })
    out = tmod.role_violations(rd.from_pandas(df))
    assert out.set_index("conv_id").loc["a", "n_repeats"] == 1
    assert out.set_index("conv_id").loc["a", "bad_start"] == 0
    assert out.set_index("conv_id").loc["b", "n_repeats"] == 1
    assert out.set_index("conv_id").loc["b", "bad_start"] == 1


def test_conv_branches_detects_planted_retries(transcripts_dir):
    """Tiny hand corpus: two convs share the first 2 turns (branch), one is
    unrelated, one is a single-turn conv whose full text IS its prefix."""
    df = pd.DataFrame({
        "conv_id": ["a", "a", "a", "b", "b", "b", "c", "c", "d"],
        "turn_idx": [0, 1, 2, 0, 1, 2, 0, 1, 0],
        "role": ["user", "assistant", "user"] * 2 + ["user", "assistant", "user"],
        "text": ["hi", "yo", "branch-A", "hi", "yo", "branch-B",
                 "other", "talk", "hi"],
    })
    out = tmod.conv_branches(rd.from_pandas(df), k=2)
    # only (a, b) share the first-2-turn prefix; d's 1-turn prefix "user: hi"
    # differs from a/b's 2-turn prefix
    assert len(out) == 1
    assert out.loc[0, "n_convs"] == 2
    assert out.loc[0, "first_conv"] == "a"
    assert out.loc[0, "prefix_turns"] == 2
    # oracle parity on the same frame via a DuckDB temp view
    con = duckdb.connect()
    con.register("tiny", df)
    exp = con.execute(tmod.conv_branches_sql("tiny", k=2)).fetchdf()
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)
    # no duplicate prefixes in the raw synth corpus → empty, typed frame
    ds = rd.read_parquet(transcripts_dir)
    none = tmod.conv_branches(ds, k=2)
    assert none.empty
    assert list(none.columns) == ["prefix_md5", "n_convs", "first_conv", "prefix_turns"]


def test_preference_pairs_known_branches(ray_session):
    """Hand-built branch groups: chosen = longest continuation, one pair
    per non-chosen branch, singletons ignored; exact oracle equality."""
    rows = []
    # group A: three branches of the same 2-turn opening, lengths 5, 3, 2
    for conv, n in [("a1", 5), ("a2", 3), ("a3", 2)]:
        for i in range(n):
            role = "user" if i % 2 == 0 else "assistant"
            text = f"opening {i}" if i < 2 else f"{conv} cont {i}"
            rows.append((conv, i, role, text))
    # singleton conversation: no pairs
    for i in range(4):
        rows.append(("solo", i, "user", f"solo {i}"))
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "text"])
    got = tmod.preference_pairs(rd.from_pandas(df), k=2)
    assert list(got["chosen_conv"]) == ["a1", "a1"]
    assert sorted(got["rejected_conv"]) == ["a2", "a3"]
    assert (got["chosen_turns"] == 5).all()
    con = duckdb.connect()
    con.register("prefsrc", df)
    exp = con.execute(tmod.preference_pairs_sql("prefsrc", k=2)).fetchdf()
    for c in got.columns:
        assert got[c].astype(str).tolist() == exp[c].astype(str).tolist(), c


def test_conv_continuations_planted(ray_session):
    """Planted A→B stitches recovered exactly; empty endpoints never link."""
    rows = []
    for conv, texts in [
        ("a", ["hi there", "the tail text"]),
        ("b", ["the tail text", "continues a"]),   # b continues a
        ("c", ["unrelated", ""]),                   # empty tail: no link
        ("d", ["", "also unrelated end"]),          # empty head: no link
    ]:
        for i, t in enumerate(texts):
            rows.append((conv, i, "user", t))
    df = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "role", "text"])
    got = tmod.conv_continuations(rd.from_pandas(df))
    assert list(got["prev_conv"]) == ["a"]
    assert list(got["next_conv"]) == ["b"]
    con = duckdb.connect()
    con.register("contsrc", df)
    exp = con.execute(tmod.conv_continuations_sql("contsrc")).fetchdf()
    for c in got.columns:
        assert got[c].astype(str).tolist() == exp[c].astype(str).tolist(), c


def test_tool_loops_planted(ray_session):
    from harvester_ray.pipelines import transcripts as tmod

    rows = []
    # conv A: tool x called 3x in a row with a user turn between calls
    # (non-tool turns don't break the chain), then tool y once
    for i, (role, tool) in enumerate([
        ("user", ""), ("tool", "x"), ("user", ""), ("tool", "x"),
        ("tool", "x"), ("tool", "y"),
    ]):
        rows.append(("A", i, role, tool))
    # conv B: x twice, broken by y, then x twice again → two len-2 runs
    for i, (role, tool) in enumerate([
        ("tool", "x"), ("tool", "x"), ("tool", "y"),
        ("tool", "x"), ("tool", "x"),
    ]):
        rows.append(("B", i, role, tool))
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "tool": pa.array([r[3] for r in rows]),
    })
    out = tmod.tool_loops(rd.from_arrow(t), min_run=2)
    got = list(zip(out["conv_id"], out["tool"], out["run_len"], out["start_turn"]))
    assert got == [("A", "x", 3, 1), ("B", "x", 2, 0), ("B", "x", 2, 3)]
    # min_run=3 keeps only the planted triple
    out3 = tmod.tool_loops(rd.from_arrow(t), min_run=3)
    assert list(zip(out3["conv_id"], out3["tool"])) == [("A", "x")]


def test_conv_flatten_sorted_equals_bucketed(ray_session, tmp_path):
    """The zero-shuffle sorted-input path is value-identical to the
    bucketed general path, on shards cut MID-conversation — including a
    conversation that spans one whole middle file."""
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from harvester_ray.pipelines import transcripts as T

    rows = []
    for ci in range(7):
        for ti in range((ci % 4) + 2):
            rows.append((f"c{ci:02d}", ti, "user" if ti % 2 == 0 else "assistant",
                         f"text {ci} {ti}"))
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows]),
    })
    # adversarial cuts: file 1 starts and ends mid-conversation; file 2 is
    # one conversation's interior entirely
    c02 = [i for i, r in enumerate(rows) if r[0] == "c02"]
    cuts = [0, c02[0] + 1, c02[0] + 2, c02[-1] + 1, t.num_rows]
    files = []
    for i in range(len(cuts) - 1):
        f = str(tmp_path / f"part-{i:03d}.parquet")
        pq.write_table(t.slice(cuts[i], cuts[i + 1] - cuts[i]), f)
        files.append(f)
    a = T.conv_flatten(rd.read_parquet(files))
    b = T.conv_flatten_sorted(files)
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )


def test_turn_overlap_sorted_equals_bucketed(ray_session, tmp_path):
    """turn_overlap's sorted-input path: identical to the bucketed path on
    mid-conversation shard cuts."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from harvester_ray.pipelines import transcripts as T

    rows = []
    for ci in range(6):
        for ti in range((ci % 3) + 2):
            rows.append((f"c{ci:02d}", ti, f"alpha beta w{ci} t{ti} beta"))
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "text": pa.array([r[2] for r in rows]),
    })
    files = []
    cuts = [0, 3, 4, 9, t.num_rows]
    for i in range(len(cuts) - 1):
        f = str(tmp_path / f"ov-{i:03d}.parquet")
        pq.write_table(t.slice(cuts[i], cuts[i + 1] - cuts[i]), f)
        files.append(f)
    a = T.turn_overlap(rd.read_parquet(files))
    b = T.turn_overlap_sorted(files)
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )


def test_best_of_n_keeps_longest_per_prefix_group(ray_session):
    """Shared-prefix group (a: 3 turns, b: 4 turns) → b wins; tie group
    (e, f: both 2 turns) → lexicographic winner e; singleton c keeps
    itself."""
    df = pd.DataFrame({
        "conv_id": ["a", "a", "a", "b", "b", "b", "b", "c",
                    "e", "e", "f", "f"],
        "turn_idx": [0, 1, 2, 0, 1, 2, 3, 0, 0, 1, 0, 1],
        "role": (["user", "assistant", "user"] + ["user", "assistant", "user", "assistant"]
                 + ["user"] + ["user", "assistant"] * 2),
        "text": (["hi", "yo", "more-A"] + ["hi", "yo", "more-B", "done"]
                 + ["solo"] + ["q", "r"] * 2),
    })
    out = tmod.best_of_n(rd.from_pandas(df), k=2)
    assert len(out) == 3  # {a,b}, {c}, {e,f}
    by_best = out.set_index("best_conv")
    assert by_best.loc["b", "n_convs"] == 2 and by_best.loc["b", "best_turns"] == 4
    assert by_best.loc["c", "n_convs"] == 1
    assert by_best.loc["e", "n_convs"] == 2 and by_best.loc["e", "best_turns"] == 2
    assert "f" not in by_best.index and "a" not in by_best.index
    con = duckdb.connect()
    con.register("tiny", df)
    exp = con.execute(tmod.best_of_n_sql("tiny", k=2)).fetchdf()
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)


def test_conv_skeletons_groups_role_templates(ray_session):
    """a and b share the user>assistant>user opening skeleton despite fully
    different text; c's tool turn breaks the template; min_convs filters
    singletons."""
    df = pd.DataFrame({
        "conv_id": ["a", "a", "a", "b", "b", "b", "c", "c", "c"],
        "turn_idx": [0, 1, 2] * 3,
        "role": ["user", "assistant", "user"] * 2 + ["user", "tool", "user"],
        "text": [f"t{i}" for i in range(9)],
    })
    out = tmod.conv_skeletons(rd.from_pandas(df), k=6, min_convs=2)
    assert out["skeleton"].tolist() == ["user>assistant>user"]
    assert out.loc[0, "n_convs"] == 2
    assert out.loc[0, "first_conv"] == "a"
    con = duckdb.connect()
    con.register("tiny", df)
    exp = con.execute(tmod.conv_skeletons_sql("tiny", k=6)).fetchdf()
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)
    empty = tmod.conv_skeletons(rd.from_pandas(df), k=6, min_convs=5)
    assert empty.empty and list(empty.columns) == ["skeleton", "n_convs", "first_conv"]


def _turns_ds(rows):
    # rows: (conv_id, turn_idx, role, tool)
    return rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows]),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "role": pa.array([r[2] for r in rows]),
                "tool": pa.array([r[3] for r in rows]),
            }
        )
    )


def test_conv_template_dedup_tool_discriminating(ray_session):
    from harvester_ray.pipelines import transcripts as tr

    rows = [
        # a and b: identical role:tool choreography, different nothing else
        ("a", 0, "user", None), ("a", 1, "assistant", None), ("a", 2, "tool", "t1"),
        ("b", 0, "user", None), ("b", 1, "assistant", None), ("b", 2, "tool", "t1"),
        # c: same roles, DIFFERENT tool — not a structural duplicate
        ("c", 0, "user", None), ("c", 1, "assistant", None), ("c", 2, "tool", "t2"),
        # d: unique shape
        ("d", 0, "user", None), ("d", 1, "assistant", None),
    ]
    out = tr.conv_template_dedup(_turns_ds(rows))
    assert len(out) == 1
    g = out.iloc[0]
    assert g["template"] == "user|assistant|tool:t1"
    assert g["n_convs"] == 2 and g["canonical_conv"] == "a"
    # role-only sibling would have merged c into the group — prove it differs
    sk = tr.conv_skeletons(_turns_ds(rows), k=6)
    assert sk.iloc[0]["n_convs"] == 3


def test_conv_template_dedup_empty_and_partition_independent(ray_session):
    from harvester_ray.pipelines import transcripts as tr

    empty = tr.conv_template_dedup(_turns_ds([]))
    assert empty.empty and list(empty.columns) == [
        "template", "n_convs", "canonical_conv",
    ]
    rows = []
    for i in range(40):
        cid = f"c{i:03d}"
        rows += [(cid, 0, "user", None), (cid, 1, "assistant", None)]
        if i % 3 == 0:
            rows.append((cid, 2, "tool", f"t{i % 2}"))
    a = tr.conv_template_dedup(_turns_ds(rows))
    b = tr.conv_template_dedup(_turns_ds(rows).repartition(7))
    assert a.equals(b)
    # three template classes: bare 2-turn, +tool t0, +tool t1
    assert len(a) == 3 and a["n_convs"].sum() == 40


def test_verbosity_by_depth(ray_session):
    import ray.data as rd
    from harvester_ray.pipelines import transcripts as tr

    t = pa.table(
        {
            "conv_id": pa.array(["a", "a", "a", "b", "b"]),
            "turn_idx": pa.array([0, 1, 15, 0, 1], pa.int32()),
            "role": pa.array(["user", "assistant", "assistant", "user", "assistant"]),
            "text": pa.array(["one two", "x y z", "deep tail turn here", "solo", "p q r s"]),
        }
    )
    out = tr.verbosity_by_depth(rd.from_arrow(t), cap=12)
    out = out.set_index(["role", "depth"])
    # user depth 0: lengths 2 and 1 → mean 1.5 exactly
    r = out.loc[("user", 0)]
    assert r["n_turns"] == 2 and r["total_tokens"] == 3 and r["mean_tokens"] == 1.5
    # assistant depth 1: 3 and 4 tokens → mean 3.5
    assert out.loc[("assistant", 1)]["mean_tokens"] == 3.5
    # depth 15 lumps into the cap cell 12
    assert out.loc[("assistant", 12)]["n_turns"] == 1


def test_markov_entropy_rate(ray_session):
    import math

    import ray.data as rd
    from harvester_ray.pipelines import transcripts as tr

    # deterministic chain: user→assistant→user→… entropy 0
    t = pa.table(
        {
            "conv_id": pa.array(["a"] * 6),
            "turn_idx": pa.array(range(6), pa.int32()),
            "role": pa.array(["user", "assistant"] * 3),
        }
    )
    out = tr.markov_entropy_rate(rd.from_arrow(t))
    assert list(out["prev_role"]) == ["assistant", "user", "__all__"]
    assert all(out["h_cond"] == 0.0)
    # 50/50 branching from user → ln(2) nats conditional entropy
    t2 = pa.table(
        {
            "conv_id": pa.array(["a", "a", "b", "b"]),
            "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
            "role": pa.array(["user", "assistant", "user", "tool"]),
        }
    )
    out2 = tr.markov_entropy_rate(rd.from_arrow(t2)).set_index("prev_role")
    expected = math.floor(0.5 * math.log(2.0) * 1e9 + 0.5) * 2 / 1e9
    assert out2.loc["user"]["h_cond"] == expected  # ≈ ln 2
    assert out2.loc["__all__"]["h_cond"] == expected


def test_conv_head_tail(ray_session):
    import ray.data as rd
    from harvester_ray.pipelines import transcripts as tr

    t = pa.table(
        {
            "conv_id": pa.array(["a"] * 6 + ["b"] * 3),
            "turn_idx": pa.array(list(range(6)) + list(range(3)), pa.int32()),
            "role": pa.array(["user", "assistant"] * 3 + ["system", "user", "assistant"]),
        }
    )
    out = tr.conv_head_tail(rd.from_arrow(t), h=2, t=2)
    a = out[out["conv_id"] == "a"]
    assert list(a["turn_idx"]) == [0, 1, 4, 5]  # middle turns 2,3 dropped
    assert list(a["segment"]) == ["head", "head", "tail", "tail"]
    assert list(a["n_dropped"]) == [2] * 4
    b = out[out["conv_id"] == "b"]  # short conv: all kept, overlap → head
    assert list(b["turn_idx"]) == [0, 1, 2]
    assert list(b["segment"]) == ["head", "head", "tail"]
    assert list(b["n_dropped"]) == [0] * 3
