"""Tests for the benchmark's own helpers: the tail rule, generator
determinism, self-time arithmetic and the deadline guard.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time

import numpy as np
import pyarrow as pa
import pytest

from perfbench import gen, run
from perfbench.stats import (
    Span, Tracer, percentile, self_time_by_layer, self_times, supports, tail_at, tail_percentile,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ---- tail rule ---------------------------------------------------------------

def test_tail_needs_ten_samples_beyond():
    assert supports(1000, 99) and not supports(999, 99)
    assert supports(200, 95) and not supports(199, 95)
    assert tail_percentile(1000) == 99
    assert tail_percentile(999) == 95
    assert tail_percentile(250) == 95
    assert tail_percentile(100) == 90
    assert tail_percentile(10_000) == 99.9
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_tail_at_refuses_unsupported_percentile():
    xs = list(range(1, 1001))
    assert tail_at(xs, 99) == 990  # nearest rank: 990 of 1000 at or below
    assert tail_at(xs[::-1], 99) == 990  # order does not matter
    with pytest.raises(ValueError, match="p99 needs 1000 samples"):
        tail_at(xs[:999], 99)


def test_percentile_nearest_rank():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile([5, 1, 3, 2, 4], 100) == 5
    assert percentile([7], 99) == 7


# ---- generator determinism ------------------------------------------------------

TERMS = [f"t{i:05d}" for i in range(3000)]
TEXTS = [" ".join(f"w{(i * 7 + j * 13) % 97}" for j in range(5 + i % 11)) for i in range(400)]


def _delta(seed):
    ids = np.arange(1000, 1400, dtype=np.int64)
    return gen.delta_rows(ids, pa.array(TEXTS), seed)


@pytest.mark.parametrize("make", [
    lambda s: gen.hot_mix(TERMS, s),
    lambda s: gen.zipf_mix(TERMS, 500, s),
    lambda s: gen.sampled_phrases(TEXTS, 50, s),
    lambda s: gen.sample_texts(pa.array(TEXTS), 50, s),
    lambda s: _delta(s).to_pydict(),
])
def test_generators_repeat_for_one_seed_and_differ_across_seeds(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_hot_phrases_are_deterministic():
    assert gen.hot_phrases(TEXTS) == gen.hot_phrases(list(TEXTS))
    assert len(gen.hot_phrases(TEXTS)) == 8


def test_mix_shapes():
    hot = gen.hot_mix(TERMS, 1)
    assert len(hot) == 17 and hot[0] == (TERMS[0], "and")
    z = gen.zipf_mix(TERMS, 2000, 1)
    assert all(1 <= len(q.split()) <= 3 for q, _ in z)
    assert 0.4 < sum(m == "and" for _, m in z) / len(z) < 0.6


def test_delta_shape_and_merge():
    ids = np.arange(1000, 1400, dtype=np.int64)
    d = _delta(3)
    states = d["state"].to_pylist()
    assert states.count("deleted") == 2 and states.count("active") == 4 + 8
    merged = gen.apply_delta(ids, pa.array(TEXTS), d)
    assert merged.num_rows == 400 - 2 + 8
    assert merged["doc_id"].to_pylist() == sorted(merged["doc_id"].to_pylist())
    dead = set(d["doc_id"].to_pylist()) - {
        i for i, s in zip(d["doc_id"].to_pylist(), states) if s == "active"}
    assert not dead & set(merged["doc_id"].to_pylist())


# ---- self time -------------------------------------------------------------------

def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span(0, None, "index.query", "search", 0.0, 10.0),
        Span(1, 0, "analyzer", "tokenize", 1.0, 3.0),
        Span(2, 0, "index.query", "df", 2.0, 5.0),  # overlaps span 1
        Span(3, 0, "index.query", "merge", 8.0, 12.0),  # runs past its parent
        Span(4, 2, "io", "read", 2.5, 4.5),  # grandchild: counts against span 2 only
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10 - (4 + 2))
    assert st[1] == pytest.approx(2)
    assert st[2] == pytest.approx(3 - 2)
    assert st[3] == pytest.approx(4)
    assert st[4] == pytest.approx(2)
    by_layer = self_time_by_layer(spans)
    assert by_layer["index.query"] == pytest.approx(4 + 1 + 4)
    assert sum(by_layer.values()) == pytest.approx(4 + 2 + 1 + 4 + 2)


def test_tracer_nests_and_wraps():
    tr = Tracer()
    inner = tr.wrap("analyzer", "f", lambda x: x + 1)
    with tr.span("index.query", "outer"):
        assert inner(1) == 2
        with tr.span("index.query", "mid"):
            inner(2)
    outer, f1, mid, f2 = tr.spans
    assert outer.parent is None and f1.parent == outer.sid
    assert mid.parent == outer.sid and f2.parent == mid.sid
    st = self_times(tr.spans)
    assert st[outer.sid] <= outer.duration
    assert tr.durations("analyzer", "f") == [f1.duration, f2.duration]


# ---- deadline guard ----------------------------------------------------------------

def _running(marker: str) -> bool:
    for cmdline in os.listdir("/proc"):
        try:
            with open(f"/proc/{cmdline}/cmdline", "rb") as f:
                if marker.encode() in f.read():
                    return True
        except OSError:
            continue
    return False


def test_deadline_kills_a_hung_run_and_reports_progress(tmp_path):
    logs = tmp_path / "r" / "session_x" / "logs" / "ray-data"
    logs.mkdir(parents=True)
    (logs / "ray-data.log").write_text(
        "2026 INFO streaming_executor.py:648 -- Operator MapBatches: 0 active, 8 queued\n")
    marker = "time.sleep(600.25)"
    t0 = time.monotonic()
    rc, detail = run.run_with_deadline(
        [sys.executable, "-c", "import time, subprocess, sys; "
         f"subprocess.Popen([sys.executable, '-c', 'import time; {marker}']); {marker}"],
        2.0, str(tmp_path / "r"))
    assert rc is None
    assert time.monotonic() - t0 < 2.0 + 15
    assert "deadline 2s passed" in detail and "8 queued" in detail
    assert not _running(marker)  # the grandchild went down with the group


NON_IMPORTABLE = textwrap.dedent("""
    import os, sys
    sys.path.insert(0, {hidden!r})  # visible to this process, not to the workers
    from perfbench import session
    import ray.data
    session.start({root!r}, {ray_dir!r}, 2)
    try:
        session.preflight("unimportable_udf", timeout_s=20)
    except Exception as e:
        print("preflight failed:", type(e).__name__, flush=True)
    from unimportable_udf import Udf
    ray.data.range(8, override_num_blocks=8).map_batches(Udf, concurrency=1).materialize()
    print("pipeline finished", flush=True)
""")


def test_non_importable_worker_becomes_a_failed_run_within_deadline(tmp_path):
    hidden = tmp_path / "hidden"
    hidden.mkdir()
    (hidden / "unimportable_udf.py").write_text(
        "class Udf:\n    def __call__(self, batch):\n        return batch\n")
    script = tmp_path / "child.py"
    ray_dir = tempfile.mkdtemp(prefix="pbt")  # short: Ray's socket paths must fit in 107 bytes
    script.write_text(NON_IMPORTABLE.format(hidden=str(hidden), ray_dir=ray_dir, root=ROOT))
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_USAGE_STATS_ENABLED="0")
    deadline = 45.0
    out = tmp_path / "out.txt"
    t0 = time.monotonic()
    with open(out, "w") as f:
        rc, detail = run.run_with_deadline(
            [sys.executable, str(script)], deadline, ray_dir,
            env=env, cwd=str(tmp_path), stdout=f)
    elapsed = time.monotonic() - t0
    shutil.rmtree(ray_dir, ignore_errors=True)
    text = out.read_text()
    assert "preflight failed" in text
    assert rc is None or rc != 0, detail  # never a successful run
    assert "pipeline finished" not in text
    assert elapsed < deadline + 25


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    t0 = time.monotonic()
    p = subprocess.run(spec["command"] + ["--workload", "hot", "--seed", "1", "--seconds", "1"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert "{" not in p.stdout
    assert time.monotonic() - t0 < 60
