import contextlib
import os

import numpy as np
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def killing_build_segment():
    """``killing_build_segment(flag)``: a context manager that patches
    ``build.build_segment`` (the builders look it up at call time) so that
    exactly one builder task, on one batch, leaves partial files in its
    segment dir and hard-exits its worker process; ``flag`` records that it
    fired. One file is its own segment's ``.bin.tmp``, which the retried
    task rewrites; the other belongs to no segment a retry writes, like the
    leftovers of an aborted attempt with another batch split. The
    replacement is a closure, so it ships to the task workers by value."""
    from harvester_ray.index import build

    @contextlib.contextmanager
    def patch(flag: str):
        orig = build.build_segment

        def kill_once(batch, **kw):
            try:
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return orig(batch, **kw)
            ids = np.asarray(batch["doc_id"].combine_chunks().cast("int64"))
            name = f"seg-{ids.min():012d}-{ids.max():012d}"
            for stem in (name, "seg-aborted"):
                with open(os.path.join(kw["seg_dir"], stem + ".bin.tmp"), "wb") as f:
                    f.write(b"partial garbage")
            os._exit(1)

        build.build_segment = kill_once
        try:
            yield
        finally:
            build.build_segment = orig

    return patch


@pytest.fixture
def killing_merge_segments():
    """``killing_merge_segments(flag)``: a context manager that patches
    ``compact.merge_segments`` (both compactions look it up at call time)
    so that exactly one merge task leaves partial ``.tmp`` files in the new
    version's segment dir and hard-exits its worker process; ``flag``
    records that it fired. One file is named after the group's first
    source segment, the other after no segment at all. The replacement is
    a closure, so it ships to the task workers by value."""
    from harvester_ray.index import compact

    @contextlib.contextmanager
    def patch(flag: str):
        orig = compact.merge_segments

        def kill_once(index_root, seg_metas, tomb_ids, tomb_vers, out_dir):
            try:
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return orig(index_root, seg_metas, tomb_ids, tomb_vers, out_dir)
            for stem in (seg_metas[0]["name"], "seg-aborted"):
                for ext in (".bin.tmp", ".docs.parquet.tmp"):
                    with open(os.path.join(out_dir, stem + ext), "wb") as f:
                        f.write(b"partial garbage")
            os._exit(1)

        compact.merge_segments = kill_once
        try:
            yield
        finally:
            compact.merge_segments = orig

    return patch
