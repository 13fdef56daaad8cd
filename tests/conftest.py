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
