"""``scripts/loc.py`` counts code-only lines: no blanks, comments or
docstrings, and a multi-line statement or string counts every line."""

import subprocess
import sys
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "loc.py"

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """Function docstring."""
    sql = """
    SELECT 1
    """
    return (x +
            1)


class C:
    """Class docstring."""

    y = 2
'''


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=root, check=True, capture_output=True,
    )


def test_loc_counts_code_only_lines_at_a_ref_and_in_the_worktree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(FIXTURE)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "fixture")
    # the worktree adds one code line and one comment
    (pkg / "m.py").write_text(FIXTURE + "z = 3\n# done\n")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "HEAD", "--path", "pkg"],
        cwd=tmp_path, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    # import, def, sql = """ … """ (3 lines), return (2 lines), class, y = 2
    assert out[1].split() == ["pkg/m.py", "9", "10", "+1"]
    assert out[-1].split() == ["total", "9", "10", "+1"]
