"""Code-only line counts per Python file under a package directory, at a
git ref against the worktree.

A code-only line holds at least one token that is neither a comment nor
part of a docstring (the first string statement of a module, class or
function); blank lines never count. Prints one row per file whose count
differs (``--all``: every file), then the total:

    python scripts/loc.py [REF] [--path harvester_ray] [--all]

REF defaults to ``HEAD``. Run from the repository root.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import subprocess
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """The number of code-only lines of one Python source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def counts_at(ref: str, path: str) -> dict[str, int]:
    """Code-only lines per ``.py`` file under ``path`` at git ``ref``."""
    files = [f for f in _git("ls-tree", "-r", "--name-only", ref, "--", path).split() if f.endswith(".py")]
    return {f: code_lines(_git("show", f"{ref}:{f}")) for f in files}


def counts_in_worktree(path: str) -> dict[str, int]:
    """Code-only lines per ``.py`` file under ``path`` in the worktree."""
    return {p.as_posix(): code_lines(p.read_text()) for p in sorted(pathlib.Path(path).rglob("*.py"))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", nargs="?", default="HEAD")
    ap.add_argument("--path", default="harvester_ray")
    ap.add_argument("--all", action="store_true", help="also list files whose count is unchanged")
    args = ap.parse_args()
    before, after = counts_at(args.ref, args.path), counts_in_worktree(args.path)
    print(f"{'file':<48} {args.ref[:12]:>12} {'worktree':>9} {'delta':>7}")
    for f in sorted(set(before) | set(after)):
        a, b = before.get(f, 0), after.get(f, 0)
        if a != b or args.all:
            print(f"{f:<48} {a:>12,} {b:>9,} {b - a:>+7,}")
    a, b = sum(before.values()), sum(after.values())
    print(f"{'total':<48} {a:>12,} {b:>9,} {b - a:>+7,}")


if __name__ == "__main__":
    main()
