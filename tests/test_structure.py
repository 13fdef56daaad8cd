"""Structural guards: query prep, the tombstone-aware segment walk and the
reader's decoded-data cache each live in one place, so per-surface copies
(which once analyzed every query as v1, whatever the index's analyzer) and
per-segment LRUs (bounded by entry count, not bytes) cannot grow back."""

import ast
import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "harvester_ray"

# Bag-of-terms surfaces get their terms from query.prepare_query; these
# places tokenize directly because they need order and duplicates (phrase,
# proximity, span and query-language parsing), describe raw v1 text (SQL
# oracles, the brute-force verification scorer) or analyze documents.
TOKENIZE_ALLOWED = {
    "analyzer.py": None,
    "index/oracle.py": None,
    "ops/percolate.py": None,
    "ops/tagging.py": None,
    "ops/decontam.py": None,
    "index/query.py": {
        "prepare_query", "brute_force_topk", "IndexReader.search_phrase",
        "IndexReader.search_proximity", "QueryService.search_phrase",
    },
    "index/extras.py": {
        "suggest_phrases", "search_match_phrase_prefix", "search_match_bool_prefix",
        "search_intervals", "search_query_string", "parse_query_string",
        "parse_boosted_query",
    },
}
# Tombstones are resolved per segment by the reader's segment walk and the
# serving actor; build-side modules read them to rewrite or verify segments.
TOMBSTONES_ALLOWED = {
    "index/query.py": {"IndexReader.segments", "QuerySegmentActor.__init__"},
    "index/compact.py": None,
    "index/diff.py": None,
    "index/fsck.py": None,
    "index/readback.py": None,
}

# The reader's one byte-bounded cache; readback.CachedReader's public
# ``capacity=`` is an entry count, so it keeps its own LRU.
LRU_ALLOWED = {
    "index/query.py": {"SegmentCache"},
    "index/readback.py": {"CachedReader"},
}


def _calls(name: str):
    """(module path, enclosing function qualname) of every call to ``name``."""
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        scope: list[str] = []

        def visit(node):
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if named:
                scope.append(node.name)
            if isinstance(node, ast.Call):
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if called == name:
                    yield rel, ".".join(scope)
            for child in ast.iter_child_nodes(node):
                yield from visit(child)
            if named:
                scope.pop()

        yield from visit(ast.parse(path.read_text(), rel))


def _allowed(rules: dict, rel: str, qualname: str) -> bool:
    if rel not in rules:
        return False
    names = rules[rel]
    parts = qualname.split(".")
    # a method is named Class.method; nested helpers inherit their owner
    return names is None or parts[0] in names or ".".join(parts[:2]) in names


def test_tokenize_query_only_in_prepare_and_positional_surfaces():
    stray = [
        (rel, q) for rel, q in _calls("tokenize_query")
        if not (q.split(".")[0].endswith("_sql") or _allowed(TOKENIZE_ALLOWED, rel, q))
    ]
    assert not stray, f"tokenize_query outside prepare(): {stray}"


def test_tombstones_only_in_the_segment_walk():
    stray = [
        (rel, q) for rel, q in _calls("tombstones_for_segment")
        if not _allowed(TOMBSTONES_ALLOWED, rel, q)
    ]
    assert not stray, f"tombstones_for_segment outside the segment walk: {stray}"


@pytest.mark.parametrize("name", ["OrderedDict", "popitem"])
def test_lru_only_in_the_reader_cache(name):
    stray = [
        (rel, q) for rel, q in _calls(name)
        if rel.startswith("index/") and not _allowed(LRU_ALLOWED, rel, q)
    ]
    assert not stray, f"hand-rolled LRU outside query.SegmentCache: {stray}"


def test_guard_sees_the_allowed_calls():
    """The walker finds the calls it is meant to police (no vacuous pass)."""
    assert ("index/query.py", "prepare_query") in set(_calls("tokenize_query"))
    assert ("index/query.py", "IndexReader.segments") in set(_calls("tombstones_for_segment"))
    assert ("index/query.py", "SegmentCache.__init__") in set(_calls("OrderedDict"))
    assert ("index/query.py", "SegmentCache.get") in set(_calls("popitem"))
