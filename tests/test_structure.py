"""Structural guards: query prep, the tombstone-aware segment walk, the
reader's decoded-data cache, the service's actor dispatch and the query
surfaces each live in one place, so per-surface copies (which once analyzed
every query as v1, whatever the index's analyzer, and let the service drift
from the reader), per-segment LRUs (bounded by entry count, not bytes) and
per-surface RPC paths cannot grow back."""

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
        "prepare_query", "brute_force_topk", "SearchSurfaces._spans",
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

# QueryService reaches its actors through one compiled graph: the actors are
# created and bound into it in __init__, every surface runs it in _fanout,
# and shutdown releases it.
DISPATCH_ALLOWED = {"QueryService.__init__", "QueryService._fanout", "QueryService.shutdown"}

# Every query surface is written once, on query.SearchSurfaces; the service
# supplies its backend (the pool, the fan-out, its lifecycle and stats) and
# the async-search state, and inherits the rest.
SERVICE_DEFINES = {
    "__init__", "_pool", "_fanout", "shutdown", "actor_stats",
    "submit", "status", "get", "delete", "cancel", "_async_state",
}

# The reader's one byte-bounded cache; readback.CachedReader's public
# ``capacity=`` is an entry count, so it keeps its own LRU.
LRU_ALLOWED = {
    "index/query.py": {"SegmentCache"},
    "index/readback.py": {"CachedReader"},
}


def _module_calls(path: pathlib.Path):
    """(call node, enclosing function qualname) of every call in one module."""
    rel = path.relative_to(PKG).as_posix()
    scope: list[str] = []

    def visit(node):
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if named:
            scope.append(node.name)
        if isinstance(node, ast.Call):
            yield node, ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if named:
            scope.pop()

    yield from visit(ast.parse(path.read_text(), rel))


def _calls(name: str):
    """(module path, enclosing function qualname) of every call to ``name``."""
    for path in sorted(PKG.rglob("*.py")):
        for node, qualname in _module_calls(path):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                yield path.relative_to(PKG).as_posix(), qualname


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


def test_query_service_dispatches_only_through_its_graph():
    """No second dispatch path next to the compiled graph: no per-surface
    ``.remote``/``ray.get``, no ``ray.wait``/``ray.cancel`` plumbing, and the
    actor is bound into the graph through ``run`` alone."""
    calls = [(ast.unparse(n.func), q) for n, q in _module_calls(PKG / "index/query.py")]
    stray = [
        (f, q) for f, q in calls
        if (f.endswith(".remote") or f == "ray.get") and q not in DISPATCH_ALLOWED
    ]
    assert not stray, f"Ray dispatch outside QueryService's graph: {stray}"
    assert not [c for c in calls if c[0] in ("ray.wait", "ray.cancel")]
    binds = [f for f, _ in calls if f.endswith(".bind")]
    assert binds and all(f.endswith(".run.bind") for f in binds), binds
    assert ("ray.get", "QueryService._fanout") in calls


def test_query_service_inherits_every_query_surface():
    tree = ast.parse((PKG / "index/query.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "QueryService"]
    defined = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(ast.unparse(t) for t in targets)
    assert defined <= SERVICE_DEFINES, f"QueryService defines {sorted(defined - SERVICE_DEFINES)}"
    assert [ast.unparse(b) for b in cls.bases] == ["SearchSurfaces"]


def test_guard_sees_the_allowed_calls():
    """The walker finds the calls it is meant to police (no vacuous pass)."""
    assert ("index/query.py", "prepare_query") in set(_calls("tokenize_query"))
    assert ("index/query.py", "SearchSurfaces._spans") in set(_calls("tokenize_query"))
    assert ("index/query.py", "IndexReader.segments") in set(_calls("tombstones_for_segment"))
    assert ("index/query.py", "SegmentCache.__init__") in set(_calls("OrderedDict"))
    assert ("index/query.py", "SegmentCache.get") in set(_calls("popitem"))
