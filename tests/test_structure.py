"""Structural guards: query prep, the live-docs masks tombstones resolve
into, the reader's decoded-data cache, the service's actor dispatch and the query
surfaces each live in one place, so per-surface copies (which once analyzed
every query as v1, whatever the index's analyzer, and let the service drift
from the reader), per-segment LRUs (bounded by entry count, not bytes) and
per-surface RPC paths cannot grow back. The build and delta commits map
module-level functions, so no per-call actor pool grows back either. Every
disjunction is scored by one dense scorer, so no block-max pruned path (or
the per-block score metadata it read) grows back."""

import ast
import inspect
import pathlib
import re

import pyarrow.parquet as pq
import pytest
import ray.data as rd

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
# Tombstones resolve into a segment's live-docs mask (query.live_mask) once,
# where its (meta, segment, live_docs) triple is made: the reader's and the
# serving actor's. Build-side modules make masks to rewrite or read back
# segments (fsck walks the reader's triples).
LIVE_MASK_ALLOWED = {
    "index/query.py": {"IndexReader._open", "QuerySegmentActor.__init__"},
    "index/compact.py": None,
    "index/diff.py": None,
    "index/readback.py": None,
}
# names that hold a tombstone set; no set-membership test may take one
TOMBSTONE_NAMES = re.compile(r"tomb|dead|exclude", re.IGNORECASE)

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
        (rel, q) for rel, q in _calls("live_mask")
        if not _allowed(LIVE_MASK_ALLOWED, rel, q)
    ]
    assert not stray, f"live_mask outside the segment walk: {stray}"


def _isin_calls():
    """(module, qualname, names in the arguments) of every ``np.isin`` /
    ``np.in1d`` call under ``index/``."""
    for path in sorted((PKG / "index").rglob("*.py")):
        for node, qualname in _module_calls(path):
            if ast.unparse(node.func) in ("np.isin", "np.in1d", "numpy.isin"):
                names = {
                    n.id if isinstance(n, ast.Name) else n.attr
                    for arg in [*node.args, *(k.value for k in node.keywords)]
                    for n in ast.walk(arg) if isinstance(n, (ast.Name, ast.Attribute))
                }
                yield path.relative_to(PKG).as_posix(), qualname, names


def test_no_isin_takes_a_tombstone_set():
    """Dead docs drop by a gather on the live-docs mask, never by a
    membership test against tombstoned ids."""
    stray = [
        (rel, q, sorted(n for n in names if TOMBSTONE_NAMES.search(n)))
        for rel, q, names in _isin_calls()
        if any(TOMBSTONE_NAMES.search(n) for n in names)
    ]
    assert not stray, f"np.isin against tombstones: {stray}"


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


# The two index commits. A class UDF would make Ray Data start a new actor
# pool (worker processes and imports, 1.5–3 s) on every call.
COMMIT_MODULES = ("index/build.py", "index/incremental.py")


@pytest.mark.parametrize("rel", COMMIT_MODULES)
def test_commits_map_module_level_functions(rel):
    path = PKG / rel
    tree = ast.parse(path.read_text())
    functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    calls = [
        n for n, _ in _module_calls(path)
        if isinstance(n.func, ast.Attribute) and n.func.attr == "map_batches"
    ]
    assert calls
    for node in calls:
        fn = node.args[0] if node.args else next(k.value for k in node.keywords if k.arg == "fn")
        assert isinstance(fn, ast.Name) and fn.id in functions, ast.unparse(node)
        assert "fn_constructor_kwargs" not in {k.arg for k in node.keywords}, ast.unparse(node)


def test_delta_term_stats_run_no_dataset_pipeline():
    """The delta folds its term stats through the build's phase-2 fold, not
    a Dataset of its own."""
    src = (PKG / "index/incremental.py").read_text()
    assert "rd.range(" not in src and ".materialize()" not in src


def test_guard_sees_the_allowed_calls():
    """The walker finds the calls it is meant to police (no vacuous pass)."""
    assert ("index/query.py", "prepare_query") in set(_calls("tokenize_query"))
    assert ("index/query.py", "SearchSurfaces._spans") in set(_calls("tokenize_query"))
    assert ("index/query.py", "IndexReader._open") in set(_calls("live_mask"))
    assert ("index/query.py", "or_exhaustive") in {(r, q) for r, q, _ in _isin_calls()}
    assert ("index/query.py", "SegmentCache.__init__") in set(_calls("OrderedDict"))
    assert ("index/query.py", "SegmentCache.get") in set(_calls("popitem"))


# -- one disjunctive scorer ------------------------------------------------------

ALLOC = {"np.zeros", "np.empty", "np.ones", "np.full"}


def _dense_score_vectors():
    """(module, function) of every float array allocated over a segment's
    whole doc space (``….doc_ids.size``, or a name bound to it) under
    ``index/``."""
    for path in sorted((PKG / "index").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sizes = {
                t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                and "doc_ids.size" in ast.unparse(node.value)
                for t in node.targets if isinstance(t, ast.Name)
            }
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and ast.unparse(node.func) in ALLOC and node.args):
                    continue
                size = ast.unparse(node.args[0])
                if not ("doc_ids.size" in size or size in sizes):
                    continue
                dtype = [ast.unparse(k.value) for k in node.keywords if k.arg == "dtype"]
                dtype += [ast.unparse(a) for a in node.args[1 + (ast.unparse(node.func) == "np.full"):]]
                if not dtype or dtype[0] in ("np.float64", "float", "np.float32"):
                    yield path.relative_to(PKG).as_posix(), fn.name


def test_one_function_accumulates_dense_segment_scores():
    assert sorted(set(_dense_score_vectors())) == [("index/query.py", "or_exhaustive")]


def test_no_threshold_parameter_on_the_top_k_path():
    from harvester_ray.index import query

    for fn in (query.search_segment, query.topk_over):
        assert "threshold" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("name", ["block_max_union", "block_upper_bound", "OR_EXHAUSTIVE_THRESHOLD"])
def test_pruned_path_names_are_gone(name):
    stray = [
        p.relative_to(PKG).as_posix() for p in sorted(PKG.rglob("*.py"))
        if name in p.read_text()
    ]
    assert not stray, f"{name} in {stray}"


def test_build_and_compact_write_no_block_score_columns(tmp_path):
    from harvester_ray.index import build, compact, manifest as mf

    docs = [{"doc_id": i, "text": f"alpha beta gamma{i % 3} delta{i % 5}"} for i in range(400)]
    root = str(tmp_path / "idx")
    build.build_index(rd.from_items(docs).repartition(2), root, concurrency=1)

    def columns():
        man = mf.read_manifest(root)
        return [
            set(pq.read_schema(f"{root}/{m['path']}.terms.parquet").names)
            for m in man["segments"]
        ]

    built = columns()
    compact.compact(root, target_segments=1)
    for names in built + columns():
        assert "block_last_doc" in names
        assert not {"block_max_tf", "block_min_dl"} & names, names
