"""harvester_ray — a Ray-Data-native inverted-index build + BM25 query engine.

Brand-new engine (not a port) with the query / data-processing capabilities of
surfedushare/harvester's Edusources search stack, re-expressed Ray-Data-first:

- ``harvester_ray.analyzer``   — versioned text normalization + tokenizer
  (mirrors harvester/files/models/datatypes/file.py:181-185 truncation,
  harvester/core/analysis/text.py:48-50 tokenization semantics).
- ``harvester_ray.index``      — document-partitioned segment index build
  (Ray Data segment-build tasks, varbyte + delta-gap postings, block skip
  metadata), versioned manifests with atomic current-pointer promotion
  (the analog of DatasetVersion + alias flip,
  harvester/search/models/index.py:113-156), BM25 (k1=1.2, b=0.75) top-k
  query with one dense disjunctive scorer, and an independent brute-force
  oracle scorer.
- ``harvester_ray.ops``        — training-data-pipeline operators: exact and
  near dedup (MinHash-LSH, SimHash, n-gram Jaccard), embedding similarity
  search, text quality analysis, multimodal stubs.
- ``harvester_ray.pipelines``  — relational operator coverage (joins,
  aggregates, top-k, windows) and the flagship build+query pipelines.

NOTE: nothing in this package calls ``ray.init()``/``ray.shutdown()``; sessions
are owned by the driver, ``bench.py`` and the test fixture.
"""

__version__ = "0.1.0"
