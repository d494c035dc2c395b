"""Corpus-scale Ray Data operators: text features and quality signals,
exact / MinHash-LSH dedup, the persisted recrawl LSH index, and the
join, aggregation and search operators the ``__ray_entry__`` queries
use.

Import the submodule you need (``from pdf_extractor_ray.functions.dedup
import ...``); this package re-exports nothing, so loading one module
does not load every family.
"""
