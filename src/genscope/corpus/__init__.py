"""Corpus ingestion, query parsing, and group partitioning."""

from .groups import (
    BUCKETS,
    GROUPS,
    GroupLexicon,
    compile_terms,
    lang_matches,
    load_group_lexicon,
    match_groups,
    partition,
)
from .query import DIRECTIVES, Directive, QueryAst, load_query, parse_query
from .records import (
    IngestReport,
    PartRecords,
    Tweet,
    ingest,
    jsonl_writer,
    read_jsonl,
    read_part,
)

__all__ = [
    "BUCKETS",
    "GROUPS",
    "GroupLexicon",
    "compile_terms",
    "lang_matches",
    "load_group_lexicon",
    "match_groups",
    "partition",
    "DIRECTIVES",
    "Directive",
    "QueryAst",
    "load_query",
    "parse_query",
    "IngestReport",
    "PartRecords",
    "Tweet",
    "ingest",
    "jsonl_writer",
    "read_jsonl",
    "read_part",
]
