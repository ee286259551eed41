"""Corpus ingestion, query parsing, and group partitioning.

Each name in ``__all__`` imports its submodule when it is first read
(PEP 562), so a command that only reads records never loads the query
parser or the group partition.
"""

import importlib

# each re-export and the submodule that ``__getattr__`` imports it from
_EXPORTS = {
    "BUCKETS": "groups",
    "GROUPS": "groups",
    "GroupLexicon": "groups",
    "compile_terms": "groups",
    "lang_matches": "groups",
    "load_group_lexicon": "groups",
    "match_groups": "groups",
    "partition": "groups",
    "DIRECTIVES": "query",
    "Directive": "query",
    "QueryAst": "query",
    "load_query": "query",
    "parse_query": "query",
    "IngestReport": "records",
    "PartRecords": "records",
    "Tweet": "records",
    "ingest": "records",
    "jsonl_writer": "records",
    "read_jsonl": "records",
    "read_part": "records",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that ``name`` is re-exported from (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
