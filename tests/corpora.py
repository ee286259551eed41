"""Writing the JSON Lines files that tests read: corpora, labeled texts."""

from genscope.corpus import jsonl_writer


def write_jsonl(records, path) -> None:
    """Write dicts to ``path`` as JSON Lines, through the writer the
    commands use, so each line has the key order their outputs have."""
    with jsonl_writer(path) as write:
        for record in records:
            write(record)
