"""Interactive terminal labeling with rule-annotator suggestions.

Each prompt shows the tweet and the annotator's suggested verdict; one
keystroke accepts or overrides. Output lines append as they are decided,
so an interrupted session leaves a valid partial file, and rerunning
skips ids that are already labeled. Ctrl-C ends a session as ``q`` does.
"""

from __future__ import annotations

import codecs
import json
import sys
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

from .annotator import RuleAnnotator
from .corpus.records import parse_json_line
from .errors import not_utf8

PROMPT = "[enter]=accept suggestion  g=generic  n=non-generic  s=skip  q=quit > "


@dataclass
class LabelSessionResult:
    labeled: int
    skipped: int
    resumed: int
    path: Path


def _existing_ids(path: Path) -> tuple[set[str], bool]:
    """The ids already labeled in ``path``, and whether it ends in a torn
    line: one with no newline, left by a crash mid-write and skipped
    unread. A line cut inside a character is skipped too, as a torn line
    that a later session ended with a newline. Any other line that is not
    UTF-8 is an error naming it; one that is not a JSON object with a
    string id is skipped."""
    ids: set[str] = set()
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return ids, False
    *lines, torn = data.split(b"\n")
    for line_number, raw in enumerate(lines, start=1):
        try:
            # not final: bytes of a character cut short are left unused
            text, used = codecs.utf_8_decode(raw, "strict", False)
        except UnicodeDecodeError as exc:
            raise not_utf8(path, line_number, raw, exc) from None
        line = text.strip()
        if used < len(raw) or not line:
            continue
        try:
            obj = parse_json_line(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("id"), str):
            ids.add(obj["id"])
    return ids, bool(torn)


def label_session(
    tweets,
    output_path,
    annotator: RuleAnnotator | None = None,
    input_stream=None,
    output_stream=None,
) -> LabelSessionResult:
    annotator = annotator or RuleAnnotator()
    stdin = input_stream or sys.stdin
    stdout = output_stream or sys.stdout
    path = Path(output_path)
    existing, torn = _existing_ids(path)

    labeled = skipped = resumed = 0
    with open(path, "a", encoding="utf-8", newline="\n") as sink, suppress(KeyboardInterrupt):
        # Ctrl-C ends the session as q does; the lines written stay
        for tweet in tweets:
            if tweet.id in existing:
                resumed += 1
                continue
            verdict = annotator.annotate(tweet.text)
            suggestion = 1 if verdict.is_generic else 0
            detail = verdict.kind if verdict.is_generic else verdict.exclusion_reason
            stdout.write(
                f"\n[{tweet.id}] {tweet.text}\n"
                f"suggestion: {verdict.label} ({detail}; rule {verdict.matched_rule})\n"
                f"{PROMPT}"
            )
            stdout.flush()
            line = stdin.readline()
            if not line:  # EOF ends the session cleanly
                break
            choice = line.strip().lower()
            if choice == "q":
                break
            if choice == "s":
                skipped += 1
                continue
            if choice == "g":
                label = 1
            elif choice == "n":
                label = 0
            elif choice in ("", "y"):
                label = suggestion
            else:
                stdout.write(f"unrecognized key {choice!r}; skipping\n")
                skipped += 1
                continue
            record = {"id": tweet.id, "text": tweet.text, "label": label, "source": "human"}
            if torn:  # end the torn line, so this record starts a line of its own
                sink.write("\n")
                torn = False
            sink.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
            sink.flush()
            labeled += 1
    return LabelSessionResult(labeled=labeled, skipped=skipped, resumed=resumed, path=path)
