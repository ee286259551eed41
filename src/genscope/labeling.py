"""Interactive terminal labeling with rule-annotator suggestions.

Each prompt shows the tweet and the annotator's suggested verdict; one
keystroke accepts or overrides. Output lines append as they are decided,
so an interrupted session leaves a valid partial file, and rerunning
skips ids that are already labeled.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .annotator import RuleAnnotator
from .errors import naming_decode_errors

PROMPT = "[enter]=accept suggestion  g=generic  n=non-generic  s=skip  q=quit > "


@dataclass
class LabelSessionResult:
    labeled: int
    skipped: int
    resumed: int
    path: Path


def _existing_ids(path: Path) -> set[str]:
    ids: set[str] = set()
    if not path.exists():
        return ids
    with naming_decode_errors(path):
        text = path.read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:  # a torn trailing line from a crash, or an integer of over 4300 digits
            continue
        if isinstance(obj, dict) and isinstance(obj.get("id"), str):
            ids.add(obj["id"])
    return ids


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
    existing = _existing_ids(path)

    labeled = skipped = resumed = 0
    with open(path, "a", encoding="utf-8", newline="\n") as sink:
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
            sink.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
            sink.flush()
            labeled += 1
    return LabelSessionResult(labeled=labeled, skipped=skipped, resumed=resumed, path=path)
