"""A fixed reference program that calibrates the host's speed.

    python3 perfbench/reference.py

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes. ``run.py`` runs this program, as a fresh process, next
to each timed operation and scales the operation's time by it (see
``run.py``). It does the same kind of work as genscope's hot paths: JSON
decoding, regex tokenizing, dict counting and sorting, in pure Python, with
no import of genscope or numpy. It never changes with the program under
test, so a change to genscope moves the operation's time but not this one.
"""

import json
import random
import re

WORD = re.compile(r"[a-z0-9#@']+")
TWEETS = 6_000
PASSES = 15


def corpus() -> list[str]:
    rng = random.Random(20240513)
    words = [f"w{i}" for i in range(4_000)]
    lines = []
    for i in range(TWEETS):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(6, 24)))
        lines.append(json.dumps({"id": str(i), "text": text, "like_count": rng.randint(0, 99),
                                 "is_retweet": rng.random() < 0.06}))
    return lines


def work(lines: list[str]) -> int:
    counts: dict[str, int] = {}
    kept = 0
    for line in lines:
        record = json.loads(line)
        if record["is_retweet"]:
            continue
        kept += 1
        for token in WORD.findall(record["text"].lower()):
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return kept + len(ranked)


def main() -> None:
    lines = corpus()
    print(sum(work(lines) for _ in range(PASSES)))


if __name__ == "__main__":
    main()
