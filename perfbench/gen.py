"""Seeded input files for the benchmark workloads.

Every generator here is a pure function of its arguments: the same seed
gives the same bytes. Corpora start from ``genscope.synth.generate_corpus``
and add the noise a real Twitter API dump has (directive metadata,
malformed lines, duplicate ids, URLs, mentions, hashtags and emoji), so
ingest and the default query's directive filters have real work to do.
Labeled texts start from ``generate_training_texts`` and get Zipf-distributed
filler words, so the bag-of-words vocabulary has several thousand entries.

    python3 perfbench/gen.py --workload analyze-model --seed 1 --dir DIR

writes one workload's input files into DIR. numpy and genscope are imported
inside the generators, so that importing this module for its file layout
keeps a process small: a child's ``ru_maxrss`` starts at its parent's
resident size.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

CORPUS, EXTERNAL, LABELED, HOLDOUT, MODEL = (
    "corpus.jsonl", "external.jsonl", "labeled.jsonl", "holdout.jsonl", "model.txt"
)
CORPUS_TWEETS = 20_000
TRAIN_TEXTS = 10_000
HOLDOUT_TEXTS = 2_000
MODEL_TEXTS = 8_000
EXTERNAL_SHARE = 0.85  # share of corpus ids with an external sentiment label

HASHTAGS = ["politics", "news", "debate", "election", "democrats", "justice", "usa"]
EMOJI = ["🤔", "😂", "🔥", "👏", "😡", "🙄", "💯"]
SENTIMENTS = ("negative", "neutral", "positive")

# Filler vocabulary for labeled texts: FILLER_POOL pseudo-words drawn with
# Zipf weights (exponent FILLER_ZIPF). With 2.5 fillers per text on average,
# 10k texts have a vocabulary of about 3.2k words at min_count 2.
FILLER_POOL = 12000
FILLER_ZIPF = 0.9


def _rng(seed: int, stream: int):
    """Independent seeded ``RandomState`` per input file, for any integer seed."""
    import numpy as np

    return np.random.RandomState([seed % 2**32, stream])


def _synth_seed(seed: int, stream: int) -> int:
    return int(_rng(seed, stream).randint(2**31))


def _malformed(rng, record: dict) -> str:
    """One line that ingest must reject, in one of several shapes."""
    kind = rng.randint(6)
    bad = dict(record)
    if kind == 0:
        line = json.dumps(bad, ensure_ascii=False)
        return line[: len(line) // 2]
    if kind == 1:
        del bad["text"]
    elif kind == 2:
        bad["like_count"] = str(bad["like_count"])
    elif kind == 3:
        bad["retweet_count"] = -1 - bad["retweet_count"]
    elif kind == 4:
        bad["id"] = ""
    else:
        del bad["lang"]
    return json.dumps(bad, ensure_ascii=False)


def corpus_lines(n: int, seed: int) -> list[str]:
    """JSON Lines for about ``n`` tweets plus about 2% malformed lines and
    about 1% duplicate ids."""
    from genscope.synth import generate_corpus

    rng = _rng(seed, 1)
    lines: list[str] = []
    ids: list[str] = []
    for record in generate_corpus(n, seed=_synth_seed(seed, 0)):
        text = record["text"]
        has_links = has_mentions = False
        roll = rng.rand()
        if roll < 0.05:
            text += f" https://t.co/{rng.randint(16**8):08x}"
            has_links = True
        elif roll < 0.09:
            text = f"@user{rng.randint(100000)} {text}"
            has_mentions = True
        elif roll < 0.19:
            text += " #" + HASHTAGS[rng.randint(len(HASHTAGS))]
        elif roll < 0.29:
            text += " " + EMOJI[rng.randint(len(EMOJI))]
        record.update(
            text=text,
            is_retweet=bool(rng.rand() < 0.06),
            is_reply=bool(rng.rand() < 0.05),
            is_nullcast=bool(rng.rand() < 0.005),
            has_links=has_links,
            has_mentions=has_mentions,
        )
        if rng.rand() < 0.02:
            lines.append(_malformed(rng, record))
        lines.append(json.dumps(record, ensure_ascii=False))
        ids.append(record["id"])
        if rng.rand() < 0.01:
            # The duplicate may follow a record that a directive rejects.
            dup = dict(record, id=ids[rng.randint(len(ids))])
            lines.append(json.dumps(dup, ensure_ascii=False))
    return lines


def external_labels(corpus: list[str], seed: int) -> list[str]:
    """Sentiment labels for about ``EXTERNAL_SHARE`` of the well-formed corpus ids."""
    rng = _rng(seed, 2)
    out, seen = [], set()
    for line in corpus:
        try:
            tweet_id = json.loads(line).get("id")
        except json.JSONDecodeError:
            continue
        if not tweet_id or tweet_id in seen:
            continue
        seen.add(tweet_id)
        if rng.rand() < EXTERNAL_SHARE:
            label = SENTIMENTS[rng.randint(3)]
            out.append(json.dumps({"id": tweet_id, "sentiment": label}))
    return out


def _filler_words() -> list[str]:
    letters = "bcdfghjklmnpqrstvwxz"
    words = []
    for i in range(FILLER_POOL):
        word, k = "", i
        for _ in range(3):
            word += letters[k % 20]
            k //= 20
        words.append("zu" + word + "a" * (k + 1))
    return words


def labeled_lines(n: int, seed: int, stream: int = 3) -> list[str]:
    """``n`` balanced labeled texts with one to four filler words each."""
    import numpy as np
    from genscope.synth import generate_training_texts

    texts, labels = generate_training_texts(n, seed=_synth_seed(seed, stream))
    rng = _rng(seed, stream + 100)
    words = _filler_words()
    weights = 1.0 / np.arange(1, FILLER_POOL + 1) ** FILLER_ZIPF
    weights /= weights.sum()
    sizes = rng.randint(1, 5, size=n)
    picks = rng.choice(FILLER_POOL, size=int(sizes.sum()), p=weights)
    ends = np.cumsum(sizes)
    out = []
    for text, label, end, size in zip(texts, labels, ends, sizes):
        filler = " ".join(words[i] for i in picks[end - size : end])
        out.append(json.dumps({"text": f"{text} {filler}", "label": label}))
    return out


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_inputs(workload: str, seed: int, where: Path) -> None:
    """Every input file of one workload, except the model that set-up trains."""
    if workload == "train":
        write_lines(where / LABELED, labeled_lines(TRAIN_TEXTS, seed))
        write_lines(where / HOLDOUT, labeled_lines(HOLDOUT_TEXTS, seed, stream=7))
        return
    corpus = corpus_lines(CORPUS_TWEETS, seed)
    write_lines(where / CORPUS, corpus)
    if workload == "analyze-model":
        write_lines(where / EXTERNAL, external_labels(corpus, seed))
        write_lines(where / LABELED, labeled_lines(MODEL_TEXTS, seed, stream=5))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's input files")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    args.dir.mkdir(parents=True, exist_ok=True)
    write_inputs(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
