"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py BASE.jsonl            # spread of one set of runs
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # verdict per workload and metric

Each file holds the JSON Lines that ``run.py --record FILE`` appends, one
per run. Runs are grouped by workload; a metric's figures are the median
and quartiles of its per-run values (``statistics.quantiles(n=4)``). A file
may hold several runs of one seed: every run counts, and seeds are paired by
their per-seed medians. ``reference_s`` is each run's median time of the
reference program, which measures how fast the host was.

With two files, every end-to-end metric of every workload gets one verdict
against the bound in ``BENCHMARK.json``:

* ``unresolved``: for a time or a rate, the host's speed
  (``reference_s``) moved between the files by more than the bound, so
  the calibration is not trusted; or either side's spread (quartile distance / median) is
  wider than the bound, unless every NEW run beats, or loses to, every
  BASE run;
* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``better``: NEW's median is better by more than BASE's own spread, and
  NEW wins at least nine in ten of the seeds both files ran (files with
  no seed in common read unresolved there);
* ``unchanged``: otherwise.

Per-layer metrics (traced runs) are printed with their medians and no
verdict. The last column lists whether the program's output (``report.json``
or the model file) was byte-identical across the runs of each seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
REFERENCE = "reference_s"
TIMED_UNITS = ("s", "1/s")  # units of the calibrated metrics


def load(path: str) -> dict:
    """{(workload, trace): {metric: {seed: [value per run]}}} plus output
    digests. A file may hold several runs of one seed; each is kept."""
    runs: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    digests: dict = defaultdict(lambda: defaultdict(set))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, metric in rec["metrics"].items():
                runs[key][name][rec["seed"]].append(metric["value"])
            if rec["samples"].get("reference_s"):
                runs[key][REFERENCE][rec["seed"]].append(
                    statistics.median(rec["samples"]["reference_s"]))
            digests[rec["workload"]][rec["seed"]].add(rec["output_sha256"])
            if not rec["correct"] or rec["failed"]:
                print(f"{path}: {rec['workload']} seed {rec['seed']}: "
                      f"{rec['failed']} of {rec['attempted']} operations failed")
    return {"runs": runs, "digests": digests}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def flat(per_seed: dict) -> list[float]:
    return [v for values in per_seed.values() for v in values]


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """One verdict for a metric given as {seed: [value per run]} per side."""
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    a, b = flat(base), flat(new)
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    if max(spread(a), spread(b)) > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / abs(med_a)
    if change > bound:
        return "worse"
    paired = [s for s in base if s in new]
    wins = sum(
        sign * statistics.median(new[s]) < sign * statistics.median(base[s]) for s in paired
    )
    if -change > spread(a):
        if not paired:
            return "unresolved"  # a gain needs paired seeds
        if wins >= 0.9 * len(paired):
            return "better"
    return "unchanged"


def fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units[REFERENCE] = "s"
    files = [load(path) for path in argv]
    keys = sorted(set().union(*(f["runs"] for f in files)))
    for workload, trace in keys:
        print(f"\n== {workload} ({'traced' if trace else 'timed'} runs)")
        sides = [f["runs"].get((workload, trace), {}) for f in files]
        host_moved = 0.0
        if len(files) == 2 and all(REFERENCE in side for side in sides):
            a, b = (statistics.median(flat(side[REFERENCE])) for side in sides)
            host_moved = abs(b / a - 1.0)
        for name in sorted(set().union(*sides)):
            cols = [
                fmt(flat(side[name])) + f" n={len(flat(side[name]))}"
                if name in side else f"{'-':>12s}"
                for side in sides
            ]
            line = f"{name:38s} {units.get(name, ''):10s} " + "  ".join(cols)
            if name in bounds and all(name in side for side in sides):
                metric = bounds[name]
                if len(files) == 1:
                    s = spread(flat(sides[0][name]))
                    status = "within bound" if s <= metric["bound"] else "WIDER THAN BOUND"
                    line += f"  spread {s:.3f} / bound {metric['bound']} {status}"
                elif metric["unit"] in TIMED_UNITS and host_moved > metric["bound"]:
                    line += f"  unresolved (host speed moved {host_moved:.0%})"
                else:
                    line += "  " + verdict(sides[0][name], sides[1][name],
                                           metric["better"], metric["bound"])
            print(line)
        seeds = set().union(*(f["digests"][workload] for f in files))
        same = sum(
            len(set().union(*(f["digests"][workload].get(s, set()) for f in files))) == 1
            for s in seeds
        )
        print(f"{'output byte-identical per seed':38s} {same} of {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
