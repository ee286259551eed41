"""Report serialization: JSON, markdown or CSV tables, histogram files.

Output is byte-deterministic for a given report dictionary: keys are
sorted, floats use repr, and nothing volatile (clocks, hostnames) is
written.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .corpus import GROUPS
from .errors import InputError

# the top-level blocks of report.json; each is a JSON object that
# render_markdown reads
REPORT_BLOCKS = (
    "provenance", "ingest", "partition", "descriptives", "h1", "h2", "h3", "h4", "h5",
)


def _fmt(value, digits=6) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _flatten(node, prefix="", rows=None):
    rows = rows if rows is not None else []
    if isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            _flatten(item, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, node))
    return rows


def render_csv(report: dict) -> str:
    """Flattened dotted-path,value rows with RFC-4180 quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(report):
        writer.writerow([key, repr(value) if isinstance(value, float) else value])
    return buf.getvalue()


def _chi2_line(block: dict) -> str:
    parts = [f"chi2({block['df']}) = {_fmt(block['chi2'])}", f"p = {_fmt(block['p'])}"]
    if "phi" in block:
        parts.append(f"phi = {_fmt(block['phi'])}")
    if "cramers_v" in block:
        parts.append(f"V = {_fmt(block['cramers_v'])}")
    if block.get("low_expected_warning"):
        parts.append("low-expected-count warning")
    return ", ".join(parts)


def _or_line(block: dict) -> str:
    return (
        f"OR = {_fmt(block['odds_ratio'])}, "
        f"95% CI [{_fmt(block['ci_low'])}, {_fmt(block['ci_high'])}]"
    )


def _mw_lines(name: str, res: dict) -> list[str]:
    if "skipped" in res:
        return [f"- {name}: skipped ({res['skipped']})"]
    if res.get("degenerate"):
        return [f"- {name}: degenerate (all values tied)"]
    return [
        f"- {name}: U = {_fmt(res['u1'])}, z = {_fmt(res['z'])}, "
        f"p = {_fmt(res['p'])}, r = {_fmt(res['r'])} "
        f"(n = {res['n1']}/{res['n2']}, mean ranks "
        f"{_fmt(res['mean_rank_a'])}/{_fmt(res['mean_rank_b'])})"
    ]


def _kw_lines(name: str, res: dict) -> list[str]:
    if "skipped" in res:
        return [f"- {name}: skipped ({res['skipped']})"]
    if res.get("degenerate"):
        return [f"- {name}: degenerate (all values tied)"]
    lines = [
        f"- {name}: H({res['df']}) = {_fmt(res['h'])}, p = {_fmt(res['p'])}, "
        f"eps2 = {_fmt(res['epsilon2'])} "
        f"(group sizes {res['group_sizes']}, mean ranks "
        f"{[round(m, 3) for m in res['mean_ranks']]})"
    ]
    posthoc = res.get("posthoc")
    if posthoc:
        groups = res.get("groups", list(GROUPS))
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                lines.append(
                    f"  - post-hoc {groups[i]} vs {groups[j]}: "
                    f"z = {_fmt(posthoc['z'][i][j])}, "
                    f"p({posthoc['adjustment']}) = {_fmt(posthoc['p'][i][j])}"
                )
    return lines


def render_markdown(report: dict) -> str:
    out: list[str] = ["# Corpus analysis report", ""]

    prov = report.get("provenance", {})
    out.append("## Provenance")
    for key in sorted(prov):
        out.append(f"- {key}: {prov[key]}")
    ing = report.get("ingest", {})
    parts = report.get("partition", {})
    out.append(f"- ingest: accepted {ing.get('accepted')}, rejected {ing.get('rejected')}")
    out.append(f"- partition: {json.dumps(parts, sort_keys=True)}")
    out.append("")

    d = report.get("descriptives", {})
    out += ["## Descriptives", ""]
    out.append(f"Analyzed single-group tweets: {d.get('analyzed_tweets')}")
    out.append(f"Generic tweets: {d.get('generic_count')}")
    out += ["", "| group | tweets | % of analyzed |", "| --- | ---: | ---: |"]
    for g in GROUPS:
        out.append(
            f"| {g} | {d['group_counts'][g]} | {_fmt(d['group_percent'][g], 4)} |"
        )
    out += ["", "| sentiment | tweets | % of analyzed |", "| --- | ---: | ---: |"]
    for v in ("negative", "neutral", "positive"):
        out.append(
            f"| {v} | {d['sentiment_counts'][v]} | {_fmt(d['sentiment_percent'][v], 4)} |"
        )
    out.append("")
    out.append("Median genericity scores (all / generic-only):")
    for g in GROUPS:
        med = d["score_medians"][g]
        out.append(f"- {g}: {_fmt(med['all']) if med['all'] is not None else 'n/a'}"
                   f" / {_fmt(med['generic']) if med['generic'] is not None else 'n/a'}")
    out.append("")

    h1 = report.get("h1", {})
    out.append("## H1: generic vs non-generic prevalence")
    if "skipped" in h1:
        out.append(f"skipped ({h1['skipped']})")
    else:
        out.append(
            f"counts: generic = {h1['counts']['generic']}, "
            f"non-generic = {h1['counts']['non_generic']}"
        )
        out.append(_chi2_line(h1["test"]))
    out.append("")

    h2 = report.get("h2", {})
    out.append("## H2: engagement by genericity (Mann-Whitney)")
    if "skipped" in h2:
        out.append(f"skipped ({h2['skipped']})")
    else:
        for metric in ("likes", "retweets"):
            out += _mw_lines(metric, h2[metric])
    out.append("")

    h3 = report.get("h3", {})
    out.append("## H3: generic use by group")
    if h3:
        out += ["| group | generic | non-generic | % within group | % of all generics |",
                "| --- | ---: | ---: | ---: | ---: |"]
        for g in GROUPS:
            c = h3["group_generic_counts"][g]
            out.append(
                f"| {g} | {c['generic']} | {c['non_generic']} | "
                f"{_fmt(h3['generic_proportion_within_group'][g], 4)} | "
                f"{_fmt(h3['generic_share_of_total'][g], 4)} |"
            )
        for name in ("political_vs_gender", "political_vs_ethnic"):
            block = h3.get(name, {})
            if "skipped" in block:
                out.append(f"- {name}: skipped ({block['skipped']})")
            else:
                out.append(f"- {name}: {_chi2_line(block['chi_square'])}; "
                           f"{_or_line(block['odds_ratio'])}")
    out.append("")

    h4 = report.get("h4", {})
    out.append("## H4: sentiment across groups (generic tweets)")
    if "skipped" in h4:
        out.append(f"skipped ({h4['skipped']})")
    else:
        table = h4["sentiment_by_group"]
        cells = table["cells"]
        out += ["", "| sentiment | " + " | ".join(table["columns"]) + " | total |",
                "| --- | " + " | ".join("---:" for _ in table["columns"]) + " | ---: |"]
        col_totals = [0] * len(table["columns"])
        for label, row in zip(table["rows"], cells):
            out.append(
                f"| {label} | " + " | ".join(str(v) for v in row)
                + f" | {sum(row)} |"
            )
            col_totals = [a + b for a, b in zip(col_totals, row)]
        out.append("| total | " + " | ".join(str(v) for v in col_totals)
                   + f" | {sum(col_totals)} |")
        out.append("")
        omni = h4.get("omnibus", {})
        if "skipped" in omni:
            out.append(f"- omnibus: skipped ({omni['skipped']})")
        else:
            out.append(f"- omnibus: {_chi2_line(omni)}")
        for name in ("political_vs_gender", "political_vs_ethnic", "gender_vs_ethnic"):
            block = h4.get(name, {})
            if not block:
                continue
            if "skipped" in block:
                out.append(f"- negative-vs-rest {name}: skipped ({block['skipped']})")
            else:
                out.append(f"- negative-vs-rest {name}: "
                           f"{_chi2_line(block['chi_square'])}; "
                           f"{_or_line(block['odds_ratio'])}")
    out.append("")

    h5 = report.get("h5", {})
    out.append("## H5: engagement across groups (Kruskal-Wallis)")
    for subset in ("generic", "generic_negative"):
        sub = h5.get(subset, {})
        out.append(f"### {subset.replace('_', ' ')}")
        if "skipped" in sub:
            out.append(f"skipped ({sub['skipped']})")
        else:
            for metric in ("likes", "retweets"):
                out += _kw_lines(metric, sub[metric])
        out.append("")

    return "\n".join(out) + "\n"


def _render_files(report: dict, fmt: str) -> dict[str, bytes]:
    """File name -> bytes of every file ``emit_report`` writes."""
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    files = {"report.json": text}
    if fmt == "markdown":
        files["report.md"] = render_markdown(report)
    else:
        files["report.csv"] = render_csv(report)
    hists = report.get("descriptives", {}).get("score_histograms", {})
    for name in sorted(hists):
        file_name = f"genericity_hist_{name}.csv"
        if Path(name).name != name or "\0" in name or len(file_name.encode("utf-8")) > 255:
            raise ValueError(f"histogram name {name!r} is not a plain file name part")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["bin_left", "count"])
        for left, count in hists[name]:
            writer.writerow([repr(float(left)), count])
        files[file_name] = buf.getvalue()
    return {file: text.encode("utf-8") for file, text in files.items()}


def emit_report(report: dict, fmt: str, out_dir) -> list[Path]:
    """Write report.json, the table file, and histogram data files.

    Every file is rendered before the first one is written, so a report
    that cannot be rendered leaves ``out_dir`` untouched.
    """
    if fmt not in ("markdown", "csv"):
        raise InputError("format must be 'markdown' or 'csv'")
    files = _render_files(report, fmt)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory: {exc}") from exc
    for name, data in files.items():
        (out / name).write_bytes(data)
    return [out / name for name in files]
