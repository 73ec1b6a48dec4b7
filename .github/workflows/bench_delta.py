#!/usr/bin/env python3
"""Render a compact baseline-vs-run delta table for the CI step summary.

Usage: bench_delta.py BASELINE.json RUN.json

Matches rows on (query, plan, scale) and prints one GitHub-markdown line
per plan: row count, mean io_time / total_time delta, and the worst
single-row total_time delta with the row that produced it. Purely
informational — the hard gate is bench --compare.
"""

import json
import sys
from collections import defaultdict


def rows_by_key(doc):
    return {(r["query"], r["plan"], round(float(r["scale"]), 3)): r for r in doc.get("rows", [])}


def pct(new, old):
    if old <= 0.0:
        return 0.0
    return 100.0 * (new - old) / old


def main():
    base_file, run_file = sys.argv[1], sys.argv[2]
    with open(base_file) as f:
        base = json.load(f)
    with open(run_file) as f:
        run = json.load(f)

    base_rows, run_rows = rows_by_key(base), rows_by_key(run)
    matched = sorted(set(base_rows) & set(run_rows))

    print("### Bench: run vs committed baseline")
    print()
    print(
        f"Baseline schema `{base.get('schema', '?')}`, run schema `{run.get('schema', '?')}`, "
        f"{len(matched)} matched rows "
        f"({len(run_rows) - len(matched)} new, {len(base_rows) - len(matched)} dropped)."
    )
    print()
    print("| plan | rows | mean io Δ | mean total Δ | worst total Δ |")
    print("|---|---|---|---|---|")

    by_plan = defaultdict(list)
    for key in matched:
        by_plan[key[1]].append(key)
    for plan in sorted(by_plan):
        keys = by_plan[plan]
        io_deltas = [pct(run_rows[k]["io_time"], base_rows[k]["io_time"]) for k in keys]
        tot_deltas = [pct(run_rows[k]["total_time"], base_rows[k]["total_time"]) for k in keys]
        worst = max(zip(tot_deltas, keys), key=lambda kv: kv[0])
        print(
            f"| {plan} | {len(keys)} | {sum(io_deltas) / len(keys):+.1f}% "
            f"| {sum(tot_deltas) / len(keys):+.1f}% "
            f"| {worst[0]:+.1f}% ({worst[1][0]} @ sf {worst[1][2]}) |"
        )


if __name__ == "__main__":
    main()
