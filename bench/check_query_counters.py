#!/usr/bin/env python3
"""Exact work-counter gate for bench_query.

Reads bench_query's output on stdin. Its table rows and counter columns
carry BENCH_matcher.json names, so each counter a Query* row of
BENCH_matcher.json records (record visits, cache misses, hits and
evictions) is compared with the table cell of the same row and column.
Any difference, or a cell missing from the output, prints the
mismatches and exits 1. Wall times are never compared.

    ./build/bench_query | python3 bench/check_query_counters.py
"""
import json
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_matcher.json"
COUNTERS = ("record_visits", "cache_misses", "cache_hits", "cache_evictions")


def measured(text):
    got = {}
    columns = None
    for line in text.splitlines():
        cells = line.split()
        if cells[:2] == ["Query", "ms"]:
            columns = cells
        elif columns and len(cells) == len(columns) and \
                cells[0].startswith("Query"):
            for column, value in zip(columns, cells):
                if column in COUNTERS:
                    got[(cells[0], column)] = int(value)
    return got


def expected():
    return {
        (row["name"], column): int(row[column])
        for row in json.loads(BASELINE.read_text())["benchmarks"]
        if row["name"].startswith("Query")
        for column in COUNTERS
        if column in row
    }


def main():
    want = expected()
    got = measured(sys.stdin.read())
    failed = [
        f"{name} {column}: expected {value}, got {got.get((name, column))}"
        for (name, column), value in want.items()
        if got.get((name, column)) != value
    ]
    for line in failed:
        print(f"MISMATCH {line}")
    if failed:
        print(f"query counters: {len(failed)} of {len(want)} differ "
              f"from {BASELINE.name}")
        return 1
    print(f"query counters: all {len(want)} match {BASELINE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
