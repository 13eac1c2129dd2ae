#!/usr/bin/env python3
"""Checks that stdin holds only CSV tables, as a bench binary prints them
under --csv: one or more RFC 4180 tables separated by blank lines, each a
header plus at least one record, every record with the header's field
count. A banner line ahead of the CSV reads as a header with no records.

Usage: bench_scenario --smoke --csv | python3 tests/csv_tables.py
"""
import csv
import io
import sys


def main() -> int:
    tables = [t for t in sys.stdin.read().split("\n\n") if t.strip()]
    if not tables:
        print("no CSV table on stdin")
        return 1
    for n, text in enumerate(tables, 1):
        try:
            rows = list(csv.reader(io.StringIO(text), strict=True))
        except csv.Error as e:
            print(f"table {n}: {e}")
            return 1
        if len(rows) < 2:
            print(f"table {n}: a header with no records: {rows}")
            return 1
        for row in rows[1:]:
            if len(row) != len(rows[0]):
                print(f"table {n}: {len(row)} fields under a "
                      f"{len(rows[0])}-field header: {row}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
