#!/usr/bin/env python3
"""Checks the paper's shape claims against the committed golden tables, so
a re-recorded golden cannot silently lose a shape the paper reports:

  fig4              page-blob upload beats block-blob upload (MiB/s) at
                    every worker count, and neither download's MiB/s falls
                    as workers grow;
  fig5              sequential block reads beat random page reads (MiB/s)
                    at every worker count;
  fig6              Peek < Put < Get ms/op at every message size, for every
                    worker count up to 80 (at 96 the peek phase reaches the
                    account's transaction target; see EXPERIMENTS.md);
  fig8              query < insert <= update at every entity size and worker
                    count, with no ServerBusy retry at any worker count;
  fig8_over_target  160 workers over the account target do retry ServerBusy
                    (the paper: 1,000 entities did not avoid exceptions).

Usage: python3 tests/paper_claims.py [GOLDEN_DIR]   (default: tests/golden)
Prints every failing row and exits 1 if there is one.
"""
import csv
import io
import os
import sys

FIG6_MAX_WORKERS = 80


def figure_rows(golden_dir, name):
    """The records of the first table (the figure; a cost table may follow
    after a blank line) in GOLDEN_DIR/NAME.csv."""
    with open(os.path.join(golden_dir, name + ".csv"), newline="") as f:
        first = f.read().split("\n\n", 1)[0]
    return list(csv.DictReader(io.StringIO(first)))


def by_workers(rows):
    return sorted(rows, key=lambda r: int(r["workers"]))


def check_fig4(rows):
    bad = []
    for r in rows:
        page, block = float(r["pageUp_MiBps"]), float(r["blockUp_MiBps"])
        if not page > block:
            bad.append(f"fig4 workers={r['workers']}: want pageUp_MiBps > "
                       f"blockUp_MiBps, got {page} / {block}")
    for col in ("pageDown_MiBps", "blockDown_MiBps"):
        prev = None
        for r in by_workers(rows):
            v = float(r[col])
            if prev is not None and v < prev[1]:
                bad.append(f"fig4 workers={r['workers']}: want {col} >= its "
                           f"value at workers={prev[0]}, got {v} < {prev[1]}")
            prev = (r["workers"], v)
    return bad


def check_fig5(rows):
    bad = []
    for r in rows:
        seq, rand = float(r["blockSeq_MiBps"]), float(r["pageRand_MiBps"])
        if not seq > rand:
            bad.append(f"fig5 workers={r['workers']}: want blockSeq_MiBps > "
                       f"pageRand_MiBps, got {seq} / {rand}")
    return bad


def check_fig6(rows):
    bad = []
    for r in rows:
        if int(r["workers"]) > FIG6_MAX_WORKERS:
            continue
        peek, put, get = (float(r[k + "_ms/op"])
                          for k in ("peek", "put", "get"))
        if not peek < put < get:
            bad.append(f"fig6 workers={r['workers']} size={r['size_KB']} KB: "
                       f"want peek < put < get ms/op, got "
                       f"{peek} / {put} / {get}")
    return bad


def busy_retries(rows):
    """ServerBusy retries per worker count (printed on its first row)."""
    return {r["workers"]: int(r["busy_retries"])
            for r in rows if r["busy_retries"] != ""}


def check_fig8(rows):
    bad = []
    for r in rows:
        query, insert, update = (float(r[k + "_s"])
                                 for k in ("query", "insert", "update"))
        if not query < insert <= update:
            bad.append(f"fig8 workers={r['workers']} size={r['size_KB']} KB: "
                       f"want query < insert <= update, got "
                       f"{query} / {insert} / {update} s")
    retries = busy_retries(rows)
    for workers in sorted({r["workers"] for r in rows}, key=int):
        if retries.get(workers) != 0:
            bad.append(f"fig8 workers={workers}: want 0 busy_retries, got "
                       f"{retries.get(workers)}")
    return bad


def check_fig8_over_target(rows):
    retries = busy_retries(rows)
    if retries and all(n > 0 for n in retries.values()):
        return []
    return [f"fig8_over_target: want busy_retries > 0, got {retries}"]


def main() -> int:
    golden_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "golden")
    bad = (check_fig4(figure_rows(golden_dir, "fig4")) +
           check_fig5(figure_rows(golden_dir, "fig5")) +
           check_fig6(figure_rows(golden_dir, "fig6")) +
           check_fig8(figure_rows(golden_dir, "fig8")) +
           check_fig8_over_target(figure_rows(golden_dir, "fig8_over_target")))
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
