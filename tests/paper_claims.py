#!/usr/bin/env python3
"""Checks the paper's shape claims against the committed golden tables, so
a re-recorded golden cannot silently lose a shape the paper reports:

  fig4              page-blob upload beats block-blob upload (MiB/s) at
                    every worker count, and neither download's MiB/s falls
                    as workers grow; page upload saturates from 8 workers
                    and block upload from 4: the first worker count within
                    10% of the top count's MiB/s, and every later count
                    stays within it;
  fig5              sequential block reads beat random page reads (MiB/s)
                    at every worker count;
  fig6              Peek < Put < Get ms/op at every message size, for every
                    worker count up to 80 (at 96 the peek phase reaches the
                    account's transaction target; see EXPERIMENTS.md); the
                    16 KB Get is at least 1.4x the 8 KB and 32 KB Get at
                    every worker count (the paper's 16 KB anomaly);
  fig7              no ms/op column rises as think time grows, at any worker
                    count; at 96 workers Get at 1 s think is at least 1.8x
                    Get at 5 s; the shared-queue Get at 96 workers and 1 s
                    think exceeds fig6's separate-queue 32 KB Get at 96; no
                    phase time rises with workers at 2-5 s think, nor
                    through 64 workers at 1 s think;
  fig8              query < insert <= update at every entity size and worker
                    count, with no ServerBusy retry at any worker count;
                    4 KB and 8 KB insert, query, update and delete stay
                    within 1% across worker counts; 32 KB and 64 KB insert
                    at 96 workers take at least 2x their 1-worker time;
  fig8_over_target  160 workers over the account target do retry ServerBusy
                    (the paper: 1,000 entities did not avoid exceptions);
  fig9              q_put and q_get stay within 1% across worker counts, and
                    q_peek through 80 workers (at 96 it meets the account
                    target, as in fig6); tbl_query and tbl_delete stay
                    within 1%; tbl_insert and tbl_update at 96 workers take
                    at least 1.5x their 1-worker time.

Usage: python3 tests/paper_claims.py [GOLDEN_DIR]   (default: tests/golden)
Prints every failing row and exits 1 if there is one.
"""
import csv
import io
import os
import sys

FIG4_PLATEAU = 0.10
FIG4_SATURATED_FROM = {"pageUp_MiBps": 8, "blockUp_MiBps": 4}
FIG6_MAX_WORKERS = 80
FIG6_ANOMALY = 1.4
FIG7_THINK_RATIO = 1.8
FIG7_RISING_PHASE_AFTER = 64  # workers; at 1 s think only
FLAT = 0.01
FIG8_DEGRADE = 2.0
FIG9_DEGRADE = 1.5


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
    ordered = by_workers(rows)
    for col, want in FIG4_SATURATED_FROM.items():
        top = float(ordered[-1][col])
        near = [abs(float(r[col]) - top) <= FIG4_PLATEAU * top
                for r in ordered]
        first = near.index(True)
        got = int(ordered[first]["workers"])
        if got != want or not all(near[first:]):
            bad.append(f"fig4: want {col} within {FIG4_PLATEAU:.0%} of its "
                       f"{ordered[-1]['workers']}-worker value {top} from "
                       f"workers={want} on, got "
                       + ", ".join(f"{r['workers']}: {r[col]}"
                                   for r in ordered))
    return bad


def check_fig5(rows):
    bad = []
    for r in rows:
        seq, rand = float(r["blockSeq_MiBps"]), float(r["pageRand_MiBps"])
        if not seq > rand:
            bad.append(f"fig5 workers={r['workers']}: want blockSeq_MiBps > "
                       f"pageRand_MiBps, got {seq} / {rand}")
    return bad


def spread_bad(label, rows, col):
    """A complaint when COL varies by more than FLAT (max over min) across
    ROWS, else None."""
    values = [float(r[col]) for r in rows]
    lo, hi = min(values), max(values)
    if hi <= lo * (1 + FLAT):
        return None
    return (f"{label}: want {col} within {FLAT:.0%} across worker counts, "
            f"got {lo} .. {hi}")


def ratio_bad(label, num, den, least):
    """A complaint when NUM / DEN is below LEAST, else None."""
    if num >= least * den:
        return None
    return (f"{label}: want at least {least}x, got {num} / {den} = "
            f"{num / den:.3f}x")


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
    get = {(r["workers"], r["size_KB"]): float(r["get_ms/op"]) for r in rows}
    for workers in sorted({r["workers"] for r in rows}, key=int):
        for other in ("8", "32"):
            bad.append(ratio_bad(
                f"fig6 workers={workers}: 16 KB get_ms/op over {other} KB",
                get[(workers, "16")], get[(workers, other)], FIG6_ANOMALY))
    return [b for b in bad if b]


def check_fig7(rows, fig6_rows):
    bad = []
    cell = {(int(r["workers"]), int(r["think_s"])): r for r in rows}
    workers = sorted({w for w, _ in cell})
    thinks = sorted({t for _, t in cell})
    for w in workers:
        for col in ("put_ms/op", "peek_ms/op", "get_ms/op"):
            for t0, t1 in zip(thinks, thinks[1:]):
                a, b = float(cell[(w, t0)][col]), float(cell[(w, t1)][col])
                if b > a:
                    bad.append(f"fig7 workers={w}: want {col} not to rise "
                               f"with think time, got {a} at {t0} s < {b} "
                               f"at {t1} s")
    top = max(workers)
    top_get = {t: float(cell[(top, t)]["get_ms/op"]) for t in thinks}
    bad.append(ratio_bad(
        f"fig7 workers={top}: get_ms/op at think {thinks[0]} s over "
        f"{thinks[-1]} s", top_get[thinks[0]], top_get[thinks[-1]],
        FIG7_THINK_RATIO))
    separate = [float(r["get_ms/op"]) for r in fig6_rows
                if int(r["workers"]) == top and r["size_KB"] == "32"]
    if not top_get[thinks[0]] > separate[0]:
        bad.append(f"fig7 workers={top} think={thinks[0]} s: want the shared "
                   f"queue's get_ms/op above fig6's separate-queue 32 KB "
                   f"get_ms/op, got {top_get[thinks[0]]} / {separate[0]}")
    for t in thinks:
        upto = FIG7_RISING_PHASE_AFTER if t == thinks[0] else top
        steps = [w for w in workers if w <= upto]
        for col in ("put_s", "peek_s", "get_s"):
            for w0, w1 in zip(steps, steps[1:]):
                a, b = float(cell[(w0, t)][col]), float(cell[(w1, t)][col])
                if b > a:
                    bad.append(f"fig7 think={t} s: want {col} not to rise "
                               f"with workers, got {a} at {w0} < {b} at {w1}")
    return [b for b in bad if b]


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
    for size in ("4", "8"):
        sized = [r for r in rows if r["size_KB"] == size]
        for col in ("insert_s", "query_s", "update_s", "delete_s"):
            bad.append(spread_bad(f"fig8 size={size} KB", sized, col))
    for size in ("32", "64"):
        sized = by_workers([r for r in rows if r["size_KB"] == size])
        bad.append(ratio_bad(
            f"fig8 size={size} KB: insert_s at workers={sized[-1]['workers']} "
            f"over workers={sized[0]['workers']}",
            float(sized[-1]["insert_s"]), float(sized[0]["insert_s"]),
            FIG8_DEGRADE))
    return [b for b in bad if b]


def check_fig8_over_target(rows):
    retries = busy_retries(rows)
    if retries and all(n > 0 for n in retries.values()):
        return []
    return [f"fig8_over_target: want busy_retries > 0, got {retries}"]


def check_fig9(rows):
    bad = [spread_bad("fig9", rows, col)
           for col in ("q_put", "q_get", "tbl_query", "tbl_delete")]
    bad.append(spread_bad(
        "fig9 through 80 workers",
        [r for r in rows if int(r["workers"]) <= FIG6_MAX_WORKERS], "q_peek"))
    ordered = by_workers(rows)
    for col in ("tbl_insert", "tbl_update"):
        bad.append(ratio_bad(
            f"fig9 {col} at workers={ordered[-1]['workers']} over "
            f"workers={ordered[0]['workers']}",
            float(ordered[-1][col]), float(ordered[0][col]), FIG9_DEGRADE))
    return [b for b in bad if b]


def main() -> int:
    golden_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "golden")
    fig6 = figure_rows(golden_dir, "fig6")
    bad = (check_fig4(figure_rows(golden_dir, "fig4")) +
           check_fig5(figure_rows(golden_dir, "fig5")) +
           check_fig6(fig6) +
           check_fig7(figure_rows(golden_dir, "fig7"), fig6) +
           check_fig8(figure_rows(golden_dir, "fig8")) +
           check_fig8_over_target(figure_rows(golden_dir, "fig8_over_target")) +
           check_fig9(figure_rows(golden_dir, "fig9")))
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
