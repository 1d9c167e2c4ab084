"""Ungated scaling report: verify time against the pointer count n.

    python3 perfbench/scaling.py [--out .perfbench_out/BENCH_scaling.json]

Runs thm1, thm3, thm4 and thermal at system and pointer dimension 2 for
n = 2..6, one cell at a time, each as one `momalg.cli.main(["verify",
...])` call on seed 1 in a fresh child process.  A cell is killed when it
passes the per-cell budget, and larger n of that scenario are skipped;
the memory preflight refuses a cell before it starts.  Prints the table,
the largest n within budget and the growth factor per added pointer, and
writes the same as JSON.  This is a report, not a benchmark workload.
"""

from __future__ import annotations

import common  # noqa: I001  (pins BLAS threads before numpy loads)

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCENARIOS = ("thm1", "thm3", "thm4", "thermal")
DIM = 2
NS = range(2, 7)
BUDGET_S = 60.0  # per cell, before the cell is killed


def cell(alias: str, n: int) -> None:
    """Child side: one timed verify call, printed as JSON."""
    common.import_momalg()
    cli = sys.modules["momalg.cli"]
    with tempfile.TemporaryDirectory(dir=common.OUT_DIR) as out:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", alias, "--seeds", "1", "--pointers",
                           str(n), "--sysdim", str(DIM), "--pointer-dim",
                           str(DIM), "--out", out])
        seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "exit_code": rc}))


def run_cell(alias: str, n: int) -> dict:
    estimate = common.jet_matrix_bytes(n, DIM, DIM)
    try:
        common.preflight(f"{alias} n={n}", estimate)
    except common.BenchError as exc:
        return {"status": "refused", "detail": str(exc), "bytes": estimate}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--cell", alias, str(n)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=BUDGET_S, stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return {"status": "over budget", "bytes": estimate}
    if proc.returncode != 0:
        return {"status": "error", "detail": proc.stderr[-300:], "bytes": estimate}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"status": "ok", "seconds": out["seconds"],
            "exit_code": out["exit_code"], "bytes": estimate}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=str(common.OUT_DIR / "BENCH_scaling.json"))
    p.add_argument("--cell", nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    common.OUT_DIR.mkdir(exist_ok=True)
    if args.cell:
        cell(args.cell[0], int(args.cell[1]))
        return 0
    common.import_momalg()
    table = {}
    for alias in SCENARIOS:
        row = {}
        stopped = None
        for n in NS:
            if stopped:
                row[n] = {"status": f"skipped ({stopped} at smaller n)"}
                continue
            row[n] = run_cell(alias, n)
            if row[n]["status"] != "ok":
                stopped = row[n]["status"]
        table[alias] = row
    summary = {}
    print(f"verify seconds, seed 1, d={DIM}x{DIM}, budget {BUDGET_S:g} s per cell")
    print(f"{'n':<10s}" + "".join(f"{n:>12d}" for n in NS) +
          f"{'largest n':>11s}{'growth/ptr':>12s}")
    for alias, row in table.items():
        done = [n for n in NS if row[n]["status"] == "ok"]
        factors = [row[n + 1]["seconds"] / row[n]["seconds"]
                   for n in done if n + 1 in done]
        geo = math.exp(sum(map(math.log, factors)) / len(factors)) if factors else None
        summary[alias] = {"largest_n_within_budget": max(done, default=None),
                          "growth_per_pointer": factors,
                          "growth_per_pointer_geomean": geo}
        cells = "".join(f"{row[n]['seconds']:>12.3f}" if row[n]["status"] == "ok"
                        else f"{row[n]['status'].split()[0]:>12s}" for n in NS)
        print(f"{alias:<10s}{cells}{str(max(done, default='-')):>11s}"
              f"{(f'{geo:.1f}x' if geo else '-'):>12s}")
    record = {"kind": "scaling", "budget_s": BUDGET_S, "dims": [DIM, DIM],
              "seed": 1, "cells": {a: {str(n): c for n, c in row.items()}
                                   for a, row in table.items()},
              "summary": summary, "env": common.environment()}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
