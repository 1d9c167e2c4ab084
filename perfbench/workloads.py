"""The four benchmark workloads, their inputs and their output checks.

Every op goes through a public entry point of momalg: `momalg.cli.main`
in this process, or `python -m momalg` in a fresh child.  An op's wall
time covers only the program call; reading back and checking its outputs
happens between ops, off the clock.

Why these four (each stresses a different layer, see README.md):

* jet-ring: thermal at n=4 on a 32-dim joint space.  About half of an op
  is the jet-valued log* (Jet products building Multiset keys); JetMatrix
  products take ~30%, mostly Python loop over small blocks.
* dense-hilbert: thermal at n=3 on a 128-dim joint space.  JetMatrix
  products take most of an op; the ring lattice has only 8 entries.
* cold-algebra: one fresh `python -m momalg algebra ...` per op on n=8
  subset maps and caps-2 multiset maps: interpreter start, cold partition
  enumeration and JSON I/O, no jets or quantum code.
* seed-sweep: small `verify` calls (genfun, thermal), where per-call
  costs (config generation, weak values, report writing) dominate.

Only scenarios without postselection (thermal, genfun) are timed.  The
postselected verifiers (thm1-thm4, multiset) divide by a random
transition amplitude, so their values, and with them the errors their
absolute-error gate sees, are unbounded over random instances: about one
instance in a few hundred gets a false FAIL (ROADMAP item 4), and no seed
range is free of them.  selftest.py runs those and counts them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import re
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import BENCH_DIR, child_env, jet_matrix_bytes, preflight

CHILD_TIMEOUT_S = 150
# Relative agreement demanded of chained algebra outputs; the partition-sum
# results agree to ~1e-13 relative at n=8.
CHAIN_RTOL = 1e-9


@dataclass
class OpResult:
    """One op: its wall time, whether it failed, and whether its outputs
    were internally consistent (False makes the run incorrect)."""

    name: str
    wall_s: float = 0.0
    cal_s: float = 0.0     # host-speed kernel's median right after the op
    failed: bool = False
    consistent: bool = True
    problems: list = field(default_factory=list)

    def fail(self, reason: str, inconsistent: bool = False) -> None:
        self.failed = True
        self.consistent = self.consistent and not inconsistent
        self.problems.append(reason)


# ---------------------------------------------------------------------------
# verify ops, in process


_ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\d+)\s+(\S+)\s+(pass|FAIL|SKIP)$")
_SUMMARY = re.compile(
    r"^(\d+) run\(s\): (\d+) passed, (\d+) failed, (\d+) skipped")


@functools.lru_cache(maxsize=None)
def _parser():
    # Built once, at set-up, so that a traced run records no parser spans
    # outside the ops.
    return sys.modules["momalg.cli"].build_parser()


def verify_args(argv: list):
    """The namespace momalg's own parser makes of a verify argv, defaults
    included."""
    return _parser().parse_args(argv)


def run_verify(result: OpResult, argv: list, outdir: Path) -> None:
    """Call `momalg.cli.main(["verify", ...])`, then check what it wrote
    and printed.  Looked up on the module at call time so that tracing
    wrappers apply."""
    cli = sys.modules["momalg.cli"]
    buf = io.StringIO()
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv) + ["--out", str(outdir)])
    except Exception as exc:  # the op must be counted, not end the run
        result.wall_s += time.perf_counter() - start
        result.fail(f"{argv[1]}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return
    result.wall_s += time.perf_counter() - start
    check_verify(result, argv, outdir, rc, buf.getvalue())


def check_verify(result: OpResult, argv: list, outdir: Path, rc,
                 printed: str) -> None:
    alias = argv[1]
    if rc not in (0, 1):
        result.fail(f"{alias}: exit code {rc}")
        return
    bad = lambda why: result.fail(f"{alias}: {why}", inconsistent=True)
    try:
        manifest = json.loads((outdir / f"manifest_{alias}.json").read_text())
        reports = [json.loads((outdir / name).read_text())
                   for name in manifest["reports"]]
        with open(outdir / manifest["csv"], newline="", encoding="utf-8") as fh:
            csv_rows = sum(1 for _ in csv.DictReader(fh))
    except (OSError, ValueError, KeyError) as exc:
        bad(f"unreadable output: {exc}")
        return
    args = verify_args(argv)
    seeds = args.seeds.split(",")
    if len(reports) != len(seeds):
        bad(f"{len(reports)} reports for {len(seeds)} seeds")
    verdicts = []
    for rep in reports:
        records = rep.get("records", [])
        errors = [r["abs_error"] for r in records]
        tol = rep.get("metadata", {}).get("tolerance")
        for r in records:
            err = abs(complex(r["lhs_re"], r["lhs_im"]) -
                      complex(r["rhs_re"], r["rhs_im"]))
            if not math.isclose(err, r["abs_error"], rel_tol=1e-12, abs_tol=1e-300):
                bad(f"seed {rep['seed']} {r['subset']}: abs_error "
                    f"{r['abs_error']} but |lhs - rhs| = {err}")
            if r["passed"] and not r["abs_error"] <= tol:
                bad(f"seed {rep['seed']} {r['subset']}: passed above tolerance")
        if rep["status"] == "ok":
            if rep["passed"] != all(r["passed"] for r in records):
                bad(f"seed {rep['seed']}: report verdict disagrees with records")
            if rep["max_abs_error"] != max(errors, default=0.0):
                bad(f"seed {rep['seed']}: max_abs_error is not the records' max")
            if alias in ("thm1", "thm2", "thm3", "thm4", "thermal") and \
                    len(records) != 2 ** args.pointers - 1:
                bad(f"seed {rep['seed']}: {len(records)} records, expected "
                    f"{2 ** args.pointers - 1}")
        verdicts.append((str(rep["seed"]), rep["status"], len(records),
                         "SKIP" if rep["status"] != "ok" else
                         "pass" if rep["passed"] is True else "FAIL"))
    if csv_rows != sum(v[2] for v in verdicts):
        bad(f"CSV has {csv_rows} rows for {sum(v[2] for v in verdicts)} records")
    rows = [m.groups() for m in map(_ROW.match, printed.splitlines()) if m]
    printed_verdicts = [(g[1], g[2], int(g[3]), g[5]) for g in rows]
    if printed_verdicts != verdicts:
        bad(f"printed table {printed_verdicts} != reports {verdicts}")
    fails = sum(v[3] == "FAIL" for v in verdicts)
    skips = sum(v[3] == "SKIP" for v in verdicts)
    summary = [m.groups() for m in map(_SUMMARY.match, printed.splitlines()) if m]
    expected = (str(len(verdicts)), str(len(verdicts) - fails - skips),
                str(fails), str(skips))
    if summary != [expected]:
        bad(f"printed summary {summary} != {expected}")
    if rc != (1 if fails else 0):
        bad(f"exit code {rc} with {fails} FAIL verdict(s)")
    for seed, status, _, verdict in verdicts:
        if verdict != "pass":
            result.fail(f"{alias} seed {seed}: {verdict} ({status})")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs from the seed, ops in cycles of one kind, checks per op."""

    name = ""
    index = 0
    # Whole cycles run until the op clock reaches --seconds, so that every
    # run holds the same mix of op kinds.

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.rng = np.random.default_rng([seed, self.index])
        self.trace_dir: Path | None = None
        self.cycles = 0
        self._dirs: list[Path] = []

    def setup(self) -> None:
        """Generate inputs and refuse any configuration over the memory cap."""

    def cycle(self) -> list:
        """The next cycle: a list of (name, callable(OpResult, op_id))."""
        raise NotImplementedError

    def check_cycle(self, results: list) -> None:
        """Checks that span several ops of one cycle."""

    def _fresh_dir(self, tag: str) -> Path:
        self.cycles += 1
        path = self.tmp / f"{tag}{self.cycles}"
        path.mkdir()
        self._dirs.append(path)
        return path

    def discard_outputs(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()


class VerifyWorkload(Workload):
    """One op = one or more in-process `momalg verify` calls, one seed."""

    calls: tuple = ()      # (alias, CLI flags) per call

    def setup(self) -> None:
        for alias, flags in self.calls:
            args = verify_args(self.argv(alias, flags, 1))
            if alias == "genfun":
                # No jets: one joint pmf over at most 3 outcomes per variable.
                preflight(f"{self.name} genfun vars={args.vars}",
                          3 ** args.vars * 16)
                continue
            preflight(f"{self.name} {alias} n={args.pointers} "
                      f"d={args.sysdim}x{args.pointer_dim}",
                      jet_matrix_bytes(args.pointers, args.sysdim,
                                       args.pointer_dim))

    @staticmethod
    def argv(alias, flags, seed) -> list:
        return ["verify", alias, "--seeds", str(seed), *flags]

    def _seed(self) -> int:
        return int(self.rng.integers(1, 1_000_000))

    def cycle(self) -> list:
        seed = self._seed()
        outdir = self._fresh_dir("op")

        def op(result: OpResult, op_id: int) -> None:
            for alias, flags in self.calls:
                run_verify(result, self.argv(alias, flags, seed), outdir)
        return [(f"seed{seed}", op)]


class JetRing(VerifyWorkload):
    name = "jet-ring"
    index = 1
    calls = (("thermal", ("--pointers", "4", "--sysdim", "2",
                          "--pointer-dim", "2")),)


class DenseHilbert(VerifyWorkload):
    name = "dense-hilbert"
    index = 2
    calls = (("thermal", ("--pointers", "3", "--sysdim", "2",
                          "--pointer-dim", "4")),)


class SeedSweep(VerifyWorkload):
    """One op = one verify call; a cycle walks thermal at n=2, genfun with
    two variables and thermal at the CLI defaults.

    genfun draws 2 or 3 outcomes per variable, so its op time depends on
    the instance; with three variables its ~35 ms ops sat in the middle of
    the op-time distribution and their spread moved op_s.p50 between runs
    by up to 16%.  With two variables they take ~5 ms, and the median falls
    on thermal n=2, whose op time hardly depends on the instance.
    """

    name = "seed-sweep"
    index = 4
    calls = (("thermal", ("--pointers", "2")), ("genfun", ("--vars", "2")),
             ("thermal", ()))

    def cycle(self) -> list:
        ops = []
        for alias, flags in self.calls:
            argv = self.argv(alias, flags, self._seed())
            outdir = self._fresh_dir("op")

            def op(result, op_id, argv=argv, outdir=outdir):
                run_verify(result, argv, outdir)
            ops.append((f"{alias}:{argv[3]}", op))
        return ops


# ---------------------------------------------------------------------------
# cold algebra, one child process per op


def load_mmap(path: Path) -> tuple[dict, dict]:
    """M-map JSON as {element tuple: complex}, plus the raw payload."""
    payload = json.loads(path.read_text())
    if payload.get("schema") != 1 or "entries" not in payload:
        raise ValueError(f"{path.name}: not a schema-1 M-map")
    values = {tuple(e["m"]): complex(e["re"], e["im"]) for e in payload["entries"]}
    if not all(math.isfinite(abs(v)) for v in values.values()):
        raise ValueError(f"{path.name}: non-finite entry")
    return values, payload


def _max_abs_diff(x: dict, y: dict) -> float:
    keys = sorted(set(x) | set(y))
    a = np.array([x.get(k, 0j) for k in keys])
    b = np.array([y.get(k, 0j) for k in keys])
    return float(np.max(np.abs(a - b), initial=0.0))


def _sup(x: dict) -> float:
    return max(1.0, max((abs(v) for v in x.values()), default=0.0))


def _lattice(n: int, cap: int) -> list:
    """Sorted element tuples of every multiset over 1..n with mult <= cap."""
    out = []
    for mults in np.ndindex(*([cap + 1] * n)):
        out.append(tuple(lab for lab, m in enumerate(mults, 1) for _ in range(m)))
    return out


class ColdAlgebra(Workload):
    """One op = one fresh `python -m momalg algebra <op>` process.

    A cycle runs log, exp(log), inverse, convolve(f, inverse) and series on
    an n=8 subset map, then the same on a caps-2 map over 4 labels.  The
    chained outputs are checked against each other with numpy afterwards.
    """

    name = "cold-algebra"
    index = 3
    families = (("subset8", 8, 1), ("caps2x4", 4, 2))
    pool = 2           # input maps per family, reused cyclically
    depth = 40         # series depth; |g(empty)| = 0.1 makes it converge

    def setup(self) -> None:
        for tag, n, cap in self.families:
            preflight(f"{self.name} {tag}", (cap + 1) ** n * 16)
            for i in range(self.pool):
                keys = _lattice(n, cap)
                vals = self.rng.normal(0.0, 0.5, (len(keys), 2))
                entries = []
                for key, (re_, im) in zip(keys, vals):
                    if not key:
                        re_, im = 1.0 + 0.1 * re_, 0.1 * im
                    entries.append({"m": list(key), "re": re_, "im": im})
                f = {"schema": 1, "n": n, "caps": [cap] * n, "entries": entries}
                (self.tmp / f"{tag}_{i}_f.json").write_text(json.dumps(f))
                g = json.loads(json.dumps(f))
                g["entries"][0]["re"] -= 1.0      # g = f - 1: log(1+g) = log f
                (self.tmp / f"{tag}_{i}_g.json").write_text(json.dumps(g))

    def _command(self, args: list, op_id: int) -> list:
        if self.trace_dir is None:
            return [sys.executable, "-m", "momalg", "algebra"] + args
        return [sys.executable, str(BENCH_DIR / "launch.py"),
                str(self.trace_dir / f"op{op_id}.json"), str(op_id),
                "algebra"] + args

    def _child(self, result: OpResult, args: list, op_id: int,
               output: Path) -> None:
        start = time.perf_counter()
        try:
            proc = subprocess.run(self._command(args, op_id), env=child_env(),
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result.wall_s += time.perf_counter() - start
            result.fail(f"timed out after {CHILD_TIMEOUT_S} s")
            return
        result.wall_s += time.perf_counter() - start
        if proc.returncode != 0:
            result.fail(f"exit code {proc.returncode}: "
                        f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
            return
        try:
            load_mmap(output)
        except (OSError, ValueError, KeyError) as exc:
            result.fail(f"unreadable output: {exc}", inconsistent=True)

    def cycle(self) -> list:
        work = self._fresh_dir("cycle")
        i = (self.cycles - 1) % self.pool
        ops = []
        for tag, _, _ in self.families:
            f = self.tmp / f"{tag}_{i}_f.json"
            g = self.tmp / f"{tag}_{i}_g.json"
            out = {k: work / f"{tag}_{k}.json" for k in "LEICS"}
            steps = (("log", [str(f)], "L"), ("exp", [str(out["L"])], "E"),
                     ("inverse", [str(f)], "I"),
                     ("convolve", [str(f), str(out["I"])], "C"),
                     ("series", [str(g), "--depth", str(self.depth)], "S"))
            for op, inputs, key in steps:
                args = [op] + inputs + ["-o", str(out[key])]

                def run(result, op_id, args=args, output=out[key]):
                    self._child(result, args, op_id, output)
                ops.append((f"{tag}:{op}", run))
        self.last_cycle = (work, i)
        return ops

    def check_cycle(self, results: list) -> None:
        work, i = self.last_cycle
        by_name = {r.name: r for r in results}
        for tag, _, _ in self.families:
            res = {op: by_name[f"{tag}:{op}"] for op in
                   ("log", "exp", "inverse", "convolve", "series")}
            if any(r.failed for r in res.values()):
                continue
            try:
                f, _ = load_mmap(self.tmp / f"{tag}_{i}_f.json")
                L, _ = load_mmap(work / f"{tag}_L.json")
                E, _ = load_mmap(work / f"{tag}_E.json")
                I, _ = load_mmap(work / f"{tag}_I.json")
                C, _ = load_mmap(work / f"{tag}_C.json")
                S, s_payload = load_mmap(work / f"{tag}_S.json")
                delta = max(d["abs"] for d in s_payload["truncation_delta"])
            except (OSError, ValueError, KeyError) as exc:
                res["series"].fail(f"unreadable chain output: {exc}", True)
                continue
            scale = _sup(f) * _sup(L)
            err = _max_abs_diff(E, f)
            if err > CHAIN_RTOL * scale:
                res["exp"].fail(f"{tag}: exp(log f) - f = {err:.3e}", True)
            err = _max_abs_diff(C, {(): 1.0})
            if err > CHAIN_RTOL * _sup(f) * _sup(I):
                res["convolve"].fail(f"{tag}: f * f^-1 - 1 = {err:.3e}", True)
            err = _max_abs_diff(S, L)
            if err > CHAIN_RTOL * _sup(L) + 100 * delta:
                res["series"].fail(
                    f"{tag}: series(f-1) - log f = {err:.3e} "
                    f"(last term {delta:.1e})", True)


WORKLOADS = {w.name: w for w in (JetRing, DenseHilbert, ColdAlgebra, SeedSweep)}
