"""momalg benchmark: one workload, one closed loop of one op at a time.

    python3 perfbench/run.py --workload jet-ring --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 times the ops untraced and reports the end-to-end metrics.
--trace 1 splits --seconds between an untraced loop and a loop with
every momalg layer wrapped (see tracer.py), and reports the per-layer
metrics plus the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Spans and a full record
of the run go to .perfbench_out/ in the checkout.

The op clock runs only while momalg runs; whole cycles of ops run until
it reaches --seconds.  Exit codes: 0 measured (failed ops are counted,
not fatal), 2 the benchmark could not run (no momalg sources, refused by
the memory preflight, a broken set-up).
"""

from __future__ import annotations

import common  # noqa: I001  (pins BLAS threads before numpy loads)

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, layer_metrics, merge
from workloads import WORKLOADS, OpResult

SETUP_SAMPLES = 7  # this process plus six fresh set-up probes
# After each op, off the op clock, the host-speed kernel runs for this
# share of the op's time (see README.md, "Host speed").
CAL_SHARE = 0.05


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="jet-ring, dense-hilbert, cold-algebra, seed-sweep or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_loop(wl, seconds: float, tracer=None) -> list:
    """Closed loop: whole cycles until the op clock reaches `seconds`.
    Each op's result carries the host-speed kernel's median right after it."""
    results = []
    clock = 0.0
    while clock < seconds:
        cycle_results = []
        for name, op in wl.cycle():
            result = OpResult(name)
            op_id = len(results) + len(cycle_results)
            if tracer is not None:
                tracer.op = op_id
            op(result, op_id)
            clock += result.wall_s
            cycle_results.append(result)
            samples = []
            common.calibrate_for(CAL_SHARE * result.wall_s, samples)
            result.cal_s = common.median(samples)
        wl.check_cycle(cycle_results)
        wl.discard_outputs()
        results.extend(cycle_results)
    return results


def warm_up(wl):
    """The first op of one cycle, untimed; its checks still count."""
    name, op = wl.cycle()[0]
    result = OpResult(name)
    op(result, -1)
    wl.discard_outputs()
    return result


def setup_probe(args) -> tuple[float, float]:
    """Set-up time of a fresh process running this same set-up, and the
    host-speed kernel's median right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=170, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise common.BenchError(f"set-up probe failed: {proc.stderr[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["cal_s"])


def _rate(results) -> float:
    total = sum(r.wall_s for r in results)
    return len(results) / total if total > 0 else 0.0


def _print_metric(name, value, unit, detail="") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<42s} {text:>12s} {unit:<9s} {detail}".rstrip())


def end_to_end(wl, results, setups, rss_mb) -> dict:
    """Gated metrics (returned) and the rest (printed)."""
    walls = [r.wall_s for r in results]
    # Each op's time at the reference host speed, scaled by the kernel
    # timed right after it, so that drift within a run is corrected too.
    ref_walls = [r.wall_s * common.CAL_REF_S / r.cal_s for r in results]
    failed = sum(r.failed for r in results)
    tail = common.tail(walls)
    raw_setups = [raw for raw, _ in setups]
    metrics = {
        "setup_s": (common.median([raw * common.CAL_REF_S / cal
                                   for raw, cal in setups]), "s",
                    f"median of {len(setups)} fresh-process set-ups, each "
                    "at the reference host speed"),
        "ops_per_s.ref": (len(ref_walls) / sum(ref_walls), "ops/s",
                          "ops_per_s, each op at the reference host speed"),
        "op_s.p50.ref": (common.median(ref_walls), "s",
                         "op_s.p50, each op at the reference host speed"),
        "peak_rss_mb": (rss_mb, "MB", "max over op child processes"
                        if wl.name == "cold-algebra" else "this process"),
    }
    print("end-to-end metrics (untraced):")
    for name, (value, unit, detail) in metrics.items():
        _print_metric(name, value, unit, detail)
    _print_metric("setup_s.raw", common.median(raw_setups), "s",
                  "median of " + ", ".join(f"{s:.3f}" for s in raw_setups))
    _print_metric("ops_per_s", _rate(results), "ops/s",
                  f"{len(results)} ops in {sum(walls):.2f} s of op time")
    _print_metric("op_s.p50", common.median(walls), "s", f"{len(walls)} ops")
    if tail is None:
        print(f"  {'op_s.tail':<42s} {'n/a':>12s} {'s':<9s} "
              f"needs >= 20 ops, run has {len(walls)}")
    else:
        p, value, beyond = tail
        _print_metric("op_s.tail", value, "s",
                      f"p{p} of {len(walls)} ops, {beyond} beyond it")
    _print_metric("failed_frac", failed / len(results), "ratio",
                  f"{failed} failed of {len(results)} attempted")
    _print_metric("host.cal_s", common.median([r.cal_s for r in results]),
                  "s", "median over ops of the host-speed kernel; "
                  f"reference {common.CAL_REF_S:g} s")
    return {k: v[:2] for k, v in metrics.items()}


def traced(args, wl, tmp: Path, untraced_results):
    """The traced pass; returns its results and the per-layer metrics."""
    spans_path = common.OUT_DIR / "trace" / f"{wl.name}-seed{args.seed}.spans.csv.gz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    import_s = post_import_s = 0.0
    if wl.name == "cold-algebra":
        wl.trace_dir = tmp / "children"
        wl.trace_dir.mkdir()
        results = timed_loop(wl, args.seconds / 2)
        parts = [json.loads(p.read_text())
                 for p in sorted(wl.trace_dir.glob("op*.json"))]
        summary = merge(parts)
        import_s = sum(p["import_s"] for p in parts)
        post_import_s = sum(p["post_import_s"] for p in parts)
        # Each child writes its spans inside the op's wall time, which an
        # untraced op does not; that time is taken out of the op time.
        write_s = sum(p["write_s"] for p in parts)
        op_wall = sum(r.wall_s for r in results) - write_s
        with open(spans_path, "wb") as out:
            for part in sorted(wl.trace_dir.glob("op*.spans.csv.gz")):
                out.write(part.read_bytes())
    else:
        tracer = Tracer()
        tracer.install()
        results = timed_loop(wl, args.seconds / 2, tracer)
        summary = tracer.summary()
        start = time.perf_counter()
        tracer.write_spans(spans_path)
        write_s = time.perf_counter() - start
        op_wall = sum(r.wall_s for r in results)
    metrics = layer_metrics(summary, len(results), op_wall,
                            _rate(untraced_results), import_s, write_s)
    print(f"per-layer metrics (traced, {len(results)} ops, "
          f"{summary['spans']} spans -> {spans_path.relative_to(common.ROOT)}):")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    shares = {layer: metrics[f"{layer}.self_s"][0] * len(results) / op_wall
              for layer in ("jets.matmul", "jets.ring", "algebra",
                            "combinatorics")}
    print(f"  share of traced op time: jets.matmul {shares['jets.matmul']:.1%}; "
          f"jets.ring+algebra+combinatorics "
          f"{shares['jets.ring'] + shares['algebra'] + shares['combinatorics']:.1%}")
    if post_import_s:
        alg = (summary["self_ns"]["algebra"] +
               summary["self_ns"]["combinatorics"]) * 1e-9
        print(f"  algebra+combinatorics share of post-import child time: "
              f"{alg / post_import_s:.1%}")
    return results, metrics


def run_one(args) -> int:
    try:
        common.import_momalg()
    except (common.BenchError, ImportError) as exc:
        print(f"perfbench: cannot import momalg: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    common.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=common.OUT_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        wl.setup()
        warm = warm_up(wl)
        own_setup = (common.since_process_start(), common.host_speed())
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup[0], "cal_s": own_setup[1]}))
            return 0
        print(f"# momalg benchmark: workload={wl.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        # A traced run splits --seconds between its untraced and traced loops.
        results = timed_loop(wl, args.seconds / (1 + args.trace))
        if args.trace:
            traced_results, metrics = traced(args, wl, tmp, results)
            results += traced_results
        else:
            rss = common.peak_rss_mb(resource.RUSAGE_CHILDREN
                                     if wl.name == "cold-algebra"
                                     else resource.RUSAGE_SELF)
            setups = [own_setup] + [setup_probe(args)
                                    for _ in range(SETUP_SAMPLES - 1)]
            metrics = end_to_end(wl, results, setups, rss)
        env = common.environment()
        print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for r in [warm] + results:
        for problem in r.problems:
            print(f"# op {r.name}: {problem}")
    line = {
        "correct": warm.consistent and all(r.consistent for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(line, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env,
                  ops=[[r.name, r.wall_s, r.failed, r.cal_s] for r in results])
    (common.OUT_DIR / "results").mkdir(exist_ok=True)
    (common.OUT_DIR / "results" /
     f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one at a time."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                              stdin=subprocess.DEVNULL)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print()
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    code = run_all(args) if args.workload == "all" else run_one(args)
    if not args.setup_probe:
        print(f"# wall {time.monotonic() - started:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
