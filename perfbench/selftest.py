"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs a few ops through the same op and check code as run.py and shows
that each kind of failure is counted in failed_frac:

1. a clean verify op is not counted (no false positives);
2. a verify op run with `--tol 0` is counted, and its output stays
   consistent (the FAIL is momalg's verdict, not a broken report);
3. thm1 at --pointers 4 on seeds 117 and 254 (false FAILs of the
   absolute-error gate) plus seed 5 count exactly as many failed ops as
   `python -m momalg verify` prints FAIL verdicts for the same seeds;
4. a cold-algebra cycle whose exp output file is corrupted after the op
   is counted as failed and marks the run incorrect.

Exit code 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import common  # noqa: I001  (pins BLAS threads before numpy loads)

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import ColdAlgebra, OpResult, run_verify


def verify_ops(tmp: Path, alias: str, seeds, extra=()) -> list:
    results = []
    for seed in seeds:
        out = tmp / f"{alias}-{seed}"
        out.mkdir()
        result = OpResult(f"{alias}:{seed}")
        run_verify(result, ["verify", alias, "--seeds", str(seed), *extra], out)
        results.append(result)
    return results


def printed_fails(tmp: Path, alias: str, seeds, extra=()) -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "momalg", "verify", alias, "--seeds",
         ",".join(map(str, seeds)), *extra, "--out", str(tmp / "printed")],
        env=common.child_env(), capture_output=True, text=True, timeout=170)
    return sum(line.rstrip().endswith("FAIL") for line in proc.stdout.splitlines())


def main() -> int:
    common.import_momalg()
    common.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=common.OUT_DIR))
    checks = []

    def expect(label: str, ok: bool, detail: str = "") -> None:
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))

    try:
        clean = verify_ops(tmp, "thm3", [7])[0]
        expect("clean thm3 op not counted as failed", not clean.failed,
               "; ".join(clean.problems))

        tol0 = verify_ops(tmp, "thm3", [8], ["--tol", "0"])[0]
        expect("--tol 0 op counted as failed", tol0.failed,
               "; ".join(tol0.problems))
        expect("--tol 0 op outputs consistent", tol0.consistent)

        seeds = [117, 254, 5]
        extra = ["--pointers", "4"]
        ops = verify_ops(tmp, "thm1", seeds, extra)
        counted = sum(r.failed for r in ops)
        printed = printed_fails(tmp, "thm1", seeds, extra)
        expect("thm1 n=4 failed ops equal printed FAIL verdicts",
               counted == printed, f"{counted} counted, {printed} printed")

        wl = ColdAlgebra(seed=1, tmp=tmp)
        wl.setup()
        cycle = []
        for name, op in wl.cycle():
            result = OpResult(name)
            op(result, len(cycle))
            cycle.append(result)
        work, _ = wl.last_cycle
        path = work / "subset8_E.json"
        payload = json.loads(path.read_text())
        payload["entries"][3]["re"] += 1e-3
        path.write_text(json.dumps(payload))
        wl.check_cycle(cycle)
        exp_op = next(r for r in cycle if r.name == "subset8:exp")
        others = [r for r in cycle if r is not exp_op]
        expect("corrupted exp output counted as failed", exp_op.failed,
               "; ".join(exp_op.problems))
        expect("corrupted exp output marks the run incorrect",
               not exp_op.consistent)
        expect("other chained ops of that cycle pass",
               not any(r.failed for r in others))

        every = [clean, tol0, *ops, *cycle]
        failed = sum(r.failed for r in every)
        print(f"failed_frac over these {len(every)} ops: {failed}/{len(every)}"
              f" = {failed / len(every):.3f}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
