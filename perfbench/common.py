"""Shared plumbing for the momalg benchmark: thread pinning, paths, process
start time, environment record, the host-speed kernel, order statistics
and the memory preflight.

Import this module before numpy: it pins every BLAS/OpenMP pool to one
thread through the environment, which numpy reads when it loads, and which
every child process inherits.  Two BLAS threads made the dense workload
about 30% faster on a 2-vCPU Xeon VM, but single calls then took up to 5x
the median, which would swamp the bounds.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Largest JetMatrix the benchmark lets momalg allocate: lattice * dim^2 * 16 B.
MEMORY_CAP_BYTES = 256 * 2**20

# Median of calibrate() on the host the bounds were tuned on (2-vCPU Intel
# Xeon VM, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31, one BLAS thread).
CAL_REF_S = 1.8e-3


class BenchError(Exception):
    """The benchmark cannot run here (missing program, refused config)."""


def child_env() -> dict:
    """Environment for `python -m momalg` children: the checkout's sources
    first on the path, thread pins inherited from this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def import_momalg():
    """Import momalg from the checkout's src/, never from site-packages."""
    if not (SRC / "momalg" / "__init__.py").is_file():
        raise BenchError(f"no momalg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import momalg
    import momalg.cli
    here = Path(momalg.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise BenchError(f"momalg imported from {here}, not from {SRC}")
    return momalg


def since_process_start() -> float:
    """Seconds since the kernel started this process (10 ms resolution)."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def peak_rss_mb(who: int) -> float:
    """ru_maxrss of RUSAGE_SELF or RUSAGE_CHILDREN, in MiB."""
    import resource
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# host speed


def calibrate() -> float:
    """Seconds for one fixed kernel: an integer loop and a 64x64 complex
    matrix product.  It never touches momalg, so no change to the program
    can move it; its median over a run tracks how fast the host is."""
    import numpy as np
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    a = np.ones((64, 64), complex)
    (a @ a).sum()
    return time.perf_counter() - start


def calibrate_for(seconds: float, samples: list) -> None:
    """Append calibrate() times until `seconds` have passed, at least once."""
    end = time.perf_counter() + seconds
    samples.append(calibrate())
    while time.perf_counter() < end:
        samples.append(calibrate())


def host_speed(seconds: float = 0.1) -> float:
    """Median calibrate() time over `seconds`: the host speed right now."""
    samples = []
    calibrate_for(seconds, samples)
    return median(samples)


# ---------------------------------------------------------------------------
# statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[int, float, int] | None:
    """Highest integer percentile with at least ten samples beyond it, by
    nearest rank.  Returns (percentile, value, samples beyond), or None
    when fewer than 20 samples exist."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


# ---------------------------------------------------------------------------
# memory preflight


def jet_matrix_bytes(pointers: int, sysdim: int, pointer_dim: int,
                     caps: int = 1) -> int:
    """lattice * dim^2 * 16 B for one JetMatrix on the joint space."""
    lattice = (caps + 1) ** pointers
    dim = sysdim * pointer_dim ** pointers
    return lattice * dim * dim * 16


def preflight(label: str, estimate: int, cap: int = MEMORY_CAP_BYTES) -> None:
    if estimate > cap:
        raise BenchError(
            f"preflight refused {label}: one JetMatrix needs about "
            f"{estimate / 2**20:.1f} MiB, over the {cap / 2**20:.0f} MiB cap")


# ---------------------------------------------------------------------------
# environment record


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, looked up by its exported name."""
    import ctypes
    libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text()
            .splitlines() if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "momalg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (checkout is not a git repository)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
